//! Rendering machine steps in the paper's protocol-narration notation.
//!
//! The paper displays attacks as message sequences such as
//!
//! ```text
//! Message 1   A → E(B) : {M}K_AB      E intercepts the message intended for B
//! Message 2   E(A) → B : {M}K_AB      E pretending to be A
//! ```
//!
//! [`Narrator`] reconstructs the honest parties' part of this view from
//! [`StepInfo`]s: a [`RoleMap`] names the protocol roles by their tree
//! positions (replicated instances inherit the role of their replication,
//! with an instance suffix).  The intruder's `E(·)` moves are narrated by
//! the verifier, which sees its intercepts and injections.

use spi_addr::Path;

use crate::{Config, StepInfo};

/// Maps tree positions to protocol role names.
///
/// A role registered at position `p` also covers every position below `p`
/// — the instances a replication at `p` spawns — which are rendered with
/// an instance suffix (`A#2`).
///
/// # Example
///
/// ```
/// use spi_addr::Path;
/// use spi_semantics::RoleMap;
///
/// let mut roles = RoleMap::new();
/// roles.role("A", "00".parse::<Path>()?);
/// roles.role("B", "01".parse::<Path>()?);
/// assert_eq!(roles.role_of(&"00".parse::<Path>()?), Some("A".to_owned()));
/// // An instance spawned below A's replication:
/// assert_eq!(roles.role_of(&"0010".parse::<Path>()?), Some("A#2".to_owned()));
/// # Ok::<(), spi_addr::AddrError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoleMap {
    roles: Vec<(Path, String)>,
}

impl RoleMap {
    /// An empty role map.
    #[must_use]
    pub fn new() -> RoleMap {
        RoleMap::default()
    }

    /// Registers `name` as the role at `position`.
    pub fn role(&mut self, name: impl Into<String>, position: Path) -> &mut RoleMap {
        self.roles.push((position, name.into()));
        self
    }

    /// The role covering `position`: an exact or ancestor match, with a
    /// replication-instance suffix when the position lies strictly below
    /// the registered one.
    ///
    /// Instances are numbered by their position along the replication's
    /// right spine: the copy at `p·‖0` is `#1`, at `p·‖1‖0` is `#2`, ….
    #[must_use]
    pub fn role_of(&self, position: &Path) -> Option<String> {
        let mut best: Option<(&Path, &str)> = None;
        for (p, name) in &self.roles {
            if p.is_prefix_of(position) {
                match best {
                    Some((bp, _)) if bp.len() >= p.len() => {}
                    _ => best = Some((p, name)),
                }
            }
        }
        let (p, name) = best?;
        if p == position {
            return Some(name.to_owned());
        }
        // Count the right-spine depth to number the instance.
        let rest = position.suffix_from(p.len());
        let spine = rest
            .iter()
            .take_while(|b| *b == spi_addr::Branch::Right)
            .count();
        Some(format!("{name}#{}", spine + 1))
    }
}

/// Renders steps as paper-style narration lines.
#[derive(Debug, Default)]
pub struct Narrator {
    roles: RoleMap,
    message_counter: usize,
}

impl Narrator {
    /// A narrator with the given role map.
    #[must_use]
    pub fn new(roles: RoleMap) -> Narrator {
        Narrator {
            roles,
            ..Narrator::default()
        }
    }

    fn party(&self, position: &Path) -> String {
        self.roles
            .role_of(position)
            .unwrap_or_else(|| position.to_bits())
    }

    /// Renders one step.  Communications produce paper-style lines;
    /// unfoldings produce a session-creation note.
    pub fn narrate(&mut self, step: &StepInfo, cfg: &Config) -> String {
        match step {
            StepInfo::Comm(ci) => {
                self.message_counter += 1;
                let chan = ci.subject.display(cfg.names());
                let from = self.party(&ci.sender);
                let to = self.party(&ci.receiver);
                let payload = ci.payload.display(cfg.names());
                let origin = ci
                    .payload
                    .creator(cfg.names())
                    .and_then(|c| self.roles.role_of(c))
                    .map(|r| format!("   [origin {r}]"))
                    .unwrap_or_default();
                format!(
                    "Message {n}   {from} → {to} : {payload}   (on {chan}){origin}",
                    n = self.message_counter
                )
            }
            StepInfo::Unfold { path } => {
                let role = self.roles.role_of(path).unwrap_or_else(|| path.to_bits());
                format!("            {role} spawns a new session instance")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, Config};
    use spi_syntax::parse;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    #[test]
    fn role_lookup_prefers_the_deepest_prefix() {
        let mut roles = RoleMap::new();
        roles.role("P", p("0"));
        roles.role("A", p("00"));
        assert_eq!(roles.role_of(&p("00")), Some("A".to_owned()));
        assert_eq!(roles.role_of(&p("01")), Some("P#2".to_owned()));
        assert_eq!(roles.role_of(&p("1")), None);
    }

    #[test]
    fn replication_instances_number_along_the_spine() {
        let mut roles = RoleMap::new();
        roles.role("A", p("0"));
        // First copy at ‖0‖0, second at ‖0‖1‖0, third at ‖0‖1‖1‖0.
        assert_eq!(roles.role_of(&p("00")), Some("A#1".to_owned()));
        assert_eq!(roles.role_of(&p("010")), Some("A#2".to_owned()));
        assert_eq!(roles.role_of(&p("0110")), Some("A#3".to_owned()));
    }

    #[test]
    fn narration_renders_paper_style_lines() {
        let proc = parse("(^m) c<m> | c(x).observe<x>").unwrap();
        let mut cfg = Config::from_process(&proc).unwrap();
        let mut roles = RoleMap::new();
        roles.role("A", p("0"));
        roles.role("B", p("1"));
        let mut narrator = Narrator::new(roles);
        let step = cfg
            .fire(&Action::Comm {
                out_path: p("0"),
                in_path: p("1"),
            })
            .unwrap();
        let line = narrator.narrate(&step, &cfg);
        assert!(line.starts_with("Message 1"));
        assert!(line.contains("A → B"));
        assert!(line.contains("[origin A]"));
    }

    #[test]
    fn unknown_positions_fall_back_to_bits() {
        let proc = parse("c<m> | c(x)").unwrap();
        let mut cfg = Config::from_process(&proc).unwrap();
        let mut narrator = Narrator::new(RoleMap::new());
        let step = cfg
            .fire(&Action::Comm {
                out_path: p("0"),
                in_path: p("1"),
            })
            .unwrap();
        let line = narrator.narrate(&step, &cfg);
        assert!(line.contains("0 → 1"), "{line}");
    }

    #[test]
    fn message_numbers_increment() {
        let proc = parse("c<m>.c<n> | c(x).c(y)").unwrap();
        let mut cfg = Config::from_process(&proc).unwrap();
        let mut narrator = Narrator::new(RoleMap::new());
        for expected in ["Message 1", "Message 2"] {
            let step = cfg
                .fire(&Action::Comm {
                    out_path: p("0"),
                    in_path: p("1"),
                })
                .unwrap();
            let line = narrator.narrate(&step, &cfg);
            assert!(line.starts_with(expected), "{line}");
        }
    }

    #[test]
    fn unfold_notes_session_creation() {
        let proc = parse("!c<m>").unwrap();
        let mut cfg = Config::from_process(&proc).unwrap();
        let mut roles = RoleMap::new();
        roles.role("A", Path::root());
        let mut narrator = Narrator::new(roles);
        let step = cfg.fire(&Action::Unfold { path: Path::root() }).unwrap();
        let line = narrator.narrate(&step, &cfg);
        assert!(line.contains("new session instance"));
    }
}
