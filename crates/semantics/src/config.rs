//! Configurations: the tree of sequential residuals plus the name table.

use std::collections::BTreeSet;
use std::sync::Arc;

use spi_addr::{Path, ProcTree};
use spi_syntax::{Name, Process, Var};

use crate::place::{place, Subst};
use crate::{MachineError, NameId, NameTable, RtChannel, RtProcess, RtTerm};

/// The state of one sequential component (a leaf of the tree).
///
/// Placement normalizes residuals: restrictions execute (allocating fresh
/// names), matchings and decryptions evaluate (failures leave a
/// [`LeafState::Dead`] leaf), and parallel compositions split into
/// internal nodes — so a live leaf is always an I/O prefix or a
/// replication.  Dead leaves are kept in place: removing them would shift
/// the positions of other components and invalidate captured addresses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LeafState {
    /// An exhausted or stuck component.
    Dead,
    /// An output prefix ready to send.
    Out {
        /// The (resolved) channel.
        chan: RtChannel,
        /// The payload, stamped with its creator when sent.
        payload: RtTerm,
        /// The continuation.
        cont: RtProcess,
    },
    /// An input prefix ready to receive.
    In {
        /// The (resolved) channel.
        chan: RtChannel,
        /// The variable the payload binds to.
        var: Var,
        /// The continuation.
        cont: RtProcess,
    },
    /// A replication `!P`, unfolded on demand.
    Bang {
        /// The replicated body.
        body: RtProcess,
        /// How many copies this replica has already spawned, checked
        /// against the explorer's unfold bound.
        unfolded: u32,
    },
}

// Leaves are materialized on every step; inline paths must not make them
// grow.
const _: () = assert!(std::mem::size_of::<LeafState>() <= 360);

impl LeafState {
    /// Returns `true` for an exhausted or stuck component.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        matches!(self, LeafState::Dead)
    }
}

/// A running configuration: the tree of sequential residuals (Figure 1 of
/// the paper) plus the table recording every name's provenance.
///
/// # Example
///
/// ```
/// use spi_semantics::Config;
/// use spi_syntax::parse;
///
/// let p = parse("(^m)(c<m> | c(x).observe<x>)")?;
/// let mut cfg = Config::from_process(&p)?;
/// let actions = cfg.enabled(0);
/// assert_eq!(actions.len(), 1, "one internal communication");
/// cfg.fire(&actions[0])?;
/// // The receiver now offers a barb on the free channel `observe`.
/// assert!(cfg.barbs().iter().any(|b| b.chan == "observe" && b.output));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// The tree and name table live behind [`Arc`]s so cloning a
/// configuration — which explorers do once per candidate successor — is
/// two pointer bumps; the first mutation after a clone copies only the
/// shared component it touches (`Arc::make_mut`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    pub(crate) tree: Arc<ProcTree<LeafState>>,
    pub(crate) names: Arc<NameTable>,
}

/// A barb `P ↓ β` (Section 4.1): the possibility of an input or output on
/// a free channel.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Barb {
    /// The channel's (free) name.
    pub chan: Name,
    /// `true` for an output barb `m̄`, `false` for an input barb `m`.
    pub output: bool,
}

impl Config {
    /// Loads a closed process into an initial configuration.
    ///
    /// Free names are interned (they belong to the environment and carry
    /// no creator); restrictions are *not* executed yet — they run when
    /// their component is placed, so each replica of a `(νm)P` gets a
    /// fresh name.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OpenProcess`] when the process has free
    /// variables, and [`MachineError::NotAMessage`] when a located literal
    /// occurs in an output payload.
    pub fn from_process(p: &Process) -> Result<Config, MachineError> {
        let fv = p.free_vars();
        if !fv.is_empty() {
            let vars: Vec<String> = fv.iter().map(ToString::to_string).collect();
            return Err(MachineError::OpenProcess {
                vars: vars.join(", "),
            });
        }
        let mut names = NameTable::new();
        let frees: Vec<(Name, NameId)> = p
            .free_names()
            .into_iter()
            .map(|n| {
                let id = names.intern_free(&n);
                (n, id)
            })
            .collect();
        let mut names = Arc::new(names);
        let rt = RtProcess::from_static(p);
        let tree = place(&rt, &Subst::syms(&frees), Path::root(), &mut names)?;
        Ok(Config {
            tree: Arc::new(tree),
            names,
        })
    }

    /// The tree of sequential residuals.
    #[must_use]
    pub fn tree(&self) -> &ProcTree<LeafState> {
        &self.tree
    }

    /// The name table.
    #[must_use]
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Allocates a fresh restricted name on behalf of an environment
    /// process sitting at `creator` — how an explorer models an intruder
    /// inventing a message (`(νM_E)` in the paper's attack on `P1`).
    pub fn alloc_env_name(&mut self, base: &Name, creator: Path) -> crate::NameId {
        Arc::make_mut(&mut self.names).alloc_restricted(base, creator)
    }

    /// The barbs the configuration exhibits: one per live I/O prefix whose
    /// subject is a free name.
    #[must_use]
    pub fn barbs(&self) -> BTreeSet<Barb> {
        let mut out = BTreeSet::new();
        for (_, leaf) in self.tree.leaves() {
            let (subject, output) = match leaf {
                LeafState::Out { chan, .. } => (&chan.subject, true),
                LeafState::In { chan, .. } => (&chan.subject, false),
                _ => continue,
            };
            if let RtTerm::Id(id) = subject {
                if self.names.is_free(*id) {
                    out.insert(Barb {
                        chan: self.names.entry(*id).base.clone(),
                        output,
                    });
                }
            }
        }
        out
    }

    /// Returns `true` when no live leaf remains: the configuration is
    /// fully exhausted (replications count as live).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.tree.leaves().all(|(_, l)| l.is_dead())
    }

    /// Renders the configuration for diagnostics: the tree with one
    /// residual per line.
    #[must_use]
    pub fn display(&self) -> String {
        let mut out = String::new();
        for (path, leaf) in self.tree.leaves() {
            let body = match leaf {
                LeafState::Dead => "0".to_owned(),
                LeafState::Out {
                    chan,
                    payload,
                    cont,
                } => format!(
                    "{}<{}>.{}",
                    chan.display(&self.names),
                    payload.display(&self.names),
                    cont.display(&self.names)
                ),
                LeafState::In { chan, var, cont } => {
                    format!(
                        "{}({var}).{}",
                        chan.display(&self.names),
                        cont.display(&self.names)
                    )
                }
                LeafState::Bang { body, unfolded } => {
                    format!("!{} (unfolded {unfolded}x)", body.display(&self.names))
                }
            };
            out.push_str(&format!("{}: {body}\n", path.to_bits()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RtChanIndex;
    use spi_syntax::parse;

    fn cfg(src: &str) -> Config {
        Config::from_process(&parse(src).expect("parses")).expect("loads")
    }

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    #[test]
    fn loading_rejects_open_processes() {
        let open = Process::output(
            spi_syntax::Term::name("c"),
            spi_syntax::Term::var("x"),
            Process::Nil,
        );
        assert!(matches!(
            Config::from_process(&open),
            Err(MachineError::OpenProcess { .. })
        ));
    }

    #[test]
    fn placement_splits_parallels() {
        let c = cfg("c<m> | (d<m> | e<m>)");
        assert_eq!(c.tree.leaf_count(), 3);
        assert!(matches!(
            c.tree.leaf_at(&p("0")).unwrap(),
            LeafState::Out { .. }
        ));
        assert!(matches!(
            c.tree.leaf_at(&p("11")).unwrap(),
            LeafState::Out { .. }
        ));
    }

    #[test]
    fn placement_executes_restrictions_with_creator() {
        let c = cfg("(^m) c<m> | d(x)");
        // The restriction executed at the left leaf ‖0.
        match c.tree.leaf_at(&p("0")).unwrap() {
            LeafState::Out { payload, .. } => match payload {
                RtTerm::Id(id) => {
                    assert!(c.names.entry(*id).restricted);
                    assert_eq!(c.names.creator(*id), Some(&p("0")));
                }
                other => panic!("unexpected payload {other:?}"),
            },
            other => panic!("unexpected leaf {other:?}"),
        }
    }

    #[test]
    fn restriction_scope_spanning_a_parallel_shares_the_name() {
        let c = cfg("(^m)(c<m> | d<m>)");
        let get = |path: &str| match c.tree.leaf_at(&p(path)).unwrap() {
            LeafState::Out { payload, .. } => payload.clone(),
            other => panic!("unexpected leaf {other:?}"),
        };
        assert_eq!(get("0"), get("1"), "both components hold the same name");
        // Its creator is the position where the restriction executed: the
        // root, above the split.
        match get("0") {
            RtTerm::Id(id) => assert_eq!(c.names.creator(id), Some(&Path::root())),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failed_match_leaves_a_dead_leaf() {
        let c = cfg("[m = n] c<m> | d(x)");
        assert!(c.tree.leaf_at(&p("0")).unwrap().is_dead());
        assert!(!c.tree.leaf_at(&p("1")).unwrap().is_dead());
    }

    #[test]
    fn passed_match_continues() {
        let c = cfg("[m = m] c<m>");
        assert!(matches!(*c.tree, ProcTree::Leaf(LeafState::Out { .. })));
    }

    #[test]
    fn failed_decryption_is_stuck() {
        // Wrong key: k vs h.
        let c = cfg("case x of {y}h in c<y>");
        // x is a free name, not a ciphertext: stuck.
        assert!(c.tree.leaf_at(&Path::root()).unwrap().is_dead());
    }

    #[test]
    fn address_match_literal_resolves_at_leaf() {
        // The right component checks that m was created by the process at
        // relative address ‖1•‖0 from it — i.e. at absolute ‖0.
        let c = cfg("(^m) c<m> | [x ~ @(1.0)] d<x>");
        // x is a free name with no origin: the match fails.
        assert!(c.tree.leaf_at(&p("1")).unwrap().is_dead());
    }

    #[test]
    fn barbs_report_free_channels_only() {
        let c = cfg("(^c)(c<m>) | observe<m> | reply(x)");
        let barbs = c.barbs();
        assert_eq!(barbs.len(), 2);
        assert!(barbs.contains(&Barb {
            chan: Name::new("observe"),
            output: true
        }));
        assert!(barbs.contains(&Barb {
            chan: Name::new("reply"),
            output: false
        }));
    }

    #[test]
    fn located_literal_payload_is_rejected() {
        let r = Config::from_process(&parse("c<[0.1]m>").unwrap());
        assert!(matches!(r, Err(MachineError::NotAMessage { .. })));
    }

    #[test]
    fn channel_literals_resolve_to_absolute_positions() {
        // The left component addresses the right one: at ‖0, the literal
        // ‖0•‖1 resolves to absolute ‖1.
        let c = cfg("c@(0.1)<m> | c(x)");
        match c.tree.leaf_at(&p("0")).unwrap() {
            LeafState::Out { chan, .. } => {
                assert_eq!(chan.index, RtChanIndex::AtAbs(p("1")));
            }
            other => panic!("unexpected leaf {other:?}"),
        }
    }

    #[test]
    fn exhausted_detection() {
        assert!(cfg("0").is_exhausted());
        assert!(!cfg("c<m>").is_exhausted());
        assert!(!cfg("!c<m>").is_exhausted());
    }

    #[test]
    fn display_lists_leaves() {
        let c = cfg("(^m) c<m> | d(x)");
        let shown = c.display();
        assert!(shown.contains("0:"));
        assert!(shown.contains("1:"));
        assert!(shown.contains("d(x)"));
    }
}
