//! Tester synthesis: Definition 3 made executable.
//!
//! The trace-inclusion check of [`trace_preorder`](crate::trace_preorder)
//! is the efficient decision procedure; this module cross-validates it by
//! implementing Definition 3 *directly*: synthesize a family of concrete
//! tester processes — of the two shapes the paper itself uses —
//!
//! * **origin testers** `o(z).[z ≗ l] β̄⟨z⟩`, which detect where a
//!   revealed message was created (the paper's tester against `P1`), and
//! * **replay testers** `o(z).o(w).[z ≗ w] β̄⟨z⟩`, which detect two
//!   messages with the same origin (the paper's tester against `Pm2`),
//!
//! and compare pass-sets: `P ⊑ Q` requires every test passed by `P` to be
//! passed by `Q`.

use spi_addr::{Path, RelAddr};
use spi_semantics::Barb;
use spi_syntax::{Name, Process, Term};

use crate::{may_exhibit_bounded, ExploreOptions, Lts, ObsTerm, VerifyError};

/// The barb every synthesized tester signals on.
const BETA: &str = "beta__";

/// The barb synthesized testers exhibit when they accept.
#[must_use]
pub fn tester_barb() -> Barb {
    Barb {
        chan: Name::new(BETA),
        output: true,
    }
}

/// Collects the `(channel, creator)` pairs observable in an explored
/// system: one per distinct origin revealed on each free channel.
fn observed_origins(lts: &Lts) -> Vec<(Name, Path)> {
    let mut out: Vec<(Name, Path)> = Vec::new();
    // The table lists each event once, in the order the edges first
    // carried it.
    for ev in lts.observations() {
        let mut creators = Vec::new();
        collect_creators(&ev.payload, &mut creators);
        for c in creators {
            let entry = (ev.chan.clone(), c);
            if !out.contains(&entry) {
                out.push(entry);
            }
        }
    }
    out
}

fn collect_creators(t: &ObsTerm, out: &mut Vec<Path>) {
    match t {
        ObsTerm::Free(_) => {}
        ObsTerm::Fresh { creator, .. } => out.push(creator.clone()),
        ObsTerm::Pair(a, b, c) => {
            out.extend(c.clone());
            collect_creators(a, out);
            collect_creators(b, out);
        }
        ObsTerm::Enc(body, key, c) => {
            out.extend(c.clone());
            for x in body {
                collect_creators(x, out);
            }
            collect_creators(key, out);
        }
    }
}

/// Synthesizes the paper's two tester families for a system whose
/// explored observations are in `lts`.
///
/// The testers are written for the composition `system | T`: the system's
/// positions gain a `‖0` prefix and the tester sits at `‖1`, so an origin
/// at (pre-composition) position `p` is addressed by the literal
/// `between(‖1, ‖0·p)`.
#[must_use]
pub fn synthesize_testers(lts: &Lts) -> Vec<Process> {
    let tester_pos: Path = "1".parse().expect("static path");
    let mut testers = Vec::new();
    let origins = observed_origins(lts);
    // Origin testers: one per (channel, creator).
    for (chan, creator) in &origins {
        let shifted = "0".parse::<Path>().expect("static").join(creator);
        let lit = RelAddr::between(&tester_pos, &shifted);
        testers.push(Process::input(
            Term::name(chan.as_str()),
            "z",
            Process::addr_match_lit(
                Term::var("z"),
                lit,
                Process::output(Term::name(BETA), Term::var("z"), Process::Nil),
            ),
        ));
    }
    // Replay testers: one per channel.
    let mut chans: Vec<Name> = origins.into_iter().map(|(c, _)| c).collect();
    chans.sort();
    chans.dedup();
    for chan in chans {
        testers.push(Process::input(
            Term::name(chan.as_str()),
            "z",
            Process::input(
                Term::name(chan.as_str()),
                "w",
                Process::addr_match(
                    Term::var("z"),
                    Term::var("w"),
                    Process::output(Term::name(BETA), Term::var("z"), Process::Nil),
                ),
            ),
        ));
    }
    testers
}

/// The outcome of a direct Definition-3 comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Definition3Outcome {
    /// How many testers were synthesized and run against both systems.
    pub testers: usize,
    /// Testers passed by the implementation but not the specification —
    /// each one is a may-testing counterexample.
    pub violations: Vec<String>,
    /// Testers whose comparison could not be decided within the budget:
    /// either the implementation side might still pass beyond its
    /// truncation, or the specification side might.
    pub undecided: Vec<String>,
}

impl Definition3Outcome {
    /// Returns `true` when every test passed by the implementation is
    /// passed by the specification (over what was decided).
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// Returns `true` when every tester was decided within the budget.
    #[must_use]
    pub fn conclusive(&self) -> bool {
        self.undecided.is_empty()
    }
}

/// Runs Definition 3 directly: for every synthesized tester `T`, checks
/// that `(implementation | T) ⇓ β` implies `(specification | T) ⇓ β`.
///
/// Both arguments must be the *closed systems* (e.g. `(νC)(P | X)` from
/// [`Verifier::under_attack`]); `opts` configures the exploration of the
/// compositions — note the intruder position shifts to `‖0‖1` under the
/// tester composition.
///
/// [`Verifier::under_attack`]: https://docs.rs/spi-auth
///
/// # Errors
///
/// Propagates exploration failures.
pub fn definition3_preorder(
    implementation: &Process,
    specification: &Process,
    testers: &[Process],
    opts: &ExploreOptions,
) -> Result<Definition3Outcome, VerifyError> {
    let barb = tester_barb();
    let mut violations = Vec::new();
    let mut undecided = Vec::new();
    for (i, tester) in testers.iter().enumerate() {
        let composed = Process::par(implementation.clone(), tester.clone());
        let (impl_witness, impl_complete) = may_exhibit_bounded(&composed, &barb, opts)?;
        if impl_witness.is_none() {
            // A pass beyond the implementation's truncation could still
            // turn out to be a violation.
            if !impl_complete {
                undecided.push(format!(
                    "tester #{i} ({tester}): implementation side truncated before a pass was found"
                ));
            }
            continue;
        }
        // The implementation pass is sound — it lives on the explored
        // prefix.  A specification *failure* is sound only when the
        // specification side was fully explored.
        let composed = Process::par(specification.clone(), tester.clone());
        let (spec_witness, spec_complete) = may_exhibit_bounded(&composed, &barb, opts)?;
        if spec_witness.is_none() {
            if spec_complete {
                violations.push(format!("tester #{i} ({tester}) distinguishes the systems"));
            } else {
                undecided.push(format!(
                    "tester #{i} ({tester}): specification side truncated before a pass was found"
                ));
            }
        }
    }
    Ok(Definition3Outcome {
        testers: testers.len(),
        violations,
        undecided,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Explorer, IntruderSpec};
    use spi_syntax::parse;

    fn explore(src: &str) -> Lts {
        let spec = IntruderSpec::new("1".parse().unwrap(), ["c"]);
        Explorer::new(ExploreOptions {
            intruder: Some(spec),
            ..ExploreOptions::default()
        })
        .explore(&parse(src).expect("parses"))
        .expect("explores")
    }

    #[test]
    fn origins_are_harvested_from_observations() {
        let lts = explore("(^c)(((^m) c<m> | c(x).observe<x>) | 0)");
        let origins = observed_origins(&lts);
        assert!(origins
            .iter()
            .any(|(c, p)| c == "observe" && p.to_bits() == "00"));
    }

    #[test]
    fn testers_cover_origin_and_replay_shapes() {
        let lts = explore("(^c)(((^m) c<m> | c(x).observe<x>) | 0)");
        let testers = synthesize_testers(&lts);
        assert!(testers.len() >= 2);
        let shown: Vec<String> = testers.iter().map(ToString::to_string).collect();
        assert!(shown.iter().any(|s| s.contains("~ @(")), "{shown:?}");
        assert!(
            shown.iter().any(|s| s.contains("observe(z).observe(w)")),
            "{shown:?}"
        );
    }

    #[test]
    fn identical_systems_pass_their_own_tests() {
        let sys = parse("(^c)(((^m) c<m> | c(x).observe<x>) | 0)").unwrap();
        let lts = explore(&sys.to_string());
        let testers = synthesize_testers(&lts);
        let opts = ExploreOptions {
            intruder: Some(IntruderSpec::new("01".parse().unwrap(), ["c"])),
            ..ExploreOptions::default()
        };
        let outcome = definition3_preorder(&sys, &sys, &testers, &opts).unwrap();
        assert!(outcome.holds());
        assert!(outcome.testers >= 1);
    }

    #[test]
    fn truncated_comparisons_are_flagged_undecided() {
        use crate::Budget;
        let sys = parse("(^c)(((^m) c<m> | c(x).observe<x>) | 0)").unwrap();
        let lts = explore(&sys.to_string());
        let testers = synthesize_testers(&lts);
        let opts = ExploreOptions {
            intruder: Some(IntruderSpec::new("01".parse().unwrap(), ["c"])),
            budget: Budget::unlimited().states(2),
            ..ExploreOptions::default()
        };
        let outcome = definition3_preorder(&sys, &sys, &testers, &opts).unwrap();
        assert!(outcome.holds(), "no decided violation");
        assert!(!outcome.conclusive(), "truncation is surfaced, not hidden");
    }

    #[test]
    fn distinct_origins_are_distinguished_by_synthesized_testers() {
        // Implementation reveals a message created by the right component;
        // the specification reveals one created by the left.
        let impl_sys = parse("(^c)((c(x).observe<x> | (^m) c<m>) | 0)").unwrap();
        let spec_sys = parse("(^c)(((^m) c<m> | c(x).observe<x>) | 0)").unwrap();
        let lts = explore(&impl_sys.to_string());
        let testers = synthesize_testers(&lts);
        let opts = ExploreOptions {
            intruder: Some(IntruderSpec::new("01".parse().unwrap(), ["c"])),
            ..ExploreOptions::default()
        };
        let outcome = definition3_preorder(&impl_sys, &spec_sys, &testers, &opts).unwrap();
        assert!(!outcome.holds(), "the origin tester notices");
    }
}
