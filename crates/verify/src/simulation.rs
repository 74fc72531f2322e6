//! Weak barbed simulation — the paper's proof technique for the positive
//! results (Propositions 2 and 4).
//!
//! The paper proves `P₂` secure by exhibiting a *barbed weak simulation*
//! between the cryptographic protocol and the abstract one.  This module
//! checks the analogous property on explored transition systems: every
//! implementation state must be matched by a set of specification states
//! that can weakly mirror its barbs and visible moves.
//!
//! Observations are compared event-locally (each event canonicalized on
//! its own), which is slightly coarser than the trace-level linking used
//! by [`trace_preorder`](crate::trace_preorder); the simulation check is
//! therefore a fast diagnostic and a faithful rendition of the paper's
//! proof style, while the trace check is the verdict-producing procedure.
//!
//! The check is iso-aware: it steps both systems through the shared weak
//! walk (`weak.rs`), so on a reduced exploration every event is compared
//! in the true coordinates of the run that reached it, never in a merged
//! representative's.  A game position is an implementation `(state,
//! iso)` member paired with the set of specification members matching it.

use std::collections::{BTreeSet, HashSet, VecDeque};

use crate::weak::{truncation_blame, Member, WeakWalk};
use crate::{Lts, ObsEvent, ResourceKind, TraceRenamer};

/// The outcome of a simulation check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimulationResult {
    /// The specification weakly simulates the implementation.
    Simulates {
        /// The number of game positions examined.
        positions: usize,
    },
    /// A position where the specification cannot match the
    /// implementation.
    Fails {
        /// The stuck implementation state.
        impl_state: usize,
        /// What the specification could not match.
        reason: String,
    },
    /// One of the explorations behind the game was budget-truncated in a
    /// way that makes the raw answer unsound: an apparent simulation over
    /// a truncated implementation, or an apparent failure against a
    /// truncated specification.
    Inconclusive {
        /// The resource whose exhaustion blocked the decision.
        exhausted: ResourceKind,
    },
}

impl SimulationResult {
    /// Returns `true` when the simulation holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, SimulationResult::Simulates { .. })
    }

    /// Returns `true` when the game was decided either way.
    #[must_use]
    pub fn decided(&self) -> bool {
        !matches!(self, SimulationResult::Inconclusive { .. })
    }
}

fn event_key(ev: &ObsEvent) -> String {
    TraceRenamer::new().canon(ev)
}

/// Checks that `specification` weakly simulates `implementation`: from
/// the initial pair, every visible move and every barb of the
/// implementation can be weakly matched by the specification.
///
/// # Example
///
/// ```
/// use spi_verify::{simulates, Explorer, ExploreOptions};
/// use spi_syntax::parse;
///
/// let impl_ = Explorer::new(ExploreOptions::default())
///     .explore(&parse("observe<a>")?)?;
/// let spec = Explorer::new(ExploreOptions::default())
///     .explore(&parse("observe<a> | observe<b>")?)?;
/// assert!(simulates(&spec, &impl_).holds());
/// assert!(!simulates(&impl_, &spec).holds());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn simulates(specification: &Lts, implementation: &Lts) -> SimulationResult {
    let raw = play(specification, implementation);
    match truncation_blame(raw.holds(), implementation, specification) {
        Some(exhausted) => SimulationResult::Inconclusive { exhausted },
        None => raw,
    }
}

fn play(specification: &Lts, implementation: &Lts) -> SimulationResult {
    let mut iw = WeakWalk::new(implementation);
    let mut sw = WeakWalk::new(specification);
    // Game positions: an implementation member and the τ-closed set of
    // specification members matching it.
    let start: (Member, Vec<Member>) = ((0, 0), sw.closure((0, 0)));
    let mut seen = HashSet::from([start.clone()]);
    let mut queue = VecDeque::from([start]);
    let mut positions = 0usize;

    while let Some((m, spec_set)) = queue.pop_front() {
        positions += 1;
        let i = m.0;

        // Barb preservation: every (strong) barb of the implementation
        // state must be a weak barb of the matching set.  Barbs name free
        // channels only, so isos leave them alone.
        let spec_barbs: BTreeSet<_> = spec_set
            .iter()
            .flat_map(|&(s, _)| specification.states[s].barbs.iter().cloned())
            .collect();
        for b in &implementation.states[i].barbs {
            if !spec_barbs.contains(b) {
                return SimulationResult::Fails {
                    impl_state: i,
                    reason: format!(
                        "barb {}{} not matched",
                        b.chan,
                        if b.output { "!" } else { "?" }
                    ),
                };
            }
        }

        for (e, &edge) in implementation.states[i].edges.iter().enumerate() {
            let matched = match implementation.event(edge) {
                // The spec set is already τ-closed: match by idling.
                None => spec_set.clone(),
                Some(ev) => {
                    let want = event_key(&iw.event(m.1, ev));
                    let mut matched = BTreeSet::new();
                    for &sm in &spec_set {
                        sw.visible_steps(sm, |sev, members| {
                            if event_key(&sev) == want {
                                matched.extend(members);
                            }
                        });
                    }
                    if matched.is_empty() {
                        return SimulationResult::Fails {
                            impl_state: i,
                            reason: format!("observation {want} not matched"),
                        };
                    }
                    matched.into_iter().collect()
                }
            };
            let position = (iw.target(m, e), matched);
            if !seen.contains(&position) {
                seen.insert(position.clone());
                queue.push_back(position);
            }
        }
    }

    SimulationResult::Simulates { positions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExploreOptions, Explorer};
    use spi_syntax::parse;

    fn lts(src: &str) -> Lts {
        Explorer::new(ExploreOptions::default())
            .explore(&parse(src).expect("parses"))
            .expect("explores")
    }

    #[test]
    fn simulation_is_reflexive() {
        for src in ["0", "observe<a>", "(^m)(c<m> | c(x).observe<x>)"] {
            let l = lts(src);
            assert!(simulates(&l, &l).holds(), "{src}");
        }
    }

    #[test]
    fn more_behaviour_simulates_less() {
        let small = lts("observe<a>");
        let big = lts("observe<a>.observe<b> | done<ok>");
        assert!(simulates(&big, &small).holds());
        assert!(!simulates(&small, &big).holds());
    }

    #[test]
    fn barbs_must_be_matched() {
        let impl_ = lts("observe<a>");
        let spec = lts("reply(x)");
        match simulates(&spec, &impl_) {
            SimulationResult::Fails { reason, .. } => {
                assert!(reason.contains("observe"), "{reason}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn weak_matching_crosses_tau_steps() {
        // The spec needs an internal communication before it can observe.
        let impl_ = lts("observe<a>");
        let spec = lts("(^s)(s<go> | s(x).observe<a>)");
        assert!(simulates(&spec, &impl_).holds());
    }

    #[test]
    fn truncated_games_are_inconclusive() {
        use crate::Budget;
        let cut = Explorer::new(ExploreOptions {
            budget: Budget::unlimited().states(1),
            ..ExploreOptions::default()
        })
        .explore(&parse("observe<a>.observe<b>").unwrap())
        .unwrap();
        let full = lts("observe<a>.observe<b>");
        // Truncated implementation: apparent simulation is not sound.
        assert!(!simulates(&full, &cut).decided());
        // Truncated specification: apparent refutation is not sound.
        assert!(!simulates(&cut, &full).decided());
        // Complete sides stay decided.
        assert!(simulates(&full, &full).decided());
    }

    #[test]
    fn origins_are_part_of_observations() {
        // Same shape, different creator positions.
        let left = lts("(^m) observe<m> | 0");
        let right = lts("0 | (^m) observe<m>");
        assert!(!simulates(&left, &right).holds());
        assert!(!simulates(&right, &left).holds());
    }
}
