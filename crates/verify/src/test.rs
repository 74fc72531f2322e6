//! The tests `(T, β)` of Definition 3.
//!
//! A process `P` *passes* a test `(T, β)` when `(P | T)` converges on the
//! barb `β`: some sequence of silent steps reaches a configuration that
//! can do an I/O on the free channel `β`.  Testers are ordinary processes
//! and may use the address-matching operator, giving them the paper's
//! "global view of the network": they can check *where* a received
//! message was created.

use spi_semantics::Barb;
use spi_syntax::Process;

use crate::{ExploreOptions, Explorer, VerifyError};

/// A witness run for a passed test: the silent steps leading to the barb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestWitness {
    /// Human-readable descriptions of the steps, in order.
    pub steps: Vec<String>,
    /// The barb reached.
    pub barb: Barb,
}

/// Checks convergence `P ⇓ β`: is a state exhibiting the barb reachable
/// by silent steps?  Returns a witness run when so.
///
/// # Errors
///
/// Propagates exploration errors (open process, state budget).
///
/// # Example
///
/// ```
/// use spi_semantics::Barb;
/// use spi_syntax::{parse, Name};
/// use spi_verify::{may_exhibit, ExploreOptions};
///
/// let p = parse("(^m)(c<m> | c(x).observe<x>)")?;
/// let beta = Barb { chan: Name::new("observe"), output: true };
/// assert!(may_exhibit(&p, &beta, &ExploreOptions::default())?.is_some());
/// let gamma = Barb { chan: Name::new("other"), output: true };
/// assert!(may_exhibit(&p, &gamma, &ExploreOptions::default())?.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn may_exhibit(
    process: &Process,
    barb: &Barb,
    opts: &ExploreOptions,
) -> Result<Option<TestWitness>, VerifyError> {
    may_exhibit_bounded(process, barb, opts).map(|(w, _)| w)
}

/// Like [`may_exhibit`], additionally reporting whether the exploration
/// behind the answer was *complete*.  A witness is sound either way (it
/// lives on the explored prefix); a `None` from a truncated exploration
/// is **not** evidence of absence.
///
/// # Errors
///
/// Propagates exploration errors (open process).
pub fn may_exhibit_bounded(
    process: &Process,
    barb: &Barb,
    opts: &ExploreOptions,
) -> Result<(Option<TestWitness>, bool), VerifyError> {
    let lts = Explorer::new(opts.clone()).explore(process)?;
    let complete = lts.complete();
    // BFS over silent edges only: convergence is τ*.
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; lts.states.len()];
    let mut seen = vec![false; lts.states.len()];
    let mut queue = std::collections::VecDeque::from([0usize]);
    seen[0] = true;
    while let Some(s) = queue.pop_front() {
        if lts.states[s].barbs.contains(barb) {
            // Reconstruct the witness.
            let mut rev = Vec::new();
            let mut cur = s;
            while let Some((prev, edge_idx)) = parent[cur] {
                rev.push(lts.descs(prev)[edge_idx].display(lts.config(cur).names()));
                cur = prev;
            }
            rev.reverse();
            return Ok((
                Some(TestWitness {
                    steps: rev,
                    barb: barb.clone(),
                }),
                complete,
            ));
        }
        for (edge_idx, edge) in lts.states[s].edges.iter().enumerate() {
            // Every τ edge is silent: internal steps, intruder moves, and
            // network faults alike.
            let tgt = edge.target();
            if edge.is_tau() && !seen[tgt] {
                seen[tgt] = true;
                parent[tgt] = Some((s, edge_idx));
                queue.push_back(tgt);
            }
        }
    }
    Ok((None, complete))
}

/// Runs the paper's testing scenario: composes `system | tester` and
/// checks convergence on `barb`.
///
/// The system is typically `(νC)(P | E)` — protocol plus attacker with
/// the protocol channels restricted — and the tester observes the
/// continuations, e.g. `observe(z).[z ~ @(l)] beta<z>`.
///
/// # Errors
///
/// Propagates exploration errors.
pub fn passes_test(
    system: &Process,
    tester: &Process,
    barb: &Barb,
    opts: &ExploreOptions,
) -> Result<Option<TestWitness>, VerifyError> {
    let composed = Process::par(system.clone(), tester.clone());
    may_exhibit(&composed, barb, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_syntax::{parse, Name};

    fn beta() -> Barb {
        Barb {
            chan: Name::new("beta"),
            output: true,
        }
    }

    #[test]
    fn immediate_barbs_pass() {
        let p = parse("beta<ok>").unwrap();
        let w = may_exhibit(&p, &beta(), &ExploreOptions::default())
            .unwrap()
            .expect("barb");
        assert!(w.steps.is_empty(), "no steps needed");
    }

    #[test]
    fn convergence_crosses_internal_steps() {
        let p = parse("(^s)(s<go> | s(x).beta<x>)").unwrap();
        let w = may_exhibit(&p, &beta(), &ExploreOptions::default())
            .unwrap()
            .expect("barb after one τ");
        assert_eq!(w.steps.len(), 1);
        assert!(w.steps[0].starts_with("comm"));
    }

    #[test]
    fn input_barbs_are_distinct_from_output_barbs() {
        let p = parse("beta(x)").unwrap();
        assert!(may_exhibit(&p, &beta(), &ExploreOptions::default())
            .unwrap()
            .is_none());
        let input_barb = Barb {
            chan: Name::new("beta"),
            output: false,
        };
        assert!(may_exhibit(&p, &input_barb, &ExploreOptions::default())
            .unwrap()
            .is_some());
    }

    #[test]
    fn tester_with_address_matching_detects_origin() {
        // The system sends a fresh name; the tester at ‖1 accepts only if
        // it was created by the component at ‖0‖0 (relative 1.00).
        let system = parse("(^m) observe<m> | 0").unwrap();
        let tester = parse("observe(z).[z ~ @(1.00)] beta<z>").unwrap();
        let w = passes_test(&system, &tester, &beta(), &ExploreOptions::default()).unwrap();
        assert!(w.is_some(), "origin matches");
        // A tester expecting a different origin fails.
        let wrong = parse("observe(z).[z ~ @(1.01)] beta<z>").unwrap();
        let w = passes_test(&system, &wrong, &beta(), &ExploreOptions::default()).unwrap();
        assert!(w.is_none(), "origin mismatch");
    }

    #[test]
    fn restricted_channels_are_not_barbs() {
        let p = parse("(^beta) beta<x>").unwrap();
        assert!(may_exhibit(&p, &beta(), &ExploreOptions::default())
            .unwrap()
            .is_none());
    }
}
