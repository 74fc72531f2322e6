//! Weak traces and may-testing as trace inclusion.
//!
//! The paper's Definition 3 quantifies over all testers; over the
//! observations our explorer exposes (continuation outputs with their
//! full structure, fresh-name linking and origins), the may-testing
//! preorder coincides with inclusion of weak trace sets, so
//! [`trace_preorder`] is the decision procedure behind "P securely
//! implements P′" (Definition 4).

use std::borrow::Cow;
use std::collections::BTreeSet;

use crate::weak::{truncation_blame, Member, WeakWalk};
use crate::{Lts, ObsEvent, ResourceKind, TraceRenamer};

/// A set of canonical weak traces; each trace is the sequence of
/// canonicalized observations.  The set contains every prefix of every
/// trace (including the empty one).
pub type TraceSet = BTreeSet<Vec<String>>;

/// Enumerates the weak traces of `lts` up to `max_visible` observations.
///
/// Fresh names are renamed per trace (first occurrence order), so traces
/// of different systems compare by pattern; creator positions are kept
/// verbatim — they are what testers observe through address matching.
///
/// # Example
///
/// ```
/// use spi_verify::{weak_traces, Explorer, ExploreOptions};
/// use spi_syntax::parse;
///
/// let p = parse("(^m)(c<m> | c(x).observe<x>)")?;
/// let lts = Explorer::new(ExploreOptions::default()).explore(&p)?;
/// let traces = weak_traces(&lts, 4);
/// assert!(traces.contains(&Vec::new()), "the empty trace is always there");
/// assert!(traces.iter().any(|t| t.len() == 1), "one observation happens");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn weak_traces(lts: &Lts, max_visible: usize) -> TraceSet {
    let mut walk = WeakWalk::new(lts);
    let initial: BTreeSet<Member> = walk.closure((0, 0)).into_iter().collect();
    let mut out = TraceSet::new();
    collect(
        &mut walk,
        &initial,
        &TraceRenamer::new(),
        max_visible,
        &mut Vec::new(),
        &mut out,
    );
    out
}

fn collect(
    walk: &mut WeakWalk<'_>,
    subset: &BTreeSet<Member>,
    renamer: &TraceRenamer,
    budget: usize,
    prefix: &mut Vec<String>,
    out: &mut TraceSet,
) {
    out.insert(prefix.clone());
    if budget == 0 {
        return;
    }
    // Group visible successors by the true event.
    let mut by_event: Vec<(Cow<'_, ObsEvent>, BTreeSet<Member>)> = Vec::new();
    for &m in subset {
        walk.visible_steps(m, |ev, members| {
            match by_event.iter_mut().find(|(known, _)| *known == ev) {
                Some((_, set)) => set.extend(members),
                None => by_event.push((ev, members.into_iter().collect())),
            }
        });
    }
    for (ev, targets) in by_event {
        let mut r = renamer.clone();
        prefix.push(r.canon(&ev));
        collect(walk, &targets, &r, budget - 1, prefix, out);
        prefix.pop();
    }
}

/// The outcome of a trace-inclusion check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceVerdict {
    /// Every implementation trace is a specification trace.
    Holds {
        /// How many implementation traces were checked.
        checked: usize,
    },
    /// A trace of the implementation that the specification cannot
    /// produce — a may-testing counterexample, hence an attack.
    Fails {
        /// The offending canonical trace, shortest first.
        witness: Vec<String>,
    },
    /// The budget ran out before the comparison could be decided either
    /// way (see [`trace_preorder_sound`]).
    Inconclusive {
        /// The resource whose exhaustion blocked the decision.
        exhausted: ResourceKind,
    },
}

impl TraceVerdict {
    /// Returns `true` when the inclusion holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, TraceVerdict::Holds { .. })
    }

    /// Returns `true` when the comparison was decided either way.
    #[must_use]
    pub fn decided(&self) -> bool {
        !matches!(self, TraceVerdict::Inconclusive { .. })
    }
}

/// Checks the may-testing preorder `implementation ⊑ specification` as
/// weak trace inclusion up to `max_visible` observations.
///
/// This is the *raw* bounded comparison over whatever prefixes it is
/// given; it never answers [`TraceVerdict::Inconclusive`].  When either
/// LTS may be a budget-truncated prefix, use [`trace_preorder_sound`],
/// which applies the degradation soundness rule.
#[must_use]
pub fn trace_preorder(
    implementation: &Lts,
    specification: &Lts,
    max_visible: usize,
) -> TraceVerdict {
    let impl_traces = weak_traces(implementation, max_visible);
    let spec_traces = weak_traces(specification, max_visible);
    let mut missing: Vec<&Vec<String>> = impl_traces.difference(&spec_traces).collect();
    // Shortest witness first; among equals prefer the one carrying the
    // most origin annotations — those are the authentication-relevant
    // counterexamples (the paper's attacks inject located fresh names).
    missing.sort_by_key(|t| {
        let origins: usize = t.iter().map(|e| e.matches('@').count()).sum();
        (t.len(), usize::MAX - origins, t.join("\u{1f}"))
    });
    match missing.first() {
        None => TraceVerdict::Holds {
            checked: impl_traces.len(),
        },
        Some(w) => TraceVerdict::Fails {
            witness: (*w).clone(),
        },
    }
}

/// [`trace_preorder`] with the degradation soundness rule applied to
/// possibly-truncated explorations:
///
/// * inclusion observed to **hold** is sound only when the
///   *implementation* side is complete — a truncated specification only
///   makes inclusion harder, so spec truncation cannot fake a `Holds`,
///   but unexplored implementation behaviour could still escape;
/// * a **witness** is sound only when the *specification* side is
///   complete — unexplored specification behaviour could still produce
///   the trace;
/// * anything else is [`TraceVerdict::Inconclusive`], carrying the first
///   exhausted resource of the side that blocked the decision.
#[must_use]
pub fn trace_preorder_sound(
    implementation: &Lts,
    specification: &Lts,
    max_visible: usize,
) -> TraceVerdict {
    let raw = trace_preorder(implementation, specification, max_visible);
    match truncation_blame(raw.holds(), implementation, specification) {
        Some(exhausted) => TraceVerdict::Inconclusive { exhausted },
        None => raw,
    }
}

/// Finds a concrete run of `lts` realizing the canonical `trace`,
/// returning the full edge sequence (silent steps included) for
/// narration: each step as `(source state, edge position)`, indexing
/// that state's [`crate::LtsState::edges`] and [`Lts::descs`].
#[must_use]
pub fn find_realization(lts: &Lts, trace: &[String]) -> Option<Vec<(usize, usize)>> {
    let mut path = Vec::new();
    dfs(
        &mut WeakWalk::new(lts),
        (0, 0),
        trace,
        &TraceRenamer::new(),
        &mut path,
        &mut BTreeSet::new(),
    )
    .then_some(path)
}

/// Depth-first search for a run realizing `rest`.  `visited` guards one
/// segment between visible steps, so it never needs the trace position.
fn dfs(
    walk: &mut WeakWalk<'_>,
    m: Member,
    rest: &[String],
    renamer: &TraceRenamer,
    path: &mut Vec<(usize, usize)>,
    visited: &mut BTreeSet<Member>,
) -> bool {
    let Some((want, later)) = rest.split_first() else {
        return true;
    };
    if !visited.insert(m) {
        return false;
    }
    let lts = walk.lts();
    for (e, &edge) in lts.states[m.0].edges.iter().enumerate() {
        let next = walk.target(m, e);
        let found = match lts.event(edge) {
            None => {
                path.push((m.0, e));
                dfs(walk, next, rest, renamer, path, visited)
            }
            Some(ev) => {
                let mut r = renamer.clone();
                if r.canon(&walk.event(m.1, ev)) != *want {
                    continue;
                }
                path.push((m.0, e));
                // Deeper positions may revisit states: a fresh guard for
                // the next segment.
                dfs(walk, next, later, &r, path, &mut BTreeSet::new())
            }
        };
        if found {
            return true;
        }
        path.pop();
    }
    false
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
    fn traces_include_all_prefixes() {
        let l = lts("observe<a>.observe<b>");
        let t = weak_traces(&l, 4);
        assert!(t.contains(&Vec::new()));
        assert!(t.iter().any(|tr| tr.len() == 1));
        assert!(t.iter().any(|tr| tr.len() == 2));
        assert_eq!(t.len(), 3, "a deterministic two-output system");
    }

    #[test]
    fn trace_canonicalization_forgets_raw_ids() {
        // Two alpha-equivalent systems have identical trace sets.
        let a = lts("(^m) observe<m>");
        let b = lts("(^n) observe<n>");
        assert_eq!(weak_traces(&a, 2), weak_traces(&b, 2));
    }

    #[test]
    fn linking_distinguishes_replays() {
        // Same fresh name twice vs two fresh names.
        let twice = lts("(^m)(observe<m>.observe<m>)");
        let two = lts("(^m)(^n)(observe<m>.observe<n>)");
        assert_ne!(weak_traces(&twice, 3), weak_traces(&two, 3));
        // And inclusion fails in both directions.
        assert!(!trace_preorder(&twice, &two, 3).holds());
        assert!(!trace_preorder(&two, &twice, 3).holds());
    }

    #[test]
    fn origins_distinguish_traces() {
        // The same pattern of outputs, but the name is created by a
        // different component.
        let left = lts("(^m) observe<m> | 0");
        let right = lts("0 | (^m) observe<m>");
        assert_ne!(weak_traces(&left, 2), weak_traces(&right, 2));
    }

    #[test]
    fn preorder_holds_for_subsets() {
        let small = lts("observe<a>");
        let big = lts("observe<a> | observe<b>");
        assert!(trace_preorder(&small, &big, 3).holds());
        assert!(!trace_preorder(&big, &small, 3).holds());
    }

    #[test]
    fn witness_is_shortest_and_realizable() {
        let impl_ = lts("observe<a>.observe<bad>");
        let spec = lts("observe<a>");
        match trace_preorder(&impl_, &spec, 4) {
            TraceVerdict::Fails { witness } => {
                assert_eq!(witness.len(), 2, "shortest counterexample");
                assert!(witness[1].contains("bad"));
                let path = find_realization(&impl_, &witness).expect("realizable");
                // Two visible edges.
                let visible = path
                    .iter()
                    .filter(|&&(s, e)| !impl_.states[s].edges[e].is_tau())
                    .count();
                assert_eq!(visible, 2);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn truncated_sides_make_the_preorder_inconclusive() {
        use crate::Budget;
        let truncated = |src: &str| {
            Explorer::new(ExploreOptions {
                budget: Budget::unlimited().states(1),
                ..ExploreOptions::default()
            })
            .explore(&parse(src).expect("parses"))
            .expect("partial")
        };
        let small = lts("observe<a>");
        let big = lts("observe<a> | observe<b>");
        // Complete sides: decided exactly as before.
        assert!(trace_preorder_sound(&small, &big, 3).holds());
        assert!(matches!(
            trace_preorder_sound(&big, &small, 3),
            TraceVerdict::Fails { .. }
        ));
        // Truncated implementation: an apparent Holds is not sound.
        let cut = truncated("observe<a>");
        assert!(!cut.complete());
        assert!(!trace_preorder_sound(&cut, &big, 3).decided());
        // Truncated specification: an apparent witness is not sound.
        let cut_spec = truncated("observe<a>");
        assert!(!trace_preorder_sound(&big, &cut_spec, 3).decided());
        // But a Holds against a truncated spec IS sound (the truncation
        // only removed specification behaviour).
        let empty = lts("0");
        assert!(trace_preorder_sound(&empty, &cut_spec, 3).holds());
    }

    #[test]
    fn nondeterminism_is_covered() {
        // A system that may output either a or b.
        let l = lts("observe<a> | observe<b>");
        let t = weak_traces(&l, 2);
        assert!(t
            .iter()
            .any(|tr| tr.first().is_some_and(|e| e.contains("f:a"))));
        assert!(t
            .iter()
            .any(|tr| tr.first().is_some_and(|e| e.contains("f:b"))));
    }
}
