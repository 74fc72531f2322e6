//! The second decision procedure: a breadth-first subset construction
//! over the weak LTS.
//!
//! [`crate::trace_preorder`] decides "P securely implements P′" by
//! *enumerating* both weak trace sets and taking a set difference.  This
//! module decides the same relation by walking *pairs of
//! configurations* from the initial state pair instead, in the
//! on-the-fly style of Mansutti–Miculan ("Deciding Hedged
//! Bisimilarity").
//!
//! A configuration is the set of `(state, iso, renamer)` members
//! reachable under one canonical observation sequence: the subset
//! construction over the weak LTS, stepped by the iso-aware walk of
//! `weak.rs`, which maps each merged state's local coordinates back to
//! the true run.  Each member carries the [`TraceRenamer`] of the
//! prefix that reached it, mapping the run's raw fresh names to the
//! tester's trace-local indices.  The tester of Definition 4 sees the
//! structure of every message, under encryption too, so this renaming
//! is all a hedge of environment knowledge would hold here.
//!
//! The implementation configuration must be able to match every
//! canonical observation with one from the specification
//! configuration.  A canonical event the specification configuration
//! cannot match is a distinguishing experiment, and the breadth-first
//! schedule makes the first one found a *shortest* distinguishing
//! trace.  Visited configuration pairs are memoized, so subtrees the
//! trace comparison would re-enumerate are pruned: this is the speed
//! play behind the campaign early-reject path.
//!
//! **Agreement.**  Because configurations are exactly the determinized
//! weak LTS under canonical observations, a distinguishing trace exists
//! iff the bounded weak-trace inclusion of [`crate::trace_preorder`]
//! fails, with the same minimal length; and [`bisim_preorder_sound`]
//! applies the very truncation soundness rule of
//! [`crate::trace_preorder_sound`].  The two engines must therefore
//! agree on every input: `--engine both` and the `engines` conformance
//! oracle turn that theorem into a continuously checked invariant.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::weak::{truncation_blame, WeakWalk};
use crate::{Lts, TraceRenamer, TraceSet, TraceVerdict};

/// Which decision procedure(s) a verification run uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Engine {
    /// The bounded weak-trace-inclusion check (the original engine).
    #[default]
    Trace,
    /// The on-the-fly subset construction from this module.
    Bisim,
    /// Run both and fail loudly if they ever disagree; campaigns use
    /// the bisimulation verdict to early-reject attack schedules.
    Both,
}

impl Engine {
    /// The flag spelling, as accepted by [`Engine::parse`].
    #[must_use]
    pub fn mode(self) -> &'static str {
        match self {
            Engine::Trace => "trace",
            Engine::Bisim => "bisim",
            Engine::Both => "both",
        }
    }

    /// Parses a `--engine` argument.
    #[must_use]
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "trace" => Some(Engine::Trace),
            "bisim" => Some(Engine::Bisim),
            "both" => Some(Engine::Both),
            _ => None,
        }
    }

    /// Returns `true` when the trace engine runs.
    #[must_use]
    pub fn runs_trace(self) -> bool {
        matches!(self, Engine::Trace | Engine::Both)
    }

    /// Returns `true` when the bisimulation engine runs.
    #[must_use]
    pub fn runs_bisim(self) -> bool {
        matches!(self, Engine::Bisim | Engine::Both)
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mode())
    }
}

/// One member of a configuration: a walk member (state and composed iso)
/// with the renaming of the canonical prefix that reached it, which maps
/// the run's raw fresh names to the tester's trace-local indices.
type Member = (usize, u32, TraceRenamer);

/// A configuration: the members reachable under one canonical
/// observation sequence (sorted and deduplicated, so equal
/// configurations compare equal).
type Cfg = Vec<Member>;

/// All canonical observations enabled from `cfg`, each with the
/// configuration it leads to.  Members whose raw events render to the
/// same canonical string merge — the environment cannot tell those
/// branches apart, so their futures pool.
fn successors(walk: &mut WeakWalk<'_>, cfg: &Cfg) -> BTreeMap<String, Cfg> {
    let mut out: BTreeMap<String, BTreeSet<Member>> = BTreeMap::new();
    for (s, g, renamer) in cfg {
        walk.visible_steps((*s, *g), |ev, members| {
            let mut r = renamer.clone();
            let canon = r.canon(&ev);
            let set = out.entry(canon).or_default();
            set.extend(members.into_iter().map(|(t, gi)| (t, gi, r.clone())));
        });
    }
    out.into_iter()
        .map(|(c, set)| (c, set.into_iter().collect()))
        .collect()
}

/// The initial configuration: the identity-rooted τ-closure of state 0
/// (sorted, so the configuration is too), every member with an empty
/// renaming.
fn initial(walk: &mut WeakWalk<'_>) -> Cfg {
    walk.closure((0, 0))
        .into_iter()
        .map(|(s, g)| (s, g, TraceRenamer::new()))
        .collect()
}

/// Checks `implementation ⊑ specification` by the on-the-fly subset
/// construction up to `max_visible` observations.
///
/// This is the *raw* bounded comparison; it never answers
/// [`TraceVerdict::Inconclusive`].  When either LTS may be truncated,
/// use [`bisim_preorder_sound`].
#[must_use]
pub fn bisim_preorder(
    implementation: &Lts,
    specification: &Lts,
    max_visible: usize,
) -> TraceVerdict {
    let mut iw = WeakWalk::new(implementation);
    let mut sw = WeakWalk::new(specification);
    let start = (initial(&mut iw), initial(&mut sw));
    // The empty experiment always matches.
    let mut checked = 1usize;
    let mut visited: HashMap<(Cfg, Cfg), usize> = HashMap::new();
    visited.insert(start.clone(), max_visible);
    let mut queue: VecDeque<(Cfg, Cfg, usize, Vec<String>)> = VecDeque::new();
    queue.push_back((start.0, start.1, max_visible, Vec::new()));
    while let Some((ic, sc, remaining, prefix)) = queue.pop_front() {
        if remaining == 0 {
            continue;
        }
        let igroups = successors(&mut iw, &ic);
        if igroups.is_empty() {
            continue;
        }
        let sgroups = successors(&mut sw, &sc);
        for (canon, inext) in igroups {
            checked += 1;
            let Some(snext) = sgroups.get(&canon) else {
                // The specification cannot match this experiment: a
                // distinguishing trace, shortest because the schedule
                // is breadth-first.
                let mut witness = prefix;
                witness.push(canon);
                return TraceVerdict::Fails { witness };
            };
            let key = (inext, snext.clone());
            // Revisits arrive with at most the stored budget (BFS is
            // level-ordered), so a seen pair is a pruned subtree.
            if visited.get(&key).is_none_or(|&r| r < remaining - 1) {
                visited.insert(key.clone(), remaining - 1);
                let mut next_prefix = prefix.clone();
                next_prefix.push(canon);
                queue.push_back((key.0, key.1, remaining - 1, next_prefix));
            }
        }
    }
    TraceVerdict::Holds { checked }
}

/// [`bisim_preorder`] under the same truncation soundness rules as
/// [`crate::trace_preorder_sound`]: a *Holds* needs a complete
/// implementation side, a *Fails* a complete specification side, and
/// anything else is inconclusive, blaming the exhausted side.
#[must_use]
pub fn bisim_preorder_sound(
    implementation: &Lts,
    specification: &Lts,
    max_visible: usize,
) -> TraceVerdict {
    let raw = bisim_preorder(implementation, specification, max_visible);
    match truncation_blame(raw.holds(), implementation, specification) {
        Some(exhausted) => TraceVerdict::Inconclusive { exhausted },
        None => raw,
    }
}

/// The canonical observation sequences the bisimulation engine's
/// configuration graph spells out, up to `max_visible` observations.
///
/// This is provably the weak trace set of [`crate::weak_traces`]: the
/// differential surface the `engines` conformance oracle compares
/// string for string, on a single system.
#[must_use]
pub fn bisim_traces(lts: &Lts, max_visible: usize) -> TraceSet {
    let mut walk = WeakWalk::new(lts);
    let start = initial(&mut walk);
    let mut out = TraceSet::new();
    let mut stack = vec![(start, max_visible, Vec::new())];
    while let Some((cfg, remaining, prefix)) = stack.pop() {
        out.insert(prefix.clone());
        if remaining == 0 {
            continue;
        }
        for (canon, next) in successors(&mut walk, &cfg) {
            let mut p = prefix.clone();
            p.push(canon);
            stack.push((next, remaining - 1, p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        trace_preorder, trace_preorder_sound, weak_traces, Budget, ExploreOptions, Explorer,
        ReduceOptions,
    };
    use spi_syntax::parse;

    fn lts(src: &str) -> Lts {
        Explorer::new(ExploreOptions::default())
            .explore(&parse(src).expect("parses"))
            .expect("explores")
    }

    fn lts_with(src: &str, o: ExploreOptions) -> Lts {
        Explorer::new(o).explore(&parse(src).expect("parses")).expect("explores")
    }

    #[test]
    fn agrees_with_the_trace_engine_on_simple_inclusions() {
        let small = lts("observe<a>");
        let big = lts("observe<a> | observe<b>");
        assert!(bisim_preorder(&small, &big, 3).holds());
        assert!(!bisim_preorder(&big, &small, 3).holds());
        assert_eq!(
            bisim_preorder(&big, &small, 3).holds(),
            trace_preorder(&big, &small, 3).holds()
        );
    }

    #[test]
    fn witness_is_shortest_and_rejected_by_the_trace_engine() {
        let impl_ = lts("observe<a>.observe<bad>");
        let spec = lts("observe<a>");
        match bisim_preorder(&impl_, &spec, 4) {
            TraceVerdict::Fails { witness } => {
                assert_eq!(witness.len(), 2, "shortest counterexample");
                assert!(witness[1].contains("bad"));
                // Replay: the distinguishing trace is an implementation
                // trace the specification lacks.
                assert!(weak_traces(&impl_, 4).contains(&witness));
                assert!(!weak_traces(&spec, 4).contains(&witness));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn fresh_name_linking_distinguishes_replays() {
        let twice = lts("(^m)(observe<m>.observe<m>)");
        let two = lts("(^m)(^n)(observe<m>.observe<n>)");
        assert!(!bisim_preorder(&twice, &two, 3).holds());
        assert!(!bisim_preorder(&two, &twice, 3).holds());
        // And alpha-variants are identified.
        let a = lts("(^m) observe<m>");
        let b = lts("(^n) observe<n>");
        assert!(bisim_preorder(&a, &b, 2).holds());
        assert!(bisim_preorder(&b, &a, 2).holds());
    }

    #[test]
    fn configuration_trace_language_equals_weak_traces() {
        for src in [
            "(^m)(c<m> | c(x).observe<x>)",
            "observe<a> | observe<b>",
            "(^kAB)((^m)c<{m}kAB> | c(z).case z of {w}kAB in observe<w>)",
        ] {
            let l = lts(src);
            assert_eq!(bisim_traces(&l, 4), weak_traces(&l, 4), "on {src}");
        }
    }

    #[test]
    fn agreement_holds_on_reduced_iso_tracked_explorations() {
        let concrete = "(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)";
        let spec = "(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)";
        let o = |reduce| ExploreOptions {
            unfold_bound: 2,
            budget: Budget::unlimited().states(20_000),
            reduce,
            ..ExploreOptions::default()
        };
        let ci = lts_with(concrete, o(ReduceOptions::full()));
        let si = lts_with(spec, o(ReduceOptions::full()));
        let t = trace_preorder_sound(&ci, &si, 4);
        let b = bisim_preorder_sound(&ci, &si, 4);
        assert_eq!(
            std::mem::discriminant(&t),
            std::mem::discriminant(&b),
            "engines disagree on reduced pm2: trace={t:?} bisim={b:?}"
        );
        assert_eq!(
            bisim_traces(&ci, 4),
            weak_traces(&ci, 4),
            "configuration language diverged on a reduced LTS"
        );
    }

    #[test]
    fn truncation_soundness_mirrors_the_trace_engine() {
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
        assert!(bisim_preorder_sound(&small, &big, 3).holds());
        let cut = truncated("observe<a>");
        assert!(!cut.complete());
        assert!(!bisim_preorder_sound(&cut, &big, 3).decided());
        assert!(!bisim_preorder_sound(&big, &truncated("observe<a>"), 3).decided());
        let empty = lts("0");
        assert!(bisim_preorder_sound(&empty, &truncated("observe<a>"), 3).holds());
    }

    #[test]
    fn engine_flag_round_trips() {
        for e in [Engine::Trace, Engine::Bisim, Engine::Both] {
            assert_eq!(Engine::parse(e.mode()), Some(e));
            assert_eq!(e.to_string(), e.mode());
        }
        assert_eq!(Engine::parse("x"), None);
        assert_eq!(Engine::default(), Engine::Trace);
        assert!(Engine::Both.runs_trace() && Engine::Both.runs_bisim());
        assert!(!Engine::Trace.runs_bisim() && !Engine::Bisim.runs_trace());
    }
}
