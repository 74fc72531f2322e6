//! Property-based tests of the exploration engine's determinism
//! guarantees: hashed-key interning agrees with the full canonical
//! strings, and the parallel frontier produces a bit-for-bit identical
//! [`Lts`] for every worker count.

use proptest::prelude::*;
use spi_addr::Path;
use spi_syntax::{Name, Process, Term, Var};
use spi_verify::{ExploreOptions, Explorer, IntruderSpec, Lts};

fn arb_name() -> impl Strategy<Value = Name> {
    prop_oneof![
        Just(Name::new("c")),
        Just(Name::new("d")),
        Just(Name::new("k")),
    ]
}

/// A small closed replication-free process, as in `prop_budget`, plus
/// restriction and parallel composition so machine-generated names and
/// interleavings show up in the state space.
fn arb_process(depth: u32) -> BoxedStrategy<Process> {
    if depth == 0 {
        return prop_oneof![
            Just(Process::Nil),
            arb_name().prop_map(|c| Process::output(
                Term::Name(c.clone()),
                Term::Name(c),
                Process::Nil
            )),
        ]
        .boxed();
    }
    prop_oneof![
        Just(Process::Nil),
        (arb_name(), arb_name(), arb_process(depth - 1))
            .prop_map(|(c, m, p)| Process::output(Term::Name(c), Term::Name(m), p)),
        (arb_name(), arb_process(depth - 1)).prop_map(|(c, p)| Process::input(
            Term::Name(c),
            Var::new("x"),
            p
        )),
        (arb_name(), arb_process(depth - 1)).prop_map(|(n, p)| Process::restrict(n, p)),
        (arb_process(depth - 1), arb_process(depth - 1)).prop_map(|(l, r)| Process::par(l, r)),
    ]
    .boxed()
}

/// `(νc)(P | 0)` — the closed system with the intruder seat `‖1`, the
/// same shape the `Verifier` front-end builds.
fn under_attack(p: &Process) -> Process {
    Process::restrict_all([Name::new("c")], Process::par(p.clone(), Process::Nil))
}

fn opts(workers: usize, verify_keys: bool) -> ExploreOptions {
    ExploreOptions {
        unfold_bound: 1,
        intruder: Some(IntruderSpec::new(
            "1".parse::<Path>().expect("static path"),
            [Name::new("c")],
        )),
        workers,
        verify_keys,
        ..ExploreOptions::default()
    }
}

/// Everything the engine promises to keep identical across worker
/// counts: state keys, barbs, edges (observation ids and targets, in
/// order), step descriptions, the observation table, statistics,
/// coverage, exhaustion, and the frontier.
fn assert_identical(a: &Lts, b: &Lts) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.stats, b.stats, "statistics differ");
    prop_assert_eq!(a.coverage, b.coverage, "coverage accounting differs");
    prop_assert_eq!(&a.frontier, &b.frontier, "frontiers differ");
    prop_assert_eq!(a.exhausted, b.exhausted, "exhaustion differs");
    prop_assert_eq!(a.states.len(), b.states.len(), "state counts differ");
    prop_assert_eq!(
        a.observations(),
        b.observations(),
        "observation tables differ"
    );
    for (i, (sa, sb)) in a.states.iter().zip(&b.states).enumerate() {
        prop_assert_eq!(sa.key, sb.key, "state {} key differs", i);
        prop_assert_eq!(&sa.barbs, &sb.barbs, "state {} barbs differ", i);
        prop_assert_eq!(&sa.edges, &sb.edges, "state {} edges differ", i);
        prop_assert_eq!(a.descs(i), b.descs(i), "state {} steps differ", i);
    }
    Ok(())
}

/// The visible trace alphabet actually used by the verdict machinery —
/// a coarser view than the full edge comparison, kept as a second,
/// independently computed check.
fn visible_labels(lts: &Lts) -> Vec<(usize, String, usize)> {
    let mut out = Vec::new();
    for (src, st) in lts.states.iter().enumerate() {
        for &edge in &st.edges {
            if let Some(ev) = lts.event(edge) {
                out.push((src, format!("{ev:?}"), edge.target()));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interning by 128-bit hashed keys agrees with interning by the
    /// full canonical strings: `verify_keys` makes the store assert the
    /// two indexes agree on every lookup, and the resulting system is
    /// identical to the production (hash-only) one.
    #[test]
    fn hashed_keys_agree_with_canonical_strings(p in arb_process(2)) {
        let sys = under_attack(&p);
        let hashed = Explorer::new(opts(1, false)).explore(&sys);
        let checked = Explorer::new(opts(1, true)).explore(&sys);
        match (hashed, checked) {
            (Ok(h), Ok(c)) => {
                assert_identical(&h, &c)?;
            }
            (Err(eh), Err(ec)) => prop_assert_eq!(format!("{eh}"), format!("{ec}")),
            (h, c) => prop_assert!(false, "divergent outcomes: {h:?} vs {c:?}"),
        }
    }

    /// The parallel frontier is a pure speedup: for any worker count the
    /// engine produces the same LTS as the sequential one — same state
    /// numbering, same edges, same frontier, same visible traces.
    #[test]
    fn worker_count_never_changes_the_lts(
        p in arb_process(2),
        workers in 2usize..6,
    ) {
        let sys = under_attack(&p);
        let sequential = Explorer::new(opts(1, false)).explore(&sys);
        let parallel = Explorer::new(opts(workers, false)).explore(&sys);
        match (sequential, parallel) {
            (Ok(s), Ok(par)) => {
                assert_identical(&s, &par)?;
                prop_assert_eq!(visible_labels(&s), visible_labels(&par));
            }
            (Err(es), Err(ep)) => prop_assert_eq!(format!("{es}"), format!("{ep}")),
            (s, par) => prop_assert!(false, "divergent outcomes: {s:?} vs {par:?}"),
        }
    }
}
