//! Property-based tests of the state-space reductions: the
//! signature-guided symmetry quotient is orbit-invariant on arbitrary
//! replicated systems (`verify_symmetry` never fires), reduced and
//! unreduced explorations extract the same weak traces at every worker
//! count, and the reductions compose with every fault kind without
//! changing campaign classifications.

use proptest::prelude::*;
use spi_semantics::{FaultKind, FaultSpec};
use spi_syntax::{parse, Name, Process, Term, Var};
use spi_verify::{
    run_campaign, simulates, weak_traces, Budget, CampaignOptions, ExploreOptions, Explorer, Lts,
    ReduceOptions,
};

fn arb_name() -> impl Strategy<Value = Name> {
    prop_oneof![
        Just(Name::new("c")),
        Just(Name::new("d")),
        Just(Name::new("m")),
    ]
}

/// A small closed process over `c`/`d` and the session-local nonce `m`.
fn arb_body(depth: u32) -> BoxedStrategy<Process> {
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
        (arb_name(), arb_name(), arb_body(depth - 1))
            .prop_map(|(c, m, p)| Process::output(Term::Name(c), Term::Name(m), p)),
        (arb_name(), arb_body(depth - 1)).prop_map(|(c, p)| Process::input(
            Term::Name(c),
            Var::new("x"),
            p
        )),
        (arb_body(depth - 1), arb_body(depth - 1)).prop_map(|(l, r)| Process::par(l, r)),
    ]
    .boxed()
}

/// A replicated session system: every copy restricts its own nonce `m`,
/// so unfolded copies differ only by machine-made names — exactly the
/// redundancy the session-symmetry quotient removes.
fn arb_session_system() -> impl Strategy<Value = Process> {
    (arb_body(2), arb_body(1)).prop_map(|(body, observer)| {
        Process::par(
            Process::bang(Process::restrict(Name::new("m"), body)),
            observer,
        )
    })
}

fn opts(reduce: ReduceOptions) -> ExploreOptions {
    ExploreOptions {
        unfold_bound: 2,
        budget: Budget::unlimited().states(3_000),
        reduce,
        ..ExploreOptions::default()
    }
}

/// Explores and returns the LTS only when the budget did not truncate it
/// (half-explored systems are not comparable).
fn explored(sys: &Process, o: ExploreOptions) -> Option<Lts> {
    Explorer::new(o).explore(sys).ok().filter(Lts::complete)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The quotient is a canonical form: for every generated system the
    /// brute-force orbit check behind `verify_symmetry` holds — every
    /// permuted variant of every reached state quotients to the same
    /// key.  A violation panics inside the explorer and fails the test.
    #[test]
    fn the_symmetry_quotient_is_orbit_invariant(sys in arb_session_system()) {
        let checked = ExploreOptions {
            verify_symmetry: true,
            ..opts(ReduceOptions { symmetry: true, por: false })
        };
        let _ = Explorer::new(checked).explore(&sys);
    }

    /// Reductions preserve observations at every worker count: the
    /// reduced LTS is bit-identical for workers 1, 2 and 8, its exact
    /// weak trace set and barbs match the unreduced reference, and the
    /// two simulate each other.
    #[test]
    fn reduced_explorations_agree_with_unreduced_at_every_worker_count(
        sys in arb_session_system(),
    ) {
        let tracked = ExploreOptions {
            track_isos: true,
            ..opts(ReduceOptions::none())
        };
        let Some(plain) = explored(&sys, tracked) else { return Ok(()); };
        let mut prints = Vec::new();
        for workers in [1usize, 2, 8] {
            let o = ExploreOptions { workers, ..opts(ReduceOptions::full()) };
            let Some(reduced) = explored(&sys, o) else { return Ok(()); };
            prints.push(reduced.fingerprint());
            prop_assert!(
                reduced.states.len() <= plain.states.len(),
                "reduction grew the state space at workers={}",
                workers
            );
            prop_assert_eq!(
                weak_traces(&reduced, 4),
                weak_traces(&plain, 4),
                "weak traces changed at workers={}",
                workers
            );
            prop_assert_eq!(
                reduced.weak_barbs(),
                plain.weak_barbs(),
                "weak barbs changed at workers={}",
                workers
            );
            prop_assert!(
                simulates(&plain, &reduced).holds() && simulates(&reduced, &plain).holds(),
                "reduced and unreduced stopped simulating each other at workers={}",
                workers
            );
        }
        prop_assert!(
            prints.windows(2).all(|w| w[0] == w[1]),
            "reduced LTS diverges across worker counts: {:x?}",
            prints
        );
    }

    /// Reduction composes with the faulty-network model: under every
    /// fault kind the reduced exploration still extracts exactly the
    /// unreduced trace set and barbs.
    #[test]
    fn reduction_composes_with_every_fault_kind(
        sys in arb_session_system(),
        kind in prop::sample::select(FaultKind::ALL.to_vec()),
    ) {
        let faults = Some(FaultSpec::single(kind, "c", 1));
        let tracked = ExploreOptions {
            track_isos: true,
            faults: faults.clone(),
            ..opts(ReduceOptions::none())
        };
        let Some(plain) = explored(&sys, tracked) else { return Ok(()); };
        let reduced_opts = ExploreOptions {
            faults,
            ..opts(ReduceOptions::full())
        };
        let Some(reduced) = explored(&sys, reduced_opts) else { return Ok(()); };
        prop_assert_eq!(
            weak_traces(&reduced, 4),
            weak_traces(&plain, 4),
            "weak traces changed under fault kind {:?}",
            kind
        );
        prop_assert_eq!(
            reduced.weak_barbs(),
            plain.weak_barbs(),
            "weak barbs changed under fault kind {:?}",
            kind
        );
    }
}

/// Reduction never changes what a fault campaign concludes: the same
/// schedules, the same per-schedule classifications, reduced or not.
#[test]
fn reduction_preserves_campaign_classifications() {
    let concrete = parse("(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)")
        .expect("concrete parses");
    let spec = parse("(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)")
        .expect("spec parses");
    let campaign = |reduce: ReduceOptions| {
        let mut o = CampaignOptions::new(["c"], 1);
        o.explore = opts(reduce);
        o.explore.budget = Budget::unlimited().states(20_000);
        o.max_visible = 4;
        run_campaign(&concrete, &spec, &o).expect("campaign runs")
    };
    let baseline = campaign(ReduceOptions::none());
    let reduced = campaign(ReduceOptions::full());
    assert_eq!(baseline.enumerated, reduced.enumerated);
    assert_eq!(baseline.results.len(), reduced.results.len());
    for (b, r) in baseline.results.iter().zip(&reduced.results) {
        assert_eq!(b.key, r.key, "schedule universes diverged");
        assert_eq!(
            b.outcome, r.outcome,
            "schedule `{}` classified differently under reduction",
            b.key
        );
    }
    assert!(
        baseline.results.iter().any(|r| r.outcome != baseline.results[0].outcome)
            || baseline.enumerated > 1,
        "campaign too trivial to witness anything"
    );
}
