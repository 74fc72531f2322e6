//! Property-based tests of the second decision procedure: the
//! bisimulation engine (a breadth-first subset construction over the
//! weak LTS, one trace renamer per configuration member) agrees with
//! the trace engine on arbitrary systems, at every reduction setting
//! and worker count, and every counterexample it extracts replays as a
//! real distinguishing trace.

use proptest::prelude::*;
use spi_syntax::{Name, Process, Term, Var};
use spi_verify::{
    bisim_preorder_sound, trace_preorder_sound, weak_traces, Budget, ExploreOptions, Explorer, Lts,
    ReduceOptions, TraceVerdict,
};

fn arb_name() -> impl Strategy<Value = Name> {
    prop_oneof![
        Just(Name::new("c")),
        Just(Name::new("d")),
        Just(Name::new("m")),
    ]
}

/// A payload that sometimes hides the session nonce under encryption —
/// the shape that exercises linking fresh names under a ciphertext.
fn arb_payload() -> impl Strategy<Value = Term> {
    (arb_name(), AnyBool).prop_map(|(m, encrypt)| {
        if encrypt {
            Term::enc(vec![Term::Name(m)], Term::name("k"))
        } else {
            Term::Name(m)
        }
    })
}

/// A small closed process over the public channels `c`/`d`, the free
/// key `k`, and the session-local nonce `m`.
fn arb_body(depth: u32) -> BoxedStrategy<Process> {
    if depth == 0 {
        return prop_oneof![
            Just(Process::Nil),
            (arb_name(), arb_payload())
                .prop_map(|(c, m)| Process::output(Term::Name(c), m, Process::Nil)),
        ]
        .boxed();
    }
    prop_oneof![
        Just(Process::Nil),
        (arb_name(), arb_payload(), arb_body(depth - 1))
            .prop_map(|(c, m, p)| Process::output(Term::Name(c), m, p)),
        (arb_name(), arb_body(depth - 1)).prop_map(|(c, p)| Process::input(
            Term::Name(c),
            Var::new("x"),
            p
        )),
        (arb_body(depth - 1), arb_body(depth - 1)).prop_map(|(l, r)| Process::par(l, r)),
    ]
    .boxed()
}

/// A session system: the body restricts its own nonce `m`, so fresh
/// names flow through payloads (sometimes under encryption) and the two
/// engines must agree on how the environment links them.
fn arb_system() -> impl Strategy<Value = Process> {
    (arb_body(2), arb_body(1)).prop_map(|(body, observer)| {
        Process::par(Process::restrict(Name::new("m"), body), observer)
    })
}

fn opts(reduce: ReduceOptions, workers: usize) -> ExploreOptions {
    ExploreOptions {
        unfold_bound: 2,
        budget: Budget::unlimited().states(3_000),
        reduce,
        workers,
        ..ExploreOptions::default()
    }
}

/// Explores and returns the LTS only when the budget did not truncate
/// it (half-explored systems make both engines inconclusive).
fn explored(sys: &Process, o: ExploreOptions) -> Option<Lts> {
    Explorer::new(o).explore(sys).ok().filter(Lts::complete)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two decision procedures reach the same verdict on every
    /// generated implementation/specification pair, at every reduction
    /// setting and worker count.  (Witness traces may differ in the
    /// Fails case — both are minimal, not unique — so the comparison is
    /// on the verdict discriminant, same as `--engine both`.)
    #[test]
    fn the_engines_agree_on_arbitrary_systems(
        implementation in arb_system(),
        specification in arb_system(),
    ) {
        for reduce in [ReduceOptions::none(), ReduceOptions::full()] {
            for workers in [1usize, 2, 8] {
                let o = opts(reduce, workers);
                let Some(il) = explored(&implementation, o.clone()) else { return Ok(()); };
                let Some(sl) = explored(&specification, o) else { return Ok(()); };
                let t = trace_preorder_sound(&il, &sl, 4);
                let b = bisim_preorder_sound(&il, &sl, 4);
                prop_assert_eq!(
                    std::mem::discriminant(&t),
                    std::mem::discriminant(&b),
                    "engines disagree at reduce={:?} workers={}: trace={:?} bisim={:?}",
                    reduce, workers, t, b
                );
            }
        }
    }

    /// Counterexamples replay: every distinguishing trace the
    /// bisimulation engine extracts is a weak trace of the
    /// implementation and not of the specification.
    #[test]
    fn bisim_counterexamples_replay_as_distinguishing_traces(
        implementation in arb_system(),
        specification in arb_system(),
    ) {
        let o = opts(ReduceOptions::none(), 1);
        let Some(il) = explored(&implementation, o.clone()) else { return Ok(()); };
        let Some(sl) = explored(&specification, o) else { return Ok(()); };
        if let TraceVerdict::Fails { witness } = bisim_preorder_sound(&il, &sl, 4) {
            prop_assert!(!witness.is_empty(), "empty witness distinguishes nothing");
            prop_assert!(
                weak_traces(&il, 4).contains(&witness),
                "witness is not a trace of the implementation: {:?}", witness
            );
            prop_assert!(
                !weak_traces(&sl, 4).contains(&witness),
                "witness is a trace of the specification too: {:?}", witness
            );
        }
    }
}
