//! Integration of the narration compiler with the verifier: the paper's
//! methodology on narrations, including a three-role classic.

use spi_auth_repro::auth::{Verdict, Verifier};
use spi_auth_repro::protocols::compile::{compile_abstract, compile_concrete, CompileOptions};
use spi_auth_repro::protocols::extra;
use spi_auth_repro::protocols::narration::Narration;

fn single() -> CompileOptions {
    CompileOptions::default()
}

fn multi() -> CompileOptions {
    CompileOptions {
        replicate: true,
        ..CompileOptions::default()
    }
}

#[test]
fn compiled_challenge_response_verifies_end_to_end() {
    let n = Narration::parse(
        "protocol cr\nroles A, B\nshare A B : kab\nfresh A : m\nfresh B : nb\n\
         1. B -> A : nb\n2. A -> B : {m, nb}kab\nclaim B authenticates m from A\n",
    )
    .unwrap();
    let concrete = compile_concrete(&n, &multi()).unwrap();
    let spec = compile_abstract(&n, &multi()).unwrap();
    let verifier = Verifier::new(["c"]).sessions(2);
    assert!(matches!(
        verifier.check(&concrete, &spec).unwrap().verdict,
        Verdict::SecurelyImplements
    ));
}

#[test]
fn compiled_naive_protocol_is_caught() {
    let n = Narration::parse(
        "protocol naive\nroles A, B\nshare A B : kab\nfresh A : m\n\
         1. A -> B : {m}kab\nclaim B authenticates m from A\n",
    )
    .unwrap();
    let concrete = compile_concrete(&n, &multi()).unwrap();
    let spec = compile_abstract(&n, &multi()).unwrap();
    let verifier = Verifier::new(["c"]).sessions(2);
    match verifier.check(&concrete, &spec).unwrap().verdict {
        Verdict::Attack(a) => assert_eq!(a.trace[0], a.trace[1], "a replay"),
        other => panic!("the naive narration must be replayable, got {other:?}"),
    }
}

#[test]
fn single_session_naive_narration_is_fine() {
    let n = Narration::parse(
        "protocol naive\nroles A, B\nshare A B : kab\nfresh A : m\n\
         1. A -> B : {m}kab\nclaim B authenticates m from A\n",
    )
    .unwrap();
    let concrete = compile_concrete(&n, &single()).unwrap();
    let spec = compile_abstract(&n, &single()).unwrap();
    let verifier = Verifier::new(["c"]);
    assert!(matches!(
        verifier.check(&concrete, &spec).unwrap().verdict,
        Verdict::SecurelyImplements
    ));
}

#[test]
fn plaintext_narration_is_caught_even_in_one_session() {
    let n = Narration::parse(
        "protocol plain\nroles A, B\nfresh A : m\n\
         1. A -> B : m\nclaim B authenticates m from A\n",
    )
    .unwrap();
    let concrete = compile_concrete(&n, &single()).unwrap();
    let spec = compile_abstract(&n, &single()).unwrap();
    let verifier = Verifier::new(["c"]);
    assert!(matches!(
        verifier.check(&concrete, &spec).unwrap().verdict,
        Verdict::Attack(_)
    ));
}

#[test]
fn wide_mouthed_frog_runs_to_completion_honestly() {
    use spi_auth_repro::verify::{may_exhibit, ExploreOptions};
    let wmf = extra::wide_mouthed_frog(&single()).unwrap();
    let beta = spi_auth_repro::semantics::Barb {
        chan: spi_auth_repro::syntax::Name::new("observe"),
        output: true,
    };
    // Without an attacker the three roles drive the session to B's claim.
    let witness = may_exhibit(&wmf, &beta, &ExploreOptions::default()).unwrap();
    assert!(witness.is_some(), "honest WMF completes");
}

#[test]
fn wide_mouthed_frog_explores_under_attack() {
    let wmf = extra::wide_mouthed_frog(&single()).unwrap();
    let verifier = Verifier::new(["c"])
        .roles([("A", "00"), ("B", "01"), ("S", "1")])
        .sessions(1);
    let lts = verifier.explore(&wmf).unwrap();
    assert!(lts.stats.states > 10);
    // The session key and payload never leak to the intruder: check that
    // no reachable state has m in the analyzed knowledge.
    for state in &lts.states {
        for t in state.knowledge().iter() {
            if let spi_auth_repro::semantics::RtTerm::Id(id) = t {
                let e = state.config().names().entry(*id);
                assert_ne!(
                    (e.base.as_str(), e.restricted),
                    ("m", true),
                    "the payload must stay secret"
                );
                assert_ne!(
                    (e.base.as_str(), e.restricted),
                    ("kab", true),
                    "the session key must stay secret"
                );
            }
        }
    }
}

#[test]
fn mutual_exchange_completes_honestly() {
    use spi_auth_repro::verify::{may_exhibit, ExploreOptions};
    let p = extra::mutual_exchange(&single()).unwrap();
    let beta = spi_auth_repro::semantics::Barb {
        chan: spi_auth_repro::syntax::Name::new("observe"),
        output: true,
    };
    assert!(may_exhibit(&p, &beta, &ExploreOptions::default())
        .unwrap()
        .is_some());
}
