//! Experiments E3–E5 — Section 5.1 of the paper: Proposition 1, the
//! counterexample showing `P1 ⋢ P`, and Proposition 2 (`P2` securely
//! implements `P`).

use spi_auth_repro::auth::{propositions, Verdict, Verifier};
use spi_auth_repro::protocols::single;
use spi_auth_repro::semantics::Barb;
use spi_auth_repro::syntax::{parse, Name, Process};
use spi_auth_repro::verify::{passes_test, simulates, ExploreOptions};

#[test]
fn proposition_1_startup_localizes_in_any_environment() {
    let audit = propositions::proposition_1().unwrap();
    assert!(audit.observations > 0);
    assert!(audit.all_from_a, "λ_B only ever binds to A's address");
    assert!(!audit.replay_found);
}

#[test]
fn e4_the_paper_tester_distinguishes_p1_from_p() {
    // The paper's scenario: E = (νME) c̄⟨ME⟩, tester checks z originated
    // at E.  (νc)(P1|E) passes, (νc)(P|E) does not.
    let e = parse("(^mE) c<mE>").unwrap();
    let tester = parse("observe(z).[z ~ @(1.01)] beta<z>").unwrap();
    let beta = Barb {
        chan: Name::new("beta"),
        output: true,
    };
    let opts = ExploreOptions::default();

    let sys_p1 = Process::restrict(
        "c",
        Process::par(single::plaintext("c", "observe"), e.clone()),
    );
    assert!(
        passes_test(&sys_p1, &tester, &beta, &opts)
            .unwrap()
            .is_some(),
        "P1 accepts E's message"
    );

    let sys_p = Process::restrict(
        "c",
        Process::par(single::abstract_protocol("c", "observe").unwrap(), e),
    );
    assert!(
        passes_test(&sys_p, &tester, &beta, &opts)
            .unwrap()
            .is_none(),
        "the abstract P never accepts from E"
    );
}

#[test]
fn e4_the_verifier_finds_the_attack_automatically() {
    let attack = propositions::counterexample_p1()
        .unwrap()
        .expect("P1 is attackable");
    let text = attack.narration.join("\n");
    assert!(text.contains("E(A) → B"), "paper notation: {text}");
    // The distinguishing trace shows B revealing a message whose origin
    // is the intruder's position ‖1.
    assert!(
        attack.trace.iter().any(|e| e.contains("@1")),
        "origin-annotated witness: {:?}",
        attack.trace
    );
}

#[test]
fn proposition_2_shared_key_implements_the_abstract_protocol() {
    let report = propositions::proposition_2().unwrap();
    assert!(
        matches!(report.verdict, Verdict::SecurelyImplements),
        "{report:?}"
    );
    assert!(report.traces_checked >= 2);
}

#[test]
fn proposition_2_also_passes_the_simulation_diagnostic() {
    // The paper proves Prop. 2 with a barbed weak simulation; our
    // simulation checker agrees on the explored systems.
    let verifier = Verifier::new(["c"]);
    let concrete = verifier
        .explore(&single::shared_key("c", "observe"))
        .unwrap();
    let abstract_ = verifier
        .explore(&single::abstract_protocol("c", "observe").unwrap())
        .unwrap();
    assert!(simulates(&abstract_, &concrete).holds());
}

#[test]
fn the_preorder_is_strict_where_it_should_be() {
    // The abstract protocol trivially implements itself; P1 implements
    // itself too (reflexivity sanity checks).
    let verifier = Verifier::new(["c"]);
    let p = single::abstract_protocol("c", "observe").unwrap();
    assert!(matches!(
        verifier.check(&p, &p).unwrap().verdict,
        Verdict::SecurelyImplements
    ));
    let p1 = single::plaintext("c", "observe");
    assert!(matches!(
        verifier.check(&p1, &p1).unwrap().verdict,
        Verdict::SecurelyImplements
    ));
}

#[test]
fn startup_with_both_location_variables_hooks_both_ways() {
    // The full Proposition 1 statement binds both λ_A and λ_B.  With the
    // sender also localized, the protocol additionally gets secrecy: no
    // intruder move can touch either direction.
    use spi_auth_repro::protocols::{startup, StartupIndex};
    use spi_auth_repro::syntax::Name;
    use spi_auth_repro::verify::check_secrecy;

    let a = parse("(^m) c@lamA<m>").unwrap();
    let b = parse("c@lamB(z).observe<z>").unwrap();
    let p = startup(StartupIndex::from("lamA"), a, StartupIndex::from("lamB"), b).unwrap();
    let verifier = Verifier::new(["c"]);
    let lts = verifier.explore(&p).unwrap();
    // The protocol still completes...
    assert!(lts.weak_barbs().iter().any(|bb| bb.chan == "observe"));
    // ...every observation still originates at A...
    use spi_auth_repro::verify::ObsTerm;
    for ev in lts.observations() {
        match &ev.payload {
            ObsTerm::Fresh { creator, .. } => {
                assert!(creator.to_bits().starts_with("00"), "{creator:?}");
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }
    // ...and, unlike the paper's P, the message is also secret.
    assert!(check_secrecy(&lts, &[Name::new("m")]).holds());
}

#[test]
fn locating_the_output_also_gives_secrecy() {
    // The paper remarks that localizing A's output (A′ = (νM) c̄_{‖0•‖1}⟨M⟩)
    // guarantees that B is the only possible receiver: the intruder can
    // then no longer intercept M.
    let localized = parse("(^s)(s<s>.(^m)c@(0.1)<m> | s@lamB(x_s).c@lamB(z).observe<z>)").unwrap();
    let verifier = Verifier::new(["c"]);
    let lts = verifier.explore(&localized).unwrap();
    let intercepts = (0..lts.states.len()).any(|s| {
        lts.descs(s)
            .iter()
            .any(|d| matches!(d, spi_auth_repro::verify::StepDesc::Intercept { .. }))
    });
    assert!(
        !intercepts,
        "a fully localized channel defeats interception"
    );
    // And the protocol still completes.
    assert!(lts.weak_barbs().iter().any(|b| b.chan == "observe"));
}
