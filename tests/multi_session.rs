//! Experiments E6–E8 — Section 5.2 of the paper: Proposition 3, the
//! replay attack on `Pm2`, and Proposition 4 (`Pm3` securely implements
//! `Pm`).

use spi_auth_repro::auth::{propositions, Verdict, Verifier};
use spi_auth_repro::protocols::multi;

#[test]
fn proposition_3_sessions_pair_off_with_freshness() {
    let audit = propositions::proposition_3(2).unwrap();
    assert!(audit.observations > 1, "several sessions complete");
    assert!(audit.all_from_a, "authentication across sessions");
    assert!(
        !audit.replay_found,
        "no run of Pm delivers the same located message twice"
    );
}

#[test]
fn e7_pm2_suffers_the_replay_attack() {
    let attack = propositions::counterexample_pm2(2)
        .unwrap()
        .expect("Pm2 is replayable");
    // The distinguishing trace delivers the same located message twice.
    assert_eq!(attack.trace.len(), 2);
    assert_eq!(attack.trace[0], attack.trace[1]);
    let text = attack.narration.join("\n");
    assert!(text.contains("E intercepts"), "{text}");
    assert!(
        text.matches("E pretending to be A").count() >= 2,
        "the replay delivers twice: {text}"
    );
}

#[test]
fn e7_one_session_is_not_enough_for_the_replay() {
    // With a single session the naive protocol is still fine — exactly
    // the paper's point that P2 is secure in isolation.
    let report = propositions::counterexample_pm2(1).unwrap();
    assert!(report.is_none(), "one session of Pm2 has no replay");
}

#[test]
fn proposition_4_challenge_response_is_secure() {
    let report = propositions::proposition_4(2).unwrap();
    assert!(
        matches!(report.verdict, Verdict::SecurelyImplements),
        "{report:?}"
    );
}

#[test]
fn the_nonce_check_is_what_saves_pm3() {
    // Ablation: strip the [w = N] matching from B3 and the replay
    // reappears — the verifier pinpoints the design decision.
    use spi_auth_repro::syntax::parse;
    let broken = parse(
        "(^kAB)(!(^m)c(ns).c<{m, ns}kAB> | \
         !(^nb)c<nb>.c(x).case x of {z, w}kAB in observe<z>)",
    )
    .unwrap();
    let pm = multi::abstract_protocol("c", "observe").unwrap();
    let verifier = Verifier::new(["c"]).sessions(2);
    match verifier.check(&broken, &pm).unwrap().verdict {
        Verdict::Attack(a) => {
            assert_eq!(a.trace[0], a.trace[1], "same message accepted twice");
        }
        other => panic!("removing the nonce check must break Pm3, got {other:?}"),
    }
}

#[test]
fn abstract_pm_implements_itself_across_session_counts() {
    let pm = multi::abstract_protocol("c", "observe").unwrap();
    for sessions in 1..=2 {
        let verifier = Verifier::new(["c"]).sessions(sessions);
        assert!(matches!(
            verifier.check(&pm, &pm).unwrap().verdict,
            Verdict::SecurelyImplements
        ));
    }
}

#[test]
fn pm_simulates_pm3_but_not_pm2_with_and_without_reduction() {
    // Proposition 4 in the paper's own proof style: `Pm` weakly
    // simulates `Pm3` and not `Pm2`.  Under the full reduction the
    // explored systems merge session-permuted states, so the game must
    // compare events in true coordinates, not a representative's.
    use spi_auth_repro::auth::ReduceOptions;
    use spi_auth_repro::verify::simulates;
    let pm = multi::abstract_protocol("c", "observe").unwrap();
    let pm2 = multi::shared_key("c", "observe");
    let pm3 = multi::challenge_response("c", "observe");
    for reduce in [ReduceOptions::none(), ReduceOptions::full()] {
        let verifier = Verifier::new(["c"]).sessions(2).workers(1).reduce(reduce);
        let spec = verifier.explore(&pm).unwrap();
        let secure = simulates(&spec, &verifier.explore(&pm3).unwrap());
        assert!(secure.holds(), "Pm3 under {}: {secure:?}", reduce.mode());
        let replayable = simulates(&spec, &verifier.explore(&pm2).unwrap());
        assert!(
            replayable.decided() && !replayable.holds(),
            "Pm2 under {}: {replayable:?}",
            reduce.mode()
        );
    }
}

#[test]
fn the_symmetry_search_scores_about_one_arrangement_per_state() {
    // The `--reduce full` quotient on the paper's replicated sessions,
    // pinned at every worker count: the state and edge counts belong to
    // the quotient (no symmetry search may move them), the counters to
    // this search.  A change to the search must update them on purpose.
    use spi_auth_repro::auth::ReduceOptions;
    let cases = [
        (
            "pm2",
            multi::shared_key("c", "observe"),
            3,
            (143, 749),
            (748, 838, 0),
        ),
        (
            "pm3",
            multi::challenge_response("c", "observe"),
            2,
            (1_287, 6_532),
            (6_531, 6_653, 0),
        ),
    ];
    for (name, protocol, sessions, (states, edges), (canon, scored, overflows)) in cases {
        let mut fingerprint = None;
        for workers in [1, 2, 8] {
            let lts = Verifier::new(["c"])
                .sessions(sessions)
                .workers(workers)
                .reduce(ReduceOptions::full())
                .explore(&protocol)
                .unwrap();
            let fp = *fingerprint.get_or_insert(lts.fingerprint());
            assert_eq!(lts.fingerprint(), fp, "{name} s{sessions} w{workers}");
            let s = lts.stats;
            assert_eq!(
                (s.states, s.edges),
                (states, edges),
                "{name} s{sessions} w{workers}"
            );
            assert_eq!(
                (s.sym_canonicalizations, s.sym_candidates, s.sym_overflows),
                (canon, scored, overflows),
                "{name} s{sessions} w{workers}"
            );
            assert_eq!(s.sym_overflows, 0);
            assert!(
                2 * s.sym_candidates <= 3 * s.sym_canonicalizations,
                "{name}: {s:?}"
            );
        }
    }
}
