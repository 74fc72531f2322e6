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

#[test]
fn explored_systems_are_pinned_bit_for_bit() {
    // The paper's ladder under each environment the explorer models: the
    // most-general intruder (unreduced, and reduced at three sessions)
    // and the faulty network under every single fault and one
    // composition.  Each literal is the whole LTS's fingerprint (keys,
    // barbs, edge labels and order, frontier, merge isomorphisms), so a
    // change to how successors are generated or ordered must update it
    // on purpose.  Every worker count gives the same system.
    use spi_auth_repro::auth::ReduceOptions;
    use spi_auth_repro::semantics::{FaultClause, FaultSpec};
    let pm2 = multi::shared_key("c", "observe");
    let pm3 = multi::challenge_response("c", "observe");
    let faults = |clauses: &str| {
        let clauses = clauses
            .split('+')
            .map(|c| c.parse::<FaultClause>().unwrap());
        Verifier::new(["c"])
            .sessions(2)
            .no_intruder()
            .faults(FaultSpec::new(clauses))
    };
    let full = Verifier::new(["c"])
        .sessions(3)
        .reduce(ReduceOptions::full());
    let cases = [
        (
            "pm2 s2",
            &pm2,
            Verifier::new(["c"]).sessions(2),
            (194, 636),
            0x7cd1_b0ec_ef94_b77c_5a88_48a2_413e_a181,
        ),
        (
            "pm3 s2",
            &pm3,
            Verifier::new(["c"]).sessions(2),
            (5_605, 27_326),
            0xe989_77fc_f8aa_0909_2dfc_56af_08a2_a88c,
        ),
        (
            "pm2 s3 full",
            &pm2,
            full,
            (143, 749),
            0x2649_db57_b316_5edd_d7c9_03aa_90cb_3c0b,
        ),
        (
            "pm2 drop",
            &pm2,
            faults("drop:c:1"),
            (55, 104),
            0x75ce_ae7d_e3e1_fe79_53f4_f31f_50c7_3fbb,
        ),
        (
            "pm2 duplicate",
            &pm2,
            faults("duplicate:c:1"),
            (78, 148),
            0x46f4_2648_2e21_3c42_f967_d702_7ab9_d5d7,
        ),
        (
            "pm2 reorder",
            &pm2,
            faults("reorder:c:1"),
            (87, 166),
            0xc1ea_bd00_6ebd_e983_f2b4_25e9_09b0_e97c,
        ),
        (
            "pm2 replay",
            &pm2,
            faults("replay:c:1"),
            (225, 500),
            0x1267_c31e_b334_6937_45c2_e02c_bcb0_5cf5,
        ),
        (
            "pm3 reorder+replay",
            &pm3,
            faults("reorder:c:1+replay:c:1"),
            (12_616, 38_349),
            0xd794_1ba0_0bb7_07e4_f920_7023_7dfd_2638,
        ),
    ];
    for (name, protocol, verifier, (states, edges), pinned) in cases {
        for workers in [1, 2] {
            let lts = verifier.clone().workers(workers).explore(protocol).unwrap();
            assert_eq!(
                (lts.stats.states, lts.stats.edges),
                (states, edges),
                "{name} w{workers}"
            );
            assert_eq!(lts.fingerprint(), pinned, "{name} w{workers}");
        }
    }
}
