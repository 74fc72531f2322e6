//! Property-based tests of fault-schedule campaigns (the `campaign`
//! module of `spi-verify`): every shrunk schedule still reproduces its
//! attack, 1-minimality is real — removing any single unit firing makes
//! the attack disappear — every witness is a shortest one, and the
//! report is a pure function of the search space, independent of the
//! worker count.

use proptest::prelude::*;
use spi_auth_repro::auth::{CampaignOptions, CampaignReport, Engine, Verdict, Verifier};
use spi_auth_repro::protocols::multi;
use spi_auth_repro::semantics::{FaultKind, FaultSpec};
use spi_auth_repro::syntax::Process;
use spi_auth_repro::verify::weak_traces;

const ALL_KINDS: [FaultKind; 4] = [
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Reorder,
    FaultKind::Replay,
];

fn verifier() -> Verifier {
    Verifier::new(["c"]).sessions(2).no_intruder()
}

/// The paper's Section 5.2 pair: the multi-session shared-key protocol
/// (replay-vulnerable once the network can repeat messages) against the
/// abstract multi-session specification.
fn protocols() -> (Process, Process) {
    let concrete = multi::shared_key("c", "observe");
    let spec = multi::abstract_protocol("c", "observe").expect("well-formed");
    (concrete, spec)
}

/// A non-empty subset of the four fault kinds, drawn as a 4-bit mask.
fn arb_kinds() -> impl Strategy<Value = Vec<FaultKind>> {
    (1u8..16).prop_map(|mask| {
        ALL_KINDS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .collect()
    })
}

/// Asserts that two reports of one campaign agree on everything but
/// the worker count that produced them.
fn assert_same_report(solo: &CampaignReport, fleet: &CampaignReport) {
    assert_eq!(
        solo.identity, fleet.identity,
        "the worker count is not digested"
    );
    assert_eq!(solo.results, fleet.results);
    let counts = |r: &CampaignReport| {
        (
            r.enumerated,
            r.resumed,
            r.fresh,
            r.interrupted,
            r.early_rejects,
        )
    };
    assert_eq!(
        counts(solo),
        counts(fleet),
        "enumerated, resumed, fresh, interrupted, early_rejects"
    );
}

/// Runs the Pm2 campaign at `workers`, with `tweak` applied to its
/// options.
fn campaign_at(
    workers: usize,
    depth: usize,
    tweak: impl FnOnce(&mut CampaignOptions),
) -> CampaignReport {
    let (concrete, spec) = protocols();
    let v = verifier().engine(Engine::Both).workers(workers);
    let mut opts = v.campaign_options(depth);
    tweak(&mut opts);
    v.run_campaign(&concrete, &spec, &opts)
        .expect("campaign runs")
}

/// Checks one explicit schedule the way `spi verify --fault` does.
fn attacks_under(schedule: &FaultSpec, concrete: &Process, spec: &Process) -> bool {
    let v = if schedule.clauses.is_empty() {
        verifier()
    } else {
        verifier().faults(schedule.clone())
    };
    let report = v.check(concrete, spec).expect("exploration succeeds");
    matches!(report.verdict, Verdict::Attack(_))
}

/// Every way of removing one unit firing from a schedule: decrement a
/// clause's budget, dropping the clause entirely at zero.
fn unit_removals(schedule: &FaultSpec) -> Vec<FaultSpec> {
    (0..schedule.clauses.len())
        .map(|i| {
            let mut weakened = schedule.clone();
            if weakened.clauses[i].max <= 1 {
                weakened.clauses.remove(i);
            } else {
                weakened.clauses[i].max -= 1;
            }
            weakened.canonical()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every attack a campaign reports carries a shrunk schedule that
    /// (a) reproduces the attack on its own and (b) is genuinely
    /// 1-minimal: removing any single unit firing loses the attack.
    #[test]
    fn shrunk_schedules_reproduce_and_are_one_minimal(
        kinds in arb_kinds(),
        depth in 1usize..3,
    ) {
        let (concrete, spec) = protocols();
        let v = verifier();
        let mut opts = v.campaign_options(depth);
        opts.kinds = kinds;
        let report = v.run_campaign(&concrete, &spec, &opts).expect("campaign runs");
        for (result, cex) in report.attacks() {
            prop_assert!(
                attacks_under(&cex.schedule, &concrete, &spec),
                "minimal schedule {} (shrunk from {}) must reproduce its attack",
                cex.schedule.canonical_key(),
                result.key,
            );
            for weakened in unit_removals(&cex.schedule) {
                prop_assert!(
                    !attacks_under(&weakened, &concrete, &spec),
                    "{} is not 1-minimal: weakened {} still attacks",
                    cex.schedule.canonical_key(),
                    weakened.canonical_key(),
                );
            }
        }
    }

    /// Every engine reports a shortest witness: the attack's trace is not
    /// a weak trace of the specification under the minimal schedule, but
    /// each strict prefix is, so no prefix already distinguishes the two
    /// systems.
    #[test]
    fn attack_witnesses_are_prefix_minimal_under_every_engine(
        kinds in arb_kinds(),
        depth in 1usize..3,
    ) {
        let (concrete, spec) = protocols();
        for engine in [Engine::Trace, Engine::Bisim, Engine::Both] {
            let v = verifier().engine(engine);
            let mut opts = v.campaign_options(depth);
            opts.kinds = kinds.clone();
            let report = v.run_campaign(&concrete, &spec, &opts).expect("campaign runs");
            for (_, cex) in report.attacks() {
                let v = if cex.schedule.clauses.is_empty() {
                    verifier()
                } else {
                    verifier().faults(cex.schedule.clone())
                };
                let spec_traces = weak_traces(&v.explore(&spec).unwrap(), opts.max_visible);
                prop_assert!(
                    !spec_traces.contains(&cex.trace),
                    "{engine:?}: the witness is a specification trace"
                );
                for cut in 0..cex.trace.len() {
                    prop_assert!(
                        spec_traces.contains(&cex.trace[..cut]),
                        "{engine:?} under {}: the prefix {:?} already distinguishes",
                        cex.schedule.canonical_key(),
                        &cex.trace[..cut],
                    );
                }
            }
        }
    }

    /// The campaign report is a pure function of the search space: the
    /// worker count changes wall-clock time, never a single result or
    /// count — under both engines, whose bisimulation fast path is what
    /// `early_rejects` counts.
    #[test]
    fn reports_are_identical_for_any_worker_count(
        kinds in arb_kinds(),
        depth in 1usize..3,
        extra_workers in 1usize..4,
    ) {
        let solo = campaign_at(1, depth, |o| o.kinds = kinds.clone());
        let fleet = campaign_at(1 + extra_workers, depth, |o| o.kinds = kinds);
        assert_same_report(&solo, &fleet);
    }
}

/// An interrupted campaign and its resumption: the same reports and the
/// same checkpoint bytes at 3 workers as at 1.
#[test]
fn stopped_and_resumed_campaigns_are_identical_for_any_worker_count() {
    let run = |workers: usize| {
        let path = std::env::temp_dir().join(format!(
            "spi-prop-campaign-{}-w{workers}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let partial = campaign_at(workers, 2, |o| {
            o.checkpoint_path = Some(path.clone());
            o.checkpoint_every = 1;
            o.stop_after = Some(5);
        });
        let stopped = std::fs::read(&path).expect("checkpoint written");
        let resumed = campaign_at(workers, 2, |o| {
            o.checkpoint_path = Some(path.clone());
            o.resume = true;
        });
        let finished = std::fs::read(&path).expect("checkpoint written");
        let _ = std::fs::remove_file(&path);
        (partial, stopped, resumed, finished)
    };
    let (solo_partial, solo_stopped, solo_resumed, solo_finished) = run(1);
    let (partial, stopped, resumed, finished) = run(3);
    assert!(solo_partial.interrupted);
    assert_eq!((solo_partial.fresh, solo_resumed.resumed), (5, 5));
    assert_same_report(&solo_partial, &partial);
    assert_same_report(&solo_resumed, &resumed);
    assert_eq!(solo_stopped, stopped, "checkpoint after the stop");
    assert_eq!(solo_finished, finished, "checkpoint after the resume");
}

/// A worker panic poisons only the schedule whose exploration raised
/// it, wherever that exploration ran.
#[test]
fn worker_panics_poison_the_same_schedules_for_any_worker_count() {
    // Replay faults push either system past 150 states; the others
    // stay below it and are decided.
    let poison = |o: &mut CampaignOptions| o.explore.panic_after_states = Some(150);
    let solo = campaign_at(1, 2, poison);
    let fleet = campaign_at(2, 2, poison);
    let (attacks, survives, inconclusive) = solo.tally();
    assert!(
        inconclusive > 0 && attacks > 0 && survives > 0,
        "{:?}",
        solo.tally()
    );
    assert_same_report(&solo, &fleet);
}
