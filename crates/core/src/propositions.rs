//! Mechanical re-derivations of the paper's formal results.
//!
//! Each function reconstructs one result of Section 5 with the bounded
//! machinery of this workspace and returns a structured report, so the
//! examples, the integration tests and `EXPERIMENTS.md` all draw from the
//! same source:
//!
//! | Paper artefact | Function |
//! |----------------|----------|
//! | Proposition 1 (startup binds locations correctly)   | [`proposition_1`] |
//! | §5.1 counterexample (`P1` does not implement `P`)   | [`counterexample_p1`] |
//! | Proposition 2 (`P2` securely implements `P`)        | [`proposition_2`] |
//! | Proposition 3 (multisession hooking and freshness)  | [`proposition_3`] |
//! | §5.2 counterexample (replay on `Pm2`)               | [`counterexample_pm2`] |
//! | Proposition 4 (`Pm3` securely implements `Pm`)      | [`proposition_4`] |

use std::collections::BTreeSet;

use spi_addr::Path;
use spi_protocols::{multi, single};
use spi_verify::{weak_traces, ExploreStats, ObsTerm, VerifyError};

use crate::{Attack, Verdict, VerificationReport, Verifier};

/// The report of an origin-audit run ([`proposition_1`] and
/// [`proposition_3`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginAudit {
    /// How many visible observations the bounded exploration offers.
    pub observations: usize,
    /// Did every observation originate from an instance of `A`?
    pub all_from_a: bool,
    /// Did any complete trace deliver the same message twice (a replay)?
    pub replay_found: bool,
    /// Exploration statistics.
    pub stats: ExploreStats,
}

/// The standard channel/continuation names used throughout.
const CHAN: &str = "c";
const OBSERVE: &str = "observe";

/// The position, inside `(νc)(P | X)`, of the `A` side of the paper's
/// protocols (the left component of the startup).
fn a_side() -> Path {
    "00".parse().expect("static path")
}

fn audit(protocol: &spi_syntax::Process, verifier: &Verifier) -> Result<OriginAudit, VerifyError> {
    let lts = verifier.explore(protocol)?;
    let mut observations = 0usize;
    let mut all_from_a = true;
    for state in &lts.states {
        for &edge in &state.edges {
            if let Some(ev) = lts.event(edge) {
                observations += 1;
                let from_a = match &ev.payload {
                    ObsTerm::Fresh { creator, .. } => {
                        // Created at or below the A side: the startup
                        // sender or one of its session instances.
                        a_side().is_prefix_of(creator)
                    }
                    _ => false,
                };
                all_from_a &= from_a;
            }
        }
    }
    // Freshness: no trace repeats an event (delivering the same located
    // message twice).
    let mut replay_found = false;
    for trace in weak_traces(&lts, 4) {
        let set: BTreeSet<&String> = trace.iter().collect();
        if set.len() != trace.len() {
            replay_found = true;
        }
    }
    Ok(OriginAudit {
        observations,
        all_from_a,
        replay_found,
        stats: lts.stats,
    })
}

/// **Proposition 1.** In `startup(⋆, A, λ_B, B)` composed with *any*
/// environment, `λ_B` can only be bound to the relative address of `A` —
/// operationally: under the most-general intruder, every message the
/// continuation of `B` reveals originates from `A`.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn proposition_1() -> Result<OriginAudit, VerifyError> {
    let p = single::abstract_protocol(CHAN, OBSERVE).expect("builds");
    let verifier = Verifier::new([CHAN]);
    let report = audit(&p, &verifier)?;
    Ok(report)
}

/// **Section 5.1 counterexample.** The plaintext `P1` does not securely
/// implement the abstract `P`: the attacker `E = (νM_E) c̄⟨M_E⟩` makes
/// `B` accept a message that did not originate from `A`
/// (`Message 1  E(A) → B : M_E`).
///
/// # Errors
///
/// Propagates exploration failures.  Returns the attack; `None` would
/// mean the reproduction failed.
pub fn counterexample_p1() -> Result<Option<Attack>, VerifyError> {
    let verifier = Verifier::new([CHAN]);
    verifier.find_attack(
        &single::plaintext(CHAN, OBSERVE),
        &single::abstract_protocol(CHAN, OBSERVE).expect("builds"),
    )
}

/// **Proposition 2.** `P2` (one session of `A → B : {M}K_AB`) securely
/// implements the abstract protocol `P`.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn proposition_2() -> Result<VerificationReport, VerifyError> {
    let verifier = Verifier::new([CHAN]);
    verifier.check(
        &single::shared_key(CHAN, OBSERVE),
        &single::abstract_protocol(CHAN, OBSERVE).expect("builds"),
    )
}

/// **Proposition 3.** In the multisession startup, instances pair off:
/// every revealed message still originates from an instance of `A`, and
/// no run delivers the same message twice — freshness by construction.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn proposition_3(sessions: u32) -> Result<OriginAudit, VerifyError> {
    let pm = multi::abstract_protocol(CHAN, OBSERVE).expect("builds");
    let verifier = Verifier::new([CHAN]).sessions(sessions);
    audit(&pm, &verifier)
}

/// **Section 5.2 counterexample.** `Pm2` (naively replicated `{M}K_AB`)
/// does not implement `Pm`: the intruder intercepts `{M}K_AB` and replays
/// it, making two instances of `B` accept the same message.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn counterexample_pm2(sessions: u32) -> Result<Option<Attack>, VerifyError> {
    let verifier = Verifier::new([CHAN]).sessions(sessions);
    verifier.find_attack(
        &multi::shared_key(CHAN, OBSERVE),
        &multi::abstract_protocol(CHAN, OBSERVE).expect("builds"),
    )
}

/// **Proposition 4.** The challenge-response `Pm3` securely implements
/// the multisession abstract protocol `Pm`.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn proposition_4(sessions: u32) -> Result<VerificationReport, VerifyError> {
    let verifier = Verifier::new([CHAN]).sessions(sessions);
    verifier.check(
        &multi::challenge_response(CHAN, OBSERVE),
        &multi::abstract_protocol(CHAN, OBSERVE).expect("builds"),
    )
}

/// **Section 5.2 counterexample, network edition.** The replay attack on
/// `Pm2` needs no intruder at all: a network that may *duplicate* a
/// single message in transit — keeping the original creator stamps, since
/// duplication is not re-creation — already makes two instances of `B`
/// accept the same located message, which the abstract `Pm` can never
/// show.  The localized channels of `Pm` refuse the faulty network
/// outright, so the same fault model leaves the specification untouched.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn counterexample_pm2_faulty_network(sessions: u32) -> Result<Option<Attack>, VerifyError> {
    let verifier = Verifier::new([CHAN])
        .sessions(sessions)
        .no_intruder()
        .faults(spi_verify::faultsim::duplicate_only(CHAN, 1));
    verifier.find_attack(
        &multi::shared_key(CHAN, OBSERVE),
        &multi::abstract_protocol(CHAN, OBSERVE).expect("builds"),
    )
}

/// **Proposition 4, fault-tolerance edition.** `Pm3` (challenge-response)
/// stays a secure implementation of `Pm` under *every* single-fault
/// network schedule on the protocol channel: one drop, one duplication,
/// one reordering, or one replay-from-log.  Returns the per-schedule
/// verdicts (the schedule's display form first).
///
/// # Errors
///
/// Propagates exploration failures.
pub fn proposition_4_fault_tolerance(sessions: u32) -> Result<Vec<(String, Verdict)>, VerifyError> {
    let pm3 = multi::challenge_response(CHAN, OBSERVE);
    let pm = multi::abstract_protocol(CHAN, OBSERVE).expect("builds");
    let mut out = Vec::new();
    for schedule in spi_verify::faultsim::single_fault_schedules([CHAN], 1) {
        let label = schedule.to_string();
        let verifier = Verifier::new([CHAN])
            .sessions(sessions)
            .no_intruder()
            .faults(schedule);
        let report = verifier.check(&pm3, &pm)?;
        out.push((label, report.verdict));
    }
    Ok(out)
}

/// Convenience summary of a report's verdict for displays.
#[must_use]
pub fn verdict_line(report: &VerificationReport) -> String {
    match &report.verdict {
        Verdict::SecurelyImplements => format!(
            "securely implements the specification ({} concrete / {} abstract states, {} traces checked)",
            report.concrete_stats.states, report.abstract_stats.states, report.traces_checked
        ),
        Verdict::Attack(a) => format!(
            "ATTACK: distinguishing trace of length {} found",
            a.trace.len()
        ),
        Verdict::Inconclusive {
            exhausted,
            coverage,
        } => format!("INCONCLUSIVE: {exhausted} budget exhausted after {coverage}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposition_1_holds() {
        let audit = proposition_1().unwrap();
        assert!(audit.observations > 0, "B's continuation does run");
        assert!(audit.all_from_a, "every accepted message is A's");
        assert!(!audit.replay_found);
    }

    #[test]
    fn counterexample_p1_finds_the_paper_attack() {
        let attack = counterexample_p1().unwrap().expect("P1 is attackable");
        let text = attack.narration.join("\n");
        assert!(
            text.contains("E(A) → B") || text.contains("E( A"),
            "the injection is narrated: {text}"
        );
    }

    #[test]
    fn proposition_2_holds() {
        let report = proposition_2().unwrap();
        assert!(
            matches!(report.verdict, Verdict::SecurelyImplements),
            "{report:?}"
        );
    }

    #[test]
    fn duplicate_fault_alone_rediscovers_the_replay() {
        let attack = counterexample_pm2_faulty_network(2)
            .unwrap()
            .expect("a duplicating network suffices for the replay");
        let text = attack.narration.join("\n");
        assert!(
            text.contains("duplicate"),
            "the duplication appears in the narration: {text}"
        );
    }

    #[test]
    fn challenge_response_survives_every_single_fault() {
        for (schedule, verdict) in proposition_4_fault_tolerance(2).unwrap() {
            assert!(
                matches!(verdict, Verdict::SecurelyImplements),
                "Pm3 must stay verified under {schedule}: {verdict:?}"
            );
        }
    }
}
