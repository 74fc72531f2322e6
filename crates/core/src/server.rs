//! Embedding glue for the `spi serve` daemon.
//!
//! The daemon itself lives in the `spi-server` crate (re-exported
//! here); this module adds [`FullEngine`], the execution back-end the
//! `spi` binary plugs in.  It extends [`VerifierEngine`] (verify and
//! campaign jobs) with the third job kind, `conformance-replay`: a
//! served spec is run through the named conformance oracles exactly as
//! `spi conformance` would, and the per-oracle verdicts come back as
//! the response body.

pub use spi_server::{
    campaign_body, coordinate, error_response, job_flags, job_reply, ok_response, oneshot,
    parse_request, parse_source, progress_response, pull_from, push_to, rejected_response,
    request_op, serve, shed_response, verify_body, ChaosEvent, ChaosPlan, Client,
    CoordinatorOptions, Engine,
    EngineOutcome, JobRequest, Membership, Mode, Priority, Request, NodeHandle, ResultCache, Ring, RunControl, ServerHandle, ServerOptions, Singleflight,
    TenantQuotas, VerifierEngine,
};
pub use spi_server::gossip::gossip_body;

use std::sync::Mutex;

use spi_conformance::{
    builtin_names, check_process, oracle_by_name, OracleEnv, Verdict as OracleVerdict,
};
use spi_verify::jsonlite::Json;

/// The full engine: verify and campaign via [`VerifierEngine`], plus
/// conformance replay through the oracle suite.
#[derive(Debug, Default)]
pub struct FullEngine {
    verifier: VerifierEngine,
    /// The checkpoint oracle round-trips through a temp file derived
    /// from the case's `(seed, index)`; replayed specs all carry
    /// `(0, 0)`, so concurrent replays must not interleave.
    replay_lock: Mutex<()>,
}

impl FullEngine {
    /// A full engine with the given per-exploration worker count
    /// (`None` = the verifier default).
    #[must_use]
    pub fn new(explore_workers: Option<usize>) -> FullEngine {
        FullEngine {
            verifier: VerifierEngine { explore_workers },
            replay_lock: Mutex::new(()),
        }
    }

    fn replay(&self, job: &JobRequest, ctl: &RunControl) -> EngineOutcome {
        let process = match parse_source(&job.concrete) {
            Ok(p) => p,
            Err(e) => return EngineOutcome::error(e),
        };
        let names: Vec<String> = if job.oracles.is_empty() {
            builtin_names().iter().map(ToString::to_string).collect()
        } else {
            job.oracles.clone()
        };
        let env = OracleEnv {
            max_states: job.budget.max_states.min(4_000),
            ..OracleEnv::default()
        };
        let _guard = self.replay_lock.lock().expect("replay lock");
        let mut verdicts = Vec::new();
        let mut failures = 0usize;
        for name in &names {
            if ctl.tripped() {
                return EngineOutcome::error("replay cancelled while draining");
            }
            let Some(oracle) = oracle_by_name(name) else {
                return EngineOutcome::error(format!(
                    "unknown oracle {name:?} (valid: {})",
                    builtin_names().join(", ")
                ));
            };
            let verdict = check_process(&*oracle, &process, job.faults.clone(), &job.channels, &env);
            let (word, detail) = match &verdict {
                OracleVerdict::Pass => ("pass", String::new()),
                OracleVerdict::Skip(why) => ("skip", why.clone()),
                OracleVerdict::Fail(why) => {
                    failures += 1;
                    ("fail", why.clone())
                }
            };
            let mut fields = vec![
                ("name".to_string(), Json::str(name.clone())),
                ("verdict".to_string(), Json::str(word)),
            ];
            if !detail.is_empty() {
                fields.push(("detail".into(), Json::str(detail)));
            }
            verdicts.push(Json::Obj(fields));
        }
        EngineOutcome {
            cacheable: !ctl.tripped(),
            body: Ok(Json::Obj(vec![
                ("oracles".into(), Json::Arr(verdicts)),
                ("failures".into(), Json::count(failures)),
            ])),
        }
    }
}

impl Engine for FullEngine {
    fn run(&self, job: &JobRequest, ctl: &RunControl) -> EngineOutcome {
        match job.mode {
            Mode::ConformanceReplay => self.replay(job, ctl),
            Mode::Verify | Mode::Campaign => self.verifier.run(job, ctl),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn ctl() -> RunControl {
        RunControl {
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
            progress: None,
        }
    }

    fn replay_job(spec: &str, oracles: &[&str]) -> JobRequest {
        JobRequest {
            mode: Mode::ConformanceReplay,
            concrete: spec.to_string(),
            abstract_spec: String::new(),
            channels: vec!["c".into()],
            sessions: 1,
            visible: 4,
            budget: spi_verify::Budget::default(),
            faults: None,
            intruder: true,
            faults_depth: 1,
            oracles: oracles.iter().map(ToString::to_string).collect(),
            timeout_secs: None,
            no_cache: false,
            tenant: None,
            deadline_ms: None,
            progress_ms: None,
            unit: None,
            reduce: spi_verify::ReduceOptions::none(),
            engine: spi_verify::Engine::Trace,
        }
    }

    #[test]
    fn replays_a_spec_through_named_oracles() {
        let engine = FullEngine::new(Some(1));
        let outcome = engine.run(
            &replay_job("(^m)c<m>|c(x).observe<x>", &["roundtrip", "cowstate"]),
            &ctl(),
        );
        let body = outcome.body.expect("replay succeeds");
        assert!(outcome.cacheable);
        let oracles = body.get("oracles").and_then(Json::as_arr).unwrap();
        assert_eq!(oracles.len(), 2);
        assert_eq!(
            oracles[0].get("verdict").and_then(Json::as_str),
            Some("pass")
        );
        assert_eq!(body.get("failures").and_then(Json::as_int), Some(0));
    }

    #[test]
    fn unknown_oracles_and_bad_specs_error() {
        let engine = FullEngine::new(Some(1));
        let bad = engine.run(&replay_job("0", &["frobnicate"]), &ctl());
        assert!(bad.body.unwrap_err().contains("unknown oracle"));
        let unparsed = engine.run(&replay_job("(((", &[]), &ctl());
        assert!(unparsed.body.is_err());
    }

    #[test]
    fn verify_jobs_still_go_through_the_verifier_engine() {
        let engine = FullEngine::new(Some(1));
        let mut job = replay_job("(^m)c<m>|c(x).observe<x>", &[]);
        job.mode = Mode::Verify;
        job.abstract_spec.clone_from(&job.concrete);
        let outcome = engine.run(&job, &ctl());
        let body = outcome.body.expect("verify succeeds");
        assert_eq!(
            body.get("verdict").and_then(Json::as_str),
            Some("securely-implements")
        );
    }
}
