//! The pluggable oracle suite.
//!
//! An [`Oracle`] is a differential property every well-formed
//! specification must satisfy: two engine paths that claim to compute the
//! same thing are run side by side and any disagreement is a [`Verdict::Fail`].
//! The built-in suite covers the nine seams where the workspace
//! maintains redundant machinery:
//!
//! * **roundtrip** — the exact printer against the parser;
//! * **workers** — the parallel frontier against the sequential engine;
//! * **hashkeys** — 128-bit hashed state keys against full canonical
//!   strings (`verify_keys`);
//! * **cowstate** — the copy-on-write stepper against the deep-clone
//!   reference stepper and the explorer's state count;
//! * **reduce** — the symmetry-quotiented, partial-order-reduced
//!   exploration (`--reduce full`) against the unreduced reference:
//!   reductions may collapse states, never observations, so the exact
//!   weak trace sets and weak barbs must be identical;
//! * **checkpoint** — a kill/resume campaign against an uninterrupted one;
//! * **server** — an in-process `spi serve` daemon against a direct
//!   [`spi_verify::Verifier`] run, including the cache-hit replay;
//! * **fleet** — a coordinator fronting two workers under a seeded
//!   chaos plan (a worker is killed mid-sequence) against the same
//!   direct run: re-dispatch and degradation must never change a byte
//!   of the verdict body;
//! * **engines** — the bisimulation decision procedure against
//!   the trace engine: the determinized tree's canonical trace language
//!   must equal the weak trace set of the same LTS, and both procedures
//!   must reach the same verdict on the (concrete, spec) question.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use spi_semantics::refstep::{reachable, CloneMode};
use spi_server::{
    coordinate, serve, verify_body, Client, CoordinatorOptions, ServerOptions, VerifierEngine,
};
use spi_verify::jsonlite::Json;
use spi_verify::{
    bisim_preorder_sound, bisim_traces, run_campaign, trace_preorder_sound, weak_traces, Budget,
    CampaignOptions, CampaignReport, ExploreOptions, Explorer, ReduceOptions, TraceSet, Verifier,
};
use spi_syntax::{parse, Process};

use crate::gen::TestCase;

/// What an oracle concluded about a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The differential property held.
    Pass,
    /// The case was out of the oracle's reach (too large, too few
    /// schedules, a budget would truncate the comparison) — not evidence
    /// either way.
    Skip(String),
    /// The property failed; the message describes the disagreement.
    Fail(String),
}

/// A deliberately planted bug, used to validate that the harness catches
/// and shrinks real defects.  Never active in normal runs.
///
/// Each bug is planted into one oracle ([`Injection::oracle`]), on the
/// public output of the engine that oracle checks, so the engines
/// themselves carry no planted-bug switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// `cowstate`: truncate the copy-on-write stepper's canonical state
    /// keys to this many bytes before deduplication — emulating a
    /// canonicalizer that collides distinct states, exactly the failure
    /// `verify_keys` exists to rule out.
    TruncateCanonKeys(usize),
    /// `reduce`: forget the symmetry quotient's merge witnesses (the
    /// reduced LTS's edge isomorphisms) before its weak traces are read,
    /// so states merged under a copy permutation are walked as if they
    /// were equal — a quotient that loses cross-copy name identity,
    /// exactly the overmerge the `reduce` oracle exists to rule out.
    SymNoPerm,
    /// `engines`: render every fresh name inside a ciphertext of the
    /// bisimulation engine's canonical traces as the unlinkable `n?@…`,
    /// as if the environment never analysed ciphertexts — an unsound
    /// knowledge closure, exactly the divergence the `engines` oracle
    /// exists to rule out.
    BisimSkipAnalysis,
}

impl Injection {
    /// Parses `truncate-keys:N`, `sym-no-perm` or `bisim-skip-analysis`.
    ///
    /// # Errors
    ///
    /// Returns a description of the expected syntax on anything else.
    pub fn parse(s: &str) -> Result<Injection, String> {
        if s == "sym-no-perm" {
            return Ok(Injection::SymNoPerm);
        }
        if s == "bisim-skip-analysis" {
            return Ok(Injection::BisimSkipAnalysis);
        }
        match s.split_once(':') {
            Some(("truncate-keys", n)) => n
                .parse::<usize>()
                .map(Injection::TruncateCanonKeys)
                .map_err(|_| format!("bad injection length `{n}` (want an integer)")),
            _ => Err(format!(
                "unknown injection `{s}` (valid: truncate-keys:N, sym-no-perm, \
                 bisim-skip-analysis)"
            )),
        }
    }

    /// The directive spelling, `truncate-keys:N`, `sym-no-perm` or
    /// `bisim-skip-analysis`.
    #[must_use]
    pub fn directive(&self) -> String {
        match self {
            Injection::TruncateCanonKeys(n) => format!("truncate-keys:{n}"),
            Injection::SymNoPerm => "sym-no-perm".to_string(),
            Injection::BisimSkipAnalysis => "bisim-skip-analysis".to_string(),
        }
    }

    /// The name of the oracle the bug is planted into; every other
    /// oracle runs unchanged under it.
    #[must_use]
    pub fn oracle(&self) -> &'static str {
        match self {
            Injection::TruncateCanonKeys(_) => "cowstate",
            Injection::SymNoPerm => "reduce",
            Injection::BisimSkipAnalysis => "engines",
        }
    }
}

/// Shared bounds and switches for a conformance run.
#[derive(Debug, Clone)]
pub struct OracleEnv {
    /// Replication unfold bound for every exploration.
    pub unfold_bound: u32,
    /// State cap for every exploration; comparisons that would be
    /// truncated by it are skipped, never half-checked.
    pub max_states: usize,
    /// The planted bug, if any.
    pub injection: Option<Injection>,
}

impl Default for OracleEnv {
    fn default() -> OracleEnv {
        OracleEnv {
            unfold_bound: 1,
            max_states: 4_000,
            injection: None,
        }
    }
}

/// A differential conformance property.
pub trait Oracle {
    /// The oracle's stable name (used in reports, CLI selection and
    /// reproducer directives).
    fn name(&self) -> &'static str;

    /// Run the oracle only on every `stride`-th case — for oracles whose
    /// single check is expensive (campaign resume).
    fn stride(&self) -> usize {
        1
    }

    /// Checks the property on one case.
    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict;
}

/// The built-in oracle suite, in documentation order.
#[must_use]
pub fn builtin_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(Roundtrip),
        Box::new(Workers),
        Box::new(HashKeys),
        Box::new(CowState),
        Box::new(Reduce),
        Box::new(Checkpoint),
        Box::new(Server),
        Box::new(Fleet),
        Box::new(Engines),
    ]
}

fn explore_opts(env: &OracleEnv) -> ExploreOptions {
    ExploreOptions {
        budget: Budget::unlimited().states(env.max_states),
        unfold_bound: env.unfold_bound,
        workers: 1,
        ..ExploreOptions::default()
    }
}

/// Parse/pretty-print round-trip: `parse(P.to_string()) == P` for both
/// the spec and the concrete system.
struct Roundtrip;

impl Oracle for Roundtrip {
    fn name(&self) -> &'static str {
        "roundtrip"
    }

    fn check(&self, case: &TestCase, _env: &OracleEnv) -> Verdict {
        for (which, p) in [("spec", &case.spec), ("concrete", &case.concrete)] {
            let printed = p.to_string();
            match parse(&printed) {
                Err(e) => {
                    return Verdict::Fail(format!(
                        "{which} does not reparse: {e} (printed as `{printed}`)"
                    ))
                }
                Ok(back) if &back != p => {
                    return Verdict::Fail(format!(
                        "{which} round-trip changed the AST (printed as `{printed}`)"
                    ))
                }
                Ok(_) => {}
            }
        }
        Verdict::Pass
    }
}

/// Explorer determinism: the [`spi_verify::Lts::fingerprint`] must be
/// identical for worker counts 1, 2 and 8 (fault schedule included when
/// the case carries one).
struct Workers;

impl Oracle for Workers {
    fn name(&self) -> &'static str {
        "workers"
    }

    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict {
        let mut prints = Vec::new();
        for workers in [1usize, 2, 8] {
            let opts = ExploreOptions {
                workers,
                faults: case.faults.clone(),
                ..explore_opts(env)
            };
            match Explorer::new(opts).explore(&case.spec) {
                Ok(lts) => prints.push((workers, lts.fingerprint())),
                Err(e) => return Verdict::Skip(format!("workers={workers}: {e}")),
            }
        }
        let base = prints[0].1;
        for (workers, fp) in &prints[1..] {
            if *fp != base {
                return Verdict::Fail(format!(
                    "LTS diverges across worker counts: workers=1 gives {base:032x}, \
                     workers={workers} gives {fp:032x}"
                ));
            }
        }
        Verdict::Pass
    }
}

/// Hashed-key interning against full canonical strings: exploring with
/// `verify_keys` must neither panic (a divergence panics by design) nor
/// change the resulting LTS.
struct HashKeys;

impl Oracle for HashKeys {
    fn name(&self) -> &'static str {
        "hashkeys"
    }

    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict {
        let plain = match Explorer::new(ExploreOptions {
            faults: case.faults.clone(),
            ..explore_opts(env)
        })
        .explore(&case.spec)
        {
            Ok(lts) => lts.fingerprint(),
            Err(e) => return Verdict::Skip(format!("exploration failed: {e}")),
        };
        let opts = ExploreOptions {
            verify_keys: true,
            faults: case.faults.clone(),
            ..explore_opts(env)
        };
        let spec = case.spec.clone();
        match catch_unwind(AssertUnwindSafe(move || {
            Explorer::new(opts).explore(&spec).map(|lts| lts.fingerprint())
        })) {
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                Verdict::Fail(format!(
                    "verify_keys panicked — hashed and string state keys disagree: {msg}"
                ))
            }
            Ok(Err(e)) => Verdict::Skip(format!("verify_keys exploration failed: {e}")),
            Ok(Ok(checked)) if checked != plain => Verdict::Fail(format!(
                "verify_keys changed the LTS: {plain:032x} without, {checked:032x} with"
            )),
            Ok(Ok(_)) => Verdict::Pass,
        }
    }
}

/// Copy-on-write stepping against deep-clone reference stepping (and,
/// when both sides are exhaustive, against the explorer's state count).
struct CowState;

impl Oracle for CowState {
    fn name(&self) -> &'static str {
        "cowstate"
    }

    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict {
        let cow = match reachable(&case.spec, env.unfold_bound, env.max_states, CloneMode::Cow) {
            Ok(r) => r,
            Err(e) => return Verdict::Skip(format!("cow stepper: {e}")),
        };
        let deep = match reachable(&case.spec, env.unfold_bound, env.max_states, CloneMode::Deep) {
            Ok(r) => r,
            Err(e) => return Verdict::Skip(format!("deep stepper: {e}")),
        };
        if !cow.complete || !deep.complete {
            return Verdict::Skip(format!(
                "state space truncated at {} states", env.max_states
            ));
        }
        // The planted canonicalizer bug makes the COW side dedup on
        // truncated keys, so any two states sharing a key prefix
        // collide into one — the exact failure shape of a canonical-form
        // collision, detected as a state-count mismatch.
        let cow_keys: std::collections::BTreeSet<String> = match env.injection {
            Some(Injection::TruncateCanonKeys(n)) => cow
                .keys
                .iter()
                .map(|k| k.chars().take(n).collect())
                .collect(),
            Some(Injection::SymNoPerm | Injection::BisimSkipAnalysis) | None => cow.keys,
        };
        if cow_keys.len() != deep.keys.len() {
            return Verdict::Fail(format!(
                "cow and deep-clone steppers disagree: {} vs {} reachable states",
                cow_keys.len(),
                deep.keys.len()
            ));
        }
        if env.injection.is_none() && cow_keys != deep.keys {
            let missing = deep.keys.difference(&cow_keys).count();
            return Verdict::Fail(format!(
                "cow and deep-clone steppers reach different state sets \
                 ({missing} keys differ out of {})",
                deep.keys.len()
            ));
        }
        // No faults and no intruder: the explorer dedups on a key
        // bijective with the config key, so its state count must match.
        if case.faults.is_none() {
            match Explorer::new(explore_opts(env)).explore(&case.spec) {
                Ok(lts) if lts.complete() && lts.states.len() != deep.keys.len() => {
                    return Verdict::Fail(format!(
                        "explorer reaches {} states but the reference stepper {}",
                        lts.states.len(),
                        deep.keys.len()
                    ));
                }
                _ => {}
            }
        }
        Verdict::Pass
    }
}

/// Reduced exploration against the unreduced reference: exploring under
/// the session-symmetry quotient plus ample-set partial-order reduction
/// (`--reduce full`) must preserve the *exact* weak trace set and the
/// weak barbs of the unreduced LTS — reductions may collapse states,
/// never observations.
struct Reduce;

impl Oracle for Reduce {
    fn name(&self) -> &'static str {
        "reduce"
    }

    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict {
        // The session quotient needs at least two replicated copies to
        // have anything to permute; deepen a shallower caller bound.
        let unfold = env.unfold_bound.max(2);
        // The unreduced arm tracks isomorphisms too, so both sides
        // extract the exact raw trace set — identity merges would
        // otherwise mix nonce lineages and the comparison would flag
        // bookkeeping, not semantics.
        let base = ExploreOptions {
            unfold_bound: unfold,
            faults: case.faults.clone(),
            track_isos: true,
            ..explore_opts(env)
        };
        let plain = match Explorer::new(base.clone()).explore(&case.spec) {
            Ok(lts) => lts,
            Err(e) => return Verdict::Skip(format!("unreduced exploration failed: {e}")),
        };
        if !plain.complete() {
            return Verdict::Skip(format!(
                "state space truncated at {} states",
                env.max_states
            ));
        }
        let reduced_opts = ExploreOptions {
            reduce: ReduceOptions::full(),
            ..base
        };
        let mut reduced = match Explorer::new(reduced_opts).explore(&case.spec) {
            Ok(lts) => lts,
            Err(e) => return Verdict::Skip(format!("reduced exploration failed: {e}")),
        };
        if env.injection == Some(Injection::SymNoPerm) {
            // The planted bug: the quotient forgets which permutation
            // witnessed each merge.
            reduced.edge_isos.clear();
        }
        if !reduced.complete() {
            return Verdict::Skip("reduced exploration truncated".to_string());
        }
        if reduced.states.len() > plain.states.len() {
            return Verdict::Fail(format!(
                "reduction grew the state space: {} reduced vs {} plain states",
                reduced.states.len(),
                plain.states.len()
            ));
        }
        const VISIBLE: usize = 4;
        let want = weak_traces(&plain, VISIBLE);
        let got = weak_traces(&reduced, VISIBLE);
        if got != want {
            let lost = want.difference(&got).count();
            let invented = got.difference(&want).count();
            return Verdict::Fail(format!(
                "reduced exploration changed the weak trace set: {lost} trace(s) lost, \
                 {invented} invented ({} reduced vs {} plain states)",
                reduced.states.len(),
                plain.states.len()
            ));
        }
        if reduced.weak_barbs() != plain.weak_barbs() {
            return Verdict::Fail(
                "reduced exploration changed the weak barbs".to_string(),
            );
        }
        Verdict::Pass
    }
}

/// Campaign kill/resume equality: interrupting a campaign halfway and
/// resuming from its checkpoint must reproduce the uninterrupted report.
struct Checkpoint;

impl Oracle for Checkpoint {
    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn stride(&self) -> usize {
        8
    }

    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict {
        // One channel keeps the schedule universe tiny: the property
        // under test is resume equality, not campaign coverage.
        let channels: Vec<&str> = case.channels.iter().map(String::as_str).take(1).collect();
        let mut opts = CampaignOptions::new(channels, 1);
        opts.explore = explore_opts(env);
        opts.max_visible = 4;
        let full = match run_campaign(&case.concrete, &case.spec, &opts) {
            Ok(r) => r,
            Err(e) => return Verdict::Skip(format!("campaign failed: {e}")),
        };
        if full.enumerated < 2 {
            return Verdict::Skip("fewer than two schedules to split".to_string());
        }
        let ckpt = std::env::temp_dir().join(format!(
            "spi-conformance-ckpt-{}-{}.json",
            case.seed, case.index
        ));
        let _ = std::fs::remove_file(&ckpt);
        opts.checkpoint_path = Some(ckpt.clone());
        opts.checkpoint_every = 1;
        opts.stop_after = Some(full.enumerated / 2);
        let first = run_campaign(&case.concrete, &case.spec, &opts);
        opts.stop_after = None;
        opts.resume = true;
        let second = run_campaign(&case.concrete, &case.spec, &opts);
        let _ = std::fs::remove_file(&ckpt);
        let (first, resumed) = match (first, second) {
            (Ok(f), Ok(s)) => (f, s),
            (Err(e), _) | (_, Err(e)) => {
                return Verdict::Skip(format!("checkpointed campaign failed: {e}"))
            }
        };
        if !first.interrupted {
            return Verdict::Skip("campaign finished before the kill point".to_string());
        }
        let verdict = compare_reports(&full, &resumed);
        if let Verdict::Pass = verdict {
            if resumed.resumed == 0 {
                return Verdict::Fail(
                    "resumed campaign replayed nothing from the checkpoint".to_string(),
                );
            }
        }
        verdict
    }
}

/// The verify question the `server` and `fleet` oracles put to a node:
/// the body a direct [`Verifier`] run encodes, and the request line
/// that asks for it over the wire with the same knobs.  `Err` is the
/// verdict when the direct side cannot answer.
fn served_question(case: &TestCase, env: &OracleEnv) -> Result<(String, String), Verdict> {
    // The wire parses the budget spelling with the same
    // Budget::parse_spec the direct side uses.
    let budget_spec = format!("states={}", env.max_states.min(2_000));
    let Ok(budget) = Budget::parse_spec(&budget_spec) else {
        return Err(Verdict::Skip("budget spec did not parse".into()));
    };
    let visible = 4usize;
    let verifier = Verifier::new(case.channels.iter().map(String::as_str))
        .sessions(env.unfold_bound)
        .max_visible(visible)
        .budget(budget)
        .workers(1)
        .no_intruder();
    let report = verifier
        .check(&case.concrete, &case.spec)
        .map_err(|e| Verdict::Skip(format!("direct check failed: {e}")))?;
    let request = Json::Obj(vec![
        ("op".to_string(), Json::str("verify")),
        ("concrete".into(), Json::str(case.concrete.to_string())),
        ("abstract".into(), Json::str(case.spec.to_string())),
        (
            "channels".into(),
            Json::str_arr(case.channels.iter().cloned()),
        ),
        ("sessions".into(), Json::count(env.unfold_bound as usize)),
        ("visible".into(), Json::count(visible)),
        ("budget".into(), Json::str(budget_spec)),
        ("intruder".into(), Json::Bool(false)),
    ])
    .render_compact();
    Ok((verify_body(&report).render_compact(), request))
}

/// A one-thread worker on an ephemeral port.
fn start_worker() -> Result<spi_server::ServerHandle, String> {
    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_bytes: 1 << 20,
        snapshot: None,
        queue_cap: 8,
        default_timeout_secs: None,
        ..ServerOptions::default()
    };
    serve(Arc::new(VerifierEngine { explore_workers: Some(1) }), opts)
}

/// Served verdicts against direct ones: an in-process `spi serve`
/// daemon must answer a verify request with exactly the body a direct
/// [`Verifier`] run encodes — and answer the resubmission from its
/// cache, byte-identically.
struct Server;

impl Server {
    fn check_inner(case: &TestCase, env: &OracleEnv) -> (Verdict, Option<spi_server::ServerHandle>) {
        let (direct, request) = match served_question(case, env) {
            Ok(question) => question,
            Err(verdict) => return (verdict, None),
        };
        let handle = match start_worker() {
            Ok(h) => h,
            Err(e) => return (Verdict::Skip(format!("cannot start server: {e}")), None),
        };
        let verdict = Server::roundtrips(&handle, &request, &direct);
        (verdict, Some(handle))
    }

    fn roundtrips(handle: &spi_server::ServerHandle, request: &str, direct: &str) -> Verdict {
        let mut client = match Client::connect(&handle.addr().to_string()) {
            Ok(c) => c,
            Err(e) => return Verdict::Skip(format!("cannot connect: {e}")),
        };
        let mut served = Vec::new();
        for round in ["fresh", "cached"] {
            let line = match client.roundtrip(request) {
                Ok(l) => l,
                Err(e) => return Verdict::Skip(format!("{round} roundtrip failed: {e}")),
            };
            let response = match Json::parse(&line) {
                Ok(v) => v,
                Err(e) => {
                    return Verdict::Fail(format!("{round} response is not JSON: {e} (`{line}`)"))
                }
            };
            match response.get("status").and_then(Json::as_str) {
                Some("ok") => {}
                Some("error") => {
                    // The served engine refused what the direct run
                    // answered — unless the direct run would refuse too,
                    // which never reaches here (direct errors skip).
                    return Verdict::Fail(format!(
                        "server answered error where the direct run succeeded: {}",
                        response
                            .get("reason")
                            .and_then(Json::as_str)
                            .unwrap_or("<no reason>")
                    ));
                }
                other => return Verdict::Skip(format!("{round} response status {other:?}")),
            }
            let cached = response.get("cached").and_then(Json::as_bool);
            if round == "cached" && cached != Some(true) {
                return Verdict::Fail("the resubmission was not served from the cache".into());
            }
            let Some(body) = response.get("body") else {
                return Verdict::Fail(format!("{round} response has no body"));
            };
            served.push(body.render_compact());
        }
        if served[0] != direct {
            return Verdict::Fail(format!(
                "served verdict differs from the direct run:\n  served: {}\n  direct: {direct}",
                served[0]
            ));
        }
        if served[1] != served[0] {
            return Verdict::Fail(
                "the cache-hit replay differs from the fresh answer".to_string(),
            );
        }
        Verdict::Pass
    }
}

impl Oracle for Server {
    fn name(&self) -> &'static str {
        "server"
    }

    fn stride(&self) -> usize {
        4
    }

    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict {
        let (verdict, handle) = Server::check_inner(case, env);
        if let Some(h) = handle {
            h.join();
        }
        verdict
    }
}

/// Fleet verdicts against direct ones: a coordinator fronting two
/// workers — with a case-seeded chaos plan killing one of them early in
/// the request sequence — must answer every repetition of a verify
/// request with exactly the body a direct [`Verifier`] run encodes.
/// Routing, re-dispatch past the dead worker, cache hits on the
/// survivor, and local degradation are all invisible in the bytes.
struct Fleet;

impl Fleet {
    fn check_inner(case: &TestCase, env: &OracleEnv) -> Verdict {
        let (direct, request) = match served_question(case, env) {
            Ok(question) => question,
            Err(verdict) => return verdict,
        };
        let workers = [start_worker(), start_worker()];
        let mut handles = Vec::new();
        for w in workers {
            match w {
                Ok(h) => handles.push(h),
                Err(e) => return Verdict::Skip(format!("cannot start worker: {e}")),
            }
        }
        let coordinator = match coordinate(
            Arc::new(VerifierEngine { explore_workers: Some(1) }),
            ServerOptions {
                addr: "127.0.0.1:0".into(),
                ..ServerOptions::default()
            },
            CoordinatorOptions {
                // A short horizon puts the plan's opening worker kill
                // within the first two requests, deterministically per
                // case.
                chaos: Some(case.seed ^ case.index),
                chaos_horizon: 6,
                fail_after_ms: 60_000,
                connect_timeout_ms: 500,
                read_timeout_ms: 30_000,
                hedge_after_ms: 5_000,
                retry_rounds: 2,
                ..CoordinatorOptions::default()
            },
        ) {
            Ok(h) => h,
            Err(e) => {
                for h in handles {
                    h.join();
                }
                return Verdict::Skip(format!("cannot start coordinator: {e}"));
            }
        };
        let verdict = Fleet::rides_out_chaos(&coordinator, &handles, &request, &direct);
        coordinator.join();
        for h in handles {
            h.join();
        }
        verdict
    }

    fn rides_out_chaos(
        coordinator: &spi_server::ServerHandle,
        workers: &[spi_server::ServerHandle],
        request: &str,
        direct: &str,
    ) -> Verdict {
        let addr = coordinator.addr().to_string();
        let mut client = match Client::connect(&addr) {
            Ok(c) => c,
            Err(e) => return Verdict::Skip(format!("cannot connect: {e}")),
        };
        for w in workers {
            let join = format!(r#"{{"op":"join","addr":"{}"}}"#, w.addr());
            if client.roundtrip(&join).is_err() {
                return Verdict::Skip("cannot join workers".into());
            }
        }
        // Enough repetitions to straddle the chaos plan's worker kill:
        // fresh compute, survivor re-dispatch, and cache hits must all
        // produce the same bytes.
        for round in 0..4 {
            let line = match client.roundtrip(request) {
                Ok(l) => l,
                Err(e) => return Verdict::Skip(format!("round {round} roundtrip failed: {e}")),
            };
            let response = match Json::parse(&line) {
                Ok(v) => v,
                Err(e) => {
                    return Verdict::Fail(format!(
                        "round {round} response is not JSON: {e} (`{line}`)"
                    ))
                }
            };
            match response.get("status").and_then(Json::as_str) {
                Some("ok") => {}
                Some("error") => {
                    return Verdict::Fail(format!(
                        "fleet answered error where the direct run succeeded: {}",
                        response
                            .get("reason")
                            .and_then(Json::as_str)
                            .unwrap_or("<no reason>")
                    ));
                }
                other => return Verdict::Skip(format!("round {round} response status {other:?}")),
            }
            let Some(body) = response.get("body") else {
                return Verdict::Fail(format!("round {round} response has no body"));
            };
            if body.render_compact() != direct {
                return Verdict::Fail(format!(
                    "fleet verdict differs from the direct run in round {round}:\n  \
                     fleet:  {}\n  direct: {direct}",
                    body.render_compact()
                ));
            }
        }
        Verdict::Pass
    }
}

impl Oracle for Fleet {
    fn name(&self) -> &'static str {
        "fleet"
    }

    fn stride(&self) -> usize {
        8
    }

    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict {
        Fleet::check_inner(case, env)
    }
}

/// The bisimulation decision procedure against the trace engine.
///
/// Two comparisons per case, both over iso-tracked explorations:
///
/// 1. **trace language** — the canonical trace set the bisimulation
///    engine's determinized configuration tree generates must equal the
///    weak trace set of the same LTS, string for string.  This is the
///    sensitive surface: a rendering that loses names learned by
///    analysis (the planted `bisim-skip-analysis` bug) shows on a
///    *single* system;
/// 2. **verdict** — both procedures must classify the (concrete, spec)
///    question identically, the same cross-check `--engine both` runs.
struct Engines;

impl Oracle for Engines {
    fn name(&self) -> &'static str {
        "engines"
    }

    fn check(&self, case: &TestCase, env: &OracleEnv) -> Verdict {
        const VISIBLE: usize = 4;
        // Iso tracking on both arms: the bisimulation engine canonizes
        // through the explorer's isomorphisms, so identity merges would
        // compare bookkeeping, not semantics.
        let base = ExploreOptions {
            faults: case.faults.clone(),
            track_isos: true,
            ..explore_opts(env)
        };
        let spec_lts = match Explorer::new(base.clone()).explore(&case.spec) {
            Ok(lts) => lts,
            Err(e) => return Verdict::Skip(format!("spec exploration failed: {e}")),
        };
        if !spec_lts.complete() {
            return Verdict::Skip(format!(
                "state space truncated at {} states",
                env.max_states
            ));
        }
        let want = weak_traces(&spec_lts, VISIBLE);
        let mut got = bisim_traces(&spec_lts, VISIBLE);
        if env.injection == Some(Injection::BisimSkipAnalysis) {
            got = skip_analysis(&got);
        }
        if got != want {
            let lost = want.difference(&got).count();
            let invented = got.difference(&want).count();
            return Verdict::Fail(format!(
                "the bisimulation engine's canonical trace language differs from the \
                 trace engine's: {lost} trace(s) lost, {invented} invented \
                 (over {} traces)",
                want.len()
            ));
        }
        let concrete_lts = match Explorer::new(base).explore(&case.concrete) {
            Ok(lts) => lts,
            Err(e) => return Verdict::Skip(format!("concrete exploration failed: {e}")),
        };
        let t = trace_preorder_sound(&concrete_lts, &spec_lts, VISIBLE);
        let b = bisim_preorder_sound(&concrete_lts, &spec_lts, VISIBLE);
        if std::mem::discriminant(&t) != std::mem::discriminant(&b) {
            return Verdict::Fail(format!(
                "decision procedures disagree on the verdict: \
                 trace engine says {t:?}, bisimulation engine says {b:?}"
            ));
        }
        Verdict::Pass
    }
}

/// The `bisim-skip-analysis` planted bug, applied to canonical traces:
/// every fresh name inside a ciphertext, body or key, loses its index and
/// renders as `n?@<creator>`, so its occurrences can no longer be linked.
fn skip_analysis(traces: &TraceSet) -> TraceSet {
    traces
        .iter()
        .map(|trace| {
            trace
                .iter()
                .map(|event| {
                    let (chan, mut rest) = event.split_once('!').expect("canonical event");
                    let mut out = format!("{chan}!");
                    opaque_term(&mut rest, false, &mut out);
                    out.push_str(rest);
                    out
                })
                .collect()
        })
        .collect()
}

/// Copies one canonical term (the grammar `TraceRenamer` writes) from the
/// front of `s` to `out`, rewriting fresh names to `n?` when `opaque` or
/// under a ciphertext.
fn opaque_term(s: &mut &str, opaque: bool, out: &mut String) {
    fn take(s: &mut &str, n: usize, out: &mut String) {
        out.push_str(&s[..n]);
        *s = &s[n..];
    }
    /// A leaf (or creator stamp) runs up to the next delimiter.
    fn leaf(s: &mut &str, out: &mut String) {
        let end = s[1..].find([',', ')', '}', '#']).map_or(s.len(), |i| i + 1);
        take(s, end, out);
    }
    match s.as_bytes().first() {
        Some(b'(') => {
            take(s, 1, out);
            opaque_term(s, opaque, out);
            take(s, 1, out);
            opaque_term(s, opaque, out);
            take(s, 1, out);
            leaf(s, out);
        }
        Some(b'{') => {
            take(s, 1, out);
            while !s.starts_with('}') {
                opaque_term(s, true, out);
                if s.starts_with(',') {
                    take(s, 1, out);
                }
            }
            take(s, 1, out);
            opaque_term(s, true, out);
            leaf(s, out);
        }
        Some(b'n') if opaque => {
            let at = s.find('@').expect("fresh names carry a creator");
            out.push_str("n?");
            *s = &s[at..];
            leaf(s, out);
        }
        _ => leaf(s, out),
    }
}

fn compare_reports(full: &CampaignReport, resumed: &CampaignReport) -> Verdict {
    if full.identity != resumed.identity {
        return Verdict::Fail(format!(
            "campaign identity changed across resume: {} vs {}",
            full.identity, resumed.identity
        ));
    }
    if full.enumerated != resumed.enumerated || full.tally() != resumed.tally() {
        return Verdict::Fail(format!(
            "resumed campaign disagrees with uninterrupted run: \
             {}/{:?} vs {}/{:?} (enumerated/tally)",
            full.enumerated,
            full.tally(),
            resumed.enumerated,
            resumed.tally()
        ));
    }
    for (f, r) in full.results.iter().zip(&resumed.results) {
        if f.key != r.key || f.outcome != r.outcome {
            return Verdict::Fail(format!(
                "schedule `{}` decided differently after resume",
                f.key
            ));
        }
    }
    Verdict::Pass
}

/// Looks up a built-in oracle by name.
#[must_use]
pub fn oracle_by_name(name: &str) -> Option<Box<dyn Oracle>> {
    builtin_oracles().into_iter().find(|o| o.name() == name)
}

/// The names of the built-in oracles, in documentation order.
#[must_use]
pub fn builtin_names() -> Vec<&'static str> {
    builtin_oracles().iter().map(|o| o.name()).collect()
}

/// Convenience used by shrinking and replay: run one oracle on a
/// standalone process (spec = concrete, no erosion).
#[must_use]
pub fn check_process(
    oracle: &dyn Oracle,
    process: &Process,
    faults: Option<spi_semantics::FaultSpec>,
    channels: &[String],
    env: &OracleEnv,
) -> Verdict {
    let case = TestCase {
        seed: 0,
        index: 0,
        spec: process.clone(),
        concrete: process.clone(),
        channels: channels.to_vec(),
        faults,
    };
    oracle.check(&case, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_server_oracle_is_builtin() {
        assert!(builtin_names().contains(&"server"));
        assert!(oracle_by_name("server").is_some());
    }

    #[test]
    fn the_fleet_oracle_is_builtin() {
        assert!(builtin_names().contains(&"fleet"));
        assert!(oracle_by_name("fleet").is_some());
    }

    #[test]
    fn the_reduce_oracle_is_builtin() {
        assert!(builtin_names().contains(&"reduce"));
        assert!(oracle_by_name("reduce").is_some());
    }

    #[test]
    fn the_reduce_oracle_passes_on_replicated_sessions() {
        let p = parse("!((^m)(c<m> | c(x).observe<x>))").expect("parses");
        let verdict = check_process(&Reduce, &p, None, &["c".to_string()], &OracleEnv::default());
        assert_eq!(verdict, Verdict::Pass);
    }

    #[test]
    fn the_reduce_oracle_catches_the_conflating_pseudo_quotient() {
        // Three interleaved sessions whose nonces cross copies: walking
        // merged states without their merge permutations reads them in
        // the wrong copy's coordinates, and the mixed nonce lineages
        // show up as lost and invented traces.
        let p = parse("!((^m)(^n)(c<m>.c<n> | c(x).c(y).d<x>.d<y>)) | d(z)").expect("parses");
        let env = OracleEnv {
            unfold_bound: 3,
            max_states: 60_000,
            injection: Some(Injection::SymNoPerm),
        };
        let verdict = check_process(
            &Reduce,
            &p,
            None,
            &["c".to_string(), "d".to_string()],
            &env,
        );
        assert!(
            matches!(verdict, Verdict::Fail(_)),
            "planted conflation went uncaught: {verdict:?}"
        );
    }

    #[test]
    fn the_reduce_oracle_catches_forgotten_merge_witnesses() {
        // Two copies each output a pair they created: the quotient merges
        // "copy 0 fired" with "copy 1 fired", and only the merge's
        // isomorphism maps the pair's creator stamp back to the copy
        // that really created it.
        let p = parse("!d<(s, m)>").expect("parses");
        let channels = ["d".to_string()];
        let clean = check_process(&Reduce, &p, None, &channels, &OracleEnv::default());
        assert_eq!(clean, Verdict::Pass);
        let env = OracleEnv {
            injection: Some(Injection::SymNoPerm),
            ..OracleEnv::default()
        };
        let verdict = check_process(&Reduce, &p, None, &channels, &env);
        assert!(
            matches!(verdict, Verdict::Fail(_)),
            "planted witness loss went uncaught: {verdict:?}"
        );
    }

    #[test]
    fn skipped_analysis_unlinks_fresh_names_under_encryption_only() {
        let trace = |events: &[&str]| events.iter().map(ToString::to_string).collect::<Vec<_>>();
        let traces: TraceSet = [trace(&[
            "c!({n0@01,f:a}n1@0#01,n0@01)#-",
            "d!{(n2@1,f:b)#1}{f:k}f:h#0#1",
        ])]
        .into_iter()
        .collect();
        let want: TraceSet = [trace(&[
            "c!({n?@01,f:a}n?@0#01,n0@01)#-",
            "d!{(n?@1,f:b)#1}{f:k}f:h#0#1",
        ])]
        .into_iter()
        .collect();
        assert_eq!(skip_analysis(&traces), want);
    }

    #[test]
    fn injection_directives_round_trip() {
        for inj in [
            Injection::TruncateCanonKeys(2),
            Injection::SymNoPerm,
            Injection::BisimSkipAnalysis,
        ] {
            assert_eq!(Injection::parse(&inj.directive()), Ok(inj));
            assert!(builtin_names().contains(&inj.oracle()), "{inj:?}");
        }
        assert!(Injection::parse("sym-no-perm:3").is_err());
        assert!(Injection::parse("bisim-skip-analysis:1").is_err());
    }

    #[test]
    fn the_engines_oracle_is_builtin() {
        assert!(builtin_names().contains(&"engines"));
        assert!(oracle_by_name("engines").is_some());
    }

    #[test]
    fn the_engines_oracle_passes_on_encrypted_sessions() {
        let p = parse("(^k)(^m)(c<{m}k> | c(x).observe<x>)").expect("parses");
        let verdict =
            check_process(&Engines, &p, None, &["c".to_string()], &OracleEnv::default());
        assert_eq!(verdict, Verdict::Pass);
    }

    #[test]
    fn the_engines_oracle_catches_the_skipped_analysis_rule() {
        // Two fresh names travel under the same key: with full analysis
        // the canonical traces link each payload to its own nonce index,
        // but the under-closing hedge leaves everything under an
        // encryption opaque — the degraded renderings diverge from the
        // trace engine's on a single system.
        let p = parse("(^k)(^m)(^n)(c<{m}k>.c<{n}k>)").expect("parses");
        let env = OracleEnv {
            injection: Some(Injection::BisimSkipAnalysis),
            ..OracleEnv::default()
        };
        let verdict = check_process(&Engines, &p, None, &["c".to_string()], &env);
        assert!(
            matches!(verdict, Verdict::Fail(_)),
            "planted under-closure went uncaught: {verdict:?}"
        );
        // Without the injection the same process passes.
        let verdict = check_process(
            &Engines,
            &p,
            None,
            &["c".to_string()],
            &OracleEnv::default(),
        );
        assert_eq!(verdict, Verdict::Pass);
    }

    #[test]
    fn the_fleet_oracle_agrees_under_chaos() {
        let p = parse("(^m)c<m>|c(x).observe<x>").expect("parses");
        let verdict = check_process(
            &Fleet,
            &p,
            None,
            &["c".to_string()],
            &OracleEnv::default(),
        );
        assert_eq!(verdict, Verdict::Pass);
    }

    #[test]
    fn the_server_oracle_agrees_with_the_direct_run() {
        let p = parse("(^m)c<m>|c(x).observe<x>").expect("parses");
        let verdict = check_process(
            &Server,
            &p,
            None,
            &["c".to_string()],
            &OracleEnv::default(),
        );
        assert_eq!(verdict, Verdict::Pass);
    }
}
