//! The newline-delimited JSON wire protocol.
//!
//! Every request is one line holding one JSON object with an `"op"`
//! field; every response is one line holding one JSON envelope:
//!
//! ```text
//! {"status":"ok","op":"verify","spec_digest":"fnv:…","cached":false,"body":{…}}
//! {"status":"error","op":"verify","reason":"…"}
//! {"status":"rejected","op":"verify","reason":"queue full (8 pending)"}
//! ```
//!
//! Job ops (`verify`, `campaign`, `conformance-replay`) carry their
//! specs inline (`"concrete"`, `"abstract"`, `"spec"`) or as
//! server-side paths (`"concrete_path"`, …), plus the same knobs the
//! CLI exposes: `channels`, `sessions`, `visible`, `budget` (the
//! `dimension=count` spelling of [`Budget::parse_spec`]), `faults`
//! (comma-separated clauses), `intruder`, `faults_depth`, `oracles`,
//! `reduce` (`none|symmetry|por|full`), `engine` (`trace|bisim|both`),
//! `timeout_secs`, and `no_cache`.  Campaign jobs may carry a
//! `"unit":{"offset":N,"count":M}` work-unit restriction (how a fleet
//! coordinator shards one campaign), plus three execution-only knobs
//! that never enter the content digest: `tenant` (the quota-accounting
//! id, defaulting to the peer address), `deadline_ms` (a relative
//! wall-clock deadline folded into the server-side cut-off), and
//! `progress_ms` (ask for `{"status":"progress",…}` heartbeat lines at
//! that interval while the job runs; the final reply is always the
//! first non-progress line).  Control ops are `ping`, `stats`,
//! `shutdown`, `join` (worker registration/heartbeat, optionally
//! announcing the worker's `capacity`), `leave` (a
//! worker announcing drain, optionally handing off its cache), `gossip`
//! (cache-warming pull), and `gossip-push` (digest-guarded cache
//! handoff from a coordinator).
//!
//! The verify/campaign **body encoders** here are the single source of
//! the JSON result shapes: the daemon, the cache snapshot, and the
//! CLI's `--format json` all call [`verify_body`] / [`campaign_body`].

use spi_semantics::{FaultClause, FaultSpec};
use spi_syntax::Process;
use spi_verify::jsonlite::Json;
use spi_verify::{
    Budget, CampaignReport, CoverageStats, Engine, ExploreStats, ReduceOptions, Verdict,
    VerificationReport,
};

use crate::digest::digest;

/// The job kinds a server can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A Definition 4 secure-implementation check.
    Verify,
    /// A fault-schedule campaign with shrinking.
    Campaign,
    /// Replay a generated spec through the conformance oracle suite
    /// (requires the full engine assembled in the `spi` binary).
    ConformanceReplay,
}

impl Mode {
    /// The wire keyword (also the `op` echoed in responses).
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Mode::Verify => "verify",
            Mode::Campaign => "campaign",
            Mode::ConformanceReplay => "conformance-replay",
        }
    }
}

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Counter dump.
    Stats,
    /// Begin a graceful drain.
    Shutdown,
    /// A worker announcing itself to a coordinator (the body is the
    /// worker's advertised address).  Doubles as the heartbeat: workers
    /// re-send it on a timer and the coordinator refreshes liveness.
    Join {
        /// The address the coordinator should dial the worker back on.
        addr: String,
        /// How many jobs the worker admits before it sheds (its pool
        /// plus its queue), when it says.
        capacity: Option<usize>,
    },
    /// A cache-warming pull: "send me your hottest cache entries".  The
    /// response body reuses the identity-digest-guarded snapshot codec,
    /// so a forged or torn transfer is refused by the receiver.
    Gossip,
    /// A worker announcing a graceful drain to its coordinator, so the
    /// ring can reassign its shard *before* the process dies.  The
    /// optional `cache` carries the worker's entries in the gossip
    /// encoding for proactive handoff to the next ring candidates.
    Leave {
        /// The advertised address the worker joined under.
        addr: String,
        /// The departing worker's cache in the gossip encoding
        /// (identity-digest-guarded), if it chose to hand entries off.
        cache: Option<Json>,
    },
    /// A digest-guarded cache handoff: "absorb these entries".  The
    /// receiver verifies the gossip identity digest before merging, so
    /// a forged or torn push merges nothing.
    GossipPush {
        /// The pushed entries in the gossip encoding.
        cache: Json,
    },
    /// A verification job.
    Job(Box<JobRequest>),
}

/// A fully resolved job: spec sources loaded, options defaulted.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// What to run.
    pub mode: Mode,
    /// Concrete protocol source (also the spec for conformance replay).
    pub concrete: String,
    /// Abstract specification source (empty for conformance replay).
    pub abstract_spec: String,
    /// The channel set `C` of Definition 4.
    pub channels: Vec<String>,
    /// Replication unfold bound.
    pub sessions: u32,
    /// Visible-trace depth.
    pub visible: usize,
    /// Exploration resource budget.
    pub budget: Budget,
    /// Baseline fault model, if any.
    pub faults: Option<FaultSpec>,
    /// Whether the most-general intruder participates.
    pub intruder: bool,
    /// Campaign schedule depth.
    pub faults_depth: usize,
    /// Conformance-replay oracle selection (empty = the default suite).
    pub oracles: Vec<String>,
    /// Which state-space reductions the explorations run under.  Part
    /// of the canonical description (the reduced and unreduced state
    /// spaces answer the same question, but cached bodies carry
    /// reduction statistics, so the digests must differ).
    pub reduce: ReduceOptions,
    /// Which decision procedure(s) answer the job.  Part of the
    /// canonical description — the trace and bisimulation engines agree
    /// on verdicts, but cached bodies differ (engine tag, early-reject
    /// counters), so a bisim result must never be served for a trace
    /// request or vice versa.  Old clients never send the field; it
    /// defaults to [`Engine::Trace`] and stays out of the digest there,
    /// so pre-engine cache entries remain addressable.
    pub engine: Engine,
    /// Per-request wall-clock limit.
    pub timeout_secs: Option<u64>,
    /// Bypass the result cache (both lookup and fill).
    pub no_cache: bool,
    /// The quota-accounting tenant id.  Execution-only: it decides
    /// *whether* the server admits the job, never what the answer is,
    /// so it stays out of the content digest.  Defaults server-side to
    /// the peer address when absent.
    pub tenant: Option<String>,
    /// Relative wall-clock deadline in milliseconds, folded into the
    /// server-side cut-off as `min(timeout_secs, deadline_ms)`.
    /// Execution-only, like `timeout_secs`.
    pub deadline_ms: Option<u64>,
    /// Heartbeat interval in milliseconds: while the job runs, the
    /// server emits `{"status":"progress",…}` lines at this cadence.
    /// `None` (or 0) streams nothing.  Execution-only.
    pub progress_ms: Option<u64>,
    /// Campaign work unit: decide only the schedules at enumeration
    /// indices `[offset, offset + count)`.  This is how a fleet
    /// coordinator shards one campaign across workers; units are part
    /// of the canonical description, so each unit's result is
    /// content-addressed independently and re-dispatching a unit after
    /// a worker death is idempotent.
    pub unit: Option<(usize, usize)>,
}

/// Parses either a bare process or a `def …/system …` program file —
/// the same acceptance rule as the CLI — rendering errors with source
/// context.
///
/// # Errors
///
/// Returns the rendered syntax error.
pub fn parse_source(src: &str) -> Result<Process, String> {
    let result = if src
        .lines()
        .any(|l| l.trim_start().starts_with("def ") || l.trim_start().starts_with("system"))
    {
        spi_syntax::parse_program(src).map(|prog| prog.system)
    } else {
        spi_syntax::parse(src)
    };
    result.map_err(|e| e.render(src))
}

impl JobRequest {
    /// The canonical description this job is content-addressed by:
    /// specs parsed and re-printed (so formatting differences vanish),
    /// the budget in its canonical spelling, the fault schedule in its
    /// canonical key.  Execution-only knobs (`timeout_secs`,
    /// `no_cache`, `tenant`, `deadline_ms`, `progress_ms`) are
    /// excluded — they change *when* (and whether) an answer arrives,
    /// never *what* it is.
    ///
    /// # Errors
    ///
    /// Fails when a spec does not parse (such requests are never
    /// cached).
    pub fn canonical(&self) -> Result<String, String> {
        use std::fmt::Write as _;
        let mut desc = format!("serve-v1|{}", self.mode.keyword());
        let concrete = parse_source(&self.concrete)?;
        let _ = write!(desc, "|{concrete}");
        if self.mode != Mode::ConformanceReplay {
            let spec = parse_source(&self.abstract_spec)?;
            let _ = write!(desc, "|{spec}");
        }
        let _ = write!(
            desc,
            "|C={}|sessions={}|visible={}|budget={}|intruder={}|faults={}",
            self.channels.join(","),
            self.sessions,
            self.visible,
            self.budget.canonical_spec(),
            self.intruder,
            self.faults
                .as_ref()
                .map(FaultSpec::canonical_key)
                .unwrap_or_default(),
        );
        // Appended only when non-default, so pre-reduction digests (and
        // the caches keyed by them) stay valid.
        if self.reduce.enabled() {
            let _ = write!(desc, "|reduce={}", self.reduce.mode());
        }
        // Same back-compat rule: the default engine leaves the digest
        // byte-identical to pre-engine requests.
        if self.engine != Engine::Trace {
            let _ = write!(desc, "|engine={}", self.engine.mode());
        }
        match self.mode {
            Mode::Campaign => {
                let _ = write!(desc, "|depth={}", self.faults_depth);
            }
            Mode::ConformanceReplay => {
                let _ = write!(desc, "|oracles={}", self.oracles.join(","));
            }
            Mode::Verify => {}
        }
        if let Some((offset, count)) = self.unit {
            let _ = write!(desc, "|unit={offset}+{count}");
        }
        Ok(desc)
    }

    /// The content digest of [`JobRequest::canonical`] — the cache key
    /// and the `spec_digest` echoed in responses.
    ///
    /// # Errors
    ///
    /// Fails when a spec does not parse.
    pub fn digest(&self) -> Result<String, String> {
        Ok(digest(&self.canonical()?))
    }

    /// A copy of this job restricted to one campaign work unit.
    #[must_use]
    pub fn with_unit(&self, offset: usize, count: usize) -> JobRequest {
        let mut job = self.clone();
        job.unit = Some((offset, count));
        job
    }

    /// Re-renders the job as a request object a coordinator can put
    /// back on the wire when dispatching to a worker.  Round-trips
    /// through [`parse_request`] to an equivalent job (same digest).
    #[must_use]
    pub fn wire_json(&self) -> Json {
        let mut fields = vec![("op".to_string(), Json::str(self.mode.keyword()))];
        if self.mode == Mode::ConformanceReplay {
            fields.push(("spec".into(), Json::str(self.concrete.clone())));
        } else {
            fields.push(("concrete".into(), Json::str(self.concrete.clone())));
            fields.push(("abstract".into(), Json::str(self.abstract_spec.clone())));
        }
        fields.push((
            "channels".into(),
            Json::str_arr(self.channels.iter().cloned()),
        ));
        fields.push(("sessions".into(), Json::Int(i64::from(self.sessions))));
        fields.push(("visible".into(), Json::count(self.visible)));
        fields.push(("budget".into(), Json::str(self.budget.canonical_spec())));
        if let Some(faults) = &self.faults {
            let clauses = faults
                .clauses
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            fields.push(("faults".into(), Json::str(clauses)));
        }
        fields.push(("intruder".into(), Json::Bool(self.intruder)));
        if self.reduce.enabled() {
            fields.push(("reduce".into(), Json::str(self.reduce.mode())));
        }
        if self.engine != Engine::Trace {
            fields.push(("engine".into(), Json::str(self.engine.mode())));
        }
        fields.push(("faults_depth".into(), Json::count(self.faults_depth)));
        if !self.oracles.is_empty() {
            fields.push(("oracles".into(), Json::str_arr(self.oracles.iter().cloned())));
        }
        if let Some(secs) = self.timeout_secs {
            fields.push((
                "timeout_secs".into(),
                Json::Int(i64::try_from(secs).unwrap_or(i64::MAX)),
            ));
        }
        if self.no_cache {
            fields.push(("no_cache".into(), Json::Bool(true)));
        }
        if let Some(tenant) = &self.tenant {
            fields.push(("tenant".into(), Json::str(tenant.clone())));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push((
                "deadline_ms".into(),
                Json::Int(i64::try_from(ms).unwrap_or(i64::MAX)),
            ));
        }
        if let Some(ms) = self.progress_ms {
            fields.push((
                "progress_ms".into(),
                Json::Int(i64::try_from(ms).unwrap_or(i64::MAX)),
            ));
        }
        if let Some((offset, count)) = self.unit {
            fields.push((
                "unit".into(),
                Json::Obj(vec![
                    ("offset".to_string(), Json::count(offset)),
                    ("count".to_string(), Json::count(count)),
                ]),
            ));
        }
        Json::Obj(fields)
    }
}

fn get_usize(v: &Json, key: &str, default: usize) -> Result<usize, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_int()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| format!("{key:?} expects a non-negative integer")),
    }
}

fn get_bool(v: &Json, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_bool()
            .ok_or_else(|| format!("{key:?} expects a boolean")),
    }
}

/// Resolves a spec given inline (`key`) or as a server-side file
/// (`key_path`).
fn get_source(v: &Json, key: &str, path_key: &str) -> Result<String, String> {
    if let Some(text) = v.get(key).and_then(Json::as_str) {
        return Ok(text.to_string());
    }
    if let Some(path) = v.get(path_key).and_then(Json::as_str) {
        return std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    }
    Err(format!("request needs {key:?} or {path_key:?}"))
}

fn get_str_arr(v: &Json, key: &str) -> Result<Vec<String>, String> {
    let Some(j) = v.get(key) else {
        return Ok(Vec::new());
    };
    let items = j
        .as_arr()
        .ok_or_else(|| format!("{key:?} expects an array of strings"))?;
    items
        .iter()
        .map(|i| {
            i.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("{key:?} expects an array of strings"))
        })
        .collect()
}

/// Parses the comma-separated fault-clause spelling shared with the
/// CLI's `--fault`.
fn parse_faults(spec: &str) -> Result<Option<FaultSpec>, String> {
    let clauses = spec
        .split(',')
        .filter(|c| !c.is_empty())
        .map(|c| c.parse::<FaultClause>().map_err(|e| e.reason))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((!clauses.is_empty()).then(|| FaultSpec::new(clauses)))
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for an `error` response: malformed JSON,
/// an unknown op, a missing spec, or a bad option.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line.trim())?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs a string \"op\" field")?;
    let mode = match op {
        "ping" => return Ok(Request::Ping),
        "stats" => return Ok(Request::Stats),
        "shutdown" => return Ok(Request::Shutdown),
        "gossip" => return Ok(Request::Gossip),
        "join" => {
            let addr = v
                .get("addr")
                .and_then(Json::as_str)
                .ok_or("\"join\" needs a string \"addr\" field")?;
            return Ok(Request::Join {
                addr: addr.to_string(),
                capacity: v.get("capacity").map(|_| get_usize(&v, "capacity", 0)).transpose()?,
            });
        }
        "leave" => {
            let addr = v
                .get("addr")
                .and_then(Json::as_str)
                .ok_or("\"leave\" needs a string \"addr\" field")?;
            return Ok(Request::Leave {
                addr: addr.to_string(),
                cache: v.get("cache").cloned(),
            });
        }
        "gossip-push" => {
            let cache = v
                .get("cache")
                .cloned()
                .ok_or("\"gossip-push\" needs a \"cache\" object")?;
            return Ok(Request::GossipPush { cache });
        }
        "verify" => Mode::Verify,
        "campaign" => Mode::Campaign,
        "conformance-replay" => Mode::ConformanceReplay,
        other => {
            return Err(format!(
                "unknown op {other:?} (expected verify|campaign|conformance-replay|ping|stats|join|leave|gossip|gossip-push|shutdown)"
            ))
        }
    };
    let (concrete, abstract_spec) = if mode == Mode::ConformanceReplay {
        (get_source(&v, "spec", "spec_path")?, String::new())
    } else {
        (
            get_source(&v, "concrete", "concrete_path")?,
            get_source(&v, "abstract", "abstract_path")?,
        )
    };
    let channels = {
        let listed = get_str_arr(&v, "channels")?;
        if listed.is_empty() {
            vec!["c".to_string()]
        } else {
            listed
        }
    };
    let budget = match v.get("budget") {
        None => Budget::default(),
        Some(j) => Budget::parse_spec(
            j.as_str()
                .ok_or("\"budget\" expects a dimension=count string")?,
        )?,
    };
    let faults = match v.get("faults") {
        None => None,
        Some(j) => parse_faults(
            j.as_str()
                .ok_or("\"faults\" expects a clause-list string")?,
        )?,
    };
    let get_ms = |key: &'static str| -> Result<Option<u64>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(j) => j
                .as_int()
                .and_then(|n| u64::try_from(n).ok())
                .map(Some)
                .ok_or_else(|| format!("{key:?} expects a non-negative integer")),
        }
    };
    let timeout_secs = get_ms("timeout_secs")?;
    let deadline_ms = get_ms("deadline_ms")?;
    let progress_ms = get_ms("progress_ms")?;
    let tenant = match v.get("tenant") {
        None => None,
        Some(j) => Some(
            j.as_str()
                .map(str::to_owned)
                .ok_or("\"tenant\" expects a string")?,
        ),
    };
    let reduce = match v.get("reduce") {
        None => ReduceOptions::none(),
        Some(j) => {
            let s = j
                .as_str()
                .ok_or("\"reduce\" expects none|symmetry|por|full")?;
            ReduceOptions::parse(s)
                .ok_or_else(|| format!("\"reduce\" expects none|symmetry|por|full, got {s:?}"))?
        }
    };
    let engine = match v.get("engine") {
        None => Engine::Trace,
        Some(j) => {
            let s = j.as_str().ok_or("\"engine\" expects trace|bisim|both")?;
            Engine::parse(s)
                .ok_or_else(|| format!("\"engine\" expects trace|bisim|both, got {s:?}"))?
        }
    };
    let unit = match v.get("unit") {
        None => None,
        Some(u) => {
            let field = |key: &str| {
                u.get(key)
                    .and_then(Json::as_int)
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| format!("\"unit\" expects {{\"offset\":N,\"count\":M}}, bad {key:?}"))
            };
            Some((field("offset")?, field("count")?))
        }
    };
    Ok(Request::Job(Box::new(JobRequest {
        mode,
        concrete,
        abstract_spec,
        channels,
        sessions: u32::try_from(get_usize(&v, "sessions", 2)?)
            .map_err(|_| "\"sessions\" is out of range".to_string())?,
        visible: get_usize(&v, "visible", 6)?,
        budget,
        faults,
        intruder: get_bool(&v, "intruder", true)?,
        faults_depth: get_usize(&v, "faults_depth", 2)?,
        oracles: get_str_arr(&v, "oracles")?,
        reduce,
        engine,
        timeout_secs,
        no_cache: get_bool(&v, "no_cache", false)?,
        tenant,
        deadline_ms,
        progress_ms,
        unit,
    })))
}

/// The success envelope.  `digest`/`cached` are present for job
/// responses and absent for control ops.
#[must_use]
pub fn ok_response(op: &str, spec_digest: Option<&str>, cached: bool, body: Json) -> Json {
    let mut fields = vec![
        ("status".to_string(), Json::str("ok")),
        ("op".to_string(), Json::str(op)),
    ];
    if let Some(d) = spec_digest {
        fields.push(("spec_digest".into(), Json::str(d)));
        fields.push(("cached".into(), Json::Bool(cached)));
    }
    fields.push(("body".into(), body));
    Json::Obj(fields)
}

/// The failure envelope (bad request, unparseable spec, engine error).
#[must_use]
pub fn error_response(op: &str, reason: &str) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::str("error")),
        ("op".into(), Json::str(op)),
        ("reason".into(), Json::str(reason)),
    ])
}

/// The admission-control envelope: the server is overloaded or
/// draining, and the client should retry elsewhere/later (HTTP 429 in
/// spirit).
#[must_use]
pub fn rejected_response(op: &str, reason: &str) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::str("rejected")),
        ("op".into(), Json::str(op)),
        ("reason".into(), Json::str(reason)),
    ])
}

/// A rejection with a `Retry-After`-style hint: how long (in
/// milliseconds) the client should back off before retrying.  The shape
/// is [`rejected_response`] plus a `retry_after_ms` field, so existing
/// clients that only look at `status`/`reason` keep working.
#[must_use]
pub fn shed_response(op: &str, reason: &str, retry_after_ms: u64) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::str("rejected")),
        ("op".into(), Json::str(op)),
        ("reason".into(), Json::str(reason)),
        (
            "retry_after_ms".into(),
            Json::Int(i64::try_from(retry_after_ms).unwrap_or(i64::MAX)),
        ),
    ])
}

/// A streaming heartbeat emitted while a job runs (requested via
/// `progress_ms`).  Clients must keep reading: the final reply is the
/// first line whose `status` is not `"progress"`.
#[must_use]
pub fn progress_response(
    op: &str,
    spec_digest: Option<&str>,
    states_explored: u64,
    schedules_classified: u64,
) -> Json {
    let mut fields = vec![
        ("status".to_string(), Json::str("progress")),
        ("op".to_string(), Json::str(op)),
    ];
    if let Some(d) = spec_digest {
        fields.push(("spec_digest".into(), Json::str(d)));
    }
    fields.push((
        "states_explored".into(),
        Json::Int(i64::try_from(states_explored).unwrap_or(i64::MAX)),
    ));
    fields.push((
        "schedules_classified".into(),
        Json::Int(i64::try_from(schedules_classified).unwrap_or(i64::MAX)),
    ));
    Json::Obj(fields)
}

fn coverage_json(c: &CoverageStats) -> Json {
    Json::Obj(vec![
        ("states".into(), Json::count(c.states)),
        ("transitions".into(), Json::count(c.transitions)),
        ("expanded".into(), Json::count(c.expanded)),
        ("frontier".into(), Json::count(c.frontier)),
        ("steps".into(), Json::count(c.steps)),
    ])
}

/// The JSON body of a verify result — the one shape shared by
/// `spi verify --format json`, the daemon, and its cache.
#[must_use]
pub fn verify_body(report: &VerificationReport) -> Json {
    let mut fields = Vec::new();
    match &report.verdict {
        Verdict::SecurelyImplements => {
            fields.push(("verdict".to_string(), Json::str("securely-implements")));
        }
        Verdict::Attack(attack) => {
            fields.push(("verdict".to_string(), Json::str("attack")));
            fields.push((
                "attack".into(),
                Json::Obj(vec![
                    ("trace".into(), Json::str_arr(attack.trace.iter().cloned())),
                    (
                        "narration".into(),
                        Json::str_arr(attack.narration.iter().cloned()),
                    ),
                ]),
            ));
        }
        Verdict::Inconclusive {
            exhausted,
            coverage,
        } => {
            fields.push(("verdict".to_string(), Json::str("inconclusive")));
            fields.push(("exhausted".into(), Json::str(exhausted.to_string())));
            fields.push(("coverage".into(), coverage_json(coverage)));
        }
    }
    fields.push((
        "concrete_states".into(),
        Json::count(report.concrete_stats.states),
    ));
    fields.push((
        "abstract_states".into(),
        Json::count(report.abstract_stats.states),
    ));
    fields.push(("traces_checked".into(), Json::count(report.traces_checked)));
    // Emitted only for the non-default engines, so pre-engine cached
    // bodies and fresh trace-engine bodies stay byte-identical.
    if report.engine != Engine::Trace {
        fields.push(("engine".into(), Json::str(report.engine.mode())));
    }
    if report.reduce.enabled() {
        let (c, a) = (&report.concrete_stats, &report.abstract_stats);
        let sum = |field: fn(&ExploreStats) -> u64| {
            Json::Int(i64::try_from(field(c) + field(a)).unwrap_or(i64::MAX))
        };
        fields.push((
            "reduction".into(),
            Json::Obj(vec![
                ("mode".into(), Json::str(report.reduce.mode())),
                ("states_quotiented".into(), sum(|s| s.states_quotiented)),
                ("por_pruned".into(), sum(|s| s.por_pruned)),
                (
                    "sym_canonicalizations".into(),
                    sum(|s| s.sym_canonicalizations),
                ),
                ("sym_candidates".into(), sum(|s| s.sym_candidates)),
                ("sym_overflows".into(), sum(|s| s.sym_overflows)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// The JSON body of a campaign result: the tally plus every
/// per-schedule record in the same encoding campaign checkpoints use.
#[must_use]
pub fn campaign_body(report: &CampaignReport) -> Json {
    let (attacks, survives, inconclusive) = report.tally();
    let mut fields = vec![
        ("enumerated".into(), Json::count(report.enumerated)),
        ("attacks".into(), Json::count(attacks)),
        ("survives".into(), Json::count(survives)),
        ("inconclusive".into(), Json::count(inconclusive)),
        ("interrupted".into(), Json::Bool(report.interrupted)),
        ("identity".into(), Json::str(report.identity.clone())),
    ];
    // Nonzero only under `--engine both`; omitted otherwise so existing
    // cached bodies keep their exact shape.
    if report.early_rejects > 0 {
        fields.push((
            "early_rejects".into(),
            Json::Int(i64::try_from(report.early_rejects).unwrap_or(i64::MAX)),
        ));
    }
    fields.push((
        "results".into(),
        Json::Arr(
            report
                .results
                .iter()
                .map(spi_verify::ScheduleResult::to_json)
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    const VERIFY_LINE: &str = r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1}"#;

    fn job(line: &str) -> JobRequest {
        match parse_request(line).unwrap() {
            Request::Job(j) => *j,
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"op":"verify"}"#)
            .unwrap_err()
            .contains("concrete"));
        assert!(parse_request(
            r#"{"op":"verify","concrete":"0","abstract":"0","sessions":"three"}"#
        )
        .is_err());
        assert!(parse_request(r#"{"op":"verify","concrete":"0","abstract":"0","budget":"bogus=1"}"#)
            .is_err());
    }

    #[test]
    fn job_defaults_match_the_cli() {
        let j = job(VERIFY_LINE);
        assert_eq!(j.mode, Mode::Verify);
        assert_eq!(j.channels, ["c"]);
        assert_eq!(j.sessions, 1);
        assert_eq!(j.visible, 6);
        assert_eq!(j.budget, Budget::default());
        assert!(j.intruder);
        assert!(j.faults.is_none());
        assert!(!j.no_cache);
        assert!(j.timeout_secs.is_none());
    }

    #[test]
    fn digest_is_formatting_insensitive_but_option_sensitive() {
        let a = job(VERIFY_LINE);
        // Same processes, spelled with different whitespace.
        let b = job(
            r#"{"op":"verify","concrete":"(^m) c<m> | c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1}"#,
        );
        assert_eq!(a.digest().unwrap(), b.digest().unwrap());
        // Timeout and no_cache do not change the question...
        let c = job(
            r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1,"timeout_secs":5,"no_cache":true}"#,
        );
        assert_eq!(a.digest().unwrap(), c.digest().unwrap());
        // ...and neither do the admission/streaming knobs: a tenant id,
        // a deadline, or a heartbeat request must hit the same cache key.
        let h = job(
            r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1,"tenant":"alice","deadline_ms":2500,"progress_ms":100}"#,
        );
        assert_eq!(a.digest().unwrap(), h.digest().unwrap());
        // ...but every semantic knob does.
        let d = job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":2"));
        assert_ne!(a.digest().unwrap(), d.digest().unwrap());
        let e = job(
            r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1,"faults":"drop:c:1"}"#,
        );
        assert_ne!(a.digest().unwrap(), e.digest().unwrap());
        // The reduction mode is a semantic knob too (cached bodies carry
        // reduction statistics)...
        let f = job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"reduce\":\"full\""));
        assert_ne!(a.digest().unwrap(), f.digest().unwrap());
        // ...but `reduce: none` spelled explicitly is the default digest.
        let g = job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"reduce\":\"none\""));
        assert_eq!(a.digest().unwrap(), g.digest().unwrap());
        assert!(parse_request(
            &VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"reduce\":\"bogus\"")
        )
        .is_err());
    }

    #[test]
    fn engine_field_round_trips_and_keeps_old_digests() {
        // Old clients never send "engine": the job defaults to the
        // trace engine and its digest is byte-identical to a request
        // that spells the default out — warm caches survive the upgrade.
        let old = job(VERIFY_LINE);
        assert_eq!(old.engine, Engine::Trace);
        assert!(
            !old.canonical().unwrap().contains("engine"),
            "default engine stays out of the canonical description"
        );
        let explicit =
            job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"engine\":\"trace\""));
        assert_eq!(old.digest().unwrap(), explicit.digest().unwrap());
        assert!(
            !old.wire_json().render_compact().contains("engine"),
            "the default engine is not re-emitted on the wire"
        );

        // The non-default engines are semantic knobs: distinct digests
        // (a bisim body must never be served for a trace request), and
        // the field survives a wire round-trip.
        for spelled in ["bisim", "both"] {
            let line = VERIFY_LINE.replace(
                "\"sessions\":1",
                &format!("\"sessions\":1,\"engine\":\"{spelled}\""),
            );
            let j = job(&line);
            assert_eq!(j.engine.mode(), spelled);
            assert_ne!(old.digest().unwrap(), j.digest().unwrap());
            let back = job(&j.wire_json().render_compact());
            assert_eq!(back.engine, j.engine);
            assert_eq!(back.digest().unwrap(), j.digest().unwrap());
        }
        let bisim =
            job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"engine\":\"bisim\""));
        let both =
            job(&VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"engine\":\"both\""));
        assert_ne!(bisim.digest().unwrap(), both.digest().unwrap());
        assert!(parse_request(
            &VERIFY_LINE.replace("\"sessions\":1", "\"sessions\":1,\"engine\":\"quantum\"")
        )
        .unwrap_err()
        .contains("trace|bisim|both"));
    }

    #[test]
    fn fleet_ops_and_units_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"gossip"}"#).unwrap(),
            Request::Gossip
        ));
        match parse_request(r#"{"op":"join","addr":"127.0.0.1:7777"}"#).unwrap() {
            Request::Join { addr, capacity } => {
                assert_eq!(addr, "127.0.0.1:7777");
                assert_eq!(capacity, None);
            }
            other => panic!("expected join, got {other:?}"),
        }
        match parse_request(r#"{"op":"join","addr":"w","capacity":18}"#).unwrap() {
            Request::Join { capacity, .. } => assert_eq!(capacity, Some(18)),
            other => panic!("expected join, got {other:?}"),
        }
        assert!(parse_request(r#"{"op":"join"}"#).is_err(), "addr required");
        let j = job(
            r#"{"op":"campaign","concrete":"0","abstract":"0","unit":{"offset":4,"count":2}}"#,
        );
        assert_eq!(j.unit, Some((4, 2)));
        assert!(
            parse_request(r#"{"op":"campaign","concrete":"0","abstract":"0","unit":{"offset":4}}"#)
                .is_err(),
            "count required"
        );
    }

    #[test]
    fn units_are_content_addressed_separately() {
        let whole = job(r#"{"op":"campaign","concrete":"0","abstract":"0"}"#);
        let a = whole.with_unit(0, 5);
        let b = whole.with_unit(5, 5);
        assert_ne!(whole.digest().unwrap(), a.digest().unwrap());
        assert_ne!(a.digest().unwrap(), b.digest().unwrap());
        // Re-dispatch of the same unit hits the same cache key.
        assert_eq!(a.digest().unwrap(), whole.with_unit(0, 5).digest().unwrap());
    }

    #[test]
    fn wire_json_round_trips_to_the_same_digest() {
        for line in [
            VERIFY_LINE,
            r#"{"op":"campaign","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","faults_depth":1,"unit":{"offset":1,"count":3},"budget":"states=50","faults":"drop:c:1,replay:c:2","intruder":false,"timeout_secs":9,"no_cache":true,"tenant":"batch-7","deadline_ms":60000,"progress_ms":200}"#,
            r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":2,"reduce":"full"}"#,
        ] {
            let original = job(line);
            let rendered = original.wire_json().render_compact();
            assert!(!rendered.contains('\n'));
            let back = job(&rendered);
            assert_eq!(original.digest().unwrap(), back.digest().unwrap());
            assert_eq!(original.unit, back.unit);
            assert_eq!(original.timeout_secs, back.timeout_secs);
            assert_eq!(original.no_cache, back.no_cache);
            assert_eq!(original.tenant, back.tenant);
            assert_eq!(original.deadline_ms, back.deadline_ms);
            assert_eq!(original.progress_ms, back.progress_ms);
        }
    }

    #[test]
    fn leave_and_gossip_push_parse() {
        match parse_request(r#"{"op":"leave","addr":"127.0.0.1:7777"}"#).unwrap() {
            Request::Leave { addr, cache } => {
                assert_eq!(addr, "127.0.0.1:7777");
                assert!(cache.is_none());
            }
            other => panic!("expected leave, got {other:?}"),
        }
        match parse_request(
            r#"{"op":"leave","addr":"127.0.0.1:7777","cache":{"version":1,"identity":"fnv:x","entries":[]}}"#,
        )
        .unwrap()
        {
            Request::Leave { cache, .. } => assert!(cache.is_some()),
            other => panic!("expected leave, got {other:?}"),
        }
        assert!(parse_request(r#"{"op":"leave"}"#).is_err(), "addr required");
        match parse_request(
            r#"{"op":"gossip-push","cache":{"version":1,"identity":"fnv:x","entries":[]}}"#,
        )
        .unwrap()
        {
            Request::GossipPush { cache } => assert!(cache.get("entries").is_some()),
            other => panic!("expected gossip-push, got {other:?}"),
        }
        assert!(
            parse_request(r#"{"op":"gossip-push"}"#).is_err(),
            "cache required"
        );
    }

    #[test]
    fn streaming_and_shed_envelopes() {
        let p = progress_response("campaign", Some("fnv:0123"), 42, 7).render_compact();
        let back = Json::parse(&p).unwrap();
        assert_eq!(back.get("status").and_then(Json::as_str), Some("progress"));
        assert_eq!(back.get("states_explored").and_then(Json::as_int), Some(42));
        assert_eq!(
            back.get("schedules_classified").and_then(Json::as_int),
            Some(7)
        );
        let s = shed_response("verify", "queue full (8 pending)", 250).render_compact();
        let back = Json::parse(&s).unwrap();
        assert_eq!(back.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(back.get("retry_after_ms").and_then(Json::as_int), Some(250));
    }

    #[test]
    fn unparseable_specs_fail_the_digest() {
        let j = job(r#"{"op":"verify","concrete":"(((","abstract":"0"}"#);
        assert!(j.digest().is_err());
    }

    #[test]
    fn envelopes_render_compact_single_line() {
        let ok = ok_response("verify", Some("fnv:0123"), true, Json::Obj(vec![]));
        let line = ok.render_compact();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"cached\":true"), "{line}");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(back.get("spec_digest").and_then(Json::as_str), Some("fnv:0123"));
        let err = error_response("verify", "boom").render_compact();
        assert!(Json::parse(&err).unwrap().get("reason").is_some());
        let rej = rejected_response("verify", "queue full").render_compact();
        assert_eq!(
            Json::parse(&rej).unwrap().get("status").and_then(Json::as_str),
            Some("rejected")
        );
    }
}
