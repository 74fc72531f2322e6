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
//! server-side paths (`"concrete_path"`, …), plus job options, each
//! one row of `JOB_OPTIONS` (wire key, CLI flag, default, digest rule,
//! parser, [`Verifier`] setter): `channels`, `sessions`, `visible`,
//! `budget` (`dimension=count` pairs over the default 200 000-state
//! budget), `intruder`, `faults` (comma-separated clauses on channels
//! of C), `reduce`, `engine`, `faults_depth`, `oracles`, a campaign's
//! `"unit":{"offset":N,"count":M}` (how a fleet coordinator shards it),
//! and, never in the content digest, `timeout_secs`, `no_cache`,
//! `tenant` (quota accounting), `deadline_ms` and `progress_ms`
//! (heartbeat interval).  The wire, the CLI's shared flags, the digest
//! and the verifier the service builds all walk that table.  An option
//! one job kind reads (`faults_depth` and `unit`: campaigns; `oracles`:
//! conformance replay) is refused by the other ops.  Control ops are
//! `ping`, `stats`, `shutdown`, `join` (worker registration/heartbeat,
//! optionally announcing the worker's `capacity`), `leave` (a worker
//! announcing drain, optionally handing off its cache), `gossip`
//! (cache-warming pull), and `gossip-push` (digest-guarded cache
//! handoff from a coordinator).
//!
//! The verify/campaign **body encoders** here are the single source of
//! the JSON result shapes: the daemon, the cache snapshot, and the
//! CLI's `--format json` all call [`verify_body`] / [`campaign_body`],
//! and a coordinator reads unit bodies back with [`campaign_report`].

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::OnceLock;

use spi_semantics::{FaultClause, FaultKind, FaultSpec};
use spi_syntax::Process;
use spi_verify::jsonlite::Json;
use spi_verify::{
    Budget, CampaignReport, CoverageStats, Engine, ExploreStats, ReduceOptions, ScheduleResult,
    Verdict, VerificationReport, Verifier,
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

/// A fully resolved job: spec sources loaded, options defaulted.  Each
/// option field is described by its row of `JOB_OPTIONS`.
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
    /// Which state-space reductions the explorations run under.
    pub reduce: ReduceOptions,
    /// Which decision procedure(s) answer the job.
    pub engine: Engine,
    /// Per-request wall-clock limit.
    pub timeout_secs: Option<u64>,
    /// Bypass the result cache (both lookup and fill).
    pub no_cache: bool,
    /// The quota-accounting tenant id; the server defaults it to the
    /// peer address.
    pub tenant: Option<String>,
    /// Relative wall-clock deadline in milliseconds, folded into the
    /// server-side cut-off as `min(timeout_secs, deadline_ms)`.
    pub deadline_ms: Option<u64>,
    /// Heartbeat interval in milliseconds: while the job runs, the
    /// server emits `{"status":"progress",…}` lines at this cadence.
    /// `None` (or 0) streams nothing.
    pub progress_ms: Option<u64>,
    /// Campaign work unit: decide only the schedules at enumeration
    /// indices `[offset, offset + count)`.  This is how a fleet
    /// coordinator shards one campaign across workers; each unit's
    /// result is content-addressed independently, so re-dispatching a
    /// unit after a worker death is idempotent.
    pub unit: Option<(usize, usize)>,
}

/// When a job option enters the content digest, and under which label.
#[derive(Clone, Copy)]
enum InDigest {
    /// Always.
    Always(&'static str),
    /// Always, spelled by the function rather than as the option's
    /// text.
    Spelled(&'static str, fn(&JobRequest, &mut String)),
    /// Only when it differs from the default, so digests from before
    /// the option existed (and the caches keyed by them) stay valid.
    NonDefault(&'static str),
    /// Never: the option changes when (or whether) an answer arrives,
    /// never what it is.
    Never,
}

/// The JSON type an option takes on the wire.  Each maps to and from
/// the option's text spelling, the one its parser reads.
#[derive(Clone, Copy)]
enum Shape {
    /// An integer, spelled in decimal.
    Int,
    /// A boolean, spelled `true` or `false`.
    Bool,
    /// A string, spelled as itself.
    Str,
    /// An array of strings, spelled comma-separated; empty is absent.
    List,
    /// `{"offset":N,"count":M}`, spelled `N+M`.
    Unit,
}

impl Shape {
    /// A request line's wire value in the text spelling.
    fn text<'a>(self, key: &str, value: &'a Json) -> Result<Option<Cow<'a, str>>, String> {
        let int = |k: &str| value.get(k).and_then(Json::as_int);
        let text = match (self, value) {
            (Shape::Int, Json::Int(n)) => Some(Cow::Owned(n.to_string())),
            (Shape::Bool, Json::Bool(b)) => Some(Cow::Borrowed(if *b { "true" } else { "false" })),
            (Shape::Str, Json::Str(s)) => Some(Cow::Borrowed(s.as_str())),
            (Shape::List, Json::Arr(items)) if items.is_empty() => return Ok(None),
            (Shape::List, Json::Arr(items)) => {
                let strs: Option<Vec<&str>> = items.iter().map(Json::as_str).collect();
                strs.map(|strs| Cow::Owned(strs.join(",")))
            }
            (Shape::Unit, Json::Obj(_)) => match (int("offset"), int("count")) {
                (Some(offset), Some(count)) => Some(Cow::Owned(format!("{offset}+{count}"))),
                _ => None,
            },
            _ => None,
        };
        let expects = match self {
            Shape::Int => "a non-negative integer",
            Shape::Bool => "a boolean",
            Shape::Str => "a string",
            Shape::List => "an array of strings",
            Shape::Unit => "{\"offset\":N,\"count\":M}",
        };
        text.map(Some).ok_or_else(|| format!("{key:?} expects {expects}"))
    }

    /// The wire value of an option's text spelling.
    fn json(self, text: &str) -> Json {
        let int = |t: &str| Json::Int(t.parse().unwrap_or(i64::MAX));
        match self {
            Shape::Int => int(text),
            Shape::Bool => Json::Bool(text == "true"),
            Shape::Str => Json::str(text),
            Shape::List => Json::str_arr(text.split(',')),
            Shape::Unit => {
                let (offset, count) = text.split_once('+').unwrap_or((text, "0"));
                Json::Obj(vec![("offset".into(), int(offset)), ("count".into(), int(count))])
            }
        }
    }
}

/// One job option: everything the wire, the CLI, the digest and the
/// verifier need to know about it.
struct JobOption {
    /// The wire key.
    key: &'static str,
    /// The usage item of the `spi verify`/`spi campaign` flag, if the
    /// CLI takes one.  A flag's occurrences join with commas, so a
    /// repeated list flag (marked `...`) adds items and a repeated
    /// single-valued one is refused by its parser.
    cli: Option<&'static str>,
    /// The one default, in the text spelling.
    default: &'static str,
    /// The JSON type on the wire.
    shape: Shape,
    /// When the option enters the content digest.
    digest: InDigest,
    /// The job kinds that read the option.  Other ops refuse it, and it
    /// never enters their digests.
    read_by: &'static [Mode],
    /// Parses and validates the text spelling onto a job.  Rows run in
    /// table order, so a row may check against the ones above it.
    parse: fn(&mut JobRequest, &str) -> Result<(), String>,
    /// Writes the option's value in the text spelling.
    text: fn(&JobRequest, &mut String),
    /// Applies the option to the verifier that answers the job; `None`
    /// for options the campaign, the replay or the server reads instead.
    apply: Option<fn(&JobRequest, Verifier) -> Verifier>,
}

impl JobOption {
    /// Whether jobs of `mode` read this option.
    fn read_in(&self, mode: Mode) -> bool {
        self.read_by.contains(&mode)
    }

    /// Why a job of another kind refuses this option.
    fn refusal(&self) -> String {
        let kinds: Vec<&str> = self.read_by.iter().map(|m| m.keyword()).collect();
        let kinds = match kinds.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} and {last}", rest.join(", ")),
            _ => kinds.concat(),
        };
        format!("{:?} is read only by {kinds} jobs", self.key)
    }

    /// The CLI flag this option answers to in `mode`, if jobs of `mode`
    /// read it.
    fn flag_in(&self, mode: Mode) -> Option<&'static str> {
        let cli = self.cli.filter(|_| self.read_in(mode))?;
        cli.strip_prefix("[--")?.split([' ', ']']).next()
    }
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("expects a number, got {text:?}"))
}

/// The empty text spelling is "none given".
fn optional<T: std::str::FromStr>(text: &str) -> Result<Option<T>, String> {
    (!text.is_empty()).then(|| number(text)).transpose()
}

fn boolean(text: &str) -> Result<bool, String> {
    match text {
        "on" | "true" => Ok(true),
        "off" | "false" => Ok(false),
        _ => Err(format!("expects on|off, got {text:?}")),
    }
}

/// Writes `items` comma-separated (an `Option` is zero or one item).
fn spell<T: std::fmt::Display>(out: &mut String, items: impl IntoIterator<Item = T>) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
}

fn list(text: &str) -> Vec<String> {
    text.split(',').filter(|s| !s.is_empty()).map(str::to_owned).collect()
}

/// Parses comma-separated fault clauses, each on a channel of C.
fn parse_faults(text: &str, channels: &[String]) -> Result<Option<FaultSpec>, String> {
    let raw: Vec<&str> = text.split(',').filter(|c| !c.is_empty()).collect();
    let at = |i: usize| format!("clause {} of {} (`{}`)", i + 1, raw.len(), raw[i]);
    let in_c = || channels.join(", ");
    let mut clauses = Vec::with_capacity(raw.len());
    for (i, c) in raw.iter().enumerate() {
        let clause = c.parse::<FaultClause>().map_err(|e| {
            // The parse error may already list the valid kinds; only
            // append what it cannot know — the channel alphabet.
            let kinds = if e.reason.contains("valid kinds") {
                String::new()
            } else {
                format!("; valid kinds: {}", FaultKind::keywords().join(", "))
            };
            format!("{}: {}{kinds}; channels in C: {}", at(i), e.reason, in_c())
        })?;
        if !channels.iter().any(|ch| ch == clause.chan.as_str()) {
            let (at, chan, in_c) = (at(i), &clause.chan, in_c());
            return Err(format!(
                "{at}: channel `{chan}` is not in C (channels in C: {in_c}; add --chan {chan} to include it)"
            ));
        }
        clauses.push(clause);
    }
    Ok((!clauses.is_empty()).then(|| FaultSpec::new(clauses)))
}

/// Every job kind.
const EVERY_JOB: &[Mode] = &[Mode::Verify, Mode::Campaign, Mode::ConformanceReplay];
/// The job kinds a [`Verifier`] answers; a conformance replay reads
/// only the channels, faults, budget and oracles.
const VERIFIER_JOBS: &[Mode] = &[Mode::Verify, Mode::Campaign];

/// Every job option, in digest order.  A new option is one new row,
/// plus its [`Verifier`] setter if it configures the verifier.
#[rustfmt::skip] // one row per option, laid out as a table
static JOB_OPTIONS: &[JobOption] = &[
    JobOption {
        key: "channels", cli: Some("[--chan NAME]..."), default: "c", shape: Shape::List,
        digest: InDigest::Always("C"), read_by: EVERY_JOB,
        parse: |j, t| { j.channels = list(t); Ok(()) },
        text: |j, out| spell(out, &j.channels),
        apply: Some(|j, v| v.channels(j.channels.iter().map(String::as_str))),
    },
    JobOption {
        key: "sessions", cli: Some("[--sessions N]"), default: "2", shape: Shape::Int,
        digest: InDigest::Always("sessions"), read_by: VERIFIER_JOBS,
        parse: |j, t| { j.sessions = number(t)?; Ok(()) },
        text: |j, out| spell(out, [j.sessions]), apply: Some(|j, v| v.sessions(j.sessions)),
    },
    JobOption {
        key: "visible", cli: Some("[--visible N]"), default: "6", shape: Shape::Int,
        digest: InDigest::Always("visible"), read_by: VERIFIER_JOBS,
        parse: |j, t| { j.visible = number(t)?; Ok(()) },
        text: |j, out| spell(out, [j.visible]), apply: Some(|j, v| v.max_visible(j.visible)),
    },
    JobOption {
        // The empty spelling is `Budget::default()`; pairs overlay it.
        key: "budget", cli: Some("[--budget states=N,transitions=N,fuel=N,knowledge=N,steps=N]"),
        default: "", shape: Shape::Str, digest: InDigest::Always("budget"), read_by: EVERY_JOB,
        parse: |j, t| { j.budget = Budget::parse_spec(t)?; Ok(()) },
        text: |j, out| out.push_str(&j.budget.canonical_spec()), apply: Some(|j, v| v.budget(j.budget)),
    },
    JobOption {
        key: "intruder", cli: Some("[--intruder on|off]"), default: "true", shape: Shape::Bool,
        digest: InDigest::Always("intruder"), read_by: VERIFIER_JOBS,
        parse: |j, t| { j.intruder = boolean(t)?; Ok(()) },
        text: |j, out| spell(out, [j.intruder]),
        apply: Some(|j, v| if j.intruder { v } else { v.no_intruder() }),
    },
    JobOption {
        key: "faults", cli: Some("[--fault kind:chan[:max],...]..."), default: "",
        // The digest spells the schedule by its canonical key.
        shape: Shape::Str, digest: InDigest::Spelled("faults", |j, out| spell(out, &j.faults)),
        read_by: EVERY_JOB,
        parse: |j, t| { j.faults = parse_faults(t, &j.channels)?; Ok(()) },
        text: |j, out| spell(out, j.faults.iter().flat_map(|f| &f.clauses)),
        apply: Some(|j, v| match &j.faults { Some(f) => v.faults(f.clone()), None => v }),
    },
    JobOption {
        key: "reduce", cli: Some("[--reduce none|symmetry|por|full]"), default: "none",
        shape: Shape::Str, digest: InDigest::NonDefault("reduce"), read_by: VERIFIER_JOBS,
        parse: |j, t| {
            let parsed = ReduceOptions::parse(t);
            j.reduce = parsed.ok_or_else(|| format!("expects none|symmetry|por|full, got {t:?}"))?;
            Ok(())
        },
        text: |j, out| out.push_str(j.reduce.mode()), apply: Some(|j, v| v.reduce(j.reduce)),
    },
    JobOption {
        key: "engine", cli: Some("[--engine trace|bisim|both]"), default: "trace",
        shape: Shape::Str, digest: InDigest::NonDefault("engine"), read_by: VERIFIER_JOBS,
        parse: |j, t| {
            j.engine = Engine::parse(t).ok_or_else(|| format!("expects trace|bisim|both, got {t:?}"))?;
            Ok(())
        },
        text: |j, out| out.push_str(j.engine.mode()), apply: Some(|j, v| v.engine(j.engine)),
    },
    JobOption {
        key: "faults_depth", cli: Some("[--faults-depth K]"), default: "2", shape: Shape::Int,
        digest: InDigest::Always("depth"), read_by: &[Mode::Campaign],
        parse: |j, t| { j.faults_depth = number(t)?; Ok(()) },
        text: |j, out| spell(out, [j.faults_depth]), apply: None,
    },
    JobOption {
        key: "oracles", cli: None, default: "", shape: Shape::List,
        digest: InDigest::Always("oracles"), read_by: &[Mode::ConformanceReplay],
        parse: |j, t| { j.oracles = list(t); Ok(()) },
        text: |j, out| spell(out, &j.oracles), apply: None,
    },
    JobOption {
        key: "unit", cli: None, default: "", shape: Shape::Unit, digest: InDigest::NonDefault("unit"),
        read_by: &[Mode::Campaign],
        parse: |j, t| {
            j.unit = match t.split_once('+') {
                Some((offset, count)) => Some((number(offset)?, number(count)?)),
                None if t.is_empty() => None,
                None => return Err(format!("expects offset+count, got {t:?}")),
            };
            Ok(())
        },
        text: |j, out| spell(out, j.unit.map(|(offset, count)| format!("{offset}+{count}"))),
        apply: None,
    },
    JobOption {
        key: "timeout_secs", cli: None, default: "", shape: Shape::Int, digest: InDigest::Never,
        read_by: EVERY_JOB,
        parse: |j, t| { j.timeout_secs = optional(t)?; Ok(()) },
        text: |j, out| spell(out, j.timeout_secs), apply: None,
    },
    JobOption {
        key: "no_cache", cli: None, default: "false", shape: Shape::Bool, digest: InDigest::Never,
        read_by: EVERY_JOB,
        parse: |j, t| { j.no_cache = boolean(t)?; Ok(()) },
        text: |j, out| spell(out, [j.no_cache]), apply: None,
    },
    JobOption {
        key: "tenant", cli: None, default: "", shape: Shape::Str, digest: InDigest::Never,
        read_by: EVERY_JOB,
        parse: |j, t| { j.tenant = (!t.is_empty()).then(|| t.to_owned()); Ok(()) },
        text: |j, out| spell(out, &j.tenant), apply: None,
    },
    JobOption {
        key: "deadline_ms", cli: None, default: "", shape: Shape::Int, digest: InDigest::Never,
        read_by: EVERY_JOB,
        parse: |j, t| { j.deadline_ms = optional(t)?; Ok(()) },
        text: |j, out| spell(out, j.deadline_ms), apply: None,
    },
    JobOption {
        key: "progress_ms", cli: None, default: "", shape: Shape::Int, digest: InDigest::Never,
        read_by: EVERY_JOB,
        parse: |j, t| { j.progress_ms = optional(t)?; Ok(()) },
        text: |j, out| spell(out, j.progress_ms), apply: None,
    },
];

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
    /// Builds a job whose options take the text each row is `given`
    /// (`None` for the default), naming a row by `name` in errors.
    fn build<'a>(
        mode: Mode,
        concrete: String,
        abstract_spec: String,
        mut given: impl FnMut(&JobOption) -> Result<Option<Cow<'a, str>>, String>,
        name: impl Fn(&JobOption) -> String,
    ) -> Result<JobRequest, String> {
        // Every option at its default, parsed from the table once.
        static DEFAULTS: OnceLock<JobRequest> = OnceLock::new();
        let defaults = DEFAULTS.get_or_init(|| {
            // Placeholders only: every option is overwritten from its row.
            let mut job = JobRequest {
                mode, concrete: String::new(), abstract_spec: String::new(), channels: Vec::new(),
                sessions: 0, visible: 0, budget: Budget::unlimited(), faults: None, intruder: false,
                faults_depth: 0, oracles: Vec::new(), reduce: ReduceOptions::none(),
                engine: Engine::Trace, timeout_secs: None, no_cache: false, tenant: None,
                deadline_ms: None, progress_ms: None, unit: None,
            };
            for opt in JOB_OPTIONS {
                (opt.parse)(&mut job, opt.default).expect("every default parses");
            }
            job
        });
        let mut job = JobRequest { mode, concrete, abstract_spec, ..defaults.clone() };
        for opt in JOB_OPTIONS {
            if let Some(text) = given(opt)? {
                (opt.parse)(&mut job, &text).map_err(|e| format!("{} {e}", name(opt)))?;
            }
        }
        Ok(job)
    }

    /// Builds a job from the CLI's `(flag, value)` pairs, with no
    /// sources: the CLI parses its spec files itself.  Flags the table
    /// does not know are left to the caller; see [`job_flags`].
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the flag.
    pub fn from_flags(mode: Mode, flags: &[(&str, &str)]) -> Result<JobRequest, String> {
        let given = |opt: &JobOption| {
            let flag = opt.flag_in(mode);
            let values: Vec<&str> =
                flags.iter().filter(|(n, _)| Some(*n) == flag).map(|(_, v)| *v).collect();
            Ok((!values.is_empty()).then(|| Cow::Owned(values.join(","))))
        };
        let name = |opt: &JobOption| format!("--{}", opt.flag_in(mode).unwrap_or(opt.key));
        JobRequest::build(mode, String::new(), String::new(), given, name)
    }

    /// Applies every option to `verifier`, in table order.
    pub(crate) fn configure(&self, verifier: Verifier) -> Verifier {
        JOB_OPTIONS.iter().filter_map(|opt| opt.apply).fold(verifier, |v, apply| apply(self, v))
    }

    /// The canonical description this job is content-addressed by:
    /// specs parsed and re-printed (so formatting differences vanish),
    /// then each option the table puts in the digest, in its digest
    /// spelling.
    ///
    /// # Errors
    ///
    /// Fails when a spec does not parse (such requests are never
    /// cached).
    pub fn canonical(&self) -> Result<String, String> {
        let mut desc = format!("serve-v1|{}", self.mode.keyword());
        let concrete = parse_source(&self.concrete)?;
        let _ = write!(desc, "|{concrete}");
        if self.mode != Mode::ConformanceReplay {
            let spec = parse_source(&self.abstract_spec)?;
            let _ = write!(desc, "|{spec}");
        }
        for opt in JOB_OPTIONS.iter().filter(|opt| opt.read_in(self.mode)) {
            let (label, spell) = match opt.digest {
                InDigest::Always(label) | InDigest::NonDefault(label) => (label, opt.text),
                InDigest::Spelled(label, spell) => (label, spell),
                InDigest::Never => continue,
            };
            let start = desc.len();
            desc.extend(["|", label, "="]);
            let value = desc.len();
            spell(self, &mut desc);
            if matches!(opt.digest, InDigest::NonDefault(_)) && desc[value..] == *opt.default {
                desc.truncate(start);
            }
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
    /// back on the wire when dispatching to a worker: every option
    /// that differs from its default.  Round-trips through
    /// [`parse_request`] to an equivalent job (same digest).
    #[must_use]
    pub fn wire_json(&self) -> Json {
        let mut fields = vec![("op".to_string(), Json::str(self.mode.keyword()))];
        if self.mode == Mode::ConformanceReplay {
            fields.push(("spec".into(), Json::str(self.concrete.clone())));
        } else {
            fields.push(("concrete".into(), Json::str(self.concrete.clone())));
            fields.push(("abstract".into(), Json::str(self.abstract_spec.clone())));
        }
        let mut text = String::new();
        for opt in JOB_OPTIONS.iter().filter(|opt| opt.read_in(self.mode)) {
            text.clear();
            (opt.text)(self, &mut text);
            if text != opt.default {
                fields.push((opt.key.to_string(), opt.shape.json(&text)));
            }
        }
        Json::Obj(fields)
    }
}

/// The shared job flags `mode`'s subcommand takes, each with its usage
/// item (`[--sessions N]`).
pub fn job_flags(mode: Mode) -> impl Iterator<Item = (&'static str, &'static str)> {
    JOB_OPTIONS
        .iter()
        .filter_map(move |opt| Some((opt.flag_in(mode)?, opt.cli?)))
}

/// Moves a spec given inline (`key`) out of the request, or reads it
/// from a server-side file (`key_path`).
fn take_source(v: &mut Json, key: &str, path_key: &str) -> Result<String, String> {
    if let Json::Obj(fields) = v {
        if let Some((_, Json::Str(text))) = fields.iter_mut().find(|(k, _)| k == key) {
            return Ok(std::mem::take(text));
        }
    }
    if let Some(path) = v.get(path_key).and_then(Json::as_str) {
        return std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    }
    Err(format!("request needs {key:?} or {path_key:?}"))
}

/// Every op a request line may name.
const OPS: [&str; 10] = [
    "verify",
    "campaign",
    "conformance-replay",
    "ping",
    "stats",
    "join",
    "leave",
    "gossip",
    "gossip-push",
    "shutdown",
];

/// The op an error reply to `line` echoes: the one the line names when
/// it is a JSON object with a known `"op"`, else `"request"`.
#[must_use]
pub fn request_op(line: &str) -> &'static str {
    let v = Json::parse(line.trim()).ok();
    let named = v.as_ref().and_then(|v| v.get("op")).and_then(Json::as_str);
    OPS.into_iter()
        .find(|op| named == Some(*op))
        .unwrap_or("request")
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for an `error` response: malformed JSON,
/// an unknown op, a missing spec, or a bad option.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut v = Json::parse(line.trim())?;
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
            let capacity = v.get("capacity").map(|j| {
                let n = j.as_int().and_then(|n| usize::try_from(n).ok());
                n.ok_or("\"capacity\" expects a non-negative integer")
            });
            return Ok(Request::Join {
                addr: addr.to_string(),
                capacity: capacity.transpose()?,
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
        other => return Err(format!("unknown op {other:?} (expected {})", OPS.join("|"))),
    };
    let (concrete, abstract_spec) = if mode == Mode::ConformanceReplay {
        (take_source(&mut v, "spec", "spec_path")?, String::new())
    } else {
        (
            take_source(&mut v, "concrete", "concrete_path")?,
            take_source(&mut v, "abstract", "abstract_path")?,
        )
    };
    let given = |opt: &JobOption| match v.get(opt.key) {
        None => Ok(None),
        Some(_) if !opt.read_in(mode) => Err(opt.refusal()),
        Some(value) => opt.shape.text(opt.key, value),
    };
    let name = |opt: &JobOption| format!("{:?}", opt.key);
    let job = JobRequest::build(mode, concrete, abstract_spec, given, name)?;
    Ok(Request::Job(Box::new(job)))
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
    let mut envelope = rejected_response(op, reason);
    if let Json::Obj(fields) = &mut envelope {
        let ms = Json::Int(i64::try_from(retry_after_ms).unwrap_or(i64::MAX));
        fields.push(("retry_after_ms".into(), ms));
    }
    envelope
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
        Json::Arr(report.results.iter().map(ScheduleResult::to_json).collect()),
    ));
    Json::Obj(fields)
}

/// Decodes a [`campaign_body`] back into its report, so a coordinator
/// can merge the bodies of a campaign's work units.  The body does not
/// say which records a checkpoint supplied, so all count as fresh.
///
/// # Errors
///
/// Names the field that is missing or malformed, or reports a tally
/// that disagrees with the records.
pub fn campaign_report(body: &Json) -> Result<CampaignReport, String> {
    let field = |key: &str| body.get(key).ok_or_else(|| format!("campaign body lacks {key:?}"));
    let count = |key: &str| {
        let n = field(key)?.as_int().and_then(|n| usize::try_from(n).ok());
        n.ok_or_else(|| format!("campaign body {key:?} is not a count"))
    };
    let malformed = |key: &str| format!("campaign body {key:?} is malformed");
    let results = field("results")?.as_arr().ok_or_else(|| malformed("results"))?;
    let results = results.iter().map(ScheduleResult::from_json).collect::<Result<Vec<_>, _>>()?;
    // Absent unless the bisimulation fast path fired.
    let early_rejects = match body.get("early_rejects") {
        Some(_) => count("early_rejects")?,
        None => 0,
    };
    let report = CampaignReport {
        enumerated: count("enumerated")?,
        resumed: 0,
        fresh: results.len(),
        interrupted: field("interrupted")?.as_bool().ok_or_else(|| malformed("interrupted"))?,
        early_rejects: u64::try_from(early_rejects).unwrap_or(u64::MAX),
        identity: field("identity")?.as_str().ok_or_else(|| malformed("identity"))?.to_string(),
        results,
    };
    if report.tally() != (count("attacks")?, count("survives")?, count("inconclusive")?) {
        return Err("campaign body's tally disagrees with its records".into());
    }
    Ok(report)
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

    const SPEC: &str = "(^m)c<m> | c(x).observe<x>";
    const UNLIMITED: &str =
        "transitions=18446744073709551615,fuel=18446744073709551615,knowledge=18446744073709551615,steps=18446744073709551615";

    /// `(request options, canonical tail after the specs, digest)`:
    /// one request per mode plus non-default `reduce`, `engine`,
    /// `faults`, `budget`, `unit` and `oracles`.  `{B}` stands for the
    /// default budget's canonical spelling.
    const PINNED: [(&str, &str, &str, &str); 8] = [
        ("verify", r#""sessions":1"#, "C=c|sessions=1|visible=6|budget={B}|intruder=true|faults=", "fnv:426b2ab6329f32ae"),
        ("campaign", r#""intruder":false,"faults_depth":1"#, "C=c|sessions=2|visible=6|budget={B}|intruder=false|faults=|depth=1", "fnv:dd32e6a076792526"),
        ("conformance-replay", r#""oracles":["roundtrip","cowstate"]"#, "C=c|budget={B}|faults=|oracles=roundtrip,cowstate", "fnv:086a63e33f97b371"),
        ("verify", r#""reduce":"full""#, "C=c|sessions=2|visible=6|budget={B}|intruder=true|faults=|reduce=full", "fnv:00f6a633007f8e2f"),
        ("verify", r#""engine":"bisim","visible":3"#, "C=c|sessions=2|visible=3|budget={B}|intruder=true|faults=|engine=bisim", "fnv:6d16479e2d1acb9b"),
        ("verify", r#""channels":["c","d"],"faults":"replay:c:2,drop:d","intruder":false"#, "C=c,d|sessions=2|visible=6|budget={B}|intruder=false|faults=drop:d:1+replay:c:2@1", "fnv:9e41e15c4691c5ca"),
        ("verify", r#""budget":"states=50,fuel=7""#, "C=c|sessions=2|visible=6|budget=states=50,transitions=18446744073709551615,fuel=7,knowledge=18446744073709551615,steps=18446744073709551615|intruder=true|faults=", "fnv:fd90b31a5b221b0e"),
        ("campaign", r#""faults_depth":3,"unit":{"offset":4,"count":2},"engine":"both","reduce":"symmetry""#, "C=c|sessions=2|visible=6|budget={B}|intruder=true|faults=|reduce=symmetry|engine=both|depth=3|unit=4+2", "fnv:e5f02d8adc6031f8"),
    ];

    /// The same requests' digests before the default budget moved from
    /// 50 000 to 200 000 states, in [`PINNED`] order.  The replay row's pair
    /// moved once more when replay jobs stopped reading (and digesting)
    /// the verifier-only options.
    const BEFORE_BUDGET_DEFAULT: [&str; 8] = [
        "fnv:f17044e6eb7aac37",
        "fnv:6b1aaf8220c8c185",
        "fnv:28409fae1c663e1e",
        "fnv:6d8bc57d510e5708",
        "fnv:42e478570ee0411c",
        "fnv:0c364c12ccc8da4d",
        "fnv:fd90b31a5b221b0e",
        "fnv:78ee6233423e6ca7",
    ];

    #[test]
    fn canonical_descriptions_and_digests_are_pinned() {
        for ((op, options, tail, pinned), before) in PINNED.iter().zip(BEFORE_BUDGET_DEFAULT) {
            let specs = if *op == "conformance-replay" {
                format!(r#""spec":"{SPEC}""#)
            } else {
                format!(r#""concrete":"{SPEC}","abstract":"{SPEC}""#)
            };
            let j = job(&format!(r#"{{"op":"{op}",{specs},{options}}}"#));
            let spec_part = if *op == "conformance-replay" {
                SPEC.to_string()
            } else {
                format!("{SPEC}|{SPEC}")
            };
            let expected = format!("serve-v1|{op}|{spec_part}|{tail}")
                .replace("{B}", &format!("states=200000,{UNLIMITED}"));
            assert_eq!(j.canonical().unwrap(), expected);
            assert_eq!(j.digest().unwrap(), *pinned, "{op} {options}");
            // Only the budget term moved, and only where none was given.
            let old = expected.replace("budget=states=200000,", "budget=states=50000,");
            assert_eq!(digest(&old), before, "{op} {options}");
        }
    }

    #[test]
    fn options_one_job_reads_are_refused_by_the_others() {
        // A unit once entered the digest of every op, so a verify request
        // carrying one was keyed apart from the same request without it
        // and one answer was cached twice.
        let err = parse_request(
            r#"{"op":"verify","concrete":"0","abstract":"0","unit":{"offset":0,"count":1}}"#,
        )
        .unwrap_err();
        assert_eq!(err, r#""unit" is read only by campaign jobs"#);
        for (op, field, reader) in [
            ("verify", r#""faults_depth":1"#, "campaign"),
            ("verify", r#""oracles":["roundtrip"]"#, "conformance-replay"),
            ("campaign", r#""oracles":["roundtrip"]"#, "conformance-replay"),
            ("conformance-replay", r#""unit":{"offset":0,"count":1}"#, "campaign"),
            ("conformance-replay", r#""faults_depth":1"#, "campaign"),
            ("conformance-replay", r#""sessions":3"#, "verify and campaign"),
            ("conformance-replay", r#""visible":4"#, "verify and campaign"),
            ("conformance-replay", r#""intruder":false"#, "verify and campaign"),
            ("conformance-replay", r#""reduce":"full""#, "verify and campaign"),
            ("conformance-replay", r#""engine":"bisim""#, "verify and campaign"),
        ] {
            let specs = r#""spec":"0","concrete":"0","abstract":"0""#;
            let err = parse_request(&format!(r#"{{"op":"{op}",{specs},{field}}}"#)).unwrap_err();
            let reader = format!("is read only by {reader} jobs");
            assert!(err.ends_with(&reader), "{op} {field}: {err}");
        }
    }

    #[test]
    fn error_replies_echo_the_op_the_line_names() {
        let refused =
            r#"{"op":"verify","concrete":"0","abstract":"0","unit":{"offset":0,"count":1}}"#;
        assert!(parse_request(refused).is_err());
        assert_eq!(request_op(refused), "verify");
        assert_eq!(request_op(r#"{"op":"join"}"#), "join");
        for line in [
            "not json",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":3}"#,
            r#"["verify"]"#,
        ] {
            assert_eq!(request_op(line), "request", "{line}");
        }
    }

    #[test]
    fn campaign_bodies_decode_and_re_encode_byte_identically() {
        let body = concat!(
            r#"{"enumerated":9,"attacks":1,"survives":1,"inconclusive":1,"interrupted":false,"#,
            r#""identity":"fnv:0123456789abcdef","early_rejects":3,"results":["#,
            r#"{"schedule":"drop:c:1+duplicate:c:1@1","outcome":"attack","#,
            r#""minimal":"duplicate:c:1@1","shrink_steps":1,"trace":["observe!m","observe!m"]},"#,
            r#"{"schedule":"drop:c:1@1","outcome":"survives","traces_checked":4},"#,
            r#"{"schedule":"reorder:c:1@1","outcome":"inconclusive","#,
            r#""reason":"states budget exhausted mid-schedule"}]}"#,
        );
        let report = campaign_report(&Json::parse(body).unwrap()).unwrap();
        assert_eq!((report.early_rejects, report.results.len()), (3, 3));
        assert_eq!(campaign_body(&report).render_compact(), body);
        // Without the fast path the field is absent, and stays absent.
        let plain = body.replace(r#""early_rejects":3,"#, "");
        let report = campaign_report(&Json::parse(&plain).unwrap()).unwrap();
        assert_eq!(campaign_body(&report).render_compact(), plain);
        // A tally that disagrees with the records is not a campaign body.
        let forged = body.replace(r#""attacks":1"#, r#""attacks":2"#);
        assert!(campaign_report(&Json::parse(&forged).unwrap()).is_err());
        let torn = body.replace(r#""identity""#, r#""identify""#);
        let err = campaign_report(&Json::parse(&torn).unwrap()).unwrap_err();
        assert_eq!(err, r#"campaign body lacks "identity""#);
    }

    #[test]
    fn wire_faults_must_name_channels_of_c() {
        let err = parse_request(
            r#"{"op":"verify","concrete":"0","abstract":"0","channels":["c"],"faults":"drop:zz:1"}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("\"faults\" clause 1 of 1"), "{err}");
        assert!(err.contains("channel `zz` is not in C"), "{err}");
        let err = parse_request(r#"{"op":"verify","concrete":"0","abstract":"0","faults":"flip:c"}"#)
            .unwrap_err();
        assert!(err.contains("unknown fault kind `flip`"), "{err}");
        // Naming the channel in C makes the same clause fine.
        let j = job(r#"{"op":"verify","concrete":"0","abstract":"0","channels":["c","zz"],"faults":"drop:zz:1"}"#);
        assert_eq!(j.faults.map(|f| f.clauses.len()), Some(1));
    }

    #[test]
    fn wire_options_reject_the_wrong_json_type() {
        for (field, expects) in [
            (r#""sessions":"3""#, "a non-negative integer"),
            (r#""intruder":"off""#, "a boolean"),
            (r#""budget":5"#, "a string"),
            (r#""channels":[1]"#, "an array of strings"),
            (r#""unit":{"offset":1}"#, "{\"offset\":N,\"count\":M}"),
        ] {
            let line = format!(r#"{{"op":"campaign","concrete":"0","abstract":"0",{field}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert!(err.ends_with(&format!("expects {expects}")), "{field}: {err}");
        }
        let err = parse_request(r#"{"op":"verify","concrete":"0","abstract":"0","visible":-1}"#)
            .unwrap_err();
        assert_eq!(err, r#""visible" expects a number, got "-1""#);
    }

    #[test]
    fn a_wire_budget_overlays_the_default() {
        let j = job(r#"{"op":"verify","concrete":"0","abstract":"0","budget":"fuel=100000000"}"#);
        assert_eq!(j.budget, Budget::default().fuel(100_000_000));
        assert_eq!(job(r#"{"op":"verify","concrete":"0","abstract":"0"}"#).budget, Budget::default());
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
