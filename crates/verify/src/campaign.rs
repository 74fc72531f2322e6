//! Fault-schedule campaigns with counterexample minimization.
//!
//! A *campaign* asks a stronger question than a single faulty-network
//! check: over **every** bounded combination of network faults (all
//! multi-fault schedules of up to `depth` unit firings, enumerated by
//! [`multi_fault_schedules`] and deduplicated on their canonical keys),
//! which schedules let an attack through, which does the protocol
//! survive, and which stay undecided within the budget?
//!
//! Every failing schedule is then *shrunk* ddmin-style in two
//! dimensions until 1-minimal:
//!
//! 1. **fault clauses** — greedily remove one unit firing at a time
//!    (decrement a clause cap, dropping the clause at zero) as long as
//!    the attack persists; the fixpoint is a schedule where removing any
//!    single unit makes the attack disappear;
//! 2. **the witnessing trace** — cut the witness to its shortest prefix
//!    the specification cannot produce.  Because weak trace sets are
//!    prefix-closed and [`trace_preorder`] already reports the globally
//!    shortest missing trace, this pass is an *enforced invariant*
//!    rather than a search: the final witness has every proper prefix
//!    realizable by the specification.
//!
//! The result is a [`MinimalCounterexample`]: the smallest fault
//! schedule that still breaks the protocol plus the shortest trace
//! witnessing the break — the artifact a protocol designer actually
//! debugs, instead of a depth-`K` haystack.
//!
//! Campaigns are built to run long and survive trouble:
//!
//! * worker panics are caught at the successor boundary (see
//!   [`VerifyError::WorkerPanic`]) and poison only the schedule that
//!   triggered them, reported as [`ScheduleOutcome::Inconclusive`];
//! * a wall-clock deadline or cancellation flag (set on the embedded
//!   [`ExploreOptions`]) stops the campaign between schedules and the
//!   explorations inside one cooperatively;
//! * progress is checkpointed every few schedules to a JSON file that a
//!   later run can `resume` from; resumed campaigns produce bit-for-bit
//!   the same report as uninterrupted ones, because classification is a
//!   deterministic function of the schedule and finished schedules are
//!   replayed verbatim from the checkpoint.
//!
//! [`trace_preorder`]: crate::trace_preorder

use std::collections::HashMap;
use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spi_semantics::{FaultClause, FaultKind, FaultSpec};
use spi_syntax::{Name, Process};

use crate::checkpoint::Json;
use crate::faultsim::multi_fault_schedules;
use crate::verifier::cross_check;
use crate::{
    bisim_preorder_sound, trace_preorder_sound, weak_traces, Engine, ExploreOptions, Explorer,
    TraceVerdict, VerifyError,
};

/// Configuration of one fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// The channels faults may strike (base spellings).
    pub channels: Vec<Name>,
    /// The fault kinds in the schedule universe.
    pub kinds: Vec<FaultKind>,
    /// Maximum total unit firings per schedule (the campaign depth).
    pub depth: usize,
    /// Exploration options for every run the campaign performs.  The
    /// `faults` field is overwritten per schedule; `deadline` / `cancel`
    /// also bound the campaign loop itself.
    pub explore: ExploreOptions,
    /// Visible-trace depth of each may-testing comparison.
    pub max_visible: usize,
    /// Which decision procedure(s) classify each schedule.  Under
    /// [`Engine::Both`] the campaign runs the bisimulation check first
    /// and — because a bisimulation failure implies a trace-preorder
    /// failure — skips the full trace-set comparison on every schedule
    /// the bisimulation check already classifies as an attack (counted
    /// in [`CampaignReport::early_rejects`]).
    pub engine: Engine,
    /// Where to write (and resume) the checkpoint file, if anywhere.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint after every this many freshly decided schedules
    /// (`0` disables periodic checkpoints; a final one is still written
    /// whenever a path is configured).
    pub checkpoint_every: usize,
    /// Load previously decided schedules from `checkpoint_path` before
    /// starting (a missing file is a clean start, a mismatched one an
    /// error).
    pub resume: bool,
    /// Stop (reporting `interrupted`) after deciding this many fresh
    /// schedules — deterministic interruption for resume tests.
    pub stop_after: Option<usize>,
    /// Decide only the schedules at enumeration indices
    /// `[offset, offset + count)` — the *work unit* a verification fleet
    /// dispatches to one worker node.  The report then carries exactly
    /// that slice of results (still in enumeration order, with the full
    /// `enumerated` count and the full-campaign identity), so a
    /// coordinator can concatenate unit reports back into the
    /// byte-identical single-process report.  `None` decides everything.
    pub schedule_range: Option<(usize, usize)>,
    /// A shared progress counter bumped once per freshly decided
    /// schedule (relaxed ordering).  Services stream it as a liveness
    /// heartbeat; it is excluded from the campaign identity digest, so
    /// it never affects checkpoints or results.  `None` costs nothing.
    pub progress: Option<Arc<AtomicU64>>,
}

impl CampaignOptions {
    /// A campaign over `channels` up to `depth` unit firings, with all
    /// fault kinds, default exploration options, and no checkpointing.
    #[must_use]
    pub fn new<I, N>(channels: I, depth: usize) -> CampaignOptions
    where
        I: IntoIterator<Item = N>,
        N: Into<Name>,
    {
        CampaignOptions {
            channels: channels.into_iter().map(Into::into).collect(),
            kinds: FaultKind::ALL.to_vec(),
            depth,
            explore: ExploreOptions::default(),
            max_visible: 6,
            engine: Engine::default(),
            checkpoint_path: None,
            checkpoint_every: 8,
            resume: false,
            stop_after: None,
            schedule_range: None,
            progress: None,
        }
    }
}

/// A 1-minimal counterexample extracted from a failing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimalCounterexample {
    /// The schedule the campaign originally found the attack under.
    pub original: FaultSpec,
    /// The shrunk schedule: removing any single unit firing from it
    /// makes the attack disappear.  May have *no* clauses at all — then
    /// the attack needs no network faults (the intruder alone causes it).
    pub schedule: FaultSpec,
    /// The shortest distinguishing trace under the minimal schedule;
    /// every proper prefix is producible by the specification.
    pub trace: Vec<String>,
    /// How many unit firings the shrinker removed.
    pub shrink_steps: usize,
}

/// What one schedule did to the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleOutcome {
    /// The schedule admits an attack; here is its minimal form.
    Attack(Box<MinimalCounterexample>),
    /// Within bounds, the protocol survives this schedule.
    Survives {
        /// How many implementation traces were checked for inclusion.
        traces_checked: usize,
    },
    /// The schedule could not be decided — a budget ran out mid-run, a
    /// worker panicked, or the wall clock cut the exploration short.
    /// Never collapsed into "survives": an undecided schedule is an
    /// undecided schedule.
    Inconclusive {
        /// Why the decision was blocked.
        reason: String,
    },
}

/// One schedule's entry in the campaign report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleResult {
    /// The canonical schedule key (see [`FaultSpec::canonical_key`]).
    pub key: String,
    /// The schedule itself.
    pub schedule: FaultSpec,
    /// What happened under it.
    pub outcome: ScheduleOutcome,
}

/// The full result of a fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Per-schedule results, in deterministic enumeration order.  An
    /// interrupted campaign reports a prefix of the full list.
    pub results: Vec<ScheduleResult>,
    /// How many schedules the campaign enumerated in total.
    pub enumerated: usize,
    /// How many results were replayed from the resume checkpoint.
    pub resumed: usize,
    /// How many schedules were decided fresh in this run.
    pub fresh: usize,
    /// `true` when the campaign stopped early (wall clock, cancellation,
    /// or `stop_after`) — the remaining schedules are undecided.
    pub interrupted: bool,
    /// Under [`Engine::Both`], how many classifications (schedule
    /// decisions *and* shrink probes) the bisimulation fast path
    /// resolved as attacks without running the trace-set comparison.
    /// Always zero for the single-engine modes, and a run-local work
    /// statistic only: resumed schedules replay their checkpointed
    /// outcome and perform no classification at all.
    pub early_rejects: u64,
    /// The campaign identity digest (binds checkpoints to their inputs).
    pub identity: String,
}

impl CampaignReport {
    /// The attack entries, in enumeration order.
    pub fn attacks(&self) -> impl Iterator<Item = (&ScheduleResult, &MinimalCounterexample)> {
        self.results.iter().filter_map(|r| match &r.outcome {
            ScheduleOutcome::Attack(cex) => Some((r, cex.as_ref())),
            _ => None,
        })
    }

    /// Counts `(attacks, survives, inconclusive)`.
    #[must_use]
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for r in &self.results {
            match r.outcome {
                ScheduleOutcome::Attack(_) => t.0 += 1,
                ScheduleOutcome::Survives { .. } => t.1 += 1,
                ScheduleOutcome::Inconclusive { .. } => t.2 += 1,
            }
        }
        t
    }

    /// `true` when every enumerated schedule was decided as surviving —
    /// the campaign's positive claim.
    #[must_use]
    pub fn all_survive(&self) -> bool {
        let (attacks, survives, _) = self.tally();
        attacks == 0 && survives == self.enumerated && !self.interrupted
    }
}

/// Runs a fault campaign over two *closed* systems (the caller has
/// already applied the Definition 4 closure `(νC)(P | X)`; see
/// `Verifier::run_campaign` in `spi-auth` for the protocol-level entry
/// point).  Both systems face each schedule, per the convention that the
/// fault model applies to specification and implementation alike.
///
/// # Errors
///
/// Propagates machine failures and checkpoint I/O problems.  Worker
/// panics and budget exhaustion do **not** error: they classify the
/// schedule as [`ScheduleOutcome::Inconclusive`].
pub fn run_campaign(
    concrete: &Process,
    spec: &Process,
    opts: &CampaignOptions,
) -> Result<CampaignReport, VerifyError> {
    let identity = campaign_identity(concrete, spec, opts);
    let schedules = multi_fault_schedules(opts.channels.iter().cloned(), &opts.kinds, opts.depth);
    let mut prior: HashMap<String, ScheduleResult> = HashMap::new();
    if opts.resume {
        let path = opts.checkpoint_path.as_ref().ok_or_else(|| VerifyError::Checkpoint {
            reason: "resume requested but no checkpoint path configured".into(),
        })?;
        if path.exists() {
            prior = load_checkpoint(path, &identity)?;
        }
    }

    let mut results: Vec<ScheduleResult> = Vec::new();
    let mut cache: HashMap<String, Classified> = HashMap::new();
    let mut resumed = 0usize;
    let mut fresh = 0usize;
    let mut early_rejects = 0u64;
    let mut interrupted = false;
    for (index, sched) in schedules.iter().enumerate() {
        if let Some((offset, count)) = opts.schedule_range {
            if index < offset {
                continue;
            }
            if index >= offset.saturating_add(count) {
                // The end of the work unit is a clean completion, not an
                // interruption: the remaining schedules belong to other
                // units.
                break;
            }
        }
        let key = sched.canonical_key();
        if let Some(done) = prior.get(&key) {
            results.push(done.clone());
            resumed += 1;
            continue;
        }
        if overrun(&opts.explore) || opts.stop_after.is_some_and(|n| fresh >= n) {
            interrupted = true;
            break;
        }
        let outcome = decide_schedule(concrete, spec, opts, sched, &mut cache, &mut early_rejects)?;
        results.push(ScheduleResult {
            key,
            schedule: sched.clone(),
            outcome,
        });
        fresh += 1;
        if let Some(p) = &opts.progress {
            p.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(path) = &opts.checkpoint_path {
            if opts.checkpoint_every > 0 && fresh.is_multiple_of(opts.checkpoint_every) {
                write_checkpoint(path, &identity, &results)?;
            }
        }
    }
    if let Some(path) = &opts.checkpoint_path {
        write_checkpoint(path, &identity, &results)?;
    }
    Ok(CampaignReport {
        results,
        enumerated: schedules.len(),
        resumed,
        fresh,
        interrupted,
        early_rejects,
        identity,
    })
}

/// Raw classification of one schedule — the memoized, deterministic
/// kernel both the enumeration loop and the shrinker call.
#[derive(Debug, Clone)]
enum Classified {
    Attack { witness: Vec<String> },
    Survives { checked: usize },
    Inconclusive { reason: String },
}

fn classify_cached(
    concrete: &Process,
    spec: &Process,
    opts: &CampaignOptions,
    sched: &FaultSpec,
    cache: &mut HashMap<String, Classified>,
    early_rejects: &mut u64,
) -> Result<Classified, VerifyError> {
    let key = sched.canonical_key();
    if let Some(c) = cache.get(&key) {
        return Ok(c.clone());
    }
    let c = classify(concrete, spec, opts, sched, early_rejects)?;
    cache.insert(key, c.clone());
    Ok(c)
}

fn classify(
    concrete: &Process,
    spec: &Process,
    opts: &CampaignOptions,
    sched: &FaultSpec,
    early_rejects: &mut u64,
) -> Result<Classified, VerifyError> {
    let explorer = Explorer::new(schedule_opts(opts, sched));
    let explore = |p: &Process| match explorer.explore(p) {
        Ok(lts) => Ok(Ok(lts)),
        // A poisoned successor computation condemns this schedule only.
        Err(VerifyError::WorkerPanic { payload }) => Ok(Err(format!("worker panic: {payload}"))),
        Err(e) => Err(e),
    };
    let concrete_lts = match explore(concrete)? {
        Ok(lts) => lts,
        Err(reason) => return Ok(Classified::Inconclusive { reason }),
    };
    let spec_lts = match explore(spec)? {
        Ok(lts) => lts,
        Err(reason) => return Ok(Classified::Inconclusive { reason }),
    };
    let verdict = match opts.engine {
        Engine::Trace => trace_preorder_sound(&concrete_lts, &spec_lts, opts.max_visible),
        Engine::Bisim => bisim_preorder_sound(&concrete_lts, &spec_lts, opts.max_visible),
        Engine::Both => {
            // Fast path: a (sound) bisimulation failure implies a
            // trace-preorder failure, so an attack verdict here skips
            // the full trace-set comparison for this schedule.
            let b = bisim_preorder_sound(&concrete_lts, &spec_lts, opts.max_visible);
            if matches!(b, TraceVerdict::Fails { .. }) {
                *early_rejects += 1;
                b
            } else {
                cross_check(
                    trace_preorder_sound(&concrete_lts, &spec_lts, opts.max_visible),
                    b,
                )?
            }
        }
    };
    Ok(match verdict {
        TraceVerdict::Holds { checked } => Classified::Survives { checked },
        TraceVerdict::Fails { witness } => Classified::Attack { witness },
        TraceVerdict::Inconclusive { exhausted } => Classified::Inconclusive {
            reason: format!("{exhausted} budget exhausted mid-schedule"),
        },
    })
}

fn schedule_opts(opts: &CampaignOptions, sched: &FaultSpec) -> ExploreOptions {
    ExploreOptions {
        faults: (!sched.clauses.is_empty()).then(|| sched.clone()),
        ..opts.explore.clone()
    }
}

fn decide_schedule(
    concrete: &Process,
    spec: &Process,
    opts: &CampaignOptions,
    sched: &FaultSpec,
    cache: &mut HashMap<String, Classified>,
    early_rejects: &mut u64,
) -> Result<ScheduleOutcome, VerifyError> {
    match classify_cached(concrete, spec, opts, sched, cache, early_rejects)? {
        Classified::Survives { checked } => Ok(ScheduleOutcome::Survives {
            traces_checked: checked,
        }),
        Classified::Inconclusive { reason } => Ok(ScheduleOutcome::Inconclusive { reason }),
        Classified::Attack { witness } => {
            let (minimal, witness, shrink_steps) =
                shrink_schedule(concrete, spec, opts, sched, witness, cache, early_rejects)?;
            let trace = minimize_trace(spec, opts, &minimal, witness);
            Ok(ScheduleOutcome::Attack(Box::new(MinimalCounterexample {
                original: sched.canonical(),
                schedule: minimal,
                trace,
                shrink_steps,
            })))
        }
    }
}

/// Greedy ddmin over unit firings: repeatedly remove the first single
/// unit (cap decrement, clause removal at zero) whose absence keeps the
/// attack alive.  The fixpoint is 1-minimal by construction — every
/// single-unit reduction was just tried and found attack-free.
fn shrink_schedule(
    concrete: &Process,
    spec: &Process,
    opts: &CampaignOptions,
    original: &FaultSpec,
    first_witness: Vec<String>,
    cache: &mut HashMap<String, Classified>,
    early_rejects: &mut u64,
) -> Result<(FaultSpec, Vec<String>, usize), VerifyError> {
    let mut cur = original.canonical();
    let mut cur_witness = first_witness;
    let mut steps = 0usize;
    'reduce: loop {
        for i in 0..cur.clauses.len() {
            let mut cand = cur.clone();
            if cand.clauses[i].max > 1 {
                cand.clauses[i].max -= 1;
            } else {
                cand.clauses.remove(i);
            }
            if let Classified::Attack { witness } =
                classify_cached(concrete, spec, opts, &cand, cache, early_rejects)?
            {
                cur = cand;
                cur_witness = witness;
                steps += 1;
                continue 'reduce;
            }
        }
        return Ok((cur, cur_witness, steps));
    }
}

/// Trace-dimension minimization: the shortest prefix of `witness` the
/// specification cannot produce under the minimal schedule.  Since weak
/// trace sets are prefix-closed and the classifier already picks the
/// globally shortest missing trace, this normally returns the full
/// witness — the pass *enforces* prefix-minimality rather than
/// discovering it.
fn minimize_trace(
    spec: &Process,
    opts: &CampaignOptions,
    minimal: &FaultSpec,
    witness: Vec<String>,
) -> Vec<String> {
    let Ok(spec_lts) = Explorer::new(schedule_opts(opts, minimal)).explore(spec) else {
        return witness;
    };
    let spec_traces = weak_traces(&spec_lts, opts.max_visible);
    for cut in 1..witness.len() {
        if !spec_traces.contains(&witness[..cut]) {
            return witness[..cut].to_vec();
        }
    }
    witness
}

/// `true` once the campaign loop itself should stop (the same signals
/// the in-flight explorations watch).
fn overrun(opts: &ExploreOptions) -> bool {
    if opts
        .cancel
        .as_ref()
        .is_some_and(|c| c.load(Ordering::Relaxed))
    {
        return true;
    }
    opts.deadline.is_some_and(|d| Instant::now() >= d)
}

/// A digest binding a checkpoint to the campaign that wrote it: both
/// systems plus every knob that influences per-schedule outcomes.
/// Worker count is deliberately excluded — results are bit-for-bit
/// identical for any worker count, so a campaign may resume with a
/// different one.
fn campaign_identity(concrete: &Process, spec: &Process, opts: &CampaignOptions) -> String {
    use std::fmt::Write as _;
    let mut desc = String::from("campaign-v1");
    let _ = write!(desc, "|{concrete}|{spec}");
    for c in &opts.channels {
        let _ = write!(desc, "|{c}");
    }
    for k in &opts.kinds {
        let _ = write!(desc, "|{k}");
    }
    let _ = write!(
        desc,
        "|{}|{}|{:?}|{:?}|{}",
        opts.depth, opts.max_visible, opts.explore.budget, opts.explore.intruder,
        opts.explore.unfold_bound
    );
    // Appended only when non-default so that every pre-engine checkpoint
    // (and every trace-engine one written since) keeps its digest.
    if opts.engine != Engine::Trace {
        let _ = write!(desc, "|engine={}", opts.engine.mode());
    }
    format!("fnv:{:016x}", fnv64(&desc))
}

/// 64-bit FNV-1a (the build is offline, so no hashing crates).
fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn chk(reason: impl Into<String>) -> VerifyError {
    VerifyError::Checkpoint {
        reason: reason.into(),
    }
}

/// Rebuilds a [`FaultSpec`] from its canonical key (the inverse of
/// [`FaultSpec::canonical_key`]).
fn parse_schedule_key(key: &str) -> Result<FaultSpec, VerifyError> {
    let (clauses_s, bits) = key
        .rsplit_once('@')
        .ok_or_else(|| chk(format!("schedule key {key:?} lacks an @position")))?;
    let position = bits
        .parse()
        .map_err(|_| chk(format!("schedule key {key:?} has bad position bits")))?;
    let clauses = if clauses_s.is_empty() {
        Vec::new()
    } else {
        clauses_s
            .split('+')
            .map(|c| {
                c.parse::<FaultClause>()
                    .map_err(|e| chk(format!("schedule key {key:?}: {e}")))
            })
            .collect::<Result<_, _>>()?
    };
    Ok(FaultSpec { position, clauses })
}

impl ScheduleResult {
    /// The schedule's JSON record — the one encoding shared by campaign
    /// checkpoints, `spi campaign --format json`, and the `spi serve`
    /// response body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("schedule".to_string(), Json::Str(self.key.clone()))];
        match &self.outcome {
            ScheduleOutcome::Survives { traces_checked } => {
                fields.push(("outcome".into(), Json::Str("survives".into())));
                fields.push(("traces_checked".into(), Json::count(*traces_checked)));
            }
            ScheduleOutcome::Inconclusive { reason } => {
                fields.push(("outcome".into(), Json::Str("inconclusive".into())));
                fields.push(("reason".into(), Json::Str(reason.clone())));
            }
            ScheduleOutcome::Attack(cex) => {
                fields.push(("outcome".into(), Json::Str("attack".into())));
                fields.push(("minimal".into(), Json::Str(cex.schedule.canonical_key())));
                fields.push(("shrink_steps".into(), Json::count(cex.shrink_steps)));
                fields.push(("trace".into(), Json::str_arr(cex.trace.iter().cloned())));
            }
        }
        Json::Obj(fields)
    }
}

fn write_checkpoint(
    path: &FsPath,
    identity: &str,
    results: &[ScheduleResult],
) -> Result<(), VerifyError> {
    let json = Json::Obj(vec![
        ("version".into(), Json::Int(1)),
        ("identity".into(), Json::Str(identity.to_string())),
        (
            "processed".into(),
            Json::Arr(results.iter().map(ScheduleResult::to_json).collect()),
        ),
    ]);
    // Write-then-rename so a crash mid-write never corrupts a resumable
    // checkpoint.
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json.render())
        .map_err(|e| chk(format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| chk(format!("cannot move checkpoint into {}: {e}", path.display())))
}

fn load_checkpoint(
    path: &FsPath,
    identity: &str,
) -> Result<HashMap<String, ScheduleResult>, VerifyError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| chk(format!("cannot read {}: {e}", path.display())))?;
    let json = Json::parse(&text).map_err(|e| chk(format!("{}: {e}", path.display())))?;
    match json.get("version").and_then(Json::as_int) {
        Some(1) => {}
        other => return Err(chk(format!("unsupported checkpoint version {other:?}"))),
    }
    let found = json.get("identity").and_then(Json::as_str).unwrap_or("");
    if found != identity {
        return Err(chk(format!(
            "checkpoint belongs to a different campaign \
             (identity {found}, expected {identity})"
        )));
    }
    let mut out = HashMap::new();
    for item in json
        .get("processed")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let key = item
            .get("schedule")
            .and_then(Json::as_str)
            .ok_or_else(|| chk("a processed entry lacks its schedule key"))?;
        let schedule = parse_schedule_key(key)?;
        let outcome = match item.get("outcome").and_then(Json::as_str) {
            Some("survives") => ScheduleOutcome::Survives {
                traces_checked: item
                    .get("traces_checked")
                    .and_then(Json::as_int)
                    .and_then(|n| usize::try_from(n).ok())
                    .unwrap_or(0),
            },
            Some("inconclusive") => ScheduleOutcome::Inconclusive {
                reason: item
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            },
            Some("attack") => {
                let minimal_key = item
                    .get("minimal")
                    .and_then(Json::as_str)
                    .ok_or_else(|| chk(format!("attack entry {key:?} lacks its minimal key")))?;
                let trace = item
                    .get("trace")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .map(|t| {
                        t.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| chk(format!("attack entry {key:?} has a bad trace")))
                    })
                    .collect::<Result<Vec<String>, _>>()?;
                ScheduleOutcome::Attack(Box::new(MinimalCounterexample {
                    original: schedule.clone(),
                    schedule: parse_schedule_key(minimal_key)?,
                    trace,
                    shrink_steps: item
                        .get("shrink_steps")
                        .and_then(Json::as_int)
                        .and_then(|n| usize::try_from(n).ok())
                        .unwrap_or(0),
                }))
            }
            other => return Err(chk(format!("unknown outcome {other:?} in {key:?}"))),
        };
        out.insert(
            key.to_string(),
            ScheduleResult {
                key: key.to_string(),
                schedule,
                outcome,
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use spi_syntax::parse;

    /// A sender plus a *greedy* receiver that would observe a second
    /// delivery if the network ever produced one.
    fn greedy() -> Process {
        parse("(^c)(^m)(c<m>.0 | c(x).observe<x>.c(y).observe<y>)").expect("parses")
    }

    /// The specification: one delivery, one observation.
    fn single_shot() -> Process {
        parse("(^c)(^m)(c<m>.0 | c(x).observe<x>)").expect("parses")
    }

    fn opts(depth: usize) -> CampaignOptions {
        let mut o = CampaignOptions::new(["c"], depth);
        o.explore.workers = 1;
        o
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spi-campaign-{}-{tag}.json", std::process::id()))
    }

    #[test]
    fn depth_one_separates_message_creating_faults() {
        // Duplicate and replay deliver a second copy (attack on the
        // single-shot spec); drop and reorder never add deliveries.
        let report = run_campaign(&greedy(), &single_shot(), &opts(1)).unwrap();
        assert_eq!(report.enumerated, 4);
        let (attacks, survives, inconclusive) = report.tally();
        assert_eq!((attacks, survives, inconclusive), (2, 2, 0), "{report:?}");
        for (r, cex) in report.attacks() {
            assert!(
                matches!(
                    cex.schedule.clauses[0].kind,
                    FaultKind::Duplicate | FaultKind::Replay
                ),
                "{r:?}"
            );
            assert_eq!(cex.shrink_steps, 0, "a single unit cannot shrink");
            assert_eq!(cex.trace.len(), 2, "two observations distinguish");
        }
        assert!(!report.interrupted);
    }

    #[test]
    fn attacks_shrink_to_one_minimal_schedules() {
        let report = run_campaign(&greedy(), &single_shot(), &opts(2)).unwrap();
        assert_eq!(report.enumerated, 14);
        let (attacks, _, inconclusive) = report.tally();
        assert!(attacks > 2, "pairs containing duplicate/replay also fail");
        assert_eq!(inconclusive, 0);
        for (_, cex) in report.attacks() {
            // Every minimal schedule is a single unit of a
            // message-creating fault: 1-minimality stripped the padding
            // (drops, reorders, extra caps) away.
            assert_eq!(cex.schedule.total_firings(), 1, "{cex:?}");
            assert!(matches!(
                cex.schedule.clauses[0].kind,
                FaultKind::Duplicate | FaultKind::Replay
            ));
            // The witness never grows out of the spec's reach: every
            // proper prefix is a specification trace.
            assert!(!cex.trace.is_empty());
        }
        // The padded pair drop+duplicate shrank by one step.
        let padded = report
            .attacks()
            .find(|(r, _)| r.key == "drop:c:1+duplicate:c:1@1")
            .expect("pair enumerated");
        assert_eq!(padded.1.shrink_steps, 1);
        assert_eq!(padded.1.schedule.canonical_key(), "duplicate:c:1@1");
        assert_eq!(padded.1.original.canonical_key(), "drop:c:1+duplicate:c:1@1");
    }

    #[test]
    fn engine_both_early_rejects_attacks_without_changing_the_tally() {
        let trace = run_campaign(&greedy(), &single_shot(), &opts(2)).unwrap();
        assert_eq!(trace.early_rejects, 0, "single-engine runs never skip");

        let mut o = opts(2);
        o.engine = Engine::Both;
        let both = run_campaign(&greedy(), &single_shot(), &o).unwrap();
        // Every attacking classification (schedule decisions and shrink
        // probes alike) was settled by the bisimulation check alone.
        assert!(both.early_rejects > 0, "{both:?}");
        assert_eq!(both.tally(), trace.tally());
        assert_ne!(both.identity, trace.identity, "engine is digested");
        for (t, b) in trace.results.iter().zip(&both.results) {
            assert_eq!(t.key, b.key);
            match (&t.outcome, &b.outcome) {
                (ScheduleOutcome::Attack(tc), ScheduleOutcome::Attack(bc)) => {
                    assert_eq!(tc.schedule, bc.schedule, "same minimal schedule");
                    assert_eq!(tc.trace.len(), bc.trace.len(), "same witness length");
                }
                (t, b) => assert_eq!(
                    std::mem::discriminant(t),
                    std::mem::discriminant(b),
                    "{t:?} vs {b:?}"
                ),
            }
        }

        let mut o = opts(2);
        o.engine = Engine::Bisim;
        let bisim = run_campaign(&greedy(), &single_shot(), &o).unwrap();
        assert_eq!(bisim.early_rejects, 0, "nothing to skip without a cross-check");
        assert_eq!(bisim.tally(), trace.tally());
    }

    #[test]
    fn budget_exhaustion_is_inconclusive_not_survives() {
        let mut o = opts(1);
        o.explore.budget = Budget::unlimited().states(2);
        let report = run_campaign(&greedy(), &single_shot(), &o).unwrap();
        let (attacks, survives, inconclusive) = report.tally();
        assert_eq!((attacks, survives), (0, 0));
        assert_eq!(inconclusive, 4, "{report:?}");
        for r in &report.results {
            match &r.outcome {
                ScheduleOutcome::Inconclusive { reason } => {
                    assert!(reason.contains("budget exhausted"), "{reason}");
                }
                other => panic!("expected inconclusive, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_panics_poison_single_schedules_without_aborting() {
        let mut o = opts(1);
        o.explore.panic_after_states = Some(0);
        let report = run_campaign(&greedy(), &single_shot(), &o).unwrap();
        assert_eq!(report.results.len(), 4, "the campaign ran to completion");
        for r in &report.results {
            match &r.outcome {
                ScheduleOutcome::Inconclusive { reason } => {
                    assert!(reason.contains("worker panic"), "{reason}");
                    assert!(reason.contains("test hook"), "{reason}");
                }
                other => panic!("expected inconclusive, got {other:?}"),
            }
        }
    }

    #[test]
    fn interrupted_campaigns_resume_to_the_same_report() {
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        let uninterrupted = run_campaign(&greedy(), &single_shot(), &opts(1)).unwrap();

        let mut first = opts(1);
        first.checkpoint_path = Some(path.clone());
        first.checkpoint_every = 1;
        first.stop_after = Some(2);
        let partial = run_campaign(&greedy(), &single_shot(), &first).unwrap();
        assert!(partial.interrupted);
        assert_eq!(partial.results.len(), 2);
        assert_eq!(partial.fresh, 2);

        let mut second = opts(1);
        second.checkpoint_path = Some(path.clone());
        second.resume = true;
        let resumed = run_campaign(&greedy(), &single_shot(), &second).unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.resumed, 2);
        assert_eq!(resumed.fresh, 2);
        assert_eq!(resumed.results, uninterrupted.results, "same final summary");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoints_from_a_different_campaign_are_rejected() {
        let path = tmp("identity");
        let _ = std::fs::remove_file(&path);
        let mut first = opts(1);
        first.checkpoint_path = Some(path.clone());
        run_campaign(&greedy(), &single_shot(), &first).unwrap();

        // Same path, different depth: the identity digest differs.
        let mut second = opts(2);
        second.checkpoint_path = Some(path.clone());
        second.resume = true;
        let err = run_campaign(&greedy(), &single_shot(), &second).unwrap_err();
        assert!(
            matches!(&err, VerifyError::Checkpoint { reason } if reason.contains("identity")),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn schedule_ranges_partition_the_campaign_without_overlap() {
        // The fleet coordinator splits a campaign into work units of
        // contiguous enumeration indices.  Concatenating the unit
        // reports must reproduce the single-process report exactly.
        let whole = run_campaign(&greedy(), &single_shot(), &opts(2)).unwrap();
        let total = whole.enumerated;
        let mut stitched = Vec::new();
        let unit = 5;
        let mut offset = 0;
        while offset < total {
            let mut o = opts(2);
            o.schedule_range = Some((offset, unit));
            let part = run_campaign(&greedy(), &single_shot(), &o).unwrap();
            assert!(!part.interrupted, "a finished unit is a clean finish");
            assert_eq!(part.enumerated, total, "units see the full space");
            assert!(part.results.len() <= unit);
            stitched.extend(part.results);
            offset += unit;
        }
        assert_eq!(stitched, whole.results, "units stitch back losslessly");

        // A range past the end decides nothing but still succeeds.
        let mut o = opts(2);
        o.schedule_range = Some((total + 10, unit));
        let empty = run_campaign(&greedy(), &single_shot(), &o).unwrap();
        assert!(empty.results.is_empty());
    }

    #[test]
    fn schedule_keys_round_trip_through_parsing() {
        let spec = FaultSpec::single(FaultKind::Drop, "c", 1)
            .compose(&FaultSpec::single(FaultKind::Replay, "d", 3));
        let parsed = parse_schedule_key(&spec.canonical_key()).unwrap();
        assert_eq!(parsed, spec.canonical());
        assert!(parse_schedule_key("drop:c:1").is_err(), "no position");
        assert!(parse_schedule_key("mangle:c:1@1").is_err(), "bad kind");
        // The empty schedule (attack without faults) round-trips too.
        let empty = parse_schedule_key("@1").unwrap();
        assert!(empty.clauses.is_empty());
    }

    #[test]
    fn resume_without_a_path_is_a_checkpoint_error() {
        let mut o = opts(1);
        o.resume = true;
        let err = run_campaign(&greedy(), &single_shot(), &o).unwrap_err();
        assert!(matches!(err, VerifyError::Checkpoint { .. }), "{err:?}");
    }
}
