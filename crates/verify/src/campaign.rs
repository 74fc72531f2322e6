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
//! 2. **the witnessing trace** — needs no pass of its own: weak trace
//!    sets are prefix-closed and the classifier ([`trace_preorder`] or
//!    the bisimulation engine) already reports a shortest trace the
//!    specification cannot produce under the minimal schedule, so every
//!    proper prefix of the witness is a specification trace.
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
//! Schedules are classified side by side: up to `explore.workers` at
//! once, each in one single-threaded exploration that keeps only what
//! the decision reads (see [`CampaignOptions::explore`]).  Results,
//! counts and checkpoints are those of the one-worker run.
//!
//! [`trace_preorder`]: crate::trace_preorder

use std::collections::HashMap;
use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use spi_semantics::{FaultClause, FaultKind, FaultSpec};
use spi_syntax::{Name, Process};

use crate::faultsim::multi_fault_schedules;
use crate::jsonlite::Json;
use crate::verifier::cross_check;
use crate::{
    bisim_preorder_sound, trace_preorder_sound, Engine, ExploreOptions, Explorer, TraceVerdict,
    VerifyError,
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
    /// also bound the campaign loop itself.  `workers` is how many
    /// schedules are classified at once: each exploration runs in one
    /// thread, and the report is identical for every worker count.
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
    // The work unit: the end of its range is a clean completion, not an
    // interruption, since the remaining schedules belong to other units.
    let (offset, count) = opts.schedule_range.unwrap_or((0, usize::MAX));
    let unit = schedules
        .iter()
        .take(offset.saturating_add(count))
        .skip(offset);
    // What the loop below decides fresh unless interrupted: the unit's
    // schedules without a checkpointed result, up to `stop_after`.
    let pending = unit
        .clone()
        .filter(|sched| !prior.contains_key(&sched.canonical_key()))
        .take(opts.stop_after.unwrap_or(usize::MAX));
    let board = Board::new(concrete, spec, opts, pending.collect());

    let mut results: Vec<ScheduleResult> = Vec::new();
    let mut resumed = 0usize;
    let mut fresh = 0usize;
    let mut early_rejects = 0u64;
    let mut interrupted = false;
    std::thread::scope(|scope| {
        // However the loop ends, no helper claims another schedule.
        let _closed = CloseOnDrop(&board);
        let unclaimed = board.lock().unclaimed.len();
        for _ in 1..opts.explore.workers.min(unclaimed) {
            scope.spawn(|| board.help());
        }
        for sched in unit {
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
            let outcome = decide_schedule(&key, sched, &board, &mut early_rejects)?;
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
        Ok::<(), VerifyError>(())
    })?;
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
#[derive(Debug, Clone, PartialEq, Eq)]
enum Classified {
    Attack { witness: Vec<String> },
    Survives { checked: usize },
    Inconclusive { reason: String },
}

impl From<TraceVerdict> for Classified {
    fn from(verdict: TraceVerdict) -> Classified {
        match verdict {
            TraceVerdict::Holds { checked } => Classified::Survives { checked },
            TraceVerdict::Fails { witness } => Classified::Attack { witness },
            TraceVerdict::Inconclusive { exhausted } => Classified::Inconclusive {
                reason: format!("{exhausted} budget exhausted mid-schedule"),
            },
        }
    }
}

/// One classification as run: the verdict and whether the bisimulation
/// fast path settled it (an early reject), the machine error, or the
/// panic it raised.
type Run = std::thread::Result<Result<(Classified, bool), VerifyError>>;

/// Where one schedule's classification stands.
enum Slot {
    /// A schedule the loop will decide, not claimed yet.
    Pending,
    /// Being classified by some thread.
    Running,
    /// Classified; `counted` once the loop has taken its early reject
    /// into [`CampaignReport::early_rejects`].
    Done { run: Run, counted: bool },
}

/// What a [`Board`] guards with its lock.
struct Slots {
    /// The schedules still to claim, shallowest first: a claim pops the
    /// deepest one (most unit firings, the most expensive explorations),
    /// the first enumerated among equals.
    unclaimed: Vec<FaultSpec>,
    /// Every classification of the run by canonical schedule key — the
    /// memo the shrinker shares with the loop.
    slots: HashMap<String, Slot>,
    closed: bool,
}

/// The classifications of one campaign run, shared by the calling thread
/// and `workers - 1` helper threads.  The helpers classify pending
/// schedules ahead of the loop, deepest first, each in one
/// single-threaded exploration; the calling thread decides, shrinks,
/// counts and checkpoints in enumeration order exactly as alone, and
/// whenever the classification it needs is still running elsewhere it
/// claims another one rather than idle.  Each key is classified once,
/// and classification is a deterministic function of the schedule, so
/// the report does not depend on the worker count.
struct Board<'a> {
    concrete: &'a Process,
    spec: &'a Process,
    opts: &'a CampaignOptions,
    state: Mutex<Slots>,
    /// Signalled whenever a classification finishes.
    finished: Condvar,
}

impl<'a> Board<'a> {
    fn new(
        concrete: &'a Process,
        spec: &'a Process,
        opts: &'a CampaignOptions,
        pending: Vec<&FaultSpec>,
    ) -> Board<'a> {
        let slots = pending
            .iter()
            .map(|sched| (sched.canonical_key(), Slot::Pending))
            .collect();
        let mut unclaimed: Vec<FaultSpec> = pending.into_iter().rev().cloned().collect();
        // Stable: among equals the first enumerated stays last, so it
        // is claimed first.
        unclaimed.sort_by_key(FaultSpec::total_firings);
        Board {
            concrete,
            spec,
            opts,
            state: Mutex::new(Slots {
                unclaimed,
                slots,
                closed: false,
            }),
            finished: Condvar::new(),
        }
    }

    /// Classifications run unlocked and every update under the lock is
    /// one insert or flag, so a poisoned lock still guards valid slots.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper thread: classify pending schedules until none is left
    /// or the board closes.
    fn help(&self) {
        let mut state = self.lock();
        while let Some((key, sched)) = self.claim(&mut state) {
            state = self.run(state, key, &sched);
        }
    }

    /// Claims the deepest pending schedule, unless the board is closed
    /// or the campaign's deadline or cancellation flag has tripped.
    fn claim(&self, state: &mut Slots) -> Option<(String, FaultSpec)> {
        if state.closed || overrun(&self.opts.explore) {
            return None;
        }
        while let Some(sched) = state.unclaimed.pop() {
            let key = sched.canonical_key();
            if let Some(slot @ Slot::Pending) = state.slots.get_mut(&key) {
                *slot = Slot::Running;
                return Some((key, sched));
            }
        }
        None
    }

    /// Classifies a claimed schedule with the board unlocked, records
    /// the run (a panic included) under `key` and wakes the calling
    /// thread.
    fn run<'g>(
        &'g self,
        state: MutexGuard<'g, Slots>,
        key: String,
        sched: &FaultSpec,
    ) -> MutexGuard<'g, Slots> {
        drop(state);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            classify(self.concrete, self.spec, self.opts, sched)
        }));
        let mut state = self.lock();
        let done = Slot::Done {
            run,
            counted: false,
        };
        state.slots.insert(key, done);
        self.finished.notify_all();
        state
    }

    /// The classification of `sched` (whose canonical key is `key`), for
    /// the calling thread: the memoized one, the one a helper is running
    /// (classifying other pending schedules meanwhile), or a fresh one.
    /// Counts its early reject the first time the loop takes it, and
    /// re-raises its error or panic where the sequential loop met it.
    fn classify(
        &self,
        key: &str,
        sched: &FaultSpec,
        early_rejects: &mut u64,
    ) -> Result<Classified, VerifyError> {
        let mut state = self.lock();
        loop {
            match state.slots.get(key) {
                Some(Slot::Done { .. }) => break,
                Some(Slot::Running) => {
                    state = match self.claim(&mut state) {
                        Some((other, sched)) => self.run(state, other, &sched),
                        None => self
                            .finished
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner),
                    };
                }
                Some(Slot::Pending) | None => {
                    state.slots.insert(key.to_string(), Slot::Running);
                    state = self.run(state, key.to_string(), sched);
                }
            }
        }
        let Some(Slot::Done { run, counted }) = state.slots.get_mut(key) else {
            unreachable!("the loop above left {key} classified");
        };
        match run {
            Ok(Ok((classified, early))) => {
                if !*counted {
                    *counted = true;
                    *early_rejects += u64::from(*early);
                }
                Ok(classified.clone())
            }
            Ok(Err(e)) => Err(e.clone()),
            Err(_) => {
                let Some(Slot::Done {
                    run: Err(panic), ..
                }) = state.slots.remove(key)
                else {
                    unreachable!("matched above");
                };
                drop(state);
                std::panic::resume_unwind(panic)
            }
        }
    }
}

/// Closes its board when dropped, so helpers stop claiming however the
/// campaign loop ends (finished, interrupted, failed or unwinding).
struct CloseOnDrop<'b, 'a>(&'b Board<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
    }
}

/// Classifies one schedule: explores both systems in one thread each,
/// releasing state payloads as they are expanded, and decides the
/// preorder.  The flag is `true` when [`Engine::Both`]'s bisimulation
/// fast path settled it.
fn classify(
    concrete: &Process,
    spec: &Process,
    opts: &CampaignOptions,
    sched: &FaultSpec,
) -> Result<(Classified, bool), VerifyError> {
    let explorer = Explorer::new(schedule_opts(opts, sched));
    let explore = |p: &Process| match explorer.explore_to_decide(p) {
        Ok(lts) => Ok(Ok(lts)),
        // A poisoned successor computation condemns this schedule only.
        Err(VerifyError::WorkerPanic { payload }) => Ok(Err(format!("worker panic: {payload}"))),
        Err(e) => Err(e),
    };
    let concrete_lts = match explore(concrete)? {
        Ok(lts) => lts,
        Err(reason) => return Ok((Classified::Inconclusive { reason }, false)),
    };
    let spec_lts = match explore(spec)? {
        Ok(lts) => lts,
        Err(reason) => return Ok((Classified::Inconclusive { reason }, false)),
    };
    let mut early = false;
    let verdict = match opts.engine {
        Engine::Trace => trace_preorder_sound(&concrete_lts, &spec_lts, opts.max_visible),
        Engine::Bisim => bisim_preorder_sound(&concrete_lts, &spec_lts, opts.max_visible),
        Engine::Both => {
            // Fast path: a (sound) bisimulation failure implies a
            // trace-preorder failure, so an attack verdict here skips
            // the full trace-set comparison for this schedule.
            let b = bisim_preorder_sound(&concrete_lts, &spec_lts, opts.max_visible);
            if matches!(b, TraceVerdict::Fails { .. }) {
                early = true;
                b
            } else {
                cross_check(
                    trace_preorder_sound(&concrete_lts, &spec_lts, opts.max_visible),
                    b,
                )?
            }
        }
    };
    Ok((verdict.into(), early))
}

/// The exploration options of one schedule: the schedule installed, and
/// one thread, since the campaign runs its schedules side by side.
fn schedule_opts(opts: &CampaignOptions, sched: &FaultSpec) -> ExploreOptions {
    ExploreOptions {
        faults: (!sched.clauses.is_empty()).then(|| sched.clone()),
        workers: 1,
        ..opts.explore.clone()
    }
}

fn decide_schedule(
    key: &str,
    sched: &FaultSpec,
    board: &Board<'_>,
    early_rejects: &mut u64,
) -> Result<ScheduleOutcome, VerifyError> {
    match board.classify(key, sched, early_rejects)? {
        Classified::Survives { checked } => Ok(ScheduleOutcome::Survives {
            traces_checked: checked,
        }),
        Classified::Inconclusive { reason } => Ok(ScheduleOutcome::Inconclusive { reason }),
        Classified::Attack { witness } => {
            let (minimal, trace, shrink_steps) =
                shrink_schedule(sched, witness, board, early_rejects)?;
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
    original: &FaultSpec,
    first_witness: Vec<String>,
    board: &Board<'_>,
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
                board.classify(&cand.canonical_key(), &cand, early_rejects)?
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

/// 64-bit FNV-1a (the build is offline, so no hashing crates): the
/// campaign identity here, and the server's content digests and the
/// conformance corpus's reproducer filenames.
#[must_use]
pub fn fnv64(text: &str) -> u64 {
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
fn parse_schedule_key(key: &str) -> Result<FaultSpec, String> {
    let (clauses_s, bits) = key
        .rsplit_once('@')
        .ok_or_else(|| format!("schedule key {key:?} lacks an @position"))?;
    let position = bits
        .parse()
        .map_err(|_| format!("schedule key {key:?} has bad position bits"))?;
    let clauses = if clauses_s.is_empty() {
        Vec::new()
    } else {
        clauses_s
            .split('+')
            .map(|c| {
                c.parse::<FaultClause>()
                    .map_err(|e| format!("schedule key {key:?}: {e}"))
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

    /// Decodes a record [`ScheduleResult::to_json`] wrote: the one
    /// decoder for checkpoint resume and the fleet's unit merge.
    /// Fields it does not know are ignored.
    ///
    /// # Errors
    ///
    /// Names the damage: a missing or malformed schedule key, an
    /// unknown outcome, or an attack without its minimal schedule.
    pub fn from_json(item: &Json) -> Result<ScheduleResult, String> {
        let key = item
            .get("schedule")
            .and_then(Json::as_str)
            .ok_or("a schedule record lacks its schedule key")?;
        let schedule = parse_schedule_key(key)?;
        let count = |field: &str| {
            let n = item.get(field).and_then(Json::as_int);
            n.and_then(|n| usize::try_from(n).ok()).unwrap_or(0)
        };
        let outcome = match item.get("outcome").and_then(Json::as_str) {
            Some("survives") => ScheduleOutcome::Survives {
                traces_checked: count("traces_checked"),
            },
            Some("inconclusive") => ScheduleOutcome::Inconclusive {
                reason: item.get("reason").and_then(Json::as_str).unwrap_or("unknown").to_string(),
            },
            Some("attack") => {
                let minimal = item
                    .get("minimal")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("attack entry {key:?} lacks its minimal key"))?;
                let trace = item
                    .get("trace")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .map(|t| {
                        let t = t.as_str().map(str::to_owned);
                        t.ok_or_else(|| format!("attack entry {key:?} has a bad trace"))
                    })
                    .collect::<Result<Vec<String>, _>>()?;
                ScheduleOutcome::Attack(Box::new(MinimalCounterexample {
                    original: schedule.clone(),
                    schedule: parse_schedule_key(minimal)?,
                    trace,
                    shrink_steps: count("shrink_steps"),
                }))
            }
            other => return Err(format!("unknown outcome {other:?} in {key:?}")),
        };
        Ok(ScheduleResult {
            key: key.to_string(),
            schedule,
            outcome,
        })
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
        let result = ScheduleResult::from_json(item).map_err(chk)?;
        out.insert(result.key.clone(), result);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use spi_syntax::parse;

    #[test]
    fn campaign_identities_are_pinned() {
        // Checkpoints persist these digests, so their bytes must not
        // move: the paper's Pm2 against Pm under the verifier defaults,
        // under the bisimulation engine, and with non-default bounds.
        let pm2 = parse("(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)")
            .expect("parses");
        let pm = parse("(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)")
            .expect("parses");
        for (verifier, pinned) in [
            (crate::Verifier::new(["c"]), "fnv:c0d4f11426c1c0b7"),
            (
                crate::Verifier::new(["c"]).engine(Engine::Bisim),
                "fnv:677098d48c2e513e",
            ),
            (
                crate::Verifier::new(["c"]).no_intruder().sessions(3),
                "fnv:7e778dcfe59574a9",
            ),
        ] {
            let opts = verifier.campaign_options(2);
            let (concrete, spec) = (verifier.under_attack(&pm2), verifier.under_attack(&pm));
            assert_eq!(campaign_identity(&concrete, &spec, &opts), pinned);
        }
    }

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
    fn machine_errors_surface_alike_at_any_worker_count() {
        // An open process fails every exploration; with helpers the
        // failures are met ahead of the loop, yet the campaign still
        // returns the first schedule's error and no report.
        let open = Process::output(
            spi_syntax::Term::name("c"),
            spi_syntax::Term::var("x"),
            Process::Nil,
        );
        let solo = run_campaign(&open, &single_shot(), &opts(2)).unwrap_err();
        let mut o = opts(2);
        o.explore.workers = 3;
        let fleet = run_campaign(&open, &single_shot(), &o).unwrap_err();
        assert!(matches!(solo, VerifyError::Machine(_)), "{solo:?}");
        assert_eq!(solo, fleet);
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
    fn schedule_records_decode_to_what_was_encoded() {
        let mut starved = opts(1);
        starved.explore.budget = Budget::unlimited().states(2);
        let decided = run_campaign(&greedy(), &single_shot(), &opts(2)).unwrap();
        let undecided = run_campaign(&greedy(), &single_shot(), &starved).unwrap();
        let records: Vec<&ScheduleResult> =
            decided.results.iter().chain(&undecided.results).collect();
        for kind in ["attack", "survives", "inconclusive"] {
            let outcome = |r: &&ScheduleResult| {
                r.to_json().get("outcome").and_then(Json::as_str) == Some(kind)
            };
            assert!(records.iter().any(outcome), "no {kind} record");
        }
        for r in records {
            assert_eq!(ScheduleResult::from_json(&r.to_json()).as_ref(), Ok(r));
        }
    }

    #[test]
    fn classification_releases_every_payload_and_keeps_the_verdict() {
        let o = opts(2);
        let drop = FaultSpec::single(FaultKind::Drop, "c", 1);
        let padded = drop.compose(&FaultSpec::single(FaultKind::Duplicate, "c", 1));
        for sched in [drop, padded] {
            let explorer = Explorer::new(schedule_opts(&o, &sched));
            let mut kept = Vec::new();
            for p in [greedy(), single_shot()] {
                let full = explorer.explore(&p).unwrap();
                let released = explorer.explore_to_decide(&p).unwrap();
                assert!(full.keeps_payloads());
                assert!(!released.keeps_payloads());
                assert_eq!(
                    released.decision_view(),
                    full.decision_view(),
                    "same LTS otherwise"
                );
                kept.push(full);
            }
            let full = trace_preorder_sound(&kept[0], &kept[1], o.max_visible);
            let (classified, _) = classify(&greedy(), &single_shot(), &o, &sched).unwrap();
            assert_eq!(classified, Classified::from(full), "{sched:?}");
        }
        // A budget cut leaves a frontier, whose payloads go too.
        let mut starved = opts(1);
        starved.explore.budget = Budget::unlimited().states(2);
        let cut = Explorer::new(starved.explore)
            .explore_to_decide(&greedy())
            .unwrap();
        assert!(!cut.frontier.is_empty());
        assert!(!cut.keeps_payloads());
    }

    #[test]
    fn resume_without_a_path_is_a_checkpoint_error() {
        let mut o = opts(1);
        o.resume = true;
        let err = run_campaign(&greedy(), &single_shot(), &o).unwrap_err();
        assert!(matches!(err, VerifyError::Checkpoint { .. }), "{err:?}");
    }
}
