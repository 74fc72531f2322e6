//! The fleet coordinator: sharded routing with failure handling.
//!
//! A coordinator speaks the *same* newline-delimited JSON protocol as
//! a single `spi serve` worker — clients need not know which they are
//! talking to — and runs the same front end ([`crate::service`]):
//! reactor, admission, priority queue, worker pool, drain and latency
//! histograms.  Only the executor behind the pool differs.  It holds
//! no result cache; it routes each job by content digest to a worker
//! on a consistent-hash [`Ring`], so each worker's result cache holds
//! a distinct shard of the question space, and relays the worker's
//! envelope verbatim:
//!
//! ```text
//! client ──▶ coordinator ──digest──▶ ring ──▶ worker A (cache shard A)
//!                 │                    ├────▶ worker B (cache shard B)
//!                 │ campaign           └────▶ worker C (cache shard C)
//!                 ▼
//!          split into work units ──▶ dispatcher per worker (work-stealing
//!          queue; a dead worker's units re-dispatch — content-addressed,
//!          so a retry is idempotent) ──▶ stitch unit reports back together
//! ```
//!
//! Failure handling, in order of escalation:
//! * a **rejected** answer (queue full, draining) tries the next ring
//!   candidate — exactly the node the key would move to if the first
//!   died;
//! * a **dial or read failure** marks the worker dead immediately and
//!   moves on; a worker whose heartbeats stop counts as dead from then
//!   on, so silent deaths between requests are caught too;
//! * a **slow** worker gets a hedged second request to the next
//!   candidate once the wait passes the observed p99 dispatch latency
//!   (never below the configured floor), first answer wins;
//! * **quorum loss** degrades gracefully: the coordinator runs the job
//!   on its own local engine, marking the envelope `"via":"local"`.
//!
//! Worker progress heartbeats feed the ticket's progress counters, so
//! a client that asked for `progress_ms` gets heartbeats through the
//! fleet too.
//!
//! With `--chaos <seed>` the coordinator injects a deterministic
//! [`ChaosPlan`] against itself (worker kills, heartbeat deafness,
//! partitioned dials) — same seed, same failures, same points in the
//! request sequence.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use spi_semantics::FaultKind;
use spi_verify::faultsim::multi_fault_schedules;
use spi_verify::jsonlite::Json;
use spi_verify::CampaignReport;

use crate::chaos::{ChaosEvent, ChaosPlan};
use crate::client::Client;
use crate::protocol::{
    campaign_body, campaign_report, error_response, ok_response, JobRequest, Mode, Request,
};
use crate::service::{
    job_reply, start, Control, Engine, EngineOutcome, Executor, Histogram, Ran, RunControl,
    ServerHandle, ServerOptions,
};
use crate::shard::Ring;
use crate::snapshot::Entries;
use crate::Membership;

/// Fleet configuration (the `spi fleet` flags beyond the front-end
/// ones in [`ServerOptions`]).
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Minimum alive workers for fleet routing; below it, jobs run on
    /// the coordinator's local engine.
    pub quorum: usize,
    /// A worker whose last heartbeat is older than this is dead.
    pub fail_after_ms: u64,
    /// Schedules per campaign work unit.
    pub unit_size: usize,
    /// Hedged-request floor: a second request goes to the next ring
    /// candidate after `max(this, observed p99 dispatch latency)`.
    pub hedge_after_ms: u64,
    /// Worker dial timeout.
    pub connect_timeout_ms: u64,
    /// Worker response timeout.
    pub read_timeout_ms: u64,
    /// Full retry rounds (with exponential backoff) across the ring
    /// before degrading to local execution.
    pub retry_rounds: usize,
    /// Chaos seed; `None` runs without injected fleet faults.
    pub chaos: Option<u64>,
    /// Request horizon a chaos plan is expanded over.
    pub chaos_horizon: usize,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            quorum: 1,
            fail_after_ms: 1500,
            unit_size: 4,
            hedge_after_ms: 500,
            connect_timeout_ms: 1000,
            read_timeout_ms: 120_000,
            retry_rounds: 3,
            chaos: None,
            chaos_horizon: 64,
        }
    }
}

#[derive(Debug, Default)]
struct ChaosState {
    /// Heartbeats are ignored while the request counter is below this.
    deaf_until: u64,
    /// `(worker, until request index)` active one-way partitions.
    partitions: Vec<(String, u64)>,
}

/// The coordinator's executor.
struct Coord {
    engine: Arc<dyn Engine>,
    opts: CoordinatorOptions,
    members: Membership,
    counters: FleetCounters,
    chaos: Option<ChaosPlan>,
    chaos_state: Mutex<ChaosState>,
}

/// The coordinator's own `stats` counters.
#[derive(Debug, Default)]
struct FleetCounters {
    /// Jobs dispatched (singleflight leaders and `no_cache` jobs) — the
    /// chaos plan's clock.
    requests: AtomicU64,
    routed: AtomicU64,
    local_runs: AtomicU64,
    retried: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    /// Hedges *not* fired because the primary proved alive through a
    /// progress heartbeat while the hedge timer ran.
    hedges_deferred: AtomicU64,
    redispatched: AtomicU64,
    /// Cache entries pushed to new ring owners when workers announced
    /// a drain (`leave`).
    handoff_entries: AtomicU64,
    dispatch_latency: Histogram,
}

/// Starts a coordinator on the shared front end configured by
/// `front`.  Workers announce themselves afterwards with
/// `{"op":"join","addr":…}` heartbeats.
///
/// # Errors
///
/// Fails when the address cannot be bound or the epoll instance cannot
/// be created.
pub fn coordinate(
    engine: Arc<dyn Engine>,
    front: ServerOptions,
    opts: CoordinatorOptions,
) -> Result<ServerHandle, String> {
    let chaos = opts.chaos.map(|seed| ChaosPlan::generate(seed, opts.chaos_horizon));
    if let Some(plan) = &chaos {
        eprintln!(
            "spi-fleet: chaos plan {}",
            plan.to_json().render_compact()
        );
    }
    let coord = Arc::new(Coord {
        engine,
        members: Membership::new(Duration::from_millis(opts.fail_after_ms)),
        counters: FleetCounters::default(),
        chaos,
        chaos_state: Mutex::new(ChaosState::default()),
        opts,
    });
    start(coord as Arc<dyn Executor>, front)
}

impl Executor for Coord {
    fn run(&self, job: &JobRequest, digest: &str, ctl: &RunControl) -> Ran {
        let idx = self.counters.requests.fetch_add(1, Ordering::SeqCst);
        apply_chaos(self, idx);
        let Some(line) = dispatch_job(self, idx, job, digest, ctl) else {
            return Ran::Drained;
        };
        // The coordinator holds no cache, so parked duplicates take the
        // leader's answer — only a complete one: a failure leaves them
        // to lead a retry, and so does a job with its own cut-off, since
        // neither `timeout_secs` nor `deadline_ms` is in the digest and
        // a reply they cut short is no answer to a duplicate without.
        let own_cutoff = job.timeout_secs.is_some() || job.deadline_ms.is_some();
        let share = status_of(&line).as_deref() == Some("ok") && !own_cutoff;
        Ran::Reply { line, share }
    }

    fn control(self: Arc<Self>, request: Request) -> Control {
        Control::Now(match request {
            Request::Join { addr, capacity } => handle_join(&self, &addr, capacity),
            Request::Leave { addr, cache } => {
                // Off the ring at once; the hand-off dials other
                // workers, so it runs on the pool, never on the reactor.
                self.members.mark_dead(&addr);
                return Control::Pool(
                    "leave",
                    Box::new(move || handle_leave(&self, &addr, cache.as_ref())),
                );
            }
            Request::Gossip => error_response(
                "gossip",
                "the coordinator holds no result cache; gossip with a worker",
            ),
            _ => error_response(
                "gossip-push",
                "the coordinator holds no result cache; push to a worker",
            ),
        })
    }

    fn pool_size(&self, configured: usize) -> usize {
        configured.max(self.members.capacity())
    }

    fn stats(&self, fields: &mut Vec<(String, Json)>) {
        let (alive, dead) = self.members.counts();
        let load = |c: &AtomicU64| Json::count(usize::try_from(c.load(Ordering::SeqCst)).unwrap_or(0));
        // The shared `collapsed` count, under the name coordinator
        // clients read it by.
        let collapsed = fields
            .iter()
            .find(|(k, _)| k == "collapsed")
            .map_or(Json::count(0), |(_, v)| v.clone());
        fields.extend([
            ("role".to_string(), Json::str("coordinator")),
            ("workers_alive".to_string(), Json::count(alive)),
            ("workers_dead".to_string(), Json::count(dead)),
            ("requests".to_string(), load(&self.counters.requests)),
            ("routed".to_string(), load(&self.counters.routed)),
            ("local_runs".to_string(), load(&self.counters.local_runs)),
            ("retried".to_string(), load(&self.counters.retried)),
            ("hedges".to_string(), load(&self.counters.hedges)),
            ("hedge_wins".to_string(), load(&self.counters.hedge_wins)),
            ("hedges_deferred".to_string(), load(&self.counters.hedges_deferred)),
            ("redispatched".to_string(), load(&self.counters.redispatched)),
            ("handoff_entries".to_string(), load(&self.counters.handoff_entries)),
            ("flight_collapsed".to_string(), collapsed),
            ("dispatch_latency".to_string(), self.counters.dispatch_latency.to_json()),
        ]);
        if let Some(plan) = &self.chaos {
            fields.push(("chaos".to_string(), plan.to_json()));
        }
    }
}

/// A worker announcing its drain, optionally handing over its cache
/// shard.  The caller has already taken it off the ring (no waiting
/// for the failure detector); this pushes each handed-over entry to the
/// worker that now owns its digest — so a drain-then-kill loses no
/// warm cache entry and the first post-drain request is still a hit.
fn handle_leave(coord: &Coord, addr: &str, cache: Option<&Json>) -> Json {
    let entries = match cache.map(crate::gossip::parse_gossip).transpose() {
        Err(e) => return error_response("leave", &format!("refusing the handoff: {e}")),
        Ok(entries) => entries.unwrap_or_default(),
    };
    let idx = coord.counters.requests.load(Ordering::SeqCst);
    let survivors = reachable_workers(coord, idx).into_iter().filter(|a| a != addr);
    // Route each entry to the worker its digest now lands on, grouping
    // so each new owner gets one digest-guarded push.
    let ring = Ring::new(survivors);
    let mut per_owner: BTreeMap<String, Entries> = BTreeMap::new();
    for entry in entries {
        if let Some(owner) = ring.candidates(&entry.0).next() {
            per_owner.entry(owner.to_string()).or_default().push(entry);
        }
    }
    let connect = Duration::from_millis(coord.opts.connect_timeout_ms);
    let read = Duration::from_millis(coord.opts.read_timeout_ms);
    let (mut handed_off, mut targets) = (0usize, 0usize);
    for (owner, batch) in per_owner {
        match crate::gossip::push_to(&owner, &batch, connect, read) {
            Ok(_) => {
                handed_off += batch.len();
                targets += 1;
            }
            Err(_) => coord.members.mark_dead(&owner),
        }
    }
    let handed = u64::try_from(handed_off).unwrap_or(0);
    coord.counters.handoff_entries.fetch_add(handed, Ordering::SeqCst);
    ok_response(
        "leave",
        None,
        false,
        Json::Obj(vec![
            ("handed_off".to_string(), Json::count(handed_off)),
            ("targets".to_string(), Json::count(targets)),
        ]),
    )
}

/// The most jobs one `join` may claim its worker admits: each one can
/// hold a coordinator pool thread, so a bogus announcement must not
/// spawn without bound.
const MAX_JOIN_CAPACITY: usize = 1024;

/// A worker's heartbeat.  Its announced capacity (a worker with default
/// options when it names none) sizes the coordinator's pool.
fn handle_join(coord: &Coord, addr: &str, capacity: Option<usize>) -> Json {
    let idx = coord.counters.requests.load(Ordering::SeqCst);
    let deaf = coord
        .chaos_state
        .lock()
        .expect("chaos lock")
        .deaf_until
        > idx;
    if deaf {
        // A dropped heartbeat answers ok (the worker cannot tell) but
        // leaves the membership table untouched, so failure detection
        // fires on perfectly healthy workers — the point of the drill.
        return ok_response(
            "join",
            None,
            false,
            Json::Obj(vec![("ignored".to_string(), Json::Bool(true))]),
        );
    }
    let capacity = capacity.unwrap_or_else(|| ServerOptions::default().capacity());
    let rejoined = coord.members.heartbeat(addr, Some(capacity.min(MAX_JOIN_CAPACITY)));
    let peers: Vec<String> = coord
        .members
        .alive()
        .into_iter()
        .filter(|a| a != addr)
        .collect();
    ok_response(
        "join",
        None,
        false,
        Json::Obj(vec![
            ("rejoined".to_string(), Json::Bool(rejoined)),
            ("peers".to_string(), Json::str_arr(peers)),
        ]),
    )
}

/// Applies every chaos event scheduled at this request index.
fn apply_chaos(coord: &Coord, idx: u64) {
    let Some(plan) = &coord.chaos else { return };
    let events: Vec<ChaosEvent> = plan
        .at(usize::try_from(idx).unwrap_or(usize::MAX))
        .cloned()
        .collect();
    for event in events {
        match event {
            ChaosEvent::KillWorker { victim } => {
                let alive = coord.members.alive();
                if alive.is_empty() {
                    continue;
                }
                let target = &alive[victim % alive.len()];
                eprintln!("spi-fleet: chaos kills {target} at request {idx}");
                // A real kill: the worker drains and exits; its
                // in-flight work answers `rejected` and re-dispatches.
                if let Ok(mut c) = Client::connect_with(
                    target,
                    Some(Duration::from_millis(coord.opts.connect_timeout_ms)),
                ) {
                    let _ = c.roundtrip(r#"{"op":"shutdown"}"#);
                }
                coord.members.mark_dead(target);
            }
            ChaosEvent::DropHeartbeats { requests } => {
                let mut state = coord.chaos_state.lock().expect("chaos lock");
                state.deaf_until = idx + u64::try_from(requests).unwrap_or(0);
            }
            ChaosEvent::Partition { victim, requests } => {
                let alive = coord.members.alive();
                if alive.is_empty() {
                    continue;
                }
                let target = alive[victim % alive.len()].clone();
                let mut state = coord.chaos_state.lock().expect("chaos lock");
                state
                    .partitions
                    .push((target, idx + u64::try_from(requests).unwrap_or(0)));
            }
        }
    }
}

/// Alive workers reachable at this request index (partitions excluded).
fn reachable_workers(coord: &Coord, idx: u64) -> Vec<String> {
    let partitioned: Vec<String> = {
        let state = coord.chaos_state.lock().expect("chaos lock");
        state
            .partitions
            .iter()
            .filter(|(_, until)| *until > idx)
            .map(|(a, _)| a.clone())
            .collect()
    };
    coord
        .members
        .alive()
        .into_iter()
        .filter(|a| !partitioned.contains(a))
        .collect()
}

/// An envelope's `status`.
fn status_of(reply: &str) -> Option<String> {
    let envelope = Json::parse(reply).ok()?;
    envelope.get("status").and_then(Json::as_str).map(str::to_owned)
}

/// Whether the node is draining: every dispatch wait gives up on it.
fn draining(ctl: &RunControl) -> bool {
    ctl.cancel.load(Ordering::SeqCst)
}

/// Campaign fan-out when worthwhile, otherwise ring routing with local
/// degradation.  `None` when a drain cut the job short.
fn dispatch_job(
    coord: &Coord,
    idx: u64,
    job: &JobRequest,
    digest: &str,
    ctl: &RunControl,
) -> Option<String> {
    if job.mode == Mode::Campaign && job.unit.is_none() {
        if let Some(response) = campaign_fanout(coord, idx, job, digest, ctl) {
            return response;
        }
    }
    match try_route(coord, idx, job, digest, ctl) {
        Ok(reply) => {
            coord.counters.routed.fetch_add(1, Ordering::SeqCst);
            Some(reply)
        }
        Err(_) if draining(ctl) => None,
        Err(_) => run_local(coord, job, digest, ctl),
    }
}

/// Routes one job through the ring with retries, backoff, and hedging.
///
/// Returns the worker's reply verbatim (its body bytes untouched) or
/// an error when no worker could be made to answer — the caller then
/// degrades to local execution.
fn try_route(
    coord: &Coord,
    idx: u64,
    job: &JobRequest,
    digest: &str,
    ctl: &RunControl,
) -> Result<String, String> {
    // Ask the worker for progress heartbeats while it runs, so a busy
    // worker is distinguishable from a dead one: heartbeats defer the
    // hedge (and keep the read timeout alive), and their counts feed
    // the ticket's own progress counters.  `progress_ms` is
    // execution-only — it never enters the digest, so the worker's
    // cache bytes are untouched.
    let mut dispatch = job.clone();
    if dispatch.progress_ms.is_none() {
        dispatch.progress_ms = Some((coord.opts.hedge_after_ms / 2).clamp(50, 1000));
    }
    let line = dispatch.wire_json().render_compact();
    let mut backoff = Duration::from_millis(10);
    for round in 0..=coord.opts.retry_rounds {
        let alive = reachable_workers(coord, idx);
        if alive.len() < coord.opts.quorum.max(1) {
            return Err("below quorum".into());
        }
        let ring = Ring::new(alive);
        let candidates: Vec<String> = ring.candidates(digest).map(str::to_owned).collect();
        for (pos, candidate) in candidates.iter().enumerate() {
            if draining(ctl) {
                return Err("coordinator draining".into());
            }
            if round > 0 || pos > 0 {
                coord.counters.retried.fetch_add(1, Ordering::SeqCst);
            }
            let backup = candidates.get(pos + 1).map(String::as_str);
            match dispatch_hedged(coord, candidate, backup, &line, ctl) {
                // ok and error both relay verbatim: an error here is a
                // deterministic request fault every node answers
                // identically.  Rejected (queue full, draining): next
                // candidate.
                Ok(reply) => {
                    if let Some("ok" | "error") = status_of(&reply).as_deref() {
                        return Ok(reply);
                    }
                }
                Err(_) => coord.members.mark_dead(candidate),
            }
        }
        if round < coord.opts.retry_rounds && !draining(ctl) {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
    }
    Err("every candidate failed or rejected".into())
}

/// Adds a worker heartbeat's advance over the highest counts this
/// dispatch has relayed so far to the ticket's progress counters.
/// Across hedged legs the high-water mark keeps the relay monotone;
/// across campaign units (one dispatch each) the counts add up.
fn relay_progress(ctl: &RunControl, beat: &str, high: &mut (u64, u64)) {
    let Some((states, schedules)) = &ctl.progress else {
        return;
    };
    let Ok(beat) = Json::parse(beat) else {
        return;
    };
    let count = |key: &str| {
        beat.get(key)
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .unwrap_or(0)
    };
    let (s, c) = (count("states_explored"), count("schedules_classified"));
    states.fetch_add(s.saturating_sub(high.0), Ordering::Relaxed);
    schedules.fetch_add(c.saturating_sub(high.1), Ordering::Relaxed);
    *high = (high.0.max(s), high.1.max(c));
}

/// What a dispatch leg reports back: liveness, then the answer.
enum DispatchMsg {
    /// The worker streamed a progress heartbeat — it is alive and
    /// working, whatever the wall clock says.  Carries the worker
    /// address and the heartbeat line.
    Progress(String, String),
    /// The leg finished (reply or transport failure).
    Final(String, Result<String, String>),
}

fn spawn_dispatch(coord: &Coord, addr: String, line: String, tx: mpsc::Sender<DispatchMsg>) {
    let connect = Duration::from_millis(coord.opts.connect_timeout_ms);
    let read = Duration::from_millis(coord.opts.read_timeout_ms);
    std::thread::spawn(move || {
        let progress_tx = tx.clone();
        let progress_addr = addr.clone();
        let result = Client::connect_with(&addr, Some(connect)).and_then(|mut c| {
            c.read_timeout(Some(read))?;
            c.roundtrip_streaming(&line, move |beat| {
                let beat = DispatchMsg::Progress(progress_addr.clone(), beat.to_string());
                let _ = progress_tx.send(beat);
            })
        });
        // The receiver may be gone (the other leg already answered).
        let _ = tx.send(DispatchMsg::Final(addr, result));
    });
}

/// One dispatch with a hedged backup: if the primary has not answered
/// *or heartbeated* by `max(hedge floor, observed p99)`, a second
/// identical request goes to `backup` and the first answer wins.
/// Duplicated work is harmless — requests are content-addressed, so
/// the slower leg lands on a cache entry or collapses in the worker's
/// singleflight.  A primary that streams progress heartbeats resets
/// the hedge timer each time: a long campaign on a healthy worker is
/// *slow*, not *stuck*, and double-firing it would waste half the
/// fleet's capacity on duplicates.  The wait runs in short slices so a
/// drain abandons the dispatch (its legs finish detached) instead of
/// holding the pool until the worker answers.
fn dispatch_hedged(
    coord: &Coord,
    primary: &str,
    backup: Option<&str>,
    line: &str,
    ctl: &RunControl,
) -> Result<String, String> {
    let started = Instant::now();
    let observed_p99_ms = coord.counters.dispatch_latency.percentile_us(99) / 1000;
    let hedge_after = Duration::from_millis(coord.opts.hedge_after_ms.max(observed_p99_ms));
    let read_limit = Duration::from_millis(coord.opts.read_timeout_ms);
    let (tx, rx) = mpsc::channel();
    spawn_dispatch(coord, primary.to_string(), line.to_string(), tx.clone());
    let mut outstanding = 1usize;
    let mut hedged = false;
    let mut wait = hedge_after;
    let mut until = started + wait;
    let mut relayed = (0u64, 0u64);
    loop {
        let slice = until.saturating_duration_since(Instant::now());
        match rx.recv_timeout(slice.min(Duration::from_millis(100))) {
            Err(mpsc::RecvTimeoutError::Timeout) if draining(ctl) => {
                return Err("coordinator draining".into());
            }
            Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < until => continue,
            Ok(DispatchMsg::Progress(addr, beat)) => {
                coord.members.heartbeat(&addr, None);
                relay_progress(ctl, &beat, &mut relayed);
                if !hedged && addr == primary {
                    // Alive and working: push the hedge out by a full
                    // window rather than double-firing on it.
                    coord.counters.hedges_deferred.fetch_add(1, Ordering::SeqCst);
                }
            }
            Ok(DispatchMsg::Final(addr, Ok(reply))) => {
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                coord.counters.dispatch_latency.record_us(us);
                if hedged && addr != primary {
                    coord.counters.hedge_wins.fetch_add(1, Ordering::SeqCst);
                }
                return Ok(reply);
            }
            Ok(DispatchMsg::Final(addr, Err(e))) => {
                coord.members.mark_dead(&addr);
                outstanding -= 1;
                if outstanding == 0 {
                    return Err(e);
                }
                wait = read_limit;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !hedged {
                    hedged = true;
                    if let Some(b) = backup {
                        coord.counters.hedges.fetch_add(1, Ordering::SeqCst);
                        outstanding += 1;
                        spawn_dispatch(coord, b.to_string(), line.to_string(), tx.clone());
                    }
                    wait = read_limit;
                } else {
                    return Err("dispatch timed out".into());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("dispatch threads died".into());
            }
        }
        // Every message, and the hedge firing, restarts the wait (a
        // heartbeat from a hedged leg restarts the long read wait).
        until = Instant::now() + wait;
    }
}

/// Runs the job on the coordinator's own engine (quorum lost or every
/// route exhausted) and marks the envelope `"via":"local"`.  `None`
/// when a drain cut the run short.
fn run_local(coord: &Coord, job: &JobRequest, digest: &str, ctl: &RunControl) -> Option<String> {
    coord.counters.local_runs.fetch_add(1, Ordering::SeqCst);
    let outcome = coord.engine.run(job, ctl);
    job_reply(job.mode.keyword(), digest, outcome, ctl, Some("local"))
}

/// Per-unit reports, indexed by unit position in the enumeration.
type UnitSlots = Vec<Option<Result<CampaignReport, String>>>;

/// A campaign split into per-schedule work units, work-stolen across
/// the fleet, stitched back into the byte-identical single-process
/// report.  Returns `None` when splitting is not worthwhile (few
/// schedules or no routable fleet) — the caller routes it whole — and
/// `Some(None)` when a drain cut it short.
fn campaign_fanout(
    coord: &Coord,
    idx: u64,
    job: &JobRequest,
    digest: &str,
    ctl: &RunControl,
) -> Option<Option<String>> {
    let total = multi_fault_schedules(
        job.channels.iter().cloned(),
        &FaultKind::ALL,
        job.faults_depth,
    )
    .len();
    let unit = coord.opts.unit_size.max(1);
    if total <= unit {
        return None;
    }
    let workers = reachable_workers(coord, idx);
    if workers.len() < coord.opts.quorum.max(1) || workers.is_empty() {
        return None;
    }
    let unit_count = total.div_ceil(unit);
    let pending: Mutex<VecDeque<usize>> = Mutex::new((0..unit_count).collect());
    let slots: Mutex<UnitSlots> = Mutex::new(vec![None; unit_count]);
    // One dispatcher per worker pulling from the shared unit queue:
    // work-stealing by construction — a fast worker's dispatcher simply
    // comes back for more, and a dead worker's dispatcher re-routes.
    std::thread::scope(|scope| {
        for _ in &workers {
            scope.spawn(|| while !draining(ctl) {
                let next = pending.lock().expect("unit queue").pop_front();
                let Some(unit_index) = next else { break };
                let result = run_unit(coord, idx, job, unit_index, unit, ctl);
                slots.lock().expect("unit slots")[unit_index] = Some(result);
            });
        }
    });
    let slots = slots.into_inner().expect("unit slots");
    match merge_units(total, slots) {
        Some(merged) => {
            let outcome = EngineOutcome { body: Ok(campaign_body(&merged)), cacheable: true };
            Some(job_reply(job.mode.keyword(), digest, outcome, ctl, Some("fleet")))
        }
        None if draining(ctl) => Some(None),
        None => Some(run_local(coord, job, digest, ctl)),
    }
}

/// Decides one work unit: routed through the ring when possible, run
/// on the local engine otherwise.  Either way the body comes from the
/// same `campaign_body` encoder and is decoded back into its report.
fn run_unit(
    coord: &Coord,
    idx: u64,
    job: &JobRequest,
    unit_index: usize,
    unit: usize,
    ctl: &RunControl,
) -> Result<CampaignReport, String> {
    let sub = job.with_unit(unit_index * unit, unit);
    let sub_digest = sub.digest()?;
    match try_route(coord, idx, &sub, &sub_digest, ctl) {
        Ok(reply) => {
            coord.counters.routed.fetch_add(1, Ordering::SeqCst);
            let envelope =
                Json::parse(&reply).map_err(|e| format!("malformed worker reply: {e}"))?;
            match (envelope.get("status").and_then(Json::as_str), envelope.get("body")) {
                (Some("ok"), Some(body)) => campaign_report(body),
                _ => Err(format!("unit {unit_index} failed: {reply}")),
            }
        }
        Err(_) => {
            // The fleet cannot take this unit (quorum lost mid-campaign
            // or every candidate dead): decide it locally.
            coord.counters.redispatched.fetch_add(1, Ordering::SeqCst);
            coord.counters.local_runs.fetch_add(1, Ordering::SeqCst);
            coord.engine.run(&sub, ctl).body.and_then(|body| campaign_report(&body))
        }
    }
}

/// Stitches unit reports back into the single-process report: the
/// same identity and enumeration in every unit, none interrupted,
/// results concatenated in unit order, fast-path counts summed.  Any
/// inconsistent or failed unit aborts the merge (the caller falls back
/// to a local full run rather than serving a frankenreport).
fn merge_units(total: usize, slots: UnitSlots) -> Option<CampaignReport> {
    let mut merged: Option<CampaignReport> = None;
    for slot in slots {
        let unit = slot?.ok()?;
        if unit.enumerated != total || unit.interrupted {
            return None;
        }
        match &mut merged {
            None => merged = Some(unit),
            Some(m) if m.identity == unit.identity => {
                m.results.extend(unit.results);
                m.fresh += unit.fresh;
                m.early_rejects += unit.early_rejects;
            }
            Some(_) => return None,
        }
    }
    merged
}
