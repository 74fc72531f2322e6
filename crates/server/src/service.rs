//! The one front end: epoll reactor, admission control, worker pool,
//! drain — with a per-node executor behind the pool.
//!
//! ```text
//! clients ──TCP──▶ reactor (epoll readiness loop, one thread)
//!                    │  per-connection: incremental line cap,
//!                    │  read deadline on partial lines (slowloris),
//!                    │  bounded write buffer (backpressure)
//!                    ▼
//!                  cache probe ──hit──▶ reply (cached:true)
//!                    │ miss               (workers only)
//!                    ▼ admission: tenant token bucket, then
//!                    │            the queue-depth cap
//!                  two-priority queue ──▶ worker pool ──▶ singleflight
//!                    │ quota/queue full        │ leader        │
//!                    ▼                         ▼               ▼
//!            reply (rejected +        progress heartbeats   executor
//!             retry_after_ms)         via eventfd wake
//! ```
//!
//! `spi serve` and `spi fleet` run this same front end and differ only
//! in the `Executor` behind the pool.  A worker's runs the local
//! [`Engine`] and fills the result cache the front end probes at
//! admission; a coordinator's ([`crate::coordinator`]) holds no cache
//! and routes each job over its fleet.  The executor maps one job to
//! one reply line, answers the node-specific control ops (`join`,
//! `leave`, `gossip`, `gossip-push`) and adds its own `stats` fields.
//!
//! One reactor thread owns every non-blocking connection, so ten
//! thousand idle connections cost two file descriptors each and zero
//! threads.  Completions travel back through a queue the workers nudge
//! with the poller's eventfd.  While a job runs, its connection may
//! subscribe to `{"status":"progress",…}` heartbeat lines (wire
//! `progress_ms`) fed by the live states-explored /
//! schedules-classified counters, so a caller (or a hedging
//! coordinator) can tell *working* from *dead*.
//!
//! Graceful drain (a `shutdown` request, or stdin-close in the CLI
//! front-end): stop accepting, reject new jobs, cancel in-flight
//! explorations through the shared cooperative cancel flag (they
//! answer *inconclusive*, never silently partial), and flush the
//! snapshot.  Snapshots are also written eagerly after every fresh
//! cache fill, so even an abrupt SIGTERM kill leaves the latest
//! completed results on disk for the next start.  Established
//! connections keep getting cache hits and structured rejections until
//! the handle is joined.

use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spi_verify::jsonlite::Json;
use spi_verify::{ResourceKind, Verdict, Verifier};

use crate::admission::{Priority, TenantQuotas};
use crate::cache::ResultCache;
use crate::flight::Singleflight;
use crate::protocol::{
    campaign_body, error_response, ok_response, parse_request, parse_source, progress_response,
    rejected_response, request_op, shed_response, verify_body, JobRequest, Mode, Request,
};
use crate::reactor::{Event, Poller, WAKE_TOKEN};
use crate::snapshot::{load_snapshot, write_snapshot, Entries};

/// Execution control handed to an [`Engine`] run: the per-request
/// deadline plus the server-wide cooperative cancel flag (tripped on
/// drain), plus the live progress counters a heartbeating connection
/// subscribes to.
#[derive(Debug, Clone)]
pub struct RunControl {
    /// Wall-clock cut-off for this request, if any (the tighter of the
    /// request's `timeout_secs` and its wire `deadline_ms`).
    pub deadline: Option<Instant>,
    /// The drain flag shared by every in-flight run.
    pub cancel: Arc<AtomicBool>,
    /// Live `(states_explored, schedules_classified)` counters the
    /// engine should bump while it runs, when the requester asked for
    /// progress heartbeats.  `None` streams nothing and costs nothing.
    pub progress: Option<(Arc<AtomicU64>, Arc<AtomicU64>)>,
}

impl RunControl {
    /// Returns `true` once the run was cancelled or timed out — results
    /// produced after a trip are truncated and must not be cached.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// What an engine run produced.
#[derive(Debug)]
pub struct EngineOutcome {
    /// The response body, or an error reason.
    pub body: Result<Json, String>,
    /// Whether the body may be cached.  Wall-clock-truncated and
    /// errored runs are not cacheable — rerunning them could give a
    /// different (better) answer; deterministic-budget verdicts are.
    pub cacheable: bool,
}

impl EngineOutcome {
    /// A non-cacheable error outcome.
    #[must_use]
    pub fn error(reason: impl Into<String>) -> EngineOutcome {
        EngineOutcome {
            body: Err(reason.into()),
            cacheable: false,
        }
    }
}

/// The reply line for one run of an `op` job keyed by `digest`: the
/// `ok` envelope around the body, tagged `"via":via` when a coordinator
/// answered without relaying a worker's reply, or the error envelope.
/// `None` when a drain cut the run short: a truncated run is answered
/// `rejected`, never as a half-explored verdict.
#[must_use]
pub fn job_reply(
    op: &str,
    digest: &str,
    outcome: EngineOutcome,
    ctl: &RunControl,
    via: Option<&str>,
) -> Option<String> {
    if !outcome.cacheable && ctl.cancel.load(Ordering::SeqCst) {
        return None;
    }
    let envelope = match outcome.body {
        Ok(body) => {
            let mut envelope = ok_response(op, Some(digest), false, body);
            if let (Json::Obj(fields), Some(via)) = (&mut envelope, via) {
                fields.push(("via".to_string(), Json::str(via)));
            }
            envelope
        }
        Err(e) => error_response(op, &e),
    };
    Some(envelope.render_compact())
}

/// The pluggable local-run back-end.  [`VerifierEngine`] handles
/// verify and campaign; the `spi` binary assembles a full engine that
/// adds conformance replay; tests plug in stubs.  A worker runs every
/// job on it; a coordinator only when its fleet cannot take the job.
pub trait Engine: Send + Sync {
    /// Executes one job under the given control.
    fn run(&self, job: &JobRequest, ctl: &RunControl) -> EngineOutcome;
}

/// The standard engine: builds a [`Verifier`] from the job options and
/// runs checks and campaigns.
#[derive(Debug, Clone, Default)]
pub struct VerifierEngine {
    /// Worker threads per exploration (`None` = the verifier default).
    /// A busy daemon usually wants a small value here so parallelism
    /// comes from the request pool, not from each exploration.
    pub explore_workers: Option<usize>,
}

impl VerifierEngine {
    /// The verifier that answers `job`: each job option applied
    /// through its row of the job-option table, under
    /// `ctl`'s deadline, cancel flag and progress counters.  `spi
    /// verify` builds its verifier here too.
    #[must_use]
    pub fn build_verifier(&self, job: &JobRequest, ctl: &RunControl) -> Verifier {
        let mut v = job
            .configure(Verifier::new(std::iter::empty::<&str>()))
            .cancel(Arc::clone(&ctl.cancel));
        if let Some(d) = ctl.deadline {
            v = v.deadline(d);
        }
        if let Some((states, schedules)) = &ctl.progress {
            v = v.progress(Arc::clone(states), Arc::clone(schedules));
        }
        match self.explore_workers {
            Some(w) => v.workers(w),
            None => v,
        }
    }
}

impl Engine for VerifierEngine {
    fn run(&self, job: &JobRequest, ctl: &RunControl) -> EngineOutcome {
        let verifier = self.build_verifier(job, ctl);
        let sources = || -> Result<_, String> {
            Ok((parse_source(&job.concrete)?, parse_source(&job.abstract_spec)?))
        };
        match job.mode {
            Mode::Verify => {
                let (concrete, spec) = match sources() {
                    Ok(pair) => pair,
                    Err(e) => return EngineOutcome::error(e),
                };
                match verifier.check(&concrete, &spec) {
                    Ok(report) => {
                        let truncated = matches!(
                            report.verdict,
                            Verdict::Inconclusive {
                                exhausted: ResourceKind::WallClock,
                                ..
                            }
                        );
                        EngineOutcome {
                            body: Ok(verify_body(&report)),
                            cacheable: !truncated,
                        }
                    }
                    Err(e) => EngineOutcome::error(e.to_string()),
                }
            }
            Mode::Campaign => {
                let (concrete, spec) = match sources() {
                    Ok(pair) => pair,
                    Err(e) => return EngineOutcome::error(e),
                };
                let mut opts = verifier.campaign_options(job.faults_depth);
                // A fleet work unit restricts this run to a contiguous
                // index range of the (deterministic) enumeration; the
                // coordinator stitches unit results back together.
                opts.schedule_range = job.unit;
                match verifier.run_campaign(&concrete, &spec, &opts) {
                    Ok(report) => EngineOutcome {
                        cacheable: !report.interrupted && !ctl.tripped(),
                        body: Ok(campaign_body(&report)),
                    },
                    Err(e) => EngineOutcome::error(e.to_string()),
                }
            }
            Mode::ConformanceReplay => EngineOutcome::error(
                "conformance-replay needs the full engine assembled by the spi binary",
            ),
        }
    }
}

/// Front-end configuration: the `spi serve` flags, which `spi fleet`
/// shares.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing jobs.  A coordinator's pool grows past
    /// this to the capacity its workers announce, since its threads
    /// mostly wait on fleet dispatches.
    pub workers: usize,
    /// Result-cache byte budget (workers only; a coordinator holds no
    /// cache).
    pub cache_bytes: usize,
    /// Snapshot path; `None` disables persistence (workers only).
    pub snapshot: Option<PathBuf>,
    /// Bounded-queue capacity; a full queue rejects new jobs.
    pub queue_cap: usize,
    /// Default per-request timeout applied when a request names none.
    pub default_timeout_secs: Option<u64>,
    /// How long a connection may sit on a *partial* request line before
    /// it is reaped (the slowloris defense).  Idle connections with no
    /// buffered bytes are never reaped.  `0` disables the deadline.
    pub read_deadline_ms: u64,
    /// Cap on a connection's buffered-but-unsent output.  A client
    /// that stops reading while replies accumulate past this cap is
    /// disconnected instead of growing the heap.
    pub write_buf_bytes: usize,
    /// Per-tenant admission rate in jobs/second (token-bucket refill).
    /// `0` disables quotas.
    pub quota_rate: u64,
    /// Per-tenant burst capacity (bucket size) when quotas are on.
    pub quota_burst: u64,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:7970".into(),
            workers: 2,
            cache_bytes: 8 * 1024 * 1024,
            snapshot: None,
            queue_cap: 16,
            default_timeout_secs: None,
            read_deadline_ms: 10_000,
            write_buf_bytes: 16 * 1024 * 1024,
            quota_rate: 0,
            quota_burst: 8,
        }
    }
}

impl ServerOptions {
    /// How many jobs a node admits before it sheds: its pool plus its
    /// queue.  A worker announces it when it joins a fleet.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.workers.max(1) + self.queue_cap.max(1)
    }
}

/// What one admitted job produced.
pub(crate) enum Ran {
    /// The reply line.  With `share`, the flight's parked followers
    /// answer with the same line instead of re-probing a cache.
    Reply { line: String, share: bool },
    /// A drain cut the run short.  It is answered `rejected`, never as
    /// a half-explored verdict: a relaying coordinator must retry
    /// elsewhere, or the chaos oracle's byte identity would break.
    Drained,
}

/// What a node-specific control op produced.
pub(crate) enum Control {
    /// The reply, computed in memory on the reactor thread.
    Now(Json),
    /// Work for the named op that waits on the network.  It runs on
    /// the worker pool, never on the reactor, and yields the reply.
    Pool(&'static str, Box<dyn FnOnce() -> Json + Send>),
}

/// The per-ticket seam between the shared front end and what answers
/// the jobs it admits.
pub(crate) trait Executor: Send + Sync {
    /// Runs one admitted job under `ctl`.  Only singleflight leaders
    /// and `no_cache` jobs get here.
    fn run(&self, job: &JobRequest, digest: &str, ctl: &RunControl) -> Ran;
    /// Answers `join`, `leave`, `gossip` and `gossip-push` — the only
    /// ops the front end hands it.
    fn control(self: Arc<Self>, request: Request) -> Control;
    /// Appends this node's own `stats` fields after the shared ones.
    fn stats(&self, fields: &mut Vec<(String, Json)>);
    /// How many pool threads this node can keep busy, given the
    /// configured count; the pool grows to it and never shrinks.
    fn pool_size(&self, configured: usize) -> usize {
        configured
    }
    /// The node's result cache, if it keeps one.
    fn cache(&self) -> Option<&NodeCache> {
        None
    }
}

/// A worker's content-addressed result cache and the snapshot file
/// that persists it.
pub(crate) struct NodeCache {
    store: Mutex<ResultCache>,
    snapshot: Option<PathBuf>,
}

impl NodeCache {
    /// An empty cache of `opts.cache_bytes`, warmed from the snapshot
    /// file when one exists and verifies.
    fn open(opts: &ServerOptions) -> NodeCache {
        let mut store = ResultCache::new(opts.cache_bytes);
        if let Some(path) = opts.snapshot.as_ref().filter(|p| p.exists()) {
            match load_snapshot(path) {
                Ok(entries) => {
                    for (key, op, body) in entries {
                        store.insert(key, op, body);
                    }
                }
                Err(e) => eprintln!("spi-serve: ignoring snapshot: {e}"),
            }
        }
        NodeCache {
            store: Mutex::new(store),
            snapshot: opts.snapshot.clone(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ResultCache> {
        self.store.lock().expect("cache lock")
    }

    /// A `cached:true` reply for `digest`, on a hit.
    fn probe(&self, op: &str, digest: &str) -> Option<String> {
        let (_, body) = self.lock().get(digest)?;
        Some(cached_reply(op, digest, &body))
    }

    /// Merges entries — fresh results or gossip — and persists eagerly,
    /// so even an abrupt kill keeps every completed result.  Insertion
    /// is idempotent: existing keys are refreshed, never corrupted.
    /// Returns how many entries were offered.
    fn absorb(&self, entries: Entries) -> usize {
        let offered = entries.len();
        {
            let mut store = self.lock();
            for (key, op, body) in entries {
                store.insert(key, op, body);
            }
        }
        self.persist();
        offered
    }

    /// The contents in LRU order — the gossip payload.
    fn entries(&self) -> Entries {
        self.lock().entries_lru()
    }

    fn persist(&self) {
        let Some(path) = &self.snapshot else {
            return;
        };
        if let Err(e) = write_snapshot(path, &self.entries()) {
            eprintln!("spi-serve: snapshot write failed: {e}");
        }
    }
}

/// A worker's executor: the local engine behind the result cache.
struct Local {
    engine: Arc<dyn Engine>,
    cache: NodeCache,
    /// Cumulative reduction counters across every fresh engine run (the
    /// `stats` op reports them so operators can see what the configured
    /// `reduce` modes are saving fleet-wide).
    quotiented: AtomicU64,
    pruned: AtomicU64,
}

impl Executor for Local {
    fn run(&self, job: &JobRequest, digest: &str, ctl: &RunControl) -> Ran {
        let op = job.mode.keyword();
        let outcome = self.engine.run(job, ctl);
        if let Ok(body) = &outcome.body {
            // The reduction counters a fresh verify body reports.
            if let Some(r) = body.get("reduction") {
                for (key, total) in [
                    ("states_quotiented", &self.quotiented),
                    ("por_pruned", &self.pruned),
                ] {
                    let n = r.get(key).and_then(Json::as_int).unwrap_or(0);
                    total.fetch_add(u64::try_from(n).unwrap_or(0), Ordering::SeqCst);
                }
            }
            // Cache-bypassing requests asked for a private run.
            if outcome.cacheable && !job.no_cache {
                let entry = (digest.to_string(), op.to_string(), body.render_compact());
                self.cache.absorb(vec![entry]);
            }
        }
        // Followers re-probe the cache this run filled, so they answer
        // `cached:true`.
        let reply = job_reply(op, digest, outcome, ctl, None);
        reply.map_or(Ran::Drained, |line| Ran::Reply { line, share: false })
    }

    fn control(self: Arc<Self>, request: Request) -> Control {
        Control::Now(match request {
            Request::Gossip => {
                ok_response("gossip", None, false, crate::gossip::gossip_body(&self.cache.entries()))
            }
            Request::GossipPush { cache } => match crate::gossip::parse_gossip(&cache) {
                Ok(entries) => ok_response(
                    "gossip-push",
                    None,
                    false,
                    Json::Obj(vec![("merged".into(), Json::count(self.cache.absorb(entries)))]),
                ),
                Err(e) => error_response("gossip-push", &e),
            },
            Request::Join { .. } => error_response(
                "join",
                "this node is not a coordinator (join a fleet started with `spi fleet`)",
            ),
            _ => error_response(
                "leave",
                "this node is not a coordinator (leave announces a drain to `spi fleet`)",
            ),
        })
    }

    fn stats(&self, fields: &mut Vec<(String, Json)>) {
        let cache = self.cache.lock();
        // Integer percent: the wire JSON has no floats.
        let lookups = cache.hits + cache.misses;
        let hit_rate_pct = (cache.hits * 100)
            .checked_div(lookups)
            .and_then(|p| usize::try_from(p).ok())
            .unwrap_or(0);
        let count = |n: u64| Json::count(usize::try_from(n).unwrap_or(usize::MAX));
        fields.extend([
            ("hits".into(), count(cache.hits)),
            ("misses".into(), count(cache.misses)),
            ("evictions".into(), count(cache.evictions)),
            ("hit_rate_pct".into(), Json::count(hit_rate_pct)),
            ("entries".into(), Json::count(cache.len())),
            ("cache_bytes".into(), Json::count(cache.used_bytes())),
            ("cache_bytes_max".into(), Json::count(cache.max_bytes())),
            ("states_quotiented".into(), count(self.quotiented.load(Ordering::SeqCst))),
            ("por_pruned".into(), count(self.pruned.load(Ordering::SeqCst))),
        ]);
    }

    fn cache(&self) -> Option<&NodeCache> {
        Some(&self.cache)
    }
}

/// The work a queued ticket carries.
enum Work {
    /// An admitted job and its digest, with the shared progress
    /// counters when the requester subscribed.
    Job {
        digest: String,
        job: Box<JobRequest>,
        progress: Option<(Arc<AtomicU64>, Arc<AtomicU64>)>,
    },
    /// A control op's network leg (see [`Control::Pool`]).
    Control(Box<dyn FnOnce() -> Json + Send>),
}

struct Ticket {
    work: Work,
    /// The reactor connection waiting for the reply.
    conn: u64,
    /// When the job was admitted — the base of `deadline_ms` and the
    /// latency sample.
    accepted: Instant,
}

/// The two-priority job queue: interactive verifies pop ahead of batch
/// campaign / conformance work.  Priority reorders; it never preempts
/// a running job.  Control work jumps both queues.
#[derive(Default)]
struct JobQueues {
    interactive: VecDeque<Ticket>,
    batch: VecDeque<Ticket>,
}

impl JobQueues {
    fn depth(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    fn push(&mut self, ticket: Ticket) {
        match &ticket.work {
            Work::Control(_) => self.interactive.push_front(ticket),
            Work::Job { job, .. } => match Priority::of(job.mode) {
                Priority::Interactive => self.interactive.push_back(ticket),
                Priority::Batch => self.batch.push_back(ticket),
            },
        }
    }

    fn pop(&mut self) -> Option<Ticket> {
        self.interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
    }
}

/// Per-op request-latency histogram over power-of-two microsecond
/// buckets.  Quantiles report the bucket's upper bound — coarse, but
/// lock-free to record and honest about its resolution.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; 32],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (64 - u64::leading_zeros(us) as usize).min(self.counts.len() - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The `pct`-th percentile in microseconds (upper bucket bound);
    /// zero when nothing was recorded.
    #[must_use]
    pub fn percentile_us(&self, pct: u64) -> u64 {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (total * pct).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (idx, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << idx;
            }
        }
        1u64 << (counts.len() - 1)
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    pub(crate) fn to_json(&self) -> Json {
        let count = |n: u64| Json::count(usize::try_from(n).unwrap_or(usize::MAX));
        Json::Obj(vec![
            ("count".to_string(), count(self.count())),
            ("p50_us".to_string(), count(self.percentile_us(50))),
            ("p99_us".to_string(), count(self.percentile_us(99))),
        ])
    }
}

/// The ops with a latency histogram of their own; every other op
/// shares the last one.
const LATENCY_OPS: [&str; 4] = ["verify", "campaign", "conformance-replay", "control"];

/// One histogram per job op plus one for control ops.
#[derive(Debug, Default)]
struct Latency([Histogram; 4]);

impl Latency {
    fn for_op(&self, op: &str) -> &Histogram {
        let idx = LATENCY_OPS[..3].iter().position(|o| *o == op);
        &self.0[idx.unwrap_or(3)]
    }

    fn to_json(&self) -> Json {
        let per_op = LATENCY_OPS.iter().zip(&self.0);
        Json::Obj(per_op.map(|(op, h)| (op.to_string(), h.to_json())).collect())
    }
}

struct Shared {
    executor: Arc<dyn Executor>,
    opts: ServerOptions,
    /// The worker pool's threads.
    pool: Mutex<Vec<JoinHandle<()>>>,
    addr: SocketAddr,
    flight: Singleflight,
    queue: Mutex<JobQueues>,
    queue_cv: Condvar,
    /// Per-tenant token buckets (reactor-thread only, but behind a
    /// mutex so the handle types stay `Sync`).
    quotas: Mutex<TenantQuotas>,
    /// Finished-job replies waiting for the reactor to deliver:
    /// `(connection token, response line)`.
    completions: Mutex<Vec<(u64, String)>>,
    poller: Poller,
    draining: AtomicBool,
    /// Set by [`ServerHandle::join`] after the workers exited: the
    /// reactor delivers what is left and closes every connection.
    stopping: AtomicBool,
    cancel: Arc<AtomicBool>,
    stats: Counters,
}

/// The front end's `stats` counters.
#[derive(Debug, Default)]
struct Counters {
    inflight: AtomicUsize,
    executions: AtomicU64,
    rejected: AtomicU64,
    /// Load-shed answers: queue-full rejections carrying a
    /// `retry_after_ms` hint (a subset of `rejected`).
    shed: AtomicU64,
    /// Tenant-quota rejections (also a subset of `rejected`).
    quota_denied: AtomicU64,
    /// Progress heartbeat lines written to subscribed connections.
    heartbeats_sent: AtomicU64,
    /// Connections currently registered with the reactor.
    active_connections: AtomicUsize,
    /// Duplicate in-flight requests collapsed by singleflight (a parked
    /// follower answered from the leader's hand-over or cache fill).
    collapsed: AtomicU64,
    latency: Latency,
}

impl Shared {
    /// Queues control work unless the node is draining.  Checked under
    /// the queue lock, so a draining pool cannot exit between the check
    /// and the push and strand the ticket.
    fn enqueue(&self, ticket: Ticket) -> bool {
        let mut queue = self.queue.lock().expect("queue lock");
        if self.draining.load(Ordering::SeqCst) {
            return false;
        }
        queue.push(ticket);
        self.queue_cv.notify_one();
        true
    }
}

/// Grows the worker pool to what the executor can keep busy.  Checked
/// under the pool lock, so no thread starts after `join` took the pool.
fn grow_pool(shared: &Arc<Shared>) {
    let target = shared.executor.pool_size(shared.opts.workers.max(1));
    let mut pool = shared.pool.lock().expect("pool lock");
    while pool.len() < target && !shared.draining.load(Ordering::SeqCst) {
        let shared = Arc::clone(shared);
        pool.push(std::thread::spawn(move || worker_loop(&shared)));
    }
}

/// A running `spi serve` worker or `spi fleet` coordinator.  Dropping
/// the handle does **not** stop it; call [`ServerHandle::join`] (or
/// send a `shutdown` request) to drain.  It derefs to the node's
/// [`NodeHandle`] (drain, cache).
pub struct ServerHandle {
    node: NodeHandle,
    reactor: JoinHandle<()>,
}

impl std::ops::Deref for ServerHandle {
    type Target = NodeHandle;

    fn deref(&self) -> &NodeHandle {
        &self.node
    }
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// How many executor runs actually executed — the singleflight /
    /// cache probe counter tests assert on.
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.shared.stats.executions.load(Ordering::SeqCst)
    }

    /// A cheap handle another thread can use to trigger or await the
    /// drain (the CLI's stdin watcher) or to warm and read the cache (the `--join` heartbeat
    /// warms through it after a rejoin acknowledgement and hands the
    /// entries off when it leaves).
    #[must_use]
    pub fn node(&self) -> NodeHandle {
        NodeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until *something* triggers the drain — a `shutdown`
    /// request over the wire, a [`NodeHandle`], or a prior
    /// [`NodeHandle::shutdown`] — then joins and flushes the final
    /// snapshot.
    pub fn join_on_drain(self) {
        while !self.draining() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }

    /// Drains and waits for every worker to finish, then flushes the
    /// final snapshot.  Open connections receive their pending replies
    /// and are closed.
    pub fn join(self) {
        let ServerHandle { node, reactor } = self;
        node.shutdown();
        let shared = node.shared;
        let pool = std::mem::take(&mut *shared.pool.lock().expect("pool lock"));
        for t in pool {
            let _ = t.join();
        }
        // Workers are gone, so every completion is posted; tell the
        // reactor to deliver the leftovers and wind down.
        shared.stopping.store(true, Ordering::SeqCst);
        shared.poller.wake();
        let _ = reactor.join();
        if let Some(cache) = shared.executor.cache() {
            cache.persist();
        }
    }
}

/// Drains, or reads and warms the cache of, a running node from any
/// thread (see [`ServerHandle::node`]).
pub struct NodeHandle {
    shared: Arc<Shared>,
}

impl NodeHandle {
    /// Begins a graceful drain: stop accepting, reject new jobs, cancel
    /// in-flight explorations.  Idempotent; returns immediately.
    pub fn shutdown(&self) {
        trigger_drain(&self.shared);
    }

    /// Whether a drain has been triggered (by any handle or a
    /// `shutdown` request) — the heartbeat loop's exit cue.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Merges gossiped `(key, op, body)` cache entries into this
    /// node's result cache (insertion is idempotent: existing keys are
    /// refreshed, never corrupted).  Returns how many entries were
    /// offered to the cache; a coordinator keeps none.
    pub fn absorb(&self, entries: Entries) -> usize {
        self.shared
            .executor
            .cache()
            .map_or(0, |cache| cache.absorb(entries))
    }

    /// The current cache contents in LRU order — the gossip payload,
    /// and what a draining worker hands off in its `leave`.
    #[must_use]
    pub fn cache_entries(&self) -> Entries {
        self.shared
            .executor
            .cache()
            .map(NodeCache::entries)
            .unwrap_or_default()
    }
}

fn trigger_drain(shared: &Arc<Shared>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.cancel.store(true, Ordering::Relaxed);
    shared.queue_cv.notify_all();
    // Nudge the reactor so it stops accepting immediately.
    shared.poller.wake();
}

/// Starts a worker: the shared front end over the local engine and a
/// result cache (warmed from `opts.snapshot` when it exists).  The
/// listener is bound before this returns, so the caller may connect to
/// [`ServerHandle::addr`] immediately.
///
/// # Errors
///
/// Fails when the address cannot be bound or the epoll instance cannot
/// be created.
pub fn serve(engine: Arc<dyn Engine>, opts: ServerOptions) -> Result<ServerHandle, String> {
    let local = Local {
        engine,
        cache: NodeCache::open(&opts),
        quotiented: AtomicU64::new(0),
        pruned: AtomicU64::new(0),
    };
    start(Arc::new(local), opts)
}

/// Starts the front end — reactor, admission and worker pool — over
/// `executor`.
pub(crate) fn start(
    executor: Arc<dyn Executor>,
    opts: ServerOptions,
) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(&opts.addr)
        .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot unblock the listener: {e}"))?;
    let poller = Poller::new().map_err(|e| format!("cannot create the epoll reactor: {e}"))?;

    let quotas = TenantQuotas::new(opts.quota_rate, opts.quota_burst);
    let shared = Arc::new(Shared {
        executor,
        pool: Mutex::new(Vec::new()),
        addr,
        flight: Singleflight::new(),
        queue: Mutex::new(JobQueues::default()),
        queue_cv: Condvar::new(),
        quotas: Mutex::new(quotas),
        completions: Mutex::new(Vec::new()),
        poller,
        draining: AtomicBool::new(false),
        stopping: AtomicBool::new(false),
        cancel: Arc::new(AtomicBool::new(false)),
        stats: Counters::default(),
        opts,
    });

    grow_pool(&shared);
    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || Reactor::new(shared, listener).run())
    };

    Ok(ServerHandle {
        node: NodeHandle { shared },
        reactor,
    })
}

/// The longest request line a connection may send.  Anything larger is
/// answered with a structured error — the oversized bytes are streamed
/// past (never buffered whole), so a hostile 10 MB line costs one
/// error response, not a worker slot or an allocation spike.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A connection's progress subscription: emit a heartbeat from the
/// shared counters every `interval`.
struct ProgressSub {
    states: Arc<AtomicU64>,
    schedules: Arc<AtomicU64>,
    interval: Duration,
    due: Instant,
}

/// The job a connection is waiting on (one at a time per connection —
/// the reactor stops reading a connection while its job runs, so the
/// kernel socket buffer is the pipeline bound).
struct ActiveJob {
    op: &'static str,
    digest: String,
    accepted: Instant,
    progress: Option<ProgressSub>,
}

/// One reactor-owned connection.
struct Conn {
    stream: TcpStream,
    peer: String,
    /// Partial-line input buffer, capped incrementally.
    rbuf: Vec<u8>,
    /// An oversized line is being discarded up to its newline.
    overflow: bool,
    /// Buffered-but-unsent output (already-attempted writes first).
    wbuf: Vec<u8>,
    /// Armed only while `rbuf` holds a partial line — slowloris reap.
    read_deadline: Option<Instant>,
    active: Option<ActiveJob>,
    /// Close once `wbuf` flushes (EOF seen or cap tripped).
    closing: bool,
    /// Last interest registered with the poller (readable, writable).
    interest: (bool, bool),
}

/// What processing one input line produced.
enum LineOutcome {
    /// The reply was written (or nothing needed writing).
    Done,
    /// A job was queued; stop pumping this connection until the
    /// completion arrives.
    JobPending,
}

const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// How long the stopping reactor keeps trying to flush write buffers.
const STOP_FLUSH_GRACE: Duration = Duration::from_secs(2);

struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Tickets dispatched to workers whose completions have not been
    /// processed yet (whether or not the connection still exists).
    outstanding: usize,
    accepting: bool,
}

impl Reactor {
    fn new(shared: Arc<Shared>, listener: TcpListener) -> Reactor {
        Reactor {
            shared,
            listener,
            conns: HashMap::new(),
            next_token: 1,
            outstanding: 0,
            accepting: false,
        }
    }

    fn run(mut self) {
        if self
            .shared
            .poller
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false)
            .is_err()
        {
            return;
        }
        self.accepting = true;
        let mut events: Vec<Event> = Vec::new();
        let mut stop_flush_from: Option<Instant> = None;
        loop {
            let timeout = self.next_timeout(stop_flush_from);
            if self.shared.poller.wait(timeout, &mut events).is_err() {
                break;
            }
            let fired = std::mem::take(&mut events);
            for ev in &fired {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            events = fired;
            self.deliver_completions();
            self.tick_timers();
            if self.shared.draining.load(Ordering::SeqCst) && self.accepting {
                self.shared.poller.deregister(self.listener.as_raw_fd());
                self.accepting = false;
            }
            if self.shared.stopping.load(Ordering::SeqCst) {
                let started = *stop_flush_from.get_or_insert_with(Instant::now);
                // Deliver leftovers, then hold the door briefly for
                // unflushed output; a peer that will not read forfeits
                // the tail.
                let flushed = self
                    .conns
                    .values()
                    .all(|c| c.wbuf.is_empty());
                if (self.outstanding == 0 && flushed)
                    || started.elapsed() >= STOP_FLUSH_GRACE
                {
                    break;
                }
            }
        }
        for (_, conn) in self.conns.drain() {
            self.shared.poller.deregister(conn.stream.as_raw_fd());
        }
        self.shared.stats.active_connections.store(0, Ordering::SeqCst);
    }

    /// The epoll timeout: the soonest read deadline or heartbeat, or
    /// block forever when nothing is scheduled (drains and completions
    /// arrive via the wake eventfd).
    fn next_timeout(&self, stop_flush_from: Option<Instant>) -> Option<u64> {
        let now = Instant::now();
        let mut soonest: Option<Instant> = stop_flush_from.map(|s| s + STOP_FLUSH_GRACE);
        for conn in self.conns.values() {
            if let Some(d) = conn.read_deadline {
                soonest = Some(soonest.map_or(d, |s| s.min(d)));
            }
            if let Some(p) = conn.active.as_ref().and_then(|a| a.progress.as_ref()) {
                soonest = Some(soonest.map_or(p.due, |s| s.min(p.due)));
            }
        }
        soonest.map(|s| {
            let until = s.saturating_duration_since(now);
            if until.is_zero() {
                0
            } else {
                // Round up: truncating to 0ms would spin until the
                // sub-millisecond remainder elapses.
                u64::try_from(until.as_millis())
                    .unwrap_or(u64::MAX)
                    .saturating_add(1)
            }
        })
    }

    fn accept_ready(&mut self) {
        if !self.accepting || self.shared.draining.load(Ordering::SeqCst) {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Line-sized writes; without NODELAY the
                    // Nagle/delayed-ACK interaction costs tens of
                    // milliseconds per response.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .shared
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            peer: peer.ip().to_string(),
                            rbuf: Vec::new(),
                            overflow: false,
                            wbuf: Vec::new(),
                            read_deadline: None,
                            active: None,
                            closing: false,
                            interest: (true, false),
                        },
                    );
                    self.shared
                        .stats
                        .active_connections
                        .store(self.conns.len(), Ordering::SeqCst);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: &Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // stale event for a closed connection
        };
        if ev.hangup {
            self.close(token);
            return;
        }
        if ev.writable && !flush(conn) {
            self.close(token);
            return;
        }
        if ev.readable && !Self::fill(&self.shared, conn) {
            self.close(token);
            return;
        }
        self.pump(token);
    }

    /// Reads everything available.  Returns `false` when the
    /// connection is dead.
    fn fill(shared: &Shared, conn: &mut Conn) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.closing = true;
                    return conn.active.is_some() || !conn.wbuf.is_empty();
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    // The incremental line cap: discard an oversized
                    // line's bytes as they stream in, remembering only
                    // that it overflowed.
                    if !conn.overflow
                        && conn.rbuf.len() > MAX_LINE_BYTES
                        && !conn.rbuf.contains(&b'\n')
                    {
                        conn.overflow = true;
                        conn.rbuf.clear();
                    } else if conn.overflow {
                        if let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
                            conn.rbuf.drain(..pos);
                        } else {
                            conn.rbuf.clear();
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        // A partial line arms the slowloris deadline; a completed (or
        // absent) line disarms it.
        let partial = !conn.rbuf.is_empty() && !conn.rbuf.contains(&b'\n');
        conn.read_deadline = if (partial || conn.overflow) && shared.opts.read_deadline_ms > 0 {
            conn.read_deadline
                .or_else(|| Some(Instant::now() + Duration::from_millis(shared.opts.read_deadline_ms)))
        } else {
            None
        };
        true
    }

    /// Processes buffered complete lines until a job is dispatched or
    /// input runs dry, then re-arms interest.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.active.is_some()
                || conn.closing
                || conn.wbuf.len() > self.shared.opts.write_buf_bytes
            {
                break;
            }
            let Some(line) = next_line(conn) else { break };
            let outcome = match line {
                Err(reason) => {
                    let reply = error_response("request", &reason).render_compact();
                    send_line(conn, &reply);
                    LineOutcome::Done
                }
                Ok(line) if line.trim().is_empty() => LineOutcome::Done,
                Ok(line) => self.dispatch_line(token, &line),
            };
            if matches!(outcome, LineOutcome::JobPending) {
                break;
            }
        }
        self.after_io(token);
    }

    /// Re-arms poller interest after any I/O or state change, and
    /// closes connections that finished flushing or tripped the write
    /// cap.
    fn after_io(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.wbuf.len() > self.shared.opts.write_buf_bytes {
            // The peer stopped reading while output accumulated:
            // disconnect rather than grow without bound.
            self.close(token);
            return;
        }
        if conn.closing && conn.wbuf.is_empty() && conn.active.is_none() {
            self.close(token);
            return;
        }
        let want = (
            !conn.closing && conn.active.is_none(),
            !conn.wbuf.is_empty(),
        );
        if want != conn.interest {
            conn.interest = want;
            let _ = self
                .shared
                .poller
                .rearm(conn.stream.as_raw_fd(), token, want.0, want.1);
        }
    }

    /// Handles one complete request line on connection `token`.
    fn dispatch_line(&mut self, token: u64, line: &str) -> LineOutcome {
        let started = Instant::now();
        let (op, reply) = match parse_request(line) {
            Ok(Request::Job(job)) => {
                let op = job.mode.keyword();
                return match self.admit(token, job, started) {
                    Ok((digest, progress)) => self.await_ticket(token, op, started, digest, progress),
                    Err(reply) => self.reply_now(token, op, started, &reply),
                };
            }
            Err(e) => {
                let op = request_op(line);
                (op, error_response(op, &e))
            }
            Ok(Request::Ping) => ("ping", ok_response("ping", None, false, Json::Obj(vec![]))),
            Ok(Request::Stats) => ("stats", stats_response(&self.shared)),
            Ok(Request::Shutdown) => {
                trigger_drain(&self.shared);
                (
                    "shutdown",
                    ok_response("shutdown", None, false, Json::Obj(vec![])),
                )
            }
            Ok(node_op) => match Arc::clone(&self.shared.executor).control(node_op) {
                Control::Now(reply) => {
                    // A `join` may have raised what the pool can keep busy.
                    grow_pool(&self.shared);
                    ("control", reply)
                }
                Control::Pool(op, task) => {
                    let ticket = Ticket {
                        work: Work::Control(task),
                        conn: token,
                        accepted: started,
                    };
                    if self.shared.enqueue(ticket) {
                        return self.await_ticket(token, op, started, String::new(), None);
                    }
                    (op, rejected_response(op, "server is draining"))
                }
            },
        };
        self.reply_now(token, op, started, &reply.render_compact())
    }

    /// Sends `reply` now and records the op's latency since `started`.
    fn reply_now(&mut self, token: u64, op: &str, started: Instant, reply: &str) -> LineOutcome {
        let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.shared.stats.latency.for_op(op).record_us(elapsed);
        if let Some(conn) = self.conns.get_mut(&token) {
            send_line(conn, reply);
        }
        LineOutcome::Done
    }

    /// Parks connection `token` until its queued ticket completes.
    fn await_ticket(
        &mut self,
        token: u64,
        op: &'static str,
        accepted: Instant,
        digest: String,
        progress: Option<ProgressSub>,
    ) -> LineOutcome {
        self.outstanding += 1;
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.active = Some(ActiveJob {
                op,
                digest,
                accepted,
                progress,
            });
        }
        LineOutcome::JobPending
    }

    /// Admits one job: cache probe (workers), drain check, tenant
    /// quota, then the queue-depth cap.  `Ok` carries the
    /// queued job's digest and progress subscription; `Err` is the
    /// reply to send at once — a cache hit, an error or a rejection.
    fn admit(
        &self,
        token: u64,
        job: Box<JobRequest>,
        accepted: Instant,
    ) -> Result<(String, Option<ProgressSub>), String> {
        let shared = &self.shared;
        let op = job.mode.keyword();
        let digest = job
            .digest()
            .map_err(|e| error_response(op, &e).render_compact())?;
        if !job.no_cache {
            if let Some(hit) = shared.executor.cache().and_then(|c| c.probe(op, &digest)) {
                return Err(hit);
            }
        }
        if shared.draining.load(Ordering::SeqCst) {
            shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(rejected_response(op, "server is draining").render_compact());
        }
        let tenant = job
            .tenant
            .clone()
            .unwrap_or_else(|| self.conns.get(&token).map_or_else(String::new, |c| c.peer.clone()));
        {
            let mut quotas = shared.quotas.lock().expect("quota lock");
            if quotas.enabled() {
                if let Err(retry_ms) = quotas.admit(&tenant, Instant::now()) {
                    shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
                    shared.stats.quota_denied.fetch_add(1, Ordering::SeqCst);
                    let reason = format!("tenant {tenant:?} is over its admission quota");
                    return Err(shed_response(op, &reason, retry_ms).render_compact());
                }
            }
        }
        let mut queue = shared.queue.lock().expect("queue lock");
        let depth = queue.depth();
        if depth >= shared.opts.queue_cap.max(1) {
            shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
            shared.stats.shed.fetch_add(1, Ordering::SeqCst);
            // The hint scales with how much work is already ahead of
            // the caller.
            let retry_ms = (u64::try_from(depth).unwrap_or(u64::MAX))
                .saturating_mul(50)
                .clamp(50, 5_000);
            let reason = format!("queue full ({depth} pending)");
            return Err(shed_response(op, &reason, retry_ms).render_compact());
        }
        let progress = job.progress_ms.filter(|&ms| ms > 0).map(|ms| {
            let interval = Duration::from_millis(ms.max(10));
            ProgressSub {
                states: Arc::new(AtomicU64::new(0)),
                schedules: Arc::new(AtomicU64::new(0)),
                interval,
                due: Instant::now() + interval,
            }
        });
        queue.push(Ticket {
            work: Work::Job {
                digest: digest.clone(),
                job,
                progress: progress
                    .as_ref()
                    .map(|p| (Arc::clone(&p.states), Arc::clone(&p.schedules))),
            },
            conn: token,
            accepted,
        });
        shared.queue_cv.notify_one();
        Ok((digest, progress))
    }

    /// Delivers worker completions to their connections.
    fn deliver_completions(&mut self) {
        let done: Vec<(u64, String)> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completions lock"));
        for (token, reply) in done {
            self.outstanding = self.outstanding.saturating_sub(1);
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // client vanished; the work is cached anyway
            };
            if let Some(active) = conn.active.take() {
                let elapsed =
                    u64::try_from(active.accepted.elapsed().as_micros()).unwrap_or(u64::MAX);
                self.shared.stats.latency.for_op(active.op).record_us(elapsed);
            }
            send_line(conn, &reply);
            // The connection may have pipelined more requests while the
            // job ran; serve them now.
            self.pump(token);
        }
    }

    /// Read-deadline reaping and progress heartbeats.
    fn tick_timers(&mut self) {
        let now = Instant::now();
        let reap: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.read_deadline.is_some_and(|d| now >= d))
            .map(|(&t, _)| t)
            .collect();
        for token in reap {
            // A partial line outstayed its welcome: slowloris reap.
            self.close(token);
        }
        let mut beats = 0u64;
        let mut touched: Vec<u64> = Vec::new();
        for (&token, conn) in &mut self.conns {
            let Some(active) = conn.active.as_mut() else {
                continue;
            };
            let (op, digest) = (active.op, active.digest.clone());
            let Some(p) = active.progress.as_mut() else {
                continue;
            };
            if now < p.due {
                continue;
            }
            p.due = now + p.interval;
            let line = progress_response(
                op,
                Some(&digest),
                p.states.load(Ordering::Relaxed),
                p.schedules.load(Ordering::Relaxed),
            )
            .render_compact();
            send_line(conn, &line);
            beats += 1;
            touched.push(token);
        }
        if beats > 0 {
            self.shared.stats.heartbeats_sent.fetch_add(beats, Ordering::SeqCst);
        }
        for token in touched {
            self.after_io(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.shared.poller.deregister(conn.stream.as_raw_fd());
            self.shared
                .stats
                .active_connections
                .store(self.conns.len(), Ordering::SeqCst);
        }
    }
}

/// Extracts the next complete line from the connection buffer.
/// `Some(Err(reason))` reports an oversized or non-UTF-8 line (the
/// bytes are consumed; the connection stays usable).
fn next_line(conn: &mut Conn) -> Option<Result<String, String>> {
    let pos = conn.rbuf.iter().position(|&b| b == b'\n')?;
    let mut line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
    line.pop(); // the newline
    conn.read_deadline = None;
    if conn.overflow {
        conn.overflow = false;
        return Some(Err(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    if line.len() > MAX_LINE_BYTES {
        return Some(Err(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    match String::from_utf8(line) {
        Ok(s) => Some(Ok(s)),
        Err(_) => Some(Err("request line is not valid UTF-8".to_string())),
    }
}

/// Appends a reply line and flushes as much as the socket accepts.
fn send_line(conn: &mut Conn, line: &str) {
    conn.wbuf.extend_from_slice(line.as_bytes());
    conn.wbuf.push(b'\n');
    if !flush(conn) {
        conn.closing = true;
        conn.wbuf.clear();
        conn.active = None;
    }
}

/// Writes buffered output until the socket blocks.  Returns `false`
/// when the connection errored.
fn flush(conn: &mut Conn) -> bool {
    let mut written = 0usize;
    let ok = loop {
        if written >= conn.wbuf.len() {
            break true;
        }
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => break false,
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    conn.wbuf.drain(..written);
    ok
}

fn stats_response(shared: &Shared) -> Json {
    let c = &shared.stats;
    let load = |n: &AtomicU64| Json::count(usize::try_from(n.load(Ordering::SeqCst)).unwrap_or(0));
    let queue_depth = shared.queue.lock().expect("queue lock").depth();
    let mut fields = vec![
        ("inflight".into(), Json::count(c.inflight.load(Ordering::SeqCst))),
        ("queue_depth".into(), Json::count(queue_depth)),
        ("executions".into(), load(&c.executions)),
        ("rejected".into(), load(&c.rejected)),
        ("shed".into(), load(&c.shed)),
        ("quota_denied".into(), load(&c.quota_denied)),
        ("active_connections".into(), Json::count(c.active_connections.load(Ordering::SeqCst))),
        ("heartbeats_sent".into(), load(&c.heartbeats_sent)),
        ("collapsed".into(), load(&c.collapsed)),
        ("latency".into(), c.latency.to_json()),
        ("workers".into(), Json::count(shared.pool.lock().expect("pool lock").len())),
        ("draining".into(), Json::Bool(shared.draining.load(Ordering::SeqCst))),
    ];
    shared.executor.stats(&mut fields);
    ok_response("stats", None, false, Json::Obj(fields))
}

/// Serves a cached `(op, body)` pair as a `cached:true` envelope.
fn cached_reply(op: &str, digest: &str, body: &str) -> String {
    match Json::parse(body) {
        Ok(parsed) => ok_response(op, Some(digest), true, parsed).render_compact(),
        // A cache body that fails to re-parse is a bug; answer it as an
        // error rather than emitting a malformed line.
        Err(e) => error_response(op, &format!("corrupt cache entry: {e}")).render_compact(),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let ticket = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(t) = queue.pop() {
                    break t;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue lock");
            }
        };
        shared.stats.inflight.fetch_add(1, Ordering::SeqCst);
        let response = match ticket.work {
            Work::Job {
                digest,
                job,
                progress,
            } => execute(shared, &digest, &job, ticket.accepted, progress),
            Work::Control(task) => task().render_compact(),
        };
        shared.stats.inflight.fetch_sub(1, Ordering::SeqCst);
        shared
            .completions
            .lock()
            .expect("completions lock")
            .push((ticket.conn, response));
        shared.poller.wake();
    }
}

/// Runs one admitted job to its reply line.  `timeout_secs` runs from
/// execution start (as it always has); `deadline_ms` is end-to-end from
/// admission, so queue time counts against it.  The run sees the
/// tighter of the two.
fn execute(
    shared: &Shared,
    digest: &str,
    job: &JobRequest,
    accepted: Instant,
    progress: Option<(Arc<AtomicU64>, Arc<AtomicU64>)>,
) -> String {
    let mut deadline = job
        .timeout_secs
        .or(shared.opts.default_timeout_secs)
        .map(|s| Instant::now() + Duration::from_secs(s));
    if let Some(ms) = job.deadline_ms {
        let wire = accepted + Duration::from_millis(ms);
        deadline = Some(deadline.map_or(wire, |d| d.min(wire)));
    }
    let ctl = RunControl {
        deadline,
        cancel: Arc::clone(&shared.cancel),
        progress,
    };
    let run = || {
        shared.stats.executions.fetch_add(1, Ordering::SeqCst);
        match shared.executor.run(job, digest, &ctl) {
            Ran::Reply { line, share } => (line, share),
            Ran::Drained => {
                shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
                let op = job.mode.keyword();
                (
                    rejected_response(op, "node drained mid-run").render_compact(),
                    false,
                )
            }
        }
    };
    if job.no_cache {
        // Cache-bypassing requests neither join nor lead a flight: the
        // caller explicitly asked for a private run.
        return run().0;
    }
    loop {
        // The cache may have been filled between enqueue and pickup (a
        // duplicate ticket whose leader already finished) — serve that
        // rather than re-running.
        let cache = shared.executor.cache();
        if let Some(hit) = cache.and_then(|c| c.probe(job.mode.keyword(), digest)) {
            return hit;
        }
        if shared.flight.begin(digest) {
            let (line, share) = run();
            shared
                .flight
                .finish(digest, share.then(|| line.clone()));
            return line;
        }
        // Someone else is running this digest: park, then answer with
        // the reply they hand over, or loop — the re-probe serves from
        // the cache they filled, or this worker becomes the next leader
        // if they failed without either.
        shared.stats.collapsed.fetch_add(1, Ordering::SeqCst);
        if let Some(line) = shared.flight.wait(digest) {
            return line;
        }
    }
}
