//! End-to-end fleet tests over real sockets: consistent-hash routing,
//! failure detection and re-dispatch, quorum degradation, snapshot
//! gossip, campaign work-unit stitching, and chaos byte-identity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use spi_server::client::Client;
use spi_server::coordinator::{coordinate, CoordinatorOptions};
use spi_server::gossip::pull_from;
use spi_server::protocol::JobRequest;
use spi_server::service::{serve, Engine, EngineOutcome, RunControl, ServerHandle, VerifierEngine};
use spi_server::ServerOptions;
use spi_verify::jsonlite::Json;

const P2: &str = "(^kAB)((^m) c<{m}kAB> | c(z).case z of {w}kAB in observe<w>)";
const P_ABS: &str = "(^s)(s<s>.(^m)c<m> | s@lamB(x_s).c@lamB(z).observe<z>)";
const PM2: &str = "(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)";
const PM_ABS: &str = "(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)";

fn engine() -> Arc<dyn Engine> {
    Arc::new(VerifierEngine {
        explore_workers: Some(1),
    })
}

fn start_worker() -> ServerHandle {
    serve(
        engine(),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            ..ServerOptions::default()
        },
    )
    .expect("worker starts")
}

fn test_opts() -> CoordinatorOptions {
    CoordinatorOptions {
        // Heartbeat-driven death needs heartbeats the tests do not send;
        // keep it out of the way and rely on dial-failure detection.
        fail_after_ms: 60_000,
        connect_timeout_ms: 500,
        read_timeout_ms: 30_000,
        hedge_after_ms: 5_000,
        retry_rounds: 2,
        unit_size: 4,
        ..CoordinatorOptions::default()
    }
}

/// Starts a coordinator on an ephemeral port with the default front
/// end.
fn start_coordinator(engine: Arc<dyn Engine>, opts: CoordinatorOptions) -> ServerHandle {
    let front = ServerOptions {
        addr: "127.0.0.1:0".into(),
        ..ServerOptions::default()
    };
    coordinate(engine, front, opts).expect("coordinator starts")
}

/// Starts a coordinator plus `n` workers, all joined.
fn start_fleet(
    n: usize,
    configure: impl FnOnce(&mut CoordinatorOptions),
) -> (ServerHandle, Vec<ServerHandle>) {
    let mut opts = test_opts();
    configure(&mut opts);
    let coordinator = start_coordinator(engine(), opts);
    let workers: Vec<ServerHandle> = (0..n).map(|_| start_worker()).collect();
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();
    for w in &workers {
        let line = format!(r#"{{"op":"join","addr":"{}"}}"#, w.addr());
        let resp = parsed(&client.roundtrip(&line).unwrap());
        assert_eq!(field(&resp, "status").as_str(), Some("ok"));
    }
    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    assert_eq!(field(field(&stats, "body"), "workers_alive").as_int(), Some(n as i64));
    (coordinator, workers)
}

fn parsed(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
}

fn field<'a>(resp: &'a Json, key: &str) -> &'a Json {
    resp.get(key)
        .unwrap_or_else(|| panic!("response lacks {key:?}: {resp:?}"))
}

fn verify_line(concrete: &str, sessions: u32) -> String {
    format!(
        r#"{{"op":"verify","concrete":"{}","abstract":"{}","sessions":{sessions}}}"#,
        concrete.replace('\\', "\\\\"),
        P_ABS.replace('\\', "\\\\"),
    )
}

fn campaign_line() -> String {
    format!(
        r#"{{"op":"campaign","concrete":"{PM2}","abstract":"{PM_ABS}","sessions":2,"intruder":false,"faults_depth":2}}"#
    )
}

/// The reference bytes: the same request served by one standalone
/// worker process (the body encoders are shared, so this is also what
/// a direct `Verifier` run renders to).
fn single_node_body(line: &str) -> String {
    let worker = start_worker();
    let mut client = Client::connect(&worker.addr().to_string()).unwrap();
    let resp = parsed(&client.roundtrip(line).unwrap());
    assert_eq!(field(&resp, "status").as_str(), Some("ok"), "{resp:?}");
    let body = field(&resp, "body").render_compact();
    worker.join();
    body
}

#[test]
fn fleet_routes_by_digest_and_repeat_requests_hit_the_owners_cache() {
    let (coordinator, workers) = start_fleet(2, |_| {});
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let line = verify_line(P2, 1);
    let first = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&first, "status").as_str(), Some("ok"));
    assert_eq!(field(&first, "cached").as_bool(), Some(false));
    // The repeat routes to the same worker by digest: a cache hit.
    let second = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&second, "cached").as_bool(), Some(true));
    assert_eq!(field(&first, "body"), field(&second, "body"));

    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let body = field(&stats, "body");
    assert_eq!(field(body, "role").as_str(), Some("coordinator"));
    assert_eq!(field(body, "workers_alive").as_int(), Some(2));
    assert!(field(body, "routed").as_int().unwrap() >= 2);
    assert_eq!(field(body, "local_runs").as_int(), Some(0));

    coordinator.join();
    for w in workers {
        w.join();
    }
}

#[test]
fn killing_a_worker_reroutes_to_survivors() {
    let (coordinator, mut workers) = start_fleet(2, |_| {});
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let warm = parsed(&client.roundtrip(&verify_line(P2, 1)).unwrap());
    assert_eq!(field(&warm, "status").as_str(), Some("ok"));

    // Kill one worker outright.
    let victim = workers.remove(0);
    victim.join();

    // Every question still gets answered: requests owned by the dead
    // worker fail the dial, it is marked dead, and the ring's next
    // candidate takes over.  Which questions the dead worker owns
    // depends on where the ring hashes the workers' ephemeral ports, so
    // keep asking distinct questions (one per visible depth) until one
    // has routed to it; each misses with probability about one half.
    const MAX_QUESTIONS: usize = 64;
    let mut visible = 0;
    let stats = loop {
        visible += 1;
        let line = format!(
            r#"{{"op":"verify","concrete":"{P2}","abstract":"{P_ABS}","sessions":1,"visible":{visible}}}"#
        );
        let resp = parsed(&client.roundtrip(&line).unwrap());
        assert_eq!(field(&resp, "status").as_str(), Some("ok"), "{resp:?}");
        let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        if field(field(&stats, "body"), "workers_dead").as_int() == Some(1) {
            break stats;
        }
        assert!(
            visible < MAX_QUESTIONS,
            "none of {MAX_QUESTIONS} distinct questions routed to the killed worker: {stats:?}"
        );
    };
    let body = field(&stats, "body");
    assert_eq!(field(body, "workers_alive").as_int(), Some(1), "{body:?}");
    assert_eq!(field(body, "workers_dead").as_int(), Some(1));

    coordinator.join();
    for w in workers {
        w.join();
    }
}

#[test]
fn quorum_loss_degrades_to_local_execution() {
    // No workers ever join: every job must still be answered, locally.
    let coordinator = start_coordinator(engine(), test_opts());
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();

    let resp = parsed(&client.roundtrip(&verify_line(P2, 1)).unwrap());
    assert_eq!(field(&resp, "status").as_str(), Some("ok"));
    assert_eq!(field(&resp, "via").as_str(), Some("local"));

    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    assert!(field(field(&stats, "body"), "local_runs").as_int().unwrap() >= 1);

    coordinator.join();
}

#[test]
fn local_degradation_matches_fleet_bytes() {
    let reference = single_node_body(&verify_line(P2, 1));
    let coordinator = start_coordinator(engine(), test_opts());
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();
    let resp = parsed(&client.roundtrip(&verify_line(P2, 1)).unwrap());
    assert_eq!(field(&resp, "body").render_compact(), reference);
    coordinator.join();
}

#[test]
fn campaigns_split_into_units_and_stitch_back_byte_identically() {
    let reference = single_node_body(&campaign_line());

    let (coordinator, workers) = start_fleet(2, |o| o.unit_size = 4);
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();
    let resp = parsed(&client.roundtrip(&campaign_line()).unwrap());
    assert_eq!(field(&resp, "status").as_str(), Some("ok"), "{resp:?}");
    assert_eq!(
        field(&resp, "via").as_str(),
        Some("fleet"),
        "14 schedules over unit_size 4 must fan out"
    );
    assert_eq!(
        field(&resp, "body").render_compact(),
        reference,
        "stitched unit reports must be byte-identical to one process"
    );

    // The units landed in worker caches: both workers saw work.
    let executions: u64 = workers.iter().map(ServerHandle::executions).sum();
    assert!(executions >= 4, "unit dispatch executed on the fleet");

    coordinator.join();
    for w in workers {
        w.join();
    }
}

#[test]
fn chaos_kill_mid_campaign_loses_nothing() {
    let verify_ref = single_node_body(&verify_line(P2, 1));
    let campaign_ref = single_node_body(&campaign_line());

    // Seeded chaos: the plan's first event is always an early worker
    // kill, so this exercises re-dispatch no matter the seed.
    let (coordinator, workers) = start_fleet(3, |o| {
        o.chaos = Some(0xC0FFEE);
        o.chaos_horizon = 12;
    });
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Enough requests to walk through the whole chaos plan.
    for round in 0..6 {
        let v = parsed(&client.roundtrip(&verify_line(P2, 1)).unwrap());
        assert_eq!(field(&v, "status").as_str(), Some("ok"), "round {round}");
        assert_eq!(
            field(&v, "body").render_compact(),
            verify_ref,
            "round {round}: chaos must never change verify bytes"
        );
        let c = parsed(&client.roundtrip(&campaign_line()).unwrap());
        assert_eq!(field(&c, "status").as_str(), Some("ok"), "round {round}");
        assert_eq!(
            field(&c, "body").render_compact(),
            campaign_ref,
            "round {round}: chaos must never change campaign bytes"
        );
    }

    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let body = field(&stats, "body");
    assert!(
        field(body, "workers_dead").as_int().unwrap() >= 1,
        "the chaos plan kills at least one worker: {body:?}"
    );
    assert!(body.get("chaos").is_some(), "stats document the plan");

    coordinator.join();
    for w in workers {
        // Chaos already drained some workers; join is idempotent.
        w.join();
    }
}

#[test]
fn gossip_warms_a_cold_worker_from_a_peer() {
    let warm = start_worker();
    let mut client = Client::connect(&warm.addr().to_string()).unwrap();
    let line = verify_line(P2, 1);
    let first = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&first, "cached").as_bool(), Some(false));

    // A cold worker pulls the peer's entries and absorbs them.
    let cold = start_worker();
    let entries = pull_from(
        &warm.addr().to_string(),
        Duration::from_millis(500),
        Duration::from_secs(5),
    )
    .expect("gossip pull succeeds");
    assert!(!entries.is_empty());
    cold.absorb(entries);

    // The very first request to the cold worker is already a hit.
    let mut cold_client = Client::connect(&cold.addr().to_string()).unwrap();
    let resp = parsed(&cold_client.roundtrip(&line).unwrap());
    assert_eq!(field(&resp, "cached").as_bool(), Some(true));
    assert_eq!(field(&resp, "body"), field(&first, "body"));
    assert_eq!(cold.executions(), 0, "warming replaced the exploration");

    warm.join();
    cold.join();
}

#[test]
fn gossip_between_disjoint_caches_converges_to_the_union() {
    let a = start_worker();
    let b = start_worker();
    let line_a = verify_line(P2, 1);
    let line_b = verify_line(P2, 2);
    let mut ca = Client::connect(&a.addr().to_string()).unwrap();
    let mut cb = Client::connect(&b.addr().to_string()).unwrap();
    let _ = ca.roundtrip(&line_a).unwrap();
    let _ = cb.roundtrip(&line_b).unwrap();

    // Exchange in both directions.
    let connect = Duration::from_millis(500);
    let read = Duration::from_secs(5);
    let from_b = pull_from(&b.addr().to_string(), connect, read).unwrap();
    a.absorb(from_b);
    let from_a = pull_from(&a.addr().to_string(), connect, read).unwrap();
    b.absorb(from_a);

    // Both hold both results: every repeat anywhere is a hit.
    let mut keys_a: Vec<String> = a.cache_entries().into_iter().map(|(k, _, _)| k).collect();
    let mut keys_b: Vec<String> = b.cache_entries().into_iter().map(|(k, _, _)| k).collect();
    keys_a.sort();
    keys_b.sort();
    assert_eq!(keys_a, keys_b, "caches converged");
    assert_eq!(keys_a.len(), 2, "the union holds both questions");
    for line in [&line_a, &line_b] {
        let ra = parsed(&ca.roundtrip(line).unwrap());
        let rb = parsed(&cb.roundtrip(line).unwrap());
        assert_eq!(field(&ra, "cached").as_bool(), Some(true));
        assert_eq!(field(&rb, "cached").as_bool(), Some(true));
        assert_eq!(field(&ra, "body"), field(&rb, "body"));
    }

    a.join();
    b.join();
}

#[test]
fn drain_handoff_keeps_warm_entries_after_the_worker_dies() {
    let (coordinator, mut workers) = start_fleet(2, |_| {});
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Warm the fleet: the answer lands in exactly one worker's shard.
    let line = verify_line(P2, 1);
    let first = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&first, "status").as_str(), Some("ok"));
    assert_eq!(field(&first, "cached").as_bool(), Some(false));

    // The owner drains: it announces `leave` carrying its cache shard
    // (exactly what `spi serve --join` does on drain), then dies.
    let owner_idx = workers
        .iter()
        .position(|w| !w.cache_entries().is_empty())
        .expect("one worker owns the warm entry");
    let owner = workers.remove(owner_idx);
    let leave = Json::Obj(vec![
        ("op".to_string(), Json::str("leave")),
        ("addr".to_string(), Json::str(owner.addr().to_string())),
        (
            "cache".to_string(),
            spi_server::gossip::gossip_body(&owner.cache_entries()),
        ),
    ])
    .render_compact();
    let resp = parsed(&client.roundtrip(&leave).unwrap());
    assert_eq!(field(&resp, "status").as_str(), Some("ok"), "{resp:?}");
    let body = field(&resp, "body");
    assert!(
        field(body, "handed_off").as_int().unwrap() >= 1,
        "the shard moved: {body:?}"
    );
    owner.join(); // drain-then-kill

    // The repeat must still be a cache hit — the surviving worker now
    // owns the digest AND holds the pushed entry, so nothing re-runs.
    let survivor = &workers[0];
    let before = survivor.executions();
    let again = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&again, "status").as_str(), Some("ok"), "{again:?}");
    assert_eq!(
        field(&again, "cached").as_bool(),
        Some(true),
        "drain-then-kill lost the warm entry: {again:?}"
    );
    assert_eq!(field(&again, "body"), field(&first, "body"));
    assert_eq!(survivor.executions(), before, "no re-exploration");

    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let body = field(&stats, "body");
    assert!(field(body, "handoff_entries").as_int().unwrap() >= 1);
    assert_eq!(field(body, "workers_alive").as_int(), Some(1));

    coordinator.join();
    for w in workers {
        w.join();
    }
}

#[test]
fn join_on_a_plain_worker_is_a_clean_error() {
    let worker = start_worker();
    let mut client = Client::connect(&worker.addr().to_string()).unwrap();
    let resp = parsed(
        &client
            .roundtrip(r#"{"op":"join","addr":"127.0.0.1:1"}"#)
            .unwrap(),
    );
    assert_eq!(field(&resp, "status").as_str(), Some("error"));
    let reason = field(&resp, "reason").as_str().unwrap();
    assert!(reason.contains("coordinator"), "{reason}");
    worker.join();
}

#[test]
fn rejoining_worker_is_told_to_warm_from_peers() {
    let (coordinator, workers) = start_fleet(2, |_| {});
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();

    // A fresh join is a rejoin (first contact) and lists the peers.
    let line = r#"{"op":"join","addr":"127.0.0.1:1"}"#;
    let resp = parsed(&client.roundtrip(line).unwrap());
    let body = field(&resp, "body");
    assert_eq!(field(body, "rejoined").as_bool(), Some(true));
    assert_eq!(field(body, "peers").as_arr().unwrap().len(), 2);

    // A repeat heartbeat is not a rejoin.
    let resp = parsed(&client.roundtrip(line).unwrap());
    assert_eq!(
        field(field(&resp, "body"), "rejoined").as_bool(),
        Some(false)
    );

    coordinator.join();
    for w in workers {
        w.join();
    }
}

/// A slow counting engine: the coordinator's local fallback for the
/// cold-race test.  `runs` counts real executions so the test can
/// prove two racing clients funded exactly one exploration.
struct CountingEngine {
    delay: Duration,
    runs: AtomicU64,
}

impl Engine for CountingEngine {
    fn run(&self, _job: &JobRequest, _ctl: &RunControl) -> EngineOutcome {
        self.runs.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        EngineOutcome {
            body: Ok(Json::Obj(vec![("answer".into(), Json::Int(7))])),
            cacheable: true,
        }
    }
}

#[test]
fn concurrent_cold_requests_collapse_into_one_dispatch() {
    let engine = Arc::new(CountingEngine {
        delay: Duration::from_millis(400),
        runs: AtomicU64::new(0),
    });
    let coordinator = start_coordinator(Arc::clone(&engine) as Arc<dyn Engine>, test_opts());
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Join a worker address nothing listens on: routing dials it,
    // fails, marks it dead, and degrades to the local engine — the
    // injected retry the flight must span.
    let resp = parsed(
        &client
            .roundtrip(r#"{"op":"join","addr":"127.0.0.1:1"}"#)
            .unwrap(),
    );
    assert_eq!(field(&resp, "status").as_str(), Some("ok"));

    let line = verify_line(P2, 1);
    let gate = Arc::new(Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let line = line.clone();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                gate.wait();
                c.roundtrip(&line).unwrap()
            })
        })
        .collect();
    let replies: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    for r in &replies {
        let resp = parsed(r);
        assert_eq!(field(&resp, "status").as_str(), Some("ok"), "{resp:?}");
        assert_eq!(field(&resp, "via").as_str(), Some("local"));
    }
    assert_eq!(
        replies[0], replies[1],
        "the follower answers with the leader's bytes"
    );
    assert_eq!(
        engine.runs.load(Ordering::SeqCst),
        1,
        "two racing cold requests must fund exactly one exploration"
    );

    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let body = field(&stats, "body");
    assert_eq!(field(body, "flight_collapsed").as_int(), Some(1));
    assert!(field(body, "local_runs").as_int().unwrap() >= 1);
    coordinator.join();
}

/// A stub that records the deadline each run was handed.
struct DeadlineProbe {
    seen: Mutex<Vec<Option<Instant>>>,
}

impl Engine for DeadlineProbe {
    fn run(&self, _job: &JobRequest, ctl: &RunControl) -> EngineOutcome {
        self.seen.lock().unwrap().push(ctl.deadline);
        EngineOutcome {
            body: Ok(Json::Obj(vec![("answer".into(), Json::Int(1))])),
            cacheable: true,
        }
    }
}

#[test]
fn quorum_loss_local_runs_honour_the_wire_deadline() {
    let engine = Arc::new(DeadlineProbe {
        seen: Mutex::new(Vec::new()),
    });
    let coordinator = start_coordinator(Arc::clone(&engine) as Arc<dyn Engine>, test_opts());
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();

    // No workers joined: the job runs on the coordinator's own engine.
    let sent = Instant::now();
    let line = format!(
        r#"{{"op":"verify","concrete":"{P2}","abstract":"{P_ABS}","sessions":1,"deadline_ms":60000}}"#
    );
    let resp = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&resp, "via").as_str(), Some("local"), "{resp:?}");

    let seen = engine.seen.lock().unwrap().clone();
    assert_eq!(seen.len(), 1);
    let deadline = seen[0].expect("the local run must carry the wire deadline_ms");
    let horizon = deadline.saturating_duration_since(sent);
    assert!(
        (Duration::from_secs(60)..Duration::from_secs(61)).contains(&horizon),
        "deadline lands ~60s after admission, got {horizon:?}"
    );
    coordinator.join();
}

/// A slow stub that reports some exploration progress first.
struct ProgressingEngine(Duration);

impl Engine for ProgressingEngine {
    fn run(&self, _job: &JobRequest, ctl: &RunControl) -> EngineOutcome {
        if let Some((states, _)) = &ctl.progress {
            states.fetch_add(5, Ordering::Relaxed);
        }
        std::thread::sleep(self.0);
        EngineOutcome {
            body: Ok(Json::Obj(vec![("answer".into(), Json::Int(3))])),
            cacheable: true,
        }
    }
}

#[test]
fn progress_heartbeats_relay_through_the_fleet() {
    let slow: Arc<dyn Engine> = Arc::new(ProgressingEngine(Duration::from_millis(800)));
    let worker = serve(
        Arc::clone(&slow),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            ..ServerOptions::default()
        },
    )
    .expect("worker starts");
    let coordinator = start_coordinator(slow, test_opts());
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();
    let join = format!(r#"{{"op":"join","addr":"{}"}}"#, worker.addr());
    assert_eq!(field(&parsed(&client.roundtrip(&join).unwrap()), "status").as_str(), Some("ok"));

    let line = format!(
        r#"{{"op":"verify","concrete":"{P2}","abstract":"{P_ABS}","sessions":1,"progress_ms":100}}"#
    );
    let mut beats: Vec<Json> = Vec::new();
    let final_line = client
        .roundtrip_streaming(&line, |beat| beats.push(parsed(beat)))
        .unwrap();
    let resp = parsed(&final_line);
    assert_eq!(field(&resp, "status").as_str(), Some("ok"), "{resp:?}");
    assert!(resp.get("via").is_none(), "the worker answered: {resp:?}");
    assert!(!beats.is_empty(), "progress must stream through the coordinator");
    assert!(
        beats
            .iter()
            .any(|b| field(b, "states_explored").as_int() == Some(5)),
        "the worker's counts are relayed: {beats:?}"
    );

    coordinator.join();
    worker.join();
}

/// A slow stub that stops early when its run trips (deadline passed or
/// drain), reporting whether it was cut short.
struct TrippableEngine(Duration);

impl Engine for TrippableEngine {
    fn run(&self, _job: &JobRequest, ctl: &RunControl) -> EngineOutcome {
        let started = Instant::now();
        while started.elapsed() < self.0 && !ctl.tripped() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let truncated = ctl.tripped();
        EngineOutcome {
            body: Ok(Json::Obj(vec![("truncated".into(), Json::Bool(truncated))])),
            cacheable: !truncated,
        }
    }
}

#[test]
fn a_cut_short_reply_is_never_handed_to_a_follower_without_the_cut_off() {
    // Neither per-request cut-off is in the digest.
    for (cutoff, runs_for) in [(r#""deadline_ms":50"#, 400), (r#""timeout_secs":1"#, 1400)] {
        let engine: Arc<dyn Engine> = Arc::new(TrippableEngine(Duration::from_millis(runs_for)));
        let coordinator = start_coordinator(engine, test_opts());
        let addr = coordinator.addr().to_string();
        let question =
            format!(r#""op":"verify","concrete":"{P2}","abstract":"{P_ABS}","sessions":1"#);

        // No workers: both run on the coordinator's local engine.  The
        // leader's cut-off ends its run early while the follower,
        // asking the same question without one, is parked on its flight.
        let leader = {
            let (addr, line) = (addr.clone(), format!("{{{question},{cutoff}}}"));
            std::thread::spawn(move || Client::connect(&addr).unwrap().roundtrip(&line).unwrap())
        };
        std::thread::sleep(Duration::from_millis(20));
        let mut client = Client::connect(&addr).unwrap();
        let follower = parsed(&client.roundtrip(&format!("{{{question}}}")).unwrap());
        let leader = parsed(&leader.join().unwrap());

        assert_eq!(field(field(&leader, "body"), "truncated").as_bool(), Some(true), "{cutoff}");
        assert_eq!(
            field(field(&follower, "body"), "truncated").as_bool(),
            Some(false),
            "the follower set no {cutoff} and must get the full answer: {follower:?}"
        );
        let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        assert_eq!(
            field(field(&stats, "body"), "flight_collapsed").as_int(),
            Some(1),
            "the follower really parked on the leader's flight ({cutoff})"
        );
        coordinator.join();
    }
}

#[test]
fn draining_a_coordinator_abandons_a_slow_dispatch() {
    let worker = serve(
        Arc::new(TrippableEngine(Duration::from_secs(20))),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            ..ServerOptions::default()
        },
    )
    .expect("worker starts");
    let coordinator = start_coordinator(engine(), test_opts());
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let join = format!(r#"{{"op":"join","addr":"{}"}}"#, worker.addr());
    assert_eq!(field(&parsed(&client.roundtrip(&join).unwrap()), "status").as_str(), Some("ok"));

    let pending = {
        let line = verify_line(P2, 1);
        std::thread::spawn(move || Client::connect(&addr).unwrap().roundtrip(&line).unwrap())
    };
    // Let the dispatch reach the worker, then drain mid-dispatch.
    std::thread::sleep(Duration::from_millis(300));
    let drain_started = Instant::now();
    coordinator.join();
    assert!(
        drain_started.elapsed() < Duration::from_secs(1),
        "the drain waited {:?} on a worker that answers in 20s",
        drain_started.elapsed()
    );
    let resp = parsed(&pending.join().unwrap());
    assert_eq!(field(&resp, "status").as_str(), Some("rejected"), "{resp:?}");
    worker.join();
}

/// A slow stub that records how many of its runs overlapped.
#[derive(Default)]
struct OverlapProbe {
    running: AtomicU64,
    peak: AtomicU64,
}

impl Engine for OverlapProbe {
    fn run(&self, _job: &JobRequest, _ctl: &RunControl) -> EngineOutcome {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(300));
        self.running.fetch_sub(1, Ordering::SeqCst);
        EngineOutcome {
            body: Ok(Json::Obj(vec![("answer".into(), Json::Int(5))])),
            cacheable: true,
        }
    }
}

#[test]
fn a_coordinators_pool_grows_to_the_capacity_its_workers_announce() {
    let worker_opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        ..ServerOptions::default()
    };
    let capacity = worker_opts.capacity();
    let probe = Arc::new(OverlapProbe::default());
    let worker = serve(Arc::clone(&probe) as Arc<dyn Engine>, worker_opts).expect("worker starts");
    // One pool thread of its own: without growing, the coordinator
    // would dispatch the jobs below one at a time.
    let front = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerOptions::default()
    };
    let coordinator = coordinate(engine(), front, test_opts()).expect("coordinator starts");
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let join = format!(r#"{{"op":"join","addr":"{}","capacity":{capacity}}}"#, worker.addr());
    assert_eq!(field(&parsed(&client.roundtrip(&join).unwrap()), "status").as_str(), Some("ok"));
    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    assert_eq!(field(field(&stats, "body"), "workers").as_int(), Some(capacity as i64));

    let threads: Vec<_> = (1..=4)
        .map(|sessions| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                parsed(&c.roundtrip(&verify_line(P2, sessions)).unwrap())
            })
        })
        .collect();
    for t in threads {
        let r = t.join().unwrap();
        assert_eq!(field(&r, "status").as_str(), Some("ok"), "{r:?}");
    }
    assert!(
        probe.peak.load(Ordering::SeqCst) >= 2,
        "the coordinator dispatched concurrently, beyond its one configured thread"
    );

    coordinator.join();
    worker.join();
}
