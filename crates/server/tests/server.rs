//! End-to-end tests of the daemon over real sockets: singleflight,
//! cache-byte bounds, admission rejection, snapshot restarts, timeout
//! degradation, and the real verifier engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spi_server::client::Client;
use spi_server::protocol::JobRequest;
use spi_server::service::{serve, Engine, EngineOutcome, RunControl, ServerHandle, ServerOptions};
use spi_verify::jsonlite::Json;

const P2: &str = "(^kAB)((^m) c<{m}kAB> | c(z).case z of {w}kAB in observe<w>)";
const P1: &str = "(^m) c<m> | c(z).observe<z>";
const P_ABS: &str = "(^s)(s<s>.(^m)c<m> | s@lamB(x_s).c@lamB(z).observe<z>)";

/// A stub engine: sleeps, then answers a constant body.  `runs` counts
/// real executions so tests can assert dedup independently of the
/// server's own probe counter.
struct SlowEngine {
    delay: Duration,
    runs: AtomicU64,
    body_padding: usize,
}

impl SlowEngine {
    fn new(delay_ms: u64) -> SlowEngine {
        SlowEngine {
            delay: Duration::from_millis(delay_ms),
            runs: AtomicU64::new(0),
            body_padding: 0,
        }
    }
}

impl Engine for SlowEngine {
    fn run(&self, job: &JobRequest, _ctl: &RunControl) -> EngineOutcome {
        self.runs.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        EngineOutcome {
            body: Ok(Json::Obj(vec![
                ("answer".into(), Json::Int(42)),
                ("echo_sessions".into(), Json::count(job.sessions as usize)),
                ("padding".into(), Json::str("p".repeat(self.body_padding))),
            ])),
            cacheable: true,
        }
    }
}

fn opts(addr_port0: bool) -> ServerOptions {
    ServerOptions {
        addr: if addr_port0 {
            "127.0.0.1:0".into()
        } else {
            ServerOptions::default().addr
        },
        ..ServerOptions::default()
    }
}

fn start(engine: Arc<dyn Engine>, configure: impl FnOnce(&mut ServerOptions)) -> ServerHandle {
    let mut o = opts(true);
    configure(&mut o);
    serve(engine, o).expect("server starts")
}

fn verify_line(concrete: &str, sessions: u32) -> String {
    format!(
        r#"{{"op":"verify","concrete":"{}","abstract":"{}","sessions":{sessions}}}"#,
        concrete.replace('\\', "\\\\"),
        P_ABS.replace('\\', "\\\\"),
    )
}

fn field<'a>(resp: &'a Json, key: &str) -> &'a Json {
    resp.get(key)
        .unwrap_or_else(|| panic!("response lacks {key:?}: {resp:?}"))
}

fn parsed(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
}

#[test]
fn ping_stats_and_errors_speak_the_protocol() {
    let handle = start(Arc::new(SlowEngine::new(0)), |_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let pong = parsed(&client.roundtrip(r#"{"op":"ping"}"#).unwrap());
    assert_eq!(field(&pong, "status").as_str(), Some("ok"));

    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let body = field(&stats, "body");
    for key in [
        "hits",
        "misses",
        "evictions",
        "inflight",
        "queue_depth",
        "executions",
        "rejected",
        "entries",
        "cache_bytes",
        "cache_bytes_max",
    ] {
        assert!(body.get(key).is_some(), "stats lacks {key:?}: {body:?}");
    }

    let err = parsed(&client.roundtrip("this is not json").unwrap());
    assert_eq!(field(&err, "status").as_str(), Some("error"));

    let err = parsed(
        &client
            .roundtrip(r#"{"op":"verify","concrete":"(((","abstract":"0"}"#)
            .unwrap(),
    );
    assert_eq!(field(&err, "status").as_str(), Some("error"));

    handle.join();
}

#[test]
fn repeat_requests_hit_the_cache_with_identical_bodies() {
    let engine = Arc::new(SlowEngine::new(0));
    let handle = start(Arc::clone(&engine) as Arc<dyn Engine>, |_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let line = verify_line(P2, 1);
    let first = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&first, "status").as_str(), Some("ok"));
    assert_eq!(field(&first, "cached").as_bool(), Some(false));
    let second = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&second, "cached").as_bool(), Some(true));
    assert_eq!(field(&first, "body"), field(&second, "body"));
    assert_eq!(
        field(&first, "spec_digest").as_str(),
        field(&second, "spec_digest").as_str()
    );
    assert_eq!(engine.runs.load(Ordering::SeqCst), 1);

    // A different question is a different digest and a fresh run.
    let other = parsed(&client.roundtrip(&verify_line(P1, 1)).unwrap());
    assert_eq!(field(&other, "cached").as_bool(), Some(false));
    assert_ne!(
        field(&first, "spec_digest").as_str(),
        field(&other, "spec_digest").as_str()
    );
    assert_eq!(engine.runs.load(Ordering::SeqCst), 2);

    // no_cache bypasses the cache entirely.
    let bypass = verify_line(P2, 1).replace(
        "\"op\":\"verify\"",
        "\"op\":\"verify\",\"no_cache\":true",
    );
    let resp = parsed(&client.roundtrip(&bypass).unwrap());
    assert_eq!(field(&resp, "cached").as_bool(), Some(false));
    assert_eq!(engine.runs.load(Ordering::SeqCst), 3);

    handle.join();
}

#[test]
fn singleflight_runs_concurrent_identical_requests_once() {
    let engine = Arc::new(SlowEngine::new(150));
    let handle = start(Arc::clone(&engine) as Arc<dyn Engine>, |o| {
        o.workers = 4;
        o.queue_cap = 64;
    });
    let addr = handle.addr().to_string();

    let line = verify_line(P2, 1);
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let line = line.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.roundtrip(&line).unwrap()
            })
        })
        .collect();
    let responses: Vec<Json> = threads
        .into_iter()
        .map(|t| parsed(&t.join().unwrap()))
        .collect();

    for resp in &responses {
        assert_eq!(field(resp, "status").as_str(), Some("ok"));
        assert_eq!(field(resp, "body"), field(&responses[0], "body"));
    }
    assert_eq!(
        engine.runs.load(Ordering::SeqCst),
        1,
        "eight identical concurrent requests must fund exactly one exploration"
    );
    assert_eq!(handle.executions(), 1);
    let served_cached = responses
        .iter()
        .filter(|r| field(r, "cached").as_bool() == Some(true))
        .count();
    assert_eq!(served_cached, 7, "everyone but the leader rides the cache");

    handle.join();
}

#[test]
fn cache_stays_under_its_byte_budget_and_reports_evictions() {
    let engine = Arc::new(SlowEngine {
        delay: Duration::from_millis(0),
        runs: AtomicU64::new(0),
        body_padding: 160,
    });
    let handle = start(Arc::clone(&engine) as Arc<dyn Engine>, |o| {
        // Room for roughly two padded bodies.
        o.cache_bytes = 700;
    });
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    for sessions in 1..=8 {
        let resp = parsed(&client.roundtrip(&verify_line(P2, sessions)).unwrap());
        assert_eq!(field(&resp, "status").as_str(), Some("ok"));
        let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        let body = field(&stats, "body");
        let used = field(body, "cache_bytes").as_int().unwrap();
        let max = field(body, "cache_bytes_max").as_int().unwrap();
        assert!(used <= max, "cache exceeded its budget: {used} > {max}");
    }
    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let evictions = field(field(&stats, "body"), "evictions").as_int().unwrap();
    assert!(evictions > 0, "eight distinct results must not all fit");

    handle.join();
}

#[test]
fn full_queue_degrades_to_rejected_responses() {
    let engine = Arc::new(SlowEngine::new(400));
    let handle = start(Arc::clone(&engine) as Arc<dyn Engine>, |o| {
        o.workers = 1;
        o.queue_cap = 1;
    });
    let addr = handle.addr().to_string();

    // Distinct digests so singleflight cannot merge them.
    let threads: Vec<_> = (1..=6)
        .map(|sessions| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.roundtrip(&verify_line(P2, sessions)).unwrap()
            })
        })
        .collect();
    let statuses: Vec<String> = threads
        .into_iter()
        .map(|t| {
            let resp = parsed(&t.join().unwrap());
            field(&resp, "status").as_str().unwrap().to_string()
        })
        .collect();
    assert!(
        statuses.iter().any(|s| s == "rejected"),
        "a 1-worker/1-slot server under 6 concurrent jobs must shed load: {statuses:?}"
    );
    assert!(
        statuses.iter().any(|s| s == "ok"),
        "admitted jobs still complete: {statuses:?}"
    );

    handle.join();
}

#[test]
fn snapshot_survives_a_restart_and_serves_the_first_repeat_from_cache() {
    let dir = std::env::temp_dir().join(format!("spi-serve-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("cache.json");
    let _ = std::fs::remove_file(&snap);
    let line = verify_line(P2, 1);

    let first_body;
    {
        let engine = Arc::new(SlowEngine::new(0));
        let handle = start(Arc::clone(&engine) as Arc<dyn Engine>, |o| {
            o.snapshot = Some(snap.clone());
        });
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let resp = parsed(&client.roundtrip(&line).unwrap());
        assert_eq!(field(&resp, "cached").as_bool(), Some(false));
        first_body = field(&resp, "body").clone();
        handle.join();
    }
    assert!(snap.exists(), "drain must flush the snapshot");

    // Restart on the snapshot: the very first repeat is already a hit,
    // and the engine is never consulted.
    let engine = Arc::new(SlowEngine::new(0));
    let handle = start(Arc::clone(&engine) as Arc<dyn Engine>, |o| {
        o.snapshot = Some(snap.clone());
    });
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let resp = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&resp, "cached").as_bool(), Some(true));
    assert_eq!(field(&resp, "body"), &first_body);
    assert_eq!(engine.runs.load(Ordering::SeqCst), 0);
    handle.join();

    // A forged snapshot is refused and the server starts cold.
    let text = std::fs::read_to_string(&snap).unwrap();
    std::fs::write(&snap, text.replace("42", "41")).unwrap();
    let engine = Arc::new(SlowEngine::new(0));
    let handle = start(Arc::clone(&engine) as Arc<dyn Engine>, |o| {
        o.snapshot = Some(snap.clone());
    });
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let resp = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(
        field(&resp, "cached").as_bool(),
        Some(false),
        "a tampered snapshot must not serve forged results"
    );
    assert_eq!(engine.runs.load(Ordering::SeqCst), 1);
    handle.join();
}

#[test]
fn draining_server_rejects_new_jobs_but_still_answers_from_cache() {
    let engine = Arc::new(SlowEngine::new(0));
    let handle = start(Arc::clone(&engine) as Arc<dyn Engine>, |_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let line = verify_line(P2, 1);
    let _ = client.roundtrip(&line).unwrap();
    let shut = parsed(&client.roundtrip(r#"{"op":"shutdown"}"#).unwrap());
    assert_eq!(field(&shut, "status").as_str(), Some("ok"));

    // The open connection keeps serving: cache hits succeed, fresh
    // work is shed.
    let hit = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&hit, "cached").as_bool(), Some(true));
    let fresh = parsed(&client.roundtrip(&verify_line(P2, 7)).unwrap());
    assert_eq!(field(&fresh, "status").as_str(), Some("rejected"));

    handle.join();
}

#[test]
fn the_real_engine_verifies_and_caches_real_verdicts() {
    use spi_server::service::VerifierEngine;

    let handle = start(
        Arc::new(VerifierEngine {
            explore_workers: Some(1),
        }),
        |_| {},
    );
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // P2 securely implements the abstract single-session protocol…
    let good = parsed(&client.roundtrip(&verify_line(P2, 1)).unwrap());
    assert_eq!(field(&good, "status").as_str(), Some("ok"));
    let body = field(&good, "body");
    assert_eq!(
        field(body, "verdict").as_str(),
        Some("securely-implements"),
        "{body:?}"
    );
    assert!(field(body, "traces_checked").as_int().unwrap() > 0);

    // …the plaintext protocol does not, and the attack carries its
    // narration.
    let bad = parsed(&client.roundtrip(&verify_line(P1, 1)).unwrap());
    let body = field(&bad, "body");
    assert_eq!(field(body, "verdict").as_str(), Some("attack"));
    assert!(!field(field(body, "attack"), "narration")
        .as_arr()
        .unwrap()
        .is_empty());

    // The repeat is a cache hit with the identical verdict and stats.
    let again = parsed(&client.roundtrip(&verify_line(P2, 1)).unwrap());
    assert_eq!(field(&again, "cached").as_bool(), Some(true));
    assert_eq!(field(&again, "body"), field(&good, "body"));

    // A zero-second timeout degrades to inconclusive (wall-clock) and
    // is NOT cached: the next identical request runs fresh.
    let timed = verify_line(P2, 2).replace(
        "\"op\":\"verify\"",
        "\"op\":\"verify\",\"timeout_secs\":0",
    );
    let t1 = parsed(&client.roundtrip(&timed).unwrap());
    let body = field(&t1, "body");
    assert_eq!(field(body, "verdict").as_str(), Some("inconclusive"));
    assert_eq!(field(body, "exhausted").as_str(), Some("wall-clock"));
    let executions_before = handle.executions();
    let t2 = parsed(&client.roundtrip(&timed).unwrap());
    assert_eq!(field(&t2, "cached").as_bool(), Some(false));
    assert!(handle.executions() > executions_before);

    handle.join();
}

#[test]
fn one_requests_timeout_never_cancels_the_next_requests_run() {
    use spi_server::service::VerifierEngine;

    let handle = start(
        Arc::new(VerifierEngine {
            explore_workers: Some(1),
        }),
        |_| {},
    );
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let timed = verify_line(P2, 2).replace(
        "\"op\":\"verify\"",
        "\"op\":\"verify\",\"timeout_secs\":0",
    );
    let t = parsed(&client.roundtrip(&timed).unwrap());
    assert_eq!(field(field(&t, "body"), "exhausted").as_str(), Some("wall-clock"));

    // A different question afterwards gets a real verdict: the first
    // run's deadline belonged to it alone.
    let next = parsed(&client.roundtrip(&verify_line(P2, 1)).unwrap());
    assert_eq!(
        field(field(&next, "body"), "verdict").as_str(),
        Some("securely-implements"),
        "{next:?}"
    );

    handle.join();
}

#[test]
fn the_real_engine_runs_campaigns() {
    use spi_server::service::VerifierEngine;

    let handle = start(
        Arc::new(VerifierEngine {
            explore_workers: Some(1),
        }),
        |_| {},
    );
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    const PM2: &str =
        "(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)";
    const PM_ABS: &str = "(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)";
    let line = format!(
        r#"{{"op":"campaign","concrete":"{PM2}","abstract":"{PM_ABS}","sessions":2,"intruder":false,"faults_depth":2}}"#
    );
    let resp = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&resp, "status").as_str(), Some("ok"));
    let body = field(&resp, "body");
    assert_eq!(field(body, "enumerated").as_int(), Some(14));
    assert!(field(body, "attacks").as_int().unwrap() > 0);
    assert_eq!(field(body, "interrupted").as_bool(), Some(false));
    assert!(!field(body, "results").as_arr().unwrap().is_empty());

    // Campaigns ride the same cache.
    let again = parsed(&client.roundtrip(&line).unwrap());
    assert_eq!(field(&again, "cached").as_bool(), Some(true));
    assert_eq!(field(&again, "body"), body);

    handle.join();
}
