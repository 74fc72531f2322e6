//! Hostile-client hardening: malformed wire input, slowloris senders,
//! never-reading receivers, and quota-hogging tenants must each get a
//! structured answer or a surgical disconnect — never a panic, a
//! wedged worker slot, or collateral damage to other connections.
//!
//! A worker (`serve`) and a coordinator (`coordinate`) share one front
//! end, so most tests run against both kinds.  The coordinator has no
//! workers joined: every job runs on its local engine, behind the same
//! reactor and admission as a worker's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spi_server::client::Client;
use spi_server::coordinator::{coordinate, CoordinatorOptions};
use spi_server::protocol::JobRequest;
use spi_server::service::{
    serve, Engine, EngineOutcome, RunControl, ServerHandle, VerifierEngine, MAX_LINE_BYTES,
};
use spi_server::ServerOptions;
use spi_verify::jsonlite::Json;

/// The two node kinds behind the shared front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Worker,
    Coordinator,
}

const KINDS: [Kind; 2] = [Kind::Worker, Kind::Coordinator];

/// Starts a node of `kind` over `engine` on an ephemeral port.
fn start_node(
    kind: Kind,
    engine: Arc<dyn Engine>,
    configure: impl FnOnce(&mut ServerOptions),
) -> ServerHandle {
    let mut opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        ..ServerOptions::default()
    };
    configure(&mut opts);
    match kind {
        Kind::Worker => serve(engine, opts),
        Kind::Coordinator => coordinate(engine, opts, CoordinatorOptions::default()),
    }
    .expect("node starts")
}

fn start(kind: Kind) -> ServerHandle {
    start_with(kind, |_| {})
}

fn start_with(kind: Kind, configure: impl FnOnce(&mut ServerOptions)) -> ServerHandle {
    start_node(
        kind,
        Arc::new(VerifierEngine {
            explore_workers: Some(1),
        }),
        configure,
    )
}

fn parsed(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
}

fn status(resp: &Json) -> &str {
    resp.get("status").and_then(Json::as_str).expect("status")
}

/// Sends raw bytes and reads one response line over a plain socket
/// (the [`Client`] insists on UTF-8 strings, which is exactly what
/// these tests must not).
fn raw_roundtrip(stream: &mut TcpStream, payload: &[u8]) -> String {
    stream.write_all(payload).expect("send");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    line.trim_end().to_string()
}

#[test]
fn oversized_lines_get_a_structured_error_not_a_wedged_slot() {
    for kind in KINDS {
        let handle = start(kind);
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();

        // A 10 MB request line: an order of magnitude past the cap.
        let huge = format!(r#"{{"op":"verify","concrete":"{}"}}"#, "x".repeat(10 * 1024 * 1024));
        assert!(huge.len() > MAX_LINE_BYTES);
        let resp = parsed(&client.roundtrip(&huge).unwrap());
        assert_eq!(status(&resp), "error");
        let reason = resp.get("reason").and_then(Json::as_str).unwrap();
        assert!(reason.contains("exceeds"), "{reason}");

        // The same connection still serves real work afterwards.
        let pong = parsed(&client.roundtrip(r#"{"op":"ping"}"#).unwrap());
        assert_eq!(status(&pong), "ok");
        let verify = parsed(
            &client
                .roundtrip(r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1}"#)
                .unwrap(),
        );
        assert_eq!(status(&verify), "ok");

        handle.join();
    }
}

#[test]
fn invalid_utf8_is_answered_not_fatal() {
    for kind in KINDS {
        let handle = start(kind);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).ok();

        let mut payload = b"{\"op\":\"ping\", \"junk\":\"".to_vec();
        payload.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
        payload.extend_from_slice(b"\"}\n");
        let resp = parsed(&raw_roundtrip(&mut stream, &payload));
        assert_eq!(status(&resp), "error");
        let reason = resp.get("reason").and_then(Json::as_str).unwrap();
        assert!(reason.contains("UTF-8"), "{reason}");

        // The connection survives the binary garbage.
        let pong = parsed(&raw_roundtrip(&mut stream, b"{\"op\":\"ping\"}\n"));
        assert_eq!(status(&pong), "ok");

        handle.join();
    }
}

#[test]
fn truncated_json_and_unknown_ops_error_cleanly() {
    for kind in KINDS {
        let handle = start(kind);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();

        for bad in [
            r#"{"op":"verify","concrete":"0","abstr"#, // truncated mid-key
            r#"{"op":"verify","#,                      // truncated mid-object
            r#"{"op":"frobnicate"}"#,                  // unknown op
            r#"{"op":42}"#,                            // non-string op
            "]",                                       // not an object at all
        ] {
            let resp = parsed(&client.roundtrip(bad).unwrap());
            assert_eq!(status(&resp), "error", "for {bad:?}: {resp:?}");
            assert!(resp.get("reason").is_some(), "for {bad:?}");
        }

        // After the whole gauntlet, the server still does real work.
        let verify = parsed(
            &client
                .roundtrip(r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1}"#)
                .unwrap(),
        );
        assert_eq!(status(&verify), "ok");

        handle.join();
    }
}

#[test]
fn stats_expose_the_new_metrics_surface() {
    let handle = start(Kind::Worker);
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    let line = r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1}"#;
    let _ = client.roundtrip(line).unwrap(); // miss
    let _ = client.roundtrip(line).unwrap(); // hit

    let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    let body = stats.get("body").expect("body");
    for key in [
        "hits",
        "misses",
        "hit_rate_pct",
        "evictions",
        "collapsed",
        "queue_depth",
        "latency",
    ] {
        assert!(body.get(key).is_some(), "stats lacks {key:?}: {body:?}");
    }
    let pct = body.get("hit_rate_pct").and_then(Json::as_int).unwrap();
    assert!((1..=100).contains(&pct), "one hit, one miss: {pct}");
    let latency = body.get("latency").expect("latency");
    let verify = latency.get("verify").expect("per-op histogram");
    assert!(verify.get("count").and_then(Json::as_int).unwrap() >= 2);
    for q in ["p50_us", "p99_us"] {
        assert!(verify.get(q).and_then(Json::as_int).unwrap() > 0, "{q}");
    }
    // The C10k front end's counters are part of the surface too.
    for key in ["shed", "quota_denied", "active_connections", "heartbeats_sent"] {
        assert!(body.get(key).is_some(), "stats lacks {key:?}: {body:?}");
    }
    assert!(
        body.get("active_connections").and_then(Json::as_int).unwrap() >= 1,
        "this very connection is registered"
    );

    handle.join();
}

#[test]
fn slowloris_partial_line_is_reaped_while_others_are_served() {
    for kind in KINDS {
        let handle = start_with(kind, |o| o.read_deadline_ms = 200);
        let addr = handle.addr();

        // The attacker dribbles a request one byte at a time, never
        // finishing the line.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"{\"op\":\"pi").unwrap();
        slow.flush().unwrap();

        // A well-behaved neighbour is completely unaffected meanwhile.
        let mut good = Client::connect(&addr.to_string()).unwrap();
        let pong = parsed(&good.roundtrip(r#"{"op":"ping"}"#).unwrap());
        assert_eq!(status(&pong), "ok");

        // Past the read deadline the attacker's socket is closed: the next
        // read sees EOF, not an eternally parked connection.
        std::thread::sleep(Duration::from_millis(600));
        slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = Vec::new();
        let n = slow.read_to_end(&mut sink).unwrap_or(0);
        assert_eq!(n, 0, "the reaped connection delivers nothing");

        // An idle connection with *no* buffered bytes is never reaped.
        let pong = parsed(&good.roundtrip(r#"{"op":"ping"}"#).unwrap());
        assert_eq!(status(&pong), "ok");

        handle.join();
    }
}

/// An engine whose responses are megabyte-sized, so a non-reading
/// client's output accumulates fast.
struct BlobEngine;

impl Engine for BlobEngine {
    fn run(&self, _job: &JobRequest, _ctl: &RunControl) -> EngineOutcome {
        EngineOutcome {
            body: Ok(Json::Obj(vec![(
                "blob".into(),
                Json::str("x".repeat(1024 * 1024)),
            )])),
            cacheable: true,
        }
    }
}

/// Clamps the socket's kernel receive buffer so a non-reading client
/// cannot lean on TCP autotuning (tcp_rmem scales to tens of MB on
/// loopback) to absorb the server's entire output stream.
fn shrink_recv_buffer(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let bytes: i32 = 16 * 1024;
    // SOL_SOCKET = 1, SO_RCVBUF = 8 on Linux.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), 1, 8, &bytes, 4) };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[test]
fn never_reading_client_trips_the_write_cap_not_the_heap() {
    for kind in KINDS {
        let handle = start_node(kind, Arc::new(BlobEngine), |o| {
            o.write_buf_bytes = 256 * 1024;
        });
        let addr = handle.addr();

        // Pipeline many requests for ~1 MB responses and read none of
        // them: the kernel buffers fill, then the server-side write buffer
        // hits its cap and the connection is cut instead of growing.
        let mut greedy = TcpStream::connect(addr).unwrap();
        shrink_recv_buffer(&greedy);
        let line = r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1}"#;
        let requests = 24usize;
        for _ in 0..requests {
            greedy.write_all(line.as_bytes()).unwrap();
            greedy.write_all(b"\n").unwrap();
        }
        greedy.flush().unwrap();

        // Crucially, do NOT read yet: the kernel buffers fill, the server's
        // write buffer hits its cap, and the reactor cuts the connection.
        std::thread::sleep(Duration::from_millis(1500));

        // The server dropped the greedy connection: a fresh client is the
        // only one it still tracks, and it is served normally.
        let mut good = Client::connect(&addr.to_string()).unwrap();
        let stats = parsed(&good.roundtrip(r#"{"op":"stats"}"#).unwrap());
        let live = stats
            .get("body")
            .and_then(|b| b.get("active_connections"))
            .and_then(Json::as_int);
        assert_eq!(live, Some(1), "the greedy connection was cut: {stats:?}");
        let pong = parsed(&good.roundtrip(r#"{"op":"ping"}"#).unwrap());
        assert_eq!(status(&pong), "ok");

        // The greedy client sees only what was in flight in the kernel —
        // far less than the ~24 MB a well-read client would have gotten.
        // (The teardown may surface as EOF, a reset, or a final timeout,
        // depending on how much the kernel had queued; all are fine — the
        // point is the stream dies bounded instead of growing the heap.)
        greedy
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut sink = Vec::new();
        let _ = greedy.read_to_end(&mut sink);
        let got = sink.len();
        assert!(
            got < requests * 1024 * 1024 / 2,
            "expected a cut stream, read {got} bytes"
        );

        handle.join();
    }
}

#[test]
fn quota_exhausted_tenant_is_shed_while_others_proceed() {
    for kind in KINDS {
        // 1 token/second, burst 2: the third uncached job in a burst is
        // over quota.
        let handle = start_with(kind, |o| {
            o.quota_rate = 1;
            o.quota_burst = 2;
        });
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();

        let job = |sessions: u32, tenant: &str| {
            format!(
                r#"{{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":{sessions},"tenant":"{tenant}"}}"#
            )
        };
        // Distinct questions so the cache fast path (which deliberately
        // bypasses quotas — hits cost nothing) stays out of the way.
        for sessions in 1..=2 {
            let resp = parsed(&client.roundtrip(&job(sessions, "noisy")).unwrap());
            assert_eq!(status(&resp), "ok", "{resp:?}");
        }
        let shed = parsed(&client.roundtrip(&job(3, "noisy")).unwrap());
        assert_eq!(status(&shed), "rejected", "{shed:?}");
        let reason = shed.get("reason").and_then(Json::as_str).unwrap();
        assert!(reason.contains("quota"), "{reason}");
        let retry = shed.get("retry_after_ms").and_then(Json::as_int).unwrap();
        assert!(retry > 0, "a shed answer tells the tenant when to return");

        // A different tenant's bucket is untouched.
        let polite = parsed(&client.roundtrip(&job(3, "polite")).unwrap());
        assert_eq!(status(&polite), "ok", "{polite:?}");

        // And a cache *hit* is served even to the throttled tenant (a
        // coordinator holds no cache to hit).
        if kind == Kind::Worker {
            let hit = parsed(&client.roundtrip(&job(1, "noisy")).unwrap());
            assert_eq!(status(&hit), "ok");
            assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
        }

        let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        let body = stats.get("body").expect("body");
        assert!(body.get("quota_denied").and_then(Json::as_int).unwrap() >= 1);

        handle.join();
    }
}

/// A deliberately slow engine for heartbeat observation.
struct SlowEngine(Duration);

impl Engine for SlowEngine {
    fn run(&self, _job: &JobRequest, _ctl: &RunControl) -> EngineOutcome {
        std::thread::sleep(self.0);
        EngineOutcome {
            body: Ok(Json::Obj(vec![("answer".into(), Json::Int(1))])),
            cacheable: true,
        }
    }
}

#[test]
fn progress_ms_streams_heartbeats_before_the_final_answer() {
    for kind in KINDS {
        let handle = start_node(kind, Arc::new(SlowEngine(Duration::from_millis(700))), |_| {});
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        // A short per-line read timeout that only survives because every
        // heartbeat resets it — the satellite point of streaming progress.
        client.read_timeout(Some(Duration::from_millis(400))).unwrap();

        let line = r#"{"op":"verify","concrete":"(^m)c<m>|c(x).observe<x>","abstract":"(^m)c<m>|c(x).observe<x>","sessions":1,"progress_ms":100}"#;
        let mut beats: Vec<Json> = Vec::new();
        let final_line = client
            .roundtrip_streaming(line, |beat| beats.push(parsed(beat)))
            .unwrap();
        let resp = parsed(&final_line);
        assert_eq!(status(&resp), "ok", "{resp:?}");
        assert!(
            beats.len() >= 2,
            "a 700ms run at 100ms intervals heartbeats several times, got {}",
            beats.len()
        );
        for beat in &beats {
            assert_eq!(status(beat), "progress");
            assert_eq!(beat.get("op").and_then(Json::as_str), Some("verify"));
            assert!(beat.get("states_explored").is_some(), "{beat:?}");
            assert!(beat.get("schedules_classified").is_some(), "{beat:?}");
        }

        // The cached repeat answers instantly with zero heartbeats, and
        // the envelope bytes are unaffected by the subscription (a
        // coordinator holds no cache to repeat from).
        if kind == Kind::Worker {
            let mut repeats = 0usize;
            let cached = client
                .roundtrip_streaming(line, |_| repeats += 1)
                .unwrap();
            let cached = parsed(&cached);
            assert_eq!(cached.get("cached").and_then(Json::as_bool), Some(true));
            assert_eq!(repeats, 0, "cache hits stream no heartbeats");
        }

        let stats = parsed(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        let sent = stats
            .get("body")
            .and_then(|b| b.get("heartbeats_sent"))
            .and_then(Json::as_int)
            .unwrap();
        assert!(sent >= 2, "stats count the beats: {sent}");

        handle.join();
    }
}

#[test]
fn a_stalled_leave_handoff_never_delays_other_connections() {
    // A hand-off target that accepts the push and never answers it.
    let sink = TcpListener::bind("127.0.0.1:0").unwrap();
    let sink_addr = sink.local_addr().unwrap().to_string();
    let stalled = std::thread::spawn(move || {
        let (mut conn, _) = sink.accept().expect("the hand-off dials the sink");
        // Hold the connection open, silent, until the coordinator gives
        // up on it.
        let mut sink_bytes = Vec::new();
        let _ = conn.read_to_end(&mut sink_bytes);
    });
    let handle = coordinate(
        Arc::new(VerifierEngine::default()),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            ..ServerOptions::default()
        },
        CoordinatorOptions {
            fail_after_ms: 60_000,
            read_timeout_ms: 2_000,
            ..CoordinatorOptions::default()
        },
    )
    .expect("coordinator starts");
    let addr = handle.addr().to_string();
    let mut control = Client::connect(&addr).unwrap();
    let join = format!(r#"{{"op":"join","addr":"{sink_addr}"}}"#);
    assert_eq!(status(&parsed(&control.roundtrip(&join).unwrap())), "ok");

    // A departing worker hands off one entry: it routes to the sink.
    let entries = vec![(
        "fnv:aaaa".to_string(),
        "verify".to_string(),
        r#"{"verdict":"securely-implements"}"#.to_string(),
    )];
    let leave = Json::Obj(vec![
        ("op".to_string(), Json::str("leave")),
        ("addr".to_string(), Json::str("127.0.0.1:1")),
        ("cache".to_string(), spi_server::gossip::gossip_body(&entries)),
    ])
    .render_compact();
    let mut leaving = TcpStream::connect(handle.addr()).unwrap();
    leaving.write_all(format!("{leave}\n").as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // While the hand-off waits on the sink, another connection is
    // answered at once.
    let mut other = Client::connect(&addr).unwrap();
    let asked = Instant::now();
    let pong = parsed(&other.roundtrip(r#"{"op":"ping"}"#).unwrap());
    assert_eq!(status(&pong), "ok");
    assert!(
        asked.elapsed() < Duration::from_millis(500),
        "ping waited {:?} behind the hand-off",
        asked.elapsed()
    );

    // The hand-off itself ends in a structured answer once the sink
    // times out: nothing was handed off.
    let mut reader = BufReader::new(leaving);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = parsed(line.trim_end());
    assert_eq!(status(&resp), "ok", "{resp:?}");
    let body = resp.get("body").expect("body");
    assert_eq!(body.get("handed_off").and_then(Json::as_int), Some(0));

    handle.join();
    stalled.join().unwrap();
}
