//! Measure warm-vs-cold request latency against an in-process
//! `spi serve` daemon — plus warm throughput and cold tail latency
//! against coordinator-fronted fleets of 1/2/4 workers — and print the
//! complete `BENCH_serve.json` document to stdout.
//!
//! Run with `cargo run --release -p spi-bench --bin serve_bench -- <date> > BENCH_serve.json`
//! from the repository root (the spec paths are relative).
//!
//! Cold samples set `no_cache: true`, so every one pays for a full
//! dual exploration of Pm3 against Pm; warm samples are served from
//! the content-addressed result cache.  The two kinds are interleaved
//! (cold, warm, cold, warm, …) so neither benefits from running last,
//! and the reported figures are medians.
//!
//! The fleet section measures what sharding actually buys on this
//! box: aggregate cache *capacity*, not CPU parallelism.  Every
//! worker's cache budget holds only half of an 8-question working set,
//! and questions are revisited in a seeded pseudo-random order — one
//! node keeps evicting and re-exploring, while four nodes hold the
//! whole set across their consistent-hash shards and answer from
//! cache.  Warm throughput must scale at least 1.5x from 1 to 4
//! workers.

use std::sync::Arc;
use std::time::Instant;

use spi_auth::server::{
    coordinate, serve, Client, CoordinatorOptions, ServerHandle, ServerOptions, VerifierEngine,
};
use spi_auth::verify::jsonlite::Json;

const COLD_RUNS: usize = 5;
const WARM_RUNS: usize = 20;

/// Distinct questions in the fleet working set (pm2 vs pm at varying
/// `visible` bounds: distinct digests, comparable exploration cost).
const FLEET_SET: usize = 8;
/// Cold tail samples per fleet size.
const FLEET_COLD_RUNS: usize = 10;
/// Pseudo-random warm requests per fleet size.
const FLEET_WARM_RUNS: usize = 64;

fn read_spec(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("run from the repository root: {path}: {e}"))
}

fn request_line(no_cache: bool) -> String {
    let concrete = read_spec("examples/protocols/pm3.spi");
    let spec = read_spec("examples/protocols/pm.spi");
    Json::Obj(vec![
        ("op".to_string(), Json::str("verify")),
        ("concrete".into(), Json::str(concrete)),
        ("abstract".into(), Json::str(spec)),
        ("sessions".into(), Json::count(2)),
        ("no_cache".into(), Json::Bool(no_cache)),
    ])
    .render_compact()
}

fn sample_ms(client: &mut Client, line: &str) -> (f64, bool) {
    let start = Instant::now();
    let response = client.roundtrip(line).expect("roundtrip succeeds");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let parsed = Json::parse(&response).expect("response is JSON");
    assert_eq!(
        parsed.get("status").and_then(Json::as_str),
        Some("ok"),
        "server answered: {response}"
    );
    let cached = parsed.get("cached").and_then(Json::as_bool) == Some(true);
    (ms, cached)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn percentile(samples: &mut [f64], pct: usize) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = (samples.len() * pct).div_ceil(100).max(1);
    samples[rank.min(samples.len()) - 1]
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fleet working set: distinct digests (the `visible` bound is
/// part of the request canonicalization) with comparable cold cost.
fn fleet_questions() -> Vec<String> {
    let concrete = read_spec("examples/protocols/pm2.spi");
    let spec = read_spec("examples/protocols/pm.spi");
    (0..FLEET_SET)
        .map(|i| {
            Json::Obj(vec![
                ("op".to_string(), Json::str("verify")),
                ("concrete".into(), Json::str(concrete.clone())),
                ("abstract".into(), Json::str(spec.clone())),
                ("sessions".into(), Json::count(2)),
                ("visible".into(), Json::count(3 + i)),
            ])
            .render_compact()
        })
        .collect()
}

/// Connection-count tiers for the concurrency series.
const CONCURRENCY_TIERS: [usize; 4] = [1, 100, 1_000, 10_000];
const CONC_COLD_RUNS: usize = 10;
const CONC_WARM_RUNS: usize = 100;
/// Idle connections held in-process before spilling to helper
/// processes (the in-process client and server ends each cost an fd,
/// and RLIMIT_NOFILE on a stock box is ~20k — the 10 000-connection
/// tier must not eat the whole budget from inside one process).
const IDLE_IN_PROCESS_MAX: usize = 4_000;

struct ConcurrencyRecord {
    connections: usize,
    cold_p50_ms: f64,
    cold_p99_ms: f64,
    warm_p50_ms: f64,
    warm_p99_ms: f64,
}

/// The idle herd for one tier: `n` open-and-silent connections, the
/// first chunk held as in-process sockets, the rest parked in bash
/// helper children (`/dev/tcp`) so the bench process's fd budget
/// covers the server side of all ten thousand.
struct IdleHerd {
    local: Vec<std::net::TcpStream>,
    helpers: Vec<std::process::Child>,
}

impl IdleHerd {
    fn open(n: usize, addr: &str) -> IdleHerd {
        let in_process = n.min(IDLE_IN_PROCESS_MAX);
        let local: Vec<std::net::TcpStream> = (0..in_process)
            .map(|_| std::net::TcpStream::connect(addr).expect("idle connection opens"))
            .collect();
        let mut helpers = Vec::new();
        let mut remaining = n - in_process;
        let (ip, port) = addr.split_once(':').expect("host:port");
        while remaining > 0 {
            let chunk = remaining.min(IDLE_IN_PROCESS_MAX);
            remaining -= chunk;
            let script = format!(
                r#"for i in $(seq 1 {chunk}); do exec {{fd}}<>"/dev/tcp/{ip}/{port}" || exit 1; done; echo up; read -r _"#
            );
            let mut child = std::process::Command::new("bash")
                .args(["-c", &script])
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("bash helper spawns (the 10k tier needs /dev/tcp)");
            // The helper prints one line once every connection is up.
            let mut line = String::new();
            use std::io::BufRead as _;
            std::io::BufReader::new(child.stdout.take().expect("helper stdout"))
                .read_line(&mut line)
                .expect("helper reports readiness");
            assert_eq!(line.trim(), "up", "helper opened its connections");
            helpers.push(child);
        }
        IdleHerd { local, helpers }
    }

    fn close(mut self) {
        self.local.clear();
        for mut h in self.helpers.drain(..) {
            drop(h.stdin.take()); // unblocks the trailing `read`
            let _ = h.wait();
        }
    }
}

/// One tier of the concurrency series: `n` connections total, `n - 1`
/// idle, one doing the talking.
fn concurrency_record(n: usize, cold_line: &str, warm_line: &str) -> ConcurrencyRecord {
    let handle = serve(
        Arc::new(VerifierEngine {
            explore_workers: Some(1),
        }),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            snapshot: None,
            ..ServerOptions::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let herd = IdleHerd::open(n.saturating_sub(1), &addr);
    let mut client = Client::connect(&addr).expect("client connects");

    let (_, primed) = sample_ms(&mut client, warm_line);
    assert!(!primed, "the priming request must run the engine");
    let mut cold: Vec<f64> = (0..CONC_COLD_RUNS)
        .map(|_| sample_ms(&mut client, cold_line).0)
        .collect();
    let mut warm: Vec<f64> = (0..CONC_WARM_RUNS)
        .map(|_| {
            let (ms, cached) = sample_ms(&mut client, warm_line);
            assert!(cached, "warm samples must be cache hits");
            ms
        })
        .collect();

    herd.close();
    handle.join();
    ConcurrencyRecord {
        connections: n,
        cold_p50_ms: percentile(&mut cold, 50),
        cold_p99_ms: percentile(&mut cold, 99),
        warm_p50_ms: percentile(&mut warm, 50),
        warm_p99_ms: percentile(&mut warm, 99),
    }
}

struct FleetRecord {
    workers: usize,
    cold_p99_ms: f64,
    warm_reqs_per_sec: f64,
}

/// One fleet size: coordinator + `n` workers whose cache budgets hold
/// only half the working set each.
fn fleet_record(n: usize, questions: &[String], cache_bytes: usize) -> FleetRecord {
    let engine = || {
        Arc::new(VerifierEngine {
            explore_workers: Some(1),
        })
    };
    let workers: Vec<ServerHandle> = (0..n)
        .map(|_| {
            serve(
                engine(),
                ServerOptions {
                    addr: "127.0.0.1:0".into(),
                    workers: 2,
                    cache_bytes,
                    snapshot: None,
                    ..ServerOptions::default()
                },
            )
            .expect("worker starts")
        })
        .collect();
    let coordinator = coordinate(
        engine(),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            ..ServerOptions::default()
        },
        CoordinatorOptions {
            fail_after_ms: 60_000,
            connect_timeout_ms: 1000,
            read_timeout_ms: 120_000,
            hedge_after_ms: 5_000,
            retry_rounds: 2,
            ..CoordinatorOptions::default()
        },
    )
    .expect("coordinator starts");
    let mut client = Client::connect(&coordinator.addr().to_string()).expect("client connects");
    for w in &workers {
        let join = format!(r#"{{"op":"join","addr":"{}"}}"#, w.addr());
        let (_, _) = sample_ms(&mut client, &join);
    }

    // Cold tail: full explorations through the fleet dispatch path.
    let cold_line = format!(
        "{}{}",
        &questions[0][..questions[0].len() - 1],
        r#","no_cache":true}"#
    );
    let mut cold: Vec<f64> = (0..FLEET_COLD_RUNS)
        .map(|_| sample_ms(&mut client, &cold_line).0)
        .collect();

    // Prime every question once, then measure warm throughput over a
    // seeded pseudo-random revisit order.
    for q in questions {
        let _ = sample_ms(&mut client, q);
    }
    let mut rng = 0x5eed_u64 ^ n as u64;
    let started = Instant::now();
    for _ in 0..FLEET_WARM_RUNS {
        let q = &questions[usize::try_from(splitmix(&mut rng)).unwrap_or(0) % questions.len()];
        let _ = sample_ms(&mut client, q);
    }
    let elapsed = started.elapsed().as_secs_f64();

    coordinator.join();
    for w in workers {
        w.join();
    }
    FleetRecord {
        workers: n,
        cold_p99_ms: percentile(&mut cold, 99),
        warm_reqs_per_sec: FLEET_WARM_RUNS as f64 / elapsed,
    }
}

fn main() {
    let date = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "unknown".to_string());
    let handle = serve(
        Arc::new(VerifierEngine {
            explore_workers: Some(1),
        }),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            snapshot: None,
            ..ServerOptions::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(&handle.addr().to_string()).expect("client connects");

    let cold_line = request_line(true);
    let warm_line = request_line(false);
    // Prime the cache so every warm sample is a hit.
    let (_, primed_cached) = sample_ms(&mut client, &warm_line);
    assert!(!primed_cached, "the priming request must run the engine");

    let mut cold = Vec::new();
    let mut warm = Vec::new();
    while cold.len() < COLD_RUNS || warm.len() < WARM_RUNS {
        if cold.len() < COLD_RUNS {
            cold.push(sample_ms(&mut client, &cold_line).0);
        }
        if warm.len() < WARM_RUNS {
            let (ms, cached) = sample_ms(&mut client, &warm_line);
            assert!(cached, "warm samples must be cache hits");
            warm.push(ms);
        }
    }
    let cold_ms = median(&mut cold);
    let warm_ms = median(&mut warm);
    let speedup = cold_ms / warm_ms;
    handle.join();

    // The concurrency series: the same question asked while 0/99/999/
    // 9999 other connections sit idle on the epoll front end.  A
    // cheaper instance (pm2 at 2 sessions) keeps the cold tier
    // affordable at every connection count.
    let concrete = read_spec("examples/protocols/pm2.spi");
    let spec = read_spec("examples/protocols/pm.spi");
    let conc_warm_line = Json::Obj(vec![
        ("op".to_string(), Json::str("verify")),
        ("concrete".into(), Json::str(concrete)),
        ("abstract".into(), Json::str(spec)),
        ("sessions".into(), Json::count(2)),
    ])
    .render_compact();
    let conc_cold_line = format!(
        "{}{}",
        &conc_warm_line[..conc_warm_line.len() - 1],
        r#","no_cache":true}"#
    );
    let series: Vec<ConcurrencyRecord> = CONCURRENCY_TIERS
        .iter()
        .map(|&n| concurrency_record(n, &conc_cold_line, &conc_warm_line))
        .collect();
    let series_rows: Vec<String> = series
        .iter()
        .map(|r| {
            format!(
                r#"    {{
      "connections": {},
      "cold_p50_ms": {:.3},
      "cold_p99_ms": {:.3},
      "warm_p50_ms": {:.3},
      "warm_p99_ms": {:.3}
    }}"#,
                r.connections, r.cold_p50_ms, r.cold_p99_ms, r.warm_p50_ms, r.warm_p99_ms
            )
        })
        .collect();

    // Size each fleet node's cache to half the working set: measure a
    // representative entry (digest key + op + body bytes) and budget
    // for FLEET_SET/2 of them, so one node must evict while four hold
    // the whole set across shards.
    let questions = fleet_questions();
    let probe = serve(
        Arc::new(VerifierEngine {
            explore_workers: Some(1),
        }),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            snapshot: None,
            ..ServerOptions::default()
        },
    )
    .expect("probe server starts");
    {
        let mut probe_client =
            Client::connect(&probe.addr().to_string()).expect("probe client connects");
        let _ = sample_ms(&mut probe_client, &questions[0]);
    }
    let entry_bytes: usize = probe
        .cache_entries()
        .iter()
        .map(|(k, op, body)| k.len() + op.len() + body.len())
        .sum();
    probe.join();
    assert!(entry_bytes > 0, "the probe must have cached one entry");
    let cache_bytes = entry_bytes * FLEET_SET / 2 + entry_bytes / 2;

    let fleet: Vec<FleetRecord> = [1usize, 2, 4]
        .iter()
        .map(|&n| fleet_record(n, &questions, cache_bytes))
        .collect();
    let scaling = fleet[2].warm_reqs_per_sec / fleet[0].warm_reqs_per_sec;

    let fleet_records: Vec<String> = fleet
        .iter()
        .map(|r| {
            format!(
                r#"    {{
      "workers": {},
      "cold_p99_ms": {:.3},
      "warm_requests": {FLEET_WARM_RUNS},
      "warm_reqs_per_sec": {:.1}
    }}"#,
                r.workers, r.cold_p99_ms, r.warm_reqs_per_sec
            )
        })
        .collect();

    println!(
        r#"{{
  "benchmark": "serve_latency",
  "date": "{date}",
  "command": "cargo run --release -p spi-bench --bin serve_bench -- <date> > BENCH_serve.json",
  "methodology": "An in-process spi serve daemon (2 request workers, single-threaded explorations, default cache budget) answers verify requests for examples/protocols/pm3.spi against examples/protocols/pm.spi at 2 sessions over loopback TCP. Cold samples set no_cache=true so each pays for the full dual exploration plus trace-preorder comparison; warm samples are served from the content-addressed result cache. Samples are interleaved cold/warm after one priming fill, figures are medians, latency is measured client-side around one request/response line.",
  "records": [
    {{
      "instance": "pm3_vs_pm",
      "sessions": 2,
      "cold_runs": {COLD_RUNS},
      "warm_runs": {WARM_RUNS},
      "cold_median_ms": {cold_ms:.3},
      "warm_median_ms": {warm_ms:.3},
      "speedup": {speedup:.1}
    }}
  ],
  "concurrency_methodology": "One spi serve daemon (4 request workers, epoll reactor front end) answers pm2-vs-pm verify requests at 2 sessions while N-1 other connections sit open and silent (held as plain sockets; beyond 4000 they live in bash /dev/tcp helper children so one process's fd budget covers the server side of the 10000-connection tier). Per tier: one priming fill, then {CONC_COLD_RUNS} no_cache=true cold samples and {CONC_WARM_RUNS} cache-hit warm samples on a single talking connection; p50/p99 are client-side per-line round-trip times. Flat latency across tiers is the claim: idle connections are epoll registrations, not threads, so ten thousand of them must not tax the one doing the work.",
  "concurrency_records": [
{series_rows}
  ],
  "fleet_methodology": "A coordinator (spi fleet) fronts 1/2/4 spi serve workers over loopback; requests shard by content digest on a consistent-hash ring. The working set is {FLEET_SET} distinct pm2-vs-pm verify questions (visible bound 3..{FLEET_SET_END}) and every worker cache budget holds only half of it, so this single-core box measures aggregate cache capacity, not CPU parallelism: one node keeps evicting and re-exploring under a seeded pseudo-random revisit order, four nodes hold the whole set across shards. cold_p99_ms is the p99 of {FLEET_COLD_RUNS} no_cache=true requests through the dispatch path; warm_reqs_per_sec is {FLEET_WARM_RUNS} pseudo-random requests after one priming pass, timed end to end on one client connection. warm_scaling_1_to_4 must be >= 1.5.",
  "fleet_records": [
{fleet_rows}
  ],
  "warm_scaling_1_to_4": {scaling:.2}
}}"#,
        FLEET_SET_END = 3 + FLEET_SET,
        fleet_rows = fleet_records.join(",\n"),
        series_rows = series_rows.join(",\n"),
    );
    assert!(
        speedup >= 10.0,
        "expected >=10x warm-vs-cold, measured {speedup:.1}x"
    );
    assert!(
        scaling >= 1.5,
        "expected >=1.5x warm throughput from 1 to 4 workers, measured {scaling:.2}x"
    );
}
