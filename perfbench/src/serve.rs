//! `serve`: one client connection sends a seeded sequence of `verify`
//! requests to an in-process `spi serve` (daemon defaults: 2 request
//! workers, single-threaded explorations) and waits for each answer.
//!
//! The working set is [`QUESTIONS`] distinct Pm2-vs-Pm questions, one
//! per `visible` bound, and the cache budget holds only
//! [`CACHE_ENTRIES`] of them.  Popularity is skewed: a hot set of
//! [`HOT`] questions takes most requests and every tail request goes to
//! the tail question asked longest ago, so it always misses.  Some hot
//! repeats are re-spelled with different whitespace; they must still
//! hit.  A hit exercises only the front end (request parse, spec
//! canonicalization and digest, admission, cache read, encode, the
//! reactor); a miss runs the engine and then writes and evicts cache
//! entries.
//!
//! The sequence is a block of [`BLOCK`] requests replayed on one
//! daemon.  Set-up replays it once from a cold cache; after that every
//! block starts from the same cache state, so the daemon's hit, miss
//! and eviction counters must move by exactly the same amounts in
//! every block.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use spi_auth::server::{serve, Client, FullEngine, ServerHandle, ServerOptions};
use spi_auth::verify::jsonlite::Json;
use spi_server::{ok_response, parse_request, parse_source, Request, ResultCache};

use crate::stats::{peak_rss_mb, Rng, Usage};
use crate::trace::{Overhead, Tracer};
use crate::{gate, read_spec, Config, Fail, Report, PM, PM2, SPAN_DIR};

/// Distinct questions: `visible` bounds `FIRST_VISIBLE..`.
const QUESTIONS: usize = 24;
const FIRST_VISIBLE: usize = 4;
/// Hot questions and their relative popularity.
const HOT: usize = 4;
const HOT_WEIGHTS: [usize; HOT] = [30, 25, 25, 20];
/// Requests per block, and how many of them go to the tail.
const BLOCK: usize = 400;
const TAIL_PER_BLOCK: usize = 100;
/// Share of hot requests, in percent, sent re-spelled.
const RESPELL_PCT: usize = 30;
/// Cache entries the budget holds (fewer than [`QUESTIONS`]).
const CACHE_ENTRIES: usize = 10;
/// Explorer threads per exploration: the `spi serve` default.
const EXPLORE_WORKERS: usize = 1;
/// The counts every answer must carry: Pm2 vs Pm at 2 sessions.
const STATES: (i64, i64) = (194, 76);

/// The counters `stats` reports that must repeat block after block.
const COUNTERS: [&str; 5] = ["hits", "misses", "evictions", "shed", "rejected"];

/// One request of the block: the question, and its wire line.
struct Req {
    question: usize,
    line: String,
}

/// Whitespace re-spellings of a spec; each must canonicalize to the
/// same digest.
fn respell(spec: &str, variant: usize) -> String {
    match variant {
        0 => format!("  {spec}\n"),
        1 => spec.replace(" | ", "\n|\n    "),
        _ => spec.replace('.', " . ").replace('(', "( "),
    }
}

fn line(concrete: &str, abstract_spec: &str, visible: usize) -> String {
    Json::Obj(vec![
        ("op".to_string(), Json::str("verify")),
        ("concrete".into(), Json::str(concrete)),
        ("abstract".into(), Json::str(abstract_spec)),
        ("sessions".into(), Json::count(2)),
        ("visible".into(), Json::count(visible)),
    ])
    .render_compact()
}

/// The seeded block: tail positions and hot picks drawn from the seed,
/// tail questions taken round-robin through seeded permutations.
fn block(seed: u64, pm2: &str, pm: &str) -> Result<Vec<Req>, Fail> {
    let mut rng = Rng::new(seed);
    let mut tail_pos = vec![false; BLOCK];
    tail_pos[..TAIL_PER_BLOCK].fill(true);
    rng.shuffle(&mut tail_pos);
    let mut tail_cycle: Vec<usize> = Vec::new();
    let base_pm2 = parse_source(pm2).map_err(Fail::Error)?.to_string();
    let base_pm = parse_source(pm).map_err(Fail::Error)?.to_string();
    let mut out = Vec::with_capacity(BLOCK);
    for &tail in &tail_pos {
        let question = if tail {
            if tail_cycle.is_empty() {
                tail_cycle = (HOT..QUESTIONS).collect();
                rng.shuffle(&mut tail_cycle);
            }
            tail_cycle.pop().expect("refilled")
        } else {
            let mut pick = rng.below(HOT_WEIGHTS.iter().sum());
            HOT_WEIGHTS
                .iter()
                .position(|&w| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .expect("weights cover the range")
        };
        let visible = FIRST_VISIBLE + question;
        let line = if !tail && rng.below(100) < RESPELL_PCT {
            let (c, a) = (respell(pm2, rng.below(3)), respell(pm, rng.below(3)));
            // A re-spelling must be the same question.
            let same = parse_source(&c).map(|p| p.to_string()) == Ok(base_pm2.clone())
                && parse_source(&a).map(|p| p.to_string()) == Ok(base_pm.clone());
            gate(same, || {
                format!("re-spelling changed the spec: {c:?} / {a:?}")
            })?;
            line(&c, &a, visible)
        } else {
            line(pm2, pm, visible)
        };
        out.push(Req { question, line });
    }
    Ok(out)
}

/// One answer: latency, whether it came from the cache, and its body
/// (`None` when the daemon refused or failed the request).
struct Answer {
    ms: f64,
    cached: bool,
    body: Option<String>,
}

/// Parses and gates one response line.
fn check_answer(req: &Req, response: &str) -> Result<(bool, Option<String>), Fail> {
    let v = Json::parse(response).map_err(|e| Fail::Gate(format!("bad response {e}")))?;
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        eprintln!("perfbench serve: request refused: {response}");
        return Ok((false, None));
    }
    let cached = v.get("cached").and_then(Json::as_bool) == Some(true);
    let body = v
        .get("body")
        .ok_or_else(|| Fail::Gate("response without body".into()))?;
    let verdict = body.get("verdict").and_then(Json::as_str);
    let states = (
        body.get("concrete_states").and_then(Json::as_int),
        body.get("abstract_states").and_then(Json::as_int),
    );
    gate(
        verdict == Some("attack") && states == (Some(STATES.0), Some(STATES.1)),
        || {
            format!(
                "question {}: verdict {verdict:?}, states {states:?}",
                req.question
            )
        },
    )?;
    Ok((cached, Some(body.render_compact())))
}

fn roundtrip(client: &mut Client, req: &Req) -> Result<Answer, Fail> {
    let start = Instant::now();
    let response = client.roundtrip(&req.line).map_err(Fail::Error)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (cached, body) = check_answer(req, &response)?;
    Ok(Answer { ms, cached, body })
}

fn counters(client: &mut Client) -> Result<[i64; COUNTERS.len()], Fail> {
    let response = client.roundtrip(r#"{"op":"stats"}"#).map_err(Fail::Error)?;
    let v = Json::parse(&response).map_err(Fail::Error)?;
    let body = v.get("body").ok_or("stats without body".to_string())?;
    let mut out = [0; COUNTERS.len()];
    for (slot, name) in out.iter_mut().zip(COUNTERS) {
        *slot = body
            .get(name)
            .and_then(Json::as_int)
            .ok_or(format!("stats without {name}"))?;
    }
    Ok(out)
}

fn delta(after: [i64; 5], before: [i64; 5]) -> [i64; 5] {
    std::array::from_fn(|i| after[i] - before[i])
}

fn fmt_counters(c: &[i64; 5]) -> String {
    let parts: Vec<String> = COUNTERS
        .iter()
        .zip(c)
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

struct Daemon {
    handle: ServerHandle,
    client: Client,
}

impl Daemon {
    fn start(cache_bytes: usize) -> Result<Daemon, Fail> {
        let handle = serve(
            Arc::new(FullEngine::new(Some(EXPLORE_WORKERS))),
            ServerOptions {
                addr: "127.0.0.1:0".into(),
                cache_bytes,
                snapshot: None,
                ..ServerOptions::default()
            },
        )
        .map_err(Fail::Error)?;
        let client = Client::connect(&handle.addr().to_string()).map_err(Fail::Error)?;
        Ok(Daemon { handle, client })
    }

    fn stop(self) {
        drop(self.client);
        self.handle.join();
    }
}

/// Cache bytes an entry takes besides its body: the digest key and
/// the op.
fn entry_bytes(pm2: &str, pm: &str) -> Result<usize, Fail> {
    let req = parse_request(&line(pm2, pm, FIRST_VISIBLE)).map_err(Fail::Error)?;
    let Request::Job(job) = req else {
        return Err(Fail::Error("not a job".into()));
    };
    let digest = job.digest().map_err(Fail::Error)?;
    Ok(digest.len() + "verify".len())
}

pub fn run(cfg: &Config, rep: &mut Report) -> Result<(), Fail> {
    let start = Instant::now();
    let pm = read_spec(PM)?.trim().to_string();
    let pm2 = read_spec(PM2)?.trim().to_string();
    let seq = block(cfg.seed, &pm2, &pm)?;
    // Size the budget from one body, probed on a daemon of its own.
    // Every question of the working set has the same witness, so its
    // body has the same length.
    let mut probe = Daemon::start(ServerOptions::default().cache_bytes)?;
    let body_len = roundtrip(&mut probe.client, &seq[0])?
        .body
        .ok_or_else(|| Fail::Error("probe request refused".into()))?
        .len();
    probe.stop();
    let cache_bytes = CACHE_ENTRIES * (entry_bytes(&pm2, &pm)? + body_len) + body_len / 2;

    let mut d = Daemon::start(cache_bytes)?;
    let before = counters(&mut d.client)?;
    for req in &seq {
        roundtrip(&mut d.client, req)?;
    }
    let cold = delta(counters(&mut d.client)?, before);
    rep.setup_s = start.elapsed().as_secs_f64();
    rep.fingerprint = fmt_counters(&cold).replace(' ', "");
    rep.info("request_workers", ServerOptions::default().workers);
    rep.info("explore_workers", EXPLORE_WORKERS);
    rep.info("cache_bytes", cache_bytes);
    rep.info("cold_block_counters", fmt_counters(&cold));
    let out = if cfg.trace {
        traced(cfg, &mut d.client, &seq, rep)
    } else {
        measure(cfg, &mut d.client, &seq, rep)
    };
    d.stop();
    out
}

/// What [`blocks`] saw: the counters every block moved, the number of
/// blocks, their wall time, and `(cached, ms)` of every answer.
type Blocks = ([i64; 5], usize, f64, Vec<(bool, f64)>);

/// Replays blocks until the time is up, sending each request through
/// `each`; the counters must repeat exactly after every block.
fn blocks(
    cfg: &Config,
    client: &mut Client,
    seq: &[Req],
    rep: &mut Report,
    mut each: impl FnMut(&mut Client, &Req, usize) -> Result<Answer, Fail>,
) -> Result<Blocks, Fail> {
    let mut answers = Vec::new();
    let mut steady: Option<[i64; 5]> = None;
    let mut n = 0;
    let mut wall = 0.0;
    let usage = Usage::start()?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let before = counters(client)?;
        let t0 = Instant::now();
        for req in seq {
            rep.attempted += 1;
            let a = each(client, req, n)?;
            if a.body.is_some() {
                answers.push((a.cached, a.ms));
            } else {
                rep.failed += 1;
            }
        }
        wall += t0.elapsed().as_secs_f64();
        let moved = delta(counters(client)?, before);
        let expected = *steady.get_or_insert(moved);
        gate(moved == expected, || {
            format!(
                "block {n}: cache counters {} differ from block 0: {}",
                fmt_counters(&moved),
                fmt_counters(&expected)
            )
        })?;
        n += 1;
    }
    usage.finish(rep)?;
    Ok((steady.unwrap_or_default(), n, wall, answers))
}

fn measure(cfg: &Config, client: &mut Client, seq: &[Req], rep: &mut Report) -> Result<(), Fail> {
    let (steady, n, wall, answers) = blocks(cfg, client, seq, rep, |c, r, _| roundtrip(c, r))?;
    for (cached, ms) in answers {
        rep.work += 1.0;
        rep.sample("all", ms);
        rep.sample(if cached { "hit" } else { "miss" }, ms);
    }
    rep.wall_s = wall;
    rep.rss_mb = peak_rss_mb()?;
    // Every process replays the same block, so the steady counters
    // must match across processes too.
    rep.fingerprint = format!(
        "{},steady={}",
        rep.fingerprint,
        fmt_counters(&steady).replace(' ', "")
    );
    rep.info("blocks", n);
    rep.info("block_counters", fmt_counters(&steady));
    Ok(())
}

/// The traced run: every request's round trip, then the front-end
/// layers it crossed called in process on the same line — request
/// parse, digest (which canonicalizes both specs), spec parse, cache
/// read on a local cache of the same bodies, and the cached-reply
/// encode.  Blocks alternate between recording and not.
fn traced(cfg: &Config, client: &mut Client, seq: &[Req], rep: &mut Report) -> Result<(), Fail> {
    // Holds every body of the working set, so each lookup finds one.
    let mut local = ResultCache::new(usize::MAX / 2);
    let mut filled = HashSet::new();
    let mut t = Tracer::new();
    let mut hit_ops = HashSet::new();
    let mut requests = 0usize;
    let mut overhead = Overhead::default();
    let (steady, n, _, _) = blocks(cfg, client, seq, rep, |client, req, block_no| {
        let record = block_no.is_multiple_of(2);
        let answer = t.run_as(record, &mut overhead, |t| {
            t.span("serve.op", |t| -> Result<Answer, Fail> {
                let a = t.span("service.roundtrip", |_| roundtrip(client, req))?;
                let job = match t.span("protocol.parse_request", |_| parse_request(&req.line)) {
                    Ok(Request::Job(job)) => job,
                    other => return Err(Fail::Error(format!("not a job: {:?}", other.err()))),
                };
                let digest = t
                    .span("protocol.digest", |_| job.digest())
                    .map_err(Fail::Error)?;
                t.span("syntax.parse", |_| {
                    parse_source(&job.concrete).and_then(|_| parse_source(&job.abstract_spec))
                })
                .map_err(Fail::Error)?;
                if let Some(body) = &a.body {
                    if filled.insert(digest.clone()) {
                        local.insert(digest.clone(), "verify".into(), body.clone());
                    }
                }
                let (op, body) = t
                    .span("cache.get", |_| local.get(&digest))
                    .ok_or_else(|| Fail::Error("local cache miss".into()))?;
                t.span("protocol.encode", |_| {
                    let parsed = Json::parse(&body)?;
                    Ok(ok_response(&op, Some(&digest), true, parsed).render_compact())
                })
                .map_err(Fail::Error)?;
                Ok(a)
            })
        })?;
        if record {
            requests += 1;
            if answer.cached {
                hit_ops.insert(t.last_op());
            }
        }
        Ok(answer)
    })?;
    t.write_jsonl(
        &std::path::Path::new(SPAN_DIR).join(format!("spans-serve-seed{}.jsonl", cfg.seed)),
    )
    .map_err(|e| Fail::Error(format!("writing spans: {e}")))?;

    let total = t.total_by_name();
    let on_hits = t.total_by_name_in(|op| hit_ops.contains(&op));
    let ns = |m: &BTreeMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0) as f64;
    let per_req = |k: &str| ns(&total, k) / 1e3 / requests as f64;
    let c = |name: &str| steady[COUNTERS.iter().position(|n| *n == name).expect("counter")] as f64;
    // The hit round trip less the in-process cost of the front-end
    // layers it crosses: what the reactor, the queue and the socket add.
    let hits = hit_ops.len() as f64;
    let rtt = ns(&on_hits, "service.roundtrip");
    let front: f64 = [
        "protocol.parse_request",
        "protocol.digest",
        "cache.get",
        "protocol.encode",
    ]
    .iter()
    .map(|k| ns(&on_hits, k))
    .sum();
    let values = BTreeMap::from([
        (
            "syntax.parse_us",
            ns(&total, "syntax.parse") / 1e3 / (2 * requests) as f64,
        ),
        (
            "protocol.parse_request_us",
            per_req("protocol.parse_request"),
        ),
        ("protocol.digest_us", per_req("protocol.digest")),
        ("protocol.encode_us", per_req("protocol.encode")),
        ("cache.get_us", per_req("cache.get")),
        ("cache.hits", c("hits")),
        ("cache.misses", c("misses")),
        ("cache.evictions", c("evictions")),
        ("cache.hit_ratio", c("hits") / (c("hits") + c("misses"))),
        ("service.residual_us", (rtt - front) / 1e3 / hits),
        ("service.shed", c("shed")),
        ("service.rejected", c("rejected")),
        ("trace.overhead_pct", overhead.pct()),
        (
            "trace.unexplained_pct",
            100.0 * ns(&t.self_by_name(), "serve.op") / ns(&total, "serve.op"),
        ),
    ]);
    rep.layers(&values)?;
    let us = |x: f64| format!("{:.3}", x / 1e3 / hits);
    rep.info("traced_requests", requests);
    rep.info("blocks", n);
    rep.info(
        "hit_accounting_us",
        format!(
            "{{\"roundtrip\": {}, \"front_end_layers\": {}, \"residual\": {}}}",
            us(rtt),
            us(front),
            us(rtt - front)
        ),
    );
    Ok(())
}
