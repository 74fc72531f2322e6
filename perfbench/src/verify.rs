//! `verify`: whole passes over the paper's ladder under the
//! most-general intruder, trace engine, default explorer pool.
//!
//! A pass asks every question of [`LADDER`] once, in an order drawn
//! from the seed.  Whole passes keep the sample mix fixed, so p50 and
//! p90 always fall on the same question type.

use std::collections::BTreeMap;
use std::time::Instant;

use spi_auth::syntax::Process;
use spi_auth::verify::{
    find_realization, trace_preorder_sound, ExploreOptions, Lts, TraceVerdict, VerificationReport,
};
use spi_auth::{ReduceOptions, Verdict, Verifier};

use crate::stats::{peak_rss_mb, Rng, Usage};
use crate::trace::{Overhead, Tracer};
use crate::{gate, load_specs, parse_specs, Config, Fail, Report, MAX_VISIBLE, SPAN_DIR};

/// One rung: name, concrete protocol, sessions, `--reduce full`,
/// the paper's verdict, and the (concrete, abstract) state and edge
/// counts every run must reproduce.
struct Rung {
    name: &'static str,
    pm3: bool,
    sessions: u32,
    full: bool,
    attack: bool,
    states: (usize, usize),
    edges: (usize, usize),
}

const fn rung(
    name: &'static str,
    pm3: bool,
    sessions: u32,
    full: bool,
    states: (usize, usize),
    edges: (usize, usize),
) -> Rung {
    Rung {
        name,
        pm3,
        sessions,
        full,
        // Counterexample 2: Pm2 falls to a replay.  Proposition 4: Pm3
        // securely implements Pm.
        attack: !pm3,
        states,
        edges,
    }
}

const LADDER: [Rung; 5] = [
    rung("pm2.s2.none", false, 2, false, (194, 76), (636, 136)),
    rung("pm3.s2.none", true, 2, false, (5605, 76), (27326, 136)),
    rung("pm3.s2.full", true, 2, true, (1287, 19), (6532, 30)),
    rung("pm2.s3.none", false, 3, false, (3060, 1008), (15697, 2700)),
    rung("pm2.s3.full", false, 3, true, (143, 41), (749, 104)),
];

struct Ladder {
    pm: Process,
    pm2: Process,
    pm3: Process,
    verifiers: Vec<Verifier>,
}

impl Ladder {
    fn concrete(&self, r: &Rung) -> &Process {
        if r.pm3 {
            &self.pm3
        } else {
            &self.pm2
        }
    }
}

fn verifier(r: &Rung) -> Verifier {
    let reduce = if r.full {
        ReduceOptions::full()
    } else {
        ReduceOptions::none()
    };
    Verifier::new(["c"])
        .sessions(r.sessions)
        .max_visible(MAX_VISIBLE)
        .reduce(reduce)
}

fn check_counts(r: &Rung, states: (usize, usize), edges: (usize, usize)) -> Result<(), Fail> {
    gate(states == r.states && edges == r.edges, || {
        format!(
            "{}: states {states:?} edges {edges:?}, expected states {:?} edges {:?}",
            r.name, r.states, r.edges
        )
    })
}

/// The correctness gate for one `check`.
fn check_report(r: &Rung, rep: &VerificationReport) -> Result<(), Fail> {
    let attack = matches!(rep.verdict, Verdict::Attack(_));
    let holds = matches!(rep.verdict, Verdict::SecurelyImplements);
    gate(if r.attack { attack } else { holds }, || {
        format!("{}: verdict {:?}", r.name, rep.verdict)
    })?;
    check_counts(
        r,
        (rep.concrete_stats.states, rep.abstract_stats.states),
        (rep.concrete_stats.edges, rep.abstract_stats.edges),
    )
}

/// One `check`, gated.  Returns its latency in ms, or `None` when the
/// engine returned an error (a failed op).
fn timed_check(ladder: &Ladder, i: usize) -> Result<Option<f64>, Fail> {
    let r = &LADDER[i];
    let start = Instant::now();
    let out = ladder.verifiers[i].check(ladder.concrete(r), &ladder.pm);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match out {
        Ok(rep) => {
            check_report(r, &rep)?;
            Ok(Some(ms))
        }
        Err(e) => {
            eprintln!("perfbench verify: {}: {e}", r.name);
            Ok(None)
        }
    }
}

pub fn run(cfg: &Config, rep: &mut Report) -> Result<(), Fail> {
    let start = Instant::now();
    let (texts, [pm, pm2, pm3]) = load_specs()?;
    let ladder = Ladder {
        pm,
        pm2,
        pm3,
        verifiers: LADDER.iter().map(verifier).collect(),
    };
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..LADDER.len()).collect();
    rng.shuffle(&mut order);
    for &i in &order {
        timed_check(&ladder, i)?.ok_or_else(|| Fail::Error("warm-up check failed".into()))?;
    }
    rep.setup_s = start.elapsed().as_secs_f64();
    rep.fingerprint = LADDER
        .iter()
        .map(|r| format!("{}={}/{}", r.name, r.states.0, r.states.1))
        .collect::<Vec<_>>()
        .join(",");
    rep.info("explore_workers", ExploreOptions::available_workers());
    if cfg.trace {
        return traced(cfg, &ladder, &texts, &mut rng, &mut order, rep);
    }

    let mut passes = 0;
    let usage = Usage::start()?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        rng.shuffle(&mut order);
        for &i in &order {
            rep.attempted += 1;
            match timed_check(&ladder, i)? {
                Some(ms) => {
                    rep.work += 1.0;
                    rep.sample("all", ms);
                    rep.sample(LADDER[i].name, ms);
                }
                None => rep.failed += 1,
            }
        }
        passes += 1;
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    usage.finish(rep)?;
    rep.rss_mb = peak_rss_mb()?;
    rep.info("passes", passes);
    Ok(())
}

/// Totals over the recorded decomposed ops.
#[derive(Default)]
struct Tally {
    ops: usize,
    states: usize,
    edges: usize,
    states_none: usize,
    states_full: usize,
    quotiented: u64,
    pruned: u64,
    check_ns: f64,
}

/// `check`, rebuilt from the public calls it makes: explore both
/// sides, decide, narrate an attack.  Counts go to `tally` only when
/// the tracer records.
fn decomposed(
    t: &mut Tracer,
    ladder: &Ladder,
    i: usize,
    tally: &mut Tally,
    record: bool,
) -> Result<(), Fail> {
    let r = &LADDER[i];
    let v = &ladder.verifiers[i];
    let explore_span = if r.full {
        "explore.full"
    } else {
        "explore.none"
    };
    t.span("verify.op", |t| {
        let explore = |t: &mut Tracer, p: &Process| -> Result<Lts, Fail> {
            t.span(explore_span, |_| v.explore(p))
                .map_err(|e| Fail::Error(format!("{}: {e}", r.name)))
        };
        let c = explore(t, ladder.concrete(r))?;
        let a = explore(t, &ladder.pm)?;
        let verdict = t.span("decide.trace", |_| {
            trace_preorder_sound(&c, &a, MAX_VISIBLE)
        });
        if let TraceVerdict::Fails { witness } = &verdict {
            let path = t.span("verify.narrate", |_| find_realization(&c, witness));
            gate(path.is_some(), || {
                format!("{}: witness has no realization", r.name)
            })?;
        }
        gate(
            matches!(
                (&verdict, r.attack),
                (TraceVerdict::Fails { .. }, true) | (TraceVerdict::Holds { .. }, false)
            ),
            || format!("{}: traced verdict {verdict:?}", r.name),
        )?;
        check_counts(
            r,
            (c.stats.states, a.stats.states),
            (c.stats.edges, a.stats.edges),
        )?;
        let (stats_c, stats_a) = (c.stats, a.stats);
        // Freeing the explored systems is part of what `check` costs.
        t.span("verify.release", |_| drop((c, a)));
        let (c, a) = (stats_c, stats_a);
        if record {
            let states = c.states + a.states;
            tally.ops += 1;
            tally.states += states;
            tally.edges += c.edges + a.edges;
            if r.full {
                tally.states_full += states;
            } else {
                tally.states_none += states;
            }
            tally.quotiented += c.states_quotiented + a.states_quotiented;
            tally.pruned += c.por_pruned + a.por_pruned;
        }
        Ok(())
    })
}

/// The traced run: per question, the untraced `check` (the reference
/// the residual is taken against), then the decomposition untraced and
/// traced, in an order that alternates by pass.
fn traced(
    cfg: &Config,
    ladder: &Ladder,
    texts: &[String; 3],
    rng: &mut Rng,
    order: &mut [usize],
    rep: &mut Report,
) -> Result<(), Fail> {
    let mut t = Tracer::new();
    let mut tally = Tally::default();
    let mut overhead = Overhead::default();
    let mut parses = 0usize;
    let mut passes = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        t.set_recording(true);
        t.span("syntax.parse", |_| parse_specs(texts))?;
        parses += texts.len();
        rng.shuffle(order);
        for &i in order.iter() {
            rep.attempted += 1;
            let ms = timed_check(ladder, i)?.ok_or_else(|| Fail::Error("check failed".into()))?;
            tally.check_ns += ms * 1e6;
            for k in 0..2 {
                let record = (k + passes).is_multiple_of(2);
                t.run_as(record, &mut overhead, |t| {
                    decomposed(t, ladder, i, &mut tally, record)
                })?;
            }
        }
        passes += 1;
    }
    t.write_jsonl(
        &std::path::Path::new(SPAN_DIR).join(format!("spans-verify-seed{}.jsonl", cfg.seed)),
    )
    .map_err(|e| Fail::Error(format!("writing spans: {e}")))?;

    let total = t.total_by_name();
    let selfs = t.self_by_name();
    let ns = |m: &BTreeMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0) as f64;
    let ops = tally.ops as f64;
    let explore_none = ns(&total, "explore.none");
    let explore_full = ns(&total, "explore.full");
    let explore = explore_none + explore_full;
    let decide = ns(&total, "decide.trace");
    let narrate = ns(&total, "verify.narrate") + ns(&total, "verify.release");
    let op_wall = ns(&total, "verify.op");
    let unexplained = ns(&selfs, "verify.op");
    let residual = tally.check_ns - explore - decide;
    let per_state = |ns: f64, states: usize| {
        if states == 0 {
            0.0
        } else {
            ns / 1e3 / states as f64
        }
    };
    let values = BTreeMap::from([
        (
            "syntax.parse_us",
            ns(&total, "syntax.parse") / 1e3 / parses as f64,
        ),
        ("explore.ms", explore / 1e6 / ops),
        ("explore.states", tally.states as f64 / ops),
        ("explore.edges", tally.edges as f64 / ops),
        (
            "explore.us_per_state.none",
            per_state(explore_none, tally.states_none),
        ),
        (
            "explore.us_per_state.full",
            per_state(explore_full, tally.states_full),
        ),
        ("explore.quotiented", tally.quotiented as f64 / ops),
        ("explore.por_pruned", tally.pruned as f64 / ops),
        ("decide.trace_ms", decide / 1e6 / ops),
        ("decide.share", decide / (explore + decide)),
        ("verify.residual_ms", residual / 1e6 / ops),
        ("trace.overhead_pct", overhead.pct()),
        ("trace.unexplained_pct", 100.0 * unexplained / op_wall),
    ]);
    rep.layers(&values)?;
    // Accounting, per op: the traced op's wall time against its layer
    // self times, and the untraced `check` against explore + decide +
    // the named residual.
    let ms = |ns: f64| format!("{:.4}", ns / 1e6 / ops);
    rep.info("traced_ops", tally.ops);
    rep.info(
        "accounting_ms",
        format!(
            "{{\"op_wall\": {}, \"explore\": {}, \"decide\": {}, \"narrate_and_release\": {}, \"unexplained\": {}, \"check\": {}, \"residual\": {}, \"traced_minus_check\": {}}}",
            ms(op_wall),
            ms(explore),
            ms(decide),
            ms(narrate),
            ms(unexplained),
            ms(tally.check_ns),
            ms(residual),
            ms(op_wall - tally.check_ns),
        ),
    );
    Ok(())
}
