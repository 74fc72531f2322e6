//! `campaign`: depth-2 fault campaigns over channel `c`, no intruder,
//! 2 sessions, `--engine both`, default explorer pool.
//!
//! A pass runs the Pm2 campaign (9 of 14 schedules are attacks, each
//! early-rejected by bisimulation and then shrunk) and the Pm3 campaign
//! (all 14 schedules survive and each is decided by both engines), in
//! an order drawn from the seed.  Here decisions and the campaign layer
//! weigh far more than in `verify`, over many small explorations.

use std::collections::BTreeMap;
use std::time::Instant;

use spi_auth::syntax::Process;
use spi_auth::verify::faultsim::multi_fault_schedules;
use spi_auth::verify::{
    bisim_preorder_sound, trace_preorder_sound, CampaignOptions, CampaignReport, ExploreOptions,
    TraceVerdict,
};
use spi_auth::{Engine, ScheduleOutcome, Verifier};

use crate::stats::{peak_rss_mb, Rng, Usage};
use crate::trace::{Overhead, Tracer};
use crate::{gate, load_specs, parse_specs, Config, Fail, Report, MAX_VISIBLE, SPAN_DIR};

const DEPTH: usize = 2;

/// One campaign: name, concrete protocol, and the counts every run
/// must reproduce.
struct Campaign {
    name: &'static str,
    pm3: bool,
    schedules: usize,
    /// (attacks, survives, inconclusive).
    tally: (usize, usize, usize),
    early_rejects: u64,
}

const CAMPAIGNS: [Campaign; 2] = [
    Campaign {
        name: "pm2",
        pm3: false,
        schedules: 14,
        tally: (9, 5, 0),
        early_rejects: 9,
    },
    Campaign {
        name: "pm3",
        pm3: true,
        schedules: 14,
        tally: (0, 14, 0),
        early_rejects: 0,
    },
];

struct Setup {
    pm: Process,
    pm2: Process,
    pm3: Process,
    verifier: Verifier,
    opts: CampaignOptions,
}

impl Setup {
    fn concrete(&self, c: &Campaign) -> &Process {
        if c.pm3 {
            &self.pm3
        } else {
            &self.pm2
        }
    }
}

/// The correctness gate for one campaign report.
fn check_report(c: &Campaign, rep: &CampaignReport) -> Result<(), Fail> {
    gate(
        rep.enumerated == c.schedules
            && rep.results.len() == c.schedules
            && rep.tally() == c.tally
            && rep.early_rejects == c.early_rejects
            && !rep.interrupted,
        || {
            format!(
                "{}: {} schedules, tally {:?}, {} early rejects, expected {}, {:?}, {}",
                c.name,
                rep.enumerated,
                rep.tally(),
                rep.early_rejects,
                c.schedules,
                c.tally,
                c.early_rejects
            )
        },
    )?;
    // Every Pm2 attack needs exactly one fault firing once shrunk.
    for (r, cex) in rep.attacks() {
        gate(
            cex.schedule.clauses.len() == 1 && !cex.trace.is_empty(),
            || format!("{}: {} shrank to {:?}", c.name, r.key, cex.schedule.clauses),
        )?;
    }
    Ok(())
}

/// One `run_campaign`, gated.  Returns its report and time in ms, or
/// `None` when the campaign returned an error.
fn timed_campaign(s: &Setup, c: &Campaign) -> Result<Option<(CampaignReport, f64)>, Fail> {
    let start = Instant::now();
    let out = s.verifier.run_campaign(s.concrete(c), &s.pm, &s.opts);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match out {
        Ok(rep) => {
            check_report(c, &rep)?;
            Ok(Some((rep, ms)))
        }
        Err(e) => {
            eprintln!("perfbench campaign: {}: {e}", c.name);
            Ok(None)
        }
    }
}

pub fn run(cfg: &Config, rep: &mut Report) -> Result<(), Fail> {
    let start = Instant::now();
    let (texts, [pm, pm2, pm3]) = load_specs()?;
    let verifier = Verifier::new(["c"])
        .sessions(2)
        .no_intruder()
        .max_visible(MAX_VISIBLE)
        .engine(Engine::Both);
    let opts = verifier.campaign_options(DEPTH);
    let setup = Setup {
        pm,
        pm2,
        pm3,
        verifier,
        opts,
    };
    let mut rng = Rng::new(cfg.seed);
    let mut order = [0usize, 1];
    rng.shuffle(&mut order);
    for &i in &order {
        timed_campaign(&setup, &CAMPAIGNS[i])?
            .ok_or_else(|| Fail::Error("warm-up campaign failed".into()))?;
    }
    rep.setup_s = start.elapsed().as_secs_f64();
    rep.fingerprint = CAMPAIGNS
        .iter()
        .map(|c| format!("{}={:?}/{}", c.name, c.tally, c.early_rejects))
        .collect::<Vec<_>>()
        .join(",");
    rep.info("explore_workers", ExploreOptions::available_workers());
    if cfg.trace {
        return traced(cfg, &setup, &texts, &mut rng, &mut order, rep);
    }

    let usage = Usage::start()?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        rng.shuffle(&mut order);
        let mut pass_ms = 0.0;
        let mut pass_ok = true;
        for &i in &order {
            let c = &CAMPAIGNS[i];
            rep.attempted += c.schedules as u64;
            match timed_campaign(&setup, c)? {
                Some((report, ms)) => {
                    rep.work += report.results.len() as f64;
                    pass_ms += ms;
                    rep.sample(c.name, ms);
                }
                None => {
                    rep.failed += c.schedules as u64;
                    pass_ok = false;
                }
            }
        }
        if pass_ok {
            rep.sample("all", pass_ms);
        }
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    usage.finish(rep)?;
    rep.rss_mb = peak_rss_mb()?;
    Ok(())
}

#[derive(Default)]
struct Tally {
    passes: usize,
    states: usize,
    edges: usize,
    schedules: usize,
    attacks: usize,
    early_rejects: u64,
    run_ns: f64,
}

/// The classification half of `run_campaign`, rebuilt from public
/// calls: enumerate the schedules, then explore and decide each one
/// bisimulation first, as `--engine both` does.  Shrinking has no
/// public entry point; it stays inside the residual.  Each verdict
/// must match the one the reference report gave.
fn replay(
    t: &mut Tracer,
    s: &Setup,
    c: &Campaign,
    reference: &CampaignReport,
    tally: &mut Tally,
    record: bool,
) -> Result<(), Fail> {
    t.span("campaign.op", |t| {
        let schedules = t.span("campaign.enumerate", |_| {
            multi_fault_schedules(s.opts.channels.iter().cloned(), &s.opts.kinds, s.opts.depth)
        });
        gate(schedules.len() == c.schedules, || {
            format!("{}: enumerated {} schedules", c.name, schedules.len())
        })?;
        for (sched, expected) in schedules.into_iter().zip(&reference.results) {
            t.span("campaign.classify", |t| {
                let v = s.verifier.clone().faults(sched);
                let explore = |t: &mut Tracer, p: &Process| {
                    t.span("explore.none", |_| v.explore(p))
                        .map_err(|e| Fail::Error(format!("{}: {e}", c.name)))
                };
                let cl = explore(t, s.concrete(c))?;
                let al = explore(t, &s.pm)?;
                let mut verdict = t.span("decide.bisim", |_| {
                    bisim_preorder_sound(&cl, &al, MAX_VISIBLE)
                });
                if !matches!(verdict, TraceVerdict::Fails { .. }) {
                    verdict = t.span("decide.trace", |_| {
                        trace_preorder_sound(&cl, &al, MAX_VISIBLE)
                    });
                }
                let same = matches!(
                    (&verdict, &expected.outcome),
                    (TraceVerdict::Fails { .. }, ScheduleOutcome::Attack(_))
                        | (TraceVerdict::Holds { .. }, ScheduleOutcome::Survives { .. })
                );
                gate(same, || {
                    format!("{} {}: replay verdict {verdict:?}", c.name, expected.key)
                })?;
                if record {
                    tally.states += cl.stats.states + al.stats.states;
                    tally.edges += cl.stats.edges + al.stats.edges;
                }
                t.span("campaign.release", |_| drop((cl, al)));
                Ok::<(), Fail>(())
            })?;
        }
        Ok(())
    })
}

/// The traced run: per pass, each campaign through `run_campaign` (the
/// reference the residual is taken against), then the replay untraced
/// and traced, in an order that alternates by pass.
fn traced(
    cfg: &Config,
    s: &Setup,
    texts: &[String; 3],
    rng: &mut Rng,
    order: &mut [usize; 2],
    rep: &mut Report,
) -> Result<(), Fail> {
    let mut t = Tracer::new();
    let mut tally = Tally::default();
    let mut overhead = Overhead::default();
    let mut parses = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        t.set_recording(true);
        t.span("syntax.parse", |_| parse_specs(texts))?;
        parses += texts.len();
        rng.shuffle(order);
        for &i in order.iter() {
            let c = &CAMPAIGNS[i];
            rep.attempted += c.schedules as u64;
            let (reference, ms) = timed_campaign(s, c)?
                .ok_or_else(|| Fail::Error(format!("{}: campaign failed", c.name)))?;
            tally.run_ns += ms * 1e6;
            tally.schedules += reference.results.len();
            tally.attacks += reference.tally().0;
            tally.early_rejects += reference.early_rejects;
            for k in 0..2 {
                let record = (k + tally.passes).is_multiple_of(2);
                t.run_as(record, &mut overhead, |t| {
                    replay(t, s, c, &reference, &mut tally, record)
                })?;
            }
        }
        tally.passes += 1;
    }
    t.write_jsonl(
        &std::path::Path::new(SPAN_DIR).join(format!("spans-campaign-seed{}.jsonl", cfg.seed)),
    )
    .map_err(|e| Fail::Error(format!("writing spans: {e}")))?;

    let total = t.total_by_name();
    let selfs = t.self_by_name();
    let ns = |m: &BTreeMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0) as f64;
    let passes = tally.passes as f64;
    let explore = ns(&total, "explore.none");
    let bisim = ns(&total, "decide.bisim");
    let trace = ns(&total, "decide.trace");
    let classify = ns(&total, "campaign.classify");
    let op_wall = ns(&total, "campaign.op");
    let unexplained = ns(&selfs, "campaign.op");
    let residual = tally.run_ns - classify;
    let values = BTreeMap::from([
        (
            "syntax.parse_us",
            ns(&total, "syntax.parse") / 1e3 / parses as f64,
        ),
        ("explore.ms", explore / 1e6 / passes),
        ("explore.states", tally.states as f64 / passes),
        ("explore.edges", tally.edges as f64 / passes),
        (
            "explore.us_per_state.none",
            explore / 1e3 / tally.states as f64,
        ),
        ("decide.trace_ms", trace / 1e6 / passes),
        ("decide.bisim_ms", bisim / 1e6 / passes),
        ("decide.share", (trace + bisim) / (explore + trace + bisim)),
        ("campaign.schedules", tally.schedules as f64 / passes),
        ("campaign.attacks", tally.attacks as f64 / passes),
        (
            "campaign.early_rejects",
            tally.early_rejects as f64 / passes,
        ),
        ("campaign.classify_ms", classify / 1e6 / passes),
        ("campaign.residual_ms", residual / 1e6 / passes),
        ("trace.overhead_pct", overhead.pct()),
        ("trace.unexplained_pct", 100.0 * unexplained / op_wall),
    ]);
    rep.layers(&values)?;
    // Accounting, per pass: the traced replay's wall time against its
    // layer self times, and `run_campaign` against classification plus
    // the named residual (enumeration, shrinking, memo lookups).
    let ms = |ns: f64| format!("{:.4}", ns / 1e6 / passes);
    rep.info("traced_passes", tally.passes);
    rep.info(
        "accounting_ms",
        format!(
            "{{\"op_wall\": {}, \"enumerate\": {}, \"explore\": {}, \"decide_bisim\": {}, \"decide_trace\": {}, \"release\": {}, \"classify_self\": {}, \"unexplained\": {}, \"run_campaign\": {}, \"classify\": {}, \"residual\": {}}}",
            ms(op_wall),
            ms(ns(&total, "campaign.enumerate")),
            ms(explore),
            ms(bisim),
            ms(trace),
            ms(ns(&total, "campaign.release")),
            ms(ns(&selfs, "campaign.classify")),
            ms(unexplained),
            ms(tally.run_ns),
            ms(classify),
            ms(residual),
        ),
    );
    Ok(())
}
