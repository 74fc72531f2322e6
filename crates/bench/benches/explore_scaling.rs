//! S1 — state-space scaling: exploration size and time versus the number
//! of sessions and versus protocol width, for the abstract `Pm`, the
//! naive `Pm2` and the challenge-response `Pm3`.
//!
//! The shape to expect (recorded in `EXPERIMENTS.md`): the abstract
//! protocol stays small (localization prunes the intruder's moves), the
//! naive cipher protocol grows moderately, and the challenge-response
//! grows fastest (nonces multiply the intruder's choices) while remaining
//! tractable at the paper's two sessions.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use spi_auth::{ReduceOptions, Verifier};
use spi_bench::independent_pairs;
use spi_protocols::multi;
use spi_syntax::Process;
use spi_verify::{Budget, ExploreOptions, Explorer};

fn bench_sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_sessions");
    group.sample_size(10);
    let pm = multi::abstract_protocol("c", "observe").expect("builds");
    let pm2 = multi::shared_key("c", "observe");
    let pm3 = multi::challenge_response("c", "observe");
    for sessions in [1u32, 2] {
        for (name, protocol) in [
            ("pm_abstract", &pm),
            ("pm2_naive", &pm2),
            ("pm3_nonce", &pm3),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, sessions),
                &sessions,
                |b, &sessions| {
                    let verifier = Verifier::new(["c"]).sessions(sessions);
                    b.iter(|| verifier.explore(protocol).expect("explores").stats);
                },
            );
        }
    }
    // Pm and Pm2 stay cheap enough for a third session.
    for (name, protocol) in [("pm_abstract", &pm), ("pm2_naive", &pm2)] {
        group.bench_with_input(BenchmarkId::new(name, 3u32), &3u32, |b, &sessions| {
            let verifier = Verifier::new(["c"]).sessions(sessions);
            b.iter(|| verifier.explore(protocol).expect("explores").stats);
        });
    }
    group.finish();
}

fn bench_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_width");
    group.sample_size(10);
    for pairs in [2usize, 4, 6] {
        let system = independent_pairs(pairs);
        group.bench_with_input(
            BenchmarkId::new("independent_pairs", pairs),
            &system,
            |b, s| {
                let explorer = Explorer::new(ExploreOptions::default());
                b.iter(|| explorer.explore(s).expect("explores").stats);
            },
        );
    }
    group.finish();
}

/// Smoke check for the resource governor: exploring under a generous
/// *finite* budget (every admission compares against a real bound that
/// never binds) must cost within ~5% of exploring with every dimension
/// unlimited.  The assertion makes `cargo bench --bench explore_scaling`
/// fail loudly if governor bookkeeping ever regresses.
fn bench_governor_overhead(c: &mut Criterion) {
    let pm2 = multi::shared_key("c", "observe");
    let unlimited = Verifier::new(["c"])
        .sessions(2)
        .budget(Budget::unlimited());
    let governed = Verifier::new(["c"]).sessions(2).budget(
        Budget::unlimited()
            .states(1_000_000)
            .transitions(4_000_000)
            .fuel(2_000_000)
            .knowledge(64)
            .deadline(16_000_000),
    );

    let mut group = c.benchmark_group("governor_overhead");
    group.sample_size(10);
    group.bench_function("unlimited", |b| {
        b.iter(|| unlimited.explore(&pm2).expect("explores").stats)
    });
    group.bench_function("governed_generous", |b| {
        b.iter(|| governed.explore(&pm2).expect("explores").stats)
    });
    group.finish();

    // Interleaved medians so frequency drift hits both sides equally.
    let time = |v: &Verifier| {
        let start = Instant::now();
        black_box(v.explore(&pm2).expect("explores"));
        start.elapsed()
    };
    let mut base = Vec::new();
    let mut gov = Vec::new();
    for _ in 0..15 {
        base.push(time(&unlimited));
        gov.push(time(&governed));
    }
    base.sort();
    gov.sort();
    let (base_med, gov_med) = (base[base.len() / 2], gov[gov.len() / 2]);
    let limit = base_med.mul_f64(1.05) + Duration::from_millis(1);
    assert!(
        gov_med <= limit,
        "governor bookkeeping overhead exceeds ~5%: governed {gov_med:?} vs unlimited {base_med:?}"
    );
    println!(
        "governor_overhead/smoke: governed {gov_med:?} vs unlimited {base_med:?} (limit {limit:?}) — ok"
    );
}

/// Smoke check for the parallel frontier, on two legs: the three-session
/// naive protocol unreduced (the largest Pm2 instance in this suite) and
/// the two-session challenge-response under the full reduction (where
/// canonicalization and the symmetry search dominate, so the pool must
/// carry them).  On each, exploring with all available workers must not
/// be slower than exploring sequentially — and both must agree exactly
/// on the explored system.  The assertions make
/// `cargo bench --bench explore_scaling` fail loudly if the parallel
/// engine ever regresses below the sequential one.
fn bench_parallel_frontier(c: &mut Criterion) {
    let pm2 = multi::shared_key("c", "observe");
    let pm3 = multi::challenge_response("c", "observe");
    let legs = [
        ("pm2_s3", &pm2, 3, ReduceOptions::none()),
        ("pm3_s2_full", &pm3, 2, ReduceOptions::full()),
    ];
    let mut group = c.benchmark_group("parallel_frontier");
    group.sample_size(10);
    for (name, protocol, sessions, reduce) in legs {
        let sequential = Verifier::new(["c"])
            .sessions(sessions)
            .reduce(reduce)
            .workers(1);
        let parallel = Verifier::new(["c"]).sessions(sessions).reduce(reduce);
        group.bench_function(format!("sequential_{name}"), |b| {
            b.iter(|| sequential.explore(protocol).expect("explores").stats)
        });
        group.bench_function(format!("parallel_{name}"), |b| {
            b.iter(|| parallel.explore(protocol).expect("explores").stats)
        });
        frontier_smoke(name, protocol, &sequential, &parallel);
    }
    group.finish();
}

/// The determinism and "parallel no slower than sequential" assertions
/// of one [`bench_parallel_frontier`] leg.
fn frontier_smoke(name: &str, protocol: &Process, sequential: &Verifier, parallel: &Verifier) {
    // Determinism: worker count must not change the explored system.
    let seq_lts = sequential.explore(protocol).expect("explores");
    let par_lts = parallel.explore(protocol).expect("explores");
    assert_eq!(
        seq_lts.stats, par_lts.stats,
        "{name}: worker count changed the LTS"
    );
    assert!(
        seq_lts
            .states
            .iter()
            .zip(&par_lts.states)
            .all(|(s, p)| s.key == p.key && s.edges == p.edges),
        "{name}: worker count changed state numbering or edges"
    );
    assert_eq!(
        seq_lts.edge_isos, par_lts.edge_isos,
        "{name}: worker count changed the merge isomorphisms"
    );

    // Interleaved medians so frequency drift hits both sides equally.
    let time = |v: &Verifier| {
        let start = Instant::now();
        black_box(v.explore(protocol).expect("explores"));
        start.elapsed()
    };
    let mut seq = Vec::new();
    let mut par = Vec::new();
    for _ in 0..7 {
        seq.push(time(sequential));
        par.push(time(parallel));
    }
    seq.sort();
    par.sort();
    let (seq_med, par_med) = (seq[seq.len() / 2], par[par.len() / 2]);
    // "No slower" with a small tolerance so single-core CI runners (where
    // both engines degenerate to the same work) don't flake on noise.
    let limit = seq_med.mul_f64(1.10) + Duration::from_millis(1);
    assert!(
        par_med <= limit,
        "{name}: parallel frontier slower than sequential: parallel {par_med:?} vs sequential {seq_med:?}"
    );
    println!(
        "parallel_frontier/smoke {name}: parallel {par_med:?} vs sequential {seq_med:?} (limit {limit:?}) — ok"
    );
}

criterion_group!(
    scaling,
    bench_sessions,
    bench_width,
    bench_governor_overhead,
    bench_parallel_frontier
);
criterion_main!(scaling);
