//! Measure wall-clock exploration time for the Pm2/Pm3 multi-session
//! instances and print one JSON record per configuration, suitable for
//! appending to `BENCH_explore.json`.
//!
//! Run with `cargo run --release -p spi-bench --bin explore_trajectory -- <engine-label> [workers] [reduce-mode]`.
//! The label tags the engine variant being measured (e.g. `seed-sequential`,
//! `hashed-seq`, `parallel`, `symmetry-por`); the harness itself always goes
//! through the public `Verifier` API so successive engine generations are
//! measured the same way.  A reduce mode other than `none` switches to the
//! deeper instance ladder (sessions 3 and 4) that only completes in
//! reasonable time under reduction, and reports the reduction counters.

use std::time::Instant;

use spi_auth::verify::ExploreStats;
use spi_auth::{ReduceOptions, Verifier};
use spi_protocols::multi;
use spi_syntax::Process;

const RUNS: usize = 7;

struct Measured {
    median_ms: f64,
    stats: ExploreStats,
}

fn median_ms(verifier: &Verifier, protocol: &Process) -> Measured {
    // Warm-up run (also gives us the state/transition counts).
    let lts = verifier.explore(protocol).expect("explores");
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(verifier.explore(protocol).expect("explores"));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Measured {
        median_ms: samples[samples.len() / 2],
        stats: lts.stats,
    }
}

fn main() {
    let label = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "unlabelled".to_string());
    let workers: usize = std::env::args()
        .nth(2)
        .and_then(|w| w.parse().ok())
        .unwrap_or(0);
    let reduce = std::env::args()
        .nth(3)
        .map(|m| ReduceOptions::parse(&m).expect("reduce mode: none|symmetry|por|full"))
        .unwrap_or_else(ReduceOptions::none);
    let pm2 = multi::shared_key("c", "observe");
    let pm3 = multi::challenge_response("c", "observe");
    let deep = std::env::args().nth(4).as_deref() == Some("deep");
    let instances: &[(&str, &Process, u32)] = if reduce.enabled() {
        // The reduced ladder: the shallow rungs for comparability with
        // the unreduced records, the deep ones because only a reduced
        // engine finishes them in reasonable time.  (Pm3 at 4 sessions
        // is beyond even the reduced engine's patience for a 7-run
        // median; its trajectory is documented through 3 sessions.)
        &[
            ("pm2_naive", &pm2, 2),
            ("pm2_naive", &pm2, 3),
            ("pm2_naive", &pm2, 4),
            ("pm3_nonce", &pm3, 2),
            ("pm3_nonce", &pm3, 3),
        ]
    } else if deep {
        // The unreduced wall, measured once for the comparison records.
        &[("pm2_naive", &pm2, 4)]
    } else {
        &[
            ("pm2_naive", &pm2, 2),
            ("pm2_naive", &pm2, 3),
            ("pm3_nonce", &pm3, 2),
        ]
    };
    for &(name, protocol, sessions) in instances {
        let verifier = configure(Verifier::new(["c"]).sessions(sessions), workers, reduce);
        let m = median_ms(&verifier, protocol);
        let s = m.stats;
        println!(
            "{{\"engine\": \"{label}\", \"instance\": \"{name}\", \"sessions\": {sessions}, \
             \"reduce\": \"{}\", \"median_ms\": {:.2}, \"states\": {}, \"transitions\": {}, \
             \"states_quotiented\": {}, \"por_pruned\": {}, \"sym_canonicalizations\": {}, \
             \"sym_candidates\": {}, \"sym_overflows\": {}, \"runs\": {RUNS}}}",
            reduce.mode(),
            m.median_ms,
            s.states,
            s.edges,
            s.states_quotiented,
            s.por_pruned,
            s.sym_canonicalizations,
            s.sym_candidates,
            s.sym_overflows,
        );
    }
}

fn configure(verifier: Verifier, workers: usize, reduce: ReduceOptions) -> Verifier {
    // workers == 0 means "leave the verifier at its default" (available
    // parallelism); any other value pins the exploration thread count.
    let verifier = if workers == 0 {
        verifier
    } else {
        verifier.workers(workers)
    };
    verifier.reduce(reduce)
}
