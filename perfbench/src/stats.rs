//! Small numeric helpers: percentiles, the seeded generator, and the
//! process's peak resident set, CPU and steal time.

use std::time::Instant;

use crate::Report;

/// Nearest-rank percentile of `samples` (`q` in 0..=1).  Sorts in
/// place; `samples` must be non-empty.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    // Rounded before `ceil` so that e.g. 0.9 * 10 ranks the 9th
    // sample, not the 10th.
    let rank = ((q * samples.len() as f64 * 1e9).round() / 1e9).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_7c4a_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// This process's CPU time (user and system, every thread, live or
/// exited) and the host's steal time, in seconds.  Steal is time the
/// hypervisor ran something else while this guest wanted a CPU.
fn cpu_and_steal_s() -> Result<(f64, f64), String> {
    const TICK: f64 = 0.01; // USER_HZ, 100 on Linux.
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The fields after the parenthesised command name start at field
    // 3; utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("bad /proc/self/stat")?;
    let field = |i: usize| -> Result<f64, String> {
        rest.split_whitespace()
            .nth(i)
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| format!("no field {} in /proc/self/stat", i + 3))
    };
    let cpu = (field(11)? + field(12)?) * TICK;
    let host = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let steal = host
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or("no steal field in /proc/stat")?;
    Ok((cpu, steal * TICK))
}

/// CPU and steal time over a measurement, reported in the info line
/// so a run slowed by the host can be told from one slowed by the code.
pub struct Usage {
    start: Instant,
    cpu_s: f64,
    steal_s: f64,
}

impl Usage {
    pub fn start() -> Result<Usage, String> {
        let (cpu_s, steal_s) = cpu_and_steal_s()?;
        Ok(Usage {
            start: Instant::now(),
            cpu_s,
            steal_s,
        })
    }

    pub fn finish(self, rep: &mut Report) -> Result<(), String> {
        let wall = self.start.elapsed().as_secs_f64();
        let (cpu_s, steal_s) = cpu_and_steal_s()?;
        let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        rep.info("cpu_s", cpu_s - self.cpu_s);
        rep.info(
            "steal_pct",
            100.0 * (steal_s - self.steal_s) / (cpus * wall),
        );
        Ok(())
    }
}
