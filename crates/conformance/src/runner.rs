//! The conformance run loop: generate, check, shrink, record.

use std::fmt;
use std::path::PathBuf;

use crate::corpus::write_reproducer;
use crate::gen::{generate, GenSize};
use crate::oracle::{builtin_oracles, Oracle, OracleEnv, Verdict};
use crate::shrink::shrink_failure;

/// Configuration of one conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceOptions {
    /// The run seed: together with a case index it determines a case.
    pub seed: u64,
    /// How many cases to generate.
    pub cases: u64,
    /// Size knobs for generation.
    pub size: GenSize,
    /// Oracle names to run (empty = the whole built-in suite).
    pub oracles: Vec<String>,
    /// Where shrunk reproducers are written (`None` = don't write).
    pub regressions_dir: Option<PathBuf>,
    /// Bounds shared by every oracle.
    pub env: OracleEnv,
}

impl ConformanceOptions {
    /// A run of `cases` cases from `seed` with medium-size generation,
    /// the full oracle suite, and no reproducer directory.
    #[must_use]
    pub fn new(seed: u64, cases: u64) -> ConformanceOptions {
        ConformanceOptions {
            seed,
            cases,
            size: GenSize::medium(),
            oracles: Vec::new(),
            regressions_dir: None,
            env: OracleEnv::default(),
        }
    }
}

/// Per-oracle outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleTally {
    /// Cases the oracle ran on (its stride may skip cases).
    pub run: usize,
    /// Cases where the property held.
    pub pass: usize,
    /// Cases out of the oracle's reach.
    pub skip: usize,
    /// Cases where the property failed.
    pub fail: usize,
}

/// One shrunk failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The oracle that failed.
    pub oracle: String,
    /// The failing case's `(seed, index)`.
    pub origin: (u64, u64),
    /// The oracle message on the minimal case.
    pub message: String,
    /// The 1-minimal failing system, printed.
    pub minimal: String,
    /// The minimal fault schedule, if one is needed.
    pub faults: Option<String>,
    /// How many reduction steps shrinking took.
    pub shrink_steps: usize,
    /// Where the reproducer was written, if anywhere.
    pub reproducer: Option<PathBuf>,
}

/// The result of a conformance run.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Cases generated.
    pub cases: u64,
    /// Per-oracle tallies, in suite order.
    pub tallies: Vec<(String, OracleTally)>,
    /// Every failure, shrunk.
    pub failures: Vec<Failure>,
}

impl ConformanceReport {
    /// `true` when every oracle that ran decided at least one case.
    #[must_use]
    pub fn decided_anything(&self) -> bool {
        self.tallies.iter().any(|(_, t)| t.pass + t.fail > 0)
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conformance: {} cases", self.cases)?;
        for (name, t) in &self.tallies {
            writeln!(
                f,
                "  {name:<10} {} run, {} pass, {} skip, {} fail",
                t.run, t.pass, t.skip, t.fail
            )?;
        }
        for fail in &self.failures {
            writeln!(
                f,
                "FAIL {} (seed {} case {}): {}",
                fail.oracle, fail.origin.0, fail.origin.1, fail.message
            )?;
            writeln!(
                f,
                "  minimal after {} shrink steps: {}",
                fail.shrink_steps, fail.minimal
            )?;
            if let Some(faults) = &fail.faults {
                writeln!(f, "  under faults: {faults}")?;
            }
            if let Some(path) = &fail.reproducer {
                writeln!(f, "  reproducer: {}", path.display())?;
            }
        }
        let total_fail: usize = self.tallies.iter().map(|(_, t)| t.fail).sum();
        write!(
            f,
            "summary: {} failure{}",
            total_fail,
            if total_fail == 1 { "" } else { "s" }
        )
    }
}

/// Runs the conformance harness.
///
/// # Errors
///
/// Returns a usage-style message for unknown oracle names and for an
/// injection whose oracle is not selected (it would plant nothing);
/// oracle failures are *results*, not errors.
pub fn run_conformance(opts: &ConformanceOptions) -> Result<ConformanceReport, String> {
    let suite = selected_oracles(&opts.oracles)?;
    if let Some(inj) = opts.env.injection {
        if !suite.iter().any(|o| o.name() == inj.oracle()) {
            return Err(format!(
                "injection `{}` plants into the `{}` oracle, which is not selected",
                inj.directive(),
                inj.oracle()
            ));
        }
    }
    let mut tallies: Vec<(String, OracleTally)> = suite
        .iter()
        .map(|o| (o.name().to_string(), OracleTally::default()))
        .collect();
    let mut failures = Vec::new();
    for index in 0..opts.cases {
        let case = generate(opts.seed, index, &opts.size);
        for (oracle, (_, tally)) in suite.iter().zip(&mut tallies) {
            let stride = oracle.stride().max(1) as u64;
            if index % stride != 0 {
                continue;
            }
            tally.run += 1;
            match oracle.check(&case, &opts.env) {
                Verdict::Pass => tally.pass += 1,
                Verdict::Skip(_) => tally.skip += 1,
                Verdict::Fail(_) => {
                    tally.fail += 1;
                    failures.push(record_failure(oracle.as_ref(), &case, opts));
                }
            }
        }
    }
    Ok(ConformanceReport {
        cases: opts.cases,
        tallies,
        failures,
    })
}

fn record_failure(
    oracle: &dyn Oracle,
    case: &crate::gen::TestCase,
    opts: &ConformanceOptions,
) -> Failure {
    let shrunk = shrink_failure(
        oracle,
        &case.spec,
        case.faults.as_ref(),
        &case.channels,
        &opts.env,
    );
    let reproducer = opts.regressions_dir.as_ref().and_then(|dir| {
        write_reproducer(
            dir,
            oracle.name(),
            case.seed,
            case.index,
            &case.channels,
            &shrunk,
            opts.env.injection,
        )
        .ok()
    });
    Failure {
        oracle: oracle.name().to_string(),
        origin: (case.seed, case.index),
        message: shrunk.message.clone(),
        minimal: shrunk.process.to_string(),
        faults: shrunk.faults.as_ref().map(ToString::to_string),
        shrink_steps: shrunk.steps,
        reproducer,
    }
}

fn selected_oracles(names: &[String]) -> Result<Vec<Box<dyn Oracle>>, String> {
    let all = builtin_oracles();
    if names.is_empty() {
        return Ok(all);
    }
    let mut picked = Vec::with_capacity(names.len());
    for name in names {
        let oracle = all.iter().position(|o| o.name() == name).ok_or_else(|| {
            format!(
                "unknown oracle `{name}` (valid: {})",
                crate::oracle::builtin_names().join(", ")
            )
        })?;
        picked.push(oracle);
    }
    // Re-collect in suite order, deduplicated.
    let mut out = Vec::new();
    let mut taken: Vec<usize> = picked;
    taken.sort_unstable();
    taken.dedup();
    for (i, oracle) in all.into_iter().enumerate() {
        if taken.contains(&i) {
            out.push(oracle);
        }
    }
    Ok(out)
}

/// Maps a report to the CLI exit convention: `0` all green, `1` failures
/// found, `3` nothing decided (every oracle skipped everything).
#[must_use]
pub fn exit_code(report: &ConformanceReport) -> i32 {
    if report.failures.is_empty() {
        if report.decided_anything() {
            0
        } else {
            3
        }
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Injection;

    #[test]
    fn unknown_oracle_is_a_usage_error() {
        let mut opts = ConformanceOptions::new(1, 1);
        opts.oracles = vec!["psychic".to_string()];
        let err = run_conformance(&opts).expect_err("should reject");
        assert!(err.contains("unknown oracle `psychic`"), "{err}");
        assert!(err.contains("roundtrip"), "{err}");
    }

    #[test]
    fn an_injection_outside_the_selected_oracles_is_a_usage_error() {
        let mut opts = ConformanceOptions::new(1, 1);
        opts.oracles = vec!["roundtrip".to_string()];
        opts.env.injection = Some(Injection::TruncateCanonKeys(2));
        let err = run_conformance(&opts).expect_err("should reject");
        assert!(err.contains("`truncate-keys:2`"), "{err}");
        assert!(err.contains("`cowstate` oracle"), "{err}");
        // The whole suite includes every injection's oracle.
        opts.oracles.clear();
        opts.cases = 0;
        for inj in [Injection::SymNoPerm, Injection::BisimSkipAnalysis] {
            opts.env.injection = Some(inj);
            assert!(run_conformance(&opts).is_ok(), "{inj:?}");
        }
    }

    #[test]
    fn small_clean_run_is_green() {
        let mut opts = ConformanceOptions::new(11, 6);
        opts.size = GenSize::small();
        opts.oracles = vec!["roundtrip".to_string(), "cowstate".to_string()];
        let report = run_conformance(&opts).expect("runs");
        assert!(report.failures.is_empty(), "{report}");
        assert_eq!(exit_code(&report), 0);
    }

    #[test]
    fn injected_canonicalizer_bug_is_caught_and_shrunk() {
        let mut opts = ConformanceOptions::new(7, 40);
        opts.size = GenSize::small();
        opts.oracles = vec!["cowstate".to_string()];
        opts.env.injection = Some(Injection::TruncateCanonKeys(2));
        let report = run_conformance(&opts).expect("runs");
        assert!(
            !report.failures.is_empty(),
            "planted bug went uncaught: {report}"
        );
        let smallest = report
            .failures
            .iter()
            .map(|f| f.minimal.lines().count())
            .min()
            .unwrap_or(usize::MAX);
        assert!(
            smallest < 12,
            "expected a reproducer under 12 lines, got {smallest}"
        );
    }

    #[test]
    fn injected_bisim_analysis_bug_is_caught_and_shrunk() {
        let dir = std::env::temp_dir().join(format!(
            "spi-conformance-bisim-regressions-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = ConformanceOptions::new(7, 40);
        opts.size = GenSize::small();
        opts.oracles = vec!["engines".to_string()];
        opts.env.injection = Some(Injection::BisimSkipAnalysis);
        opts.regressions_dir = Some(dir.clone());
        let report = run_conformance(&opts).expect("runs");
        assert!(
            !report.failures.is_empty(),
            "planted bisim bug went uncaught: {report}"
        );
        let smallest = report
            .failures
            .iter()
            .map(|f| f.minimal.lines().count())
            .min()
            .unwrap_or(usize::MAX);
        assert!(
            smallest < 12,
            "expected a reproducer under 12 lines, got {smallest}"
        );
        assert!(
            report.failures.iter().any(|f| f.reproducer.is_some()),
            "no reproducer written: {report}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_symmetry_bug_is_caught_and_shrunk() {
        let mut opts = ConformanceOptions::new(7, 40);
        opts.size = GenSize::small();
        opts.oracles = vec!["reduce".to_string()];
        opts.env.injection = Some(Injection::SymNoPerm);
        let report = run_conformance(&opts).expect("runs");
        assert!(
            !report.failures.is_empty(),
            "planted symmetry bug went uncaught: {report}"
        );
        let smallest = report
            .failures
            .iter()
            .map(|f| f.minimal.lines().count())
            .min()
            .unwrap_or(usize::MAX);
        assert!(
            smallest < 12,
            "expected a reproducer under 12 lines, got {smallest}"
        );
    }
}
