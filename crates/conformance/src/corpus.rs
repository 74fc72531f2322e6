//! The regression corpus: shrunk reproducers on disk, replayable forever.
//!
//! Every failure the harness shrinks is written as a standalone `.spi`
//! program under `conformance/corpus/regressions/`, self-describing via
//! `--` directive comments **at the top of the file** (the program parser
//! only skips comment lines before the first section):
//!
//! ```text
//! -- conformance reproducer
//! -- oracle: workers
//! -- seed: 7 case: 12
//! -- channels: c,d
//! -- fault: drop:c:1
//! -- expect: fail            (only for planted-bug reproducers)
//! -- inject: truncate-keys:4 (ditto)
//! system (^s)(c<m> | c(x1))
//! ```
//!
//! Replaying a reproducer reconstructs the case, runs the named oracle
//! and checks the expectation: ordinary reproducers must **pass** (the
//! bug they caught stays fixed), planted-bug reproducers must **fail**
//! under their recorded injection (the harness still catches the bug).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use spi_semantics::{FaultClause, FaultSpec};
use spi_syntax::parse_program;

use crate::oracle::{check_process, oracle_by_name, Injection, OracleEnv, Verdict};
use crate::shrink::Shrunk;

/// A reproducer parsed back from disk.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The oracle the failure was found by.
    pub oracle: String,
    /// The `(seed, index)` pair of the originating case.
    pub origin: (u64, u64),
    /// The channel alphabet the case drew from.
    pub channels: Vec<String>,
    /// The fault schedule, if the failure needs one.
    pub faults: Option<FaultSpec>,
    /// The planted bug the reproducer documents, if any.
    pub inject: Option<Injection>,
    /// Whether replay expects the oracle to fail (planted bugs) or pass.
    pub expect_fail: bool,
    /// The shrunk system.
    pub system: spi_syntax::Process,
}

/// Renders a shrunk failure as reproducer file text.
#[must_use]
pub fn render(
    oracle: &str,
    seed: u64,
    index: u64,
    channels: &[String],
    shrunk: &Shrunk,
    inject: Option<Injection>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- conformance reproducer");
    let _ = writeln!(out, "-- oracle: {oracle}");
    let _ = writeln!(out, "-- seed: {seed} case: {index}");
    if !channels.is_empty() {
        let _ = writeln!(out, "-- channels: {}", channels.join(","));
    }
    if let Some(spec) = &shrunk.faults {
        for c in &spec.clauses {
            let _ = writeln!(out, "-- fault: {}:{}:{}", c.kind.keyword(), c.chan, c.max);
        }
    }
    if let Some(inj) = inject {
        let _ = writeln!(out, "-- expect: fail");
        let _ = writeln!(out, "-- inject: {}", inj.directive());
    }
    let _ = writeln!(out, "system {}", shrunk.process);
    out
}

/// A stable filename for a reproducer: the oracle name plus a 64-bit
/// FNV-1a digest of the file body.
#[must_use]
pub fn filename(oracle: &str, body: &str) -> String {
    format!("{oracle}-{:016x}.spi", spi_verify::fnv64(body))
}

/// Writes a reproducer into `dir`, creating it if needed, and returns the
/// file path.
///
/// # Errors
///
/// Propagates filesystem errors as strings.
pub fn write_reproducer(
    dir: &Path,
    oracle: &str,
    seed: u64,
    index: u64,
    channels: &[String],
    shrunk: &Shrunk,
    inject: Option<Injection>,
) -> Result<PathBuf, String> {
    let body = render(oracle, seed, index, channels, shrunk, inject);
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(filename(oracle, &body));
    fs::write(&path, &body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Parses reproducer file text back into a replayable case.
///
/// # Errors
///
/// Reports malformed directives and program syntax errors.
pub fn parse_reproducer(src: &str) -> Result<Reproducer, String> {
    let mut oracle = None;
    let mut origin = (0u64, 0u64);
    let mut channels = Vec::new();
    let mut clauses: Vec<FaultClause> = Vec::new();
    let mut inject = None;
    let mut expect_fail = false;
    for line in src.lines() {
        let Some(directive) = line.trim_start().strip_prefix("--") else {
            break; // first non-comment line: the program begins.
        };
        let directive = directive.trim();
        if let Some(name) = directive.strip_prefix("oracle:") {
            oracle = Some(name.trim().to_string());
        } else if let Some(rest) = directive.strip_prefix("seed:") {
            // `seed: N case: M`
            let mut nums = rest
                .split(|c: char| !c.is_ascii_digit())
                .filter(|s| !s.is_empty())
                .map(str::parse::<u64>);
            if let (Some(Ok(s)), Some(Ok(i))) = (nums.next(), nums.next()) {
                origin = (s, i);
            }
        } else if let Some(list) = directive.strip_prefix("channels:") {
            channels = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(ToString::to_string)
                .collect();
        } else if let Some(clause) = directive.strip_prefix("fault:") {
            clauses.push(
                clause
                    .trim()
                    .parse::<FaultClause>()
                    .map_err(|e| format!("bad fault directive `{clause}`: {}", e.reason))?,
            );
        } else if let Some(spec) = directive.strip_prefix("inject:") {
            inject = Some(Injection::parse(spec.trim())?);
        } else if directive.strip_prefix("expect:").map(str::trim) == Some("fail") {
            expect_fail = true;
        }
    }
    let oracle = oracle.ok_or("missing `-- oracle:` directive")?;
    let program = parse_program(src).map_err(|e| format!("program does not parse: {e}"))?;
    Ok(Reproducer {
        oracle,
        origin,
        channels,
        faults: (!clauses.is_empty()).then(|| FaultSpec::new(clauses)),
        inject,
        expect_fail,
        system: program.system,
    })
}

/// Replays one reproducer: runs its oracle and checks the expectation.
///
/// # Errors
///
/// Reports unknown oracles, verdicts contradicting the expectation, and
/// `Skip` (a reproducer the oracle can no longer reach is stale, not
/// passing).
pub fn replay(rep: &Reproducer) -> Result<(), String> {
    let oracle =
        oracle_by_name(&rep.oracle).ok_or_else(|| format!("unknown oracle `{}`", rep.oracle))?;
    let env = OracleEnv {
        injection: rep.inject,
        ..OracleEnv::default()
    };
    let verdict = check_process(
        oracle.as_ref(),
        &rep.system,
        rep.faults.clone(),
        &rep.channels,
        &env,
    );
    match (rep.expect_fail, verdict) {
        (false, Verdict::Pass) => Ok(()),
        (true, Verdict::Fail(_)) => Ok(()),
        (false, Verdict::Fail(msg)) => Err(format!("regressed: {msg}")),
        (true, Verdict::Pass) => Err(
            "planted bug no longer caught: the oracle passed under injection".to_string(),
        ),
        (_, Verdict::Skip(why)) => Err(format!("stale reproducer (oracle skipped): {why}")),
    }
}

/// Replays every `.spi` reproducer in `dir` (missing directory = empty
/// corpus), returning `(replayed, failures)`.
#[must_use]
pub fn replay_dir(dir: &Path) -> (usize, Vec<String>) {
    let mut files: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "spi"))
            .collect(),
        Err(_) => return (0, Vec::new()),
    };
    files.sort();
    let mut failures = Vec::new();
    for path in &files {
        let outcome = fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|src| parse_reproducer(&src))
            .and_then(|rep| replay(&rep));
        if let Err(msg) = outcome {
            failures.push(format!("{}: {msg}", path.display()));
        }
    }
    (files.len(), failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::Shrunk;
    use spi_syntax::parse;

    fn shrunk(src: &str, faults: Option<FaultSpec>) -> Shrunk {
        Shrunk {
            process: parse(src).expect("parses"),
            faults,
            message: "msg".to_string(),
            steps: 1,
        }
    }

    #[test]
    fn reproducers_render_parse_and_roundtrip() {
        let s = shrunk(
            "(^s)(c<m> | c(x1))",
            Some(FaultSpec::single(
                spi_semantics::FaultKind::Drop,
                spi_syntax::Name::new("c"),
                1,
            )),
        );
        let body = render("workers", 7, 12, &["c".to_string()], &s, None);
        let rep = parse_reproducer(&body).expect("parses back");
        assert_eq!(rep.oracle, "workers");
        assert_eq!(rep.origin, (7, 12));
        assert_eq!(rep.channels, vec!["c".to_string()]);
        assert_eq!(rep.system, s.process);
        assert_eq!(
            rep.faults.map(|f| f.canonical_key()),
            s.faults.map(|f| f.canonical_key())
        );
        assert!(!rep.expect_fail);
    }

    #[test]
    fn injected_reproducers_record_the_bug() {
        let s = shrunk("c<m>", None);
        let body = render(
            "cowstate",
            1,
            2,
            &[],
            &s,
            Some(Injection::TruncateCanonKeys(4)),
        );
        let rep = parse_reproducer(&body).expect("parses back");
        assert!(rep.expect_fail);
        assert_eq!(rep.inject, Some(Injection::TruncateCanonKeys(4)));
    }

    #[test]
    fn filenames_are_stable_and_distinct() {
        let a = filename("workers", "body-a");
        assert_eq!(a, filename("workers", "body-a"));
        assert_ne!(a, filename("workers", "body-b"));
        assert!(a.starts_with("workers-") && a.ends_with(".spi"));
    }

    #[test]
    fn missing_oracle_directive_is_an_error() {
        assert!(parse_reproducer("system c<m>\n").is_err());
    }
}
