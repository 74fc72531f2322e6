//! The repository benchmark: three closed-loop workloads driven through
//! the entry points a user calls (`Verifier::check`,
//! `Verifier::run_campaign`, and a `Client` talking to an in-process
//! `spi serve`), each checked answer by answer.  See `README.md` in this
//! directory for the workloads, the metrics and what each layer metric
//! predicts.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The process given these arguments only orchestrates.  Every
//! measurement runs in a fresh child process of the same executable,
//! so peak RSS, allocator state and cache warmth belong to one
//! workload alone.  Untraced, [`PROCESSES`] children run one after
//! another; each sets up and then measures for an equal share of
//! `--seconds`.  Their samples are pooled, and set-up time and peak RSS
//! are the median over the children, so effects fixed per process
//! (address layout, hash seeds, which allocator arena a thread gets)
//! average out.  Traced, one child records spans for all of
//! `--seconds`.  The last line of standard output is the result object.

mod campaign;
mod serve;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::fmt::{Debug, Display, Write as _};
use std::process::{Command, ExitCode, Stdio};

use spi_auth::syntax::Process;
use spi_server::parse_source;
use stats::{median, percentile};

pub const WORKLOADS: [&str; 3] = ["verify", "campaign", "serve"];

/// Processes an untraced run is split across.
const PROCESSES: usize = 3;

/// Where traced runs write their spans, relative to the working
/// directory.
pub const SPAN_DIR: &str = "perfbench/out";

/// The spec files every workload reads, relative to the repository root.
pub const PM: &str = "examples/protocols/pm.spi";
pub const PM2: &str = "examples/protocols/pm2.spi";
pub const PM3: &str = "examples/protocols/pm3.spi";

/// The visible-trace depth of every check: the verifier default, set
/// explicitly so the traced decompositions decide at the same depth.
pub const MAX_VISIBLE: usize = 6;

/// Every per-layer metric a traced run reports, with its unit.  A
/// workload whose path never enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("syntax.parse_us", "us"),
    ("explore.ms", "ms"),
    ("explore.states", "count"),
    ("explore.edges", "count"),
    ("explore.us_per_state.none", "us"),
    ("explore.us_per_state.full", "us"),
    ("explore.quotiented", "count"),
    ("explore.por_pruned", "count"),
    ("decide.trace_ms", "ms"),
    ("decide.bisim_ms", "ms"),
    ("decide.share", "ratio"),
    ("campaign.schedules", "count"),
    ("campaign.attacks", "count"),
    ("campaign.early_rejects", "count"),
    ("campaign.classify_ms", "ms"),
    ("campaign.residual_ms", "ms"),
    ("verify.residual_ms", "ms"),
    ("protocol.parse_request_us", "us"),
    ("protocol.digest_us", "us"),
    ("protocol.encode_us", "us"),
    ("cache.get_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("service.residual_us", "us"),
    ("service.shed", "count"),
    ("service.rejected", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unexplained_pct", "%"),
];

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Why a child stopped early.
pub enum Fail {
    /// A wrong answer: the run is incorrect.
    Gate(String),
    /// The benchmark could not run at all.
    Error(String),
}

impl From<String> for Fail {
    fn from(e: String) -> Fail {
        Fail::Error(e)
    }
}

/// Fails the correctness gate unless `ok`.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), Fail> {
    if ok {
        Ok(())
    } else {
        Err(Fail::Gate(what()))
    }
}

pub fn read_spec(path: &str) -> Result<String, Fail> {
    std::fs::read_to_string(path)
        .map_err(|e| Fail::Error(format!("{path}: {e} (run from the repository root)")))
}

/// Parses spec texts the way `spi serve` parses inline specs.
pub fn parse_specs(texts: &[String; 3]) -> Result<[Process; 3], Fail> {
    let mut out = Vec::new();
    for t in texts {
        out.push(parse_source(t).map_err(Fail::Error)?);
    }
    Ok(out.try_into().expect("three specs"))
}

/// The texts of Pm, Pm2 and Pm3, and the parsed processes.
pub fn load_specs() -> Result<([String; 3], [Process; 3]), Fail> {
    let texts = [read_spec(PM)?, read_spec(PM2)?, read_spec(PM3)?];
    let specs = parse_specs(&texts)?;
    Ok((texts, specs))
}

/// What one child measured.
#[derive(Default)]
pub struct Report {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Units of work done while measuring, and the wall time it took.
    pub work: f64,
    pub wall_s: f64,
    /// Peak resident set of the child, in MiB.
    pub rss_mb: f64,
    /// Op latencies in ms: `all` holds every op, other sets a class
    /// of ops reported in the info line.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer metrics (traced runs only).
    pub metrics: Vec<(String, f64, String)>,
    pub info: Vec<(String, String)>,
    /// Counts fixed by the seed; they must repeat exactly in every
    /// process.
    pub fingerprint: String,
}

impl Report {
    pub fn sample(&mut self, set: &str, ms: f64) {
        self.samples.entry(set.to_string()).or_default().push(ms);
    }

    /// Reports every [`PER_LAYER`] metric from `values`, which may
    /// name only those.
    pub fn layers(&mut self, values: &BTreeMap<&'static str, f64>) -> Result<(), Fail> {
        if let Some(stray) = values
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        {
            return Err(Fail::Error(format!("no per-layer metric named {stray}")));
        }
        for (name, unit) in PER_LAYER {
            let value = values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                return Err(Fail::Error(format!(
                    "{name} is {value}: the run was too short"
                )));
            }
            self.metrics
                .push((name.to_string(), value, unit.to_string()));
        }
        Ok(())
    }

    pub fn info(&mut self, key: &str, value: impl Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// The lines a child prints for its parent.
    fn emit(&self) {
        println!("@setup_s {:?}", self.setup_s);
        println!("@attempted {}", self.attempted);
        println!("@failed {}", self.failed);
        println!("@work {:?}", self.work);
        println!("@wall_s {:?}", self.wall_s);
        println!("@rss_mb {:?}", self.rss_mb);
        println!("@fingerprint {}", self.fingerprint);
        for (set, values) in &self.samples {
            let mut line = format!("@samples {set}");
            for v in values {
                let _ = write!(line, " {v:?}");
            }
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("@metric {name} {value:?} {unit}");
        }
        for (k, v) in &self.info {
            println!("@info {k} {v}");
        }
    }

    fn parse(stdout: &str) -> Result<Report, String> {
        let mut rep = Report::default();
        for line in stdout.lines() {
            let Some(rest) = line.strip_prefix('@') else {
                continue;
            };
            let (key, value) = rest.split_once(' ').unwrap_or((rest, ""));
            let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{key} {v:?}: {e}"));
            match key {
                "setup_s" => rep.setup_s = num(value)?,
                "attempted" => rep.attempted = num(value)? as u64,
                "failed" => rep.failed = num(value)? as u64,
                "work" => rep.work = num(value)?,
                "wall_s" => rep.wall_s = num(value)?,
                "rss_mb" => rep.rss_mb = num(value)?,
                "fingerprint" => rep.fingerprint = value.to_string(),
                "samples" => {
                    let mut parts = value.split(' ');
                    let set = parts.next().unwrap_or_default().to_string();
                    let values = parts.map(num).collect::<Result<Vec<f64>, _>>()?;
                    rep.samples.insert(set, values);
                }
                "metric" => {
                    let parts: Vec<&str> = value.split(' ').collect();
                    let [name, v, unit] = parts[..] else {
                        return Err(format!("bad metric line {line:?}"));
                    };
                    rep.metrics
                        .push((name.to_string(), num(v)?, unit.to_string()));
                }
                "info" => {
                    let (k, v) = value.split_once(' ').unwrap_or((value, ""));
                    rep.info(k, v);
                }
                _ => return Err(format!("unknown child line {line:?}")),
            }
        }
        Ok(rep)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child: measure instead of orchestrating.
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            out.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn Debug| format!("{flag} {value:?}: {e:?}");
        match flag.as_str() {
            "--workload" => out.workload.clone_from(value),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join("|"),
            out.workload
        ));
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        orchestrate(&args, &argv)
    }
}

fn child(args: &Args) -> ExitCode {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut rep = Report::default();
    let outcome = match args.workload.as_str() {
        "verify" => verify::run(&cfg, &mut rep),
        "campaign" => campaign::run(&cfg, &mut rep),
        _ => serve::run(&cfg, &mut rep),
    };
    match outcome {
        Ok(()) => {
            rep.emit();
            ExitCode::SUCCESS
        }
        Err(Fail::Gate(why)) => {
            println!("@gate {why}");
            ExitCode::from(3)
        }
        Err(Fail::Error(why)) => {
            eprintln!("perfbench {}: {why}", args.workload);
            ExitCode::from(1)
        }
    }
}

enum ChildEnd {
    Done(Report),
    Gate(String),
}

fn spawn_child(args: &Args, seconds: f64) -> Result<ChildEnd, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--child")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if let Some(why) = stdout.lines().find_map(|l| l.strip_prefix("@gate ")) {
        return Ok(ChildEnd::Gate(why.to_string()));
    }
    if !out.status.success() {
        return Err(format!("child failed: {}", out.status));
    }
    Report::parse(&stdout).map(ChildEnd::Done)
}

fn orchestrate(args: &Args, argv: &[String]) -> ExitCode {
    match orchestrate_inner(args, argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

/// Runs the children and prints the info and result lines.  Returns
/// whether every answer was correct.
fn orchestrate_inner(args: &Args, argv: &[String]) -> Result<bool, String> {
    let processes = if args.trace { 1 } else { PROCESSES };
    let mut gate_failures = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..processes {
        match spawn_child(args, args.seconds / processes as f64)? {
            ChildEnd::Done(rep) => reports.push(rep),
            ChildEnd::Gate(why) => gate_failures.push(why),
        }
    }
    if let Some(first) = reports.first() {
        for other in &reports[1..] {
            if other.fingerprint != first.fingerprint {
                gate_failures.push(format!(
                    "counts differ between processes with one seed: {:?} vs {:?}",
                    first.fingerprint, other.fingerprint
                ));
            }
        }
    }
    let correct = gate_failures.is_empty() && reports.len() == processes;
    for why in &gate_failures {
        eprintln!("perfbench {}: WRONG ANSWER: {why}", args.workload);
    }
    if !correct {
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        return Ok(false);
    }
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &reports {
        for (set, values) in &r.samples {
            samples.entry(set).or_default().extend(values);
        }
    }

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut info = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
        ("command".into(), json_str(&argv.join(" "))),
        ("processes".into(), processes.to_string()),
        (
            "failed_pct".into(),
            format!("{:?}", 100.0 * failed as f64 / attempted.max(1) as f64),
        ),
    ];
    if args.trace {
        metrics.extend(reports[0].metrics.iter().cloned());
    } else {
        let each = |f: fn(&Report) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };
        let mut all = samples
            .remove("all")
            .filter(|s| !s.is_empty())
            .ok_or("no op succeeded")?;
        let work: f64 = each(|r| r.work).iter().sum();
        let wall: f64 = each(|r| r.wall_s).iter().sum();
        let m = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
        metrics.push(m("setup_s", median(&mut each(|r| r.setup_s)), "s"));
        metrics.push(m("ops_per_s", work / wall, "1/s"));
        metrics.push(m("latency_ms_p50", percentile(&mut all, 0.5), "ms"));
        metrics.push(m("latency_ms_p90", percentile(&mut all, 0.9), "ms"));
        metrics.push(m("peak_rss_mb", median(&mut each(|r| r.rss_mb)), "MiB"));
        info.push(("samples".into(), all.len().to_string()));
        for (name, mut values) in samples {
            info.push((
                format!("{name}_ms_p50"),
                format!("{:?}", percentile(&mut values, 0.5)),
            ));
            info.push((
                format!("{name}_ms_p90"),
                format!("{:?}", percentile(&mut values, 0.9)),
            ));
            info.push((format!("{name}_samples"), values.len().to_string()));
        }
        let list = |f: fn(&Report) -> f64| {
            let v: Vec<String> = each(f).iter().map(|x| format!("{x:?}")).collect();
            format!("[{}]", v.join(", "))
        };
        info.push(("setup_s_each".into(), list(|r| r.setup_s)));
        info.push(("peak_rss_mb_each".into(), list(|r| r.rss_mb)));
    }
    let children: Vec<String> = reports
        .iter()
        .map(|r| {
            let fields: Vec<String> = r
                .info
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_value(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        })
        .collect();
    info.push(("children".into(), format!("[{}]", children.join(", "))));
    let info: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));

    let metrics: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(true)
}

/// A child's info value as JSON: numbers and objects as they are,
/// anything else as a string.
fn json_value(v: &str) -> String {
    if v.parse::<f64>().is_ok() || v.starts_with('[') || v.starts_with('{') {
        v.to_string()
    } else {
        json_str(v)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
