//! `spi` — command-line front-end for the authentication-primitives
//! toolkit.  `spi help` prints every subcommand with its flags.
//!
//! * `parse`, `run`: check and pretty-print a process, or run it and
//!   narrate the steps.
//! * `verify`, `campaign`: check secure implementation, or sweep every
//!   fault schedule up to `--faults-depth` unit firings and shrink the
//!   failures to 1-minimal counterexamples (checkpointed, resumable).
//! * `explore`, `narrate`: explore under the intruder (`--dot` writes
//!   the LTS), or compile a narration both ways and check the result.
//! * `conformance`: differential fuzzing of generated specs against the
//!   oracle suite, failures shrunk to `.spi` reproducers; `--inject`
//!   plants a known bug into its oracle, which must be selected, to
//!   self-test the harness.
//! * `paper`: re-derive the paper's results.
//! * `serve`, `fleet`, `client`: the verification daemon
//!   (newline-delimited JSON over TCP), a fleet coordinator sharding
//!   requests over joined workers, and a client for either.
//!
//! The flags `verify`, `campaign`, `explore` and `narrate` share are
//! the job options of the `spi serve` wire protocol, read through the
//! same table (`JOB_OPTIONS` in `spi-server`), so a question asked
//! on the command line and over the wire gets the same defaults and the
//! same checks.  Every subcommand rejects flags it does not know.
//! `--budget` dimensions: `states`, `transitions`, `fuel`, `knowledge`,
//! `steps`, over the default 200 000-state budget.  `--fault` kinds:
//! `drop`, `duplicate`, `reorder`, `replay` (repeatable, and each
//! occurrence may hold several comma-separated
//! clauses; `max` defaults to 1).  `--workers` sets the exploration
//! thread count (default: available parallelism); for `campaign` it is
//! how many schedules are classified at once, each in a single-threaded
//! exploration.  Results are bit-for-bit identical for any worker
//! count.  `--timeout-secs` sets a
//! wall-clock deadline; runs it truncates answer *inconclusive*.
//! `--reduce` turns on the session-symmetry quotient and/or
//! partial-order reduction.  `--engine` picks
//! the decision procedure: the trace engine (default), the on-the-fly
//! bisimulation engine, or `both` to cross-check them — a
//! disagreement fails loudly with the minimal witness, and `both`
//! campaigns skip the trace comparison on schedules the bisimulation
//! check already rejects.  `spi conformance`
//! oracles: `roundtrip`, `workers`, `hashkeys`, `cowstate`, `reduce`,
//! `checkpoint`, `server`, `fleet`, `engines`.  `spi verify` and
//! `spi campaign` accept `--format text|json`; the JSON shapes are the
//! exact bodies the daemon serves, so scripts see one schema either
//! way.
//!
//! A **fleet** is one `spi fleet` coordinator plus any number of
//! `spi serve --join` workers.  Clients talk to the coordinator with
//! the unchanged single-node protocol; behind it, requests shard over
//! a consistent-hash ring, campaigns split into re-dispatchable work
//! units, failures are detected by heartbeat and dial errors, slow
//! workers are hedged, and on quorum loss the coordinator answers from
//! its own local engine (`"via":"local"` in the envelope).  `--chaos
//! SEED` makes the coordinator drill itself with a deterministic fault
//! plan.  `spi client --fallback local` gives scripts the same
//! degradation: when the server stays unreachable after `--retries`
//! attempts with exponential backoff, the job runs in-process and the
//! response prints as usual.
//!
//! Exit codes: 0 — verified / success; 1 — attack found, failed parse,
//! or conformance failures; 2 — usage error; 3 — inconclusive (a
//! resource budget ran out, the wall clock expired, a campaign was
//! interrupted, or every conformance oracle skipped every case).  A
//! stdout closed early (`spi paper | head -c 10`) is not an error: the
//! rest of the output is dropped and the command still exits with the
//! code it computed.

use std::process::ExitCode;

use spi_auth::protocols::compile::{compile_abstract, compile_concrete, CompileOptions};
use spi_auth::protocols::narration::Narration;
use spi_auth::semantics::{Config, Narrator, RoleMap};
use spi_auth::server::{job_flags, parse_source, JobRequest, Mode, RunControl, VerifierEngine};
use spi_auth::{propositions, Verdict, Verifier};

/// `println!` for a stdout that may close early: a line written to a
/// closed pipe is dropped instead of panicking (Rust ignores `SIGPIPE`,
/// so the standard macro panics on `EPIPE`).
macro_rules! println {
    ($($arg:tt)*) => {
        print_line(format_args!($($arg)*))
    };
}

fn print_line(line: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write as _};
    match writeln!(std::io::stdout().lock(), "{line}") {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => panic!("failed printing to stdout: {e}"),
        _ => {}
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(ExitCode::from(2));
    };
    match cmd.as_str() {
        "parse" => cmd_parse(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "campaign" => cmd_campaign(&args[1..]),
        "explore" => cmd_explore(&args[1..]),
        "narrate" => cmd_narrate(&args[1..]),
        "conformance" => cmd_conformance(&args[1..]),
        "paper" => cmd_paper(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "fleet" => cmd_fleet(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try `spi help`")),
    }
}

fn print_usage() {
    let shared: Vec<&str> = job_flags(Mode::Verify).map(|(_, usage)| usage).collect();
    let verify_own = ["[--workers N]", "[--timeout-secs S]", "[--format text|json]"];
    let campaign_own = ["[--checkpoint FILE]", "[--resume FILE]", "[--checkpoint-every N]",
        "[--stop-after N]", "(plus verify flags)"];
    let campaign = job_flags(Mode::Campaign).map(|(_, usage)| usage);
    let campaign = campaign.filter(|usage| !shared.contains(usage));
    let campaign: Vec<&str> = campaign.chain(campaign_own).collect();
    eprintln!(
        "usage:\n  spi parse <file>\n  spi run <file> [--steps N] [--unfold N]\n{}\n{}\n  \
         spi explore <file> [--dot FILE] (plus verify flags but --visible, --engine)\n  \
         spi narrate <narration-file> (plus verify flags)\n  \
         spi conformance [--seed N] [--cases N] [--size small|medium|large]\n    \
         [--oracles NAME,...] [--regressions DIR] [--unfold N] [--max-states N]\n    \
         [--inject truncate-keys:N|sym-no-perm|bisim-skip-analysis]\n  \
         spi paper [--sessions N]\n  \
         spi serve [--addr HOST:PORT] [--workers N] [--cache-bytes N] [--snapshot FILE]\n    \
         [--queue N] [--timeout-secs S] [--explore-workers N]\n    \
         [--read-deadline-ms N] [--write-buf-bytes N] [--quota-rate N] [--quota-burst N]\n    \
         [--join COORD] [--advertise ADDR] [--heartbeat-ms N]\n  \
         spi fleet [--addr HOST:PORT] [--quorum N] [--unit-size N] [--hedge-ms N]\n    \
         [--fail-after-ms N] [--retry-rounds N]\n    \
         [--chaos SEED] [--chaos-horizon N] [--explore-workers N]\n    \
         [--workers N] [--queue N] [--timeout-secs S]\n    \
         [--read-deadline-ms N] [--write-buf-bytes N] [--quota-rate N] [--quota-burst N]\n  \
         spi client [--addr HOST:PORT] [--connect-timeout MS] [--read-timeout MS]\n    \
         [--retries N] [--backoff-ms N] [--fallback local|off] [--progress MS] [REQUEST]...",
        entry("spi verify <concrete> <abstract>", &[&shared[..], &verify_own].concat()),
        entry("spi campaign <concrete> <abstract>", &campaign),
    );
}

/// One usage entry: `head`, then `items` two to a line.
fn entry(head: &str, items: &[&str]) -> String {
    let lines: Vec<String> = items.chunks(2).map(|pair| pair.join(" ")).collect();
    format!("  {head} {}", lines.join("\n    "))
}

/// Positional arguments and `--flag value` pairs, as borrowed slices.
type SplitArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Splits positional arguments from `--flag value` options.  A flag
/// not in `known` is a usage error, so a misspelling never runs with
/// the default.
fn split_flags<'a>(args: &'a [String], known: &[&str]) -> Result<SplitArgs<'a>, String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                let known: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                return Err(format!("unknown flag --{name} (known flags: {})", known.join(" ")));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name, value.as_str()));
        } else {
            pos.push(a.as_str());
        }
    }
    Ok((pos, flags))
}

/// The flags of a subcommand that runs a job: the shared job options
/// of `mode`, plus the subcommand's `own`.
fn job_known(mode: Mode, own: &[&'static str]) -> Vec<&'static str> {
    job_flags(mode).map(|(flag, _)| flag).chain(own.iter().copied()).collect()
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
}

fn numeric_flag<T: std::str::FromStr>(
    flags: &[(&str, &str)],
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(optional_flag(flags, name)?.unwrap_or(default))
}

/// A numeric flag with no default: `None` when absent.
fn optional_flag<T: std::str::FromStr>(
    flags: &[(&str, &str)],
    name: &str,
) -> Result<Option<T>, String> {
    let parse = |v: &str| {
        v.parse()
            .map_err(|_| format!("flag --{name} expects a number, got {v:?}"))
    };
    flag(flags, name).map(parse).transpose()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Reads and parses a process file, rendering any syntax error to
/// stderr.  A failed parse is exit code 1 (like `spi parse`), not a
/// usage error.
fn parse_file(path: &str) -> Result<Result<spi_auth::syntax::Process, ExitCode>, String> {
    Ok(parse_source(&read(path)?).map_err(|rendered| {
        eprintln!("{rendered}");
        ExitCode::FAILURE
    }))
}

fn cmd_parse(args: &[String]) -> Result<ExitCode, String> {
    let (pos, _) = split_flags(args, &[])?;
    let [path] = pos.as_slice() else {
        return Err("parse expects one file".into());
    };
    let Ok(p) = parse_file(path)? else {
        return Ok(ExitCode::FAILURE);
    };
    println!("{p}");
    let free = p.free_names();
    if !free.is_empty() {
        let names: Vec<String> = free.iter().map(ToString::to_string).collect();
        println!("-- free names: {}", names.join(", "));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let (pos, flags) = split_flags(args, &["steps", "unfold"])?;
    let [path] = pos.as_slice() else {
        return Err("run expects one file".into());
    };
    let steps: usize = numeric_flag(&flags, "steps", 64)?;
    let unfold: u32 = numeric_flag(&flags, "unfold", 2)?;
    let Ok(p) = parse_file(path)? else {
        return Ok(ExitCode::FAILURE);
    };
    let mut cfg = Config::from_process(&p).map_err(|e| e.to_string())?;
    let mut narrator = Narrator::new(RoleMap::new());
    for _ in 0..steps {
        let actions = cfg.enabled(unfold);
        let Some(action) = actions.first() else {
            break;
        };
        let info = cfg.fire(action).map_err(|e| e.to_string())?;
        println!("{}", narrator.narrate(&info, &cfg));
    }
    let barbs = cfg.barbs();
    if !barbs.is_empty() {
        let shown: Vec<String> = barbs
            .iter()
            .map(|b| format!("{}{}", b.chan, if b.output { "!" } else { "?" }))
            .collect();
        println!("-- barbs: {}", shown.join(", "));
    }
    Ok(ExitCode::SUCCESS)
}

/// The job the shared flags describe, and the verifier that answers it:
/// the one `spi serve` builds, with `--workers` explorer threads and a
/// `--timeout-secs` deadline.
fn job_verifier(mode: Mode, flags: &[(&str, &str)]) -> Result<(JobRequest, Verifier), String> {
    let job = JobRequest::from_flags(mode, flags)?;
    let engine = VerifierEngine {
        explore_workers: optional_flag(flags, "workers")?,
    };
    let ctl = RunControl {
        deadline: optional_flag(flags, "timeout-secs")?
            .map(|secs| std::time::Instant::now() + std::time::Duration::from_secs(secs)),
        cancel: std::sync::Arc::default(),
        progress: None,
    };
    let verifier = engine.build_verifier(&job, &ctl);
    Ok((job, verifier))
}

/// The exit code a verdict maps to, shared by text and JSON output.
fn verdict_code(verdict: &Verdict) -> ExitCode {
    match verdict {
        Verdict::SecurelyImplements => ExitCode::SUCCESS,
        Verdict::Attack(_) => ExitCode::FAILURE,
        Verdict::Inconclusive { .. } => ExitCode::from(3),
    }
}

fn report_verdict(verdict: &Verdict) -> ExitCode {
    match verdict {
        Verdict::SecurelyImplements => {
            println!("VERDICT: securely implements the specification (within bounds)");
        }
        Verdict::Attack(attack) => {
            println!("VERDICT: ATTACK");
            for line in &attack.narration {
                println!("  {line}");
            }
            println!("  distinguishing trace: {:?}", attack.trace);
        }
        Verdict::Inconclusive {
            exhausted,
            coverage,
        } => {
            println!("VERDICT: INCONCLUSIVE ({exhausted} budget exhausted; covered {coverage})");
        }
    }
    verdict_code(verdict)
}

/// Output format selection.  The JSON shapes are exactly the daemon's
/// response bodies ([`spi_auth::server::verify_body`] /
/// [`spi_auth::server::campaign_body`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn output_format(flags: &[(&str, &str)]) -> Result<Format, String> {
    match flag(flags, "format") {
        None | Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some(other) => Err(format!("--format expects text|json, got {other:?}")),
    }
}

fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let known = job_known(Mode::Verify, &["workers", "timeout-secs", "format"]);
    let (pos, flags) = split_flags(args, &known)?;
    let [concrete_path, abstract_path] = pos.as_slice() else {
        return Err("verify expects <concrete> <abstract>".into());
    };
    let (Ok(concrete), Ok(spec)) = (parse_file(concrete_path)?, parse_file(abstract_path)?) else {
        return Ok(ExitCode::FAILURE);
    };
    let (_, verifier) = job_verifier(Mode::Verify, &flags)?;
    let format = output_format(&flags)?;
    let report = verifier
        .check(&concrete, &spec)
        .map_err(|e| e.to_string())?;
    if format == Format::Json {
        println!("{}", spi_auth::server::verify_body(&report).render());
        return Ok(verdict_code(&report.verdict));
    }
    println!(
        "explored {} concrete / {} abstract states",
        report.concrete_stats.states, report.abstract_stats.states
    );
    Ok(report_verdict(&report.verdict))
}

/// A schedule key for humans: the empty schedule spelled out.
fn show_schedule(key: &str) -> &str {
    if key.starts_with('@') {
        "(no faults)"
    } else {
        key
    }
}

fn cmd_campaign(args: &[String]) -> Result<ExitCode, String> {
    let own = ["workers", "timeout-secs", "format", "checkpoint", "resume", "checkpoint-every",
        "stop-after"];
    let (pos, flags) = split_flags(args, &job_known(Mode::Campaign, &own))?;
    let [concrete_path, abstract_path] = pos.as_slice() else {
        return Err("campaign expects <concrete> <abstract>".into());
    };
    let (Ok(concrete), Ok(spec)) = (parse_file(concrete_path)?, parse_file(abstract_path)?) else {
        return Ok(ExitCode::FAILURE);
    };
    let (job, verifier) = job_verifier(Mode::Campaign, &flags)?;
    let depth = job.faults_depth;
    let mut opts = verifier.campaign_options(depth);
    opts.checkpoint_every = numeric_flag(&flags, "checkpoint-every", 8)?;
    if let Some(path) = flag(&flags, "checkpoint") {
        opts.checkpoint_path = Some(path.into());
    }
    if let Some(path) = flag(&flags, "resume") {
        opts.checkpoint_path = Some(path.into());
        opts.resume = true;
    }
    opts.stop_after = optional_flag(&flags, "stop-after")?;
    let format = output_format(&flags)?;
    let report = verifier
        .run_campaign(&concrete, &spec, &opts)
        .map_err(|e| e.to_string())?;
    if format == Format::Json {
        println!("{}", spi_auth::server::campaign_body(&report).render());
        return Ok(campaign_code(&report));
    }

    println!(
        "campaign: {} schedules up to depth {depth} ({} resumed, {} fresh{})",
        report.enumerated,
        report.resumed,
        report.fresh,
        if report.interrupted {
            ", INTERRUPTED"
        } else {
            ""
        }
    );
    let width = report.results.iter().map(|r| r.key.len()).max().unwrap_or(8);
    for r in &report.results {
        match &r.outcome {
            spi_auth::ScheduleOutcome::Attack(cex) => println!(
                "  {:<width$}  ATTACK   minimal {} after {} shrink steps, trace length {}",
                r.key,
                show_schedule(&cex.schedule.canonical_key()),
                cex.shrink_steps,
                cex.trace.len(),
            ),
            spi_auth::ScheduleOutcome::Survives { traces_checked } => println!(
                "  {:<width$}  survives ({traces_checked} traces checked)",
                r.key
            ),
            spi_auth::ScheduleOutcome::Inconclusive { reason } => {
                println!("  {:<width$}  INCONCLUSIVE: {reason}", r.key);
            }
        }
    }
    let (attacks, survives, inconclusive) = report.tally();
    println!("summary: {attacks} attacks, {survives} survive, {inconclusive} inconclusive");
    if report.early_rejects > 0 {
        println!(
            "engine: bisim fast path early-rejected {} classification(s), \
             skipping their trace comparisons",
            report.early_rejects
        );
    }
    if let Some((r, cex)) = report.attacks().next() {
        println!(
            "minimal counterexample (schedule {}, found under {}):",
            show_schedule(&cex.schedule.canonical_key()),
            show_schedule(&r.key),
        );
        for line in verifier
            .narrate_counterexample(&concrete, cex)
            .map_err(|e| e.to_string())?
        {
            println!("  {line}");
        }
        println!("  distinguishing trace: {:?}", cex.trace);
    }
    Ok(campaign_code(&report))
}

/// The exit code a campaign maps to, shared by text and JSON output.
fn campaign_code(report: &spi_auth::CampaignReport) -> ExitCode {
    let (attacks, _, inconclusive) = report.tally();
    if attacks > 0 {
        ExitCode::FAILURE
    } else if inconclusive > 0 || report.interrupted {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_explore(args: &[String]) -> Result<ExitCode, String> {
    // An exploration compares no traces, so it reads neither the trace
    // depth nor the decision engine.
    let mut known = job_known(Mode::Verify, &["workers", "timeout-secs", "dot"]);
    known.retain(|flag| !["visible", "engine"].contains(flag));
    let (pos, flags) = split_flags(args, &known)?;
    let [path] = pos.as_slice() else {
        return Err("explore expects one file".into());
    };
    let Ok(p) = parse_file(path)? else {
        return Ok(ExitCode::FAILURE);
    };
    let (_, verifier) = job_verifier(Mode::Verify, &flags)?;
    let lts = verifier.explore(&p).map_err(|e| e.to_string())?;
    println!("{} states, {} edges", lts.stats.states, lts.stats.edges);
    let barbs = lts.weak_barbs();
    if !barbs.is_empty() {
        let shown: Vec<String> = barbs
            .iter()
            .map(|b| format!("{}{}", b.chan, if b.output { "!" } else { "?" }))
            .collect();
        println!("weakly reachable barbs: {}", shown.join(", "));
    }
    if let Some(out) = flag(&flags, "dot") {
        std::fs::write(out, spi_auth::verify::to_dot(&lts))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_narrate(args: &[String]) -> Result<ExitCode, String> {
    let known = job_known(Mode::Verify, &["workers", "timeout-secs"]);
    let (pos, flags) = split_flags(args, &known)?;
    let [path] = pos.as_slice() else {
        return Err("narrate expects one narration file".into());
    };
    let (job, verifier) = job_verifier(Mode::Verify, &flags)?;
    let src = read(path)?;
    let narration = match Narration::parse(&src) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let opts = CompileOptions {
        replicate: job.sessions > 1,
        ..CompileOptions::default()
    };
    let concrete = compile_concrete(&narration, &opts).map_err(|e| e.to_string())?;
    println!("concrete  = {concrete}");
    let spec = compile_abstract(&narration, &opts).map_err(|e| e.to_string())?;
    println!("abstract  = {spec}");
    let report = verifier
        .check(&concrete, &spec)
        .map_err(|e| e.to_string())?;
    Ok(report_verdict(&report.verdict))
}

fn cmd_conformance(args: &[String]) -> Result<ExitCode, String> {
    use spi_auth::conformance::{self, ConformanceOptions, GenSize, Injection, OracleEnv};
    let known = ["seed", "cases", "size", "oracles", "regressions", "unfold", "max-states",
        "inject"];
    let (pos, flags) = split_flags(args, &known)?;
    if !pos.is_empty() {
        return Err(format!("conformance takes no positional arguments, got {pos:?}"));
    }
    let mut opts = ConformanceOptions::new(
        numeric_flag(&flags, "seed", 0u64)?,
        numeric_flag(&flags, "cases", 100u64)?,
    );
    if let Some(size) = flag(&flags, "size") {
        opts.size = GenSize::preset(size)?;
    }
    if let Some(names) = flag(&flags, "oracles") {
        opts.oracles = names
            .split(',')
            .filter(|s| !s.is_empty())
            .map(ToString::to_string)
            .collect();
    }
    if let Some(dir) = flag(&flags, "regressions") {
        opts.regressions_dir = Some(dir.into());
    }
    opts.env = OracleEnv {
        unfold_bound: numeric_flag(&flags, "unfold", 1u32)?,
        max_states: numeric_flag(&flags, "max-states", 4_000usize)?,
        // Deliberately planted bugs, for validating the harness itself.
        injection: flag(&flags, "inject").map(Injection::parse).transpose()?,
    };
    let report = conformance::run_conformance(&opts)?;
    println!("{report}");
    Ok(ExitCode::from(
        u8::try_from(conformance::exit_code(&report)).unwrap_or(1),
    ))
}

/// The front-end flags `spi serve` and `spi fleet` share.
const FRONT_FLAGS: [&str; 8] = ["addr", "workers", "queue", "timeout-secs", "read-deadline-ms",
    "write-buf-bytes", "quota-rate", "quota-burst"];

/// The front-end flags `spi serve` and `spi fleet` share, on top of
/// `defaults`.
fn front_options(
    flags: &[(&str, &str)],
    defaults: spi_auth::server::ServerOptions,
) -> Result<spi_auth::server::ServerOptions, String> {
    let mut opts = defaults;
    if let Some(addr) = flag(flags, "addr") {
        opts.addr = addr.into();
    }
    opts.workers = numeric_flag(flags, "workers", opts.workers)?;
    opts.queue_cap = numeric_flag(flags, "queue", opts.queue_cap)?;
    opts.default_timeout_secs = optional_flag(flags, "timeout-secs")?.or(opts.default_timeout_secs);
    opts.read_deadline_ms = numeric_flag(flags, "read-deadline-ms", opts.read_deadline_ms)?;
    opts.write_buf_bytes = numeric_flag(flags, "write-buf-bytes", opts.write_buf_bytes)?;
    opts.quota_rate = numeric_flag(flags, "quota-rate", opts.quota_rate)?;
    opts.quota_burst = numeric_flag(flags, "quota-burst", opts.quota_burst)?;
    Ok(opts)
}

/// The local engine behind `spi serve` (every job) and `spi fleet`
/// (quorum loss).  Parallelism comes from the request pool by default;
/// each exploration stays single-threaded unless asked otherwise.
fn local_engine(
    flags: &[(&str, &str)],
) -> Result<std::sync::Arc<spi_auth::server::FullEngine>, String> {
    let explore_workers: usize = numeric_flag(flags, "explore-workers", 1)?;
    let engine = spi_auth::server::FullEngine::new(Some(explore_workers.max(1)));
    Ok(std::sync::Arc::new(engine))
}

/// Blocks until a drain trigger: a `shutdown` request over the wire, or
/// stdin closing (the supervisor-friendly stand-in for SIGTERM — run
/// the daemon with a piped stdin and close it to drain).
fn run_until_drained(handle: spi_auth::server::ServerHandle) {
    let drainer = handle.node();
    std::thread::spawn(move || {
        use std::io::Read as _;
        let mut sink = Vec::new();
        let _ = std::io::stdin().lock().read_to_end(&mut sink);
        drainer.shutdown();
    });
    handle.join_on_drain();
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    use spi_auth::server::{serve, ServerOptions};
    let own = ["explore-workers", "cache-bytes", "snapshot", "join", "advertise", "heartbeat-ms"];
    let (pos, flags) = split_flags(args, &[&FRONT_FLAGS[..], &own].concat())?;
    if !pos.is_empty() {
        return Err(format!("serve takes no positional arguments, got {pos:?}"));
    }
    let mut opts = front_options(&flags, ServerOptions::default())?;
    opts.cache_bytes = numeric_flag(&flags, "cache-bytes", opts.cache_bytes)?;
    if let Some(path) = flag(&flags, "snapshot") {
        opts.snapshot = Some(path.into());
    }
    let capacity = opts.capacity();
    let handle = serve(local_engine(&flags)?, opts)?;
    println!("spi-serve: listening on {}", handle.addr());
    let heartbeats = flag(&flags, "join")
        .map(|coordinator| -> Result<_, String> {
            let coordinator = coordinator.to_string();
            // What the coordinator should dial back: defaults to the bound
            // address, overridable when that is not reachable from outside
            // (e.g. bound to 0.0.0.0 behind a specific interface).
            let advertise = flag(&flags, "advertise")
                .map(ToString::to_string)
                .unwrap_or_else(|| handle.addr().to_string());
            let every_ms: u64 = numeric_flag(&flags, "heartbeat-ms", 200)?;
            let cache = handle.node();
            Ok(std::thread::spawn(move || {
                heartbeat_loop(&coordinator, &advertise, capacity, every_ms, &cache);
            }))
        })
        .transpose()?;
    run_until_drained(handle);
    // The heartbeat thread's last act is the `leave` announcement that
    // hands the cache shard to the surviving ring owners — wait for it
    // so a supervisor's kill after drain loses no warm entries.
    if let Some(hb) = heartbeats {
        let _ = hb.join();
    }
    eprintln!("spi-serve: drained");
    Ok(ExitCode::SUCCESS)
}

/// Heartbeats the coordinator until the local server drains.  Each
/// heartbeat announces the worker's `capacity` (pool plus queue), which
/// the coordinator sizes its own pool by.  A `rejoined` acknowledgement (first contact, or first contact after
/// the coordinator lost us) triggers a gossip pull from every listed
/// peer, so a restarted worker's first repeated question is already a
/// cache hit.  On drain, the loop's last act is a `leave`
/// announcement carrying this worker's cache entries: the coordinator
/// removes the node from the ring immediately (no failure-detection
/// lag) and pushes each entry to its new ring owner, so draining then
/// killing the process loses no warm cache entry.
fn heartbeat_loop(
    coordinator: &str,
    advertise: &str,
    capacity: usize,
    every_ms: u64,
    cache: &spi_auth::server::NodeHandle,
) {
    use spi_auth::server::{gossip_body, pull_from, Client};
    use spi_auth::verify::jsonlite::Json;
    let connect = std::time::Duration::from_millis(1000);
    let line = format!(r#"{{"op":"join","addr":"{advertise}","capacity":{capacity}}}"#);
    while !cache.draining() {
        let reply = Client::connect_with(coordinator, Some(connect))
            .and_then(|mut c| c.roundtrip(&line));
        if let Ok(reply) = reply {
            let body = Json::parse(&reply).ok().and_then(|v| v.get("body").cloned());
            let rejoined = body
                .as_ref()
                .and_then(|b| b.get("rejoined").and_then(Json::as_bool))
                == Some(true);
            if rejoined {
                let peers: Vec<String> = body
                    .as_ref()
                    .and_then(|b| b.get("peers").and_then(Json::as_arr))
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|p| p.as_str().map(str::to_owned))
                    .collect();
                for peer in peers {
                    match pull_from(&peer, connect, std::time::Duration::from_secs(30)) {
                        Ok(entries) if !entries.is_empty() => {
                            let n = cache.absorb(entries);
                            eprintln!("spi-serve: warmed {n} cache entries from {peer}");
                        }
                        Ok(_) => {}
                        Err(e) => eprintln!("spi-serve: gossip with {peer} failed: {e}"),
                    }
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(every_ms));
    }
    let entries = cache.cache_entries();
    let leave = Json::Obj(vec![
        ("op".to_string(), Json::str("leave")),
        ("addr".to_string(), Json::str(advertise)),
        ("cache".to_string(), gossip_body(&entries)),
    ])
    .render_compact();
    let announced = Client::connect_with(coordinator, Some(connect)).and_then(|mut c| {
        c.read_timeout(Some(std::time::Duration::from_secs(30)))?;
        c.roundtrip(&leave)
    });
    match announced {
        Ok(reply) => {
            let handed = Json::parse(&reply)
                .ok()
                .and_then(|v| v.get("body")?.get("handed_off")?.as_int())
                .unwrap_or(0);
            eprintln!("spi-serve: announced leave, handed off {handed} cache entries");
        }
        Err(e) => eprintln!("spi-serve: leave announcement failed: {e}"),
    }
}

fn cmd_fleet(args: &[String]) -> Result<ExitCode, String> {
    use spi_auth::server::{coordinate, CoordinatorOptions, ServerOptions};
    let own = ["explore-workers", "quorum", "fail-after-ms", "unit-size", "hedge-ms",
        "connect-timeout", "read-timeout", "retry-rounds", "chaos", "chaos-horizon"];
    let (pos, flags) = split_flags(args, &[&FRONT_FLAGS[..], &own].concat())?;
    if !pos.is_empty() {
        return Err(format!("fleet takes no positional arguments, got {pos:?}"));
    }
    let front = front_options(
        &flags,
        ServerOptions {
            addr: "127.0.0.1:7971".into(),
            ..ServerOptions::default()
        },
    )?;
    let mut opts = CoordinatorOptions::default();
    opts.quorum = numeric_flag(&flags, "quorum", opts.quorum)?;
    opts.fail_after_ms = numeric_flag(&flags, "fail-after-ms", opts.fail_after_ms)?;
    opts.unit_size = numeric_flag(&flags, "unit-size", opts.unit_size)?;
    opts.hedge_after_ms = numeric_flag(&flags, "hedge-ms", opts.hedge_after_ms)?;
    opts.connect_timeout_ms = numeric_flag(&flags, "connect-timeout", opts.connect_timeout_ms)?;
    opts.read_timeout_ms = numeric_flag(&flags, "read-timeout", opts.read_timeout_ms)?;
    opts.retry_rounds = numeric_flag(&flags, "retry-rounds", opts.retry_rounds)?;
    opts.chaos = optional_flag(&flags, "chaos")?.or(opts.chaos);
    opts.chaos_horizon = numeric_flag(&flags, "chaos-horizon", opts.chaos_horizon)?;
    let handle = coordinate(local_engine(&flags)?, front, opts)?;
    println!("spi-fleet: coordinating on {}", handle.addr());
    run_until_drained(handle);
    eprintln!("spi-fleet: drained");
    Ok(ExitCode::SUCCESS)
}

/// Transport settings for [`cmd_client`]: where to dial, how patiently,
/// and what to do when the server stays unreachable.
struct ClientNet {
    addr: String,
    connect_timeout: Option<std::time::Duration>,
    read_timeout: Option<std::time::Duration>,
    retries: usize,
    backoff_ms: u64,
    fallback_local: bool,
}

/// Sends one request line with reconnect-on-failure and exponential
/// backoff, reusing `cached` (an open connection) across calls.
///
/// `{"status":"progress",…}` heartbeat lines go to `on_progress` as
/// they arrive; the returned line is the final answer.  Because the
/// socket read timeout applies per *line*, a heartbeating server
/// resets `--read-timeout` with every progress event — a long
/// campaign that keeps proving liveness is never mistaken for a dead
/// server, while a silent one still times out promptly.
fn client_send(
    net: &ClientNet,
    cached: &mut Option<spi_auth::server::Client>,
    line: &str,
    on_progress: &mut dyn FnMut(&str),
) -> Result<String, String> {
    use spi_auth::server::Client;
    let mut backoff = std::time::Duration::from_millis(net.backoff_ms.max(1));
    let mut last_err = String::new();
    for attempt in 0..=net.retries {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        if cached.is_none() {
            match Client::connect_with(&net.addr, net.connect_timeout) {
                Ok(mut c) => {
                    if let Err(e) = c.read_timeout(net.read_timeout) {
                        last_err = e;
                        continue;
                    }
                    *cached = Some(c);
                }
                Err(e) => {
                    last_err = e;
                    continue;
                }
            }
        }
        match cached
            .as_mut()
            .expect("connected above")
            .roundtrip_streaming(line, &mut *on_progress)
        {
            Ok(response) => return Ok(response),
            Err(e) => {
                // The connection is suspect; reconnect on the retry.
                last_err = e;
                *cached = None;
            }
        }
    }
    Err(last_err)
}

/// Runs a job request on an in-process engine — the client's graceful
/// degradation when the server stays unreachable (`--fallback local`).
/// The response envelope matches the daemon's, marked `"via":"local"`.
fn run_job_locally(line: &str) -> Result<String, String> {
    use spi_auth::server::{
        error_response, job_reply, parse_request, request_op, Engine, FullEngine, Request,
    };
    // A bad request gets the error envelope a server would send.
    let job = match parse_request(line) {
        Ok(Request::Job(job)) => job,
        Ok(_) => return Err("only verify/campaign/replay requests can fall back to local".into()),
        Err(e) => return Ok(error_response(request_op(line), &e).render_compact()),
    };
    let digest = job.digest()?;
    let ctl = RunControl {
        deadline: job
            .timeout_secs
            .map(|s| std::time::Instant::now() + std::time::Duration::from_secs(s)),
        cancel: std::sync::Arc::default(),
        progress: None,
    };
    let outcome = FullEngine::new(Some(1)).run(&job, &ctl);
    job_reply(job.mode.keyword(), &digest, outcome, &ctl, Some("local"))
        .ok_or_else(|| "the local run was cancelled".to_string())
}

/// Adds `"progress_ms":MS` to a job request line (verify, campaign,
/// conformance-replay) that does not already carry one.  Control
/// requests and lines that spell their own interval pass through
/// untouched; `progress_ms` is execution-only, so the injection never
/// changes the request's cache digest.
fn inject_progress(line: &str, ms: u64) -> String {
    use spi_auth::verify::jsonlite::Json;
    let Ok(Json::Obj(mut fields)) = Json::parse(line) else {
        return line.to_string();
    };
    let job = |(k, v): &(String, Json)| {
        k == "op" && matches!(v.as_str(), Some("verify" | "campaign" | "conformance-replay"))
    };
    if !fields.iter().any(job) || fields.iter().any(|(k, _)| k == "progress_ms") {
        return line.to_string();
    }
    fields.push(("progress_ms".to_string(), Json::Int(i64::try_from(ms).unwrap_or(i64::MAX))));
    Json::Obj(fields).render_compact()
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    use spi_auth::verify::jsonlite::Json;
    let known = ["addr", "connect-timeout", "read-timeout", "retries", "backoff-ms", "fallback",
        "progress"];
    let (pos, flags) = split_flags(args, &known)?;
    let net = ClientNet {
        addr: flag(&flags, "addr").unwrap_or("127.0.0.1:7970").to_string(),
        connect_timeout: Some(std::time::Duration::from_millis(
            numeric_flag(&flags, "connect-timeout", 2000u64)?.max(1),
        )),
        read_timeout: match numeric_flag(&flags, "read-timeout", 0u64)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        retries: numeric_flag(&flags, "retries", 2usize)?,
        backoff_ms: numeric_flag(&flags, "backoff-ms", 50)?,
        fallback_local: match flag(&flags, "fallback") {
            None | Some("off") => false,
            Some("local") => true,
            Some(other) => return Err(format!("--fallback expects local|off, got {other:?}")),
        },
    };
    // `--progress MS` subscribes job requests to server heartbeats (a
    // `progress_ms` wire field) and prints each one as it streams in.
    let progress_ms = match numeric_flag(&flags, "progress", 0u64)? {
        0 => None,
        ms => Some(ms),
    };
    let mut cached = None;
    let mut all_ok = true;
    let mut send = |line: &str| -> Result<bool, String> {
        // Bare words are request sugar: `spi client stats` asks for
        // `{"op":"stats"}`.
        let line = if line.trim_start().starts_with('{') {
            line.to_string()
        } else {
            format!(r#"{{"op":"{}"}}"#, line.trim())
        };
        let line = match progress_ms {
            Some(ms) => inject_progress(&line, ms),
            None => line,
        };
        // Beats go to stderr: stdout stays one response line per
        // request, so pipelines parsing it never see a heartbeat.
        let mut on_progress = |beat: &str| {
            if progress_ms.is_some() {
                eprintln!("{beat}");
            }
        };
        let response = match client_send(&net, &mut cached, &line, &mut on_progress) {
            Ok(r) => r,
            Err(e) if net.fallback_local => {
                eprintln!("spi-client: {} unreachable ({e}); running locally", net.addr);
                run_job_locally(&line)?
            }
            Err(e) => return Err(format!("cannot reach {}: {e}", net.addr)),
        };
        println!("{response}");
        Ok(Json::parse(&response)
            .ok()
            .and_then(|v| v.get("status").and_then(Json::as_str).map(str::to_owned))
            .is_some_and(|s| s == "ok"))
    };
    if pos.is_empty() {
        use std::io::BufRead as _;
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
            if line.trim().is_empty() {
                continue;
            }
            all_ok &= send(&line)?;
        }
    } else {
        for line in pos {
            all_ok &= send(line)?;
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_paper(args: &[String]) -> Result<ExitCode, String> {
    let (_, flags) = split_flags(args, &["sessions"])?;
    let sessions: u32 = numeric_flag(&flags, "sessions", 2)?;

    let p1 = propositions::proposition_1().map_err(|e| e.to_string())?;
    println!(
        "Proposition 1: {} observations, all from A: {}",
        p1.observations, p1.all_from_a
    );

    match propositions::counterexample_p1().map_err(|e| e.to_string())? {
        Some(a) => {
            println!("P1 ⋢ P:");
            for l in &a.narration {
                println!("  {l}");
            }
        }
        None => println!("P1 ⋢ P: NOT REPRODUCED"),
    }

    let p2 = propositions::proposition_2().map_err(|e| e.to_string())?;
    println!("Proposition 2: {}", propositions::verdict_line(&p2));

    let p3 = propositions::proposition_3(sessions).map_err(|e| e.to_string())?;
    println!(
        "Proposition 3 ({sessions} sessions): all from A: {}, replay: {}",
        p3.all_from_a, p3.replay_found
    );

    match propositions::counterexample_pm2(sessions).map_err(|e| e.to_string())? {
        Some(a) => {
            println!("Pm2 ⋢ Pm (replay):");
            for l in &a.narration {
                println!("  {l}");
            }
        }
        None => println!("Pm2 ⋢ Pm: NOT REPRODUCED"),
    }

    let p4 = propositions::proposition_4(sessions).map_err(|e| e.to_string())?;
    println!("Proposition 4: {}", propositions::verdict_line(&p4));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn split_flags_separates_positionals() {
        let args = strs(&["a.spi", "--sessions", "3", "b.spi", "--chan", "net"]);
        let (pos, flags) = split_flags(&args, &["sessions", "chan"]).unwrap();
        assert_eq!(pos, vec!["a.spi", "b.spi"]);
        assert_eq!(flags, vec![("sessions", "3"), ("chan", "net")]);
    }

    #[test]
    fn split_flags_rejects_dangling_flags() {
        let err = split_flags(&strs(&["--sessions"]), &["sessions"]).unwrap_err();
        assert!(err.contains("--sessions"));
    }

    #[test]
    fn numeric_flag_parses_and_defaults() {
        let flags = vec![("sessions", "3")];
        assert_eq!(numeric_flag(&flags, "sessions", 2u32).unwrap(), 3);
        assert_eq!(numeric_flag(&flags, "visible", 6usize).unwrap(), 6);
        assert!(numeric_flag(&flags, "sessions", 2i64).is_ok());
        let bad = vec![("sessions", "many")];
        assert!(numeric_flag(&bad, "sessions", 2u32).is_err());
    }

    #[test]
    fn flag_takes_the_last_occurrence() {
        let flags = vec![("chan", "a"), ("chan", "b")];
        assert_eq!(flag(&flags, "chan"), Some("b"));
        assert_eq!(flag(&flags, "missing"), None);
    }

    #[test]
    fn unknown_commands_error() {
        assert!(run(&strs(&["frobnicate"])).is_err());
    }

    #[test]
    fn misspelled_and_retired_flags_are_usage_errors() {
        // A misspelling must not run silently with the default.
        let err = run(&strs(&["verify", "a.spi", "b.spi", "--sesions", "3"])).unwrap_err();
        assert!(err.contains("unknown flag --sesions"), "{err}");
        assert!(err.contains("--sessions"), "the error lists the known flags: {err}");
        // The state cap is spelled `--budget states=N`.
        for cmd in ["verify", "campaign", "narrate"] {
            let args = strs(&[cmd, "a.spi", "b.spi", "--max-states", "10"]);
            assert!(run(&args).unwrap_err().contains("unknown flag --max-states"));
        }
        let err = run(&strs(&["explore", "a.spi", "--max-states", "10"])).unwrap_err();
        assert!(err.contains("unknown flag --max-states"), "{err}");
        // A campaign-only option is not a verify flag.
        let err = run(&strs(&["verify", "a.spi", "b.spi", "--faults-depth", "3"])).unwrap_err();
        assert!(err.contains("unknown flag --faults-depth"), "{err}");
        // The coordinator judges staleness when it consults membership.
        let err = run(&strs(&["fleet", "--heartbeat-ms", "50"])).unwrap_err();
        assert!(err.contains("unknown flag --heartbeat-ms"), "{err}");
    }

    /// The verifier `spi serve` builds for a wire request line.
    fn wire_verifier(line: &str) -> Verifier {
        let Ok(spi_auth::server::Request::Job(job)) = spi_auth::server::parse_request(line) else {
            panic!("{line} is a job");
        };
        let ctl = RunControl {
            deadline: None,
            cancel: std::sync::Arc::default(),
            progress: None,
        };
        VerifierEngine::default().build_verifier(&job, &ctl)
    }

    #[test]
    fn the_cli_and_the_wire_build_the_same_verifier() {
        // No options at all: one set of defaults.
        let (_, cli) = job_verifier(Mode::Verify, &[]).unwrap();
        let wire = wire_verifier(r#"{"op":"verify","concrete":"0","abstract":"0"}"#);
        assert_eq!(format!("{cli:?}"), format!("{wire:?}"));
        // A budget pair overlays the same default on both paths.
        let flags = [("sessions", "4"), ("budget", "fuel=100000000"), ("chan", "c"), ("chan", "d")];
        let (_, cli) = job_verifier(Mode::Verify, &flags).unwrap();
        let wire = wire_verifier(
            r#"{"op":"verify","concrete":"0","abstract":"0","sessions":4,"budget":"fuel=100000000","channels":["c","d"]}"#,
        );
        assert_eq!(format!("{cli:?}"), format!("{wire:?}"));
    }

    #[test]
    fn job_verifier_defaults_to_channel_c() {
        let (job, _) = job_verifier(Mode::Verify, &[]).unwrap();
        assert_eq!(job.channels, ["c"]);
    }

    #[test]
    fn budget_flag_overlays_the_default() {
        let (job, _) = job_verifier(Mode::Verify, &[("budget", "fuel=20,steps=30")]).unwrap();
        assert_eq!(job.budget.max_states, spi_auth::Budget::default().max_states);
        assert_eq!(job.budget.max_fuel, 20);
        assert_eq!(job.budget.deadline_steps, 30);
        for bad in ["states=x", "bogus=1", "states"] {
            let err = job_verifier(Mode::Verify, &[("budget", bad)]).unwrap_err();
            assert!(err.starts_with("--budget "), "{err}");
        }
    }

    #[test]
    fn fault_and_intruder_flags_build() {
        assert!(job_verifier(Mode::Verify, &[("fault", "duplicate:c:1")]).is_ok());
        assert!(job_verifier(Mode::Verify, &[("fault", "mangle:c")]).is_err());
        assert!(job_verifier(Mode::Verify, &[("intruder", "off")]).is_ok());
        assert!(job_verifier(Mode::Verify, &[("intruder", "sometimes")]).is_err());
    }
}
