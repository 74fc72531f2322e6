//! End-to-end tests of the `spi` binary.

use std::io::Write as _;
use std::process::Command;

fn spi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spi"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("spi-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const P2: &str = "(^kAB)((^m) c<{m}kAB> | c(z).case z of {w}kAB in observe<w>)\n";
const P1: &str = "(^m) c<m> | c(z).observe<z>\n";
const P_ABS: &str = "(^s)(s<s>.(^m)c<m> | s@lamB(x_s).c@lamB(z).observe<z>)\n";
const PM2: &str = "(^kAB)(!(^m)c<{m}kAB> | !c(z).case z of {w}kAB in observe<w>)\n";
const PM3: &str =
    "(^kAB)(!(^m)c(ns).c<{m, ns}kAB> | !(^nb)c<nb>.c(x).case x of {z, w}kAB in [w = nb]observe<z>)\n";
const PM_ABS: &str = "(^s)(!s<s>.(^m)c<m> | !s@lamB(x_s).c@lamB(z).observe<z>)\n";

#[test]
fn parse_round_trips_and_reports_free_names() {
    let file = write_temp("p2.spi", P2);
    let out = spi().arg("parse").arg(&file).output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("case z of"));
    assert!(stdout.contains("free names: c, observe"));
}

#[test]
fn parse_renders_diagnostics_on_bad_input() {
    let file = write_temp("bad.spi", "c<m\n");
    let out = spi().arg("parse").arg(&file).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("expected"), "{stderr}");
    assert!(stderr.contains('^'), "a caret diagnostic: {stderr}");
}

#[test]
fn run_narrates_and_lists_barbs() {
    let file = write_temp("run.spi", P2);
    let out = spi().arg("run").arg(&file).output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Message 1"));
    assert!(stdout.contains("barbs: observe!"));
}

#[test]
fn verify_distinguishes_good_from_bad() {
    let concrete = write_temp("v_p2.spi", P2);
    let abstract_ = write_temp("v_p.spi", P_ABS);
    let bad = write_temp("v_p1.spi", P1);

    let out = spi()
        .args(["verify"])
        .arg(&concrete)
        .arg(&abstract_)
        .args(["--sessions", "1"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "P2 verifies");
    assert!(String::from_utf8_lossy(&out.stdout).contains("securely implements"));

    let out = spi()
        .args(["verify"])
        .arg(&bad)
        .arg(&abstract_)
        .args(["--sessions", "1"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "an attack exits 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ATTACK"));
    assert!(stdout.contains("E pretending to be A"), "{stdout}");
}

#[test]
fn explore_writes_dot_files() {
    let file = write_temp("e.spi", P2);
    let dot = std::env::temp_dir().join("spi-cli-tests").join("e.dot");
    let out = spi()
        .arg("explore")
        .arg(&file)
        .arg("--dot")
        .arg(&dot)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let contents = std::fs::read_to_string(&dot).expect("dot written");
    assert!(contents.starts_with("digraph lts {"));
}

#[test]
fn explore_refuses_flags_it_does_not_read() {
    let file = write_temp("pm2-explore.spi", PM2);
    let out = spi().arg("explore").arg(&file).args(["--sessions", "1"]).output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("15 states, 24 edges"));
    for (flag, value) in [("--visible", "1"), ("--engine", "bisim")] {
        let out = spi().arg("explore").arg(&file).args([flag, value]).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag} is refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

#[test]
fn program_files_are_accepted_everywhere() {
    let prog = write_temp(
        "prog.spi",
        "def A = (^m) c<{m}kAB>\n\
         def B = c(z).case z of {w}kAB in observe<w>\n\
         system (^kAB)($A | $B)\n",
    );
    let out = spi().arg("run").arg(&prog).output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("barbs: observe!"));
}

#[test]
fn narrate_compiles_and_verifies() {
    let nar = write_temp(
        "cr.nar",
        "protocol cr\nroles A, B\nshare A B : kab\nfresh A : m\nfresh B : nb\n\
         1. B -> A : nb\n2. A -> B : {m, nb}kab\nclaim B authenticates m from A\n",
    );
    let out = spi()
        .arg("narrate")
        .arg(&nar)
        .args(["--sessions", "2"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("securely implements"));
}

#[test]
fn campaign_finds_and_shrinks_the_replay() {
    let concrete = write_temp("camp_pm2.spi", PM2);
    let abstract_ = write_temp("camp_pm.spi", PM_ABS);
    let out = spi()
        .arg("campaign")
        .arg(&concrete)
        .arg(&abstract_)
        .args(["--faults-depth", "2", "--intruder", "off"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "attacks exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("14 schedules"), "{stdout}");
    assert!(
        stdout.contains("minimal replay:c:1@1 after 1 shrink steps"),
        "padded schedules shrink to the bare replay: {stdout}"
    );
    assert!(stdout.contains("minimal counterexample"), "{stdout}");
    assert!(stdout.contains("distinguishing trace"), "{stdout}");
    assert!(stdout.contains("0 inconclusive"), "{stdout}");
}

#[test]
fn campaign_passes_surviving_protocols() {
    let concrete = write_temp("camp_pm3.spi", PM3);
    let abstract_ = write_temp("camp_pm_b.spi", PM_ABS);
    let out = spi()
        .arg("campaign")
        .arg(&concrete)
        .arg(&abstract_)
        .args(["--faults-depth", "1", "--intruder", "off"])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 survive"), "{stdout}");
}

#[test]
fn campaign_checkpoints_resume_to_the_same_summary() {
    let concrete = write_temp("camp_r_pm2.spi", PM2);
    let abstract_ = write_temp("camp_r_pm.spi", PM_ABS);
    let ckpt = std::env::temp_dir()
        .join("spi-cli-tests")
        .join("campaign-resume.json");
    let _ = std::fs::remove_file(&ckpt);
    let base = || {
        let mut cmd = spi();
        cmd.arg("campaign")
            .arg(&concrete)
            .arg(&abstract_)
            .args(["--faults-depth", "2", "--intruder", "off"]);
        cmd
    };

    let partial = base()
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--checkpoint-every", "1", "--stop-after", "5"])
        .output()
        .expect("runs");
    let partial_out = String::from_utf8_lossy(&partial.stdout);
    assert!(partial_out.contains("INTERRUPTED"), "{partial_out}");
    assert!(ckpt.exists(), "checkpoint written");

    let resumed = base()
        .args(["--resume", ckpt.to_str().unwrap()])
        .output()
        .expect("runs");
    let resumed_out = String::from_utf8_lossy(&resumed.stdout);
    assert!(resumed_out.contains("(5 resumed, 9 fresh)"), "{resumed_out}");

    let full = base().output().expect("runs");
    let full_out = String::from_utf8_lossy(&full.stdout);
    assert_eq!(resumed.status.code(), full.status.code());
    // Identical per-schedule tables and summaries (the header line
    // differs only in its resumed/fresh counts).
    let table = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("resumed"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(table(&resumed_out), table(&full_out));
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn fault_flag_accepts_comma_separated_schedules() {
    let concrete = write_temp("multi_fault_pm2.spi", PM2);
    let abstract_ = write_temp("multi_fault_pm.spi", PM_ABS);
    // One --fault flag carrying a whole two-clause schedule.
    let out = spi()
        .arg("verify")
        .arg(&concrete)
        .arg(&abstract_)
        .args(["--intruder", "off", "--fault", "drop:c:1,duplicate:c:1"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "the duplicate half still bites");
    assert!(String::from_utf8_lossy(&out.stdout).contains("ATTACK"));
    // Malformed clauses inside the list are still rejected, and the error
    // names the offending clause and lists valid kinds and channels.
    let out = spi()
        .arg("verify")
        .arg(&concrete)
        .arg(&abstract_)
        .args(["--fault", "drop:c,mangle:c"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("clause 2 of 2"), "{err}");
    assert!(err.contains("`mangle:c`"), "{err}");
    assert!(err.contains("unknown fault kind `mangle`"), "{err}");
    assert!(
        err.contains("drop, duplicate, reorder, replay"),
        "{err} should list the valid kinds"
    );
    assert!(err.contains("channels in C: c"), "{err}");
    // A well-formed clause on a channel outside C is caught with a hint.
    let out = spi()
        .arg("verify")
        .arg(&concrete)
        .arg(&abstract_)
        .args(["--fault", "drop:d"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("channel `d` is not in C"), "{err}");
    assert!(err.contains("add --chan d"), "{err}");
}

#[test]
fn usage_errors_exit_2() {
    let out = spi().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = spi().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn conformance_refuses_an_injection_its_oracles_would_not_plant() {
    for (oracles, inject) in [("cowstate", "sym-no-perm"), ("roundtrip", "truncate-keys:2")] {
        let out = spi()
            .args(["conformance", "--cases", "1", "--oracles", oracles, "--inject", inject])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{oracles} with {inject}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("which is not selected"), "{err}");
        assert!(out.stdout.is_empty(), "no report for a refused run");
    }
}

#[test]
fn a_closed_stdout_keeps_the_exit_code_and_never_panics() {
    // `spi … | head -c N`: the reader takes N bytes and goes away.  At
    // N = 0 the pipe is closed before the command writes anything, so
    // its first line already meets a closed pipe; at N = 1 the rest of
    // the output does, unless it was all written first.
    use std::io::Read as _;
    use std::process::Stdio;
    let pm2 = write_temp("pipe_pm2.spi", PM2);
    let pm = write_temp("pipe_pm.spi", PM_ABS);
    let (pm2, pm) = (pm2.to_str().unwrap(), pm.to_str().unwrap());
    let cases = [
        (vec!["paper", "--sessions", "1"], 0),
        (vec!["verify", pm2, pm, "--sessions", "2"], 1),
        (
            vec![
                "campaign",
                pm2,
                pm,
                "--sessions",
                "2",
                "--intruder",
                "off",
                "--faults-depth",
                "1",
            ],
            1,
        ),
        (vec!["explore", pm2, "--sessions", "2"], 0),
    ];
    for (args, code) in cases {
        for read in [0, 1] {
            let mut child = spi()
                .args(&args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("runs");
            let mut stdout = child.stdout.take().expect("piped");
            let mut first = vec![0u8; read];
            stdout.read_exact(&mut first).expect("the first bytes");
            drop(stdout);
            let out = child.wait_with_output().expect("exits");
            let err = String::from_utf8_lossy(&out.stderr);
            let why = format!("{args:?} after {read} bytes: {err}");
            assert_eq!(out.status.code(), Some(code), "{why}");
            assert!(!err.contains("panicked"), "{why}");
            assert!(!err.contains("Broken pipe"), "{why}");
        }
    }
}
