//! Golden-file tests for `--format json` and `spi explore --dot`.
//!
//! The CLI's JSON output is the daemon's response-body encoding
//! (`spi_auth::server::{verify_body, campaign_body}`); these tests pin
//! the exact rendered shape so accidental schema drift fails loudly.
//! The `--dot` goldens pin a whole explored system as drawn: state
//! numbering, barbs, edge order, observations, and which silent edges
//! are intruder moves.  Regenerate the goldens with `BLESS=1 cargo test
//! -p spi-auth --test json_golden` after an intentional change.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn run_spi(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_spi"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spi runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e} (regenerate with BLESS=1)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file (BLESS=1 regenerates)"
    );
}

#[test]
fn verify_json_output_matches_golden() {
    let (stdout, code) = run_spi(&[
        "verify",
        "examples/protocols/pm2.spi",
        "examples/protocols/pm.spi",
        "--sessions",
        "2",
        "--workers",
        "1",
        "--format",
        "json",
    ]);
    assert_eq!(code, 1, "pm2 against pm is the paper's replay attack");
    check_golden("verify_pm2.json", &stdout);
}

#[test]
fn campaign_json_output_matches_golden() {
    let dir = std::env::temp_dir().join(format!("spi-json-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("p.spi");
    std::fs::write(&spec, "(^m)c<m>|c(x).observe<x>").expect("write spec");
    let spec = spec.to_str().expect("utf-8 path");
    let (stdout, code) = run_spi(&[
        "campaign",
        spec,
        spec,
        "--sessions",
        "1",
        "--workers",
        "1",
        "--faults-depth",
        "1",
        "--format",
        "json",
    ]);
    assert_eq!(code, 0, "the tiny protocol survives every depth-1 schedule");
    check_golden("campaign_tiny.json", &stdout);
}

#[test]
fn explore_dot_output_matches_golden() {
    let dir = std::env::temp_dir().join(format!("spi-dot-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases = [
        // The faulty network alone: fault edges are plain silent steps.
        (
            "explore_pm2_duplicate.dot",
            "--sessions 2 --intruder off --fault duplicate:c:1",
        ),
        // One session under the intruder: intercepts and injections
        // are drawn dashed.
        ("explore_pm2_intruder.dot", "--sessions 1"),
    ];
    for (name, flags) in cases {
        let out = dir.join(name);
        let out = out.to_str().expect("utf-8 path");
        let mut args = vec!["explore", "examples/protocols/pm2.spi", "--workers", "1"];
        args.extend(flags.split_whitespace());
        args.extend(["--dot", out]);
        let (_, code) = run_spi(&args);
        assert_eq!(code, 0, "{name}");
        check_golden(name, &std::fs::read_to_string(out).expect("dot written"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
