//! End-to-end CLI coverage of the run ledger: `mossim --save`,
//! `history`, `diff`, `dashboard`, the schema of `rvdiff --json`, and
//! usage errors for out-of-range flags.
//!
//! All ledger state lives in a per-test temp directory passed via
//! `--ledger-dir`, so these tests never touch `results/ledger/`.

use std::path::PathBuf;
use std::process::Command;

use mopsched::ledger::json;

fn mossim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mossim"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mos_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "command failed:\n{stdout}\n{stderr}");
    (stdout, stderr)
}

fn save_once(ledger: &std::path::Path) -> String {
    let (_, err) = run_ok(mossim().args([
        "--bench",
        "gzip",
        "--sched",
        "mop-wor",
        "--insts",
        "5000",
        "--save",
        "--ledger-dir",
        ledger.to_str().unwrap(),
    ]));
    assert!(err.contains("ledger: saved"), "no save confirmation: {err}");
    err
}

#[test]
fn save_history_diff_dashboard_pipeline() {
    let dir = temp_dir("pipeline");
    let ledger = dir.join("ledger");

    // Two saves of the same (program, config, code): the acceptance
    // criterion is that their diff reports zero sim-side deltas.
    save_once(&ledger);
    save_once(&ledger);

    let (history, _) = run_ok(mossim().args([
        "history",
        "--ledger-dir",
        ledger.to_str().unwrap(),
    ]));
    assert!(history.contains("| gzip | mop-wor | 5000 |"), "{history}");
    assert_eq!(
        history.matches("| run |").count(),
        2,
        "both saves indexed: {history}"
    );

    // history filters: a non-matching bench hides both rows.
    let (filtered, _) = run_ok(mossim().args([
        "history",
        "--bench",
        "gap",
        "--ledger-dir",
        ledger.to_str().unwrap(),
    ]));
    assert!(filtered.contains("no matching archived runs"), "{filtered}");

    let (diff_md, _) = run_ok(mossim().args([
        "diff",
        "latest-1",
        "latest",
        "--ledger-dir",
        ledger.to_str().unwrap(),
    ]));
    assert!(
        diff_md.contains("Verdict: sim-identical"),
        "same config twice must be sim-identical:\n{diff_md}"
    );
    assert!(diff_md.contains("## Differential CPI stack"), "{diff_md}");
    assert!(diff_md.contains("Host throughput (advisory"), "{diff_md}");

    let dash_path = dir.join("dash.html");
    run_ok(mossim().args([
        "dashboard",
        "--ledger-dir",
        ledger.to_str().unwrap(),
        "--history",
        dir.join("no_such_history.jsonl").to_str().unwrap(),
        "--html",
        "--out",
        dash_path.to_str().unwrap(),
    ]));
    let dash = std::fs::read_to_string(&dash_path).unwrap();
    assert!(dash.starts_with("<!DOCTYPE html>"), "{dash}");
    assert!(dash.contains("mopsched regression dashboard"));
    assert!(dash.contains("2 archived save(s)"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_rejects_bad_specs() {
    let dir = temp_dir("badspec");
    let ledger = dir.join("ledger");
    save_once(&ledger);
    let out = mossim()
        .args(["diff", "latest-5", "latest", "--ledger-dir", ledger.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "latest-5 must fail with one save");
    let out = mossim()
        .args(["diff", "zz", "latest", "--ledger-dir", ledger.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "non-hex prefix must fail");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_flags_are_usage_errors() {
    for (args, msg) in [
        (
            ["--bench", "gzip", "--sched", "mop-wor", "--stages", "7"].as_slice(),
            "--stages must be in 0..2, got 7",
        ),
        (["--bench", "gzip", "--insts", "0"].as_slice(), "--insts must be at least 1"),
    ] {
        let out = mossim().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: missing `{msg}` in {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run a simulation");
    }
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for args in [["--help"].as_slice(), &["-h"], &["trace", "--help"]] {
        let out = mossim().args(args).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?} must exit 0");
        assert!(stdout.starts_with("usage: mossim"), "{args:?}: {stdout}");
        for flag in [
            "--sched KIND",
            "--insts N",
            "--rv PROG",
            "--compare A,B",
            "--save",
        ] {
            assert!(stdout.contains(flag), "{args:?}: usage lacks `{flag}`");
        }
        assert!(out.stderr.is_empty(), "{args:?}: help is not an error");
    }
    // An unknown flag stays a usage error that points at --help.
    let out = mossim().arg("--no-such-flag").output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--no-such-flag`"), "{stderr}");
    assert!(stderr.contains("mossim --help"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn rvdiff_json_report_matches_the_schema() {
    let dir = temp_dir("rvdiff");
    let json_path = dir.join("rvdiff.json");
    run_ok(mossim().args([
        "rvdiff",
        "--rv",
        "gcd",
        "--json",
        json_path.to_str().unwrap(),
    ]));
    let doc = json::parse(&std::fs::read_to_string(&json_path).unwrap()).expect("valid JSON");

    assert_eq!(doc.get("schema").and_then(json::Value::as_u64), Some(1));
    assert_eq!(doc.get("programs").and_then(json::Value::as_u64), Some(1));
    assert_eq!(doc.get("schedulers").and_then(json::Value::as_u64), Some(7));
    assert_eq!(doc.get("failures").and_then(json::Value::as_u64), Some(0));

    let results = doc.get("results").and_then(json::Value::as_arr).unwrap();
    assert_eq!(results.len(), 7, "one row per scheduler");
    for r in results {
        assert_eq!(r.get("program").and_then(json::Value::as_str), Some("gcd"));
        assert!(r.get("sched").and_then(json::Value::as_str).is_some());
        assert_eq!(r.get("pass"), Some(&json::Value::Bool(true)));
        // A passing row carries the full metric set.
        for field in [
            "rv_retired",
            "uops_committed",
            "cycles",
            "ipc",
            "fusion_rate",
            "sched_loop_share",
        ] {
            assert!(
                r.get(field).and_then(json::Value::as_num).is_some(),
                "missing {field}"
            );
        }
        let share = r.get("sched_loop_share").and_then(json::Value::as_num).unwrap();
        assert!((0.0..=1.0).contains(&share), "share out of range: {share}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
