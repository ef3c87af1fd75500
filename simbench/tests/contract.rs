//! The benchmark's own contract: every metric is emitted with a unit,
//! `BENCHMARK.json` lists exactly what is emitted, the digest check
//! bites on a perturbed machine, and a held-out seed runs clean.
//!
//! Run with `cargo test --release`: the benchmark binary refuses debug
//! builds, and the library tests simulate hundreds of thousands of
//! commits.

use std::process::Command;

use simbench::layers::PER_LAYER;
use simbench::spans::Tracer;
use simbench::{jobs, run_job, Job, Settings, Workload, DEFAULT_SEED};

const E2E: [&str; 7] = [
    "commits_per_s",
    "cycles_per_s",
    "chunk_ms_p50",
    "chunk_ms_p99",
    "setup_s",
    "peak_rss_mb",
    "sim_ipc",
];

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Run the binary; returns (exit code, last stdout line).
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(args)
        .arg("--out-dir")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    (
        out.status.code(),
        stdout.lines().last().unwrap_or("").to_string(),
    )
}

/// `"name": {"value": <number>, "unit": "<unit>"}` entries of a result line.
fn metrics_of(line: &str) -> Vec<(String, String)> {
    let body = line.split("\"metrics\": {").nth(1).expect("metrics object");
    body.split("}, \"")
        .map(|entry| {
            let name = entry
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .unwrap_or("");
            (name, unit.to_string())
        })
        .collect()
}

#[test]
fn short_run_emits_every_metric_with_a_unit() {
    let (code, last) = run(&[
        "--workload",
        "memory_bound",
        "--seed",
        "5",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    if cfg!(debug_assertions) {
        assert_eq!(code, Some(2), "a debug build must refuse to run");
        assert!(!last.starts_with('{'), "a refused run prints no result");
        return;
    }
    assert_eq!(code, Some(0));
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "),
        "{last}"
    );
    let got = metrics_of(&last);
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, E2E);
    assert!(got.iter().all(|(_, u)| !u.is_empty()), "{got:?}");

    let (code, last) = run(&[
        "--workload",
        "memory_bound",
        "--seed",
        "5",
        "--seconds",
        "0",
        "--trace",
        "1",
    ]);
    assert_eq!(code, Some(0));
    assert!(last.contains("\"correct\": true"), "{last}");
    let got = metrics_of(&last);
    let want: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "loop_bound",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "loop_bound",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "loop_bound", "--seed", "1"],
    ] {
        let (code, last) = run(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(!last.starts_with('{'), "{args:?} printed a result");
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_emits() {
    let json = benchmark_json();
    let named = |n: &str| json.contains(&format!("\"name\": \"{n}\""));
    for n in E2E {
        assert!(
            named(n),
            "end-to-end metric {n} missing from BENCHMARK.json"
        );
    }
    for (n, u, _) in PER_LAYER {
        assert!(named(n), "per-layer metric {n} missing from BENCHMARK.json");
        assert!(
            json.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
            "{n}: unit {u}"
        );
    }
    // The workloads of record are a subset of what the benchmark can run.
    let workloads = Workload::ALL.iter().filter(|w| named(w.name())).count();
    assert!(
        workloads >= 2,
        "BENCHMARK.json must list at least two workloads"
    );
    let listed = json.matches("\"name\": ").count();
    assert_eq!(
        listed,
        E2E.len() + PER_LAYER.len() + workloads,
        "BENCHMARK.json lists names the benchmark does not know"
    );
}

fn run_one(w: Workload, seed: u64, job: &Job) -> simbench::JobResult {
    let set = Settings {
        workload: w,
        seed,
        seconds: 0.0,
    };
    run_job(&set, job, &mut Tracer::new(false))
}

#[test]
fn perturbed_machine_fails_the_digest_check() {
    let w = Workload::LoopBound;
    let job = jobs(w, DEFAULT_SEED)
        .into_iter()
        .next()
        .expect("loop_bound has jobs");
    let clean = run_one(w, DEFAULT_SEED, &job);
    assert_eq!(clean.failure, None, "{}", clean.name);

    let mut smaller = job.clone();
    smaller.cfg.sched.queue_entries = Some(24);
    let res = run_one(w, DEFAULT_SEED, &smaller);
    let why = res
        .failure
        .expect("a 24-entry queue must not match the 32-entry pin");
    assert!(why.contains("pinned"), "{why}");
}

#[test]
fn held_out_seed_runs_clean() {
    let seed = 0x5eed_0ff5;
    for w in Workload::ALL {
        let job = jobs(w, seed)
            .into_iter()
            .next()
            .expect("every workload has jobs");
        let res = run_one(w, seed, &job);
        assert_eq!(res.failure, None, "{} {}", w.name(), res.name);
        assert!(res.log.len() as u64 >= w.params().window_chunks);
    }
}
