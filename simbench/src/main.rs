//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload's jobs, prints one human line per job, then (traced
//! runs) the per-layer table, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics; traced runs report the per-layer metrics and
//! write the span file under `out/` in this package's directory.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use simbench::spans::{parse_jsonl, Tracer};
use simbench::{jobs, layer_replays, layers, run_jobs, sweep_jobs, Settings, Workload};

struct Args {
    set: Settings,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    format!(
                        "unknown workload `{v}` (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(val()?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        set: Settings {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
        trace,
        out_dir,
    })
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::new();
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!("{{{out}}}")
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("simbench: refusing to run a debug build (it auto-attaches the oracle and slot accounting); use --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set = &args.set;
    let mut tr = Tracer::new(args.trace);
    let mut all = jobs(set.workload, set.seed);
    if args.trace {
        all.extend(sweep_jobs(set.workload, set.seed));
    }
    let res = run_jobs(set, &all, &mut tr);
    for j in &res.jobs {
        let secs = j.timed_ns as f64 / 1e9;
        let sum = j.log.sum();
        println!(
            "job {:<20} setup {:.3} s  timed {:.2} s  {:>9.0} commits/s  chunks {:>4} p50 {:.2} p99 {:.2} ms  window ipc {:.4}  digest {:016x}  {}{}",
            j.name,
            simbench::median(&j.setup_s),
            secs,
            simbench::ratio(sum.1 as f64 * 1e9, sum.0 as f64),
            j.log.len(),
            j.log.percentile_ms(0.5),
            j.log.percentile_ms(0.99),
            simbench::ratio(
                (j.window.committed - j.warm.committed) as f64,
                (j.window.cycles - j.warm.cycles) as f64
            ),
            j.digest,
            if j.sweep { "sweep " } else { "" },
            j.failure.as_deref().map_or("ok".to_string(), |f| format!("FAILED: {f}")),
        );
    }
    let mut failed = res.failed();
    let mut attempted = res.attempted();
    let metrics = if args.trace {
        attempted += 1;
        if let Err(e) = layer_replays(set, &mut tr, all.len() as u64) {
            println!("layer replays FAILED: {e}");
            failed += 1;
        }
        let name = format!("spans-{}-{}.jsonl", set.workload.name(), set.seed);
        let path = args.out_dir.join(name);
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
            .and_then(|()| std::fs::read_to_string(&path));
        let records = match written
            .map_err(|e| e.to_string())
            .and_then(|t| parse_jsonl(&t))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("simbench: span file {}: {e}", path.display());
                return ExitCode::from(1);
            }
        };
        let table = layers::table(&records);
        let mut md =
            String::from("| layer metric | value | unit | should move |\n|---|---|---|---|\n");
        for ((name, v, unit), (_, _, moves)) in table.iter().zip(layers::PER_LAYER) {
            let _ = writeln!(md, "| {name} | {v:.4} | {unit} | {moves} |");
        }
        let g = layers::gap_split(&records);
        let _ = writeln!(
            md,
            "\nmop-wor minus base: {:.1} ns/commit = queue {:.1} + detect {:.1} + unexplained {:.1} \
             (formation, pointer store and the rest of `step`, which no outside replay isolates)",
            g.total,
            g.queue,
            g.detect,
            g.unexplained()
        );
        let md_path = args
            .out_dir
            .join(format!("layers-{}-{}.md", set.workload.name(), set.seed));
        if let Err(e) = std::fs::write(&md_path, &md) {
            eprintln!("simbench: {}: {e}", md_path.display());
            return ExitCode::from(1);
        }
        print!("{md}");
        println!("spans: {} ({} records)", path.display(), records.len());
        table
    } else {
        let (n, p) = res.chunk_samples();
        println!(
            "chunk_ms: chunks of {} commits, >= {n} per job; chunk_ms_p50/p99 are each job's p50 and p{:.0} \
             (>= 10 samples beyond it), geometric mean over jobs",
            set.workload.params().chunk,
            p * 100.0
        );
        let e2e = res.end_to_end();
        for (name, v, unit) in &e2e {
            println!("{name:<14} {v:>14.4} {unit}");
        }
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
