//! Steady-state host-throughput benchmark for the mopsched simulator.
//!
//! One closed loop, one client, one thread: the jobs of a workload run one
//! after another, one `Simulator` at a time. Each job builds its input
//! from the seed, warms up for an untimed commit budget (modelled caches,
//! pointer store and host caches all warm), then is timed in fixed-size
//! commit chunks by calling `Simulator::run(target)` with a growing
//! `target` until its share of the run's seconds is spent. Every job's
//! output is checked; a mismatch fails the job, it never crashes the run.
//!
//! A traced run (`--trace 1`) records a span around every call the
//! benchmark makes into a layer's public API, replays the job's recorded
//! stream through single layers, writes the spans to a JSONL file and
//! computes the per-layer table from that file. See `README.md`.

pub mod layers;
pub mod replay;
pub mod rvgen;
pub mod spans;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mos_isa::{DynInst, Program, TraceSource};
use mos_rv::{RvInterp, RvProgram, RvTraceSource};
use mos_sim::{MachineConfig, OracleMode, RingSink, SimStats, Simulator};
use mos_workload::{spec2000, SynthTrace};

use rvgen::GenProgram;
use spans::Tracer;

/// The seed whose synthetic-job digests are pinned in `pinned_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Program seed of the synthetic models: the calibrated instance every
/// experiment runs (`mos_experiments::runner::SEED`). The benchmark seed
/// drives the committed-path walk over it.
pub const MODEL_SEED: u64 = 42;

/// The seven scheduler kinds, by the CLI labels `mos_rv::config_for` takes.
pub const KINDS: [&str; 7] = mos_rv::SCHED_KINDS;

/// Pinned `SimStats` digests of the default seed's synthetic jobs:
/// `<workload> <job> <digest>` per line.
const PINNED: &str = include_str!("../pinned_digests.txt");

/// Event-ring capacity of observed runs (what `mossim trace` keeps).
const EVENT_RING: usize = 4096;

/// Metrics interval of observed runs (the `mossim report` default).
const METRICS_INTERVAL: u64 = 10_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// gzip and gap models under all seven kinds, observers off.
    LoopBound,
    /// The mcf model under base, mop-wor and sf-scoreboard, observers off.
    MemoryBound,
    /// Generated RV32 programs under base, 2cycle and mop-wor, every
    /// observer on, each job checked by the functional differential.
    RvChecked,
}

/// Commit budgets of one workload's jobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Untimed warm-up commits.
    pub warmup: u64,
    /// Commits per timed chunk.
    pub chunk: u64,
    /// Chunks every job runs whatever its time share: the measurement
    /// window that `sim_ipc`, the digests and the exact counts cover.
    pub window_chunks: u64,
}

/// Committed-stream length the layer replays record.
pub const REPLAY_INSTS: usize = 200_000;

impl Workload {
    /// Every workload the benchmark runs (`BENCHMARK.json` lists the first
    /// two as the workloads of record).
    pub const ALL: [Workload; 3] = [
        Workload::LoopBound,
        Workload::MemoryBound,
        Workload::RvChecked,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopBound => "loop_bound",
            Workload::MemoryBound => "memory_bound",
            Workload::RvChecked => "rv_checked",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's commit budgets.
    pub fn params(self) -> Params {
        match self {
            Workload::LoopBound => Params {
                warmup: 60_000,
                chunk: 200,
                window_chunks: 300,
            },
            Workload::MemoryBound => Params {
                warmup: 50_000,
                chunk: 250,
                window_chunks: 120,
            },
            Workload::RvChecked => Params {
                warmup: 30_000,
                chunk: 80,
                window_chunks: 625,
            },
        }
    }

    fn observed(self) -> bool {
        self == Workload::RvChecked
    }

    fn kinds(self) -> &'static [&'static str] {
        match self {
            Workload::LoopBound => &KINDS,
            Workload::MemoryBound => &["base", "mop-wor", "sf-scoreboard"],
            Workload::RvChecked => &["base", "2cycle", "mop-wor"],
        }
    }

    fn inputs(self, seed: u64) -> Vec<Input> {
        match self {
            Workload::LoopBound => vec![Input::Synth("gzip"), Input::Synth("gap")],
            Workload::MemoryBound => vec![Input::Synth("mcf")],
            Workload::RvChecked => rvgen::SHAPES
                .iter()
                .map(|s| Input::Rv(Arc::new(rvgen::generate(s, seed))))
                .collect(),
        }
    }
}

/// What a job simulates.
#[derive(Debug, Clone)]
pub enum Input {
    /// A synthetic SPEC CINT2000 model, built from the seed.
    Synth(&'static str),
    /// A generated RV32 program.
    Rv(Arc<GenProgram>),
}

impl Input {
    /// Name of the span around iterating this input's trace source
    /// standalone.
    fn iterate_span(&self) -> &'static str {
        match self {
            Input::Synth(_) => "workload.trace",
            Input::Rv(_) => "rv.interp",
        }
    }

    /// Short label (`gzip`, `sort`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            Input::Synth(b) => b,
            Input::Rv(p) => p.shape,
        }
    }
}

/// One job: an input under one machine configuration.
#[derive(Debug, Clone)]
pub struct Job {
    /// Input under test.
    pub input: Input,
    /// Scheduler label.
    pub sched: &'static str,
    /// Machine configuration (the `sched` preset unless a test perturbs it).
    pub cfg: MachineConfig,
    /// Run with every observer on (metrics, slots, oracle, event ring).
    pub observed: bool,
    /// A traced-run-only job that times a kind the workload does not run,
    /// for its window only, so every kind has a `sim.ns_per_commit`.
    pub sweep: bool,
}

impl Job {
    /// `input/sched`, the key of the pinned digests.
    pub fn name(&self) -> String {
        format!("{}/{}", self.input.label(), self.sched)
    }

    /// The observers the job runs with.
    fn observers(&self) -> Observers {
        if self.observed {
            Observers::All
        } else {
            Observers::Plain
        }
    }
}

/// The workload's jobs for `seed`, in run order.
pub fn jobs(w: Workload, seed: u64) -> Vec<Job> {
    let mut out = Vec::new();
    for input in w.inputs(seed) {
        for &sched in w.kinds() {
            out.push(Job {
                input: input.clone(),
                sched,
                cfg: mos_rv::config_for(sched).expect("known scheduler label"),
                observed: w.observed(),
                sweep: false,
            });
        }
    }
    out
}

/// The traced run's extra jobs: each kind the workload does not run, on
/// its first input.
pub fn sweep_jobs(w: Workload, seed: u64) -> Vec<Job> {
    let first = w.inputs(seed).swap_remove(0);
    KINDS
        .iter()
        .filter(|k| !w.kinds().contains(k))
        .map(|&sched| Job {
            input: first.clone(),
            sched,
            cfg: mos_rv::config_for(sched).expect("known scheduler label"),
            observed: w.observed(),
            sweep: true,
        })
        .collect()
}

/// The committed-path source a job simulates. One exists per simulator,
/// so its size does not matter, and boxing the larger variant would add a
/// pointer chase to every fetched instruction.
#[allow(clippy::large_enum_variant)]
pub enum Source {
    /// A synthetic model's walk.
    Synth(SynthTrace),
    /// The RV interpreter's uop stream.
    Rv(RvTraceSource),
}

impl Iterator for Source {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        match self {
            Source::Synth(t) => t.next(),
            Source::Rv(t) => t.next(),
        }
    }
}

impl TraceSource for Source {
    fn program(&self) -> &Program {
        match self {
            Source::Synth(t) => t.program(),
            Source::Rv(t) => t.program(),
        }
    }
}

/// Build `input`'s source from `seed`, with a span around each layer call
/// (`workload.build`, or `rv.assemble` and `rv.lower`). Returns the RV
/// program too, for the differential.
///
/// # Errors
///
/// Returns a message when the generated assembly does not assemble or
/// lower.
pub fn build_source(
    input: &Input,
    seed: u64,
    tr: &mut Tracer,
    job: Option<u64>,
) -> Result<(Source, Option<RvProgram>), String> {
    match input {
        Input::Synth(bench) => {
            let spec = spec2000::by_name(bench).ok_or_else(|| format!("unknown model {bench}"))?;
            let s = tr.open("workload.build", job, bench);
            let prog = spec.build(MODEL_SEED);
            tr.close(s, prog.program().len() as u64, 0);
            Ok((Source::Synth(prog.walk(seed ^ 0x9e37_79b9_7f4a_7c15)), None))
        }
        Input::Rv(gen) => {
            let s = tr.open("rv.assemble", job, gen.shape);
            let rv = mos_rv::assemble(gen.shape, &gen.source);
            tr.close(s, 0, 0);
            let rv = rv.map_err(|e| format!("generated {} does not assemble: {e}", gen.shape))?;
            let s = tr.open("rv.lower", job, gen.shape);
            let lowered = mos_rv::lower(&rv);
            tr.close(s, rv.len() as u64, 0);
            let lowered =
                lowered.map_err(|e| format!("generated {} does not lower: {e}", gen.shape))?;
            let src = RvTraceSource::with_lowered(Arc::new(lowered), RvInterp::new(&rv));
            Ok((Source::Rv(src), Some(rv)))
        }
    }
}

/// Observers a simulator runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observers {
    /// None (the plain run).
    Plain,
    /// Interval metrics only.
    Metrics,
    /// Slot accounting only.
    Slots,
    /// A bounded event ring only.
    Tracing,
    /// A collecting invariant oracle only.
    Oracle,
    /// All four (what `report`/`cpistack`/`trace --check` users run).
    All,
}

impl Observers {
    /// Single observers the traced run toggles one at a time.
    pub const SINGLE: [Observers; 4] = [
        Observers::Metrics,
        Observers::Slots,
        Observers::Tracing,
        Observers::Oracle,
    ];

    /// Label used in span names and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Observers::Plain => "plain",
            Observers::Metrics => "metrics",
            Observers::Slots => "slots",
            Observers::Tracing => "tracing",
            Observers::Oracle => "oracle",
            Observers::All => "all",
        }
    }

    fn apply(self, sim: &mut Simulator<Source>) {
        let all = self == Observers::All;
        if all || self == Observers::Metrics {
            sim.enable_metrics(METRICS_INTERVAL);
        }
        if all || self == Observers::Slots {
            sim.enable_slot_accounting();
        }
        if all || self == Observers::Oracle {
            sim.attach_oracle(OracleMode::Collect);
        }
        if all || self == Observers::Tracing {
            sim.set_event_sink(Box::new(RingSink::new(EVENT_RING)));
        }
    }

    /// The checks an observer makes possible on a finished run.
    fn check(self, sim: &Simulator<Source>, st: &SimStats) -> Result<(), String> {
        let all = self == Observers::All;
        if all || self == Observers::Oracle {
            match sim.oracle() {
                Some(o) if o.is_clean() => {}
                Some(o) => return Err(format!("oracle: {}", o.violations()[0])),
                None => return Err("oracle not attached".into()),
            }
        }
        if all || self == Observers::Slots {
            st.slots
                .check_conservation(st.cycles, sim.config().sched.issue_width as u64)?;
        }
        Ok(())
    }
}

/// FNV-1a digest of every simulated (timing) field of `SimStats`. The
/// observer-only fields — event counts and slot counts — are left out, so
/// observed, traced and plain runs of one job must agree.
pub fn digest(s: &SimStats) -> u64 {
    let q = &s.queue;
    let d = &s.detect;
    let fields = [
        s.cycles,
        s.committed,
        s.fetched,
        s.wrong_path_fetched,
        s.branches,
        s.mispredicts,
        s.squashes,
        s.loads,
        s.load_l1_misses,
        s.load_forwards,
        s.stores,
        s.il1.0,
        s.il1.1,
        s.dl1.0,
        s.dl1.1,
        s.l2.0,
        s.l2.1,
        s.roles[0],
        s.roles[1],
        s.roles[2],
        s.roles[3],
        s.roles[4],
        q.issued_entries,
        q.issued_uops,
        q.load_replay_uops,
        q.collisions,
        q.pileup_replays,
        q.spec_wakeup_cancels,
        q.occupancy_integral,
        q.cycles,
        q.cancelled_pendings,
        d.dependent_pairs,
        d.independent_pairs,
        d.cycle_rejects,
        d.src_limit_rejects,
        d.flow_rejects,
        s.form.fused_pairs,
        s.form.cancelled,
        s.form.insts,
        s.pointers.0,
        s.pointers.1,
        s.pointers.2,
        s.pointer_hits,
        s.mop_entries_issued,
        s.last_arrival_filtered,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in fields {
        for b in f.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The pinned digest of `job` in workload `w` (default seed only).
pub fn pinned_digest(w: Workload, job: &str) -> Option<u64> {
    PINNED.lines().find_map(|l| {
        let mut it = l.split_whitespace();
        match (it.next(), it.next(), it.next()) {
            (Some(wl), Some(j), Some(d)) if wl == w.name() && j == job => {
                u64::from_str_radix(d.trim_start_matches("0x"), 16).ok()
            }
            _ => None,
        }
    })
}

/// One job's measurements and verdict.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// `input/sched`.
    pub name: String,
    /// Scheduler label.
    pub sched: &'static str,
    /// Traced-run-only sweep job.
    pub sweep: bool,
    /// Why the job failed its output check, if it did.
    pub failure: Option<String>,
    /// Build/assemble/lower + `Simulator::new` + warm-up, seconds, once
    /// per set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub timed_ns: u64,
    /// Commits of the timed phase.
    pub timed_commits: u64,
    /// Simulated cycles of the timed phase.
    pub timed_cycles: u64,
    /// Every chunk's work and host time.
    pub log: ChunkLog,
    /// Host ns and commits of the chunks run without a span (traced run).
    pub untraced: (u64, u64),
    /// Statistics at the end of warm-up.
    pub warm: SimStats,
    /// Statistics at the end of the measurement window.
    pub window: SimStats,
    /// Digest of `window`.
    pub digest: u64,
}

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload the jobs belong to.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds, shared equally by the workload's jobs.
    pub seconds: f64,
}

/// Times each job is set up (input built, simulator constructed, warmed
/// up). `setup_s` is the median over every set-up of every job; the last
/// set-up's simulator is the one timed.
pub const SETUPS: usize = 3;

/// Most chunks a job times. The log's storage is allocated and touched up
/// front, so the benchmark's own bookkeeping adds the same resident memory
/// whatever the host's speed.
pub const MAX_CHUNKS: usize = 1 << 15;

/// A job's chunks: what each simulated and its host time.
#[derive(Debug, Clone)]
pub struct ChunkLog {
    /// `(commits, cycles)` of every chunk.
    work: Vec<(u32, u32)>,
    /// Host ns of every chunk.
    ns: Vec<u32>,
}

impl Default for ChunkLog {
    fn default() -> ChunkLog {
        let mut work = vec![(u32::MAX, u32::MAX); MAX_CHUNKS];
        let mut ns = vec![u32::MAX; MAX_CHUNKS];
        work.clear();
        ns.clear();
        ChunkLog { work, ns }
    }
}

impl ChunkLog {
    /// Chunks logged.
    pub fn len(&self) -> usize {
        self.work.len()
    }

    /// Whether no chunk was logged.
    pub fn is_empty(&self) -> bool {
        self.work.is_empty()
    }

    fn record(&mut self, ns: u64, commits: u64, cycles: u64) -> Result<(), String> {
        let k = self.len();
        let narrow =
            |v: u64| u32::try_from(v).map_err(|_| format!("chunk {k}: {v} does not fit 32 bits"));
        self.work.push((narrow(commits)?, narrow(cycles)?));
        self.ns.push(narrow(ns)?);
        Ok(())
    }

    /// Σ (host ns, commits, cycles) over chunks.
    pub fn sum(&self) -> (u64, u64, u64) {
        self.ns
            .iter()
            .zip(&self.work)
            .fold((0, 0, 0), |(t, c, y), (&ns, w)| {
                (t + u64::from(ns), c + u64::from(w.0), y + u64::from(w.1))
            })
    }

    /// Percentile `p` of the chunk times, in ms.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut v: Vec<u64> = self.ns.iter().map(|&ns| u64::from(ns)).collect();
        v.sort_unstable();
        percentile(&v, p) / 1e6
    }
}

/// Run every job once, in order. A job that fails a check (or panics) is
/// marked failed; the others still run.
pub fn run_jobs(set: &Settings, jobs: &[Job], tr: &mut Tracer) -> RunResult {
    let timed = jobs.iter().filter(|j| !j.sweep).count().max(1);
    let share = Duration::from_secs_f64(set.seconds.max(0.0) / timed as f64);
    let mut results = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        let mut res = JobResult {
            name: job.name(),
            sched: job.sched,
            sweep: job.sweep,
            ..JobResult::default()
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_one(set, job, k as u64, share, tr, &mut res)
        }));
        res.failure = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(why)) => Some(why),
            Err(panic) => Some(format!(
                "panicked: {}",
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            )),
        };
        results.push(res);
    }
    RunResult { jobs: results }
}

/// Run `job` alone, as [`run_jobs`] would with `seconds`.
pub fn run_job(set: &Settings, job: &Job, tr: &mut Tracer) -> JobResult {
    run_jobs(set, std::slice::from_ref(job), tr)
        .jobs
        .swap_remove(0)
}

/// A set-up job, ready to time.
struct Setup {
    sim: Simulator<Source>,
    rv: Option<RvProgram>,
    warm: SimStats,
}

/// Build the input, construct the simulator, attach its observers and
/// warm it up; returns the set-up seconds too.
fn set_up(
    set: &Settings,
    job: &Job,
    id: Option<u64>,
    tr: &mut Tracer,
) -> Result<(Setup, f64), String> {
    let label = job.sched;
    let t0 = Instant::now();
    let (src, rv) = build_source(&job.input, set.seed, tr, id)?;
    let s = tr.open("sim.new", id, label);
    let mut sim = Simulator::new(job.cfg.clone(), src);
    tr.close(s, 0, 0);
    job.observers().apply(&mut sim);
    let s = tr.open("sim.warmup", id, label);
    let warm = sim.run(set.workload.params().warmup);
    tr.close(s, warm.committed, warm.cycles);
    Ok((Setup { sim, rv, warm }, t0.elapsed().as_secs_f64()))
}

/// Set the job up [`SETUPS`] times, time the last simulator in fixed
/// commit chunks until `share` is spent and the window is covered, then
/// check it. In a traced run every other chunk runs without a span, which
/// prices the spans themselves.
fn run_one(
    set: &Settings,
    job: &Job,
    job_id: u64,
    share: Duration,
    tr: &mut Tracer,
    res: &mut JobResult,
) -> Result<(), String> {
    let p = set.workload.params();
    let id = Some(job_id);
    let label = job.sched;
    let job_span = tr.open("job", id, label);
    let mut ready = None;
    for _ in 0..SETUPS {
        // One simulator at a time: drop the previous set-up first.
        drop(ready.take());
        let (s, secs) = set_up(set, job, id, tr)?;
        res.setup_s.push(secs);
        ready = Some(s);
    }
    let Setup { mut sim, rv, warm } = ready.expect("SETUPS is positive");

    let start = Instant::now();
    let mut prev = (warm.committed, warm.cycles);
    let mut window = None;
    let mut last = warm.clone();
    for k in 1u64.. {
        let target = p.warmup + k * p.chunk;
        let span = (tr.on() && k % 2 == 1).then(|| tr.open("sim.run", id, label));
        let c0 = Instant::now();
        let st = sim.run(target);
        let ns = c0.elapsed().as_nanos() as u64;
        let (dc, dy) = (st.committed - prev.0, st.cycles - prev.1);
        if let Some(s) = span {
            tr.close(s, dc, dy);
        } else {
            res.untraced.0 += ns;
            res.untraced.1 += dc;
        }
        res.log.record(ns, dc, dy)?;
        prev = (st.committed, st.cycles);
        let drained = st.committed < target;
        if k == p.window_chunks || (drained && window.is_none()) {
            window = Some(st.clone());
        }
        last = st;
        let done = k as usize >= MAX_CHUNKS
            || (k >= p.window_chunks && (job.sweep || start.elapsed() >= share));
        if drained || done {
            break;
        }
    }
    res.timed_ns = start.elapsed().as_nanos() as u64;
    job.observers().check(&sim, &last)?;

    // Summarise, then the output checks (untimed).
    res.timed_commits = last.committed - warm.committed;
    res.timed_cycles = last.cycles - warm.cycles;
    res.window = window.expect("the loop runs at least one chunk");
    res.digest = digest(&res.window);
    res.warm = warm;
    let v = tr.open("verify", id, label);
    let checked = verify(set, job, &last, rv.as_ref(), res, tr, id);
    tr.close(v, 0, 0);
    checked?;
    if tr.on() {
        tr.count(id, "bench.untraced_ns", label, res.untraced.0);
        tr.count(id, "bench.untraced_commits", label, res.untraced.1);
        if !job.sweep {
            window_counts(tr, id, label, &res.warm, &res.window);
            observer_replays(set, job, res, tr, id)?;
        }
    }
    tr.close(job_span, res.timed_commits, res.timed_cycles);
    Ok(())
}

fn verify(
    set: &Settings,
    job: &Job,
    last: &SimStats,
    rv: Option<&RvProgram>,
    res: &JobResult,
    tr: &mut Tracer,
    id: Option<u64>,
) -> Result<(), String> {
    let p = set.workload.params();
    let w = &res.window;
    let width = job.cfg.commit_width as u64;
    if w.cycles == 0 || w.committed > w.cycles * width {
        return Err(format!(
            "implausible window: {} commits in {} cycles",
            w.committed, w.cycles
        ));
    }
    match (&job.input, rv) {
        (Input::Synth(_), _) => {
            if last.committed < p.warmup + p.window_chunks * p.chunk {
                return Err(format!(
                    "synthetic trace drained after {} commits",
                    last.committed
                ));
            }
            if set.seed == DEFAULT_SEED && !job.sweep {
                let want = pinned_digest(set.workload, &res.name)
                    .ok_or_else(|| format!("no pinned digest for {}", res.name))?;
                if res.digest != want {
                    return Err(format!("digest {:016x} != pinned {want:016x}", res.digest));
                }
            }
        }
        (Input::Rv(gen), Some(rv)) => {
            // The observed run must match the plain run of the same job.
            if job.observed {
                let (src, _) = build_source(&job.input, set.seed, tr, id)?;
                let s = tr.open("sim.plain_replay", id, job.sched);
                let mut plain = Simulator::new(job.cfg.clone(), src);
                let st = plain.run(p.warmup + p.window_chunks * p.chunk);
                tr.close(s, st.committed, st.cycles);
                if digest(&st) != res.digest {
                    return Err(format!(
                        "observed digest {:016x} != plain {:016x}",
                        res.digest,
                        digest(&st)
                    ));
                }
            }
            if job.sweep {
                return Ok(());
            }
            // The pipeline must commit exactly what the functional oracle
            // retires, and the oracle must end with the generator's a0.
            let s = tr.open("rv.diff", id, job.sched);
            let rep = mos_rv::run_differential(rv, job.sched, job.cfg.clone(), 50_000_000);
            tr.close(
                s,
                rep.as_ref().map_or(0, |r| r.uops_committed),
                rep.as_ref().map_or(0, |r| r.cycles),
            );
            let rep = rep.map_err(|e| format!("differential: {e}"))?;
            rep.stats
                .slots
                .check_conservation(rep.cycles, job.cfg.sched.issue_width as u64)?;
            let mut interp = RvInterp::new(rv);
            while interp.step().is_some() {}
            let a0 = interp.state().reg(10);
            if !interp.stopped_cleanly() || a0 != gen.expect_a0 {
                return Err(format!(
                    "{}: a0 = {a0}, generator expects {}",
                    gen.shape, gen.expect_a0
                ));
            }
        }
        (Input::Rv(_), None) => return Err("rv input without a program".into()),
    }
    Ok(())
}

/// Re-run the job's window once per observer setting (plain, then each
/// observer alone), each from a fresh simulator. Every run must reproduce
/// the job's digest; the spans price each observer against plain.
fn observer_replays(
    set: &Settings,
    job: &Job,
    res: &JobResult,
    tr: &mut Tracer,
    id: Option<u64>,
) -> Result<(), String> {
    let p = set.workload.params();
    let end = p.warmup + p.window_chunks * p.chunk;
    for obs in std::iter::once(Observers::Plain).chain(Observers::SINGLE) {
        let (src, _) = build_source(&job.input, set.seed, tr, id)?;
        let mut sim = Simulator::new(job.cfg.clone(), src);
        obs.apply(&mut sim);
        let a = sim.run(p.warmup);
        let s = tr.open(&format!("sim.observe.{}", obs.label()), id, job.sched);
        let mut b = a.clone();
        for k in 1..=p.window_chunks {
            b = sim.run((p.warmup + k * p.chunk).min(end));
            if b.committed < p.warmup + k * p.chunk {
                break;
            }
        }
        tr.close(s, b.committed - a.committed, b.cycles - a.cycles);
        obs.check(&sim, &b)?;
        if digest(&b) != res.digest {
            return Err(format!(
                "{} run digest {:016x} != plain {:016x}",
                obs.label(),
                digest(&b),
                res.digest
            ));
        }
        if obs == Observers::Tracing {
            tr.count(
                id,
                "sim.events",
                job.sched,
                b.events.total() - a.events.total(),
            );
            tr.count(
                id,
                "sim.events_commits",
                job.sched,
                b.committed - a.committed,
            );
        }
    }
    Ok(())
}

/// Everything one benchmark run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-job results, in run order.
    pub jobs: Vec<JobResult>,
}

impl RunResult {
    /// Jobs attempted.
    pub fn attempted(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs whose output check failed.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.failure.is_some()).count()
    }

    fn measured(&self) -> impl Iterator<Item = &JobResult> {
        self.jobs.iter().filter(|j| !j.sweep)
    }

    /// Steady-state simulated work per host second (`pick` chooses
    /// commits or cycles) over every timed chunk.
    fn per_s(&self, pick: fn(&(u64, u64, u64)) -> u64) -> f64 {
        let sums: Vec<(u64, u64, u64)> = self.measured().map(|j| j.log.sum()).collect();
        let ns: u64 = sums.iter().map(|s| s.0).sum();
        let work: u64 = sums.iter().map(pick).sum();
        ratio(work as f64 * 1e9, ns as f64)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order:
    /// `(name, value, unit)`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let sum = |f: fn(&JobResult) -> u64| self.measured().map(f).sum::<u64>() as f64;
        let (_, p_hi) = self.chunk_samples();
        let setups: Vec<f64> = self
            .measured()
            .flat_map(|j| j.setup_s.iter().copied())
            .collect();
        let win_commits = sum(|j| j.window.committed - j.warm.committed);
        let win_cycles = sum(|j| j.window.cycles - j.warm.cycles);
        vec![
            ("commits_per_s", self.per_s(|w| w.1), "1/s"),
            ("cycles_per_s", self.per_s(|w| w.2), "1/s"),
            ("chunk_ms_p50", self.chunk_ms(0.5), "ms"),
            ("chunk_ms_p99", self.chunk_ms(p_hi), "ms"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("sim_ipc", ratio(win_commits, win_cycles), "commit/cycle"),
        ]
    }

    /// Percentile `p` of each job's chunk times, geometric mean over jobs,
    /// in ms. Every job counts alike, whatever its speed; a workload of a
    /// few jobs would otherwise report one job's percentile.
    fn chunk_ms(&self, p: f64) -> f64 {
        let logs: Vec<f64> = self
            .measured()
            .map(|j| j.log.percentile_ms(p).ln())
            .collect();
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// The fewest chunks any job ran, and the percentile `chunk_ms_p99`
    /// reports: p99 once every job has 1000 chunks, else the highest
    /// that keeps ten samples beyond it in every job.
    pub fn chunk_samples(&self) -> (usize, f64) {
        let n = self.measured().map(|j| j.log.len()).min().unwrap_or(0);
        tail_percentile(n)
    }
}

/// `n` and the highest of p99/p95/p90/p75/p50 that keeps at least ten
/// samples beyond it (p99 needs 1000 samples).
pub fn tail_percentile(n: usize) -> (usize, f64) {
    let p = [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|p| (n as f64 * (1.0 - p)).round() >= 10.0)
        .unwrap_or(0.5);
    (n, p)
}

/// Nearest-rank percentile of sorted `v` (0 when empty).
pub fn percentile(v: &[u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`), 0 where that is unavailable. `getrusage`'s
/// `ru_maxrss` would be simpler but keeps the peak of the image before
/// `exec`, i.e. of whatever launched the benchmark.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Record the exact simulated counters of a job's window (`b - a`).
fn window_counts(tr: &mut Tracer, id: Option<u64>, label: &str, a: &SimStats, b: &SimStats) {
    let grouped = |s: &SimStats| s.roles[2] + s.roles[3] + s.roles[4];
    let replays = |s: &SimStats| s.queue.load_replay_uops + s.queue.pileup_replays;
    let pairs = |s: &SimStats| s.detect.dependent_pairs + s.detect.independent_pairs;
    let rejects =
        |s: &SimStats| s.detect.cycle_rejects + s.detect.src_limit_rejects + s.detect.flow_rejects;
    let counts = [
        ("n.committed", b.committed - a.committed),
        ("n.issued_uops", b.queue.issued_uops - a.queue.issued_uops),
        (
            "n.occupancy_integral",
            b.queue.occupancy_integral - a.queue.occupancy_integral,
        ),
        ("n.queue_cycles", b.queue.cycles - a.queue.cycles),
        ("n.replays", replays(b) - replays(a)),
        ("n.fused", b.form.fused_pairs - a.form.fused_pairs),
        ("n.cancelled", b.form.cancelled - a.form.cancelled),
        ("n.pointer_hits", b.pointer_hits - a.pointer_hits),
        ("n.pairs", pairs(b) - pairs(a)),
        ("n.rejects", rejects(b) - rejects(a)),
        ("n.grouped", grouped(b) - grouped(a)),
        ("n.dl1_misses", b.dl1.1 - a.dl1.1),
        ("n.dl1_accesses", b.dl1.0 + b.dl1.1 - a.dl1.0 - a.dl1.1),
        ("n.l2_misses", b.l2.1 - a.l2.1),
        ("n.l2_accesses", b.l2.0 + b.l2.1 - a.l2.0 - a.l2.1),
        ("n.il1_misses", b.il1.1 - a.il1.1),
        ("n.il1_accesses", b.il1.0 + b.il1.1 - a.il1.0 - a.il1.1),
        ("n.mispredicts", b.mispredicts - a.mispredicts),
        (
            "n.wrong_path_fetched",
            b.wrong_path_fetched - a.wrong_path_fetched,
        ),
        ("n.fetched", b.fetched - a.fetched),
    ];
    for (name, v) in counts {
        tr.count(id, name, label, v);
    }
}

/// The traced run's single-layer work after the jobs: for each input,
/// iterate its source standalone and replay the recorded stream through
/// the detector, the data memory hierarchy, the branch predictor and the
/// issue queue under every kind; then time the layers the workload's own
/// jobs do not use on the seed's inputs for them. `first_id` numbers the
/// replay "jobs" after the real ones.
///
/// # Errors
///
/// Returns the first replay that failed.
pub fn layer_replays(set: &Settings, tr: &mut Tracer, first_id: u64) -> Result<(), String> {
    let mut id = first_id;
    let mop = mos_rv::config_for("mop-wor").expect("known scheduler label");
    let own = set.workload.inputs(set.seed);
    let other = match set.workload {
        Workload::RvChecked => [
            Workload::LoopBound.inputs(set.seed),
            Workload::MemoryBound.inputs(set.seed),
        ]
        .concat(),
        _ => Workload::RvChecked.inputs(set.seed),
    };
    for input in &own {
        let job = Some(id);
        id += 1;
        let (src, _) = build_source(input, set.seed, tr, job)?;
        let stream = replay::record(
            src,
            REPLAY_INSTS,
            tr,
            job,
            input.iterate_span(),
            input.label(),
        );
        replay::detect(&stream, &mop, tr, job, input.label());
        tr.count(
            job,
            "replay.detect_insts",
            input.label(),
            stream.insts.len() as u64,
        );
        replay::dl1(&stream, tr, job, input.label());
        replay::branch(&stream, &mop.branch, tr, job, input.label());
        for kind in KINDS {
            let cfg = mos_rv::config_for(kind).expect("known scheduler label");
            replay::queue(&stream, &cfg.sched, tr, job, kind)?;
        }
    }
    // Layers this workload's jobs bypass, timed on that layer's inputs:
    // source construction and standalone iteration, plus the differential
    // under base for generated RV programs.
    for input in &other {
        let job = Some(id);
        id += 1;
        let (src, rv) = build_source(input, set.seed, tr, job)?;
        replay::record(
            src,
            REPLAY_INSTS,
            tr,
            job,
            input.iterate_span(),
            input.label(),
        );
        if let Some(rv) = rv {
            let s = tr.open("rv.diff", job, "base");
            let rep = mos_rv::run_differential(
                &rv,
                "base",
                mos_rv::config_for("base").expect("known"),
                50_000_000,
            );
            tr.close(
                s,
                rep.as_ref().map_or(0, |r| r.uops_committed),
                rep.as_ref().map_or(0, |r| r.cycles),
            );
            rep.map_err(|e| format!("{} differential: {e}", input.label()))?;
        }
    }
    Ok(())
}
