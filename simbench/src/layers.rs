//! The per-layer table, computed from the traced run's span file.
//!
//! Host-time metrics divide span durations by the work the spans covered;
//! the exact metrics come from the count records of each job's
//! measurement window. Every metric is defined on every workload: kinds a
//! workload does not run are timed by its sweep jobs, and layers it does
//! not use are timed on the seed's inputs for that layer (the generated
//! RV programs, or the gzip/gap/mcf models).

use crate::spans::Record;
use crate::KINDS;

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move. `rv_checked` is not a workload of record in
/// `BENCHMARK.json`, so the metrics that should move it have no recorded
/// end-to-end counterpart.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    (
        "sim.ns_per_commit.base",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "sim.ns_per_commit.2cycle",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "sim.ns_per_commit.mop-2src",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "sim.ns_per_commit.mop-wor",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "sim.ns_per_commit.sf-squash",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "sim.ns_per_commit.sf-scoreboard",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "sim.ns_per_commit.spec-wakeup",
        "ns",
        "commits_per_s on loop_bound",
    ),
    ("sim.ns_per_cycle", "ns", "cycles_per_s on memory_bound"),
    ("sim.new_ms", "ms", "setup_s on all"),
    ("sim.warmup_s", "s", "setup_s on all"),
    (
        "sim.observe.metrics_pct",
        "%",
        "commits_per_s on rv_checked (unlisted: none recorded)",
    ),
    (
        "sim.observe.slots_pct",
        "%",
        "commits_per_s on rv_checked (unlisted: none recorded)",
    ),
    (
        "sim.observe.tracing_pct",
        "%",
        "commits_per_s on rv_checked (unlisted: none recorded)",
    ),
    (
        "sim.observe.oracle_pct",
        "%",
        "commits_per_s on rv_checked (unlisted: none recorded)",
    ),
    ("sim.events_per_commit", "count", "none (exact)"),
    (
        "core.queue_replay_ns_per_cycle",
        "ns",
        "commits_per_s on loop_bound, cycles_per_s on memory_bound",
    ),
    (
        "core.detect_replay_ns_per_group",
        "ns",
        "commits_per_s on loop_bound (MOP kinds)",
    ),
    ("core.queue.issued_uops_per_commit", "count", "none (exact)"),
    ("core.queue.mean_occupancy", "count", "none (exact)"),
    ("core.queue.replays_per_kcommit", "count", "none (exact)"),
    ("core.form.fused_per_kcommit", "count", "none (exact)"),
    ("core.form.cancelled_per_kcommit", "count", "none (exact)"),
    ("core.pointer.hits_per_commit", "count", "none (exact)"),
    ("core.detect.pairs", "count", "none (exact)"),
    ("core.detect.rejects", "count", "none (exact)"),
    ("core.grouped_frac", "ratio", "none (exact)"),
    (
        "uarch.dl1_replay_ns_per_access",
        "ns",
        "cycles_per_s on memory_bound",
    ),
    (
        "uarch.branch_replay_ns_per_branch",
        "ns",
        "cycles_per_s on memory_bound",
    ),
    ("uarch.dl1_miss_rate", "ratio", "none (exact)"),
    ("uarch.l2_miss_rate", "ratio", "none (exact)"),
    ("uarch.il1_miss_rate", "ratio", "none (exact)"),
    ("uarch.mispredicts_per_kcommit", "count", "none (exact)"),
    ("uarch.wrong_path_frac", "ratio", "none (exact)"),
    (
        "workload.build_ms",
        "ms",
        "setup_s on loop_bound/memory_bound",
    ),
    (
        "workload.trace_ns_per_inst",
        "ns",
        "commits_per_s on loop_bound/memory_bound",
    ),
    (
        "rv.assemble_ms",
        "ms",
        "setup_s on rv_checked (unlisted: none recorded)",
    ),
    (
        "rv.lower_ms",
        "ms",
        "setup_s on rv_checked (unlisted: none recorded)",
    ),
    (
        "rv.interp_ns_per_inst",
        "ns",
        "commits_per_s on rv_checked (unlisted: none recorded)",
    ),
    ("rv.diff_s", "s", "none (untimed verification)"),
    ("bench.trace_overhead_pct", "%", "none"),
    (
        "gap.total_ns_per_commit",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "gap.queue_ns_per_commit",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "gap.detect_ns_per_commit",
        "ns",
        "commits_per_s on loop_bound",
    ),
    (
        "gap.unexplained_ns_per_commit",
        "ns",
        "commits_per_s on loop_bound",
    ),
];

/// How the mop-wor-minus-base host time per commit splits across the
/// layers the outside replays can price, in ns per commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct GapSplit {
    /// `sim.ns_per_commit.mop-wor - sim.ns_per_commit.base`.
    pub total: f64,
    /// Queue replay ns/uop under mop-wor's queue minus under base's.
    pub queue: f64,
    /// Detection replay ns per instruction (base runs no detection).
    pub detect: f64,
}

impl GapSplit {
    /// The part the outside replays cannot attribute: formation, the
    /// pointer store, MOP-aware rename and everything else inside `step`.
    pub fn unexplained(&self) -> f64 {
        self.total - self.queue - self.detect
    }
}

struct Sums<'a>(&'a [Record]);

impl Sums<'_> {
    fn spans<'b>(
        &'b self,
        name: &'b str,
        label: Option<&'b str>,
    ) -> impl Iterator<Item = &'b Record> + 'b {
        self.0.iter().filter(move |r| {
            r.kind_of == "span" && r.name == name && label.is_none_or(|l| r.label == l)
        })
    }

    /// Σ duration / Σ work of matching spans, in ns.
    fn ns_per_work(&self, name: &str, label: Option<&str>) -> f64 {
        let (d, w) = self
            .spans(name, label)
            .fold((0u64, 0u64), |(d, w), r| (d + r.dur_ns(), w + r.work));
        crate::ratio(d as f64, w as f64)
    }

    /// Σ duration / Σ cycles of matching spans, in ns.
    fn ns_per_cycle(&self, name: &str) -> f64 {
        let (d, c) = self
            .spans(name, None)
            .fold((0u64, 0u64), |(d, c), r| (d + r.dur_ns(), c + r.cycles));
        crate::ratio(d as f64, c as f64)
    }

    /// Median duration of matching spans, in seconds.
    fn median_s(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans(name, None)
            .map(|r| r.dur_ns() as f64 / 1e9)
            .collect();
        crate::median(&v)
    }

    /// Σ of a count record over jobs.
    fn count(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|r| r.kind_of == "count" && r.name == name)
            .map(|r| r.value)
            .sum::<u64>() as f64
    }

    fn per(&self, num: &str, den: &str, scale: f64) -> f64 {
        crate::ratio(self.count(num) * scale, self.count(den))
    }

    fn overhead_pct(&self, observer: &str) -> f64 {
        let plain = self.ns_per_work("sim.observe.plain", None);
        (crate::ratio(
            self.ns_per_work(&format!("sim.observe.{observer}"), None),
            plain,
        ) - 1.0)
            * 100.0
    }
}

/// The mop-wor vs base host-time split.
pub fn gap_split(records: &[Record]) -> GapSplit {
    let s = Sums(records);
    GapSplit {
        total: s.ns_per_work("sim.run", Some("mop-wor")) - s.ns_per_work("sim.run", Some("base")),
        queue: s.ns_per_work("core.queue_replay", Some("mop-wor"))
            - s.ns_per_work("core.queue_replay", Some("base")),
        detect: crate::ratio(
            s.spans("core.detect_replay", None)
                .map(|r| r.dur_ns())
                .sum::<u64>() as f64,
            s.count("replay.detect_insts"),
        ),
    }
}

/// Every [`PER_LAYER`] metric's value, in order.
pub fn table(records: &[Record]) -> Vec<(&'static str, f64, &'static str)> {
    let s = Sums(records);
    let traced = s.ns_per_work("sim.run", None);
    let untraced = s.per("bench.untraced_ns", "bench.untraced_commits", 1.0);
    let gap = gap_split(records);
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let v = if let Some(kind) = name.strip_prefix("sim.ns_per_commit.") {
                debug_assert!(KINDS.contains(&kind));
                s.ns_per_work("sim.run", Some(kind))
            } else if let Some(obs) = name
                .strip_prefix("sim.observe.")
                .and_then(|n| n.strip_suffix("_pct"))
            {
                s.overhead_pct(obs)
            } else {
                match name {
                    "sim.ns_per_cycle" => s.ns_per_cycle("sim.run"),
                    "sim.new_ms" => s.median_s("sim.new") * 1e3,
                    "sim.warmup_s" => s.median_s("sim.warmup"),
                    "sim.events_per_commit" => s.per("sim.events", "sim.events_commits", 1.0),
                    "core.queue_replay_ns_per_cycle" => s.ns_per_cycle("core.queue_replay"),
                    "core.detect_replay_ns_per_group" => s.ns_per_work("core.detect_replay", None),
                    "core.queue.issued_uops_per_commit" => {
                        s.per("n.issued_uops", "n.committed", 1.0)
                    }
                    "core.queue.mean_occupancy" => {
                        s.per("n.occupancy_integral", "n.queue_cycles", 1.0)
                    }
                    "core.queue.replays_per_kcommit" => s.per("n.replays", "n.committed", 1e3),
                    "core.form.fused_per_kcommit" => s.per("n.fused", "n.committed", 1e3),
                    "core.form.cancelled_per_kcommit" => s.per("n.cancelled", "n.committed", 1e3),
                    "core.pointer.hits_per_commit" => s.per("n.pointer_hits", "n.committed", 1.0),
                    "core.detect.pairs" => s.count("n.pairs"),
                    "core.detect.rejects" => s.count("n.rejects"),
                    "core.grouped_frac" => s.per("n.grouped", "n.committed", 1.0),
                    "uarch.dl1_replay_ns_per_access" => s.ns_per_work("uarch.dl1_replay", None),
                    "uarch.branch_replay_ns_per_branch" => {
                        s.ns_per_work("uarch.branch_replay", None)
                    }
                    "uarch.dl1_miss_rate" => s.per("n.dl1_misses", "n.dl1_accesses", 1.0),
                    "uarch.l2_miss_rate" => s.per("n.l2_misses", "n.l2_accesses", 1.0),
                    "uarch.il1_miss_rate" => s.per("n.il1_misses", "n.il1_accesses", 1.0),
                    "uarch.mispredicts_per_kcommit" => s.per("n.mispredicts", "n.committed", 1e3),
                    "uarch.wrong_path_frac" => s.per("n.wrong_path_fetched", "n.fetched", 1.0),
                    "workload.build_ms" => s.median_s("workload.build") * 1e3,
                    "workload.trace_ns_per_inst" => s.ns_per_work("workload.trace", None),
                    "rv.assemble_ms" => s.median_s("rv.assemble") * 1e3,
                    "rv.lower_ms" => s.median_s("rv.lower") * 1e3,
                    "rv.interp_ns_per_inst" => s.ns_per_work("rv.interp", None),
                    "rv.diff_s" => s.median_s("rv.diff"),
                    "bench.trace_overhead_pct" => (crate::ratio(traced, untraced) - 1.0) * 100.0,
                    "gap.total_ns_per_commit" => gap.total,
                    "gap.queue_ns_per_commit" => gap.queue,
                    "gap.detect_ns_per_commit" => gap.detect,
                    "gap.unexplained_ns_per_commit" => gap.unexplained(),
                    other => unreachable!("per-layer metric {other} has no rule"),
                }
            };
            (name, v, unit)
        })
        .collect()
}
