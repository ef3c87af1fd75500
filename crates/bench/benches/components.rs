//! Microbenchmarks of the individual substrates: MOP detection matrix
//! steps, issue-queue wakeup/select cycles, branch prediction, cache
//! accesses, trace generation, and end-to-end pipeline throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mos_core::detect::{DetectInst, MopDetector};
use mos_core::queue::IssueQueue;
use mos_core::{MopConfig, SchedConfig, SchedUop, SchedulerKind, Tag, UopId, WakeupStyle};
use mos_isa::{InstClass, Opcode, Reg, StaticInst};
use mos_sim::{MachineConfig, Simulator};
use mos_workload::spec2000;

fn bench_detector(c: &mut Criterion) {
    let group: Vec<DetectInst> = (0..4u32)
        .map(|i| {
            let inst = if i % 2 == 0 {
                StaticInst::addi(Reg::int(1 + i as u8), Reg::int(9), 1)
            } else {
                StaticInst::alu(Opcode::Sub, Reg::int(5 + i as u8), Reg::int(i as u8), Reg::int(9))
            };
            DetectInst::from_static(i, &inst, false, 0x40)
        })
        .collect();
    c.bench_function("component_detector_step", |b| {
        let mut det = MopDetector::new(MopConfig::default(), None, 4);
        b.iter(|| black_box(det.step(&group, |_| false, |_, _| false).len()))
    });
}

fn bench_issue_queue(c: &mut Criterion) {
    c.bench_function("component_queue_cycle", |b| {
        let cfg = SchedConfig {
            kind: SchedulerKind::MacroOp,
            wakeup: WakeupStyle::WiredOr,
            queue_entries: Some(32),
            ..SchedConfig::default()
        };
        let mut q = IssueQueue::new(cfg);
        let mut now = 0u64;
        let mut id = 0u64;
        b.iter(|| {
            // Keep the queue half-full with a rolling chain.
            while q.free_entries() > 16 {
                let mut u = SchedUop::leaf(UopId(id), InstClass::IntAlu, Some(Tag(id)));
                if id > 0 {
                    u.srcs = vec![Tag(id - 1)];
                }
                q.insert(u).expect("space available");
                id += 1;
            }
            let issued = q.cycle(now);
            now += 1;
            black_box(issued)
        })
    });

    // The allocation-free path the simulator's hot loop uses, measured
    // under select-free scheduling (speculative broadcasts stress the tag
    // table hardest) with periodic pruning as in the real cycle loop.
    c.bench_function("component_queue_cycle_into", |b| {
        let cfg = SchedConfig {
            kind: SchedulerKind::SelectFreeScoreboard,
            wakeup: WakeupStyle::WiredOr,
            queue_entries: Some(32),
            ..SchedConfig::default()
        };
        let mut q = IssueQueue::new(cfg);
        let mut out = Vec::new();
        let mut now = 0u64;
        let mut id = 0u64;
        b.iter(|| {
            while q.free_entries() > 16 {
                let mut u = SchedUop::leaf(UopId(id), InstClass::IntAlu, Some(Tag(id)));
                if id > 0 {
                    // Two-source fan-in exercises the wakeup CAM per entry.
                    u.srcs = vec![Tag(id - 1), Tag(id.saturating_sub(7))];
                }
                q.insert(u).expect("space available");
                id += 1;
            }
            q.cycle_into(now, &mut out);
            now += 1;
            if now.is_multiple_of(4096) {
                q.prune_tags(4096);
            }
            black_box(out.len())
        })
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let spec = spec2000::by_name("gzip").expect("known benchmark");
    c.bench_function("component_trace_walk_10k", |b| {
        let prog = spec.build(42);
        b.iter(|| {
            let mut t = prog.walk(7);
            black_box(t.by_ref().take(10_000).count())
        })
    });
}

fn bench_pipeline_throughput(c: &mut Criterion) {
    let spec = spec2000::by_name("gzip").expect("known benchmark");
    c.bench_function("component_pipeline_10k_insts", |b| {
        b.iter(|| {
            let t = spec.trace(42);
            let mut sim = Simulator::new(
                MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
                t,
            );
            black_box(sim.run(10_000))
        })
    });
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(10);
    targets = bench_detector, bench_issue_queue, bench_trace_generation,
              bench_pipeline_throughput
}
criterion_main!(components);
