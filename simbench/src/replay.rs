//! Single-layer replays of a recorded committed stream.
//!
//! Each replay drives one layer's public API standalone over the stream a
//! job's trace source produces, so the traced run can price that layer on
//! its own: the issue queue (`IssueQueue::{insert, cycle_into,
//! load_resolved_into}`), MOP detection (`MopDetector::step`), the data
//! memory hierarchy (`MemoryHierarchy::access`) and the branch predictor
//! (`CombinedPredictor::{predict, update}`). Inputs are prepared before
//! the timed part, so each span covers only the layer's own calls.

use std::hint::black_box;

use mos_core::detect::{DetectInst, MopDetector};
use mos_core::queue::IssueQueue;
use mos_core::{GroupRole, SchedConfig, SchedUop, Tag, UopId};
use mos_isa::{DynInst, InstClass, Program, Reg};
use mos_sim::MachineConfig;
use mos_uarch::branch::{BranchConfig, CombinedPredictor};
use mos_uarch::cache::MemoryHierarchy;

use crate::spans::Tracer;
use crate::Source;

/// A recorded committed-path stream and its static program.
pub struct Stream {
    /// The program the stream runs over.
    pub program: Program,
    /// Committed instructions, in order.
    pub insts: Vec<DynInst>,
}

/// Iterate `src` standalone for up to `n` instructions, under span `name`
/// (`workload.trace` or `rv.interp`).
pub fn record(
    src: Source,
    n: usize,
    tr: &mut Tracer,
    job: Option<u64>,
    name: &str,
    label: &str,
) -> Stream {
    let program = mos_isa::TraceSource::program(&src).clone();
    let mut insts = Vec::with_capacity(n);
    let s = tr.open(name, job, label);
    insts.extend(src.take(n));
    tr.close(s, insts.len() as u64, 0);
    Stream { program, insts }
}

fn class_of<'p>(p: &'p Program, d: &DynInst) -> (InstClass, &'p mos_isa::StaticInst) {
    let inst = p.inst(d.sidx).expect("trace sidx in range");
    (inst.class(), inst)
}

/// Drive an `IssueQueue` with `sched` over the stream's dependences:
/// singleton entries, up to `issue_width` inserts a cycle, every load
/// resolving as a hit when it issues.
///
/// # Errors
///
/// Returns a message if the queue stops draining.
pub fn queue(
    s: &Stream,
    sched: &SchedConfig,
    tr: &mut Tracer,
    job: Option<u64>,
    label: &str,
) -> Result<(), String> {
    // Rename up front: each uop's tag is its own id.
    let mut last: [Option<Tag>; Reg::NUM] = [None; Reg::NUM];
    let mut uops = Vec::with_capacity(s.insts.len());
    for d in &s.insts {
        let (class, inst) = class_of(&s.program, d);
        if matches!(class, InstClass::Nop | InstClass::Halt) {
            continue;
        }
        let id = uops.len() as u64;
        let mut srcs = Vec::with_capacity(2);
        for r in inst.src_regs().filter(|r| !r.is_zero()) {
            if let Some(t) = last[r.index()] {
                if !srcs.contains(&t) {
                    srcs.push(t);
                }
            }
        }
        let dst = inst.dst().filter(|r| !r.is_zero()).map(|r| {
            last[r.index()] = Some(Tag(id));
            Tag(id)
        });
        let mut u = SchedUop::leaf(UopId(id), class, dst);
        u.srcs = srcs;
        u.sidx = d.sidx;
        u.role = GroupRole::NotGrouped;
        uops.push(u);
    }
    let n = uops.len() as u64;
    let width = sched.issue_width;
    let limit = 64 * n + 10_000;

    let span = tr.open("core.queue_replay", job, label);
    let mut q = IssueQueue::new(sched.clone());
    let (mut issued, mut replayed) = (Vec::new(), Vec::new());
    let mut pending = uops.into_iter().peekable();
    let mut now = 0u64;
    while pending.peek().is_some() || q.occupancy() > 0 {
        let mut inserted = 0;
        while inserted < width && q.free_entries() > 0 {
            let Some(mut u) = pending.next() else { break };
            u.fetched_at = now;
            q.insert(u)
                .map_err(|e| format!("queue replay insert: {e}"))?;
            inserted += 1;
        }
        q.cycle_into(now, &mut issued);
        for iss in &issued {
            for u in iss.uops.iter().filter(|u| u.is_load) {
                if let Some(t) = u.dst {
                    q.load_resolved_into(t, true, now, &mut replayed);
                }
            }
        }
        if now.is_multiple_of(4096) {
            q.prune_tags(4096);
        }
        now += 1;
        if now > limit {
            tr.close(span, n, now);
            return Err(format!("queue replay did not drain in {limit} cycles"));
        }
    }
    tr.close(span, n, now);
    black_box(q.stats());
    Ok(())
}

/// `MopDetector::step` over the stream in fetch-width groups, with the
/// detector `cfg` configures. A head that already has a pair is reported
/// as holding a pointer, as the simulator's pointer store would once warm.
pub fn detect(s: &Stream, cfg: &MachineConfig, tr: &mut Tracer, job: Option<u64>, label: &str) {
    let groups: Vec<Vec<DetectInst>> = s
        .insts
        .chunks(cfg.fetch_width)
        .map(|g| {
            g.iter()
                .map(|d| DetectInst::from_dyn(&s.program, d))
                .collect()
        })
        .collect();
    let span = tr.open("core.detect_replay", job, label);
    let mut det = MopDetector::new(
        cfg.sched.mop.clone(),
        cfg.sched.max_entry_sources(),
        cfg.fetch_width,
    );
    let mut has_pointer = vec![false; s.program.len()];
    for g in &groups {
        for pair in det.step(g, |sidx| has_pointer[sidx as usize], |_, _| false) {
            has_pointer[pair.head_sidx as usize] = true;
        }
    }
    tr.close(span, groups.len() as u64, 0);
    black_box(det.stats());
}

/// `MemoryHierarchy::access` (Table 1 data side) over every load and store
/// address.
pub fn dl1(s: &Stream, tr: &mut Tracer, job: Option<u64>, label: &str) {
    let addrs: Vec<u64> = s.insts.iter().filter_map(|d| d.eff_addr).collect();
    let span = tr.open("uarch.dl1_replay", job, label);
    let mut mem = MemoryHierarchy::data_side();
    let mut lat = 0u64;
    for &a in &addrs {
        lat += u64::from(mem.access(a).latency);
    }
    tr.close(span, addrs.len() as u64, 0);
    black_box(lat);
}

/// `CombinedPredictor::{predict, update}` over every conditional branch.
pub fn branch(s: &Stream, cfg: &BranchConfig, tr: &mut Tracer, job: Option<u64>, label: &str) {
    let branches: Vec<(u64, bool)> = s
        .insts
        .iter()
        .filter(|d| class_of(&s.program, d).0 == InstClass::CondBranch)
        .map(|d| (s.program.pc_of(d.sidx), d.taken))
        .collect();
    let span = tr.open("uarch.branch_replay", job, label);
    let mut p = CombinedPredictor::new(cfg);
    let mut wrong = 0u64;
    for &(pc, taken) in &branches {
        let (pred, hist) = p.predict(pc);
        wrong += u64::from(pred != taken);
        p.update(pc, taken, hist);
    }
    tr.close(span, branches.len() as u64, 0);
    black_box(wrong);
}
