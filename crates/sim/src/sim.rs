//! The cycle loop: fetch (with real wrong-path walking), the front-end
//! delay line, rename/MOP formation, queue insertion, scheduling,
//! execution events, branch resolution/squash, and in-order commit.

use std::collections::VecDeque;

use mos_core::detect::{DetectInst, MopDetector};
use mos_core::form::{FormedItem, Former, RenamedInst, TableCheckpoint};
use mos_core::pointer::{MopPointer, MopPointerStore};
use mos_core::queue::{EntryId, IssueQueue, Issued};
use mos_core::{GroupRole, SlotCause, SlotCounts, Tag, UopId};
use mos_isa::{DynInst, InstClass, Program, StaticInst, TraceSource};
use mos_uarch::branch::{Btb, CombinedPredictor, ReturnAddressStack};
use mos_uarch::cache::Cache;

use crate::config::MachineConfig;
use crate::events::{EventSink, TraceEvent};
use crate::metrics::{Cum, SimMetrics};
use crate::oracle::{InvariantOracle, OracleMode};
use crate::stats::SimStats;
use crate::timeline::Timeline;
use crate::wheel::Wheel;

/// One instruction traveling the front end.
#[derive(Debug, Clone)]
struct FrontInst {
    sidx: u32,
    /// Committed-path oracle record; `None` on the wrong path.
    dyn_: Option<DynInst>,
    /// Direction/target the fetch stream actually followed.
    stream_taken: bool,
    /// MOP pointer fetched alongside (MacroOp mode only).
    pointer: Option<MopPointer>,
    /// Fetch detected that prediction diverged from the oracle here.
    mispredicted: bool,
    /// Oracle outcome (valid when `dyn_` is `Some`).
    actual_taken: bool,
    actual_next: u32,
    /// Global-history checkpoint taken at prediction.
    ghr_cp: u64,
    /// RAS snapshot after this instruction's own push/pop.
    ras_snap: Option<(usize, Vec<u64>)>,
}

#[derive(Debug, Clone)]
struct FrontGroup {
    insts: Vec<FrontInst>,
    fetched_at: u64,
    ready_at: u64,
}

#[derive(Debug, Clone)]
struct RobEntry {
    id: UopId,
    sidx: u32,
    class: InstClass,
    dyn_: Option<DynInst>,
    role: GroupRole,
    complete_at: Option<u64>,
    issue_gen: u32,
    branch_resolved: bool,
    mispredicted: bool,
    actual_taken: bool,
    actual_next: u32,
    ghr_cp: u64,
    ras_snap: Option<(usize, Vec<u64>)>,
    table_cp: Option<TableCheckpoint>,
    /// Scheduling tag broadcast by this uop if it is an in-flight load
    /// (set at issue, used to steer replay on a miss).
    load_tag: Option<Tag>,
}

#[derive(Debug, Clone)]
enum Ev {
    /// A uop reaches the execute stage (`gen` guards against replays).
    Exec { id: UopId, gen: u32 },
    /// A load's DL1 outcome is known.
    LoadResolve {
        id: UopId,
        gen: u32,
        tag: Option<Tag>,
        hit: bool,
        data_ready: u64,
    },
}

/// The timing simulator. Construct with a [`MachineConfig`] preset and a
/// [`TraceSource`], then [`Simulator::run`].
pub struct Simulator<T: TraceSource> {
    cfg: MachineConfig,
    trace: T,
    program: Program,
    oracle_done: bool,

    // Front end.
    predictor: CombinedPredictor,
    btb: Btb,
    ras: ReturnAddressStack,
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    fetch_pc: u32,
    wrong_path: bool,
    fetch_stall_until: u64,
    /// End of the post-squash redirect bubble (for slot attribution:
    /// distinguishes recovery stalls from ordinary I-miss fetch stalls).
    redirect_until: u64,
    front: VecDeque<FrontGroup>,
    /// Emptied `FrontGroup::insts` buffers, reused by fetch.
    spare_insts: Vec<Vec<FrontInst>>,
    next_id: u64,

    // Macro-op machinery.
    pointers: MopPointerStore,
    detector: MopDetector,
    former: Former,
    /// Pending MOP heads awaiting their tail, `(pair id, entry)`. Only a
    /// handful are ever live at once (pairs fuse within a fetch group or
    /// two), so a linear-scanned vector beats a hash map here.
    entry_map: Vec<(u64, EntryId)>,

    // Back end.
    queue: IssueQueue,
    rob: VecDeque<RobEntry>,
    events: Wheel<Ev>,
    /// In-flight store addresses (8-byte aligned) with refcounts, for
    /// store-to-load forwarding. Bounded by ROB stores; linear scan.
    store_inflight: Vec<(u64, u32)>,

    now: u64,
    last_commit_cycle: u64,
    stats: SimStats,
    /// Per-instruction pipeline timelines, fed from the trace-event
    /// stream (enabling it enables tracing).
    timeline: Option<Timeline>,
    /// Interval metric snapshots; `None` (the default) costs one
    /// `is_some()` check per cycle.
    metrics: Option<Box<SimMetrics>>,
    /// Slot causes the queue cannot see (frontend / wrong-path /
    /// drained); `None` (the default) disables all slot accounting.
    slot_counts: Option<Box<SlotCounts>>,
    /// Insert was denied by the IQ/ROB resource check this cycle.
    insert_blocked: bool,

    // Event tracing. `tracing` is the single gate: when false (release
    // default) no event value is ever constructed anywhere in the
    // pipeline or the queue.
    tracing: bool,
    sink: Option<Box<dyn EventSink>>,
    orc: Option<InvariantOracle>,

    // Reusable per-cycle scratch (hoisted out of the hot loop).
    issue_buf: Vec<Issued>,
    replay_buf: Vec<UopId>,
    detect_buf: Vec<DetectInst>,
    form_buf: Vec<FormedItem>,
    trace_buf: Vec<TraceEvent>,
    ptr_install_buf: Vec<(u32, u64)>,
    ptr_evict_buf: Vec<u32>,
}

impl<T: TraceSource> Simulator<T> {
    /// Build a simulator over `trace` with machine `cfg`.
    pub fn new(cfg: MachineConfig, trace: T) -> Simulator<T> {
        let program = trace.program().clone();
        let fetch_pc = program.entry();
        #[allow(unused_mut)]
        let mut sim = Simulator {
            predictor: CombinedPredictor::new(&cfg.branch),
            btb: Btb::new(cfg.branch.btb_entries, cfg.branch.btb_ways),
            ras: ReturnAddressStack::new(cfg.branch.ras_depth),
            il1: Cache::new(cfg.il1.clone()),
            dl1: Cache::new(cfg.dl1.clone()),
            l2: Cache::new(cfg.l2.clone()),
            fetch_pc,
            wrong_path: false,
            fetch_stall_until: 0,
            redirect_until: 0,
            front: VecDeque::new(),
            spare_insts: Vec::new(),
            next_id: 0,
            pointers: MopPointerStore::new(),
            detector: MopDetector::new(
                cfg.sched.mop.clone(),
                cfg.sched.max_entry_sources(),
                cfg.fetch_width,
            ),
            former: Former::new(cfg.mops_enabled(), cfg.sched.mop.max_mop_size),
            entry_map: Vec::new(),
            queue: IssueQueue::new(cfg.sched.clone()),
            rob: VecDeque::new(),
            events: Wheel::new(Self::event_horizon(&cfg)),
            store_inflight: Vec::new(),
            now: 0,
            last_commit_cycle: 0,
            stats: SimStats::default(),
            timeline: None,
            metrics: None,
            slot_counts: None,
            insert_blocked: false,
            tracing: false,
            sink: None,
            orc: None,
            issue_buf: Vec::new(),
            replay_buf: Vec::new(),
            detect_buf: Vec::new(),
            form_buf: Vec::new(),
            trace_buf: Vec::new(),
            ptr_install_buf: Vec::new(),
            ptr_evict_buf: Vec::new(),
            oracle_done: false,
            program,
            trace,
            cfg,
        };
        // Debug builds watch every run with a panicking invariant oracle:
        // the whole test suite doubles as a scheduling-legality suite.
        // Release builds (benches, experiments, the default CLI) pay
        // nothing.
        #[cfg(debug_assertions)]
        sim.attach_oracle(OracleMode::Panic);
        // Debug builds also account every issue slot, so the whole test
        // suite doubles as a conservation-law suite (the per-cycle
        // `debug_assert` in `step`).
        #[cfg(debug_assertions)]
        sim.enable_slot_accounting();
        sim
    }

    /// The farthest ahead of the present any event is scheduled: an
    /// `Exec` for the last member of a MOP issued now, or a
    /// `LoadResolve` from a load executing now.
    fn event_horizon(cfg: &MachineConfig) -> u64 {
        let exec = u64::from(cfg.exec_offset) + cfg.sched.mop.max_mop_size.max(1) as u64 - 1;
        exec.max(u64::from(cfg.dl1.hit_latency))
    }

    /// Attach an event sink; enables tracing for the rest of the run.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
        self.enable_tracing();
    }

    /// Attach a fresh [`InvariantOracle`] in `mode` (replacing any
    /// previous one); enables tracing for the rest of the run.
    pub fn attach_oracle(&mut self, mode: OracleMode) {
        self.orc = Some(InvariantOracle::new(&self.cfg.sched, mode));
        self.enable_tracing();
    }

    /// The attached invariant oracle, if any.
    pub fn oracle(&self) -> Option<&InvariantOracle> {
        self.orc.as_ref()
    }

    fn enable_tracing(&mut self) {
        self.tracing = true;
        self.queue.set_tracing(true);
    }

    /// Count an event and deliver it to the timeline, the sink and the
    /// oracle. An associated fn so call sites can hold disjoint borrows
    /// of other `self` fields.
    fn emit(
        stats: &mut SimStats,
        timeline: &mut Option<Timeline>,
        sink: &mut Option<Box<dyn EventSink>>,
        orc: &mut Option<InvariantOracle>,
        ev: TraceEvent,
    ) {
        stats.events.record(&ev);
        if let Some(t) = timeline {
            t.observe(&ev);
        }
        if let Some(s) = sink {
            s.emit(&ev);
        }
        if let Some(o) = orc {
            o.emit(&ev);
        }
    }

    /// Forward everything the queue buffered since the last drain,
    /// stamped with the simulator's clock.
    #[inline]
    fn drain_queue_trace(&mut self) {
        if !self.tracing {
            return;
        }
        let mut buf = std::mem::take(&mut self.trace_buf);
        self.queue.drain_trace_into(self.now, &mut buf);
        for ev in buf.drain(..) {
            Self::emit(
                &mut self.stats,
                &mut self.timeline,
                &mut self.sink,
                &mut self.orc,
                ev,
            );
        }
        self.trace_buf = buf;
    }

    /// Run until `max_commits` instructions have committed or the trace
    /// drains. Returns the statistics snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (no commit for a very long time
    /// with work outstanding) — that is a simulator bug, not a caller
    /// error.
    pub fn run(&mut self, max_commits: u64) -> SimStats {
        while self.stats.committed < max_commits {
            self.step();
            if self.oracle_done && self.rob.is_empty() && self.front.is_empty() {
                break;
            }
            assert!(
                self.now - self.last_commit_cycle < 500_000,
                "pipeline deadlock at cycle {} (rob {} front {} queue {})",
                self.now,
                self.rob.len(),
                self.front.len(),
                self.queue.occupancy()
            );
        }
        self.snapshot()
    }

    /// Current statistics (also usable mid-run).
    pub fn snapshot(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.now;
        s.queue = self.queue.stats();
        s.detect = self.detector.stats();
        s.form = self.former.stats();
        s.pointers = self.pointers.stats();
        s.il1 = self.il1.stats();
        s.l2 = self.l2.stats();
        s.events.dropped = self.sink.as_ref().map_or(0, |k| k.dropped());
        if let Some(c) = self.slot_counts.as_deref() {
            s.slots = *c;
            if let Some(q) = self.queue.slot_counts() {
                s.slots.merge(q);
            }
        }
        s
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Record per-instruction pipeline timelines for the first `cap`
    /// uops entering the pipe (see [`crate::timeline::Timeline`]). The
    /// timelines are reconstructed from the trace-event stream, so this
    /// enables event tracing for the rest of the run.
    pub fn enable_timeline(&mut self, cap: usize) {
        self.timeline = Some(Timeline::new(cap));
        self.enable_tracing();
    }

    /// The recorded timelines, if [`Simulator::enable_timeline`] was
    /// called.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Collect interval metric snapshots every `interval` cycles (see
    /// [`crate::metrics::SimMetrics`]) and turn on the issue queue's
    /// histograms. Unlike tracing this does not construct events; the
    /// per-cycle cost is a couple of histogram increments.
    pub fn enable_metrics(&mut self, interval: u64) {
        self.queue.set_metrics(true);
        self.metrics = Some(Box::new(SimMetrics::new(interval)));
    }

    /// Close the final partial interval row (idempotent; call after
    /// [`Simulator::run`] and before reading [`Simulator::metrics`]).
    pub fn finish_metrics(&mut self) {
        if self.metrics.is_none() {
            return;
        }
        let cum = self.cumulative();
        let now = self.now;
        if let Some(m) = self.metrics.as_deref_mut() {
            m.finish(now, cum);
        }
    }

    /// The interval metric collector, if [`Simulator::enable_metrics`]
    /// was called.
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.metrics.as_deref()
    }

    /// The issue queue's metric histograms, if metrics are enabled.
    pub fn queue_metrics(&self) -> Option<&mos_core::queue::QueueMetrics> {
        self.queue.metrics()
    }

    /// Turn on top-down issue-slot accounting (the `cpistack` taxonomy):
    /// every cycle × issue-slot is charged to exactly one
    /// [`SlotCause`], and the per-cause totals land in
    /// [`SimStats::slots`]. Observation only — simulated timing is
    /// unchanged. Must be enabled before the first cycle so the
    /// conservation law (`total == cycles × issue_width`) holds;
    /// idempotent, and debug builds enable it automatically.
    pub fn enable_slot_accounting(&mut self) {
        assert_eq!(self.now, 0, "enable slot accounting before the first cycle");
        if self.slot_counts.is_none() {
            self.slot_counts = Some(Box::default());
            self.queue.set_slot_accounting(true);
        }
    }

    /// `true` when slot accounting is enabled.
    pub fn slot_accounting(&self) -> bool {
        self.slot_counts.is_some()
    }

    /// Gather the cumulative counter values the interval series rows are
    /// deltas of.
    fn cumulative(&self) -> Cum {
        let q = self.queue.stats();
        let p = self.pointers.stats();
        let (delay_sum, delay_count) = self
            .queue
            .metrics()
            .map_or((0, 0), |m| (m.wakeup_select_delay.sum(), m.wakeup_select_delay.count()));
        Cum {
            cycles: self.now,
            committed: self.stats.committed,
            grouped: self.stats.roles[SimStats::role_index(GroupRole::MopIndependent)]
                + self.stats.roles[SimStats::role_index(GroupRole::MopNonValueGen)]
                + self.stats.roles[SimStats::role_index(GroupRole::MopValueGen)],
            replayed_uops: q.load_replay_uops,
            pointer_hits: self.stats.pointer_hits,
            pointer_evicts: p.1 + p.2,
            occupancy_integral: q.occupancy_integral,
            delay_sum,
            delay_count,
        }
    }

    fn rob_index(&self, id: UopId) -> Option<usize> {
        self.rob.binary_search_by_key(&id, |e| e.id).ok()
    }

    /// Advance one cycle.
    fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        self.insert_blocked = false;

        // 1. Execution/resolution events.
        let mut evs = self.events.take(now);
        for ev in evs.drain(..) {
            self.handle_event(ev);
        }
        self.events.restore(now, evs);

        // 2. Rename / MOP formation / queue insertion.
        self.insert_stage();
        self.drain_queue_trace();

        // 3. Wakeup/select.
        if self.tracing {
            let mut installs = std::mem::take(&mut self.ptr_install_buf);
            installs.clear();
            self.pointers.tick_into(now, &mut installs);
            for &(head_sidx, line) in &installs {
                Self::emit(
                    &mut self.stats,
                    &mut self.timeline,
                    &mut self.sink,
                    &mut self.orc,
                    TraceEvent::PointerInstall {
                        cycle: now,
                        head_sidx,
                        line,
                    },
                );
            }
            self.ptr_install_buf = installs;
        } else {
            self.pointers.tick(now);
        }
        let mut issued = std::mem::take(&mut self.issue_buf);
        self.queue.cycle_into(now, &mut issued);
        if let Some(c) = self.slot_counts.as_deref_mut() {
            // Idle slots the queue could not blame on a waiting entry:
            // the machine-level context decides — wrong-path fetch or the
            // post-squash redirect bubble, frontend (IQ/ROB-full)
            // back-pressure, or a genuinely drained window.
            let empty = self.queue.unattributed_slots();
            if empty > 0 {
                let cause = if self.wrong_path || now < self.redirect_until {
                    SlotCause::WrongPath
                } else if self.insert_blocked {
                    SlotCause::Frontend
                } else {
                    SlotCause::Drained
                };
                c.add(cause, empty);
            }
        }
        self.drain_queue_trace();
        for iss in &issued {
            self.handle_issue(iss);
        }
        self.issue_buf = issued;

        // 4. In-order commit.
        self.commit_stage();

        // 5. Fetch.
        self.fetch_stage();

        if now.is_multiple_of(4096) {
            self.queue.prune_tags(4096);
        }

        // 6. Interval metric snapshot, landing exactly on multiples of
        // the interval (the clock advances one cycle per step).
        if self.metrics.as_deref().is_some_and(|m| m.due(now)) {
            let cum = self.cumulative();
            if let Some(m) = self.metrics.as_deref_mut() {
                m.sample(now, cum);
            }
        }

        // The conservation law, checked every cycle like the scheduling
        // oracle: charged slots must equal the slots the machine offered.
        #[cfg(debug_assertions)]
        if let Some(c) = self.slot_counts.as_deref() {
            let mut total = *c;
            if let Some(q) = self.queue.slot_counts() {
                total.merge(q);
            }
            if let Err(e) =
                total.check_conservation(now, self.cfg.sched.issue_width as u64)
            {
                panic!("{e} (at cycle {now})");
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self) {
        let now = self.now;
        if self.fetch_stall_until > now || self.front.len() >= 8 {
            return;
        }
        // One I-cache line feeds a fetch group.
        let line_mask = !(self.cfg.il1.line_bytes as u64 - 1);
        let first_pc = match self.program.inst(self.fetch_pc) {
            Some(_) => self.program.pc_of(self.fetch_pc),
            None => return, // wrong path ran off the code image
        };
        let access = self.il1.access(first_pc);
        if let Some(evicted) = access.evicted {
            if self.tracing {
                let mut dropped = std::mem::take(&mut self.ptr_evict_buf);
                dropped.clear();
                self.pointers.invalidate_line_into(evicted, &mut dropped);
                for &head_sidx in &dropped {
                    Self::emit(
                        &mut self.stats,
                        &mut self.timeline,
                        &mut self.sink,
                        &mut self.orc,
                        TraceEvent::PointerEvict {
                            cycle: now,
                            head_sidx,
                            line: evicted,
                            filtered: false,
                        },
                    );
                }
                self.ptr_evict_buf = dropped;
            } else {
                self.pointers.invalidate_line(evicted);
            }
        }
        if !access.hit {
            // Miss into the unified L2.
            let l2 = self.l2.access(first_pc);
            let latency = self.cfg.il1.hit_latency
                + self.cfg.l2.hit_latency
                + if l2.hit { 0 } else { self.cfg.memory_latency };
            self.fetch_stall_until = now + u64::from(latency);
            return;
        }

        let mut insts = self
            .spare_insts
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.cfg.fetch_width));
        for _ in 0..self.cfg.fetch_width {
            let sidx = self.fetch_pc;
            let Some(inst) = self.program.inst(sidx).copied() else {
                break;
            };
            if self.program.pc_of(sidx) & line_mask != first_pc & line_mask {
                break; // next line, next cycle
            }
            // Oracle record for correct-path fetch.
            let dyn_ = if self.wrong_path {
                None
            } else {
                match self.trace.next() {
                    Some(d) => Some(d),
                    None => {
                        self.oracle_done = true;
                        break;
                    }
                }
            };
            if let Some(d) = dyn_ {
                debug_assert_eq!(d.sidx, sidx, "oracle and fetch must agree");
            }

            let (mut pred_taken, mut pred_next, ghr_cp, ras_snap) = self.predict(sidx, &inst);
            if self.cfg.ideal_branch {
                if let Some(d) = dyn_ {
                    pred_taken = d.taken;
                    pred_next = d.next_sidx;
                }
            }
            let (mispredicted, actual_taken, actual_next) = match dyn_ {
                Some(d) => {
                    let actual_next = d.next_sidx;
                    let wrong = pred_next != actual_next || pred_taken != d.taken;
                    (wrong, d.taken, actual_next)
                }
                None => (false, pred_taken, pred_next),
            };

            let pointer = if self.cfg.mops_enabled() {
                self.pointers.lookup(sidx)
            } else {
                None
            };
            if pointer.is_some() {
                self.stats.pointer_hits += 1;
            }

            self.stats.fetched += 1;
            if self.wrong_path {
                self.stats.wrong_path_fetched += 1;
            }
            if self.tracing {
                Self::emit(
                    &mut self.stats,
                    &mut self.timeline,
                    &mut self.sink,
                    &mut self.orc,
                    TraceEvent::Fetch {
                        cycle: now,
                        sidx,
                        wrong_path: self.wrong_path,
                        pointer: pointer.is_some(),
                    },
                );
                if let Some(p) = pointer {
                    Self::emit(
                        &mut self.stats,
                        &mut self.timeline,
                        &mut self.sink,
                        &mut self.orc,
                        TraceEvent::PointerHit {
                            cycle: now,
                            head_sidx: sidx,
                            tail_sidx: p.tail_sidx,
                        },
                    );
                }
            }
            insts.push(FrontInst {
                sidx,
                dyn_,
                stream_taken: pred_taken,
                pointer,
                mispredicted,
                actual_taken,
                actual_next,
                ghr_cp,
                ras_snap,
            });

            if mispredicted {
                self.wrong_path = true;
            }
            self.fetch_pc = pred_next;
            if pred_taken {
                break; // fetch stops at the first taken branch
            }
        }
        if insts.is_empty() {
            self.spare_insts.push(insts);
        } else {
            self.front.push_back(FrontGroup {
                insts,
                fetched_at: now,
                ready_at: now + self.cfg.front_delay(),
            });
        }
    }

    /// Predict direction and next fetch index for `inst` at `sidx`;
    /// returns `(taken, next, ghr checkpoint, RAS snapshot)`.
    fn predict(
        &mut self,
        sidx: u32,
        inst: &StaticInst,
    ) -> (bool, u32, u64, Option<(usize, Vec<u64>)>) {
        let pc = self.program.pc_of(sidx);
        match inst.class() {
            InstClass::CondBranch => {
                let (taken, cp) = self.predictor.predict(pc);
                let next = if taken {
                    inst.target().expect("validated branch")
                } else {
                    sidx + 1
                };
                (taken, next, cp, Some(self.ras.snapshot()))
            }
            InstClass::Jump => (true, inst.target().expect("validated jump"), 0, None),
            InstClass::Call => {
                self.ras.push(self.program.pc_of(sidx + 1));
                (
                    true,
                    inst.target().expect("validated call"),
                    0,
                    Some(self.ras.snapshot()),
                )
            }
            InstClass::Return => {
                let target = self.ras.pop();
                let next = self.program.index_of_pc(target).unwrap_or(sidx + 1);
                (true, next, 0, Some(self.ras.snapshot()))
            }
            InstClass::IndirectJump => {
                let next = self
                    .btb
                    .lookup(pc)
                    .and_then(|t| self.program.index_of_pc(t))
                    .unwrap_or(sidx + 1);
                (true, next, 0, Some(self.ras.snapshot()))
            }
            _ => (false, sidx + 1, 0, None),
        }
    }

    // ------------------------------------------------------------------
    // Rename / formation / insertion
    // ------------------------------------------------------------------

    fn insert_stage(&mut self) {
        let now = self.now;
        let Some(group) = self.front.front() else {
            return;
        };
        if group.ready_at > now {
            return;
        }
        let n = group.insts.len();
        // Conservative resource check: every instruction may need an entry
        // (fused tails actually will not).
        if self.queue.free_entries() < n || self.rob.len() + n > self.cfg.rob_entries {
            self.insert_blocked = true;
            return;
        }
        let mut group = self.front.pop_front().expect("checked above");

        let mut detect_group = std::mem::take(&mut self.detect_buf);
        detect_group.clear();
        let mut items = std::mem::take(&mut self.form_buf);
        self.former.begin_group();
        for fi in group.insts.drain(..) {
            let inst = *self.program.inst(fi.sidx).expect("fetched inst exists");
            if inst.class() == InstClass::Nop || inst.class() == InstClass::Halt {
                continue; // the decoder filters no-ops without executing
            }
            let id = UopId(self.next_id);
            self.next_id += 1;

            let renamed = RenamedInst {
                id,
                sidx: fi.sidx,
                class: inst.class(),
                dst: inst.dst(),
                srcs: inst.dep_srcs(),
                taken: fi.stream_taken,
                taken_indirect: matches!(
                    inst.class(),
                    InstClass::IndirectJump | InstClass::Return
                ),
                pointer: fi.pointer,
                is_candidate: inst.is_mop_candidate(),
                is_valuegen: inst.is_value_generating_candidate(),
                fetched_at: group.fetched_at,
                wrong_path: fi.dyn_.is_none(),
            };
            self.former.feed(&renamed, &mut items);
            let role = self.apply_form_items(&mut items);

            // Branches that can squash record recovery state.
            let can_squash = matches!(
                inst.class(),
                InstClass::CondBranch | InstClass::IndirectJump | InstClass::Return
            );
            let table_cp = can_squash.then(|| self.former.checkpoint());

            self.rob.push_back(RobEntry {
                id,
                sidx: fi.sidx,
                class: inst.class(),
                dyn_: fi.dyn_,
                role,
                complete_at: None,
                issue_gen: 0,
                branch_resolved: false,
                mispredicted: fi.mispredicted,
                actual_taken: fi.actual_taken,
                actual_next: fi.actual_next,
                ghr_cp: fi.ghr_cp,
                ras_snap: fi.ras_snap,
                table_cp,
                load_tag: None,
            });

            // Track in-flight store addresses for forwarding.
            if inst.class() == InstClass::Store {
                if let Some(addr) = fi.dyn_.and_then(|d| d.eff_addr) {
                    let key = addr & !7;
                    match self.store_inflight.iter_mut().find(|(a, _)| *a == key) {
                        Some((_, c)) => *c += 1,
                        None => self.store_inflight.push((key, 1)),
                    }
                }
            }

            // Detection examines the correct-path renamed stream.
            if self.cfg.mops_enabled() {
                if let Some(d) = fi.dyn_ {
                    detect_group.push(DetectInst::from_dyn(&self.program, &d));
                }
            }
        }
        self.former.end_group(&mut items);
        self.apply_form_items(&mut items);
        self.form_buf = items;
        self.spare_insts.push(group.insts);

        if self.cfg.mops_enabled() && !detect_group.is_empty() {
            let pairs = {
                let pointers = &self.pointers;
                self.detector.step(
                    &detect_group,
                    |s| pointers.has_pointer(s),
                    |h, t| pointers.is_blacklisted(h, t),
                )
            };
            let ready = now + self.cfg.sched.mop.detection_delay;
            for p in pairs {
                if self.tracing {
                    Self::emit(
                        &mut self.stats,
                        &mut self.timeline,
                        &mut self.sink,
                        &mut self.orc,
                        TraceEvent::MopDetect {
                            cycle: now,
                            head_sidx: p.head_sidx,
                            tail_sidx: p.pointer.tail_sidx,
                            offset: p.pointer.offset,
                            control: p.pointer.control,
                            independent: p.pointer.independent,
                            visible_at: ready,
                        },
                    );
                }
                self.pointers
                    .schedule_install(p.head_sidx, p.pointer, p.head_line, ready);
            }
        }
        self.detect_buf = detect_group;
    }

    /// Apply (and drain) formation steering to the queue; returns the role
    /// of the last inserted/fused uop (the role recorded in the ROB).
    fn apply_form_items(&mut self, items: &mut Vec<FormedItem>) -> GroupRole {
        let mut role = GroupRole::NotCandidate;
        for item in items.drain(..) {
            match item {
                FormedItem::Single(uop) => {
                    role = uop.role;
                    self.queue.insert(uop).expect("space checked before group");
                }
                FormedItem::HeadPending { head, pair_id } => {
                    role = head.role;
                    let eid = self
                        .queue
                        .insert_mop_head(head)
                        .expect("space checked before group");
                    self.entry_map.push((pair_id, eid));
                }
                FormedItem::TailFuse {
                    tail,
                    pair_id,
                    chain_more,
                } => {
                    role = tail.role;
                    let found = self
                        .entry_map
                        .iter()
                        .position(|&(p, _)| p == pair_id)
                        .map(|i| (i, self.entry_map[i].1));
                    match found {
                        Some((i, eid)) if self.queue.can_fuse(eid) => {
                            self.queue.fuse_tail(eid, tail).expect("checked fusible");
                            if chain_more {
                                self.queue.mark_pending(eid);
                            } else {
                                self.entry_map.swap_remove(i);
                            }
                        }
                        // Entry vanished (squash race): insert alone.
                        _ => {
                            self.queue.insert(tail).expect("space checked");
                        }
                    }
                }
                FormedItem::Cancel { pair_id } => {
                    if let Some(i) = self.entry_map.iter().position(|&(p, _)| p == pair_id) {
                        let (_, eid) = self.entry_map.swap_remove(i);
                        self.queue.cancel_pending(eid);
                    }
                }
            }
        }
        role
    }

    // ------------------------------------------------------------------
    // Issue & execution
    // ------------------------------------------------------------------

    fn handle_issue(&mut self, iss: &Issued) {
        let is_mop = iss.uops.len() > 1;
        if is_mop {
            self.stats.mop_entries_issued += 1;
            self.maybe_filter_last_arrival(iss);
        }
        for (k, uop) in iss.uops.iter().enumerate() {
            let Some(idx) = self.rob_index(uop.id) else {
                continue; // squashed between select and bookkeeping
            };
            let entry = &mut self.rob[idx];
            entry.issue_gen += 1;
            let gen = entry.issue_gen;
            // Final grouping classification: a lone uop in an entry was
            // not (or no longer is) part of a MOP.
            entry.role = if is_mop {
                uop.role
            } else {
                match uop.role {
                    GroupRole::MopValueGen
                    | GroupRole::MopNonValueGen
                    | GroupRole::MopIndependent
                    | GroupRole::NotGrouped => GroupRole::NotGrouped,
                    GroupRole::NotCandidate => GroupRole::NotCandidate,
                }
            };
            if uop.is_load {
                if let Some(t) = uop.dst {
                    self.rob[idx].load_tag = Some(t);
                }
            }
            let exec_at = iss.issue_cycle + u64::from(self.cfg.exec_offset) + k as u64;
            if self.tracing {
                Self::emit(
                    &mut self.stats,
                    &mut self.timeline,
                    &mut self.sink,
                    &mut self.orc,
                    TraceEvent::Issue {
                        cycle: iss.issue_cycle,
                        id: uop.id,
                        sidx: uop.sidx,
                        exec_at,
                        mop: is_mop,
                    },
                );
            }
            self.events.push(self.now, exec_at, Ev::Exec { id: uop.id, gen });
        }
    }

    /// The last-arriving-operand filter (Section 5.4.2, Figure 12): if the
    /// operand that gated this MOP's issue belongs to the tail while the
    /// head had been ready earlier, delete the pointer and blacklist the
    /// pair so detection finds an alternative.
    fn maybe_filter_last_arrival(&mut self, iss: &Issued) {
        if !self.cfg.sched.mop.last_arrival_filter {
            return;
        }
        let head = &iss.uops[0];
        if head.role == GroupRole::MopIndependent {
            return; // identical sources: nothing to filter
        }
        let mop_tag = head.dst;
        let head_ready = head
            .srcs
            .iter()
            .filter_map(|&t| self.queue.tag_ready_time(t))
            .max()
            .unwrap_or(0);
        let tail_ready = iss.uops[1..]
            .iter()
            .flat_map(|u| u.srcs.iter())
            .filter(|&&t| Some(t) != mop_tag && !head.srcs.contains(&t))
            .filter_map(|&t| self.queue.tag_ready_time(t))
            .max();
        if let Some(tail_ready) = tail_ready {
            if tail_ready > head_ready + 1 && tail_ready + 2 >= iss.issue_cycle {
                let deleted = self.pointers.delete_and_blacklist(head.sidx);
                self.stats.last_arrival_filtered += 1;
                if deleted && self.tracing {
                    Self::emit(
                        &mut self.stats,
                        &mut self.timeline,
                        &mut self.sink,
                        &mut self.orc,
                        TraceEvent::PointerEvict {
                            cycle: iss.issue_cycle,
                            head_sidx: head.sidx,
                            line: 0,
                            filtered: true,
                        },
                    );
                }
            }
        }
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::Exec { id, gen } => self.exec_uop(id, gen),
            Ev::LoadResolve {
                id,
                gen,
                tag,
                hit,
                data_ready,
            } => {
                // Drop stale resolutions from replaced issues.
                if let Some(idx) = self.rob_index(id) {
                    if self.rob[idx].issue_gen != gen {
                        return;
                    }
                } else {
                    return;
                }
                if let Some(tag) = tag {
                    // Replayed uops must not commit on (or be completed
                    // by) their stale execution: clear the completion and
                    // bump the generation so in-flight Exec/LoadResolve
                    // events from the cancelled issue are dropped.
                    let mut replayed = std::mem::take(&mut self.replay_buf);
                    self.queue.load_resolved_into(tag, hit, data_ready, &mut replayed);
                    self.drain_queue_trace();
                    for &rid in &replayed {
                        if let Some(k) = self.rob_index(rid) {
                            self.rob[k].complete_at = None;
                            self.rob[k].issue_gen += 1;
                        }
                    }
                    self.replay_buf = replayed;
                }
            }
        }
    }

    fn exec_uop(&mut self, id: UopId, gen: u32) {
        let now = self.now;
        let Some(idx) = self.rob_index(id) else {
            return; // squashed
        };
        if self.rob[idx].issue_gen != gen {
            return; // superseded by a replay re-issue
        }
        let class = self.rob[idx].class;
        let dyn_ = self.rob[idx].dyn_;
        match class {
            InstClass::Load => {
                let (latency, hit) = match dyn_.and_then(|d| d.eff_addr) {
                    Some(_) if self.cfg.ideal_memory => (self.cfg.dl1.hit_latency, true),
                    Some(addr) => {
                        let key = addr & !7;
                        if self.store_inflight.iter().any(|&(a, _)| a == key) {
                            // Store-to-load forwarding: hit-equivalent.
                            self.stats.load_forwards += 1;
                            self.stats.dl1.0 += 1;
                            (self.cfg.dl1.hit_latency, true)
                        } else {
                            let a = self.dl1.access(addr);
                            if a.hit {
                                self.stats.dl1.0 += 1;
                                (self.cfg.dl1.hit_latency, true)
                            } else {
                                self.stats.dl1.1 += 1;
                                let l2 = self.l2.access(addr);
                                let lat = self.cfg.dl1.hit_latency
                                    + self.cfg.l2.hit_latency
                                    + if l2.hit { 0 } else { self.cfg.memory_latency };
                                (lat, false)
                            }
                        }
                    }
                    // Wrong-path load: assume a hit, no cache pollution.
                    None => (self.cfg.dl1.hit_latency, true),
                };
                let entry = &mut self.rob[idx];
                entry.complete_at = Some(now + u64::from(latency));
                // The dependent-visible data time on the scheduling scale:
                // issue + agen(1) + memory latency. exec = issue + offset.
                let issue_cycle = now - u64::from(self.cfg.exec_offset);
                let data_ready = issue_cycle + 1 + u64::from(latency);
                let discovery = now + u64::from(self.cfg.dl1.hit_latency);
                // This load's broadcast tag (MOP-translated) was recorded
                // on its ROB entry at issue.
                let tag = self.rob[idx].load_tag;
                self.events.push(
                    now,
                    discovery,
                    Ev::LoadResolve {
                        id,
                        gen,
                        tag,
                        hit,
                        data_ready,
                    },
                );
            }
            InstClass::Store => {
                self.rob[idx].complete_at = Some(now + 1);
            }
            InstClass::CondBranch | InstClass::IndirectJump | InstClass::Return => {
                self.rob[idx].complete_at = Some(now + 1);
                if dyn_.is_some() && !self.rob[idx].branch_resolved {
                    self.rob[idx].branch_resolved = true;
                    self.resolve_branch(idx);
                }
            }
            _ => {
                let lat = u64::from(class.exec_latency());
                self.rob[idx].complete_at = Some(now + lat);
            }
        }
    }

    fn resolve_branch(&mut self, idx: usize) {
        let now = self.now;
        let e = &self.rob[idx];
        let pc = self.program.pc_of(e.sidx);
        let (id, mispredicted, actual_taken, actual_next) =
            (e.id, e.mispredicted, e.actual_taken, e.actual_next);
        let ghr_cp = e.ghr_cp;
        let class = e.class;

        if class == InstClass::CondBranch {
            self.predictor.update(pc, actual_taken, ghr_cp);
        }
        if class == InstClass::IndirectJump {
            self.btb.update(pc, self.program.pc_of(actual_next));
        }
        if !mispredicted {
            return;
        }

        // --- Squash ---
        let ras_snap = self.rob[idx].ras_snap.clone();
        let table_cp = self.rob[idx].table_cp.clone();
        self.stats.squashes += 1;
        if self.tracing {
            let branch_sidx = self.rob[idx].sidx;
            Self::emit(
                &mut self.stats,
                &mut self.timeline,
                &mut self.sink,
                &mut self.orc,
                TraceEvent::Squash {
                    cycle: now,
                    from: UopId(id.0 + 1),
                    branch_sidx,
                },
            );
        }
        self.queue.squash_from(UopId(id.0 + 1));
        while self.rob.back().is_some_and(|b| b.id > id) {
            let b = self.rob.pop_back().expect("checked above");
            // Wrong-path stores never entered store_inflight (no oracle
            // address), so nothing to unwind there; the load tag dies with
            // the ROB entry.
            debug_assert!(b.dyn_.is_none(), "only wrong-path uops are squashed");
        }
        for g in self.front.drain(..) {
            let mut insts = g.insts;
            insts.clear();
            self.spare_insts.push(insts);
        }
        self.entry_map.clear();
        if let Some(cp) = table_cp {
            self.former.squash(&cp);
        }
        self.predictor.restore_history(ghr_cp, actual_taken);
        if let Some(snap) = ras_snap {
            self.ras.restore(snap);
        }
        self.detector.reset_window();
        self.wrong_path = false;
        self.fetch_pc = actual_next;
        self.fetch_stall_until = now + 2; // redirect bubble
        self.redirect_until = now + 2;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit_stage(&mut self) {
        let now = self.now;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else {
                return;
            };
            if head.complete_at.is_none_or(|c| c > now) {
                return;
            }
            let head = self.rob.pop_front().expect("checked above");
            debug_assert!(head.dyn_.is_some(), "wrong-path uop reached commit");
            self.stats.committed += 1;
            self.last_commit_cycle = now;
            if self.tracing {
                Self::emit(
                    &mut self.stats,
                    &mut self.timeline,
                    &mut self.sink,
                    &mut self.orc,
                    TraceEvent::Commit {
                        cycle: now,
                        id: head.id,
                        sidx: head.sidx,
                        complete_at: head.complete_at.unwrap_or(now),
                    },
                );
            }
            self.stats.roles[SimStats::role_index(head.role)] += 1;
            match head.class {
                InstClass::CondBranch => {
                    self.stats.branches += 1;
                    if head.mispredicted {
                        self.stats.mispredicts += 1;
                    }
                }
                InstClass::IndirectJump | InstClass::Return
                    if head.mispredicted => {
                        self.stats.mispredicts += 1;
                    }
                InstClass::Load => {
                    self.stats.loads += 1;
                }
                InstClass::Store => {
                    self.stats.stores += 1;
                    if let Some(addr) = head.dyn_.and_then(|d| d.eff_addr) {
                        // Retire the forwarding entry and write the cache.
                        let key = addr & !7;
                        if let Some(i) =
                            self.store_inflight.iter().position(|&(a, _)| a == key)
                        {
                            self.store_inflight[i].1 -= 1;
                            if self.store_inflight[i].1 == 0 {
                                self.store_inflight.swap_remove(i);
                            }
                        }
                        self.dl1.access(addr);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mos_core::WakeupStyle;
    use mos_workload::{kernels, spec2000};

    fn run_kernel(name: &str, cfg: MachineConfig) -> SimStats {
        let k = kernels::by_name(name).unwrap();
        Simulator::new(cfg, k.interpreter()).run(u64::MAX)
    }

    fn run_spec(name: &str, cfg: MachineConfig, n: u64) -> SimStats {
        let t = spec2000::by_name(name).unwrap().trace(42);
        Simulator::new(cfg, t).run(n)
    }

    /// Committed instruction count must equal the functional trace length
    /// minus filtered no-ops, for every kernel and scheduler.
    #[test]
    fn commits_match_functional_execution() {
        for k in kernels::all() {
            let (trace, _) = k.interpreter().run_collect(usize::MAX);
            let expected = trace
                .iter()
                .filter(|d| {
                    let p = k.image().program;
                    p.inst(d.sidx).unwrap().class() != InstClass::Nop
                })
                .count() as u64;
            for cfg in [
                MachineConfig::base_32(),
                MachineConfig::two_cycle_32(),
                MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
                MachineConfig::select_free_scoreboard_32(),
            ] {
                let stats = Simulator::new(cfg, k.interpreter()).run(u64::MAX);
                assert_eq!(
                    stats.committed, expected,
                    "{}: committed mismatch",
                    k.name
                );
            }
        }
    }

    #[test]
    fn base_beats_two_cycle_on_dependent_chains() {
        // A long, tight single-cycle dependence chain: base sustains the
        // 1-cycle recurrence, 2-cycle scheduling halves it.
        let src = "li r1, 3000\nli r2, 0\nloop:\nadd r2, r2, r1\naddi r1, r1, -1\nbnez r1, loop\nhalt";
        let img = mos_asm::assemble(src).unwrap();
        let base = Simulator::new(MachineConfig::base_32(), mos_asm::Interpreter::new(&img))
            .run(u64::MAX);
        let two = Simulator::new(MachineConfig::two_cycle_32(), mos_asm::Interpreter::new(&img))
            .run(u64::MAX);
        assert!(
            base.ipc() > two.ipc() * 1.5,
            "base {:.3} vs 2-cycle {:.3}",
            base.ipc(),
            two.ipc()
        );
    }

    #[test]
    fn macro_op_recovers_two_cycle_loss() {
        let base = run_kernel("sum_loop", MachineConfig::base_32());
        let two = run_kernel("sum_loop", MachineConfig::two_cycle_32());
        let mop = run_kernel(
            "sum_loop",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 0),
        );
        assert!(mop.ipc() > two.ipc(), "mop {:.3} vs two {:.3}", mop.ipc(), two.ipc());
        assert!(mop.ipc() <= base.ipc() * 1.05);
        assert!(mop.grouped_frac() > 0.2, "grouping {:.3}", mop.grouped_frac());
    }

    #[test]
    fn grouping_happens_on_spec_workloads() {
        let mop = run_spec(
            "gzip",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
            30_000,
        );
        assert!(mop.grouped_frac() > 0.15, "grouped {:.3}", mop.grouped_frac());
        assert!(mop.mop_entries_issued > 0);
        assert!(mop.pointers.0 > 0, "pointers installed");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_spec("parser", MachineConfig::base_32(), 20_000);
        let b = run_spec("parser", MachineConfig::base_32(), 20_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.mispredicts, b.mispredicts);
    }

    #[test]
    fn branchy_workload_squashes_and_recovers() {
        let s = run_kernel("bubble_sort", MachineConfig::base_32());
        assert!(s.mispredicts > 0, "data-dependent branches must mispredict");
        assert!(s.squashes > 0);
        assert!(s.wrong_path_fetched > 0, "wrong path is really fetched");
    }

    #[test]
    fn mcf_misses_the_caches() {
        let s = run_spec("mcf", MachineConfig::base_32(), 20_000);
        assert!(s.dl1_miss_rate() > 0.2, "mcf dl1 miss rate {:.3}", s.dl1_miss_rate());
        assert!(s.ipc() < 1.0, "mcf must be memory-bound: {:.3}", s.ipc());
    }

    #[test]
    fn unrestricted_queue_is_no_worse() {
        let small = run_spec("gcc", MachineConfig::base_32(), 20_000);
        let big = run_spec("gcc", MachineConfig::base_unrestricted(), 20_000);
        assert!(big.ipc() >= small.ipc() * 0.98);
    }

    #[test]
    fn select_free_sits_between_base_and_two_cycle() {
        let base = run_spec("gap", MachineConfig::base_32(), 20_000);
        let sfsd = run_spec("gap", MachineConfig::select_free_squash_dep_32(), 20_000);
        let two = run_spec("gap", MachineConfig::two_cycle_32(), 20_000);
        assert!(
            sfsd.ipc() <= base.ipc() * 1.02,
            "squash-dep {:.3} vs base {:.3}",
            sfsd.ipc(),
            base.ipc()
        );
        assert!(
            sfsd.ipc() > two.ipc(),
            "squash-dep {:.3} vs two-cycle {:.3}",
            sfsd.ipc(),
            two.ipc()
        );
    }

    #[test]
    fn scoreboard_no_better_than_squash_dep() {
        let sd = run_spec("gap", MachineConfig::select_free_squash_dep_32(), 20_000);
        let sb = run_spec("gap", MachineConfig::select_free_scoreboard_32(), 20_000);
        assert!(
            sb.ipc() <= sd.ipc() * 1.02,
            "scoreboard {:.3} vs squash-dep {:.3}",
            sb.ipc(),
            sd.ipc()
        );
    }

    #[test]
    fn loads_replay_on_misses() {
        let s = run_spec("mcf", MachineConfig::base_32(), 20_000);
        assert!(s.queue.load_replay_uops > 0, "misses must trigger replays");
    }

    #[test]
    fn swapping_kernel_forwards_from_stores() {
        // Bubble sort re-loads just-stored elements on the next inner
        // iteration while the stores are still in flight.
        let s = run_kernel("bubble_sort", MachineConfig::base_32());
        assert!(s.load_forwards > 0, "swap/reload pattern must forward");
    }

    #[test]
    fn cam_and_wired_or_both_group() {
        let cam = run_spec(
            "gzip",
            MachineConfig::macro_op(WakeupStyle::CamTwoSource, Some(32), 1),
            30_000,
        );
        let wor = run_spec(
            "gzip",
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
            30_000,
        );
        assert!(cam.grouped_frac() > 0.10);
        // Wired-OR has no source-count restriction: at least as many
        // instructions grouped.
        assert!(wor.grouped_frac() >= cam.grouped_frac() * 0.95);
    }

    #[test]
    fn extra_formation_stages_cost_a_little() {
        let s0 = run_spec("gzip", MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 0), 20_000);
        let s2 = run_spec("gzip", MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 2), 20_000);
        assert!(
            s2.ipc() <= s0.ipc() * 1.01,
            "deeper front end cannot help: {:.3} vs {:.3}",
            s2.ipc(),
            s0.ipc()
        );
    }

    #[test]
    fn pointers_die_with_evicted_icache_lines() {
        // A code footprint far beyond the 16KB IL1 (4096 instructions):
        // lines are continuously evicted and must take their MOP pointers
        // with them.
        let mut spec = spec2000::by_name("gzip").unwrap();
        spec.body_len = 6_000;
        let trace = spec.trace(42);
        let stats = Simulator::new(
            MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
            trace,
        )
        .run(60_000);
        assert!(stats.il1.1 > 100, "IL1 must thrash: {} misses", stats.il1.1);
        assert!(
            stats.pointers.1 > 0,
            "evictions must invalidate pointers: {:?}",
            stats.pointers
        );
        // Grouping still happens while lines are resident.
        assert!(stats.grouped_frac() > 0.05, "{:.3}", stats.grouped_frac());
    }

    #[test]
    fn idealization_flags_eliminate_their_stalls() {
        let real = run_spec("crafty", MachineConfig::base_32(), 15_000);
        let ib = run_spec("crafty", MachineConfig::base_32().with_ideal_branch(), 15_000);
        assert_eq!(ib.mispredicts, 0);
        assert_eq!(ib.squashes, 0);
        assert_eq!(ib.wrong_path_fetched, 0);
        assert!(ib.ipc() >= real.ipc());
        let im = run_spec("mcf", MachineConfig::base_32().with_ideal_memory(), 15_000);
        assert_eq!(im.dl1.1, 0, "no demand-load misses when ideal");
        assert_eq!(im.queue.load_replay_uops, 0, "no replays when ideal");
    }

    #[test]
    fn ipc_is_plausible_for_all_kernels() {
        for k in kernels::all() {
            let s = run_kernel(k.name, MachineConfig::base_32());
            assert!(s.ipc() > 0.05 && s.ipc() < 4.0, "{}: ipc {:.3}", k.name, s.ipc());
        }
    }
}
