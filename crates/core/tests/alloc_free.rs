//! The rename → formation → detection path allocates nothing once warm.
//!
//! A counting global allocator tallies this thread's heap allocations
//! while a loop body is replayed, group by group, through the pieces the
//! simulator's insert stage drives: `MopPointerStore` (tick, lookup at
//! fetch, `has_pointer`/`is_blacklisted` for detection), `MopDetector::step`
//! and `Former` feed/end into a reused item buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mos_core::detect::{DetectInst, MopDetector};
use mos_core::form::{FormedItem, Former, RenamedInst};
use mos_core::pointer::MopPointerStore;
use mos_core::{MopConfig, UopId};
use mos_isa::{InstClass, Opcode, Reg, StaticInst};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn r(n: u8) -> Reg {
    Reg::int(n)
}

/// A loop body in the shape of the paper's Figure 4 gzip fragment:
/// dependent ALU pairs, a load, a store, a two-source tail and the
/// closing taken branch.
fn body() -> Vec<StaticInst> {
    vec![
        StaticInst::addi(r(1), r(1), 1),
        StaticInst::add(r(2), r(1), r(3)),
        StaticInst::load(r(4), 0, r(2)),
        StaticInst::alu(Opcode::Sub, r(5), r(4), r(1)),
        StaticInst::add(r(6), r(5), r(5)),
        StaticInst::store(r(6), 0, r(2)),
        StaticInst::addi(r(7), r(7), -1),
        StaticInst::branch(Opcode::Bnez, r(7), 0),
    ]
}

/// Drives the front-half pieces over the loop, one 4-wide group per
/// cycle, and counts what they produce.
struct Front {
    body: Vec<StaticInst>,
    store: MopPointerStore,
    detector: MopDetector,
    /// A second detector told no head has a pointer yet, so it finds and
    /// emits pairs in every window rather than only while cold.
    cold: MopDetector,
    former: Former,
    items: Vec<FormedItem>,
    detect: Vec<DetectInst>,
    renamed: Vec<RenamedInst>,
    now: u64,
    pc: usize,
    /// Uops formed with at least one in-flight source tag.
    uops_with_srcs: u64,
    /// Allocations made while forming.
    former_allocs: u64,
    cold_pairs: u64,
}

impl Front {
    fn new() -> Front {
        Front {
            body: body(),
            store: MopPointerStore::new(),
            detector: MopDetector::new(MopConfig::default(), None, 4),
            cold: MopDetector::new(MopConfig::default(), Some(2), 4),
            former: Former::new(true, 2),
            items: Vec::with_capacity(16),
            detect: Vec::with_capacity(4),
            renamed: Vec::with_capacity(4),
            now: 0,
            pc: 0,
            uops_with_srcs: 0,
            former_allocs: 0,
            cold_pairs: 0,
        }
    }

    fn cycle(&mut self) {
        self.now += 1;
        self.store.tick(self.now);
        // Fetch: up to four instructions, stopping after the taken branch.
        self.detect.clear();
        self.renamed.clear();
        for _ in 0..4 {
            let sidx = self.pc as u32;
            let inst = self.body[self.pc];
            let taken = inst.class() == InstClass::CondBranch;
            let line = (u64::from(sidx) * 4) & !63;
            self.detect
                .push(DetectInst::from_static(sidx, &inst, taken, line));
            self.renamed.push(RenamedInst {
                id: UopId(self.now * 4 + self.renamed.len() as u64),
                sidx,
                class: inst.class(),
                dst: inst.dst(),
                srcs: inst.dep_srcs(),
                taken,
                taken_indirect: false,
                pointer: self.store.lookup(sidx),
                is_candidate: inst.is_mop_candidate(),
                is_valuegen: inst.is_value_generating_candidate(),
                fetched_at: self.now,
                wrong_path: false,
            });
            self.pc = if taken { 0 } else { self.pc + 1 };
            if taken {
                break;
            }
        }
        // Rename and formation.
        let before = allocs();
        self.former.begin_group();
        for inst in &self.renamed {
            self.former.feed(inst, &mut self.items);
        }
        self.former.end_group(&mut self.items);
        for item in self.items.drain(..) {
            if let FormedItem::Single(u)
            | FormedItem::HeadPending { head: u, .. }
            | FormedItem::TailFuse { tail: u, .. } = item
            {
                self.uops_with_srcs += u64::from(!u.srcs.is_empty());
            }
        }
        self.former_allocs += allocs() - before;
        // Detection, installing what it finds after the delay.
        let store = &self.store;
        let pairs = self.detector.step(
            &self.detect,
            |s| store.has_pointer(s),
            |h, t| store.is_blacklisted(h, t),
        );
        for p in pairs {
            self.store
                .schedule_install(p.head_sidx, p.pointer, p.head_line, self.now + 3);
        }
        self.cold_pairs += self.cold.step(&self.detect, |_| false, |_, _| false).len() as u64;
        if self.now.is_multiple_of(64) {
            self.detector.reset_window(); // as after a squash
        }
    }
}

#[test]
fn warm_front_half_allocates_nothing() {
    let mut f = Front::new();
    for _ in 0..1_000 {
        f.cycle();
    }
    assert!(f.store.stats().0 > 0, "warm-up installed pointers");
    let before = allocs();
    let (former_before, payload_before) = (f.former_allocs, f.uops_with_srcs);
    let (pairs_before, fused_before) = (f.cold_pairs, f.former.stats().fused_pairs);
    for _ in 0..20_000 {
        f.cycle();
    }
    let former = f.former_allocs - former_before;
    let payload = f.uops_with_srcs - payload_before;
    assert!(
        f.cold_pairs - pairs_before > 10_000,
        "the cold detector keeps pairing"
    );
    assert!(
        f.former.stats().fused_pairs - fused_before > 10_000,
        "formation keeps fusing"
    );
    assert!(
        payload > 20_000,
        "formation keeps producing uops with sources"
    );
    // Pointer store and detection: nothing at all.
    assert_eq!(
        allocs() - before - former,
        0,
        "pointer store or detector allocated"
    );
    // Formation: each formed uop owns its source-tag list
    // (`SchedUop::srcs`, which the issue queue takes over), one
    // allocation per uop that has one, and nothing else — no item
    // buffers, pending pairs or source translation.
    assert_eq!(
        former, payload,
        "formation allocated beyond the uops' source lists"
    );
}
