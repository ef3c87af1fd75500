//! The pre-bit-matrix MOP detector, kept verbatim (modulo the `Copy`
//! instruction view) as a reference model: the differential property test
//! below feeds both detectors the same random streams and requires
//! identical pairs, statistics and pointer-store queries.

use mos_isa::Reg;

use super::{CtrlOut, DetectInst, DetectStats, DetectedPair};
use crate::config::{CycleDetection, MopConfig};
use crate::pointer::MopPointer;

#[derive(Debug, Clone)]
struct Slot {
    inst: DetectInst,
    head: bool,
    tail: bool,
}

/// The `Vec`-based detector the bit-matrix [`super::MopDetector`] replaced,
/// kept as the differential reference model.
#[derive(Debug, Clone)]
pub struct RefDetector {
    config: MopConfig,
    max_srcs: Option<usize>,
    group_width: usize,
    window: Vec<Slot>,
    stats: DetectStats,
}

impl RefDetector {
    /// Create a detector. `group_width` is the rename width (4 in the
    /// paper); `max_srcs` is the wakeup-array source limit
    /// ([`crate::WakeupStyle::max_entry_sources`]).
    pub fn new(config: MopConfig, max_srcs: Option<usize>, group_width: usize) -> RefDetector {
        assert!(group_width > 0);
        assert!(config.scope >= 2, "scope must cover at least a pair");
        RefDetector {
            config,
            max_srcs,
            group_width,
            window: Vec::new(),
            stats: DetectStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> DetectStats {
        self.stats
    }

    /// Forget all window state (e.g. across a pipeline squash, where the
    /// stream restarts from the recovery point).
    pub fn reset_window(&mut self) {
        self.window.clear();
    }

    /// Process one rename group. `has_pointer(sidx)` reports whether a
    /// pointer for a head is already stored or pending;
    /// `blacklisted(head, tail)` consults the last-arrival filter's ban
    /// list. Returns the pairs detected this step.
    pub fn step(
        &mut self,
        group: &[DetectInst],
        mut has_pointer: impl FnMut(u32) -> bool,
        mut blacklisted: impl FnMut(u32, u32) -> bool,
    ) -> Vec<DetectedPair> {
        // Slide the window: keep at most (scope - group_width) old slots.
        let keep = self.config.scope.saturating_sub(self.group_width);
        if self.window.len() > keep {
            self.window.drain(..self.window.len() - keep);
        }
        let cur_start = self.window.len();
        for inst in group.iter().take(self.group_width) {
            self.window.push(Slot {
                inst: *inst,
                head: false,
                tail: false,
            });
        }
        let n = self.window.len();

        // Direct register dependences within the window: deps[j] lists the
        // window positions whose destination feeds j (last writer per reg).
        let mut last_writer: [Option<usize>; Reg::NUM] = [None; Reg::NUM];
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        #[allow(clippy::needless_range_loop)] // j indexes two structures
        for j in 0..n {
            for src in &self.window[j].inst.srcs {
                if let Some(i) = last_writer[src.index()] {
                    if !deps[j].contains(&i) {
                        deps[j].push(i);
                    }
                }
            }
            if let Some(d) = self.window[j].inst.dst {
                last_writer[d.index()] = Some(j);
            }
        }

        // Transitive reachability (ancestor sets) for precise cycle mode.
        let reach: Vec<u32> = {
            let mut r = vec![0u32; n];
            for j in 0..n {
                for &i in &deps[j] {
                    r[j] |= r[i] | (1 << i);
                }
            }
            r
        };

        let mut out = Vec::new();

        // --- Dependent-MOP pass ---
        // Each column proposes its first eligible row; the priority decoder
        // then resolves rows claimed by several columns in favor of the
        // oldest column, and losers forgo this step.
        let mut proposals: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            let col = &self.window[i];
            if col.head || !col.inst.is_valuegen || has_pointer(col.inst.sidx) {
                continue;
            }
            // A tail may head a further link only when chaining (>2-wide
            // MOPs) is enabled.
            if col.tail && self.config.max_mop_size <= 2 {
                continue;
            }
            // Rows in the previous group were already examined last step.
            let row_begin = (i + 1).max(if i < cur_start { cur_start } else { i + 1 });
            let mut mark_seen = (i + 1..row_begin).any(|j| deps[j].contains(&i));
            for j in row_begin..n {
                if !deps[j].contains(&i) {
                    continue;
                }
                let first_mark = !mark_seen;
                mark_seen = true;
                let row = &self.window[j];
                if row.head || row.tail || !row.inst.is_candidate {
                    continue;
                }
                if blacklisted(col.inst.sidx, row.inst.sidx) {
                    continue;
                }
                let n_src_operands = row.inst.srcs.len();
                let cycle_ok = match self.config.cycle_detection {
                    CycleDetection::Heuristic => n_src_operands <= 1 || first_mark,
                    CycleDetection::Precise => {
                        // A deadlock needs some k strictly between i and j
                        // that descends from i and feeds j.
                        !((i + 1..j).any(|k| reach[k] & (1 << i) != 0 && reach[j] & (1 << k) != 0))
                    }
                };
                if !cycle_ok {
                    self.stats.cycle_rejects += 1;
                    continue;
                }
                if !self.src_limit_ok(i, j) {
                    self.stats.src_limit_rejects += 1;
                    continue;
                }
                match self.flow_between(i, j) {
                    Some(_) => {}
                    None => {
                        self.stats.flow_rejects += 1;
                        continue;
                    }
                }
                proposals.push((i, j));
                break;
            }
        }
        let mut row_taken = vec![false; n];
        for (i, j) in proposals {
            if row_taken[j] {
                continue; // priority decoder: an older column claimed it
            }
            // An instruction claimed as a tail earlier this step may not
            // also head a pair (unless >2-wide MOP chains are enabled).
            if self.window[i].tail && self.config.max_mop_size <= 2 {
                continue;
            }
            row_taken[j] = true;
            self.window[i].head = true;
            self.window[j].tail = true;
            let control = self.flow_between(i, j).expect("checked above");
            let head = &self.window[i].inst;
            let tail = &self.window[j].inst;
            out.push(DetectedPair {
                head_sidx: head.sidx,
                head_line: head.line_addr,
                pointer: MopPointer::new((j - i) as u8, control, tail.sidx),
                independent: false,
            });
            self.stats.dependent_pairs += 1;
        }

        // --- Independent-MOP pass (Section 5.4.1) ---
        if self.config.group_independent {
            // Source origins: window producer position or the external
            // logical register.
            #[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
            enum Origin {
                Window(usize),
                External(Reg),
            }
            let mut origins: Vec<Vec<Origin>> = vec![Vec::new(); n];
            let mut lw: [Option<usize>; Reg::NUM] = [None; Reg::NUM];
            #[allow(clippy::needless_range_loop)] // j indexes two structures
            for j in 0..n {
                for src in &self.window[j].inst.srcs {
                    let o = match lw[src.index()] {
                        Some(i) => Origin::Window(i),
                        None => Origin::External(*src),
                    };
                    if !origins[j].contains(&o) {
                        origins[j].push(o);
                    }
                }
                origins[j].sort();
                if let Some(d) = self.window[j].inst.dst {
                    lw[d.index()] = Some(j);
                }
            }
            for i in 0..n {
                let c = &self.window[i];
                if c.head || c.tail || !c.inst.is_candidate || has_pointer(c.inst.sidx) {
                    continue;
                }
                // Only pair across the frontier once, like the dependent
                // pass: previous-group columns consider current-group rows.
                let row_begin = (i + 1).max(if i < cur_start { cur_start } else { i + 1 });
                for j in row_begin..n {
                    let r = &self.window[j];
                    if r.head || r.tail || !r.inst.is_candidate {
                        continue;
                    }
                    if origins[i] != origins[j] || blacklisted(c.inst.sidx, r.inst.sidx) {
                        continue;
                    }
                    let Some(control) = self.flow_between(i, j) else {
                        continue;
                    };
                    out.push(DetectedPair {
                        head_sidx: c.inst.sidx,
                        head_line: c.inst.line_addr,
                        pointer: MopPointer::new((j - i) as u8, control, r.inst.sidx).independent(),
                        independent: true,
                    });
                    self.stats.independent_pairs += 1;
                    self.window[i].head = true;
                    self.window[j].tail = true;
                    break;
                }
            }
        }
        out
    }

    /// Check the merged source-tag count against the wakeup-array limit:
    /// the union of both instructions' sources, minus the tail's dependence
    /// on the head (which becomes the internal MOP edge).
    fn src_limit_ok(&self, i: usize, j: usize) -> bool {
        let Some(limit) = self.max_srcs else {
            return true;
        };
        let head = &self.window[i].inst;
        let tail = &self.window[j].inst;
        let mut union: Vec<Reg> = head.srcs.to_vec();
        for s in &tail.srcs {
            if Some(*s) == head.dst {
                continue; // internal head->tail edge, no tag needed
            }
            if !union.contains(s) {
                union.push(*s);
            }
        }
        union.len() <= limit
    }

    /// Control-flow legality between window positions `i` and `j`
    /// (Section 5.1.3): at most one taken direct transfer, no taken
    /// indirect transfers, offset within the 3-bit pointer range. Returns
    /// the control bit, or `None` when the span is not encodable.
    fn flow_between(&self, i: usize, j: usize) -> Option<bool> {
        let offset = j - i;
        if offset == 0 || offset > MopPointer::MAX_OFFSET as usize || offset >= self.config.scope {
            return None;
        }
        let mut taken_direct = 0;
        for k in i..j {
            match self.window[k].inst.ctrl_out {
                CtrlOut::FallThrough => {}
                CtrlOut::TakenDirect => taken_direct += 1,
                CtrlOut::TakenIndirect => return None,
            }
        }
        (taken_direct <= 1).then_some(taken_direct == 1)
    }
}

mod differential {
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    use super::RefDetector;
    use crate::config::{CycleDetection, MopConfig};
    use crate::detect::{DetectInst, DetectStats, DetectedPair, MopDetector};
    use mos_isa::{InstClass, Opcode, Reg, StaticInst};

    /// `(shape, a, b, c, taken, group-length/line draw)` per instruction.
    type Raw = (u8, u8, u8, u8, bool, u8);

    /// `(scope, rename width, precise, independent, CAM limit, MOP size)`.
    type Knobs = (usize, usize, bool, bool, bool, usize);

    fn streams() -> impl Strategy<Value = Vec<Raw>> {
        prop::collection::vec(
            (0u8..12, 0u8..8, 0u8..8, 0u8..8, any::<bool>(), 0u8..6),
            1..80,
        )
    }

    fn knobs() -> impl Strategy<Value = Knobs> {
        (
            2usize..=8,
            1usize..=4,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            2usize..=3,
        )
    }

    /// One random instruction: a shape and registers drawn from a small
    /// pool (so the matrix fills with marks, duplicate sources and
    /// redefinitions; `7` stands for the zero register, which carries no
    /// dependence), and whether control leaves it taken.
    fn inst(&(k, a, b, c, taken, line): &Raw) -> DetectInst {
        let r = |n: u8| if n == 7 { Reg::ZERO } else { Reg::int(n) };
        let i = match k {
            0 => StaticInst::addi(r(a), r(b), 1),
            1 | 2 => StaticInst::add(r(a), r(b), r(c)),
            3 => StaticInst::add(r(a), r(b), r(b)),
            4 => StaticInst::load(r(a), 0, r(b)),
            5 => StaticInst::store(r(a), 0, r(b)),
            6 => StaticInst::branch(Opcode::Bnez, r(a), 0),
            7 => StaticInst::alu(Opcode::Mul, r(a), r(b), r(c)),
            8 => StaticInst::jmp(0),
            9 => StaticInst::jr(r(a)),
            10 => StaticInst::mov(r(a), r(b)),
            _ => StaticInst::li(r(a), 3),
        };
        let taken = match i.class() {
            InstClass::CondBranch => taken,
            InstClass::Jump | InstClass::IndirectJump => true,
            _ => false,
        };
        // Static indices repeat, so pointer-store answers correlate
        // across groups as they do for a loop.
        let sidx = u32::from(k) * 8 + u32::from(a);
        DetectInst::from_static(sidx, &i, taken, 0x40 * u64::from(line))
    }

    fn config((scope, _, precise, independent, _, mop_size): Knobs) -> MopConfig {
        MopConfig {
            scope,
            max_mop_size: mop_size,
            cycle_detection: if precise {
                CycleDetection::Precise
            } else {
                CycleDetection::Heuristic
            },
            group_independent: independent,
            ..MopConfig::default()
        }
    }

    /// Cut the stream into rename groups of 0..=width+1 instructions (the
    /// detector takes at most `width`), each flagged when the window is
    /// reset before it (a squash).
    fn groups(stream: &[Raw], width: usize) -> Vec<(bool, Vec<DetectInst>)> {
        let mut out = Vec::new();
        let mut rest = stream;
        while let Some(first) = rest.first() {
            let len = (usize::from(first.5) % (width + 2)).min(rest.len());
            let take = len.max(1);
            let reset = first.4 && first.1 == 0;
            out.push((reset, rest[..len].iter().map(inst).collect()));
            rest = &rest[take..];
        }
        out
    }

    /// A pseudo-random yes with probability about `1 / one_in`.
    fn answer(seed: u64, x: u64, one_in: u64) -> bool {
        let h = (seed ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h ^ (h >> 29)).is_multiple_of(one_in)
    }

    /// Pointer-store queries in call order: `(head, None)` for
    /// `has_pointer`, `(head, Some(tail))` for `blacklisted`.
    type Log = Vec<(u32, Option<u32>)>;

    type Step<'a, D> = &'a dyn Fn(
        &mut D,
        &[DetectInst],
        &mut dyn FnMut(u32) -> bool,
        &mut dyn FnMut(u32, u32) -> bool,
    ) -> Vec<DetectedPair>;

    fn run<D>(
        det: &mut D,
        step: Step<'_, D>,
        reset: fn(&mut D),
        groups: &[(bool, Vec<DetectInst>)],
        seed: u64,
    ) -> (Vec<Vec<DetectedPair>>, Log) {
        let log = std::cell::RefCell::new(Log::new());
        let mut out = Vec::new();
        for (r, g) in groups {
            if *r {
                reset(det);
            }
            let mut hp = |s: u32| {
                log.borrow_mut().push((s, None));
                answer(seed, u64::from(s), 5)
            };
            let mut bl = |h: u32, t: u32| {
                log.borrow_mut().push((h, Some(t)));
                answer(seed.rotate_left(17), u64::from(h) << 32 | u64::from(t), 6)
            };
            out.push(step(det, g, &mut hp, &mut bl));
        }
        (out, log.into_inner())
    }

    /// Run both detectors; assert identical behaviour and return the stats.
    fn compare(stream: &[Raw], knobs: Knobs, seed: u64) -> DetectStats {
        let (width, cam) = (knobs.1, knobs.4);
        let groups = groups(stream, width);
        let mut new = MopDetector::new(config(knobs), cam.then_some(2), width);
        let mut old = RefDetector::new(config(knobs), cam.then_some(2), width);
        let (a, log_a) = run(
            &mut new,
            &|d, g, hp, bl| d.step(g, hp, bl).to_vec(),
            MopDetector::reset_window,
            &groups,
            seed,
        );
        let (b, log_b) = run(
            &mut old,
            &|d, g, hp, bl| d.step(g, hp, bl),
            RefDetector::reset_window,
            &groups,
            seed,
        );
        assert_eq!(a, b, "pairs differ for {knobs:?}");
        assert_eq!(log_a, log_b, "pointer-store queries differ for {knobs:?}");
        assert_eq!(new.stats(), old.stats());
        new.stats()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 500, ..ProptestConfig::default() })]

        /// The bit-matrix detector and the reference model emit the same
        /// pairs in the same order, count the same statistics and ask the
        /// pointer store the same questions in the same order, across
        /// scopes 2..=8, rename widths, both cycle policies, independent
        /// grouping on and off, the CAM two-source limit, chaining, window
        /// resets and random pointer/blacklist answers.
        #[test]
        fn bit_matrix_matches_reference(stream in streams(), knobs in knobs(), seed in any::<u64>()) {
            compare(&stream, knobs, seed);
        }
    }

    /// The differential inputs reach every outcome the comparison is
    /// meant to cover: both pair kinds and all three reject counters.
    #[test]
    fn differential_inputs_exercise_every_outcome() {
        let mut rng = TestRng::deterministic("detect::differential::coverage");
        let mut total = DetectStats::default();
        for _ in 0..500 {
            let s = compare(
                &streams().generate(&mut rng),
                knobs().generate(&mut rng),
                any::<u64>().generate(&mut rng),
            );
            total.dependent_pairs += s.dependent_pairs;
            total.independent_pairs += s.independent_pairs;
            total.cycle_rejects += s.cycle_rejects;
            total.src_limit_rejects += s.src_limit_rejects;
            total.flow_rejects += s.flow_rejects;
        }
        assert!(
            total.dependent_pairs > 100 && total.independent_pairs > 100,
            "{total:?}"
        );
        assert!(
            total.cycle_rejects > 10 && total.src_limit_rejects > 10 && total.flow_rejects > 10,
            "{total:?}"
        );
    }
}
