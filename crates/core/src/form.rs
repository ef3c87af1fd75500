//! MOP formation (Section 5.2): locating MOP pairs from fetched pointers,
//! translating register dependences into the MOP ID name space, and
//! steering instructions into shared issue-queue entries.
//!
//! The [`Former`] processes one rename group per cycle. For each renamed
//! instruction it
//!
//! 1. checks whether the instruction is the tail some earlier head's
//!    pointer is waiting for — same static index and matching control
//!    flow (the pointer's control bit vs. the taken transfers actually
//!    fetched in between, Section 5.2.1) — and if so emits a fuse;
//! 2. otherwise, if the instruction carries a valid MOP pointer, emits a
//!    pending head and starts waiting for the tail — but only within the
//!    same or the immediately following insert group (Section 5.2.3);
//!    stale pendings are cancelled so the head issues as a singleton;
//! 3. translates logical registers through the **MOP translation table**,
//!    a second rename map in which a fused head and tail share one MOP ID
//!    (Figure 10) while ordinary instructions get fresh IDs.
//!
//! The table supports checkpoints so the pipeline can roll wrong-path
//! renames back on a branch squash.

use mos_isa::{InstClass, Reg, SrcRegs};

use crate::pointer::MopPointer;
use crate::uop::{GroupRole, SchedUop, Tag, UopId};

/// The rename-stage view of one fetched instruction handed to formation.
#[derive(Debug, Clone)]
pub struct RenamedInst {
    /// Program-order identity / age.
    pub id: UopId,
    /// Static index.
    pub sidx: u32,
    /// Latency/resource class.
    pub class: InstClass,
    /// Logical destination register (zero register writes excluded).
    pub dst: Option<Reg>,
    /// Logical source registers (zero register excluded).
    pub srcs: SrcRegs,
    /// Control leaves this instruction taken (as fetched/predicted).
    pub taken: bool,
    /// Taken control transfer is indirect (pointers may not span it).
    pub taken_indirect: bool,
    /// MOP pointer fetched alongside the instruction, if any.
    pub pointer: Option<MopPointer>,
    /// Macro-op candidate?
    pub is_candidate: bool,
    /// Value-generating candidate?
    pub is_valuegen: bool,
    /// Cycle the instruction was fetched (carried into the uop for trace
    /// timelines).
    pub fetched_at: u64,
    /// Fetched on a mispredicted path.
    pub wrong_path: bool,
}

/// One steering decision for the queue stage, in group order.
#[derive(Debug, Clone)]
pub enum FormedItem {
    /// Insert as an ordinary singleton entry.
    Single(SchedUop),
    /// Insert as a MOP head with the pending bit set; the tail follows as
    /// a [`FormedItem::TailFuse`] with the same `pair_id`, either later in
    /// this group or in the next one.
    HeadPending {
        /// The head uop.
        head: SchedUop,
        /// Correlates the later fuse/cancel.
        pair_id: u64,
    },
    /// Fuse this tail into the pending head's entry.
    TailFuse {
        /// The tail uop.
        tail: SchedUop,
        /// The pending pair being completed.
        pair_id: u64,
        /// The pair expects yet another tail (>2-wide MOP chains): keep
        /// the entry pending.
        chain_more: bool,
    },
    /// The expected tail never arrived (control flow diverged, fetch gap,
    /// or another head claimed it): release the head as a singleton.
    Cancel {
        /// The abandoned pair.
        pair_id: u64,
    },
}

/// Snapshot of the MOP translation table for squash recovery.
#[derive(Debug, Clone)]
pub struct TableCheckpoint {
    map: [Option<Tag>; Reg::NUM],
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    pair_id: u64,
    mop_tag: Tag,
    head_pos: u64,
    expected_pos: u64,
    expected_sidx: u32,
    control: bool,
    independent: bool,
    taken_between: u32,
    indirect_between: bool,
    size: usize,
    born_step: u64,
}

/// Aggregate formation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormStats {
    /// Pairs successfully fused.
    pub fused_pairs: u64,
    /// Pendings cancelled (control divergence, fetch gaps, claimed tails).
    pub cancelled: u64,
    /// Instructions processed.
    pub insts: u64,
}

/// The MOP formation engine. See the module docs.
#[derive(Debug)]
pub struct Former {
    max_mop_size: usize,
    mops_enabled: bool,
    table: [Option<Tag>; Reg::NUM],
    next_tag: u64,
    next_pair: u64,
    pos: u64,
    step_no: u64,
    pending: Vec<Pending>,
    stats: FormStats,
}

impl Former {
    /// Create a formation engine. When `mops_enabled` is false (baseline
    /// schedulers) every instruction is steered as a singleton and
    /// pointers are ignored, but dependence translation still runs.
    pub fn new(mops_enabled: bool, max_mop_size: usize) -> Former {
        Former {
            max_mop_size,
            mops_enabled,
            table: [None; Reg::NUM],
            next_tag: 0,
            next_pair: 0,
            pos: 0,
            step_no: 0,
            pending: Vec::new(),
            stats: FormStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> FormStats {
        self.stats
    }

    /// Checkpoint the translation table (take one per branch).
    pub fn checkpoint(&self) -> TableCheckpoint {
        TableCheckpoint { map: self.table }
    }

    /// Roll the translation table back to `cp` and drop all pending pairs
    /// (their tails were wrong-path).
    pub fn squash(&mut self, cp: &TableCheckpoint) {
        self.table = cp.map;
        self.pending.clear();
    }

    fn alloc_tag(&mut self) -> Tag {
        let t = Tag(self.next_tag);
        self.next_tag += 1;
        t
    }

    /// The distinct in-flight tags `srcs` read, in operand order, as
    /// `(tags, count)`.
    fn translate_srcs(&self, srcs: &SrcRegs) -> ([Tag; 2], usize) {
        let mut out = [Tag(0); 2];
        let mut n = 0;
        for r in srcs {
            if let Some(t) = self.table[r.index()] {
                if !out[..n].contains(&t) {
                    out[n] = t;
                    n += 1;
                }
            }
        }
        (out, n)
    }

    fn make_uop(&mut self, inst: &RenamedInst, dst: Option<Tag>, role: GroupRole) -> SchedUop {
        let (tags, n) = self.translate_srcs(&inst.srcs);
        // The uop owns its source list (the queue keeps it for grants);
        // an instruction with no in-flight source allocates nothing.
        let srcs = tags[..n].to_vec();
        if let (Some(r), Some(t)) = (inst.dst, dst) {
            self.table[r.index()] = Some(t);
        }
        SchedUop {
            id: inst.id,
            class: inst.class,
            fu: inst.class.fu(),
            dst,
            srcs,
            sched_latency: inst.class.exec_latency(),
            is_load: inst.class == InstClass::Load,
            sidx: inst.sidx,
            role,
            fetched_at: inst.fetched_at,
            wrong_path: inst.wrong_path,
        }
    }

    /// Process one rename group (at most the machine width), returning
    /// queue-stage steering decisions in order. Call once per cycle; an
    /// empty group (front-end bubble) still advances pending expiry.
    ///
    /// A test convenience: pipelines, which checkpoint the translation
    /// table between instructions (for branch squash) and reuse one item
    /// buffer, call [`Former::begin_group`] / [`Former::feed`] /
    /// [`Former::end_group`] directly.
    pub fn step(&mut self, group: &[RenamedInst]) -> Vec<FormedItem> {
        self.begin_group();
        let mut items = Vec::with_capacity(group.len() + 1);
        for inst in group {
            self.feed(inst, &mut items);
        }
        self.end_group(&mut items);
        items
    }

    /// Start a rename group (advances pending-pair expiry bookkeeping).
    pub fn begin_group(&mut self) {
        self.step_no += 1;
    }

    /// Feed one renamed instruction of the current group, appending its
    /// steering decisions to `items`.
    pub fn feed(&mut self, inst: &RenamedInst, items: &mut Vec<FormedItem>) {
        let step_no = self.step_no;
        {
            let pos = self.pos;
            self.pos += 1;
            self.stats.insts += 1;

            // 1. Is this the tail a pending head expects? Every pending
            // whose expectation lands here either fuses (the first that
            // matches) or is cancelled (its expected position has passed).
            let mut fused_here = false;
            let mut k = 0;
            while k < self.pending.len() {
                if self.pending[k].expected_pos != pos {
                    k += 1;
                    continue;
                }
                let p = &self.pending[k];
                // Links beyond the second member must be strictly
                // single-source (their only dependence the chain itself):
                // the paper's pairwise cycle heuristic does not cover
                // cross-chain dependences, and a third member with an
                // extra operand could close a dependence cycle through an
                // instruction between the head and this tail.
                let chain_safe = p.size < 2 || {
                    let (tags, n) = self.translate_srcs(&inst.srcs);
                    tags[..n].iter().all(|&t| t == p.mop_tag)
                };
                let matches = !fused_here
                    && inst.sidx == p.expected_sidx
                    && !p.indirect_between
                    && (p.taken_between == 1) == p.control
                    && p.taken_between <= 1
                    && inst.is_candidate
                    && chain_safe;
                if !matches {
                    let p = self.pending.remove(k);
                    items.push(FormedItem::Cancel { pair_id: p.pair_id });
                    self.stats.cancelled += 1;
                    continue; // same k now holds the next pending
                }
                let p = self.pending[k];
                let role = if p.independent {
                    GroupRole::MopIndependent
                } else if inst.is_valuegen {
                    GroupRole::MopValueGen
                } else {
                    GroupRole::MopNonValueGen
                };
                let tail = self.make_uop(inst, Some(p.mop_tag), role);
                // Chain a further link (>2-wide MOPs) when the tail has
                // its own pointer and the size limit allows.
                let chain = if p.size + 1 < self.max_mop_size {
                    inst.pointer
                } else {
                    None
                };
                let chain_more = chain.is_some();
                if let Some(ptr) = chain {
                    let pd = &mut self.pending[k];
                    pd.head_pos = pos;
                    pd.expected_pos = pos + u64::from(ptr.offset);
                    pd.expected_sidx = ptr.tail_sidx;
                    pd.control = ptr.control;
                    // account_taken below records this instruction's own
                    // outgoing transition.
                    pd.taken_between = 0;
                    pd.indirect_between = false;
                    pd.size += 1;
                    pd.born_step = step_no;
                    k += 1;
                } else {
                    self.pending.remove(k);
                }
                self.stats.fused_pairs += 1;
                items.push(FormedItem::TailFuse {
                    tail,
                    pair_id: p.pair_id,
                    chain_more,
                });
                fused_here = true;
            }
            if fused_here {
                self.account_taken(inst, pos);
                return;
            }

            // 2. Does the instruction start a pair of its own?
            let starts_pair = self.mops_enabled
                && inst.is_candidate
                && inst.pointer.is_some()
                && self.max_mop_size >= 2;
            if starts_pair {
                let ptr = inst.pointer.expect("checked above");
                let pair_id = self.next_pair;
                self.next_pair += 1;
                let mop_tag = self.alloc_tag();
                let role = if ptr.independent {
                    GroupRole::MopIndependent
                } else {
                    GroupRole::MopValueGen
                };
                let head = self.make_uop(inst, Some(mop_tag), role);
                self.pending.push(Pending {
                    pair_id,
                    mop_tag,
                    head_pos: pos,
                    expected_pos: pos + u64::from(ptr.offset),
                    expected_sidx: ptr.tail_sidx,
                    control: ptr.control,
                    independent: ptr.independent,
                    taken_between: 0,
                    indirect_between: false,
                    size: 1,
                    born_step: step_no,
                });
                items.push(FormedItem::HeadPending { head, pair_id });
                self.account_taken(inst, pos);
                return;
            }

            // 3. Ordinary singleton.
            let dst = if inst.dst.is_some() {
                Some(self.alloc_tag())
            } else {
                None
            };
            let role = if inst.is_candidate {
                GroupRole::NotGrouped
            } else {
                GroupRole::NotCandidate
            };
            let uop = self.make_uop(inst, dst, role);
            items.push(FormedItem::Single(uop));
            self.account_taken(inst, pos);
        }
    }

    /// Finish the current group: expire pendings older than the
    /// consecutive-group window (their heads issue as singletons),
    /// appending a cancel for each to `items`.
    pub fn end_group(&mut self, items: &mut Vec<FormedItem>) {
        let step_no = self.step_no;
        let pos = self.pos;
        let stats = &mut self.stats;
        self.pending.retain(|p| {
            let expired =
                p.born_step + 1 < step_no || (p.born_step < step_no && p.expected_pos < pos);
            if expired {
                items.push(FormedItem::Cancel { pair_id: p.pair_id });
                stats.cancelled += 1;
            }
            !expired
        });
    }

    /// Record the control transition leaving `inst` into every pending
    /// pair whose span covers it.
    fn account_taken(&mut self, inst: &RenamedInst, pos: u64) {
        if !inst.taken {
            return;
        }
        for p in &mut self.pending {
            if pos >= p.head_pos && pos < p.expected_pos {
                p.taken_between += 1;
                if inst.taken_indirect {
                    p.indirect_between = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ri(id: u64, sidx: u32, dst: Option<u8>, srcs: &[u8]) -> RenamedInst {
        RenamedInst {
            id: UopId(id),
            sidx,
            class: InstClass::IntAlu,
            dst: dst.map(Reg::int),
            srcs: srcs.iter().map(|&n| Reg::int(n)).collect(),
            taken: false,
            taken_indirect: false,
            pointer: None,
            is_candidate: true,
            is_valuegen: dst.is_some(),
            fetched_at: 0,
            wrong_path: false,
        }
    }

    fn with_ptr(mut i: RenamedInst, offset: u8, control: bool, tail_sidx: u32) -> RenamedInst {
        i.pointer = Some(MopPointer::new(offset, control, tail_sidx));
        i
    }

    fn former() -> Former {
        Former::new(true, 2)
    }

    #[test]
    fn same_group_pair_fuses() {
        let mut f = former();
        let items = f.step(&[
            with_ptr(ri(0, 10, Some(1), &[]), 1, false, 11),
            ri(1, 11, Some(2), &[1]),
        ]);
        assert_eq!(items.len(), 2);
        assert!(matches!(items[0], FormedItem::HeadPending { .. }));
        match &items[1] {
            FormedItem::TailFuse { tail, chain_more, .. } => {
                assert!(!chain_more);
                assert_eq!(tail.role, GroupRole::MopValueGen);
                // Internal edge: tail's source is the MOP tag itself.
                let head_tag = match &items[0] {
                    FormedItem::HeadPending { head, .. } => head.dst.unwrap(),
                    _ => unreachable!(),
                };
                assert_eq!(tail.srcs, vec![head_tag]);
                assert_eq!(tail.dst, Some(head_tag), "shared MOP ID");
            }
            other => panic!("expected TailFuse, got {other:?}"),
        }
        assert_eq!(f.stats().fused_pairs, 1);
    }

    #[test]
    fn consecutive_group_pair_fuses() {
        let mut f = former();
        let i1 = f.step(&[with_ptr(ri(0, 10, Some(1), &[]), 4, false, 14)]);
        assert_eq!(i1.len(), 1);
        let i2 = f.step(&[ri(1, 11, None, &[]), ri(2, 12, None, &[]), ri(3, 13, None, &[]), ri(4, 14, Some(2), &[1])]);
        assert!(
            i2.iter().any(|x| matches!(x, FormedItem::TailFuse { .. })),
            "tail in the next insert group must fuse: {i2:?}"
        );
    }

    #[test]
    fn stale_pending_cancelled_after_consecutive_group() {
        let mut f = former();
        f.step(&[with_ptr(ri(0, 10, Some(1), &[]), 7, false, 17)]);
        // Next group doesn't reach the expected position.
        let i2 = f.step(&[ri(1, 11, None, &[])]);
        assert!(i2.iter().all(|x| !matches!(x, FormedItem::Cancel { .. })));
        // Two groups later the pending is stale.
        let i3 = f.step(&[ri(2, 12, None, &[])]);
        assert!(
            i3.iter().any(|x| matches!(x, FormedItem::Cancel { .. })),
            "pending must expire after the consecutive group: {i3:?}"
        );
        assert_eq!(f.stats().cancelled, 1);
    }

    #[test]
    fn wrong_tail_sidx_cancels() {
        let mut f = former();
        let items = f.step(&[
            with_ptr(ri(0, 10, Some(1), &[]), 1, false, 11),
            ri(1, 99, Some(2), &[1]), // different static instruction
        ]);
        assert!(items.iter().any(|x| matches!(x, FormedItem::Cancel { .. })));
        // The impostor is still inserted normally.
        assert!(items.iter().any(|x| matches!(x, FormedItem::Single(_))));
    }

    #[test]
    fn control_bit_mismatch_cancels() {
        // Pointer was detected across a taken branch (control = true) but
        // this time the branch fell through.
        let mut f = former();
        let head = with_ptr(ri(0, 10, Some(1), &[]), 2, true, 12);
        let mid = ri(1, 11, None, &[]); // not taken this time
        let tail = ri(2, 12, Some(2), &[1]);
        let items = f.step(&[head, mid, tail]);
        assert!(
            items.iter().any(|x| matches!(x, FormedItem::Cancel { .. })),
            "fall-through path must not group with a taken-path pointer: {items:?}"
        );
    }

    #[test]
    fn control_bit_match_across_taken_branch_fuses() {
        let mut f = former();
        let head = with_ptr(ri(0, 10, Some(1), &[]), 2, true, 30);
        let mut br = ri(1, 11, None, &[]);
        br.taken = true;
        br.class = InstClass::CondBranch;
        let tail = ri(2, 30, Some(2), &[1]);
        let items = f.step(&[head, br, tail]);
        assert!(items.iter().any(|x| matches!(x, FormedItem::TailFuse { .. })));
    }

    #[test]
    fn indirect_between_cancels() {
        let mut f = former();
        let head = with_ptr(ri(0, 10, Some(1), &[]), 2, true, 30);
        let mut jr = ri(1, 11, None, &[]);
        jr.taken = true;
        jr.taken_indirect = true;
        jr.class = InstClass::IndirectJump;
        let tail = ri(2, 30, Some(2), &[1]);
        let items = f.step(&[head, jr, tail]);
        assert!(items.iter().any(|x| matches!(x, FormedItem::Cancel { .. })));
    }

    #[test]
    fn consumers_of_head_and_tail_share_the_mop_tag() {
        let mut f = former();
        let items = f.step(&[
            with_ptr(ri(0, 10, Some(1), &[]), 1, false, 11),
            ri(1, 11, Some(2), &[1]),
            ri(2, 12, Some(3), &[1]), // reads head's r1
            ri(3, 13, Some(4), &[2]), // reads tail's r2
        ]);
        let tag = match &items[0] {
            FormedItem::HeadPending { head, .. } => head.dst.unwrap(),
            _ => panic!(),
        };
        let srcs_of = |k: usize| match &items[k] {
            FormedItem::Single(u) => u.srcs.clone(),
            _ => panic!(),
        };
        assert_eq!(srcs_of(2), vec![tag], "head consumer is a child of the MOP");
        assert_eq!(srcs_of(3), vec![tag], "tail consumer is a child of the MOP");
    }

    #[test]
    fn untracked_sources_are_omitted() {
        let mut f = former();
        let items = f.step(&[ri(0, 10, Some(1), &[5])]); // r5 never written
        match &items[0] {
            FormedItem::Single(u) => assert!(u.srcs.is_empty()),
            _ => panic!(),
        }
    }

    #[test]
    fn disabled_former_ignores_pointers() {
        let mut f = Former::new(false, 2);
        let items = f.step(&[
            with_ptr(ri(0, 10, Some(1), &[]), 1, false, 11),
            ri(1, 11, Some(2), &[1]),
        ]);
        assert!(items.iter().all(|x| matches!(x, FormedItem::Single(_))));
    }

    #[test]
    fn independent_pair_roles() {
        let mut f = former();
        let mut head = ri(0, 10, Some(1), &[7]);
        head.pointer = Some(MopPointer::new(1, false, 11).independent());
        let tail = ri(1, 11, Some(2), &[7]);
        let items = f.step(&[head, tail]);
        match (&items[0], &items[1]) {
            (
                FormedItem::HeadPending { head, .. },
                FormedItem::TailFuse { tail, .. },
            ) => {
                assert_eq!(head.role, GroupRole::MopIndependent);
                assert_eq!(tail.role, GroupRole::MopIndependent);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_valuegen_tail_role() {
        let mut f = former();
        let head = with_ptr(ri(0, 10, Some(1), &[]), 1, false, 11);
        let mut st = ri(1, 11, None, &[1]);
        st.class = InstClass::Store;
        st.is_valuegen = false;
        let items = f.step(&[head, st]);
        match &items[1] {
            FormedItem::TailFuse { tail, .. } => {
                assert_eq!(tail.role, GroupRole::MopNonValueGen)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn squash_restores_table_and_drops_pendings() {
        let mut f = former();
        f.step(&[ri(0, 10, Some(1), &[])]);
        let cp = f.checkpoint();
        f.step(&[with_ptr(ri(1, 11, Some(1), &[1]), 4, false, 15)]);
        f.squash(&cp);
        // r1 maps back to uop 0's tag: a new consumer sees the old tag.
        let items = f.step(&[ri(2, 12, Some(3), &[1])]);
        match &items[0] {
            FormedItem::Single(u) => assert_eq!(u.srcs, vec![Tag(0)]),
            _ => panic!(),
        }
        // No cancel was emitted for the squashed pending — queue squash
        // already removed the entry — and no fuse can match it later.
        assert!(items.iter().all(|x| !matches!(x, FormedItem::TailFuse { .. })));
    }

    #[test]
    fn chain_of_three_when_allowed() {
        let mut f = Former::new(true, 3);
        let a = with_ptr(ri(0, 10, Some(1), &[]), 1, false, 11);
        let b = with_ptr(ri(1, 11, Some(2), &[1]), 1, false, 12);
        let c = ri(2, 12, Some(3), &[2]);
        let items = f.step(&[a, b, c]);
        let fuses: Vec<bool> = items
            .iter()
            .filter_map(|x| match x {
                FormedItem::TailFuse { chain_more, .. } => Some(*chain_more),
                _ => None,
            })
            .collect();
        assert_eq!(fuses, vec![true, false], "b chains on, c terminates");
        // All three share one tag.
        let tag = match &items[0] {
            FormedItem::HeadPending { head, .. } => head.dst.unwrap(),
            _ => panic!(),
        };
        for x in &items[1..] {
            if let FormedItem::TailFuse { tail, .. } = x {
                assert_eq!(tail.dst, Some(tag));
            }
        }
    }

    #[test]
    fn tail_claimed_by_earlier_head_cancels_second_pending() {
        // Two heads point at the same tail position... impossible by
        // construction (positions are unique), but two heads can expect
        // different positions where the second's expectation is consumed
        // as a plain instruction first. Exercise the cancel path via a
        // claimed-tail sidx mismatch instead.
        let mut f = former();
        let h1 = with_ptr(ri(0, 10, Some(1), &[]), 2, false, 12);
        let h2 = with_ptr(ri(1, 11, Some(2), &[]), 1, false, 99); // expects sidx 99 at pos 2
        let t = ri(2, 12, Some(3), &[1]);
        let items = f.step(&[h1, h2, t]);
        // h2's expectation fails (sidx 12 != 99) -> cancel; then the tail
        // fuses with h1? Position 2 is expected by both pendings; the
        // first match wins deterministically.
        assert!(items.iter().any(|x| matches!(x, FormedItem::Cancel { .. })));
    }
}
