//! MOP pointers and their instruction-cache-resident store (Section 5.1.3).
//!
//! A MOP pointer is a 4-bit forward pointer from a MOP head to its tail:
//! one bit records whether the pair spans a single taken direct control
//! transfer, and three bits give the fetch-order distance (1..=7). Pointers
//! are generated by MOP detection with a configurable delay, stored with
//! the head's I-cache line (and lost when that line is evicted), and
//! deleted — with the pair blacklisted — when the last-arriving-operand
//! filter fires (Section 5.4.2).

use std::collections::{HashMap, HashSet, VecDeque};

/// A 4-bit MOP pointer: forward offset from head to tail plus a
/// control-flow bit.
///
/// Our model additionally remembers the static index the tail had at
/// detection time; formation uses it to verify that the dynamic path it is
/// fetching matches the path the pointer was created on (the hardware
/// equivalent is the control-bit comparison of Section 5.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MopPointer {
    /// Fetch-order distance from head to tail, `1..=7` (3 bits).
    pub offset: u8,
    /// `true` when exactly one taken direct branch/jump separates head and
    /// tail on the detected path (1 bit).
    pub control: bool,
    /// Static index of the tail on the detected path (model-side identity
    /// check standing in for the hardware's path comparison).
    pub tail_sidx: u32,
    /// `true` when the pair was detected as an *independent* MOP
    /// (Section 5.4.1) rather than a dependent one.
    pub independent: bool,
}

impl MopPointer {
    /// Maximum encodable offset (3 bits).
    pub const MAX_OFFSET: u8 = 7;

    /// Construct a pointer.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is zero or exceeds [`MopPointer::MAX_OFFSET`].
    pub fn new(offset: u8, control: bool, tail_sidx: u32) -> MopPointer {
        assert!(
            (1..=Self::MAX_OFFSET).contains(&offset),
            "offset must be 1..=7"
        );
        MopPointer {
            offset,
            control,
            tail_sidx,
            independent: false,
        }
    }

    /// Mark the pair as an independent MOP.
    pub fn independent(mut self) -> MopPointer {
        self.independent = true;
        self
    }
}

/// The pointer store: models MOP pointers riding on first-level
/// instruction-cache lines.
///
/// * [`MopPointerStore::schedule_install`] queues a pointer produced by
///   detection; it becomes visible after the detection delay elapses
///   (pass the current cycle to [`MopPointerStore::tick`]).
/// * [`MopPointerStore::lookup`] is what fetch consults.
/// * [`MopPointerStore::invalidate_line`] drops every pointer whose head
///   lives on an evicted I-cache line.
/// * [`MopPointerStore::delete_and_blacklist`] implements the
///   last-arriving-operand filter: the pointer is removed and detection
///   will never re-create that exact pair, so it searches for an
///   alternative (Figure 12c).
///
/// Per-head state is a dense array indexed by static instruction id, so
/// the per-instruction queries (`lookup` at fetch, `has_pointer` and
/// `is_blacklisted` in detection) never hash. Only line invalidation and
/// the ban list of heads that actually have bans keep maps.
///
/// ```
/// use mos_core::pointer::{MopPointer, MopPointerStore};
/// let mut store = MopPointerStore::new();
/// store.schedule_install(10, MopPointer::new(2, false, 12), 0x400040, 3);
/// store.tick(2);
/// assert_eq!(store.lookup(10), None); // not visible yet
/// store.tick(3);
/// assert_eq!(store.lookup(10).map(|p| p.offset), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MopPointerStore {
    /// Per-head state by static index, grown on first touch.
    heads: Vec<Head>,
    /// Line address -> head static indices resident on it.
    by_line: HashMap<u64, Vec<u32>>,
    /// Pairs the last-arrival filter has banned.
    blacklist: HashSet<(u32, u32)>,
    /// Installs waiting out the detection delay, ordered by ready cycle.
    pending: VecDeque<(u64, u32, MopPointer, u64)>,
    installs: u64,
    invalidations: u64,
    filter_deletes: u64,
}

/// What the store knows about one static instruction as a MOP head.
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    /// The visible pointer, if any.
    pointer: Option<MopPointer>,
    /// The I-cache line the pointer was installed under (valid while
    /// `pointer` is `Some`).
    line: u64,
    /// Installs for this head still waiting out the detection delay.
    pending: u32,
    /// Some pair with this head is on the blacklist.
    banned: bool,
}

impl MopPointerStore {
    /// Empty store.
    pub fn new() -> MopPointerStore {
        MopPointerStore::default()
    }

    fn head(&self, sidx: u32) -> Head {
        self.heads.get(sidx as usize).copied().unwrap_or_default()
    }

    fn head_mut(&mut self, sidx: u32) -> &mut Head {
        let i = sidx as usize;
        if i >= self.heads.len() {
            self.heads.resize(i + 1, Head::default());
        }
        &mut self.heads[i]
    }

    /// Queue a pointer for `head_sidx`, resident on I-cache line
    /// `line_addr`, becoming visible at cycle `ready_at`.
    ///
    /// Blacklisted pairs are silently dropped.
    pub fn schedule_install(
        &mut self,
        head_sidx: u32,
        pointer: MopPointer,
        line_addr: u64,
        ready_at: u64,
    ) {
        if self.is_blacklisted(head_sidx, pointer.tail_sidx) {
            return;
        }
        // Keep the queue ordered; detection emits in nondecreasing cycles.
        debug_assert!(self.pending.back().is_none_or(|p| p.0 <= ready_at));
        self.pending.push_back((ready_at, head_sidx, pointer, line_addr));
        self.head_mut(head_sidx).pending += 1;
    }

    /// Make all pointers whose delay has elapsed visible. Call once per
    /// cycle (or whenever convenient) with the current cycle.
    pub fn tick(&mut self, now: u64) {
        while let Some((head, ptr, line)) = self.pop_ready(now) {
            self.install_now(head, ptr, line);
        }
    }

    /// [`MopPointerStore::tick`] that additionally appends each
    /// `(head_sidx, line_addr)` actually installed this call to `out`
    /// (pointers dropped by the blacklist are not reported). Used by the
    /// simulator's event tracer.
    pub fn tick_into(&mut self, now: u64, out: &mut Vec<(u32, u64)>) {
        while let Some((head, ptr, line)) = self.pop_ready(now) {
            if self.install_now(head, ptr, line) {
                out.push((head, line));
            }
        }
    }

    fn pop_ready(&mut self, now: u64) -> Option<(u32, MopPointer, u64)> {
        let &(ready, head, ptr, line) = self.pending.front()?;
        if ready > now {
            return None;
        }
        self.pending.pop_front();
        self.heads[head as usize].pending -= 1;
        Some((head, ptr, line))
    }

    fn install_now(&mut self, head_sidx: u32, pointer: MopPointer, line_addr: u64) -> bool {
        if self.is_blacklisted(head_sidx, pointer.tail_sidx) {
            return false;
        }
        let h = self.head_mut(head_sidx);
        let old_line = h.pointer.map(|_| h.line);
        h.pointer = Some(pointer);
        h.line = line_addr;
        if let Some(old_line) = old_line.filter(|&l| l != line_addr) {
            if let Some(v) = self.by_line.get_mut(&old_line) {
                v.retain(|&s| s != head_sidx);
            }
        }
        let heads = self.by_line.entry(line_addr).or_default();
        if !heads.contains(&head_sidx) {
            heads.push(head_sidx);
        }
        self.installs += 1;
        true
    }

    /// The pointer fetched along with the instruction at `head_sidx`, if
    /// one is currently stored.
    pub fn lookup(&self, head_sidx: u32) -> Option<MopPointer> {
        self.head(head_sidx).pointer
    }

    /// `true` when a pointer for `head_sidx` is visible or still waiting
    /// out the detection delay. Detection uses this to avoid redundant
    /// work.
    pub fn has_pointer(&self, head_sidx: u32) -> bool {
        let h = self.head(head_sidx);
        h.pointer.is_some() || h.pending > 0
    }

    /// Drop every pointer whose head instruction lives on the evicted
    /// I-cache line `line_addr`.
    pub fn invalidate_line(&mut self, line_addr: u64) {
        self.invalidate_line_with(line_addr, |_| {});
    }

    /// [`MopPointerStore::invalidate_line`] that additionally appends the
    /// head static index of each pointer actually dropped to `out`. Used
    /// by the simulator's event tracer.
    pub fn invalidate_line_into(&mut self, line_addr: u64, out: &mut Vec<u32>) {
        self.invalidate_line_with(line_addr, |h| out.push(h));
    }

    fn invalidate_line_with(&mut self, line_addr: u64, mut dropped: impl FnMut(u32)) {
        if let Some(heads) = self.by_line.remove(&line_addr) {
            for h in heads {
                if self.heads[h as usize].pointer.take().is_some() {
                    self.invalidations += 1;
                    dropped(h);
                }
            }
        }
    }

    /// Last-arriving-operand filter (Section 5.4.2): delete the pointer at
    /// `head_sidx` (writing a zero-value pointer, in the paper's terms) and
    /// blacklist the pair so detection searches for an alternative tail.
    /// Returns `true` when a pointer was actually deleted.
    pub fn delete_and_blacklist(&mut self, head_sidx: u32) -> bool {
        let Some(h) = self.heads.get_mut(head_sidx as usize) else {
            return false;
        };
        let Some(ptr) = h.pointer.take() else {
            return false;
        };
        h.banned = true;
        let line = h.line;
        self.blacklist.insert((head_sidx, ptr.tail_sidx));
        self.filter_deletes += 1;
        if let Some(v) = self.by_line.get_mut(&line) {
            v.retain(|&s| s != head_sidx);
        }
        true
    }

    /// `true` when the exact pair has been banned by the filter.
    pub fn is_blacklisted(&self, head_sidx: u32, tail_sidx: u32) -> bool {
        self.head(head_sidx).banned && self.blacklist.contains(&(head_sidx, tail_sidx))
    }

    /// `(installs, line invalidations, filter deletions)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.installs, self.invalidations, self.filter_deletes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn zero_offset_rejected() {
        let _ = MopPointer::new(0, false, 1);
    }

    #[test]
    #[should_panic]
    fn oversized_offset_rejected() {
        let _ = MopPointer::new(8, false, 1);
    }

    #[test]
    fn detection_delay_gates_visibility() {
        let mut s = MopPointerStore::new();
        s.schedule_install(5, MopPointer::new(1, false, 6), 0x40, 100);
        s.tick(99);
        assert_eq!(s.lookup(5), None);
        assert!(s.has_pointer(5), "pending pointers count as present");
        s.tick(100);
        assert_eq!(s.lookup(5).map(|p| p.tail_sidx), Some(6));
    }

    #[test]
    fn pending_installs_are_counted_per_head() {
        let mut s = MopPointerStore::new();
        s.schedule_install(5, MopPointer::new(1, false, 6), 0x40, 10);
        s.schedule_install(5, MopPointer::new(1, false, 6), 0x40, 20);
        s.tick(10);
        s.delete_and_blacklist(5);
        assert_eq!(s.lookup(5), None);
        assert!(s.has_pointer(5), "the second install is still pending");
        assert!(!s.has_pointer(6) && !s.has_pointer(1_000), "untouched heads");
        // The banned pair's pending install is dropped when it comes due,
        // and the head's pending count drains with it.
        s.tick(20);
        assert_eq!(s.lookup(5), None);
        assert!(!s.has_pointer(5));
        assert!(s.is_blacklisted(5, 6) && !s.is_blacklisted(5, 7));
    }

    #[test]
    fn line_eviction_drops_pointers() {
        let mut s = MopPointerStore::new();
        s.schedule_install(1, MopPointer::new(1, false, 2), 0x40, 0);
        s.schedule_install(3, MopPointer::new(2, true, 5), 0x40, 0);
        s.schedule_install(9, MopPointer::new(1, false, 10), 0x80, 0);
        s.tick(0);
        s.invalidate_line(0x40);
        assert_eq!(s.lookup(1), None);
        assert_eq!(s.lookup(3), None);
        assert!(s.lookup(9).is_some(), "other lines unaffected");
        assert_eq!(s.stats().1, 2);
    }

    #[test]
    fn filter_blacklists_pair_but_allows_alternatives() {
        let mut s = MopPointerStore::new();
        s.schedule_install(1, MopPointer::new(1, false, 2), 0x40, 0);
        s.tick(0);
        s.delete_and_blacklist(1);
        assert_eq!(s.lookup(1), None);
        assert!(s.is_blacklisted(1, 2));
        // Re-detection of the same pair is dropped...
        s.schedule_install(1, MopPointer::new(1, false, 2), 0x40, 1);
        s.tick(1);
        assert_eq!(s.lookup(1), None);
        // ...but an alternative tail is accepted (Figure 12c).
        s.schedule_install(1, MopPointer::new(3, false, 4), 0x40, 2);
        s.tick(2);
        assert_eq!(s.lookup(1).map(|p| p.tail_sidx), Some(4));
    }

    #[test]
    fn reinstall_moves_between_lines() {
        let mut s = MopPointerStore::new();
        s.schedule_install(1, MopPointer::new(1, false, 2), 0x40, 0);
        s.tick(0);
        // Same head re-detected after the code was refetched to a new line
        // address context.
        s.schedule_install(1, MopPointer::new(2, false, 3), 0x80, 1);
        s.tick(1);
        s.invalidate_line(0x40);
        assert!(s.lookup(1).is_some(), "pointer now lives on line 0x80");
        s.invalidate_line(0x80);
        assert_eq!(s.lookup(1), None);
    }
}
