//! The execution-event timing wheel.
//!
//! Every event the pipeline schedules lands a bounded number of cycles
//! ahead: an `Exec` at most `exec_offset + max_mop_size - 1` after its
//! issue, a `LoadResolve` exactly `dl1.hit_latency` after its execution.
//! A power-of-two ring of per-cycle buckets longer than that horizon holds
//! every outstanding event in its own bucket, so scheduling and draining
//! are an index and a `Vec` push/pop, and a warm wheel never allocates.

/// Events due within `horizon` cycles of the present, bucketed by
/// `cycle & mask`.
#[derive(Debug)]
pub(crate) struct Wheel<E> {
    slots: Vec<Vec<E>>,
    mask: u64,
    horizon: u64,
}

impl<E> Wheel<E> {
    /// A wheel for events at most `horizon` cycles ahead of the present.
    pub(crate) fn new(horizon: u64) -> Wheel<E> {
        let len = (horizon + 1).next_power_of_two();
        Wheel {
            slots: (0..len).map(|_| Vec::new()).collect(),
            mask: len - 1,
            horizon,
        }
    }

    /// Schedule `ev` for cycle `at`, seen from cycle `now`. Events of one
    /// cycle are delivered in push order.
    ///
    /// The wheel's invariant is `now < at <= now + horizon`: an event for
    /// the present or the past would never be delivered, and one beyond
    /// the horizon would alias a nearer cycle's bucket.
    pub(crate) fn push(&mut self, now: u64, at: u64, ev: E) {
        debug_assert!(
            at > now && at - now <= self.horizon,
            "event at cycle {at} scheduled at cycle {now}, outside the {}-cycle horizon",
            self.horizon
        );
        self.slots[(at & self.mask) as usize].push(ev);
    }

    /// Take the bucket of cycle `now` for draining; hand it back, empty,
    /// with [`Wheel::restore`] so its capacity is kept. Events scheduled
    /// while it is out land in later buckets.
    pub(crate) fn take(&mut self, now: u64) -> Vec<E> {
        std::mem::take(&mut self.slots[(now & self.mask) as usize])
    }

    /// Return the drained bucket of cycle `now`.
    pub(crate) fn restore(&mut self, now: u64, bucket: Vec<E>) {
        let slot = &mut self.slots[(now & self.mask) as usize];
        debug_assert!(
            bucket.is_empty() && slot.is_empty(),
            "bucket of cycle {now} not drained"
        );
        *slot = bucket;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain cycle `now`, letting `handle` schedule follow-ups.
    fn drain(
        w: &mut Wheel<u32>,
        now: u64,
        mut handle: impl FnMut(&mut Wheel<u32>, u32),
    ) -> Vec<u32> {
        let mut bucket = w.take(now);
        let seen: Vec<u32> = bucket.clone();
        for ev in bucket.drain(..) {
            handle(w, ev);
        }
        w.restore(now, bucket);
        seen
    }

    #[test]
    fn event_at_the_horizon_fires_on_its_cycle() {
        // Horizon 6 (exec_offset 5 + a 2-wide MOP's second member): an
        // 8-slot ring.
        let mut w = Wheel::new(6);
        w.push(10, 16, 1);
        for now in 11..16 {
            assert!(drain(&mut w, now, |_, _| {}).is_empty(), "early at {now}");
        }
        assert_eq!(drain(&mut w, 16, |_, _| {}), vec![1]);
        assert!(drain(&mut w, 24, |_, _| {}).is_empty(), "delivered once");
    }

    #[test]
    fn same_cycle_events_keep_push_order() {
        let mut w = Wheel::new(6);
        for (now, ev) in [(0, 3), (1, 1), (1, 4), (2, 2)] {
            w.push(now, 5, ev);
        }
        assert_eq!(drain(&mut w, 5, |_, _| {}), vec![3, 1, 4, 2]);
    }

    #[test]
    fn events_scheduled_while_draining_land_in_later_slots() {
        // An Exec at cycle 7 schedules its LoadResolve 2 cycles later.
        let mut w = Wheel::new(6);
        w.push(3, 7, 100);
        let now_seen = drain(&mut w, 7, |w, ev| w.push(7, 9, ev + 1));
        assert_eq!(now_seen, vec![100]);
        assert!(drain(&mut w, 8, |_, _| {}).is_empty());
        assert_eq!(drain(&mut w, 9, |_, _| {}), vec![101]);
    }

    #[test]
    fn drained_buckets_keep_their_capacity() {
        let mut w = Wheel::new(3);
        for k in 0..16 {
            w.push(0, 2, k);
        }
        drain(&mut w, 2, |_, _| {});
        assert!(w.slots[2].capacity() >= 16);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "horizon")]
    fn event_beyond_the_horizon_is_rejected() {
        Wheel::new(6).push(10, 17, 0u32);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "horizon")]
    fn event_for_the_present_is_rejected() {
        Wheel::new(6).push(10, 10, 0u32);
    }
}
