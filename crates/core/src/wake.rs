//! A due-cycle calendar over processor wake-ups for the phase-split engine.
//!
//! The dense serial kernel asks every node "are you ready?" every cycle —
//! an O(num_nodes) scan whose cost at 256+ nodes dwarfs the work actually
//! performed, because at any instant most processors are mid-think or
//! blocked on a miss. The phase-split engine replaces the scan with this
//! timing wheel: every event that gives a processor a wake cycle (a poll, a
//! hit, an issued miss, a stall retry, a completed miss, a recovery restore)
//! schedules the node at that cycle, and each cycle the engine pops exactly
//! the nodes due now, in ascending node order — the same visit order as the
//! dense scan with its idle-skip filter.
//!
//! Entries are **hints, not truth**: the engine re-reads the processor's
//! `ready_at()` at pop time and reschedules (or drops) entries that moved.
//! That keeps the calendar sound without requiring every state transition to
//! retract stale entries — a node may be scheduled twice, and duplicates are
//! removed at pop. Wake cycles beyond the wheel's horizon (long recoveries,
//! deep think times) go to an ordered overflow map and are pulled back
//! on their due cycle, so drain order is exact at any distance.
//!
//! The engine does not pop every cycle: it pops nothing during a recovery's
//! stall window and fast-forwards over idle spans. A pop therefore drains
//! every entry due since the previous pop, not just the entries due now — a
//! node whose hint fell inside a skipped span is visited on the first cycle
//! the engine steps again, which is exactly when the dense scan would next
//! have observed it doing anything.

use std::collections::BTreeMap;

use specsim_base::Cycle;

/// Wheel size in cycles. Think times, cache latencies and miss round-trips
/// are all well under this; only recovery resumes and pathological delays
/// overflow. Must be a power of two.
const WAKE_WHEEL_BUCKETS: usize = 4096;

/// The wake-up calendar. See the module docs for semantics.
#[derive(Debug, Default)]
pub(crate) struct WakeCalendar {
    /// `buckets[c & mask]` holds `(due, node)` entries for cycles `c`
    /// congruent mod the wheel size; only entries with `due == now` are ripe
    /// when the bucket is drained.
    buckets: Vec<Vec<(Cycle, u32)>>,
    /// Entries scheduled further than the wheel can express.
    overflow: BTreeMap<Cycle, Vec<u32>>,
    /// The cycle of the previous pop: every entry due at or before it has
    /// been drained.
    popped_through: Cycle,
}

impl WakeCalendar {
    pub(crate) fn new() -> Self {
        Self {
            buckets: vec![Vec::new(); WAKE_WHEEL_BUCKETS],
            overflow: BTreeMap::new(),
            popped_through: 0,
        }
    }

    /// Schedules `node` to be visited at cycle `due` (callers pass
    /// `due > now`; `now` selects wheel vs. overflow placement).
    pub(crate) fn schedule(&mut self, now: Cycle, due: Cycle, node: u32) {
        debug_assert!(due > now, "wake must be scheduled in the future");
        if (due - now) as usize <= WAKE_WHEEL_BUCKETS {
            self.buckets[(due as usize) & (WAKE_WHEEL_BUCKETS - 1)].push((due, node));
        } else {
            self.overflow.entry(due).or_default().push(node);
        }
    }

    /// Pops every node due at or before `now` (and after the previous pop)
    /// into `out` (cleared first), in ascending node order with duplicates
    /// removed. Entries in a drained bucket that are due at a later lap stay
    /// in place.
    pub(crate) fn pop_due(&mut self, now: Cycle, out: &mut Vec<u32>) {
        out.clear();
        // One bucket per cycle since the previous pop, at most one lap.
        let span = now.saturating_sub(self.popped_through).max(1);
        let first = now + 1 - span.min(WAKE_WHEEL_BUCKETS as Cycle);
        for cycle in first..=now {
            let bucket = &mut self.buckets[(cycle as usize) & (WAKE_WHEEL_BUCKETS - 1)];
            bucket.retain(|&(due, node)| {
                if due <= now {
                    out.push(node);
                    false
                } else {
                    true
                }
            });
        }
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() > now {
                break;
            }
            out.extend(entry.remove());
        }
        self.popped_through = now;
        out.sort_unstable();
        out.dedup();
    }

    /// Discards every scheduled entry (recovery rollback: the engine
    /// reschedules all nodes at the resume cycle).
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_only_the_due_cycle_in_node_order() {
        let mut cal = WakeCalendar::new();
        cal.schedule(0, 5, 7);
        cal.schedule(0, 5, 3);
        cal.schedule(0, 5, 3); // duplicate
        cal.schedule(0, 6, 1);
        let mut out = Vec::new();
        cal.pop_due(5, &mut out);
        assert_eq!(out, vec![3, 7]);
        cal.pop_due(6, &mut out);
        assert_eq!(out, vec![1]);
        cal.pop_due(7, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn far_future_entries_drain_on_their_exact_cycle() {
        let mut cal = WakeCalendar::new();
        let far = 10 + 3 * WAKE_WHEEL_BUCKETS as Cycle;
        cal.schedule(10, far, 2);
        // A same-bucket near entry must not be confused with the far one.
        cal.schedule(
            10,
            10 + (far - 10) % WAKE_WHEEL_BUCKETS as Cycle + WAKE_WHEEL_BUCKETS as Cycle,
            9,
        );
        let mut out = Vec::new();
        cal.pop_due(10 + WAKE_WHEEL_BUCKETS as Cycle, &mut out);
        assert_eq!(out, vec![9]);
        cal.pop_due(far, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn wheel_lap_collisions_stay_put() {
        let mut cal = WakeCalendar::new();
        let lap = WAKE_WHEEL_BUCKETS as Cycle;
        // Same bucket, one lap apart; both inside wheel range of their
        // respective schedule times.
        cal.schedule(4, 5, 1);
        cal.schedule(5 + lap - 1, 5 + lap, 2);
        let mut out = Vec::new();
        cal.pop_due(5, &mut out);
        assert_eq!(out, vec![1]);
        cal.pop_due(5 + lap, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn a_late_pop_drains_every_entry_it_skipped_over() {
        let mut cal = WakeCalendar::new();
        let lap = WAKE_WHEEL_BUCKETS as Cycle;
        cal.schedule(0, 3, 4);
        cal.schedule(0, 7, 2);
        cal.schedule(0, 9, 5);
        cal.schedule(0, 3 * lap, 6);
        let mut out = Vec::new();
        cal.pop_due(1, &mut out);
        assert!(out.is_empty());
        // Cycles 2..=8 were never popped (a stall window or an idle span).
        cal.pop_due(8, &mut out);
        assert_eq!(out, vec![2, 4]);
        cal.pop_due(9, &mut out);
        assert_eq!(out, vec![5]);
        // A jump longer than the wheel still finds the overflow entry.
        cal.pop_due(4 * lap, &mut out);
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn clear_discards_everything() {
        let mut cal = WakeCalendar::new();
        cal.schedule(0, 3, 1);
        cal.schedule(0, 100_000, 2);
        cal.clear();
        let mut out = Vec::new();
        cal.pop_due(3, &mut out);
        assert!(out.is_empty());
        cal.pop_due(100_000, &mut out);
        assert!(out.is_empty());
    }
}
