//! Deadlock detection support.
//!
//! The speculatively simplified interconnect (Section 4) removes virtual
//! channels and relies on detection + recovery instead of avoidance. The
//! *architectural* detection mechanism of the paper is a coherence
//! transaction timeout ("the requestor of the transaction will timeout and
//! trigger a system recovery"), which lives with the protocol controllers.
//! This module provides the complementary *diagnostic* machinery used by
//! tests and experiments to confirm that a network truly is (or is not)
//! deadlocked: a progress watchdog that notices when messages exist but none
//! has moved for a long time.

use specsim_base::Cycle;

/// Detects lack of forward progress: if the network holds messages but none
/// has moved for `threshold` cycles, the network is either deadlocked or
/// completely throttled by the endpoints.
#[derive(Debug, Clone)]
pub struct ProgressWatchdog {
    last_progress: Cycle,
    threshold: u64,
}

impl ProgressWatchdog {
    /// Creates a watchdog that reports a stall after `threshold` cycles
    /// without any message movement.
    #[must_use]
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self {
            last_progress: 0,
            threshold,
        }
    }

    /// Records that at least one message moved at cycle `now`.
    pub fn record_progress(&mut self, now: Cycle) {
        self.last_progress = self.last_progress.max(now);
    }

    /// Cycle of the most recent recorded movement.
    #[must_use]
    pub fn last_progress(&self) -> Cycle {
        self.last_progress
    }

    /// First cycle at which [`ProgressWatchdog::is_stalled`] reports a stall
    /// if nothing moves in the meantime.
    #[must_use]
    pub fn stall_onset(&self) -> Cycle {
        self.last_progress + self.threshold
    }

    /// Returns `true` when messages are present (`in_flight > 0`) but nothing
    /// has moved for at least the threshold.
    #[must_use]
    pub fn is_stalled(&self, now: Cycle, in_flight: usize) -> bool {
        in_flight > 0 && now.saturating_sub(self.last_progress) >= self.threshold
    }

    /// Resets the watchdog (e.g. after a recovery drained the network).
    pub fn reset(&mut self, now: Cycle) {
        self.last_progress = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_network_is_never_stalled() {
        let w = ProgressWatchdog::new(100);
        assert!(!w.is_stalled(1_000_000, 0));
    }

    #[test]
    fn stall_requires_threshold_of_silence() {
        let mut w = ProgressWatchdog::new(100);
        w.record_progress(50);
        assert!(!w.is_stalled(100, 3));
        assert!(!w.is_stalled(149, 3));
        assert!(w.is_stalled(150, 3));
        assert_eq!(w.stall_onset(), 150);
        // Progress resets the countdown.
        w.record_progress(160);
        assert!(!w.is_stalled(200, 3));
        assert!(w.is_stalled(260, 3));
    }

    #[test]
    fn reset_clears_the_stall() {
        let mut w = ProgressWatchdog::new(10);
        w.record_progress(0);
        assert!(w.is_stalled(20, 1));
        w.reset(20);
        assert!(!w.is_stalled(25, 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_panics() {
        let _ = ProgressWatchdog::new(0);
    }
}
