//! Livelock watchdog: a progress monitor for discrete-event loops.
//!
//! Deadlock in a DES is structural — the event queue drains with work
//! outstanding — and is detected directly by the engine. *Livelock* is
//! subtler: events keep flowing (spinning flag polls, retried
//! requests) but nothing retires. [`ProgressWatchdog`] detects it by
//! tracking the last cycle at which real progress (a retired load or a
//! committed store) was reported and flagging when the gap exceeds a
//! configurable budget.

/// Tracks forward progress against a cycle budget.
///
/// With `budget = None` the watchdog is disarmed and never fires —
/// the default, since legitimate runs may have long memory-bound
/// stretches and the right budget is workload-dependent.
#[derive(Debug, Clone, Copy)]
pub struct ProgressWatchdog {
    budget: Option<u64>,
    last_progress: u64,
    /// End of the current grace window (quiesce epoch): progress gaps
    /// are measured from here while it is in the future.
    grace_until: u64,
}

impl ProgressWatchdog {
    /// A watchdog allowing up to `budget` cycles between retirements.
    pub fn new(budget: Option<u64>) -> Self {
        ProgressWatchdog {
            budget,
            last_progress: 0,
            grace_until: 0,
        }
    }

    /// Record that real progress happened at `now`.
    pub fn note_progress(&mut self, now: u64) {
        self.last_progress = self.last_progress.max(now);
    }

    /// Cycle of the most recent recorded progress.
    pub fn last_progress(&self) -> u64 {
        self.last_progress
    }

    /// Open a grace window: treat the watchdog as satisfied until
    /// `now + cycles`, without claiming real progress happened. Used by
    /// the engine's quiesce epochs — a fail-in-place reconfiguration
    /// legitimately retires nothing while drained transactions are
    /// re-issued and must not read as a livelock. Windows never shrink:
    /// a second `suspend` ending earlier is a no-op. Disarmed watchdogs
    /// (`budget = None`, the `--livelock-budget 0` CLI semantics) stay
    /// disarmed; the grace window is simply irrelevant to them.
    pub fn suspend(&mut self, now: u64, cycles: u64) {
        self.grace_until = self.grace_until.max(now.saturating_add(cycles));
    }

    /// If armed and `now` is more than the budget past the last
    /// progress (or past the current grace window, whichever ends
    /// later), returns the size of the stalled gap.
    pub fn stalled(&self, now: u64) -> Option<u64> {
        let budget = self.budget?;
        let base = self.last_progress.max(self.grace_until);
        let gap = now.saturating_sub(base);
        (gap > budget).then_some(gap)
    }
}

// The full triple (budget, last progress, grace window) round-trips so
// a restored run inherits the exact livelock accounting of the
// interrupted one, including any quiesce epoch that was still open.
crate::snapshot_codec!(ProgressWatchdog {
    budget,
    last_progress,
    grace_until
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_watchdog_never_fires() {
        let w = ProgressWatchdog::new(None);
        assert_eq!(w.stalled(u64::MAX), None);
    }

    #[test]
    fn fires_only_past_budget() {
        let mut w = ProgressWatchdog::new(Some(100));
        assert_eq!(w.stalled(100), None);
        assert_eq!(w.stalled(101), Some(101));
        w.note_progress(50);
        assert_eq!(w.stalled(150), None);
        assert_eq!(w.stalled(151), Some(101));
    }

    #[test]
    fn suspend_opens_a_grace_window() {
        let mut w = ProgressWatchdog::new(Some(100));
        w.note_progress(50);
        // A quiesce epoch at cycle 60 suspends for 500 cycles: the
        // watchdog must hold its fire until 560 + budget.
        w.suspend(60, 500);
        assert_eq!(w.stalled(660), None);
        assert_eq!(w.stalled(661), Some(101));
        // Real progress after the window resumes normal accounting.
        w.note_progress(700);
        assert_eq!(w.stalled(800), None);
        assert_eq!(w.stalled(801), Some(101));
        // Windows never shrink.
        w.suspend(0, 1);
        assert_eq!(w.stalled(801), Some(101));
    }

    #[test]
    fn suspended_disarmed_watchdog_stays_disarmed() {
        let mut w = ProgressWatchdog::new(None);
        w.suspend(10, 10);
        assert_eq!(w.stalled(u64::MAX), None);
    }

    #[test]
    fn progress_is_monotone() {
        let mut w = ProgressWatchdog::new(Some(10));
        w.note_progress(90);
        w.note_progress(40); // out-of-order report must not rewind
        assert_eq!(w.last_progress(), 90);
        assert_eq!(w.stalled(95), None);
    }
}
