//! The DRAM-timer monitor that power-gates LTP (§5.2).
//!
//! In compute-bound phases there are no long-latency loads, so every
//! instruction misses in the UIT and would be classified Non-Urgent; parking
//! everything wastes energy for no benefit. The paper re-uses the timer-based
//! DRAM monitor of Kora et al. [4]: on every demand access that misses in the
//! L3, a timer set to the DRAM latency is (re)started and LTP is enabled; if
//! the timer expires without further long-latency activity, LTP is turned off
//! (power gated).

use crate::Cycle;

/// Timer-based monitor deciding whether LTP is currently enabled.
#[derive(Debug, Clone)]
pub struct DramTimerMonitor {
    pub(crate) timeout: u64,
    /// Cycle until which LTP stays enabled (exclusive); `None` = never armed.
    pub(crate) enabled_until: Option<Cycle>,
    /// Accounting of enabled time for the Figure 7 "Enabled (Powered On)" row.
    pub(crate) enabled_cycles: u64,
    pub(crate) last_observed: Cycle,
    pub(crate) was_enabled: bool,
    pub(crate) activations: u64,
}

impl DramTimerMonitor {
    /// Creates a monitor whose timer is set to `timeout` cycles (the paper
    /// sets it to the DRAM latency).
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    #[must_use]
    pub fn new(timeout: u64) -> DramTimerMonitor {
        assert!(timeout > 0, "monitor timeout must be positive");
        DramTimerMonitor {
            timeout,
            enabled_until: None,
            enabled_cycles: 0,
            last_observed: 0,
            was_enabled: false,
            activations: 0,
        }
    }

    /// Notes a demand access that missed in the L3 at cycle `now`: the timer
    /// is restarted and LTP is enabled.
    pub fn note_llc_miss(&mut self, now: Cycle) {
        self.advance(now);
        if !self.was_enabled {
            self.activations += 1;
        }
        self.enabled_until = Some(now + self.timeout);
        self.was_enabled = true;
    }

    /// Whether LTP is enabled at cycle `now`.
    pub fn enabled(&mut self, now: Cycle) -> bool {
        self.advance(now);
        self.was_enabled
    }

    fn advance(&mut self, now: Cycle) {
        if now < self.last_observed {
            return;
        }
        // Account enabled time between the last observation and `now`.
        if let Some(until) = self.enabled_until {
            let end = until.min(now);
            if end > self.last_observed {
                self.enabled_cycles += end - self.last_observed;
            }
            self.was_enabled = now < until;
        }
        self.last_observed = now;
    }

    /// Total cycles during which LTP has been enabled so far.
    #[must_use]
    pub fn enabled_cycles(&self) -> u64 {
        self.enabled_cycles
    }

    /// Fraction of the observed time LTP was enabled.
    #[must_use]
    pub fn enabled_fraction(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.enabled_cycles as f64 / total_cycles as f64
        }
    }

    /// Number of off→on transitions.
    #[must_use]
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The timer value in cycles.
    #[must_use]
    pub fn timeout(&self) -> u64 {
        self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_until_first_llc_miss() {
        let mut m = DramTimerMonitor::new(200);
        assert!(!m.enabled(0));
        assert!(!m.enabled(1000));
        m.note_llc_miss(1000);
        assert!(m.enabled(1001));
        assert_eq!(m.activations(), 1);
    }

    #[test]
    fn timer_expires_without_activity() {
        let mut m = DramTimerMonitor::new(200);
        m.note_llc_miss(100);
        assert!(m.enabled(250));
        assert!(!m.enabled(301));
        // The window the miss opened is [100, 300).
        assert_eq!(m.enabled_until, Some(300));
    }

    #[test]
    fn repeated_misses_keep_it_enabled() {
        let mut m = DramTimerMonitor::new(200);
        for t in (0..2000).step_by(100) {
            m.note_llc_miss(t);
        }
        assert!(m.enabled(2050));
        assert_eq!(
            m.activations(),
            1,
            "never turned off, so only one activation"
        );
    }

    #[test]
    fn enabled_cycles_accumulate() {
        let mut m = DramTimerMonitor::new(100);
        m.note_llc_miss(0);
        // Observe well past expiry.
        assert!(!m.enabled(500));
        assert_eq!(m.enabled_cycles(), 100);
        assert!((m.enabled_fraction(500) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn reactivation_counts() {
        let mut m = DramTimerMonitor::new(50);
        m.note_llc_miss(0);
        assert!(!m.enabled(100));
        m.note_llc_miss(200);
        assert!(m.enabled(210));
        assert_eq!(m.activations(), 2);
    }

    #[test]
    fn out_of_order_observation_is_ignored() {
        let mut m = DramTimerMonitor::new(50);
        m.note_llc_miss(100);
        assert!(m.enabled(120));
        // An observation earlier than the last one must not corrupt state.
        assert!(m.enabled(110));
        assert!(m.enabled(120));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timeout_panics() {
        let _ = DramTimerMonitor::new(0);
    }

    #[test]
    fn enabled_fraction_of_zero_cycles() {
        let m = DramTimerMonitor::new(10);
        assert_eq!(m.enabled_fraction(0), 0.0);
    }

    /// Power-gating boundary: LTP is on strictly before `miss + timeout` and
    /// off exactly at it (the window is exclusive).
    #[test]
    fn gating_boundary_is_exclusive() {
        let mut m = DramTimerMonitor::new(100);
        m.note_llc_miss(50);
        assert_eq!(m.enabled_until, Some(150));
        assert!(m.enabled(149));
        assert!(!m.enabled(150));
    }

    /// A full off→on→off→on gating cycle accumulates exactly one timeout of
    /// enabled time per window and one activation per off→on edge.
    #[test]
    fn full_gating_cycle_accounting() {
        let mut m = DramTimerMonitor::new(100);
        assert!(!m.enabled(0));
        m.note_llc_miss(1000); //            on  at 1000 (window 1000..1100)
        assert!(!m.enabled(1500)); //        off at 1100
        m.note_llc_miss(2000); //            on  again (window 2000..2100)
        assert!(!m.enabled(3000)); //        off at 2100
        assert_eq!(m.activations(), 2);
        assert_eq!(m.enabled_cycles(), 200, "two full 100-cycle windows");
        assert!((m.enabled_fraction(4000) - 0.05).abs() < 1e-9);
    }

    /// Re-arming before expiry extends the window without double-counting
    /// the overlapping enabled time and without a spurious activation.
    #[test]
    fn rearm_extends_window_without_double_counting() {
        let mut m = DramTimerMonitor::new(100);
        m.note_llc_miss(0); //   window 0..100
        m.note_llc_miss(60); //  extended to 60..160, still one activation
        assert!(m.enabled(159));
        assert!(!m.enabled(160));
        assert_eq!(m.activations(), 1);
        assert_eq!(m.enabled_cycles(), 160, "0..160 continuously enabled");
    }
}
