//! # ltp-stats
//!
//! Statistics primitives shared by the simulator and the experiment
//! harnesses: event counters, time-weighted occupancy averages (used for the
//! "average resources in use per cycle" plots of Figure 1c and Figure 7),
//! histograms, and confidence intervals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ci;
mod histogram;
mod occupancy;
mod summary;

pub use ci::{t95, ConfidenceInterval};
pub use histogram::Histogram;
pub use occupancy::OccupancyTracker;
pub use summary::{geometric_mean, ratio, speedup_percent, MeanAccumulator};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let mut h = Histogram::new();
        h.record(3);
        let mut o = OccupancyTracker::new();
        o.sample(1, 5);
        let mut m = MeanAccumulator::new();
        m.add(2.0);
        assert_eq!(h.count(), 1);
        assert!(m.mean() > 1.0);
    }
}
