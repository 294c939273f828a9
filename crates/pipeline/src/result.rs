//! Results of a simulation run, and the structured errors a run can end in.

use crate::rob::RobState;
use ltp_core::{LtpMode, LtpStats};
use ltp_isa::{OpClass, SeqNum};
use ltp_mem::{Cycle, MemoryStats};
use ltp_stats::OccupancyTracker;

/// Time-weighted occupancy of every sized structure, for the
//  "Avg. Resources in use per cycle" plots (Figure 1c, Figure 7).
#[derive(Debug, Clone, Default)]
pub struct OccupancyReport {
    /// Instruction queue occupancy.
    pub iq: OccupancyTracker,
    /// Reorder buffer occupancy.
    pub rob: OccupancyTracker,
    /// Load queue occupancy.
    pub lq: OccupancyTracker,
    /// Store queue occupancy.
    pub sq: OccupancyTracker,
    /// Physical registers in use (both classes, beyond the architectural
    /// mappings).
    pub regs: OccupancyTracker,
    /// Instructions parked in LTP.
    pub ltp: OccupancyTracker,
    /// Registers "in LTP": parked instructions that will need a destination
    /// register when released (Figure 7, second row).
    pub ltp_regs: OccupancyTracker,
    /// Loads parked in LTP.
    pub ltp_loads: OccupancyTracker,
    /// Stores parked in LTP.
    pub ltp_stores: OccupancyTracker,
    /// Outstanding memory requests beyond the L1 (Figure 1b).
    pub outstanding_misses: OccupancyTracker,
}

/// Activity counters needed by the energy model (`ltp-energy`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ActivityCounters {
    /// Instructions written into the IQ.
    pub iq_writes: u64,
    /// Instructions issued from the IQ.
    pub iq_issues: u64,
    /// Register-file read-port accesses (source operands of issued
    /// instructions).
    pub rf_reads: u64,
    /// Register-file write-port accesses (results written back).
    pub rf_writes: u64,
    /// Instructions parked into LTP.
    pub ltp_writes: u64,
    /// Instructions released from LTP.
    pub ltp_reads: u64,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Name of the workload that was run.
    pub workload: String,
    /// Simulated cycles (after pipeline warm-up).
    pub cycles: u64,
    /// Committed instructions (after pipeline warm-up).
    pub instructions: u64,
    /// Occupancy of every structure.
    pub occupancy: OccupancyReport,
    /// Energy-relevant activity counters.
    pub activity: ActivityCounters,
    /// LTP counters (parked / released / per class).
    pub ltp: LtpStats,
    /// Fraction of time the LTP was enabled (Figure 7, bottom).
    pub ltp_enabled_fraction: f64,
    /// Memory hierarchy statistics.
    pub mem: MemoryStats,
    /// Branch misprediction rate.
    pub branch_mispredict_rate: f64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Loads that missed the LLC (long-latency loads).
    pub llc_miss_loads: u64,
    /// Host work, not a simulated quantity: the iterations of the cycle
    /// loop this run executed, warm-up included. The loop skips spans of
    /// quiet cycles in one step, so this is at most the cycles the run
    /// simulated; [`crate::Processor::run_observed`] executes every cycle.
    /// No fingerprint or digest reads it.
    pub cycle_loop_iterations: u64,
}

impl RunResult {
    /// Cycles per committed instruction.
    ///
    /// # Panics
    ///
    /// Panics if no instructions were committed.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        assert!(self.instructions > 0, "no instructions were committed");
        self.cycles as f64 / self.instructions as f64
    }

    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        1.0 / self.cpi()
    }

    /// Average number of outstanding memory requests per cycle (Figure 1b).
    #[must_use]
    pub fn avg_outstanding_misses(&self) -> f64 {
        self.occupancy.outstanding_misses.mean()
    }

    /// Speed-up of this run over `baseline`, in percent (positive = faster),
    /// the normalisation used throughout the paper's figures.
    #[must_use]
    pub fn speedup_over_percent(&self, baseline: &RunResult) -> f64 {
        ltp_stats::speedup_percent(baseline.cpi(), self.cpi())
    }

    /// MLP-sensitivity criteria of §4.1 relative to a small-IQ run: the
    /// larger window must give at least 5 % speed-up, at least 10 % more
    /// outstanding requests, and the average memory latency must exceed the
    /// L2 latency.
    #[must_use]
    pub fn is_mlp_sensitive_vs(&self, small_iq_run: &RunResult, l2_latency: u64) -> bool {
        let speedup = self.speedup_over_percent(small_iq_run);
        let mlp_small = small_iq_run.avg_outstanding_misses().max(1e-9);
        let mlp_gain = (self.avg_outstanding_misses() - mlp_small) / mlp_small * 100.0;
        let avg_latency = self.mem.avg_latency();
        speedup > 5.0 && mlp_gain > 10.0 && avg_latency > l2_latency as f64
    }
}

/// The result of an SMT co-run: one [`RunResult`] per hardware thread over a
/// single shared-cycle timeline.
///
/// Each thread's result carries the thread's own statistics with `cycles`
/// set to the cycle at which *that thread* drained, so per-thread IPC covers
/// the thread's active window and is not diluted by a co-runner's tail. The
/// aggregate metrics use the shared timeline ([`SmtRunResult::cycles`], the
/// cycle the whole co-run finished). The memory statistics inside each
/// thread's result are those of the *shared* hierarchy (they cannot be
/// attributed to one thread).
#[derive(Debug, Clone)]
pub struct SmtRunResult {
    /// Simulated cycles of the whole co-run (all threads drained).
    pub cycles: u64,
    /// Per-thread results, indexed by thread id.
    pub threads: Vec<RunResult>,
}

impl SmtRunResult {
    /// Total instructions committed across all threads.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.threads.iter().map(|t| t.instructions).sum()
    }

    /// Aggregate throughput in instructions per cycle (the SMT headline
    /// metric: total committed work divided by the shared cycle count).
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        self.total_instructions() as f64 / self.cycles.max(1) as f64
    }

    /// Per-thread instructions per cycle over the thread's own active window
    /// (zero for a thread that committed nothing).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn thread_ipc(&self, tid: usize) -> f64 {
        let t = &self.threads[tid];
        if t.instructions == 0 {
            0.0
        } else {
            t.ipc()
        }
    }
}

/// A frozen view of the machine at the moment a deadlock was detected,
/// carried by [`RunError::Deadlock`] so a stuck configuration surfaces as
/// inspectable data instead of a panic string.
#[derive(Debug, Clone)]
pub struct DeadlockSnapshot {
    /// Name of the workload that was running.
    pub workload: String,
    /// Instructions committed before progress stopped.
    pub committed: u64,
    /// Occupied ROB entries.
    pub rob_len: usize,
    /// Occupied IQ entries.
    pub iq_len: usize,
    /// Instructions parked in the LTP.
    pub ltp_occupancy: usize,
    /// The ROB head blocking commit, if any: `(seq, state, op)`.
    pub head: Option<(SeqNum, RobState, OpClass)>,
    /// Configured IQ capacity.
    pub iq_size: usize,
    /// Free integer registers.
    pub int_regs_available: usize,
    /// Free floating point registers.
    pub fp_regs_available: usize,
    /// Occupied LQ entries.
    pub lq_len: usize,
    /// Occupied SQ entries.
    pub sq_len: usize,
    /// The LTP mode the machine was configured with.
    pub ltp_mode: LtpMode,
}

impl std::fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload {}, committed {}, ROB {}, IQ {}, LTP {}, head {:?}, iq_size {}, \
             regs {}/{}, lq {}, sq {}, ltp mode {:?}",
            self.workload,
            self.committed,
            self.rob_len,
            self.iq_len,
            self.ltp_occupancy,
            self.head,
            self.iq_size,
            self.int_regs_available,
            self.fp_regs_available,
            self.lq_len,
            self.sq_len,
            self.ltp_mode,
        )
    }
}

/// Why a simulation run could not produce a [`RunResult`].
#[derive(Debug, Clone)]
pub enum RunError {
    /// No instruction committed for a very long time: a resource-accounting
    /// deadlock (a bug or an intentionally starved configuration), with the
    /// machine state at detection time.
    Deadlock {
        /// The cycle at which the deadlock was detected.
        cycle: Cycle,
        /// The machine state at detection time (boxed to keep the happy-path
        /// `Result` small).
        snapshot: Box<DeadlockSnapshot>,
    },
    /// The configuration selects the oracle classifier
    /// ([`ltp_core::ClassifierKind::Oracle`]) but no analysed
    /// [`ltp_core::OracleClassifier`] was attached before the run, so the
    /// results would silently come from the fallback classifier.
    OracleNotAttached,
    /// The machine state cannot be checkpointed (SMT configuration, or a
    /// custom criticality classifier without snapshot support); carried as a
    /// message so `RunError` does not grow a type dependency on the snapshot
    /// module.
    SnapshotUnsupported(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { cycle, snapshot } => write!(
                f,
                "no instruction committed for a long time at cycle {cycle} ({snapshot}): \
                 resource accounting deadlock"
            ),
            RunError::OracleNotAttached => write!(
                f,
                "the configuration selects ClassifierKind::Oracle but no analysed \
                 OracleClassifier was attached (Processor::set_oracle) before the run"
            ),
            RunError::SnapshotUnsupported(msg) => {
                write!(f, "machine state cannot be checkpointed: {msg}")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_error_display_carries_the_snapshot() {
        let err = RunError::Deadlock {
            cycle: 1234,
            snapshot: Box::new(DeadlockSnapshot {
                workload: "chain".into(),
                committed: 17,
                rob_len: 256,
                iq_len: 32,
                ltp_occupancy: 5,
                head: Some((SeqNum(17), RobState::Parked, OpClass::Load)),
                iq_size: 32,
                int_regs_available: 0,
                fp_regs_available: 96,
                lq_len: 3,
                sq_len: 0,
                ltp_mode: LtpMode::NonUrgentOnly,
            }),
        };
        let text = err.to_string();
        assert!(text.contains("cycle 1234"));
        assert!(text.contains("workload chain"));
        assert!(text.contains("deadlock"));
        let RunError::Deadlock { cycle, snapshot } = err else {
            panic!("constructed a deadlock, matched something else");
        };
        assert_eq!(cycle, 1234);
        assert_eq!(snapshot.committed, 17);
    }

    fn result(cycles: u64, insts: u64, outstanding: f64, avg_latency: f64) -> RunResult {
        let mut occupancy = OccupancyReport::default();
        occupancy
            .outstanding_misses
            .sample(cycles.max(1), outstanding.round() as u64);
        let mem = MemoryStats {
            accesses: 100,
            total_latency: (avg_latency * 100.0) as u64,
            ..Default::default()
        };
        RunResult {
            workload: "test".into(),
            cycles,
            instructions: insts,
            occupancy,
            activity: ActivityCounters::default(),
            ltp: LtpStats::default(),
            ltp_enabled_fraction: 0.0,
            mem,
            branch_mispredict_rate: 0.0,
            loads: 10,
            stores: 5,
            llc_miss_loads: 2,
            cycle_loop_iterations: cycles,
        }
    }

    #[test]
    fn cpi_and_ipc() {
        let r = result(2000, 1000, 1.0, 10.0);
        assert!((r.cpi() - 2.0).abs() < 1e-12);
        assert!((r.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no instructions")]
    fn cpi_of_empty_run_panics() {
        let r = result(100, 0, 0.0, 0.0);
        let _ = r.cpi();
    }

    #[test]
    fn speedup_direction() {
        let slow = result(3000, 1000, 1.0, 10.0);
        let fast = result(2000, 1000, 1.0, 10.0);
        assert!(fast.speedup_over_percent(&slow) > 0.0);
        assert!(slow.speedup_over_percent(&fast) < 0.0);
    }

    #[test]
    fn mlp_sensitivity_criteria() {
        // Big-window run: 20 % faster, 50 % more outstanding, latency > L2.
        let small = result(3000, 1000, 2.0, 30.0);
        let big = result(2400, 1000, 3.0, 30.0);
        assert!(big.is_mlp_sensitive_vs(&small, 12));
        // Not sensitive when the speed-up is too small.
        let big_same = result(2950, 1000, 3.0, 30.0);
        assert!(!big_same.is_mlp_sensitive_vs(&small, 12));
        // Not sensitive when the latency is below the L2 latency.
        let big_lowlat = result(2400, 1000, 3.0, 8.0);
        assert!(!big_lowlat.is_mlp_sensitive_vs(&small, 12));
    }

    #[test]
    fn avg_outstanding_uses_occupancy_tracker() {
        let r = result(100, 50, 4.0, 10.0);
        assert!((r.avg_outstanding_misses() - 4.0).abs() < 1e-9);
    }
}
