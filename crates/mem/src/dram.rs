//! Open-page DDR3-like DRAM latency model.
//!
//! The model keeps, per bank, the currently open row and the cycle at which
//! the bank becomes free. An access pays the row-hit or row-miss latency
//! depending on whether it targets the open row, plus any queueing delay if
//! the bank is still busy with earlier requests. This captures the two
//! DRAM-level effects the paper's MLP argument depends on: (1) latency is
//! long (hundreds of cycles), and (2) overlapping several misses gives far
//! higher throughput than serialising them.

use crate::config::DramConfig;
use crate::Cycle;

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

/// Statistics kept by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that needed precharge + activate.
    pub row_misses: u64,
    /// Total cycles spent queued behind a busy bank.
    pub queue_cycles: u64,
}

/// DDR3-like DRAM with per-bank open-row tracking.
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    stats: DramStats,
}

impl DramModel {
    /// Creates a DRAM model with all banks idle and no open rows.
    #[must_use]
    pub fn new(cfg: DramConfig) -> DramModel {
        assert!(cfg.banks > 0, "DRAM must have at least one bank");
        DramModel {
            cfg,
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0,
                };
                cfg.banks
            ],
            stats: DramStats::default(),
        }
    }

    /// The configuration of this DRAM model.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    fn bank_and_row(&self, line_addr: u64) -> (usize, u64) {
        let row = line_addr / self.cfg.row_bytes;
        let bank = (row as usize) % self.cfg.banks;
        (bank, row)
    }

    /// Performs an access for `line_addr` arriving at the memory controller
    /// at cycle `arrival`. Returns the cycle at which the data is available
    /// at the L3 fill port.
    pub fn access(&mut self, line_addr: u64, arrival: Cycle) -> Cycle {
        let (bank_idx, row) = self.bank_and_row(line_addr);
        let bank = &mut self.banks[bank_idx];

        let start = arrival.max(bank.busy_until);
        self.stats.queue_cycles += start - arrival;

        let latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.cfg.row_hit_latency
            }
            _ => {
                self.stats.row_misses += 1;
                self.cfg.row_miss_latency
            }
        };

        bank.open_row = Some(row);
        bank.busy_until = start + self.cfg.bank_busy;
        start + latency
    }
}

impl DramModel {
    /// Exports `(config, per-bank (open_row, busy_until), stats)` for the
    /// snapshot codec.
    pub(crate) fn snap_parts(&self) -> (DramConfig, Vec<(Option<u64>, Cycle)>, DramStats) {
        let banks = self
            .banks
            .iter()
            .map(|b| (b.open_row, b.busy_until))
            .collect();
        (self.cfg, banks, self.stats)
    }

    pub(crate) fn from_snap_parts(
        cfg: DramConfig,
        banks: Vec<(Option<u64>, Cycle)>,
        stats: DramStats,
    ) -> Result<DramModel, ltp_snapshot::SnapError> {
        // Check the decoded bank list against the config *before* building
        // the model: `DramModel::new` allocates `cfg.banks` entries, so a
        // corrupted bank count must be rejected first.
        if banks.len() != cfg.banks {
            return Err(ltp_snapshot::SnapError::Invalid("DRAM bank count"));
        }
        let mut model = DramModel::new(cfg);
        for (dst, (open_row, busy_until)) in model.banks.iter_mut().zip(banks) {
            dst.open_row = open_row;
            dst.busy_until = busy_until;
        }
        model.stats = stats;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramModel {
        DramModel::new(DramConfig {
            banks: 2,
            row_hit_latency: 50,
            row_miss_latency: 150,
            bank_busy: 20,
            row_bytes: 1024,
        })
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut d = dram();
        let done = d.access(0x0, 100);
        assert_eq!(done, 250);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn same_row_hits_after_first_access() {
        let mut d = dram();
        d.access(0x0, 0);
        let done = d.access(0x40, 1000);
        assert_eq!(done, 1050);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn different_row_same_bank_misses_again() {
        let mut d = dram();
        d.access(0x0, 0);
        // rows are 1024 bytes and banks interleave by row; row+2 maps to the
        // same bank (2 banks) but a different row.
        let done = d.access(2 * 1024, 1000);
        assert_eq!(done, 1000 + 150);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn busy_bank_queues_requests() {
        let mut d = dram();
        d.access(0x0, 0); // bank 0 busy until 20
        let done = d.access(2 * 1024, 5); // same bank, queued until 20
        assert_eq!(done, 20 + 150);
        assert_eq!(d.stats().queue_cycles, 15);
    }

    #[test]
    fn independent_banks_overlap() {
        let mut d = dram();
        let a = d.access(0, 0); // bank 0
        let b = d.access(1024, 0); // bank 1 (row 1)
                                   // Both start immediately: MLP across banks.
        assert_eq!(a, 150);
        assert_eq!(b, 150);
        assert_eq!(d.stats().queue_cycles, 0);
    }

    #[test]
    fn ddr3_defaults_are_sane() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        let t = d.access(0x12345, 0);
        assert!((100..=300).contains(&t), "unexpected DRAM latency {t}");
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = DramModel::new(DramConfig {
            banks: 0,
            row_hit_latency: 1,
            row_miss_latency: 2,
            bank_busy: 1,
            row_bytes: 1024,
        });
    }
}
