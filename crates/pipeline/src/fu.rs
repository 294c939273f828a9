//! Functional unit pool.
//!
//! Pipelined units (ALUs, FP pipes, memory ports, branch units) accept one
//! new operation per cycle per unit; unpipelined units (integer divide, FP
//! divide/sqrt) stay busy for the full latency of the operation.

use crate::config::FuCounts;
use ltp_isa::FuKind;
use ltp_mem::Cycle;

#[derive(Debug, Clone)]
pub(crate) struct UnitPool {
    /// For pipelined units: number of issues granted this cycle.
    pub(crate) issued_this_cycle: usize,
    /// Number of units of this kind.
    pub(crate) count: usize,
    /// For unpipelined units: busy-until cycle per unit.
    pub(crate) busy_until: Vec<Cycle>,
    pub(crate) pipelined: bool,
}

impl UnitPool {
    fn new(count: usize, pipelined: bool) -> UnitPool {
        UnitPool {
            issued_this_cycle: 0,
            count,
            busy_until: vec![0; count],
            pipelined,
        }
    }

    fn available(&self, now: Cycle) -> bool {
        if self.pipelined {
            self.issued_this_cycle < self.count
        } else {
            self.busy_until.iter().any(|&b| b <= now)
        }
    }

    fn acquire(&mut self, now: Cycle, latency: u64) -> bool {
        if self.pipelined {
            if self.issued_this_cycle < self.count {
                self.issued_this_cycle += 1;
                true
            } else {
                false
            }
        } else if let Some(slot) = self.busy_until.iter_mut().find(|b| **b <= now) {
            *slot = now + latency;
            true
        } else {
            false
        }
    }

    fn new_cycle(&mut self) {
        self.issued_this_cycle = 0;
    }
}

/// The pool of functional units of the core.
#[derive(Debug, Clone)]
pub struct FuPool {
    pub(crate) int_alu: UnitPool,
    pub(crate) int_muldiv: UnitPool,
    pub(crate) fp_alu: UnitPool,
    pub(crate) fp_divsqrt: UnitPool,
    pub(crate) mem: UnitPool,
    pub(crate) branch: UnitPool,
}

impl FuPool {
    /// Creates the pool from the configured unit counts.
    #[must_use]
    pub fn new(counts: &FuCounts) -> FuPool {
        FuPool {
            int_alu: UnitPool::new(counts.int_alu.max(1), true),
            int_muldiv: UnitPool::new(counts.int_muldiv.max(1), false),
            fp_alu: UnitPool::new(counts.fp_alu.max(1), true),
            fp_divsqrt: UnitPool::new(counts.fp_divsqrt.max(1), false),
            mem: UnitPool::new(counts.mem.max(1), true),
            branch: UnitPool::new(counts.branch.max(1), true),
        }
    }

    fn pool(&self, kind: FuKind) -> &UnitPool {
        match kind {
            FuKind::IntAlu => &self.int_alu,
            FuKind::IntMulDiv => &self.int_muldiv,
            FuKind::FpAlu => &self.fp_alu,
            FuKind::FpDivSqrt => &self.fp_divsqrt,
            FuKind::Mem => &self.mem,
            FuKind::Branch => &self.branch,
        }
    }

    fn pool_mut(&mut self, kind: FuKind) -> &mut UnitPool {
        match kind {
            FuKind::IntAlu => &mut self.int_alu,
            FuKind::IntMulDiv => &mut self.int_muldiv,
            FuKind::FpAlu => &mut self.fp_alu,
            FuKind::FpDivSqrt => &mut self.fp_divsqrt,
            FuKind::Mem => &mut self.mem,
            FuKind::Branch => &mut self.branch,
        }
    }

    /// Whether a unit of `kind` can accept an operation at cycle `now`.
    #[must_use]
    pub fn available(&self, kind: FuKind, now: Cycle) -> bool {
        self.pool(kind).available(now)
    }

    /// Reserves a unit of `kind` for an operation of `latency` cycles
    /// starting at `now`. Returns whether a unit was granted.
    pub fn acquire(&mut self, kind: FuKind, now: Cycle, latency: u64) -> bool {
        self.pool_mut(kind).acquire(now, latency)
    }

    /// The first cycle after `last` on which a busy unpipelined unit (the
    /// integer and FP dividers) frees up. Pipelined units accept work every
    /// cycle.
    pub(crate) fn next_free(&self, last: Cycle) -> Option<Cycle> {
        [&self.int_muldiv, &self.fp_divsqrt]
            .into_iter()
            .flat_map(|pool| pool.busy_until.iter().copied())
            .filter(|&b| b > last)
            .min()
    }

    /// Resets the per-cycle issue budget of the pipelined units. Call once at
    /// the start of each simulated cycle.
    pub fn new_cycle(&mut self) {
        self.int_alu.new_cycle();
        self.int_muldiv.new_cycle();
        self.fp_alu.new_cycle();
        self.fp_divsqrt.new_cycle();
        self.mem.new_cycle();
        self.branch.new_cycle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FuPool {
        FuPool::new(&FuCounts {
            int_alu: 2,
            int_muldiv: 1,
            fp_alu: 1,
            fp_divsqrt: 1,
            mem: 2,
            branch: 1,
        })
    }

    #[test]
    fn pipelined_units_accept_one_per_cycle_per_unit() {
        let mut p = pool();
        assert!(p.acquire(FuKind::IntAlu, 0, 1));
        assert!(p.acquire(FuKind::IntAlu, 0, 1));
        assert!(!p.acquire(FuKind::IntAlu, 0, 1), "only two ALUs");
        p.new_cycle();
        assert!(p.acquire(FuKind::IntAlu, 1, 1));
    }

    #[test]
    fn unpipelined_units_stay_busy() {
        let mut p = pool();
        assert!(p.acquire(FuKind::IntMulDiv, 0, 20));
        assert!(!p.available(FuKind::IntMulDiv, 5));
        p.new_cycle();
        assert!(!p.acquire(FuKind::IntMulDiv, 5, 20));
        assert!(p.available(FuKind::IntMulDiv, 20));
        assert!(p.acquire(FuKind::IntMulDiv, 20, 20));
    }

    #[test]
    fn kinds_are_independent() {
        let mut p = pool();
        assert!(p.acquire(FuKind::Mem, 0, 1));
        assert!(p.acquire(FuKind::Mem, 0, 1));
        assert!(!p.acquire(FuKind::Mem, 0, 1));
        assert!(p.acquire(FuKind::Branch, 0, 1));
        assert!(p.acquire(FuKind::FpAlu, 0, 1));
    }

    #[test]
    fn zero_counts_are_clamped_to_one() {
        let p = FuPool::new(&FuCounts {
            int_alu: 0,
            int_muldiv: 0,
            fp_alu: 0,
            fp_divsqrt: 0,
            mem: 0,
            branch: 0,
        });
        assert!(p.available(FuKind::IntAlu, 0));
    }
}
