//! The Urgent Instruction Table (UIT), Figure 9a of the paper.
//!
//! A PC-indexed, set-associative table recording which static instructions
//! are *Urgent* (ancestors of long-latency instructions). It is filled by
//! Iterative Backward Dependency Analysis: when a long-latency load commits,
//! its PC is inserted; whenever an Urgent instruction renames, the PCs of the
//! producers of its source registers are inserted too, propagating urgency
//! one dataflow level backwards per execution of the chain.
//!
//! A finite UIT can suffer conflict misses and therefore misclassify Urgent
//! instructions as Non-Urgent (which hurts performance, §5.6); the unlimited
//! variant backs the limit study.

use ltp_isa::Pc;
use std::collections::HashSet;

/// The Urgent Instruction Table.
///
/// With a finite size the UIT is organised as a 4-way set-associative
/// structure with LRU replacement; with `usize::MAX` entries it degenerates
/// to an unbounded hash set (the paper's "unlimited UIT").
#[derive(Debug)]
pub struct Uit {
    pub(crate) capacity: usize,
    pub(crate) ways: usize,
    /// Finite variant: sets[set] = most-recent-first list of PC tags.
    pub(crate) sets: Vec<Vec<u64>>,
    /// Unlimited variant.
    pub(crate) unlimited: HashSet<u64>,
    pub(crate) insertions: u64,
    pub(crate) hits: u64,
    pub(crate) lookups: u64,
}

/// Clones keep each set's pre-sized room: a derived clone would trim every
/// set to its length, and a processor resumed from a snapshot would then
/// grow sets on the rename path.
impl Clone for Uit {
    fn clone(&self) -> Uit {
        let presized = |tags: &Vec<u64>| {
            let mut set = Vec::with_capacity(self.ways + 1);
            set.extend_from_slice(tags);
            set
        };
        Uit {
            sets: self.sets.iter().map(presized).collect(),
            unlimited: self.unlimited.clone(),
            ..*self
        }
    }
}

impl Uit {
    /// Creates a UIT with space for `capacity` urgent PCs
    /// (`usize::MAX` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Uit {
        assert!(capacity > 0, "UIT capacity must be at least 1");
        let ways = if capacity == usize::MAX {
            0
        } else {
            capacity.clamp(1, 4)
        };
        let num_sets = if capacity == usize::MAX {
            0
        } else {
            (capacity / ways).max(1)
        };
        Uit {
            capacity,
            ways,
            // Pre-size every set to its associativity so LRU churn in the
            // rename hot path never grows a set vector.
            sets: (0..num_sets)
                .map(|_| Vec::with_capacity(ways + 1))
                .collect(),
            unlimited: HashSet::new(),
            insertions: 0,
            hits: 0,
            lookups: 0,
        }
    }

    /// Whether this UIT has unlimited capacity.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.capacity == usize::MAX
    }

    fn set_index(&self, pc: Pc) -> usize {
        ((pc.0 >> 2) as usize) % self.sets.len()
    }

    /// Marks the instruction at `pc` as Urgent.
    pub fn insert(&mut self, pc: Pc) {
        self.insertions += 1;
        if self.is_unlimited() {
            self.unlimited.insert(pc.0);
            return;
        }
        let idx = self.set_index(pc);
        let ways = self.ways;
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&t| t == pc.0) {
            // Refresh LRU position.
            let tag = set.remove(pos);
            set.insert(0, tag);
            return;
        }
        set.insert(0, pc.0);
        if set.len() > ways {
            set.pop();
        }
    }

    /// Whether the instruction at `pc` is currently recorded as Urgent.
    /// A PC not present in the table is Non-Urgent by definition.
    pub fn contains(&mut self, pc: Pc) -> bool {
        self.lookups += 1;
        let found = if self.is_unlimited() {
            self.unlimited.contains(&pc.0)
        } else {
            let idx = self.set_index(pc);
            self.sets[idx].contains(&pc.0)
        };
        if found {
            self.hits += 1;
        }
        found
    }

    /// Read-only membership probe that does not update statistics.
    #[must_use]
    pub fn probe(&self, pc: Pc) -> bool {
        if self.is_unlimited() {
            self.unlimited.contains(&pc.0)
        } else {
            let idx = ((pc.0 >> 2) as usize) % self.sets.len();
            self.sets[idx].contains(&pc.0)
        }
    }

    /// Number of urgent PCs currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.is_unlimited() {
            self.unlimited.len()
        } else {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears all entries (used when the monitor power-gates LTP for a long
    /// time and the urgency information has gone stale).
    pub fn clear(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.unlimited.clear();
    }

    /// Total insert operations performed.
    #[must_use]
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Fraction of lookups that found the PC.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains() {
        let mut uit = Uit::new(256);
        assert!(!uit.contains(Pc(0x100)));
        uit.insert(Pc(0x100));
        assert!(uit.contains(Pc(0x100)));
        assert!(!uit.contains(Pc(0x104)));
        assert_eq!(uit.len(), 1);
    }

    #[test]
    fn unlimited_uit_never_evicts() {
        let mut uit = Uit::new(usize::MAX);
        assert!(uit.is_unlimited());
        for i in 0..10_000u64 {
            uit.insert(Pc(i * 4));
        }
        assert_eq!(uit.len(), 10_000);
        assert!(uit.contains(Pc(0)));
        assert!(uit.contains(Pc(4 * 9_999)));
    }

    #[test]
    fn finite_uit_evicts_lru_within_set() {
        // Capacity 4, 4 ways -> a single set holding 4 PCs.
        let mut uit = Uit::new(4);
        for i in 0..4u64 {
            uit.insert(Pc(i * 4));
        }
        // Touch PC 0 so it becomes MRU, then insert a fifth PC.
        assert!(uit.contains(Pc(0)));
        uit.insert(Pc(0)); // refresh
        uit.insert(Pc(100 * 4));
        assert_eq!(uit.len(), 4);
        assert!(uit.probe(Pc(0)), "recently refreshed entry must survive");
        assert!(uit.probe(Pc(100 * 4)));
    }

    #[test]
    fn duplicate_insert_does_not_grow() {
        let mut uit = Uit::new(16);
        uit.insert(Pc(0x40));
        uit.insert(Pc(0x40));
        assert_eq!(uit.len(), 1);
        assert_eq!(uit.insertions(), 2);
    }

    #[test]
    fn clear_empties_table() {
        let mut uit = Uit::new(16);
        uit.insert(Pc(0x40));
        uit.clear();
        assert!(uit.is_empty());
        assert!(!uit.contains(Pc(0x40)));
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let mut uit = Uit::new(16);
        uit.insert(Pc(0x10));
        assert!(uit.contains(Pc(0x10)));
        assert!(!uit.contains(Pc(0x20)));
        assert!((uit.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        let _ = Uit::new(0);
    }

    #[test]
    fn probe_does_not_count() {
        let mut uit = Uit::new(16);
        uit.insert(Pc(0x10));
        let before = uit.hit_rate();
        assert!(uit.probe(Pc(0x10)));
        assert_eq!(uit.hit_rate(), before);
    }
}
