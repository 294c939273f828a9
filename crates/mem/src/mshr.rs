//! Miss Status Holding Registers (MSHRs) with same-line merge.
//!
//! The MSHR file bounds the number of outstanding misses — i.e. the amount of
//! memory-level parallelism the core can actually expose. The paper's limit
//! study uses unlimited MSHRs so that the IQ/RF/LQ/SQ are the only limiters;
//! the realistic configuration uses a finite file. Requests to a line that
//! already has an outstanding miss merge into the existing entry.

use crate::Cycle;
use std::collections::HashMap;

/// Result of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new MSHR was allocated; the miss proceeds to the next level at the
    /// given cycle (equal to the request cycle unless the file was full).
    Allocated {
        /// Cycle at which the miss could actually be issued downstream.
        issue_cycle: Cycle,
    },
    /// The line already has an outstanding miss; this request completes when
    /// that miss completes.
    Merged {
        /// Completion cycle of the outstanding miss.
        completion_cycle: Cycle,
    },
}

/// A finite (or unlimited) MSHR file tracking outstanding line misses.
#[derive(Debug)]
pub struct MshrFile {
    capacity: usize,
    /// line address -> completion cycle of the outstanding miss. Line
    /// addresses come from the trace, so this map keeps its randomly keyed
    /// hasher.
    outstanding: HashMap<u64, Cycle>,
    /// The same entries as `(completion cycle, line address)`, ascending.
    /// Counting the misses still outstanding at a cycle, retiring completed
    /// ones and finding the one a full file frees first are a binary search
    /// or a prefix of this list, never a walk of the map.
    by_completion: Vec<(Cycle, u64)>,
    peak_occupancy: usize,
    total_allocations: u64,
    total_merges: u64,
    full_stall_cycles: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries. Use `usize::MAX` for the
    /// unlimited file of the limit study.
    #[must_use]
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR capacity must be at least 1");
        // Pre-size both tables so miss churn never grows them mid-run (the
        // live count is bounded by the file capacity; 512 covers the limit
        // study's practical outstanding-miss population).
        let room = capacity.clamp(64, 512);
        MshrFile {
            capacity,
            outstanding: HashMap::with_capacity(room),
            by_completion: Vec::with_capacity(room),
            peak_occupancy: 0,
            total_allocations: 0,
            total_merges: 0,
            full_stall_cycles: 0,
        }
    }

    /// Index of the first entry of `by_completion` still outstanding at
    /// `now`.
    fn first_after(&self, now: Cycle) -> usize {
        self.by_completion.partition_point(|&(c, _)| c <= now)
    }

    /// Number of misses currently outstanding at `now` (entries whose
    /// completion is still in the future).
    #[must_use]
    pub fn outstanding_at(&self, now: Cycle) -> usize {
        self.by_completion.len() - self.first_after(now)
    }

    /// Completion cycles of the misses outstanding at `now`, ascending: the
    /// outstanding count drops by one at each.
    pub fn completions_after(&self, now: Cycle) -> impl Iterator<Item = Cycle> + '_ {
        self.by_completion[self.first_after(now)..]
            .iter()
            .map(|&(c, _)| c)
    }

    /// Removes entries that have completed by `now`.
    pub fn retire_completed(&mut self, now: Cycle) {
        let done = self.first_after(now);
        for (_, line) in self.by_completion.drain(..done) {
            self.outstanding.remove(&line);
        }
    }

    fn order_insert(&mut self, completion: Cycle, line_addr: u64) {
        let at = self
            .by_completion
            .partition_point(|&e| e < (completion, line_addr));
        self.by_completion.insert(at, (completion, line_addr));
    }

    /// Checks whether `line_addr` has an outstanding miss at `now` without
    /// allocating a new entry. Returns [`MshrOutcome::Merged`] if so. Used for
    /// accesses that hit in a cache on a line whose refill is still in flight.
    pub fn lookup_or_allocate_probe(&mut self, line_addr: u64, now: Cycle) -> MshrOutcome {
        if let Some(&completion) = self.outstanding.get(&line_addr) {
            if completion > now {
                self.total_merges += 1;
                return MshrOutcome::Merged {
                    completion_cycle: completion,
                };
            }
        }
        MshrOutcome::Allocated { issue_cycle: now }
    }

    /// Presents a miss for `line_addr` at cycle `now`.
    ///
    /// * If the line already has an outstanding miss, the request merges and
    ///   the existing completion cycle is returned.
    /// * Otherwise a new entry is allocated. If the file is full, the issue
    ///   cycle is delayed until the earliest outstanding miss completes.
    ///
    /// The caller must later call [`MshrFile::record_completion`] with the
    /// final completion cycle of an allocated miss so that subsequent requests
    /// can merge with it.
    pub fn lookup_or_allocate(&mut self, line_addr: u64, now: Cycle) -> MshrOutcome {
        self.retire_completed(now);

        if let Some(&completion) = self.outstanding.get(&line_addr) {
            self.total_merges += 1;
            return MshrOutcome::Merged {
                completion_cycle: completion,
            };
        }

        let issue_cycle = if self.capacity != usize::MAX && self.outstanding.len() >= self.capacity
        {
            // Wait until the earliest outstanding miss completes; ties are
            // broken towards the smallest line address (the entry the old
            // ordered-map scan would have found).
            let (earliest, key) = self.by_completion.remove(0);
            let stall = earliest.saturating_sub(now);
            self.full_stall_cycles += stall;
            // Drop the completed entry so we stay within capacity.
            self.outstanding.remove(&key);
            earliest
        } else {
            now
        };

        self.total_allocations += 1;
        // Placeholder completion; the caller overwrites it via record_completion.
        self.outstanding.insert(line_addr, issue_cycle);
        self.order_insert(issue_cycle, line_addr);
        self.peak_occupancy = self.peak_occupancy.max(self.outstanding.len());
        MshrOutcome::Allocated { issue_cycle }
    }

    /// Records the completion cycle of a previously allocated miss so that
    /// later requests to the same line can merge with it.
    pub fn record_completion(&mut self, line_addr: u64, completion: Cycle) {
        if let Some(entry) = self.outstanding.get_mut(&line_addr) {
            let old = std::mem::replace(entry, completion);
            if let Ok(at) = self.by_completion.binary_search(&(old, line_addr)) {
                self.by_completion.remove(at);
            }
            self.order_insert(completion, line_addr);
        }
    }

    /// Capacity of the file (`usize::MAX` = unlimited).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest number of simultaneously outstanding misses observed.
    #[must_use]
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Number of allocated (non-merged) misses.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.total_allocations
    }

    /// Number of merged requests.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.total_merges
    }

    /// Total cycles requests were delayed because the file was full.
    #[must_use]
    pub fn full_stall_cycles(&self) -> u64 {
        self.full_stall_cycles
    }
}

/// A clone keeps the completion list's room, as the map's clone keeps its
/// table size, so a restored machine never grows it mid-run.
impl Clone for MshrFile {
    fn clone(&self) -> MshrFile {
        let mut by_completion = Vec::with_capacity(self.by_completion.capacity());
        by_completion.extend_from_slice(&self.by_completion);
        MshrFile {
            outstanding: self.outstanding.clone(),
            by_completion,
            ..*self
        }
    }
}

/// Exported MSHR state for the snapshot codec.
#[derive(Debug)]
pub(crate) struct MshrSnap {
    pub(crate) capacity: usize,
    pub(crate) outstanding: HashMap<u64, Cycle>,
    pub(crate) peak_occupancy: usize,
    pub(crate) total_allocations: u64,
    pub(crate) total_merges: u64,
    pub(crate) full_stall_cycles: u64,
}

impl MshrFile {
    pub(crate) fn snap_parts(&self) -> MshrSnap {
        MshrSnap {
            capacity: self.capacity,
            outstanding: self.outstanding.clone(),
            peak_occupancy: self.peak_occupancy,
            total_allocations: self.total_allocations,
            total_merges: self.total_merges,
            full_stall_cycles: self.full_stall_cycles,
        }
    }

    pub(crate) fn from_snap_parts(snap: MshrSnap) -> MshrFile {
        let mut file = MshrFile::new(snap.capacity.max(1));
        file.capacity = snap.capacity.max(1);
        // Extend into the constructor's deliberately pre-sized tables
        // instead of replacing them, so a restored machine keeps the
        // never-grow-mid-run capacity guarantee the hot loop relies on.
        file.by_completion
            .extend(snap.outstanding.iter().map(|(&line, &c)| (c, line)));
        file.by_completion.sort_unstable();
        file.outstanding.extend(snap.outstanding);
        file.peak_occupancy = snap.peak_occupancy;
        file.total_allocations = snap.total_allocations;
        file.total_merges = snap.total_merges;
        file.full_stall_cycles = snap.full_stall_cycles;
        file
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        let out = m.lookup_or_allocate(0x1000, 10);
        assert_eq!(out, MshrOutcome::Allocated { issue_cycle: 10 });
        m.record_completion(0x1000, 200);
        let merged = m.lookup_or_allocate(0x1000, 20);
        assert_eq!(
            merged,
            MshrOutcome::Merged {
                completion_cycle: 200
            }
        );
        assert_eq!(m.allocations(), 1);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn different_lines_do_not_merge() {
        let mut m = MshrFile::new(4);
        m.lookup_or_allocate(0x1000, 0);
        m.record_completion(0x1000, 300);
        let out = m.lookup_or_allocate(0x2000, 0);
        assert!(matches!(out, MshrOutcome::Allocated { .. }));
    }

    #[test]
    fn completed_entries_are_retired() {
        let mut m = MshrFile::new(4);
        m.lookup_or_allocate(0x1000, 0);
        m.record_completion(0x1000, 100);
        assert_eq!(m.outstanding_at(50), 1);
        assert_eq!(m.outstanding_at(100), 0);
        // After completion the same line misses again and allocates fresh.
        let out = m.lookup_or_allocate(0x1000, 150);
        assert!(matches!(out, MshrOutcome::Allocated { issue_cycle: 150 }));
    }

    #[test]
    fn full_file_delays_issue() {
        let mut m = MshrFile::new(2);
        m.lookup_or_allocate(0xa000, 0);
        m.record_completion(0xa000, 100);
        m.lookup_or_allocate(0xb000, 0);
        m.record_completion(0xb000, 150);
        // Third distinct miss at cycle 10 must wait for the first to complete.
        let out = m.lookup_or_allocate(0xc000, 10);
        match out {
            MshrOutcome::Allocated { issue_cycle } => assert_eq!(issue_cycle, 100),
            MshrOutcome::Merged { .. } => panic!("should allocate"),
        }
        assert_eq!(m.full_stall_cycles(), 90);
    }

    #[test]
    fn unlimited_file_never_delays() {
        let mut m = MshrFile::new(usize::MAX);
        for i in 0..1000u64 {
            let out = m.lookup_or_allocate(0x1_0000 + i * 64, 5);
            assert_eq!(out, MshrOutcome::Allocated { issue_cycle: 5 });
            m.record_completion(0x1_0000 + i * 64, 500);
        }
        assert_eq!(m.outstanding_at(5), 1000);
        assert_eq!(m.peak_occupancy(), 1000);
    }

    #[test]
    fn completions_are_counted_in_order() {
        let mut m = MshrFile::new(8);
        for (line, done) in [(0x40, 300), (0x80, 100), (0xc0, 200), (0x100, 100)] {
            m.lookup_or_allocate(line, 10);
            m.record_completion(line, done);
        }
        assert_eq!(
            m.completions_after(99).collect::<Vec<_>>(),
            [100, 100, 200, 300]
        );
        assert_eq!(m.completions_after(100).collect::<Vec<_>>(), [200, 300]);
        for now in [0, 99, 100, 150, 200, 299, 300] {
            let brute = [300, 100, 200, 100].iter().filter(|&&c| c > now).count();
            assert_eq!(m.outstanding_at(now), brute, "at {now}");
        }
        // Re-recording a completion moves the entry.
        m.record_completion(0x40, 50);
        assert_eq!(
            m.completions_after(0).collect::<Vec<_>>(),
            [50, 100, 100, 200]
        );
        m.retire_completed(100);
        assert_eq!(m.outstanding_at(0), 1);
        let restored = MshrFile::from_snap_parts(m.snap_parts());
        assert_eq!(restored.completions_after(0).collect::<Vec<_>>(), [200]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
