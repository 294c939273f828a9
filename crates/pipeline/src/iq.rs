//! The issue queue (IQ): wakeup and select.
//!
//! Instructions wait in the IQ until all their source operands are ready,
//! then the scheduler selects up to `issue_width` of them per cycle (oldest
//! first), subject to functional unit availability. IQ entries are allocated
//! at dispatch (after rename) and freed at issue, exactly the lifetime shown
//! in Figure 4 of the paper.
//!
//! # Indexed wakeup and selection
//!
//! The seed implementation broadcast every wakeup to every entry
//! (`O(occupancy)` per completing register) and sorted the whole queue on
//! every `select` call (`O(occupancy log occupancy)` per cycle, with a fresh
//! index vector allocated each time). This version keeps the same
//! cycle-exact behaviour with incremental structures:
//!
//! * a **dependency index** maps each awaited physical register and each
//!   awaited producer sequence number to the slots waiting on it, so a
//!   wakeup touches exactly the waiters (`O(waiters)`),
//! * every slot carries an **outstanding-source counter**; when it reaches
//!   zero the slot is pushed onto a seq-ordered **ready heap**, so `select`
//!   is `O(issue_width · log ready)` and never visits a waiting entry,
//! * wait lists and waiter lists are [`InlineVec`]s, so the steady-state hot
//!   loop performs no heap allocation (scratch buffers are reused
//!   across cycles).
//!
//! A slot only leaves the queue through `select`, which requires its counter
//! to be zero — at that point no waiter list references it, so the index is
//! self-cleaning and slots can be recycled freely.

use inlinevec::InlineVec;
use ltp_isa::{FuKind, PhysReg, SeqNum};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Maximum inline wait-list / waiter-list length before spilling. Real
/// instructions have at most three sources; fan-out beyond four consumers of
/// one register in the IQ at once is rare enough that the spill path is fine.
const INLINE_WAITERS: usize = 4;

/// One waiting instruction in the IQ (the dispatch-facing view).
#[derive(Debug, Clone, Default)]
pub struct IqEntry {
    /// Sequence number (used for oldest-first selection and ROB lookup).
    pub seq: SeqNum,
    /// Functional unit kind it needs.
    pub fu: FuKind,
    /// Physical registers still awaited.
    pub wait_phys: InlineVec<PhysReg, INLINE_WAITERS>,
    /// Parked/released producers still awaited, identified by sequence
    /// number (used when a source's producer had no physical register at
    /// rename time because it was parked in LTP).
    pub wait_seqs: InlineVec<SeqNum, 2>,
}

impl IqEntry {
    /// Whether all source operands are available.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.wait_phys.is_empty() && self.wait_seqs.is_empty()
    }
}

/// Internal slot state: the entry's identity plus its outstanding-source
/// counter. The wait lists themselves live in the dependency index.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    pub(crate) seq: u64,
    pub(crate) fu: FuKind,
    pub(crate) pending: u32,
    pub(crate) active: bool,
}

/// The issue queue.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    pub(crate) capacity: usize,
    /// Slab of slots; freed slot ids are recycled through `free_slots`.
    pub(crate) slots: Vec<Slot>,
    pub(crate) free_slots: Vec<u32>,
    pub(crate) occupancy: usize,
    /// Dense physical-register → waiting-slots index (see [`dense_reg`]).
    pub(crate) phys_waiters: Vec<InlineVec<u32, INLINE_WAITERS>>,
    /// Producer sequence number → waiting slots (parked producers only).
    pub(crate) seq_waiters: HashMap<u64, InlineVec<u32, INLINE_WAITERS>>,
    /// Min-heap of `(seq, slot)` for entries whose counter reached zero.
    pub(crate) ready: BinaryHeap<Reverse<(u64, u32)>>,
    /// Reused by `select_into` for ready entries skipped by the FU check.
    pub(crate) skipped: Vec<(u64, u32)>,
    pub(crate) peak: usize,
    pub(crate) dispatched: u64,
    pub(crate) issued: u64,
}

/// Maps a [`PhysReg`] to a dense index: integer registers occupy the even
/// slots, floating point registers (offset by
/// [`crate::state::FP_PHYS_OFFSET`] in the shared namespace) the odd ones.
fn dense_reg(reg: PhysReg) -> usize {
    let idx = reg.index();
    let fp_offset = crate::state::FP_PHYS_OFFSET as usize;
    if idx >= fp_offset {
        ((idx - fp_offset) << 1) | 1
    } else {
        idx << 1
    }
}

impl IssueQueue {
    /// Creates an empty IQ with `capacity` entries (`usize::MAX` =
    /// unlimited, for the limit study).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> IssueQueue {
        assert!(capacity > 0, "IQ needs at least one entry");
        let reserve = capacity.clamp(64, 1024);
        IssueQueue {
            capacity,
            slots: Vec::with_capacity(reserve),
            free_slots: Vec::with_capacity(reserve),
            occupancy: 0,
            phys_waiters: Vec::with_capacity(512),
            // At most one key per waiting entry. Twice that room keeps the
            // map at most half full, where a rehash that clears tombstones
            // happens in place instead of growing the table, so the
            // steady-state loop never allocates here.
            seq_waiters: HashMap::with_capacity(2 * reserve),
            ready: BinaryHeap::with_capacity(reserve),
            skipped: Vec::with_capacity(16),
            peak: 0,
            dispatched: 0,
            issued: 0,
        }
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupancy
    }

    /// Whether the IQ holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupancy == 0
    }

    /// Whether another instruction can be dispatched into the IQ.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.capacity == usize::MAX || self.occupancy < self.capacity
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak occupancy observed.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total instructions dispatched into the IQ.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Total instructions issued from the IQ.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Dispatches an instruction into the IQ.
    ///
    /// # Panics
    ///
    /// Panics if the IQ is full (callers must check [`IssueQueue::has_space`]).
    pub fn dispatch(&mut self, entry: IqEntry) {
        assert!(self.has_space(), "dispatching into a full IQ");
        self.insert(entry);
    }

    /// Dispatches an instruction even if the IQ is nominally full. This
    /// models the reserved bypass used by the deadlock-avoidance path of
    /// §5.4 when the oldest parked instruction must be injected to guarantee
    /// forward progress. Use sparingly; normal dispatch must go through
    /// [`IssueQueue::dispatch`].
    pub fn force_dispatch(&mut self, entry: IqEntry) {
        self.insert(entry);
    }

    fn insert(&mut self, entry: IqEntry) {
        let slot_id = match self.free_slots.pop() {
            Some(id) => id,
            None => {
                self.slots.push(Slot::default());
                (self.slots.len() - 1) as u32
            }
        };
        let mut pending = 0u32;
        // Wait lists are sets: a duplicated source (e.g. `add r1, r2, r2`)
        // registers one waiter and wakes on a single broadcast, matching the
        // seed's retain-based removal.
        let phys = entry.wait_phys.as_slice();
        for (i, &p) in phys.iter().enumerate() {
            if phys[..i].contains(&p) {
                continue;
            }
            let dense = dense_reg(p);
            if self.phys_waiters.len() <= dense {
                self.phys_waiters.resize(dense + 1, InlineVec::new());
            }
            self.phys_waiters[dense].push(slot_id);
            pending += 1;
        }
        let seqs = entry.wait_seqs.as_slice();
        for (i, &s) in seqs.iter().enumerate() {
            if seqs[..i].contains(&s) {
                continue;
            }
            self.seq_waiters.entry(s.0).or_default().push(slot_id);
            pending += 1;
        }
        self.slots[slot_id as usize] = Slot {
            seq: entry.seq.0,
            fu: entry.fu,
            pending,
            active: true,
        };
        if pending == 0 {
            self.ready.push(Reverse((entry.seq.0, slot_id)));
        }
        self.occupancy += 1;
        self.dispatched += 1;
        self.peak = self.peak.max(self.occupancy);
    }

    fn credit(slots: &mut [Slot], ready: &mut BinaryHeap<Reverse<(u64, u32)>>, slot_id: u32) {
        let slot = &mut slots[slot_id as usize];
        debug_assert!(slot.active && slot.pending > 0, "stale waiter reference");
        slot.pending -= 1;
        if slot.pending == 0 {
            ready.push(Reverse((slot.seq, slot_id)));
        }
    }

    /// Wakeup: marks physical register `reg` as produced, waking exactly the
    /// entries indexed as waiting on it.
    pub fn wake_phys(&mut self, reg: PhysReg) {
        let dense = dense_reg(reg);
        let Some(list) = self.phys_waiters.get_mut(dense) else {
            return;
        };
        let waiters = std::mem::take(list);
        for &slot_id in waiters.iter() {
            Self::credit(&mut self.slots, &mut self.ready, slot_id);
        }
        // Hand the (possibly spilled) buffer back so its capacity is reused.
        let mut waiters = waiters;
        waiters.clear();
        self.phys_waiters[dense] = waiters;
    }

    /// Wakeup by producer sequence number (for consumers of parked
    /// instructions).
    pub fn wake_seq(&mut self, seq: SeqNum) {
        let Some(waiters) = self.seq_waiters.remove(&seq.0) else {
            return;
        };
        for &slot_id in waiters.iter() {
            Self::credit(&mut self.slots, &mut self.ready, slot_id);
        }
    }

    /// Selects up to `max` ready instructions, oldest first, for which
    /// `fu_available` grants a functional unit, appending them to `out` in
    /// selection (sequence) order. Selected entries are removed from the IQ;
    /// ready entries whose functional unit is busy stay queued. The caller
    /// owns `out` so the per-cycle scratch can be reused without allocation.
    pub fn select_into<F>(&mut self, max: usize, mut fu_available: F, out: &mut Vec<IqEntry>)
    where
        F: FnMut(FuKind) -> bool,
    {
        debug_assert!(self.skipped.is_empty());
        let mut picked = 0;
        while picked < max {
            let Some(Reverse((seq, slot_id))) = self.ready.pop() else {
                break;
            };
            let fu = self.slots[slot_id as usize].fu;
            if fu_available(fu) {
                self.slots[slot_id as usize].active = false;
                self.free_slots.push(slot_id);
                self.occupancy -= 1;
                self.issued += 1;
                picked += 1;
                out.push(IqEntry {
                    seq: SeqNum(seq),
                    fu,
                    wait_phys: InlineVec::new(),
                    wait_seqs: InlineVec::new(),
                });
            } else {
                self.skipped.push((seq, slot_id));
            }
        }
        while let Some((seq, slot_id)) = self.skipped.pop() {
            self.ready.push(Reverse((seq, slot_id)));
        }
    }

    /// Like [`IssueQueue::select_into`], returning a fresh vector (test and
    /// diagnostic convenience; the pipeline's issue stage reuses a scratch
    /// buffer instead).
    pub fn select<F>(&mut self, max: usize, fu_available: F) -> Vec<IqEntry>
    where
        F: FnMut(FuKind) -> bool,
    {
        let mut out = Vec::new();
        self.select_into(max, fu_available, &mut out);
        out
    }

    /// Sequence numbers of the waiting instructions, in no particular order
    /// (diagnostics).
    pub fn waiting_seqs(&self) -> impl Iterator<Item = SeqNum> + '_ {
        self.slots
            .iter()
            .filter(|s| s.active)
            .map(|s| SeqNum(s.seq))
    }
}

/// The seed's broadcast-scan issue queue, kept verbatim as a reference model
/// for the differential property test below: any divergence between this
/// model and the indexed implementation on the same operation sequence is a
/// scheduling bug.
#[cfg(test)]
mod reference {
    use super::{FuKind, IqEntry, PhysReg, SeqNum};

    #[derive(Debug, Clone)]
    pub struct RefEntry {
        pub seq: SeqNum,
        pub fu: FuKind,
        pub wait_phys: Vec<PhysReg>,
        pub wait_seqs: Vec<SeqNum>,
    }

    impl RefEntry {
        pub fn from_entry(e: &IqEntry) -> RefEntry {
            RefEntry {
                seq: e.seq,
                fu: e.fu,
                wait_phys: e.wait_phys.iter().copied().collect(),
                wait_seqs: e.wait_seqs.iter().copied().collect(),
            }
        }

        fn is_ready(&self) -> bool {
            self.wait_phys.is_empty() && self.wait_seqs.is_empty()
        }
    }

    #[derive(Debug, Clone, Default)]
    pub struct BroadcastIq {
        entries: Vec<RefEntry>,
        pub dispatched: u64,
        pub issued: u64,
        pub peak: usize,
    }

    impl BroadcastIq {
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn dispatch(&mut self, entry: RefEntry) {
            self.entries.push(entry);
            self.dispatched += 1;
            self.peak = self.peak.max(self.entries.len());
        }

        pub fn wake_phys(&mut self, reg: PhysReg) {
            for e in &mut self.entries {
                e.wait_phys.retain(|&p| p != reg);
            }
        }

        pub fn wake_seq(&mut self, seq: SeqNum) {
            for e in &mut self.entries {
                e.wait_seqs.retain(|&s| s != seq);
            }
        }

        pub fn select<F>(&mut self, max: usize, mut fu_available: F) -> Vec<SeqNum>
        where
            F: FnMut(FuKind) -> bool,
        {
            let mut picked_idx: Vec<usize> = Vec::new();
            let mut order: Vec<usize> = (0..self.entries.len()).collect();
            order.sort_by_key(|&i| self.entries[i].seq);
            for i in order {
                if picked_idx.len() >= max {
                    break;
                }
                if self.entries[i].is_ready() && fu_available(self.entries[i].fu) {
                    picked_idx.push(i);
                }
            }
            picked_idx.sort_unstable();
            let mut out = Vec::with_capacity(picked_idx.len());
            for &i in picked_idx.iter().rev() {
                out.push(self.entries.swap_remove(i));
            }
            out.sort_by_key(|e| e.seq);
            self.issued += out.len() as u64;
            out.into_iter().map(|e| e.seq).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, waits: &[u32]) -> IqEntry {
        IqEntry {
            seq: SeqNum(seq),
            fu: FuKind::IntAlu,
            wait_phys: waits.iter().map(|&p| PhysReg::new(p)).collect(),
            wait_seqs: InlineVec::new(),
        }
    }

    #[test]
    fn dispatch_and_capacity() {
        let mut iq = IssueQueue::new(2);
        assert!(iq.has_space());
        iq.dispatch(entry(0, &[]));
        iq.dispatch(entry(1, &[]));
        assert!(!iq.has_space());
        assert_eq!(iq.len(), 2);
        assert_eq!(iq.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "full IQ")]
    fn over_dispatch_panics() {
        let mut iq = IssueQueue::new(1);
        iq.dispatch(entry(0, &[]));
        iq.dispatch(entry(1, &[]));
    }

    #[test]
    fn select_is_oldest_first() {
        let mut iq = IssueQueue::new(8);
        iq.dispatch(entry(5, &[]));
        iq.dispatch(entry(2, &[]));
        iq.dispatch(entry(9, &[]));
        let picked = iq.select(2, |_| true);
        let seqs: Vec<u64> = picked.iter().map(|e| e.seq.0).collect();
        assert_eq!(seqs, vec![2, 5]);
        assert_eq!(iq.len(), 1);
        assert_eq!(iq.issued(), 2);
    }

    #[test]
    fn non_ready_entries_are_not_selected() {
        let mut iq = IssueQueue::new(8);
        iq.dispatch(entry(0, &[7]));
        iq.dispatch(entry(1, &[]));
        let picked = iq.select(4, |_| true);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].seq, SeqNum(1));
    }

    #[test]
    fn wakeup_makes_entries_ready() {
        let mut iq = IssueQueue::new(8);
        iq.dispatch(entry(0, &[7, 8]));
        assert!(iq.select(4, |_| true).is_empty());
        iq.wake_phys(PhysReg::new(7));
        assert!(iq.select(4, |_| true).is_empty());
        iq.wake_phys(PhysReg::new(8));
        assert_eq!(iq.select(4, |_| true).len(), 1);
    }

    #[test]
    fn duplicated_source_wakes_on_one_broadcast() {
        let mut iq = IssueQueue::new(8);
        iq.dispatch(entry(0, &[7, 7]));
        iq.wake_phys(PhysReg::new(7));
        assert_eq!(iq.select(4, |_| true).len(), 1);
    }

    #[test]
    fn fp_and_int_registers_do_not_alias() {
        let fp_offset = crate::state::FP_PHYS_OFFSET;
        let mut iq = IssueQueue::new(8);
        iq.dispatch(entry(0, &[3, fp_offset + 3]));
        iq.wake_phys(PhysReg::new(3));
        assert!(iq.select(4, |_| true).is_empty());
        iq.wake_phys(PhysReg::new(fp_offset + 3));
        assert_eq!(iq.select(4, |_| true).len(), 1);
    }

    #[test]
    fn seq_dependencies_wake_separately() {
        let mut iq = IssueQueue::new(8);
        let mut e = entry(3, &[]);
        e.wait_seqs.push(SeqNum(1));
        iq.dispatch(e);
        assert!(iq.select(4, |_| true).is_empty());
        iq.wake_seq(SeqNum(1));
        assert_eq!(iq.select(4, |_| true).len(), 1);
    }

    #[test]
    fn fu_constraint_limits_selection() {
        let mut iq = IssueQueue::new(8);
        iq.dispatch(entry(0, &[]));
        iq.dispatch(entry(1, &[]));
        iq.dispatch(entry(2, &[]));
        // Only one ALU available this cycle.
        let mut granted = 0;
        let picked = iq.select(6, |_| {
            granted += 1;
            granted <= 1
        });
        assert_eq!(picked.len(), 1);
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn skipped_ready_entries_stay_selectable() {
        let mut iq = IssueQueue::new(8);
        iq.dispatch(entry(0, &[]));
        iq.dispatch(entry(1, &[]));
        assert!(iq.select(2, |_| false).is_empty());
        let picked = iq.select(2, |_| true);
        let seqs: Vec<u64> = picked.iter().map(|e| e.seq.0).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn slots_are_recycled() {
        let mut iq = IssueQueue::new(4);
        for round in 0..100u64 {
            iq.dispatch(entry(round, &[]));
            assert_eq!(iq.select(1, |_| true).len(), 1);
        }
        assert_eq!(iq.dispatched(), 100);
        assert_eq!(iq.issued(), 100);
        assert!(iq.is_empty());
        assert!(iq.waiting_seqs().next().is_none());
    }

    #[test]
    fn unlimited_iq_never_fills() {
        let mut iq = IssueQueue::new(usize::MAX);
        for s in 0..1000u64 {
            iq.dispatch(entry(s, &[]));
        }
        assert!(iq.has_space());
        assert_eq!(iq.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = IssueQueue::new(0);
    }

    mod differential {
        use super::super::reference::{BroadcastIq, RefEntry};
        use super::*;
        use proptest::prelude::*;

        /// One step of the randomized schedule driven against both models.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            /// Dispatch an entry waiting on the given (tiny-domain) regs/seqs.
            Dispatch {
                fu: FuKind,
                regs: (u32, u32),
                nregs: usize,
                dep_back: u64,
            },
            WakeReg(u32),
            WakeOldestSeq,
            Select {
                max: usize,
                grants: usize,
            },
        }

        const FUS: [FuKind; 3] = [FuKind::IntAlu, FuKind::Mem, FuKind::FpAlu];

        fn decode(raw: (u8, u8, u8, u8)) -> Op {
            let (kind, a, b, c) = raw;
            match kind % 4 {
                0 => Op::Dispatch {
                    fu: FUS[a as usize % FUS.len()],
                    regs: (u32::from(b % 8), u32::from(c % 8)),
                    nregs: a as usize % 3,
                    dep_back: u64::from(b % 4),
                },
                1 => Op::WakeReg(u32::from(a % 8)),
                2 => Op::WakeOldestSeq,
                _ => Op::Select {
                    max: 1 + a as usize % 6,
                    grants: b as usize % 7,
                },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The indexed IQ and the seed's broadcast-scan IQ make identical
            /// selection decisions (order included) and report identical
            /// occupancy statistics on arbitrary dispatch/wake/select
            /// interleavings, including wake-before-dispatch races, duplicate
            /// sources, FU-denied ready entries and seq-dependencies.
            #[test]
            fn indexed_iq_matches_broadcast_reference(
                raw_ops in prop::collection::vec(
                    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..120),
            ) {
                let mut indexed = IssueQueue::new(usize::MAX);
                let mut reference = BroadcastIq::default();
                let mut next_seq = 0u64;
                let mut in_flight: Vec<u64> = Vec::new();
                for raw in raw_ops {
                    match decode(raw) {
                        Op::Dispatch { fu, regs, nregs, dep_back } => {
                            let mut e = IqEntry {
                                seq: SeqNum(next_seq),
                                fu,
                                wait_phys: InlineVec::new(),
                                wait_seqs: InlineVec::new(),
                            };
                            if nregs >= 1 {
                                e.wait_phys.push(PhysReg::new(regs.0));
                            }
                            if nregs >= 2 {
                                e.wait_phys.push(PhysReg::new(regs.1));
                            }
                            if dep_back > 0 && !in_flight.is_empty() {
                                let idx = in_flight.len().saturating_sub(dep_back as usize);
                                e.wait_seqs.push(SeqNum(in_flight[idx]));
                            }
                            in_flight.push(next_seq);
                            next_seq += 1;
                            reference.dispatch(RefEntry::from_entry(&e));
                            indexed.dispatch(e);
                        }
                        Op::WakeReg(r) => {
                            indexed.wake_phys(PhysReg::new(r));
                            reference.wake_phys(PhysReg::new(r));
                        }
                        Op::WakeOldestSeq => {
                            if let Some(&s) = in_flight.first() {
                                indexed.wake_seq(SeqNum(s));
                                reference.wake_seq(SeqNum(s));
                                in_flight.remove(0);
                            }
                        }
                        Op::Select { max, grants } => {
                            // The FU-availability callback is stateful in the
                            // pipeline (it reserves units); model that with a
                            // grant budget shared across the call.
                            let mut left = grants;
                            let picked_new: Vec<u64> = indexed
                                .select(max, |_| { let ok = left > 0; left = left.saturating_sub(1); ok })
                                .iter()
                                .map(|e| e.seq.0)
                                .collect();
                            let mut left = grants;
                            let picked_ref: Vec<u64> = reference
                                .select(max, |_| { let ok = left > 0; left = left.saturating_sub(1); ok })
                                .iter()
                                .map(|s| s.0)
                                .collect();
                            prop_assert_eq!(&picked_new, &picked_ref);
                            for s in picked_new {
                                in_flight.retain(|&x| x != s);
                            }
                        }
                    }
                    prop_assert_eq!(indexed.len(), reference.len());
                    prop_assert_eq!(indexed.dispatched(), reference.dispatched);
                    prop_assert_eq!(indexed.issued(), reference.issued);
                    prop_assert_eq!(indexed.peak(), reference.peak);
                }
            }
        }
    }
}
