//! Tickets for waking Non-Ready instructions (appendix A of the paper).
//!
//! When a load (or divide/sqrt) is predicted to be long-latency, it is
//! assigned a *ticket*. The ticket is recorded in the RAT extension on the
//! instruction's destination register, and every descendant inherits the
//! union of its sources' tickets. A descendant with a non-empty ticket set is
//! Non-Ready. When the long-latency instruction is about to complete, its
//! ticket is broadcast to the LTP, clearing that ticket from every parked
//! instruction; an instruction whose ticket set becomes empty is ready to be
//! released (out of order).
//!
//! The number of tickets is a hardware resource (Figure 11 sweeps 4..128):
//! when no ticket is free, the long-latency instruction simply is not tracked
//! and its descendants are conservatively treated as Ready.
//!
//! Both sets here are bitsets, so inheritance, the broadcast clear and
//! copies are word operations that do not allocate. Their snapshot encoding
//! is the ordered-set layout: a count, then the ids in ascending order.

/// A ticket identifying one in-flight long-latency instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u32);

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Ticket ids below this are bits of [`TicketSet`]'s inline words. Ids are
/// recycled, so larger ones appear only while more than 128 long-latency
/// instructions are in flight at once.
const INLINE_IDS: u32 = 128;

/// The word of a bitset that holds id `id`, and the id's bit in it.
fn word_bit(id: u32) -> (usize, u64) {
    ((id / 64) as usize, 1 << (id % 64))
}

/// The set bits of `words`, as ascending ids.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                w as u32 * 64 + bit
            })
        })
    })
}

/// A set of tickets an instruction is waiting on.
///
/// The paper notes "the Tickets field is a vector of tickets containing all
/// the tickets that the instruction needs to wait for since an instruction
/// can depend on several long latency instructions". Ids below 128 are bits
/// of two inline words; larger ids spill to a sorted vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TicketSet {
    /// Bit `i % 64` of word `i / 64` is ticket `i`, for ids below 128.
    pub(crate) words: [u64; 2],
    /// Ids from 128 up, ascending and distinct.
    pub(crate) spill: Vec<u32>,
}

impl TicketSet {
    /// Creates an empty ticket set.
    #[must_use]
    pub const fn new() -> TicketSet {
        TicketSet {
            words: [0; 2],
            spill: Vec::new(),
        }
    }

    /// Adds a ticket to the set.
    pub fn insert(&mut self, t: Ticket) {
        if t.0 < INLINE_IDS {
            let (w, bit) = word_bit(t.0);
            self.words[w] |= bit;
        } else if let Err(pos) = self.spill.binary_search(&t.0) {
            self.spill.insert(pos, t.0);
        }
    }

    /// Removes a ticket; returns whether it was present.
    pub fn clear_ticket(&mut self, t: Ticket) -> bool {
        if t.0 < INLINE_IDS {
            let (w, bit) = word_bit(t.0);
            let present = self.words[w] & bit != 0;
            self.words[w] &= !bit;
            present
        } else if let Ok(pos) = self.spill.binary_search(&t.0) {
            self.spill.remove(pos);
            true
        } else {
            false
        }
    }

    /// Merges another ticket set into this one (ticket inheritance).
    pub fn union_with(&mut self, other: &TicketSet) {
        self.words[0] |= other.words[0];
        self.words[1] |= other.words[1];
        for &id in &other.spill {
            self.insert(Ticket(id));
        }
    }

    /// Whether no tickets remain (the instruction is ready to wake).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words == [0; 2] && self.spill.is_empty()
    }

    /// Number of distinct tickets being waited on.
    #[must_use]
    pub fn len(&self) -> usize {
        let inline: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        inline as usize + self.spill.len()
    }

    /// Whether the set contains `t`.
    #[must_use]
    pub fn contains(&self, t: Ticket) -> bool {
        if t.0 < INLINE_IDS {
            let (w, bit) = word_bit(t.0);
            self.words[w] & bit != 0
        } else {
            self.spill.binary_search(&t.0).is_ok()
        }
    }

    /// Iterates over the tickets in the set, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = Ticket> + '_ {
        set_bits(&self.words)
            .chain(self.spill.iter().copied())
            .map(Ticket)
    }

    /// The set of `ids`, in any order and with repeats. The spill reuses
    /// the vector, so decoding allocates nothing an id could size.
    pub(crate) fn from_ids(mut ids: Vec<u32>) -> TicketSet {
        let mut words = [0; 2];
        ids.retain(|&id| {
            let inline = id < INLINE_IDS;
            if inline {
                let (w, bit) = word_bit(id);
                words[w] |= bit;
            }
            !inline
        });
        ids.sort_unstable();
        ids.dedup();
        ids.shrink_to_fit();
        TicketSet { words, spill: ids }
    }
}

impl FromIterator<Ticket> for TicketSet {
    fn from_iter<I: IntoIterator<Item = Ticket>>(iter: I) -> Self {
        let mut set = TicketSet::new();
        for t in iter {
            set.insert(t);
        }
        set
    }
}

/// The pool of hardware tickets.
///
/// Every id below `next_unallocated` has been minted, and is either in
/// flight or on the free list, never both. `in_flight` is a bitset over the
/// minted ids.
#[derive(Debug, Clone)]
pub struct TicketFile {
    pub(crate) capacity: usize,
    pub(crate) free: Vec<Ticket>,
    pub(crate) next_unallocated: u32,
    /// Bit `i % 64` of word `i / 64` is set while ticket `i` is in flight.
    pub(crate) in_flight: Vec<u64>,
    /// Number of set bits in `in_flight`.
    pub(crate) in_flight_len: usize,
    pub(crate) exhausted_allocations: u64,
}

impl TicketFile {
    /// Creates a ticket file with `capacity` tickets (`usize::MAX` =
    /// effectively unlimited, used in the limit study).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> TicketFile {
        assert!(capacity > 0, "ticket file needs at least one ticket");
        TicketFile {
            capacity,
            free: Vec::new(),
            next_unallocated: 0,
            in_flight: Vec::new(),
            in_flight_len: 0,
            exhausted_allocations: 0,
        }
    }

    /// Number of tickets currently assigned to in-flight long-latency
    /// instructions.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight_len
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of allocation attempts that failed because no ticket was free.
    #[must_use]
    pub fn exhausted_allocations(&self) -> u64 {
        self.exhausted_allocations
    }

    /// Allocates a ticket for a newly predicted long-latency instruction.
    /// Returns `None` when all tickets are in flight (the instruction is then
    /// simply not tracked).
    pub fn allocate(&mut self) -> Option<Ticket> {
        if self.in_flight_len >= self.capacity {
            self.exhausted_allocations += 1;
            return None;
        }
        let t = match self.free.pop() {
            Some(t) => t,
            None => {
                let t = Ticket(self.next_unallocated);
                self.next_unallocated += 1;
                if word_bit(t.0).0 == self.in_flight.len() {
                    self.in_flight.push(0);
                }
                t
            }
        };
        let (w, bit) = word_bit(t.0);
        self.in_flight[w] |= bit;
        self.in_flight_len += 1;
        Some(t)
    }

    /// Releases a ticket when its long-latency instruction completes and the
    /// clear has been broadcast. Releasing a ticket that is not in flight is
    /// a no-op (this can happen when the monitor turned LTP off mid-flight).
    pub fn release(&mut self, t: Ticket) {
        if self.is_in_flight(t) {
            let (w, bit) = word_bit(t.0);
            self.in_flight[w] &= !bit;
            self.in_flight_len -= 1;
            self.free.push(t);
        }
    }

    /// Whether `t` is currently in flight.
    #[must_use]
    pub fn is_in_flight(&self, t: Ticket) -> bool {
        let (w, bit) = word_bit(t.0);
        self.in_flight.get(w).is_some_and(|word| word & bit != 0)
    }

    /// The in-flight ids, ascending.
    pub(crate) fn in_flight_ids(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.in_flight)
    }

    /// Rebuilds a ticket file from its encoded parts, checking that the
    /// in-flight and free ids are exactly the minted ids `0..next_unallocated`.
    /// The check on the counts comes first, so the bitset is sized by the
    /// number of ids read, never by an id.
    pub(crate) fn from_parts(
        capacity: usize,
        free: Vec<Ticket>,
        next_unallocated: u32,
        in_flight: &[u32],
        exhausted_allocations: u64,
    ) -> Option<TicketFile> {
        if next_unallocated as usize != free.len() + in_flight.len() {
            return None;
        }
        let mut file = TicketFile {
            capacity,
            free: Vec::new(),
            next_unallocated,
            in_flight: vec![0; (next_unallocated as usize).div_ceil(64)],
            in_flight_len: 0,
            exhausted_allocations,
        };
        for &id in in_flight {
            if id >= next_unallocated || file.is_in_flight(Ticket(id)) {
                return None;
            }
            let (w, bit) = word_bit(id);
            file.in_flight[w] |= bit;
            file.in_flight_len += 1;
        }
        // Every minted id is in flight or free: a free id must be minted,
        // not in flight and not listed twice.
        let mut minted = file.in_flight.clone();
        for t in &free {
            if t.0 >= next_unallocated {
                return None;
            }
            let (w, bit) = word_bit(t.0);
            if minted[w] & bit != 0 {
                return None;
            }
            minted[w] |= bit;
        }
        file.free = free;
        Some(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_set_union_and_clear() {
        let mut a: TicketSet = [Ticket(1), Ticket(2)].into_iter().collect();
        let b: TicketSet = [Ticket(2), Ticket(3)].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.len(), 3);
        assert!(a.contains(Ticket(3)));
        assert!(a.clear_ticket(Ticket(2)));
        assert!(!a.clear_ticket(Ticket(2)));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        a.clear_ticket(Ticket(1));
        a.clear_ticket(Ticket(3));
        assert!(a.is_empty());
    }

    #[test]
    fn allocate_release_cycle() {
        let mut f = TicketFile::new(2);
        let t1 = f.allocate().unwrap();
        let t2 = f.allocate().unwrap();
        assert_ne!(t1, t2);
        assert_eq!(f.in_flight(), 2);
        assert!(f.allocate().is_none());
        assert_eq!(f.exhausted_allocations(), 1);
        f.release(t1);
        assert_eq!(f.in_flight(), 1);
        let t3 = f.allocate().unwrap();
        assert!(f.is_in_flight(t3));
    }

    #[test]
    fn released_tickets_are_reused() {
        let mut f = TicketFile::new(1);
        let t1 = f.allocate().unwrap();
        f.release(t1);
        let t2 = f.allocate().unwrap();
        assert_eq!(t1, t2, "the freed ticket should be recycled");
    }

    #[test]
    fn double_release_is_harmless() {
        let mut f = TicketFile::new(2);
        let t = f.allocate().unwrap();
        f.release(t);
        f.release(t);
        assert_eq!(f.in_flight(), 0);
        // Capacity is not corrupted by the double release.
        assert!(f.allocate().is_some());
        assert!(f.allocate().is_some());
        assert!(f.allocate().is_none());
    }

    #[test]
    fn unlimited_file_keeps_allocating() {
        let mut f = TicketFile::new(usize::MAX);
        for _ in 0..1000 {
            assert!(f.allocate().is_some());
        }
        assert_eq!(f.in_flight(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one ticket")]
    fn zero_capacity_panics() {
        let _ = TicketFile::new(0);
    }

    #[test]
    fn ticket_display() {
        assert_eq!(Ticket(7).to_string(), "t7");
    }

    /// Wrap-around: a bounded file churned through far more allocations than
    /// its capacity must recycle ids from the free list instead of minting
    /// fresh ones, so ticket ids stay in `0..capacity` forever. This is the
    /// hardware property that makes the ticket a small fixed-width field in
    /// the RAT extension (Figure 11 sweeps 4..128 tickets).
    #[test]
    fn churn_recycles_ids_within_capacity() {
        let capacity = 4;
        let mut f = TicketFile::new(capacity);
        let mut live: Vec<Ticket> = Vec::new();
        for round in 0..10_000u64 {
            if round % 3 == 0 && !live.is_empty() {
                // Release out of allocation order to exercise the free list.
                let t = live.swap_remove((round as usize / 3) % live.len());
                f.release(t);
            } else if let Some(t) = f.allocate() {
                assert!(
                    (t.0 as usize) < capacity,
                    "ticket id {t} minted beyond capacity {capacity} after {round} rounds"
                );
                assert!(!live.contains(&t), "live ticket {t} handed out twice");
                live.push(t);
            }
            assert_eq!(f.in_flight(), live.len());
            assert!(f.in_flight() <= capacity);
        }
    }

    #[test]
    fn exhaustion_accounting_survives_churn() {
        let mut f = TicketFile::new(2);
        let a = f.allocate().unwrap();
        let _b = f.allocate().unwrap();
        for _ in 0..5 {
            assert!(f.allocate().is_none());
        }
        assert_eq!(f.exhausted_allocations(), 5);
        // Releasing makes the next allocation succeed again without
        // disturbing the exhaustion counter.
        f.release(a);
        assert!(f.allocate().is_some());
        assert_eq!(f.exhausted_allocations(), 5);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// Ids on both sides of the inline/spill boundary and of each word.
        fn id(raw: u8) -> Ticket {
            const IDS: [u32; 12] = [0, 1, 63, 64, 65, 126, 127, 128, 129, 191, 4_095, u32::MAX];
            Ticket(IDS[raw as usize % IDS.len()])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The bitset behaves as the ordered set it replaced: inserts,
            /// clears and unions agree, and so do `len`, `contains` and the
            /// ascending iteration order.
            #[test]
            fn ticket_set_matches_an_ordered_set(
                ops in prop::collection::vec((0u8..3, any::<u8>(), any::<u8>()), 1..64),
            ) {
                let mut sets = [TicketSet::new(), TicketSet::new()];
                let mut refs: [BTreeSet<Ticket>; 2] = [BTreeSet::new(), BTreeSet::new()];
                for (kind, a, b) in ops {
                    let side = usize::from(b & 1);
                    match kind {
                        0 => {
                            sets[side].insert(id(a));
                            refs[side].insert(id(a));
                        }
                        1 => prop_assert_eq!(
                            sets[side].clear_ticket(id(a)),
                            refs[side].remove(&id(a))
                        ),
                        _ => {
                            let other = sets[1 - side].clone();
                            sets[side].union_with(&other);
                            let other: Vec<Ticket> = refs[1 - side].iter().copied().collect();
                            refs[side].extend(other);
                        }
                    }
                    for (set, r) in sets.iter().zip(&refs) {
                        prop_assert_eq!(set.len(), r.len());
                        prop_assert_eq!(set.is_empty(), r.is_empty());
                        prop_assert_eq!(set.contains(id(a)), r.contains(&id(a)));
                        prop_assert!(set.iter().eq(r.iter().copied()));
                    }
                }
            }

            /// The ticket file's bitset tracks exactly the ids an ordered set
            /// of in-flight tickets would, and every minted id is in flight
            /// or free.
            #[test]
            fn ticket_file_tracks_in_flight_ids(
                ops in prop::collection::vec((any::<bool>(), any::<u8>()), 1..200),
                capacity in 1usize..150,
            ) {
                let mut f = TicketFile::new(capacity);
                let mut live: BTreeSet<u32> = BTreeSet::new();
                for (alloc, pick) in ops {
                    if alloc {
                        if let Some(t) = f.allocate() {
                            prop_assert!(live.insert(t.0), "{} handed out twice", t);
                        }
                    } else if let Some(&t) = live.iter().nth(pick as usize % live.len().max(1)) {
                        live.remove(&t);
                        f.release(Ticket(t));
                    }
                    prop_assert!(f.in_flight_ids().eq(live.iter().copied()));
                    prop_assert_eq!(f.in_flight(), live.len());
                    prop_assert_eq!(f.next_unallocated as usize, f.free.len() + live.len());
                }
            }
        }
    }
}
