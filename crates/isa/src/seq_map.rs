//! A table keyed by sequence number, for the per-instruction paths.
//!
//! The pipeline keeps several maps from a sequence number to per-instruction
//! state: in-flight metadata, the producers an issue-queue entry waits on,
//! the ticket a long-latency producer owns. A `HashMap` there pays a SipHash
//! on every instruction. A fixed cheap hash would not be safe, because a
//! caller-supplied trace chooses its own sequence numbers: they only have
//! to increase, so a client could pick keys that all collide.
//!
//! [`SeqMap`] hashes nothing. It keeps its entries sorted by key in a ring
//! buffer. Sequence numbers are dense along generated traces, and live keys
//! form a window of the program, so a lookup first tries the slot
//! `key - first key` (O(1)) and falls back to a binary search (O(log n)) for
//! gapped keys. Inserting at the young end and removing at the old end —
//! what rename and commit do — are O(1); other inserts and removals shift
//! the shorter side of the buffer. No key sequence is worse than that.

use ltp_snapshot::{Codec, Reader, SnapError, Writer};
use std::collections::VecDeque;

/// A map from sequence numbers (`u64`) to `V`, kept sorted by key.
#[derive(Debug)]
pub struct SeqMap<V> {
    entries: VecDeque<(u64, V)>,
}

/// A clone keeps the source's room, as a `HashMap` clone keeps its table
/// size: a processor restored from a snapshot must not grow this table in
/// steady state where a fresh one would not.
impl<V: Clone> Clone for SeqMap<V> {
    fn clone(&self) -> SeqMap<V> {
        let mut entries = VecDeque::with_capacity(self.entries.capacity());
        entries.extend(self.entries.iter().cloned());
        SeqMap { entries }
    }
}

impl<V> SeqMap<V> {
    /// An empty map with room for `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> SeqMap<V> {
        SeqMap {
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Slot of `key`: the dense guess first, then a binary search.
    fn find(&self, key: u64) -> Result<usize, usize> {
        let Some(&(first, _)) = self.entries.front() else {
            return Err(0);
        };
        if let Some(idx) = key.checked_sub(first) {
            if let Some((k, _)) = self.entries.get(idx as usize) {
                if *k == key {
                    return Ok(idx as usize);
                }
            }
        }
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The value stored under `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&V> {
        let idx = self.find(key).ok()?;
        Some(&self.entries[idx].1)
    }

    /// Stores `value` under `key`, replacing any previous value.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.entries.back().is_none_or(|&(last, _)| last < key) {
            self.entries.push_back((key, value));
            return;
        }
        match self.find(key) {
            Ok(idx) => self.entries[idx].1 = value,
            Err(idx) => self.entries.insert(idx, (key, value)),
        }
    }

    /// The value under `key`, inserting `V::default()` first if absent.
    pub fn get_or_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        let idx = match self.find(key) {
            Ok(idx) => idx,
            Err(idx) => {
                self.entries.insert(idx, (key, V::default()));
                idx
            }
        };
        &mut self.entries[idx].1
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if self.entries.front().is_some_and(|&(first, _)| first == key) {
            return self.entries.pop_front().map(|(_, v)| v);
        }
        let idx = self.find(key).ok()?;
        self.entries.remove(idx).map(|(_, v)| v)
    }
}

/// The byte layout of a `HashMap<u64, V>` (entry count, then key/value
/// pairs in ascending key order), so replacing a hash map by this table
/// leaves snapshot bytes unchanged.
impl<V: Codec> Codec for SeqMap<V> {
    fn write(&self, w: &mut Writer) {
        w.varint(self.entries.len() as u64);
        for (k, v) in &self.entries {
            k.write(w);
            v.write(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = SeqMap::with_capacity(n.max(64));
        for _ in 0..n {
            let k = u64::read(r)?;
            let v = V::read(r)?;
            if out.entries.back().is_some_and(|&(last, _)| last >= k) {
                return Err(SnapError::Invalid("sequence-keyed table out of order"));
            }
            out.entries.push_back((k, v));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn dense_window_inserts_young_and_removes_old() {
        let mut m = SeqMap::with_capacity(8);
        for k in 10..20u64 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.get(15), Some(&30));
        assert_eq!(m.remove(10), Some(20));
        assert_eq!(m.remove(10), None);
        assert_eq!(m.get(19), Some(&38));
        assert_eq!(m.entries.len(), 9);
    }

    #[test]
    fn gapped_and_out_of_order_keys_stay_sorted() {
        let mut m = SeqMap::with_capacity(0);
        for k in [1u64 << 40, 3, 1 << 20, 7, 1 << 62, 5] {
            m.insert(k, k);
        }
        let keys: Vec<u64> = m.entries.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![3, 5, 7, 1 << 20, 1 << 40, 1 << 62]);
        assert_eq!(m.remove(1 << 20), Some(1 << 20));
        assert_eq!(m.get(1 << 20), None);
        *m.get_or_default(4) += 9;
        assert_eq!(m.get(4), Some(&9));
        m.insert(4, 1);
        assert_eq!(m.get(4), Some(&1));
    }

    #[test]
    fn bytes_match_the_hash_map_layout() {
        let mut m = SeqMap::with_capacity(0);
        let mut h = std::collections::HashMap::new();
        for k in [9u64, 2, 700, 3] {
            m.insert(k, k as u32 + 1);
            h.insert(k, k as u32 + 1);
        }
        let bytes = ltp_snapshot::encode_value(&m);
        assert_eq!(bytes, ltp_snapshot::encode_value(&h));
        let back: SeqMap<u32> = ltp_snapshot::decode_value(&bytes).expect("decode");
        assert_eq!(ltp_snapshot::encode_value(&back), bytes);
    }

    #[test]
    fn clone_keeps_room() {
        let mut m = SeqMap::with_capacity(100);
        m.insert(1, 1u8);
        assert!(m.clone().entries.capacity() >= 100);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any interleaving of inserts, removals and lookups leaves the
            /// table agreeing with an ordered map.
            #[test]
            fn behaves_like_an_ordered_map(
                ops in prop::collection::vec((0u8..3, 0u64..64), 0..200),
            ) {
                let mut m = SeqMap::with_capacity(0);
                let mut reference = BTreeMap::new();
                for (op, key) in ops {
                    match op {
                        0 => {
                            m.insert(key, key);
                            reference.insert(key, key);
                        }
                        1 => prop_assert_eq!(m.remove(key), reference.remove(&key)),
                        _ => prop_assert_eq!(m.get(key), reference.get(&key)),
                    }
                }
                let got: Vec<(u64, u64)> = m.entries.into_iter().collect();
                let want: Vec<(u64, u64)> = reference.into_iter().collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
