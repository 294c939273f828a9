//! Set-associative cache with true-LRU replacement.

use crate::config::CacheConfig;

/// Per-line metadata stored in a cache way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    /// LRU timestamp: larger means more recently used.
    lru: u64,
}

impl Line {
    fn invalid() -> Line {
        Line {
            tag: 0,
            valid: false,
            dirty: false,
            prefetched: false,
            lru: 0,
        }
    }
}

/// A line evicted by a fill, returned so the caller can write it back to the
/// next level if dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line address (64-byte aligned) of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty and needs a writeback.
    pub dirty: bool,
}

/// Hit/miss and prefetch-usefulness counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Fills triggered by the prefetcher.
    pub prefetch_fills: u64,
    /// Demand hits on lines brought in by the prefetcher (useful prefetches).
    pub prefetch_hits: u64,
    /// Lines evicted while dirty (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand accesses observed (hits + misses).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio over demand accesses; zero when there were no accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative, write-allocate, true-LRU cache.
///
/// The cache stores only tags (the simulation is timing-only); the model
/// distinguishes demand fills from prefetch fills so prefetch usefulness can
/// be reported.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    set_shift: u32,
    set_mask: u64,
    lru_clock: u64,
    stats: CacheStats,
    /// One bit per set, raised when the set may have left its
    /// just-constructed state. Purely an encode accelerator: a short run
    /// touches a small fraction of a large cache, and the snapshot encoder
    /// skips scanning the ways of never-touched sets (they encode as the
    /// same single empty-bitmap byte a scan would produce). Marking is
    /// conservative — a demand miss raises the bit without mutating the
    /// set — which costs a redundant scan, never a wrong byte.
    touched: Vec<u64>,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        let num_sets = cfg.num_sets();
        Cache {
            cfg,
            sets: vec![vec![Line::invalid(); cfg.ways]; num_sets],
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (num_sets as u64) - 1,
            lru_clock: 0,
            stats: CacheStats::default(),
            touched: vec![0; num_sets.div_ceil(64)],
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.set_shift >> self.set_mask.count_ones()
    }

    fn tick(&mut self) -> u64 {
        self.lru_clock += 1;
        self.lru_clock
    }

    /// Looks up `addr` as a *demand* access. Returns `true` on a hit and
    /// updates LRU and hit/miss statistics. On a write hit the line is marked
    /// dirty. A miss does **not** allocate; call [`Cache::fill`] when the
    /// refill returns (the hierarchy model does this immediately but keeps
    /// the distinction so MSHR merging behaves correctly).
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let stamp = self.tick();
        self.touched[set >> 6] |= 1 << (set & 63);
        let line = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag);
        match line {
            Some(l) => {
                l.lru = stamp;
                if is_write {
                    l.dirty = true;
                }
                if l.prefetched {
                    self.stats.prefetch_hits += 1;
                    l.prefetched = false;
                }
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Checks whether `addr` is present without updating LRU or statistics
    /// (used by tests and by the prefetcher to avoid redundant prefetches).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Fills the line containing `addr`, evicting the LRU way if necessary.
    /// `from_prefetch` marks the line as prefetched for usefulness accounting;
    /// `as_dirty` installs the line already dirty (write-allocate stores).
    ///
    /// Returns the victim line if a valid line was evicted.
    pub fn fill(&mut self, addr: u64, from_prefetch: bool, as_dirty: bool) -> Option<EvictedLine> {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let stamp = self.tick();
        self.touched[set >> 6] |= 1 << (set & 63);

        // If the line is already present (e.g. a prefetch raced a demand fill)
        // just refresh it.
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = stamp;
            l.dirty |= as_dirty;
            return None;
        }

        if from_prefetch {
            self.stats.prefetch_fills += 1;
        }

        // Choose victim: first invalid way, otherwise LRU.
        let victim_idx = {
            let ways = &self.sets[set];
            match ways.iter().position(|l| !l.valid) {
                Some(i) => i,
                None => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i)
                    .expect("cache set has at least one way"),
            }
        };

        let shift = self.set_shift;
        let mask_bits = self.set_mask.count_ones();
        let victim = self.sets[set][victim_idx];
        let evicted = if victim.valid {
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            let line_addr = ((victim.tag << mask_bits) | set as u64) << shift;
            Some(EvictedLine {
                line_addr,
                dirty: victim.dirty,
            })
        } else {
            None
        };

        self.sets[set][victim_idx] = Line {
            tag,
            valid: true,
            dirty: as_dirty,
            prefetched: from_prefetch,
            lru: stamp,
        };
        evicted
    }

    /// Number of valid lines currently resident (for tests).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|l| l.valid).count())
            .sum()
    }
}

/// Widest associativity the sparse per-set snapshot layout covers with its
/// one-`u64` way bitmap; wider geometries use the dense layout.
const SPARSE_MAX_WAYS: usize = 63;

/// Plain-data mirror of one cache line for the snapshot codec.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineSnap {
    pub(crate) tag: u64,
    pub(crate) valid: bool,
    pub(crate) dirty: bool,
    pub(crate) prefetched: bool,
    pub(crate) lru: u64,
}

impl Cache {
    /// Streams the per-set line state straight into a snapshot writer.
    ///
    /// The byte layout is exactly what encoding a `Vec<Vec<LineSnap>>` field
    /// by field would produce — decode still goes through
    /// [`Cache::from_snap_parts`] — but without materialising one `Vec` per
    /// set: snapshots are encoded per journaled interval, and the thousands
    /// of small allocations dominated the encode cost. Way order inside each
    /// set is preserved verbatim: it decides which invalid way a fill picks,
    /// so it is part of the timing-visible state.
    pub(crate) fn snap_write_sets(&self, w: &mut ltp_snapshot::Writer) {
        // LEB128, identical to `Writer::varint`, but into a stack buffer.
        #[inline]
        fn put_varint(buf: &mut [u8], mut pos: usize, mut v: u64) -> usize {
            loop {
                let mut b = (v & 0x7f) as u8;
                v >>= 7;
                if v != 0 {
                    b |= 0x80;
                }
                buf[pos] = b;
                pos += 1;
                if v == 0 {
                    return pos;
                }
            }
        }
        w.varint(self.sets.len() as u64);
        if self.cfg.ways <= SPARSE_MAX_WAYS {
            // Sparse per-set layout: a bitmap of non-default ways, then only
            // those ways' fields (tag, packed flags, lru). A short run warms
            // a small fraction of a large cache, so most sets collapse to
            // one zero byte — the journal streams one snapshot per sampled
            // interval, and both the encode and the bytes it emits have to
            // stay cheap. Each set goes through a stack buffer and lands in
            // one `bytes` call (per-`Writer`-call overhead dominated the
            // dense encoding of ~30k lines).
            // Single pass over the lines: the set body is encoded into the
            // buffer starting past a maximum-width bitmap slot while the
            // bitmap accumulates, then the bitmap's varint is placed flush
            // against the body. (A bitmap-first layout would need a second
            // scan of every line; this encode runs once per journaled
            // interval over every set of three caches.)
            let mut buf = [0u8; 10 + SPARSE_MAX_WAYS * 21];
            for (s, set) in self.sets.iter().enumerate() {
                if self.touched[s >> 6] & (1 << (s & 63)) == 0 {
                    // Never-touched set: all ways are still default, which
                    // encodes as the empty bitmap without scanning them.
                    w.byte(0);
                    continue;
                }
                let mut bitmap = 0u64;
                let mut pos = 10;
                for (i, l) in set.iter().enumerate() {
                    if l.tag != 0 || l.valid || l.dirty || l.prefetched || l.lru != 0 {
                        bitmap |= 1 << i;
                        pos = put_varint(&mut buf, pos, l.tag);
                        buf[pos] = u8::from(l.valid)
                            | u8::from(l.dirty) << 1
                            | u8::from(l.prefetched) << 2;
                        pos += 1;
                        pos = put_varint(&mut buf, pos, l.lru);
                    }
                }
                let mut tmp = [0u8; 10];
                let blen = put_varint(&mut tmp, 0, bitmap);
                let start = 10 - blen;
                buf[start..10].copy_from_slice(&tmp[..blen]);
                w.bytes(&buf[start..pos]);
            }
        } else {
            // Dense fallback for geometries whose way count outgrows the
            // bitmap; the decoder picks the same branch from the config.
            for set in &self.sets {
                w.varint(set.len() as u64);
                for l in set {
                    w.varint(l.tag);
                    w.byte(u8::from(l.valid));
                    w.byte(u8::from(l.dirty));
                    w.byte(u8::from(l.prefetched));
                    w.varint(l.lru);
                }
            }
        }
    }

    /// Decodes the per-set line state written by [`Cache::snap_write_sets`].
    /// `cfg` is the already-decoded geometry: the sparse layout derives each
    /// set's way count (and the sparse-vs-dense branch) from it.
    pub(crate) fn snap_read_sets(
        r: &mut ltp_snapshot::Reader<'_>,
        cfg: &CacheConfig,
    ) -> Result<Vec<Vec<LineSnap>>, ltp_snapshot::SnapError> {
        use ltp_snapshot::{Codec, SnapError};
        let n = usize::read(r)?;
        // Every set consumes at least one byte (its bitmap or length
        // varint), so a count beyond the remaining input is corruption —
        // reject it before sizing any allocation from it.
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut sets = Vec::with_capacity(n);
        if cfg.ways <= SPARSE_MAX_WAYS {
            // The sparse layout sizes each decoded set from the config, so
            // pin the set count to the config's geometry before allocating
            // (the dense path's per-set length prefixes are input-bounded on
            // their own; `from_snap_parts` re-validates either way).
            let expected = cfg
                .num_sets_checked()
                .ok_or(SnapError::Invalid("cache geometry"))?;
            if n != expected {
                return Err(SnapError::Invalid("cache set count"));
            }
            for _ in 0..n {
                let bitmap = r.varint()?;
                if cfg.ways < 64 && bitmap >> cfg.ways != 0 {
                    return Err(SnapError::Invalid("cache way bitmap"));
                }
                let mut set = vec![
                    LineSnap {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        prefetched: false,
                        lru: 0,
                    };
                    cfg.ways
                ];
                for (i, l) in set.iter_mut().enumerate() {
                    if bitmap & (1 << i) != 0 {
                        l.tag = r.varint()?;
                        let flags = r.byte()?;
                        if flags > 0b111 {
                            return Err(SnapError::Invalid("cache line flags"));
                        }
                        l.valid = flags & 1 != 0;
                        l.dirty = flags & 2 != 0;
                        l.prefetched = flags & 4 != 0;
                        l.lru = r.varint()?;
                    }
                }
                sets.push(set);
            }
        } else {
            for _ in 0..n {
                sets.push(Vec::<LineSnap>::read(r)?);
            }
        }
        Ok(sets)
    }

    /// The LRU clock, exported for the snapshot codec.
    pub(crate) fn snap_lru_clock(&self) -> u64 {
        self.lru_clock
    }

    /// Rebuilds a cache from exported state, validating the geometry.
    pub(crate) fn from_snap_parts(
        cfg: CacheConfig,
        sets: Vec<Vec<LineSnap>>,
        lru_clock: u64,
        stats: CacheStats,
    ) -> Result<Cache, ltp_snapshot::SnapError> {
        // Validate the geometry against the *decoded* data before building
        // the cache: `Cache::new` sizes its allocation from the config, so a
        // corrupted config must be rejected while the cost of doing so is
        // still proportional to the decoded input, and an inconsistent
        // geometry must be a typed error rather than `num_sets`'s panic.
        let num_sets = cfg
            .num_sets_checked()
            .ok_or(ltp_snapshot::SnapError::Invalid("cache geometry"))?;
        if sets.len() != num_sets {
            return Err(ltp_snapshot::SnapError::Invalid("cache set count"));
        }
        if sets.iter().any(|s| s.len() != cfg.ways) {
            return Err(ltp_snapshot::SnapError::Invalid("cache way count"));
        }
        let mut cache = Cache::new(cfg);
        for (dst, src) in cache.sets.iter_mut().zip(sets) {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = Line {
                    tag: s.tag,
                    valid: s.valid,
                    dirty: s.dirty,
                    prefetched: s.prefetched,
                    lru: s.lru,
                };
            }
        }
        cache.lru_clock = lru_clock;
        cache.stats = stats;
        // Rebuild the touched bitmap from the decoded content, so a decoded
        // cache re-encodes to byte-identical output (a set restored with any
        // non-default way must not take the untouched shortcut).
        for (s, set) in cache.sets.iter().enumerate() {
            if set
                .iter()
                .any(|l| l.tag != 0 || l.valid || l.dirty || l.prefetched || l.lru != 0)
            {
                cache.touched[s >> 6] |= 1 << (s & 63);
            }
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(ways: usize, sets: u64) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 64 * ways as u64 * sets,
            line_bytes: 64,
            ways,
            latency: 1,
            tag_to_data: 0,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny_cache(2, 4);
        assert!(!c.access(0x1000, false));
        c.fill(0x1000, false, false);
        assert!(c.access(0x1000, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = tiny_cache(2, 4);
        c.fill(0x1000, false, false);
        assert!(c.access(0x103f, false));
        assert!(!c.access(0x1040, false));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny_cache(2, 1);
        // Two ways, one set: fill A and B, touch A, fill C -> B evicted.
        c.fill(0x0, false, false);
        c.fill(0x40, false, false);
        assert!(c.access(0x0, false));
        let evicted = c.fill(0x80, false, false).expect("a line must be evicted");
        assert_eq!(evicted.line_addr, 0x40);
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert!(c.probe(0x80));
    }

    #[test]
    fn dirty_eviction_generates_writeback() {
        let mut c = tiny_cache(1, 1);
        c.fill(0x0, false, false);
        assert!(c.access(0x0, true)); // write hit -> dirty
        let ev = c.fill(0x40, false, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fill_as_dirty_marks_dirty() {
        let mut c = tiny_cache(1, 1);
        c.fill(0x0, false, true);
        let ev = c.fill(0x40, false, false).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn prefetch_usefulness_accounting() {
        let mut c = tiny_cache(2, 2);
        c.fill(0x1000, true, false);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(0x1000, false));
        assert_eq!(c.stats().prefetch_hits, 1);
        // A second hit on the same line is no longer counted as a prefetch hit.
        assert!(c.access(0x1000, false));
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn probe_does_not_change_stats() {
        let mut c = tiny_cache(2, 2);
        c.fill(0x2000, false, false);
        let before = c.stats();
        assert!(c.probe(0x2000));
        assert!(!c.probe(0x4000));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn victim_address_reconstruction_is_correct() {
        let mut c = tiny_cache(1, 8);
        // Two addresses mapping to the same set (set index bits 6..9).
        let a = 0x1040;
        let b = a + 64 * 8; // same set, different tag
        c.fill(a, false, false);
        let ev = c.fill(b, false, false).unwrap();
        assert_eq!(ev.line_addr, a);
    }

    #[test]
    fn double_fill_does_not_duplicate() {
        let mut c = tiny_cache(4, 2);
        c.fill(0x1000, false, false);
        c.fill(0x1000, true, false);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn miss_ratio_reported() {
        let mut c = tiny_cache(2, 2);
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0x0, false);
        c.fill(0x0, false, false);
        c.access(0x0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-9);
    }
}
