//! On-disk content-addressed checkpoint cache shared across sweeps.
//!
//! Functional warm-up state depends only on the trace and the warm half of
//! the configuration ([`WarmupConfig`]: memory geometry, predictor
//! geometry, classifier training projection) — never on ROB/IQ/PRF sizes,
//! LTP mode or SMT policy. Sampled runs therefore pay the functional pass
//! once per *(trace, geometry)* instead of once per configuration by
//! storing warm state here keyed by an FNV-1a fingerprint of exactly those
//! inputs.
//!
//! The cache holds one entry family, **sampled warm entries**
//! ([`SampledWarmEntry`]): every interval boundary's [`FunctionalWarmState`]
//! plus its LLC-miss LPT weight, for one (workload trace, warm config,
//! interval geometry). A hit bypasses the functional fast-forward pass
//! entirely — per-interval checkpoints are rebuilt from the cached state
//! under the *requesting* detail configuration, bit-identical to what a
//! cold pass would emit.
//!
//! Storage discipline (the parts a cache must get right):
//!
//! * **Content addressing.** The key is the FNV-1a fingerprint of the
//!   canonical encoding of every input that can change the payload,
//!   including the trace *content* fingerprint and the snapshot format
//!   version. There is no invalidation protocol — a changed input is a
//!   different key.
//! * **Corruption is a miss.** An entry is an [`ltp_snapshot::framed`]
//!   file (magic `LTPCKPT`, version [`CACHE_VERSION`]) holding two
//!   checksummed frames: its key, then its payload. An entry of another
//!   layout, a bit flip, a short read, a length running past the end or a
//!   key of another slot all fail the header, frame or codec check, and the
//!   entry is deleted and regenerated. The cache never returns bytes it
//!   could not fully validate.
//! * **LRU byte budget.** Each store evicts least-recently-*used* entries
//!   (file mtime, refreshed on hit) until the directory fits the budget.
//!   Whole entries are evicted — a partial entry is not a thing.
//! * **Atomic publish.** Entries are published whole
//!   ([`ltp_snapshot::framed::publish`]), so concurrent writers of the same
//!   key race benignly and a torn write is never visible under the final
//!   name.

use ltp_pipeline::{FunctionalWarmState, WarmupConfig};
use ltp_snapshot::framed::{publish, read_framed, FileKind};
use ltp_snapshot::{decode_value, fnv1a64, impl_codec, Codec, Writer};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the cache entry layout and key derivation. Bumping it orphans
/// (never misreads) existing entries: the version participates in every
/// key. Version 2: trace identities are the word-wise streamed
/// [`ltp_isa::TraceHasher`] fingerprint, not FNV over the trace encoding.
pub const CACHE_VERSION: u64 = 2;

/// Default byte budget: generous for sweep-sized working sets (a sampled
/// warm entry is a few hundred kilobytes) while bounded on shared machines.
pub const DEFAULT_BUDGET_BYTES: u64 = 512 * 1024 * 1024;

const ENTRY_SUFFIX: &str = ".ckpt";

/// Header of an entry file: an entry of another layout fails its check.
const ENTRY_FILE: FileKind = FileKind {
    magic: *b"LTPCKPT\0",
    version: CACHE_VERSION,
};

/// Counters exported by [`CheckpointCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a validated entry.
    pub hits: u64,
    /// Lookups that found nothing usable (including corrupt entries).
    pub misses: u64,
    /// Corrupt or truncated entries discarded during lookups (each also
    /// counts as a miss).
    pub corrupt: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries deleted by the LRU byte-budget evictor.
    pub evictions: u64,
    /// Payload bytes read by hits.
    pub bytes_read: u64,
    /// Payload bytes written by stores.
    pub bytes_written: u64,
}

impl CacheStats {
    /// One-line report format: the satellite `hits/misses/bytes/evictions`
    /// summary printed next to the wall-clock breakdown.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "checkpoint cache: {} hit{}, {} miss{} ({} corrupt), {} bytes written, {} bytes read, {} eviction{}",
            self.hits,
            if self.hits == 1 { "" } else { "s" },
            self.misses,
            if self.misses == 1 { "" } else { "es" },
            self.corrupt,
            self.bytes_written,
            self.bytes_read,
            self.evictions,
            if self.evictions == 1 { "" } else { "s" },
        )
    }
}

/// The on-disk cache. Cheap to share (`&self` everywhere, atomic counters);
/// sweeps wrap it in an [`std::sync::Arc`] and hand clones to workers.
#[derive(Debug)]
pub struct CheckpointCache {
    dir: PathBuf,
    budget_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl CheckpointCache {
    /// Opens (creating if needed) a cache directory with the default byte
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CheckpointCache> {
        CheckpointCache::with_budget(dir, DEFAULT_BUDGET_BYTES)
    }

    /// Opens a cache with an explicit byte budget (tests use tiny budgets
    /// to exercise eviction).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn with_budget(dir: impl Into<PathBuf>, budget_bytes: u64) -> io::Result<CheckpointCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointCache {
            dir,
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}{ENTRY_SUFFIX}"))
    }

    /// Looks up `key` and decodes its entry. A present-but-invalid entry
    /// (see [`decode_entry`]) is deleted and counted as a corrupt miss.
    fn load<T: Codec>(&self, key: u64) -> Option<T> {
        let path = self.entry_path(key);
        let Ok(bytes) = fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let Some((value, len)) = decode_entry(&bytes, key) else {
            // Corrupt-entry-is-a-miss: drop it so the regenerated entry
            // takes its place.
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            let _ = fs::remove_file(&path);
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        // Refresh recency for the LRU evictor; failure to touch only
        // degrades eviction order, never correctness.
        if let Ok(f) = fs::File::open(&path) {
            let _ = f.set_modified(std::time::SystemTime::now());
        }
        Some(value)
    }

    /// Publishes `value` under `key`, then enforces the byte budget.
    /// Best-effort: storage failures are swallowed — a cache that cannot
    /// write behaves like a cache that always misses.
    fn store<T: Codec>(&self, key: u64, value: &T) {
        let path = self.entry_path(key);
        let mut len = 0;
        let published = publish(&path, ENTRY_FILE, |w| {
            w.append_value(&key)?;
            len = w.append_value(value)?;
            Ok(())
        });
        if published.is_err() {
            return;
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
        self.evict_over_budget(&path);
    }

    /// Deletes least-recently-used entries until the directory fits the
    /// budget. The just-written entry is exempt — a single oversized entry
    /// must not evict itself into a store/evict loop.
    fn evict_over_budget(&self, just_written: &Path) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_str()?;
                if !name.ends_with(ENTRY_SUFFIX) {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, meta.len(), path))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= self.budget_bytes {
            return;
        }
        files.sort_by_key(|(mtime, _, _)| *mtime);
        for (_, len, path) in files {
            if total <= self.budget_bytes {
                break;
            }
            if path == just_written {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Looks up the sampled warm entry for `key` (from
    /// [`sampled_warm_key`]).
    #[must_use]
    pub fn load_sampled_warm(&self, key: u64) -> Option<SampledWarmEntry> {
        self.load(key)
    }

    /// Stores a sampled warm entry.
    pub fn store_sampled_warm(&self, key: u64, entry: &SampledWarmEntry) {
        self.store(key, entry);
    }
}

/// Decodes an entry file: its key, then its payload, one frame each and
/// nothing after. The embedded key rejects a valid entry renamed (or
/// hash-collided) into another slot. Returns the value and the payload's
/// length, or `None` for anything else.
fn decode_entry<T: Codec>(bytes: &[u8], key: u64) -> Option<(T, usize)> {
    let mut frames = read_framed(bytes, ENTRY_FILE).ok()?;
    let stored_key: u64 = decode_value(frames.next()?.ok()?.payload).ok()?;
    let payload = frames.next()?.ok()?.payload;
    if stored_key != key || frames.next().is_some() {
        return None;
    }
    Some((decode_value(payload).ok()?, payload.len()))
}

// --- keys --------------------------------------------------------------------

/// The key-domain tag of sampled warm entries, hashed ahead of the key's
/// inputs: every key of [`CACHE_VERSION`] 2 carries it.
const SAMPLED_WARM_DOMAIN: u8 = 1;

/// The geometry of a sampled run that shapes where interval boundaries
/// fall — every input of `SampleSpec::interval_starts` plus the functional
/// pre-warm length. Part of [`sampled_warm_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalGeometry {
    /// Total instructions sampled over.
    pub total_insts: u64,
    /// Number of detailed intervals.
    pub intervals: u64,
    /// Detailed warm-up instructions per interval.
    pub detail_warm: u64,
    /// Measured instructions per interval.
    pub detail_measure: u64,
    /// Placement seed.
    pub seed: u64,
    /// Functional cache pre-warm instructions.
    pub warm_insts: u64,
}

/// Key of a sampled warm entry: trace identity (workload name, seed,
/// content fingerprint), the warm half of the configuration, and the
/// interval geometry.
#[must_use]
pub fn sampled_warm_key(
    workload: &str,
    trace_fnv: u64,
    warm: &WarmupConfig,
    geometry: &IntervalGeometry,
) -> u64 {
    let mut w = Writer::new();
    CACHE_VERSION.write(&mut w);
    u64::from(ltp_snapshot::FORMAT_VERSION).write(&mut w);
    w.byte(SAMPLED_WARM_DOMAIN);
    workload.as_bytes().to_vec().write(&mut w);
    trace_fnv.write(&mut w);
    warm.write(&mut w);
    geometry.total_insts.write(&mut w);
    geometry.intervals.write(&mut w);
    geometry.detail_warm.write(&mut w);
    geometry.detail_measure.write(&mut w);
    geometry.seed.write(&mut w);
    geometry.warm_insts.write(&mut w);
    fnv1a64(&w.into_bytes())
}

// --- sampled warm entries ----------------------------------------------------

/// One interval boundary's cached warm state.
#[derive(Debug, Clone)]
pub struct CachedInterval {
    /// Absolute trace position of the interval start.
    pub start: u64,
    /// Functional LLC misses across the interval span (the LPT cost weight
    /// the streaming scheduler orders intervals by).
    pub weight: u64,
    /// Warm state at `start`.
    pub state: FunctionalWarmState,
}

/// A whole sampled run's warm states: one [`CachedInterval`] per interval,
/// in interval order. Hits bypass the functional pass for the entire run.
#[derive(Debug, Clone, Default)]
pub struct SampledWarmEntry {
    /// Per-interval warm states, index-aligned with the run's interval
    /// starts.
    pub intervals: Vec<CachedInterval>,
}

impl_codec!(CachedInterval {
    start,
    weight,
    state
});
impl_codec!(SampledWarmEntry { intervals });

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_mem::MemoryHierarchy;
    use ltp_pipeline::PipelineConfig;
    use ltp_snapshot::encode_value;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltp-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A warmed memory hierarchy: a payload of realistic size for the
    /// storage tests, which go through the generic `load` and `store`.
    fn sample_mem() -> MemoryHierarchy {
        use ltp_mem::{AccessKind, MemoryConfig, MemoryRequest};
        let mut mem = MemoryHierarchy::new(MemoryConfig::micro2015_baseline());
        for i in 0..256u64 {
            mem.warm(&MemoryRequest::new(
                ltp_isa::Pc(0x1000 + i * 4),
                i * 64,
                AccessKind::Load,
            ));
        }
        mem
    }

    #[test]
    fn warm_mem_roundtrip_and_stats() {
        let dir = tmp_dir("roundtrip");
        let cache = CheckpointCache::open(&dir).expect("open");
        let key = 0xfeed;
        assert!(
            cache.load::<MemoryHierarchy>(key).is_none(),
            "empty cache misses"
        );
        let mem = sample_mem();
        cache.store(key, &mem);
        let back: MemoryHierarchy = cache.load(key).expect("hit after store");
        assert_eq!(encode_value(&back), encode_value(&mem), "bit-exact payload");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.corrupt), (1, 1, 1, 0));
        assert!(s.bytes_written > 0 && s.bytes_read == s.bytes_written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_classes_are_misses() {
        // Every corruption class from the satellite: bit flip, short read
        // (truncation), and a length-lying header. Each must be a miss that
        // deletes the entry, and a re-store must regenerate it.
        let dir = tmp_dir("corrupt");
        let cache = CheckpointCache::open(&dir).expect("open");
        let mem = sample_mem();
        let key = 1;
        let load = |key| cache.load::<MemoryHierarchy>(key);
        cache.store(key, &mem);
        let path = cache.entry_path(key);
        let pristine = fs::read(&path).expect("entry exists");

        // Bit flip in the middle of the payload.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).expect("write corrupted");
        assert!(load(key).is_none(), "bit flip must miss");
        assert!(!path.exists(), "corrupt entry deleted");

        // Short read: the tail of the frame is missing.
        cache.store(key, &mem);
        fs::write(&path, &pristine[..pristine.len() - 7]).expect("truncate");
        assert!(load(key).is_none(), "truncation must miss");

        // Length-lying header: the frame's varint length points past EOF.
        cache.store(key, &mem);
        let mut lying = pristine.clone();
        // Framed-file layout: 8 magic bytes and a 1-byte version, then the
        // key frame's varint length; force a huge length.
        lying[9] = 0xff;
        lying[10] = 0xff;
        lying[11] = 0x7f;
        fs::write(&path, &lying).expect("write lying header");
        assert!(load(key).is_none(), "lying length must miss");

        // A wrong-slot entry (valid frame, mismatched embedded key).
        cache.store(key, &mem);
        let other = 2;
        fs::copy(&path, cache.entry_path(other)).expect("copy to wrong slot");
        assert!(load(other).is_none(), "entry in the wrong slot must miss");

        // Regeneration works after every class.
        cache.store(key, &mem);
        assert!(load(key).is_some());
        let s = cache.stats();
        assert_eq!(s.corrupt, 4, "each corruption class counted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_layout_entries_are_corrupt_misses() {
        // The layout before framed files: one bare frame around
        // `(CACHE_VERSION, key, payload)`, which is a framed file's frame
        // without the file header. Intact as it is, it fails the header
        // check and is replaced, never misread.
        let dir = tmp_dir("old-layout");
        let cache = CheckpointCache::open(&dir).expect("open");
        let mem = sample_mem();
        let key = 3;
        let path = cache.entry_path(key);
        publish(&path, ENTRY_FILE, |w| {
            w.append_value(&(CACHE_VERSION, key, encode_value(&mem)))
                .map(drop)
        })
        .expect("write");
        let framed = fs::read(&path).expect("entry");
        let header_len = ENTRY_FILE.magic.len() + 1;
        fs::write(&path, &framed[header_len..]).expect("strip the header");
        assert!(
            cache.load::<MemoryHierarchy>(key).is_none(),
            "old layout must miss"
        );
        assert!(!path.exists(), "old entry deleted");
        assert_eq!(cache.stats().corrupt, 1);
        cache.store(key, &mem);
        let back: MemoryHierarchy = cache.load(key).expect("replaced entry hits");
        assert_eq!(encode_value(&back), encode_value(&mem));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let dir = tmp_dir("lru");
        let mem = sample_mem();
        let entry_len = {
            // Measure one entry's on-disk size to size the budget at ~2.5
            // entries.
            let probe = CheckpointCache::open(dir.join("probe")).expect("open");
            probe.store(0, &mem);
            fs::metadata(probe.entry_path(0))
                .expect("probe entry")
                .len()
        };
        let cache =
            CheckpointCache::with_budget(dir.join("real"), entry_len * 5 / 2).expect("open");
        let load = |key| cache.load::<MemoryHierarchy>(key);
        let keys: [u64; 3] = [10, 11, 12];
        cache.store(keys[0], &mem);
        // Ensure distinct mtimes even on coarse filesystem clocks.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(keys[1], &mem);
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Touch key 0 (a hit refreshes recency) so key 1 is now the LRU.
        assert!(load(keys[0]).is_some());
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(keys[2], &mem);
        assert_eq!(cache.stats().evictions, 1, "one entry over budget");
        assert!(load(keys[1]).is_none(), "least-recently-used entry evicted");
        assert!(load(keys[0]).is_some(), "recent hit kept");
        assert!(load(keys[2]).is_some(), "new entry kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_domains_and_inputs_separate() {
        let warm = PipelineConfig::micro2015_baseline().warmup_config();
        let geo = IntervalGeometry {
            total_insts: 240_000,
            intervals: 12,
            detail_warm: 1_000,
            detail_measure: 2_000,
            seed: 2015,
            warm_insts: 4_000,
        };
        let base = sampled_warm_key("w", 7, &warm, &geo);
        // The key hashes its domain tag ahead of its inputs.
        let mut w = Writer::new();
        CACHE_VERSION.write(&mut w);
        u64::from(ltp_snapshot::FORMAT_VERSION).write(&mut w);
        w.byte(SAMPLED_WARM_DOMAIN);
        b"w".to_vec().write(&mut w);
        7u64.write(&mut w);
        warm.write(&mut w);
        for field in [240_000u64, 12, 1_000, 2_000, 2015, 4_000] {
            field.write(&mut w);
        }
        assert_eq!(base, fnv1a64(&w.into_bytes()), "key domain");
        assert_ne!(base, sampled_warm_key("x", 7, &warm, &geo), "workload");
        assert_ne!(base, sampled_warm_key("w", 8, &warm, &geo), "trace content");
        let mut geo2 = geo;
        geo2.intervals = 13;
        assert_ne!(base, sampled_warm_key("w", 7, &warm, &geo2), "geometry");
        let warm2 = PipelineConfig::limit_study_unlimited().warmup_config();
        assert_ne!(base, sampled_warm_key("w", 7, &warm2, &geo), "warm config");
    }
}
