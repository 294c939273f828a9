//! The composed L1D / L2 / L3 / DRAM hierarchy the pipeline issues memory
//! requests to.
//!
//! The hierarchy is a timing model: an access returns the cycle at which its
//! data is available, the level that served it, and the cycle at which the
//! *tag* outcome is known (used by LTP's early wakeup of Non-Ready
//! instructions, §3.2 of the paper: "we can take advantage of the phased L2
//! and L3 caches to get an early signal to wake up the dependent instruction
//! on a tag hit").

use crate::cache::{Cache, CacheStats};
use crate::config::MemoryConfig;
use crate::dram::DramModel;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetcher::StridePrefetcher;
use crate::{line_of, Cycle};
use ltp_isa::Pc;

/// Whether a request reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A committed store draining from the store queue.
    Store,
}

/// A memory request presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRequest {
    pc: Pc,
    addr: u64,
    kind: AccessKind,
}

impl MemoryRequest {
    /// Creates a request by instruction `pc` for byte address `addr`.
    #[must_use]
    pub fn new(pc: Pc, addr: u64, kind: AccessKind) -> MemoryRequest {
        MemoryRequest { pc, addr, kind }
    }

    /// Instruction that issued the request.
    #[must_use]
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Byte address accessed.
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Load or store.
    #[must_use]
    pub fn kind(&self) -> AccessKind {
        self.kind
    }
}

/// The level of the hierarchy that served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the unified L2.
    L2,
    /// Served by the shared L3 (the LLC).
    L3,
    /// Served by DRAM — an LLC miss, i.e. a *long-latency* access in the
    /// paper's terminology.
    Dram,
    /// Merged into an already outstanding miss for the same line.
    MshrMerge,
}

impl HitLevel {
    /// Whether this access is a long-latency (LLC-missing) access. These are
    /// the accesses whose ancestors the LTP classifier marks Urgent.
    #[must_use]
    pub fn is_llc_miss(self) -> bool {
        matches!(self, HitLevel::Dram)
    }
}

impl std::fmt::Display for HitLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HitLevel::L1 => "L1",
            HitLevel::L2 => "L2",
            HitLevel::L3 => "L3",
            HitLevel::Dram => "DRAM",
            HitLevel::MshrMerge => "MSHR",
        };
        f.write_str(s)
    }
}

/// Timing outcome of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the request was presented.
    pub request_cycle: Cycle,
    /// Cycle at which the request actually started probing beyond the L1
    /// (delayed past `request_cycle` only when the MSHR file was full).
    pub issue_cycle: Cycle,
    /// Cycle at which the data is available to dependent instructions.
    pub completion_cycle: Cycle,
    /// Cycle at which the serving level's tag outcome is known; always at or
    /// before `completion_cycle`. LTP uses this as the early wakeup signal.
    pub tag_known_cycle: Cycle,
    /// The level that served the access.
    pub level: HitLevel,
}

impl AccessResult {
    /// Load-to-use latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.completion_cycle - self.request_cycle
    }

    /// Whether the access missed the LLC (a long-latency access).
    #[must_use]
    pub fn is_llc_miss(&self) -> bool {
        self.level.is_llc_miss()
    }
}

/// Aggregate statistics of the whole hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryStats {
    /// Demand accesses presented to the hierarchy.
    pub accesses: u64,
    /// Accesses served by each level: `[L1, L2, L3, DRAM, MSHR-merge]`.
    pub served_by: [u64; 5],
    /// Sum of demand access latencies (for the average-latency criterion).
    pub total_latency: u64,
    /// Prefetch lines installed.
    pub prefetches_issued: u64,
}

impl MemoryStats {
    /// Average demand load-to-use latency in cycles.
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }

    /// Number of LLC misses (DRAM accesses).
    #[must_use]
    pub fn llc_misses(&self) -> u64 {
        self.served_by[3]
    }
}

/// The composed three-level cache hierarchy with MSHRs, an L2 stride
/// prefetcher and a DRAM model behind it.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: MemoryConfig,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    dram: DramModel,
    mshrs: MshrFile,
    prefetcher: StridePrefetcher,
    /// Reused per-access scratch for prefetch candidates (hot-path
    /// allocation avoidance).
    pf_scratch: Vec<u64>,
    stats: MemoryStats,
}

impl MemoryHierarchy {
    /// Builds an empty (cold) hierarchy.
    #[must_use]
    pub fn new(cfg: MemoryConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            dram: DramModel::new(cfg.dram),
            mshrs: MshrFile::new(cfg.mshrs),
            prefetcher: StridePrefetcher::new(cfg.prefetcher),
            pf_scratch: Vec::new(),
            stats: MemoryStats::default(),
            cfg,
        }
    }

    /// The configuration of this hierarchy.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }

    /// Per-level cache statistics `[L1D, L2, L3]`.
    #[must_use]
    pub fn cache_stats(&self) -> [CacheStats; 3] {
        [self.l1d.stats(), self.l2.stats(), self.l3.stats()]
    }

    /// Number of misses outstanding beyond the L1 at cycle `now` — the
    /// "number of outstanding memory requests" metric of Figure 1b.
    #[must_use]
    pub fn outstanding_misses(&self, now: Cycle) -> usize {
        self.mshrs.outstanding_at(now)
    }

    /// Completion cycles of the misses outstanding at `now`, ascending. The
    /// outstanding-miss count drops by one at each, so a caller can account
    /// a span of cycles without any new access in one step per completion.
    pub fn miss_completions_after(&self, now: Cycle) -> impl Iterator<Item = Cycle> + '_ {
        self.mshrs.completions_after(now)
    }

    /// Peak number of simultaneously outstanding misses observed.
    #[must_use]
    pub fn peak_outstanding(&self) -> usize {
        self.mshrs.peak_occupancy()
    }

    /// Typical DRAM latency, used to arm the LTP on/off timer (§5.2).
    #[must_use]
    pub fn typical_dram_latency(&self) -> u64 {
        self.cfg.dram.typical_total_latency()
    }

    /// Performs a *warming* access: updates cache contents without affecting
    /// timing statistics or the MSHR/DRAM state. Used for the cache-warming
    /// phase before detailed simulation (the paper warms caches for 250 M
    /// instructions before each simulation point).
    pub fn warm(&mut self, req: &MemoryRequest) {
        let _ = self.warm_observing(req);
    }

    /// The shared functional demand path of every warming mode: `None` on an
    /// L1 hit, otherwise `Some(missed_llc)` after the L2/L3 probes and fills.
    fn warm_demand(&mut self, addr: u64, is_write: bool) -> Option<bool> {
        if self.l1d.access(addr, is_write) {
            return None;
        }
        let mut missed_llc = false;
        if !self.l2.access(addr, false) {
            if !self.l3.access(addr, false) {
                missed_llc = true;
                self.l3.fill(addr, false, false);
            }
            self.l2.fill(addr, false, false);
        }
        self.l1d.fill(addr, false, is_write);
        Some(missed_llc)
    }

    /// Like [`MemoryHierarchy::warm`], but additionally reports whether the
    /// access functionally missed every cache level (it would have gone to
    /// DRAM). The functional fast-forward mode of sampled simulation feeds
    /// this outcome to the LTP classifier and on/off monitor, so UIT learning
    /// and monitor arming continue between detailed intervals. The cache
    /// operations are exactly those of `warm` (which delegates here).
    pub fn warm_observing(&mut self, req: &MemoryRequest) -> bool {
        self.warm_demand(req.addr, req.kind == AccessKind::Store)
            .unwrap_or(false)
    }

    /// Functional access with prefetcher modelling: like
    /// [`MemoryHierarchy::warm_observing`], but additionally trains the
    /// stride prefetcher on L1 misses and installs its prefetch lines into
    /// L2/L3, mirroring the detailed access path (minus all timing). The
    /// functional fast-forward mode of sampled simulation uses this so
    /// prefetch-friendly workloads keep their steady-state cache contents
    /// between detailed intervals; plain [`MemoryHierarchy::warm`] stays
    /// prefetcher-free because the established cache-warming recipe (and the
    /// golden fingerprints pinned on it) predates the prefetcher model.
    /// Statistics are untouched, like every warming path.
    pub fn warm_with_prefetch(&mut self, req: &MemoryRequest) -> bool {
        let addr = req.addr;
        let Some(missed_llc) = self.warm_demand(addr, req.kind == AccessKind::Store) else {
            return false; // L1 hit: the detailed path never trains on these either
        };
        let mut prefetch_lines = std::mem::take(&mut self.pf_scratch);
        prefetch_lines.clear();
        self.prefetcher
            .observe_into(req.pc, addr, &mut prefetch_lines);
        for &pf_line in &prefetch_lines {
            if !self.l3.probe(pf_line) {
                self.l3.fill(pf_line, true, false);
            }
            if !self.l2.probe(pf_line) {
                self.l2.fill(pf_line, true, false);
            }
        }
        self.pf_scratch = prefetch_lines;
        missed_llc
    }

    /// Batched [`MemoryHierarchy::warm_with_prefetch`]: processes a whole run
    /// of functional accesses in one call, pushing each access's
    /// `missed_llc` outcome (in order) into `outcomes`.
    ///
    /// The cache, prefetcher and fill operations are exactly those of the
    /// per-access path, in the same order, so the resulting hierarchy state
    /// is bit-identical; what the batch amortizes is the per-access overhead
    /// — cross-crate call dispatch and the prefetch-scratch take/put — which
    /// the decode-once functional interpreter of sampled simulation pays per
    /// *interval* instead of per instruction. The iterator is generic, so a
    /// caller replaying a pre-decoded event array never materialises
    /// `MemoryRequest` storage.
    pub fn warm_with_prefetch_batch<I>(&mut self, reqs: I, outcomes: &mut Vec<bool>)
    where
        I: IntoIterator<Item = MemoryRequest>,
    {
        let mut prefetch_lines = std::mem::take(&mut self.pf_scratch);
        for req in reqs {
            let is_write = req.kind == AccessKind::Store;
            let missed_llc = match self.warm_demand(req.addr, is_write) {
                // L1 hit: the detailed path never trains the prefetcher on
                // these either.
                None => false,
                Some(missed_llc) => {
                    prefetch_lines.clear();
                    self.prefetcher
                        .observe_into(req.pc, req.addr, &mut prefetch_lines);
                    for &pf_line in &prefetch_lines {
                        if !self.l3.probe(pf_line) {
                            self.l3.fill(pf_line, true, false);
                        }
                        if !self.l2.probe(pf_line) {
                            self.l2.fill(pf_line, true, false);
                        }
                    }
                    missed_llc
                }
            };
            outcomes.push(missed_llc);
        }
        self.pf_scratch = prefetch_lines;
    }

    /// Performs a demand access at cycle `now` and returns its timing.
    pub fn access(&mut self, now: Cycle, req: &MemoryRequest) -> AccessResult {
        let is_write = req.kind == AccessKind::Store;
        let addr = req.addr;
        let line = line_of(addr);
        self.stats.accesses += 1;

        let l1_latency = self.cfg.l1d.latency;

        // L1 hit: done — unless the line is still in flight (it was installed
        // by an earlier miss whose data has not returned yet), in which case
        // this access completes when that miss completes (MSHR merge).
        if self.l1d.access(addr, is_write) {
            if let MshrOutcome::Merged { completion_cycle } =
                self.mshrs.lookup_or_allocate_probe(line, now)
            {
                let completion = completion_cycle.max(now + l1_latency);
                self.stats.served_by[4] += 1;
                self.stats.total_latency += completion - now;
                return AccessResult {
                    request_cycle: now,
                    issue_cycle: now,
                    completion_cycle: completion,
                    tag_known_cycle: completion.saturating_sub(self.cfg.l2.tag_to_data),
                    level: HitLevel::MshrMerge,
                };
            }
            let completion = now + l1_latency;
            self.stats.served_by[0] += 1;
            self.stats.total_latency += completion - now;
            return AccessResult {
                request_cycle: now,
                issue_cycle: now,
                completion_cycle: completion,
                tag_known_cycle: completion,
                level: HitLevel::L1,
            };
        }

        // L1 miss: consult the MSHRs.
        let (issue_cycle, merged_completion) = match self.mshrs.lookup_or_allocate(line, now) {
            MshrOutcome::Merged { completion_cycle } => (now, Some(completion_cycle)),
            MshrOutcome::Allocated { issue_cycle } => (issue_cycle, None),
        };

        if let Some(completion) = merged_completion {
            let completion = completion.max(now + l1_latency);
            self.stats.served_by[4] += 1;
            self.stats.total_latency += completion - now;
            return AccessResult {
                request_cycle: now,
                issue_cycle: now,
                completion_cycle: completion,
                tag_known_cycle: completion.saturating_sub(self.cfg.l2.tag_to_data),
                level: HitLevel::MshrMerge,
            };
        }

        // Probe the L2 after the L1 lookup.
        let l2_start = issue_cycle + l1_latency;
        let mut prefetch_lines = std::mem::take(&mut self.pf_scratch);
        prefetch_lines.clear();
        self.prefetcher
            .observe_into(req.pc, addr, &mut prefetch_lines);

        let (completion, tag_known, level) = if self.l2.access(addr, false) {
            let done = l2_start + self.cfg.l2.latency;
            (done, done - self.cfg.l2.tag_to_data, HitLevel::L2)
        } else if self.l3.access(addr, false) {
            let done = l2_start + self.cfg.l3.latency;
            self.l2.fill(addr, false, false);
            (done, done - self.cfg.l3.tag_to_data, HitLevel::L3)
        } else {
            // LLC miss: go to DRAM after the L3 lookup.
            let dram_arrival = l2_start + self.cfg.l3.latency;
            let dram_done = self.dram.access(line, dram_arrival);
            self.l3.fill(addr, false, false);
            self.l2.fill(addr, false, false);
            // The DRAM controller gives early notice roughly a bus transfer
            // before the data reaches the core (§3.2: "Similar approaches can
            // be used with the DRAM controller").
            (dram_done, dram_done.saturating_sub(8), HitLevel::Dram)
        };

        // Fill the L1 (write-allocate).
        self.l1d.fill(addr, false, is_write);
        self.mshrs.record_completion(line, completion);

        // Install prefetches into L2/L3 (never the L1). Prefetch timing is
        // not modelled in detail: lines are simply resident for later demand
        // accesses, which is the first-order effect the paper relies on
        // ("prefetcher enabled, so applications with regular access patterns
        // are unlikely to be classified as MLP-sensitive").
        for &pf_line in &prefetch_lines {
            if !self.l3.probe(pf_line) {
                self.l3.fill(pf_line, true, false);
            }
            if !self.l2.probe(pf_line) {
                self.l2.fill(pf_line, true, false);
                self.stats.prefetches_issued += 1;
            }
        }
        self.pf_scratch = prefetch_lines;

        let idx = match level {
            HitLevel::L1 => 0,
            HitLevel::L2 => 1,
            HitLevel::L3 => 2,
            HitLevel::Dram => 3,
            HitLevel::MshrMerge => 4,
        };
        self.stats.served_by[idx] += 1;
        self.stats.total_latency += completion - now;

        AccessResult {
            request_cycle: now,
            issue_cycle,
            completion_cycle: completion,
            tag_known_cycle: tag_known,
            level,
        }
    }
}

/// Exported hierarchy state for the snapshot codec.
#[derive(Debug)]
pub(crate) struct HierarchySnap {
    pub(crate) cfg: MemoryConfig,
    pub(crate) l1d: Cache,
    pub(crate) l2: Cache,
    pub(crate) l3: Cache,
    pub(crate) dram: DramModel,
    pub(crate) mshrs: MshrFile,
    pub(crate) prefetcher: StridePrefetcher,
    pub(crate) stats: MemoryStats,
}

/// Borrowed view of the hierarchy for the snapshot *encoder*: cloning the
/// caches (thousands of per-set `Vec`s) on every encode dominated the cost
/// of journaling a snapshot per sampled interval.
pub(crate) struct HierarchySnapRef<'a> {
    pub(crate) cfg: &'a MemoryConfig,
    pub(crate) l1d: &'a Cache,
    pub(crate) l2: &'a Cache,
    pub(crate) l3: &'a Cache,
    pub(crate) dram: &'a DramModel,
    pub(crate) mshrs: &'a MshrFile,
    pub(crate) prefetcher: &'a StridePrefetcher,
    pub(crate) stats: &'a MemoryStats,
}

impl MemoryHierarchy {
    pub(crate) fn snap_parts_ref(&self) -> HierarchySnapRef<'_> {
        HierarchySnapRef {
            cfg: &self.cfg,
            l1d: &self.l1d,
            l2: &self.l2,
            l3: &self.l3,
            dram: &self.dram,
            mshrs: &self.mshrs,
            prefetcher: &self.prefetcher,
            stats: &self.stats,
        }
    }

    pub(crate) fn from_snap_parts(
        snap: HierarchySnap,
    ) -> Result<MemoryHierarchy, ltp_snapshot::SnapError> {
        Ok(MemoryHierarchy {
            cfg: snap.cfg,
            l1d: snap.l1d,
            l2: snap.l2,
            l3: snap.l3,
            dram: snap.dram,
            mshrs: snap.mshrs,
            prefetcher: snap.prefetcher,
            pf_scratch: Vec::new(),
            stats: snap.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(MemoryConfig::micro2015_baseline())
    }

    fn load(addr: u64) -> MemoryRequest {
        MemoryRequest::new(Pc(0x400), addr, AccessKind::Load)
    }

    #[test]
    fn cold_access_goes_to_dram() {
        let mut m = hierarchy();
        let r = m.access(0, &load(0x10_0000));
        assert_eq!(r.level, HitLevel::Dram);
        assert!(r.is_llc_miss());
        assert!(
            r.latency() > 100,
            "DRAM latency should exceed 100 cycles, got {}",
            r.latency()
        );
        assert!(r.tag_known_cycle < r.completion_cycle);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = hierarchy();
        let first = m.access(0, &load(0x10_0000));
        let second = m.access(first.completion_cycle + 1, &load(0x10_0008));
        assert_eq!(second.level, HitLevel::L1);
        assert_eq!(second.latency(), 4);
    }

    #[test]
    fn concurrent_same_line_misses_merge() {
        let mut m = hierarchy();
        let first = m.access(0, &load(0x20_0000));
        let second = m.access(2, &load(0x20_0010));
        assert_eq!(second.level, HitLevel::MshrMerge);
        assert_eq!(second.completion_cycle, first.completion_cycle);
    }

    #[test]
    fn warm_batch_matches_per_access_path() {
        let mut per_access = hierarchy();
        let mut batched = hierarchy();
        // A pattern with L1 hits, strided misses (prefetcher training) and
        // stores, so every branch of the batch loop is exercised.
        let reqs: Vec<MemoryRequest> = (0..600u64)
            .map(|i| {
                let kind = if i % 5 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let addr = match i % 3 {
                    0 => 0x60_0000 + (i / 3) * 64, // stride: trains prefetcher
                    1 => 0x70_0000 + (i * 8191) % 200_000,
                    _ => 0x60_0000, // repeated: L1 hit
                };
                MemoryRequest::new(Pc(0x400 + (i % 7) * 4), addr, kind)
            })
            .collect();

        let expected: Vec<bool> = reqs
            .iter()
            .map(|r| per_access.warm_with_prefetch(r))
            .collect();
        let mut outcomes = Vec::new();
        batched.warm_with_prefetch_batch(reqs.iter().copied(), &mut outcomes);
        assert_eq!(outcomes, expected);

        // The warmed state is identical: every subsequent demand access is
        // served by the same level in both hierarchies.
        for i in 0..200u64 {
            let req = load(0x60_0000 + i * 64);
            let a = per_access.access(i * 1000, &req);
            let b = batched.access(i * 1000, &req);
            assert_eq!(a.level, b.level, "divergence at probe {i}");
        }
    }

    #[test]
    fn warm_populates_caches_without_stats() {
        let mut m = hierarchy();
        m.warm(&load(0x30_0000));
        assert_eq!(m.stats().accesses, 0);
        let r = m.access(0, &load(0x30_0000));
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn l1_evicted_line_hits_in_l2() {
        let mut m = hierarchy();
        // Fill a cold line, then push it out of the 32 kB L1 by touching
        // enough lines mapping to the same set (L1 has 64 sets, 8 ways).
        let base = 0x100_0000u64;
        let mut now = 0;
        let r = m.access(now, &load(base));
        now = r.completion_cycle + 1;
        for i in 1..=8u64 {
            let conflict = base + i * 64 * 64; // same L1 set, different tags
            let r = m.access(now, &load(conflict));
            now = r.completion_cycle + 1;
        }
        let r = m.access(now, &load(base));
        assert!(
            matches!(r.level, HitLevel::L2 | HitLevel::L3),
            "expected an L2/L3 hit after L1 eviction, got {:?}",
            r.level
        );
    }

    #[test]
    fn streaming_access_benefits_from_prefetcher() {
        let mut with_pf = MemoryHierarchy::new(MemoryConfig::micro2015_baseline());
        let mut without_pf =
            MemoryHierarchy::new(MemoryConfig::micro2015_baseline().without_prefetcher());

        let run = |m: &mut MemoryHierarchy| -> u64 {
            let mut now = 0;
            let mut total = 0;
            for i in 0..256u64 {
                let r = m.access(
                    now,
                    &MemoryRequest::new(Pc(0x80), 0x200_0000 + i * 64, AccessKind::Load),
                );
                total += r.latency();
                now = r.completion_cycle + 1;
            }
            total
        };

        let t_pf = run(&mut with_pf);
        let t_nopf = run(&mut without_pf);
        assert!(
            t_pf < t_nopf,
            "prefetcher should reduce total latency ({t_pf} vs {t_nopf})"
        );
    }

    #[test]
    fn stores_mark_lines_dirty_and_writeback() {
        let mut m = hierarchy();
        let st = MemoryRequest::new(Pc(0x44), 0x40_0000, AccessKind::Store);
        let r = m.access(0, &st);
        assert!(matches!(r.level, HitLevel::Dram));
        // Evict the dirty line by filling the same L1 set.
        let mut now = r.completion_cycle + 1;
        for i in 1..=8u64 {
            let conflict = MemoryRequest::new(Pc(0x44), 0x40_0000 + i * 64 * 64, AccessKind::Load);
            let r = m.access(now, &conflict);
            now = r.completion_cycle + 1;
        }
        assert!(m.cache_stats()[0].writebacks >= 1);
    }

    #[test]
    fn average_latency_reflects_hits_and_misses() {
        let mut m = hierarchy();
        let a = m.access(0, &load(0x50_0000));
        let _b = m.access(a.completion_cycle + 1, &load(0x50_0000));
        let avg = m.stats().avg_latency();
        assert!(avg > 4.0 && avg < a.latency() as f64);
        assert_eq!(m.stats().llc_misses(), 1);
    }

    #[test]
    fn outstanding_misses_tracked() {
        let mut m = MemoryHierarchy::new(MemoryConfig::limit_study());
        for i in 0..8u64 {
            let _ = m.access(0, &load(0x300_0000 + i * 4096));
        }
        assert!(m.outstanding_misses(1) >= 8);
        assert!(m.peak_outstanding() >= 8);
        assert_eq!(m.outstanding_misses(1_000_000), 0);
    }

    #[test]
    fn tag_known_before_completion_for_l3_hits() {
        let mut m = hierarchy();
        // Put a line in L3 only: access once (goes to DRAM, fills L2+L3+L1),
        // then evict from L1 and L2 by conflict misses... simpler: warm L3 via
        // a fresh hierarchy where we manually access and then re-create L1/L2
        // pressure. Use a direct approach: first access fills all levels, then
        // thrash L1 and L2 sets with >8 conflicting lines.
        let base = 0x800_0000u64;
        let mut now = 0;
        let r = m.access(now, &load(base));
        now = r.completion_cycle + 1;
        for i in 1..=512u64 {
            let r = m.access(now, &load(base + i * 64 * 512)); // same L2 set
            now = r.completion_cycle + 1;
        }
        let r = m.access(now, &load(base));
        if r.level == HitLevel::L3 {
            assert!(r.tag_known_cycle < r.completion_cycle);
        }
    }
}
