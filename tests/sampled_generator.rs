//! A sampled request without a caller-supplied trace replays its intervals
//! straight from the workload generator (seeking each one to its
//! checkpoint) and keys the checkpoint cache by the streamed trace
//! identity. This differential test pins that path to the slice path:
//! every kernel × {baseline, proposed LTP, oracle IQ 32} gives the same
//! per-interval `(index, start, instructions, cycles)` with and without
//! `.trace(..)`, on the cold path and on the cache-hit path, and the two
//! sources hit each other's cache entries.

use ltp_core::LtpMode;
use ltp_experiments::cache::{sampled_warm_key, IntervalGeometry, CACHE_VERSION};
use ltp_experiments::runner::limit_study_config;
use ltp_experiments::sampled::{SampleSpec, SampledRequest, SampledResult};
use ltp_experiments::CheckpointCache;
use ltp_isa::trace_fingerprint;
use ltp_pipeline::PipelineConfig;
use ltp_workloads::{trace, trace_identity, WorkloadKind};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Spaced intervals, and back-to-back ones whose last window ends exactly
/// at the end of the trace (where the front end's fetch-ahead must see the
/// generator end just as a slice would).
fn specs() -> [SampleSpec; 2] {
    let spaced = SampleSpec {
        total_insts: 18_000,
        intervals: 3,
        detail_warm: 300,
        detail_measure: 1_200,
        seed: 2015,
        warm_insts: 1_000,
    };
    let tight = SampleSpec {
        total_insts: 4_500,
        ..spaced
    };
    [spaced, tight]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ltp-sampled-generator-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Per interval: `(index, start, instructions, cycles)`.
type Windows = Vec<(usize, u64, u64, u64)>;

fn windows(r: &SampledResult) -> Windows {
    assert!(r.failures.is_empty(), "{}: lost intervals", r.workload);
    r.intervals
        .iter()
        .map(|m| (m.index, m.start, m.instructions, m.cycles))
        .collect()
}

/// Runs `req` against `cache` and returns its windows, asserting whether
/// the lookup hit.
fn cached(req: SampledRequest<'_>, cache: &Arc<CheckpointCache>, hit: bool) -> Windows {
    let before = cache.stats();
    let r = req.cache(Arc::clone(cache)).run().expect("sampled run");
    let after = cache.stats();
    assert_eq!(after.hits - before.hits, u64::from(hit), "{}", r.workload);
    assert_eq!(
        after.misses - before.misses,
        u64::from(!hit),
        "{}",
        r.workload
    );
    windows(&r)
}

#[test]
fn generator_source_matches_slice_source_cold_and_warm() {
    let configs = [
        ("baseline", PipelineConfig::micro2015_baseline()),
        ("ltp_proposed", PipelineConfig::ltp_proposed()),
        ("oracle_iq32", limit_study_config(LtpMode::Both).with_iq(32)),
    ];
    for (kind, spec) in WorkloadKind::ALL
        .into_iter()
        .flat_map(|k| specs().map(|s| (k, s)))
    {
        let detail = trace(kind, spec.seed + 1, spec.total_insts as usize);
        for (label, cfg) in configs {
            let what = format!("{kind}/{label}/{}", spec.total_insts);
            let slice = || SampledRequest::new(cfg, kind, spec).trace(&detail);
            let generator = || SampledRequest::new(cfg, kind, spec);
            let reference = windows(&slice().run().expect("slice run"));
            assert_eq!(reference.len(), spec.intervals, "{what}");

            // Cold: nothing cached, the functional pass decodes the source.
            let cold = windows(&generator().run().expect("generator run"));
            assert_eq!(cold, reference, "{what}: generator cold path");

            // Warm: a generator run fills the cache, then each source hits
            // it (the streamed identity keys the same entry as the
            // fingerprint of the collected trace).
            let dir = tmp_dir(&format!("{kind}-{label}-{}", spec.total_insts));
            let cache = Arc::new(CheckpointCache::open(&dir).expect("open cache"));
            let filled = cached(generator(), &cache, false);
            assert_eq!(filled, reference, "{what}: generator filling the cache");
            let warm = cached(generator(), &cache, true);
            assert_eq!(warm, reference, "{what}: generator cache-hit path");
            let slice_warm = cached(slice(), &cache, true);
            assert_eq!(
                slice_warm, reference,
                "{what}: slice hit on a generator entry"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

fn geometry(total_insts: u64, intervals: u64) -> IntervalGeometry {
    IntervalGeometry {
        total_insts,
        intervals,
        detail_warm: 1_000,
        detail_measure: 4_000,
        seed: 2015,
        warm_insts: 4_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A generator-sourced request keys its cache entry by the streamed
    /// identity, a slice-sourced one by the fingerprint of its trace; for
    /// any trace and geometry the two keys are one key. Keys follow content,
    /// not seeds: another seed shares the key exactly when it generates the
    /// same trace (the compute and stencil kernels ignore their seed).
    #[test]
    fn generator_and_slice_sources_derive_one_key(
        kind_sel in 0usize..7,
        seed in 0u64..10_000,
        n in 1usize..4_000,
        intervals in 1u64..12,
    ) {
        let kind = WorkloadKind::ALL[kind_sel];
        let warm = PipelineConfig::ltp_proposed().warmup_config();
        let geo = geometry(n as u64, intervals);
        let key = |id| sampled_warm_key(kind.name(), id, &warm, &geo);
        let streamed = key(trace_identity(kind, seed, n));
        prop_assert_eq!(streamed, key(trace_fingerprint(&trace(kind, seed, n))));
        prop_assert_eq!(
            streamed == key(trace_identity(kind, seed + 1, n)),
            trace(kind, seed, n) == trace(kind, seed + 1, n)
        );
        prop_assert_ne!(streamed, key(trace_identity(kind, seed, n + 1)));
    }
}

/// The key derivation of cache format version 2, pinned: entries written
/// under version 1 (byte-wise FNV trace hash) can never be looked up, and a
/// later change to the derivation must bump the version and this pin.
#[test]
fn cache_key_derivation_is_pinned_at_version_2() {
    assert_eq!(CACHE_VERSION, 2);
    let warm = PipelineConfig::micro2015_baseline().warmup_config();
    let id = trace_identity(WorkloadKind::IndirectStream, 2016, 96_000);
    assert_eq!(
        sampled_warm_key("indirect_stream", id, &warm, &geometry(96_000, 6)),
        0x7bc4_58a5_1009_8ac1
    );
}
