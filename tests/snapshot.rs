//! Checkpoint/restore regression tests.
//!
//! The contract under test: capturing a [`Snapshot`] mid-run, serializing it
//! through the versioned binary codec, restoring it in a fresh process-like
//! context and finishing the run is **bit-for-bit** identical to never having
//! stopped. The uninterrupted runs used as references here are themselves
//! pinned by `tests/golden_stats.rs` (24 golden fingerprints), so these tests
//! transitively pin checkpoint/restore to the seed simulator's behaviour.

use ltp_core::{ClassifierKind, LtpConfig, LtpMode};
use ltp_experiments::runner::{limit_study_config, RunOptions};
use ltp_experiments::SimBuilder;
use ltp_pipeline::{PipelineConfig, RunResult, Snapshot};
use ltp_workloads::{replay_slice, WorkloadKind};
use proptest::prelude::*;

// A guard against OOM-scale allocations while decoding hostile snapshot
// bytes: the tracking allocator records the largest single allocation
// request ever made by this test binary. The counting shim needs `unsafe
// impl GlobalAlloc`; the workspace otherwise denies unsafe code, so the
// exemption is scoped to this module (same pattern as
// `tests/hot_loop_alloc.rs`).
#[allow(unsafe_code)]
mod peak_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Largest single allocation request seen so far, in bytes.
    pub static PEAK_REQUEST: AtomicUsize = AtomicUsize::new(0);

    fn record(size: usize) {
        PEAK_REQUEST.fetch_max(size, Ordering::Relaxed);
    }

    pub struct PeakAlloc;

    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }
    }
}

#[global_allocator]
static ALLOCATOR: peak_alloc::PeakAlloc = peak_alloc::PeakAlloc;

/// The golden-run options (`tests/golden_stats.rs`).
fn opts() -> RunOptions {
    RunOptions {
        detail_insts: 6_000,
        warm_insts: 4_000,
        seed: 2015,
    }
}

/// The full stable fingerprint of a run (superset of the golden-stats one:
/// adds memory and branch statistics so divergence anywhere shows up).
fn fingerprint(r: &RunResult) -> String {
    format!(
        "cycles={} insts={} parked={} rel_io={} rel_ooo={} forced={} iqw={} iqi={} rfr={} rfw={} \
         llc={} loads={} stores={} mem_acc={} mem_lat={} bmr={:.9} ltp_occ={:.6} ltp_peak={} \
         iq_occ={:.6} regs_occ={:.6} rob_occ={:.6} out_occ={:.6}",
        r.cycles,
        r.instructions,
        r.ltp.total_parked(),
        r.ltp.released_in_order,
        r.ltp.released_out_of_order,
        r.ltp.force_released,
        r.activity.iq_writes,
        r.activity.iq_issues,
        r.activity.rf_reads,
        r.activity.rf_writes,
        r.llc_miss_loads,
        r.loads,
        r.stores,
        r.mem.accesses,
        r.mem.total_latency,
        r.branch_mispredict_rate,
        r.occupancy.ltp.mean(),
        r.occupancy.ltp.peak(),
        r.occupancy.iq.mean(),
        r.occupancy.regs.mean(),
        r.occupancy.rob.mean(),
        r.occupancy.outstanding_misses.mean(),
    )
}

/// The realistic (UIT-classified) machine of the golden suite.
fn realistic(mode: LtpMode) -> PipelineConfig {
    match mode {
        LtpMode::Off => PipelineConfig::small_no_ltp(),
        m => {
            let ltp = LtpConfig {
                mode: m,
                ..LtpConfig::nu_only_128x4()
            };
            PipelineConfig::ltp_proposed().with_ltp(ltp)
        }
    }
}

/// Runs one golden point uninterrupted, then again with a mid-run
/// checkpoint → serialize → deserialize → resume, and asserts identical
/// fingerprints.
fn assert_restore_equivalent(kind: WorkloadKind, cfg: PipelineConfig, checkpoint_at: u64) {
    let o = opts();
    let builder = SimBuilder::new(cfg, kind).options(&o);
    let detail = builder.detail_trace();

    let full = builder.run_on(&detail).expect("uninterrupted run");

    let mut cpu = builder.build();
    let snap = cpu
        .run_to_snapshot(replay_slice(kind.name(), &detail), checkpoint_at)
        .expect("checkpoint");
    drop(cpu); // the rest of the run uses only the serialized state

    let bytes = snap.to_bytes();
    let restored = Snapshot::from_bytes(&bytes).expect("decode");
    assert_eq!(restored.to_bytes(), bytes, "canonical snapshot bytes");
    let resumed = restored
        .resume()
        .run(replay_slice(kind.name(), &detail), o.detail_insts)
        .expect("resumed run");

    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&full),
        "restore diverged: {} checkpoint@{checkpoint_at}",
        kind.name()
    );
}

#[test]
fn restore_is_bit_for_bit_on_the_uit_path() {
    for mode in [LtpMode::Off, LtpMode::NonUrgentOnly, LtpMode::Both] {
        for kind in [WorkloadKind::IndirectStream, WorkloadKind::GatherFp] {
            assert_restore_equivalent(kind, realistic(mode), 3_000);
        }
    }
}

#[test]
fn restore_is_bit_for_bit_on_the_oracle_path() {
    // Oracle classifier state (the analysed per-seq classes) rides inside
    // the snapshot, so the resumed run needs no re-attachment.
    for mode in [LtpMode::NonUrgentOnly, LtpMode::Both] {
        assert_restore_equivalent(
            WorkloadKind::MixedPhases,
            limit_study_config(mode).with_iq(32),
            2_500,
        );
    }
}

#[test]
fn restore_is_bit_for_bit_for_sweep_classifiers() {
    // Random classifier: the xorshift stream position must resume exactly.
    let cfg = PipelineConfig::ltp_proposed().with_classifier(ClassifierKind::Random {
        non_urgent_percent: 50,
        seed: 0x5eed,
    });
    assert_restore_equivalent(WorkloadKind::HashProbe, cfg, 1_777);
}

#[test]
fn checkpoint_near_the_end_still_matches() {
    // A checkpoint in the drain phase (past most of the trace).
    assert_restore_equivalent(
        WorkloadKind::IndirectStream,
        realistic(LtpMode::NonUrgentOnly),
        5_900,
    );
}

/// The measured window survives a checkpoint. With a pipeline warm-up of
/// 2,000 instructions, a snapshot taken before the boundary carries no
/// window start and the resumed run opens it on crossing; one taken on or
/// after it carries the `(cycle, committed)` where the uninterrupted run
/// opened it. Checkpoints well before, one short of, at, one past and well
/// past the boundary all resume to the uninterrupted fingerprint.
#[test]
fn restore_keeps_the_warmup_window() {
    let cfg = realistic(LtpMode::Both).with_warmup(2_000);
    for kind in [WorkloadKind::IndirectStream, WorkloadKind::MixedPhases] {
        for checkpoint_at in [1_000, 1_999, 2_000, 2_001, 3_500] {
            assert_restore_equivalent(kind, cfg, checkpoint_at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Round-trip property over real machine states: a checkpoint taken at a
    /// random commit count of a random golden workload/mode encodes
    /// canonically (encode ∘ decode ∘ encode = encode) and resumes to the
    /// uninterrupted run's fingerprint.
    #[test]
    fn snapshot_roundtrip_at_random_checkpoints(
        raw_point in 0u64..4_000,
        mode_idx in 0usize..3,
        kind_idx in 0usize..3,
    ) {
        let mode = [LtpMode::Off, LtpMode::NonUrgentOnly, LtpMode::Both][mode_idx];
        let kind = [
            WorkloadKind::IndirectStream,
            WorkloadKind::MixedPhases,
            WorkloadKind::GatherFp,
        ][kind_idx];
        // Keep the proptest cases cheap: short runs, early checkpoints.
        let o = RunOptions {
            detail_insts: 4_500,
            warm_insts: 1_000,
            seed: 2015,
        };
        let builder = SimBuilder::new(realistic(mode), kind).options(&o);
        let detail = builder.detail_trace();
        let full = builder.run_on(&detail).expect("uninterrupted run");

        let mut cpu = builder.build();
        let snap = cpu
            .run_to_snapshot(replay_slice(kind.name(), &detail), 500 + raw_point)
            .expect("checkpoint");
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(decoded.to_bytes(), bytes, "non-canonical bytes");
        let resumed = decoded
            .resume()
            .run(replay_slice(kind.name(), &detail), o.detail_insts)
            .expect("resumed run");
        prop_assert_eq!(fingerprint(&resumed), fingerprint(&full));
    }
}

/// One valid encoded snapshot, captured once and shared by every mutation
/// case (capturing it is the expensive part).
fn valid_snapshot_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let o = RunOptions {
            detail_insts: 4_500,
            warm_insts: 1_000,
            seed: 2015,
        };
        let builder =
            SimBuilder::new(realistic(LtpMode::Both), WorkloadKind::IndirectStream).options(&o);
        let detail = builder.detail_trace();
        let mut cpu = builder.build();
        cpu.run_to_snapshot(replay_slice("indirect_stream", &detail), 2_000)
            .expect("checkpoint")
            .to_bytes()
    })
}

/// Decoding hostile bytes must fail *gracefully*: a typed error (or, for
/// mutations the checksums cannot distinguish from valid data, a decoded
/// snapshot) — never a panic, and never an allocation sized by attacker-
/// controlled length fields. The 64 MiB ceiling is ~300× a real encoding,
/// far below what a length-lying varint (terabytes) would request, and
/// comfortably above every legitimate allocation this test binary makes.
const ALLOC_CEILING: usize = 64 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single byte overwritten anywhere in a valid encoding (covers header,
    /// length prefixes, payload and checksum bytes).
    #[test]
    fn mutated_snapshot_bytes_never_panic_or_overallocate(
        pos_seed in 0usize..1 << 30,
        byte in 0u32..256,
    ) {
        let mut bytes = valid_snapshot_bytes().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] = byte as u8;
        let _ = Snapshot::from_bytes(&bytes);
        prop_assert!(
            peak_alloc::PEAK_REQUEST.load(std::sync::atomic::Ordering::Relaxed) < ALLOC_CEILING,
            "an allocation crossed the {ALLOC_CEILING}-byte ceiling"
        );
    }

    /// Truncation to an arbitrary prefix (a torn write): every cut point
    /// must produce a typed error, not a panic or an overallocation.
    #[test]
    fn truncated_snapshot_bytes_never_panic_or_overallocate(len_seed in 0usize..1 << 30) {
        let bytes = valid_snapshot_bytes();
        let len = len_seed % bytes.len();
        prop_assert!(Snapshot::from_bytes(&bytes[..len]).is_err(), "truncated decode succeeded");
        prop_assert!(
            peak_alloc::PEAK_REQUEST.load(std::sync::atomic::Ordering::Relaxed) < ALLOC_CEILING,
            "an allocation crossed the {ALLOC_CEILING}-byte ceiling"
        );
    }

    /// A burst of 0xFF bytes spliced over the encoding — the worst case for
    /// LEB128 length fields, which this turns into huge claimed lengths.
    #[test]
    fn length_lying_snapshot_bytes_never_panic_or_overallocate(
        pos_seed in 0usize..1 << 30,
        burst in 1usize..16,
    ) {
        let mut bytes = valid_snapshot_bytes().to_vec();
        let pos = pos_seed % bytes.len();
        let end = (pos + burst).min(bytes.len());
        bytes[pos..end].fill(0xFF);
        let _ = Snapshot::from_bytes(&bytes);
        prop_assert!(
            peak_alloc::PEAK_REQUEST.load(std::sync::atomic::Ordering::Relaxed) < ALLOC_CEILING,
            "an allocation crossed the {ALLOC_CEILING}-byte ceiling"
        );
    }
}
