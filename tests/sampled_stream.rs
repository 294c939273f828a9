//! Cross-crate tests for the streaming sampled-simulation pipeline.
//!
//! Two properties anchor the decode-once / streaming rewrite:
//!
//! 1. **Byte-identity of the functional interpreter**: advancing the
//!    functional machine through a pre-decoded trace
//!    ([`FunctionalFastForward::advance_on`]) must produce checkpoints that
//!    are byte-for-byte identical to the per-instruction reference
//!    ([`FunctionalFastForward::feed_all`]) at every interval boundary, on a
//!    real workload trace and across configurations.
//! 2. **Schedule-independence of the sampled runner**: the streaming
//!    producer/consumer runner and the two-phase checkpoint-all-then-
//!    simulate-all reference must report identical per-interval
//!    measurements over arbitrary (and deliberately awkward) interval
//!    splits — lengths not divisible by the interval count, intervals
//!    shorter than the requested warm+measure window, single-interval
//!    traces.

use ltp_experiments::sampled::{SampleSpec, SampledRequest};
use ltp_isa::DecodedTrace;
use ltp_pipeline::{FunctionalFastForward, PipelineConfig};
use ltp_workloads::{trace, WorkloadKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The decoded interpreter's checkpoints are byte-identical to the
/// per-instruction reference on every bundled workload kind, with uneven
/// advance chunks.
#[test]
fn decoded_checkpoints_byte_identical_across_workloads() {
    for kind in WorkloadKind::ALL {
        let detail = trace(kind, 2016, 30_000);
        let dec = DecodedTrace::from_insts(&detail);
        let cfg = PipelineConfig::ltp_proposed();

        let mut reference = FunctionalFastForward::new(cfg);
        let mut decoded = FunctionalFastForward::new(cfg);
        let mut pos = 0usize;
        for target in [1usize, 2_500, 11_111, 29_999, 30_000] {
            reference.feed_all(&detail[pos..target]);
            decoded.advance_on(&dec, target as u64);
            pos = target;
            let r = reference.checkpoint().expect("reference checkpoint");
            let d = decoded.checkpoint().expect("decoded checkpoint");
            assert_eq!(
                r.to_bytes(),
                d.to_bytes(),
                "{}: checkpoint diverged at instruction {target}",
                kind.name()
            );
        }
        assert_eq!(reference.take_llc_misses(), decoded.take_llc_misses());
    }
}

/// Same property across the machine-configuration dimension (cache geometry,
/// LTP mode and classifier all live inside the checkpoint).
#[test]
fn decoded_checkpoints_byte_identical_across_configs() {
    let kind = WorkloadKind::MixedPhases;
    let detail = trace(kind, 99, 20_000);
    let dec = DecodedTrace::from_insts(&detail);
    for cfg in [
        PipelineConfig::micro2015_baseline(),
        PipelineConfig::small_no_ltp(),
        PipelineConfig::ltp_proposed(),
        PipelineConfig::limit_study_unlimited().with_iq(32),
    ] {
        let mut reference = FunctionalFastForward::new(cfg);
        let mut decoded = FunctionalFastForward::new(cfg);
        reference.feed_all(&detail);
        decoded.advance_on(&dec, dec.len());
        assert_eq!(
            reference.checkpoint().expect("ref").to_bytes(),
            decoded.checkpoint().expect("dec").to_bytes()
        );
    }
}

fn assert_same_sampled_results(
    total_insts: u64,
    intervals: usize,
    detail_warm: u64,
    detail_measure: u64,
) -> Result<(), TestCaseError> {
    let spec = SampleSpec {
        total_insts,
        intervals,
        detail_warm,
        detail_measure,
        seed: 2015,
        warm_insts: 1_000,
    };
    let kind = WorkloadKind::IndirectStream;
    let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
    let cfg = PipelineConfig::ltp_proposed();
    let streamed = SampledRequest::new(cfg, kind, spec)
        .trace(&detail)
        .run()
        .expect("streamed runner");
    let two_phase = SampledRequest::new(cfg, kind, spec)
        .trace(&detail)
        .two_phase()
        .run()
        .expect("two-phase runner");

    prop_assert_eq!(streamed.intervals.len(), two_phase.intervals.len());
    for (s, t) in streamed.intervals.iter().zip(&two_phase.intervals) {
        prop_assert_eq!(s.index, t.index);
        prop_assert_eq!(s.start, t.start);
        prop_assert_eq!(s.instructions, t.instructions, "interval {}", s.index);
        prop_assert_eq!(s.cycles, t.cycles, "interval {}", s.index);
        prop_assert_eq!(s.ipc.to_bits(), t.ipc.to_bits(), "interval {}", s.index);
        prop_assert_eq!(s.weight, t.weight, "interval {}", s.index);
    }
    prop_assert_eq!(streamed.ipc.mean.to_bits(), two_phase.ipc.mean.to_bits());
    prop_assert_eq!(
        streamed.ipc.half_width.to_bits(),
        two_phase.ipc.half_width.to_bits()
    );
    prop_assert_eq!(streamed.detailed_insts, two_phase.detailed_insts);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streaming and two-phase runners agree over arbitrary interval splits:
    /// trace lengths that do not divide by the interval count, strides
    /// shorter than the requested warm+measure window (clamped), and any
    /// interval count from one upward.
    #[test]
    fn streaming_matches_two_phase_over_interval_splits(
        total in 6_000u64..40_000,
        intervals in 1usize..10,
        warm in 0u64..3_000,
        measure in 1u64..4_000,
    ) {
        assert_same_sampled_results(total, intervals, warm, measure)?;
    }
}

/// The named edge cases, pinned deterministically (the proptest above may or
/// may not generate them in any given run).
#[test]
fn streaming_matches_two_phase_on_edge_splits() {
    // Length not divisible by the interval count.
    assert_same_sampled_results(10_007, 7, 200, 400).expect("indivisible split");
    // Intervals shorter than warm + measure (window clamps).
    assert_same_sampled_results(6_000, 6, 5_000, 5_000).expect("clamped window");
    // Single-interval trace (single IPC sample, zero-width CI).
    assert_same_sampled_results(8_000, 1, 500, 1_000).expect("single interval");
}
