//! Fault-injection tests for the fault-tolerant sampled runner.
//!
//! Every failure path the fault-tolerance layer claims to cover is driven on
//! purpose here with a deterministic [`FaultPlan`]:
//!
//! - a panicking worker attempt is isolated and retried, losing at most that
//!   one attempt, and the recovered run aggregates **bit-identically** to a
//!   fault-free one;
//! - a deadline-busting attempt is retried the same way;
//! - exhausted retries degrade the run to a clearly flagged *partial* result
//!   with a widened confidence interval instead of failing it;
//! - a deterministic simulation error (a detected deadlock) is **not**
//!   retried and surfaces as an [`IntervalFailure`] carrying the
//!   [`DeadlockSnapshot`] diagnostics;
//! - a journaled run that dies mid-way resumes from the journal and
//!   reproduces the uninterrupted result exactly, including when the journal
//!   tail was corrupted or truncated by the crash.
//!
//! The simulator is deterministic, so "recovered correctly" is assertable as
//! bit-for-bit equality of every per-interval measurement and of the
//! aggregate confidence interval.

use ltp_experiments::fault::FaultPlan;
use ltp_experiments::parallel::{FailureKind, RetryPolicy};
use ltp_experiments::sampled::{
    IntervalError, SampleControl, SampleSpec, SampledRequest, SampledResult,
};
use ltp_experiments::{journal, Experiment, ExperimentCtx};
use ltp_isa::{DecodedTrace, DynInst};
use ltp_pipeline::{PipelineConfig, RunError};
use ltp_workloads::{trace, WorkloadKind};
use std::path::PathBuf;
use std::time::Duration;

/// A cheap but multi-interval spec (the suite runs a dozen sampled runs).
fn spec() -> SampleSpec {
    SampleSpec {
        total_insts: 24_000,
        intervals: 4,
        detail_warm: 500,
        detail_measure: 1_000,
        seed: 7,
        warm_insts: 2_000,
    }
}

fn workload() -> (WorkloadKind, Vec<DynInst>, DecodedTrace) {
    let kind = WorkloadKind::IndirectStream;
    let detail = trace(
        kind,
        spec().seed.wrapping_add(1),
        spec().total_insts as usize,
    );
    let dec = DecodedTrace::from_insts(&detail);
    (kind, detail, dec)
}

/// Runs the sampled runner over the shared workload with `control`.
fn run_controlled(control: &SampleControl) -> SampledResult {
    let (kind, detail, dec) = workload();
    SampledRequest::new(PipelineConfig::ltp_proposed(), kind, spec())
        .trace(&detail)
        .decoded(&dec)
        .control(control.clone())
        .run()
        .expect("whole-run failure")
}

/// The fault-free reference result every recovery scenario must reproduce.
fn reference() -> SampledResult {
    run_controlled(&SampleControl::default())
}

/// Retry policy used by the recovery tests: generous attempts, no backoff
/// (keeps the suite fast), no deadline.
fn retrying() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::ZERO,
        deadline: None,
    }
}

/// Asserts two sampled results carry bit-identical measurements and
/// aggregates (timing is wall-clock and legitimately differs).
fn assert_bit_identical(a: &SampledResult, b: &SampledResult, what: &str) {
    assert_eq!(
        a.intervals.len(),
        b.intervals.len(),
        "{what}: interval count"
    );
    for (x, y) in a.intervals.iter().zip(&b.intervals) {
        assert_eq!(x.index, y.index, "{what}");
        assert_eq!(x.start, y.start, "{what} interval {}", x.index);
        assert_eq!(
            x.instructions, y.instructions,
            "{what} interval {}",
            x.index
        );
        assert_eq!(x.cycles, y.cycles, "{what} interval {}", x.index);
        assert_eq!(x.weight, y.weight, "{what} interval {}", x.index);
        assert_eq!(
            x.ipc.to_bits(),
            y.ipc.to_bits(),
            "{what} interval {}",
            x.index
        );
    }
    assert_eq!(a.ipc.mean.to_bits(), b.ipc.mean.to_bits(), "{what}: mean");
    assert_eq!(
        a.ipc.half_width.to_bits(),
        b.ipc.half_width.to_bits(),
        "{what}: CI half-width"
    );
    assert_eq!(a.ipc.n, b.ipc.n, "{what}: sample count");
    assert_eq!(a.detailed_insts, b.detailed_insts, "{what}: detailed insts");
    assert_eq!(
        a.checkpoint_bytes, b.checkpoint_bytes,
        "{what}: checkpoint bytes"
    );
}

/// A unique scratch journal path per test (the suite runs tests in
/// parallel within one process).
fn scratch_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ltp_fault_{}_{tag}.journal", std::process::id()))
}

#[test]
fn injected_panic_is_isolated_and_retried() {
    // Kill attempt 0 of one interval: the worker's panic must not tear down
    // the scope, must cost exactly that one attempt, and the retried run
    // must match the fault-free reference bit for bit.
    let r = run_controlled(&SampleControl {
        retry: RetryPolicy {
            max_attempts: 2,
            ..retrying()
        },
        faults: FaultPlan::new().panic_at(2, 0),
        ..SampleControl::default()
    });
    assert!(!r.is_partial(), "one panic within budget must recover");
    assert_bit_identical(&r, &reference(), "panic-retried run");
}

#[test]
fn all_but_one_interval_panicking_still_recovers_bit_identically() {
    // N-1 of the N intervals lose their first attempt; with one retry each
    // the run still completes and aggregates identically to fault-free.
    let mut plan = FaultPlan::new();
    for i in 1..spec().intervals {
        plan = plan.panic_at(i, 0);
    }
    let r = run_controlled(&SampleControl {
        retry: retrying(),
        faults: plan,
        ..SampleControl::default()
    });
    assert!(!r.is_partial());
    assert_bit_identical(&r, &reference(), "N-1 panics");
}

#[test]
fn deadline_overrun_is_retried() {
    // Attempt 0 of interval 1 is delayed well past the per-attempt deadline;
    // the overrun attempt is discarded and the retry (which is not delayed)
    // succeeds with the same deterministic measurement. Injected delays run
    // on an injected clock, so the outcome does not depend on host speed.
    let r = run_controlled(&SampleControl {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            deadline: Some(Duration::from_millis(40)),
        },
        faults: FaultPlan::new().delay_at(1, 0, 250),
        ..SampleControl::default()
    });
    assert!(
        !r.is_partial(),
        "deadline overrun within budget must recover"
    );
    assert_bit_identical(&r, &reference(), "deadline-retried run");
}

#[test]
fn exhausted_retries_degrade_to_partial_with_widened_ci() {
    // Interval 2 dies on every allowed attempt: the run must degrade to a
    // flagged partial result — remaining intervals intact, the lost one
    // accounted for, and the CI widened exactly per the stats contract.
    let reference = reference();
    let r = run_controlled(&SampleControl {
        retry: RetryPolicy {
            max_attempts: 2,
            ..retrying()
        },
        faults: FaultPlan::new().panic_at(2, 0).panic_at(2, 1),
        ..SampleControl::default()
    });
    assert!(r.is_partial());
    assert_eq!(r.failures.len(), 1);
    let f = &r.failures[0];
    assert_eq!(f.index, 2);
    assert_eq!(f.attempts, 2, "both allowed attempts were consumed");
    match &f.error {
        IntervalError::Task(t) => match &t.failure {
            FailureKind::Panic(msg) => {
                assert!(msg.contains("injected fault"), "panic message: {msg}")
            }
            other => panic!("expected a panic failure, got {other}"),
        },
        other => panic!("expected a task failure, got {other}"),
    }
    // The surviving intervals are the reference's, minus the lost one.
    let survivors: Vec<f64> = reference
        .intervals
        .iter()
        .filter(|m| m.index != 2)
        .map(|m| m.ipc)
        .collect();
    assert_eq!(r.intervals.len(), survivors.len());
    assert_eq!(r.ipc.n, survivors.len());
    let expected = ltp_stats::ConfidenceInterval::from_samples(&survivors).widened_for_missing(1);
    assert_eq!(r.ipc.mean.to_bits(), expected.mean.to_bits());
    assert_eq!(r.ipc.half_width.to_bits(), expected.half_width.to_bits());
    assert!(
        r.ipc.half_width > ltp_stats::ConfidenceInterval::from_samples(&survivors).half_width,
        "partial CI must be wider than the unweighted survivors' CI"
    );
}

#[test]
fn deadlock_surfaces_as_interval_failure_with_snapshot() {
    // A starved frontend never commits, so every interval's detailed run
    // trips the deadlock watchdog. Deterministic errors are not retried —
    // each interval fails once, carrying the machine-state diagnostics —
    // and the runner degrades instead of hanging or aborting.
    let (kind, detail, dec) = workload();
    let mut cfg = PipelineConfig::ltp_proposed();
    cfg.frontend_delay = 10_000_000;
    let r = SampledRequest::new(cfg, kind, spec())
        .trace(&detail)
        .decoded(&dec)
        .control(SampleControl {
            retry: retrying(),
            ..SampleControl::default()
        })
        .run()
        .expect("deadlock is a per-interval failure, not a whole-run error");
    assert!(r.is_partial());
    assert_eq!(r.failures.len(), spec().intervals);
    assert!(r.intervals.is_empty());
    for f in &r.failures {
        assert_eq!(f.attempts, 1, "deterministic errors must not be retried");
        match &f.error {
            IntervalError::Run(RunError::Deadlock { snapshot, .. }) => {
                assert_eq!(snapshot.workload, kind.name());
                assert_eq!(snapshot.iq_size, PipelineConfig::ltp_proposed().iq_size);
            }
            other => panic!("interval {}: expected a deadlock, got {other}", f.index),
        }
    }
}

#[test]
fn journaled_fault_free_run_is_unchanged_and_replayable() {
    // Journaling must be invisible to the results, and an immediate resume
    // must replay every interval without re-simulating any.
    let path = scratch_journal("replay");
    let journaled = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        ..SampleControl::default()
    });
    assert!(journaled.journal_error.is_none());
    assert_bit_identical(&journaled, &reference(), "journaled run");

    let resumed = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        resume: true,
        ..SampleControl::default()
    });
    assert_eq!(resumed.resumed_intervals, spec().intervals);
    assert_bit_identical(&resumed, &reference(), "fully replayed run");
    let _ = std::fs::remove_file(path);
}

#[test]
fn crash_and_resume_matches_uninterrupted_run() {
    // "Crash": the first run exhausts its single attempt on one interval and
    // exits partial, with every completed interval journaled. The resume run
    // replays those and simulates only the missing one; the merged result
    // must be bit-identical to a run that never crashed.
    let path = scratch_journal("resume");
    let crashed = run_controlled(&SampleControl {
        retry: RetryPolicy::none(),
        faults: FaultPlan::new().panic_at(1, 0),
        journal: Some(path.clone()),
        ..SampleControl::default()
    });
    assert!(crashed.is_partial());
    assert_eq!(crashed.intervals.len(), spec().intervals - 1);

    let resumed = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        resume: true,
        ..SampleControl::default()
    });
    assert!(!resumed.is_partial());
    assert_eq!(resumed.resumed_intervals, spec().intervals - 1);
    assert_bit_identical(&resumed, &reference(), "crash-and-resume");
    let _ = std::fs::remove_file(path);
}

#[test]
fn corrupted_journal_record_is_shed_on_resume() {
    // A bit flip in one journal record (the crash wrote garbage): resume
    // must replay the intact prefix, quietly re-simulate the rest and still
    // land on the uninterrupted result.
    let path = scratch_journal("corrupt");
    let first = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        ..SampleControl::default()
    });
    assert!(first.journal_error.is_none());
    journal::corrupt_journal_records(&path, &[1]).expect("corrupt record 1");

    let resumed = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        resume: true,
        ..SampleControl::default()
    });
    assert!(!resumed.is_partial());
    assert!(
        resumed.resumed_intervals < spec().intervals,
        "the corrupted record (and its tail) must not replay"
    );
    assert_bit_identical(&resumed, &reference(), "resume past corruption");
    let _ = std::fs::remove_file(path);
}

#[test]
fn truncated_journal_is_shed_on_resume() {
    // The crash cut the journal mid-record: the readable prefix replays,
    // the torn tail is re-simulated, the result is exact.
    let path = scratch_journal("truncate");
    run_controlled(&SampleControl {
        journal: Some(path.clone()),
        ..SampleControl::default()
    });
    let bytes = std::fs::read(&path).expect("journal written");
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).expect("truncate");

    let resumed = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        resume: true,
        ..SampleControl::default()
    });
    assert!(!resumed.is_partial());
    assert_bit_identical(&resumed, &reference(), "resume past truncation");
    let _ = std::fs::remove_file(path);
}

#[test]
fn mismatched_journal_is_ignored_on_resume() {
    // A journal from a *different* run configuration must not contaminate a
    // resume: the header check rejects it and the run starts fresh.
    let path = scratch_journal("mismatch");
    run_controlled(&SampleControl {
        journal: Some(path.clone()),
        config_label: "IQ:32".to_string(),
        ..SampleControl::default()
    });
    let resumed = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        resume: true,
        config_label: "IQ:256".to_string(),
        ..SampleControl::default()
    });
    assert_eq!(
        resumed.resumed_intervals, 0,
        "foreign journal must not replay"
    );
    assert!(!resumed.is_partial());
    assert_bit_identical(&resumed, &reference(), "fresh run after mismatch");
    let _ = std::fs::remove_file(path);
}

#[test]
fn experiment_report_flags_partial_points_and_keeps_digest_deterministic() {
    // End-to-end through the `sample` experiment plumbing: a recovered fault
    // keeps the exit-status accounting clean and the result digest equal to
    // the fault-free run's, while an unrecoverable fault flags the run.
    let opts = ltp_experiments::RunOptions {
        detail_insts: 3_000,
        warm_insts: 1_000,
        seed: 2015,
    };
    // The digest is carried both as machine-readable report meta and in the
    // rendered text; they must agree.
    let digest_of = |report: &ltp_experiments::Report| {
        let meta = report.meta("digest").expect("digest meta").to_string();
        let text_digest = report
            .render_text()
            .lines()
            .find_map(|l| l.strip_prefix("result digest: "))
            .expect("digest line")
            .split_whitespace()
            .next()
            .expect("digest value")
            .to_string();
        assert_eq!(meta, text_digest, "meta and rendered digests must agree");
        meta
    };

    let run = |faults: FaultPlan| {
        let mut ctx = ExperimentCtx::new(&opts);
        ctx.sample.faults = faults;
        Experiment::Sample.run(&ctx)
    };
    // The exit-status accounting: (partial points, failed points).
    let degraded_points = |report: &ltp_experiments::Report| -> (usize, usize) {
        let count = |key| {
            report
                .meta(key)
                .and_then(|v| v.parse().ok())
                .expect("point count meta")
        };
        (count("partial_points"), count("error_points"))
    };

    let clean_report = run(FaultPlan::new());
    assert_eq!(degraded_points(&clean_report), (0, 0));
    assert!(!clean_report.render_text().contains("DEGRADED RUN"));

    // One injected panic, recovered by the default retry policy: same
    // digest, clean status.
    let recovered_report = run(FaultPlan::new().panic_at(0, 0));
    assert_eq!(degraded_points(&recovered_report), (0, 0));
    assert_eq!(
        digest_of(&recovered_report),
        digest_of(&clean_report),
        "a recovered fault must not change the measured intervals"
    );

    // An unrecoverable interval (killed on every attempt of the default
    // 3-attempt policy): the affected points degrade and are flagged.
    let partial_report = run(FaultPlan::new()
        .panic_at(0, 0)
        .panic_at(0, 1)
        .panic_at(0, 2));
    let (partial, errors) = degraded_points(&partial_report);
    assert!(partial > 0);
    assert_eq!(errors, 0);
    let partial_text = partial_report.render_text();
    assert!(partial_text.contains("DEGRADED RUN"));
    assert!(partial_text.contains("[PARTIAL"));
}
