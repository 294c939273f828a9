//! Fault-injection tests for the fault-tolerant sampled runner.
//!
//! Every failure path the fault-tolerance layer claims to cover is driven on
//! purpose here with a deterministic [`FaultPlan`]:
//!
//! - a panicking interval is isolated and lost, degrading the run to a
//!   clearly flagged *partial* result with a widened confidence interval
//!   instead of failing it;
//! - a deterministic simulation error (a detected deadlock) surfaces as an
//!   [`IntervalFailure`] carrying the [`DeadlockSnapshot`] diagnostics;
//! - a journaled run that lost intervals, or died mid-way, resumes from the
//!   journal and reproduces the uninterrupted result exactly, including when
//!   the journal tail was corrupted or truncated by the crash, and when its
//!   records carry checkpoint bytes, as journals of earlier versions did.
//!
//! The simulator is deterministic, so "recovered correctly" is assertable as
//! bit-for-bit equality of every per-interval measurement and of the
//! aggregate confidence interval.

use ltp_experiments::fault::FaultPlan;
use ltp_experiments::sampled::{
    IntervalError, IntervalMeasurement, SampleControl, SampleSpec, SampledRequest, SampledResult,
};
use ltp_experiments::{journal, Experiment, ExperimentCtx};
use ltp_isa::{DecodedTrace, DynInst};
use ltp_pipeline::{FunctionalFastForward, PipelineConfig, RunError};
use ltp_workloads::{trace, WorkloadKind};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

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
}

/// A unique scratch journal path per test (the suite runs tests in
/// parallel within one process).
fn scratch_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ltp_fault_{}_{tag}.journal", std::process::id()))
}

#[test]
fn exhausted_retries_degrade_to_partial_with_widened_ci() {
    // Interval 2 panics: the run must degrade to a flagged partial result —
    // remaining intervals intact, the lost one accounted for, and the CI
    // widened exactly per the stats contract.
    let reference = reference();
    let r = run_controlled(&SampleControl {
        faults: FaultPlan::new().panic_at(2),
        ..SampleControl::default()
    });
    assert!(r.is_partial());
    assert_eq!(r.failures.len(), 1);
    let f = &r.failures[0];
    assert_eq!(f.index, 2);
    match &f.error {
        IntervalError::Task(t) => assert!(
            t.message.contains("injected fault"),
            "panic message: {}",
            t.message
        ),
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
    // trips the deadlock watchdog. Each interval fails carrying the
    // machine-state diagnostics, and the runner degrades instead of hanging
    // or aborting.
    let (kind, detail, dec) = workload();
    let mut cfg = PipelineConfig::ltp_proposed();
    cfg.frontend_delay = 10_000_000;
    let r = SampledRequest::new(cfg, kind, spec())
        .trace(&detail)
        .decoded(&dec)
        .run()
        .expect("deadlock is a per-interval failure, not a whole-run error");
    assert!(r.is_partial());
    assert_eq!(r.failures.len(), spec().intervals);
    assert!(r.intervals.is_empty());
    for f in &r.failures {
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
    // A fresh run's timers cover the whole trace and every interval.
    assert_eq!(journaled.timing.functional_insts, spec().total_insts);
    assert_eq!(journaled.timing.detail_insts, journaled.detailed_insts);

    let resumed = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        resume: true,
        ..SampleControl::default()
    });
    assert_eq!(resumed.resumed_intervals, spec().intervals);
    assert_bit_identical(&resumed, &reference(), "fully replayed run");
    // Nothing ran, so the timers cover no instructions.
    assert_eq!(resumed.timing.functional_insts, 0);
    assert_eq!(resumed.timing.detail_insts, 0);
    let _ = std::fs::remove_file(path);
}

/// A journal holds measurements only: a fresh run writes one record per
/// interval, none carrying checkpoint bytes.
#[test]
fn journal_records_carry_no_checkpoint_bytes() {
    let path = scratch_journal("no-bytes");
    let journaled = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        ..SampleControl::default()
    });
    assert!(journaled.journal_error.is_none());
    let loaded = journal::load_journal(&path).expect("journal written");
    assert_eq!(loaded.records.len(), spec().intervals);
    assert!(loaded.records.iter().all(|r| r.snapshot.is_empty()));
    let _ = std::fs::remove_file(path);
}

/// Journals of the same format version written with each interval's
/// encoded checkpoint in its record still resume: the bytes are skipped,
/// the measurements replay, and the missing interval simulates, bit for bit
/// as a fresh run.
#[test]
fn a_journal_with_checkpoint_bytes_resumes_bit_identically() {
    let (kind, _, dec) = workload();
    let cfg = PipelineConfig::ltp_proposed();
    let reference = reference();
    // The records such a journal holds: every interval's measurement and
    // the encoded checkpoint at its start, for all but the last interval.
    let mut ff = FunctionalFastForward::new(cfg);
    ff.warm_caches(&trace(kind, spec().seed, spec().warm_insts as usize));
    let mut records = Vec::new();
    for m in &reference.intervals[..spec().intervals - 1] {
        ff.advance_on(&dec, m.start);
        records.push(journal::JournalRecord {
            index: m.index as u64,
            start: m.start,
            weight: m.weight,
            instructions: m.instructions,
            cycles: m.cycles,
            snapshot: ff.checkpoint().expect("checkpoint").to_bytes(),
        });
    }
    let path = scratch_journal("with-bytes");
    let header = journal::JournalHeader::for_run(&spec(), kind.name(), "", &cfg);
    let mut w = journal::JournalWriter::create(&path, &header).expect("create journal");
    for rec in &records {
        assert!(!rec.snapshot.is_empty());
        w.append(rec).expect("append");
    }
    drop(w);

    let resumed = run_controlled(&SampleControl {
        journal: Some(path.clone()),
        resume: true,
        ..SampleControl::default()
    });
    assert_eq!(resumed.resumed_intervals, spec().intervals - 1);
    assert!(!resumed.is_partial());
    assert_bit_identical(&resumed, &reference, "resume over checkpoint bytes");
    let _ = std::fs::remove_file(path);
}

#[test]
fn each_interval_is_journaled_before_its_progress_callback() {
    // A killed run keeps what it finished: the worker that measured an
    // interval appends its record before the interval's progress callback
    // fires, so a sink reading the journal finds the reported record there.
    let path = scratch_journal("progress");
    let spec = SampleSpec {
        total_insts: 60_000,
        intervals: 6,
        ..spec()
    };
    let seen: Arc<Mutex<Vec<(usize, bool)>>> = Arc::default();
    let sink = {
        let (path, seen) = (path.clone(), Arc::clone(&seen));
        Arc::new(move |m: &IntervalMeasurement| {
            let on_disk = journal::load_journal(&path)
                .is_ok_and(|j| j.records.iter().any(|r| r.index == m.index as u64));
            seen.lock().expect("sink lock").push((m.index, on_disk));
        })
    };
    let result = SampledRequest::new(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::IndirectStream,
        spec,
    )
    .journal(path.clone())
    .progress(sink)
    .run()
    .expect("journaled run");
    assert!(result.journal_error.is_none());
    let mut seen = seen.lock().expect("sink lock").clone();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..6).map(|i| (i, true)).collect::<Vec<_>>(),
        "(interval, record on disk at its progress callback)"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn crash_and_resume_matches_uninterrupted_run() {
    // "Crash": the first run loses intervals to injected panics and exits
    // partial, with every completed interval journaled. The resume run
    // replays those and simulates only the lost ones; the merged result
    // must be bit-identical to a run that never crashed, whether one
    // interval was lost or all but one.
    let reference = reference();
    let n = spec().intervals;
    for lost in [vec![1], (1..n).collect()] {
        let path = scratch_journal(&format!("resume-{}", lost.len()));
        let crashed = run_controlled(&SampleControl {
            faults: lost.iter().fold(FaultPlan::new(), |p, &i| p.panic_at(i)),
            journal: Some(path.clone()),
            ..SampleControl::default()
        });
        let failed: Vec<usize> = crashed.failures.iter().map(|f| f.index).collect();
        assert_eq!(failed, lost);
        assert_eq!(crashed.intervals.len(), n - lost.len());

        let resumed = run_controlled(&SampleControl {
            journal: Some(path.clone()),
            resume: true,
            ..SampleControl::default()
        });
        assert!(!resumed.is_partial());
        assert_eq!(resumed.resumed_intervals, n - lost.len());
        assert_bit_identical(
            &resumed,
            &reference,
            &format!("resume after losing {lost:?}"),
        );
        // The resume's timers cover the functional pass and the lost
        // intervals only, each with its detailed warm-up.
        let stride = spec().total_insts / n as u64;
        let (warm, _) = spec().effective_window(stride);
        let recovered: u64 = lost
            .iter()
            .map(|&i| reference.intervals[i].instructions + warm)
            .sum();
        assert_eq!(resumed.timing.functional_insts, spec().total_insts);
        assert_eq!(resumed.timing.detail_insts, recovered, "lost {lost:?}");
        let _ = std::fs::remove_file(path);
    }
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
    // End-to-end through the `sample` experiment plumbing: a lost interval
    // flags the run, and a resume over its journals clears the exit-status
    // accounting and lands on the fault-free run's result digest.
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

    let journals = std::env::temp_dir().join(format!("ltp_fault_{}_sample", std::process::id()));
    let run = |faults: FaultPlan, journal_dir: Option<&PathBuf>, resume: bool| {
        let mut ctx = ExperimentCtx::new(&opts);
        ctx.sample.faults = faults;
        ctx.sample.resume = resume;
        ctx.journal_dir = journal_dir.cloned();
        Experiment::Sample.run(&ctx)
    };
    let count = |report: &ltp_experiments::Report, key| -> usize {
        report
            .meta(key)
            .and_then(|v| v.parse().ok())
            .expect("count meta")
    };
    // The exit-status accounting: (partial points, failed points).
    let degraded_points = |report: &ltp_experiments::Report| {
        (
            count(report, "partial_points"),
            count(report, "error_points"),
        )
    };

    let clean_report = run(FaultPlan::new(), None, false);
    assert_eq!(degraded_points(&clean_report), (0, 0));
    assert!(!clean_report.render_text().contains("DEGRADED RUN"));

    // Interval 0 of every point panics: each point loses it and is flagged.
    let partial_report = run(FaultPlan::new().panic_at(0), Some(&journals), false);
    let (partial, errors) = degraded_points(&partial_report);
    assert!(partial > 0);
    assert_eq!(errors, 0);
    let partial_text = partial_report.render_text();
    assert!(partial_text.contains("DEGRADED RUN"));
    assert!(partial_text.contains("[PARTIAL"));

    // The resume replays every journaled interval and simulates only the
    // lost ones: a clean status and the fault-free digest.
    let resumed_report = run(FaultPlan::new(), Some(&journals), true);
    assert_eq!(degraded_points(&resumed_report), (0, 0));
    assert_eq!(
        count(&resumed_report, "resumed_intervals"),
        count(&resumed_report, "planned_intervals") - partial
    );
    assert_eq!(
        digest_of(&resumed_report),
        digest_of(&clean_report),
        "a resume must reproduce the fault-free measurements"
    );

    // The journals are now complete: a second resume replays every
    // interval, runs nothing and reports no throughput.
    let replayed_report = run(FaultPlan::new(), Some(&journals), true);
    assert_eq!(
        count(&replayed_report, "resumed_intervals"),
        count(&replayed_report, "planned_intervals")
    );
    assert!(replayed_report
        .render_text()
        .contains("throughput: functional 0 insts/s, detailed 0 insts/s\n"));
    let _ = std::fs::remove_dir_all(&journals);
}
