//! The quiet-cycle skip is exact, and it keeps skipping.
//!
//! Every run entry point but `Processor::run_observed` jumps over quiet
//! cycles — cycles in which no stage can change the machine — and charges
//! the skipped span to the per-cycle statistics. `run_observed` executes
//! every cycle, because its observer sees each one, so it is the per-cycle
//! reference. The golden fingerprints do not cover ROB, LQ, SQ or
//! outstanding-miss occupancy, nor the LTP enabled fraction, so they alone
//! cannot prove the skip exact; this file compares whole results.
//!
//! It also pins how many cycle-loop iterations a few runs take. The count
//! is host work, outside every fingerprint and digest, and a change that
//! stops skipping (or skips less) moves it.

use ltp_core::LtpMode;
use ltp_experiments::runner::{limit_study_config, named_config, run_point, NAMED_CONFIGS};
use ltp_experiments::{RunOptions, SimBuilder};
use ltp_pipeline::{PipelineConfig, RunError, RunResult};
use ltp_workloads::{replay_slice, WorkloadKind};

/// Small budgets: every kernel under every configuration, four times over.
fn opts() -> RunOptions {
    RunOptions {
        detail_insts: 1_500,
        warm_insts: 1_000,
        seed: 11,
    }
}

/// Everything a run reports except the host-work counter. `Debug` prints
/// every field, floats in their exact round-trip form.
fn observable(r: &RunResult) -> String {
    let mut r = r.clone();
    r.cycle_loop_iterations = 0;
    format!("{r:?}")
}

/// Runs `kind` on `cfg` four ways — fresh and resumed from a checkpoint,
/// each skipping and per cycle — and checks they agree on every field.
fn check_exact(kind: WorkloadKind, cfg: PipelineConfig) {
    let o = opts();
    let builder = SimBuilder::new(cfg, kind).options(&o);
    let detail = builder.detail_trace();
    let stream = || replay_slice(kind.name(), &detail);
    let label = format!("{} on {cfg:?}", kind.name());

    let skipped = builder.build().run(stream(), o.detail_insts).expect(&label);
    let stepped = builder
        .build()
        .run_observed(stream(), o.detail_insts, |_| {})
        .expect(&label);
    assert_eq!(observable(&skipped), observable(&stepped), "fresh: {label}");
    assert!(
        skipped.cycle_loop_iterations <= stepped.cycle_loop_iterations,
        "skipping ran more iterations: {label}"
    );

    // Checkpoint part-way (the prefix skips), then finish both ways. An
    // inexact checkpoint would make the resumed runs differ from the
    // uninterrupted per-cycle one.
    let snapshot = builder
        .build()
        .run_to_snapshot(stream(), o.detail_insts / 2)
        .expect(&label);
    let resumed = snapshot
        .resume()
        .run(stream(), o.detail_insts)
        .expect(&label);
    let resumed_stepped = snapshot
        .resume()
        .run_observed(stream(), o.detail_insts, |_| {})
        .expect(&label);
    assert_eq!(
        observable(&resumed),
        observable(&stepped),
        "resumed: {label}"
    );
    assert_eq!(
        observable(&resumed_stepped),
        observable(&stepped),
        "resumed per cycle: {label}"
    );
}

/// Every kernel under `cfg`, with and without a pipeline warm-up window.
fn check_config(cfg: PipelineConfig) {
    for kind in WorkloadKind::ALL {
        check_exact(kind, cfg);
        check_exact(kind, cfg.with_warmup(400));
    }
}

#[test]
fn skipping_matches_per_cycle_on_every_named_config() {
    for name in NAMED_CONFIGS {
        check_config(named_config(name).expect("a named configuration"));
    }
}

#[test]
fn skipping_matches_per_cycle_on_oracle_both_iq32() {
    check_config(limit_study_config(LtpMode::Both).with_iq(32));
}

/// A machine that starves after its first mispredicted branch: the
/// redirect never ends, the ROB drains and the watchdog fires. Both loops
/// must report the same cycle and the same machine state, although the
/// skipping one jumps over the half-million idle cycles.
#[test]
fn starved_machine_deadlocks_on_the_same_cycle() {
    let kind = WorkloadKind::HashProbe;
    let mut cfg = PipelineConfig::ltp_proposed();
    cfg.mispredict_penalty = 50_000_000;
    let builder = SimBuilder::new(cfg, kind).options(&opts());
    let detail = builder.detail_trace();
    let deadlock = |r: Result<RunResult, RunError>| match r {
        Err(RunError::Deadlock { cycle, snapshot }) => format!("{cycle} {snapshot:?}"),
        other => panic!("expected a deadlock, got {other:?}"),
    };
    let skipped = deadlock(
        builder
            .build()
            .run(replay_slice(kind.name(), &detail), 1_500),
    );
    let stepped = deadlock(builder.build().run_observed(
        replay_slice(kind.name(), &detail),
        1_500,
        |_| {},
    ));
    assert_eq!(skipped, stepped);
    assert!(skipped.contains("committed: "), "{skipped}");
}

/// Cycle-loop iterations of three memory-bound kernels at the golden
/// fingerprints' options, next to the cycles they simulate. The counts are
/// deterministic; a change that stops skipping quiet cycles raises them to
/// the simulated cycles and fails here.
#[test]
fn cycle_loop_iteration_counts_are_pinned() {
    let o = RunOptions::quick();
    let configs = [
        ("micro2015_baseline", PipelineConfig::micro2015_baseline()),
        ("ltp_proposed", PipelineConfig::ltp_proposed()),
    ];
    let mut got = Vec::new();
    for kind in [
        WorkloadKind::PointerChase,
        WorkloadKind::HashProbe,
        WorkloadKind::MixedPhases,
    ] {
        for (name, cfg) in configs {
            let r = run_point(kind, cfg, &o);
            got.push(format!(
                "{}/{name}: cycles={} iterations={}",
                kind.name(),
                r.cycles,
                r.cycle_loop_iterations
            ));
        }
    }
    assert_eq!(got.join("\n"), PINNED.join("\n"));
}

const PINNED: &[&str] = &[
    "pointer_chase/micro2015_baseline: cycles=44363 iterations=11880",
    "pointer_chase/ltp_proposed: cycles=44399 iterations=13631",
    "hash_probe/micro2015_baseline: cycles=14243 iterations=6035",
    "hash_probe/ltp_proposed: cycles=18519 iterations=6702",
    "mixed_phases/micro2015_baseline: cycles=3883 iterations=2600",
    "mixed_phases/ltp_proposed: cycles=4422 iterations=2777",
];
