//! SMT co-run mode: correctness and the paper's headline resource-sharing
//! result.
//!
//! The strongest regression here is the equivalence test: an SMT-configured
//! machine (two hardware threads, dynamic sharing) whose second thread is
//! idle must reproduce the single-thread pipeline **bit for bit** — same
//! cycle count, same LTP counters, same time-weighted occupancies. Together
//! with `golden_stats.rs` (which pins the single-thread pipeline to the seed
//! fingerprints) this proves the SMT generalisation did not perturb the
//! pre-SMT machine.

use ltp_core::{LtpConfig, LtpMode};
use ltp_experiments::{RunOptions, SimBuilder};
use ltp_pipeline::{PipelineConfig, Processor, RunError, RunResult, SharePolicy, SmtRunResult};
use ltp_workloads::{co_trace, replay_slice, trace, WorkloadKind};

fn opts() -> RunOptions {
    RunOptions {
        detail_insts: 6_000,
        warm_insts: 4_000,
        seed: 2015,
    }
}

/// The same fingerprint `golden_stats.rs` pins against the seed simulator.
fn fingerprint(r: &RunResult) -> String {
    format!(
        "cycles={} insts={} parked={} rel_io={} rel_ooo={} forced={} iqw={} rfw={} llc={} \
         ltp_occ={:.6} ltp_peak={} iq_occ={:.6} regs_occ={:.6}",
        r.cycles,
        r.instructions,
        r.ltp.total_parked(),
        r.ltp.released_in_order,
        r.ltp.released_out_of_order,
        r.ltp.force_released,
        r.activity.iq_writes,
        r.activity.rf_writes,
        r.llc_miss_loads,
        r.occupancy.ltp.mean(),
        r.occupancy.ltp.peak(),
        r.occupancy.iq.mean(),
        r.occupancy.regs.mean(),
    )
}

/// Runs `kind` on the SMT variant of `cfg` with the second thread idle
/// (empty stream), replaying exactly the trace the single-thread
/// `SimBuilder` run would use.
fn run_with_idle_sibling(
    kind: WorkloadKind,
    cfg: PipelineConfig,
    policy: SharePolicy,
    o: &RunOptions,
) -> SmtRunResult {
    let warm = trace(kind, o.seed, o.warm_insts as usize);
    let detail = trace(kind, o.seed.wrapping_add(1), o.detail_insts as usize);
    let mut cpu = Processor::new(cfg.smt(policy));
    cpu.warm_caches(&warm);
    let idle: Vec<ltp_isa::DynInst> = Vec::new();
    cpu.run_smt(
        vec![
            replay_slice(kind.name(), &detail),
            replay_slice("idle", &idle),
        ],
        o.detail_insts,
    )
    .expect("no deadlock")
}

/// SMT mode with one active thread reproduces the single-thread golden
/// fingerprints bit-for-bit, under both dynamic policies. (The single-thread
/// runs themselves are pinned to the seed by `golden_stats.rs`, so this
/// transitively ties the SMT machine to the 24 golden fingerprints.)
#[test]
fn smt_with_idle_second_thread_matches_single_thread_bit_for_bit() {
    let o = opts();
    let configs = [
        ("no_ltp", PipelineConfig::small_no_ltp()),
        ("ltp_nu_uit", PipelineConfig::ltp_proposed()),
        (
            "ltp_both_uit",
            PipelineConfig::ltp_proposed().with_ltp(LtpConfig {
                mode: LtpMode::Both,
                ..LtpConfig::nu_only_128x4()
            }),
        ),
    ];
    for kind in [WorkloadKind::IndirectStream, WorkloadKind::MixedPhases] {
        for (label, cfg) in configs {
            let single = SimBuilder::new(cfg, kind)
                .options(&o)
                .run()
                .expect("no deadlock");
            for policy in [SharePolicy::Shared, SharePolicy::Icount] {
                let smt = run_with_idle_sibling(kind, cfg, policy, &o);
                assert_eq!(
                    fingerprint(&smt.threads[0]),
                    fingerprint(&single),
                    "SMT({policy:?}) with an idle sibling diverged from the single-thread \
                     machine on {kind}/{label}"
                );
                assert_eq!(smt.threads[1].instructions, 0);
                assert_eq!(
                    smt.cycles, single.cycles,
                    "shared timeline must end when the only active thread drains"
                );
            }
        }
    }
}

/// The paper's SMT payoff: on a memory-bound co-run pair the LTP machine's
/// aggregate throughput beats (or at least matches) the same machine without
/// LTP, because the IQ entries and registers parking frees are consumed by
/// the co-runner — visible as the parking thread's own IPC gain and the
/// co-runner holding at least as many ROB/IQ entries.
#[test]
fn ltp_frees_shared_resources_for_the_co_runner() {
    let o = opts();
    let pair = (WorkloadKind::IndirectStream, WorkloadKind::GatherFp);
    let base = SimBuilder::co_run(PipelineConfig::small_no_ltp(), pair.0, pair.1)
        .options(&o)
        .run()
        .expect("no deadlock");
    let ltp = SimBuilder::co_run(PipelineConfig::ltp_proposed(), pair.0, pair.1)
        .options(&o)
        .run()
        .expect("no deadlock");

    let parked: u64 = ltp.threads.iter().map(|t| t.ltp.total_parked()).sum();
    assert!(parked > 0, "the memory-bound pair must park instructions");
    assert!(
        ltp.aggregate_ipc() >= base.aggregate_ipc(),
        "LTP must not lose aggregate throughput on the memory-bound pair: \
         ltp {:.4} vs baseline {:.4}",
        ltp.aggregate_ipc(),
        base.aggregate_ipc()
    );
    assert!(
        ltp.thread_ipc(0) > base.thread_ipc(0),
        "the parking thread itself must speed up: {:.4} vs {:.4}",
        ltp.thread_ipc(0),
        base.thread_ipc(0)
    );
    // The co-runner occupies at least as much of the shared window as it did
    // without LTP (the freed resources are in use, not idle).
    assert!(
        ltp.threads[1].occupancy.rob.mean() >= base.threads[1].occupancy.rob.mean(),
        "co-runner ROB occupancy must not shrink under LTP: {:.2} vs {:.2}",
        ltp.threads[1].occupancy.rob.mean(),
        base.threads[1].occupancy.rob.mean()
    );
}

/// Two active threads, pinned by value: the memory-bound pair on the
/// proposed LTP machine under both dynamic policies. The co-run tests
/// around this one assert orderings; these values pin the shared timeline
/// itself (every thread's fingerprint and the co-run's cycle count), so a
/// change to how the cycle loop drives a co-run cannot hide behind them.
#[test]
fn two_active_threads_reproduce_pinned_values() {
    let o = opts();
    let pinned = [
        (
            SharePolicy::Shared,
            22_611,
            [
                "cycles=19188 insts=6000 parked=2584 rel_io=0 rel_ooo=0 forced=2584 iqw=6000 \
                 rfw=4910 llc=548 ltp_occ=0.277078 ltp_peak=6 iq_occ=10.318031 regs_occ=51.566362",
                "cycles=22611 insts=6000 parked=2597 rel_io=2 rel_ooo=0 forced=2595 iqw=6000 \
                 rfw=5480 llc=1045 ltp_occ=0.244129 ltp_peak=16 iq_occ=21.878687 regs_occ=68.863474",
            ],
        ),
        (
            SharePolicy::Icount,
            23_105,
            [
                "cycles=15390 insts=6000 parked=2571 rel_io=0 rel_ooo=0 forced=2571 iqw=6000 \
                 rfw=4910 llc=548 ltp_occ=0.318200 ltp_peak=17 iq_occ=10.334992 regs_occ=51.919498",
                "cycles=23105 insts=6000 parked=2553 rel_io=2 rel_ooo=0 forced=2551 iqw=6000 \
                 rfw=5480 llc=1044 ltp_occ=0.244363 ltp_peak=9 iq_occ=21.982039 regs_occ=68.593075",
            ],
        ),
    ];
    for (policy, cycles, threads) in pinned {
        let r = SimBuilder::co_run(
            PipelineConfig::ltp_proposed().smt(policy),
            WorkloadKind::IndirectStream,
            WorkloadKind::GatherFp,
        )
        .options(&o)
        .run()
        .expect("no deadlock");
        assert_eq!(r.cycles, cycles, "{policy:?}: shared cycles");
        for (tid, (t, expected)) in r.threads.iter().zip(threads).enumerate() {
            assert_eq!(fingerprint(t), expected, "{policy:?}: thread {tid}");
        }
    }
}

/// Dynamic sharing must beat the static partition on an asymmetric pair:
/// entries a stalled thread is not using are available to its co-runner.
#[test]
fn dynamic_sharing_beats_static_partition() {
    let o = RunOptions {
        detail_insts: 4_000,
        warm_insts: 2_000,
        seed: 2015,
    };
    let cfg = PipelineConfig::ltp_proposed();
    let run = |policy: SharePolicy| {
        SimBuilder::co_run(
            cfg.smt(policy),
            WorkloadKind::IndirectStream,
            WorkloadKind::GatherFp,
        )
        .options(&o)
        .run()
        .expect("no deadlock")
    };
    let shared = run(SharePolicy::Shared);
    let static_part = run(SharePolicy::StaticPartition);
    let icount = run(SharePolicy::Icount);
    assert!(
        shared.aggregate_ipc() > static_part.aggregate_ipc(),
        "dynamic sharing {:.4} must beat the static partition {:.4}",
        shared.aggregate_ipc(),
        static_part.aggregate_ipc()
    );
    // ICOUNT is a fetch-arbitration variant of dynamic sharing; it must at
    // least run both threads to completion on the shared back end.
    assert_eq!(icount.total_instructions(), 2 * o.detail_insts);
}

/// Both streams commit all their instructions and the per-thread results
/// carry per-thread windows (the faster thread's cycles <= the co-run's).
#[test]
fn co_run_commits_both_streams_within_the_shared_timeline() {
    let o = RunOptions {
        detail_insts: 3_000,
        warm_insts: 1_000,
        seed: 7,
    };
    let r = SimBuilder::co_run(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::ComputeBound,
        WorkloadKind::IndirectStream,
    )
    .options(&o)
    .run()
    .expect("no deadlock");
    assert_eq!(r.threads.len(), 2);
    assert_eq!(r.total_instructions(), 2 * o.detail_insts);
    for t in &r.threads {
        assert_eq!(t.instructions, o.detail_insts);
        assert!(t.cycles <= r.cycles);
    }
    // The compute-bound thread finishes its window first.
    assert!(r.threads[0].cycles < r.threads[1].cycles);
    assert!(r.aggregate_ipc() > 0.0);
    assert!(r.thread_ipc(0) > r.thread_ipc(1));
}

/// A thread that reaches its instruction budget before its stream drains
/// stops fetching and renaming and drains in flight: its committed count
/// stays near the budget (within the in-flight window) instead of running
/// to the end of the trace, and the co-runner still commits everything.
#[test]
fn capped_thread_drains_instead_of_running_past_its_budget() {
    let cap = 1_000u64;
    let long = co_trace(WorkloadKind::ComputeBound, 11, 10_000, 0);
    let short = co_trace(WorkloadKind::IndirectStream, 12, cap as usize, 1);
    let cfg = PipelineConfig::micro2015_baseline().smt(SharePolicy::Shared);
    let mut cpu = Processor::new(cfg);
    let r = cpu
        .run_smt(
            vec![replay_slice("long", &long), replay_slice("short", &short)],
            cap,
        )
        .expect("no deadlock");
    assert!(
        r.threads[0].instructions >= cap,
        "the capped thread must reach its budget"
    );
    assert!(
        r.threads[0].instructions < cap + cfg.rob_size as u64,
        "a capped thread must drain, not run its whole trace: committed {}",
        r.threads[0].instructions
    );
    assert_eq!(r.threads[1].instructions, cap);
}

/// The oracle classifier requires an analysed oracle on *every* thread; the
/// co-run builder attaches one per thread, and a bare SMT processor without
/// them is refused instead of silently running the fallback classifier.
#[test]
fn smt_oracle_paths_are_checked_per_thread() {
    let o = RunOptions {
        detail_insts: 2_000,
        warm_insts: 500,
        seed: 3,
    };
    let cfg = PipelineConfig::ltp_proposed().with_oracle(true);
    let r = SimBuilder::co_run(cfg, WorkloadKind::IndirectStream, WorkloadKind::GatherFp)
        .options(&o)
        .run()
        .expect("no deadlock");
    assert_eq!(r.total_instructions(), 2 * o.detail_insts);
    assert!(r.threads.iter().map(|t| t.ltp.total_parked()).sum::<u64>() > 0);

    // Without the per-thread oracles the run must be refused.
    let detail: Vec<ltp_isa::DynInst> = trace(WorkloadKind::IndirectStream, 4, 500);
    let mut cpu = Processor::new(cfg.smt(SharePolicy::Shared));
    let err = cpu
        .run_smt(
            vec![replay_slice("a", &detail), replay_slice("b", &detail)],
            500,
        )
        .expect_err("oracle config without attached oracles must be refused");
    assert!(matches!(err, RunError::OracleNotAttached), "got {err}");
}

/// `run` on an SMT machine and `run_smt` with a mismatched stream count are
/// configuration errors, not silent misbehaviour.
#[test]
#[should_panic(expected = "use run_smt")]
fn single_thread_run_on_smt_machine_panics() {
    let detail = trace(WorkloadKind::ComputeBound, 1, 100);
    let mut cpu = Processor::new(PipelineConfig::micro2015_baseline().smt(SharePolicy::Shared));
    let _ = cpu.run(replay_slice("x", &detail), 100);
}

#[test]
#[should_panic(expected = "one instruction stream per configured hardware thread")]
fn run_smt_requires_one_stream_per_thread() {
    let detail = trace(WorkloadKind::ComputeBound, 1, 100);
    let mut cpu = Processor::new(PipelineConfig::micro2015_baseline().smt(SharePolicy::Shared));
    let _ = cpu.run_smt(vec![replay_slice("x", &detail)], 100);
}
