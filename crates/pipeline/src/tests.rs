//! Unit tests of the whole processor (moved out of the `core` orchestrator
//! when the stage modules were split off, so the orchestrator stays thin).

use crate::config::PipelineConfig;
use crate::core::Processor;
use ltp_isa::{ArchReg, BranchInfo, DynInst, MemAccess, OpClass, Pc, StaticInst, VecStream};

/// A simple dependent-ALU-chain program: every instruction depends on the
/// previous one.
fn alu_chain(n: u64) -> Vec<DynInst> {
    (0..n)
        .map(|s| {
            DynInst::new(
                s,
                StaticInst::new(Pc(0x1000 + 4 * (s % 16)), OpClass::IntAlu)
                    .with_dst(ArchReg::int(1))
                    .with_src(ArchReg::int(1)),
            )
        })
        .collect()
}

/// Independent ALU instructions across many registers (high ILP).
fn alu_parallel(n: u64) -> Vec<DynInst> {
    (0..n)
        .map(|s| {
            let r = (s % 16 + 1) as usize;
            DynInst::new(
                s,
                StaticInst::new(Pc(0x2000 + 4 * (s % 32)), OpClass::IntAlu)
                    .with_dst(ArchReg::int(r))
                    .with_src(ArchReg::int(((s + 1) % 16 + 1) as usize)),
            )
        })
        .collect()
}

/// A pointer-chase-like loop: loads to far apart addresses feeding each
/// other, plus a few dependent ALU ops.
fn missy_loads(n: u64) -> Vec<DynInst> {
    let mut out = Vec::new();
    let mut seq = 0;
    for i in 0..n {
        let addr = 0x1000_0000u64 + (i.wrapping_mul(2_654_435_761) % 500_000) * 4096;
        out.push(
            DynInst::new(
                seq,
                StaticInst::new(Pc(0x3000), OpClass::Load)
                    .with_dst(ArchReg::int(2))
                    .with_src(ArchReg::int(1)),
            )
            .with_mem(MemAccess::qword(addr)),
        );
        seq += 1;
        out.push(DynInst::new(
            seq,
            StaticInst::new(Pc(0x3004), OpClass::IntAlu)
                .with_dst(ArchReg::int(3))
                .with_src(ArchReg::int(2)),
        ));
        seq += 1;
        out.push(DynInst::new(
            seq,
            StaticInst::new(Pc(0x3008), OpClass::IntAlu)
                .with_dst(ArchReg::int(1))
                .with_src(ArchReg::int(1)),
        ));
        seq += 1;
        out.push(
            DynInst::new(seq, StaticInst::new(Pc(0x300c), OpClass::Branch)).with_branch(
                BranchInfo {
                    taken: true,
                    target: Pc(0x3000),
                },
            ),
        );
        seq += 1;
    }
    out
}

#[test]
fn all_instructions_commit() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("chain", alu_chain(500)), 10_000)
        .unwrap();
    assert_eq!(r.instructions, 500);
    assert!(r.cycles > 0);
}

#[test]
fn dependent_chain_is_about_one_ipc_max() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("chain", alu_chain(2000)), 10_000)
        .unwrap();
    // A fully dependent chain of 1-cycle ALUs cannot beat 1 IPC.
    assert!(r.cpi() >= 0.99, "cpi {}", r.cpi());
    assert!(
        r.cpi() < 3.0,
        "a simple chain should not be much slower, cpi {}",
        r.cpi()
    );
}

#[test]
fn independent_alus_exploit_width() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("parallel", alu_parallel(4000)), 10_000)
        .unwrap();
    assert!(
        r.ipc() > 2.0,
        "independent ALU ops should reach multi-issue IPC, got {}",
        r.ipc()
    );
}

#[test]
fn loads_that_miss_are_long_latency() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("missy", missy_loads(200)), 10_000)
        .unwrap();
    assert!(
        r.llc_miss_loads > 50,
        "most far loads should miss, got {}",
        r.llc_miss_loads
    );
    assert!(r.mem.avg_latency() > 12.0);
    assert!(r.cpi() > 1.0);
}

#[test]
fn ltp_design_commits_everything_too() {
    let mut p = Processor::new(PipelineConfig::ltp_proposed());
    let r = p
        .run(VecStream::new("missy", missy_loads(300)), 10_000)
        .unwrap();
    assert_eq!(r.instructions, 300 * 4);
    assert!(
        r.ltp.total_parked() > 0,
        "the LTP must park something on a missy workload"
    );
    assert!(r.ltp_enabled_fraction > 0.0);
}

#[test]
fn ltp_never_loses_instructions_on_compute_bound_code() {
    let mut p = Processor::new(PipelineConfig::ltp_proposed());
    let r = p
        .run(VecStream::new("parallel", alu_parallel(3000)), 10_000)
        .unwrap();
    assert_eq!(r.instructions, 3000);
    // The monitor should keep LTP off nearly the whole time.
    assert!(
        r.ltp_enabled_fraction < 0.2,
        "monitor should gate LTP on compute-bound code, enabled {}",
        r.ltp_enabled_fraction
    );
}

#[test]
fn small_iq_hurts_memory_level_parallelism() {
    let big = Processor::new(PipelineConfig::limit_study_unlimited().with_iq(256))
        .run(VecStream::new("missy", missy_loads(400)), 100_000)
        .unwrap();
    let small = Processor::new(PipelineConfig::limit_study_unlimited().with_iq(16))
        .run(VecStream::new("missy", missy_loads(400)), 100_000)
        .unwrap();
    assert!(
        big.cpi() <= small.cpi() + 1e-9,
        "a larger IQ must not be slower ({} vs {})",
        big.cpi(),
        small.cpi()
    );
}

#[test]
fn warmup_excludes_initial_instructions() {
    let cfg = PipelineConfig::micro2015_baseline().with_warmup(100);
    let mut p = Processor::new(cfg);
    let r = p
        .run(VecStream::new("chain", alu_chain(400)), 10_000)
        .unwrap();
    assert_eq!(r.instructions, 300);
}

#[test]
fn occupancy_and_activity_are_recorded() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let r = p
        .run(VecStream::new("parallel", alu_parallel(1000)), 10_000)
        .unwrap();
    assert!(r.occupancy.rob.mean() > 0.0);
    assert!(r.occupancy.iq.cycles() > 0);
    assert!(r.activity.iq_writes >= 1000);
    assert!(r.activity.iq_issues >= 1000);
    assert!(r.activity.rf_writes >= 1000);
}

#[test]
fn stuck_machine_surfaces_deadlock_as_data() {
    use crate::result::RunError;
    // A front end so deep that no instruction ever reaches rename: the pipe
    // never drains, nothing ever commits, and the watchdog must fire with a
    // structured snapshot instead of a panic.
    let mut cfg = PipelineConfig::micro2015_baseline();
    cfg.frontend_delay = u64::MAX / 2;
    let mut p = Processor::new(cfg);
    let err = p
        .run(VecStream::new("stuck", alu_chain(4)), 10)
        .expect_err("a machine that cannot commit must deadlock");
    assert!(err.to_string().contains("deadlock"));
    let RunError::Deadlock { cycle, snapshot } = err else {
        panic!("expected a deadlock, got {err}");
    };
    assert!(cycle >= 500_000, "watchdog fired early at {cycle}");
    assert_eq!(snapshot.workload, "stuck");
    assert_eq!(snapshot.committed, 0);
    assert_eq!(snapshot.rob_len, 0, "nothing ever reached rename");
}

#[test]
fn oracle_config_without_attached_oracle_is_refused() {
    use crate::result::RunError;
    let cfg = PipelineConfig::micro2015_baseline().with_oracle(true);
    let mut p = Processor::new(cfg);
    let err = p
        .run(VecStream::new("unattached", alu_chain(10)), 10)
        .expect_err("running an oracle config without the oracle must fail");
    assert!(matches!(err, RunError::OracleNotAttached), "got {err}");
    // Attaching any oracle makes the same machine runnable.
    let mut p = Processor::new(cfg);
    p.set_oracle(ltp_core::OracleClassifier::from_parts(vec![], vec![]));
    let r = p
        .run(VecStream::new("attached", alu_chain(10)), 10)
        .unwrap();
    assert_eq!(r.instructions, 10);
}

#[test]
fn observer_sees_bus_traffic_and_commit_order() {
    let mut p = Processor::new(PipelineConfig::micro2015_baseline());
    let mut last_commit: Option<u64> = None;
    let mut total_commits = 0u64;
    let mut total_wakeups = 0u64;
    let r = p
        .run_observed(
            VecStream::new("parallel", alu_parallel(500)),
            10_000,
            |view| {
                for slot in &view.bus.commits {
                    if let Some(prev) = last_commit {
                        assert!(prev < slot.seq.0, "commit order must be monotonic");
                    }
                    last_commit = Some(slot.seq.0);
                    total_commits += 1;
                }
                total_wakeups += view.bus.reg_wakeups.len() as u64;
                assert!(view.int_regs.allocated <= view.int_regs.capacity);
            },
        )
        .unwrap();
    assert_eq!(total_commits, r.instructions);
    assert!(total_wakeups >= r.instructions, "every writer wakes the IQ");
}

/// Runs `streams` through the cycle loop per cycle (an observer sees every
/// cycle, which turns the quiet-cycle skip off).
fn drive_per_cycle<S: ltp_isa::InstStream>(
    p: &mut Processor,
    streams: Vec<S>,
    stop: crate::core::Stop,
    window: crate::core::Window,
) -> crate::core::Run<S> {
    p.drive(streams, stop, window, Some(&mut |_| {}))
        .expect("no deadlock")
}

/// Everything a run reports except the host-work counter.
fn observable(r: &crate::RunResult) -> String {
    let mut r = r.clone();
    r.cycle_loop_iterations = 0;
    format!("{r:?}")
}

/// SMT co-runs skip quiet cycles too, exactly: under every sharing policy a
/// two-thread co-run gives the same per-thread results skipping as per
/// cycle, in fewer loop iterations.
#[test]
fn smt_co_run_skips_exactly() {
    use crate::config::SharePolicy;
    use crate::core::{Stop, Window};
    use ltp_workloads::{co_trace, replay_slice, trace, WorkloadKind};
    let a = co_trace(WorkloadKind::PointerChase, 3, 1_200, 0);
    let b = co_trace(WorkloadKind::HashProbe, 4, 1_200, 1);
    let warm = trace(WorkloadKind::HashProbe, 5, 1_000);
    for policy in [
        SharePolicy::Shared,
        SharePolicy::Icount,
        SharePolicy::StaticPartition,
    ] {
        let cfg = PipelineConfig::ltp_proposed().smt(policy);
        let streams = || vec![replay_slice("a", &a), replay_slice("b", &b)];
        let mut skipping = Processor::new(cfg);
        skipping.warm_caches(&warm);
        let skipped = skipping.run_smt(streams(), 1_000).expect("no deadlock");
        let mut stepping = Processor::new(cfg);
        stepping.warm_caches(&warm);
        let stepped = drive_per_cycle(
            &mut stepping,
            streams(),
            Stop::DrainAt(1_000),
            Window::Whole,
        );
        assert_eq!(skipped.cycles, stepping.state.now.max(1), "{policy:?}");
        for (x, y) in skipped.threads.iter().zip(&stepped.threads) {
            assert_eq!(observable(x), observable(y), "{policy:?}");
            assert!(
                x.cycle_loop_iterations < y.cycle_loop_iterations,
                "{policy:?}"
            );
        }
    }
}

/// A checkpoint taken by a run that skips quiet cycles is byte for byte
/// the one a per-cycle run takes at the same point.
#[test]
fn checkpoint_bytes_do_not_depend_on_skipping() {
    use crate::core::{Stop, Window};
    use ltp_workloads::{replay_slice, trace, WorkloadKind};
    // Parking both kinds of instruction exercises the out-of-order release
    // path, whose failed attempts in quiet cycles still stamp the LTP
    // ports with the cycle.
    let both = ltp_core::LtpConfig {
        mode: ltp_core::LtpMode::Both,
        ..ltp_core::LtpConfig::nu_only_128x4()
    };
    for cfg in [
        PipelineConfig::ltp_proposed(),
        PipelineConfig::ltp_proposed().with_ltp(both),
        PipelineConfig::micro2015_baseline().with_warmup(300),
    ] {
        for (kind, at) in WorkloadKind::ALL
            .into_iter()
            .zip([700, 800, 900, 1_000].iter().cycle())
        {
            let warm = trace(kind, 6, 1_000);
            let detail = trace(kind, 7, 1_500);
            let mut skipping = Processor::new(cfg);
            skipping.warm_caches(&warm);
            let skipped = skipping
                .run_to_snapshot(replay_slice(kind.name(), &detail), *at)
                .expect("no deadlock");
            let mut stepping = Processor::new(cfg);
            stepping.warm_caches(&warm);
            let run = drive_per_cycle(
                &mut stepping,
                vec![replay_slice(kind.name(), &detail)],
                Stop::At(*at),
                Window::Warmup,
            );
            let stepped =
                crate::Snapshot::capture(&stepping, run.fes[0].export_state(), run.window)
                    .expect("capturable");
            assert!(
                skipped.to_bytes() == stepped.to_bytes(),
                "{} on {cfg:?}",
                kind.name()
            );
        }
    }
}
