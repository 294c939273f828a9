//! End-to-end integration tests: whole workloads through whole machine
//! configurations, checking the behaviours the paper's argument rests on.

use ltp_core::{LtpConfig, LtpMode};
use ltp_experiments::runner::{limit_study_config, run_point, RunOptions};
use ltp_pipeline::PipelineConfig;
use ltp_workloads::WorkloadKind;

fn opts() -> RunOptions {
    RunOptions {
        detail_insts: 8_000,
        warm_insts: 4_000,
        seed: 1234,
    }
}

#[test]
fn every_workload_completes_on_every_headline_config() {
    let configs = [
        PipelineConfig::micro2015_baseline(),
        PipelineConfig::small_no_ltp(),
        PipelineConfig::ltp_proposed(),
    ];
    for kind in WorkloadKind::ALL {
        for cfg in configs {
            let r = run_point(kind, cfg, &opts());
            assert_eq!(
                r.instructions,
                opts().detail_insts,
                "{kind} must commit every instruction on {cfg:?}"
            );
            assert!(
                r.cpi() > 0.1 && r.cpi() < 500.0,
                "{kind} produced an absurd CPI {}",
                r.cpi()
            );
        }
    }
}

#[test]
fn larger_windows_never_hurt_mlp_sensitive_kernels() {
    let o = opts();
    for kind in [WorkloadKind::IndirectStream, WorkloadKind::GatherFp] {
        let small = run_point(
            kind,
            PipelineConfig::limit_study_unlimited().with_iq(16),
            &o,
        );
        let medium = run_point(
            kind,
            PipelineConfig::limit_study_unlimited().with_iq(64),
            &o,
        );
        let large = run_point(
            kind,
            PipelineConfig::limit_study_unlimited().with_iq(256),
            &o,
        );
        assert!(
            medium.cpi() <= small.cpi() * 1.02,
            "{kind}: IQ 64 should not be slower than IQ 16 ({} vs {})",
            medium.cpi(),
            small.cpi()
        );
        assert!(
            large.cpi() <= medium.cpi() * 1.02,
            "{kind}: IQ 256 should not be slower than IQ 64 ({} vs {})",
            large.cpi(),
            medium.cpi()
        );
        assert!(
            large.avg_outstanding_misses() > small.avg_outstanding_misses(),
            "{kind}: a larger window must expose more MLP"
        );
    }
}

#[test]
fn ltp_recovers_performance_lost_by_shrinking_the_iq() {
    // The paper's headline (Figure 6 row 1 / Figure 10): at IQ 32 the ideal
    // LTP gets close to the IQ 64 baseline, and clearly beats IQ 32 alone.
    let o = opts();
    let kind = WorkloadKind::IndirectStream;
    let baseline = run_point(kind, limit_study_config(LtpMode::Off).with_iq(64), &o);
    let small = run_point(kind, limit_study_config(LtpMode::Off).with_iq(32), &o);
    let small_ltp = run_point(kind, limit_study_config(LtpMode::Both).with_iq(32), &o);

    assert!(
        small.cpi() > baseline.cpi(),
        "shrinking the IQ must cost performance ({} vs {})",
        small.cpi(),
        baseline.cpi()
    );
    assert!(
        small_ltp.cpi() < small.cpi(),
        "LTP must recover part of the loss ({} vs {})",
        small_ltp.cpi(),
        small.cpi()
    );
    let loss_without = small.cpi() / baseline.cpi() - 1.0;
    let loss_with = small_ltp.cpi() / baseline.cpi() - 1.0;
    assert!(
        loss_with < loss_without * 0.7,
        "LTP should recover a large share of the loss (with: {loss_with:.3}, without: {loss_without:.3})"
    );
}

#[test]
fn ltp_parks_mostly_non_urgent_instructions_on_memory_bound_code() {
    let o = opts();
    let r = run_point(
        WorkloadKind::IndirectStream,
        limit_study_config(LtpMode::NonUrgentOnly).with_iq(32),
        &o,
    );
    assert!(r.ltp.total_parked() > 0);
    // In NU-only mode nothing classified Urgent+Ready should be parked except
    // through the parked-bit rule; the dominant share must be non-urgent.
    let urgent_parked = r.ltp.parked[0] + r.ltp.parked[1];
    let non_urgent_parked = r.ltp.parked[2] + r.ltp.parked[3];
    assert!(
        non_urgent_parked > urgent_parked,
        "non-urgent instructions must dominate the LTP ({non_urgent_parked} vs {urgent_parked})"
    );
}

#[test]
fn monitor_keeps_ltp_off_on_compute_bound_code() {
    let o = opts();
    let r = run_point(
        WorkloadKind::ComputeBound,
        PipelineConfig::ltp_proposed(),
        &o,
    );
    assert!(
        r.ltp_enabled_fraction < 0.15,
        "the DRAM-timer monitor should power-gate LTP on compute-bound code, got {}",
        r.ltp_enabled_fraction
    );
    assert!(
        r.ltp.total_parked() < o.detail_insts / 10,
        "almost nothing should be parked when LTP is off"
    );

    let memory = run_point(
        WorkloadKind::IndirectStream,
        PipelineConfig::ltp_proposed(),
        &o,
    );
    assert!(
        memory.ltp_enabled_fraction > 0.5,
        "LTP should be on most of the time on memory-bound code, got {}",
        memory.ltp_enabled_fraction
    );
}

#[test]
fn pointer_chasing_gains_little_from_ltp() {
    let o = opts();
    let base = run_point(
        WorkloadKind::PointerChase,
        PipelineConfig::micro2015_baseline(),
        &o,
    );
    let ltp = run_point(
        WorkloadKind::PointerChase,
        PipelineConfig::ltp_proposed(),
        &o,
    );
    let delta = (base.cpi() / ltp.cpi() - 1.0) * 100.0;
    assert!(
        delta.abs() < 12.0,
        "LTP should neither help nor hurt pointer chasing much, got {delta:+.1}%"
    );
}

#[test]
fn disabled_ltp_equals_baseline_configuration() {
    // An LTP with zero effect (mode Off) must behave identically to the
    // baseline machine: same cycle count on the same trace.
    let o = opts();
    let a = run_point(
        WorkloadKind::HashProbe,
        PipelineConfig::micro2015_baseline(),
        &o,
    );
    let b = run_point(
        WorkloadKind::HashProbe,
        PipelineConfig::micro2015_baseline().with_ltp(LtpConfig::disabled()),
        &o,
    );
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
}

#[test]
fn realistic_classifier_approaches_oracle() {
    // §5.6 / appendix: the UIT-based classifier with the hit/miss predictor
    // should come reasonably close to the oracle-classified ideal LTP.
    let o = opts();
    let kind = WorkloadKind::IndirectStream;
    let oracle = run_point(
        kind,
        limit_study_config(LtpMode::NonUrgentOnly).with_iq(32),
        &o,
    );
    let realistic = run_point(
        kind,
        PipelineConfig::limit_study_unlimited()
            .with_iq(32)
            .with_ltp(LtpConfig::nu_only_128x4().with_entries(4096).with_ports(8)),
        &o,
    );
    assert!(
        realistic.cpi() < oracle.cpi() * 1.35,
        "the runtime classifier should be within ~35% of the oracle (got {} vs {})",
        realistic.cpi(),
        oracle.cpi()
    );
}

/// `experiments --insts 0` would measure nothing, so it is a usage error
/// (exit 2); one instruction is accepted.
#[test]
fn cli_rejects_a_zero_instruction_budget() {
    let out = std::env::temp_dir().join(format!("ltp-cli-insts-{}", std::process::id()));
    let run = |insts: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["table1", "--insts", insts, "--out"])
            .arg(&out)
            .output()
            .expect("run experiments")
    };
    let zero = run("0");
    assert_eq!(zero.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&zero.stderr);
    assert!(stderr.contains("--insts must be at least 1"), "{stderr}");
    assert_eq!(run("1").status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&out);
}

/// `--inject` takes only `panic@IDX`: a `delay@` or `corrupt@` directive
/// and an attempt coordinate are usage errors (exit 2), refused before
/// anything runs.
#[test]
fn cli_rejects_a_delay_fault_directive() {
    let out = std::env::temp_dir().join(format!("ltp-cli-delay-{}", std::process::id()));
    for (spec, complaint) in [
        ("delay@1.0=80", "unknown fault kind `delay`"),
        ("corrupt@1", "unknown fault kind `corrupt`"),
        ("panic@0.0", "bad interval index in `panic@0.0`"),
    ] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["sample", "--quick", "--inject", spec, "--out"])
            .arg(&out)
            .output()
            .expect("run experiments");
        assert_eq!(run.status.code(), Some(2), "{spec}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(complaint), "{spec}: {stderr}");
        assert!(!out.join("sample.txt").exists(), "{spec}: nothing ran");
    }
    let _ = std::fs::remove_dir_all(&out);
}
