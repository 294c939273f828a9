//! Figure 7: LTP utilisation by resource type and LTP on/off state.
//!
//! For a processor with a 32-entry IQ and 96 registers and an ideal LTP
//! (oracle classification), the figure reports the average number of
//! instructions, registers, loads and stores held in the LTP, and the
//! fraction of time LTP is enabled by the DRAM-timer monitor, for the three
//! parking variants (NR, NU, NR+NU).

use crate::report::Report;
use crate::runner::{limit_study_config, sweep, MlpGrouping};
use crate::ExperimentCtx;
use ltp_core::LtpMode;
use ltp_pipeline::RunResult;
use ltp_workloads::WorkloadKind;

/// The parking variants shown in Figure 7.
const MODES: [LtpMode; 3] = [LtpMode::NonReadyOnly, LtpMode::NonUrgentOnly, LtpMode::Both];

/// Runs the Figure 7 experiment and returns the report.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let grouping = MlpGrouping::derive(ctx);
    let runs = sweep(ctx, &MODES, &WorkloadKind::ALL, |mode| {
        limit_study_config(mode).with_iq(32).with_regs(96)
    });

    let columns: [(&str, &[WorkloadKind]); 4] = [
        ("astar-like", &[WorkloadKind::IndirectStream]),
        ("milc-like", &[WorkloadKind::GatherFp]),
        ("mlp_sensitive", &grouping.sensitive),
        ("mlp_insensitive", &grouping.insensitive),
    ];
    let mut rows = Vec::new();
    for (label, group) in columns {
        if group.is_empty() {
            continue;
        }
        for mode in MODES {
            let m = |f: fn(&RunResult) -> f64| runs.mean(mode, group, f);
            rows.push(vec![
                label.to_string(),
                mode.label().to_string(),
                format!("{:.1}", m(|r| r.occupancy.ltp.mean())),
                format!("{:.1}", m(|r| r.occupancy.ltp_regs.mean())),
                format!("{:.1}", m(|r| r.occupancy.ltp_loads.mean())),
                format!("{:.1}", m(|r| r.occupancy.ltp_stores.mean())),
                format!("{:.0}", m(|r| r.ltp.park_fraction() * 100.0)),
                format!("{:.0}", m(|r| r.ltp_enabled_fraction * 100.0)),
            ]);
        }
    }
    let mut report = Report::new("fig7");
    report.push_text(
        "Figure 7: LTP utilisation (IQ 32, 96 registers, ideal LTP, oracle classification)\n\n",
    );
    report.push_table(
        &[
            "group",
            "variant",
            "insts in LTP",
            "regs in LTP",
            "loads in LTP",
            "stores in LTP",
            "parked %",
            "enabled %",
        ],
        rows,
    );
    report.push_text(
        "\nPaper reference points: MLP-sensitive ~40 insts / ~25 regs in LTP (NR+NU), few\n\
         parked loads/stores; LTP enabled ~95% of the time for MLP-sensitive and ~7% for\n\
         MLP-insensitive applications.\n",
    );
    report
}
