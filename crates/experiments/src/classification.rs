//! Figures 2, 3 and 5: classification of the example loop, IQ-vs-LTP
//! occupancy, and resource-lifetime statistics.
//!
//! * Figure 2 classifies the `d = B[A[j]]; C[i] = d + 5` loop: this module
//!   prints the oracle classification of one steady-state iteration and
//!   checks it against the paper's table.
//! * Figure 3 contrasts a traditional IQ (filled with Non-Ready instructions
//!   from completed iterations) with an LTP design (Non-Urgent instructions
//!   parked, IQ kept free): this module reports the average IQ and LTP
//!   occupancy of the `indirect_stream` kernel under both designs.
//! * Figure 5 sketches IQ/RF residency of Non-Ready and Non-Urgent
//!   instructions: this module reports the measured mean residency of parked
//!   instructions and the IQ occupancy reduction.

use crate::report::Report;
use crate::runner::{limit_study_config, sweep};
use crate::ExperimentCtx;
use ltp_core::{LtpMode, OracleAnalysis};
use ltp_mem::MemoryConfig;
use ltp_pipeline::PipelineConfig;
use ltp_workloads::{trace, WorkloadKind};

/// The paper's labels for the 11 instructions of the Figure 2 loop.
const FIG2_LABELS: [&str; 11] = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K"];
/// The paper's classification of those instructions.
const FIG2_EXPECTED: [&str; 11] = [
    "U+R", "U+R", "U+R", "U+R", "U+R", "NU+NR", "NU+R", "NU+NR", "NU+R", "NU+R", "NU+R",
];

/// Runs the classification experiments and returns the report.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let seed = ctx.opts.seed;
    let mut report = Report::new("fig2");

    // --- Figure 2: oracle classification of the loop ------------------------
    let t = trace(WorkloadKind::IndirectStream, seed, 11 * 60);
    let oracle = OracleAnalysis::default().analyze(&t, &MemoryConfig::limit_study());
    let steady_iteration = 40; // deep enough for backward propagation
    let base = steady_iteration * 11;

    let mut rows = Vec::new();
    let mut matches = 0;
    for (offset, (label, expected)) in FIG2_LABELS.iter().zip(FIG2_EXPECTED).enumerate() {
        let inst = &t[base + offset];
        let got = oracle.classify(inst.seq()).class().notation();
        if got == expected {
            matches += 1;
        }
        rows.push(vec![
            (*label).to_string(),
            inst.static_inst().to_string(),
            expected.to_string(),
            got.to_string(),
            if got == expected { "yes" } else { "NO" }.to_string(),
        ]);
    }
    report.push_text("Figure 2: classification of the example loop (steady-state iteration)\n");
    report.push_table(
        &["inst", "operation", "paper class", "oracle class", "match"],
        rows,
    );
    report.push_text(format!(
        "matching classes: {matches}/11\n\n\
         Class mix per workload (oracle classification):\n"
    ));

    // Class mix per workload (oracle classification of a steady-state trace).
    let rows = WorkloadKind::ALL
        .iter()
        .map(|&kind| {
            let wl_trace = trace(kind, seed, 8_000);
            let hist = OracleAnalysis::default()
                .analyze(&wl_trace, &MemoryConfig::limit_study())
                .class_histogram();
            let total: u64 = hist.iter().sum::<u64>().max(1);
            let mut row = vec![kind.name().to_string()];
            row.extend(
                hist.iter()
                    .map(|&count| format!("{:.1}", count as f64 / total as f64 * 100.0)),
            );
            row
        })
        .collect();
    report.push_table(&["workload", "U+R %", "U+NR %", "NU+R %", "NU+NR %"], rows);

    // --- Figure 3 / 5: IQ occupancy and parked residency ---------------------
    // Keyed by whether the IQ:32 machine has an ideal LTP.
    let runs = sweep(
        ctx,
        &[false, true],
        &[WorkloadKind::IndirectStream],
        |ltp| {
            if ltp {
                limit_study_config(LtpMode::Both).with_iq(32)
            } else {
                PipelineConfig::limit_study_unlimited().with_iq(32)
            }
        },
    );
    let base_run = &runs[(false, WorkloadKind::IndirectStream)];
    let ltp_run = &runs[(true, WorkloadKind::IndirectStream)];

    report.push_text("\nFigure 3: IQ usage with and without LTP on the indirect-access loop\n");
    report.push_table(
        &["design", "avg IQ occupancy", "avg LTP occupancy", "CPI"],
        vec![
            vec![
                "traditional IQ:32".into(),
                format!("{:.1}", base_run.occupancy.iq.mean()),
                "0.0".into(),
                format!("{:.3}", base_run.cpi()),
            ],
            vec![
                "IQ:32 + LTP".into(),
                format!("{:.1}", ltp_run.occupancy.iq.mean()),
                format!("{:.1}", ltp_run.occupancy.ltp.mean()),
                format!("{:.3}", ltp_run.cpi()),
            ],
        ],
    );
    report.push_text(format!(
        "\nFigure 5: residency statistics with LTP\n\
         \x20 mean cycles an instruction stays parked in LTP: {:.1}\n\
         \x20 instructions parked: {} of {} classified ({:.0}%)\n\
         \x20 IQ occupancy drops from {:.1} to {:.1} entries; MLP rises from {:.2} to {:.2} outstanding requests\n",
        ltp_run.ltp.mean_residency(),
        ltp_run.ltp.total_parked(),
        ltp_run.ltp.total_classified(),
        ltp_run.ltp.park_fraction() * 100.0,
        base_run.occupancy.iq.mean(),
        ltp_run.occupancy.iq.mean(),
        base_run.avg_outstanding_misses(),
        ltp_run.avg_outstanding_misses(),
    ));
    report
}
