//! Figure 10: performance and IQ/RF ED²P of the practical LTP design as a
//! function of LTP size and port count.
//!
//! The practical design (32-entry IQ, 96 registers, Non-Urgent-only LTP with
//! the runtime UIT-based classifier and the DRAM-timer monitor) is compared
//! against the IQ 64 / RF 128 baseline while the LTP entry count sweeps
//! {∞, 128, 64, 32, 16} and the port count sweeps {1, 2, 4, 8}. The red line
//! of the paper (IQ 32 / RF 96 without LTP) is included as well.

use crate::report::Report;
use crate::runner::{sweep, MlpGrouping};
use crate::ExperimentCtx;
use ltp_core::LtpConfig;
use ltp_energy::{EnergyModel, StructureActivity};
use ltp_pipeline::{PipelineConfig, RunResult};
use ltp_workloads::WorkloadKind;

/// LTP entry counts swept on the x-axis (`usize::MAX` is the ∞ point; it is
/// capped at the ROB size inside the pipeline anyway).
const ENTRIES: [usize; 5] = [usize::MAX, 128, 64, 32, 16];
/// LTP port counts (the four curves).
const PORTS: [usize; 4] = [1, 2, 4, 8];

/// One configuration point of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Point {
    Baseline,
    NoLtpSmall,
    Ltp { entries: usize, ports: usize },
}

fn pipeline_for(point: Point) -> PipelineConfig {
    match point {
        Point::Baseline => PipelineConfig::micro2015_baseline(),
        Point::NoLtpSmall => PipelineConfig::small_no_ltp(),
        Point::Ltp { entries, ports } => PipelineConfig::ltp_proposed().with_ltp(
            LtpConfig::nu_only_128x4()
                .with_entries(entries)
                .with_ports(ports),
        ),
    }
}

fn iq_rf_sizes(point: Point) -> (usize, usize, usize, usize) {
    match point {
        Point::Baseline => (64, 128 + ltp_isa::NUM_ARCH_INT_REGS, 0, 1),
        Point::NoLtpSmall => (32, 96 + ltp_isa::NUM_ARCH_INT_REGS, 0, 1),
        Point::Ltp { entries, ports } => {
            (32, 96 + ltp_isa::NUM_ARCH_INT_REGS, entries.min(256), ports)
        }
    }
}

/// Converts a run's activity counters into the energy model's input.
fn activity_of(result: &RunResult) -> StructureActivity {
    StructureActivity {
        cycles: result.cycles,
        iq_writes: result.activity.iq_writes,
        iq_issues: result.activity.iq_issues,
        iq_occupancy: result.occupancy.iq.mean(),
        rf_reads: result.activity.rf_reads,
        rf_writes: result.activity.rf_writes,
        rf_occupancy: result.occupancy.regs.mean(),
        ltp_writes: result.activity.ltp_writes,
        ltp_reads: result.activity.ltp_reads,
        ltp_occupancy: result.occupancy.ltp.mean(),
    }
}

/// IQ+RF+LTP ED²P of one run under the first-order energy model.
fn ed2p_of(point: Point, result: &RunResult) -> f64 {
    let model = EnergyModel::default();
    let (iq, rf, ltp_entries, ltp_ports) = iq_rf_sizes(point);
    let energy = model.energy(iq, rf, ltp_entries, ltp_ports, &activity_of(result));
    EnergyModel::ed2p(energy.total(), result.cycles)
}

/// Runs the Figure 10 experiment and returns the report.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let grouping = MlpGrouping::derive(ctx);
    let mut points = vec![Point::Baseline, Point::NoLtpSmall];
    for entries in ENTRIES {
        for ports in PORTS {
            points.push(Point::Ltp { entries, ports });
        }
    }
    let runs = sweep(ctx, &points, &WorkloadKind::ALL, pipeline_for);

    let mut report = Report::new("fig10");
    report.push_text(
        "Figure 10: performance and IQ/RF ED2P of the LTP (IQ 32 / RF 96) design vs. the\n\
         IQ 64 / RF 128 baseline, sweeping LTP entries and ports (runtime classifier)\n\n",
    );
    for (group_label, group) in grouping.groups() {
        let base_cpi = runs.mean(Point::Baseline, group, RunResult::cpi);
        let base_ed2p = runs.mean(Point::Baseline, group, |r| ed2p_of(Point::Baseline, r));
        // A row: its two labels, then perf and ED²P of `p` against the
        // baseline in percent.
        let row = |entries: String, ports: String, p: Point| {
            let cpi = runs.mean(p, group, RunResult::cpi);
            let ed2p = runs.mean(p, group, |r| ed2p_of(p, r));
            vec![
                entries,
                ports,
                format!("{:+.1}", (base_cpi / cpi - 1.0) * 100.0),
                format!("{:+.1}", EnergyModel::ed2p_delta_percent(ed2p, base_ed2p)),
            ]
        };
        // The red line: IQ 32 / RF 96 without LTP.
        let mut rows = vec![row("no LTP".into(), "-".into(), Point::NoLtpSmall)];
        for entries in ENTRIES {
            for ports in PORTS {
                let label = if entries == usize::MAX {
                    "inf".into()
                } else {
                    entries.to_string()
                };
                rows.push(row(label, ports.to_string(), Point::Ltp { entries, ports }));
            }
        }
        report.push_text(format!("--- {group_label} ---\n"));
        report.push_table(
            &[
                "ltp entries",
                "ports",
                "perf vs base %",
                "IQ/RF ED2P vs base %",
            ],
            rows,
        );
        report.push_text("\n");
    }
    report.push_text(
        "Paper reference points: a 128-entry 4-port LTP is ~1% slower than the baseline with\n\
         ~40% lower IQ/RF ED2P for MLP-sensitive applications, and ~3% slower with ~38% lower\n\
         ED2P for MLP-insensitive applications; without LTP the small design loses noticeably\n\
         more performance on MLP-sensitive code.\n",
    );
    report
}
