//! Figure 11: performance impact of the number of tickets for an LTP design
//! that parks both Non-Urgent and Non-Ready instructions.
//!
//! The ticket file is the hardware resource that tracks in-flight
//! long-latency instructions for Non-Ready wakeup (appendix A). The sweep
//! compares the NR+NU design with 4..128 tickets against the IQ 32 / RF 96
//! design without LTP (red line) and the 128-entry 4-port NU-only design
//! (green line), all relative to the IQ 64 / RF 128 baseline.

use crate::report::Report;
use crate::runner::{sweep, MlpGrouping};
use crate::ExperimentCtx;
use ltp_core::{LtpConfig, LtpMode};
use ltp_pipeline::{PipelineConfig, RunResult};
use ltp_workloads::WorkloadKind;

/// Ticket counts swept on the x-axis.
const TICKETS: [usize; 6] = [128, 64, 32, 16, 8, 4];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Point {
    Baseline,
    NoLtp,
    NuOnly,
    NrNu { tickets: usize },
}

fn pipeline_for(point: Point) -> PipelineConfig {
    match point {
        Point::Baseline => PipelineConfig::micro2015_baseline(),
        Point::NoLtp => PipelineConfig::small_no_ltp(),
        Point::NuOnly => PipelineConfig::ltp_proposed(),
        Point::NrNu { tickets } => PipelineConfig::ltp_proposed().with_ltp(
            LtpConfig {
                mode: LtpMode::Both,
                ..LtpConfig::nu_only_128x4()
            }
            .with_tickets(tickets),
        ),
    }
}

/// Runs the Figure 11 experiment and returns the report.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let grouping = MlpGrouping::derive(ctx);
    let mut points = vec![Point::Baseline, Point::NoLtp, Point::NuOnly];
    points.extend(TICKETS.map(|tickets| Point::NrNu { tickets }));
    let runs = sweep(ctx, &points, &WorkloadKind::ALL, pipeline_for);

    let mut report = Report::new("fig11");
    report.push_text(
        "Figure 11: performance vs. number of tickets for the NR+NU LTP design\n\
         (IQ 32 / RF 96, relative to the IQ 64 / RF 128 baseline)\n\n",
    );
    for (group_label, group) in grouping.groups() {
        let base = runs.mean(Point::Baseline, group, RunResult::cpi);
        let row = |label: String, p: Point| {
            let perf = (base / runs.mean(p, group, RunResult::cpi) - 1.0) * 100.0;
            vec![label, format!("{perf:+.1}")]
        };
        let mut rows = vec![
            row("No LTP (IQ32/RF96)".into(), Point::NoLtp),
            row("LTP (NU), 128 entries, 4 ports".into(), Point::NuOnly),
        ];
        for tickets in TICKETS {
            rows.push(row(
                format!("LTP (NR+NU), {tickets} tickets"),
                Point::NrNu { tickets },
            ));
        }
        report.push_text(format!("--- {group_label} ---\n"));
        report.push_table(&["config", "perf vs base %"], rows);
        report.push_text("\n");
    }
    report.push_text(
        "Paper reference: performance degrades only once very few tickets remain, and the\n\
         NR+NU design is only marginally better than NU-only, which motivates the simpler\n\
         queue-based NU-only implementation.\n",
    );
    report
}
