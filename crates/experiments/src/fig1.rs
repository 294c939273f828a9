//! Figure 1: impact of IQ size on MLP-sensitive and MLP-insensitive
//! execution.
//!
//! Three configurations are compared with every other resource unlimited and
//! the prefetcher enabled (as in the paper's Figure 1 caption): a 32-entry
//! IQ, a 32-entry IQ with an ideal LTP, and a 256-entry IQ. The figure
//! reports, per workload group:
//!
//! * (a) CPI,
//! * (b) the average number of outstanding memory requests,
//! * (c) the average resources in use per cycle for the IQ:256 configuration
//!   (RF, IQ, LQ, SQ).

use crate::report::Report;
use crate::runner::{limit_study_config, names, sweep, MlpGrouping};
use crate::ExperimentCtx;
use ltp_core::LtpMode;
use ltp_pipeline::{PipelineConfig, RunResult};
use ltp_workloads::WorkloadKind;

/// The three configurations of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Fig1Config {
    Iq32,
    Iq32Ltp,
    Iq256,
}

impl Fig1Config {
    const ALL: [Fig1Config; 3] = [Fig1Config::Iq32, Fig1Config::Iq32Ltp, Fig1Config::Iq256];

    fn label(self) -> &'static str {
        match self {
            Fig1Config::Iq32 => "IQ:32",
            Fig1Config::Iq32Ltp => "IQ:32+LTP",
            Fig1Config::Iq256 => "IQ:256",
        }
    }

    fn pipeline(self) -> PipelineConfig {
        match self {
            Fig1Config::Iq32 => PipelineConfig::limit_study_unlimited().with_iq(32),
            Fig1Config::Iq32Ltp => limit_study_config(LtpMode::Both).with_iq(32),
            Fig1Config::Iq256 => PipelineConfig::limit_study_unlimited().with_iq(256),
        }
    }
}

/// Runs the Figure 1 experiment.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let runs = sweep(
        ctx,
        &Fig1Config::ALL,
        &WorkloadKind::ALL,
        Fig1Config::pipeline,
    );
    // The MLP grouping (the paper's criterion, §4.1) reuses the IQ:32 and
    // IQ:256 runs already made.
    let grouping = MlpGrouping::from_runs(&runs, Fig1Config::Iq32, Fig1Config::Iq256);

    let mut report = Report::new("fig1");
    report.push_text(format!(
        "Figure 1: impact of IQ size on MLP-sensitive and MLP-insensitive execution\n\
         MLP-sensitive workloads:   {}\n\
         MLP-insensitive workloads: {}\n\n\
         (a) CPI and (b) average outstanding memory requests\n",
        names(&grouping.sensitive),
        names(&grouping.insensitive)
    ));

    // (a) CPI and (b) outstanding requests per group and configuration.
    let mut rows = Vec::new();
    for (group_name, group) in grouping.groups() {
        for cfg in Fig1Config::ALL {
            rows.push(vec![
                group_name.to_string(),
                cfg.label().to_string(),
                format!("{:.3}", runs.mean(cfg, group, RunResult::cpi)),
                format!(
                    "{:.2}",
                    runs.mean(cfg, group, RunResult::avg_outstanding_misses)
                ),
            ]);
        }
    }
    report.push_table(&["group", "config", "CPI", "avg outstanding reqs"], rows);
    report.push_text("\n(c) average resources in use per cycle (IQ:256 configuration)\n");

    // (c) average resources in use per cycle at IQ:256.
    let mut res_rows = Vec::new();
    for (group_name, group) in grouping.groups() {
        let mean =
            |f: fn(&RunResult) -> f64| format!("{:.1}", runs.mean(Fig1Config::Iq256, group, f));
        res_rows.push(vec![
            group_name.to_string(),
            mean(|r| r.occupancy.regs.mean()),
            mean(|r| r.occupancy.iq.mean()),
            mean(|r| r.occupancy.lq.mean()),
            mean(|r| r.occupancy.sq.mean()),
        ]);
    }
    report.push_table(&["group", "RF", "IQ", "LQ", "SQ"], res_rows);

    // Headline deltas corresponding to the paper's prose ("the MLP-sensitive
    // applications speed up by 18%", "Adding LTP to a 32-entry IQ increases
    // MLP by 19%").
    let sensitive = &grouping.sensitive;
    if !sensitive.is_empty() {
        let cpi = |cfg| runs.mean(cfg, sensitive, RunResult::cpi);
        let mlp = |cfg| runs.mean(cfg, sensitive, RunResult::avg_outstanding_misses);
        report.push_text(format!(
            "\nMLP-sensitive: IQ 32 -> 256 speedup: {:+.1}%  (paper: ~+18%)\n\
             MLP-sensitive: outstanding requests IQ32 {:.2} -> IQ32+LTP {:.2} -> IQ256 {:.2} \
             (paper: LTP recovers about half of the IQ256 gain)\n",
            (cpi(Fig1Config::Iq32) / cpi(Fig1Config::Iq256) - 1.0) * 100.0,
            mlp(Fig1Config::Iq32),
            mlp(Fig1Config::Iq32Ltp),
            mlp(Fig1Config::Iq256)
        ));
    }
    report
}
