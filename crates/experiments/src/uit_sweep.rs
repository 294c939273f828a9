//! §5.6 UIT sizing: the effect of the Urgent Instruction Table size on the
//! practical LTP design.
//!
//! The paper reports that a 256-entry UIT performs well, a 128-entry UIT
//! gives up about four percentage points, and an unlimited UIT gains only two
//! more. This experiment sweeps the UIT size on the proposed design for the
//! MLP-sensitive group.

use crate::report::Report;
use crate::runner::{sweep, MlpGrouping};
use crate::ExperimentCtx;
use ltp_core::LtpConfig;
use ltp_pipeline::{PipelineConfig, RunResult};
use ltp_workloads::WorkloadKind;

/// UIT sizes swept (the `usize::MAX` point is the unlimited UIT).
const UIT_SIZES: [usize; 5] = [usize::MAX, 512, 256, 128, 64];

/// Runs the UIT sweep.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let grouping = MlpGrouping::derive(ctx);
    // `None` is the IQ 64 / RF 128 baseline.
    let mut configs = vec![None];
    configs.extend(UIT_SIZES.map(Some));
    let runs = sweep(ctx, &configs, &WorkloadKind::ALL, |uit| match uit {
        None => PipelineConfig::micro2015_baseline(),
        Some(size) => PipelineConfig::ltp_proposed()
            .with_ltp(LtpConfig::nu_only_128x4().with_uit_entries(size)),
    });

    let mut report = Report::new("uit");
    report
        .push_text("UIT size sensitivity (§5.6): proposed design vs. IQ 64 / RF 128 baseline\n\n");
    for (label, group) in grouping.groups() {
        let base = runs.mean(None, group, RunResult::cpi);
        let rows = UIT_SIZES
            .iter()
            .map(|&size| {
                let cpi = runs.mean(Some(size), group, RunResult::cpi);
                vec![
                    if size == usize::MAX {
                        "inf".into()
                    } else {
                        size.to_string()
                    },
                    format!("{:+.1}", (base / cpi - 1.0) * 100.0),
                ]
            })
            .collect();
        report.push_text(format!("--- {label} ---\n"));
        report.push_table(&["UIT entries", "perf vs base %"], rows);
        report.push_text("\n");
    }
    report.push_text(
        "Paper reference: UIT 256 performs well; 128 entries give up ~4 percentage points;\n\
         an unlimited UIT gains only ~2 points over 256.\n",
    );
    report
}
