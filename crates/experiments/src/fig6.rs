//! Figure 6: the limit study.
//!
//! For each of the four resources LTP addresses (IQ, registers, LQ, SQ) the
//! resource is swept while everything else is unlimited; four LTP variants
//! are compared (no LTP, ideal LTP parking Non-Ready only, Non-Urgent only,
//! and both), using an infinite LTP with oracle classification — exactly the
//! setup of §4. Results are reported as performance relative to the baseline
//! size of the resource (IQ 64, 128 registers, LQ 64, SQ 32) with no LTP,
//! for the astar-like point (`indirect_stream`), the milc-like point
//! (`gather_fp`), and the MLP-sensitive / MLP-insensitive group averages.

use crate::report::Report;
use crate::runner::{limit_study_config, names, sweep, MlpGrouping};
use crate::ExperimentCtx;
use ltp_core::LtpMode;
use ltp_pipeline::{PipelineConfig, RunResult};
use ltp_workloads::WorkloadKind;

/// The resource being swept in one row of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweptResource {
    /// Instruction queue entries (row 1).
    Iq,
    /// Available physical registers (row 2).
    RegisterFile,
    /// Load queue entries (row 3).
    LoadQueue,
    /// Store queue entries (row 4).
    StoreQueue,
}

impl SweptResource {
    /// The four rows of Figure 6.
    pub const ALL: [SweptResource; 4] = [
        SweptResource::Iq,
        SweptResource::RegisterFile,
        SweptResource::LoadQueue,
        SweptResource::StoreQueue,
    ];

    /// Row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SweptResource::Iq => "IQ",
            SweptResource::RegisterFile => "RF",
            SweptResource::LoadQueue => "LQ",
            SweptResource::StoreQueue => "SQ",
        }
    }

    /// The sizes swept in the paper (the `usize::MAX` entry is the "infinite"
    /// point of the x-axis).
    #[must_use]
    pub fn sizes(self) -> Vec<usize> {
        match self {
            SweptResource::Iq => vec![usize::MAX, 128, 64, 32, 16],
            SweptResource::RegisterFile => vec![usize::MAX, 128, 96, 64, 32],
            SweptResource::LoadQueue => vec![usize::MAX, 64, 32, 16, 8],
            SweptResource::StoreQueue => vec![usize::MAX, 64, 32, 16, 8],
        }
    }

    /// The baseline size of the resource (the underlined x-axis value the
    /// curves are normalised to).
    #[must_use]
    pub fn baseline_size(self) -> usize {
        match self {
            SweptResource::Iq => 64,
            SweptResource::RegisterFile => 128,
            SweptResource::LoadQueue => 64,
            SweptResource::StoreQueue => 32,
        }
    }

    /// Applies the size to a limit-study configuration.
    #[must_use]
    pub fn apply(self, cfg: PipelineConfig, size: usize) -> PipelineConfig {
        match self {
            SweptResource::Iq => cfg.with_iq(size),
            SweptResource::RegisterFile => cfg.with_regs(size),
            SweptResource::LoadQueue => {
                let mut c = cfg.with_lq(size);
                c.delay_lsq_alloc = true;
                c
            }
            SweptResource::StoreQueue => {
                let mut c = cfg.with_sq(size);
                c.delay_lsq_alloc = true;
                c
            }
        }
    }

    /// Formats a size for the report (`inf` for the unlimited point).
    #[must_use]
    pub fn fmt_size(size: usize) -> String {
        if size == usize::MAX {
            "inf".to_string()
        } else {
            size.to_string()
        }
    }
}

/// The LTP variants compared in each plot.
pub const MODES: [LtpMode; 4] = [
    LtpMode::Off,
    LtpMode::NonReadyOnly,
    LtpMode::NonUrgentOnly,
    LtpMode::Both,
];

/// Runs the full limit study and returns the report.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let grouping = MlpGrouping::derive(ctx);
    let mut configs: Vec<(SweptResource, LtpMode, usize)> = Vec::new();
    for res in SweptResource::ALL {
        for mode in MODES {
            for size in res.sizes() {
                configs.push((res, mode, size));
            }
        }
    }
    let runs = sweep(ctx, &configs, &WorkloadKind::ALL, |(res, mode, size)| {
        res.apply(limit_study_config(mode), size)
    });

    let mut report = Report::new("fig6");
    report.push_text(format!(
        "Figure 6: limit study — performance vs. resource size, relative to the\n\
         baseline size of each resource with no LTP (ideal LTP, oracle classification)\n\n\
         MLP-sensitive: {}   MLP-insensitive: {}\n\n",
        names(&grouping.sensitive),
        names(&grouping.insensitive)
    ));

    // The single-workload columns are groups of one; an empty group's
    // column reads 0.0.
    let columns: [&[WorkloadKind]; 4] = [
        &[WorkloadKind::IndirectStream],
        &[WorkloadKind::GatherFp],
        &grouping.sensitive,
        &grouping.insensitive,
    ];
    for res in SweptResource::ALL {
        report.push_text(format!(
            "--- {} sweep (baseline {} = {}) ---\n",
            res.label(),
            res.label(),
            res.baseline_size()
        ));
        let mut rows = Vec::new();
        for size in res.sizes() {
            for mode in MODES {
                let mut row = vec![SweptResource::fmt_size(size), mode.label().to_string()];
                for group in columns {
                    let value = if group.is_empty() {
                        0.0
                    } else {
                        let base = runs.mean(
                            (res, LtpMode::Off, res.baseline_size()),
                            group,
                            RunResult::cpi,
                        );
                        (base / runs.mean((res, mode, size), group, RunResult::cpi) - 1.0) * 100.0
                    };
                    row.push(format!("{value:+.1}"));
                }
                rows.push(row);
            }
        }
        report.push_table(
            &[
                "size",
                "variant",
                "astar-like %",
                "milc-like %",
                "mlp-sens %",
                "mlp-insens %",
            ],
            rows,
        );
        report.push_text("\n");
    }
    report
}
