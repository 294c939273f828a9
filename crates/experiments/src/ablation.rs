//! Ablations of three design choices of the paper:
//!
//! 1. **Prefetcher** — the paper runs every experiment with the L2 stride
//!    prefetcher enabled and notes that "applications with regular access
//!    patterns are unlikely to be classified as MLP-sensitive" because of it.
//!    The ablation disables the prefetcher and shows how the streaming kernel
//!    changes class and how much every kernel slows down.
//! 2. **DRAM-timer monitor (§5.2)** — comparing the proposed design with the
//!    monitor against an always-on LTP shows that performance is unaffected
//!    but the parking activity (and therefore LTP energy) on compute-bound
//!    code differs dramatically.
//! 3. **Resource reserve (§5.4)** — the number of registers held back for
//!    instructions leaving the LTP trades deadlock-avoidance margin against
//!    dispatch capacity.
//! 4. **Criticality classifier** — the same machine under every
//!    [`ClassifierKind`]: the UIT design, the trace oracle, a random-urgency
//!    baseline, the always-ready (never park) control and the
//!    park-everything upper bound. Separates "parking the right
//!    instructions" from "parking at all".

use crate::report::Report;
use crate::runner::{sweep, MlpGrouping};
use crate::ExperimentCtx;
use ltp_core::{ClassifierKind, LtpConfig};
use ltp_pipeline::PipelineConfig;
use ltp_workloads::WorkloadKind;

/// Runs all four ablations.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let mut report = Report::new("ablation");
    prefetcher_ablation(ctx, &mut report);
    report.push_text("\n");
    monitor_ablation(ctx, &mut report);
    report.push_text("\n");
    reserve_ablation(ctx, &mut report);
    report.push_text("\n");
    classifier_ablation(ctx, &mut report);
    report
}

/// The classifier kinds the ablation sweeps: every self-contained kind plus
/// the trace oracle.
#[must_use]
pub fn classifier_dimension() -> Vec<ClassifierKind> {
    let mut kinds = vec![ClassifierKind::Oracle];
    kinds.extend(ClassifierKind::SWEEPABLE);
    kinds
}

fn classifier_ablation(ctx: &ExperimentCtx<'_>, report: &mut Report) {
    let classifiers = classifier_dimension();
    let runs = sweep(
        ctx,
        &classifiers,
        &[
            WorkloadKind::IndirectStream,
            WorkloadKind::GatherFp,
            WorkloadKind::ComputeBound,
        ],
        |classifier| PipelineConfig::ltp_proposed().with_classifier(classifier),
    );

    let mut rows = Vec::new();
    for classifier in classifiers {
        let i = &runs[(classifier, WorkloadKind::IndirectStream)];
        rows.push(vec![
            classifier.label().to_string(),
            format!("{:.3}", i.cpi()),
            format!("{:.3}", runs[(classifier, WorkloadKind::GatherFp)].cpi()),
            format!(
                "{:.3}",
                runs[(classifier, WorkloadKind::ComputeBound)].cpi()
            ),
            format!("{:.0}", i.ltp.park_fraction() * 100.0),
            i.ltp.force_released.to_string(),
        ]);
    }
    report.push_text("Ablation 4: criticality classifier (proposed design, classifier swept)\n");
    report.push_table(
        &[
            "classifier",
            "indirect CPI",
            "gather CPI",
            "compute CPI",
            "indirect parked %",
            "indirect forced rel",
        ],
        rows,
    );
    report.push_text(
        "Expectation: oracle <= uit < random on memory-bound kernels (informed parking wins);\n\
         always-ready tracks the no-LTP small core, park-everything survives on the forced\n\
         release path but pays for it. Compute-bound code barely distinguishes them because\n\
         the monitor keeps LTP off.\n",
    );
}

fn prefetcher_ablation(ctx: &ExperimentCtx<'_>, report: &mut Report) {
    // Keyed by (prefetcher on, IQ entries).
    let configs = [(true, 32), (true, 256), (false, 32), (false, 256)];
    let runs = sweep(ctx, &configs, &WorkloadKind::ALL, |(with_pf, iq)| {
        let cfg = PipelineConfig::limit_study_unlimited().with_iq(iq);
        if with_pf {
            cfg
        } else {
            cfg.with_mem(cfg.mem.without_prefetcher())
        }
    });
    let with_pf = MlpGrouping::from_runs(&runs, (true, 32), (true, 256));
    let without_pf = MlpGrouping::from_runs(&runs, (false, 32), (false, 256));

    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let sensitive = |grouping: &MlpGrouping| {
            if grouping.sensitive.contains(&kind) {
                "yes".to_string()
            } else {
                "no".to_string()
            }
        };
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.3}", runs[((true, 32), kind)].cpi()),
            format!("{:.3}", runs[((false, 32), kind)].cpi()),
            sensitive(&with_pf),
            sensitive(&without_pf),
        ]);
    }
    report.push_text("Ablation 1: L2 stride prefetcher on/off (limit-study machine)\n");
    report.push_table(
        &[
            "workload",
            "CPI pf-on IQ32",
            "CPI pf-off IQ32",
            "MLP-sensitive (pf on)",
            "MLP-sensitive (pf off)",
        ],
        rows,
    );
    report.push_text(
        "Expectation: regular (streaming) kernels slow down and may become MLP-sensitive\n\
         once the prefetcher no longer hides their misses, which is why the paper keeps the\n\
         prefetcher on for all classification.\n",
    );
}

fn monitor_ablation(ctx: &ExperimentCtx<'_>, report: &mut Report) {
    let kinds = [
        WorkloadKind::ComputeBound,
        WorkloadKind::StencilStream,
        WorkloadKind::IndirectStream,
        WorkloadKind::MixedPhases,
    ];
    let runs = sweep(ctx, &[true, false], &kinds, |monitored| {
        if monitored {
            PipelineConfig::ltp_proposed()
        } else {
            PipelineConfig::ltp_proposed().with_ltp(LtpConfig::nu_only_128x4().with_monitor(false))
        }
    });

    let mut rows = Vec::new();
    for kind in kinds {
        let m = &runs[(true, kind)];
        let a = &runs[(false, kind)];
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.3}", m.cpi()),
            format!("{:.3}", a.cpi()),
            format!("{:.0}", m.ltp.park_fraction() * 100.0),
            format!("{:.0}", a.ltp.park_fraction() * 100.0),
            format!("{:.0}", m.ltp_enabled_fraction * 100.0),
        ]);
    }
    report.push_text("Ablation 2: DRAM-timer monitor (§5.2) vs. always-on LTP (proposed design)\n");
    report.push_table(
        &[
            "workload",
            "CPI monitor",
            "CPI always-on",
            "parked % monitor",
            "parked % always-on",
            "enabled % monitor",
        ],
        rows,
    );
    report.push_text(
        "Expectation: performance barely changes, but without the monitor compute-bound code\n\
         parks nearly every instruction for no benefit (wasting LTP energy), which is exactly\n\
         why the monitor exists.\n",
    );
}

fn reserve_ablation(ctx: &ExperimentCtx<'_>, report: &mut Report) {
    let reserves = [2usize, 8, 16, 32];
    let runs = sweep(
        ctx,
        &reserves,
        &[WorkloadKind::IndirectStream, WorkloadKind::GatherFp],
        |reserve| {
            let mut cfg = PipelineConfig::ltp_proposed();
            cfg.ltp_reserve = reserve;
            cfg
        },
    );

    let rows = reserves
        .iter()
        .map(|&r| {
            vec![
                r.to_string(),
                format!("{:.3}", runs[(r, WorkloadKind::IndirectStream)].cpi()),
                format!("{:.3}", runs[(r, WorkloadKind::GatherFp)].cpi()),
            ]
        })
        .collect();
    report.push_text("Ablation 3: size of the §5.4 release reserve (proposed design)\n");
    report.push_table(&["reserve", "indirect_stream CPI", "gather_fp CPI"], rows);
    report.push_text(
        "Expectation: a small reserve is enough; very large reserves start to steal dispatch\n\
         capacity from the front end.\n",
    );
}
