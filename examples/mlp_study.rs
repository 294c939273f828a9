//! A miniature version of the paper's evaluation flow: classify the workload
//! suite into MLP-sensitive and MLP-insensitive groups with the §4.1
//! criterion, then compare the baseline, the naively shrunk core and the LTP
//! design on both groups.
//!
//! ```text
//! cargo run --release --example mlp_study
//! ```

use ltp_experiments::runner::names;
use ltp_experiments::{run_point, ExperimentCtx, MlpGrouping, RunOptions};
use ltp_pipeline::PipelineConfig;
use ltp_stats::MeanAccumulator;
use ltp_workloads::WorkloadKind;

fn group_cpi(group: &[WorkloadKind], cfg: PipelineConfig, opts: &RunOptions) -> f64 {
    let mut acc = MeanAccumulator::new();
    for &kind in group {
        acc.add(run_point(kind, cfg, opts).cpi());
    }
    acc.mean()
}

fn main() {
    let opts = RunOptions {
        detail_insts: 15_000,
        warm_insts: 10_000,
        seed: 99,
    };

    println!("Deriving the MLP grouping with the paper's criterion (§4.1)...\n");
    let grouping = MlpGrouping::derive(&ExperimentCtx::new(&opts));
    println!("MLP-sensitive:   {}", names(&grouping.sensitive));
    println!("MLP-insensitive: {}\n", names(&grouping.insensitive));

    let configs = [
        ("baseline IQ64/RF128", PipelineConfig::micro2015_baseline()),
        ("small    IQ32/RF96", PipelineConfig::small_no_ltp()),
        ("LTP      IQ32/RF96+LTP", PipelineConfig::ltp_proposed()),
    ];

    for (label, group) in [
        ("MLP-sensitive", &grouping.sensitive),
        ("MLP-insensitive", &grouping.insensitive),
    ] {
        if group.is_empty() {
            continue;
        }
        println!("--- {label} group ---");
        let base = group_cpi(group, configs[0].1, &opts);
        for (name, cfg) in configs {
            let cpi = group_cpi(group, cfg, &opts);
            println!(
                "  {:<24} CPI {:>6.3}   vs baseline {:+.1}%",
                name,
                cpi,
                (base / cpi - 1.0) * 100.0
            );
        }
        println!();
    }

    println!(
        "The LTP design should sit close to the baseline on both groups, while the\n\
         naively shrunk core loses noticeably more on the MLP-sensitive group —\n\
         the paper's headline result."
    );
}
