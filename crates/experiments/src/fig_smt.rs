//! SMT co-run experiment: LTP freeing shared back-end resources for a
//! co-runner.
//!
//! The paper's headline SMT result is that parking non-critical instructions
//! releases shared resources (ROB, IQ, physical registers, LQ/SQ) that a
//! second hardware thread can consume, so the *aggregate* throughput of a
//! co-run improves even when single-thread IPC is unchanged. This experiment
//! co-schedules pairs of workloads on one shared back end (the proposed
//! IQ 32 / RF 96 sizing) with the dynamic [`SharePolicy::Shared`] policy and
//! reports, per pair:
//!
//! * per-thread IPC and aggregate throughput for the baseline (no LTP) and
//!   the LTP design (runtime UIT classifier and oracle classification),
//! * per-thread ROB and IQ occupancy, which shows the co-runner of an
//!   LTP-parking thread occupying the entries that parking freed,
//! * the number of instructions parked.
//!
//! A second table compares the three sharing policies (static partition,
//! dynamic shared, ICOUNT fetch arbitration) on one memory-bound pair.

use crate::parallel::par_map;
use crate::report::Report;
use crate::runner::RunOptions;
use crate::sim::SimBuilder;
use crate::ExperimentCtx;
use ltp_pipeline::{PipelineConfig, SharePolicy, SmtRunResult};
use ltp_workloads::WorkloadKind;
use std::collections::HashMap;

/// The co-run pairs: memory-bound pairs (where LTP has resources to free),
/// mixed memory/compute pairs, and a compute-bound control pair.
const PAIRS: [(WorkloadKind, WorkloadKind); 6] = [
    (WorkloadKind::IndirectStream, WorkloadKind::GatherFp),
    (WorkloadKind::IndirectStream, WorkloadKind::ComputeBound),
    (WorkloadKind::GatherFp, WorkloadKind::HashProbe),
    (WorkloadKind::PointerChase, WorkloadKind::IndirectStream),
    (WorkloadKind::MixedPhases, WorkloadKind::HashProbe),
    (WorkloadKind::ComputeBound, WorkloadKind::StencilStream),
];

/// The machine/classifier points compared for every pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Point {
    /// IQ 32 / RF 96 without LTP (the Figure 10 "red line" sizing).
    Baseline,
    /// The proposed LTP design with the runtime UIT classifier.
    LtpUit,
    /// The proposed LTP design with oracle classification.
    LtpOracle,
}

impl Point {
    const ALL: [Point; 3] = [Point::Baseline, Point::LtpUit, Point::LtpOracle];

    fn label(self) -> &'static str {
        match self {
            Point::Baseline => "baseline",
            Point::LtpUit => "ltp/uit",
            Point::LtpOracle => "ltp/oracle",
        }
    }

    fn config(self) -> PipelineConfig {
        match self {
            Point::Baseline => PipelineConfig::small_no_ltp(),
            Point::LtpUit => PipelineConfig::ltp_proposed(),
            Point::LtpOracle => PipelineConfig::ltp_proposed().with_oracle(true),
        }
        .smt(SharePolicy::Shared)
    }
}

fn co_run(
    pair: (WorkloadKind, WorkloadKind),
    cfg: PipelineConfig,
    opts: &RunOptions,
) -> SmtRunResult {
    SimBuilder::co_run(cfg, pair.0, pair.1)
        .options(opts)
        .run()
        .unwrap_or_else(|e| panic!("co-run {}+{} failed: {e}", pair.0, pair.1))
}

/// Runs the SMT co-run experiment and returns the report.
#[must_use]
pub fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let opts = ctx.opts;
    let points: Vec<((WorkloadKind, WorkloadKind), Point)> = PAIRS
        .iter()
        .flat_map(|&pair| Point::ALL.iter().map(move |&p| (pair, p)))
        .collect();
    let results = par_map(points.clone(), |&(pair, point)| {
        co_run(pair, point.config(), opts)
    });
    let by_point: HashMap<((WorkloadKind, WorkloadKind), Point), SmtRunResult> =
        points.into_iter().zip(results).collect();

    let mut report = Report::new("fig_smt");
    report.push_text(
        "SMT co-run: two threads sharing one IQ 32 / RF 96 back end (dynamic sharing).\n\
         Baseline has no LTP; the LTP rows add the 128-entry 4-port Non-Urgent LTP.\n\
         \"vs base %\" is the aggregate-throughput gain over the pair's baseline —\n\
         positive when resources freed by parking are consumed by the co-runner.\n\n",
    );

    let mut rows = Vec::new();
    for pair in PAIRS {
        let base_agg = by_point[&(pair, Point::Baseline)].aggregate_ipc();
        for point in Point::ALL {
            let r = &by_point[&(pair, point)];
            let (t0, t1) = (&r.threads[0], &r.threads[1]);
            rows.push(vec![
                if point == Point::Baseline {
                    format!("{}+{}", pair.0, pair.1)
                } else {
                    String::new()
                },
                point.label().to_string(),
                format!("{:.3}", r.thread_ipc(0)),
                format!("{:.3}", r.thread_ipc(1)),
                format!("{:.3}", r.aggregate_ipc()),
                format!("{:+.1}", (r.aggregate_ipc() / base_agg - 1.0) * 100.0),
                format!(
                    "{:.1}/{:.1}",
                    t0.occupancy.rob.mean(),
                    t1.occupancy.rob.mean()
                ),
                format!(
                    "{:.1}/{:.1}",
                    t0.occupancy.iq.mean(),
                    t1.occupancy.iq.mean()
                ),
                format!("{}", t0.ltp.total_parked() + t1.ltp.total_parked()),
            ]);
        }
    }
    report.push_table(
        &[
            "pair",
            "config",
            "t0 ipc",
            "t1 ipc",
            "agg ipc",
            "vs base %",
            "t0/t1 rob",
            "t0/t1 iq",
            "parked",
        ],
        rows,
    );

    // Sharing-policy comparison on the headline memory-bound pair.
    let policy_pair = PAIRS[0];
    let policies = [
        SharePolicy::StaticPartition,
        SharePolicy::Shared,
        SharePolicy::Icount,
    ];
    let policy_results = par_map(policies.to_vec(), |&policy| {
        co_run(
            policy_pair,
            PipelineConfig::ltp_proposed().smt(policy),
            opts,
        )
    });
    report.push_text(format!(
        "\nSharing policies ({}+{}, ltp/uit):\n",
        policy_pair.0, policy_pair.1
    ));
    let rows = policies
        .iter()
        .zip(policy_results)
        .map(|(policy, r)| {
            vec![
                policy.label().to_string(),
                format!("{:.3}", r.thread_ipc(0)),
                format!("{:.3}", r.thread_ipc(1)),
                format!("{:.3}", r.aggregate_ipc()),
            ]
        })
        .collect();
    report.push_table(&["policy", "t0 ipc", "t1 ipc", "agg ipc"], rows);
    report.push_text(
        "\nReading the tables: when both co-runners are memory-bound (the first pair) both\n\
         threads park, the freed IQ/RF entries are consumed by the co-runner, and per-thread\n\
         IPC and aggregate throughput beat the baseline. Pairing a parking thread with a\n\
         compute-bound co-runner can dip: the co-runner cannot always convert the freed\n\
         entries into progress while the parking thread pays its release latency — the\n\
         paper's SMT gains are likewise workload-dependent. Dynamic sharing beats the\n\
         static partition because a stalled thread's entries are never locked away from\n\
         its co-runner.\n",
    );
    report
}
