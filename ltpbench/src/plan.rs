//! What one benchmark run does: the workloads, their simulation points, the
//! instruction budgets and how many times each piece of work repeats.
//!
//! Every run does a fixed amount of work derived from `--seed` and
//! `--seconds` only — never "as many operations as fit" — so operation
//! counts, digests and peak RSS repeat from run to run. A run splits that
//! work over [`PROCESSES`] measuring processes, run one after another: how
//! fast identical work runs varies far more between processes than within
//! one, so the metrics are computed over the samples of several.

use ltp_core::LtpMode;
use ltp_experiments::runner::limit_study_config;
use ltp_experiments::sampled::SampleSpec;
use ltp_experiments::RunOptions;
use ltp_pipeline::PipelineConfig;
use ltp_workloads::WorkloadKind;

/// Measuring processes per untraced run.
pub const PROCESSES: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-detail simulation points through `SimBuilder::run_on`.
    FullDetail,
    /// Cold sampled points through `SampledRequest::run`, each with an empty
    /// checkpoint cache and a journal.
    SampledCold,
    /// Warm-cache point jobs through the HTTP job server.
    ServiceWarm,
}

impl Workload {
    /// Every workload, in the order a traced run measures them (the service
    /// first, so its peak RSS is read before the larger sampled traces exist).
    pub const ALL: [Workload; 3] = [
        Workload::ServiceWarm,
        Workload::FullDetail,
        Workload::SampledCold,
    ];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FullDetail => "full_detail",
            Workload::SampledCold => "sampled_cold",
            Workload::ServiceWarm => "service_warm",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one measured round takes at full size and nominal speed,
    /// reference kernels included, used to turn `--seconds` into a fixed
    /// round count.
    fn round_seconds(self) -> f64 {
        match self {
            Workload::FullDetail => 0.65,
            Workload::SampledCold => 1.3,
            Workload::ServiceWarm => 0.55,
        }
    }
}

/// One simulation point: a kernel under a machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The kernel.
    pub kind: WorkloadKind,
    /// Configuration name, used in digests, journals and job requests.
    pub label: &'static str,
    /// The configuration.
    pub cfg: PipelineConfig,
}

/// The fixed work of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Kernels every workload runs.
    pub kernels: Vec<WorkloadKind>,
    /// Full-detail budgets.
    pub opts: RunOptions,
    /// Sampled-run geometry of `sampled_cold`.
    pub sampled: SampleSpec,
    /// Sampled-run geometry of a `service_warm` job (the `"quick"` spec).
    pub service: SampleSpec,
    /// Measured rounds of one measuring process; one round runs every point
    /// of the workload once.
    pub rounds: usize,
    /// Set-up repetitions of one measuring process; `setup_s` sums each
    /// set-up piece's median over the set-ups of all processes.
    pub setups: usize,
    /// Nominal reference kernel time in ms (see [`crate::norm`]).
    pub nominal_ref_ms: f64,
}

impl Plan {
    /// The plan of one measuring process of a full-size run of `workload`:
    /// every kernel, default budgets, two set-ups, and its share of the
    /// rounds that take about `seconds` at nominal speed.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: u64, nominal_ref_ms: f64) -> Plan {
        let opts = RunOptions {
            seed,
            ..RunOptions::default()
        };
        let quick = RunOptions {
            seed,
            ..RunOptions::quick()
        };
        let rounds = (seconds as f64 / workload.round_seconds() / PROCESSES as f64)
            .round()
            .max(2.0) as usize;
        Plan {
            kernels: WorkloadKind::ALL.to_vec(),
            opts,
            sampled: SampleSpec::from_options(&opts),
            service: SampleSpec::from_options(&quick),
            rounds,
            setups: 2,
            nominal_ref_ms,
        }
    }

    /// A plan small enough for unit tests: two kernels, tiny budgets.
    #[must_use]
    pub fn tiny(seed: u64) -> Plan {
        let opts = RunOptions {
            detail_insts: 2_000,
            warm_insts: 500,
            seed,
        };
        Plan {
            kernels: vec![WorkloadKind::IndirectStream, WorkloadKind::ComputeBound],
            opts,
            sampled: SampleSpec::from_options(&opts),
            service: SampleSpec::from_options(&opts),
            rounds: 2,
            setups: 2,
            nominal_ref_ms: 1.0,
        }
    }

    /// Points of `full_detail` and `sampled_cold`: every kernel under the
    /// baseline, the proposed LTP design and the oracle limit study at IQ 32.
    #[must_use]
    pub fn detail_points(&self) -> Vec<Point> {
        let configs = [
            ("micro2015_baseline", PipelineConfig::micro2015_baseline()),
            ("ltp_proposed", PipelineConfig::ltp_proposed()),
            ("oracle_iq32", limit_study_config(LtpMode::Both).with_iq(32)),
        ];
        self.points(&configs)
    }

    /// Points of `service_warm`: every kernel under the two named
    /// configurations a job can ask for that are not limit studies.
    #[must_use]
    pub fn service_points(&self) -> Vec<Point> {
        let configs = [
            ("micro2015_baseline", PipelineConfig::micro2015_baseline()),
            ("ltp_proposed", PipelineConfig::ltp_proposed()),
        ];
        self.points(&configs)
    }

    fn points(&self, configs: &[(&'static str, PipelineConfig)]) -> Vec<Point> {
        self.kernels
            .iter()
            .flat_map(|&kind| {
                configs
                    .iter()
                    .map(move |&(label, cfg)| Point { kind, label, cfg })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_fixed_by_seed_and_seconds() {
        let a = Plan::new(Workload::FullDetail, 7, 16, 3.0);
        let b = Plan::new(Workload::FullDetail, 7, 16, 3.0);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.detail_points().len(), 21);
        assert_eq!(a.service_points().len(), 14);
        assert_eq!(a.sampled.total_insts, 480_000);
        assert_eq!(a.sampled.intervals, 6);
        assert_eq!(a.service.seed, 7);
        assert!(Plan::new(Workload::ServiceWarm, 7, 1, 3.0).rounds >= 2);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
