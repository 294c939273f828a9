//! Shared machinery for running workloads through simulator configurations:
//! one point ([`run_point`]), a grid of points (`sweep`) and the §4.1
//! workload grouping ([`MlpGrouping`]).

use crate::parallel::par_map;
use crate::sim::SimBuilder;
use crate::ExperimentCtx;
use ltp_core::{LtpConfig, LtpMode};
use ltp_pipeline::{PipelineConfig, RunResult};
use ltp_snapshot::encode_value;
use ltp_stats::MeanAccumulator;
use ltp_workloads::WorkloadKind;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Mutex;

/// How many instructions each simulation point runs in detail by default.
pub const DEFAULT_DETAIL_INSTS: u64 = 30_000;
/// How many instructions are used to warm the caches before detailed
/// simulation (the paper warms for 250 M instructions on real SPEC; the
/// synthetic kernels reach steady state much sooner).
pub const DEFAULT_WARM_INSTS: u64 = 20_000;

/// Options controlling a batch of experiment runs.
///
/// Both instruction budgets are `u64` (they used to mix `u64` and `usize`,
/// which forced casts at every boundary between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunOptions {
    /// Detailed instructions per simulation point.
    pub detail_insts: u64,
    /// Cache-warming instructions per simulation point.
    pub warm_insts: u64,
    /// Seed for the workload generators.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            detail_insts: DEFAULT_DETAIL_INSTS,
            warm_insts: DEFAULT_WARM_INSTS,
            seed: 2015,
        }
    }
}

impl RunOptions {
    /// A faster variant for smoke tests (about 5x fewer instructions).
    #[must_use]
    pub fn quick() -> RunOptions {
        RunOptions {
            detail_insts: 6_000,
            warm_insts: 4_000,
            seed: 2015,
        }
    }
}

/// Runs one workload on one configuration through [`SimBuilder`].
///
/// The same dynamic trace is used for cache warming, oracle analysis and the
/// detailed run so that the oracle's view matches what the pipeline executes.
/// To handle a [`ltp_pipeline::RunError`] (e.g. a deadlocked configuration)
/// as data, call [`SimBuilder::run`] instead.
///
/// # Panics
///
/// Panics when the run fails.
#[must_use]
pub fn run_point(kind: WorkloadKind, cfg: PipelineConfig, opts: &RunOptions) -> RunResult {
    SimBuilder::new(cfg, kind)
        .options(opts)
        .run()
        .unwrap_or_else(|e| panic!("simulation of {} failed: {e}", kind.name()))
}

/// The results of a [`sweep`], keyed by (configuration key, workload).
#[derive(Debug)]
pub(crate) struct Sweep<K>(HashMap<(K, WorkloadKind), RunResult>);

impl<K: Copy + Eq + Hash> Sweep<K> {
    /// The mean of `metric` over the runs of `group` on configuration `key`.
    ///
    /// # Panics
    ///
    /// Panics when `group` is empty (callers skip an empty group, see
    /// [`MlpGrouping::groups`]) or holds a point the sweep did not run.
    #[must_use]
    pub(crate) fn mean(
        &self,
        key: K,
        group: &[WorkloadKind],
        metric: impl Fn(&RunResult) -> f64,
    ) -> f64 {
        group_mean(group, |kind| metric(&self[(key, kind)])).expect("group is non-empty")
    }
}

impl<K: Copy + Eq + Hash> std::ops::Index<(K, WorkloadKind)> for Sweep<K> {
    type Output = RunResult;

    fn index(&self, point: (K, WorkloadKind)) -> &RunResult {
        &self.0[&point]
    }
}

/// The finished single-thread points of an [`ExperimentCtx`], keyed by the
/// run options, the machine's canonical encoding and the workload.
pub(crate) type PointMemo = Mutex<HashMap<(RunOptions, Vec<u8>, WorkloadKind), RunResult>>;

/// Runs every point of the grid `configs` × `kinds` in parallel through
/// [`run_point`] with the context's options. `config` maps a configuration
/// key to its machine. Each distinct point simulates once per context: a
/// point the context has run before, or one that two keys map to, reuses
/// that run.
///
/// # Panics
///
/// Panics when a point fails, like [`run_point`].
#[must_use]
pub(crate) fn sweep<K>(
    ctx: &ExperimentCtx<'_>,
    configs: &[K],
    kinds: &[WorkloadKind],
    config: impl Fn(K) -> PipelineConfig + Sync,
) -> Sweep<K>
where
    K: Copy + Eq + Hash + Send + Sync,
{
    let machines: Vec<PipelineConfig> = configs.iter().map(|&key| config(key)).collect();
    let key_of = |&(c, kind): &(usize, WorkloadKind)| (*ctx.opts, encode_value(&machines[c]), kind);
    let points: Vec<(usize, WorkloadKind)> = (0..configs.len())
        .flat_map(|c| kinds.iter().map(move |&kind| (c, kind)))
        .collect();
    let memo = ctx.points.lock().expect("memo poisoned by a sweep panic");
    let (mut fresh, mut queued) = (points.clone(), HashSet::new());
    fresh.retain(|p| !memo.contains_key(&key_of(p)) && queued.insert(key_of(p)));
    drop(memo);
    let results = par_map(fresh.clone(), |&(c, kind)| {
        run_point(kind, machines[c], ctx.opts)
    });
    let mut memo = ctx.points.lock().expect("memo poisoned by a sweep panic");
    memo.extend(fresh.iter().map(key_of).zip(results));
    let run = |p: &(usize, WorkloadKind)| ((configs[p.0], p.1), memo[&key_of(p)].clone());
    Sweep(points.iter().map(run).collect())
}

/// The outcome of grouping the workload suite with the paper's §4.1
/// MLP-sensitivity criterion (small vs. large instruction window).
#[derive(Debug, Clone)]
pub struct MlpGrouping {
    /// Workloads classified MLP-sensitive.
    pub sensitive: Vec<WorkloadKind>,
    /// Workloads classified MLP-insensitive.
    pub insensitive: Vec<WorkloadKind>,
}

impl MlpGrouping {
    /// Applies the paper's criterion: compare each workload on a 32-entry IQ
    /// versus a 256-entry IQ (everything else unlimited, prefetcher on),
    /// running the 14 points in parallel with the context's options.
    #[must_use]
    pub fn derive(ctx: &ExperimentCtx<'_>) -> MlpGrouping {
        let runs = sweep(ctx, &[32, 256], &WorkloadKind::ALL, |iq| {
            PipelineConfig::limit_study_unlimited().with_iq(iq)
        });
        MlpGrouping::from_runs(&runs, 32, 256)
    }

    /// Groups the workload suite from a sweep holding every workload's run
    /// on a small-window machine (`small`) and a large-window one (`large`):
    /// a workload is MLP-sensitive when the large window gives a >5 %
    /// speed-up, >10 % more outstanding requests, and an average memory
    /// latency above the L2 latency.
    #[must_use]
    pub(crate) fn from_runs<K: Copy + Eq + Hash>(
        runs: &Sweep<K>,
        small: K,
        large: K,
    ) -> MlpGrouping {
        let l2_latency = PipelineConfig::micro2015_baseline().mem.l2.latency;
        let (sensitive, insensitive) = WorkloadKind::ALL.into_iter().partition(|&kind| {
            runs[(large, kind)].is_mlp_sensitive_vs(&runs[(small, kind)], l2_latency)
        });
        MlpGrouping {
            sensitive,
            insensitive,
        }
    }

    /// The two groups with their report labels, skipping an empty group
    /// (possible under quick options).
    pub(crate) fn groups(&self) -> impl Iterator<Item = (&'static str, &[WorkloadKind])> {
        [
            ("mlp_sensitive", self.sensitive.as_slice()),
            ("mlp_insensitive", self.insensitive.as_slice()),
        ]
        .into_iter()
        .filter(|(_, group)| !group.is_empty())
    }
}

/// The workload names of `group`, comma-separated.
#[must_use]
pub fn names(group: &[WorkloadKind]) -> String {
    group
        .iter()
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Average of a per-workload metric over a group of workloads.
///
/// Returns `None` for an empty group. (An empty MLP-sensitive or
/// MLP-insensitive set is reachable under [`RunOptions::quick`]; the mean of
/// nothing used to come back as NaN and silently propagate into figure
/// tables, so the empty case is explicit — callers skip the row.)
#[must_use]
pub fn group_mean<F>(group: &[WorkloadKind], mut metric: F) -> Option<f64>
where
    F: FnMut(WorkloadKind) -> f64,
{
    if group.is_empty() {
        return None;
    }
    let mut acc = MeanAccumulator::new();
    for &k in group {
        acc.add(metric(k));
    }
    Some(acc.mean())
}

/// Builds the limit-study configuration for a given LTP mode: unlimited
/// resources, oracle classification, ideal LTP of that mode.
#[must_use]
pub fn limit_study_config(mode: LtpMode) -> PipelineConfig {
    let base = PipelineConfig::limit_study_unlimited();
    match mode {
        LtpMode::Off => base.with_ltp(LtpConfig::disabled()),
        m => base.with_ltp(LtpConfig::ideal(m)).with_oracle(true),
    }
}

/// The machine configurations addressable by name — the shared vocabulary of
/// the `ltp-service` job requests and the CLI.
pub const NAMED_CONFIGS: [&str; 4] = [
    "micro2015_baseline",
    "ltp_proposed",
    "small_no_ltp",
    "limit_study_unlimited",
];

/// Resolves one of the [`NAMED_CONFIGS`] to its [`PipelineConfig`].
#[must_use]
pub fn named_config(name: &str) -> Option<PipelineConfig> {
    match name {
        "micro2015_baseline" => Some(PipelineConfig::micro2015_baseline()),
        "ltp_proposed" => Some(PipelineConfig::ltp_proposed()),
        "small_no_ltp" => Some(PipelineConfig::small_no_ltp()),
        "limit_study_unlimited" => Some(PipelineConfig::limit_study_unlimited()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_pipeline::RunError;

    #[test]
    fn run_point_commits_requested_instructions() {
        let opts = RunOptions {
            detail_insts: 2_000,
            warm_insts: 500,
            seed: 7,
        };
        let r = run_point(
            WorkloadKind::ComputeBound,
            PipelineConfig::micro2015_baseline(),
            &opts,
        );
        assert_eq!(r.instructions, 2_000);
        assert!(r.cpi() > 0.1);
    }

    #[test]
    fn oracle_runs_work_on_limit_config() {
        let opts = RunOptions {
            detail_insts: 2_000,
            warm_insts: 500,
            seed: 7,
        };
        let cfg = limit_study_config(LtpMode::NonUrgentOnly).with_iq(32);
        let r = run_point(WorkloadKind::IndirectStream, cfg, &opts);
        assert_eq!(r.instructions, 2_000);
        assert!(r.ltp.total_parked() > 0);
    }

    #[test]
    fn group_mean_averages() {
        let group = [WorkloadKind::ComputeBound, WorkloadKind::StencilStream];
        let mean = group_mean(&group, |k| {
            if k == WorkloadKind::ComputeBound {
                1.0
            } else {
                3.0
            }
        })
        .expect("non-empty group");
        assert!((mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn group_mean_of_empty_group_is_none_not_nan() {
        let mut calls = 0;
        let mean = group_mean(&[], |_| {
            calls += 1;
            f64::NAN
        });
        assert_eq!(mean, None, "empty group must be explicit, not NaN");
        assert_eq!(calls, 0, "the metric must not be evaluated");
    }

    #[test]
    fn groups_skip_an_empty_group() {
        let grouping = MlpGrouping {
            sensitive: vec![WorkloadKind::PointerChase],
            insensitive: Vec::new(),
        };
        let groups: Vec<_> = grouping.groups().collect();
        assert_eq!(
            groups,
            [("mlp_sensitive", &[WorkloadKind::PointerChase][..])]
        );
    }

    /// Tags every point in the context's memo. A point that simulates
    /// again replaces its memo entry and loses the tag.
    fn tag_memo(ctx: &ExperimentCtx<'_>) -> usize {
        let mut memo = ctx.points.lock().expect("memo");
        for r in memo.values_mut() {
            r.workload.push_str(" (memo)");
        }
        memo.len()
    }

    fn tagged_points(ctx: &ExperimentCtx<'_>) -> usize {
        let memo = ctx.points.lock().expect("memo");
        memo.values()
            .filter(|r| r.workload.ends_with(" (memo)"))
            .count()
    }

    /// A derive on a context that already derived the grouping simulates
    /// nothing: every point it needs comes from the memo.
    #[test]
    fn a_repeated_derive_simulates_nothing() {
        let opts = RunOptions {
            detail_insts: 1_000,
            warm_insts: 500,
            seed: 2015,
        };
        let ctx = ExperimentCtx::new(&opts);
        let first = MlpGrouping::derive(&ctx);
        assert_eq!(
            tag_memo(&ctx),
            14,
            "the first derive simulates its 14 points"
        );
        let second = MlpGrouping::derive(&ctx);
        assert_eq!(
            tagged_points(&ctx),
            14,
            "the second derive simulates nothing"
        );
        assert_eq!(ctx.points.lock().expect("memo").len(), 14);
        assert_eq!(first.sensitive, second.sensitive);
        assert_eq!(first.insensitive, second.insensitive);
    }

    #[test]
    fn two_keys_on_one_machine_simulate_it_once() {
        let opts = RunOptions {
            detail_insts: 1_000,
            warm_insts: 500,
            seed: 2015,
        };
        let ctx = ExperimentCtx::new(&opts);
        let kind = WorkloadKind::ComputeBound;
        let runs = sweep(&ctx, &[1, 2], &[kind], |_| {
            PipelineConfig::micro2015_baseline()
        });
        assert_eq!(tag_memo(&ctx), 1, "one machine, one simulation");
        assert_eq!(runs[(1, kind)].cycles, runs[(2, kind)].cycles);
        let again = sweep(&ctx, &[3], &[kind], |_| {
            PipelineConfig::micro2015_baseline()
        });
        assert_eq!(tagged_points(&ctx), 1, "a third key reuses the run");
        assert_eq!(again[(3, kind)].cycles, runs[(1, kind)].cycles);
    }

    #[test]
    fn limit_config_modes() {
        assert!(!limit_study_config(LtpMode::Off).ltp.mode.is_enabled());
        assert!(limit_study_config(LtpMode::Both).needs_oracle());
    }

    #[test]
    fn try_run_point_exposes_the_result_path() {
        // The Ok side of the structured-error API that `run_point` unwraps;
        // the Err side (a genuinely stuck machine producing
        // `RunError::Deadlock` with its snapshot) is covered by
        // `ltp-pipeline`'s `stuck_machine_surfaces_deadlock_as_data`.
        let opts = RunOptions {
            detail_insts: 1_000,
            warm_insts: 100,
            seed: 3,
        };
        let cfg = PipelineConfig::micro2015_baseline();
        let r = SimBuilder::new(cfg, WorkloadKind::StencilStream)
            .options(&opts)
            .run();
        match r {
            Ok(res) => assert_eq!(res.instructions, 1_000),
            Err(
                e @ (RunError::Deadlock { .. }
                | RunError::OracleNotAttached
                | RunError::SnapshotUnsupported(_)),
            ) => {
                panic!("unexpected run error: {e}")
            }
        }
    }
}
