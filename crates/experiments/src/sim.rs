//! One-stop construction of a ready-to-run simulation point.
//!
//! Every harness in this workspace used to repeat the same five steps:
//! generate a warm-up trace, generate the detailed trace, build the
//! processor, warm the caches, attach the oracle when the configuration asks
//! for one, run. [`SimBuilder`] owns that recipe; [`crate::runner::run_point`],
//! the examples and the benches all build on it.

use crate::runner::{RunOptions, DEFAULT_DETAIL_INSTS, DEFAULT_WARM_INSTS};
use ltp_core::{OracleAnalysis, OracleClassifier};
use ltp_isa::DynInst;
use ltp_pipeline::{PipelineConfig, Processor, RunError, RunResult, SharePolicy, SmtRunResult};
use ltp_workloads::{co_trace, replay_slice, trace, WorkloadKind};

/// Builds and runs one simulation point: configuration → traces → cache
/// warming → classifier (oracle analysis when configured) → detailed run.
///
/// The warm-up trace uses `seed` and the detailed trace `seed + 1`, so the
/// caches are warmed with *different* dynamic instances of the same kernel —
/// the same discipline `run_point` has always used.
///
/// # Example
///
/// ```
/// use ltp_experiments::SimBuilder;
/// use ltp_pipeline::PipelineConfig;
/// use ltp_workloads::WorkloadKind;
///
/// let result = SimBuilder::new(PipelineConfig::ltp_proposed(), WorkloadKind::IndirectStream)
///     .seed(7)
///     .warm_insts(1_000)
///     .detail_insts(2_000)
///     .run()
///     .expect("no deadlock");
/// assert_eq!(result.instructions, 2_000);
/// ```
#[derive(Debug, Clone)]
pub struct SimBuilder {
    cfg: PipelineConfig,
    kind: WorkloadKind,
    seed: u64,
    warm_insts: u64,
    detail_insts: u64,
    oracle: Option<OracleClassifier>,
}

impl SimBuilder {
    /// Starts a builder for `kind` on `cfg` with the default instruction
    /// budgets and seed of [`RunOptions::default`].
    #[must_use]
    pub fn new(cfg: PipelineConfig, kind: WorkloadKind) -> SimBuilder {
        let defaults = RunOptions::default();
        SimBuilder {
            cfg,
            kind,
            seed: defaults.seed,
            warm_insts: DEFAULT_WARM_INSTS,
            detail_insts: DEFAULT_DETAIL_INSTS,
            oracle: None,
        }
    }

    /// Applies the budgets and seed of a [`RunOptions`].
    #[must_use]
    pub fn options(mut self, opts: &RunOptions) -> SimBuilder {
        self.seed = opts.seed;
        self.warm_insts = opts.warm_insts;
        self.detail_insts = opts.detail_insts;
        self
    }

    /// Sets the workload seed (the detailed trace uses `seed + 1`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> SimBuilder {
        self.seed = seed;
        self
    }

    /// Sets the cache-warming instruction budget (0 skips warming).
    #[must_use]
    pub fn warm_insts(mut self, warm_insts: u64) -> SimBuilder {
        self.warm_insts = warm_insts;
        self
    }

    /// Sets the detailed-simulation instruction budget.
    #[must_use]
    pub fn detail_insts(mut self, detail_insts: u64) -> SimBuilder {
        self.detail_insts = detail_insts;
        self
    }

    /// Supplies a pre-computed oracle analysis instead of analysing inside
    /// [`SimBuilder::build`]. The analysis is a pure function of the
    /// configuration and the detailed trace, so callers running the same
    /// point through several harnesses (the `sample` experiment runs
    /// full-detail *and* sampled) analyse once and share it; it must be the
    /// analysis for this builder's configuration and trace (see the
    /// crate-internal `analyze_oracle` recipe). Ignored when the
    /// configuration does not use the oracle classifier.
    #[must_use]
    pub fn oracle(mut self, oracle: OracleClassifier) -> SimBuilder {
        self.oracle = Some(oracle);
        self
    }

    /// Generates the detailed trace this builder would run.
    #[must_use]
    pub fn detail_trace(&self) -> Vec<DynInst> {
        trace(
            self.kind,
            self.seed.wrapping_add(1),
            self.detail_insts as usize,
        )
    }

    /// Builds the processor: warmed caches, oracle attached when the
    /// configuration selects [`ltp_core::ClassifierKind::Oracle`]. The
    /// returned processor is ready to consume the [`SimBuilder::detail_trace`]
    /// stream (which the oracle, if any, was analysed against).
    #[must_use]
    pub fn build(&self) -> Processor {
        self.build_against(&self.detail_trace())
    }

    /// Builds the processor, analysing the oracle (when configured) against
    /// an already-generated detailed trace so callers that hold the trace do
    /// not generate it twice.
    fn build_against(&self, detail: &[DynInst]) -> Processor {
        let mut cpu = Processor::new(self.cfg);
        if self.warm_insts > 0 {
            cpu.warm_caches(&trace(self.kind, self.seed, self.warm_insts as usize));
        }
        if self.cfg.needs_oracle() {
            cpu.set_oracle(
                self.oracle
                    .clone()
                    .unwrap_or_else(|| analyze_oracle(&self.cfg, detail)),
            );
        }
        cpu
    }

    /// Builds the processor and runs the detailed simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError::Deadlock`] from the pipeline when the
    /// configuration starves itself.
    pub fn run(&self) -> Result<RunResult, RunError> {
        let detail = self.detail_trace();
        self.run_on(&detail)
    }

    /// Builds the processor and runs it over an already-generated detailed
    /// trace. Callers replaying the same trace across many points (sweeps,
    /// benchmark iterations) share one allocation this way; the trace must
    /// be the one [`SimBuilder::detail_trace`] would generate for the oracle
    /// analysis to be sound.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError::Deadlock`] from the pipeline when the
    /// configuration starves itself.
    pub fn run_on(&self, detail: &[DynInst]) -> Result<RunResult, RunError> {
        let mut cpu = self.build_against(detail);
        cpu.run(replay_slice(self.kind.name(), detail), self.detail_insts)
    }

    /// Starts a builder for a 2-way SMT co-run of workloads `a` (thread 0)
    /// and `b` (thread 1) sharing one back end.
    ///
    /// When `cfg` is not already SMT-configured the dynamic
    /// [`SharePolicy::Shared`] policy is applied — the policy under which
    /// resources freed by LTP parking are visibly consumed by the co-runner.
    ///
    /// # Example
    ///
    /// ```
    /// use ltp_experiments::SimBuilder;
    /// use ltp_pipeline::PipelineConfig;
    /// use ltp_workloads::WorkloadKind;
    ///
    /// let result = SimBuilder::co_run(
    ///     PipelineConfig::ltp_proposed(),
    ///     WorkloadKind::IndirectStream,
    ///     WorkloadKind::GatherFp,
    /// )
    /// .seed(7)
    /// .warm_insts(500)
    /// .detail_insts(1_500)
    /// .run()
    /// .expect("no deadlock");
    /// assert_eq!(result.threads.len(), 2);
    /// assert_eq!(result.total_instructions(), 3_000);
    /// ```
    #[must_use]
    pub fn co_run(cfg: PipelineConfig, a: WorkloadKind, b: WorkloadKind) -> CoRunBuilder {
        let cfg = if cfg.smt.is_smt() {
            cfg
        } else {
            cfg.smt(SharePolicy::Shared)
        };
        let defaults = RunOptions::default();
        CoRunBuilder {
            cfg,
            kinds: [a, b],
            seed: defaults.seed,
            warm_insts: DEFAULT_WARM_INSTS,
            detail_insts: DEFAULT_DETAIL_INSTS,
        }
    }
}

/// The one place the oracle-analysis recipe lives: the in-flight window is
/// the ROB size (clamped for the limit study's unlimited machines), analysed
/// against the exact trace the detailed run will consume. Every harness —
/// [`SimBuilder`], the co-run builder, the sampled runner — must analyse
/// through here so their oracles never diverge.
pub(crate) fn analyze_oracle(
    cfg: &PipelineConfig,
    detail: &[DynInst],
) -> ltp_core::OracleClassifier {
    OracleAnalysis::new(cfg.rob_size.min(4096) as u64).analyze(detail, &cfg.mem)
}

/// Builds and runs one 2-way SMT co-run simulation point (see
/// [`SimBuilder::co_run`]): per-thread traces in disjoint address regions,
/// shared cache warming with both warm traces, a per-thread oracle analysis
/// when the configuration selects the oracle classifier, and a
/// [`Processor::run_smt`] co-run.
///
/// Seed discipline: thread `t` warms with `seed + 2t` and runs `seed + 2t + 1`,
/// so all four traces are distinct dynamic instances. Thread 0's traces are
/// identical to a [`SimBuilder`] run of the same kind and seed.
#[derive(Debug, Clone)]
pub struct CoRunBuilder {
    cfg: PipelineConfig,
    kinds: [WorkloadKind; 2],
    seed: u64,
    warm_insts: u64,
    detail_insts: u64,
}

impl CoRunBuilder {
    /// Applies the budgets and seed of a [`RunOptions`].
    #[must_use]
    pub fn options(mut self, opts: &RunOptions) -> CoRunBuilder {
        self.seed = opts.seed;
        self.warm_insts = opts.warm_insts;
        self.detail_insts = opts.detail_insts;
        self
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> CoRunBuilder {
        self.seed = seed;
        self
    }

    /// Sets the per-thread cache-warming instruction budget (0 skips it).
    #[must_use]
    pub fn warm_insts(mut self, warm_insts: u64) -> CoRunBuilder {
        self.warm_insts = warm_insts;
        self
    }

    /// Sets the per-thread detailed-simulation instruction budget.
    #[must_use]
    pub fn detail_insts(mut self, detail_insts: u64) -> CoRunBuilder {
        self.detail_insts = detail_insts;
        self
    }

    /// Builds the SMT processor and runs the co-run to completion (both
    /// streams drained).
    ///
    /// # Errors
    ///
    /// Propagates [`RunError::Deadlock`] from the pipeline when the
    /// configuration starves itself.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests more than two hardware threads
    /// (the builder prepares exactly two streams).
    pub fn run(&self) -> Result<SmtRunResult, RunError> {
        assert_eq!(
            self.cfg.smt.threads, 2,
            "CoRunBuilder drives exactly two hardware threads"
        );
        let details: Vec<Vec<DynInst>> = (0u8..2)
            .map(|tid| {
                co_trace(
                    self.kinds[tid as usize],
                    self.seed.wrapping_add(2 * u64::from(tid) + 1),
                    self.detail_insts as usize,
                    tid,
                )
            })
            .collect();
        let mut cpu = Processor::new(self.cfg);
        for tid in 0u8..2 {
            if self.warm_insts > 0 {
                let warm = co_trace(
                    self.kinds[tid as usize],
                    self.seed.wrapping_add(2 * u64::from(tid)),
                    self.warm_insts as usize,
                    tid,
                );
                cpu.warm_caches(&warm);
            }
            if self.cfg.needs_oracle() {
                cpu.set_oracle_for(
                    tid as usize,
                    analyze_oracle(&self.cfg, &details[tid as usize]),
                );
            }
        }
        let streams = details
            .iter()
            .zip(self.kinds)
            .map(|(d, k)| replay_slice(k.name(), d))
            .collect();
        cpu.run_smt(streams, self.detail_insts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_core::ClassifierKind;

    #[test]
    fn builder_matches_run_point() {
        let opts = RunOptions {
            detail_insts: 2_000,
            warm_insts: 500,
            seed: 7,
        };
        let a = SimBuilder::new(PipelineConfig::ltp_proposed(), WorkloadKind::IndirectStream)
            .options(&opts)
            .run()
            .expect("no deadlock");
        let b = crate::runner::run_point(
            WorkloadKind::IndirectStream,
            PipelineConfig::ltp_proposed(),
            &opts,
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.ltp.total_parked(), b.ltp.total_parked());
    }

    #[test]
    fn oracle_configs_get_their_oracle() {
        let cfg = PipelineConfig::limit_study_unlimited()
            .with_iq(32)
            .with_ltp(ltp_core::LtpConfig::ideal(ltp_core::LtpMode::NonUrgentOnly))
            .with_oracle(true);
        let r = SimBuilder::new(cfg, WorkloadKind::IndirectStream)
            .seed(3)
            .warm_insts(500)
            .detail_insts(2_000)
            .run()
            .expect("no deadlock");
        assert_eq!(r.instructions, 2_000);
        assert!(r.ltp.total_parked() > 0);
    }

    #[test]
    fn classifier_kinds_are_selectable_from_config() {
        let base = PipelineConfig::ltp_proposed();
        for kind in ClassifierKind::SWEEPABLE {
            let r = SimBuilder::new(base.with_classifier(kind), WorkloadKind::IndirectStream)
                .seed(5)
                .warm_insts(500)
                .detail_insts(1_500)
                .run()
                .expect("no deadlock");
            assert_eq!(
                r.instructions,
                1_500,
                "classifier {} lost instructions",
                kind.label()
            );
        }
    }

    #[test]
    fn zero_warmup_skips_cache_warming() {
        let r = SimBuilder::new(
            PipelineConfig::micro2015_baseline(),
            WorkloadKind::ComputeBound,
        )
        .seed(1)
        .warm_insts(0)
        .detail_insts(1_000)
        .run()
        .expect("no deadlock");
        assert_eq!(r.instructions, 1_000);
    }
}
