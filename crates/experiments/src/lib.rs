//! # ltp-experiments
//!
//! Experiment harnesses that regenerate every table and figure of the LTP
//! paper's evaluation (see [`Experiment`] for the index).
//!
//! Each figure module exposes a `run` function that performs the simulations
//! (fanning independent simulation points out over the available cores) and
//! returns a structured [`Report`]. [`Experiment::run`] dispatches on the
//! experiment name over an [`ExperimentCtx`] (options + optional shared
//! checkpoint cache); the `experiments` binary renders reports as text under
//! `results/`, the `ltp-service` job server ships the same values as JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod cache;
pub mod classification;
pub mod fault;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig7;
pub mod fig_smt;
pub mod journal;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod sampled;
pub mod sim;
pub mod table1;
pub mod uit_sweep;

pub use cache::CheckpointCache;
pub use report::{Block, Report};
pub use runner::{run_point, run_point_cached, try_run_point, MlpGrouping, RunOptions};
pub use sim::{CoRunBuilder, SimBuilder};

/// Everything an experiment invocation needs besides its identity: the
/// simulation sizing options, the optional checkpoint cache shared across
/// experiments, and the controls of the `sample` experiment's points.
/// Sweep-shaped experiments (fig1, uit, ablation) and the sampled run use the
/// cache to pay each functional warm-up once per distinct warm
/// configuration; the remaining experiments ignore it.
#[derive(Debug, Clone)]
pub struct ExperimentCtx<'a> {
    /// Simulation sizing options.
    pub opts: &'a RunOptions,
    /// Checkpoint cache shared across the experiments of one invocation.
    pub cache: Option<&'a std::sync::Arc<CheckpointCache>>,
    /// Controls applied to every point of the `sample` experiment: retry,
    /// faults, resume, progress, cancellation and governor. The experiment
    /// sets each point's journal, configuration label, cache and trace
    /// fingerprint itself.
    pub sample: sampled::SampleControl,
    /// Directory of the `sample` experiment's per-point journals
    /// ([`journal::journal_path`] names the files); journaling is on when
    /// set.
    pub journal_dir: Option<std::path::PathBuf>,
}

impl<'a> ExperimentCtx<'a> {
    /// A context over `opts` with no checkpoint cache, no journal, and
    /// [`parallel::RetryPolicy::default_sampled`] for the `sample` points.
    #[must_use]
    pub fn new(opts: &'a RunOptions) -> ExperimentCtx<'a> {
        ExperimentCtx {
            opts,
            cache: None,
            sample: sampled::SampleControl {
                retry: parallel::RetryPolicy::default_sampled(),
                ..sampled::SampleControl::default()
            },
            journal_dir: None,
        }
    }

    /// Attaches a shared checkpoint cache.
    #[must_use]
    pub fn with_cache(
        mut self,
        cache: Option<&'a std::sync::Arc<CheckpointCache>>,
    ) -> ExperimentCtx<'a> {
        self.cache = cache;
        self
    }
}

/// The experiments that can be run from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: configurations.
    Table1,
    /// Figure 1: IQ size vs. MLP.
    Fig1,
    /// Figures 2/3/5: classification and occupancy of the example loop.
    Classification,
    /// Figure 6: the limit study.
    Fig6,
    /// Figure 7: LTP utilisation.
    Fig7,
    /// Figure 10: LTP size/ports, performance and ED²P.
    Fig10,
    /// Figure 11: ticket count sweep.
    Fig11,
    /// §5.6: UIT size sweep.
    UitSweep,
    /// Ablations of design choices (prefetcher, monitor, release reserve).
    Ablation,
    /// SMT co-runs: LTP freeing shared resources for a co-runner.
    FigSmt,
    /// Checkpointed sampled simulation vs full detail (speed-up and error).
    Sample,
}

impl Experiment {
    /// All experiments in report order.
    pub const ALL: [Experiment; 11] = [
        Experiment::Table1,
        Experiment::Fig1,
        Experiment::Classification,
        Experiment::Fig6,
        Experiment::Fig7,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::UitSweep,
        Experiment::Ablation,
        Experiment::FigSmt,
        Experiment::Sample,
    ];

    /// Command-line name of the experiment.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Fig1 => "fig1",
            Experiment::Classification => "fig2",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::UitSweep => "uit",
            Experiment::Ablation => "ablation",
            Experiment::FigSmt => "fig_smt",
            Experiment::Sample => "sample",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Experiment> {
        Experiment::ALL.iter().copied().find(|e| e.name() == name)
    }

    /// Runs the experiment over `ctx` and returns its structured [`Report`].
    /// The CLI renders it with [`Report::render_text`]; the service ships
    /// [`Report::to_json`] — one value, two renderings.
    #[must_use]
    pub fn run(self, ctx: &ExperimentCtx<'_>) -> Report {
        let opts = ctx.opts;
        match self {
            Experiment::Table1 => Report::from_text(self.name(), table1::run()),
            Experiment::Fig1 => fig1::run(ctx),
            Experiment::Classification => Report::from_text(self.name(), classification::run(opts)),
            Experiment::Fig6 => Report::from_text(self.name(), fig6::run(opts)),
            Experiment::Fig7 => Report::from_text(self.name(), fig7::run(opts)),
            Experiment::Fig10 => Report::from_text(self.name(), fig10::run(opts)),
            Experiment::Fig11 => Report::from_text(self.name(), fig11::run(opts)),
            Experiment::UitSweep => uit_sweep::run(ctx),
            Experiment::Ablation => ablation::run(ctx),
            Experiment::FigSmt => Report::from_text(self.name(), fig_smt::run(opts)),
            Experiment::Sample => sampled::run_experiment(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_round_trip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::from_name(e.name()), Some(e));
        }
        assert_eq!(Experiment::from_name("bogus"), None);
    }

    /// `sample` counts its cache lookups on the context's cache handle: the
    /// first run misses and stores through it, and a second run over the
    /// same context hits on that handle and misses nothing.
    #[test]
    fn sample_looks_up_the_context_cache() {
        let dir = std::env::temp_dir().join(format!("ltp-sample-ctx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = std::sync::Arc::new(CheckpointCache::open(&dir).expect("open cache"));
        let opts = RunOptions {
            detail_insts: 1_000,
            warm_insts: 500,
            seed: 2015,
        };
        let ctx = ExperimentCtx::new(&opts).with_cache(Some(&cache));
        let cold_report = Experiment::Sample.run(&ctx);
        let cold = cache.stats();
        assert!(cold.misses > 0 && cold.stores > 0, "{cold:?}");
        let warm_report = Experiment::Sample.run(&ctx);
        let warm = cache.stats();
        assert!(warm.hits > cold.hits, "{warm:?}");
        assert_eq!(warm.misses, cold.misses, "the second run misses nothing");
        assert_eq!(cold_report.meta("digest"), warm_report.meta("digest"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table1_runs_without_simulation() {
        let opts = RunOptions::quick();
        let report = Experiment::Table1.run(&ExperimentCtx::new(&opts));
        assert_eq!(report.name(), "table1");
        assert!(report.render_text().contains("Table 1"));
        assert!(report.to_json().starts_with("{\"experiment\":\"table1\""));
    }
}
