//! Checkpointed sampled simulation: the `SampledRunner` and the `sample`
//! experiment.
//!
//! Full-detail simulation of production-length traces is the slowest part of
//! the repo; interval sampling is the standard way simulators scale
//! (SMARTS/SimPoint). The runner here:
//!
//! 1. **pre-decodes** the trace once into a flat [`DecodedTrace`] (memory
//!    and branch events resolved up front, straight-line stretches costing
//!    nothing) and makes a **functional fast-forward** pass over it
//!    ([`ltp_pipeline::FunctionalFastForward::advance_on`]): caches, branch
//!    predictor and LTP learned state advance at far above
//!    detailed-simulation speed;
//! 2. **streams** an in-memory [`Snapshot`] checkpoint into a bounded queue
//!    at each interval boundary, weighted by the functional LLC-miss count of
//!    the interval (a cost proxy: memory-bound intervals simulate slower in
//!    detail) — detailed simulation of an interval starts the moment its
//!    checkpoint lands, overlapping the remainder of the functional pass
//!    ([`crate::parallel::stream_map_lpt`]). Checkpoints cross the queue as
//!    objects, not bytes: nothing persists a checkpoint, so none is encoded;
//! 3. worker threads claim the **heaviest available** interval first (online
//!    LPT scheduling) — each resumes a processor from its checkpoint, runs a
//!    short detailed warm-up (pipeline fill), and measures the interval's
//!    IPC;
//! 4. aggregates per-interval IPC into a mean with a Student-t 95 %
//!    confidence interval ([`ltp_stats::ConfidenceInterval`]).
//!
//! A request without a caller-supplied trace never collects one (see
//! [`SampledRequest::new`]): the decode streams the generator, and each
//! interval replays the generator from its checkpoint onwards.
//!
//! [`SampledRequest`] is the only way in. A checkpoint cache hit replaces
//! the functional pass with checkpoints rebuilt from the cached warm state;
//! either way one producer loop feeds the workers. With
//! [`SampledRequest::two_phase`] the request instead runs the previous
//! checkpoint-all-then-simulate-all discipline over the per-instruction
//! functional interpreter: the differential reference the streaming pipeline
//! is tested against (identical per-interval results, byte-identical
//! checkpoints) and the baseline its overlap is measured against.
//!
//! The `sample` experiment ([`crate::Experiment::Sample`]) compares this
//! estimate (and its wall-clock) to the full-detail run of the same trace,
//! reporting the IPC error and the speed-up per simulation point.

use crate::cache::{sampled_warm_key, CachedInterval, IntervalGeometry, SampledWarmEntry};
use crate::fault::FaultPlan;
use crate::journal::{self, JournalHeader, JournalRecord, JournalWriter};
use crate::parallel::{par_map, stream_map_lpt, LptGovernor, TaskFailure};
use crate::report::Report;
use crate::runner::{limit_study_config, RunOptions};
use crate::ExperimentCtx;
use ltp_core::{LtpMode, OracleClassifier};
use ltp_isa::{DecodedTrace, DynInst, InstStream};
use ltp_pipeline::{FunctionalFastForward, PipelineConfig, RunError, Snapshot, SnapshotError};
use ltp_stats::ConfidenceInterval;
use ltp_workloads::{replay_slice, trace, WorkloadKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Shape of one sampled-simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SampleSpec {
    /// Total trace length in instructions.
    pub total_insts: u64,
    /// Number of sample intervals (evenly spaced over the trace).
    pub intervals: usize,
    /// Detailed warm-up instructions per interval (pipeline fill, excluded
    /// from the measurement).
    pub detail_warm: u64,
    /// Measured detailed instructions per interval.
    pub detail_measure: u64,
    /// Workload seed (the detailed trace uses `seed + 1`, the cache-warming
    /// prefix `seed`, matching [`crate::SimBuilder`]).
    pub seed: u64,
    /// Cache-warming instructions replayed functionally before the trace
    /// starts (the same discipline as [`crate::SimBuilder`]).
    pub warm_insts: u64,
}

impl SampleSpec {
    /// Derives a spec from run options: the trace is `16×` the full-detail
    /// budget — sampling is the methodology that makes traces of this length
    /// affordable at all — split into 6 intervals whose measured windows are
    /// capped at 10 240 instructions (~15 % detail fraction at the default
    /// budget).
    ///
    /// The window cap is the accuracy-critical choice: a window must span at
    /// least one full phase cycle of a phased workload (the bundled
    /// `mixed_phases` alternates every 512 iterations, ≈ 9.7 k instructions
    /// per compute+memory cycle), so every window measures the true phase
    /// *mix*. Many short windows instead sample individual phases, and the
    /// estimate then rides on how many windows happened to land in each
    /// phase — a few-percent bias at any affordable interval count.
    ///
    /// The detailed warm-up (capped at 2 048 instructions) is the other
    /// accuracy-critical choice: a resumed window starts from functionally
    /// warmed state, and the warm-up both fills the pipeline and lets the
    /// LTP classifier retrain on detailed-execution feedback before the
    /// measurement opens. Halving it measurably biases classifier-sensitive
    /// points (`hash_probe` under LTP drifts past 2 % error at 1 k warm-up).
    #[must_use]
    pub fn from_options(opts: &RunOptions) -> SampleSpec {
        let total_insts = opts.detail_insts * 16;
        let intervals = 6usize;
        let stride = total_insts / intervals as u64;
        SampleSpec {
            total_insts,
            intervals,
            detail_warm: (stride / 16).min(2_048),
            detail_measure: (stride / 4).min(10_240),
            seed: opts.seed,
            warm_insts: opts.warm_insts,
        }
    }

    /// Fraction of the trace simulated in detail (warm-up + measurement).
    #[must_use]
    pub fn detail_fraction(&self) -> f64 {
        (self.detail_warm + self.detail_measure) as f64 * self.intervals as f64
            / self.total_insts as f64
    }

    fn validate(&self) {
        assert!(self.intervals > 0, "need at least one interval");
    }

    /// The effective per-interval detailed window for a given stride: warm-up
    /// and measurement are clamped so the window never overlaps the next
    /// interval (short strides shrink the window rather than double-measuring
    /// trace regions, so odd interval counts and trace lengths stay sound).
    #[must_use]
    pub fn effective_window(&self, stride: u64) -> (u64, u64) {
        let warm = self.detail_warm.min(stride.saturating_sub(1));
        let measure = self.detail_measure.min(stride - warm);
        (warm, measure)
    }

    /// Checkpoint positions for a trace of `total` instructions: one per
    /// stratum of `total / intervals`, offset *within* its stratum by a
    /// golden-ratio (Weyl) low-discrepancy sequence scaled to the slack the
    /// detailed window leaves free.
    ///
    /// Grid-aligned systematic sampling aliases against periodic program
    /// behaviour — a phased workload whose phase cycle resonates with the
    /// stride shows every window the same phase and biases the estimate by
    /// several percent. The rotating offsets spread the windows across phase
    /// positions while keeping one window per stratum (stratified sampling),
    /// and are deterministic, so the streaming and two-phase runners place
    /// windows identically.
    #[must_use]
    pub fn interval_starts(&self, total: u64) -> Vec<u64> {
        let intervals = self.intervals.min(total.max(1) as usize);
        let stride = total / intervals as u64;
        let (warm, measure) = self.effective_window(stride);
        let slack = stride.saturating_sub(warm + measure);
        (0..intervals)
            .map(|i| {
                // Fractional part of i / φ, scaled to the stratum slack.
                let weyl = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                i as u64 * stride + ((u128::from(weyl) * u128::from(slack)) >> 64) as u64
            })
            .collect()
    }
}

/// Wall-clock breakdown of one sampled run. In the streaming pipeline the
/// functional pass and the detailed intervals overlap, so the parts can sum
/// to more than the run's wall clock — that surplus *is* the overlap won
/// back.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampledTiming {
    /// Functional pass on the producer thread: cache warming, fast-forward
    /// and per-interval checkpoint capture.
    pub functional_secs: f64,
    /// Detailed interval simulation, summed across workers (CPU seconds).
    pub detail_cpu_secs: f64,
    /// Total journaling cost: loading, rewriting and replaying the journal
    /// at setup, and appending each completed interval's record on the
    /// worker that measured it (zero when the run is not journaled).
    pub journal_secs: f64,
}

/// One measured sample interval.
#[derive(Debug, Clone)]
pub struct IntervalMeasurement {
    /// Interval index in trace order.
    pub index: usize,
    /// Trace position (instructions) of the checkpoint.
    pub start: u64,
    /// Measured instructions (can be short by one commit group).
    pub instructions: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// IPC of the measured window.
    pub ipc: f64,
    /// LPT cost weight (functional LLC misses in the interval).
    pub weight: u64,
}

/// Why one interval produced no measurement.
#[derive(Debug, Clone)]
pub enum IntervalError {
    /// A deterministic simulation error (e.g. a detected deadlock, with its
    /// diagnostic snapshot attached).
    Run(RunError),
    /// The interval's simulation panicked. The panic is isolated to the
    /// interval; when the run is journaled, a resume simulates it again.
    Task(TaskFailure),
    /// The run was cancelled ([`SampleControl::cancel`]) before this interval
    /// was simulated. Cancelled intervals are not errors of the interval
    /// itself; they simply mark what the partial result is missing.
    Cancelled,
}

impl std::fmt::Display for IntervalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntervalError::Run(e) => write!(f, "simulation error: {e}"),
            IntervalError::Task(t) => write!(f, "{t}"),
            IntervalError::Cancelled => write!(f, "cancelled before simulation"),
        }
    }
}

/// A sample interval that produced no measurement; the run degrades to a
/// partial result instead of failing outright.
#[derive(Debug, Clone)]
pub struct IntervalFailure {
    /// Interval index in trace order.
    pub index: usize,
    /// Trace position (instructions) of the interval's checkpoint.
    pub start: u64,
    /// What went wrong.
    pub error: IntervalError,
}

impl std::fmt::Display for IntervalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interval {} (at inst {}) lost: {}",
            self.index, self.start, self.error
        )
    }
}

/// A streaming observer for completed interval measurements: invoked from
/// worker threads the moment an interval's measurement exists (and once per
/// journal-replayed interval at setup). The `ltp-service` job server uses it
/// to stream per-interval results to HTTP clients while the run is still in
/// flight. Each interval reaches the sink once.
pub type ProgressSink = Arc<dyn Fn(&IntervalMeasurement) + Send + Sync>;

/// Fault-tolerance and persistence controls for one sampled point.
#[derive(Clone, Default)]
pub struct SampleControl {
    /// Deterministic fault plan injected into interval simulations.
    pub faults: FaultPlan,
    /// Journal file for this point: completed intervals are appended as they
    /// finish, and `resume` replays them.
    pub journal: Option<PathBuf>,
    /// Replay completed intervals from `journal` before simulating; only a
    /// journal whose header matches this run field-for-field is trusted, and
    /// a missing or damaged journal silently degrades to a fresh run.
    pub resume: bool,
    /// Configuration label recorded in (and checked against) the journal
    /// header.
    pub config_label: String,
    /// Checkpoint cache consulted before the functional pass. A hit
    /// rebuilds every interval checkpoint from the cached warm state —
    /// bypassing fast-forward entirely — bit-identical to what the cold
    /// pass would emit; a miss runs the pass and stores its warm states
    /// for every later run sharing the (trace, warm-config, geometry) key.
    pub cache: Option<Arc<crate::cache::CheckpointCache>>,
    /// Pre-computed content fingerprint of the detailed trace
    /// ([`ltp_isa::trace_fingerprint`]). Sweeps running several
    /// configurations over one workload fingerprint once and share it;
    /// when absent (and a cache is set) it is computed here.
    pub trace_fnv: Option<u64>,
    /// Streaming per-interval observer (see [`ProgressSink`]).
    pub progress: Option<ProgressSink>,
    /// Cooperative cancellation flag. Once set, the producer stops emitting
    /// checkpoints and queued workers skip their simulations; already-running
    /// intervals finish. Unsimulated intervals surface as
    /// [`IntervalError::Cancelled`] failures on a partial result, so a
    /// cancelled run still reports everything it measured.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Cross-run execution governor: when set, every interval simulation
    /// runs under [`LptGovernor::run`] keyed by the interval's LPT weight,
    /// so concurrent sampled runs (the service's active jobs) share one
    /// global heaviest-first permit pool instead of oversubscribing the
    /// machine with independent worker pools.
    pub governor: Option<Arc<LptGovernor>>,
}

impl std::fmt::Debug for SampleControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleControl")
            .field("faults", &self.faults)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .field("config_label", &self.config_label)
            .field("cache", &self.cache.is_some())
            .field("trace_fnv", &self.trace_fnv)
            .field("progress", &self.progress.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("governor", &self.governor.is_some())
            .finish()
    }
}

/// The aggregate of a sampled run.
#[derive(Debug, Clone)]
pub struct SampledResult {
    /// Workload name.
    pub workload: String,
    /// Mean per-interval IPC with its 95 % confidence interval.
    pub ipc: ConfidenceInterval,
    /// Per-interval measurements, in trace order.
    pub intervals: Vec<IntervalMeasurement>,
    /// Instructions simulated in detail (warm-up + measured), all intervals.
    pub detailed_insts: u64,
    /// Trace length.
    pub total_insts: u64,
    /// Wall-clock breakdown (functional pass / detailed intervals /
    /// journaling).
    pub timing: SampledTiming,
    /// Intervals that produced no measurement (empty on a clean run). When
    /// non-empty the result is *partial*: `ipc` covers the measured
    /// intervals only and its confidence interval is widened for the missing
    /// ones ([`ConfidenceInterval::widened_for_missing`]).
    pub failures: Vec<IntervalFailure>,
    /// Intervals the run planned to measure.
    pub planned_intervals: usize,
    /// Intervals replayed from the journal instead of simulated.
    pub resumed_intervals: usize,
    /// First journaling I/O error, if any — journaling is best-effort and
    /// never fails the run, but silence would hide a dead journal.
    pub journal_error: Option<String>,
}

impl SampledResult {
    /// Whether any planned interval was lost (the result is degraded).
    #[must_use]
    pub fn is_partial(&self) -> bool {
        !self.failures.is_empty()
    }
    /// Aggregate IPC weighted by measured instructions (total work over
    /// total measured time), the estimator compared against full-detail IPC.
    #[must_use]
    pub fn weighted_ipc(&self) -> f64 {
        let insts: u64 = self.intervals.iter().map(|i| i.instructions).sum();
        let cycles: u64 = self.intervals.iter().map(|i| i.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            insts as f64 / cycles as f64
        }
    }
}

/// One sampled-simulation request: the only entry point to the sampled
/// runner.
///
/// A request names the configuration, workload and [`SampleSpec`]; everything
/// else — trace source, pre-decoded trace, shared oracle analysis,
/// [`SampleControl`] (faults/journal/cache/progress/cancel/governor)
/// and the two-phase reference schedule — is opt-in through builder methods.
/// The `sample` experiment, the `ltp-service` job server and the repo
/// benchmark all construct their runs through this type.
///
/// ```no_run
/// use ltp_experiments::sampled::{SampleSpec, SampledRequest};
/// use ltp_experiments::RunOptions;
/// use ltp_pipeline::PipelineConfig;
/// use ltp_workloads::WorkloadKind;
///
/// let spec = SampleSpec::from_options(&RunOptions::quick());
/// let result = SampledRequest::new(
///     PipelineConfig::ltp_proposed(),
///     WorkloadKind::IndirectStream,
///     spec,
/// )
/// .run()
/// .expect("sampled run");
/// assert_eq!(result.intervals.len(), result.planned_intervals);
/// ```
pub struct SampledRequest<'a> {
    cfg: PipelineConfig,
    kind: WorkloadKind,
    spec: SampleSpec,
    trace: Option<&'a [DynInst]>,
    dec: Option<&'a DecodedTrace>,
    oracle: Option<&'a OracleClassifier>,
    control: SampleControl,
    two_phase: bool,
}

impl std::fmt::Debug for SampledRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampledRequest")
            .field("kind", &self.kind.name())
            .field("spec", &self.spec)
            .field("trace", &self.trace.map(<[DynInst]>::len))
            .field("dec", &self.dec.is_some())
            .field("oracle", &self.oracle.is_some())
            .field("control", &self.control)
            .field("two_phase", &self.two_phase)
            .finish_non_exhaustive()
    }
}

impl<'a> SampledRequest<'a> {
    /// Starts a request for one `(configuration, workload, spec)` point with
    /// default controls: no faults, no journal, no cache, and the trace
    /// comes from the workload generator at the spec's seed. A generated
    /// trace is never collected unless an oracle analysis or the two-phase
    /// reference needs it whole: the functional pass decodes the generator
    /// as it runs, the cache key is the streamed
    /// [`ltp_workloads::trace_identity`], and each interval seeks a fresh
    /// generator to its checkpoint, so a cache hit costs only the intervals'
    /// own windows.
    #[must_use]
    pub fn new(cfg: PipelineConfig, kind: WorkloadKind, spec: SampleSpec) -> SampledRequest<'a> {
        SampledRequest {
            cfg,
            kind,
            spec,
            trace: None,
            dec: None,
            oracle: None,
            control: SampleControl::default(),
            two_phase: false,
        }
    }

    /// Uses a caller-provided detailed trace (which must be the one the spec
    /// would generate for the oracle analysis to be sound). Callers comparing
    /// sampled against full detail share one trace allocation this way.
    #[must_use]
    pub fn trace(mut self, detail: &'a [DynInst]) -> SampledRequest<'a> {
        self.trace = Some(detail);
        self
    }

    /// Shares a pre-decoded form of the trace (a pure function of the trace;
    /// sweeps decode once). Must match the request's trace.
    #[must_use]
    pub fn decoded(mut self, dec: &'a DecodedTrace) -> SampledRequest<'a> {
        self.dec = Some(dec);
        self
    }

    /// Shares a pre-computed oracle analysis (a pure function of
    /// `(configuration, trace)`); when absent and the configuration needs
    /// one, [`SampledRequest::run`] analyses the trace on a thread beside
    /// its functional pass.
    #[must_use]
    pub fn oracle(mut self, oracle: &'a OracleClassifier) -> SampledRequest<'a> {
        self.oracle = Some(oracle);
        self
    }

    /// Sets the run's whole [`SampleControl`]: faults, journal, resume,
    /// cache, progress, cancellation and governor. The setters below change
    /// one field of it, so they go after this call.
    #[must_use]
    pub fn control(mut self, control: SampleControl) -> SampledRequest<'a> {
        self.control = control;
        self
    }

    /// Journals completed intervals to `path`; with
    /// [`SampleControl::resume`] they replay.
    #[must_use]
    pub fn journal(mut self, path: PathBuf) -> SampledRequest<'a> {
        self.control.journal = Some(path);
        self
    }

    /// Sets the configuration label recorded in the journal header.
    #[must_use]
    pub fn config_label(mut self, label: impl Into<String>) -> SampledRequest<'a> {
        self.control.config_label = label.into();
        self
    }

    /// Consults (and populates) a shared checkpoint cache.
    #[must_use]
    pub fn cache(mut self, cache: Arc<crate::cache::CheckpointCache>) -> SampledRequest<'a> {
        self.control.cache = Some(cache);
        self
    }

    /// Shares a pre-computed trace fingerprint for the cache key.
    #[must_use]
    pub fn trace_fnv(mut self, fnv: u64) -> SampledRequest<'a> {
        self.control.trace_fnv = Some(fnv);
        self
    }

    /// Streams completed interval measurements to `sink` as they land.
    #[must_use]
    pub fn progress(mut self, sink: ProgressSink) -> SampledRequest<'a> {
        self.control.progress = Some(sink);
        self
    }

    /// Switches to the two-phase reference schedule: checkpoint **all**
    /// intervals with the per-instruction functional interpreter, then
    /// simulate them all (offline LPT). The differential reference the
    /// streaming pipeline is tested against — measurements are bit-identical,
    /// only the schedule (and wall-clock) differs. Two-phase runs ignore the
    /// fault-tolerance and persistence controls.
    #[must_use]
    pub fn two_phase(mut self) -> SampledRequest<'a> {
        self.two_phase = true;
        self
    }

    /// Runs the request (see the module docs for the pipeline).
    ///
    /// Per-interval failures (worker panics, deterministic interval errors,
    /// cancellation) come back *inside* the result as
    /// [`SampledResult::failures`], degrading it to a clearly flagged
    /// partial result — not as `Err`.
    ///
    /// # Errors
    ///
    /// Whole-run failures only: the snapshot errors of unsupported
    /// configurations as [`RunError::SnapshotUnsupported`].
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (zero intervals) or if a shared
    /// decoded trace does not match the trace.
    pub fn run(&self) -> Result<SampledResult, RunError> {
        let seed = self.spec.seed.wrapping_add(1);
        // Without a caller-supplied trace the run replays the generator and
        // never collects the trace, except for the two consumers that need
        // all of it at once: the two-phase reference (here) and an oracle
        // analysis (in `run_controlled`, only if the analysis runs).
        let generated: Option<Vec<DynInst>> = (self.two_phase && self.trace.is_none())
            .then(|| trace(self.kind, seed, self.spec.total_insts as usize));
        let source = match self.trace.or(generated.as_deref()) {
            Some(detail) => TraceSource::Slice(detail),
            None => TraceSource::Generator {
                kind: self.kind,
                seed,
                total: self.spec.total_insts,
            },
        };
        match source {
            TraceSource::Slice(detail) if self.two_phase => {
                run_two_phase(self.cfg, self.kind, detail, &self.spec)
            }
            _ => {
                let cfg = self.cfg;
                run_controlled(self, source, move || {
                    source.with_slice(|detail| crate::sim::analyze_oracle(&cfg, detail))
                })
            }
        }
    }
}

/// Where a sampled run reads its detailed trace from.
#[derive(Debug, Clone, Copy)]
enum TraceSource<'t> {
    /// A collected trace: caller-supplied, or built for the two-phase
    /// reference.
    Slice(&'t [DynInst]),
    /// The first `total` instructions of the workload generator with this
    /// seed. Nothing is collected: the decode and the fingerprint stream
    /// the generator, and each interval seeks a fresh generator to its
    /// checkpoint and generates only its own window.
    Generator {
        kind: WorkloadKind,
        seed: u64,
        total: u64,
    },
}

impl TraceSource<'_> {
    fn len(self) -> u64 {
        match self {
            TraceSource::Slice(detail) => detail.len() as u64,
            TraceSource::Generator { total, .. } => total,
        }
    }

    /// The decoded form the functional pass replays.
    fn decode(self) -> DecodedTrace {
        match self {
            TraceSource::Slice(detail) => DecodedTrace::from_insts(detail),
            TraceSource::Generator { kind, seed, total } => {
                DecodedTrace::from_stream(kind.build(seed), total)
            }
        }
    }

    /// The content fingerprint the checkpoint cache keys on; both arms give
    /// [`ltp_isa::trace_fingerprint`] of the same instructions.
    fn fingerprint(self) -> u64 {
        match self {
            TraceSource::Slice(detail) => ltp_isa::trace_fingerprint(detail),
            TraceSource::Generator { kind, seed, total } => {
                ltp_workloads::trace_identity(kind, seed, total as usize)
            }
        }
    }

    /// Runs `f` over the trace as a slice, collecting it from the
    /// generator if need be.
    fn with_slice<R>(self, f: impl FnOnce(&[DynInst]) -> R) -> R {
        match self {
            TraceSource::Slice(detail) => f(detail),
            TraceSource::Generator { kind, seed, total } => f(&trace(kind, seed, total as usize)),
        }
    }
}

/// The streaming runner body behind [`SampledRequest::run`]. Interval
/// simulations run isolated under [`stream_map_lpt`]. One that panics, or
/// that returns a deterministic [`RunError`] (e.g. a detected deadlock), is
/// lost at once and surfaces as an [`IntervalFailure`]: the interval is a
/// pure function of its inputs, so simulating it again would fail again.
/// Lost intervals degrade the result to a clearly flagged partial one
/// ([`SampledResult::is_partial`]) with a widened confidence interval rather
/// than failing the run.
///
/// With `control.journal` set, every completed interval is appended to an
/// on-disk, checksummed journal before its progress callback fires; with
/// `control.resume` also set, intervals
/// already in a matching journal are replayed instead of re-simulated (if
/// *all* intervals replay, the functional pass is skipped entirely).
/// Per-interval measurements are deterministic, so a resumed run aggregates
/// bit-identically to an uninterrupted one; resuming is how a run recovers
/// the intervals it lost.
///
/// A shared decoded trace must be the decoded form of `source`; otherwise
/// the trace is decoded only if the functional pass runs (a cache hit never
/// decodes). `analyse` is the oracle analysis of `source`, run only when the
/// configuration needs an oracle and the request shares none.
fn run_controlled(
    req: &SampledRequest<'_>,
    source: TraceSource<'_>,
    analyse: impl FnOnce() -> OracleClassifier + Send,
) -> Result<SampledResult, RunError> {
    let (cfg, kind, spec, control) = (req.cfg, req.kind, &req.spec, &req.control);
    spec.validate();
    let total = source.len();
    if let Some(dec) = req.dec {
        assert_eq!(
            dec.len(),
            total,
            "decoded trace does not match the detailed trace"
        );
    }
    let intervals = spec.intervals.min(total.max(1) as usize);
    let stride = total / intervals as u64;
    let (warm_eff, measure_eff) = spec.effective_window(stride);
    let starts = spec.interval_starts(total);
    let name = kind.name();

    // Resume: replay completed intervals from a journal whose header matches
    // this run exactly. A missing, damaged or mismatched journal is not an
    // error — the run simply starts fresh.
    let journal_t0 = Instant::now();
    let journal_file = control.journal.as_deref().map(|path| {
        let header = JournalHeader::for_run(spec, name, &control.config_label, &cfg);
        (path, header)
    });
    let replayed_records: Vec<JournalRecord> = match &journal_file {
        Some((path, header)) if control.resume => journal::load_journal(path)
            .ok()
            .filter(|loaded| &loaded.header == header)
            .map(|loaded| loaded.records)
            .unwrap_or_default()
            .into_iter()
            .filter(|rec| {
                usize::try_from(rec.index)
                    .is_ok_and(|i| i < intervals && starts.get(i) == Some(&rec.start))
            })
            .collect(),
        _ => Vec::new(),
    };
    // The journal is rewritten when the run starts. The replayed records go
    // back first, so a resumed journal sheds any damaged tail; then the
    // worker that measures an interval appends its record before the
    // interval's progress callback fires, so a killed run keeps every
    // interval it finished. Journaling is best-effort: the first I/O error
    // closes the journal (reported on the result) without failing the run.
    let journal: Option<Result<JournalWriter, String>> = journal_file.map(|(path, header)| {
        let mut w = JournalWriter::create(path, &header).map_err(|e| e.to_string())?;
        for rec in &replayed_records {
            w.append(rec).map_err(|e| e.to_string())?;
        }
        Ok(w)
    });
    let journal = journal.map(Mutex::new);
    let replayed: Vec<IntervalMeasurement> = replayed_records
        .into_iter()
        .map(|rec| IntervalMeasurement {
            index: rec.index as usize,
            start: rec.start,
            instructions: rec.instructions,
            cycles: rec.cycles,
            ipc: rec.instructions as f64 / rec.cycles.max(1) as f64,
            weight: rec.weight,
        })
        .collect();
    let done: std::collections::HashSet<usize> = replayed.iter().map(|m| m.index).collect();
    let resumed_intervals = done.len();
    let all_done = resumed_intervals == intervals;
    // Replayed intervals stream to the progress sink too: a resumed job's
    // observers see every measurement exactly as a fresh run's would.
    if let Some(sink) = &control.progress {
        for m in &replayed {
            sink(m);
        }
    }
    let cancel_requested = || {
        control
            .cancel
            .as_deref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    };
    let journal_setup_secs = journal_t0.elapsed().as_secs_f64();
    // Per-event times of the record appends, which run concurrently with
    // the simulation (see `capped_secs`).
    let journal_append_ns: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    // An oracle-classified configuration gets one whole-trace analysis shared
    // by every interval — the same analysis a full-detail run would use (and
    // none at all when the journal already covers every interval). Unless
    // the caller shares one, it runs on its own thread beside the functional
    // pass (`beside_analysis`).
    let oracle = match req.oracle {
        None if !all_done && cfg.needs_oracle() => RunOracle::Analysing(OnceLock::new()),
        shared => RunOracle::Ready(shared),
    };

    // Streaming pipeline: the producer runs on this thread and emits each
    // interval's checkpoint into the bounded queue the moment its boundary
    // is reached; workers start the detailed simulation of an interval
    // immediately, heaviest (most functional misses) first. The detailed
    // phase therefore overlaps all of the functional pass after the first
    // interval boundary. Replayed intervals are passed over without
    // checkpointing; when everything replayed, the pass is skipped.
    let mut producer_err: Option<RunError> = None;
    // Trace-order indices actually pushed into the stream: normally every
    // non-replayed interval, but cancellation stops production early and the
    // outcome mapping below must know exactly what was emitted.
    let mut pushed_log: Vec<usize> = Vec::new();
    let mut functional_secs = 0.0f64;
    let detail_nanos = AtomicU64::new(0);
    let outcomes = if all_done {
        Vec::new()
    } else {
        let func_t0 = Instant::now();
        let worker = |job: IntervalJob| {
            // A queued interval observed after cancellation is skipped, not
            // simulated — the cheapest way to drain the stream fast.
            if cancel_requested() {
                return Err(IntervalError::Cancelled);
            }
            // The wait for a concurrent analysis comes before the governor
            // permit and the detail timer: waiting is not interval work, and
            // a waiting interval must not hold a permit another job could
            // use. A panicked analysis ends the run; its intervals drain.
            let Ok(oracle) = oracle.wait() else {
                return Err(IntervalError::Cancelled);
            };
            control.faults.inject(job.index);
            let simulate = || {
                let t0 = Instant::now();
                let m = simulate_interval(&job, oracle, name, source, warm_eff, measure_eff);
                detail_nanos.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
                m
            };
            // Under a governor the permit wait happens here, outside the
            // detail timer, so `detail_cpu_secs` stays a work measurement.
            let m = match control.governor.as_deref() {
                Some(gov) => gov.run(job.weight + 1, simulate),
                None => simulate(),
            };
            if let Ok(m) = &m {
                if let Some(journal) = &journal {
                    let j0 = Instant::now();
                    let record = JournalRecord {
                        index: job.index as u64,
                        start: job.start,
                        weight: job.weight,
                        instructions: m.instructions,
                        cycles: m.cycles,
                        snapshot: Vec::new(),
                    };
                    let mut journal = journal.lock().unwrap_or_else(|p| p.into_inner());
                    if let Ok(w) = &mut *journal {
                        if let Err(e) = w.append(&record) {
                            *journal = Err(e.to_string());
                        }
                    }
                    drop(journal);
                    journal_append_ns
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push(elapsed_ns(j0));
                }
                if let Some(sink) = &control.progress {
                    sink(m);
                }
            }
            m.map_err(IntervalError::Run)
        };
        // Checkpoint cache: key over the trace identity (name + content
        // fingerprint), the warm half of the configuration, and the
        // interval geometry — exactly the inputs the functional pass can
        // observe, so detail-only sweep dimensions (ROB/IQ/PRF, classifier
        // kind, LTP mode) share one entry.
        let cache_key = control.cache.as_deref().map(|cache| {
            let trace_fnv = control.trace_fnv.unwrap_or_else(|| source.fingerprint());
            let geometry = IntervalGeometry {
                total_insts: total,
                intervals: spec.intervals as u64,
                detail_warm: spec.detail_warm,
                detail_measure: spec.detail_measure,
                seed: spec.seed,
                warm_insts: spec.warm_insts,
            };
            (
                cache,
                sampled_warm_key(name, trace_fnv, &cfg.warmup_config(), &geometry),
            )
        });
        let wants_classifier = matches!(
            ltp_pipeline::ClassifierTraining::of(&cfg.ltp),
            ltp_pipeline::ClassifierTraining::Trained { .. }
        );
        let cached: Option<SampledWarmEntry> = cache_key.as_ref().and_then(|(cache, key)| {
            // Beyond the codec checks, demand the entry's shape matches this
            // run (a 64-bit key collision must degrade to a miss, not a
            // panic in the restore path).
            cache.load_sampled_warm(*key).filter(|e| {
                e.intervals.len() == starts.len()
                    && e.intervals
                        .iter()
                        .zip(&starts)
                        .all(|(ci, &s)| ci.start == s && ci.state.consumed() == s)
                    && e.intervals
                        .iter()
                        .all(|ci| ci.state.has_classifier_state() == wants_classifier)
            })
        });
        let decoded: DecodedTrace;
        let mut warm = match cached {
            Some(entry) => WarmSource::Cached {
                entries: entry.intervals.into_iter(),
                weight: 0,
            },
            None => {
                let dec = match req.dec {
                    Some(dec) => dec,
                    None => {
                        decoded = source.decode();
                        &decoded
                    }
                };
                let mut ff = FunctionalFastForward::new(cfg);
                if spec.warm_insts > 0 {
                    ff.warm_caches(&trace(kind, spec.seed, spec.warm_insts as usize));
                }
                WarmSource::FastForward {
                    ff: Box::new(ff),
                    dec,
                    capture: cache_key
                        .is_some()
                        .then(|| Vec::with_capacity(starts.len())),
                }
            }
        };

        beside_analysis(&oracle, analyse, || {
            stream_map_lpt(
                intervals - resumed_intervals,
                |queue| {
                    // Cancellation and checkpoint failures stop production early;
                    // only a pass over every interval may fill the cache.
                    let mut complete = true;
                    for (i, &start) in starts.iter().enumerate() {
                        if cancel_requested() {
                            complete = false;
                            break;
                        }
                        let job_snap = match warm.enter(cfg, start, !done.contains(&i)) {
                            Ok(snap) => snap,
                            Err(e) => {
                                producer_err = Some(RunError::SnapshotUnsupported(e.to_string()));
                                complete = false;
                                break;
                            }
                        };
                        let weight = warm.leave(starts.get(i + 1).copied().unwrap_or(total));
                        if let Some(snap) = job_snap {
                            // LPT cost: the detailed window length is constant,
                            // so the miss weight is the differentiating term; +1
                            // keeps zero-miss intervals schedulable.
                            pushed_log.push(i);
                            queue.push(
                                weight + 1,
                                IntervalJob {
                                    index: i,
                                    start,
                                    snap,
                                    weight,
                                },
                            );
                        }
                    }
                    if let (
                        true,
                        Some((cache, key)),
                        WarmSource::FastForward {
                            capture: Some(intervals),
                            ..
                        },
                    ) = (complete, cache_key.as_ref(), warm)
                    {
                        cache.store_sampled_warm(*key, &SampledWarmEntry { intervals });
                    }
                    functional_secs = func_t0.elapsed().as_secs_f64();
                },
                worker,
            )
        })
    };
    let journal_error =
        journal.and_then(|j| j.into_inner().unwrap_or_else(|p| p.into_inner()).err());
    if let Some(e) = producer_err {
        return Err(e);
    }

    // `stream_map_lpt` returns outcomes in push order and `pushed_log`
    // recorded exactly which trace-order intervals were pushed — map them
    // back. Intervals never pushed (production stopped by cancellation)
    // surface as `Cancelled` failures so the partial result accounts for
    // every planned interval.
    debug_assert_eq!(outcomes.len(), pushed_log.len());
    let mut intervals_out = replayed;
    let mut failures: Vec<IntervalFailure> = Vec::new();
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let index = pushed_log[k];
        let error = match outcome {
            Ok(Ok(m)) => {
                intervals_out.push(m);
                continue;
            }
            Ok(Err(e)) => e,
            Err(mut t) => {
                // The task layer knows only push indices; report trace ones.
                t.index = index;
                IntervalError::Task(t)
            }
        };
        failures.push(IntervalFailure {
            index,
            start: starts[index],
            error,
        });
    }
    let pushed_set: std::collections::HashSet<usize> = pushed_log.into_iter().collect();
    for index in (0..intervals).filter(|i| !done.contains(i) && !pushed_set.contains(i)) {
        failures.push(IntervalFailure {
            index,
            start: starts[index],
            error: IntervalError::Cancelled,
        });
    }
    intervals_out.sort_by_key(|m| m.index);
    failures.sort_by_key(|f| f.index);

    let samples: Vec<f64> = intervals_out.iter().map(|m| m.ipc).collect();
    let ipc = ConfidenceInterval::from_samples(&samples).widened_for_missing(failures.len());
    let timing = SampledTiming {
        functional_secs,
        detail_cpu_secs: detail_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        journal_secs: journal_setup_secs + capped_secs(journal_append_ns),
    };
    Ok(SampledResult {
        workload: name.to_string(),
        ipc,
        detailed_insts: intervals_out
            .iter()
            .map(|m| m.instructions + warm_eff)
            .sum(),
        total_insts: total,
        intervals: intervals_out,
        timing,
        failures,
        planned_intervals: intervals,
        resumed_intervals,
        journal_error,
    })
}

/// Where the producer reads each interval's warm state from: a cached entry
/// or the functional fast-forward. The producer loop drives both the same
/// way — [`WarmSource::enter`] at each interval's start, then
/// [`WarmSource::leave`] at its end.
enum WarmSource<'d> {
    /// A cache hit: the stored warm state of every interval, in trace order.
    /// Each checkpoint is rebuilt from it under the run's configuration —
    /// byte-identical to what the fast-forward would have captured, per the
    /// warm-key contract — so the functional pass is bypassed entirely.
    Cached {
        entries: std::vec::IntoIter<CachedInterval>,
        /// Weight of the interval last entered.
        weight: u64,
    },
    /// The functional fast-forward over the decoded trace. With a cache
    /// attached, `capture` collects every interval boundary's warm state
    /// (replayed intervals included — the entry must be whole to serve
    /// future runs); a capture failure abandons the store, never the run.
    FastForward {
        ff: Box<FunctionalFastForward>,
        dec: &'d DecodedTrace,
        capture: Option<Vec<CachedInterval>>,
    },
}

impl WarmSource<'_> {
    /// Moves to the interval starting at trace position `start` and returns
    /// its checkpoint when `checkpoint` is set (a replayed interval needs
    /// none).
    fn enter(
        &mut self,
        cfg: PipelineConfig,
        start: u64,
        checkpoint: bool,
    ) -> Result<Option<Snapshot>, SnapshotError> {
        match self {
            WarmSource::Cached { entries, weight } => {
                let iv = entries
                    .next()
                    .expect("the cached entry's shape matches the run");
                *weight = iv.weight;
                checkpoint
                    .then(|| FunctionalFastForward::from_warm_state(cfg, iv.state).checkpoint())
                    .transpose()
            }
            WarmSource::FastForward { ff, dec, capture } => {
                ff.advance_on(dec, start);
                if let Some(cap) = capture.as_mut() {
                    match ff.warm_state() {
                        Ok(state) => cap.push(CachedInterval {
                            start,
                            weight: 0,
                            state,
                        }),
                        Err(_) => *capture = None,
                    }
                }
                checkpoint.then(|| ff.checkpoint()).transpose()
            }
        }
    }

    /// Finishes the current interval at trace position `end` and returns its
    /// LPT weight: the functional LLC misses inside it.
    fn leave(&mut self, end: u64) -> u64 {
        match self {
            WarmSource::Cached { weight, .. } => *weight,
            WarmSource::FastForward { ff, dec, capture } => {
                ff.advance_on(dec, end);
                let weight = ff.take_llc_misses();
                if let Some(last) = capture.as_mut().and_then(|cap| cap.last_mut()) {
                    last.weight = weight;
                }
                weight
            }
        }
    }
}

/// The oracle a run's intervals share: none or the caller's, or one being
/// analysed beside the functional pass.
enum RunOracle<'o> {
    Ready(Option<&'o OracleClassifier>),
    /// Set by the analysing thread: `None` when the analysis panicked.
    Analysing(OnceLock<Option<OracleClassifier>>),
}

/// The oracle analysis panicked; the panic itself leaves the run.
struct AnalysisPanicked;

impl RunOracle<'_> {
    /// The oracle, once the analysis (if any) has finished.
    fn wait(&self) -> Result<Option<&OracleClassifier>, AnalysisPanicked> {
        match self {
            RunOracle::Ready(oracle) => Ok(*oracle),
            RunOracle::Analysing(slot) => slot.wait().as_ref().map(Some).ok_or(AnalysisPanicked),
        }
    }
}

/// Runs `body` with `oracle`'s pending analysis, if any, on a scoped thread
/// of its own: the analysis and the functional pass are independent passes
/// over the trace, so neither waits for the other, and only the intervals
/// wait for the analysis. A panicking analysis still sets the slot (no
/// interval waits forever), and its panic leaves here once `body` returns,
/// as it would have left a serial analysis.
fn beside_analysis<R>(
    oracle: &RunOracle<'_>,
    analyse: impl FnOnce() -> OracleClassifier + Send,
    body: impl FnOnce() -> R,
) -> R {
    /// Sets the slot to `None` unless the analysis set it first.
    struct Unblock<'s>(&'s OnceLock<Option<OracleClassifier>>);
    impl Drop for Unblock<'_> {
        fn drop(&mut self) {
            let _ = self.0.set(None);
        }
    }
    let RunOracle::Analysing(slot) = oracle else {
        return body();
    };
    std::thread::scope(|scope| {
        let analyser = scope.spawn(move || {
            let _unblock = Unblock(slot);
            let _ = slot.set(Some(analyse()));
        });
        let out = body();
        if let Err(panic) = analyser.join() {
            std::panic::resume_unwind(panic);
        }
        out
    })
}

/// Nanoseconds since `t0`, saturating.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sums per-event times taken inside the concurrent region, where a
/// scheduler preemption mid-timer bills another thread's entire slice to
/// one short event. Capping every sample at 8x the median keeps real
/// variation (checkpoints grow as caches fill) while rejecting those
/// spikes, so the reported journal cost tracks the work journaling does.
fn capped_secs(samples: Mutex<Vec<u64>>) -> f64 {
    let mut ns = samples.into_inner().unwrap_or_else(|p| p.into_inner());
    ns.sort_unstable();
    let Some(&median) = ns.get(ns.len() / 2) else {
        return 0.0;
    };
    let cap = median.saturating_mul(8);
    ns.iter().map(|&d| d.min(cap) as f64).sum::<f64>() / 1e9
}

/// One interval's unit of work flowing through the streaming queue: the
/// in-memory checkpoint plus where it sits in the trace and what it should
/// cost.
#[derive(Debug)]
struct IntervalJob {
    index: usize,
    start: u64,
    snap: Snapshot,
    weight: u64,
}

/// Resumes a processor from one checkpoint and runs its detailed warm-up +
/// measurement — the worker body shared by the streaming and two-phase
/// runners, so the two schedules cannot drift apart in simulation semantics.
/// The resumed front end seeks its stream to the checkpoint, so a generator
/// source produces only this interval's window.
fn simulate_interval(
    job: &IntervalJob,
    oracle: Option<&OracleClassifier>,
    name: &str,
    source: TraceSource<'_>,
    warm_eff: u64,
    measure_eff: u64,
) -> Result<IntervalMeasurement, RunError> {
    let total = source.len();
    let mut resumed = job.snap.resume();
    if let Some(oracle) = oracle {
        resumed.set_oracle(oracle.clone());
    }
    let max_insts = (job.start + warm_eff + measure_eff).min(total);
    let measure_from = job.start + warm_eff;
    let result = match source {
        TraceSource::Slice(detail) => {
            resumed.run_measured_from(replay_slice(name, detail), max_insts, measure_from)?
        }
        // Capped at `total` like the slice: the last interval's front end
        // must see the trace end where the slice would.
        TraceSource::Generator { kind, seed, total } => {
            let stream = InstStream::take_insts(kind.build(seed), total);
            resumed.run_measured_from(stream, max_insts, measure_from)?
        }
    };
    Ok(IntervalMeasurement {
        index: job.index,
        start: job.start,
        instructions: result.instructions,
        cycles: result.cycles,
        ipc: result.instructions as f64 / result.cycles.max(1) as f64,
        weight: job.weight,
    })
}

/// The two-phase runner body behind [`SampledRequest::two_phase`], kept as
/// the differential reference for the streaming pipeline: checkpoint **all**
/// intervals with the per-instruction functional interpreter
/// ([`FunctionalFastForward::feed`]), then simulate them all with
/// [`par_map`]. Checkpoints, weights and per-interval measurements are
/// bit-identical to the streaming runner's; only the schedule (and
/// therefore the wall-clock) differs.
fn run_two_phase(
    cfg: PipelineConfig,
    kind: WorkloadKind,
    detail: &[DynInst],
    spec: &SampleSpec,
) -> Result<SampledResult, RunError> {
    spec.validate();
    let total = detail.len() as u64;
    let intervals = spec.intervals.min(total.max(1) as usize);
    let stride = total / intervals as u64;
    let (warm_eff, measure_eff) = spec.effective_window(stride);
    let starts = spec.interval_starts(total);

    let oracle: Option<OracleClassifier> = if cfg.needs_oracle() {
        Some(crate::sim::analyze_oracle(&cfg, detail))
    } else {
        None
    };
    let name = kind.name();

    // Phase 1 — serial functional pass over every interval, per-instruction.
    let func_t0 = Instant::now();
    let mut ff = FunctionalFastForward::new(cfg);
    if spec.warm_insts > 0 {
        let warm = trace(kind, spec.seed, spec.warm_insts as usize);
        ff.warm_caches(&warm);
    }
    let mut jobs: Vec<IntervalJob> = Vec::with_capacity(intervals);
    for (i, &start) in starts.iter().enumerate() {
        ff.feed_all(&detail[ff.consumed() as usize..start as usize]);
        debug_assert_eq!(ff.consumed(), start);
        let snap = ff
            .checkpoint()
            .map_err(|e| RunError::SnapshotUnsupported(e.to_string()))?;
        let end = starts.get(i + 1).copied().unwrap_or(total);
        ff.feed_all(&detail[start as usize..end as usize]);
        let weight = ff.take_llc_misses();
        jobs.push(IntervalJob {
            index: i,
            start,
            snap,
            weight,
        });
    }
    let functional_secs = func_t0.elapsed().as_secs_f64();

    // Phase 2 — detailed interval simulations. Measurements do not depend
    // on the schedule, so a plain parallel map will do.
    let detail_nanos = AtomicU64::new(0);
    let measurements: Vec<Result<IntervalMeasurement, RunError>> = par_map(jobs, |job| {
        let t0 = Instant::now();
        let m = simulate_interval(
            job,
            oracle.as_ref(),
            name,
            TraceSource::Slice(detail),
            warm_eff,
            measure_eff,
        );
        detail_nanos.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        m
    });

    let mut intervals_out = Vec::with_capacity(measurements.len());
    for m in measurements {
        intervals_out.push(m?);
    }
    let samples: Vec<f64> = intervals_out.iter().map(|m| m.ipc).collect();
    let ipc = ConfidenceInterval::from_samples(&samples);
    let timing = SampledTiming {
        functional_secs,
        detail_cpu_secs: detail_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        journal_secs: 0.0,
    };
    Ok(SampledResult {
        workload: name.to_string(),
        ipc,
        detailed_insts: intervals_out
            .iter()
            .map(|m| m.instructions + warm_eff)
            .sum(),
        total_insts: total,
        planned_intervals: intervals_out.len(),
        intervals: intervals_out,
        timing,
        failures: Vec::new(),
        resumed_intervals: 0,
        journal_error: None,
    })
}

/// The three Figure-1 configurations the `sample` experiment covers.
fn fig1_configs() -> [(&'static str, PipelineConfig); 3] {
    [
        ("IQ:32", PipelineConfig::limit_study_unlimited().with_iq(32)),
        ("IQ:32+LTP", limit_study_config(LtpMode::Both).with_iq(32)),
        (
            "IQ:256",
            PipelineConfig::limit_study_unlimited().with_iq(256),
        ),
    ]
}

/// Runs the full-detail reference for one point over the *same* trace the
/// sampled run uses, so the error column isolates the sampling methodology.
/// Delegates to [`SimBuilder`] so the warm-trace seed discipline and oracle
/// recipe stay defined in exactly one place.
fn full_detail_ipc(
    cfg: PipelineConfig,
    kind: WorkloadKind,
    detail: &[DynInst],
    oracle: Option<&OracleClassifier>,
    spec: &SampleSpec,
) -> Result<f64, RunError> {
    let mut builder = crate::SimBuilder::new(cfg, kind)
        .seed(spec.seed)
        .warm_insts(spec.warm_insts)
        .detail_insts(spec.total_insts);
    if let Some(oracle) = oracle {
        builder = builder.oracle(oracle.clone());
    }
    let r = builder.run_on(detail)?;
    Ok(r.instructions as f64 / r.cycles.max(1) as f64)
}

/// One line of the run digest, per measured interval. Two runs (over any
/// transport: in-process, CLI, HTTP job) that measure the same intervals
/// produce the same lines — and therefore the same [`result_digest`] — so
/// bit-identity can be asserted by comparing one hex number.
#[must_use]
pub fn digest_line(workload: &str, label: &str, m: &IntervalMeasurement) -> String {
    format!(
        "{workload}|{label}|{}|{}|{}\n",
        m.index, m.instructions, m.cycles
    )
}

/// FNV-1a digest over concatenated [`digest_line`]s, rendered exactly as the
/// reports print it (`{:#018x}`).
#[must_use]
pub fn result_digest(lines: &str) -> String {
    format!("{:#018x}", ltp_snapshot::fnv1a64(lines.as_bytes()))
}

/// Runs the `sample` experiment over `ctx`: Figure-1-style points simulated
/// both ways, with IPC error, confidence interval and wall-clock speed-up per
/// point. Every point runs through a [`SampledRequest`] with `ctx.sample`'s
/// controls, its own journal under `ctx.journal_dir`
/// ([`journal::journal_path`] names the files) and `ctx.cache`. The report
/// meta carries the result digest and how many points came back partial
/// (`partial_points`) or failed (`error_points`).
#[must_use]
pub(crate) fn run(ctx: &ExperimentCtx<'_>) -> Report {
    let spec = SampleSpec::from_options(ctx.opts);
    let control = &ctx.sample;
    let kinds = WorkloadKind::ALL;
    let mut partial_points = 0usize;
    let mut error_points = 0usize;
    // A deterministic digest over every measured interval: two runs that
    // recover to the same measurements print the same digest, so the CI
    // canary can compare a run recovered by resume against a fault-free
    // one without parsing the table.
    let mut digest_buf = String::new();
    let mut notes: Vec<String> = Vec::new();

    let mut report = Report::new("sample");
    report.push_text(format!(
        "Sampled simulation vs full detail (Figure-1 configurations)\n\
         trace {} insts, {} intervals x ({} warm + {} measured) detailed \
         ({:.1}% detail fraction), functional fast-forward between intervals\n\n",
        spec.total_insts,
        spec.intervals,
        spec.detail_warm,
        spec.detail_measure,
        spec.detail_fraction() * 100.0
    ));

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut total_full_secs = 0.0;
    let mut total_sampled_secs = 0.0;
    let mut worst_err = 0.0f64;
    let mut functional_secs = 0.0f64;
    let mut functional_insts = 0u64;
    let mut detail_cpu_secs = 0.0f64;
    let mut detailed_insts = 0u64;
    let mut journal_secs = 0.0f64;
    let mut resumed_intervals = 0usize;
    let mut planned_intervals = 0usize;

    'points: for kind in kinds {
        // Trace generation (and its decoded-event form) is identical
        // preparation for both methodologies and for every configuration, so
        // it happens once per workload outside the timed regions.
        let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
        let dec = DecodedTrace::from_insts(&detail);
        // The trace fingerprint is part of every cache key for this
        // workload; hash it once here rather than once per configuration.
        let trace_fnv = ctx.cache.map(|_| ltp_isa::trace_fingerprint(&detail));
        for (label, cfg) in fig1_configs() {
            if control
                .cancel
                .as_deref()
                .is_some_and(|c| c.load(Ordering::Relaxed))
            {
                notes.push("run cancelled: remaining points skipped".to_string());
                break 'points;
            }
            // The oracle analysis is likewise a pure function of
            // (configuration, trace), consumed identically by both sides —
            // analyse once per point and share it, so the timed columns
            // compare simulation methodologies rather than re-derived prep.
            let oracle: Option<OracleClassifier> = cfg
                .needs_oracle()
                .then(|| crate::sim::analyze_oracle(&cfg, &detail));
            let t0 = std::time::Instant::now();
            let full = match full_detail_ipc(cfg, kind, &detail, oracle.as_ref(), &spec) {
                Ok(ipc) => ipc,
                Err(e) => {
                    error_points += 1;
                    rows.push(vec![
                        kind.name().to_string(),
                        label.to_string(),
                        format!("error: {e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]);
                    continue;
                }
            };
            let full_secs = t0.elapsed().as_secs_f64();

            let mut request = SampledRequest::new(cfg, kind, spec)
                .trace(&detail)
                .decoded(&dec)
                .control(SampleControl {
                    journal: ctx
                        .journal_dir
                        .as_deref()
                        .map(|dir| journal::journal_path(dir, kind.name(), label)),
                    config_label: label.to_string(),
                    cache: ctx.cache.cloned(),
                    trace_fnv,
                    ..control.clone()
                });
            if let Some(oracle) = &oracle {
                request = request.oracle(oracle);
            }
            let t1 = std::time::Instant::now();
            let sampled = match request.run() {
                Ok(s) => s,
                Err(e) => {
                    error_points += 1;
                    rows.push(vec![
                        kind.name().to_string(),
                        label.to_string(),
                        format!("{full:.4}"),
                        format!("error: {e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]);
                    continue;
                }
            };
            let sampled_secs = t1.elapsed().as_secs_f64();
            if sampled.is_partial() {
                partial_points += 1;
                for f in &sampled.failures {
                    notes.push(format!("{}/{label}: {f}", kind.name()));
                }
            }
            if let Some(e) = &sampled.journal_error {
                notes.push(format!("{}/{label}: journal disabled: {e}", kind.name()));
            }
            for m in &sampled.intervals {
                digest_buf.push_str(&digest_line(kind.name(), label, m));
            }

            let estimate = sampled.weighted_ipc();
            let err = (estimate - full).abs() / full * 100.0;
            worst_err = worst_err.max(err);
            total_full_secs += full_secs;
            total_sampled_secs += sampled_secs;
            functional_secs += sampled.timing.functional_secs;
            functional_insts += sampled.total_insts;
            detail_cpu_secs += sampled.timing.detail_cpu_secs;
            detailed_insts += sampled.detailed_insts;
            journal_secs += sampled.timing.journal_secs;
            resumed_intervals += sampled.resumed_intervals;
            planned_intervals += sampled.planned_intervals;
            let partial_mark = if sampled.is_partial() {
                format!(
                    " [PARTIAL {}/{}]",
                    sampled.intervals.len(),
                    sampled.planned_intervals
                )
            } else {
                String::new()
            };
            rows.push(vec![
                kind.name().to_string(),
                label.to_string(),
                format!("{full:.4}"),
                format!(
                    "{:.4} ± {:.4} (±{:.2}%){partial_mark}",
                    sampled.ipc.mean,
                    sampled.ipc.half_width,
                    sampled.ipc.relative_percent()
                ),
                format!("{err:.2}"),
                format!("{full_secs:.2}"),
                format!("{sampled_secs:.2}"),
                format!("{:.2}x", full_secs / sampled_secs.max(1e-9)),
            ]);
        }
    }

    report.push_table(
        &[
            "workload",
            "config",
            "full IPC",
            "sampled IPC (95% CI)",
            "err%",
            "full s",
            "sampled s",
            "speedup",
        ],
        rows,
    );
    let mut out = String::new();
    out.push_str(&format!(
        "\ntotal wall-clock: full {total_full_secs:.2}s, sampled {total_sampled_secs:.2}s \
         -> {:.2}x speedup; worst per-point IPC error {worst_err:.2}%\n",
        total_full_secs / total_sampled_secs.max(1e-9)
    ));
    let functional_rate = functional_insts as f64 / functional_secs.max(1e-9);
    let detailed_rate = detailed_insts as f64 / detail_cpu_secs.max(1e-9);
    let journal_part = if ctx.journal_dir.is_some() {
        format!(
            ", journaling {journal_secs:.3}s ({:.2}% of sampled wall-clock)",
            journal_secs / total_sampled_secs.max(1e-9) * 100.0
        )
    } else {
        String::new()
    };
    out.push_str(&format!(
        "timing breakdown (all sampled points): functional pass {functional_secs:.2}s, \
         detailed intervals {detail_cpu_secs:.2} cpu-s (overlapped with the functional \
         pass){journal_part}\n"
    ));
    out.push_str(&format!(
        "throughput: functional {} insts/s, detailed {} insts/s\n",
        functional_rate as u64, detailed_rate as u64
    ));
    if let Some(cache) = ctx.cache {
        out.push_str(&cache.stats().summary_line());
        out.push('\n');
    }
    out.push_str(
        "(sampled side = 1 streamed decode-once functional pass overlapped with \
         online-LPT parallel detailed intervals; full side = 1 serial full-detail run \
         per point)\n",
    );
    if control.resume {
        out.push_str(&format!(
            "resume: {resumed_intervals}/{planned_intervals} intervals replayed from journals\n"
        ));
    }
    if partial_points > 0 || error_points > 0 {
        out.push_str(&format!(
            "DEGRADED RUN: {} partial point(s), {} failed point(s) — partial CIs are \
             widened for the missing intervals\n",
            partial_points, error_points
        ));
    }
    for note in &notes {
        out.push_str(&format!("  {note}\n"));
    }
    let digest = result_digest(&digest_buf);
    out.push_str(&format!(
        "result digest: {digest} (FNV-1a over every measured interval)\n"
    ));
    report.push_text(out);
    report.push_meta("digest", digest);
    report.push_meta("partial_points", partial_points.to_string());
    report.push_meta("error_points", error_points.to_string());
    report.push_meta("resumed_intervals", resumed_intervals.to_string());
    report.push_meta("planned_intervals", planned_intervals.to_string());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn quick_spec() -> SampleSpec {
        // Cheaper than the default spec (smaller measured windows) but the
        // same trace length: short traces bias the *reference* (a 48k
        // compute-bound run under-reports steady IPC by ~2% of cold-start
        // ramp all by itself), so accuracy must be judged at a length where
        // the full-detail run has amortized its own transient.
        SampleSpec {
            total_insts: 240_000,
            intervals: 12,
            detail_warm: 1_000,
            detail_measure: 2_000,
            seed: 2015,
            warm_insts: 4_000,
        }
    }

    #[test]
    fn sampled_run_reports_interval_and_ci() {
        let spec = quick_spec();
        let r = SampledRequest::new(
            PipelineConfig::ltp_proposed(),
            WorkloadKind::IndirectStream,
            spec,
        )
        .run()
        .expect("no deadlock");
        assert!(r.failures.is_empty());
        assert_eq!(r.intervals.len(), 12);
        assert_eq!(r.ipc.n, 12);
        assert!(r.ipc.mean > 0.0);
        assert!(r.ipc.half_width.is_finite());
        assert!(r.detailed_insts < r.total_insts / 4);
        // Intervals are in trace order with increasing starts.
        for w in r.intervals.windows(2) {
            assert!(w[0].start < w[1].start);
        }
        // Checkpoints are compact (~200 kB encoded, dominated by cache tags)
        // and must stay so: the runner holds one per interval in memory.
        // Encode the first interval's, as the runner captures it.
        let detail = trace(
            WorkloadKind::IndirectStream,
            spec.seed.wrapping_add(1),
            spec.total_insts as usize,
        );
        let mut ff = FunctionalFastForward::new(PipelineConfig::ltp_proposed());
        ff.warm_caches(&trace(
            WorkloadKind::IndirectStream,
            spec.seed,
            spec.warm_insts as usize,
        ));
        ff.advance_on(&DecodedTrace::from_insts(&detail), r.intervals[0].start);
        let bytes = ff.checkpoint().expect("checkpoint").to_bytes().len();
        assert!(bytes > 0);
        assert!(bytes < 400_000, "{bytes} bytes");
    }

    #[test]
    fn sampled_ipc_is_close_to_full_detail() {
        // The headline accuracy claim, deterministic: <= 2% IPC error on the
        // Figure-1 configurations (the configurations the `sample`
        // experiment's speed-up claim covers) at a ~15% detail fraction.
        let spec = quick_spec();
        for kind in [WorkloadKind::IndirectStream, WorkloadKind::ComputeBound] {
            let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
            for (label, cfg) in fig1_configs() {
                let full = full_detail_ipc(cfg, kind, &detail, None, &spec).expect("no deadlock");
                let sampled = SampledRequest::new(cfg, kind, spec)
                    .trace(&detail)
                    .run()
                    .expect("no deadlock");
                let err = (sampled.weighted_ipc() - full).abs() / full * 100.0;
                assert!(
                    err <= 2.0,
                    "{}/{label}: sampled {:.4} vs full {:.4} -> {err:.2}% error",
                    kind.name(),
                    sampled.weighted_ipc(),
                    full
                );
            }
        }
    }

    #[test]
    fn streaming_matches_two_phase_runner() {
        // The streaming pipeline must be a pure schedule change: identical
        // per-interval measurements (and therefore identical IPC and CI) to
        // the two-phase reference, which itself uses the per-instruction
        // functional interpreter.
        let spec = quick_spec();
        let kind = WorkloadKind::IndirectStream;
        let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
        for (label, cfg) in fig1_configs() {
            let streamed = SampledRequest::new(cfg, kind, spec)
                .trace(&detail)
                .run()
                .expect("streamed");
            let two_phase = SampledRequest::new(cfg, kind, spec)
                .trace(&detail)
                .two_phase()
                .run()
                .expect("2-phase");
            assert_eq!(
                streamed.intervals.len(),
                two_phase.intervals.len(),
                "{label}"
            );
            for (s, t) in streamed.intervals.iter().zip(&two_phase.intervals) {
                assert_eq!(s.index, t.index, "{label}");
                assert_eq!(s.start, t.start, "{label}");
                assert_eq!(
                    s.instructions, t.instructions,
                    "{label} interval {}",
                    s.index
                );
                assert_eq!(s.cycles, t.cycles, "{label} interval {}", s.index);
                assert_eq!(s.weight, t.weight, "{label} interval {}", s.index);
            }
            assert_eq!(streamed.ipc.mean.to_bits(), two_phase.ipc.mean.to_bits());
            assert_eq!(streamed.detailed_insts, two_phase.detailed_insts);
        }
    }

    #[test]
    fn timing_breakdown_is_populated() {
        let spec = quick_spec();
        let t0 = Instant::now();
        let r = SampledRequest::new(
            PipelineConfig::ltp_proposed(),
            WorkloadKind::ComputeBound,
            spec,
        )
        .run()
        .expect("no deadlock");
        let wall_secs = t0.elapsed().as_secs_f64();
        assert!(r.timing.functional_secs > 0.0);
        assert!(r.timing.detail_cpu_secs > 0.0);
        assert!(wall_secs >= r.timing.functional_secs);
        // Streaming overlap: the end-to-end wall clock must not exceed the
        // serial sum of the phases (it should be well under on multi-core).
        assert!(wall_secs <= r.timing.functional_secs + r.timing.detail_cpu_secs + 1.0);
    }

    #[test]
    fn short_stride_clamps_detail_window() {
        // Intervals shorter than warm+measure shrink the window instead of
        // panicking or overlapping the next interval.
        let spec = SampleSpec {
            total_insts: 6_000,
            intervals: 6,
            detail_warm: 5_000,
            detail_measure: 5_000,
            seed: 3,
            warm_insts: 1_000,
        };
        let (warm, measure) = spec.effective_window(1_000);
        assert_eq!(warm, 999);
        assert_eq!(measure, 1);
        let r = SampledRequest::new(
            PipelineConfig::ltp_proposed(),
            WorkloadKind::IndirectStream,
            spec,
        )
        .run()
        .expect("clamped run");
        assert_eq!(r.intervals.len(), 6);
        for w in r.intervals.windows(2) {
            // Measured windows stay within their own interval.
            assert!(w[0].start + 1_000 <= w[1].start + 1);
        }
    }

    #[test]
    fn oracle_configs_are_sampleable() {
        let spec = SampleSpec {
            total_insts: 24_000,
            intervals: 4,
            detail_warm: 500,
            detail_measure: 1_000,
            seed: 7,
            warm_insts: 2_000,
        };
        let cfg = limit_study_config(LtpMode::NonUrgentOnly).with_iq(32);
        let r = SampledRequest::new(cfg, WorkloadKind::IndirectStream, spec)
            .run()
            .expect("oracle sampled run");
        assert_eq!(r.intervals.len(), 4);
        assert!(r.ipc.mean > 0.0);
    }

    /// An oracle-classified request that analyses its own trace: the
    /// Non-Ready limit study at IQ 32.
    fn analysing_request(spec: SampleSpec) -> SampledRequest<'static> {
        let cfg = limit_study_config(LtpMode::Both).with_iq(32);
        SampledRequest::new(cfg, WorkloadKind::MixedPhases, spec)
    }

    /// Runs `request` over its generated trace on a thread of its own, with
    /// `analyse` standing in for the oracle analysis, and returns how the
    /// run ended (`Err` with the panic message if it panicked), or `None` if
    /// it did not end in time.
    fn run_with_analysis(
        request: SampledRequest<'static>,
        analyse: impl FnOnce() -> OracleClassifier + Send + 'static,
    ) -> Option<Result<SampledResult, String>> {
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let source = TraceSource::Generator {
                kind: request.kind,
                seed: request.spec.seed.wrapping_add(1),
                total: request.spec.total_insts,
            };
            let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_controlled(&request, source, analyse)
            }))
            .map(|r| r.expect("no run error"))
            .map_err(|p| crate::parallel::panic_message(p.as_ref()));
            let _ = tx.send(ended);
        });
        // A run that does not end in time is left running: joining it
        // would hang the test.
        let ended = rx.recv_timeout(Duration::from_secs(120)).ok()?;
        runner
            .join()
            .expect("the runner thread caught the run's panic");
        Some(ended)
    }

    /// The analysis running beside the functional pass classifies exactly
    /// as an analysis shared by the caller, which runs before the pass.
    #[test]
    fn concurrent_analysis_matches_a_shared_one() {
        let spec = cache_spec();
        let detail = trace(
            WorkloadKind::MixedPhases,
            spec.seed.wrapping_add(1),
            spec.total_insts as usize,
        );
        let request = analysing_request(spec);
        let shared = crate::sim::analyze_oracle(&request.cfg, &detail);
        let concurrent = request.trace(&detail).run().expect("concurrent run");
        let serial = analysing_request(spec)
            .trace(&detail)
            .oracle(&shared)
            .run()
            .expect("serial run");
        assert!(concurrent.failures.is_empty());
        let lines = |r: &SampledResult| -> Vec<String> {
            r.intervals
                .iter()
                .map(|m| digest_line(r.workload.as_str(), "oracle", m))
                .collect()
        };
        assert_eq!(lines(&concurrent), lines(&serial));
    }

    /// A panicking analysis panics the run, as a serial analysis did, and
    /// leaves no interval waiting for it.
    #[test]
    fn a_panicking_analysis_panics_the_run() {
        let ended = run_with_analysis(analysing_request(cache_spec()), || {
            panic!("injected analysis failure")
        });
        match ended {
            Some(Err(message)) => assert_eq!(message, "injected analysis failure"),
            Some(Ok(_)) => panic!("the run survived a panicking analysis"),
            None => panic!("the run hung after its analysis panicked"),
        }
    }

    /// A request cancelled while its analysis runs returns, with every
    /// interval either measured or cancelled.
    #[test]
    fn cancelling_during_the_analysis_returns() {
        let spec = cache_spec();
        let cancel = Arc::new(AtomicBool::new(false));
        let request = analysing_request(spec).control(SampleControl {
            cancel: Some(Arc::clone(&cancel)),
            ..SampleControl::default()
        });
        let cfg = request.cfg;
        let analyse = move || {
            cancel.store(true, Ordering::Relaxed);
            let detail = trace(
                WorkloadKind::MixedPhases,
                spec.seed.wrapping_add(1),
                spec.total_insts as usize,
            );
            crate::sim::analyze_oracle(&cfg, &detail)
        };
        let r = run_with_analysis(request, analyse)
            .expect("the cancelled run returned")
            .expect("the cancelled run did not panic");
        assert_eq!(r.intervals.len() + r.failures.len(), spec.intervals);
        assert!(r
            .failures
            .iter()
            .all(|f| matches!(f.error, IntervalError::Cancelled)));
    }

    fn cache_spec() -> SampleSpec {
        SampleSpec {
            total_insts: 60_000,
            intervals: 6,
            detail_warm: 500,
            detail_measure: 1_000,
            seed: 11,
            warm_insts: 2_000,
        }
    }

    fn cache_tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ltp-sampled-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run_against_cache(
        cache: Option<Arc<crate::cache::CheckpointCache>>,
        spec: &SampleSpec,
    ) -> SampledResult {
        let kind = WorkloadKind::IndirectStream;
        let cfg = PipelineConfig::ltp_proposed();
        let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
        let dec = DecodedTrace::from_insts(&detail);
        let control = SampleControl {
            cache,
            ..SampleControl::default()
        };
        SampledRequest::new(cfg, kind, *spec)
            .trace(&detail)
            .decoded(&dec)
            .control(control)
            .run()
            .expect("sampled run")
    }

    fn assert_results_bit_identical(a: &SampledResult, b: &SampledResult) {
        assert_eq!(a.ipc.mean.to_bits(), b.ipc.mean.to_bits());
        assert_eq!(a.ipc.half_width.to_bits(), b.ipc.half_width.to_bits());
        assert_eq!(a.intervals.len(), b.intervals.len());
        for (x, y) in a.intervals.iter().zip(&b.intervals) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.instructions, y.instructions);
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.weight, y.weight);
        }
    }

    /// A cache-hit run bypasses the functional pass yet reproduces the cold
    /// run's per-interval measurements, IPC mean and confidence interval
    /// bit-for-bit.
    #[test]
    fn cache_hit_run_is_bit_identical_to_cold_run() {
        let spec = cache_spec();
        let dir = cache_tmp_dir("hit");
        let baseline = run_against_cache(None, &spec);

        let cache = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("open"));
        let cold = run_against_cache(Some(cache.clone()), &spec);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.stores, 1);
        assert_results_bit_identical(&baseline, &cold);

        // A fresh cache handle on the same directory, as a later sweep
        // invocation would open.
        let cache2 = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("reopen"));
        let warm = run_against_cache(Some(cache2.clone()), &spec);
        let stats = cache2.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_results_bit_identical(&baseline, &warm);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupted cache entry is a miss: the run regenerates (and re-stores)
    /// it instead of failing or producing different numbers.
    #[test]
    fn corrupted_cache_entry_is_regenerated() {
        let spec = cache_spec();
        let dir = cache_tmp_dir("corrupt");
        let cache = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("open"));
        let cold = run_against_cache(Some(cache.clone()), &spec);
        assert_eq!(cache.stats().stores, 1);

        // Flip a byte in the middle of the stored entry.
        let entry = std::fs::read_dir(&dir)
            .expect("cache dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .expect("one entry file");
        let mut bytes = std::fs::read(&entry).expect("read entry");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&entry, &bytes).expect("write corruption");

        let cache2 = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("reopen"));
        let recovered = run_against_cache(Some(cache2.clone()), &spec);
        let stats = cache2.stats();
        assert_eq!(stats.hits, 0, "corrupt entry must not count as a hit");
        assert!(stats.corrupt >= 1);
        assert_eq!(stats.stores, 1, "the entry is regenerated");
        assert_results_bit_identical(&cold, &recovered);

        // And the regenerated entry serves the next run.
        let cache3 = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("reopen2"));
        let warm = run_against_cache(Some(cache3.clone()), &spec);
        assert_eq!(cache3.stats().hits, 1);
        assert_results_bit_identical(&cold, &warm);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Detail-only configuration changes share one cache entry; a different
    /// warm half (classifier-training projection) takes its own.
    #[test]
    fn cache_entries_are_shared_across_detail_configs_only() {
        let spec = cache_spec();
        let dir = cache_tmp_dir("share");
        let kind = WorkloadKind::IndirectStream;
        let detail = trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize);
        let dec = DecodedTrace::from_insts(&detail);
        let cache = Arc::new(crate::cache::CheckpointCache::open(&dir).expect("open"));
        let control = SampleControl {
            cache: Some(cache.clone()),
            ..SampleControl::default()
        };
        let run = |cfg: PipelineConfig| {
            SampledRequest::new(cfg, kind, spec)
                .trace(&detail)
                .decoded(&dec)
                .control(control.clone())
                .run()
                .expect("sampled run")
        };
        let _ = run(PipelineConfig::ltp_proposed());
        let _ = run(PipelineConfig::ltp_proposed().with_iq(256).with_regs(128));
        let _ =
            run(PipelineConfig::ltp_proposed()
                .with_classifier(ltp_core::ClassifierKind::AlwaysReady));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1, "IQ:256 shares the proposed design's entry");
        assert_eq!(stats.misses, 2, "the inert classifier needs its own");
        assert_eq!(stats.stores, 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pre-set cancel flag cancels every interval: the run is partial with
    /// all failures tagged [`IntervalError::Cancelled`], not an error.
    #[test]
    fn preset_cancel_flag_cancels_all_intervals() {
        let spec = cache_spec();
        let cancel = Arc::new(AtomicBool::new(true));
        let r = SampledRequest::new(
            PipelineConfig::ltp_proposed(),
            WorkloadKind::IndirectStream,
            spec,
        )
        .control(SampleControl {
            cancel: Some(cancel),
            ..SampleControl::default()
        })
        .run()
        .expect("cancelled run is not an error");
        assert!(r.is_partial(), "all intervals cancelled => partial");
        assert_eq!(r.failures.len(), spec.intervals);
        for f in &r.failures {
            assert!(
                matches!(f.error, IntervalError::Cancelled),
                "unexpected failure: {:?}",
                f.error
            );
        }
    }

    /// The progress sink observes every measured interval exactly the set the
    /// final result reports.
    #[test]
    fn progress_sink_sees_every_measured_interval() {
        let spec = cache_spec();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let r = SampledRequest::new(
            PipelineConfig::ltp_proposed(),
            WorkloadKind::IndirectStream,
            spec,
        )
        .progress(Arc::new(move |m: &IntervalMeasurement| {
            sink.lock().expect("sink lock").push((m.index, m.cycles));
        }))
        .run()
        .expect("sampled run");
        let mut seen = seen.lock().expect("sink lock").clone();
        seen.sort_unstable();
        let mut expect: Vec<(usize, u64)> =
            r.intervals.iter().map(|m| (m.index, m.cycles)).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    /// The digest helpers are stable: same measurements, same digest string.
    #[test]
    fn digest_helpers_are_deterministic() {
        let m = IntervalMeasurement {
            index: 3,
            start: 1_000,
            instructions: 2_000,
            cycles: 2_500,
            ipc: 0.8,
            weight: 7,
        };
        let line = digest_line("indirect_stream", "ltp_proposed", &m);
        assert_eq!(line, "indirect_stream|ltp_proposed|3|2000|2500\n");
        let d1 = result_digest(&line);
        let d2 = result_digest(&line);
        assert_eq!(d1, d2);
        assert!(d1.starts_with("0x"), "digest renders as 0x-prefixed hex");
        assert_eq!(d1.len(), 18, "{{:#018x}} formatting");
        assert_ne!(d1, result_digest("other\n"));
    }
}
