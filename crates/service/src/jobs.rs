//! Job model: request parsing, per-job state machines, the shared registry
//! and the worker threads that drive jobs through the sampled runner.
//!
//! Every job funnels into the same entry points the CLI uses — a point job
//! into [`SampledRequest::run`], an experiment job into [`Experiment::run`] —
//! with the same journal, checkpoint-cache and digest machinery, which is
//! what makes an HTTP job's final digest bit-identical to the equivalent
//! in-process or CLI run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ltp_experiments::fault::FaultPlan;
use ltp_experiments::parallel::{worker_threads, LptGovernor, RetryPolicy};
use ltp_experiments::runner::named_config;
use ltp_experiments::sampled::{
    digest_line, result_digest, IntervalError, IntervalMeasurement, SampleControl, SampleSpec,
    SampledRequest,
};
use ltp_experiments::{CheckpointCache, Experiment, ExperimentCtx, RunOptions};
use ltp_isa::DynInst;
use ltp_stats::{ConfidenceInterval, Histogram};
use ltp_workloads::WorkloadKind;

use crate::json::{escape, Json};

/// Lifecycle of one job. `Queued → Warming → Sampling` then one of the four
/// terminal states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, worker thread not yet past setup.
    Queued,
    /// Functional warm-up / fast-forward in progress (no interval measured
    /// yet).
    Warming,
    /// At least one interval measurement has streamed out.
    Sampling,
    /// Completed with every planned interval measured.
    Done,
    /// Completed degraded: some intervals were lost (fault injection, retry
    /// exhaustion) but the measured remainder is reported.
    Partial,
    /// The run itself failed (e.g. a deadlocked configuration or a panic).
    Failed,
    /// Cancelled by the client; measured intervals up to that point are
    /// retained.
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Warming => "warming",
            JobState::Sampling => "sampling",
            JobState::Done => "done",
            JobState::Partial => "partial",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job has finished (successfully or not).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Partial | JobState::Failed | JobState::Cancelled
        )
    }
}

/// All job states, for metrics enumeration.
pub const ALL_STATES: [JobState; 7] = [
    JobState::Queued,
    JobState::Warming,
    JobState::Sampling,
    JobState::Done,
    JobState::Partial,
    JobState::Failed,
    JobState::Cancelled,
];

/// What a job runs.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// One sampled point: a workload under a named configuration.
    Point {
        /// Workload to sample.
        workload: WorkloadKind,
        /// Inline detailed trace; generated from the spec's seed when absent.
        trace: Option<Vec<DynInst>>,
        /// One of [`ltp_experiments::runner::NAMED_CONFIGS`].
        config_name: String,
        /// Sampling geometry.
        spec: SampleSpec,
        /// Deterministic fault plan injected into interval attempts.
        faults: FaultPlan,
        /// Per-interval attempt budget.
        retries: u32,
    },
    /// A whole experiment (the `sample` experiment streams intervals and
    /// journals per point; the figure experiments run opaquely and return
    /// their report).
    Experiment {
        /// Which experiment.
        experiment: Experiment,
        /// Instruction budgets and seed.
        opts: RunOptions,
        /// Per-interval attempt budget (sample experiment only).
        retries: u32,
    },
}

/// Most instructions a job may ask to simulate or warm with:
/// `spec.total_insts`, `spec.warm_insts` and an experiment's `warm`. A cold
/// generator-sourced point decodes its whole trace and an oracle point
/// collects it (80 B per instruction), so an unbounded size lets one request
/// exhaust the server's memory. Ten times the largest in-repo request.
pub const MAX_JOB_INSTS: u64 = 1 << 22;
/// Most intervals a point job may ask for (`spec.intervals`).
pub const MAX_JOB_INTERVALS: u64 = 1_024;
/// Largest experiment `insts` budget: the `sample` experiment collects
/// 16 × `insts` instructions per workload, which this keeps within
/// [`MAX_JOB_INSTS`].
pub const MAX_EXPERIMENT_INSTS: u64 = MAX_JOB_INSTS / 16;

/// The unsigned field `key` of `obj`, if present. A value above `max` is an
/// error naming the field (`prefix` + `key`) and the limit.
fn at_most(obj: &Json, prefix: &str, key: &str, max: u64) -> Result<Option<u64>, String> {
    match obj.get(key).and_then(Json::as_u64) {
        Some(n) if n > max => Err(format!("\"{prefix}{key}\" must be at most {max}")),
        n => Ok(n),
    }
}

/// A parsed job submission.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// What to run.
    pub kind: JobKind,
    /// The raw request body, persisted verbatim so a restarted server can
    /// re-parse and resume the job.
    pub raw: String,
}

impl JobRequest {
    /// Parses a submission body.
    ///
    /// Two shapes are accepted. An experiment job:
    /// `{"experiment": "sample", "quick": true, "seed": 7, "retries": 3}`,
    /// and a point job:
    /// `{"workload": "indirect_stream", "config": "ltp_proposed",
    ///   "quick": true, "spec": {"total_insts": ..., "intervals": ...},
    ///   "trace_hex": "...", "inject": "panic:2", "retries": 3}`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for syntax errors, unknown names,
    /// malformed inline traces and sizes above [`MAX_JOB_INSTS`],
    /// [`MAX_JOB_INTERVALS`] or [`MAX_EXPERIMENT_INSTS`].
    pub fn parse(body: &str) -> Result<JobRequest, String> {
        let v = Json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
        let quick = v.get("quick").and_then(Json::as_bool).unwrap_or(false);
        let retries = v
            .get("retries")
            .and_then(Json::as_u64)
            .map_or(3, |r| u32::try_from(r.clamp(1, 100)).expect("clamped"));

        if let Some(name) = v.get("experiment") {
            let name = name.as_str().ok_or("\"experiment\" must be a string")?;
            let experiment = Experiment::from_name(name)
                .ok_or_else(|| format!("unknown experiment `{name}`"))?;
            let mut opts = if quick {
                RunOptions::quick()
            } else {
                RunOptions::default()
            };
            if let Some(n) = at_most(&v, "", "insts", MAX_EXPERIMENT_INSTS)? {
                opts.detail_insts = n;
            }
            if let Some(n) = at_most(&v, "", "warm", MAX_JOB_INSTS)? {
                opts.warm_insts = n;
            }
            if let Some(n) = v.get("seed").and_then(Json::as_u64) {
                opts.seed = n;
            }
            return Ok(JobRequest {
                kind: JobKind::Experiment {
                    experiment,
                    opts,
                    retries,
                },
                raw: body.to_string(),
            });
        }

        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("job needs either \"experiment\" or \"workload\"")?;
        let workload = WorkloadKind::from_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let config_name = v
            .get("config")
            .map(|c| c.as_str().ok_or("\"config\" must be a string"))
            .transpose()?
            .unwrap_or("ltp_proposed")
            .to_string();
        if named_config(&config_name).is_none() {
            return Err(format!("unknown config `{config_name}`"));
        }

        let base_opts = if quick {
            RunOptions::quick()
        } else {
            RunOptions::default()
        };
        let mut spec = SampleSpec::from_options(&base_opts);
        if let Some(s) = v.get("spec") {
            for (key, field, max) in [
                (
                    "total_insts",
                    &mut spec.total_insts as &mut u64,
                    MAX_JOB_INSTS,
                ),
                ("detail_warm", &mut spec.detail_warm, u64::MAX),
                ("detail_measure", &mut spec.detail_measure, u64::MAX),
                ("seed", &mut spec.seed, u64::MAX),
                ("warm_insts", &mut spec.warm_insts, MAX_JOB_INSTS),
            ] {
                if let Some(n) = at_most(s, "spec.", key, max)? {
                    *field = n;
                }
            }
            if let Some(n) = at_most(s, "spec.", "intervals", MAX_JOB_INTERVALS)? {
                if n == 0 {
                    return Err("\"spec.intervals\" must be at least 1".into());
                }
                spec.intervals = n as usize;
            }
        }

        let trace = v
            .get("trace_hex")
            .map(|t| -> Result<Vec<DynInst>, String> {
                let hex = t.as_str().ok_or("\"trace_hex\" must be a string")?;
                let bytes = hex_decode(hex)?;
                ltp_snapshot::decode_envelope::<Vec<DynInst>>(&bytes)
                    .map_err(|e| format!("bad trace envelope: {e}"))
            })
            .transpose()?;
        if let Some(t) = &trace {
            spec.total_insts = t.len() as u64;
        }

        let faults = v
            .get("inject")
            .map(|f| -> Result<FaultPlan, String> {
                let spec = f.as_str().ok_or("\"inject\" must be a string")?;
                FaultPlan::parse(spec).map_err(|e| format!("bad fault plan: {e}"))
            })
            .transpose()?
            .unwrap_or_default();

        Ok(JobRequest {
            kind: JobKind::Point {
                workload,
                trace,
                config_name,
                spec,
                faults,
                retries,
            },
            raw: body.to_string(),
        })
    }
}

/// Final aggregate of a finished job.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// FNV-1a digest over every measured interval
    /// ([`ltp_experiments::sampled::result_digest`]); the bit-identity
    /// anchor across transports.
    pub digest: String,
    /// Mean per-interval IPC with its 95 % confidence half-width.
    pub ipc: ConfidenceInterval,
    /// Full report JSON (experiment jobs only).
    pub report_json: Option<String>,
}

/// Mutable job state, guarded by the job's mutex.
#[derive(Debug)]
pub struct JobShared {
    /// Lifecycle state.
    pub state: JobState,
    /// Intervals the run plans to measure (0 until known).
    pub planned: usize,
    /// Completed interval measurements in completion order.
    pub intervals: Vec<IntervalMeasurement>,
    /// Final aggregate, set exactly when the state turns terminal.
    pub summary: Option<JobSummary>,
    /// Failure detail for `failed` (and degraded detail for `partial`).
    pub error: Option<String>,
    /// Interval indices already streamed (a retry policy with a deadline can
    /// emit one interval twice; see
    /// [`ltp_experiments::sampled::ProgressSink`]).
    seen: std::collections::HashSet<usize>,
    /// Bumped by every update, so a waiter can tell whether anything
    /// changed since it last looked (see [`Job::wait_update`]).
    generation: u64,
}

/// One job: identity, shared state and its cancellation flag.
#[derive(Debug)]
pub struct Job {
    /// Job id (monotonically increasing, stable across restarts).
    pub id: u64,
    /// Raw submission body.
    pub raw: String,
    shared: Mutex<JobShared>,
    changed: Condvar,
    cancel: Arc<AtomicBool>,
}

impl Job {
    fn new(id: u64, raw: String) -> Job {
        Job {
            id,
            raw,
            shared: Mutex::new(JobShared {
                state: JobState::Queued,
                planned: 0,
                intervals: Vec::new(),
                summary: None,
                error: None,
                seen: std::collections::HashSet::new(),
                generation: 0,
            }),
            changed: Condvar::new(),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Runs `f` under the job lock.
    pub fn with_shared<R>(&self, f: impl FnOnce(&JobShared) -> R) -> R {
        f(&self.shared.lock().expect("job lock"))
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> JobState {
        self.with_shared(|s| s.state)
    }

    /// Requests cancellation (cooperative; already-running intervals finish).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
        self.changed.notify_all();
    }

    /// Blocks until the shared state is newer than generation `seen` (at
    /// once if it already is) or `timeout` elapses; returns the generation
    /// it read and `f` evaluated on the state. A caller passing back the
    /// generation of its previous read therefore sees every update, even
    /// one that landed while it was busy between two waits. Generation 0
    /// is a job no update has touched yet.
    pub fn wait_update<R>(
        &self,
        seen: u64,
        timeout: Duration,
        f: impl FnOnce(&JobShared) -> R,
    ) -> (u64, R) {
        let guard = self.shared.lock().expect("job lock");
        let (guard, _) = self
            .changed
            .wait_timeout_while(guard, timeout, |s| s.generation == seen)
            .expect("job condvar");
        (guard.generation, f(&guard))
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait_terminal(&self) -> JobState {
        let mut guard = self.shared.lock().expect("job lock");
        while !guard.state.is_terminal() {
            guard = self
                .changed
                .wait_timeout(guard, Duration::from_millis(200))
                .expect("job condvar")
                .0;
        }
        guard.state
    }

    fn update(&self, f: impl FnOnce(&mut JobShared)) {
        let mut guard = self.shared.lock().expect("job lock");
        f(&mut guard);
        guard.generation += 1;
        drop(guard);
        self.changed.notify_all();
    }
}

/// Server-wide counters exported by `GET /metrics`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Submissions rejected by admission control (HTTP 429).
    pub rejected: AtomicU64,
    /// Checkpoint-cache hits aggregated across finished jobs.
    pub cache_hits: AtomicU64,
    /// Checkpoint-cache misses aggregated across finished jobs.
    pub cache_misses: AtomicU64,
    /// Per-endpoint request-handling latency in microseconds.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Metrics {
    /// Records one request's handling latency.
    pub fn record_latency(&self, endpoint: &'static str, micros: u64) {
        self.latency
            .lock()
            .expect("metrics lock")
            .entry(endpoint)
            .or_default()
            .record(micros);
    }

    /// Snapshot of every endpoint's `(count, mean, p50, p99)` in µs.
    #[must_use]
    pub fn latency_snapshot(&self) -> Vec<(&'static str, u64, f64, u64, u64)> {
        self.latency
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(ep, h)| {
                (
                    *ep,
                    h.count(),
                    h.mean(),
                    h.percentile(0.50).unwrap_or(0),
                    h.percentile(0.99).unwrap_or(0),
                )
            })
            .collect()
    }
}

struct RegistryInner {
    jobs: BTreeMap<u64, Arc<Job>>,
    next_id: u64,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// The shared job registry: submission, lookup, cancellation, restart
/// resume, and the cross-job execution governor.
pub struct Registry {
    inner: Mutex<RegistryInner>,
    governor: Arc<LptGovernor>,
    cache_dir: Option<PathBuf>,
    journal_dir: Option<PathBuf>,
    max_jobs: usize,
    /// Server-wide counters.
    pub metrics: Arc<Metrics>,
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// Admission control: too many active jobs (HTTP 429).
    Busy {
        /// Jobs currently active.
        active: usize,
        /// The admission limit.
        limit: usize,
    },
    /// The job could not be persisted to the journal directory.
    Io(std::io::Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { active, limit } => {
                write!(f, "{active} active jobs (limit {limit})")
            }
            SubmitError::Io(e) => write!(f, "cannot persist job: {e}"),
        }
    }
}

impl Registry {
    /// Creates a registry whose governor holds `workers` permits (0 = the
    /// shared [`worker_threads`] policy: `LTP_THREADS` or available
    /// parallelism).
    #[must_use]
    pub fn new(
        workers: usize,
        max_jobs: usize,
        cache_dir: Option<PathBuf>,
        journal_dir: Option<PathBuf>,
    ) -> Registry {
        let permits = if workers == 0 {
            worker_threads(usize::MAX)
        } else {
            workers
        };
        Registry {
            inner: Mutex::new(RegistryInner {
                jobs: BTreeMap::new(),
                next_id: 1,
                workers: Vec::new(),
            }),
            governor: Arc::new(LptGovernor::new(permits)),
            cache_dir,
            journal_dir,
            max_jobs: max_jobs.max(1),
            metrics: Arc::new(Metrics::default()),
        }
    }

    /// The cross-job execution governor (exported for `GET /metrics`).
    #[must_use]
    pub fn governor(&self) -> &Arc<LptGovernor> {
        &self.governor
    }

    /// Jobs not yet in a terminal state.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .jobs
            .values()
            .filter(|j| !j.state().is_terminal())
            .count()
    }

    /// Job counts by state.
    #[must_use]
    pub fn jobs_by_state(&self) -> Vec<(JobState, usize)> {
        let inner = self.inner.lock().expect("registry lock");
        ALL_STATES
            .iter()
            .map(|&st| (st, inner.jobs.values().filter(|j| j.state() == st).count()))
            .collect()
    }

    /// Looks up a job.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.inner
            .lock()
            .expect("registry lock")
            .jobs
            .get(&id)
            .cloned()
    }

    /// Submits a job: admission control, persistence, worker spawn.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] over the admission limit; [`SubmitError::Io`]
    /// when the `.job` sidecar cannot be written.
    pub fn submit(self: &Arc<Registry>, request: JobRequest) -> Result<Arc<Job>, SubmitError> {
        let active = self.active_jobs();
        if active >= self.max_jobs {
            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Busy {
                active,
                limit: self.max_jobs,
            });
        }
        let id = {
            let mut inner = self.inner.lock().expect("registry lock");
            let id = inner.next_id;
            inner.next_id += 1;
            id
        };
        self.persist_job(id, &request).map_err(SubmitError::Io)?;
        Ok(self.spawn(id, request))
    }

    /// Writes the `.job` sidecar that makes the submission survive a crash.
    fn persist_job(&self, id: u64, request: &JobRequest) -> std::io::Result<()> {
        if let Some(dir) = &self.journal_dir {
            std::fs::create_dir_all(dir)?;
            std::fs::write(dir.join(format!("{id}.job")), request.raw.as_bytes())?;
        }
        Ok(())
    }

    fn spawn(self: &Arc<Registry>, id: u64, request: JobRequest) -> Arc<Job> {
        let job = Arc::new(Job::new(id, request.raw.clone()));
        let registry = Arc::clone(self);
        let worker_job = Arc::clone(&job);
        let handle = std::thread::spawn(move || {
            run_job(&registry, &worker_job, request.kind);
        });
        let mut inner = self.inner.lock().expect("registry lock");
        inner.jobs.insert(id, Arc::clone(&job));
        inner.workers.push(handle);
        job
    }

    /// Re-submits every persisted job that never completed (`.job` sidecar
    /// without a `.done` marker) — the kill-9-and-restart path. The journal
    /// files written by the dead server's partial run replay under the same
    /// job id, so the resumed job completes bit-identically.
    ///
    /// Returns the resumed job ids.
    pub fn resume_pending(self: &Arc<Registry>) -> Vec<u64> {
        let Some(dir) = self.journal_dir.clone() else {
            return Vec::new();
        };
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return Vec::new();
        };
        let mut pending: Vec<(u64, String)> = Vec::new();
        let mut max_id = 0u64;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name
                .strip_suffix(".job")
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            max_id = max_id.max(id);
            if dir.join(format!("{id}.done")).exists() {
                continue;
            }
            if let Ok(raw) = std::fs::read_to_string(entry.path()) {
                pending.push((id, raw));
            }
        }
        {
            let mut inner = self.inner.lock().expect("registry lock");
            inner.next_id = inner.next_id.max(max_id + 1);
        }
        pending.sort_by_key(|(id, _)| *id);
        let mut resumed = Vec::new();
        for (id, raw) in pending {
            match JobRequest::parse(&raw) {
                Ok(request) => {
                    self.spawn(id, request);
                    resumed.push(id);
                }
                Err(e) => {
                    // An unparseable sidecar is marked done so it is not
                    // retried forever.
                    let _ = std::fs::write(
                        dir.join(format!("{id}.done")),
                        format!("unresumable: {e}\n"),
                    );
                }
            }
        }
        resumed
    }

    /// Cancels a job. Returns `false` for unknown ids.
    #[must_use]
    pub fn cancel(&self, id: u64) -> bool {
        match self.get(id) {
            Some(job) => {
                job.cancel();
                true
            }
            None => false,
        }
    }

    /// Cancels everything and joins the worker threads (server shutdown).
    pub fn shutdown(&self) {
        let (jobs, workers) = {
            let mut inner = self.inner.lock().expect("registry lock");
            (
                inner.jobs.values().cloned().collect::<Vec<_>>(),
                std::mem::take(&mut inner.workers),
            )
        };
        for job in jobs {
            job.cancel();
        }
        for handle in workers {
            let _ = handle.join();
        }
    }
}

/// Marks the job complete on disk (`.done` sidecar) so a restart does not
/// re-run it. Called before the terminal-state update, so a job that any
/// client has seen finish is already marked when the server restarts.
fn mark_done(registry: &Registry, id: u64, detail: &str) {
    if let Some(dir) = &registry.journal_dir {
        let _ = std::fs::write(dir.join(format!("{id}.done")), format!("{detail}\n"));
    }
}

/// The worker-thread body: drives one job to a terminal state. Panics in the
/// runner itself (not just in interval workers, which the fault-tolerant
/// distributor already contains) are caught here, so a poisoned job fails
/// without taking the server down.
fn run_job(registry: &Arc<Registry>, job: &Arc<Job>, kind: JobKind) {
    job.update(|s| s.state = JobState::Warming);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match kind {
        JobKind::Point {
            workload,
            trace: inline,
            config_name,
            spec,
            faults,
            retries,
        } => run_point_job(
            registry,
            job,
            workload,
            inline,
            &config_name,
            spec,
            faults,
            retries,
        ),
        JobKind::Experiment {
            experiment,
            opts,
            retries,
        } => run_experiment_job(registry, job, experiment, &opts, retries),
    }));
    match outcome {
        Ok(()) => {}
        Err(panic) => {
            let msg = panic_message(&panic);
            mark_done(registry, job.id, "failed: panic");
            job.update(|s| {
                s.state = JobState::Failed;
                s.error = Some(format!("job panicked: {msg}"));
            });
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A progress sink that appends to the job's interval list (deduplicated by
/// index) and flips `Warming → Sampling` on the first measurement.
fn progress_sink(job: &Arc<Job>) -> ltp_experiments::sampled::ProgressSink {
    let job = Arc::clone(job);
    Arc::new(move |m: &IntervalMeasurement| {
        job.update(|s| {
            if s.seen.insert(m.index) {
                s.intervals.push(m.clone());
                if s.state == JobState::Warming {
                    s.state = JobState::Sampling;
                }
            }
        });
    })
}

fn service_retry(retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: retries.max(1),
        base_backoff: Duration::from_millis(10),
        // No per-attempt deadline: an interval queued behind other jobs'
        // permits would trip a wall-clock deadline through no fault of its
        // own, and the simulator's deadlock watchdog already bounds hangs.
        deadline: None,
    }
}

fn open_cache(registry: &Registry) -> Option<Arc<CheckpointCache>> {
    registry
        .cache_dir
        .as_deref()
        .and_then(|dir| CheckpointCache::open(dir).ok())
        .map(Arc::new)
}

fn fold_cache_stats(registry: &Registry, cache: Option<&Arc<CheckpointCache>>) {
    if let Some(cache) = cache {
        let stats = cache.stats();
        registry
            .metrics
            .cache_hits
            .fetch_add(stats.hits, Ordering::Relaxed);
        registry
            .metrics
            .cache_misses
            .fetch_add(stats.misses, Ordering::Relaxed);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_point_job(
    registry: &Arc<Registry>,
    job: &Arc<Job>,
    workload: WorkloadKind,
    inline: Option<Vec<DynInst>>,
    config_name: &str,
    spec: SampleSpec,
    faults: FaultPlan,
    retries: u32,
) {
    job.update(|s| s.planned = spec.intervals);
    let cfg = named_config(config_name).expect("config validated at parse");
    let cache = open_cache(registry);

    let mut request = SampledRequest::new(cfg, workload, spec).control(SampleControl {
        retry: service_retry(retries),
        faults,
        journal: registry
            .journal_dir
            .as_ref()
            .map(|dir| dir.join(job.id.to_string()).join("point.journal")),
        // Resume is on whenever journaling is: a fresh job has no journal
        // (which silently degrades to a fresh run), and a journal left by a
        // killed server replays its completed intervals bit-identically.
        resume: registry.journal_dir.is_some(),
        config_label: config_name.to_string(),
        cache: cache.clone(),
        trace_fnv: None,
        progress: Some(progress_sink(job)),
        cancel: Some(Arc::clone(&job.cancel)),
        governor: Some(Arc::clone(&registry.governor)),
    });
    if let Some(detail) = &inline {
        request = request.trace(detail);
    }

    let outcome = request.run();
    // Fold cache stats before the terminal-state update: the moment the job
    // turns terminal, clients may read /metrics and must see this job's
    // lookups.
    fold_cache_stats(registry, cache.as_ref());
    match outcome {
        Err(e) => {
            mark_done(registry, job.id, "failed");
            job.update(|s| {
                s.state = JobState::Failed;
                s.error = Some(format!("simulation failed: {e}"));
            });
        }
        Ok(result) => {
            let mut lines = String::new();
            for m in &result.intervals {
                lines.push_str(&digest_line(workload.name(), config_name, m));
            }
            let digest = result_digest(&lines);
            let cancelled = !result.failures.is_empty()
                && result
                    .failures
                    .iter()
                    .all(|f| matches!(f.error, IntervalError::Cancelled));
            let state = if cancelled {
                JobState::Cancelled
            } else if result.is_partial() {
                JobState::Partial
            } else {
                JobState::Done
            };
            let error = (!result.failures.is_empty()).then(|| {
                result
                    .failures
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            });
            mark_done(registry, job.id, &format!("{} {digest}", state.as_str()));
            job.update(|s| {
                s.state = state;
                s.planned = result.planned_intervals;
                s.error = error;
                s.summary = Some(JobSummary {
                    digest,
                    ipc: result.ipc,
                    report_json: None,
                });
            });
        }
    }
}

fn run_experiment_job(
    registry: &Arc<Registry>,
    job: &Arc<Job>,
    experiment: Experiment,
    opts: &RunOptions,
    retries: u32,
) {
    // The sample controls reach only the `sample` experiment, which streams
    // intervals, journals per point and honours cancellation; the figure
    // experiments run opaquely. Every experiment shares the cache.
    let cache = open_cache(registry);
    let mut ctx = ExperimentCtx::new(opts).with_cache(cache.as_ref());
    ctx.sample.retry = service_retry(retries);
    ctx.sample.progress = Some(progress_sink(job));
    ctx.sample.cancel = Some(Arc::clone(&job.cancel));
    ctx.sample.governor = Some(Arc::clone(&registry.governor));
    if let Some(dir) = &registry.journal_dir {
        ctx.journal_dir = Some(dir.join(job.id.to_string()));
        ctx.sample.resume = true;
    }
    let report = experiment.run(&ctx);
    // Fold cache stats before the terminal-state update, so clients that
    // observe completion see this job's lookups.
    fold_cache_stats(registry, cache.as_ref());
    let digest = report
        .meta("digest")
        .map(ToString::to_string)
        .unwrap_or_default();
    let partial: usize = report
        .meta("partial_points")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let errors: usize = report
        .meta("error_points")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let cancelled = job.cancel.load(Ordering::Relaxed);
    let state = if cancelled {
        JobState::Cancelled
    } else if partial > 0 || errors > 0 {
        JobState::Partial
    } else {
        JobState::Done
    };
    mark_done(registry, job.id, &format!("{} {digest}", state.as_str()));
    job.update(|s| {
        s.state = state;
        s.planned = report
            .meta("planned_intervals")
            .and_then(|v| v.parse().ok())
            .unwrap_or(s.intervals.len());
        if partial > 0 || errors > 0 {
            s.error = Some(format!(
                "{partial} partial point(s), {errors} failed point(s)"
            ));
        }
        let ipcs: Vec<f64> = s.intervals.iter().map(|m| m.ipc).collect();
        s.summary = Some(JobSummary {
            digest,
            ipc: ConfidenceInterval::from_samples(&ipcs),
            report_json: Some(report.to_json()),
        });
    });
}

/// Renders one interval measurement as the wire JSON object used by status
/// and streaming responses.
#[must_use]
pub fn interval_json(m: &IntervalMeasurement) -> String {
    format!(
        "{{\"index\":{},\"start\":{},\"instructions\":{},\"cycles\":{},\"ipc\":{},\"weight\":{}}}",
        m.index, m.start, m.instructions, m.cycles, m.ipc, m.weight
    )
}

/// Renders the terminal summary line of a result stream.
#[must_use]
pub fn summary_json(shared: &JobShared) -> String {
    let mut out = String::from("{\"final\":true");
    out.push_str(&format!(",\"state\":{}", escape(shared.state.as_str())));
    out.push_str(&format!(",\"completed\":{}", shared.intervals.len()));
    out.push_str(&format!(",\"planned\":{}", shared.planned));
    if let Some(summary) = &shared.summary {
        out.push_str(&format!(",\"digest\":{}", escape(&summary.digest)));
        out.push_str(&format!(
            ",\"ipc\":{{\"mean\":{},\"half_width\":{},\"n\":{}}}",
            summary.ipc.mean, summary.ipc.half_width, summary.ipc.n
        ));
    }
    if let Some(error) = &shared.error {
        out.push_str(&format!(",\"error\":{}", escape(error)));
    }
    out.push('}');
    out
}

/// Hex-encodes bytes (the inline-trace wire format).
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes a hex string produced by [`hex_encode`].
///
/// # Errors
///
/// Rejects odd lengths and non-hex characters.
pub fn hex_decode(hex: &str) -> Result<Vec<u8>, String> {
    let hex = hex.trim();
    if !hex.len().is_multiple_of(2) {
        return Err("hex string has odd length".into());
    }
    let bytes = hex.as_bytes();
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = hex_digit(pair[0])?;
        let lo = hex_digit(pair[1])?;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn hex_digit(b: u8) -> Result<u8, String> {
    match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        b'A'..=b'F' => Ok(b - b'A' + 10),
        _ => Err(format!("bad hex digit `{}`", b as char)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_workloads::trace;

    #[test]
    fn parses_point_job_with_spec_overrides() {
        let req = JobRequest::parse(
            r#"{"workload":"indirect_stream","config":"micro2015_baseline",
                "quick":true,"spec":{"total_insts":24000,"intervals":4},"retries":2}"#,
        )
        .expect("parse");
        match req.kind {
            JobKind::Point {
                workload,
                config_name,
                spec,
                retries,
                ..
            } => {
                assert_eq!(workload, WorkloadKind::IndirectStream);
                assert_eq!(config_name, "micro2015_baseline");
                assert_eq!(spec.total_insts, 24_000);
                assert_eq!(spec.intervals, 4);
                assert_eq!(retries, 2);
            }
            JobKind::Experiment { .. } => panic!("expected a point job"),
        }
    }

    #[test]
    fn parses_experiment_job() {
        let req =
            JobRequest::parse(r#"{"experiment":"sample","quick":true,"seed":7}"#).expect("parse");
        match req.kind {
            JobKind::Experiment {
                experiment, opts, ..
            } => {
                assert_eq!(experiment.name(), "sample");
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.detail_insts, RunOptions::quick().detail_insts);
            }
            JobKind::Point { .. } => panic!("expected an experiment job"),
        }
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(JobRequest::parse(r#"{"workload":"nope"}"#).is_err());
        assert!(JobRequest::parse(r#"{"experiment":"nope"}"#).is_err());
        assert!(JobRequest::parse(r#"{"workload":"hash_probe","config":"nope"}"#).is_err());
        assert!(JobRequest::parse(r#"{"zero":"keys"}"#).is_err());
        assert!(JobRequest::parse("not json").is_err());
        assert!(JobRequest::parse(r#"{"workload":"hash_probe","spec":{"intervals":0}}"#).is_err());
    }

    /// Every bounded size is accepted at its limit and rejected one past
    /// it, with a message naming the field and the limit.
    #[test]
    fn job_sizes_are_bounded_at_parse_time() {
        let point = |spec: &str| format!(r#"{{"workload":"hash_probe","spec":{{{spec}}}}}"#);
        let experiment = |field: &str| format!(r#"{{"experiment":"sample",{field}}}"#);
        for (body_at, body_over, field, max) in [
            (
                point(&format!(r#""total_insts":{MAX_JOB_INSTS}"#)),
                point(&format!(r#""total_insts":{}"#, MAX_JOB_INSTS + 1)),
                "spec.total_insts",
                MAX_JOB_INSTS,
            ),
            (
                point(&format!(r#""warm_insts":{MAX_JOB_INSTS}"#)),
                point(&format!(r#""warm_insts":{}"#, MAX_JOB_INSTS + 1)),
                "spec.warm_insts",
                MAX_JOB_INSTS,
            ),
            (
                point(&format!(r#""intervals":{MAX_JOB_INTERVALS}"#)),
                point(&format!(r#""intervals":{}"#, MAX_JOB_INTERVALS + 1)),
                "spec.intervals",
                MAX_JOB_INTERVALS,
            ),
            (
                experiment(&format!(r#""insts":{MAX_EXPERIMENT_INSTS}"#)),
                experiment(&format!(r#""insts":{}"#, MAX_EXPERIMENT_INSTS + 1)),
                "insts",
                MAX_EXPERIMENT_INSTS,
            ),
            (
                experiment(&format!(r#""warm":{MAX_JOB_INSTS}"#)),
                experiment(&format!(r#""warm":{}"#, MAX_JOB_INSTS + 1)),
                "warm",
                MAX_JOB_INSTS,
            ),
        ] {
            assert!(JobRequest::parse(&body_at).is_ok(), "{field} at its limit");
            let err = JobRequest::parse(&body_over).expect_err(field);
            assert_eq!(err, format!("\"{field}\" must be at most {max}"));
        }
        // The sample experiment at the experiment limit stays within the
        // instruction limit.
        assert_eq!(MAX_EXPERIMENT_INSTS * 16, MAX_JOB_INSTS);
    }

    #[test]
    fn inline_trace_round_trips_and_sets_length() {
        let detail = trace(WorkloadKind::HashProbe, 5, 600);
        let hex = hex_encode(&ltp_snapshot::encode_envelope(&detail));
        let req = JobRequest::parse(&format!(
            r#"{{"workload":"hash_probe","trace_hex":"{hex}","spec":{{"intervals":2}}}}"#
        ))
        .expect("parse");
        match req.kind {
            JobKind::Point { trace, spec, .. } => {
                let t = trace.expect("inline trace");
                assert_eq!(t.len(), 600);
                assert_eq!(spec.total_insts, 600);
            }
            JobKind::Experiment { .. } => panic!("expected a point job"),
        }
    }

    #[test]
    fn hex_codec_round_trips_and_rejects_garbage() {
        let bytes = [0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(hex_decode(&hex_encode(&bytes)).expect("decode"), bytes);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn job_state_machine_basics() {
        assert!(!JobState::Sampling.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert_eq!(JobState::Partial.as_str(), "partial");
    }

    /// The result stream reads the job, writes a chunk, then waits again.
    /// An update landing while it writes must end the next wait at once,
    /// not when its timeout fires; so must one landing while it waits.
    #[test]
    fn wait_update_sees_updates_between_and_during_waits() {
        let job = Arc::new(Job::new(1, String::new()));
        let forever = Duration::from_secs(3600);
        job.update(|s| s.state = JobState::Sampling);
        let (seen, state) = job.wait_update(0, forever, |s| s.state);
        assert_eq!((seen, state), (1, JobState::Sampling));
        // The terminal update lands between the read and the next wait.
        job.update(|s| s.state = JobState::Done);
        let (seen, state) = job.wait_update(seen, forever, |s| s.state);
        assert_eq!((seen, state), (2, JobState::Done));

        // An update made while another thread waits wakes it.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let waiter = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || {
                ready_tx.send(()).expect("send");
                job.wait_update(seen, forever, |s| s.error.clone())
            })
        };
        ready_rx.recv().expect("waiter started");
        job.update(|s| s.error = Some("late".into()));
        let (seen, error) = waiter.join().expect("waiter");
        assert_eq!((seen, error.as_deref()), (3, Some("late")));
    }

    #[test]
    fn registry_runs_a_tiny_point_job_to_done() {
        let registry = Arc::new(Registry::new(2, 4, None, None));
        let req = JobRequest::parse(
            r#"{"workload":"compute_bound","spec":{"total_insts":6000,"intervals":2,
                "detail_warm":200,"detail_measure":500,"seed":3,"warm_insts":500}}"#,
        )
        .expect("parse");
        let job = registry.submit(req).expect("submit");
        let state = job.wait_terminal();
        assert_eq!(state, JobState::Done);
        job.with_shared(|s| {
            assert_eq!(s.intervals.len(), 2);
            let summary = s.summary.as_ref().expect("summary");
            assert!(summary.digest.starts_with("0x"));
            assert!(summary.ipc.mean > 0.0);
        });
        registry.shutdown();
    }

    #[test]
    fn admission_control_rejects_over_limit() {
        let registry = Arc::new(Registry::new(1, 1, None, None));
        let slow = JobRequest::parse(
            r#"{"workload":"pointer_chase","spec":{"total_insts":200000,"intervals":8,
                "detail_warm":1000,"detail_measure":4000,"seed":3,"warm_insts":2000}}"#,
        )
        .expect("parse");
        let job = registry.submit(slow.clone()).expect("first submit");
        let second = registry.submit(slow);
        match second {
            Err(SubmitError::Busy { active, limit }) => {
                assert_eq!(active, 1);
                assert_eq!(limit, 1);
            }
            Ok(_) | Err(SubmitError::Io(_)) => panic!("expected Busy"),
        }
        job.cancel();
        let state = job.wait_terminal();
        assert!(state.is_terminal());
        registry.shutdown();
    }
}
