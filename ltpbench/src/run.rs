//! The untraced workloads. They call only the simulator's stable entry
//! points — `SimBuilder`, `SampledRequest`, `CheckpointCache::open` and the
//! job server over HTTP — so narrowing the lower-level API cannot break the
//! end-to-end numbers.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ltp_experiments::sampled::{
    digest_line, result_digest, SampleSpec, SampledRequest, SampledResult,
};
use ltp_experiments::{CheckpointCache, SimBuilder};
use ltp_isa::{trace_fingerprint, DecodedTrace, DynInst};
use ltp_pipeline::RunResult;
use ltp_service::{Server, ServiceConfig};
use ltp_workloads::trace;

use crate::http;
use crate::norm::{RefClock, Sample};
use crate::plan::{Plan, Point, Workload};
use crate::report::{Metric, OpTimes, Samples};
use crate::sys::{peak_rss_mb, thread_count, wait_for_threads, ScratchDir};

/// How long the program may take to go idle after an operation before the
/// benchmark notes it and measures the reference kernel anyway.
const IDLE_LIMIT: Duration = Duration::from_secs(10);

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into the workload's points.
    pub point: usize,
    /// The operation's time and its normalisation.
    pub sample: Sample,
    /// Raw ms from the start of the operation to its first result.
    pub first_ms: f64,
    /// Raw ms from the start of the operation to its final result.
    pub done_ms: f64,
    /// Raw ms of the job submission round trip (service jobs only).
    pub submit_ms: f64,
    /// Result digest of the operation.
    pub digest: Option<String>,
    /// Why the operation failed, when it did before any digest check.
    pub error: Option<String>,
}

impl Op {
    /// Whether the operation failed: an error, no digest, or a digest that
    /// differs from the point's reference (a missing reference fails too).
    #[must_use]
    pub fn failed(&self, reference: Option<&str>) -> bool {
        self.error.is_some() || self.digest.is_none() || self.digest.as_deref() != reference
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Its points.
    pub points: Vec<Point>,
    /// Trace instructions one operation covers.
    pub insts_per_op: u64,
    /// Normalised ms of every piece of each set-up, one vector per set-up.
    pub setups: Vec<Vec<f64>>,
    /// Every timed operation, in the order run.
    pub ops: Vec<Op>,
    /// Reference digest per point (`None` when the reference itself failed).
    pub reference: Vec<Option<String>>,
    /// Peak RSS at the end of the timed work, in MB.
    pub peak_rss_mb: f64,
    /// Every raw reference kernel time, in ms.
    pub refs: Vec<f64>,
    /// Anything worth printing beside the numbers.
    pub notes: Vec<String>,
}

impl Run {
    /// `(attempted, failed)` operations.
    #[must_use]
    pub fn tally(&self) -> (usize, usize) {
        let failed = self
            .ops
            .iter()
            .filter(|op| op.failed(self.reference[op.point].as_deref()))
            .count();
        (self.ops.len(), failed)
    }

    /// The workload digest: FNV-1a over the per-point reference digests.
    #[must_use]
    pub fn digest(&self) -> String {
        let joined: Vec<&str> = self
            .reference
            .iter()
            .map(|r| r.as_deref().unwrap_or("missing"))
            .collect();
        result_digest(&joined.join("\n"))
    }

    /// The samples the end-to-end metrics come from: the normalised times
    /// of every successful operation, the set-ups and the peak RSS.
    #[must_use]
    pub fn samples(&self) -> Samples {
        let ops = self
            .ops
            .iter()
            .filter(|op| op.error.is_none())
            .map(|op| OpTimes {
                point: op.point,
                op_ms: op.sample.norm_ms(),
                first_ms: op.first_ms * op.sample.scale,
                done_ms: op.done_ms * op.sample.scale,
            })
            .collect();
        Samples {
            points: self.points.len(),
            insts_per_op: self.insts_per_op,
            setups: self.setups.clone(),
            ops,
            peak_rss_mb: vec![self.peak_rss_mb],
        }
    }

    /// The end-to-end metrics of this process alone.
    ///
    /// # Panics
    ///
    /// Panics when no operation succeeded.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        self.samples().metrics()
    }
}

/// The digest line of one full-detail result.
#[must_use]
pub fn full_detail_line(point: &Point, r: &RunResult) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}\n",
        point.kind.name(),
        point.label,
        r.instructions,
        r.cycles,
        r.ltp.total_parked(),
        r.llc_miss_loads
    )
}

/// The digest of a sampled result, as every transport computes it.
#[must_use]
pub fn sampled_digest(point: &Point, r: &SampledResult) -> String {
    let lines: String = r
        .intervals
        .iter()
        .map(|m| digest_line(point.kind.name(), point.label, m))
        .collect();
    result_digest(&lines)
}

/// Why a sampled result does not count as a clean run, if it does not.
#[must_use]
pub fn sampled_error(r: &SampledResult) -> Option<String> {
    if r.is_partial() {
        Some(format!(
            "partial: {}",
            r.failures
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        ))
    } else {
        r.journal_error.as_ref().map(|e| format!("journal: {e}"))
    }
}

/// Index of `point`'s kernel in the plan (and in its per-kernel set-up).
///
/// # Panics
///
/// Panics when the point's kernel is not in the plan.
#[must_use]
pub fn kernel_index(plan: &Plan, point: &Point) -> usize {
    plan.kernels
        .iter()
        .position(|&k| k == point.kind)
        .expect("point kernels come from the plan")
}

/// Set-up of `full_detail`: the detailed trace of every kernel. Returns the
/// traces and the normalised ms of each piece.
pub fn full_detail_setup(plan: &Plan, clock: &mut RefClock) -> (Vec<Vec<DynInst>>, Vec<f64>) {
    let mut pieces = Vec::new();
    let traces = plan
        .kernels
        .iter()
        .map(|&kind| {
            let builder = SimBuilder::new(ltp_pipeline::PipelineConfig::micro2015_baseline(), kind)
                .options(&plan.opts);
            let (t, s) = clock.time(|| builder.detail_trace(), || {});
            pieces.push(s.norm_ms());
            t
        })
        .collect();
    (traces, pieces)
}

/// One `full_detail` operation: a point through `SimBuilder::run_on`.
pub fn full_detail_op(
    plan: &Plan,
    clock: &mut RefClock,
    p: usize,
    point: &Point,
    detail: &[DynInst],
) -> Op {
    let builder = SimBuilder::new(point.cfg, point.kind).options(&plan.opts);
    let (result, sample) = clock.time(|| builder.run_on(detail), || {});
    let (digest, error) = match result {
        Ok(r) => (Some(result_digest(&full_detail_line(point, &r))), None),
        Err(e) => (None, Some(e.to_string())),
    };
    Op {
        point: p,
        sample,
        first_ms: sample.raw_ms,
        done_ms: sample.raw_ms,
        submit_ms: 0.0,
        digest,
        error,
    }
}

/// The `full_detail` workload. The reference digest of each point is its
/// first repetition.
#[must_use]
pub fn full_detail(plan: &Plan) -> Run {
    let mut clock = RefClock::start(plan.nominal_ref_ms);
    let points = plan.detail_points();
    let mut setups = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..plan.setups {
        traces.clear();
        let (t, s) = full_detail_setup(plan, &mut clock);
        traces = t;
        setups.push(s);
    }
    let mut ops = Vec::new();
    for _ in 0..plan.rounds {
        for (p, point) in points.iter().enumerate() {
            let detail = &traces[kernel_index(plan, point)];
            ops.push(full_detail_op(plan, &mut clock, p, point, detail));
        }
    }
    let peak = peak_rss_mb();
    let reference = (0..points.len())
        .map(|p| {
            ops.iter()
                .find(|op| op.point == p)
                .and_then(|op| op.digest.clone())
        })
        .collect();
    Run {
        workload: Workload::FullDetail,
        insts_per_op: plan.opts.detail_insts,
        points,
        setups,
        ops,
        reference,
        peak_rss_mb: peak,
        refs: clock.refs().to_vec(),
        notes: Vec::new(),
    }
}

/// One kernel's prepared sampled input: trace, decoded form, fingerprint.
#[derive(Debug)]
pub struct Prepared {
    /// The detailed trace.
    pub detail: Vec<DynInst>,
    /// Its decoded form.
    pub dec: DecodedTrace,
    /// Its content fingerprint.
    pub fnv: u64,
}

/// Set-up of `sampled_cold`, as the `sample` experiment does it: generate,
/// decode and fingerprint every kernel's trace once. Each of the three
/// steps is a normalised piece; returns the inputs and each piece's ms.
pub fn sampled_setup(plan: &Plan, clock: &mut RefClock) -> (Vec<Prepared>, Vec<f64>) {
    let spec = plan.sampled;
    let mut pieces = Vec::new();
    let prepared = plan
        .kernels
        .iter()
        .map(|&kind| {
            let (detail, a) = clock.time(
                || trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize),
                || {},
            );
            let (dec, b) = clock.time(|| DecodedTrace::from_insts(&detail), || {});
            let (fnv, c) = clock.time(|| trace_fingerprint(&detail), || {});
            pieces.extend([a.norm_ms(), b.norm_ms(), c.norm_ms()]);
            Prepared { detail, dec, fnv }
        })
        .collect();
    (prepared, pieces)
}

/// One `sampled_cold` operation: open an empty checkpoint cache in `dir`
/// and run the point through `SampledRequest::run` with a journal.
pub fn sampled_cold_op(
    plan: &Plan,
    clock: &mut RefClock,
    p: usize,
    point: &Point,
    prep: &Prepared,
    dir: &Path,
) -> Op {
    let first: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let sink = {
        let first = Arc::clone(&first);
        Arc::new(move |_: &ltp_experiments::sampled::IntervalMeasurement| {
            first.get_or_init(Instant::now);
        })
    };
    let t0 = Instant::now();
    let (result, sample) = clock.time(
        || -> Result<SampledResult, String> {
            let cache = CheckpointCache::open(dir.join("cache")).map_err(|e| e.to_string())?;
            SampledRequest::new(point.cfg, point.kind, plan.sampled)
                .trace(&prep.detail)
                .decoded(&prep.dec)
                .trace_fnv(prep.fnv)
                .config_label(point.label)
                .cache(Arc::new(cache))
                .journal(dir.join("point.journal"))
                .progress(sink)
                .run()
                .map_err(|e| e.to_string())
        },
        || {},
    );
    let first_ms = first
        .get()
        .map_or(sample.raw_ms, |t| t.duration_since(t0).as_secs_f64() * 1e3);
    let (digest, error) = match result {
        Ok(r) => (Some(sampled_digest(point, &r)), sampled_error(&r)),
        Err(e) => (None, Some(e)),
    };
    Op {
        point: p,
        sample,
        first_ms,
        done_ms: sample.raw_ms,
        submit_ms: 0.0,
        digest,
        error,
    }
}

/// The cache-hit rerun that is a `sampled_cold` point's reference: the same
/// request over the cache its last cold run filled. A rerun that does not
/// hit the cache is no reference.
pub fn sampled_reference(
    plan: &Plan,
    point: &Point,
    prep: &Prepared,
    dir: &Path,
) -> Result<String, String> {
    let cache = Arc::new(CheckpointCache::open(dir.join("cache")).map_err(|e| e.to_string())?);
    let r = SampledRequest::new(point.cfg, point.kind, plan.sampled)
        .trace(&prep.detail)
        .decoded(&prep.dec)
        .trace_fnv(prep.fnv)
        .config_label(point.label)
        .cache(Arc::clone(&cache))
        .run()
        .map_err(|e| e.to_string())?;
    let stats = cache.stats();
    if stats.hits != 1 || stats.misses != 0 {
        return Err(format!(
            "rerun was not a cache hit ({} hits, {} misses)",
            stats.hits, stats.misses
        ));
    }
    match sampled_error(&r) {
        Some(e) => Err(e),
        None => Ok(sampled_digest(point, &r)),
    }
}

/// The `sampled_cold` workload.
///
/// # Panics
///
/// Panics when a scratch directory cannot be created.
#[must_use]
pub fn sampled_cold(plan: &Plan) -> Run {
    let mut clock = RefClock::start(plan.nominal_ref_ms);
    let points = plan.detail_points();
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..plan.setups {
        prepared.clear();
        let (prep, s) = sampled_setup(plan, &mut clock);
        prepared = prep;
        setups.push(s);
    }
    let mut dirs: Vec<Option<ScratchDir>> = points.iter().map(|_| None).collect();
    let mut ops = Vec::new();
    for round in 0..plan.rounds {
        for (p, point) in points.iter().enumerate() {
            // The previous round's directory goes before the timer starts.
            dirs[p] = None;
            let dir = ScratchDir::new(&format!("cold-{p}-{round}")).expect("scratch directory");
            let prep = &prepared[kernel_index(plan, point)];
            ops.push(sampled_cold_op(
                plan,
                &mut clock,
                p,
                point,
                prep,
                dir.path(),
            ));
            dirs[p] = Some(dir);
        }
    }
    let peak = peak_rss_mb();
    let mut notes = Vec::new();
    let reference = points
        .iter()
        .zip(&dirs)
        .map(|(point, dir)| {
            let dir = dir.as_ref().expect("every point ran");
            let prep = &prepared[kernel_index(plan, point)];
            sampled_reference(plan, point, prep, dir.path())
                .map_err(|e| {
                    notes.push(format!(
                        "{}/{}: reference: {e}",
                        point.kind.name(),
                        point.label
                    ))
                })
                .ok()
        })
        .collect();
    Run {
        workload: Workload::SampledCold,
        insts_per_op: plan.sampled.total_insts,
        points,
        setups,
        ops,
        reference,
        peak_rss_mb: peak,
        refs: clock.refs().to_vec(),
        notes,
    }
}

/// The body of a point job: `"quick": true` plus the whole spec, so the job
/// runs exactly `spec`.
#[must_use]
pub fn job_body(point: &Point, spec: &SampleSpec) -> String {
    format!(
        "{{\"workload\":\"{}\",\"config\":\"{}\",\"quick\":true,\"spec\":{{\"total_insts\":{},\
         \"intervals\":{},\"detail_warm\":{},\"detail_measure\":{},\"seed\":{},\"warm_insts\":{}}}}}",
        point.kind.name(),
        point.label,
        spec.total_insts,
        spec.intervals,
        spec.detail_warm,
        spec.detail_measure,
        spec.seed,
        spec.warm_insts
    )
}

/// What one HTTP job returned, with raw times from the start of the submit.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// POST round trip.
    pub submit_ms: f64,
    /// Arrival of the first interval line.
    pub first_ms: Option<f64>,
    /// Arrival of the final summary line.
    pub done_ms: Option<f64>,
    /// Digest on the final line of a `done` job.
    pub digest: Option<String>,
    /// Why the job failed.
    pub error: Option<String>,
}

/// Submits one job and streams its results to the final line.
#[must_use]
pub fn http_job(addr: SocketAddr, body: &str) -> JobOutcome {
    let mut out = JobOutcome::default();
    let t0 = Instant::now();
    let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
    let submitted = match http::request(addr, "POST", "/jobs", body) {
        Ok(r) => r,
        Err(e) => {
            out.error = Some(format!("submit: {e}"));
            return out;
        }
    };
    out.submit_ms = ms(Instant::now());
    let id = match (submitted.status, http::json_u64(&submitted.body, "id")) {
        (200..=299, Some(id)) => id,
        (status, _) => {
            out.error = Some(format!("submit: HTTP {status}: {}", submitted.body));
            return out;
        }
    };
    let streamed = match http::stream_lines(addr, &format!("/jobs/{id}/results")) {
        Ok(s) => s,
        Err(e) => {
            out.error = Some(format!("results: {e}"));
            return out;
        }
    };
    if !(200..=299).contains(&streamed.status) {
        out.error = Some(format!("results: HTTP {}", streamed.status));
        return out;
    }
    out.first_ms = streamed
        .lines
        .iter()
        .find(|(_, l)| l.contains("\"index\":"))
        .map(|(t, _)| ms(*t));
    let Some((t, last)) = streamed
        .lines
        .iter()
        .find(|(_, l)| l.contains("\"final\":true"))
    else {
        out.error = Some("results: no final line".to_string());
        return out;
    };
    out.done_ms = Some(ms(*t));
    match http::json_str(last, "state") {
        Some("done") => out.digest = http::json_str(last, "digest").map(str::to_string),
        state => out.error = Some(format!("job ended {}: {last}", state.unwrap_or("?"))),
    }
    out
}

/// Cache (hits, misses) the server has counted so far.
#[must_use]
pub fn cache_counters(addr: SocketAddr) -> Option<(u64, u64)> {
    let reply = http::request(addr, "GET", "/metrics", "").ok()?;
    let hits = http::json_u64(&reply.body, "hits")?;
    let misses = http::json_u64(&reply.body, "misses")?;
    Some((hits, misses))
}

/// A started job server over a checkpoint cache in its own scratch
/// directory, and the thread count of the process while it is idle.
pub struct Service {
    server: Server,
    idle_threads: u64,
    dir: ScratchDir,
}

impl Service {
    /// The server's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The checkpoint cache directory the server's jobs share.
    #[must_use]
    pub fn cache_dir(&self) -> std::path::PathBuf {
        self.dir.path().join("cache")
    }

    /// Blocks until every job and connection thread has ended; returns
    /// whether that happened in time.
    #[must_use]
    pub fn wait_idle(&self) -> bool {
        wait_for_threads(self.idle_threads, IDLE_LIMIT)
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

/// Set-up of `service_warm`: start a server (default thread policy) and fill
/// its cache by running every job once. Each step is a normalised piece;
/// returns the server and each piece's ms.
///
/// # Panics
///
/// Panics when the scratch directory cannot be created.
pub fn service_setup(
    plan: &Plan,
    clock: &mut RefClock,
    tag: &str,
    notes: &mut Vec<String>,
) -> Result<(Service, Vec<f64>), String> {
    let dir = ScratchDir::new(tag).expect("scratch directory");
    let config = ServiceConfig {
        cache_dir: Some(dir.path().join("cache")),
        ..ServiceConfig::default()
    };
    let (server, started) = clock.time(|| Server::start(&config), || {});
    let server = server.map_err(|e| format!("server start: {e}"))?;
    let service = Service {
        server,
        idle_threads: thread_count(),
        dir,
    };
    let mut pieces = vec![started.norm_ms()];
    for point in plan.service_points() {
        let body = job_body(&point, &plan.service);
        let (job, s) = clock.time(
            || http_job(service.addr(), &body),
            || {
                if !service.wait_idle() {
                    notes.push("set-up: server threads still running after a fill job".into());
                }
            },
        );
        if let Some(e) = job.error {
            return Err(format!(
                "cache fill {}/{}: {e}",
                point.kind.name(),
                point.label
            ));
        }
        pieces.push(s.norm_ms());
    }
    Ok((service, pieces))
}

/// One `service_warm` operation: a job over HTTP whose one checkpoint-cache
/// lookup must hit.
pub fn service_op(
    clock: &mut RefClock,
    service: &Service,
    p: usize,
    body: &str,
    notes: &mut Vec<String>,
) -> Op {
    let before = cache_counters(service.addr());
    let _ = service.wait_idle();
    let mut after = None;
    let (job, sample) = clock.time(
        || http_job(service.addr(), body),
        || {
            if !service.wait_idle() {
                notes.push("server threads still running after a job".into());
            }
            after = cache_counters(service.addr());
            let _ = service.wait_idle();
        },
    );
    let lookup_error = match (before, after) {
        (Some((_, m0)), Some((_, m1))) if m1 != m0 => Some("checkpoint cache miss".to_string()),
        (Some((h0, _)), Some((h1, _))) if h1 != h0 + 1 => Some(format!(
            "checkpoint cache not consulted once ({} hits)",
            h1.wrapping_sub(h0)
        )),
        (Some(_), Some(_)) => None,
        _ => Some("GET /metrics failed".to_string()),
    };
    let error = job.error.or(lookup_error);
    Op {
        point: p,
        sample,
        first_ms: job.first_ms.unwrap_or(sample.raw_ms),
        done_ms: job.done_ms.unwrap_or(sample.raw_ms),
        submit_ms: job.submit_ms,
        digest: job.digest,
        error,
    }
}

/// The in-process run of a job's spec that is its reference, over the
/// checkpoint cache in `cache_dir` when one is given.
pub fn service_reference(
    plan: &Plan,
    point: &Point,
    cache_dir: Option<&Path>,
) -> Result<String, String> {
    let mut request =
        SampledRequest::new(point.cfg, point.kind, plan.service).config_label(point.label);
    if let Some(dir) = cache_dir {
        let cache = CheckpointCache::open(dir).map_err(|e| e.to_string())?;
        request = request.cache(Arc::new(cache));
    }
    let r = request.run().map_err(|e| e.to_string())?;
    match sampled_error(&r) {
        Some(e) => Err(e),
        None => Ok(sampled_digest(point, &r)),
    }
}

/// The `service_warm` workload.
#[must_use]
pub fn service_warm(plan: &Plan) -> Run {
    let mut clock = RefClock::start(plan.nominal_ref_ms);
    let points = plan.service_points();
    let mut notes = Vec::new();
    let mut setups = Vec::new();
    let mut service: Option<Service> = None;
    let mut ops = Vec::new();
    for s in 0..plan.setups {
        if let Some(old) = service.take() {
            old.shutdown();
        }
        match service_setup(plan, &mut clock, &format!("service-{s}"), &mut notes) {
            Ok((svc, pieces)) => {
                service = Some(svc);
                setups.push(pieces);
            }
            Err(e) => notes.push(e),
        }
    }
    let bodies: Vec<String> = points.iter().map(|p| job_body(p, &plan.service)).collect();
    if let Some(service) = &service {
        for _ in 0..plan.rounds {
            for (p, body) in bodies.iter().enumerate() {
                ops.push(service_op(&mut clock, service, p, body, &mut notes));
            }
        }
    }
    let peak = peak_rss_mb();
    if let Some(service) = service {
        service.shutdown();
    }
    let reference = points
        .iter()
        .map(|point| {
            service_reference(plan, point, None)
                .map_err(|e| {
                    notes.push(format!(
                        "{}/{}: reference: {e}",
                        point.kind.name(),
                        point.label
                    ))
                })
                .ok()
        })
        .collect();
    Run {
        workload: Workload::ServiceWarm,
        insts_per_op: plan.service.total_insts,
        points,
        setups,
        ops,
        reference,
        peak_rss_mb: peak,
        refs: clock.refs().to_vec(),
        notes,
    }
}

/// Runs `workload` untraced.
#[must_use]
pub fn run(workload: Workload, plan: &Plan) -> Run {
    match workload {
        Workload::FullDetail => full_detail(plan),
        Workload::SampledCold => sampled_cold(plan),
        Workload::ServiceWarm => service_warm(plan),
    }
}
