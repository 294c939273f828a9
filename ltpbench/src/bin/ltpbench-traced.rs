//! The traced run: the same work as the three workloads, timed through each
//! layer's public calls, printing the per-layer metrics.
//!
//! One traced run covers every workload (the service first, so its peak RSS
//! is read before the sampled traces exist). Each operation is decomposed
//! here, serially, into the calls `SimBuilder::run_on` and
//! `SampledRequest::run` make, with a span around each call; the
//! decomposition must reproduce the untraced digests or the run fails. This
//! file is the only one that calls below the stable entry points, so a
//! change to those lower-level APIs breaks traced runs only.
//!
//! Spans (name, start, end, parent, operation id) are kept in memory and
//! written to `.ltpbench_spans.jsonl` at exit. A layer's self time is its
//! spans' duration minus their children's; a layer metric in ms is the
//! normalised self time of that layer over one traced round of all three
//! workloads, set-up included.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use ltp_core::OracleAnalysis;
use ltp_experiments::cache::{
    sampled_warm_key, CachedInterval, IntervalGeometry, SampledWarmEntry,
};
use ltp_experiments::journal::{JournalHeader, JournalRecord, JournalWriter};
use ltp_experiments::sampled::{digest_line, result_digest, IntervalMeasurement};
use ltp_experiments::CheckpointCache;
use ltp_isa::{trace_fingerprint, DecodedTrace, DynInst};
use ltp_pipeline::{FunctionalFastForward, PipelineConfig, Processor, Snapshot};
use ltp_workloads::{replay_slice, trace};

use ltpbench::args::parse;
use ltpbench::norm::{median, percentile, RefClock};
use ltpbench::plan::{Plan, Point, Workload};
use ltpbench::report::{result_line, Metric};
use ltpbench::run::{self, full_detail_line, Prepared};
use ltpbench::sys::{peak_rss_mb, ScratchDir};

/// Where the spans go at exit.
const SPANS_FILE: &str = ".ltpbench_spans.jsonl";

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// One traced operation (a set-up piece or a workload operation).
#[derive(Debug, Clone)]
struct TracedOp {
    workload: Workload,
    setup: bool,
    root: usize,
    scale: f64,
}

/// The in-memory span recorder.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: Vec<TracedOp>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.ops.len(),
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = Instant::now();
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` as one operation whose root span is `name`, timed and
    /// normalised by `clock`.
    fn op<R>(
        &mut self,
        clock: &mut RefClock,
        workload: Workload,
        setup: bool,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let (out, root, sample) = {
            let mut root = 0;
            let (out, sample) = clock.time(
                || {
                    root = self.begin(name);
                    let out = f(self);
                    self.end(root);
                    out
                },
                || {},
            );
            (out, root, sample)
        };
        self.ops.push(TracedOp {
            workload,
            setup,
            root,
            scale: sample.scale,
        });
        out
    }

    /// Raw ms the direct children of span `id` cover.
    fn children_ms(&self, id: usize) -> f64 {
        (id + 1..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.dur_ms(c))
            .sum()
    }

    fn dur_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end.duration_since(s.start).as_secs_f64() * 1e3
    }

    /// Raw self time of every span, in ms.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.dur_ms(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.dur_ms(i);
            }
        }
        own
    }

    /// Spans recorded under each operation.
    fn spans_per_op(&self) -> Vec<usize> {
        let mut n = vec![0; self.ops.len()];
        for s in &self.spans {
            if let Some(c) = n.get_mut(s.op) {
                *c += 1;
            }
        }
        n
    }

    fn write_out(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.op,
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// Per-layer counts gathered beside the spans.
#[derive(Debug, Default)]
struct Counts {
    cycle_loop_insts: u64,
    ffwd_insts: u64,
    interval_insts: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    cache_stores: u64,
    cache_bytes: u64,
    journals: u64,
    journal_bytes: u64,
}

/// The oracle analysis recipe every harness shares: the ROB-sized window
/// (clamped for unlimited machines) over the trace the run consumes.
fn oracle_for(
    tr: &mut Tracer,
    cfg: &PipelineConfig,
    detail: &[DynInst],
) -> Option<ltp_core::OracleClassifier> {
    cfg.needs_oracle().then(|| {
        tr.span("core.oracle", || {
            OracleAnalysis::new(cfg.rob_size.min(4096) as u64).analyze(detail, &cfg.mem)
        })
    })
}

/// `SimBuilder::run_on`, call by call.
fn full_detail_traced(
    tr: &mut Tracer,
    counts: &mut Counts,
    plan: &Plan,
    point: &Point,
    detail: &[DynInst],
) -> Result<String, String> {
    let opts = &plan.opts;
    let mut cpu = tr.span("pipeline.build", || Processor::new(point.cfg));
    if opts.warm_insts > 0 {
        let warm = tr.span("workloads.trace_gen", || {
            trace(point.kind, opts.seed, opts.warm_insts as usize)
        });
        tr.span("pipeline.warm_caches", || {
            cpu.warm_caches(&warm);
            drop(warm);
        });
    }
    if let Some(oracle) = oracle_for(tr, &point.cfg, detail) {
        tr.span("core.oracle", || cpu.set_oracle(oracle));
    }
    let r = tr
        .span("pipeline.cycle_loop", || {
            cpu.run(replay_slice(point.kind.name(), detail), opts.detail_insts)
        })
        .map_err(|e| e.to_string())?;
    tr.span("pipeline.build", || drop(cpu));
    counts.cycle_loop_insts += opts.detail_insts;
    Ok(result_digest(&full_detail_line(point, &r)))
}

/// One interval's unit of work, as the sampled runner queues it.
struct Job {
    index: usize,
    start: u64,
    snap: Snapshot,
    bytes: Option<Vec<u8>>,
    weight: u64,
}

/// Where a sampled decomposition gets its interval checkpoints.
enum Source<'a> {
    /// Cold: an empty cache in this directory, a journal beside it.
    Cold(&'a std::path::Path),
    /// Warm: the cache directory a service job reads.
    Warm(&'a std::path::Path),
}

/// `SampledRequest::run`, call by call, serially: the cold path (functional
/// fast-forward, capture, cache store, journal) or the cache-hit path
/// (rebuild from cached warm states).
fn sampled_traced(
    tr: &mut Tracer,
    counts: &mut Counts,
    spec: &ltp_experiments::sampled::SampleSpec,
    point: &Point,
    prep: &Prepared,
    source: &Source<'_>,
) -> Result<String, String> {
    let (cfg, name) = (point.cfg, point.kind.name());
    let detail = &prep.detail;
    let total = detail.len() as u64;
    let intervals = spec.intervals.min(total.max(1) as usize);
    let (warm_eff, measure_eff) = spec.effective_window(total / intervals as u64);
    let starts = spec.interval_starts(total);
    let cache_dir = match source {
        Source::Cold(dir) => dir.join("cache"),
        Source::Warm(dir) => dir.to_path_buf(),
    };
    let cache = tr.span("experiments.cache_load", || {
        CheckpointCache::open(&cache_dir)
    });
    let cache = cache.map_err(|e| e.to_string())?;
    let oracle = oracle_for(tr, &cfg, detail);
    let geometry = IntervalGeometry {
        total_insts: total,
        intervals: spec.intervals as u64,
        detail_warm: spec.detail_warm,
        detail_measure: spec.detail_measure,
        seed: spec.seed,
        warm_insts: spec.warm_insts,
    };
    let key = sampled_warm_key(name, prep.fnv, &cfg.warmup_config(), &geometry);
    let cached = tr.span("experiments.cache_load", || cache.load_sampled_warm(key));

    let mut jobs: Vec<Job> = Vec::with_capacity(starts.len());
    match (source, cached) {
        (Source::Warm(_), Some(entry)) => {
            if entry.intervals.len() != starts.len() {
                return Err("cached entry has the wrong shape".into());
            }
            for (i, (ci, &start)) in entry.intervals.into_iter().zip(&starts).enumerate() {
                let snap = tr.span("pipeline.rebuild", || {
                    FunctionalFastForward::from_warm_state(cfg, ci.state).checkpoint()
                });
                let snap = snap.map_err(|e| e.to_string())?;
                if i == 0 {
                    // The runner encodes the first checkpoint to report its size.
                    let n = tr.span("snapshot.encode", || snap.to_bytes().len());
                    counts.checkpoints += 1;
                    counts.checkpoint_bytes += n as u64;
                }
                jobs.push(Job {
                    index: i,
                    start,
                    snap,
                    bytes: None,
                    weight: ci.weight,
                });
            }
        }
        (Source::Warm(_), None) => return Err("checkpoint cache miss".into()),
        (Source::Cold(_), Some(_)) => return Err("an empty cache hit".into()),
        (Source::Cold(_), None) => {
            let mut ff = tr.span("pipeline.ffwd", || FunctionalFastForward::new(cfg));
            if spec.warm_insts > 0 {
                let warm = tr.span("workloads.trace_gen", || {
                    trace(point.kind, spec.seed, spec.warm_insts as usize)
                });
                tr.span("pipeline.ffwd", || {
                    ff.warm_caches(&warm);
                    drop(warm);
                });
            }
            let mut captured = Vec::with_capacity(starts.len());
            for (i, &start) in starts.iter().enumerate() {
                tr.span("pipeline.ffwd", || ff.advance_on(&prep.dec, start));
                let state = tr.span("pipeline.capture", || ff.warm_state());
                let snap = tr.span("pipeline.capture", || ff.checkpoint());
                let (state, snap) = (
                    state.map_err(|e| e.to_string())?,
                    snap.map_err(|e| e.to_string())?,
                );
                captured.push(CachedInterval {
                    start,
                    weight: 0,
                    state,
                });
                let bytes = tr.span("snapshot.encode", || snap.to_bytes());
                counts.checkpoints += 1;
                counts.checkpoint_bytes += bytes.len() as u64;
                let end = starts.get(i + 1).copied().unwrap_or(total);
                let weight = tr.span("pipeline.ffwd", || {
                    ff.advance_on(&prep.dec, end);
                    ff.take_llc_misses()
                });
                if let Some(last) = captured.last_mut() {
                    last.weight = weight;
                }
                jobs.push(Job {
                    index: i,
                    start,
                    snap,
                    bytes: Some(bytes),
                    weight,
                });
            }
            tr.span("pipeline.ffwd", || drop(ff));
            counts.ffwd_insts += spec.warm_insts + total;
            let entry = SampledWarmEntry {
                intervals: captured,
            };
            tr.span("experiments.cache_store", || {
                cache.store_sampled_warm(key, &entry);
                drop(entry);
            });
            counts.cache_stores += 1;
            counts.cache_bytes += cache.stats().bytes_written;
        }
    }

    let mut measured: Vec<(IntervalMeasurement, Option<Vec<u8>>)> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut resumed = tr.span("pipeline.restore", || job.snap.resume());
        if let Some(oracle) = &oracle {
            tr.span("core.oracle_clone", || resumed.set_oracle(oracle.clone()));
        }
        let max_insts = (job.start + warm_eff + measure_eff).min(total);
        let r = tr
            .span("pipeline.interval", || {
                resumed.run_measured_from(
                    replay_slice(name, detail),
                    max_insts,
                    job.start + warm_eff,
                )
            })
            .map_err(|e| e.to_string())?;
        tr.span("pipeline.restore", || drop(job.snap));
        counts.interval_insts += max_insts - job.start;
        measured.push((
            IntervalMeasurement {
                index: job.index,
                start: job.start,
                instructions: r.instructions,
                cycles: r.cycles,
                ipc: r.instructions as f64 / r.cycles.max(1) as f64,
                weight: job.weight,
            },
            job.bytes,
        ));
    }

    if let Source::Cold(dir) = source {
        let path = dir.join("point.journal");
        let header = JournalHeader::for_run(spec, name, point.label, &cfg);
        let written = tr.span("experiments.journal", || -> std::io::Result<()> {
            let mut w = JournalWriter::create(&path, &header)?;
            for (m, bytes) in &mut measured {
                w.append(&JournalRecord {
                    index: m.index as u64,
                    start: m.start,
                    weight: m.weight,
                    instructions: m.instructions,
                    cycles: m.cycles,
                    snapshot: bytes.take().unwrap_or_default(),
                })?;
            }
            Ok(())
        });
        written.map_err(|e| format!("journal: {e}"))?;
        counts.journals += 1;
        counts.journal_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    }
    let lines: String = measured
        .iter()
        .map(|(m, _)| digest_line(name, point.label, m))
        .collect();
    Ok(result_digest(&lines))
}

/// A service job's work in process, call by call: the job's trace is
/// generated, decoded and fingerprinted per job, then the cache-hit path runs.
fn service_job_traced(
    tr: &mut Tracer,
    counts: &mut Counts,
    plan: &Plan,
    point: &Point,
    cache_dir: &std::path::Path,
) -> Result<String, String> {
    let spec = &plan.service;
    let detail = tr.span("workloads.trace_gen", || {
        trace(
            point.kind,
            spec.seed.wrapping_add(1),
            spec.total_insts as usize,
        )
    });
    let dec = tr.span("isa.decode", || DecodedTrace::from_insts(&detail));
    let fnv = tr.span("isa.fingerprint", || trace_fingerprint(&detail));
    let prep = Prepared { detail, dec, fnv };
    let digest = sampled_traced(tr, counts, spec, point, &prep, &Source::Warm(cache_dir));
    tr.span("workloads.trace_gen", || drop(prep));
    digest
}

/// Everything the traced run measured, for the metrics.
#[derive(Debug, Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
    metrics: Vec<Metric>,
    /// Normalised untraced operation time per workload (for stream speed-up
    /// and overhead ratios) and the raw ones (printed beside the kernel).
    untraced_norm_ms: BTreeMap<&'static str, Vec<f64>>,
    untraced_raw_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    fn check(&mut self, what: String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what);
        }
    }

    fn untraced(&mut self, w: Workload, op: &run::Op) {
        self.untraced_norm_ms
            .entry(w.name())
            .or_default()
            .push(op.sample.norm_ms());
        self.untraced_raw_ms
            .entry(w.name())
            .or_default()
            .push(op.sample.raw_ms);
    }
}

/// The service section: HTTP jobs for the service metrics, then the same
/// jobs in process, untraced and traced.
fn service_section(
    plan: &Plan,
    http_rounds: usize,
    clock: &mut RefClock,
    tr: &mut Tracer,
    counts: &mut Counts,
    out: &mut Outcome,
) {
    let w = Workload::ServiceWarm;
    let points = plan.service_points();
    let (service, _) = match run::service_setup(plan, clock, "traced-service", &mut out.notes) {
        Ok(s) => s,
        Err(e) => {
            out.check(format!("service set-up: {e}"), false);
            return;
        }
    };
    let before = run::cache_counters(service.addr());
    let bodies: Vec<String> = points
        .iter()
        .map(|p| run::job_body(p, &plan.service))
        .collect();
    let mut http: Vec<run::Op> = Vec::new();
    for _ in 0..http_rounds {
        for (p, body) in bodies.iter().enumerate() {
            let op = run::service_op(clock, &service, p, body, &mut out.notes);
            out.check(
                format!("http job {}: {:?}", points[p].label, op.error),
                op.error.is_none(),
            );
            http.push(op);
        }
    }
    let after = run::cache_counters(service.addr());
    let peak = peak_rss_mb();

    let mut in_process = Vec::new();
    let cache_dir = service.cache_dir();
    for (p, point) in points.iter().enumerate() {
        let (r, sample) = clock.time(
            || run::service_reference(plan, point, Some(&cache_dir)),
            || {},
        );
        let op = run::Op {
            point: p,
            sample,
            first_ms: sample.raw_ms,
            done_ms: sample.raw_ms,
            submit_ms: 0.0,
            digest: r.as_ref().ok().cloned(),
            error: r.err(),
        };
        out.untraced(w, &op);
        in_process.push(op);
    }
    for (p, point) in points.iter().enumerate() {
        let traced = tr.op(clock, w, false, "service_warm", |tr| {
            service_job_traced(tr, counts, plan, point, &cache_dir)
        });
        let reference = in_process[p].digest.clone();
        let http_ok = http
            .iter()
            .filter(|op| op.point == p)
            .all(|op| op.digest.is_some() && op.digest == reference);
        out.check(
            format!(
                "{}/{}: in-process {:?}, traced {traced:?}, http agrees {http_ok}",
                point.kind.name(),
                point.label,
                reference
            ),
            reference.is_some() && traced.as_ref().ok() == reference.as_ref() && http_ok,
        );
    }
    service.shutdown();

    let ok: Vec<&run::Op> = http.iter().filter(|op| op.error.is_none()).collect();
    if ok.is_empty() {
        return;
    }
    let done: Vec<f64> = ok.iter().map(|op| op.done_ms * op.sample.scale).collect();
    let submit: Vec<f64> = ok.iter().map(|op| op.submit_ms * op.sample.scale).collect();
    let overhead: Vec<f64> = points
        .iter()
        .enumerate()
        .filter_map(|(p, _)| {
            let mine: Vec<f64> = ok
                .iter()
                .filter(|op| op.point == p)
                .map(|op| op.done_ms * op.sample.scale)
                .collect();
            (!mine.is_empty()).then(|| median(&mine) - in_process[p].sample.norm_ms())
        })
        .collect();
    let hit_ratio = match (before, after) {
        (Some((h0, m0)), Some((h1, m1))) if h1 + m1 > h0 + m0 => {
            (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)) as f64
        }
        _ => 0.0,
    };
    out.metrics.extend([
        Metric::new("service.submit_ms", "ms", median(&submit)),
        Metric::new("service.overhead_ms", "ms", median(&overhead)),
        Metric::new("service.job_ms_p90", "ms", percentile(&done, 0.9)),
        Metric::new(
            "service.jobs_per_s",
            "1/s",
            done.len() as f64 / (done.iter().sum::<f64>() / 1e3),
        ),
        Metric::new("service.cache_hit_ratio", "ratio", hit_ratio),
        Metric::new("service.peak_rss_mb", "MB", peak),
    ]);
    println!(
        "service: {} http jobs, p50 {:.3} ms p90 {:.3} ms (normalised)",
        done.len(),
        median(&done),
        percentile(&done, 0.9)
    );
}

/// The full-detail section: set-up, one untraced round, one traced round.
fn full_detail_section(
    plan: &Plan,
    clock: &mut RefClock,
    tr: &mut Tracer,
    counts: &mut Counts,
    out: &mut Outcome,
) {
    let w = Workload::FullDetail;
    let traces: Vec<Vec<DynInst>> = plan
        .kernels
        .iter()
        .map(|&kind| {
            tr.op(clock, w, true, "workloads.trace_gen", |_| {
                trace(
                    kind,
                    plan.opts.seed.wrapping_add(1),
                    plan.opts.detail_insts as usize,
                )
            })
        })
        .collect();
    let points = plan.detail_points();
    let kernel = |point: &Point| run::kernel_index(plan, point);
    let mut untraced = Vec::new();
    for (p, point) in points.iter().enumerate() {
        let op = run::full_detail_op(plan, clock, p, point, &traces[kernel(point)]);
        out.untraced(w, &op);
        untraced.push(op);
    }
    for (p, point) in points.iter().enumerate() {
        let traced = tr.op(clock, w, false, "full_detail", |tr| {
            full_detail_traced(tr, counts, plan, point, &traces[kernel(point)])
        });
        let reference = &untraced[p];
        out.check(
            format!(
                "{}/{}: untraced {:?} {:?}, traced {traced:?}",
                point.kind.name(),
                point.label,
                reference.digest,
                reference.error
            ),
            reference.error.is_none() && traced.as_ref().ok() == reference.digest.as_ref(),
        );
    }
}

/// The sampled section: set-up, one untraced round, one traced round.
fn sampled_section(
    plan: &Plan,
    clock: &mut RefClock,
    tr: &mut Tracer,
    counts: &mut Counts,
    out: &mut Outcome,
) {
    let w = Workload::SampledCold;
    let spec = plan.sampled;
    let prepared: Vec<Prepared> = plan
        .kernels
        .iter()
        .map(|&kind| {
            let detail = tr.op(clock, w, true, "workloads.trace_gen", |_| {
                trace(kind, spec.seed.wrapping_add(1), spec.total_insts as usize)
            });
            let dec = tr.op(clock, w, true, "isa.decode", |_| {
                DecodedTrace::from_insts(&detail)
            });
            let fnv = tr.op(clock, w, true, "isa.fingerprint", |_| {
                trace_fingerprint(&detail)
            });
            Prepared { detail, dec, fnv }
        })
        .collect();
    let points = plan.detail_points();
    let kernel = |point: &Point| run::kernel_index(plan, point);
    let mut untraced = Vec::new();
    for (p, point) in points.iter().enumerate() {
        let dir = ScratchDir::new(&format!("traced-cold-{p}")).expect("scratch directory");
        let op = run::sampled_cold_op(plan, clock, p, point, &prepared[kernel(point)], dir.path());
        out.untraced(w, &op);
        untraced.push(op);
    }
    let mut layer_sum_ms = 0.0;
    for (p, point) in points.iter().enumerate() {
        let dir = ScratchDir::new(&format!("traced-cold-{p}")).expect("scratch directory");
        let traced = tr.op(clock, w, false, "sampled_cold", |tr| {
            sampled_traced(
                tr,
                counts,
                &spec,
                point,
                &prepared[kernel(point)],
                &Source::Cold(dir.path()),
            )
        });
        let op = tr.ops.last().expect("just recorded").clone();
        layer_sum_ms += tr.children_ms(op.root) * op.scale;
        let reference = &untraced[p];
        out.check(
            format!(
                "{}/{}: untraced {:?} {:?}, traced {traced:?}",
                point.kind.name(),
                point.label,
                reference.digest,
                reference.error
            ),
            reference.error.is_none() && traced.as_ref().ok() == reference.digest.as_ref(),
        );
    }
    let untraced_ms: f64 = untraced.iter().map(|op| op.sample.norm_ms()).sum();
    println!(
        "sampled_cold: serial traced layer sum {layer_sum_ms:.3} ms, untraced streamed {untraced_ms:.3} ms (normalised)"
    );
    out.metrics.push(Metric::new(
        "experiments.stream_speedup",
        "x",
        layer_sum_ms / untraced_ms,
    ));
}

/// Turns the spans into the per-layer metrics.
fn layer_metrics(tr: &Tracer, counts: &Counts, span_cost_ms: f64, out: &mut Outcome) {
    let own = tr.self_ms();
    let scale_of: Vec<f64> = tr.ops.iter().map(|op| op.scale).collect();
    let root_of: Vec<Option<usize>> = {
        let mut is_root = vec![None; tr.spans.len()];
        for (i, op) in tr.ops.iter().enumerate() {
            is_root[op.root] = Some(i);
        }
        is_root
    };
    // Normalised self ms per (layer, workload); a workload operation's root
    // span is the benchmark's own time, not a layer's.
    let mut table: BTreeMap<&'static str, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (i, s) in tr.spans.iter().enumerate() {
        let op = &tr.ops[s.op];
        if root_of[i].is_some() && !op.setup {
            continue;
        }
        *table
            .entry(s.name)
            .or_default()
            .entry(op.workload.name())
            .or_default() += own[i] * scale_of[s.op];
    }
    println!("\nnormalised self time per layer, ms (one traced round):");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    println!(
        "  {:<26}{:>14}{:>14}{:>14}",
        "layer", workloads[0], workloads[1], workloads[2]
    );
    for (layer, per) in &table {
        let cells: Vec<String> = workloads
            .iter()
            .map(|w| per.get(w).map_or("-".to_string(), |v| format!("{v:.3}")))
            .collect();
        println!(
            "  {layer:<26}{:>14}{:>14}{:>14}",
            cells[0], cells[1], cells[2]
        );
    }
    let total = |layer: &str| {
        table
            .get(layer)
            .map_or(0.0, |per| per.values().sum::<f64>())
    };
    let rate = |insts: u64, ms: f64| insts as f64 / (ms / 1e3);
    let mean = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
    out.metrics.extend([
        Metric::new("workloads.trace_gen_ms", "ms", total("workloads.trace_gen")),
        Metric::new("isa.decode_ms", "ms", total("isa.decode")),
        Metric::new("isa.fingerprint_ms", "ms", total("isa.fingerprint")),
        Metric::new("core.oracle_ms", "ms", total("core.oracle")),
        Metric::new("core.oracle_clone_ms", "ms", total("core.oracle_clone")),
        Metric::new("pipeline.build_ms", "ms", total("pipeline.build")),
        Metric::new(
            "pipeline.warm_caches_ms",
            "ms",
            total("pipeline.warm_caches"),
        ),
        Metric::new("pipeline.cycle_loop_ms", "ms", total("pipeline.cycle_loop")),
        Metric::new(
            "pipeline.cycle_loop_insts_per_s",
            "insts/s",
            rate(counts.cycle_loop_insts, total("pipeline.cycle_loop")),
        ),
        Metric::new("pipeline.ffwd_ms", "ms", total("pipeline.ffwd")),
        Metric::new(
            "pipeline.ffwd_insts_per_s",
            "insts/s",
            rate(counts.ffwd_insts, total("pipeline.ffwd")),
        ),
        Metric::new("pipeline.capture_ms", "ms", total("pipeline.capture")),
        Metric::new("pipeline.restore_ms", "ms", total("pipeline.restore")),
        Metric::new("pipeline.rebuild_ms", "ms", total("pipeline.rebuild")),
        Metric::new("pipeline.interval_ms", "ms", total("pipeline.interval")),
        Metric::new(
            "pipeline.interval_insts_per_s",
            "insts/s",
            rate(counts.interval_insts, total("pipeline.interval")),
        ),
        Metric::new("snapshot.encode_ms", "ms", total("snapshot.encode")),
        Metric::new(
            "snapshot.checkpoint_bytes",
            "B",
            mean(counts.checkpoint_bytes, counts.checkpoints),
        ),
        Metric::new(
            "experiments.cache_store_ms",
            "ms",
            total("experiments.cache_store"),
        ),
        Metric::new(
            "experiments.cache_bytes",
            "B",
            mean(counts.cache_bytes, counts.cache_stores),
        ),
        Metric::new("experiments.journal_ms", "ms", total("experiments.journal")),
        Metric::new(
            "experiments.journal_bytes",
            "B",
            mean(counts.journal_bytes, counts.journals),
        ),
        Metric::new(
            "experiments.cache_load_ms",
            "ms",
            total("experiments.cache_load"),
        ),
    ]);

    // Coverage and recorder overhead per workload, over its operations.
    let spans_in = tr.spans_per_op();
    for w in Workload::ALL {
        let mut coverage = Vec::new();
        let mut overhead = Vec::new();
        for (i, op) in tr.ops.iter().enumerate() {
            if op.setup || op.workload != w {
                continue;
            }
            let dur = tr.dur_ms(op.root);
            coverage.push(1.0 - own[op.root] / dur);
            overhead.push(spans_in[i] as f64 * span_cost_ms / dur);
        }
        if coverage.is_empty() {
            continue;
        }
        let lowest = coverage.iter().copied().fold(1.0, f64::min);
        println!(
            "{}: layer self time covers {:.2}% of the least covered of {} traced operations",
            w.name(),
            lowest * 100.0,
            coverage.len()
        );
        out.check(
            format!("{}: coverage {:.2}% below 90%", w.name(), lowest * 100.0),
            lowest >= 0.9,
        );
        let raw = out
            .untraced_raw_ms
            .get(w.name())
            .cloned()
            .unwrap_or_default();
        out.metrics.extend([
            Metric::new(
                format!("bench.coverage.{}", w.name()),
                "ratio",
                median(&coverage),
            ),
            Metric::new(
                format!("bench.tracing_overhead.{}", w.name()),
                "ratio",
                median(&overhead),
            ),
            Metric::new(format!("bench.raw_op_ms.{}", w.name()), "ms", median(&raw)),
        ]);
    }
}

/// Raw ms one span record costs, measured on a throwaway recorder.
fn span_cost_ms() -> f64 {
    const N: usize = 20_000;
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    for _ in 0..N {
        tr.span("calibration", || ());
    }
    t0.elapsed().as_secs_f64() * 1e3 / N as f64
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (seed, seconds, nominal) = match parse(&raw) {
        Ok(a) => (a.seed, a.seconds, a.nominal_ref_ms),
        Err(e) => {
            eprintln!("ltpbench-traced: {e}");
            return ExitCode::from(2);
        }
    };
    // Enough HTTP jobs for a p90 with ten jobs beyond it.
    let http_rounds = usize::try_from(seconds / 2).unwrap_or(1).max(1);
    let span_cost = span_cost_ms();
    let mut clock = RefClock::start(nominal);
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut out = Outcome::default();
    for w in Workload::ALL {
        let plan = Plan::new(w, seed, seconds, nominal);
        match w {
            Workload::ServiceWarm => {
                service_section(
                    &plan,
                    http_rounds,
                    &mut clock,
                    &mut tr,
                    &mut counts,
                    &mut out,
                );
            }
            Workload::FullDetail => {
                full_detail_section(&plan, &mut clock, &mut tr, &mut counts, &mut out)
            }
            Workload::SampledCold => {
                sampled_section(&plan, &mut clock, &mut tr, &mut counts, &mut out)
            }
        }
    }
    layer_metrics(&tr, &counts, span_cost, &mut out);
    let refs = clock.refs();
    out.metrics
        .push(Metric::new("bench.ref_ms", "ms", median(refs)));
    for (w, raw) in &out.untraced_raw_ms {
        let norm = &out.untraced_norm_ms[w];
        println!(
            "{w}: untraced op raw ms median {:.4}, normalised {:.4}",
            median(raw),
            median(norm)
        );
    }
    println!(
        "reference kernel: {} runs, raw ms median {:.4} (nominal {nominal}); span record {:.1} ns",
        refs.len(),
        median(refs),
        span_cost * 1e6
    );
    if let Err(e) = tr.write_out(SPANS_FILE) {
        eprintln!("ltpbench-traced: cannot write {SPANS_FILE}: {e}");
        return ExitCode::FAILURE;
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    println!(
        "traced seed {seed}: attempted {} failed {}",
        out.attempted, out.failed
    );
    for m in &out.metrics {
        println!("{:<36} {:>18.4} {}", m.name, m.value, m.unit);
    }
    match result_line(out.failed == 0, out.attempted, out.failed, &out.metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ltpbench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}
