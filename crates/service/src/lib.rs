//! `ltp-service`: simulation-as-a-service over the sampled LTP runner.
//!
//! A multi-threaded HTTP/1.1 + JSON job server, std-only (hand-rolled
//! framing and JSON codec, no async runtime). Clients submit sampled
//! simulation jobs; the server drives them through the exact
//! [`ltp_experiments::sampled::SampledRequest`] / [`ltp_experiments::Experiment`]
//! entry points the CLI uses — same checkpoint cache, same journals, same digest —
//! so a job's final result is bit-identical to the equivalent local run, and
//! a server killed mid-job resumes bit-identically on restart from the same
//! journal directory.
//!
//! Endpoints:
//!
//! | Method | Path              | Purpose                                   |
//! |--------|-------------------|-------------------------------------------|
//! | POST   | `/jobs`           | Submit a job (429 over the admission cap) |
//! | GET    | `/jobs/:id`       | Status + partial IPC                      |
//! | GET    | `/jobs/:id/results` | Chunked stream of per-interval results  |
//! | DELETE | `/jobs/:id`       | Cooperative cancellation                  |
//! | GET    | `/healthz`        | Liveness                                  |
//! | GET    | `/metrics`        | Jobs by state, governor, cache, latency   |
//!
//! Execution is governed by one cross-job [`LptGovernor`] permit pool:
//! intervals from *all* active jobs compete heaviest-first for the machine's
//! worker budget instead of each job oversubscribing its own pool.

pub mod http;
pub mod jobs;
pub mod json;

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltp_experiments::parallel::LptGovernor;

use http::{read_request, write_response, ChunkedResponse, Request};
use jobs::{interval_json, summary_json, JobRequest, Registry, SubmitError};
use json::escape;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub bind: String,
    /// Governor permits for detailed-interval execution; 0 means the shared
    /// [`ltp_experiments::parallel::worker_threads`] policy (`LTP_THREADS`
    /// or available parallelism).
    pub workers: usize,
    /// Admission cap: submissions beyond this many active jobs get HTTP 429.
    pub max_jobs: usize,
    /// Checkpoint-cache directory shared by all jobs (enables the cache).
    pub cache_dir: Option<PathBuf>,
    /// Journal directory: per-job run journals plus `.job`/`.done` sidecars
    /// (enables crash-resume).
    pub journal_dir: Option<PathBuf>,
    /// Re-submit persisted jobs that never completed (restart recovery).
    pub resume: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 0,
            max_jobs: 8,
            cache_dir: None,
            journal_dir: None,
            resume: false,
        }
    }
}

/// A running job server.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, resumes pending jobs when asked, and starts the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (bad address, port in use).
    pub fn start(config: &ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new(
            config.workers,
            config.max_jobs,
            config.cache_dir.clone(),
            config.journal_dir.clone(),
        ));
        if config.resume {
            registry.resume_pending();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &registry, &stop))
        };
        Ok(Server {
            addr,
            registry,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job registry (tests inspect it directly).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops accepting, cancels active jobs, and joins every worker.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.registry.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, registry: &Arc<Registry>, stop: &Arc<AtomicBool>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let registry = Arc::clone(registry);
        // Connection handlers are detached: they are short-lived except for
        // result streams, and a result stream ends as soon as its job
        // reaches a terminal state (which shutdown's cancel forces).
        std::thread::spawn(move || {
            let mut stream = stream;
            let _ = handle_connection(&mut stream, &registry);
        });
    }
}

/// The routing table entry a request resolved to, for latency metrics.
fn endpoint_key(req: &Request) -> &'static str {
    let path = req.target.as_str();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => "GET /healthz",
        ("GET", "/metrics") => "GET /metrics",
        ("POST", "/jobs") => "POST /jobs",
        ("GET", _) if path.ends_with("/results") => "GET /jobs/:id/results",
        ("GET", _) if path.starts_with("/jobs/") => "GET /jobs/:id",
        ("DELETE", _) if path.starts_with("/jobs/") => "DELETE /jobs/:id",
        _ => "other",
    }
}

fn handle_connection(stream: &mut TcpStream, registry: &Arc<Registry>) -> io::Result<()> {
    let Some(req) = read_request(stream)? else {
        return Ok(());
    };
    let endpoint = endpoint_key(&req);
    let t0 = Instant::now();
    let outcome = route(stream, registry, &req);
    let micros = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    registry.metrics.record_latency(endpoint, micros);
    outcome
}

fn route(stream: &mut TcpStream, registry: &Arc<Registry>, req: &Request) -> io::Result<()> {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => {
            let body = format!("{{\"ok\":true,\"active_jobs\":{}}}", registry.active_jobs());
            write_response(stream, 200, "application/json", &[], body.as_bytes())
        }
        ("GET", "/metrics") => {
            let body = render_metrics(registry);
            write_response(stream, 200, "application/json", &[], body.as_bytes())
        }
        ("POST", "/jobs") => submit(stream, registry, req),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if let Some(id_text) = rest.strip_suffix("/results") {
                    if method == "GET" {
                        return job_results(stream, registry, id_text);
                    }
                } else if let Ok(id) = rest.parse::<u64>() {
                    return match method {
                        "GET" => job_status(stream, registry, id),
                        "DELETE" => job_cancel(stream, registry, id),
                        _ => error_response(stream, 405, "method not allowed"),
                    };
                }
            }
            error_response(stream, 404, "no such resource")
        }
    }
}

fn error_response(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    let body = format!("{{\"error\":{}}}", escape(message));
    write_response(stream, status, "application/json", &[], body.as_bytes())
}

fn submit(stream: &mut TcpStream, registry: &Arc<Registry>, req: &Request) -> io::Result<()> {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return error_response(stream, 400, "body is not UTF-8"),
    };
    let parsed = match JobRequest::parse(body) {
        Ok(p) => p,
        Err(e) => return error_response(stream, 400, &e),
    };
    match registry.submit(parsed) {
        Ok(job) => {
            let body = format!(
                "{{\"id\":{},\"state\":{},\"href\":\"/jobs/{}\"}}",
                job.id,
                escape(job.state().as_str()),
                job.id
            );
            write_response(stream, 201, "application/json", &[], body.as_bytes())
        }
        Err(SubmitError::Busy { active, limit }) => {
            let body = format!("{{\"error\":\"busy\",\"active\":{active},\"limit\":{limit}}}");
            write_response(
                stream,
                429,
                "application/json",
                &[("Retry-After", "1")],
                body.as_bytes(),
            )
        }
        Err(SubmitError::Io(e)) => error_response(stream, 500, &format!("cannot persist job: {e}")),
    }
}

fn job_status(stream: &mut TcpStream, registry: &Arc<Registry>, id: u64) -> io::Result<()> {
    let Some(job) = registry.get(id) else {
        return error_response(stream, 404, "no such job");
    };
    let body = job.with_shared(|s| {
        let mut out = format!(
            "{{\"id\":{id},\"state\":{},\"completed\":{},\"planned\":{}",
            escape(s.state.as_str()),
            s.intervals.len(),
            s.planned
        );
        if !s.intervals.is_empty() && s.summary.is_none() {
            let ipcs: Vec<f64> = s.intervals.iter().map(|m| m.ipc).collect();
            let ci = ltp_stats::ConfidenceInterval::from_samples(&ipcs);
            out.push_str(&format!(
                ",\"partial_ipc\":{{\"mean\":{},\"half_width\":{},\"n\":{}}}",
                ci.mean, ci.half_width, ci.n
            ));
        }
        if let Some(summary) = &s.summary {
            out.push_str(&format!(
                ",\"digest\":{},\"ipc\":{{\"mean\":{},\"half_width\":{},\"n\":{}}}",
                escape(&summary.digest),
                summary.ipc.mean,
                summary.ipc.half_width,
                summary.ipc.n
            ));
        }
        if let Some(error) = &s.error {
            out.push_str(&format!(",\"error\":{}", escape(error)));
        }
        out.push('}');
        out
    });
    write_response(stream, 200, "application/json", &[], body.as_bytes())
}

/// Streams per-interval measurements as line-delimited JSON inside one
/// chunked response, then a `"final":true` summary line once the job is
/// terminal. For experiment jobs the summary chunk is followed by one
/// `"report"` line carrying the full report JSON.
fn job_results(stream: &mut TcpStream, registry: &Arc<Registry>, id_text: &str) -> io::Result<()> {
    let Some(job) = id_text.parse::<u64>().ok().and_then(|id| registry.get(id)) else {
        return error_response(stream, 404, "no such job");
    };
    let mut out = ChunkedResponse::start(stream, 200, "application/x-ndjson")?;
    let mut sent = 0usize;
    let mut seen = 0u64;
    loop {
        enum Step {
            Lines(String),
            Final(String, Option<String>),
        }
        let (generation, step) = job.wait_update(seen, Duration::from_millis(100), |s| {
            let mut lines = String::new();
            for m in &s.intervals[sent.min(s.intervals.len())..] {
                lines.push_str(&interval_json(m));
                lines.push('\n');
            }
            if s.state.is_terminal() && !lines.is_empty() {
                // Flush the tail and the summary in one pass.
                let report = s.summary.as_ref().and_then(|x| x.report_json.clone());
                lines.push_str(&summary_json(s));
                lines.push('\n');
                Step::Final(lines, report)
            } else if s.state.is_terminal() {
                let report = s.summary.as_ref().and_then(|x| x.report_json.clone());
                let mut line = summary_json(s);
                line.push('\n');
                Step::Final(line, report)
            } else {
                Step::Lines(lines)
            }
        });
        seen = generation;
        match step {
            Step::Lines(lines) => {
                sent += lines.matches('\n').count();
                out.chunk(lines.as_bytes())?;
            }
            Step::Final(lines, report) => {
                out.chunk(lines.as_bytes())?;
                if let Some(report) = report {
                    let line = format!("{{\"report\":{report}}}\n");
                    out.chunk(line.as_bytes())?;
                }
                return out.finish();
            }
        }
    }
}

fn job_cancel(stream: &mut TcpStream, registry: &Arc<Registry>, id: u64) -> io::Result<()> {
    if registry.cancel(id) {
        let body = format!("{{\"id\":{id},\"cancelling\":true}}");
        write_response(stream, 202, "application/json", &[], body.as_bytes())
    } else {
        error_response(stream, 404, "no such job")
    }
}

fn render_metrics(registry: &Arc<Registry>) -> String {
    let mut out = String::from("{\"jobs\":{");
    for (i, (state, count)) in registry.jobs_by_state().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{count}", escape(state.as_str())));
    }
    let governor: &Arc<LptGovernor> = registry.governor();
    out.push_str(&format!(
        "}},\"governor\":{{\"permits\":{},\"running\":{},\"queue_depth\":{}}}",
        governor.permits(),
        governor.running(),
        governor.queue_depth()
    ));
    out.push_str(&format!(
        ",\"cache\":{{\"hits\":{},\"misses\":{}}}",
        registry.metrics.cache_hits.load(Ordering::Relaxed),
        registry.metrics.cache_misses.load(Ordering::Relaxed)
    ));
    out.push_str(&format!(
        ",\"rejected\":{}",
        registry.metrics.rejected.load(Ordering::Relaxed)
    ));
    out.push_str(",\"latency_us\":{");
    for (i, (ep, count, mean, p50, p99)) in registry.metrics.latency_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{{\"count\":{count},\"mean\":{mean:.1},\"p50\":{p50},\"p99\":{p99}}}",
            escape(ep)
        ));
    }
    out.push_str("}}");
    out
}

/// Blocking convenience client used by tests and the canary: one request,
/// one parsed response.
pub mod client {
    use super::*;

    /// A decoded HTTP response.
    #[derive(Debug)]
    pub struct Response {
        /// Status code.
        pub status: u16,
        /// Body bytes (chunked transfer already decoded).
        pub body: Vec<u8>,
    }

    impl Response {
        /// Body as UTF-8 (panics on binary bodies — the API is all JSON).
        ///
        /// # Panics
        ///
        /// Panics when the body is not UTF-8.
        #[must_use]
        pub fn text(&self) -> &str {
            std::str::from_utf8(&self.body).expect("UTF-8 body")
        }
    }

    /// Sends one request and reads the full response (draining a chunked
    /// stream to completion).
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        use std::io::Read;
        let mut stream = TcpStream::connect(addr)?;
        let body_bytes = body.unwrap_or("").as_bytes();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: ltp\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body_bytes.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body_bytes)?;
        stream.flush()?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    fn parse_response(raw: &[u8]) -> io::Result<Response> {
        let head_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?;
        let head = std::str::from_utf8(&raw[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let chunked = lines.any(|l| {
            let l = l.to_ascii_lowercase();
            l.starts_with("transfer-encoding:") && l.contains("chunked")
        });
        let payload = &raw[head_end + 4..];
        let body = if chunked {
            decode_chunked(payload)?
        } else {
            payload.to_vec()
        };
        Ok(Response { status, body })
    }

    fn decode_chunked(mut payload: &[u8]) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let line_end = payload
                .windows(2)
                .position(|w| w == b"\r\n")
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            let size_text = std::str::from_utf8(&payload[..line_end])
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            let size = usize::from_str_radix(size_text.trim(), 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            payload = &payload[line_end + 2..];
            if size == 0 {
                return Ok(body);
            }
            if payload.len() < size + 2 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated chunk",
                ));
            }
            body.extend_from_slice(&payload[..size]);
            payload = &payload[size + 2..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_test_server(max_jobs: usize) -> Server {
        Server::start(&ServiceConfig {
            max_jobs,
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("server start")
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let mut server = start_test_server(4);
        let health = client::request(server.addr(), "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200);
        assert!(health.text().contains("\"ok\":true"));
        let metrics = client::request(server.addr(), "GET", "/metrics", None).expect("metrics");
        assert_eq!(metrics.status, 200);
        let v = json::Json::parse(metrics.text()).expect("metrics JSON parses");
        assert!(v.get("governor").is_some());
        assert!(v.get("jobs").and_then(|j| j.get("done")).is_some());
        server.shutdown();
    }

    #[test]
    fn unknown_routes_are_404() {
        let mut server = start_test_server(4);
        let r = client::request(server.addr(), "GET", "/nope", None).expect("request");
        assert_eq!(r.status, 404);
        let r = client::request(server.addr(), "GET", "/jobs/999", None).expect("request");
        assert_eq!(r.status, 404);
        let r = client::request(server.addr(), "DELETE", "/jobs/999", None).expect("request");
        assert_eq!(r.status, 404);
        server.shutdown();
    }

    #[test]
    fn bad_submissions_are_400() {
        let mut server = start_test_server(4);
        let r = client::request(server.addr(), "POST", "/jobs", Some("not json")).expect("request");
        assert_eq!(r.status, 400);
        let r = client::request(
            server.addr(),
            "POST",
            "/jobs",
            Some(r#"{"workload":"bogus"}"#),
        )
        .expect("request");
        assert_eq!(r.status, 400);
        assert!(r.text().contains("unknown workload"));
        server.shutdown();
    }

    #[test]
    fn deeply_nested_submission_is_400_and_server_survives() {
        let mut server = start_test_server(4);
        let body = "[".repeat(1_000_000);
        let r = client::request(server.addr(), "POST", "/jobs", Some(&body)).expect("request");
        assert_eq!(r.status, 400);
        assert!(r.text().contains("nesting deeper than"), "{}", r.text());
        let health = client::request(server.addr(), "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200, "the server still answers");
        server.shutdown();
    }

    #[test]
    fn oversized_job_is_400_and_server_survives() {
        let mut server = start_test_server(4);
        let body = format!(
            r#"{{"workload":"pointer_chase","spec":{{"total_insts":{}}}}}"#,
            jobs::MAX_JOB_INSTS + 1
        );
        let r = client::request(server.addr(), "POST", "/jobs", Some(&body)).expect("request");
        assert_eq!(r.status, 400);
        let limit = format!("must be at most {}", jobs::MAX_JOB_INSTS);
        assert!(
            r.text().contains("spec.total_insts") && r.text().contains(&limit),
            "{}",
            r.text()
        );
        let health = client::request(server.addr(), "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200, "the server still answers");
        server.shutdown();
    }

    #[test]
    fn submit_then_stream_results() {
        let mut server = start_test_server(4);
        let submit = client::request(
            server.addr(),
            "POST",
            "/jobs",
            Some(
                r#"{"workload":"compute_bound","spec":{"total_insts":6000,"intervals":2,
                    "detail_warm":200,"detail_measure":500,"seed":3,"warm_insts":500}}"#,
            ),
        )
        .expect("submit");
        assert_eq!(submit.status, 201);
        let v = json::Json::parse(submit.text()).expect("submit JSON");
        let id = v.get("id").and_then(json::Json::as_u64).expect("job id");

        let results = client::request(server.addr(), "GET", &format!("/jobs/{id}/results"), None)
            .expect("results");
        assert_eq!(results.status, 200);
        let lines: Vec<&str> = results.text().lines().collect();
        assert_eq!(lines.len(), 3, "2 intervals + summary: {lines:?}");
        let last = json::Json::parse(lines[2]).expect("summary JSON");
        assert_eq!(last.get("final").and_then(json::Json::as_bool), Some(true));
        assert_eq!(last.get("state").and_then(json::Json::as_str), Some("done"));
        let digest = last
            .get("digest")
            .and_then(json::Json::as_str)
            .expect("digest");
        assert!(digest.starts_with("0x"));

        let status =
            client::request(server.addr(), "GET", &format!("/jobs/{id}"), None).expect("status");
        let v = json::Json::parse(status.text()).expect("status JSON");
        assert_eq!(v.get("state").and_then(json::Json::as_str), Some("done"));
        assert_eq!(v.get("digest").and_then(json::Json::as_str), Some(digest));
        server.shutdown();
    }
}
