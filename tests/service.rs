//! End-to-end tests of the `ltp-service` HTTP job server, driven over real
//! TCP sockets.
//!
//! The anchor property is transport bit-identity: a job submitted over HTTP
//! must report exactly the per-interval measurements — and therefore exactly
//! the digest — that the in-process [`SampledRequest`] API produces for the
//! same inputs.

use ltp_experiments::sampled::{digest_line, result_digest, SampleSpec, SampledRequest};
use ltp_experiments::{Block, Experiment, ExperimentCtx, RunOptions};
use ltp_service::json::Json;
use ltp_service::{client, Server, ServiceConfig};
use ltp_workloads::WorkloadKind;
use std::net::SocketAddr;
use std::path::PathBuf;

/// A process-unique scratch directory (removed best-effort on drop).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("ltp_service_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The small, fast job geometry every test uses.
fn tiny_spec() -> SampleSpec {
    SampleSpec {
        total_insts: 24_000,
        intervals: 4,
        detail_warm: 250,
        detail_measure: 600,
        seed: 11,
        warm_insts: 1_000,
    }
}

fn tiny_job_body() -> String {
    let s = tiny_spec();
    format!(
        r#"{{"workload":"indirect_stream","config":"ltp_proposed",
            "spec":{{"total_insts":{},"intervals":{},"detail_warm":{},
            "detail_measure":{},"seed":{},"warm_insts":{}}}}}"#,
        s.total_insts, s.intervals, s.detail_warm, s.detail_measure, s.seed, s.warm_insts
    )
}

/// A deliberately long-running job (many intervals over a long trace) for
/// cancellation and admission tests.
fn slow_job_body() -> String {
    r#"{"workload":"pointer_chase","spec":{"total_insts":400000,"intervals":16,
        "detail_warm":2000,"detail_measure":8000,"seed":5,"warm_insts":4000}}"#
        .to_string()
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let resp = client::request(addr, "POST", "/jobs", Some(body)).expect("submit");
    assert_eq!(resp.status, 201, "submit failed: {}", resp.text());
    Json::parse(resp.text())
        .expect("submit JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("job id")
}

/// Streams `/jobs/:id/results` to completion and returns (interval lines,
/// summary object).
fn stream_results(addr: SocketAddr, id: u64) -> (Vec<Json>, Json) {
    let resp =
        client::request(addr, "GET", &format!("/jobs/{id}/results"), None).expect("results stream");
    assert_eq!(resp.status, 200);
    let mut intervals = Vec::new();
    let mut summary = None;
    for line in resp.text().lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad stream line `{line}`: {e}"));
        if v.get("final").and_then(Json::as_bool) == Some(true) {
            summary = Some(v);
        } else if v.get("report").is_none() {
            intervals.push(v);
        }
    }
    (
        intervals,
        summary.expect("stream ended without a summary line"),
    )
}

#[test]
fn http_job_digest_is_bit_identical_to_in_process_run() {
    let mut server = Server::start(&ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("server");
    let id = submit(server.addr(), &tiny_job_body());
    let (intervals, summary) = stream_results(server.addr(), id);
    assert_eq!(summary.get("state").and_then(Json::as_str), Some("done"));
    let http_digest = summary
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();

    // The same point, run directly through the builder API.
    let spec = tiny_spec();
    let direct = SampledRequest::new(
        ltp_pipeline::PipelineConfig::ltp_proposed(),
        WorkloadKind::IndirectStream,
        spec,
    )
    .run()
    .expect("direct run");
    let mut lines = String::new();
    for m in &direct.intervals {
        lines.push_str(&digest_line("indirect_stream", "ltp_proposed", m));
    }
    assert_eq!(
        http_digest,
        result_digest(&lines),
        "HTTP transport changed the measured result"
    );

    // The streamed intervals are the measurements themselves, not echoes:
    // cross-check cycles per interval index against the direct run.
    assert_eq!(intervals.len(), direct.intervals.len());
    for v in &intervals {
        let index = v.get("index").and_then(Json::as_u64).expect("index") as usize;
        let cycles = v.get("cycles").and_then(Json::as_u64).expect("cycles");
        let direct_m = direct
            .intervals
            .iter()
            .find(|m| m.index == index)
            .expect("direct interval");
        assert_eq!(cycles, direct_m.cycles, "interval {index}");
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_share_the_checkpoint_cache() {
    let scratch = ScratchDir::new("cache_share");
    let mut server = Server::start(&ServiceConfig {
        workers: 2,
        cache_dir: Some(scratch.0.join("cache")),
        ..ServiceConfig::default()
    })
    .expect("server");
    let addr = server.addr();

    // Seed the cache: one client runs the job to completion, storing the
    // functional warm states.
    let seed_id = submit(addr, &tiny_job_body());
    let (_, seed_summary) = stream_results(addr, seed_id);
    assert_eq!(
        seed_summary.get("state").and_then(Json::as_str),
        Some("done")
    );
    let seed_digest = seed_summary
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();

    // Two clients submit the identical job concurrently; both must hit the
    // shared cache and reproduce the seeded digest bit-for-bit.
    let handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let id = submit(addr, &tiny_job_body());
                let (_, summary) = stream_results(addr, id);
                (
                    summary
                        .get("state")
                        .and_then(Json::as_str)
                        .expect("state")
                        .to_string(),
                    summary
                        .get("digest")
                        .and_then(Json::as_str)
                        .expect("digest")
                        .to_string(),
                )
            })
        })
        .collect();
    let results: Vec<(String, String)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for (state, digest) in &results {
        assert_eq!(state, "done");
        assert_eq!(
            digest, &seed_digest,
            "cache sharing changed a result digest"
        );
    }

    // Both concurrent runs were served by the warm states the seed run
    // stored.
    let metrics = client::request(addr, "GET", "/metrics", None).expect("metrics");
    let v = Json::parse(metrics.text()).expect("metrics JSON");
    let hits = v
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .expect("cache hits");
    assert!(
        hits >= 2,
        "expected cross-client cache hits, metrics: {v:?}"
    );
    server.shutdown();
}

#[test]
fn cancellation_mid_run_yields_a_terminal_job_and_a_live_server() {
    let mut server = Server::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server");
    let addr = server.addr();
    let id = submit(addr, &slow_job_body());

    let cancel = client::request(addr, "DELETE", &format!("/jobs/{id}"), None).expect("cancel");
    assert_eq!(cancel.status, 202);

    let job = server.registry().get(id).expect("job");
    let state = job.wait_terminal();
    assert!(
        matches!(
            state,
            ltp_service::jobs::JobState::Cancelled | ltp_service::jobs::JobState::Partial
        ),
        "cancelled job ended as {state:?}"
    );

    // The summary stream still terminates cleanly for a cancelled job...
    let (_, summary) = stream_results(addr, id);
    let final_state = summary.get("state").and_then(Json::as_str).expect("state");
    assert!(final_state == "cancelled" || final_state == "partial");
    // ...and the server keeps serving new work.
    let id2 = submit(addr, &tiny_job_body());
    let (_, summary2) = stream_results(addr, id2);
    assert_eq!(summary2.get("state").and_then(Json::as_str), Some("done"));
    server.shutdown();
}

#[test]
fn admission_control_returns_429_with_retry_after() {
    let mut server = Server::start(&ServiceConfig {
        workers: 1,
        max_jobs: 1,
        ..ServiceConfig::default()
    })
    .expect("server");
    let addr = server.addr();
    let id = submit(addr, &slow_job_body());

    let second = client::request(addr, "POST", "/jobs", Some(&tiny_job_body())).expect("request");
    assert_eq!(second.status, 429, "body: {}", second.text());
    let v = Json::parse(second.text()).expect("429 JSON");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("busy"));
    assert_eq!(v.get("limit").and_then(Json::as_u64), Some(1));

    let metrics = client::request(addr, "GET", "/metrics", None).expect("metrics");
    let rejected = Json::parse(metrics.text())
        .expect("metrics JSON")
        .get("rejected")
        .and_then(Json::as_u64)
        .expect("rejected");
    assert!(rejected >= 1);

    // Draining the active job reopens admission.
    let cancel = client::request(addr, "DELETE", &format!("/jobs/{id}"), None).expect("cancel");
    assert_eq!(cancel.status, 202);
    server.registry().get(id).expect("job").wait_terminal();
    let id2 = submit(addr, &tiny_job_body());
    let (_, summary) = stream_results(addr, id2);
    assert_eq!(summary.get("state").and_then(Json::as_str), Some("done"));
    server.shutdown();
}

#[test]
fn injected_worker_panic_degrades_the_job_not_the_server() {
    let mut server = Server::start(&ServiceConfig {
        workers: 2,
        allow_fault_injection: true,
        ..ServiceConfig::default()
    })
    .expect("server");
    let addr = server.addr();

    // Interval 1 panics, so the job completes degraded: measured remainder
    // + one lost interval.
    let s = tiny_spec();
    let body = format!(
        r#"{{"workload":"indirect_stream","inject":"panic@1",
            "spec":{{"total_insts":{},"intervals":{},"detail_warm":{},
            "detail_measure":{},"seed":{},"warm_insts":{}}}}}"#,
        s.total_insts, s.intervals, s.detail_warm, s.detail_measure, s.seed, s.warm_insts
    );
    let id = submit(addr, &body);
    let (intervals, summary) = stream_results(addr, id);
    assert_eq!(
        summary.get("state").and_then(Json::as_str),
        Some("partial"),
        "summary: {summary:?}"
    );
    assert_eq!(
        intervals.len(),
        s.intervals - 1,
        "exactly one interval lost"
    );
    assert!(intervals
        .iter()
        .all(|v| v.get("index").and_then(Json::as_u64) != Some(1)));
    let error = summary
        .get("error")
        .and_then(Json::as_str)
        .expect("degraded jobs carry their failure detail");
    assert!(error.contains("interval 1"), "error: {error}");

    // The server survived the worker panics and still runs clean jobs.
    let id2 = submit(addr, &tiny_job_body());
    let (_, summary2) = stream_results(addr, id2);
    assert_eq!(summary2.get("state").and_then(Json::as_str), Some("done"));
    server.shutdown();
}

/// Even a server that allows fault injection refuses, with HTTP 400 naming
/// `inject`, a plan it cannot apply: any plan on an experiment job, and a
/// point job's plan that is not `panic@IDX` directives (`corrupt@`, an
/// attempt coordinate, `delay@`).
#[test]
fn fault_plans_the_server_cannot_apply_are_refused() {
    let mut server = Server::start(&ServiceConfig {
        allow_fault_injection: true,
        ..ServiceConfig::default()
    })
    .expect("server");
    let addr = server.addr();
    let point = |plan: &str| tiny_job_body().replacen('{', &format!(r#"{{"inject":"{plan}","#), 1);
    for body in [
        r#"{"experiment":"sample","quick":true,"inject":"panic@0"}"#.to_string(),
        point("corrupt@1"),
        point("panic@1.0"),
        point("delay@1.0=80"),
    ] {
        let resp = client::request(addr, "POST", "/jobs", Some(&body)).expect("submit");
        assert_eq!(resp.status, 400, "{body}: {}", resp.text());
        assert!(
            resp.text().contains(r#"\"inject\""#),
            "{body}: {}",
            resp.text()
        );
    }
    server.shutdown();
}

/// A server started without `--allow-fault-injection` (the default)
/// refuses a job that carries a fault plan, names the flag, and still runs
/// the same job without one.
#[test]
fn fault_injection_is_refused_by_default() {
    let mut server = Server::start(&ServiceConfig::default()).expect("server");
    let addr = server.addr();
    let body = tiny_job_body().replacen('{', r#"{"inject":"panic@1","#, 1);
    let resp = client::request(addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().contains("--allow-fault-injection"),
        "{}",
        resp.text()
    );
    let id = submit(addr, &tiny_job_body());
    let (_, summary) = stream_results(addr, id);
    assert_eq!(summary.get("state").and_then(Json::as_str), Some("done"));
    server.shutdown();
}

#[test]
fn killed_server_resumes_journaled_jobs_bit_identically() {
    let scratch = ScratchDir::new("resume");
    let journal_dir = scratch.0.join("journal");

    // Reference digest: the same job on a journal-free server.
    let mut reference = Server::start(&ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("reference server");
    let ref_id = submit(reference.addr(), &tiny_job_body());
    let (_, ref_summary) = stream_results(reference.addr(), ref_id);
    let ref_digest = ref_summary
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();
    reference.shutdown();

    // First server: submit, let it make some progress, then drop it without
    // waiting for the job ("kill"). Cancellation on shutdown leaves the
    // journal with whatever completed.
    let mut first = Server::start(&ServiceConfig {
        workers: 2,
        journal_dir: Some(journal_dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("first server");
    let id = submit(first.addr(), &tiny_job_body());
    // Wait until at least one interval has been journaled, so the resumed
    // run genuinely replays state rather than starting fresh.
    let job = first.registry().get(id).expect("job");
    for _ in 0..600 {
        if job.with_shared(|s| !s.intervals.is_empty() || s.state.is_terminal()) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    first.shutdown();
    // A cancelled-at-shutdown job is terminal on disk; make it look like a
    // crash instead: the `.done` marker never got written.
    let done_marker = journal_dir.join(format!("{id}.done"));
    let _ = std::fs::remove_file(&done_marker);

    // Second server on the same journal dir resumes and completes the job.
    let mut second = Server::start(&ServiceConfig {
        workers: 2,
        journal_dir: Some(journal_dir.clone()),
        resume: true,
        ..ServiceConfig::default()
    })
    .expect("second server");
    let resumed = second
        .registry()
        .get(id)
        .expect("resumed job is registered");
    let state = resumed.wait_terminal();
    assert_eq!(
        state,
        ltp_service::jobs::JobState::Done,
        "resumed job state"
    );
    let (_, summary) = stream_results(second.addr(), id);
    assert_eq!(
        summary.get("digest").and_then(Json::as_str),
        Some(ref_digest.as_str()),
        "resume changed the result digest"
    );
    assert!(done_marker.exists(), "completion marker rewritten");
    second.shutdown();
}

#[test]
fn damaged_job_sidecar_is_not_resumed_as_another_job() {
    // One flipped payload bit that leaves the request valid JSON (seed 7
    // becomes seed 3) must not resume a different job under the original
    // id: the sidecar fails its checksum and is marked unresumable.
    let scratch = ScratchDir::new("sidecar");
    let journal_dir = scratch.0.join("journal");
    let mut first = Server::start(&ServiceConfig {
        workers: 2,
        journal_dir: Some(journal_dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("first server");
    let body = tiny_job_body().replace(r#""seed":11"#, r#""seed":7"#);
    let id = submit(first.addr(), &body);
    let _ = stream_results(first.addr(), id);
    first.shutdown();

    let sidecar = journal_dir.join(format!("{id}.job"));
    let mut bytes = std::fs::read(&sidecar).expect("job sidecar");
    let at = bytes
        .windows(8)
        .position(|w| w == br#""seed":7"#)
        .expect("seed in the sidecar")
        + 7;
    bytes[at] ^= b'7' ^ b'3';
    std::fs::write(&sidecar, &bytes).expect("flip the seed digit");
    let done_marker = journal_dir.join(format!("{id}.done"));
    std::fs::remove_file(&done_marker).expect("fake a crash");

    let mut second = Server::start(&ServiceConfig {
        workers: 2,
        journal_dir: Some(journal_dir.clone()),
        resume: true,
        ..ServiceConfig::default()
    })
    .expect("second server");
    assert!(
        second.registry().get(id).is_none(),
        "a damaged sidecar was resumed as a job"
    );
    let marker = std::fs::read(&done_marker).expect("marked done");
    assert!(
        String::from_utf8_lossy(&marker).contains("unresumable"),
        "marked unresumable"
    );
    second.shutdown();
}

#[test]
fn figure_job_report_carries_its_tables_as_table_blocks() {
    // A figure job's final `{"report":…}` line holds the report's blocks as
    // they are, tables as `table` blocks with their columns and rows, not
    // one pre-rendered text block.
    let mut server = Server::start(&ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("server");
    let id = submit(server.addr(), r#"{"experiment":"table1","quick":true}"#);
    let resp = client::request(server.addr(), "GET", &format!("/jobs/{id}/results"), None)
        .expect("results");
    server.shutdown();
    let line = resp
        .text()
        .lines()
        .find(|l| l.starts_with(r#"{"report":"#))
        .expect("report line");
    let report = Json::parse(line).expect("report JSON");
    let blocks = report
        .get("report")
        .and_then(|r| r.get("blocks"))
        .and_then(Json::as_array)
        .expect("blocks");
    let kind = |b: &Json| b.get("type").and_then(Json::as_str).map(String::from);
    assert!(
        blocks.iter().any(|b| kind(b).as_deref() == Some("table")),
        "no table block in {line}"
    );

    let strings = |v: Option<&Json>| -> Vec<String> {
        v.and_then(Json::as_array)
            .expect("array")
            .iter()
            .map(|s| s.as_str().expect("string").to_string())
            .collect()
    };
    let expected = Experiment::Table1.run(&ExperimentCtx::new(&RunOptions::quick()));
    assert_eq!(blocks.len(), expected.blocks().len());
    for (got, want) in blocks.iter().zip(expected.blocks()) {
        match want {
            Block::Text(text) => {
                assert_eq!(kind(got).as_deref(), Some("text"));
                assert_eq!(got.get("text").and_then(Json::as_str), Some(text.as_str()));
            }
            Block::Table { columns, rows } => {
                assert_eq!(kind(got).as_deref(), Some("table"));
                assert_eq!(&strings(got.get("columns")), columns);
                let got_rows: Vec<Vec<String>> = got
                    .get("rows")
                    .and_then(Json::as_array)
                    .expect("rows")
                    .iter()
                    .map(|row| strings(Some(row)))
                    .collect();
                assert_eq!(&got_rows, rows);
            }
        }
    }
}
