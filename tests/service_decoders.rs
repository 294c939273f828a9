//! Property tests of the job server's request decoders: HTTP framing
//! (`http::read_request`), JSON (`Json::parse`), the inline-trace hex codec
//! (`jobs::hex_decode`) and job submissions (`JobRequest::parse`, which runs
//! them all on a connection thread).
//!
//! The contract: any bytes a client can send come back as a value or a
//! typed error. No decoder panics, and no single allocation is sized by a
//! length the input merely claims: each stays within a bound proportional
//! to the input.

use ltp_isa::DynInst;
use ltp_service::http::read_request;
use ltp_service::jobs::{hex_decode, hex_encode, JobKind, JobRequest};
use ltp_service::json::Json;
use ltp_snapshot::{encode_envelope, encode_value, Writer, FORMAT_VERSION, MAGIC};
use ltp_workloads::{trace, WorkloadKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[allow(unsafe_code)]
#[path = "common/peak_alloc.rs"]
mod peak_alloc;

/// The largest single allocation a decoder may make for `input` bytes: one
/// decoded value per input byte, the largest such value being an
/// instruction or a JSON node, plus slack for messages and bookkeeping.
fn alloc_bound(input: usize) -> usize {
    std::mem::size_of::<DynInst>().max(std::mem::size_of::<Json>()) * input + 4096
}

/// A point job with every field set, and an experiment job.
const POINT_JOB: &str = r#"{"workload":"indirect_stream","config":"ltp_proposed",
    "quick":true,"spec":{"total_insts":24000,"intervals":4,"detail_warm":250,
    "detail_measure":600,"seed":11,"warm_insts":1000},"inject":"panic@1"}"#;
const EXPERIMENT_JOB: &str = r#"{"experiment":"fig1","quick":true,"insts":100,"warm":50,"seed":7}"#;

/// Field bytes of each instruction of a valid trace, in encoding order:
/// sequence number, thread, static instruction, memory access and branch
/// outcome.
fn trace_fields() -> &'static [[Vec<u8>; 5]] {
    use std::sync::OnceLock;
    static FIELDS: OnceLock<Vec<[Vec<u8>; 5]>> = OnceLock::new();
    FIELDS.get_or_init(|| {
        trace(WorkloadKind::HashProbe, 5, 48)
            .iter()
            .map(|d| {
                [
                    encode_value(&d.seq()),
                    encode_value(&d.tid()),
                    encode_value(d.static_inst()),
                    encode_value(&d.mem_access()),
                    encode_value(&d.branch_info()),
                ]
            })
            .collect()
    })
}

/// The trace envelope of instructions given as field bytes.
fn envelope(fields: &[[Vec<u8>; 5]]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.varint(u64::from(FORMAT_VERSION));
    w.varint(fields.len() as u64);
    for part in fields.iter().flatten() {
        w.bytes(part);
    }
    w.into_bytes()
}

fn trace_job(envelope: &[u8]) -> String {
    let hex = hex_encode(envelope);
    format!(r#"{{"workload":"hash_probe","trace_hex":"{hex}","spec":{{"intervals":2}}}}"#)
}

/// One mutation of `bytes` by `class`: overwrite a byte, splice a burst of
/// `0xFF` (huge LEB128 lengths), truncate, insert or delete a byte; class 5
/// leaves the bytes as they are.
fn mutate(bytes: &mut Vec<u8>, class: u8, pos_seed: usize, value: u8) {
    let pos = pos_seed % (bytes.len() + 1);
    match class {
        0 if pos < bytes.len() => bytes[pos] = value,
        1 => {
            let end = (pos + usize::from(value % 16) + 1).min(bytes.len());
            bytes[pos..end].fill(0xFF);
        }
        2 => bytes.truncate(pos),
        3 => bytes.insert(pos, value),
        4 if pos < bytes.len() => {
            bytes.remove(pos);
        }
        _ => {}
    }
}

/// Parses `body` and checks the decoder contract on it; an accepted inline
/// trace must also be one the pipeline can run.
fn check_parse(body: &str) -> Result<(), TestCaseError> {
    let (parsed, peak) = peak_alloc::peak_during(|| JobRequest::parse(body));
    prop_assert!(
        peak <= alloc_bound(body.len()),
        "a {peak}-byte allocation for a {}-byte body",
        body.len()
    );
    if let Ok(JobRequest {
        kind: JobKind::Point { trace: Some(t), .. },
        ..
    }) = parsed
    {
        prop_assert!(!t.is_empty());
        prop_assert!(t.windows(2).all(|w| w[0].seq() < w[1].seq()));
        for d in &t {
            let op = d.static_inst().op();
            prop_assert!(d.mem_access().is_none() || op.is_mem(), "{d:?}");
            prop_assert!(d.branch_info().is_none() || op.is_branch(), "{d:?}");
        }
    }
    Ok(())
}

/// The point and experiment bodies the mutation tests start from are ones
/// the server accepts, so each mutation probes the decoders past their first
/// error (the inline-trace body is checked below).
#[test]
fn the_fixture_job_bodies_parse() {
    for body in [POINT_JOB, EXPERIMENT_JOB] {
        assert!(JobRequest::parse(body).is_ok(), "{body}");
    }
}

#[test]
fn field_bytes_rebuild_the_trace_envelope() {
    let detail = trace(WorkloadKind::HashProbe, 5, 48);
    assert_eq!(envelope(trace_fields()), encode_envelope(&detail));
    assert!(JobRequest::parse(&trace_job(&envelope(trace_fields()))).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// A valid job body (point, experiment, or point with an inline trace)
    /// with one byte-level mutation of its text.
    #[test]
    fn mutated_job_bodies_never_panic_or_overallocate(
        which in 0usize..3,
        class in 0u8..5,
        pos_seed in any::<usize>(),
        value in any::<u8>(),
    ) {
        let mut body = match which {
            0 => POINT_JOB.to_string(),
            1 => EXPERIMENT_JOB.to_string(),
            _ => trace_job(&envelope(trace_fields())),
        }
        .into_bytes();
        mutate(&mut body, class, pos_seed, value);
        check_parse(&String::from_utf8_lossy(&body))?;
    }

    /// An inline trace in which one field of one instruction was swapped for
    /// the same field of another (a branch outcome on an ALU op, a memory
    /// access on a branch, a repeated sequence number, ...), with one
    /// byte-level mutation of the envelope on top.
    #[test]
    fn spliced_inline_traces_never_panic_or_overallocate(
        dst in any::<usize>(),
        src in any::<usize>(),
        field in 0usize..5,
        class in 0u8..6,
        pos_seed in any::<usize>(),
        value in any::<u8>(),
    ) {
        let mut fields = trace_fields().to_vec();
        let n = fields.len();
        fields[dst % n][field] = fields[src % n][field].clone();
        let mut bytes = envelope(&fields);
        mutate(&mut bytes, class, pos_seed, value);
        check_parse(&trace_job(&bytes))?;
    }

    /// Arbitrary bytes through every decoder.
    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        check_parse(&text)?;
        let (_, peak) = peak_alloc::peak_during(|| Json::parse(&text));
        prop_assert!(peak <= alloc_bound(text.len()), "Json::parse: {peak} bytes");
        let (_, peak) = peak_alloc::peak_during(|| hex_decode(&text));
        prop_assert!(peak <= alloc_bound(text.len()), "hex_decode: {peak} bytes");
        let (_, peak) = peak_alloc::peak_during(|| read_request(&mut bytes.as_slice()));
        prop_assert!(peak <= alloc_bound(bytes.len()), "read_request: {peak} bytes");
    }

    /// A valid job submission over HTTP with one byte-level mutation,
    /// including `Content-Length` values that claim more than was sent.
    #[test]
    fn mutated_http_requests_never_panic_or_overallocate(
        class in 0u8..5,
        pos_seed in any::<usize>(),
        value in any::<u8>(),
    ) {
        let mut request = format!(
            "POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{POINT_JOB}",
            POINT_JOB.len()
        )
        .into_bytes();
        mutate(&mut request, class, pos_seed, value);
        let (read, peak) = peak_alloc::peak_during(|| read_request(&mut request.as_slice()));
        prop_assert!(peak <= alloc_bound(request.len()), "read_request: {peak} bytes");
        if let Ok(Some(req)) = read {
            prop_assert!(req.body.len() <= request.len());
        }
    }
}
