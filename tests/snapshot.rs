//! Checkpoint/restore regression tests.
//!
//! The contract under test: capturing a [`Snapshot`] mid-run, serializing it
//! through the versioned binary codec, restoring it in a fresh process-like
//! context and finishing the run is **bit-for-bit** identical to never having
//! stopped. The uninterrupted runs used as references here are themselves
//! pinned by `tests/golden_stats.rs` (24 golden fingerprints), so these tests
//! transitively pin checkpoint/restore to the seed simulator's behaviour.

use ltp_core::{ClassifierKind, ClassifierState, LtpConfig, LtpMode, LtpQueue, ParkedInst};
use ltp_experiments::cache::{
    sampled_warm_key, CachedInterval, IntervalGeometry, SampledWarmEntry,
};
use ltp_experiments::journal::{load_journal, JournalHeader, JournalRecord, JournalWriter};
use ltp_experiments::runner::{limit_study_config, RunOptions};
use ltp_experiments::sampled::SampleSpec;
use ltp_experiments::{CheckpointCache, SimBuilder};
use ltp_pipeline::{FunctionalFastForward, PipelineConfig, RunResult, Snapshot};
use ltp_snapshot::framed::{read_framed, FileKind, FramedWriter};
use ltp_snapshot::{encode_value, Codec, Reader, SnapError};
use ltp_workloads::{replay_slice, WorkloadKind};
use proptest::prelude::*;

// A guard against OOM-scale allocations while decoding hostile bytes (shared
// with `tests/service_decoders.rs`).
#[allow(unsafe_code)]
#[path = "common/peak_alloc.rs"]
mod peak_alloc;

/// The golden-run options (`tests/golden_stats.rs`).
fn opts() -> RunOptions {
    RunOptions {
        detail_insts: 6_000,
        warm_insts: 4_000,
        seed: 2015,
    }
}

/// The full stable fingerprint of a run (superset of the golden-stats one:
/// adds memory and branch statistics so divergence anywhere shows up).
fn fingerprint(r: &RunResult) -> String {
    format!(
        "cycles={} insts={} parked={} rel_io={} rel_ooo={} forced={} iqw={} iqi={} rfr={} rfw={} \
         llc={} loads={} stores={} mem_acc={} mem_lat={} bmr={:.9} ltp_occ={:.6} ltp_peak={} \
         iq_occ={:.6} regs_occ={:.6} rob_occ={:.6} out_occ={:.6}",
        r.cycles,
        r.instructions,
        r.ltp.total_parked(),
        r.ltp.released_in_order,
        r.ltp.released_out_of_order,
        r.ltp.force_released,
        r.activity.iq_writes,
        r.activity.iq_issues,
        r.activity.rf_reads,
        r.activity.rf_writes,
        r.llc_miss_loads,
        r.loads,
        r.stores,
        r.mem.accesses,
        r.mem.total_latency,
        r.branch_mispredict_rate,
        r.occupancy.ltp.mean(),
        r.occupancy.ltp.peak(),
        r.occupancy.iq.mean(),
        r.occupancy.regs.mean(),
        r.occupancy.rob.mean(),
        r.occupancy.outstanding_misses.mean(),
    )
}

/// The realistic (UIT-classified) machine of the golden suite.
fn realistic(mode: LtpMode) -> PipelineConfig {
    match mode {
        LtpMode::Off => PipelineConfig::small_no_ltp(),
        m => {
            let ltp = LtpConfig {
                mode: m,
                ..LtpConfig::nu_only_128x4()
            };
            PipelineConfig::ltp_proposed().with_ltp(ltp)
        }
    }
}

/// Runs one golden point uninterrupted, then again with a mid-run
/// checkpoint → serialize → deserialize → resume, and asserts identical
/// fingerprints.
fn assert_restore_equivalent(kind: WorkloadKind, cfg: PipelineConfig, checkpoint_at: u64) {
    let o = opts();
    let builder = SimBuilder::new(cfg, kind).options(&o);
    let detail = builder.detail_trace();

    let full = builder.run_on(&detail).expect("uninterrupted run");

    let mut cpu = builder.build();
    let snap = cpu
        .run_to_snapshot(replay_slice(kind.name(), &detail), checkpoint_at)
        .expect("checkpoint");
    drop(cpu); // the rest of the run uses only the serialized state

    let bytes = snap.to_bytes();
    let restored = Snapshot::from_bytes(&bytes).expect("decode");
    assert_eq!(restored.to_bytes(), bytes, "canonical snapshot bytes");
    let resumed = restored
        .resume()
        .run(replay_slice(kind.name(), &detail), o.detail_insts)
        .expect("resumed run");

    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&full),
        "restore diverged: {} checkpoint@{checkpoint_at}",
        kind.name()
    );
}

#[test]
fn restore_is_bit_for_bit_on_the_uit_path() {
    for mode in [LtpMode::Off, LtpMode::NonUrgentOnly, LtpMode::Both] {
        for kind in [WorkloadKind::IndirectStream, WorkloadKind::GatherFp] {
            assert_restore_equivalent(kind, realistic(mode), 3_000);
        }
    }
}

#[test]
fn restore_is_bit_for_bit_on_the_oracle_path() {
    // Oracle classifier state (the analysed per-seq classes) rides inside
    // the snapshot, so the resumed run needs no re-attachment.
    for mode in [LtpMode::NonUrgentOnly, LtpMode::Both] {
        assert_restore_equivalent(
            WorkloadKind::MixedPhases,
            limit_study_config(mode).with_iq(32),
            2_500,
        );
    }
}

#[test]
fn restore_is_bit_for_bit_for_sweep_classifiers() {
    // Random classifier: the xorshift stream position must resume exactly.
    let cfg = PipelineConfig::ltp_proposed().with_classifier(ClassifierKind::Random {
        non_urgent_percent: 50,
        seed: 0x5eed,
    });
    assert_restore_equivalent(WorkloadKind::HashProbe, cfg, 1_777);
}

#[test]
fn checkpoint_near_the_end_still_matches() {
    // A checkpoint in the drain phase (past most of the trace).
    assert_restore_equivalent(
        WorkloadKind::IndirectStream,
        realistic(LtpMode::NonUrgentOnly),
        5_900,
    );
}

/// The measured window survives a checkpoint. With a pipeline warm-up of
/// 2,000 instructions, a snapshot taken before the boundary carries no
/// window start and the resumed run opens it on crossing; one taken on or
/// after it carries the `(cycle, committed)` where the uninterrupted run
/// opened it. Checkpoints well before, one short of, at, one past and well
/// past the boundary all resume to the uninterrupted fingerprint.
#[test]
fn restore_keeps_the_warmup_window() {
    let cfg = realistic(LtpMode::Both).with_warmup(2_000);
    for kind in [WorkloadKind::IndirectStream, WorkloadKind::MixedPhases] {
        for checkpoint_at in [1_000, 1_999, 2_000, 2_001, 3_500] {
            assert_restore_equivalent(kind, cfg, checkpoint_at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Round-trip property over real machine states: a checkpoint taken at a
    /// random commit count of a random golden workload/mode encodes
    /// canonically (encode ∘ decode ∘ encode = encode) and resumes to the
    /// uninterrupted run's fingerprint.
    #[test]
    fn snapshot_roundtrip_at_random_checkpoints(
        raw_point in 0u64..4_000,
        mode_idx in 0usize..3,
        kind_idx in 0usize..3,
    ) {
        let mode = [LtpMode::Off, LtpMode::NonUrgentOnly, LtpMode::Both][mode_idx];
        let kind = [
            WorkloadKind::IndirectStream,
            WorkloadKind::MixedPhases,
            WorkloadKind::GatherFp,
        ][kind_idx];
        // Keep the proptest cases cheap: short runs, early checkpoints.
        let o = RunOptions {
            detail_insts: 4_500,
            warm_insts: 1_000,
            seed: 2015,
        };
        let builder = SimBuilder::new(realistic(mode), kind).options(&o);
        let detail = builder.detail_trace();
        let full = builder.run_on(&detail).expect("uninterrupted run");

        let mut cpu = builder.build();
        let snap = cpu
            .run_to_snapshot(replay_slice(kind.name(), &detail), 500 + raw_point)
            .expect("checkpoint");
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(decoded.to_bytes(), bytes, "non-canonical bytes");
        let resumed = decoded
            .resume()
            .run(replay_slice(kind.name(), &detail), o.detail_insts)
            .expect("resumed run");
        prop_assert_eq!(fingerprint(&resumed), fingerprint(&full));
    }
}

/// One valid encoded snapshot, captured once and shared by every mutation
/// case (capturing it is the expensive part).
fn valid_snapshot_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let o = RunOptions {
            detail_insts: 4_500,
            warm_insts: 1_000,
            seed: 2015,
        };
        let builder =
            SimBuilder::new(realistic(LtpMode::Both), WorkloadKind::IndirectStream).options(&o);
        let detail = builder.detail_trace();
        let mut cpu = builder.build();
        cpu.run_to_snapshot(replay_slice("indirect_stream", &detail), 2_000)
            .expect("checkpoint")
            .to_bytes()
    })
}

/// Decoding hostile bytes must fail *gracefully*: a typed error (or, for
/// mutations the checksums cannot distinguish from valid data, a decoded
/// snapshot) — never a panic, and never an allocation sized by attacker-
/// controlled length fields. The 64 MiB ceiling is ~300× a real encoding,
/// far below what a length-lying varint (terabytes) would request, and
/// comfortably above every legitimate allocation of a decode. Each test
/// measures its own decode on its own thread (`peak_alloc::peak_during`),
/// so another test's allocations in this binary cannot fail it.
const ALLOC_CEILING: usize = 64 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single byte overwritten anywhere in a valid encoding (covers header,
    /// length prefixes, payload and checksum bytes).
    #[test]
    fn mutated_snapshot_bytes_never_panic_or_overallocate(
        pos_seed in 0usize..1 << 30,
        byte in 0u32..256,
    ) {
        let mut bytes = valid_snapshot_bytes().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] = byte as u8;
        let (_, peak) = peak_alloc::peak_during(|| Snapshot::from_bytes(&bytes));
        prop_assert!(peak < ALLOC_CEILING, "a {peak}-byte allocation crossed the ceiling");
    }

    /// Truncation to an arbitrary prefix (a torn write): every cut point
    /// must produce a typed error, not a panic or an overallocation.
    #[test]
    fn truncated_snapshot_bytes_never_panic_or_overallocate(len_seed in 0usize..1 << 30) {
        let bytes = valid_snapshot_bytes();
        let len = len_seed % bytes.len();
        let (decoded, peak) = peak_alloc::peak_during(|| Snapshot::from_bytes(&bytes[..len]));
        prop_assert!(decoded.is_err(), "truncated decode succeeded");
        prop_assert!(peak < ALLOC_CEILING, "a {peak}-byte allocation crossed the ceiling");
    }

    /// A burst of 0xFF bytes spliced over the encoding — the worst case for
    /// LEB128 length fields, which this turns into huge claimed lengths.
    #[test]
    fn length_lying_snapshot_bytes_never_panic_or_overallocate(
        pos_seed in 0usize..1 << 30,
        burst in 1usize..16,
    ) {
        let mut bytes = valid_snapshot_bytes().to_vec();
        let pos = pos_seed % bytes.len();
        let end = (pos + burst).min(bytes.len());
        bytes[pos..end].fill(0xFF);
        let (_, peak) = peak_alloc::peak_during(|| Snapshot::from_bytes(&bytes));
        prop_assert!(peak < ALLOC_CEILING, "a {peak}-byte allocation crossed the ceiling");
    }
}

/// Offsets, in [`valid_snapshot_bytes`], of the first in-flight ticket id of
/// the LTP unit's ticket file and of the first ticket id a parked
/// instruction waits on. The unit's encoding starts with its configuration,
/// whose last occurrence in the snapshot locates it; the public codecs of
/// its leading fields then walk to both ids.
fn ticket_id_offsets(bytes: &[u8]) -> (usize, usize) {
    let ltp_cfg = encode_value(&realistic(LtpMode::Both).ltp);
    let unit = bytes
        .windows(ltp_cfg.len())
        .rposition(|w| w == ltp_cfg)
        .expect("the snapshot holds the LTP unit");
    let mut r = Reader::new(&bytes[unit..]);
    let at = |r: &Reader<'_>| bytes.len() - r.remaining();
    LtpConfig::read(&mut r).expect("unit configuration");
    ClassifierState::read(&mut r).expect("classifier state");
    bool::read(&mut r).expect("classifier attached");
    ltp_core::RatExtension::read(&mut r).expect("RAT extension");
    let queue_at = at(&r);
    // The queue: capacity, ports, then the parked instructions.
    usize::read(&mut r).expect("capacity");
    usize::read(&mut r).expect("ports");
    let mut parked_id = None;
    for _ in 0..usize::read(&mut r).expect("parked count") {
        let inst_at = at(&r);
        let inst = ParkedInst::read(&mut r).expect("parked instruction");
        if parked_id.is_none() && !inst.tickets.is_empty() {
            // Sequence number, two class flags, then the set's count.
            let count_at = inst_at + encode_value(&inst.seq).len() + 2;
            parked_id = Some(count_at + encode_value(&inst.tickets.len()).len());
        }
    }
    let mut r = Reader::new(&bytes[queue_at..]);
    LtpQueue::read(&mut r).expect("queue");
    // The ticket file: capacity, free list, next id, then the in-flight set.
    usize::read(&mut r).expect("ticket capacity");
    Vec::<ltp_core::Ticket>::read(&mut r).expect("free tickets");
    u32::read(&mut r).expect("next ticket");
    let in_flight = usize::read(&mut r).expect("in-flight count");
    assert!(in_flight > 0, "the fixture has tickets in flight");
    (
        at(&r),
        parked_id.expect("the fixture parks an instruction that waits on a ticket"),
    )
}

/// `bytes` with the varint at `at` rewritten to `u32::MAX`.
fn with_id_at_max(bytes: &[u8], at: usize) -> Vec<u8> {
    let len = bytes[at..]
        .iter()
        .position(|b| b & 0x80 == 0)
        .expect("a varint ends")
        + 1;
    let mut out = bytes[..at].to_vec();
    out.extend(encode_value(&u32::MAX));
    out.extend_from_slice(&bytes[at + len..]);
    out
}

/// A ticket id rewritten to `u32::MAX` in the checkpoint of the realistic
/// machine that parks Non-Ready instructions, in its ticket file's
/// in-flight set or in a parked instruction's ticket set, is a typed
/// decode error: ids size no bitset and no later table, and the decode
/// stays under the ceiling.
#[test]
fn ticket_ids_rewritten_to_u32_max_are_invalid() {
    let valid = valid_snapshot_bytes();
    let (in_flight, parked) = ticket_id_offsets(valid);
    for (what, at) in [("in-flight", in_flight), ("parked", parked)] {
        let bytes = with_id_at_max(valid, at);
        let (decoded, peak) = peak_alloc::peak_during(|| Snapshot::from_bytes(&bytes));
        assert!(peak < ALLOC_CEILING, "{what}: a {peak}-byte allocation");
        match decoded {
            Err(ltp_pipeline::SnapshotError::Decode(SnapError::Invalid(_))) => {}
            other => panic!("{what} id at u32::MAX decoded as {:?}", other.map(|_| ())),
        }
    }
}

// --- persisted files: framed reader, journals, cache entries ---------------

/// A decoder of a persisted file may allocate at most this multiple of the
/// file in one request (reading the file is one times), plus
/// `ALLOC_SLACK` for paths, errors and small bookkeeping.
const INPUT_ALLOC_FACTOR: usize = 2;
const ALLOC_SLACK: usize = 4096;

fn assert_alloc_bounded(peak: usize, input: usize, what: &str) {
    assert!(
        peak <= INPUT_ALLOC_FACTOR * input + ALLOC_SLACK,
        "{what}: one allocation of {peak} bytes for a {input}-byte file"
    );
}

/// Scratch files of these tests (removed best-effort at exit of each use).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ltp-persisted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// The header every framed file written here opens with: its own first
/// nine bytes (8 magic bytes and a one-byte version).
fn own_header(bytes: &[u8]) -> FileKind {
    FileKind {
        magic: bytes[..8].try_into().expect("magic"),
        version: u64::from(bytes[8]),
    }
}

/// `(offset, payload)` of every frame of a valid framed file.
fn frames_of(bytes: &[u8]) -> Vec<(usize, Vec<u8>)> {
    read_framed(bytes, own_header(bytes))
        .expect("header")
        .map(|f| {
            let f = f.expect("intact frame");
            (f.offset, f.payload.to_vec())
        })
        .collect()
}

/// A valid framed file damaged one of three ways: a flipped bit, a cut
/// tail, or a frame whose length claims more bytes than follow it.
fn damaged(valid: &[u8], class: u8, at: usize, extra: u64) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    match class % 3 {
        0 => bytes[at % valid.len()] ^= 1 << (extra % 8),
        1 => bytes.truncate(at % valid.len()),
        _ => {
            let frames = frames_of(valid);
            let (offset, payload) = &frames[at % frames.len()];
            let width = encode_value(&(payload.len() as u64)).len();
            let claim = (valid.len() - offset) as u64 + 1 + (extra >> 1);
            bytes.truncate(offset - width);
            bytes.extend_from_slice(&encode_value(&claim));
            bytes.extend_from_slice(&valid[*offset..]);
        }
    }
    bytes
}

/// A framed file of a few payloads of assorted sizes.
fn valid_framed_file() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = scratch("valid.framed");
        let kind = FileKind {
            magic: *b"LTPPROP\0",
            version: 1,
        };
        let mut w = FramedWriter::create(&path, kind).expect("create");
        for n in [0usize, 5, 300, 2_000] {
            w.append_value(&vec![n as u64; n]).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

fn journal_spec() -> SampleSpec {
    SampleSpec {
        total_insts: 60_000,
        intervals: 6,
        detail_warm: 500,
        detail_measure: 1_000,
        seed: 7,
        warm_insts: 2_000,
    }
}

fn journal_header() -> JournalHeader {
    JournalHeader::for_run(
        &journal_spec(),
        "indirect_stream",
        "IQ:32",
        &PipelineConfig::ltp_proposed(),
    )
}

fn journal_record(index: u64) -> JournalRecord {
    JournalRecord {
        index,
        start: index * 10_000,
        weight: 3 + index,
        instructions: 1_000,
        cycles: 2_500 + index,
        snapshot: vec![0xA5 ^ index as u8; 1_500],
    }
}

/// A journal of a header and four records.
fn valid_journal() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = scratch("valid.journal");
        let mut w = JournalWriter::create(&path, &journal_header()).expect("create");
        for i in [2, 0, 3, 1] {
            w.append(&journal_record(i)).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

/// Loads `bytes` as a journal: the records it returns must be a prefix of
/// the valid journal's, and no allocation may outgrow the input.
fn check_journal_load(bytes: &[u8], name: &str) {
    let path = scratch(name);
    std::fs::write(&path, bytes).expect("write journal");
    let (loaded, peak) = peak_alloc::peak_during(|| load_journal(&path));
    let _ = std::fs::remove_file(&path);
    assert_alloc_bounded(peak, bytes.len(), "load_journal");
    if let Ok(loaded) = loaded {
        assert_eq!(loaded.header, journal_header(), "a header was misread");
        let valid: Vec<JournalRecord> = [2, 0, 3, 1].map(journal_record).into();
        assert_eq!(
            loaded.records[..],
            valid[..loaded.records.len()],
            "a record was misread"
        );
    }
}

/// A sampled warm entry of one interval, at the start of a trace whose
/// caches were warmed, and its key.
fn sampled_warm_entry() -> &'static (u64, SampledWarmEntry) {
    use std::sync::OnceLock;
    static ENTRY: OnceLock<(u64, SampledWarmEntry)> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let cfg = PipelineConfig::micro2015_baseline();
        let mut ff = FunctionalFastForward::new(cfg);
        ff.warm_caches(&ltp_workloads::trace(
            WorkloadKind::IndirectStream,
            1,
            1_000,
        ));
        let state = ff.warm_state().expect("warm state");
        let geometry = IntervalGeometry {
            total_insts: 6_000,
            intervals: 1,
            detail_warm: 500,
            detail_measure: 1_000,
            seed: 1,
            warm_insts: 1_000,
        };
        let key = sampled_warm_key("indirect_stream", 1, &cfg.warmup_config(), &geometry);
        let entry = SampledWarmEntry {
            intervals: vec![CachedInterval {
                start: 0,
                weight: 0,
                state,
            }],
        };
        (key, entry)
    })
}

/// A cache directory holding one sampled warm entry, its key and its path.
fn cache_with_entry(tag: &str) -> (CheckpointCache, u64, std::path::PathBuf) {
    let dir = scratch(&format!("cache-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CheckpointCache::open(&dir).expect("open cache");
    let (key, entry) = sampled_warm_entry();
    let key = *key;
    cache.store_sampled_warm(key, entry);
    let path = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .expect("the stored entry");
    (cache, key, path)
}

/// The bytes of a valid sampled warm cache entry.
fn valid_cache_entry() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (cache, _, path) = cache_with_entry("valid");
        let bytes = std::fs::read(path).expect("entry");
        let _ = std::fs::remove_dir_all(cache.dir());
        bytes
    })
}

/// Looks `bytes` up as the cache entry of `key`: every damaged or foreign
/// entry is a miss, and no allocation may outgrow the input.
fn check_cache_lookup(bytes: &[u8], tag: &str) {
    let (cache, key, path) = cache_with_entry(tag);
    std::fs::write(&path, bytes).expect("write entry");
    let (hit, peak) = peak_alloc::peak_during(|| cache.load_sampled_warm(key).is_some());
    let _ = std::fs::remove_dir_all(cache.dir());
    assert!(!hit, "a damaged entry was returned");
    assert_alloc_bounded(peak, bytes.len(), "cache lookup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The framed reader yields a prefix of the valid frames and stops, on
    /// any damage, without allocating.
    #[test]
    fn damaged_framed_files_yield_a_prefix_of_their_frames(
        class in 0u8..3,
        at in 0usize..1 << 30,
        extra in any::<u64>(),
    ) {
        let valid = valid_framed_file();
        let bytes = damaged(valid, class, at, extra);
        let (read, peak) = peak_alloc::peak_during(|| {
            read_framed(&bytes, own_header(valid)).map(|frames| {
                frames
                    .map_while(Result::ok)
                    .map(|f| (f.offset, f.payload.to_vec()))
                    .collect::<Vec<_>>()
            })
        });
        assert_alloc_bounded(peak, bytes.len(), "framed reader");
        if let Ok(read) = read {
            let frames = frames_of(valid);
            prop_assert!(read.len() <= frames.len());
            prop_assert_eq!(&read[..], &frames[..read.len()]);
        }
    }

    /// Arbitrary bytes, bare or behind a valid header, never panic a
    /// decoder, never read as data and never allocate beyond the input.
    #[test]
    fn arbitrary_bytes_are_rejected_by_every_decoder(
        body in proptest::collection::vec(any::<u8>(), 0..512),
        behind_header in any::<bool>(),
    ) {
        let with_header = |valid: &[u8]| -> Vec<u8> {
            let mut bytes = if behind_header { valid[..9].to_vec() } else { Vec::new() };
            bytes.extend_from_slice(&body);
            bytes
        };
        let framed = with_header(valid_framed_file());
        let (count, peak) = peak_alloc::peak_during(|| {
            read_framed(&framed, own_header(valid_framed_file()))
                .map_or(0, |frames| frames.filter(Result::is_ok).count())
        });
        assert_alloc_bounded(peak, framed.len(), "framed reader");
        // A random frame passes its 64-bit checksum with negligible odds.
        prop_assert_eq!(count, 0);
        check_journal_load(&with_header(valid_journal()), "arbitrary.journal");
        check_cache_lookup(&with_header(valid_cache_entry()), "arbitrary");
    }

    /// Flipped, truncated and length-lying journals load a prefix of their
    /// records (or fail the header check) within the allocation bound.
    #[test]
    fn damaged_journals_load_a_prefix_of_their_records(
        class in 0u8..3,
        at in 0usize..1 << 30,
        extra in any::<u64>(),
    ) {
        check_journal_load(&damaged(valid_journal(), class, at, extra), "damaged.journal");
    }

    /// Flipped, truncated and length-lying cache entries are misses within
    /// the allocation bound.
    #[test]
    fn damaged_cache_entries_are_misses(
        class in 0u8..3,
        at in 0usize..1 << 30,
        extra in any::<u64>(),
    ) {
        check_cache_lookup(&damaged(valid_cache_entry(), class, at, extra), "damaged");
    }
}
