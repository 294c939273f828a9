//! On-disk run journal for resumable sampled simulation.
//!
//! Each sampled point (one workload × one configuration) appends every
//! completed interval's measurement to an append-only journal file as it
//! finishes. A later `--resume` run replays the completed intervals straight
//! from the journal and re-simulates only the missing ones; per-interval
//! measurements are deterministic, so the resumed aggregate is
//! bit-identical to an uninterrupted run. Journals hold measurements, not
//! checkpoints: a resume needs only the measurement, and a lost interval
//! re-simulates from the functional pass (or the checkpoint cache).
//!
//! ## Format
//!
//! A journal is an [`ltp_snapshot::framed`] file: a header (magic `LTPJRNL`,
//! [`JOURNAL_VERSION`]), then checksummed frames. The first frame is a
//! [`JournalHeader`] — the run shape and a checksum of the pipeline
//! configuration — and every later frame is one [`JournalRecord`] in
//! *completion* order (workers finish out of trace order), appended by
//! [`JournalWriter::append`] as each interval completes. The loader verifies
//! the header against the run being resumed and stops at the first damaged
//! frame: a crash mid-append or a corrupted record costs only the records
//! from that point on, which the resumed run simply re-simulates.

use crate::sampled::SampleSpec;
use ltp_pipeline::PipelineConfig;
use ltp_snapshot::framed::{read_framed, FileKind, FramedWriter};
use ltp_snapshot::{decode_value, encode_value, fnv1a64, impl_codec};
use std::path::{Path, PathBuf};

/// Version of the journal format; bumped on any layout change so stale
/// journals are ignored rather than misread. Version 2: the framed-file
/// header carries the version, which left the header record.
pub const JOURNAL_VERSION: u64 = 2;

/// Header of a journal file.
const JOURNAL_FILE: FileKind = FileKind {
    magic: *b"LTPJRNL\0",
    version: JOURNAL_VERSION,
};

/// The journal's first record: identifies the run a journal belongs to. A
/// resume only trusts a journal whose header matches the resumed run field
/// for field — including an FNV-1a checksum of the full pipeline
/// configuration, so two configurations sharing a label cannot cross-feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Workload name.
    pub workload: String,
    /// Configuration label (e.g. `IQ:32+LTP`).
    pub config_label: String,
    /// FNV-1a-64 of the canonically encoded [`PipelineConfig`].
    pub config_fnv: u64,
    /// [`SampleSpec::total_insts`] of the run.
    pub total_insts: u64,
    /// [`SampleSpec::intervals`] of the run.
    pub intervals: u64,
    /// [`SampleSpec::detail_warm`] of the run.
    pub detail_warm: u64,
    /// [`SampleSpec::detail_measure`] of the run.
    pub detail_measure: u64,
    /// [`SampleSpec::seed`] of the run.
    pub seed: u64,
    /// [`SampleSpec::warm_insts`] of the run.
    pub warm_insts: u64,
}

impl_codec!(JournalHeader {
    workload,
    config_label,
    config_fnv,
    total_insts,
    intervals,
    detail_warm,
    detail_measure,
    seed,
    warm_insts,
});

impl JournalHeader {
    /// The header describing one sampled point.
    #[must_use]
    pub fn for_run(
        spec: &SampleSpec,
        workload: &str,
        config_label: &str,
        cfg: &PipelineConfig,
    ) -> JournalHeader {
        JournalHeader {
            workload: workload.to_string(),
            config_label: config_label.to_string(),
            config_fnv: fnv1a64(&encode_value(cfg)),
            total_insts: spec.total_insts,
            intervals: spec.intervals as u64,
            detail_warm: spec.detail_warm,
            detail_measure: spec.detail_measure,
            seed: spec.seed,
            warm_insts: spec.warm_insts,
        }
    }
}

/// One completed interval's measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Interval index in trace order.
    pub index: u64,
    /// Trace position (instructions) of the checkpoint.
    pub start: u64,
    /// LPT cost weight (functional LLC misses in the interval).
    pub weight: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// Empty in every record the sampled runner writes, and never read.
    /// Journals of the same [`JOURNAL_VERSION`] written by earlier versions
    /// hold the interval's encoded [`ltp_pipeline::Snapshot`] here; keeping
    /// the field keeps those journals resumable, and keeps the record the
    /// one `ltpbench-traced` builds.
    pub snapshot: Vec<u8>,
}

impl_codec!(JournalRecord {
    index,
    start,
    weight,
    instructions,
    cycles,
    snapshot
});

/// Journal file path for one sampled point inside `dir`; non-path characters
/// in the configuration label are flattened to `_`.
#[must_use]
pub fn journal_path(dir: &Path, workload: &str, config_label: &str) -> PathBuf {
    let sane: String = config_label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    dir.join(format!("{workload}__{sane}.journal"))
}

/// Appends framed records to a journal file as intervals complete.
#[derive(Debug)]
pub struct JournalWriter {
    file: FramedWriter,
}

impl JournalWriter {
    /// Creates (truncating) the journal at `path` and writes its header.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn create(path: &Path, header: &JournalHeader) -> std::io::Result<JournalWriter> {
        let mut file = FramedWriter::create(path, JOURNAL_FILE)?;
        file.append_value(header)?;
        Ok(JournalWriter { file })
    }

    /// Appends one completed interval as one whole frame (see
    /// [`FramedWriter::append_value`]).
    ///
    /// # Errors
    ///
    /// Any I/O error writing the record.
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        self.file.append_value(record).map(drop)
    }
}

/// Why a journal could not be loaded at all (damaged *tails* are not errors
/// — they degrade to fewer replayable records).
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file header or header record is missing, damaged or from
    /// another format version.
    Malformed(&'static str),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Malformed(what) => write!(f, "malformed journal: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// A journal read back from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The run this journal belongs to.
    pub header: JournalHeader,
    /// Intact records, in completion order, deduplicated by interval index.
    pub records: Vec<JournalRecord>,
    /// Whether a damaged frame cut the load short (crash mid-append or
    /// corruption) — everything after it is dropped and will re-simulate.
    pub lost_tail: bool,
}

/// Loads a journal, tolerating a damaged tail.
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be read, [`JournalError::Malformed`]
/// if the header frame is unusable. Damage *after* the header is not an
/// error: intact records up to that point are returned with
/// [`LoadedJournal::lost_tail`] set.
pub fn load_journal(path: &Path) -> Result<LoadedJournal, JournalError> {
    let bytes = std::fs::read(path)?;
    let mut frames = read_framed(&bytes, JOURNAL_FILE)
        .map_err(|_| JournalError::Malformed("not a journal of this format version"))?;
    let header: JournalHeader = frames
        .next()
        .and_then(|frame| decode_value(frame.ok()?.payload).ok())
        .ok_or(JournalError::Malformed("missing or damaged header record"))?;
    let mut records: Vec<JournalRecord> = Vec::new();
    let mut lost_tail = false;
    for frame in frames {
        let rec = frame
            .ok()
            .and_then(|frame| decode_value::<JournalRecord>(frame.payload).ok())
            .filter(|rec| rec.index < header.intervals);
        let Some(rec) = rec else {
            lost_tail = true;
            break;
        };
        if !records.iter().any(|r| r.index == rec.index) {
            records.push(rec);
        }
    }
    Ok(LoadedJournal {
        header,
        records,
        lost_tail,
    })
}

/// Flips the first payload byte of each journal record at the given
/// positions (0 = first record after the header), returning how many
/// records were hit. Used by the fault-injection harness to manufacture
/// checksum failures deterministically.
///
/// # Errors
///
/// Any I/O error reading or rewriting the file.
pub fn corrupt_journal_records(path: &Path, positions: &[usize]) -> std::io::Result<usize> {
    let mut bytes = std::fs::read(path)?;
    // Frame 0 is the header record.
    let offsets: Vec<usize> = match read_framed(&bytes, JOURNAL_FILE) {
        Ok(frames) => frames
            .map_while(Result::ok)
            .skip(1)
            .map(|f| f.offset)
            .collect(),
        Err(_) => Vec::new(),
    };
    let mut hit = 0;
    for &offset in positions.iter().filter_map(|&pos| offsets.get(pos)) {
        bytes[offset] ^= 0x40;
        hit += 1;
    }
    std::fs::write(path, &bytes)?;
    Ok(hit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SampleSpec {
        SampleSpec {
            total_insts: 240_000,
            intervals: 12,
            detail_warm: 1_000,
            detail_measure: 2_000,
            seed: 2015,
            warm_insts: 4_000,
        }
    }

    fn header() -> JournalHeader {
        JournalHeader::for_run(
            &spec(),
            "indirect_stream",
            "IQ:32",
            &PipelineConfig::limit_study_unlimited(),
        )
    }

    fn record(index: u64) -> JournalRecord {
        JournalRecord {
            index,
            start: index * 20_000,
            weight: 17 + index,
            instructions: 2_000,
            cycles: 3_000 + index,
            snapshot: vec![0xA5; 64],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltp-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn roundtrip_and_dedup() {
        let path = tmp("roundtrip.journal");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        for i in [2u64, 0, 1, 2] {
            w.append(&record(i)).expect("append");
        }
        drop(w);
        let loaded = load_journal(&path).expect("load");
        assert_eq!(loaded.header, header());
        assert!(!loaded.lost_tail);
        // Completion order kept, duplicate index 2 dropped.
        let idxs: Vec<u64> = loaded.records.iter().map(|r| r.index).collect();
        assert_eq!(idxs, vec![2, 0, 1]);
        assert_eq!(loaded.records[0], record(2));
    }

    #[test]
    fn truncated_tail_degrades_to_fewer_records() {
        let path = tmp("truncated.journal");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        for i in 0..4u64 {
            w.append(&record(i)).expect("append");
        }
        drop(w);
        // Chop into the last record, as a crash mid-append would.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
        let loaded = load_journal(&path).expect("load");
        assert!(loaded.lost_tail);
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(loaded.records[2], record(2));
    }

    #[test]
    fn corrupted_record_fails_its_checksum() {
        let path = tmp("corrupt.journal");
        let mut w = JournalWriter::create(&path, &header()).expect("create");
        for i in 0..4u64 {
            w.append(&record(i)).expect("append");
        }
        drop(w);
        let hit = corrupt_journal_records(&path, &[1]).expect("corrupt");
        assert_eq!(hit, 1);
        let loaded = load_journal(&path).expect("load");
        assert!(loaded.lost_tail);
        // Record 0 survives; the damaged frame and everything after drop.
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].index, 0);
    }

    #[test]
    fn header_mismatch_is_detectable_by_caller() {
        let path = tmp("mismatch.journal");
        let w = JournalWriter::create(&path, &header()).expect("create");
        drop(w);
        let loaded = load_journal(&path).expect("load");
        let other = JournalHeader::for_run(
            &spec(),
            "indirect_stream",
            "IQ:32",
            &PipelineConfig::ltp_proposed(),
        );
        // Same label, different configuration: the config checksum differs.
        assert_ne!(loaded.header, other);
        assert_ne!(loaded.header.config_fnv, other.config_fnv);
    }

    #[test]
    fn damaged_header_is_an_error_not_a_panic() {
        let path = tmp("badheader.journal");
        std::fs::write(&path, [0xFFu8; 3]).expect("write");
        assert!(matches!(
            load_journal(&path),
            Err(JournalError::Malformed(
                "not a journal of this format version"
            ))
        ));
        std::fs::write(&path, []).expect("write");
        assert!(matches!(
            load_journal(&path),
            Err(JournalError::Malformed(
                "not a journal of this format version"
            ))
        ));
        // A file header without the header record.
        drop(FramedWriter::create(&path, JOURNAL_FILE).expect("create"));
        assert!(matches!(
            load_journal(&path),
            Err(JournalError::Malformed("missing or damaged header record"))
        ));
        assert!(load_journal(Path::new("/nonexistent/nope.journal")).is_err());
    }

    #[test]
    fn paths_flatten_config_labels() {
        let p = journal_path(Path::new("/tmp/j"), "hash_probe", "IQ:32+LTP");
        assert_eq!(p, Path::new("/tmp/j/hash_probe__IQ_32_LTP.journal"));
    }
}
