//! Machine checkpoints: capture, serialize, restore, resume.
//!
//! A [`Snapshot`] is the complete architectural **and** microarchitectural
//! state of a single-threaded machine on a cycle boundary: configuration,
//! cycle counter, memory hierarchy (caches, MSHRs, DRAM banks, prefetcher),
//! functional units, free lists, the thread state (ROB, IQ, RAT, LQ/SQ, LTP
//! unit with tickets and learned classifier state, memory-dependence
//! predictor, in-flight metadata, statistics), the stage-bus timing wheels,
//! the rename skid buffer and the front-end state (pipe, branch predictor,
//! stream position).
//!
//! Restoring a snapshot and finishing the run is **bit-for-bit** equivalent
//! to never having stopped — `tests/snapshot.rs` pins this against the
//! golden fingerprints. Snapshots serialize through the versioned binary
//! codec of `ltp-snapshot` ([`Snapshot::to_bytes`] /
//! [`Snapshot::from_bytes`]), which is what the sampled-simulation runner
//! ships between the fast-forward pass and its worker threads.
//!
//! The stream itself is *not* stored: a snapshot records how many
//! instructions were consumed, and the restored [`Processor`]'s next run
//! skips that many instructions of the caller-provided trace. Checkpoints therefore stay
//! small — ~200 kB for a warm machine, dominated by cache tags — regardless
//! of trace length.

use crate::config::{FuCounts, PipelineConfig, SharePolicy, SmtConfig};
use crate::free_list::FreeList;
use crate::frontend::FrontEndState;
use crate::fu::{FuPool, UnitPool};
use crate::iq::{IssueQueue, Slot};
use crate::lsq::{LoadQueue, MemDepPredictor, StoreEntry, StoreQueue};
use crate::rat::{Rat, RegSource};
use crate::result::{ActivityCounters, OccupancyReport};
use crate::rob::{Rob, RobEntry, RobState};
use crate::stages::rename::PendingDispatch;
use crate::stages::StageBus;
use crate::state::{InFlight, ThreadState};
use crate::Processor;
use ltp_isa::{PhysReg, SeqNum};
use ltp_mem::{Cycle, MemoryHierarchy};
use ltp_snapshot::{impl_codec, Codec, Reader, SnapError, Writer};
use std::cmp::Reverse;

// --- codec implementations for the remaining pipeline state -----------------

ltp_snapshot::impl_codec_enum!(SharePolicy {
    SharePolicy::StaticPartition = 0,
    SharePolicy::Shared = 1,
    SharePolicy::Icount = 2,
});
impl_codec!(SmtConfig { threads, policy });
impl_codec!(FuCounts {
    int_alu,
    int_muldiv,
    fp_alu,
    fp_divsqrt,
    mem,
    branch,
});
impl_codec!(PipelineConfig {
    front_width,
    issue_width,
    commit_width,
    rob_size,
    iq_size,
    lq_size,
    sq_size,
    int_regs,
    fp_regs,
    ltp_reserve,
    frontend_delay,
    mispredict_penalty,
    fu,
    delay_lsq_alloc,
    mem,
    ltp,
    warmup_insts,
    smt,
});

impl_codec!(crate::branch::PredictorGeometry {
    table_entries,
    history_bits,
});

impl Codec for crate::config::ClassifierTraining {
    fn write(&self, w: &mut Writer) {
        match self {
            crate::config::ClassifierTraining::Inert => w.byte(0),
            crate::config::ClassifierTraining::Trained { uit_entries } => {
                w.byte(1);
                uit_entries.write(w);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.byte()? {
            0 => Ok(crate::config::ClassifierTraining::Inert),
            1 => Ok(crate::config::ClassifierTraining::Trained {
                uit_entries: usize::read(r)?,
            }),
            t => Err(SnapError::BadTag(u32::from(t))),
        }
    }
}

impl_codec!(crate::config::WarmupConfig {
    mem,
    predictor,
    training,
});

impl crate::config::WarmupConfig {
    /// FNV-1a fingerprint of the canonical encoding of this warm half —
    /// the configuration-projection component of checkpoint-cache keys.
    /// Equal warm halves (and only those) hash equal, modulo the usual
    /// 64-bit collision caveat.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        ltp_snapshot::fnv1a64(&ltp_snapshot::encode_value(self))
    }
}

impl_codec!(crate::sampling::FunctionalWarmState {
    consumed,
    mem,
    predictor,
    monitor,
    classifier,
});

impl Codec for RegSource {
    fn write(&self, w: &mut Writer) {
        match self {
            RegSource::Ready => w.byte(0),
            RegSource::Phys(p) => {
                w.byte(1);
                p.write(w);
            }
            RegSource::Parked(s) => {
                w.byte(2);
                s.write(w);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.byte()? {
            0 => RegSource::Ready,
            1 => RegSource::Phys(PhysReg::read(r)?),
            2 => RegSource::Parked(SeqNum::read(r)?),
            t => return Err(SnapError::BadTag(u32::from(t))),
        })
    }
}

impl_codec!(Rat { map });

ltp_snapshot::impl_codec_enum!(RobState {
    RobState::Parked = 0,
    RobState::InQueue = 1,
    RobState::Executing = 2,
    RobState::Completed = 3,
});
impl_codec!(RobEntry {
    seq,
    pc,
    op,
    state,
    dst,
    dest_phys,
    prev_mapping,
    long_latency,
    holds_lq,
    holds_sq,
    was_parked,
    completion_cycle,
});
impl_codec!(Rob {
    capacity,
    entries,
    ll_incomplete,
});

impl_codec!(FreeList {
    capacity,
    free,
    next_never_allocated,
    allocated,
    peak_allocated,
    alloc_failures,
});

impl_codec!(Slot {
    seq,
    fu,
    pending,
    active,
});

impl Codec for IssueQueue {
    fn write(&self, w: &mut Writer) {
        self.capacity.write(w);
        self.slots.write(w);
        self.free_slots.write(w);
        self.occupancy.write(w);
        self.phys_waiters.write(w);
        self.seq_waiters.write(w);
        // The ready heap pops strictly in `(seq, slot)` order, so its sorted
        // element list is both canonical and behaviourally exact.
        let mut ready: Vec<(u64, u32)> = self.ready.iter().map(|Reverse(p)| *p).collect();
        ready.sort_unstable();
        ready.write(w);
        self.peak.write(w);
        self.dispatched.write(w);
        self.issued.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(IssueQueue {
            capacity: usize::read(r)?,
            slots: Codec::read(r)?,
            free_slots: Codec::read(r)?,
            occupancy: usize::read(r)?,
            phys_waiters: Codec::read(r)?,
            seq_waiters: Codec::read(r)?,
            ready: Vec::<(u64, u32)>::read(r)?
                .into_iter()
                .map(Reverse)
                .collect(),
            // Scratch: always drained between `select_into` calls.
            skipped: Vec::with_capacity(16),
            peak: usize::read(r)?,
            dispatched: u64::read(r)?,
            issued: u64::read(r)?,
        })
    }
}

impl_codec!(StoreEntry {
    seq,
    line_addr,
    data_ready_cycle,
    was_parked,
});
impl_codec!(StoreQueue {
    capacity,
    entries,
    sorted,
    peak,
});
impl_codec!(LoadQueue {
    capacity,
    entries,
    peak,
});
impl_codec!(MemDepPredictor {
    dependent_loads,
    hits,
});

impl Codec for UnitPool {
    fn write(&self, w: &mut Writer) {
        self.count.write(w);
        self.busy_until.write(w);
        self.pipelined.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(UnitPool {
            // The per-cycle issue counter is reset by `new_cycle` at the top
            // of every cycle, before any stage runs, so it carries no state
            // across a cycle boundary.
            issued_this_cycle: 0,
            count: usize::read(r)?,
            busy_until: Codec::read(r)?,
            pipelined: bool::read(r)?,
        })
    }
}
impl_codec!(FuPool {
    int_alu,
    int_muldiv,
    fp_alu,
    fp_divsqrt,
    mem,
    branch,
});

impl_codec!(crate::branch::BranchPredictor {
    counters,
    mask,
    history,
    history_bits,
    predictions,
    mispredictions,
});

impl_codec!(FrontEndState {
    pipe,
    redirect_until,
    exhausted,
    fetched,
    predictor,
});

impl_codec!(PendingDispatch {
    inst,
    src_phys,
    src_seqs,
    long_latency_hint,
});

impl_codec!(InFlight {
    inst,
    src_phys,
    src_seqs,
});

impl_codec!(OccupancyReport {
    iq,
    rob,
    lq,
    sq,
    regs,
    ltp,
    ltp_regs,
    ltp_loads,
    ltp_stores,
    outstanding_misses,
});
impl_codec!(ActivityCounters {
    iq_writes,
    iq_issues,
    rf_reads,
    rf_writes,
    ltp_writes,
    ltp_reads,
});

impl_codec!(ThreadState {
    tid,
    ltp,
    rob,
    iq,
    rat,
    lq,
    sq,
    memdep,
    inflight,
    completed_regs,
    released_parked_regs,
    committed,
    loads_committed,
    stores_committed,
    llc_miss_loads,
    last_commit_cycle,
    occupancy,
    activity,
    int_regs_used,
    fp_regs_used,
    int_quota,
    fp_quota,
});

// --- the snapshot itself ----------------------------------------------------

/// Why a machine state could not be captured or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Snapshots cover single-threaded machines; SMT co-runs are not
    /// checkpointable (the sampled runner drives single-thread points).
    SmtUnsupported,
    /// The byte stream could not be decoded.
    Decode(SnapError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::SmtUnsupported => {
                write!(f, "snapshots cover single-threaded machines only")
            }
            SnapshotError::Decode(e) => write!(f, "snapshot decode failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapError> for SnapshotError {
    fn from(e: SnapError) -> SnapshotError {
        SnapshotError::Decode(e)
    }
}

/// A complete machine checkpoint (see the module docs).
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) cfg: PipelineConfig,
    pub(crate) now: Cycle,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) fu: FuPool,
    pub(crate) int_free: FreeList,
    pub(crate) fp_free: FreeList,
    pub(crate) thread: ThreadState,
    pub(crate) bus: StageBus,
    pub(crate) pending: Option<PendingDispatch>,
    pub(crate) frontend: FrontEndState,
    /// `(cycle, committed)` at which statistics collection started, when the
    /// pipeline-warmup boundary had already been crossed at capture time.
    pub(crate) stats_from: Option<(Cycle, u64)>,
}

impl Codec for Snapshot {
    fn write(&self, w: &mut Writer) {
        self.cfg.write(w);
        self.now.write(w);
        self.mem.write(w);
        self.fu.write(w);
        self.int_free.write(w);
        self.fp_free.write(w);
        self.thread.write(w);
        self.bus.write(w);
        self.pending.write(w);
        self.frontend.write(w);
        self.stats_from.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Snapshot {
            cfg: PipelineConfig::read(r)?,
            now: Cycle::read(r)?,
            mem: MemoryHierarchy::read(r)?,
            fu: FuPool::read(r)?,
            int_free: FreeList::read(r)?,
            fp_free: FreeList::read(r)?,
            thread: ThreadState::read(r)?,
            bus: StageBus::read(r)?,
            pending: Codec::read(r)?,
            frontend: FrontEndState::read(r)?,
            stats_from: Codec::read(r)?,
        })
    }
}

impl Snapshot {
    /// Captures the machine state of a mid-run processor (single-threaded)
    /// with its front end's state and measured-window start.
    pub(crate) fn capture(
        cpu: &Processor,
        frontend: FrontEndState,
        stats_from: Option<(Cycle, u64)>,
    ) -> Result<Snapshot, SnapshotError> {
        if cpu.state.nthreads() != 1 {
            return Err(SnapshotError::SmtUnsupported);
        }
        Ok(Snapshot {
            cfg: cpu.state.cfg,
            now: cpu.state.now,
            mem: cpu.state.mem.clone(),
            fu: cpu.state.fu.clone(),
            int_free: cpu.state.int_free.clone(),
            fp_free: cpu.state.fp_free.clone(),
            thread: (*cpu.state.thread).clone(),
            bus: cpu.buses[0].clone(),
            pending: cpu.renames[0].pending.clone(),
            frontend,
            stats_from,
        })
    }

    /// The machine configuration the snapshot was captured from.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The cycle at which the snapshot was taken.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        self.now
    }

    /// Instructions committed when the snapshot was taken.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.thread.committed
    }

    /// Instructions consumed from the trace (the stream skip distance a
    /// resume will apply).
    #[must_use]
    pub fn fetched(&self) -> u64 {
        self.frontend.fetched
    }

    /// Serializes the snapshot into a versioned binary envelope.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        ltp_snapshot::encode_envelope(self)
    }

    /// Deserializes a snapshot from [`Snapshot::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] on wrong magic, version drift,
    /// truncation or corrupted state.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        Ok(ltp_snapshot::decode_envelope(bytes)?)
    }

    /// Rebuilds a runnable machine from the snapshot. Its next run
    /// ([`Processor::run`], [`Processor::run_observed`] or
    /// [`Processor::run_measured_from`]) continues the snapshot's front end
    /// and measured window through the same cycle loop as an uninterrupted
    /// run; the caller provides the instruction stream (the same trace the
    /// original run consumed, from position zero), whose consumed prefix is
    /// skipped. A configuration that selects the oracle classifier but was
    /// checkpointed before the oracle was attached (the functional-warm-up
    /// path) needs [`Processor::set_oracle`] first.
    ///
    /// # Panics
    ///
    /// Panics if the embedded configuration is inconsistent (it validated at
    /// capture time, so this indicates snapshot corruption that slipped past
    /// the codec's checks).
    #[must_use]
    pub fn resume(&self) -> Processor {
        let mut cpu = Processor::new(self.cfg);
        cpu.state.now = self.now;
        cpu.state.mem = self.mem.clone();
        cpu.state.fu = self.fu.clone();
        cpu.state.int_free = self.int_free.clone();
        cpu.state.fp_free = self.fp_free.clone();
        *cpu.state.thread = self.thread.clone();
        cpu.buses[0].restore_from(&self.bus);
        cpu.renames[0].pending = self.pending.clone();
        cpu.resumed = Some((self.frontend.clone(), self.stats_from));
        cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_isa::{ArchReg, DynInst, MemAccess, OpClass, Pc, SliceStream, StaticInst};

    fn little_trace(n: u64) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                if i % 5 == 0 {
                    DynInst::new(
                        i,
                        StaticInst::new(Pc(0x400 + (i % 40) * 4), OpClass::Load)
                            .with_dst(ArchReg::int(((i % 7) + 1) as usize))
                            .with_src(ArchReg::int(1)),
                    )
                    .with_mem(MemAccess::qword(0x10_000 + (i * 4999) % 120_000))
                } else {
                    DynInst::new(
                        i,
                        StaticInst::new(Pc(0x400 + (i % 40) * 4), OpClass::IntAlu)
                            .with_dst(ArchReg::int(((i % 7) + 1) as usize))
                            .with_src(ArchReg::int(((i % 5) + 1) as usize)),
                    )
                }
            })
            .collect()
    }

    #[test]
    fn snapshot_bytes_are_canonical_and_resumable() {
        let trace = little_trace(3_000);
        let mut cpu = Processor::new(PipelineConfig::ltp_proposed());
        let snap = cpu
            .run_to_snapshot(SliceStream::new("t", &trace), 1_500)
            .expect("no deadlock");
        assert!(snap.committed() >= 1_500);
        assert!(snap.fetched() >= snap.committed());

        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("decode");
        assert_eq!(decoded.to_bytes(), bytes, "canonical bytes");

        // Uninterrupted reference.
        let mut reference = Processor::new(PipelineConfig::ltp_proposed());
        let full = reference
            .run(SliceStream::new("t", &trace), 3_000)
            .expect("no deadlock");

        let resumed = decoded
            .resume()
            .run(SliceStream::new("t", &trace), 3_000)
            .expect("no deadlock");
        assert_eq!(resumed.cycles, full.cycles);
        assert_eq!(resumed.instructions, full.instructions);
        assert_eq!(resumed.ltp.total_parked(), full.ltp.total_parked());
        assert_eq!(resumed.activity.iq_writes, full.activity.iq_writes);
        assert_eq!(resumed.mem.accesses, full.mem.accesses);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let trace = little_trace(400);
        let mut cpu = Processor::new(PipelineConfig::ltp_proposed());
        let snap = cpu
            .run_to_snapshot(SliceStream::new("t", &trace), 200)
            .expect("no deadlock");
        let mut bytes = snap.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(Snapshot::from_bytes(&bytes).is_err());
        assert!(Snapshot::from_bytes(b"junk").is_err());
    }
}
