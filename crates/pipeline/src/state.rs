//! The shared machine state ("substrate") that every pipeline stage operates
//! on.
//!
//! [`PipelineState`] owns the back-end in two layers:
//!
//! * **Shared substrate** — the structures all hardware threads compete for:
//!   the physical register free lists, the functional units, the memory
//!   hierarchy and the cycle counter.
//! * **Per-thread state** ([`ThreadState`]) — everything keyed by a
//!   thread-private sequence-number space or architectural state: ROB, IQ,
//!   RAT, LQ/SQ, LTP unit, memory-dependence predictor, in-flight metadata
//!   and the per-thread counters.
//!
//! A single-threaded machine has exactly one [`ThreadState`] and behaves
//! bit-for-bit like the pre-SMT pipeline. Under SMT
//! ([`crate::SmtConfig::is_smt`]) the stages run once per thread per cycle
//! with `active` pointing at the thread being driven, and every capacity
//! check goes through the `*_has_space` helpers here, which enforce the
//! configured [`crate::SharePolicy`]:
//!
//! * `StaticPartition` — per-thread structures are built at `size / threads`
//!   and the thread-local check is the whole story;
//! * `Shared` / `Icount` — per-thread structures are built at full size and
//!   the helpers additionally bound the *combined* occupancy, so capacity one
//!   thread does not use (e.g. because LTP parked its non-critical
//!   instructions) is genuinely available to the co-runner.
//!
//! The per-stage *logic* lives in the [`crate::stages`] modules; stages read
//! and write this state and exchange per-cycle signals through the
//! [`crate::StageBus`]. Helper predicates shared by more than one stage
//! (register allocation, the §5.4 release-reserve checks) are methods here so
//! the stages stay small.

use crate::config::{PipelineConfig, SharePolicy};
use crate::free_list::FreeList;
use crate::iq::{IqEntry, IssueQueue};
use crate::lsq::{LoadQueue, MemDepPredictor, StoreQueue};
use crate::rat::{Rat, RegSource};
use crate::result::{ActivityCounters, OccupancyReport};
use crate::rob::{Rob, RobEntry};
use crate::FuPool;
use inlinevec::InlineVec;
use ltp_core::LtpUnit;
use ltp_isa::{DynInst, PhysReg, RegClass, SeqMap, SeqNum, ThreadId};
use ltp_mem::{Cycle, MemoryHierarchy};

/// Offset separating floating point physical register indices from integer
/// ones, so both free lists can share the dense [`PhysReg`] namespace.
pub(crate) const FP_PHYS_OFFSET: u32 = 1 << 20;

/// Maps a [`PhysReg`] to a dense index: integer registers occupy the even
/// slots, floating point registers (offset by [`FP_PHYS_OFFSET`] in the
/// shared namespace) the odd ones.
pub(crate) fn dense_reg(reg: PhysReg) -> usize {
    let idx = reg.index();
    let fp_offset = FP_PHYS_OFFSET as usize;
    if idx >= fp_offset {
        ((idx - fp_offset) << 1) | 1
    } else {
        idx << 1
    }
}

/// A set of physical registers, one flag per [`dense_reg`] index. Register
/// numbers come from the free lists, never from a trace, and stay below the
/// register-file sizes, so the flags stay few.
#[derive(Debug, Clone)]
pub(crate) struct RegSet {
    flags: Vec<bool>,
}

impl RegSet {
    /// An empty set with room for `per_class` registers of each class
    /// (at least 1024), so the steady-state loop never grows it.
    pub(crate) fn with_room(per_class: usize) -> RegSet {
        RegSet {
            flags: vec![false; 2 * per_class.clamp(1024, 4096)],
        }
    }

    pub(crate) fn contains(&self, reg: PhysReg) -> bool {
        self.flags.get(dense_reg(reg)) == Some(&true)
    }

    pub(crate) fn insert(&mut self, reg: PhysReg) {
        let d = dense_reg(reg);
        if self.flags.len() <= d {
            self.flags.resize(d + 1, false);
        }
        self.flags[d] = true;
    }

    pub(crate) fn remove(&mut self, reg: PhysReg) {
        if let Some(flag) = self.flags.get_mut(dense_reg(reg)) {
            *flag = false;
        }
    }
}

/// The byte layout of a `HashSet<PhysReg>` (the registers in ascending
/// order), so snapshot bytes do not depend on the set's representation.
impl ltp_snapshot::Codec for RegSet {
    fn write(&self, w: &mut ltp_snapshot::Writer) {
        let mut regs: Vec<PhysReg> = (self.flags.iter().enumerate())
            .filter(|&(_, &set)| set)
            .map(|(d, _)| {
                let class_index = (d >> 1) as u32;
                PhysReg::new(class_index + if d & 1 == 1 { FP_PHYS_OFFSET } else { 0 })
            })
            .collect();
        regs.sort_unstable();
        regs.write(w);
    }
    fn read(r: &mut ltp_snapshot::Reader<'_>) -> Result<Self, ltp_snapshot::SnapError> {
        let mut set = RegSet::with_room(0);
        for reg in Vec::<PhysReg>::read(r)? {
            // Each class numbers its registers below the offset, which
            // bounds what a damaged snapshot can make this set allocate.
            if reg.index() >= 2 * FP_PHYS_OFFSET as usize {
                return Err(ltp_snapshot::SnapError::Invalid(
                    "physical register out of range",
                ));
            }
            set.insert(reg);
        }
        Ok(set)
    }
}

/// Per-instruction in-flight metadata not stored in the ROB.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) inst: DynInst,
    /// Source operands resolved at rename time: physical registers...
    pub(crate) src_phys: InlineVec<PhysReg, 4>,
    /// ... and producers that were parked at rename time (waited on by
    /// sequence number).
    pub(crate) src_seqs: InlineVec<SeqNum, 2>,
}

/// The architectural and windowing state of one hardware thread.
///
/// Sequence numbers are dense *per thread*, so every structure indexed by
/// [`SeqNum`] lives here rather than in the shared substrate.
#[derive(Debug, Clone)]
pub(crate) struct ThreadState {
    pub(crate) tid: ThreadId,
    pub(crate) ltp: LtpUnit,
    pub(crate) rob: Rob,
    pub(crate) iq: IssueQueue,
    pub(crate) rat: Rat,
    pub(crate) lq: LoadQueue,
    pub(crate) sq: StoreQueue,
    pub(crate) memdep: MemDepPredictor,
    /// Renamed instructions not yet committed, by sequence number.
    pub(crate) inflight: SeqMap<InFlight>,
    /// Physical registers whose values have been produced.
    pub(crate) completed_regs: RegSet,
    /// Registers of released parked writers whose architectural register a
    /// younger writer had renamed meanwhile, freed when that writer commits.
    pub(crate) released_parked_regs: SeqMap<PhysReg>,
    pub(crate) committed: u64,
    pub(crate) loads_committed: u64,
    pub(crate) stores_committed: u64,
    pub(crate) llc_miss_loads: u64,
    pub(crate) last_commit_cycle: Cycle,
    pub(crate) occupancy: OccupancyReport,
    pub(crate) activity: ActivityCounters,
    /// Physical registers this thread has allocated from the shared free
    /// lists (per class). Equals the free-list `allocated()` on a
    /// single-threaded machine; under SMT it is the thread's share.
    pub(crate) int_regs_used: usize,
    pub(crate) fp_regs_used: usize,
    /// Per-thread register quotas (static partitioning only; `usize::MAX`
    /// otherwise). Grows as this thread recycles initial architectural
    /// mappings, mirroring `FreeList::add_capacity`.
    pub(crate) int_quota: usize,
    pub(crate) fp_quota: usize,
}

/// All machine state shared between the pipeline stages.
///
/// The *active* thread's state sits behind one stable pointer (`thread`), so
/// the hot loop pays a single well-predicted indirection instead of a
/// `Vec[index]` bounds check on every access, and
/// [`PipelineState::activate`] switches threads by swapping two `Box`
/// pointers — the SMT cycle loop can interleave threads stage-by-stage
/// (the faithful model of concurrent SMT stages) without copying state.
#[derive(Debug)]
pub(crate) struct PipelineState {
    pub(crate) cfg: PipelineConfig,
    pub(crate) now: Cycle,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) fu: FuPool,
    pub(crate) int_free: FreeList,
    pub(crate) fp_free: FreeList,
    /// Reused by the issue stage for the per-cycle selection, so the hot
    /// loop never allocates.
    pub(crate) issue_scratch: Vec<IqEntry>,
    /// The thread the stages are currently driving.
    pub(crate) thread: Box<ThreadState>,
    /// The other hardware threads (empty when SMT is off). Boxed on purpose:
    /// [`PipelineState::activate`] swaps one of these with `thread`, and the
    /// matching `Box`es make that an 8-byte pointer swap instead of copying
    /// the whole `ThreadState`.
    #[allow(clippy::vec_box)]
    pub(crate) parked_threads: Vec<Box<ThreadState>>,
    /// Thread id of `thread`.
    pub(crate) active: usize,
}

impl PipelineState {
    // --- thread accessors ---------------------------------------------------

    /// The thread currently being driven.
    #[inline]
    pub(crate) fn t(&self) -> &ThreadState {
        &self.thread
    }

    /// Mutable view of the thread currently being driven.
    #[inline]
    pub(crate) fn tm(&mut self) -> &mut ThreadState {
        &mut self.thread
    }

    /// Whether more than one hardware thread is configured.
    #[inline]
    pub(crate) fn is_smt(&self) -> bool {
        !self.parked_threads.is_empty()
    }

    /// Number of hardware threads.
    pub(crate) fn nthreads(&self) -> usize {
        1 + self.parked_threads.len()
    }

    /// Makes thread `tid` the active one, swapping its state inline. A no-op
    /// when it already is (always, on a single-threaded machine).
    pub(crate) fn activate(&mut self, tid: usize) {
        if self.active == tid {
            return;
        }
        let slot = self
            .parked_threads
            .iter()
            .position(|t| t.tid.index() == tid)
            .expect("activating an unknown hardware thread");
        std::mem::swap(&mut self.thread, &mut self.parked_threads[slot]);
        self.active = tid;
    }

    /// Mutable state of thread `tid`, active or not.
    pub(crate) fn thread_mut(&mut self, tid: usize) -> &mut ThreadState {
        if self.active == tid {
            &mut self.thread
        } else {
            self.parked_threads
                .iter_mut()
                .find(|t| t.tid.index() == tid)
                .expect("unknown hardware thread")
        }
    }

    /// The state of thread `tid`, active or not.
    pub(crate) fn thread_ref(&self, tid: usize) -> &ThreadState {
        if self.active == tid {
            &self.thread
        } else {
            self.parked_threads
                .iter()
                .find(|t| t.tid.index() == tid)
                .expect("unknown hardware thread")
        }
    }

    /// All hardware threads, active first (order is unspecified beyond that).
    pub(crate) fn all_threads(&self) -> impl Iterator<Item = &ThreadState> {
        std::iter::once(&*self.thread).chain(self.parked_threads.iter().map(|t| &**t))
    }

    /// Split borrow used by the issue stage: the active thread's IQ plus the
    /// shared functional unit pool.
    pub(crate) fn iq_and_fu(&mut self) -> (&mut IssueQueue, &mut FuPool) {
        (&mut self.thread.iq, &mut self.fu)
    }

    // --- shared-capacity policy ---------------------------------------------

    /// Whether a combined occupancy of `total + reserve` stays within a
    /// shared structure of `limit` entries. Static partitioning delegates
    /// entirely to the per-thread capacities.
    fn shared_within(&self, total: usize, reserve: usize, limit: usize) -> bool {
        match self.cfg.smt.policy {
            SharePolicy::StaticPartition => true,
            SharePolicy::Shared | SharePolicy::Icount => {
                limit == usize::MAX || total + reserve < limit
            }
        }
    }

    fn rob_total(&self) -> usize {
        self.all_threads().map(|t| t.rob.len()).sum()
    }

    pub(crate) fn iq_total(&self) -> usize {
        self.all_threads().map(|t| t.iq.len()).sum()
    }

    fn lq_total(&self) -> usize {
        self.all_threads().map(|t| t.lq.len()).sum()
    }

    fn sq_total(&self) -> usize {
        self.all_threads().map(|t| t.sq.len()).sum()
    }

    /// Whether the active thread may allocate another ROB entry.
    pub(crate) fn rob_has_space(&self) -> bool {
        let local = self.t().rob.has_space();
        if !self.is_smt() {
            return local;
        }
        local && self.shared_within(self.rob_total(), 0, self.cfg.rob_size)
    }

    /// Whether the active thread may dispatch another IQ entry.
    pub(crate) fn iq_has_space(&self) -> bool {
        let local = self.t().iq.has_space();
        if !self.is_smt() {
            return local;
        }
        local && self.shared_within(self.iq_total(), 0, self.cfg.iq_size)
    }

    /// Whether the active thread may allocate another LQ entry.
    pub(crate) fn lq_has_space(&self) -> bool {
        let local = self.t().lq.has_space();
        if !self.is_smt() {
            return local;
        }
        local && self.shared_within(self.lq_total(), 0, self.cfg.lq_size)
    }

    /// Whether the active thread may allocate another SQ entry.
    pub(crate) fn sq_has_space(&self) -> bool {
        let local = self.t().sq.has_space();
        if !self.is_smt() {
            return local;
        }
        local && self.shared_within(self.sq_total(), 0, self.cfg.sq_size)
    }

    /// LQ space check that keeps `reserve` entries back for LTP releases.
    pub(crate) fn lq_has_space_beyond_reserve(&self, reserve: usize) -> bool {
        let local = self.t().lq.has_space_beyond_reserve(reserve);
        if !self.is_smt() {
            return local;
        }
        local && self.shared_within(self.lq_total(), reserve, self.cfg.lq_size)
    }

    /// SQ space check that keeps `reserve` entries back for LTP releases.
    pub(crate) fn sq_has_space_beyond_reserve(&self, reserve: usize) -> bool {
        let local = self.t().sq.has_space_beyond_reserve(reserve);
        if !self.is_smt() {
            return local;
        }
        local && self.shared_within(self.sq_total(), reserve, self.cfg.sq_size)
    }

    /// Whether the §5.4 reserved IQ bypass slot can accept a forced release
    /// for the active thread.
    pub(crate) fn iq_bypass_has_room(&self) -> bool {
        let cap = self.t().iq.capacity();
        let local =
            cap == usize::MAX || self.t().iq.len() < cap.saturating_add(self.cfg.ltp_reserve);
        if !self.is_smt() {
            return local;
        }
        local
            && self.shared_within(
                self.iq_total(),
                0,
                self.cfg.iq_size.saturating_add(self.cfg.ltp_reserve),
            )
    }

    // --- register helpers ---------------------------------------------------

    /// Registers of `class` the active thread can still obtain: the shared
    /// free list bounded by the thread's static-partition quota (unlimited
    /// quota outside static partitioning).
    pub(crate) fn regs_available(&self, class: RegClass) -> usize {
        let t = self.t();
        let (free, quota, used) = match class {
            RegClass::Int => (self.int_free.available(), t.int_quota, t.int_regs_used),
            RegClass::Fp => (self.fp_free.available(), t.fp_quota, t.fp_regs_used),
        };
        if quota == usize::MAX {
            free
        } else {
            free.min(quota.saturating_sub(used))
        }
    }

    pub(crate) fn alloc_dest(&mut self, class: RegClass) -> Option<PhysReg> {
        let (quota, used) = match class {
            RegClass::Int => (self.thread.int_quota, self.thread.int_regs_used),
            RegClass::Fp => (self.thread.fp_quota, self.thread.fp_regs_used),
        };
        if quota != usize::MAX && used >= quota {
            return None;
        }
        let reg = match class {
            RegClass::Int => self.int_free.allocate(),
            RegClass::Fp => self
                .fp_free
                .allocate()
                .map(|p| PhysReg::new(p.index() as u32 + FP_PHYS_OFFSET)),
        };
        if reg.is_some() {
            match class {
                RegClass::Int => self.thread.int_regs_used += 1,
                RegClass::Fp => self.thread.fp_regs_used += 1,
            }
        }
        reg
    }

    pub(crate) fn can_alloc_beyond_reserve(&self, class: RegClass, reserve: usize) -> bool {
        let within_quota = {
            let t = self.t();
            let (quota, used) = match class {
                RegClass::Int => (t.int_quota, t.int_regs_used),
                RegClass::Fp => (t.fp_quota, t.fp_regs_used),
            };
            quota == usize::MAX || used + reserve < quota
        };
        within_quota
            && match class {
                RegClass::Int => self.int_free.can_allocate_beyond_reserve(reserve),
                RegClass::Fp => self.fp_free.can_allocate_beyond_reserve(reserve),
            }
    }

    pub(crate) fn free_dest(&mut self, reg: PhysReg) {
        self.tm().completed_regs.remove(reg);
        if (reg.index() as u32) >= FP_PHYS_OFFSET {
            self.fp_free
                .free(PhysReg::new(reg.index() as u32 - FP_PHYS_OFFSET));
            self.tm().fp_regs_used -= 1;
        } else {
            self.int_free.free(reg);
            self.tm().int_regs_used -= 1;
        }
    }

    /// Recycles the physical register that held an architectural register's
    /// initial value into the shared pool (footnote 4 of the paper), growing
    /// the active thread's quota alongside under static partitioning.
    pub(crate) fn recycle_arch_reg(&mut self, class: RegClass) {
        match class {
            RegClass::Int => {
                self.int_free.add_capacity(1);
                let t = self.tm();
                if t.int_quota != usize::MAX {
                    t.int_quota += 1;
                }
            }
            RegClass::Fp => {
                self.fp_free.add_capacity(1);
                let t = self.tm();
                if t.fp_quota != usize::MAX {
                    t.fp_quota += 1;
                }
            }
        }
    }

    pub(crate) fn is_seq_done(&self, seq: SeqNum) -> bool {
        self.t()
            .rob
            .get(seq)
            .map(|e| e.is_completed())
            .unwrap_or(true)
    }

    pub(crate) fn resolve_sources(
        &self,
        inst: &DynInst,
    ) -> (InlineVec<PhysReg, 4>, InlineVec<SeqNum, 2>) {
        let mut phys = InlineVec::new();
        let mut seqs = InlineVec::new();
        let t = self.t();
        for src in inst.static_inst().dataflow_srcs() {
            match t.rat.source(src) {
                RegSource::Ready => {}
                RegSource::Phys(p) => {
                    if !t.completed_regs.contains(p) {
                        phys.push(p);
                    }
                }
                RegSource::Parked(s) => {
                    if !self.is_seq_done(s) {
                        seqs.push(s);
                    }
                }
            }
        }
        (phys, seqs)
    }

    // --- release-reserve predicates (§5.4) ----------------------------------

    /// Whether `entry` is the oldest instruction of the active thread (its
    /// ROB head). The last free register of a class is reserved for the head
    /// so that younger releases can never starve it (§5.4's "we always pick
    /// the oldest instruction").
    pub(crate) fn is_rob_head(&self, entry: &RobEntry) -> bool {
        self.t().rob.head().map(|h| h.seq) == Some(entry.seq)
    }

    /// Register-availability check for placing a released instruction: a
    /// non-head release must leave at least one register of the class free
    /// for the (current or future) ROB head.
    pub(crate) fn release_reg_available(&self, entry: &RobEntry) -> bool {
        let Some(dst) = entry.dst else { return true };
        let available = self.regs_available(dst.class());
        if self.is_rob_head(entry) {
            available > 0
        } else {
            available > 1
        }
    }

    /// Whether a *forced* release (deadlock-avoidance path) can be placed:
    /// it only needs a destination register (drawn from the §5.4 reserve) and,
    /// when LQ/SQ allocation is delayed, a memory-queue entry; the IQ is
    /// bypassed through the reserved slot.
    pub(crate) fn can_force_release(&self, entry: &RobEntry) -> bool {
        if !self.release_reg_available(entry) {
            return false;
        }
        self.release_lsq_available(entry)
    }

    /// LQ/SQ-availability check for releases when allocation is delayed: the
    /// last entry of each queue is reserved for the ROB head.
    pub(crate) fn release_lsq_available(&self, entry: &RobEntry) -> bool {
        if !self.cfg.delay_lsq_alloc {
            return true;
        }
        let head = self.is_rob_head(entry);
        if entry.op.is_load() && !entry.holds_lq {
            let ok = if head {
                self.lq_has_space()
            } else {
                self.lq_has_space_beyond_reserve(1)
            };
            if !ok {
                return false;
            }
        }
        if entry.op.is_store() && !entry.holds_sq {
            let ok = if head {
                self.sq_has_space()
            } else {
                self.sq_has_space_beyond_reserve(1)
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Whether the resources needed to place a released parked instruction
    /// are available right now.
    pub(crate) fn can_place_released(&self, entry: &RobEntry) -> bool {
        if !self.iq_has_space() {
            return false;
        }
        // Releases may dip into the register reserve (that is what it is
        // for), but only the ROB head may take the very last register (and,
        // with delayed LQ/SQ allocation, the last memory-queue entry).
        if !self.release_reg_available(entry) {
            return false;
        }
        self.release_lsq_available(entry)
    }

    // --- per-cycle sampling -------------------------------------------------

    /// Samples the active thread's occupancy trackers. `outstanding` is the
    /// shared hierarchy's outstanding-miss count, computed once per cycle by
    /// the caller so an SMT cycle does not query the MSHRs per thread.
    pub(crate) fn sample_occupancy(&mut self, outstanding: u64) {
        let t = self.tm();
        t.sample_structures(1);
        t.occupancy.outstanding_misses.sample_cycle(outstanding);
    }

    /// Moves `now` to `to`, charging the cycles `now..to` to every thread's
    /// occupancy trackers as the cycle loop would have sampled them. The
    /// caller guarantees those cycles repeat the quiet cycle `now - 1`, so
    /// every structure holds still and only the outstanding-miss count
    /// moves: it drops by one at each MSHR completion inside the span.
    ///
    /// The one other value a quiet cycle can write is the LTP queue's port
    /// stamp: a release attempt that finds nothing to release stamps the
    /// cycle. The skipped cycles would restamp it, and so does the next
    /// cycle that runs on a single-thread machine (the only kind a
    /// checkpoint captures): its release stage sees the same parked head
    /// and at least the free resources the quiet one saw, so it tries
    /// again. A checkpoint therefore never sees the difference.
    pub(crate) fn idle_until(&mut self, to: Cycle) {
        let from = self.now;
        let PipelineState {
            mem,
            thread,
            parked_threads,
            ..
        } = self;
        for t in std::iter::once(thread).chain(parked_threads.iter_mut()) {
            t.sample_structures(to - from);
            let tracker = &mut t.occupancy.outstanding_misses;
            let (mut at, mut count) = (from, mem.outstanding_misses(from) as u64);
            for done in mem.miss_completions_after(from).take_while(|&c| c < to) {
                tracker.sample(done - at, count);
                (at, count) = (done, count - 1);
            }
            tracker.sample(to - at, count);
        }
        self.now = to;
    }
}

impl ThreadState {
    /// Charges `cycles` cycles of the current structure occupancies (all but
    /// the shared outstanding-miss count) to the trackers.
    fn sample_structures(&mut self, cycles: u64) {
        let occ = &mut self.occupancy;
        occ.iq.sample(cycles, self.iq.len() as u64);
        occ.rob.sample(cycles, self.rob.len() as u64);
        occ.lq.sample(cycles, self.lq.len() as u64);
        occ.sq.sample(cycles, self.sq.len() as u64);
        occ.regs
            .sample(cycles, (self.int_regs_used + self.fp_regs_used) as u64);
        occ.ltp.sample(cycles, self.ltp.occupancy() as u64);
        occ.ltp_regs
            .sample(cycles, self.ltp.parked_writers() as u64);
        occ.ltp_loads.sample(cycles, self.ltp.parked_loads() as u64);
        occ.ltp_stores
            .sample(cycles, self.ltp.parked_stores() as u64);
    }
}
