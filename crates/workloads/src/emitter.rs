//! Kernel emission helpers.
//!
//! Workload kernels describe one loop iteration at a time through the
//! [`KernelStream`] trait; [`KernelWorkload`] wraps a kernel into an
//! [`InstStream`] usable by the pipeline. The [`Emitter`] assigns stable PCs
//! to the static instructions of an iteration (so the UIT and the hit/miss
//! predictor can learn per-PC behaviour across iterations) and dense sequence
//! numbers to the dynamic instances.

use ltp_isa::{ArchReg, BranchInfo, DynInst, InstStream, MemAccess, OpClass, Pc, StaticInst};
use std::collections::VecDeque;

/// Collects the dynamic instructions of one kernel iteration.
///
/// An emitter can also *discard*: while its skip budget is positive, each
/// emission only advances the PC slot and the sequence number and returns
/// before building anything. The kernel still runs its full iteration
/// logic (address arithmetic, RNG draws), so the generator state after a
/// discarded instruction is exactly what emitting it would have left.
#[derive(Debug)]
pub struct Emitter {
    block_base: u64,
    slot: u64,
    next_seq: u64,
    out: VecDeque<DynInst>,
    /// Emissions still to discard instead of recording.
    skip: u64,
    /// Emissions discarded in the current iteration.
    skipped: u64,
}

impl Emitter {
    fn new(next_seq: u64) -> Emitter {
        Emitter {
            block_base: 0,
            slot: 0,
            next_seq,
            out: VecDeque::new(),
            skip: 0,
            skipped: 0,
        }
    }

    /// Resets the per-iteration state before the kernel emits its next
    /// iteration (the output buffer keeps its capacity).
    fn begin_iteration(&mut self) {
        self.block_base = 0;
        self.slot = 0;
        self.skipped = 0;
    }

    /// Starts a new static basic block at PC `base`; subsequent emissions get
    /// consecutive PCs within the block. The same base must be used for the
    /// same kernel loop every iteration so that static PCs are stable.
    pub fn begin_block(&mut self, base: u64) {
        self.block_base = base;
        self.slot = 0;
    }

    fn next_pc(&mut self) -> Pc {
        let pc = Pc(self.block_base + 4 * self.slot);
        self.slot += 1;
        pc
    }

    /// Consumes one unit of the skip budget, if any: the emission is then
    /// accounted for (PC slot, sequence number) but not built.
    #[inline]
    fn discard(&mut self) -> bool {
        if self.skip == 0 {
            return false;
        }
        self.skip -= 1;
        self.skipped += 1;
        self.slot += 1;
        self.next_seq += 1;
        true
    }

    fn push(&mut self, inst: DynInst) {
        self.out.push_back(inst);
        self.next_seq += 1;
    }

    /// Emits a simple integer ALU operation `dst = f(srcs)`.
    pub fn alu(&mut self, dst: ArchReg, srcs: &[ArchReg]) {
        if self.discard() {
            return;
        }
        let mut s = StaticInst::new(self.next_pc(), OpClass::IntAlu).with_dst(dst);
        for &r in srcs {
            s = s.with_src(r);
        }
        self.push(DynInst::new(self.next_seq, s));
    }

    /// Emits a floating point operation of the given class.
    pub fn fp(&mut self, op: OpClass, dst: ArchReg, srcs: &[ArchReg]) {
        assert!(op.is_fp(), "fp() requires a floating point op class");
        if self.discard() {
            return;
        }
        let mut s = StaticInst::new(self.next_pc(), op).with_dst(dst);
        for &r in srcs {
            s = s.with_src(r);
        }
        self.push(DynInst::new(self.next_seq, s));
    }

    /// Emits an integer divide (long-latency arithmetic).
    pub fn div(&mut self, dst: ArchReg, srcs: &[ArchReg]) {
        if self.discard() {
            return;
        }
        let mut s = StaticInst::new(self.next_pc(), OpClass::IntDiv).with_dst(dst);
        for &r in srcs {
            s = s.with_src(r);
        }
        self.push(DynInst::new(self.next_seq, s));
    }

    /// Emits a load of `addr` into `dst`, with `addr_reg` as the address
    /// source operand.
    pub fn load(&mut self, dst: ArchReg, addr_reg: ArchReg, addr: u64) {
        if self.discard() {
            return;
        }
        let s = StaticInst::new(self.next_pc(), OpClass::Load)
            .with_dst(dst)
            .with_src(addr_reg);
        self.push(DynInst::new(self.next_seq, s).with_mem(MemAccess::qword(addr)));
    }

    /// Emits a store of `data_reg` to `addr`, with `addr_reg` as the address
    /// source operand.
    pub fn store(&mut self, data_reg: ArchReg, addr_reg: ArchReg, addr: u64) {
        if self.discard() {
            return;
        }
        let s = StaticInst::new(self.next_pc(), OpClass::Store)
            .with_src(data_reg)
            .with_src(addr_reg);
        self.push(DynInst::new(self.next_seq, s).with_mem(MemAccess::qword(addr)));
    }

    /// Emits a conditional branch reading `cond_reg` with the given outcome.
    pub fn branch(&mut self, cond_reg: ArchReg, taken: bool, target: u64) {
        if self.discard() {
            return;
        }
        let s = StaticInst::new(self.next_pc(), OpClass::Branch).with_src(cond_reg);
        self.push(DynInst::new(self.next_seq, s).with_branch(BranchInfo {
            taken,
            target: Pc(target),
        }));
    }

    /// Number of instructions emitted so far in this iteration (discarded
    /// ones included).
    #[must_use]
    pub fn emitted(&self) -> usize {
        self.out.len() + self.skipped as usize
    }
}

/// A kernel that emits one loop iteration at a time.
pub trait KernelStream {
    /// Short name of the kernel (used as the workload name in reports).
    fn name(&self) -> &str;

    /// Emits the next iteration of the kernel into `emitter`. Returning
    /// without emitting anything terminates the stream.
    fn emit_iteration(&mut self, emitter: &mut Emitter);
}

/// Adapts a [`KernelStream`] into an [`InstStream`].
///
/// One emitter (and its iteration buffer) lives as long as the stream, so
/// steady-state generation allocates nothing. [`InstStream::skip_insts`]
/// runs the kernel with the emitter discarding: whole iterations cost only
/// the kernel's own logic, and an iteration the target falls inside emits
/// its remaining instructions for real.
#[derive(Debug)]
pub struct KernelWorkload<K> {
    kernel: K,
    emitter: Emitter,
    finished: bool,
}

impl<K: KernelStream> KernelWorkload<K> {
    /// Wraps `kernel` into an instruction stream.
    #[must_use]
    pub fn new(kernel: K) -> KernelWorkload<K> {
        KernelWorkload {
            kernel,
            emitter: Emitter::new(0),
            finished: false,
        }
    }

    /// Runs one kernel iteration into the emitter (discarding while the
    /// skip budget lasts); an iteration that emits nothing ends the stream.
    fn iterate(&mut self) {
        self.emitter.begin_iteration();
        self.kernel.emit_iteration(&mut self.emitter);
        if self.emitter.emitted() == 0 {
            self.finished = true;
        }
    }
}

impl<K: KernelStream> InstStream for KernelWorkload<K> {
    fn next_inst(&mut self) -> Option<DynInst> {
        if self.emitter.out.is_empty() && !self.finished {
            self.iterate();
        }
        self.emitter.out.pop_front()
    }

    fn name(&self) -> &str {
        self.kernel.name()
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        let buffered = n.min(self.emitter.out.len() as u64);
        self.emitter.out.drain(..buffered as usize);
        self.emitter.skip = n - buffered;
        while self.emitter.skip > 0 && !self.finished {
            self.iterate();
        }
        let unskipped = std::mem::take(&mut self.emitter.skip);
        n - unskipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoIterations {
        remaining: usize,
    }

    impl KernelStream for TwoIterations {
        fn name(&self) -> &str {
            "two-iterations"
        }

        fn emit_iteration(&mut self, emitter: &mut Emitter) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            emitter.begin_block(0x1000);
            emitter.alu(ArchReg::int(1), &[ArchReg::int(2)]);
            emitter.load(ArchReg::int(3), ArchReg::int(1), 0x8000);
            emitter.store(ArchReg::int(3), ArchReg::int(1), 0x9000);
            emitter.branch(ArchReg::int(3), true, 0x1000);
        }
    }

    #[test]
    fn sequence_numbers_are_dense_across_iterations() {
        let mut w = KernelWorkload::new(TwoIterations { remaining: 2 });
        let insts = (0..8).map(|_| w.next_inst().unwrap()).collect::<Vec<_>>();
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(inst.seq().0, i as u64);
        }
        assert!(w.next_inst().is_none());
        assert_eq!(w.name(), "two-iterations");
    }

    #[test]
    fn pcs_are_stable_across_iterations() {
        let mut w = KernelWorkload::new(TwoIterations { remaining: 2 });
        let insts = (0..8).map(|_| w.next_inst().unwrap()).collect::<Vec<_>>();
        for k in 0..4 {
            assert_eq!(insts[k].pc(), insts[k + 4].pc());
        }
        assert_eq!(insts[0].pc(), Pc(0x1000));
        assert_eq!(insts[1].pc(), Pc(0x1004));
    }

    #[test]
    fn memory_and_branch_metadata_attached() {
        let mut w = KernelWorkload::new(TwoIterations { remaining: 1 });
        let insts = (0..4).map(|_| w.next_inst().unwrap()).collect::<Vec<_>>();
        assert_eq!(insts[1].mem_access().unwrap().addr(), 0x8000);
        assert_eq!(insts[2].mem_access().unwrap().addr(), 0x9000);
        assert!(insts[3].branch_info().unwrap().taken);
    }

    #[test]
    fn skips_land_mid_iteration_and_stop_at_the_end() {
        let mut w = KernelWorkload::new(TwoIterations { remaining: 2 });
        assert_eq!(w.skip_insts(1), 1);
        assert_eq!(w.next_inst().unwrap().seq().0, 1);
        // Two buffered instructions, then one discarded from the next
        // iteration, whose tail is emitted for real with its own PCs.
        assert_eq!(w.skip_insts(3), 3);
        let inst = w.next_inst().unwrap();
        assert_eq!((inst.seq().0, inst.pc()), (5, Pc(0x1004)));
        assert_eq!(w.skip_insts(100), 2, "only two instructions were left");
        assert!(w.next_inst().is_none());
        assert_eq!(w.skip_insts(1), 0);

        let mut whole = KernelWorkload::new(TwoIterations { remaining: 2 });
        assert_eq!(whole.skip_insts(8), 8);
        assert!(whole.next_inst().is_none());
    }

    #[test]
    #[should_panic(expected = "floating point")]
    fn fp_rejects_integer_ops() {
        let mut e = Emitter::new(0);
        e.begin_block(0);
        e.fp(OpClass::IntAlu, ArchReg::fp(0), &[]);
    }
}
