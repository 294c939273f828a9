//! Content fingerprints of instruction traces.
//!
//! A fingerprint is the *stable trace identity* the checkpoint cache keys
//! on: two traces hash equal exactly when every instruction (sequence
//! number, thread, PC, operation, operands, memory access, branch outcome)
//! is identical, however the trace was produced. [`TraceHasher`] computes it
//! one instruction at a time, so a generator can be fingerprinted while it
//! runs, with no trace vector and no encoding buffer;
//! [`trace_fingerprint`] is the same hash over a collected trace.

use crate::{DynInst, MAX_SRCS, NUM_ARCH_REGS};

// The packed operand word below spends 7 bits per register (index + 1) and
// 2 bits on the source count.
const _: () = assert!(NUM_ARCH_REGS < 127 && MAX_SRCS <= 3);

/// Streaming trace fingerprint: feed instructions in program order with
/// [`TraceHasher::push`], then read the fingerprint with
/// [`TraceHasher::finish`].
///
/// Each instruction enters as three to five 64-bit words — sequence
/// number, PC, one packed word of operation, thread, operands and flags,
/// then the memory address and branch target when present (the flags say
/// which follow, so the encoding is unambiguous). Every word is folded in
/// with a bijective multiply-xorshift step, and `finish` mixes in the
/// instruction count (a trace never hashes equal to its own prefix)
/// before a final avalanche.
#[derive(Debug, Clone, Copy)]
pub struct TraceHasher {
    state: u64,
    len: u64,
}

impl Default for TraceHasher {
    fn default() -> TraceHasher {
        TraceHasher::new()
    }
}

impl TraceHasher {
    /// A hasher that has seen no instructions.
    #[must_use]
    pub fn new() -> TraceHasher {
        TraceHasher {
            state: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let x = (self.state ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.state = x ^ (x >> 32);
    }

    /// Folds the next instruction of the trace into the fingerprint.
    #[inline]
    pub fn push(&mut self, inst: &DynInst) {
        let sinst = inst.static_inst();
        let reg = |r: Option<crate::ArchReg>| r.map_or(0, |r| r.index() as u64 + 1);
        let mut packed = sinst.op() as u64
            | u64::from(inst.tid().0) << 4
            | reg(sinst.dst()) << 12
            | (sinst.raw_srcs().len() as u64) << 19
            | u64::from(sinst.is_zero_idiom()) << 42;
        for (k, &src) in sinst.raw_srcs().iter().enumerate() {
            packed |= reg(src) << (21 + 7 * k);
        }
        let mem = inst.mem_access();
        if let Some(m) = mem {
            packed |= 1 << 43 | u64::from(m.size()) << 44;
        }
        let branch = inst.branch_info();
        if let Some(b) = branch {
            packed |= 1 << 52 | u64::from(b.taken) << 53;
        }
        self.word(inst.seq().0);
        self.word(sinst.pc().0);
        self.word(packed);
        if let Some(m) = mem {
            self.word(m.addr());
        }
        if let Some(b) = branch {
            self.word(b.target.0);
        }
        self.len += 1;
    }

    /// Instructions folded in so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no instruction has been folded in yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fingerprint of the instructions pushed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut h = *self;
        h.word(self.len);
        // splitmix64's finaliser: every input bit reaches every output bit.
        let mut x = h.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// Content fingerprint of a collected instruction trace: [`TraceHasher`]
/// over `insts` in order.
#[must_use]
pub fn trace_fingerprint(insts: &[DynInst]) -> u64 {
    let mut h = TraceHasher::new();
    for inst in insts {
        h.push(inst);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, BranchInfo, MemAccess, OpClass, Pc, StaticInst, ThreadId};

    fn sample() -> Vec<DynInst> {
        vec![
            DynInst::new(
                0,
                StaticInst::new(Pc(0x100), OpClass::Load)
                    .with_dst(ArchReg::int(4))
                    .with_src(ArchReg::int(1)),
            )
            .with_mem(MemAccess::qword(0x8000)),
            DynInst::new(
                1,
                StaticInst::new(Pc(0x104), OpClass::IntAlu)
                    .with_dst(ArchReg::int(5))
                    .with_src(ArchReg::int(5))
                    .with_src(ArchReg::fp(3)),
            ),
            DynInst::new(2, StaticInst::new(Pc(0x108), OpClass::Branch)).with_branch(BranchInfo {
                taken: true,
                target: Pc(0x100),
            }),
        ]
    }

    #[test]
    fn streaming_matches_slice_form() {
        let trace = sample();
        let mut h = TraceHasher::new();
        for inst in &trace {
            h.push(inst);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.finish(), trace_fingerprint(&trace));
        // `finish` does not consume: the hasher keeps extending.
        let prefix = h.finish();
        h.push(&trace[0].with_seq(3));
        assert_ne!(h.finish(), prefix);
    }

    #[test]
    fn every_field_moves_the_fingerprint() {
        let base = sample();
        let fp = trace_fingerprint(&base);
        let load = base[0];
        let alu = base[1];
        let br = base[2];
        let variants = [
            load.with_seq(9),
            load.with_tid(ThreadId(1)),
            load.rebased(4, 0),
            load.rebased(0, 64),
            load.with_mem(MemAccess::new(0x8000, 4)),
            DynInst::new(
                0,
                StaticInst::new(Pc(0x100), OpClass::Load).with_dst(ArchReg::int(4)),
            )
            .with_mem(MemAccess::qword(0x8000)),
            DynInst::new(
                0,
                StaticInst::new(Pc(0x100), OpClass::Load)
                    .with_dst(ArchReg::int(3))
                    .with_src(ArchReg::int(1)),
            )
            .with_mem(MemAccess::qword(0x8000)),
        ];
        for (i, v) in variants.into_iter().enumerate() {
            let mut t = base.clone();
            t[0] = v;
            assert_ne!(trace_fingerprint(&t), fp, "load variant {i}");
        }
        let alu_variants = [
            DynInst::new(1, alu.static_inst().with_zero_idiom()),
            DynInst::new(
                1,
                StaticInst::new(Pc(0x104), OpClass::IntMul)
                    .with_dst(ArchReg::int(5))
                    .with_src(ArchReg::int(5))
                    .with_src(ArchReg::fp(3)),
            ),
            DynInst::new(
                1,
                StaticInst::new(Pc(0x104), OpClass::IntAlu)
                    .with_dst(ArchReg::int(5))
                    .with_src(ArchReg::fp(3))
                    .with_src(ArchReg::int(5)),
            ),
        ];
        for (i, v) in alu_variants.into_iter().enumerate() {
            let mut t = base.clone();
            t[1] = v;
            assert_ne!(trace_fingerprint(&t), fp, "alu variant {i}");
        }
        for b in [
            BranchInfo {
                taken: false,
                target: Pc(0x100),
            },
            BranchInfo {
                taken: true,
                target: Pc(0x1_0000_0100),
            },
        ] {
            let mut t = base.clone();
            t[2] = DynInst::new(2, *br.static_inst()).with_branch(b);
            assert_ne!(trace_fingerprint(&t), fp, "branch outcome");
        }
    }

    #[test]
    fn prefix_and_order_are_distinguished() {
        let trace = sample();
        assert_ne!(trace_fingerprint(&trace[..2]), trace_fingerprint(&trace));
        assert_ne!(trace_fingerprint(&[]), trace_fingerprint(&trace[..1]));
        let mut swapped = trace.clone();
        swapped.swap(0, 1);
        assert_ne!(trace_fingerprint(&swapped), trace_fingerprint(&trace));
    }
}
