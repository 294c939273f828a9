//! Snapshot codec implementations for the ISA types.
//!
//! Everything here is plain data with complete public constructors, so the
//! implementations go through the public API; the byte layout is the field
//! order written below. Any change to it requires a
//! [`ltp_snapshot::FORMAT_VERSION`] bump.

use crate::{
    ArchReg, BranchInfo, DynInst, FuKind, MemAccess, OpClass, Pc, PhysReg, SeqNum, StaticInst,
    ThreadId,
};
use ltp_snapshot::{impl_codec_enum, Codec, Reader, SnapError, Writer};

impl Codec for Pc {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Pc(u64::read(r)?))
    }
}

impl Codec for SeqNum {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(SeqNum(u64::read(r)?))
    }
}

impl Codec for ThreadId {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(ThreadId(u8::read(r)?))
    }
}

impl Codec for ArchReg {
    fn write(&self, w: &mut Writer) {
        self.index().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let idx = usize::read(r)?;
        if idx >= crate::NUM_ARCH_REGS {
            return Err(SnapError::Invalid("architectural register out of range"));
        }
        Ok(ArchReg::from_index(idx))
    }
}

impl Codec for PhysReg {
    fn write(&self, w: &mut Writer) {
        (self.index() as u64).write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let idx = u64::read(r)?;
        u32::try_from(idx)
            .map(PhysReg::new)
            .map_err(|_| SnapError::Invalid("physical register out of range"))
    }
}

impl_codec_enum!(RegClassSnap { RegClassSnap::Int = 0, RegClassSnap::Fp = 1 });

/// Local mirror so the enum macro can own the tags without exposing them.
enum RegClassSnap {
    Int,
    Fp,
}

impl Codec for crate::RegClass {
    fn write(&self, w: &mut Writer) {
        match self {
            crate::RegClass::Int => RegClassSnap::Int.write(w),
            crate::RegClass::Fp => RegClassSnap::Fp.write(w),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match RegClassSnap::read(r)? {
            RegClassSnap::Int => crate::RegClass::Int,
            RegClassSnap::Fp => crate::RegClass::Fp,
        })
    }
}

impl_codec_enum!(OpClass {
    OpClass::IntAlu = 0,
    OpClass::IntMul = 1,
    OpClass::IntDiv = 2,
    OpClass::FpAlu = 3,
    OpClass::FpMul = 4,
    OpClass::FpDiv = 5,
    OpClass::FpSqrt = 6,
    OpClass::Load = 7,
    OpClass::Store = 8,
    OpClass::Branch = 9,
    OpClass::Nop = 10,
});

impl_codec_enum!(FuKind {
    FuKind::IntAlu = 0,
    FuKind::IntMulDiv = 1,
    FuKind::FpAlu = 2,
    FuKind::FpDivSqrt = 3,
    FuKind::Mem = 4,
    FuKind::Branch = 5,
});

impl Codec for MemAccess {
    fn write(&self, w: &mut Writer) {
        self.addr().write(w);
        self.size().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let addr = u64::read(r)?;
        let size = u8::read(r)?;
        if size == 0 || size > 64 {
            return Err(SnapError::Invalid("memory access size"));
        }
        Ok(MemAccess::new(addr, size))
    }
}

impl Codec for BranchInfo {
    fn write(&self, w: &mut Writer) {
        self.taken.write(w);
        self.target.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(BranchInfo {
            taken: bool::read(r)?,
            target: Pc::read(r)?,
        })
    }
}

impl Codec for StaticInst {
    fn write(&self, w: &mut Writer) {
        self.pc().write(w);
        self.op().write(w);
        self.dst().write(w);
        // Raw sources, so zero idioms keep their architectural source list.
        let srcs: Vec<ArchReg> = self.raw_srcs().iter().filter_map(|s| *s).collect();
        srcs.write(w);
        self.is_zero_idiom().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let pc = Pc::read(r)?;
        let op = OpClass::read(r)?;
        let dst = Option::<ArchReg>::read(r)?;
        let srcs = Vec::<ArchReg>::read(r)?;
        if srcs.len() > crate::MAX_SRCS {
            return Err(SnapError::Invalid("too many instruction sources"));
        }
        let zero_idiom = bool::read(r)?;
        let mut inst = StaticInst::new(pc, op);
        if let Some(d) = dst {
            inst = inst.with_dst(d);
        }
        for s in srcs {
            inst = inst.with_src(s);
        }
        if zero_idiom {
            inst = inst.with_zero_idiom();
        }
        Ok(inst)
    }
}

impl Codec for DynInst {
    fn write(&self, w: &mut Writer) {
        self.seq().write(w);
        self.tid().write(w);
        self.static_inst().write(w);
        self.mem_access().write(w);
        self.branch_info().write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let seq = SeqNum::read(r)?;
        let tid = ThreadId::read(r)?;
        let sinst = StaticInst::read(r)?;
        let mem = Option::<MemAccess>::read(r)?;
        let branch = Option::<BranchInfo>::read(r)?;
        if mem.is_some() && !sinst.op().is_mem() {
            return Err(SnapError::Invalid("memory access on non-memory op"));
        }
        if branch.is_some() && !sinst.op().is_branch() {
            return Err(SnapError::Invalid("branch outcome on non-branch op"));
        }
        let mut inst = DynInst::new(seq.0, sinst).with_tid(tid);
        if let Some(m) = mem {
            inst = inst.with_mem(m);
        }
        if let Some(b) = branch {
            inst = inst.with_branch(b);
        }
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_snapshot::encode_value;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_value(&v);
        let mut r = Reader::new(&bytes);
        let back = T::read(&mut r).expect("decode");
        assert_eq!(back, v);
        assert_eq!(r.remaining(), 0);
        assert_eq!(encode_value(&back), bytes);
    }

    #[test]
    fn isa_types_roundtrip() {
        roundtrip(Pc(0x40a0));
        roundtrip(SeqNum(123_456));
        roundtrip(ThreadId(1));
        roundtrip(ArchReg::int(5));
        roundtrip(ArchReg::fp(3));
        roundtrip(PhysReg::new(1 << 20));
        for op in OpClass::ALL {
            roundtrip(op);
        }
        roundtrip(MemAccess::new(0xdead_beef, 8));
        roundtrip(BranchInfo {
            taken: true,
            target: Pc(0x100),
        });
    }

    #[test]
    fn instructions_roundtrip() {
        let sinst = StaticInst::new(Pc(0x500), OpClass::Load)
            .with_dst(ArchReg::int(4))
            .with_src(ArchReg::int(1))
            .with_src(ArchReg::int(2));
        roundtrip(sinst);
        let zero = StaticInst::new(Pc(0x504), OpClass::IntAlu)
            .with_dst(ArchReg::int(5))
            .with_src(ArchReg::int(5))
            .with_src(ArchReg::int(5))
            .with_zero_idiom();
        roundtrip(zero);
        let dynamic = DynInst::new(42, sinst)
            .with_tid(ThreadId(1))
            .with_mem(MemAccess::qword(0x9000));
        roundtrip(dynamic);
        let branch = DynInst::new(
            43,
            StaticInst::new(Pc(0x508), OpClass::Branch).with_src(ArchReg::int(2)),
        )
        .with_branch(BranchInfo {
            taken: false,
            target: Pc(0x100),
        });
        roundtrip(branch);
    }

    #[test]
    fn corrupted_instruction_rejected() {
        // A memory access attached to a non-memory op must fail cleanly.
        let mut w = Writer::new();
        SeqNum(1).write(&mut w);
        ThreadId(0).write(&mut w);
        StaticInst::new(Pc(0), OpClass::IntAlu).write(&mut w);
        Some(MemAccess::qword(0x10)).write(&mut w);
        Option::<BranchInfo>::None.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(DynInst::read(&mut r).is_err());
    }

    #[test]
    fn branch_outcome_on_non_branch_op_rejected() {
        // A branch outcome attached to a non-branch op must fail cleanly,
        // not reach the constructor's assert.
        let mut w = Writer::new();
        SeqNum(1).write(&mut w);
        ThreadId(0).write(&mut w);
        StaticInst::new(Pc(0), OpClass::IntAlu).write(&mut w);
        Option::<MemAccess>::None.write(&mut w);
        Some(BranchInfo {
            taken: true,
            target: Pc(0x40),
        })
        .write(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            DynInst::read(&mut r),
            Err(SnapError::Invalid("branch outcome on non-branch op"))
        ));
    }
}
