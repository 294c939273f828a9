//! # ltp-isa
//!
//! Micro-op ISA used by the Long Term Parking (LTP) reproduction.
//!
//! The LTP mechanism (Sembrant et al., MICRO 2015) operates purely on the
//! *dataflow* of a program — which instruction produces which architectural
//! register, which instructions are loads/stores, and which operations have a
//! long fixed latency (divide, square root). The concrete instruction encoding
//! of the host ISA is irrelevant. This crate therefore defines a small,
//! RISC-like micro-op ISA that captures exactly the information the timing
//! model and the LTP classifier need:
//!
//! * [`OpClass`] — the operation category and its execution latency class,
//! * [`ArchReg`] / [`PhysReg`] — architectural and physical register names,
//! * [`StaticInst`] — a static instruction (PC, op, destination, sources),
//! * [`DynInst`] — one dynamic instance of a static instruction, carrying the
//!   effective memory address and branch outcome produced by the workload's
//!   functional execution,
//! * [`InstStream`] — the trace abstraction consumed by the pipeline model.
//!
//! # Example
//!
//! ```
//! use ltp_isa::{ArchReg, DynInst, OpClass, Pc, StaticInst};
//!
//! // addrA = baseA + j          (instruction "A" of the paper's Figure 2 loop)
//! let sinst = StaticInst::new(Pc(0x400), OpClass::IntAlu)
//!     .with_dst(ArchReg::int(3))
//!     .with_src(ArchReg::int(1))
//!     .with_src(ArchReg::int(2));
//! let dynamic = DynInst::new(0, sinst);
//! assert_eq!(dynamic.static_inst().dst(), Some(ArchReg::int(3)));
//! assert!(dynamic.mem_access().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod decoded;
mod fingerprint;
mod inst;
mod mem_access;
mod op;
mod reg;
mod seq_map;
mod snap;
mod stream;

pub use decoded::{BranchEvent, DecodedTrace, MemEvent};
pub use fingerprint::{trace_fingerprint, TraceHasher};
pub use inst::{BranchInfo, DynInst, SeqNum, StaticInst, ThreadId, MAX_SRCS};
pub use mem_access::MemAccess;
pub use op::{ExecLatency, FuKind, OpClass};
pub use reg::{ArchReg, PhysReg, RegClass, NUM_ARCH_FP_REGS, NUM_ARCH_INT_REGS, NUM_ARCH_REGS};
pub use seq_map::SeqMap;
pub use stream::{ArcStream, InstStream, SliceStream, TakeStream, VecStream};

/// A program counter (byte address of a static instruction).
///
/// Newtype so that instruction addresses are never confused with data
/// addresses in the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl Pc {
    /// Returns the address of the next sequential instruction assuming a
    /// fixed 4-byte encoding.
    #[must_use]
    pub fn next(self) -> Pc {
        Pc(self.0 + 4)
    }

    /// Byte offset of this PC from another PC.
    #[must_use]
    pub fn offset_from(self, other: Pc) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

impl std::fmt::Display for Pc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Pc {
    fn from(v: u64) -> Self {
        Pc(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_next_advances_by_four() {
        assert_eq!(Pc(0x1000).next(), Pc(0x1004));
    }

    #[test]
    fn pc_offset_is_signed() {
        assert_eq!(Pc(0x1000).offset_from(Pc(0x1010)), -16);
        assert_eq!(Pc(0x1010).offset_from(Pc(0x1000)), 16);
    }

    #[test]
    fn pc_display_is_hex() {
        assert_eq!(Pc(0x40ab).to_string(), "0x40ab");
    }

    #[test]
    fn pc_from_u64() {
        let pc: Pc = 0x55u64.into();
        assert_eq!(pc, Pc(0x55));
    }
}
