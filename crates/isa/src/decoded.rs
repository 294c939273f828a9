//! Pre-decoded traces for decode-once / execute-many functional replay.
//!
//! Functional fast-forward (the warm-up mode of sampled simulation) only
//! touches three state machines: the cache hierarchy (memory operations), the
//! branch predictor (branches) and the LTP learned state (load outcomes).
//! Every other instruction — the straight-line ALU body of a basic block —
//! contributes *nothing* beyond advancing the functional clock by one.
//!
//! Replaying a `Vec<DynInst>` therefore wastes most of its time: each
//! [`DynInst`] is ~100 bytes of mostly-irrelevant payload, and the interpreter
//! re-discovers "is this a load? a branch?" per instruction per pass.
//! [`DecodedTrace`] does that classification **once**: the trace is decoded
//! into two flat, cache-friendly event arrays (memory events and branch
//! events, each tagged with its absolute instruction index), and the
//! non-event stretches between them — straight-line runs of a basic block —
//! are represented implicitly by the index gaps. A functional interpreter
//! iterating the event arrays advances the clock over such a run in one
//! batched step instead of one instruction at a time.
//!
//! The index carried by every event is the instruction's position in the
//! decoded trace, which is exactly the functional clock value the per-inst
//! reference interpreter would have used when processing it — so an
//! event-driven replay produces *bit-identical* warm state.

use crate::{DynInst, InstStream, Pc};

/// One memory operation of a pre-decoded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Absolute instruction index in the decoded trace (the functional clock
    /// value at which the reference interpreter would process this access).
    pub idx: u64,
    /// Program counter of the load/store.
    pub pc: Pc,
    /// Effective byte address.
    pub addr: u64,
    /// Whether this is a store (`false` = load).
    pub is_store: bool,
}

impl MemEvent {
    /// Whether this is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        !self.is_store
    }
}

/// One branch of a pre-decoded trace, its outcome resolved up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// Absolute instruction index in the decoded trace.
    pub idx: u64,
    /// Program counter of the branch.
    pub pc: Pc,
    /// Resolved direction.
    pub taken: bool,
}

/// A trace pre-decoded for functional replay: flat per-kind event arrays
/// (sorted by instruction index) over a known total length.
///
/// Decode once, execute many: sampled simulation decodes the trace a single
/// time and then replays arbitrary `[start, end)` windows of it through the
/// functional machine, skipping every instruction that carries no functional
/// event.
#[derive(Debug, Clone, Default)]
pub struct DecodedTrace {
    len: u64,
    mem: Vec<MemEvent>,
    branches: Vec<BranchEvent>,
}

impl DecodedTrace {
    /// Decodes a pre-collected trace. Event indices are slice positions, so
    /// replaying the decoded trace from position 0 matches feeding
    /// `insts[0..]` to a per-instruction interpreter.
    #[must_use]
    pub fn from_insts(insts: &[DynInst]) -> DecodedTrace {
        let mut dec = DecodedTrace::default();
        for inst in insts {
            dec.push(inst);
        }
        dec
    }

    /// Stream adapter: decodes up to `max` instructions pulled from `stream`.
    /// Workloads are generators, so this lets callers pre-decode without ever
    /// materialising the `Vec<DynInst>` form.
    #[must_use]
    pub fn from_stream<S: InstStream>(mut stream: S, max: u64) -> DecodedTrace {
        let mut dec = DecodedTrace::default();
        while dec.len < max {
            match stream.next_inst() {
                Some(inst) => dec.push(&inst),
                None => break,
            }
        }
        dec
    }

    /// Appends one instruction to the decoded trace.
    ///
    /// The decode rules mirror the per-instruction reference interpreter
    /// exactly: an instruction contributes a memory event only when it
    /// carries an effective address, and a branch event only when it carries
    /// a resolved outcome.
    pub fn push(&mut self, inst: &DynInst) {
        let idx = self.len;
        if let Some(branch) = inst.branch_info() {
            self.branches.push(BranchEvent {
                idx,
                pc: inst.pc(),
                taken: branch.taken,
            });
        }
        if let Some(access) = inst.mem_access() {
            self.mem.push(MemEvent {
                idx,
                pc: inst.pc(),
                addr: access.addr(),
                is_store: inst.op().is_store(),
            });
        }
        self.len += 1;
    }

    /// Total instructions decoded (events plus implicit straight-line runs).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All memory events, in instruction order.
    #[must_use]
    pub fn mem_events(&self) -> &[MemEvent] {
        &self.mem
    }

    /// All branch events, in instruction order.
    #[must_use]
    pub fn branch_events(&self) -> &[BranchEvent] {
        &self.branches
    }

    /// Memory events whose instruction index falls in `[start, end)`.
    #[must_use]
    pub fn mem_events_in(&self, start: u64, end: u64) -> &[MemEvent] {
        let lo = self.mem.partition_point(|e| e.idx < start);
        let hi = self.mem.partition_point(|e| e.idx < end);
        &self.mem[lo..hi]
    }

    /// Branch events whose instruction index falls in `[start, end)`.
    #[must_use]
    pub fn branch_events_in(&self, start: u64, end: u64) -> &[BranchEvent] {
        let lo = self.branches.partition_point(|e| e.idx < start);
        let hi = self.branches.partition_point(|e| e.idx < end);
        &self.branches[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, BranchInfo, MemAccess, OpClass, StaticInst, VecStream};

    fn mixed(n: u64) -> Vec<DynInst> {
        (0..n)
            .map(|i| match i % 4 {
                0 => DynInst::new(
                    i,
                    StaticInst::new(Pc(0x100 + i * 4), OpClass::Load).with_dst(ArchReg::int(1)),
                )
                .with_mem(MemAccess::qword(0x1000 + i * 8)),
                1 => DynInst::new(
                    i,
                    StaticInst::new(Pc(0x100 + i * 4), OpClass::Store).with_src(ArchReg::int(1)),
                )
                .with_mem(MemAccess::qword(0x2000 + i * 8)),
                2 => DynInst::new(i, StaticInst::new(Pc(0x100 + i * 4), OpClass::Branch))
                    .with_branch(BranchInfo {
                        taken: i % 8 == 2,
                        target: Pc(0x100),
                    }),
                _ => DynInst::new(
                    i,
                    StaticInst::new(Pc(0x100 + i * 4), OpClass::IntAlu).with_dst(ArchReg::int(2)),
                ),
            })
            .collect()
    }

    #[test]
    fn decode_classifies_events_by_kind() {
        let trace = mixed(16);
        let dec = DecodedTrace::from_insts(&trace);
        assert_eq!(dec.len(), 16);
        assert_eq!(dec.mem_events().len(), 8); // 4 loads + 4 stores
        assert_eq!(dec.branch_events().len(), 4);
        assert_eq!(dec.mem_events()[0].idx, 0);
        assert!(dec.mem_events()[0].is_load());
        assert!(dec.mem_events()[1].is_store);
        assert_eq!(dec.branch_events()[0].idx, 2);
        // A quarter of the instructions carry no event.
        let events = dec.mem_events().len() + dec.branch_events().len();
        assert_eq!(dec.len() - events as u64, 4);
    }

    #[test]
    fn events_carry_slice_position_not_seqnum() {
        // Decoding a *suffix* renumbers from zero: event idx is the functional
        // clock of a replay starting at the slice's first instruction.
        let trace = mixed(16);
        let dec = DecodedTrace::from_insts(&trace[4..]);
        assert_eq!(dec.len(), 12);
        assert_eq!(dec.mem_events()[0].idx, 0);
        assert_eq!(dec.mem_events()[0].addr, 0x1000 + 4 * 8);
    }

    #[test]
    fn range_lookup_matches_linear_filter() {
        let trace = mixed(64);
        let dec = DecodedTrace::from_insts(&trace);
        for (start, end) in [(0, 64), (0, 0), (5, 23), (23, 23), (63, 64), (10, 11)] {
            let mem: Vec<MemEvent> = dec
                .mem_events()
                .iter()
                .copied()
                .filter(|e| e.idx >= start && e.idx < end)
                .collect();
            assert_eq!(dec.mem_events_in(start, end), mem.as_slice());
            let br: Vec<BranchEvent> = dec
                .branch_events()
                .iter()
                .copied()
                .filter(|e| e.idx >= start && e.idx < end)
                .collect();
            assert_eq!(dec.branch_events_in(start, end), br.as_slice());
        }
    }

    #[test]
    fn stream_adapter_matches_slice_decode() {
        let trace = mixed(32);
        let from_slice = DecodedTrace::from_insts(&trace);
        let from_stream = DecodedTrace::from_stream(VecStream::new("t", trace.clone()), 32);
        assert_eq!(from_slice.len(), from_stream.len());
        assert_eq!(from_slice.mem_events(), from_stream.mem_events());
        assert_eq!(from_slice.branch_events(), from_stream.branch_events());
        // The adapter honours its budget and a short stream.
        assert_eq!(
            DecodedTrace::from_stream(VecStream::new("t", trace.clone()), 7).len(),
            7
        );
        assert_eq!(
            DecodedTrace::from_stream(VecStream::new("t", trace), 100).len(),
            32
        );
    }

    #[test]
    fn empty_trace_is_well_formed() {
        let dec = DecodedTrace::from_insts(&[]);
        assert!(dec.is_empty());
        assert!(dec.mem_events().is_empty() && dec.branch_events().is_empty());
        assert!(dec.mem_events_in(0, 0).is_empty());
    }
}
