//! # ltp-workloads
//!
//! Synthetic workload kernels standing in for the SPEC CPU2006 benchmarks of
//! the paper's evaluation.
//!
//! The original evaluation uses 550 SimPoints of SPEC CPU2006 run under gem5;
//! neither the benchmarks nor the checkpoints can be redistributed, so this
//! crate provides kernels that populate the *behavioural classes* the paper's
//! analysis is built on: MLP-sensitive kernels with parkable Non-Urgent work
//! (indirect streaming, FP gathers, hash probing), a pointer chaser whose
//! misses cannot be overlapped, and MLP-insensitive compute-bound /
//! prefetch-friendly kernels.
//! The paper's own MLP-sensitivity criterion (§4.1) is applied to the
//! simulated runs to group them, rather than trusting the expected labels.
//!
//! # Example
//!
//! ```
//! use ltp_workloads::WorkloadKind;
//! use ltp_isa::InstStream;
//!
//! let mut stream = WorkloadKind::IndirectStream.build(42);
//! let first = stream.next_inst().unwrap();
//! assert_eq!(first.seq().0, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod emitter;
mod kernels;

pub use emitter::{Emitter, KernelStream, KernelWorkload};
pub use kernels::{
    ComputeBound, GatherFp, HashProbe, IndirectStream, MixedPhases, PointerChase, StencilStream,
};

use ltp_isa::{DynInst, InstStream};

/// The workload suite used by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The paper's Figure 2 loop (`B[A[j]]`), astar-like. MLP-sensitive.
    IndirectStream,
    /// Independent FP gathers, milc-like. MLP-sensitive.
    GatherFp,
    /// Serial pointer chasing: Urgent + Non-Ready loads, little MLP.
    PointerChase,
    /// Unpredictable probes with data-dependent branches. MLP-sensitive.
    HashProbe,
    /// Dependent arithmetic over an L1-resident working set. MLP-insensitive.
    ComputeBound,
    /// Constant-stride streaming covered by the prefetcher. MLP-insensitive.
    StencilStream,
    /// Alternating compute and memory phases (monitor exercise).
    MixedPhases,
}

impl WorkloadKind {
    /// Every workload of the suite, in a stable order.
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::IndirectStream,
        WorkloadKind::GatherFp,
        WorkloadKind::PointerChase,
        WorkloadKind::HashProbe,
        WorkloadKind::ComputeBound,
        WorkloadKind::StencilStream,
        WorkloadKind::MixedPhases,
    ];

    /// Short name used in figures and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::IndirectStream => "indirect_stream",
            WorkloadKind::GatherFp => "gather_fp",
            WorkloadKind::PointerChase => "pointer_chase",
            WorkloadKind::HashProbe => "hash_probe",
            WorkloadKind::ComputeBound => "compute_bound",
            WorkloadKind::StencilStream => "stencil_stream",
            WorkloadKind::MixedPhases => "mixed_phases",
        }
    }

    /// The behavioural class the kernel was designed to populate. The
    /// experiments re-derive the actual grouping with the paper's criterion;
    /// this label is only used as a sanity cross-check.
    #[must_use]
    pub fn expected_mlp_sensitive(self) -> bool {
        matches!(
            self,
            WorkloadKind::IndirectStream
                | WorkloadKind::GatherFp
                | WorkloadKind::HashProbe
                | WorkloadKind::PointerChase
        )
    }

    /// Builds the instruction stream for this workload with the given seed.
    #[must_use]
    pub fn build(self, seed: u64) -> Box<dyn InstStream> {
        match self {
            WorkloadKind::IndirectStream => {
                Box::new(KernelWorkload::new(IndirectStream::new(seed)))
            }
            WorkloadKind::GatherFp => Box::new(KernelWorkload::new(GatherFp::new(seed))),
            WorkloadKind::PointerChase => Box::new(KernelWorkload::new(PointerChase::new(seed))),
            WorkloadKind::HashProbe => Box::new(KernelWorkload::new(HashProbe::new(seed))),
            WorkloadKind::ComputeBound => Box::new(KernelWorkload::new(ComputeBound::new(seed))),
            WorkloadKind::StencilStream => Box::new(KernelWorkload::new(StencilStream::new(seed))),
            WorkloadKind::MixedPhases => Box::new(KernelWorkload::new(MixedPhases::new(seed))),
        }
    }

    /// Parses a workload name as printed by [`WorkloadKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Collects the first `n` dynamic instructions of a workload into a vector
/// (used for oracle analysis and cache warming).
#[must_use]
pub fn trace(kind: WorkloadKind, seed: u64, n: usize) -> Vec<DynInst> {
    let mut stream = kind.build(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match stream.next_inst() {
            Some(i) => out.push(i),
            None => break,
        }
    }
    out
}

/// Stable identity of the first `n` instructions of a workload: the content
/// fingerprint ([`ltp_isa::trace_fingerprint`]) of the generated trace.
/// Checkpoint-cache keys use this instead of trusting (name, seed, length)
/// alone, so a workload-generator change can never alias a stale cache
/// entry. The fingerprint is hashed while the generator runs, so no trace
/// is collected.
#[must_use]
pub fn trace_identity(kind: WorkloadKind, seed: u64, n: usize) -> u64 {
    let mut stream = kind.build(seed).take_insts(n as u64);
    let mut hasher = ltp_isa::TraceHasher::new();
    while let Some(inst) = stream.next_inst() {
        hasher.push(&inst);
    }
    hasher.finish()
}

/// Byte stride separating the address spaces of SMT co-runners. Large
/// enough that two kernels never touch the same lines, while preserving the
/// low (set-index) bits so the threads still contend for cache capacity the
/// way two real co-scheduled processes do.
pub const THREAD_ADDRESS_STRIDE: u64 = 1 << 40;

/// Collects the first `n` dynamic instructions of a workload prepared for
/// hardware thread `tid` of an SMT co-run: each instruction is stamped with
/// the thread id and rebased into the thread's own address region (code and
/// data shifted by `tid * THREAD_ADDRESS_STRIDE`).
///
/// Thread 0's co-trace is identical to [`trace`] (zero offset), so a co-run
/// with an idle second thread replays exactly the single-thread trace.
#[must_use]
pub fn co_trace(kind: WorkloadKind, seed: u64, n: usize, tid: u8) -> Vec<DynInst> {
    let offset = u64::from(tid) * THREAD_ADDRESS_STRIDE;
    trace(kind, seed, n)
        .into_iter()
        .map(|inst| {
            inst.with_tid(ltp_isa::ThreadId(tid))
                .rebased(offset, offset)
        })
        .collect()
}

/// A boxed instruction stream replaying a pre-collected trace (used when the
/// same instructions must be fed to the oracle analysis and the timing run).
#[must_use]
pub fn replay(name: &str, trace: Vec<DynInst>) -> ltp_isa::VecStream {
    ltp_isa::VecStream::new(name, trace)
}

/// A stream replaying a *borrowed* trace: benchmark iterations and sweep
/// points replay the same trace many times, and this variant shares the one
/// allocation instead of cloning the trace per run.
#[must_use]
pub fn replay_slice<'a>(name: &'a str, trace: &'a [DynInst]) -> ltp_isa::SliceStream<'a> {
    ltp_isa::SliceStream::new(name, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(WorkloadKind::from_name("nonexistent"), None);
    }

    #[test]
    fn all_workloads_produce_instructions() {
        for kind in WorkloadKind::ALL {
            let t = trace(kind, 1, 500);
            assert_eq!(t.len(), 500, "{kind} should be an endless kernel");
            // Sequence numbers are dense.
            for (i, inst) in t.iter().enumerate() {
                assert_eq!(inst.seq().0, i as u64);
            }
        }
    }

    #[test]
    fn suite_has_both_classes() {
        let sensitive = WorkloadKind::ALL
            .iter()
            .filter(|k| k.expected_mlp_sensitive())
            .count();
        let insensitive = WorkloadKind::ALL.len() - sensitive;
        assert!(sensitive >= 3);
        assert!(insensitive >= 2);
    }

    #[test]
    fn co_trace_rebases_per_thread() {
        use ltp_isa::ThreadId;
        let base = trace(WorkloadKind::IndirectStream, 3, 100);
        let t0 = co_trace(WorkloadKind::IndirectStream, 3, 100, 0);
        let t1 = co_trace(WorkloadKind::IndirectStream, 3, 100, 1);
        assert_eq!(base, t0, "thread 0 is the unshifted trace");
        for (a, b) in base.iter().zip(&t1) {
            assert_eq!(b.tid(), ThreadId(1));
            assert_eq!(b.seq(), a.seq());
            assert_eq!(b.pc().0, a.pc().0 + THREAD_ADDRESS_STRIDE);
            match (a.mem_access(), b.mem_access()) {
                (Some(ma), Some(mb)) => {
                    assert_eq!(mb.addr(), ma.addr() + THREAD_ADDRESS_STRIDE);
                }
                (None, None) => {}
                _ => panic!("rebasing must not add or drop memory accesses"),
            }
        }
    }

    #[test]
    fn replay_preserves_trace() {
        use ltp_isa::InstStream;
        let t = trace(WorkloadKind::ComputeBound, 0, 50);
        let mut s = replay("compute_bound", t.clone());
        for expected in t {
            assert_eq!(s.next_inst(), Some(expected));
        }
        assert!(s.next_inst().is_none());
    }
}
