//! Oracle (perfect) instruction classification for the limit study.
//!
//! Figure 6 of the paper models "an infinite-sized LTP with perfect
//! instruction classification" and "an oracle to predict long-latency
//! instructions". This module reproduces that oracle by analysing the
//! dynamic trace ahead of time:
//!
//! 1. A functional replay of the trace through a copy of the memory hierarchy
//!    determines which loads miss the LLC (the *long-latency* instructions;
//!    divides and square roots are long-latency by definition).
//! 2. A forward dataflow pass marks the *descendants* of long-latency
//!    instructions (Non-Ready), within an in-flight window approximating the
//!    ROB size.
//! 3. A backward dataflow pass marks the *ancestors* of long-latency
//!    instructions (Urgent), within the same window.
//!
//! Steps 1 and 2 share one forward sweep over the trace, which also packs
//! each instruction's registers into a 4-byte column; step 3 sweeps that
//! column and the long-latency flags backwards instead of the trace.

use crate::class::Criticality;
use ltp_isa::{DynInst, SeqNum, NUM_ARCH_REGS};
use ltp_mem::{AccessKind, MemoryConfig, MemoryHierarchy, MemoryRequest};
use std::sync::Arc;

/// Perfect classification of a concrete dynamic trace, indexed by sequence
/// number. The two vectors are shared, so a clone (one per sampled
/// interval, and one per checkpoint of an oracle-classified machine)
/// copies nothing.
#[derive(Debug, Clone)]
pub struct OracleClassifier {
    pub(crate) classes: Arc<[Criticality]>,
    pub(crate) long_latency: Arc<[bool]>,
}

impl OracleClassifier {
    /// Builds a classifier directly from per-instruction classes and
    /// long-latency flags. Mostly useful in tests; use
    /// [`OracleAnalysis::analyze`] for real traces.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    #[must_use]
    pub fn from_parts(classes: Vec<Criticality>, long_latency: Vec<bool>) -> OracleClassifier {
        assert_eq!(
            classes.len(),
            long_latency.len(),
            "classes and long-latency flags must cover the same instructions"
        );
        OracleClassifier {
            classes: classes.into(),
            long_latency: long_latency.into(),
        }
    }

    /// The criticality of instruction `seq`. Instructions outside the
    /// analysed window default to Non-Urgent + Ready (the safest class: they
    /// are parked only by the Non-Urgent rule and wake by ROB proximity).
    #[must_use]
    pub fn classify(&self, seq: SeqNum) -> Criticality {
        self.classes
            .get(seq.0 as usize)
            .copied()
            .unwrap_or(Criticality::NON_URGENT_READY)
    }

    /// Whether instruction `seq` is itself long-latency (an LLC-missing load,
    /// a divide or a square root).
    #[must_use]
    pub fn is_long_latency(&self, seq: SeqNum) -> bool {
        self.long_latency
            .get(seq.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Number of instructions covered by the oracle.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the oracle covers no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Per-class instruction counts, in [`crate::InstClass::ALL`] order.
    #[must_use]
    pub fn class_histogram(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for c in self.classes.iter() {
            let idx = crate::InstClass::ALL
                .iter()
                .position(|&k| k == c.class())
                .expect("class is in ALL");
            out[idx] += 1;
        }
        out
    }
}

/// The trace analysis that produces an [`OracleClassifier`].
#[derive(Debug, Clone)]
pub struct OracleAnalysis {
    /// In-flight window (in dynamic instructions) within which
    /// ancestor/descendant relations are considered simultaneous. The ROB
    /// size (256 in the baseline) is the natural choice.
    pub window: u64,
}

impl Default for OracleAnalysis {
    fn default() -> Self {
        OracleAnalysis { window: 256 }
    }
}

impl OracleAnalysis {
    /// Creates an analysis with the given in-flight window.
    #[must_use]
    pub fn new(window: u64) -> OracleAnalysis {
        assert!(window > 0, "window must be positive");
        OracleAnalysis { window }
    }

    /// Analyses a trace and produces the perfect classification.
    ///
    /// `mem_cfg` describes the cache hierarchy used to decide which loads are
    /// LLC misses; pass the same configuration the timing simulation will
    /// use so the oracle sees (approximately) the same miss set, including
    /// the effect of the stride prefetcher.
    #[must_use]
    pub fn analyze(&self, trace: &[DynInst], mem_cfg: &MemoryConfig) -> OracleClassifier {
        let n = trace.len();
        let mut long_latency = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        let mut column: Vec<PackedRegs> = Vec::with_capacity(n);

        // --- forward: LLC misses and Non-Ready = descendant of in-flight LL --
        let mut mem = MemoryHierarchy::new(*mem_cfg);
        // taint[r] = Some(seq of the long-latency origin) if the current value
        // of r transitively depends on a long-latency instruction.
        let mut taint: [Option<u64>; NUM_ARCH_REGS] = [None; NUM_ARCH_REGS];
        for (i, inst) in trace.iter().enumerate() {
            let ll = inst.op().is_long_latency_arith()
                || inst.mem_access().is_some_and(|access| {
                    let kind = if inst.op().is_store() {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    // Space accesses far apart so MSHR merging does not hide
                    // misses from the functional replay.
                    let result = mem.access(
                        i as u64 * 1_000,
                        &MemoryRequest::new(inst.pc(), access.addr(), kind),
                    );
                    inst.op().is_load() && result.is_llc_miss()
                });
            let sinst = inst.static_inst();
            let mut packed = PackedRegs::default();
            let mut origin: Option<u64> = None;
            for (slot, src) in packed.srcs.iter_mut().zip(sinst.dataflow_srcs()) {
                *slot = src.index() as u8;
                if let Some(o) = taint[src.index()] {
                    if (i as u64).saturating_sub(o) < self.window {
                        origin = Some(origin.map_or(o, |cur: u64| cur.max(o)));
                    }
                }
            }
            if let Some(dst) = sinst.dst().filter(|d| !d.is_zero()) {
                packed.dst = dst.index() as u8;
                taint[dst.index()] = if ll { Some(i as u64) } else { origin };
            }
            long_latency.push(ll);
            classes.push(Criticality {
                urgent: false,
                ready: origin.is_none(),
            });
            column.push(packed);
        }

        // --- backward: Urgent = ancestor of LL within the window -------------
        // needed[r] = Some(consumer seq) when the value of r feeding that
        // consumer is on an urgent slice.
        let mut needed: [Option<u64>; NUM_ARCH_REGS] = [None; NUM_ARCH_REGS];
        let rows = column.iter().zip(&long_latency).zip(&mut classes);
        for (i, ((regs, &ll), class)) in rows.enumerate().rev() {
            let i = i as u64;
            // Long-latency instructions are urgent themselves (their PCs sit
            // in the UIT in the realistic design).
            let mut urgent = ll;
            // Does this instruction produce a value needed by an urgent
            // slice? It is the producer the consumer actually read, so the
            // request is satisfied here either way.
            if regs.dst != 0 {
                if let Some(consumer) = needed[usize::from(regs.dst)].take() {
                    urgent |= consumer.saturating_sub(i) < self.window;
                }
            }
            if urgent {
                for &src in regs.srcs.iter().filter(|&&s| s != 0) {
                    let entry = &mut needed[usize::from(src)];
                    *entry = Some(entry.map_or(i, |cur| cur.max(i)));
                }
            }
            class.urgent = urgent;
        }
        OracleClassifier::from_parts(classes, long_latency)
    }
}

/// One instruction's registers in the analysis column: flat register
/// indices, with 0 (the zero register, which nothing renames) for "none".
#[derive(Debug, Clone, Copy, Default)]
struct PackedRegs {
    /// The renamed destination.
    dst: u8,
    /// The dataflow sources.
    srcs: [u8; ltp_isa::MAX_SRCS],
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_isa::{ArchReg, MemAccess, OpClass, Pc, StaticInst};

    /// The three-pass analysis the one-sweep [`OracleAnalysis::analyze`]
    /// replaced, kept as its reference: a memory replay, a forward pass and
    /// a backward pass, each over the whole trace.
    mod reference {
        use super::*;

        pub fn analyze(window: u64, trace: &[DynInst], mem_cfg: &MemoryConfig) -> OracleClassifier {
            let n = trace.len();
            let mut long_latency = vec![false; n];

            // --- pass 1: which loads miss the LLC ----------------------------
            let mut mem = MemoryHierarchy::new(*mem_cfg);
            for (i, inst) in trace.iter().enumerate() {
                if inst.op().is_long_latency_arith() {
                    long_latency[i] = true;
                    continue;
                }
                if let Some(access) = inst.mem_access() {
                    let kind = if inst.op().is_store() {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    let result = mem.access(
                        i as u64 * 1_000,
                        &MemoryRequest::new(inst.pc(), access.addr(), kind),
                    );
                    if inst.op().is_load() && result.is_llc_miss() {
                        long_latency[i] = true;
                    }
                }
            }

            // --- pass 2 (forward): Non-Ready = descendant of in-flight LL ----
            let mut ready = vec![true; n];
            let mut taint: Vec<Option<u64>> = vec![None; NUM_ARCH_REGS];
            for (i, inst) in trace.iter().enumerate() {
                let sinst = inst.static_inst();
                let mut origin: Option<u64> = None;
                for src in sinst.dataflow_srcs() {
                    if let Some(o) = taint[src.index()] {
                        if (i as u64).saturating_sub(o) < window {
                            origin = Some(origin.map_or(o, |cur: u64| cur.max(o)));
                        }
                    }
                }
                if origin.is_some() {
                    ready[i] = false;
                }
                if let Some(dst) = sinst.dst().filter(|d| !d.is_zero()) {
                    taint[dst.index()] = if long_latency[i] {
                        Some(i as u64)
                    } else {
                        origin
                    };
                }
            }

            // --- pass 3 (backward): Urgent = ancestor of LL within the window
            let mut urgent = vec![false; n];
            let mut needed: Vec<Option<u64>> = vec![None; NUM_ARCH_REGS];
            for i in (0..n).rev() {
                let sinst = trace[i].static_inst();
                if let Some(dst) = sinst.dst().filter(|d| !d.is_zero()) {
                    if let Some(consumer) = needed[dst.index()] {
                        needed[dst.index()] = None;
                        if consumer.saturating_sub(i as u64) < window {
                            urgent[i] = true;
                        }
                    }
                }
                if long_latency[i] {
                    urgent[i] = true;
                }
                if urgent[i] {
                    for src in sinst.dataflow_srcs() {
                        let entry = &mut needed[src.index()];
                        *entry = Some(entry.map_or(i as u64, |cur| cur.max(i as u64)));
                    }
                }
            }

            let classes = (0..n)
                .map(|i| Criticality {
                    urgent: urgent[i],
                    ready: ready[i],
                })
                .collect();
            OracleClassifier::from_parts(classes, long_latency)
        }
    }

    /// Whether two oracles classify every instruction of `n` (and one past
    /// the end) the same way.
    fn same_oracle(a: &OracleClassifier, b: &OracleClassifier, n: usize) -> bool {
        a.len() == b.len()
            && (0..=n as u64).all(|s| {
                a.classify(SeqNum(s)) == b.classify(SeqNum(s))
                    && a.is_long_latency(SeqNum(s)) == b.is_long_latency(SeqNum(s))
            })
    }

    /// The one-sweep analysis agrees with the three-pass reference on every
    /// workload kernel, at windows from 8 to 4096 and under both the
    /// limit-study and the baseline memory hierarchy.
    #[test]
    fn one_sweep_analysis_matches_the_three_pass_reference() {
        const INSTS: usize = 60_000;
        for kind in ltp_workloads::WorkloadKind::ALL {
            let trace = ltp_workloads::trace(kind, 2015, INSTS);
            for mem_cfg in [
                MemoryConfig::limit_study(),
                MemoryConfig::micro2015_baseline(),
            ] {
                for window in [8, 256, 4096] {
                    let fast = OracleAnalysis::new(window).analyze(&trace, &mem_cfg);
                    let slow = reference::analyze(window, &trace, &mem_cfg);
                    assert!(
                        same_oracle(&fast, &slow, INSTS),
                        "{} at window {window} differs from the reference",
                        kind.name()
                    );
                }
            }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// One random instruction: an op (ALU, divide, load, store, branch),
        /// a destination that may be the zero register, up to three sources
        /// (the top byte of `srcs` counts them, the others name them) that
        /// may include it, and in `flags` a zero-idiom bit and an address
        /// drawn from a small set, so loads both hit and miss.
        fn inst(seq: u64, op: u8, dst: u8, srcs: u32, flags: u8) -> DynInst {
            let op = match op % 6 {
                0 | 1 => OpClass::IntAlu,
                2 => OpClass::IntDiv,
                3 => OpClass::Load,
                4 => OpClass::Store,
                _ => OpClass::Branch,
            };
            let reg = |r: u32| ArchReg::int((r % 8) as usize);
            let mut s = StaticInst::new(Pc(0x100 + 4 * seq), op);
            if !matches!(op, OpClass::Store | OpClass::Branch) {
                s = s.with_dst(reg(u32::from(dst)));
            }
            for k in 0..(srcs >> 24) % 4 {
                s = s.with_src(reg(srcs >> (8 * k)));
            }
            if flags & 7 == 0 {
                s = s.with_zero_idiom();
            }
            let addr = u64::from(flags >> 3);
            let mut d = DynInst::new(seq, s);
            if op.is_mem() {
                let far = (addr % 4) * 0x10_0000 * (1 + seq % 7);
                d = d.with_mem(MemAccess::qword(0x4000_0000 + far + addr * 64));
            }
            if op.is_branch() {
                d = d.with_branch(ltp_isa::BranchInfo {
                    taken: addr & 1 == 1,
                    target: Pc(0x100),
                });
            }
            d
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Short random traces classify the same way in one sweep as in
            /// three passes.
            #[test]
            fn random_traces_match_the_reference(
                raw in prop::collection::vec(
                    (any::<u8>(), any::<u8>(), any::<u32>(), any::<u8>()),
                    0..120,
                ),
                window in 1u64..40,
            ) {
                let trace: Vec<DynInst> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(op, dst, srcs, flags))| inst(i as u64, op, dst, srcs, flags))
                    .collect();
                let mem_cfg = MemoryConfig::limit_study();
                let fast = OracleAnalysis::new(window).analyze(&trace, &mem_cfg);
                let slow = reference::analyze(window, &trace, &mem_cfg);
                prop_assert!(same_oracle(&fast, &slow, trace.len()));
            }
        }
    }

    /// Builds the paper's Figure 2 loop:
    /// ```text
    /// A  addrA = baseA + j      (U+R)
    /// B  t1 = load addrA        (U+R, hits)
    /// C  addrB = baseB + t1     (U+R)
    /// D  d = load addrB         (U+R, misses)
    /// E  j = j - 1              (U+R)
    /// F  d = d + 5              (NU+NR)
    /// G  addrC = baseC + j      (NU+R)
    /// H  store d -> addrC       (NU+NR, hits)
    /// I  i = i + 1              (NU+R)
    /// J  t2 = i - 10000         (NU+R)
    /// K  bltz t2, loop          (NU+R)
    /// ```
    fn figure2_trace(iterations: usize) -> Vec<DynInst> {
        // registers: r1=j, r2=baseA, r3=addrA, r4=t1, r5=baseB, r6=addrB,
        // r7=d, r8=baseC, r9=addrC, r10=i, r11=t2
        let mut out = Vec::new();
        let mut seq = 0u64;
        for it in 0..iterations {
            let it = it as u64;
            let pcb = 0x1000u64;
            let a = StaticInst::new(Pc(pcb), OpClass::IntAlu)
                .with_dst(ArchReg::int(3))
                .with_src(ArchReg::int(2))
                .with_src(ArchReg::int(1));
            let b = StaticInst::new(Pc(pcb + 4), OpClass::Load)
                .with_dst(ArchReg::int(4))
                .with_src(ArchReg::int(3));
            let c = StaticInst::new(Pc(pcb + 8), OpClass::IntAlu)
                .with_dst(ArchReg::int(6))
                .with_src(ArchReg::int(5))
                .with_src(ArchReg::int(4));
            let d = StaticInst::new(Pc(pcb + 12), OpClass::Load)
                .with_dst(ArchReg::int(7))
                .with_src(ArchReg::int(6));
            let e = StaticInst::new(Pc(pcb + 16), OpClass::IntAlu)
                .with_dst(ArchReg::int(1))
                .with_src(ArchReg::int(1));
            let f = StaticInst::new(Pc(pcb + 20), OpClass::IntAlu)
                .with_dst(ArchReg::int(7))
                .with_src(ArchReg::int(7));
            let g = StaticInst::new(Pc(pcb + 24), OpClass::IntAlu)
                .with_dst(ArchReg::int(9))
                .with_src(ArchReg::int(8))
                .with_src(ArchReg::int(1));
            let h = StaticInst::new(Pc(pcb + 28), OpClass::Store)
                .with_src(ArchReg::int(7))
                .with_src(ArchReg::int(9));
            let i_ = StaticInst::new(Pc(pcb + 32), OpClass::IntAlu)
                .with_dst(ArchReg::int(10))
                .with_src(ArchReg::int(10));
            let j_ = StaticInst::new(Pc(pcb + 36), OpClass::IntAlu)
                .with_dst(ArchReg::int(11))
                .with_src(ArchReg::int(10));
            let k = StaticInst::new(Pc(pcb + 40), OpClass::Branch).with_src(ArchReg::int(11));

            // A[] streams sequentially (hits after the prefetcher warms up /
            // stays in the same line); B[A[j]] is an unpredictable far address
            // (misses even with the stride prefetcher); C[i] streams (hits).
            let a_addr = 0x10_0000 + it * 8;
            let b_addr = 0x4000_0000 + (it.wrapping_mul(2_654_435_761) % 1_000_000) * 64;
            let c_addr = 0x20_0000 + it * 8;

            let mut push = |s: StaticInst, mem: Option<u64>| {
                let mut di = DynInst::new(seq, s);
                if let Some(addr) = mem {
                    di = di.with_mem(MemAccess::qword(addr));
                }
                if s.op().is_branch() {
                    di = di.with_branch(ltp_isa::BranchInfo {
                        taken: true,
                        target: Pc(pcb),
                    });
                }
                out.push(di);
                seq += 1;
            };

            push(a, None);
            push(b, Some(a_addr));
            push(c, None);
            push(d, Some(b_addr));
            push(e, None);
            push(f, None);
            push(g, None);
            push(h, Some(c_addr));
            push(i_, None);
            push(j_, None);
            push(k, None);
        }
        out
    }

    #[test]
    fn figure2_classification_matches_paper() {
        let trace = figure2_trace(40);
        let oracle = OracleAnalysis::default().analyze(&trace, &MemoryConfig::limit_study());

        // Look at a steady-state iteration (skip warm-up iterations where the
        // UIT-equivalent backward pass has no later consumer yet and the B[]
        // misses have not yet established themselves).
        let base = 20 * 11;
        let class = |offset: usize| oracle.classify(SeqNum((base + offset) as u64));

        // D (offset 3): long-latency load, urgent.
        assert!(oracle.is_long_latency(SeqNum((base + 3) as u64)));
        assert!(class(3).urgent, "the missing load D must be urgent");
        // A, B, C (address chain of D) are urgent.
        assert!(class(0).urgent, "A generates the address chain of D");
        assert!(class(1).urgent, "B feeds addrB");
        assert!(class(2).urgent, "C computes addrB");
        // E feeds next iteration's A: urgent.
        assert!(
            class(4).urgent,
            "E (j update) feeds the next iteration's slice"
        );
        // F and H depend on D: non-ready and non-urgent.
        assert!(class(5).non_urgent() && class(5).non_ready(), "F is NU+NR");
        assert!(class(7).non_urgent() && class(7).non_ready(), "H is NU+NR");
        // G, I, J, K: non-urgent and ready.
        for off in [6usize, 8, 9, 10] {
            assert!(class(off).non_urgent(), "offset {off} must be non-urgent");
            assert!(class(off).ready, "offset {off} must be ready");
        }
    }

    #[test]
    fn class_histogram_sums_to_length() {
        let trace = figure2_trace(10);
        let oracle = OracleAnalysis::default().analyze(&trace, &MemoryConfig::limit_study());
        let hist = oracle.class_histogram();
        assert_eq!(hist.iter().sum::<u64>() as usize, oracle.len());
        assert!(!oracle.is_empty());
    }

    #[test]
    fn out_of_range_defaults_are_safe() {
        let oracle = OracleClassifier::from_parts(vec![], vec![]);
        assert_eq!(oracle.classify(SeqNum(42)), Criticality::NON_URGENT_READY);
        assert!(!oracle.is_long_latency(SeqNum(42)));
    }

    #[test]
    fn compute_only_trace_is_all_ready_non_urgent() {
        let mut trace = Vec::new();
        for s in 0..100u64 {
            let inst = StaticInst::new(Pc(0x100 + 4 * (s % 10)), OpClass::IntAlu)
                .with_dst(ArchReg::int(((s % 8) + 1) as usize))
                .with_src(ArchReg::int(((s % 7) + 1) as usize));
            trace.push(DynInst::new(s, inst));
        }
        let oracle = OracleAnalysis::default().analyze(&trace, &MemoryConfig::limit_study());
        for s in 0..100u64 {
            let c = oracle.classify(SeqNum(s));
            assert!(c.non_urgent() && c.ready);
        }
    }

    #[test]
    fn divide_consumers_are_non_ready() {
        let div = StaticInst::new(Pc(0x10), OpClass::IntDiv)
            .with_dst(ArchReg::int(1))
            .with_src(ArchReg::int(2));
        let user = StaticInst::new(Pc(0x14), OpClass::IntAlu)
            .with_dst(ArchReg::int(3))
            .with_src(ArchReg::int(1));
        let unrelated = StaticInst::new(Pc(0x18), OpClass::IntAlu)
            .with_dst(ArchReg::int(4))
            .with_src(ArchReg::int(5));
        let trace = vec![
            DynInst::new(0, div),
            DynInst::new(1, user),
            DynInst::new(2, unrelated),
        ];
        let oracle = OracleAnalysis::default().analyze(&trace, &MemoryConfig::limit_study());
        assert!(oracle.is_long_latency(SeqNum(0)));
        assert!(oracle.classify(SeqNum(1)).non_ready());
        assert!(oracle.classify(SeqNum(2)).ready);
    }

    #[test]
    #[should_panic(expected = "same instructions")]
    fn mismatched_parts_panic() {
        let _ = OracleClassifier::from_parts(vec![Criticality::URGENT_READY], vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = OracleAnalysis::new(0);
    }
}
