//! Criticality classification.
//!
//! The paper's LTP unit decides *what to park* from a criticality
//! classification computed at rename (§2, §5.1). [`Classifier`] is the closed
//! set of policies [`crate::LtpUnit`] can consult, and a configuration picks
//! one with [`ClassifierKind`]: the classification policy changes while the
//! pipeline substrate stays fixed, the methodology of the criticality
//! literature (CG-OoO, criticality-aware multiprocessors): compare
//! predictors, keep the machine.
//!
//! The variants:
//!
//! * [`Classifier::Uit`] — the paper's realistic design: a PC-indexed Urgent
//!   Instruction Table with iterative backward dependency analysis plus a
//!   gshare-style LLC hit/miss predictor (§5.1).
//! * [`Classifier::Oracle`] — perfect per-instruction classification from an
//!   ahead-of-time trace analysis (§4, the limit study).
//! * [`Classifier::Random`] — an unbiased baseline that calls a configurable
//!   fraction of instructions Non-Urgent at random; separates the benefit of
//!   *which* instructions are parked from the benefit of parking per se.
//! * [`Classifier::AlwaysReady`] — calls everything Urgent + Ready so nothing
//!   is ever parkable: the "classification off" control.
//! * [`Classifier::ParkEverything`] — calls everything Non-Urgent: the upper
//!   bound on parking pressure (every instruction takes the LTP path whenever
//!   the monitor enables parking).

use crate::unit::RenamedInst;
use crate::OracleClassifier;
use ltp_isa::{ArchReg, Pc};
use ltp_mem::HitMissPredictor;

/// One observed load outcome, as fed to the batched classifier/LTP-unit
/// feedback paths ([`Classifier::on_load_outcomes`],
/// [`crate::LtpUnit::on_load_outcomes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Program counter of the load.
    pub pc: Pc,
    /// Whether the load missed the LLC (a long-latency access).
    pub missed_llc: bool,
    /// Cycle at which the outcome was observed (the functional clock during
    /// fast-forward); arms the on/off monitor.
    pub now: crate::Cycle,
}

/// What a classifier reports about one instruction at rename time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// The instruction is an ancestor of a long-latency instruction and must
    /// execute quickly (it will not be parked by the Non-Urgent rule).
    pub urgent: bool,
    /// Force the instruction to be treated as Ready even if it inherited
    /// outstanding tickets from its sources. The oracle uses this when its
    /// dataflow analysis knows the long-latency producer completed long ago;
    /// ticket-driven classifiers leave it `false` and let the inherited
    /// ticket set decide readiness.
    pub force_ready: bool,
    /// The instruction is (predicted or known to be) long-latency itself: an
    /// LLC-missing load, a divide or a square root. Long-latency producers
    /// get a ticket (with Non-Ready parking) and mark the ROB for the §3.2
    /// wakeup boundary.
    pub long_latency: bool,
}

/// A criticality classification policy, consulted by [`crate::LtpUnit`] for
/// every renamed instruction, with everything it has *learned* so far (UIT
/// contents, hit/miss predictor counters, the random stream position):
/// machine snapshots encode it as it stands, so a restored machine
/// classifies bit-for-bit like the original.
///
/// The unit keeps ticket inheritance (readiness tracking through the RAT
/// extension) to itself — a classifier only decides *urgency*, whether to
/// override readiness, and whether the instruction is a long-latency
/// producer.
#[derive(Debug, Clone)]
pub enum Classifier {
    /// The paper's realistic UIT + hit/miss-predictor design (§5.1).
    Uit(UitClassifier),
    /// Perfect classification from an ahead-of-time trace analysis (§4),
    /// attached with [`crate::LtpUnit::set_oracle`].
    Oracle(OracleClassifier),
    /// Random urgency at a calibrated rate.
    Random(RandomClassifier),
    /// Calls every instruction Urgent + Ready: nothing is ever parkable, so
    /// the machine behaves like the no-LTP baseline even with parking
    /// enabled.
    AlwaysReady,
    /// Calls every instruction Non-Urgent: maximal parking pressure, the
    /// upper bound on how much traffic the LTP structures can see.
    ParkEverything,
}

impl Classifier {
    /// Classifies one instruction at rename time. `producer_pc` resolves a
    /// source register to the PC of its in-flight producer, when one exists;
    /// only the UIT's iterative backward dependency analysis (§5.1) calls
    /// it, and only for instructions it finds urgent.
    pub fn assess(
        &mut self,
        inst: &RenamedInst,
        producer_pc: impl Fn(ArchReg) -> Option<Pc>,
    ) -> Classification {
        // Without a predictor only architecturally long-latency operations
        // are known ahead of execution.
        let long_latency = inst.op.is_long_latency_arith();
        match self {
            Classifier::Uit(c) => c.assess(inst, producer_pc),
            Classifier::Oracle(c) => {
                let class = c.classify(inst.seq);
                Classification {
                    urgent: class.urgent,
                    // The oracle may say "ready" even though tickets were
                    // inherited (e.g. the producer completed long ago);
                    // trust the oracle for readiness and drop the inherited
                    // tickets in that case.
                    force_ready: class.ready,
                    long_latency: c.is_long_latency(inst.seq),
                }
            }
            Classifier::Random(c) => Classification {
                urgent: !c.draw_non_urgent(),
                force_ready: false,
                long_latency,
            },
            Classifier::AlwaysReady => Classification {
                urgent: true,
                force_ready: true,
                long_latency,
            },
            Classifier::ParkEverything => Classification {
                urgent: false,
                force_ready: false,
                long_latency,
            },
        }
    }

    /// Feedback from load execution: the load at `pc` hit or missed the LLC.
    /// Only the UIT classifier learns from it.
    pub fn on_load_outcome(&mut self, pc: Pc, was_llc_miss: bool) {
        if let Classifier::Uit(c) = self {
            c.on_load_outcome(pc, was_llc_miss);
        }
    }

    /// Batched load-outcome feedback: equivalent to calling
    /// [`Classifier::on_load_outcome`] for each element in order. The
    /// functional fast-forward mode of sampled simulation feeds a whole
    /// interval's load outcomes at once.
    pub fn on_load_outcomes(&mut self, outcomes: &[LoadOutcome]) {
        if let Classifier::Uit(c) = self {
            for o in outcomes {
                c.on_load_outcome(o.pc, o.missed_llc);
            }
        }
    }

    /// Short name for reports and sweeps.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Classifier::Uit(_) => "uit",
            Classifier::Oracle(_) => "oracle",
            Classifier::Random(_) => "random",
            Classifier::AlwaysReady => "always-ready",
            Classifier::ParkEverything => "park-everything",
        }
    }
}

/// Which [`Classifier`] a simulation point uses, selectable from the
/// configuration so sweeps can enumerate classifiers as a first-class
/// dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// The paper's realistic UIT + hit/miss-predictor design (§5.1).
    Uit,
    /// Perfect classification from ahead-of-time trace analysis (§4). The
    /// harness must attach the analysed [`crate::OracleClassifier`] with
    /// [`crate::LtpUnit::set_oracle`] before the run; a pipeline run with
    /// this kind selected but no oracle attached is refused (it would
    /// silently report fallback-classified numbers as "oracle").
    Oracle,
    /// Random urgency: each instruction is Non-Urgent with probability
    /// `non_urgent_percent`/100, drawn from a deterministic xorshift stream.
    Random {
        /// Probability (in percent, 0..=100) of classifying Non-Urgent.
        non_urgent_percent: u8,
        /// Seed of the deterministic random stream.
        seed: u64,
    },
    /// Everything Urgent + Ready: parking never triggers.
    AlwaysReady,
    /// Everything Non-Urgent: maximal parking pressure.
    ParkEverything,
}

impl ClassifierKind {
    /// The classifier kinds a sweep can enumerate without extra inputs
    /// (everything but [`ClassifierKind::Oracle`], which needs a trace).
    pub const SWEEPABLE: [ClassifierKind; 4] = [
        ClassifierKind::Uit,
        ClassifierKind::Random {
            non_urgent_percent: 50,
            seed: 0x5eed,
        },
        ClassifierKind::AlwaysReady,
        ClassifierKind::ParkEverything,
    ];

    /// Whether this kind needs an ahead-of-time trace analysis attached.
    #[must_use]
    pub fn needs_trace_oracle(self) -> bool {
        self == ClassifierKind::Oracle
    }

    /// Whether functional warm-up trains this kind's classifier state.
    ///
    /// [`ClassifierKind::Uit`] and [`ClassifierKind::Oracle`] both
    /// [`build`](ClassifierKind::build) a [`UitClassifier`] whose UIT and
    /// hit/miss predictor learn from every
    /// [`on_load_outcome`](Classifier::on_load_outcome) during warm-up (the
    /// oracle replaces it only when attached, after any warm-up). The
    /// remaining kinds ignore `on_load_outcome` ([`ClassifierKind::Random`]'s
    /// stream only advances in [`assess`](Classifier::assess)), so a freshly
    /// built classifier is bit-identical to a warmed one. Checkpoint caching
    /// keys on this: warm state captured under one detail configuration can
    /// be restored under another exactly when both sides train the same way.
    #[must_use]
    pub fn trains_during_warmup(self) -> bool {
        matches!(self, ClassifierKind::Uit | ClassifierKind::Oracle)
    }

    /// Label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ClassifierKind::Uit => "uit",
            ClassifierKind::Oracle => "oracle",
            ClassifierKind::Random { .. } => "random",
            ClassifierKind::AlwaysReady => "always-ready",
            ClassifierKind::ParkEverything => "park-everything",
        }
    }

    /// Builds the classifier for this kind. `uit_entries` sizes the UIT for
    /// [`ClassifierKind::Uit`]; [`ClassifierKind::Oracle`] also starts as a
    /// UIT classifier until the analysed oracle is attached.
    #[must_use]
    pub fn build(self, uit_entries: usize) -> Classifier {
        match self {
            ClassifierKind::Uit | ClassifierKind::Oracle => {
                Classifier::Uit(UitClassifier::new(uit_entries))
            }
            ClassifierKind::Random {
                non_urgent_percent,
                seed,
            } => Classifier::Random(RandomClassifier::new(non_urgent_percent, seed)),
            ClassifierKind::AlwaysReady => Classifier::AlwaysReady,
            ClassifierKind::ParkEverything => Classifier::ParkEverything,
        }
    }
}

/// The paper's realistic classification hardware (§5.1): an Urgent
/// Instruction Table learning the ancestors of long-latency instructions by
/// iterative backward dependency analysis, and an LLC hit/miss predictor
/// identifying prospective long-latency loads.
#[derive(Debug, Clone)]
pub struct UitClassifier {
    pub(crate) uit: crate::Uit,
    pub(crate) predictor: HitMissPredictor,
}

impl UitClassifier {
    /// Creates the classifier with a `uit_entries`-entry UIT and the default
    /// hit/miss predictor sizing.
    #[must_use]
    pub fn new(uit_entries: usize) -> UitClassifier {
        UitClassifier {
            uit: crate::Uit::new(uit_entries.max(1)),
            predictor: HitMissPredictor::default_sized(),
        }
    }

    fn assess(
        &mut self,
        inst: &RenamedInst,
        producer_pc: impl Fn(ArchReg) -> Option<Pc>,
    ) -> Classification {
        // Urgency: the instruction's own PC is in the UIT (it is a learned
        // ancestor of a long-latency instruction, or a long-latency load
        // itself).
        let urgent = self.uit.contains(inst.pc);

        // Backward propagation (Iterative Backward Dependency Analysis): if
        // this instruction is Urgent, its producers become Urgent too.
        if urgent {
            for &src in &inst.srcs {
                if let Some(producer) = producer_pc(src) {
                    self.uit.insert(producer);
                }
            }
        }

        // Long-latency producer: a load predicted to miss the LLC, or
        // long-latency arithmetic.
        let long_latency = inst.op.is_long_latency_arith()
            || (inst.op.is_load() && self.predictor.predict_miss(inst.pc));

        Classification {
            urgent,
            force_ready: false,
            long_latency,
        }
    }

    fn on_load_outcome(&mut self, pc: Pc, was_llc_miss: bool) {
        self.predictor.update(pc, was_llc_miss);
        if was_llc_miss {
            self.uit.insert(pc);
        }
    }
}

/// Classifies a configurable fraction of instructions Non-Urgent, at random.
///
/// A deliberately information-free baseline: comparing it against
/// [`UitClassifier`] separates "parking the *right* instructions" from
/// "parking *some* instructions" (freeing IQ/RF pressure helps a little even
/// with random victims; picking the non-critical ones is where the paper's
/// speedup comes from).
#[derive(Debug, Clone)]
pub struct RandomClassifier {
    pub(crate) non_urgent_percent: u8,
    pub(crate) state: u64,
}

impl RandomClassifier {
    /// Creates the classifier. `non_urgent_percent` is clamped to 100.
    #[must_use]
    pub fn new(non_urgent_percent: u8, seed: u64) -> RandomClassifier {
        RandomClassifier {
            non_urgent_percent: non_urgent_percent.min(100),
            // Only a zero state is degenerate for xorshift (it emits zeros
            // forever); every other seed keeps its own distinct stream.
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Draws the next Non-Urgent verdict from the stream.
    fn draw_non_urgent(&mut self) -> bool {
        // xorshift64: deterministic, dependency-free, good enough for an
        // unbiased coin.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x % 100 < u64::from(self.non_urgent_percent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_isa::{ArchReg, DynInst, OpClass, StaticInst};

    fn alu(seq: u64, pc: u64) -> RenamedInst {
        RenamedInst::from_dyn(&DynInst::new(
            seq,
            StaticInst::new(Pc(pc), OpClass::IntAlu)
                .with_dst(ArchReg::int(1))
                .with_src(ArchReg::int(2)),
        ))
    }

    fn no_producers(_src: ArchReg) -> Option<Pc> {
        None
    }

    #[test]
    fn uit_learns_urgency_through_backward_propagation() {
        let mut c = Classifier::Uit(UitClassifier::new(64));
        assert!(!c.assess(&alu(0, 0x100), no_producers).urgent);
        c.on_load_outcome(Pc(0x100), true);
        // Now 0x100 is urgent, and its producer at 0x90 becomes urgent too.
        assert!(c.assess(&alu(1, 0x100), |_| Some(Pc(0x90))).urgent);
        assert!(c.assess(&alu(2, 0x90), no_producers).urgent);
        assert_eq!(c.name(), "uit");
    }

    #[test]
    fn random_classifier_is_deterministic_and_roughly_calibrated() {
        let mut a = Classifier::Random(RandomClassifier::new(30, 42));
        let mut b = Classifier::Random(RandomClassifier::new(30, 42));
        let mut non_urgent = 0;
        for s in 0..1000 {
            let ca = a.assess(&alu(s, 0x10), no_producers);
            let cb = b.assess(&alu(s, 0x10), no_producers);
            assert_eq!(ca, cb, "same seed must give the same stream");
            if !ca.urgent {
                non_urgent += 1;
            }
        }
        assert!(
            (200..400).contains(&non_urgent),
            "~30% non-urgent expected, got {non_urgent}/1000"
        );
        // Adjacent seeds (the harness's `seed`/`seed + 1` discipline) must
        // produce distinct streams, and seed 0 must not degenerate.
        let mut even = Classifier::Random(RandomClassifier::new(50, 4));
        let mut odd = Classifier::Random(RandomClassifier::new(50, 5));
        let mut zero = Classifier::Random(RandomClassifier::new(50, 0));
        let streams: Vec<(bool, bool, bool)> = (0..64)
            .map(|s| {
                (
                    even.assess(&alu(s, 0x10), no_producers).urgent,
                    odd.assess(&alu(s, 0x10), no_producers).urgent,
                    zero.assess(&alu(s, 0x10), no_producers).urgent,
                )
            })
            .collect();
        assert!(streams.iter().any(|&(e, o, _)| e != o), "seed 4 == seed 5");
        assert!(
            streams.iter().any(|&(_, _, z)| z) && streams.iter().any(|&(_, _, z)| !z),
            "seed 0 must still produce a mixed stream"
        );
    }

    #[test]
    fn degenerate_classifiers_are_constant() {
        let mut always = Classifier::AlwaysReady;
        let c = always.assess(&alu(0, 0x10), no_producers);
        assert!(c.urgent && c.force_ready);
        let mut park = Classifier::ParkEverything;
        let c = park.assess(&alu(0, 0x10), no_producers);
        assert!(!c.urgent && !c.force_ready);
    }

    #[test]
    fn kind_builds_matching_classifier() {
        for kind in ClassifierKind::SWEEPABLE {
            let built = kind.build(64);
            assert_eq!(built.name(), kind.label());
            // The classifier must be cloneable.
            let _copy = built.clone();
        }
        assert!(ClassifierKind::Oracle.needs_trace_oracle());
        assert!(!ClassifierKind::Uit.needs_trace_oracle());
        assert_eq!(ClassifierKind::Oracle.label(), "oracle");
        // Oracle starts as a UIT until the trace analysis is attached.
        assert_eq!(ClassifierKind::Oracle.build(64).name(), "uit");
    }
}
