//! Pipeline configuration (Table 1 of the paper).
//!
//! The configuration splits into two halves along what functional warm-up
//! can observe:
//!
//! * the warm half, [`WarmupConfig`] — memory-hierarchy geometry (caches,
//!   prefetcher, DRAM, MSHRs), branch-predictor geometry, and the classifier
//!   *training* projection. This is everything
//!   [`FunctionalFastForward::advance_on`](crate::FunctionalFastForward)
//!   reads or trains, so warm state captured under one configuration is
//!   bit-exactly reusable under any other with the same `WarmupConfig`;
//! * the detail half — widths, ROB/IQ/LQ/SQ/PRF sizes, latency penalties,
//!   the full LTP configuration, SMT policy, and detailed-warm-up length.
//!   None of these are visible to the functional pass.
//!
//! [`PipelineConfig`] stays the flat struct every call site (and the
//! snapshot wire format) uses; [`PipelineConfig::warmup_config`] projects
//! the warm half with exhaustive destructuring, so adding a field to
//! `PipelineConfig` refuses to compile until it is assigned to a half —
//! the checkpoint-cache key stays principled by construction.

use crate::branch::PredictorGeometry;
use ltp_core::{ClassifierKind, LtpConfig};
use ltp_mem::MemoryConfig;

/// Number of functional units of each kind (index by
/// [`ltp_isa::FuKind`]-matching order used in `fu.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuCounts {
    /// Simple integer ALUs.
    pub int_alu: usize,
    /// Integer multiply/divide units.
    pub int_muldiv: usize,
    /// Floating point add/mul pipes.
    pub fp_alu: usize,
    /// Floating point divide/sqrt units.
    pub fp_divsqrt: usize,
    /// Load/store ports.
    pub mem: usize,
    /// Branch units.
    pub branch: usize,
}

impl FuCounts {
    /// A large-core mix matching the 6-wide issue of Table 1.
    #[must_use]
    pub fn large_core() -> FuCounts {
        FuCounts {
            int_alu: 4,
            int_muldiv: 1,
            fp_alu: 2,
            fp_divsqrt: 1,
            mem: 2,
            branch: 2,
        }
    }
}

/// How the sized back-end structures (ROB, IQ, LQ/SQ, physical registers)
/// are divided between the hardware threads of an SMT machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharePolicy {
    /// Every structure is statically split into equal per-thread partitions;
    /// a thread can never consume capacity its co-runner is not using.
    StaticPartition,
    /// Fully dynamic sharing: a thread may occupy any entry as long as the
    /// *combined* occupancy stays within the configured size. This is the
    /// policy under which LTP's parking visibly frees resources for the
    /// co-runner. Front-end bandwidth alternates round-robin.
    Shared,
    /// Dynamic sharing with ICOUNT-style fetch arbitration: each cycle the
    /// thread with the fewest instructions in the front end and issue queue
    /// fetches, renames, issues and commits first.
    Icount,
}

impl SharePolicy {
    /// Short label used in reports and bench names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SharePolicy::StaticPartition => "static",
            SharePolicy::Shared => "shared",
            SharePolicy::Icount => "icount",
        }
    }
}

/// SMT configuration of the core: number of hardware threads and the
/// back-end sharing policy. The default is a single-threaded machine, which
/// behaves (and must stay) bit-for-bit identical to the pre-SMT pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmtConfig {
    /// Number of hardware threads (1..=4; 1 = no SMT).
    pub threads: usize,
    /// How the back-end structures are shared between threads.
    pub policy: SharePolicy,
}

impl SmtConfig {
    /// A single-threaded machine (the policy is irrelevant and unused).
    #[must_use]
    pub fn single() -> SmtConfig {
        SmtConfig {
            threads: 1,
            policy: SharePolicy::Shared,
        }
    }

    /// A 2-way SMT machine with the given sharing policy.
    #[must_use]
    pub fn two_way(policy: SharePolicy) -> SmtConfig {
        SmtConfig { threads: 2, policy }
    }

    /// Whether more than one hardware thread is configured.
    #[must_use]
    pub fn is_smt(&self) -> bool {
        self.threads > 1
    }
}

/// How functional warm-up trains the criticality classifier under a given
/// [`LtpConfig`] — the projection of the classifier choice onto the warm-up
/// half of the configuration.
///
/// [`ClassifierKind::Uit`] and [`ClassifierKind::Oracle`] both start as a
/// UIT classifier of `uit_entries` entries that learns from every load
/// outcome the fast-forward feeds it, so they project to
/// [`ClassifierTraining::Trained`]; the control classifiers (Random,
/// AlwaysReady, ParkEverything) ignore load outcomes entirely and project
/// to [`ClassifierTraining::Inert`]. Two configurations whose projections
/// agree produce bit-identical classifier state from the same warm-up
/// stream — which is exactly the condition the checkpoint cache needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifierTraining {
    /// Warm-up is a no-op on the classifier: a fresh build is bit-identical
    /// to a warmed one.
    Inert,
    /// Warm-up trains a UIT + hit/miss predictor of this size.
    Trained {
        /// Number of UIT entries being trained.
        uit_entries: usize,
    },
}

impl ClassifierTraining {
    /// The training projection of an LTP configuration.
    #[must_use]
    pub fn of(ltp: &LtpConfig) -> ClassifierTraining {
        if ltp.classifier.trains_during_warmup() {
            ClassifierTraining::Trained {
                uit_entries: ltp.uit_entries,
            }
        } else {
            ClassifierTraining::Inert
        }
    }
}

/// The warm-up half of a [`PipelineConfig`]: everything the functional
/// fast-forward observes or trains. Configurations with equal `WarmupConfig`
/// halves can share cached warm state bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupConfig {
    /// Memory hierarchy geometry (caches, prefetcher, DRAM, MSHRs).
    pub mem: MemoryConfig,
    /// Branch predictor geometry trained by the functional pass.
    pub predictor: PredictorGeometry,
    /// How warm-up trains the criticality classifier.
    pub training: ClassifierTraining,
}

/// Full configuration of the out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Front-end width (fetch/decode/rename), instructions per cycle.
    pub front_width: usize,
    /// Issue width (instructions selected from the IQ per cycle).
    pub issue_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Reorder buffer entries.
    pub rob_size: usize,
    /// Instruction queue entries (`usize::MAX` = unlimited, limit study).
    pub iq_size: usize,
    /// Load queue entries.
    pub lq_size: usize,
    /// Store queue entries.
    pub sq_size: usize,
    /// *Available* integer physical registers beyond the architectural ones
    /// (the quantity swept in Figure 6, per footnote 4 of the paper).
    pub int_regs: usize,
    /// Available floating point registers (scaled together with `int_regs`).
    pub fp_regs: usize,
    /// Number of registers/LQ/SQ entries held in reserve for instructions
    /// leaving the LTP (deadlock avoidance, §5.4).
    pub ltp_reserve: usize,
    /// Front-end depth in cycles (fetch to rename).
    pub frontend_delay: u64,
    /// Branch misprediction redirect penalty in cycles.
    pub mispredict_penalty: u64,
    /// Functional unit mix.
    pub fu: FuCounts,
    /// Whether LQ/SQ allocation is delayed for parked instructions (only the
    /// LQ/SQ rows of the limit study enable this; the proposed design does
    /// not, §4.3).
    pub delay_lsq_alloc: bool,
    /// Memory hierarchy configuration.
    pub mem: MemoryConfig,
    /// LTP configuration (including the criticality classifier selection,
    /// [`LtpConfig::classifier`]).
    pub ltp: LtpConfig,
    /// Number of instructions of detailed pipeline warming before statistics
    /// are collected (the paper warms the pipeline for 100 k instructions).
    pub warmup_insts: u64,
    /// SMT configuration: thread count and back-end sharing policy.
    pub smt: SmtConfig,
}

impl PipelineConfig {
    /// Table 1: 8-wide front end, 6-wide issue, ROB 256, IQ 64, LQ 64, SQ 32,
    /// 128 int + 128 fp registers, no LTP.
    #[must_use]
    pub fn micro2015_baseline() -> PipelineConfig {
        PipelineConfig {
            front_width: 8,
            issue_width: 6,
            commit_width: 8,
            rob_size: 256,
            iq_size: 64,
            lq_size: 64,
            sq_size: 32,
            int_regs: 128,
            fp_regs: 128,
            ltp_reserve: 8,
            frontend_delay: 6,
            mispredict_penalty: 12,
            fu: FuCounts::large_core(),
            delay_lsq_alloc: false,
            mem: MemoryConfig::micro2015_baseline(),
            ltp: LtpConfig::disabled(),
            warmup_insts: 0,
            smt: SmtConfig::single(),
        }
    }

    /// The paper's proposed design: IQ reduced to 32, available registers to
    /// 96, plus a 128-entry 4-port Non-Urgent-only LTP (§5).
    #[must_use]
    pub fn ltp_proposed() -> PipelineConfig {
        PipelineConfig {
            iq_size: 32,
            int_regs: 96,
            fp_regs: 96,
            ltp: LtpConfig::nu_only_128x4(),
            ..PipelineConfig::micro2015_baseline()
        }
    }

    /// The small-IQ configuration without LTP (the red line of Figure 10:
    /// "IQ 32/RF 96 without LTP").
    #[must_use]
    pub fn small_no_ltp() -> PipelineConfig {
        PipelineConfig {
            iq_size: 32,
            int_regs: 96,
            fp_regs: 96,
            ..PipelineConfig::micro2015_baseline()
        }
    }

    /// Limit-study base: every sized resource unlimited, unlimited MSHRs,
    /// prefetcher enabled (the caller then constrains exactly one resource).
    #[must_use]
    pub fn limit_study_unlimited() -> PipelineConfig {
        PipelineConfig {
            iq_size: usize::MAX,
            lq_size: usize::MAX,
            sq_size: usize::MAX,
            int_regs: usize::MAX,
            fp_regs: usize::MAX,
            mem: MemoryConfig::limit_study(),
            ..PipelineConfig::micro2015_baseline()
        }
    }

    /// Returns a copy with a different IQ size.
    #[must_use]
    pub fn with_iq(mut self, iq_size: usize) -> PipelineConfig {
        self.iq_size = iq_size;
        self
    }

    /// Returns a copy with a different number of available registers (both
    /// classes scaled together, as in the paper).
    #[must_use]
    pub fn with_regs(mut self, regs: usize) -> PipelineConfig {
        self.int_regs = regs;
        self.fp_regs = regs;
        self
    }

    /// Returns a copy with a different load queue size.
    #[must_use]
    pub fn with_lq(mut self, lq_size: usize) -> PipelineConfig {
        self.lq_size = lq_size;
        self
    }

    /// Returns a copy with a different store queue size.
    #[must_use]
    pub fn with_sq(mut self, sq_size: usize) -> PipelineConfig {
        self.sq_size = sq_size;
        self
    }

    /// Returns a copy with a different LTP configuration.
    #[must_use]
    pub fn with_ltp(mut self, ltp: LtpConfig) -> PipelineConfig {
        self.ltp = ltp;
        self
    }

    /// Returns a copy using (or not using) the oracle classifier.
    /// `with_oracle(true)` selects [`ClassifierKind::Oracle`];
    /// `with_oracle(false)` falls back to [`ClassifierKind::Uit`] only when
    /// the oracle was selected, leaving any other classifier choice intact.
    #[must_use]
    pub fn with_oracle(mut self, use_oracle: bool) -> PipelineConfig {
        if use_oracle {
            self.ltp.classifier = ClassifierKind::Oracle;
        } else if self.ltp.classifier == ClassifierKind::Oracle {
            self.ltp.classifier = ClassifierKind::Uit;
        }
        self
    }

    /// Returns a copy with a different criticality classifier.
    #[must_use]
    pub fn with_classifier(mut self, classifier: ClassifierKind) -> PipelineConfig {
        self.ltp.classifier = classifier;
        self
    }

    /// Whether this configuration needs an ahead-of-time trace analysis
    /// attached before the run ([`ClassifierKind::Oracle`]).
    #[must_use]
    pub fn needs_oracle(&self) -> bool {
        self.ltp.classifier.needs_trace_oracle()
    }

    /// Returns a copy with a different memory configuration.
    #[must_use]
    pub fn with_mem(mut self, mem: MemoryConfig) -> PipelineConfig {
        self.mem = mem;
        self
    }

    /// Returns a copy with the given number of pipeline-warmup instructions.
    #[must_use]
    pub fn with_warmup(mut self, warmup_insts: u64) -> PipelineConfig {
        self.warmup_insts = warmup_insts;
        self
    }

    /// Returns a copy configured as a 2-way SMT machine with the given
    /// back-end sharing policy. The sized structures keep their configured
    /// *total* sizes; the policy decides how the two threads divide them.
    #[must_use]
    pub fn smt(mut self, policy: SharePolicy) -> PipelineConfig {
        self.smt = SmtConfig::two_way(policy);
        self
    }

    /// Returns a copy with an arbitrary SMT configuration (thread count and
    /// policy); `SmtConfig::single()` restores the single-threaded machine.
    #[must_use]
    pub fn with_smt(mut self, smt: SmtConfig) -> PipelineConfig {
        self.smt = smt;
        self
    }

    /// The warm-up half (what checkpoint-cache keys are derived from).
    ///
    /// The destructuring is exhaustive on purpose: a field added to
    /// `PipelineConfig` fails to compile here until it is named as warm
    /// (read below) or detail (`_`), keeping the checkpoint-cache key honest.
    #[must_use]
    pub fn warmup_config(&self) -> WarmupConfig {
        let PipelineConfig {
            front_width: _,
            issue_width: _,
            commit_width: _,
            rob_size: _,
            iq_size: _,
            lq_size: _,
            sq_size: _,
            int_regs: _,
            fp_regs: _,
            ltp_reserve: _,
            frontend_delay: _,
            mispredict_penalty: _,
            fu: _,
            delay_lsq_alloc: _,
            mem,
            ltp,
            warmup_insts: _,
            smt: _,
        } = *self;
        WarmupConfig {
            mem,
            // The pipeline builds the default-sized predictor for every
            // configuration today; the geometry still travels in the warm
            // half so the cache key changes if that ever changes.
            predictor: PredictorGeometry::default_sized(),
            training: ClassifierTraining::of(&ltp),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any width or structurally required size is zero.
    pub fn validate(&self) {
        assert!(self.front_width > 0, "front-end width must be positive");
        assert!(self.issue_width > 0, "issue width must be positive");
        assert!(self.commit_width > 0, "commit width must be positive");
        assert!(self.rob_size > 0, "ROB must have entries");
        assert!(self.iq_size > 0, "IQ must have entries");
        assert!(
            self.lq_size > 0 && self.sq_size > 0,
            "LQ/SQ must have entries"
        );
        assert!(
            self.int_regs > 0 && self.fp_regs > 0,
            "register file must have entries"
        );
        assert!(
            (1..=4).contains(&self.smt.threads),
            "SMT thread count must be in 1..=4"
        );
        if self.smt.is_smt() && self.smt.policy == SharePolicy::StaticPartition {
            let n = self.smt.threads;
            assert!(
                self.rob_size / n > 0
                    && self.iq_size / n > 0
                    && self.lq_size / n > 0
                    && self.sq_size / n > 0
                    && self.int_regs / n > 0
                    && self.fp_regs / n > 0,
                "static partitioning needs at least one entry per thread in every structure"
            );
        }
        self.ltp.validate();
    }

    /// Total integer physical registers (architectural + available), the
    /// quantity the energy model sizes the RF with.
    #[must_use]
    pub fn total_int_phys_regs(&self) -> usize {
        self.int_regs.saturating_add(ltp_isa::NUM_ARCH_INT_REGS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = PipelineConfig::micro2015_baseline();
        assert_eq!(c.front_width, 8);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.iq_size, 64);
        assert_eq!(c.lq_size, 64);
        assert_eq!(c.sq_size, 32);
        assert_eq!(c.int_regs, 128);
        c.validate();
    }

    #[test]
    fn proposed_design_shrinks_iq_and_rf() {
        let c = PipelineConfig::ltp_proposed();
        assert_eq!(c.iq_size, 32);
        assert_eq!(c.int_regs, 96);
        assert!(c.ltp.mode.is_enabled());
        c.validate();
    }

    #[test]
    fn limit_study_is_unlimited() {
        let c = PipelineConfig::limit_study_unlimited();
        assert_eq!(c.iq_size, usize::MAX);
        assert_eq!(c.lq_size, usize::MAX);
        assert_eq!(c.int_regs, usize::MAX);
        assert_eq!(c.mem.mshrs, usize::MAX);
        c.validate();
    }

    #[test]
    fn builders_apply() {
        let c = PipelineConfig::limit_study_unlimited()
            .with_iq(16)
            .with_regs(64)
            .with_lq(8)
            .with_sq(8)
            .with_oracle(true)
            .with_warmup(1000);
        assert_eq!(c.iq_size, 16);
        assert_eq!(c.int_regs, 64);
        assert_eq!(c.fp_regs, 64);
        assert_eq!(c.lq_size, 8);
        assert_eq!(c.sq_size, 8);
        assert!(c.needs_oracle());
        assert_eq!(c.warmup_insts, 1000);
        let c = c.with_classifier(ClassifierKind::AlwaysReady);
        assert!(!c.needs_oracle());
        assert_eq!(c.ltp.classifier, ClassifierKind::AlwaysReady);
    }

    #[test]
    #[should_panic(expected = "IQ must have entries")]
    fn zero_iq_panics() {
        PipelineConfig::micro2015_baseline().with_iq(0).validate();
    }

    #[test]
    fn smt_builders_apply() {
        let c = PipelineConfig::micro2015_baseline();
        assert_eq!(c.smt, SmtConfig::single());
        assert!(!c.smt.is_smt());
        let c = c.smt(SharePolicy::Icount);
        assert_eq!(c.smt.threads, 2);
        assert_eq!(c.smt.policy, SharePolicy::Icount);
        assert!(c.smt.is_smt());
        c.validate();
        let c = c.with_smt(SmtConfig::single());
        assert!(!c.smt.is_smt());
        assert_eq!(SharePolicy::StaticPartition.label(), "static");
        assert_eq!(SharePolicy::Shared.label(), "shared");
        assert_eq!(SharePolicy::Icount.label(), "icount");
    }

    #[test]
    #[should_panic(expected = "at least one entry per thread")]
    fn static_partition_needs_entries_per_thread() {
        PipelineConfig::micro2015_baseline()
            .with_sq(1)
            .smt(SharePolicy::StaticPartition)
            .validate();
    }

    #[test]
    fn total_phys_regs_adds_architectural() {
        let c = PipelineConfig::micro2015_baseline();
        assert_eq!(c.total_int_phys_regs(), 128 + ltp_isa::NUM_ARCH_INT_REGS);
    }

    #[test]
    fn training_projection_follows_classifier_kind() {
        let trained = PipelineConfig::ltp_proposed();
        assert_eq!(
            ClassifierTraining::of(&trained.ltp),
            ClassifierTraining::Trained {
                uit_entries: trained.ltp.uit_entries
            }
        );
        let inert = trained.with_classifier(ClassifierKind::AlwaysReady);
        assert_eq!(
            ClassifierTraining::of(&inert.ltp),
            ClassifierTraining::Inert
        );
    }

    mod warm_key {
        use super::*;
        use ltp_core::LtpMode;
        use proptest::prelude::*;

        /// Applies a random *detail-only* mutation set to a configuration:
        /// nothing here may leak into the warm-up half.
        #[allow(clippy::too_many_arguments)]
        fn mutate_detail(
            mut cfg: PipelineConfig,
            rob: usize,
            iq: usize,
            lq: usize,
            sq: usize,
            regs: usize,
            reserve: usize,
            mode_sel: u8,
            monitor: bool,
            entries: usize,
            tickets: usize,
            swap_trained_kind: bool,
        ) -> PipelineConfig {
            cfg.rob_size = rob;
            cfg.iq_size = iq;
            cfg.lq_size = lq;
            cfg.sq_size = sq;
            cfg.int_regs = regs;
            cfg.fp_regs = regs;
            cfg.ltp_reserve = reserve;
            cfg.ltp.mode = match mode_sel % 4 {
                0 => LtpMode::Off,
                1 => LtpMode::NonUrgentOnly,
                2 => LtpMode::NonReadyOnly,
                _ => LtpMode::Both,
            };
            cfg.ltp.use_monitor = monitor;
            cfg.ltp.entries = entries;
            cfg.ltp.num_tickets = tickets;
            if swap_trained_kind {
                // Uit <-> Oracle both train the same UIT during warm-up, so
                // the swap is a detail-only change by construction.
                cfg.ltp.classifier = match cfg.ltp.classifier {
                    ClassifierKind::Uit => ClassifierKind::Oracle,
                    other => other,
                };
            }
            cfg
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The warm-up key is invariant under every detail-only
            /// dimension the sweeps vary: ROB/IQ/LQ/SQ/PRF sizes, the LTP
            /// reserve, LTP mode/entries/tickets/monitor, and classifier
            /// swaps within the same training projection.
            #[test]
            fn detail_changes_keep_warm_key(
                rob in 16usize..512,
                iq in 4usize..256,
                lq in 4usize..128,
                sq in 4usize..64,
                regs in 32usize..256,
                reserve in 1usize..16,
                mode_sel in 0u8..4,
                monitor in any::<bool>(),
                entries in 1usize..512,
                tickets in 1usize..128,
                swap in any::<bool>(),
            ) {
                let base = PipelineConfig::ltp_proposed();
                let mutated = mutate_detail(
                    base, rob, iq, lq, sq, regs, reserve, mode_sel, monitor,
                    entries, tickets, swap,
                );
                prop_assert_eq!(
                    mutated.warmup_config().fingerprint(),
                    base.warmup_config().fingerprint()
                );
            }

            /// Anything the functional pass *can* observe moves the key:
            /// memory geometry (prefetcher, MSHRs), predictor geometry, the
            /// trained UIT size, and the training projection itself.
            #[test]
            fn warm_changes_move_warm_key(
                mshrs in 1usize..64,
                uit in 1usize..1024,
                table_shift in 1u32..4,
            ) {
                let base = PipelineConfig::ltp_proposed();
                let key0 = base.warmup_config().fingerprint();

                let mut no_pf = base;
                no_pf.mem = no_pf.mem.without_prefetcher();
                prop_assert_ne!(no_pf.warmup_config().fingerprint(), key0);

                if mshrs != base.mem.mshrs {
                    let mut small_mshrs = base;
                    small_mshrs.mem.mshrs = mshrs;
                    prop_assert_ne!(small_mshrs.warmup_config().fingerprint(), key0);
                }

                if uit != base.ltp.uit_entries {
                    let mut other_uit = base;
                    other_uit.ltp = other_uit.ltp.with_uit_entries(uit);
                    prop_assert_ne!(other_uit.warmup_config().fingerprint(), key0);
                }

                let inert = base.with_classifier(ClassifierKind::AlwaysReady);
                prop_assert_ne!(inert.warmup_config().fingerprint(), key0);

                let mut warm = base.warmup_config();
                warm.predictor.table_entries <<= table_shift;
                prop_assert_ne!(warm.fingerprint(), key0);
            }
        }
    }
}
