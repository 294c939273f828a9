//! Functional warm-up mode for sampled simulation.
//!
//! Interval sampling (SMARTS-style) needs a way to move *between* detailed
//! samples that is much cheaper than detailed simulation but keeps the
//! long-lived microarchitectural state warm. [`FunctionalFastForward`]
//! provides that mode: it replays the trace **functionally** — cache contents
//! via [`ltp_mem::MemoryHierarchy::warm_observing`], the gshare branch
//! predictor, and the LTP unit's learned state (UIT insertions, hit/miss
//! predictor training and the on/off monitor via
//! [`ltp_core::LtpUnit::on_load_outcome`]) — without modelling any pipeline
//! timing, at an order of magnitude above detailed-simulation speed.
//!
//! At any instruction boundary [`FunctionalFastForward::checkpoint`] emits a
//! [`Snapshot`] with an **empty pipeline** over the warm state: the detailed
//! interval simulation resumes from it, runs a short detailed warm-up to fill
//! the window structures, and then measures. Unlike a mid-run detailed
//! checkpoint this is an approximation (the pipeline starts drained and the
//! clock advances one cycle per instruction during fast-forward); the
//! `experiments sample` harness measures the resulting IPC error, which is
//! within a couple of percent on the bundled kernels.

use crate::branch::BranchPredictor;
use crate::config::{ClassifierTraining, PipelineConfig};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::Processor;
use ltp_core::LoadOutcome;
use ltp_isa::{DecodedTrace, DynInst};
use ltp_mem::{AccessKind, Cycle, MemoryRequest};

/// Functional (no-timing) machine state advanced between detailed samples.
#[derive(Debug)]
pub struct FunctionalFastForward {
    cpu: Processor,
    predictor: BranchPredictor,
    consumed: u64,
    llc_misses: u64,
    // Scratch buffers reused across `advance_on` calls so the hot functional
    // loop allocates nothing after the first interval.
    mem_out_scratch: Vec<bool>,
    ltp_scratch: Vec<LoadOutcome>,
}

impl FunctionalFastForward {
    /// Creates the functional machine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or SMT-configured
    /// (sampling drives single-thread points).
    #[must_use]
    pub fn new(cfg: PipelineConfig) -> FunctionalFastForward {
        assert!(
            !cfg.smt.is_smt(),
            "functional fast-forward drives single-threaded machines"
        );
        // Reuse the full constructor so the LTP monitor timeout and every
        // derived parameter match the detailed machine exactly.
        let cpu = Processor::new(cfg);
        FunctionalFastForward {
            cpu,
            predictor: BranchPredictor::default_sized(),
            consumed: 0,
            llc_misses: 0,
            mem_out_scratch: Vec::new(),
            ltp_scratch: Vec::new(),
        }
    }

    /// Replays a cache-warming trace through the functional hierarchy
    /// without advancing the trace position or touching the predictors — the
    /// same pre-run cache-warming discipline detailed simulation points use.
    pub fn warm_caches(&mut self, warm: &[DynInst]) {
        self.cpu.warm_caches(warm);
    }

    /// Instructions consumed so far (the trace position of the next
    /// checkpoint).
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Functional LLC misses observed since the last
    /// [`FunctionalFastForward::take_llc_misses`] call — the sampled runner's
    /// per-interval cost estimate for LPT scheduling.
    pub fn take_llc_misses(&mut self) -> u64 {
        std::mem::take(&mut self.llc_misses)
    }

    /// Advances the functional machine over one instruction: caches, branch
    /// predictor and LTP classifier/monitor state are updated; nothing else.
    /// The functional clock advances one cycle per instruction.
    pub fn feed(&mut self, inst: &DynInst) {
        let now: Cycle = self.consumed;
        if let Some(branch) = inst.branch_info() {
            let _ = self.predictor.predict_and_update(inst.pc(), branch.taken);
        }
        if let Some(access) = inst.mem_access() {
            let kind = if inst.op().is_store() {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let missed_llc = self.cpu.state.mem.warm_with_prefetch(&MemoryRequest::new(
                inst.pc(),
                access.addr(),
                kind,
            ));
            if missed_llc {
                self.llc_misses += 1;
            }
            if inst.op().is_load() {
                // Keep UIT learning, hit/miss predictor training and the
                // on/off monitor warm across the fast-forward gap.
                self.cpu
                    .state
                    .thread
                    .ltp
                    .on_load_outcome(inst.pc(), missed_llc, now);
            }
        }
        self.consumed += 1;
    }

    /// Feeds a slice of instructions (see [`FunctionalFastForward::feed`]).
    pub fn feed_all(&mut self, insts: &[DynInst]) {
        for inst in insts {
            self.feed(inst);
        }
    }

    /// Advances the functional machine from its current position to absolute
    /// trace position `target` using a pre-decoded trace — the decode-once /
    /// execute-many fast path.
    ///
    /// Instead of interpreting each [`DynInst`] (branch? memory op? load or
    /// store?) on every pass, the [`DecodedTrace`] resolved those questions
    /// once up front into flat per-kind event lists keyed by absolute
    /// instruction index. Straight-line runs of non-memory, non-branch
    /// instructions occupy no events at all, so the functional clock crosses
    /// them in one batched step. The three pieces of functional state are
    /// disjoint machines — the cache hierarchy + prefetcher see only memory
    /// operations in order, the gshare predictor only branches in order, and
    /// the LTP unit only load outcomes stamped with the instruction index —
    /// so running one batched pass per kind produces **bit-identical** state
    /// to the interleaved per-instruction [`FunctionalFastForward::feed`]
    /// loop (the differential tests below and `tests/sampled_stream.rs` hold
    /// the two paths to byte-identical checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if `target` is behind the current position or beyond the
    /// decoded trace's length.
    pub fn advance_on(&mut self, dec: &DecodedTrace, target: u64) {
        let start = self.consumed;
        assert!(
            target >= start,
            "cannot rewind the functional machine: at {start}, asked for {target}"
        );
        assert!(
            target <= dec.len(),
            "target {target} beyond decoded trace of {} instructions",
            dec.len()
        );
        if target == start {
            return;
        }

        // Memory pass: one batched walk of the hierarchy over every memory
        // event in [start, target), LLC-miss outcome per event.
        let mem_events = dec.mem_events_in(start, target);
        let mut outcomes = std::mem::take(&mut self.mem_out_scratch);
        outcomes.clear();
        self.cpu.state.mem.warm_with_prefetch_batch(
            mem_events.iter().map(|e| {
                let kind = if e.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                MemoryRequest::new(e.pc, e.addr, kind)
            }),
            &mut outcomes,
        );

        // LTP pass: misses count for every memory op (matching `feed`), but
        // only loads train the classifier/monitor, stamped with the
        // instruction index as the functional clock.
        let mut loads = std::mem::take(&mut self.ltp_scratch);
        loads.clear();
        for (e, &missed_llc) in mem_events.iter().zip(&outcomes) {
            if missed_llc {
                self.llc_misses += 1;
            }
            if e.is_load() {
                loads.push(LoadOutcome {
                    pc: e.pc,
                    missed_llc,
                    now: e.idx,
                });
            }
        }
        self.cpu.state.thread.ltp.on_load_outcomes(&loads);

        // Branch pass: batched gshare training in program order.
        self.predictor.train_batch(
            dec.branch_events_in(start, target)
                .iter()
                .map(|e| (e.pc, e.taken)),
        );

        self.mem_out_scratch = outcomes;
        self.ltp_scratch = loads;
        self.consumed = target;
    }

    /// Emits an empty-pipeline checkpoint at the current trace position: the
    /// warm caches, predictors and LTP learned state over a drained pipeline
    /// whose committed count equals the instructions consumed, so a resumed
    /// detailed run continues at the right trace offset with correctly
    /// aligned sequence numbers.
    ///
    /// # Errors
    ///
    /// Fails only with [`SnapshotError::SmtUnsupported`], on an SMT machine,
    /// which [`FunctionalFastForward::new`] refuses to build.
    pub fn checkpoint(&self) -> Result<Snapshot, SnapshotError> {
        let mut cpu = Processor::new(self.cpu.state.cfg);
        let now = self.consumed;
        cpu.state.now = now;
        cpu.state.mem = self.cpu.state.mem.clone();
        cpu.state.thread.ltp = self.cpu.state.thread.ltp.clone();
        cpu.state.thread.committed = self.consumed;
        cpu.state.thread.last_commit_cycle = now;
        let frontend = crate::frontend::FrontEndState {
            pipe: std::collections::VecDeque::new(),
            redirect_until: 0,
            exhausted: false,
            fetched: self.consumed,
            predictor: self.predictor.clone(),
        };
        // Statistics start at the checkpoint; the sampled runner narrows the
        // window further with `Processor::run_measured_from`.
        Snapshot::capture(&cpu, frontend, Some((now, self.consumed)))
    }

    /// Captures the **detail-independent** warm state at the current trace
    /// position: everything the functional pass has trained — cache
    /// hierarchy, branch predictor, classifier learning and the on/off
    /// monitor — plus the trace position itself. Unlike
    /// [`FunctionalFastForward::checkpoint`], the result embeds no
    /// [`PipelineConfig`]: it can be restored under *any* configuration
    /// whose [`WarmupConfig`](crate::WarmupConfig) half equals this
    /// machine's, and [`FunctionalFastForward::from_warm_state`] then
    /// rebuilds a fast-forward whose checkpoints are byte-identical to ones
    /// a cold fast-forward of that configuration would have produced.
    ///
    /// # Errors
    ///
    /// Never fails: every classifier can be captured.
    pub fn warm_state(&self) -> Result<FunctionalWarmState, SnapshotError> {
        let ltp = &self.cpu.state.thread.ltp;
        let classifier = match ClassifierTraining::of(&self.cpu.state.cfg.ltp) {
            ClassifierTraining::Trained { .. } => Some(ltp.classifier_state()),
            ClassifierTraining::Inert => None,
        };
        Ok(FunctionalWarmState {
            consumed: self.consumed,
            mem: self.cpu.state.mem.clone(),
            predictor: self.predictor.clone(),
            monitor: ltp.monitor_state(),
            classifier,
        })
    }

    /// Rebuilds a functional machine for `cfg` positioned at a previously
    /// captured warm state, bypassing the trace replay entirely. The caller
    /// guarantees the state was captured under a configuration with the same
    /// [`WarmupConfig`](crate::WarmupConfig) half (checkpoint caches key on
    /// exactly that); the classifier payload is checked here.
    ///
    /// The per-interval LLC-miss counter restarts at zero — a cache-hit
    /// path gets interval weights from wherever it got the warm state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is SMT-configured or if the state's classifier
    /// payload does not match `cfg`'s training projection (present for an
    /// inert configuration or missing for a training one).
    #[must_use]
    pub fn from_warm_state(
        cfg: PipelineConfig,
        state: FunctionalWarmState,
    ) -> FunctionalFastForward {
        let mut ff = FunctionalFastForward::new(cfg);
        ff.cpu.state.mem = state.mem;
        ff.cpu.state.thread.ltp.restore_monitor_state(state.monitor);
        match (ClassifierTraining::of(&cfg.ltp), state.classifier) {
            (ClassifierTraining::Trained { .. }, Some(cs)) => {
                ff.cpu.state.thread.ltp.restore_classifier_state(cs);
            }
            (ClassifierTraining::Inert, None) => {}
            (ClassifierTraining::Trained { .. }, None) => {
                panic!("warm state has no classifier payload but the configuration trains one")
            }
            (ClassifierTraining::Inert, Some(_)) => {
                panic!("warm state carries classifier training the configuration cannot use")
            }
        }
        ff.predictor = state.predictor.clone();
        ff.consumed = state.consumed;
        ff
    }
}

/// Detail-independent functional warm state: what
/// [`FunctionalFastForward::warm_state`] captures and
/// [`FunctionalFastForward::from_warm_state`] restores. Serialisable with
/// the snapshot codec (the checkpoint cache's entry payload).
#[derive(Debug, Clone)]
pub struct FunctionalWarmState {
    pub(crate) consumed: u64,
    pub(crate) mem: ltp_mem::MemoryHierarchy,
    pub(crate) predictor: BranchPredictor,
    pub(crate) monitor: ltp_core::DramTimerMonitor,
    pub(crate) classifier: Option<ltp_core::Classifier>,
}

impl FunctionalWarmState {
    /// Trace position of the captured state.
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Whether the state carries trained-classifier payload. Restoring under
    /// a configuration whose [`ClassifierTraining`] projection disagrees
    /// panics, so cache consumers check this before calling
    /// [`FunctionalFastForward::from_warm_state`].
    #[must_use]
    pub fn has_classifier_state(&self) -> bool {
        self.classifier.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_isa::{ArchReg, BranchInfo, MemAccess, OpClass, Pc, SliceStream, StaticInst};

    /// A trace mixing every event kind the functional machine reacts to:
    /// strided and pseudo-random loads, stores, loop-like and data-dependent
    /// branches, and straight-line ALU stretches that decode to no events.
    fn mixed_trace(n: u64) -> Vec<DynInst> {
        let mut x = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match i % 7 {
                    0 | 3 => DynInst::new(
                        i,
                        StaticInst::new(Pc(0x400 + (i % 24) * 4), OpClass::Load)
                            .with_dst(ArchReg::int(((i % 6) + 1) as usize))
                            .with_src(ArchReg::int(1)),
                    )
                    .with_mem(MemAccess::qword(0x20_000 + (i * 8191) % 600_000)),
                    1 => DynInst::new(
                        i,
                        StaticInst::new(Pc(0x500 + (i % 8) * 4), OpClass::Store)
                            .with_src(ArchReg::int(2)),
                    )
                    .with_mem(MemAccess::qword(0x80_000 + (x % 300_000))),
                    2 => DynInst::new(i, StaticInst::new(Pc(0x600 + (i % 4) * 4), OpClass::Branch))
                        .with_branch(BranchInfo {
                            taken: (i % 5 != 0) ^ ((x >> 33) & 1 == 1),
                            target: Pc(0x400),
                        }),
                    _ => DynInst::new(
                        i,
                        StaticInst::new(Pc(0x700 + (i % 12) * 4), OpClass::IntAlu)
                            .with_dst(ArchReg::int(((i % 5) + 1) as usize))
                            .with_src(ArchReg::int(3)),
                    ),
                }
            })
            .collect()
    }

    #[test]
    fn decoded_advance_matches_feed_byte_identically() {
        let trace = mixed_trace(6_000);
        let dec = DecodedTrace::from_insts(&trace);
        let cfg = PipelineConfig::ltp_proposed();

        let mut reference = FunctionalFastForward::new(cfg);
        let mut decoded = FunctionalFastForward::new(cfg);

        // Advance in deliberately uneven chunks (including an empty one) and
        // compare against the per-instruction reference at each boundary.
        let boundaries = [0u64, 1, 137, 137, 1_338, 4_099, 6_000];
        let mut pos = 0u64;
        for &b in &boundaries {
            reference.feed_all(&trace[pos as usize..b as usize]);
            decoded.advance_on(&dec, b);
            pos = b;
            assert_eq!(decoded.consumed(), reference.consumed());

            let ref_bytes = reference.checkpoint().expect("ref checkpoint").to_bytes();
            let dec_bytes = decoded.checkpoint().expect("dec checkpoint").to_bytes();
            assert_eq!(ref_bytes, dec_bytes, "checkpoint diverged at boundary {b}");
        }
        assert_eq!(
            decoded.take_llc_misses(),
            reference.take_llc_misses(),
            "LPT cost estimate must match"
        );
    }

    #[test]
    fn decoded_advance_llc_misses_count_stores_too() {
        // Stores that miss the LLC must contribute to the interval weight
        // exactly as in `feed` (which counts every missing memory op).
        let trace: Vec<DynInst> = (0..512u64)
            .map(|i| {
                DynInst::new(
                    i,
                    StaticInst::new(Pc(0x500), OpClass::Store).with_src(ArchReg::int(2)),
                )
                .with_mem(MemAccess::qword(0x100_000 + i * 4096))
            })
            .collect();
        let dec = DecodedTrace::from_insts(&trace);
        let cfg = PipelineConfig::ltp_proposed();

        let mut reference = FunctionalFastForward::new(cfg);
        reference.feed_all(&trace);
        let mut decoded = FunctionalFastForward::new(cfg);
        decoded.advance_on(&dec, dec.len());

        let want = reference.take_llc_misses();
        assert!(want > 0, "cold stores must miss");
        assert_eq!(decoded.take_llc_misses(), want);
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn decoded_advance_rejects_rewind() {
        let trace = mixed_trace(64);
        let dec = DecodedTrace::from_insts(&trace);
        let mut ff = FunctionalFastForward::new(PipelineConfig::ltp_proposed());
        ff.advance_on(&dec, 32);
        ff.advance_on(&dec, 16);
    }

    fn mem_trace(n: u64) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                DynInst::new(
                    i,
                    StaticInst::new(Pc(0x400 + (i % 16) * 4), OpClass::Load)
                        .with_dst(ArchReg::int(((i % 6) + 1) as usize))
                        .with_src(ArchReg::int(1)),
                )
                .with_mem(MemAccess::qword(0x20_000 + (i * 8191) % 400_000))
            })
            .collect()
    }

    #[test]
    fn fast_forward_warms_caches_and_positions_the_stream() {
        let trace = mem_trace(2_000);
        let cfg = PipelineConfig::ltp_proposed();
        let mut ff = FunctionalFastForward::new(cfg);
        ff.feed_all(&trace[..1_000]);
        assert_eq!(ff.consumed(), 1_000);
        assert!(ff.take_llc_misses() > 0);
        assert_eq!(ff.take_llc_misses(), 0, "counter is take-and-reset");

        let snap = ff.checkpoint().expect("checkpointable");
        assert_eq!(snap.committed(), 1_000);
        assert_eq!(snap.fetched(), 1_000);

        // The resumed interval commits exactly the remaining instructions,
        // measured from the checkpoint.
        let result = snap
            .resume()
            .run(SliceStream::new("ff", &trace), 2_000)
            .expect("no deadlock");
        assert_eq!(result.instructions, 1_000);
        assert!(result.cycles > 0);
    }

    #[test]
    fn measured_window_excludes_detailed_warmup() {
        let trace = mem_trace(3_000);
        let cfg = PipelineConfig::ltp_proposed();
        let mut ff = FunctionalFastForward::new(cfg);
        ff.feed_all(&trace[..1_000]);
        let snap = ff.checkpoint().expect("checkpointable");
        // Warm in detail over [1000, 1500), measure [1500, 3000). The
        // boundary quantizes to the commit that crosses it (same semantics
        // as the configuration's warm-up budget), so the measured count can
        // be short by up to one commit group.
        let result = snap
            .resume()
            .run_measured_from(SliceStream::new("ff", &trace), 3_000, 1_500)
            .expect("no deadlock");
        let commit_width = PipelineConfig::ltp_proposed().commit_width as u64;
        assert!(
            result.instructions <= 1_500 && result.instructions >= 1_500 - commit_width,
            "measured {} instructions",
            result.instructions
        );
    }

    /// The warm-key contract, end to end: warm state captured under one
    /// configuration, restored under a *different* configuration with the
    /// same warm half, yields byte-identical checkpoints to a cold
    /// fast-forward of the second configuration.
    #[test]
    fn warm_state_restores_bit_identically_across_detail_configs() {
        let trace = mixed_trace(6_000);
        let dec = DecodedTrace::from_insts(&trace);
        // Same warm half (mem geometry, Trained{256}); detail halves differ
        // in IQ/registers and even classifier kind (Uit vs Oracle).
        let cfg_a = PipelineConfig::ltp_proposed();
        let cfg_b = PipelineConfig::ltp_proposed()
            .with_iq(256)
            .with_regs(128)
            .with_oracle(true);
        assert_eq!(cfg_a.warmup_config(), cfg_b.warmup_config());

        let mut donor = FunctionalFastForward::new(cfg_a);
        let mut cold = FunctionalFastForward::new(cfg_b);
        for b in [1_024u64, 4_099, 6_000] {
            donor.advance_on(&dec, b);
            cold.advance_on(&dec, b);
            let state = donor.warm_state().expect("warm state");
            assert_eq!(state.consumed(), b);
            assert!(state.has_classifier_state());
            let restored = FunctionalFastForward::from_warm_state(cfg_b, state);
            assert_eq!(
                restored.checkpoint().expect("restored").to_bytes(),
                cold.checkpoint().expect("cold").to_bytes(),
                "restored checkpoint diverged at boundary {b}"
            );
        }
    }

    /// Inert classifiers (here AlwaysReady) carry no classifier payload and
    /// restore bit-identically too.
    #[test]
    fn warm_state_round_trips_inert_classifiers() {
        let trace = mixed_trace(3_000);
        let dec = DecodedTrace::from_insts(&trace);
        let cfg =
            PipelineConfig::ltp_proposed().with_classifier(ltp_core::ClassifierKind::AlwaysReady);
        let mut donor = FunctionalFastForward::new(cfg);
        let mut cold = FunctionalFastForward::new(cfg);
        donor.advance_on(&dec, 3_000);
        cold.advance_on(&dec, 3_000);
        let state = donor.warm_state().expect("warm state");
        assert!(!state.has_classifier_state());
        let restored = FunctionalFastForward::from_warm_state(cfg, state);
        assert_eq!(
            restored.checkpoint().expect("restored").to_bytes(),
            cold.checkpoint().expect("cold").to_bytes()
        );
    }

    /// Restoring under a configuration whose training projection disagrees
    /// with the captured state is a hard error, not silent corruption.
    #[test]
    #[should_panic(expected = "classifier")]
    fn warm_state_rejects_training_mismatch() {
        let trace = mixed_trace(256);
        let dec = DecodedTrace::from_insts(&trace);
        let trained = PipelineConfig::ltp_proposed();
        let mut ff = FunctionalFastForward::new(trained);
        ff.advance_on(&dec, 256);
        let state = ff.warm_state().expect("warm state");
        let inert = trained.with_classifier(ltp_core::ClassifierKind::AlwaysReady);
        let _ = FunctionalFastForward::from_warm_state(inert, state);
    }

    /// The warm state itself survives the snapshot codec byte-exactly: a
    /// decode of its encoding restores the same checkpoints (this is the
    /// path cache entries take through disk).
    #[test]
    fn warm_state_codec_round_trip_preserves_checkpoints() {
        use ltp_snapshot::{encode_value, Codec, Reader};
        let trace = mixed_trace(2_000);
        let dec = DecodedTrace::from_insts(&trace);
        let cfg = PipelineConfig::ltp_proposed();
        let mut ff = FunctionalFastForward::new(cfg);
        ff.advance_on(&dec, 2_000);
        let state = ff.warm_state().expect("warm state");
        let bytes = encode_value(&state);
        let mut r = Reader::new(&bytes);
        let decoded = FunctionalWarmState::read(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            FunctionalFastForward::from_warm_state(cfg, decoded)
                .checkpoint()
                .expect("decoded")
                .to_bytes(),
            FunctionalFastForward::from_warm_state(cfg, state)
                .checkpoint()
                .expect("original")
                .to_bytes()
        );
    }
}
