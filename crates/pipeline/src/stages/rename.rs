//! Rename/dispatch stage: classify, park or dispatch.
//!
//! Pulls decoded instructions from the front end, resolves their sources
//! against the RAT, presents each one to the LTP unit for criticality
//! classification (§5.1), and either parks it (ROB entry only) or dispatches
//! it to the IQ with a destination register and LQ/SQ entry. When dispatch
//! stalls on resources while the LTP holds instructions, the stage raises the
//! force-release latch on the [`StageBus`] so the release stage can apply the
//! §5.4 deadlock-avoidance path next cycle.
//!
//! The retry slot for a classified-but-unplaceable instruction
//! ([`RenameStage::pending`]) is stage-local state, mirroring the skid
//! buffer a real rename stage would keep. Under SMT one `RenameStage`
//! instance exists per hardware thread, and the threads share the front-end
//! width: the budget handed to [`RenameStage::run`] is what the co-runner
//! left over.

use crate::frontend::FrontEnd;
use crate::iq::IqEntry;
use crate::rat::RegSource;
use crate::rob::{RobEntry, RobState};
use crate::stages::StageBus;
use crate::state::{InFlight, PipelineState};
use inlinevec::InlineVec;
use ltp_core::RenamedInst;
use ltp_isa::{DynInst, InstStream, PhysReg, RegClass, SeqNum};

/// A dispatch that passed classification but could not be placed yet because
/// the IQ, register file or LQ/SQ was full; retried the next cycle.
#[derive(Debug, Clone)]
pub(crate) struct PendingDispatch {
    pub(crate) inst: DynInst,
    pub(crate) src_phys: InlineVec<PhysReg, 4>,
    pub(crate) src_seqs: InlineVec<SeqNum, 2>,
    pub(crate) long_latency_hint: bool,
}

/// The rename stage and its skid buffer (one per hardware thread).
#[derive(Debug, Default, Clone)]
pub(crate) struct RenameStage {
    pub(crate) pending: Option<PendingDispatch>,
}

impl RenameStage {
    /// Runs the rename stage of the active thread for one cycle, renaming at
    /// most `budget` instructions (the front-end width share left for this
    /// thread). Returns how many instructions were renamed.
    pub(crate) fn run<S: InstStream>(
        &mut self,
        state: &mut PipelineState,
        bus: &mut StageBus,
        fe: &mut FrontEnd<S>,
        budget: usize,
    ) -> usize {
        let mut renamed = 0;

        // First, retry a dispatch that was classified earlier but could not
        // be placed for lack of resources.
        if let Some(pending) = self.pending.take() {
            if try_place_dispatch(
                state,
                &pending.inst,
                pending.src_phys.clone(),
                pending.src_seqs.clone(),
                pending.long_latency_hint,
            ) {
                renamed += 1;
            } else {
                if state.t().ltp.occupancy() > 0 {
                    bus.request_force_release();
                }
                self.pending = Some(pending);
                return renamed;
            }
        }

        while renamed < budget {
            if !state.rob_has_space() {
                break;
            }
            let Some(peek) = fe.peek_ready(state.now) else {
                break;
            };
            let op = peek.op();

            // Resources every instruction needs regardless of parking: a ROB
            // entry (checked) and, unless LQ/SQ allocation is delayed, an
            // LQ/SQ entry for memory operations.
            if !state.cfg.delay_lsq_alloc {
                if op.is_load() && !state.lq_has_space() {
                    break;
                }
                if op.is_store() && !state.sq_has_space() {
                    break;
                }
            }

            let inst = fe.pop_ready(state.now).expect("peeked instruction exists");
            debug_assert_eq!(
                inst.tid(),
                state.t().tid,
                "instruction fetched into the wrong thread context"
            );
            let (src_phys, src_seqs) = state.resolve_sources(&inst);

            let mem_dep_parked =
                op.is_load() && state.tm().memdep.predicts_parked_dependence(inst.pc());
            let rinst = RenamedInst::from_dyn(&inst).with_mem_dep_parked(mem_dep_parked);
            let now = state.now;
            let decision = state.tm().ltp.at_rename(&rinst, now);

            state.tm().inflight.insert(
                inst.seq().0,
                InFlight {
                    inst,
                    src_phys: src_phys.clone(),
                    src_seqs: src_seqs.clone(),
                },
            );

            if decision.parked() {
                park_instruction(state, &inst, decision.long_latency_hint);
                state.tm().activity.ltp_writes += 1;
                renamed += 1;
            } else if try_place_dispatch(
                state,
                &inst,
                src_phys.clone(),
                src_seqs.clone(),
                decision.long_latency_hint,
            ) {
                renamed += 1;
            } else {
                // Could not place: remember it and stall rename.
                if state.t().ltp.occupancy() > 0 {
                    bus.request_force_release();
                }
                self.pending = Some(PendingDispatch {
                    inst,
                    src_phys,
                    src_seqs,
                    long_latency_hint: decision.long_latency_hint,
                });
                break;
            }
        }
        renamed
    }
}

/// Allocates the ROB (and, unless delayed, LQ/SQ) entry for a parked
/// instruction and records it in the RAT as a parked producer.
fn park_instruction(state: &mut PipelineState, inst: &DynInst, long_latency_hint: bool) {
    let seq = inst.seq();
    let op = inst.op();
    let dst = inst.static_inst().dst().filter(|d| !d.is_zero());

    let prev_mapping = match dst {
        Some(d) => state.tm().rat.set_parked(d, seq),
        None => RegSource::Ready,
    };

    let mut holds_lq = false;
    let mut holds_sq = false;
    if !state.cfg.delay_lsq_alloc {
        if op.is_load() {
            state.tm().lq.allocate(seq);
            holds_lq = true;
        }
        if op.is_store() {
            state.tm().sq.allocate(seq, true);
            holds_sq = true;
        }
    }

    state.tm().rob.push(RobEntry {
        seq,
        pc: inst.pc(),
        op,
        state: RobState::Parked,
        dst,
        dest_phys: None,
        prev_mapping,
        long_latency: long_latency_hint,
        holds_lq,
        holds_sq,
        was_parked: true,
        completion_cycle: 0,
    });
}

/// Attempts to dispatch an instruction to the IQ, allocating its
/// destination register and LQ/SQ entry. Returns `false` when a resource
/// is unavailable (rename must stall).
fn try_place_dispatch(
    state: &mut PipelineState,
    inst: &DynInst,
    src_phys: InlineVec<PhysReg, 4>,
    src_seqs: InlineVec<SeqNum, 2>,
    long_latency_hint: bool,
) -> bool {
    let op = inst.op();
    let seq = inst.seq();
    let dst = inst.static_inst().dst().filter(|d| !d.is_zero());

    if !state.iq_has_space() {
        return false;
    }
    // Reserve a few entries of commit-freed resources for instructions
    // leaving the LTP (§5.4). The reserve is clamped so that very small
    // structures (e.g. an 8-entry LQ in the limit study) keep a usable
    // share for ordinary dispatch.
    let base_reserve = if state.cfg.ltp.mode.is_enabled() {
        state.cfg.ltp_reserve
    } else {
        0
    };
    if let Some(d) = dst {
        let regs = match d.class() {
            RegClass::Int => state.cfg.int_regs,
            RegClass::Fp => state.cfg.fp_regs,
        };
        let reserve = base_reserve.min(regs / 4);
        if !state.can_alloc_beyond_reserve(d.class(), reserve) {
            return false;
        }
    }
    if state.cfg.delay_lsq_alloc {
        if op.is_load()
            && !state.lq_has_space_beyond_reserve(base_reserve.min(state.cfg.lq_size / 4))
        {
            return false;
        }
        if op.is_store()
            && !state.sq_has_space_beyond_reserve(base_reserve.min(state.cfg.sq_size / 4))
        {
            return false;
        }
    }

    // All resources available: allocate.
    let mut dest_phys = None;
    let prev_mapping = match dst {
        Some(d) => {
            let phys = state
                .alloc_dest(d.class())
                .expect("availability checked above");
            dest_phys = Some(phys);
            state.tm().rat.set_phys(d, phys)
        }
        None => RegSource::Ready,
    };

    let mut holds_lq = false;
    let mut holds_sq = false;
    if op.is_load() {
        state.tm().lq.allocate(seq);
        holds_lq = true;
    }
    if op.is_store() {
        state.tm().sq.allocate(seq, false);
        holds_sq = true;
    }

    state.tm().rob.push(RobEntry {
        seq,
        pc: inst.pc(),
        op,
        state: RobState::InQueue,
        dst,
        dest_phys,
        prev_mapping,
        long_latency: long_latency_hint,
        holds_lq,
        holds_sq,
        was_parked: false,
        completion_cycle: 0,
    });

    let wait_phys = src_phys
        .iter()
        .copied()
        .filter(|&p| !state.t().completed_regs.contains(p))
        .collect();
    let wait_seqs = src_seqs
        .iter()
        .copied()
        .filter(|s| !state.is_seq_done(*s))
        .collect();
    state.tm().iq.dispatch(IqEntry {
        seq,
        fu: op.fu_kind(),
        wait_phys,
        wait_seqs,
    });
    state.tm().activity.iq_writes += 1;
    true
}
