//! LTP release stage: move parked instructions into the issue queue.
//!
//! Three release paths, in priority order (§3.2 / §5.2 / §5.4):
//!
//! 1. **In-order** (ROB proximity): parked instructions older than the
//!    Non-Urgent wakeup boundary are released in program order.
//! 2. **Out-of-order** (tickets): Urgent instructions whose tickets have all
//!    cleared leave early (appendix A; only with Non-Ready parking).
//! 3. **Forced** (deadlock avoidance): when rename stalled on resources (the
//!    [`StageBus`] force-release latch) or nothing committed for a while, the
//!    oldest parked instruction is pushed out through the reserved bypass.
//!
//! Under SMT each thread has its own LTP unit and release stage; the
//! resource checks go through the shared-capacity helpers on
//! [`PipelineState`], so a release only proceeds when the *combined*
//! occupancy allows it.

use crate::iq::IqEntry;
use crate::rob::RobState;
use crate::stages::StageBus;
use crate::state::{PipelineState, ThreadState};
use ltp_core::ParkedInst;
use ltp_isa::RegClass;
use ltp_mem::Cycle;

/// Cycles without a commit after which the release stage forces the oldest
/// parked instruction out even when rename did not ask for it.
const STALL_FORCE_CYCLES: u64 = 64;

/// The first cycle on which the no-commit path can force a release for
/// thread `t`: only while its LTP holds instructions.
pub(crate) fn stall_force_cycle(t: &ThreadState) -> Option<Cycle> {
    (t.ltp.occupancy() > 0).then_some(t.last_commit_cycle + STALL_FORCE_CYCLES + 1)
}

/// Runs the release stage of the active thread for one cycle.
pub(crate) fn run(state: &mut PipelineState, bus: &mut StageBus) {
    let boundary = state.t().rob.nu_wake_boundary();
    let mut released_any = false;

    // In-order (ROB proximity) releases, §3.2 / §5.2.
    while let Some(seq) = state.t().ltp.oldest_parked() {
        if !seq.is_older_than(boundary) {
            break;
        }
        let Some(entry) = state.t().rob.get(seq) else {
            break;
        };
        if !state.can_place_released(entry) {
            break;
        }
        let now = state.now;
        let Some(parked) = state.tm().ltp.pop_release_in_order(boundary, now) else {
            break;
        };
        place_released(state, bus, parked, false);
        released_any = true;
    }

    // Out-of-order releases of Urgent instructions whose tickets cleared
    // (only meaningful when Non-Ready parking is enabled, appendix A).
    if state.t().ltp.config().mode.parks_non_ready() {
        loop {
            // Out-of-order releases are never the ROB head, so they must
            // always leave the last register of each class untouched.
            if !state.iq_has_space()
                || state.regs_available(RegClass::Int) <= 1
                || state.regs_available(RegClass::Fp) <= 1
                || (state.cfg.delay_lsq_alloc && (!state.lq_has_space() || !state.sq_has_space()))
            {
                break;
            }
            let now = state.now;
            let Some(parked) = state.tm().ltp.pop_release_ready_out_of_order(now) else {
                break;
            };
            place_released(state, bus, parked, false);
            released_any = true;
        }
    }

    // Deadlock avoidance (§5.4): when rename stalled for resources, or
    // nothing has committed for a while, and no ordinary release made
    // progress, force the oldest parked instruction out (through the
    // reserved bypass) so it can eventually commit and free resources.
    let force_requested = bus.take_force_release();
    let stalled_long = state.now.saturating_sub(state.t().last_commit_cycle) > STALL_FORCE_CYCLES;
    let bypass_has_room = state.iq_bypass_has_room();
    if (force_requested || stalled_long)
        && !released_any
        && state.t().ltp.occupancy() > 0
        && bypass_has_room
    {
        if let Some(seq) = state.t().ltp.oldest_parked() {
            let can = state
                .t()
                .rob
                .get(seq)
                .map(|e| state.can_force_release(e))
                .unwrap_or(false);
            if can {
                let now = state.now;
                if let Some(parked) = state.tm().ltp.force_release_oldest(now) {
                    place_released(state, bus, parked, true);
                }
            }
        }
    }
}

/// Places a released parked instruction into the IQ, allocating its
/// destination register through the "second RAT" and, when LQ/SQ allocation
/// is delayed, its memory-queue entry.
fn place_released(state: &mut PipelineState, bus: &mut StageBus, parked: ParkedInst, forced: bool) {
    let seq = parked.seq;
    let (src_phys, src_seqs, op) = {
        let infl = state
            .t()
            .inflight
            .get(seq.0)
            .expect("released instruction must be in flight");
        (infl.src_phys.clone(), infl.src_seqs.clone(), infl.inst.op())
    };

    // Allocate the destination register through the "second RAT".
    let mut dest_phys = None;
    if let Some(dst) = state.t().rob.get(seq).and_then(|entry| entry.dst) {
        let phys = state
            .alloc_dest(dst.class())
            .expect("release resource check guarantees a register");
        dest_phys = Some(phys);
        if !state.tm().rat.resolve_parked(dst, seq, phys) {
            // A younger writer renamed the register meanwhile; its
            // commit frees this register through the parked map.
            state.tm().released_parked_regs.insert(seq.0, phys);
        }
    }

    let delay_lsq = state.cfg.delay_lsq_alloc;
    if let Some(entry) = state.tm().rob.get_mut(seq) {
        entry.dest_phys = dest_phys;
        entry.state = RobState::InQueue;
        if delay_lsq {
            if entry.op.is_load() && !entry.holds_lq {
                entry.holds_lq = true;
            }
            if entry.op.is_store() && !entry.holds_sq {
                entry.holds_sq = true;
            }
        }
    }
    if delay_lsq {
        if op.is_load() {
            state.tm().lq.allocate(seq);
        }
        if op.is_store() {
            state.tm().sq.allocate(seq, true);
        }
    }

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
    let entry = IqEntry {
        seq,
        fu: op.fu_kind(),
        wait_phys,
        wait_seqs,
    };
    let t = state.tm();
    if forced {
        t.iq.force_dispatch(entry);
    } else {
        t.iq.dispatch(entry);
    }
    bus.releases.push(seq);
    t.activity.ltp_reads += 1;
    t.activity.iq_writes += 1;
}
