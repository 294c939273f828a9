//! Issue stage: wakeup/select from the issue queue and execute.
//!
//! Selects ready instructions whose functional unit is available, models
//! execution (cache access for loads, fixed latencies for arithmetic) and
//! schedules the resulting completion and early long-latency signals on the
//! [`StageBus`] for the writeback stage. Under SMT the issue width is shared:
//! each thread receives the budget its co-runners left over this cycle, and
//! the functional units are a single shared pool.

use crate::stages::StageBus;
use crate::state::PipelineState;
use ltp_isa::{DynInst, OpClass};
use ltp_mem::{AccessKind, Cycle, MemoryRequest};

/// Runs the issue stage of the active thread for one cycle, selecting at
/// most `budget` instructions. Returns how many were issued.
pub(crate) fn run(state: &mut PipelineState, bus: &mut StageBus, budget: usize) -> usize {
    let now = state.now;
    // The selection scratch lives in the machine state so the hot loop never
    // allocates; `select_into` appends in selection order.
    let mut picked = std::mem::take(&mut state.issue_scratch);
    debug_assert!(picked.is_empty());
    {
        let (iq, fu) = state.iq_and_fu();
        iq.select_into(
            budget,
            |kind| {
                // Reserve the unit immediately; unpipelined units use their
                // worst-case occupancy.
                let latency = match kind {
                    ltp_isa::FuKind::IntMulDiv => OpClass::IntDiv.exec_latency().cycles(),
                    ltp_isa::FuKind::FpDivSqrt => OpClass::FpSqrt.exec_latency().cycles(),
                    _ => 1,
                };
                fu.acquire(kind, now, latency)
            },
            &mut picked,
        );
    }
    let issued = picked.len();

    for entry in picked.drain(..) {
        let seq = entry.seq;
        state.tm().activity.iq_issues += 1;
        let (inst, n_srcs) = {
            let infl = state
                .t()
                .inflight
                .get(seq.0)
                .expect("issued instruction must be in flight");
            (infl.inst, infl.inst.static_inst().dataflow_srcs().count())
        };
        state.tm().activity.rf_reads += n_srcs as u64;

        let op = inst.op();
        let (completion, long_latency, ll_signal) = if op.is_load() {
            execute_load(state, &inst)
        } else if op.is_store() {
            let done = state.now + 1;
            if let Some(access) = inst.mem_access() {
                state
                    .tm()
                    .sq
                    .set_address(seq, ltp_mem::line_of(access.addr()), done);
            }
            (done, false, None)
        } else {
            let latency = op.exec_latency().cycles();
            let done = state.now + latency;
            if op.is_long_latency_arith() {
                // The divide/sqrt latency is approximately known, so the
                // wakeup signal is sent a few cycles before completion.
                (done, true, Some(done.saturating_sub(3)))
            } else {
                (done, false, None)
            }
        };

        state.tm().rob.mark_issued(seq, completion, long_latency);
        bus.schedule_completion(completion, seq);
        if let Some(signal) = ll_signal {
            bus.schedule_ll_signal(signal.max(state.now), seq);
        }
    }
    state.issue_scratch = picked;
    issued
}

/// Executes a load: address generation, store forwarding check, cache
/// access. Returns `(completion cycle, is long latency, early signal)`.
fn execute_load(state: &mut PipelineState, inst: &DynInst) -> (Cycle, bool, Option<Cycle>) {
    let agen_done = state.now + 1;
    let Some(access) = inst.mem_access() else {
        return (agen_done, false, None);
    };
    let line = ltp_mem::line_of(access.addr());

    // Store-to-load forwarding from an older store of the same thread to the
    // same line (the LQ/SQ are per thread, so forwarding never crosses
    // threads).
    if let Some((data_ready, store_was_parked)) = state.t().sq.forward_for(inst.seq(), line) {
        if store_was_parked {
            // Remember this load for the §5.3 memory-dependence rule.
            state.tm().memdep.train(inst.pc());
        }
        let done = data_ready.max(agen_done) + 1;
        let now = state.now;
        state.tm().ltp.on_load_outcome(inst.pc(), false, now);
        return (done, false, None);
    }

    let req = MemoryRequest::new(inst.pc(), access.addr(), AccessKind::Load);
    let result = state.mem.access(agen_done, &req);
    let long_latency = result.latency() > state.cfg.mem.l3.latency;
    let now = state.now;
    state
        .tm()
        .ltp
        .on_load_outcome(inst.pc(), result.is_llc_miss(), now);
    let signal = if long_latency {
        Some(result.tag_known_cycle)
    } else {
        None
    };
    (result.completion_cycle, long_latency, signal)
}
