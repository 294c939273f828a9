//! Commit stage: retire completed instructions in program order.
//!
//! Frees the previous register mapping of each committed instruction (the
//! "second RAT" bookkeeping for released parked writers included), releases
//! LQ/SQ entries, performs the store write as the store drains, and records
//! every commit slot and freed register on the [`StageBus`]. Under SMT the
//! commit width is shared: each thread receives the budget its co-runners
//! left over this cycle, and commit order is per-thread program order.

use crate::rat::RegSource;
use crate::stages::{CommitSlot, StageBus};
use crate::state::PipelineState;
use ltp_mem::{AccessKind, MemoryRequest};

/// Runs the commit stage of the active thread for one cycle, retiring at
/// most `budget` instructions. Returns how many committed.
pub(crate) fn run(state: &mut PipelineState, bus: &mut StageBus, budget: usize) -> usize {
    let mut committed = 0;
    for _ in 0..budget {
        let Some(entry) = state.tm().rob.try_commit() else {
            break;
        };
        committed += 1;
        let now = state.now;
        let t = state.tm();
        t.committed += 1;
        t.last_commit_cycle = now;

        match entry.prev_mapping {
            RegSource::Ready => {
                // First rename of this architectural register: the
                // physical register that held its initial value is
                // recycled into the available pool (footnote 4 of the
                // paper counts "available" registers beyond the
                // architectural state).
                if let Some(dst) = entry.dst {
                    state.recycle_arch_reg(dst.class());
                }
            }
            RegSource::Phys(p) => {
                state.free_dest(p);
                bus.reg_frees.push(p);
            }
            RegSource::Parked(s) => {
                if let Some(p) = state.tm().released_parked_regs.remove(s.0) {
                    state.free_dest(p);
                    bus.reg_frees.push(p);
                }
            }
        }

        if entry.holds_lq {
            state.tm().lq.release(entry.seq);
        }
        if entry.holds_sq {
            // The store performs its write as it drains from the SQ.
            if let Some(access) = state
                .t()
                .inflight
                .get(entry.seq.0)
                .and_then(|infl| infl.inst.mem_access())
            {
                let req = MemoryRequest::new(entry.pc, access.addr(), AccessKind::Store);
                let now = state.now;
                let _ = state.mem.access(now, &req);
            }
            state.tm().sq.release(entry.seq);
        }

        let t = state.tm();
        if entry.op.is_load() {
            t.loads_committed += 1;
            if entry.long_latency {
                t.llc_miss_loads += 1;
            }
        }
        if entry.op.is_store() {
            t.stores_committed += 1;
        }
        bus.commits.push(CommitSlot {
            seq: entry.seq,
            op: entry.op,
            was_parked: entry.was_parked,
        });
        t.inflight.remove(entry.seq.0);
    }
    committed
}
