//! The typed per-cycle signal bus connecting the pipeline stages.
//!
//! Stages never call each other; everything one stage tells another travels
//! over the [`StageBus`] as a *latched signal*:
//!
//! * **Delayed signals** — the issue stage schedules completion events and
//!   early long-latency signals for a future cycle; the writeback stage pops
//!   the ones that are due. These model wires with a programmable delay.
//! * **Cross-cycle latches** — the rename stage raises
//!   [`StageBus::request_force_release`] when it stalls on resources; the
//!   release stage consumes the latched value on the *next* cycle
//!   (deadlock avoidance, §5.4 of the paper).
//! * **Per-cycle records** — wakeups, register frees, ticket clears, commit
//!   slots and LTP releases produced this cycle. They are cleared by
//!   [`StageBus::begin_cycle`] and are observable from outside the processor
//!   (see [`crate::Processor::run_observed`]), which is what the invariant
//!   test-suite hooks into.

use crate::stages::wheel::TimingWheel;
use ltp_isa::{OpClass, PhysReg, SeqNum};
use ltp_mem::Cycle;

/// One instruction leaving the machine through the commit stage this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitSlot {
    /// Sequence number of the committed instruction.
    pub seq: SeqNum,
    /// Its operation class.
    pub op: OpClass,
    /// Whether it had been parked in the LTP at rename.
    pub was_parked: bool,
}

/// Default timing-wheel horizon when the bus is built without a machine
/// configuration (covers every fixed FU latency and a typical DRAM access).
const DEFAULT_HORIZON: u64 = 1024;

/// Typed per-cycle latched signals exchanged between the pipeline stages.
#[derive(Debug, Clone)]
pub struct StageBus {
    /// Issue → writeback: `(cycle, seq)` completion events, kept in a timing
    /// wheel and popped when due.
    completions: TimingWheel,
    /// Issue → writeback: early completion signals of long-latency
    /// instructions (tag hit / divide countdown), used to clear tickets a few
    /// cycles before the result arrives (§3.2).
    ll_signals: TimingWheel,
    /// Rename (cycle N) → release (cycle N+1): rename stalled for resources
    /// while instructions were parked, so the release stage should consider a
    /// forced release. Latched across the cycle boundary.
    force_release: bool,
    /// Writeback → issue: physical registers whose values became available
    /// this cycle (the wakeup broadcast).
    pub reg_wakeups: Vec<PhysReg>,
    /// Writeback → issue: completed sequence numbers (wakeups for consumers
    /// that wait on a parked producer by sequence number).
    pub seq_wakeups: Vec<SeqNum>,
    /// Writeback/release: long-latency producers whose ticket cleared this
    /// cycle through the early-signal path.
    pub ticket_clears: Vec<SeqNum>,
    /// Commit: instructions that left the machine this cycle, in commit
    /// (program) order.
    pub commits: Vec<CommitSlot>,
    /// Commit: physical registers returned to the free lists this cycle.
    pub reg_frees: Vec<PhysReg>,
    /// Release: parked instructions placed into the IQ this cycle.
    pub releases: Vec<SeqNum>,
}

impl Default for StageBus {
    fn default() -> StageBus {
        StageBus::with_room(DEFAULT_HORIZON, 8)
    }
}

impl StageBus {
    /// Creates an empty bus with the default delayed-signal horizon and room
    /// for 8 signals of each kind a cycle.
    #[must_use]
    pub fn new() -> StageBus {
        StageBus::default()
    }

    /// Creates an empty bus whose timing wheels are sized for delays up to
    /// `horizon` cycles (the worst functional-unit or DRAM latency of the
    /// machine; longer delays remain correct through the wheels' far level)
    /// with room for `per_cycle` signals of each kind in one cycle, in every
    /// wheel slot and per-cycle record, so the steady-state loop grows
    /// neither.
    #[must_use]
    pub fn with_room(horizon: u64, per_cycle: usize) -> StageBus {
        StageBus {
            completions: TimingWheel::new(horizon, per_cycle),
            ll_signals: TimingWheel::new(horizon, per_cycle),
            force_release: false,
            reg_wakeups: Vec::with_capacity(per_cycle),
            seq_wakeups: Vec::with_capacity(per_cycle),
            ticket_clears: Vec::with_capacity(per_cycle),
            commits: Vec::with_capacity(per_cycle),
            reg_frees: Vec::with_capacity(per_cycle),
            releases: Vec::with_capacity(per_cycle),
        }
    }

    /// Makes this bus a copy of `src` inside its own buffers (see
    /// [`TimingWheel::restore_from`]); restoring a snapshot uses this so the
    /// restored bus runs without allocating in steady state.
    pub(crate) fn restore_from(&mut self, src: &StageBus) {
        self.completions.restore_from(&src.completions);
        self.ll_signals.restore_from(&src.ll_signals);
        self.force_release = src.force_release;
        self.reg_wakeups.clone_from(&src.reg_wakeups);
        self.seq_wakeups.clone_from(&src.seq_wakeups);
        self.ticket_clears.clone_from(&src.ticket_clears);
        self.commits.clone_from(&src.commits);
        self.reg_frees.clone_from(&src.reg_frees);
        self.releases.clone_from(&src.releases);
    }

    /// Clears the per-cycle records. Delayed signals and cross-cycle latches
    /// survive; they are consumed by the stage they target.
    pub(crate) fn begin_cycle(&mut self) {
        self.reg_wakeups.clear();
        self.seq_wakeups.clear();
        self.ticket_clears.clear();
        self.commits.clear();
        self.reg_frees.clear();
        self.releases.clear();
    }

    /// Schedules the completion of `seq` at `cycle`.
    pub(crate) fn schedule_completion(&mut self, cycle: Cycle, seq: SeqNum) {
        self.completions.schedule(cycle, seq.0);
    }

    /// Schedules the early long-latency signal of `seq` at `cycle`.
    pub(crate) fn schedule_ll_signal(&mut self, cycle: Cycle, seq: SeqNum) {
        self.ll_signals.schedule(cycle, seq.0);
    }

    /// Pops the next completion that is due at or before `now`.
    pub(crate) fn pop_due_completion(&mut self, now: Cycle) -> Option<SeqNum> {
        self.completions.pop_due(now).map(SeqNum)
    }

    /// Pops the next early long-latency signal due at or before `now`.
    pub(crate) fn pop_due_ll_signal(&mut self, now: Cycle) -> Option<SeqNum> {
        self.ll_signals.pop_due(now).map(SeqNum)
    }

    /// Raises the force-release latch (rename stalled on resources while the
    /// LTP holds instructions); the release stage sees it next cycle.
    pub(crate) fn request_force_release(&mut self) {
        self.force_release = true;
    }

    /// Consumes the force-release latch.
    pub(crate) fn take_force_release(&mut self) -> bool {
        std::mem::take(&mut self.force_release)
    }

    /// Whether the force-release latch is currently raised.
    #[must_use]
    pub fn force_release_pending(&self) -> bool {
        self.force_release
    }

    /// The earliest cycle before `limit` on which a delayed signal is due,
    /// or `limit` (see [`TimingWheel::next_due`]).
    pub(crate) fn next_due(&self, limit: Cycle) -> Cycle {
        self.ll_signals.next_due(self.completions.next_due(limit))
    }

    /// Number of completion events still in flight (scheduled but not yet
    /// consumed by writeback).
    #[must_use]
    pub fn pending_completions(&self) -> usize {
        self.completions.len()
    }
}

impl ltp_snapshot::Codec for StageBus {
    /// Only cross-cycle state travels: the delayed-signal wheels and the
    /// force-release latch. The per-cycle record vectors are cleared by
    /// `begin_cycle` before any stage reads them, so a snapshot taken on a
    /// cycle boundary restores them empty.
    fn write(&self, w: &mut ltp_snapshot::Writer) {
        self.completions.write(w);
        self.ll_signals.write(w);
        self.force_release.write(w);
    }
    fn read(r: &mut ltp_snapshot::Reader<'_>) -> Result<Self, ltp_snapshot::SnapError> {
        Ok(StageBus {
            completions: TimingWheel::read(r)?,
            ll_signals: TimingWheel::read(r)?,
            force_release: bool::read(r)?,
            reg_wakeups: Vec::new(),
            seq_wakeups: Vec::new(),
            ticket_clears: Vec::new(),
            commits: Vec::new(),
            reg_frees: Vec::new(),
            releases: Vec::new(),
        })
    }
}

#[cfg(test)]
mod horizon_tests {
    use super::*;

    /// A delay far beyond the wheel horizon must still deliver, in order.
    #[test]
    fn beyond_horizon_completions_deliver() {
        let mut bus = StageBus::with_room(8, 8);
        bus.schedule_completion(5_000, SeqNum(1));
        bus.schedule_completion(3, SeqNum(0));
        assert_eq!(bus.pop_due_completion(3), Some(SeqNum(0)));
        assert_eq!(bus.pop_due_completion(4_999), None);
        assert_eq!(bus.pop_due_completion(5_000), Some(SeqNum(1)));
        assert_eq!(bus.pending_completions(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delayed_signals_pop_in_time_order() {
        let mut bus = StageBus::new();
        bus.schedule_completion(10, SeqNum(2));
        bus.schedule_completion(5, SeqNum(1));
        bus.schedule_completion(5, SeqNum(0));
        assert_eq!(bus.pop_due_completion(4), None);
        assert_eq!(bus.pop_due_completion(5), Some(SeqNum(0)));
        assert_eq!(bus.pop_due_completion(5), Some(SeqNum(1)));
        assert_eq!(bus.pop_due_completion(5), None);
        assert_eq!(bus.pending_completions(), 1);
        assert_eq!(bus.pop_due_completion(10), Some(SeqNum(2)));
    }

    #[test]
    fn force_release_latch_is_consumed_once() {
        let mut bus = StageBus::new();
        assert!(!bus.take_force_release());
        bus.request_force_release();
        assert!(bus.force_release_pending());
        assert!(bus.take_force_release());
        assert!(!bus.take_force_release());
    }

    #[test]
    fn begin_cycle_clears_records_but_not_latches() {
        let mut bus = StageBus::new();
        bus.reg_wakeups.push(PhysReg::new(3));
        bus.commits.push(CommitSlot {
            seq: SeqNum(0),
            op: OpClass::IntAlu,
            was_parked: false,
        });
        bus.request_force_release();
        bus.schedule_ll_signal(9, SeqNum(4));
        bus.begin_cycle();
        assert!(bus.reg_wakeups.is_empty() && bus.commits.is_empty());
        assert!(bus.force_release_pending());
        assert_eq!(bus.pop_due_ll_signal(9), Some(SeqNum(4)));
    }
}
