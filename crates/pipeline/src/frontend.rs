//! Front end: fetch/decode modelled as a delay pipe plus branch-misprediction
//! redirect stalls.
//!
//! The simulation is trace driven, so the front end never fetches wrong-path
//! instructions; the cost of a misprediction is modelled as a redirect
//! penalty during which no instructions are fetched, which is the first-order
//! effect on the resource-allocation behaviour LTP cares about.

use crate::branch::BranchPredictor;
use ltp_isa::{DynInst, InstStream};
use ltp_mem::Cycle;
use std::collections::VecDeque;

/// The fetch/decode front end.
#[derive(Debug)]
pub struct FrontEnd<S> {
    stream: S,
    state: FrontEndState,
    frontend_delay: u64,
    mispredict_penalty: u64,
}

impl<S: InstStream> FrontEnd<S> {
    /// Creates a front end reading from `stream`.
    #[must_use]
    pub fn new(stream: S, frontend_delay: u64, mispredict_penalty: u64) -> FrontEnd<S> {
        let state = FrontEndState {
            pipe: VecDeque::new(),
            redirect_until: 0,
            exhausted: false,
            fetched: 0,
            predictor: BranchPredictor::default_sized(),
        };
        FrontEnd::from_state(stream, state, frontend_delay, mispredict_penalty)
    }

    /// Whether the underlying stream has ended and the pipe has drained.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.state.exhausted && self.state.pipe.is_empty()
    }

    /// The name of the workload the stream replays.
    pub(crate) fn workload(&self) -> &str {
        self.stream.name()
    }

    /// Total instructions fetched from the stream.
    #[must_use]
    pub fn fetched(&self) -> u64 {
        self.state.fetched
    }

    /// Instructions currently buffered in the front-end pipe (fetched but not
    /// yet renamed), the front-end half of the ICOUNT fetch priority.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.state.pipe.len()
    }

    /// The branch predictor (for misprediction statistics).
    #[must_use]
    pub fn branch_predictor(&self) -> &BranchPredictor {
        &self.state.predictor
    }

    /// Fetches up to `width` instructions at cycle `now`, unless redirecting.
    /// Fetch also stops for the cycle after a predicted-taken or mispredicted
    /// branch (a simple one-taken-branch-per-cycle fetch model).
    pub fn fetch(&mut self, now: Cycle, width: usize) {
        let st = &mut self.state;
        if st.exhausted || now < st.redirect_until {
            return;
        }
        // Keep the pipe from growing without bound when rename is stalled.
        let max_buffer = width * 4;
        for _ in 0..width {
            if st.pipe.len() >= max_buffer {
                break;
            }
            let Some(inst) = self.stream.next_inst() else {
                st.exhausted = true;
                break;
            };
            st.fetched += 1;
            let mut stop_fetch = false;
            if let Some(branch) = inst.branch_info() {
                let mispredicted = st.predictor.predict_and_update(inst.pc(), branch.taken);
                if mispredicted {
                    st.redirect_until = now + self.mispredict_penalty;
                    stop_fetch = true;
                } else if branch.taken {
                    // Taken branches end the fetch group.
                    stop_fetch = true;
                }
            }
            st.pipe.push_back((now + self.frontend_delay, inst));
            if stop_fetch {
                break;
            }
        }
    }

    /// What fetch and rename change: instructions fetched, instructions in
    /// the pipe and whether the stream has ended. Equal marks before and
    /// after a cycle mean the front end did nothing in it.
    pub(crate) fn progress_mark(&self) -> (u64, usize, bool) {
        (
            self.state.fetched,
            self.state.pipe.len(),
            self.state.exhausted,
        )
    }

    /// The first cycle after `last` on which the front end can offer
    /// something it could not on `last`: the pipe head becoming ready for
    /// rename, or the end of a redirect letting fetch resume.
    pub(crate) fn next_change(&self, last: Cycle) -> Option<Cycle> {
        let head = self.state.pipe.front().map(|&(ready, _)| ready);
        let redirect = (!self.state.exhausted).then_some(self.state.redirect_until);
        head.into_iter().chain(redirect).filter(|&c| c > last).min()
    }

    /// Pops the next instruction if it has traversed the front-end pipe by
    /// cycle `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<DynInst> {
        match self.state.pipe.front() {
            Some(&(ready, _)) if ready <= now => self.state.pipe.pop_front().map(|(_, i)| i),
            _ => None,
        }
    }

    /// Whether an instruction is ready for rename at cycle `now`.
    #[must_use]
    pub fn has_ready(&self, now: Cycle) -> bool {
        matches!(self.state.pipe.front(), Some(&(ready, _)) if ready <= now)
    }

    /// The next instruction ready for rename at cycle `now`, without
    /// consuming it.
    #[must_use]
    pub fn peek_ready(&self, now: Cycle) -> Option<&DynInst> {
        match self.state.pipe.front() {
            Some(&(ready, ref inst)) if ready <= now => Some(inst),
            _ => None,
        }
    }
}

/// The full serialisable state of a front end, minus the stream itself.
///
/// The stream is reconstructed at restore time by skipping `fetched`
/// instructions of the same trace, so a snapshot never stores trace content
/// that the caller already has. Everything else — the in-flight pipe
/// (fetched-but-not-renamed instructions with their ready cycles), the
/// redirect stall, the exhaustion flag and the branch predictor including its
/// statistics — is captured verbatim, which is what makes a restored run
/// bit-for-bit identical.
#[derive(Debug, Clone)]
pub struct FrontEndState {
    /// Instructions in flight through the front-end pipe, with the cycle at
    /// which they become available to rename.
    pub(crate) pipe: VecDeque<(Cycle, DynInst)>,
    /// Fetch is stalled (redirecting) until this cycle.
    pub(crate) redirect_until: Cycle,
    pub(crate) exhausted: bool,
    pub(crate) fetched: u64,
    pub(crate) predictor: BranchPredictor,
}

impl<S: InstStream> FrontEnd<S> {
    /// Exports the front-end state for a snapshot (see [`FrontEndState`]).
    pub(crate) fn export_state(&self) -> FrontEndState {
        self.state.clone()
    }

    /// Rebuilds a front end from exported state over a fresh `stream` of the
    /// same trace, seeking past the `fetched` instructions the original
    /// already pulled. The pipe depth and redirect penalty come from the
    /// machine configuration (the snapshot stores them once, inside its
    /// `PipelineConfig`), exactly as [`FrontEnd::new`] receives them.
    pub(crate) fn from_state(
        mut stream: S,
        state: FrontEndState,
        frontend_delay: u64,
        mispredict_penalty: u64,
    ) -> FrontEnd<S> {
        stream.skip_insts(state.fetched);
        FrontEnd {
            stream,
            state,
            frontend_delay,
            mispredict_penalty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_isa::{ArchReg, BranchInfo, OpClass, Pc, StaticInst, VecStream};

    fn alu(seq: u64) -> DynInst {
        DynInst::new(
            seq,
            StaticInst::new(Pc(0x1000 + seq * 4), OpClass::IntAlu).with_dst(ArchReg::int(1)),
        )
    }

    fn taken_branch(seq: u64, pc: u64) -> DynInst {
        DynInst::new(seq, StaticInst::new(Pc(pc), OpClass::Branch)).with_branch(BranchInfo {
            taken: true,
            target: Pc(0x1000),
        })
    }

    #[test]
    fn instructions_arrive_after_frontend_delay() {
        let stream = VecStream::new("t", vec![alu(0), alu(1)]);
        let mut fe = FrontEnd::new(stream, 5, 10);
        fe.fetch(0, 8);
        assert!(!fe.has_ready(0));
        assert!(!fe.has_ready(4));
        assert!(fe.has_ready(5));
        assert_eq!(fe.pop_ready(5).unwrap().seq().0, 0);
        assert_eq!(fe.pop_ready(5).unwrap().seq().0, 1);
        assert!(fe.pop_ready(5).is_none());
    }

    #[test]
    fn stream_exhaustion_is_reported() {
        let stream = VecStream::new("t", vec![alu(0)]);
        let mut fe = FrontEnd::new(stream, 1, 10);
        fe.fetch(0, 8);
        assert!(!fe.is_drained());
        let _ = fe.pop_ready(1);
        fe.fetch(1, 8);
        assert!(fe.is_drained());
        assert_eq!(fe.fetched(), 1);
    }

    #[test]
    fn taken_branch_ends_fetch_group() {
        // Branch at seq 1 is taken; seq 2 must not be fetched in the same cycle.
        let stream = VecStream::new("t", vec![alu(0), taken_branch(1, 0x2000), alu(2), alu(3)]);
        let mut fe = FrontEnd::new(stream, 1, 10);
        fe.fetch(0, 8);
        assert_eq!(fe.fetched(), 2);
        fe.fetch(1, 8);
        assert!(fe.fetched() >= 3);
    }

    #[test]
    fn mispredicted_branch_stalls_fetch() {
        // A branch PC that alternates taken/not-taken every time mispredicts
        // at least sometimes; use a fresh predictor so the very first
        // not-taken outcome (counter initialised weakly taken) mispredicts.
        let stream = VecStream::new(
            "t",
            vec![
                DynInst::new(0, StaticInst::new(Pc(0x500), OpClass::Branch)).with_branch(
                    BranchInfo {
                        taken: false,
                        target: Pc(0x1000),
                    },
                ),
                alu(1),
            ],
        );
        let mut fe = FrontEnd::new(stream, 1, 10);
        fe.fetch(0, 8);
        // Redirect: nothing more is fetched until cycle 10.
        let before = fe.fetched();
        fe.fetch(5, 8);
        assert_eq!(fe.fetched(), before);
        fe.fetch(10, 8);
        assert_eq!(fe.fetched(), before + 1);
        assert_eq!(fe.branch_predictor().mispredictions(), 1);
    }

    #[test]
    fn buffer_is_bounded_under_backpressure() {
        let insts: Vec<DynInst> = (0..1000).map(alu).collect();
        let stream = VecStream::new("t", insts);
        let mut fe = FrontEnd::new(stream, 1, 10);
        for cycle in 0..100 {
            fe.fetch(cycle, 8);
        }
        // Nothing was popped, so the internal buffer must have stopped growing.
        assert!(fe.fetched() <= 8 * 4 + 8);
    }
}
