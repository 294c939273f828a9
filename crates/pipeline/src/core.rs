//! The cycle-level out-of-order processor model: a thin orchestrator.
//!
//! [`Processor`] owns the machine substrate (`PipelineState`: the shared
//! free lists, functional units and memory hierarchy plus one `ThreadState`
//! — ROB, IQ, RAT, LQ/SQ, LTP unit — per hardware thread) and one
//! [`StageBus`] per thread, and advances one cycle at a time by invoking the
//! stage modules in back-to-front order (writeback → commit → release →
//! issue → rename; see [`crate::stages`]). The model is timing-only: values
//! are never computed, only the dependence, resource and latency behaviour
//! is simulated, which is the level of modelling the paper's analysis
//! requires.
//!
//! With a single hardware thread (the default) the cycle loop is exactly the
//! pre-SMT pipeline. Under SMT ([`PipelineConfig::smt`]) every stage runs
//! once per thread per cycle — the per-cycle thread order and the shared
//! front-end/issue/commit width split are decided by the configured
//! [`crate::SharePolicy`] — and [`Processor::run_smt`] drives two (or more)
//! independent instruction streams to a per-thread [`RunResult`] over one
//! shared cycle timeline.
//!
//! Fresh, checkpointing, resumed and SMT runs all go through one cycle loop,
//! `Processor::drive`, with their own stop and measured-window rules. The
//! loop pays per event, not per cycle: after a quiet cycle, one in which no
//! stage changed the machine, it jumps to the next cycle on which something
//! can happen and charges the span to the per-cycle statistics (see
//! `Processor::next_event`). [`Processor::run_observed`] runs every cycle
//! instead, because its observer sees each one.

use crate::config::{PipelineConfig, SharePolicy};
use crate::free_list::FreeList;
use crate::frontend::{FrontEnd, FrontEndState};
use crate::iq::IssueQueue;
use crate::lsq::{LoadQueue, MemDepPredictor, StoreQueue};
use crate::rat::Rat;
use crate::result::{
    ActivityCounters, DeadlockSnapshot, OccupancyReport, RunError, RunResult, SmtRunResult,
};
use crate::rob::Rob;
use crate::stages::{commit, issue, release, writeback, RenameStage, StageBus};
use crate::state::{PipelineState, RegSet, ThreadState};
use crate::FuPool;
use ltp_core::{LtpUnit, OracleClassifier};
use ltp_isa::{DynInst, InstStream, SeqMap, ThreadId};
use ltp_mem::{AccessKind, Cycle, MemoryHierarchy, MemoryRequest};

/// If no instruction commits for this many cycles the simulation aborts with
/// a [`RunError::Deadlock`]: it indicates a resource-accounting deadlock.
const DEADLOCK_CYCLES: u64 = 500_000;

/// Upper bound on hardware threads (enforced by `PipelineConfig::validate`),
/// used to keep the per-cycle thread bookkeeping allocation-free.
const MAX_THREADS: usize = 4;

/// How a run ends for each hardware thread (see [`Processor::drive`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stop {
    /// The run ends once the thread has committed this many instructions in
    /// total, or has drained its stream.
    At(u64),
    /// At this many the thread stops fetching and renaming and drains; the
    /// run ends once every thread has (SMT co-runs).
    DrainAt(u64),
}

/// Where a run's measured window opens (see [`Processor::drive`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Window {
    /// At the start: statistics cover the whole run (SMT co-runs).
    Whole,
    /// At [`PipelineConfig::warmup_insts`] committed (0: the whole run).
    Warmup,
    /// At this many committed in total (sampled detailed warm-up).
    From(u64),
}

/// What one pass of [`Processor::drive`] leaves: a result per thread, the
/// front ends as the run left them, and where the measured window opened.
#[derive(Debug)]
pub(crate) struct Run<S> {
    pub(crate) threads: Vec<RunResult>,
    pub(crate) fes: Vec<FrontEnd<S>>,
    pub(crate) window: Option<(Cycle, u64)>,
}

/// A snapshot of one free list, exposed to per-cycle observers.
#[derive(Debug, Clone, Copy)]
pub struct RegFileSnapshot {
    /// Registers currently allocated.
    pub allocated: usize,
    /// Registers still available.
    pub available: usize,
    /// Current capacity of the pool (`usize::MAX` for the limit study).
    pub capacity: usize,
}

impl RegFileSnapshot {
    fn of(list: &FreeList) -> RegFileSnapshot {
        RegFileSnapshot {
            allocated: list.allocated(),
            available: list.available(),
            capacity: list.capacity(),
        }
    }
}

/// What a per-cycle observer (see [`Processor::run_observed`]) gets to see
/// after each simulated cycle: the stage-bus traffic of the cycle plus
/// resource-accounting snapshots, enough to check structural invariants
/// without exposing the mutable machine state.
#[derive(Debug)]
pub struct CycleView<'a> {
    /// The cycle that just finished.
    pub cycle: Cycle,
    /// The signals the stages exchanged during this cycle.
    pub bus: &'a StageBus,
    /// Integer free-list accounting.
    pub int_regs: RegFileSnapshot,
    /// Floating point free-list accounting.
    pub fp_regs: RegFileSnapshot,
    /// Occupied ROB entries.
    pub rob_len: usize,
    /// Instructions committed so far.
    pub committed: u64,
}

/// The out-of-order core.
#[derive(Debug)]
pub struct Processor {
    pub(crate) state: PipelineState,
    /// One signal bus per hardware thread (sequence numbers are dense per
    /// thread, so delayed signals must not mix threads).
    pub(crate) buses: Vec<StageBus>,
    /// One rename skid buffer per hardware thread.
    pub(crate) renames: Vec<RenameStage>,
    /// A restored snapshot's front end and measured-window start, which
    /// [`crate::Snapshot::resume`] leaves for the next run to continue.
    pub(crate) resumed: Option<(FrontEndState, Option<(Cycle, u64)>)>,
}

impl Processor {
    /// Builds a processor from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    #[must_use]
    pub fn new(cfg: PipelineConfig) -> Processor {
        cfg.validate();
        let mem = MemoryHierarchy::new(cfg.mem);
        let monitor_timeout = mem.typical_dram_latency() + cfg.mem.l3.latency;
        // Size the stage-bus timing wheels for the worst common-case delay:
        // a DRAM access behind the full cache hierarchy plus slack for bank
        // queueing. Longer delays still deliver via the wheels' far level.
        let signal_horizon = monitor_timeout + 64;
        // Room for one cycle's signals. The events due on one cycle were
        // scheduled at issue, up to the issue width a cycle but over several
        // issue cycles, and commit records up to the commit width; twice the
        // wider of the two covers every cycle the allocation audits watch.
        let per_cycle = 2 * cfg.issue_width.max(cfg.commit_width).min(64);
        let n = cfg.smt.threads;
        // Static partitioning gives each thread its share of every sized
        // structure and register file. Dynamic sharing gives every thread
        // the full size and bounds the combined occupancy in the capacity
        // checks.
        let static_split = cfg.smt.is_smt() && cfg.smt.policy == SharePolicy::StaticPartition;
        let share =
            |total: usize| (static_split && total != usize::MAX).then(|| (total / n).max(1));
        let size = |total: usize| share(total).unwrap_or(total);
        let mut threads: Vec<Box<ThreadState>> = (0..n)
            .map(|tid| {
                Box::new(ThreadState {
                    tid: ThreadId(tid as u8),
                    ltp: LtpUnit::new(cfg.ltp, monitor_timeout),
                    rob: Rob::new(size(cfg.rob_size)),
                    iq: IssueQueue::new(size(cfg.iq_size)),
                    rat: Rat::new(),
                    lq: LoadQueue::new(size(cfg.lq_size)),
                    sq: StoreQueue::new(size(cfg.sq_size)),
                    memdep: MemDepPredictor::new(),
                    // The ROB plus the rename skid buffer.
                    inflight: SeqMap::with_capacity(cfg.rob_size.min(1024) + 1),
                    completed_regs: RegSet::with_room(cfg.int_regs.max(cfg.fp_regs)),
                    // Each entry waits on a younger writer still in the ROB.
                    released_parked_regs: SeqMap::with_capacity(cfg.rob_size.min(1024)),
                    committed: 0,
                    loads_committed: 0,
                    stores_committed: 0,
                    llc_miss_loads: 0,
                    last_commit_cycle: 0,
                    occupancy: OccupancyReport::default(),
                    activity: ActivityCounters::default(),
                    int_regs_used: 0,
                    fp_regs_used: 0,
                    int_quota: share(cfg.int_regs).unwrap_or(usize::MAX),
                    fp_quota: share(cfg.fp_regs).unwrap_or(usize::MAX),
                })
            })
            .collect();
        let thread0 = threads.remove(0);
        Processor {
            state: PipelineState {
                now: 0,
                mem,
                fu: FuPool::new(&cfg.fu),
                int_free: FreeList::new(cfg.int_regs),
                fp_free: FreeList::new(cfg.fp_regs),
                issue_scratch: Vec::with_capacity(cfg.issue_width.min(64)),
                thread: thread0,
                parked_threads: threads,
                active: 0,
                cfg,
            },
            buses: (0..n)
                .map(|_| StageBus::with_room(signal_horizon, per_cycle))
                .collect(),
            renames: (0..n).map(|_| RenameStage::default()).collect(),
            resumed: None,
        }
    }

    /// Attaches an oracle classifier (perfect classification, limit study)
    /// to thread 0.
    pub fn set_oracle(&mut self, oracle: OracleClassifier) {
        self.set_oracle_for(0, oracle);
    }

    /// Attaches an oracle classifier to the given hardware thread. Each
    /// thread of an SMT machine is analysed against its own trace.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn set_oracle_for(&mut self, tid: usize, oracle: OracleClassifier) {
        self.state.thread_mut(tid).ltp.set_oracle(oracle);
    }

    /// Warms the caches by replaying memory accesses of `trace` functionally
    /// (no timing). The paper warms the caches before every simulation point;
    /// an SMT co-run warms with each thread's trace in turn.
    pub fn warm_caches(&mut self, trace: &[DynInst]) {
        for inst in trace {
            if let Some(access) = inst.mem_access() {
                let kind = if inst.op().is_store() {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                self.state
                    .mem
                    .warm(&MemoryRequest::new(inst.pc(), access.addr(), kind));
            }
        }
    }

    /// The configuration of this processor.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.state.cfg
    }

    /// Current accounting of the integer and floating point register files
    /// (in that order), for resource-conservation checks.
    #[must_use]
    pub fn register_files(&self) -> (RegFileSnapshot, RegFileSnapshot) {
        (
            RegFileSnapshot::of(&self.state.int_free),
            RegFileSnapshot::of(&self.state.fp_free),
        )
    }

    /// Runs the processor on `stream` until `max_insts` instructions have
    /// committed or the stream is exhausted, and returns the run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] when no instruction commits for a very
    /// long time, which indicates a resource-accounting deadlock (or an
    /// intentionally starved configuration) rather than a valid simulation
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics on an SMT-configured machine; use [`Processor::run_smt`] there.
    pub fn run<S: InstStream>(&mut self, stream: S, max_insts: u64) -> Result<RunResult, RunError> {
        self.run_single(stream, max_insts, None)
    }

    /// Like [`Processor::run`], but calls `observer` with a [`CycleView`]
    /// after every simulated cycle. This is the hook the structural-invariant
    /// test-suite uses to watch the stage bus and the resource accounting.
    /// It is also the per-cycle reference of the quiet-cycle skip: the
    /// observer must see every cycle, so this run executes each one, and its
    /// result equals [`Processor::run`]'s in every field but
    /// [`RunResult::cycle_loop_iterations`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] under the same conditions as
    /// [`Processor::run`].
    ///
    /// # Panics
    ///
    /// Panics on an SMT-configured machine; use [`Processor::run_smt`] there.
    pub fn run_observed<S, F>(
        &mut self,
        stream: S,
        max_insts: u64,
        mut observer: F,
    ) -> Result<RunResult, RunError>
    where
        S: InstStream,
        F: FnMut(&CycleView<'_>),
    {
        self.run_single(stream, max_insts, Some(&mut observer))
    }

    fn run_single<S: InstStream>(
        &mut self,
        stream: S,
        max_insts: u64,
        observer: Option<&mut dyn FnMut(&CycleView<'_>)>,
    ) -> Result<RunResult, RunError> {
        assert_eq!(
            self.state.nthreads(),
            1,
            "run/run_observed drive a single-threaded machine; use run_smt for SMT co-runs"
        );
        let mut run = self.drive(vec![stream], Stop::At(max_insts), Window::Warmup, observer)?;
        Ok(run.threads.remove(0))
    }

    /// Like [`Processor::run`], but opens the measured window when the
    /// committed count reaches `measure_from` instead of after the
    /// configuration's warm-up budget; a machine restored at or past it
    /// ([`crate::Snapshot::resume`]) measures from where it resumes. The
    /// sampled runner uses this for each interval's detailed warm-up.
    ///
    /// # Errors
    ///
    /// Same as [`Processor::run`].
    pub fn run_measured_from<S: InstStream>(
        &mut self,
        stream: S,
        max_insts: u64,
        measure_from: u64,
    ) -> Result<RunResult, RunError> {
        let mut run = self.drive(
            vec![stream],
            Stop::At(max_insts),
            Window::From(measure_from),
            None,
        )?;
        Ok(run.threads.remove(0))
    }

    /// Runs the machine in detail until `checkpoint_at` instructions have
    /// committed (or the stream drains first) and captures a [`crate::Snapshot`] of
    /// the complete machine state at that cycle boundary. Restoring the
    /// snapshot ([`crate::Snapshot::resume`]) and finishing the run is bit-for-bit
    /// identical to never having stopped.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] / [`RunError::OracleNotAttached`] under
    /// the same conditions as [`Processor::run`], and
    /// [`RunError::SnapshotUnsupported`] when the machine cannot be
    /// checkpointed (SMT configuration, or a custom classifier without
    /// snapshot support).
    pub fn run_to_snapshot<S: InstStream>(
        &mut self,
        stream: S,
        checkpoint_at: u64,
    ) -> Result<crate::Snapshot, RunError> {
        if self.state.nthreads() != 1 {
            return Err(RunError::SnapshotUnsupported(
                crate::SnapshotError::SmtUnsupported.to_string(),
            ));
        }
        let run = self.drive(vec![stream], Stop::At(checkpoint_at), Window::Warmup, None)?;
        crate::Snapshot::capture(self, run.fes[0].export_state(), run.window)
            .map_err(|e| RunError::SnapshotUnsupported(e.to_string()))
    }

    /// Runs an SMT co-run: one independent instruction stream per hardware
    /// thread over the shared back end, until every stream has drained or
    /// reached its `max_insts_per_thread` budget. A thread that reaches the
    /// budget stops fetching and renaming and drains its back end (its
    /// committed count can therefore exceed the budget by the instructions
    /// already in flight); the co-run ends when every thread has drained.
    /// Returns one [`RunResult`] per thread on the shared cycle timeline.
    ///
    /// Pipeline warm-up (`PipelineConfig::warmup_insts`) is not applied to
    /// co-runs; statistics cover the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] when no thread commits for a very long
    /// time, and [`RunError::OracleNotAttached`] when the configuration
    /// selects the oracle classifier but not every thread has one attached
    /// (see [`Processor::set_oracle_for`]).
    ///
    /// # Panics
    ///
    /// Panics if the number of streams does not match the configured thread
    /// count.
    pub fn run_smt<S: InstStream>(
        &mut self,
        streams: Vec<S>,
        max_insts_per_thread: u64,
    ) -> Result<SmtRunResult, RunError> {
        assert_eq!(
            streams.len(),
            self.state.nthreads(),
            "one instruction stream per configured hardware thread"
        );
        let run = self.drive(
            streams,
            Stop::DrainAt(max_insts_per_thread),
            Window::Whole,
            None,
        )?;
        Ok(SmtRunResult {
            cycles: self.state.now.max(1),
            threads: run.threads,
        })
    }

    /// The cycle loop, the one caller of [`Processor::cycle`]: every run is
    /// this loop with its own `stop` and `window` rules. It refuses to
    /// start when the configuration selects the oracle classifier and a
    /// thread has none attached, builds one front end per stream (thread 0
    /// of a machine restored by [`crate::Snapshot::resume`] continues the
    /// snapshot's front end, seeking its stream past what it consumed), then
    /// runs cycles until every thread has finished under `stop`, calling
    /// `observer` after each, noting the cycle each thread finished on and
    /// aborting once no thread has committed for `DEADLOCK_CYCLES` cycles.
    /// Without an observer, a quiet cycle is followed by a jump to the next
    /// cycle on which anything can happen ([`Processor::next_event`]); the
    /// skipped cycles are charged to the statistics they would have fed, so
    /// the result is the same cycle for cycle.
    ///
    /// The measured window opens at the end of the first cycle on which the
    /// committed count reaches the window's threshold. A resumed run that
    /// starts already past it keeps, under [`Window::Warmup`], the start its
    /// snapshot recorded (where the uninterrupted run opened the window),
    /// and opens it, under [`Window::From`], where the run starts. Each
    /// thread's result covers the window up to the cycle it finished on.
    pub(crate) fn drive<S: InstStream>(
        &mut self,
        streams: Vec<S>,
        stop: Stop,
        window: Window,
        mut observer: Option<&mut dyn FnMut(&CycleView<'_>)>,
    ) -> Result<Run<S>, RunError> {
        let cfg = self.state.cfg;
        if cfg.needs_oracle() && !self.state.all_threads().all(|t| t.ltp.oracle_attached()) {
            return Err(RunError::OracleNotAttached);
        }
        let (mut restored, inherited) = self
            .resumed
            .take()
            .map_or((None, None), |(fe, start)| (Some(fe), start));
        let mut fes: Vec<FrontEnd<S>> = streams
            .into_iter()
            .map(|s| match restored.take() {
                Some(fe) => FrontEnd::from_state(s, fe, cfg.frontend_delay, cfg.mispredict_penalty),
                None => FrontEnd::new(s, cfg.frontend_delay, cfg.mispredict_penalty),
            })
            .collect();

        let committed = self.state.thread.committed;
        let (mut start, open_at) = match window {
            Window::Whole => (None, u64::MAX),
            Window::Warmup if cfg.warmup_insts == 0 => (inherited, u64::MAX),
            Window::Warmup => (inherited, cfg.warmup_insts),
            Window::From(n) => ((committed >= n).then_some((self.state.now, committed)), n),
        };
        // A thread finishes when it reaches `halt`, or when it has drained
        // its stream or reached `cap` and emptied its ROB; `cycle` stops a
        // thread at `cap` from fetching and renaming.
        let (halt, cap) = match stop {
            Stop::At(n) => (n, u64::MAX),
            Stop::DrainAt(n) => (u64::MAX, n),
        };
        let finished = |state: &PipelineState, fe: &FrontEnd<S>, tid: usize| {
            let t = state.thread_ref(tid);
            t.committed >= halt || ((fe.is_drained() || t.committed >= cap) && t.rob.is_empty())
        };
        let mut finish: [Option<Cycle>; MAX_THREADS] = [None; MAX_THREADS];
        let mut running = (0..fes.len()).any(|tid| !finished(&self.state, &fes[tid], tid));
        let mut iterations = 0u64;
        while running {
            let quiet = self.cycle(&mut fes, cap);
            iterations += 1;
            let now = self.state.now;
            let t = &self.state.thread;
            if let Some(observer) = observer.as_mut() {
                observer(&CycleView {
                    cycle: now - 1,
                    bus: &self.buses[0],
                    int_regs: RegFileSnapshot::of(&self.state.int_free),
                    fp_regs: RegFileSnapshot::of(&self.state.fp_free),
                    rob_len: t.rob.len(),
                    committed: t.committed,
                });
            }
            if start.is_none() && t.committed >= open_at {
                start = Some((now, t.committed));
            }
            // A finished thread stays finished: it fetches nothing more.
            for (tid, end) in finish.iter_mut().enumerate().take(fes.len()) {
                if end.is_none() && finished(&self.state, &fes[tid], tid) {
                    *end = Some(now);
                }
            }
            running = finish[..fes.len()].contains(&None);
            // The active thread's stall is checked first, so a running
            // machine never looks at the other threads here.
            if now - t.last_commit_cycle >= DEADLOCK_CYCLES
                && self
                    .state
                    .all_threads()
                    .all(|other| now - other.last_commit_cycle >= DEADLOCK_CYCLES)
            {
                let names: Vec<&str> = fes.iter().map(FrontEnd::workload).collect();
                return Err(RunError::Deadlock {
                    cycle: now,
                    snapshot: Box::new(self.deadlock_snapshot(names.join("+"))),
                });
            }
            if running && quiet && observer.is_none() {
                let to = self.next_event(&fes);
                if to > now {
                    self.state.idle_until(to);
                }
            }
        }

        let now = self.state.now;
        let (start_cycle, start_insts) = start.unwrap_or((0, 0));
        let mem = self.state.mem.stats();
        let threads = fes
            .iter()
            .enumerate()
            .map(|(tid, fe)| {
                let t = self.state.thread_ref(tid);
                let end = finish[tid].unwrap_or(now);
                RunResult {
                    workload: fe.workload().to_string(),
                    cycles: end.saturating_sub(start_cycle).max(1),
                    instructions: t.committed.saturating_sub(start_insts),
                    occupancy: t.occupancy.clone(),
                    activity: t.activity,
                    ltp: t.ltp.stats().clone(),
                    ltp_enabled_fraction: t.ltp.enabled_fraction(end.max(1)),
                    mem,
                    branch_mispredict_rate: fe.branch_predictor().misprediction_rate(),
                    loads: t.loads_committed,
                    stores: t.stores_committed,
                    llc_miss_loads: t.llc_miss_loads,
                    cycle_loop_iterations: iterations,
                }
            })
            .collect();
        Ok(Run {
            threads,
            fes,
            window: start,
        })
    }

    /// The next cycle to run after a quiet cycle (`now - 1`): the first on
    /// which some stage can act differently from the quiet one. Between
    /// quiet cycles the machine state is constant, so only time-driven
    /// conditions can end the quiet span:
    /// - a delayed signal falling due on a stage bus (completions and early
    ///   long-latency signals);
    /// - the front-end pipe head becoming ready for rename, or a redirect
    ///   ending so fetch resumes;
    /// - a busy unpipelined functional unit freeing up;
    /// - the release stage's no-commit threshold, while the LTP holds
    ///   instructions;
    /// - the cycle whose end trips the deadlock watchdog.
    ///
    /// Every other input to a stage is machine state, which a quiet cycle
    /// leaves unchanged. MSHR completions inside the span change no stage's
    /// behaviour, only the outstanding-miss samples, which
    /// [`PipelineState::idle_until`] charges per completion.
    fn next_event<S: InstStream>(&self, fes: &[FrontEnd<S>]) -> Cycle {
        let state = &self.state;
        let last = state.now - 1;
        let watchdog = state
            .all_threads()
            .map(|t| t.last_commit_cycle)
            .max()
            .unwrap_or(0)
            + DEADLOCK_CYCLES
            - 1;
        let mut to = watchdog.min(state.fu.next_free(last).unwrap_or(Cycle::MAX));
        for (tid, (fe, bus)) in fes.iter().zip(&self.buses).enumerate() {
            let t = state.thread_ref(tid);
            let front = fe.next_change(last).unwrap_or(Cycle::MAX);
            let stall = release::stall_force_cycle(t)
                .filter(|&c| c > last)
                .unwrap_or(Cycle::MAX);
            to = bus.next_due(to.min(front).min(stall));
        }
        to.max(state.now)
    }

    /// The per-cycle thread order: the primary thread gets first claim on
    /// the shared front-end, issue and commit bandwidth. Round-robin by
    /// cycle parity for the static and plain-shared policies, fewest
    /// front-end + IQ instructions first (ICOUNT) for `SharePolicy::Icount`.
    fn thread_order<S: InstStream>(&self, fes: &[FrontEnd<S>]) -> ([usize; MAX_THREADS], usize) {
        let n = self.state.nthreads();
        let mut order = [0usize; MAX_THREADS];
        if n == 1 {
            return (order, 1);
        }
        match self.state.cfg.smt.policy {
            SharePolicy::Icount => {
                for (i, slot) in order.iter_mut().take(n).enumerate() {
                    *slot = i;
                }
                order[..n].sort_unstable_by_key(|&t| {
                    (self.state.thread_ref(t).iq.len() + fes[t].backlog(), t)
                });
            }
            SharePolicy::StaticPartition | SharePolicy::Shared => {
                let primary = (self.state.now as usize) % n;
                for (i, slot) in order.iter_mut().take(n).enumerate() {
                    *slot = (primary + i) % n;
                }
            }
        }
        (order, n)
    }

    /// Advances the machine by one cycle, driving the stages back-to-front.
    /// Under SMT every stage runs once per thread (in the policy's priority
    /// order) before the next stage — the faithful model of SMT stages
    /// operating concurrently — so, e.g., both threads' release stages see
    /// the IQ entries freed by both threads' commits before either thread's
    /// rename claims shared capacity. The commit, issue, front-end and fetch
    /// widths are shared budgets; the primary thread has first claim.
    ///
    /// A thread whose committed count has reached `insts_cap` no longer
    /// renames or fetches (it drains in flight). Single-thread runs pass
    /// `u64::MAX`: [`Stop::At`] ends the whole simulation at its count
    /// instead, which keeps that path bit-identical to the pre-SMT machine.
    ///
    /// Returns whether the cycle was quiet: no stage of any thread changed
    /// the machine, so the next cycle starts from the state this one did.
    /// Nothing completed, committed, released, issued, renamed or fetched,
    /// and the force-release latch ends as it began.
    fn cycle<S: InstStream>(&mut self, fes: &mut [FrontEnd<S>], insts_cap: u64) -> bool {
        let (order, n) = self.thread_order(fes);
        let order = &order[..n];
        let Processor {
            state,
            buses,
            renames,
            ..
        } = self;
        let mut before = [(false, (0, 0, false)); MAX_THREADS];
        for &t in order {
            before[t] = (buses[t].force_release_pending(), fes[t].progress_mark());
            buses[t].begin_cycle();
        }
        state.fu.new_cycle();
        for &t in order {
            state.activate(t);
            writeback::run(state, &mut buses[t]);
        }
        let mut commit_budget = state.cfg.commit_width;
        for &t in order {
            state.activate(t);
            commit_budget =
                commit_budget.saturating_sub(commit::run(state, &mut buses[t], commit_budget));
        }
        for &t in order {
            state.activate(t);
            release::run(state, &mut buses[t]);
        }
        let mut issue_budget = state.cfg.issue_width;
        for &t in order {
            state.activate(t);
            issue_budget =
                issue_budget.saturating_sub(issue::run(state, &mut buses[t], issue_budget));
        }
        let mut rename_budget = state.cfg.front_width;
        for &t in order {
            state.activate(t);
            if state.thread.committed >= insts_cap {
                continue;
            }
            // The pending-dispatch retry does not consume budget it was not
            // given, so a thread can rename one instruction past an exhausted
            // share; saturate rather than underflow.
            rename_budget = rename_budget.saturating_sub(renames[t].run(
                state,
                &mut buses[t],
                &mut fes[t],
                rename_budget,
            ));
        }
        let mut fetch_budget = state.cfg.front_width;
        for &t in order {
            if state.thread_ref(t).committed >= insts_cap {
                continue;
            }
            let before = fes[t].fetched();
            fes[t].fetch(state.now, fetch_budget);
            fetch_budget = fetch_budget.saturating_sub((fes[t].fetched() - before) as usize);
            if fetch_budget == 0 {
                break;
            }
        }
        let outstanding = state.mem.outstanding_misses(state.now) as u64;
        for &t in order {
            state.activate(t);
            state.sample_occupancy(outstanding);
        }
        state.now += 1;
        let cfg = &state.cfg;
        (commit_budget, issue_budget, rename_budget)
            == (cfg.commit_width, cfg.issue_width, cfg.front_width)
            && order.iter().all(|&t| {
                let bus = &buses[t];
                bus.seq_wakeups.is_empty()
                    && bus.ticket_clears.is_empty()
                    && bus.releases.is_empty()
                    && before[t] == (bus.force_release_pending(), fes[t].progress_mark())
            })
    }

    fn deadlock_snapshot(&self, workload: String) -> DeadlockSnapshot {
        let state = &self.state;
        let head_thread = state
            .all_threads()
            .find(|t| !t.rob.is_empty())
            .unwrap_or(&state.thread);
        DeadlockSnapshot {
            workload,
            committed: state.all_threads().map(|t| t.committed).sum(),
            rob_len: state.all_threads().map(|t| t.rob.len()).sum(),
            iq_len: state.iq_total(),
            ltp_occupancy: state.all_threads().map(|t| t.ltp.occupancy()).sum(),
            head: head_thread.rob.head().map(|e| (e.seq, e.state, e.op)),
            iq_size: state.cfg.iq_size,
            int_regs_available: state.int_free.available(),
            fp_regs_available: state.fp_free.available(),
            lq_len: state.all_threads().map(|t| t.lq.len()).sum(),
            sq_len: state.all_threads().map(|t| t.sq.len()).sum(),
            ltp_mode: state.cfg.ltp.mode,
        }
    }
}
