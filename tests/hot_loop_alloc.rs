//! Steady-state allocation audit of the hot cycle loop.
//!
//! The scheduling rewrite (indexed IQ wakeup, timing-wheel stage bus,
//! indexed LTP queue, scratch-buffer reuse) claims the per-cycle hot path
//! performs **no heap allocation in steady state**. This test pins that: a
//! counting global allocator watches a full simulation of the mixed kernel
//! on the proposed LTP machine, and once the machine has reached steady
//! state (capacities grown, tables warm) every subsequent cycle must
//! allocate nothing.
//!
//! The trace and configuration are fixed, so the test is deterministic; a
//! failure means a per-cycle allocation crept back into the IQ, stage-bus,
//! release or commit path — or, for the seeked-generator audit, into the
//! workload generator that feeds sampled intervals, or, for the resume
//! audit, into containers a restored checkpoint gave less room than a
//! fresh processor has.
//!
//! Allocations are counted per thread: the simulation and its observer run
//! on the test's own thread, and libtest runs the audits in parallel, so a
//! process-wide count would charge each audit with the others' work.
//!
//! An observer turns the quiet-cycle skip off, so the skipping loop of
//! `Processor::run` is audited through its input instead: a probe stream
//! reads the allocation counter as fetch pulls instructions.

use ltp_core::{LtpMode, OracleAnalysis};
use ltp_experiments::runner::limit_study_config;
use ltp_isa::{DynInst, InstStream};
use ltp_pipeline::{FunctionalFastForward, PipelineConfig, Processor};
use ltp_workloads::{replay_slice, trace, WorkloadKind};
use std::cell::Cell;
use std::rc::Rc;

// The counting allocator needs `unsafe impl GlobalAlloc`; the workspace
// otherwise denies unsafe code, so the exemption is scoped to this shim.
#[allow(unsafe_code)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Allocation (and reallocation) calls made by this thread. Const
        /// initialised and without a destructor, so counting never
        /// allocates or touches a torn-down slot.
        static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    fn count() {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    }

    /// Allocation calls the current thread has made so far.
    pub fn calls() -> u64 {
        ALLOC_CALLS.with(Cell::get)
    }

    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            unsafe { System.alloc_zeroed(layout) }
        }
    }
}

#[global_allocator]
static ALLOCATOR: counting::CountingAlloc = counting::CountingAlloc;

/// Runs `cpu` over `stream` until `max_insts` have committed and returns
/// `(steady_cycles, allocating_cycles)` for the cycles after
/// `warm_committed` instructions have committed.
fn count_steady<S: InstStream>(
    cpu: &mut Processor,
    stream: S,
    max_insts: u64,
    warm_committed: u64,
) -> (u64, u64) {
    let mut last = counting::calls();
    let mut steady_cycles = 0u64;
    let mut allocating_cycles = 0u64;
    cpu.run_observed(stream, max_insts, |view| {
        let now = counting::calls();
        if view.committed > warm_committed {
            steady_cycles += 1;
            if now != last {
                allocating_cycles += 1;
            }
        }
        last = now;
    })
    .expect("no deadlock");
    (steady_cycles, allocating_cycles)
}

/// Runs `kind` on `cfg`, with the trace's analysed oracle attached when
/// `cfg` classifies by oracle, and returns `(steady_cycles,
/// allocating_cycles)` for the window after `warm_committed` instructions
/// have committed.
fn audit(cfg: PipelineConfig, kind: WorkloadKind, insts: u64, warm_committed: u64) -> (u64, u64) {
    let warm = trace(kind, 7, 2_000);
    let detail = trace(kind, 8, insts as usize);
    let mut cpu = Processor::new(cfg);
    cpu.warm_caches(&warm);
    if cfg.needs_oracle() {
        let window = cfg.rob_size.min(4096) as u64;
        cpu.set_oracle(OracleAnalysis::new(window).analyze(&detail, &cfg.mem));
    }
    count_steady(
        &mut cpu,
        replay_slice(kind.name(), &detail),
        insts,
        warm_committed,
    )
}

/// The proposed LTP machine on the mixed kernel: after warm-up, the cycle
/// loop (wakeup, select, release, commit, stage-bus traffic) is
/// allocation-free.
#[test]
fn steady_state_cycles_do_not_allocate() {
    let (steady, allocating) = audit(
        PipelineConfig::ltp_proposed(),
        WorkloadKind::MixedPhases,
        6_000,
        3_000,
    );
    assert!(
        steady > 500,
        "audit window too small to be meaningful: {steady} cycles"
    );
    assert_eq!(
        allocating, 0,
        "{allocating} of {steady} steady-state cycles performed a heap allocation"
    );
}

/// Same audit for the baseline (LTP off) machine, which exercises the pure
/// IQ/bus path without the parking queue.
#[test]
fn baseline_steady_state_cycles_do_not_allocate() {
    let (steady, allocating) = audit(
        PipelineConfig::micro2015_baseline(),
        WorkloadKind::MixedPhases,
        6_000,
        3_000,
    );
    assert!(steady > 500, "audit window too small: {steady} cycles");
    assert_eq!(
        allocating, 0,
        "{allocating} of {steady} steady-state cycles performed a heap allocation"
    );
}

/// The limit study's Non-Ready parking (ideal LTP in both modes, IQ 32,
/// analysed oracle): inheriting, copying and clearing tickets are word
/// operations on ticket bitsets, so parking allocates nothing once the
/// ideal LTP's unbounded tables have grown. The window starts after 6,000
/// commits because those tables are still growing at 3,000.
#[test]
fn non_ready_parking_does_not_allocate() {
    let cfg = limit_study_config(LtpMode::Both).with_iq(32);
    for kind in [WorkloadKind::MixedPhases, WorkloadKind::HashProbe] {
        let (steady, allocating) = audit(cfg, kind, 12_000, 6_000);
        assert!(steady > 500, "audit window too small: {steady} cycles");
        assert_eq!(
            allocating,
            0,
            "{}: {allocating} of {steady} steady-state cycles performed a heap allocation",
            kind.name()
        );
    }
}

/// The generator that feeds sampled intervals, seeked with `skip_insts` the
/// way a resumed front end seeks it, drives the cycle loop. The seek lands
/// mid-iteration and the audited window lies in a memory phase of the
/// mixed kernel. Once the machine is warm, neither the loop nor the
/// generator allocates: the kernel's emitter reuses one iteration buffer
/// for the life of the stream.
#[test]
fn seeked_generator_cycles_do_not_allocate() {
    let kind = WorkloadKind::MixedPhases;
    let start = 24_007;
    let mut stream = InstStream::take_insts(kind.build(8), start + 8_000);
    assert_eq!(stream.skip_insts(start), start);
    let mut cpu = Processor::new(PipelineConfig::ltp_proposed());
    cpu.warm_caches(&trace(kind, 7, 2_000));
    let (steady, allocating) = count_steady(&mut cpu, stream, 6_000, 3_000);
    assert!(steady > 500, "audit window too small: {steady} cycles");
    assert_eq!(
        allocating, 0,
        "{allocating} of {steady} steady-state cycles performed a heap allocation"
    );
}

/// A processor resumed from a functional checkpoint, and a fresh one over
/// the same stretch of the stream, allocate on no steady-state cycle:
/// restoring a checkpoint keeps the capacities `Processor::new` sizes its
/// queues, wheels and tables with, and those fit what a cycle needs. Every
/// sampled interval resumes a processor, so every sampled job would pay for
/// an allocation here. The resumed side runs the stream from its start
/// through the restored front end, which seeks past the checkpoint the way
/// a sampled interval does.
fn audit_resumed_against_fresh(cfg: PipelineConfig) {
    let kind = WorkloadKind::MixedPhases;
    let start = 30_000u64;
    let stream = || InstStream::take_insts(kind.build(8), start + 20_000);
    let warm = trace(kind, 7, 2_000);

    let mut ff = FunctionalFastForward::new(cfg);
    ff.warm_caches(&warm);
    ff.feed_all(&trace(kind, 8, start as usize));
    let mut resumed = ff.checkpoint().expect("checkpoint").resume();
    let (steady, resumed_allocating) =
        count_steady(&mut resumed, stream(), start + 20_000, start + 10_000);
    assert!(steady > 500, "audit window too small: {steady} cycles");

    let mut seeked = stream();
    assert_eq!(seeked.skip_insts(start), start);
    let mut fresh = Processor::new(cfg);
    fresh.warm_caches(&warm);
    let (fresh_steady, fresh_allocating) = count_steady(&mut fresh, seeked, 20_000, 10_000);
    assert!(
        fresh_steady > 500,
        "audit window too small: {fresh_steady} cycles"
    );
    assert_eq!(
        (resumed_allocating, fresh_allocating),
        (0, 0),
        "resumed: {resumed_allocating} of {steady} steady-state cycles allocate; \
         fresh: {fresh_allocating} of {fresh_steady}"
    );
}

#[test]
fn resumed_processor_allocates_no_more_than_fresh() {
    audit_resumed_against_fresh(PipelineConfig::ltp_proposed());
}

#[test]
fn resumed_baseline_allocates_no_more_than_fresh() {
    audit_resumed_against_fresh(PipelineConfig::micro2015_baseline());
}

/// A stream that reads this thread's allocation counter when fetch pulls
/// instruction `from` and again when it pulls instruction `to` (positions
/// in the whole stream, seeks included). Fetch runs inside the cycle loop,
/// so the difference is what the loop allocated in between.
struct Probe<S> {
    inner: S,
    pos: u64,
    at: [u64; 2],
    marks: Rc<Cell<[Option<u64>; 2]>>,
}

impl<S: InstStream> InstStream for Probe<S> {
    fn next_inst(&mut self) -> Option<DynInst> {
        if let Some(i) = self.at.iter().position(|&at| at == self.pos) {
            let mut marks = self.marks.get();
            marks[i] = Some(counting::calls());
            self.marks.set(marks);
        }
        self.pos += 1;
        self.inner.next_inst()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        let skipped = self.inner.skip_insts(n);
        self.pos += skipped;
        skipped
    }
}

/// Runs `cpu` with quiet-cycle skipping over the stretch `start..start +
/// 20_000` of the mixed kernel's stream — a fresh processor from a stream
/// seeked to `start`, a resumed one (`resumed`, committed count `start`)
/// from the stream's beginning, which its front end seeks — and returns the
/// allocations of the loop between the fetches of instructions `start +
/// 10_000` and `start + 19_000`.
fn skipping_allocations(mut cpu: Processor, start: u64, resumed: bool) -> u64 {
    let mut stream = InstStream::take_insts(WorkloadKind::MixedPhases.build(8), start + 20_000);
    let mut budget = 20_000;
    if resumed {
        budget += start;
    } else {
        assert_eq!(stream.skip_insts(start), start);
    }
    let marks = Rc::new(Cell::new([None; 2]));
    let probe = Probe {
        inner: stream,
        pos: if resumed { 0 } else { start },
        at: [start + 10_000, start + 19_000],
        marks: Rc::clone(&marks),
    };
    cpu.run(probe, budget).expect("no deadlock");
    match marks.get() {
        [Some(a), Some(b)] => b - a,
        marks => panic!("the run never reached both probe points: {marks:?}"),
    }
}

/// The skipping loop of `Processor::run`, on a fresh processor and on one
/// resumed from a functional checkpoint, allocates nothing in steady state:
/// jumping over quiet spans (timing-wheel scans, span sampling, MSHR
/// completion walks) reuses what the per-cycle loop already sized.
#[test]
fn skipping_runs_do_not_allocate_in_steady_state() {
    let kind = WorkloadKind::MixedPhases;
    let start = 30_000u64;
    let warm = trace(kind, 7, 2_000);
    for (name, cfg) in [
        ("ltp_proposed", PipelineConfig::ltp_proposed()),
        ("micro2015_baseline", PipelineConfig::micro2015_baseline()),
    ] {
        let mut fresh = Processor::new(cfg);
        fresh.warm_caches(&warm);
        let fresh_allocating = skipping_allocations(fresh, start, false);

        let mut ff = FunctionalFastForward::new(cfg);
        ff.warm_caches(&warm);
        ff.feed_all(&trace(kind, 8, start as usize));
        let resumed = ff.checkpoint().expect("checkpoint").resume();
        let resumed_allocating = skipping_allocations(resumed, start, true);
        assert_eq!(
            (fresh_allocating, resumed_allocating),
            (0, 0),
            "steady-state allocations of a skipping run on {name}: fresh, resumed"
        );
    }
}
