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

use ltp_isa::InstStream;
use ltp_pipeline::{FunctionalFastForward, PipelineConfig, Processor};
use ltp_workloads::{replay_slice, trace, WorkloadKind};

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

/// Runs `kind` on `cfg` and returns `(steady_cycles, allocating_cycles)`
/// for the window after `warm_committed` instructions have committed.
fn audit(cfg: PipelineConfig, kind: WorkloadKind, insts: u64, warm_committed: u64) -> (u64, u64) {
    let warm = trace(kind, 7, 2_000);
    let detail = trace(kind, 8, insts as usize);
    let mut cpu = Processor::new(cfg);
    cpu.warm_caches(&warm);
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

/// A processor resumed from a functional checkpoint allocates on no more
/// steady-state cycles than a fresh processor over the same stretch of the
/// stream: restoring a checkpoint keeps the capacities `Processor::new`
/// sizes its queues, wheels and tables with. Every sampled interval resumes
/// a processor, so every sampled job would pay for the difference.
fn audit_resumed_against_fresh(cfg: PipelineConfig) {
    let kind = WorkloadKind::MixedPhases;
    let start = 30_000u64;
    let seeked = || {
        let mut stream = InstStream::take_insts(kind.build(8), start + 20_000);
        assert_eq!(stream.skip_insts(start), start);
        stream
    };
    let warm = trace(kind, 7, 2_000);

    let mut ff = FunctionalFastForward::new(cfg);
    ff.warm_caches(&warm);
    ff.feed_all(&trace(kind, 8, start as usize));
    let mut resumed = ff.checkpoint().expect("checkpoint").resume();
    let (steady, resumed_allocating) = count_steady(
        resumed.processor_mut(),
        seeked(),
        start + 20_000,
        start + 10_000,
    );
    assert!(steady > 500, "audit window too small: {steady} cycles");

    let mut fresh = Processor::new(cfg);
    fresh.warm_caches(&warm);
    let (fresh_steady, fresh_allocating) = count_steady(&mut fresh, seeked(), 20_000, 10_000);
    assert!(
        resumed_allocating <= fresh_allocating,
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
