//! Tiny-size runs of every workload through the same code the benchmark
//! runs. One test, run start to finish on one thread, because it counts the
//! process's threads and scratch directories.

use std::time::Duration;

use ltpbench::plan::{Plan, Workload};
use ltpbench::run;
use ltpbench::sys::{thread_count, wait_for_threads, SCRATCH_ROOT};

#[test]
fn tiny_runs_succeed_count_mismatches_and_leave_nothing_behind() {
    let threads = thread_count();
    let plan = Plan::tiny(11);
    for w in Workload::ALL {
        let mut r = run::run(w, &plan);
        let (attempted, failed) = r.tally();
        assert_eq!(failed, 0, "{}: {:?} {:?}", w.name(), r.notes, r.ops);
        assert_eq!(attempted, plan.rounds * r.points.len(), "{}", w.name());
        assert_eq!(r.setups.len(), plan.setups, "{}", w.name());
        assert!(r.reference.iter().all(Option::is_some), "{}", w.name());
        for m in r.metrics() {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
        // A run is fixed work: the same plan gives the same digests.
        if w == Workload::FullDetail {
            assert_eq!(r.digest(), run::run(w, &plan).digest());
        }

        // A reference that disagrees fails every operation of its point,
        // and only those.
        let per_point = r.ops.iter().filter(|op| op.point == 0).count();
        r.reference[0] = Some("0x0000000000000000".to_string());
        assert_eq!(r.tally(), (attempted, per_point), "{}", w.name());
        r.reference[0] = None;
        assert_eq!(r.tally(), (attempted, per_point), "{}", w.name());
    }
    assert!(
        wait_for_threads(threads, Duration::from_secs(10)),
        "threads left running: {} > {threads}",
        thread_count()
    );
    assert!(
        !std::path::Path::new(SCRATCH_ROOT).exists(),
        "scratch directory {SCRATCH_ROOT} left behind"
    );
}
