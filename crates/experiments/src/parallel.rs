//! A tiny scoped-thread work distributor for independent simulation points.
//!
//! Every experiment consists of many completely independent simulations; this
//! helper fans them out over the available cores using only `std::thread`.
//!
//! [`stream_map_lpt`] is the one distributor: a producer emits jobs one at a
//! time while workers claim the heaviest available one (online LPT), so a
//! worker that finishes early takes the next job instead of idling behind a
//! fixed share. [`par_map`] feeds it a list at equal cost, so its items are
//! claimed in list order. It is fault tolerant: each task runs under
//! [`catch_unwind`], and a task that panics comes back as a structured
//! [`TaskFailure`] instead of tearing down the whole scope.
//!
//! The `LTP_THREADS` environment variable overrides the detected parallelism
//! (useful for reproducible CI runs and for pinning experiments to a core
//! budget); invalid or zero values fall back to the detected count.
//!
//! [`catch_unwind`]: std::panic::catch_unwind

/// Number of worker threads for a pool processing up to `n` jobs: the
/// `LTP_THREADS` override when set and valid, otherwise the machine's
/// available parallelism, clamped to `[1, n]`.
///
/// This is the single pool-sizing policy shared by every distributor in this
/// module *and* by external schedulers (the `ltp-service` job server sizes
/// its interval-execution permits with `worker_threads(usize::MAX)`), so a
/// `--workers N` / `LTP_THREADS=N` override applies consistently everywhere.
#[must_use]
pub fn worker_threads(n: usize) -> usize {
    let configured = std::env::var("LTP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0);
    let threads = configured.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(4)
    });
    threads.min(n).max(1)
}

/// Applies `f` to every item in parallel, preserving order. Idle workers
/// claim the items in order through [`stream_map_lpt`].
///
/// # Panics
///
/// Panics with the [`TaskFailure`] of an item on which `f` panicked, once
/// every item has run.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let produce = |queue: &StreamQueue<'_, T>| {
        for item in items {
            queue.push(0, item);
        }
    };
    stream_map_lpt(n, produce, |item| f(&item))
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|failure| panic!("{failure}")))
        .collect()
}

/// Locks a mutex, recovering the data if a previous holder panicked while
/// the lock was held. The queue state is only mutated through small,
/// panic-free critical sections, so its invariants survive a poisoned
/// unlock; the fault-tolerant runners must keep going when one worker dies
/// rather than cascade the panic through every thread touching the queue.
fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`Condvar::wait`](std::sync::Condvar::wait) with the same poison recovery
/// as [`lock_recover`].
fn wait_recover<'a, T>(
    cv: &std::sync::Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The producer-side handle of [`stream_map_lpt`]: push one job with an LPT
/// cost estimate. Pushing blocks while the bounded queue is full, which keeps
/// at most a few encoded jobs in memory regardless of how far the producer
/// runs ahead of the workers.
#[derive(Debug)]
pub struct StreamQueue<'a, T> {
    shared: &'a StreamShared<T>,
    capacity: usize,
}

#[derive(Debug)]
struct StreamShared<T> {
    state: std::sync::Mutex<StreamState<T>>,
    not_empty: std::sync::Condvar,
    not_full: std::sync::Condvar,
}

#[derive(Debug)]
struct StreamState<T> {
    /// Jobs pushed but not yet claimed: `(push index, cost, item)`.
    pending: Vec<(usize, u64, T)>,
    /// Set when the producer finishes (or either side unwinds): workers
    /// drain `pending` and exit, pushes become no-ops.
    closed: bool,
    pushed: usize,
}

impl<T> StreamQueue<'_, T> {
    /// Enqueues one job. Blocks while the queue holds `capacity` unclaimed
    /// jobs; returns without pushing if the stream was force-closed by a
    /// panicking worker (the panic propagates once the scope joins, so the
    /// dropped job is never observed).
    pub fn push(&self, cost: u64, item: T) {
        let mut st = lock_recover(&self.shared.state);
        while st.pending.len() >= self.capacity && !st.closed {
            st = wait_recover(&self.shared.not_full, st);
        }
        if st.closed {
            return;
        }
        let idx = st.pushed;
        st.pushed += 1;
        st.pending.push((idx, cost, item));
        drop(st);
        self.shared.not_empty.notify_one();
    }
}

/// Claims the heaviest pending job, ties to the earliest pushed (online LPT),
/// blocking while the queue is empty but still open. Returns `None` once the
/// stream is closed and fully drained.
fn claim_heaviest<T>(shared: &StreamShared<T>) -> Option<(usize, T)> {
    let mut st = lock_recover(&shared.state);
    loop {
        let best = st
            .pending
            .iter()
            .enumerate()
            .max_by_key(|(_, (idx, cost, _))| (*cost, std::cmp::Reverse(*idx)))
            .map(|(pos, _)| pos);
        if let Some(pos) = best {
            let (idx, _, item) = st.pending.swap_remove(pos);
            return Some((idx, item));
        }
        if st.closed {
            return None;
        }
        st = wait_recover(&shared.not_empty, st);
    }
}

/// Closes the stream on drop — including when the closing scope unwinds — so
/// blocked workers and producers always wake up instead of deadlocking under
/// a panic.
struct StreamCloseGuard<'a, T> {
    shared: &'a StreamShared<T>,
}

impl<T> Drop for StreamCloseGuard<'_, T> {
    fn drop(&mut self) {
        lock_recover(&self.shared.state).closed = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }
}

/// A task that panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Push index of the failed task.
    pub index: usize,
    /// The panic message (see [`panic_message`]).
    pub message: String,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskFailure {}

/// Best-effort extraction of a panic payload's message: the payload of
/// `panic!` with a literal or a format string, else "non-string panic
/// payload".
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Streaming, fault-tolerant work distributor: the producer closure runs on
/// the caller's thread and *emits* jobs one at a time through a bounded
/// [`StreamQueue`], while worker threads consume them concurrently — each
/// worker claims the **heaviest currently available** job (ties to the
/// earliest pushed), the online adaptation of LPT scheduling for jobs whose
/// costs are only discovered as the producer advances. The first worker
/// starts the moment the first job lands, so a serial production phase
/// overlaps the parallel consumption phase, and the bounded queue (twice the
/// worker count) caps how many jobs exist at once.
///
/// Every task runs under [`catch_unwind`](std::panic::catch_unwind), so
/// one panicking job comes back as a [`TaskFailure`] instead of tearing
/// down the scope, and the worker goes on to claim the next job.
///
/// `expected_jobs` sizes the worker pool ([`worker_threads`]); it is a hint,
/// not a limit — the producer may push any number of jobs. Each job moves
/// into its task, and results come back in push order.
pub fn stream_map_lpt<T, R, P, F>(
    expected_jobs: usize,
    produce: P,
    f: F,
) -> Vec<Result<R, TaskFailure>>
where
    T: Send,
    R: Send,
    P: FnOnce(&StreamQueue<'_, T>),
    F: Fn(T) -> R + Sync,
{
    let workers = worker_threads(expected_jobs.max(1));
    let shared = StreamShared {
        state: std::sync::Mutex::new(StreamState {
            pending: Vec::new(),
            closed: false,
            pushed: 0,
        }),
        not_empty: std::sync::Condvar::new(),
        not_full: std::sync::Condvar::new(),
    };

    let mut results: Vec<(usize, Result<R, TaskFailure>)> = std::thread::scope(|scope| {
        let shared_ref = &shared;
        let f_ref = &f;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some((idx, item)) = claim_heaviest(shared_ref) {
                        shared_ref.not_full.notify_one();
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f_ref(item)))
                                .map_err(|payload| TaskFailure {
                                    index: idx,
                                    message: panic_message(payload.as_ref()),
                                });
                        out.push((idx, outcome));
                    }
                    out
                })
            })
            .collect();

        {
            // Producer runs on the caller's thread; the guard closes the
            // stream when it returns *or unwinds*, releasing the workers.
            let _close = StreamCloseGuard { shared: shared_ref };
            let queue = StreamQueue {
                shared: shared_ref,
                capacity: (workers * 2).max(1),
            };
            produce(&queue);
        }

        handles
            .into_iter()
            // Task panics are caught inside the worker loop; a join failure
            // here would be a bug in the runner itself.
            .flat_map(|h| {
                h.join()
                    .expect("fault-tolerant worker died outside task isolation")
            })
            .collect()
    });

    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// A cross-pool execution governor: at most `permits` sections run at once,
/// and when several are waiting the **heaviest** (by its declared LPT weight)
/// is admitted first.
///
/// The streaming distributor above balances load *within* one
/// [`stream_map_lpt`] call; the governor extends the same
/// heaviest-first discipline *across* independent calls. The `ltp-service`
/// job server runs one sampled request per active job, each with its own
/// worker pool, and wraps every interval simulation in
/// [`LptGovernor::run`] — so globally at most `permits` intervals simulate
/// concurrently and the scheduler always picks the heaviest pending interval
/// across **all** active jobs, preserving the Graham-bound behaviour the
/// per-job pools have locally.
///
/// Ties are broken towards the longest-waiting section (FIFO among equal
/// weights), so the admission order is deterministic for a fixed arrival
/// order and no waiter starves: a waiter is only ever overtaken by strictly
/// heavier arrivals, and each admitted section holds its permit for one
/// bounded interval simulation.
#[derive(Debug)]
pub struct LptGovernor {
    state: std::sync::Mutex<GovernorState>,
    changed: std::sync::Condvar,
    permits: usize,
}

#[derive(Debug)]
struct GovernorState {
    /// Sections currently holding a permit.
    running: usize,
    /// Waiting sections as `(weight, arrival sequence)` tickets.
    waiters: Vec<(u64, u64)>,
    next_seq: u64,
}

impl LptGovernor {
    /// Creates a governor admitting at most `permits` concurrent sections
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn new(permits: usize) -> LptGovernor {
        LptGovernor {
            state: std::sync::Mutex::new(GovernorState {
                running: 0,
                waiters: Vec::new(),
                next_seq: 0,
            }),
            changed: std::sync::Condvar::new(),
            permits: permits.max(1),
        }
    }

    /// Maximum number of concurrently admitted sections.
    #[must_use]
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Number of sections currently waiting for a permit.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.state).waiters.len()
    }

    /// Number of sections currently holding a permit.
    #[must_use]
    pub fn running(&self) -> usize {
        lock_recover(&self.state).running
    }

    /// Runs `f` under a permit: blocks until a permit is free *and* no
    /// strictly-heavier (or equally heavy but earlier-arrived) section is
    /// still waiting, then executes `f` and releases the permit. The permit
    /// is released even if `f` unwinds.
    pub fn run<R>(&self, weight: u64, f: impl FnOnce() -> R) -> R {
        self.acquire(weight);
        // Release on unwind too: a panicking interval simulation must not
        // leak its permit or every other job wedges behind it.
        struct Release<'a>(&'a LptGovernor);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                let mut st = lock_recover(&self.0.state);
                st.running -= 1;
                drop(st);
                self.0.changed.notify_all();
            }
        }
        let _release = Release(self);
        f()
    }

    fn acquire(&self, weight: u64) {
        let mut st = lock_recover(&self.state);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.waiters.push((weight, seq));
        loop {
            let eligible = st.running < self.permits && {
                // Admit only when no waiter outranks us: heavier first,
                // ties to the earlier arrival.
                let me = (std::cmp::Reverse(weight), seq);
                st.waiters
                    .iter()
                    .all(|&(w, s)| (std::cmp::Reverse(w), s) >= me)
            };
            if eligible {
                let pos = st
                    .waiters
                    .iter()
                    .position(|&(_, s)| s == seq)
                    .expect("own ticket present");
                st.waiters.swap_remove(pos);
                st.running += 1;
                drop(st);
                // Peers blocked only on priority (not on a free permit) must
                // re-evaluate now that this ticket left the queue.
                self.changed.notify_all();
                return;
            }
            st = wait_recover(&self.changed, st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items, |&x| x * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(Vec::<u64>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = par_map(vec![41], |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic(expected = "task 3 panicked: item 3 fails")]
    fn par_map_panics_with_the_task_failure() {
        let _ = par_map((0..8u64).collect(), |&x| {
            assert!(x != 3, "item {x} fails");
            x
        });
    }

    #[test]
    fn order_preserved_around_chunk_boundaries() {
        // Drive par_map itself (ambient thread count) across sizes below,
        // at and above the stream's queue capacity for any worker count, so
        // a regression in claiming or in the result ordering shows up as a
        // reordered or missing element.
        for n in [1usize, 2, 3, 7, 8, 9, 23, 64, 97] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map(items, |&x| x);
            let expected: Vec<usize> = (0..n).collect();
            assert_eq!(out, expected, "identity map over {n} items");
        }
    }

    /// Streams `items` (cost 1 each) through [`stream_map_lpt`].
    fn stream_items<R: Send>(
        items: Vec<u64>,
        f: impl Fn(u64) -> R + Sync,
    ) -> Vec<Result<R, TaskFailure>> {
        stream_map_lpt(
            items.len(),
            |q| {
                for x in items {
                    q.push(1, x);
                }
            },
            f,
        )
    }

    /// The values of outcomes that must all have succeeded.
    fn values<R: Clone>(out: &[Result<R, TaskFailure>]) -> Vec<R> {
        out.iter()
            .map(|o| o.clone().expect("task succeeded"))
            .collect()
    }

    #[test]
    fn stream_map_preserves_push_order() {
        let out = stream_map_lpt(
            97,
            |q| {
                for i in 0..97u64 {
                    q.push(i % 7 + 1, i);
                }
            },
            |x| x * 3,
        );
        assert_eq!(out.len(), 97);
        for (i, v) in values(&out).iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn stream_map_empty_producer() {
        let out = stream_map_lpt(0, |_q| {}, |x: u64| x);
        assert!(out.is_empty());
    }

    #[test]
    fn stream_map_survives_producer_outrunning_capacity() {
        // Push far more jobs than the bounded queue holds while workers are
        // artificially slowed: every job must still come back, in order.
        let n = 500u64;
        let out = stream_items((0..n).collect(), |x| {
            if x % 50 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x
        });
        assert_eq!(values(&out), (0..n).collect::<Vec<u64>>());
    }

    #[test]
    fn stream_map_slow_producer_keeps_workers_fed() {
        // The streaming point: jobs produced with a delay are consumed as
        // they arrive rather than after production completes.
        let out = stream_map_lpt(
            8,
            |q| {
                for i in 0..8u64 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    q.push(8 - i, i);
                }
            },
            |x| x + 100,
        );
        assert_eq!(values(&out), (100..108).collect::<Vec<u64>>());
    }

    #[test]
    fn lock_recover_recovers_poisoned_mutex() {
        let m = std::sync::Arc::new(std::sync::Mutex::new(7u64));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().expect("fresh mutex");
            panic!("poison the mutex");
        })
        .join();
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_recover(&m), 7);
    }

    #[test]
    fn par_map_lpt_preserves_order() {
        // Heaviest-first claiming reorders execution, never results: under
        // ascending, descending and flat weights alike, values come back in
        // push order.
        let weights: [fn(u64) -> u64; 3] = [|i| i + 1, |i| 97 - i, |_| 1];
        for weight in weights {
            let out = stream_map_lpt(
                97,
                |q| {
                    for i in 0..97u64 {
                        q.push(weight(i), i);
                    }
                },
                |x| x * 3,
            );
            let expected: Vec<u64> = (0..97).map(|i| i * 3).collect();
            assert_eq!(values(&out), expected);
        }
    }

    #[test]
    fn stream_map_matches_par_map_lpt_results() {
        // The streaming distributor is a drop-in for the batch `par_map` the
        // two-phase reference runs on: identical inputs give identical
        // ordered values.
        let items: Vec<u64> = (0..64).map(|i| (i * 37) % 19).collect();
        let plain = par_map(items.clone(), |&x| x * x);
        let ft = stream_map_lpt(
            items.len(),
            |q| {
                for &x in &items {
                    q.push(x + 1, x);
                }
            },
            |x| x * x,
        );
        assert_eq!(values(&ft), plain);
    }

    /// A panicking task comes back as a failure carrying its push index and
    /// panic message; every other task still completes.
    #[test]
    fn ft_exhausted_retries_report_structured_failure() {
        let out = stream_items((0..8u64).collect(), |x| {
            if x == 3 {
                panic!("item {x} always fails");
            }
            x
        });
        let fail = out[3].as_ref().expect_err("item 3 must fail");
        assert_eq!(fail.index, 3);
        assert_eq!(fail.message, "item 3 always fails");
        assert_eq!(fail.to_string(), "task 3 panicked: item 3 always fails");
        for (i, o) in out.iter().enumerate() {
            if i != 3 {
                assert_eq!(o.as_ref().ok(), Some(&(i as u64)));
            }
        }
    }

    /// `expected_jobs = 1` sizes the pool to exactly one worker: the tasks
    /// that panic on it must not stop it from running the jobs behind them.
    #[test]
    fn ft_single_worker_survives_its_own_retries() {
        let out = stream_map_lpt(
            1,
            |q| {
                for i in 0..5u64 {
                    q.push(1, i);
                }
            },
            |x| {
                assert!(x % 2 == 1, "even item {x} fails");
                x * 10
            },
        );
        assert_eq!(out.len(), 5);
        for (i, o) in out.iter().enumerate() {
            match o {
                Ok(v) => assert_eq!((i % 2, *v), (1, i as u64 * 10)),
                Err(fail) => assert_eq!((i % 2, fail.index), (0, i)),
            }
        }
    }

    #[test]
    fn governor_bounds_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let gov = LptGovernor::new(2);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for i in 0..16u64 {
                let gov = &gov;
                let active = &active;
                let peak = &peak;
                scope.spawn(move || {
                    gov.run(i, || {
                        let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        active.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "permit bound violated");
        assert_eq!(gov.running(), 0);
        assert_eq!(gov.queue_depth(), 0);
    }

    #[test]
    fn governor_admits_heaviest_waiter_first() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex;
        let gov = std::sync::Arc::new(LptGovernor::new(1));
        let order = std::sync::Arc::new(Mutex::new(Vec::<u64>::new()));
        let hold = std::sync::Arc::new(AtomicBool::new(true));
        // Occupy the single permit, queue weights 1..=4 behind it, then
        // release: admissions must come back heaviest-first.
        let g = std::sync::Arc::clone(&gov);
        let h = std::sync::Arc::clone(&hold);
        let blocker = std::thread::spawn(move || {
            g.run(100, || {
                while h.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });
        while gov.running() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waiters: Vec<_> = [1u64, 2, 3, 4]
            .into_iter()
            .map(|w| {
                let g = std::sync::Arc::clone(&gov);
                let order = std::sync::Arc::clone(&order);
                let t = std::thread::spawn(move || {
                    g.run(w, || order.lock().expect("order lock").push(w));
                });
                // Serialise arrival so all four are queued before release.
                while gov.queue_depth() < w as usize {
                    std::thread::sleep(Duration::from_millis(1));
                }
                t
            })
            .collect();
        hold.store(false, Ordering::SeqCst);
        blocker.join().expect("blocker");
        for t in waiters {
            t.join().expect("waiter");
        }
        assert_eq!(*order.lock().expect("order lock"), vec![4, 3, 2, 1]);
    }

    #[test]
    fn governor_releases_permit_when_section_panics() {
        let gov = LptGovernor::new(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gov.run(1, || panic!("section dies"));
        }));
        assert!(caught.is_err());
        assert_eq!(gov.running(), 0);
        // The permit must still be grantable afterwards.
        assert_eq!(gov.run(1, || 42), 42);
    }

    #[test]
    fn thread_count_clamps_to_items() {
        // A pool never has more workers than jobs, nor fewer than one.
        for n in 1..=64 {
            let threads = worker_threads(n);
            assert!((1..=n).contains(&threads), "{threads} workers for {n} jobs");
        }
    }

    #[test]
    fn worker_threads_is_clamped() {
        assert_eq!(worker_threads(1), 1);
        assert!(worker_threads(usize::MAX) >= 1);
        assert_eq!(worker_threads(0), 1);
    }
}
