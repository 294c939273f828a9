//! Property-based tests over the core data structures of the reproduction:
//! caches, MSHRs, free lists, the LTP queue, the ROB, the UIT and the
//! statistics primitives.

use ltp_core::{Criticality, LtpQueue, ParkedInst, TicketSet, Uit};
use ltp_isa::{ArchReg, OpClass, Pc, SeqNum, StaticInst};
use ltp_mem::{Cache, CacheConfig, MshrFile, MshrOutcome};
use ltp_pipeline::{
    FreeList, IqEntry, IssueQueue, RegSource, Rob, RobEntry, RobState, TimingWheel,
};
use ltp_stats::{Histogram, OccupancyTracker};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn small_cache() -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 4 * 64 * 8,
        line_bytes: 64,
        ways: 4,
        latency: 1,
        tag_to_data: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache never holds more lines than its capacity, and a line is
    /// always resident immediately after being filled.
    #[test]
    fn cache_capacity_and_fill_visibility(addrs in prop::collection::vec(0u64..0x8000, 1..200)) {
        let mut cache = small_cache();
        for &addr in &addrs {
            cache.fill(addr, false, false);
            prop_assert!(cache.probe(addr), "a just-filled line must be resident");
            prop_assert!(cache.resident_lines() <= 4 * 8);
        }
    }

    /// Demand accesses after a fill hit until the line is evicted; statistics
    /// stay consistent (hits + misses == accesses).
    #[test]
    fn cache_stats_are_consistent(ops in prop::collection::vec((0u64..0x4000, any::<bool>()), 1..300)) {
        let mut cache = small_cache();
        for &(addr, is_write) in &ops {
            if !cache.access(addr, is_write) {
                cache.fill(addr, false, is_write);
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses(), ops.len() as u64);
        prop_assert!(stats.miss_ratio() >= 0.0 && stats.miss_ratio() <= 1.0);
    }

    /// The MSHR file never tracks more outstanding misses than its capacity,
    /// and a merged request always completes no earlier than it was issued.
    #[test]
    fn mshr_capacity_and_merge(lines in prop::collection::vec(0u64..32, 1..100)) {
        let capacity = 4;
        let mut mshrs = MshrFile::new(capacity);
        let mut now = 0u64;
        for &line in &lines {
            now += 3;
            let line_addr = line * 64;
            match mshrs.lookup_or_allocate(line_addr, now) {
                MshrOutcome::Allocated { issue_cycle } => {
                    prop_assert!(issue_cycle >= now);
                    mshrs.record_completion(line_addr, issue_cycle + 200);
                }
                MshrOutcome::Merged { completion_cycle } => {
                    prop_assert!(completion_cycle > now);
                }
            }
            prop_assert!(mshrs.outstanding_at(now) <= capacity);
        }
    }

    /// The free list never hands out the same register twice while it is
    /// still allocated, and never exceeds its capacity.
    #[test]
    fn free_list_never_double_allocates(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut fl = FreeList::new(16);
        let mut live = Vec::new();
        for &alloc in &ops {
            if alloc {
                if let Some(r) = fl.allocate() {
                    prop_assert!(!live.contains(&r), "register {r} handed out twice");
                    live.push(r);
                }
            } else if let Some(r) = live.pop() {
                fl.free(r);
            }
            prop_assert!(fl.allocated() <= 16);
            prop_assert_eq!(fl.allocated(), live.len());
        }
    }

    /// In-order release of the LTP queue returns sequence numbers in strictly
    /// increasing order and never returns more than the occupancy.
    #[test]
    fn ltp_queue_releases_in_program_order(batches in prop::collection::vec(1usize..6, 1..30)) {
        let mut queue = LtpQueue::new(256, 8);
        let mut seq = 0u64;
        let mut cycle = 0u64;
        let mut released_seqs: Vec<u64> = Vec::new();
        for &batch in &batches {
            cycle += 1;
            for _ in 0..batch {
                let parked = ParkedInst {
                    seq: SeqNum(seq),
                    class: Criticality::NON_URGENT_READY,
                    tickets: TicketSet::new(),
                    parked_at: cycle,
                    writes_reg: true,
                    is_load: false,
                    is_store: false,
                };
                if queue.park(parked, cycle) {
                    seq += 1;
                }
            }
            cycle += 1;
            for inst in queue.release_in_order(SeqNum(seq), 4, cycle) {
                released_seqs.push(inst.seq.0);
            }
        }
        for pair in released_seqs.windows(2) {
            prop_assert!(pair[0] < pair[1], "releases must stay in program order");
        }
        prop_assert!(queue.occupancy() + released_seqs.len() == seq as usize);
    }

    /// The ROB commits entries in exactly the order they were pushed.
    #[test]
    fn rob_commits_in_push_order(count in 1usize..100) {
        let mut rob = Rob::new(256);
        for s in 0..count as u64 {
            rob.push(RobEntry {
                seq: SeqNum(s),
                pc: Pc(0x100 + 4 * s),
                op: OpClass::IntAlu,
                state: RobState::Completed,
                dst: Some(ArchReg::int(1)),
                dest_phys: None,
                prev_mapping: RegSource::Ready,
                long_latency: false,
                holds_lq: false,
                holds_sq: false,
                was_parked: false,
                completion_cycle: 0,
            });
        }
        let mut committed = Vec::new();
        while let Some(e) = rob.try_commit() {
            committed.push(e.seq.0);
        }
        prop_assert_eq!(committed.len(), count);
        for (i, s) in committed.iter().enumerate() {
            prop_assert_eq!(*s, i as u64);
        }
    }

    /// The UIT never reports a PC urgent that was never inserted, and (for an
    /// unlimited table) always reports inserted PCs as urgent.
    #[test]
    fn uit_membership(inserted in prop::collection::hash_set(0u64..10_000, 0..100),
                      probed in prop::collection::vec(0u64..10_000, 0..100)) {
        let mut uit = Uit::new(usize::MAX);
        for &pc in &inserted {
            uit.insert(Pc(pc * 4));
        }
        for &pc in &probed {
            let member = uit.contains(Pc(pc * 4));
            prop_assert_eq!(member, inserted.contains(&pc));
        }
    }

    /// The issue queue only ever selects ready entries, oldest first.
    #[test]
    fn issue_queue_selects_ready_oldest_first(ready_flags in prop::collection::vec(any::<bool>(), 1..50)) {
        let mut iq = IssueQueue::new(usize::MAX);
        for (s, &ready) in ready_flags.iter().enumerate() {
            let wait = if ready { vec![] } else { vec![ltp_isa::PhysReg::new(999)] };
            iq.dispatch(IqEntry {
                seq: SeqNum(s as u64),
                fu: OpClass::IntAlu.fu_kind(),
                wait_phys: wait.into_iter().collect(),
                wait_seqs: Default::default(),
            });
        }
        let picked = iq.select(ready_flags.len(), |_| true);
        let expected: Vec<u64> = ready_flags
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| i as u64)
            .collect();
        let got: Vec<u64> = picked.iter().map(|e| e.seq.0).collect();
        prop_assert_eq!(got, expected);
    }

    /// Histogram mean always lies between the extremes and percentiles are
    /// monotone in the requested fraction.
    #[test]
    fn histogram_mean_and_percentiles(values in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mean = h.mean();
        prop_assert!(mean >= h.min().unwrap() as f64 - 1e-9);
        prop_assert!(mean <= h.max().unwrap() as f64 + 1e-9);
        let p50 = h.percentile(0.5).unwrap();
        let p90 = h.percentile(0.9).unwrap();
        let p100 = h.percentile(1.0).unwrap();
        prop_assert!(p50 <= p90 && p90 <= p100);
    }

    /// The occupancy tracker's mean is always between zero and the peak.
    #[test]
    fn occupancy_mean_bounded_by_peak(samples in prop::collection::vec(0u64..500, 1..200)) {
        let mut t = OccupancyTracker::new();
        for &s in &samples {
            t.sample_cycle(s);
        }
        prop_assert!(t.mean() <= t.peak() as f64 + 1e-9);
        prop_assert!(t.mean() >= 0.0);
        prop_assert_eq!(t.cycles(), samples.len() as u64);
    }

    /// The stage-bus timing wheel behaves exactly like a `(cycle, payload)`
    /// min-heap (the seed implementation) on arbitrary interleavings of
    /// schedules and advances: same pop order, same due-ness, same length —
    /// including past scheduling (relative to the last drain point), events
    /// far beyond the wheel horizon, and `now` jumps much larger than the
    /// slot array.
    #[test]
    fn timing_wheel_matches_heap_reference(
        raw_ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..200),
    ) {
        let mut wheel = TimingWheel::new(16, 8);
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut next_payload = 0u64;
        let schedule = |wheel: &mut TimingWheel,
                            heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                            cycle: u64,
                            payload: u64| {
            wheel.schedule(cycle, payload);
            heap.push(Reverse((cycle, payload)));
        };
        for (kind, a, b) in raw_ops {
            match kind % 4 {
                // Schedule ahead of `now`: within the wheel for small
                // offsets, in the far level beyond ~16 cycles.
                0 => {
                    schedule(&mut wheel, &mut heap, now + u64::from(a), next_payload);
                    next_payload += 1;
                }
                // Schedule at or before `now` (a zero-latency event issued
                // "last cycle"): due immediately, ordered by its cycle.
                1 => {
                    let cycle = now.saturating_sub(u64::from(b));
                    schedule(&mut wheel, &mut heap, cycle, next_payload);
                    next_payload += 1;
                }
                // Advance a little or a lot and drain everything due,
                // comparing pop-by-pop against the heap.
                _ => {
                    now += match b % 4 {
                        0 => 1,
                        1 => u64::from(b),
                        2 => u64::from(a),
                        _ => 100_000 + u64::from(a), // far past the wheel size
                    };
                    loop {
                        let got = wheel.pop_due(now);
                        let expected = match heap.peek() {
                            Some(&Reverse((cycle, _))) if cycle <= now => {
                                heap.pop().map(|Reverse((_, p))| p)
                            }
                            _ => None,
                        };
                        prop_assert_eq!(got, expected, "divergence at now={}", now);
                        if got.is_none() {
                            break;
                        }
                    }
                    prop_assert_eq!(wheel.len(), heap.len());
                    prop_assert_eq!(wheel.is_empty(), heap.is_empty());
                }
            }
        }
        // Final drain far beyond everything scheduled: both must empty in
        // the same order.
        now += 10_000_000;
        while let Some(got) = wheel.pop_due(now) {
            let expected = heap.pop().map(|Reverse((_, p))| p);
            prop_assert_eq!(Some(got), expected);
        }
        prop_assert!(heap.is_empty());
        prop_assert_eq!(wheel.len(), 0);
    }

    /// A static instruction never exposes the zero register or zero-idiom
    /// sources as dataflow dependencies.
    #[test]
    fn static_inst_dataflow_sources(srcs in prop::collection::vec(0usize..32, 0..3),
                                    zero_idiom in any::<bool>()) {
        let mut inst = StaticInst::new(Pc(0x10), OpClass::IntAlu).with_dst(ArchReg::int(1));
        for &s in &srcs {
            inst = inst.with_src(ArchReg::int(s));
        }
        if zero_idiom {
            inst = inst.with_zero_idiom();
        }
        for src in inst.dataflow_srcs() {
            prop_assert!(!src.is_zero());
            prop_assert!(!zero_idiom, "zero idioms must not expose dataflow sources");
        }
    }
}
