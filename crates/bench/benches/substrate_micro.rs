//! Micro-benchmarks of the simulation substrate itself: raw cache accesses,
//! LTP queue operations, classification, oracle analysis, and end-to-end
//! simulated instructions per second. These do not correspond to a paper
//! figure; they track the cost of the reproduction's own machinery.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ltp_core::{Criticality, LtpConfig, LtpMode, LtpUnit, OracleAnalysis, RenamedInst};
use ltp_experiments::runner::limit_study_config;
use ltp_isa::{ArchReg, DynInst, OpClass, Pc, StaticInst};
use ltp_mem::{AccessKind, MemoryConfig, MemoryHierarchy, MemoryRequest};
use ltp_pipeline::{PipelineConfig, Processor};
use ltp_workloads::{replay, trace, WorkloadKind};

fn cache_hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("l1_hit", |b| {
        let mut mem = MemoryHierarchy::new(MemoryConfig::micro2015_baseline());
        let req = MemoryRequest::new(Pc(0x40), 0x1000, AccessKind::Load);
        let mut now = 0;
        mem.access(now, &req);
        b.iter(|| {
            now += 10;
            mem.access(now, &req)
        })
    });
    group.bench_function("streaming_misses", |b| {
        let mut mem = MemoryHierarchy::new(MemoryConfig::micro2015_baseline());
        let mut addr = 0x1000_0000u64;
        let mut now = 0;
        b.iter(|| {
            addr += 4096;
            now += 50;
            mem.access(now, &MemoryRequest::new(Pc(0x40), addr, AccessKind::Load))
        })
    });
    group.finish();
}

fn ltp_unit(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/ltp_unit");
    group.throughput(Throughput::Elements(1));
    group.bench_function("classify_and_park", |b| {
        let mut ltp = LtpUnit::new(LtpConfig::ideal(LtpMode::Both).with_monitor(false), 200);
        let store = StaticInst::new(Pc(0x40), OpClass::Store)
            .with_src(ArchReg::int(1))
            .with_src(ArchReg::int(2));
        let mut seq = 0u64;
        b.iter(|| {
            let inst = RenamedInst::from_dyn(&DynInst::new(seq, store));
            seq += 1;
            let d = ltp.at_rename(&inst, seq);
            if seq.is_multiple_of(64) {
                // Periodically drain so the queue does not grow unboundedly.
                let _ = ltp.release_in_order(ltp_isa::SeqNum(seq + 1), 64, seq);
            }
            d.class == Criticality::NON_URGENT_READY
        })
    });
    group.finish();
}

fn oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/oracle");
    let t = trace(WorkloadKind::IndirectStream, 3, 5_000);
    group.throughput(Throughput::Elements(t.len() as u64));
    group.bench_function("analyze_5k", |b| {
        b.iter(|| OracleAnalysis::default().analyze(&t, &MemoryConfig::limit_study()))
    });
    // The sampled scale: each oracle point of a sampled run analyses its
    // whole 480k-instruction trace once.
    let sampled = 480_000;
    group.throughput(Throughput::Elements(sampled));
    group.sample_size(10);
    group.bench_function("analyze_480k", |b| {
        let t = trace(WorkloadKind::IndirectStream, 3, sampled as usize);
        b.iter(|| OracleAnalysis::default().analyze(&t, &MemoryConfig::limit_study()))
    });
    group.finish();
}

fn end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/simulation");
    group.sample_size(10);
    let insts = 4_000u64;
    group.throughput(Throughput::Elements(insts));
    for (label, cfg) in [
        ("baseline", PipelineConfig::micro2015_baseline()),
        ("ltp_proposed", PipelineConfig::ltp_proposed()),
    ] {
        group.bench_function(label, |b| {
            let detail = trace(WorkloadKind::IndirectStream, 2, insts as usize);
            b.iter(|| {
                let mut cpu = Processor::new(cfg);
                cpu.run(replay("indirect_stream", detail.clone()), insts)
                    .expect("no deadlock")
                    .cycles
            })
        });
    }
    // Non-Ready parking: the limit study's ideal LTP in both modes at IQ 32,
    // with the analysed oracle attached, so the ticket path runs.
    let cfg = limit_study_config(LtpMode::Both).with_iq(32);
    group.bench_function("limit_study_non_ready_iq32", |b| {
        let detail = trace(WorkloadKind::IndirectStream, 2, insts as usize);
        let oracle = OracleAnalysis::new(cfg.rob_size.min(4096) as u64).analyze(&detail, &cfg.mem);
        b.iter(|| {
            let mut cpu = Processor::new(cfg);
            cpu.set_oracle(oracle.clone());
            cpu.run(replay("indirect_stream", detail.clone()), insts)
                .expect("no deadlock")
                .cycles
        })
    });
    group.finish();
}

criterion_group!(benches, cache_hierarchy, ltp_unit, oracle, end_to_end);
criterion_main!(benches);
