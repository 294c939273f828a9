//! Seeking an instruction stream is pulling without looking.
//!
//! Resumed sampled intervals seek their stream to the checkpoint with
//! [`InstStream::skip_insts`] instead of pulling and dropping the prefix, and
//! warm jobs key the checkpoint cache by the streamed
//! [`ltp_workloads::trace_identity`] instead of fingerprinting a collected
//! trace. Both shortcuts are sound only if they are indistinguishable from
//! the long way round:
//!
//! 1. for every stream type — slice, `Arc`, `Vec`, `Take`, `Box<dyn>` and
//!    every kernel's generator — any sequence of skips and reads returns
//!    exactly what pulling the skipped instructions would (offsets land
//!    mid-iteration and past the end);
//! 2. the streamed identity equals the fingerprint of the collected trace
//!    for every kernel.

use ltp_isa::{trace_fingerprint, ArcStream, DynInst, InstStream, SliceStream, VecStream};
use ltp_workloads::{
    trace, trace_identity, ComputeBound, GatherFp, HashProbe, IndirectStream, KernelWorkload,
    MixedPhases, PointerChase, StencilStream, WorkloadKind,
};
use proptest::prelude::*;

/// Length of the finite streams under test.
const LEN: usize = 700;

/// One step of a stream walk: skip `.0` instructions, then read `.1`.
type Walk = Vec<(u64, usize)>;

/// What a walk observes: per step, the count skipped and the instructions
/// read after it.
type Seen = Vec<(u64, Vec<DynInst>)>;

fn read<S: InstStream>(s: &mut S, n: usize) -> Vec<DynInst> {
    (0..n).map_while(|_| s.next_inst()).collect()
}

/// The walk done the long way: every skipped instruction is pulled.
fn pulled<S: InstStream>(mut s: S, walk: &Walk) -> Seen {
    walk.iter()
        .map(|&(k, n)| {
            let mut skipped = 0;
            while skipped < k && s.next_inst().is_some() {
                skipped += 1;
            }
            (skipped, read(&mut s, n))
        })
        .collect()
}

/// The walk done with seeks.
fn sought<S: InstStream>(mut s: S, walk: &Walk) -> Seen {
    walk.iter()
        .map(|&(k, n)| (s.skip_insts(k), read(&mut s, n)))
        .collect()
}

fn check<S: InstStream>(make: impl Fn() -> S, walk: &Walk, what: &str) -> Result<(), String> {
    let (a, b) = (pulled(make(), walk), sought(make(), walk));
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{what}: seeking diverged from pulling on walk {walk:?}"
        ))
    }
}

/// Every kernel's generator, seeded, as its concrete `KernelWorkload` type.
fn check_kernels(seed: u64, walk: &Walk) -> Result<(), String> {
    check(
        || KernelWorkload::new(IndirectStream::new(seed)),
        walk,
        "indirect_stream",
    )?;
    check(
        || KernelWorkload::new(GatherFp::new(seed)),
        walk,
        "gather_fp",
    )?;
    check(
        || KernelWorkload::new(PointerChase::new(seed)),
        walk,
        "pointer_chase",
    )?;
    check(
        || KernelWorkload::new(HashProbe::new(seed)),
        walk,
        "hash_probe",
    )?;
    check(
        || KernelWorkload::new(ComputeBound::new(seed)),
        walk,
        "compute_bound",
    )?;
    check(
        || KernelWorkload::new(StencilStream::new(seed)),
        walk,
        "stencil_stream",
    )?;
    check(
        || KernelWorkload::new(MixedPhases::new(seed)),
        walk,
        "mixed_phases",
    )
}

fn check_all(kind: WorkloadKind, seed: u64, walk: &Walk) -> Result<(), String> {
    let detail = trace(kind, seed, LEN);
    let shared: std::sync::Arc<[DynInst]> = detail.clone().into();
    check(|| SliceStream::new("t", &detail), walk, "slice")?;
    check(|| ArcStream::new("t", shared.clone()), walk, "arc")?;
    check(|| VecStream::new("t", detail.clone()), walk, "vec")?;
    check(|| kind.build(seed), walk, "boxed generator")?;
    check(
        || InstStream::take_insts(kind.build(seed), LEN as u64),
        walk,
        "take",
    )?;
    check(
        || {
            let boxed: Box<dyn InstStream> = Box::new(SliceStream::new("t", &detail));
            boxed.take_insts(LEN as u64 / 2)
        },
        walk,
        "take over boxed slice",
    )?;
    check_kernels(seed, walk)
}

fn walk_strategy() -> impl Strategy<Value = Walk> {
    // Skips up to past the end of the finite streams; kernel iterations
    // are 8–55 instructions long, so most offsets land mid-iteration.
    prop::collection::vec((0u64..(LEN as u64 + 120), 0usize..48), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skip_then_read_equals_pull_then_read(
        kind_sel in 0usize..7,
        seed in 0u64..1_000,
        walk in walk_strategy(),
    ) {
        let kind = WorkloadKind::ALL[kind_sel];
        if let Err(e) = check_all(kind, seed, &walk) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Pinned edge cases the random walks may miss: zero-length skips, a skip
/// of exactly the remaining length, skips on an exhausted stream, and a
/// long skip deep into the generators.
#[test]
fn edge_offsets_match_pulling() {
    let walks: [Walk; 4] = [
        vec![(0, 3), (0, 0), (1, 1)],
        vec![(LEN as u64, 5), (3, 2)],
        vec![(LEN as u64 + 1, 1), (0, 1)],
        vec![(5_000, 10), (12_345, 60)],
    ];
    for kind in WorkloadKind::ALL {
        for walk in &walks {
            check_all(kind, 11, walk).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }
}

/// The streamed identity is the fingerprint of the collected trace.
#[test]
fn trace_identity_equals_fingerprint_of_collected_trace() {
    for kind in WorkloadKind::ALL {
        for (seed, n) in [(2016, 5_000), (7, 1), (7, 0)] {
            let collected = trace_fingerprint(&trace(kind, seed, n));
            assert_eq!(trace_identity(kind, seed, n), collected, "{kind} {n}");
        }
        assert_ne!(
            trace_identity(kind, 2016, 5_000),
            trace_identity(kind, 2016, 4_999),
            "{kind}: a prefix has its own identity"
        );
    }
}

/// Golden identities of the quick sampled traces (seed 2016, 96 k
/// instructions). A generator change moves them and needs only the pinned
/// values updated: the cache keys follow the content, so entries filled
/// before it are orphaned, never misread. The cache's `CACHE_VERSION`
/// changes only with the entry layout or the key derivation (the trace
/// hash function itself).
#[test]
fn trace_identities_are_pinned() {
    let pinned = [
        (WorkloadKind::IndirectStream, 0xf37b_4879_27d9_84ef_u64),
        (WorkloadKind::GatherFp, 0x6a2f_ee87_d40b_3a04),
        (WorkloadKind::PointerChase, 0x55ba_55f1_c36b_4bf7),
        (WorkloadKind::HashProbe, 0x5509_5365_9291_60aa),
        (WorkloadKind::ComputeBound, 0x8fa6_56ed_7bbd_0e83),
        (WorkloadKind::StencilStream, 0x2c83_3a68_a09f_b18c),
        (WorkloadKind::MixedPhases, 0x525b_fd28_89d2_170f),
    ];
    for (kind, id) in pinned {
        assert_eq!(trace_identity(kind, 2016, 96_000), id, "{kind}");
    }
}
