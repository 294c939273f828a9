//! Reference-normalised host time and the order statistics the metrics use.
//!
//! The speed of a small shared host moves between discrete levels that last
//! from a few seconds to tens of seconds, so raw host times of identical work
//! spread far wider than any useful regression bound. Every timed operation
//! is therefore bracketed by a fixed, std-only reference kernel, and its time
//! is rescaled by `nominal / measured` kernel time: work done at a slow level
//! is scaled back to what it would have taken at the nominal one.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Distinct keys the reference kernel churns through.
const REF_KEYS: u64 = 1 << 18;
/// Insert-or-remove operations per reference kernel run.
const REF_OPS: u64 = 160_000;

/// The reference kernel's table, allocated once so that page faults stay
/// out of the kernel's time.
type RefTable = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Runs the reference kernel once over `table` and returns its wall time in
/// ms.
///
/// HashMap churn with a fixed hasher and key sequence: the same work on every
/// call, independent of the simulator. The table is about 8 MiB, larger than
/// the host's last-level cache share, because its time then tracks the
/// simulator's across the host's speed levels far better than a cache-resident
/// table's does (a sorted vector and a BTreeMap tracked worse still).
#[must_use]
fn reference_kernel_ms(table: &mut RefTable) -> f64 {
    table.clear();
    table.reserve(REF_KEYS as usize);
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..REF_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match table.entry(black_box(x % REF_KEYS)) {
            Entry::Occupied(e) => acc = acc.wrapping_add(e.remove()),
            Entry::Vacant(v) => {
                v.insert(i);
            }
        }
    }
    black_box((acc, table.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

/// One normalised measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Host wall time of the operation in ms.
    pub raw_ms: f64,
    /// Mean of the reference kernel times right before and right after it.
    pub ref_ms: f64,
    /// `nominal / ref_ms`: multiply any host time inside the operation by
    /// this to normalise it.
    pub scale: f64,
}

impl Sample {
    /// Builds a sample from a raw time and the bracketing kernel times.
    #[must_use]
    pub fn new(raw_ms: f64, before_ms: f64, after_ms: f64, nominal_ms: f64) -> Sample {
        let ref_ms = (before_ms + after_ms) / 2.0;
        Sample {
            raw_ms,
            ref_ms,
            scale: nominal_ms / ref_ms,
        }
    }

    /// The operation's normalised time in ms.
    #[must_use]
    pub fn norm_ms(&self) -> f64 {
        self.raw_ms * self.scale
    }
}

/// Times operations between reference kernel runs.
///
/// Consecutive operations share a kernel run: the one after an operation is
/// the one before the next. The kernel only ever runs while the caller says
/// the program is idle.
#[derive(Debug)]
pub struct RefClock {
    nominal_ms: f64,
    prev_ref_ms: f64,
    refs: Vec<f64>,
    table: RefTable,
}

impl RefClock {
    /// Starts a clock: one discarded kernel run faults the table in, the
    /// next one brackets the first operation.
    #[must_use]
    pub fn start(nominal_ms: f64) -> RefClock {
        assert!(nominal_ms > 0.0, "nominal reference time must be positive");
        let mut table = RefTable::default();
        let _ = reference_kernel_ms(&mut table);
        let prev_ref_ms = reference_kernel_ms(&mut table);
        RefClock {
            nominal_ms,
            prev_ref_ms,
            refs: vec![prev_ref_ms],
            table,
        }
    }

    /// Runs `op`, then `idle` (which must return only once no job or worker
    /// of the program is running), then the reference kernel.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R, idle: impl FnOnce()) -> (R, Sample) {
        let t0 = Instant::now();
        let out = op();
        let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
        idle();
        let after = reference_kernel_ms(&mut self.table);
        let sample = Sample::new(raw_ms, self.prev_ref_ms, after, self.nominal_ms);
        self.prev_ref_ms = after;
        self.refs.push(after);
        (out, sample)
    }

    /// Every raw reference kernel time measured so far, in ms.
    #[must_use]
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Sum over `groups` of each non-empty group's median: the time of one pass
/// over every point (or set-up piece) at each one's typical speed.
///
/// # Panics
///
/// Panics on a NaN.
#[must_use]
pub fn sum_of_medians(groups: &[Vec<f64>]) -> f64 {
    groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .sum()
}

/// Linear-interpolation percentile (`q` in `[0, 1]`) over the sorted values:
/// rank `q * (n - 1)`, so `q = 0.5` is the median and `q = 1` the maximum.
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `q` outside `[0, 1]`.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile rank {q} outside [0, 1]"
    );
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let rank = q * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_scales_to_the_nominal_kernel_time() {
        // A host running at half speed doubles both the operation and the
        // kernel; the normalised time is what the nominal host would take.
        let s = Sample::new(200.0, 8.0, 8.0, 4.0);
        assert_eq!(s.ref_ms, 8.0);
        assert_eq!(s.scale, 0.5);
        assert_eq!(s.norm_ms(), 100.0);
        // The bracketing kernel times are averaged.
        let s = Sample::new(90.0, 2.0, 4.0, 3.0);
        assert_eq!(s.ref_ms, 3.0);
        assert_eq!(s.norm_ms(), 90.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(percentile(&v, 1.0), 11.0);
        assert!((percentile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        // One slow sample per group moves no group's median.
        let groups = vec![vec![1.0, 9.0, 1.0], vec![], vec![2.0, 2.0, 30.0]];
        assert_eq!(sum_of_medians(&groups), 3.0);
        assert_eq!(sum_of_medians(&[]), 0.0);
    }

    #[test]
    fn clock_brackets_each_operation_with_the_kernel() {
        let mut clock = RefClock::start(1.0);
        let mut idled = false;
        let (out, s) = clock.time(|| 7, || idled = true);
        assert_eq!(out, 7);
        assert!(idled);
        assert!(s.raw_ms >= 0.0 && s.ref_ms > 0.0);
        assert_eq!(clock.refs().len(), 2);
        assert!((s.ref_ms - (clock.refs()[0] + clock.refs()[1]) / 2.0).abs() < 1e-12);
    }
}
