//! Instruction stream (trace) abstractions.
//!
//! The pipeline model is *trace driven*: workloads functionally execute their
//! kernels and produce a stream of [`DynInst`]s in program order; the pipeline
//! consumes that stream through the [`InstStream`] trait. Streams are
//! deliberately infinite-capable (generators), so simulations decide how many
//! instructions to run, not the workload.

use crate::DynInst;

/// A stream of dynamic instructions in program order.
///
/// Implementors must produce instructions with strictly increasing sequence
/// numbers starting at the value of their first instruction. [`None`] means
/// the program has terminated.
pub trait InstStream {
    /// Returns the next dynamic instruction in program order, or `None` when
    /// the program has finished.
    fn next_inst(&mut self) -> Option<DynInst>;

    /// A short human-readable name for reports (workload name).
    fn name(&self) -> &str {
        "anonymous"
    }

    /// Seeks forward over the next `n` instructions, returning how many were
    /// skipped (fewer than `n` only when the stream ends first). The stream
    /// is left exactly where pulling and dropping them would leave it;
    /// streams that can seek cheaply override the default, which pulls.
    fn skip_insts(&mut self, n: u64) -> u64 {
        let mut skipped = 0;
        while skipped < n && self.next_inst().is_some() {
            skipped += 1;
        }
        skipped
    }

    /// Adapter: stop after `n` instructions.
    fn take_insts(self, n: u64) -> TakeStream<Self>
    where
        Self: Sized,
    {
        TakeStream {
            inner: self,
            remaining: n,
        }
    }

    /// Adapter: single-instruction lookahead.
    fn peekable_stream(self) -> PeekableStream<Self>
    where
        Self: Sized,
    {
        PeekableStream {
            inner: self,
            peeked: None,
        }
    }

    /// Drains the stream into a vector (for small tests and golden traces).
    fn collect_insts(mut self, max: usize) -> Vec<DynInst>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while out.len() < max {
            match self.next_inst() {
                Some(i) => out.push(i),
                None => break,
            }
        }
        out
    }
}

/// A finite stream backed by a vector of instructions, used in unit tests and
/// for replaying golden traces.
#[derive(Debug, Clone)]
pub struct VecStream {
    name: String,
    insts: std::vec::IntoIter<DynInst>,
}

impl VecStream {
    /// Creates a stream that yields `insts` in order.
    #[must_use]
    pub fn new(name: impl Into<String>, insts: Vec<DynInst>) -> VecStream {
        VecStream {
            name: name.into(),
            insts: insts.into_iter(),
        }
    }
}

impl InstStream for VecStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.insts.next()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        let skip = clamp(n, self.insts.len());
        if skip > 0 {
            // `nth` advances the owning iterator in place: `DynInst` has no
            // drop glue, so this is O(1).
            let _ = self.insts.nth(skip - 1);
        }
        skip as u64
    }
}

/// `n` as a count of at most `available` items.
fn clamp(n: u64, available: usize) -> usize {
    usize::try_from(n).map_or(available, |n| n.min(available))
}

/// A finite stream borrowing a pre-collected trace. Replaying a trace this
/// way shares one allocation across any number of runs (benchmark
/// iterations, sweep points, threads), where [`VecStream`] would force a
/// clone of the whole trace per run.
#[derive(Debug, Clone)]
pub struct SliceStream<'a> {
    name: &'a str,
    insts: &'a [DynInst],
    next: usize,
}

impl<'a> SliceStream<'a> {
    /// Creates a stream that yields `insts` in order without taking
    /// ownership.
    #[must_use]
    pub fn new(name: &'a str, insts: &'a [DynInst]) -> SliceStream<'a> {
        SliceStream {
            name,
            insts,
            next: 0,
        }
    }
}

impl InstStream for SliceStream<'_> {
    fn next_inst(&mut self) -> Option<DynInst> {
        let inst = *self.insts.get(self.next)?;
        self.next += 1;
        Some(inst)
    }

    fn name(&self) -> &str {
        self.name
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        let skip = clamp(n, self.insts.len().saturating_sub(self.next));
        self.next += skip;
        skip as u64
    }
}

/// A finite stream over a reference-counted trace, for sharing one trace
/// allocation across threads or owners with independent lifetimes (sweeps
/// fan simulation points out over worker threads; each point gets its own
/// `ArcStream` over the same `Arc<[DynInst]>`).
#[derive(Debug, Clone)]
pub struct ArcStream {
    name: String,
    insts: std::sync::Arc<[DynInst]>,
    next: usize,
}

impl ArcStream {
    /// Creates a stream over a shared trace.
    #[must_use]
    pub fn new(name: impl Into<String>, insts: std::sync::Arc<[DynInst]>) -> ArcStream {
        ArcStream {
            name: name.into(),
            insts,
            next: 0,
        }
    }
}

impl InstStream for ArcStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        let inst = *self.insts.get(self.next)?;
        self.next += 1;
        Some(inst)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        let skip = clamp(n, self.insts.len().saturating_sub(self.next));
        self.next += skip;
        skip as u64
    }
}

/// Stream adapter returned by [`InstStream::take_insts`].
#[derive(Debug, Clone)]
pub struct TakeStream<S> {
    inner: S,
    remaining: u64,
}

impl<S: InstStream> InstStream for TakeStream<S> {
    fn next_inst(&mut self) -> Option<DynInst> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_inst()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        let n = n.min(self.remaining);
        self.remaining -= n;
        self.inner.skip_insts(n)
    }
}

/// Boxed streams (the workload generators are built as
/// `Box<dyn InstStream>`) are streams too, so they can be handed to the
/// pipeline and to the stream adapters directly.
impl<S: InstStream + ?Sized> InstStream for Box<S> {
    fn next_inst(&mut self) -> Option<DynInst> {
        (**self).next_inst()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        (**self).skip_insts(n)
    }
}

/// Stream adapter returned by [`InstStream::peekable_stream`], giving
/// one-instruction lookahead (the fetch stage uses this to model a fetch
/// buffer boundary).
#[derive(Debug, Clone)]
pub struct PeekableStream<S> {
    inner: S,
    peeked: Option<Option<DynInst>>,
}

impl<S: InstStream> PeekableStream<S> {
    /// Returns the next instruction without consuming it.
    pub fn peek(&mut self) -> Option<&DynInst> {
        if self.peeked.is_none() {
            self.peeked = Some(self.inner.next_inst());
        }
        self.peeked.as_ref().and_then(|o| o.as_ref())
    }
}

impl<S: InstStream> InstStream for PeekableStream<S> {
    fn next_inst(&mut self) -> Option<DynInst> {
        match self.peeked.take() {
            Some(v) => v,
            None => self.inner.next_inst(),
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, OpClass, Pc, StaticInst};

    fn n_insts(n: u64) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                DynInst::new(
                    i,
                    StaticInst::new(Pc(0x1000 + 4 * i), OpClass::IntAlu).with_dst(ArchReg::int(1)),
                )
            })
            .collect()
    }

    #[test]
    fn vec_stream_yields_in_order() {
        let mut s = VecStream::new("test", n_insts(3));
        assert_eq!(s.next_inst().unwrap().seq().0, 0);
        assert_eq!(s.next_inst().unwrap().seq().0, 1);
        assert_eq!(s.next_inst().unwrap().seq().0, 2);
        assert!(s.next_inst().is_none());
        assert_eq!(s.name(), "test");
    }

    #[test]
    fn take_limits_length() {
        let s = VecStream::new("test", n_insts(10)).take_insts(4);
        let collected = s.collect_insts(100);
        assert_eq!(collected.len(), 4);
    }

    #[test]
    fn take_of_short_stream_stops_early() {
        let s = VecStream::new("test", n_insts(2)).take_insts(10);
        assert_eq!(s.collect_insts(100).len(), 2);
    }

    #[test]
    fn peekable_does_not_consume() {
        let mut s = VecStream::new("test", n_insts(2)).peekable_stream();
        assert_eq!(s.peek().unwrap().seq().0, 0);
        assert_eq!(s.peek().unwrap().seq().0, 0);
        assert_eq!(s.next_inst().unwrap().seq().0, 0);
        assert_eq!(s.next_inst().unwrap().seq().0, 1);
        assert!(s.peek().is_none());
        assert!(s.next_inst().is_none());
    }

    #[test]
    fn collect_insts_respects_cap() {
        let s = VecStream::new("test", n_insts(50));
        assert_eq!(s.collect_insts(7).len(), 7);
    }

    #[test]
    fn slice_stream_replays_without_ownership() {
        let trace = n_insts(3);
        // Two replays of the same borrowed trace, no clones.
        for _ in 0..2 {
            let mut s = SliceStream::new("t", &trace);
            assert_eq!(s.name(), "t");
            for expected in &trace {
                assert_eq!(s.next_inst().as_ref(), Some(expected));
            }
            assert!(s.next_inst().is_none());
        }
    }

    #[test]
    fn arc_stream_shares_one_allocation() {
        let trace: std::sync::Arc<[DynInst]> = n_insts(4).into();
        let mut a = ArcStream::new("a", trace.clone());
        let mut b = ArcStream::new("b", trace.clone());
        assert_eq!(a.next_inst().unwrap().seq().0, 0);
        // Streams advance independently over the shared trace.
        assert_eq!(b.next_inst().unwrap().seq().0, 0);
        assert_eq!(a.next_inst().unwrap().seq().0, 1);
        let rest = b.collect_insts(10);
        assert_eq!(rest.len(), 3);
    }
}
