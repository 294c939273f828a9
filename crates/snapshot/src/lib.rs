//! # ltp-snapshot
//!
//! A versioned, compact binary codec for checkpointing simulator machine
//! state (the `ltp-pipeline` `Snapshot` type and everything reachable from
//! it).
//!
//! Design constraints, in order:
//!
//! 1. **Fidelity** — decoding a snapshot must reconstruct machine state that
//!    behaves *bit-for-bit* like the original (the pipeline pins this against
//!    its golden fingerprints). Every ordered container is therefore encoded
//!    verbatim; only containers whose iteration order is behaviourally
//!    irrelevant (hash maps/sets, binary heaps) are canonicalised by sorting.
//! 2. **Canonical bytes** — encoding the decoded value again must produce the
//!    same bytes (`encode(decode(encode(x))) == encode(x)`), so round-trip
//!    property tests can compare byte strings instead of needing `Eq` on
//!    every machine structure.
//! 3. **Compactness** — integers use LEB128 varints; machine state is
//!    dominated by small integers (sequence numbers relative to shared bases
//!    are not attempted — plain varints already shrink checkpoints by ~4x
//!    over fixed-width fields).
//!
//! The codec is deliberately *not* self-describing: the layout is defined by
//! the `Codec` implementations, and the envelope carries a format version
//! that is bumped whenever any implementation changes shape. A version
//! mismatch is a clean [`SnapError::Version`] instead of garbage state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Magic bytes opening every snapshot envelope.
pub const MAGIC: [u8; 8] = *b"LTPSNAP\0";

/// Current snapshot format version. Bump on **any** change to a `Codec`
/// implementation's field set or ordering.
///
/// v2: sparse per-set cache-line layout (way bitmap + packed flags) — a
/// lightly warmed cache encodes in a fraction of the dense size, which is
/// what keeps per-interval journaling affordable.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the value was complete.
    Truncated,
    /// A varint ran longer than the maximum width of its type.
    VarintOverflow,
    /// An enum discriminant or flag byte had no defined meaning.
    BadTag(u32),
    /// The envelope does not start with [`MAGIC`].
    BadMagic,
    /// The envelope was written by an incompatible format version.
    Version {
        /// Version found in the envelope.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// Trailing bytes after the payload (shape drift between encode/decode).
    TrailingBytes(usize),
    /// A domain-level invariant failed while rebuilding state (message is
    /// static so decoding never allocates error strings in the happy path).
    Invalid(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::VarintOverflow => write!(f, "varint wider than its type"),
            SnapError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::Version { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            SnapError::Invalid(msg) => write!(f, "invalid snapshot state: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Byte sink the codec writes into.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }

    /// Creates an empty writer with `capacity` bytes pre-reserved. Use when
    /// the encoded size is known up front (e.g. re-framing an already
    /// encoded payload) to skip the doubling-growth copies.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the raw payload bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one raw byte.
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }

    /// Appends a LEB128 varint.
    ///
    /// Snapshot payloads are tens of thousands of varints (cache tags
    /// dominate), so the two layouts are split: the single-byte case — the
    /// majority — is one `push`, and multi-byte values encode into a stack
    /// buffer first so the vector grows once instead of byte-by-byte.
    pub fn varint(&mut self, mut v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
            return;
        }
        let mut tmp = [0u8; 10];
        let mut n = 0;
        loop {
            let mut b = (v & 0x7f) as u8;
            v >>= 7;
            if v != 0 {
                b |= 0x80;
            }
            tmp[n] = b;
            n += 1;
            if v == 0 {
                break;
            }
        }
        self.buf.extend_from_slice(&tmp[..n]);
    }
}

/// Byte source the codec reads from.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a payload.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one raw byte.
    pub fn byte(&mut self) -> Result<u8, SnapError> {
        let b = *self.buf.get(self.pos).ok_or(SnapError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, SnapError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && (b & 0x7e) != 0) {
                return Err(SnapError::VarintOverflow);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// A type that can be written to / read from the snapshot byte stream.
///
/// `encode(decode(encode(x))) == encode(x)` must hold for every
/// implementation (canonical bytes), and the decoded value must be
/// *behaviourally* identical to the original.
pub trait Codec: Sized {
    /// Writes `self` to the stream.
    fn write(&self, w: &mut Writer);
    /// Reads a value from the stream.
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError>;
}

// --- primitives -------------------------------------------------------------

impl Codec for bool {
    fn write(&self, w: &mut Writer) {
        w.byte(u8::from(*self));
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag(u32::from(t))),
        }
    }
}

impl Codec for u8 {
    fn write(&self, w: &mut Writer) {
        w.byte(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.byte()
    }
}

macro_rules! impl_codec_varint {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            fn write(&self, w: &mut Writer) {
                w.varint(*self as u64);
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                let v = r.varint()?;
                <$ty>::try_from(v).map_err(|_| SnapError::VarintOverflow)
            }
        }
    )+};
}
impl_codec_varint!(u16, u32, u64);

impl Codec for usize {
    fn write(&self, w: &mut Writer) {
        w.varint(*self as u64);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)
    }
}

impl Codec for u128 {
    fn write(&self, w: &mut Writer) {
        w.varint(*self as u64);
        w.varint((*self >> 64) as u64);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let lo = r.varint()?;
        let hi = r.varint()?;
        Ok(u128::from(lo) | (u128::from(hi) << 64))
    }
}

impl Codec for i64 {
    fn write(&self, w: &mut Writer) {
        // Zigzag so small negative strides stay short.
        w.varint(((*self << 1) ^ (*self >> 63)) as u64);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let v = r.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

impl Codec for f64 {
    fn write(&self, w: &mut Writer) {
        w.bytes(&self.to_bits().to_le_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let bs = r.bytes(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bs);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }
}

impl Codec for String {
    fn write(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        w.bytes(self.as_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
        let bs = r.bytes(n)?;
        String::from_utf8(bs.to_vec()).map_err(|_| SnapError::Invalid("non-utf8 string"))
    }
}

// --- compounds --------------------------------------------------------------

impl<T: Codec> Codec for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            None => w.byte(0),
            Some(v) => {
                w.byte(1);
                v.write(w);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r)?)),
            t => Err(SnapError::BadTag(u32::from(t))),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
        self.1.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
        self.1.write(w);
        self.2.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::read(r)?, B::read(r)?, C::read(r)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn write(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        for v in self {
            v.write(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
        // Guard against pathological lengths in corrupted streams: each
        // element consumes at least one byte.
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::read(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn write(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        for v in self {
            v.write(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::read(r)?.into())
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn write(&self, w: &mut Writer) {
        for v in self {
            v.write(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::read(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Invalid("array length"))
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for inlinevec::InlineVec<T, N> {
    fn write(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        for v in self.iter() {
            v.write(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = inlinevec::InlineVec::new();
        for _ in 0..n {
            out.push(T::read(r)?);
        }
        Ok(out)
    }
}

// Hash containers are canonicalised by sorting on the key: their iteration
// order is unspecified, so the sort both makes the bytes deterministic and is
// safe exactly when the simulator never depends on that order (which the
// golden-fingerprint restore tests verify end to end).
impl<K: Codec + Ord + Copy + std::hash::Hash + Eq, V: Codec> Codec for HashMap<K, V> {
    fn write(&self, w: &mut Writer) {
        let mut keys: Vec<K> = self.keys().copied().collect();
        keys.sort_unstable();
        w.varint(keys.len() as u64);
        for k in keys {
            k.write(w);
            self[&k].write(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = HashMap::with_capacity(n.max(64));
        for _ in 0..n {
            let k = K::read(r)?;
            let v = V::read(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord + Copy + std::hash::Hash + Eq> Codec for HashSet<K> {
    fn write(&self, w: &mut Writer) {
        let mut keys: Vec<K> = self.iter().copied().collect();
        keys.sort_unstable();
        keys.write(w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<K>::read(r)?.into_iter().collect())
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn write(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        for (k, v) in self {
            k.write(w);
            v.write(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::read(r)?;
            let v = V::read(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord> Codec for BTreeSet<K> {
    fn write(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        for k in self {
            k.write(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(K::read(r)?);
        }
        Ok(out)
    }
}

/// Implements [`Codec`] for a struct by writing/reading every listed field in
/// order. All fields must be listed (the expansion uses struct literal
/// syntax, which the compiler checks for exhaustiveness).
#[macro_export]
macro_rules! impl_codec {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            fn write(&self, w: &mut $crate::Writer) {
                $( $crate::Codec::write(&self.$field, w); )+
            }
            fn read(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $( $field: $crate::Codec::read(r)? ),+ })
            }
        }
    };
}

/// Implements [`Codec`] for a fieldless enum with explicit stable tags.
#[macro_export]
macro_rules! impl_codec_enum {
    ($ty:ty { $($variant:path = $tag:literal),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            fn write(&self, w: &mut $crate::Writer) {
                let tag: u8 = match self {
                    $( $variant => $tag, )+
                };
                w.byte(tag);
            }
            fn read(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                match r.byte()? {
                    $( $tag => Ok($variant), )+
                    t => Err($crate::SnapError::BadTag(u32::from(t))),
                }
            }
        }
    };
}

// --- envelope ---------------------------------------------------------------

/// Encodes `value` into a versioned envelope: magic, format version, payload.
pub fn encode_envelope<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.varint(u64::from(FORMAT_VERSION));
    value.write(&mut w);
    w.into_bytes()
}

/// Decodes a value from a versioned envelope, rejecting wrong magic, wrong
/// version, or trailing bytes.
pub fn decode_envelope<T: Codec>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = Reader::new(bytes);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
    if version != FORMAT_VERSION {
        return Err(SnapError::Version {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    decode_value(r.bytes(r.remaining())?)
}

/// Encodes a value into raw payload bytes (no envelope).
pub fn encode_value<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.write(&mut w);
    w.into_bytes()
}

/// Decodes a value from raw payload bytes (the inverse of
/// [`encode_value`]), rejecting trailing bytes.
///
/// # Errors
///
/// Returns the codec's error for truncated or corrupted bytes, and
/// [`SnapError::TrailingBytes`] when the value ends before the payload does.
pub fn decode_value<T: Codec>(payload: &[u8]) -> Result<T, SnapError> {
    let mut r = Reader::new(payload);
    let value = T::read(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

// --- checksummed record framing ---------------------------------------------
//
// An append-only log of independently-checksummed records: the persistence
// shape the fault-tolerant sampled runner journals completed intervals into.
// Each record stands alone (length prefix, payload, FNV-1a 64 checksum), so a
// reader can recover every record written before a crash or a corruption and
// cleanly stop at the first bad one — the log degrades record-by-record
// instead of all-or-nothing.

/// FNV-1a 64-bit hash of `bytes` — the checksum used by [`frame_record`] and
/// a convenient stable digest for result fingerprinting. Not cryptographic;
/// it detects truncation and bit flips, not adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit over 8-byte little-endian lanes (remainder bytes feed in
/// one at a time) — the frame checksum of [`frame_record`]. Same detection
/// class as [`fnv1a64`] (truncation, bit flips) at ~8× the throughput, which
/// matters because journal frames carry ~100 kB encoded checkpoints and are
/// checksummed on the simulation's critical path.
#[must_use]
pub fn fnv1a64_lanes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for lane in &mut chunks {
        let mut arr = [0u8; 8];
        arr.copy_from_slice(lane);
        h ^= u64::from_le_bytes(arr);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frames one record for an append-only log: varint payload length, the
/// payload, and the payload's [`fnv1a64_lanes`] checksum as 8 little-endian
/// bytes.
#[must_use]
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(payload.len() + 18);
    w.varint(payload.len() as u64);
    w.bytes(payload);
    w.bytes(&fnv1a64_lanes(payload).to_le_bytes());
    w.into_bytes()
}

/// Finishes a frame whose length prefix and payload were written directly
/// into `w`: given a writer holding exactly `varint(payload_len)` followed
/// by `payload_len` payload bytes, appends the payload's checksum and
/// returns the finished frame. Byte-identical to `frame_record(&payload)`,
/// but the payload is encoded in place instead of being copied into the
/// frame afterwards — the journal drain frames multi-kilobyte checkpoint
/// records on the run's critical tail.
#[must_use]
pub fn finish_frame(w: Writer, payload_len: usize) -> Vec<u8> {
    let mut buf = w.into_bytes();
    debug_assert!(buf.len() >= payload_len, "writer holds prefix + payload");
    let start = buf.len() - payload_len;
    let sum = fnv1a64_lanes(&buf[start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Why a framed record could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The log ended mid-record (e.g. a crash during an append). Everything
    /// before this point was read successfully.
    Truncated,
    /// The record's checksum did not match its payload (bit rot, a torn
    /// write, or injected corruption).
    Corrupt,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record log truncated mid-record"),
            RecordError::Corrupt => write!(f, "record checksum mismatch"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Iterates the records of a [`frame_record`] log, yielding each payload.
/// Stops permanently at the first truncated or corrupt record (returning it
/// as an `Err`): bytes after a bad frame cannot be trusted to be aligned.
#[derive(Debug)]
pub struct RecordIter<'a> {
    r: Reader<'a>,
    dead: bool,
}

impl<'a> RecordIter<'a> {
    /// Creates an iterator over a record log.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> RecordIter<'a> {
        RecordIter {
            r: Reader::new(bytes),
            dead: false,
        }
    }
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = Result<&'a [u8], RecordError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.dead || self.r.remaining() == 0 {
            return None;
        }
        let fail = |me: &mut Self, e| {
            me.dead = true;
            Some(Err(e))
        };
        let Ok(len) = self.r.varint() else {
            return fail(self, RecordError::Truncated);
        };
        let Ok(len) = usize::try_from(len) else {
            return fail(self, RecordError::Truncated);
        };
        // The checksum trailer must also fit — a length that "lies" past the
        // end of the buffer is indistinguishable from truncation.
        if len.checked_add(8).is_none_or(|n| n > self.r.remaining()) {
            return fail(self, RecordError::Truncated);
        }
        let payload = self.r.bytes(len).expect("length checked above");
        let sum_bytes = self.r.bytes(8).expect("length checked above");
        let mut arr = [0u8; 8];
        arr.copy_from_slice(sum_bytes);
        if fnv1a64_lanes(payload) != u64::from_le_bytes(arr) {
            return fail(self, RecordError::Corrupt);
        }
        Some(Ok(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_value(&v);
        let mut r = Reader::new(&bytes);
        let back = T::read(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes for {v:?}");
        assert_eq!(back, v);
        assert_eq!(encode_value(&back), bytes, "non-canonical bytes for {v:?}");
    }

    #[test]
    fn primitive_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            roundtrip(v);
        }
        for v in [0usize, 42, usize::MAX] {
            roundtrip(v);
        }
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            roundtrip(v);
        }
        for v in [0.0f64, -1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            roundtrip(v);
        }
        roundtrip(true);
        roundtrip(false);
        roundtrip(0xAAu8);
        roundtrip(u128::MAX);
        roundtrip(String::from("workload/name"));
    }

    #[test]
    fn compound_roundtrips() {
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((1u64, true, 300u32));
        roundtrip(VecDeque::from(vec![9u64, 8]));
        roundtrip([1u64, 2, 3]);
        roundtrip(std::collections::BTreeSet::from([3u64, 1, 2]));
        roundtrip(std::collections::BTreeMap::from([(1u64, 2u64), (3, 4)]));
    }

    #[test]
    fn hash_containers_are_canonical() {
        // Two maps built in different insertion orders encode identically.
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for k in 0u64..64 {
            a.insert(k, k * 2);
        }
        for k in (0u64..64).rev() {
            b.insert(k, k * 2);
        }
        assert_eq!(encode_value(&a), encode_value(&b));
        let set_a: HashSet<u64> = (0..64).collect();
        let set_b: HashSet<u64> = (0..64).rev().collect();
        assert_eq!(encode_value(&set_a), encode_value(&set_b));
    }

    #[test]
    fn inline_vec_roundtrip() {
        let mut v: inlinevec::InlineVec<u64, 2> = inlinevec::InlineVec::new();
        for i in 0..5 {
            v.push(i);
        }
        let bytes = encode_value(&v);
        let mut r = Reader::new(&bytes);
        let back: inlinevec::InlineVec<u64, 2> = Codec::read(&mut r).unwrap();
        assert_eq!(back.as_slice(), v.as_slice());
    }

    #[test]
    fn envelope_rejects_garbage() {
        let bytes = encode_envelope(&42u64);
        assert_eq!(decode_envelope::<u64>(&bytes), Ok(42));
        assert_eq!(
            decode_envelope::<u64>(b"nonsense"),
            Err(SnapError::BadMagic)
        );
        // Wrong version.
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.varint(u64::from(FORMAT_VERSION + 1));
        w.varint(42);
        assert!(matches!(
            decode_envelope::<u64>(&w.into_bytes()),
            Err(SnapError::Version { .. })
        ));
        // Trailing bytes.
        let mut bytes = encode_envelope(&42u64);
        bytes.push(0);
        assert!(matches!(
            decode_envelope::<u64>(&bytes),
            Err(SnapError::TrailingBytes(1))
        ));
        // Truncated payload.
        let bytes = encode_envelope(&(1u64, 2u64));
        assert!(matches!(
            decode_envelope::<(u64, u64)>(&bytes[..bytes.len() - 1]),
            Err(SnapError::Truncated)
        ));
        // A bare payload decodes to its value and rejects trailing bytes.
        let mut bytes = encode_value(&42u64);
        assert_eq!(decode_value::<u64>(&bytes), Ok(42));
        bytes.push(0);
        assert_eq!(
            decode_value::<u64>(&bytes),
            Err(SnapError::TrailingBytes(1))
        );
    }

    #[test]
    fn record_log_roundtrip_and_degradation() {
        let payloads: [&[u8]; 3] = [b"alpha", b"", b"gamma-record"];
        let mut log = Vec::new();
        for p in payloads {
            log.extend_from_slice(&frame_record(p));
        }
        let got: Vec<_> = RecordIter::new(&log).collect();
        assert_eq!(got.len(), 3);
        for (g, p) in got.iter().zip(payloads) {
            assert_eq!(*g, Ok(p));
        }

        // Truncation mid-record: earlier records survive, the torn one reads
        // as Truncated, iteration stops.
        let cut = &log[..log.len() - 3];
        let got: Vec<_> = RecordIter::new(cut).collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], Ok(&b"alpha"[..]));
        assert_eq!(got[2], Err(RecordError::Truncated));

        // A bit flip in a payload reads as Corrupt and stops iteration (the
        // following record is unreachable: framing cannot be trusted).
        let mut flipped = log.clone();
        flipped[2] ^= 0x40;
        let got: Vec<_> = RecordIter::new(&flipped).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], Err(RecordError::Corrupt));

        // A length prefix lying beyond the buffer is truncation, not a huge
        // allocation.
        let mut lying = Writer::new();
        lying.varint(u64::MAX);
        lying.bytes(b"tiny");
        let lying = lying.into_bytes();
        let got: Vec<_> = RecordIter::new(&lying).collect();
        assert_eq!(got, vec![Err(RecordError::Truncated)]);

        assert_eq!(RecordIter::new(&[]).count(), 0);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned reference values (offset basis and the standard test vector)
        // so the on-disk journal checksum can never silently change.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes cannot fit in a u64.
        let bytes = [0xffu8; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint(), Err(SnapError::VarintOverflow));
    }

    #[test]
    fn macro_structs_and_enums() {
        #[derive(Debug, PartialEq)]
        struct Demo {
            a: u64,
            b: Option<bool>,
            c: Vec<u8>,
        }
        impl_codec!(Demo { a, b, c });

        #[derive(Debug, PartialEq)]
        enum Mode {
            X,
            Y,
        }
        impl_codec_enum!(Mode { Mode::X = 0, Mode::Y = 1 });

        roundtrip(Demo {
            a: 9,
            b: Some(true),
            c: vec![1, 2],
        });
        roundtrip(Mode::X);
        roundtrip(Mode::Y);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn u64_roundtrip(v in any::<u64>()) {
                let bytes = encode_value(&v);
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(u64::read(&mut r).unwrap(), v);
                prop_assert_eq!(r.remaining(), 0);
            }

            #[test]
            fn i64_roundtrip(v in any::<i64>()) {
                let bytes = encode_value(&v);
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(i64::read(&mut r).unwrap(), v);
            }

            #[test]
            fn vec_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
                let bytes = encode_value(&v);
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(Vec::<u64>::read(&mut r).unwrap(), v);
                prop_assert_eq!(r.remaining(), 0);
            }

            #[test]
            fn decoder_never_panics_on_garbage(v in proptest::collection::vec(any::<u8>(), 0..128)) {
                // Decoding arbitrary bytes must fail cleanly, never panic.
                let _ = decode_envelope::<(u64, Vec<u64>, Option<bool>)>(&v);
            }
        }
    }
}
