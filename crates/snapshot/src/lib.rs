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
//!
//! Files the simulator persists (run journals, checkpoint-cache entries,
//! job sidecars) share one checksummed, versioned layout: see [`framed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

pub mod framed;

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
    /// The envelope or file header was written by an incompatible format
    /// version.
    Version {
        /// Version found in the header.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// Trailing bytes after the payload (shape drift between encode/decode).
    TrailingBytes(usize),
    /// A frame's checksum does not match its payload ([`framed`]).
    Checksum,
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
            SnapError::Checksum => write!(f, "frame checksum mismatch"),
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
    pub fn varint(&mut self, v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
            return;
        }
        let (tmp, n) = varint_bytes(v);
        self.buf.extend_from_slice(&tmp[..n]);
    }
}

/// The LEB128 encoding of `v` in a stack buffer, and how many of its bytes
/// it uses.
fn varint_bytes(mut v: u64) -> ([u8; 10], usize) {
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
            return (tmp, n);
        }
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

    /// Writes the elements of a `Vec`; bytes override it with one bulk copy.
    fn write_run(values: &[Self], w: &mut Writer) {
        for v in values {
            v.write(w);
        }
    }

    /// Reads the `n` elements of a `Vec`; bytes override it with one bulk
    /// copy.
    fn read_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, SnapError> {
        // Guard against pathological lengths in corrupted streams: each
        // element consumes at least one byte.
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::read(r)?);
        }
        Ok(out)
    }
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
    fn write_run(values: &[u8], w: &mut Writer) {
        w.bytes(values);
    }
    fn read_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, SnapError> {
        Ok(r.bytes(n)?.to_vec())
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
        T::write_run(self, w);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = usize::try_from(r.varint()?).map_err(|_| SnapError::VarintOverflow)?;
        T::read_run(r, n)
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
    let version = r.varint()?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(SnapError::Version {
            found: version,
            expected: u64::from(FORMAT_VERSION),
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

// --- digests ----------------------------------------------------------------

/// FNV-1a 64-bit hash of `bytes`: a stable digest for configuration and
/// result fingerprints. Not cryptographic.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

    /// Header of the framed files these tests write.
    const TEST_FILE: framed::FileKind = framed::FileKind {
        magic: *b"LTPTEST\0",
        version: 3,
    };

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("ltp-snapshot-test-{}", std::process::id()))
            .join(name)
    }

    /// Appends `payloads` to a new framed file and returns its bytes.
    fn framed_bytes(name: &str, payloads: &[&str]) -> Vec<u8> {
        let path = temp_path(name);
        let mut w = framed::FramedWriter::create(&path, TEST_FILE).expect("create");
        for p in payloads {
            w.append_value(&p.to_string()).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        bytes
    }

    fn read_strings(bytes: &[u8]) -> Vec<Result<String, SnapError>> {
        framed::read_framed(bytes, TEST_FILE)
            .expect("header")
            .map(|f| f.map(|f| decode_value(f.payload).expect("payload")))
            .collect()
    }

    #[test]
    fn record_log_roundtrip_and_degradation() {
        let payloads = ["alpha", "", "gamma-record"];
        let log = framed_bytes("log", &payloads);
        let got = read_strings(&log);
        assert_eq!(got.len(), 3);
        for (g, p) in got.iter().zip(payloads) {
            assert_eq!(g.as_deref(), Ok(p));
        }

        // Truncation mid-frame: earlier frames survive, the torn one reads
        // as Truncated, iteration stops.
        let got = read_strings(&log[..log.len() - 3]);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].as_deref(), Ok("alpha"));
        assert_eq!(got[2], Err(SnapError::Truncated));

        // A flipped byte at a frame's offset corrupts exactly that frame and
        // stops iteration (the framing after it cannot be trusted).
        let offsets: Vec<usize> = framed::read_framed(&log, TEST_FILE)
            .expect("header")
            .map(|f| f.expect("intact").offset)
            .collect();
        let mut flipped = log.clone();
        flipped[offsets[1]] ^= 0x40;
        let got = read_strings(&flipped);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1], Err(SnapError::Checksum));

        // A length running past the end of the file is truncation, not a
        // huge allocation.
        let mut lying = framed_bytes("lying", &[]);
        let mut w = Writer::new();
        w.varint(u64::MAX);
        w.bytes(b"tiny");
        lying.extend_from_slice(&w.into_bytes());
        assert_eq!(read_strings(&lying), vec![Err(SnapError::Truncated)]);

        assert!(read_strings(&framed_bytes("empty", &[])).is_empty());
    }

    #[test]
    fn framed_header_and_checksums_are_pinned() {
        // The on-disk layout can never silently change: magic, version,
        // then per frame the length, the payload and its lane checksum
        // (byte-wise FNV-1a below 8 bytes).
        let short = framed_bytes("short", &["a"]);
        let mut expected = b"LTPTEST\0".to_vec();
        expected.extend_from_slice(&[3, 2, 1, b'a']);
        expected.extend_from_slice(&fnv1a64(&[1, b'a']).to_le_bytes());
        assert_eq!(short, expected);
        let long = framed_bytes("long", &["lane-checked payload"]);
        assert_eq!(
            long[long.len() - 8..],
            0xf0cf_2cfc_9796_eb0d_u64.to_le_bytes()
        );

        let header_error = |bytes: &[u8]| framed::read_framed(bytes, TEST_FILE).err();
        assert_eq!(header_error(&short), None);
        assert_eq!(header_error(b"LTPTEST"), Some(SnapError::Truncated));
        assert_eq!(header_error(b"NOTLTP\0\0\x03"), Some(SnapError::BadMagic));
        let mut newer = short.clone();
        newer[8] = 4;
        assert_eq!(
            header_error(&newer),
            Some(SnapError::Version {
                found: 4,
                expected: 3
            })
        );
    }

    #[test]
    fn publish_replaces_a_file_whole() {
        let path = temp_path("published");
        let publish = |payload: &str| {
            framed::publish(&path, TEST_FILE, |w| {
                w.append_value(&payload.to_string()).map(drop)
            })
        };
        publish("first").expect("publish");
        publish("second").expect("republish");
        let read = || read_strings(&std::fs::read(&path).expect("published file"));
        assert_eq!(read(), vec![Ok("second".to_string())]);

        // A failed write leaves the published file as it was, and no temp.
        let failed = framed::publish(&path, TEST_FILE, |w| {
            w.append_value(&"third".to_string())?;
            Err(std::io::Error::other("interrupted"))
        });
        assert!(failed.is_err());
        assert_eq!(read(), vec![Ok("second".to_string())]);
        let leftovers = std::fs::read_dir(path.parent().expect("dir"))
            .expect("list")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0, "temp files left behind");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned reference values (offset basis and the standard test vector)
        // so configuration and result digests can never silently change.
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
