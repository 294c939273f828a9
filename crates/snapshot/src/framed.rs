//! One framed-file format for everything the simulator persists: run
//! journals, checkpoint-cache entries and the job server's `.job`/`.done`
//! sidecars.
//!
//! ```text
//! file  = magic (8 bytes) · version (varint) · frame*
//! frame = payload length (varint) · payload · checksum (8 bytes, LE)
//! ```
//!
//! The header ([`FileKind`]) names the kind of file and its format
//! version, so a file of another kind or version fails the header check
//! instead of being misread. A payload is one [`Codec`] value; its checksum
//! is FNV-1a 64 over its 8-byte little-endian lanes. Frames stand alone: a
//! reader keeps every frame written before a crash or a corruption and
//! stops at the first bad one.
//!
//! * [`FramedWriter`] appends, one `write_all` per frame, so a crash
//!   between appends leaves whole frames only (one during an append leaves
//!   a torn last frame, which the reader drops). Run journals grow this way.
//! * [`publish`] writes a whole file through a temp file beside it and a
//!   rename, so the final name only ever holds a complete file. Cache
//!   entries and job sidecars are published.
//! * [`read_framed`] checks the header and yields each intact payload with
//!   its byte offset in the file.
//!
//! Nothing is `fsync`ed: a file survives the writing process being killed
//! (its writes are in the page cache), not a power loss.

use crate::{varint_bytes, Codec, Reader, SnapError, Writer};
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The header a kind of framed file opens with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileKind {
    /// Eight bytes naming the kind of file.
    pub magic: [u8; 8],
    /// Format version of the frames; bump it on any layout change.
    pub version: u64,
}

/// Room a frame buffer keeps for its length prefix: the widest varint.
const LEN_ROOM: usize = 10;

/// FNV-1a 64 over 8-byte little-endian lanes (remainder bytes one at a
/// time): the frame checksum. It detects truncation and bit flips, not
/// adversaries, at ~8x the byte-wise throughput; journal frames carry
/// ~40 kB checkpoints and are checksummed while the simulation runs.
fn fnv1a64_lanes(bytes: &[u8]) -> u64 {
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

/// Appends frames to a framed file.
#[derive(Debug)]
pub struct FramedWriter {
    file: File,
    /// The last frame's buffer, reused so appends stop allocating once it
    /// has grown to the largest frame.
    frame: Vec<u8>,
}

impl FramedWriter {
    /// Creates (truncating) the file at `path`, and any missing parent
    /// directories, and writes the header of `kind`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn create(path: &Path, kind: FileKind) -> io::Result<FramedWriter> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = File::create(path)?;
        let (version, n) = varint_bytes(kind.version);
        file.write_all(&[&kind.magic[..], &version[..n]].concat())?;
        Ok(FramedWriter {
            file,
            frame: Vec::new(),
        })
    }

    /// Appends one frame holding the encoding of `value` and returns the
    /// payload's length. The value encodes behind room for the length
    /// prefix, which goes in front of it afterwards: the payload is never
    /// copied.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the frame.
    pub fn append_value<T: Codec>(&mut self, value: &T) -> io::Result<usize> {
        let mut w = Writer {
            buf: std::mem::take(&mut self.frame),
        };
        w.buf.clear();
        w.buf.resize(LEN_ROOM, 0);
        value.write(&mut w);
        let mut frame = w.buf;
        let len = frame.len() - LEN_ROOM;
        let sum = fnv1a64_lanes(&frame[LEN_ROOM..]);
        frame.extend_from_slice(&sum.to_le_bytes());
        let (prefix, n) = varint_bytes(len as u64);
        let start = LEN_ROOM - n;
        frame[start..LEN_ROOM].copy_from_slice(&prefix[..n]);
        let written = self.file.write_all(&frame[start..]);
        self.frame = frame;
        written.map(|()| len)
    }
}

/// Writes a whole framed file: `write` appends the frames to a fresh file
/// beside `path`, which is then renamed over `path`. A reader of `path`
/// sees the previous file or the complete new one, never a torn write, and
/// writers racing on one path each publish a whole file (the last rename
/// wins). On an error the temp file is removed.
///
/// # Errors
///
/// Any I/O error writing or renaming the file, or the error `write`
/// returns.
pub fn publish(
    path: &Path,
    kind: FileKind,
    write: impl FnOnce(&mut FramedWriter) -> io::Result<()>,
) -> io::Result<()> {
    // Unique per process and call, so racing writers never share a temp.
    static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let temp = path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
    ));
    let published = FramedWriter::create(&temp, kind)
        .and_then(|mut w| write(&mut w))
        .and_then(|()| std::fs::rename(&temp, path));
    if published.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    published
}

/// One intact frame of a framed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Byte offset of the payload in the file.
    pub offset: usize,
    /// The payload, its checksum verified.
    pub payload: &'a [u8],
}

/// Checks that `bytes` open with the header of `kind` and returns their
/// frames in file order. The first damaged frame is yielded as an error and
/// ends the iteration, since the bytes after it cannot be trusted to be
/// aligned: [`SnapError::Truncated`] when the file ends inside the frame or
/// its length runs past the end, [`SnapError::VarintOverflow`] for a
/// damaged length, and [`SnapError::Checksum`] when the checksum does not
/// match.
///
/// # Errors
///
/// [`SnapError::BadMagic`] for another kind of file,
/// [`SnapError::Version`] for another format version, and
/// [`SnapError::Truncated`] or [`SnapError::VarintOverflow`] for a header
/// cut short or damaged.
pub fn read_framed(
    bytes: &[u8],
    kind: FileKind,
) -> Result<impl Iterator<Item = Result<Frame<'_>, SnapError>>, SnapError> {
    let mut r = Reader::new(bytes);
    if r.bytes(kind.magic.len())? != kind.magic {
        return Err(SnapError::BadMagic);
    }
    let found = r.varint()?;
    if found != kind.version {
        return Err(SnapError::Version {
            found,
            expected: kind.version,
        });
    }
    let mut dead = false;
    Ok(std::iter::from_fn(move || {
        if dead || r.remaining() == 0 {
            return None;
        }
        let frame = read_frame(&mut r);
        dead = frame.is_err();
        Some(frame)
    }))
}

fn read_frame<'a>(r: &mut Reader<'a>) -> Result<Frame<'a>, SnapError> {
    let len = usize::try_from(r.varint()?).map_err(|_| SnapError::Truncated)?;
    let offset = r.pos;
    let payload = r.bytes(len)?;
    if r.bytes(8)? != fnv1a64_lanes(payload).to_le_bytes() {
        return Err(SnapError::Checksum);
    }
    Ok(Frame { offset, payload })
}
