//! Binary trace serialization.
//!
//! Trace files use a compact varint format. The conformance harness writes
//! its corpus and reproducers in it, `bp-serve` evaluates predictors on
//! such files (`trace_eval`), and the `bpt` binary inspects and verifies
//! them. Generated workloads are never stored: they are regenerated from
//! their seed. There is one encoding, the chunk-framed `BPT2`:
//!
//! ```text
//! magic "BPT2"
//! repeated frames:  varint chunk-count (> 0), then that many records
//! end marker:       varint 0
//! footer:           varint total-record-count (= sum of frame counts)
//!
//! per record:
//!   flags byte   bit0 = taken, bits1-2 = kind
//!   varint pc
//!   varint zigzag(target - pc)
//! ```
//!
//! A producer can emit frames as chunks arrive ([`ChunkWriter`] is a
//! [`crate::TraceSink`]), and a reader never needs more than one frame
//! in memory ([`ChunkReader`]). [`write_trace`] and [`read_trace`] are
//! the whole-trace conveniences over the same framing.
//!
//! Readers and writers are generic over [`std::io::Read`] / [`std::io::Write`]
//! (a `&mut` reference works wherever an owned reader/writer does).

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

use crate::record::{BranchKind, BranchRecord};
use crate::sink::{TraceSink, CHUNK_RECORDS};
use crate::source::TraceSource;
use crate::trace::Trace;

const MAGIC: &[u8; 4] = b"BPT2";

/// Error produced when decoding a serialized trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// A varint ran past 10 bytes or the stream ended inside a record.
    Corrupt(&'static str),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::BadMagic => write!(f, "stream is not a serialized trace"),
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace stream: {what}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn write_varint<W: Write>(mut w: W, mut v: u64) -> Result<(), TraceIoError> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(mut r: R) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(TraceIoError::Corrupt("varint too long"));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Call => 1,
        BranchKind::Return => 2,
        BranchKind::Jump => 3,
    }
}

fn kind_from_code(code: u8) -> Result<BranchKind, TraceIoError> {
    match code {
        0 => Ok(BranchKind::Conditional),
        1 => Ok(BranchKind::Call),
        2 => Ok(BranchKind::Return),
        3 => Ok(BranchKind::Jump),
        _ => Err(TraceIoError::Corrupt("bad branch kind")),
    }
}

/// Serializes a trace to a writer as a `BPT2` stream, one frame per
/// [`CHUNK_RECORDS`] records.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] when the writer fails.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use bp_trace::{io, BranchRecord, Trace};
///
/// let trace = Trace::from_records(vec![BranchRecord::conditional(64, true)]);
/// let mut buf = Vec::new();
/// io::write_trace(&mut buf, &trace)?;
/// let back = io::read_trace(buf.as_slice())?;
/// assert_eq!(back, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<W: Write>(w: W, trace: &Trace) -> Result<(), TraceIoError> {
    let mut writer = ChunkWriter::new(w)?;
    trace.scan(&mut |chunk| writer.chunk(chunk))?;
    writer.finish()?;
    Ok(())
}

/// Encodes one record.
fn write_record<W: Write>(mut w: W, rec: &BranchRecord) -> Result<(), TraceIoError> {
    let flags = (rec.taken as u8) | (kind_code(rec.kind) << 1);
    w.write_all(&[flags])?;
    write_varint(&mut w, rec.pc)?;
    write_varint(&mut w, zigzag(rec.target.wrapping_sub(rec.pc) as i64))?;
    Ok(())
}

/// Decodes one record.
fn read_record<R: Read>(mut r: R) -> Result<BranchRecord, TraceIoError> {
    let mut flags = [0u8; 1];
    r.read_exact(&mut flags)?;
    let taken = flags[0] & 1 != 0;
    let kind = kind_from_code(flags[0] >> 1)?;
    let pc = read_varint(&mut r)?;
    let delta = unzigzag(read_varint(&mut r)?);
    Ok(BranchRecord {
        pc,
        target: pc.wrapping_add(delta as u64),
        taken,
        kind,
    })
}

/// Streaming chunk-framed (`BPT2`) trace writer — a [`TraceSink`], so a
/// workload can generate straight to disk without the trace ever existing
/// in memory.
///
/// Each sink chunk becomes one frame. I/O errors are latched at the first
/// failure (recording calls stay infallible) and surfaced by
/// [`ChunkWriter::finish`], which also writes the end marker and the
/// total-count footer. Dropping a writer without `finish` leaves a file
/// with no end marker, which readers reject — a crashed run cannot pass
/// for a complete trace.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use bp_trace::io::{ChunkReader, ChunkWriter};
/// use bp_trace::{BranchRecord, TraceSink};
///
/// let mut buf = Vec::new();
/// let mut w = ChunkWriter::new(&mut buf)?;
/// w.chunk(&[BranchRecord::conditional(64, true)]);
/// w.chunk(&[BranchRecord::conditional(68, false)]);
/// assert_eq!(w.finish()?, 2);
///
/// let mut r = ChunkReader::new(buf.as_slice())?;
/// let mut records = Vec::new();
/// while r.next_chunk(&mut records)? {
///     assert!(!records.is_empty());
/// }
/// assert_eq!(r.decoded(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ChunkWriter<W: Write> {
    writer: W,
    written: u64,
    err: Option<TraceIoError>,
}

impl<W: Write> ChunkWriter<W> {
    /// Starts a `BPT2` stream on `writer` (writes the magic immediately).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] when the writer fails.
    pub fn new(mut writer: W) -> Result<Self, TraceIoError> {
        writer.write_all(MAGIC)?;
        Ok(ChunkWriter {
            writer,
            written: 0,
            err: None,
        })
    }

    /// Records written so far (successfully framed).
    pub fn written(&self) -> u64 {
        self.written
    }

    fn write_frame(&mut self, records: &[BranchRecord]) -> Result<(), TraceIoError> {
        write_varint(&mut self.writer, records.len() as u64)?;
        for rec in records {
            write_record(&mut self.writer, rec)?;
        }
        self.written += records.len() as u64;
        Ok(())
    }

    /// Writes the end marker and footer, flushes, and returns the total
    /// record count.
    ///
    /// # Errors
    ///
    /// Surfaces the first error latched during chunk writes, or a failure
    /// while finalizing.
    pub fn finish(mut self) -> Result<u64, TraceIoError> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        write_varint(&mut self.writer, 0)?;
        write_varint(&mut self.writer, self.written)?;
        self.writer.flush()?;
        Ok(self.written)
    }
}

impl<W: Write> TraceSink for ChunkWriter<W> {
    fn chunk(&mut self, records: &[BranchRecord]) {
        if self.err.is_some() || records.is_empty() {
            return;
        }
        if let Err(e) = self.write_frame(records) {
            self.err = Some(e);
        }
    }
}

/// Streaming chunk-framed (`BPT2`) trace decoder.
///
/// Decodes one frame at a time into a caller-supplied buffer, so peak
/// memory is one chunk regardless of trace length. Hostile frame counts
/// cannot force large allocations (reservation is capped at
/// [`CHUNK_RECORDS`]); any decode error poisons the reader — subsequent
/// calls return the stream-offset-is-meaningless state as `Ok(false)` is
/// never fabricated after an error.
#[derive(Debug)]
pub struct ChunkReader<R> {
    reader: R,
    decoded: u64,
    finished: bool,
    failed: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Opens a `BPT2` stream, validating the magic.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::BadMagic`] when the stream is not a
    /// chunk-framed trace, or an I/O error from the header read.
    pub fn new(mut reader: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceIoError::BadMagic);
        }
        Ok(ChunkReader {
            reader,
            decoded: 0,
            finished: false,
            failed: false,
        })
    }

    /// Records decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Decodes the next frame into `records` (cleared first). Returns
    /// `Ok(false)` — exactly once — after the end marker and a footer that
    /// matches the decoded count.
    ///
    /// # Errors
    ///
    /// Returns a typed error on I/O failure, corruption, or a footer
    /// mismatch; the reader is poisoned afterwards and every later call
    /// repeats an error.
    pub fn next_chunk(&mut self, records: &mut Vec<BranchRecord>) -> Result<bool, TraceIoError> {
        records.clear();
        if self.failed {
            return Err(TraceIoError::Corrupt("reader poisoned by earlier error"));
        }
        if self.finished {
            return Ok(false);
        }
        match self.read_frame(records) {
            Ok(more) => Ok(more),
            Err(e) => {
                self.failed = true;
                records.clear();
                Err(e)
            }
        }
    }

    fn read_frame(&mut self, records: &mut Vec<BranchRecord>) -> Result<bool, TraceIoError> {
        let count = read_varint(&mut self.reader)?;
        if count == 0 {
            let footer = read_varint(&mut self.reader)?;
            if footer != self.decoded {
                return Err(TraceIoError::Corrupt("footer record count mismatch"));
            }
            self.finished = true;
            return Ok(false);
        }
        // Guard preallocation against hostile frame counts; a lying count
        // simply runs into a truncation error while decoding.
        records.reserve(count.min(CHUNK_RECORDS as u64) as usize);
        for _ in 0..count {
            records.push(read_record(&mut self.reader)?);
        }
        self.decoded += count;
        Ok(true)
    }
}

/// Deserializes a whole `BPT2` stream into a [`Trace`].
///
/// # Errors
///
/// Returns [`TraceIoError::BadMagic`] when the stream is not a trace, and
/// [`TraceIoError::Corrupt`] / [`TraceIoError::Io`] on malformed or
/// truncated input (including a missing end marker or a lying footer).
pub fn read_trace<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let mut frames = ChunkReader::new(r)?;
    let mut all = Vec::new();
    let mut chunk = Vec::new();
    while frames.next_chunk(&mut chunk)? {
        all.extend_from_slice(&chunk);
    }
    Ok(Trace::from_records(all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Pc;

    fn roundtrip(trace: &Trace) -> Trace {
        let mut buf = Vec::new();
        write_trace(&mut buf, trace).expect("write");
        read_trace(buf.as_slice()).expect("read")
    }

    #[test]
    fn empty_roundtrip() {
        let t = Trace::new();
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn mixed_roundtrip() {
        let t = Trace::from_records(vec![
            BranchRecord::conditional(0x1000, true),
            BranchRecord::conditional(0x1004, false).with_target(0xfff0),
            BranchRecord {
                pc: 0x2000,
                target: 0x9000,
                taken: true,
                kind: BranchKind::Call,
            },
            BranchRecord {
                pc: 0x9008,
                target: 0,
                taken: true,
                kind: BranchKind::Return,
            },
            BranchRecord {
                pc: Pc::MAX,
                target: 0,
                taken: false,
                kind: BranchKind::Jump,
            },
        ]);
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn truncated_stream_rejected() {
        let t = Trace::from_records(vec![BranchRecord::conditional(10, true)]);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn bad_kind_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, 1).unwrap(); // one-record frame
        buf.push(4 << 1); // kind code 4 does not exist
        write_varint(&mut buf, 1).unwrap();
        write_varint(&mut buf, 0).unwrap();
        write_varint(&mut buf, 0).unwrap(); // end marker
        write_varint(&mut buf, 1).unwrap(); // footer
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt(_)));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0x80u8; 11];
        assert!(matches!(
            read_varint(&buf[..]).unwrap_err(),
            TraceIoError::Corrupt(_)
        ));
    }
}
