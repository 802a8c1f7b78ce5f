//! Chunked trace consumption: the [`TraceSink`] side of the streaming
//! pipeline.
//!
//! The materialize-then-analyze shape (`Vec<BranchRecord>` of the whole
//! trace, then passes over it) caps trace scale at memory: a billion
//! records is ~32 GB. Sinks invert the flow — a producer (a workload
//! generator's [`crate::Recorder`]) hands records over in bounded
//! fixed-size chunks ([`CHUNK_RECORDS`] at most), and the consumer either
//! materializes them ([`TraceBuffer`], for small traces), counts them
//! ([`CountingSink`]), or spills them to disk ([`crate::io::ChunkWriter`]).
//! The analyses read a trace back the same way, one chunk at a time,
//! through [`crate::TraceSource::scan`]. Nothing in the chain ever holds
//! more than one chunk of raw records.

use crate::record::BranchRecord;
use crate::trace::Trace;

/// Number of records per chunk used by the chunked producers
/// ([`crate::Recorder`], the `.bpt` readers). 64 Ki records ≈ 2 MiB of
/// working buffer — large enough to amortize per-chunk dispatch to
/// nothing, small enough that a dozen concurrent streams stay cache- and
/// memory-friendly.
pub const CHUNK_RECORDS: usize = 1 << 16;

/// A consumer of trace records delivered in bounded chunks, in trace
/// order.
///
/// Implementations must treat the concatenation of all `chunk` calls as
/// the trace; chunk boundaries carry no meaning and may fall anywhere
/// (including single-record chunks). Infallible by design: sinks that can
/// fail mid-stream (e.g. file writers) latch their first error internally
/// and surface it from their `finish`-style method, so producers —
/// ordinary instrumented programs — never thread I/O errors through
/// recording calls.
pub trait TraceSink {
    /// Consumes the next run of records.
    fn chunk(&mut self, records: &[BranchRecord]);
}

/// Forwarding: a `&mut` sink is a sink (lets helpers borrow a sink without
/// taking ownership).
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn chunk(&mut self, records: &[BranchRecord]) {
        (**self).chunk(records);
    }
}

/// The materializing sink: collects every chunk into an in-memory
/// [`Trace`]. This is the back-compat path behind
/// [`crate::Recorder::into_trace`]; it grows by chunk (amortized), never
/// pre-reserving for a whole target length.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    records: Vec<BranchRecord>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The collected records, in order.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Finishes collection and produces the trace.
    pub fn into_trace(self) -> Trace {
        Trace::from_records(self.records)
    }
}

impl TraceSink for TraceBuffer {
    fn chunk(&mut self, records: &[BranchRecord]) {
        self.records.extend_from_slice(records);
    }
}

/// A sink that only counts — for length probes and the peak-memory
/// regression tests, where the records themselves must *not* accumulate.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    /// Total records seen.
    pub records: u64,
    /// Conditional records seen.
    pub conditionals: u64,
}

impl TraceSink for CountingSink {
    fn chunk(&mut self, records: &[BranchRecord]) {
        self.records += records.len() as u64;
        self.conditionals += records.iter().filter(|r| r.is_conditional()).count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: u64) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| BranchRecord::conditional(i * 4, i % 3 == 0))
            .collect()
    }

    #[test]
    fn buffer_concatenates_chunks() {
        let all = recs(10);
        let mut buf = TraceBuffer::new();
        assert!(buf.is_empty());
        buf.chunk(&all[..3]);
        buf.chunk(&all[3..4]);
        buf.chunk(&all[4..]);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.records(), &all[..]);
        assert_eq!(buf.into_trace(), Trace::from_records(all));
    }

    #[test]
    fn counting_sink_counts_without_storing() {
        let mut rs = recs(100);
        rs.push(BranchRecord {
            pc: 8,
            target: 80,
            taken: true,
            kind: crate::record::BranchKind::Call,
        });
        let mut c = CountingSink::default();
        for chunk in rs.chunks(7) {
            c.chunk(chunk);
        }
        assert_eq!(c.records, 101);
        assert_eq!(c.conditionals, 100);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn feed(mut sink: impl TraceSink, records: &[BranchRecord]) {
            sink.chunk(records);
        }
        let mut buf = TraceBuffer::new();
        feed(&mut buf, &recs(3));
        assert_eq!(buf.len(), 3);
    }
}
