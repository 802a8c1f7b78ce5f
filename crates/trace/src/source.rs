//! Replayable chunked trace production: the [`TraceSource`] side of the
//! streaming pipeline.
//!
//! Several analyses make more than one pass over the trace (candidate
//! collection then matrix construction; the sweep artifact's two passes).
//! A [`TraceSource`] is a trace that can be *scanned* any number of times,
//! each scan delivering the same records in the same order as bounded
//! chunks — without requiring them to ever exist as one allocation.
//! Implementors include the in-memory [`Trace`] (chunked slices of its
//! records) and the regenerating workload sources in `bp-workloads`.

use std::sync::Arc;

use crate::io::TraceIoError;
use crate::record::BranchRecord;
use crate::sink::CHUNK_RECORDS;
use crate::trace::Trace;

/// A trace that can be streamed in order, repeatedly, as bounded chunks.
///
/// Every scan must deliver exactly the same record sequence (sources are
/// deterministic replay handles, not one-shot iterators); chunk boundaries
/// are unspecified and may differ between implementations. `scan` takes
/// `&self` so one source can serve concurrent scans from multiple threads.
pub trait TraceSource {
    /// Streams the whole trace through `visit`, one chunk at a time.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] when the backing store fails or is
    /// corrupt (in-memory and regenerating sources never fail).
    fn scan(&self, visit: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError>;

    /// Number of records a scan will deliver, when cheaply known.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &T {
    fn scan(&self, visit: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
        (**self).scan(visit)
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Arc<T> {
    fn scan(&self, visit: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
        (**self).scan(visit)
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

/// An in-memory trace is trivially a source: its records, sliced into
/// [`CHUNK_RECORDS`]-sized chunks.
impl TraceSource for Trace {
    fn scan(&self, visit: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
        for chunk in self.records().chunks(CHUNK_RECORDS) {
            visit(chunk);
        }
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_scans_its_records_in_order() {
        let recs: Vec<BranchRecord> = (0..(CHUNK_RECORDS as u64 + 100))
            .map(|i| BranchRecord::conditional(i, i % 2 == 0))
            .collect();
        let trace = Trace::from_records(recs.clone());
        let mut seen = Vec::new();
        let mut chunks = 0usize;
        trace
            .scan(&mut |chunk| {
                assert!(chunk.len() <= CHUNK_RECORDS);
                chunks += 1;
                seen.extend_from_slice(chunk);
            })
            .unwrap();
        assert_eq!(seen, recs);
        assert_eq!(chunks, 2);
        assert_eq!(trace.len_hint(), Some(recs.len() as u64));
    }

    #[test]
    fn scans_are_replayable_and_work_through_refs() {
        let trace = Trace::from_records(
            (0..100u64)
                .map(|i| BranchRecord::conditional(i, true))
                .collect(),
        );
        let arc = Arc::new(trace);
        let count = |src: &dyn TraceSource| {
            let mut n = 0u64;
            src.scan(&mut |c| n += c.len() as u64).unwrap();
            n
        };
        assert_eq!(count(&arc), 100);
        assert_eq!(count(&arc), 100, "second scan replays");
        assert_eq!(count(&&*arc), 100);
    }
}
