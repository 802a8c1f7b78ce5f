//! Corruption tests for the chunk-framed `BPT2` trace format: every
//! truncation point, every magic corruption, hostile frame counts,
//! single-byte mutations, and hostile file tails must all surface as
//! typed [`TraceIoError`]s — never a panic, a hang, an oversized
//! allocation, or a silently wrong trace. They cover the whole-trace
//! [`read_trace`], the streaming [`ChunkReader`] and the windowed
//! [`FileTraceSource`].

use std::path::PathBuf;

use bp_trace::io::{read_trace, ChunkReader, ChunkWriter, FileTraceSource, TraceIoError};
use bp_trace::{BranchKind, BranchRecord, Trace, TraceSink, TraceSource, CHUNK_RECORDS};

/// A small but varied trace: different kinds, forward and backward
/// targets, and multi-byte varint pcs.
fn sample_trace() -> Trace {
    Trace::from_records(vec![
        BranchRecord::conditional(0x1000, true),
        BranchRecord::conditional(0x1004, false).with_target(0x0ff0),
        BranchRecord {
            pc: 0x2000,
            target: 0x2_0000,
            taken: true,
            kind: BranchKind::Call,
        },
        BranchRecord {
            pc: 0x2_0008,
            target: 0x2004,
            taken: true,
            kind: BranchKind::Return,
        },
        BranchRecord {
            pc: u64::MAX - 7,
            target: 0x40,
            taken: false,
            kind: BranchKind::Jump,
        },
    ])
}

/// Encodes `trace` as a `BPT2` stream, one frame per `chunk` records.
fn encode_chunked(trace: &Trace, chunk: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer = ChunkWriter::new(&mut buf).expect("encoding to a Vec cannot fail");
    for frame in trace.records().chunks(chunk) {
        writer.chunk(frame);
    }
    writer.finish().expect("encoding to a Vec cannot fail");
    buf
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "bpt2-corruption-{}-{name}.bpt2",
        std::process::id()
    ));
    p
}

#[test]
fn every_truncation_point_is_a_typed_error() {
    for frame in [2, 5] {
        let full = encode_chunked(&sample_trace(), frame);
        // Cutting the stream anywhere before the end must produce a typed
        // error — the footer is the last byte, so every proper prefix is
        // missing at least the end-of-stream structure.
        for cut in 0..full.len() {
            let err = read_trace(&full[..cut]).expect_err("truncated stream must not decode");
            match err {
                TraceIoError::Io(e) => {
                    assert_eq!(
                        e.kind(),
                        std::io::ErrorKind::UnexpectedEof,
                        "cut at {cut} gave unexpected io error {e}"
                    );
                }
                TraceIoError::BadMagic | TraceIoError::Corrupt(_) => {}
            }
        }
        // The untruncated stream still decodes (the loop above really did
        // exercise proper prefixes of a valid encoding).
        assert_eq!(
            read_trace(full.as_slice()).expect("full stream"),
            sample_trace()
        );
    }
}

#[test]
fn every_magic_corruption_is_bad_magic() {
    let full = encode_chunked(&sample_trace(), 5);
    for byte in 0..4 {
        for flip in 1..=255u8 {
            let mut bad = full.clone();
            bad[byte] ^= flip;
            assert!(
                matches!(read_trace(bad.as_slice()), Err(TraceIoError::BadMagic)),
                "corrupting magic byte {byte} with ^{flip:#04x} must be BadMagic"
            );
        }
    }
}

#[test]
fn hostile_frame_count_errors_without_overallocating() {
    // Magic + a frame claiming u64::MAX records, then nothing: the reader
    // must cap its reservation and fail fast on the missing bytes.
    let mut buf = b"BPT2".to_vec();
    buf.extend_from_slice(&[0xff; 9]);
    buf.push(0x01); // 10-byte varint = u64::MAX
    let mut reader = ChunkReader::new(buf.as_slice()).expect("magic parses");
    let mut chunk = Vec::new();
    match reader.next_chunk(&mut chunk) {
        Err(TraceIoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected truncation error, got {other:?}"),
    }
    assert!(
        chunk.capacity() <= CHUNK_RECORDS,
        "hostile count must not drive allocation past one chunk \
         (capacity {})",
        chunk.capacity()
    );
    // The failed reader is poisoned: later calls repeat a typed error
    // instead of fabricating a clean end of stream.
    assert!(matches!(
        reader.next_chunk(&mut chunk),
        Err(TraceIoError::Corrupt(_))
    ));
}

#[test]
fn overlong_varint_in_frame_header_is_corrupt() {
    let mut buf = b"BPT2".to_vec();
    buf.extend_from_slice(&[0x80; 10]);
    buf.push(0x00); // 11 continuation-ish bytes: varint too long
    assert!(matches!(
        read_trace(buf.as_slice()),
        Err(TraceIoError::Corrupt(_))
    ));
}

#[test]
fn invalid_kind_codes_are_corrupt_not_panic() {
    // Encode one record, then force its flags byte to each invalid kind.
    let trace = Trace::from_records(vec![BranchRecord::conditional(0x10, false)]);
    let full = encode_chunked(&trace, 1);
    let flags_at = 4 + 1; // magic + 1-byte frame count varint
    for kind_code in 4..=127u8 {
        let mut bad = full.clone();
        bad[flags_at] = kind_code << 1;
        match read_trace(bad.as_slice()) {
            Err(TraceIoError::Corrupt(what)) => assert!(!what.is_empty()),
            other => panic!("kind code {kind_code} must be Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn lying_footer_is_corrupt() {
    let mut full = encode_chunked(&sample_trace(), 5);
    let last = full.len() - 1;
    full[last] = full[last].wrapping_add(1); // footer now disagrees
    match read_trace(full.as_slice()) {
        Err(TraceIoError::Corrupt(what)) => assert!(what.contains("footer")),
        other => panic!("footer mismatch must be Corrupt, got {other:?}"),
    }
}

#[test]
fn unfinished_writer_leaves_a_rejected_stream() {
    // A crashed run drops the writer without `finish`: no end marker, no
    // footer. Readers must reject the stream rather than trust it.
    let mut buf = Vec::new();
    let writer = ChunkWriter::new(&mut buf).expect("magic write");
    let mut writer = writer;
    writer.chunk(sample_trace().records());
    drop(writer);
    match read_trace(buf.as_slice()) {
        Err(TraceIoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("unfinished stream must be a truncation error, got {other:?}"),
    }
}

#[test]
fn single_byte_mutations_never_panic_and_errors_are_typed() {
    let full = encode_chunked(&sample_trace(), 2);
    for pos in 0..full.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = full.clone();
            bad[pos] ^= flip;
            // Any outcome is fine except a panic; errors must render.
            match read_trace(bad.as_slice()) {
                Ok(_) => {}
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
    }
}

#[test]
fn mid_stream_cut_yields_clean_prefix_then_poison() {
    let trace = Trace::from_records(
        (0..16)
            .map(|i| BranchRecord::conditional(0x100 + i * 4, i % 2 == 0))
            .collect(),
    );
    let full = encode_chunked(&trace, 4);
    // Cutting two bytes removes the end marker and footer but leaves every
    // record frame intact; cutting three also clips the last record
    // mid-varint, which costs its whole frame.
    for (cut, intact) in [(2, 16), (3, 12)] {
        let clipped = &full[..full.len() - cut];
        let mut reader = ChunkReader::new(clipped).expect("magic intact");
        let mut decoded = Vec::new();
        let mut chunk = Vec::new();
        let err = loop {
            match reader.next_chunk(&mut chunk) {
                Ok(true) => decoded.extend_from_slice(&chunk),
                Ok(false) => panic!("clipped stream must not end cleanly"),
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            TraceIoError::Io(_) | TraceIoError::Corrupt(_)
        ));
        assert_eq!(decoded, trace.records()[..intact], "intact frames decode");
        assert!(
            matches!(reader.next_chunk(&mut chunk), Err(TraceIoError::Corrupt(_))),
            "reader stays poisoned"
        );
    }
}

#[test]
fn empty_and_tiny_streams_error_cleanly() {
    for bytes in [&b""[..], b"B", b"BP", b"BPT", b"BPT2", b"BPT2\x00"] {
        let err = read_trace(bytes).expect_err("incomplete stream");
        assert!(!err.to_string().is_empty());
        if let TraceIoError::Io(e) = &err {
            assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
        }
    }
}

#[test]
fn file_source_rejects_hostile_tails_on_open() {
    let full = encode_chunked(&sample_trace(), 2);
    let path = temp_path("hostile-tails");

    // A pristine file opens and reports the exact record count.
    std::fs::write(&path, &full).expect("write");
    let source = FileTraceSource::open(&path).expect("valid file opens");
    assert_eq!(source.len(), 5);
    assert!(!source.is_empty());
    assert_eq!(source.len_hint(), Some(5));
    assert_eq!(source.path(), path.as_path());

    // Magic flips are BadMagic.
    let mut bad = full.clone();
    bad[0] ^= 0x20;
    std::fs::write(&path, &bad).expect("write");
    assert!(matches!(
        FileTraceSource::open(&path),
        Err(TraceIoError::BadMagic)
    ));

    // Every truncation is rejected: usually up front at open (the end
    // marker + footer are gone), but record bytes can accidentally end in
    // `0x00, small-varint` and impersonate a tail — those must then fail
    // the scan instead, since the writer never emits empty frames and so
    // the first zero frame count a reader meets is the true end marker.
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).expect("write");
        match FileTraceSource::open(&path) {
            Err(e) => assert!(!e.to_string().is_empty()),
            Ok(source) => {
                let res = source.scan(&mut |_| {});
                assert!(
                    res.is_err(),
                    "cut at {cut} decoded cleanly from a truncated file"
                );
            }
        }
    }

    // An unterminated footer varint (high bit set on the last byte) is
    // Corrupt, not a wild length.
    let mut bad = full.clone();
    let last = bad.len() - 1;
    bad[last] |= 0x80;
    std::fs::write(&path, &bad).expect("write");
    assert!(matches!(
        FileTraceSource::open(&path),
        Err(TraceIoError::Corrupt(_))
    ));

    // A tail whose end marker byte is nonzero is Corrupt.
    let mut bad = full.clone();
    let marker = bad.len() - 2; // single-byte footer ⇒ marker just before
    assert_eq!(bad[marker], 0, "test encoding has a one-byte footer");
    bad[marker] = 0x07;
    std::fs::write(&path, &bad).expect("write");
    assert!(matches!(
        FileTraceSource::open(&path),
        Err(TraceIoError::Corrupt(_))
    ));

    std::fs::remove_file(&path).ok();
}

#[test]
fn file_source_surfaces_body_corruption_during_scan() {
    // Open only validates the tail; rot in the middle of the file must
    // surface as a typed scan error, not a panic or silent truncation.
    let trace = Trace::from_records(
        (0..256)
            .map(|i| BranchRecord::conditional(0x400 + i * 4, i % 3 == 0))
            .collect(),
    );
    let full = encode_chunked(&trace, 32);
    let mut bad = full.clone();
    bad[full.len() / 2] = 0xff; // clobber a record mid-file
    let path = temp_path("body-rot");
    std::fs::write(&path, &bad).expect("write");
    let source = FileTraceSource::open(&path).expect("tail still validates");
    let mut seen = 0u64;
    let err = source
        .scan(&mut |chunk| seen += chunk.len() as u64)
        .expect_err("body corruption must fail the scan");
    assert!(!err.to_string().is_empty());
    assert!(seen < trace.records().len() as u64);

    // The pristine file scans back byte-identically through the window.
    std::fs::write(&path, &full).expect("write");
    let source = FileTraceSource::open(&path).expect("valid file opens");
    let mut records = Vec::new();
    source
        .scan(&mut |chunk| records.extend_from_slice(chunk))
        .expect("valid scan");
    assert_eq!(records, trace.records());
    std::fs::remove_file(&path).ok();
}
