//! Corruption tests for the `.bps` packed-artifact store: every
//! truncation boundary, magic/kind/version flip, fingerprint mismatch,
//! and lying plane length or offset must surface as a typed
//! [`BpsError`] — never a panic, an oversized allocation, or a silently
//! wrong artifact. These port the `BPT2` guarantees in
//! `bpt2_corruption.rs` to the mmap-able bit-plane format, with the
//! extra twist that the file length is validated *before* the file is
//! handed to `mmap(2)` or sliced.

use std::io::Write;
use std::path::PathBuf;

use bp_trace::bps::{open_streams, write_streams, BpsError};
use bp_trace::sidecar::{write_atomic, Sidecar};
use bp_trace::{BranchRecord, BranchStreams, Trace};

const CONFIG: u64 = 0x5eed_cafe;

fn sample_streams() -> BranchStreams {
    let recs: Vec<BranchRecord> = (0..4000u64)
        .map(|i| BranchRecord::conditional(0x10 + (i % 13) * 8, (i / (1 + i % 5)) % 2 == 0))
        .collect();
    BranchStreams::of(&Trace::from_records(recs))
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bps-corruption-{}-{name}.bps", std::process::id()));
    p
}

/// Writes the sample artifact and returns its raw bytes alongside the
/// path, leaving a valid sidecar in place.
fn written(name: &str) -> (PathBuf, Vec<u8>) {
    let path = temp_path(name);
    write_streams(&path, &sample_streams(), CONFIG).expect("write artifact");
    let bytes = std::fs::read(&path).expect("read artifact back");
    (path, bytes)
}

fn cleanup(path: &PathBuf) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(Sidecar::path_for(path)).ok();
}

#[test]
fn pristine_artifact_round_trips() {
    let (path, bytes) = written("pristine");
    assert!(bytes.len().is_multiple_of(8));
    let opened = open_streams(&path, CONFIG).expect("open");
    assert_eq!(opened.streams, sample_streams());
    cleanup(&path);
}

#[test]
fn failed_overwrite_leaves_the_old_artifact_openable() {
    let (path, bytes) = written("failed-overwrite");
    // An overwrite that runs out of disk after 1 MiB.
    let err = write_atomic(&path, |out| -> std::io::Result<()> {
        out.write_all(&vec![0u8; 1 << 20])?;
        Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "disk full",
        ))
    })
    .expect_err("the overwrite fails");
    assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    assert_eq!(std::fs::read(&path).expect("old artifact"), bytes);
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(!PathBuf::from(tmp).exists(), "the tmp file is removed");
    let opened = open_streams(&path, CONFIG).expect("the old artifact still opens");
    assert_eq!(opened.streams, sample_streams());
    cleanup(&path);
}

#[test]
fn every_truncation_boundary_is_a_typed_error() {
    let (path, bytes) = written("truncation");
    // Every proper prefix must fail with a typed error: prefixes that are
    // not whole words fail the pre-mmap length check, whole-word prefixes
    // fail the declared-length or structure checks.
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).expect("write truncated");
        let err = open_streams(&path, CONFIG).expect_err("truncated artifact must not open");
        assert!(!err.to_string().is_empty(), "cut at {cut}");
        assert!(
            matches!(
                err,
                BpsError::Truncated(_) | BpsError::Corrupt(_) | BpsError::Io(_)
            ),
            "cut at {cut} gave {err:?}"
        );
    }
    // The untruncated artifact still opens (the loop really did exercise
    // proper prefixes of a valid file).
    std::fs::write(&path, &bytes).expect("restore");
    assert!(open_streams(&path, CONFIG).is_ok());
    cleanup(&path);
}

#[test]
fn every_magic_and_version_flip_is_rejected() {
    let (path, bytes) = written("magic");
    // Bytes 0..4 are the magic (a "BPS2" version flip lands here); byte 4
    // is the kind; bytes 5..8 are reserved and must be zero.
    for byte in 0..8 {
        for flip in [0x01u8, 0x20, 0xff] {
            let mut bad = bytes.clone();
            bad[byte] ^= flip;
            std::fs::write(&path, &bad).expect("write");
            let err = open_streams(&path, CONFIG).expect_err("flipped header must not open");
            assert!(
                matches!(err, BpsError::BadMagic | BpsError::WrongKind),
                "byte {byte} ^ {flip:#04x} gave {err:?}"
            );
        }
    }
    cleanup(&path);
}

#[test]
fn wrong_kind_byte_is_wrong_kind() {
    let (path, mut bytes) = written("kind");
    bytes[4] = bp_trace::bps::MATRIX_KIND; // a matrix where streams were expected
    std::fs::write(&path, &bytes).expect("write");
    // Flipping the kind changes the header word, so either error order
    // would be sound; the kind check runs before the fingerprint.
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::WrongKind)
    ));
    cleanup(&path);
}

#[test]
fn fingerprint_mismatches_are_typed() {
    let (path, _) = written("fingerprint");
    // Wrong question: the config fingerprint differs.
    assert!(matches!(
        open_streams(&path, CONFIG ^ 1),
        Err(BpsError::ConfigMismatch)
    ));
    // Rotten sidecar content hash.
    Sidecar {
        config: CONFIG,
        content: 0xbad,
    }
    .write(&path)
    .expect("write sidecar");
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::ContentMismatch)
    ));
    // Missing or malformed sidecar.
    std::fs::remove_file(Sidecar::path_for(&path)).expect("remove sidecar");
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::Sidecar(_))
    ));
    std::fs::write(Sidecar::path_for(&path), "bpfp9 0 0\n").expect("future sidecar");
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::Sidecar(_))
    ));
    cleanup(&path);
}

#[test]
fn lying_plane_lengths_and_offsets_are_corrupt() {
    let (path, bytes) = written("lying-index");
    let word =
        |i: usize| -> u64 { u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap()) };
    let patch = |i: usize, v: u64| -> Vec<u8> {
        let mut bad = bytes.clone();
        bad[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        bad
    };
    let branch_count = word(2) as usize;
    assert!(branch_count >= 2, "sample artifact has several branches");

    // Inflate the first stream's bit length: the next entry's offset no
    // longer matches, or (for the last entry) the file is too short.
    for entry in [0usize, branch_count - 1] {
        let len_at = 4 + 3 * entry + 1;
        std::fs::write(&path, patch(len_at, word(len_at) + 64)).expect("write");
        let err = open_streams(&path, CONFIG).expect_err("lying length must not open");
        assert!(
            matches!(err, BpsError::Corrupt(_) | BpsError::Truncated(_)),
            "entry {entry} gave {err:?}"
        );
    }
    // A huge length must fail cleanly (overflow-checked), not allocate.
    let len_at = 4 + 3 * (branch_count - 1) + 1;
    std::fs::write(&path, patch(len_at, u64::MAX - 7)).expect("write");
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::Corrupt(_) | BpsError::Truncated(_))
    ));

    // A shifted plane offset breaks the running-offset check.
    let off_at = 4 + 3 + 2; // one 3-word index entry, then the offset word
    std::fs::write(&path, patch(off_at, word(off_at) + 1)).expect("write");
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::Corrupt(_))
    ));

    // An unsorted index is rejected (it would also break merge keys).
    let pc_at = 4 + 3;
    std::fs::write(&path, patch(pc_at, word(4))).expect("write");
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::Corrupt(_))
    ));

    // A lying declared total length is caught against the real file.
    std::fs::write(&path, patch(1, word(1) + 8)).expect("write");
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::Corrupt(_))
    ));

    // A lying dynamic total is caught against the summed stream lengths.
    std::fs::write(&path, patch(3, word(3) + 1)).expect("write");
    assert!(matches!(
        open_streams(&path, CONFIG),
        Err(BpsError::Corrupt(_))
    ));
    cleanup(&path);
}

#[test]
fn single_byte_mutations_never_panic_and_errors_render() {
    let (path, bytes) = written("mutations");
    // Step through the file (every byte for the header and index, strided
    // through the plane area) flipping bits; any outcome except a panic
    // is acceptable, and errors must have a message. Plane-area flips are
    // caught structurally only when they hit padding bits — the content
    // fingerprint deliberately covers the header+index, with the planes'
    // integrity riding on the length/offset/padding checks, exactly like
    // the record-count stand-in of `.bpt2` sidecars.
    let header_end = (4 + 3 * (u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize)) * 8;
    let positions: Vec<usize> = (0..header_end)
        .chain((header_end..bytes.len()).step_by(97))
        .collect();
    for pos in positions {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = bytes.clone();
            bad[pos] ^= flip;
            std::fs::write(&path, &bad).expect("write");
            match open_streams(&path, CONFIG) {
                Ok(opened) => drop(opened),
                Err(e) => assert!(!e.to_string().is_empty(), "pos {pos} flip {flip:#04x}"),
            }
        }
    }
    cleanup(&path);
}

#[test]
fn header_mutations_never_open_silently() {
    let (path, bytes) = written("header-strict");
    // Within the fingerprinted header+index region every flip MUST be
    // rejected — the content hash covers these bytes.
    let header_end = (4 + 3 * (u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize)) * 8;
    for pos in 0..header_end {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xff;
        std::fs::write(&path, &bad).expect("write");
        assert!(
            open_streams(&path, CONFIG).is_err(),
            "header byte {pos} flipped but the artifact still opened"
        );
    }
    cleanup(&path);
}

#[test]
fn padding_bits_past_stream_length_are_corrupt() {
    let (path, bytes) = written("padding");
    let word =
        |i: usize| -> u64 { u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap()) };
    let branch_count = word(2) as usize;
    // Find a stream whose length is not word-aligned and set a bit past
    // its declared end.
    let mut patched = false;
    for entry in 0..branch_count {
        let len = word(4 + 3 * entry + 1);
        let off = word(4 + 3 * entry + 2);
        if len % 64 != 0 {
            let last_word = (off + len.div_ceil(64) - 1) as usize;
            let mut bad = bytes.clone();
            bad[last_word * 8..last_word * 8 + 8]
                .copy_from_slice(&(word(last_word) | (1u64 << 63)).to_le_bytes());
            std::fs::write(&path, &bad).expect("write");
            assert!(
                matches!(open_streams(&path, CONFIG), Err(BpsError::Corrupt(_))),
                "entry {entry}"
            );
            patched = true;
            break;
        }
    }
    assert!(patched, "sample artifact has an unaligned stream");
    cleanup(&path);
}

#[test]
fn tiny_and_empty_files_error_cleanly() {
    let path = temp_path("tiny");
    Sidecar {
        config: CONFIG,
        content: 0,
    }
    .write(&path)
    .expect("sidecar");
    for bytes in [
        &b""[..],
        b"B",
        b"BPS1",
        b"BPS1\x01\x00\x00",
        b"BPS1\x01\x00\x00\x00",
    ] {
        std::fs::write(&path, bytes).expect("write");
        let err = open_streams(&path, CONFIG).expect_err("tiny file must not open");
        assert!(
            matches!(err, BpsError::Truncated(_)),
            "{} bytes",
            bytes.len()
        );
    }
    cleanup(&path);
}
