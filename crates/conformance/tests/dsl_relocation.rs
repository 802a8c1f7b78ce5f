//! Pins the `bp_trace::script` DSL across its relocation out of this
//! crate: the canned conformance cases must keep producing the exact
//! traces they produced when the DSL lived in `gen.rs` (fingerprints
//! below were captured from that code; `calls-jumps-returns`, spliced
//! from records, from its first build), and every spec of the corpus's
//! own random distribution must build to exactly its declared length.

use bp_conformance::corpus;
use bp_conformance::gen::random_specs;
use bp_trace::BranchRecord;

/// FNV-1a over every field of every record — any reordering, dropped
/// record, or flipped outcome moves it.
fn fingerprint(records: &[BranchRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(&r.pc.to_le_bytes());
        eat(&r.target.to_le_bytes());
        eat(&[u8::from(r.taken)]);
        eat(format!("{:?}", r.kind).as_bytes());
    }
    h
}

#[test]
fn canned_cases_fingerprints_are_unchanged_by_the_relocation() {
    let expected: &[(&str, u64)] = &[
        ("run-crossing-words", 0x554e291c68ced285),
        ("trip-cap-254", 0x73b5fe633076a911),
        ("trip-cap-255", 0xaf3f2f5fe0b3384c),
        ("trip-cap-256", 0x83bc3722dc6e71a1),
        ("ring-capacity-63", 0x9c3bf414bd2e2135),
        ("ring-capacity-64", 0xf0d12f57be373f25),
        ("ring-capacity-65", 0xce7817c05d46b65d),
        ("word-boundary-flip", 0x733eaeed6a283155),
        ("tiny-1", 0x25d7358935e0aa49),
        ("tiny-64", 0xfc6095ba15defd25),
        ("tiny-65", 0xb0b9bd850941e449),
        ("aliasing-low-bits", 0x90801098ef849f5),
        ("correlated-copy", 0x57aa0d2b413ca0e5),
        ("calls-jumps-returns", 0x4d4629a1cb4d6f05),
    ];
    let canned: Vec<_> = corpus(0, 0).collect();
    assert_eq!(canned.len(), expected.len());
    for (case, &(name, fp)) in canned.iter().zip(expected) {
        assert_eq!(case.name, name);
        assert_eq!(
            fingerprint(case.trace.records()),
            fp,
            "canned case '{name}' changed bytes",
        );
    }
}

#[test]
fn random_specs_build_to_their_total_len() {
    for (i, spec) in random_specs(0xD51, 40).iter().enumerate() {
        assert_eq!(
            spec.build().records().len(),
            spec.total_len(),
            "spec {i}: length"
        );
    }
}

#[test]
fn random_specs_are_seed_deterministic() {
    let a = random_specs(7, 8);
    let b = random_specs(7, 8);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            fingerprint(x.build().records()),
            fingerprint(y.build().records())
        );
    }
    let c = random_specs(8, 8);
    assert!(
        a.iter()
            .zip(&c)
            .any(|(x, y)| fingerprint(x.build().records()) != fingerprint(y.build().records())),
        "different seeds should draw different specs"
    );
}
