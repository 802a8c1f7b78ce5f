//! Property-based tests for the trace substrate: the path window against a
//! naive reference model, serialization round-trips, and profile/stats
//! consistency on arbitrary traces.

use proptest::prelude::*;

use bp_trace::{
    io, BranchKind, BranchProfile, BranchRecord, InstanceTag, PathWindow, Pc, TagScheme, Trace,
    TraceStats,
};

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (
        0u64..64,      // small pc space to force instance collisions
        0u64..64,      // target
        any::<bool>(), // taken
        0u8..4,        // kind
    )
        .prop_map(|(pc, target, taken, kind)| BranchRecord {
            pc: pc * 4,
            target: target * 4,
            taken,
            kind: match kind {
                0 => BranchKind::Conditional,
                1 => BranchKind::Call,
                2 => BranchKind::Return,
                _ => BranchKind::Jump,
            },
        })
}

fn arb_trace(max: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_record(), 0..max).prop_map(Trace::from_records)
}

/// One step of a path-window workout: a record drawn mostly from a few
/// conditional sites, so instances repeat and iteration names collide
/// inside one window, and whether to `clear()` the window before it.
fn arb_window_step() -> impl Strategy<Value = (BranchRecord, bool)> {
    (0u64..8, 0u64..8, any::<bool>(), 0u8..8, 0u8..96).prop_map(|(pc, target, taken, kind, op)| {
        let rec = BranchRecord {
            pc: pc * 4,
            target: target * 4,
            taken,
            kind: match kind {
                0..=5 => BranchKind::Conditional,
                6 => BranchKind::Call,
                _ => BranchKind::Jump,
            },
        };
        (rec, op == 0)
    })
}

/// Reference implementation of the §3.2 tagging semantics: given the raw
/// list of conditional records in the window (oldest first), name every
/// instance the slow way, most recent first, with its distance.
fn reference_tags(window: &[BranchRecord]) -> Vec<(InstanceTag, bool, usize)> {
    let mut out = Vec::new();
    let mut iteration_seen: Vec<(Pc, u64)> = Vec::new();
    for (i, rec) in window.iter().enumerate().rev() {
        let later = &window[i + 1..];
        let distance = later.len() + 1;
        let occurrence = later.iter().filter(|r| r.pc == rec.pc).count() as u16;
        let backwards_since = later.iter().filter(|r| r.is_backward()).count() as u64;
        out.push((
            InstanceTag::occurrence(rec.pc, occurrence),
            rec.taken,
            distance,
        ));
        if !iteration_seen.contains(&(rec.pc, backwards_since)) {
            iteration_seen.push((rec.pc, backwards_since));
            out.push((
                InstanceTag::iteration(rec.pc, backwards_since as u16),
                rec.taken,
                distance,
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn window_matches_reference_model(steps in prop::collection::vec(arb_window_step(), 0..300), cap in 1usize..49) {
        let mut window = PathWindow::new(cap);
        let mut model: Vec<BranchRecord> = Vec::new();
        let mut plain = Vec::new();
        for (rec, clear) in &steps {
            if *clear {
                window.clear();
                model.clear();
            }
            // Query before push, like the analyses do: the exact sequence
            // (tag, outcome, distance, in order), not just the tag set.
            // The id scan names each entry by the id it was pushed with,
            // here its pc.
            let mut tags = Vec::new();
            window.scan_visible_ids(|v| {
                let pc = Pc::from(v.id);
                tags.push((InstanceTag::occurrence(pc, v.occurrence), v.taken, v.distance));
                if let Some(i) = v.iteration {
                    tags.push((InstanceTag::iteration(pc, i), v.taken, v.distance));
                }
            });
            prop_assert_eq!(&tags, &reference_tags(&model));
            window.visible_tags(&mut plain);
            prop_assert!(plain.iter().copied().eq(tags.iter().map(|&(t, o, _)| (t, o))));

            // Single lookups agree with the bulk listing.
            for &(tag, outcome, distance) in &tags {
                prop_assert_eq!(window.lookup(tag), Some(outcome));
                prop_assert_eq!(window.distance(tag), Some(distance));
            }

            window.push_with_id(rec, rec.pc as u32);
            if rec.is_conditional() {
                model.push(*rec);
                if model.len() > cap {
                    model.remove(0);
                }
            }
        }
    }

    #[test]
    fn io_roundtrip(trace in arb_trace(200)) {
        let mut buf = Vec::new();
        io::write_trace(&mut buf, &trace).expect("write never fails to a Vec");
        let back = io::read_trace(buf.as_slice()).expect("decode what we encoded");
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn truncated_stream_never_panics(trace in arb_trace(60), cut in 0usize..40) {
        let mut buf = Vec::new();
        io::write_trace(&mut buf, &trace).unwrap();
        let cut = cut.min(buf.len());
        // Must error or succeed, never panic; success only for full stream.
        let _ = io::read_trace(&buf[..buf.len() - cut]);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Errors are fine; panics and unbounded allocation are not.
        let _ = io::read_trace(bytes.as_slice());
        if let Ok(mut reader) = io::ChunkReader::new(bytes.as_slice()) {
            // Cap iteration: a frame may claim an enormous count, but a
            // short buffer must error out almost immediately.
            let mut chunk = Vec::new();
            for _ in 0..1000 {
                if !matches!(reader.next_chunk(&mut chunk), Ok(true)) {
                    break;
                }
            }
        }
    }

    #[test]
    fn stats_and_profile_agree(trace in arb_trace(300)) {
        let stats = TraceStats::of(&trace);
        let profile = BranchProfile::of(&trace);
        prop_assert_eq!(stats.dynamic_conditional, profile.dynamic_count());
        prop_assert_eq!(stats.static_conditional as usize, profile.static_count());
        let taken_sum: u64 = profile.iter().map(|(_, e)| e.taken).sum();
        prop_assert_eq!(stats.taken, taken_sum);
        // Ideal static can never beat perfection nor lose to 50% per branch.
        let acc = profile.ideal_static_accuracy();
        if profile.dynamic_count() > 0 {
            prop_assert!((0.5..=1.0).contains(&acc));
        }
    }

    #[test]
    fn window_len_never_exceeds_capacity(records in prop::collection::vec(arb_record(), 0..150), cap in 1usize..16) {
        let mut window = PathWindow::new(cap);
        for rec in &records {
            window.push(rec);
            prop_assert!(window.len() <= cap);
        }
    }

    #[test]
    fn tags_have_consistent_schemes(records in prop::collection::vec(arb_record(), 0..80)) {
        let mut window = PathWindow::new(16);
        let mut tags = Vec::new();
        for rec in &records {
            window.push(rec);
        }
        window.visible_tags(&mut tags);
        // Occurrence tags of one pc form a contiguous 0..n index range.
        for (tag, _) in &tags {
            if tag.scheme == TagScheme::Occurrence && tag.index > 0 {
                let predecessor = InstanceTag::occurrence(tag.pc, tag.index - 1);
                prop_assert!(
                    tags.iter().any(|(t, _)| *t == predecessor),
                    "occurrence {} of {:#x} present without {}",
                    tag.index, tag.pc, tag.index - 1
                );
            }
        }
    }
}
