//! Property-based tests for the trace substrate: the path window against a
//! naive reference model, serialization round-trips, and profile/stats
//! consistency on arbitrary traces.

use proptest::prelude::*;

use bp_trace::{
    io, BranchKind, BranchProfile, BranchRecord, InstanceTag, PathWindow, Pc, TagScheme, Trace,
    TraceStats, WindowNamer, WindowSymbol,
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

/// A program-like trace: straight-line code over up to 300 static
/// conditionals (dense ids past 256 in half the traces), jumps back a few
/// sites so pcs recur at every distance, a back-edge at every eighth
/// site, and call, return and jump records at pcs of their own.
fn arb_program_trace() -> impl Strategy<Value = Vec<BranchRecord>> {
    let step = (0u8..32, 1u64..=8, any::<bool>());
    let statics = (any::<bool>(), 1u64..=300, 257u64..=300);
    (statics, prop::collection::vec(step, 1..500)).prop_map(|(statics, steps)| {
        let statics = if statics.0 { statics.2 } else { statics.1 };
        let mut at = 0u64;
        steps
            .into_iter()
            .map(|(roll, back, taken)| {
                at = if roll == 0 {
                    at.saturating_sub(back)
                } else {
                    (at + 1) % statics
                };
                let pc = 0x1000 + at * 4;
                let kind = match roll {
                    1 => BranchKind::Call,
                    2 => BranchKind::Return,
                    3 => BranchKind::Jump,
                    _ => BranchKind::Conditional,
                };
                match kind {
                    BranchKind::Conditional if at % 8 == 7 => {
                        BranchRecord::conditional(pc, taken).with_target(0x1000)
                    }
                    BranchKind::Conditional => BranchRecord::conditional(pc, taken),
                    _ => BranchRecord {
                        pc: pc + 0x8000,
                        target: pc,
                        taken: true,
                        kind,
                    },
                }
            })
            .collect()
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

/// Names `window` (oldest first) as a stored window whose symbols' ids
/// are their pcs, expanded into `(tag, outcome, distance)`.
fn stored_tags(
    namer: &mut WindowNamer,
    window: &[BranchRecord],
) -> Vec<(InstanceTag, bool, usize)> {
    let symbols: Vec<WindowSymbol> = window
        .iter()
        .map(|rec| WindowSymbol::new(rec.pc as u32, rec.taken, rec.is_backward()))
        .collect();
    let mut out = Vec::new();
    namer.name(&symbols, |v| {
        let pc = Pc::from(v.id);
        out.push((
            InstanceTag::occurrence(pc, v.occurrence),
            v.taken,
            v.distance,
        ));
        if let Some(i) = v.iteration {
            out.push((InstanceTag::iteration(pc, i), v.taken, v.distance));
        }
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn window_matches_reference_model(steps in prop::collection::vec(arb_window_step(), 0..300), cap in 1usize..49) {
        let mut window = PathWindow::new(cap);
        let mut model: Vec<BranchRecord> = Vec::new();
        let mut namer = WindowNamer::default();
        let mut plain = Vec::new();
        for (rec, clear) in &steps {
            if *clear {
                window.clear();
                model.clear();
            }
            // Query before push, like the analyses do: the exact sequence
            // (tag, outcome, distance, in order), not just the tag set.
            // The stored window names each symbol by its id, here its pc.
            let tags = stored_tags(&mut namer, &model);
            prop_assert_eq!(&tags, &reference_tags(&model));
            window.visible_tags(&mut plain);
            prop_assert!(plain.iter().copied().eq(tags.iter().map(|&(t, o, _)| (t, o))));

            // Single lookups agree with the bulk listing.
            for &(tag, outcome, distance) in &tags {
                prop_assert_eq!(window.lookup(tag), Some(outcome));
                prop_assert_eq!(window.distance(tag), Some(distance));
            }

            window.push(rec);
            if rec.is_conditional() {
                model.push(*rec);
                if model.len() > cap {
                    model.remove(0);
                }
            }
        }
    }

    /// The stored-window naming the candidate/matrix builder uses agrees
    /// with a live `PathWindow` at every position of a program-like trace:
    /// many pcs under dense ids, windows up to 300, backward and
    /// non-conditional records.
    #[test]
    fn stored_window_naming_matches_the_path_window(
        trace in arb_program_trace(),
        cap in 1usize..=300,
    ) {
        let mut window = PathWindow::new(cap);
        let mut ids = std::collections::HashMap::new();
        let mut pcs = Vec::new();
        let mut symbols: Vec<WindowSymbol> = Vec::new();
        let mut namer = WindowNamer::default();
        let mut plain = Vec::new();
        for rec in &trace {
            window.visible_tags(&mut plain);
            let start = symbols.len().saturating_sub(cap);
            let mut named = Vec::new();
            namer.name(&symbols[start..], |v| {
                let pc = pcs[v.id as usize];
                named.push((InstanceTag::occurrence(pc, v.occurrence), v.taken, v.distance));
                if let Some(i) = v.iteration {
                    named.push((InstanceTag::iteration(pc, i), v.taken, v.distance));
                }
            });
            prop_assert!(plain.iter().copied().eq(named.iter().map(|&(t, o, _)| (t, o))));
            for &(tag, _, distance) in &named {
                prop_assert_eq!(window.distance(tag), Some(distance));
            }
            window.push(rec);
            if rec.is_conditional() {
                let next = pcs.len() as u32;
                let id = *ids.entry(rec.pc).or_insert(next);
                if id == next {
                    pcs.push(rec.pc);
                }
                symbols.push(WindowSymbol::new(id, rec.taken, rec.is_backward()));
            }
        }
    }

    /// A window's names depend on its last n records alone: two histories
    /// that end in the same n records name identically, which is what
    /// lets the builder name each distinct window once.
    #[test]
    fn windows_ending_alike_name_alike(
        first in prop::collection::vec(arb_window_step(), 0..200),
        second in prop::collection::vec(arb_window_step(), 0..200),
        tail in prop::collection::vec(arb_window_step(), 64..128),
        cap in 1usize..=64,
    ) {
        // Every tail record is conditional, so the tail fills the window.
        let tail: Vec<BranchRecord> = tail
            .iter()
            .map(|&(rec, _)| BranchRecord { kind: BranchKind::Conditional, ..rec })
            .collect();
        let named = |history: &[(BranchRecord, bool)]| {
            let mut window = PathWindow::new(cap);
            for rec in history.iter().map(|(rec, _)| rec).chain(&tail) {
                window.push(rec);
            }
            let mut tags = Vec::new();
            window.visible_tags(&mut tags);
            tags
        };
        let a = named(&first);
        prop_assert_eq!(&a, &named(&second));
        let mut namer = WindowNamer::default();
        let stored = stored_tags(&mut namer, &tail[tail.len() - cap..]);
        prop_assert!(a.iter().copied().eq(stored.iter().map(|&(t, o, _)| (t, o))));
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
