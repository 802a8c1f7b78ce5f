//! `compress` analog: an LZW compressor (open-addressing dictionary
//! hashing) and decompressor, run on seeded Markov text with a verified
//! round trip.
//!
//! Branch profile (mirrors the original `compress`/`uncompress` hot
//! loops): the dictionary-probe hit test dominates the encode side and is
//! biased by input repetitiveness; probe-collision loops add short
//! data-dependent runs; code-width growth and table-reset tests are rare
//! and strongly biased. The decode side contributes chain-walk loops
//! whose trip counts are the match lengths — short, repetitive runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bp_trace::{Pc, Recorder, TraceSink};

use crate::{salted_seed, WorkloadConfig};

const BASE: Pc = 0x0010_0000;

// Static branch sites.
const PC_INPUT_LOOP: Pc = BASE; // backward: more input?
const PC_PROBE_HIT: Pc = BASE + 0x9e4; // dictionary probe matched
const PC_PROBE_EMPTY: Pc = BASE + 2 * 0x9e4; // probe slot empty (miss)
const PC_PROBE_LOOP: Pc = BASE + 3 * 0x9e4; // backward: keep probing
const PC_TABLE_FULL: Pc = BASE + 4 * 0x9e4; // dictionary at capacity
const PC_WIDTH_GROW: Pc = BASE + 5 * 0x9e4; // output code width must grow
const PC_FLUSH_BITS: Pc = BASE + 6 * 0x9e4; // bit buffer has a full byte
const PC_FLUSH_LOOP: Pc = BASE + 7 * 0x9e4; // backward: drain buffer
const PC_RATIO_CHECK: Pc = BASE + 8 * 0x9e4; // compression-ratio reset probe
const PC_DEC_LOOP: Pc = BASE + 9 * 0x9e4; // backward: more codes to decode?
const PC_DEC_KNOWN: Pc = BASE + 10 * 0x9e4; // code already in the table
const PC_DEC_CHAIN: Pc = BASE + 11 * 0x9e4; // backward: walk prefix chain
const PC_DEC_ROOT: Pc = BASE + 12 * 0x9e4; // chain reached a root symbol

const HASH_BITS: u32 = 12;
const HASH_SIZE: usize = 1 << HASH_BITS;
const MAX_CODES: u16 = 3000;
const ALPHABET: usize = 20;

/// Streams the compress trace into `sink`, chunk by chunk.
pub fn generate_into<S: TraceSink>(cfg: &WorkloadConfig, sink: S) -> S {
    let mut rng = StdRng::seed_from_u64(salted_seed(cfg, 0xC0));
    let mut rec = Recorder::with_sink(sink);
    while rec.conditional_len() < cfg.target_branches {
        let input = markov_text(&mut rng, 6000);
        let (codes, valid_prefix) = lzw_compress(&mut rec, &input);
        // Decompress (instrumented) and verify the round trip on the
        // prefix before any dictionary reset (resets are rare; mirroring
        // their timing exactly is the encoder's job, not the checker's).
        let decoded = lzw_decompress(&mut rec, &codes);
        assert!(
            decoded.len() >= valid_prefix && decoded[..valid_prefix] == input[..valid_prefix],
            "LZW round trip failed"
        );
    }
    rec.into_sink()
}

/// LZW decoder over the emitted code stream, instrumented. The string
/// table is the classic (prefix code, appended char) chain representation;
/// extracting a string walks the chain backwards — a short data-dependent
/// loop whose trip count is the match length.
fn lzw_decompress<S: TraceSink>(rec: &mut Recorder<S>, codes: &[u16]) -> Vec<u8> {
    let mut out = Vec::new();
    // chains[c] = (prefix code, last char); roots are the alphabet.
    let mut chains: Vec<(u16, u8)> = (0..ALPHABET as u16).map(|c| (u16::MAX, c as u8)).collect();

    /// Walks the chain for `code`, appending its string to `out`
    /// (instrumented); returns the string's first character.
    fn emit<S: TraceSink>(
        rec: &mut Recorder<S>,
        chains: &[(u16, u8)],
        code: u16,
        out: &mut Vec<u8>,
    ) -> u8 {
        let mut stack = Vec::new();
        let mut cur = code;
        loop {
            let (prefix, ch) = chains[cur as usize];
            stack.push(ch);
            if rec.cond(PC_DEC_ROOT, prefix == u16::MAX) {
                break;
            }
            cur = prefix;
            rec.loop_back(PC_DEC_CHAIN, true);
        }
        let first = *stack.last().expect("chain is never empty");
        while let Some(ch) = stack.pop() {
            out.push(ch);
        }
        first
    }

    let mut iter = codes.iter();
    let Some(&first_code) = iter.next() else {
        return out;
    };
    let mut prev = first_code;
    emit(rec, &chains, first_code, &mut out);
    let mut remaining = codes.len() - 1;
    for &code in iter {
        // The KwKwK special case: the code about to be defined.
        let known = rec.cond(PC_DEC_KNOWN, (code as usize) < chains.len());
        let first = if known {
            emit(rec, &chains, code, &mut out)
        } else {
            // KwKwK: the code being defined right now — its string is the
            // previous string plus that string's own first character.
            let f = emit(rec, &chains, prev, &mut out);
            out.push(f);
            f
        };
        if chains.len() < MAX_CODES as usize {
            chains.push((prev, first));
        }
        prev = code;
        remaining -= 1;
        rec.loop_back(PC_DEC_LOOP, remaining > 0);
    }
    out
}

/// Order-1 Markov text over a small alphabet with skewed transitions; the
/// skew is what makes dictionary probes hit often, like English text fed to
/// `compress`.
fn markov_text(rng: &mut StdRng, len: usize) -> Vec<u8> {
    // Each symbol strongly prefers a couple of successors.
    let favorites: Vec<(u8, u8)> = (0..ALPHABET)
        .map(|_| {
            (
                rng.gen_range(0..ALPHABET as u8),
                rng.gen_range(0..ALPHABET as u8),
            )
        })
        .collect();
    let mut out = Vec::with_capacity(len);
    let mut cur = rng.gen_range(0..ALPHABET as u8);
    for _ in 0..len {
        out.push(cur);
        let roll: f64 = rng.gen();
        let (fav1, fav2) = favorites[cur as usize];
        cur = if roll < 0.84 {
            fav1
        } else if roll < 0.96 {
            fav2
        } else {
            rng.gen_range(0..ALPHABET as u8)
        };
    }
    out
}

#[derive(Clone, Copy)]
struct Slot {
    key: u32, // (prefix << 8) | ch, or EMPTY
    code: u16,
}

const EMPTY: u32 = u32::MAX;

struct Dict {
    slots: Vec<Slot>,
    next_code: u16,
}

impl Dict {
    fn new() -> Self {
        Dict {
            slots: vec![
                Slot {
                    key: EMPTY,
                    code: 0
                };
                HASH_SIZE
            ],
            next_code: ALPHABET as u16,
        }
    }

    fn hash(key: u32) -> usize {
        (key.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    }

    /// Open-addressing probe, instrumented: returns the code when present.
    fn probe<S: TraceSink>(&self, rec: &mut Recorder<S>, key: u32) -> Option<u16> {
        let mut idx = Self::hash(key);
        loop {
            let slot = self.slots[idx];
            if rec.cond(PC_PROBE_EMPTY, slot.key == EMPTY) {
                return None;
            }
            if rec.cond(PC_PROBE_HIT, slot.key == key) {
                return Some(slot.code);
            }
            idx = (idx + 1) & (HASH_SIZE - 1);
            // The probe loop's back-edge: taken while colliding.
            rec.loop_back(PC_PROBE_LOOP, true);
        }
    }

    fn insert(&mut self, key: u32) {
        let mut idx = Self::hash(key);
        while self.slots[idx].key != EMPTY {
            idx = (idx + 1) & (HASH_SIZE - 1);
        }
        self.slots[idx] = Slot {
            key,
            code: self.next_code,
        };
        self.next_code += 1;
    }
}

/// Compresses `input`, returning the emitted code stream and the length of
/// the input prefix decodable without mirroring dictionary resets (the
/// whole input when no reset fired).
fn lzw_compress<S: TraceSink>(rec: &mut Recorder<S>, input: &[u8]) -> (Vec<u16>, usize) {
    let mut out_hash = 0u64;
    let mut codes: Vec<u16> = Vec::new();
    let mut valid_prefix: Option<usize> = None;
    let mut dict = Dict::new();
    let mut bitbuf = 0u32;
    let mut bits = 0u32;
    let mut width = 9u32;
    let mut emitted = 0u64;
    let mut consumed = 0u64;

    let mut iter = input.iter();
    let mut prefix = u16::from(*iter.next().expect("input is non-empty"));
    consumed += 1;

    let mut remaining = input.len() - 1;
    for &ch in iter {
        consumed += 1;
        let key = (u32::from(prefix) << 8) | u32::from(ch);
        match dict.probe(rec, key) {
            Some(code) => {
                prefix = code;
            }
            None => {
                // Emit current prefix.
                codes.push(prefix);
                bitbuf |= u32::from(prefix) << bits;
                bits += width;
                emitted += 1;
                while rec.cond(PC_FLUSH_BITS, bits >= 8) {
                    out_hash = out_hash
                        .wrapping_mul(31)
                        .wrapping_add(u64::from(bitbuf & 0xFF));
                    bitbuf >>= 8;
                    bits -= 8;
                    rec.loop_back(PC_FLUSH_LOOP, bits >= 8);
                    if bits < 8 {
                        break;
                    }
                }
                if rec.cond(PC_TABLE_FULL, dict.next_code >= MAX_CODES) {
                    // Ratio check before resetting, like compress(1).
                    let ratio_bad = emitted * 12 > consumed * 10;
                    if rec.cond(PC_RATIO_CHECK, ratio_bad) {
                        dict = Dict::new();
                        width = 9;
                        // The decoder does not mirror resets; stop
                        // verifying here.
                        valid_prefix.get_or_insert(consumed as usize - 1);
                    }
                } else {
                    dict.insert(key);
                    if rec.cond(PC_WIDTH_GROW, dict.next_code.is_power_of_two()) {
                        width += 1;
                    }
                }
                prefix = u16::from(ch);
            }
        }
        remaining -= 1;
        rec.loop_back(PC_INPUT_LOOP, remaining > 0);
    }
    // Flush the final prefix so the stream is complete; fold the residual
    // bit buffer into the (unused, but honest) output checksum.
    codes.push(prefix);
    out_hash = out_hash.wrapping_add(u64::from(bitbuf));
    std::hint::black_box(out_hash);
    (codes, valid_prefix.unwrap_or(input.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;
    use bp_trace::{Trace, TraceStats};

    fn small() -> Trace {
        Benchmark::Compress.generate(&WorkloadConfig {
            seed: 1,
            target_branches: 20_000,
        })
    }

    #[test]
    fn reaches_target_and_is_deterministic() {
        let a = small();
        let b = small();
        assert!(a.conditional_count() >= 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Benchmark::Compress.generate(&WorkloadConfig {
            seed: 1,
            target_branches: 5_000,
        });
        let b = Benchmark::Compress.generate(&WorkloadConfig {
            seed: 2,
            target_branches: 5_000,
        });
        assert_ne!(a, b);
    }

    #[test]
    fn branch_mix_is_plausible() {
        let t = small();
        let stats = TraceStats::of(&t);
        // Several distinct static sites, a healthy taken rate, and real
        // back-edges.
        assert!(stats.static_conditional >= 8, "{stats:?}");
        assert!(
            stats.taken_rate() > 0.3 && stats.taken_rate() < 0.95,
            "{stats:?}"
        );
        assert!(stats.backward > 0);
    }
}
