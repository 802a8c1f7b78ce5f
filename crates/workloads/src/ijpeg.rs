//! `ijpeg` analog: a block image coder — 8×8 DCT-ish transform, quantize,
//! zigzag run-length encode.
//!
//! Branch profile: dominated by *regular nested loops* with fixed trip
//! counts (8-wide rows/columns, block grids) — prime PAs territory — plus a
//! biased quantize-to-zero test whose bias tracks frequency position within
//! the block, giving strong repeating patterns. This is why PAs beats
//! gshare on ijpeg in the paper (Table 3 vs Table 2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bp_trace::{Pc, Recorder, TraceSink};

use crate::{salted_seed, WorkloadConfig};

const BASE: Pc = 0x0040_0000;

const PC_BLOCK_LOOP: Pc = BASE;
const PC_ROW_LOOP: Pc = BASE + 0x9e4;
const PC_COL_LOOP: Pc = BASE + 2 * 0x9e4;
const PC_QUANT_ZERO: Pc = BASE + 3 * 0x9e4;
const PC_DC_DIFF_NEG: Pc = BASE + 4 * 0x9e4;
const PC_RUN_EXTEND: Pc = BASE + 5 * 0x9e4;
const PC_RUN_LOOP: Pc = BASE + 6 * 0x9e4;
const PC_EOB: Pc = BASE + 7 * 0x9e4;
const PC_SMOOTH_BLOCK: Pc = BASE + 8 * 0x9e4;
const PC_CLAMP_HI: Pc = BASE + 9 * 0x9e4;
const PC_CLAMP_LO: Pc = BASE + 10 * 0x9e4;
const PC_SCAN_LOOP: Pc = BASE + 11 * 0x9e4;
const PC_HUFF_LONG: Pc = BASE + 12 * 0x9e4;

const BLOCK: usize = 8;

/// A synthetic "photograph": smooth gradients plus textured regions, so
/// blocks vary between trivially-compressible and detail-heavy.
fn make_image(rng: &mut StdRng, w: usize, h: usize) -> Vec<i32> {
    let gx = rng.gen_range(-3..=3);
    let gy = rng.gen_range(-3..=3);
    let mut img = vec![0i32; w * h];
    for y in 0..h {
        for x in 0..w {
            // Texture regions are *structured* (stripes), so detail
            // blocks produce repeating coefficient patterns; a little
            // sensor noise sits on top.
            let texture = if (x / 16 + y / 16) % 4 == 0 {
                ((x * 7 + y * 3) % 5) as i32 * 18 - 36 + rng.gen_range(-9..=9)
            } else {
                0
            };
            img[y * w + x] = 128 + gx * x as i32 / 4 + gy * y as i32 / 4 + texture;
        }
    }
    img
}

/// A cheap separable "DCT": row/column Haar-like butterflies. Not a real
/// DCT, but it concentrates smooth-block energy in low coefficients the
/// same way, which is all the branch behavior depends on.
fn transform<S: TraceSink>(rec: &mut Recorder<S>, block: &mut [i32; BLOCK * BLOCK]) {
    for r in 0..BLOCK {
        for step in 0..3 {
            let half = BLOCK >> (step + 1);
            for i in 0..half {
                let a = block[r * BLOCK + i];
                let b = block[r * BLOCK + i + half];
                block[r * BLOCK + i] = a + b;
                block[r * BLOCK + i + half] = a - b;
            }
            rec.loop_back(PC_SCAN_LOOP, step < 2);
        }
        rec.loop_back(PC_ROW_LOOP, r + 1 < BLOCK);
    }
    for c in 0..BLOCK {
        for step in 0..3 {
            let half = BLOCK >> (step + 1);
            for i in 0..half {
                let a = block[i * BLOCK + c];
                let b = block[(i + half) * BLOCK + c];
                block[i * BLOCK + c] = a + b;
                block[(i + half) * BLOCK + c] = a - b;
            }
        }
        rec.loop_back(PC_COL_LOOP, c + 1 < BLOCK);
    }
}

fn encode_block<S: TraceSink>(
    rec: &mut Recorder<S>,
    block: &mut [i32; BLOCK * BLOCK],
    prev_dc: &mut i32,
) {
    transform(rec, block);

    // Quantize: divisor grows with frequency (position in block).
    let mut quantized = [0i32; BLOCK * BLOCK];
    let mut nonzero = 0;
    for (idx, q) in quantized.iter_mut().enumerate() {
        let (r, c) = (idx / BLOCK, idx % BLOCK);
        let divisor = 14 + 11 * (r + c) as i32;
        let v = block[idx] / divisor;
        // The workhorse branch: high-frequency coefficients quantize to
        // zero most of the time; low frequencies rarely do.
        if rec.cond(PC_QUANT_ZERO, v == 0) {
            *q = 0;
        } else {
            let clamped_hi = rec.cond(PC_CLAMP_HI, v > 127);
            let clamped_lo = rec.cond(PC_CLAMP_LO, v < -128);
            *q = if clamped_hi {
                127
            } else if clamped_lo {
                -128
            } else {
                v
            };
            nonzero += 1;
        }
    }

    // DC difference coding.
    let dc = quantized[0];
    rec.cond(PC_DC_DIFF_NEG, dc < *prev_dc);
    *prev_dc = dc;

    rec.cond(PC_SMOOTH_BLOCK, nonzero <= 4);

    // Zigzag run-length encode: runs of zeros between nonzero coefficients.
    let mut i = 1;
    while i < BLOCK * BLOCK {
        let mut run = 0;
        while rec.cond(PC_RUN_EXTEND, quantized[i] == 0) {
            run += 1;
            i += 1;
            rec.loop_back(PC_RUN_LOOP, i < BLOCK * BLOCK);
            if i >= BLOCK * BLOCK {
                break;
            }
        }
        if rec.cond(PC_EOB, i >= BLOCK * BLOCK) {
            break;
        }
        // Symbol size class (models Huffman code-length selection).
        rec.cond(PC_HUFF_LONG, quantized[i].abs() > 7 || run > 7);
        i += 1;
    }
}

/// Streams the ijpeg trace into `sink`, chunk by chunk.
pub fn generate_into<S: TraceSink>(cfg: &WorkloadConfig, sink: S) -> S {
    let mut rng = StdRng::seed_from_u64(salted_seed(cfg, 0x19E6));
    let mut rec = Recorder::with_sink(sink);
    const W: usize = 96;
    const H: usize = 64;
    while rec.conditional_len() < cfg.target_branches {
        let img = make_image(&mut rng, W, H);
        let mut prev_dc = 0;
        let blocks_x = W / BLOCK;
        let blocks_y = H / BLOCK;
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let mut block = [0i32; BLOCK * BLOCK];
                for r in 0..BLOCK {
                    for c in 0..BLOCK {
                        block[r * BLOCK + c] = img[(by * BLOCK + r) * W + bx * BLOCK + c];
                    }
                }
                encode_block(&mut rec, &mut block, &mut prev_dc);
                rec.loop_back(PC_BLOCK_LOOP, bx + 1 < blocks_x || by + 1 < blocks_y);
            }
        }
    }
    rec.into_sink()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;
    use bp_trace::{BranchProfile, TraceStats};

    #[test]
    fn deterministic_and_reaches_target() {
        let cfg = WorkloadConfig {
            seed: 9,
            target_branches: 20_000,
        };
        let a = Benchmark::Ijpeg.generate(&cfg);
        assert!(a.conditional_count() >= 20_000);
        assert_eq!(a, Benchmark::Ijpeg.generate(&cfg));
    }

    #[test]
    fn loop_dominated_profile() {
        let t = Benchmark::Ijpeg.generate(&WorkloadConfig {
            seed: 9,
            target_branches: 40_000,
        });
        let stats = TraceStats::of(&t);
        // Back-edges are a large share of the stream.
        assert!(
            stats.backward as f64 / stats.dynamic_conditional as f64 > 0.2,
            "{stats:?}"
        );
        // Most branches are fairly predictable statically (regular loops).
        let profile = BranchProfile::of(&t);
        assert!(profile.ideal_static_accuracy() > 0.75);
    }
}
