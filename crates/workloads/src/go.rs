//! `go` analog: a game-position evaluator over random board states.
//!
//! Branch profile (go was the hardest benchmark in the paper — gshare 84%):
//! weakly biased, data-dependent branches whose conditions mix board
//! contents with positional noise, so neither self-history nor short global
//! history pins them down. A thin layer of genuine correlation remains
//! (ownership tests reuse the same influence values), which is what the
//! selective-history oracle can still find.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bp_trace::{Pc, Recorder, TraceSink};

use crate::{salted_seed, WorkloadConfig};

const BASE: Pc = 0x0030_0000;
const N: usize = 13; // board edge

const PC_ROW_LOOP: Pc = BASE;
const PC_COL_LOOP: Pc = BASE + 0x9e4;
const PC_OCCUPIED: Pc = BASE + 2 * 0x9e4;
const PC_BLACK_STONE: Pc = BASE + 3 * 0x9e4;
const PC_EDGE: Pc = BASE + 4 * 0x9e4;
const PC_INFLUENCE_HI: Pc = BASE + 5 * 0x9e4;
const PC_CONTESTED: Pc = BASE + 6 * 0x9e4;
const PC_BLACK_OWNS: Pc = BASE + 7 * 0x9e4;
const PC_CAPTURE_SCAN: Pc = BASE + 8 * 0x9e4;
const PC_LIBERTY: Pc = BASE + 9 * 0x9e4;
const PC_LIBERTY_LOOP: Pc = BASE + 10 * 0x9e4;
const PC_ATARI: Pc = BASE + 11 * 0x9e4;
const PC_GAME_LOOP: Pc = BASE + 12 * 0x9e4;
const PC_STRONG_AND_CENTER: Pc = BASE + 13 * 0x9e4;
const PC_LADDER_STEP: Pc = BASE + 14 * 0x9e4;
const PC_LADDER_LOOP: Pc = BASE + 15 * 0x9e4;
const PC_LADDER_WORKS: Pc = BASE + 16 * 0x9e4;
const PC_OWNER_RECHECK: Pc = BASE + 17 * 0x9e4;

#[derive(Clone, Copy, PartialEq)]
enum Point {
    Empty,
    Black,
    White,
}

struct Board {
    cells: Vec<Point>,
}

impl Board {
    fn random(rng: &mut StdRng) -> Self {
        // ~55% empty, stones clustered: place random walks of stones so
        // neighborhoods are spatially correlated like real positions.
        let mut cells = vec![Point::Empty; N * N];
        for _ in 0..10 {
            let color = if rng.gen_bool(0.5) {
                Point::Black
            } else {
                Point::White
            };
            let mut r = rng.gen_range(0..N);
            let mut c = rng.gen_range(0..N);
            for _ in 0..rng.gen_range(3..9) {
                cells[r * N + c] = color;
                match rng.gen_range(0..4) {
                    0 if r + 1 < N => r += 1,
                    1 if r > 0 => r -= 1,
                    2 if c + 1 < N => c += 1,
                    _ if c > 0 => c -= 1,
                    _ => {}
                }
            }
        }
        Board { cells }
    }

    fn at(&self, r: isize, c: isize) -> Point {
        if r < 0 || c < 0 || r as usize >= N || c as usize >= N {
            Point::Empty
        } else {
            self.cells[r as usize * N + c as usize]
        }
    }

    /// Net black influence on a point: weighted stone counts in a 2-radius
    /// neighborhood plus positional noise.
    fn influence(&self, r: usize, c: usize, noise: i32) -> i32 {
        let mut inf = noise;
        for dr in -2isize..=2 {
            for dc in -2isize..=2 {
                let w = 3 - (dr.abs() + dc.abs()).min(3) as i32;
                match self.at(r as isize + dr, c as isize + dc) {
                    Point::Black => inf += w,
                    Point::White => inf -= w,
                    Point::Empty => {}
                }
            }
        }
        inf
    }
}

fn evaluate<S: TraceSink>(
    rec: &mut Recorder<S>,
    board: &Board,
    rng: &mut StdRng,
    ladder_len: usize,
) -> i32 {
    let mut score = 0;
    for r in 0..N {
        for c in 0..N {
            let p = board.cells[r * N + c];
            let noise = rng.gen_range(-5..=5);
            let inf = board.influence(r, c, noise);
            let edge = r == 0 || c == 0 || r == N - 1 || c == N - 1;

            if rec.cond(PC_OCCUPIED, p != Point::Empty) {
                let black = rec.cond(PC_BLACK_STONE, p == Point::Black);
                // Liberty scan: count empty neighbors (short variable loop).
                let mut libs = 0;
                for (i, (dr, dc)) in [(0, 1), (0, -1), (1, 0), (-1, 0)].iter().enumerate() {
                    if rec.cond(
                        PC_LIBERTY,
                        board.at(r as isize + dr, c as isize + dc) == Point::Empty,
                    ) {
                        libs += 1;
                    }
                    rec.loop_back(PC_LIBERTY_LOOP, i < 3);
                }
                if rec.cond(PC_ATARI, libs <= 1) {
                    // Capture-threat scan around the stone.
                    rec.cond(PC_CAPTURE_SCAN, inf * if black { 1 } else { -1 } < 0);
                    // Ladder reading: chase the escape for a number of
                    // steps fixed by the board's geometry — the same trip
                    // count for every atari on this board, longer than any
                    // per-address history.
                    for step in 0..ladder_len {
                        rec.cond(PC_LADDER_STEP, true);
                        rec.loop_back(PC_LADDER_LOOP, step + 1 < ladder_len);
                    }
                    rec.cond(PC_LADDER_WORKS, !(ladder_len + r + c).is_multiple_of(3));
                    score += if black { -4 } else { 4 };
                }
                // Ownership recheck at the end of the point evaluation:
                // repeats the PC_BLACK_STONE decision from ~11 branches
                // earlier, with the noisy liberty/ladder scans in between.
                // A 1-tag selective history reads it directly; gshare must
                // train 2^10-odd noise-diluted patterns (§3.6.3's
                // unexploited correlation).
                rec.cond(PC_OWNER_RECHECK, black);
            } else {
                // Territory estimation: the weakly biased heart of go.
                let strong = rec.cond(PC_INFLUENCE_HI, inf.abs() >= 4);
                if strong {
                    if rec.cond(PC_BLACK_OWNS, inf > 0) {
                        score += 1;
                    } else {
                        score -= 1;
                    }
                } else {
                    rec.cond(PC_CONTESTED, inf != 0);
                }
                // Correlated pair: strong AND central (cond1 && cond2 on
                // the same influence value).
                rec.cond(PC_STRONG_AND_CENTER, inf.abs() >= 4 && !edge);
                rec.cond(PC_EDGE, edge);
            }
            rec.loop_back(PC_COL_LOOP, c + 1 < N);
        }
        rec.loop_back(PC_ROW_LOOP, r + 1 < N);
    }
    score
}

/// Streams the go trace into `sink`, chunk by chunk.
pub fn generate_into<S: TraceSink>(cfg: &WorkloadConfig, sink: S) -> S {
    let mut rng = StdRng::seed_from_u64(salted_seed(cfg, 0x60));
    let mut rec = Recorder::with_sink(sink);
    let mut games = 0u64;
    while rec.conditional_len() < cfg.target_branches {
        let board = Board::random(&mut rng);
        // Ladder length: a property of the whole position; changes only
        // when the board does.
        let ladder_len = 14 + (rng.gen_range(0..12) as usize);
        let _ = evaluate(&mut rec, &board, &mut rng, ladder_len);
        games += 1;
        rec.loop_back(PC_GAME_LOOP, !games.is_multiple_of(4));
    }
    rec.into_sink()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;
    use bp_trace::TraceStats;

    #[test]
    fn deterministic_and_reaches_target() {
        let cfg = WorkloadConfig {
            seed: 5,
            target_branches: 20_000,
        };
        let a = Benchmark::Go.generate(&cfg);
        assert!(a.conditional_count() >= 20_000);
        assert_eq!(a, Benchmark::Go.generate(&cfg));
    }

    #[test]
    fn weakly_biased_profile() {
        use bp_trace::BranchProfile;
        let t = Benchmark::Go.generate(&WorkloadConfig {
            seed: 5,
            target_branches: 40_000,
        });
        let profile = BranchProfile::of(&t);
        // go's signature: ideal static is weak relative to the other
        // workloads. (The loop back-edges are biased, the evaluations are
        // not.)
        assert!(
            profile.ideal_static_accuracy() < 0.92,
            "{}",
            profile.ideal_static_accuracy()
        );
        let stats = TraceStats::of(&t);
        assert!(stats.static_conditional >= 10);
    }
}
