//! `perl` analog: a stack bytecode interpreter running generated scripts
//! heavy on string scanning (the paper's input is a Scrabble solver).
//!
//! Branch profile: dispatch-chain tests biased by opcode frequency,
//! short string-scan loops with repeating trip counts, and hash-probe
//! chains — highly predictable overall (paper: gshare 97.8%) with clear
//! per-address patterns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bp_trace::{Pc, Recorder, TraceSink};

use crate::{salted_seed, WorkloadConfig};

const BASE: Pc = 0x0060_0000;

const PC_DISPATCH_LOOP: Pc = BASE;
const PC_IS_PUSH: Pc = BASE + 0x9e4;
const PC_IS_ARITH: Pc = BASE + 2 * 0x9e4;
const PC_IS_MATCH: Pc = BASE + 3 * 0x9e4;
const PC_IS_JUMP: Pc = BASE + 4 * 0x9e4;
const PC_JUMP_TAKEN: Pc = BASE + 5 * 0x9e4;
const PC_MATCH_CHAR: Pc = BASE + 6 * 0x9e4;
const PC_MATCH_LOOP: Pc = BASE + 7 * 0x9e4;
const PC_MATCH_FOUND: Pc = BASE + 8 * 0x9e4;
const PC_HASH_HIT: Pc = BASE + 9 * 0x9e4;
const PC_HASH_LOOP: Pc = BASE + 10 * 0x9e4;
const PC_ARITH_OVERFLOW: Pc = BASE + 11 * 0x9e4;
const PC_STACK_GROW: Pc = BASE + 12 * 0x9e4;
const PC_WORD_LEN_GT4: Pc = BASE + 13 * 0x9e4;
const PC_SCORE_BONUS: Pc = BASE + 14 * 0x9e4;
const PC_SCORE_DOUBLE: Pc = BASE + 15 * 0x9e4;

#[derive(Debug, Clone, Copy)]
enum Bytecode {
    Push(i32),
    Add,
    Sub,
    /// Scan the dictionary word at `word` for the current rack letter.
    Match {
        word: u8,
    },
    /// Jump back `off` ops while the counter is positive.
    LoopJump {
        off: u8,
    },
    /// Decrement the loop counter.
    Dec,
}

struct Script {
    code: Vec<Bytecode>,
    words: Vec<Vec<u8>>,
}

fn gen_script(rng: &mut StdRng) -> Script {
    // A dictionary of letter-tile words of varied lengths.
    let words: Vec<Vec<u8>> = (0..12)
        .map(|_| {
            let len = rng.gen_range(3..9);
            (0..len).map(|_| rng.gen_range(b'a'..=b'z')).collect()
        })
        .collect();

    // Script shape: init counter, then a loop body of pushes/arith/matches,
    // closed by Dec + LoopJump — a scripted scoring loop.
    let mut code = vec![Bytecode::Push(rng.gen_range(5..25))];
    let body_len = rng.gen_range(3..7);
    for _ in 0..body_len {
        match rng.gen_range(0..10) {
            0..=3 => code.push(Bytecode::Push(rng.gen_range(-5..30))),
            4..=5 => code.push(Bytecode::Add),
            6 => code.push(Bytecode::Sub),
            _ => code.push(Bytecode::Match {
                word: rng.gen_range(0..12),
            }),
        }
    }
    code.push(Bytecode::Dec);
    code.push(Bytecode::LoopJump {
        off: (body_len + 1) as u8,
    });
    Script { code, words }
}

fn run_script<S: TraceSink>(rec: &mut Recorder<S>, script: &Script, rng: &mut StdRng) {
    let mut stack: Vec<i32> = vec![0];
    let mut counter = 0i32;
    let mut pc = 0usize;
    let mut steps = 0u32;
    // Tiny symbol-table of seen letters, probed per match (hash-flavored).
    let mut letter_seen = [false; 26];

    while pc < script.code.len() && steps < 5000 {
        steps += 1;
        let op = script.code[pc];
        if rec.cond(PC_IS_PUSH, matches!(op, Bytecode::Push(_) | Bytecode::Dec)) {
            match op {
                Bytecode::Push(v) => {
                    if rec.cond(PC_STACK_GROW, stack.len() >= stack.capacity()) {
                        stack.reserve(8);
                    }
                    stack.push(v);
                    counter = v; // last push doubles as the loop counter
                }
                Bytecode::Dec => counter -= 1,
                _ => unreachable!(),
            }
        } else if rec.cond(PC_IS_ARITH, matches!(op, Bytecode::Add | Bytecode::Sub)) {
            let b = stack.pop().unwrap_or(0);
            let a = stack.pop().unwrap_or(0);
            let v = match op {
                Bytecode::Add => a.wrapping_add(b),
                _ => a.wrapping_sub(b),
            };
            rec.cond(PC_ARITH_OVERFLOW, v.abs() > 1_000_000);
            stack.push(v);
        } else if rec.cond(PC_IS_MATCH, matches!(op, Bytecode::Match { .. })) {
            if let Bytecode::Match { word } = op {
                let ch = rng.gen_range(b'a'..=b'z');
                let w = &script.words[word as usize];
                rec.cond(PC_WORD_LEN_GT4, w.len() > 4);
                // Letter-table probe: second and later probes of a letter
                // hit (figure 1b correlation with the first probe).
                let idx = (ch - b'a') as usize;
                let mut hops = 0;
                while !rec.cond(PC_HASH_HIT, letter_seen[(idx + hops) % 26] || hops == 2) {
                    hops += 1;
                    rec.loop_back(PC_HASH_LOOP, true);
                }
                letter_seen[idx] = true;
                // The string scan: fixed word => fixed trip count pattern.
                let mut found = false;
                for (i, &c) in w.iter().enumerate() {
                    if rec.cond(PC_MATCH_CHAR, c == ch) {
                        found = true;
                    }
                    rec.loop_back(PC_MATCH_LOOP, i + 1 < w.len());
                }
                rec.cond(PC_MATCH_FOUND, found);
                // Scoring follows the match result: perfectly correlated
                // with PC_MATCH_FOUND (global predictors see it for free;
                // the branch's own history is as noisy as the data).
                if rec.cond(PC_SCORE_BONUS, found) {
                    stack.push(w.len() as i32);
                }
                rec.cond(PC_SCORE_DOUBLE, found && w.len() > 5);
                stack.push(found as i32);
            }
        } else if rec.cond(PC_IS_JUMP, matches!(op, Bytecode::LoopJump { .. })) {
            if let Bytecode::LoopJump { off } = op {
                if rec.cond(PC_JUMP_TAKEN, counter > 0) {
                    pc -= off as usize;
                    rec.loop_back(PC_DISPATCH_LOOP, true);
                    continue;
                }
            }
        }
        pc += 1;
        rec.loop_back(PC_DISPATCH_LOOP, pc < script.code.len());
    }
}

/// Streams the perl trace into `sink`, chunk by chunk.
pub fn generate_into<S: TraceSink>(cfg: &WorkloadConfig, sink: S) -> S {
    let mut rng = StdRng::seed_from_u64(salted_seed(cfg, 0xBE7));
    let mut rec = Recorder::with_sink(sink);
    while rec.conditional_len() < cfg.target_branches {
        // Like the Scrabble solver scoring successive racks: the same
        // script body runs repeatedly over its data.
        let script = gen_script(&mut rng);
        for _ in 0..3 {
            run_script(&mut rec, &script, &mut rng);
            if rec.conditional_len() >= cfg.target_branches {
                break;
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
            seed: 13,
            target_branches: 20_000,
        };
        let a = Benchmark::Perl.generate(&cfg);
        assert!(a.conditional_count() >= 20_000);
        assert_eq!(a, Benchmark::Perl.generate(&cfg));
    }

    #[test]
    fn interpreter_profile() {
        let t = Benchmark::Perl.generate(&WorkloadConfig {
            seed: 13,
            target_branches: 40_000,
        });
        let stats = TraceStats::of(&t);
        assert!(stats.static_conditional >= 12, "{stats:?}");
        let profile = BranchProfile::of(&t);
        // Predictable but not trivially static (dispatch chain mixes).
        assert!(profile.ideal_static_accuracy() > 0.6);
        assert!(profile.ideal_static_accuracy() < 0.99);
    }
}
