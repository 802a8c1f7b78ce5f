//! `m88ksim` analog: a fetch/decode/execute simulator of a toy RISC ISA
//! running small fixed kernels.
//!
//! Branch profile: m88ksim was among the easiest benchmarks in the paper
//! (gshare 98.4%) because the simulated program is fixed — the decode
//! dispatch tests are extremely biased per site, the simulated loops are
//! regular, and exception paths essentially never trigger. The simulated
//! program's own conditional branch becomes a strongly patterned branch in
//! the host's trace (the simulator tests "did the guest branch?" every
//! iteration).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bp_trace::{Pc, Recorder, TraceSink};

use crate::{salted_seed, WorkloadConfig};

const BASE: Pc = 0x0050_0000;

const PC_FETCH_LOOP: Pc = BASE;
const PC_IS_ALU: Pc = BASE + 0x9e4;
const PC_IS_MEM: Pc = BASE + 2 * 0x9e4;
const PC_IS_BRANCH: Pc = BASE + 3 * 0x9e4;
const PC_GUEST_TAKEN: Pc = BASE + 4 * 0x9e4;
const PC_MEM_ALIGNED: Pc = BASE + 5 * 0x9e4;
const PC_EXCEPTION: Pc = BASE + 6 * 0x9e4;
const PC_ZERO_RESULT: Pc = BASE + 7 * 0x9e4;
const PC_INTERRUPT: Pc = BASE + 8 * 0x9e4;
const PC_TLB_HIT: Pc = BASE + 9 * 0x9e4;

/// Guest instruction set.
#[derive(Debug, Clone, Copy)]
enum GuestOp {
    /// rd = rs1 + imm
    Addi { rd: u8, rs1: u8, imm: i32 },
    /// rd = mem\[rs1\]
    Load { rd: u8, rs1: u8 },
    /// mem\[rs1\] = rs2
    Store { rs1: u8, rs2: u8 },
    /// if rs1 != 0 branch back `off` instructions
    Bnez { rs1: u8, off: i32 },
}

/// A guest kernel: checksum an array with a counted loop — the classic
/// m88ksim workload shape (dcrand runs fixed diagnostics).
fn checksum_kernel(len: i32) -> Vec<GuestOp> {
    vec![
        // r1 = len (loop counter), r2 = pointer, r3 = accumulator
        GuestOp::Addi {
            rd: 1,
            rs1: 0,
            imm: len,
        },
        GuestOp::Addi {
            rd: 2,
            rs1: 0,
            imm: 0x100,
        },
        GuestOp::Addi {
            rd: 3,
            rs1: 0,
            imm: 0,
        },
        // loop: r4 = mem[r2]; r3 += r4; r2 += 4; r1 -= 1; bnez r1, loop
        GuestOp::Load { rd: 4, rs1: 2 },
        GuestOp::Addi {
            rd: 3,
            rs1: 4,
            imm: 0,
        },
        GuestOp::Addi {
            rd: 2,
            rs1: 2,
            imm: 4,
        },
        GuestOp::Addi {
            rd: 1,
            rs1: 1,
            imm: -1,
        },
        GuestOp::Bnez { rs1: 1, off: -4 },
        // epilogue: store result
        GuestOp::Store { rs1: 2, rs2: 3 },
    ]
}

struct Machine {
    regs: [i32; 8],
    mem: Vec<i32>,
    pc: usize,
    cycles: u64,
}

impl Machine {
    fn new(rng: &mut StdRng) -> Self {
        Machine {
            regs: [0; 8],
            mem: (0..4096).map(|_| rng.gen_range(-100..100)).collect(),
            pc: 0,
            cycles: 0,
        }
    }

    /// Executes one guest instruction, recording the simulator's branches.
    fn step<S: TraceSink>(&mut self, rec: &mut Recorder<S>, prog: &[GuestOp]) -> bool {
        let op = prog[self.pc];
        self.cycles += 1;

        // Interrupt poll: fires on a long period (timer-like).
        rec.cond(PC_INTERRUPT, self.cycles.is_multiple_of(1024));

        // Decode dispatch chain, one host branch per class.
        if rec.cond(PC_IS_ALU, matches!(op, GuestOp::Addi { .. })) {
            if let GuestOp::Addi { rd, rs1, imm } = op {
                let v = self.regs[rs1 as usize].wrapping_add(imm)
                    + if rs1 == 4 { self.regs[3] } else { 0 };
                rec.cond(PC_ZERO_RESULT, v % 16 == 0);
                self.regs[rd as usize] = v;
            }
        } else if rec.cond(
            PC_IS_MEM,
            matches!(op, GuestOp::Load { .. } | GuestOp::Store { .. }),
        ) {
            let addr = match op {
                GuestOp::Load { rs1, .. } | GuestOp::Store { rs1, .. } => {
                    self.regs[rs1 as usize] as usize
                }
                _ => unreachable!(),
            };
            let aligned = rec.cond(PC_MEM_ALIGNED, addr % 4 == 0);
            rec.cond(PC_TLB_HIT, addr / 64 < 64); // tiny direct-mapped TLB
            if rec.cond(PC_EXCEPTION, !aligned && addr > self.mem.len() * 4) {
                // Essentially never: access fault.
                self.pc = 0;
                return false;
            }
            let idx = (addr / 4) % self.mem.len();
            match op {
                GuestOp::Load { rd, .. } => self.regs[rd as usize] = self.mem[idx],
                GuestOp::Store { rs2, .. } => self.mem[idx] = self.regs[rs2 as usize],
                _ => unreachable!(),
            }
        } else if rec.cond(PC_IS_BRANCH, matches!(op, GuestOp::Bnez { .. })) {
            if let GuestOp::Bnez { rs1, off } = op {
                // The guest loop branch, observed by the simulator.
                if rec.cond(PC_GUEST_TAKEN, self.regs[rs1 as usize] != 0) {
                    self.pc = (self.pc as i32 + off) as usize;
                    return true;
                }
            }
        }
        self.pc += 1;
        self.pc < prog.len()
    }
}

/// Streams the m88ksim trace into `sink`, chunk by chunk.
pub fn generate_into<S: TraceSink>(cfg: &WorkloadConfig, sink: S) -> S {
    let mut rng = StdRng::seed_from_u64(salted_seed(cfg, 0x88));
    let mut rec = Recorder::with_sink(sink);
    while rec.conditional_len() < cfg.target_branches {
        // A diagnostic binary runs the same kernel (same loop length) many
        // times before the suite moves on, so the guest-branch trip count
        // stays fixed for long stretches and then changes — the "n stays
        // the same or changes infrequently" loop shape of §4.1.1. The trip
        // exceeds any per-address history, so only a loop predictor can
        // catch the exits.
        let len = rng.gen_range(14..34);
        for _ in 0..12 {
            let prog = checksum_kernel(len);
            let mut m = Machine::new(&mut rng);
            loop {
                let more = m.step(&mut rec, &prog);
                rec.loop_back(PC_FETCH_LOOP, more);
                if !more {
                    break;
                }
            }
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
    use bp_trace::BranchProfile;

    #[test]
    fn deterministic_and_reaches_target() {
        let cfg = WorkloadConfig {
            seed: 11,
            target_branches: 20_000,
        };
        let a = Benchmark::M88ksim.generate(&cfg);
        assert!(a.conditional_count() >= 20_000);
        assert_eq!(a, Benchmark::M88ksim.generate(&cfg));
    }

    #[test]
    fn highly_biased_profile() {
        let t = Benchmark::M88ksim.generate(&WorkloadConfig {
            seed: 11,
            target_branches: 40_000,
        });
        let profile = BranchProfile::of(&t);
        // m88ksim's signature: high predictability. (The dispatch chain is
        // periodic rather than static, so the dynamic predictors — not
        // ideal static — are what reach the paper's 98%+.)
        assert!(
            profile.ideal_static_accuracy() > 0.85,
            "{}",
            profile.ideal_static_accuracy()
        );
        // The exception branch never fires.
        let exc = profile.get(PC_EXCEPTION).expect("exception site present");
        assert_eq!(exc.taken, 0);
    }
}
