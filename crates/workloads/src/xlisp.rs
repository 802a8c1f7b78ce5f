//! `xlisp` analog: a recursive s-expression evaluator over generated
//! programs.
//!
//! Branch profile: recursion makes the *path* to a branch matter — the same
//! atom-vs-cons test behaves differently under `(+ …)` than under `(if …)`,
//! the in-path correlation of §3.1 (a branch at the start of a subroutine
//! depends on where it was called from). Environment-lookup probes and a
//! periodic GC check round out the mix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bp_trace::{Pc, Recorder, TraceSink};

use crate::{salted_seed, WorkloadConfig};

const BASE: Pc = 0x0080_0000;

const PC_IS_ATOM: Pc = BASE;
const PC_IS_NUMBER: Pc = BASE + 0x9e4;
const PC_ENV_HIT: Pc = BASE + 2 * 0x9e4;
const PC_ENV_LOOP: Pc = BASE + 3 * 0x9e4;
const PC_IS_ADD: Pc = BASE + 4 * 0x9e4;
const PC_IS_MUL: Pc = BASE + 5 * 0x9e4;
const PC_IS_IF: Pc = BASE + 6 * 0x9e4;
const PC_IF_TRUE: Pc = BASE + 7 * 0x9e4;
const PC_IS_LET: Pc = BASE + 8 * 0x9e4;
const PC_ARGS_LOOP: Pc = BASE + 9 * 0x9e4;
const PC_GC_DUE: Pc = BASE + 10 * 0x9e4;
const PC_GC_MARK_LOOP: Pc = BASE + 11 * 0x9e4;
const PC_GC_LIVE: Pc = BASE + 12 * 0x9e4;
const PC_DEPTH_GUARD: Pc = BASE + 13 * 0x9e4;
const PC_IS_CALL: Pc = BASE + 14 * 0x9e4;
const PC_ARITY_OK: Pc = BASE + 15 * 0x9e4;
const PC_BIND_LOOP: Pc = BASE + 16 * 0x9e4;

const FN_EVAL: Pc = BASE + 0x1000;

#[derive(Debug, Clone)]
enum Expr {
    Num(i64),
    Var(u8),
    Add(Vec<Expr>),
    Mul(Vec<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Let(u8, Box<Expr>, Box<Expr>),
    /// Call a user-defined function from the program's function pool.
    CallFn(u8, Vec<Expr>),
}

/// A user-defined lisp function: argument names and a body over them.
#[derive(Debug, Clone)]
struct FnDef {
    params: Vec<u8>,
    body: Expr,
}

/// `fns` is the number of callable user functions (0 while generating the
/// function bodies themselves, to keep call graphs acyclic).
fn gen_expr(rng: &mut StdRng, depth: u32, fns: u8) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.85) {
            Expr::Num(rng.gen_range(-9..10))
        } else {
            Expr::Var(rng.gen_range(0..6))
        };
    }
    match rng.gen_range(0..10) {
        0..=2 => Expr::Add(
            (0..rng.gen_range(2..4))
                .map(|_| gen_expr(rng, depth - 1, fns))
                .collect(),
        ),
        3..=4 => Expr::Mul(
            (0..rng.gen_range(2..4))
                .map(|_| gen_expr(rng, depth - 1, fns))
                .collect(),
        ),
        5..=6 => Expr::If(
            Box::new(gen_expr(rng, depth - 1, fns)),
            Box::new(gen_expr(rng, depth - 1, fns)),
            Box::new(gen_expr(rng, depth - 1, fns)),
        ),
        7 => Expr::Let(
            rng.gen_range(0..6),
            Box::new(gen_expr(rng, depth - 1, fns)),
            Box::new(gen_expr(rng, depth - 1, fns)),
        ),
        _ if fns > 0 => Expr::CallFn(
            rng.gen_range(0..fns),
            (0..rng.gen_range(1..3))
                .map(|_| gen_expr(rng, depth - 1, fns))
                .collect(),
        ),
        _ => Expr::Num(rng.gen_range(-9..10)),
    }
}

/// Generates the program's function pool: small bodies over their params.
fn gen_fns(rng: &mut StdRng) -> Vec<FnDef> {
    (0..4)
        .map(|_| {
            let arity = rng.gen_range(1..3u8);
            FnDef {
                params: (1..=arity).collect(),
                body: gen_expr(rng, 2, 0),
            }
        })
        .collect()
}

struct Interp {
    /// Association-list environment: (name, value), newest first.
    env: Vec<(u8, i64)>,
    /// The program's user-defined functions.
    fns: Vec<FnDef>,
    allocs: u64,
    heap: Vec<bool>, // liveness bitmap for the GC sweep
}

impl Interp {
    fn new() -> Self {
        Interp {
            env: Vec::new(),
            fns: Vec::new(),
            allocs: 0,
            heap: vec![true; 64],
        }
    }

    fn lookup<S: TraceSink>(&self, rec: &mut Recorder<S>, name: u8) -> i64 {
        // Association-list scan: hit distance depends on nesting depth.
        for (i, &(n, v)) in self.env.iter().rev().enumerate() {
            if rec.cond(PC_ENV_HIT, n == name) {
                return v;
            }
            rec.loop_back(PC_ENV_LOOP, i + 1 < self.env.len());
        }
        0
    }

    fn maybe_gc<S: TraceSink>(&mut self, rec: &mut Recorder<S>) {
        self.allocs += 1;
        if rec.cond(PC_GC_DUE, self.allocs.is_multiple_of(300)) {
            let n = self.heap.len();
            for i in 0..n {
                let live = rec.cond(PC_GC_LIVE, self.heap[i]);
                if !live {
                    self.heap[i] = true;
                }
                rec.loop_back(PC_GC_MARK_LOOP, i + 1 < n);
            }
            // Retire a rotating band of cells so the next sweep has work —
            // deterministic churn, like generation-ordered reclamation.
            let start = (self.allocs as usize / 300 * 8) % n;
            for k in 0..8 {
                self.heap[(start + k) % n] = false;
            }
        }
    }

    fn eval<S: TraceSink>(&mut self, rec: &mut Recorder<S>, expr: &Expr, depth: u32) -> i64 {
        rec.call(FN_EVAL + depth as u64 % 4, FN_EVAL);
        // Recursion-depth guard: almost never trips.
        rec.cond(PC_DEPTH_GUARD, depth > 64);
        self.maybe_gc(rec);

        let atom = rec.cond(PC_IS_ATOM, matches!(expr, Expr::Num(_) | Expr::Var(_)));
        let result = if atom {
            if rec.cond(PC_IS_NUMBER, matches!(expr, Expr::Num(_))) {
                match expr {
                    Expr::Num(v) => *v,
                    _ => unreachable!(),
                }
            } else {
                match expr {
                    Expr::Var(n) => self.lookup(rec, *n),
                    _ => unreachable!(),
                }
            }
        } else if rec.cond(PC_IS_ADD, matches!(expr, Expr::Add(_))) {
            let args = match expr {
                Expr::Add(a) => a,
                _ => unreachable!(),
            };
            let mut sum = 0i64;
            for (i, a) in args.iter().enumerate() {
                sum = sum.wrapping_add(self.eval(rec, a, depth + 1));
                rec.loop_back(PC_ARGS_LOOP, i + 1 < args.len());
            }
            sum
        } else if rec.cond(PC_IS_MUL, matches!(expr, Expr::Mul(_))) {
            let args = match expr {
                Expr::Mul(a) => a,
                _ => unreachable!(),
            };
            let mut prod = 1i64;
            for (i, a) in args.iter().enumerate() {
                prod = prod.wrapping_mul(self.eval(rec, a, depth + 1));
                rec.loop_back(PC_ARGS_LOOP, i + 1 < args.len());
            }
            prod
        } else if rec.cond(PC_IS_IF, matches!(expr, Expr::If(..))) {
            let (c, t, e) = match expr {
                Expr::If(c, t, e) => (c, t, e),
                _ => unreachable!(),
            };
            let cond = self.eval(rec, c, depth + 1);
            // The program-level branch: correlated with the condition
            // subtree's value, which correlates with sibling tests.
            if rec.cond(PC_IF_TRUE, cond != 0) {
                self.eval(rec, t, depth + 1)
            } else {
                self.eval(rec, e, depth + 1)
            }
        } else if rec.cond(PC_IS_CALL, matches!(expr, Expr::CallFn(..))) {
            let (f, args) = match expr {
                Expr::CallFn(f, args) => (*f as usize, args),
                _ => unreachable!(),
            };
            let def = self.fns[f].clone();
            // Arity check: essentially always satisfied (generation
            // truncates/extends), the classic always-true validation.
            let arity_ok = rec.cond(PC_ARITY_OK, !args.is_empty());
            let frame_base = self.env.len();
            for (i, (param, arg)) in def.params.iter().zip(args.iter()).enumerate() {
                let v = self.eval(rec, arg, depth + 1);
                self.env.push((*param, v));
                rec.loop_back(PC_BIND_LOOP, i + 1 < def.params.len().min(args.len()));
            }
            let r = if arity_ok {
                self.eval(rec, &def.body, depth + 1)
            } else {
                0
            };
            self.env.truncate(frame_base);
            r
        } else {
            let is_let = rec.cond(PC_IS_LET, matches!(expr, Expr::Let(..)));
            debug_assert!(is_let);
            let (name, val, body) = match expr {
                Expr::Let(n, v, b) => (*n, v, b),
                _ => unreachable!(),
            };
            let v = self.eval(rec, val, depth + 1);
            self.env.push((name, v));
            let r = self.eval(rec, body, depth + 1);
            self.env.pop();
            r
        };
        rec.ret(FN_EVAL + 0x40);
        result
    }
}

/// Streams the xlisp trace into `sink`, chunk by chunk.
///
/// A lisp *program* (a pool of top-level expressions) is evaluated over
/// several rounds with one free variable rebound per round — like the
/// paper's `train.lsp` repeatedly exercising the same functions on changing
/// data. Reuse makes most branches highly predictable; the rebinding keeps
/// a data-dependent residue.
pub fn generate_into<S: TraceSink>(cfg: &WorkloadConfig, sink: S) -> S {
    let mut rng = StdRng::seed_from_u64(salted_seed(cfg, 0x115b));
    let mut rec = Recorder::with_sink(sink);
    let mut interp = Interp::new();
    while rec.conditional_len() < cfg.target_branches {
        interp.fns = gen_fns(&mut rng);
        let n_fns = interp.fns.len() as u8;
        let pool: Vec<Expr> = (0..8).map(|_| gen_expr(&mut rng, 3, n_fns)).collect();
        for round in 0..32 {
            // Rebind the data variable: same code, changing input.
            interp.env.push((0, round as i64 - 3));
            for expr in &pool {
                let _ = interp.eval(&mut rec, expr, 0);
            }
            interp.env.pop();
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
    use bp_trace::{BranchKind, TraceStats};

    #[test]
    fn deterministic_and_reaches_target() {
        let cfg = WorkloadConfig {
            seed: 19,
            target_branches: 20_000,
        };
        let a = Benchmark::Xlisp.generate(&cfg);
        assert!(a.conditional_count() >= 20_000);
        assert_eq!(a, Benchmark::Xlisp.generate(&cfg));
    }

    #[test]
    fn records_calls_and_returns() {
        let t = Benchmark::Xlisp.generate(&WorkloadConfig {
            seed: 19,
            target_branches: 10_000,
        });
        let calls = t.iter().filter(|r| r.kind == BranchKind::Call).count();
        let rets = t.iter().filter(|r| r.kind == BranchKind::Return).count();
        assert!(calls > 0);
        assert_eq!(calls, rets);
        let stats = TraceStats::of(&t);
        assert!(stats.static_conditional >= 10, "{stats:?}");
    }
}
