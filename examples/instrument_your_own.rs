//! Bring your own program: instrument ordinary Rust control flow with the
//! [`Recorder`], then analyze its branches with the full toolkit — the same
//! flow the synthetic workloads use internally.
//!
//! The instrumented program here is a tiny sieve + binary-search mix; every
//! `if`/`while` reports its decision to the recorder.
//!
//! ```text
//! cargo run --release --example instrument_your_own
//! ```

// An example reports to its reader on stdout.
#![allow(clippy::print_stdout)]

use correlation_predictability::core::{Classifier, ClassifierConfig, PaClass};
use correlation_predictability::predictors::{simulate, Gshare, LoopPredictor, Pas};
use correlation_predictability::trace::{Recorder, Trace, TraceStats};

// Branch site addresses for the instrumented program (any distinct values).
const PC_SIEVE_OUTER: u64 = 0x100;
const PC_SIEVE_IS_PRIME: u64 = 0x104;
const PC_SIEVE_MARK_LOOP: u64 = 0x108;
const PC_SEARCH_GO_RIGHT: u64 = 0x10c;
const PC_SEARCH_LOOP: u64 = 0x110;
const PC_SEARCH_FOUND: u64 = 0x114;

/// Sieve of Eratosthenes, instrumented.
fn sieve(rec: &mut Recorder, n: usize) -> Vec<usize> {
    let mut composite = vec![false; n];
    let mut primes = Vec::new();
    for i in 2..n {
        if rec.cond(PC_SIEVE_IS_PRIME, !composite[i]) {
            primes.push(i);
            let mut j = i * i;
            while j < n {
                composite[j] = true;
                j += i;
                rec.loop_back(PC_SIEVE_MARK_LOOP, j < n);
            }
        }
        rec.loop_back(PC_SIEVE_OUTER, i + 1 < n);
    }
    primes
}

/// Binary search over the primes, instrumented.
fn search(rec: &mut Recorder, primes: &[usize], needle: usize) -> bool {
    let (mut lo, mut hi) = (0usize, primes.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if rec.cond(PC_SEARCH_GO_RIGHT, primes[mid] < needle) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
        rec.loop_back(PC_SEARCH_LOOP, lo < hi);
    }
    let found = lo < primes.len() && primes[lo] == needle;
    rec.cond(PC_SEARCH_FOUND, found);
    found
}

fn main() {
    let mut rec = Recorder::new();
    let primes = sieve(&mut rec, 3_000);
    let mut hits = 0;
    for k in 0..5_000 {
        // A deterministic pseudo-random probe stream.
        let needle = (k * 2654435761u64 % 3_000) as usize;
        if search(&mut rec, &primes, needle) {
            hits += 1;
        }
    }
    let trace: Trace = rec.into_trace();

    let stats = TraceStats::of(&trace);
    println!(
        "instrumented program: {} dynamic branches over {} sites ({} primes, {hits} probe hits)\n",
        stats.dynamic_conditional,
        stats.static_conditional,
        primes.len()
    );

    for (name, acc) in [
        (
            "gshare(16)",
            simulate(&mut Gshare::default(), &trace).accuracy(),
        ),
        ("pas", simulate(&mut Pas::default(), &trace).accuracy()),
        (
            "loop",
            simulate(&mut LoopPredictor::new(), &trace).accuracy(),
        ),
    ] {
        println!("{name:<12} {:.2}%", acc * 100.0);
    }

    let classes = Classifier::classify(&trace, &ClassifierConfig::default());
    let dist = classes.dynamic_distribution();
    println!("\nper-address classes of your program's branches:");
    for class in PaClass::ALL {
        println!("  {:<22} {:>5.1}%", class.label(), dist[&class] * 100.0);
    }
}
