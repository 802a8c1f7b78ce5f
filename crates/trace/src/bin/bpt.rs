//! `bpt` — inspect trace files: the `.bpt` cache `repro --cache` writes
//! and the `.bpt2` stream cache `scale --cache` writes (both in the
//! chunk-framed `BPT2` encoding of `bp_trace::io`).
//!
//! ```text
//! bpt info  FILE          aggregate statistics
//! bpt head  FILE [N]      print the first N records (default 20)
//! bpt biases FILE [N]     per-branch profile, N heaviest branches
//! bpt verify FILE         decode every frame and the footer, report corruption
//! ```

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use bp_trace::{io, BranchKind, BranchProfile, Trace, TraceStats};

fn usage() -> ExitCode {
    eprintln!("usage: bpt <info|head|biases|verify> FILE [N]");
    ExitCode::FAILURE
}

fn open(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    io::read_trace(BufReader::new(file)).map_err(|e| format!("cannot decode {path}: {e}"))
}

fn open_chunks(path: &str) -> Result<io::ChunkReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    io::ChunkReader::new(BufReader::new(file)).map_err(|e| format!("cannot decode {path}: {e}"))
}

fn kind_letter(kind: BranchKind) -> char {
    match kind {
        BranchKind::Conditional => 'C',
        BranchKind::Call => 'L',
        BranchKind::Return => 'R',
        BranchKind::Jump => 'J',
    }
}

fn cmd_info(path: &str) -> Result<(), String> {
    let trace = open(path)?;
    let stats = TraceStats::of(&trace);
    println!("records:              {}", trace.len());
    println!("conditional branches: {}", stats.dynamic_conditional);
    println!("static sites:         {}", stats.static_conditional);
    println!("taken rate:           {:.4}", stats.taken_rate());
    println!("backward branches:    {}", stats.backward);
    println!("calls/returns/jumps:  {}", stats.other_transfers);
    println!(
        "execs per static site: {:.1}",
        stats.executions_per_static()
    );
    Ok(())
}

fn cmd_head(path: &str, n: usize) -> Result<(), String> {
    let mut reader = open_chunks(path)?;
    println!("{:<4} {:>12} {:>12} kind taken", "#", "pc", "target");
    let mut chunk = Vec::new();
    let mut i = 0;
    while i < n
        && reader
            .next_chunk(&mut chunk)
            .map_err(|e| format!("record {i}: {e}"))?
    {
        for rec in chunk.iter().take(n - i) {
            println!(
                "{:<4} {:>#12x} {:>#12x}    {} {}",
                i,
                rec.pc,
                rec.target,
                kind_letter(rec.kind),
                if rec.taken { "T" } else { "-" },
            );
            i += 1;
        }
    }
    Ok(())
}

fn cmd_biases(path: &str, n: usize) -> Result<(), String> {
    let trace = open(path)?;
    let profile = BranchProfile::of(&trace);
    let mut rows: Vec<_> = profile.iter().collect();
    rows.sort_by_key(|(pc, e)| (std::cmp::Reverse(e.executions), *pc));
    println!(
        "{:>12} {:>10} {:>7} {:>7}",
        "pc", "execs", "taken%", "bias%"
    );
    for (pc, e) in rows.into_iter().take(n) {
        println!(
            "{pc:>#12x} {:>10} {:>7.2} {:>7.2}",
            e.executions,
            e.taken_rate() * 100.0,
            e.bias() * 100.0
        );
    }
    println!(
        "(ideal static accuracy over all branches: {:.2}%)",
        profile.ideal_static_accuracy() * 100.0
    );
    Ok(())
}

fn cmd_verify(path: &str) -> Result<(), String> {
    let mut reader = open_chunks(path)?;
    let mut chunk = Vec::new();
    // The reader checks the end marker and the footer's record count.
    while reader
        .next_chunk(&mut chunk)
        .map_err(|e| format!("corrupt after record {}: {e}", reader.decoded()))?
    {}
    println!("ok: {} records", reader.decoded());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => return usage(),
    };
    let n = args
        .get(2)
        .map(|v| v.parse::<usize>())
        .transpose()
        .unwrap_or(None);

    let result = match cmd {
        "info" => cmd_info(path),
        "head" => cmd_head(path, n.unwrap_or(20)),
        "biases" => cmd_biases(path, n.unwrap_or(20)),
        "verify" => cmd_verify(path),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bpt: {msg}");
            ExitCode::FAILURE
        }
    }
}
