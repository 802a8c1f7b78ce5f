//! `bpt` — inspect trace files in the chunk-framed `BPT2` encoding of
//! `bp_trace::io`: the corpus `bp-conformance gen` writes, its minimized
//! reproducers, and the traces `bp-serve` evaluates.
//!
//! ```text
//! bpt info  FILE          aggregate statistics
//! bpt head  FILE [N]      print the first N records (default 20)
//! bpt biases FILE [N]     per-branch profile, N heaviest branches
//! bpt verify FILE         decode every frame and the footer, report corruption
//! ```

use std::fs::File;
use std::io::{BufReader, Write};
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

/// The message for a stdout that cannot be written (a full disk, a
/// closed pipe), where `println!` would panic.
fn write_error(e: std::io::Error) -> String {
    format!("error: cannot write output: {e}")
}

fn kind_letter(kind: BranchKind) -> char {
    match kind {
        BranchKind::Conditional => 'C',
        BranchKind::Call => 'L',
        BranchKind::Return => 'R',
        BranchKind::Jump => 'J',
    }
}

fn cmd_info(path: &str, out: &mut dyn Write) -> Result<(), String> {
    let trace = open(path)?;
    let stats = TraceStats::of(&trace);
    write!(
        out,
        "records:              {}\n\
         conditional branches: {}\n\
         static sites:         {}\n\
         taken rate:           {:.4}\n\
         backward branches:    {}\n\
         calls/returns/jumps:  {}\n\
         execs per static site: {:.1}\n",
        trace.len(),
        stats.dynamic_conditional,
        stats.static_conditional,
        stats.taken_rate(),
        stats.backward,
        stats.other_transfers,
        stats.executions_per_static()
    )
    .map_err(write_error)
}

fn cmd_head(path: &str, n: usize, out: &mut dyn Write) -> Result<(), String> {
    let mut reader = open_chunks(path)?;
    writeln!(out, "{:<4} {:>12} {:>12} kind taken", "#", "pc", "target").map_err(write_error)?;
    let mut chunk = Vec::new();
    let mut i = 0;
    while i < n
        && reader
            .next_chunk(&mut chunk)
            .map_err(|e| format!("record {i}: {e}"))?
    {
        for rec in chunk.iter().take(n - i) {
            writeln!(
                out,
                "{:<4} {:>#12x} {:>#12x}    {} {}",
                i,
                rec.pc,
                rec.target,
                kind_letter(rec.kind),
                if rec.taken { "T" } else { "-" },
            )
            .map_err(write_error)?;
            i += 1;
        }
    }
    Ok(())
}

fn cmd_biases(path: &str, n: usize, out: &mut dyn Write) -> Result<(), String> {
    let trace = open(path)?;
    let profile = BranchProfile::of(&trace);
    let mut rows: Vec<_> = profile.iter().collect();
    rows.sort_by_key(|(pc, e)| (std::cmp::Reverse(e.executions), *pc));
    writeln!(
        out,
        "{:>12} {:>10} {:>7} {:>7}",
        "pc", "execs", "taken%", "bias%"
    )
    .map_err(write_error)?;
    for (pc, e) in rows.into_iter().take(n) {
        writeln!(
            out,
            "{pc:>#12x} {:>10} {:>7.2} {:>7.2}",
            e.executions,
            e.taken_rate() * 100.0,
            e.bias() * 100.0
        )
        .map_err(write_error)?;
    }
    writeln!(
        out,
        "(ideal static accuracy over all branches: {:.2}%)",
        profile.ideal_static_accuracy() * 100.0
    )
    .map_err(write_error)
}

fn cmd_verify(path: &str, out: &mut dyn Write) -> Result<(), String> {
    let mut reader = open_chunks(path)?;
    let mut chunk = Vec::new();
    // The reader checks the end marker and the footer's record count.
    while reader
        .next_chunk(&mut chunk)
        .map_err(|e| format!("corrupt after record {}: {e}", reader.decoded()))?
    {}
    writeln!(out, "ok: {} records", reader.decoded()).map_err(write_error)
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

    let out = &mut std::io::stdout();
    let result = match cmd {
        "info" => cmd_info(path, out),
        "head" => cmd_head(path, n.unwrap_or(20), out),
        "biases" => cmd_biases(path, n.unwrap_or(20), out),
        "verify" => cmd_verify(path, out),
        _ => return usage(),
    }
    .and_then(|()| out.flush().map_err(write_error));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bpt: {msg}");
            ExitCode::FAILURE
        }
    }
}
