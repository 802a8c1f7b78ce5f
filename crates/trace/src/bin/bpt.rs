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

use bp_trace::cli::{finish, RunError};
use bp_trace::{io, BranchKind, BranchProfile, TraceStats};

const USAGE: &str = "usage: bpt <info|head|biases|verify> FILE [N]";

/// A parsed command line: the subcommand, its file, and for `head` and
/// `biases` how many rows to print.
enum Command {
    Info(String),
    Head(String, usize),
    Biases(String, usize),
    Verify(String),
}

/// Parses `bpt`'s arguments (without the program name). A row count
/// that is not a non-negative integer, and any word past the ones a
/// subcommand reads, is a usage error.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, RunError> {
    let args: Vec<String> = args.into_iter().collect();
    let (cmd, path, rest) = match &args[..] {
        [flag, ..] if flag == "--help" || flag == "-h" => return Err(RunError::Help),
        [cmd, path, rest @ ..] => (cmd.as_str(), path.clone(), rest),
        _ => return Err(RunError::Usage(String::new())),
    };
    let rows = match rest {
        [] => 20,
        [n] if matches!(cmd, "head" | "biases") => n
            .parse()
            .map_err(|_| RunError::Usage(format!("N needs a non-negative integer, got {n:?}")))?,
        _ => return Err(RunError::Usage(format!("too many arguments for {cmd}"))),
    };
    Ok(match cmd {
        "info" => Command::Info(path),
        "head" => Command::Head(path, rows),
        "biases" => Command::Biases(path, rows),
        "verify" => Command::Verify(path),
        _ => return Err(RunError::Usage(String::new())),
    })
}

/// Opens `path` and decodes it with `decode`; either failure names the file.
fn open<T>(
    path: &str,
    decode: impl FnOnce(BufReader<File>) -> Result<T, io::TraceIoError>,
) -> Result<T, RunError> {
    let file =
        File::open(path).map_err(|e| RunError::Failed(format!("cannot open {path}: {e}")))?;
    decode(BufReader::new(file)).map_err(|e| RunError::Failed(format!("cannot decode {path}: {e}")))
}

fn kind_letter(kind: BranchKind) -> char {
    match kind {
        BranchKind::Conditional => 'C',
        BranchKind::Call => 'L',
        BranchKind::Return => 'R',
        BranchKind::Jump => 'J',
    }
}

fn cmd_info(path: &str, out: &mut dyn Write) -> Result<(), RunError> {
    let trace = open(path, io::read_trace)?;
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
    )?;
    Ok(())
}

fn cmd_head(path: &str, n: usize, out: &mut dyn Write) -> Result<(), RunError> {
    let mut reader = open(path, io::ChunkReader::new)?;
    writeln!(out, "{:<4} {:>12} {:>12} kind taken", "#", "pc", "target")?;
    let mut chunk = Vec::new();
    let mut i = 0;
    while i < n
        && reader
            .next_chunk(&mut chunk)
            .map_err(|e| RunError::Failed(format!("record {i}: {e}")))?
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
            )?;
            i += 1;
        }
    }
    Ok(())
}

fn cmd_biases(path: &str, n: usize, out: &mut dyn Write) -> Result<(), RunError> {
    let trace = open(path, io::read_trace)?;
    let profile = BranchProfile::of(&trace);
    let mut rows: Vec<_> = profile.iter().collect();
    rows.sort_by_key(|(pc, e)| (std::cmp::Reverse(e.executions), *pc));
    writeln!(
        out,
        "{:>12} {:>10} {:>7} {:>7}",
        "pc", "execs", "taken%", "bias%"
    )?;
    for (pc, e) in rows.into_iter().take(n) {
        writeln!(
            out,
            "{pc:>#12x} {:>10} {:>7.2} {:>7.2}",
            e.executions,
            e.taken_rate() * 100.0,
            e.bias() * 100.0
        )?;
    }
    writeln!(
        out,
        "(ideal static accuracy over all branches: {:.2}%)",
        profile.ideal_static_accuracy() * 100.0
    )?;
    Ok(())
}

fn cmd_verify(path: &str, out: &mut dyn Write) -> Result<(), RunError> {
    let mut reader = open(path, io::ChunkReader::new)?;
    let mut chunk = Vec::new();
    // The reader checks the end marker and the footer's record count.
    let corrupt = |at, e| RunError::Failed(format!("corrupt after record {at}: {e}"));
    while reader
        .next_chunk(&mut chunk)
        .map_err(|e| corrupt(reader.decoded(), e))?
    {}
    Ok(writeln!(out, "ok: {} records", reader.decoded())?)
}

fn run(cmd: Command, out: &mut dyn Write) -> Result<(), RunError> {
    match cmd {
        Command::Info(path) => cmd_info(&path, out)?,
        Command::Head(path, n) => cmd_head(&path, n, out)?,
        Command::Biases(path, n) => cmd_biases(&path, n, out)?,
        Command::Verify(path) => cmd_verify(&path, out)?,
    }
    Ok(out.flush()?)
}

fn main() -> ExitCode {
    let mut stdout = std::io::stdout();
    finish(
        parse(std::env::args().skip(1)).and_then(|cmd| run(cmd, &mut stdout)),
        USAGE,
    )
}
