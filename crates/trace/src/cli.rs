//! The shell every binary in the workspace shares.
//!
//! Each binary is a thin shell: it parses its command line, makes one
//! `run` on stdout, then calls [`finish`], the one place that prints
//! usage or `error:` lines and picks the exit code. Every other stderr
//! line goes through [`note`], so a closed or full stderr changes
//! neither a binary's stdout nor its exit code.

use std::fmt;
use std::io::Write;
use std::process::ExitCode;

/// Why a command-line run stopped before it finished.
#[derive(Debug)]
pub enum RunError {
    /// `--help` or `-h`: the usage text, exit 0.
    Help,
    /// A bad command line: an `error:` line (none if empty), the usage text, exit 1.
    Usage(String),
    /// Output could not be written (a full disk, a closed pipe), exit 1.
    Output(std::io::Error),
    /// The run failed: an `error:` line (none if empty: it reported why), exit 1.
    Failed(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Help => f.write_str("help requested"),
            RunError::Usage(why) | RunError::Failed(why) => f.write_str(why),
            RunError::Output(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

/// A failed write to the run's output.
impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Output(e)
    }
}

/// Reports a run's outcome on stderr and picks the exit code: 0 for
/// success and for `--help` (which prints `usage`), 1 otherwise, after
/// the `error:` line and, for a bad command line, `usage`.
pub fn finish(result: Result<(), RunError>, usage: &str) -> ExitCode {
    let Err(err) = result else {
        return ExitCode::SUCCESS;
    };
    if matches!(err, RunError::Help) {
        note(usage);
        return ExitCode::SUCCESS;
    }
    let why = err.to_string();
    if !why.is_empty() {
        note(format_args!("error: {why}"));
    }
    if matches!(err, RunError::Usage(_)) {
        note(usage);
    }
    ExitCode::FAILURE
}

/// Writes `line` and a newline to stderr, dropping it if stderr cannot
/// be written (a closed pipe, a full disk): a diagnostic never changes a
/// run's output or exit code.
pub fn note(line: impl fmt::Display) {
    let _ = writeln!(std::io::stderr(), "{line}");
}
