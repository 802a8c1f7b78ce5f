//! The shell every binary in the workspace shares.
//!
//! Each binary is a thin shell: it reads its command line with
//! [`Flags`], makes one `run` on stdout, then calls [`finish`], the one
//! place that prints usage or `error:` lines and picks the exit code.
//! Every other stderr line goes through [`note`], so a closed or full
//! stderr changes neither a binary's stdout nor its exit code.
//!
//! [`Flags`] is the one flag reader. A command declares the flags it
//! reads, each a [`Flag`]; the reader refuses any other flag, a value
//! that is missing or is itself a `--flag`, and a value that does not
//! parse or fails its check, each as a usage error that names the flag.
//! Flags may come in any order, the last value of a repeated flag wins
//! ([`Flags::all`] keeps every value of a repeatable one), and `-h` or
//! `--help` anywhere is a help request. The flags several binaries share
//! are declared here once: [`SEED`], [`TARGET`] and [`JOBS`].

use std::fmt;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

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

/// A flag a command declares: `--name` alone (a switch) or `--name VALUE`.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    name: &'static str,
    takes_value: bool,
}

impl Flag {
    /// A flag followed by its value.
    pub const fn value(name: &'static str) -> Flag {
        Flag {
            name,
            takes_value: true,
        }
    }

    /// A flag that stands alone.
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            takes_value: false,
        }
    }
}

/// `--seed N`: the workload seed ([`Flags::seed`]).
pub const SEED: Flag = Flag::value("--seed");
/// `--target N[k|m|b]`: the branch count per trace ([`Flags::target`]).
pub const TARGET: Flag = Flag::value("--target");
/// `--jobs N`: the worker count ([`Flags::jobs`]).
pub const JOBS: Flag = Flag::value("--jobs");

/// A command line read against the flags its command declares.
#[derive(Debug)]
pub struct Flags {
    /// The words that are neither flags nor flag values, in order.
    words: Vec<String>,
    /// Each flag given, with its value if it takes one, in order.
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Reads `args` (without the program name) against `declared`. A
    /// word that begins with `-` is a flag; a value flag takes the next
    /// word, which may not begin with `--`.
    ///
    /// # Errors
    ///
    /// [`RunError::Help`] when any word is `-h` or `--help`. Otherwise a
    /// usage error for the first flag `declared` does not list (`unknown
    /// argument`) or that lacks its value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        declared: &[Flag],
    ) -> Result<Flags, RunError> {
        let args: Vec<String> = args.into_iter().collect();
        if args.iter().any(|a| a == "-h" || a == "--help") {
            return Err(RunError::Help);
        }
        let mut flags = Flags {
            words: Vec::new(),
            given: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                flags.words.push(arg);
                continue;
            }
            let Some(flag) = declared.iter().find(|f| f.name == arg) else {
                return Err(RunError::Usage(format!("unknown argument {arg}")));
            };
            let value = if flag.takes_value {
                match args.next() {
                    None => return Err(RunError::Usage(format!("{arg} needs a value"))),
                    Some(v) if v.starts_with("--") => {
                        return Err(RunError::Usage(format!("{arg} needs a value, got {v:?}")))
                    }
                    value => value,
                }
            } else {
                None
            };
            flags.given.push((flag.name, value));
        }
        Ok(flags)
    }

    /// Reads `args` for a binary whose first word names one of its
    /// `commands`, each listed with the flags it reads; the command's
    /// word is not among [`Flags::words`].
    ///
    /// # Errors
    ///
    /// As [`Flags::parse`] against every command's flags; then a usage
    /// error with no message when no command is given, and one naming an
    /// unknown command or a flag the command does not read.
    pub fn parse_command(
        args: impl IntoIterator<Item = String>,
        commands: &[(&'static str, &[Flag])],
    ) -> Result<(&'static str, Flags), RunError> {
        let every: Vec<Flag> = commands
            .iter()
            .flat_map(|(_, flags)| flags.iter().copied())
            .collect();
        let mut flags = Flags::parse(args, &every)?;
        if flags.words.is_empty() {
            return Err(RunError::Usage(String::new()));
        }
        let word = flags.words.remove(0);
        let Some(&(command, reads)) = commands.iter().find(|(name, _)| *name == word) else {
            return Err(RunError::Usage(format!("unknown command: {word}")));
        };
        let unread = flags
            .given
            .iter()
            .find(|(name, _)| !reads.iter().any(|f| f.name == *name));
        if let Some((name, _)) = unread {
            return Err(RunError::Usage(format!("{command} does not take {name}")));
        }
        Ok((command, flags))
    }

    /// The words that are neither flags nor their values, in order.
    ///
    /// # Errors
    ///
    /// A usage error naming the first word past `max`.
    pub fn words(&self, max: usize) -> Result<&[String], RunError> {
        match self.words.get(max) {
            Some(extra) => Err(RunError::Usage(format!("unknown argument {extra}"))),
            None => Ok(&self.words),
        }
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| *flag == name)
    }

    /// Every value given to `name`, in order.
    pub fn texts<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.given
            .iter()
            .filter(move |(flag, _)| *flag == name)
            .filter_map(|(_, value)| value.as_deref())
    }

    /// The last value given to `name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        let last = self.given.iter().rev().find(|(flag, _)| *flag == name);
        last.and_then(|(_, value)| value.as_deref())
    }

    /// Every value given to `name`, in order, each read by `parse`.
    ///
    /// # Errors
    ///
    /// A usage error for the first value `parse` refuses: `{name} needs
    /// {needs}, got "{value}"`.
    pub fn all<T>(
        &self,
        name: &str,
        needs: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, RunError> {
        self.texts(name)
            .map(|v| {
                parse(v).ok_or_else(|| RunError::Usage(format!("{name} needs {needs}, got {v:?}")))
            })
            .collect()
    }

    /// The last value given to `name`, read by `parse`.
    ///
    /// # Errors
    ///
    /// As [`Flags::all`]: every value given must read.
    pub fn get<T>(
        &self,
        name: &str,
        needs: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, RunError> {
        Ok(self.all(name, needs, parse)?.pop())
    }

    /// The last value given to `name`, as a `T` that passes `ok`.
    ///
    /// # Errors
    ///
    /// As [`Flags::all`].
    pub fn value<T: FromStr>(
        &self,
        name: &str,
        needs: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, RunError> {
        self.get(name, needs, |v| v.parse().ok().filter(|x| ok(x)))
    }

    /// The last value given to `name`, as an unsigned integer.
    ///
    /// # Errors
    ///
    /// As [`Flags::all`].
    pub fn u64(&self, name: &str) -> Result<Option<u64>, RunError> {
        self.value(name, "an unsigned integer", |_| true)
    }

    /// The last value given to `name`, as an unsigned 32-bit integer.
    ///
    /// # Errors
    ///
    /// As [`Flags::all`].
    pub fn u32(&self, name: &str) -> Result<Option<u32>, RunError> {
        self.value(name, "an unsigned integer below 2^32", |_| true)
    }

    /// The value of [`SEED`].
    ///
    /// # Errors
    ///
    /// As [`Flags::all`].
    pub fn seed(&self) -> Result<Option<u64>, RunError> {
        self.u64(SEED.name)
    }

    /// The value of [`TARGET`], read by [`parse_target`].
    ///
    /// # Errors
    ///
    /// As [`Flags::all`].
    pub fn target(&self) -> Result<Option<usize>, RunError> {
        let needs = "a branch count in 1..=100b (e.g. 500k, 2m, 1b)";
        self.get(TARGET.name, needs, parse_target)
    }

    /// The value of [`JOBS`]: a worker count of at least 1.
    ///
    /// # Errors
    ///
    /// As [`Flags::all`].
    pub fn jobs(&self) -> Result<Option<usize>, RunError> {
        self.value(JOBS.name, "a worker count of at least 1", |&n| n >= 1)
    }
}

/// Largest accepted `--target` value: 100 billion branches. Past this the
/// request is almost certainly a typo (at ~10⁸ branches/s that is a
/// multi-day run), so it is rejected with a clear error instead of being
/// attempted.
pub const MAX_TARGET_BRANCHES: u64 = 100_000_000_000;

/// Parses a branch-count target: plain digits (underscore separators
/// allowed) with an optional `k`/`m`/`b` suffix — `200_000`, `2m`,
/// `100m`, `1b`. Case-insensitive. `None` for anything else, for zero,
/// and for anything above [`MAX_TARGET_BRANCHES`].
pub fn parse_target(s: &str) -> Option<usize> {
    let t = s.trim().to_ascii_lowercase();
    let (num, mult): (&str, u64) = if let Some(p) = t.strip_suffix('k') {
        (p, 1_000)
    } else if let Some(p) = t.strip_suffix('m') {
        (p, 1_000_000)
    } else if let Some(p) = t.strip_suffix('b') {
        (p, 1_000_000_000)
    } else {
        (t.as_str(), 1)
    };
    let digits: String = num.chars().filter(|&c| c != '_').collect();
    if digits.is_empty() || !digits.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let total = digits.parse::<u64>().ok()?.checked_mul(mult)?;
    let total = (1..=MAX_TARGET_BRANCHES)
        .contains(&total)
        .then_some(total)?;
    usize::try_from(total).ok()
}

/// The default worker count of the binaries that take `--jobs`: one per
/// available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_plain_and_suffixed_targets() {
        assert_eq!(parse_target("200000"), Some(200_000));
        assert_eq!(parse_target("200_000"), Some(200_000));
        assert_eq!(parse_target("500k"), Some(500_000));
        assert_eq!(parse_target("2m"), Some(2_000_000));
        assert_eq!(parse_target("100M"), Some(100_000_000));
        assert_eq!(parse_target("1b"), Some(1_000_000_000));
        assert_eq!(parse_target(" 10m "), Some(10_000_000));
    }

    #[test]
    fn rejects_garbage_zero_and_absurd_targets() {
        for bad in ["", "m", "12q", "1.5m", "-3", "10mm", "+5", "0", "0k"] {
            assert_eq!(parse_target(bad), None, "{bad:?} must be rejected");
        }
        assert_eq!(parse_target("100b"), Some(100_000_000_000));
        for absurd in ["101b", "999999b", "18446744073709551615b"] {
            assert_eq!(parse_target(absurd), None, "{absurd:?} must be rejected");
        }
    }

    #[test]
    fn workload_flags_apply_or_explain_what_they_need() {
        let flags = Flags::parse(line("--target 2m --seed 7 --jobs 3"), &[SEED, TARGET, JOBS])
            .expect("the flags parse");
        assert_eq!(flags.target().unwrap(), Some(2_000_000));
        assert_eq!(flags.seed().unwrap(), Some(7));
        assert_eq!(flags.jobs().unwrap(), Some(3));
        let none = Flags::parse(line(""), &[SEED, TARGET]).expect("nothing parses");
        assert_eq!((none.seed().unwrap(), none.target().unwrap()), (None, None));
        for (args, why) in [
            ("--seed x", r#"--seed needs an unsigned integer, got "x""#),
            (
                "--target 101b",
                r#"--target needs a branch count in 1..=100b (e.g. 500k, 2m, 1b), got "101b""#,
            ),
            ("--seed 1 --target 0 --target 2m", "--target needs"),
        ] {
            let flags = Flags::parse(line(args), &[SEED, TARGET]).expect("the flags parse");
            let err = flags.seed().and(flags.target()).unwrap_err().to_string();
            assert!(err.starts_with(why), "{args}: {err}");
        }
    }

    #[test]
    fn the_reader_refuses_what_a_command_cannot_read() {
        const COMMANDS: &[(&str, &[Flag])] = &[
            (
                "gen",
                &[SEED, JOBS, Flag::value("--out"), Flag::switch("--all")],
            ),
            ("laws", &[SEED]),
        ];
        let read = |args: &str| -> Result<(), RunError> {
            let (_, flags) = Flags::parse_command(line(args), COMMANDS)?;
            flags.words(0)?;
            flags.seed()?;
            flags.jobs()?;
            Ok(())
        };
        // `None`: a help request.
        for (args, error) in [
            ("gen --out", Some("--out needs a value")),
            (
                "gen --out --seed 1",
                Some(r#"--out needs a value, got "--seed""#),
            ),
            (
                "gen --all --out --all",
                Some(r#"--out needs a value, got "--all""#),
            ),
            (
                "gen --seed x",
                Some(r#"--seed needs an unsigned integer, got "x""#),
            ),
            (
                "gen --jobs 1 --jobs 0",
                Some(r#"--jobs needs a worker count of at least 1, got "0""#),
            ),
            ("gen --bogus 1", Some("unknown argument --bogus")),
            ("gen -x", Some("unknown argument -x")),
            ("laws --jobs 2", Some("laws does not take --jobs")),
            ("--seed 1 laws --out x", Some("laws does not take --out")),
            ("laws extra", Some("unknown argument extra")),
            ("frob", Some("unknown command: frob")),
            ("--seed 1", Some("")),
            ("-h", None),
            ("--help gen --bogus", None),
            ("gen --out --help", None),
            ("laws --seed x -h", None),
        ] {
            match (read(args), error) {
                (Err(RunError::Usage(why)), Some(want)) => assert_eq!(why, want, "{args}"),
                (Err(RunError::Help), None) => {}
                (other, _) => panic!("{args}: {other:?}, expected {error:?}"),
            }
        }

        // Flags come in any order, around and before the command.
        let (command, flags) =
            Flags::parse_command(line("--seed 3 gen --all --out ./--x --jobs 2"), COMMANDS)
                .expect("the flags parse");
        assert_eq!(command, "gen");
        assert_eq!(flags.seed().unwrap(), Some(3));
        assert_eq!(flags.jobs().unwrap(), Some(2));
        assert_eq!(flags.text("--out"), Some("./--x"));
        assert!(flags.switch("--all"));
        assert_eq!(flags.words(0).unwrap(), &[] as &[String]);
    }

    #[test]
    fn repeatable_flags_keep_every_value() {
        let flags = Flags::parse(
            line("--assert a=1 x --assert b=2 y"),
            &[Flag::value("--assert")],
        )
        .expect("the flags parse");
        let split = |v: &str| v.split_once('=').map(|(l, r)| (l.to_owned(), r.to_owned()));
        let all = flags.all("--assert", "LABEL=VALUE", split).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(flags.text("--assert"), Some("b=2"));
        assert_eq!(flags.words(2).unwrap(), ["x", "y"]);
        let bad = Flags::parse(line("--assert a"), &[Flag::value("--assert")]).unwrap();
        let err = bad.all("--assert", "LABEL=VALUE", split).unwrap_err();
        assert_eq!(err.to_string(), r#"--assert needs LABEL=VALUE, got "a""#);
    }
}
