//! The one command-line reader of the workspace's binaries: `scenario-run`,
//! `campaign-run`, `service-run`, `campaign-report`, `chaos-run` and
//! `trace-report`.
//!
//! A binary declares its [`Flags`], a table of `(flag, takes_value)`, and
//! reads its command line against it strictly:
//!
//! * an argument that is not in the table is an "unexpected argument"
//!   (unless the binary takes positionals and it is one, see
//!   [`Cli::read_files`]);
//! * each flag may be given at most once ("given twice");
//! * a value must be present and must not itself be a flag ("needs a
//!   value").
//!
//! Every error prints `<program>: <reason>` and the usage and exits 2, and
//! so does a value that does not parse ([`Args::parsed`]) or a missing
//! required flag ([`Args::required`]); `--help` or `-h` anywhere prints the
//! usage and exits 2.  A binary reads its whole command line before it
//! runs anything or writes a file.

use std::fmt::Display;
use std::str::FromStr;

/// A binary's flag table: each flag with whether it takes a value.
pub type Flags = [(&'static str, bool)];

/// A binary's name, its usage text and its command line.
pub struct Cli {
    program: &'static str,
    usage: &'static str,
    /// The arguments after the program name.
    raw: Vec<String>,
}

impl Cli {
    /// The command line of `program`, whose usage text is `usage`.  With
    /// `--help` or `-h` anywhere in it, prints the usage and exits 2.
    pub fn new(program: &'static str, usage: &'static str) -> Self {
        let cli = Self {
            program,
            usage,
            raw: std::env::args().skip(1).collect(),
        };
        if cli.raw.iter().any(|arg| arg == "--help" || arg == "-h") {
            eprintln!("{usage}");
            std::process::exit(2);
        }
        cli
    }

    /// The arguments after the program name, as given.
    pub fn raw(&self) -> &[String] {
        &self.raw
    }

    /// The command line read against `flags`, with no positional argument.
    pub fn read(&self, flags: &Flags) -> Args<'_> {
        self.parse(flags, None)
    }

    /// The command line read against `flags`, taking each argument outside
    /// a flag's value that ends in `suffix` as a positional.
    pub fn read_files(&self, flags: &Flags, suffix: &str) -> Args<'_> {
        self.parse(flags, Some(suffix))
    }

    fn parse(&self, flags: &Flags, suffix: Option<&str>) -> Args<'_> {
        let (given, positionals) = parse(&self.raw, flags, suffix).unwrap_or_else(|e| self.fail(e));
        Args {
            cli: self,
            given,
            positionals,
        }
    }

    /// Prints `<program>: <reason>` and the usage, and exits 2.
    pub fn fail(&self, reason: impl Display) -> ! {
        eprintln!("{}: {reason}\n{}", self.program, self.usage);
        std::process::exit(2)
    }
}

/// The flags given, each with its value, and the positionals.
type Given = (Vec<(&'static str, Option<String>)>, Vec<String>);

fn parse(raw: &[String], flags: &Flags, suffix: Option<&str>) -> Result<Given, String> {
    let (mut given, mut positionals) = (Vec::<(&str, Option<String>)>::new(), Vec::new());
    let mut rest = raw.iter();
    while let Some(arg) = rest.next() {
        let Some(&(flag, takes_value)) = flags.iter().find(|(f, _)| f == arg) else {
            match suffix {
                Some(suffix) if arg.ends_with(suffix) && !arg.starts_with("--") => {
                    positionals.push(arg.clone());
                    continue;
                }
                _ => return Err(format!("unexpected argument `{arg}`")),
            }
        };
        if given.iter().any(|(f, _)| *f == flag) {
            return Err(format!("{flag} given twice"));
        }
        let value = match takes_value {
            false => None,
            true => match rest.next() {
                Some(value) if !value.starts_with("--") => Some(value.clone()),
                _ => return Err(format!("{flag} needs a value")),
            },
        };
        given.push((flag, value));
    }
    Ok((given, positionals))
}

/// A command line read against its flag table.
pub struct Args<'a> {
    cli: &'a Cli,
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Args<'_> {
    /// The value of `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The value of `flag` parsed, if it was given; a value that does not
    /// parse is an error (exit 2).
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Option<T> {
        let raw = self.value(flag)?;
        let parsed = raw.parse().ok();
        Some(parsed.unwrap_or_else(|| self.cli.fail(format!("invalid value for {flag}: {raw}"))))
    }

    /// The value of `flag`, which must be given (else exit 2).
    pub fn required(&self, flag: &str) -> &str {
        self.value(flag)
            .unwrap_or_else(|| self.cli.fail(format!("{flag} is required")))
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The positionals, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &Flags = &[("--in", true), ("--check", false)];

    fn read(raw: &[&str], suffix: Option<&str>) -> Result<Given, String> {
        let raw: Vec<String> = raw.iter().map(|arg| arg.to_string()).collect();
        parse(&raw, FLAGS, suffix)
    }

    #[test]
    fn each_flag_once_with_its_value() {
        let given = vec![("--check", None), ("--in", Some("a.jsonl".to_string()))];
        assert_eq!(
            read(&["--check", "--in", "a.jsonl"], None),
            Ok((given, Vec::new()))
        );
    }

    #[test]
    fn what_cannot_be_read_as_written_is_an_error() {
        for (raw, reason) in [
            (&["--in", "a", "--in", "b"][..], "--in given twice"),
            (&["--check", "--check"], "--check given twice"),
            (&["--in", "--check"], "--in needs a value"),
            (&["--in"], "--in needs a value"),
            (&["--out", "x"], "unexpected argument `--out`"),
            (&["a.toml"], "unexpected argument `a.toml`"),
        ] {
            assert_eq!(read(raw, None), Err(reason.to_string()), "{raw:?}");
        }
    }

    #[test]
    fn positionals_are_the_arguments_with_the_suffix() {
        let given = vec![("--in", Some("x.toml".to_string()))];
        let positionals = vec!["b.toml".to_string(), "a.toml".to_string()];
        assert_eq!(
            read(&["b.toml", "--in", "x.toml", "a.toml"], Some(".toml")),
            Ok((given, positionals))
        );
        for arg in ["a.json", "--a.toml"] {
            let reason = format!("unexpected argument `{arg}`");
            assert_eq!(read(&[arg], Some(".toml")), Err(reason));
        }
    }
}
