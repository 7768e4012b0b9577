//! Library backing the `lumen6` CLI: command parsing and execution, kept in
//! a library so integration tests can drive the tool without spawning
//! processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
mod soak;

use lumen6_serve::Flags;
use std::fmt;

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage / unknown flags; the string is the message for stderr.
    Usage(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Trace decoding failure.
    Codec(lumen6_trace::CodecError),
    /// Detection-session failure (corrupt checkpoint, restore mismatch).
    Session(lumen6_detect::SessionError),
    /// The serve daemon ran to completion, but at least one tenant ended
    /// in the `failed` state; the daemon's exit must reflect that.
    Serve(String),
    /// A `soak` endurance run completed but broke an invariant (report or
    /// checkpoint divergence after kill/resume, RSS over the bound, fewer
    /// kills injected than requested), or a child run failed outright.
    Soak(String),
    /// A broken internal invariant (missing report level, report
    /// serialization failure) — a bug, surfaced as an error rather than
    /// a panic so a scripted pipeline sees a diagnosable exit.
    Internal(String),
    /// A `detect --checkpoint ... --stop-after N` run stopped deliberately
    /// after writing its checkpoint. Not a failure: the binary maps this to
    /// exit code 3 so resume tests can tell "stopped" from "crashed".
    Stopped {
        /// Checkpoints written over the session's whole life.
        checkpoints_written: u64,
        /// Records ingested over the session's whole life.
        records_done: u64,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Codec(e) => write!(f, "trace error: {e}"),
            CliError::Session(e) => write!(f, "{e}"),
            CliError::Serve(m) => write!(f, "serve: {m}"),
            CliError::Soak(m) => write!(f, "soak: {m}"),
            CliError::Internal(m) => write!(f, "internal error: {m}"),
            CliError::Stopped {
                checkpoints_written,
                records_done,
            } => write!(
                f,
                "stopped after {checkpoints_written} checkpoints ({records_done} records \
                 ingested); re-run with the same --checkpoint to resume"
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<lumen6_trace::CodecError> for CliError {
    fn from(e: lumen6_trace::CodecError) -> Self {
        CliError::Codec(e)
    }
}

impl From<lumen6_detect::SessionError> for CliError {
    fn from(e: lumen6_detect::SessionError) -> Self {
        match e {
            lumen6_detect::SessionError::Io(e) => CliError::Io(e),
            lumen6_detect::SessionError::Codec(e) => CliError::Codec(e),
            other => CliError::Session(other),
        }
    }
}

/// Minimal flag parser: `--key value` pairs plus positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses a raw argument list. A flag that [`commands::USAGE`] writes a
    /// value after (`--days N`) takes the next argument; everything else
    /// starting with `--` is a switch.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let mut out = Args::default();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if commands::takes_value(name) {
                    let v = it.next().ok_or_else(|| {
                        CliError::Usage(format!("flag --{name} requires a value"))
                    })?;
                    out.flags.push((name.to_string(), Some(v)));
                } else {
                    out.flags.push((name.to_string(), None));
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Every flag in argv order, as the config key tables read them.
    pub fn flags(&self) -> &Flags {
        &self.flags
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// A flag's raw value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A flag parsed to any `FromStr` type, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid value for --{name}: {v:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(v.iter().map(std::string::ToString::to_string)).unwrap()
    }

    #[test]
    fn parses_positional_and_flags() {
        let a = args(&[
            "generate", "cdn", "--seed", "7", "--small", "--out", "x.l6tr",
        ]);
        assert_eq!(a.positional(), ["generate", "cdn"]);
        assert!(a.has("small"));
        assert!(!a.has("large"));
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.get_parsed::<u64>("days", 439).unwrap(), 439);
    }

    #[test]
    fn missing_value_is_usage_error() {
        let e = Args::parse(vec!["--seed".to_string()]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn bad_parse_is_usage_error() {
        let a = args(&["--seed", "zebra"]);
        assert!(a.get_parsed::<u64>("seed", 0).is_err());
    }
}
