//! A small, strict `--key value` argument parser.
//!
//! Rules: every option is `--name value`; unknown options are errors;
//! required options must be present; every consumed option is tracked so
//! leftovers are reported.

use std::collections::HashMap;
use std::fmt;

/// A parse or validation failure, with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ArgError(pub(crate) String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--key value` options.
#[derive(Debug)]
pub(crate) struct Args {
    values: HashMap<String, String>,
    /// Every key asked for, given or not.
    pub(crate) consumed: std::cell::RefCell<Vec<String>>,
}

impl Args {
    /// Parses `argv` (after the subcommand) into key/value options.
    pub(crate) fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut values = HashMap::new();
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected an option, got {token:?}")))?;
            if key.is_empty() {
                return Err(ArgError("empty option name".into()));
            }
            let value = it
                .next()
                .ok_or_else(|| ArgError(format!("option --{key} needs a value")))?;
            if values.insert(key.to_owned(), value.clone()).is_some() {
                return Err(ArgError(format!("option --{key} given twice")));
            }
        }
        Ok(Args {
            values,
            consumed: std::cell::RefCell::new(Vec::new()),
        })
    }

    fn take(&self, key: &str) -> Option<&String> {
        self.consumed.borrow_mut().push(key.to_owned());
        self.values.get(key)
    }

    /// A required option parsed as `T`.
    pub(crate) fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let raw = self
            .take(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))?;
        raw.parse()
            .map_err(|_| ArgError(format!("--{key}: invalid value {raw:?}")))
    }

    /// An optional option parsed as `T`.
    pub(crate) fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        match self.take(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("--{key}: invalid value {raw:?}"))),
        }
    }

    /// An optional option with a default.
    pub(crate) fn or_default<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.optional(key)?.unwrap_or(default))
    }

    /// Errors if any provided option was never consumed (i.e. unknown).
    pub(crate) fn finish(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        for key in self.values.keys() {
            if !consumed.iter().any(|c| c == key) {
                return Err(ArgError(format!("unknown option --{key}")));
            }
        }
        Ok(())
    }
}

/// Convenience for building argv slices in tests.
#[cfg(test)]
pub(crate) fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs() {
        let a = Args::parse(&argv(&["--n", "100", "--seed", "7"])).unwrap();
        assert_eq!(a.required::<usize>("n").unwrap(), 100);
        assert_eq!(a.or_default::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.or_default::<u64>("missing", 42).unwrap(), 42);
        a.finish().unwrap();
    }

    #[test]
    fn missing_required() {
        let a = Args::parse(&argv(&[])).unwrap();
        let err = a.required::<usize>("n").unwrap_err();
        assert!(err.0.contains("--n"));
    }

    #[test]
    fn invalid_value() {
        let a = Args::parse(&argv(&["--n", "xyz"])).unwrap();
        assert!(a.required::<usize>("n").is_err());
    }

    #[test]
    fn missing_value() {
        assert!(Args::parse(&argv(&["--n"])).is_err());
    }

    #[test]
    fn duplicate_option() {
        assert!(Args::parse(&argv(&["--n", "1", "--n", "2"])).is_err());
    }

    #[test]
    fn non_option_token() {
        assert!(Args::parse(&argv(&["n", "1"])).is_err());
    }

    #[test]
    fn unknown_option_reported_by_finish() {
        let a = Args::parse(&argv(&["--n", "1", "--bogus", "2"])).unwrap();
        let _ = a.required::<usize>("n");
        let err = a.finish().unwrap_err();
        assert!(err.0.contains("--bogus"));
    }

    #[test]
    fn optional_distinguishes_absent_from_invalid() {
        let a = Args::parse(&argv(&["--k", "3"])).unwrap();
        assert_eq!(a.optional::<usize>("k").unwrap(), Some(3));
        assert_eq!(a.optional::<usize>("absent").unwrap(), None);
    }
}
