//! The line format the two scenario files share — fault plans
//! (`crate::fault`) and cluster profiles (`crate::machine`): one
//! `key [rank] = value` entry per line, `#` starts a comment, blank lines
//! are skipped.

/// One `key [rank] = value` line.
pub(crate) struct Entry<'a> {
    /// 1-based line number, for error messages.
    line: usize,
    /// Everything left of the `=`, trimmed.
    lhs: &'a str,
    pub(crate) key: &'a str,
    /// The word after the key, if any: a rank.
    pub(crate) arg: Option<&'a str>,
    /// Everything right of the `=`, trimmed.
    pub(crate) value: &'a str,
}

impl Entry<'_> {
    /// The error for a value that does not parse; `what` names it.
    pub(crate) fn invalid(&self, what: &str) -> String {
        self.error(format_args!("invalid {what} `{}`", self.value))
    }

    /// The rank between the key and the `=`.
    pub(crate) fn rank(&self) -> Result<usize, String> {
        let rank = self.arg.unwrap_or("");
        rank.parse()
            .map_err(|_| self.error(format_args!("invalid rank `{rank}`")))
    }

    /// The error for a key (or key/rank shape) the format does not have.
    pub(crate) fn unknown_key(&self) -> String {
        self.error(format_args!("unknown key `{}`", self.lhs))
    }

    /// `message`, prefixed with this entry's line number.
    pub(crate) fn error(&self, message: impl std::fmt::Display) -> String {
        format!("line {}: {message}", self.line)
    }
}

/// The entries of a scenario file, in order; a line that is neither blank,
/// comment nor `… = …` is an error.
pub(crate) fn entries(text: &str) -> impl Iterator<Item = Result<Entry<'_>, String>> {
    text.lines().enumerate().filter_map(|(index, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return None;
        }
        let Some((lhs, value)) = line.split_once('=') else {
            return Some(Err(format!("line {}: expected `key = value`", index + 1)));
        };
        let lhs = lhs.trim();
        let mut words = lhs.split_whitespace();
        Some(Ok(Entry {
            line: index + 1,
            lhs,
            key: words.next().unwrap_or(""),
            arg: words.next(),
            value: value.trim(),
        }))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;

    const KEYS: [&str; 12] = [
        "seed",
        "drop_rate",
        "delay_rate",
        "delay",
        "rto",
        "detect_timeout",
        "slowdown",
        "crash",
        "machine",
        "speed",
        "bogus",
        "",
    ];
    const RANKS: [&str; 6] = ["", "", "", "0", "3", "x"];
    const SEPARATORS: [&str; 4] = [" = ", " = ", "=", " "];
    const VALUES: [&str; 24] = [
        "0",
        "1",
        "7",
        "0.5",
        "0.9",
        "1.5",
        "2",
        "1e-4",
        "0.25",
        "3 # c",
        "-0",
        "-1",
        "nan",
        "inf",
        "1e999",
        "18446744073709551616",
        "time:0.5",
        "time:nan",
        "pass:2",
        "pass:0",
        "t3e",
        "sp2",
        "é",
        "",
    ];

    /// Scenario-file text, one `key [rank] = value` per line, each part
    /// drawn from what the two formats accept plus what they must refuse
    /// (the vendored proptest has no string strategies). Lines built this
    /// way reach the accepting paths of both parsers; random bytes would
    /// almost never.
    pub(crate) fn fuzz_text() -> impl Strategy<Value = String> {
        let line = (0..KEYS.len() * RANKS.len() * SEPARATORS.len() * VALUES.len()).prop_map(|x| {
            let (key, x) = (KEYS[x % KEYS.len()], x / KEYS.len());
            let (rank, x) = (RANKS[x % RANKS.len()], x / RANKS.len());
            let (separator, x) = (SEPARATORS[x % SEPARATORS.len()], x / SEPARATORS.len());
            format!("{key} {rank}{separator}{}\n", VALUES[x])
        });
        prop::collection::vec(line, 1..4).prop_map(|lines| lines.concat())
    }

    #[test]
    fn entries_split_key_rank_and_value() {
        let text = "# header\n\n  speed 3 = 2.5 # slow\nseed=7\noops\n";
        let entries: Vec<_> = super::entries(text).collect();
        assert_eq!(entries.len(), 3);
        let speed = entries[0].as_ref().expect("an entry");
        assert_eq!(
            (speed.key, speed.arg, speed.value),
            ("speed", Some("3"), "2.5")
        );
        assert_eq!(speed.rank(), Ok(3));
        assert_eq!(speed.invalid("factor"), "line 3: invalid factor `2.5`");
        assert_eq!(speed.unknown_key(), "line 3: unknown key `speed 3`");
        let seed = entries[1].as_ref().expect("an entry");
        assert_eq!((seed.key, seed.arg, seed.value), ("seed", None, "7"));
        assert_eq!(seed.rank(), Err("line 4: invalid rank ``".into()));
        let oops = entries[2].as_ref().err().expect("no `=`");
        assert_eq!(oops, "line 5: expected `key = value`");
    }
}
