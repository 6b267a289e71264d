//! Minimal `--key value` argument parsing for the experiment binaries.
//!
//! Hand-rolled so the workspace adds no CLI dependency; only the handful of
//! flags the harness needs are supported.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed `--key value` and `--flag` arguments.
///
/// # Examples
///
/// ```
/// use adafl_bench::args::Args;
///
/// let args = Args::parse(["--protocol", "sync", "--quick"]);
/// assert_eq!(args.get("protocol"), Some("sync"));
/// assert!(args.flag("quick"));
/// assert_eq!(args.get_usize("rounds", 40), 40);
/// args.reject_unknown();
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    /// Every key an accessor was asked for: what this binary reads.
    queried: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses the process arguments (skipping `argv[0]`).
    pub fn from_env() -> Self {
        Args::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list.
    ///
    /// A token starting with `--` followed by a non-`--` token is a
    /// key/value pair; a `--` token followed by another `--` token (or
    /// nothing) is a boolean flag. Other tokens are ignored.
    pub fn parse<I, S>(iter: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tokens: Vec<String> = iter.into_iter().map(Into::into).collect();
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            if let Some(key) = tokens[i].strip_prefix("--") {
                match tokens.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        values.insert(key.to_string(), v.clone());
                        i += 2;
                    }
                    _ => {
                        flags.push(key.to_string());
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        Args {
            values,
            flags,
            queried: RefCell::default(),
        }
    }

    /// String value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.queried.borrow_mut().insert(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    /// Whether the boolean flag `key` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.queried.borrow_mut().insert(key.to_string());
        self.flags.iter().any(|f| f == key)
    }

    /// Every passed `--key value` pair no accessor has asked for yet, sorted
    /// by key and marked as read: the pairs a binary forwards rather than
    /// interprets (`run_config`'s `--<field> <value>` overrides). Stray
    /// boolean flags stay for [`Args::reject_unknown`].
    pub fn rest(&self) -> Vec<(String, String)> {
        let mut queried = self.queried.borrow_mut();
        let mut rest: Vec<(String, String)> = self
            .values
            .iter()
            .filter(|(key, _)| !queried.contains(*key))
            .map(|(key, value)| (key.clone(), value.clone()))
            .collect();
        rest.sort_unstable();
        queried.extend(rest.iter().map(|(key, _)| key.clone()));
        rest
    }

    /// Rejects every passed `--key` no accessor has asked for, so a
    /// misspelt or unsupported flag stops the binary instead of silently
    /// running the defaults. Call it after the last flag is read and before
    /// the first run.
    ///
    /// # Panics
    ///
    /// Panics naming the first stray flag.
    pub fn reject_unknown(&self) {
        let queried = self.queried.borrow();
        let mut passed: Vec<&String> = self.values.keys().chain(&self.flags).collect();
        passed.sort_unstable();
        if let Some(stray) = passed.into_iter().find(|k| !queried.contains(*k)) {
            panic!("unknown flag --{stray}: this binary reads {queried:?}");
        }
    }

    /// `usize` value of `key`, or `default`.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparsable.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
        })
    }

    /// `u64` value of `key`, or `default`.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparsable.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
        })
    }

    /// Report path for the binaries that write one: `--out`, else
    /// `default`.
    pub fn out<'a>(&'a self, default: &'a str) -> &'a str {
        self.get("out").unwrap_or(default)
    }

    /// Worker-thread count for the run: the `--threads` flag, else the
    /// host's available parallelism. Always at least 1.
    ///
    /// # Panics
    ///
    /// Panics when `--threads` is present but unparsable.
    pub fn threads(&self) -> usize {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.get_usize("threads", host).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_value_and_flags() {
        let a = Args::parse(["--model", "cnn", "--quick", "--rounds", "20"]);
        assert_eq!(a.get("model"), Some("cnn"));
        assert_eq!(a.get_usize("rounds", 5), 20);
        assert!(a.flag("quick"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn rest_forwards_unread_pairs_but_not_flags() {
        let a = Args::parse([
            "--config", "x.json", "--seed", "7", "--rounds", "3", "--quick",
        ]);
        assert_eq!(a.get("config"), Some("x.json"));
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
        assert_eq!(a.rest(), vec![pair("rounds", "3"), pair("seed", "7")]);
        assert!(a.flag("quick"));
        a.reject_unknown();
    }

    #[test]
    fn trailing_flag() {
        let a = Args::parse(["--quick"]);
        assert!(a.flag("quick"));
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(Vec::<String>::new());
        assert_eq!(a.get_usize("rounds", 7), 7);
        assert_eq!(a.get_u64("budget", 9), 9);
    }

    #[test]
    #[should_panic(expected = "unknown flag --round:")]
    fn stray_flag_is_rejected_by_name() {
        // Queried but absent is fine ...
        let ok = Args::parse(["--quick"]);
        assert!(ok.flag("quick"));
        assert_eq!(ok.get_usize("rounds", 5), 5);
        ok.reject_unknown();
        // ... passed but never queried is not.
        let typo = Args::parse(["--round", "5"]);
        assert_eq!(typo.get_usize("rounds", 2), 2);
        typo.reject_unknown();
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        Args::parse(["--rounds", "abc"]).get_usize("rounds", 0);
    }
}
