//! `name[:param[:param]]` — how an experiment file spells a fault kind or a
//! robust method together with its parameters (`boost:-10`, `multi-krum:3:5`).

use std::str::{FromStr, Split};

/// The `:`-separated parameters after a spec's name, taken in order.
pub(crate) struct Params<'a> {
    spec: &'a str,
    rest: Split<'a, char>,
}

/// Splits `spec` into its lowercased name and its parameters.
pub(crate) fn split(spec: &str) -> (String, Params<'_>) {
    let mut rest = spec.split(':');
    let name = rest.next().unwrap_or_default().to_ascii_lowercase();
    (name, Params { spec, rest })
}

impl Params<'_> {
    /// The next parameter, or `default` when the spec stops before it; an
    /// `Err` naming `what` when it is there but does not parse.
    pub(crate) fn next<T: FromStr>(&mut self, what: &str, default: T) -> Result<T, String> {
        let Some(text) = self.rest.next() else {
            return Ok(default);
        };
        let bad = |_| format!("{:?}: bad {what} {text:?}", self.spec);
        text.parse().map_err(bad)
    }

    /// Refuses parameters the name does not take.
    pub(crate) fn done(mut self) -> Result<(), String> {
        match self.rest.next() {
            None => Ok(()),
            Some(extra) => Err(format!("{:?}: stray parameter {extra:?}", self.spec)),
        }
    }
}
