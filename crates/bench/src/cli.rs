//! Minimal flag parsing for the experiment binaries (`--key value` pairs
//! and bare boolean switches like `--no-cache`).

use std::collections::BTreeMap;

/// Parsed `--key value` flags.
///
/// # Example
///
/// ```
/// use liteworp_bench::cli::Flags;
///
/// let f = Flags::parse(["--seeds", "30", "--no-cache", "--duration", "2000"]);
/// assert_eq!(f.get_u64("seeds", 10), 30);
/// assert_eq!(f.get_f64("duration", 500.0), 2000.0);
/// assert_eq!(f.get_u64("nodes", 100), 100); // default
/// assert!(f.get_bool("no-cache"));
/// assert!(!f.get_bool("verbose"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parses the process arguments (skipping `argv[0]`).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit iterator of arguments.
    ///
    /// A `--flag` immediately followed by another `--flag` (or by the end
    /// of the arguments) is a boolean switch and stores `"true"`.
    ///
    /// # Panics
    ///
    /// Panics on a bare positional argument, so typos fail loudly rather
    /// than silently running the default.
    pub fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut values = BTreeMap::new();
        let mut it = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                // lint: allow(P003) CLI usage error: aborting with the offending
                // argument is the intended bin-facing behavior
                .unwrap_or_else(|| panic!("expected --flag, got {arg:?}"))
                .to_string();
            let value = match it.peek() {
                // lint: allow(P002) invariant: peek() just returned Some
                Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                _ => "true".to_string(),
            };
            values.insert(key, value);
        }
        Flags { values }
    }

    /// Integer flag with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get_parsed(key).unwrap_or(default)
    }

    /// Float flag with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get_parsed(key).unwrap_or(default)
    }

    /// `usize` flag with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_parsed(key).unwrap_or(default)
    }

    /// Optional `usize` flag (`None` when absent).
    pub fn get_opt_usize(&self, key: &str) -> Option<usize> {
        self.get_parsed(key)
    }

    /// Optional `u64` flag (`None` when absent).
    pub fn get_opt_u64(&self, key: &str) -> Option<u64> {
        self.get_parsed(key)
    }

    /// Optional float flag (`None` when absent).
    pub fn get_opt_f64(&self, key: &str) -> Option<f64> {
        self.get_parsed(key)
    }

    /// Boolean switch: `true` when passed bare (`--no-cache`) or as
    /// `--no-cache true`; `false` when absent or `--no-cache false`.
    pub fn get_bool(&self, key: &str) -> bool {
        self.get_parsed(key).unwrap_or(false)
    }

    /// String flag (`None` when absent), e.g. `--observe out`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.values.get(key).map(|v| {
            v.parse()
                // lint: allow(P003) CLI usage error: abort with flag name and value
                .unwrap_or_else(|_| panic!("flag --{key}: cannot parse {v:?}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_overrides() {
        let f = Flags::parse(["--a", "1"]);
        assert_eq!(f.get_u64("a", 9), 1);
        assert_eq!(f.get_u64("b", 9), 9);
        assert_eq!(f.get_usize("a", 0), 1);
        assert_eq!(f.get_opt_usize("a"), Some(1));
        assert_eq!(f.get_opt_usize("b"), None);
        let f = Flags::parse(["--observe", "out"]);
        assert_eq!(f.get_str("observe"), Some("out"));
        assert_eq!(f.get_str("attack"), None);
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let f = Flags::parse(["--no-cache", "--jobs", "4", "--quiet"]);
        assert!(f.get_bool("no-cache"));
        assert!(f.get_bool("quiet"));
        assert!(!f.get_bool("verbose"));
        assert_eq!(f.get_usize("jobs", 1), 4);
        let f = Flags::parse(["--verbose", "false"]);
        assert!(!f.get_bool("verbose"));
    }

    #[test]
    #[should_panic(expected = "expected --flag")]
    fn positional_panics() {
        Flags::parse(["oops"]);
    }

    #[test]
    #[should_panic(expected = "cannot parse")]
    fn bad_number_panics() {
        Flags::parse(["--a", "zzz"]).get_u64("a", 0);
    }
}
