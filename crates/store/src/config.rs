//! The run configuration: every `CWSP_*` environment variable the program
//! reads, parsed once into typed fields.
//!
//! [`get`] parses the environment on first use and keeps the result for the
//! life of the process. A value that does not parse is a [`ConfigError`]
//! naming the variable, the value and what was expected, and [`get`] exits
//! with status 2 on it; entry points call [`get`] before any work, so a bad
//! setting never silently falls back to a default. An empty value reads as
//! unset; `CWSP_*` names not listed here are ignored. [`RunConfig::from_vars`]
//! parses any `(name, value)` pairs, so tests never touch the environment.

use crate::spill::PAGE_BYTES;
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Event-ring capacity of `CWSP_TRACE` switched on without a size.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Where `CWSP_OBS` sends the engine metrics registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ObsDest {
    /// No dump (unset, or an off spelling).
    #[default]
    Off,
    /// One `[obs]` line on stderr (an on spelling).
    Stderr,
    /// The named file (a value containing `/`).
    File(PathBuf),
}

/// The typed run configuration. A `None` path means the default location,
/// resolved where the path is used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// `CWSP_FLIGHT`: attach the flight recorder to every new machine.
    pub flight: bool,
    /// `CWSP_FLIGHT_DIR`: keep flight journals as named files here.
    pub flight_dir: Option<PathBuf>,
    /// `CWSP_MEM_BUDGET`: resident pages per memory (`None`: unbounded).
    pub mem_budget: Option<usize>,
    /// `CWSP_SPILL_DIR`: spill file directory (default: system temp dir).
    pub spill_dir: Option<PathBuf>,
    /// `CWSP_CACHE`: whether the engine keeps its disk result store.
    pub cache: bool,
    /// `CWSP_CACHE_DIR`: the disk result store (default `results/cache`).
    pub cache_dir: Option<PathBuf>,
    /// `CWSP_HARNESS_JSON`: the harness report (default
    /// `results/BENCH_harness.json`).
    pub harness_json: Option<PathBuf>,
    /// `CWSP_JOBS`: host worker threads (`None`: available parallelism).
    pub jobs: Option<usize>,
    /// `CWSP_TIER_JSON`: file for the tier telemetry snapshot.
    pub tier_json: Option<PathBuf>,
    /// `CWSP_OBS`: where to dump the metrics registry after each figure.
    pub obs: ObsDest,
    /// `CWSP_TRACE`: event-ring capacity when tracing harness runs.
    pub trace: Option<usize>,
    /// `CWSP_TRACE_OUT`: directory for Chrome traces of traced runs.
    pub trace_out: Option<PathBuf>,
    /// `CWSP_PROFILE_DIR`: `profile` output (default `results/profiles`).
    pub profile_dir: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            flight: false,
            flight_dir: None,
            mem_budget: None,
            spill_dir: None,
            cache: true,
            cache_dir: None,
            harness_json: None,
            jobs: None,
            tier_json: None,
            obs: ObsDest::Off,
            trace: None,
            trace_out: None,
            profile_dir: None,
        }
    }
}

/// A `CWSP_*` value that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable.
    pub var: String,
    /// Its value, as given.
    pub value: String,
    /// What the variable accepts.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (var, value, expected) = (&self.var, &self.value, self.expected);
        write!(f, "invalid {var}={value:?}: expected {expected}")
    }
}

impl std::error::Error for ConfigError {}

fn on_off(s: &str) -> Option<bool> {
    match s.to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => Some(true),
        "0" | "off" | "false" | "no" => Some(false),
        _ => None,
    }
}

/// `CWSP_MEM_BUDGET`: a bare number is pages, a `K`/`M`/`G` suffix is bytes
/// (rounded down to pages, minimum 1); `0`, `inf`, `none` and `unbounded`
/// mean unbounded.
fn parse_budget(s: &str) -> Option<Option<usize>> {
    let lower = s.trim().to_ascii_lowercase();
    if matches!(lower.as_str(), "inf" | "none" | "unbounded") {
        return Some(None);
    }
    let (num, unit) = match lower.as_bytes().last() {
        Some(b'k') => (&lower[..lower.len() - 1], 1u64 << 10),
        Some(b'm') => (&lower[..lower.len() - 1], 1 << 20),
        Some(b'g') => (&lower[..lower.len() - 1], 1 << 30),
        _ => (lower.as_str(), 0),
    };
    let n: u64 = num.trim().parse().ok()?;
    let pages = match unit {
        0 => n,
        _ => n.checked_mul(unit)? / PAGE_BYTES as u64,
    };
    if n == 0 {
        return Some(None);
    }
    Some(Some(usize::try_from(pages.max(1)).ok()?))
}

impl RunConfig {
    /// Parse `(name, value)` pairs: a later pair overrides an earlier one,
    /// empty values are skipped and unknown names ignored.
    ///
    /// # Errors
    /// The first value that does not parse.
    pub fn from_vars<I, K, V>(vars: I) -> Result<RunConfig, ConfigError>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut c = RunConfig::default();
        for (name, value) in vars {
            let (name, value) = (name.as_ref(), value.as_ref());
            let bad = |expected| ConfigError {
                var: name.to_string(),
                value: value.to_string(),
                expected,
            };
            if value.is_empty() {
                continue;
            }
            let switch = || on_off(value).ok_or_else(|| bad("1|on|true|yes or 0|off|false|no"));
            let path = Some(PathBuf::from(value));
            match name {
                "CWSP_FLIGHT" => c.flight = switch()?,
                "CWSP_CACHE" => c.cache = switch()?,
                "CWSP_FLIGHT_DIR" => c.flight_dir = path,
                "CWSP_SPILL_DIR" => c.spill_dir = path,
                "CWSP_CACHE_DIR" => c.cache_dir = path,
                "CWSP_HARNESS_JSON" => c.harness_json = path,
                "CWSP_TIER_JSON" => c.tier_json = path,
                "CWSP_TRACE_OUT" => c.trace_out = path,
                "CWSP_PROFILE_DIR" => c.profile_dir = path,
                "CWSP_MEM_BUDGET" => {
                    c.mem_budget = parse_budget(value)
                        .ok_or_else(|| bad("pages, bytes with a K/M/G suffix, or 0/inf"))?;
                }
                "CWSP_JOBS" => {
                    let n = value.parse::<usize>().ok().filter(|&n| n >= 1);
                    c.jobs = Some(n.ok_or_else(|| bad("a positive integer"))?);
                }
                "CWSP_TRACE" => {
                    c.trace = match (on_off(value), value.parse::<usize>()) {
                        (Some(on), _) => on.then_some(DEFAULT_TRACE_CAPACITY),
                        (None, Ok(n)) if n > 1 => Some(n),
                        _ => return Err(bad("an on/off switch or a ring capacity above 1")),
                    };
                }
                "CWSP_OBS" => {
                    c.obs = match on_off(value) {
                        Some(true) => ObsDest::Stderr,
                        Some(false) => ObsDest::Off,
                        None if value.contains('/') => ObsDest::File(PathBuf::from(value)),
                        None => return Err(bad("an on/off switch or a path containing '/'")),
                    };
                }
                _ => {}
            }
        }
        Ok(c)
    }

    /// Parse the process environment.
    ///
    /// # Errors
    /// The first `CWSP_*` value that does not parse or is not UTF-8.
    pub fn from_env() -> Result<RunConfig, ConfigError> {
        let mut vars = Vec::new();
        for (name, value) in std::env::vars_os() {
            let Some(name) = name.to_str().filter(|n| n.starts_with("CWSP_")) else {
                continue;
            };
            let value = value.into_string().map_err(|v| ConfigError {
                var: name.to_string(),
                value: v.to_string_lossy().into_owned(),
                expected: "a UTF-8 value",
            })?;
            vars.push((name.to_string(), value));
        }
        RunConfig::from_vars(vars)
    }

    /// Host worker threads: `CWSP_JOBS`, else available parallelism.
    pub fn jobs(&self) -> usize {
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        self.jobs.unwrap_or_else(cores)
    }
}

/// The process's configuration, parsed from the environment on first call.
/// A bad value prints its [`ConfigError`] and exits with status 2.
pub fn get() -> &'static RunConfig {
    static CONFIG: OnceLock<Result<RunConfig, ConfigError>> = OnceLock::new();
    CONFIG
        .get_or_init(RunConfig::from_env)
        .as_ref()
        .unwrap_or_else(|e| {
            eprintln!("cwsp: {e}");
            std::process::exit(2)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<RunConfig, ConfigError> {
        RunConfig::from_vars(vars.iter().copied())
    }

    fn one(var: &str, value: &str) -> Result<RunConfig, ConfigError> {
        parse(&[(var, value)])
    }

    fn rejected(var: &str, value: &str) {
        let e = one(var, value).expect_err(value);
        assert_eq!((e.var.as_str(), e.value.as_str()), (var, value));
        let msg = e.to_string();
        assert!(msg.contains(var) && msg.contains(value), "{msg}");
    }

    #[test]
    fn nothing_set_is_the_default() {
        assert_eq!(parse(&[]).unwrap(), RunConfig::default());
        let d = RunConfig::default();
        assert!(!d.flight && d.cache && d.mem_budget.is_none() && d.jobs.is_none());
        assert!(d.jobs() >= 1);
    }

    #[test]
    fn unknown_and_retired_names_are_ignored() {
        let c = parse(&[
            ("CWSP_MC_THREADS", "1"),
            ("CWSP_SPILL_MMAP", "0"),
            ("CWSP_NOT_A_KNOB", "garbage"),
            ("PATH", "/bin"),
        ])
        .unwrap();
        assert_eq!(c, RunConfig::default());
    }

    #[test]
    fn empty_values_read_as_unset_and_later_pairs_win() {
        for var in [
            "CWSP_JOBS",
            "CWSP_CACHE",
            "CWSP_MEM_BUDGET",
            "CWSP_OBS",
            "CWSP_SPILL_DIR",
        ] {
            assert_eq!(one(var, "").unwrap(), RunConfig::default(), "{var}");
        }
        let c = parse(&[("CWSP_JOBS", "3"), ("CWSP_JOBS", "2")]).unwrap();
        assert_eq!(c.jobs(), 2);
    }

    #[test]
    fn on_off_switches() {
        for on in ["1", "on", "true", "yes", "ON", "Yes"] {
            assert!(one("CWSP_FLIGHT", on).unwrap().flight, "{on}");
            assert!(one("CWSP_CACHE", on).unwrap().cache, "{on}");
        }
        for off in ["0", "off", "false", "no", "OFF"] {
            assert!(!one("CWSP_FLIGHT", off).unwrap().flight, "{off}");
            assert!(!one("CWSP_CACHE", off).unwrap().cache, "{off}");
        }
        for bad in ["2", "enable", "y"] {
            rejected("CWSP_FLIGHT", bad);
            rejected("CWSP_CACHE", bad);
        }
    }

    #[test]
    fn mem_budget_pages_and_byte_sizes() {
        let budget = |v| one("CWSP_MEM_BUDGET", v).unwrap().mem_budget;
        assert_eq!(budget("128"), Some(128));
        assert_eq!(budget("1"), Some(1));
        assert_eq!(budget("64K"), Some(16), "64 KiB / 4 KiB pages");
        assert_eq!(budget("512k"), Some(128));
        assert_eq!(budget("1m"), Some(256));
        assert_eq!(budget("2G"), Some(2 << 18));
        assert_eq!(budget("2K"), Some(1), "sub-page budgets clamp to 1");
        for unbounded in ["0", "inf", "none", "unbounded", "0K"] {
            assert_eq!(budget(unbounded), None, "{unbounded}");
        }
        assert_eq!(parse(&[]).unwrap().mem_budget, None, "unset is unbounded");
        for bad in ["12Q", "junk", "-5", "1.5M", "K", "99999999999999999999G"] {
            rejected("CWSP_MEM_BUDGET", bad);
        }
    }

    #[test]
    fn jobs_is_a_positive_integer() {
        assert_eq!(one("CWSP_JOBS", "1").unwrap().jobs(), 1);
        assert_eq!(one("CWSP_JOBS", "16").unwrap().jobs, Some(16));
        for bad in ["abc", "0", "-3", "2.5", "4 "] {
            rejected("CWSP_JOBS", bad);
        }
    }

    #[test]
    fn trace_is_a_switch_or_a_capacity() {
        let trace = |v| one("CWSP_TRACE", v).unwrap().trace;
        assert_eq!(trace("1"), Some(DEFAULT_TRACE_CAPACITY));
        assert_eq!(trace("on"), Some(DEFAULT_TRACE_CAPACITY));
        assert_eq!(trace("4096"), Some(4096));
        assert_eq!(trace("0"), None);
        assert_eq!(trace("off"), None);
        for bad in ["-3", "lots", "1e6"] {
            rejected("CWSP_TRACE", bad);
        }
    }

    #[test]
    fn obs_is_a_switch_or_a_path() {
        let obs = |v| one("CWSP_OBS", v).unwrap().obs;
        assert_eq!(obs("1"), ObsDest::Stderr);
        assert_eq!(obs("off"), ObsDest::Off);
        assert_eq!(
            obs("/tmp/obs.json"),
            ObsDest::File(PathBuf::from("/tmp/obs.json"))
        );
        assert_eq!(obs("out/obs.json"), ObsDest::File("out/obs.json".into()));
        rejected("CWSP_OBS", "obs.json");
    }

    #[test]
    fn paths_are_taken_verbatim() {
        let c = parse(&[
            ("CWSP_FLIGHT_DIR", "/f"),
            ("CWSP_SPILL_DIR", "/s"),
            ("CWSP_CACHE_DIR", "c"),
            ("CWSP_HARNESS_JSON", "/h.json"),
            ("CWSP_TIER_JSON", "t.json"),
            ("CWSP_TRACE_OUT", "/tr"),
            ("CWSP_PROFILE_DIR", "p"),
        ])
        .unwrap();
        let p = |s: &str| Some(PathBuf::from(s));
        assert_eq!(c.flight_dir, p("/f"));
        assert_eq!(c.spill_dir, p("/s"));
        assert_eq!(c.cache_dir, p("c"));
        assert_eq!(c.harness_json, p("/h.json"));
        assert_eq!(c.tier_json, p("t.json"));
        assert_eq!(c.trace_out, p("/tr"));
        assert_eq!(c.profile_dir, p("p"));
    }
}
