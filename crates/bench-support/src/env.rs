//! The `AETHER_*` knobs the experiment binaries share, parsed here and
//! nowhere else: the library crates take config structs and never read the
//! environment.
//!
//! One rule for every knob: unset means the default, and a value that is
//! set but does not parse is an error that names the knob — never a silent
//! fall-back to the default. A quantity is one name holding a comma list
//! ([`list`]); a figure that holds it fixed reads it with [`env_or`], which
//! rejects a longer list.

use aether_core::TelemetryConfig;
use aether_repl::RoutingPolicy;
use std::env::VarError;
use std::path::PathBuf;

/// The raw value of `name`, `None` when unset.
fn raw(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(v)) => panic!("{name}={v:?} is not UTF-8"),
    }
}

/// A comma-separated list knob (e.g. `AETHER_THREADS=1,2,4`); an unset
/// variable gives `default`.
///
/// # Panics
/// When the variable is set and empty, or an item does not parse.
pub fn list<T: std::str::FromStr + Clone>(name: &str, default: &[T]) -> Vec<T> {
    let Some(s) = raw(name) else {
        return default.to_vec();
    };
    s.split(',')
        .map(|v| match v.trim().parse() {
            Ok(x) if !v.trim().is_empty() => x,
            _ => panic!("{name}={s:?}: item {v:?} does not parse"),
        })
        .collect()
}

/// A one-value knob (e.g. `AETHER_MS`), `default` when unset.
///
/// # Panics
/// When the variable is set but does not parse, or holds a list: the figure
/// holds this quantity fixed.
pub fn env_or<T: std::str::FromStr + Clone>(name: &str, default: T) -> T {
    match list(name, std::slice::from_ref(&default)).as_slice() {
        [v] => v.clone(),
        many => panic!("{name} holds {} values; it takes one here", many.len()),
    }
}

/// The command-line arguments after the program name.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// A path knob; unset or empty is `None`.
fn path(name: &str) -> Option<PathBuf> {
    raw(name).filter(|p| !p.is_empty()).map(PathBuf::from)
}

/// Telemetry defaults overridden from the environment: `AETHER_TELEMETRY`
/// (`1`/`true`/`on` enables, `0`/`false`/`off` disables),
/// `AETHER_TELEMETRY_SAMPLE` (records per trace sample, rounded up to a
/// power of two, 0 = no tracing) and `AETHER_TELEMETRY_OUT` (file the
/// JSON-lines snapshot is appended to at shutdown).
pub fn telemetry() -> TelemetryConfig {
    let mut cfg = TelemetryConfig::default();
    if let Some(v) = raw("AETHER_TELEMETRY") {
        cfg.enabled = match v.as_str() {
            "1" | "true" | "on" => true,
            "0" | "false" | "off" => false,
            _ => panic!("AETHER_TELEMETRY={v:?}: expected 1/true/on or 0/false/off"),
        };
    }
    let sample = env_or("AETHER_TELEMETRY_SAMPLE", cfg.sample_every);
    cfg.sample_every = if sample == 0 {
        0
    } else {
        sample.next_power_of_two()
    };
    cfg.export_path = path("AETHER_TELEMETRY_OUT");
    cfg
}

/// Read-routing policy from `AETHER_READ_POLICY` (default: round-robin).
pub fn read_policy() -> RoutingPolicy {
    raw("AETHER_READ_POLICY").map_or_else(RoutingPolicy::default, |v| {
        RoutingPolicy::parse(&v).unwrap_or_else(|| panic!("AETHER_READ_POLICY={v:?} is no policy"))
    })
}

/// The JSON-lines file `AETHER_JSON` names, if any: every figure row is
/// appended there too.
pub fn json_path() -> Option<PathBuf> {
    path("AETHER_JSON")
}

#[cfg(test)]
mod tests {
    // Not knobs: the names stay off the `AETHER_` prefix `ci/knobs.py` scans for.
    #[test]
    fn env_or_falls_back() {
        assert_eq!(super::env_or("ENV_OR_TEST_UNSET", 7u32), 7);
        std::env::set_var("ENV_OR_TEST_SET", "42");
        assert_eq!(super::env_or("ENV_OR_TEST_SET", 7u32), 42);
        std::env::set_var("ENV_OR_TEST_SET", "not a number");
        let bad = std::panic::catch_unwind(|| super::env_or("ENV_OR_TEST_SET", 7u32));
        assert!(bad.is_err(), "a malformed value must not fall back");
        std::env::set_var("ENV_OR_TEST_SET", "1,2");
        let many = std::panic::catch_unwind(|| super::env_or("ENV_OR_TEST_SET", 7u32));
        assert!(many.is_err(), "a one-value knob must reject a list");
    }

    #[test]
    fn list_splits_trims_and_rejects_what_does_not_parse() {
        assert_eq!(super::list("ENV_LIST_TEST_UNSET", &[1u32, 2]), [1, 2]);
        std::env::set_var("ENV_LIST_TEST_SET", "4, 8,16");
        assert_eq!(super::list("ENV_LIST_TEST_SET", &[1u32]), [4, 8, 16]);
        for bad in ["4, 8,x,16", "", "4,,8"] {
            std::env::set_var("ENV_LIST_TEST_SET", bad);
            let r = std::panic::catch_unwind(|| super::list("ENV_LIST_TEST_SET", &[1u32]));
            assert!(r.is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn table_rows_append_to_the_json_file() {
        let dir = std::env::temp_dir().join(format!("aether-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.json");
        std::env::set_var("AETHER_JSON", &path);
        let mut table = crate::table::Table::new("t", "a test table", "a\tb");
        table.row("1\tx");
        table.row("2\ty");
        drop(table);
        std::env::remove_var("AETHER_JSON");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            content.lines().collect::<Vec<_>>(),
            [
                r#"{"bench":"t","a":1,"b":"x"}"#,
                r#"{"bench":"t","a":2,"b":"y"}"#
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(super::json_path(), None);
    }
}
