//! The `AETHER_*` knobs the experiment binaries share, parsed here and
//! nowhere else: the library crates take config structs and never read the
//! environment.

use aether_core::TelemetryConfig;
use aether_repl::RoutingPolicy;
use std::path::PathBuf;
use std::time::Duration;

/// Read an environment-variable override used by the experiment binaries
/// (e.g. `AETHER_MS`, `AETHER_CLIENTS`), falling back to `default`.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A comma-separated list override (e.g. `AETHER_THREAD_LIST=1,2,4`); items
/// that do not parse are skipped, an unset variable gives `default`.
pub fn list<T: std::str::FromStr + Clone>(name: &str, default: &[T]) -> Vec<T> {
    match std::env::var(name) {
        Ok(s) => s.split(',').filter_map(|v| v.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

/// Telemetry defaults overridden from the environment: `AETHER_TELEMETRY`
/// (1/true/on enables), `AETHER_TELEMETRY_SAMPLE` (records per trace sample,
/// rounded up to a power of two, 0 = no tracing), `AETHER_TELEMETRY_MS`
/// (periodic export interval in milliseconds, 0 = none) and
/// `AETHER_TELEMETRY_OUT` (file the JSON-lines snapshots are appended to).
pub fn telemetry() -> TelemetryConfig {
    let mut cfg = TelemetryConfig::default();
    if let Ok(v) = std::env::var("AETHER_TELEMETRY") {
        cfg.enabled = matches!(v.as_str(), "1" | "true" | "on");
    }
    let sample = env_or("AETHER_TELEMETRY_SAMPLE", cfg.sample_every);
    cfg.sample_every = if sample == 0 {
        0
    } else {
        sample.next_power_of_two()
    };
    let ms = env_or("AETHER_TELEMETRY_MS", 0u64);
    cfg.export_every = (ms > 0).then(|| Duration::from_millis(ms));
    cfg.export_path = std::env::var("AETHER_TELEMETRY_OUT")
        .ok()
        .filter(|p| !p.is_empty())
        .map(PathBuf::from);
    cfg
}

/// Read-routing policy from `AETHER_READ_POLICY` (default: round-robin).
pub fn read_policy() -> RoutingPolicy {
    std::env::var("AETHER_READ_POLICY")
        .ok()
        .and_then(|v| RoutingPolicy::parse(&v))
        .unwrap_or_default()
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
        assert_eq!(super::env_or("ENV_OR_TEST_SET", 7u32), 7);
    }

    #[test]
    fn list_splits_trims_and_skips_what_does_not_parse() {
        assert_eq!(super::list("ENV_LIST_TEST_UNSET", &[1u32, 2]), [1, 2]);
        std::env::set_var("ENV_LIST_TEST_SET", "4, 8,x,16");
        assert_eq!(super::list("ENV_LIST_TEST_SET", &[1u32]), [4, 8, 16]);
    }
}
