//! The `AETHER_*` knobs the experiment binaries share, parsed here and
//! nowhere else: the library crates take config structs and never read the
//! environment.

use aether_core::TelemetryConfig;
use aether_repl::RoutingPolicy;
use std::path::PathBuf;
use std::time::Duration;

/// Read an environment-variable override used by the experiment binaries
/// (e.g. `AETHER_SECONDS`, `AETHER_CLIENTS`), falling back to `default`.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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
    #[test]
    fn env_or_falls_back() {
        assert_eq!(super::env_or("AETHER_DOES_NOT_EXIST_XYZ", 7u32), 7);
        std::env::set_var("AETHER_TEST_ENV_OR", "42");
        assert_eq!(super::env_or("AETHER_TEST_ENV_OR", 7u32), 42);
        std::env::set_var("AETHER_TEST_ENV_OR", "not a number");
        assert_eq!(super::env_or("AETHER_TEST_ENV_OR", 7u32), 7);
    }
}
