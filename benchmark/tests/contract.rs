//! `BENCHMARK.json` at the repo root and the tables in the code say the
//! same thing, and the `--quick` smoke run of every workload exits 0.

use aether_benchmark::layers::PER_LAYER;
use aether_benchmark::measure::END_TO_END;
use aether_benchmark::workloads;
use std::path::Path;
use std::process::Command;

fn squeeze(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

#[test]
fn benchmark_json_matches_the_tables_in_the_code() {
    let objects = |items: Vec<String>| format!("[{}]", items.join(","));
    let expected = format!(
        "{{\"command\":[\"cargo\",\"run\",\"--release\",\"--offline\",\"--quiet\",\
         \"--manifest-path\",\"benchmark/Cargo.toml\",\"--\"],\"paths\":[\"benchmark\"],\
         \"run_seconds\":10,\"workloads\":{},\"end_to_end\":{},\"per_layer\":{}}}",
        objects(
            workloads()
                .iter()
                .map(|w| format!("{{\"name\":\"{}\",\"why\":\"{}\"}}", w.name, w.why))
                .collect()
        ),
        objects(
            END_TO_END
                .iter()
                .map(|(name, unit, better, bound)| format!(
                    "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":{bound}}}"
                ))
                .collect()
        ),
        objects(
            PER_LAYER
                .iter()
                .map(|(name, unit, better)| format!(
                    "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}"
                ))
                .collect()
        ),
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let actual = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(squeeze(&actual), squeeze(&expected));
}

#[test]
fn contract_limits_hold() {
    let all = workloads();
    let names = all
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        assert!(seen.insert(name), "{name} is used twice");
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.1)
        .chain(PER_LAYER.iter().map(|m| m.1));
    for unit in units {
        assert!(unit.len() <= 16);
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    assert!((2..=8).contains(&workloads().len()));
    assert!(workloads()
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| (m.0, m.1, m.2) == ("setup_s", "s", "lower")));
}

#[test]
fn quick_smoke_of_all_five_workloads_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_aether-benchmark"))
        .args(["--seed", "3", "--quick"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    for w in workloads() {
        assert!(
            stdout.contains(&format!("## {} (untraced", w.name)),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!("## {} (traced", w.name)),
            "{stdout}"
        );
    }
    for name in END_TO_END
        .iter()
        .map(|m| m.0)
        .chain(PER_LAYER.iter().map(|m| m.0))
    {
        assert!(stdout.contains(name), "output lacks {name}");
    }
    assert!(
        !stdout.contains("VIOLATED") && !stdout.contains("BROKEN"),
        "{stdout}"
    );
}
