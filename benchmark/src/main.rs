//! Command line of the repo benchmark.
//!
//! ```text
//! benchmark --seed <n> [--seconds <s>]       every workload untraced (32 windows over 20 s), then traced
//! benchmark --seed <n> --quick               the same on 2 x 0.5 s windows (a smoke run)
//! benchmark --seed <n> --repeat 2            two untraced sets, compared against the bounds
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                            one run; the last line of output is the JSON result
//! ```

use aether_benchmark::measure::Shape;
use aether_benchmark::{driver_shape, report, run, spans, workloads, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(0.1..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0.1..=600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(1..=10).contains(&args.repeat) {
                    return Err(format!("--repeat {} is outside 1..=10", args.repeat));
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where a traced run's spans go: `benchmark/traces/`, beside the sources.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn run_and_print(workload: &Workload, seed: u64, shape: &Shape) -> Result<Outcome, String> {
    let outcome = run(workload, seed, shape)?;
    print!("{}", report::outcome(&outcome, shape));
    if outcome.traced {
        let path = spans_path(workload.name, seed);
        spans::write_jsonl(&path, &outcome.spans, &outcome.program_events)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "  {} harness spans and {} program trace events written to {}",
            outcome.spans.len(),
            outcome.program_events.len(),
            path.display()
        );
    }
    Ok(outcome)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let all = workloads();
    print!("{}", report::conditions());

    if let Some(name) = &args.workload {
        let workload = all
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("no workload named {name:?}"))?;
        let shape = driver_shape(args.seconds.unwrap_or(10.0), args.trace);
        let outcome = run_and_print(workload, args.seed, &shape)?;
        println!("{}", report::result_json(&outcome));
        return Ok(outcome.correct());
    }

    // Untraced: 32 windows over 20 s. Traced: half as many windows of the
    // same length, telemetry on in every other one. `--quick` shrinks both
    // to 2 x 0.5 s and one set-up for a smoke run.
    let full = driver_shape(args.seconds.unwrap_or(20.0), false);
    let shape = |traced: bool| match (args.quick, traced) {
        (true, _) => Shape {
            windows: 2,
            window: Duration::from_millis(500),
            setups: 1,
            traced,
        },
        (false, false) => full,
        (false, true) => Shape {
            windows: full.windows / 2,
            traced,
            ..full
        },
    };
    let mut correct = true;
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for set in 1..=args.repeat {
        println!(
            "# set {set} of {}: untraced runs, seed {}",
            args.repeat, args.seed
        );
        let mut outcomes = Vec::new();
        for workload in &all {
            let outcome = run_and_print(workload, args.seed, &shape(false))?;
            correct &= outcome.correct() && outcome.failed == 0;
            outcomes.push(outcome);
        }
        sets.push(outcomes);
    }
    if args.repeat == 1 {
        println!("# traced runs, seed {}", args.seed);
        for workload in &all {
            let outcome = run_and_print(workload, args.seed, &shape(true))?;
            correct &= outcome.correct() && outcome.failed == 0;
        }
    }
    for pair in sets.windows(2) {
        let (table, within) = report::repeat_table(&pair[0], &pair[1]);
        println!(
            "# repeatability: two sets of the same code, seed {}",
            args.seed
        );
        print!("{table}");
        println!(
            "{}",
            if within {
                "every difference is within its bound"
            } else {
                "a difference EXCEEDS its bound"
            }
        );
        correct &= within;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed (see above)");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
