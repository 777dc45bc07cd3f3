//! Command line: `perfbench --workload NAME --seed N --seconds S --trace 0|1`.
//!
//! Prints the traced run's budget lines, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 when every gate passed, 1 when an
//! operation failed, 2 on bad usage or a run that could not finish.

use perfbench::{run, Fault, Params, WORKLOADS};
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        // `run_seconds` in BENCHMARK.json.
        seconds: 25.0,
        trace: false,
        quick: false,
        fault: Fault::None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("missing value for {flag}"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| params.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|s| params.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => {
                    params.trace = false;
                    true
                }
                "1" => {
                    params.trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    match run(&workload, &params) {
        Ok(outcome) => {
            for line in &outcome.budget {
                println!("{line}");
            }
            println!("{}", outcome.json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}
