//! Benchmark self-test: a quick mode of every workload passes every
//! gate, and a corrupted output is reported as failed operations, not
//! as a pass.

use perfbench::{run, Fault, Outcome, Params, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn quick(workload: &str, trace: bool, fault: Fault) -> Outcome {
    let params = Params {
        seed: 3,
        seconds: 0.3,
        trace,
        quick: true,
        fault,
    };
    run(workload, &params).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(name, _)| (*name).to_owned()).collect()
}

fn check_result_line(workload: &str, outcome: &Outcome, list: &[(&str, &str)]) {
    let line: Value = serde_json::from_str(&outcome.json()).expect("result line is JSON");
    assert_eq!(line["correct"], Value::Bool(true), "{workload}");
    assert!(line["attempted"].as_f64().unwrap() >= 1.0, "{workload}");
    assert_eq!(line["failed"].as_f64(), Some(0.0), "{workload}");
    for (name, unit) in list {
        let metric = &line["metrics"][*name];
        assert_eq!(metric["unit"].as_str(), Some(*unit), "{workload} {name}");
        assert!(
            metric["value"].as_f64().is_some_and(f64::is_finite),
            "{workload} {name}"
        );
    }
}

#[test]
fn every_workload_passes_its_gates_in_quick_mode() {
    for workload in WORKLOADS {
        let untraced = quick(workload, false, Fault::None);
        check_result_line(workload, &untraced, &END_TO_END);
        for metric in &untraced.metrics {
            assert!(
                metric.value > 0.0,
                "{workload} {} is {}",
                metric.name,
                metric.value
            );
        }
        let traced = quick(workload, true, Fault::None);
        check_result_line(workload, &traced, &PER_LAYER);
        assert!(!traced.budget.is_empty(), "{workload} prints a budget");
        assert!(
            traced.budget.iter().any(|line| line.contains("residue")),
            "{workload} states its residue"
        );
    }
}

#[test]
fn corrupted_outputs_are_reported_as_failed_operations() {
    for (workload, fault) in [
        ("ingest_inline", Fault::MiscountFire),
        ("durable_replay", Fault::FlipReplayByte),
        ("paced_fleet", Fault::SwallowFire),
        ("des_fig09", Fault::PerturbCell),
    ] {
        let outcome = quick(workload, false, fault);
        assert!(outcome.failed > 0, "{workload} passed with {fault:?}");
        assert!(
            outcome.json().starts_with("{\"correct\": false"),
            "{workload}"
        );
    }
}

#[test]
fn unknown_workload_is_refused() {
    let params = Params {
        seed: 1,
        seconds: 0.1,
        trace: false,
        quick: true,
        fault: Fault::None,
    };
    assert!(run("no_such_workload", &params).is_err());
}

#[test]
fn benchmark_json_declares_what_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str, field: &str| -> Vec<String> {
        bench[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| m[field].as_str().expect("a string").to_owned())
            .collect()
    };
    assert_eq!(listed("workloads", "name"), WORKLOADS.map(str::to_owned));
    assert_eq!(listed("end_to_end", "name"), names(&END_TO_END));
    assert_eq!(listed("per_layer", "name"), names(&PER_LAYER));
    let units = |list: &[(&str, &str)]| {
        list.iter()
            .map(|(_, u)| (*u).to_owned())
            .collect::<Vec<_>>()
    };
    assert_eq!(listed("end_to_end", "unit"), units(&END_TO_END));
    assert_eq!(listed("per_layer", "unit"), units(&PER_LAYER));
}
