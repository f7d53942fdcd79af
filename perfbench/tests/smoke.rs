//! The benchmark's own smoke test: every workload at tiny scale, untraced
//! and traced. Each run must pass every correctness check, emit exactly
//! the metrics `BENCHMARK.json` names with their units, and — traced —
//! report a remainder and a tracing overhead. Two untraced runs on the
//! same seed must print the same behaviour witness and work counts.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use revelio_perfbench::json::{parse, Value};
use revelio_perfbench::workloads::Workload;

const SEED: &str = "7";

struct Run {
    stdout: String,
    result: Value,
}

fn run(workload: &str, trace: &str) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "0.3",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        output.status
    );
    let last = stdout.lines().last().expect("a result line");
    let result =
        parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line ({e}): {last}"));
    Run { stdout, result }
}

/// `name -> unit` of one of `BENCHMARK.json`'s metric lists.
fn declared(bench: &Value, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(result: &Value) -> BTreeMap<String, String> {
    match result.get("metrics") {
        Some(Value::Obj(metrics)) => metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value")
                        .and_then(Value::as_f64)
                        .is_some_and(f64::is_finite),
                    "{name} has no finite value"
                );
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect(),
        _ => panic!("no metrics object"),
    }
}

fn lines_starting<'a>(stdout: &'a str, prefix: &str) -> Vec<&'a str> {
    stdout.lines().filter(|l| l.starts_with(prefix)).collect()
}

#[test]
fn every_workload_is_correct_complete_and_deterministic() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    for w in bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Value::as_str).expect("name");
        assert!(
            Workload::parse(name).is_some(),
            "BENCHMARK.json names unknown workload {name}"
        );
    }

    // Every workload the benchmark knows, including any left out of
    // BENCHMARK.json, must stay correct and complete.
    for workload in Workload::ALL.map(Workload::name) {
        let first = run(workload, "0");
        let second = run(workload, "0");
        let traced = run(workload, "1");
        for (label, r) in [("untraced", &first), ("traced", &traced)] {
            assert_eq!(
                r.result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} {label} failed a check:\n{}",
                r.stdout
            );
            assert_eq!(r.result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(r
                .result
                .get("attempted")
                .and_then(Value::as_f64)
                .is_some_and(|n| n >= 1.0));
        }
        assert_eq!(
            emitted(&first.result),
            end_to_end,
            "{workload}: end-to-end metrics"
        );
        let layers = emitted(&traced.result);
        assert_eq!(layers, per_layer, "{workload}: per-layer metrics");
        for must in ["remainder_us_per_op", "trace_overhead_pct"] {
            assert!(
                layers.contains_key(must),
                "{workload}: traced run lacks {must}"
            );
        }
        for prefix in ["witness: ", "work over "] {
            let a = lines_starting(&first.stdout, prefix);
            assert_eq!(a.len(), 1, "{workload}: one {prefix:?} line");
            assert_eq!(
                a,
                lines_starting(&second.stdout, prefix),
                "{workload}: {prefix:?} differs on one seed"
            );
            assert_eq!(
                a,
                lines_starting(&traced.stdout, prefix),
                "{workload}: {prefix:?} differs when traced"
            );
        }
    }
}
