//! Smoke tests of the benchmark itself: a tiny instance of every workload
//! passes its correctness gate and prints exactly the metrics
//! `BENCHMARK.json` lists, each with its unit, untraced and traced; and each
//! kind of planted fault fails the run.

use serde::value::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_obj()
        .and_then(|fields| fields.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key} in {v:?}"))
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn listed(bench: &Value, list: &str) -> BTreeMap<String, String> {
    field(bench, list)
        .as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().unwrap().to_string(),
                field(m, "unit").as_str().unwrap().to_string(),
            )
        })
        .collect()
}

/// Run the benchmark binary; returns its exit success and last stdout line.
fn run(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let value = serde_json::from_str(&last).unwrap_or_else(|e| {
        panic!(
            "last line is not JSON ({e}): {last}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), value)
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> (bool, Value) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

fn check_metrics(result: &Value, want: &BTreeMap<String, String>, what: &str) {
    assert!(
        matches!(field(result, "correct"), Value::Bool(true)),
        "{what}: {result:?}"
    );
    let attempted: u64 = field(result, "attempted")
        .as_num()
        .unwrap()
        .parse()
        .unwrap();
    assert!(attempted >= 1, "{what}: attempted {attempted}");
    assert_eq!(field(result, "failed").as_num(), Some("0"), "{what}");
    let got: BTreeMap<String, String> = field(result, "metrics")
        .as_obj()
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let value: f64 = field(m, "value").as_num().unwrap().parse().unwrap();
            assert!(value.is_finite(), "{what}: {name} = {value}");
            (name.clone(), field(m, "unit").as_str().unwrap().to_string())
        })
        .collect();
    assert_eq!(
        &got, want,
        "{what}: printed metrics differ from BENCHMARK.json"
    );
}

/// The workloads `BENCHMARK.json` lists, plus sim-insert, which the
/// benchmark still runs and checks although it is not listed.
fn workloads(bench: &Value) -> Vec<String> {
    let mut names: Vec<String> = field(bench, "workloads")
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| field(w, "name").as_str().unwrap().to_string())
        .collect();
    if !names.iter().any(|n| n == "sim-insert") {
        names.push("sim-insert".to_string());
    }
    names
}

#[test]
fn every_workload_prints_the_end_to_end_metrics() {
    let bench = benchmark_json();
    let want = listed(&bench, "end_to_end");
    for w in workloads(&bench) {
        let (ok, result) = tiny(&w, "0", &[]);
        assert!(ok, "{w} untraced run failed: {result:?}");
        check_metrics(&result, &want, &format!("{w} --trace 0"));
    }
}

#[test]
fn every_workload_prints_the_per_layer_metrics() {
    let bench = benchmark_json();
    let want = listed(&bench, "per_layer");
    for w in workloads(&bench) {
        let (ok, result) = tiny(&w, "1", &[]);
        assert!(ok, "{w} traced run failed: {result:?}");
        check_metrics(&result, &want, &format!("{w} --trace 1"));
    }
}

fn assert_fails(workload: &str, fault: &str) {
    let (ok, result) = tiny(workload, "0", &["--inject", fault]);
    assert!(!ok, "{workload} with a planted {fault} fault exited 0");
    assert!(
        matches!(field(&result, "correct"), Value::Bool(false)),
        "{result:?}"
    );
}

#[test]
fn a_wrong_byte_fails_the_run() {
    assert_fails("ring-small", "byte");
    assert_fails("sim-insert", "byte");
}

#[test]
fn a_lost_chunk_fails_the_run() {
    assert_fails("ring-small", "chunk");
}

#[test]
fn a_sim_outcome_mismatch_fails_the_run() {
    assert_fails("sim-insert", "sim");
}
