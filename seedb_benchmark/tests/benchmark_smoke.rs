//! Smoke test of the benchmark binary: all five workloads at
//! `--scale tiny` with a one-second window, timed and traced, held to
//! `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path seedb_benchmark/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 5] = [
    "cold_explore",
    "warm_repeat",
    "wide_views",
    "live_ingest",
    "concurrent_mixed",
];

/// Counts that must repeat exactly for a given seed.
const EXACT: [&str; 8] = [
    "memdb.exec.rows_scanned_per_request",
    "core.service.cache_hit_rate",
    "core.service.cache_misses_per_request",
    "core.service.refreshes_per_request",
    "memdb.store.wal_bytes_per_user_byte",
    "memdb.store.checkpoints",
    "memdb.store.replayed_records",
    "core.pruning.kept_frac",
];

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

/// One run; returns the parsed last line of stdout and the digest of
/// the generated inputs printed in the table header.
fn run(workload: &str, seed: u64, trace: u8, tag: &str) -> (Value, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_seedb_benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .args(["--scale", "tiny", "--out"])
        .arg(out_dir(tag))
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {:?}: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let inputs = stdout
        .split_whitespace()
        .find_map(|word| word.strip_prefix("inputs="))
        .expect("inputs digest in the header");
    (
        serde_json::from_str(last).expect("last line is JSON"),
        inputs.to_string(),
    )
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn listed(doc: &Value, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// The result has exactly the driver's keys, no failures, and exactly
/// the metrics `want` lists, each with its unit.
fn check_result(workload: &str, result: &Value, want: &BTreeMap<String, String>) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let got: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(&got, want, "{workload}: metrics differ from BENCHMARK.json");
}

#[test]
fn every_workload_emits_what_benchmark_json_lists() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));

    for workload in WORKLOADS {
        let (timed, _) = run(workload, 11, 0, "smoke");
        check_result(workload, &timed, &end_to_end);
        for name in end_to_end.keys() {
            assert!(metric(&timed, name) > 0.0, "{workload}: {name} is 0");
        }

        let (traced, inputs) = run(workload, 11, 1, "smoke");
        check_result(workload, &traced, &per_layer);
        let trace = out_dir("smoke").join(format!("trace_{workload}.json"));
        let spans: Value =
            serde_json::from_str(&std::fs::read_to_string(trace).expect("trace file"))
                .expect("trace parses");
        assert!(spans
            .get("spans")
            .and_then(Value::as_array)
            .is_some_and(|s| s
                .iter()
                .any(|x| x.get("name").and_then(Value::as_str) == Some("core.metadata"))));

        // Same seed: the seed-deterministic counts repeat exactly.
        let (again, same_inputs) = run(workload, 11, 1, "smoke");
        assert_eq!(inputs, same_inputs);
        for name in EXACT {
            assert_eq!(
                metric(&traced, name),
                metric(&again, name),
                "{workload}: {name} does not repeat for one seed"
            );
        }
        if workload == "warm_repeat" {
            assert_eq!(metric(&traced, "memdb.exec.rows_scanned_per_request"), 0.0);
            assert_eq!(metric(&traced, "core.service.cache_hit_rate"), 1.0);
        }

        // Another seed: other data.
        let (_, other_inputs) = run(workload, 12, 1, "smoke");
        assert_ne!(
            inputs, other_inputs,
            "{workload}: seeds 11 and 12 gave the same inputs"
        );
    }
}

#[test]
fn a_set_compares_clean_against_itself() {
    let out = out_dir("set");
    std::fs::create_dir_all(&out).expect("out dir");
    let output = Command::new(env!("CARGO_BIN_EXE_seedb_benchmark"))
        .args(["--seed", "5", "--seconds", "0.3", "--runs", "2"])
        .args(["--scale", "tiny", "--out"])
        .arg(&out)
        .output()
        .expect("set runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc: Value =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).expect("set is JSON");
    for workload in WORKLOADS {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(workload))
            .unwrap_or_else(|| panic!("{workload} missing from the set"));
        assert_eq!(w.get("failed_frac").and_then(Value::as_f64), Some(0.0));
        let p50 = w.get("end_to_end").and_then(|e| e.get("recommend_p50_ms"));
        assert!(p50.and_then(|m| m.get("spread")).is_some());
    }
    let set = out.join("set.json");
    std::fs::write(&set, &output.stdout).expect("write set");
    let compare = Command::new(env!("CARGO_BIN_EXE_seedb_benchmark"))
        .arg("compare")
        .arg(&set)
        .arg(&set)
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(table.contains("0 regression(s), 0 differing count(s)"));
}
