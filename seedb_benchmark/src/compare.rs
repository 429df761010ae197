//! A full *set* (every workload, timed and traced, one process per run
//! so `setup_s` and `peak_rss_mb` are isolated) as one JSON document,
//! and `compare`: two sets held against the catalogue's bounds.

use std::path::Path;
use std::process::{Command, ExitCode};

use serde_json::{json, Value};

use crate::metrics::{iqr_over_median, median, Better, END_TO_END, PER_LAYER};
use crate::workloads::{nproc, Scale, Workload};

/// Re-exec this binary for one run and parse the driver-format last
/// line of its output.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    out: &Path,
    trace: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", scale.name()])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        eprintln!("  {line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| {
        format!(
            "{} trace={}: no result line ({e}); stderr: {}",
            workload.name(),
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Run every workload `runs` times timed and once traced, print the
/// set as one JSON document on stdout (a human table on stderr), and
/// exit non-zero if any output check failed.
pub fn run_set(seed: u64, seconds: f64, scale: Scale, out: &Path, runs: usize) -> ExitCode {
    let mut workloads = Vec::new();
    let mut failed = 0u64;
    for w in Workload::ALL {
        eprintln!("== {} ({})", w.name(), w.why());
        let mut timed = Vec::new();
        for _ in 0..runs {
            match child_run(w, seed, seconds, scale, out, false) {
                Ok(r) => timed.push(r),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let traced = match child_run(w, seed, seconds, scale, out, true) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let (mut attempted, mut workload_failed) = (0u64, 0u64);
        for r in timed.iter().chain([&traced]) {
            attempted += r.get("attempted").and_then(Value::as_u64).unwrap_or(0);
            workload_failed += r.get("failed").and_then(Value::as_u64).unwrap_or(0);
        }
        failed += workload_failed;

        let mut end_to_end = Vec::new();
        for d in END_TO_END {
            let values: Vec<f64> = timed
                .iter()
                .filter_map(|r| metric_value(r, d.name))
                .collect();
            let spread = iqr_over_median(&values);
            eprintln!(
                "  {:<42} {:>16.4} {:<5} spread {:.4} (bound {:.2})",
                d.name,
                median(&values),
                d.unit,
                spread,
                d.bound.unwrap_or(0.0)
            );
            end_to_end.push((
                d.name.to_string(),
                json!({
                    "value": median(&values),
                    "unit": d.unit,
                    "better": d.better.as_str(),
                    "bound": d.bound,
                    "spread": spread,
                    "runs": values,
                }),
            ));
        }
        let mut per_layer = Vec::new();
        for d in PER_LAYER {
            let v = metric_value(&traced, d.name).unwrap_or(f64::NAN);
            eprintln!("  {:<42} {:>16.4} {}", d.name, v, d.unit);
            per_layer.push((
                d.name.to_string(),
                json!({"value": v, "unit": d.unit, "exact": d.exact}),
            ));
        }
        workloads.push((
            w.name().to_string(),
            json!({
                "why": w.why(),
                "clients": w.clients(),
                "attempted": attempted,
                "failed_frac": workload_failed as f64 / attempted.max(1) as f64,
                "end_to_end": Value::Object(end_to_end),
                "per_layer": Value::Object(per_layer),
            }),
        ));
    }
    let doc = json!({
        "benchmark": "seedb_benchmark",
        "seed": seed,
        "scale": scale.name(),
        "window_seconds": seconds,
        "timed_runs": runs,
        "nproc": nproc(),
        "workloads": Value::Object(workloads),
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("set serializes")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn field(doc: &Value, workload: &str, group: &str, metric: &str, key: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(metric)?
        .get(key)?
        .as_f64()
}

/// `compare <a.json> <b.json>`: per workload × end-to-end metric, how
/// much worse `b` is than `a` against the metric's bound —
/// `unresolved` when either set's own run-to-run spread exceeds the
/// bound — and exact counts held to equality. Non-zero exit on a
/// regression or a differing count.
pub fn compare_files(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let same_inputs = ["seed", "scale", "nproc"]
        .iter()
        .all(|k| a.get(k) == b.get(k));
    let mut regressions = 0;
    let mut differing = 0;
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for w in Workload::ALL {
        for d in END_TO_END {
            let get = |doc: &Value, key: &str| field(doc, w.name(), "end_to_end", d.name, key);
            let (Some(va), Some(vb)) = (get(&a, "value"), get(&b, "value")) else {
                println!("{:<18} {:<20} missing in one set", w.name(), d.name);
                regressions += 1;
                continue;
            };
            let bound = d.bound.unwrap_or(0.0);
            // Positive = b is worse than a, as a share of a.
            let worse = match d.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let spread = get(&a, "spread")
                .unwrap_or(0.0)
                .max(get(&b, "spread").unwrap_or(0.0));
            let verdict = if spread > bound {
                "unresolved (spread exceeds bound)"
            } else if worse > bound {
                regressions += 1;
                "REGRESSION"
            } else if worse < -spread.max(0.01) {
                "better"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                w.name(),
                d.name,
                va,
                vb,
                worse * 100.0,
                bound * 100.0,
                verdict
            );
        }
        if !same_inputs {
            continue;
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let get = |doc: &Value| field(doc, w.name(), "per_layer", d.name, "value");
            if get(&a) != get(&b) {
                differing += 1;
                println!(
                    "{:<18} {:<44} count differs: {:?} vs {:?}",
                    w.name(),
                    d.name,
                    get(&a),
                    get(&b)
                );
            }
        }
    }
    if !same_inputs {
        println!("sets differ in seed, scale or nproc: exact counts not compared");
    }
    println!("{regressions} regression(s), {differing} differing count(s)");
    if regressions == 0 && differing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
