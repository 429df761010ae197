//! `seedb_benchmark` — the repository's benchmark (see `README.md`).
//!
//! ```text
//! seedb_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--scale tiny|full] [--out <dir>]      one run, driver format
//! seedb_benchmark --seed <n> [--seconds <s>] [--runs <r>]
//!                 [--scale tiny|full] [--out <dir>]      a full set, one process per run
//! seedb_benchmark compare <a.json> <b.json>              two sets against the bounds
//! ```

mod compare;
mod ingest;
mod layers;
mod metrics;
mod replay;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use run::Options;
use workloads::{Scale, Workload};

/// Window length when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: seedb_benchmark [--workload <name>] --seed <n> [--seconds <s>] [--trace <0|1>]\n\
         \x20                      [--scale tiny|full] [--out <dir>] [--runs <r>]\n\
         \x20      seedb_benchmark compare <a.json> <b.json>\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// Where run artefacts go by default: next to the executable, which is
/// inside the build directory and therefore inside the checkout.
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("seedb-benchmark-out")))
        .unwrap_or_else(|| PathBuf::from("seedb-benchmark-out"))
}

/// The human table: every metric by name with its unit.
fn print_table(workload: Workload, opts: &Options, outcome: &run::Outcome) {
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {} seed={} inputs={:016x} scale={} trace={} window={}s samples={} nproc={}",
        workload.name(),
        opts.seed,
        outcome.inputs,
        opts.scale.name(),
        u8::from(opts.trace),
        opts.seconds,
        outcome.samples,
        workloads::nproc(),
    );
    for d in defs {
        if let Some(v) = outcome.metrics.get(d.name) {
            println!("{:<44} {:>18.6} {}", d.name, v, d.unit);
        }
    }
    println!(
        "{:<44} {:>18} of {}",
        "failed", outcome.tally.failed, outcome.tally.attempted
    );
    for f in &outcome.findings {
        println!("# {f}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) if args.len() == 3 => compare::compare_files(a, b),
            _ => usage(),
        };
    }

    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut out = default_out();
    let mut runs = 1usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value");
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => {
                seed = value.parse::<u64>().ok();
                seed.is_some()
            }
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && s.is_finite())
                .map(|s| seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            "--scale" => Scale::parse(value).map(|s| scale = s).is_some(),
            "--out" => {
                out = PathBuf::from(value);
                true
            }
            "--runs" => value
                .parse::<usize>()
                .ok()
                .filter(|r| *r >= 1)
                .map(|r| runs = r)
                .is_some(),
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    let Some(seed) = seed else {
        eprintln!("--seed is required");
        return usage();
    };

    let Some(workload) = workload else {
        return compare::run_set(seed, seconds, scale, &out, runs);
    };
    let opts = Options {
        workload,
        scale,
        seed,
        seconds,
        trace,
        out,
    };
    let outcome = run::run(&opts);
    print_table(workload, &opts, &outcome);
    println!(
        "{}",
        serde_json::to_string(&outcome.to_json(trace)).expect("result serializes")
    );
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
