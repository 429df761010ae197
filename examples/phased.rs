//! Extension demo: phased execution with confidence-interval pruning,
//! sequential and partition-parallel.
//!
//! Challenge (d) in the paper: "we must trade-off accuracy of
//! visualizations or estimation of 'interestingness' for reduced
//! latency." Beyond sampling, the authors' follow-up work processes the
//! table in phases and discards views whose utility confidence interval
//! drops below the running top-k — hopeless views stop consuming work
//! early, while the surviving views end with *exact* utilities. With
//! `workers > 1` each phase slice additionally fans out across row
//! partitions whose mergeable partial aggregates combine
//! deterministically, so the outcome is identical for every worker
//! count.
//!
//! ```sh
//! cargo run --release --example phased
//! ```

use std::sync::Arc;
use std::time::Instant;

use seedb::core::{
    enumerate_views, run_phased, AnalystQuery, FunctionSet, Metric, PhasedConfig, PruningConfig,
    SeeDb, SeeDbConfig,
};
use seedb::data::{Plant, SyntheticSpec};
use seedb::memdb::Database;

fn main() {
    // 300k rows, 10 dimensions — only d1/d2 deviate under the query.
    let spec = SyntheticSpec::knobs(300_000, 10, 10, 1.0, 2, 77).with_plant(Plant {
        subset_dim: 0,
        subset_value: 0,
        deviating_dims: vec![1, 2],
        deviating_measures: vec![(0, 35.0)],
    });
    let analyst = AnalystQuery::new("synthetic", spec.subset_filter());
    let db = Arc::new(Database::new());
    db.register(spec.generate());
    let table = db.table("synthetic").unwrap();

    let views: Vec<_> = enumerate_views(table.schema(), &FunctionSet::standard())
        .into_iter()
        .filter(|v| v.dimension != "d0") // exclude the filter attribute
        .collect();
    println!(
        "{} candidate views over {} rows, k = 5\n",
        views.len(),
        table.num_rows()
    );

    // Exact baseline.
    let mut exact_cfg = SeeDbConfig::recommended().with_k(5);
    exact_cfg.pruning = PruningConfig::disabled();
    exact_cfg.execution = exact_cfg.execution.with_workers(1);
    let t0 = Instant::now();
    let exact = SeeDb::new(db.clone(), exact_cfg)
        .recommend(&analyst)
        .unwrap();
    let exact_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Phased with early termination, single-threaded.
    let cfg = PhasedConfig {
        phases: 10,
        k: 5,
        delta: 0.05,
        min_phases: 2,
        metric: Metric::EarthMovers,
        workers: 1,
    };
    let t0 = Instant::now();
    let phased = run_phased(&table, &analyst, &views, &cfg).unwrap();
    let phased_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Phased + intra-plan parallelism — every phase slice splits across
    // row-partition workers with mergeable partial aggregates.
    let workers = seedb::core::default_workers().max(4);
    let par_cfg = PhasedConfig {
        workers,
        ..cfg.clone()
    };
    let t0 = Instant::now();
    let parallel = run_phased(&table, &analyst, &views, &par_cfg).unwrap();
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!("survivors per phase: {:?}", phased.survivors_per_phase);
    println!(
        "view-phase work: {} of {} ({:.0}% saved)",
        phased.view_phases,
        views.len() * cfg.phases,
        100.0 * phased.work_saved(views.len(), cfg.phases)
    );
    println!("early-pruned views: {} (first few):", phased.pruned.len());
    for p in phased.pruned.iter().take(5) {
        println!(
            "  {} dropped after phase {} (estimate {:.4})",
            p.spec, p.at_phase, p.estimate
        );
    }

    println!("\n{:<34} {:>10}", "", "ms");
    println!("{:<34} {exact_ms:>10.1}", "exact (all phases)");
    println!("{:<34} {phased_ms:>10.1}", "phased + CI pruning");
    println!(
        "{:<34} {parallel_ms:>10.1}",
        format!("phased-parallel ({workers} workers)")
    );

    println!("\ntop-5 (phased, exact utilities for survivors):");
    for (p, e) in phased.views.iter().zip(&exact.views) {
        println!(
            "  {:<22} phased {:.4}   exact {:.4}",
            p.spec.label(),
            p.utility,
            e.utility
        );
        assert_eq!(p.spec, e.spec, "phased top-k must match exact top-k");
        assert!((p.utility - e.utility).abs() < 1e-9);
    }

    // Worker count must be invisible in the outcome — to the bit.
    assert_eq!(phased.survivors_per_phase, parallel.survivors_per_phase);
    assert_eq!(phased.pruned.len(), parallel.pruned.len());
    for (a, b) in phased.survivors.iter().zip(&parallel.survivors) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
    }

    println!("\nphased top-k identical to exact top-k ✔");
    println!("phased-parallel ({workers} workers) bit-identical to sequential phased ✔");
}
