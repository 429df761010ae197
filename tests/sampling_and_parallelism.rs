//! Integration tests for the approximate/parallel execution paths:
//! sampling accuracy degrades gracefully, parallelism changes nothing
//! about results, and both compose with the other optimizations.

use std::sync::Arc;

use seedb::core::{AnalystQuery, SeeDb, SeeDbConfig, ViewResult};
use seedb::data::{Plant, SyntheticSpec};
use seedb::memdb::{Database, SampleSpec};

fn planted_db(rows: usize, seed: u64) -> (Arc<Database>, AnalystQuery, Vec<String>) {
    let spec = SyntheticSpec::knobs(rows, 6, 8, 1.0, 2, seed).with_plant(Plant {
        subset_dim: 0,
        subset_value: 0,
        deviating_dims: vec![1, 2],
        deviating_measures: vec![(0, 25.0)],
    });
    let analyst = AnalystQuery::new("synthetic", spec.subset_filter());
    let truth = spec.ground_truth_dims();
    let db = Arc::new(Database::new());
    db.register(spec.generate());
    (db, analyst, truth)
}

fn top_dims(views: &[ViewResult], k: usize) -> Vec<String> {
    let mut sorted = views.to_vec();
    sorted.sort_by(|a, b| b.utility.partial_cmp(&a.utility).unwrap());
    let mut dims = Vec::new();
    for v in sorted {
        if !dims.contains(&v.spec.dimension) {
            dims.push(v.spec.dimension);
        }
        if dims.len() >= k {
            break;
        }
    }
    dims
}

#[test]
fn sampling_preserves_the_planted_ranking() {
    let (db, analyst, truth) = planted_db(60_000, 5);
    let mut cfg = SeeDbConfig::recommended().with_k(5);
    cfg.optimizer.sample = Some(SampleSpec::Bernoulli {
        fraction: 0.1,
        seed: 17,
    });
    let rec = SeeDb::new(db, cfg).recommend(&analyst).unwrap();
    // A 10% sample of 60k rows easily preserves the planted top dims.
    let dims = top_dims(&rec.all, 2);
    for t in &truth {
        assert!(dims.contains(t), "sampled top dims {dims:?} missing {t}");
    }
    // And the scan cost reflects the sample.
    assert!(
        rec.cost.rows_scanned < 60_000 / 5,
        "sampled run scanned {} rows",
        rec.cost.rows_scanned
    );
}

#[test]
fn reservoir_sampling_also_works() {
    let (db, analyst, truth) = planted_db(60_000, 6);
    let mut cfg = SeeDbConfig::recommended().with_k(5);
    cfg.optimizer.sample = Some(SampleSpec::Reservoir {
        size: 8_000,
        seed: 23,
    });
    let rec = SeeDb::new(db, cfg).recommend(&analyst).unwrap();
    let dims = top_dims(&rec.all, 2);
    for t in &truth {
        assert!(dims.contains(t), "sampled top dims {dims:?} missing {t}");
    }
}

#[test]
fn sampling_is_deterministic_per_seed() {
    let (db, analyst, _) = planted_db(20_000, 7);
    let run = |seed: u64| {
        let mut cfg = SeeDbConfig::recommended().with_k(5);
        cfg.execution = cfg.execution.with_workers(1);
        cfg.optimizer.sample = Some(SampleSpec::Bernoulli {
            fraction: 0.05,
            seed,
        });
        SeeDb::new(db.clone(), cfg)
            .recommend(&analyst)
            .unwrap()
            .all
            .iter()
            .map(|v| v.utility)
            .collect::<Vec<f64>>()
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

#[test]
fn parallelism_changes_latency_not_results() {
    let (db, analyst, _) = planted_db(30_000, 8);
    let run = |workers: usize| {
        let mut cfg = SeeDbConfig::basic().with_k(5);
        cfg.execution = cfg.execution.with_workers(workers);
        SeeDb::new(db.clone(), cfg).recommend(&analyst).unwrap()
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq.all.len(), par.all.len());
    for (a, b) in seq.all.iter().zip(&par.all) {
        assert_eq!(a.spec, b.spec);
        assert!((a.utility - b.utility).abs() < 1e-12);
    }
    // Identical DBMS work regardless of workers.
    assert_eq!(seq.cost.rows_scanned, par.cost.rows_scanned);
    assert_eq!(seq.cost.queries, par.cost.queries);
}

/// Intra-plan parallelism (phased-parallel): worker count must be
/// invisible in the outcome — identical utilities (to the bit), pruned
/// sets, and per-phase survivor counts for workers ∈ {1, 4}.
#[test]
fn phased_parallel_workers_are_invisible_in_the_outcome() {
    let (db, analyst, truth) = planted_db(50_000, 11);
    let run = |workers: usize| {
        let mut cfg = SeeDbConfig::recommended().with_k(4);
        cfg.execution = seedb::core::ExecutionStrategy::phased().with_workers(workers);
        SeeDb::new(db.clone(), cfg).recommend(&analyst).unwrap()
    };
    let seq = run(1);
    let par = run(4);

    assert_eq!(seq.all.len(), par.all.len());
    for (a, b) in seq.all.iter().zip(&par.all) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
    }
    assert_eq!(seq.early_pruned.len(), par.early_pruned.len());
    for (a, b) in seq.early_pruned.iter().zip(&par.early_pruned) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.at_phase, b.at_phase);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }
    assert_eq!(seq.num_queries, par.num_queries, "one plan per phase");

    // And the planted deviation still wins.
    let dims = top_dims(&par.views, 2);
    for t in &truth {
        assert!(dims.contains(t), "phased top dims {dims:?} missing {t}");
    }
}

#[test]
fn tiny_samples_still_return_k_views_without_errors() {
    let (db, analyst, _) = planted_db(10_000, 9);
    let mut cfg = SeeDbConfig::recommended().with_k(5);
    cfg.optimizer.sample = Some(SampleSpec::Bernoulli {
        fraction: 0.001,
        seed: 3,
    });
    let rec = SeeDb::new(db, cfg).recommend(&analyst).unwrap();
    assert!(rec.errors.is_empty());
    assert!(!rec.views.is_empty());
    for v in &rec.views {
        assert!(v.utility.is_finite());
    }
}
