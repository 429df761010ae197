//! Shared helpers for the SeeDB benchmark harness.
//!
//! Each Criterion bench and the `experiments` binary regenerate one
//! artifact of the paper. The helpers here build the standard workloads
//! so every experiment measures the same data.

use std::sync::Arc;

use memdb::Database;
use seedb_core::AnalystQuery;
use seedb_data::{Plant, SyntheticSpec};

pub mod soak;

/// A ready-to-query benchmark workload: database + analyst query +
/// planted ground truth.
pub struct Workload {
    /// The database holding the synthetic fact table.
    pub db: Arc<Database>,
    /// The analyst query selecting the planted subset.
    pub analyst: AnalystQuery,
    /// Names of the planted deviating dimensions.
    pub ground_truth_dims: Vec<String>,
    /// The generator spec (for reporting knob values).
    pub spec: SyntheticSpec,
}

/// Build the standard planted-deviation workload used across Scenario-2
/// experiments: `rows` rows, `dims` dimensions of cardinality `card`
/// (Zipf 1.0), `measures` measures, deviations planted on d1 and d2.
pub fn workload(rows: usize, dims: usize, card: usize, measures: usize, seed: u64) -> Workload {
    assert!(dims >= 3, "need at least d0 (subset) + d1/d2 (planted)");
    let spec = SyntheticSpec::knobs(rows, dims, card, 1.0, measures, seed).with_plant(Plant {
        subset_dim: 0,
        subset_value: 0,
        deviating_dims: vec![1, 2],
        deviating_measures: vec![(0, 30.0)],
    });
    let analyst = AnalystQuery::new("synthetic", spec.subset_filter());
    let db = Arc::new(Database::new());
    db.register(spec.generate());
    Workload {
        db,
        analyst,
        ground_truth_dims: spec.ground_truth_dims(),
        spec,
    }
}

/// Jaccard similarity between two top-k view-label lists (the sampling
/// experiments' accuracy measure).
pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    let sa: std::collections::HashSet<&String> = a.iter().collect();
    let sb: std::collections::HashSet<&String> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Fraction of `truth` entries appearing in `found` (recall@k for the
/// Scenario-1 utility experiments).
pub fn recall(truth: &[String], found: &[String]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    truth.iter().filter(|t| found.contains(t)).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds() {
        let w = workload(1000, 4, 6, 2, 1);
        assert_eq!(w.ground_truth_dims, vec!["d1", "d2"]);
        assert!(w.analyst.filter.is_some());
        assert_eq!(w.db.table("synthetic").unwrap().num_rows(), 1000);
    }

    #[test]
    fn jaccard_and_recall() {
        let a: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let b: Vec<String> = ["y", "z"].iter().map(|s| s.to_string()).collect();
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(recall(&a, &b), 0.5);
        assert_eq!(recall(&[], &b), 1.0);
    }
}
