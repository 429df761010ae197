//! The View Processor (paper Fig. 4).
//!
//! "Results of the optimized queries are processed by the View Processor
//! in a streaming fashion to produce results for individual views.
//! Individual view results are then normalized and the utility of each
//! view is computed. Finally SEEDB selects the top k views with the
//! highest utility."
//!
//! [`Processor::consume`] accepts each planned query's output as it
//! completes (any order), recovers per-view target/comparison value
//! vectors via the plan's [`Extract`]s — including backend roll-up of
//! multi-attribute group-by results — and [`Processor::finish`] scores
//! every view.

use std::collections::HashMap;

use memdb::{DbResult, PlanOutput, ResultSet, Value};

use crate::distance::Metric;
use crate::distribution::{label_of, AlignedPair, Distribution};
use crate::optimizer::{Extract, PlannedQuery, RollupCols, ValueSource};
use crate::querygen::Side;
use crate::view::ViewSpec;

/// A fully scored view.
#[derive(Debug, Clone)]
pub struct ViewResult {
    /// The view.
    pub spec: ViewSpec,
    /// Deviation-based utility `U(V) = S(P[V(D_Q)], P[V(D)])`.
    pub utility: f64,
    /// Target-view distribution (over the analyst's subset).
    pub target: Distribution,
    /// Comparison-view distribution (over the whole table).
    pub comparison: Distribution,
    /// The two distributions aligned on their group-label union.
    pub aligned: AlignedPair,
}

impl ViewResult {
    /// The group with the largest probability change (frontend metadata).
    pub fn max_change(&self) -> Option<(String, f64)> {
        self.aligned.max_change().map(|(l, d)| (l.to_string(), d))
    }
}

/// Streaming accumulator for view distributions.
#[derive(Debug)]
pub struct Processor {
    views: Vec<ViewSpec>,
    metric: Metric,
    target: Vec<Option<Distribution>>,
    comparison: Vec<Option<Distribution>>,
}

impl Processor {
    /// A processor expecting distributions for `views`.
    pub fn new(views: Vec<ViewSpec>, metric: Metric) -> Self {
        let n = views.len();
        Processor {
            views,
            metric,
            target: vec![None; n],
            comparison: vec![None; n],
        }
    }

    /// Consume one planned query's output, extracting every view
    /// distribution it carries.
    ///
    /// # Errors
    /// `UnknownColumn`/`Internal` if the output does not match the plan
    /// (a plan/executor mismatch is a bug, surfaced as an error rather
    /// than a panic).
    pub fn consume(&mut self, planned: &PlannedQuery, output: &PlanOutput) -> DbResult<()> {
        for extract in &planned.extracts {
            let result = output.result_set(extract.result_index)?;
            let dist = extract_distribution(result, extract)?;
            let slot = match extract.side {
                Side::Target => &mut self.target[extract.view_index],
                Side::Comparison => &mut self.comparison[extract.view_index],
            };
            *slot = Some(dist);
        }
        Ok(())
    }

    /// Number of views whose both sides have arrived.
    pub fn complete_views(&self) -> usize {
        self.target
            .iter()
            .zip(&self.comparison)
            .filter(|(t, c)| t.is_some() && c.is_some())
            .count()
    }

    /// Score every view. Views missing a side (a failed query) score with
    /// an empty distribution on that side.
    pub fn finish(self) -> Vec<ViewResult> {
        let empty = Distribution::from_pairs(vec![]);
        self.views
            .into_iter()
            .zip(self.target)
            .zip(self.comparison)
            .map(|((spec, t), c)| {
                let target = t.unwrap_or_else(|| empty.clone());
                let comparison = c.unwrap_or_else(|| empty.clone());
                let aligned = AlignedPair::align(&target, &comparison);
                let utility = self.metric.distance(&aligned);
                ViewResult {
                    spec,
                    utility,
                    target,
                    comparison,
                    aligned,
                }
            })
            .collect()
    }
}

/// Build one view-side distribution from a result set per `extract`.
fn extract_distribution(result: &ResultSet, extract: &Extract) -> DbResult<Distribution> {
    let dim_idx = result.column_index(&extract.dim_col)?;
    match &extract.source {
        ValueSource::Column(col) => {
            let val_idx = result.column_index(col)?;
            let pairs = result
                .rows
                .iter()
                .map(|row| (label_of(&row[dim_idx]), row[val_idx].as_f64()))
                .collect();
            Ok(Distribution::from_pairs(pairs))
        }
        ValueSource::Rollup(cols) => rollup(result, dim_idx, cols),
    }
}

/// Marginalize a multi-attribute group-by result over one dimension.
fn rollup(result: &ResultSet, dim_idx: usize, cols: &RollupCols) -> DbResult<Distribution> {
    use memdb::AggFunc;

    #[derive(Default, Clone, Copy)]
    struct Acc {
        sum: f64,
        count: f64,
        min: f64,
        max: f64,
        any: bool,
    }

    let col_idx = |name: &Option<String>| -> DbResult<Option<usize>> {
        match name {
            Some(n) => Ok(Some(result.column_index(n)?)),
            None => Ok(None),
        }
    };
    let sum_idx = col_idx(&cols.sum)?;
    let count_idx = col_idx(&cols.count)?;
    let min_idx = col_idx(&cols.min)?;
    let max_idx = col_idx(&cols.max)?;

    let mut groups: HashMap<String, Acc> = HashMap::new();
    for row in &result.rows {
        let label = label_of(&row[dim_idx]);
        let acc = groups.entry(label).or_insert(Acc {
            sum: 0.0,
            count: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            any: false,
        });
        // A fine group contributes only if its components are non-null
        // (an all-null fine group had no qualifying rows on this side).
        let mut contributed = false;
        if let Some(i) = sum_idx {
            if let Some(v) = row[i].as_f64() {
                acc.sum += v;
                contributed = true;
            }
        }
        if let Some(i) = count_idx {
            match &row[i] {
                Value::Int(n) => {
                    acc.count += *n as f64;
                    if *n > 0 {
                        contributed = true;
                    }
                }
                Value::Null => {}
                other => {
                    if let Some(v) = other.as_f64() {
                        acc.count += v;
                        if v > 0.0 {
                            contributed = true;
                        }
                    }
                }
            }
        }
        if let Some(i) = min_idx {
            if let Some(v) = row[i].as_f64() {
                acc.min = acc.min.min(v);
                contributed = true;
            }
        }
        if let Some(i) = max_idx {
            if let Some(v) = row[i].as_f64() {
                acc.max = acc.max.max(v);
                contributed = true;
            }
        }
        acc.any |= contributed;
    }

    let pairs = groups
        .into_iter()
        .map(|(label, acc)| {
            let value = if !acc.any {
                None
            } else {
                match cols.func {
                    AggFunc::Sum => Some(acc.sum),
                    AggFunc::Count => Some(acc.count),
                    AggFunc::Avg => {
                        if acc.count > 0.0 {
                            Some(acc.sum / acc.count)
                        } else {
                            None
                        }
                    }
                    AggFunc::Min => acc.min.is_finite().then_some(acc.min),
                    AggFunc::Max => acc.max.is_finite().then_some(acc.max),
                }
            };
            (label, value)
        })
        .collect();
    Ok(Distribution::from_pairs(pairs))
}

/// The `k` highest-utility views, sorted by descending utility
/// (ties broken by view label for determinism).
pub fn top_k(mut results: Vec<ViewResult>, k: usize) -> Vec<ViewResult> {
    results.sort_by(|a, b| {
        b.utility
            .partial_cmp(&a.utility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.spec.label().cmp(&b.spec.label()))
    });
    results.truncate(k);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::MetadataCollector;
    use crate::optimizer::{plan, GroupByCombining, OptimizerConfig};
    use crate::querygen::AnalystQuery;
    use crate::view::{enumerate_views, FunctionSet};
    use memdb::{run_batch, AggFunc, ColumnDef, DataType, Database, Expr, Schema, Table, Value};

    /// Sales table where Laserwave rows skew heavily to MA while overall
    /// sales skew to WA — so SUM(amount) BY store deviates strongly, and
    /// SUM(steady) BY store does not.
    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::dimension("product", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
            ColumnDef::measure("steady", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("sales", schema);
        // 100 Laserwave rows: 80 in MA, 20 in WA.
        for i in 0..100 {
            let store = if i < 80 { "MA" } else { "WA" };
            t.push_row(vec![
                store.into(),
                "Laserwave".into(),
                Value::Float(10.0),
                Value::Float(5.0),
            ])
            .unwrap();
        }
        // 400 other rows: 80 in MA, 320 in WA.
        for i in 0..400 {
            let store = if i < 80 { "MA" } else { "WA" };
            t.push_row(vec![
                store.into(),
                "Other".into(),
                Value::Float(10.0),
                Value::Float(5.0),
            ])
            .unwrap();
        }
        t
    }

    fn run_plan(db: &Database, views: Vec<ViewSpec>, cfg: &OptimizerConfig) -> Vec<ViewResult> {
        let t = db.table("sales").unwrap();
        let md = MetadataCollector::new().collect(&t, false).unwrap();
        let analyst = AnalystQuery::new("sales", Some(Expr::col("product").eq("Laserwave")));
        let p = plan(&views, &analyst, &md, cfg);
        let plans: Vec<memdb::LogicalPlan> = p.queries.iter().map(|q| q.plan.clone()).collect();
        let outputs = run_batch(&t, &plans, 1);
        let mut proc = Processor::new(views, Metric::EarthMovers);
        for (pq, out) in p.queries.iter().zip(outputs) {
            proc.consume(pq, &out.unwrap()).unwrap();
        }
        assert_eq!(proc.complete_views(), proc.target.len());
        proc.finish()
    }

    #[test]
    fn deviating_view_scores_higher_than_steady_view() {
        let db = Database::new();
        db.register(demo_table());
        let views = vec![
            ViewSpec::new("store", "amount", AggFunc::Sum),
            ViewSpec::new("store", "steady", AggFunc::Avg),
        ];
        let results = run_plan(&db, views, &OptimizerConfig::basic());
        // amount BY store: target 80/20 vs comparison 32/68 — deviates.
        // AVG(steady) BY store: 5.0 everywhere — identical distributions.
        assert!(results[0].utility > 0.3, "got {}", results[0].utility);
        assert!(results[1].utility < 1e-9, "got {}", results[1].utility);
    }

    #[test]
    fn all_optimizer_configs_agree_on_utilities() {
        let db = Database::new();
        db.register(demo_table());
        let t = db.table("sales").unwrap();
        let views = enumerate_views(t.schema(), &FunctionSet::full());
        let baseline = run_plan(&db, views.clone(), &OptimizerConfig::basic());
        let configs = [
            {
                let mut c = OptimizerConfig::basic();
                c.combine_target_comparison = true;
                c
            },
            {
                let mut c = OptimizerConfig::basic();
                c.combine_aggregates = true;
                c
            },
            OptimizerConfig::all_optimizations(),
            {
                let mut c = OptimizerConfig::all_optimizations();
                c.group_by_combining = GroupByCombining::MultiGroupBy;
                c
            },
        ];
        for cfg in configs {
            let results = run_plan(&db, views.clone(), &cfg);
            for (a, b) in baseline.iter().zip(&results) {
                assert_eq!(a.spec, b.spec);
                assert!(
                    (a.utility - b.utility).abs() < 1e-9,
                    "{}: {} vs {} under {cfg:?}",
                    a.spec,
                    a.utility,
                    b.utility
                );
            }
        }
    }

    #[test]
    fn top_k_sorts_and_truncates() {
        let db = Database::new();
        db.register(demo_table());
        let t = db.table("sales").unwrap();
        let views = enumerate_views(t.schema(), &FunctionSet::full());
        let results = run_plan(&db, views, &OptimizerConfig::basic());
        let k = top_k(results, 3);
        assert_eq!(k.len(), 3);
        assert!(k[0].utility >= k[1].utility);
        assert!(k[1].utility >= k[2].utility);
        // A genuinely deviating view wins (store skew or the filter
        // attribute itself), with clearly positive utility.
        assert!(k[0].utility > 0.3);
    }

    #[test]
    fn max_change_metadata() {
        let db = Database::new();
        db.register(demo_table());
        let views = vec![ViewSpec::new("store", "amount", AggFunc::Sum)];
        let results = run_plan(&db, views, &OptimizerConfig::basic());
        let (label, delta) = results[0].max_change().unwrap();
        assert!(label == "MA" || label == "WA");
        assert!(delta > 0.3);
    }

    #[test]
    fn missing_side_scores_against_empty() {
        let views = vec![ViewSpec::count("d")];
        let proc = Processor::new(views, Metric::L1);
        let results = proc.finish();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].utility, 0.0);
        assert!(results[0].aligned.is_empty());
    }

    #[test]
    fn consume_rejects_mismatched_plan() {
        let views = vec![ViewSpec::count("d")];
        let mut proc = Processor::new(views.clone(), Metric::L1);
        let planned = PlannedQuery {
            plan: memdb::LogicalPlan::scan("t")
                .aggregate(vec!["d".into()], vec![memdb::AggSpec::count_star()]),
            extracts: vec![Extract {
                view_index: 0,
                result_index: 3, // out of range for a single-grouping plan
                side: Side::Target,
                dim_col: "d".into(),
                source: ValueSource::Column("x".into()),
            }],
        };
        let output = PlanOutput {
            results: vec![ResultSet {
                columns: vec!["d".into(), "x".into()],
                rows: vec![],
            }],
            stats: Default::default(),
        };
        assert!(proc.consume(&planned, &output).is_err());
    }
}
