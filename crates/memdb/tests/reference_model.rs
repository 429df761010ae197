//! Reference-model property tests: the optimized aggregation kernels
//! (dictionary fast path, shared scans, per-aggregate predicates,
//! grouping sets) must agree exactly with a naive row-at-a-time
//! reference executor on randomly generated tables and queries.

mod reference;

use std::collections::BTreeMap;

use memdb::{AggFunc, AggSpec, Expr, LogicalPlan, Query};
use proptest::prelude::*;
use reference::{approx_eq, build_table, data_strategy, reference_aggregate, result_to_map};

const FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single group-by on the dict fast path (one string column) agrees
    /// with the reference for every aggregate function.
    #[test]
    fn single_dim_groupby_matches_reference(data in data_strategy(), func_idx in 0usize..5) {
        let func = FUNCS[func_idx];
        let t = build_table(&data);
        let spec = match func {
            AggFunc::Count => AggSpec::count_star(),
            f => AggSpec::new(f, "m"),
        };
        let q = Query::aggregate("t", vec!["d2"], vec![spec]);
        let out = q.plan().execute(&t).unwrap();
        let engine = result_to_map(&out.results[0], 1);
        let reference = reference_aggregate(&data, &[1], func, None, None);
        approx_eq(&engine, &reference).map_err(TestCaseError::fail)?;
    }

    /// Multi-column group-by (generic hashed path) agrees with the
    /// reference, including NULL groups.
    #[test]
    fn multi_dim_groupby_matches_reference(data in data_strategy(), func_idx in 0usize..5) {
        let func = FUNCS[func_idx];
        let t = build_table(&data);
        let spec = match func {
            AggFunc::Count => AggSpec::count_star(),
            f => AggSpec::new(f, "m"),
        };
        let q = Query::aggregate("t", vec!["d1", "d3"], vec![spec]);
        let out = q.plan().execute(&t).unwrap();
        let engine = result_to_map(&out.results[0], 2);
        let reference = reference_aggregate(&data, &[0, 2], func, None, None);
        approx_eq(&engine, &reference).map_err(TestCaseError::fail)?;
    }

    /// Per-aggregate predicates (the combined target/comparison rewrite)
    /// agree with running the reference twice.
    #[test]
    fn filtered_aggregates_match_reference(data in data_strategy()) {
        let t = build_table(&data);
        let q = Query::aggregate(
            "t",
            vec!["d2"],
            vec![
                AggSpec::new(AggFunc::Sum, "m")
                    .with_filter(Expr::col("d2").eq("x"))
                    .with_alias("target"),
                AggSpec::new(AggFunc::Sum, "m").with_alias("comparison"),
            ],
        );
        let out = q.plan().execute(&t).unwrap();
        // Column 1 = target, column 2 = comparison.
        let target: BTreeMap<Vec<String>, Option<f64>> = out.results[0]
            .rows
            .iter()
            .map(|r| (vec![r[0].render()], r[1].as_f64()))
            .collect();
        let comparison: BTreeMap<Vec<String>, Option<f64>> = out.results[0]
            .rows
            .iter()
            .map(|r| (vec![r[0].render()], r[2].as_f64()))
            .collect();
        let ref_target = reference_aggregate(&data, &[1], AggFunc::Sum, Some("x"), None);
        let ref_comparison = reference_aggregate(&data, &[1], AggFunc::Sum, None, None);
        approx_eq(&target, &ref_target).map_err(TestCaseError::fail)?;
        approx_eq(&comparison, &ref_comparison).map_err(TestCaseError::fail)?;
    }

    /// A WHERE filter agrees with pre-filtering the reference rows.
    #[test]
    fn where_filter_matches_reference(data in data_strategy(), limit in 0i64..5) {
        let t = build_table(&data);
        let q = Query::aggregate("t", vec!["d2"], vec![AggSpec::new(AggFunc::Avg, "m")])
            .with_filter(Expr::col("d3").lt(limit));
        let out = q.plan().execute(&t).unwrap();
        let engine = result_to_map(&out.results[0], 1);
        let reference = reference_aggregate(&data, &[1], AggFunc::Avg, None, Some(limit));
        approx_eq(&engine, &reference).map_err(TestCaseError::fail)?;
    }

    /// Grouping sets produce exactly what independent queries produce.
    #[test]
    fn grouping_sets_match_independent_queries(data in data_strategy()) {
        let t = build_table(&data);
        let aggs = vec![AggSpec::new(AggFunc::Sum, "m"), AggSpec::count_star()];
        let sets = LogicalPlan::scan("t").grouping_sets(
            vec![vec!["d1".into()], vec!["d2".into()], vec!["d3".into()]],
            aggs.clone(),
        );
        let combined = sets.lower().unwrap().execute(&t).unwrap();
        for (i, dim) in ["d1", "d2", "d3"].iter().enumerate() {
            let q = Query::aggregate("t", vec![dim], aggs.clone());
            let single = q.plan().execute(&t).unwrap();
            prop_assert_eq!(
                &combined.results[i].rows,
                &single.results[0].rows,
                "grouping set {} differs from standalone query",
                dim
            );
        }
        // And the shared scan really is one scan.
        prop_assert_eq!(combined.stats.table_scans, 1);
    }
}
