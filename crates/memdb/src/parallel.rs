//! Parallel execution of logical plans: across plans and within one.
//!
//! SeeDB's final optimization (§3.3) issues view queries to the DBMS in
//! parallel: "as the number of queries executed in parallel increases, the
//! total latency decreases at the cost of increased per query execution
//! time". [`run_batch`] reproduces exactly that trade-off with a fixed
//! worker pool pulling plans from a shared queue: each [`LogicalPlan`] is
//! lowered to its physical operator and executed against one table
//! snapshot, and outputs come back in input order regardless of
//! completion order.
//!
//! [`run_partitioned_partial`] is the complementary *intra*-plan axis:
//! one shared-scan plan is split into contiguous row ranges, each range
//! is executed on its own `std::thread::scope` worker via
//! [`PhysicalPlan::execute_partial`], and the per-partition
//! [`PartialAggState`]s are merged in ascending partition order; the
//! caller finalizes once. Because every aggregate component is
//! associative (SUM/AVG through exact order-independent summation,
//! [`crate::exec::ExactSum`]), the finalized output is **byte-identical**
//! for every worker count and partition shape —
//! `tests/plan_equivalence.rs` holds it to that, against one partition
//! and against an independent naive evaluator.

use std::sync::atomic::{AtomicUsize, Ordering};

use seedb_obs::Span;

use crate::error::DbResult;
use crate::metrics::ExecMetrics;
use crate::plan::{LogicalPlan, PartialAggState, PhysicalPlan, PlanOutput};
use crate::table::Table;

/// Execute `plans` against the `table` snapshot using `workers` threads.
///
/// Every plan runs against `table` — the one version the caller
/// resolved — so a batch never mixes two versions of a table that is
/// appended to while it runs. `workers == 1` degenerates to sequential
/// execution (the paper's baseline). Outputs preserve input order
/// regardless of completion order; lowering and execution errors are
/// reported per plan. No cost is recorded here: the caller records each
/// successful output's stats (e.g. [`crate::Database::record_stats`]).
pub fn run_batch(
    table: &Table,
    plans: &[LogicalPlan],
    workers: usize,
) -> Vec<DbResult<PlanOutput>> {
    let run = |plan: &LogicalPlan| plan.lower()?.execute(table);
    let workers = workers.max(1).min(plans.len().max(1));
    if workers <= 1 {
        return plans.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, DbResult<PlanOutput>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = plans.get(i) else { break };
                        local.push((i, run(plan)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Execute one already-lowered plan across `workers` row partitions,
/// merging partial aggregate states in partition order, without
/// finalizing: callers either [`PartialAggState::finalize`] the state or
/// (phased execution in `seedb-core`) fold it into their own
/// accumulators directly instead of re-parsing finalized rows.
///
/// # Errors
/// Same as [`PhysicalPlan::execute_partial`].
pub fn run_partitioned_partial(
    table: &Table,
    plan: &PhysicalPlan,
    workers: usize,
) -> DbResult<PartialAggState> {
    run_partitioned_partial_obs(table, plan, workers, None, &Span::none())
}

/// [`run_partitioned_partial`] with observability: each partition's
/// `execute_partial` gets a child span under `span` (carrying its
/// partition index and row count), the ascending merge gets one `merge`
/// span, and partition fan-out / merge counts land in `metrics`. Both
/// are free to be absent (`None` / [`Span::none`]) — the plain entry
/// point delegates here with exactly that.
///
/// # Errors
/// Same as [`run_partitioned_partial`].
pub fn run_partitioned_partial_obs(
    table: &Table,
    plan: &PhysicalPlan,
    workers: usize,
    metrics: Option<&ExecMetrics>,
    span: &Span,
) -> DbResult<PartialAggState> {
    let (lo, hi) = plan.scan_range(table);
    let rows = hi - lo;
    let workers = workers.max(1).min(rows.max(1));
    // Contiguous, ascending, near-equal partitions of [lo, hi).
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| (lo + rows * w / workers, lo + rows * (w + 1) / workers))
        .collect();
    if let Some(m) = metrics {
        m.partial_partitions.add(workers as u64);
    }
    if workers <= 1 {
        let part = span.child("execute_partial");
        part.attr("partition", 0);
        part.attr("rows", rows);
        return plan.execute_partial(table, (lo, hi));
    }
    let partials: Vec<DbResult<PartialAggState>> = std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .iter()
            .enumerate()
            .map(|(w, &range)| {
                let part = span.child("execute_partial");
                part.attr("partition", w);
                part.attr("rows", range.1 - range.0);
                s.spawn(move || {
                    // Moved into the worker so its end time stamps when
                    // the partition actually finishes.
                    let _part = part;
                    plan.execute_partial(table, range)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition worker panicked"))
            .collect()
    });
    let merge_span = span.child("merge");
    merge_span.attr("partitions", workers);
    let merge_start = metrics.map(|m| m.clock.now_ns());
    let mut merged: Option<PartialAggState> = None;
    for partial in partials {
        let partial = partial?;
        match &mut merged {
            None => merged = Some(partial),
            Some(m) => {
                m.merge(partial, table)?;
                if let Some(em) = metrics {
                    em.partial_merges.inc();
                }
            }
        }
    }
    let mut merged = merged.expect("at least one partition");
    if let (Some(m), Some(t0)) = (metrics, merge_start) {
        merged.add_merge_ns(m.clock.now_ns().saturating_sub(t0));
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::exec::{AggFunc, AggSpec};
    use crate::schema::{ColumnDef, Schema};
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d1", DataType::Str),
            ColumnDef::dimension("d2", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..1000 {
            t.push_row(vec![
                Value::from(format!("a{}", i % 7)),
                Value::from(format!("b{}", i % 11)),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let db = Database::new();
        db.register(t);
        db
    }

    fn plans(n: usize) -> Vec<LogicalPlan> {
        (0..n)
            .map(|i| {
                LogicalPlan::scan("t").aggregate(
                    vec![if i % 2 == 0 { "d1".into() } else { "d2".into() }],
                    vec![AggSpec::new(AggFunc::Sum, "m")],
                )
            })
            .collect()
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let db = db();
        let table = db.table("t").unwrap();
        let ps = plans(8);
        let seq = run_batch(&table, &ps, 1);
        let par = run_batch(&table, &ps, 4);
        assert_eq!(seq.len(), 8);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.as_ref().unwrap().results, b.as_ref().unwrap().results);
        }
    }

    #[test]
    fn errors_are_per_plan() {
        let db = db();
        let table = db.table("t").unwrap();
        let mut ps = plans(2);
        ps.push(
            LogicalPlan::scan("t")
                .aggregate(vec!["no_such_column".into()], vec![AggSpec::count_star()]),
        );
        // A malformed plan (lowering error) is also reported in place.
        ps.push(LogicalPlan::scan("t"));
        let out = run_batch(&table, &ps, 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_ok());
        assert!(out[2].is_err());
        assert!(out[3].is_err());
    }

    #[test]
    fn empty_batch() {
        let db = db();
        let table = db.table("t").unwrap();
        assert!(run_batch(&table, &[], 4).is_empty());
    }

    #[test]
    fn grouping_sets_plans_in_batch() {
        let db = db();
        let table = db.table("t").unwrap();
        let ps = vec![LogicalPlan::scan("t").grouping_sets(
            vec![vec!["d1".into()], vec!["d2".into()]],
            vec![AggSpec::new(AggFunc::Sum, "m")],
        )];
        let out = run_batch(&table, &ps, 2);
        assert_eq!(out[0].as_ref().unwrap().results.len(), 2);
    }

    /// `plan` over `workers` row partitions, merged and finalized.
    fn run_split(table: &Table, plan: &LogicalPlan, workers: usize) -> DbResult<PlanOutput> {
        run_partitioned_partial(table, &plan.lower()?, workers)?.finalize(table)
    }

    fn assert_outputs_bitwise_eq(a: &PlanOutput, b: &PlanOutput) {
        assert_eq!(a.results.len(), b.results.len());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.columns, rb.columns);
            assert_eq!(ra.rows.len(), rb.rows.len());
            for (x, y) in ra.rows.iter().zip(&rb.rows) {
                for (va, vb) in x.iter().zip(y) {
                    match (va, vb) {
                        (Value::Float(f), Value::Float(g)) => {
                            assert_eq!(f.to_bits(), g.to_bits(), "{va:?} vs {vb:?}")
                        }
                        _ => assert_eq!(va, vb),
                    }
                }
            }
        }
    }

    #[test]
    fn partitioned_matches_single_threaded_bitwise() {
        let db = db();
        let table = db.table("t").unwrap();
        let filtered = LogicalPlan::scan("t")
            .filter(crate::expr::Expr::col("d1").eq("a3"))
            .aggregate(
                vec!["d2".into()],
                vec![
                    AggSpec::new(AggFunc::Sum, "m"),
                    AggSpec::new(AggFunc::Avg, "m")
                        .with_filter(crate::expr::Expr::col("d1").eq("a3")),
                    AggSpec::count_star(),
                ],
            );
        let sets = LogicalPlan::scan("t").grouping_sets(
            vec![vec!["d1".into()], vec!["d2".into()], vec![]],
            vec![
                AggSpec::new(AggFunc::Sum, "m"),
                AggSpec::new(AggFunc::Min, "m"),
                AggSpec::new(AggFunc::Max, "m"),
            ],
        );
        let sliced = LogicalPlan::scan("t")
            .aggregate(vec!["d1".into()], vec![AggSpec::new(AggFunc::Sum, "m")])
            .sliced(123, 789);
        for plan in [filtered, sets, sliced] {
            let single = plan.lower().unwrap().execute(&table).unwrap();
            for workers in [2usize, 3, 4, 7, 1000] {
                let partitioned = run_split(&table, &plan, workers).unwrap();
                assert_outputs_bitwise_eq(&single, &partitioned);
            }
        }
    }

    /// Signed zeros compare equal but differ in bits: MIN/MAX merges
    /// must keep the first-seen zero like a sequential scan does.
    #[test]
    fn signed_zero_min_max_is_bitwise_stable_across_partitions() {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("z", schema);
        for i in 0..64 {
            // Alternate 0.0 / -0.0 so every partition boundary splits a
            // run of equal-comparing, bitwise-distinct values.
            let z = if i % 2 == 0 { 0.0f64 } else { -0.0 };
            t.push_row(vec![Value::from("g"), Value::Float(z)]).unwrap();
        }
        let db = Database::new();
        db.register(t);
        let table = db.table("z").unwrap();
        for flip in [false, true] {
            let plan = LogicalPlan::scan("z").aggregate(
                vec!["d".into()],
                vec![
                    AggSpec::new(AggFunc::Min, "m"),
                    AggSpec::new(AggFunc::Max, "m"),
                ],
            );
            // `flip` swaps which zero comes first via a slice offset.
            let plan = if flip { plan.sliced(1, 64) } else { plan };
            let single = plan.lower().unwrap().execute(&table).unwrap();
            for workers in [2usize, 3, 7] {
                let partitioned = run_split(&table, &plan, workers).unwrap();
                assert_outputs_bitwise_eq(&single, &partitioned);
            }
        }
    }

    #[test]
    fn degenerate_slices_match_single_threaded_empty_output() {
        let db = db();
        let table = db.table("t").unwrap();
        let base = LogicalPlan::scan("t")
            .aggregate(vec!["d1".into()], vec![AggSpec::new(AggFunc::Sum, "m")]);
        // Inverted slice, and a slice entirely past the table.
        for (lo, hi) in [(500usize, 300usize), (1200, 900), (5000, 9000)] {
            let plan = base.clone().sliced(lo, hi);
            let single = plan.lower().unwrap().execute(&table).unwrap();
            let partitioned = run_split(&table, &plan, 4).unwrap();
            assert_eq!(single.result_set(0).unwrap().num_rows(), 0);
            assert_outputs_bitwise_eq(&single, &partitioned);
        }
    }

    #[test]
    fn partitioned_reports_full_scan_cost_once() {
        let db = db();
        let table = db.table("t").unwrap();
        let plan = LogicalPlan::scan("t")
            .aggregate(vec!["d1".into()], vec![AggSpec::new(AggFunc::Sum, "m")]);
        let stats = run_split(&table, &plan, 4).unwrap().stats;
        assert_eq!(stats.rows_scanned, 1000);
        assert_eq!(stats.partitions, 4);
        assert_eq!(stats.groups_emitted, 7);
        // One *logical* shared scan, regardless of worker count: the
        // counter must not scale with intra-plan parallelism.
        assert_eq!(stats.table_scans, 1);
    }

    #[test]
    fn partial_merge_rejects_mismatched_shapes() {
        let db = db();
        let table = db.table("t").unwrap();
        let a = LogicalPlan::scan("t")
            .aggregate(vec!["d1".into()], vec![AggSpec::new(AggFunc::Sum, "m")])
            .lower()
            .unwrap();
        let b = LogicalPlan::scan("t")
            .grouping_sets(
                vec![vec!["d1".into()], vec!["d2".into()]],
                vec![AggSpec::new(AggFunc::Sum, "m")],
            )
            .lower()
            .unwrap();
        let mut pa = a.execute_partial(&table, (0, 500)).unwrap();
        let pb = b.execute_partial(&table, (500, 1000)).unwrap();
        assert!(pa.merge(pb, &table).is_err());

        // Same arity but different grouping column / aggregate: must
        // also be rejected, not silently merged.
        let c = LogicalPlan::scan("t")
            .aggregate(vec!["d2".into()], vec![AggSpec::new(AggFunc::Sum, "m")])
            .lower()
            .unwrap();
        let d = LogicalPlan::scan("t")
            .aggregate(vec!["d1".into()], vec![AggSpec::new(AggFunc::Avg, "m")])
            .lower()
            .unwrap();
        let pc = c.execute_partial(&table, (500, 1000)).unwrap();
        assert!(pa.merge(pc, &table).is_err(), "different grouping column");
        let mut pa2 = a.execute_partial(&table, (0, 500)).unwrap();
        let pd = d.execute_partial(&table, (500, 1000)).unwrap();
        assert!(pa2.merge(pd, &table).is_err(), "different aggregate func");
    }
}
