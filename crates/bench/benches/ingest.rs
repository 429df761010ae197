//! Live-ingest performance: append throughput and incremental cache
//! refresh vs full recomputation.
//!
//! * `ingest/append_1k` — publish one 1 000-row delta segment onto a
//!   200k-row table (`Database::append_rows`): the write-path cost of
//!   segmented storage (segment build + copy-on-write dictionary +
//!   catalog publish). Each iteration re-registers the cheap
//!   segment-sharing clone of the base table first, so the appended
//!   table never grows across iterations.
//! * `ingest/refresh_incr_*` vs `ingest/refresh_full_*` — the serving
//!   layer's maintenance choice after an append of 0.1% / 1% / 10% of
//!   the table: bring a cached partial-aggregate state forward by
//!   scanning only the delta rows and merging (`execute_partial` +
//!   `merge` + `finalize`), or recompute the plan from scratch. The
//!   incremental path's advantage is the delta-to-table ratio; at ≤1%
//!   deltas it must beat the full recompute outright (both sides
//!   produce byte-identical outputs — asserted once at setup).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memdb::{AggFunc, AggSpec, Database, LogicalPlan, Table, Value};
use seedb_bench::workload;
use seedb_data::SyntheticSpec;

const BASE_ROWS: usize = 200_000;

/// Delta batches are cut from a second generator run so they look like
/// live traffic (same schema and value domains, fresh seed).
fn delta_rows(n: usize, seed: u64) -> Vec<Vec<Value>> {
    let t = SyntheticSpec::knobs(n.max(1), 6, 10, 1.0, 2, seed).generate();
    (0..n).map(|i| t.row(i)).collect()
}

/// The representative serving plan: a combined target/comparison
/// shared-scan aggregate, the shape every recommendation caches.
fn serving_plan(filter: memdb::Expr) -> LogicalPlan {
    LogicalPlan::scan("synthetic").aggregate(
        vec!["d1".into()],
        vec![
            AggSpec::new(AggFunc::Sum, "m0")
                .with_filter(filter)
                .with_alias("target"),
            AggSpec::new(AggFunc::Sum, "m0").with_alias("comparison"),
            AggSpec::count_star(),
        ],
    )
}

fn bench_ingest(c: &mut Criterion) {
    let w = workload(BASE_ROWS, 6, 10, 2, 11);
    let base: Table = (*w.db.table("synthetic").expect("workload table")).clone();

    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);

    // --- Append throughput -----------------------------------------
    let batch = delta_rows(1_000, 99);
    let db = Database::new();
    group.bench_function("append_1k", |b| {
        b.iter(|| {
            // Re-publish the base (cheap: segments are shared behind
            // `Arc`s) so every append lands on a 200k-row table.
            db.register(base.clone());
            black_box(
                db.append_rows("synthetic", batch.clone())
                    .expect("append publishes"),
            )
        })
    });

    // --- Incremental refresh vs full recompute ----------------------
    let phys = serving_plan(w.analyst.filter.clone().expect("planted filter"))
        .lower()
        .expect("plan lowers");
    for (label, fraction) in [("0.1pct", 0.001f64), ("1pct", 0.01), ("10pct", 0.1)] {
        let delta_n = (BASE_ROWS as f64 * fraction) as usize;
        let db = Database::new();
        let snapshot = db.register(base.clone());
        let cached = phys
            .execute_partial(&snapshot, (0, snapshot.num_rows()))
            .expect("warm state");
        let live = db
            .append_rows("synthetic", delta_rows(delta_n, 7 + delta_n as u64))
            .expect("append publishes");
        let (lo, hi) = live
            .append_delta_since(snapshot.version())
            .expect("pure-append lineage");

        // Both maintenance paths must agree to the bit — the speedup
        // below is only meaningful because the answers are identical.
        {
            let mut incr = cached.clone();
            incr.merge(phys.execute_partial(&live, (lo, hi)).unwrap(), &live)
                .unwrap();
            let incr = incr.finalize(&live).unwrap();
            let full = phys.execute(&live).unwrap();
            assert_eq!(
                full.results, incr.results,
                "incremental refresh must equal full recompute"
            );
        }

        group.bench_function(format!("refresh_incr_{label}"), |b| {
            b.iter(|| {
                let mut state = cached.clone();
                let delta = phys
                    .execute_partial(&live, (lo, hi))
                    .expect("delta scan runs");
                state.merge(delta, &live).expect("states merge");
                black_box(state.finalize(&live).expect("finalize"))
            })
        });
        group.bench_function(format!("refresh_full_{label}"), |b| {
            b.iter(|| {
                black_box(
                    phys.execute_partial(&live, (0, live.num_rows()))
                        .expect("full scan runs")
                        .finalize(&live)
                        .expect("finalize"),
                )
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
