//! The metric catalogue (names, units, bounds) and the small statistics
//! helpers every workload shares. `BENCHMARK.json` at the repository
//! root lists exactly these names; `tests/benchmark_smoke.rs` holds the
//! two in step.

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// A count (or a ratio of counts) that repeats exactly for a given
    /// seed and scale on one machine; `compare` holds it to equality.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// What an analyst or operator feels. Emitted by every workload with
/// `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("recommend_p50_ms", "ms", Better::Lower, 0.25),
    e2e("recommend_p90_ms", "ms", Better::Lower, 0.25),
    e2e("requests_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// One layer each (`<layer>.<metric>`, layer = module). Emitted by every
/// workload with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    // core.service — Service::recommend, cache_stats(), metrics().
    time("core.service.recommend_ms", "ms"),
    time("core.service.self_ms", "ms"),
    time("core.service.unattributed_frac", "frac"),
    count("core.service.cache_hit_rate", "frac", Better::Higher),
    count(
        "core.service.cache_misses_per_request",
        "count",
        Better::Lower,
    ),
    count("core.service.cache_evictions", "count", Better::Lower),
    count(
        "core.service.batch_scans_per_request",
        "count",
        Better::Lower,
    ),
    count(
        "core.service.batched_plans_per_scan",
        "count",
        Better::Higher,
    ),
    count("core.service.refreshes_per_request", "count", Better::Lower),
    count(
        "core.service.refresh_rows_per_request",
        "count",
        Better::Lower,
    ),
    count("core.service.refresh_fallbacks", "count", Better::Lower),
    // core.metadata — MetadataCollector::collect.
    time("core.metadata.collect_ms", "ms"),
    rate("core.metadata.cells_per_s", "1/s"),
    // memdb.stats — TableStats::collect, cramers_v.
    time("memdb.stats.table_collect_ms", "ms"),
    time("memdb.stats.cramers_v_us_per_pair", "us"),
    // core.pruning — enumerate_views + prune.
    time("core.pruning.prune_us", "us"),
    count("core.pruning.kept_frac", "frac", Better::Lower),
    // core.optimizer — optimizer::plan incl. packing.
    time("core.optimizer.plan_us", "us"),
    count("core.optimizer.queries_per_request", "count", Better::Lower),
    count("core.optimizer.views_per_query", "count", Better::Higher),
    // memdb.plan — LogicalPlan::lower, PartialAggState::{project_for, finalize}.
    time("memdb.plan.lower_us", "us"),
    time("memdb.plan.project_ns_per_group", "ns"),
    time("memdb.plan.finalize_ns_per_group", "ns"),
    // memdb.exec — PhysicalPlan::execute_partial, full range, one thread.
    time("memdb.exec.scan_ms", "ms"),
    rate("memdb.exec.rows_per_s_core", "1/s"),
    count(
        "memdb.exec.rows_scanned_per_request",
        "count",
        Better::Lower,
    ),
    count("memdb.exec.table_scans_per_request", "count", Better::Lower),
    count("memdb.exec.groups_per_request", "count", Better::Lower),
    count("memdb.exec.match_frac", "frac", Better::Lower),
    // memdb.parallel — run_partitioned_partial, PartialAggState::merge.
    time("memdb.parallel.scan_ms", "ms"),
    rate("memdb.parallel.speedup", "x"),
    count(
        "memdb.parallel.partitions_per_scan",
        "count",
        Better::Higher,
    ),
    time("memdb.parallel.merge_ns_per_group", "ns"),
    // core.processor — Processor::{consume, finish}, top_k.
    time("core.processor.process_us", "us"),
    time("core.processor.ns_per_view", "ns"),
    time("core.processor.top_k_us", "us"),
    // memdb.catalog — Database::append_rows on an in-memory twin.
    time("memdb.catalog.append_us_per_batch", "us"),
    rate("memdb.catalog.append_rows_per_s", "1/s"),
    time("memdb.catalog.append_p99_ms", "ms"),
    // memdb.store — durable append_rows, save/open, store.* counters.
    rate("memdb.store.ingest_rows_per_s", "1/s"),
    time("memdb.store.append_p50_ms", "ms"),
    time("memdb.store.wal_us_per_append", "us"),
    count("memdb.store.wal_bytes_per_user_byte", "frac", Better::Lower),
    count("memdb.store.fsyncs_per_append", "count", Better::Lower),
    time("memdb.store.fsync_p50_us", "us"),
    time("memdb.store.fsync_p99_us", "us"),
    count("memdb.store.checkpoints", "count", Better::Lower),
    count(
        "memdb.store.checkpoint_bytes_per_user_byte",
        "frac",
        Better::Lower,
    ),
    time("memdb.store.checkpoint_stall_ms_max", "ms"),
    rate("memdb.store.save_mb_per_s", "MB/s"),
    rate("memdb.store.open_mb_per_s", "MB/s"),
    time("memdb.store.reopen_ms", "ms"),
    count("memdb.store.replayed_records", "count", Better::Lower),
    count(
        "memdb.store.disk_bytes_per_user_byte",
        "frac",
        Better::Lower,
    ),
    // bench — what the recorder itself costs.
    time("bench.trace_overhead_frac", "frac"),
];

/// Look a metric up in either catalogue.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Measured values by metric name. Every insert is checked against the
/// catalogue so a typo cannot ship a metric `BENCHMARK.json` never
/// heard of.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `defs`, in catalogue
    /// order; panics if a listed metric was never measured (every
    /// workload emits the whole list).
    pub fn to_json(&self, defs: &[MetricDef]) -> serde_json::Value {
        serde_json::Value::Object(
            defs.iter()
                .map(|d| {
                    let v = self
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                    (
                        d.name.to_string(),
                        serde_json::json!({"value": v, "unit": d.unit}),
                    )
                })
                .collect(),
        )
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Distance between the first and third quartile as a share of the
/// median — Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), which is what the driver computes.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 0.5), 5.0);
    }
}
