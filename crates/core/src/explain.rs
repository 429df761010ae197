//! EXPLAIN ANALYZE for the serving layer.
//!
//! A [`crate::Service`] executes an analyst request through a pipeline
//! of cache probes, shared batch scans, standalone scans, and
//! incremental refreshes. [`crate::Service::recommend_explained`] runs
//! one request with operator recording switched on: every point that
//! touches (or deliberately avoids) the table contributes one
//! [`ExplainOp`] carrying the extended [`ExecStats`] — rows scanned
//! vs. matched, partition fan-out, merge time, and the cache probe
//! outcome.
//!
//! The operator list reconciles *exactly* with the database's cost
//! counters: operators are recorded at the same points
//! [`memdb::Database`] cost recording fires, so the report's scan
//! totals equal the `exec.*` registry deltas over the request by
//! construction ([`ExplainReport::reconciles`] asserts it, and the
//! demo CLI's `:explain` prints both). No operator carries wall-clock
//! time; `merge_ns` is read from the injected clock and is 0 for
//! unpartitioned or cache-served operators, so on a fully warm
//! (all-hit) run the rendered report is byte-identical across repeats.

use memdb::{CacheOutcome, CostSnapshot, ExecStats};

/// One recorded operator of an explained request.
#[derive(Debug, Clone)]
pub struct ExplainOp {
    /// What the operator did: `cache_hit`, `projection_hit`,
    /// `batch_scan(n)`, `scan`, `refresh`, `refresh_restamp`.
    pub label: String,
    /// The operator's execution stats (zeroed scan figures for
    /// cache-served operators — that is exactly what they cost).
    pub stats: ExecStats,
}

/// Per-operator stats of one explained request plus the `exec.*`
/// registry counter deltas observed across it.
#[derive(Debug, Clone, Default)]
pub struct ExplainReport {
    /// Operators in execution order.
    pub ops: Vec<ExplainOp>,
    /// `exec.*` cost-counter deltas over the request (what the DBMS
    /// actually charged).
    pub cost_delta: CostSnapshot,
}

impl ExplainReport {
    /// Summed stats across all operators.
    pub fn totals(&self) -> ExecStats {
        let mut total = ExecStats::default();
        for op in &self.ops {
            total.merge(&op.stats);
        }
        total
    }

    /// Do the recorded operators' scan totals equal the registry's
    /// cost-counter deltas? True on a quiescent service (concurrent
    /// requests' scans land in the deltas but not in this report's
    /// operator list).
    pub fn reconciles(&self) -> bool {
        let t = self.totals();
        t.rows_scanned == self.cost_delta.rows_scanned
            && t.table_scans == self.cost_delta.table_scans
    }

    /// Render the report as a fixed-width table. Deterministic for
    /// deterministic stats: `merge_ns` is 0 for unpartitioned or
    /// cache-served operators, so a fully warm (all-hit) run renders
    /// byte-identical across repeats.
    pub fn render(&self) -> String {
        let mut rows: Vec<[String; 7]> = vec![[
            "operator".into(),
            "cache".into(),
            "rows_scanned".into(),
            "rows_matched".into(),
            "partitions".into(),
            "groups".into(),
            "merge_ns".into(),
        ]];
        let fmt_stats = |label: &str, s: &ExecStats, cache: String| {
            [
                label.to_string(),
                cache,
                s.rows_scanned.to_string(),
                s.rows_matched.to_string(),
                s.partitions.to_string(),
                s.groups_emitted.to_string(),
                s.merge_ns.to_string(),
            ]
        };
        for op in &self.ops {
            rows.push(fmt_stats(&op.label, &op.stats, op.stats.cache.to_string()));
        }
        let totals = self.totals();
        rows.push(fmt_stats("TOTAL", &totals, "-".into()));
        let mut widths = [0usize; 7];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:w$}", cell, w = widths[c]))
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
            if i == 0 {
                let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&rule.join("  "));
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "registry delta: queries={} table_scans={} rows_scanned={} groups_emitted={} \
             (reconciles: {})\n",
            self.cost_delta.queries,
            self.cost_delta.table_scans,
            self.cost_delta.rows_scanned,
            self.cost_delta.groups_emitted,
            self.reconciles(),
        ));
        out
    }
}

/// Shorthand for the all-zero stats cache-served operators report,
/// stamped with their probe outcome.
pub(crate) fn cache_only_stats(outcome: CacheOutcome) -> ExecStats {
    ExecStats {
        cache: outcome,
        ..ExecStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_reconciliation() {
        let report = ExplainReport {
            ops: vec![
                ExplainOp {
                    label: "scan".into(),
                    stats: ExecStats {
                        rows_scanned: 100,
                        rows_matched: 40,
                        table_scans: 1,
                        groups_emitted: 5,
                        partitions: 2,
                        merge_ns: 10,
                        cache: CacheOutcome::Miss,
                    },
                },
                ExplainOp {
                    label: "cache_hit".into(),
                    stats: cache_only_stats(CacheOutcome::Hit),
                },
            ],
            cost_delta: CostSnapshot {
                queries: 1,
                table_scans: 1,
                rows_scanned: 100,
                groups_emitted: 5,
            },
        };
        let t = report.totals();
        assert_eq!(t.rows_scanned, 100);
        assert_eq!(t.rows_matched, 40);
        assert_eq!(t.partitions, 2);
        assert!(report.reconciles());
        let mut off = report.clone();
        off.cost_delta.rows_scanned = 99;
        assert!(!off.reconciles());
    }

    #[test]
    fn render_is_deterministic_and_excludes_elapsed() {
        let report = ExplainReport {
            ops: vec![ExplainOp {
                label: "cache_hit".into(),
                stats: cache_only_stats(CacheOutcome::Hit),
            }],
            cost_delta: CostSnapshot::default(),
        };
        let a = report.render();
        assert_eq!(a, report.render());
        assert_eq!(a, report.clone().render());
        assert!(a.contains("cache_hit"));
        assert!(a.contains("hit"));
        assert!(a.contains("reconciles: true"));
        assert!(!a.contains("elapsed"));
    }

    #[test]
    fn empty_report_renders_header_and_totals() {
        let r = ExplainReport::default().render();
        assert!(r.starts_with("operator"));
        assert!(r.contains("TOTAL"));
    }
}
