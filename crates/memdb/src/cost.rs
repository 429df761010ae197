//! Database-wide cost accounting.
//!
//! Wall-clock time is noisy and machine-dependent; scan and row counters
//! are deterministic. SeeDB's experiments report both, and the *shape* of
//! the paper's optimization claims (e.g. "combining target and comparison
//! halves the work") is asserted in CI using the deterministic counters.
//!
//! The counters are [`seedb_obs::Counter`] handles. A standalone
//! `CostCounters::default()` owns private cells (tests, ad-hoc use);
//! [`CostCounters::registered`] binds the same fields to a registry's
//! `exec.*` cells, so a [`CostSnapshot`] and a full metrics snapshot
//! are two views of one set of atomics, never divergent copies.

use seedb_obs::{Counter, Registry};

use crate::exec::ExecStats;

/// Monotonic counters accumulated across every query a [`crate::Database`]
/// executes. Thread-safe; updated by parallel executions as well.
#[derive(Debug, Default)]
pub struct CostCounters {
    queries: Counter,
    table_scans: Counter,
    rows_scanned: Counter,
    groups_emitted: Counter,
}

impl CostCounters {
    /// Counters backed by `registry`'s `exec.*` cells. Registering the
    /// same names elsewhere (e.g. a metrics snapshot) reads the exact
    /// cells this struct updates.
    pub fn registered(registry: &Registry) -> CostCounters {
        CostCounters {
            queries: registry.register_counter("exec.queries"),
            table_scans: registry.register_counter("exec.table_scans"),
            rows_scanned: registry.register_counter("exec.rows_scanned"),
            groups_emitted: registry.register_counter("exec.groups_emitted"),
        }
    }

    /// Record one execution.
    pub fn record(&self, stats: &ExecStats) {
        self.queries.inc();
        self.table_scans.add(stats.table_scans);
        self.rows_scanned.add(stats.rows_scanned);
        self.groups_emitted.add(stats.groups_emitted);
    }

    /// Snapshot the current totals.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            queries: self.queries.get(),
            table_scans: self.table_scans.get(),
            rows_scanned: self.rows_scanned.get(),
            groups_emitted: self.groups_emitted.get(),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.queries.reset();
        self.table_scans.reset();
        self.rows_scanned.reset();
        self.groups_emitted.reset();
    }
}

/// A point-in-time copy of [`CostCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Queries executed.
    pub queries: u64,
    /// Table scans performed.
    pub table_scans: u64,
    /// Rows scanned.
    pub rows_scanned: u64,
    /// Groups emitted.
    pub groups_emitted: u64,
}

impl CostSnapshot {
    /// Counter deltas between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            queries: self.queries - earlier.queries,
            table_scans: self.table_scans - earlier.table_scans,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
            groups_emitted: self.groups_emitted - earlier.groups_emitted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rows: u64, scans: u64, groups: u64) -> ExecStats {
        ExecStats {
            rows_scanned: rows,
            table_scans: scans,
            groups_emitted: groups,
            ..ExecStats::default()
        }
    }

    #[test]
    fn record_and_snapshot() {
        let c = CostCounters::default();
        c.record(&stats(100, 1, 5));
        c.record(&stats(200, 1, 7));
        let s = c.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.table_scans, 2);
        assert_eq!(s.rows_scanned, 300);
        assert_eq!(s.groups_emitted, 12);
    }

    #[test]
    fn since_computes_delta() {
        let c = CostCounters::default();
        c.record(&stats(100, 1, 5));
        let before = c.snapshot();
        c.record(&stats(50, 1, 2));
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.queries, 1);
        assert_eq!(delta.rows_scanned, 50);
    }

    #[test]
    fn reset_zeroes() {
        let c = CostCounters::default();
        c.record(&stats(1, 1, 1));
        c.reset();
        assert_eq!(c.snapshot(), CostSnapshot::default());
    }

    #[test]
    fn registered_counters_share_registry_cells() {
        let registry = Registry::new();
        let c = CostCounters::registered(&registry);
        c.record(&stats(100, 2, 5));
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("exec.queries"), Some(&1));
        assert_eq!(snap.counters.get("exec.table_scans"), Some(&2));
        assert_eq!(snap.counters.get("exec.rows_scanned"), Some(&100));
        assert_eq!(snap.counters.get("exec.groups_emitted"), Some(&5));
        // Same cells, both directions.
        registry.register_counter("exec.queries").inc();
        assert_eq!(c.snapshot().queries, 2);
    }

    #[test]
    fn concurrent_recording() {
        let c = std::sync::Arc::new(CostCounters::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.record(&stats(1, 1, 1));
                    }
                });
            }
        });
        assert_eq!(c.snapshot().queries, 4000);
        assert_eq!(c.snapshot().rows_scanned, 4000);
    }
}
