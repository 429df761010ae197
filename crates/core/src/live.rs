//! Live-ingest refresh policy: when and how the serving layer's cached
//! partial-aggregate states follow appends.
//!
//! `memdb`'s segmented storage makes appends *pure*: version `v+1`
//! shares every sealed segment with `v` and adds one delta segment, so
//! a [`memdb::PartialAggState`] cached at `v` can be brought to `v'` by
//! executing the plan over only the delta rows and
//! [`merge`](memdb::PartialAggState::merge)-ing — byte-identical to a
//! cold recomputation at `v'` by the partitioned-execution contract
//! (associative aggregate states, partition-ordered merge). This module
//! decides when that incremental path applies:
//!
//! * the cached version must be in the table's **append lineage**
//!   ([`memdb::Table::append_delta_since`]) — a re-registered
//!   (replaced) table resets its lineage, so stale refreshes are
//!   structurally impossible;
//! * the delta must be small enough to be worth it
//!   ([`RefreshConfig::max_delta_fraction`]) — a huge delta approaches
//!   full-scan cost while paying merge overhead on top.
//!
//! Sampled plans follow the same rule: sample membership is keyed by
//! row id ([`memdb::SampleSpec::keeps`]), so the sample of the delta rows
//! is exactly what a cold sampled scan at `v'` adds to the one at `v`.

use memdb::Table;

/// When cached states are refreshed after appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// Refresh an append-descended stale entry when a probe finds it
    /// (pay the delta scan on the first request after an append).
    Lazy,
    /// Additionally refresh every affected entry as soon as
    /// [`crate::Service::append_rows`] publishes a new version, so the
    /// next probe is an exact hit.
    Eager,
    /// Never refresh incrementally; stale entries invalidate and
    /// recompute from scratch (the pre-live-ingest behavior).
    Off,
}

/// Policy knobs for incremental cache maintenance under live ingest.
#[derive(Debug, Clone, Copy)]
pub struct RefreshConfig {
    /// When refreshes happen (lazy on probe, eager on append, or off).
    pub mode: RefreshMode,
    /// Fall back to a full recompute when the delta exceeds this
    /// fraction of the *new* table's rows (in `[0, 1]`).
    pub max_delta_fraction: f64,
}

impl RefreshConfig {
    /// Recommended policy: lazy refresh, falling back to recompute when
    /// more than half the table is new.
    pub fn recommended() -> Self {
        RefreshConfig {
            mode: RefreshMode::Lazy,
            max_delta_fraction: 0.5,
        }
    }

    /// Builder: set the refresh mode.
    pub fn with_mode(mut self, mode: RefreshMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: set the delta-size threshold.
    pub fn with_max_delta_fraction(mut self, fraction: f64) -> Self {
        self.max_delta_fraction = fraction;
        self
    }

    /// Decide how to bring a state cached at `cached_version` up to
    /// `table`'s current version.
    pub fn decide(&self, table: &Table, cached_version: u64) -> RefreshDecision {
        if self.mode == RefreshMode::Off {
            return RefreshDecision::Recompute(RecomputeReason::Disabled);
        }
        match table.append_delta_since(cached_version) {
            None => RefreshDecision::Recompute(RecomputeReason::NonAppendLineage),
            Some((lo, hi)) => {
                let delta = hi - lo;
                let fraction = delta as f64 / table.num_rows().max(1) as f64;
                if fraction > self.max_delta_fraction {
                    RefreshDecision::Recompute(RecomputeReason::DeltaTooLarge)
                } else {
                    RefreshDecision::Incremental { delta: (lo, hi) }
                }
            }
        }
    }
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig::recommended()
    }
}

/// Outcome of a refresh decision for one cached entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshDecision {
    /// Execute the plan over the half-open delta row range of the new
    /// version and merge into the cached state.
    Incremental {
        /// Rows `[lo, hi)` appended since the cached version.
        delta: (usize, usize),
    },
    /// Drop the entry and recompute from scratch.
    Recompute(RecomputeReason),
}

/// Why an entry could not be refreshed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeReason {
    /// The cached version is not an append ancestor of the current
    /// table (the name was re-registered/replaced, or the checkpoint
    /// aged out of the bounded lineage).
    NonAppendLineage,
    /// The delta exceeds [`RefreshConfig::max_delta_fraction`].
    DeltaTooLarge,
    /// Incremental refresh is switched off.
    Disabled,
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdb::{ColumnDef, DataType, Database, Schema, Table, Value};

    fn seeded_db(rows: usize) -> Database {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..rows {
            t.push_row(vec![
                Value::from(format!("g{}", i % 3)),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let db = Database::new();
        db.register(t);
        db
    }

    fn delta_rows(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::from("g0"), Value::Float(i as f64)])
            .collect()
    }

    #[test]
    fn small_append_deltas_refresh_incrementally() {
        let db = seeded_db(100);
        let v1 = db.table("t").unwrap();
        db.append_rows("t", delta_rows(10)).unwrap();
        let now = db.table("t").unwrap();
        let cfg = RefreshConfig::recommended();
        assert_eq!(
            cfg.decide(&now, v1.version()),
            RefreshDecision::Incremental { delta: (100, 110) }
        );
        // The current version trivially has an empty delta.
        assert_eq!(
            cfg.decide(&now, now.version()),
            RefreshDecision::Incremental { delta: (110, 110) }
        );
    }

    #[test]
    fn oversized_deltas_and_replacements_fall_back() {
        let db = seeded_db(10);
        let v1 = db.table("t").unwrap();
        db.append_rows("t", delta_rows(90)).unwrap();
        let now = db.table("t").unwrap();
        // 90 of 100 rows are new: recompute beats merge.
        let cfg = RefreshConfig::recommended().with_max_delta_fraction(0.5);
        assert_eq!(
            cfg.decide(&now, v1.version()),
            RefreshDecision::Recompute(RecomputeReason::DeltaTooLarge)
        );
        // A permissive threshold accepts the same delta.
        let loose = cfg.with_max_delta_fraction(1.0);
        assert_eq!(
            loose.decide(&now, v1.version()),
            RefreshDecision::Incremental { delta: (10, 100) }
        );

        // Replacement breaks the lineage.
        let schema = Schema::new(vec![
            ColumnDef::dimension("d", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        db.register(Table::new("t", schema));
        let replaced = db.table("t").unwrap();
        assert_eq!(
            cfg.decide(&replaced, now.version()),
            RefreshDecision::Recompute(RecomputeReason::NonAppendLineage)
        );
    }

    #[test]
    fn off_mode_always_recomputes() {
        let db = seeded_db(100);
        let v1 = db.table("t").unwrap();
        db.append_rows("t", delta_rows(1)).unwrap();
        let cfg = RefreshConfig::recommended().with_mode(RefreshMode::Off);
        assert_eq!(
            cfg.decide(&db.table("t").unwrap(), v1.version()),
            RefreshDecision::Recompute(RecomputeReason::Disabled)
        );
    }
}
