//! Tables: a schema plus segmented columnar data, with append lineage.

use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::Value;

/// Append-lineage checkpoints a table remembers, oldest first. Bounds
/// the lineage vector; cached states stamped at versions that have
/// fallen off the front simply fall back to a full recompute.
const MAX_LINEAGE: usize = 64;

/// An in-memory table: schema + one segmented [`Column`] per attribute.
///
/// Tables are append-only; SeeDB's workload is analytical
/// (scan/aggregate), so there is no update/delete path. Storage is
/// *segmented*: registering a table with a [`crate::Database`] seals its
/// segments, and [`crate::Database::append_rows`] publishes version
/// `v+1` as a new `Table` value that shares every sealed segment with
/// version `v` and adds exactly one new segment holding the appended
/// rows. Row ids and dictionary codes of shared segments never change,
/// which is what makes cached partial aggregates refreshable by
/// scanning only the delta rows (see [`Table::append_delta_since`]).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    /// Catalog version stamp: 0 until the table is registered with a
    /// [`crate::Database`], which assigns a fresh value from its own
    /// monotonic counter. Result caches key on this to detect staleness.
    version: u64,
    /// `(version, rows)` checkpoints of this table's pure-append
    /// history, oldest first; the current version is the last entry.
    /// Registering (replacing) resets the lineage to a single entry, so
    /// a state computed against a *replaced* table can never be
    /// mistaken for an append ancestor.
    lineage: Vec<(u64, usize)>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(name: &str, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::new(c.dtype))
            .collect();
        Table {
            name: name.to_string(),
            schema,
            columns,
            rows: 0,
            version: 0,
            lineage: Vec::new(),
        }
    }

    /// An empty table with row capacity pre-reserved.
    pub fn with_capacity(name: &str, schema: Schema, cap: usize) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::with_capacity(c.dtype, cap))
            .collect();
        Table {
            name: name.to_string(),
            schema,
            columns,
            rows: 0,
            version: 0,
            lineage: Vec::new(),
        }
    }

    /// Rebuild a sealed, stamped table from stored parts (the durable
    /// store's reconstruction path). Columns must already agree on row
    /// count and segment boundaries; `lineage` is the stored append
    /// history with the current `(version, rows)` as its last entry.
    pub(crate) fn from_parts(
        name: String,
        schema: Schema,
        columns: Vec<Column>,
        rows: usize,
        version: u64,
        lineage: Vec<(u64, usize)>,
    ) -> Table {
        Table {
            name,
            schema,
            columns,
            rows,
            version,
            lineage,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Catalog version stamp. 0 for an unregistered table; registering
    /// (or re-registering) with a [`crate::Database`] assigns a fresh,
    /// strictly increasing value, so two registrations under the same
    /// name never share a version. Caches keyed on
    /// `(plan fingerprint, version)` therefore never serve results
    /// computed against a replaced table.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamp a fresh registration (called by `Database::register`):
    /// seals all segments and resets the lineage to this single
    /// checkpoint. A registration is a *replacement*, never an append —
    /// states cached against any earlier version of the name must not
    /// be incrementally refreshed onto this table, and resetting the
    /// lineage makes [`Table::append_delta_since`] refuse them.
    pub(crate) fn stamp_registered(&mut self, version: u64) {
        self.seal_segments();
        self.version = version;
        self.lineage = vec![(version, self.rows)];
    }

    /// Stamp an append (called by `Database::append_rows`): seals the
    /// delta segment and extends the lineage with this checkpoint.
    pub(crate) fn stamp_appended(&mut self, version: u64) {
        self.seal_segments();
        self.version = version;
        self.lineage.push((version, self.rows));
        if self.lineage.len() > MAX_LINEAGE {
            let excess = self.lineage.len() - MAX_LINEAGE;
            self.lineage.drain(..excess);
        }
    }

    /// If this table is a pure-append descendant of `version`, the
    /// half-open row range `[rows_at_version, rows_now)` holding every
    /// row appended since — the *delta* an incrementally maintained
    /// partial aggregate must scan. `None` when `version` is not in the
    /// append lineage (the name was re-registered/replaced, the table
    /// was never at that version, or the checkpoint aged out of the
    /// bounded lineage) — callers must fall back to a full recompute.
    pub fn append_delta_since(&self, version: u64) -> Option<(usize, usize)> {
        self.lineage
            .iter()
            .find(|&&(v, _)| v == version)
            .map(|&(_, rows_then)| (rows_then, self.rows))
    }

    /// The `(version, rows)` append checkpoints, oldest first (bounded;
    /// the current version is always the last entry for a registered
    /// table).
    pub fn lineage(&self) -> &[(u64, usize)] {
        &self.lineage
    }

    /// Seal every column's open segment so subsequent pushes open a new
    /// one. Segment boundaries therefore align with published table
    /// versions.
    pub(crate) fn seal_segments(&mut self) {
        for c in &mut self.columns {
            c.seal();
        }
    }

    /// Number of storage segments (identical across columns: rows are
    /// pushed to all columns together and sealed together).
    pub fn num_segments(&self) -> usize {
        self.columns.first().map_or(0, Column::num_segments)
    }

    /// Segment count at which [`crate::Database::append_rows`] compacts
    /// a table instead of letting per-row segment lookups degrade
    /// unboundedly under long append histories.
    pub const SEGMENT_COMPACT_THRESHOLD: usize = 64;

    /// A single-segment rebuild of this table: same name, schema, rows
    /// (in order), version, and lineage.
    ///
    /// Compaction preserves everything cached state depends on: row ids
    /// are unchanged (row order is preserved), and dictionary codes are
    /// unchanged because re-interning strings in row order reproduces
    /// the original first-occurrence interning order exactly (all
    /// pushes — initial build and every append — happened in row
    /// order). Snapshots of previous versions keep their own segments;
    /// only the new version reads the compacted layout.
    ///
    /// # Errors
    /// Row round-trip errors (impossible for a well-typed table).
    pub(crate) fn compacted(&self) -> DbResult<Table> {
        let mut t = Table::with_capacity(&self.name, self.schema.clone(), self.rows);
        for i in 0..self.rows {
            t.push_row(self.row(i))?;
        }
        t.seal_segments();
        t.version = self.version;
        t.lineage = self.lineage.clone();
        Ok(t)
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row. Values must match the schema arity and types.
    ///
    /// # Errors
    /// `Schema` on arity mismatch; `TypeMismatch` on a bad value. On type
    /// error the row is *not* partially applied — the table stays
    /// consistent.
    pub fn push_row(&mut self, row: Vec<Value>) -> DbResult<()> {
        if row.len() != self.schema.len() {
            return Err(DbError::Schema(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        // Validate types before mutating any column so a failure cannot
        // leave columns at different lengths.
        for (v, def) in row.iter().zip(self.schema.columns()) {
            if let Some(t) = v.data_type() {
                let ok = t == def.dtype
                    || (def.dtype == crate::value::DataType::Float64
                        && t == crate::value::DataType::Int64);
                if !ok {
                    return Err(DbError::TypeMismatch {
                        expected: def.dtype.name().to_string(),
                        found: t.name().to_string(),
                        context: format!("column {}", def.name),
                    });
                }
            }
        }
        for (v, col) in row.into_iter().zip(self.columns.iter_mut()) {
            col.push(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Column by index.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> DbResult<&Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// Materialize row `i` as values (for display / small results only).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Build a new table containing only the rows in `selection`
    /// (for tests; analytical paths work on selections without
    /// materializing).
    pub fn materialize_selection(&self, name: &str, selection: &[u32]) -> DbResult<Table> {
        let mut t = Table::with_capacity(name, self.schema.clone(), selection.len());
        for &i in selection {
            t.push_row(self.row(i as usize))?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn sales_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
        ])
        .unwrap()
    }

    #[test]
    fn push_and_read_rows() {
        let mut t = Table::new("sales", sales_schema());
        t.push_row(vec!["Cambridge, MA".into(), 180.55.into()])
            .unwrap();
        t.push_row(vec!["Seattle, WA".into(), 145.50.into()])
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(
            t.row(1),
            vec![Value::from("Seattle, WA"), Value::Float(145.5)]
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new("sales", sales_schema());
        let r = t.push_row(vec!["x".into()]);
        assert!(matches!(r, Err(DbError::Schema(_))));
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn type_mismatch_leaves_table_consistent() {
        let mut t = Table::new("sales", sales_schema());
        // amount is float; pushing a string into it must fail without
        // corrupting the store column.
        let r = t.push_row(vec!["x".into(), "oops".into()]);
        assert!(r.is_err());
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.column("store").unwrap().len(), 0);
        assert_eq!(t.column("amount").unwrap().len(), 0);
    }

    #[test]
    fn int_widens_into_float_measure() {
        let mut t = Table::new("sales", sales_schema());
        t.push_row(vec!["x".into(), Value::Int(3)]).unwrap();
        assert_eq!(t.column("amount").unwrap().get(0), Value::Float(3.0));
    }

    #[test]
    fn materialize_selection_picks_rows() {
        let mut t = Table::new("sales", sales_schema());
        for (s, a) in [("a", 1.0), ("b", 2.0), ("c", 3.0)] {
            t.push_row(vec![s.into(), a.into()]).unwrap();
        }
        let sub = t.materialize_selection("sub", &[0, 2]).unwrap();
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.row(1)[0], Value::from("c"));
    }

    #[test]
    fn nulls_allowed_in_any_column() {
        let mut t = Table::new("sales", sales_schema());
        t.push_row(vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(t.row(0), vec![Value::Null, Value::Null]);
    }

    #[test]
    fn seal_aligns_segment_boundaries_across_columns() {
        let mut t = Table::new("sales", sales_schema());
        t.push_row(vec!["a".into(), 1.0.into()]).unwrap();
        t.seal_segments();
        t.push_row(vec!["b".into(), 2.0.into()]).unwrap();
        assert_eq!(t.num_segments(), 2);
        // Both columns see both segments; reads span them seamlessly.
        assert_eq!(t.row(0), vec![Value::from("a"), Value::Float(1.0)]);
        assert_eq!(t.row(1), vec![Value::from("b"), Value::Float(2.0)]);
    }

    #[test]
    fn lineage_stamps_and_delta_ranges() {
        let mut t = Table::new("sales", sales_schema());
        t.push_row(vec!["a".into(), 1.0.into()]).unwrap();
        assert!(t.lineage().is_empty());
        assert_eq!(t.append_delta_since(0), None, "unregistered: no lineage");

        t.stamp_registered(7);
        assert_eq!(t.lineage(), &[(7, 1)]);
        assert_eq!(t.append_delta_since(7), Some((1, 1)), "empty delta");

        t.push_row(vec!["b".into(), 2.0.into()]).unwrap();
        t.push_row(vec!["c".into(), 3.0.into()]).unwrap();
        t.stamp_appended(9);
        assert_eq!(t.append_delta_since(7), Some((1, 3)));
        assert_eq!(t.append_delta_since(9), Some((3, 3)));
        assert_eq!(t.append_delta_since(8), None, "never published at 8");

        // Re-registration resets the lineage: nothing older than the
        // replacement is append-refreshable.
        t.stamp_registered(12);
        assert_eq!(t.append_delta_since(7), None);
        assert_eq!(t.append_delta_since(9), None);
        assert_eq!(t.append_delta_since(12), Some((3, 3)));
    }

    #[test]
    fn lineage_is_bounded() {
        let mut t = Table::new("sales", sales_schema());
        t.stamp_registered(1);
        for v in 2..200u64 {
            t.stamp_appended(v);
        }
        assert!(t.lineage().len() <= 64);
        // The oldest checkpoints aged out; the newest survive.
        assert_eq!(t.append_delta_since(1), None);
        assert!(t.append_delta_since(199).is_some());
    }
}
