//! Query representation and the one scan path.
//!
//! A [`Query`] is the SQL front door's `SELECT ... FROM t [WHERE ...]
//! [GROUP BY ...]` over one table; it lowers to a 1-set
//! [`PhysicalPlan`]. Every plan — one grouping set or many sharing a
//! scan (SeeDB's "combine multiple group-bys" rewrite) — executes
//! through the crate-private `scan_partial`: filter a row range, feed
//! the aggregation kernel, return mergeable per-set accumulators plus
//! [`ExecStats`]. Merging and finalizing into [`ResultSet`]s live in
//! [`crate::plan`].

pub mod aggregate;
pub mod exactsum;

pub use aggregate::{agg_output_type, AggFunc, AggRequest, AggState, Grouped};
pub use exactsum::ExactSum;

use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::plan::PhysicalPlan;
use crate::sample::SampleSpec;
use crate::table::Table;
use crate::value::Value;

/// One aggregate in a query's SELECT list.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input column name; `None` only for `COUNT(*)`.
    pub column: Option<String>,
    /// Optional per-aggregate predicate (rows failing it do not feed this
    /// aggregate). This is how a combined target/comparison query is
    /// expressed: the target aggregate carries the analyst's filter, the
    /// comparison aggregate carries none.
    pub filter: Option<Expr>,
    /// Output column name; defaults to `FUNC(col)` (with a `_target`
    /// suffix convention applied by SeeDB's query generator, not here).
    pub alias: Option<String>,
}

impl AggSpec {
    /// `func(column)` with no per-aggregate filter.
    pub fn new(func: AggFunc, column: &str) -> Self {
        AggSpec {
            func,
            column: Some(column.to_string()),
            filter: None,
            alias: None,
        }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggSpec {
            func: AggFunc::Count,
            column: None,
            filter: None,
            alias: None,
        }
    }

    /// Attach a per-aggregate filter (builder style).
    pub fn with_filter(mut self, filter: Expr) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Attach an output alias (builder style).
    pub fn with_alias(mut self, alias: &str) -> Self {
        self.alias = Some(alias.to_string());
        self
    }

    /// The output column name.
    pub fn output_name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.column {
            Some(c) => format!("{}({})", self.func.sql(), c),
            None => format!("{}(*)", self.func.sql()),
        }
    }

    /// Identity of the *accumulated state* this aggregate produces:
    /// (function, input column, per-aggregate predicate). Two specs with
    /// equal state keys accumulate bit-identical [`AggState`]s over the
    /// same scan — the alias only labels the output column. This is the
    /// key the serving layer dedupes merged-scan aggregates by and that
    /// [`crate::PartialAggState::project_for`] matches against; both
    /// must agree, so it lives here.
    pub fn state_key(&self) -> (AggFunc, Option<&str>, Option<String>) {
        (
            self.func,
            self.column.as_deref(),
            self.filter.as_ref().map(Expr::to_sql),
        )
    }
}

/// A single-grouping query over one table.
#[derive(Debug, Clone)]
pub struct Query {
    /// Target table name.
    pub table: String,
    /// Scan-level filter (`WHERE`): rows failing it contribute to nothing.
    pub filter: Option<Expr>,
    /// Grouping attributes; empty = one global group.
    pub group_by: Vec<String>,
    /// Aggregates to compute.
    pub aggregates: Vec<AggSpec>,
    /// Optional sampling of the scan domain.
    pub sample: Option<SampleSpec>,
}

impl Query {
    /// `SELECT <aggs> FROM table GROUP BY <group_by>`.
    pub fn aggregate(table: &str, group_by: Vec<&str>, aggregates: Vec<AggSpec>) -> Self {
        Query {
            table: table.to_string(),
            filter: None,
            group_by: group_by.into_iter().map(str::to_string).collect(),
            aggregates,
            sample: None,
        }
    }

    /// Attach a WHERE filter (builder style).
    pub fn with_filter(mut self, filter: Expr) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Attach sampling (builder style).
    pub fn with_sample(mut self, sample: SampleSpec) -> Self {
        self.sample = Some(sample);
        self
    }

    /// The 1-set physical plan that executes this query over the whole
    /// table.
    pub fn plan(&self) -> PhysicalPlan {
        PhysicalPlan {
            table: self.table.clone(),
            filter: self.filter.clone(),
            sets: vec![self.group_by.clone()],
            aggregates: self.aggregates.clone(),
            sample: self.sample,
            row_range: None,
        }
    }

    /// Render as SQL text (for logs and the demo frontend).
    pub fn to_sql(&self) -> String {
        let mut select: Vec<String> = self.group_by.clone();
        for a in &self.aggregates {
            let base = match &a.column {
                Some(c) => format!("{}({})", a.func.sql(), c),
                None => format!("{}(*)", a.func.sql()),
            };
            let expr = match &a.filter {
                Some(f) => format!("{base} FILTER (WHERE {})", f.to_sql()),
                None => base,
            };
            match &a.alias {
                Some(al) => select.push(format!("{expr} AS {al}")),
                None => select.push(expr),
            }
        }
        let mut sql = format!("SELECT {} FROM {}", select.join(", "), self.table);
        if let Some(f) = &self.filter {
            sql.push_str(&format!(" WHERE {}", f.to_sql()));
        }
        if !self.group_by.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", self.group_by.join(", ")));
        }
        sql
    }

    /// All column names this query touches (for access-frequency stats).
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out: Vec<String> = self.group_by.clone();
        for a in &self.aggregates {
            if let Some(c) = &a.column {
                out.push(c.clone());
            }
            if let Some(f) = &a.filter {
                out.extend(f.referenced_columns().iter().map(|s| s.to_string()));
            }
        }
        if let Some(f) = &self.filter {
            out.extend(f.referenced_columns().iter().map(|s| s.to_string()));
        }
        out
    }
}

/// Tabular query output.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names: grouping attributes then aggregates.
    pub columns: Vec<String>,
    /// Row-major values.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Index of an output column.
    ///
    /// # Errors
    /// `UnknownColumn` if absent.
    pub fn column_index(&self, name: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// Render as an aligned text table (for examples and the demo).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// How the serving layer's cache treated the execution (stamped by the
/// cache above the engine; plain engine executions stay [`Uncached`]).
///
/// [`Uncached`]: CacheOutcome::Uncached
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache probe — direct engine execution.
    #[default]
    Uncached,
    /// Served from a cached state without touching the table.
    Hit,
    /// A cached state was brought current by scanning only delta rows.
    Refreshed,
    /// Probe missed: computed by a fresh scan (and cached).
    Miss,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheOutcome::Uncached => "uncached",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Refreshed => "refreshed",
            CacheOutcome::Miss => "miss",
        })
    }
}

/// Per-execution cost figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows in the scan domain (full table, or sample size).
    pub rows_scanned: u64,
    /// Rows surviving the scan-level filter (≤ `rows_scanned`).
    pub rows_matched: u64,
    /// Table scans performed (1 per execution — shared scans are the point).
    pub table_scans: u64,
    /// Total groups emitted across all grouping sets.
    pub groups_emitted: u64,
    /// Partition tasks that contributed (1 for a single-partition scan;
    /// the worker count after a partitioned merge).
    pub partitions: u64,
    /// Time spent merging partial states, per the injected clock (0 for
    /// single-partition executions).
    pub merge_ns: u64,
    /// Cache probe outcome for the request this execution served.
    pub cache: CacheOutcome,
}

impl ExecStats {
    /// Accumulate another execution's stats into this one. Numeric
    /// fields sum; the cache outcome is adopted from `other` only if
    /// this side hasn't recorded one (merged partitions of one request
    /// share a single probe).
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.table_scans += other.table_scans;
        self.groups_emitted += other.groups_emitted;
        self.partitions += other.partitions;
        self.merge_ns += other.merge_ns;
        if self.cache == CacheOutcome::Uncached {
            self.cache = other.cache;
        }
    }
}

pub(crate) fn resolve_aggs(table: &Table, aggs: &[AggSpec]) -> DbResult<Vec<AggRequest>> {
    aggs.iter()
        .map(|a| {
            let column = match &a.column {
                Some(c) => Some(table.schema().index_of(c)?),
                None => None,
            };
            let predicate = match &a.filter {
                Some(f) => Some(f.bind(table.schema())?),
                None => None,
            };
            Ok(AggRequest {
                func: a.func,
                column,
                predicate,
            })
        })
        .collect()
}

/// The rows of `[lo, hi)` (already clamped to the table) that the scan
/// feeds the kernel, plus the number of rows it had to look at.
fn scan_domain(
    table: &Table,
    filter: Option<&Expr>,
    sample: Option<&SampleSpec>,
    (lo, hi): (usize, usize),
) -> DbResult<(Vec<u32>, u64)> {
    // The range is (optionally) sampled, then filtered; the cost charged
    // is the number of rows the engine had to look at, which is the
    // domain size before filtering (the filter is evaluated inside the
    // same scan).
    let base: Vec<u32> = match sample {
        None => (lo as u32..hi as u32).collect(),
        Some(s) => {
            let keeps = s.membership();
            (lo as u32..hi as u32)
                .filter(|&r| keeps(u64::from(r)))
                .collect()
        }
    };
    let scanned = base.len() as u64;
    let rows = match filter {
        None => base,
        Some(f) => {
            let bound = f.bind(table.schema())?;
            base.into_iter()
                .filter(|&r| bound.eval_bool(table, r as usize) == Some(true))
                .collect()
        }
    };
    Ok((rows, scanned))
}

pub(crate) fn grouped_to_result(group_by: &[String], aggs: &[AggSpec], g: Grouped) -> ResultSet {
    let mut columns: Vec<String> = group_by.to_vec();
    columns.extend(aggs.iter().map(AggSpec::output_name));
    let rows = g
        .keys
        .into_iter()
        .zip(g.values)
        .map(|(mut k, v)| {
            k.extend(v);
            k
        })
        .collect();
    ResultSet { columns, rows }
}

/// Groups across all sets of a state (its `groups_emitted`).
pub(crate) fn total_groups(accs: &[aggregate::SetAcc]) -> u64 {
    accs.iter().map(|a| a.num_groups() as u64).sum()
}

/// Scan rows `[lo, hi)` of `table` (clamped by the caller) for `plan`
/// *without finalizing*: one mergeable accumulator per grouping set,
/// plus the scan's cost figures. The only scan in the engine —
/// [`PhysicalPlan::execute_partial`] is its sole caller.
///
/// # Errors
/// Unknown columns, type errors, or a plan with no sets/aggregates.
pub(crate) fn scan_partial(
    table: &Table,
    plan: &PhysicalPlan,
    range: (usize, usize),
) -> DbResult<(Vec<aggregate::SetAcc>, ExecStats)> {
    let sets: Vec<Vec<usize>> = plan
        .sets
        .iter()
        .map(|set| {
            set.iter()
                .map(|c| table.schema().index_of(c))
                .collect::<DbResult<Vec<usize>>>()
        })
        .collect::<DbResult<_>>()?;
    let aggs = resolve_aggs(table, &plan.aggregates)?;
    let (rows, scanned) = scan_domain(table, plan.filter.as_ref(), plan.sample.as_ref(), range)?;
    let accs = aggregate::grouping_sets_scan_partial(table, &rows, &sets, &aggs)?;
    let stats = ExecStats {
        rows_scanned: scanned,
        rows_matched: rows.len() as u64,
        table_scans: 1,
        groups_emitted: total_groups(&accs),
        partitions: 1,
        ..ExecStats::default()
    };
    Ok((accs, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::DataType;

    fn sales() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::dimension("product", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("sales", schema);
        for (s, p, a) in [
            ("MA", "Laserwave", 10.0),
            ("MA", "Saberwave", 20.0),
            ("WA", "Laserwave", 30.0),
            ("NY", "Saberwave", 50.0),
        ] {
            t.push_row(vec![s.into(), p.into(), a.into()]).unwrap();
        }
        t
    }

    #[test]
    fn basic_group_by_query() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        );
        let out = q.plan().execute(&t).unwrap();
        assert_eq!(out.results[0].columns, vec!["store", "SUM(amount)"]);
        assert_eq!(out.results[0].num_rows(), 3);
        assert_eq!(out.stats.rows_scanned, 4);
        assert_eq!(out.stats.table_scans, 1);
        assert_eq!(out.stats.groups_emitted, 3);
    }

    #[test]
    fn where_filter_restricts_groups() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        )
        .with_filter(Expr::col("product").eq("Laserwave"));
        let out = q.plan().execute(&t).unwrap();
        assert_eq!(out.results[0].num_rows(), 2); // MA, WA only

        // Cost: the filter is evaluated inside the scan, so all 4 rows
        // are charged.
        assert_eq!(out.stats.rows_scanned, 4);
    }

    #[test]
    fn aliases_and_filtered_aggregates() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![
                AggSpec::new(AggFunc::Sum, "amount")
                    .with_filter(Expr::col("product").eq("Laserwave"))
                    .with_alias("target"),
                AggSpec::new(AggFunc::Sum, "amount").with_alias("comparison"),
            ],
        );
        let out = q.plan().execute(&t).unwrap();
        assert_eq!(
            out.results[0].columns,
            vec!["store", "target", "comparison"]
        );
        let ma = &out.results[0].rows[0];
        assert_eq!(ma[1], Value::Float(10.0));
        assert_eq!(ma[2], Value::Float(30.0));
    }

    #[test]
    fn sets_query_shares_one_scan() {
        let t = sales();
        let plan = PhysicalPlan {
            sets: vec![vec!["store".into()], vec!["product".into()]],
            ..Query::aggregate("sales", vec![], vec![AggSpec::new(AggFunc::Sum, "amount")]).plan()
        };
        let out = plan.execute(&t).unwrap();
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.stats.table_scans, 1);
        assert_eq!(out.stats.rows_scanned, 4);
        assert_eq!(out.stats.groups_emitted, 3 + 2);
    }

    #[test]
    fn sql_rendering_roundtrip_shape() {
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        )
        .with_filter(Expr::col("product").eq("Laserwave"));
        assert_eq!(
            q.to_sql(),
            "SELECT store, SUM(amount) FROM sales WHERE product = 'Laserwave' GROUP BY store"
        );
    }

    #[test]
    fn no_aggregates_rejected() {
        let t = sales();
        let q = Query::aggregate("sales", vec!["store"], vec![]);
        assert!(q.plan().execute(&t).is_err());
    }

    #[test]
    fn result_set_text_rendering() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        );
        let out = q.plan().execute(&t).unwrap();
        let text = out.results[0].to_text();
        assert!(text.contains("store"));
        assert!(text.contains("MA"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn referenced_columns_cover_all_clauses() {
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount").with_filter(Expr::col("product").eq("x"))],
        )
        .with_filter(Expr::col("region").eq("east"));
        let mut cols = q.referenced_columns();
        cols.sort();
        assert_eq!(cols, vec!["amount", "product", "region", "store"]);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExecStats {
            rows_scanned: 10,
            rows_matched: 8,
            table_scans: 1,
            groups_emitted: 3,
            partitions: 1,
            merge_ns: 100,
            cache: CacheOutcome::Uncached,
        };
        let b = ExecStats {
            rows_scanned: 20,
            rows_matched: 15,
            table_scans: 2,
            groups_emitted: 4,
            partitions: 1,
            merge_ns: 50,
            cache: CacheOutcome::Miss,
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 30);
        assert_eq!(a.rows_matched, 23);
        assert_eq!(a.table_scans, 3);
        assert_eq!(a.groups_emitted, 7);
        assert_eq!(a.partitions, 2);
        assert_eq!(a.merge_ns, 150);
        assert_eq!(a.cache, CacheOutcome::Miss);
    }

    #[test]
    fn stats_merge_keeps_existing_cache_outcome() {
        let mut a = ExecStats {
            cache: CacheOutcome::Hit,
            ..ExecStats::default()
        };
        let b = ExecStats {
            cache: CacheOutcome::Miss,
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cache, CacheOutcome::Hit);
    }

    #[test]
    fn execute_reports_rows_matched_under_filter() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        )
        .with_filter(Expr::col("product").eq("Laserwave"));
        let out = q.plan().execute(&t).unwrap();
        assert_eq!(out.stats.rows_scanned, 4);
        assert_eq!(out.stats.rows_matched, 2);
        assert_eq!(out.stats.partitions, 1);
        assert_eq!(out.stats.cache, CacheOutcome::Uncached);
    }
}
