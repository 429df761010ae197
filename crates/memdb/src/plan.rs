//! The logical/physical plan layer between SeeDB's optimizer and the
//! executor.
//!
//! SeeDB's performance story is rewriting many candidate view queries
//! into few shared-scan DBMS queries. This module gives that rewrite a
//! typed target: the optimizer emits [`LogicalPlan`] trees (scan →
//! filter → shared-scan aggregate / grouping sets), [`lower`] validates
//! each tree into the one [`PhysicalPlan`] shape — a filtered scan
//! feeding one or more grouping sets; a single aggregate is the 1-set
//! case — and [`crate::parallel::run_batch`] (or
//! [`crate::Database::run_physical`]) executes the result. All three
//! paper optimizations — combined target/comparison (per-aggregate
//! predicates), combined aggregates, and combined group-bys — run
//! through the same path: [`PhysicalPlan::execute_partial`] scans a row
//! range into a mergeable [`PartialAggState`], states of disjoint ranges
//! [`merge`](PartialAggState::merge), and
//! [`finalize`](PartialAggState::finalize) produces the [`PlanOutput`].
//! [`PhysicalPlan::execute`] is that pipeline over a single partition.
//!
//! ```
//! use memdb::{plan::LogicalPlan, AggFunc, AggSpec, Expr};
//!
//! // One scan computes both sides of a view: the target aggregate
//! // carries the analyst's predicate, the comparison carries none.
//! let plan = LogicalPlan::scan("sales").aggregate(
//!     vec!["store".into()],
//!     vec![
//!         AggSpec::new(AggFunc::Sum, "amount")
//!             .with_filter(Expr::col("product").eq("Laserwave"))
//!             .with_alias("target"),
//!         AggSpec::new(AggFunc::Sum, "amount").with_alias("comparison"),
//!     ],
//! );
//! assert!(plan.lower().is_ok());
//! ```

use crate::error::{DbError, DbResult};
use crate::exec::{self, AggSpec, AggState, ExecStats, ResultSet};
use crate::expr::Expr;
use crate::sample::SampleSpec;
use crate::table::Table;
use crate::value::Value;

/// A leaf scan of one table, optionally sampled and/or restricted to a
/// contiguous row slice (phased execution scans one slice per phase).
#[derive(Debug, Clone)]
pub struct TableScan {
    /// Table name.
    pub table: String,
    /// Optional sampling of the scan domain.
    pub sample: Option<SampleSpec>,
    /// Optional half-open row-id slice `[lo, hi)` of the scan domain.
    pub row_range: Option<(usize, usize)>,
}

/// A scan-level predicate (`WHERE`): rows failing it feed nothing.
#[derive(Debug, Clone)]
pub struct FilterNode {
    /// The node being filtered.
    pub input: Box<LogicalPlan>,
    /// The predicate.
    pub predicate: Expr,
}

/// Shared-scan multi-aggregate over one grouping: every aggregate is
/// computed in the same pass, each optionally carrying its own
/// per-aggregate predicate (SeeDB's combined target/comparison rewrite).
#[derive(Debug, Clone)]
pub struct AggregateNode {
    /// The node being aggregated.
    pub input: Box<LogicalPlan>,
    /// Grouping attributes; empty = one global group.
    pub group_by: Vec<String>,
    /// Aggregates computed in the shared pass.
    pub aggregates: Vec<AggSpec>,
}

/// Shared-scan grouping sets: several group-bys evaluated in one pass
/// (SeeDB's combined group-by rewrite).
#[derive(Debug, Clone)]
pub struct GroupingSetsNode {
    /// The node being aggregated.
    pub input: Box<LogicalPlan>,
    /// The grouping sets; each produces its own result set.
    pub sets: Vec<Vec<String>>,
    /// Aggregates computed for every set in the shared pass.
    pub aggregates: Vec<AggSpec>,
}

/// A typed logical plan: what the optimizer hands the DBMS.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Leaf table scan.
    Scan(TableScan),
    /// Scan-level filter.
    Filter(FilterNode),
    /// Shared-scan multi-aggregate with per-aggregate predicates.
    Aggregate(AggregateNode),
    /// Shared-scan grouping sets.
    GroupingSets(GroupingSetsNode),
}

impl LogicalPlan {
    /// A full scan of `table`.
    pub fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan(TableScan {
            table: table.to_string(),
            sample: None,
            row_range: None,
        })
    }

    /// Add a scan-level filter on top of this node.
    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter(FilterNode {
            input: Box::new(self),
            predicate,
        })
    }

    /// Aggregate this node by `group_by`.
    pub fn aggregate(self, group_by: Vec<String>, aggregates: Vec<AggSpec>) -> LogicalPlan {
        LogicalPlan::Aggregate(AggregateNode {
            input: Box::new(self),
            group_by,
            aggregates,
        })
    }

    /// Aggregate this node over several grouping sets in one pass.
    pub fn grouping_sets(self, sets: Vec<Vec<String>>, aggregates: Vec<AggSpec>) -> LogicalPlan {
        LogicalPlan::GroupingSets(GroupingSetsNode {
            input: Box::new(self),
            sets,
            aggregates,
        })
    }

    /// Attach sampling to the scan leaf (no-op for `None`).
    pub fn sampled(mut self, sample: Option<SampleSpec>) -> LogicalPlan {
        if let Some(scan) = self.scan_leaf_mut() {
            scan.sample = sample;
        }
        self
    }

    /// Restrict the scan leaf to the half-open row slice `[lo, hi)`.
    pub fn sliced(mut self, lo: usize, hi: usize) -> LogicalPlan {
        if let Some(scan) = self.scan_leaf_mut() {
            scan.row_range = Some((lo, hi));
        }
        self
    }

    fn scan_leaf_mut(&mut self) -> Option<&mut TableScan> {
        match self {
            LogicalPlan::Scan(s) => Some(s),
            LogicalPlan::Filter(f) => f.input.scan_leaf_mut(),
            LogicalPlan::Aggregate(a) => a.input.scan_leaf_mut(),
            LogicalPlan::GroupingSets(g) => g.input.scan_leaf_mut(),
        }
    }

    /// The table this plan scans.
    pub fn table(&self) -> &str {
        match self {
            LogicalPlan::Scan(s) => &s.table,
            LogicalPlan::Filter(f) => f.input.table(),
            LogicalPlan::Aggregate(a) => a.input.table(),
            LogicalPlan::GroupingSets(g) => g.input.table(),
        }
    }

    /// Validate this tree and pick the physical operator.
    ///
    /// # Errors
    /// `InvalidQuery` for malformed trees: a bare scan/filter root (no
    /// aggregation), nested aggregations, empty aggregate or set lists.
    pub fn lower(&self) -> DbResult<PhysicalPlan> {
        lower(self)
    }
}

/// Scan source of a plan: what [`lower`] collects below the aggregation
/// root.
#[derive(Debug, Clone)]
struct Source {
    table: String,
    filter: Option<Expr>,
    sample: Option<SampleSpec>,
    row_range: Option<(usize, usize)>,
}

fn lower_source(node: &LogicalPlan) -> DbResult<Source> {
    match node {
        LogicalPlan::Scan(s) => Ok(Source {
            table: s.table.clone(),
            filter: None,
            sample: s.sample,
            row_range: s.row_range,
        }),
        LogicalPlan::Filter(f) => {
            let mut src = lower_source(&f.input)?;
            // Stacked filters AND-combine into one scan-level predicate.
            src.filter = Some(match src.filter.take() {
                Some(existing) => existing.and(f.predicate.clone()),
                None => f.predicate.clone(),
            });
            Ok(src)
        }
        LogicalPlan::Aggregate(_) | LogicalPlan::GroupingSets(_) => Err(DbError::InvalidQuery(
            "nested aggregation is not supported: aggregate inputs must be scan/filter chains"
                .to_string(),
        )),
    }
}

/// The physical operator every logical plan lowers to: one shared scan
/// of `table` (sampled and/or sliced, then filtered) feeding every
/// grouping set in `sets` with every aggregate in `aggregates`.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Table to scan.
    pub table: String,
    /// Scan-level filter (`WHERE`): rows failing it contribute to nothing.
    pub filter: Option<Expr>,
    /// The grouping sets (at least one; an empty set is one global
    /// group); each produces its own [`ResultSet`].
    pub sets: Vec<Vec<String>>,
    /// Aggregates computed for every set in the shared pass.
    pub aggregates: Vec<AggSpec>,
    /// Optional sampling of the scan domain.
    pub sample: Option<SampleSpec>,
    /// Optional half-open row slice of the scan domain.
    pub row_range: Option<(usize, usize)>,
}

/// Lower a logical plan to its physical operator. An
/// [`LogicalPlan::Aggregate`] node and a one-set
/// [`LogicalPlan::GroupingSets`] node lower to the same plan.
///
/// # Errors
/// `InvalidQuery` for malformed trees (see [`LogicalPlan::lower`]).
pub fn lower(plan: &LogicalPlan) -> DbResult<PhysicalPlan> {
    let (input, sets, aggregates) = match plan {
        LogicalPlan::Scan(_) | LogicalPlan::Filter(_) => {
            return Err(DbError::InvalidQuery(
                "plan root must be an aggregation (bare scans have no output operator)".to_string(),
            ))
        }
        LogicalPlan::Aggregate(a) => (&a.input, vec![a.group_by.clone()], &a.aggregates),
        LogicalPlan::GroupingSets(g) => (&g.input, g.sets.clone(), &g.aggregates),
    };
    if aggregates.is_empty() {
        return Err(DbError::InvalidQuery(
            "aggregation node computes no aggregates".to_string(),
        ));
    }
    if sets.is_empty() {
        return Err(DbError::InvalidQuery(
            "grouping-sets node has no grouping sets".to_string(),
        ));
    }
    let src = lower_source(input)?;
    Ok(PhysicalPlan {
        table: src.table,
        filter: src.filter,
        sets,
        aggregates: aggregates.clone(),
        sample: src.sample,
        row_range: src.row_range,
    })
}

impl PhysicalPlan {
    /// A canonical fingerprint of everything that determines this plan's
    /// output: table, scan predicate, sampling, row slice, grouping
    /// sets, and every aggregate (function, column, alias, and
    /// per-aggregate predicate). Two plans with equal fingerprints
    /// produce byte-identical [`PlanOutput`]s against the same table
    /// version — the cache key of the serving layer. Free-text fields
    /// (SQL renderings, names) are length-prefixed so no crafted
    /// identifier can collide across field boundaries.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, tag: &str, s: &str| {
            out.push_str(tag);
            out.push(':');
            out.push_str(&s.len().to_string());
            out.push(':');
            out.push_str(s);
            out.push('\n');
        };
        // Leading one-set/multi-set marker: `warm.plans` files are sorted
        // by fingerprint, so it is part of the on-disk byte order.
        let shape = if self.sets.len() == 1 { "agg" } else { "sets" };
        push(&mut out, "shape", shape);
        push(&mut out, "table", &self.table);
        push(
            &mut out,
            "range",
            &match self.row_range {
                None => "none".to_string(),
                Some((lo, hi)) => format!("{lo},{hi}"),
            },
        );
        push(
            &mut out,
            "sample",
            &match self.sample {
                None => "none".to_string(),
                Some(s) => format!("{s:?}"),
            },
        );
        push(
            &mut out,
            "filter",
            &self.filter.as_ref().map(Expr::to_sql).unwrap_or_default(),
        );
        push(&mut out, "nsets", &self.sets.len().to_string());
        for set in &self.sets {
            push(&mut out, "ncols", &set.len().to_string());
            for col in set {
                push(&mut out, "col", col);
            }
        }
        push(&mut out, "naggs", &self.aggregates.len().to_string());
        for a in &self.aggregates {
            push(&mut out, "func", a.func.sql());
            push(&mut out, "acol", a.column.as_deref().unwrap_or("*"));
            push(&mut out, "alias", a.alias.as_deref().unwrap_or(""));
            push(
                &mut out,
                "afilter",
                &a.filter.as_ref().map(Expr::to_sql).unwrap_or_default(),
            );
        }
        out
    }

    /// Execute directly against a table (no catalog, no cost recording):
    /// one partition covering the whole scan range, finalized.
    ///
    /// # Errors
    /// Unknown columns, type errors, or invalid query shapes.
    pub fn execute(&self, table: &Table) -> DbResult<PlanOutput> {
        self.execute_partial(table, self.scan_range(table))?
            .finalize(table)
    }

    /// The half-open row range this plan scans of `table` (its own
    /// slice restriction clamped to the table). Always well-formed
    /// (`lo <= hi`): an inverted or out-of-range slice degenerates to
    /// an empty range and so to an empty output.
    pub fn scan_range(&self, table: &Table) -> (usize, usize) {
        match self.row_range {
            None => (0, table.num_rows()),
            Some((lo, hi)) => {
                let lo = lo.min(table.num_rows());
                (lo, hi.min(table.num_rows()).max(lo))
            }
        }
    }

    /// Execute this plan over the row slice `range` of `table` without
    /// finalizing, returning mergeable per-(set, group, aggregate)
    /// state. `range` is intersected with the plan's own slice; the
    /// full-plan result is recovered by merging the partial states of
    /// any partition of the scan range in ascending order and calling
    /// [`PartialAggState::finalize`] — bit-for-bit the same for every
    /// partition shape.
    ///
    /// # Errors
    /// Unknown columns, type errors, or — `InvalidQuery` — a NaN sample
    /// fraction.
    pub fn execute_partial(
        &self,
        table: &Table,
        range: (usize, usize),
    ) -> DbResult<PartialAggState> {
        if self
            .sample
            .is_some_and(|SampleSpec::Bernoulli { fraction, .. }| fraction.is_nan())
        {
            return Err(DbError::InvalidQuery("sample fraction is NaN".to_string()));
        }
        let (plan_lo, plan_hi) = self.scan_range(table);
        let lo = range.0.max(plan_lo);
        let eff = (lo, range.1.min(plan_hi).max(lo));
        let (accs, stats) = exec::scan_partial(table, self, eff)?;
        Ok(PartialAggState {
            accs,
            group_by: self.sets.clone(),
            aggregates: self.aggregates.clone(),
            stats,
        })
    }
}

/// Mergeable partial aggregate state: the unfinalized result of
/// executing a physical plan over one row range.
///
/// The contract (see also the README's "partitioned execution"
/// section): partial states produced by [`PhysicalPlan::execute_partial`]
/// over *disjoint* row ranges of the *same* table and plan may be
/// [`merge`](PartialAggState::merge)d in ascending range order and then
/// [`finalize`](PartialAggState::finalize)d; the resulting
/// [`PlanOutput`] is byte-identical for every partition shape of the
/// same union of ranges. This holds because every per-(group, aggregate)
/// component is associative — count/min/max trivially, SUM/AVG via exact
/// order-independent summation ([`crate::exec::ExactSum`]).
#[derive(Debug, Clone)]
pub struct PartialAggState {
    accs: Vec<exec::aggregate::SetAcc>,
    group_by: Vec<Vec<String>>,
    aggregates: Vec<AggSpec>,
    stats: ExecStats,
}

impl PartialAggState {
    /// Fold another partition's state into this one. Cost figures
    /// accumulate (`rows_scanned` sums to the full scan domain;
    /// `table_scans` counts per-partition range scans), except
    /// `groups_emitted`, which is the merged state's group count.
    ///
    /// # Errors
    /// `Internal` if the two states come from different plans: grouping
    /// sets and aggregate specs (function, column, alias, per-aggregate
    /// predicate) must all match — same-arity states from *different*
    /// plans must not merge silently.
    pub fn merge(&mut self, other: PartialAggState, table: &Table) -> DbResult<()> {
        let agg_eq = |a: &AggSpec, b: &AggSpec| {
            a.func == b.func
                && a.column == b.column
                && a.alias == b.alias
                && a.filter.as_ref().map(Expr::to_sql) == b.filter.as_ref().map(Expr::to_sql)
        };
        if self.group_by != other.group_by
            || self.aggregates.len() != other.aggregates.len()
            || !self
                .aggregates
                .iter()
                .zip(&other.aggregates)
                .all(|(a, b)| agg_eq(a, b))
        {
            return Err(DbError::Internal(
                "cannot merge partial states from different plans".to_string(),
            ));
        }
        exec::aggregate::merge_accs(&mut self.accs, &other.accs, table);
        self.stats.merge(&other.stats);
        self.stats.groups_emitted = exec::total_groups(&self.accs);
        Ok(())
    }

    /// Number of grouping sets.
    pub fn num_sets(&self) -> usize {
        self.accs.len()
    }

    /// Cost figures of the scan(s) that produced this state.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Add merge time (per the injected clock) to this state's stats —
    /// stamped by the partitioned runner around its merge loop.
    pub(crate) fn add_merge_ns(&mut self, ns: u64) {
        self.stats.merge_ns += ns;
    }

    /// Project this state onto `plan`'s grouping sets and aggregates,
    /// yielding the partial state a standalone execution of `plan` over
    /// the *same scan source* would have produced.
    ///
    /// This is the serving layer's batch-split primitive: several plans
    /// sharing one scan source (same table, scan-level predicate, row
    /// range and sample) are merged into one grouping-sets superplan,
    /// executed once, and the combined state is projected back per plan.
    /// Group discovery is aggregate-independent and every per-(set,
    /// group, aggregate) state is accumulated independently during the
    /// scan, so the projection is bit-for-bit the state
    /// [`PhysicalPlan::execute_partial`] would have built for `plan`
    /// alone. Aggregates are matched by (function, column, per-aggregate
    /// predicate) — aliases only label output columns and the projected
    /// state carries `plan`'s own aliases.
    ///
    /// **Contract:** `self` must come from a plan with the same scan
    /// source as `plan`; this method can only verify the grouping/
    /// aggregate structure, the caller guarantees the source matches.
    ///
    /// # Errors
    /// `Internal` if a grouping set or aggregate of `plan` is not
    /// covered by this state.
    pub fn project_for(&self, plan: &PhysicalPlan) -> DbResult<PartialAggState> {
        let set_indices: Vec<usize> = plan
            .sets
            .iter()
            .map(|s| {
                self.group_by.iter().position(|g| g == s).ok_or_else(|| {
                    DbError::Internal(format!(
                        "projection target grouping set {s:?} not covered by this state"
                    ))
                })
            })
            .collect::<DbResult<_>>()?;
        let agg_indices: Vec<usize> = plan
            .aggregates
            .iter()
            .map(|a| {
                let key = a.state_key();
                self.aggregates
                    .iter()
                    .position(|b| b.state_key() == key)
                    .ok_or_else(|| {
                        DbError::Internal(format!(
                            "projection target aggregate {} not covered by this state",
                            a.output_name()
                        ))
                    })
            })
            .collect::<DbResult<_>>()?;
        let accs: Vec<_> = set_indices
            .iter()
            .map(|&si| self.accs[si].project_aggs(&agg_indices))
            .collect();
        let stats = ExecStats {
            groups_emitted: exec::total_groups(&accs),
            ..self.stats
        };
        Ok(PartialAggState {
            accs,
            group_by: plan.sets.clone(),
            aggregates: plan.aggregates.clone(),
            stats,
        })
    }

    /// Number of groups discovered so far in set `set`.
    pub fn num_groups(&self, set: usize) -> usize {
        self.accs[set].num_groups()
    }

    /// Grouping-attribute values of group `g` in set `set`.
    pub fn group_label(&self, set: usize, g: usize, table: &Table) -> Vec<Value> {
        self.accs[set].group_label(g, table)
    }

    /// Mergeable per-aggregate states of group `g` in set `set`, in
    /// the plan's aggregate order.
    pub fn group_states(&self, set: usize, g: usize) -> &[AggState] {
        self.accs[set].group_states(g)
    }

    /// Finalize into one [`ResultSet`] per grouping set (groups sorted
    /// by label, SQL null semantics applied).
    ///
    /// Stats semantics: `rows_scanned` covers the union of the merged
    /// ranges, but `table_scans` is reported as **1** — the partitions
    /// jointly perform one logical shared scan, and the counter's
    /// documented meaning ("shared scans are the point") must not
    /// scale with the worker count.
    ///
    /// # Errors
    /// Column resolution errors (impossible for states produced against
    /// the same table).
    pub fn finalize(self, table: &Table) -> DbResult<PlanOutput> {
        let requests = exec::resolve_aggs(table, &self.aggregates)?;
        let grouped = exec::aggregate::finalize_accs(self.accs, table, &requests);
        let results = self
            .group_by
            .iter()
            .zip(grouped)
            .map(|(set, g)| exec::grouped_to_result(set, &self.aggregates, g))
            .collect();
        Ok(PlanOutput {
            results,
            stats: ExecStats {
                table_scans: 1,
                ..self.stats
            },
        })
    }
}

/// Output of an executed plan: one result set per grouping set, in plan
/// order, plus the cost of the one shared scan.
#[derive(Debug, Clone)]
pub struct PlanOutput {
    /// One result per grouping set, in plan order.
    pub results: Vec<ResultSet>,
    /// Cost figures for the one shared scan. `stats.cache` stays
    /// [`CacheOutcome::Uncached`](crate::exec::CacheOutcome::Uncached)
    /// on a memoized cached output; the serving layer stamps each
    /// request's own probe outcome on the per-request copy.
    pub stats: ExecStats,
}

impl PlanOutput {
    /// The result set of grouping set `index`.
    ///
    /// # Errors
    /// `Internal` if `index` is out of range (a plan/executor mismatch
    /// is a bug, surfaced as an error).
    pub fn result_set(&self, index: usize) -> DbResult<&ResultSet> {
        self.results.get(index).ok_or_else(|| {
            DbError::Internal(format!(
                "result index {} out of range ({} sets)",
                index,
                self.results.len()
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::exec::AggFunc;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{DataType, Value};

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

    fn sum_amount() -> Vec<AggSpec> {
        vec![AggSpec::new(AggFunc::Sum, "amount")]
    }

    #[test]
    fn aggregate_plan_lowers_and_executes() {
        let t = sales();
        let plan = LogicalPlan::scan("sales").aggregate(vec!["store".into()], sum_amount());
        let out = plan.lower().unwrap().execute(&t).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.result_set(0).unwrap().num_rows(), 3);
        assert!(out.result_set(1).is_err());
    }

    #[test]
    fn filters_collapse_into_the_scan() {
        let t = sales();
        let plan = LogicalPlan::scan("sales")
            .filter(Expr::col("product").eq("Laserwave"))
            .filter(Expr::col("store").eq("MA"))
            .aggregate(vec!["store".into()], sum_amount());
        let phys = plan.lower().unwrap();
        assert_eq!(
            phys.filter.as_ref().unwrap().to_sql(),
            "(product = 'Laserwave' AND store = 'MA')",
            "both filters AND-combined"
        );
        let out = phys.execute(&t).unwrap();
        assert_eq!(out.result_set(0).unwrap().num_rows(), 1);
    }

    #[test]
    fn single_set_grouping_sets_is_the_aggregate_plan() {
        let sets =
            LogicalPlan::scan("sales").grouping_sets(vec![vec!["store".into()]], sum_amount());
        let agg = LogicalPlan::scan("sales").aggregate(vec!["store".into()], sum_amount());
        let (sets, agg) = (sets.lower().unwrap(), agg.lower().unwrap());
        assert_eq!(sets.sets, vec![vec!["store".to_string()]]);
        assert_eq!(sets.fingerprint(), agg.fingerprint());
    }

    #[test]
    fn multi_set_plan_shares_one_scan() {
        let t = sales();
        let plan = LogicalPlan::scan("sales").grouping_sets(
            vec![vec!["store".into()], vec!["product".into()]],
            sum_amount(),
        );
        let out = plan.lower().unwrap().execute(&t).unwrap();
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.stats.table_scans, 1);
        assert_eq!(out.stats.rows_scanned, 4);
    }

    #[test]
    fn row_slices_restrict_the_scan_domain() {
        let t = sales();
        let full = LogicalPlan::scan("sales").aggregate(vec![], vec![AggSpec::count_star()]);
        let slice = full.clone().sliced(1, 3);
        let out = slice.lower().unwrap().execute(&t).unwrap();
        assert_eq!(out.result_set(0).unwrap().rows[0][0], Value::Int(2));
        assert_eq!(out.stats.rows_scanned, 2);
        // Slices partition: all-phase counts sum to the full count.
        let a = LogicalPlan::scan("sales")
            .aggregate(vec![], vec![AggSpec::count_star()])
            .sliced(0, 2);
        let b = LogicalPlan::scan("sales")
            .aggregate(vec![], vec![AggSpec::count_star()])
            .sliced(2, 4);
        let na = match a
            .lower()
            .unwrap()
            .execute(&t)
            .unwrap()
            .result_set(0)
            .unwrap()
            .rows[0][0]
        {
            Value::Int(n) => n,
            _ => panic!(),
        };
        let nb = match b
            .lower()
            .unwrap()
            .execute(&t)
            .unwrap()
            .result_set(0)
            .unwrap()
            .rows[0][0]
        {
            Value::Int(n) => n,
            _ => panic!(),
        };
        assert_eq!(na + nb, 4);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        // Bare scan: no output operator.
        assert!(LogicalPlan::scan("sales").lower().is_err());
        // Filter root.
        assert!(LogicalPlan::scan("sales")
            .filter(Expr::col("store").eq("MA"))
            .lower()
            .is_err());
        // Empty aggregates.
        assert!(LogicalPlan::scan("sales")
            .aggregate(vec!["store".into()], vec![])
            .lower()
            .is_err());
        // Empty sets.
        assert!(LogicalPlan::scan("sales")
            .grouping_sets(vec![], sum_amount())
            .lower()
            .is_err());
        // Nested aggregation.
        let nested = LogicalPlan::scan("sales")
            .aggregate(vec!["store".into()], sum_amount())
            .aggregate(vec![], sum_amount());
        assert!(nested.lower().is_err());
    }

    #[test]
    fn database_executes_plans_and_records_cost() {
        let db = Database::new();
        db.register(sales());
        let plan = LogicalPlan::scan("sales").aggregate(vec!["store".into()], sum_amount());
        let out = db.run_physical(&plan.lower().unwrap()).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(db.cost().queries, 1);
        assert_eq!(db.cost().rows_scanned, 4);
    }

    #[test]
    fn fingerprints_separate_output_determining_fields() {
        let base = || LogicalPlan::scan("sales").aggregate(vec!["store".into()], sum_amount());
        let fp = |p: &LogicalPlan| p.lower().unwrap().fingerprint();
        assert_eq!(fp(&base()), fp(&base()), "fingerprints are deterministic");

        let aliased = LogicalPlan::scan("sales").aggregate(
            vec!["store".into()],
            vec![AggSpec::new(AggFunc::Sum, "amount").with_alias("x")],
        );
        assert_ne!(fp(&base()), fp(&aliased), "aliases rename output columns");

        let filtered = LogicalPlan::scan("sales")
            .filter(Expr::col("product").eq("Laserwave"))
            .aggregate(vec!["store".into()], sum_amount());
        assert_ne!(fp(&base()), fp(&filtered));

        let sliced = base().sliced(0, 2);
        assert_ne!(fp(&base()), fp(&sliced));

        let sampled = base().sampled(Some(SampleSpec::Bernoulli {
            fraction: 0.5,
            seed: 1,
        }));
        assert_ne!(fp(&base()), fp(&sampled));

        let other_group =
            LogicalPlan::scan("sales").aggregate(vec!["product".into()], sum_amount());
        assert_ne!(fp(&base()), fp(&other_group));

        // Length prefixes prevent crafted names from colliding across
        // field boundaries.
        let a = LogicalPlan::scan("sales")
            .grouping_sets(vec![vec!["store".into(), "product".into()]], sum_amount());
        let b = LogicalPlan::scan("sales").grouping_sets(
            vec![vec!["store".into()], vec!["product".into()]],
            sum_amount(),
        );
        assert_ne!(fp(&a), fp(&b));
    }

    #[test]
    fn projection_matches_standalone_partial_execution() {
        let t = sales();
        // Superplan: two grouping sets × three aggregates (one carrying a
        // per-aggregate predicate), as the serving batcher would build.
        let superplan = LogicalPlan::scan("sales")
            .grouping_sets(
                vec![vec!["store".into()], vec!["product".into()], vec![]],
                vec![
                    AggSpec::new(AggFunc::Sum, "amount")
                        .with_filter(Expr::col("product").eq("Laserwave"))
                        .with_alias("t_sum_amount"),
                    AggSpec::new(AggFunc::Sum, "amount").with_alias("c_sum_amount"),
                    AggSpec::count_star(),
                ],
            )
            .lower()
            .unwrap();
        let combined = superplan.execute_partial(&t, (0, t.num_rows())).unwrap();

        // Member plans: a single-grouping plan with a different alias for
        // the same aggregate, and a grouping-sets plan over a subset.
        let member_a = LogicalPlan::scan("sales")
            .aggregate(
                vec!["product".into()],
                vec![AggSpec::new(AggFunc::Sum, "amount").with_alias("renamed")],
            )
            .lower()
            .unwrap();
        let member_b = LogicalPlan::scan("sales")
            .grouping_sets(
                vec![vec![], vec!["store".into()]],
                vec![
                    AggSpec::count_star(),
                    AggSpec::new(AggFunc::Sum, "amount")
                        .with_filter(Expr::col("product").eq("Laserwave")),
                ],
            )
            .lower()
            .unwrap();
        for member in [member_a, member_b] {
            let standalone = member.execute(&t).unwrap();
            let projected = combined.project_for(&member).unwrap().finalize(&t).unwrap();
            assert_eq!(standalone.results.len(), projected.results.len());
            for s in 0..standalone.results.len() {
                let (a, b) = (
                    standalone.result_set(s).unwrap(),
                    projected.result_set(s).unwrap(),
                );
                assert_eq!(a.columns, b.columns);
                assert_eq!(a.rows.len(), b.rows.len());
                for (x, y) in a.rows.iter().zip(&b.rows) {
                    for (va, vb) in x.iter().zip(y) {
                        match (va, vb) {
                            (Value::Float(f), Value::Float(g)) => {
                                assert_eq!(f.to_bits(), g.to_bits())
                            }
                            _ => assert_eq!(va, vb),
                        }
                    }
                }
            }
        }

        // Uncovered targets are rejected, not silently mis-projected.
        let missing_agg = LogicalPlan::scan("sales")
            .aggregate(
                vec!["store".into()],
                vec![AggSpec::new(AggFunc::Min, "amount")],
            )
            .lower()
            .unwrap();
        assert!(combined.project_for(&missing_agg).is_err());
        let missing_set = LogicalPlan::scan("sales")
            .aggregate(vec!["product".into(), "store".into()], sum_amount())
            .lower()
            .unwrap();
        assert!(combined.project_for(&missing_set).is_err());
    }

    #[test]
    fn sample_attaches_to_the_scan_leaf() {
        let plan = LogicalPlan::scan("sales")
            .filter(Expr::col("store").eq("MA"))
            .aggregate(vec!["store".into()], sum_amount())
            .sampled(Some(SampleSpec::Bernoulli {
                fraction: 0.5,
                seed: 1,
            }));
        assert!(plan.lower().unwrap().sample.is_some());
    }
}
