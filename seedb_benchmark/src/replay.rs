//! Stage-by-stage replay of one request through the layers' public
//! functions, on the table snapshot the service answered from. Each
//! stage is one child span of a `replay` span; their sum is what the
//! reconciliation check holds against the service's own wall time.

use std::collections::HashMap;
use std::sync::Arc;

use memdb::{run_partitioned_partial, PartialAggState, PhysicalPlan, PlanOutput, Table};
use seedb_core::{
    enumerate_views, optimizer, prune, top_k, AnalystQuery, MetadataCollector, Processor,
    Recommendation, SeeDbConfig, ViewResult,
};

use crate::trace::Recorder;

/// How the service answered the request being replayed (read off the
/// cache counters' movement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// At least one plan missed: a full (partitioned) shared scan.
    Cold,
    /// Every plan was an exact cache hit: no scan at all.
    Warm,
    /// Cached states were refreshed from the rows appended since.
    Refresh,
}

/// The unfinalized states of one analyst's plans, kept by the bench from
/// an earlier replay, with the row count they cover.
#[derive(Debug, Clone)]
struct Kept {
    rows: usize,
    states: Vec<PartialAggState>,
}

/// States kept across replays, by analyst SQL.
#[derive(Debug, Default)]
pub struct KeptStates(HashMap<String, Kept>);

/// What one replay measured. Times are nanoseconds; a `None` stage did
/// not run for this request.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub metadata_ns: u64,
    pub pruning_ns: u64,
    pub optimizer_ns: u64,
    pub lower_ns: u64,
    /// Single-thread full-range `execute_partial`.
    pub exec_ns: Option<u64>,
    /// `run_partitioned_partial` with the configured workers.
    pub parallel_ns: Option<u64>,
    /// `execute_partial` over only the appended rows (refresh path).
    pub delta_scan_ns: Option<u64>,
    /// `PartialAggState::merge` of a state of this request's shape.
    pub merge_ns: u64,
    pub project_ns: u64,
    pub finalize_ns: u64,
    /// `Processor::{new, consume, finish}` + `top_k`.
    pub process_ns: u64,
    pub top_k_ns: u64,
    /// Sum of the stages on the path the service took.
    pub stage_sum_ns: u64,
    pub rows: usize,
    pub columns: usize,
    pub candidates: usize,
    pub kept_views: usize,
    pub queries: usize,
    /// Groups across every grouping set of every plan's state.
    pub groups: usize,
    pub rows_scanned: u64,
    pub rows_matched: u64,
    pub partitions: u64,
    /// The replay's top-k equals the service's (specs and utility bits).
    pub matches_service: bool,
}

fn groups_of(state: &PartialAggState) -> usize {
    (0..state.num_sets()).map(|s| state.num_groups(s)).sum()
}

/// Same views in the same order with bit-identical utilities and
/// distributions.
pub fn same_views(a: &[ViewResult], b: &[ViewResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.spec == y.spec
                && x.utility.to_bits() == y.utility.to_bits()
                && x.target == y.target
                && x.comparison == y.comparison
        })
}

/// Replay `analyst` against `table` stage by stage; `path` is how the
/// service answered, `served` what it returned.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    rec: &mut Recorder,
    request: usize,
    table: &Arc<Table>,
    analyst: &AnalystQuery,
    config: &SeeDbConfig,
    served: &Recommendation,
    path: Path,
    kept: &mut KeptStates,
) -> Replay {
    let root = rec.open("replay", None, request);
    let parent = Some(root);
    let mut out = Replay {
        rows: table.num_rows(),
        columns: table.schema().columns().len(),
        ..Replay::default()
    };

    // core.metadata
    let need_corr = config.compute_correlations && config.pruning.correlation;
    let (metadata, ns) = rec.time("core.metadata", parent, request, || {
        MetadataCollector::new()
            .collect(table, need_corr)
            .expect("metadata collection")
    });
    out.metadata_ns = ns;

    // core.pruning: enumerate, drop the analyst's own filter attributes
    // (as the engine does), apply the pruning rules.
    let (outcome, ns) = rec.time("core.pruning", parent, request, || {
        let candidates = enumerate_views(table.schema(), &config.functions);
        let n = candidates.len();
        let filter_cols = analyst.referenced_columns();
        let candidates = if config.exclude_filter_attributes {
            candidates
                .into_iter()
                .filter(|v| !filter_cols.contains(&v.dimension))
                .collect()
        } else {
            candidates
        };
        (n, prune(candidates, &metadata, &config.pruning))
    });
    out.pruning_ns = ns;
    let (candidates, outcome) = outcome;
    out.candidates = candidates;
    out.kept_views = outcome.kept.len();

    // core.optimizer
    let (exec_plan, ns) = rec.time("core.optimizer", parent, request, || {
        optimizer::plan(&outcome.kept, analyst, &metadata, &config.optimizer)
    });
    out.optimizer_ns = ns;
    out.queries = exec_plan.num_queries();

    // memdb.plan.lower
    let (physical, ns) = rec.time("memdb.plan.lower", parent, request, || {
        exec_plan
            .queries
            .iter()
            .map(|q| q.plan.lower().expect("planned query lowers"))
            .collect::<Vec<PhysicalPlan>>()
    });
    out.lower_ns = ns;

    let rows = table.num_rows();
    let key = analyst.to_sql();
    let prior = kept.0.get(&key).filter(|k| {
        k.states.len() == physical.len()
            && match path {
                Path::Warm => k.rows == rows,
                Path::Refresh => k.rows < rows,
                Path::Cold => false,
            }
    });

    let states: Vec<PartialAggState> = match (path, prior) {
        (Path::Warm, Some(k)) => k.states.clone(),
        (Path::Refresh, Some(k)) => {
            // memdb.exec over only the appended rows, then merge — what
            // the service's incremental refresh does.
            let delta = (k.rows, rows);
            let (deltas, ns) = rec.time("memdb.exec.delta_scan", parent, request, || {
                physical
                    .iter()
                    .map(|p| p.execute_partial(table, delta).expect("delta scan"))
                    .collect::<Vec<_>>()
            });
            out.delta_scan_ns = Some(ns);
            let mut merged = k.states.clone();
            let (_, ns) = rec.time("memdb.parallel.merge", parent, request, || {
                for (m, d) in merged.iter_mut().zip(deltas) {
                    m.merge(d, table).expect("refresh merge");
                }
            });
            out.merge_ns = ns;
            merged
        }
        _ => {
            // memdb.exec: the scan kernel alone, one thread, full range.
            let (_, ns) = rec.time("memdb.exec", parent, request, || {
                physical
                    .iter()
                    .map(|p| p.execute_partial(table, (0, rows)).expect("full scan"))
                    .collect::<Vec<_>>()
            });
            out.exec_ns = Some(ns);
            // memdb.parallel: the same scan the way the service runs it.
            let workers = config.execution.workers();
            let (parallel, ns) = rec.time("memdb.parallel", parent, request, || {
                physical
                    .iter()
                    .map(|p| run_partitioned_partial(table, p, workers).expect("parallel scan"))
                    .collect::<Vec<_>>()
            });
            out.parallel_ns = Some(ns);
            out.partitions = parallel.iter().map(|s| s.stats().partitions).sum();
            parallel
        }
    };
    out.groups = states.iter().map(groups_of).sum();
    out.rows_scanned = states.iter().map(|s| s.stats().rows_scanned).sum();
    out.rows_matched = states.iter().map(|s| s.stats().rows_matched).sum();

    // PartialAggState::merge on this request's shape, when the path did
    // not already merge: fold a copy of each state into itself.
    if out.delta_scan_ns.is_none() {
        let mut left = states.clone();
        let right = states.clone();
        let (_, ns) = rec.time("memdb.parallel.merge", parent, request, || {
            for (l, r) in left.iter_mut().zip(right) {
                l.merge(r, table).expect("self merge");
            }
        });
        out.merge_ns = ns;
    }

    // memdb.plan: project_for (identity projection) and finalize.
    let (_, ns) = rec.time("memdb.plan.project", parent, request, || {
        for (s, p) in states.iter().zip(&physical) {
            std::hint::black_box(s.project_for(p).expect("identity projection"));
        }
    });
    out.project_ns = ns;
    let to_finalize = states.clone();
    let (outputs, ns) = rec.time("memdb.plan.finalize", parent, request, || {
        to_finalize
            .into_iter()
            .map(|s| s.finalize(table).expect("finalize"))
            .collect::<Vec<PlanOutput>>()
    });
    out.finalize_ns = ns;

    // core.processor
    let process = rec.open("core.processor", parent, request);
    let start = std::time::Instant::now();
    let mut processor = Processor::new(outcome.kept.clone(), config.metric);
    for (pq, output) in exec_plan.queries.iter().zip(&outputs) {
        processor.consume(pq, output).expect("processor consume");
    }
    let all = processor.finish();
    let top_start = std::time::Instant::now();
    let views = top_k(all.clone(), config.k);
    out.top_k_ns = top_start.elapsed().as_nanos() as u64;
    out.process_ns = start.elapsed().as_nanos() as u64;
    rec.close(process);

    out.matches_service = same_views(&views, &served.views);
    out.stage_sum_ns = out.metadata_ns
        + out.pruning_ns
        + out.optimizer_ns
        + out.lower_ns
        + out.process_ns
        + match (path, out.delta_scan_ns) {
            (Path::Warm, _) => 0,
            (Path::Refresh, Some(delta_ns)) => delta_ns + out.merge_ns + out.finalize_ns,
            // A cold request, or a refresh the bench had no earlier
            // state for (replayed as the full scan it would have been).
            _ => out.parallel_ns.unwrap_or(0) + out.finalize_ns,
        };
    kept.0.insert(key, Kept { rows, states });
    rec.close(root);
    out
}
