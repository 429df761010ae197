//! The five named workloads: what table each builds, which analyst
//! requests it issues, and why it exists. Everything here is a pure
//! function of `(workload, scale, seed)`; the program under test sees
//! only the generated table and requests.

use memdb::{Expr, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seedb_core::{AnalystQuery, ServiceConfig};
use seedb_data::{
    Categorical, CategoricalSampler, DimSpec, MeasureSpec, Numeric, Plant, SyntheticSpec,
};

/// Name of the one fact table every workload registers.
pub const TABLE: &str = "facts";
/// Rows per ingest batch (`live_ingest` and the store probe).
pub const BATCH_ROWS: usize = 250;
/// Appends between two recommendations in an ingest cycle.
pub const APPENDS_PER_CYCLE: usize = 4;
/// Pre-warmed analysts of the warm workloads.
pub const WARM_ANALYSTS: usize = 8;
/// Pre-warmed analysts of `live_ingest`.
pub const INGEST_ANALYSTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdExplore,
    WarmRepeat,
    WideViews,
    LiveIngest,
    ConcurrentMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdExplore,
        Workload::WarmRepeat,
        Workload::WideViews,
        Workload::LiveIngest,
        Workload::ConcurrentMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdExplore => "cold_explore",
            Workload::WarmRepeat => "warm_repeat",
            Workload::WideViews => "wide_views",
            Workload::LiveIngest => "live_ingest",
            Workload::ConcurrentMixed => "concurrent_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdExplore => {
                "1M rows x 10 dims, cache cleared per request: every request is one full shared scan (exec, parallel, metadata)"
            }
            Workload::WarmRepeat => {
                "same table, 8 cached analysts drawn Zipf: zero scans, so what remains (metadata) is the whole latency; no-change control for kernel work"
            }
            Workload::WideViews => {
                "100k rows x 40 dims, cold: ~300 kept views put the weight on Cramer's V, pruning, optimizer packing and the view processor"
            }
            Workload::LiveIngest => {
                "durable store, 4 x 250-row fsynced appends per recommend, crash and reopen each epoch: WAL, checkpoints, incremental refresh, recovery"
            }
            Workload::ConcurrentMixed => {
                "300k rows, 2 closed-loop sessions, 75% warm / 25% new predicates: batcher, cache lock and partitioned scans share the cores"
            }
        }
    }

    /// Does each timed request start from an empty cache?
    pub fn cold(self) -> bool {
        matches!(self, Workload::ColdExplore | Workload::WideViews)
    }

    /// Closed-loop clients (never more than the machine has cores).
    pub fn clients(self) -> usize {
        match self {
            Workload::ConcurrentMixed => 2.min(nproc()),
            _ => 1,
        }
    }

    /// Requests of the traced pass (ingest cycles for `live_ingest`).
    /// Fixed per workload so per-request counts repeat exactly.
    pub fn traced_ops(self) -> usize {
        match self {
            Workload::ColdExplore => 4,
            Workload::WarmRepeat => 8,
            Workload::WideViews => 4,
            Workload::LiveIngest => 40,
            Workload::ConcurrentMixed => 8,
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `full` is the paper-scale table; `tiny` divides rows by 100 for the
/// smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Full,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Full => "full",
        }
    }

    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::Tiny),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    fn rows(self, full: usize) -> usize {
        match self {
            Scale::Tiny => full / 100,
            Scale::Full => full,
        }
    }
}

/// A generator for one of the bench's own seeded draws (request
/// streams, ingest batches); table contents come from `seedb_data`.
fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The service under test: `ServiceConfig::recommended()` as shipped,
/// with access-frequency pruning off because it makes the plan set
/// drift with request history.
pub fn service_config() -> ServiceConfig {
    let mut config = ServiceConfig::recommended();
    config.seedb.pruning.access_frequency = false;
    config
}

/// The planted-deviation knobs table: `dims` dimensions of cardinality
/// 10 (Zipf 1.0), deviation planted on d1/d2 inside `d0 = d0_0`.
fn knobs_spec(rows: usize, dims: usize, measures: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec::knobs(rows, dims, 10, 1.0, measures, seed)
        .named(TABLE)
        .with_plant(Plant {
            subset_dim: 0,
            subset_value: 0,
            deviating_dims: vec![1, 2],
            deviating_measures: vec![(0, 30.0)],
        })
}

/// 40 dimensions with cardinalities 2–200: d0 is the analyst's filter
/// attribute, 8 are renamings of others (correlation clusters), 4 are
/// near-constant (variance pruning fires), the rest independent.
fn wide_spec(rows: usize, seed: u64) -> SyntheticSpec {
    const CARDS: [usize; 27] = [
        2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60, 75, 90, 100, 110, 120, 130, 140, 150,
        160, 175, 190, 200,
    ];
    let mut dims = vec![DimSpec::new("d0", Categorical::Zipf { k: 10, s: 1.0 })];
    for (i, &k) in CARDS.iter().enumerate() {
        dims.push(DimSpec::new(
            &format!("d{}", i + 1),
            Categorical::Zipf { k, s: 1.0 },
        ));
    }
    // d28..d35: noise-free renamings of d3, d6, ... (Cramér's V = 1).
    for j in 0..8 {
        let source = 3 + 3 * j;
        let k = dims[source].distribution.cardinality();
        dims.push(DimSpec::derived(&format!("d{}", 28 + j), k, source, 0.0));
    }
    // d36..d39: one value holds 99.5% of the rows (entropy ≈ 0.03 nats).
    for j in 0..4 {
        dims.push(DimSpec::new(
            &format!("d{}", 36 + j),
            Categorical::Weighted {
                weights: vec![0.995, 0.005],
            },
        ));
    }
    let measures = (0..5)
        .map(|i| {
            MeasureSpec::new(
                &format!("m{i}"),
                Numeric::Normal {
                    mean: 100.0,
                    std: 20.0,
                },
            )
        })
        .collect();
    SyntheticSpec {
        name: TABLE.to_string(),
        rows,
        dims,
        measures,
        seed,
        plant: Some(Plant {
            subset_dim: 0,
            subset_value: 0,
            deviating_dims: vec![1, 2],
            deviating_measures: vec![(0, 30.0)],
        }),
    }
}

/// The generator spec of a workload's fact table.
pub fn table_spec(workload: Workload, scale: Scale, seed: u64) -> SyntheticSpec {
    match workload {
        Workload::ColdExplore | Workload::WarmRepeat => {
            knobs_spec(scale.rows(1_000_000), 10, 3, seed)
        }
        Workload::WideViews => wide_spec(scale.rows(100_000), seed),
        Workload::LiveIngest => knobs_spec(scale.rows(100_000), 6, 2, seed),
        Workload::ConcurrentMixed => knobs_spec(scale.rows(300_000), 10, 3, seed),
    }
}

fn label(dim: usize, value: usize) -> Value {
    Value::from(format!("d{dim}_{value}"))
}

fn dim_eq(dim: usize, value: usize) -> Expr {
    Expr::col(&format!("d{dim}")).eq(label(dim, value))
}

fn dim_in(dim: usize, values: &[usize]) -> Expr {
    Expr::col(&format!("d{dim}")).in_list(values.iter().map(|&v| label(dim, v)).collect())
}

fn analyst(filter: Expr) -> AnalystQuery {
    AnalystQuery::new(TABLE, Some(filter))
}

/// The 16 distinct predicates of the cold workloads, selectivity 3 %–34 %
/// (d0 is Zipf(1.0) over 10 values: 34 %, 17 %, 11 %, … 3.4 %). Entry 0
/// selects exactly the planted subset. Every workload's table has d0 with
/// 10 values, d3 with at least 3 and d4, so the list is shared. The order is
/// fixed (not seeded) so that every seed times the same request mix.
pub fn explore_predicates() -> Vec<AnalystQuery> {
    let mut out: Vec<AnalystQuery> = (0..10).map(|v| analyst(dim_eq(0, v))).collect();
    out.push(analyst(dim_in(0, &[1, 2])));
    out.push(analyst(dim_in(0, &[3, 4, 5])));
    out.push(analyst(dim_in(0, &[6, 7, 8, 9])));
    out.push(analyst(dim_eq(0, 0).and(dim_eq(3, 0))));
    out.push(analyst(dim_eq(0, 0).and(dim_in(3, &[1, 2]))));
    out.push(analyst(dim_in(0, &[1, 2]).and(dim_eq(4, 0))));
    out
}

/// The analyst selecting exactly the planted subset (`d0 = d0_0`):
/// every workload's warm-up request and every reopen's first reply.
pub fn planted_subset() -> AnalystQuery {
    analyst(dim_eq(0, 0))
}

/// Does this predicate of [`explore_predicates`] select a subset defined
/// on d0 alone? Those are the requests whose top-k must surface the
/// planted dimensions d1/d2: inside `d0 = d0_0` they are drawn from the
/// reversed skew, so any d0-defined subset differs from the whole table
/// on exactly those two attributes.
pub fn planted_applies(index: usize) -> bool {
    index < 13
}

/// The `index`-th never-before-seen predicate of `concurrent_mixed`:
/// `d_i = a AND d_j = b` over the 7 unplanted dimensions d3..d9 — 2 100
/// distinct predicates, visited through a seeded stride so no two
/// indices collide.
pub fn novel_predicate(seed: u64, index: usize) -> AnalystQuery {
    const TOTAL: usize = 21 * 100;
    // 1009 is prime and coprime to 2100, so the stride is a permutation.
    let slot = (rng(seed, 0xA11).gen_range(0..TOTAL) + index * 1009) % TOTAL;
    let (pair, values) = (slot / 100, slot % 100);
    let mut pairs = Vec::with_capacity(21);
    for i in 3..10 {
        for j in (i + 1)..10 {
            pairs.push((i, j));
        }
    }
    let (i, j) = pairs[pair];
    analyst(dim_eq(i, values / 10).and(dim_eq(j, values % 10)))
}

/// One request of a closed-loop stream.
#[derive(Debug, Clone)]
pub struct Request {
    pub analyst: AnalystQuery,
    /// Index into [`explore_predicates`] when the request came from it.
    pub explore_index: Option<usize>,
}

/// The deterministic request stream of one client. `next` never runs
/// dry: the cold workloads cycle their 16 predicates in order, the warm
/// ones draw Zipf(1.0) over the pre-warmed analysts, `concurrent_mixed`
/// issues three warm draws, then one novel predicate.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    client: usize,
    clients: usize,
    rng: StdRng,
    /// Zipf(1.0) over the pre-warmed analysts.
    warm: CategoricalSampler,
    issued: usize,
    novel: usize,
    explore: Vec<AnalystQuery>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Stream {
        Stream {
            workload,
            seed,
            client,
            clients: workload.clients(),
            rng: rng(seed, 0x57E + client as u64),
            warm: Categorical::Zipf {
                k: WARM_ANALYSTS,
                s: 1.0,
            }
            .sampler(),
            issued: 0,
            novel: 0,
            explore: explore_predicates(),
        }
    }

    fn explore(&self, index: usize) -> Request {
        Request {
            analyst: self.explore[index].clone(),
            explore_index: Some(index),
        }
    }

    pub fn next(&mut self) -> Request {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::ColdExplore | Workload::WideViews => self.explore(i % self.explore.len()),
            Workload::WarmRepeat => {
                let r = self.warm.sample(&mut self.rng);
                self.explore(r)
            }
            Workload::LiveIngest => self.explore(i % INGEST_ANALYSTS),
            Workload::ConcurrentMixed => {
                // Every fourth request is new, at a per-client offset:
                // a fixed pattern, so every seed times the same mix.
                if i % 4 == (3 + 2 * self.client) % 4 {
                    let index = self.novel * self.clients + self.client;
                    self.novel += 1;
                    Request {
                        analyst: novel_predicate(self.seed, index),
                        explore_index: None,
                    }
                } else {
                    let r = self.warm.sample(&mut self.rng);
                    self.explore(r)
                }
            }
        }
    }
}

/// The analysts a workload issues once during set-up so the timed
/// window starts from a warm cache: the first explore predicates (all on
/// d0, so the planted check applies to each), none for the cold
/// workloads.
pub fn prewarmed(workload: Workload) -> Vec<AnalystQuery> {
    let n = match workload {
        Workload::ColdExplore | Workload::WideViews => 0,
        Workload::WarmRepeat | Workload::ConcurrentMixed => WARM_ANALYSTS,
        Workload::LiveIngest => INGEST_ANALYSTS,
    };
    explore_predicates().into_iter().take(n).collect()
}

/// Ingest batch `index` for a table generated from `spec`: `BATCH_ROWS`
/// rows drawn from the columns' own base distributions (no planted
/// deviation), a pure function of `(spec.seed, index)` so an in-memory
/// twin can be rebuilt after a crash.
pub fn ingest_batch(spec: &SyntheticSpec, index: usize) -> Vec<Vec<Value>> {
    let mut rng = rng(spec.seed, 0xBA7C4 + index as u64);
    let dims: Vec<CategoricalSampler> =
        spec.dims.iter().map(|d| d.distribution.sampler()).collect();
    (0..BATCH_ROWS)
        .map(|_| {
            let mut row: Vec<Value> = dims
                .iter()
                .enumerate()
                .map(|(d, sampler)| label(d, sampler.sample(&mut rng)))
                .collect();
            for m in &spec.measures {
                row.push(Value::Float(m.distribution.sample(&mut rng)));
            }
            row
        })
        .collect()
}

/// User bytes of a batch: 8 per numeric value, UTF-8 length per string.
pub fn user_bytes(rows: &[Vec<Value>]) -> u64 {
    rows.iter()
        .flatten()
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            Value::Null => 0,
            _ => 8,
        })
        .sum()
}

/// User bytes of a whole table, by the same definition.
pub fn table_user_bytes(table: &Table) -> u64 {
    (0..table.schema().len())
        .map(|c| {
            let column = table.column_at(c);
            match column.str_dict() {
                Some(dict) => (0..column.len())
                    .filter_map(|i| column.code_at(i))
                    .map(|code| dict.value(code).len() as u64)
                    .sum(),
                None => 8 * (column.len() - column.null_count()) as u64,
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_are_distinct() {
        let sql: std::collections::BTreeSet<String> =
            explore_predicates().iter().map(|a| a.to_sql()).collect();
        assert_eq!(sql.len(), 16);
        let novel: std::collections::BTreeSet<String> =
            (0..500).map(|i| novel_predicate(7, i).to_sql()).collect();
        assert_eq!(novel.len(), 500);
    }

    #[test]
    fn streams_and_batches_are_pure_functions_of_the_seed() {
        let draw = |seed| {
            let mut s = Stream::new(Workload::ConcurrentMixed, seed, 1);
            (0..40)
                .map(|_| s.next().analyst.to_sql())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let spec = table_spec(Workload::LiveIngest, Scale::Tiny, 3);
        assert_eq!(ingest_batch(&spec, 5), ingest_batch(&spec, 5));
        assert_ne!(ingest_batch(&spec, 5), ingest_batch(&spec, 6));
        assert_eq!(ingest_batch(&spec, 5).len(), BATCH_ROWS);
    }

    #[test]
    fn wide_table_shape() {
        let spec = wide_spec(100, 1);
        assert_eq!(spec.dims.len(), 40);
        assert_eq!(spec.measures.len(), 5);
        assert_eq!(
            spec.dims
                .iter()
                .filter(|d| d.derived_from.is_some())
                .count(),
            8
        );
    }
}
