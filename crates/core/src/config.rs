//! Top-level SeeDB configuration.

use std::path::PathBuf;
use std::time::Duration;

use crate::distance::Metric;
use crate::live::RefreshConfig;
use crate::optimizer::OptimizerConfig;
use crate::pruning::PruningConfig;
use crate::view::FunctionSet;

/// How the planned view queries are executed — the parallelism ×
/// early-termination axis of §3.3, selectable per engine (and from the
/// demo CLI via `:strategy` / `:workers`).
///
/// `workers` is the thread count: the batch executor fans independent
/// plans out across that many threads ([`memdb::run_batch`]), phased
/// execution splits every phase slice across that many row partitions
/// whose partial aggregate states merge deterministically — outcomes
/// are byte-identical for every worker count.
///
/// With `phased` set, the batch executor is traded for
/// [`crate::phased::run_phased`]: the table is processed in `phases`
/// contiguous slices and views whose utility confidence interval falls
/// below the running top-k are discarded early (survivors still end
/// with exact full-table utilities). Phased execution runs against the
/// table directly, so [`crate::engine::Recommendation::cost`] reflects
/// only catalog-mediated work (zero for a pure phased run). It is
/// *exact by construction* and does not compose with scan sampling, so
/// a configured `optimizer.sample` is ignored while `phased` is set
/// (the demo CLI prints a notice when both are).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionStrategy {
    /// Worker threads (values below 1 behave as 1; see
    /// [`ExecutionStrategy::workers`]).
    pub workers: usize,
    /// Phase-sliced execution with confidence-interval pruning; `None`
    /// is the batch executor.
    pub phased: Option<PhasedParams>,
}

/// Parameters of phased execution's slicing and pruning bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasedParams {
    /// Number of table slices.
    pub phases: usize,
    /// Confidence parameter δ of the pruning bound.
    pub delta: f64,
    /// Never prune before this many phases.
    pub min_phases: usize,
}

impl ExecutionStrategy {
    /// One query at a time (the paper's baseline).
    pub fn sequential() -> Self {
        ExecutionStrategy::parallel(1)
    }

    /// The batch executor on `workers` threads.
    pub fn parallel(workers: usize) -> Self {
        ExecutionStrategy {
            workers,
            phased: None,
        }
    }

    /// Single-threaded phased execution with the default parameters
    /// (10 slices, δ = 0.05, 2 warm-up phases).
    pub fn phased() -> Self {
        ExecutionStrategy::phased_parallel(1)
    }

    /// Phased execution with the default parameters and `workers` row
    /// partitions per phase slice.
    pub fn phased_parallel(workers: usize) -> Self {
        ExecutionStrategy {
            workers,
            phased: Some(PhasedParams {
                phases: 10,
                delta: 0.05,
                min_phases: 2,
            }),
        }
    }

    /// The strategy with its worker count set to `n`.
    pub fn with_workers(self, n: usize) -> Self {
        ExecutionStrategy { workers: n, ..self }
    }

    /// Worker count this strategy uses (at least 1).
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Parse a CLI/demo name: `sequential`, `parallel`, `phased`,
    /// `phased-parallel`.
    pub fn parse(name: &str, default_workers: usize) -> Option<Self> {
        match name {
            "sequential" | "seq" => Some(ExecutionStrategy::sequential()),
            "parallel" | "par" => Some(ExecutionStrategy::parallel(default_workers)),
            "phased" => Some(ExecutionStrategy::phased()),
            "phased-parallel" | "phased_parallel" => {
                Some(ExecutionStrategy::phased_parallel(default_workers))
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecutionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.phased, self.workers()) {
            (None, 1) => write!(f, "sequential"),
            (None, workers) => write!(f, "parallel ({workers} workers)"),
            (Some(p), 1) => write!(f, "phased ({} phases)", p.phases),
            (Some(p), workers) => write!(
                f,
                "phased-parallel ({} phases × {workers} workers)",
                p.phases
            ),
        }
    }
}

/// Hardware parallelism (the default worker count for the parallel
/// strategies).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Everything tunable about a SeeDB instance — the "knobs" of demo
/// Scenario 2 ("attendees will also be able to select the optimizations
/// that SEEDB applies and observe the effect on response times and
/// accuracy").
#[derive(Debug, Clone)]
pub struct SeeDbConfig {
    /// Distance function `S` for utility.
    pub metric: Metric,
    /// Number of views to recommend.
    pub k: usize,
    /// Aggregate functions to enumerate.
    pub functions: FunctionSet,
    /// View-space pruning rules.
    pub pruning: PruningConfig,
    /// Query-combination optimizations.
    pub optimizer: OptimizerConfig,
    /// Whether the metadata collector computes the dimension-correlation
    /// matrix (`O(|A|²·n)`; required for correlation pruning).
    pub compute_correlations: bool,
    /// Additionally return this many *lowest*-utility views — the demo
    /// shows "bad views ... that were not selected by SeeDB" for
    /// contrast.
    pub low_utility_views: usize,
    /// Exclude dimensions that appear in the analyst's own predicate
    /// from the view space. Their target views trivially concentrate on
    /// the selected value (e.g. `product` under
    /// `WHERE product = 'Laserwave'`) and would crowd out genuine
    /// insights. Default: on.
    pub exclude_filter_attributes: bool,
    /// How planned queries are executed (worker count; batch or phased
    /// with confidence-interval pruning).
    pub execution: ExecutionStrategy,
}

impl SeeDbConfig {
    /// Paper defaults: EMD, k = 10, standard functions, all pruning and
    /// sharing optimizations on.
    pub fn recommended() -> Self {
        SeeDbConfig {
            metric: Metric::EarthMovers,
            k: 10,
            functions: FunctionSet::standard(),
            pruning: PruningConfig::aggressive(),
            optimizer: OptimizerConfig::all_optimizations(),
            compute_correlations: true,
            low_utility_views: 0,
            exclude_filter_attributes: true,
            execution: ExecutionStrategy::parallel(default_workers()),
        }
    }

    /// The paper's Basic Framework: no pruning, no sharing, sequential.
    pub fn basic() -> Self {
        SeeDbConfig {
            metric: Metric::EarthMovers,
            k: 10,
            functions: FunctionSet::standard(),
            pruning: PruningConfig::disabled(),
            optimizer: OptimizerConfig::basic(),
            compute_correlations: false,
            low_utility_views: 0,
            exclude_filter_attributes: true,
            execution: ExecutionStrategy::sequential(),
        }
    }

    /// Builder: set the distance metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Builder: set `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Builder: set the function set.
    pub fn with_functions(mut self, functions: FunctionSet) -> Self {
        self.functions = functions;
        self
    }

    /// Builder: set the execution strategy.
    pub fn with_execution(mut self, execution: ExecutionStrategy) -> Self {
        self.execution = execution;
        self
    }
}

impl Default for SeeDbConfig {
    fn default() -> Self {
        SeeDbConfig::recommended()
    }
}

/// Telemetry-pipeline knobs of the serving layer: how often the
/// metrics registry is sampled into time-series windows, the watchdog
/// rule bounds evaluated per window, and where flight-recorder dumps
/// land when a rule trips. All timing flows through the service's
/// injected [`seedb_obs::Clock`], so under the soak harness's virtual
/// clock the whole pipeline — windows, breaches, dump bytes — is
/// deterministic per seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch: `false` skips sampling and watchdog evaluation on
    /// the serve path entirely (one branch per request).
    pub enabled: bool,
    /// Minimum injected-clock nanoseconds between sampled windows.
    pub interval_ns: u64,
    /// Windows retained in the sampler's ring.
    pub window_capacity: usize,
    /// Watchdog: breach when the windowed p99 of
    /// `service.recommend_ns` exceeds this bound.
    pub p99_bound_ns: u64,
    /// Watchdog: breach when the windowed cache hit rate falls below
    /// this floor.
    pub hit_rate_floor: f64,
    /// Minimum cache probes in a window before the hit-rate rule
    /// applies (a near-idle window proves nothing).
    pub hit_rate_min_events: u64,
    /// Watchdog: breach after this many consecutive windows of strictly
    /// growing `store.wal.bytes_pending` (backlog never drains).
    pub wal_growth_windows: usize,
    /// Watchdog: breach when `service.cache.refresh_fallbacks` moves by
    /// more than this inside one window.
    pub refresh_fallback_max: u64,
    /// Directory flight-recorder dumps are written to on a breach.
    /// `None` disables dumps; breaches still surface via
    /// [`crate::Service::health`].
    pub dump_dir: Option<PathBuf>,
}

impl TelemetryConfig {
    /// Serving defaults: sampling on at 1 s windows, 64 retained,
    /// p99 bound 2 s, hit-rate floor 10% over ≥ 20 probes, WAL growth
    /// over 6 windows, 32 refresh fallbacks per window, no dump
    /// directory.
    pub fn recommended() -> Self {
        TelemetryConfig {
            enabled: true,
            interval_ns: 1_000_000_000,
            window_capacity: 64,
            p99_bound_ns: 2_000_000_000,
            hit_rate_floor: 0.10,
            hit_rate_min_events: 20,
            wal_growth_windows: 6,
            refresh_fallback_max: 32,
            dump_dir: None,
        }
    }

    /// Telemetry fully off.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::recommended()
        }
    }

    /// Builder: set the dump directory.
    pub fn with_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dump_dir = Some(dir.into());
        self
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::recommended()
    }
}

/// Configuration of the serving layer ([`crate::service::Service`]): a
/// [`SeeDbConfig`] for the recommendation pipeline plus the knobs of the
/// shared partial-aggregate cache and the cross-request scan batcher.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Recommendation pipeline configuration shared by every session.
    pub seedb: SeeDbConfig,
    /// Maximum cached partial-aggregate states (LRU eviction beyond
    /// this; 0 disables caching entirely).
    pub cache_capacity: usize,
    /// How long the first cache-missing request on a table holds the
    /// batch open so concurrent misses can join its shared scan.
    /// `Duration::ZERO` disables cross-request batching (each miss
    /// scans for itself, still deduplicated within one request).
    pub batch_window: Duration,
    /// Working-set cap for one batched shared scan: plans whose
    /// combined grouping-set count would exceed this are bin-packed
    /// into several scans (reusing [`crate::packing::pack`]).
    pub max_batch_sets: usize,
    /// Live-ingest policy: when cached partial-aggregate states are
    /// refreshed incrementally after [`crate::Service::append_rows`]
    /// (lazy on probe, eager on append, or off), and how large a delta
    /// may grow before falling back to a full recompute.
    pub refresh: RefreshConfig,
    /// Telemetry pipeline: registry sampling, watchdog rules, and
    /// flight-recorder dumps.
    pub telemetry: TelemetryConfig,
}

impl ServiceConfig {
    /// Serving defaults: recommended pipeline, 512 cached states, a
    /// 2 ms batch window, 64 grouping sets per shared scan, lazy
    /// incremental refresh.
    pub fn recommended() -> Self {
        ServiceConfig {
            seedb: SeeDbConfig::recommended(),
            cache_capacity: 512,
            batch_window: Duration::from_millis(2),
            max_batch_sets: 64,
            refresh: RefreshConfig::recommended(),
            telemetry: TelemetryConfig::recommended(),
        }
    }

    /// A deterministic one-line summary of the output- and
    /// performance-determining knobs, stamped into every flight-recorder
    /// dump so a dump is attributable to the exact configuration that
    /// produced it.
    pub fn fingerprint(&self) -> String {
        format!(
            "k={} metric={:?} functions={} exec={} cache={} batch_window_us={} \
             max_batch_sets={} refresh={:?} telemetry_interval_ns={}",
            self.seedb.k,
            self.seedb.metric,
            self.seedb.functions.funcs().len(),
            self.seedb.execution,
            self.cache_capacity,
            self.batch_window.as_micros(),
            self.max_batch_sets,
            self.refresh.mode,
            self.telemetry.interval_ns,
        )
    }

    /// Builder: set the pipeline configuration.
    pub fn with_seedb(mut self, seedb: SeeDbConfig) -> Self {
        self.seedb = seedb;
        self
    }

    /// Builder: set the cache capacity (entries; 0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Builder: set the batch window (`Duration::ZERO` disables
    /// cross-request batching).
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Builder: set the live-ingest refresh policy.
    pub fn with_refresh(mut self, refresh: RefreshConfig) -> Self {
        self.refresh = refresh;
        self
    }

    /// Builder: set the telemetry pipeline configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::recommended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let rec = SeeDbConfig::recommended();
        let basic = SeeDbConfig::basic();
        assert!(rec.pruning.variance && !basic.pruning.variance);
        assert!(rec.optimizer.combine_target_comparison);
        assert!(!basic.optimizer.combine_target_comparison);
        assert_eq!(basic.optimizer.parallelism, 1);
    }

    #[test]
    fn strategy_parsing_and_worker_counts() {
        let parsed = |name| ExecutionStrategy::parse(name, 8).map(|s| s.to_string());
        assert_eq!(parsed("sequential").as_deref(), Some("sequential"));
        assert_eq!(parsed("parallel").as_deref(), Some("parallel (8 workers)"));
        assert_eq!(parsed("phased").as_deref(), Some("phased (10 phases)"));
        assert_eq!(
            parsed("phased-parallel").as_deref(),
            Some("phased-parallel (10 phases × 8 workers)")
        );
        assert_eq!(parsed("turbo"), None);

        // Changing the worker count keeps the phased parameters.
        let p = ExecutionStrategy::phased().with_workers(6);
        assert_eq!(p, ExecutionStrategy::phased_parallel(6));
        assert_eq!(p.with_workers(1), ExecutionStrategy::phased());
        assert_eq!(
            ExecutionStrategy::sequential().with_workers(4),
            ExecutionStrategy::parallel(4)
        );
        assert_eq!(
            ExecutionStrategy::parallel(4).with_workers(1),
            ExecutionStrategy::sequential()
        );
        assert_eq!(ExecutionStrategy::sequential().workers(), 1);
        assert_eq!(ExecutionStrategy::parallel(0).workers(), 1);
        assert_eq!(ExecutionStrategy::phased_parallel(3).workers(), 3);
    }

    #[test]
    fn fingerprint_is_deterministic_and_config_sensitive() {
        let a = ServiceConfig::recommended();
        let b = ServiceConfig::recommended();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = ServiceConfig::recommended().with_cache_capacity(7);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a.fingerprint().contains("cache=512"));
    }

    #[test]
    fn telemetry_presets() {
        let t = TelemetryConfig::recommended();
        assert!(t.enabled);
        assert!(t.dump_dir.is_none());
        assert!(!TelemetryConfig::disabled().enabled);
        let d = TelemetryConfig::recommended().with_dump_dir("/tmp/dumps");
        assert_eq!(
            d.dump_dir.as_deref(),
            Some(std::path::Path::new("/tmp/dumps"))
        );
    }

    #[test]
    fn builders() {
        let c = SeeDbConfig::recommended()
            .with_metric(Metric::KlDivergence)
            .with_k(3)
            .with_functions(FunctionSet::sum_only());
        assert_eq!(c.metric, Metric::KlDivergence);
        assert_eq!(c.k, 3);
        assert_eq!(c.functions, FunctionSet::sum_only());
    }
}
