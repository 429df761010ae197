//! The closed-loop soak driver.
//!
//! A discrete-event loop over virtual time: synthetic analysts issue
//! Zipf-popular recommendation queries against a real [`Service`] while
//! ingest appends drifting rows, tables get re-registered with fresh
//! lineage, and a crash injector periodically tears the durable store
//! down and recovers it — all interleaved on one deterministic event
//! queue. The driver is single-threaded on purpose: given a
//! [`SoakSpec`], every decision (who queries what, when, which crash
//! flavor) replays byte-identically from the seed; concurrency inside
//! the service (parallel plan execution, shared scans) stays exercised
//! *underneath* each call without touching workload determinism.
//!
//! Wall time never steers the loop — it is only *measured*, through
//! [`super::shim`], to feed the latency invariants and the bench
//! artifact.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use memdb::{Database, DurabilityConfig, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seedb_core::{
    AnalystQuery, ExecutionStrategy, Recommendation, SeeDb, SeeDbConfig, Service, ServiceConfig,
};
use seedb_data::{Categorical, CategoricalSampler, SyntheticSpec};
use seedb_obs::{ManualClock, Obs};

use super::clock::{EventQueue, VirtualClock};
use super::invariants::{InvariantChecker, RecDigest};
use super::report::{LatencySummary, SoakReport, Trace};
use super::shim::{timed, Stopwatch};
use super::spec::SoakSpec;

/// One soak run's outputs: the report and the deterministic trace.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Aggregated counters, latency summaries, and violations.
    pub report: SoakReport,
    /// The workload trace (same spec ⇒ byte-identical lines).
    pub trace: Trace,
    /// Full metrics snapshots of **every** service incarnation as one
    /// sorted-JSON object (`{"incarnations": [...]}`, one snapshot per
    /// recovery epoch, in order — each crash/restart starts a fresh
    /// registry, so the driver banks the snapshot right before dropping
    /// each incarnation). Every instrument ticks on the driver's
    /// virtual clock, so the same spec renders byte-identical JSON
    /// (an empty array if setup aborted before a service existed).
    pub obs_json: String,
}

/// What the event queue schedules.
enum Event {
    /// Analyst `i` wakes up and issues one query.
    Analyst(usize),
    /// One ingest batch lands on a Zipf-chosen table.
    Ingest,
    /// One table is replaced with fresh lineage.
    Reregister,
    /// The durable store is crashed and recovered.
    Crash,
    /// Continuous-invariant sweep (hit rate, window p99).
    Check,
}

/// Per-table ledger entry: the last *acknowledged* state, which a crash
/// is never allowed to lose.
struct TableState {
    /// Generator for this table's current lineage (labels, schema).
    spec: SyntheticSpec,
    /// Rows acknowledged (registration + every acked append).
    acked_rows: usize,
    /// Table version at the last ack.
    acked_version: u64,
}

/// Counters that survive service restarts (each recovered `Database`
/// and `Service` starts its counters at zero, so the driver banks them
/// at every crash).
#[derive(Default)]
struct RunningTotals {
    hits: u64,
    misses: u64,
    refreshes: u64,
    refresh_fallbacks: u64,
    table_scans: u64,
    rows_scanned: u64,
    telemetry_windows: u64,
    telemetry_breaches: u64,
}

impl RunningTotals {
    fn bank(&mut self, service: &Service) {
        let stats = service.cache_stats();
        self.hits += stats.hits;
        self.misses += stats.misses;
        self.refreshes += stats.refreshes;
        self.refresh_fallbacks += stats.refresh_fallbacks;
        let cost = service.database().cost();
        self.table_scans += cost.table_scans;
        self.rows_scanned += cost.rows_scanned;
        let health = service.health();
        self.telemetry_windows += health.windows_evaluated;
        self.telemetry_breaches += health.breaches.len() as u64;
    }
}

/// The serving configuration every soak uses: the recommended pipeline
/// with a small fixed `k`, access-frequency pruning off (it would make
/// served results depend on tracker history, breaking the
/// byte-identical spot check), a pinned worker count (machine-
/// independent plan counts), no cross-request batch window (nothing to
/// batch with — the driver is closed-loop — and the window is a wall
/// sleep), and the spec's cache capacity.
fn service_config(spec: &SoakSpec, dump_dir: Option<&Path>) -> ServiceConfig {
    let mut seedb = SeeDbConfig::recommended()
        .with_k(3)
        .with_execution(ExecutionStrategy::parallel(2));
    seedb.pruning.access_frequency = false;
    let mut cfg = ServiceConfig::recommended().with_seedb(seedb);
    cfg.cache_capacity = spec.cache_capacity;
    cfg.batch_window = Duration::ZERO;
    // Telemetry windows close on the injected virtual clock, so the
    // sampler/watchdog pipeline is exercised deterministically; a dump
    // directory turns breaches into flight-recorder files (byte-
    // identical per seed — the tracer stays disabled, so dumps carry no
    // thread-ordering-sensitive trace data).
    if let Some(dir) = dump_dir {
        cfg.telemetry = cfg.telemetry.with_dump_dir(dir);
    }
    cfg
}

fn durability(spec: &SoakSpec) -> DurabilityConfig {
    let mut d = DurabilityConfig::recommended();
    d.sync_writes = spec.sync_writes;
    d
}

/// A fresh generator spec for table index `i`, lineage `gen` (0 at
/// registration, bumped per re-registration).
fn table_spec(spec: &SoakSpec, i: usize, generation: u64) -> SyntheticSpec {
    SyntheticSpec::knobs(
        spec.rows_per_table,
        spec.dims,
        spec.cardinality,
        spec.zipf_skew,
        spec.measures,
        spec.seed ^ (i as u64).wrapping_mul(7919) ^ generation.wrapping_mul(0x5EED),
    )
    .named(&format!("t{i}"))
}

/// Distill a recommendation to its byte-comparable identity.
fn digest(rec: &Recommendation) -> RecDigest {
    rec.views
        .iter()
        .map(|v| (v.spec.label(), v.utility.to_bits()))
        .collect()
}

/// Exponentially distributed think time with mean `mean_us` (≥ 1µs).
fn think_time(rng: &mut StdRng, mean_us: u64) -> u64 {
    let u: f64 = rng.gen();
    let t = -(1.0 - u).ln() * mean_us as f64;
    (t as u64).max(1)
}

/// Run one soak to completion. `dir` is the durable-store directory the
/// crash injector tears down and recovers (created fresh; callers pass
/// a temp path and clean it up).
pub fn run(spec: &SoakSpec, dir: &Path) -> SoakOutcome {
    run_with_dumps(spec, dir, None)
}

/// [`run`] with an optional flight-recorder dump directory: watchdog
/// breaches during the soak write their dumps there (the store `dir` is
/// torn down by the crash injector, so dumps need their own home).
pub fn run_with_dumps(spec: &SoakSpec, dir: &Path, dump_dir: Option<&Path>) -> SoakOutcome {
    let run_sw = Stopwatch::start();
    let mut clock = VirtualClock::default();
    let mut queue: EventQueue<Event> = EventQueue::default();
    let mut trace = Trace::default();
    let mut checker = InvariantChecker::new(spec.seed, spec.bounds);
    let mut totals = RunningTotals::default();

    // ---- deterministic random streams -------------------------------
    // One stream per concern: interleaving never shifts another
    // stream's draws, so adding an event type cannot silently reshuffle
    // every analyst's behavior.
    let mut analyst_rngs: Vec<StdRng> = (0..spec.analysts)
        .map(|i| StdRng::seed_from_u64(spec.seed ^ 0xA11A ^ (i as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    let mut ingest_rng = StdRng::seed_from_u64(spec.seed ^ 0x1A6E);
    let table_sampler: CategoricalSampler = Categorical::Zipf {
        k: spec.tables,
        s: spec.zipf_skew,
    }
    .sampler();
    let dim_sampler: CategoricalSampler = Categorical::Uniform { k: spec.dims }.sampler();
    let value_sampler: CategoricalSampler = Categorical::Zipf {
        k: spec.cardinality,
        s: spec.zipf_skew,
    }
    .sampler();

    // ---- setup: tables, durable store, service ----------------------
    // One hand-driven observability clock for the whole run, stepped in
    // lockstep with the virtual event clock: latency histograms and
    // span stamps replay byte-identically from the seed. Each service
    // incarnation gets a *fresh* registry sharing this clock, matching
    // the per-incarnation counter banking above.
    let obs_clock = Arc::new(ManualClock::new());
    let db = Arc::new(Database::with_obs(Obs::with_clock(obs_clock.clone())));
    let mut tables: Vec<TableState> = (0..spec.tables)
        .map(|i| {
            let tspec = table_spec(spec, i, 0);
            let t = db.register(tspec.generate());
            TableState {
                spec: tspec,
                acked_rows: t.num_rows(),
                acked_version: t.version(),
            }
        })
        .collect();
    if let Err(e) = db.save_with(dir, durability(spec)) {
        // Without a durable store there is nothing to soak against.
        checker.query_error(0, "save durable store", &e.to_string());
        return finish(spec, run_sw, trace, checker, totals, None, Vec::new());
    }
    let cfg = service_config(spec, dump_dir);
    let mut service = Service::new(db, cfg.clone());
    // One metrics snapshot per service incarnation (each recovery epoch
    // starts a fresh registry), banked right before each teardown.
    let mut incarnations: Vec<String> = Vec::new();

    // ---- schedule the initial events --------------------------------
    for (i, rng) in analyst_rngs.iter_mut().enumerate() {
        queue.push(think_time(rng, spec.think_us), Event::Analyst(i));
    }
    if spec.ingest_interval_us > 0 {
        queue.push(spec.ingest_interval_us, Event::Ingest);
    }
    if spec.reregister_interval_us > 0 {
        queue.push(spec.reregister_interval_us, Event::Reregister);
    }
    if spec.crash_interval_us > 0 {
        queue.push(spec.crash_interval_us, Event::Crash);
    }
    if spec.check_interval_us > 0 {
        queue.push(spec.check_interval_us, Event::Check);
    }

    // ---- counters and latency streams -------------------------------
    let mut queries = 0u64;
    let mut appends = 0u64;
    let mut appended_rows = 0u64;
    let mut reregisters = 0u64;
    let mut crashes_clean = 0u64;
    let mut crashes_torn = 0u64;
    let mut crash_count = 0u64;
    let mut rereg_count = 0u64;
    let mut recommend_ns: Vec<u64> = Vec::new();
    let mut append_ns: Vec<u64> = Vec::new();
    let mut window_ns: Vec<u64> = Vec::new();

    // ---- the event loop ---------------------------------------------
    while let Some((at, event)) = queue.pop() {
        if at > spec.virtual_us {
            break;
        }
        clock.advance_to(at);
        obs_clock.set_ns(at.saturating_mul(1000));
        let vt = clock.now_us();
        match event {
            Event::Analyst(i) => {
                let rng = &mut analyst_rngs[i];
                let ti = table_sampler.sample(rng);
                let di = dim_sampler.sample(rng);
                let vi = value_sampler.sample(rng);
                let spot = rng.gen_bool(spec.spot_check_rate);
                let next = vt + think_time(rng, spec.think_us);
                let table = &tables[ti];
                let name = format!("t{ti}");
                let label = table.spec.dim_label(di, vi);
                let dim = format!("d{di}");
                trace.push(format!(
                    "vt={vt} analyst={i} query table={name} filter={dim}={label} spot={spot}"
                ));
                let analyst =
                    AnalystQuery::new(&name, Some(memdb::Expr::col(&dim).eq(label.as_str())));
                let (result, ns) = timed(|| service.recommend(&analyst));
                queries += 1;
                recommend_ns.push(ns);
                window_ns.push(ns);
                // SLO-breach injection: plant a fixed over-bound latency
                // sample into the shared `service.recommend_ns` histogram
                // (the cell the watchdog's p99 rule reads). Virtual-time
                // driven and single-threaded, so the tripped breach — and
                // its flight-recorder dump — replays byte-identically.
                if spec.slo_inject_ns > 0 {
                    service
                        .obs()
                        .registry()
                        .register_histogram("service.recommend_ns")
                        .record(spec.slo_inject_ns);
                }
                match result {
                    Ok(rec) => {
                        if spot {
                            // Cold recompute: a fresh engine over the same
                            // database, bypassing the cache entirely.
                            let cold_engine = SeeDb::new(
                                service.database().clone(),
                                service.config().seedb.clone(),
                            );
                            match cold_engine.recommend(&analyst) {
                                Ok(cold) => checker.spot_check(
                                    vt,
                                    &format!("{name} WHERE {dim} = {label}"),
                                    &digest(&rec),
                                    &digest(&cold),
                                ),
                                Err(e) => checker.query_error(
                                    vt,
                                    &format!("cold recompute {name}"),
                                    &e.to_string(),
                                ),
                            }
                        }
                    }
                    Err(e) => checker.query_error(
                        vt,
                        &format!("recommend {name} WHERE {dim} = {label}"),
                        &e.to_string(),
                    ),
                }
                queue.push(next, Event::Analyst(i));
            }
            Event::Ingest => {
                let ti = table_sampler.sample(&mut ingest_rng);
                let name = format!("t{ti}");
                // Measure means drift with virtual time so appended rows
                // actually pull cached aggregates stale.
                let mean = 100.0 + spec.drift_per_vsec * (vt as f64 / 1e6);
                let rows: Vec<Vec<Value>> = (0..spec.ingest_batch)
                    .map(|_| {
                        let mut row: Vec<Value> = (0..spec.dims)
                            .map(|d| {
                                let v = value_sampler.sample(&mut ingest_rng);
                                Value::Str(tables[ti].spec.dim_label(d, v))
                            })
                            .collect();
                        for _ in 0..spec.measures {
                            let jitter: f64 = ingest_rng.gen();
                            row.push(Value::Float(mean + (jitter - 0.5) * 10.0));
                        }
                        row
                    })
                    .collect();
                trace.push(format!(
                    "vt={vt} ingest table={name} rows={} mean={mean:.3}",
                    rows.len()
                ));
                let batch = rows.len();
                let (result, ns) = timed(|| service.append_rows(&name, rows));
                append_ns.push(ns);
                match result {
                    Ok(t) => {
                        appends += 1;
                        appended_rows += batch as u64;
                        tables[ti].acked_rows = t.num_rows();
                        tables[ti].acked_version = t.version();
                    }
                    Err(e) => checker.query_error(vt, &format!("append {name}"), &e.to_string()),
                }
                queue.push(vt + spec.ingest_interval_us, Event::Ingest);
            }
            Event::Reregister => {
                rereg_count += 1;
                let ti = (rereg_count as usize - 1) % spec.tables;
                let name = format!("t{ti}");
                let fresh = table_spec(spec, ti, rereg_count);
                trace.push(format!(
                    "vt={vt} reregister table={name} generation={rereg_count}"
                ));
                let t = service.database().register(fresh.generate());
                reregisters += 1;
                tables[ti] = TableState {
                    spec: fresh,
                    acked_rows: t.num_rows(),
                    acked_version: t.version(),
                };
                queue.push(vt + spec.reregister_interval_us, Event::Reregister);
            }
            Event::Crash => {
                crash_count += 1;
                let torn = crash_count.is_multiple_of(2);
                trace.push(format!(
                    "vt={vt} crash flavor={}",
                    if torn { "torn" } else { "clean" }
                ));
                if torn {
                    crashes_torn += 1;
                    // Hard crash: tear the WAL tail (a half-written frame
                    // that was never acknowledged), then drop every handle
                    // with no checkpoint — recovery must truncate the tear
                    // and keep every acked batch.
                    if let Err(e) = service.database().inject_torn_wal_tail() {
                        checker.query_error(vt, "inject torn WAL tail", &e.to_string());
                    }
                } else {
                    crashes_clean += 1;
                    // Clean restart: checkpoint + spill the warm plan set,
                    // then drop — recovery warm-starts the cache.
                    if let Err(e) = service.persist(dir) {
                        checker.query_error(vt, "persist before clean restart", &e.to_string());
                    }
                }
                totals.bank(&service);
                incarnations.push(service.metrics().to_json());
                drop(service);
                match Service::open_with_obs(
                    dir,
                    cfg.clone(),
                    durability(spec),
                    Obs::with_clock(obs_clock.clone()),
                ) {
                    Ok(recovered) => {
                        service = recovered;
                        for (ti, state) in tables.iter().enumerate() {
                            let name = format!("t{ti}");
                            let found = service
                                .database()
                                .table(&name)
                                .ok()
                                .map(|t| (t.num_rows(), t.version()));
                            checker.crash_check(
                                vt,
                                &name,
                                state.acked_rows,
                                state.acked_version,
                                found,
                            );
                        }
                    }
                    Err(e) => {
                        // Unrecoverable store: every acked table is lost.
                        checker.query_error(vt, "recover after crash", &e.to_string());
                        for (ti, state) in tables.iter().enumerate() {
                            checker.crash_check(
                                vt,
                                &format!("t{ti}"),
                                state.acked_rows,
                                state.acked_version,
                                None,
                            );
                        }
                        return finish(spec, run_sw, trace, checker, totals, None, incarnations);
                    }
                }
                queue.push(vt + spec.crash_interval_us, Event::Crash);
            }
            Event::Check => {
                let stats = service.cache_stats();
                checker.sweep(
                    vt,
                    totals.hits + stats.hits,
                    totals.misses + stats.misses,
                    &window_ns,
                );
                window_ns.clear();
                queue.push(vt + spec.check_interval_us, Event::Check);
            }
        }
    }

    totals.bank(&service);
    incarnations.push(service.metrics().to_json());
    let mut outcome = finish(
        spec,
        run_sw,
        trace,
        checker,
        totals,
        Some(clock.now_us()),
        incarnations,
    );
    outcome.report.queries = queries;
    outcome.report.appends = appends;
    outcome.report.appended_rows = appended_rows;
    outcome.report.reregisters = reregisters;
    outcome.report.crashes_clean = crashes_clean;
    outcome.report.crashes_torn = crashes_torn;
    outcome.report.recommend = LatencySummary::from_samples(&recommend_ns);
    outcome.report.append = LatencySummary::from_samples(&append_ns);
    outcome
}

/// Assemble the report skeleton shared by normal and aborted exits.
fn finish(
    spec: &SoakSpec,
    run_sw: Stopwatch,
    trace: Trace,
    checker: InvariantChecker,
    totals: RunningTotals,
    reached_vt: Option<u64>,
    incarnations: Vec<String>,
) -> SoakOutcome {
    let report = SoakReport {
        seed: spec.seed,
        virtual_us: reached_vt.unwrap_or(0),
        wall_ns: run_sw.elapsed_ns(),
        checks: checker.checks_performed(),
        hits: totals.hits,
        misses: totals.misses,
        refreshes: totals.refreshes,
        refresh_fallbacks: totals.refresh_fallbacks,
        table_scans: totals.table_scans,
        rows_scanned: totals.rows_scanned,
        telemetry_windows: totals.telemetry_windows,
        telemetry_breaches: totals.telemetry_breaches,
        violations: checker.violations().to_vec(),
        trace_digest: trace.digest(),
        ..SoakReport::default()
    };
    SoakOutcome {
        report,
        trace,
        obs_json: obs_report(&incarnations),
    }
}

/// Render the per-incarnation metrics snapshots as one JSON object. The
/// snapshots are already sorted-key JSON; this keys them by recovery
/// epoch so no incarnation's telemetry is lost to a crash.
fn obs_report(incarnations: &[String]) -> String {
    let body: Vec<String> = incarnations
        .iter()
        .map(|snap| snap.trim_end().to_string())
        .collect();
    if body.is_empty() {
        "{\n  \"incarnations\": []\n}\n".to_string()
    } else {
        format!("{{\n  \"incarnations\": [\n{}\n]\n}}\n", body.join(",\n"))
    }
}
