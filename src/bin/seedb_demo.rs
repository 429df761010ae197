//! The SeeDB demo, in the terminal (paper §4, "Demo Walkthrough").
//!
//! Loads one of the four demo datasets, issues the suggested analyst
//! query (or yours), prints the recommended visualizations, and accepts
//! interactive commands to change knobs, drill down, and roll up —
//! Scenario 1 and Scenario 2 in one binary.
//!
//! ```sh
//! cargo run --release --bin seedb_demo -- --dataset election
//! cargo run --release --bin seedb_demo -- --dataset synthetic --rows 100000 --interactive
//! ```
//!
//! Interactive commands:
//! * any `SELECT * FROM <table> WHERE ...` — run a new analyst query
//! * `:k <n>` / `:metric <name>` / `:basic on|off` / `:sample <frac|off>`
//! * `:strategy sequential|parallel|phased|phased-parallel` — pick the
//!   execution strategy (§3.3 parallelism × early termination)
//! * `:workers <n>` — worker count for the current strategy
//! * `:sessions <n>` — replay the current query from `n` concurrent
//!   analyst sessions through the serving layer (shared
//!   partial-aggregate cache + scan batching + incremental refresh)
//!   and print cache stats; the service persists across `:sessions`
//!   and `:append` so refreshes are observable
//! * `:append <table> <n>` — live-ingest `n` synthetic delta rows
//!   (regenerated from the dataset's own generator) into `table`;
//!   cached partial aggregates refresh incrementally per the serving
//!   policy instead of recomputing, and the line reports whether the
//!   batch was WAL-logged (durable) or in-memory only
//! * `:save <dir>` — persist the database (segment files + manifest +
//!   WAL) into `dir` and keep serving durably from it; spills the
//!   cached plan set for warm restarts
//! * `:open <dir>` — replace the session's database with the one saved
//!   in `dir` (crash recovery included: the WAL tail is replayed) and
//!   warm-start the serving cache from the spilled plan set
//! * `:metrics` — dump the serving layer's full metrics snapshot
//!   (`service.*` cache/latency, `exec.*` scan work, `store.*` WAL and
//!   checkpoint activity) as sorted JSON
//! * `:watch <n>` — live telemetry dashboard: replay the current query
//!   once per sampling window for `n` windows and print each window's
//!   deltas (qps, recommend p50/p99, cache hit rate, WAL bytes pending)
//! * `:health` — the watchdog's verdict (HEALTHY/DEGRADED plus the
//!   retained breach log) and the active rule catalog
//! * `:explain [cold]` — EXPLAIN ANALYZE the current query through the
//!   serving layer: per-operator rows scanned/matched, partition
//!   fan-out, merge time, and cache probe outcome, reconciled against
//!   the `exec.*` cost counters; `cold` clears the cache first
//! * `:trace on|off` — toggle per-request trace recording; `on` replays
//!   the current query cold through one session and prints its span
//!   tree (recommend → optimize → execute → per-partition
//!   `execute_partial` → merge) with durations and attributes
//! * `:drill <view#> <label>` — narrow to one group of a recommended view
//! * `:up` — undo the last drill-down
//! * `:quit`

use std::io::{BufRead, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seedb::core::{
    default_workers, drill_down, roll_up, AnalystQuery, ExecutionStrategy, Metric, SeeDb,
    SeeDbConfig, Service, ServiceConfig,
};
use seedb::memdb::{Database, SampleSpec};
use seedb::viz::Frontend;

struct Args {
    dataset: String,
    rows: usize,
    seed: u64,
    k: usize,
    metric: Metric,
    basic: bool,
    sample: Option<f64>,
    interactive: bool,
    query: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dataset: "store_orders".to_string(),
        rows: 20_000,
        seed: 42,
        k: 5,
        metric: Metric::EarthMovers,
        basic: false,
        sample: None,
        interactive: false,
        query: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--dataset" => args.dataset = value("--dataset")?,
            "--rows" => {
                args.rows = value("--rows")?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--k" => {
                args.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?
            }
            "--metric" => {
                let name = value("--metric")?;
                args.metric = Metric::parse(&name)
                    .ok_or_else(|| format!("unknown metric {name}"))?;
            }
            "--basic" => args.basic = true,
            "--sample" => {
                args.sample = Some(
                    value("--sample")?
                        .parse()
                        .map_err(|e| format!("--sample: {e}"))?,
                )
            }
            "--interactive" | "-i" => args.interactive = true,
            "--query" => args.query = Some(value("--query")?),
            "--help" | "-h" => {
                return Err("usage: seedb_demo [--dataset store_orders|election|medical|synthetic] \
                            [--rows N] [--seed S] [--k K] [--metric emd|euclidean|l1|kl|js|chi2|hellinger|tv] \
                            [--basic] [--sample FRAC] [--query SQL] [--interactive]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn load(dataset: &str, rows: usize, seed: u64) -> Result<(Arc<Database>, String), String> {
    let db = Arc::new(Database::new());
    let (table, query) = match dataset {
        "store_orders" => {
            let d = seedb::data::store_orders(rows, seed);
            (d.table, d.query_sql)
        }
        "election" => {
            let d = seedb::data::election_contributions(rows, seed);
            (d.table, d.query_sql)
        }
        "medical" => {
            let d = seedb::data::medical(rows, seed);
            (d.table, d.query_sql)
        }
        "synthetic" => {
            let spec = seedb::data::SyntheticSpec::knobs(rows, 8, 10, 1.0, 3, seed).with_plant(
                seedb::data::Plant {
                    subset_dim: 0,
                    subset_value: 0,
                    deviating_dims: vec![1, 2],
                    deviating_measures: vec![(0, 30.0)],
                },
            );
            let sql = format!(
                "SELECT * FROM synthetic WHERE {}",
                spec.subset_filter()
                    .expect("plant defines a filter")
                    .to_sql()
            );
            (spec.generate(), sql)
        }
        other => return Err(format!("unknown dataset {other}")),
    };
    db.register(table);
    Ok((db, query))
}

fn build_config(args: &Args) -> SeeDbConfig {
    let mut cfg = if args.basic {
        SeeDbConfig::basic()
    } else {
        SeeDbConfig::recommended()
    };
    cfg = cfg.with_k(args.k).with_metric(args.metric);
    cfg.low_utility_views = 2;
    if let Some(f) = args.sample {
        cfg.optimizer.sample = Some(SampleSpec::Bernoulli {
            fraction: f,
            seed: 1,
        });
    }
    cfg
}

fn run_and_print(frontend: &Frontend, query: &AnalystQuery) -> Option<seedb::viz::FrontendOutput> {
    match frontend.issue(query) {
        Ok(out) => {
            println!("{}", out.render_text());
            for (i, e) in &out.recommendation.errors {
                eprintln!("error: query {i}: {e}");
            }
            let early = if out.recommendation.early_pruned.is_empty() {
                String::new()
            } else {
                format!(
                    " (+{} pruned mid-run)",
                    out.recommendation.early_pruned.len()
                )
            };
            println!(
                "[{} candidates, {} pruned{early}, {} queries, {:.1?}]",
                out.recommendation.num_candidates,
                out.recommendation.pruned.len(),
                out.recommendation.num_queries,
                out.recommendation.timings.total()
            );
            Some(out)
        }
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    }
}

/// Get (or lazily create) the persistent serving layer over the demo's
/// database. Persisting it across `:sessions` and `:append` is what
/// makes incremental cache maintenance observable: an `:append` after a
/// warm `:sessions` refreshes the residents instead of recomputing.
/// Config-changing commands drop it (`serving = None`) so it is rebuilt
/// with the current pipeline configuration.
fn serving_service(frontend: &Frontend, serving: &mut Option<Service>) -> Service {
    if let Some(s) = serving.as_ref() {
        return s.clone();
    }
    let engine = frontend.engine();
    // A long-lived service accumulates its own workload log; with the
    // demo replaying one query many times, access-frequency pruning
    // would eventually prune every view (nothing else is ever
    // accessed). Disable it so rounds stay comparable.
    let mut cfg = engine.config().clone();
    cfg.pruning.access_frequency = false;
    let service = Service::new(
        engine.database().clone(),
        ServiceConfig::recommended()
            .with_seedb(cfg)
            .with_batch_window(Duration::from_millis(5)),
    );
    *serving = Some(service.clone());
    service
}

/// Synthetic delta rows for `:append`: regenerate `n` rows from the
/// dataset's own generator (fresh seed per call) and lift them out —
/// schema-identical live-ingest traffic.
fn delta_rows(dataset: &str, n: usize, seed: u64) -> Result<Vec<Vec<seedb::memdb::Value>>, String> {
    let table = match dataset {
        "store_orders" => seedb::data::store_orders(n, seed).table,
        "election" => seedb::data::election_contributions(n, seed).table,
        "medical" => seedb::data::medical(n, seed).table,
        "synthetic" => seedb::data::SyntheticSpec::knobs(n, 8, 10, 1.0, 3, seed)
            .with_plant(seedb::data::Plant {
                subset_dim: 0,
                subset_value: 0,
                deviating_dims: vec![1, 2],
                deviating_measures: vec![(0, 30.0)],
            })
            .generate(),
        other => return Err(format!("unknown dataset {other}")),
    };
    Ok((0..table.num_rows()).map(|i| table.row(i)).collect())
}

/// Print the durable-store summary after `:save` / `:open`: tables with
/// versions and segment-file counts, plus the WAL backlog.
fn print_store_summary(db: &seedb::memdb::Database) {
    let Some(s) = db.durability_summary() else {
        println!("not durable (in-memory only)");
        return;
    };
    println!("store: {}", s.dir.display());
    for (name, version, rows, files) in &s.tables {
        println!("  table {name}: version {version}, {rows} rows, {files} segment file(s)");
    }
    println!(
        "  {} segment file(s) total | WAL: {} record(s), {} byte(s) pending checkpoint",
        s.segment_files, s.wal_records, s.wal_bytes
    );
    if let Some(w) = &s.wedged {
        println!("  WARNING: store wedged ({w}) — re-run :save to recover");
    }
    if let Some(e) = &s.last_checkpoint_error {
        println!("  WARNING: last checkpoint failed ({e}); retrying at next threshold");
    }
}

/// `:append <table> <n>` — live-ingest through the persistent service
/// so cached partial-aggregate states are maintained incrementally.
fn run_append(service: &Service, dataset: &str, table: &str, n: usize, seed: u64) {
    let rows = match delta_rows(dataset, n, seed) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("{e}");
            return;
        }
    };
    let before = service.cache_stats();
    match service.append_rows(table, rows) {
        Ok(t) => {
            println!(
                "appended {n} rows to {table}: {} rows, version {}, {} segments",
                t.num_rows(),
                t.version(),
                t.num_segments()
            );
            let s = service.cache_stats();
            let refreshed = s.refreshes - before.refreshes;
            if refreshed > 0 || s.refresh_fallbacks > before.refresh_fallbacks {
                println!(
                    "  cache: {refreshed} states refreshed eagerly ({} delta rows), {} fallbacks",
                    s.refresh_rows - before.refresh_rows,
                    s.refresh_fallbacks - before.refresh_fallbacks,
                );
            }
            match service.database().durability_summary() {
                Some(d) => println!(
                    "  WAL-logged ✔ ({} record(s), {} byte(s) pending checkpoint)",
                    d.wal_records, d.wal_bytes
                ),
                None => {
                    println!("  not WAL-logged (in-memory only; :save <dir> enables durability)")
                }
            }
        }
        Err(e) => eprintln!("append failed: {e}"),
    }
}

/// `:sessions n` — replay the current analyst query from `n` concurrent
/// sessions through the persistent [`Service`], twice: a first round
/// (misses/batched scans or — after an `:append` — incremental
/// refreshes) and a repeat round (cache hits, zero scans). Prints
/// per-round wall time, DBMS cost deltas, and cache stats including
/// incremental-refresh work (delta rows scanned vs full recomputes
/// avoided), and checks every session got the identical top-k.
fn run_sessions(service: &Service, query: &AnalystQuery, n: usize) {
    let db = service.database().clone();
    println!("serving layer: {n} concurrent sessions × 2 rounds");
    for round in ["first", "repeat"] {
        let stats_before = service.cache_stats();
        let cost_before = db.cost();
        let t0 = Instant::now();
        let mut top_ks: Vec<Vec<String>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let session = service.session();
                    s.spawn(move || {
                        session
                            .recommend(query)
                            .map(|rec| rec.views.iter().map(|v| v.spec.label()).collect::<Vec<_>>())
                    })
                })
                .collect();
            for h in handles {
                match h.join().expect("session thread panicked") {
                    Ok(top) => top_ks.push(top),
                    Err(e) => eprintln!("session error: {e}"),
                }
            }
        });
        let elapsed = t0.elapsed();
        let cost = db.cost().since(&cost_before);
        let s = service.cache_stats();
        println!(
            "round {round}: {elapsed:>8.1?}  scans {} rows {} | cache hits {} misses {} \
             batched-scans {} (serving {} plans) evictions {}",
            cost.table_scans,
            cost.rows_scanned,
            s.hits - stats_before.hits,
            s.misses - stats_before.misses,
            s.batch_scans - stats_before.batch_scans,
            s.batched_plans - stats_before.batched_plans,
            s.evictions - stats_before.evictions,
        );
        let refreshed = s.refreshes - stats_before.refreshes;
        if refreshed > 0 {
            println!(
                "  incremental refresh: {refreshed} states via {} delta rows \
                 ({} full recomputes avoided), {} fallbacks",
                s.refresh_rows - stats_before.refresh_rows,
                refreshed,
                s.refresh_fallbacks - stats_before.refresh_fallbacks,
            );
        }
        if top_ks.len() == n && top_ks.iter().all(|t| *t == top_ks[0]) {
            println!("  all {n} sessions agree on the top-k ✔");
        } else {
            eprintln!("  WARNING: sessions disagree or failed");
        }
    }
    let s = service.cache_stats();
    println!(
        "cache: {} states resident, hit rate {:.0}%",
        service.cache_len(),
        s.hit_rate() * 100.0
    );
}

/// `:watch <n>` — the live telemetry dashboard. Replays the current
/// query once per sampling window (so the table shows real traffic even
/// with no other sessions running), closes a window, and prints its
/// deltas: qps, windowed recommend p50/p99, cache hit rate, and WAL
/// bytes pending.
fn run_watch(service: &Service, query: &AnalystQuery, n: usize) {
    let interval = service
        .telemetry_interval()
        .unwrap_or(Duration::from_secs(1))
        .min(Duration::from_secs(1));
    println!(
        "{:>9}  {:>7}  {:>9}  {:>9}  {:>8}  {:>11}",
        "window_s", "qps", "p50_ms", "p99_ms", "hit_rate", "wal_pending"
    );
    let session = service.session();
    for _ in 0..n {
        let tick = Instant::now();
        if let Err(e) = session.recommend(query) {
            eprintln!("watch request failed: {e}");
            return;
        }
        if let Some(rest) = interval.checked_sub(tick.elapsed()) {
            std::thread::sleep(rest);
        }
        let Some(w) = service.sample_window() else {
            eprintln!("telemetry is disabled in the serving config");
            return;
        };
        let secs = w.duration_ns() as f64 / 1e9;
        let served = w
            .histograms
            .get("service.recommend_ns")
            .map_or(0, |h| h.count);
        let qps = if secs > 0.0 {
            served as f64 / secs
        } else {
            0.0
        };
        let hit_rate = w
            .ratio("service.cache.hits", "service.cache.misses")
            .map_or_else(|| "-".to_string(), |r| format!("{r:.2}"));
        println!(
            "{:>9.2}  {:>7.2}  {:>9.3}  {:>9.3}  {:>8}  {:>11}",
            w.end_ns as f64 / 1e9,
            qps,
            w.percentile("service.recommend_ns", 0.50) as f64 / 1e6,
            w.percentile("service.recommend_ns", 0.99) as f64 / 1e6,
            hit_rate,
            w.gauge("store.wal.bytes_pending"),
        );
    }
    let health = service.health();
    if !health.healthy {
        println!("note: watchdog is DEGRADED — see :health");
    }
}

/// `:health` — watchdog verdict, retained breach log, and the active
/// rule catalog.
fn print_health(service: &Service) {
    print!("{}", service.health().render());
    let rules = service.watchdog_rules();
    if rules.is_empty() {
        println!("telemetry disabled: no watchdog rules active");
    } else {
        println!("watchdog rules:");
        for rule in &rules {
            println!("  {rule}");
        }
    }
}

/// Printed whenever sampling and a phased strategy are configured
/// together: phased execution is exact and ignores the sample.
fn warn_sample_ignored(cfg: &SeeDbConfig) {
    if cfg.optimizer.sample.is_some() && cfg.execution.phased.is_some() {
        println!(
            "note: phased strategies are exact and ignore :sample \
             (sampling stays configured for the batch strategies)"
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let (db, suggested) = match load(&args.dataset, args.rows, args.seed) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut frontend = Frontend::new(SeeDb::new(db, build_config(&args)));

    let first_sql = args.query.clone().unwrap_or(suggested);
    println!(
        "dataset: {} ({} rows)\nquery:   {first_sql}\n",
        args.dataset, args.rows
    );
    let mut current = match AnalystQuery::from_sql(&first_sql) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("bad query: {e}");
            std::process::exit(2);
        }
    };
    let mut last = run_and_print(&frontend, &current);

    if !args.interactive {
        return;
    }

    // The persistent serving layer behind `:sessions` / `:append`
    // (rebuilt lazily after config changes) and the rolling seed for
    // synthetic delta batches.
    let mut serving: Option<Service> = None;
    let mut append_seed = args.seed.wrapping_add(0x5eed);

    let stdin = std::io::stdin();
    loop {
        print!("seedb> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(':') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("quit") | Some("q") => break,
                Some("k") => {
                    if let Some(Ok(k)) = parts.next().map(str::parse) {
                        frontend.engine_mut().config_mut().k = k;
                        serving = None;
                        last = run_and_print(&frontend, &current);
                    } else {
                        eprintln!("usage: :k <n>");
                    }
                }
                Some("metric") => match parts.next().and_then(Metric::parse) {
                    Some(m) => {
                        frontend.engine_mut().config_mut().metric = m;
                        serving = None;
                        last = run_and_print(&frontend, &current);
                    }
                    None => eprintln!("metrics: emd euclidean l1 kl js chi2 hellinger tv"),
                },
                Some("basic") => {
                    let on = parts.next() == Some("on");
                    let cfg = frontend.engine_mut().config_mut();
                    if on {
                        cfg.optimizer = seedb::core::OptimizerConfig::basic();
                        cfg.pruning = seedb::core::PruningConfig::disabled();
                    } else {
                        cfg.optimizer = seedb::core::OptimizerConfig::all_optimizations();
                        cfg.pruning = seedb::core::PruningConfig::aggressive();
                    }
                    serving = None;
                    last = run_and_print(&frontend, &current);
                }
                Some("strategy") => {
                    let cfg = frontend.engine_mut().config_mut();
                    match parts
                        .next()
                        .map(|n| ExecutionStrategy::parse(n, default_workers()))
                    {
                        Some(Some(strategy)) => {
                            println!("strategy: {strategy}");
                            cfg.execution = strategy;
                            warn_sample_ignored(cfg);
                            serving = None;
                            last = run_and_print(&frontend, &current);
                        }
                        _ => eprintln!(
                            "usage: :strategy sequential|parallel|phased|phased-parallel \
                             (current: {})",
                            cfg.execution
                        ),
                    }
                }
                Some("workers") => {
                    let cfg = frontend.engine_mut().config_mut();
                    match parts.next().map(str::parse::<usize>) {
                        Some(Ok(n)) if n >= 1 => {
                            cfg.execution = cfg.execution.clone().with_workers(n);
                            println!("strategy: {}", cfg.execution);
                            serving = None;
                            last = run_and_print(&frontend, &current);
                        }
                        _ => eprintln!("usage: :workers <n ≥ 1> (current: {})", cfg.execution),
                    }
                }
                Some("sessions") => match parts.next().map(str::parse::<usize>) {
                    Some(Ok(n)) if (1..=64).contains(&n) => {
                        let service = serving_service(&frontend, &mut serving);
                        run_sessions(&service, &current, n);
                    }
                    _ => eprintln!("usage: :sessions <1..=64>"),
                },
                Some("append") => {
                    let table = parts.next().map(str::to_string);
                    let n = parts.next().and_then(|s| s.parse::<usize>().ok());
                    match (table, n) {
                        (Some(table), Some(n)) if n >= 1 => {
                            let service = serving_service(&frontend, &mut serving);
                            run_append(&service, &args.dataset, &table, n, append_seed);
                            append_seed = append_seed.wrapping_add(1);
                        }
                        _ => eprintln!("usage: :append <table> <n ≥ 1>"),
                    }
                }
                Some("save") => match parts.next() {
                    Some(dir) => {
                        let service = serving_service(&frontend, &mut serving);
                        match service.persist(dir) {
                            Ok(()) => {
                                println!(
                                    "saved ({} cached plan(s) spilled for warm restart)",
                                    service.cache_len()
                                );
                                print_store_summary(service.database());
                            }
                            Err(e) => eprintln!("save failed: {e}"),
                        }
                    }
                    None => eprintln!("usage: :save <dir>"),
                },
                Some("open") => match parts.next() {
                    Some(dir) => {
                        // Open with the session's current pipeline
                        // config (mirrors `serving_service`).
                        let mut cfg = frontend.engine().config().clone();
                        cfg.pruning.access_frequency = false;
                        let service_cfg = ServiceConfig::recommended()
                            .with_seedb(cfg.clone())
                            .with_batch_window(Duration::from_millis(5));
                        match Service::open(dir, service_cfg) {
                            Ok(service) => {
                                println!(
                                    "opened ({} state(s) warm in the cache)",
                                    service.cache_len()
                                );
                                print_store_summary(service.database());
                                frontend =
                                    Frontend::new(SeeDb::new(service.database().clone(), cfg));
                                serving = Some(service);
                                last = run_and_print(&frontend, &current);
                            }
                            Err(e) => eprintln!("open failed: {e}"),
                        }
                    }
                    None => eprintln!("usage: :open <dir>"),
                },
                Some("sample") => {
                    let cfg = frontend.engine_mut().config_mut();
                    match parts.next() {
                        Some("off") => cfg.optimizer.sample = None,
                        Some(f) => match f.parse::<f64>() {
                            Ok(frac) => {
                                cfg.optimizer.sample = Some(SampleSpec::Bernoulli {
                                    fraction: frac,
                                    seed: 1,
                                })
                            }
                            Err(e) => {
                                eprintln!("bad fraction: {e}");
                                continue;
                            }
                        },
                        None => {
                            eprintln!("usage: :sample <fraction|off>");
                            continue;
                        }
                    }
                    warn_sample_ignored(cfg);
                    serving = None;
                    last = run_and_print(&frontend, &current);
                }
                Some("metrics") => {
                    let service = serving_service(&frontend, &mut serving);
                    print!("{}", service.metrics().to_json());
                }
                Some("watch") => match parts.next().map(str::parse::<usize>) {
                    Some(Ok(n)) if (1..=120).contains(&n) => {
                        let service = serving_service(&frontend, &mut serving);
                        run_watch(&service, &current, n);
                    }
                    _ => eprintln!("usage: :watch <1..=120 windows>"),
                },
                Some("health") => {
                    let service = serving_service(&frontend, &mut serving);
                    print_health(&service);
                }
                Some("explain") => {
                    let cold = match parts.next() {
                        Some("cold") => true,
                        None => false,
                        Some(_) => {
                            eprintln!("usage: :explain [cold]");
                            continue;
                        }
                    };
                    let service = serving_service(&frontend, &mut serving);
                    if cold {
                        service.clear_cache();
                    }
                    match service.recommend_explained(&current) {
                        Ok((_, report)) => print!("{}", report.render()),
                        Err(e) => eprintln!("explain failed: {e}"),
                    }
                }
                Some("trace") => match parts.next() {
                    Some("on") => {
                        let service = serving_service(&frontend, &mut serving);
                        service.set_trace_enabled(true);
                        // Replay the current query cold so the tree
                        // shows the full pipeline, scans included.
                        service.clear_cache();
                        let session = service.session();
                        match session.recommend(&current) {
                            Ok(_) => match session.last_trace() {
                                Some(trace) => {
                                    println!("tracing on; cold request span tree:");
                                    print!("{}", trace.render());
                                }
                                None => println!("tracing on (no trace recorded)"),
                            },
                            Err(e) => eprintln!("traced request failed: {e}"),
                        }
                    }
                    Some("off") => {
                        let service = serving_service(&frontend, &mut serving);
                        service.set_trace_enabled(false);
                        println!("tracing off");
                    }
                    _ => eprintln!("usage: :trace on|off"),
                },
                Some("drill") => {
                    let idx: Option<usize> = parts.next().and_then(|s| s.parse().ok());
                    let label: Vec<&str> = parts.collect();
                    match (idx, &last) {
                        (Some(i), Some(out)) if i >= 1 && i <= out.recommendation.views.len() => {
                            let view = &out.recommendation.views[i - 1];
                            let next = drill_down(&current, &view.spec, &label.join(" "));
                            println!("drilled: {}", next.to_sql());
                            current = next;
                            last = run_and_print(&frontend, &current);
                        }
                        _ => eprintln!("usage: :drill <view#> <group label>"),
                    }
                }
                Some("up") => match roll_up(&current) {
                    Ok(q) => {
                        println!("rolled up: {}", q.to_sql());
                        current = q;
                        last = run_and_print(&frontend, &current);
                    }
                    Err(e) => eprintln!("{e}"),
                },
                _ => eprintln!(
                    "commands: :k :metric :basic :sample :strategy :workers :sessions :append \
                     :save :open :metrics :watch :health :explain :trace :drill :up :quit"
                ),
            }
            continue;
        }
        // A SQL query.
        match AnalystQuery::from_sql(line) {
            Ok(q) => {
                current = q;
                last = run_and_print(&frontend, &current);
            }
            Err(e) => eprintln!("parse error: {e}"),
        }
    }
}
