//! The SeeDB experiment harness: regenerates every table/figure/claim of
//! the paper as terminal tables; each section's header quotes the paper
//! claim it reproduces.
//!
//! ```sh
//! cargo run --release -p seedb-bench --bin experiments          # all
//! cargo run --release -p seedb-bench --bin experiments -- s2e   # one
//! ```

use std::sync::Arc;
use std::time::Instant;

use memdb::{Database, SampleSpec};
use seedb_bench::{jaccard, recall, workload};
use seedb_core::{view_space_size, FunctionSet};
use seedb_core::{
    AnalystQuery, GroupByCombining, Metric, PruningConfig, SeeDb, SeeDbConfig, ViewResult,
};
use seedb_data::{Categorical, DimSpec, Plant, SyntheticSpec};

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| filter.is_empty() || filter.iter().any(|f| f == id);

    println!("SeeDB reproduction — experiment harness");
    println!("=======================================\n");

    if want("c1") {
        exp_c1_view_space_growth();
    }
    if want("s1") {
        exp_s1_utility();
    }
    if want("s2a") {
        exp_s2a_latency_sweep();
    }
    if want("s2b") {
        exp_s2b_combine_target_comparison();
    }
    if want("s2c") {
        exp_s2c_combine_aggregates();
    }
    if want("s2d") {
        exp_s2d_combine_groupbys();
    }
    if want("s2e") {
        exp_s2e_sampling();
    }
    if want("s2f") {
        exp_s2f_parallelism();
    }
    if want("s2g") {
        exp_s2g_pruning();
    }
    if want("e1") {
        exp_e1_phased();
    }
    if want("e2") {
        exp_e2_packing();
    }
}

fn header(id: &str, title: &str, claim: &str) {
    println!("--- {id}: {title}");
    println!("    paper: {claim}\n");
}

fn top_labels(views: &[ViewResult], k: usize) -> Vec<String> {
    views.iter().take(k).map(|v| v.spec.label()).collect()
}

fn top_dims(views: &[ViewResult], k: usize) -> Vec<String> {
    let mut dims = Vec::new();
    for v in views.iter() {
        if !dims.contains(&v.spec.dimension) {
            dims.push(v.spec.dimension.clone());
        }
        if dims.len() >= k {
            break;
        }
    }
    dims
}

/// C1 — §1(b): candidate views grow quadratically with attribute count.
fn exp_c1_view_space_growth() {
    header(
        "C1",
        "view-space growth",
        "\"the number of candidate views increases as the square of the number of attributes\"",
    );
    println!(
        "{:>12} {:>16} {:>10}",
        "attributes", "candidate views", "ratio"
    );
    let funcs = FunctionSet::standard();
    let mut prev = 0usize;
    for attrs in [10usize, 20, 40, 80, 160] {
        let views = view_space_size(attrs / 2, attrs - attrs / 2, &funcs);
        let ratio = if prev > 0 {
            format!("{:.2}x", views as f64 / prev as f64)
        } else {
            "-".to_string()
        };
        println!("{attrs:>12} {views:>16} {ratio:>10}");
        prev = views;
    }
    println!("    (doubling attributes ~quadruples views: quadratic)\n");
}

/// S1 — Scenario 1: utility. SeeDB recovers planted trends across the
/// three demo datasets and all metrics; low-utility views stay boring.
fn exp_s1_utility() {
    header(
        "S1",
        "utility (Scenario 1)",
        "\"demonstrate the utility of SEEDB in surfacing interesting trends for a query\"; \
         attendees can vary the distance metric",
    );

    let datasets: Vec<(&str, seedb_data::Dataset)> = vec![
        ("store_orders", seedb_data::store_orders(30_000, 42)),
        ("election", seedb_data::election_contributions(30_000, 42)),
        ("medical", seedb_data::medical(30_000, 42)),
    ];

    println!(
        "{:<14} {:<10} {:>9} {:>9}  top dimensions",
        "dataset", "metric", "recall@4", "top util"
    );
    for (name, data) in datasets {
        let db = Arc::new(Database::new());
        let truth = data.ground_truth.clone();
        let sql = data.query_sql.clone();
        db.register(data.table);
        for metric in Metric::all() {
            let mut cfg = SeeDbConfig::recommended().with_metric(metric).with_k(8);
            cfg.low_utility_views = 3;
            let seedb = SeeDb::new(db.clone(), cfg);
            let rec = seedb.recommend_sql(&sql).expect("demo query runs");
            let dims = top_dims(&rec.all, 4);
            let r = recall(&truth, &dims);
            println!(
                "{name:<14} {:<10} {r:>9.2} {:>9.3}  {}",
                metric.name(),
                rec.views.first().map(|v| v.utility).unwrap_or(0.0),
                dims.join(", ")
            );
            // Contrast: worst views score far below the best.
            if metric == Metric::EarthMovers {
                let worst = rec.low_utility.first().map(|v| v.utility).unwrap_or(0.0);
                let best = rec.views.first().map(|v| v.utility).unwrap_or(0.0);
                println!(
                    "{:<14} {:<10} {:>9} {:>9}  low-utility contrast: worst {:.4} vs best {:.4}",
                    "", "", "", "", worst, best
                );
            }
        }
    }
    println!();
}

/// S2a — Scenario 2: latency vs data size and attribute count, basic vs
/// all-optimizations.
fn exp_s2a_latency_sweep() {
    header(
        "S2a",
        "latency vs data size / attributes (Scenario 2)",
        "\"the right set of optimizations can enable real-time data analysis of large datasets\"",
    );
    println!(
        "{:>9} {:>6} | {:>10} {:>12} | {:>10} {:>12} | {:>8}",
        "rows", "dims", "basic ms", "basic rows", "opt ms", "opt rows", "speedup"
    );
    for (rows, dims) in [
        (20_000usize, 4usize),
        (50_000, 4),
        (100_000, 4),
        (200_000, 4),
        (50_000, 6),
        (50_000, 10),
        (50_000, 16),
    ] {
        let w = workload(rows, dims, 10, 3, 5);
        let run = |cfg: SeeDbConfig| {
            let seedb = SeeDb::new(w.db.clone(), cfg.with_k(5));
            let t0 = Instant::now();
            let rec = seedb.recommend(&w.analyst).expect("runs");
            (t0.elapsed().as_secs_f64() * 1e3, rec.cost.rows_scanned)
        };
        let (basic_ms, basic_rows) = run(SeeDbConfig::basic());
        let mut opt = SeeDbConfig::recommended();
        opt.pruning = PruningConfig::disabled(); // same views; isolate sharing+parallelism
        let (opt_ms, opt_rows) = run(opt);
        println!(
            "{rows:>9} {dims:>6} | {basic_ms:>10.1} {basic_rows:>12} | {opt_ms:>10.1} {opt_rows:>12} | {:>7.1}x",
            basic_ms / opt_ms
        );
    }
    println!();
}

/// S2b — "Combine target and comparison view query ... halves the time
/// required to compute the results for a single view."
fn exp_s2b_combine_target_comparison() {
    header(
        "S2b",
        "combine target + comparison",
        "\"This simple optimization halves the time required to compute the results for a single view.\"",
    );
    let w = workload(200_000, 3, 10, 1, 9);
    // A single view: restrict to SUM over m0 by d1.
    let mut base = SeeDbConfig::basic().with_k(1);
    base.functions = FunctionSet::sum_only();
    let run = |combine: bool| {
        let mut cfg = base.clone();
        cfg.optimizer.combine_target_comparison = combine;
        let seedb = SeeDb::new(w.db.clone(), cfg);
        let t0 = Instant::now();
        let rec = seedb.recommend(&w.analyst).expect("runs");
        (
            t0.elapsed().as_secs_f64() * 1e3,
            rec.cost.table_scans,
            rec.cost.rows_scanned,
        )
    };
    let (off_ms, off_scans, off_rows) = run(false);
    let (on_ms, on_scans, on_rows) = run(true);
    println!("{:<22} {:>9} {:>12} {:>10}", "", "scans", "rows", "ms");
    println!(
        "{:<22} {off_scans:>9} {off_rows:>12} {off_ms:>10.1}",
        "separate queries"
    );
    println!(
        "{:<22} {on_scans:>9} {on_rows:>12} {on_ms:>10.1}",
        "combined query"
    );
    println!(
        "    scan reduction {:.2}x (paper: 2x), wall speedup {:.2}x\n",
        off_scans as f64 / on_scans as f64,
        off_ms / on_ms
    );
}

/// S2c — "Combine Multiple Aggregates ... speed up linear in the number
/// of aggregate attributes."
fn exp_s2c_combine_aggregates() {
    header(
        "S2c",
        "combine multiple aggregates",
        "\"This rewriting provides a speed up linear in the number of aggregate attributes.\"",
    );
    println!(
        "{:>10} | {:>9} {:>10} | {:>9} {:>10} | {:>14}",
        "#measures", "sep scans", "sep ms", "comb scans", "comb ms", "scan reduction"
    );
    for measures in [1usize, 2, 4, 8] {
        let w = workload(100_000, 3, 10, measures, 13);
        let run = |combine: bool| {
            let mut cfg = SeeDbConfig::basic().with_k(3);
            cfg.functions = FunctionSet::sum_only();
            cfg.optimizer.combine_target_comparison = true;
            cfg.optimizer.combine_aggregates = combine;
            let seedb = SeeDb::new(w.db.clone(), cfg);
            let t0 = Instant::now();
            let rec = seedb.recommend(&w.analyst).expect("runs");
            (t0.elapsed().as_secs_f64() * 1e3, rec.cost.table_scans)
        };
        let (sep_ms, sep_scans) = run(false);
        let (comb_ms, comb_scans) = run(true);
        println!(
            "{measures:>10} | {sep_scans:>9} {sep_ms:>10.1} | {comb_scans:>10} {comb_ms:>10.1} | {:>13.1}x",
            sep_scans as f64 / comb_scans as f64
        );
    }
    println!("    (scan reduction grows linearly with the number of aggregate attributes)\n");
}

/// S2d — "Combine Multiple Group-bys" with the bin-packing memory budget.
fn exp_s2d_combine_groupbys() {
    header(
        "S2d",
        "combine multiple group-bys (bin packing under a memory budget)",
        "\"combine queries with different group-by attributes into a single query ... the number of \
         views that can be combined depends on ... working memory; we model the problem as a variant \
         of bin-packing\"",
    );
    let w = workload(100_000, 10, 12, 1, 17);
    println!(
        "{:<28} {:>8} {:>9} {:>12} {:>9}",
        "strategy / budget", "queries", "scans", "rows", "ms"
    );
    let run = |label: String, combining: GroupByCombining, budget: u64| {
        let mut cfg = SeeDbConfig::basic().with_k(5);
        cfg.functions = FunctionSet::sum_only();
        cfg.optimizer.combine_target_comparison = true;
        cfg.optimizer.combine_aggregates = true;
        cfg.optimizer.group_by_combining = combining;
        cfg.optimizer.memory_budget_groups = budget;
        let seedb = SeeDb::new(w.db.clone(), cfg);
        let t0 = Instant::now();
        let rec = seedb.recommend(&w.analyst).expect("runs");
        println!(
            "{label:<28} {:>8} {:>9} {:>12} {:>9.1}",
            rec.num_queries,
            rec.cost.table_scans,
            rec.cost.rows_scanned,
            t0.elapsed().as_secs_f64() * 1e3
        );
    };
    run(
        "off (one query per dim)".into(),
        GroupByCombining::Off,
        u64::MAX,
    );
    for budget in [12u64, 24, 48, 1_000_000] {
        run(
            format!("grouping sets, budget {budget}"),
            GroupByCombining::GroupingSets,
            budget,
        );
    }
    for budget in [144u64, 20_000, 1_000_000_000] {
        run(
            format!("multi-gb rollup, budget {budget}"),
            GroupByCombining::MultiGroupBy,
            budget,
        );
    }
    println!("    (larger budgets pack more group-bys per scan -> fewer scans)\n");
}

/// S2e — sampling: latency down, accuracy degrades gracefully.
fn exp_s2e_sampling() {
    header(
        "S2e",
        "sampling (latency vs accuracy)",
        "\"the sampling technique and size of the sample both affect view accuracy\"",
    );
    let w = workload(200_000, 6, 10, 2, 21);
    let exact = {
        let mut cfg = SeeDbConfig::recommended().with_k(5);
        cfg.execution = cfg.execution.with_workers(1);
        let seedb = SeeDb::new(w.db.clone(), cfg);
        let rec = seedb.recommend(&w.analyst).expect("runs");
        top_labels(&rec.all, 5)
    };
    println!(
        "{:>10} {:>12} {:>9} {:>12} {:>14}",
        "fraction", "rows", "ms", "jaccard@5", "truth recall"
    );
    for fraction in [1.0f64, 0.5, 0.2, 0.1, 0.05, 0.01, 0.002] {
        let mut cfg = SeeDbConfig::recommended().with_k(5);
        cfg.execution = cfg.execution.with_workers(1);
        if fraction < 1.0 {
            cfg.optimizer.sample = Some(SampleSpec::Bernoulli { fraction, seed: 3 });
        }
        let seedb = SeeDb::new(w.db.clone(), cfg);
        let t0 = Instant::now();
        let rec = seedb.recommend(&w.analyst).expect("runs");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let tops = top_labels(&rec.all, 5);
        let dims = top_dims(&rec.all, 3);
        println!(
            "{fraction:>10.3} {:>12} {ms:>9.1} {:>12.2} {:>14.2}",
            rec.cost.rows_scanned,
            jaccard(&exact, &tops),
            recall(&w.ground_truth_dims, &dims),
        );
    }
    println!(
        "    (latency falls with the sample; ranking stays accurate until very small samples)\n"
    );
}

/// S2f — parallelism: total latency down, per-query time up.
fn exp_s2f_parallelism() {
    header(
        "S2f",
        "parallel query execution",
        "\"as the number of queries executed in parallel increases, the total latency decreases at \
         the cost of increased per query execution time\"",
    );
    let w = workload(100_000, 8, 10, 2, 23);
    println!(
        "{:>9} {:>12} {:>18}",
        "workers", "total ms", "mean per-query ms"
    );
    for workers in [1usize, 2, 4, 8, 16] {
        let mut cfg = SeeDbConfig::basic().with_k(5);
        cfg.execution = cfg.execution.with_workers(workers);
        let seedb = SeeDb::new(w.db.clone(), cfg);
        let t0 = Instant::now();
        let rec = seedb.recommend(&w.analyst).expect("runs");
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Mean per-query time: execution phase / queries, scaled by
        // workers (queries overlap), approximated from phase timing.
        let per_query_ms =
            rec.timings.execution.as_secs_f64() * 1e3 * workers as f64 / rec.num_queries as f64;
        println!("{workers:>9} {total_ms:>12.1} {per_query_ms:>18.2}");
    }
    println!();
}

/// E1 — extension: phased execution with confidence-interval pruning
/// (paper challenge (d): trade estimation accuracy for latency).
fn exp_e1_phased() {
    use seedb_core::{
        enumerate_views, run_phased, run_phased_with_group_counts, FunctionSet, PhasedConfig,
    };
    use std::collections::HashMap;
    header(
        "E1",
        "EXTENSION: phased execution + confidence-interval pruning",
        "challenge (d): \"we must trade-off accuracy of visualizations or estimation of \
         'interestingness' for reduced latency\" (realized in the authors' follow-up work)",
    );
    let w = workload(200_000, 10, 10, 2, 31);
    let table = w.db.table("synthetic").unwrap();
    let views: Vec<_> = enumerate_views(table.schema(), &FunctionSet::standard())
        .into_iter()
        .filter(|v| v.dimension != "d0")
        .collect();
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>12}",
        "phases", "view-phases", "work saved", "ms", "top-5 exact?"
    );
    // Exact top-5 for comparison.
    let exact_cfg = PhasedConfig {
        phases: 1,
        k: 5,
        delta: 0.05,
        min_phases: 1,
        metric: Metric::EarthMovers,
        workers: 1,
    };
    let exact = run_phased(&table, &w.analyst, &views, &exact_cfg).unwrap();
    let exact_top: Vec<String> = exact.views.iter().map(|v| v.spec.label()).collect();
    // Per-dimension group counts for the confidence bound, computed
    // once outside the timed loop (as the engine does from metadata).
    let mut counts: HashMap<String, usize> = HashMap::new();
    for v in &views {
        if !counts.contains_key(&v.dimension) {
            let s = memdb::ColumnStats::collect(&v.dimension, table.column(&v.dimension).unwrap());
            counts.insert(v.dimension.clone(), s.group_count());
        }
    }
    for phases in [1usize, 4, 10, 20] {
        let cfg = PhasedConfig {
            phases,
            k: 5,
            delta: 0.05,
            min_phases: 2,
            metric: Metric::EarthMovers,
            workers: 1,
        };
        let t0 = Instant::now();
        let out = run_phased_with_group_counts(&table, &w.analyst, &views, &cfg, &counts).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let top: Vec<String> = out.views.iter().map(|v| v.spec.label()).collect();
        println!(
            "{phases:>8} {:>12} {:>11.0}% {ms:>10.1} {:>12}",
            out.view_phases,
            100.0 * out.work_saved(views.len(), phases),
            if top == exact_top { "yes" } else { "NO" }
        );
    }
    println!("    (more phases -> earlier pruning of hopeless views; top-k stays exact)\n");
}

/// E2 — ablation: exact branch-and-bound vs first-fit-decreasing packing.
fn exp_e2_packing() {
    use seedb_core::packing::{pack_exact, pack_ffd};
    header(
        "E2",
        "ABLATION: bin-packing solver (exact B&B vs FFD heuristic)",
        "\"we model the problem ... as a variant of bin-packing and apply ILP techniques\"",
    );
    use rand::{Rng, SeedableRng};
    println!(
        "{:>7} {:>9} | {:>9} {:>9} {:>12}",
        "items", "capacity", "FFD bins", "B&B bins", "B&B wins"
    );
    for n in [8usize, 12, 16] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let mut ffd_total = 0usize;
        let mut exact_total = 0usize;
        let mut wins = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=60)).collect();
            let ffd = pack_ffd(&weights, 100).len();
            let exact = pack_exact(&weights, 100).len();
            ffd_total += ffd;
            exact_total += exact;
            if exact < ffd {
                wins += 1;
            }
        }
        println!(
            "{n:>7} {:>9} | {:>9.2} {:>9.2} {:>10}/{trials}",
            100,
            ffd_total as f64 / trials as f64,
            exact_total as f64 / trials as f64,
            wins
        );
    }
    println!("    (exact solver never uses more bins; each saved bin is one saved table scan)\n");
}

/// S2g — pruning: views pruned per rule, latency, and recall kept.
fn exp_s2g_pruning() {
    header(
        "S2g",
        "view-space pruning",
        "\"SEEDB ... aggressively prune[s] view queries that are unlikely to have high utility\" \
         via variance, correlated attributes, and access frequency",
    );
    // Build a table with prey for every rule (like the pruning bench).
    let mut spec = SyntheticSpec::knobs(60_000, 5, 10, 1.0, 2, 29).with_plant(Plant {
        subset_dim: 0,
        subset_value: 0,
        deviating_dims: vec![1, 2],
        deviating_measures: vec![],
    });
    spec.dims
        .push(DimSpec::new("constant", Categorical::Uniform { k: 1 }));
    spec.dims.push(DimSpec::derived("d1_alias", 10, 1, 0.0));
    spec.dims.push(DimSpec::derived("d2_alias", 10, 2, 0.0));
    let analyst = AnalystQuery::new("synthetic", spec.subset_filter());
    let truth = spec.ground_truth_dims();
    let db = Arc::new(Database::new());
    db.register(spec.generate());

    println!(
        "{:<24} {:>7} {:>8} {:>9} {:>9} {:>8}",
        "rules", "kept", "pruned", "queries", "ms", "recall"
    );
    let configs: Vec<(&str, PruningConfig)> = vec![
        ("none", PruningConfig::disabled()),
        ("variance", {
            let mut p = PruningConfig::disabled();
            p.variance = true;
            p.min_entropy = 0.05;
            p
        }),
        ("variance+correlation", {
            let mut p = PruningConfig::disabled();
            p.variance = true;
            p.min_entropy = 0.05;
            p.correlation = true;
            p.correlation_threshold = 0.95;
            p
        }),
        ("all (+access freq)", PruningConfig::aggressive()),
    ];
    for (name, pruning) in configs {
        let mut cfg = SeeDbConfig::recommended().with_k(5);
        cfg.execution = cfg.execution.with_workers(1);
        cfg.pruning = pruning;
        let seedb = SeeDb::new(db.clone(), cfg);
        for _ in 0..20 {
            seedb
                .tracker()
                .record("synthetic", ["d0", "d1", "d2", "m0", "m1"]);
        }
        let t0 = Instant::now();
        let rec = seedb.recommend(&analyst).expect("runs");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let dims = top_dims(&rec.all, 3);
        println!(
            "{name:<24} {:>7} {:>8} {:>9} {ms:>9.1} {:>8.2}",
            rec.all.len(),
            rec.pruned.len(),
            rec.num_queries,
            recall(&truth, &dims)
        );
    }
    println!("    (pruning shrinks the executed view set without losing the true top views)\n");
}
