//! The traced pass: each request is issued through the service under a
//! `request` span, then replayed stage by stage ([`crate::replay`]); the
//! samples collected here become the per-layer metrics.

use std::time::Instant;

use seedb_core::{CacheStats, Service};

use crate::metrics::{median, Metrics};
use crate::replay::{replay, KeptStates, Path, Replay};
use crate::trace::Recorder;
use crate::workloads::Request;

/// Everything the traced pass measured, one entry per traced request
/// unless noted.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub service_ms: Vec<f64>,
    pub stage_sum_ms: Vec<f64>,
    pub replays: Vec<Replay>,
    /// `Recommendation::cost` summed over the traced requests.
    pub rows_scanned: u64,
    pub table_scans: u64,
    /// Groups in the states the requests' own scans produced (a warm
    /// request scans nothing and adds none). `Recommendation::cost`
    /// cannot say: the serving path records scans before they are
    /// finalized, so its `groups_emitted` stays 0.
    pub groups: u64,
    /// Replays whose top-k differed from the service's.
    pub mismatches: u64,
    /// Requests the service failed.
    pub errors: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Which path the service took, from the cache counters' movement
/// across the request.
fn classify(before: &CacheStats, after: &CacheStats) -> Path {
    if after.misses > before.misses {
        Path::Cold
    } else if after.refreshes > before.refreshes {
        Path::Refresh
    } else {
        Path::Warm
    }
}

/// Issue one request under a `request` span and replay it. `cold`
/// clears the cache first (untimed).
pub fn traced_request(
    rec: &mut Recorder,
    service: &Service,
    request: &Request,
    cold: bool,
    kept: &mut KeptStates,
    samples: &mut LayerSamples,
) {
    let id = samples.service_ms.len() + samples.errors as usize;
    if cold {
        service.clear_cache();
    }
    let before = service.cache_stats();
    let (served, ns) = rec.time("request", None, id, || service.recommend(&request.analyst));
    let served = match served {
        Ok(r) => r,
        Err(_) => {
            samples.errors += 1;
            return;
        }
    };
    let path = classify(&before, &service.cache_stats());
    // The snapshot the service answered from: nothing appends between
    // the request and its replay (the traced pass is one thread).
    let table = service
        .database()
        .table(&request.analyst.table)
        .expect("table registered");
    let r = replay(
        rec,
        id,
        &table,
        &request.analyst,
        service.seedb_config(),
        &served,
        path,
        kept,
    );
    samples.service_ms.push(ms(ns));
    samples.stage_sum_ms.push(ms(r.stage_sum_ns));
    samples.rows_scanned += served.cost.rows_scanned;
    samples.table_scans += served.cost.table_scans;
    if path != Path::Warm {
        samples.groups += r.groups as u64;
    }
    if !r.matches_service {
        samples.mismatches += 1;
    }
    samples.replays.push(r);
}

/// `bench.trace_overhead_frac`: the workload's first request issued
/// `pairs` times with the recorder off and on, alternately, under the
/// workload's cache regime; (traced − untraced median) / untraced.
pub fn trace_overhead(
    rec: &mut Recorder,
    service: &Service,
    request: &Request,
    cold: bool,
    pairs: usize,
) -> f64 {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..pairs {
        for on in [false, true] {
            if cold {
                service.clear_cache();
            }
            let start = Instant::now();
            let span = if on {
                rec.open("request", None, usize::MAX)
            } else {
                usize::MAX
            };
            let _ = std::hint::black_box(service.recommend(&request.analyst));
            if on {
                rec.close(span);
            }
            let elapsed = start.elapsed().as_secs_f64();
            if on { &mut traced } else { &mut untraced }.push(elapsed);
        }
    }
    (median(&traced) - median(&untraced)) / median(&untraced)
}

fn med<F: Fn(&Replay) -> Option<f64>>(replays: &[Replay], f: F) -> f64 {
    let xs: Vec<f64> = replays.iter().filter_map(f).collect();
    median(&xs)
}

/// Turn the traced pass's samples and the cache counters' movement over
/// it into the `core.*` / `memdb.{plan,exec,parallel}` metrics.
pub fn layer_metrics(
    samples: &LayerSamples,
    before: &CacheStats,
    after: &CacheStats,
    m: &mut Metrics,
) {
    let n = samples.service_ms.len() as f64;
    let replays = &samples.replays;
    let recommend_ms = median(&samples.service_ms);
    let self_ms: Vec<f64> = samples
        .service_ms
        .iter()
        .zip(&samples.stage_sum_ms)
        .map(|(s, r)| s - r)
        .collect();
    let self_ms = median(&self_ms);
    m.set("core.service.recommend_ms", recommend_ms);
    m.set("core.service.self_ms", self_ms);
    m.set("core.service.unattributed_frac", self_ms / recommend_ms);

    let d = |a: u64, b: u64| (a - b) as f64;
    let hits = d(after.hits, before.hits);
    let misses = d(after.misses, before.misses);
    let batch_scans = d(after.batch_scans, before.batch_scans);
    m.set(
        "core.service.cache_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.set("core.service.cache_misses_per_request", misses / n);
    m.set(
        "core.service.cache_evictions",
        d(after.evictions, before.evictions),
    );
    m.set("core.service.batch_scans_per_request", batch_scans / n);
    m.set(
        "core.service.batched_plans_per_scan",
        if batch_scans > 0.0 {
            d(after.batched_plans, before.batched_plans) / batch_scans
        } else {
            0.0
        },
    );
    m.set(
        "core.service.refreshes_per_request",
        d(after.refreshes, before.refreshes) / n,
    );
    m.set(
        "core.service.refresh_rows_per_request",
        d(after.refresh_rows, before.refresh_rows) / n,
    );
    m.set(
        "core.service.refresh_fallbacks",
        d(after.refresh_fallbacks, before.refresh_fallbacks),
    );

    m.set(
        "core.metadata.collect_ms",
        med(replays, |r| Some(ms(r.metadata_ns))),
    );
    m.set(
        "core.metadata.cells_per_s",
        med(replays, |r| {
            Some((r.rows * r.columns) as f64 / (r.metadata_ns as f64 / 1e9))
        }),
    );
    m.set(
        "core.pruning.prune_us",
        med(replays, |r| Some(us(r.pruning_ns))),
    );
    let candidates: usize = replays.iter().map(|r| r.candidates).sum();
    let kept: usize = replays.iter().map(|r| r.kept_views).sum();
    let queries: usize = replays.iter().map(|r| r.queries).sum();
    m.set("core.pruning.kept_frac", kept as f64 / candidates as f64);
    m.set(
        "core.optimizer.plan_us",
        med(replays, |r| Some(us(r.optimizer_ns))),
    );
    m.set("core.optimizer.queries_per_request", queries as f64 / n);
    m.set(
        "core.optimizer.views_per_query",
        kept as f64 / queries as f64,
    );

    m.set(
        "memdb.plan.lower_us",
        med(replays, |r| Some(us(r.lower_ns))),
    );
    let per_group = |ns: u64, r: &Replay| ns as f64 / r.groups.max(1) as f64;
    m.set(
        "memdb.plan.project_ns_per_group",
        med(replays, |r| Some(per_group(r.project_ns, r))),
    );
    m.set(
        "memdb.plan.finalize_ns_per_group",
        med(replays, |r| Some(per_group(r.finalize_ns, r))),
    );

    m.set("memdb.exec.scan_ms", med(replays, |r| r.exec_ns.map(ms)));
    m.set(
        "memdb.exec.rows_per_s_core",
        med(replays, |r| {
            r.exec_ns
                .map(|ns| r.rows_scanned as f64 / (ns as f64 / 1e9))
        }),
    );
    m.set(
        "memdb.exec.rows_scanned_per_request",
        samples.rows_scanned as f64 / n,
    );
    m.set(
        "memdb.exec.table_scans_per_request",
        samples.table_scans as f64 / n,
    );
    m.set("memdb.exec.groups_per_request", samples.groups as f64 / n);
    let scanned: u64 = replays.iter().map(|r| r.rows_scanned).sum();
    let matched: u64 = replays.iter().map(|r| r.rows_matched).sum();
    m.set("memdb.exec.match_frac", matched as f64 / scanned as f64);

    m.set(
        "memdb.parallel.scan_ms",
        med(replays, |r| r.parallel_ns.map(ms)),
    );
    m.set(
        "memdb.parallel.speedup",
        med(replays, |r| match (r.exec_ns, r.parallel_ns) {
            (Some(e), Some(p)) => Some(e as f64 / p as f64),
            _ => None,
        }),
    );
    let scans: Vec<&Replay> = replays.iter().filter(|r| r.parallel_ns.is_some()).collect();
    m.set(
        "memdb.parallel.partitions_per_scan",
        scans.iter().map(|r| r.partitions).sum::<u64>() as f64
            / scans.iter().map(|r| r.queries).sum::<usize>() as f64,
    );
    m.set(
        "memdb.parallel.merge_ns_per_group",
        med(replays, |r| Some(per_group(r.merge_ns, r))),
    );

    m.set(
        "core.processor.process_us",
        med(replays, |r| Some(us(r.process_ns))),
    );
    m.set(
        "core.processor.ns_per_view",
        med(replays, |r| {
            Some(r.process_ns as f64 / r.kept_views.max(1) as f64)
        }),
    );
    m.set(
        "core.processor.top_k_us",
        med(replays, |r| Some(us(r.top_k_ns))),
    );
}
