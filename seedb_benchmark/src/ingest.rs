//! Durable ingest: the `live_ingest` timed window (epochs of append
//! cycles, each ending in a crash and a reopen) and the traced ingest
//! pass every workload runs on its own table with `--trace 1` to price
//! the `memdb.catalog` and `memdb.store` layers.
//!
//! Flush policy, identical on both sides of any comparison:
//! `DurabilityConfig::recommended()` — every append fsynced before it is
//! acknowledged, WAL checkpointed into segment files past 1 MiB.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use memdb::{Database, DurabilityConfig};
use seedb_core::{AnalystQuery, CacheStats, SeeDb, Service};
use seedb_data::SyntheticSpec;

use crate::layers::{traced_request, LayerSamples};
use crate::metrics::{median, percentile, Metrics};
use crate::replay::{same_views, KeptStates};
use crate::trace::Recorder;
use crate::workloads::{
    ingest_batch, planted_subset, prewarmed, service_config, table_user_bytes, user_bytes, Stream,
    Workload, APPENDS_PER_CYCLE, BATCH_ROWS, TABLE,
};

/// Append cycles between two crashes in the timed window.
pub const CYCLES_PER_EPOCH: usize = 25;

pub fn durability() -> DurabilityConfig {
    DurabilityConfig::recommended()
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// Pass/fail bookkeeping of a run: operations attempted and operations
/// that failed or answered wrongly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Simulate a crash — tear the WAL tail, drop every handle without
/// `persist` — and reopen the directory until the first reply. Returns
/// the reopened service and the seconds `open_with` + first reply took.
/// The caller checks that exactly the acknowledged rows are visible.
fn crash_and_reopen(service: Service, dir: &Path, first: &AnalystQuery) -> (Service, f64, bool) {
    let torn = service.database().inject_torn_wal_tail().is_ok();
    drop(service);
    let start = Instant::now();
    let reopened =
        Service::open_with(dir, service_config(), durability()).expect("reopen after crash");
    let replied = reopened.recommend(first).is_ok();
    (reopened, start.elapsed().as_secs_f64(), torn && replied)
}

/// The reference a recovered store is held to: the same base table and
/// the same acknowledged batches, rebuilt in memory.
fn rebuilt_twin(spec: &SyntheticSpec, acked_batches: usize) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.register(spec.generate());
    for index in 0..acked_batches {
        db.append_rows(TABLE, ingest_batch(spec, index))
            .expect("twin append");
    }
    db
}

/// After the last reopen: the row count equals base + every acknowledged
/// batch (nothing lost, nothing un-acked visible) and a recommendation
/// equals the one from an in-memory rebuild of the same rows.
fn recovered_matches_rebuild(
    service: &Service,
    twin: &Arc<Database>,
    first: &AnalystQuery,
    tally: &mut Tally,
) {
    let rows = service.database().table(TABLE).map(|t| t.num_rows());
    let want = twin.table(TABLE).map(|t| t.num_rows());
    tally.check(rows.is_ok() && rows.ok() == want.ok());
    let got = service.recommend(first);
    let reference = SeeDb::new(twin.clone(), service_config().seedb).recommend(first);
    tally.check(match (got, reference) {
        (Ok(a), Ok(b)) => same_views(&a.all, &b.all),
        _ => false,
    });
}

/// What the `live_ingest` timed window measured.
#[derive(Debug, Default)]
pub struct IngestWindow {
    pub recommend_s: Vec<f64>,
    /// Seconds spent in timed operations (appends, recommends, reopens).
    pub busy_s: f64,
    /// Recommendations completed (incl. each reopen's first reply).
    pub completed: u64,
    pub tally: Tally,
}

/// The `live_ingest` timed window: whole epochs of `CYCLES_PER_EPOCH`
/// cycles (4 fsynced 250-row appends + 1 recommend), each ending in a
/// torn-tail crash and a reopen, until `seconds` of timed work have
/// passed.
pub fn timed_window(
    mut service: Service,
    spec: &SyntheticSpec,
    dir: &Path,
    stream: &mut Stream,
    seconds: f64,
) -> IngestWindow {
    let base_rows = spec.rows;
    let mut out = IngestWindow::default();
    let first = planted_subset();
    let mut acked = 0usize;
    while out.busy_s < seconds {
        for _ in 0..CYCLES_PER_EPOCH {
            for _ in 0..APPENDS_PER_CYCLE {
                let batch = ingest_batch(spec, acked);
                let start = Instant::now();
                let ok = service.append_rows(TABLE, batch).is_ok();
                let d = start.elapsed().as_secs_f64();
                out.tally.check(ok);
                if ok {
                    acked += 1;
                }
                out.busy_s += d;
            }
            let request = stream.next();
            let start = Instant::now();
            let ok = service.recommend(&request.analyst).is_ok();
            let d = start.elapsed().as_secs_f64();
            out.tally.check(ok);
            if ok {
                out.recommend_s.push(d);
                out.completed += 1;
            }
            out.busy_s += d;
        }
        let (reopened, d, ok) = crash_and_reopen(service, dir, &first);
        service = reopened;
        out.busy_s += d;
        out.completed += 1;
        let rows = service.database().table(TABLE).map_or(0, |t| t.num_rows());
        out.tally
            .check(ok && rows == base_rows + acked * BATCH_ROWS);
    }
    let twin = rebuilt_twin(spec, acked);
    recovered_matches_rebuild(&service, &twin, &first, &mut out.tally);
    out
}

/// What the traced ingest pass hands back besides the metrics it set.
#[derive(Debug, Default)]
pub struct IngestPass {
    pub tally: Tally,
    pub findings: Vec<String>,
    /// The durable service's cache counters before and after the cycles.
    pub cache: (CacheStats, CacheStats),
}

/// The traced ingest pass: make `service`'s catalog durable in `dir`
/// (`Database::save`), open it (`Database::open`), run `cycles` append
/// cycles against it and against an in-memory twin fed the same
/// batches — with a traced, replayed recommend per cycle when
/// `recommends` (that is `live_ingest`'s traced pass) — then crash,
/// reopen, and check recovery. Sets every `memdb.catalog.*` and
/// `memdb.store.*` metric.
pub fn traced_pass(
    rec: &mut Recorder,
    service: Service,
    spec: &SyntheticSpec,
    dir: &Path,
    cycles: usize,
    recommends: Option<(&mut KeptStates, &mut LayerSamples)>,
    m: &mut Metrics,
) -> IngestPass {
    let mut out = IngestPass::default();
    let base = service.database().table(TABLE).expect("base table");
    let base_rows = base.num_rows();
    let mut user = table_user_bytes(&base);
    let first = planted_subset();

    // Database::save; `live_ingest` also spills its cached plan set so
    // the reopen after the crash warm-starts like the timed runs do.
    let (_, save_ns) = rec.time("memdb.store.save", None, 0, || {
        service
            .database()
            .save_with(dir, durability())
            .expect("save")
    });
    let saved_bytes = dir_bytes(dir);
    if recommends.is_some() {
        service.persist(dir).expect("persist");
    }
    let twin = Arc::new(Database::new());
    twin.register((*base).clone());
    drop(base);
    drop(service);

    // Database::open
    let (db, open_ns) = rec.time("memdb.store.open", None, 0, || {
        Database::open_with(dir, durability()).expect("open")
    });
    let mb = saved_bytes as f64 / 1e6;
    m.set("memdb.store.save_mb_per_s", mb / (save_ns as f64 / 1e9));
    m.set("memdb.store.open_mb_per_s", mb / (open_ns as f64 / 1e9));

    let service = Service::new(Arc::new(db), service_config());
    if recommends.is_some() {
        for analyst in prewarmed(Workload::LiveIngest) {
            let _ = service.recommend(&analyst);
        }
    }
    let checkpoints = service
        .obs()
        .registry()
        .register_counter("store.checkpoints");
    let counters_before = service.metrics().counters;
    let cache_before = service.cache_stats();

    let mut recommends = recommends;
    let mut stream = Stream::new(Workload::LiveIngest, spec.seed, 0);
    let mut durable_s = Vec::new();
    let mut twin_s = Vec::new();
    let mut stall_s = Vec::new();
    let mut ingested = 0u64;
    let mut acked = 0usize;
    for cycle in 0..cycles {
        for _ in 0..APPENDS_PER_CYCLE {
            let batch = ingest_batch(spec, acked);
            let batch_bytes = user_bytes(&batch);
            let twin_batch = batch.clone();
            let sealed = checkpoints.get();
            let (ok, ns) = rec.time("memdb.store.append", None, cycle, || {
                service.append_rows(TABLE, batch).is_ok()
            });
            out.tally.check(ok);
            if !ok {
                continue;
            }
            acked += 1;
            ingested += batch_bytes;
            durable_s.push(ns as f64 / 1e9);
            if checkpoints.get() > sealed {
                stall_s.push(ns as f64 / 1e9);
            }
            let (_, ns) = rec.time("memdb.catalog.append", None, cycle, || {
                twin.append_rows(TABLE, twin_batch).expect("twin append")
            });
            twin_s.push(ns as f64 / 1e9);
        }
        if let Some((kept, samples)) = recommends.as_mut() {
            traced_request(rec, &service, &stream.next(), false, kept, samples);
        }
    }
    user += ingested;
    out.cache = (cache_before, service.cache_stats());

    // memdb.catalog: the in-memory twin is the append cost without a store.
    let appends = durable_s.len() as f64;
    m.set("memdb.catalog.append_us_per_batch", median(&twin_s) * 1e6);
    m.set(
        "memdb.catalog.append_rows_per_s",
        twin_s.len() as f64 * BATCH_ROWS as f64 / twin_s.iter().sum::<f64>(),
    );
    m.set(
        "memdb.catalog.append_p99_ms",
        percentile(&twin_s, 0.99) * 1e3,
    );

    // memdb.store: what durability adds on top, and what it writes.
    let snapshot = service.metrics();
    let moved = |name: &str| {
        let now = snapshot.counters.get(name).copied().unwrap_or(0);
        (now - counters_before.get(name).copied().unwrap_or(0)) as f64
    };
    m.set(
        "memdb.store.ingest_rows_per_s",
        appends * BATCH_ROWS as f64 / durable_s.iter().sum::<f64>(),
    );
    m.set("memdb.store.append_p50_ms", median(&durable_s) * 1e3);
    let wal_s: Vec<f64> = durable_s.iter().zip(&twin_s).map(|(d, t)| d - t).collect();
    m.set("memdb.store.wal_us_per_append", median(&wal_s) * 1e6);
    m.set(
        "memdb.store.wal_bytes_per_user_byte",
        moved("store.wal.bytes") / ingested as f64,
    );
    m.set(
        "memdb.store.fsyncs_per_append",
        moved("store.wal.fsyncs") / appends,
    );
    let fsync = snapshot.histograms.get("store.wal.fsync_ns");
    let fsync_us = |q: f64| fsync.map_or(0.0, |h| interpolated_percentile(&h.buckets, q) / 1e3);
    m.set("memdb.store.fsync_p50_us", fsync_us(0.50));
    m.set("memdb.store.fsync_p99_us", fsync_us(0.99));
    m.set("memdb.store.checkpoints", moved("store.checkpoints"));
    m.set(
        "memdb.store.checkpoint_bytes_per_user_byte",
        moved("store.checkpoint.bytes") / ingested as f64,
    );
    m.set(
        "memdb.store.checkpoint_stall_ms_max",
        stall_s.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    if stall_s.is_empty() {
        out.findings.push(format!(
            "no checkpoint in {} appends ({} WAL bytes): checkpoint_stall_ms_max reads 0",
            durable_s.len(),
            moved("store.wal.bytes")
        ));
    }

    // Crash, reopen until the first reply, and hold the recovered store
    // to the twin.
    let reopen = rec.open("memdb.store.reopen", None, cycles);
    let (service, reopen_s, ok) = crash_and_reopen(service, dir, &first);
    rec.close(reopen);
    m.set("memdb.store.reopen_ms", reopen_s * 1e3);
    let rows = service.database().table(TABLE).map_or(0, |t| t.num_rows());
    out.tally
        .check(ok && rows == base_rows + acked * BATCH_ROWS);
    recovered_matches_rebuild(&service, &twin, &first, &mut out.tally);
    m.set(
        "memdb.store.replayed_records",
        service
            .metrics()
            .counters
            .get("store.recovery.replayed_records")
            .copied()
            .unwrap_or(0) as f64,
    );
    m.set(
        "memdb.store.disk_bytes_per_user_byte",
        dir_bytes(dir) as f64 / user as f64,
    );
    out
}

/// Percentile of a log₂-bucket histogram (bucket 0 holds 0, bucket
/// `i ≥ 1` spans `[2^(i-1), 2^i)`), interpolated linearly inside the
/// bucket the rank falls in.
fn interpolated_percentile(buckets: &[u64], q: f64) -> f64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let rank = q * count as f64;
    let mut seen = 0.0;
    for (i, &c) in buckets.iter().enumerate() {
        if c > 0 && seen + c as f64 >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            return lo + lo * ((rank - seen) / c as f64);
        }
        seen += c as f64;
    }
    0.0
}

/// A scratch directory for one run's durable store, emptied first.
pub fn fresh_store_dir(out: &Path, workload: Workload) -> PathBuf {
    let dir = out.join(format!("store-{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentile_interpolates_inside_the_bucket() {
        // 10 samples in [512, 1024): the median rank sits halfway.
        let mut buckets = vec![0u64; 65];
        buckets[10] = 10;
        assert_eq!(interpolated_percentile(&buckets, 0.5), 768.0);
        assert_eq!(interpolated_percentile(&[0; 65], 0.5), 0.0);
    }
}
