//! Durability and crash-recovery integration tests: the save/open
//! round trip at the serving layer, WAL no-loss guarantees, and the
//! crash-point matrix (torn WAL tail, torn manifest temp file,
//! checksum-corrupted segment/manifest/warm-plan files → typed
//! [`DbError::Corrupt`], never a panic or a silently wrong answer).

use std::path::PathBuf;
use std::sync::Arc;

use seedb::core::{AnalystQuery, SeeDbConfig, Service, ServiceConfig};
use seedb::data::{Plant, SyntheticSpec};
use seedb::memdb::{
    store, AggFunc, AggSpec, Database, DbError, DurabilityConfig, LogicalPlan, Value,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "seedb-persistence-it-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeded_db(rows: usize, seed: u64) -> (Arc<Database>, AnalystQuery) {
    let spec = SyntheticSpec::knobs(rows, 4, 6, 1.0, 2, seed).with_plant(Plant {
        subset_dim: 0,
        subset_value: 0,
        deviating_dims: vec![1],
        deviating_measures: vec![],
    });
    let analyst = AnalystQuery::new("synthetic", spec.subset_filter());
    let db = Arc::new(Database::new());
    db.register(spec.generate());
    (db, analyst)
}

fn delta(rows: usize, seed: u64) -> Vec<Vec<Value>> {
    let t = SyntheticSpec::knobs(rows, 4, 6, 1.0, 2, seed).generate();
    (0..rows).map(|i| t.row(i)).collect()
}

fn pipeline() -> SeeDbConfig {
    let mut cfg = SeeDbConfig::recommended().with_k(4);
    cfg.pruning.access_frequency = false;
    cfg
}

fn service_config() -> ServiceConfig {
    ServiceConfig::recommended().with_seedb(pipeline())
}

/// A database saved, reopened, and appended-to serves recommendations
/// byte-identical to the never-restarted in-memory run (the PR's
/// acceptance criterion, at the serving layer).
#[test]
fn reopened_service_serves_byte_identical_recommendations() {
    let dir = tmp("service-roundtrip");
    let (db, analyst) = seeded_db(3_000, 17);
    let live = Service::new(db.clone(), service_config());
    live.recommend(&analyst).expect("warm-up");
    live.persist(&dir).expect("persist");
    // Acknowledged ingest after the checkpoint: lives only in the WAL.
    live.append_rows("synthetic", delta(50, 400))
        .expect("append");
    let truth = live.recommend(&analyst).expect("live serve");

    let reopened = Service::open(&dir, service_config()).expect("open");
    // Warm start: the spilled plan set was re-executed at open against
    // the WAL-recovered table, so this request performs zero scans.
    let cost_before = reopened.database().cost();
    let rec = reopened.recommend(&analyst).expect("post-restart serve");
    assert_eq!(
        reopened.database().cost().since(&cost_before).table_scans,
        0,
        "first post-restart request must be warm"
    );
    assert_eq!(truth.all.len(), rec.all.len());
    for (a, b) in truth.all.iter().zip(&rec.all) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{}", a.spec);
    }

    // Appending to the reopened service stays identical to appending
    // to the never-restarted one — lineage survived the restart, so
    // the refresh is delta-only on both sides.
    let rows = delta(60, 401);
    live.append_rows("synthetic", rows.clone())
        .expect("live append");
    reopened
        .append_rows("synthetic", rows)
        .expect("reopened append");
    let a = live.recommend(&analyst).expect("live");
    let b = reopened.recommend(&analyst).expect("reopened");
    for (x, y) in a.all.iter().zip(&b.all) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.utility.to_bits(), y.utility.to_bits(), "{}", x.spec);
    }
    let stats = reopened.cache_stats();
    assert!(stats.refreshes >= 1, "refresh path exercised");
    assert_eq!(stats.refresh_fallbacks, 0, "no full recomputes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-persisting into the directory the service is already durable in
/// is an incremental checkpoint, not a full rewrite: unchanged tables
/// keep their chunk files, appends seal as delta chunks, and reopening
/// still serves the full state.
#[test]
fn repeated_persist_is_incremental_not_a_rewrite() {
    let dir = tmp("repersist");
    let (db, analyst) = seeded_db(2_000, 61);
    let service = Service::new(db.clone(), service_config());
    service.recommend(&analyst).expect("warm-up");
    service.persist(&dir).expect("first persist");
    let first = seedb::memdb::store::manifest::Manifest::read(&dir).unwrap();

    service
        .append_rows("synthetic", delta(40, 700))
        .expect("append");
    service.persist(&dir).expect("second persist");
    let second = seedb::memdb::store::manifest::Manifest::read(&dir).unwrap();

    // The base chunk file survived untouched; only a delta chunk was
    // added — and the second persist sealed the WAL.
    let base_chunks = &first.tables[0].chunks;
    let new_chunks = &second.tables[0].chunks;
    assert_eq!(new_chunks[0], base_chunks[0], "base chunk reused");
    assert_eq!(new_chunks.len(), base_chunks.len() + 1, "one delta chunk");
    assert_eq!(second.wal_epoch, first.wal_epoch, "same incarnation");
    assert_eq!(db.durability_summary().unwrap().wal_records, 0);

    let reopened = Service::open(&dir, service_config()).expect("open");
    let a = service.recommend(&analyst).unwrap();
    let b = reopened.recommend(&analyst).unwrap();
    for (x, y) in a.all.iter().zip(&b.all) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.utility.to_bits(), y.utility.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL replay after a simulated crash loses no acknowledged batch —
/// even when a *later* write was torn mid-record.
#[test]
fn torn_wal_tail_loses_only_the_unacknowledged_record() {
    let dir = tmp("torn-wal");
    let (db, _) = seeded_db(500, 23);
    db.save(&dir).unwrap();
    db.append_rows("synthetic", delta(10, 500)).unwrap();
    db.append_rows("synthetic", delta(10, 501)).unwrap();
    let acked = db.table("synthetic").unwrap();
    drop(db);

    // Simulate a crash mid-write of a third batch: append a prefix of
    // a valid record frame (length header promising more bytes than
    // exist) to the WAL.
    let wal_path = dir.join(store::wal::Wal::FILE_NAME);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&1_000u64.to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 30]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let recovered = Database::open(&dir).unwrap();
    let t = recovered.table("synthetic").unwrap();
    assert_eq!(
        t.num_rows(),
        acked.num_rows(),
        "both acked batches restored"
    );
    assert_eq!(t.version(), acked.version());
    for i in 0..t.num_rows() {
        assert_eq!(t.row(i), acked.row(i));
    }
    // The store stays fully usable: the torn tail was truncated, so
    // new appends land on a clean record boundary and survive another
    // restart.
    recovered.append_rows("synthetic", delta(5, 502)).unwrap();
    let after = recovered.table("synthetic").unwrap();
    drop(recovered);
    let again = Database::open(&dir).unwrap();
    assert_eq!(
        again.table("synthetic").unwrap().num_rows(),
        after.num_rows()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash during checkpoint leaves `MANIFEST.tmp` behind; recovery
/// ignores it and serves the last *published* manifest plus the WAL.
#[test]
fn torn_manifest_temp_file_is_ignored() {
    let dir = tmp("torn-manifest");
    let (db, _) = seeded_db(500, 29);
    db.save(&dir).unwrap();
    db.append_rows("synthetic", delta(10, 510)).unwrap();
    let acked = db.table("synthetic").unwrap();
    drop(db);

    std::fs::write(dir.join("MANIFEST.tmp"), b"torn half-written manifest").unwrap();
    let recovered = Database::open(&dir).unwrap();
    let t = recovered.table("synthetic").unwrap();
    assert_eq!(t.num_rows(), acked.num_rows());
    assert_eq!(t.version(), acked.version());
    assert!(
        !dir.join("MANIFEST.tmp").exists(),
        "crash artifact cleaned up"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every checksum-corruption crash point surfaces as a typed
/// `DbError::Corrupt` — never a panic, never a silently wrong answer.
#[test]
fn corruption_is_always_a_typed_error() {
    // Segment file.
    let dir = tmp("corrupt-seg");
    let (db, _) = seeded_db(500, 31);
    db.save(&dir).unwrap();
    drop(db);
    let seg = std::fs::read_dir(dir.join("segments"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();
    assert!(matches!(Database::open(&dir), Err(DbError::Corrupt(_))));
    let _ = std::fs::remove_dir_all(&dir);

    // Manifest.
    let dir = tmp("corrupt-manifest");
    let (db, _) = seeded_db(500, 37);
    db.save(&dir).unwrap();
    drop(db);
    let path = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(Database::open(&dir), Err(DbError::Corrupt(_))));
    let _ = std::fs::remove_dir_all(&dir);

    // Mid-WAL corruption (valid records after a broken one cannot be a
    // torn tail — dropping them would lose acknowledged batches).
    let dir = tmp("corrupt-wal");
    let (db, _) = seeded_db(500, 41);
    db.save(&dir).unwrap();
    db.append_rows("synthetic", delta(10, 520)).unwrap();
    db.append_rows("synthetic", delta(10, 521)).unwrap();
    drop(db);
    let wal_path = dir.join(store::wal::Wal::FILE_NAME);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[20] ^= 0xFF; // inside the first record's payload
    std::fs::write(&wal_path, &bytes).unwrap();
    assert!(matches!(Database::open(&dir), Err(DbError::Corrupt(_))));
    let _ = std::fs::remove_dir_all(&dir);

    // Warm-plan spill: typed Corrupt at the store layer, but the spill
    // holds only cache hints — Service::open degrades to a cold start
    // instead of failing.
    let dir = tmp("corrupt-plans");
    let (db, analyst) = seeded_db(500, 43);
    let service = Service::new(db, service_config());
    let truth = service.recommend(&analyst).unwrap();
    service.persist(&dir).unwrap();
    let path = dir.join(store::WARM_PLANS_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(store::read_plans(&path), Err(DbError::Corrupt(_))));
    let reopened = Service::open(&dir, service_config()).expect("best-effort warm start");
    let cost_before = reopened.database().cost();
    let rec = reopened.recommend(&analyst).expect("cold serve");
    assert!(
        reopened.database().cost().since(&cost_before).table_scans > 0,
        "cold start: the corrupted spill warmed nothing"
    );
    assert_eq!(truth.all.len(), rec.all.len());
    for (a, b) in truth.all.iter().zip(&rec.all) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full mutation history survives a restart: registrations
/// checkpoint directly into the manifest, appends and drops replay
/// from the WAL tail, and an explicit checkpoint seals it all into
/// segment files that reload alone.
#[test]
fn mixed_mutation_history_survives_restart() {
    let dir = tmp("mixed");
    let (db, _) = seeded_db(300, 47);
    db.save(&dir).unwrap();

    // register a second table, append to both, drop the first.
    let extra = SyntheticSpec::knobs(100, 3, 4, 1.0, 1, 99).generate();
    let mut t = seedb::memdb::Table::new("extra", extra.schema().clone());
    for i in 0..extra.num_rows() {
        t.push_row(extra.row(i)).unwrap();
    }
    db.register(t);
    db.append_rows("extra", {
        let g = SyntheticSpec::knobs(20, 3, 4, 1.0, 1, 98).generate();
        (0..20).map(|i| g.row(i)).collect()
    })
    .unwrap();
    db.append_rows("synthetic", delta(15, 530)).unwrap();
    db.drop_table("synthetic").unwrap();
    let extra_live = db.table("extra").unwrap();
    let version = db.version();
    drop(db);

    let recovered = Database::open(&dir).unwrap();
    assert_eq!(recovered.version(), version);
    assert!(matches!(
        recovered.table("synthetic"),
        Err(DbError::UnknownTable(_))
    ));
    let t = recovered.table("extra").unwrap();
    assert_eq!(t.num_rows(), extra_live.num_rows());
    assert_eq!(t.version(), extra_live.version());
    assert_eq!(t.lineage(), extra_live.lineage());
    for i in 0..t.num_rows() {
        assert_eq!(t.row(i), extra_live.row(i));
    }

    // Checkpoint everything and reopen once more: now the state loads
    // from segment files alone (empty WAL).
    recovered.checkpoint().unwrap();
    let summary = recovered.durability_summary().unwrap();
    assert_eq!(summary.wal_records, 0);
    drop(recovered);
    let again = Database::open(&dir).unwrap();
    assert_eq!(again.version(), version);
    assert_eq!(
        again.table("extra").unwrap().num_rows(),
        extra_live.num_rows()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Query results over a reopened catalog are bit-identical, including
/// plans with per-aggregate predicates and grouping sets — and cost
/// accounting still works (scans are charged to the reopened catalog).
#[test]
fn reopened_catalog_answers_queries_bit_identically() {
    let dir = tmp("queries");
    let (db, analyst) = seeded_db(2_000, 53);
    db.append_rows("synthetic", delta(100, 540)).unwrap();
    db.save(&dir).unwrap();
    let filter = analyst.filter.clone().expect("planted filter");
    let plans = [
        LogicalPlan::scan("synthetic").aggregate(
            vec!["d1".into()],
            vec![
                AggSpec::new(AggFunc::Sum, "m0")
                    .with_filter(filter.clone())
                    .with_alias("target"),
                AggSpec::new(AggFunc::Sum, "m0").with_alias("comparison"),
                AggSpec::new(AggFunc::Avg, "m1"),
                AggSpec::count_star(),
            ],
        ),
        LogicalPlan::scan("synthetic").grouping_sets(
            vec![vec!["d0".into()], vec!["d2".into()], vec![]],
            vec![
                AggSpec::new(AggFunc::Min, "m0"),
                AggSpec::new(AggFunc::Max, "m0"),
            ],
        ),
    ];
    let reopened = Database::open(&dir).unwrap();
    for plan in &plans {
        let a = db.execute_plan(plan).unwrap();
        let b = reopened.execute_plan(plan).unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.columns, rb.columns);
            assert_eq!(ra.rows.len(), rb.rows.len());
            for (x, y) in ra.rows.iter().zip(&rb.rows) {
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
    assert!(reopened.cost().rows_scanned > 0, "cost accounting intact");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint threshold knob works end-to-end: appends below it
/// accumulate in the WAL; crossing it seals delta chunks and truncates.
#[test]
fn checkpoint_threshold_drives_wal_lifecycle() {
    let dir = tmp("threshold");
    let (db, _) = seeded_db(400, 59);
    db.save_with(
        &dir,
        DurabilityConfig::recommended()
            .with_wal_checkpoint_bytes(8 * 1024)
            .with_sync_writes(false),
    )
    .unwrap();
    let mut sealed = false;
    for i in 0..40 {
        db.append_rows("synthetic", delta(5, 600 + i)).unwrap();
        let s = db.durability_summary().unwrap();
        assert!(s.wedged.is_none());
        if s.wal_records == 0 && i > 0 {
            sealed = true; // a checkpoint ran and truncated the WAL
        }
    }
    assert!(sealed, "threshold must have triggered checkpoints");
    let live = db.table("synthetic").unwrap();
    drop(db);
    let recovered = Database::open(&dir).unwrap();
    let t = recovered.table("synthetic").unwrap();
    assert_eq!(t.num_rows(), live.num_rows());
    assert_eq!(t.version(), live.version());
    for i in 0..t.num_rows() {
        assert_eq!(t.row(i), live.row(i));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The soak harness's crash-injection hook
/// ([`Database::inject_torn_wal_tail`]) is indistinguishable from the
/// manual byte-munging above: identical WAL bytes after injection,
/// identical recovery (same rows, same version), and the recovered
/// store stays appendable.
#[test]
fn injected_torn_tail_matches_manual_byte_munging() {
    let setup = |name: &str| {
        let dir = tmp(name);
        let (db, _) = seeded_db(500, 23);
        db.save(&dir).unwrap();
        db.append_rows("synthetic", delta(10, 500)).unwrap();
        db.append_rows("synthetic", delta(10, 501)).unwrap();
        (dir, db)
    };

    // Manual flavor: the byte sequence `torn_wal_tail_loses_only_the_
    // unacknowledged_record` appends by hand.
    let (manual_dir, manual_db) = setup("parity-manual");
    drop(manual_db);
    let wal_path = manual_dir.join(store::wal::Wal::FILE_NAME);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&1_000u64.to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 30]);
    std::fs::write(&wal_path, &bytes).unwrap();

    // Hook flavor: same starting state, tear injected through the API
    // while the database handle is still live (how the soak driver
    // crashes a serving store).
    let (hook_dir, hook_db) = setup("parity-hook");
    let torn_len = hook_db.inject_torn_wal_tail().unwrap();
    assert_eq!(torn_len, 38, "8-byte length header + 30 garbage bytes");
    drop(hook_db);

    let manual_bytes = std::fs::read(&wal_path).unwrap();
    let hook_bytes = std::fs::read(hook_dir.join(store::wal::Wal::FILE_NAME)).unwrap();
    assert_eq!(
        manual_bytes, hook_bytes,
        "hook must write the exact torn-tail byte pattern the manual test uses"
    );

    // Both flavors recover identically: acked batches intact, tear gone.
    let manual = Database::open(&manual_dir).unwrap();
    let hook = Database::open(&hook_dir).unwrap();
    let mt = manual.table("synthetic").unwrap();
    let ht = hook.table("synthetic").unwrap();
    assert_eq!(mt.num_rows(), ht.num_rows());
    assert_eq!(mt.version(), ht.version());
    for i in 0..mt.num_rows() {
        assert_eq!(mt.row(i), ht.row(i));
    }
    // And the hook-recovered store accepts new appends on a clean
    // record boundary, surviving another restart.
    hook.append_rows("synthetic", delta(5, 502)).unwrap();
    let after = hook.table("synthetic").unwrap();
    drop(hook);
    let again = Database::open(&hook_dir).unwrap();
    assert_eq!(
        again.table("synthetic").unwrap().num_rows(),
        after.num_rows()
    );
    let _ = std::fs::remove_dir_all(&manual_dir);
    let _ = std::fs::remove_dir_all(&hook_dir);
}

/// The hook refuses to tear a non-durable catalog instead of
/// panicking or silently doing nothing.
#[test]
fn injected_torn_tail_requires_a_durable_catalog() {
    let (db, _) = seeded_db(50, 31);
    let err = db.inject_torn_wal_tail().unwrap_err();
    assert!(
        matches!(err, DbError::Io(_)),
        "typed error, not a panic: {err:?}"
    );
}
