//! One run of one workload: set-up, warm-up, then either the timed
//! window (`--trace 0`, bench tracing off, end-to-end metrics) or the
//! traced pass (`--trace 1`, per-layer metrics), with the output oracle
//! feeding `attempted` / `failed` in both.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use memdb::{cramers_v, Database, TableStats};
use seedb_core::{AnalystQuery, Recommendation, SeeDb, Service, ViewResult};
use seedb_data::SyntheticSpec;

use crate::ingest::{self, Tally};
use crate::layers::{layer_metrics, trace_overhead, traced_request, LayerSamples};
use crate::metrics::{median, percentile, Metrics, END_TO_END, PER_LAYER};
use crate::replay::{same_views, KeptStates};
use crate::trace::Recorder;
use crate::workloads::{
    planted_applies, planted_subset, prewarmed, service_config, table_spec, Request, Scale, Stream,
    Workload, TABLE,
};

/// Set-ups per timed run. `setup_s` is their median, and each serves a
/// third of the timed window: a table instance lands on other physical
/// pages every time (on the build box that alone moves a memory-bound
/// request by 10 %), and the host changes speed in phases of 10–40 s, so
/// samples pooled over three instances and the whole run repeat better
/// than one 10 s block on one instance.
const SETUPS: usize = 3;
/// Reference recommendations computed per set-up (the 1-in-8 sample is
/// cut off here so the untimed oracle cannot outgrow the run).
const MAX_REFERENCES: usize = 2;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// What a run reports: the driver's four keys plus findings for humans.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub findings: Vec<String>,
    /// Timed samples behind `recommend_p50_ms` (stated with it).
    pub samples: usize,
    /// Digest of the generated inputs: equal seeds print equal digests.
    pub inputs: u64,
}

impl Outcome {
    pub fn to_json(&self, trace: bool) -> serde_json::Value {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        serde_json::json!({
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": self.metrics.to_json(defs),
        })
    }
}

/// A workload brought up and ready for its first request.
struct Env {
    spec: SyntheticSpec,
    service: Service,
    /// `live_ingest` timed runs serve from this durable directory.
    store: Option<PathBuf>,
}

/// Set-up: generate the table, register it, start the service, issue
/// each pre-warmed analyst once; `durable` additionally saves the
/// catalog (`Service::persist`) and serves from the reopened directory.
fn setup(opts: &Options, durable: bool) -> Env {
    let spec = table_spec(opts.workload, opts.scale, opts.seed);
    let db = Arc::new(Database::new());
    db.register(spec.generate());
    let mut service = Service::new(db, service_config());
    for analyst in prewarmed(opts.workload) {
        service.recommend(&analyst).expect("pre-warm request");
    }
    let mut store = None;
    if durable {
        let dir = ingest::fresh_store_dir(&opts.out, opts.workload);
        service.persist(&dir).expect("persist");
        drop(service);
        service = Service::open_with(&dir, service_config(), ingest::durability()).expect("open");
        store = Some(dir);
    }
    Env {
        spec,
        service,
        store,
    }
}

/// FNV-1a over the table's first rows and the stream's first requests:
/// what the program under test was given, in 64 bits.
fn input_digest(env: &Env, opts: &Options) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |text: &str| {
        for b in text.bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    if let Ok(table) = env.service.database().table(TABLE) {
        for i in 0..table.num_rows().min(64) {
            for v in table.row(i) {
                eat(&v.render());
            }
        }
    }
    let mut stream = Stream::new(opts.workload, opts.seed, 0);
    for _ in 0..16 {
        eat(&stream.next().analyst.to_sql());
    }
    hash
}

/// The planted dimensions d1 and d2 both appear among the top-k views.
fn planted_in_top_k(views: &[ViewResult]) -> bool {
    ["d1", "d2"]
        .iter()
        .all(|d| views.iter().any(|v| v.spec.dimension == *d))
}

/// The output oracle of the request loops.
struct Oracle {
    workload: Workload,
    /// Requests `i` with `i % 8 == phase` are sampled for a reference.
    phase: usize,
    /// Requests observed so far, over every window of the run.
    observed: usize,
    sampled: Vec<(AnalystQuery, Vec<ViewResult>)>,
    tally: Tally,
}

impl Oracle {
    fn new(workload: Workload, seed: u64) -> Oracle {
        Oracle {
            workload,
            phase: (seed % 8) as usize,
            observed: 0,
            sampled: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Record one request's outcome; cheap, runs outside the timer.
    fn observe(&mut self, request: &Request, result: &memdb::DbResult<Recommendation>) {
        let index = self.observed;
        self.observed += 1;
        let Ok(rec) = result else {
            self.tally.check(false);
            return;
        };
        let planted = matches!(self.workload, Workload::ColdExplore | Workload::WarmRepeat)
            && request.explore_index.is_some_and(planted_applies);
        self.tally
            .check(rec.errors.is_empty() && (!planted || planted_in_top_k(&rec.views)));
        if index % 8 == self.phase && self.sampled.len() < MAX_REFERENCES {
            self.sampled
                .push((request.analyst.clone(), rec.all.clone()));
        }
    }

    /// Untimed: every sampled answer must be byte-identical to a cold
    /// `SeeDb::recommend` on the same table.
    fn check_references(&mut self, db: &Arc<Database>) {
        let reference = SeeDb::new(db.clone(), service_config().seedb);
        for (analyst, served) in std::mem::take(&mut self.sampled) {
            let ok = reference
                .recommend(&analyst)
                .is_ok_and(|r| same_views(&r.all, &served));
            self.tally.check(ok);
        }
    }
}

/// One closed-loop client: its request stream and its oracle run on
/// through every window of the run.
struct Client {
    stream: Stream,
    oracle: Oracle,
}

/// What the run's timed windows add up to.
#[derive(Default)]
struct Window {
    latencies_s: Vec<f64>,
    /// Timed seconds: Σ request time for one client, wall time for two.
    seconds: f64,
    completed: u64,
}

/// Closed loop, one client: requests back to back until `share` seconds
/// of request time have passed (`clear_cache()` before each request of
/// a cold workload is not timed).
fn single_window(env: &Env, opts: &Options, client: &mut Client, share: f64, w: &mut Window) {
    let mut busy = 0.0;
    while busy < share {
        let request = client.stream.next();
        if opts.workload.cold() {
            env.service.clear_cache();
        }
        let start = Instant::now();
        let result = env.service.recommend(&request.analyst);
        let d = start.elapsed().as_secs_f64();
        busy += d;
        client.oracle.observe(&request, &result);
        if result.is_ok() {
            w.latencies_s.push(d);
            w.completed += 1;
        }
    }
    w.seconds += busy;
}

/// Closed loop, one session per client thread, for `share` seconds of
/// wall time.
fn concurrent_window(env: &Env, clients: &mut [Client], share: f64, w: &mut Window) {
    let start = Instant::now();
    let deadline = std::time::Duration::from_secs_f64(share);
    let per_client: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let session = env.service.session();
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    while start.elapsed() < deadline {
                        let request = client.stream.next();
                        let t = Instant::now();
                        let result = session.recommend(&request.analyst);
                        let d = t.elapsed().as_secs_f64();
                        client.oracle.observe(&request, &result);
                        if result.is_ok() {
                            latencies.push(d);
                        }
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    w.seconds += start.elapsed().as_secs_f64();
    for latencies in per_client {
        w.completed += latencies.len() as u64;
        w.latencies_s.extend(latencies);
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--trace 0`: the timed windows and the end-to-end metrics.
fn run_timed(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut clients: Vec<Client> = (0..w.clients())
        .map(|c| Client {
            stream: Stream::new(w, opts.seed, c),
            oracle: Oracle::new(w, opts.seed + c as u64),
        })
        .collect();
    let share = opts.seconds / SETUPS as f64;
    let mut window = Window::default();
    let mut setup_s = Vec::new();
    let mut inputs = 0;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let env = setup(opts, w == Workload::LiveIngest);
        setup_s.push(start.elapsed().as_secs_f64());
        inputs = input_digest(&env, opts);

        // One untimed warm-up request per set-up.
        if w.cold() {
            env.service.clear_cache();
        }
        env.service
            .recommend(&planted_subset())
            .expect("warm-up request");

        if let Some(dir) = env.store.clone() {
            let client = &mut clients[0];
            let i = ingest::timed_window(env.service, &env.spec, &dir, &mut client.stream, share);
            client.oracle.tally.attempted += i.tally.attempted;
            client.oracle.tally.failed += i.tally.failed;
            window.latencies_s.extend(i.recommend_s);
            window.seconds += i.busy_s;
            window.completed += i.completed;
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        if clients.len() > 1 {
            concurrent_window(&env, &mut clients, share, &mut window);
        } else {
            single_window(&env, opts, &mut clients[0], share, &mut window);
        }
        for client in &mut clients {
            client.oracle.check_references(env.service.database());
        }
    }

    let mut m = Metrics::default();
    let ms: Vec<f64> = window.latencies_s.iter().map(|s| s * 1e3).collect();
    m.set("setup_s", median(&setup_s));
    m.set("recommend_p50_ms", median(&ms));
    m.set("recommend_p90_ms", percentile(&ms, 0.90));
    m.set("requests_per_s", window.completed as f64 / window.seconds);
    m.set("peak_rss_mb", peak_rss_mb());
    let mut tally = Tally::default();
    for client in &clients {
        tally.attempted += client.oracle.tally.attempted;
        tally.failed += client.oracle.tally.failed;
    }
    Outcome {
        tally,
        metrics: m,
        findings: Vec::new(),
        samples: ms.len(),
        inputs,
    }
}

/// `TableStats::collect` and pairwise `cramers_v` timed directly on the
/// workload's table: the two calls `MetadataCollector::collect` is made
/// of. Median of `reps` passes (pairs capped so a 40-dimension table
/// does not dominate the run).
fn stats_metrics(rec: &mut Recorder, db: &Database, reps: usize, m: &mut Metrics) {
    const MAX_PAIRS: usize = 45;
    let table = db.table(TABLE).expect("table registered");
    let dims = table.schema().dimensions();
    let mut pairs = Vec::new();
    'outer: for i in 0..dims.len() {
        for j in (i + 1)..dims.len() {
            pairs.push((dims[i], dims[j]));
            if pairs.len() == MAX_PAIRS {
                break 'outer;
            }
        }
    }
    let mut collect_ms = Vec::new();
    let mut pair_us = Vec::new();
    for rep in 0..reps {
        let (_, ns) = rec.time("memdb.stats.table_collect", None, rep, || {
            std::hint::black_box(TableStats::collect(&table))
        });
        collect_ms.push(ns as f64 / 1e6);
        let (_, ns) = rec.time("memdb.stats.cramers_v", None, rep, || {
            for (a, b) in &pairs {
                let v = cramers_v(
                    table.column(a).expect("dimension"),
                    table.column(b).expect("dimension"),
                );
                std::hint::black_box(v.expect("cramers_v"));
            }
        });
        pair_us.push(ns as f64 / 1e3 / pairs.len() as f64);
    }
    m.set("memdb.stats.table_collect_ms", median(&collect_ms));
    m.set("memdb.stats.cramers_v_us_per_pair", median(&pair_us));
}

/// Σ stage times against the service's own time, per traced request:
/// inside [0.90, 1.10] it reconciles; outside, the gap is a finding
/// (never a failure).
fn reconciliation(samples: &LayerSamples, findings: &mut Vec<String>) {
    let ratios: Vec<f64> = samples
        .stage_sum_ms
        .iter()
        .zip(&samples.service_ms)
        .map(|(stages, service)| stages / service)
        .collect();
    if ratios.is_empty() {
        return;
    }
    let ratio = median(&ratios);
    let verdict = if (0.90..=1.10).contains(&ratio) {
        "reconciles"
    } else {
        "FINDING: does not reconcile"
    };
    findings.push(format!(
        "stage sum / Service::recommend = {ratio:.3} over {} traced requests ({verdict}; {:.3} ms of {:.3} ms explained)",
        ratios.len(),
        median(&samples.stage_sum_ms),
        median(&samples.service_ms),
    ));
}

/// `--trace 1`: the traced pass and the per-layer metrics.
fn run_traced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let env = setup(opts, false);
    let inputs = input_digest(&env, opts);
    let mut rec = Recorder::start();
    let mut m = Metrics::default();
    let mut findings = Vec::new();
    let mut tally = Tally::default();
    let full = opts.scale == Scale::Full;

    // The overhead probe doubles as warm-up.
    let first = Stream::new(w, opts.seed, 0).next();
    let pairs = if full { 2 } else { 1 };
    m.set(
        "bench.trace_overhead_frac",
        trace_overhead(&mut rec, &env.service, &first, w.cold(), pairs),
    );
    stats_metrics(
        &mut rec,
        env.service.database(),
        if full { 2 } else { 1 },
        &mut m,
    );

    let mut kept = KeptStates::default();
    let mut samples = LayerSamples::default();
    let store = ingest::fresh_store_dir(&opts.out, w);
    // `live_ingest`'s traced requests ride on its ingest cycles; every
    // other workload traces its requests first and then runs the ingest
    // pass as a probe of its own table.
    let live = w == Workload::LiveIngest;
    let before = env.service.cache_stats();
    if !live {
        let mut stream = Stream::new(w, opts.seed, 0);
        for _ in 0..w.traced_ops() {
            let request = stream.next();
            traced_request(
                &mut rec,
                &env.service,
                &request,
                w.cold(),
                &mut kept,
                &mut samples,
            );
        }
    }
    let after = env.service.cache_stats();
    let cycles = match (live, full) {
        (true, _) => w.traced_ops(),
        (false, true) => 20,
        (false, false) => 5,
    };
    let pass = ingest::traced_pass(
        &mut rec,
        env.service,
        &env.spec,
        &store,
        cycles,
        live.then_some((&mut kept, &mut samples)),
        &mut m,
    );
    let (before, after) = if live { pass.cache } else { (before, after) };
    layer_metrics(&samples, &before, &after, &mut m);
    let _ = std::fs::remove_dir_all(&store);

    tally.attempted += pass.tally.attempted + samples.service_ms.len() as u64 + samples.errors;
    tally.failed += pass.tally.failed + samples.mismatches + samples.errors;
    findings.extend(pass.findings);
    reconciliation(&samples, &mut findings);
    if samples.mismatches > 0 {
        findings.push(format!(
            "{} replay(s) disagreed with the service's top-k",
            samples.mismatches
        ));
    }
    let warm_scans = w == Workload::WarmRepeat && samples.rows_scanned > 0;
    if warm_scans {
        findings.push("warm_repeat scanned rows: the cache did not hold".to_string());
        tally.failed += 1;
    }

    let trace_path = opts.out.join(format!("trace_{}.json", w.name()));
    if let Err(e) = rec.write(&trace_path, w.name(), opts.seed) {
        findings.push(format!("could not write {}: {e}", trace_path.display()));
    }
    Outcome {
        tally,
        metrics: m,
        findings,
        samples: samples.service_ms.len(),
        inputs,
    }
}

pub fn run(opts: &Options) -> Outcome {
    std::fs::create_dir_all(&opts.out).expect("create output directory");
    if opts.trace {
        run_traced(opts)
    } else {
        run_timed(opts)
    }
}
