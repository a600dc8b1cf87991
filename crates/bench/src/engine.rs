//! The parallel, memoizing experiment engine.
//!
//! Every figure binary used to re-run the same (workload, options, config,
//! scheme) simulations serially: each figure recompiled every workload and
//! re-measured every baseline from scratch. This module centralizes that
//! work:
//!
//! * **Work-stealing pool** — [`par_map`] fans jobs out over
//!   `std::thread::scope` workers (count from `CWSP_JOBS`, default the
//!   machine's available parallelism) while preserving input order in the
//!   returned results, so figure output stays byte-identical to the serial
//!   harness.
//! * **In-process memo** — simulation results are memoized by content
//!   fingerprint (module structure + machine config + scheme; see
//!   [`crate::fingerprint`]), sharded to keep lock contention off the hot
//!   path. Baselines and compiled modules are computed once per process no
//!   matter how many figures ask for them.
//! * **On-disk store** — results persist under `results/cache/` (override
//!   with `CWSP_CACHE_DIR`, disable with `CWSP_CACHE=0`) in the **LSM result
//!   spine** ([`cwsp_store::spine`]): results commit as immutable sorted
//!   batches with a manifest, merged levels, and time-travel lookups. Keys
//!   include [`crate::fingerprint::CACHE_VERSION`]; bump it when simulator
//!   semantics change.
//! * **Harness report** — [`harness_main`] wraps a figure binary's body,
//!   timing it and merging a per-figure entry (wall-clock, jobs, hit rate)
//!   into `results/BENCH_harness.json` — and, when a spine is open, also
//!   committing the entry to the spine so the whole perf trajectory stays
//!   queryable as of any run.

use crate::fingerprint::{machine_fp, module_fp, options_fp};
use crate::json::{self, Value};
use cwsp_compiler::pipeline::{CompileOptions, Compiled, CwspCompiler};
use cwsp_ir::fxhash::FxHasher;
use cwsp_ir::module::Module;
use cwsp_sim::config::SimConfig;
use cwsp_sim::scheme::Scheme;
use cwsp_sim::stats::SimStats;
use cwsp_store::config::{self, ObsDest};
use cwsp_store::spine::{Key, Spine};
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

const SHARDS: usize = 16;

type StatsSlot = Arc<OnceLock<SimStats>>;
type CompileSlot = Arc<OnceLock<Arc<Compiled>>>;

/// Monotonic counters describing engine traffic (see [`Engine::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulation results requested.
    pub jobs: u64,
    /// Requests served from the in-process memo.
    pub memo_hits: u64,
    /// Requests served from the on-disk cache.
    pub disk_hits: u64,
    /// Dynamic instructions actually simulated (cache hits contribute 0).
    pub sim_insts: u64,
    /// Per-opcode dynamic instruction mix over the simulated instructions,
    /// indexed like [`cwsp_ir::decoded::OPCODE_NAMES`].
    pub sim_op_mix: [u64; cwsp_ir::decoded::OPCODE_COUNT],
}

impl Counters {
    /// Fraction of requests that did not run a simulation.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            (self.memo_hits + self.disk_hits) as f64 / self.jobs as f64
        }
    }
}

/// Stable hash for spine figure keys (FxHash over the name bytes; process-
/// independent like the fingerprints).
fn name_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// The memoizing engine; one global instance serves all figure binaries
/// (see [`engine`]), and tests can build private instances.
pub struct Engine {
    stats_memo: Vec<Mutex<HashMap<(u64, u64), StatsSlot>>>,
    compile_memo: Vec<Mutex<HashMap<(u64, u64), CompileSlot>>>,
    /// Persistent result storage behind the in-process memo (`None` =
    /// memory only).
    spine: Option<Mutex<Spine>>,
    jobs: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    sim_insts: AtomicU64,
    sim_op_mix: [AtomicU64; cwsp_ir::decoded::OPCODE_COUNT],
    // Wall-clock ns of every stats() request, in completion order — memo
    // hits included, since the figure binaries' "queue latency" is request
    // to result regardless of which path served it.
    job_latencies_ns: Mutex<Vec<u64>>,
}

impl Engine {
    /// An engine that keeps results in memory only.
    pub fn in_memory() -> Self {
        Engine::with_store(None)
    }

    /// An engine persisting results to the LSM spine at `dir`. Falls back to
    /// memory-only if the spine directory cannot be opened.
    pub fn with_spine(dir: PathBuf) -> Self {
        Engine::with_store(Spine::open(&dir).ok())
    }

    fn with_store(spine: Option<Spine>) -> Self {
        Engine {
            stats_memo: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            compile_memo: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            spine: spine.map(Mutex::new),
            jobs: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            sim_insts: AtomicU64::new(0),
            sim_op_mix: std::array::from_fn(|_| AtomicU64::new(0)),
            job_latencies_ns: Mutex::new(Vec::new()),
        }
    }

    /// Whether results persist to the LSM spine (vs. memory only).
    pub fn uses_spine(&self) -> bool {
        self.spine.is_some()
    }

    /// Commit a figure's harness entry to the spine (no-op in memory-only
    /// engines), keyed by figure name — the queryable perf trajectory.
    pub fn commit_figure_entry(&self, figure: &str, entry: &Value) {
        if let Some(spine) = &self.spine {
            let mut spine = spine.lock().unwrap();
            let _ = spine.commit(vec![(
                Key::figure(name_hash(figure)),
                entry.to_pretty().into_bytes(),
            )]);
        }
    }

    /// Commit a telemetry snapshot for `source` into the spine's telemetry
    /// keyspace (kind 2); no-op in memory-only engines. Repeated commits
    /// under one source key accumulate a time-travel-queryable timeline.
    pub fn commit_telemetry(&self, source: &str, snapshot: &Value) {
        if let Some(spine) = &self.spine {
            let mut spine = spine.lock().unwrap();
            let _ = spine.commit(vec![(
                Key::telemetry(name_hash(source)),
                snapshot.to_pretty().into_bytes(),
            )]);
        }
    }

    /// Run `f` with the spine locked (`None` in memory-only engines) — the
    /// cursor/time-travel query surface for tools and tests.
    pub fn with_spine_handle<R>(&self, f: impl FnOnce(&mut Spine) -> R) -> Option<R> {
        self.spine
            .as_ref()
            .map(|spine| f(&mut spine.lock().unwrap()))
    }

    /// Number of per-job latency samples recorded so far (a cursor for
    /// [`Engine::job_latencies_since`]).
    pub fn job_latency_count(&self) -> usize {
        self.job_latencies_ns.lock().unwrap().len()
    }

    /// Latency samples (ns) recorded after cursor `start`.
    pub fn job_latencies_since(&self, start: usize) -> Vec<u64> {
        let all = self.job_latencies_ns.lock().unwrap();
        all.get(start..).unwrap_or(&[]).to_vec()
    }

    /// Snapshot the traffic counters.
    pub fn counters(&self) -> Counters {
        Counters {
            jobs: self.jobs.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            sim_insts: self.sim_insts.load(Ordering::Relaxed),
            sim_op_mix: std::array::from_fn(|i| self.sim_op_mix[i].load(Ordering::Relaxed)),
        }
    }

    /// Compile `module` under `opts`, memoized by content.
    pub fn compiled(&self, module: &Module, opts: CompileOptions) -> Arc<Compiled> {
        let key = (module_fp(module), options_fp(opts));
        let slot = {
            let mut shard = self.compile_memo[key.0 as usize % SHARDS].lock().unwrap();
            shard.entry(key).or_default().clone()
        };
        slot.get_or_init(|| Arc::new(CwspCompiler::new(opts).compile(module)))
            .clone()
    }

    /// Run `module` on the `cfg`/`scheme` machine, memoized by content and
    /// backed by the spine. `name` labels the stored entry and panics only.
    ///
    /// # Panics
    /// Panics if the simulation traps (same contract as the serial harness).
    pub fn stats(&self, name: &str, module: &Module, cfg: &SimConfig, scheme: Scheme) -> SimStats {
        let t_req = Instant::now();
        let key = (module_fp(module), machine_fp(cfg, scheme));
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut shard = self.stats_memo[key.0 as usize % SHARDS].lock().unwrap();
            shard.entry(key).or_default().clone()
        };
        if let Some(s) = slot.get() {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            self.record_latency(t_req);
            return s.clone();
        }
        // Which path satisfied this request: our closure simulated, our
        // closure loaded from disk, or another thread got there first (the
        // closure never ran and `get_or_init` just waited).
        enum Outcome {
            Waited,
            Disk,
            Ran,
        }
        let mut outcome = Outcome::Waited;
        let s = slot.get_or_init(|| {
            if let Some(s) = self.disk_load(key) {
                outcome = Outcome::Disk;
                return s;
            }
            outcome = Outcome::Ran;
            let s = crate::run_to_completion(module, cfg, scheme)
                .unwrap_or_else(|e| panic!("{name} {}: {e}", scheme.name()));
            self.disk_store(key, name, &s);
            s
        });
        match outcome {
            Outcome::Waited => {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Disk => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Ran => {
                self.sim_insts.fetch_add(s.insts, Ordering::Relaxed);
                for (slot, &c) in self.sim_op_mix.iter().zip(&s.op_mix) {
                    slot.fetch_add(c, Ordering::Relaxed);
                }
            }
        }
        self.record_latency(t_req);
        s.clone()
    }

    fn record_latency(&self, t_req: Instant) {
        let ns = t_req.elapsed().as_nanos() as u64;
        self.job_latencies_ns.lock().unwrap().push(ns);
    }

    /// Publish the engine's traffic counters into a metrics registry
    /// (`engine.*` namespace).
    pub fn publish(&self, r: &mut cwsp_obs::Registry) {
        let c = self.counters();
        let id = r.counter("engine.jobs");
        r.add(id, c.jobs);
        let id = r.counter("engine.memo_hits");
        r.add(id, c.memo_hits);
        let id = r.counter("engine.disk_hits");
        r.add(id, c.disk_hits);
        let id = r.counter("engine.sim_insts");
        r.add(id, c.sim_insts);
        let id = r.gauge("engine.hit_rate");
        r.set(id, c.hit_rate());
        let lats = self.job_latencies_since(0);
        let id = r.gauge("engine.queue_latency_us.p50");
        r.set(id, percentile_ns(&lats, 50.0) as f64 / 1000.0);
        let id = r.gauge("engine.queue_latency_us.p99");
        r.set(id, percentile_ns(&lats, 99.0) as f64 / 1000.0);
        // Memory-tier paging traffic (faults, evictions, resident gauges).
        cwsp_obs::tier::publish(r);
        if let Some(spine) = &self.spine {
            let spine = spine.lock().unwrap();
            for (name, v) in [
                ("engine.spine.batches", spine.batches().len() as f64),
                ("engine.spine.entries", spine.entry_count() as f64),
                ("engine.spine.last_seq", spine.last_seq() as f64),
                ("engine.spine.compactions", spine.compactions() as f64),
            ] {
                let id = r.gauge(name);
                r.set(id, v);
            }
        }
    }

    fn disk_load(&self, key: (u64, u64)) -> Option<SimStats> {
        let spine = self.spine.as_ref()?.lock().unwrap();
        let bytes = spine.get(Key::sim(key.0, key.1))?;
        let v = json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
        stats_from_json(v.get("stats")?)
    }

    fn disk_store(&self, key: (u64, u64), name: &str, s: &SimStats) {
        let Some(spine) = &self.spine else {
            return;
        };
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str(name.to_string())),
            ("stats".into(), stats_to_json(s)),
        ]);
        let _ = spine
            .lock()
            .unwrap()
            .commit(vec![(Key::sim(key.0, key.1), doc.to_pretty().into_bytes())]);
    }
}

/// The process-global engine (`CWSP_CACHE`/`CWSP_CACHE_DIR` pick the spine
/// directory, or turn the disk store off).
pub fn engine() -> &'static Engine {
    static GLOBAL: OnceLock<Engine> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let c = config::get();
        if !c.cache {
            return Engine::in_memory();
        }
        Engine::with_spine(
            c.cache_dir
                .clone()
                .unwrap_or_else(|| repo_results_dir().join("cache")),
        )
    })
}

/// `results/` resolved relative to the repository, not the current working
/// directory (tests run with per-crate cwd).
pub fn repo_results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Resolved path of the harness report (`CWSP_HARNESS_JSON` overrides the
/// default `results/BENCH_harness.json`).
pub fn harness_json_path() -> PathBuf {
    config::get()
        .harness_json
        .clone()
        .unwrap_or_else(|| repo_results_dir().join("BENCH_harness.json"))
}

/// Merge `entry` into the harness report as a **top-level** section (a
/// sibling of `figures`) — for non-figure tools like `cwsp-lint`, whose
/// entries do not follow the per-figure schema.
///
/// Objects merge *recursively*: fields present in `entry` overwrite or
/// extend the stored section, fields absent from `entry` survive. This is
/// what lets independent tools share a section — `cwsp-lint` owns
/// `analyzer.lint`, the fuzz farm owns `analyzer.fuzz`, the flight recorder
/// owns `flight.*` — without each write clobbering the siblings.
pub fn merge_harness_section(section: &str, entry: Value) {
    merge_harness_section_at(&harness_json_path(), section, entry);
}

fn merge_harness_section_at(path: &Path, section: &str, entry: Value) {
    let mut doc = read_harness_doc(path);
    match doc.get(section) {
        Some(existing) => {
            let mut merged = existing.clone();
            deep_merge(&mut merged, entry);
            doc.set(section, merged);
        }
        None => doc.set(section, entry),
    }
    write_harness_doc(path, &doc);
}

/// Recursively fold `incoming` into `base`: object fields merge key-by-key,
/// everything else (scalars, arrays, type mismatches) is replaced by the
/// incoming value.
fn deep_merge(base: &mut Value, incoming: Value) {
    match (base, incoming) {
        (Value::Obj(base_fields), Value::Obj(incoming_fields)) => {
            for (key, val) in incoming_fields {
                match base_fields.iter_mut().find(|(k, _)| *k == key) {
                    Some(slot) => deep_merge(&mut slot.1, val),
                    None => base_fields.push((key, val)),
                }
            }
        }
        (slot, incoming) => *slot = incoming,
    }
}

fn read_harness_doc(path: &Path) -> Value {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .filter(|v| matches!(v, Value::Obj(_)))
        .unwrap_or_else(|| {
            Value::Obj(vec![
                ("version".into(), Value::Int(1)),
                ("figures".into(), Value::Obj(vec![])),
            ])
        })
}

fn write_harness_doc(path: &Path, doc: &Value) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // Write-then-rename so concurrent tools never observe a torn file.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, doc.to_pretty()).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Worker count: `CWSP_JOBS` if set, else available parallelism.
pub fn worker_count() -> usize {
    config::get().jobs()
}

// Pool utilization accounting: per-item busy ns vs. workers × wall ns of
// each par_map call, accumulated process-wide so harness_main can report a
// utilization delta per figure.
static POOL_BUSY_NS: AtomicU64 = AtomicU64::new(0);
static POOL_CAPACITY_NS: AtomicU64 = AtomicU64::new(0);
// Widest pool any par_map in this process actually spawned — the *achieved*
// worker count, as opposed to the configured one (`worker_count()` can be 8
// while every call had one item and ran serial).
static POOL_PEAK_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Widest worker pool actually used so far; 1 when nothing fanned out.
pub fn pool_peak_workers() -> usize {
    POOL_PEAK_WORKERS.load(Ordering::Relaxed).max(1)
}

/// Cumulative `(busy_ns, capacity_ns)` across all [`par_map`] calls so far.
pub fn pool_usage() -> (u64, u64) {
    (
        POOL_BUSY_NS.load(Ordering::Relaxed),
        POOL_CAPACITY_NS.load(Ordering::Relaxed),
    )
}

/// Apply `f` to every item on a scoped worker pool; results come back in
/// input order. Workers pull items off a shared atomic cursor, so long jobs
/// don't serialize behind short ones.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count().min(n.max(1));
    POOL_PEAK_WORKERS.fetch_max(workers, Ordering::Relaxed);
    let t_pool = Instant::now();
    if workers <= 1 {
        let out: Vec<R> = items.iter().map(&f).collect();
        let wall = t_pool.elapsed().as_nanos() as u64;
        POOL_BUSY_NS.fetch_add(wall, Ordering::Relaxed);
        POOL_CAPACITY_NS.fetch_add(wall, Ordering::Relaxed);
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t_item = Instant::now();
                        let r = f(&items[i]);
                        POOL_BUSY_NS
                            .fetch_add(t_item.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        local.push((i, r));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("engine worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    let wall = t_pool.elapsed().as_nanos() as u64;
    POOL_CAPACITY_NS.fetch_add(wall * workers as u64, Ordering::Relaxed);
    out.into_iter()
        .map(|r| r.expect("worker covered every index"))
        .collect()
}

/// `p`-th percentile (nearest-rank) of unsorted ns samples; 0 when empty.
pub fn percentile_ns(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Wrap a figure binary's body: run it, time it, and merge a per-figure
/// entry into `results/BENCH_harness.json`. With `CWSP_OBS` on, also dumps
/// the full metrics registry as JSON to stderr — or to the file `CWSP_OBS`
/// names, when its value contains a path separator.
///
/// The run configuration is parsed first: a bad `CWSP_*` value exits with
/// status 2 before any work.
pub fn harness_main(figure: &str, body: impl FnOnce()) {
    config::get();
    let e = engine();
    let before = e.counters();
    let lat_cursor = e.job_latency_count();
    let pool_before = pool_usage();
    let t0 = Instant::now();
    body();
    let wall = t0.elapsed();
    let after = e.counters();
    let delta = Counters {
        jobs: after.jobs - before.jobs,
        memo_hits: after.memo_hits - before.memo_hits,
        disk_hits: after.disk_hits - before.disk_hits,
        sim_insts: after.sim_insts - before.sim_insts,
        sim_op_mix: std::array::from_fn(|i| after.sim_op_mix[i] - before.sim_op_mix[i]),
    };
    let latencies = e.job_latencies_since(lat_cursor);
    let pool_after = pool_usage();
    let busy = pool_after.0 - pool_before.0;
    let capacity = pool_after.1 - pool_before.1;
    let utilization = if capacity > 0 {
        busy as f64 / capacity as f64
    } else {
        0.0
    };
    let entry = build_harness_entry(&delta, wall, &latencies, utilization);
    // On the spine backend the entry also commits as an immutable version,
    // so the figure's perf trajectory is queryable as of any past run; the
    // telemetry keyspace additionally accumulates the compact snapshot.
    e.commit_figure_entry(figure, &entry);
    e.commit_telemetry(figure, &telemetry_snapshot(&entry));
    merge_harness_entry(&harness_json_path(), figure, entry);
    dump_tier_snapshot();
    eprintln!(
        "[harness] {figure}: {:.2}s wall, {} jobs, {} memo + {} disk hits ({}% cached), {} workers",
        wall.as_secs_f64(),
        delta.jobs,
        delta.memo_hits,
        delta.disk_hits,
        (delta.hit_rate() * 100.0).round(),
        worker_count(),
    );
    dump_obs_registry(e);
}

/// When `CWSP_TIER_JSON` names a file, write the process-wide tier
/// telemetry snapshot there (the storage-smoke CI job asserts the resident
/// peak against `CWSP_MEM_BUDGET` from this artifact).
fn dump_tier_snapshot() {
    let Some(dest) = &config::get().tier_json else {
        return;
    };
    if let Some(dir) = dest.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(err) = std::fs::write(dest, cwsp_obs::tier::snapshot_json()) {
        eprintln!("[tier] failed to write {}: {err}", dest.display());
    }
}

/// When `CWSP_OBS` is on, publish the engine's metrics into a registry and
/// dump it (stderr, or the named file when the value looks like a path).
fn dump_obs_registry(e: &Engine) {
    let dest = &config::get().obs;
    if *dest == ObsDest::Off {
        return;
    }
    let mut reg = cwsp_obs::Registry::new();
    e.publish(&mut reg);
    let json = reg.to_json();
    match dest {
        ObsDest::File(path) => {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(err) = std::fs::write(path, &json) {
                eprintln!("[obs] failed to write {}: {err}", path.display());
            }
        }
        _ => eprintln!("[obs] {json}"),
    }
}

/// Build one figure's telemetry entry for `results/BENCH_harness.json`.
/// Kept separate from [`harness_main`] so the schema is unit-testable; the
/// shape is validated by [`validate_harness_entry`].
fn build_harness_entry(
    delta: &Counters,
    wall: std::time::Duration,
    latencies_ns: &[u64],
    utilization: f64,
) -> Value {
    let op_mix = Value::Obj(
        cwsp_ir::decoded::OPCODE_NAMES
            .iter()
            .zip(delta.sim_op_mix)
            .map(|(name, n)| ((*name).to_string(), Value::Int(n)))
            .collect(),
    );
    let lat_us = |p: f64| Value::Float((percentile_ns(latencies_ns, p) as f64 / 1000.0).round());
    let queue_latency = Value::Obj(vec![
        ("p50".into(), lat_us(50.0)),
        ("p90".into(), lat_us(90.0)),
        ("p99".into(), lat_us(99.0)),
    ]);
    Value::Obj(vec![
        ("wall_ms".into(), Value::Int(wall.as_millis() as u64)),
        ("jobs".into(), Value::Int(delta.jobs)),
        ("memo_hits".into(), Value::Int(delta.memo_hits)),
        ("disk_hits".into(), Value::Int(delta.disk_hits)),
        (
            "hit_rate".into(),
            Value::Float((delta.hit_rate() * 1e4).round() / 1e4),
        ),
        ("workers".into(), Value::Int(worker_count() as u64)),
        (
            "workers_achieved".into(),
            Value::Int(pool_peak_workers() as u64),
        ),
        ("sim_insts".into(), Value::Int(delta.sim_insts)),
        ("queue_latency_us".into(), queue_latency),
        (
            "worker_utilization".into(),
            Value::Float((utilization * 1e4).round() / 1e4),
        ),
        ("op_mix".into(), op_mix),
        ("flight".into(), flight_to_json()),
    ])
}

/// Process-wide flight-recorder counters as a harness sub-object.
fn flight_to_json() -> Value {
    let fl = cwsp_obs::flight::snapshot();
    Value::Obj(vec![
        ("enabled".into(), Value::Bool(fl.enabled)),
        ("journals".into(), Value::Int(fl.journals)),
        ("records".into(), Value::Int(fl.records)),
        ("pages".into(), Value::Int(fl.pages)),
        ("bytes".into(), Value::Int(fl.bytes)),
        ("dropped".into(), Value::Int(fl.dropped)),
    ])
}

/// The telemetry snapshot committed to the spine's telemetry keyspace on
/// every harness run: the run's headline numbers plus the flight-recorder
/// counters. Repeated runs accumulate a per-figure, time-travel-queryable
/// history — the fleet telemetry spine.
fn telemetry_snapshot(entry: &Value) -> Value {
    let mut fields = vec![("schema".into(), Value::Str("cwsp-telemetry-v1".into()))];
    for k in ["wall_ms", "jobs", "sim_insts", "flight"] {
        if let Some(v) = entry.get(k) {
            fields.push((k.to_string(), v.clone()));
        }
    }
    Value::Obj(fields)
}

/// Validate one figure entry against the harness schema: every required
/// field present with the right JSON type. Returns the first problem found.
///
/// # Errors
/// A human-readable description of the missing or mistyped field.
pub fn validate_harness_entry(entry: &Value) -> Result<(), String> {
    let need_int = |k: &str| -> Result<(), String> {
        entry
            .get(k)
            .ok_or_else(|| format!("missing field `{k}`"))?
            .as_u64()
            .map(|_| ())
            .ok_or_else(|| format!("field `{k}` is not an integer"))
    };
    let need_num = |k: &str| -> Result<(), String> {
        match entry.get(k) {
            Some(Value::Float(_) | Value::Int(_)) => Ok(()),
            Some(_) => Err(format!("field `{k}` is not a number")),
            None => Err(format!("missing field `{k}`")),
        }
    };
    for k in [
        "wall_ms",
        "jobs",
        "memo_hits",
        "disk_hits",
        "workers",
        "sim_insts",
    ] {
        need_int(k)?;
    }
    for k in ["hit_rate", "worker_utilization"] {
        need_num(k)?;
    }
    let q = entry
        .get("queue_latency_us")
        .ok_or("missing field `queue_latency_us`")?;
    for p in ["p50", "p90", "p99"] {
        match q.get(p) {
            Some(Value::Float(_) | Value::Int(_)) => {}
            Some(_) => return Err(format!("queue_latency_us.{p} is not a number")),
            None => return Err(format!("missing queue_latency_us.{p}")),
        }
    }
    let mix = entry.get("op_mix").ok_or("missing field `op_mix`")?;
    match mix {
        Value::Obj(fields) if fields.len() == cwsp_ir::decoded::OPCODE_COUNT => {}
        Value::Obj(fields) => {
            return Err(format!(
                "op_mix has {} opcodes, expected {}",
                fields.len(),
                cwsp_ir::decoded::OPCODE_COUNT
            ))
        }
        _ => return Err("op_mix is not an object".into()),
    }
    let fl = entry.get("flight").ok_or("missing field `flight`")?;
    match fl.get("enabled") {
        Some(Value::Bool(_)) => {}
        Some(_) => return Err("flight.enabled is not a bool".into()),
        None => return Err("missing flight.enabled".into()),
    }
    for k in ["journals", "records", "pages", "bytes", "dropped"] {
        match fl.get(k) {
            Some(Value::Int(_)) => {}
            Some(_) => return Err(format!("flight.{k} is not an integer")),
            None => return Err(format!("missing flight.{k}")),
        }
    }
    Ok(())
}

fn merge_harness_entry(path: &Path, figure: &str, mut entry: Value) {
    let mut doc = read_harness_doc(path);
    if doc.get("figures").is_none() {
        doc.set("figures", Value::Obj(vec![]));
    }
    if let Value::Obj(fields) = &mut doc {
        if let Some((_, figures)) = fields.iter_mut().find(|(k, _)| k == "figures") {
            // A figure whose every job was served from the memo or the
            // disk cache simulates nothing fresh, so its `wall_ms` is a
            // cache-read time, not a simulation time; say so explicitly. A
            // binary that submits no jobs was not served from any cache.
            let field = |k: &str| entry.get(k).and_then(Value::as_u64).unwrap_or(0);
            let jobs = field("jobs");
            if jobs > 0 && field("memo_hits") + field("disk_hits") == jobs {
                entry.set("cache_hit", Value::Bool(true));
            }
            figures.set(figure, entry);
        }
    }
    write_harness_doc(path, &doc);
}

fn pair_to_json(p: (u64, u64)) -> Value {
    Value::Arr(vec![Value::Int(p.0), Value::Int(p.1)])
}

fn pair_from_json(v: &Value) -> Option<(u64, u64)> {
    let a = v.as_arr()?;
    Some((a.first()?.as_u64()?, a.get(1)?.as_u64()?))
}

/// Serialize stats for the disk cache (every field; see `stats_from_json`).
fn stats_to_json(s: &SimStats) -> Value {
    Value::Obj(vec![
        ("cycles".into(), Value::Int(s.cycles)),
        ("insts".into(), Value::Int(s.insts)),
        ("loads".into(), Value::Int(s.loads)),
        ("stores".into(), Value::Int(s.stores)),
        ("ckpt_stores".into(), Value::Int(s.ckpt_stores)),
        ("frame_stores".into(), Value::Int(s.frame_stores)),
        ("syncs".into(), Value::Int(s.syncs)),
        ("regions".into(), Value::Int(s.regions)),
        ("region_insts".into(), Value::Int(s.region_insts)),
        ("wpq_hits".into(), Value::Int(s.wpq_hits)),
        ("wb_delays".into(), Value::Int(s.wb_delays)),
        ("wb_occupancy_sum".into(), Value::Int(s.wb_occupancy_sum)),
        ("pb_occupancy_sum".into(), Value::Int(s.pb_occupancy_sum)),
        ("stall_pb".into(), Value::Int(s.stall_pb)),
        ("stall_rbt".into(), Value::Int(s.stall_rbt)),
        ("stall_wb".into(), Value::Int(s.stall_wb)),
        ("stall_sync".into(), Value::Int(s.stall_sync)),
        ("stall_wpq".into(), Value::Int(s.stall_wpq)),
        ("stall_scheme".into(), Value::Int(s.stall_scheme)),
        ("l1".into(), pair_to_json(s.l1)),
        ("llc_sram".into(), pair_to_json(s.llc_sram)),
        ("dram_cache".into(), pair_to_json(s.dram_cache)),
        ("nvm_reads".into(), Value::Int(s.nvm_reads)),
        ("nvm_writes".into(), Value::Int(s.nvm_writes)),
        ("log_appends".into(), Value::Int(s.log_appends)),
        ("peak_live_logs".into(), Value::Int(s.peak_live_logs as u64)),
        (
            "region_size_hist".into(),
            Value::Arr(s.region_size_hist.iter().map(|&n| Value::Int(n)).collect()),
        ),
        (
            "op_mix".into(),
            Value::Arr(s.op_mix.iter().map(|&n| Value::Int(n)).collect()),
        ),
    ])
}

/// Deserialize stats; `None` on any missing/mistyped field (treated as a
/// cache miss, so schema drift degrades to recomputation, never corruption).
fn stats_from_json(v: &Value) -> Option<SimStats> {
    let hist_v = v.get("region_size_hist")?.as_arr()?;
    if hist_v.len() != 7 {
        return None;
    }
    let mut region_size_hist = [0u64; 7];
    for (slot, item) in region_size_hist.iter_mut().zip(hist_v) {
        *slot = item.as_u64()?;
    }
    let mix_v = v.get("op_mix")?.as_arr()?;
    if mix_v.len() != cwsp_ir::decoded::OPCODE_COUNT {
        return None;
    }
    let mut op_mix = [0u64; cwsp_ir::decoded::OPCODE_COUNT];
    for (slot, item) in op_mix.iter_mut().zip(mix_v) {
        *slot = item.as_u64()?;
    }
    Some(SimStats {
        cycles: v.get("cycles")?.as_u64()?,
        insts: v.get("insts")?.as_u64()?,
        loads: v.get("loads")?.as_u64()?,
        stores: v.get("stores")?.as_u64()?,
        ckpt_stores: v.get("ckpt_stores")?.as_u64()?,
        frame_stores: v.get("frame_stores")?.as_u64()?,
        syncs: v.get("syncs")?.as_u64()?,
        regions: v.get("regions")?.as_u64()?,
        region_insts: v.get("region_insts")?.as_u64()?,
        wpq_hits: v.get("wpq_hits")?.as_u64()?,
        wb_delays: v.get("wb_delays")?.as_u64()?,
        wb_occupancy_sum: v.get("wb_occupancy_sum")?.as_u64()?,
        pb_occupancy_sum: v.get("pb_occupancy_sum")?.as_u64()?,
        stall_pb: v.get("stall_pb")?.as_u64()?,
        stall_rbt: v.get("stall_rbt")?.as_u64()?,
        stall_wb: v.get("stall_wb")?.as_u64()?,
        stall_sync: v.get("stall_sync")?.as_u64()?,
        stall_wpq: v.get("stall_wpq")?.as_u64()?,
        stall_scheme: v.get("stall_scheme")?.as_u64()?,
        l1: pair_from_json(v.get("l1")?)?,
        llc_sram: pair_from_json(v.get("llc_sram")?)?,
        dram_cache: pair_from_json(v.get("dram_cache")?)?,
        nvm_reads: v.get("nvm_reads")?.as_u64()?,
        nvm_writes: v.get("nvm_writes")?.as_u64()?,
        log_appends: v.get("log_appends")?.as_u64()?,
        peak_live_logs: v.get("peak_live_logs")?.as_u64()? as usize,
        region_size_hist,
        op_mix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_core::genprog::generate_default;

    fn tiny_module() -> Module {
        generate_default(11)
    }

    #[test]
    fn stats_json_round_trips_every_field() {
        let mut s = SimStats::default();
        // Give every field a distinct value so a swapped mapping is caught.
        for (n, f) in [
            &mut s.cycles,
            &mut s.insts,
            &mut s.loads,
            &mut s.stores,
            &mut s.ckpt_stores,
            &mut s.frame_stores,
            &mut s.syncs,
            &mut s.regions,
            &mut s.region_insts,
            &mut s.wpq_hits,
            &mut s.wb_delays,
            &mut s.wb_occupancy_sum,
            &mut s.pb_occupancy_sum,
            &mut s.stall_pb,
            &mut s.stall_rbt,
            &mut s.stall_wb,
            &mut s.stall_sync,
            &mut s.stall_wpq,
            &mut s.stall_scheme,
            &mut s.nvm_reads,
            &mut s.nvm_writes,
            &mut s.log_appends,
        ]
        .into_iter()
        .enumerate()
        {
            *f = n as u64 + 1;
        }
        s.l1 = (100, 101);
        s.llc_sram = (102, 103);
        s.dram_cache = (104, 105);
        s.peak_live_logs = 99;
        s.region_size_hist = [1, 2, 3, 4, 5, 6, 7];
        s.op_mix = std::array::from_fn(|i| 200 + i as u64);
        let text = stats_to_json(&s).to_pretty();
        let back = stats_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn memo_runs_each_key_once() {
        let e = Engine::in_memory();
        let m = tiny_module();
        let cfg = SimConfig::default();
        let a = e.stats("t", &m, &cfg, Scheme::Baseline);
        let b = e.stats("t", &m, &cfg, Scheme::Baseline);
        assert_eq!(a, b);
        let c = e.counters();
        assert_eq!(c.jobs, 2);
        assert_eq!(c.memo_hits, 1);
        assert_eq!(c.disk_hits, 0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compile_memo_shares_one_compilation() {
        let e = Engine::in_memory();
        let m = tiny_module();
        let a = e.compiled(&m, CompileOptions::default());
        let b = e.compiled(&m, CompileOptions::default());
        assert!(Arc::ptr_eq(&a, &b), "same Arc, compiled once");
        let c = e.compiled(
            &m,
            CompileOptions {
                pruning: false,
                ..Default::default()
            },
        );
        assert!(!Arc::ptr_eq(&a, &c), "different options compile separately");
    }

    #[test]
    fn spine_backend_round_trips_and_survives_a_fresh_engine() {
        let dir = std::env::temp_dir().join(format!("cwsp-spine-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = tiny_module();
        let cfg = SimConfig::default();
        let warm = Engine::with_spine(dir.clone());
        assert!(warm.uses_spine());
        let a = warm.stats("t", &m, &cfg, Scheme::Baseline);
        assert_eq!(warm.counters().disk_hits, 0);
        // A fresh engine (fresh process, conceptually) hits the spine.
        let cold = Engine::with_spine(dir.clone());
        let b = cold.stats("t", &m, &cfg, Scheme::Baseline);
        assert_eq!(a, b);
        assert_eq!(cold.counters().disk_hits, 1);
        // The spine wrote batches + a manifest.
        let manifest = std::fs::read_to_string(dir.join("MANIFEST.json")).unwrap();
        assert!(manifest.contains(".batch"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn figure_entries_commit_with_time_travel() {
        let dir = std::env::temp_dir().join(format!("cwsp-figspine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = Engine::with_spine(dir.clone());
        let entry = |ms| Value::Obj(vec![("wall_ms".into(), Value::Int(ms))]);
        e.commit_figure_entry("fig13_overhead", &entry(10));
        e.commit_figure_entry("fig13_overhead", &entry(30));
        let key = Key::figure(name_hash("fig13_overhead"));
        let (s1, latest, past) = e
            .with_spine_handle(|s| {
                let hist = s.history(key);
                assert_eq!(hist.len(), 2, "both runs retained");
                let s1 = hist[0].0;
                let latest = s.get(key).unwrap().to_vec();
                let past = s.get_as_of(key, s1).unwrap().to_vec();
                (s1, latest, past)
            })
            .unwrap();
        assert!(s1 >= 1);
        let wall = |b: &[u8]| {
            json::parse(std::str::from_utf8(b).unwrap())
                .unwrap()
                .get("wall_ms")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert_eq!(wall(&latest), 30);
        assert_eq!(wall(&past), 10, "time travel sees the first run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn par_map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_stats_agree_with_each_other() {
        let e = Engine::in_memory();
        let m = tiny_module();
        let cfg = SimConfig::default();
        let runs: Vec<SimStats> = par_map(&[(); 8], |_| e.stats("t", &m, &cfg, Scheme::Baseline));
        for r in &runs[1..] {
            assert_eq!(*r, runs[0]);
        }
        assert_eq!(e.counters().jobs, 8);
    }

    #[test]
    fn harness_entry_schema_validates_and_catches_drift() {
        let delta = Counters {
            jobs: 10,
            memo_hits: 4,
            sim_insts: 1000,
            ..Default::default()
        };
        let entry = build_harness_entry(
            &delta,
            std::time::Duration::from_millis(12),
            &[1_000, 2_000, 50_000],
            0.83,
        );
        validate_harness_entry(&entry).expect("fresh entry validates");
        // Round-trip through the JSON text form (what lands on disk).
        let back = json::parse(&entry.to_pretty()).unwrap();
        validate_harness_entry(&back).expect("parsed entry validates");
        // Drift is caught: drop a required field.
        let mut broken = entry.clone();
        if let Value::Obj(fields) = &mut broken {
            fields.retain(|(k, _)| k != "queue_latency_us");
        }
        assert!(validate_harness_entry(&broken).is_err());
    }

    #[test]
    fn job_latencies_and_percentiles() {
        let e = Engine::in_memory();
        let m = tiny_module();
        let cfg = SimConfig::default();
        assert_eq!(e.job_latency_count(), 0);
        let _ = e.stats("t", &m, &cfg, Scheme::Baseline);
        let _ = e.stats("t", &m, &cfg, Scheme::Baseline);
        let lats = e.job_latencies_since(0);
        assert_eq!(lats.len(), 2, "every request records a latency");
        assert!(lats[0] > 0);
        // Nearest-rank percentiles on a known distribution.
        let s = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile_ns(&s, 50.0), 50);
        assert_eq!(percentile_ns(&s, 90.0), 90);
        assert_eq!(percentile_ns(&s, 99.0), 100);
        assert_eq!(percentile_ns(&[], 50.0), 0);
    }

    #[test]
    fn pool_usage_accumulates_across_par_map() {
        let before = pool_usage();
        let items: Vec<u64> = (0..32).collect();
        let _ = par_map(&items, |&x| x + 1);
        let after = pool_usage();
        assert!(after.1 > before.1, "capacity advanced");
        assert!(after.0 >= before.0, "busy time is monotonic");
    }

    #[test]
    fn engine_publishes_metrics_registry() {
        let e = Engine::in_memory();
        let m = tiny_module();
        let cfg = SimConfig::default();
        let _ = e.stats("t", &m, &cfg, Scheme::Baseline);
        let _ = e.stats("t", &m, &cfg, Scheme::Baseline);
        let mut reg = cwsp_obs::Registry::new();
        e.publish(&mut reg);
        assert_eq!(reg.counter_value("engine.jobs"), 2);
        assert_eq!(reg.counter_value("engine.memo_hits"), 1);
        assert!((reg.gauge_value("engine.hit_rate") - 0.5).abs() < 1e-12);
        assert!(json::parse(&reg.to_json()).is_ok(), "registry JSON parses");
    }

    #[test]
    fn harness_section_merges_as_top_level_key() {
        let dir = std::env::temp_dir().join(format!("cwsp-section-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_harness.json");
        merge_harness_entry(
            &path,
            "fig13_overhead",
            Value::Obj(vec![("wall_ms".into(), Value::Int(10))]),
        );
        merge_harness_section_at(
            &path,
            "analyzer",
            Value::Obj(vec![("modules".into(), Value::Int(38))]),
        );
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // The section is a sibling of `figures`, not inside it.
        assert_eq!(
            doc.get("analyzer")
                .unwrap()
                .get("modules")
                .unwrap()
                .as_u64(),
            Some(38)
        );
        assert!(doc.get("figures").unwrap().get("analyzer").is_none());
        assert!(doc.get("figures").unwrap().get("fig13_overhead").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harness_section_deep_merges_nested_objects() {
        let dir = std::env::temp_dir().join(format!("cwsp-deepmerge-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_harness.json");
        // cwsp-lint writes analyzer.lint...
        merge_harness_section_at(
            &path,
            "analyzer",
            Value::Obj(vec![(
                "lint".into(),
                Value::Obj(vec![
                    ("modules".into(), Value::Int(38)),
                    ("errors".into(), Value::Int(0)),
                ]),
            )]),
        );
        // ...then the fuzz farm writes analyzer.fuzz — lint must survive,
        // and the overlapping lint.modules update must not drop lint.errors.
        merge_harness_section_at(
            &path,
            "analyzer",
            Value::Obj(vec![
                (
                    "fuzz".into(),
                    Value::Obj(vec![("corpus".into(), Value::Int(60))]),
                ),
                (
                    "lint".into(),
                    Value::Obj(vec![("modules".into(), Value::Int(40))]),
                ),
            ]),
        );
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let analyzer = doc.get("analyzer").unwrap();
        let lint = analyzer.get("lint").unwrap();
        assert_eq!(lint.get("modules").unwrap().as_u64(), Some(40));
        assert_eq!(
            lint.get("errors").unwrap().as_u64(),
            Some(0),
            "sibling leaf survives the partial update"
        );
        assert_eq!(
            analyzer
                .get("fuzz")
                .unwrap()
                .get("corpus")
                .unwrap()
                .as_u64(),
            Some(60),
            "sibling subsection survives"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harness_entry_merges_into_existing_document() {
        let dir = std::env::temp_dir().join(format!("cwsp-harness-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_harness.json");
        let entry = |ms| {
            Value::Obj(vec![
                ("wall_ms".into(), Value::Int(ms)),
                ("jobs".into(), Value::Int(4)),
            ])
        };
        merge_harness_entry(&path, "fig13_overhead", entry(10));
        merge_harness_entry(&path, "fig14_wsp_comparison", entry(20));
        merge_harness_entry(&path, "fig13_overhead", entry(30)); // overwrite
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let figs = doc.get("figures").unwrap();
        assert_eq!(
            figs.get("fig13_overhead")
                .unwrap()
                .get("wall_ms")
                .unwrap()
                .as_u64(),
            Some(30)
        );
        assert_eq!(
            figs.get("fig14_wsp_comparison")
                .unwrap()
                .get("wall_ms")
                .unwrap()
                .as_u64(),
            Some(20)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spine_warm_refresh_is_marked_cache_hit_not_silent() {
        let dir = std::env::temp_dir().join(format!("cwsp-cachehit-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_harness.json");
        let entry = |jobs: u64, hits: u64| {
            Value::Obj(vec![
                ("jobs".into(), Value::Int(jobs)),
                ("memo_hits".into(), Value::Int(0)),
                ("disk_hits".into(), Value::Int(hits)),
            ])
        };
        let stored = |path: &Path| {
            let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            doc.get("figures")
                .unwrap()
                .get("fig08_wpq_hits")
                .unwrap()
                .clone()
        };
        // A fresh run carries no marker; a refresh served entirely
        // spine-warm (every job a disk hit) is marked explicitly.
        merge_harness_entry(&path, "fig08_wpq_hits", entry(40, 0));
        assert!(stored(&path).get("cache_hit").is_none());
        merge_harness_entry(&path, "fig08_wpq_hits", entry(40, 40));
        assert_eq!(stored(&path).get("cache_hit"), Some(&Value::Bool(true)));
        // The next fresh run replaces the warm entry, marker included.
        merge_harness_entry(&path, "fig08_wpq_hits", entry(40, 0));
        assert!(stored(&path).get("cache_hit").is_none());
        // A partly warm run simulated something fresh: no marker.
        merge_harness_entry(&path, "fig08_wpq_hits", entry(40, 39));
        assert!(stored(&path).get("cache_hit").is_none());
        // A binary that submits no jobs (a table computed without the
        // engine) was served from no cache: no marker.
        merge_harness_entry(&path, "fig08_wpq_hits", entry(0, 0));
        assert!(stored(&path).get("cache_hit").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn harness_entry_carries_flight_counters_and_schema_enforces_them() {
        let entry = build_harness_entry(
            &Counters::default(),
            std::time::Duration::from_millis(1),
            &[],
            0.0,
        );
        let fl = entry.get("flight").expect("flight sub-object present");
        for k in ["journals", "records", "pages", "bytes", "dropped"] {
            assert!(fl.get(k).unwrap().as_u64().is_some(), "flight.{k}");
        }
        let mut broken = entry.clone();
        if let Value::Obj(fields) = &mut broken {
            fields.retain(|(k, _)| k != "flight");
        }
        assert_eq!(
            validate_harness_entry(&broken),
            Err("missing field `flight`".into())
        );
    }

    #[test]
    fn telemetry_commits_accumulate_a_spine_timeline() {
        let dir = std::env::temp_dir().join(format!("cwsp-telem-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let e = Engine::with_spine(dir.clone());
        assert!(e.uses_spine());
        let snap = |n: u64| Value::Obj(vec![("records".into(), Value::Int(n))]);
        e.commit_telemetry("fig08_wpq_hits", &snap(1));
        e.commit_telemetry("fig08_wpq_hits", &snap(2));
        let (len, latest) = e
            .with_spine_handle(|s| {
                let key = Key::telemetry(name_hash("fig08_wpq_hits"));
                (s.history(key).len(), s.get(key).map(<[u8]>::to_vec))
            })
            .unwrap();
        assert_eq!(len, 2, "each run is one immutable version");
        let latest = json::parse(std::str::from_utf8(&latest.unwrap()).unwrap()).unwrap();
        assert_eq!(latest.get("records").unwrap().as_u64(), Some(2));
        // The telemetry keyspace never collides with figure entries.
        let figs = e
            .with_spine_handle(|s| s.history(Key::figure(name_hash("fig08_wpq_hits"))).len())
            .unwrap();
        assert_eq!(figs, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
