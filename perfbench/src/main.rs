//! Cold, layered benchmark for the cWSP reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figure_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Each run builds its inputs from the seed
//! (set-up, repeated and reported as a median), then runs whole passes of
//! its workload's operations on one thread for about `--seconds` of CPU
//! time, checking every output against an independent reference.
//! `--trace 0` reports the end-to-end metrics, their times scaled to a
//! reference host's speed by a task timed beside the workload (see
//! [`host::Speedometer`]). `--trace 1` reports the
//! per-layer metrics: it sets up once with spans on and once without, then
//! alternates the same passes between the two, the first with spans around
//! every public call into the crates. `--workload all` runs every workload
//! both ways.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Every result is also appended, with the source revision and a host
//! fingerprint, to `perfbench/out/results.jsonl`; traced runs write their
//! spans as Chrome trace-event JSON beside it. The exit code is 0 when every
//! check passed, 1 when an output check failed, 2 on a usage or set-up error.

mod common;
mod crash_forensics;
mod figure_sweep;
mod golden;
mod host;
mod static_lint;
mod store_rerun;
mod trace;

use common::Ops;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Where runs write their records, spans and private working files.
const OUT_DIR: &str = "perfbench/out";
/// A run does at least this many operations.
const MIN_OPS: usize = 100;
/// Spans written to a traced run's Chrome trace (about 15 MB); the rest,
/// a long run's later passes, are counted but left out of the file.
const TRACE_MAX_SPANS: usize = 100_000;
/// The index of a traced run's unmeasured warm-up pass: past every
/// measured pass, so work a workload does only in its first passes is not
/// spent on the warm-up.
const WARMUP_PASS: u64 = u64::MAX - 1;

/// The end-to-end metrics (name, unit), reported by untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (name, unit), reported by traced runs. A metric in
/// seconds is the self time of the spans of that name; the others are
/// counts or ratios. Times and counts are per set-up plus per pass.
const PER_LAYER: [(&str, &str); 85] = [
    ("workloads.build_s", "s"),
    ("ir.decode_fuse_s", "s"),
    ("ir.decoded_ops", "count"),
    ("ir.fused_op_frac", "frac"),
    ("ir.ref_oracle_s", "s"),
    ("ir.ref_steps", "count"),
    ("ir.interp_s", "s"),
    ("sim.machine_new_s", "s"),
    ("sim.run_s.baseline", "s"),
    ("sim.run_s.cwsp", "s"),
    ("sim.run_s.capri", "s"),
    ("sim.run_s.replaycache", "s"),
    ("sim.run_s.autofence", "s"),
    ("sim.ns_per_inst.baseline", "ns"),
    ("sim.ns_per_inst.cwsp", "ns"),
    ("sim.ns_per_inst.capri", "ns"),
    ("sim.ns_per_inst.replaycache", "ns"),
    ("sim.ns_per_inst.autofence", "ns"),
    ("sim.insts.baseline", "count"),
    ("sim.insts.cwsp", "count"),
    ("sim.insts.capri", "count"),
    ("sim.insts.replaycache", "count"),
    ("sim.insts.autofence", "count"),
    ("sim.cycles.baseline", "count"),
    ("sim.cycles.cwsp", "count"),
    ("sim.cycles.capri", "count"),
    ("sim.cycles.replaycache", "count"),
    ("sim.cycles.autofence", "count"),
    ("sim.run_to_kill_s", "s"),
    ("sim.flight_run_s", "s"),
    ("sim.flight_ns_per_inst", "ns"),
    ("sim.crash_image_s", "s"),
    ("sim.beyond_budgeted_s", "s"),
    ("sim.beyond_unbounded_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("compiler.compile_s", "s"),
    ("compiler.optimize_s", "s"),
    ("compiler.call_saves_s", "s"),
    ("compiler.split_s", "s"),
    ("compiler.form_regions_s", "s"),
    ("compiler.insert_checkpoints_s", "s"),
    ("compiler.prune_slices_s", "s"),
    ("compiler.validate_s", "s"),
    ("compiler.autofence_s", "s"),
    ("compiler.insts_in", "count"),
    ("compiler.insts_out", "count"),
    ("compiler.boundaries", "count"),
    ("compiler.ckpts_pruned", "count"),
    ("analyzer.i1_idem_s", "s"),
    ("analyzer.i2i3_ckpt_s", "s"),
    ("analyzer.i4_structure_s", "s"),
    ("analyzer.lints_s", "s"),
    ("analyzer.interproc_s", "s"),
    ("analyzer.i5_races_s", "s"),
    ("analyzer.i6_persist_s", "s"),
    ("analyzer.report_s", "s"),
    ("analyzer.incremental_s", "s"),
    ("analyzer.incr_hit_frac", "frac"),
    ("analyzer.functions", "count"),
    ("analyzer.errors", "count"),
    ("core.genprog_s", "s"),
    ("core.recover_s", "s"),
    ("core.replayed_steps", "count"),
    ("core.reverted_records", "count"),
    ("core.replay_frac", "frac"),
    ("obs.flight_open_s", "s"),
    ("obs.flight_read_s", "s"),
    ("obs.forensics_s", "s"),
    ("obs.flight_records", "count"),
    ("obs.flight_bytes", "B"),
    ("obs.crosscheck_match_frac", "frac"),
    ("store.spine_open_s", "s"),
    ("store.spine_fill_s", "s"),
    ("store.lookup_s", "s"),
    ("store.disk_hit_frac", "frac"),
    ("store.tier_faults", "count"),
    ("store.tier_evictions", "count"),
    ("store.tier_writeback_s", "s"),
    ("store.tier_slowdown", "x"),
    ("trace.layer_cover_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
    ("cwsp_slowdown_gmean", "x"),
    ("cwsp_slowdown_abs_err_vs_paper", "frac"),
    ("op_samples", "count"),
];

pub struct Ctx {
    pub seed: u64,
    pub root: PathBuf,
    out: PathBuf,
}

impl Ctx {
    /// A fresh private directory under the output directory, named after
    /// `stem`, the process and a counter.
    pub fn private_dir(&self, stem: &str) -> Result<PathBuf, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = self
            .out
            .join("tmp")
            .join(format!("{stem}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One benchmark workload: inputs built from the seed, and a pass of
/// operations over them.
pub trait Workload: Sized {
    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUPS: usize;
    fn setup(ctx: &Ctx, tr: &mut Tracer, ops: &mut Ops) -> Result<Self, String>;
    /// Reset state a timed phase builds up, so phases start alike.
    fn begin(&mut self) {}
    /// One pass: the same work on every pass, in a seeded order.
    fn pass(&mut self, ctx: &Ctx, pass: u64, tr: &mut Tracer, ops: &mut Ops);
}

/// A run's result: the metrics in report order, and its operation counts.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Untraced runs: the host's speed and how many samples it rests on.
    host_speed: Option<(f64, usize)>,
}

/// Whether a phase that has run `passes` passes and `ops` operations in
/// `spent` seconds of CPU time should stop: it has done at least one pass
/// and [`MIN_OPS`] operations, and another pass would end past `seconds`.
fn phase_done(passes: u64, ops: usize, spent: f64, seconds: f64) -> bool {
    passes > 0 && ops >= MIN_OPS && spent * (passes + 1) as f64 / passes as f64 > seconds
}

/// Run whole untraced passes for about `seconds` of CPU time; returns the
/// CPU seconds spent.
fn timed<W: Workload>(w: &mut W, ctx: &Ctx, seconds: f64, ops: &mut Ops) -> f64 {
    w.begin();
    let cpu = host::cpu_ns();
    let spent = || (host::cpu_ns() - cpu) as f64 / 1e9;
    let mut p = 0;
    while !phase_done(p, ops.lat_ns.len(), spent(), seconds) {
        w.pass(ctx, p, &mut Tracer::off(), ops);
        p += 1;
    }
    spent()
}

/// Nearest-rank percentile of `xs` (sorted in place), `p` in 0..=100.
fn percentile(xs: &mut [u64], p: f64) -> u64 {
    xs.sort_unstable();
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn untraced<W: Workload>(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let mut meter = host::Speedometer::new();
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..W::SETUPS {
        drop(w.take());
        let t = host::cpu_ns();
        w = Some(W::setup(ctx, &mut Tracer::off(), &mut Ops::new(false))?);
        setup_s.push((host::cpu_ns() - t) as f64 / 1e9);
        meter.sample();
    }
    let mut w = w.expect("at least one set-up");
    let mut ops = Ops::new(false);
    let sampling_ns = meter.own_ns;
    ops.speed = Some(meter);
    let cpu_s = timed(&mut w, ctx, seconds, &mut ops);
    drop(w);
    let meter = ops.speed.take().expect("the phase's speedometer");
    // Every time is given at the reference host's speed; the sampling's own
    // CPU time is not the workload's.
    let speed = meter.speed();
    let busy_s = cpu_s - (meter.own_ns - sampling_ns) as f64 / 1e9;
    let n = ops.lat_ns.len();
    let metrics = vec![
        median(&mut setup_s) * speed,
        n as f64 / (busy_s * speed),
        percentile(&mut ops.lat_ns, 50.0) as f64 * speed / 1e6,
        percentile(&mut ops.lat_ns, 90.0) as f64 * speed / 1e6,
        host::peak_rss_mb(),
    ];
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .zip(metrics)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        attempted: n as u64,
        failed: ops.failed,
        first_error: ops.first_error,
        host_speed: Some((speed, meter.count())),
    })
}

fn traced<W: Workload>(ctx: &Ctx, seconds: f64, name: &str) -> Result<Outcome, String> {
    let mut tr = Tracer::on();
    let mut setup_ops = Ops::new(false);
    let t = Instant::now();
    let mut traced_w = tr.span("bench.setup", |tr| W::setup(ctx, tr, &mut setup_ops))?;
    let setup_wall = t.elapsed();
    let cursor = tr.cursor();

    // A second instance runs the same passes untraced. A process speeds up
    // over its first seconds as its heap settles, which would favour
    // whichever phase ran later: so each instance first runs one unmeasured
    // pass, and then the two alternate pass by pass.
    let mut plain_w = W::setup(ctx, &mut Tracer::off(), &mut Ops::new(false))?;
    for w in [&mut plain_w, &mut traced_w] {
        w.begin();
        w.pass(ctx, WARMUP_PASS, &mut Tracer::off(), &mut Ops::new(false));
        w.begin();
    }
    let (mut plain, mut ops) = (Ops::new(true), Ops::new(true));
    let (mut plain_wall, mut wall) = (Duration::ZERO, Duration::ZERO);
    let cpu = host::cpu_ns();
    let mut passes = 0;
    while !phase_done(
        passes,
        plain.lat_ns.len(),
        (host::cpu_ns() - cpu) as f64 / 1e9,
        seconds,
    ) {
        let t = Instant::now();
        plain_w.pass(ctx, passes, &mut Tracer::off(), &mut plain);
        plain_wall += t.elapsed();
        let t = Instant::now();
        tr.span("bench.pass", |tr| traced_w.pass(ctx, passes, tr, &mut ops));
        wall += t.elapsed();
        passes += 1;
    }
    drop((plain_w, traced_w));

    // The traced phase must reproduce the untraced one operation by operation.
    let (a, b) = (
        plain.sigs.take().unwrap_or_default(),
        ops.sigs.take().unwrap_or_default(),
    );
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        ops.fail(format!(
            "traced operation {i} produced a different result than untraced"
        ));
    }

    let all = tr.self_seconds_by_name(0);
    let timed_only = tr.self_seconds_by_name(cursor);
    let per_pass = |total: f64, timed: f64| (total - timed) + timed / passes as f64;
    let seconds_of = |name: &str| {
        let total = all.get(name).copied().unwrap_or(0.0);
        per_pass(total, timed_only.get(name).copied().unwrap_or(0.0))
    };
    let count_of = |name: &str| {
        setup_ops.counts.get(name).copied().unwrap_or(0.0)
            + ops.counts.get(name).copied().unwrap_or(0.0) / passes as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Compile time is reported whole: the pipeline's span plus its passes.
    let compile_s = per_pass(
        tr.inclusive_seconds("compiler.compile_s", 0),
        tr.inclusive_seconds("compiler.compile_s", cursor),
    );
    let attempted = (plain.lat_ns.len() + ops.lat_ns.len()) as u64;
    let failed = plain.failed + ops.failed;

    let mut metrics = Vec::new();
    for &(m, unit) in &PER_LAYER {
        let v = match m {
            "compiler.compile_s" => compile_s,
            "ir.fused_op_frac" => ratio(count_of("ir.fused_ops"), count_of("ir.decoded_ops")),
            "sim.flight_ns_per_inst" => ratio(
                seconds_of("sim.flight_run_s") * 1e9,
                count_of("sim.flight_insts"),
            ),
            "sim_minst_per_s" => ratio(ops.sim_insts as f64 * 1e3, ops.sim_ns as f64),
            "analyzer.incr_hit_frac" => {
                let h = count_of("analyzer.incr_hits");
                ratio(h, h + count_of("analyzer.incr_misses"))
            }
            "core.replay_frac" => ratio(
                count_of("core.replayed_steps"),
                count_of("core.prekill_steps"),
            ),
            "obs.crosscheck_match_frac" => ratio(
                count_of("obs.crosschecks_matched"),
                count_of("obs.crosschecks"),
            ),
            "store.disk_hit_frac" => ratio(count_of("store.disk_hits"), count_of("store.jobs")),
            "store.tier_slowdown" => ratio(
                seconds_of("sim.beyond_budgeted_s"),
                seconds_of("sim.beyond_unbounded_s"),
            ),
            "trace.layer_cover_frac" => {
                ratio(tr.layer_self_seconds(), (setup_wall + wall).as_secs_f64())
            }
            "trace.overhead_frac" => ratio(wall.as_secs_f64(), plain_wall.as_secs_f64()) - 1.0,
            "failed_frac" => ratio(failed as f64, attempted as f64),
            "op_samples" => ops.lat_ns.len() as f64,
            _ if ops.gauges.contains_key(m) => ops.gauges[m],
            _ if m.starts_with("sim.ns_per_inst.") => {
                let scheme = &m["sim.ns_per_inst.".len()..];
                let run = format!("sim.run_s.{scheme}");
                let insts = format!("sim.insts.{scheme}");
                ratio(seconds_of(&run) * 1e9, count_of(&insts))
            }
            _ if unit == "s" => seconds_of(m),
            _ => count_of(m),
        };
        metrics.push((m, v, unit));
    }
    let spans = ctx.out.join(format!("trace-{name}-seed{}.json", ctx.seed));
    if let Err(e) = std::fs::write(&spans, tr.to_chrome_json(TRACE_MAX_SPANS)) {
        eprintln!("perfbench: writing {}: {e}", spans.display());
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        first_error: plain.first_error.or(ops.first_error),
        host_speed: None,
    })
}

const WORKLOADS: [&str; 4] = [
    "figure_sweep",
    "crash_forensics",
    "static_lint",
    "store_rerun",
];

fn run(name: &str, ctx: &Ctx, seconds: f64, trace: bool) -> Result<Outcome, String> {
    macro_rules! go {
        ($w:ty) => {
            if trace {
                traced::<$w>(ctx, seconds, name)
            } else {
                untraced::<$w>(ctx, seconds)
            }
        };
    }
    match name {
        "figure_sweep" => go!(figure_sweep::FigureSweep),
        "crash_forensics" => go!(crash_forensics::CrashForensics),
        "static_lint" => go!(static_lint::StaticLint),
        "store_rerun" => go!(store_rerun::StoreRerun),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {WORKLOADS:?} or all"
        )),
    }
}

/// A number as JSON: every digit, and never NaN or infinite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result object: `metrics` are (name, value, unit).
fn result_json<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, &'a str)>,
) -> String {
    let mut m = String::new();
    for (i, (name, v, unit)) in metrics.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0,
    )
}

fn outcome_json(o: &Outcome) -> String {
    let metrics = o.metrics.iter().map(|&(n, v, u)| (n.to_string(), v, u));
    result_json(o.attempted, o.failed, metrics)
}

fn print_table(name: &str, trace: bool, o: &Outcome) {
    println!(
        "== {name} ({}): {} operations, {} failed",
        if trace { "traced" } else { "untraced" },
        o.attempted,
        o.failed
    );
    for (m, v, unit) in &o.metrics {
        println!("   {m:<32} {v:>16.6} {unit}");
    }
    if let Some((speed, n)) = o.host_speed {
        println!("   host speed {speed:.4} of the reference, from {n} samples");
    }
    if let Some(e) = &o.first_error {
        println!("   first failure: {e}");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", a.seconds));
    }
    Ok(a)
}

/// Keep runs independent of the caller's environment: drop every `CWSP_*`
/// knob, run simulated cores on one host thread, and keep spill files
/// inside the output directory. Spill files are written with positional
/// I/O rather than through a map: the map first extends each file to a
/// sparse 4 GiB, which a file-size limit (`ulimit -f`) answers by killing
/// the process with `SIGXFSZ`, and every flight recorder opens one.
fn pin_environment(out: &Path) -> Result<(), String> {
    let spill = out.join("spill");
    std::fs::create_dir_all(&spill).map_err(|e| format!("creating {}: {e}", spill.display()))?;
    let spill = spill.canonicalize().map_err(|e| e.to_string())?;
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("CWSP_") {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("CWSP_MC_THREADS", "1");
    std::env::set_var("CWSP_SPILL_DIR", spill);
    std::env::set_var("CWSP_SPILL_MMAP", "0");
    Ok(())
}

fn main() {
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    let _ = std::fs::remove_dir_all(Path::new(OUT_DIR).join("tmp"));
    std::process::exit(code);
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").is_dir() || !root.join("results").is_dir() {
        return Err(format!("{} is not the repository root", root.display()));
    }
    let out = root.join(OUT_DIR);
    pin_environment(&out)?;
    let ctx = Ctx {
        seed: args.seed,
        root,
        out,
    };
    let host = host::fingerprint(&ctx.root);
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };
    let mut outcomes = Vec::new();
    for (w, trace) in runs {
        let o = run(w, &ctx, args.seconds, trace)?;
        print_table(w, trace, &o);
        host::record(
            &ctx.out.join("results.jsonl"),
            &format!(
                "{{\"workload\": \"{w}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \"host_speed\": {}, \"result\": {}}}",
                args.seed,
                num(args.seconds),
                trace as u8,
                o.host_speed.map_or("null".into(), |(s, _)| num(s)),
                outcome_json(&o)
            ),
        );
        outcomes.push((w, trace, o));
    }
    // One run prints its own result; `all` prints every run's metrics,
    // prefixed with the workload's name.
    let last = if let [(_, _, o)] = outcomes.as_slice() {
        outcome_json(o)
    } else {
        let attempted = outcomes.iter().map(|(_, _, o)| o.attempted).sum();
        let failed = outcomes.iter().map(|(_, _, o)| o.failed).sum();
        let metrics = outcomes.iter().flat_map(|(w, _, o)| {
            o.metrics
                .iter()
                .map(move |&(m, v, u)| (format!("{w}/{m}"), v, u))
        });
        result_json(attempted, failed, metrics)
    };
    println!("{last}");
    Ok(outcomes.iter().all(|(_, _, o)| o.failed == 0))
}
