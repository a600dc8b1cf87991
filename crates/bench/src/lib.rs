//! # cwsp-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§IX); see
//! DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
//! values. This library holds the shared plumbing: run a workload to
//! completion under a scheme, normalize against the uninstrumented baseline,
//! and print figure-shaped tables.
//!
//! Measurements route through [`engine`] — a parallel, memoizing experiment
//! engine — so figure binaries fan out over all cores, share baselines and
//! compiled modules, and reuse results across processes via a JSON cache
//! under `results/cache/`. Per-figure stdout stays byte-identical to the old
//! serial harness.

pub mod engine;
pub mod fingerprint;
pub mod forensics;
pub mod fuzz;
pub mod json;

use cwsp_compiler::pipeline::CompileOptions;
use cwsp_ir::interp::InterpError;
use cwsp_sim::config::SimConfig;
use cwsp_sim::machine::Machine;
use cwsp_sim::scheme::Scheme;
use cwsp_sim::stats::SimStats;
use cwsp_workloads::{Suite, Workload};

pub use engine::{engine, harness_main, par_map, worker_count};

/// Every figure/table binary that owns a committed golden under `results/`.
/// One entry per `results/<name>.txt`; `tests/figure_registry.rs` asserts the
/// golden directory and this list never drift apart (the `cwsp-lint` and
/// `profile` binaries are diagnostic tools, not figures, and have no
/// goldens). Keep sorted.
pub const FIGURES: &[&str] = &[
    "ablation_granularity",
    "ablation_pruning_tiers",
    "fig01_cxl_hierarchy",
    "fig06_wb_occupancy",
    "fig08_wpq_hits",
    "fig13_overhead",
    "fig14_wsp_comparison",
    "fig15_ablation",
    "fig17_cxl_devices",
    "fig18_psp_comparison",
    "fig19_region_size",
    "fig20_l3_hierarchy",
    "fig21_bandwidth_sweep",
    "fig22_rbt_sweep",
    "fig23_latency_sweep",
    "fig24_wb_sweep",
    "fig25_pb_sweep",
    "fig26_wpq_sweep",
    "fig27_nvm_tech",
    "fig_autofence",
    "fig_beyond_ram",
    "list_workloads",
    "summary",
    "table1_cxl_devices",
    "table_energy",
    "table_hw_overhead",
];

/// One measured data point.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Suite the app belongs to.
    pub suite: Suite,
    /// App label.
    pub name: &'static str,
    /// The measured value (slowdown, occupancy, …).
    pub value: f64,
}

/// Run `module` to completion under `scheme` and return its stats.
///
/// With `CWSP_TRACE` on (`1`, or a ring capacity above 1) the machine
/// records its event ring while running — stdout is untouched, so figure
/// output stays byte-identical; the trace is only exported when
/// `CWSP_TRACE_OUT` names a directory, as one Chrome trace-event JSON file
/// per simulated run.
///
/// # Errors
/// Propagates interpreter traps.
pub fn run_to_completion(
    module: &cwsp_ir::module::Module,
    cfg: &SimConfig,
    scheme: Scheme,
) -> Result<SimStats, InterpError> {
    let mut machine = Machine::new(module, cfg, scheme);
    let c = cwsp_store::config::get();
    if let Some(cap) = c.trace {
        machine.enable_trace(cap);
    }
    let r = machine.run(u64::MAX, None)?;
    if let (Some(_), Some(dir)) = (c.trace, &c.trace_out) {
        export_trace(&machine, dir, &module.name, scheme);
    }
    Ok(r.stats)
}

fn export_trace(machine: &Machine, dir: &std::path::Path, module_name: &str, scheme: Scheme) {
    let Some(chrome) = machine.chrome_trace() else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let file = format!("{module_name}_{}.trace.json", scheme.name());
    let _ = std::fs::write(dir.join(file), chrome.to_json());
}

/// Baseline cycles: the *original* (uncompiled) program on the original
/// machine — the paper's normalization denominator. Memoized by the engine,
/// so every figure in a process shares one baseline run per (app, config).
pub fn baseline_cycles(w: &Workload, cfg: &SimConfig) -> u64 {
    engine::engine()
        .stats(w.name, &w.module, cfg, Scheme::Baseline)
        .cycles
}

/// Scheme cycles: the cWSP-compiled program under `scheme`. Compilation and
/// simulation are both memoized by content.
pub fn scheme_stats(
    w: &Workload,
    cfg: &SimConfig,
    scheme: Scheme,
    opts: CompileOptions,
) -> SimStats {
    let compiled = engine::engine().compiled(&w.module, opts);
    engine::engine().stats(w.name, &compiled.module, cfg, scheme)
}

/// Memoized stats for an arbitrary (module, config, scheme) triple — the
/// engine-backed replacement for direct [`run_to_completion`] calls in
/// figure binaries (Figs 1 and 18 run probe modules without compilation).
pub fn cached_stats(
    name: &str,
    module: &cwsp_ir::module::Module,
    cfg: &SimConfig,
    scheme: Scheme,
) -> SimStats {
    engine::engine().stats(name, module, cfg, scheme)
}

/// Normalized slowdown of `scheme` (compiled binary) over the baseline
/// (original binary) for one workload.
pub fn slowdown(w: &Workload, cfg: &SimConfig, scheme: Scheme, opts: CompileOptions) -> f64 {
    let base = baseline_cycles(w, cfg) as f64;
    let s = scheme_stats(w, cfg, scheme, opts).cycles as f64;
    s / base
}

/// Geometric mean.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Geometric means per suite plus the all-suite gmean, in suite order.
pub fn suite_gmeans(results: &[AppResult]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for suite in [
        Suite::Cpu2006,
        Suite::Cpu2017,
        Suite::MiniApps,
        Suite::Splash3,
        Suite::Whisper,
        Suite::Stamp,
    ] {
        let vals: Vec<f64> = results
            .iter()
            .filter(|r| r.suite == suite)
            .map(|r| r.value)
            .collect();
        if !vals.is_empty() {
            out.push((suite.to_string(), gmean(&vals)));
        }
    }
    let all: Vec<f64> = results.iter().map(|r| r.value).collect();
    out.push(("All gmean".to_string(), gmean(&all)));
    out
}

/// Print per-app rows followed by suite gmeans, figure-style.
pub fn print_results(title: &str, unit: &str, results: &[AppResult]) {
    println!("\n=== {title} ===");
    let mut cur_suite = None;
    for r in results {
        if cur_suite != Some(r.suite) {
            cur_suite = Some(r.suite);
            println!("-- {}", r.suite);
        }
        println!("   {:<12} {:>8.3} {unit}", r.name, r.value);
    }
    println!("--");
    for (label, v) in suite_gmeans(results) {
        println!("   {label:<12} {v:>8.3} {unit} (gmean)");
    }
}

/// Measure `metric` for every workload in `apps`, fanned out over the engine
/// pool (prints progress to stderr). Results return in `apps` order, so
/// printed figures are byte-identical to the serial harness; `metric` must
/// be `Fn + Sync` because workers share it.
pub fn measure_all(apps: &[Workload], metric: impl Fn(&Workload) -> f64 + Sync) -> Vec<AppResult> {
    engine::par_map(apps, |w| {
        eprintln!("  running {:>9}/{}", w.suite.to_string(), w.name);
        AppResult {
            suite: w.suite,
            name: w.name,
            value: metric(w),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert_eq!(gmean(&[]), 0.0);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn suite_gmeans_include_all() {
        let rs = vec![
            AppResult {
                suite: Suite::Cpu2006,
                name: "a",
                value: 1.1,
            },
            AppResult {
                suite: Suite::Stamp,
                name: "b",
                value: 1.2,
            },
        ];
        let g = suite_gmeans(&rs);
        assert_eq!(g.len(), 3, "two suites + all");
        assert_eq!(g.last().unwrap().0, "All gmean");
    }

    #[test]
    fn slowdown_of_baseline_scheme_is_above_one_for_compiled() {
        // Compiled binary has extra instructions, so even Scheme::Baseline on
        // it is >= 1.0 relative to the original binary.
        let w = cwsp_workloads::by_name("namd").unwrap();
        let cfg = SimConfig::default();
        let s = slowdown(&w, &cfg, Scheme::Baseline, CompileOptions::default());
        assert!(s >= 1.0, "{s}");
        assert!(s < 2.0, "{s}");
    }
}
