//! The experiment engine must be a pure performance layer: results obtained
//! through the parallel, memoizing engine (and through its disk cache) must
//! be bit-identical to a direct serial `run_to_completion` — for every stats
//! field, not just cycles. Figures printed from memoized runs are otherwise
//! silently wrong.

use cwsp_bench::engine::{par_map, Engine};
use cwsp_bench::run_to_completion;
use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp_sim::config::SimConfig;
use cwsp_sim::scheme::Scheme;
use cwsp_sim::stats::SimStats;

/// Sample (workload, config, scheme) triples spanning the figure space:
/// default machine, bandwidth-starved machine, tiny queues, and each scheme.
fn sample_triples() -> Vec<(&'static str, SimConfig, Scheme)> {
    let starved = SimConfig {
        persist_path_gbps: 1.0,
        ..SimConfig::default()
    };
    let tiny = SimConfig {
        rbt_entries: 4,
        wpq_entries: 4,
        ..SimConfig::default()
    };
    vec![
        ("lbm", SimConfig::default(), Scheme::cwsp()),
        ("xz", starved, Scheme::cwsp()),
        ("radix", tiny, Scheme::cwsp()),
        ("kmeans", SimConfig::default(), Scheme::Capri),
        ("tatp", SimConfig::default(), Scheme::ReplayCache),
    ]
}

fn serial_stats(name: &str, cfg: &SimConfig, scheme: Scheme) -> (SimStats, SimStats) {
    let w = cwsp_workloads::by_name(name).unwrap();
    let base = run_to_completion(&w.module, cfg, Scheme::Baseline).unwrap();
    let compiled = CwspCompiler::new(CompileOptions::default()).compile(&w.module);
    let s = run_to_completion(&compiled.module, cfg, scheme).unwrap();
    (base, s)
}

#[test]
fn engine_results_are_bit_identical_to_serial_runs() {
    let engine = Engine::in_memory();
    let triples = sample_triples();
    // Drive the engine the way figure binaries do: in parallel, twice (the
    // second sweep exercises the memo), then compare against direct serial
    // runs field-for-field.
    for _round in 0..2 {
        let engine_results: Vec<(SimStats, SimStats)> = par_map(&triples, |(name, cfg, scheme)| {
            let w = cwsp_workloads::by_name(name).unwrap();
            let base = engine.stats(name, &w.module, cfg, Scheme::Baseline);
            let compiled = engine.compiled(&w.module, CompileOptions::default());
            let s = engine.stats(name, &compiled.module, cfg, *scheme);
            (base, s)
        });
        for ((name, cfg, scheme), (ebase, es)) in triples.iter().zip(&engine_results) {
            let (base, s) = serial_stats(name, cfg, *scheme);
            assert_eq!(
                *ebase, base,
                "{name}: baseline stats diverged from serial run"
            );
            assert_eq!(
                *es,
                s,
                "{name}/{}: scheme stats diverged from serial run",
                scheme.name()
            );
        }
    }
    let c = engine.counters();
    assert_eq!(
        c.jobs, 20,
        "two rounds x five triples x (baseline + scheme)"
    );
    assert_eq!(c.memo_hits, 10, "entire second round memoized");
}

#[test]
fn disk_cached_results_are_bit_identical_too() {
    let dir = std::env::temp_dir().join(format!("cwsp-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (name, cfg, scheme) = ("lu-cg", SimConfig::default(), Scheme::cwsp());
    let w = cwsp_workloads::by_name(name).unwrap();
    let compiled = CwspCompiler::new(CompileOptions::default()).compile(&w.module);

    let writer = Engine::with_spine(dir.clone());
    assert!(writer.uses_spine());
    let first = writer.stats(name, &compiled.module, &cfg, scheme);
    // A fresh engine must reconstruct the exact stats from the spine.
    let reader = Engine::with_spine(dir.clone());
    let from_disk = reader.stats(name, &compiled.module, &cfg, scheme);
    assert_eq!(
        reader.counters().disk_hits,
        1,
        "second engine read the spine"
    );
    assert_eq!(from_disk, first);
    assert_eq!(
        from_disk,
        run_to_completion(&compiled.module, &cfg, scheme).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slowdowns_printed_by_figures_match_serial_to_full_precision() {
    // The figure binaries print slowdowns with {:.3}; require bit-equality of
    // the f64 itself, which is strictly stronger.
    let cfg = SimConfig::default();
    let engine = Engine::in_memory();
    for name in ["lbm", "raytrace", "vacation"] {
        let w = cwsp_workloads::by_name(name).unwrap();
        let (base, s) = serial_stats(name, &cfg, Scheme::cwsp());
        let serial_slowdown = s.cycles as f64 / base.cycles as f64;
        let ebase = engine.stats(name, &w.module, &cfg, Scheme::Baseline);
        let ec = engine.compiled(&w.module, CompileOptions::default());
        let es = engine.stats(name, &ec.module, &cfg, Scheme::cwsp());
        let engine_slowdown = es.cycles as f64 / ebase.cycles as f64;
        assert_eq!(
            serial_slowdown.to_bits(),
            engine_slowdown.to_bits(),
            "{name}: slowdown diverged"
        );
    }
}
