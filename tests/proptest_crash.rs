//! Property tests: crash consistency must hold for *arbitrary* structured
//! programs and *arbitrary* crash cycles, pruned or not. This is the
//! repository's strongest evidence that the compiler + hardware + recovery
//! protocol compose soundly.
//!
//! Cases are deterministic, SplitMix64-driven samples of the (spec, seed,
//! crash cycle, pruning) space, so every run checks the same programs and a
//! failure names its seed.

use cwsp::compiler::pipeline::CompileOptions;
use cwsp::core::genprog::{generate, ProgramSpec};
use cwsp::core::prng::SplitMix64;
use cwsp::core::system::CwspSystem;
use cwsp::core::verify::check_crash_consistency;
use cwsp::sim::config::SimConfig;

/// Deterministically sample a [`ProgramSpec`] from one RNG draw sequence.
fn sample_spec(r: &mut SplitMix64) -> ProgramSpec {
    ProgramSpec {
        globals: r.range_u64(1, 4) as usize,
        global_words: r.range_u64(4, 32),
        segments: r.range_u64(4, 14) as usize,
        max_trip: r.range_u64(2, 10),
        calls: r.chance(0.5),
    }
}

#[test]
fn sampled_programs_survive_sampled_crashes() {
    let mut r = SplitMix64::seed_from_u64(0xC5A5);
    for case in 0..24 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 10_000);
        let crash_cycle = r.range_u64(0, 20_000);
        let pruning = r.chance(0.5);
        let module = generate(&spec, seed);
        let system = CwspSystem::compile_with(
            &module,
            CompileOptions {
                pruning,
                ..Default::default()
            },
            SimConfig::default(),
        );
        let report = check_crash_consistency(&system, crash_cycle)
            .unwrap_or_else(|e| panic!("case {case} seed {seed}: {e}"));
        assert!(
            report.recovered_matches_oracle,
            "case {case} seed {seed} crash@{crash_cycle} pruning={pruning}: {:?}",
            report.divergence
        );
    }
}

#[test]
fn sampled_programs_survive_crashes_on_tiny_hardware() {
    // Tiny queues force every stall path (PB full, RBT full, WPQ full).
    let cfg = SimConfig {
        rbt_entries: 2,
        pb_entries: 3,
        wpq_entries: 2,
        persist_path_gbps: 0.5,
        ..SimConfig::default()
    };
    let mut r = SplitMix64::seed_from_u64(0x71A9);
    for case in 0..12 {
        let seed = r.range_u64(0, 10_000);
        let crash_cycle = r.range_u64(0, 8_000);
        let module = generate(&ProgramSpec::default(), seed);
        let system = CwspSystem::compile_with(&module, CompileOptions::default(), cfg.clone());
        let report = check_crash_consistency(&system, crash_cycle)
            .unwrap_or_else(|e| panic!("case {case} seed {seed}: {e}"));
        assert!(
            report.recovered_matches_oracle,
            "case {case} seed {seed} crash@{crash_cycle}: {:?}",
            report.divergence
        );
    }
}

#[test]
fn sampled_compiled_programs_keep_oracle_semantics() {
    let mut r = SplitMix64::seed_from_u64(0x5EED);
    for case in 0..10 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 50_000);
        let module = generate(&spec, seed);
        let oracle = cwsp::ir::interp::run(&module, 3_000_000)
            .unwrap_or_else(|e| panic!("case {case} oracle: {e}"));
        for pruning in [true, false] {
            let c = cwsp::compiler::pipeline::CwspCompiler::new(CompileOptions {
                pruning,
                ..Default::default()
            })
            .compile(&module);
            let out = cwsp::ir::interp::run(&c.module, 6_000_000)
                .unwrap_or_else(|e| panic!("case {case} compiled: {e}"));
            assert_eq!(
                out.return_value, oracle.return_value,
                "case {case} seed {seed}"
            );
            assert_eq!(out.output, oracle.output, "case {case} seed {seed}");
        }
    }
}

#[test]
fn dynamic_invariants_hold_for_sampled_programs() {
    let mut r = SplitMix64::seed_from_u64(0x1D0);
    for case in 0..10 {
        let seed = r.range_u64(0, 50_000);
        let module = generate(&ProgramSpec::default(), seed);
        let c =
            cwsp::compiler::pipeline::CwspCompiler::new(CompileOptions::default()).compile(&module);
        cwsp::compiler::verify::check_antidependence(&c.module, 3_000_000)
            .unwrap_or_else(|e| panic!("case {case} seed {seed}: {e}"));
        cwsp::compiler::verify::check_slices(&c.module, &c.slices, 3_000_000)
            .unwrap_or_else(|e| panic!("case {case} seed {seed}: {e}"));
    }
}
