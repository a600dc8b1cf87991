//! `SimStats` internal-consistency invariants, checked over generated
//! programs across every scheme: the op mix must sum to the instruction
//! count, no stall counter may exceed `cycles × cores`, the region-size
//! histogram must total the region count, and L1 hits + misses must match
//! the cache-walked memory operations.
//!
//! The checks themselves live in `SimStats::check_invariants` so figure
//! binaries and other tests can reuse them; this suite drives them over a
//! spread of `genprog` workloads, both raw and cWSP-compiled.

use cwsp::compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp::core::genprog::generate_default;
use cwsp::sim::config::SimConfig;
use cwsp::sim::machine::{Machine, RunEnd};
use cwsp::sim::scheme::Scheme;

fn run_and_check(module: &cwsp::ir::Module, scheme: Scheme, label: &str) {
    let cfg = SimConfig::default();
    let mut machine = Machine::new(module, &cfg, scheme);
    let r = machine
        .run(u64::MAX, None)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(r.end, RunEnd::Completed, "{label}");
    let cores = cfg.cores as u64;
    if let Err(msg) = r.stats.check_invariants(cores) {
        panic!("{label}:\n{msg}");
    }
}

#[test]
fn generated_programs_satisfy_stats_invariants_under_every_scheme() {
    for seed in [3, 17, 42, 99] {
        let m = generate_default(seed);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
        for scheme in [
            Scheme::Baseline,
            Scheme::cwsp(),
            Scheme::Capri,
            Scheme::ReplayCache,
            Scheme::IdealPsp,
        ] {
            // The raw program on the baseline machine, and the compiled one
            // under the persistence scheme — both must be self-consistent.
            run_and_check(&m, Scheme::Baseline, &format!("gen-{seed} raw"));
            run_and_check(
                &compiled.module,
                scheme,
                &format!("gen-{seed} compiled/{}", scheme.name()),
            );
        }
    }
}

#[test]
fn real_workloads_satisfy_stats_invariants() {
    for name in ["namd", "rb", "sps"] {
        let w = cwsp::workloads::by_name(name).unwrap();
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&w.module);
        run_and_check(&compiled.module, Scheme::cwsp(), name);
    }
}

#[test]
fn invariant_checker_rejects_corrupted_stats() {
    let m = generate_default(7);
    let cfg = SimConfig::default();
    let mut machine = Machine::new(&m, &cfg, Scheme::Baseline);
    let r = machine.run(u64::MAX, None).unwrap();
    let mut s = r.stats.clone();
    s.insts += 1; // now op_mix cannot sum to insts
    let err = s.check_invariants(cfg.cores as u64).unwrap_err();
    assert!(err.contains("op_mix"), "{err}");
}

/// The fast path (fused superblock bursts, event-horizon idle skip) is a
/// dispatch optimization, not a semantic change. A profiled machine issues
/// every op through `advance_core_once` and never idle-skips, so it is the
/// machine-level reference: both must report a byte-identical `SimStats` —
/// same cycles, same per-opcode `op_mix`, same stall and occupancy counters
/// — on completed runs and at power-failure cuts alike. Besides an early
/// cut at cycle 1 000, the cuts sit at ⅓ and ⅔ of each run's fault-free
/// cycle count, so every module and scheme exercises the cut path.
///
/// Both machines carry a trace ring and a flight journal, so the fast path
/// here issues its fused bursts with both consumers of the persist-event
/// stream attached; the ring's post-mortem, its Chrome JSON and the journal
/// must match the profiled reference too.
#[test]
fn fast_path_and_profiled_machines_report_identical_stats() {
    const RING: usize = 1 << 16;
    for seed in [7, 21, 63] {
        let m = generate_default(seed);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
        let cfg = SimConfig::default();
        for scheme in [
            Scheme::Baseline,
            Scheme::cwsp(),
            Scheme::Capri,
            Scheme::ReplayCache,
        ] {
            let check = |crash: Option<u64>| {
                let label = format!("gen-{seed}/{}/crash={crash:?}", scheme.name());
                let observed = |profiled: bool| {
                    let mut m = Machine::new(&compiled.module, &cfg, scheme);
                    if profiled {
                        m.enable_profiler();
                    }
                    m.enable_trace(RING);
                    m.enable_flight().expect("journal opens");
                    let r = m
                        .run(u64::MAX, crash)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let ring = m.trace().expect("ring attached").post_mortem(RING);
                    let chrome = m.chrome_trace().expect("ring attached").to_json();
                    (r, ring, chrome, m.flight_records())
                };
                let (rf, ring_f, chrome_f, journal_f) = observed(false);
                let (rp, ring_p, chrome_p, journal_p) = observed(true);
                assert_eq!(rf.end, rp.end, "{label}");
                assert_eq!(rf.stats, rp.stats, "{label}");
                assert!(ring_f == ring_p, "{label}: ring post-mortems differ");
                assert!(chrome_f == chrome_p, "{label}: Chrome traces differ");
                assert!(journal_f == journal_p, "{label}: journals differ");
                if let Err(msg) = rf.stats.check_invariants(cfg.cores as u64) {
                    panic!("{label}:\n{msg}");
                }
                (rf.end, rf.stats.cycles, label)
            };
            let (end, cycles, label) = check(None);
            assert_eq!(end, RunEnd::Completed, "{label}");
            for crash in [1_000, cycles / 3, cycles * 2 / 3] {
                let (end, _, label) = check(Some(crash));
                assert_eq!(end, RunEnd::PowerFailure, "{label}");
            }
        }
    }
}
