//! Power failures at the very end of a run.
//!
//! Let C be the cycle at which a module's fault-free cWSP run completes. A
//! kill at C must not crash a machine whose last region has already retired
//! and released its output (recovery would replay that region and release
//! its `out` words a second time), and a kill at C − 1 must not let the
//! idle fast-forward overshoot the kill cycle into the completed state.
//! Both kills must recover to the oracle.

use cwsp_core::genprog::generate_default;
use cwsp_core::system::CwspSystem;
use cwsp_core::verify::check_crash_consistency;
use cwsp_sim::scheme::Scheme;

/// Seeds whose kills at C − 1 or C released the final region's output
/// twice before the fix.
const REPORTED_SEEDS: [u64; 3] = [
    13017237455352289853,
    17942091338229158246,
    13574421664099009506,
];

/// Kill `seed`'s module at C − 1 and at C; return the first divergence.
fn end_kills_diverge(seed: u64) -> Option<String> {
    let system = CwspSystem::compile(&generate_default(seed));
    let run = system
        .simulate(Scheme::cwsp(), u64::MAX)
        .expect("fault-free run");
    let c = run.stats.cycles;
    for kill in [c.saturating_sub(1), c] {
        let r = check_crash_consistency(&system, kill)
            .unwrap_or_else(|e| panic!("seed {seed}, kill {kill} of C={c}: {e}"));
        if !r.recovered_matches_oracle {
            return Some(format!(
                "seed {seed}, kill {kill} of C={c}: {}",
                r.divergence.unwrap_or_default()
            ));
        }
    }
    None
}

#[test]
fn reported_seeds_recover_from_kills_at_completion() {
    for seed in REPORTED_SEEDS {
        if let Some(d) = end_kills_diverge(seed) {
            panic!("{d}");
        }
    }
}

#[test]
fn generated_corpus_recovers_from_kills_at_completion() {
    let diverged: Vec<String> = (0..200).filter_map(end_kills_diverge).collect();
    assert!(
        diverged.is_empty(),
        "{} of 200 modules diverged; first: {}",
        diverged.len(),
        diverged[0]
    );
}

#[test]
fn kill_at_completion_reports_a_completed_run() {
    let system = CwspSystem::compile(&generate_default(REPORTED_SEEDS[0]));
    let fault_free = system.simulate(Scheme::cwsp(), u64::MAX).unwrap();
    let c = fault_free.stats.cycles;
    let rec = system.run_with_crash(c, 50_000_000).unwrap();
    assert_eq!(rec.replayed_steps, 0, "nothing to replay after completion");
    assert_eq!(rec.output, fault_free.output);
}
