//! An atomic's return value survives a power failure.
//!
//! The compiler follows every `rD = xadd/cas …` with `ckpt rD` and a
//! boundary whose recovery slice reloads `rD` from its checkpoint slot.
//! When the atomic commits, recovery resumes at that `ckpt`; a kill before
//! the `ckpt` store drains to NVM used to reload a stale slot, keeping the
//! atomic's effect but losing its result. These genprog seeds each had one
//! 21-cycle window of such kills, starting at the atomic's commit cycle.

use cwsp::core::genprog::generate_default;
use cwsp::core::system::CwspSystem;
use cwsp::core::verify::check_crash_consistency;
use cwsp::obs::flight::FlightKind;
use cwsp::sim::machine::{Machine, RunEnd};
use cwsp::sim::scheme::Scheme;

const SEEDS: [u64; 5] = [
    28,
    40,
    5_769_122_889_592_182_969,
    17_942_091_338_229_158_246,
    13_574_421_664_099_009_506,
];

/// Cycles swept after each commit: the 21-cycle window plus margin.
const WINDOW: u64 = 32;

/// The cycles at which the fault-free run committed an atomic or fence.
fn sync_commit_cycles(system: &CwspSystem) -> Vec<u64> {
    let mut m = Machine::new(&system.compiled.module, &system.config, Scheme::cwsp());
    m.enable_flight().expect("flight journal");
    let r = m.run(u64::MAX, None).expect("fault-free run");
    assert_eq!(r.end, RunEnd::Completed);
    m.flight_records()
        .iter()
        .filter(|r| r.kind == FlightKind::SyncCommit)
        .map(|r| r.cycle)
        .collect()
}

#[test]
fn kills_after_an_atomic_commits_keep_its_result() {
    for seed in SEEDS {
        let system = CwspSystem::compile(&generate_default(seed));
        let commits = sync_commit_cycles(&system);
        assert!(!commits.is_empty(), "seed {seed} commits an atomic");
        for c in commits {
            for kill in c..c + WINDOW {
                let r = check_crash_consistency(&system, kill)
                    .unwrap_or_else(|e| panic!("seed {seed} kill@{kill}: {e}"));
                assert!(
                    r.recovered_matches_oracle,
                    "seed {seed} kill@{kill} (atomic committed @{c}): {}",
                    r.divergence.unwrap_or_default()
                );
            }
        }
    }
}
