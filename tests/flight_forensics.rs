//! Flight recorder + crash forensics, end to end over real workloads.
//!
//! Four claims are pinned here:
//! 1. a disabled recorder is invisible — simulated statistics and output are
//!    byte-identical with the recorder attached or absent;
//! 2. the forensic frontier is *exact*: across hundreds of seeded power-fail
//!    injections, the report's predicted replay set matches the ordered
//!    write log of the actual recovery replay, address for address;
//! 3. the journal is crash-survivable — a directory-backed journal written
//!    through the spill store reads back from disk after the machine died;
//! 4. the journal does not depend on how the machine advanced time — the
//!    idle-skip fast-forward and the cycle-by-cycle path record the same
//!    events at the same cycles in the same order.

use cwsp::core::system::CwspSystem;
use cwsp::obs::flight::{read_journal, FlightKind, FlightRecorder};
use cwsp::obs::forensics::StoreFate;
use cwsp::sim::config::SimConfig;
use cwsp::sim::machine::Machine;
use cwsp::sim::scheme::Scheme;

#[test]
fn recorder_is_invisible_to_simulated_results() {
    for name in ["tatp", "kmeans"] {
        let w = cwsp::workloads::by_name(name).unwrap();
        let system = CwspSystem::compile(&w.module);
        let cfg = SimConfig::default();
        let mut off = Machine::new(&system.compiled.module, &cfg, Scheme::cwsp());
        let r_off = off.run(150_000, None).unwrap();
        let mut on = Machine::new(&system.compiled.module, &cfg, Scheme::cwsp());
        on.enable_flight().unwrap();
        let r_on = on.run(150_000, None).unwrap();
        assert_eq!(r_off.end, r_on.end, "{name}: run end");
        assert_eq!(r_off.stats, r_on.stats, "{name}: stats must be invariant");
        assert_eq!(off.output(), on.output(), "{name}: output");
        assert!(
            !on.flight_records().is_empty(),
            "{name}: the recorder did record"
        );
    }
}

/// The idle-skip fast-forward defers WPQ pops to the tick after the skip;
/// the journal must still carry each NVM commit at its media-commit cycle,
/// in cycle-by-cycle order. A profiled machine never idle-skips, so its
/// journal is the reference.
#[test]
fn idle_skip_journals_commits_like_the_cycle_by_cycle_path() {
    for name in ["tatp", "kmeans", "radix"] {
        let w = cwsp::workloads::by_name(name).unwrap();
        let system = CwspSystem::compile(&w.module);
        let cfg = SimConfig::default();
        let journal = |profiled: bool| {
            let mut m = Machine::new(&system.compiled.module, &cfg, Scheme::cwsp());
            if profiled {
                m.enable_profiler();
            }
            m.enable_flight().unwrap();
            m.run(50_000_000, None).unwrap();
            m.flight_records()
        };
        let (skipping, reference) = (journal(false), journal(true));
        let commits = reference
            .iter()
            .filter(|r| r.kind == FlightKind::NvmCommit)
            .count();
        assert!(commits > 0, "{name}: no NVM commits journaled");
        assert_eq!(skipping.len(), reference.len(), "{name}: record count");
        let first = skipping.iter().zip(&reference).position(|(a, b)| a != b);
        assert_eq!(
            first,
            None,
            "{name}: journals differ first at record {first:?}: {:?} vs {:?}",
            first.map(|i| skipping[i]),
            first.map(|i| reference[i]),
        );
    }
}

/// The acceptance bar: >= 200 effective seeded kill-cycle injections across
/// >= 3 workloads, every one with an exactly-matching replay prediction.
#[test]
fn frontier_prediction_matches_replay_oracle_across_injections() {
    let mut checked = 0usize;
    for (wi, name) in ["tatp", "kmeans", "radix"].iter().enumerate() {
        let w = cwsp::workloads::by_name(name).unwrap();
        let system = CwspSystem::compile(&w.module);
        // Deterministic LCG schedule of kill cycles, distinct per workload.
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15 ^ (wi as u64).wrapping_mul(0xda94);
        for _ in 0..80 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kill = 50 + (s >> 33) % 40_000;
            let inv = system
                .investigate_crash(kill, 50_000_000)
                .unwrap_or_else(|e| panic!("{name} crash@{kill}: {e}"));
            if inv.completed {
                continue;
            }
            let rep = inv.report.unwrap();
            assert!(
                rep.all_matched(),
                "{name} crash@{kill}: frontier/replay divergence: {:?}",
                rep.cross_checks
            );
            checked += 1;
        }
    }
    assert!(checked >= 200, "only {checked} effective injections");
}

#[test]
fn forensic_report_accounts_for_every_journaled_store() {
    let w = cwsp::workloads::by_name("tatp").unwrap();
    let system = CwspSystem::compile(&w.module);
    let inv = system.investigate_crash(20_000, 50_000_000).unwrap();
    assert!(!inv.completed);
    let rep = inv.report.unwrap();
    assert_eq!(rep.power_fail_cycle, Some(rep.crash_cycle));
    let c = rep.counts();
    let classified = c.committed + c.in_wpq + c.in_path + c.in_pb + c.reverted;
    assert_eq!(
        classified,
        rep.stores.len() as u64,
        "every store has exactly one fate"
    );
    assert!(c.committed > 0, "a 20k-cycle run committed something");
    // Lost stores carry (function, region, cause) attribution.
    for s in rep.stores.iter().filter(|s| s.fate.is_lost()) {
        assert_ne!(rep.func_name(s.func), "?", "lost store lacks attribution");
    }
    // Renderings stay well-formed on real data.
    assert!(rep.to_text().contains("crash"));
    assert!(rep.to_json().starts_with('{'));
    assert!(rep.to_chrome().to_json().contains("traceEvents"));
}

#[test]
fn directory_backed_journal_survives_the_machine() {
    let dir = std::env::temp_dir().join(format!("cwsp-flight-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let w = cwsp::workloads::by_name("kmeans").unwrap();
    let system = CwspSystem::compile(&w.module);
    let path = {
        let mut m = Machine::new(&system.compiled.module, &system.config, Scheme::cwsp());
        m.attach_flight(FlightRecorder::create_in(&dir).unwrap());
        let r = m.run(u64::MAX, Some(15_000)).unwrap();
        assert_eq!(r.end, cwsp::sim::machine::RunEnd::PowerFailure);
        m.flight().unwrap().path().unwrap().to_path_buf()
        // machine dropped here — only the file remains
    };
    let records = read_journal(&path).unwrap();
    assert!(records.iter().any(|r| r.kind == FlightKind::StoreIssue));
    assert!(
        records
            .last()
            .is_some_and(|r| r.kind == FlightKind::PowerFail),
        "sealed journal ends with the power-fail record"
    );
    // A frontier-free reconstruction still classifies committed stores.
    let rep = cwsp::obs::forensics::ForensicReport::reconstruct(&records, Default::default());
    assert!(rep
        .stores
        .iter()
        .any(|s| s.fate == StoreFate::Committed || s.fate == StoreFate::InWpq));
    std::fs::remove_dir_all(&dir).ok();
}
