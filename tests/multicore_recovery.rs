//! §VIII "Recovery for Multi-Cores": DRF programs recover per-thread,
//! independently, from each core's own oldest unpersisted region.

use cwsp::compiler::pipeline::{CompileOptions, Compiled, CwspCompiler};
use cwsp::core::recovery::recover_multicore;
use cwsp::sim::config::SimConfig;
use cwsp::sim::machine::{Machine, RunEnd};
use cwsp::sim::scheme::Scheme;
use cwsp::workloads::multicore::{
    drf_partition_sum, expected_balance, expected_message, expected_sum, message_ring,
    spinlock_ledger, DEPOSITS, PARTITION_WORDS,
};

fn cores(n: u64) -> SimConfig {
    SimConfig {
        cores: n as usize,
        ..SimConfig::default()
    }
}

/// Cycles of the fault-free run: kill points are drawn below it, so every
/// kill fires.
fn fault_free_cycles(compiled: &Compiled, cfg: &SimConfig) -> u64 {
    let mut machine = Machine::new(&compiled.module, cfg, Scheme::cwsp());
    let r = machine.run(u64::MAX, None).unwrap();
    assert_eq!(r.end, RunEnd::Completed);
    r.stats.cycles
}

/// Spread kills over the whole run, from near the start to the last cycle.
fn spread_kills(cycles: u64) -> Vec<u64> {
    [1, 10, 30, 50, 75, 99]
        .iter()
        .map(|pct| (cycles * pct / 100).max(1))
        .collect()
}

/// Kill at `crash_cycle` (which must fire) and recover every core.
fn crash_and_recover(
    compiled: &Compiled,
    cfg: &SimConfig,
    crash_cycle: u64,
    max_steps: u64,
) -> Result<cwsp::core::recovery::MulticoreRecoveredRun, String> {
    let mut machine = Machine::new(&compiled.module, cfg, Scheme::cwsp());
    let r = machine.run(u64::MAX, Some(crash_cycle)).unwrap();
    assert_eq!(r.end, RunEnd::PowerFailure, "kill@{crash_cycle} fired");
    recover_multicore(compiled, machine.into_crash_image(), max_steps)
        .map_err(|e| format!("crash@{crash_cycle}: {e}"))
}

fn verify_final_state(mem: &cwsp::ir::Memory, data: u64, sums: u64, counter: u64, ncores: u64) {
    for tid in 0..ncores {
        assert_eq!(mem.load(sums + tid * 8), expected_sum(tid), "sums[{tid}]");
        for i in [0u64, 1, PARTITION_WORDS - 1] {
            assert_eq!(
                mem.load(data + (tid * PARTITION_WORDS + i) * 8),
                tid * 1000 + i,
                "data[{tid}][{i}]"
            );
        }
    }
    assert_eq!(mem.load(counter), 2 * ncores, "atomic counter");
}

#[test]
fn four_core_drf_program_completes_under_cwsp() {
    let ncores = 4u64;
    let (m, data, sums, counter) = drf_partition_sum(ncores);
    let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
    let cfg = SimConfig {
        cores: ncores as usize,
        ..SimConfig::default()
    };
    let mut machine = Machine::new(&compiled.module, &cfg, Scheme::cwsp());
    let r = machine.run(u64::MAX, None).unwrap();
    assert_eq!(r.end, RunEnd::Completed);
    verify_final_state(machine.arch_mem(), data, sums, counter, ncores);
    // Whole-system persistence: the NVM image converged too.
    verify_final_state(machine.nvm(), data, sums, counter, ncores);
}

#[test]
fn four_core_drf_program_survives_crash_sweep() {
    let ncores = 4u64;
    let (m, data, sums, counter) = drf_partition_sum(ncores);
    let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
    let cfg = cores(ncores);
    for crash_cycle in spread_kills(fault_free_cycles(&compiled, &cfg)) {
        let rec = crash_and_recover(&compiled, &cfg, crash_cycle, 10_000_000).unwrap();
        verify_final_state(&rec.memory, data, sums, counter, ncores);
        for (tid, rv) in rec.return_values.iter().enumerate() {
            assert_eq!(*rv, Some(expected_sum(tid as u64)), "core {tid} return");
        }
    }
}

#[test]
fn eight_core_crash_recovers() {
    let ncores = 8u64;
    let (m, data, sums, counter) = drf_partition_sum(ncores);
    let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
    let cfg = SimConfig {
        cores: ncores as usize,
        ..SimConfig::default()
    };
    let mut machine = Machine::new(&compiled.module, &cfg, Scheme::cwsp());
    let r = machine.run(u64::MAX, Some(3_000)).unwrap();
    assert_eq!(r.end, RunEnd::PowerFailure);
    let image = machine.into_crash_image();
    let rec = recover_multicore(&compiled, image, 10_000_000).unwrap();
    verify_final_state(&rec.memory, data, sums, counter, ncores);
}

/// Kill the `ncores`-thread ledger at `crash_cycle`, recover, and check the
/// balance and op count words.
fn check_ledger(compiled: &Compiled, ncores: u64, (balance, ops): (u64, u64), crash_cycle: u64) {
    let cfg = cores(ncores);
    let rec = crash_and_recover(compiled, &cfg, crash_cycle, 50_000_000).unwrap();
    assert_eq!(
        rec.memory.load(balance),
        expected_balance(ncores),
        "ledger balance after crash@{crash_cycle}"
    );
    assert_eq!(
        rec.memory.load(ops),
        ncores * DEPOSITS,
        "op count @ {crash_cycle}"
    );
}

#[test]
fn spinlock_ledger_survives_crashes() {
    let ncores = 3u64;
    let (m, balance, ops) = spinlock_ledger(ncores);
    let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
    for crash_cycle in spread_kills(fault_free_cycles(&compiled, &cores(ncores))) {
        check_ledger(&compiled, ncores, (balance, ops), crash_cycle);
    }
}

/// A lock-taking CAS whose result is lost replays as "lock busy", and the
/// thread spins on a lock it already holds: kill at every cycle.
#[test]
fn spinlock_ledger_survives_a_kill_at_every_cycle() {
    let ncores = 3u64;
    let (m, balance, ops) = spinlock_ledger(ncores);
    let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
    for crash_cycle in 1..fault_free_cycles(&compiled, &cores(ncores)) {
        check_ledger(&compiled, ncores, (balance, ops), crash_cycle);
    }
}

/// Release/acquire hand-off through atomics on flag words: kill at every
/// cycle and check every thread received its neighbour's message.
#[test]
fn message_ring_survives_a_kill_at_every_cycle() {
    let ncores = 4u64;
    let (m, _, acc) = message_ring(ncores);
    let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
    let cfg = cores(ncores);
    for crash_cycle in 1..fault_free_cycles(&compiled, &cfg) {
        let rec = crash_and_recover(&compiled, &cfg, crash_cycle, 2_000_000).unwrap();
        for tid in 0..ncores {
            assert_eq!(
                rec.memory.load(acc + tid * 8),
                expected_message(tid, ncores),
                "acc[{tid}] after crash@{crash_cycle}"
            );
        }
    }
}
