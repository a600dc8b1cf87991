//! Fused recovery replay against a single-step reference.
//!
//! `recover` and `recover_with_write_log` replay through fused bursts (the
//! `Interp::run_to_halt` loop; register-only bursts only while a write log
//! is capturing). The reference below is the protocol stepped one
//! instruction at a time with `step_into`, every write offered to the log
//! in order. Over genprog seeds and the tatp/kmeans/radix apps, each killed
//! at several cycles, the two must agree on memory, output, return value
//! and `replayed_steps`, and — at write-log caps {0, 1, predicted replay
//! length, unbounded} — on the write log and its `truncated` flag.

use cwsp_compiler::pipeline::Compiled;
use cwsp_core::genprog::generate_default;
use cwsp_core::recovery::{
    recover, recover_with_write_log, RecoveredRun, RecoveryError, ReplayWriteLog,
};
use cwsp_core::system::CwspSystem;
use cwsp_ir::interp::{Interp, ResumeKind, StepEffect};
use cwsp_ir::Module;
use cwsp_obs::forensics::ForensicReport;
use cwsp_sim::machine::{CrashImage, Machine, RunEnd};
use cwsp_sim::scheme::Scheme;

const MAX_STEPS: u64 = 50_000_000;

/// Single-step recovery of core 0: resume, apply the slice, then one
/// `step_into` per instruction, capturing up to `cap` writes when asked.
fn reference(
    compiled: &Compiled,
    image: CrashImage,
    max_steps: u64,
    cap: Option<usize>,
) -> Result<(RecoveredRun, ReplayWriteLog), RecoveryError> {
    let (rp, static_region) = image.resume[0];
    let mut mem = image.nvm;
    let mut interp = Interp::resume(&compiled.module, 0, &mem, rp)
        .map_err(|e| RecoveryError::BadImage(e.to_string()))?;
    if rp.kind == ResumeKind::Normal {
        if let Some(slice) = static_region.and_then(|r| compiled.slices.get(r)) {
            slice.apply(&mut interp, &mem, 0);
        }
    }
    let mut output = image.output;
    let mut log = ReplayWriteLog::default();
    let mut eff = StepEffect::default();
    let mut replayed = 0;
    while !interp.is_halted() {
        if replayed >= max_steps {
            return Err(RecoveryError::StepLimit(max_steps));
        }
        interp
            .step_into(&mut mem, &mut eff)
            .map_err(|e| RecoveryError::Trap(e.to_string()))?;
        if let Some(cap) = cap {
            for &w in &eff.writes {
                if log.writes.len() < cap {
                    log.writes.push(w);
                } else {
                    log.truncated = true;
                }
            }
        }
        output.extend(eff.out);
        replayed += 1;
    }
    let run = RecoveredRun {
        memory: mem,
        output,
        return_value: interp.return_value(),
        replayed_steps: replayed,
        reverted_records: image.reverted_records,
    };
    Ok((run, log))
}

fn assert_same_run(label: &str, fused: &RecoveredRun, reference: &RecoveredRun) {
    assert_eq!(
        fused.replayed_steps, reference.replayed_steps,
        "{label}: steps"
    );
    assert_eq!(
        fused.return_value, reference.return_value,
        "{label}: return"
    );
    assert_eq!(fused.output, reference.output, "{label}: output");
    assert!(fused.memory == reference.memory, "{label}: memory");
}

/// A flight-recorded cWSP run killed at `kill`: the crash image and the
/// forensic prediction of core 0's replay length, or `None` if the run
/// completed first.
fn crash(system: &CwspSystem, kill: u64) -> Option<(CrashImage, usize)> {
    let mut m = Machine::new(&system.compiled.module, &system.config, Scheme::cwsp());
    m.enable_flight().expect("flight journal");
    let end = m.run(u64::MAX, Some(kill)).expect("simulation");
    if end.end != RunEnd::PowerFailure {
        return None;
    }
    let records = m.flight_records();
    let report = ForensicReport::reconstruct(&records, m.frontier());
    Some((m.into_crash_image(), report.predicted_replay(0).len()))
}

/// Kill `module` at ¼, ½ and ¾ of its fault-free run; check every kill.
/// Returns how many kills hit mid-run.
fn check_module(module: &Module) -> usize {
    let system = CwspSystem::compile(module);
    let cycles = system
        .simulate(Scheme::cwsp(), u64::MAX)
        .expect("fault-free run")
        .stats
        .cycles;
    let mut kills = 0;
    for kill in [cycles / 4, cycles / 2, cycles * 3 / 4] {
        let Some((image, predicted)) = crash(&system, kill) else {
            continue;
        };
        kills += 1;
        let label = format!("{}@{kill}", module.name);
        let (want, _) = reference(&system.compiled, image.clone(), MAX_STEPS, None).unwrap();
        let got = recover(&system.compiled, image.clone(), 0, MAX_STEPS).unwrap();
        assert_same_run(&label, &got, &want);
        for cap in [0, 1, predicted, usize::MAX] {
            let label = format!("{label} cap={cap}");
            let (want, want_log) =
                reference(&system.compiled, image.clone(), MAX_STEPS, Some(cap)).unwrap();
            let (got, got_log) =
                recover_with_write_log(&system.compiled, image.clone(), 0, MAX_STEPS, cap).unwrap();
            assert_same_run(&label, &got, &want);
            assert_eq!(got_log.writes, want_log.writes, "{label}: log");
            assert_eq!(got_log.truncated, want_log.truncated, "{label}: truncated");
        }
    }
    kills
}

#[test]
fn fused_recovery_matches_single_step_on_genprog() {
    let kills: usize = (0..50).map(|s| check_module(&generate_default(s))).sum();
    assert!(kills >= 100, "only {kills} kills hit mid-run");
}

#[test]
fn fused_recovery_matches_single_step_on_apps() {
    for name in ["tatp", "kmeans", "radix"] {
        let w = cwsp_workloads::by_name(name).expect("app in the suite");
        assert!(check_module(&w.module) > 0, "{name}: no kill hit mid-run");
    }
}

/// A budget one step short of the replay fails with `StepLimit` on both
/// paths, logged or not; the exact budget succeeds.
#[test]
fn step_limit_is_exact() {
    let system = CwspSystem::compile(&generate_default(3));
    let cycles = system
        .simulate(Scheme::cwsp(), u64::MAX)
        .expect("fault-free run")
        .stats
        .cycles;
    let (image, _) = crash(&system, cycles / 2).expect("kill hits mid-run");
    let (full, _) = reference(&system.compiled, image.clone(), MAX_STEPS, None).unwrap();
    let n = full.replayed_steps;
    assert!(n > 1, "replay too short to cut: {n}");
    let short = n - 1;
    let limit = Err(RecoveryError::StepLimit(short));
    assert_eq!(
        reference(&system.compiled, image.clone(), short, None).map(|_| ()),
        limit
    );
    assert_eq!(
        recover(&system.compiled, image.clone(), 0, short).map(|_| ()),
        limit
    );
    for cap in [0, 1, usize::MAX] {
        assert_eq!(
            recover_with_write_log(&system.compiled, image.clone(), 0, short, cap).map(|_| ()),
            limit,
            "cap={cap}"
        );
    }
    let exact = recover(&system.compiled, image.clone(), 0, n).unwrap();
    assert_same_run("exact budget", &exact, &full);
    let (exact, _) = recover_with_write_log(&system.compiled, image, 0, n, usize::MAX).unwrap();
    assert_same_run("exact budget, logged", &exact, &full);
}
