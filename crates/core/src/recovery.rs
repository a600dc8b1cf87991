//! The power-failure recovery protocol (§VII).
//!
//! Given a [`CrashImage`] — the NVM contents after the ADR flush and undo-log
//! reversal, plus the persisted RS pointer of the oldest unpersisted region —
//! recovery proceeds exactly as the paper describes:
//!
//! 1. *(already done by the hardware model)* speculative NVM updates were
//!    reverted with the per-MC undo logs;
//! 2. the runtime reconstructs the machine context from persistent state:
//!    the call stack is walked from the frame records in NVM, and the
//!    region's **recovery slice** restores its live-in registers (checkpoint
//!    slot loads and rematerialized constants);
//! 3. execution restarts from the beginning of the oldest unpersisted region.
//!
//! The resumed program runs on the NVM image as its main memory — whole-system
//! persistence means there is nothing else to restore.
//!
//! Single-core replay runs through [`Interp::run_to_halt`], the same fused
//! burst loop as the `cwsp_ir::interp::run` oracle. While a
//! [`ReplayWriteLog`] is capturing, only register-only `step_run` bursts
//! run between single steps, so every write is still seen in order; once
//! the log is full (or when there is none) the whole fused loop takes over.
//! Either way `replayed_steps`, output, final memory and every trap or step
//! limit equal those of stepping one instruction at a time.
//! [`recover_multicore`] single-steps: its round-robin interleaving is its
//! semantics.

use cwsp_compiler::pipeline::Compiled;
use cwsp_ir::interp::{Interp, InterpError, ResumeKind, StepEffect};
use cwsp_ir::memory::Memory;
use cwsp_ir::types::Word;
use cwsp_obs::{NullSink, ObsSink};
use cwsp_sim::machine::CrashImage;
use std::fmt;
use std::time::Instant;

/// Errors during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The frame chain or metadata in NVM was malformed.
    BadImage(String),
    /// The resumed program trapped.
    Trap(String),
    /// The resumed program did not halt within the step budget.
    StepLimit(u64),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::BadImage(m) => write!(f, "bad crash image: {m}"),
            RecoveryError::Trap(m) => write!(f, "resumed program trapped: {m}"),
            RecoveryError::StepLimit(n) => write!(f, "recovery exceeded {n} steps"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// A completed post-failure execution.
#[derive(Debug, Clone)]
pub struct RecoveredRun {
    /// Final memory (the evolved NVM image).
    pub memory: Memory,
    /// Complete output: what persisted regions released before the failure,
    /// followed by everything the resumed execution emitted.
    pub output: Vec<Word>,
    /// Entry function's return value.
    pub return_value: Option<Word>,
    /// Instructions executed after resumption (the re-executed tail).
    pub replayed_steps: u64,
    /// Undo-log records the hardware reverted before resumption.
    pub reverted_records: usize,
}

/// Recover core `core` from `image` and run the program to completion.
///
/// # Errors
/// [`RecoveryError::BadImage`] for malformed frame chains,
/// [`RecoveryError::Trap`] / [`RecoveryError::StepLimit`] from the resumed
/// execution.
pub fn recover(
    compiled: &Compiled,
    image: CrashImage,
    core: usize,
    max_steps: u64,
) -> Result<RecoveredRun, RecoveryError> {
    recover_observed(compiled, image, core, max_steps, &mut NullSink)
}

/// [`recover`], publishing recovery telemetry into `sink`: one span per
/// protocol phase (`rebuild_context`, `apply_slice`, `replay`) on the
/// `recovery` track, plus counts for reverted undo-log records and replayed
/// instructions. With the default [`NullSink`] this is exactly `recover`.
///
/// # Errors
/// Same failure modes as [`recover`].
pub fn recover_observed(
    compiled: &Compiled,
    image: CrashImage,
    core: usize,
    max_steps: u64,
    sink: &mut dyn ObsSink,
) -> Result<RecoveredRun, RecoveryError> {
    recover_inner(compiled, image, core, max_steps, sink, None)
}

/// The ordered memory writes performed by a recovery replay — the ground
/// truth the crash forensics frontier prediction is cross-checked against.
#[derive(Debug, Clone, Default)]
pub struct ReplayWriteLog {
    /// `(addr, value)` of every write the resumed execution performed, in
    /// step order, up to the collection cap.
    pub writes: Vec<(Word, Word)>,
    /// Whether the cap cut the log short (replay continued uncaptured).
    pub truncated: bool,
}

/// [`recover`], additionally capturing the first `log_cap` `(addr, value)`
/// writes the replay performs, in order. Execution itself is unchanged —
/// the log is pure observation.
///
/// # Errors
/// Same failure modes as [`recover`].
pub fn recover_with_write_log(
    compiled: &Compiled,
    image: CrashImage,
    core: usize,
    max_steps: u64,
    log_cap: usize,
) -> Result<(RecoveredRun, ReplayWriteLog), RecoveryError> {
    let mut log = ReplayWriteLog::default();
    let run = recover_inner(
        compiled,
        image,
        core,
        max_steps,
        &mut NullSink,
        Some((&mut log, log_cap)),
    )?;
    Ok((run, log))
}

fn recover_inner(
    compiled: &Compiled,
    image: CrashImage,
    core: usize,
    max_steps: u64,
    sink: &mut dyn ObsSink,
    write_log: Option<(&mut ReplayWriteLog, usize)>,
) -> Result<RecoveredRun, RecoveryError> {
    let observed = sink.enabled();
    let t0 = observed.then(Instant::now);
    let now_ns =
        |t0: &Option<Instant>| -> u64 { t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0) };
    let CrashImage {
        nvm,
        output,
        resume,
        reverted_records,
    } = image;
    let Some(&(rp, static_region)) = resume.get(core) else {
        return Err(RecoveryError::BadImage(format!(
            "no metadata for core {core}"
        )));
    };
    let mut mem = nvm;
    // Step 2: rebuild the machine context from persistent state.
    let s = now_ns(&t0);
    let mut interp = Interp::resume(&compiled.module, core, &mem, rp)
        .map_err(|e| RecoveryError::BadImage(e.to_string()))?;
    if observed {
        let end = now_ns(&t0);
        sink.span("recovery", "rebuild_context", s, end.saturating_sub(s));
        sink.count("recovery.reverted_records", reverted_records as u64);
    }
    // Execute the recovery slice for plain region entries (function-entry and
    // post-call entries restore from the frame record inside `resume`).
    if rp.kind == ResumeKind::Normal {
        if let Some(region) = static_region {
            if let Some(slice) = compiled.slices.get(region) {
                let s = now_ns(&t0);
                slice.apply(&mut interp, &mem, core);
                if observed {
                    let end = now_ns(&t0);
                    sink.span("recovery", "apply_slice", s, end.saturating_sub(s));
                    sink.count("recovery.slice_restores", slice.restores.len() as u64);
                }
            }
        }
    }
    // Step 3: restart from the beginning of the oldest unpersisted region.
    let s = now_ns(&t0);
    let mut output = output;
    let mut replayed = 0u64;
    let trap = |e: InterpError| match e {
        InterpError::Trap(m) => RecoveryError::Trap(m),
        InterpError::StepLimit(_) => RecoveryError::StepLimit(max_steps),
        other => RecoveryError::Trap(other.to_string()),
    };
    // While the write log is capturing, only register-only bursts run
    // between single steps: they write nothing and emit nothing, so the
    // log, its cap and `truncated` stay exact.
    if let Some((log, cap)) = write_log {
        let mut eff = StepEffect::default();
        while !interp.is_halted() && !log.truncated {
            if replayed >= max_steps {
                return Err(RecoveryError::StepLimit(max_steps));
            }
            let burst = interp.step_run((max_steps - replayed).min(u32::MAX as u64) as u32);
            if burst > 0 {
                replayed += burst as u64;
                continue;
            }
            interp.step_into(&mut mem, &mut eff).map_err(trap)?;
            for &(a, v) in &eff.writes {
                if log.writes.len() < cap {
                    log.writes.push((a, v));
                } else {
                    log.truncated = true;
                }
            }
            if let Some(v) = eff.out {
                output.push(v);
            }
            replayed += 1;
        }
    }
    // Uncaptured: the fused run-to-halt loop, bounded by the steps left.
    if !interp.is_halted() {
        replayed += interp
            .run_to_halt(&mut mem, max_steps - replayed, &mut output)
            .map_err(trap)?;
    }
    if observed {
        let end = now_ns(&t0);
        sink.span("recovery", "replay", s, end.saturating_sub(s));
        sink.count("recovery.replayed_steps", replayed);
    }
    Ok(RecoveredRun {
        memory: mem,
        output,
        return_value: interp.return_value(),
        replayed_steps: replayed,
        reverted_records,
    })
}

/// A completed multicore post-failure execution (§VIII).
#[derive(Debug, Clone)]
pub struct MulticoreRecoveredRun {
    /// Final shared memory (the evolved NVM image).
    pub memory: Memory,
    /// Per-core return values.
    pub return_values: Vec<Option<Word>>,
    /// Total instructions executed after resumption across all cores.
    pub replayed_steps: u64,
}

/// Recover *every* core from `image` and run them to completion over the
/// shared NVM image, interleaving round-robin.
///
/// Per §VIII, data-race-free programs let each thread resume independently
/// from its own oldest unpersisted region — no cross-thread happens-before
/// tracking is needed. The resumed interleaving generally differs from the
/// pre-crash one, so this is meaningful for DRF programs whose final data is
/// interleaving-independent (see `cwsp_workloads::multicore`).
///
/// # Errors
/// Same failure modes as [`recover`], for any core.
pub fn recover_multicore(
    compiled: &Compiled,
    image: CrashImage,
    max_steps: u64,
) -> Result<MulticoreRecoveredRun, RecoveryError> {
    let CrashImage {
        nvm,
        output: _,
        resume,
        reverted_records: _,
    } = image;
    let mut mem = nvm;
    let ncores = resume.len();
    let mut interps = Vec::with_capacity(ncores);
    for (core, &(rp, static_region)) in resume.iter().enumerate() {
        let mut interp = Interp::resume(&compiled.module, core, &mem, rp)
            .map_err(|e| RecoveryError::BadImage(format!("core {core}: {e}")))?;
        if rp.kind == ResumeKind::Normal {
            if let Some(region) = static_region {
                if let Some(slice) = compiled.slices.get(region) {
                    slice.apply(&mut interp, &mem, core);
                }
            }
        }
        interps.push(interp);
    }
    let mut replayed = 0u64;
    let mut eff = StepEffect::default();
    loop {
        let mut any = false;
        for interp in interps.iter_mut() {
            if interp.is_halted() {
                continue;
            }
            if replayed >= max_steps {
                return Err(RecoveryError::StepLimit(max_steps));
            }
            interp
                .step_into(&mut mem, &mut eff)
                .map_err(|e| RecoveryError::Trap(e.to_string()))?;
            replayed += 1;
            any = true;
        }
        if !any {
            break;
        }
    }
    Ok(MulticoreRecoveredRun {
        memory: mem,
        return_values: interps.iter().map(|i| i.return_value()).collect(),
        replayed_steps: replayed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
    use cwsp_ir::builder::{build_counted_loop, FunctionBuilder};
    use cwsp_ir::inst::{BinOp, Inst, MemRef, Operand};
    use cwsp_ir::module::Module;
    use cwsp_sim::config::SimConfig;
    use cwsp_sim::machine::{Machine, RunEnd};
    use cwsp_sim::scheme::Scheme;

    fn looping_module(n: u64) -> Module {
        let mut m = Module::new("t");
        let g = m.add_global("acc", 2);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(n), |b, bb, i| {
            let v = b.load(bb, MemRef::global(g, 0));
            let s = b.bin(bb, BinOp::Add, v.into(), i.into());
            b.store(bb, s.into(), MemRef::global(g, 0));
            b.push(bb, Inst::Out { val: i.into() });
        });
        let v = b.load(exit, MemRef::global(g, 0));
        b.store(exit, v.into(), MemRef::global(g, 1));
        b.push(
            exit,
            Inst::Ret {
                val: Some(v.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);
        m
    }

    #[test]
    fn crash_then_recover_matches_oracle_at_many_cycles() {
        let m = looping_module(60);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
        let oracle = cwsp_ir::interp::run(&compiled.module, 1_000_000).unwrap();

        for crash_cycle in [50u64, 200, 500, 1200, 3000, 7000] {
            let cfg_ = SimConfig::default();
            let mut machine = Machine::new(&compiled.module, &cfg_, Scheme::cwsp());
            let r = machine.run(u64::MAX, Some(crash_cycle)).unwrap();
            if r.end != RunEnd::PowerFailure {
                // Program finished before the crash point: nothing to test.
                continue;
            }
            let image = machine.into_crash_image();
            let rec = recover(&compiled, image, 0, 1_000_000)
                .unwrap_or_else(|e| panic!("crash@{crash_cycle}: {e}"));
            assert_eq!(
                rec.return_value, oracle.return_value,
                "return value after crash@{crash_cycle}"
            );
            assert_eq!(
                rec.output, oracle.output,
                "output after crash@{crash_cycle}"
            );
            let diffs = rec
                .memory
                .diff_where(&oracle.memory, cwsp_ir::layout::is_program_data, 8);
            assert!(
                diffs.is_empty(),
                "crash@{crash_cycle}: data diverged: {diffs:x?}"
            );
        }
    }

    #[test]
    fn recovery_without_crash_runs_through() {
        // Crash at cycle 0: nothing persisted beyond the image; recovery is a
        // full re-run from the program entry.
        let m = looping_module(10);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
        let oracle = cwsp_ir::interp::run(&compiled.module, 1_000_000).unwrap();
        let cfg_ = SimConfig::default();
        let mut machine = Machine::new(&compiled.module, &cfg_, Scheme::cwsp());
        let _ = machine.run(u64::MAX, Some(0)).unwrap();
        let image = machine.into_crash_image();
        let rec = recover(&compiled, image, 0, 1_000_000).unwrap();
        assert_eq!(rec.return_value, oracle.return_value);
        assert_eq!(rec.output, oracle.output);
    }

    #[test]
    fn recover_observed_reports_phases() {
        let m = looping_module(40);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
        let cfg_ = SimConfig::default();
        let mut machine = Machine::new(&compiled.module, &cfg_, Scheme::cwsp());
        let r = machine.run(u64::MAX, Some(800)).unwrap();
        assert_eq!(r.end, RunEnd::PowerFailure);
        let image = machine.into_crash_image();
        let mut sink = cwsp_obs::MemSink::default();
        let rec = recover_observed(&compiled, image, 0, 1_000_000, &mut sink).unwrap();
        assert_eq!(sink.spans_named("rebuild_context").len(), 1);
        assert_eq!(sink.spans_named("replay").len(), 1);
        assert_eq!(
            sink.count_total("recovery.replayed_steps"),
            rec.replayed_steps
        );
    }

    #[test]
    fn write_log_captures_replay_writes_in_order_and_respects_cap() {
        let m = looping_module(40);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
        let cfg_ = SimConfig::default();
        let mut machine = Machine::new(&compiled.module, &cfg_, Scheme::cwsp());
        let r = machine.run(u64::MAX, Some(800)).unwrap();
        assert_eq!(r.end, RunEnd::PowerFailure);
        let image = machine.into_crash_image();
        let (rec, log) =
            recover_with_write_log(&compiled, image.clone(), 0, 1_000_000, usize::MAX).unwrap();
        assert!(!log.writes.is_empty(), "replay performed writes");
        assert!(!log.truncated);
        // A capped log is an exact prefix of the uncapped one.
        let (rec2, capped) = recover_with_write_log(&compiled, image, 0, 1_000_000, 3).unwrap();
        assert!(capped.truncated);
        assert_eq!(capped.writes[..], log.writes[..3]);
        // Observation never perturbs the recovery itself.
        assert_eq!(rec.return_value, rec2.return_value);
        assert_eq!(rec.output, rec2.output);
    }

    #[test]
    fn missing_core_metadata_is_reported() {
        let m = looping_module(5);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&m);
        let cfg_ = SimConfig::default();
        let mut machine = Machine::new(&compiled.module, &cfg_, Scheme::cwsp());
        let _ = machine.run(u64::MAX, Some(10)).unwrap();
        let image = machine.into_crash_image();
        let err = recover(&compiled, image, 5, 1_000).unwrap_err();
        assert!(matches!(err, RecoveryError::BadImage(_)));
    }
}
