//! Generator-driven differential tests: decoded core vs. reference
//! interpreter over *arbitrary* structured programs.
//!
//! The hand-written cases in `crates/ir/tests/differential.rs` pin down each
//! instruction's semantics; this suite sweeps `genprog`-generated programs
//! (raw and compiled — the compiled ones carry boundaries, checkpoints, and
//! pruned frames) through both interpreters in lockstep, including
//! crash/resume at generated boundaries.
//!
//! Cases are deterministic, SplitMix64-driven samples of the (spec, seed)
//! space, so every run checks the same programs and a failure names its
//! seed.

use cwsp::compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp::core::genprog::{generate, ProgramSpec};
use cwsp::core::prng::SplitMix64;
use cwsp::ir::interp::Interp;
use cwsp::ir::memory::Memory;
use cwsp::ir::module::Module;
use cwsp::ir::reference::RefInterp;

const MAX_STEPS: u64 = 3_000_000;

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

/// Run decoded and reference interpreters in lockstep over `module`,
/// asserting identical effect streams, halt state, and final memories.
/// Returns how many steps executed.
fn assert_lockstep(module: &Module, label: &str) -> u64 {
    let mut mem_d = Memory::new();
    let mut mem_r = Memory::new();
    let mut dec =
        Interp::new(module, 0, &mut mem_d).unwrap_or_else(|e| panic!("{label}: decoded init: {e}"));
    let mut refi = RefInterp::new(module, 0, &mut mem_r)
        .unwrap_or_else(|e| panic!("{label}: reference init: {e}"));
    let mut steps = 0;
    while !dec.is_halted() && !refi.is_halted() && steps < MAX_STEPS {
        let ed = dec.step(&mut mem_d);
        let er = refi.step(&mut mem_r);
        assert_eq!(ed, er, "{label}: step {steps} diverges");
        if ed.is_err() {
            break;
        }
        steps += 1;
    }
    assert_eq!(dec.is_halted(), refi.is_halted(), "{label}: halt state");
    assert_eq!(dec.return_value(), refi.return_value(), "{label}: retval");
    assert_eq!(mem_d, mem_r, "{label}: final memories");
    steps
}

/// Crash `module` at its `n`-th boundary (if the run produces one), resume
/// both interpreters from the persisted frame chain, and run them to
/// completion in lockstep.
fn assert_resume_lockstep(module: &Module, nth_boundary: usize, label: &str) {
    let mut mem = Memory::new();
    let Ok(mut i) = Interp::new(module, 0, &mut mem) else {
        return;
    };
    let mut snapshot = None;
    let mut seen = 0;
    let mut steps = 0;
    while !i.is_halted() && steps < MAX_STEPS {
        let Ok(eff) = i.step(&mut mem) else { return };
        steps += 1;
        if let Some(b) = eff.boundary {
            if seen == nth_boundary {
                snapshot = Some((b.resume, mem.clone()));
                break;
            }
            seen += 1;
        }
    }
    let Some((rp, snap)) = snapshot else { return };
    let mut mem_d = snap.clone();
    let mut mem_r = snap;
    let dec = Interp::resume(module, 0, &mem_d, rp);
    let refi = RefInterp::resume(module, 0, &mem_r, rp);
    let (Ok(mut dec), Ok(mut refi)) = (dec, refi) else {
        panic!("{label}: resume constructibility differs");
    };
    // Function-entry / post-call resumes are self-contained; Normal resumes
    // would need the recovery slice, so registers start zeroed in *both* —
    // still a valid differential case (identical inputs → identical stream).
    let mut steps = 0;
    while !dec.is_halted() && !refi.is_halted() && steps < MAX_STEPS {
        let ed = dec.step(&mut mem_d);
        let er = refi.step(&mut mem_r);
        assert_eq!(ed, er, "{label}: post-resume step {steps} diverges");
        if ed.is_err() {
            return;
        }
        steps += 1;
    }
    assert_eq!(dec.is_halted(), refi.is_halted(), "{label}: halt state");
    assert_eq!(mem_d, mem_r, "{label}: post-resume memories");
}

#[test]
fn generated_programs_execute_identically() {
    let mut r = SplitMix64::seed_from_u64(0xDEC0DE);
    for case in 0..16 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 100_000);
        let module = generate(&spec, seed);
        let steps = assert_lockstep(&module, &format!("case {case} seed {seed}"));
        assert!(steps > 0, "case {case}: trivial program");
    }
}

#[test]
fn autofenced_programs_execute_identically() {
    // Autofenced modules exercise FlushLine/PFence through both cores —
    // the decoded interpreter's effect stream must match the reference's
    // word-for-word on the new opcodes too.
    use cwsp::compiler::autofence;
    let mut r = SplitMix64::seed_from_u64(0xF1055);
    for case in 0..12 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 100_000);
        let mut module = generate(&spec, seed);
        let stats = autofence::run(&mut module);
        assert!(
            stats.flushes_inserted > 0,
            "case {case}: no flushes inserted"
        );
        assert_lockstep(&module, &format!("case {case} seed {seed} autofenced"));
    }
}

#[test]
fn compiled_programs_execute_identically() {
    // Compiled modules exercise Boundary/Ckpt and pruned save lists — paths
    // raw genprog output doesn't emit.
    let mut r = SplitMix64::seed_from_u64(0xC0DEC);
    for case in 0..8 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 100_000);
        let pruning = r.chance(0.5);
        let module = generate(&spec, seed);
        let compiled = CwspCompiler::new(CompileOptions {
            pruning,
            ..Default::default()
        })
        .compile(&module);
        assert_lockstep(
            &compiled.module,
            &format!("case {case} seed {seed} pruning={pruning}"),
        );
    }
}

#[test]
fn compiled_programs_resume_identically() {
    let mut r = SplitMix64::seed_from_u64(0x2E5);
    for case in 0..8 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 100_000);
        let nth = r.range_u64(0, 6) as usize;
        let module = generate(&spec, seed);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&module);
        assert_resume_lockstep(
            &compiled.module,
            nth,
            &format!("case {case} seed {seed} boundary {nth}"),
        );
    }
}
