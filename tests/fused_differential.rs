//! Fused-execution differential suite: superblock-fused interpretation vs.
//! the reference interpreter, in lockstep, over generated programs.
//!
//! The fusion pass (`cwsp_ir::decoded`) groups straight-line runs into
//! superblocks and the interpreter dispatches them as bursts
//! (`Interp::step_run` / `Interp::step_simple_run`). This suite is the
//! safety net for that fast path:
//!
//! * **Lockstep sweep** — ≥200 generated modules (raw and compiled) run
//!   fused against [`RefInterp`], with *randomized burst budgets* so bursts
//!   are interrupted at arbitrary mid-superblock points and resumed; final
//!   memories, outputs, step counts, return values, and halt states must
//!   agree exactly.
//! * **Op-count exactness** — the fused path must report per-opcode counts
//!   byte-identical to pure `step_into` dispatch (the accounting the
//!   simulator's `op_mix` stat is built from).
//! * **Crash/resume** — compiled modules are cut at *every* region boundary
//!   and resumed fused-vs-reference from the persisted image.
//!
//! Cases are deterministic, SplitMix64-driven samples, so every run checks
//! the same programs and cut points and a failure names its seed.

use cwsp::compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp::core::genprog::{generate, ProgramSpec};
use cwsp::core::prng::SplitMix64;
use cwsp::ir::interp::{Interp, InterpError};
use cwsp::ir::memory::Memory;
use cwsp::ir::module::Module;
use cwsp::ir::reference::RefInterp;
use cwsp::ir::types::Word;

const MAX_STEPS: u64 = 1_000_000;

fn sample_spec(r: &mut SplitMix64) -> ProgramSpec {
    ProgramSpec {
        globals: r.range_u64(1, 4) as usize,
        global_words: r.range_u64(4, 32),
        segments: r.range_u64(3, 12) as usize,
        max_trip: r.range_u64(2, 8),
        calls: r.chance(0.5),
    }
}

/// Drive `fused` with randomly sized burst budgets (interrupting superblocks
/// mid-run) and `refi` step-by-step, asserting the two converge on identical
/// architectural state. Returns steps executed.
fn fused_vs_ref(
    fused: &mut Interp<'_>,
    refi: &mut RefInterp<'_>,
    mem_f: &mut Memory,
    mem_r: &mut Memory,
    rng: &mut SplitMix64,
    label: &str,
) -> u64 {
    let mut out_f: Vec<Word> = Vec::new();
    let mut out_r: Vec<Word> = Vec::new();
    loop {
        if fused.is_halted() || fused.steps() >= MAX_STEPS {
            break;
        }
        let before = fused.steps();
        // 1..=16 instructions per burst: small budgets cut ALU runs and
        // load/op/store triples at every interior offset.
        let budget = rng.range_u64(1, 17);
        let mut ferr: Option<InterpError> = fused.step_simple_run(mem_f, budget, &mut out_f).err();
        if ferr.is_none() && fused.steps() == before && !fused.is_halted() {
            // Burst made no progress: the head is a call/ret/halt (or
            // another op the burst loop refuses) — take one plain step.
            match fused.step(mem_f) {
                Ok(e) => {
                    if let Some(w) = e.out {
                        out_f.push(w);
                    }
                }
                Err(e) => ferr = Some(e),
            }
        }
        // Both dispatchers count a trapping instruction before raising, so
        // `advanced` covers the reference replay in the trap case too.
        let advanced = fused.steps() - before;
        let mut rerr: Option<InterpError> = None;
        for _ in 0..advanced {
            match refi.step(mem_r) {
                Ok(e) => {
                    if let Some(w) = e.out {
                        out_r.push(w);
                    }
                }
                Err(e) => {
                    rerr = Some(e);
                    break;
                }
            }
        }
        if ferr.is_some() || rerr.is_some() {
            assert_eq!(ferr, rerr, "{label}: trap divergence");
            assert_eq!(out_f, out_r, "{label}: outputs at trap");
            return fused.steps();
        }
        assert!(
            advanced > 0 || fused.is_halted(),
            "{label}: no progress without halt"
        );
    }
    assert_eq!(fused.is_halted(), refi.is_halted(), "{label}: halt state");
    assert_eq!(fused.steps(), refi.steps(), "{label}: step counts");
    assert_eq!(
        fused.return_value(),
        refi.return_value(),
        "{label}: return value"
    );
    assert_eq!(out_f, out_r, "{label}: output streams");
    assert_eq!(mem_f, mem_r, "{label}: final memories");
    fused.steps()
}

fn assert_fused_lockstep(module: &Module, rng: &mut SplitMix64, label: &str) -> u64 {
    let mut mem_f = Memory::new();
    let mut mem_r = Memory::new();
    let mut fused =
        Interp::new(module, 0, &mut mem_f).unwrap_or_else(|e| panic!("{label}: fused init: {e}"));
    let mut refi = RefInterp::new(module, 0, &mut mem_r)
        .unwrap_or_else(|e| panic!("{label}: reference init: {e}"));
    fused_vs_ref(&mut fused, &mut refi, &mut mem_f, &mut mem_r, rng, label)
}

/// Fused bursts vs. pure `step_into` dispatch on a second `Interp`: the
/// per-opcode counters (the source of the simulator's `op_mix`) must be
/// byte-identical, not merely summing to the same total.
fn assert_opcounts_exact(module: &Module, rng: &mut SplitMix64, label: &str) {
    let mut mem_f = Memory::new();
    let mut mem_p = Memory::new();
    let mut fused =
        Interp::new(module, 0, &mut mem_f).unwrap_or_else(|e| panic!("{label}: fused init: {e}"));
    let mut plain =
        Interp::new(module, 0, &mut mem_p).unwrap_or_else(|e| panic!("{label}: plain init: {e}"));
    let mut out_f: Vec<Word> = Vec::new();
    while !fused.is_halted() && fused.steps() < MAX_STEPS {
        let before = fused.steps();
        let budget = rng.range_u64(1, 33);
        if fused
            .step_simple_run(&mut mem_f, budget, &mut out_f)
            .is_err()
        {
            break;
        }
        if fused.steps() == before && !fused.is_halted() && fused.step(&mut mem_f).is_err() {
            break;
        }
    }
    let mut out_p: Vec<Word> = Vec::new();
    while !plain.is_halted() && plain.steps() < fused.steps() {
        match plain.step(&mut mem_p) {
            Ok(e) => {
                if let Some(w) = e.out {
                    out_p.push(w);
                }
            }
            Err(_) => break,
        }
    }
    assert_eq!(fused.steps(), plain.steps(), "{label}: step counts");
    assert_eq!(
        fused.op_counts(),
        plain.op_counts(),
        "{label}: per-opcode counts"
    );
    assert_eq!(out_f, out_p, "{label}: outputs");
    assert_eq!(mem_f, mem_p, "{label}: memories");
}

/// Cut the run at every region boundary the module produces (capped) and
/// resume fused-vs-reference from the persisted image.
fn assert_resume_at_every_boundary(module: &Module, rng: &mut SplitMix64, label: &str) {
    // First pass: record every boundary's resume point + memory snapshot.
    let mut mem = Memory::new();
    let Ok(mut i) = Interp::new(module, 0, &mut mem) else {
        return;
    };
    let mut cuts = Vec::new();
    let mut steps = 0;
    while !i.is_halted() && steps < MAX_STEPS && cuts.len() < 32 {
        let Ok(eff) = i.step(&mut mem) else { return };
        steps += 1;
        if let Some(b) = eff.boundary {
            cuts.push((b.resume, mem.clone()));
        }
    }
    for (nth, (rp, snap)) in cuts.into_iter().enumerate() {
        let mut mem_f = snap.clone();
        let mut mem_r = snap;
        let fused = Interp::resume(module, 0, &mem_f, rp);
        let refi = RefInterp::resume(module, 0, &mem_r, rp);
        let (Ok(mut fused), Ok(mut refi)) = (fused, refi) else {
            panic!("{label}: boundary {nth}: resume constructibility differs");
        };
        fused_vs_ref(
            &mut fused,
            &mut refi,
            &mut mem_f,
            &mut mem_r,
            rng,
            &format!("{label}: boundary {nth}"),
        );
    }
}

#[test]
fn fused_execution_matches_reference_over_200_modules() {
    let mut r = SplitMix64::seed_from_u64(0xF05E_D1FF);
    let mut nontrivial = 0u32;
    for case in 0..200 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 1_000_000);
        let module = generate(&spec, seed);
        // Half the sweep runs the cWSP-compiled module, so boundaries,
        // checkpoints, and pruned frames flow through the burst dispatcher.
        let module = if case % 2 == 1 {
            let pruning = r.chance(0.5);
            CwspCompiler::new(CompileOptions {
                pruning,
                ..Default::default()
            })
            .compile(&module)
            .module
        } else {
            module
        };
        let steps = assert_fused_lockstep(&module, &mut r, &format!("case {case} seed {seed}"));
        if steps > 0 {
            nontrivial += 1;
        }
    }
    assert!(nontrivial >= 150, "sweep degenerated: {nontrivial}/200 ran");
}

#[test]
fn fused_op_counts_match_unfused_dispatch() {
    let mut r = SplitMix64::seed_from_u64(0x0C0_0137);
    for case in 0..24 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 1_000_000);
        let module = generate(&spec, seed);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&module);
        assert_opcounts_exact(&module, &mut r, &format!("case {case} raw"));
        assert_opcounts_exact(&compiled.module, &mut r, &format!("case {case} compiled"));
    }
}

#[test]
fn fused_resume_matches_reference_at_every_boundary() {
    let mut r = SplitMix64::seed_from_u64(0x0B0C_D2E5);
    for case in 0..12 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 1_000_000);
        let module = generate(&spec, seed);
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&module);
        assert_resume_at_every_boundary(&compiled.module, &mut r, &format!("case {case}"));
    }
}

#[test]
fn single_step_bursts_match_reference() {
    // Budget 1 interrupts after every instruction — the extreme
    // mid-superblock preemption schedule.
    let mut r = SplitMix64::seed_from_u64(0x51_0613);
    for case in 0..8 {
        let spec = sample_spec(&mut r);
        let seed = r.range_u64(0, 1_000_000);
        let module = generate(&spec, seed);
        let mut mem_f = Memory::new();
        let mut mem_r = Memory::new();
        let mut fused = Interp::new(&module, 0, &mut mem_f).expect("fused init");
        let mut refi = RefInterp::new(&module, 0, &mut mem_r).expect("ref init");
        let mut out_f: Vec<Word> = Vec::new();
        while !fused.is_halted() && fused.steps() < MAX_STEPS {
            let before = fused.steps();
            if fused.step_simple_run(&mut mem_f, 1, &mut out_f).is_err() {
                break;
            }
            if fused.steps() == before && !fused.is_halted() {
                if let Ok(e) = fused.step(&mut mem_f) {
                    if let Some(w) = e.out {
                        out_f.push(w);
                    }
                } else {
                    break;
                }
            }
        }
        let mut out_r: Vec<Word> = Vec::new();
        while !refi.is_halted() && refi.steps() < fused.steps() {
            match refi.step(&mut mem_r) {
                Ok(e) => {
                    if let Some(w) = e.out {
                        out_r.push(w);
                    }
                }
                Err(_) => break,
            }
        }
        assert_eq!(fused.steps(), refi.steps(), "case {case}: steps");
        assert_eq!(out_f, out_r, "case {case}: outputs");
        assert_eq!(mem_f, mem_r, "case {case}: memories");
    }
}
