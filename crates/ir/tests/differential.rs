//! Differential tests: the decoded execution core against the tree-walking
//! reference interpreter.
//!
//! [`cwsp_ir::interp::Interp`] executes from the pre-decoded micro-op stream;
//! [`cwsp_ir::reference::RefInterp`] is the original tree-walking
//! implementation kept as the executable specification. Every test here runs
//! both in lockstep over the same module and asserts the *entire* observable
//! surface is identical: each [`StepEffect`] (kind, read/write addresses and
//! values, boundary resume points, output words), every trap message, the
//! final memories, return values, and step counts — including across a
//! simulated crash and [`Interp::resume`].

use cwsp_ir::builder::{build_counted_loop, FunctionBuilder};
use cwsp_ir::inst::{AtomicOp, BinOp, Inst, MemRef, Operand};
use cwsp_ir::interp::{Interp, ResumePoint, StepEffect};
use cwsp_ir::memory::Memory;
use cwsp_ir::module::Module;
use cwsp_ir::reference::RefInterp;
use cwsp_ir::types::RegionId;

/// Step both interpreters to completion (or trap, or `max_steps`), asserting
/// identical effects at every step and identical final state. Returns the
/// boundary resume points the run produced, for crash/recovery tests.
fn lockstep(m: &Module, max_steps: u64) -> Vec<ResumePoint> {
    let mut mem_d = Memory::new();
    let mut mem_r = Memory::new();
    let mut dec = Interp::new(m, 0, &mut mem_d).expect("decoded interp");
    let mut refi = RefInterp::new(m, 0, &mut mem_r).expect("reference interp");
    assert_eq!(mem_d, mem_r, "global initialization differs");
    let mut resumes = Vec::new();
    for step in 0..max_steps {
        if dec.is_halted() || refi.is_halted() {
            break;
        }
        let ed = dec.step(&mut mem_d);
        let er = refi.step(&mut mem_r);
        assert_eq!(ed, er, "effect diverges at step {step}");
        let Ok(eff) = ed else { break };
        if let Some(b) = eff.boundary {
            resumes.push(b.resume);
        }
    }
    assert_eq!(dec.is_halted(), refi.is_halted(), "halt state differs");
    assert_eq!(dec.return_value(), refi.return_value());
    assert_eq!(dec.steps(), refi.steps());
    assert_eq!(mem_d, mem_r, "final memories differ");
    resumes
}

fn module_with_main(build: impl FnOnce(&mut Module, &mut FunctionBuilder)) -> Module {
    let mut m = Module::new("diff");
    let mut b = FunctionBuilder::new("main", 0);
    build(&mut m, &mut b);
    let f = m.add_function(b.build());
    m.set_entry(f);
    m
}

#[test]
fn arithmetic_and_memory_match() {
    let m = module_with_main(|m, b| {
        let g = m.add_global_init("g", 4, vec![9, 8, 7, 6]);
        let e = b.entry();
        let x = b.load(e, MemRef::global(g, 0));
        let y = b.bin(e, BinOp::Mul, x.into(), Operand::imm(3));
        let z = b.bin(e, BinOp::Xor, y.into(), x.into());
        b.store(e, z.into(), MemRef::global(g, 3));
        b.push(e, Inst::Out { val: z.into() });
        b.push(
            e,
            Inst::Ret {
                val: Some(z.into()),
            },
        );
    });
    lockstep(&m, 1_000);
}

#[test]
fn loops_match() {
    let m = module_with_main(|m, b| {
        let g = m.add_global("sum", 2);
        let e = b.entry();
        let (_, exit) = build_counted_loop(b, e, Operand::imm(300), |b, bb, i| {
            let old = b.load(bb, MemRef::global(g, 0));
            let sq = b.bin(bb, BinOp::Mul, i.into(), i.into());
            let new = b.bin(bb, BinOp::Add, old.into(), sq.into());
            b.store(bb, new.into(), MemRef::global(g, 0));
        });
        let s = b.load(exit, MemRef::global(g, 0));
        b.push(
            exit,
            Inst::Ret {
                val: Some(s.into()),
            },
        );
    });
    lockstep(&m, 100_000);
}

#[test]
fn calls_with_saves_match() {
    let mut m = Module::new("diff");
    let mut fb = FunctionBuilder::new("addmul", 2);
    let fe = fb.entry();
    let s = fb.bin(fe, BinOp::Add, fb.param(0).into(), fb.param(1).into());
    let p = fb.bin(fe, BinOp::Mul, s.into(), fb.param(0).into());
    fb.push(
        fe,
        Inst::Ret {
            val: Some(p.into()),
        },
    );
    let callee = m.add_function(fb.build());

    let mut b = FunctionBuilder::new("main", 0);
    let e = b.entry();
    let live1 = b.mov(e, Operand::imm(100));
    let live2 = b.mov(e, Operand::imm(7));
    let r = b.vreg();
    b.push(
        e,
        Inst::Call {
            func: callee,
            args: vec![Operand::imm(3), live2.into()],
            ret: Some(r),
            save_regs: vec![live1, live2],
        },
    );
    let t = b.bin(e, BinOp::Add, r.into(), live1.into());
    let u = b.bin(e, BinOp::Sub, t.into(), live2.into());
    b.push(
        e,
        Inst::Ret {
            val: Some(u.into()),
        },
    );
    let main = m.add_function(b.build());
    m.set_entry(main);
    lockstep(&m, 10_000);
}

#[test]
fn recursion_matches() {
    let mut m = Module::new("diff");
    let mut fb = FunctionBuilder::new("fib", 1);
    let e = fb.entry();
    let base = fb.block();
    let rec = fb.block();
    let n = fb.param(0);
    let c = fb.bin(e, BinOp::CmpLtU, n.into(), Operand::imm(2));
    fb.push(
        e,
        Inst::CondBr {
            cond: c.into(),
            if_true: base,
            if_false: rec,
        },
    );
    fb.push(
        base,
        Inst::Ret {
            val: Some(n.into()),
        },
    );
    let n1 = fb.bin(rec, BinOp::Sub, n.into(), Operand::imm(1));
    let n2 = fb.bin(rec, BinOp::Sub, n.into(), Operand::imm(2));
    let r1 = fb.vreg();
    fb.push(
        rec,
        Inst::Call {
            func: cwsp_ir::FuncId(0),
            args: vec![n1.into()],
            ret: Some(r1),
            save_regs: vec![n2],
        },
    );
    let r2 = fb.vreg();
    fb.push(
        rec,
        Inst::Call {
            func: cwsp_ir::FuncId(0),
            args: vec![n2.into()],
            ret: Some(r2),
            save_regs: vec![r1],
        },
    );
    let s = fb.bin(rec, BinOp::Add, r1.into(), r2.into());
    fb.push(
        rec,
        Inst::Ret {
            val: Some(s.into()),
        },
    );
    m.add_function(fb.build());

    let mut mb = FunctionBuilder::new("main", 0);
    let e = mb.entry();
    let r = mb.vreg();
    mb.push(
        e,
        Inst::Call {
            func: cwsp_ir::FuncId(0),
            args: vec![Operand::imm(12)],
            ret: Some(r),
            save_regs: vec![],
        },
    );
    mb.push(
        e,
        Inst::Ret {
            val: Some(r.into()),
        },
    );
    let main = m.add_function(mb.build());
    m.set_entry(main);
    lockstep(&m, 1_000_000);
}

#[test]
fn atomics_and_fences_match() {
    let m = module_with_main(|m, b| {
        let g = m.add_global("g", 1);
        let e = b.entry();
        let a = MemRef::global(g, 0);
        for (op, src, exp) in [
            (AtomicOp::FetchAdd, 5, 0),
            (AtomicOp::Cas, 100, 5),
            (AtomicOp::Cas, 999, 5),
            (AtomicOp::Swap, 1, 0),
        ] {
            let dst = b.vreg();
            b.push(
                e,
                Inst::AtomicRmw {
                    op,
                    dst,
                    addr: a,
                    src: Operand::imm(src),
                    expected: Operand::imm(exp),
                },
            );
            b.push(e, Inst::Fence);
        }
        let v = b.load(e, a);
        b.push(
            e,
            Inst::Ret {
                val: Some(v.into()),
            },
        );
    });
    lockstep(&m, 1_000);
}

#[test]
fn boundaries_and_ckpt_match() {
    let m = module_with_main(|m, b| {
        let g = m.add_global("g", 1);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(17));
        b.push(e, Inst::Ckpt { reg: r });
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, r.into(), MemRef::global(g, 0));
        b.push(e, Inst::Boundary { id: RegionId(1) });
        let v = b.load(e, MemRef::global(g, 0));
        b.push(e, Inst::Out { val: v.into() });
        b.push(e, Inst::Halt);
    });
    let resumes = lockstep(&m, 1_000);
    assert_eq!(resumes.len(), 2, "both explicit boundaries reported");
}

#[test]
fn traps_match_exactly() {
    // Unaligned access: both cores must produce the identical trap.
    let m = module_with_main(|_, b| {
        let e = b.entry();
        let _ = b.load(e, MemRef::abs(12345));
        b.push(e, Inst::Halt);
    });
    lockstep(&m, 100);

    // Step-after-halt: identical trap too.
    let m2 = module_with_main(|_, b| {
        let e = b.entry();
        b.push(e, Inst::Halt);
    });
    let mut mem_d = Memory::new();
    let mut mem_r = Memory::new();
    let mut dec = Interp::new(&m2, 0, &mut mem_d).unwrap();
    let mut refi = RefInterp::new(&m2, 0, &mut mem_r).unwrap();
    assert_eq!(dec.step(&mut mem_d), refi.step(&mut mem_r));
    assert_eq!(dec.step(&mut mem_d), refi.step(&mut mem_r));
}

#[test]
fn crash_and_resume_match_at_every_boundary() {
    // A program whose state is entirely memory-resident at each boundary, so
    // resuming from the boundary with no recovery slice is semantically
    // complete — both interpreters must rebuild identical frames and finish
    // identically from every boundary the run produced.
    let mut m = Module::new("diff");
    let g = m.add_global("g", 2);

    let mut fb = FunctionBuilder::new("bump", 1);
    let fe = fb.entry();
    fb.push(fe, Inst::Boundary { id: RegionId(7) });
    let old = fb.load(fe, MemRef::global(g, 0));
    let new = fb.bin(fe, BinOp::Add, old.into(), Operand::imm(1));
    fb.store(fe, new.into(), MemRef::global(g, 0));
    fb.push(
        fe,
        Inst::Ret {
            val: Some(new.into()),
        },
    );
    let bump = m.add_function(fb.build());

    let mut b = FunctionBuilder::new("main", 0);
    let e = b.entry();
    let r1 = b.vreg();
    b.push(
        e,
        Inst::Call {
            func: bump,
            args: vec![Operand::imm(0)],
            ret: Some(r1),
            save_regs: vec![],
        },
    );
    let r2 = b.vreg();
    b.push(
        e,
        Inst::Call {
            func: bump,
            args: vec![Operand::imm(0)],
            ret: Some(r2),
            save_regs: vec![r1],
        },
    );
    let s = b.bin(e, BinOp::Add, r1.into(), r2.into());
    b.store(e, s.into(), MemRef::global(g, 1));
    b.push(
        e,
        Inst::Ret {
            val: Some(s.into()),
        },
    );
    let main = m.add_function(b.build());
    m.set_entry(main);

    // First pass: record (resume point, memory snapshot) at every boundary.
    let mut mem = Memory::new();
    let mut i = Interp::new(&m, 0, &mut mem).unwrap();
    let mut snapshots = Vec::new();
    while !i.is_halted() {
        let eff = i.step(&mut mem).unwrap();
        if let Some(bd) = eff.boundary {
            snapshots.push((bd.resume, mem.clone()));
        }
    }
    assert!(snapshots.len() >= 4, "calls + rets + explicit boundaries");

    // Crash at each boundary: resume both interpreters from the snapshot and
    // run them in lockstep to completion.
    for (k, (rp, snap)) in snapshots.into_iter().enumerate() {
        let mut mem_d = snap.clone();
        let mut mem_r = snap;
        let mut dec = Interp::resume(&m, 0, &mem_d, rp)
            .unwrap_or_else(|e| panic!("boundary {k}: decoded resume: {e}"));
        let mut refi = RefInterp::resume(&m, 0, &mem_r, rp)
            .unwrap_or_else(|e| panic!("boundary {k}: reference resume: {e}"));
        let mut guard = 0;
        while !dec.is_halted() && !refi.is_halted() {
            let ed = dec.step(&mut mem_d);
            let er = refi.step(&mut mem_r);
            assert_eq!(ed, er, "boundary {k}: post-resume step diverges");
            if ed.is_err() {
                break;
            }
            guard += 1;
            assert!(guard < 10_000, "boundary {k}: runaway");
        }
        assert_eq!(dec.is_halted(), refi.is_halted(), "boundary {k}");
        assert_eq!(dec.return_value(), refi.return_value(), "boundary {k}");
        assert_eq!(mem_d, mem_r, "boundary {k}: post-resume memories differ");
    }
}

#[test]
fn step_into_stream_equals_step_stream() {
    // The allocation-free entry point must produce the same effects as the
    // allocating wrapper (and therefore as the reference).
    let m = module_with_main(|m, b| {
        let g = m.add_global("g", 1);
        let e = b.entry();
        let (_, exit) = build_counted_loop(b, e, Operand::imm(50), |b, bb, i| {
            b.store(bb, i.into(), MemRef::global(g, 0));
        });
        b.push(exit, Inst::Halt);
    });
    let mut mem_a = Memory::new();
    let mut mem_b = Memory::new();
    let mut a = Interp::new(&m, 0, &mut mem_a).unwrap();
    let mut b = Interp::new(&m, 0, &mut mem_b).unwrap();
    let mut scratch = StepEffect::default();
    while !a.is_halted() {
        let ea = a.step(&mut mem_a).unwrap();
        b.step_into(&mut mem_b, &mut scratch).unwrap();
        assert_eq!(ea, scratch);
    }
    assert!(b.is_halted());
    assert_eq!(mem_a, mem_b);
}

#[test]
fn outputs_and_oracle_runs_match() {
    let m = module_with_main(|m, b| {
        let g = m.add_global_init("g", 3, vec![2, 4, 6]);
        let e = b.entry();
        let (_, exit) = build_counted_loop(b, e, Operand::imm(3), |b, bb, i| {
            let shifted = b.bin(bb, BinOp::Shl, i.into(), Operand::imm(1));
            b.push(
                bb,
                Inst::Out {
                    val: shifted.into(),
                },
            );
            let _ = b.load(bb, MemRef::global(g, 0));
        });
        b.push(exit, Inst::Halt);
    });
    assert_eq!(
        cwsp_ir::reference::run_ref(&m, 10_000).unwrap().output,
        [0, 2, 4]
    );
    assert_oracles_agree(&m, 10_000, "outputs");
}

/// Step `m` three ways in lockstep — [`RefInterp::step`] (a fresh effect per
/// step), [`RefInterp::step_into`] with one reused buffer, and the decoded
/// [`Interp::step_into`] with its own reused buffer — asserting identical
/// effects at every step, then identical outputs, return values, step counts
/// and final memories. Returns the step count.
fn assert_buffer_reuse_lockstep(m: &Module, max_steps: u64, label: &str) -> u64 {
    let (mut mem_a, mut mem_b, mut mem_d) = (Memory::new(), Memory::new(), Memory::new());
    let mut alloc = RefInterp::new(m, 0, &mut mem_a).expect("reference interp");
    let mut reuse = RefInterp::new(m, 0, &mut mem_b).expect("reference interp");
    let mut dec = Interp::new(m, 0, &mut mem_d).expect("decoded interp");
    let (mut buf, mut dbuf) = (StepEffect::default(), StepEffect::default());
    let (mut out_b, mut out_d) = (Vec::new(), Vec::new());
    while !alloc.is_halted() && alloc.steps() < max_steps {
        let ea = alloc.step(&mut mem_a);
        let eb = reuse.step_into(&mut mem_b, &mut buf);
        let ed = dec.step_into(&mut mem_d, &mut dbuf);
        let step = alloc.steps();
        assert_eq!(eb, ed, "{label}: result diverges at step {step}");
        match ea {
            Ok(ea) => {
                assert!(eb.is_ok(), "{label}: step {step}");
                assert_eq!(ea, buf, "{label}: reused buffer diverges at step {step}");
                assert_eq!(buf, dbuf, "{label}: decoded diverges at step {step}");
            }
            Err(e) => {
                assert_eq!(Err(e), eb, "{label}: trap diverges at step {step}");
                break;
            }
        }
        out_b.extend(buf.out);
        out_d.extend(dbuf.out);
    }
    assert_eq!(reuse.is_halted(), alloc.is_halted(), "{label}: halt state");
    assert_eq!(dec.is_halted(), alloc.is_halted(), "{label}: halt state");
    assert_eq!(out_b, out_d, "{label}: outputs");
    assert_eq!(
        reuse.return_value(),
        alloc.return_value(),
        "{label}: retval"
    );
    assert_eq!(dec.return_value(), alloc.return_value(), "{label}: retval");
    assert_eq!(reuse.steps(), alloc.steps(), "{label}: steps");
    assert_eq!(dec.steps(), alloc.steps(), "{label}: steps");
    assert_eq!(mem_b, mem_a, "{label}: final memories");
    assert_eq!(mem_d, mem_a, "{label}: final memories");
    alloc.steps()
}

/// The oracle (`run_ref`, now stepping through one reused buffer) against
/// the decoded core's `run`.
fn assert_oracles_agree(m: &Module, max_steps: u64, label: &str) {
    let refr = cwsp_ir::reference::run_ref(m, max_steps);
    let dec = cwsp_ir::interp::run(m, max_steps);
    match (refr, dec) {
        (Ok(r), Ok(d)) => {
            assert_eq!(r.output, d.output, "{label}: oracle output");
            assert_eq!(r.return_value, d.return_value, "{label}: oracle retval");
            assert_eq!(r.steps, d.steps, "{label}: oracle steps");
            assert_eq!(r.memory, d.memory, "{label}: oracle memory");
        }
        (r, d) => assert_eq!(r.err(), d.err(), "{label}: oracle errors"),
    }
}

#[test]
fn reused_reference_buffer_matches_over_every_workload() {
    let workloads = cwsp_workloads::all();
    assert_eq!(workloads.len(), 38);
    for w in &workloads {
        let label = format!("{:?}/{}", w.suite, w.name);
        let steps = assert_buffer_reuse_lockstep(&w.module, 1_000_000, &label);
        assert!(steps < 1_000_000, "{label}: must halt within the budget");
        assert_oracles_agree(&w.module, 1_000_000, &label);
    }
}

#[test]
fn reused_reference_buffer_matches_over_a_genprog_corpus() {
    let mut steps = 0;
    for seed in 0..64u64 {
        let m = cwsp_core::genprog::generate_default(seed);
        let label = format!("genprog seed {seed}");
        steps += assert_buffer_reuse_lockstep(&m, 3_000_000, &label);
        assert_oracles_agree(&m, 3_000_000, &label);
    }
    assert!(steps > 0);
}
