//! Classic scalar optimizations: constant folding, block-local copy
//! propagation, and dead-code elimination.
//!
//! The paper compiles everything at `-O3` before the cWSP passes run; these
//! passes are the reproduction's analogue, ensuring the region-formation and
//! checkpointing statistics are measured over reasonably optimized code
//! rather than naive builder output. They are semantics-preserving and safe
//! to run before the persistence pipeline (the pipeline's own invariants are
//! established afterwards).

use crate::liveness::{defs, Liveness};
use cwsp_ir::function::BlockId;
use cwsp_ir::fxhash::FxHashMap;
use cwsp_ir::inst::{Inst, MemRef, Operand};
use cwsp_ir::module::Module;
use cwsp_ir::types::{Reg, Word};

/// Statistics from one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptInfo {
    /// Binary/Mov instructions folded to constants.
    pub folded: usize,
    /// Register operands rewritten by copy propagation.
    pub copies_propagated: usize,
    /// Dead instructions removed.
    pub dce_removed: usize,
}

/// Run constant folding and DCE to a fixpoint (bounded).
///
/// Copy propagation ([`propagate_copies`]) is available as a standalone pass
/// but deliberately NOT part of the default pipeline: the persistence passes
/// rely on two-phase `t = f(x); x = t` updates as renaming points (DESIGN.md
/// §3.1), and propagating those copies re-creates the same-instruction
/// update pattern the split pass must then cut — costing checkpoint-pruning
/// opportunities. A production compiler would run copy propagation before a
/// renaming-aware backend instead.
pub fn optimize(module: &mut Module) -> OptInfo {
    let mut total = OptInfo::default();
    for _ in 0..4 {
        let mut round = OptInfo::default();
        round.folded += fold_constants(module);
        round.dce_removed += eliminate_dead_code(module);
        total.folded += round.folded;
        total.dce_removed += round.dce_removed;
        if round == OptInfo::default() {
            break;
        }
    }
    total
}

/// Run the full set including copy propagation (not pipeline-default; see
/// [`optimize`]).
pub fn optimize_aggressive(module: &mut Module) -> OptInfo {
    let mut total = optimize(module);
    total.copies_propagated += propagate_copies(module);
    let tail = optimize(module);
    total.folded += tail.folded;
    total.dce_removed += tail.dce_removed;
    total
}

/// Block-local constant folding: operands known constant at each point are
/// substituted; binaries over two constants become `Mov imm`.
pub fn fold_constants(module: &mut Module) -> usize {
    let mut changed = 0;
    for fid in 0..module.function_count() {
        let f = module.function_mut(cwsp_ir::module::FuncId(fid as u32));
        for block in &mut f.blocks {
            let mut consts: FxHashMap<Reg, Word> = FxHashMap::default();
            for inst in &mut block.insts {
                let subst = |op: &mut Operand, consts: &FxHashMap<Reg, Word>, n: &mut usize| {
                    if let Operand::Reg(r) = op {
                        if let Some(&c) = consts.get(r) {
                            *op = Operand::Imm(c);
                            *n += 1;
                        }
                    }
                };
                match inst {
                    Inst::Binary { op, dst, lhs, rhs } => {
                        subst(lhs, &consts, &mut changed);
                        subst(rhs, &consts, &mut changed);
                        if let (Operand::Imm(a), Operand::Imm(b)) = (*lhs, *rhs) {
                            // Don't fold tagged global addresses — arithmetic
                            // on them must stay within the offset field.
                            if !cwsp_ir::layout::is_tagged_global(a)
                                && !cwsp_ir::layout::is_tagged_global(b)
                            {
                                let v = op.eval(a, b);
                                *inst = Inst::Mov {
                                    dst: *dst,
                                    src: Operand::Imm(v),
                                };
                                changed += 1;
                                if let Inst::Mov {
                                    dst,
                                    src: Operand::Imm(v),
                                } = inst
                                {
                                    consts.insert(*dst, *v);
                                }
                                continue;
                            }
                        }
                        if let Inst::Binary { dst, .. } = inst {
                            consts.remove(dst);
                        }
                    }
                    Inst::Mov { dst, src } => {
                        subst(src, &consts, &mut changed);
                        match src {
                            Operand::Imm(v) => {
                                consts.insert(*dst, *v);
                            }
                            _ => {
                                consts.remove(dst);
                            }
                        }
                    }
                    Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                        // Fold constant address bases too.
                        let MemRef { base, offset } = addr;
                        if let Operand::Reg(r) = base {
                            if let Some(&c) = consts.get(r) {
                                if !cwsp_ir::layout::is_tagged_global(c) || *offset == 0 {
                                    *base = Operand::Imm(c);
                                    changed += 1;
                                }
                            }
                        }
                        if let Inst::Store { src, .. } = inst {
                            subst(src, &consts, &mut changed);
                        }
                        for d in defs(inst) {
                            consts.remove(&d);
                        }
                    }
                    other => {
                        for d in defs(other) {
                            consts.remove(&d);
                        }
                    }
                }
            }
        }
    }
    changed
}

/// Block-local copy propagation: after `Mov d, s` (register source), uses of
/// `d` read `s` until either is redefined.
pub fn propagate_copies(module: &mut Module) -> usize {
    let mut changed = 0;
    for fid in 0..module.function_count() {
        let f = module.function_mut(cwsp_ir::module::FuncId(fid as u32));
        for block in &mut f.blocks {
            let mut copies: FxHashMap<Reg, Reg> = FxHashMap::default();
            for inst in &mut block.insts {
                // Rewrite uses first.
                let rewrite = |op: &mut Operand, copies: &FxHashMap<Reg, Reg>, n: &mut usize| {
                    if let Operand::Reg(r) = op {
                        if let Some(&s) = copies.get(r) {
                            *op = Operand::Reg(s);
                            *n += 1;
                        }
                    }
                };
                match inst {
                    Inst::Binary { lhs, rhs, .. } => {
                        rewrite(lhs, &copies, &mut changed);
                        rewrite(rhs, &copies, &mut changed);
                    }
                    Inst::Mov { src, .. } => rewrite(src, &copies, &mut changed),
                    Inst::Load { addr, .. } => rewrite(&mut addr.base, &copies, &mut changed),
                    Inst::Store { src, addr } => {
                        rewrite(src, &copies, &mut changed);
                        rewrite(&mut addr.base, &copies, &mut changed);
                    }
                    Inst::CondBr { cond, .. } => rewrite(cond, &copies, &mut changed),
                    Inst::Out { val } => rewrite(val, &copies, &mut changed),
                    Inst::Ret { val: Some(v) } => rewrite(v, &copies, &mut changed),
                    Inst::Call { args, .. } => {
                        for a in args {
                            rewrite(a, &copies, &mut changed);
                        }
                    }
                    Inst::AtomicRmw {
                        addr,
                        src,
                        expected,
                        ..
                    } => {
                        rewrite(&mut addr.base, &copies, &mut changed);
                        rewrite(src, &copies, &mut changed);
                        rewrite(expected, &copies, &mut changed);
                    }
                    _ => {}
                }
                // Kill invalidated copies, then record new ones.
                copies.retain(|d, s| !defs(inst).any(|x| x == *d || x == *s));
                if let Inst::Mov {
                    dst,
                    src: Operand::Reg(s),
                } = inst
                {
                    if dst != s {
                        copies.insert(*dst, *s);
                    }
                }
            }
        }
    }
    changed
}

/// Liveness-based dead-code elimination: pure register-producing
/// instructions whose result is dead are removed. Stores, calls, atomics,
/// fences, boundaries, checkpoints, and output are never removed.
pub fn eliminate_dead_code(module: &mut Module) -> usize {
    let mut removed = 0;
    for fid in 0..module.function_count() {
        let fid = cwsp_ir::module::FuncId(fid as u32);
        let f = module.function(fid);
        let lv = Liveness::compute(f);
        let mut dead: Vec<(BlockId, Vec<usize>)> = Vec::new();
        for (bid, _) in f.iter_blocks() {
            let mut idx = Vec::new();
            lv.walk_back(f, bid, |i, inst, live| {
                // Loads are pure for DCE purposes in this IR (no volatile).
                let pure = matches!(
                    inst,
                    Inst::Binary { .. } | Inst::Mov { .. } | Inst::Load { .. }
                );
                if pure && inst.def().is_some_and(|d| !live.contains(d)) {
                    idx.push(i);
                }
            });
            if !idx.is_empty() {
                dead.push((bid, idx));
            }
        }
        let fm = module.function_mut(fid);
        for (bid, idx) in dead {
            removed += idx.len();
            remove_insts(&mut fm.block_mut(bid).insts, &idx);
        }
    }
    removed
}

/// Delete the instructions at indices `idx` (any order) in one pass.
pub(crate) fn remove_insts(insts: &mut Vec<Inst>, idx: &[usize]) {
    let mut drop = vec![false; insts.len()];
    for &i in idx {
        drop[i] = true;
    }
    let mut drop = drop.into_iter();
    insts.retain(|_| !drop.next().unwrap_or(false));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::{build_counted_loop, FunctionBuilder};
    use cwsp_ir::inst::BinOp;

    fn roundtrip(m: &Module) -> (Option<Word>, Vec<Word>) {
        let o = cwsp_ir::interp::run(m, 1_000_000).unwrap();
        (o.return_value, o.output)
    }

    #[test]
    fn constants_fold_through_chains() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let a = b.mov(e, Operand::imm(6));
        let c = b.bin(e, BinOp::Mul, a.into(), Operand::imm(7));
        let d = b.bin(e, BinOp::Add, c.into(), Operand::imm(0));
        b.push(
            e,
            Inst::Ret {
                val: Some(d.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);
        let before = roundtrip(&m);
        let info = optimize(&mut m);
        assert!(info.folded >= 2, "{info:?}");
        assert_eq!(roundtrip(&m), before);
        assert_eq!(before.0, Some(42));
    }

    #[test]
    fn copies_propagate_and_die() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let x = b.load(e, MemRef::abs(64));
        let y = b.mov(e, Operand::Reg(x));
        let z = b.bin(e, BinOp::Add, y.into(), y.into());
        b.push(
            e,
            Inst::Ret {
                val: Some(z.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);
        let before = roundtrip(&m);
        let info = optimize_aggressive(&mut m);
        assert!(info.copies_propagated >= 2, "{info:?}");
        assert!(info.dce_removed >= 1, "the Mov dies: {info:?}");
        assert_eq!(roundtrip(&m), before);
    }

    #[test]
    fn dce_never_touches_effects() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let dead = b.bin(e, BinOp::Mul, Operand::imm(3), Operand::imm(3));
        let _ = dead;
        b.store(e, Operand::imm(1), MemRef::abs(64));
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(9),
            },
        );
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let info = optimize(&mut m);
        assert_eq!(info.dce_removed, 1, "only the dead multiply: {info:?}");
        let o = cwsp_ir::interp::run(&m, 1000).unwrap();
        assert_eq!(o.output, vec![9]);
        assert_eq!(o.memory.load(64), 1);
    }

    #[test]
    fn loops_survive_optimization() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 1);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(20), |b, bb, i| {
            let v = b.load(bb, MemRef::global(g, 0));
            let s = b.bin(bb, BinOp::Add, v.into(), i.into());
            b.store(bb, s.into(), MemRef::global(g, 0));
        });
        let v = b.load(exit, MemRef::global(g, 0));
        b.push(
            exit,
            Inst::Ret {
                val: Some(v.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);
        let before = roundtrip(&m);
        optimize(&mut m);
        assert!(m.validate().is_ok(), "{:?}", m.validate());
        assert_eq!(roundtrip(&m), before);
        assert_eq!(before.0, Some(190));
    }

    #[test]
    fn tagged_global_addresses_are_not_folded_away() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 4);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.store(e, Operand::imm(5), MemRef::global(g, 2));
        let v = b.load(e, MemRef::global(g, 2));
        b.push(
            e,
            Inst::Ret {
                val: Some(v.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);
        let before = roundtrip(&m);
        optimize(&mut m);
        assert_eq!(roundtrip(&m), before);
        assert_eq!(before.0, Some(5));
    }

    #[test]
    fn optimize_workloads_preserves_behaviour() {
        for name in ["fft", "tatp"] {
            let w = cwsp_workloads_shim(name);
            let before = cwsp_ir::interp::run(&w, 30_000_000).unwrap();
            let mut m = w.clone();
            let info = optimize_aggressive(&mut m);
            assert!(m.validate().is_ok());
            let after = cwsp_ir::interp::run(&m, 30_000_000).unwrap();
            assert_eq!(after.output, before.output, "{name}");
            assert!(
                info.folded + info.copies_propagated + info.dce_removed > 0,
                "{name}"
            );
        }
    }

    // Avoid a dev-dependency cycle (workloads depends on compiler): rebuild a
    // small representative module inline.
    fn cwsp_workloads_shim(name: &str) -> Module {
        let mut m = Module::new(name);
        let g = m.add_global("arena", 1 << 12);
        let base = m.global_addr(g);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(64), |b, bb, i| {
            let idx = b.bin(bb, BinOp::And, i.into(), Operand::imm(63));
            let off = b.bin(bb, BinOp::Shl, idx.into(), Operand::imm(3));
            let addr = b.bin(bb, BinOp::Add, off.into(), Operand::imm(base));
            let v = b.load(bb, MemRef::reg(addr, 0));
            let t = b.mov(bb, Operand::Reg(v));
            let s = b.bin(bb, BinOp::Add, t.into(), Operand::imm(1));
            b.store(bb, s.into(), MemRef::reg(addr, 0));
        });
        b.push(
            exit,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        b.push(exit, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        m
    }
}
