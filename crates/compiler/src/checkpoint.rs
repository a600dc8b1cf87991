//! Live-out register checkpointing (§IV-B).
//!
//! Power failure destroys the register file; every region's live-in registers
//! must be reconstructible. This pass inserts [`Inst::Ckpt`] instructions —
//! stores of register values to per-register NVM slots — in one of two modes:
//!
//! * [`CkptMode::DefSite`] (cWSP): a backward **needs** dataflow tracks which
//!   register values are live across *some* region boundary; one checkpoint is
//!   placed immediately after each such definition. Definitions whose value
//!   never crosses a boundary get no checkpoint at all.
//! * [`CkptMode::PerBoundary`] (the unpruned baseline for the Fig 15
//!   ablation, iDO-style): every region checkpoints *all* of its live-out
//!   registers right before the boundary that ends it — simple but heavy on
//!   NVM write traffic.
//!
//! Both modes uphold the slot invariant the recovery slices rely on: at every
//! explicit boundary, each live-in register's slot holds exactly the value the
//! register has at that boundary (verified dynamically by
//! [`crate::verify::check_slices`]).

use crate::liveness::{defs, solve_backward, Liveness, RegSet};
use cwsp_ir::function::Function;
use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;
use cwsp_ir::types::Reg;
use std::collections::BTreeMap;

/// Checkpoint placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptMode {
    /// Checkpoint after each boundary-crossing definition (cWSP, pruned by
    /// [`crate::prune`]).
    #[default]
    DefSite,
    /// Checkpoint every live register at every region end (unpruned
    /// baseline).
    PerBoundary,
}

/// Insert checkpoints into every function of `module`. Returns the number of
/// `Ckpt` instructions inserted.
pub fn insert_checkpoints(module: &mut Module, mode: CkptMode) -> usize {
    let mut total = 0;
    for fid in 0..module.function_count() {
        let fid = cwsp_ir::module::FuncId(fid as u32);
        let f = module.function(fid);
        let positions = match mode {
            CkptMode::DefSite => def_site_positions(f),
            CkptMode::PerBoundary => per_boundary_positions(f),
        };
        total += positions.values().map(Vec::len).sum::<usize>();
        apply_positions(module.function_mut(fid), positions);
    }
    total
}

/// Positions keyed by `(block, insert-before-idx)` → registers to checkpoint.
type Positions = BTreeMap<(u32, usize), Vec<Reg>>;

/// Rebuild each block that gains checkpoints in one pass: the registers of
/// position `(b, i)` are checkpointed, in order, just before instruction `i`.
fn apply_positions(f: &mut Function, positions: Positions) {
    let mut positions = positions.into_iter().peekable();
    while let Some(&((b, _), _)) = positions.peek() {
        let block = &mut f.blocks[b as usize].insts;
        let old = std::mem::take(block);
        for (i, inst) in old.into_iter().enumerate() {
            while let Some(((_, _), regs)) = positions.next_if(|&((pb, pi), _)| pb == b && pi == i)
            {
                block.extend(regs.into_iter().map(|reg| Inst::Ckpt { reg }));
            }
            block.push(inst);
        }
        while let Some((_, regs)) = positions.next_if(|&((pb, _), _)| pb == b) {
            block.extend(regs.into_iter().map(|reg| Inst::Ckpt { reg }));
        }
    }
}

/// PerBoundary mode: before each `Boundary`, checkpoint all registers live at
/// the region start it introduces (== live across the boundary).
fn per_boundary_positions(f: &Function) -> Positions {
    let lv = Liveness::compute(f);
    let mut pos: Positions = BTreeMap::new();
    for (bid, _) in f.iter_blocks() {
        lv.walk_back(f, bid, |i, inst, live| {
            if matches!(inst, Inst::Boundary { .. }) && !live.is_empty() {
                pos.insert((bid.0, i), live.iter().collect());
            }
        });
    }
    pos
}

/// DefSite mode: backward "needs" dataflow.
///
/// `needs` = registers whose *current* value must eventually be checkpointed
/// because it is live at some boundary downstream. At a boundary, all live
/// registers join `needs`; at a definition of `r ∈ needs`, a checkpoint is
/// placed right after the definition and `r` leaves the set. Residual needs at
/// function entry (parameters and zero-initialized registers) are checkpointed
/// at the top of the entry block.
///
/// One liveness walk per block summarizes it as gen (registers live across
/// one of its boundaries and not defined above that boundary) and kill (the
/// registers it defines); the block fixpoint runs on the summaries, and a
/// second walk per block records the sites.
fn def_site_positions(f: &Function) -> Positions {
    let lv = Liveness::compute(f);
    let nregs = f.reg_count as usize;
    let mut gen = vec![RegSet::new(nregs); f.blocks.len()];
    let mut kill = vec![RegSet::new(nregs); f.blocks.len()];
    for (bid, _) in f.iter_blocks() {
        let (g, k) = (&mut gen[bid.index()], &mut kill[bid.index()]);
        lv.walk_back(f, bid, |_, inst, live| {
            for d in defs(inst) {
                g.remove(d);
                k.insert(d);
            }
            if matches!(inst, Inst::Boundary { .. }) {
                g.union_with(live);
            }
        });
    }
    // needs_out[b] = needs at the bottom of block b (flowing backward).
    let (_, needs_out) = solve_backward(f, &gen, &kill);
    // Final sweep: record checkpoint sites deterministically.
    let mut pos: Positions = BTreeMap::new();
    for ((bid, _), mut needs) in f.iter_blocks().zip(needs_out) {
        lv.walk_back(f, bid, |i, inst, live| {
            for d in defs(inst) {
                if needs.remove(d) {
                    // checkpoint right after the def
                    pos.entry((bid.0, i + 1)).or_default().push(d);
                }
            }
            if matches!(inst, Inst::Boundary { .. }) {
                // Every register live across this boundary needs a persisted
                // copy.
                needs.union_with(live);
            }
        });
        if bid == f.entry() && !needs.is_empty() {
            // Residual needs: parameters and zero-initialized registers.
            pos.entry((bid.0, 0)).or_default().extend(needs.iter());
        }
    }
    for regs in pos.values_mut() {
        regs.sort_unstable();
        regs.dedup();
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{BinOp, MemRef, Operand};
    use cwsp_ir::types::RegionId;

    fn count_ckpts(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Ckpt { .. }))
            .count()
    }

    fn single(b: FunctionBuilder, m: &mut Module) -> cwsp_ir::module::FuncId {
        let e = b.entry();
        let _ = e;
        let id = m.add_function(b.build());
        m.set_entry(id);
        id
    }

    #[test]
    fn value_crossing_boundary_is_checkpointed_after_def() {
        // r = 5 ; boundary ; store r
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(5));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, r.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let id = single(b, &mut m);
        let n = insert_checkpoints(&mut m, CkptMode::DefSite);
        assert_eq!(n, 1);
        let f = m.function(id);
        let insts = &f.block(f.entry()).insts;
        assert!(
            matches!(insts[1], Inst::Ckpt { reg } if reg == r),
            "ckpt directly after the def: {insts:?}"
        );
    }

    #[test]
    fn value_not_crossing_boundary_is_not_checkpointed() {
        // r = 5 ; store r ; boundary ; store 1
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(5));
        b.store(e, r.into(), MemRef::abs(64));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, Operand::imm(1), MemRef::abs(72));
        b.push(e, Inst::Halt);
        single(b, &mut m);
        assert_eq!(insert_checkpoints(&mut m, CkptMode::DefSite), 0);
    }

    #[test]
    fn per_boundary_mode_checkpoints_all_live() {
        // r1 = 1; r2 = 2; boundary; use both
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r1 = b.mov(e, Operand::imm(1));
        let r2 = b.mov(e, Operand::imm(2));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        let s = b.bin(e, BinOp::Add, r1.into(), r2.into());
        b.push(
            e,
            Inst::Ret {
                val: Some(s.into()),
            },
        );
        let id = single(b, &mut m);
        let n = insert_checkpoints(&mut m, CkptMode::PerBoundary);
        assert_eq!(n, 2);
        let f = m.function(id);
        let insts = &f.block(f.entry()).insts;
        // both ckpts precede the boundary
        let b_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Boundary { .. }))
            .unwrap();
        assert!(matches!(insts[b_idx - 1], Inst::Ckpt { .. }));
        assert!(matches!(insts[b_idx - 2], Inst::Ckpt { .. }));
    }

    #[test]
    fn def_site_mode_emits_fewer_or_equal_ckpts_than_per_boundary() {
        // Two boundaries with the same value live across both: DefSite emits
        // one ckpt; PerBoundary emits one per boundary.
        let build = || {
            let mut m = Module::new("t");
            let mut b = FunctionBuilder::new("main", 0);
            let e = b.entry();
            let r = b.mov(e, Operand::imm(5));
            b.push(e, Inst::Boundary { id: RegionId(0) });
            b.store(e, r.into(), MemRef::abs(64));
            b.push(e, Inst::Boundary { id: RegionId(1) });
            b.store(e, r.into(), MemRef::abs(72));
            b.push(e, Inst::Halt);
            let id = m.add_function(b.build());
            m.set_entry(id);
            m
        };
        let mut m1 = build();
        let n_def = insert_checkpoints(&mut m1, CkptMode::DefSite);
        let mut m2 = build();
        let n_per = insert_checkpoints(&mut m2, CkptMode::PerBoundary);
        assert_eq!(n_def, 1);
        assert_eq!(n_per, 2);
    }

    #[test]
    fn call_restores_are_recheckpointed_when_needed() {
        // live = 1; [call saves live]; boundary after call region; use live.
        // The Call's restore *re-defines* live, so a fresh ckpt must follow
        // the call — otherwise the slot would hold the callee's clobber.
        let mut m = Module::new("t");
        let mut leaf = FunctionBuilder::new("leaf", 0);
        let le = leaf.entry();
        leaf.push(le, Inst::Ret { val: None });
        let leaf = m.add_function(leaf.build());
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let live = b.mov(e, Operand::imm(1));
        b.push(
            e,
            Inst::Call {
                func: leaf,
                args: vec![],
                ret: None,
                save_regs: vec![live],
            },
        );
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, live.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let id = single(b, &mut m);
        insert_checkpoints(&mut m, CkptMode::DefSite);
        let f = m.function(id);
        let insts = &f.block(f.entry()).insts;
        let call_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Call { .. }))
            .unwrap();
        assert!(
            matches!(insts[call_idx + 1], Inst::Ckpt { reg } if reg == live),
            "ckpt after the call refreshes the slot: {insts:?}"
        );
    }

    #[test]
    fn entry_residual_needs_checkpoint_parameters() {
        // fn f(p): boundary; store p  -> p must be slot-backed at entry.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let p = b.param(0);
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, p.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        insert_checkpoints(&mut m, CkptMode::DefSite);
        let f = m.function(id);
        assert!(
            matches!(f.block(f.entry()).insts[0], Inst::Ckpt { reg } if reg == p),
            "param checkpointed at entry"
        );
    }

    #[test]
    fn semantics_preserved() {
        use cwsp_ir::builder::build_counted_loop;
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
        let id = m.add_function(b.build());
        m.set_entry(id);
        crate::region::form_regions(&mut m);
        let before = cwsp_ir::interp::run(&m, 100_000).unwrap().return_value;
        let n = insert_checkpoints(&mut m, CkptMode::DefSite);
        assert!(n > 0);
        assert!(m.validate().is_ok());
        let after = cwsp_ir::interp::run(&m, 100_000).unwrap().return_value;
        assert_eq!(before, after);
        let _ = count_ckpts(m.function(m.entry().unwrap()));
    }
}
