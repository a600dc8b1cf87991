//! Same-instruction register-update splitting.
//!
//! An instruction like `r = r + 1` both reads and writes `r`. Cutting a
//! region boundary immediately before it is *not* sufficient for recovery:
//! the checkpoint placed after the definition overwrites `r`'s NVM slot, and
//! if the region is the oldest unpersisted one (whose stores are in-place,
//! not undo-logged), a crash after the checkpoint persists would make the
//! recovery slice restore the *new* value and re-execution would double-apply
//! the update.
//!
//! De Kruijf et al. solve this with SSA-style register renaming; we apply the
//! minimal equivalent: rewrite `r = r ⊕ x` into `t = r ⊕ x; r = t` with a
//! fresh `t`. The region-formation pass then cuts before the copy. The
//! post-cut region defines `r` at its entry (so `r` is not live-in and its
//! slot is never read by that region's slice) and restores `t` from `t`'s own
//! slot — which the region never writes. See DESIGN.md §3.1.

use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;
use cwsp_ir::types::Reg;

/// Split every same-instruction register update in `module`. Returns the
/// number of instructions rewritten.
pub fn split_same_reg_updates(module: &mut Module) -> usize {
    let mut total = 0;
    for fid in 0..module.function_count() {
        let f = module.function_mut(cwsp_ir::module::FuncId(fid as u32));
        let mut next_reg = f.reg_count;
        for block in &mut f.blocks {
            let mut i = 0;
            while i < block.insts.len() {
                let inst = &mut block.insts[i];
                let needs_split = match inst {
                    Inst::Binary { dst, lhs, rhs, .. } => [lhs.as_reg(), rhs.as_reg()]
                        .iter()
                        .flatten()
                        .any(|r| r == dst),
                    Inst::Load { dst, addr } => addr.base.as_reg() == Some(*dst),
                    Inst::AtomicRmw {
                        dst,
                        addr,
                        src,
                        expected,
                        ..
                    } => [addr.base.as_reg(), src.as_reg(), expected.as_reg()]
                        .iter()
                        .flatten()
                        .any(|r| r == dst),
                    _ => false,
                };
                if needs_split {
                    let t = Reg(next_reg);
                    next_reg += 1;
                    let old_dst = match inst {
                        Inst::Binary { dst, .. }
                        | Inst::Load { dst, .. }
                        | Inst::AtomicRmw { dst, .. } => {
                            let old = *dst;
                            *dst = t;
                            old
                        }
                        _ => unreachable!(),
                    };
                    block.insts.insert(
                        i + 1,
                        Inst::Mov {
                            dst: old_dst,
                            src: t.into(),
                        },
                    );
                    total += 1;
                    i += 1; // skip the inserted copy
                }
                i += 1;
            }
        }
        f.reg_count = next_reg;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::{build_counted_loop, FunctionBuilder};
    use cwsp_ir::inst::{BinOp, MemRef, Operand};

    #[test]
    fn increment_is_split() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(1));
        b.push(
            e,
            Inst::Binary {
                op: BinOp::Add,
                dst: r,
                lhs: r.into(),
                rhs: Operand::imm(1),
            },
        );
        b.push(
            e,
            Inst::Ret {
                val: Some(r.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);
        let n = split_same_reg_updates(&mut m);
        assert_eq!(n, 1);
        assert!(m.validate().is_ok(), "{:?}", m.validate());
        // Semantics preserved, and the update instruction no longer reads its
        // own destination.
        assert_eq!(cwsp_ir::interp::run(&m, 100).unwrap().return_value, Some(2));
        let f = m.function(m.entry().unwrap());
        for block in &f.blocks {
            for inst in &block.insts {
                if let Some(d) = inst.def() {
                    if !matches!(inst, Inst::Mov { .. } | Inst::Call { .. }) {
                        assert!(!inst.uses().any(|u| u == d), "{inst:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn self_pointer_load_is_split() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(64));
        b.push(
            e,
            Inst::Load {
                dst: r,
                addr: MemRef::reg(r, 0),
            },
        );
        b.push(
            e,
            Inst::Ret {
                val: Some(r.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);
        assert_eq!(split_same_reg_updates(&mut m), 1);
        assert!(m.validate().is_ok());
        assert_eq!(cwsp_ir::interp::run(&m, 100).unwrap().return_value, Some(0));
    }

    #[test]
    fn hand_written_increment_loop_split_preserves_semantics() {
        // A hand-rolled loop with the classic `i = i + 1` latch (the builder
        // helper emits the safe two-phase form, so build this one manually).
        let mut m = Module::new("t");
        let g = m.add_global("g", 1);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        let i = b.vreg();
        b.push(
            e,
            Inst::Mov {
                dst: i,
                src: Operand::imm(0),
            },
        );
        b.push(e, Inst::Br { target: header });
        let c = b.bin(header, BinOp::CmpLtU, i.into(), Operand::imm(10));
        b.push(
            header,
            Inst::CondBr {
                cond: c.into(),
                if_true: body,
                if_false: exit,
            },
        );
        let v = b.load(body, MemRef::global(g, 0));
        let s = b.bin(body, BinOp::Add, v.into(), i.into());
        b.store(body, s.into(), MemRef::global(g, 0));
        b.push(
            body,
            Inst::Binary {
                op: BinOp::Add,
                dst: i,
                lhs: i.into(),
                rhs: Operand::imm(1),
            },
        );
        b.push(body, Inst::Br { target: header });
        let r = b.load(exit, MemRef::global(g, 0));
        b.push(
            exit,
            Inst::Ret {
                val: Some(r.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);
        let oracle = cwsp_ir::interp::run(&m, 10_000).unwrap();
        let n = split_same_reg_updates(&mut m);
        assert!(n >= 1, "the latch increment must be split");
        let after = cwsp_ir::interp::run(&m, 10_000).unwrap();
        assert_eq!(after.return_value, oracle.return_value);
    }

    #[test]
    fn builder_loops_need_no_splitting() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 1);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(10), |b, bb, i| {
            b.store(bb, i.into(), MemRef::global(g, 0));
        });
        b.push(exit, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        assert_eq!(
            split_same_reg_updates(&mut m),
            0,
            "two-phase form already safe"
        );
    }

    #[test]
    fn untouched_instructions_stay_put() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let a = b.mov(e, Operand::imm(1));
        let _ = b.bin(e, BinOp::Add, a.into(), Operand::imm(2)); // fresh dst
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let before = m.inst_count();
        assert_eq!(split_same_reg_updates(&mut m), 0);
        assert_eq!(m.inst_count(), before);
    }
}
