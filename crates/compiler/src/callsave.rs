//! Call-save computation: fill each call's `save_regs` with the registers
//! live across it.
//!
//! On real hardware, compiler calling conventions spill caller-saved live
//! values to the stack around calls; cWSP relies on exactly that to make
//! cross-frame register state persistent (the stack is NVM). Our IR makes the
//! spill explicit in the `Call` instruction; this pass computes the minimal
//! save set = registers live after the call, minus the call's own return
//! register.

use crate::liveness::Liveness;
use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;
use cwsp_ir::types::Reg;

/// Fill `save_regs` on every call in the module. Returns the total number of
/// saved registers across all call sites (a spill-traffic statistic).
pub fn compute_call_saves(module: &mut Module) -> usize {
    let mut total = 0;
    for fid in 0..module.function_count() {
        let fid = cwsp_ir::module::FuncId(fid as u32);
        let f = module.function(fid);
        let lv = Liveness::compute(f);
        let mut updates: Vec<(u32, usize, Vec<Reg>)> = Vec::new();
        for (bid, _) in f.iter_blocks() {
            lv.walk_back(f, bid, |i, inst, live| {
                if let Inst::Call { ret, .. } = inst {
                    let saves: Vec<Reg> = live.iter().filter(|r| Some(*r) != *ret).collect();
                    total += saves.len();
                    updates.push((bid.0, i, saves));
                }
            });
        }
        let fm = module.function_mut(fid);
        for (b, i, saves) in updates {
            if let Inst::Call { save_regs, .. } = &mut fm.blocks[b as usize].insts[i] {
                *save_regs = saves;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{BinOp, Operand};

    #[test]
    fn live_across_call_is_saved_and_dead_is_not() {
        let mut m = Module::new("t");
        let mut leaf = FunctionBuilder::new("leaf", 0);
        let le = leaf.entry();
        leaf.push(
            le,
            Inst::Ret {
                val: Some(Operand::imm(1)),
            },
        );
        let leaf = m.add_function(leaf.build());

        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let live = b.mov(e, Operand::imm(10));
        let dead = b.mov(e, Operand::imm(20));
        let _ = dead;
        let r = b.call(e, leaf, vec![], true).unwrap();
        let s = b.bin(e, BinOp::Add, live.into(), r.into());
        b.push(
            e,
            Inst::Ret {
                val: Some(s.into()),
            },
        );
        let main = m.add_function(b.build());
        m.set_entry(main);

        let n = compute_call_saves(&mut m);
        assert_eq!(n, 1);
        let f = m.function(main);
        let call = f
            .block(f.entry())
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Call { save_regs, ret, .. } => Some((save_regs.clone(), *ret)),
                _ => None,
            })
            .unwrap();
        assert_eq!(call.0, vec![live]);
        assert!(
            !call.0.contains(&call.1.unwrap()),
            "return register never saved"
        );

        // Semantics preserved (and now robust to register-file loss).
        let out = cwsp_ir::interp::run(&m, 1000).unwrap();
        assert_eq!(out.return_value, Some(11));
    }

    #[test]
    fn chained_calls_each_save_what_they_need() {
        let mut m = Module::new("t");
        let mut leaf = FunctionBuilder::new("leaf", 1);
        let le = leaf.entry();
        let p = leaf.param(0);
        let v = leaf.bin(le, BinOp::Add, p.into(), Operand::imm(1));
        leaf.push(
            le,
            Inst::Ret {
                val: Some(v.into()),
            },
        );
        let leaf = m.add_function(leaf.build());

        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let keep = b.mov(e, Operand::imm(100));
        let r1 = b.call(e, leaf, vec![Operand::imm(1)], true).unwrap();
        let r2 = b.call(e, leaf, vec![r1.into()], true).unwrap();
        let s1 = b.bin(e, BinOp::Add, r2.into(), keep.into());
        b.push(
            e,
            Inst::Ret {
                val: Some(s1.into()),
            },
        );
        let main = m.add_function(b.build());
        m.set_entry(main);

        compute_call_saves(&mut m);
        let f = m.function(main);
        let saves: Vec<Vec<Reg>> = f
            .block(f.entry())
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Call { save_regs, .. } => Some(save_regs.clone()),
                _ => None,
            })
            .collect();
        // call1 saves keep (r1 is its ret); call2 saves keep (r1 dead after).
        assert!(saves[0].contains(&keep));
        assert!(saves[1].contains(&keep));
        assert!(
            !saves[1].contains(&r1),
            "r1 dead after second call consumes it"
        );
        assert_eq!(
            cwsp_ir::interp::run(&m, 1000).unwrap().return_value,
            Some(103)
        );
    }
}
