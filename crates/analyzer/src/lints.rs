//! General IR lints (the `L-*` rule family).
//!
//! These ride the same traversals as the invariant checks but report code
//! hygiene rather than crash-consistency violations — with one exception:
//! a program store (or load) whose address provably lands in the reserved
//! checkpoint/metadata layout ranges is an error, because it would corrupt
//! (or depend on) recovery state behind the hardware's back, voiding the
//! separation assumption the other analyses rest on.

use crate::diag::{Diagnostic, Invariant, Location, Severity};
use crate::facts::FnFacts;
use crate::races::resolve_addr;
use cwsp_compiler::liveness::{defs, RegSet};
use cwsp_compiler::slice::{RsSource, SliceTable};
use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::Inst;
use cwsp_ir::layout;
use cwsp_ir::module::Module;
use cwsp_ir::pretty::fmt_inst;
use cwsp_ir::types::{Reg, RegionId};
use std::collections::HashSet;

fn diag(
    f: &Function,
    b: BlockId,
    idx: Option<usize>,
    severity: Severity,
    code: &'static str,
    message: String,
) -> Diagnostic {
    Diagnostic {
        severity,
        invariant: Invariant::Lint,
        code,
        message,
        location: Location {
            function: f.name.clone(),
            block: b.0,
            inst: idx,
        },
        region: None,
        witness: None,
    }
}

/// Run all lints on one function, appending findings to `out`.
pub fn check_function(
    module: &Module,
    f: &Function,
    slices: &SliceTable,
    out: &mut Vec<Diagnostic>,
) {
    check(module, f, slices, &FnFacts::compute(f), out);
}

/// [`check_function`] over facts the caller already holds.
pub(crate) fn check(
    module: &Module,
    f: &Function,
    slices: &SliceTable,
    facts: &FnFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let (rpo, reachable) = (&facts.rpo, &facts.reachable);

    // --- L-unreachable-block ---
    for (bid, _) in f.iter_blocks() {
        if !reachable[bid.index()] {
            out.push(diag(
                f,
                bid,
                None,
                Severity::Warning,
                "L-unreachable-block",
                format!("bb{} is unreachable from the function entry", bid.0),
            ));
        }
    }

    // --- L-uninit-read: forward must-defined analysis. ---
    // The interpreter zero-initializes registers, so this is a warning (the
    // program still executes deterministically), but reading a register no
    // path has written usually means a lowering bug.
    let nregs = f.reg_count as usize;
    let mut defined_in: Vec<Option<RegSet>> = vec![None; f.blocks.len()];
    let mut entry_defined = RegSet::new(nregs);
    for p in 0..f.param_count {
        entry_defined.insert(Reg(p));
    }
    defined_in[f.entry().index()] = Some(entry_defined);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo {
            let Some(mut state) = defined_in[b.index()].clone() else {
                continue;
            };
            for inst in &f.block(b).insts {
                for d in defs(inst) {
                    state.insert(d);
                }
            }
            for s in cfg::successors(f, b) {
                match &mut defined_in[s.index()] {
                    cur @ None => {
                        *cur = Some(state.clone());
                        changed = true;
                    }
                    Some(cur) => changed |= cur.intersect_with(&state),
                }
            }
        }
    }
    let mut warned_uninit: HashSet<Reg> = HashSet::new();
    for &b in rpo {
        let Some(mut state) = defined_in[b.index()].clone() else {
            continue;
        };
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            // `Ckpt r` on a never-written register is the entry residual
            // checkpoint pattern for zero-initialized locals — skip it.
            if !matches!(inst, Inst::Ckpt { .. }) {
                for u in inst.uses() {
                    if !state.contains(u) && warned_uninit.insert(u) {
                        out.push(diag(
                            f,
                            b,
                            Some(i),
                            Severity::Warning,
                            "L-uninit-read",
                            format!(
                                "{} reads {u}, which no path has written (registers zero-initialize)",
                                fmt_inst(inst)
                            ),
                        ));
                    }
                }
            }
            for d in defs(inst) {
                state.insert(d);
            }
        }
    }

    // --- L-dead-ckpt + L-reserved-store/load ---
    // A checkpoint is "consumed" if some slice of a region whose boundary
    // lives in this function restores from that register's slot (directly
    // or as an expression leaf).
    let mut consumed = RegSet::new(nregs);
    let region_ids: Vec<RegionId> = f
        .blocks
        .iter()
        .flat_map(|blk| {
            blk.insts.iter().filter_map(|i| match i {
                Inst::Boundary { id } => Some(*id),
                _ => None,
            })
        })
        .collect();
    let mut leaves = Vec::new();
    for id in &region_ids {
        if let Some(slice) = slices.get(*id) {
            for (r, src) in &slice.restores {
                match src {
                    RsSource::Slot => {
                        consumed.insert(*r);
                    }
                    RsSource::Expr(e) => {
                        e.slot_leaves(&mut leaves);
                        for leaf in leaves.drain(..) {
                            consumed.insert(leaf);
                        }
                    }
                    RsSource::Const(_) => {}
                }
            }
        }
    }

    let consts = facts.consts();
    for &b in rpo {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            match inst {
                Inst::Ckpt { reg } if !consumed.contains(*reg) => {
                    out.push(diag(
                        f,
                        b,
                        Some(i),
                        Severity::Warning,
                        "L-dead-ckpt",
                        format!(
                            "checkpoint of {reg} is never consumed by any recovery slice in this function"
                        ),
                    ));
                }
                Inst::Store { addr, .. } => {
                    if let Some(a) = resolve_addr(module, consts, f, b, i, addr) {
                        if layout::is_ckpt_addr(a) || layout::is_hw_meta_addr(a) {
                            out.push(diag(
                                f,
                                b,
                                Some(i),
                                Severity::Error,
                                "L-reserved-store",
                                format!(
                                    "{} writes reserved address {a:#x} (checkpoint/recovery metadata range)",
                                    fmt_inst(inst)
                                ),
                            ));
                        }
                    }
                }
                Inst::Load { addr, .. } => {
                    if let Some(a) = resolve_addr(module, consts, f, b, i, addr) {
                        if layout::is_ckpt_addr(a) || layout::is_hw_meta_addr(a) {
                            out.push(diag(
                                f,
                                b,
                                Some(i),
                                Severity::Error,
                                "L-reserved-load",
                                format!(
                                    "{} reads reserved address {a:#x} (checkpoint/recovery metadata range)",
                                    fmt_inst(inst)
                                ),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_compiler::slice::RecoverySlice;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{BinOp, MemRef, Operand};

    fn run(f: &Function, t: &SliceTable) -> Vec<Diagnostic> {
        let m = Module::new("t");
        let mut out = Vec::new();
        check_function(&m, f, t, &mut out);
        out
    }

    #[test]
    fn unreachable_block_warns() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let dead = b.block();
        b.push(e, Inst::Halt);
        b.push(dead, Inst::Halt);
        let f = b.build();
        let diags = run(&f, &SliceTable::new());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "L-unreachable-block");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn uninit_read_warns_once_per_register() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.vreg();
        let r1 = b.vreg();
        b.push(e, Inst::binary(BinOp::Add, r1, r0.into(), r0.into()));
        b.push(e, Inst::Out { val: r0.into() });
        b.push(e, Inst::Halt);
        let f = b.build();
        let diags = run(&f, &SliceTable::new());
        let uninit: Vec<_> = diags.iter().filter(|d| d.code == "L-uninit-read").collect();
        assert_eq!(uninit.len(), 1, "deduped per register: {diags:?}");
        assert!(uninit[0].message.contains("r0"));
    }

    #[test]
    fn defined_on_one_path_only_still_warns() {
        let mut bld = FunctionBuilder::new("f", 1);
        let e = bld.entry();
        let a = bld.block();
        let join = bld.block();
        let r1 = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: Reg(0).into(),
                if_true: a,
                if_false: join,
            },
        );
        bld.push(
            a,
            Inst::Mov {
                dst: r1,
                src: Operand::imm(1),
            },
        );
        bld.push(a, Inst::Br { target: join });
        bld.push(join, Inst::Out { val: r1.into() });
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let diags = run(&f, &SliceTable::new());
        assert!(diags.iter().any(|d| d.code == "L-uninit-read"), "{diags:?}");
    }

    #[test]
    fn param_read_is_not_uninit() {
        let mut b = FunctionBuilder::new("f", 1);
        let e = b.entry();
        b.push(e, Inst::Out { val: Reg(0).into() });
        b.push(e, Inst::Halt);
        let f = b.build();
        assert!(run(&f, &SliceTable::new()).is_empty());
    }

    #[test]
    fn dead_ckpt_warns_and_consumed_ckpt_does_not() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(1));
        let r1 = b.mov(e, Operand::imm(2));
        b.push(e, Inst::Ckpt { reg: r0 });
        b.push(e, Inst::Ckpt { reg: r1 });
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::Out { val: r0.into() });
        b.push(e, Inst::Out { val: r1.into() });
        b.push(e, Inst::Halt);
        let f = b.build();
        let mut t = SliceTable::new();
        t.insert(
            RegionId(0),
            RecoverySlice {
                restores: vec![(r0, RsSource::Slot), (r1, RsSource::Const(2))],
            },
        );
        let diags = run(&f, &t);
        let dead: Vec<_> = diags.iter().filter(|d| d.code == "L-dead-ckpt").collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert!(dead[0].message.contains("r1"));
    }

    #[test]
    fn store_to_ckpt_range_is_an_error() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        b.push(
            e,
            Inst::store(
                Operand::imm(1),
                MemRef::abs(layout::ckpt_slot_addr(0, Reg(3))),
            ),
        );
        b.push(e, Inst::Halt);
        let f = b.build();
        let diags = run(&f, &SliceTable::new());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "L-reserved-store");
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn reserved_store_found_through_const_propagated_base() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(layout::RECOVERY_META_BASE));
        b.push(e, Inst::store(Operand::imm(7), MemRef::reg(r0, 8)));
        b.push(e, Inst::Halt);
        let f = b.build();
        let diags = run(&f, &SliceTable::new());
        assert!(
            diags.iter().any(|d| d.code == "L-reserved-store"),
            "{diags:?}"
        );
    }

    #[test]
    fn load_from_reserved_range_is_an_error() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.vreg();
        b.push(
            e,
            Inst::load(r0, MemRef::abs(layout::ckpt_slot_addr(0, Reg(0)))),
        );
        b.push(e, Inst::Out { val: r0.into() });
        b.push(e, Inst::Halt);
        let f = b.build();
        let diags = run(&f, &SliceTable::new());
        assert!(
            diags.iter().any(|d| d.code == "L-reserved-load"),
            "{diags:?}"
        );
    }

    #[test]
    fn program_data_store_is_fine() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        b.push(
            e,
            Inst::store(Operand::imm(1), MemRef::abs(layout::GLOBAL_BASE)),
        );
        b.push(e, Inst::Halt);
        let f = b.build();
        assert!(run(&f, &SliceTable::new()).is_empty());
    }
}
