//! Checkpoint coverage (I2) and recovery-slice well-formedness (I3).
//!
//! At every explicit region boundary, each register live *across* the
//! boundary must be restorable by the region's recovery slice (§IV-B/C):
//!
//! * the slice must exist and mention every live-in (**I2**);
//! * a `Slot` source is valid only if the register is provably slot-synced
//!   on every path reaching the boundary ([`crate::sync`]);
//! * a `Const` source must agree with an independent constant propagation
//!   ([`crate::consts`]) — a provable disagreement is an error, an
//!   unprovable constant only a warning;
//! * an `Expr` source's slot leaves must be synced at the boundary *and*
//!   must not be re-checkpointed inside the boundary's own region: a
//!   def-site checkpoint of a leaf would overwrite the slot the expression
//!   reads at recovery (**I3**).

use crate::consts::CVal;
use crate::diag::{Diagnostic, Invariant, Location, Severity};
use crate::facts::FnFacts;
use crate::sync::SlotSync;
use cwsp_compiler::liveness::Liveness;
use cwsp_compiler::slice::{RsSource, SliceTable};
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::Inst;
use cwsp_ir::types::{Reg, RegionId};

#[allow(clippy::too_many_arguments)] // a plain constructor; grouping would obscure it
fn diag(
    f: &Function,
    b: BlockId,
    idx: usize,
    severity: Severity,
    invariant: Invariant,
    code: &'static str,
    region: RegionId,
    message: String,
) -> Diagnostic {
    Diagnostic {
        severity,
        invariant,
        code,
        message,
        location: Location {
            function: f.name.clone(),
            block: b.0,
            inst: Some(idx),
        },
        region: Some(region.0),
        witness: None,
    }
}

/// Registers checkpointed anywhere inside the region fragment rooted just
/// after the boundary at `(b, idx)`, into `regs`: straight-line walk that
/// stops at the next boundary/call/terminator and follows branches into
/// blocks that do not begin a new region. `walk` is scratch.
fn region_ckpt_regs(f: &Function, b: BlockId, idx: usize, walk: &mut Walk, regs: &mut Vec<Reg>) {
    regs.clear();
    let Walk { visited, work } = walk;
    visited.clear();
    visited.resize(f.blocks.len(), false);
    work.push((b, idx + 1));
    while let Some((blk, start)) = work.pop() {
        let insts = &f.block(blk).insts;
        let mut i = start;
        while let Some(inst) = insts.get(i) {
            match inst {
                Inst::Boundary { .. } | Inst::Call { .. } | Inst::Ret { .. } | Inst::Halt => break,
                Inst::Ckpt { reg } => regs.push(*reg),
                Inst::Br { target } => {
                    if !starts_with_boundary(f, *target) && !visited[target.index()] {
                        visited[target.index()] = true;
                        work.push((*target, 0));
                    }
                    break;
                }
                Inst::CondBr {
                    if_true, if_false, ..
                } => {
                    for t in [*if_true, *if_false] {
                        if !starts_with_boundary(f, t) && !visited[t.index()] {
                            visited[t.index()] = true;
                            work.push((t, 0));
                        }
                    }
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Scratch for [`region_ckpt_regs`], reused across a function's boundaries.
#[derive(Default)]
struct Walk {
    visited: Vec<bool>,
    work: Vec<(BlockId, usize)>,
}

fn starts_with_boundary(f: &Function, b: BlockId) -> bool {
    matches!(f.block(b).insts.first(), Some(Inst::Boundary { .. }))
}

/// Check I2/I3 at every boundary of `f`, appending findings to `out`.
pub fn check_function(f: &Function, slices: &SliceTable, out: &mut Vec<Diagnostic>) {
    check(f, slices, &FnFacts::compute(f), out);
}

/// [`check_function`] over facts the caller already holds.
pub(crate) fn check(
    f: &Function,
    slices: &SliceTable,
    facts: &FnFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let live = Liveness::compute(f);
    let sync = SlotSync::compute(f, &facts.rpo);
    let consts = facts.consts();
    let (mut leaves, mut in_region) = (Vec::new(), Vec::new());
    let mut walk = Walk::default();
    let mut live_across = Vec::new();

    for &b in &facts.rpo {
        // Registers live across each boundary of the block, in program
        // order, from one backward sweep.
        live.walk_back(f, b, |_, inst, l| {
            if matches!(inst, Inst::Boundary { .. }) {
                live_across.push(l.clone());
            }
        });
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            let Inst::Boundary { id } = inst else {
                continue;
            };
            let live_in = live_across.pop().expect("one live set per boundary");
            let slice = slices.get(*id);

            // --- I2: every live-in register must be restorable. ---
            let Some(slice) = slice else {
                if !live_in.is_empty() {
                    let regs: Vec<String> = live_in.iter().map(|r| r.to_string()).collect();
                    out.push(diag(
                        f,
                        b,
                        i,
                        Severity::Error,
                        Invariant::CheckpointCoverage,
                        "I2-missing-slice",
                        *id,
                        format!(
                            "region {id} has live-in registers [{}] but no recovery slice",
                            regs.join(", ")
                        ),
                    ));
                }
                continue;
            };
            for r in live_in.iter() {
                if !slice.restores.iter().any(|(rr, _)| *rr == r) {
                    out.push(diag(
                        f,
                        b,
                        i,
                        Severity::Error,
                        Invariant::CheckpointCoverage,
                        "I2-missing-restore",
                        *id,
                        format!(
                            "{r} is live across region {id}'s boundary but its recovery slice does not restore it"
                        ),
                    ));
                }
            }

            // --- I3: each restore source must reproduce the live-in value. ---
            let synced = sync.synced_before(f, b, i);
            for (r, src) in &slice.restores {
                match src {
                    RsSource::Slot => {
                        let ok = synced.as_ref().is_some_and(|s| s.contains(*r));
                        if !ok {
                            let mut d = diag(
                                f,
                                b,
                                i,
                                Severity::Error,
                                Invariant::CheckpointCoverage,
                                "I2-unsynced-slot",
                                *id,
                                format!(
                                    "region {id} restores {r} from its slot, but the slot may be stale at the boundary"
                                ),
                            );
                            d.witness = Some(sync.witness_unsynced(f, facts.preds(), b, i, *r));
                            out.push(d);
                        }
                    }
                    RsSource::Const(c) => match consts.value_before(f, b, i, *r) {
                        Some(CVal::Const(actual)) if actual != *c => {
                            out.push(diag(
                                f,
                                b,
                                i,
                                Severity::Error,
                                Invariant::SliceWellFormed,
                                "I3-const-mismatch",
                                *id,
                                format!(
                                    "region {id} rematerializes {r} as {c:#x}, but {r} is provably {actual:#x} at the boundary"
                                ),
                            ));
                        }
                        Some(CVal::Const(_)) | None => {}
                        Some(CVal::Unknown) => {
                            out.push(diag(
                                f,
                                b,
                                i,
                                Severity::Warning,
                                Invariant::SliceWellFormed,
                                "I3-const-unverified",
                                *id,
                                format!(
                                    "region {id} rematerializes {r} as constant {c:#x}, which this analysis cannot confirm"
                                ),
                            ));
                        }
                    },
                    RsSource::Expr(e) => {
                        leaves.clear();
                        e.slot_leaves(&mut leaves);
                        leaves.sort_unstable();
                        leaves.dedup();
                        region_ckpt_regs(f, b, i, &mut walk, &mut in_region);
                        for &leaf in &leaves {
                            if !synced.as_ref().is_some_and(|s| s.contains(leaf)) {
                                let mut d = diag(
                                    f,
                                    b,
                                    i,
                                    Severity::Error,
                                    Invariant::SliceWellFormed,
                                    "I3-expr-leaf-unsynced",
                                    *id,
                                    format!(
                                        "region {id} rematerializes {r} from {leaf}'s slot, which may be stale at the boundary"
                                    ),
                                );
                                d.witness =
                                    Some(sync.witness_unsynced(f, facts.preds(), b, i, leaf));
                                out.push(d);
                            }
                            if in_region.contains(&leaf) {
                                out.push(diag(
                                    f,
                                    b,
                                    i,
                                    Severity::Error,
                                    Invariant::SliceWellFormed,
                                    "I3-leaf-clobbered-in-region",
                                    *id,
                                    format!(
                                        "region {id} rematerializes {r} from {leaf}'s slot, but the region re-checkpoints {leaf} — a crash after that checkpoint recovers the wrong value"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_compiler::slice::{RecoverySlice, RematExpr};
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{BinOp, Operand};

    /// `mov r; ckpt r; boundary; use r; halt` — the well-formed shape.
    fn well_formed() -> (Function, SliceTable, Reg) {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(5));
        b.push(e, Inst::Ckpt { reg: r0 });
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::Out { val: r0.into() });
        b.push(e, Inst::Halt);
        let f = b.build();
        let mut t = SliceTable::new();
        t.insert(
            RegionId(0),
            RecoverySlice {
                restores: vec![(r0, RsSource::Slot)],
            },
        );
        (f, t, r0)
    }

    fn run(f: &Function, t: &SliceTable) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_function(f, t, &mut out);
        out
    }

    #[test]
    fn well_formed_region_is_clean() {
        let (f, t, _) = well_formed();
        assert!(run(&f, &t).is_empty(), "{:?}", run(&f, &t));
    }

    #[test]
    fn missing_slice_with_live_ins_is_an_error() {
        let (f, _, _) = well_formed();
        let empty = SliceTable::new();
        let diags = run(&f, &empty);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I2-missing-slice");
        assert_eq!(diags[0].region, Some(0));
    }

    #[test]
    fn missing_restore_for_live_register_is_an_error() {
        let (f, _, _) = well_formed();
        let mut t = SliceTable::new();
        t.insert(RegionId(0), RecoverySlice::default());
        let diags = run(&f, &t);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I2-missing-restore");
    }

    #[test]
    fn dropped_checkpoint_makes_slot_stale() {
        let (mut f, t, _) = well_formed();
        // Delete the Ckpt (injected bug: dropped checkpoint save).
        f.blocks[0].insts.remove(1);
        let diags = run(&f, &t);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I2-unsynced-slot");
        assert!(
            diags[0]
                .witness
                .as_ref()
                .is_some_and(|w| !w.steps.is_empty()),
            "stale-slot errors carry a path witness"
        );
    }

    #[test]
    fn clobber_after_checkpoint_makes_slot_stale() {
        let (mut f, t, r0) = well_formed();
        // Redefine r0 between Ckpt and Boundary (injected bug: clobbered
        // slice source).
        f.blocks[0].insts.insert(
            2,
            Inst::Mov {
                dst: r0,
                src: Operand::imm(0xDEAD),
            },
        );
        let diags = run(&f, &t);
        assert!(
            diags.iter().any(|d| d.code == "I2-unsynced-slot"),
            "{diags:?}"
        );
        let d = diags.iter().find(|d| d.code == "I2-unsynced-slot").unwrap();
        let w = d.witness.as_ref().unwrap();
        assert!(
            w.steps.iter().any(|s| s.note.contains("clobbers r0")),
            "{w:?}"
        );
    }

    #[test]
    fn const_restore_verified_or_flagged() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(5));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::Out { val: r0.into() });
        b.push(e, Inst::Halt);
        let f = b.build();

        let slice = |c| {
            let mut t = SliceTable::new();
            t.insert(
                RegionId(0),
                RecoverySlice {
                    restores: vec![(r0, RsSource::Const(c))],
                },
            );
            t
        };
        assert!(run(&f, &slice(5)).is_empty());
        let diags = run(&f, &slice(6));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I3-const-mismatch");
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn unprovable_const_is_only_a_warning() {
        let mut b = FunctionBuilder::new("f", 1); // r0 is a parameter
        let e = b.entry();
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::Out { val: Reg(0).into() });
        b.push(e, Inst::Halt);
        let f = b.build();
        let mut t = SliceTable::new();
        t.insert(
            RegionId(0),
            RecoverySlice {
                restores: vec![(Reg(0), RsSource::Const(3))],
            },
        );
        let diags = run(&f, &t);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I3-const-unverified");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn expr_leaf_reckpted_inside_region_is_flagged() {
        // boundary R0 restores r1 = slot(r0) << 1; but R0's fragment
        // re-checkpoints r0.
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(2));
        let r1 = b.bin(e, BinOp::Shl, r0.into(), Operand::imm(1));
        b.push(e, Inst::Ckpt { reg: r0 });
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(
            e,
            Inst::Mov {
                dst: r0,
                src: Operand::imm(99),
            },
        );
        b.push(e, Inst::Ckpt { reg: r0 });
        b.push(e, Inst::Out { val: r1.into() });
        b.push(e, Inst::Out { val: r0.into() });
        b.push(e, Inst::Halt);
        let f = b.build();
        let mut t = SliceTable::new();
        t.insert(
            RegionId(0),
            RecoverySlice {
                restores: vec![
                    (
                        r1,
                        RsSource::Expr(RematExpr::Bin(
                            BinOp::Shl,
                            Box::new(RematExpr::Slot(r0)),
                            Box::new(RematExpr::Const(1)),
                        )),
                    ),
                    (r0, RsSource::Slot),
                ],
            },
        );
        let diags = run(&f, &t);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "I3-leaf-clobbered-in-region"),
            "{diags:?}"
        );
    }

    #[test]
    fn expr_leaf_unsynced_is_flagged_with_witness() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(2));
        let r1 = b.bin(e, BinOp::Shl, r0.into(), Operand::imm(1));
        // No Ckpt of r0 at all.
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::Out { val: r1.into() });
        b.push(e, Inst::Halt);
        let f = b.build();
        let mut t = SliceTable::new();
        t.insert(
            RegionId(0),
            RecoverySlice {
                restores: vec![(r1, RsSource::Expr(RematExpr::Slot(r0)))],
            },
        );
        let diags = run(&f, &t);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I3-expr-leaf-unsynced");
        assert!(diags[0].witness.is_some());
    }

    #[test]
    fn boundary_with_no_live_ins_needs_no_slice() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::Halt);
        let f = b.build();
        assert!(run(&f, &SliceTable::new()).is_empty());
    }
}
