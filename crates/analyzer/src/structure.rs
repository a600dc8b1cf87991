//! Structural region rules (invariant family I4, §IV).
//!
//! Region formation promises: a boundary at every loop header and every
//! control-flow join, a boundary immediately before every call, and
//! boundaries on both sides of every synchronization point (atomic/fence).
//! These rules are what reduce each region's CFG fragment to a *tree* of
//! straight-line code — the property the idempotence analysis (and the
//! compiler's own cut placement) relies on for linear-time traversal.
//!
//! Checkpoint instructions may legitimately sit between a boundary and the
//! instruction it guards (the checkpoint-placement pass inserts `Ckpt`s
//! adjacent to boundaries in both placement modes), so adjacency checks skip
//! over `Ckpt`s.

use crate::diag::{Diagnostic, Invariant, Location, Severity};
use crate::facts::FnFacts;
use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::Inst;
use cwsp_ir::pretty::fmt_inst;

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
        invariant: Invariant::Structure,
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

/// Whether block `b` starts with a `Boundary`.
fn starts_with_boundary(f: &Function, b: BlockId) -> bool {
    matches!(f.block(b).insts.first(), Some(Inst::Boundary { .. }))
}

/// Nearest non-`Ckpt` instruction strictly before `idx` in `b`'s block.
fn prev_skipping_ckpts(f: &Function, b: BlockId, idx: usize) -> Option<&Inst> {
    f.block(b).insts[..idx]
        .iter()
        .rev()
        .find(|i| !matches!(i, Inst::Ckpt { .. }))
}

/// Nearest non-`Ckpt` instruction strictly after `idx` in `b`'s block.
fn next_skipping_ckpts(f: &Function, b: BlockId, idx: usize) -> Option<&Inst> {
    f.block(b).insts[idx + 1..]
        .iter()
        .find(|i| !matches!(i, Inst::Ckpt { .. }))
}

/// Check the structural rules on one function, appending findings to `out`.
pub fn check_function(f: &Function, out: &mut Vec<Diagnostic>) {
    check(f, &FnFacts::compute(f), out);
}

/// [`check_function`] over facts the caller already holds.
pub(crate) fn check(f: &Function, facts: &FnFacts<'_>, out: &mut Vec<Diagnostic>) {
    let (reachable, preds) = (&facts.reachable, facts.preds());
    let headers = cfg::loop_headers(f);

    for &b in &facts.rpo {
        // Join blocks and loop headers must begin with a boundary, or the
        // region fragment flowing into them is not a tree and re-execution
        // may replay a merged path.
        let npreds = preds[b.index()]
            .iter()
            .filter(|p| reachable[p.index()])
            .count();
        if npreds >= 2 && !starts_with_boundary(f, b) {
            out.push(diag(
                f,
                b,
                Some(0),
                Severity::Error,
                "I4-join-no-boundary",
                format!("control-flow join bb{} ({npreds} predecessors) does not start with a region boundary", b.0),
            ));
        }
        if headers.contains(&b) && !starts_with_boundary(f, b) {
            out.push(diag(
                f,
                b,
                Some(0),
                Severity::Error,
                "I4-loop-header-no-boundary",
                format!(
                    "loop header bb{} does not start with a region boundary",
                    b.0
                ),
            ));
        }

        let insts = &f.block(b).insts;
        for (i, inst) in insts.iter().enumerate() {
            match inst {
                Inst::Call { .. } => {
                    let guarded = i > 0
                        && matches!(prev_skipping_ckpts(f, b, i), Some(Inst::Boundary { .. }));
                    if !guarded {
                        out.push(diag(
                            f,
                            b,
                            Some(i),
                            Severity::Error,
                            "I4-call-no-boundary",
                            format!(
                                "{} is not immediately preceded by a region boundary",
                                fmt_inst(inst)
                            ),
                        ));
                    }
                }
                Inst::AtomicRmw { .. } | Inst::Fence => {
                    let before_ok = i > 0
                        && matches!(prev_skipping_ckpts(f, b, i), Some(Inst::Boundary { .. }));
                    let after_ok =
                        matches!(next_skipping_ckpts(f, b, i), Some(Inst::Boundary { .. }));
                    if !before_ok || !after_ok {
                        let side = match (before_ok, after_ok) {
                            (false, false) => "before or after",
                            (false, true) => "before",
                            _ => "after",
                        };
                        out.push(diag(
                            f,
                            b,
                            Some(i),
                            Severity::Error,
                            "I4-sync-no-boundary",
                            format!(
                                "synchronization point {} has no region boundary {side} it",
                                fmt_inst(inst)
                            ),
                        ));
                    }
                }
                Inst::Boundary { id } => {
                    // Two consecutive boundaries delimit an empty region —
                    // legal but wasteful (a boundary followed only by the
                    // block terminator is normal compiled output and is not
                    // flagged).
                    if matches!(insts.get(i + 1), Some(Inst::Boundary { .. })) {
                        out.push(diag(
                            f,
                            b,
                            Some(i),
                            Severity::Warning,
                            "I4-empty-region",
                            format!("region {id} is empty (boundary immediately follows boundary)"),
                        ));
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
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{AtomicOp, MemRef, Operand};
    use cwsp_ir::module::FuncId;
    use cwsp_ir::types::{Reg, RegionId};

    fn codes(f: &Function) -> Vec<&'static str> {
        let mut out = Vec::new();
        check_function(f, &mut out);
        out.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unguarded_call_and_join_are_flagged() {
        let mut bld = FunctionBuilder::new("f", 1);
        let e = bld.entry();
        let a = bld.block();
        let b2 = bld.block();
        let join = bld.block();
        bld.push(
            e,
            Inst::CondBr {
                cond: Reg(0).into(),
                if_true: a,
                if_false: b2,
            },
        );
        bld.push(a, Inst::Br { target: join });
        bld.push(b2, Inst::Br { target: join });
        bld.push(
            join,
            Inst::Call {
                func: FuncId(0),
                args: vec![],
                ret: None,
                save_regs: vec![],
            },
        );
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let c = codes(&f);
        assert!(c.contains(&"I4-join-no-boundary"), "{c:?}");
        assert!(c.contains(&"I4-call-no-boundary"), "{c:?}");
    }

    #[test]
    fn boundary_guarded_call_passes_even_through_ckpts() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let r0 = bld.mov(e, Operand::imm(1));
        bld.push(e, Inst::Boundary { id: RegionId(0) });
        bld.push(e, Inst::Ckpt { reg: r0 });
        bld.push(
            e,
            Inst::Call {
                func: FuncId(0),
                args: vec![],
                ret: None,
                save_regs: vec![],
            },
        );
        bld.push(e, Inst::Halt);
        let f = bld.build();
        assert!(codes(&f).is_empty(), "{:?}", codes(&f));
    }

    #[test]
    fn sync_needs_boundaries_on_both_sides() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        bld.push(e, Inst::Boundary { id: RegionId(0) });
        bld.push(
            e,
            Inst::AtomicRmw {
                op: AtomicOp::FetchAdd,
                dst: Reg(0),
                addr: MemRef::abs(64),
                src: Operand::imm(1),
                expected: Operand::imm(0),
            },
        );
        bld.push(e, Inst::Halt);
        let mut f = bld.build();
        f.reg_count = f.reg_count.max(1);
        let c = codes(&f);
        assert_eq!(c, vec!["I4-sync-no-boundary"], "missing the after-side");

        // Adding the after-boundary fixes it.
        f.blocks[0]
            .insts
            .insert(2, Inst::Boundary { id: RegionId(1) });
        assert!(codes(&f).is_empty(), "{:?}", codes(&f));
    }

    #[test]
    fn loop_header_without_boundary_is_flagged() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let header = bld.block();
        let exit = bld.block();
        let c = bld.vreg();
        bld.push(e, Inst::Br { target: header });
        bld.push(
            header,
            Inst::CondBr {
                cond: c.into(),
                if_true: header,
                if_false: exit,
            },
        );
        bld.push(exit, Inst::Halt);
        let f = bld.build();
        let found = codes(&f);
        assert!(found.contains(&"I4-loop-header-no-boundary"), "{found:?}");
    }

    #[test]
    fn empty_region_is_a_warning_not_error() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        bld.push(e, Inst::Boundary { id: RegionId(0) });
        bld.push(e, Inst::Boundary { id: RegionId(1) });
        bld.push(e, Inst::Halt);
        let f = bld.build();
        let mut out = Vec::new();
        check_function(&f, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "I4-empty-region");
        assert_eq!(out[0].severity, Severity::Warning);
    }

    #[test]
    fn boundary_before_terminator_is_not_an_empty_region() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        bld.push(e, Inst::Boundary { id: RegionId(0) });
        bld.push(e, Inst::Halt);
        let f = bld.build();
        assert!(codes(&f).is_empty());
    }

    #[test]
    fn unreachable_join_is_not_checked() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let dead1 = bld.block();
        let dead2 = bld.block();
        bld.push(e, Inst::Halt);
        bld.push(dead1, Inst::Br { target: dead2 });
        bld.push(dead2, Inst::Br { target: dead2 });
        let f = bld.build();
        assert!(codes(&f).is_empty(), "{:?}", codes(&f));
    }
}
