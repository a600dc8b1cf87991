//! Idempotence verification (invariant family I1, §IV-A).
//!
//! A region re-executes from its boundary after a crash, so it must never
//! overwrite state it previously read from *pre-region* context:
//!
//! * **memory WAR** — a store that may hit a word an earlier load of the
//!   same region read (the undo-log granularity makes the region's own
//!   stores revertible, but a load/store pair spanning the region start is
//!   not);
//! * **register WAR** — a definition of a register used earlier in the
//!   region: under def-site checkpointing the slot is overwritten at the
//!   def, so the recovery slice would restore the *new* value.
//!
//! Region roots are the function entry and the position after every
//! `Boundary`/`Call` — exactly the roots the region-formation pass uses.
//! With the structural rules of [`crate::structure`] in force, each root's
//! fragment is a tree of straight-line code, so a DFS that forks at
//! `CondBr` and stops at revisited blocks is exhaustive *and* linear. On
//! malformed input (missing join/header boundaries, separately reported as
//! I4 errors) the revisit cutoff keeps the traversal bounded.
//!
//! The traversal shares only `cwsp_compiler::alias` with the compiler; the
//! walk itself is independent of the cut-placement code it verifies.

use crate::diag::{Diagnostic, Invariant, Location, PathWitness, Severity, WitnessStep};
use cwsp_compiler::alias::{may_alias, AbstractAddr, PathState};
use cwsp_compiler::liveness::defs;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;
use cwsp_ir::pretty::fmt_inst;
use cwsp_ir::types::RegionId;
use std::collections::{HashMap, HashSet};

/// Summary of the idempotence pass over one function.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdemSummary {
    /// Region roots traversed.
    pub roots: usize,
    /// Roots with no WAR finding.
    pub clean_roots: usize,
}

/// Marks a register with no use yet on the current path.
const UNUSED: u32 = u32::MAX;

/// A path of a region's DFS waiting to be walked from `pos`. Its trace and
/// loads are the first `trace_len` and `loads_len` entries of the walk's
/// shared buffers: a path is resumed only after every path forked after it
/// has finished, and those only appended past its prefixes.
struct Fork<'m> {
    pos: (BlockId, usize),
    st: PathState<'m>,
    /// Last use position of each register on this path, by register index
    /// (`UNUSED` when none).
    last_use: Vec<u32>,
    trace_len: usize,
    loads_len: usize,
}

/// The witness of a finding: the path from position `from` to its end,
/// each step rendered from the instruction it names.
fn witness_from(f: &Function, trace: &[(BlockId, usize)], from: usize) -> PathWitness {
    let steps: Vec<WitnessStep> = trace[from..]
        .iter()
        .map(|&(b, i)| WitnessStep {
            block: b.0,
            idx: i,
            note: fmt_inst(&f.block(b).insts[i]),
        })
        .collect();
    PathWitness::elided(steps, 14)
}

/// Verify every region fragment of `f`, appending findings to `out`.
pub fn check_function(
    module: &Module,
    f: &Function,
    region_of_root: &HashMap<(u32, usize), RegionId>,
    out: &mut Vec<Diagnostic>,
) -> IdemSummary {
    // Roots: function entry plus the position after every boundary/call —
    // the same root set `cwsp_compiler::region` enumerates.
    let mut roots: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    for (bid, block) in f.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            if matches!(inst, Inst::Boundary { .. } | Inst::Call { .. }) {
                roots.push((bid, i + 1));
            }
        }
    }

    let mut summary = IdemSummary::default();
    // Dedup key: one finding per (code, store location) per function.
    let mut reported: HashSet<(&'static str, u32, usize)> = HashSet::new();
    // Buffers shared by every path of every root: the path walked so far as
    // `(block, idx)`, and `(address, path position)` of each of its loads.
    let mut trace: Vec<(BlockId, usize)> = Vec::new();
    let mut loads: Vec<(AbstractAddr, usize)> = Vec::new();
    let mut visited = vec![false; f.blocks.len()];
    let mut stack: Vec<Fork<'_>> = Vec::new();
    // Path states and use tables of finished paths, reused by later forks.
    let mut spare: Vec<(PathState<'_>, Vec<u32>)> = Vec::new();

    for root in roots {
        summary.roots += 1;
        let region = region_of_root.get(&(root.0 .0, root.1)).copied();
        let errors_before = out.len();
        visited.fill(false);
        let (mut st, mut last_use) = spare
            .pop()
            .unwrap_or_else(|| (PathState::new(module), Vec::new()));
        st.reset();
        last_use.clear();
        last_use.resize(f.reg_count as usize, UNUSED);
        stack.push(Fork {
            pos: root,
            st,
            last_use,
            trace_len: 0,
            loads_len: 0,
        });

        while let Some(fork) = stack.pop() {
            let Fork {
                mut pos,
                mut st,
                mut last_use,
                trace_len,
                loads_len,
            } = fork;
            trace.truncate(trace_len);
            loads.truncate(loads_len);
            'path: loop {
                let (b, idx) = pos;
                let insts = &f.block(b).insts;
                let Some(inst) = insts.get(idx) else {
                    break 'path; // fell off a (malformed) block
                };
                let p = trace.len();
                trace.push(pos);

                // --- memory WAR ---
                match inst {
                    Inst::Load { addr, .. } => {
                        let a = st.addr_of(addr);
                        loads.push((a, p));
                    }
                    Inst::Store { addr, .. } => {
                        let a = st.addr_of(addr);
                        if let Some(&(_, lp)) = loads.iter().find(|(la, _)| may_alias(*la, a)) {
                            if reported.insert(("I1-mem-war", b.0, idx)) {
                                out.push(Diagnostic {
                                    severity: Severity::Error,
                                    invariant: Invariant::Idempotence,
                                    code: "I1-mem-war",
                                    message: format!(
                                        "{} may overwrite a word loaded earlier in the same region (antidependence)",
                                        fmt_inst(inst)
                                    ),
                                    location: Location {
                                        function: f.name.clone(),
                                        block: b.0,
                                        inst: Some(idx),
                                    },
                                    region: region.map(|r| r.0),
                                    witness: Some(witness_from(f, &trace, lp)),
                                });
                            }
                        }
                    }
                    _ => {}
                }

                // --- register WAR ---
                // Boundary/Call end the region before their defs take
                // effect, and an atomic's def executes post-sync in its own
                // single-instruction region — all exempt, as in the
                // compiler's cut analysis.
                if !matches!(
                    inst,
                    Inst::Boundary { .. } | Inst::Call { .. } | Inst::AtomicRmw { .. }
                ) {
                    for d in defs(inst) {
                        let hazard_at = if inst.uses().any(|u| u == d) {
                            // `r = f(r, ...)` reads region-entry state only
                            // when it is the region's first instruction.
                            (p > 0).then_some(p)
                        } else {
                            let up = last_use[d.index()];
                            (up != UNUSED).then_some(up as usize)
                        };
                        if let Some(up) = hazard_at {
                            if reported.insert(("I1-reg-war", b.0, idx)) {
                                out.push(Diagnostic {
                                    severity: Severity::Error,
                                    invariant: Invariant::Idempotence,
                                    code: "I1-reg-war",
                                    message: format!(
                                        "{} overwrites {d}, which was read earlier in the same region",
                                        fmt_inst(inst)
                                    ),
                                    location: Location {
                                        function: f.name.clone(),
                                        block: b.0,
                                        inst: Some(idx),
                                    },
                                    region: region.map(|r| r.0),
                                    witness: Some(witness_from(f, &trace, up)),
                                });
                            }
                        }
                    }
                    for u in inst.uses() {
                        last_use[u.index()] = p as u32;
                    }
                }

                // --- advance ---
                match inst {
                    Inst::Boundary { .. } | Inst::Call { .. } | Inst::Ret { .. } | Inst::Halt => {
                        break 'path
                    }
                    Inst::Br { target } => {
                        if at_boundary_entry(f, *target) || visited[target.index()] {
                            break 'path;
                        }
                        visited[target.index()] = true;
                        st.transfer(inst);
                        pos = (*target, 0);
                    }
                    Inst::CondBr {
                        if_true, if_false, ..
                    } => {
                        st.transfer(inst);
                        let mut continued = false;
                        for t in [*if_true, *if_false] {
                            if at_boundary_entry(f, t) || visited[t.index()] {
                                continue;
                            }
                            visited[t.index()] = true;
                            if continued {
                                let (mut fork_st, mut fork_use) = spare
                                    .pop()
                                    .unwrap_or_else(|| (PathState::new(module), Vec::new()));
                                fork_st.clone_from(&st);
                                fork_use.clone_from(&last_use);
                                stack.push(Fork {
                                    pos: (t, 0),
                                    st: fork_st,
                                    last_use: fork_use,
                                    trace_len: trace.len(),
                                    loads_len: loads.len(),
                                });
                            } else {
                                pos = (t, 0);
                                continued = true;
                            }
                        }
                        if !continued {
                            break 'path;
                        }
                    }
                    _ => {
                        st.transfer(inst);
                        pos = (b, idx + 1);
                    }
                }
            }
            spare.push((st, last_use));
        }

        if out.len() == errors_before {
            summary.clean_roots += 1;
        }
    }
    summary
}

fn at_boundary_entry(f: &Function, b: BlockId) -> bool {
    matches!(f.block(b).insts.first(), Some(Inst::Boundary { .. }))
}

/// Map each region root position `(block, idx)` to the `RegionId` of the
/// boundary that starts it (the instruction at `idx - 1`). The entry root
/// and post-call roots have no explicit boundary and are absent.
pub fn root_regions(f: &Function) -> HashMap<(u32, usize), RegionId> {
    let mut map = HashMap::new();
    for (bid, block) in f.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            if let Inst::Boundary { id } = inst {
                map.insert((bid.0, i + 1), *id);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{BinOp, MemRef, Operand};
    use cwsp_ir::layout::GLOBAL_BASE;
    use cwsp_ir::types::Reg;

    fn run(f: &Function) -> (Vec<Diagnostic>, IdemSummary) {
        let m = Module::new("t");
        let mut out = Vec::new();
        let s = check_function(&m, f, &root_regions(f), &mut out);
        (out, s)
    }

    #[test]
    fn load_then_store_same_word_is_flagged_with_witness() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.vreg();
        b.push(e, Inst::load(r0, MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::store(Operand::imm(1), MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::Halt);
        let f = b.build();
        let (diags, s) = run(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I1-mem-war");
        let w = diags[0].witness.as_ref().unwrap();
        assert!(w.steps.first().unwrap().note.contains("ldr"), "{w:?}");
        assert!(w.steps.last().unwrap().note.contains("str"), "{w:?}");
        assert_eq!(s.clean_roots, 0);
    }

    #[test]
    fn boundary_between_load_and_store_clears_the_hazard() {
        use cwsp_ir::types::RegionId;
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.vreg();
        b.push(e, Inst::load(r0, MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::store(Operand::imm(1), MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::Halt);
        let f = b.build();
        let (diags, s) = run(&f);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(s.roots, 2);
        assert_eq!(s.clean_roots, 2);
    }

    #[test]
    fn distinct_words_do_not_alias() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.vreg();
        b.push(e, Inst::load(r0, MemRef::abs(GLOBAL_BASE)));
        b.push(
            e,
            Inst::store(Operand::imm(1), MemRef::abs(GLOBAL_BASE + 8)),
        );
        b.push(e, Inst::Halt);
        let f = b.build();
        let (diags, _) = run(&f);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn register_war_is_flagged_beyond_position_zero() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(1)); // p0: def only, fine
        let _r1 = b.bin(e, BinOp::Add, r0.into(), Operand::imm(1)); // p1: use r0
        b.push(
            e,
            Inst::Mov {
                dst: r0,
                src: Operand::imm(9), // p2: def after use -> WAR
            },
        );
        b.push(e, Inst::Halt);
        let f = b.build();
        let (diags, _) = run(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I1-reg-war");
        assert!(diags[0].message.contains("r0"));
    }

    #[test]
    fn same_inst_use_def_exempt_only_at_region_start() {
        use cwsp_ir::types::RegionId;
        // `r0 = r0 + 1` as the first region instruction: exempt.
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.vreg();
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::binary(BinOp::Add, r0, r0.into(), Operand::imm(1)));
        b.push(e, Inst::Halt);
        let f = b.build();
        let (diags, _) = run(&f);
        assert!(diags.is_empty(), "{diags:?}");

        // The same instruction mid-region: flagged.
        let mut b = FunctionBuilder::new("g", 0);
        let e = b.entry();
        let r0 = b.vreg();
        let r9 = b.vreg();
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(
            e,
            Inst::Mov {
                dst: r9,
                src: Operand::imm(0),
            },
        );
        b.push(e, Inst::binary(BinOp::Add, r0, r0.into(), Operand::imm(1)));
        b.push(e, Inst::Halt);
        let f = b.build();
        let (diags, _) = run(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "I1-reg-war");
    }

    #[test]
    fn condbr_forks_are_both_explored() {
        // Hazard only on the false arm.
        let mut bld = FunctionBuilder::new("f", 1);
        let e = bld.entry();
        let t = bld.block();
        let fl = bld.block();
        let r1 = bld.vreg();
        bld.push(e, Inst::load(r1, MemRef::abs(GLOBAL_BASE)));
        bld.push(
            e,
            Inst::CondBr {
                cond: Reg(0).into(),
                if_true: t,
                if_false: fl,
            },
        );
        bld.push(t, Inst::Halt);
        bld.push(fl, Inst::store(Operand::imm(2), MemRef::abs(GLOBAL_BASE)));
        bld.push(fl, Inst::Halt);
        let f = bld.build();
        let (diags, _) = run(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].location.block, fl.0);
    }

    #[test]
    fn cyclic_cfg_without_boundaries_terminates() {
        // Malformed (loop header without boundary): the traversal must not
        // hang; the structure pass owns reporting that defect.
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let header = bld.block();
        let c = bld.vreg();
        bld.push(e, Inst::Br { target: header });
        bld.push(
            header,
            Inst::CondBr {
                cond: c.into(),
                if_true: header,
                if_false: header,
            },
        );
        let f = bld.build();
        let (_, s) = run(&f);
        assert_eq!(s.roots, 1);
    }

    #[test]
    fn region_id_attribution_via_root_map() {
        use cwsp_ir::types::RegionId;
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.vreg();
        b.push(e, Inst::Boundary { id: RegionId(7) });
        b.push(e, Inst::load(r0, MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::store(Operand::imm(1), MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::Halt);
        let f = b.build();
        let (diags, _) = run(&f);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].region, Some(7));
    }
}
