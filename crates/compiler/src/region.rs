//! Idempotent region formation (§IV-A).
//!
//! A region is re-executable (idempotent) if it contains no *antidependence*:
//! it must never overwrite a register or memory word it previously read from
//! pre-region state. The pass proceeds in two layers:
//!
//! 1. **Structural boundaries** are inserted at loop headers (one region per
//!    iteration), join blocks, immediately before every call site, and around
//!    every synchronization point (atomics/fences) — mirroring the paper's
//!    "initial region boundaries".
//! 2. **Antidependence cuts**: with structural boundaries in place, each
//!    remaining region is a *tree* of straight-line code. Every root-to-leaf
//!    path is scanned with the symbolic alias analysis ([`crate::alias`]) to
//!    collect memory WAR pairs `(load@i, store@j)` and register WAR pairs
//!    `(use@i, def@j)`. Each pair yields an interval of valid cut points, and
//!    a greedy minimum hitting set (interval stabbing — optimal for
//!    intervals) chooses the boundaries.
//!
//! Unlike De Kruijf et al., who *rename* registers to remove register
//! antidependences, we cut them. That choice makes the checkpoint-slot WAR
//! hazard structurally impossible: no register is ever both live-in to and
//!   checkpointed inside the same region (see DESIGN.md §3.1).

use crate::alias::{may_alias, PathState};
use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;
use cwsp_ir::types::RegionId;
use std::collections::{BTreeSet, HashMap};

/// Limits for path enumeration inside a region tree. If exceeded, the
/// offending fork targets receive structural boundaries and enumeration is
/// retried (guaranteeing termination: in the limit every block entry is a
/// boundary).
const MAX_PATHS_PER_ROOT: usize = 128;
const MAX_PATH_LEN: usize = 4096;

/// Outcome of region formation for a module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionInfo {
    /// Total explicit boundaries inserted (structural + cuts).
    pub boundaries: usize,
    /// How many came from antidependence cuts.
    pub antidep_cuts: usize,
    /// How many came from structural seeds (headers, joins, calls, syncs).
    pub structural: usize,
    /// Number of static regions (== boundaries; each boundary starts one).
    pub region_count: usize,
}

/// Partition every function of `module` into idempotent regions by inserting
/// [`Inst::Boundary`] instructions, and assign dense [`RegionId`]s.
///
/// Returns formation statistics. Functions already containing hand-written
/// boundaries (e.g. the simulated kernel entry path, §VI) keep them; ids are
/// (re)assigned globally.
pub fn form_regions(module: &mut Module) -> RegionInfo {
    let mut info = RegionInfo::default();
    for fid in 0..module.function_count() {
        let fid = cwsp_ir::module::FuncId(fid as u32);
        // Work on a clone so the alias analysis can consult the module's
        // global table while the function is being rewritten.
        let mut f = module.function(fid).clone();
        let (structural, cuts) = form_function(&mut f, module);
        *module.function_mut(fid) = f;
        info.structural += structural;
        info.antidep_cuts += cuts;
    }
    // Assign dense region ids across the module, in (function, block, idx)
    // order so ids are deterministic.
    let mut next = 0u32;
    for fid in 0..module.function_count() {
        let f = module.function_mut(cwsp_ir::module::FuncId(fid as u32));
        for block in &mut f.blocks {
            for inst in &mut block.insts {
                if let Inst::Boundary { id } = inst {
                    *id = RegionId(next);
                    next += 1;
                }
            }
        }
    }
    info.boundaries = next as usize;
    info.region_count = next as usize;
    info
}

fn form_function(f: &mut Function, module: &Module) -> (usize, usize) {
    // Phase 1: structural boundaries.
    let mut positions: BTreeSet<(u32, usize)> = BTreeSet::new();
    let preds = cfg::predecessors(f);
    for h in cfg::loop_headers(f) {
        positions.insert((h.0, 0));
    }
    for (bid, _) in f.iter_blocks() {
        if preds[bid.index()].len() >= 2 {
            positions.insert((bid.0, 0));
        }
    }
    for (bid, block) in f.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            match inst {
                Inst::Call { .. } => {
                    positions.insert((bid.0, i));
                }
                Inst::AtomicRmw { .. } | Inst::Fence => {
                    positions.insert((bid.0, i));
                    positions.insert((bid.0, i + 1));
                }
                _ => {}
            }
        }
    }
    // Drop structural boundaries that would duplicate an existing explicit
    // boundary already at that position (hand-written regions, §VI).
    positions.retain(|&(b, i)| {
        !matches!(
            f.blocks[b as usize].insts.get(i.saturating_sub(1)),
            Some(Inst::Boundary { .. }) if i > 0
        ) && !matches!(
            f.blocks[b as usize].insts.get(i),
            Some(Inst::Boundary { .. })
        )
    });
    let structural = positions.len();
    insert_boundaries(f, &positions);

    // Phase 2: antidependence cuts, iterating in case path enumeration needs
    // extra structural boundaries to stay bounded.
    let mut cuts_total = 0;
    for _round in 0..8 {
        match antidep_cuts(f, module) {
            Ok(cuts) => {
                cuts_total += cuts.len();
                if cuts.is_empty() {
                    break;
                }
                insert_boundaries(f, &cuts);
                // Re-analyze: inserted cuts shift positions; a second pass
                // confirms no pair remains (and normally finds none).
            }
            Err(overflow_blocks) => {
                let extra: BTreeSet<(u32, usize)> =
                    overflow_blocks.into_iter().map(|b| (b.0, 0)).collect();
                cuts_total += extra.len();
                insert_boundaries(f, &extra);
            }
        }
    }
    (structural, cuts_total)
}

/// Insert `Boundary` placeholders before each `(block, idx)` position.
fn insert_boundaries(f: &mut Function, positions: &BTreeSet<(u32, usize)>) {
    let mut by_block: HashMap<u32, Vec<usize>> = HashMap::new();
    for &(b, i) in positions {
        by_block.entry(b).or_default().push(i);
    }
    for (b, mut idxs) in by_block {
        idxs.sort_unstable();
        idxs.dedup();
        let insts = &mut f.blocks[b as usize].insts;
        for &i in idxs.iter().rev() {
            // Never insert after the terminator (positions always point at an
            // existing non-terminator instruction).
            debug_assert!(i < insts.len(), "boundary position past block end");
            let i = i.min(insts.len() - 1);
            if matches!(insts.get(i), Some(Inst::Boundary { .. })) {
                continue; // already a boundary here
            }
            insts.insert(
                i,
                Inst::Boundary {
                    id: RegionId(u32::MAX),
                },
            );
        }
    }
}

/// Count the antidependence cut positions still required by `f` — zero for
/// any correctly formed function. The static counterpart of
/// [`crate::verify::check_antidependence`].
pub fn residual_antidependences(f: &Function, module: &Module) -> usize {
    match antidep_cuts(f, module) {
        Ok(cuts) => cuts.len(),
        Err(overflow) => overflow.len().max(1),
    }
}

/// A position along an enumerated path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PathPos {
    block: BlockId,
    idx: usize,
}

/// Compute the set of antidependence cut positions for `f`, or the set of
/// fork-target blocks that overflowed enumeration limits.
fn antidep_cuts(f: &Function, module: &Module) -> Result<BTreeSet<(u32, usize)>, Vec<BlockId>> {
    // Region roots: function entry plus the position after every break
    // (boundary or call).
    let mut roots: Vec<PathPos> = vec![PathPos {
        block: f.entry(),
        idx: 0,
    }];
    for (bid, block) in f.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            if matches!(inst, Inst::Boundary { .. } | Inst::Call { .. }) {
                roots.push(PathPos {
                    block: bid,
                    idx: i + 1,
                });
            }
        }
    }

    let mut cuts: BTreeSet<(u32, usize)> = BTreeSet::new();
    let mut overflow: Vec<BlockId> = Vec::new();
    // Last prior use position of each register on the current path, by
    // register index (`UNUSED` when none); after each path only the
    // registers in `used` are reset. Registers are below `reg_count`, as
    // for the liveness pass that runs before this one.
    const UNUSED: usize = usize::MAX;
    let mut last_use: Vec<usize> = vec![UNUSED; f.reg_count as usize];
    let mut used: Vec<usize> = Vec::new();
    let mut st = PathState::new(module);

    for root in roots {
        // Enumerate root-to-leaf paths of this region tree (bounded DFS).
        let mut paths: Vec<Vec<PathPos>> = Vec::new();
        let mut stack: Vec<(PathPos, Vec<PathPos>)> = vec![(root, Vec::new())];
        'dfs: while let Some((mut pos, mut trace)) = stack.pop() {
            loop {
                if trace.len() >= MAX_PATH_LEN || paths.len() >= MAX_PATHS_PER_ROOT {
                    overflow.push(pos.block);
                    break 'dfs;
                }
                let insts = &f.block(pos.block).insts;
                let Some(inst) = insts.get(pos.idx) else {
                    paths.push(trace);
                    break;
                };
                match inst {
                    Inst::Boundary { .. } | Inst::Call { .. } => {
                        // Region ends just before/at the break; a Call's spill
                        // stores belong to the tiny pre-call region rooted at
                        // the structural boundary, which is its own root.
                        trace.push(pos);
                        paths.push(trace);
                        break;
                    }
                    Inst::Br { target } => {
                        trace.push(pos);
                        if at_boundary_entry(f, *target) {
                            paths.push(trace);
                            break;
                        }
                        pos = PathPos {
                            block: *target,
                            idx: 0,
                        };
                    }
                    Inst::CondBr {
                        if_true, if_false, ..
                    } => {
                        trace.push(pos);
                        if !at_boundary_entry(f, *if_false) {
                            stack.push((
                                PathPos {
                                    block: *if_false,
                                    idx: 0,
                                },
                                trace.clone(),
                            ));
                        }
                        if !at_boundary_entry(f, *if_true) {
                            pos = PathPos {
                                block: *if_true,
                                idx: 0,
                            };
                            continue;
                        }
                        // The true arm ends the region here; record the path
                        // (the false arm, if it continues, was forked above).
                        paths.push(trace);
                        break;
                    }
                    Inst::Ret { .. } | Inst::Halt => {
                        trace.push(pos);
                        paths.push(trace);
                        break;
                    }
                    _ => {
                        trace.push(pos);
                        pos.idx += 1;
                    }
                }
            }
        }
        if !overflow.is_empty() {
            continue;
        }

        // Analyze each path: collect WAR intervals, then stab greedily.
        for path in &paths {
            st.reset();
            // loads: (path position index, abstract address)
            let mut loads: Vec<(usize, crate::alias::AbstractAddr)> = Vec::new();
            // intervals (lo, hi]: a cut strictly after path position lo and at
            // or before hi breaks the pair. Cut at path position p means
            // "insert before the instruction at path[p]".
            let mut intervals: Vec<(usize, usize)> = Vec::new();

            for (p, pos) in path.iter().enumerate() {
                let inst = &f.block(pos.block).insts[pos.idx];
                // Memory WAR.
                match inst {
                    Inst::Load { addr, .. } => {
                        let a = st.addr_of(addr);
                        loads.push((p, a));
                    }
                    Inst::Store { addr, .. } => {
                        let a = st.addr_of(addr);
                        for &(lp, la) in &loads {
                            if may_alias(la, a) {
                                intervals.push((lp, p));
                            }
                        }
                    }
                    _ => {}
                }
                // Register WAR: defs after prior uses (or same-inst use+def).
                for d in crate::liveness::defs(inst) {
                    if inst.uses().any(|u| u == d) {
                        // Use and def in one instruction (e.g. `r = r + 1`):
                        // the only valid cut is immediately before it, so the
                        // instruction reads region-entry state (which the
                        // recovery slice restores). Encoded as (p-1, p]. At
                        // p == 0 the region already starts here — no cut
                        // needed.
                        if p > 0 {
                            intervals.push((p - 1, p));
                        }
                    } else if last_use[d.index()] != UNUSED {
                        intervals.push((last_use[d.index()], p));
                    }
                }
                for u in inst.uses() {
                    let r = u.index();
                    if last_use[r] == UNUSED {
                        used.push(r);
                    }
                    last_use[r] = p;
                }
                st.transfer(inst);
            }
            for r in used.drain(..) {
                last_use[r] = UNUSED;
            }

            if intervals.is_empty() {
                continue;
            }
            // Greedy interval stabbing: sort by right endpoint; place a cut at
            // the right endpoint of the first unhit interval.
            intervals.sort_by_key(|&(_, hi)| hi);
            let mut last_cut: Option<usize> = None;
            for (lo, hi) in intervals {
                if let Some(c) = last_cut {
                    if c > lo && c <= hi {
                        continue; // already hit
                    }
                }
                // Also honor cuts chosen for other paths at the same position.
                let pos = path[hi];
                if cuts.contains(&(pos.block.0, pos.idx)) {
                    last_cut = Some(hi);
                    continue;
                }
                cuts.insert((pos.block.0, pos.idx));
                last_cut = Some(hi);
            }
        }
    }

    if !overflow.is_empty() {
        overflow.sort_by_key(|b| b.0);
        overflow.dedup();
        return Err(overflow);
    }
    Ok(cuts)
}

/// Whether block `b` begins with an explicit boundary (path enumeration stops
/// there: it is another region's root).
fn at_boundary_entry(f: &Function, b: BlockId) -> bool {
    matches!(f.block(b).insts.first(), Some(Inst::Boundary { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::{build_counted_loop, FunctionBuilder};
    use cwsp_ir::inst::{BinOp, MemRef, Operand};
    use cwsp_ir::module::Module;

    fn count_boundaries(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Boundary { .. }))
            .count()
    }

    fn single_fn_module(b: FunctionBuilder) -> Module {
        let mut m = Module::new("t");
        let id = m.add_function(b.build());
        m.set_entry(id);
        m
    }

    #[test]
    fn straight_line_without_antidep_gets_no_boundary() {
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(1));
        b.store(e, r.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let mut m = single_fn_module(b);
        let info = form_regions(&mut m);
        assert_eq!(info.boundaries, 0);
    }

    #[test]
    fn load_then_aliasing_store_is_cut() {
        // r = load [64]; store r+1 -> [64]  (classic WAR on the same word)
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.load(e, MemRef::abs(64));
        let s = b.bin(e, BinOp::Add, r.into(), Operand::imm(1));
        b.store(e, s.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let mut m = single_fn_module(b);
        let info = form_regions(&mut m);
        assert!(info.antidep_cuts >= 1, "{info:?}");
        let f = m.function(m.entry().unwrap());
        // the boundary sits before the store
        let insts = &f.block(f.entry()).insts;
        let b_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Boundary { .. }))
            .unwrap();
        assert!(matches!(insts[b_idx + 1], Inst::Store { .. }));
    }

    #[test]
    fn disjoint_words_are_not_cut() {
        // r = load [64]; store -> [72]: provably disjoint, no cut.
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.load(e, MemRef::abs(64));
        b.store(e, r.into(), MemRef::abs(72));
        b.push(e, Inst::Halt);
        let mut m = single_fn_module(b);
        let info = form_regions(&mut m);
        assert_eq!(info.antidep_cuts, 0, "{info:?}");
    }

    #[test]
    fn register_redefinition_after_use_is_cut() {
        // r1 = r0 + 1 ; r0 = 5   (use of r0, later def of r0)
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(1));
        let _r1 = b.bin(e, BinOp::Add, r0.into(), Operand::imm(1));
        b.push(
            e,
            Inst::Mov {
                dst: r0,
                src: Operand::imm(5),
            },
        );
        b.push(e, Inst::Halt);
        let mut m = single_fn_module(b);
        let info = form_regions(&mut m);
        assert!(info.antidep_cuts >= 1, "{info:?}");
    }

    #[test]
    fn same_inst_use_def_is_cut_before_it() {
        // r0 = 1; r1 = r0; r0 = r0 + 1  (increment after use)
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(1));
        let _r1 = b.mov(e, Operand::Reg(r0));
        b.push(
            e,
            Inst::Binary {
                op: BinOp::Add,
                dst: r0,
                lhs: r0.into(),
                rhs: Operand::imm(1),
            },
        );
        b.push(e, Inst::Halt);
        let mut m = single_fn_module(b);
        let info = form_regions(&mut m);
        assert!(info.antidep_cuts >= 1, "{info:?}");
        let f = m.function(m.entry().unwrap());
        let insts = &f.block(f.entry()).insts;
        let b_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Boundary { .. }))
            .unwrap();
        assert!(
            matches!(insts[b_idx + 1], Inst::Binary { op: BinOp::Add, .. }),
            "boundary lands before the increment"
        );
    }

    #[test]
    fn loop_header_gets_structural_boundary() {
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (header, exit) = build_counted_loop(&mut b, e, Operand::imm(4), |_, _, _| {});
        b.push(exit, Inst::Halt);
        let mut m = single_fn_module(b);
        form_regions(&mut m);
        let f = m.function(m.entry().unwrap());
        assert!(
            matches!(f.block(header).insts[0], Inst::Boundary { .. }),
            "loop header starts with a boundary"
        );
    }

    #[test]
    fn calls_and_syncs_get_boundaries() {
        let mut m = Module::new("t");
        let mut cal = FunctionBuilder::new("leaf", 0);
        let ce = cal.entry();
        cal.push(ce, Inst::Ret { val: None });
        let leaf = m.add_function(cal.build());

        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.call(e, leaf, vec![], false);
        b.push(e, Inst::Fence);
        b.push(e, Inst::Halt);
        let main = m.add_function(b.build());
        m.set_entry(main);
        let info = form_regions(&mut m);
        // before call, before fence, after fence
        assert!(info.structural >= 3, "{info:?}");
        let f = m.function(main);
        let insts = &f.block(f.entry()).insts;
        let call_idx = insts
            .iter()
            .position(|i| matches!(i, Inst::Call { .. }))
            .unwrap();
        assert!(matches!(insts[call_idx - 1], Inst::Boundary { .. }));
        let fence_idx = insts.iter().position(|i| matches!(i, Inst::Fence)).unwrap();
        assert!(matches!(insts[fence_idx - 1], Inst::Boundary { .. }));
        assert!(matches!(insts[fence_idx + 1], Inst::Boundary { .. }));
    }

    #[test]
    fn region_ids_are_dense_and_ordered() {
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(4), |b, bb, _| {
            let r = b.load(bb, MemRef::abs(64));
            let s = b.bin(bb, BinOp::Add, r.into(), Operand::imm(1));
            b.store(bb, s.into(), MemRef::abs(64));
        });
        b.push(exit, Inst::Halt);
        let mut m = single_fn_module(b);
        let info = form_regions(&mut m);
        let f = m.function(m.entry().unwrap());
        let mut ids = Vec::new();
        for block in &f.blocks {
            for inst in &block.insts {
                if let Inst::Boundary { id } = inst {
                    ids.push(id.0);
                }
            }
        }
        assert_eq!(ids.len(), info.region_count);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids unique");
        assert_eq!(
            *sorted.iter().max().unwrap() as usize,
            ids.len() - 1,
            "dense"
        );
    }

    #[test]
    fn formation_preserves_semantics() {
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(50), |b, bb, i| {
            let r = b.load(bb, MemRef::abs(1024));
            let s = b.bin(bb, BinOp::Add, r.into(), i.into());
            b.store(bb, s.into(), MemRef::abs(1024));
        });
        let v = b.load(exit, MemRef::abs(1024));
        b.push(
            exit,
            Inst::Ret {
                val: Some(v.into()),
            },
        );
        let mut m = single_fn_module(b);
        let before = cwsp_ir::interp::run(&m, 100_000).unwrap();
        form_regions(&mut m);
        assert!(m.validate().is_ok(), "{:?}", m.validate());
        let after = cwsp_ir::interp::run(&m, 100_000).unwrap();
        assert_eq!(before.return_value, after.return_value);
    }

    #[test]
    fn idempotent_formation_is_stable() {
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.load(e, MemRef::abs(64));
        b.store(e, r.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let mut m = single_fn_module(b);
        let info1 = form_regions(&mut m);
        let count1 = count_boundaries(m.function(m.entry().unwrap()));
        let info2 = form_regions(&mut m);
        let count2 = count_boundaries(m.function(m.entry().unwrap()));
        assert_eq!(
            count1, count2,
            "second run inserts nothing: {info1:?} {info2:?}"
        );
    }
}
