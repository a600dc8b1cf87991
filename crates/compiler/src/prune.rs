//! Checkpoint pruning and recovery-slice generation (§IV-C).
//!
//! "Many checkpoints are unnecessary if they can be reconstructed using
//! immediate values and/or the remaining checkpoints at recovery time." We
//! implement the sound constant-rematerialization subset of Penny's optimal
//! pruning: for each region boundary and live-in register, if the register has
//! a *single* reaching definition whose value constant-folds, the recovery
//! slice materializes the constant and the checkpoint slot is never read;
//! checkpoints whose definition site no boundary slot-loads are deleted.
//!
//! Two rematerialization tiers are implemented: (1) compile-time constants,
//! and (2) expressions over immediates and the *remaining* checkpoints
//! (Fig 4's `r3 = shl(slot_r3_of_Rg0, 1)` case) — a register whose single
//! reaching definition derives from other slot-backed live-ins is rebuilt by
//! re-applying the defining operations at recovery time, and its own
//! checkpoint is deleted.

use crate::liveness::{defs, Liveness, RegSet};
use crate::opt::remove_insts;
use crate::reaching::{DefSite, ReachingDefs, SiteId};
use crate::slice::{RecoverySlice, RematExpr, RsSource, SliceTable};
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::{Inst, Operand};
use cwsp_ir::module::{FuncId, Module};
use cwsp_ir::types::{Reg, RegionId, Word};
use std::ops::Range;

/// Caps on rematerialization expressions.
const MAX_EXPR_NODES: usize = 12;
const MAX_EXPR_DEPTH: usize = 6;

/// Result of the pruning pass.
#[derive(Debug, Clone, Default)]
pub struct PruneInfo {
    /// Checkpoints deleted because no recovery slice reads their slot.
    pub ckpts_pruned: usize,
    /// Live-in restores resolved as compile-time constants.
    pub const_restores: usize,
    /// Live-in restores that load checkpoint slots.
    pub slot_restores: usize,
    /// Live-in restores rematerialized as expressions over other slots.
    pub expr_restores: usize,
}

/// A dense set of definition-site ids.
struct SiteSet(Vec<u64>);

impl SiteSet {
    fn new(rd: &ReachingDefs) -> Self {
        SiteSet(vec![0; rd.site_count().div_ceil(64)])
    }

    fn clear(&mut self) {
        for w in &mut self.0 {
            *w = 0;
        }
    }

    fn insert(&mut self, s: SiteId) {
        self.0[s as usize / 64] |= 1 << (s % 64);
    }

    fn contains(&self, s: SiteId) -> bool {
        self.0[s as usize / 64] >> (s % 64) & 1 == 1
    }
}

/// Constant-fold results per site id: `None` not yet asked, `Some(None)`
/// not a constant (or a cycle in progress), `Some(Some(c))` constant `c`.
type Memo = Vec<Option<Option<Word>>>;

/// Generate recovery slices for every explicit region boundary and, when
/// `prune` is set, delete checkpoints that no slice slot-loads.
pub fn prune_and_build_slices(
    module: &mut Module,
    prune: bool,
    expr_remat: bool,
) -> (SliceTable, PruneInfo) {
    let mut table = SliceTable::new();
    let mut info = PruneInfo::default();
    for fid in 0..module.function_count() {
        let fid = FuncId(fid as u32);
        let (slices, dead) = prune_function(module.function(fid), prune, expr_remat, &mut info);
        for (id, slice) in slices {
            table.insert(id, slice);
        }
        let f = module.function_mut(fid);
        for (bid, idx) in dead {
            info.ckpts_pruned += idx.len();
            remove_insts(&mut f.block_mut(bid).insts, &idx);
        }
    }
    (table, info)
}

/// One boundary's live-ins after round 1, as ranges of the function-wide
/// `consts` and `tentative` lists.
struct Boundary {
    id: RegionId,
    bid: BlockId,
    idx: usize,
    consts: Range<usize>,
    tentative: Range<usize>,
}

/// How a non-constant live-in is restored: its slot, or an expression plus
/// the range of the dependency list holding the sites whose checkpoints the
/// expression's slot leaves read.
enum Res {
    Slot,
    Expr(RematExpr, Range<usize>),
}

/// Slices of `f`'s boundaries, plus the checkpoints to delete per block.
#[allow(clippy::type_complexity)]
fn prune_function(
    f: &Function,
    prune: bool,
    expr_remat: bool,
    info: &mut PruneInfo,
) -> (Vec<(RegionId, RecoverySlice)>, Vec<(BlockId, Vec<usize>)>) {
    let lv = Liveness::compute(f);
    let rd = ReachingDefs::compute(f);
    let mut memo: Memo = vec![None; rd.site_count()];

    // Round 1: per boundary, resolve constants; everything else is
    // tentatively slot-backed. Collect the optimistic slot-needed set.
    let mut boundaries: Vec<Boundary> = Vec::new();
    let mut consts: Vec<(Reg, Word)> = Vec::new();
    let mut tentative: Vec<Reg> = Vec::new();
    let mut slot_all = SiteSet::new(&rd);
    let mut live_at: Vec<(RegionId, usize, RegSet)> = Vec::new();
    for (bid, _) in f.iter_blocks() {
        lv.walk_back(f, bid, |i, inst, live| {
            if let Inst::Boundary { id } = inst {
                live_at.push((*id, i, live.clone()));
            }
        });
        for (id, i, live) in live_at.drain(..).rev() {
            let (consts_from, tentative_from) = (consts.len(), tentative.len());
            for r in live.iter() {
                let sites = rd.at(bid, i, r);
                let constv = match sites.single() {
                    Some(site) if prune => const_value(f, &rd, &mut memo, site, r, 0),
                    _ => None,
                };
                match constv {
                    Some(c) => consts.push((r, c)),
                    None => {
                        sites.iter().for_each(|s| slot_all.insert(s));
                        tentative.push(r);
                    }
                }
            }
            boundaries.push(Boundary {
                id,
                bid,
                idx: i,
                consts: consts_from..consts.len(),
                tentative: tentative_from..tentative.len(),
            });
        }
    }

    // Round 2: optimistic expression upgrades — a leaf `slot_s` is usable
    // when every reaching definition of `s` at the read point is in the
    // (current) slot-needed set and `s` is not redefined on the way to
    // the boundary. Record each expression's leaf dependencies.
    // `resolutions[k]` restores `tentative[k]`.
    let mut walk = RegionWalk {
        entered: vec![false; f.blocks.len()],
        touched: Vec::new(),
        work: Vec::new(),
    };
    let mut region_defs = RegSet::new(f.reg_count as usize);
    let mut deps: Vec<SiteId> = Vec::new();
    let mut leaves: Vec<Reg> = Vec::new();
    let mut resolutions: Vec<Res> = Vec::with_capacity(tentative.len());
    for b in &boundaries {
        let upgrade = prune && expr_remat && !b.tentative.is_empty();
        if !upgrade {
            resolutions.extend(b.tentative.clone().map(|_| Res::Slot));
            continue;
        }
        // Registers the region *starting at this boundary* may define:
        // their checkpoint slots can be overwritten in place while the
        // region is the (unlogged) head, so no expression leaf may read
        // them (the bug class the crash property tests hunt for).
        region_defined_regs(f, b.bid, b.idx, &mut walk, &mut region_defs);
        let cx = ExprCx {
            f,
            rd: &rd,
            memo: &memo,
            slot_all: &slot_all,
            region_defs: &region_defs,
            boundary: (b.bid, b.idx),
        };
        for &r in &tentative[b.tentative.clone()] {
            let from = deps.len();
            let res = match cx.build_expr(r, &mut deps, &mut leaves) {
                Some(e) => Res::Expr(e, from..deps.len()),
                None => {
                    deps.truncate(from);
                    Res::Slot
                }
            };
            resolutions.push(res);
        }
    }

    // Fixpoint: recompute the keep-set from the current resolutions and
    // demote any expression whose leaves lost their backing.
    let mut keep = SiteSet::new(&rd);
    loop {
        keep.clear();
        for b in &boundaries {
            for (r, res) in tentative[b.tentative.clone()]
                .iter()
                .zip(&resolutions[b.tentative.clone()])
            {
                if matches!(res, Res::Slot) {
                    rd.at(b.bid, b.idx, *r).iter().for_each(|s| keep.insert(s));
                }
            }
        }
        let mut changed = false;
        for res in &mut resolutions {
            if let Res::Expr(_, range) = res {
                if !deps[range.clone()].iter().all(|&s| keep.contains(s)) {
                    *res = Res::Slot;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // The final keep-set decides checkpoint deletion.
    let dead = if prune {
        unneeded_ckpts(f, &rd, &keep)
    } else {
        Vec::new()
    };

    // Emit slices.
    let mut resolutions = resolutions.into_iter();
    let slices = boundaries
        .iter()
        .map(|b| {
            let mut restores = Vec::with_capacity(b.consts.len() + b.tentative.len());
            for &(r, c) in &consts[b.consts.clone()] {
                info.const_restores += 1;
                restores.push((r, RsSource::Const(c)));
            }
            for (&r, res) in tentative[b.tentative.clone()]
                .iter()
                .zip(resolutions.by_ref())
            {
                match res {
                    Res::Slot => {
                        info.slot_restores += 1;
                        restores.push((r, RsSource::Slot));
                    }
                    Res::Expr(e, _) => {
                        info.expr_restores += 1;
                        restores.push((r, RsSource::Expr(e)));
                    }
                }
            }
            (b.id, RecoverySlice { restores })
        })
        .collect();
    (slices, dead)
}

/// What building a rematerialization expression for one boundary reads.
struct ExprCx<'a> {
    f: &'a Function,
    rd: &'a ReachingDefs,
    memo: &'a Memo,
    slot_all: &'a SiteSet,
    region_defs: &'a RegSet,
    /// The boundary point `(block, index)`.
    boundary: (BlockId, usize),
}

impl ExprCx<'_> {
    /// Try to build a rematerialization expression for `r` at the boundary.
    /// Appends the definition sites whose checkpoints its slot leaves depend
    /// on to `deps` (possibly also on failure, which the caller undoes);
    /// `leaves` is scratch.
    fn build_expr(
        &self,
        r: Reg,
        deps: &mut Vec<SiteId>,
        leaves: &mut Vec<Reg>,
    ) -> Option<RematExpr> {
        let (b, i) = self.boundary;
        let site = self.rd.at(b, i, r).single()?;
        let expr = self.expr_for_site(site, r, deps, 0)?;
        if expr.size() > MAX_EXPR_NODES || matches!(expr, RematExpr::Slot(_)) {
            return None;
        }
        leaves.clear();
        expr.slot_leaves(leaves);
        if leaves.contains(&r) {
            return None;
        }
        Some(expr)
    }

    fn expr_for_site(
        &self,
        site: SiteId,
        r: Reg,
        deps: &mut Vec<SiteId>,
        depth: usize,
    ) -> Option<RematExpr> {
        if depth > MAX_EXPR_DEPTH {
            return None;
        }
        if let Some(Some(c)) = self.memo[site as usize] {
            return Some(RematExpr::Const(c));
        }
        let DefSite::Inst(db, di) = self.rd.site(site) else {
            return None;
        };
        match &self.f.block(db).insts[di] {
            Inst::Mov { dst, src } if *dst == r => self.operand_expr(*src, db, di, deps, depth),
            Inst::Binary { op, dst, lhs, rhs } if *dst == r => {
                let l = self.operand_expr(*lhs, db, di, deps, depth)?;
                let rr = self.operand_expr(*rhs, db, di, deps, depth)?;
                Some(RematExpr::Bin(*op, Box::new(l), Box::new(rr)))
            }
            _ => None,
        }
    }

    fn operand_expr(
        &self,
        op: Operand,
        db: BlockId,
        di: usize,
        deps: &mut Vec<SiteId>,
        depth: usize,
    ) -> Option<RematExpr> {
        match op {
            Operand::Imm(v) => {
                if cwsp_ir::layout::is_tagged_global(v) {
                    None
                } else {
                    Some(RematExpr::Const(v))
                }
            }
            Operand::Reg(s) => {
                let sites_here = self.rd.at(db, di, s);
                // Slot leaf: every reaching definition of `s` here is
                // checkpoint-backed, `s` is not redefined between this read
                // point and the boundary (identical reaching-def sets), and —
                // crucially — the boundary's own region never defines `s` (it
                // would overwrite `s`'s slot in place while the region is the
                // unlogged head, corrupting this expression at recovery).
                let backed = sites_here.iter().all(|d| self.slot_all.contains(d));
                if backed && !self.region_defs.contains(s) {
                    let (bb, bi) = self.boundary;
                    if self.rd.at(bb, bi, s) == sites_here {
                        deps.extend(sites_here.iter());
                        return Some(RematExpr::Slot(s));
                    }
                }
                let site = sites_here.single()?;
                self.expr_for_site(site, s, deps, depth + 1)
            }
        }
    }
}

/// Constant-fold the value produced by `site` for register `r`, if possible.
fn const_value(
    f: &Function,
    rd: &ReachingDefs,
    memo: &mut Memo,
    site: SiteId,
    r: Reg,
    depth: usize,
) -> Option<Word> {
    if depth > 16 {
        return None;
    }
    if let Some(v) = memo[site as usize] {
        return v;
    }
    // Seed the memo with None to break cycles through loops.
    memo[site as usize] = Some(None);
    let v = match rd.site(site) {
        DefSite::Entry => {
            // Parameters are runtime values; all other registers start at 0.
            if r.0 < f.param_count {
                None
            } else {
                Some(0)
            }
        }
        DefSite::Inst(b, i) => match &f.block(b).insts[i] {
            Inst::Mov { dst, src } if *dst == r => operand_const(f, rd, memo, *src, b, i, depth),
            Inst::Binary { op, dst, lhs, rhs } if *dst == r => {
                let l = operand_const(f, rd, memo, *lhs, b, i, depth)?;
                let rr = operand_const(f, rd, memo, *rhs, b, i, depth)?;
                Some(op.eval(l, rr))
            }
            _ => None,
        },
    };
    memo[site as usize] = Some(v);
    v
}

fn operand_const(
    f: &Function,
    rd: &ReachingDefs,
    memo: &mut Memo,
    op: Operand,
    b: BlockId,
    i: usize,
    depth: usize,
) -> Option<Word> {
    match op {
        Operand::Imm(v) => {
            // Tagged global addresses are runtime-resolved; treating them as
            // constants would be fine (the tag is unique), but recovery
            // slices materialize *resolved* values, so keep it simple and
            // refuse.
            if cwsp_ir::layout::is_tagged_global(v) {
                None
            } else {
                Some(v)
            }
        }
        Operand::Reg(s) => {
            let site = rd.at(b, i, s).single()?;
            const_value(f, rd, memo, site, s, depth + 1)
        }
    }
}

/// Scratch for [`region_defined_regs`], reused across the boundaries of a
/// function.
struct RegionWalk {
    /// Blocks entered by the current walk (all false between walks).
    entered: Vec<bool>,
    touched: Vec<BlockId>,
    work: Vec<(BlockId, usize)>,
}

/// Registers possibly defined by the region that starts at boundary
/// `(b, i)`, into `out`: a walk from the instruction after the boundary until
/// the next region break (boundary, call, return, halt) on every path. Each
/// block is entered at most once, so the walk is bounded by the function's
/// size.
fn region_defined_regs(
    f: &Function,
    b: BlockId,
    i: usize,
    walk: &mut RegionWalk,
    out: &mut RegSet,
) {
    out.clear();
    let RegionWalk {
        entered,
        touched,
        work,
    } = walk;
    work.push((b, i + 1));
    while let Some((bid, idx)) = work.pop() {
        for inst in f.block(bid).insts.get(idx..).unwrap_or_default() {
            let targets = match inst {
                Inst::Boundary { .. } | Inst::Call { .. } | Inst::Ret { .. } | Inst::Halt => {
                    break;
                }
                Inst::Br { target } => [Some(*target), None],
                Inst::CondBr {
                    if_true, if_false, ..
                } => [Some(*if_true), Some(*if_false)],
                other => {
                    for d in defs(other) {
                        out.insert(d);
                    }
                    continue;
                }
            };
            for t in targets.into_iter().flatten() {
                if !entered[t.index()] {
                    entered[t.index()] = true;
                    touched.push(t);
                    work.push((t, 0));
                }
            }
            break;
        }
    }
    for t in touched.drain(..) {
        entered[t.index()] = false;
    }
}

/// `Ckpt` instructions whose definition site is not slot-needed, per block.
/// A checkpoint belongs to the nearest preceding definition of its register
/// in the same block, or to the function-entry site for entry-top
/// checkpoints.
fn unneeded_ckpts(f: &Function, rd: &ReachingDefs, keep: &SiteSet) -> Vec<(BlockId, Vec<usize>)> {
    let mut dead = Vec::new();
    for (bid, block) in f.iter_blocks() {
        let idx: Vec<usize> = block
            .insts
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| {
                let Inst::Ckpt { reg } = inst else {
                    return None;
                };
                let site = rd
                    .local_def(bid, i, *reg)
                    .unwrap_or_else(|| rd.entry_site(*reg));
                (!keep.contains(site)).then_some(i)
            })
            .collect();
        if !idx.is_empty() {
            dead.push((bid, idx));
        }
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{insert_checkpoints, CkptMode};
    use crate::region::form_regions;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{BinOp, MemRef};
    use cwsp_ir::types::RegionId;

    fn count_ckpts(m: &Module) -> usize {
        m.iter_functions()
            .flat_map(|(_, f)| f.blocks.iter())
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Ckpt { .. }))
            .count()
    }

    #[test]
    fn constant_live_in_is_rematerialized_and_ckpt_pruned() {
        // r = 100; boundary; store r (r is live-in, value constant 100)
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(100));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, r.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        insert_checkpoints(&mut m, CkptMode::DefSite);
        assert_eq!(count_ckpts(&m), 1);
        let (table, info) = prune_and_build_slices(&mut m, true, true);
        assert_eq!(info.ckpts_pruned, 1);
        assert_eq!(info.const_restores, 1);
        assert_eq!(count_ckpts(&m), 0);
        let slice = table.get(RegionId(0)).unwrap();
        assert_eq!(slice.restores, vec![(r, RsSource::Const(100))]);
    }

    #[test]
    fn derived_constant_chain_folds() {
        // r0 = 100; r1 = r0 << 1; boundary; store r1  -> Const(200)
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(100));
        let r1 = b.bin(e, BinOp::Shl, r0.into(), Operand::imm(1));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, r1.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        insert_checkpoints(&mut m, CkptMode::DefSite);
        let (table, _) = prune_and_build_slices(&mut m, true, true);
        let slice = table.get(RegionId(0)).unwrap();
        assert_eq!(slice.restores, vec![(r1, RsSource::Const(200))]);
        assert_eq!(count_ckpts(&m), 0);
    }

    #[test]
    fn runtime_value_keeps_slot_and_ckpt() {
        // r = load [64]; boundary; store r  -> slot load, ckpt kept
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.load(e, MemRef::abs(64));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, r.into(), MemRef::abs(72));
        b.push(e, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        insert_checkpoints(&mut m, CkptMode::DefSite);
        let (table, info) = prune_and_build_slices(&mut m, true, true);
        assert_eq!(info.ckpts_pruned, 0);
        assert_eq!(count_ckpts(&m), 1);
        assert_eq!(
            table.get(RegionId(0)).unwrap().restores,
            vec![(r, RsSource::Slot)]
        );
    }

    #[test]
    fn multi_def_merge_keeps_slot() {
        // two consts merging at a join: not a singleton reaching def -> Slot.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let ba = b.block();
        let bb = b.block();
        let join = b.block();
        let r = b.vreg();
        let c = b.load(e, MemRef::abs(64));
        b.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: ba,
                if_false: bb,
            },
        );
        b.push(
            ba,
            Inst::Mov {
                dst: r,
                src: Operand::imm(1),
            },
        );
        b.push(ba, Inst::Br { target: join });
        b.push(
            bb,
            Inst::Mov {
                dst: r,
                src: Operand::imm(2),
            },
        );
        b.push(bb, Inst::Br { target: join });
        b.store(join, r.into(), MemRef::abs(72));
        b.push(join, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        form_regions(&mut m); // join gets a boundary
        insert_checkpoints(&mut m, CkptMode::DefSite);
        let before = count_ckpts(&m);
        assert_eq!(before, 2, "one per branch arm");
        let (_, info) = prune_and_build_slices(&mut m, true, true);
        assert_eq!(info.ckpts_pruned, 0, "merged value must stay slot-backed");
    }

    #[test]
    fn loop_induction_variable_stays_slot_backed() {
        use cwsp_ir::builder::build_counted_loop;
        let mut m = Module::new("t");
        let g = m.add_global("g", 1);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(10), |b, bb, i| {
            b.store(bb, i.into(), MemRef::global(g, 0));
        });
        b.push(exit, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        form_regions(&mut m);
        insert_checkpoints(&mut m, CkptMode::DefSite);
        let (table, _) = prune_and_build_slices(&mut m, true, true);
        // Some region has the induction variable as a Slot restore.
        let any_slot = table.iter().any(|(_, s)| {
            s.restores
                .iter()
                .any(|(_, src)| matches!(src, RsSource::Slot))
        });
        assert!(any_slot);
    }

    #[test]
    fn leaf_redefined_far_into_a_long_region_stays_slot_backed() {
        // entry: r0 = load; ckpt r0; boundary R0; r1 = r0 << 1; ckpt r1;
        //        boundary R1; br b1
        // b1..bN: br next (N > 4096, no boundary)
        // bN: r0 = 7; out r1; out r0; halt
        // R1 would restore r1 as `slot(r0) << 1`, but R1 itself redefines
        // r0 in its last block, so r1 must load its own slot.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r0 = b.load(e, MemRef::abs(64));
        b.push(e, Inst::Ckpt { reg: r0 });
        b.push(e, Inst::Boundary { id: RegionId(0) });
        let r1 = b.bin(e, BinOp::Shl, r0.into(), Operand::imm(1));
        b.push(e, Inst::Ckpt { reg: r1 });
        b.push(e, Inst::Boundary { id: RegionId(1) });
        let mut cur = e;
        for _ in 0..4200 {
            let next = b.block();
            b.push(cur, Inst::Br { target: next });
            cur = next;
        }
        b.push(
            cur,
            Inst::Mov {
                dst: r0,
                src: Operand::imm(7),
            },
        );
        b.push(cur, Inst::Out { val: r1.into() });
        b.push(cur, Inst::Out { val: r0.into() });
        b.push(cur, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        let (table, _) = prune_and_build_slices(&mut m, true, true);
        assert_eq!(
            table.get(RegionId(1)).unwrap().restores,
            vec![(r1, RsSource::Slot)]
        );
        assert_eq!(
            table.get(RegionId(0)).unwrap().restores,
            vec![(r0, RsSource::Slot)]
        );
    }

    #[test]
    fn unpruned_mode_generates_all_slot_slices() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(100));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.store(e, r.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        insert_checkpoints(&mut m, CkptMode::PerBoundary);
        let n = count_ckpts(&m);
        let (table, info) = prune_and_build_slices(&mut m, false, true);
        assert_eq!(count_ckpts(&m), n, "nothing deleted");
        assert_eq!(info.const_restores, 0);
        assert!(matches!(
            table.get(RegionId(0)).unwrap().restores[..],
            [(_, RsSource::Slot)]
        ));
    }
}
