//! Backward liveness analysis.
//!
//! cWSP uses liveness twice: to compute the live-across-call save sets
//! ([`crate::callsave`]) and to find the live-out registers each region must
//! checkpoint (§IV-B, [`crate::checkpoint`]).

use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::Inst;
use cwsp_ir::types::Reg;

/// A dense register bit set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegSet {
    bits: Vec<u64>,
}

impl RegSet {
    /// An empty set sized for `nregs` registers.
    pub fn new(nregs: usize) -> Self {
        RegSet {
            bits: vec![0; nregs.div_ceil(64)],
        }
    }

    /// Insert `r`; returns whether the set changed.
    #[inline]
    pub fn insert(&mut self, r: Reg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        let old = self.bits[w];
        self.bits[w] |= 1 << b;
        self.bits[w] != old
    }

    /// Remove `r`; returns whether it was a member.
    #[inline]
    pub fn remove(&mut self, r: Reg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        let old = self.bits[w];
        self.bits[w] &= !(1 << b);
        self.bits[w] != old
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, r: Reg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        self.bits[w] >> b & 1 == 1
    }

    /// Union `other` into `self`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// `self = gen ∪ (self − kill)`: a gen/kill transfer in place.
    pub fn transfer(&mut self, gen: &RegSet, kill: &RegSet) {
        for ((a, g), k) in self.bits.iter_mut().zip(&gen.bits).zip(&kill.bits) {
            *a = g | (*a & !k);
        }
    }

    /// Iterate members in ascending register order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Reg((w * 64 + b) as u32)
                })
            })
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }
}

/// All registers an instruction defines. Unlike [`Inst::def`], a `Call` also
/// defines its `save_regs` — the restore phase reloads them from the frame
/// (see `cwsp-ir` call semantics), which is a definition as far as dataflow
/// is concerned.
pub fn defs(inst: &Inst) -> impl Iterator<Item = Reg> + '_ {
    let saves: &[Reg] = match inst {
        Inst::Call { save_regs, .. } => save_regs,
        _ => &[],
    };
    inst.def().into_iter().chain(saves.iter().copied())
}

/// Backward transfer across one instruction: its definitions die, then its
/// uses become live.
#[inline]
fn step_back(inst: &Inst, live: &mut RegSet) {
    for d in defs(inst) {
        live.remove(d);
    }
    for u in inst.uses() {
        live.insert(u);
    }
}

/// Solve a backward gen/kill problem over the blocks reachable from entry:
/// `in[b] = gen[b] ∪ (out[b] − kill[b])`, `out[b] = ∪ in[succ]`, iterated in
/// post-order to the least fixpoint. Unreachable blocks keep an empty `in`.
/// Returns `(in, out)` for every block.
pub(crate) fn solve_backward(
    f: &Function,
    gen: &[RegSet],
    kill: &[RegSet],
) -> (Vec<RegSet>, Vec<RegSet>) {
    let nregs = f.reg_count as usize;
    let succs: Vec<cfg::Successors> = f
        .iter_blocks()
        .map(|(b, _)| cfg::successors(f, b))
        .collect();
    let mut order = cfg::reverse_post_order(f);
    order.reverse();
    let mut ins = vec![RegSet::new(nregs); f.blocks.len()];
    let mut outs = vec![RegSet::new(nregs); f.blocks.len()];
    let mut next = RegSet::new(nregs);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            next.clear();
            for s in &succs[b.index()] {
                next.union_with(&ins[s.index()]);
            }
            next.transfer(&gen[b.index()], &kill[b.index()]);
            if next != ins[b.index()] {
                std::mem::swap(&mut ins[b.index()], &mut next);
                changed = true;
            }
        }
    }
    for (out, succ) in outs.iter_mut().zip(&succs) {
        for s in succ {
            out.union_with(&ins[s.index()]);
        }
    }
    (ins, outs)
}

/// Per-function liveness: the registers live at each block's entry and exit.
///
/// Point queries go through [`Liveness::walk_back`], which sweeps a block
/// once from its exit set; there is no per-point query that rescans.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `live_in[b]` = registers live at the entry of block `b`.
    pub live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Compute liveness for `f`: one backward walk per block summarizes its
    /// upward-exposed uses and its definitions, then the block-level
    /// fixpoint runs on those summaries alone.
    pub fn compute(f: &Function) -> Self {
        let nregs = f.reg_count as usize;
        let mut gen = vec![RegSet::new(nregs); f.blocks.len()];
        let mut kill = vec![RegSet::new(nregs); f.blocks.len()];
        for (bid, block) in f.iter_blocks() {
            let (g, k) = (&mut gen[bid.index()], &mut kill[bid.index()]);
            for inst in block.insts.iter().rev() {
                for d in defs(inst) {
                    g.remove(d);
                    k.insert(d);
                }
                for u in inst.uses() {
                    g.insert(u);
                }
            }
        }
        let (live_in, live_out) = solve_backward(f, &gen, &kill);
        Liveness { live_in, live_out }
    }

    /// Walk block `b` backward once, last instruction first, calling
    /// `visit(i, inst, live)` with the registers live immediately *after*
    /// instruction `i`. Each program point is visited once, so a pass that
    /// needs liveness at many points of a block pays for one sweep.
    pub fn walk_back(
        &self,
        f: &Function,
        b: BlockId,
        mut visit: impl FnMut(usize, &Inst, &RegSet),
    ) {
        let mut live = self.live_out[b.index()].clone();
        for (i, inst) in f.block(b).insts.iter().enumerate().rev() {
            visit(i, inst, &live);
            step_back(inst, &mut live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::{build_counted_loop, FunctionBuilder};
    use cwsp_ir::inst::{BinOp, MemRef, Operand};
    use cwsp_ir::module::FuncId;

    #[test]
    fn regset_basics() {
        let mut s = RegSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(Reg(0)));
        assert!(s.insert(Reg(129)));
        assert!(!s.insert(Reg(129)), "reinsertion reports no change");
        assert!(s.contains(Reg(129)));
        assert_eq!(s.len(), 2);
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![Reg(0), Reg(129)]);
        s.remove(Reg(0));
        assert!(!s.contains(Reg(0)));

        let mut t = RegSet::new(130);
        t.insert(Reg(5));
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s), "second union is a no-op");
        assert!(t.contains(Reg(129)) && t.contains(Reg(5)));
    }

    #[test]
    fn straight_line_liveness() {
        // r0 = 1; r1 = r0 + 2; store r1; halt
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(1));
        let r1 = b.bin(e, BinOp::Add, r0.into(), Operand::imm(2));
        b.store(e, r1.into(), MemRef::abs(64));
        b.push(e, Inst::Halt);
        let f = b.build();
        let lv = Liveness::compute(&f);
        assert!(lv.live_in[0].is_empty(), "nothing live at entry");
        let mut after = vec![RegSet::default(); 4];
        lv.walk_back(&f, e, |i, _, live| after[i] = live.clone());
        // before the add (after the mov), r0 is live; r1 is not
        assert!(after[0].contains(r0));
        assert!(!after[0].contains(r1));
        // after the add, r1 is live, r0 dead
        assert!(after[1].contains(r1));
        assert!(!after[1].contains(r0));
        assert!(after[3].is_empty(), "nothing live after halt");
    }

    #[test]
    fn loop_carried_register_is_live_at_header() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let (header, exit) = build_counted_loop(&mut b, e, Operand::imm(4), |_, _, _| {});
        b.push(exit, Inst::Halt);
        let f = b.build();
        let lv = Liveness::compute(&f);
        // the induction variable is live at the loop header
        assert!(!lv.live_in[header.index()].is_empty());
    }

    #[test]
    fn call_save_regs_count_as_defs() {
        let call = Inst::Call {
            func: FuncId(0),
            args: vec![],
            ret: Some(Reg(2)),
            save_regs: vec![Reg(5)],
        };
        let d: Vec<Reg> = defs(&call).collect();
        assert_eq!(d, vec![Reg(2), Reg(5)]);
    }

    #[test]
    fn branch_merges_liveness_from_both_arms() {
        // entry: r0=1; condbr r0 ? bb1 : bb2 ; bb1 uses r1; bb2 uses r2
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let bb1 = b.block();
        let bb2 = b.block();
        let r0 = b.mov(e, Operand::imm(1));
        let r1 = b.vreg();
        let r2 = b.vreg();
        b.push(
            e,
            Inst::CondBr {
                cond: r0.into(),
                if_true: bb1,
                if_false: bb2,
            },
        );
        b.push(
            bb1,
            Inst::Ret {
                val: Some(r1.into()),
            },
        );
        b.push(
            bb2,
            Inst::Ret {
                val: Some(r2.into()),
            },
        );
        let f = b.build();
        let lv = Liveness::compute(&f);
        let at_entry = &lv.live_in[0];
        assert!(at_entry.contains(r1) && at_entry.contains(r2));
        assert!(!at_entry.contains(r0), "r0 defined in entry");
    }
}
