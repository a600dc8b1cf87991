//! Forward constant propagation over a function's CFG.
//!
//! The slice pruner replaces checkpoint restores with rematerialized
//! constants when its own reaching-definition analysis proves a live-in is
//! compile-time known. A verifier must not trust the pass it checks, so this
//! is an *independent* implementation: a classic forward dataflow on the
//! flat lattice `⊤ (unvisited) > Const(c) > Unknown`, iterated to fixpoint
//! in reverse post-order.
//!
//! Entry state mirrors the machine: parameter registers hold caller-supplied
//! (unknown) values; every other register is zero-initialized by the
//! interpreter, hence `Const(0)`.

use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::{Inst, Operand};
use cwsp_ir::layout;
use cwsp_ir::types::{Reg, Word};
use std::cell::RefCell;

/// Abstract register value on the flat constant lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CVal {
    /// Not provably constant.
    Unknown,
    /// Provably this constant on every path.
    Const(Word),
}

impl CVal {
    fn meet(self, other: CVal) -> CVal {
        match (self, other) {
            (CVal::Const(a), CVal::Const(b)) if a == b => CVal::Const(a),
            _ => CVal::Unknown,
        }
    }
}

/// Per-function constant-propagation result: abstract register state at each
/// block entry, for the blocks reachable from the function entry.
#[derive(Debug, Clone)]
pub struct ConstProp {
    nregs: usize,
    /// `nregs` values per block, block after block; meaningful only for the
    /// blocks marked in `reached`.
    block_in: Vec<CVal>,
    /// Blocks some path from the entry reaches (the others are ⊤).
    reached: Vec<bool>,
    /// The state [`ConstProp::value_before`] computed last, so that queries
    /// walking a block forward cost one transfer per instruction in all.
    cursor: RefCell<Cursor>,
}

/// A state inside one block: the registers before instruction `idx` of
/// `block` (`usize::MAX` when the cursor holds no state yet).
#[derive(Debug, Clone)]
struct Cursor {
    block: usize,
    idx: usize,
    state: Vec<CVal>,
}

fn eval_operand(state: &[CVal], op: Operand) -> CVal {
    match op {
        // Tagged global references resolve to a module-dependent address;
        // the analysis is per-function, so treat them as unknown.
        Operand::Imm(v) if layout::is_tagged_global(v) => CVal::Unknown,
        Operand::Imm(v) => CVal::Const(v),
        Operand::Reg(r) => state.get(r.index()).copied().unwrap_or(CVal::Unknown),
    }
}

fn transfer(state: &mut [CVal], inst: &Inst) {
    let set = |state: &mut [CVal], r: Reg, v: CVal| {
        if let Some(slot) = state.get_mut(r.index()) {
            *slot = v;
        }
    };
    match inst {
        Inst::Mov { dst, src } => {
            let v = eval_operand(state, *src);
            set(state, *dst, v);
        }
        Inst::Binary { op, dst, lhs, rhs } => {
            let v = match (eval_operand(state, *lhs), eval_operand(state, *rhs)) {
                (CVal::Const(a), CVal::Const(b)) => CVal::Const(op.eval(a, b)),
                _ => CVal::Unknown,
            };
            set(state, *dst, v);
        }
        Inst::Load { dst, .. } | Inst::AtomicRmw { dst, .. } => {
            set(state, *dst, CVal::Unknown);
        }
        Inst::Call { ret, save_regs, .. } => {
            // The restore phase reloads `save_regs` from the frame; the
            // reloaded value equals the spilled one, but proving that would
            // couple this analysis to call semantics — stay conservative.
            if let Some(r) = ret {
                set(state, *r, CVal::Unknown);
            }
            for r in save_regs {
                set(state, *r, CVal::Unknown);
            }
        }
        _ => {}
    }
}

impl ConstProp {
    /// Run the analysis to fixpoint on `f`, visiting blocks in `rpo`, the
    /// function's reverse post-order.
    pub fn compute(f: &Function, rpo: &[BlockId]) -> Self {
        let nregs = f.reg_count as usize;
        let nblocks = f.blocks.len();
        let mut block_in = vec![CVal::Unknown; nblocks * nregs];
        let mut reached = vec![false; nblocks];
        let entry = f.entry().index();
        for (r, v) in block_in[entry * nregs..][..nregs].iter_mut().enumerate() {
            if r as u32 >= f.param_count {
                *v = CVal::Const(0);
            }
        }
        reached[entry] = true;

        let mut state = Vec::with_capacity(nregs);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo {
                if !reached[b.index()] {
                    continue;
                }
                state.clear();
                state.extend_from_slice(&block_in[b.index() * nregs..][..nregs]);
                for inst in &f.block(b).insts {
                    transfer(&mut state, inst);
                }
                for s in cfg::successors(f, b) {
                    let cur = &mut block_in[s.index() * nregs..][..nregs];
                    if !reached[s.index()] {
                        reached[s.index()] = true;
                        cur.copy_from_slice(&state);
                        changed = true;
                        continue;
                    }
                    for (c, n) in cur.iter_mut().zip(&state) {
                        let met = c.meet(*n);
                        if met != *c {
                            *c = met;
                            changed = true;
                        }
                    }
                }
            }
        }
        ConstProp {
            nregs,
            block_in,
            reached,
            cursor: RefCell::new(Cursor {
                block: usize::MAX,
                idx: 0,
                state,
            }),
        }
    }

    /// Abstract value of `r` immediately before instruction `idx` of block
    /// `b`; `None` when the block is unreachable.
    pub fn value_before(&self, f: &Function, b: BlockId, idx: usize, r: Reg) -> Option<CVal> {
        if !self.reached[b.index()] {
            return None;
        }
        let mut cur = self.cursor.borrow_mut();
        let Cursor {
            block,
            idx: at,
            state,
        } = &mut *cur;
        if *block != b.index() || *at > idx {
            state.clear();
            state.extend_from_slice(&self.block_in[b.index() * self.nregs..][..self.nregs]);
            (*block, *at) = (b.index(), 0);
        }
        for inst in f.block(b).insts.iter().take(idx).skip(*at) {
            transfer(state, inst);
        }
        *at = (*at).max(idx.min(f.block(b).insts.len()));
        Some(state.get(r.index()).copied().unwrap_or(CVal::Unknown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{BinOp, MemRef};

    fn analyze(f: &Function) -> ConstProp {
        ConstProp::compute(f, &cfg::reverse_post_order(f))
    }

    #[test]
    fn folds_straight_line_constants() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(10));
        let r1 = b.bin(e, BinOp::Mul, r0.into(), Operand::imm(3));
        b.push(e, Inst::Halt);
        let f = b.build();
        let cp = analyze(&f);
        assert_eq!(cp.value_before(&f, e, 2, r1), Some(CVal::Const(30)));
        assert_eq!(cp.value_before(&f, e, 0, r0), Some(CVal::Const(0)));
    }

    #[test]
    fn params_are_unknown_and_others_zero() {
        let mut b = FunctionBuilder::new("f", 2);
        let e = b.entry();
        let extra = b.vreg();
        b.push(e, Inst::Halt);
        let f = b.build();
        let cp = analyze(&f);
        assert_eq!(cp.value_before(&f, e, 0, Reg(0)), Some(CVal::Unknown));
        assert_eq!(cp.value_before(&f, e, 0, Reg(1)), Some(CVal::Unknown));
        assert_eq!(cp.value_before(&f, e, 0, extra), Some(CVal::Const(0)));
    }

    #[test]
    fn load_and_call_results_are_unknown() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.vreg();
        b.push(e, Inst::load(r0, MemRef::abs(64)));
        b.push(e, Inst::Halt);
        let f = b.build();
        let cp = analyze(&f);
        assert_eq!(cp.value_before(&f, e, 1, r0), Some(CVal::Unknown));
    }

    #[test]
    fn diamond_meets_to_unknown_on_disagreement() {
        // entry: condbr p ? a : b; a: r1 = 1; b: r1 = 2; join
        let mut bld = FunctionBuilder::new("f", 1);
        let e = bld.entry();
        let a = bld.block();
        let b2 = bld.block();
        let join = bld.block();
        let r1 = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: Reg(0).into(),
                if_true: a,
                if_false: b2,
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
        bld.push(
            b2,
            Inst::Mov {
                dst: r1,
                src: Operand::imm(2),
            },
        );
        bld.push(b2, Inst::Br { target: join });
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let cp = analyze(&f);
        assert_eq!(cp.value_before(&f, join, 0, r1), Some(CVal::Unknown));
    }

    #[test]
    fn diamond_meets_to_const_on_agreement() {
        let mut bld = FunctionBuilder::new("f", 1);
        let e = bld.entry();
        let a = bld.block();
        let b2 = bld.block();
        let join = bld.block();
        let r1 = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: Reg(0).into(),
                if_true: a,
                if_false: b2,
            },
        );
        for arm in [a, b2] {
            bld.push(
                arm,
                Inst::Mov {
                    dst: r1,
                    src: Operand::imm(7),
                },
            );
            bld.push(arm, Inst::Br { target: join });
        }
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let cp = analyze(&f);
        assert_eq!(cp.value_before(&f, join, 0, r1), Some(CVal::Const(7)));
    }

    #[test]
    fn unreachable_block_reports_none() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let dead = bld.block();
        bld.push(e, Inst::Halt);
        bld.push(dead, Inst::Halt);
        let f = bld.build();
        let cp = analyze(&f);
        assert_eq!(cp.value_before(&f, dead, 0, Reg(0)), None);
    }

    #[test]
    fn tagged_global_immediates_are_unknown() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(layout::GLOBAL_TAG | 8));
        b.push(e, Inst::Halt);
        let f = b.build();
        let cp = analyze(&f);
        assert_eq!(cp.value_before(&f, e, 1, r0), Some(CVal::Unknown));
    }

    /// Queries in any order — forward, backward, across blocks, past a
    /// block's end — agree with a fresh analysis answering each alone.
    #[test]
    fn queries_in_any_order_match_fresh_answers() {
        let m = cwsp_core::genprog::generate(&Default::default(), 3);
        for (_, f) in m.iter_functions() {
            let shared = analyze(f);
            let mut points = Vec::new();
            for (b, block) in f.iter_blocks() {
                for idx in 0..=block.insts.len() + 1 {
                    points.push((b, idx));
                }
            }
            let (fwd, back) = points.split_at(points.len() / 2);
            let order = fwd.iter().chain(back.iter().rev()).chain(fwd.iter().rev());
            for &(b, idx) in order {
                for r in (0..f.reg_count).map(Reg) {
                    assert_eq!(
                        shared.value_before(f, b, idx, r),
                        analyze(f).value_before(f, b, idx, r),
                        "{} {b}[{idx}] {r}",
                        f.name
                    );
                }
            }
        }
    }
}
