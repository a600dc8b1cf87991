//! Slot-sync analysis: which registers provably equal their NVM checkpoint
//! slot at each program point, on **every** path.
//!
//! A recovery slice restoring register `r` from its slot is only correct if
//! the slot holds `r`'s current value whenever execution crosses the
//! boundary. `Ckpt r` establishes that equality; any redefinition of `r`
//! breaks it until the next `Ckpt r`. This is a forward *must* dataflow
//! (meet = set intersection, unvisited = ⊤/universe), the static analogue of
//! the stale-slot detection in `cwsp_compiler::verify::check_slices`.
//!
//! Plain `Store`s do not kill sync facts: program stores target program
//! data, and stores that provably hit the reserved checkpoint/metadata
//! ranges are reported separately as `L-reserved-store` errors.

use crate::diag::{PathWitness, WitnessStep};
use cwsp_compiler::liveness::{defs, RegSet};
use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::Inst;
use cwsp_ir::pretty::fmt_inst;
use cwsp_ir::types::Reg;

/// Per-function slot-sync result: synced register sets at each block entry
/// (`None` = block unreachable / ⊤).
#[derive(Debug, Clone)]
pub struct SlotSync {
    block_in: Vec<Option<RegSet>>,
    nregs: usize,
}

fn transfer(state: &mut RegSet, inst: &Inst) {
    for d in defs(inst) {
        state.remove(d);
    }
    if let Inst::Ckpt { reg } = inst {
        state.insert(*reg);
    }
}

impl SlotSync {
    /// Run the analysis to fixpoint on `f`, visiting blocks in `rpo`, the
    /// function's reverse post-order. Function entry starts with *no*
    /// register synced: parameters arrive via the call frame, not via slots.
    pub fn compute(f: &Function, rpo: &[BlockId]) -> Self {
        let nregs = f.reg_count as usize;
        let mut block_in: Vec<Option<RegSet>> = vec![None; f.blocks.len()];
        block_in[f.entry().index()] = Some(RegSet::new(nregs));

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo {
                let Some(mut state) = block_in[b.index()].clone() else {
                    continue;
                };
                for inst in &f.block(b).insts {
                    transfer(&mut state, inst);
                }
                for s in cfg::successors(f, b) {
                    match &mut block_in[s.index()] {
                        cur @ None => {
                            *cur = Some(state.clone());
                            changed = true;
                        }
                        Some(cur) => {
                            changed |= cur.intersect_with(&state);
                        }
                    }
                }
            }
        }
        SlotSync { block_in, nregs }
    }

    /// Registers provably slot-synced immediately before instruction `idx`
    /// of block `b`; `None` when the block is unreachable.
    pub fn synced_before(&self, f: &Function, b: BlockId, idx: usize) -> Option<RegSet> {
        let mut state = self.block_in[b.index()].clone()?;
        for inst in f.block(b).insts.iter().take(idx) {
            transfer(&mut state, inst);
        }
        Some(state)
    }

    /// Synced set at the *exit* of block `b`.
    fn synced_out(&self, f: &Function, b: BlockId) -> Option<RegSet> {
        self.synced_before(f, b, f.block(b).insts.len())
    }

    /// Reconstruct a concrete path explaining why `r` is **not** synced at
    /// `(b, idx)`: walk backwards to the clobbering definition (or function
    /// entry, if `r` was never checkpointed), then present the path forward.
    ///
    /// Only meaningful when `r ∉ synced_before(f, b, idx)`; `preds` are
    /// `f`'s predecessor lists.
    pub fn witness_unsynced(
        &self,
        f: &Function,
        preds: &[Vec<BlockId>],
        b: BlockId,
        idx: usize,
        r: Reg,
    ) -> PathWitness {
        // Steps collected in reverse (violation first), flipped at the end.
        let mut steps: Vec<WitnessStep> = vec![WitnessStep {
            block: b.0,
            idx,
            note: format!("boundary requires {r} from its checkpoint slot"),
        }];
        let mut visited = vec![false; f.blocks.len()];
        let mut cur = b;
        let mut cur_end = idx; // scan insts[0..cur_end] of `cur` backwards
        loop {
            visited[cur.index()] = true;
            let insts = &f.block(cur).insts;
            let mut found = false;
            for i in (0..cur_end.min(insts.len())).rev() {
                let inst = &insts[i];
                if matches!(inst, Inst::Ckpt { reg } if *reg == r) {
                    // A checkpoint on this very path — the fact was killed
                    // later; keep scanning for the killing def above `idx`
                    // would have found it first, so this means the analysis
                    // lost the fact at a join. Report the join conservatively.
                    steps.push(WitnessStep {
                        block: cur.0,
                        idx: i,
                        note: format!(
                            "{} — synced here, but another path into a later join is not",
                            fmt_inst(inst)
                        ),
                    });
                    found = true;
                    break;
                }
                if defs(inst).any(|d| d == r) {
                    steps.push(WitnessStep {
                        block: cur.0,
                        idx: i,
                        note: format!(
                            "{} — clobbers {r} with no later checkpoint on this path",
                            fmt_inst(inst)
                        ),
                    });
                    found = true;
                    break;
                }
            }
            if found {
                break;
            }
            // No event in this block: move to a predecessor whose out-state
            // also lacks `r` (one must exist, or the in-state would have it).
            let next = preds[cur.index()]
                .iter()
                .find(|p| {
                    !visited[p.index()]
                        && match self.synced_out(f, **p) {
                            Some(out) => !out.contains(r),
                            None => false,
                        }
                })
                .copied();
            match next {
                Some(p) => {
                    steps.push(WitnessStep {
                        block: cur.0,
                        idx: 0,
                        note: format!("entered bb{} with {r} unsynced", cur.0),
                    });
                    cur = p;
                    cur_end = f.block(p).insts.len();
                }
                None => {
                    steps.push(WitnessStep {
                        block: cur.0,
                        idx: 0,
                        note: format!("{r} never checkpointed since function entry"),
                    });
                    break;
                }
            }
        }
        steps.reverse();
        PathWitness::elided(steps, 14)
    }

    /// Number of registers this analysis is sized for.
    pub fn nregs(&self) -> usize {
        self.nregs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::Operand;

    fn analyze(f: &Function) -> SlotSync {
        SlotSync::compute(f, &cfg::reverse_post_order(f))
    }

    #[test]
    fn ckpt_establishes_and_def_kills_sync() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(5));
        b.push(e, Inst::Ckpt { reg: r0 });
        b.push(
            e,
            Inst::Mov {
                dst: r0,
                src: Operand::imm(6),
            },
        );
        b.push(e, Inst::Halt);
        let f = b.build();
        let ss = analyze(&f);
        assert!(!ss.synced_before(&f, e, 1).unwrap().contains(r0));
        assert!(ss.synced_before(&f, e, 2).unwrap().contains(r0));
        assert!(
            !ss.synced_before(&f, e, 3).unwrap().contains(r0),
            "redefinition kills the sync fact"
        );
    }

    #[test]
    fn join_intersects_sync_facts() {
        // Only one arm checkpoints r1 -> not synced at the join.
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
        bld.push(a, Inst::Ckpt { reg: r1 });
        bld.push(a, Inst::Br { target: join });
        bld.push(b2, Inst::Br { target: join });
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let ss = analyze(&f);
        assert!(!ss.synced_before(&f, join, 0).unwrap().contains(r1));

        let w = ss.witness_unsynced(&f, &cfg::predecessors(&f), join, 0, r1);
        assert!(!w.steps.is_empty());
        let text: Vec<&str> = w.steps.iter().map(|s| s.note.as_str()).collect();
        assert!(
            text.iter()
                .any(|n| n.contains("never checkpointed") || n.contains("unsynced")),
            "{text:?}"
        );
        assert!(
            w.steps.last().unwrap().note.contains("checkpoint slot"),
            "witness ends at the requiring boundary"
        );
    }

    #[test]
    fn both_arms_checkpointing_survives_the_join() {
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
            bld.push(arm, Inst::Ckpt { reg: r1 });
            bld.push(arm, Inst::Br { target: join });
        }
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let ss = analyze(&f);
        assert!(ss.synced_before(&f, join, 0).unwrap().contains(r1));
    }

    #[test]
    fn call_save_regs_kill_sync() {
        use cwsp_ir::module::FuncId;
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(1));
        b.push(e, Inst::Ckpt { reg: r0 });
        b.push(
            e,
            Inst::Call {
                func: FuncId(0),
                args: vec![],
                ret: None,
                save_regs: vec![r0],
            },
        );
        b.push(e, Inst::Halt);
        let f = b.build();
        let ss = analyze(&f);
        assert!(ss.synced_before(&f, e, 2).unwrap().contains(r0));
        assert!(!ss.synced_before(&f, e, 3).unwrap().contains(r0));
    }

    #[test]
    fn witness_points_at_clobbering_def() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r0 = b.mov(e, Operand::imm(5));
        b.push(e, Inst::Ckpt { reg: r0 });
        b.push(
            e,
            Inst::Mov {
                dst: r0,
                src: Operand::imm(6),
            },
        );
        b.push(e, Inst::Halt);
        let f = b.build();
        let ss = analyze(&f);
        let w = ss.witness_unsynced(&f, &cfg::predecessors(&f), e, 3, r0);
        assert!(
            w.steps.iter().any(|s| s.note.contains("clobbers r0")),
            "{w:?}"
        );
        assert_eq!(w.steps.iter().filter(|s| s.idx == 2).count(), 1);
    }

    #[test]
    fn loop_body_redefinition_unsyncs_header() {
        // header is a join (entry + latch); body redefines r without ckpt.
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let header = bld.block();
        let body = bld.block();
        let exit = bld.block();
        let r = bld.vreg();
        let c = bld.vreg();
        bld.push(e, Inst::Ckpt { reg: r });
        bld.push(e, Inst::Br { target: header });
        bld.push(
            header,
            Inst::CondBr {
                cond: c.into(),
                if_true: body,
                if_false: exit,
            },
        );
        bld.push(
            body,
            Inst::Mov {
                dst: r,
                src: Operand::imm(1),
            },
        );
        bld.push(body, Inst::Br { target: header });
        bld.push(exit, Inst::Halt);
        let f = bld.build();
        let ss = analyze(&f);
        assert!(
            !ss.synced_before(&f, header, 0).unwrap().contains(r),
            "loop-carried clobber must kill the fact at the header"
        );
    }
}
