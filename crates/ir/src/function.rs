//! Functions and basic blocks.

use crate::inst::Inst;
use std::fmt;

/// Identifier of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Dense index for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Index of an instruction within a basic block.
pub type InstIdx = usize;

/// A basic block: a straight-line instruction sequence ending in a terminator.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct Block {
    /// The instructions of this block; the last one is the terminator.
    pub insts: Vec<Inst>,
}

impl Block {
    /// The block's terminator, if the block is complete.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }
}

/// An IR function: a CFG of basic blocks plus parameter/register counts.
///
/// Registers `r0..r{param_count}` hold the arguments on entry (loaded from the
/// caller's stack frame, see [`crate::inst::Inst::Call`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    /// Human-readable name (diagnostics and pretty-printing only).
    pub name: String,
    /// Number of parameters; parameters occupy registers `r0..r{param_count}`.
    pub param_count: u32,
    /// Total number of virtual registers used (dense `0..reg_count`).
    pub reg_count: u32,
    /// Basic blocks, indexed by [`BlockId`]. Block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// The block with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterate over `(BlockId, &Block)` pairs in id order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total number of instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Validate structural invariants: every block non-empty and terminated,
    /// terminators only at block ends, branch targets in range, register ids
    /// within `reg_count`.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err(format!("function {}: no blocks", self.name));
        }
        for (bid, block) in self.iter_blocks() {
            if block.insts.is_empty() {
                return Err(format!("{}/{bid}: empty block", self.name));
            }
            for (i, inst) in block.insts.iter().enumerate() {
                let last = i + 1 == block.insts.len();
                if inst.is_terminator() != last {
                    return Err(format!(
                        "{}/{bid}[{i}]: terminator placement invalid: {inst:?}",
                        self.name
                    ));
                }
                for r in inst.uses().chain(inst.def()) {
                    if r.0 >= self.reg_count {
                        return Err(format!(
                            "{}/{bid}[{i}]: register {r} out of range (reg_count={})",
                            self.name, self.reg_count
                        ));
                    }
                }
                let check_target = |t: BlockId| {
                    if t.index() >= self.blocks.len() {
                        Err(format!(
                            "{}/{bid}[{i}]: branch target {t} out of range",
                            self.name
                        ))
                    } else {
                        Ok(())
                    }
                };
                match inst {
                    Inst::Br { target } => check_target(*target)?,
                    Inst::CondBr {
                        if_true, if_false, ..
                    } => {
                        check_target(*if_true)?;
                        check_target(*if_false)?;
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Operand};
    use crate::types::Reg;

    fn ret_fn() -> Function {
        Function {
            name: "f".into(),
            param_count: 0,
            reg_count: 2,
            blocks: vec![Block {
                insts: vec![
                    Inst::Mov {
                        dst: Reg(0),
                        src: Operand::imm(1),
                    },
                    Inst::Ret {
                        val: Some(Reg(0).into()),
                    },
                ],
            }],
        }
    }

    #[test]
    fn validate_ok() {
        assert!(ret_fn().validate().is_ok());
    }

    #[test]
    fn validate_catches_missing_terminator() {
        let mut f = ret_fn();
        f.blocks[0].insts.pop();
        let err = f.validate().unwrap_err();
        assert!(err.contains("terminator"), "{err}");
    }

    #[test]
    fn validate_catches_mid_block_terminator() {
        let mut f = ret_fn();
        f.blocks[0].insts.insert(0, Inst::Ret { val: None });
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_catches_reg_out_of_range() {
        let mut f = ret_fn();
        f.blocks[0].insts[0] = Inst::binary(BinOp::Add, Reg(9), Reg(0).into(), Reg(1).into());
        let err = f.validate().unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn validate_catches_bad_branch_target() {
        let mut f = ret_fn();
        f.blocks[0].insts[1] = Inst::Br { target: BlockId(5) };
        assert!(f.validate().is_err());
    }

    #[test]
    fn inst_count_and_iter() {
        let f = ret_fn();
        assert_eq!(f.inst_count(), 2);
        assert_eq!(f.iter_blocks().count(), 1);
        assert_eq!(f.entry(), BlockId(0));
        assert!(f.block(BlockId(0)).terminator().is_some());
    }
}
