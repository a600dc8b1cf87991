//! IR instructions.
//!
//! The instruction set is deliberately small: word-sized ALU operations,
//! word-sized loads/stores with base+offset addressing, control flow, calls,
//! atomics/fences (the multicore synchronization points of §VIII), output, and
//! the two instructions the cWSP compiler inserts — [`Inst::Boundary`] (region
//! boundary) and [`Inst::Ckpt`] (live-out register checkpoint, §IV-B).

use crate::function::BlockId;
use crate::module::{FuncId, GlobalId};
use crate::types::{Reg, RegionId, Word};

/// A register-or-immediate operand.
///
/// # Example
/// ```
/// use cwsp_ir::{Operand, Reg};
/// let a: Operand = Reg(1).into();
/// let b = Operand::imm(7);
/// assert!(a.as_reg().is_some());
/// assert!(b.as_reg().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Value held in a virtual register.
    Reg(Reg),
    /// An immediate 64-bit constant.
    Imm(Word),
}

impl Operand {
    /// Shorthand for an immediate operand.
    #[inline]
    pub fn imm(v: Word) -> Self {
        Operand::Imm(v)
    }

    /// The register, if this operand reads one.
    #[inline]
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

/// A memory reference: `base + offset`, where `base` is a register or
/// immediate and `offset` a signed byte displacement.
///
/// Addresses must be 8-byte aligned at execution time; the interpreter traps
/// otherwise. Static base kinds (globals, checkpoint slots) are resolved to
/// absolute immediates by [`crate::module::Module`] layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address value.
    pub base: Operand,
    /// Signed byte offset added to the base.
    pub offset: i64,
}

impl MemRef {
    /// A memory reference through a register base.
    pub fn reg(base: Reg, offset: i64) -> Self {
        MemRef {
            base: base.into(),
            offset,
        }
    }

    /// A memory reference to an absolute address.
    pub fn abs(addr: Word) -> Self {
        MemRef {
            base: Operand::imm(addr),
            offset: 0,
        }
    }

    /// A memory reference to word `word_idx` of global `g`.
    ///
    /// Resolved against [`crate::layout::GLOBAL_BASE`]-relative placement by the
    /// interpreter via [`crate::module::Module::global_addr`]; at the IR level the
    /// global is encoded as an absolute immediate once the module is frozen.
    pub fn global(g: GlobalId, word_idx: i64) -> Self {
        MemRef {
            base: Operand::imm(crate::layout::GLOBAL_TAG | ((g.0 as Word) << 32)),
            offset: word_idx * 8,
        }
    }
}

/// Binary ALU / comparison opcodes. Comparisons produce 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Division by zero yields all-ones (hardware-style).
    DivU,
    /// Unsigned remainder. Remainder by zero yields the dividend.
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount masked to 63).
    Shl,
    /// Logical shift right (shift amount masked to 63).
    ShrL,
    /// Arithmetic shift right (shift amount masked to 63).
    ShrA,
    /// Equality comparison (1 if equal).
    CmpEq,
    /// Inequality comparison.
    CmpNe,
    /// Unsigned less-than.
    CmpLtU,
    /// Signed less-than.
    CmpLtS,
    /// Unsigned min (models conditional-move idioms without branches).
    MinU,
    /// Unsigned max.
    MaxU,
}

impl BinOp {
    /// Evaluate the operation on two words.
    ///
    /// # Example
    /// ```
    /// use cwsp_ir::BinOp;
    /// assert_eq!(BinOp::Add.eval(u64::MAX, 1), 0); // wrapping
    /// assert_eq!(BinOp::CmpLtS.eval((-1i64) as u64, 0), 1);
    /// ```
    pub fn eval(self, a: Word, b: Word) -> Word {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::DivU => a.checked_div(b).unwrap_or(Word::MAX),
            BinOp::RemU => a.checked_rem(b).unwrap_or(a),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::ShrL => a.wrapping_shr((b & 63) as u32),
            BinOp::ShrA => ((a as i64).wrapping_shr((b & 63) as u32)) as Word,
            BinOp::CmpEq => (a == b) as Word,
            BinOp::CmpNe => (a != b) as Word,
            BinOp::CmpLtU => (a < b) as Word,
            BinOp::CmpLtS => ((a as i64) < (b as i64)) as Word,
            BinOp::MinU => a.min(b),
            BinOp::MaxU => a.max(b),
        }
    }
}

/// Atomic read-modify-write opcodes (synchronization points, §VIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// Atomic fetch-add; destination receives the *old* value.
    FetchAdd,
    /// Atomic exchange; destination receives the old value.
    Swap,
    /// Atomic compare-and-swap: if `mem == expected` store `src`;
    /// destination receives the old value either way.
    Cas,
}

/// One IR instruction.
///
/// Instructions the *compiler* inserts ([`Inst::Boundary`], [`Inst::Ckpt`]) may
/// also be written by hand, which is how the simulated kernel-entry assembly of
/// §VI delineates its regions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = op(lhs, rhs)`.
    Binary {
        op: BinOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = src` (register copy or immediate materialization).
    Mov { dst: Reg, src: Operand },
    /// `dst = mem[addr]` (8-byte word load).
    Load { dst: Reg, addr: MemRef },
    /// `mem[addr] = src` (8-byte word store). This is the instruction whose
    /// committed data rides the persist path (§V-A).
    Store { src: Operand, addr: MemRef },
    /// Unconditional branch.
    Br { target: BlockId },
    /// Branch to `if_true` when `cond != 0`, else `if_false`.
    CondBr {
        cond: Operand,
        if_true: BlockId,
        if_false: BlockId,
    },
    /// Call `func` with `args`.
    ///
    /// Semantics (mirroring real-hardware calling conventions so that all
    /// cross-frame state lives in persistent memory):
    /// 1. *Spill phase*: a frame record (caller resume point, previous frame
    ///    base), the registers in `save_regs` (live across the call — filled in
    ///    by the compiler's call-save pass), and the argument values are stored
    ///    to stack memory.
    /// 2. Control transfers to `func`'s entry, a region boundary. The callee's
    ///    parameter registers are loaded from the stack frame.
    /// 3. On `Ret`, the return value is stored to the frame, and the *restore
    ///    phase* (start of the caller's post-call region) reloads `save_regs`
    ///    and the return value from memory.
    Call {
        func: FuncId,
        args: Vec<Operand>,
        ret: Option<Reg>,
        save_regs: Vec<Reg>,
    },
    /// Return from the current function.
    Ret { val: Option<Operand> },
    /// Atomic read-modify-write. Acts as a synchronization point: the cWSP
    /// compiler places region boundaries around it, and the simulator drains
    /// outstanding regions before committing it (§VIII).
    AtomicRmw {
        op: AtomicOp,
        dst: Reg,
        addr: MemRef,
        src: Operand,
        expected: Operand,
    },
    /// Memory fence; a synchronization point like atomics.
    Fence,
    /// Region boundary inserted by the cWSP compiler (or by hand in the
    /// simulated kernel assembly, §VI). Begins static region `id`.
    Boundary { id: RegionId },
    /// Checkpoint of a live-out register to its NVM slot (§IV-B). Semantically
    /// a store to [`crate::layout::ckpt_slot_addr`]; kept distinct so passes and
    /// statistics can recognize it.
    Ckpt { reg: Reg },
    /// Emit a word to the program's observable output stream. Output is held
    /// in a per-region I/O redo buffer and released when the region persists
    /// (§VIII "I/O and Device States").
    Out { val: Operand },
    /// Write back the cache line containing `addr` toward NVM (clwb-style).
    /// Architecturally a no-op; under `Scheme::AutoFence` the simulator
    /// enqueues the line on the persist path. Inserted by
    /// `compiler::autofence`.
    FlushLine { addr: MemRef },
    /// Persist-ordering fence: earlier flushed lines become durable before
    /// any later persist-side event. Unlike [`Inst::Fence`] it is *not* a
    /// synchronization point — region formation ignores it.
    PFence,
    /// Stop the program.
    Halt,
}

impl Inst {
    /// Shorthand constructor for [`Inst::Binary`].
    pub fn binary(op: BinOp, dst: Reg, lhs: Operand, rhs: Operand) -> Self {
        Inst::Binary { op, dst, lhs, rhs }
    }

    /// Shorthand constructor for [`Inst::Load`].
    pub fn load(dst: Reg, addr: MemRef) -> Self {
        Inst::Load { dst, addr }
    }

    /// Shorthand constructor for [`Inst::Store`].
    pub fn store(src: Operand, addr: MemRef) -> Self {
        Inst::Store { src, addr }
    }

    /// The register this instruction defines (writes), if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Binary { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::AtomicRmw { dst, .. } => Some(*dst),
            Inst::Call { ret, .. } => *ret,
            _ => None,
        }
    }

    /// The registers this instruction uses (reads), in evaluation order.
    ///
    /// Allocation-free: at most three fixed operands, then a call's
    /// arguments and the registers its spill phase reads (`save_regs`).
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        let none: [Option<Reg>; 3] = [None; 3];
        let (fixed, args, saves): (_, &[Operand], &[Reg]) = match self {
            Inst::Binary { lhs, rhs, .. } => ([lhs.as_reg(), rhs.as_reg(), None], &[], &[]),
            Inst::Mov { src: o, .. }
            | Inst::Load {
                addr: MemRef { base: o, .. },
                ..
            }
            | Inst::CondBr { cond: o, .. }
            | Inst::Ret { val: Some(o) }
            | Inst::Out { val: o }
            | Inst::FlushLine {
                addr: MemRef { base: o, .. },
            } => ([o.as_reg(), None, None], &[], &[]),
            Inst::Store { src, addr } => ([src.as_reg(), addr.base.as_reg(), None], &[], &[]),
            Inst::Call {
                args, save_regs, ..
            } => (none, args, save_regs),
            Inst::AtomicRmw {
                addr,
                src,
                expected,
                ..
            } => (
                [addr.base.as_reg(), src.as_reg(), expected.as_reg()],
                &[],
                &[],
            ),
            Inst::Ckpt { reg } => ([Some(*reg), None, None], &[], &[]),
            Inst::Br { .. }
            | Inst::Ret { val: None }
            | Inst::Fence
            | Inst::PFence
            | Inst::Boundary { .. }
            | Inst::Halt => (none, &[], &[]),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(args.iter().filter_map(|a| a.as_reg()))
            .chain(saves.iter().copied())
    }

    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. } | Inst::Halt
        )
    }

    /// Whether this instruction is a synchronization point (atomic or fence),
    /// which the region-formation pass treats as an initial boundary (§IV-A).
    pub fn is_sync(&self) -> bool {
        matches!(self, Inst::AtomicRmw { .. } | Inst::Fence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Sub.eval(1, 2), u64::MAX);
        assert_eq!(BinOp::DivU.eval(7, 2), 3);
        assert_eq!(BinOp::DivU.eval(7, 0), u64::MAX);
        assert_eq!(BinOp::RemU.eval(7, 0), 7);
        assert_eq!(BinOp::Shl.eval(1, 64), 1, "shift amount masked");
        assert_eq!(BinOp::ShrA.eval(u64::MAX, 1), u64::MAX);
        assert_eq!(BinOp::ShrL.eval(u64::MAX, 63), 1);
        assert_eq!(BinOp::CmpEq.eval(4, 4), 1);
        assert_eq!(BinOp::CmpNe.eval(4, 4), 0);
        assert_eq!(BinOp::CmpLtU.eval(1, u64::MAX), 1);
        assert_eq!(BinOp::CmpLtS.eval(1, u64::MAX), 0, "-1 < 1 signed");
        assert_eq!(BinOp::MinU.eval(3, 9), 3);
        assert_eq!(BinOp::MaxU.eval(3, 9), 9);
    }

    #[test]
    fn def_use_sets() {
        let i = Inst::binary(BinOp::Add, Reg(2), Reg(0).into(), Reg(1).into());
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg(0), Reg(1)]);

        let s = Inst::store(Reg(3).into(), MemRef::reg(Reg(4), 8));
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![Reg(3), Reg(4)]);

        let c = Inst::Call {
            func: FuncId(0),
            args: vec![Reg(1).into(), Operand::imm(5)],
            ret: Some(Reg(9)),
            save_regs: vec![Reg(7)],
        };
        assert_eq!(c.def(), Some(Reg(9)));
        assert_eq!(c.uses().collect::<Vec<_>>(), vec![Reg(1), Reg(7)]);
    }

    #[test]
    fn terminators_and_sync() {
        assert!(Inst::Halt.is_terminator());
        assert!(Inst::Ret { val: None }.is_terminator());
        assert!(!Inst::Fence.is_terminator());
        assert!(Inst::Fence.is_sync());
        let rmw = Inst::AtomicRmw {
            op: AtomicOp::FetchAdd,
            dst: Reg(0),
            addr: MemRef::abs(64),
            src: Operand::imm(1),
            expected: Operand::imm(0),
        };
        assert!(rmw.is_sync());
        assert_eq!(rmw.uses().count(), 0);
    }

    #[test]
    fn flush_and_pfence_are_not_sync_points() {
        let fl = Inst::FlushLine {
            addr: MemRef::reg(Reg(3), 16),
        };
        assert_eq!(fl.def(), None);
        assert_eq!(fl.uses().collect::<Vec<_>>(), vec![Reg(3)]);
        assert!(!fl.is_sync() && !fl.is_terminator());
        assert_eq!(Inst::PFence.def(), None);
        assert_eq!(Inst::PFence.uses().count(), 0);
        assert!(!Inst::PFence.is_sync() && !Inst::PFence.is_terminator());
    }

    #[test]
    fn memref_constructors() {
        let m = MemRef::reg(Reg(1), -8);
        assert_eq!(m.offset, -8);
        let a = MemRef::abs(4096);
        assert_eq!(a.base, Operand::imm(4096));
    }
}
