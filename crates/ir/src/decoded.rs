//! Decode-once micro-op stream for the interpreter.
//!
//! [`Inst`] is the compiler's representation: per-block `Vec`s of enum nodes
//! whose `Call` variant owns heap-allocated argument and save-register lists.
//! Executing from it forces the interpreter to clone an `Inst` per step (the
//! borrow of the module would otherwise alias the mutable frame state), which
//! heap-allocates on every call.
//!
//! [`DecodedModule`] lowers a whole [`Module`] into one flat, contiguous
//! `Vec<DecodedInst>` — a `Copy` micro-op per instruction — plus side tables:
//!
//! * `(func, block) → [start, end)` ranges into the flat array, so branches
//!   are two array reads and fetch is one;
//! * `Call` argument/save lists interned into shared pools referenced by
//!   `(start, len)` ranges ([`PoolRange`]), so fetching a call copies 8 bytes
//!   instead of cloning two `Vec`s;
//! * memory operands with immediate bases pre-resolved to absolute addresses
//!   ([`DecAddr::Abs`]) at decode time — global-tag resolution depends only
//!   on the module's global table, which is frozen for the decode lifetime.
//!
//! Decoding is semantically invisible: the interpreter executing the decoded
//! stream must produce bit-identical [`crate::interp::StepEffect`] streams to
//! the tree-walking reference in [`crate::reference`], which the differential
//! tests assert.

use crate::function::BlockId;
use crate::inst::{AtomicOp, BinOp, Inst, MemRef, Operand};
use crate::layout;
use crate::module::{FuncId, Module};
use crate::types::{Reg, RegionId, Word};

/// A `(start, len)` window into one of the decode pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRange {
    /// First pool index.
    pub start: u32,
    /// Number of entries.
    pub len: u32,
}

impl PoolRange {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A memory operand after decode-time address resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecAddr {
    /// Absolute address known at decode time (immediate base with the global
    /// tag and offset folded in). Alignment is still checked at execution
    /// time — a misaligned address must trap when reached, not at decode.
    Abs(Word),
    /// Register base: resolved (and offset) at execution time, because the
    /// register may hold a tagged global reference.
    Reg {
        /// Base register.
        base: Reg,
        /// Byte offset added after resolution.
        offset: i64,
    },
}

/// One pre-decoded micro-op. `Copy`: fetching never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedInst {
    /// Two-operand ALU op.
    Binary {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Register/immediate move.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Word load.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operand.
        addr: DecAddr,
    },
    /// Word store.
    Store {
        /// Value operand.
        src: Operand,
        /// Address operand.
        addr: DecAddr,
    },
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch.
    CondBr {
        /// Condition operand (non-zero = taken).
        cond: Operand,
        /// Taken target.
        if_true: BlockId,
        /// Fall-through target.
        if_false: BlockId,
    },
    /// Call with interned argument and save lists.
    Call {
        /// Callee.
        func: FuncId,
        /// Arguments (window into the operand pool).
        args: PoolRange,
        /// Return-value register.
        ret: Option<Reg>,
        /// Live-across-call registers (window into the register pool).
        saves: PoolRange,
    },
    /// Return.
    Ret {
        /// Return value operand.
        val: Option<Operand>,
    },
    /// Atomic read-modify-write.
    AtomicRmw {
        /// Operation.
        op: AtomicOp,
        /// Destination register (receives the old value).
        dst: Reg,
        /// Address operand.
        addr: DecAddr,
        /// Source operand.
        src: Operand,
        /// Expected value (CAS only).
        expected: Operand,
    },
    /// Memory fence.
    Fence,
    /// Explicit region boundary.
    Boundary {
        /// Static region id.
        id: RegionId,
    },
    /// Register checkpoint store.
    Ckpt {
        /// Checkpointed register.
        reg: Reg,
    },
    /// Output word.
    Out {
        /// Emitted operand.
        val: Operand,
    },
    /// Halt.
    Halt,
    /// Cache-line writeback toward NVM (architectural no-op).
    FlushLine {
        /// Address operand naming the flushed line.
        addr: DecAddr,
    },
    /// Persist-ordering fence (architectural no-op).
    PFence,
}

/// Number of distinct opcodes (for instruction-mix counters).
pub const OPCODE_COUNT: usize = 16;

/// Opcode names, indexed by [`DecodedInst::opcode`].
pub const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "binary",
    "mov",
    "load",
    "store",
    "br",
    "cond_br",
    "call",
    "ret",
    "atomic_rmw",
    "fence",
    "boundary",
    "ckpt",
    "out",
    "halt",
    "flush",
    "pfence",
];

impl DecodedInst {
    /// Dense opcode index into [`OPCODE_NAMES`] / mix-counter arrays.
    #[inline]
    pub fn opcode(&self) -> usize {
        match self {
            DecodedInst::Binary { .. } => 0,
            DecodedInst::Mov { .. } => 1,
            DecodedInst::Load { .. } => 2,
            DecodedInst::Store { .. } => 3,
            DecodedInst::Br { .. } => 4,
            DecodedInst::CondBr { .. } => 5,
            DecodedInst::Call { .. } => 6,
            DecodedInst::Ret { .. } => 7,
            DecodedInst::AtomicRmw { .. } => 8,
            DecodedInst::Fence => 9,
            DecodedInst::Boundary { .. } => 10,
            DecodedInst::Ckpt { .. } => 11,
            DecodedInst::Out { .. } => 12,
            DecodedInst::Halt => 13,
            DecodedInst::FlushLine { .. } => 14,
            DecodedInst::PFence => 15,
        }
    }
}

/// Classification of one fused super-op: a maximal run of consecutive
/// micro-ops that the fused execution core dispatches as a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperOpKind {
    /// Consecutive register-only ops (`Binary`/`Mov`): executed as one burst
    /// with no per-op effect bookkeeping.
    AluRun,
    /// A `Binary` compare whose result feeds the immediately following
    /// `CondBr` — the classic compare-and-branch fusion pair.
    CmpBranch,
    /// `Load`; `Binary` consuming the loaded register; `Store` of the ALU
    /// result — the load/op/store triple, dispatched back-to-back.
    LoadOpStore,
    /// Any other op (memory, call/ret, sync, region, I/O), dispatched alone.
    Single,
}

/// One fused dispatch unit: `len` consecutive micro-ops starting at flat
/// index `start`. Super-ops never cross a basic-block boundary, so each is a
/// straight-line superblock segment with statically known register indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperOp {
    /// Fusion class.
    pub kind: SuperOpKind,
    /// First flat op index.
    pub start: u32,
    /// Number of micro-ops covered.
    pub len: u32,
}

/// Per-function metadata the execution hot path needs without touching the
/// source [`Module`].
#[derive(Debug, Clone, Copy)]
pub struct FuncMeta {
    /// Virtual register count (frame size).
    pub reg_count: u32,
    /// Parameter count.
    pub param_count: u32,
    /// Number of blocks (bounds-checks branch targets in
    /// [`DecodedModule::block_range`]).
    block_count: u32,
    /// Index of this function's block 0 in the flat block tables.
    first_block: u32,
}

/// A [`Module`] lowered to a flat micro-op array plus lookup tables.
///
/// Immutable once built; one instance is shared (via `Arc`) by every core's
/// interpreter in a multicore simulation.
#[derive(Debug, Clone)]
pub struct DecodedModule {
    /// All instructions of all functions, blocks laid out contiguously.
    ops: Vec<DecodedInst>,
    /// Flat per-block start offsets into `ops` (indexed via `FuncMeta`).
    block_starts: Vec<u32>,
    /// Flat per-block end offsets into `ops` (`start..end` is the block).
    block_ends: Vec<u32>,
    /// Per-function metadata, indexed by [`FuncId`].
    funcs: Vec<FuncMeta>,
    /// Interned `Call` argument operands.
    args_pool: Vec<Operand>,
    /// Interned `Call` save-register lists.
    saves_pool: Vec<Reg>,
    /// Global base addresses, indexed by global id (for tag resolution).
    global_addrs: Vec<Word>,
    /// Fused dispatch units in flat program order (the superblock table).
    super_ops: Vec<SuperOp>,
    /// Flat op index → index into `super_ops` (superblock attribution).
    sb_of: Vec<u32>,
}

impl DecodedModule {
    /// Lower `module` into a decoded micro-op stream.
    pub fn new(module: &Module) -> Self {
        let mut d = DecodedModule {
            ops: Vec::with_capacity(module.inst_count()),
            block_starts: Vec::new(),
            block_ends: Vec::new(),
            funcs: Vec::with_capacity(module.function_count()),
            args_pool: Vec::new(),
            saves_pool: Vec::new(),
            global_addrs: module.globals().iter().map(|g| g.addr).collect(),
            super_ops: Vec::new(),
            sb_of: Vec::new(),
        };
        for (_, f) in module.iter_functions() {
            d.funcs.push(FuncMeta {
                reg_count: f.reg_count,
                param_count: f.param_count,
                block_count: f.blocks.len() as u32,
                first_block: d.block_starts.len() as u32,
            });
            for (_, block) in f.iter_blocks() {
                d.block_starts.push(d.ops.len() as u32);
                for inst in &block.insts {
                    let op = d.decode(inst);
                    d.ops.push(op);
                }
                d.block_ends.push(d.ops.len() as u32);
            }
        }
        d.build_super_ops();
        d
    }

    /// Post-decode fusion pass: partition every basic block into super-ops.
    fn build_super_ops(&mut self) {
        self.sb_of = vec![0; self.ops.len()];
        for (&s, &e) in self.block_starts.iter().zip(&self.block_ends) {
            let mut i = s as usize;
            let end = e as usize;
            while i < end {
                let (kind, len) = self.classify(i, end);
                let idx = self.super_ops.len() as u32;
                self.super_ops.push(SuperOp {
                    kind,
                    start: i as u32,
                    len,
                });
                for slot in &mut self.sb_of[i..i + len as usize] {
                    *slot = idx;
                }
                i += len as usize;
            }
        }
    }

    /// The fusion rule at flat index `i` (block ends at `end`, exclusive).
    fn classify(&self, i: usize, end: usize) -> (SuperOpKind, u32) {
        let is_alu =
            |op: &DecodedInst| matches!(op, DecodedInst::Binary { .. } | DecodedInst::Mov { .. });
        if is_alu(&self.ops[i]) {
            let mut j = i + 1;
            while j < end && is_alu(&self.ops[j]) {
                j += 1;
            }
            // A trailing compare feeding the block's CondBr splits off as a
            // fused compare-and-branch pair.
            if j < end {
                if let (DecodedInst::Binary { dst, .. }, DecodedInst::CondBr { cond, .. }) =
                    (self.ops[j - 1], self.ops[j])
                {
                    if cond == Operand::Reg(dst) {
                        if j - 1 > i {
                            return (SuperOpKind::AluRun, (j - 1 - i) as u32);
                        }
                        return (SuperOpKind::CmpBranch, 2);
                    }
                }
            }
            return (SuperOpKind::AluRun, (j - i) as u32);
        }
        if i + 2 < end {
            if let (
                DecodedInst::Load { dst: ld, .. },
                DecodedInst::Binary {
                    dst: od, lhs, rhs, ..
                },
                DecodedInst::Store { src, .. },
            ) = (self.ops[i], self.ops[i + 1], self.ops[i + 2])
            {
                let feeds = lhs == Operand::Reg(ld) || rhs == Operand::Reg(ld);
                if feeds && src == Operand::Reg(od) {
                    return (SuperOpKind::LoadOpStore, 3);
                }
            }
        }
        (SuperOpKind::Single, 1)
    }

    fn decode(&mut self, inst: &Inst) -> DecodedInst {
        match inst {
            Inst::Binary { op, dst, lhs, rhs } => DecodedInst::Binary {
                op: *op,
                dst: *dst,
                lhs: *lhs,
                rhs: *rhs,
            },
            Inst::Mov { dst, src } => DecodedInst::Mov {
                dst: *dst,
                src: *src,
            },
            Inst::Load { dst, addr } => DecodedInst::Load {
                dst: *dst,
                addr: self.decode_addr(addr),
            },
            Inst::Store { src, addr } => DecodedInst::Store {
                src: *src,
                addr: self.decode_addr(addr),
            },
            Inst::Br { target } => DecodedInst::Br { target: *target },
            Inst::CondBr {
                cond,
                if_true,
                if_false,
            } => DecodedInst::CondBr {
                cond: *cond,
                if_true: *if_true,
                if_false: *if_false,
            },
            Inst::Call {
                func,
                args,
                ret,
                save_regs,
            } => {
                let a = PoolRange {
                    start: self.args_pool.len() as u32,
                    len: args.len() as u32,
                };
                self.args_pool.extend_from_slice(args);
                let s = PoolRange {
                    start: self.saves_pool.len() as u32,
                    len: save_regs.len() as u32,
                };
                self.saves_pool.extend_from_slice(save_regs);
                DecodedInst::Call {
                    func: *func,
                    args: a,
                    ret: *ret,
                    saves: s,
                }
            }
            Inst::Ret { val } => DecodedInst::Ret { val: *val },
            Inst::AtomicRmw {
                op,
                dst,
                addr,
                src,
                expected,
            } => DecodedInst::AtomicRmw {
                op: *op,
                dst: *dst,
                addr: self.decode_addr(addr),
                src: *src,
                expected: *expected,
            },
            Inst::Fence => DecodedInst::Fence,
            Inst::Boundary { id } => DecodedInst::Boundary { id: *id },
            Inst::Ckpt { reg } => DecodedInst::Ckpt { reg: *reg },
            Inst::Out { val } => DecodedInst::Out { val: *val },
            Inst::FlushLine { addr } => DecodedInst::FlushLine {
                addr: self.decode_addr(addr),
            },
            Inst::PFence => DecodedInst::PFence,
            Inst::Halt => DecodedInst::Halt,
        }
    }

    fn decode_addr(&self, m: &MemRef) -> DecAddr {
        match m.base {
            // Fold the runtime computation `resolve(imm) + offset` now; the
            // global table cannot change under us (the module is borrowed
            // for the decode call and globals are append-only).
            Operand::Imm(v) => DecAddr::Abs(self.resolve_addr(v).wrapping_add(m.offset as Word)),
            Operand::Reg(r) => DecAddr::Reg {
                base: r,
                offset: m.offset,
            },
        }
    }

    /// Resolve a possibly global-tagged address — same semantics as
    /// [`Module::resolve_addr`]: values that merely look tagged but name no
    /// real global pass through unchanged.
    #[inline]
    pub fn resolve_addr(&self, addr: Word) -> Word {
        if layout::is_tagged_global(addr) {
            let (id, off) = layout::untag_global(addr);
            if let Some(&base) = self.global_addrs.get(id as usize) {
                return base + off;
            }
        }
        addr
    }

    /// Number of functions.
    #[inline]
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Per-function metadata.
    ///
    /// # Panics
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func(&self, f: FuncId) -> FuncMeta {
        self.funcs[f.index()]
    }

    /// `[start, end)` range of `block` of `func` in the flat op array.
    ///
    /// # Panics
    /// Panics if the function or block id is out of range.
    #[inline]
    pub fn block_range(&self, func: FuncId, block: BlockId) -> (u32, u32) {
        let meta = self.funcs[func.index()];
        assert!(
            block.0 < meta.block_count,
            "block {block} out of range for function {func}"
        );
        let i = (meta.first_block + block.0) as usize;
        (self.block_starts[i], self.block_ends[i])
    }

    /// The micro-op at flat index `pc`.
    ///
    /// # Panics
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn op(&self, pc: u32) -> DecodedInst {
        self.ops[pc as usize]
    }

    /// The interned argument operands of a [`DecodedInst::Call`].
    #[inline]
    pub fn args(&self, r: PoolRange) -> &[Operand] {
        &self.args_pool[r.range()]
    }

    /// The interned save-register list of a [`DecodedInst::Call`].
    #[inline]
    pub fn saves(&self, r: PoolRange) -> &[Reg] {
        &self.saves_pool[r.range()]
    }

    /// Total number of decoded micro-ops.
    #[inline]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The fused dispatch units (superblock table), in flat program order.
    #[inline]
    pub fn super_ops(&self) -> &[SuperOp] {
        &self.super_ops
    }

    /// Index into [`DecodedModule::super_ops`] of the super-op containing the
    /// micro-op at flat index `pc`.
    ///
    /// # Panics
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn super_op_of(&self, pc: u32) -> u32 {
        self.sb_of[pc as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn layout_is_flat_and_contiguous() {
        let mut m = Module::new("t");
        let mut f0 = FunctionBuilder::new("f", 1);
        let e = f0.entry();
        let b1 = f0.block();
        f0.push(e, Inst::Br { target: b1 });
        f0.push(b1, Inst::Ret { val: None });
        let f = m.add_function(f0.build());

        let mut f1 = FunctionBuilder::new("main", 0);
        let e1 = f1.entry();
        let r = f1.vreg();
        f1.push(
            e1,
            Inst::Call {
                func: f,
                args: vec![Operand::imm(1), Operand::imm(2)],
                ret: Some(r),
                save_regs: vec![r],
            },
        );
        f1.push(e1, Inst::Halt);
        let main = m.add_function(f1.build());
        m.set_entry(main);

        let d = DecodedModule::new(&m);
        assert_eq!(d.op_count(), m.inst_count());
        assert_eq!(d.func_count(), 2);
        // f: block 0 = [0,1), block 1 = [1,2); main: block 0 = [2,4).
        assert_eq!(d.block_range(f, BlockId(0)), (0, 1));
        assert_eq!(d.block_range(f, BlockId(1)), (1, 2));
        assert_eq!(d.block_range(main, BlockId(0)), (2, 4));
        // The call's lists are interned, not owned.
        let DecodedInst::Call { args, saves, .. } = d.op(2) else {
            panic!("expected call at pc 2, got {:?}", d.op(2));
        };
        assert_eq!(d.args(args), &[Operand::imm(1), Operand::imm(2)]);
        assert_eq!(d.saves(saves), &[r]);
        assert_eq!(d.func(f).param_count, 1);
        assert_eq!(d.func(f).reg_count, 1);
    }

    #[test]
    fn imm_bases_fold_to_absolute_addresses() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 4);
        let mut fb = FunctionBuilder::new("main", 0);
        let e = fb.entry();
        let v = fb.load(e, MemRef::global(g, 2));
        fb.store(e, v.into(), MemRef::abs(0x4000));
        fb.push(e, Inst::Halt);
        let main = m.add_function(fb.build());
        m.set_entry(main);

        let d = DecodedModule::new(&m);
        let (start, _) = d.block_range(main, BlockId(0));
        let DecodedInst::Load { addr, .. } = d.op(start) else {
            panic!("expected load");
        };
        assert_eq!(addr, DecAddr::Abs(m.global_addr(g) + 16));
        let DecodedInst::Store { addr, .. } = d.op(start + 1) else {
            panic!("expected store");
        };
        assert_eq!(addr, DecAddr::Abs(0x4000));
    }

    #[test]
    fn fusion_pass_segments_blocks() {
        use crate::inst::BinOp;
        let mut m = Module::new("t");
        let g = m.add_global("g", 4);
        let mut fb = FunctionBuilder::new("main", 0);
        let e = fb.entry();
        let exit = fb.block();
        // AluRun(2): mov + add; CmpBranch(2): cmp + cond_br.
        let x = fb.mov(e, Operand::imm(1));
        let y = fb.bin(e, BinOp::Add, x.into(), Operand::imm(2));
        let c = fb.bin(e, BinOp::CmpLtU, y.into(), Operand::imm(10));
        fb.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: exit,
                if_false: exit,
            },
        );
        // LoadOpStore(3) then Halt as Single(1).
        let v = fb.load(exit, MemRef::global(g, 0));
        let w = fb.bin(exit, BinOp::Add, v.into(), Operand::imm(1));
        fb.store(exit, w.into(), MemRef::global(g, 0));
        fb.push(exit, Inst::Halt);
        let main = m.add_function(fb.build());
        m.set_entry(main);

        let d = DecodedModule::new(&m);
        let kinds: Vec<(SuperOpKind, u32)> =
            d.super_ops().iter().map(|s| (s.kind, s.len)).collect();
        assert_eq!(
            kinds,
            vec![
                (SuperOpKind::AluRun, 2),
                (SuperOpKind::CmpBranch, 2),
                (SuperOpKind::LoadOpStore, 3),
                (SuperOpKind::Single, 1),
            ]
        );
        // Every op maps back to its covering super-op, and coverage is total.
        let total: u32 = d.super_ops().iter().map(|s| s.len).sum();
        assert_eq!(total as usize, d.op_count());
        for (idx, s) in d.super_ops().iter().enumerate() {
            for pc in s.start..s.start + s.len {
                assert_eq!(d.super_op_of(pc) as usize, idx);
            }
        }
    }

    #[test]
    fn resolve_matches_module_semantics() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 4);
        let mut fb = FunctionBuilder::new("main", 0);
        fb.push(fb.entry(), Inst::Halt);
        let main = m.add_function(fb.build());
        m.set_entry(main);
        let d = DecodedModule::new(&m);
        let tagged = layout::GLOBAL_TAG | ((g.0 as Word) << 32) | 16;
        assert_eq!(d.resolve_addr(tagged), m.resolve_addr(tagged));
        // Fake tag (no such global) passes through, as in Module.
        let fake = layout::GLOBAL_TAG | (99u64 << 32) | 8;
        assert_eq!(d.resolve_addr(fake), m.resolve_addr(fake));
        assert_eq!(d.resolve_addr(0x1234 * 8), 0x1234 * 8);
    }
}
