//! The interpreter and its step-effect stream.
//!
//! The interpreter executes one IR instruction per [`Interp::step`] call and
//! reports everything the outside world could observe in a [`StepEffect`]:
//! memory reads/writes (with addresses and values), dynamic region boundaries,
//! output words, and termination. Two consumers exist:
//!
//! * [`run`] — the *oracle*: executes to completion with no persistence
//!   machinery, producing the ground-truth output and final memory.
//! * `cwsp-sim` — drives the same stepping semantics, but attaches timing and
//!   the cWSP persistence hardware to each effect, maintains a separate NVM
//!   image that lags architectural state, and can cut power at any cycle.
//!
//! ## Execution core
//!
//! [`Interp`] executes from a [`DecodedModule`] — the module lowered once
//! into a flat `Copy` micro-op array (see [`crate::decoded`]) — so the
//! steady-state path performs no heap allocation: fetch is an array read,
//! call argument/save lists are pool slices, argument values go through a
//! reused scratch buffer, and popped frames recycle their register files.
//! Callers that step in a loop should use [`Interp::step_into`] with a
//! reused [`StepEffect`] to keep the effect buffers allocation-free too;
//! [`Interp::step`] is the convenience wrapper that returns a fresh effect.
//! The tree-walking executable specification these semantics are checked
//! against lives in [`crate::reference`].
//!
//! ## Calls, frames, and persistence
//!
//! All cross-frame state lives in (persistent) stack memory (see
//! [`Inst::Call`]): a call stores a frame record, the live-across-call
//! registers (`save_regs`), and the arguments; a return stores the return
//! value and *reloads* `save_regs` from memory. Because those are ordinary
//! stores riding the persist path, power-failure recovery can rebuild the
//! whole call stack from NVM — [`Interp::resume`] does exactly that.

use crate::decoded::{DecAddr, DecodedInst, DecodedModule, PoolRange, OPCODE_COUNT};
use crate::function::{BlockId, InstIdx};
use crate::inst::{AtomicOp, Inst, Operand};
use crate::layout;
use crate::memory::Memory;
use crate::module::{FuncId, Module};
use crate::types::{Reg, RegionId, Word};
use std::fmt;
use std::sync::Arc;

/// Frame-record header layout (word offsets from `frame_base`).
pub mod frame {
    /// Previous frame's base address (0 for the entry frame).
    pub const PREV_BASE: u64 = 0;
    /// Caller function id (sentinel [`NO_CALLER`] for the entry frame).
    pub const CALLER_FUNC: u64 = 1;
    /// Caller block id.
    pub const CALLER_BLOCK: u64 = 2;
    /// Caller instruction index (the `Call` instruction).
    pub const CALLER_IDX: u64 = 3;
    /// Caller's stack pointer at call time.
    pub const CALLER_SP: u64 = 4;
    /// Number of saved registers in this record.
    pub const NSAVE: u64 = 5;
    /// Number of argument words in this record.
    pub const NARGS: u64 = 6;
    /// Return-value slot.
    pub const RETVAL: u64 = 7;
    /// First saved-register slot; arguments follow the saves.
    pub const SAVES: u64 = 8;
    /// Sentinel marking "no caller" (entry frame).
    pub const NO_CALLER: u64 = u64::MAX;

    /// Total frame size in words for `nsave` saves and `nargs` args.
    pub const fn size_words(nsave: u64, nargs: u64) -> u64 {
        SAVES + nsave + nargs
    }
}

/// Where execution (re)starts: a dynamic region entry point.
///
/// Persisted (packed) to the recovery-metadata area by the simulated hardware
/// each time the region boundary table retires its head entry, so that after a
/// power failure the runtime knows the oldest unpersisted region (§V-B, §VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePoint {
    /// Function containing the region entry.
    pub func: FuncId,
    /// Block containing the region entry.
    pub block: BlockId,
    /// Instruction index of the region's first instruction (for
    /// [`ResumeKind::PostCall`], the index of the `Call` itself).
    pub idx: InstIdx,
    /// Base address of the active frame's record.
    pub frame_base: Word,
    /// Stack pointer at region entry.
    pub sp: Word,
    /// What implicit restore work region entry performs.
    pub kind: ResumeKind,
}

/// The implicit restore semantics of a region entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeKind {
    /// Plain region entry: live-in registers are restored by the region's
    /// recovery slice (compiler-generated, §IV-C).
    Normal,
    /// Function entry: parameters are reloaded from the frame record.
    FuncEntry,
    /// Post-call region entry: `save_regs` and the return value are reloaded
    /// from the frame record, then execution continues after the `Call`.
    PostCall,
}

/// Information attached to a step that begins a new dynamic region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryInfo {
    /// The compiler-assigned static region id, if this boundary came from an
    /// explicit [`Inst::Boundary`]; `None` for implicit call/return
    /// boundaries, whose restore work is builtin (see [`ResumeKind`]).
    pub static_region: Option<RegionId>,
    /// Entry point of the region that begins after this step.
    pub resume: ResumePoint,
}

/// Classification of a step for the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectKind {
    /// Register-only computation (ALU, moves, branches).
    Alu,
    /// A word load.
    Load,
    /// A word store.
    Store,
    /// An atomic read-modify-write (synchronization point).
    Atomic,
    /// A memory fence (synchronization point).
    Fence,
    /// A call: frame spill stores, then control enters the callee.
    Call,
    /// A return: return-value store + register restore loads.
    Ret,
    /// An explicit region boundary instruction.
    Boundary,
    /// A checkpoint store of a live-out register (§IV-B).
    Ckpt,
    /// An output word was emitted.
    Out,
    /// The program halted (via `Halt` or return from the entry function).
    Halt,
    /// A cache-line writeback toward NVM (`FlushLine`). Architecturally a
    /// no-op; `reads[0]` names the flushed address.
    Flush,
    /// A persist-ordering fence (`PFence`). Architecturally a no-op; not a
    /// synchronization point.
    PFence,
}

/// Everything externally observable about one interpreter step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepEffect {
    /// Step classification for the timing model.
    pub kind: EffectKind,
    /// Addresses read from memory, in order.
    pub reads: Vec<Word>,
    /// `(address, value)` pairs written to memory, in order.
    pub writes: Vec<(Word, Word)>,
    /// Set when a new dynamic region begins at the end of this step.
    pub boundary: Option<BoundaryInfo>,
    /// Output word emitted by this step.
    pub out: Option<Word>,
}

impl StepEffect {
    pub(crate) fn new(kind: EffectKind) -> Self {
        StepEffect {
            kind,
            reads: Vec::new(),
            writes: Vec::new(),
            boundary: None,
            out: None,
        }
    }
}

/// An empty ALU effect — the scratch buffer callers pass to
/// [`Interp::step_into`].
impl Default for StepEffect {
    fn default() -> Self {
        StepEffect::new(EffectKind::Alu)
    }
}

/// Errors raised by interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The module has no entry function.
    NoEntry,
    /// A runtime trap with a description (unaligned access, bad call, …).
    Trap(String),
    /// [`run`] exceeded its step budget.
    StepLimit(u64),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::NoEntry => write!(f, "module has no entry function"),
            InterpError::Trap(msg) => write!(f, "trap: {msg}"),
            InterpError::StepLimit(n) => write!(f, "step limit of {n} exceeded"),
        }
    }
}

impl std::error::Error for InterpError {}

/// One activation record (the volatile register file; the persistent twin
/// lives in stack memory).
///
/// `pc`/`limit` cache the flat decoded range of the current block: `pc` is
/// the next micro-op, `limit` the block's end (reaching it without a
/// terminator is the "fell off block" trap). `block`/`idx` are kept in sync
/// for resume points and diagnostics.
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    block: BlockId,
    idx: InstIdx,
    pc: u32,
    limit: u32,
    regs: Vec<Word>,
    frame_base: Word,
    sp: Word,
}

/// Result of a completed oracle run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Final architectural memory.
    pub memory: Memory,
    /// Emitted output words, in program order.
    pub output: Vec<Word>,
    /// Entry function's return value (if it returned one).
    pub return_value: Option<Word>,
    /// Number of dynamic instructions executed.
    pub steps: u64,
}

/// The stepping interpreter.
pub struct Interp<'m> {
    module: &'m Module,
    dec: Arc<DecodedModule>,
    frames: Vec<Frame>,
    /// Register files of popped frames, recycled by the next `Call` so the
    /// steady-state call path allocates nothing.
    free_regs: Vec<Vec<Word>>,
    /// Reused buffer for evaluated call arguments.
    arg_scratch: Vec<Word>,
    core: usize,
    halted: bool,
    return_value: Option<Word>,
    steps: u64,
    /// Executed-instruction counts per opcode (see
    /// [`crate::decoded::OPCODE_NAMES`]).
    op_counts: [u64; OPCODE_COUNT],
}

impl<'m> Interp<'m> {
    /// Create an interpreter for `module` on `core`, with global initializers
    /// applied to a fresh memory.
    ///
    /// # Errors
    /// [`InterpError::NoEntry`] if the module has no entry function.
    pub fn new(module: &'m Module, core: usize, mem: &mut Memory) -> Result<Self, InterpError> {
        Self::new_shared(module, Arc::new(DecodedModule::new(module)), core, mem)
    }

    /// Like [`Interp::new`], but executing from an existing decode of
    /// `module` (a multicore simulation decodes once and shares).
    ///
    /// # Errors
    /// [`InterpError::NoEntry`] if the module has no entry function.
    pub fn new_shared(
        module: &'m Module,
        dec: Arc<DecodedModule>,
        core: usize,
        mem: &mut Memory,
    ) -> Result<Self, InterpError> {
        for g in module.globals() {
            for (i, &v) in g.init.iter().enumerate() {
                mem.store(g.addr + i as Word * 8, v);
            }
        }
        Self::with_args_shared(module, dec, core, mem, &[])
    }

    /// Create an interpreter over an existing memory (global initializers are
    /// *not* re-applied — the memory is assumed to already hold the image).
    ///
    /// # Errors
    /// [`InterpError::NoEntry`] if the module has no entry function.
    pub fn with_memory(
        module: &'m Module,
        core: usize,
        mem: &mut Memory,
    ) -> Result<Self, InterpError> {
        Self::with_args(module, core, mem, &[])
    }

    /// Like [`Interp::with_memory`], but passes `args` to the entry function
    /// (e.g. a thread id for multicore workloads). Arguments beyond the entry
    /// function's parameter count are ignored; missing ones default to zero.
    ///
    /// # Errors
    /// [`InterpError::NoEntry`] if the module has no entry function.
    pub fn with_args(
        module: &'m Module,
        core: usize,
        mem: &mut Memory,
        args: &[Word],
    ) -> Result<Self, InterpError> {
        Self::with_args_shared(
            module,
            Arc::new(DecodedModule::new(module)),
            core,
            mem,
            args,
        )
    }

    /// Like [`Interp::with_args`], but executing from an existing decode.
    ///
    /// # Errors
    /// [`InterpError::NoEntry`] if the module has no entry function.
    pub fn with_args_shared(
        module: &'m Module,
        dec: Arc<DecodedModule>,
        core: usize,
        mem: &mut Memory,
        args: &[Word],
    ) -> Result<Self, InterpError> {
        debug_assert_eq!(
            dec.op_count(),
            module.inst_count(),
            "decode does not match module"
        );
        let entry = module.entry().ok_or(InterpError::NoEntry)?;
        let f = module.function(entry);
        let nargs = args.len().min(f.param_count as usize) as u64;
        let top = layout::stack_top(core);
        let size = frame::size_words(0, nargs) * 8;
        let base = top - size;
        let mut interp = Interp {
            module,
            dec,
            frames: Vec::new(),
            free_regs: Vec::new(),
            arg_scratch: Vec::new(),
            core,
            halted: false,
            return_value: None,
            steps: 0,
            op_counts: [0; OPCODE_COUNT],
        };
        // Entry frame record (so recovery inside `main` can walk the stack).
        mem.store(base + frame::PREV_BASE * 8, 0);
        mem.store(base + frame::CALLER_FUNC * 8, frame::NO_CALLER);
        mem.store(base + frame::NSAVE * 8, 0);
        mem.store(base + frame::NARGS * 8, nargs);
        let mut regs = vec![0; f.reg_count as usize];
        for (i, &a) in args.iter().enumerate().take(nargs as usize) {
            mem.store(base + (frame::SAVES + i as u64) * 8, a);
            regs[i] = a;
        }
        let (pc, limit) = interp.dec.block_range(entry, f.entry());
        interp.frames.push(Frame {
            func: entry,
            block: f.entry(),
            idx: 0,
            pc,
            limit,
            regs,
            frame_base: base,
            sp: base,
        });
        Ok(interp)
    }

    /// Rebuild an interpreter from persistent memory after a power failure,
    /// positioned at `resume` — the entry of the oldest unpersisted region
    /// (§VII). Walks the frame records in `mem` to reconstruct the call stack
    /// and performs the [`ResumeKind`] builtin restore. For
    /// [`ResumeKind::Normal`] entries the caller must additionally execute the
    /// region's recovery slice to restore live-in registers before stepping.
    ///
    /// # Errors
    /// Traps if the frame chain in memory is malformed.
    pub fn resume(
        module: &'m Module,
        core: usize,
        mem: &Memory,
        resume: ResumePoint,
    ) -> Result<Self, InterpError> {
        let mut interp = Interp {
            module,
            dec: Arc::new(DecodedModule::new(module)),
            frames: Vec::new(),
            free_regs: Vec::new(),
            arg_scratch: Vec::new(),
            core,
            halted: false,
            return_value: None,
            steps: 0,
            op_counts: [0; OPCODE_COUNT],
        };
        // Walk frame records from innermost to outermost, then reverse.
        let mut chain = Vec::new();
        let mut base = resume.frame_base;
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 1_000_000 {
                return Err(InterpError::Trap("frame chain too deep or cyclic".into()));
            }
            let caller_func = mem.load(base + frame::CALLER_FUNC * 8);
            chain.push(base);
            if caller_func == frame::NO_CALLER {
                break;
            }
            base = mem.load(base + frame::PREV_BASE * 8);
        }
        chain.reverse();
        // Reconstruct outer frames paused at their Call instructions. Their
        // dead registers are zero; live-across-call registers are reloaded
        // from frame memory when the callee returns.
        for w in chain.windows(2) {
            let (outer_base, inner_base) = (w[0], w[1]);
            let func = FuncId(mem.load(inner_base + frame::CALLER_FUNC * 8) as u32);
            if func.index() >= module.function_count() {
                return Err(InterpError::Trap(format!(
                    "bad caller func in frame {inner_base:#x}"
                )));
            }
            let block = BlockId(mem.load(inner_base + frame::CALLER_BLOCK * 8) as u32);
            let idx = mem.load(inner_base + frame::CALLER_IDX * 8) as InstIdx;
            let sp = mem.load(inner_base + frame::CALLER_SP * 8);
            let reg_count = module.function(func).reg_count as usize;
            let mut f = Frame {
                func,
                block,
                idx,
                pc: 0,
                limit: 0,
                regs: vec![0; reg_count],
                frame_base: outer_base,
                sp,
            };
            interp.locate_frame(&mut f)?;
            interp.frames.push(f);
        }
        // Innermost frame: the resumed region's frame.
        let func = module.function(resume.func);
        let mut frame = Frame {
            func: resume.func,
            block: resume.block,
            idx: resume.idx,
            pc: 0,
            limit: 0,
            regs: vec![0; func.reg_count as usize],
            frame_base: resume.frame_base,
            sp: resume.sp,
        };
        match resume.kind {
            ResumeKind::Normal => {}
            ResumeKind::FuncEntry => {
                // Reload parameters from the frame record.
                let nsave = mem.load(resume.frame_base + frame::NSAVE * 8);
                let nargs = mem.load(resume.frame_base + frame::NARGS * 8);
                for i in 0..nargs.min(func.param_count as u64) {
                    let a = resume.frame_base + (frame::SAVES + nsave + i) * 8;
                    frame.regs[i as usize] = mem.load(a);
                }
            }
            ResumeKind::PostCall => {
                // Reload save_regs + return value, then step past the Call.
                let call = &module.function(resume.func).block(resume.block).insts[resume.idx];
                let Inst::Call { ret, save_regs, .. } = call else {
                    return Err(InterpError::Trap(format!(
                        "PostCall resume does not point at a Call: {call:?}"
                    )));
                };
                // The callee frame sat directly below ours; recompute its base
                // from the static save/arg lists, mirroring the call-time
                // layout.
                let nsave = save_regs.len() as u64;
                let Inst::Call { args, .. } = call else {
                    unreachable!()
                };
                let nargs = args.len() as u64;
                let size = frame::size_words(nsave, nargs) * 8;
                let cal_base = resume.sp - size;
                for (i, r) in save_regs.iter().enumerate() {
                    frame.regs[r.index()] = mem.load(cal_base + (frame::SAVES + i as u64) * 8);
                }
                if let Some(r) = ret {
                    frame.regs[r.index()] = mem.load(cal_base + frame::RETVAL * 8);
                }
                frame.idx += 1;
            }
        }
        interp.locate_frame(&mut frame)?;
        interp.frames.push(frame);
        Ok(interp)
    }

    /// Fill in a reconstructed frame's decoded `pc`/`limit` from its
    /// `(func, block, idx)` position. An `idx` beyond the block end clamps to
    /// `limit`, so the next step reports the same "fell off block" trap the
    /// tree-walking interpreter raised.
    fn locate_frame(&self, frame: &mut Frame) -> Result<(), InterpError> {
        let f = self.module.function(frame.func);
        if frame.block.index() >= f.blocks.len() {
            return Err(InterpError::Trap(format!(
                "bad block {} in resumed frame of {}",
                frame.block, f.name
            )));
        }
        let (start, end) = self.dec.block_range(frame.func, frame.block);
        frame.pc = (start as u64 + frame.idx as u64).min(end as u64) as u32;
        frame.limit = end;
        Ok(())
    }

    /// Write register `r` of the innermost frame (used by the recovery runtime
    /// while executing a recovery slice).
    ///
    /// # Panics
    /// Panics if halted or `r` out of range.
    pub fn set_reg(&mut self, r: Reg, v: Word) {
        self.frames.last_mut().expect("no frame").regs[r.index()] = v;
    }

    /// Read register `r` of the innermost frame.
    ///
    /// # Panics
    /// Panics if halted or `r` out of range.
    pub fn reg(&self, r: Reg) -> Word {
        self.frames.last().expect("no frame").regs[r.index()]
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The entry function's return value, once halted via `Ret`.
    pub fn return_value(&self) -> Option<Word> {
        self.return_value
    }

    /// Dynamic instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Executed-instruction counts per opcode, indexed like
    /// [`crate::decoded::OPCODE_NAMES`].
    pub fn op_counts(&self) -> &[u64; OPCODE_COUNT] {
        &self.op_counts
    }

    /// Current call depth (1 = inside the entry function).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The core this interpreter runs on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The current execution position as a [`ResumePoint`] (with
    /// [`ResumeKind::Normal`] semantics). Used by the simulator to advance
    /// the recovery point past committed synchronization instructions.
    pub fn position(&self) -> Option<ResumePoint> {
        let f = self.frames.last()?;
        Some(ResumePoint {
            func: f.func,
            block: f.block,
            idx: f.idx,
            frame_base: f.frame_base,
            sp: f.sp,
            kind: ResumeKind::Normal,
        })
    }

    /// The resume point for the current position (used when a dynamic region
    /// begins at an explicit boundary).
    fn here(&self, kind: ResumeKind) -> ResumePoint {
        let f = self.frames.last().expect("no frame");
        ResumePoint {
            func: f.func,
            block: f.block,
            idx: f.idx,
            frame_base: f.frame_base,
            sp: f.sp,
            kind,
        }
    }

    #[inline]
    fn eval(&self, op: Operand) -> Word {
        match op {
            Operand::Reg(r) => self.frames.last().expect("no frame").regs[r.index()],
            Operand::Imm(v) => v,
        }
    }

    #[inline]
    fn addr_of(&self, a: DecAddr) -> Result<Word, InterpError> {
        let addr = match a {
            DecAddr::Abs(w) => w,
            DecAddr::Reg { base, offset } => {
                let v = self.frames.last().expect("no frame").regs[base.index()];
                self.dec.resolve_addr(v).wrapping_add(offset as Word)
            }
        };
        if !addr.is_multiple_of(8) {
            return Err(InterpError::Trap(format!("unaligned access at {addr:#x}")));
        }
        Ok(addr)
    }

    #[inline]
    fn set(&mut self, r: Reg, v: Word) {
        self.frames.last_mut().expect("no frame").regs[r.index()] = v;
    }

    /// Redirect the innermost frame to the start of `target`.
    #[inline]
    fn branch(&mut self, target: BlockId) {
        let func = self.frames.last().expect("no frame").func;
        let (start, end) = self.dec.block_range(func, target);
        let fr = self.frames.last_mut().expect("no frame");
        fr.block = target;
        fr.idx = 0;
        fr.pc = start;
        fr.limit = end;
    }

    /// Flat decoded index of the next instruction, if any.
    pub fn pc(&self) -> Option<u32> {
        self.frames.last().map(|f| f.pc)
    }

    /// Index of the superblock (see [`crate::decoded::SuperOp`]) holding the
    /// next instruction — the profiler's attribution granule under fusion.
    pub fn current_super_op(&self) -> Option<u32> {
        if self.halted {
            return None;
        }
        let f = self.frames.last()?;
        if f.pc >= f.limit {
            return None;
        }
        Some(self.dec.super_op_of(f.pc))
    }

    /// Execute up to `max` register-only micro-ops (`Binary`, `Mov`, `Br`,
    /// `CondBr`) as one fused burst, stopping early at any op that touches
    /// memory, I/O, regions, or frames.
    ///
    /// A burst is architecturally identical to the same number of individual
    /// [`Interp::step_into`] calls: every op it accepts produces an empty ALU
    /// effect (no memory access, no boundary, no output, never halts), so
    /// only the per-step dispatch overhead is elided. `steps` and the
    /// per-opcode counters advance exactly as under single-stepping.
    ///
    /// Returns the number of ops executed — 0 when the next op is not
    /// fusible, the block limit was reached, or the program is halted; the
    /// caller falls back to `step_into`, which also surfaces any pending
    /// trap.
    pub fn step_run(&mut self, max: u32) -> u32 {
        if self.halted || self.frames.is_empty() {
            return 0;
        }
        let mut n = 0u32;
        let mut counts = [0u64; 6]; // binary, mov, _, _, br, cond_br
        let frame = self.frames.last_mut().expect("no frame");
        while n < max && frame.pc < frame.limit {
            match self.dec.op(frame.pc) {
                DecodedInst::Binary { op, dst, lhs, rhs } => {
                    let a = match lhs {
                        Operand::Reg(r) => frame.regs[r.index()],
                        Operand::Imm(v) => v,
                    };
                    let b = match rhs {
                        Operand::Reg(r) => frame.regs[r.index()],
                        Operand::Imm(v) => v,
                    };
                    frame.regs[dst.index()] = op.eval(a, b);
                    frame.idx += 1;
                    frame.pc += 1;
                    counts[0] += 1;
                }
                DecodedInst::Mov { dst, src } => {
                    let v = match src {
                        Operand::Reg(r) => frame.regs[r.index()],
                        Operand::Imm(v) => v,
                    };
                    frame.regs[dst.index()] = v;
                    frame.idx += 1;
                    frame.pc += 1;
                    counts[1] += 1;
                }
                DecodedInst::Br { target } => {
                    let (start, end) = self.dec.block_range(frame.func, target);
                    frame.block = target;
                    frame.idx = 0;
                    frame.pc = start;
                    frame.limit = end;
                    counts[4] += 1;
                }
                DecodedInst::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let t = match cond {
                        Operand::Reg(r) => frame.regs[r.index()],
                        Operand::Imm(v) => v,
                    } != 0;
                    let target = if t { if_true } else { if_false };
                    let (start, end) = self.dec.block_range(frame.func, target);
                    frame.block = target;
                    frame.idx = 0;
                    frame.pc = start;
                    frame.limit = end;
                    counts[5] += 1;
                }
                _ => break,
            }
            n += 1;
        }
        self.steps += n as u64;
        for (slot, &c) in self.op_counts.iter_mut().zip(&counts) {
            *slot += c;
        }
        n
    }

    /// Fused oracle burst: execute up to `max` micro-ops of any kind that
    /// needs no per-step effect record — register ops via [`Interp::step_run`]
    /// plus loads, stores, checkpoints, atomics, fences, and boundaries
    /// applied to `mem` directly, with output words pushed onto `out` —
    /// stopping before calls, returns, and halts. This is the single-dispatch
    /// path for [`crate::decoded::SuperOpKind::LoadOpStore`] triples: the
    /// load, ALU op, and store execute back-to-back with no effect buffer in
    /// between.
    ///
    /// Identical to the same sequence of `step_into` calls in architectural
    /// state, `steps`, per-opcode counts, emitted output, and trap behavior.
    /// Returns the number of ops executed.
    ///
    /// # Errors
    /// Traps exactly where single-stepping would (unaligned access).
    pub fn step_simple_run(
        &mut self,
        mem: &mut Memory,
        max: u64,
        out: &mut Vec<Word>,
    ) -> Result<u64, InterpError> {
        let mut n = 0u64;
        while n < max {
            let chunk = (max - n).min(u32::MAX as u64) as u32;
            n += self.step_run(chunk) as u64;
            if n >= max || self.halted {
                break;
            }
            let frame = self.frames.last().expect("no frame");
            if frame.pc >= frame.limit {
                break; // let step_into raise the fell-off-block trap
            }
            // One non-ALU op, when it needs no effect record. Counters are
            // bumped before address checks, mirroring step_into's trap order.
            match self.dec.op(frame.pc) {
                DecodedInst::Load { dst, addr } => {
                    self.steps += 1;
                    self.op_counts[2] += 1;
                    let a = self.addr_of(addr)?;
                    let v = mem.load(a);
                    self.set(dst, v);
                    self.bump();
                }
                DecodedInst::Store { src, addr } => {
                    self.steps += 1;
                    self.op_counts[3] += 1;
                    let a = self.addr_of(addr)?;
                    let v = self.eval(src);
                    mem.store(a, v);
                    self.bump();
                }
                DecodedInst::AtomicRmw {
                    op,
                    dst,
                    addr,
                    src,
                    expected,
                } => {
                    self.steps += 1;
                    self.op_counts[8] += 1;
                    let a = self.addr_of(addr)?;
                    let old = mem.load(a);
                    let s = self.eval(src);
                    let e = self.eval(expected);
                    let new = match op {
                        AtomicOp::FetchAdd => Some(old.wrapping_add(s)),
                        AtomicOp::Swap => Some(s),
                        AtomicOp::Cas => (old == e).then_some(s),
                    };
                    if let Some(nv) = new {
                        mem.store(a, nv);
                    }
                    self.set(dst, old);
                    self.bump();
                }
                DecodedInst::Fence => {
                    self.steps += 1;
                    self.op_counts[9] += 1;
                    self.bump();
                }
                DecodedInst::Boundary { .. } => {
                    self.steps += 1;
                    self.op_counts[10] += 1;
                    self.bump();
                }
                DecodedInst::Ckpt { reg } => {
                    self.steps += 1;
                    self.op_counts[11] += 1;
                    let a = layout::ckpt_slot_addr(self.core, reg);
                    let v = self.reg(reg);
                    mem.store(a, v);
                    self.bump();
                }
                DecodedInst::Out { val } => {
                    self.steps += 1;
                    self.op_counts[12] += 1;
                    out.push(self.eval(val));
                    self.bump();
                }
                DecodedInst::FlushLine { addr } => {
                    self.steps += 1;
                    self.op_counts[14] += 1;
                    let _ = self.addr_of(addr)?;
                    self.bump();
                }
                DecodedInst::PFence => {
                    self.steps += 1;
                    self.op_counts[15] += 1;
                    self.bump();
                }
                _ => break, // Call / Ret / Halt take the full step path
            }
            n += 1;
        }
        Ok(n)
    }

    /// Run to halt through fused bursts: [`Interp::step_simple_run`] where
    /// it applies, one [`Interp::step_into`] where it stops (calls, returns,
    /// halts, traps), with output words pushed onto `out`. This is the one
    /// fused run-to-halt loop; the oracle [`run`] and crash recovery both
    /// use it. Returns the number of steps executed by this call.
    ///
    /// Identical to single-stepping with `step_into` in architectural
    /// state, steps, output, and trap behavior.
    ///
    /// # Errors
    /// Propagates traps; returns [`InterpError::StepLimit`]`(max_steps)`
    /// when `max_steps` steps ran without halting.
    pub fn run_to_halt(
        &mut self,
        mem: &mut Memory,
        max_steps: u64,
        out: &mut Vec<Word>,
    ) -> Result<u64, InterpError> {
        let start = self.steps;
        let mut eff = StepEffect::default();
        while !self.halted {
            let done = self.steps - start;
            if done >= max_steps {
                return Err(InterpError::StepLimit(max_steps));
            }
            if self.step_simple_run(mem, max_steps - done, out)? > 0 {
                continue;
            }
            self.step_into(mem, &mut eff)?;
            if let Some(v) = eff.out {
                out.push(v);
            }
        }
        Ok(self.steps - start)
    }

    /// Advance the innermost frame past a non-branching instruction.
    #[inline]
    fn bump(&mut self) {
        let fr = self.frames.last_mut().expect("no frame");
        fr.idx += 1;
        fr.pc += 1;
    }

    /// Execute one instruction, returning a freshly allocated effect.
    ///
    /// Convenience wrapper over [`Interp::step_into`]; stepping loops should
    /// prefer `step_into` with a reused buffer.
    ///
    /// # Errors
    /// Traps on unaligned accesses, malformed control flow, or stepping a
    /// halted program.
    pub fn step(&mut self, mem: &mut Memory) -> Result<StepEffect, InterpError> {
        let mut eff = StepEffect::default();
        self.step_into(mem, &mut eff)?;
        Ok(eff)
    }

    /// Execute one instruction, writing its observable effect into `eff`
    /// (cleared first; its buffers keep their capacity, so a reused effect
    /// makes the steady-state step path allocation-free).
    ///
    /// # Errors
    /// Traps on unaligned accesses, malformed control flow, or stepping a
    /// halted program.
    pub fn step_into(&mut self, mem: &mut Memory, eff: &mut StepEffect) -> Result<(), InterpError> {
        eff.kind = EffectKind::Alu;
        eff.reads.clear();
        eff.writes.clear();
        eff.boundary = None;
        eff.out = None;
        if self.halted {
            return Err(InterpError::Trap("step after halt".into()));
        }
        let frame = self.frames.last().expect("no frame");
        if frame.pc >= frame.limit {
            return Err(InterpError::Trap(format!(
                "fell off block {} in {}",
                frame.block,
                self.module.function(frame.func).name
            )));
        }
        let inst = self.dec.op(frame.pc);
        self.steps += 1;
        self.op_counts[inst.opcode()] += 1;

        let mut advanced = false;
        match inst {
            DecodedInst::Binary { op, dst, lhs, rhs } => {
                let v = op.eval(self.eval(lhs), self.eval(rhs));
                self.set(dst, v);
            }
            DecodedInst::Mov { dst, src } => {
                let v = self.eval(src);
                self.set(dst, v);
            }
            DecodedInst::Load { dst, addr } => {
                eff.kind = EffectKind::Load;
                let a = self.addr_of(addr)?;
                let v = mem.load(a);
                eff.reads.push(a);
                self.set(dst, v);
            }
            DecodedInst::Store { src, addr } => {
                eff.kind = EffectKind::Store;
                let a = self.addr_of(addr)?;
                let v = self.eval(src);
                mem.store(a, v);
                eff.writes.push((a, v));
            }
            DecodedInst::Br { target } => {
                self.branch(target);
                advanced = true;
            }
            DecodedInst::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                let t = self.eval(cond) != 0;
                self.branch(if t { if_true } else { if_false });
                advanced = true;
            }
            DecodedInst::Call {
                func: callee,
                args,
                ret: _,
                saves,
            } => {
                eff.kind = EffectKind::Call;
                self.exec_call(mem, eff, callee, args, saves)?;
                advanced = true;
                eff.boundary = Some(BoundaryInfo {
                    static_region: None,
                    resume: self.here(ResumeKind::FuncEntry),
                });
            }
            DecodedInst::Ret { val } => {
                eff.kind = EffectKind::Ret;
                let v = val.map(|v| self.eval(v)).unwrap_or(0);
                let callee = self.frames.pop().expect("no frame");
                if self.frames.is_empty() {
                    self.halted = true;
                    self.return_value = Some(v);
                    self.free_regs.push(callee.regs);
                    eff.kind = EffectKind::Halt;
                    return Ok(());
                }
                // Store the return value into the callee's frame record so a
                // post-call crash can recover it.
                let rv_addr = callee.frame_base + frame::RETVAL * 8;
                mem.store(rv_addr, v);
                eff.writes.push((rv_addr, v));
                // Restore phase: reload save_regs from memory (ensures
                // recovered and normal execution behave identically), then the
                // return value register.
                let caller_pc = self.frames.last().expect("no frame").pc;
                let DecodedInst::Call { ret, saves, .. } = self.dec.op(caller_pc) else {
                    return Err(InterpError::Trap("return to a non-call site".into()));
                };
                for i in 0..saves.len as usize {
                    let r = self.dec.saves(saves)[i];
                    let a = callee.frame_base + (frame::SAVES + i as u64) * 8;
                    let sv = mem.load(a);
                    eff.reads.push(a);
                    self.set(r, sv);
                }
                if let Some(r) = ret {
                    eff.reads.push(rv_addr);
                    self.set(r, v);
                }
                self.free_regs.push(callee.regs);
                let fr = self.frames.last_mut().expect("no frame");
                fr.idx += 1; // step past the Call
                fr.pc += 1;
                advanced = true;
                // The post-call region begins here; its resume point records
                // the Call instruction's position.
                let mut rp = self.here(ResumeKind::PostCall);
                rp.idx -= 1;
                eff.boundary = Some(BoundaryInfo {
                    static_region: None,
                    resume: rp,
                });
            }
            DecodedInst::AtomicRmw {
                op,
                dst,
                addr,
                src,
                expected,
            } => {
                eff.kind = EffectKind::Atomic;
                let a = self.addr_of(addr)?;
                let old = mem.load(a);
                eff.reads.push(a);
                let s = self.eval(src);
                let e = self.eval(expected);
                let new = match op {
                    AtomicOp::FetchAdd => Some(old.wrapping_add(s)),
                    AtomicOp::Swap => Some(s),
                    AtomicOp::Cas => (old == e).then_some(s),
                };
                if let Some(n) = new {
                    mem.store(a, n);
                    eff.writes.push((a, n));
                }
                self.set(dst, old);
            }
            DecodedInst::Fence => {
                eff.kind = EffectKind::Fence;
            }
            DecodedInst::Boundary { id } => {
                eff.kind = EffectKind::Boundary;
                let fr = self.frames.last_mut().expect("no frame");
                fr.idx += 1;
                fr.pc += 1;
                advanced = true;
                eff.boundary = Some(BoundaryInfo {
                    static_region: Some(id),
                    resume: self.here(ResumeKind::Normal),
                });
            }
            DecodedInst::Ckpt { reg } => {
                eff.kind = EffectKind::Ckpt;
                let a = layout::ckpt_slot_addr(self.core, reg);
                let v = self.reg(reg);
                mem.store(a, v);
                eff.writes.push((a, v));
            }
            DecodedInst::Out { val } => {
                eff.kind = EffectKind::Out;
                eff.out = Some(self.eval(val));
            }
            DecodedInst::FlushLine { addr } => {
                eff.kind = EffectKind::Flush;
                let a = self.addr_of(addr)?;
                eff.reads.push(a);
            }
            DecodedInst::PFence => {
                eff.kind = EffectKind::PFence;
            }
            DecodedInst::Halt => {
                eff.kind = EffectKind::Halt;
                self.halted = true;
                return Ok(());
            }
        }
        if !advanced {
            let fr = self.frames.last_mut().expect("no frame");
            fr.idx += 1;
            fr.pc += 1;
        }
        Ok(())
    }

    /// The spill-and-enter half of a `Call` (the boundary is attached by the
    /// caller, after the new frame exists).
    fn exec_call(
        &mut self,
        mem: &mut Memory,
        eff: &mut StepEffect,
        callee: FuncId,
        args: PoolRange,
        saves: PoolRange,
    ) -> Result<(), InterpError> {
        if callee.index() >= self.dec.func_count() {
            return Err(InterpError::Trap(format!("call to unknown {callee}")));
        }
        if self.frames.len() >= 4096 {
            return Err(InterpError::Trap("call stack overflow".into()));
        }
        let meta = self.dec.func(callee);
        let mut arg_vals = std::mem::take(&mut self.arg_scratch);
        arg_vals.clear();
        for &a in self.dec.args(args) {
            arg_vals.push(self.eval(a));
        }
        if arg_vals.len() < meta.param_count as usize {
            let msg = format!(
                "call to {} with {} args, needs {}",
                self.module.function(callee).name,
                arg_vals.len(),
                meta.param_count
            );
            self.arg_scratch = arg_vals;
            return Err(InterpError::Trap(msg));
        }
        let fr = self.frames.last().expect("no frame");
        let (cur_func, cur_block, cur_idx, cur_base, cur_sp) =
            (fr.func, fr.block, fr.idx, fr.frame_base, fr.sp);
        let nsave = saves.len as u64;
        let nargs = arg_vals.len() as u64;
        let size = frame::size_words(nsave, nargs) * 8;
        let base = cur_sp - size;
        // Spill phase: frame record + saves + args, all real stores.
        let w = |mem: &mut Memory, eff: &mut StepEffect, off: u64, v: Word| {
            mem.store(base + off * 8, v);
            eff.writes.push((base + off * 8, v));
        };
        w(mem, eff, frame::PREV_BASE, cur_base);
        w(mem, eff, frame::CALLER_FUNC, cur_func.0 as Word);
        w(mem, eff, frame::CALLER_BLOCK, cur_block.0 as Word);
        w(mem, eff, frame::CALLER_IDX, cur_idx as Word);
        w(mem, eff, frame::CALLER_SP, cur_sp);
        w(mem, eff, frame::NSAVE, nsave);
        w(mem, eff, frame::NARGS, nargs);
        {
            let fr = self.frames.last().expect("no frame");
            for (i, r) in self.dec.saves(saves).iter().enumerate() {
                w(mem, eff, frame::SAVES + i as u64, fr.regs[r.index()]);
            }
        }
        for (i, &v) in arg_vals.iter().enumerate() {
            w(mem, eff, frame::SAVES + nsave + i as u64, v);
        }
        // Enter the callee; parameters arrive in registers (the memory
        // copy above exists for recovery).
        let mut regs = self.free_regs.pop().unwrap_or_default();
        regs.clear();
        regs.resize(meta.reg_count as usize, 0);
        for (i, &v) in arg_vals.iter().enumerate().take(meta.param_count as usize) {
            regs[i] = v;
        }
        self.arg_scratch = arg_vals;
        let (pc, limit) = self.dec.block_range(callee, BlockId(0));
        self.frames.push(Frame {
            func: callee,
            block: BlockId(0),
            idx: 0,
            pc,
            limit,
            regs,
            frame_base: base,
            sp: base,
        });
        Ok(())
    }
}

/// Run `module` to completion as the failure-free oracle.
///
/// # Errors
/// Propagates traps; returns [`InterpError::StepLimit`] if the program does
/// not halt within `max_steps`.
///
/// # Example
/// ```
/// # use cwsp_ir::prelude::*;
/// let mut m = Module::new("m");
/// let mut b = FunctionBuilder::new("main", 0);
/// let e = b.entry();
/// b.push(e, Inst::Out { val: Operand::imm(7) });
/// b.push(e, Inst::Halt);
/// let f = m.add_function(b.build());
/// m.set_entry(f);
/// let out = cwsp_ir::interp::run(&m, 100)?;
/// assert_eq!(out.output, vec![7]);
/// # Ok::<(), cwsp_ir::interp::InterpError>(())
/// ```
pub fn run(module: &Module, max_steps: u64) -> Result<Outcome, InterpError> {
    let mut mem = Memory::new();
    let mut interp = Interp::new(module, 0, &mut mem)?;
    let mut output = Vec::new();
    interp.run_to_halt(&mut mem, max_steps, &mut output)?;
    Ok(Outcome {
        return_value: interp.return_value(),
        steps: interp.steps(),
        memory: mem,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_counted_loop, FunctionBuilder};
    use crate::inst::{BinOp, MemRef};
    use crate::module::Module;

    fn module_with_main(build: impl FnOnce(&mut Module, &mut FunctionBuilder)) -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        build(&mut m, &mut b);
        let f = m.add_function(b.build());
        m.set_entry(f);
        m
    }

    #[test]
    fn arithmetic_and_memory() {
        let m = module_with_main(|m, b| {
            let g = m.add_global("g", 2);
            let e = b.entry();
            let x = b.mov(e, Operand::imm(10));
            let y = b.bin(e, BinOp::Mul, x.into(), Operand::imm(3));
            b.store(e, y.into(), MemRef::global(g, 1));
            let z = b.load(e, MemRef::global(g, 1));
            b.push(e, Inst::Out { val: z.into() });
            b.push(
                e,
                Inst::Ret {
                    val: Some(z.into()),
                },
            );
        });
        let out = run(&m, 100).unwrap();
        assert_eq!(out.return_value, Some(30));
        assert_eq!(out.output, vec![30]);
    }

    #[test]
    fn loop_sums() {
        let m = module_with_main(|m, b| {
            let g = m.add_global("sum", 1);
            let e = b.entry();
            let (_, exit) = build_counted_loop(b, e, Operand::imm(100), |b, bb, i| {
                let old = b.load(bb, MemRef::global(g, 0));
                let new = b.bin(bb, BinOp::Add, old.into(), i.into());
                b.store(bb, new.into(), MemRef::global(g, 0));
            });
            let s = b.load(exit, MemRef::global(g, 0));
            b.push(
                exit,
                Inst::Ret {
                    val: Some(s.into()),
                },
            );
        });
        assert_eq!(run(&m, 10_000).unwrap().return_value, Some(4950));
    }

    #[test]
    fn global_initializers_applied() {
        let m = module_with_main(|m, b| {
            let g = m.add_global_init("g", 3, vec![5, 6, 7]);
            let e = b.entry();
            let a = b.load(e, MemRef::global(g, 2));
            b.push(
                e,
                Inst::Ret {
                    val: Some(a.into()),
                },
            );
        });
        assert_eq!(run(&m, 100).unwrap().return_value, Some(7));
    }

    #[test]
    fn calls_pass_args_and_return() {
        let mut m = Module::new("t");
        // fn double(x) = x + x
        let mut fb = FunctionBuilder::new("double", 1);
        let e = fb.entry();
        let x = fb.param(0);
        let r = fb.bin(e, BinOp::Add, x.into(), x.into());
        fb.push(
            e,
            Inst::Ret {
                val: Some(r.into()),
            },
        );
        let double = m.add_function(fb.build());

        let mut mb = FunctionBuilder::new("main", 0);
        let e = mb.entry();
        let live = mb.mov(e, Operand::imm(99));
        let mut call = Inst::Call {
            func: double,
            args: vec![Operand::imm(21)],
            ret: Some(mb.vreg()),
            save_regs: vec![live],
        };
        let ret_reg = match &call {
            Inst::Call { ret: Some(r), .. } => *r,
            _ => unreachable!(),
        };
        if let Inst::Call { ret, .. } = &mut call {
            *ret = Some(ret_reg);
        }
        mb.push(e, call);
        let total = mb.bin(e, BinOp::Add, ret_reg.into(), live.into());
        mb.push(
            e,
            Inst::Ret {
                val: Some(total.into()),
            },
        );
        let main = m.add_function(mb.build());
        m.set_entry(main);

        let out = run(&m, 1000).unwrap();
        assert_eq!(
            out.return_value,
            Some(42 + 99),
            "saved reg survives the call"
        );
    }

    #[test]
    fn recursion_fib() {
        let mut m = Module::new("t");
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
        let mut fb = FunctionBuilder::new("fib", 1);
        let e = fb.entry();
        let base = fb.block();
        let rec = fb.block();
        let n = fb.param(0);
        let c = fb.bin(e, BinOp::CmpLtU, n.into(), Operand::imm(2));
        fb.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: base,
                if_false: rec,
            },
        );
        fb.push(
            base,
            Inst::Ret {
                val: Some(n.into()),
            },
        );
        let n1 = fb.bin(rec, BinOp::Sub, n.into(), Operand::imm(1));
        let n2 = fb.bin(rec, BinOp::Sub, n.into(), Operand::imm(2));
        let r1 = fb.vreg();
        // n2 is live across the first call; r1 across the second.
        fb.push(
            rec,
            Inst::Call {
                func: FuncId(0),
                args: vec![n1.into()],
                ret: Some(r1),
                save_regs: vec![n2],
            },
        );
        let r2 = fb.vreg();
        fb.push(
            rec,
            Inst::Call {
                func: FuncId(0),
                args: vec![n2.into()],
                ret: Some(r2),
                save_regs: vec![r1],
            },
        );
        let s = fb.bin(rec, BinOp::Add, r1.into(), r2.into());
        fb.push(
            rec,
            Inst::Ret {
                val: Some(s.into()),
            },
        );
        let fib = m.add_function(fb.build());
        assert_eq!(fib, FuncId(0));

        let mut mb = FunctionBuilder::new("main", 0);
        let e = mb.entry();
        let r = mb.vreg();
        mb.push(
            e,
            Inst::Call {
                func: fib,
                args: vec![Operand::imm(10)],
                ret: Some(r),
                save_regs: vec![],
            },
        );
        mb.push(
            e,
            Inst::Ret {
                val: Some(r.into()),
            },
        );
        let main = m.add_function(mb.build());
        m.set_entry(main);

        assert_eq!(run(&m, 100_000).unwrap().return_value, Some(55));
    }

    #[test]
    fn atomics_fetch_add_swap_cas() {
        let m = module_with_main(|m, b| {
            let g = m.add_global("g", 1);
            let e = b.entry();
            let a = MemRef::global(g, 0);
            let old1 = b.vreg();
            b.push(
                e,
                Inst::AtomicRmw {
                    op: AtomicOp::FetchAdd,
                    dst: old1,
                    addr: a,
                    src: Operand::imm(5),
                    expected: Operand::imm(0),
                },
            );
            let old2 = b.vreg();
            b.push(
                e,
                Inst::AtomicRmw {
                    op: AtomicOp::Cas,
                    dst: old2,
                    addr: a,
                    src: Operand::imm(100),
                    expected: Operand::imm(5),
                },
            );
            let old3 = b.vreg();
            b.push(
                e,
                Inst::AtomicRmw {
                    op: AtomicOp::Cas,
                    dst: old3,
                    addr: a,
                    src: Operand::imm(999),
                    expected: Operand::imm(5),
                },
            );
            let old4 = b.vreg();
            b.push(
                e,
                Inst::AtomicRmw {
                    op: AtomicOp::Swap,
                    dst: old4,
                    addr: a,
                    src: Operand::imm(1),
                    expected: Operand::imm(0),
                },
            );
            // old1=0, old2=5 (cas hits), old3=100 (cas misses), old4=100
            let s1 = b.bin(e, BinOp::Add, old1.into(), old2.into());
            let s2 = b.bin(e, BinOp::Add, s1.into(), old3.into());
            let s3 = b.bin(e, BinOp::Add, s2.into(), old4.into());
            b.push(
                e,
                Inst::Ret {
                    val: Some(s3.into()),
                },
            );
        });
        assert_eq!(run(&m, 100).unwrap().return_value, Some(205));
    }

    #[test]
    fn boundary_reports_resume_point() {
        let m = module_with_main(|_, b| {
            let e = b.entry();
            b.push(e, Inst::Boundary { id: RegionId(3) });
            b.push(e, Inst::Halt);
        });
        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 0, &mut mem).unwrap();
        let eff = i.step(&mut mem).unwrap();
        assert_eq!(eff.kind, EffectKind::Boundary);
        let b = eff.boundary.unwrap();
        assert_eq!(b.static_region, Some(RegionId(3)));
        assert_eq!(b.resume.idx, 1);
        assert_eq!(b.resume.kind, ResumeKind::Normal);
    }

    #[test]
    fn ckpt_writes_slot() {
        let m = module_with_main(|_, b| {
            let e = b.entry();
            let r = b.mov(e, Operand::imm(77));
            b.push(e, Inst::Ckpt { reg: r });
            b.push(e, Inst::Halt);
        });
        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 2, &mut mem).unwrap();
        i.step(&mut mem).unwrap();
        let eff = i.step(&mut mem).unwrap();
        assert_eq!(eff.kind, EffectKind::Ckpt);
        let (addr, v) = eff.writes[0];
        assert_eq!(v, 77);
        assert_eq!(addr, layout::ckpt_slot_addr(2, Reg(0)));
        assert_eq!(mem.load(addr), 77);
    }

    #[test]
    fn resume_from_normal_boundary_replays_correctly() {
        // main: g0 = 11; boundary; g1 = g0 + r (r set before boundary, live-in)
        let mut m = Module::new("t");
        let g = m.add_global("g", 2);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(5));
        b.store(e, Operand::imm(11), MemRef::global(g, 0));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        let x = b.load(e, MemRef::global(g, 0));
        let y = b.bin(e, BinOp::Add, x.into(), r.into());
        b.store(e, y.into(), MemRef::global(g, 1));
        b.push(
            e,
            Inst::Ret {
                val: Some(y.into()),
            },
        );
        let main = m.add_function(b.build());
        m.set_entry(main);

        // Oracle.
        let oracle = run(&m, 100).unwrap();
        assert_eq!(oracle.return_value, Some(16));

        // Execute until the boundary, capture the resume point, then "crash":
        // rebuild from memory alone and manually restore live-in r (the
        // recovery slice's job), and finish.
        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 0, &mut mem).unwrap();
        let mut resume = None;
        for _ in 0..3 {
            let eff = i.step(&mut mem).unwrap();
            if let Some(bd) = eff.boundary {
                resume = Some(bd.resume);
            }
        }
        let resume = resume.expect("hit boundary");
        let mut r2 = Interp::resume(&m, 0, &mem, resume).unwrap();
        r2.set_reg(r, 5); // recovery slice restores the live-in
        while !r2.is_halted() {
            r2.step(&mut mem).unwrap();
        }
        assert_eq!(r2.return_value(), Some(16));
        assert_eq!(mem.load(m.global_addr(g) + 8), 16);
    }

    #[test]
    fn resume_from_post_call_boundary() {
        // main: live=9; r = id(33); out = r + live
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("id", 1);
        let fe = fb.entry();
        let p = fb.param(0);
        fb.push(
            fe,
            Inst::Ret {
                val: Some(p.into()),
            },
        );
        let id = m.add_function(fb.build());

        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let live = b.mov(e, Operand::imm(9));
        let r = b.vreg();
        b.push(
            e,
            Inst::Call {
                func: id,
                args: vec![Operand::imm(33)],
                ret: Some(r),
                save_regs: vec![live],
            },
        );
        let s = b.bin(e, BinOp::Add, r.into(), live.into());
        b.push(
            e,
            Inst::Ret {
                val: Some(s.into()),
            },
        );
        let main = m.add_function(b.build());
        m.set_entry(main);

        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 0, &mut mem).unwrap();
        let mut post_call = None;
        while post_call.is_none() {
            let eff = i.step(&mut mem).unwrap();
            if let Some(bd) = eff.boundary {
                if bd.resume.kind == ResumeKind::PostCall {
                    post_call = Some(bd.resume);
                }
            }
        }
        let mut r2 = Interp::resume(&m, 0, &mem, post_call.unwrap()).unwrap();
        while !r2.is_halted() {
            r2.step(&mut mem).unwrap();
        }
        assert_eq!(r2.return_value(), Some(42));
    }

    #[test]
    fn resume_inside_callee_walks_frames() {
        // f(x): boundary; store x -> g; ret x     main: r=f(4); ret r+1
        let mut m = Module::new("t");
        let g = m.add_global("g", 1);
        let mut fb = FunctionBuilder::new("f", 1);
        let fe = fb.entry();
        fb.push(fe, Inst::Boundary { id: RegionId(0) });
        let p = fb.param(0);
        fb.store(fe, p.into(), MemRef::global(g, 0));
        fb.push(
            fe,
            Inst::Ret {
                val: Some(p.into()),
            },
        );
        let f = m.add_function(fb.build());

        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.vreg();
        b.push(
            e,
            Inst::Call {
                func: f,
                args: vec![Operand::imm(4)],
                ret: Some(r),
                save_regs: vec![],
            },
        );
        let s = b.bin(e, BinOp::Add, r.into(), Operand::imm(1));
        b.push(
            e,
            Inst::Ret {
                val: Some(s.into()),
            },
        );
        let main = m.add_function(b.build());
        m.set_entry(main);

        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 0, &mut mem).unwrap();
        let mut inner = None;
        while inner.is_none() {
            let eff = i.step(&mut mem).unwrap();
            if let Some(bd) = eff.boundary {
                if bd.static_region == Some(RegionId(0)) {
                    inner = Some(bd.resume);
                }
            }
        }
        let resume = inner.unwrap();
        let mut r2 = Interp::resume(&m, 0, &mem, resume).unwrap();
        // p (live-in of the resumed region) is a parameter; restore it the way
        // the recovery slice would — from the frame's argument slot. Here we
        // emulate with set_reg.
        r2.set_reg(p, 4);
        while !r2.is_halted() {
            r2.step(&mut mem).unwrap();
        }
        assert_eq!(r2.return_value(), Some(5));
        assert_eq!(mem.load(m.global_addr(g)), 4);
    }

    #[test]
    fn func_entry_resume_reloads_params() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("f", 2);
        let fe = fb.entry();
        let s = fb.bin(fe, BinOp::Add, fb.param(0).into(), fb.param(1).into());
        fb.push(
            fe,
            Inst::Ret {
                val: Some(s.into()),
            },
        );
        let f = m.add_function(fb.build());
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r = b.vreg();
        b.push(
            e,
            Inst::Call {
                func: f,
                args: vec![Operand::imm(30), Operand::imm(12)],
                ret: Some(r),
                save_regs: vec![],
            },
        );
        b.push(
            e,
            Inst::Ret {
                val: Some(r.into()),
            },
        );
        let main = m.add_function(b.build());
        m.set_entry(main);

        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 0, &mut mem).unwrap();
        let eff = i.step(&mut mem).unwrap(); // the Call
        let bd = eff.boundary.unwrap();
        assert_eq!(bd.resume.kind, ResumeKind::FuncEntry);
        let mut r2 = Interp::resume(&m, 0, &mem, bd.resume).unwrap();
        while !r2.is_halted() {
            r2.step(&mut mem).unwrap();
        }
        assert_eq!(r2.return_value(), Some(42));
    }

    #[test]
    fn step_after_halt_traps() {
        let m = module_with_main(|_, b| {
            let e = b.entry();
            b.push(e, Inst::Halt);
        });
        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 0, &mut mem).unwrap();
        i.step(&mut mem).unwrap();
        assert!(i.is_halted());
        assert!(matches!(i.step(&mut mem), Err(InterpError::Trap(_))));
    }

    #[test]
    fn step_limit_reported() {
        let m = module_with_main(|_, b| {
            let e = b.entry();
            let l = b.block();
            b.push(e, Inst::Br { target: l });
            b.push(l, Inst::Br { target: l });
        });
        assert!(matches!(run(&m, 50), Err(InterpError::StepLimit(50))));
    }

    #[test]
    fn unaligned_access_traps() {
        let m = module_with_main(|_, b| {
            let e = b.entry();
            let _ = b.load(e, MemRef::abs(3));
            b.push(e, Inst::Halt);
        });
        assert!(matches!(run(&m, 50), Err(InterpError::Trap(_))));
    }

    #[test]
    fn step_into_reuses_buffers_and_clears_state() {
        let m = module_with_main(|m, b| {
            let g = m.add_global("g", 1);
            let e = b.entry();
            b.store(e, Operand::imm(1), MemRef::global(g, 0));
            b.push(e, Inst::Boundary { id: RegionId(0) });
            let v = b.load(e, MemRef::global(g, 0));
            b.push(e, Inst::Out { val: v.into() });
            b.push(e, Inst::Halt);
        });
        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 0, &mut mem).unwrap();
        let mut eff = StepEffect::default();
        i.step_into(&mut mem, &mut eff).unwrap(); // store
        assert_eq!(eff.writes.len(), 1);
        i.step_into(&mut mem, &mut eff).unwrap(); // boundary
        assert!(eff.writes.is_empty(), "buffer cleared between steps");
        assert!(eff.boundary.is_some());
        i.step_into(&mut mem, &mut eff).unwrap(); // load
        assert_eq!(eff.kind, EffectKind::Load);
        assert!(eff.boundary.is_none(), "boundary cleared between steps");
        i.step_into(&mut mem, &mut eff).unwrap(); // out
        assert_eq!(eff.out, Some(1));
        i.step_into(&mut mem, &mut eff).unwrap(); // halt
        assert_eq!(eff.out, None, "out cleared between steps");
        assert!(i.is_halted());
    }

    #[test]
    fn op_counts_track_instruction_mix() {
        use crate::decoded::OPCODE_NAMES;
        let m = module_with_main(|m, b| {
            let g = m.add_global("g", 1);
            let e = b.entry();
            let v = b.load(e, MemRef::global(g, 0));
            b.store(e, v.into(), MemRef::global(g, 0));
            b.push(e, Inst::Halt);
        });
        let mut mem = Memory::new();
        let mut i = Interp::new(&m, 0, &mut mem).unwrap();
        while !i.is_halted() {
            i.step(&mut mem).unwrap();
        }
        let counts = i.op_counts();
        let by_name = |n: &str| counts[OPCODE_NAMES.iter().position(|x| *x == n).unwrap()];
        assert_eq!(by_name("load"), 1);
        assert_eq!(by_name("store"), 1);
        assert_eq!(by_name("halt"), 1);
        assert_eq!(counts.iter().sum::<u64>(), i.steps());
    }
}
