//! The tree-walking reference interpreter (executable specification).
//!
//! This is the original `Interp` implementation, kept when the execution core
//! moved to the pre-decoded micro-op stream in [`crate::interp`]. It walks the
//! `Module` tree directly, borrowing each [`Inst`] from the module at fetch
//! and matching on it in a single [`RefInterp::step_into`] body, so it stays
//! obviously faithful to the instruction semantics documented on [`Inst`].
//! [`RefInterp::step_into`] fills a caller-owned [`StepEffect`], so a stepping
//! loop that reuses one buffer allocates only a callee's register file.
//!
//! Its consumers are the differential test suites, which run [`RefInterp`]
//! and [`crate::interp::Interp`] in lockstep and assert that every
//! [`StepEffect`], trap message, resume point, and final memory is identical,
//! and the independent oracle [`run_ref`], which the fuzz farm and the
//! benchmark use to check every simulated run's return value and output.
//! The simulator and the oracle [`crate::interp::run`] use the decoded core.

use crate::function::{BlockId, InstIdx};
use crate::inst::{AtomicOp, Inst, MemRef, Operand};
use crate::interp::{
    frame, BoundaryInfo, EffectKind, InterpError, Outcome, ResumeKind, ResumePoint, StepEffect,
};
use crate::layout;
use crate::memory::Memory;
use crate::module::{FuncId, Module};
use crate::types::{Reg, Word};

/// One activation record (the volatile register file; the persistent twin
/// lives in stack memory).
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    block: BlockId,
    idx: InstIdx,
    regs: Vec<Word>,
    frame_base: Word,
    sp: Word,
}

/// The tree-walking stepping interpreter (specification twin of
/// [`crate::interp::Interp`]).
pub struct RefInterp<'m> {
    module: &'m Module,
    frames: Vec<Frame>,
    core: usize,
    halted: bool,
    return_value: Option<Word>,
    steps: u64,
}
impl<'m> RefInterp<'m> {
    /// Create an interpreter for `module` on `core`, with global initializers
    /// applied to a fresh memory.
    ///
    /// # Errors
    /// [`InterpError::NoEntry`] if the module has no entry function.
    pub fn new(module: &'m Module, core: usize, mem: &mut Memory) -> Result<Self, InterpError> {
        for g in module.globals() {
            for (i, &v) in g.init.iter().enumerate() {
                mem.store(g.addr + i as Word * 8, v);
            }
        }
        Self::with_memory(module, core, mem)
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

    /// Like [`RefInterp::with_memory`], but passes `args` to the entry function
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
        let entry = module.entry().ok_or(InterpError::NoEntry)?;
        let f = module.function(entry);
        let nargs = args.len().min(f.param_count as usize) as u64;
        let top = layout::stack_top(core);
        let size = frame::size_words(0, nargs) * 8;
        let base = top - size;
        let mut interp = RefInterp {
            module,
            frames: Vec::new(),
            core,
            halted: false,
            return_value: None,
            steps: 0,
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
        interp.frames.push(Frame {
            func: entry,
            block: f.entry(),
            idx: 0,
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
        let mut interp = RefInterp {
            module,
            frames: Vec::new(),
            core,
            halted: false,
            return_value: None,
            steps: 0,
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
            interp.frames.push(Frame {
                func,
                block,
                idx,
                regs: vec![0; reg_count],
                frame_base: outer_base,
                sp,
            });
        }
        // Innermost frame: the resumed region's frame.
        let func = module.function(resume.func);
        let mut frame = Frame {
            func: resume.func,
            block: resume.block,
            idx: resume.idx,
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
        interp.frames.push(frame);
        Ok(interp)
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

    fn eval(&self, op: Operand) -> Word {
        match op {
            Operand::Reg(r) => self.frames.last().expect("no frame").regs[r.index()],
            Operand::Imm(v) => v,
        }
    }

    fn addr_of(&self, m: &MemRef) -> Result<Word, InterpError> {
        let base = self.module.resolve_addr(self.eval(m.base));
        let addr = base.wrapping_add(m.offset as Word);
        if !addr.is_multiple_of(8) {
            return Err(InterpError::Trap(format!("unaligned access at {addr:#x}")));
        }
        Ok(addr)
    }

    fn set(&mut self, r: Reg, v: Word) {
        self.frames.last_mut().expect("no frame").regs[r.index()] = v;
    }

    /// Execute one instruction, returning a freshly allocated effect.
    ///
    /// Convenience wrapper over [`RefInterp::step_into`]; stepping loops
    /// should prefer `step_into` with a reused buffer.
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
    /// (cleared first; its buffers keep their capacity). The instruction is
    /// borrowed from the module, so the only allocation left on the step
    /// path is a callee's register file.
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
        let module = self.module;
        let frame = self.frames.last().expect("no frame");
        let func = module.function(frame.func);
        let block = func.block(frame.block);
        let Some(inst) = block.insts.get(frame.idx) else {
            return Err(InterpError::Trap(format!(
                "fell off block {} in {}",
                frame.block, func.name
            )));
        };
        self.steps += 1;

        let mut advanced = false;
        match inst {
            Inst::Binary { op, dst, lhs, rhs } => {
                let v = op.eval(self.eval(*lhs), self.eval(*rhs));
                self.set(*dst, v);
            }
            Inst::Mov { dst, src } => {
                let v = self.eval(*src);
                self.set(*dst, v);
            }
            Inst::Load { dst, addr } => {
                eff.kind = EffectKind::Load;
                let a = self.addr_of(addr)?;
                let v = mem.load(a);
                eff.reads.push(a);
                self.set(*dst, v);
            }
            Inst::Store { src, addr } => {
                eff.kind = EffectKind::Store;
                let a = self.addr_of(addr)?;
                let v = self.eval(*src);
                mem.store(a, v);
                eff.writes.push((a, v));
            }
            Inst::Br { target } => {
                let fr = self.frames.last_mut().expect("no frame");
                fr.block = *target;
                fr.idx = 0;
                advanced = true;
            }
            Inst::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                let t = self.eval(*cond) != 0;
                let fr = self.frames.last_mut().expect("no frame");
                fr.block = if t { *if_true } else { *if_false };
                fr.idx = 0;
                advanced = true;
            }
            Inst::Call {
                func: callee,
                args,
                ret: _,
                save_regs,
            } => {
                eff.kind = EffectKind::Call;
                if callee.index() >= self.module.function_count() {
                    return Err(InterpError::Trap(format!("call to unknown {callee}")));
                }
                if self.frames.len() >= 4096 {
                    return Err(InterpError::Trap("call stack overflow".into()));
                }
                let callee_fn = module.function(*callee);
                if args.len() < callee_fn.param_count as usize {
                    return Err(InterpError::Trap(format!(
                        "call to {} with {} args, needs {}",
                        callee_fn.name,
                        args.len(),
                        callee_fn.param_count
                    )));
                }
                let fr = self.frames.last().expect("no frame");
                let (cur_func, cur_block, cur_idx, cur_base, cur_sp) =
                    (fr.func, fr.block, fr.idx, fr.frame_base, fr.sp);
                let nsave = save_regs.len() as u64;
                let nargs = args.len() as u64;
                let size = frame::size_words(nsave, nargs) * 8;
                let base = cur_sp - size;
                // Spill phase: frame record + saves + args, all real stores.
                let mut w = |mem: &mut Memory, off: u64, v: Word| {
                    mem.store(base + off * 8, v);
                    eff.writes.push((base + off * 8, v));
                };
                w(mem, frame::PREV_BASE, cur_base);
                w(mem, frame::CALLER_FUNC, cur_func.0 as Word);
                w(mem, frame::CALLER_BLOCK, cur_block.0 as Word);
                w(mem, frame::CALLER_IDX, cur_idx as Word);
                w(mem, frame::CALLER_SP, cur_sp);
                w(mem, frame::NSAVE, nsave);
                w(mem, frame::NARGS, nargs);
                for (i, r) in save_regs.iter().enumerate() {
                    w(mem, frame::SAVES + i as u64, self.reg(*r));
                }
                // Parameters arrive in the callee's registers; the memory copy
                // exists for recovery. Operands read registers only, so
                // evaluating each argument as it is spilled is the same as
                // evaluating them all first.
                let mut regs = vec![0; callee_fn.reg_count as usize];
                for (i, a) in args.iter().enumerate() {
                    let v = self.eval(*a);
                    w(mem, frame::SAVES + nsave + i as u64, v);
                    if i < callee_fn.param_count as usize {
                        regs[i] = v;
                    }
                }
                self.frames.push(Frame {
                    func: *callee,
                    block: callee_fn.entry(),
                    idx: 0,
                    regs,
                    frame_base: base,
                    sp: base,
                });
                advanced = true;
                eff.boundary = Some(BoundaryInfo {
                    static_region: None,
                    resume: self.here(ResumeKind::FuncEntry),
                });
            }
            Inst::Ret { val } => {
                eff.kind = EffectKind::Ret;
                let v = val.map(|v| self.eval(v)).unwrap_or(0);
                let callee = self.frames.pop().expect("no frame");
                if self.frames.is_empty() {
                    self.halted = true;
                    self.return_value = Some(v);
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
                let caller = self.frames.last().expect("no frame");
                let call_inst = &module.function(caller.func).block(caller.block).insts[caller.idx];
                let Inst::Call { ret, save_regs, .. } = call_inst else {
                    return Err(InterpError::Trap("return to a non-call site".into()));
                };
                for (i, r) in save_regs.iter().enumerate() {
                    let a = callee.frame_base + (frame::SAVES + i as u64) * 8;
                    let sv = mem.load(a);
                    eff.reads.push(a);
                    self.set(*r, sv);
                }
                if let Some(r) = ret {
                    eff.reads.push(rv_addr);
                    self.set(*r, v);
                }
                let fr = self.frames.last_mut().expect("no frame");
                fr.idx += 1; // step past the Call
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
            Inst::AtomicRmw {
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
                let s = self.eval(*src);
                let e = self.eval(*expected);
                let new = match op {
                    AtomicOp::FetchAdd => Some(old.wrapping_add(s)),
                    AtomicOp::Swap => Some(s),
                    AtomicOp::Cas => (old == e).then_some(s),
                };
                if let Some(n) = new {
                    mem.store(a, n);
                    eff.writes.push((a, n));
                }
                self.set(*dst, old);
            }
            Inst::Fence => {
                eff.kind = EffectKind::Fence;
            }
            Inst::Boundary { id } => {
                eff.kind = EffectKind::Boundary;
                let fr = self.frames.last_mut().expect("no frame");
                fr.idx += 1;
                advanced = true;
                eff.boundary = Some(BoundaryInfo {
                    static_region: Some(*id),
                    resume: self.here(ResumeKind::Normal),
                });
            }
            Inst::Ckpt { reg } => {
                eff.kind = EffectKind::Ckpt;
                let a = layout::ckpt_slot_addr(self.core, *reg);
                let v = self.reg(*reg);
                mem.store(a, v);
                eff.writes.push((a, v));
            }
            Inst::Out { val } => {
                eff.kind = EffectKind::Out;
                eff.out = Some(self.eval(*val));
            }
            Inst::FlushLine { addr } => {
                eff.kind = EffectKind::Flush;
                let a = self.addr_of(addr)?;
                eff.reads.push(a);
            }
            Inst::PFence => {
                eff.kind = EffectKind::PFence;
            }
            Inst::Halt => {
                eff.kind = EffectKind::Halt;
                self.halted = true;
                return Ok(());
            }
        }
        if !advanced {
            self.frames.last_mut().expect("no frame").idx += 1;
        }
        Ok(())
    }
}

/// Run `module` to completion with the reference interpreter (the
/// tree-walking twin of [`crate::interp::run`]).
///
/// # Errors
/// Propagates traps; returns [`InterpError::StepLimit`] if the program does
/// not halt within `max_steps`.
pub fn run_ref(module: &Module, max_steps: u64) -> Result<Outcome, InterpError> {
    let mut mem = Memory::new();
    let mut interp = RefInterp::new(module, 0, &mut mem)?;
    let mut output = Vec::new();
    let mut eff = StepEffect::default();
    while !interp.is_halted() {
        if interp.steps() >= max_steps {
            return Err(InterpError::StepLimit(max_steps));
        }
        interp.step_into(&mut mem, &mut eff)?;
        if let Some(v) = eff.out {
            output.push(v);
        }
    }
    Ok(Outcome {
        return_value: interp.return_value(),
        steps: interp.steps(),
        memory: mem,
        output,
    })
}
