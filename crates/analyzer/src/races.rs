//! Static data-race detection (`R`) and persist-order / stale-read safety
//! (`I5`) across core entry functions.
//!
//! The machine starts every core on the module entry with the core index as
//! the first argument, so thread contexts are *concrete*: the detector
//! re-analyzes the entry once per core with `param0 = tid` folded in. Each
//! context's memory accesses are collected under an interval abstract
//! domain (`tid`-scaled partition arithmetic folds to disjoint ranges;
//! branch refinement on `CmpLtU`/`CmpEq` bounds loop counters and prunes
//! infeasible tid-dispatch edges), together with:
//!
//! * an Eraser-style **must-lockset**: `Cas(lock, 0 → 1)` spin acquire /
//!   `Swap(lock, 0)` release over constant lock words, intersected at joins;
//! * a **happens-before** order for message passing: an atomic spin-wait on
//!   a flag word (the classic self-looping acquire block) orders everything
//!   after the spin exit behind everything the releasing thread did before
//!   an atomic on that flag that *postdominates* the write (and cannot loop
//!   back to it) — reader-side `acquired` sets and writer-side
//!   `released-via` sets.
//!
//! Two accesses from different contexts race when they conflict (overlap,
//! at least one write), are not both atomic, share no lock, and no
//! acquire/release pairing orders them. Races render as two-thread
//! interleaving witnesses through [`crate::diag`].
//!
//! **I5** mirrors the memory controller's stale-read-avoidance rule: in
//! region-annotated code, a store to a word another core may access must
//! not reach a synchronization point (atomic/fence — the moment the value
//! is published) while its region is still open; a boundary must intervene
//! so the escaping value is never observable from a revertible region.
//!
//! Soundness direction (the differential suite's contract): static-clean ⇒
//! no dynamic race under any schedule. The analysis over-approximates —
//! unresolved addresses conflict with everything — and under-approximates
//! only the *exemptions*, never the accesses.

use crate::callgraph::CallGraph;
use crate::consts::{CVal, ConstProp};
use crate::diag::{Diagnostic, Invariant, Location, PathWitness, Severity, WitnessStep};
use crate::summaries::Summaries;
use cwsp_ir::cfg::{self, PostDomTree};
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::{AtomicOp, BinOp, Inst, MemRef, Operand};
use cwsp_ir::layout;
use cwsp_ir::module::{FuncId, Module};
use cwsp_ir::pretty::fmt_inst;
use cwsp_ir::types::Word;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Resolve the address of `m` at `(b, idx)` to a constant if possible
/// (shared with the summary pass; mirrors the lint engine's resolver).
pub fn resolve_addr(
    module: &Module,
    consts: &ConstProp,
    f: &Function,
    b: BlockId,
    idx: usize,
    m: &MemRef,
) -> Option<Word> {
    let base = match m.base {
        Operand::Imm(v) => module.resolve_addr(v),
        Operand::Reg(r) => match consts.value_before(f, b, idx, r)? {
            CVal::Const(c) => module.resolve_addr(c),
            CVal::Unknown => return None,
        },
    };
    Some(base.wrapping_add(m.offset as Word))
}

// --------------------------------------------------------------------------
// Abstract domain: unsigned intervals with a Sym (unknown) top.
// --------------------------------------------------------------------------

/// Abstract register value: a closed unsigned interval, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RVal {
    /// All values in `lo..=hi`.
    Iv(Word, Word),
    /// Not statically bounded.
    Sym,
}

impl RVal {
    fn cst(v: Word) -> RVal {
        RVal::Iv(v, v)
    }

    fn as_const(self) -> Option<Word> {
        match self {
            RVal::Iv(a, b) if a == b => Some(a),
            _ => None,
        }
    }

    fn join(self, other: RVal) -> RVal {
        match (self, other) {
            (RVal::Iv(a, b), RVal::Iv(c, d)) => RVal::Iv(a.min(c), b.max(d)),
            _ => RVal::Sym,
        }
    }

    /// Intersect with `lo..=hi`; `None` when empty (infeasible edge).
    fn meet_range(self, lo: Word, hi: Word) -> Option<RVal> {
        match self {
            RVal::Iv(a, b) => {
                let (l, h) = (a.max(lo), b.min(hi));
                (l <= h).then_some(RVal::Iv(l, h))
            }
            RVal::Sym => Some(RVal::Iv(lo, hi)),
        }
    }
}

fn eval_bin(op: BinOp, a: RVal, b: RVal) -> RVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return RVal::cst(op.eval(x, y));
    }
    // Comparison results are 0/1 even when the inputs are unknown.
    let cmp_result = |exact: Option<Word>| exact.map(RVal::cst).unwrap_or(RVal::Iv(0, 1));
    let (RVal::Iv(al, ah), RVal::Iv(bl, bh)) = (a, b) else {
        return match op {
            BinOp::CmpEq | BinOp::CmpNe | BinOp::CmpLtU | BinOp::CmpLtS => RVal::Iv(0, 1),
            _ => RVal::Sym,
        };
    };
    match op {
        BinOp::Add => match (al.checked_add(bl), ah.checked_add(bh)) {
            (Some(l), Some(h)) => RVal::Iv(l, h),
            _ => RVal::Sym,
        },
        BinOp::Sub => {
            if al >= bh && ah >= bl {
                RVal::Iv(al - bh, ah - bl)
            } else {
                RVal::Sym
            }
        }
        BinOp::Mul => match (al.checked_mul(bl), ah.checked_mul(bh)) {
            (Some(l), Some(h)) => RVal::Iv(l, h),
            _ => RVal::Sym,
        },
        BinOp::Shl => match b.as_const() {
            Some(k) if k < 64 && (k == 0 || ah >> (64 - k) == 0) => RVal::Iv(al << k, ah << k),
            _ => RVal::Sym,
        },
        BinOp::ShrL => match b.as_const() {
            Some(k) if k < 64 => RVal::Iv(al >> k, ah >> k),
            _ => RVal::Sym,
        },
        BinOp::DivU => match b.as_const() {
            Some(n) if n > 0 => RVal::Iv(al / n, ah / n),
            _ => RVal::Sym,
        },
        BinOp::RemU => match b.as_const() {
            Some(n) if n > 0 => {
                if ah < n {
                    RVal::Iv(al, ah)
                } else {
                    RVal::Iv(0, n - 1)
                }
            }
            _ => RVal::Sym,
        },
        BinOp::MinU => RVal::Iv(al.min(bl), ah.min(bh)),
        BinOp::MaxU => RVal::Iv(al.max(bl), ah.max(bh)),
        BinOp::CmpEq => cmp_result((ah < bl || bh < al).then_some(0)),
        BinOp::CmpNe => cmp_result((ah < bl || bh < al).then_some(1)),
        BinOp::CmpLtU => cmp_result(if ah < bl {
            Some(1)
        } else if al >= bh {
            Some(0)
        } else {
            None
        }),
        BinOp::CmpLtS => RVal::Iv(0, 1),
        _ => RVal::Sym,
    }
}

fn eval_operand(module: &Module, regs: &[RVal], op: Operand) -> RVal {
    match op {
        Operand::Imm(v) => RVal::cst(module.resolve_addr(v)),
        Operand::Reg(r) => regs.get(r.index()).copied().unwrap_or(RVal::Sym),
    }
}

fn eval_addr(module: &Module, regs: &[RVal], m: &MemRef) -> RVal {
    match eval_operand(module, regs, m.base) {
        RVal::Iv(lo, hi) => match (
            lo.checked_add_signed(m.offset),
            hi.checked_add_signed(m.offset),
        ) {
            (Some(l), Some(h)) if l <= h => RVal::Iv(l, h),
            _ => RVal::Sym,
        },
        RVal::Sym => RVal::Sym,
    }
}

// --------------------------------------------------------------------------
// Per-block abstract state: registers + must-lockset + must-acquired flags.
// --------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    regs: Vec<RVal>,
    /// Locks provably held (must-set; intersected at joins).
    locks: BTreeSet<Word>,
    /// Flag words provably acquire-waited-on (must-set; intersected).
    acq: BTreeSet<Word>,
}

impl AbsState {
    /// Join `other` into `self`; returns whether anything changed.
    /// Past `widen`, any register still changing jumps straight to `Sym`.
    fn join_from(&mut self, other: &AbsState, widen: bool) -> bool {
        let mut changed = false;
        for (c, n) in self.regs.iter_mut().zip(&other.regs) {
            let j = c.join(*n);
            if j != *c {
                *c = if widen { RVal::Sym } else { j };
                changed = true;
            }
        }
        let li = |a: &BTreeSet<Word>, b: &BTreeSet<Word>| -> BTreeSet<Word> {
            a.intersection(b).copied().collect()
        };
        let nl = li(&self.locks, &other.locks);
        if nl != self.locks {
            self.locks = nl;
            changed = true;
        }
        let na = li(&self.acq, &other.acq);
        if na != self.acq {
            self.acq = na;
            changed = true;
        }
        changed
    }
}

/// Transfer one instruction. Call effects (clobbered regs, lock kills via
/// callee sync summaries) are conservative; the collector descends
/// separately to record callee accesses.
fn transfer(module: &Module, sums: &Summaries, st: &mut AbsState, inst: &Inst) {
    let set = |st: &mut AbsState, r: cwsp_ir::types::Reg, v: RVal| {
        if let Some(slot) = st.regs.get_mut(r.index()) {
            *slot = v;
        }
    };
    match inst {
        Inst::Mov { dst, src } => {
            let v = eval_operand(module, &st.regs, *src);
            set(st, *dst, v);
        }
        Inst::Binary { op, dst, lhs, rhs } => {
            let v = eval_bin(
                *op,
                eval_operand(module, &st.regs, *lhs),
                eval_operand(module, &st.regs, *rhs),
            );
            set(st, *dst, v);
        }
        Inst::Load { dst, .. } => set(st, *dst, RVal::Sym),
        Inst::AtomicRmw {
            op, dst, addr, src, ..
        } => {
            // Swap(lock, 0) is the canonical release: drop the lock.
            if *op == AtomicOp::Swap && matches!(src, Operand::Imm(0)) {
                if let Some(a) = eval_addr(module, &st.regs, addr).as_const() {
                    st.locks.remove(&a);
                }
            }
            set(st, *dst, RVal::Sym);
        }
        Inst::Call {
            func,
            ret,
            save_regs,
            ..
        } => {
            // The callee may release locks it synchronizes on.
            let cs = sums.get(*func);
            for a in &cs.sync_addrs {
                st.locks.remove(a);
            }
            if cs.sync_unknown {
                st.locks.clear();
            }
            if let Some(r) = ret {
                set(st, *r, RVal::Sym);
            }
            for r in save_regs {
                set(st, *r, RVal::Sym);
            }
        }
        _ => {}
    }
}

/// Per-edge refinement of the block out-state. Returns `None` when the
/// edge is statically infeasible under the current context.
#[allow(clippy::too_many_arguments)]
fn refine_edge(
    module: &Module,
    f: &Function,
    b: BlockId,
    out: &AbsState,
    cond: Operand,
    taken: bool,
    self_loop_other_edge: Option<Word>,
) -> Option<AbsState> {
    let mut st = out.clone();
    // Spin-block acquire: the non-self edge of a self-looping block that
    // atomically polls a constant flag word acquires that flag.
    if let Some(flag) = self_loop_other_edge {
        st.acq.insert(flag);
    }
    match eval_operand(module, &st.regs, cond) {
        RVal::Iv(0, 0) if taken => return None,
        RVal::Iv(lo, _) if lo >= 1 && !taken => return None,
        _ => {}
    }
    let Operand::Reg(c) = cond else {
        return Some(st);
    };
    // Find the last definition of the condition register in this block.
    let insts = &f.block(b).insts;
    let def = insts.iter().enumerate().rev().find(|(_, i)| defines(i, c));
    let Some((di, dinst)) = def else {
        return Some(st);
    };
    match dinst {
        Inst::Binary {
            op,
            lhs: Operand::Reg(x),
            rhs,
            ..
        } => {
            // Only refine when `x` is not redefined after the compare.
            if insts[di + 1..].iter().any(|i| defines(i, *x)) {
                return Some(st);
            }
            let Some(k) = eval_operand(module, &st.regs, *rhs).as_const() else {
                return Some(st);
            };
            let xv = st.regs.get(x.index()).copied().unwrap_or(RVal::Sym);
            let refined = match (op, taken) {
                (BinOp::CmpLtU, true) if k > 0 => xv.meet_range(0, k - 1),
                (BinOp::CmpLtU, true) => None, // x < 0 is unsatisfiable
                (BinOp::CmpLtU, false) => xv.meet_range(k, Word::MAX),
                (BinOp::CmpEq, true) => xv.meet_range(k, k),
                (BinOp::CmpNe, false) => xv.meet_range(k, k),
                _ => Some(xv),
            };
            match refined {
                Some(v) => {
                    if let Some(slot) = st.regs.get_mut(x.index()) {
                        *slot = v;
                    }
                }
                None => return None,
            }
        }
        Inst::AtomicRmw {
            op: AtomicOp::Cas,
            addr,
            src: Operand::Imm(1),
            expected: Operand::Imm(0),
            ..
        } if !taken => {
            // CAS returns the old value: 0 (falsy) means the lock was free
            // and is now ours.
            if let Some(a) = eval_addr(module, &st.regs, addr).as_const() {
                st.locks.insert(a);
            }
        }
        _ => {}
    }
    Some(st)
}

/// Whether `inst` writes register `r`.
fn defines(inst: &Inst, r: cwsp_ir::types::Reg) -> bool {
    cwsp_compiler::liveness::defs(inst).any(|d| d == r)
}

/// The self-loop acquire pattern: a `CondBr` block with one successor equal
/// to itself that contains an atomic on a constant address. Returns that
/// address, to be acquired on the *other* edge.
fn spin_flag(module: &Module, regs: &[RVal], f: &Function, b: BlockId) -> Option<Word> {
    let insts = &f.block(b).insts;
    let Some(Inst::CondBr {
        if_true, if_false, ..
    }) = insts.last()
    else {
        return None;
    };
    if (*if_true == b) == (*if_false == b) {
        return None; // not a self-loop (or a degenerate both-self loop)
    }
    insts.iter().rev().find_map(|i| match i {
        Inst::AtomicRmw { addr, .. } => eval_addr(module, regs, addr).as_const(),
        _ => None,
    })
}

const WIDEN_AFTER: u32 = 6;
const MAX_PASSES: u32 = 200;

/// Run the abstract interpretation to fixpoint; returns block-entry states
/// (`None` = unreachable under this context).
fn block_states(
    module: &Module,
    sums: &Summaries,
    f: &Function,
    entry_state: AbsState,
) -> Vec<Option<AbsState>> {
    let n = f.blocks.len();
    let mut states: Vec<Option<AbsState>> = vec![None; n];
    states[f.entry().index()] = Some(entry_state);
    let rpo = cfg::reverse_post_order(f);
    let mut joins = vec![0u32; n];
    for _pass in 0..MAX_PASSES {
        let mut changed = false;
        for &b in &rpo {
            let Some(st) = states[b.index()].clone() else {
                continue;
            };
            let mut out = st;
            for inst in &f.block(b).insts {
                transfer(module, sums, &mut out, inst);
            }
            let mut push = |succ: BlockId, ns: Option<AbsState>, changed: &mut bool| {
                let Some(ns) = ns else { return };
                match &mut states[succ.index()] {
                    cur @ None => {
                        *cur = Some(ns);
                        *changed = true;
                    }
                    Some(cur) => {
                        joins[succ.index()] += 1;
                        if cur.join_from(&ns, joins[succ.index()] > WIDEN_AFTER) {
                            *changed = true;
                        }
                    }
                }
            };
            match f.block(b).insts.last() {
                Some(Inst::Br { target }) => push(*target, Some(out), &mut changed),
                Some(Inst::CondBr {
                    cond,
                    if_true,
                    if_false,
                }) => {
                    let flag = spin_flag(module, &out.regs, f, b);
                    let t_extra = (*if_false == b).then_some(flag).flatten();
                    let f_extra = (*if_true == b).then_some(flag).flatten();
                    let ts = refine_edge(module, f, b, &out, *cond, true, t_extra);
                    let fs = refine_edge(module, f, b, &out, *cond, false, f_extra);
                    push(*if_true, ts, &mut changed);
                    push(*if_false, fs, &mut changed);
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    states
}

// --------------------------------------------------------------------------
// Access collection.
// --------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccKind {
    Read,
    Write,
    Atomic,
}

#[derive(Debug, Clone)]
struct Access {
    tid: u64,
    kind: AccKind,
    lo: Word,
    hi: Word,
    sym: bool,
    func: String,
    block: u32,
    idx: usize,
    locks: BTreeSet<Word>,
    acq: BTreeSet<Word>,
    /// Constant flag words whose releasing atomic postdominates this access
    /// (writer-side happens-before tags; writes only).
    rel: BTreeSet<Word>,
    note: String,
    path: Vec<WitnessStep>,
}

impl Access {
    fn is_write(&self) -> bool {
        matches!(self.kind, AccKind::Write | AccKind::Atomic)
    }

    fn overlaps(&self, other: &Access) -> bool {
        if self.sym || other.sym {
            return true;
        }
        self.lo <= other.hi && other.lo <= self.hi
    }
}

#[derive(Debug, Clone)]
struct I5Cand {
    tid: u64,
    lo: Word,
    hi: Word,
    func: String,
    block: u32,
    idx: usize,
    region: Option<u32>,
    path: Vec<WitnessStep>,
}

/// Options for [`check_concurrency`].
#[derive(Debug, Clone)]
pub struct RaceOptions {
    /// Thread contexts to instantiate (`tid = 0..cores`).
    pub cores: usize,
    /// Maximum call-descent depth before falling back to summaries.
    pub max_call_depth: usize,
}

impl Default for RaceOptions {
    fn default() -> Self {
        RaceOptions {
            cores: 2,
            max_call_depth: 8,
        }
    }
}

/// Aggregate statistics of one concurrency analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceStats {
    /// Thread contexts analyzed.
    pub contexts: usize,
    /// Memory accesses collected across all contexts.
    pub accesses: usize,
    /// Cross-thread access pairs conflict-checked.
    pub pairs_checked: u64,
    /// Race diagnostics emitted (post-dedup count may be lower).
    pub races: usize,
    /// I5 open-escape diagnostics emitted.
    pub i5_escapes: usize,
}

/// The result of [`check_concurrency`].
#[derive(Debug, Clone, Default)]
pub struct RaceAnalysis {
    /// Race and persist-order findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Aggregate statistics.
    pub stats: RaceStats,
}

/// Cap on emitted race diagnostics per module (pairing is quadratic; a
/// thoroughly racy module does not need thousands of repeats).
const MAX_RACE_DIAGS: usize = 64;

/// Memo key for a collected call: (callee, const args, locks held, flags
/// acquired) — an identical context contributes identical accesses.
type CallKey = (usize, Vec<Word>, Vec<Word>, Vec<Word>);

struct Collector<'m> {
    module: &'m Module,
    cg: &'m CallGraph,
    sums: &'m Summaries,
    tid: u64,
    max_depth: usize,
    accesses: Vec<Access>,
    i5: Vec<I5Cand>,
    seen_calls: HashSet<CallKey>,
    bfs_parents: HashMap<usize, Vec<Option<BlockId>>>,
    pdoms: HashMap<usize, PostDomTree>,
    reach: HashMap<usize, Vec<HashSet<u32>>>,
}

impl<'m> Collector<'m> {
    /// Shortest block path entry → `target`, as witness steps covering the
    /// synchronization-relevant instructions along the way.
    fn path_to(
        &mut self,
        fid: FuncId,
        f: &Function,
        target: BlockId,
        upto: usize,
    ) -> Vec<WitnessStep> {
        let parents = self.bfs_parents.entry(fid.index()).or_insert_with(|| {
            let mut par: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
            let mut seen = vec![false; f.blocks.len()];
            let mut q = VecDeque::new();
            seen[f.entry().index()] = true;
            q.push_back(f.entry());
            while let Some(b) = q.pop_front() {
                for s in cfg::successors(f, b) {
                    if !seen[s.index()] {
                        seen[s.index()] = true;
                        par[s.index()] = Some(b);
                        q.push_back(s);
                    }
                }
            }
            par
        });
        let mut blocks = vec![target];
        let mut cur = target;
        while cur != f.entry() {
            match parents[cur.index()] {
                Some(p) => {
                    blocks.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        blocks.reverse();
        let mut steps = Vec::new();
        for &b in &blocks {
            let limit = if b == target {
                upto
            } else {
                f.block(b).insts.len()
            };
            for (i, inst) in f.block(b).insts.iter().enumerate().take(limit) {
                if matches!(
                    inst,
                    Inst::AtomicRmw { .. } | Inst::Fence | Inst::Boundary { .. }
                ) {
                    steps.push(WitnessStep {
                        block: b.0,
                        idx: i,
                        note: fmt_inst(inst),
                    });
                }
            }
        }
        steps
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        mine: &mut Vec<Access>,
        fid: FuncId,
        f: &Function,
        st: &AbsState,
        kind: AccKind,
        addr: RVal,
        b: BlockId,
        i: usize,
        inst: &Inst,
    ) {
        let (lo, hi, sym) = match addr {
            RVal::Iv(l, h) => (l, h, false),
            RVal::Sym => (layout::GLOBAL_BASE, layout::STACK_REGION_BASE - 1, true),
        };
        // Per-core state (stacks, checkpoint slots, metadata) cannot race;
        // only the shared program-data window matters.
        if !sym && (hi < layout::GLOBAL_BASE || lo >= layout::STACK_REGION_BASE) {
            return;
        }
        let mut path = self.path_to(fid, f, b, i);
        path.push(WitnessStep {
            block: b.0,
            idx: i,
            note: fmt_inst(inst),
        });
        mine.push(Access {
            tid: self.tid,
            kind,
            lo: lo.max(layout::GLOBAL_BASE),
            hi: hi.min(layout::STACK_REGION_BASE - 1),
            sym,
            func: f.name.clone(),
            block: b.0,
            idx: i,
            locks: st.locks.clone(),
            acq: st.acq.clone(),
            rel: BTreeSet::new(),
            note: fmt_inst(inst),
            path,
        });
    }

    fn collect_function(&mut self, fid: FuncId, entry: AbsState, depth: usize) {
        if fid.index() >= self.module.function_count() {
            return;
        }
        let f = self.module.function(fid);
        if f.validate().is_err() {
            return;
        }
        let states = block_states(self.module, self.sums, f, entry);
        let mut mine: Vec<Access> = Vec::new();
        // Constant-address atomic sites of this instance (release candidates).
        let mut atomics: Vec<(BlockId, usize, Word)> = Vec::new();

        for (b, block) in f.iter_blocks() {
            let Some(mut st) = states[b.index()].clone() else {
                continue;
            };
            for (i, inst) in block.insts.iter().enumerate() {
                match inst {
                    Inst::Load { addr, .. } => {
                        let a = eval_addr(self.module, &st.regs, addr);
                        self.record(&mut mine, fid, f, &st, AccKind::Read, a, b, i, inst);
                    }
                    Inst::Store { addr, .. } => {
                        let a = eval_addr(self.module, &st.regs, addr);
                        self.record(&mut mine, fid, f, &st, AccKind::Write, a, b, i, inst);
                    }
                    Inst::AtomicRmw { addr, .. } => {
                        let a = eval_addr(self.module, &st.regs, addr);
                        if let Some(c) = a.as_const() {
                            atomics.push((b, i, c));
                        }
                        self.record(&mut mine, fid, f, &st, AccKind::Atomic, a, b, i, inst);
                    }
                    Inst::Call { func, args, .. } => {
                        self.handle_call(&mut mine, fid, f, &st, *func, args, b, i, depth);
                    }
                    _ => {}
                }
                transfer(self.module, self.sums, &mut st, inst);
            }
        }

        self.tag_releases(fid, f, &mut mine, &atomics);
        self.scan_i5(fid, f, &states, &mine);
        self.accesses.append(&mut mine);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        mine: &mut Vec<Access>,
        fid: FuncId,
        f: &Function,
        st: &AbsState,
        callee: FuncId,
        args: &[Operand],
        b: BlockId,
        i: usize,
        depth: usize,
    ) {
        let arg_vals: Option<Vec<Word>> = args
            .iter()
            .map(|a| eval_operand(self.module, &st.regs, *a).as_const())
            .collect();
        let descend = depth < self.max_depth
            && !self.cg.is_recursive(callee)
            && callee.index() < self.module.function_count();
        if let (true, Some(consts)) = (descend, arg_vals) {
            let key = (
                callee.index(),
                consts.clone(),
                st.locks.iter().copied().collect(),
                st.acq.iter().copied().collect(),
            );
            if !self.seen_calls.insert(key) {
                return; // identical context already collected
            }
            let cf = self.module.function(callee);
            let nregs = cf.reg_count as usize;
            let mut regs = vec![RVal::cst(0); nregs];
            for (p, v) in consts.iter().enumerate() {
                if p < cf.param_count as usize {
                    regs[p] = RVal::cst(*v);
                }
            }
            self.collect_function(
                callee,
                AbsState {
                    regs,
                    locks: st.locks.clone(),
                    acq: st.acq.clone(),
                },
                depth + 1,
            );
            return;
        }
        // Summary fallback: conservative accesses at the call site.
        let cs = self.sums.get(callee).clone();
        let callee_name = if callee.index() < self.module.function_count() {
            self.module.function(callee).name.clone()
        } else {
            format!("fn#{}", callee.index())
        };
        let mk_note =
            |what: &str, a: Word| format!("call `{callee_name}` may {what} {a:#x} (summary)");
        let mut push =
            |this: &mut Self, kind: AccKind, lo: Word, hi: Word, sym: bool, note: String| {
                if !sym && (hi < layout::GLOBAL_BASE || lo >= layout::STACK_REGION_BASE) {
                    return;
                }
                let mut path = this.path_to(fid, f, b, i);
                path.push(WitnessStep {
                    block: b.0,
                    idx: i,
                    note: note.clone(),
                });
                mine.push(Access {
                    tid: this.tid,
                    kind,
                    lo: lo.max(layout::GLOBAL_BASE),
                    hi: hi.min(layout::STACK_REGION_BASE - 1),
                    sym,
                    func: f.name.clone(),
                    block: b.0,
                    idx: i,
                    locks: st.locks.clone(),
                    acq: st.acq.clone(),
                    rel: BTreeSet::new(),
                    note,
                    path,
                });
            };
        for &a in &cs.stores {
            push(self, AccKind::Write, a, a, false, mk_note("store to", a));
        }
        for &a in &cs.loads {
            push(self, AccKind::Read, a, a, false, mk_note("load from", a));
        }
        for &a in &cs.sync_addrs {
            push(
                self,
                AccKind::Atomic,
                a,
                a,
                false,
                mk_note("synchronize on", a),
            );
        }
        let full = (layout::GLOBAL_BASE, layout::STACK_REGION_BASE - 1);
        if cs.stores_unknown {
            push(
                self,
                AccKind::Write,
                full.0,
                full.1,
                true,
                format!("call `{callee_name}` may store to an unresolved address (summary)"),
            );
        }
        if cs.loads_unknown {
            push(
                self,
                AccKind::Read,
                full.0,
                full.1,
                true,
                format!("call `{callee_name}` may load from an unresolved address (summary)"),
            );
        }
    }

    /// Writer-side happens-before tags: a write is `released via F` when an
    /// atomic on constant word `F` postdominates it (or follows it in the
    /// same block) *and* control cannot flow from that atomic back to the
    /// write — the release is genuinely the write's publication point.
    fn tag_releases(
        &mut self,
        fid: FuncId,
        f: &Function,
        mine: &mut [Access],
        atomics: &[(BlockId, usize, Word)],
    ) {
        if atomics.is_empty() {
            return;
        }
        let pdt = self
            .pdoms
            .entry(fid.index())
            .or_insert_with(|| PostDomTree::compute(f));
        let reach = self.reach.entry(fid.index()).or_insert_with(|| {
            // reach[b] = blocks reachable from b via one or more edges.
            let n = f.blocks.len();
            let mut out: Vec<HashSet<u32>> = vec![HashSet::new(); n];
            for (b, _) in f.iter_blocks() {
                let mut q: VecDeque<BlockId> = cfg::successors(f, b).into_iter().collect();
                let mut seen: HashSet<u32> = q.iter().map(|s| s.0).collect();
                while let Some(s) = q.pop_front() {
                    for t in cfg::successors(f, s) {
                        if seen.insert(t.0) {
                            q.push_back(t);
                        }
                    }
                }
                out[b.index()] = seen;
            }
            out
        });
        for acc in mine.iter_mut() {
            if acc.kind != AccKind::Write || acc.func != f.name {
                continue;
            }
            let ab = BlockId(acc.block);
            for &(rb, ri, fl) in atomics {
                let after_in_block = rb == ab && ri > acc.idx;
                let postdoms = rb != ab && pdt.postdominates(rb, ab);
                let loops_back = reach[rb.index()].contains(&acc.block);
                if (after_in_block || postdoms) && !loops_back {
                    acc.rel.insert(fl);
                }
            }
        }
    }

    /// I5: in region-annotated functions, a store whose word another core
    /// may access must not reach an atomic/fence while its region is still
    /// open — a boundary must close the region before the publication point.
    fn scan_i5(
        &mut self,
        _fid: FuncId,
        f: &Function,
        states: &[Option<AbsState>],
        mine: &[Access],
    ) {
        let has_boundary = f
            .blocks
            .iter()
            .any(|bl| bl.insts.iter().any(|i| matches!(i, Inst::Boundary { .. })));
        if !has_boundary {
            return;
        }
        for acc in mine {
            if acc.kind != AccKind::Write || acc.sym || acc.func != f.name {
                continue;
            }
            let start = BlockId(acc.block);
            if states[start.index()].is_none() {
                continue;
            }
            // DFS forward from just past the store; stop at boundaries,
            // flag the first reachable synchronization point.
            let mut stack = vec![(start, acc.idx + 1, vec![])];
            let mut visited: HashSet<u32> = HashSet::new();
            let mut hit: Option<(BlockId, usize, Vec<WitnessStep>)> = None;
            // Open-region id at the store, for attribution: the last
            // boundary on the witness path to the store, if any.
            let region = acc.path.iter().rev().find_map(|s| {
                s.note
                    .contains("boundary")
                    .then(|| region_of(f, BlockId(s.block), s.idx))
                    .flatten()
            });
            'dfs: while let Some((b, from, path)) = stack.pop() {
                for (i, inst) in f.block(b).insts.iter().enumerate().skip(from) {
                    match inst {
                        Inst::Boundary { .. } => continue 'dfs,
                        Inst::AtomicRmw { .. } | Inst::Fence => {
                            let mut p = path.clone();
                            p.push(WitnessStep {
                                block: b.0,
                                idx: i,
                                note: format!("{} (publication point)", fmt_inst(inst)),
                            });
                            hit = Some((b, i, p));
                            break 'dfs;
                        }
                        Inst::Call { func, .. } => {
                            let cs = self.sums.get(*func);
                            if cs.has_boundary {
                                continue 'dfs;
                            }
                            if cs.has_fence || !cs.sync_addrs.is_empty() || cs.sync_unknown {
                                let mut p = path.clone();
                                p.push(WitnessStep {
                                    block: b.0,
                                    idx: i,
                                    note: format!("{} (callee synchronizes)", fmt_inst(inst)),
                                });
                                hit = Some((b, i, p));
                                break 'dfs;
                            }
                        }
                        _ => {}
                    }
                }
                for s in cfg::successors(f, b) {
                    if visited.insert(s.0) {
                        stack.push((s, 0, path.clone()));
                    }
                }
            }
            if let Some((_, _, sync_path)) = hit {
                let mut path = vec![WitnessStep {
                    block: acc.block,
                    idx: acc.idx,
                    note: format!("{} (escaping store, region open)", acc.note),
                }];
                path.extend(sync_path);
                self.i5.push(I5Cand {
                    tid: acc.tid,
                    lo: acc.lo,
                    hi: acc.hi,
                    func: acc.func.clone(),
                    block: acc.block,
                    idx: acc.idx,
                    region,
                    path,
                });
            }
        }
    }
}

fn region_of(f: &Function, b: BlockId, idx: usize) -> Option<u32> {
    match f.block(b).insts.get(idx) {
        Some(Inst::Boundary { id }) => Some(id.0),
        _ => None,
    }
}

/// Run the static race detector and the I5 persist-order check over
/// `opts.cores` thread contexts of `module`'s entry function.
pub fn check_concurrency(module: &Module, opts: &RaceOptions) -> RaceAnalysis {
    let mut out = RaceAnalysis::default();
    let Some(entry) = module.entry() else {
        return out;
    };
    if entry.index() >= module.function_count() {
        return out;
    }
    let entry_f = module.function(entry);
    if entry_f.validate().is_err() {
        return out;
    }
    // An entry that takes no thread-id parameter is single-instance: the
    // multicore machine runs `entry(core)` per core, and a program that
    // cannot observe `core` was never written for SPMD execution. Analyzing
    // it under N identical contexts would flag every global store as a
    // "race" with its own copy — noise, not a finding.
    let cores = if entry_f.param_count == 0 {
        1
    } else {
        opts.cores
    };
    let cg = CallGraph::compute(module);
    let sums = Summaries::compute(module, &cg);

    let mut per_tid: Vec<Vec<Access>> = Vec::new();
    let mut i5_cands: Vec<I5Cand> = Vec::new();
    for tid in 0..cores as u64 {
        let nregs = entry_f.reg_count as usize;
        let mut regs = vec![RVal::cst(0); nregs];
        if entry_f.param_count > 0 && nregs > 0 {
            // The machine starts core `tid` as `entry(tid)`.
            regs[0] = RVal::cst(tid);
        }
        let mut col = Collector {
            module,
            cg: &cg,
            sums: &sums,
            tid,
            max_depth: opts.max_call_depth,
            accesses: Vec::new(),
            i5: Vec::new(),
            seen_calls: HashSet::new(),
            bfs_parents: HashMap::new(),
            pdoms: HashMap::new(),
            reach: HashMap::new(),
        };
        col.collect_function(
            entry,
            AbsState {
                regs,
                locks: BTreeSet::new(),
                acq: BTreeSet::new(),
            },
            0,
        );
        out.stats.contexts += 1;
        out.stats.accesses += col.accesses.len();
        per_tid.push(col.accesses);
        i5_cands.append(&mut col.i5);
    }

    // --- pairwise race check ---
    for t1 in 0..per_tid.len() {
        for t2 in t1 + 1..per_tid.len() {
            for a in &per_tid[t1] {
                for b in &per_tid[t2] {
                    out.stats.pairs_checked += 1;
                    if !(a.is_write() || b.is_write()) || !a.overlaps(b) {
                        continue;
                    }
                    if a.kind == AccKind::Atomic && b.kind == AccKind::Atomic {
                        continue;
                    }
                    if a.locks.intersection(&b.locks).next().is_some() {
                        continue;
                    }
                    let hb = a.rel.intersection(&b.acq).next().is_some()
                        || b.rel.intersection(&a.acq).next().is_some();
                    if hb {
                        continue;
                    }
                    out.stats.races += 1;
                    if out.diagnostics.len() >= MAX_RACE_DIAGS {
                        continue;
                    }
                    out.diagnostics.push(race_diag(a, b));
                }
            }
        }
    }

    // --- I5: a candidate fires when the stored word escapes to another core ---
    // Every context runs the same entry, so the same store site surfaces once
    // per tid; report each static site once.
    let mut i5_seen: HashSet<(String, u32, usize)> = HashSet::new();
    for cand in &i5_cands {
        if !i5_seen.insert((cand.func.clone(), cand.block, cand.idx)) {
            continue;
        }
        let escapes = per_tid
            .iter()
            .enumerate()
            .filter(|(t, _)| *t as u64 != cand.tid)
            .flat_map(|(_, accs)| accs.iter())
            .any(|a| a.sym || (cand.lo <= a.hi && a.lo <= cand.hi));
        if !escapes {
            continue;
        }
        out.stats.i5_escapes += 1;
        if out.diagnostics.len() >= MAX_RACE_DIAGS {
            continue;
        }
        out.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            invariant: Invariant::PersistOrder,
            code: "I5-open-escape",
            message: format!(
                "store to {} escapes to another core but reaches a synchronization \
                 point with its region still open; a boundary must close the region \
                 before the value is published (stale-read hazard)",
                range_desc(cand.lo, cand.hi),
            ),
            location: Location {
                function: cand.func.clone(),
                block: cand.block,
                inst: Some(cand.idx),
            },
            region: cand.region,
            witness: Some(PathWitness::elided(cand.path.clone(), 10)),
        });
    }
    out
}

fn range_desc(lo: Word, hi: Word) -> String {
    if lo == hi {
        format!("{lo:#x}")
    } else {
        format!("[{lo:#x}..{hi:#x}]")
    }
}

fn kind_verb(k: AccKind) -> &'static str {
    match k {
        AccKind::Read => "load",
        AccKind::Write => "store",
        AccKind::Atomic => "atomic",
    }
}

fn race_diag(a: &Access, b: &Access) -> Diagnostic {
    let mut steps: Vec<WitnessStep> = Vec::new();
    for (acc, label) in [(a, a.tid), (b, b.tid)] {
        for s in &acc.path {
            steps.push(WitnessStep {
                block: s.block,
                idx: s.idx,
                note: format!("core {label}: {}", s.note),
            });
        }
    }
    Diagnostic {
        severity: Severity::Error,
        invariant: Invariant::DataRace,
        code: "R-data-race",
        message: format!(
            "{} of {} by core {} ({}/bb{}[{}]) and {} of {} by core {} ({}/bb{}[{}]) \
             are unordered: no common lock, no acquire/release pairing",
            kind_verb(a.kind),
            range_desc(a.lo, a.hi),
            a.tid,
            a.func,
            a.block,
            a.idx,
            kind_verb(b.kind),
            range_desc(b.lo, b.hi),
            b.tid,
            b.func,
            b.block,
            b.idx,
        ),
        location: Location {
            function: a.func.clone(),
            block: a.block,
            inst: Some(a.idx),
        },
        region: None,
        witness: Some(PathWitness::elided(steps, 14)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::BinOp;
    use cwsp_ir::types::RegionId;

    fn run(m: &Module, cores: usize) -> RaceAnalysis {
        check_concurrency(
            m,
            &RaceOptions {
                cores,
                ..RaceOptions::default()
            },
        )
    }

    fn assert_clean(m: &Module, cores: usize) -> RaceStats {
        let ra = run(m, cores);
        assert!(
            ra.diagnostics.is_empty(),
            "expected race-clean, got:\n{}",
            ra.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        ra.stats
    }

    #[test]
    fn shipped_drf_partition_sum_is_race_clean() {
        let (m, _, _, _) = cwsp_workloads::multicore::drf_partition_sum(4);
        let stats = assert_clean(&m, 4);
        assert_eq!(stats.contexts, 4);
        assert!(stats.accesses > 0);
        assert!(stats.pairs_checked > 0);
    }

    #[test]
    fn shipped_spinlock_ledger_is_race_clean() {
        let (m, _, _) = cwsp_workloads::multicore::spinlock_ledger(3);
        let stats = assert_clean(&m, 3);
        assert_eq!(stats.races, 0);
    }

    #[test]
    fn unsynced_shared_store_races_with_two_thread_witness() {
        // Both cores store the same global word with no synchronization.
        let mut m = Module::new("racy");
        let g = m.add_global("shared", 1);
        let addr = m.global_addr(g);
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let tid = b.param(0);
        b.push(e, Inst::store(tid.into(), MemRef::abs(addr)));
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let ra = run(&m, 2);
        assert_eq!(ra.stats.races, 1, "{:?}", ra.diagnostics);
        let d = &ra.diagnostics[0];
        assert_eq!(d.code, "R-data-race");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.invariant, Invariant::DataRace);
        let w = d.witness.as_ref().expect("two-thread witness");
        assert!(
            w.steps.iter().any(|s| s.note.starts_with("core 0:")),
            "{w:?}"
        );
        assert!(
            w.steps.iter().any(|s| s.note.starts_with("core 1:")),
            "{w:?}"
        );
    }

    #[test]
    fn read_write_pair_races_but_read_read_does_not() {
        // tid 0 stores, tid 1 loads the same word: a race. A second word is
        // only ever loaded: no race.
        let mut m = Module::new("rw");
        let g = m.add_global("w", 1);
        let r = m.add_global("r", 1);
        let (wa, ra_) = (m.global_addr(g), m.global_addr(r));
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let wr = b.block();
        let rd = b.block();
        let tid = b.param(0);
        let c = b.bin(e, BinOp::CmpEq, tid.into(), Operand::imm(0));
        b.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: wr,
                if_false: rd,
            },
        );
        b.push(wr, Inst::store(Operand::imm(7), MemRef::abs(wa)));
        let t0 = b.vreg();
        b.push(wr, Inst::load(t0, MemRef::abs(ra_)));
        b.push(wr, Inst::Halt);
        let t1 = b.vreg();
        b.push(rd, Inst::load(t1, MemRef::abs(wa)));
        let t2 = b.vreg();
        b.push(rd, Inst::load(t2, MemRef::abs(ra_)));
        b.push(rd, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let ra = run(&m, 2);
        assert_eq!(ra.stats.races, 1, "{:?}", ra.diagnostics);
        assert!(ra.diagnostics[0].message.contains("store"));
    }

    #[test]
    fn tid_dispatch_edges_are_pruned_per_context() {
        // Each tid writes its own word behind a CmpEq dispatch; without
        // infeasible-edge pruning both contexts would appear to write both.
        let mut m = Module::new("dispatch");
        let g = m.add_global("slots", 2);
        let base = m.global_addr(g);
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let a0 = b.block();
        let a1 = b.block();
        let tid = b.param(0);
        let c = b.bin(e, BinOp::CmpEq, tid.into(), Operand::imm(0));
        b.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: a0,
                if_false: a1,
            },
        );
        b.push(a0, Inst::store(Operand::imm(1), MemRef::abs(base)));
        b.push(a0, Inst::Halt);
        b.push(a1, Inst::store(Operand::imm(2), MemRef::abs(base + 8)));
        b.push(a1, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        assert_clean(&m, 2);
    }

    #[test]
    fn interval_partitions_are_disjoint_but_overlap_races() {
        // data[tid*4 + i], i in 0..4 — disjoint under interval analysis.
        let build = |stride: u64| {
            let mut m = Module::new("parts");
            let g = m.add_global("data", 16);
            let base = m.global_addr(g);
            let mut b = FunctionBuilder::new("main", 1);
            let e = b.entry();
            let tid = b.param(0);
            let off = b.bin(e, BinOp::Mul, tid.into(), Operand::imm(stride * 8));
            let part = b.bin(e, BinOp::Add, off.into(), Operand::imm(base));
            let (_, exit) =
                cwsp_ir::builder::build_counted_loop(&mut b, e, Operand::imm(4), |b, bb, i| {
                    let o = b.bin(bb, BinOp::Shl, i.into(), Operand::imm(3));
                    let a = b.bin(bb, BinOp::Add, part.into(), o.into());
                    b.store(bb, Operand::imm(1), MemRef::reg(a, 0));
                });
            b.push(exit, Inst::Halt);
            let f = m.add_function(b.build());
            m.set_entry(f);
            m
        };
        assert_clean(&build(4), 3); // stride == trip count: disjoint
        let ra = run(&build(2), 3); // stride 2 < trip 4: ranges overlap
        assert!(ra.stats.races > 0, "overlapping partitions must race");
    }

    #[test]
    fn lock_protected_sharing_is_clean_without_lock_races() {
        let mut m = Module::new("locked-vs-not");
        let lock = m.add_global("lock", 1);
        let sh = m.add_global("shared", 1);
        let (la, sa) = (m.global_addr(lock), m.global_addr(sh));
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let spin = b.block();
        let crit = b.block();
        b.push(e, Inst::Br { target: spin });
        let got = b.vreg();
        b.push(
            spin,
            Inst::AtomicRmw {
                op: AtomicOp::Cas,
                dst: got,
                addr: MemRef::abs(la),
                src: Operand::imm(1),
                expected: Operand::imm(0),
            },
        );
        b.push(
            spin,
            Inst::CondBr {
                cond: got.into(),
                if_true: spin,
                if_false: crit,
            },
        );
        let cur = b.load(crit, MemRef::abs(sa));
        let nv = b.bin(crit, BinOp::Add, cur.into(), Operand::imm(1));
        b.store(crit, nv.into(), MemRef::abs(sa));
        let rel = b.vreg();
        b.push(
            crit,
            Inst::AtomicRmw {
                op: AtomicOp::Swap,
                dst: rel,
                addr: MemRef::abs(la),
                src: Operand::imm(0),
                expected: Operand::imm(0),
            },
        );
        b.push(crit, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        assert_clean(&m, 2);
    }

    /// Writer (tid 0): store mailbox, release flag. Reader (tid 1):
    /// atomic-spin on the flag, then load the mailbox.
    fn handoff_module(atomic_release: bool) -> Module {
        let mut m = Module::new("handoff");
        let mail = m.add_global("mail", 1);
        let flag = m.add_global("flag", 1);
        let acc = m.add_global("acc", 1);
        let (ma, fa, aa) = (m.global_addr(mail), m.global_addr(flag), m.global_addr(acc));
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let wr = b.block();
        let spin = b.block();
        let rd = b.block();
        let tid = b.param(0);
        let c = b.bin(e, BinOp::CmpEq, tid.into(), Operand::imm(0));
        b.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: wr,
                if_false: spin,
            },
        );
        b.push(wr, Inst::store(Operand::imm(42), MemRef::abs(ma)));
        if atomic_release {
            let d = b.vreg();
            b.push(
                wr,
                Inst::AtomicRmw {
                    op: AtomicOp::Swap,
                    dst: d,
                    addr: MemRef::abs(fa),
                    src: Operand::imm(1),
                    expected: Operand::imm(0),
                },
            );
        } else {
            // Dropped release: publish the flag with a plain store.
            b.push(wr, Inst::store(Operand::imm(1), MemRef::abs(fa)));
        }
        b.push(wr, Inst::Halt);
        let g = b.vreg();
        b.push(
            spin,
            Inst::AtomicRmw {
                op: AtomicOp::FetchAdd,
                dst: g,
                addr: MemRef::abs(fa),
                src: Operand::imm(0),
                expected: Operand::imm(0),
            },
        );
        b.push(
            spin,
            Inst::CondBr {
                cond: g.into(),
                if_true: rd,
                if_false: spin,
            },
        );
        let v = b.load(rd, MemRef::abs(ma));
        b.store(rd, v.into(), MemRef::abs(aa));
        b.push(rd, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        m
    }

    #[test]
    fn message_passing_handoff_is_ordered() {
        assert_clean(&handoff_module(true), 2);
    }

    #[test]
    fn dropped_release_atomic_is_a_race() {
        let ra = run(&handoff_module(false), 2);
        assert!(ra.stats.races > 0, "plain-store publication must race");
        assert!(ra
            .diagnostics
            .iter()
            .any(|d| d.code == "R-data-race" && d.witness.is_some()));
    }

    /// Lock-protected shared store, with or without a boundary separating
    /// the store from the lock-release publication point.
    fn escape_module(with_boundary: bool) -> Module {
        let mut m = Module::new("escape");
        let lock = m.add_global("lock", 1);
        let sh = m.add_global("shared", 1);
        let (la, sa) = (m.global_addr(lock), m.global_addr(sh));
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let spin = b.block();
        let crit = b.block();
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(e, Inst::Br { target: spin });
        let got = b.vreg();
        b.push(
            spin,
            Inst::AtomicRmw {
                op: AtomicOp::Cas,
                dst: got,
                addr: MemRef::abs(la),
                src: Operand::imm(1),
                expected: Operand::imm(0),
            },
        );
        b.push(
            spin,
            Inst::CondBr {
                cond: got.into(),
                if_true: spin,
                if_false: crit,
            },
        );
        b.store(crit, Operand::imm(5), MemRef::abs(sa));
        if with_boundary {
            b.push(crit, Inst::Boundary { id: RegionId(1) });
        }
        let rel = b.vreg();
        b.push(
            crit,
            Inst::AtomicRmw {
                op: AtomicOp::Swap,
                dst: rel,
                addr: MemRef::abs(la),
                src: Operand::imm(0),
                expected: Operand::imm(0),
            },
        );
        b.push(crit, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        m
    }

    #[test]
    fn i5_open_escape_fires_without_boundary_before_release() {
        let ra = run(&escape_module(false), 2);
        let i5: Vec<_> = ra
            .diagnostics
            .iter()
            .filter(|d| d.code == "I5-open-escape")
            .collect();
        assert_eq!(i5.len(), 1, "{:?}", ra.diagnostics);
        assert_eq!(i5[0].severity, Severity::Error);
        assert_eq!(i5[0].invariant, Invariant::PersistOrder);
        let w = i5[0].witness.as_ref().expect("path witness");
        assert!(w.steps.iter().any(|s| s.note.contains("escaping store")));
        assert!(w.steps.iter().any(|s| s.note.contains("publication point")));
        assert_eq!(ra.stats.i5_escapes, 1);
        // The lock keeps it race-free; I5 is the only finding.
        assert_eq!(ra.stats.races, 0);
    }

    #[test]
    fn i5_clean_when_boundary_precedes_release() {
        let ra = run(&escape_module(true), 2);
        assert!(
            ra.diagnostics.iter().all(|d| d.code != "I5-open-escape"),
            "{:?}",
            ra.diagnostics
        );
        assert_eq!(ra.stats.i5_escapes, 0);
    }

    #[test]
    fn single_core_has_no_races() {
        let (m, _, _, _) = cwsp_workloads::multicore::drf_partition_sum(4);
        let ra = run(&m, 1);
        assert!(ra.diagnostics.is_empty());
        assert_eq!(ra.stats.pairs_checked, 0);
    }

    #[test]
    fn atomic_only_sharing_is_clean() {
        let mut m = Module::new("counter");
        let g = m.add_global("ctr", 1);
        let a = m.global_addr(g);
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let d = b.vreg();
        b.push(
            e,
            Inst::AtomicRmw {
                op: AtomicOp::FetchAdd,
                dst: d,
                addr: MemRef::abs(a),
                src: Operand::imm(1),
                expected: Operand::imm(0),
            },
        );
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        assert_clean(&m, 4);
    }
}
