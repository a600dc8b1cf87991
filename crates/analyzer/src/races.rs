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
use std::collections::{HashSet, VecDeque};

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

/// A sorted set of words (lock or flag addresses). Must-sets hold a handful
/// of words, so a sorted `Vec` intersects in place and copies into a reused
/// buffer without allocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct WordSet(Vec<Word>);

impl WordSet {
    fn insert(&mut self, w: Word) {
        if let Err(i) = self.0.binary_search(&w) {
            self.0.insert(i, w);
        }
    }

    fn remove(&mut self, w: Word) {
        if let Ok(i) = self.0.binary_search(&w) {
            self.0.remove(i);
        }
    }

    fn contains(&self, w: Word) -> bool {
        self.0.binary_search(&w).is_ok()
    }

    /// Keep only the words also in `other`; returns whether any was dropped.
    fn intersect(&mut self, other: &WordSet) -> bool {
        let before = self.0.len();
        self.0.retain(|&w| other.contains(w));
        self.0.len() != before
    }

    /// Whether the two sets share a word.
    fn meets(&self, other: &WordSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

#[derive(Debug, Default, PartialEq, Eq)]
struct AbsState {
    regs: Vec<RVal>,
    /// Locks provably held (must-set; intersected at joins).
    locks: WordSet,
    /// Flag words provably acquire-waited-on (must-set; intersected).
    acq: WordSet,
}

impl Clone for AbsState {
    fn clone(&self) -> Self {
        AbsState {
            regs: self.regs.clone(),
            locks: self.locks.clone(),
            acq: self.acq.clone(),
        }
    }

    /// Copy into `self`'s buffers: the fixpoint's scratch states are
    /// overwritten once per block visit and never reallocated.
    fn clone_from(&mut self, src: &Self) {
        self.regs.clone_from(&src.regs);
        self.locks.0.clone_from(&src.locks.0);
        self.acq.0.clone_from(&src.acq.0);
    }
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
        changed |= self.locks.intersect(&other.locks);
        changed |= self.acq.intersect(&other.acq);
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
                    st.locks.remove(a);
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
            for &a in &cs.sync_addrs {
                st.locks.remove(a);
            }
            if cs.sync_unknown {
                st.locks.0.clear();
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

/// Per-edge refinement of the block out-state `out` into `st`. Returns
/// false when the edge is statically infeasible under the current context.
#[allow(clippy::too_many_arguments)]
fn refine_edge(
    module: &Module,
    f: &Function,
    b: BlockId,
    out: &AbsState,
    st: &mut AbsState,
    cond: Operand,
    taken: bool,
    self_loop_other_edge: Option<Word>,
) -> bool {
    st.clone_from(out);
    // Spin-block acquire: the non-self edge of a self-looping block that
    // atomically polls a constant flag word acquires that flag.
    if let Some(flag) = self_loop_other_edge {
        st.acq.insert(flag);
    }
    match eval_operand(module, &st.regs, cond) {
        RVal::Iv(0, 0) if taken => return false,
        RVal::Iv(lo, _) if lo >= 1 && !taken => return false,
        _ => {}
    }
    let Operand::Reg(c) = cond else {
        return true;
    };
    // Find the last definition of the condition register in this block.
    let insts = &f.block(b).insts;
    let def = insts.iter().enumerate().rev().find(|(_, i)| defines(i, c));
    let Some((di, dinst)) = def else {
        return true;
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
                return true;
            }
            let Some(k) = eval_operand(module, &st.regs, *rhs).as_const() else {
                return true;
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
                None => return false,
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
    true
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

/// Block-entry states of one fixpoint, with the bookkeeping of its joins.
struct Fixpoint {
    states: Vec<Option<AbsState>>,
    /// Joins into each block so far; past [`WIDEN_AFTER`] they widen.
    joins: Vec<u32>,
    /// Whether a block's entry state changed since its last visit.
    dirty: Vec<bool>,
    /// The successors each block pushed an edge state to on its last visit.
    pushed: Vec<[Option<BlockId>; 2]>,
}

impl Fixpoint {
    /// Join `ns` into `succ`'s entry state; returns whether it changed.
    fn push(&mut self, succ: BlockId, ns: &AbsState) -> bool {
        let s = succ.index();
        let changed = match &mut self.states[s] {
            cur @ None => {
                *cur = Some(ns.clone());
                true
            }
            Some(cur) => {
                self.joins[s] += 1;
                cur.join_from(ns, self.joins[s] > WIDEN_AFTER)
            }
        };
        self.dirty[s] |= changed;
        changed
    }
}

/// Run the abstract interpretation to fixpoint, visiting `rpo` round-robin;
/// returns block-entry states (`None` = unreachable under this context).
///
/// A block whose entry state is unchanged since its last visit would push
/// the same edge states again: they change nothing (entry states only grow)
/// but the join counts that drive widening, so such a block only replays
/// those counts over the edges it pushed last time.
fn block_states(
    module: &Module,
    sums: &Summaries,
    f: &Function,
    rpo: &[BlockId],
    entry_state: AbsState,
) -> Vec<Option<AbsState>> {
    let n = f.blocks.len();
    let mut fx = Fixpoint {
        states: vec![None; n],
        joins: vec![0; n],
        dirty: vec![false; n],
        pushed: vec![[None; 2]; n],
    };
    fx.states[f.entry().index()] = Some(entry_state);
    fx.dirty[f.entry().index()] = true;
    // Scratch states, overwritten on every visit.
    let mut out = AbsState::default();
    let mut edge = AbsState::default();
    for _pass in 0..MAX_PASSES {
        let mut changed = false;
        for &b in rpo {
            let Some(st) = &fx.states[b.index()] else {
                continue;
            };
            if !fx.dirty[b.index()] {
                for s in fx.pushed[b.index()].into_iter().flatten() {
                    fx.joins[s.index()] += 1;
                }
                continue;
            }
            out.clone_from(st);
            fx.dirty[b.index()] = false;
            for inst in &f.block(b).insts {
                transfer(module, sums, &mut out, inst);
            }
            let mut edges = [None; 2];
            match f.block(b).insts.last() {
                Some(Inst::Br { target }) => {
                    changed |= fx.push(*target, &out);
                    edges[0] = Some(*target);
                }
                Some(Inst::CondBr {
                    cond,
                    if_true,
                    if_false,
                }) => {
                    let flag = spin_flag(module, &out.regs, f, b);
                    let t_extra = (*if_false == b).then_some(flag).flatten();
                    let f_extra = (*if_true == b).then_some(flag).flatten();
                    if refine_edge(module, f, b, &out, &mut edge, *cond, true, t_extra) {
                        changed |= fx.push(*if_true, &edge);
                        edges[0] = Some(*if_true);
                    }
                    if refine_edge(module, f, b, &out, &mut edge, *cond, false, f_extra) {
                        changed |= fx.push(*if_false, &edge);
                        edges[1] = Some(*if_false);
                    }
                }
                _ => {}
            }
            fx.pushed[b.index()] = edges;
        }
        if !changed {
            break;
        }
    }
    fx.states
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

/// What an access shows as in a witness: its own instruction, or one effect
/// of a call the collector did not descend into.
#[derive(Debug, Clone, Copy)]
enum NoteSrc<'m> {
    Inst(&'m Inst),
    /// "call `callee` may `verb` `addr` (summary)"; no address when the
    /// callee's effect is unresolved.
    Summary {
        callee: FuncId,
        verb: &'static str,
        addr: Option<Word>,
    },
}

/// One shared-memory access of a thread context. It keeps coordinates, not
/// text: witness paths and notes are rendered by [`Witnesses`] only for the
/// findings actually reported.
#[derive(Debug, Clone)]
struct Access<'m> {
    tid: u64,
    kind: AccKind,
    lo: Word,
    hi: Word,
    sym: bool,
    fid: FuncId,
    block: u32,
    idx: usize,
    locks: WordSet,
    acq: WordSet,
    /// Constant flag words whose releasing atomic postdominates this access
    /// (writer-side happens-before tags; writes only).
    rel: WordSet,
    src: NoteSrc<'m>,
}

impl Access<'_> {
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

/// A shared store that reaches a synchronization point with its region
/// still open; it fires when the word escapes to another context.
#[derive(Debug, Clone)]
struct I5Cand<'m> {
    store: Access<'m>,
    /// The synchronization point reached: block, index, instruction (a
    /// `Call` when the callee synchronizes).
    sync: (u32, usize, &'m Inst),
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

/// Reachability over one or more CFG edges: bit `t` of row `b` is set when
/// block `t` is reachable from block `b`.
struct Reach {
    words: usize,
    bits: Vec<u64>,
}

impl Reach {
    fn compute(f: &Function) -> Reach {
        let n = f.blocks.len();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        let mut stack: Vec<BlockId> = Vec::new();
        for (b, _) in f.iter_blocks() {
            let row = &mut bits[b.index() * words..][..words];
            stack.extend(cfg::successors(f, b));
            while let Some(s) = stack.pop() {
                let (w, bit) = (s.index() / 64, 1 << (s.index() % 64));
                if row[w] & bit == 0 {
                    row[w] |= bit;
                    stack.extend(cfg::successors(f, s));
                }
            }
        }
        Reach { words, bits }
    }

    fn reaches(&self, from: BlockId, to: BlockId) -> bool {
        self.bits[from.index() * self.words + to.index() / 64] >> (to.index() % 64) & 1 == 1
    }
}

/// CFG facts of one function, computed on first use and shared by every
/// thread context and call instance.
#[derive(Default)]
struct FuncFacts {
    rpo: Option<Vec<BlockId>>,
    has_boundary: Option<bool>,
    pdt: Option<PostDomTree>,
    reach: Option<Reach>,
    /// Breadth-first parents from the entry (witness paths).
    parents: Option<Vec<Option<BlockId>>>,
}

struct Collector<'m, 'c> {
    module: &'m Module,
    cg: &'m CallGraph,
    sums: &'m Summaries,
    facts: &'c mut [FuncFacts],
    tid: u64,
    max_depth: usize,
    accesses: Vec<Access<'m>>,
    i5: Vec<I5Cand<'m>>,
    seen_calls: HashSet<CallKey>,
    search: &'c mut OpenSearch,
}

/// The I5 forward search's scratch, reused across every store it starts
/// from: a work stack, and per-block visit stamps compared against `stamp`.
#[derive(Default)]
struct OpenSearch {
    stack: Vec<(BlockId, usize)>,
    visited: Vec<u32>,
    stamp: u32,
}

impl OpenSearch {
    /// Depth-first search forward from instruction `from` of `start`:
    /// paths stop at boundaries; the first synchronization point reached
    /// (atomic, fence, or a call whose callee synchronizes without crossing
    /// a boundary) is returned.
    fn open_sync_point<'m>(
        &mut self,
        sums: &Summaries,
        f: &'m Function,
        start: BlockId,
        from: usize,
    ) -> Option<(u32, usize, &'m Inst)> {
        if self.visited.len() < f.blocks.len() {
            self.visited.resize(f.blocks.len(), 0);
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.stack.clear();
        self.stack.push((start, from));
        'dfs: while let Some((b, from)) = self.stack.pop() {
            for (i, inst) in f.block(b).insts.iter().enumerate().skip(from) {
                match inst {
                    Inst::Boundary { .. } => continue 'dfs,
                    Inst::AtomicRmw { .. } | Inst::Fence => return Some((b.0, i, inst)),
                    Inst::Call { func, .. } => {
                        let cs = sums.get(*func);
                        if cs.has_boundary {
                            continue 'dfs;
                        }
                        if cs.has_fence || !cs.sync_addrs.is_empty() || cs.sync_unknown {
                            return Some((b.0, i, inst));
                        }
                    }
                    _ => {}
                }
            }
            for s in cfg::successors(f, b) {
                if self.visited[s.index()] != stamp {
                    self.visited[s.index()] = stamp;
                    self.stack.push((s, 0));
                }
            }
        }
        None
    }
}

impl<'m> Collector<'m, '_> {
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        mine: &mut Vec<Access<'m>>,
        fid: FuncId,
        st: &AbsState,
        kind: AccKind,
        (lo, hi, sym): (Word, Word, bool),
        b: BlockId,
        i: usize,
        src: NoteSrc<'m>,
    ) {
        // Per-core state (stacks, checkpoint slots, metadata) cannot race;
        // only the shared program-data window matters.
        if !sym && (hi < layout::GLOBAL_BASE || lo >= layout::STACK_REGION_BASE) {
            return;
        }
        mine.push(Access {
            tid: self.tid,
            kind,
            lo: lo.max(layout::GLOBAL_BASE),
            hi: hi.min(layout::STACK_REGION_BASE - 1),
            sym,
            fid,
            block: b.0,
            idx: i,
            locks: st.locks.clone(),
            acq: st.acq.clone(),
            rel: WordSet::default(),
            src,
        });
    }

    fn collect_function(&mut self, fid: FuncId, entry: AbsState, depth: usize) {
        let module = self.module;
        if fid.index() >= module.function_count() {
            return;
        }
        let f = module.function(fid);
        if f.validate().is_err() {
            return;
        }
        let rpo = self.facts[fid.index()]
            .rpo
            .get_or_insert_with(|| cfg::reverse_post_order(f));
        let states = block_states(module, self.sums, f, rpo, entry);
        let mut mine: Vec<Access<'m>> = Vec::new();
        // Constant-address atomic sites of this instance (release candidates).
        let mut atomics: Vec<(BlockId, usize, Word)> = Vec::new();

        let mut st = AbsState::default();
        for (b, block) in f.iter_blocks() {
            let Some(entry) = &states[b.index()] else {
                continue;
            };
            st.clone_from(entry);
            for (i, inst) in block.insts.iter().enumerate() {
                let src = NoteSrc::Inst(inst);
                match inst {
                    Inst::Load { addr, .. } => {
                        let a = span(eval_addr(module, &st.regs, addr));
                        self.record(&mut mine, fid, &st, AccKind::Read, a, b, i, src);
                    }
                    Inst::Store { addr, .. } => {
                        let a = span(eval_addr(module, &st.regs, addr));
                        self.record(&mut mine, fid, &st, AccKind::Write, a, b, i, src);
                    }
                    Inst::AtomicRmw { addr, .. } => {
                        let a = eval_addr(module, &st.regs, addr);
                        if let Some(c) = a.as_const() {
                            atomics.push((b, i, c));
                        }
                        self.record(&mut mine, fid, &st, AccKind::Atomic, span(a), b, i, src);
                    }
                    Inst::Call { func, args, .. } => {
                        self.handle_call(&mut mine, fid, &st, *func, args, b, i, depth);
                    }
                    _ => {}
                }
                transfer(module, self.sums, &mut st, inst);
            }
        }

        self.tag_releases(fid, f, &mut mine, &atomics);
        self.scan_i5(fid, f, &mine);
        self.accesses.append(&mut mine);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        mine: &mut Vec<Access<'m>>,
        fid: FuncId,
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
                st.locks.0.clone(),
                st.acq.0.clone(),
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
        let cs = self.sums.get(callee);
        let summary = |verb, addr| NoteSrc::Summary { callee, verb, addr };
        let one = |a| (a, a, false);
        for &a in &cs.stores {
            let src = summary("store to", Some(a));
            self.record(mine, fid, st, AccKind::Write, one(a), b, i, src);
        }
        for &a in &cs.loads {
            let src = summary("load from", Some(a));
            self.record(mine, fid, st, AccKind::Read, one(a), b, i, src);
        }
        for &a in &cs.sync_addrs {
            let src = summary("synchronize on", Some(a));
            self.record(mine, fid, st, AccKind::Atomic, one(a), b, i, src);
        }
        let full = span(RVal::Sym);
        if cs.stores_unknown {
            let src = summary("store to", None);
            self.record(mine, fid, st, AccKind::Write, full, b, i, src);
        }
        if cs.loads_unknown {
            let src = summary("load from", None);
            self.record(mine, fid, st, AccKind::Read, full, b, i, src);
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
        let facts = &mut self.facts[fid.index()];
        let pdt = facts.pdt.get_or_insert_with(|| PostDomTree::compute(f));
        let reach = facts.reach.get_or_insert_with(|| Reach::compute(f));
        for acc in mine.iter_mut() {
            if acc.kind != AccKind::Write {
                continue;
            }
            let ab = BlockId(acc.block);
            for &(rb, ri, fl) in atomics {
                let after_in_block = rb == ab && ri > acc.idx;
                let postdoms = rb != ab && pdt.postdominates(rb, ab);
                let loops_back = reach.reaches(rb, ab);
                if (after_in_block || postdoms) && !loops_back {
                    acc.rel.insert(fl);
                }
            }
        }
    }

    /// I5: in region-annotated functions, a store whose word another core
    /// may access must not reach an atomic/fence while its region is still
    /// open — a boundary must close the region before the publication point.
    fn scan_i5(&mut self, fid: FuncId, f: &'m Function, mine: &[Access<'m>]) {
        let has_boundary = *self.facts[fid.index()].has_boundary.get_or_insert_with(|| {
            f.blocks
                .iter()
                .any(|bl| bl.insts.iter().any(|i| matches!(i, Inst::Boundary { .. })))
        });
        if !has_boundary {
            return;
        }
        for acc in mine {
            if acc.kind != AccKind::Write || acc.sym {
                continue;
            }
            let sync = self
                .search
                .open_sync_point(self.sums, f, BlockId(acc.block), acc.idx + 1);
            if let Some(sync) = sync {
                self.i5.push(I5Cand {
                    store: acc.clone(),
                    sync,
                });
            }
        }
    }
}

/// An address value as an access span `(lo, hi, sym)`; unknown addresses
/// span the whole shared program-data window.
fn span(addr: RVal) -> (Word, Word, bool) {
    match addr {
        RVal::Iv(l, h) => (l, h, false),
        RVal::Sym => (layout::GLOBAL_BASE, layout::STACK_REGION_BASE - 1, true),
    }
}

fn region_of(f: &Function, b: BlockId, idx: usize) -> Option<u32> {
    match f.block(b).insts.get(idx) {
        Some(Inst::Boundary { id }) => Some(id.0),
        _ => None,
    }
}

/// Renders the text of reported findings: witness paths, notes and
/// function names, built from an access's coordinates on demand.
struct Witnesses<'m, 'c> {
    module: &'m Module,
    facts: &'c mut [FuncFacts],
}

impl<'m> Witnesses<'m, '_> {
    fn name(&self, fid: FuncId) -> &'m str {
        &self.module.function(fid).name
    }

    fn note(&self, src: NoteSrc) -> String {
        match src {
            NoteSrc::Inst(inst) => fmt_inst(inst),
            NoteSrc::Summary { callee, verb, addr } => {
                let name = if callee.index() < self.module.function_count() {
                    self.name(callee).to_string()
                } else {
                    format!("fn#{}", callee.index())
                };
                match addr {
                    Some(a) => format!("call `{name}` may {verb} {a:#x} (summary)"),
                    None => format!("call `{name}` may {verb} an unresolved address (summary)"),
                }
            }
        }
    }

    /// Shortest block path entry → `acc`, as witness steps covering the
    /// synchronization-relevant instructions along the way, then the access.
    fn path(&mut self, acc: &Access) -> Vec<WitnessStep> {
        let f = self.module.function(acc.fid);
        let parents = self.facts[acc.fid.index()].parents.get_or_insert_with(|| {
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
        let target = BlockId(acc.block);
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
        let mut steps = Vec::new();
        for &b in blocks.iter().rev() {
            let limit = if b == target {
                acc.idx
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
        steps.push(WitnessStep {
            block: acc.block,
            idx: acc.idx,
            note: self.note(acc.src),
        });
        steps
    }

    fn race(&mut self, a: &Access, b: &Access) -> Diagnostic {
        let mut steps: Vec<WitnessStep> = Vec::new();
        for acc in [a, b] {
            for s in self.path(acc) {
                steps.push(WitnessStep {
                    block: s.block,
                    idx: s.idx,
                    note: format!("core {}: {}", acc.tid, s.note),
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
                self.name(a.fid),
                a.block,
                a.idx,
                kind_verb(b.kind),
                range_desc(b.lo, b.hi),
                b.tid,
                self.name(b.fid),
                b.block,
                b.idx,
            ),
            location: Location {
                function: self.name(a.fid).to_string(),
                block: a.block,
                inst: Some(a.idx),
            },
            region: None,
            witness: Some(PathWitness::elided(steps, 14)),
        }
    }

    fn open_escape(&mut self, cand: &I5Cand) -> Diagnostic {
        let acc = &cand.store;
        let f = self.module.function(acc.fid);
        // Open-region id at the store, for attribution: the last boundary
        // on the witness path to the store, if any.
        let region = self
            .path(acc)
            .iter()
            .rev()
            .find_map(|s| region_of(f, BlockId(s.block), s.idx));
        let (sb, si, sync) = cand.sync;
        let why = match sync {
            Inst::Call { .. } => "callee synchronizes",
            _ => "publication point",
        };
        let path = vec![
            WitnessStep {
                block: acc.block,
                idx: acc.idx,
                note: format!("{} (escaping store, region open)", self.note(acc.src)),
            },
            WitnessStep {
                block: sb,
                idx: si,
                note: format!("{} ({why})", fmt_inst(sync)),
            },
        ];
        Diagnostic {
            severity: Severity::Error,
            invariant: Invariant::PersistOrder,
            code: "I5-open-escape",
            message: format!(
                "store to {} escapes to another core but reaches a synchronization \
                 point with its region still open; a boundary must close the region \
                 before the value is published (stale-read hazard)",
                range_desc(acc.lo, acc.hi),
            ),
            location: Location {
                function: self.name(acc.fid).to_string(),
                block: acc.block,
                inst: Some(acc.idx),
            },
            region,
            witness: Some(PathWitness::elided(path, 10)),
        }
    }
}

/// Run the static race detector and the I5 persist-order check over
/// `opts.cores` thread contexts of `module`'s entry function.
pub fn check_concurrency(module: &Module, opts: &RaceOptions) -> RaceAnalysis {
    if spmd_entry(module).is_none() {
        return RaceAnalysis::default();
    }
    let cg = CallGraph::compute(module);
    let sums = Summaries::compute(module, &cg);
    check_with(module, &cg, &sums, opts)
}

/// The module's entry function, when it exists and is well-formed.
pub(crate) fn spmd_entry(module: &Module) -> Option<(FuncId, &Function)> {
    let entry = module.entry()?;
    if entry.index() >= module.function_count() {
        return None;
    }
    let f = module.function(entry);
    f.validate().is_ok().then_some((entry, f))
}

/// [`check_concurrency`] over an already computed call graph and summaries
/// of `module` (the layered analysis shares its own).
pub(crate) fn check_with(
    module: &Module,
    cg: &CallGraph,
    sums: &Summaries,
    opts: &RaceOptions,
) -> RaceAnalysis {
    let mut out = RaceAnalysis::default();
    let Some((entry, entry_f)) = spmd_entry(module) else {
        return out;
    };
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

    let mut facts: Vec<FuncFacts> = Vec::new();
    facts.resize_with(module.function_count(), FuncFacts::default);
    let mut per_tid: Vec<Vec<Access>> = Vec::new();
    let mut i5_cands: Vec<I5Cand> = Vec::new();
    let mut search = OpenSearch::default();
    for tid in 0..cores as u64 {
        let nregs = entry_f.reg_count as usize;
        let mut regs = vec![RVal::cst(0); nregs];
        if entry_f.param_count > 0 && nregs > 0 {
            // The machine starts core `tid` as `entry(tid)`.
            regs[0] = RVal::cst(tid);
        }
        let mut col = Collector {
            module,
            cg,
            sums,
            facts: &mut facts,
            tid,
            max_depth: opts.max_call_depth,
            accesses: Vec::new(),
            i5: Vec::new(),
            seen_calls: HashSet::new(),
            search: &mut search,
        };
        col.collect_function(
            entry,
            AbsState {
                regs,
                ..AbsState::default()
            },
            0,
        );
        out.stats.contexts += 1;
        out.stats.accesses += col.accesses.len();
        per_tid.push(col.accesses);
        i5_cands.append(&mut col.i5);
    }

    let mut w = Witnesses {
        module,
        facts: &mut facts,
    };
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
                    if a.locks.meets(&b.locks) {
                        continue;
                    }
                    if a.rel.meets(&b.acq) || b.rel.meets(&a.acq) {
                        continue;
                    }
                    out.stats.races += 1;
                    if out.diagnostics.len() >= MAX_RACE_DIAGS {
                        continue;
                    }
                    out.diagnostics.push(w.race(a, b));
                }
            }
        }
    }

    // --- I5: a candidate fires when the stored word escapes to another core ---
    // Every context runs the same entry, so the same store site surfaces once
    // per tid; report each static site once.
    let mut i5_seen: HashSet<(&str, u32, usize)> = HashSet::new();
    for cand in &i5_cands {
        let s = &cand.store;
        if !i5_seen.insert((w.name(s.fid), s.block, s.idx)) {
            continue;
        }
        let escapes = per_tid
            .iter()
            .enumerate()
            .filter(|(t, _)| *t as u64 != s.tid)
            .flat_map(|(_, accs)| accs.iter())
            .any(|a| a.sym || (s.lo <= a.hi && a.lo <= s.hi));
        if !escapes {
            continue;
        }
        out.stats.i5_escapes += 1;
        if out.diagnostics.len() >= MAX_RACE_DIAGS {
            continue;
        }
        out.diagnostics.push(w.open_escape(cand));
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
