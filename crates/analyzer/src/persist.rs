//! I6 — durability ordering: every NVM-visible store is flushed
//! ([`Inst::FlushLine`]) and fenced ([`Inst::PFence`]) before any event that
//! assumes it durable.
//!
//! This is the static half of the repository's *translation validation* of
//! `cwsp_compiler::autofence`: the pass inserts flush/fence operations, and
//! this analyzer — sharing no code with the pass — re-proves the epoch
//! persistency discipline on all paths. A pass bug (dropped flush, dropped
//! fence, mis-placed commit) surfaces as an `I6-*` error with a path
//! witness, exactly like the I1–I5 families.
//!
//! # The per-line persistency lattice
//!
//! Each tracked store key walks a PMVerify-style FSM:
//!
//! ```text
//!   (clean) --store--> Dirty --flush--> Flushed --pfence--> (clean/durable)
//! ```
//!
//! Keys are [`LineKey`]s: constant-resolvable addresses track at *line*
//! granularity (a `flush` writes back the whole 64-byte line), symbolic
//! addresses track word-exact as (base register, offset) — a flush with the
//! identical memory reference provably covers the store, anything weaker
//! does not. When a symbolic key's base register is redefined while the key
//! is still dirty, no later flush can be proven to target it; the key is
//! re-keyed to its store site ([`LineKey::Orphan`]) and stays dirty forever.
//!
//! # Commit points
//!
//! A *commit point* is any event whose semantics assume prior stores
//! durable. Two flavors, mirroring [`Scheme::AutoFence`] machine semantics:
//!
//! * **draining** — `fence`, `atomic`, `halt`: the hardware stalls until the
//!   persist path empties, so `Flushed` keys become durable for free; only
//!   `Dirty` (never-flushed) keys are violations (`I6-unflushed-store`).
//! * **non-draining** — `out` (publication), `boundary` (region close),
//!   `ret` (the modular contract: a function returns drained), and calls to
//!   *persist-impure* callees: here `Dirty` keys are `I6-unflushed-store`
//!   and `Flushed` keys are `I6-unfenced-flush` errors.
//!
//! Callee purity comes from the interprocedural [`Summaries`]: a callee that
//! transitively performs no store, atomic, fence, boundary, output, or
//! checkpoint-range write cannot interfere with the caller's persistency
//! state, so the call is not a commit point and the state flows across it.
//!
//! The dataflow is a forward may-analysis of *non-durability* over the
//! reachable CFG (union at joins, `Dirty` wins over `Flushed`), the same
//! `block_in: Vec<Option<State>>` fixpoint shape as [`crate::sync`]. Each
//! fact is reported once, at the first commit point it reaches; the state
//! resets after a commit so one root cause yields one diagnostic per path
//! shape, not a cascade.
//!
//! Redundant operations are surfaced as warnings (`I6-redundant-flush` for a
//! flush whose key is already clean or flushed, `I6-redundant-fence` for a
//! pfence with nothing flushed) — the autofence pass's redundancy
//! elimination keeps its output warning-free, which the fuzz farm checks.
//!
//! [`Inst::FlushLine`]: cwsp_ir::inst::Inst::FlushLine
//! [`Inst::PFence`]: cwsp_ir::inst::Inst::PFence
//! [`Scheme::AutoFence`]: https://docs.rs/ (see `cwsp_sim::scheme::Scheme`)

use crate::callgraph::CallGraph;
use crate::consts::ConstProp;
use crate::diag::{Diagnostic, Invariant, Location, PathWitness, Severity, WitnessStep};
use crate::facts::ModuleFacts;
use crate::summaries::{FuncSummary, Summaries};
use cwsp_compiler::liveness::defs;
use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::inst::{Inst, MemRef, Operand};
use cwsp_ir::layout;
use cwsp_ir::module::{FuncId, Module};
use cwsp_ir::types::Word;
use std::collections::BTreeMap;

/// Aggregate counters over one module's I6 analysis — the
/// `analyzer.persistency` section of the lint JSON envelope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistCounters {
    /// Functions analyzed.
    pub functions: usize,
    /// NVM-visible stores tracked through the lattice.
    pub tracked_stores: usize,
    /// `flush` operations seen.
    pub flushes: usize,
    /// `pfence` operations seen.
    pub fences: usize,
    /// Commit points classified (draining + non-draining).
    pub commit_points: usize,
    /// Error-severity I6 findings.
    pub errors: usize,
    /// Warning-severity I6 findings (redundant flush/fence).
    pub warnings: usize,
}

/// What a persistency fact is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LineKey {
    /// Constant-resolved address, line-granular (`addr & !63`).
    Line(Word),
    /// Unresolved address: (base register index, byte offset) — word-exact.
    Sym(u32, i64),
    /// A symbolic store whose base register was clobbered while dirty,
    /// keyed by the store site: no flush can be proven to cover it.
    Orphan(u32, usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Dirty,
    Flushed,
}

/// One lattice fact: the FSM state plus the sites that created it (for
/// witness construction and deterministic merging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fact {
    st: PState,
    /// (block, idx) of the dirtying store.
    store: (u32, usize),
    /// (block, idx) of the flush, once `Flushed`.
    flush: Option<(u32, usize)>,
}

type State = BTreeMap<LineKey, Fact>;

/// Union-join: a fact present on *any* inflowing path is a hazard on that
/// path. `Dirty` beats `Flushed`; ties keep the smaller site pair so the
/// fixpoint (and therefore the report) is deterministic.
fn join(into: &mut State, from: &State) -> bool {
    let mut changed = false;
    for (k, f) in from {
        match into.get_mut(k) {
            None => {
                into.insert(*k, *f);
                changed = true;
            }
            Some(cur) => {
                let m = meet(*cur, *f);
                if m != *cur {
                    *cur = m;
                    changed = true;
                }
            }
        }
    }
    changed
}

fn meet(a: Fact, b: Fact) -> Fact {
    let rank = |f: &Fact| matches!(f.st, PState::Dirty) as u8;
    match rank(&a).cmp(&rank(&b)) {
        std::cmp::Ordering::Greater => a,
        std::cmp::Ordering::Less => b,
        std::cmp::Ordering::Equal => {
            if (a.store, a.flush) <= (b.store, b.flush) {
                a
            } else {
                b
            }
        }
    }
}

/// How a commit point treats `Flushed` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Commit {
    /// Hardware stalls until the persist path drains: flushed keys become
    /// durable, only never-flushed ones are violations.
    Draining(&'static str),
    /// No drain: both dirty and merely-flushed keys are violations.
    Strict(&'static str),
}

/// Per-function analysis context, shared by the fixpoint and report walks.
struct Ctx<'a> {
    module: &'a Module,
    f: &'a Function,
    consts: &'a ConstProp,
    /// Per-`FuncId` persist-purity of callees.
    pure_call: &'a [bool],
}

impl Ctx<'_> {
    /// The lattice key of a memory reference at (b, i), or `None` for
    /// accesses into the reserved checkpoint/metadata ranges (recovery
    /// plumbing, not program durability).
    fn key_of(&self, b: BlockId, i: usize, m: &MemRef) -> Option<LineKey> {
        match crate::races::resolve_addr(self.module, self.consts, self.f, b, i, m) {
            Some(a) => {
                if layout::is_ckpt_addr(a) || layout::is_hw_meta_addr(a) {
                    None
                } else {
                    Some(LineKey::Line(a & !63))
                }
            }
            None => match m.base {
                Operand::Reg(r) => Some(LineKey::Sym(r.0, m.offset)),
                // A constant base always resolves above.
                Operand::Imm(_) => None,
            },
        }
    }

    /// Classify `inst` as a commit point, if it is one.
    fn commit_kind(&self, inst: &Inst) -> Option<Commit> {
        match inst {
            Inst::Fence => Some(Commit::Draining("synchronization fence")),
            Inst::AtomicRmw { .. } => Some(Commit::Draining("atomic synchronization")),
            Inst::Halt => Some(Commit::Draining("program halt")),
            Inst::Out { .. } => Some(Commit::Strict("output publication")),
            Inst::Boundary { .. } => Some(Commit::Strict("region close")),
            Inst::Ret { .. } => Some(Commit::Strict("function return")),
            Inst::Call { func, .. } => {
                if self.pure_call.get(func.index()).copied().unwrap_or(false) {
                    None
                } else {
                    Some(Commit::Strict("call to persist-impure callee"))
                }
            }
            _ => None,
        }
    }
}

fn describe(key: LineKey) -> String {
    match key {
        LineKey::Line(l) => format!("line {l:#x}"),
        LineKey::Sym(r, off) if off >= 0 => format!("[r{r}+{off}]"),
        LineKey::Sym(r, off) => format!("[r{r}{off}]"),
        LineKey::Orphan(b, i) => format!("store at b{b}:{i} (address register clobbered)"),
    }
}

/// One-instruction transfer. `diags`/`counters` are only written when
/// `emit` (the report walk); the fixpoint runs the same function silently.
#[allow(clippy::too_many_arguments)]
fn transfer(
    ctx: &Ctx<'_>,
    state: &mut State,
    b: BlockId,
    i: usize,
    inst: &Inst,
    emit: bool,
    diags: &mut Vec<Diagnostic>,
    counters: &mut PersistCounters,
) {
    match inst {
        Inst::Store { addr, .. } => {
            if let Some(k) = ctx.key_of(b, i, addr) {
                if emit {
                    counters.tracked_stores += 1;
                }
                // Overwrite: the previous value of this word/line is
                // architecturally dead, its durability no longer required.
                state.insert(
                    k,
                    Fact {
                        st: PState::Dirty,
                        store: (b.0, i),
                        flush: None,
                    },
                );
            }
        }
        Inst::FlushLine { addr } => {
            if emit {
                counters.flushes += 1;
            }
            if let Some(k) = ctx.key_of(b, i, addr) {
                match state.get_mut(&k) {
                    Some(f) if f.st == PState::Dirty => {
                        f.st = PState::Flushed;
                        f.flush = Some((b.0, i));
                    }
                    _ => {
                        if emit {
                            counters.warnings += 1;
                            diags.push(Diagnostic {
                                severity: Severity::Warning,
                                invariant: Invariant::DurabilityOrder,
                                code: "I6-redundant-flush",
                                message: format!(
                                    "flush of {} covers no dirty store on any path \
                                     (already flushed or never written)",
                                    describe(k)
                                ),
                                location: loc(ctx.f, b, i),
                                region: None,
                                witness: None,
                            });
                        }
                    }
                }
            }
        }
        Inst::PFence => {
            if emit {
                counters.fences += 1;
            }
            let had_flushed = state.values().any(|f| f.st == PState::Flushed);
            if !had_flushed && emit {
                counters.warnings += 1;
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    invariant: Invariant::DurabilityOrder,
                    code: "I6-redundant-fence",
                    message: "pfence orders no outstanding flush on any path".into(),
                    location: loc(ctx.f, b, i),
                    region: None,
                    witness: None,
                });
            }
            state.retain(|_, f| f.st != PState::Flushed);
        }
        _ => {
            if let Some(kind) = ctx.commit_kind(inst) {
                if emit {
                    counters.commit_points += 1;
                    let (desc, strict) = match kind {
                        Commit::Draining(d) => (d, false),
                        Commit::Strict(d) => (d, true),
                    };
                    for (k, f) in state.iter() {
                        let (code, problem) = match f.st {
                            PState::Dirty => (
                                "I6-unflushed-store",
                                "was never flushed toward the persist path",
                            ),
                            PState::Flushed if strict => (
                                "I6-unfenced-flush",
                                "was flushed but no pfence ordered it durable",
                            ),
                            // A draining commit makes flushed keys durable.
                            PState::Flushed => continue,
                        };
                        counters.errors += 1;
                        let mut steps = vec![WitnessStep {
                            block: f.store.0,
                            idx: f.store.1,
                            note: format!("store dirties {}", describe(*k)),
                        }];
                        if let Some((fb, fi)) = f.flush {
                            steps.push(WitnessStep {
                                block: fb,
                                idx: fi,
                                note: format!(
                                    "{} flushed here — write-back issued, not yet durable",
                                    describe(*k)
                                ),
                            });
                        }
                        steps.push(WitnessStep {
                            block: b.0,
                            idx: i,
                            note: format!("{desc} assumes prior stores durable"),
                        });
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            invariant: Invariant::DurabilityOrder,
                            code,
                            message: format!("{} {} before {}", describe(*k), problem, desc),
                            location: loc(ctx.f, b, i),
                            region: None,
                            witness: Some(PathWitness::elided(steps, 14)),
                        });
                    }
                }
                // One report per fact: the state resets at a commit, whether
                // or not the facts were clean.
                state.clear();
            }
        }
    }
    // A redefinition of a symbolic key's base register severs the only
    // provable link between the key and any later flush of the same memref.
    if defs_of(inst).next().is_some() {
        let stale: Vec<LineKey> = state
            .keys()
            .filter(|k| matches!(k, LineKey::Sym(r, _) if defs_of(inst).any(|d| d == *r)))
            .copied()
            .collect();
        for k in stale {
            let f = state.remove(&k).expect("key just listed");
            let orphan = LineKey::Orphan(f.store.0, f.store.1);
            match state.get_mut(&orphan) {
                Some(cur) => *cur = meet(*cur, f),
                None => {
                    state.insert(orphan, f);
                }
            }
        }
    }
}

/// Registers defined by `inst` (including call-saved restores), as raw
/// indices — the kill set for symbolic keys.
fn defs_of(inst: &Inst) -> impl Iterator<Item = u32> + '_ {
    defs(inst).map(|r| r.0)
}

fn loc(f: &Function, b: BlockId, i: usize) -> Location {
    Location {
        function: f.name.clone(),
        block: b.0,
        inst: Some(i),
    }
}

/// Analyze one function, appending diagnostics and accumulating counters.
fn check_function(
    module: &Module,
    fid: FuncId,
    facts: &ModuleFacts<'_>,
    pure_call: &[bool],
    out: &mut Vec<Diagnostic>,
    counters: &mut PersistCounters,
) {
    let Ok(facts) = facts.get(fid) else {
        // I4-invalid-function is reported by the core pass sequence; a
        // malformed CFG cannot be traversed meaningfully here.
        return;
    };
    counters.functions += 1;
    let f = module.function(fid);
    let ctx = Ctx {
        module,
        f,
        consts: facts.consts(),
        pure_call,
    };
    let rpo = &facts.rpo;
    let nb = f.blocks.len();
    let mut block_in: Vec<Option<State>> = vec![None; nb];
    block_in[f.entry().0 as usize] = Some(State::new());
    // Fixpoint: forward may-analysis over the reachable CFG.
    let mut scratch = Vec::new();
    let mut scratch_counters = PersistCounters::default();
    loop {
        let mut changed = false;
        for &b in rpo {
            let Some(mut st) = block_in[b.0 as usize].clone() else {
                continue;
            };
            for (i, inst) in f.blocks[b.0 as usize].insts.iter().enumerate() {
                transfer(
                    &ctx,
                    &mut st,
                    b,
                    i,
                    inst,
                    false,
                    &mut scratch,
                    &mut scratch_counters,
                );
            }
            for s in cfg::successors(f, b) {
                match &mut block_in[s.0 as usize] {
                    None => {
                        block_in[s.0 as usize] = Some(st.clone());
                        changed = true;
                    }
                    Some(cur) => changed |= join(cur, &st),
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Report walk over the converged in-states (deterministic: each block
    // visited once, in RPO).
    for &b in rpo {
        let Some(mut st) = block_in[b.0 as usize].clone() else {
            continue;
        };
        for (i, inst) in f.blocks[b.0 as usize].insts.iter().enumerate() {
            transfer(&ctx, &mut st, b, i, inst, true, out, counters);
        }
    }
}

/// Persist-purity of a callee: it cannot disturb (or depend on) the caller's
/// persistency state. Implied by — and strictly weaker than — the autofence
/// pass's syntactic purity, so a pass-fenced call set always covers the
/// commit points this analysis demands (translation validation soundness).
fn persist_pure(s: &FuncSummary) -> bool {
    s.stores.is_empty()
        && !s.stores_unknown
        && s.sync_addrs.is_empty()
        && !s.sync_unknown
        && !s.has_fence
        && !s.has_out
        && !s.has_boundary
        && !s.writes_ckpt_range
}

/// I6 over a whole module with precomputed interprocedural summaries.
pub fn check_module_with(module: &Module, sums: &Summaries) -> (Vec<Diagnostic>, PersistCounters) {
    check_module_in(module, sums, &ModuleFacts::new(module))
}

/// [`check_module_with`] over the per-function facts of one analysis.
pub(crate) fn check_module_in(
    module: &Module,
    sums: &Summaries,
    facts: &ModuleFacts<'_>,
) -> (Vec<Diagnostic>, PersistCounters) {
    let pure_call: Vec<bool> = (0..module.function_count())
        .map(|i| persist_pure(sums.get(FuncId(i as u32))))
        .collect();
    let mut diags = Vec::new();
    let mut counters = PersistCounters::default();
    for (fid, _) in module.iter_functions() {
        check_function(module, fid, facts, &pure_call, &mut diags, &mut counters);
    }
    (diags, counters)
}

/// I6 over a whole module, computing the call graph and summaries locally —
/// the standalone entry (`cwsp-lint --persist`, tests, fuzz oracles).
pub fn check_module(module: &Module) -> (Vec<Diagnostic>, PersistCounters) {
    let facts = ModuleFacts::new(module);
    let cg = CallGraph::compute(module);
    let sums = Summaries::compute_in(module, &cg, &facts);
    check_module_in(module, &sums, &facts)
}

/// Whether `diags` contains no error-severity I6 finding — the
/// translation-validation acceptance predicate.
pub fn i6_clean(diags: &[Diagnostic]) -> bool {
    !diags
        .iter()
        .any(|d| d.severity == Severity::Error && d.invariant == Invariant::DurabilityOrder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::MemRef;
    use cwsp_ir::layout::GLOBAL_BASE;
    use cwsp_ir::types::Reg;

    fn single(f: FunctionBuilder) -> Module {
        let mut m = Module::new("t");
        let id = m.add_function(f.build());
        m.set_entry(id);
        m
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn flushed_and_fenced_store_is_clean() {
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let g = MemRef::abs(GLOBAL_BASE);
        b.push(e, Inst::store(Operand::imm(1), g));
        b.push(e, Inst::FlushLine { addr: g });
        b.push(e, Inst::PFence);
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        b.push(e, Inst::Halt);
        let (diags, c) = check_module(&single(b));
        assert!(i6_clean(&diags), "{diags:?}");
        assert!(diags.is_empty(), "no warnings either: {diags:?}");
        assert_eq!((c.tracked_stores, c.flushes, c.fences), (1, 1, 1));
        assert!(c.commit_points >= 2, "out + halt");
    }

    #[test]
    fn unflushed_store_at_publication_is_an_error_with_witness() {
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::store(Operand::imm(1), MemRef::abs(GLOBAL_BASE)));
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        b.push(e, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert!(!i6_clean(&diags));
        let d = diags
            .iter()
            .find(|d| d.code == "I6-unflushed-store")
            .expect("unflushed-store reported");
        assert!(
            d.message
                .contains(&format!("line {:#x}", GLOBAL_BASE & !63)),
            "message names the line: {}",
            d.message
        );
        let w = d.witness.as_ref().expect("path witness attached");
        assert_eq!(w.steps.first().map(|s| s.idx), Some(0), "starts at store");
        assert!(w.steps.last().unwrap().note.contains("durable"));
    }

    #[test]
    fn flushed_but_unfenced_store_is_an_error_at_strict_commits_only() {
        // flush without pfence, then halt (a draining commit): clean.
        let g = MemRef::abs(GLOBAL_BASE);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::store(Operand::imm(1), g));
        b.push(e, Inst::FlushLine { addr: g });
        b.push(e, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert!(i6_clean(&diags), "halt drains: {diags:?}");

        // Same, but publishing first: unfenced-flush error.
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::store(Operand::imm(1), g));
        b.push(e, Inst::FlushLine { addr: g });
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        b.push(e, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert_eq!(codes(&diags), vec!["I6-unfenced-flush"], "{diags:?}");
        let w = diags[0].witness.as_ref().unwrap();
        assert_eq!(w.steps.len(), 3, "store, flush, commit: {w:?}");
    }

    #[test]
    fn dirty_on_one_path_only_is_still_an_error() {
        // entry -> (store in then-branch) -> join -> out
        let g = MemRef::abs(GLOBAL_BASE);
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let t = b.block();
        let j = b.block();
        b.push(
            e,
            Inst::CondBr {
                cond: Reg(0).into(),
                if_true: t,
                if_false: j,
            },
        );
        b.push(t, Inst::store(Operand::imm(1), g));
        b.push(t, Inst::Br { target: j });
        b.push(
            j,
            Inst::Out {
                val: Operand::imm(0),
            },
        );
        b.push(j, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert!(codes(&diags).contains(&"I6-unflushed-store"), "{diags:?}");
    }

    #[test]
    fn symbolic_store_covered_by_identical_memref_flush() {
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let m = MemRef::reg(Reg(0), 8);
        b.push(e, Inst::store(Operand::imm(1), m));
        b.push(e, Inst::FlushLine { addr: m });
        b.push(e, Inst::PFence);
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        b.push(e, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn clobbered_base_register_orphans_the_dirty_store() {
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        b.push(e, Inst::store(Operand::imm(1), MemRef::reg(Reg(0), 0)));
        // r0 redefined: the later flush names a *different* address.
        b.push(
            e,
            Inst::Mov {
                dst: Reg(0),
                src: Operand::imm(9),
            },
        );
        b.push(
            e,
            Inst::FlushLine {
                addr: MemRef::reg(Reg(0), 0),
            },
        );
        b.push(e, Inst::PFence);
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        b.push(e, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert!(
            diags.iter().any(|d| d.code == "I6-unflushed-store"
                && d.message.contains("address register clobbered")),
            "{diags:?}"
        );
    }

    #[test]
    fn redundant_flush_and_fence_warn() {
        let g = MemRef::abs(GLOBAL_BASE);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::store(Operand::imm(1), g));
        b.push(e, Inst::FlushLine { addr: g });
        b.push(e, Inst::FlushLine { addr: g }); // already flushed
        b.push(e, Inst::PFence);
        b.push(e, Inst::PFence); // nothing left to order
        b.push(e, Inst::Halt);
        let (diags, c) = check_module(&single(b));
        assert!(i6_clean(&diags));
        assert_eq!(
            codes(&diags),
            vec!["I6-redundant-flush", "I6-redundant-fence"],
            "{diags:?}"
        );
        assert_eq!(c.warnings, 2);
        assert_eq!(c.errors, 0);
    }

    #[test]
    fn draining_commits_reset_state_and_atomics_count() {
        // store; fence (drains dirty? no — dirty errors); check the error
        // is unflushed-store even at a draining commit.
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::store(Operand::imm(1), MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::Fence);
        // After the fence the fact is consumed: no second report at halt.
        b.push(e, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert_eq!(codes(&diags), vec!["I6-unflushed-store"]);
    }

    #[test]
    fn pure_call_preserves_state_but_impure_call_commits() {
        let g = MemRef::abs(GLOBAL_BASE);
        // Pure helper: arithmetic only.
        let mut m = Module::new("t");
        let mut pure = FunctionBuilder::new("pure", 1);
        let pe = pure.entry();
        pure.push(
            pe,
            Inst::Ret {
                val: Some(Reg(0).into()),
            },
        );
        let pure_id = m.add_function(pure.build());
        // Impure helper: stores.
        let mut imp = FunctionBuilder::new("imp", 0);
        let ie = imp.entry();
        imp.push(
            ie,
            Inst::store(Operand::imm(2), MemRef::abs(GLOBAL_BASE + 64)),
        );
        imp.push(ie, Inst::Ret { val: None });
        let imp_id = m.add_function(imp.build());

        let mut main = FunctionBuilder::new("main", 0);
        let e = main.entry();
        main.push(e, Inst::store(Operand::imm(1), g));
        main.push(
            e,
            Inst::Call {
                func: pure_id,
                args: vec![Operand::imm(3)],
                ret: None,
                save_regs: vec![],
            },
        );
        main.push(e, Inst::FlushLine { addr: g });
        main.push(e, Inst::PFence);
        main.push(
            e,
            Inst::Call {
                func: imp_id,
                args: vec![],
                ret: None,
                save_regs: vec![],
            },
        );
        main.push(e, Inst::Halt);
        let main_id = m.add_function(main.build());
        m.set_entry(main_id);
        let (diags, _) = check_module(&m);
        // The dirty fact survives the pure call, is flushed+fenced before
        // the impure one: main is clean. `imp` itself has an unflushed
        // store hitting its `ret` commit.
        let main_diags: Vec<_> = diags
            .iter()
            .filter(|d| d.location.function == "main" && d.severity == Severity::Error)
            .collect();
        assert!(main_diags.is_empty(), "{diags:?}");
        assert!(
            diags.iter().any(|d| d.location.function == "imp"
                && d.code == "I6-unflushed-store"
                && d.message.contains("function return")),
            "{diags:?}"
        );
    }

    #[test]
    fn loop_carried_dirty_state_reaches_the_loop_commit() {
        // header: store; out; backedge — the out inside the loop sees the
        // store from the previous iteration via the join.
        let g = MemRef::abs(GLOBAL_BASE);
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let h = b.block();
        let x = b.block();
        b.push(e, Inst::Br { target: h });
        b.push(h, Inst::store(Operand::imm(1), g));
        b.push(
            h,
            Inst::CondBr {
                cond: Reg(0).into(),
                if_true: h,
                if_false: x,
            },
        );
        b.push(
            x,
            Inst::Out {
                val: Operand::imm(0),
            },
        );
        b.push(x, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert!(codes(&diags).contains(&"I6-unflushed-store"), "{diags:?}");
    }

    #[test]
    fn line_granularity_one_flush_covers_two_const_words() {
        // Two stores into the same 64-byte line; one flush of either word
        // cleans the line key.
        let a = MemRef::abs(GLOBAL_BASE);
        let b2 = MemRef::abs(GLOBAL_BASE + 8);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::store(Operand::imm(1), a));
        b.push(e, Inst::store(Operand::imm(2), b2));
        b.push(e, Inst::FlushLine { addr: b2 });
        b.push(e, Inst::PFence);
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        b.push(e, Inst::Halt);
        let (diags, _) = check_module(&single(b));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
