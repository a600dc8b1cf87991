//! Incremental analysis: a per-function summary cache with SCC-directed
//! invalidation.
//!
//! ROADMAP item 5 scales the static-vs-oracle differential from hundreds of
//! modules to a continuous fuzzing farm — infeasible if every one-function
//! mutation forces whole-module re-analysis. The observation that makes
//! incrementality *sound* here: the per-function pass sequence
//! ([`crate::analyze_function`] — validation, structure, idempotence,
//! checkpoint coverage, lints) reads exactly three inputs:
//!
//! 1. the function body itself,
//! 2. the module's global layout (alias analysis and address resolution),
//! 3. the recovery slices of the regions whose boundaries sit in the body.
//!
//! It never inspects another function's body (a `Call` only *positions* a
//! region root). So the diagnostics of a function can be keyed by a content
//! fingerprint over those three inputs (each hashed by structure, through
//! the IR's and the slices' derived [`Hash`], as the engine's module keys
//! are) and replayed verbatim on a hit — [`analyze_incremental`] is
//! byte-identical to a from-scratch
//! [`crate::analyze`] by construction, a guarantee the repository's
//! differential suite enforces over every workload and a genprog corpus.
//!
//! The *interprocedural* facts (mod/ref + sync [`FuncSummary`]s feeding
//! `I2-callee-clobbers-slot` and the race detector's lock inference) do
//! depend on callees, transitively. [`summaries_incremental`] handles them
//! with merkle-style invalidation over the [`CallGraph`] SCC condensation:
//! each component's fingerprint folds its members' body fingerprints with
//! the fingerprints of the components it calls into, so a mutation
//! invalidates exactly its own component and the components above it
//! (bottom-up propagation) — re-analysis is O(changed functions +
//! dependents), with untouched subtrees served from cache. Body summaries
//! (the `ConstProp`-expensive part) are cached separately by body
//! fingerprint, so a dependent component re-runs only the cheap absorption
//! fixed point.
//!
//! Cache entries age out after [`KEEP_GENERATIONS`] runs *of their own
//! module* without a hit — a function deleted between runs stops refreshing
//! its entry and is evicted (counted in [`IncrStats::evicted`]). Aging is
//! per-module, not global: one cache streaming a whole corpus (the lint
//! front-end, the fuzz farm) must not evict module A's entries just because
//! hundreds of other modules passed through in between. Eviction costs the
//! same: each module indexes the keys of the entries it stamped last, so
//! the sweep after a run visits only the running module's entries, however
//! many other modules the cache holds.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Report};
use crate::facts::ModuleFacts;
use crate::summaries::{body_summary, FuncSummary, Summaries};
use cwsp_compiler::slice::SliceTable;
use cwsp_ir::function::Function;
use cwsp_ir::fxhash::{FxHashMap, FxHasher};
use cwsp_ir::inst::Inst;
use cwsp_ir::module::{FuncId, Module};
use cwsp_obs::sink::{NullSink, ObsSink};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Version salt folded into every fingerprint; bump whenever the pass
/// sequence, the diagnostic format, or the summary lattice changes shape so
/// stale entries from an older analyzer can never replay.
/// Version 2: [`FuncSummary`] grew the `has_out` commit-point flag for the
/// I6 durability-ordering pass.
const FMT_VERSION: u64 = 2;

/// Runs of an entry's own module it may go unused before eviction.
const KEEP_GENERATIONS: u32 = 4;

/// Cache traffic counters, cumulative over the cache's lifetime. Published
/// through [`ObsSink`] as `analyzer.incr.*` (per-run deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Functions whose diagnostics were replayed from cache.
    pub hits: u64,
    /// Functions re-analyzed (no entry under their fingerprint).
    pub misses: u64,
    /// Misses where the same (module, function) name was previously cached
    /// under a *different* fingerprint — i.e. the function changed.
    pub invalidations: u64,
    /// Entries dropped by generation-based eviction (deleted or long-unseen
    /// functions).
    pub evicted: u64,
    /// Functions whose transitive summaries were served from an SCC entry.
    pub summary_hits: u64,
    /// Functions whose SCC had to recompute its summary fixed point.
    pub summary_misses: u64,
}

/// Last use of a cache entry: which module touched it, at that module's
/// how-many-eth run. Eviction compares an entry's stamp only against *its
/// own* module's run counter, so unrelated modules streaming through the
/// cache never age it.
///
/// Run counters are 32-bit and wrap: every run of a module sweeps every
/// entry it stamped, so a live stamp is never more than
/// [`KEEP_GENERATIONS`] runs old and the wrapping difference is its exact
/// age. The narrow stamp keeps each cache entry 8 bytes smaller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Stamp {
    mid: u32,
    run: u32,
}

impl Stamp {
    /// Whether an entry stamped `self` is stale in run `cur` of its module.
    fn stale_at(self, cur: Stamp) -> bool {
        cur.run.wrapping_sub(self.run) > KEEP_GENERATIONS
    }
}

/// What the cache knows per module (indexed by module id). A module's sets
/// are as small as its function count, so they are sorted vectors: smaller
/// than hash sets, and searched in a few probes.
#[derive(Default)]
struct ModuleIndex {
    /// Runs of this module so far (wrapping; see [`Stamp`]).
    runs: u32,
    /// Sorted keys of the entries, in any of the three tables, that this
    /// module stamped when another module (or none) held them: a superset
    /// of the entries whose stamp names this module, which are exactly the
    /// entries its eviction may drop. Keys that other modules have stamped
    /// since are dropped at this module's next eviction.
    owned: Vec<u64>,
    /// Function names of this module, sorted, with the fingerprint last
    /// seen under each.
    names: Vec<(Box<str>, NameEntry)>,
}

impl ModuleIndex {
    fn name(&self, func: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|(n, _)| (**n).cmp(func))
    }
}

/// Record that the running module (`cur`) stamped the entry under `key`,
/// previously stamped `old` (`None` for a new entry).
fn restamp(modules: &mut [ModuleIndex], key: u64, old: Option<Stamp>, cur: Stamp) {
    if old.is_some_and(|old| old.mid == cur.mid) {
        return;
    }
    let keys = &mut modules[cur.mid as usize].owned;
    if let Err(i) = keys.binary_search(&key) {
        keys.insert(i, key);
    }
}

/// Eviction of one table's entry under `key` by module `cur.mid`: drops it
/// when that module stamped it last more than [`KEEP_GENERATIONS`] of its
/// runs ago, counting it in `evicted`. Returns whether the module still
/// holds a live entry under `key`.
fn sweep<V>(
    table: &mut FxHashMap<u64, V>,
    key: u64,
    stamp: fn(&V) -> Stamp,
    cur: Stamp,
    evicted: &mut u64,
) -> bool {
    match table.get(&key).map(stamp) {
        Some(s) if s.mid == cur.mid => {
            let stale = s.stale_at(cur);
            if stale {
                table.remove(&key);
                *evicted += 1;
            }
            !stale
        }
        _ => false,
    }
}

struct DiagEntry {
    diags: Vec<Diagnostic>,
    stamp: Stamp,
}

struct BodyEntry {
    sum: FuncSummary,
    stamp: Stamp,
}

struct SccEntry {
    /// Transitive summaries, in the component's member order.
    sums: Vec<FuncSummary>,
    stamp: Stamp,
}

struct NameEntry {
    fp: u64,
    /// Run of the owning module that last saw the name.
    run: u32,
}

/// The per-function analysis-summary cache behind [`analyze_incremental`].
///
/// One cache may serve many modules (the lint front-end and the fuzz farm
/// stream modules through a single instance): entries are keyed purely by
/// content, so identical helper functions hit across modules, while the
/// per-module index drives invalidation accounting and stale-entry
/// eviction.
#[derive(Default)]
pub struct AnalysisCache {
    diags: FxHashMap<u64, DiagEntry>,
    bodies: FxHashMap<u64, BodyEntry>,
    sccs: FxHashMap<u64, SccEntry>,
    /// Interned module names (the `mid` of a [`Stamp`]).
    module_ids: HashMap<String, u32>,
    /// Per-module runs, owned keys and names, indexed by module id.
    modules: Vec<ModuleIndex>,
    /// Stamp of the run in progress (set by [`Self::begin_run`]).
    cur: Stamp,
    stats: IncrStats,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> IncrStats {
        self.stats
    }

    /// Number of cached per-function diagnostic entries.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether the cache holds no diagnostic entries.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether the cache is still tracking `func` of `module` by name —
    /// false once a deleted function's record has been evicted.
    pub fn tracks_function(&self, module: &str, func: &str) -> bool {
        self.module_ids
            .get(module)
            .is_some_and(|&mid| self.modules[mid as usize].name(func).is_ok())
    }

    /// Open a run of `module`: intern its name and bump its (and only its)
    /// run counter. Every stamp written until the next `begin_run` carries
    /// this (module, run) pair.
    fn begin_run(&mut self, module: &str) {
        let mid = match self.module_ids.get(module) {
            Some(&mid) => mid,
            None => {
                let mid = self.modules.len() as u32;
                self.module_ids.insert(module.to_string(), mid);
                self.modules.push(ModuleIndex::default());
                mid
            }
        };
        let m = &mut self.modules[mid as usize];
        m.runs = m.runs.wrapping_add(1);
        self.cur = Stamp { mid, run: m.runs };
    }

    /// Record a function-name → fingerprint observation of the running
    /// module, counting an invalidation when the name re-appears under new
    /// content.
    fn note_name(&mut self, func: &str, fp: u64) {
        let run = self.cur.run;
        let m = &mut self.modules[self.cur.mid as usize];
        match m.name(func) {
            Ok(i) => {
                let ne = &mut m.names[i].1;
                if ne.fp != fp {
                    self.stats.invalidations += 1;
                    ne.fp = fp;
                }
                ne.run = run;
            }
            Err(i) => m.names.insert(i, (func.into(), NameEntry { fp, run })),
        }
    }

    /// Drop entries of the *current* module unused for more than
    /// [`KEEP_GENERATIONS`] of its runs. Called automatically at the end of
    /// every incremental run; functions deleted between runs stop
    /// refreshing their entries and age out here. Only the running
    /// module's own entries are visited; entries last used by other
    /// modules are never touched.
    fn evict_stale(&mut self) {
        let cur = self.cur;
        let m = &mut self.modules[cur.mid as usize];
        let evicted = &mut self.stats.evicted;
        m.owned.retain(|&key| {
            let d = sweep(&mut self.diags, key, |e| e.stamp, cur, evicted);
            let b = sweep(&mut self.bodies, key, |e| e.stamp, cur, evicted);
            let s = sweep(&mut self.sccs, key, |e| e.stamp, cur, evicted);
            d || b || s
        });
        m.names
            .retain(|(_, e)| cur.run.wrapping_sub(e.run) <= KEEP_GENERATIONS);
    }

    /// Body summary of `fid`, served from cache by body fingerprint.
    fn body_summary(
        &mut self,
        module: &Module,
        ctx: u64,
        fid: FuncId,
        facts: &ModuleFacts<'_>,
    ) -> FuncSummary {
        let fp = body_fp(ctx, module.function(fid));
        let stamp = self.cur;
        match self.bodies.entry(fp) {
            Entry::Occupied(mut e) => {
                let old = std::mem::replace(&mut e.get_mut().stamp, stamp);
                restamp(&mut self.modules, fp, Some(old), stamp);
                e.get().sum.clone()
            }
            Entry::Vacant(v) => {
                let sum = body_summary(module, fid, facts);
                v.insert(BodyEntry {
                    sum: sum.clone(),
                    stamp,
                });
                restamp(&mut self.modules, fp, None, stamp);
                sum
            }
        }
    }
}

/// Digest of the module-level context the per-function passes read: the
/// global layout (names, sizes, assigned addresses, initializers). Any
/// change here invalidates every function of the module — address
/// resolution and alias facts may shift under all of them.
fn ctx_digest(module: &Module) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(FMT_VERSION);
    module.globals().hash(&mut h);
    h.finish()
}

/// Content fingerprint of one function body under `ctx` — the key for body
/// summaries, and the leaf the SCC merkle folds. The body is hashed by
/// structure: name, counts, every instruction.
fn body_fp(ctx: u64, f: &Function) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(ctx);
    f.hash(&mut h);
    h.finish()
}

/// Full fingerprint for the per-function *diagnostic* entry: body, context,
/// and the recovery slices of the regions whose boundaries sit in the body
/// (the checkpoint-coverage pass reads exactly those). A region without a
/// slice hashes as `None`, distinct from one with an empty slice.
fn diag_fp(ctx: u64, f: &Function, slices: &SliceTable) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(body_fp(ctx, f));
    for (_, block) in f.iter_blocks() {
        for inst in &block.insts {
            if let Inst::Boundary { id } = inst {
                h.write_u32(id.0);
                slices.get(*id).map(|s| &s.restores).hash(&mut h);
            }
        }
    }
    h.finish()
}

/// [`crate::analyze`] served through `cache`: unchanged functions replay
/// their cached diagnostics, changed or unseen functions are re-analyzed
/// and cached. Output is byte-identical to a from-scratch analysis.
pub fn analyze_incremental(
    module: &Module,
    slices: &SliceTable,
    cache: &mut AnalysisCache,
) -> Report {
    analyze_incremental_observed(module, slices, cache, &mut NullSink)
}

/// [`analyze_incremental`], publishing the standard analyzer counters plus
/// per-run `analyzer.incr.{hits,misses,invalidations}` through `sink`.
pub fn analyze_incremental_observed(
    module: &Module,
    slices: &SliceTable,
    cache: &mut AnalysisCache,
    sink: &mut dyn ObsSink,
) -> Report {
    analyze_incremental_in(module, slices, cache, sink, &ModuleFacts::new(module))
}

/// [`analyze_incremental_observed`] over the per-function facts of one
/// analysis.
pub(crate) fn analyze_incremental_in(
    module: &Module,
    slices: &SliceTable,
    cache: &mut AnalysisCache,
    sink: &mut dyn ObsSink,
    facts: &ModuleFacts<'_>,
) -> Report {
    let t0 = Instant::now();
    let stats0 = cache.stats;
    cache.begin_run(&module.name);
    let mut report = Report {
        module: module.name.clone(),
        ..Default::default()
    };

    crate::check_module_level(module, &mut report);

    let ctx = ctx_digest(module);
    for (fid, f) in module.iter_functions() {
        report.counters.functions += 1;
        let fp = diag_fp(ctx, f, slices);
        let stamp = cache.cur;
        if let Some(e) = cache.diags.get_mut(&fp) {
            let old = std::mem::replace(&mut e.stamp, stamp);
            restamp(&mut cache.modules, fp, Some(old), stamp);
            report.diagnostics.extend(e.diags.iter().cloned());
            cache.stats.hits += 1;
        } else {
            let start = report.diagnostics.len();
            let out = &mut report.diagnostics;
            crate::analyze_function(module, fid, facts, slices, out, sink, t0);
            let diags = report.diagnostics[start..].to_vec();
            cache.diags.insert(fp, DiagEntry { diags, stamp });
            restamp(&mut cache.modules, fp, None, stamp);
            cache.stats.misses += 1;
        }
        cache.note_name(&f.name, fp);
    }

    report.normalize();

    // A region counts as proven when no error-severity finding names it —
    // identical to the from-scratch accounting.
    let mut bad_regions: HashSet<u32> = HashSet::new();
    for d in report.errors() {
        if let Some(r) = d.region {
            bad_regions.insert(r);
        }
    }
    report.counters.regions_proven = report
        .counters
        .regions_total
        .saturating_sub(bad_regions.len());
    report.counters.analysis_ns = t0.elapsed().as_nanos() as u64;

    cache.evict_stale();

    if sink.enabled() {
        use crate::diag::Severity;
        sink.count("analyzer.functions", report.counters.functions as u64);
        sink.count(
            "analyzer.regions_total",
            report.counters.regions_total as u64,
        );
        sink.count(
            "analyzer.regions_proven",
            report.counters.regions_proven as u64,
        );
        sink.count("analyzer.diags_error", report.count(Severity::Error) as u64);
        sink.count(
            "analyzer.diags_warning",
            report.count(Severity::Warning) as u64,
        );
        sink.count("analyzer.diags_info", report.count(Severity::Info) as u64);
        sink.count("analyzer.incr.hits", cache.stats.hits - stats0.hits);
        sink.count("analyzer.incr.misses", cache.stats.misses - stats0.misses);
        sink.count(
            "analyzer.incr.invalidations",
            cache.stats.invalidations - stats0.invalidations,
        );
        sink.span("analyzer", "total", 0, report.counters.analysis_ns);
    }
    report
}

/// [`Summaries::compute`] served through `cache` with SCC-merkle
/// invalidation: a component recomputes its absorption fixed point only
/// when its own bodies or a (transitive) callee component changed; body
/// summaries are additionally cached by body fingerprint so dependents skip
/// the expensive per-body scan.
pub(crate) fn summaries_incremental(
    module: &Module,
    cg: &CallGraph,
    cache: &mut AnalysisCache,
    facts: &ModuleFacts<'_>,
) -> Summaries {
    let n = module.function_count();
    let ctx = ctx_digest(module);
    let mut by_func: Vec<FuncSummary> = vec![FuncSummary::default(); n];
    let mut scc_fp_of: Vec<u64> = vec![0; n];
    let stamp = cache.cur;
    for scc in cg.sccs_bottom_up() {
        // Merkle fingerprint: member bodies, then the fingerprints of the
        // components this one calls into (already computed — bottom-up).
        let mut h = FxHasher::default();
        h.write_u64(FMT_VERSION);
        h.write_u64(ctx);
        let members: HashSet<_> = scc.iter().copied().collect();
        for &fid in scc {
            if fid.index() < n {
                h.write_u64(body_fp(ctx, module.function(fid)));
            }
        }
        for &fid in scc {
            for &callee in cg.callees(fid) {
                if !members.contains(&callee) && callee.index() < n {
                    h.write_u64(scc_fp_of[callee.index()]);
                }
            }
        }
        let scc_fp = h.finish();
        for &fid in scc {
            if fid.index() < n {
                scc_fp_of[fid.index()] = scc_fp;
            }
        }

        let cached = match cache.sccs.get_mut(&scc_fp) {
            Some(e) if e.sums.len() == scc.len() => {
                let old = std::mem::replace(&mut e.stamp, stamp);
                restamp(&mut cache.modules, scc_fp, Some(old), stamp);
                Some(e.sums.clone())
            }
            _ => None,
        };
        if let Some(sums) = cached {
            for (i, &fid) in scc.iter().enumerate() {
                if fid.index() < n {
                    by_func[fid.index()] = sums[i].clone();
                }
            }
            cache.stats.summary_hits += scc.len() as u64;
            continue;
        }

        // Recompute this component: seed bodies (cache-served), then the
        // same callee-absorption fixed point `Summaries::compute` runs.
        for &fid in scc {
            if fid.index() < n {
                by_func[fid.index()] = cache.body_summary(module, ctx, fid, facts);
            }
        }
        loop {
            let mut changed = false;
            for &fid in scc {
                if fid.index() >= n {
                    continue;
                }
                for &callee in cg.callees(fid) {
                    if callee == fid || callee.index() >= n {
                        continue;
                    }
                    let callee_sum = by_func[callee.index()].clone();
                    changed |= by_func[fid.index()].absorb(&callee_sum);
                }
            }
            if !changed {
                break;
            }
        }
        let replaced = cache.sccs.insert(
            scc_fp,
            SccEntry {
                sums: scc
                    .iter()
                    .filter(|f| f.index() < n)
                    .map(|f| by_func[f.index()].clone())
                    .collect(),
                stamp,
            },
        );
        restamp(&mut cache.modules, scc_fp, replaced.map(|e| e.stamp), stamp);
        cache.stats.summary_misses += scc.len() as u64;
    }
    Summaries::from_parts(by_func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzeOptions};
    use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{MemRef, Operand};

    fn demo_module(extra: u64) -> Module {
        let mut m = Module::new("incr-demo");
        let g = m.add_global("buf", 8);
        let base = m.global_addr(g);
        let mut helper = FunctionBuilder::new("helper", 0);
        let he = helper.entry();
        let hv = helper.vreg();
        helper.push(he, Inst::load(hv, MemRef::abs(base)));
        helper.push(
            he,
            Inst::Ret {
                val: Some(hv.into()),
            },
        );
        let helper_id = m.add_function(helper.build());
        let mut main = FunctionBuilder::new("main", 0);
        let e = main.entry();
        let r = main.vreg();
        main.push(e, Inst::store(Operand::imm(extra), MemRef::abs(base)));
        main.push(
            e,
            Inst::Call {
                func: helper_id,
                args: vec![],
                ret: Some(r),
                save_regs: vec![],
            },
        );
        main.push(e, Inst::Out { val: r.into() });
        main.push(e, Inst::Halt);
        let id = m.add_function(main.build());
        m.set_entry(id);
        m
    }

    fn norm_text(mut r: Report) -> String {
        r.counters.analysis_ns = 0;
        format!("{}\n{}", r.render_text(), r.to_json())
    }

    #[test]
    fn incremental_matches_full_on_compiled_module() {
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&demo_module(7));
        let mut cache = AnalysisCache::new();
        let full = analyze(&compiled.module, &compiled.slices);
        let cold = analyze_incremental(&compiled.module, &compiled.slices, &mut cache);
        let warm = analyze_incremental(&compiled.module, &compiled.slices, &mut cache);
        assert_eq!(norm_text(full.clone()), norm_text(cold));
        assert_eq!(norm_text(full), norm_text(warm));
        let st = cache.stats();
        assert_eq!(
            st.misses,
            compiled.module.function_count() as u64,
            "cold run analyzes all"
        );
        assert_eq!(
            st.hits,
            compiled.module.function_count() as u64,
            "warm run replays all"
        );
    }

    #[test]
    fn mutation_invalidates_only_the_changed_function() {
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&demo_module(7));
        let mut cache = AnalysisCache::new();
        let _ = analyze_incremental(&compiled.module, &compiled.slices, &mut cache);
        let before = cache.stats();
        // Mutate main only (same name, new content): one miss + one
        // invalidation, every other function hits.
        let mut mutated = compiled.module.clone();
        let entry = mutated.entry().unwrap();
        let blocks = &mut mutated.function_mut(entry).blocks;
        blocks[0].insts.insert(
            0,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        let full = analyze(&mutated, &compiled.slices);
        let inc = analyze_incremental(&mutated, &compiled.slices, &mut cache);
        assert_eq!(norm_text(full), norm_text(inc));
        let st = cache.stats();
        assert_eq!(
            st.misses - before.misses,
            1,
            "only the mutated function re-analyzed"
        );
        assert_eq!(st.invalidations - before.invalidations, 1);
        assert_eq!(
            st.hits - before.hits,
            compiled.module.function_count() as u64 - 1
        );
    }

    #[test]
    fn deleted_function_is_evicted_after_grace_generations() {
        // From a fresh counter, and across the 32-bit run counter's wrap.
        for start in [0, u32::MAX - 2] {
            let with_helper = demo_module(3);
            let mut cache = AnalysisCache::new();
            cache.begin_run("incr-demo");
            cache.modules[0].runs = start;
            let empty = SliceTable::new();
            let _ = analyze_incremental(&with_helper, &empty, &mut cache);
            assert!(cache.tracks_function("incr-demo", "helper"));
            let entries_with_helper = cache.len();
            // A rebuilt module without the helper: the stale entry stops
            // being refreshed and ages out after the grace window.
            let mut without = Module::new("incr-demo");
            let g = without.add_global("buf", 8);
            let base = without.global_addr(g);
            let mut main = FunctionBuilder::new("main", 0);
            let e = main.entry();
            main.push(e, Inst::store(Operand::imm(3), MemRef::abs(base)));
            main.push(e, Inst::Halt);
            let id = without.add_function(main.build());
            without.set_entry(id);
            for _ in 0..(KEEP_GENERATIONS + 1) {
                let _ = analyze_incremental(&without, &empty, &mut cache);
            }
            assert!(cache.stats().evicted > 0, "stale entries evicted");
            assert!(
                !cache.tracks_function("incr-demo", "helper"),
                "deleted function no longer tracked"
            );
            assert!(cache.len() < entries_with_helper);
            // The entries refreshed every run survive.
            let before = cache.stats();
            let _ = analyze_incremental(&without, &empty, &mut cache);
            assert_eq!(cache.stats().hits - before.hits, 1, "start {start}");
            assert_eq!(cache.stats().misses, before.misses, "start {start}");
        }
    }

    #[test]
    fn unrelated_modules_streaming_through_do_not_age_entries() {
        // One cache serving a corpus: module A's entries must survive any
        // number of *other* modules passing through — aging is per-module.
        let a = demo_module(1);
        let empty = SliceTable::new();
        let mut cache = AnalysisCache::new();
        let _ = analyze_incremental(&a, &empty, &mut cache);
        let a_cold = cache.stats();
        for extra in 0..(3 * KEEP_GENERATIONS) {
            let mut other = demo_module(100 + u64::from(extra));
            other.name = format!("other-{extra}");
            let _ = analyze_incremental(&other, &empty, &mut cache);
        }
        let before = cache.stats();
        let _ = analyze_incremental(&a, &empty, &mut cache);
        let st = cache.stats();
        assert_eq!(
            st.hits - before.hits,
            a.function_count() as u64,
            "module A fully hits after {} other-module runs",
            3 * KEEP_GENERATIONS
        );
        assert_eq!(st.misses, before.misses, "no function of A re-analyzed");
        let _ = a_cold;
    }

    #[test]
    fn incremental_summaries_match_full_and_hit_on_unchanged_callees() {
        let m = demo_module(5);
        let cg = CallGraph::compute(&m);
        let full = Summaries::compute(&m, &cg);
        let mut cache = AnalysisCache::new();
        cache.begin_run("incr-demo");
        let inc = summaries_incremental(&m, &cg, &mut cache, &ModuleFacts::new(&m));
        for (fid, _) in m.iter_functions() {
            assert_eq!(full.get(fid), inc.get(fid));
        }
        let miss0 = cache.stats().summary_misses;
        assert_eq!(miss0, m.function_count() as u64);
        // Mutate the caller: the leaf component is untouched and hits.
        let mut m2 = m.clone();
        let entry = m2.entry().unwrap();
        m2.function_mut(entry).blocks[0].insts.insert(
            0,
            Inst::Out {
                val: Operand::imm(9),
            },
        );
        let cg2 = CallGraph::compute(&m2);
        let full2 = Summaries::compute(&m2, &cg2);
        cache.begin_run("incr-demo");
        let inc2 = summaries_incremental(&m2, &cg2, &mut cache, &ModuleFacts::new(&m2));
        for (fid, _) in m2.iter_functions() {
            assert_eq!(full2.get(fid), inc2.get(fid));
        }
        let st = cache.stats();
        assert_eq!(st.summary_hits, 1, "helper SCC served from cache");
        assert_eq!(st.summary_misses - miss0, 1, "only main's SCC recomputed");
    }

    #[test]
    fn layered_incremental_matches_analyze_with() {
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&demo_module(2));
        let opts = AnalyzeOptions {
            interproc: true,
            races: false,
            persist: true,
            cores: 2,
        };
        let (full, _, pc) = crate::analyze_with(&compiled.module, &compiled.slices, &opts);
        assert!(pc.is_some(), "persist layer ran");
        let mut cache = AnalysisCache::new();
        for _ in 0..2 {
            let (inc, _, inc_pc) =
                crate::analyze_with_cache(&compiled.module, &compiled.slices, &opts, &mut cache);
            assert_eq!(norm_text(full.clone()), norm_text(inc));
            assert_eq!(pc, inc_pc, "cached persist counters identical");
        }
    }

    #[test]
    fn keys_move_with_one_instruction_and_one_restore() {
        use cwsp_compiler::slice::{RecoverySlice, RematExpr, RsSource, SliceTable};
        use cwsp_ir::inst::BinOp;
        use cwsp_ir::types::Reg;
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&demo_module(3));
        let m = &compiled.module;
        let ctx = ctx_digest(m);
        let f = m.function(m.entry().unwrap());
        let region = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Boundary { id } => Some(*id),
                _ => None,
            })
            .expect("compiled main has a boundary");
        let table = |restores: Option<Vec<(Reg, RsSource)>>| {
            let mut t = SliceTable::new();
            if let Some(restores) = restores {
                t.insert(region, RecoverySlice { restores });
            }
            t
        };
        let r0 = Reg(0);
        let expr = |c| {
            RsSource::Expr(RematExpr::Bin(
                BinOp::Add,
                Box::new(RematExpr::Slot(Reg(1))),
                Box::new(RematExpr::Const(c)),
            ))
        };
        let tables = [
            table(None),
            table(Some(vec![])),
            table(Some(vec![(r0, RsSource::Slot)])),
            table(Some(vec![(Reg(1), RsSource::Slot)])),
            table(Some(vec![(r0, RsSource::Const(1))])),
            table(Some(vec![(r0, RsSource::Const(2))])),
            table(Some(vec![(r0, expr(1))])),
            table(Some(vec![(r0, expr(2))])),
        ];
        let mut fps: Vec<u64> = tables.iter().map(|t| diag_fp(ctx, f, t)).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(
            fps.len(),
            tables.len(),
            "every restore change moves diag_fp"
        );
        assert_eq!(
            diag_fp(ctx, f, &tables[2]),
            diag_fp(ctx, &f.clone(), &tables[2].clone()),
            "equal content, equal key"
        );

        // One operand of the first store: both keys move.
        let mut g = f.clone();
        let src = g
            .blocks
            .iter_mut()
            .flat_map(|b| b.insts.iter_mut())
            .find_map(|i| match i {
                Inst::Store { src, .. } => Some(src),
                _ => None,
            })
            .expect("main stores");
        *src = Operand::imm(1234);
        assert_ne!(body_fp(ctx, &g), body_fp(ctx, f));
        assert_ne!(diag_fp(ctx, &g, &tables[2]), diag_fp(ctx, f, &tables[2]));
    }
}
