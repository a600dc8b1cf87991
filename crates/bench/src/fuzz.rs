//! Resumable sharded differential-fuzzing farm.
//!
//! The farm closes the loop on the static analyzer the same way the
//! committed differential suites do, but continuously and crash-durably:
//! it generates sequential and concurrent genprog modules, runs each one
//! through a static-vs-dynamic differential, and periodically plants a bug
//! it *knows* must be caught (dropped checkpoint, unsynchronized store),
//! auto-minimizing the reproducer when it is. Every verdict is committed to
//! the `cwsp_store` LSM spine **atomically with the shard's progress
//! cursor**, so a `kill -9` mid-run loses at most the module in flight —
//! `--resume` skips exactly the seeds whose corpus entry landed and re-runs
//! the rest. Duplicates are impossible by construction: corpus entries are
//! keyed by seed and only ever written once per run fingerprint.
//!
//! Differentials per module kind:
//!
//! - **sequential** — `analyze` vs [`cwsp_analyzer::analyze_incremental`]
//!   must render byte-identically; static-clean modules must pass every
//!   dynamic checker (`check_all`); the reference interpreter and the fast
//!   interpreter must agree on output/return/steps.
//! - **concurrent** — static-race-clean must imply oracle-clean on every
//!   explored schedule (`cwsp_sim::race::check_module`).
//! - **injection self-check** — a known-bad mutation
//!   ([`cwsp_core::genprog::inject_dropped_ckpt`] /
//!   [`inject_unsynced_store`] / [`inject_dropped_flush`] /
//!   [`inject_dropped_fence`]) must be flagged, then the module is
//!   delta-debugged down to a minimal reproducer while the flag keeps
//!   firing. The flush/fence injections double as a live translation
//!   validation of the autofence pass: the un-mutated pass output must be
//!   I6-clean, an injected redundant flush must normalize away, and each
//!   drop must be caught with a witness naming the exact store or commit.
//!
//! Spine keyspaces (see `cwsp_store::spine::Key`): kind 3 holds per-shard
//! progress plus the run manifest, kind 4 the corpus keyed by seed, kind 5
//! per-shard coverage histograms.

use crate::engine::par_map;
use crate::json::{self, Value};
use cwsp_analyzer::races::{check_concurrency, RaceOptions};
use cwsp_analyzer::{analyze, analyze_incremental, persist, AnalysisCache, Report, Severity};
use cwsp_compiler::autofence;
use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp_compiler::slice::RsSource;
use cwsp_compiler::verify::check_all;
use cwsp_core::genprog::{
    generate, generate_concurrent, inject_dropped_ckpt, inject_dropped_fence, inject_dropped_flush,
    inject_redundant_flush, inject_unsynced_store, ConcSpec, ProgramSpec,
};
use cwsp_ir::function::Block;
use cwsp_ir::fxhash::FxHasher;
use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;
use cwsp_sim::race::{check_module, OracleConfig};
use cwsp_store::spine::{Key, Spine};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// Bump when record formats or the differential battery change shape;
/// folded into the run fingerprint so stale corpora are never resumed into.
/// Version 2: the injection rotation grew the dropped-flush/dropped-fence
/// self-checks against the autofence pass + I6 analyzer.
const FUZZ_FORMAT: u64 = 2;

/// Shape of the generated sequential modules (mirrors the committed
/// `static_dynamic_differential` corpus spec).
const SEQ_SPEC: ProgramSpec = ProgramSpec {
    globals: 2,
    global_words: 8,
    segments: 4,
    max_trip: 4,
    calls: true,
};

/// Farm configuration. The run fingerprint covers every field **except
/// `budget`**, so a resumed run may extend the budget without orphaning the
/// existing corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Worker shards; seed `i` belongs to shard `i % shards`.
    pub shards: u64,
    /// Total seeds (across all shards) this invocation drives to.
    pub budget: u64,
    /// Base offset added to every seed index before generation.
    pub seed_base: u64,
    /// Every `conc_every`-th seed generates a concurrent module.
    pub conc_every: u64,
    /// Every `inject_every`-th seed runs the known-bad injection self-check
    /// (takes precedence over `conc_every`; 0 disables injection).
    pub inject_every: u64,
    /// Dynamic-checker step budget per module.
    pub max_steps: u64,
    /// Race-oracle schedules per concurrent module.
    pub schedules: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            shards: 4,
            budget: 64,
            seed_base: 0xF002,
            conc_every: 3,
            inject_every: 5,
            max_steps: 200_000,
            schedules: 4,
        }
    }
}

/// The run fingerprint: identifies one logical fuzzing campaign in the
/// spine. Excludes `budget` (resume may extend it) but includes `shards`
/// (the seed→shard mapping would silently reshuffle progress keys).
pub fn run_fp(cfg: &FuzzConfig) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(FUZZ_FORMAT);
    h.write_u64(cfg.shards);
    h.write_u64(cfg.seed_base);
    h.write_u64(cfg.conc_every);
    h.write_u64(cfg.inject_every);
    h.write_u64(cfg.max_steps);
    h.write_u64(cfg.schedules as u64);
    h.finish()
}

/// What one farm invocation did.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// The campaign fingerprint (spine key prefix).
    pub run_fp: u64,
    /// Seeds executed by this invocation.
    pub completed: u64,
    /// Seeds skipped because a prior (possibly killed) invocation already
    /// committed their corpus entry.
    pub resumed: u64,
    /// Human-readable divergence descriptions (empty on a healthy run).
    pub divergences: Vec<String>,
    /// Injection self-checks run / caught-and-minimized.
    pub injected: u64,
    /// Injections the analyzer caught (must equal `injected`).
    pub injected_caught: u64,
    /// Largest minimized reproducer, in total instructions.
    pub max_min_insts: usize,
    /// Corpus entries now present for this campaign.
    pub corpus_len: u64,
    /// Analyzer-cache lookups served from the shared incremental cache.
    pub incr_hits: u64,
    /// Analyzer-cache lookups that had to analyze.
    pub incr_misses: u64,
}

/// Outcome of the spine-backed manifest audit ([`manifest_check`]).
#[derive(Debug, Clone, Default)]
pub struct ManifestCheck {
    /// Seeds the manifest says the campaign has driven to.
    pub expected: u64,
    /// Distinct corpus seeds actually present in `[0, expected)`.
    pub present: u64,
    /// Seeds written more than once (must be 0: corpus entries are
    /// immutable per campaign).
    pub duplicated: u64,
    /// Seed indices missing from the corpus (lost work).
    pub missing: Vec<u64>,
    /// Divergence total accumulated across all invocations.
    pub divergences: u64,
}

impl ManifestCheck {
    /// No lost and no duplicated corpus entries.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty() && self.duplicated == 0 && self.present == self.expected
    }
}

/// What kind of module a seed index drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedKind {
    Sequential,
    Concurrent,
    InjectCkpt,
    InjectStore,
    InjectFlush,
    InjectFence,
}

fn seed_kind(cfg: &FuzzConfig, i: u64) -> SeedKind {
    if cfg.inject_every != 0 && (i + 1).is_multiple_of(cfg.inject_every) {
        match (i / cfg.inject_every) % 4 {
            0 => SeedKind::InjectCkpt,
            1 => SeedKind::InjectStore,
            2 => SeedKind::InjectFlush,
            _ => SeedKind::InjectFence,
        }
    } else if cfg.conc_every != 0 && (i + 1).is_multiple_of(cfg.conc_every) {
        SeedKind::Concurrent
    } else {
        SeedKind::Sequential
    }
}

fn kind_str(k: SeedKind) -> &'static str {
    match k {
        SeedKind::Sequential => "seq",
        SeedKind::Concurrent => "conc",
        SeedKind::InjectCkpt => "inject-ckpt",
        SeedKind::InjectStore => "inject-store",
        SeedKind::InjectFlush => "inject-flush",
        SeedKind::InjectFence => "inject-fence",
    }
}

/// Normalized report text: wall time zeroed so byte-comparison is
/// deterministic, text and JSON renderings concatenated.
fn norm_report(r: &Report) -> String {
    let mut r = r.clone();
    r.counters.analysis_ns = 0;
    format!("{}\n{}", r.render_text(), r.to_json())
}

fn count_insts(m: &Module) -> usize {
    m.iter_functions()
        .flat_map(|(_, f)| f.iter_blocks())
        .map(|(_, b)| b.insts.len())
        .sum()
}

// ---------------------------------------------------------------------------
// Coverage buckets.
// ---------------------------------------------------------------------------

/// Coarse op-mix bucket: quartile-quantized shares of memory, control, and
/// synchronization instructions (e.g. `m2-c1-s0`).
fn op_mix_bucket(m: &Module) -> String {
    let (mut mem, mut ctrl, mut sync, mut total) = (0usize, 0usize, 0usize, 0usize);
    for (_, f) in m.iter_functions() {
        for (_, b) in f.iter_blocks() {
            for i in &b.insts {
                total += 1;
                match i {
                    Inst::Load { .. } | Inst::Store { .. } => mem += 1,
                    Inst::Br { .. }
                    | Inst::CondBr { .. }
                    | Inst::Call { .. }
                    | Inst::Ret { .. } => ctrl += 1,
                    Inst::AtomicRmw { .. } | Inst::Fence => sync += 1,
                    _ => {}
                }
            }
        }
    }
    let q = |n: usize| (4 * n).checked_div(total).unwrap_or(0).min(3);
    format!("m{}-c{}-s{}", q(mem), q(ctrl), q(sync))
}

/// CFG-shape bucket: function count, log2-quantized block count, and
/// whether any function has a back edge (a loop).
fn cfg_shape_bucket(m: &Module) -> String {
    let funcs = m.function_count();
    let blocks: usize = m.iter_functions().map(|(_, f)| f.blocks.len()).sum();
    let mut has_loop = false;
    for (_, f) in m.iter_functions() {
        for (bid, b) in f.iter_blocks() {
            for i in &b.insts {
                let back = |t: cwsp_ir::function::BlockId| t.0 <= bid.0;
                match i {
                    Inst::Br { target } if back(*target) => has_loop = true,
                    Inst::CondBr {
                        if_true, if_false, ..
                    } if back(*if_true) || back(*if_false) => has_loop = true,
                    _ => {}
                }
            }
        }
    }
    let lg = (usize::BITS - blocks.max(1).leading_zeros() - 1) as usize;
    format!("f{funcs}-b{lg}{}", if has_loop { "-loop" } else { "" })
}

/// Region-shape bucket: boundary count quantized, plus (for compiled
/// modules) how many recovery slices restore from checkpoint slots.
fn region_shape_bucket(m: &Module, slices: Option<&cwsp_compiler::slice::SliceTable>) -> String {
    let boundaries = m
        .iter_functions()
        .flat_map(|(_, f)| f.iter_blocks())
        .flat_map(|(_, b)| &b.insts)
        .filter(|i| matches!(i, Inst::Boundary { .. }))
        .count();
    let slots = slices
        .map(|s| {
            s.iter()
                .flat_map(|(_, sl)| &sl.restores)
                .filter(|(_, src)| matches!(src, RsSource::Slot))
                .count()
        })
        .unwrap_or(0);
    format!("r{}-s{}", (boundaries / 4).min(15), (slots / 4).min(15))
}

// ---------------------------------------------------------------------------
// Delta-debugging minimizer.
// ---------------------------------------------------------------------------

/// Drop a function's unreachable blocks, renumbering branch targets.
/// Returns `None` when every block is reachable (nothing to do).
fn drop_unreachable_blocks(f: &cwsp_ir::function::Function) -> Option<Vec<Block>> {
    use cwsp_ir::function::BlockId;
    let n = f.blocks.len();
    let mut reach = vec![false; n];
    let mut stack = vec![0usize];
    reach[0] = true;
    while let Some(b) = stack.pop() {
        for i in &f.blocks[b].insts {
            let mut visit = |t: BlockId| {
                if let Some(r) = reach.get_mut(t.index()) {
                    if !*r {
                        *r = true;
                        stack.push(t.index());
                    }
                }
            };
            match i {
                Inst::Br { target } => visit(*target),
                Inst::CondBr {
                    if_true, if_false, ..
                } => {
                    visit(*if_true);
                    visit(*if_false);
                }
                _ => {}
            }
        }
    }
    if reach.iter().all(|&r| r) {
        return None;
    }
    let mut remap = vec![0u32; n];
    let mut next = 0u32;
    for (old, &r) in reach.iter().enumerate() {
        if r {
            remap[old] = next;
            next += 1;
        }
    }
    let rm = |t: BlockId| BlockId(remap[t.index()]);
    Some(
        f.blocks
            .iter()
            .enumerate()
            .filter(|(b, _)| reach[*b])
            .map(|(_, blk)| Block {
                insts: blk
                    .insts
                    .iter()
                    .map(|i| match i {
                        Inst::Br { target } => Inst::Br {
                            target: rm(*target),
                        },
                        Inst::CondBr {
                            cond,
                            if_true,
                            if_false,
                        } => Inst::CondBr {
                            cond: *cond,
                            if_true: rm(*if_true),
                            if_false: rm(*if_false),
                        },
                        other => other.clone(),
                    })
                    .collect(),
            })
            .collect(),
    )
}

/// Shrink `m` while `pred` keeps holding (and the module keeps validating).
///
/// Four reduction moves, iterated to a fixed point: replace whole function
/// bodies with a bare `Ret`, collapse `CondBr` to an unconditional `Br`,
/// drop the blocks that collapse made unreachable, and remove instruction
/// chunks (halves down to singles) from each block.
pub fn minimize(m: &Module, pred: &dyn Fn(&Module) -> bool) -> Module {
    let mut cur = m.clone();
    debug_assert!(pred(&cur), "minimizer seeded with a non-reproducing module");
    let accept =
        |cand: &Module, pred: &dyn Fn(&Module) -> bool| cand.validate().is_ok() && pred(cand);
    loop {
        let mut progressed = false;

        // Move 1: gut entire function bodies.
        let fids: Vec<_> = cur.iter_functions().map(|(fid, _)| fid).collect();
        for fid in &fids {
            if count_insts(&cur) <= 1 {
                break;
            }
            if cur.function(*fid).blocks.len() == 1 && cur.function(*fid).blocks[0].insts.len() <= 1
            {
                continue;
            }
            let mut cand = cur.clone();
            cand.function_mut(*fid).blocks = vec![Block {
                insts: vec![Inst::Ret { val: None }],
            }];
            if accept(&cand, pred) {
                cur = cand;
                progressed = true;
            }
        }

        // Move 2: collapse conditional branches.
        for fid in &fids {
            let nblocks = cur.function(*fid).blocks.len();
            for b in 0..nblocks {
                let Some(Inst::CondBr {
                    if_true, if_false, ..
                }) = cur.function(*fid).blocks[b].insts.last().cloned()
                else {
                    continue;
                };
                for target in [if_true, if_false] {
                    let mut cand = cur.clone();
                    let insts = &mut cand.function_mut(*fid).blocks[b].insts;
                    *insts.last_mut().unwrap() = Inst::Br { target };
                    if accept(&cand, pred) {
                        cur = cand;
                        progressed = true;
                        break;
                    }
                }
            }
        }

        // Move 3: drop blocks the collapses made unreachable.
        for fid in &fids {
            if let Some(blocks) = drop_unreachable_blocks(cur.function(*fid)) {
                let mut cand = cur.clone();
                cand.function_mut(*fid).blocks = blocks;
                if accept(&cand, pred) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        // Move 4: chunked instruction removal, halving down to singles.
        for fid in &fids {
            let nblocks = cur.function(*fid).blocks.len();
            for b in 0..nblocks {
                let mut chunk = cur.function(*fid).blocks[b].insts.len().max(1) / 2;
                while chunk >= 1 {
                    let mut start = 0;
                    while start < cur.function(*fid).blocks[b].insts.len() {
                        let len = cur.function(*fid).blocks[b].insts.len();
                        let end = (start + chunk).min(len);
                        let mut cand = cur.clone();
                        cand.function_mut(*fid).blocks[b].insts.drain(start..end);
                        if accept(&cand, pred) {
                            cur = cand;
                            progressed = true;
                            // Same start now names the next chunk.
                        } else {
                            start = end;
                        }
                    }
                    chunk /= 2;
                }
            }
        }

        if !progressed {
            return cur;
        }
    }
}

// ---------------------------------------------------------------------------
// Per-seed differentials.
// ---------------------------------------------------------------------------

/// One seed's verdict, ready to serialize into the corpus.
struct SeedResult {
    kind: SeedKind,
    verdict: &'static str,
    detail: String,
    divergence: Option<String>,
    min_insts: Option<usize>,
    buckets: [String; 3],
}

fn run_sequential(cfg: &FuzzConfig, seed: u64, cache: &Mutex<AnalysisCache>) -> SeedResult {
    let m = generate(&SEQ_SPEC, seed);
    let c = crate::engine::engine().compiled(&m, CompileOptions::default());
    let full = analyze(&c.module, &c.slices);
    let incr = {
        let mut cache = cache.lock().unwrap();
        analyze_incremental(&c.module, &c.slices, &mut cache)
    };
    let buckets = [
        op_mix_bucket(&c.module),
        cfg_shape_bucket(&c.module),
        region_shape_bucket(&c.module, Some(&c.slices)),
    ];
    if norm_report(&full) != norm_report(&incr) {
        return SeedResult {
            kind: SeedKind::Sequential,
            verdict: "divergent",
            detail: "incremental analysis differs from full analysis".into(),
            divergence: Some(format!(
                "seed {seed}: incremental vs full analysis mismatch:\nfull:\n{}\nincremental:\n{}",
                full.render_text(),
                incr.render_text()
            )),
            min_insts: None,
            buckets,
        };
    }
    if full.is_clean() {
        if let Err(e) = check_all(&m, &c.module, &c.slices, cfg.max_steps) {
            return SeedResult {
                kind: SeedKind::Sequential,
                verdict: "divergent",
                detail: format!("static-clean but dynamically dirty: {e}"),
                divergence: Some(format!("seed {seed}: static-clean, dynamic checker: {e}")),
                min_insts: None,
                buckets,
            };
        }
    }
    // Reference-vs-fast interpreter differential on the source module.
    let r = cwsp_ir::reference::run_ref(&m, cfg.max_steps);
    let f = cwsp_ir::interp::run(&m, cfg.max_steps);
    let agree = match (&r, &f) {
        (Ok(a), Ok(b)) => {
            a.output == b.output && a.return_value == b.return_value && a.steps == b.steps
        }
        (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
        _ => false,
    };
    if !agree {
        return SeedResult {
            kind: SeedKind::Sequential,
            verdict: "divergent",
            detail: "reference and fast interpreters disagree".into(),
            divergence: Some(format!(
                "seed {seed}: interpreter mismatch: ref={r:?} fast={f:?}"
            )),
            min_insts: None,
            buckets,
        };
    }
    SeedResult {
        kind: SeedKind::Sequential,
        verdict: "clean",
        detail: format!("diags={}", full.diagnostics.len()),
        divergence: None,
        min_insts: None,
        buckets,
    }
}

fn run_concurrent(cfg: &FuzzConfig, seed: u64) -> SeedResult {
    let spec = ConcSpec {
        cores: 2 + seed % 3,
        fences: seed.is_multiple_of(2),
        ..ConcSpec::default()
    };
    let m = generate_concurrent(&spec, seed);
    let cores = spec.cores as usize;
    let buckets = [
        op_mix_bucket(&m),
        cfg_shape_bucket(&m),
        region_shape_bucket(&m, None),
    ];
    let s = check_concurrency(
        &m,
        &RaceOptions {
            cores,
            ..RaceOptions::default()
        },
    );
    if s.diagnostics.is_empty() {
        let rep = check_module(
            &m,
            &OracleConfig {
                cores,
                schedules: cfg.schedules,
                ..OracleConfig::default()
            },
        );
        match rep {
            Ok(rep) if !rep.is_clean() => {
                return SeedResult {
                    kind: SeedKind::Concurrent,
                    verdict: "divergent",
                    detail: "static-race-clean but oracle found races".into(),
                    divergence: Some(format!(
                        "seed {seed}: static-clean, oracle races: {:?}",
                        rep.races.iter().map(|r| r.to_string()).collect::<Vec<_>>()
                    )),
                    min_insts: None,
                    buckets,
                };
            }
            Ok(_) => {}
            Err(e) => {
                return SeedResult {
                    kind: SeedKind::Concurrent,
                    verdict: "divergent",
                    detail: format!("oracle replay failed: {e}"),
                    divergence: Some(format!("seed {seed}: oracle replay failed: {e}")),
                    min_insts: None,
                    buckets,
                };
            }
        }
    }
    SeedResult {
        kind: SeedKind::Concurrent,
        verdict: "clean",
        detail: format!("static_diags={}", s.diagnostics.len()),
        divergence: None,
        min_insts: None,
        buckets,
    }
}

fn run_inject_ckpt(seed: u64) -> SeedResult {
    // Find a compiled module with a slot restore to corrupt (the generator
    // does not always produce one; scan forward deterministically).
    for probe in 0..16 {
        let m = generate(&SEQ_SPEC, seed.wrapping_add(probe * 0x9E37));
        let c = CwspCompiler::new(CompileOptions::default()).compile(&m);
        let mut bad = c.module.clone();
        let Some((region, reg)) = inject_dropped_ckpt(&mut bad, &c.slices) else {
            continue;
        };
        let caught = |m: &Module| {
            analyze(m, &c.slices)
                .diagnostics
                .iter()
                .any(|d| d.code == "I2-unsynced-slot" && d.region == Some(region.0))
        };
        let buckets = [
            op_mix_bucket(&bad),
            cfg_shape_bucket(&bad),
            region_shape_bucket(&bad, Some(&c.slices)),
        ];
        if !caught(&bad) {
            return SeedResult {
                kind: SeedKind::InjectCkpt,
                verdict: "missed",
                detail: format!("dropped ckpt of {reg:?} in {region:?} not flagged"),
                divergence: Some(format!(
                    "seed {seed}: injected dropped-ckpt ({region:?}, {reg:?}) NOT caught"
                )),
                min_insts: None,
                buckets,
            };
        }
        let min = minimize(&bad, &caught);
        return SeedResult {
            kind: SeedKind::InjectCkpt,
            verdict: "caught",
            detail: format!("I2-unsynced-slot on {region:?}, minimized"),
            divergence: None,
            min_insts: Some(count_insts(&min)),
            buckets,
        };
    }
    SeedResult {
        kind: SeedKind::InjectCkpt,
        verdict: "skipped",
        detail: "no slot restore found in 16 probes".into(),
        divergence: None,
        min_insts: None,
        buckets: ["-".into(), "-".into(), "-".into()],
    }
}

fn run_inject_store(seed: u64) -> SeedResult {
    let mut m = generate_concurrent(&ConcSpec::default(), seed);
    let Some(addr) = inject_unsynced_store(&mut m) else {
        return SeedResult {
            kind: SeedKind::InjectStore,
            verdict: "skipped",
            detail: "module has no shared global".into(),
            divergence: None,
            min_insts: None,
            buckets: ["-".into(), "-".into(), "-".into()],
        };
    };
    let caught = |m: &Module| {
        !check_concurrency(m, &RaceOptions::default())
            .diagnostics
            .is_empty()
    };
    let buckets = [
        op_mix_bucket(&m),
        cfg_shape_bucket(&m),
        region_shape_bucket(&m, None),
    ];
    if !caught(&m) {
        return SeedResult {
            kind: SeedKind::InjectStore,
            verdict: "missed",
            detail: format!("unsynced store to {addr:#x} not flagged"),
            divergence: Some(format!(
                "seed {seed}: injected unsynced store to {addr:#x} NOT caught"
            )),
            min_insts: None,
            buckets,
        };
    }
    let min = minimize(&m, &caught);
    SeedResult {
        kind: SeedKind::InjectStore,
        verdict: "caught",
        detail: format!("race on {addr:#x}, minimized"),
        divergence: None,
        min_insts: Some(count_insts(&min)),
        buckets,
    }
}

/// Dropped-flush self-check: autofence a generated module (must come out
/// I6-clean — a live translation validation), verify an injected redundant
/// flush normalizes away, then drop one flush and require the analyzer to
/// flag `I6-unflushed-store` with a witness rooted at the exact store the
/// flush covered.
fn run_inject_flush(seed: u64) -> SeedResult {
    let mut m = generate(&SEQ_SPEC, seed);
    autofence::run(&mut m);
    let buckets = [
        op_mix_bucket(&m),
        cfg_shape_bucket(&m),
        region_shape_bucket(&m, None),
    ];
    let fail = {
        let buckets = buckets.clone();
        move |detail: String, div: String| SeedResult {
            kind: SeedKind::InjectFlush,
            verdict: "missed",
            detail,
            divergence: Some(format!("seed {seed}: {div}")),
            min_insts: None,
            buckets: buckets.clone(),
        }
    };
    if !persist::i6_clean(&persist::check_module(&m).0) {
        return fail(
            "autofence output not I6-clean".into(),
            "translation validation failed: autofence output has I6 errors".into(),
        );
    }
    // Benign mutation: a duplicated flush must normalize away.
    let clean_text = cwsp_ir::pretty::fmt_module(&m);
    let mut dup = m.clone();
    if inject_redundant_flush(&mut dup).is_some() {
        autofence::run(&mut dup);
        if cwsp_ir::pretty::fmt_module(&dup) != clean_text {
            return fail(
                "redundant flush survived re-normalization".into(),
                "injected redundant flush NOT eliminated by autofence".into(),
            );
        }
    }
    let mut bad = m;
    let Some((fid, blk, store_idx)) = inject_dropped_flush(&mut bad) else {
        return SeedResult {
            kind: SeedKind::InjectFlush,
            verdict: "skipped",
            detail: "module has no flush to drop".into(),
            divergence: None,
            min_insts: None,
            buckets,
        };
    };
    let fname = bad.function(fid).name.clone();
    let located = persist::check_module(&bad).0.iter().any(|d| {
        d.code == "I6-unflushed-store"
            && d.severity == Severity::Error
            && d.location.function == fname
            && d.witness.as_ref().is_some_and(|w| {
                w.steps
                    .first()
                    .is_some_and(|s| s.block == blk && s.idx == store_idx)
            })
    });
    if !located {
        return fail(
            format!("dropped flush of store at b{blk}:{store_idx} not flagged"),
            format!("injected dropped-flush ({fname} b{blk}:{store_idx}) NOT caught with witness"),
        );
    }
    let caught = |m: &Module| {
        persist::check_module(m)
            .0
            .iter()
            .any(|d| d.code == "I6-unflushed-store" && d.severity == Severity::Error)
    };
    let min = minimize(&bad, &caught);
    SeedResult {
        kind: SeedKind::InjectFlush,
        verdict: "caught",
        detail: format!("I6-unflushed-store at {fname} b{blk}:{store_idx}, minimized"),
        divergence: None,
        min_insts: Some(count_insts(&min)),
        buckets,
    }
}

/// Dropped-fence self-check: autofence a generated module, drop one
/// `pfence`, and require `I6-unfenced-flush` reported *at the commit the
/// fence guarded*.
fn run_inject_fence(seed: u64) -> SeedResult {
    let mut m = generate(&SEQ_SPEC, seed);
    autofence::run(&mut m);
    let buckets = [
        op_mix_bucket(&m),
        cfg_shape_bucket(&m),
        region_shape_bucket(&m, None),
    ];
    if !persist::i6_clean(&persist::check_module(&m).0) {
        return SeedResult {
            kind: SeedKind::InjectFence,
            verdict: "missed",
            detail: "autofence output not I6-clean".into(),
            divergence: Some(format!(
                "seed {seed}: translation validation failed: autofence output has I6 errors"
            )),
            min_insts: None,
            buckets,
        };
    }
    let mut bad = m;
    let Some((fid, blk, commit_idx)) = inject_dropped_fence(&mut bad) else {
        return SeedResult {
            kind: SeedKind::InjectFence,
            verdict: "skipped",
            detail: "module has no pfence to drop".into(),
            divergence: None,
            min_insts: None,
            buckets,
        };
    };
    let fname = bad.function(fid).name.clone();
    let located = persist::check_module(&bad).0.iter().any(|d| {
        d.code == "I6-unfenced-flush"
            && d.severity == Severity::Error
            && d.location.function == fname
            && d.location.block == blk
            && d.location.inst == Some(commit_idx)
    });
    if !located {
        return SeedResult {
            kind: SeedKind::InjectFence,
            verdict: "missed",
            detail: format!("dropped pfence before b{blk}:{commit_idx} not flagged"),
            divergence: Some(format!(
                "seed {seed}: injected dropped-fence ({fname} b{blk}:{commit_idx}) \
                 NOT caught at the guarded commit"
            )),
            min_insts: None,
            buckets,
        };
    }
    let caught = |m: &Module| {
        persist::check_module(m)
            .0
            .iter()
            .any(|d| d.code == "I6-unfenced-flush" && d.severity == Severity::Error)
    };
    let min = minimize(&bad, &caught);
    SeedResult {
        kind: SeedKind::InjectFence,
        verdict: "caught",
        detail: format!("I6-unfenced-flush at {fname} b{blk}:{commit_idx}, minimized"),
        divergence: None,
        min_insts: Some(count_insts(&min)),
        buckets,
    }
}

// ---------------------------------------------------------------------------
// The farm driver.
// ---------------------------------------------------------------------------

fn corpus_record(seed_index: u64, gen_seed: u64, r: &SeedResult) -> Vec<u8> {
    let mut obj = vec![
        ("index".to_string(), Value::Int(seed_index)),
        ("seed".to_string(), Value::Int(gen_seed)),
        ("kind".to_string(), Value::Str(kind_str(r.kind).into())),
        ("verdict".to_string(), Value::Str(r.verdict.into())),
        ("detail".to_string(), Value::Str(r.detail.clone())),
    ];
    if let Some(n) = r.min_insts {
        obj.push(("min_insts".to_string(), Value::Int(n as u64)));
    }
    Value::Obj(obj).to_pretty().into_bytes()
}

/// Seed indices of `cfg`'s campaign already present in the spine.
fn done_seeds(spine: &Spine, fp: u64) -> Vec<u64> {
    spine
        .cursor_range(
            Key::fuzz_corpus(fp, 0),
            Key::fuzz_corpus(fp, u64::MAX),
            None,
        )
        .map(|(k, _, _)| k.b)
        .collect()
}

/// Run (or resume) the campaign described by `cfg` against the spine under
/// `dir`. Always idempotent: seed indices whose corpus entry already landed
/// are skipped, so re-invoking after a crash completes exactly the missing
/// work. Returns what this invocation observed.
pub fn run(dir: &Path, cfg: &FuzzConfig) -> io::Result<FuzzReport> {
    let fp = run_fp(cfg);
    let spine = Mutex::new(Spine::open(dir)?);
    let already: std::collections::HashSet<u64> = {
        let s = spine.lock().unwrap();
        done_seeds(&s, fp).into_iter().collect()
    };
    let pending: Vec<u64> = (0..cfg.budget).filter(|i| !already.contains(i)).collect();
    let resumed = cfg.budget - pending.len() as u64;

    // One work item per shard; each shard walks its own seeds in order and
    // commits [corpus + progress + coverage] atomically after every module.
    let cache = Mutex::new(AnalysisCache::new());
    let shard_ids: Vec<u64> = (0..cfg.shards).collect();
    let shard_outs: Vec<(u64, Vec<String>, u64, u64, usize)> = par_map(&shard_ids, |&shard| {
        let mut done_here = 0u64;
        let mut divergences: Vec<String> = Vec::new();
        let (mut injected, mut injected_caught, mut max_min) = (0u64, 0u64, 0usize);
        let mut coverage: BTreeMap<String, u64> = BTreeMap::new();
        for &i in pending.iter().filter(|&&i| i % cfg.shards == shard) {
            let gen_seed = cfg.seed_base.wrapping_add(i);
            let kind = seed_kind(cfg, i);
            let result = match kind {
                SeedKind::Sequential => run_sequential(cfg, gen_seed, &cache),
                SeedKind::Concurrent => run_concurrent(cfg, gen_seed),
                SeedKind::InjectCkpt => run_inject_ckpt(gen_seed),
                SeedKind::InjectStore => run_inject_store(gen_seed),
                SeedKind::InjectFlush => run_inject_flush(gen_seed),
                SeedKind::InjectFence => run_inject_fence(gen_seed),
            };
            done_here += 1;
            if !matches!(kind, SeedKind::Sequential | SeedKind::Concurrent)
                && result.verdict != "skipped"
            {
                injected += 1;
                if result.verdict == "caught" {
                    injected_caught += 1;
                }
            }
            if let Some(n) = result.min_insts {
                max_min = max_min.max(n);
            }
            if let Some(d) = &result.divergence {
                divergences.push(d.clone());
            }
            for b in &result.buckets {
                *coverage.entry(b.clone()).or_insert(0) += 1;
            }

            let progress = Value::Obj(vec![
                ("shard".into(), Value::Int(shard)),
                ("done".into(), Value::Int(done_here)),
                ("last_index".into(), Value::Int(i)),
                ("divergences".into(), Value::Int(divergences.len() as u64)),
            ]);
            let cov = Value::Obj(
                coverage
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Int(*v)))
                    .collect(),
            );
            let mut s = spine.lock().unwrap();
            // The atomic unit of the farm: corpus entry, shard cursor, and
            // coverage land together or not at all — kill -9 between
            // modules loses nothing, mid-module loses only that module.
            s.commit(vec![
                (Key::fuzz_corpus(fp, i), corpus_record(i, gen_seed, &result)),
                (
                    Key::fuzz_progress(fp, shard),
                    progress.to_pretty().into_bytes(),
                ),
                (Key::fuzz_coverage(fp, shard), cov.to_pretty().into_bytes()),
            ])
            .expect("spine commit");
        }
        (done_here, divergences, injected, injected_caught, max_min)
    });

    let mut report = FuzzReport {
        run_fp: fp,
        resumed,
        ..FuzzReport::default()
    };
    for (done, divs, inj, caught, max_min) in shard_outs {
        report.completed += done;
        report.divergences.extend(divs);
        report.injected += inj;
        report.injected_caught += caught;
        report.max_min_insts = report.max_min_insts.max(max_min);
    }

    // Manifest: cumulative campaign state, written last (it is the audit
    // anchor, not part of any per-seed atomic unit).
    {
        let mut s = spine.lock().unwrap();
        report.corpus_len = done_seeds(&s, fp).len() as u64;
        let prev_divs = s
            .get(Key::fuzz_manifest(fp))
            .and_then(|b| json::parse(std::str::from_utf8(b).ok()?).ok())
            .and_then(|v| v.get("divergences").and_then(Value::as_u64))
            .unwrap_or(0);
        let manifest = Value::Obj(vec![
            ("budget".into(), Value::Int(cfg.budget)),
            ("shards".into(), Value::Int(cfg.shards)),
            ("seed_base".into(), Value::Int(cfg.seed_base)),
            ("completed".into(), Value::Int(report.corpus_len)),
            (
                "divergences".into(),
                Value::Int(prev_divs + report.divergences.len() as u64),
            ),
        ]);
        s.commit(vec![(
            Key::fuzz_manifest(fp),
            manifest.to_pretty().into_bytes(),
        )])?;
    }

    let cache_stats = cache.lock().unwrap().stats();
    report.incr_hits = cache_stats.hits;
    report.incr_misses = cache_stats.misses;
    Ok(report)
}

/// Audit the campaign's corpus against its manifest: every seed index in
/// `[0, budget)` must be present exactly once (the resume guarantee), and
/// the stored divergence count is surfaced for CI gating.
pub fn manifest_check(dir: &Path, cfg: &FuzzConfig) -> io::Result<ManifestCheck> {
    let fp = run_fp(cfg);
    let spine = Spine::open(dir)?;
    let manifest = spine
        .get(Key::fuzz_manifest(fp))
        .and_then(|b| json::parse(std::str::from_utf8(b).ok()?).ok());
    let expected = manifest
        .as_ref()
        .and_then(|v| v.get("budget").and_then(Value::as_u64))
        .unwrap_or(cfg.budget);
    let divergences = manifest
        .as_ref()
        .and_then(|v| v.get("divergences").and_then(Value::as_u64))
        .unwrap_or(0);
    let mut check = ManifestCheck {
        expected,
        divergences,
        ..ManifestCheck::default()
    };
    let mut seen = std::collections::HashSet::new();
    for (k, _, _) in spine.cursor_range(
        Key::fuzz_corpus(fp, 0),
        Key::fuzz_corpus(fp, u64::MAX),
        None,
    ) {
        if k.b < expected {
            seen.insert(k.b);
        }
        if spine.history(k).len() > 1 {
            check.duplicated += 1;
        }
    }
    check.present = seen.len() as u64;
    check.missing = (0..expected).filter(|i| !seen.contains(i)).collect();
    Ok(check)
}

/// Render a one-screen text summary of a [`FuzzReport`].
pub fn render_report(r: &FuzzReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("fuzz farm run {:016x}\n", r.run_fp));
    out.push_str(&format!(
        "  completed {:>6}   resumed {:>6}   corpus {:>6}\n",
        r.completed, r.resumed, r.corpus_len
    ));
    out.push_str(&format!(
        "  injected  {:>6}   caught  {:>6}   max reproducer {} insts\n",
        r.injected, r.injected_caught, r.max_min_insts
    ));
    if r.divergences.is_empty() {
        out.push_str("  divergences: none\n");
    } else {
        out.push_str(&format!("  divergences: {}\n", r.divergences.len()));
        for d in &r.divergences {
            out.push_str(&format!("    {d}\n"));
        }
    }
    out
}

/// JSON rendering of a [`FuzzReport`] plus its [`ManifestCheck`].
pub fn report_json(r: &FuzzReport, check: &ManifestCheck) -> String {
    Value::Obj(vec![
        ("run_fp".into(), Value::Int(r.run_fp)),
        ("completed".into(), Value::Int(r.completed)),
        ("resumed".into(), Value::Int(r.resumed)),
        ("corpus".into(), Value::Int(r.corpus_len)),
        (
            "divergences".into(),
            Value::Arr(
                r.divergences
                    .iter()
                    .map(|d| Value::Str(d.clone()))
                    .collect(),
            ),
        ),
        ("injected".into(), Value::Int(r.injected)),
        ("injected_caught".into(), Value::Int(r.injected_caught)),
        ("max_min_insts".into(), Value::Int(r.max_min_insts as u64)),
        (
            "manifest".into(),
            Value::Obj(vec![
                ("expected".into(), Value::Int(check.expected)),
                ("present".into(), Value::Int(check.present)),
                ("duplicated".into(), Value::Int(check.duplicated)),
                (
                    "missing".into(),
                    Value::Arr(check.missing.iter().map(|&i| Value::Int(i)).collect()),
                ),
                ("complete".into(), Value::Bool(check.is_complete())),
            ]),
        ),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cwsp-fuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn seed_kinds_cycle_deterministically() {
        let cfg = FuzzConfig::default(); // conc_every 3, inject_every 5
        assert_eq!(seed_kind(&cfg, 0), SeedKind::Sequential);
        assert_eq!(seed_kind(&cfg, 2), SeedKind::Concurrent);
        assert_eq!(seed_kind(&cfg, 4), SeedKind::InjectCkpt);
        assert_eq!(seed_kind(&cfg, 9), SeedKind::InjectStore);
        assert_eq!(seed_kind(&cfg, 14), SeedKind::InjectFlush);
        assert_eq!(seed_kind(&cfg, 19), SeedKind::InjectFence);
        assert_eq!(seed_kind(&cfg, 24), SeedKind::InjectCkpt);
    }

    #[test]
    fn run_fp_ignores_budget_but_not_sharding() {
        let a = FuzzConfig::default();
        let b = FuzzConfig {
            budget: a.budget * 2,
            ..a
        };
        assert_eq!(
            run_fp(&a),
            run_fp(&b),
            "budget extension keeps the campaign"
        );
        let c = FuzzConfig { shards: 7, ..a };
        assert_ne!(run_fp(&a), run_fp(&c), "resharding is a new campaign");
    }

    #[test]
    fn minimizer_shrinks_an_injected_race_to_a_handful_of_insts() {
        let mut m = generate_concurrent(&ConcSpec::default(), 3);
        inject_unsynced_store(&mut m).expect("shared global");
        let caught = |m: &Module| {
            !check_concurrency(m, &RaceOptions::default())
                .diagnostics
                .is_empty()
        };
        assert!(caught(&m));
        let before = count_insts(&m);
        let min = minimize(&m, &caught);
        assert!(caught(&min), "minimized module still reproduces");
        assert!(min.validate().is_ok());
        let after = count_insts(&min);
        assert!(
            after <= 10,
            "reproducer not minimal: {after} insts (from {before})"
        );
    }

    #[test]
    fn small_campaign_is_clean_and_resume_is_idempotent() {
        let dir = tmp_dir("campaign");
        // Budget 20 reaches every injection kind in the rotation (seed
        // indices 4, 9, 14, 19: ckpt, store, flush, fence).
        let cfg = FuzzConfig {
            shards: 2,
            budget: 20,
            schedules: 2,
            ..FuzzConfig::default()
        };
        let first = run(&dir, &cfg).unwrap();
        assert_eq!(first.completed, 20);
        assert_eq!(first.resumed, 0);
        assert!(first.divergences.is_empty(), "{:?}", first.divergences);
        assert_eq!(first.injected, first.injected_caught);
        let check = manifest_check(&dir, &cfg).unwrap();
        assert!(check.is_complete(), "{check:?}");

        // Re-running the same budget does no new work and duplicates nothing.
        let second = run(&dir, &cfg).unwrap();
        assert_eq!(second.completed, 0);
        assert_eq!(second.resumed, 20);
        assert!(manifest_check(&dir, &cfg).unwrap().is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
