//! `cwsp-analyzer` — static crash-consistency verifier and IR lint engine.
//!
//! The compiler *constructs* the properties cWSP's correctness rests on;
//! the dynamic checkers in `cwsp_compiler::verify` / `cwsp_core::verify`
//! *witness* them on the paths an execution happens to take. This crate
//! closes the gap: given a compiled [`Module`] and its [`SliceTable`], it
//! proves — or reports counterexample paths for — four invariant families
//! on **all** paths, without executing anything:
//!
//! | id | family | pass |
//! |----|--------|------|
//! | I1 | idempotence (no intra-region WAR) | [`idem`] |
//! | I2 | checkpoint coverage at boundaries | [`ckpt`] |
//! | I3 | recovery-slice well-formedness | [`ckpt`] |
//! | I4 | structural boundary placement | [`structure`] |
//! | L  | general lints | [`lints`] |
//!
//! Entry points: [`analyze`] (returns a full [`diag::Report`]),
//! [`analyze_observed`] (same, publishing counters/spans through an
//! [`ObsSink`]), and [`verify_static`] (pass/fail over a
//! [`cwsp_compiler::Compiled`], the pipeline hook).
//!
//! The soundness contract, exercised by the repository's differential
//! suite: *static-clean ⇒ dynamic-clean* — a module with no error-severity
//! diagnostic passes every dynamic checker on every execution.

pub mod callgraph;
pub mod ckpt;
pub mod consts;
pub mod diag;
pub mod idem;
pub mod incr;
pub mod lints;
pub mod persist;
pub mod races;
pub mod structure;
pub mod summaries;
pub mod sync;

pub use diag::{
    Counters, Diagnostic, Invariant, Location, PathWitness, Report, Severity, SCHEMA_VERSION,
};
pub use incr::{analyze_incremental, analyze_incremental_observed, AnalysisCache, IncrStats};
pub use persist::PersistCounters;
pub use races::{RaceOptions, RaceStats};

use cwsp_compiler::slice::SliceTable;
use cwsp_compiler::Compiled;
use cwsp_ir::inst::Inst;
use cwsp_ir::module::Module;
use cwsp_ir::types::RegionId;
use cwsp_obs::sink::{NullSink, ObsSink};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Statically analyze `module` against `slices`, reporting all findings.
pub fn analyze(module: &Module, slices: &SliceTable) -> Report {
    analyze_observed(module, slices, &mut NullSink)
}

/// [`analyze`], additionally publishing per-pass spans (track `analyzer`)
/// and summary counters through `sink`.
pub fn analyze_observed(module: &Module, slices: &SliceTable, sink: &mut dyn ObsSink) -> Report {
    let t0 = Instant::now();
    let mut report = Report {
        module: module.name.clone(),
        ..Default::default()
    };

    check_module_level(module, &mut report);

    for (_, f) in module.iter_functions() {
        report.counters.functions += 1;
        analyze_function(module, f, slices, &mut report.diagnostics, sink, t0);
    }

    report.normalize();

    // A region counts as proven when no error-severity finding names it.
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

    if sink.enabled() {
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
        sink.span("analyzer", "total", 0, report.counters.analysis_ns);
    }
    report
}

/// Module-level structure checks — entry present, region ids unique across
/// functions — plus the `regions_total` counter. These facts span function
/// boundaries, so the incremental path recomputes them fresh on every run
/// (they are a single linear scan) rather than caching them per function.
pub(crate) fn check_module_level(module: &Module, report: &mut Report) {
    if module.entry().is_none() {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            invariant: Invariant::Lint,
            code: "L-no-entry",
            message: "module has no entry function".into(),
            location: Location {
                function: String::new(),
                block: 0,
                inst: None,
            },
            region: None,
            witness: None,
        });
    }
    let mut seen_regions: HashSet<RegionId> = HashSet::new();
    let mut region_count = 0usize;
    for (_, f) in module.iter_functions() {
        for (bid, block) in f.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                if let Inst::Boundary { id } = inst {
                    region_count += 1;
                    if !seen_regions.insert(*id) {
                        report.diagnostics.push(Diagnostic {
                            severity: Severity::Error,
                            invariant: Invariant::Structure,
                            code: "I4-dup-region-id",
                            message: format!("region id {id} assigned to more than one boundary"),
                            location: Location {
                                function: f.name.clone(),
                                block: bid.0,
                                inst: Some(i),
                            },
                            region: Some(id.0),
                            witness: None,
                        });
                    }
                }
            }
        }
    }
    report.counters.regions_total = region_count;
}

/// Run the per-function pass sequence — validation, structure, idempotence,
/// checkpoint coverage, lints — appending findings to `out` and publishing
/// per-pass spans (relative to `t0`) through `sink`.
///
/// This is the *unit of caching* for [`incr`]: the diagnostics it appends
/// depend only on the function body, the module's global layout, and the
/// recovery slices of the regions inside the function — never on other
/// function bodies — so they can be keyed by a content fingerprint over
/// exactly those inputs.
pub(crate) fn analyze_function(
    module: &Module,
    f: &cwsp_ir::function::Function,
    slices: &SliceTable,
    out: &mut Vec<Diagnostic>,
    sink: &mut dyn ObsSink,
    t0: Instant,
) {
    let span = |name: &str, since: Instant, sink: &mut dyn ObsSink| {
        let now = Instant::now();
        if sink.enabled() {
            sink.span(
                "analyzer",
                name,
                (since - t0).as_nanos() as u64,
                (now - since).as_nanos() as u64,
            );
        }
        now
    };
    // The analyzer must never panic on malformed input: a function that
    // fails basic validation is reported and skipped — its CFG cannot be
    // traversed meaningfully.
    if let Err(msg) = f.validate() {
        out.push(Diagnostic {
            severity: Severity::Error,
            invariant: Invariant::Structure,
            code: "I4-invalid-function",
            message: msg,
            location: Location {
                function: f.name.clone(),
                block: 0,
                inst: None,
            },
            region: None,
            witness: None,
        });
        return;
    }
    let mut t = Instant::now();
    structure::check_function(f, out);
    t = span("structure", t, sink);
    let roots = idem::root_regions(f);
    idem::check_function(module, f, &roots, out);
    t = span("idempotence", t, sink);
    ckpt::check_function(f, slices, out);
    t = span("checkpoints", t, sink);
    lints::check_function(module, f, slices, out);
    span("lints", t, sink);
}

/// Options for [`analyze_with`]: which optional analysis layers to run on
/// top of the sequential I1–I4 + lint passes.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Run the interprocedural call-graph/summary lints
    /// (`L-recursive-call`, `L-dead-function`, `I2-callee-clobbers-slot`).
    pub interproc: bool,
    /// Run the static race detector and I5 persist-order check.
    pub races: bool,
    /// Run the I6 durability-ordering analysis ([`persist`]): every
    /// NVM-visible store flushed and fenced before any commit point.
    pub persist: bool,
    /// Thread contexts for the race detector (core count).
    pub cores: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            interproc: false,
            races: false,
            persist: false,
            cores: 2,
        }
    }
}

/// [`analyze`] plus the opt-in interprocedural and concurrency layers.
/// Returns the merged report, the race detector's aggregate statistics
/// (when it ran), and the I6 persistency counters (when that layer ran).
pub fn analyze_with(
    module: &Module,
    slices: &SliceTable,
    opts: &AnalyzeOptions,
) -> (Report, Option<RaceStats>, Option<PersistCounters>) {
    analyze_layered(module, slices, opts, None)
}

/// [`analyze_with`] backed by an incremental [`AnalysisCache`]: the
/// sequential per-function passes and the interprocedural summaries are
/// served from the cache where fingerprints match; the race detector (whose
/// facts are whole-module interleavings) always runs fresh, over the same
/// summaries. Output is byte-identical to [`analyze_with`].
pub fn analyze_with_cache(
    module: &Module,
    slices: &SliceTable,
    opts: &AnalyzeOptions,
    cache: &mut AnalysisCache,
) -> (Report, Option<RaceStats>, Option<PersistCounters>) {
    analyze_layered(module, slices, opts, Some(cache))
}

fn analyze_layered(
    module: &Module,
    slices: &SliceTable,
    opts: &AnalyzeOptions,
    cache: Option<&mut AnalysisCache>,
) -> (Report, Option<RaceStats>, Option<PersistCounters>) {
    let t0 = Instant::now();
    let mut cache = cache;
    let mut report = match cache.as_deref_mut() {
        Some(c) => analyze_incremental(module, slices, c),
        None => analyze(module, slices),
    };
    let mut stats = None;
    let mut persist_counters = None;
    let mut race = races::RaceAnalysis::default();
    // The race detector analyzes only a module with a well-formed entry;
    // for any other it needs no summaries, and computing them over
    // malformed functions could panic.
    let races_run = opts.races && races::spmd_entry(module).is_some();
    if opts.interproc || opts.persist || races_run {
        // One summary computation feeds every layer; with a cache present
        // and a summary layer on it is served through the SCC-merkle
        // incremental path, so the I6 layer and the race detector inherit
        // the fuzz farm's warm-cache economics. The race detector alone
        // does not touch the cache: its traffic counters and aging stay
        // those of the sequential passes.
        let cg = callgraph::CallGraph::compute(module);
        let sums = match cache {
            Some(c) if opts.interproc || opts.persist => {
                incr::summaries_incremental(module, &cg, c)
            }
            _ => summaries::Summaries::compute(module, &cg),
        };
        if opts.interproc {
            report
                .diagnostics
                .extend(summaries::check_module(module, &cg, &sums));
        }
        if opts.persist {
            let (diags, counters) = persist::check_module_with(module, &sums);
            report.diagnostics.extend(diags);
            persist_counters = Some(counters);
        }
        if races_run {
            let race_opts = RaceOptions {
                cores: opts.cores.max(1),
                ..RaceOptions::default()
            };
            race = races::check_with(module, &cg, &sums, &race_opts);
        }
    }
    if opts.races {
        report.diagnostics.extend(race.diagnostics);
        stats = Some(race.stats);
    }
    report.normalize();
    // New error-severity findings can demote regions from proven.
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
    (report, stats, persist_counters)
}

/// Pipeline hook: verify a compiler artifact, returning the full report on
/// any error-severity finding. `Ok(())` means static-clean.
///
/// # Errors
/// The complete [`Report`] (including warnings) when at least one
/// error-severity diagnostic exists.
pub fn verify_static(compiled: &Compiled) -> Result<(), Box<Report>> {
    let report = analyze(&compiled.module, &compiled.slices);
    if report.is_clean() {
        Ok(())
    } else {
        Err(Box::new(report))
    }
}

/// Convenience: map each explicit boundary position to its region id —
/// shared by callers wanting per-region attribution.
pub fn boundary_positions(module: &Module) -> HashMap<RegionId, (String, u32, usize)> {
    let mut map = HashMap::new();
    for (_, f) in module.iter_functions() {
        for (bid, block) in f.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                if let Inst::Boundary { id } = inst {
                    map.insert(*id, (f.name.clone(), bid.0, i));
                }
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{MemRef, Operand};
    use cwsp_ir::layout::GLOBAL_BASE;
    use cwsp_obs::sink::MemSink;

    fn raw_war_module() -> Module {
        let mut m = Module::new("war");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let r0 = b.vreg();
        b.push(e, Inst::load(r0, MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::store(Operand::imm(1), MemRef::abs(GLOBAL_BASE)));
        b.push(e, Inst::Out { val: r0.into() });
        b.push(e, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        m
    }

    #[test]
    fn compiled_module_is_static_clean() {
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&raw_war_module());
        let report = analyze(&compiled.module, &compiled.slices);
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(report.counters.regions_total > 0);
        assert_eq!(
            report.counters.regions_proven,
            report.counters.regions_total
        );
        assert!(verify_static(&compiled).is_ok());
    }

    #[test]
    fn raw_module_with_war_fails_verification() {
        let m = raw_war_module();
        let report = analyze(&m, &SliceTable::new());
        assert!(!report.is_clean(), "{}", report.render_text());
        assert!(report
            .errors()
            .any(|d| d.code == "I1-mem-war" && d.witness.is_some()));
    }

    #[test]
    fn invalid_function_is_reported_not_panicked() {
        let mut m = Module::new("bad");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::Halt);
        let mut f = b.build();
        f.blocks[0].insts.pop(); // drop the terminator -> invalid
        let id = m.add_function(f);
        m.set_entry(id);
        let report = analyze(&m, &SliceTable::new());
        assert!(report.errors().any(|d| d.code == "I4-invalid-function"));
    }

    #[test]
    fn malformed_module_without_entry_is_reported_under_races() {
        // No entry and a branch out of range: the race layer has nothing to
        // analyze and must not compute summaries over the broken body.
        let mut m = Module::new("bad");
        let mut b = FunctionBuilder::new("f", 1);
        let e = b.entry();
        let c = b.param(0);
        b.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: cwsp_ir::function::BlockId(7),
                if_false: cwsp_ir::function::BlockId(9),
            },
        );
        m.add_function(b.build());
        let opts = AnalyzeOptions {
            races: true,
            ..AnalyzeOptions::default()
        };
        let (report, stats, _) = analyze_with(&m, &SliceTable::new(), &opts);
        assert!(report.errors().any(|d| d.code == "I4-invalid-function"));
        assert_eq!(stats, Some(RaceStats::default()));
    }

    #[test]
    fn empty_module_reports_no_entry_warning() {
        let m = Module::new("empty");
        let report = analyze(&m, &SliceTable::new());
        assert!(report.is_clean());
        assert!(report.diagnostics.iter().any(|d| d.code == "L-no-entry"));
    }

    #[test]
    fn duplicate_region_ids_are_an_error() {
        let mut m = Module::new("dup");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::Boundary { id: RegionId(3) });
        b.push(e, Inst::Boundary { id: RegionId(3) });
        b.push(e, Inst::Halt);
        let id = m.add_function(b.build());
        m.set_entry(id);
        let report = analyze(&m, &SliceTable::new());
        assert!(report.errors().any(|d| d.code == "I4-dup-region-id"));
    }

    #[test]
    fn observed_analysis_publishes_counters_and_spans() {
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&raw_war_module());
        let mut sink = MemSink::new();
        let report = analyze_observed(&compiled.module, &compiled.slices, &mut sink);
        assert_eq!(
            sink.count_total("analyzer.regions_total"),
            report.counters.regions_total as u64
        );
        assert_eq!(
            sink.count_total("analyzer.regions_proven"),
            report.counters.regions_proven as u64
        );
        assert!(!sink.spans_named("total").is_empty());
        assert!(!sink.spans_named("idempotence").is_empty());
    }

    #[test]
    fn boundary_positions_cover_every_region() {
        let compiled = CwspCompiler::new(CompileOptions::default()).compile(&raw_war_module());
        let map = boundary_positions(&compiled.module);
        let report = analyze(&compiled.module, &compiled.slices);
        assert_eq!(map.len(), report.counters.regions_total);
    }
}
