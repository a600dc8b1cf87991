//! `static_lint`: compile and analyze a corpus — seeded genprog modules with
//! calls, seeded `generate_concurrent` modules, `multicore::all(2)` and the
//! 38 apps. One operation is one module through four steps: compile;
//! `analyze_with` (interprocedural and race layers on); I6 on the
//! autofenced raw module; `touch_function` on one function, recompile and
//! `analyze_with_cache` against a cache shared by the whole phase.

use crate::common::{self, Ops};
use crate::trace::Tracer;
use crate::{Ctx, Workload};
use cwsp_analyzer::diag::{Diagnostic, Invariant, Location, Report, Severity};
use cwsp_analyzer::{
    callgraph, ckpt, idem, lints, persist, races, structure, summaries, AnalysisCache,
    AnalyzeOptions, RaceOptions,
};
use cwsp_bench::fingerprint::module_fp;
use cwsp_compiler::slice::SliceTable;
use cwsp_ir::module::Module;
use cwsp_ir::Inst;
use std::collections::HashSet;

/// Generated modules in the corpus, of each kind.
const GEN_MODULES: u64 = 512;
const CONC_MODULES: u64 = 128;

pub struct StaticLint {
    corpus: Vec<Module>,
    cache: AnalysisCache,
}

fn options() -> AnalyzeOptions {
    AnalyzeOptions {
        interproc: true,
        races: true,
        ..AnalyzeOptions::default()
    }
}

/// What one module's lint produced; equal between the composite and the
/// traced, family-by-family execution.
struct LintResult {
    compiled: Module,
    diags: usize,
    i6_diags: usize,
    touched: Module,
    incr_diags: usize,
}

impl Workload for StaticLint {
    // Set-up takes about 2 ms; more samples steady its median.
    const SETUPS: usize = 101;

    fn setup(ctx: &Ctx, tr: &mut Tracer, _ops: &mut Ops) -> Result<Self, String> {
        let mut corpus = Vec::new();
        let mut rng = common::pass_rng(ctx.seed, u64::MAX);
        tr.span("core.genprog_s", |_| {
            let spec = cwsp_core::genprog::ProgramSpec {
                calls: true,
                ..Default::default()
            };
            for _ in 0..GEN_MODULES {
                corpus.push(cwsp_core::genprog::generate(&spec, rng.next_u64()));
            }
            let conc = cwsp_core::genprog::ConcSpec::default();
            for _ in 0..CONC_MODULES {
                corpus.push(cwsp_core::genprog::generate_concurrent(
                    &conc,
                    rng.next_u64(),
                ));
            }
        });
        tr.span("workloads.build_s", |_| {
            corpus.extend(
                cwsp_workloads::multicore::all(2)
                    .into_iter()
                    .map(|(_, m)| m),
            );
            corpus.extend(cwsp_workloads::all().into_iter().map(|w| w.module));
        });
        Ok(StaticLint {
            corpus,
            cache: AnalysisCache::new(),
        })
    }

    fn begin(&mut self) {
        self.cache = AnalysisCache::new();
    }

    fn pass(&mut self, ctx: &Ctx, pass: u64, tr: &mut Tracer, ops: &mut Ops) {
        let mut rng = common::pass_rng(ctx.seed, pass);
        let opts = options();
        for i in common::shuffled(&mut rng, self.corpus.len()) {
            let module = &self.corpus[i];
            let nfuncs = module.iter_functions().count();
            let touch = module
                .iter_functions()
                .nth(rng.index(nfuncs))
                .map(|(id, _)| id);
            let salt = rng.next_u64();
            let cache = &mut self.cache;
            ops.op(
                tr,
                |tr, ops| {
                    let name = &module.name;
                    let compiled = common::compile(tr, module);
                    common::count_compile(ops, &compiled);
                    let report = if tr.enabled() {
                        analyze_traced(tr, &compiled.module, &compiled.slices, &opts)
                    } else {
                        cwsp_analyzer::analyze_with(&compiled.module, &compiled.slices, &opts).0
                    };
                    let errors = report.count(Severity::Error);
                    ops.add("analyzer.functions", report.counters.functions as f64);
                    ops.add("analyzer.errors", errors as f64);
                    if errors > 0 {
                        return Err(format!("{name}: {errors} error diagnostics"));
                    }

                    let fenced = common::autofenced(tr, module);
                    let (i6, _) =
                        tr.span("analyzer.i6_persist_s", |_| persist::check_module(&fenced));
                    if !persist::i6_clean(&i6) {
                        return Err(format!("{name}: I6 not clean after autofence"));
                    }

                    let mut touched = module.clone();
                    let touch = touch.ok_or_else(|| format!("{name}: no functions"))?;
                    cwsp_core::genprog::touch_function(&mut touched, touch, salt);
                    let recompiled = common::compile(tr, &touched);
                    common::count_compile(ops, &recompiled);
                    let before = cache.stats();
                    let (incr, ..) = tr.span("analyzer.incremental_s", |_| {
                        cwsp_analyzer::analyze_with_cache(
                            &recompiled.module,
                            &recompiled.slices,
                            &opts,
                            cache,
                        )
                    });
                    let after = cache.stats();
                    ops.add("analyzer.incr_hits", (after.hits - before.hits) as f64);
                    ops.add(
                        "analyzer.incr_misses",
                        (after.misses - before.misses) as f64,
                    );
                    let incr_errors = incr.count(Severity::Error);
                    if incr_errors > 0 {
                        return Err(format!(
                            "{name}: {incr_errors} error diagnostics after touch"
                        ));
                    }
                    Ok(LintResult {
                        compiled: compiled.module,
                        diags: report.diagnostics.len(),
                        i6_diags: i6.len(),
                        touched: recompiled.module,
                        incr_diags: incr.diagnostics.len(),
                    })
                },
                |r| {
                    common::digest(&[
                        module_fp(&r.compiled),
                        r.diags as u64,
                        r.i6_diags as u64,
                        module_fp(&r.touched),
                        r.incr_diags as u64,
                    ])
                },
            );
        }
    }
}

/// `analyze_with` (interproc and races on, persist off) performed through
/// the analyzer's public parts: the module-level checks, the per-function
/// invariant families, the interprocedural summaries and the race detector.
fn analyze_traced(
    tr: &mut Tracer,
    module: &Module,
    slices: &SliceTable,
    opts: &AnalyzeOptions,
) -> Report {
    let mut report = Report {
        module: module.name.clone(),
        ..Default::default()
    };
    tr.span("analyzer.i4_structure_s", |_| {
        module_level(module, &mut report)
    });
    for (_, f) in module.iter_functions() {
        report.counters.functions += 1;
        let out = &mut report.diagnostics;
        let valid = tr.span("analyzer.i4_structure_s", |_| match f.validate() {
            Ok(()) => {
                structure::check_function(f, out);
                true
            }
            Err(msg) => {
                let at = location(&f.name, 0, None);
                out.push(diag(
                    Severity::Error,
                    Invariant::Structure,
                    "I4-invalid-function",
                    msg,
                    at,
                    None,
                ));
                false
            }
        });
        if !valid {
            continue;
        }
        tr.span("analyzer.i1_idem_s", |_| {
            let roots = idem::root_regions(f);
            idem::check_function(module, f, &roots, out);
        });
        tr.span("analyzer.i2i3_ckpt_s", |_| {
            ckpt::check_function(f, slices, out)
        });
        tr.span("analyzer.lints_s", |_| {
            lints::check_function(module, f, slices, out)
        });
    }
    tr.span("analyzer.report_s", |_| report.normalize());
    if opts.interproc {
        let diags = tr.span("analyzer.interproc_s", |_| {
            let cg = callgraph::CallGraph::compute(module);
            let sums = summaries::Summaries::compute(module, &cg);
            summaries::check_module(module, &cg, &sums)
        });
        report.diagnostics.extend(diags);
    }
    if opts.races {
        let ra = tr.span("analyzer.i5_races_s", |_| {
            races::check_concurrency(
                module,
                &RaceOptions {
                    cores: opts.cores.max(1),
                    ..RaceOptions::default()
                },
            )
        });
        report.diagnostics.extend(ra.diagnostics);
    }
    tr.span("analyzer.report_s", |_| report.normalize());
    report
}

fn location(function: &str, block: u32, inst: Option<usize>) -> Location {
    Location {
        function: function.to_string(),
        block,
        inst,
    }
}

fn diag(
    severity: Severity,
    invariant: Invariant,
    code: &'static str,
    message: String,
    location: Location,
    region: Option<u32>,
) -> Diagnostic {
    Diagnostic {
        severity,
        invariant,
        code,
        message,
        location,
        region,
        witness: None,
    }
}

/// The analyzer's module-level structure checks: an entry function exists
/// and no region id names two boundaries.
fn module_level(module: &Module, report: &mut Report) {
    if module.entry().is_none() {
        report.diagnostics.push(diag(
            Severity::Warning,
            Invariant::Lint,
            "L-no-entry",
            "module has no entry function".into(),
            location("", 0, None),
            None,
        ));
    }
    let mut seen = HashSet::new();
    let mut regions = 0;
    for (_, f) in module.iter_functions() {
        for (bid, block) in f.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                if let Inst::Boundary { id } = inst {
                    regions += 1;
                    if !seen.insert(*id) {
                        report.diagnostics.push(diag(
                            Severity::Error,
                            Invariant::Structure,
                            "I4-dup-region-id",
                            format!("region id {id} assigned to more than one boundary"),
                            location(&f.name, bid.0, Some(i)),
                            Some(id.0),
                        ));
                    }
                }
            }
        }
    }
    report.counters.regions_total = regions;
}
