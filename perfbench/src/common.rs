//! Plumbing shared by the workloads: the operation recorder, a timed
//! simulation helper, the oracle check, and the traced compiler pipeline.

use crate::trace::Tracer;
use cwsp_compiler::checkpoint::{insert_checkpoints, CkptMode};
use cwsp_compiler::pipeline::{CompileOptions, Compiled, CwspCompiler};
use cwsp_compiler::stats::CompileStats;
use cwsp_core::prng::SplitMix64;
use cwsp_ir::interp::Outcome;
use cwsp_ir::module::Module;
use cwsp_ir::types::Word;
use cwsp_sim::config::SimConfig;
use cwsp_sim::machine::{Machine, RunEnd};
use cwsp_sim::scheme::Scheme;
use cwsp_sim::stats::SimStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Step limit for every oracle and recovery run.
pub const MAX_STEPS: u64 = 50_000_000;

/// The five schemes of the figure sweep with the per-layer metric names
/// each one feeds: (scheme, run span, instruction count, cycle count).
pub fn schemes() -> [(Scheme, &'static str, &'static str, &'static str); 5] {
    [
        (
            Scheme::Baseline,
            "sim.run_s.baseline",
            "sim.insts.baseline",
            "sim.cycles.baseline",
        ),
        (
            Scheme::cwsp(),
            "sim.run_s.cwsp",
            "sim.insts.cwsp",
            "sim.cycles.cwsp",
        ),
        (
            Scheme::Capri,
            "sim.run_s.capri",
            "sim.insts.capri",
            "sim.cycles.capri",
        ),
        (
            Scheme::ReplayCache,
            "sim.run_s.replaycache",
            "sim.insts.replaycache",
            "sim.cycles.replaycache",
        ),
        (
            Scheme::AutoFence,
            "sim.run_s.autofence",
            "sim.insts.autofence",
            "sim.cycles.autofence",
        ),
    ]
}

/// Everything one timed phase records: per-operation latency (CPU time of
/// the benchmark's thread, see [`crate::host::cpu_ns`]), failures,
/// simulated work, per-layer counts, and (in traced runs) one result
/// signature per operation.
pub struct Ops {
    pub lat_ns: Vec<u64>,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Instructions simulated by `Machine::run`, and host ns spent in it.
    pub sim_insts: u64,
    pub sim_ns: u64,
    pub counts: BTreeMap<&'static str, f64>,
    /// Values that are set, not summed (the last write wins).
    pub gauges: BTreeMap<&'static str, f64>,
    pub sigs: Option<Vec<u64>>,
    /// Samples the host's speed between operations of an untraced phase.
    pub speed: Option<crate::host::Speedometer>,
}

impl Ops {
    pub fn new(record_sigs: bool) -> Self {
        Ops {
            lat_ns: Vec::new(),
            failed: 0,
            first_error: None,
            sim_insts: 0,
            sim_ns: 0,
            counts: BTreeMap::new(),
            gauges: BTreeMap::new(),
            sigs: record_sigs.then(Vec::new),
            speed: None,
        }
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    pub fn set(&mut self, key: &'static str, v: f64) {
        self.gauges.insert(key, v);
    }

    /// Record a failed output check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(msg);
        }
    }

    /// Run and time one operation. `f` does the work and its output checks;
    /// an `Err` counts the operation as failed. In traced runs `sig` digests
    /// the operation's result (outside the timer), so the traced phase can be
    /// compared operation by operation with the untraced one.
    pub fn op<T>(
        &mut self,
        tr: &mut Tracer,
        f: impl FnOnce(&mut Tracer, &mut Ops) -> Result<T, String>,
        sig: impl FnOnce(&T) -> u64,
    ) -> Option<T> {
        let t = crate::host::cpu_ns();
        let r = tr.span("bench.op", |tr| f(tr, self));
        self.lat_ns.push(crate::host::cpu_ns() - t);
        if let Some(s) = &mut self.speed {
            s.tick();
        }
        match r {
            Ok(v) => {
                if self.sigs.is_some() {
                    let s = tr.span("bench.check", |_| sig(&v));
                    if let Some(sigs) = &mut self.sigs {
                        sigs.push(s);
                    }
                }
                Some(v)
            }
            Err(e) => {
                if let Some(sigs) = &mut self.sigs {
                    sigs.push(u64::MAX);
                }
                self.fail(e);
                None
            }
        }
    }
}

/// A completed simulation's observable results.
pub struct SimOut {
    pub stats: SimStats,
    pub output: Vec<Word>,
    pub ret: Option<Word>,
}

/// Build a machine and run `module` to completion under `scheme`, timing
/// `Machine::run` into `ops` and the span `run_span`.
pub fn simulate(
    tr: &mut Tracer,
    ops: &mut Ops,
    module: &Module,
    cfg: &SimConfig,
    scheme: Scheme,
    run_span: &'static str,
) -> Result<SimOut, String> {
    let mut m = tr.span("sim.machine_new_s", |_| Machine::new(module, cfg, scheme));
    let t = Instant::now();
    let r = tr
        .span(run_span, |_| m.run(u64::MAX, None))
        .map_err(|e| format!("{} {}: {e}", module.name, scheme.name()))?;
    ops.sim_ns += t.elapsed().as_nanos() as u64;
    ops.sim_insts += r.stats.insts;
    if r.end != RunEnd::Completed {
        return Err(format!(
            "{} {}: run ended {:?}",
            module.name,
            scheme.name(),
            r.end
        ));
    }
    Ok(SimOut {
        stats: r.stats,
        output: m.output().to_vec(),
        ret: m.return_value(0),
    })
}

/// Check an execution's output and return value against the `run_ref`
/// oracle.
pub fn check_oracle(
    what: &str,
    output: &[Word],
    ret: Option<Word>,
    oracle: &Outcome,
) -> Result<(), String> {
    if ret != oracle.return_value {
        return Err(format!(
            "{what}: return value {ret:?} != oracle {:?}",
            oracle.return_value
        ));
    }
    if output != oracle.output.as_slice() {
        return Err(format!(
            "{what}: {} output words differ from the oracle's {}",
            output.len(),
            oracle.output.len()
        ));
    }
    Ok(())
}

/// The reference interpreter's run of `module`.
pub fn oracle(tr: &mut Tracer, module: &Module) -> Result<Outcome, String> {
    tr.span("ir.ref_oracle_s", |_| {
        cwsp_ir::reference::run_ref(module, MAX_STEPS)
    })
    .map_err(|e| format!("{} oracle: {e}", module.name))
}

/// Compile with default options. Untraced this is one
/// `CwspCompiler::compile` call; traced, the same passes run one by one in
/// pipeline order, each in its own span.
pub fn compile(tr: &mut Tracer, module: &Module) -> Compiled {
    if !tr.enabled() {
        return CwspCompiler::new(CompileOptions::default()).compile(module);
    }
    tr.span("compiler.compile_s", |tr| {
        let mut module = module.clone();
        let mut stats = CompileStats {
            insts_before: module.inst_count(),
            ..Default::default()
        };
        let info = tr.span("compiler.optimize_s", |_| {
            cwsp_compiler::opt::optimize(&mut module)
        });
        stats.opt_folded = info.folded;
        stats.opt_dce = info.dce_removed;
        stats.call_saves = tr.span("compiler.call_saves_s", |_| {
            cwsp_compiler::callsave::compute_call_saves(&mut module)
        });
        stats.updates_split = tr.span("compiler.split_s", |_| {
            cwsp_compiler::split::split_same_reg_updates(&mut module)
        });
        let regions = tr.span("compiler.form_regions_s", |_| {
            cwsp_compiler::region::form_regions(&mut module)
        });
        stats.boundaries_inserted = regions.boundaries;
        stats.antidep_cuts = regions.antidep_cuts;
        stats.structural_boundaries = regions.structural;
        tr.span("compiler.insert_checkpoints_s", |_| {
            insert_checkpoints(&mut module, CkptMode::DefSite)
        });
        let (slices, prune) = tr.span("compiler.prune_slices_s", |_| {
            let r = cwsp_compiler::prune::prune_and_build_slices(&mut module, true, true);
            stats.finalize_counts(&module);
            r
        });
        stats.ckpts_pruned = prune.ckpts_pruned;
        stats.const_restores = prune.const_restores;
        stats.slot_restores = prune.slot_restores;
        tr.span("compiler.validate_s", |_| module.validate())
            .unwrap_or_else(|e| panic!("compiler produced invalid IR: {e}"));
        Compiled {
            module,
            slices,
            stats,
        }
    })
}

/// `module` after the AutoFence flush/fence insertion pass.
pub fn autofenced(tr: &mut Tracer, module: &Module) -> Module {
    let mut m = module.clone();
    tr.span("compiler.autofence_s", |_| {
        cwsp_compiler::autofence::run(&mut m)
    });
    m
}

/// Add the compiler's static counts for one compilation.
pub fn count_compile(ops: &mut Ops, c: &Compiled) {
    ops.add("compiler.insts_in", c.stats.insts_before as f64);
    ops.add("compiler.insts_out", c.stats.insts_after as f64);
    ops.add("compiler.boundaries", c.stats.boundaries_inserted as f64);
    ops.add("compiler.ckpts_pruned", c.stats.ckpts_pruned as f64);
}

/// The generator for pass `pass` of a run seeded with `seed`: both timed
/// phases of a traced run draw the same numbers for the same pass.
pub fn pass_rng(seed: u64, pass: u64) -> SplitMix64 {
    let mut mix = SplitMix64::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_D00D);
    SplitMix64::seed_from_u64(mix.next_u64() ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fisher-Yates shuffle of `0..n`.
pub fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}

/// Order-sensitive digest of a few words.
pub fn digest(words: &[u64]) -> u64 {
    words.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &w| {
        (h ^ w).wrapping_mul(0x100_0000_01B3).rotate_left(17)
    })
}

/// Geometric mean.
pub fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
