//! `figure_sweep`: the cold regeneration of the headline figures — all 38
//! apps under the five schemes at the default machine. Baseline runs the raw
//! module; cWSP, Capri and ReplayCache run the compiled module; AutoFence
//! runs the raw module after `autofence::run`. One operation is one
//! simulation plus its `run_ref` oracle check; the seed sets the job order.

use crate::common::{self, schemes, Ops};
use crate::golden::{Goldens, PAPER_CWSP_GMEAN};
use crate::trace::Tracer;
use crate::{Ctx, Workload};
use cwsp_ir::decoded::DecodedModule;
use cwsp_ir::module::Module;
use cwsp_sim::config::SimConfig;

pub struct FigureSweep {
    names: Vec<&'static str>,
    /// Per app: raw, compiled, autofenced module.
    modules: Vec<[Module; 3]>,
    cfg: SimConfig,
    goldens: Goldens,
}

/// Which of an app's modules scheme `s` (index into `schemes()`) runs.
fn module_of(s: usize) -> usize {
    match s {
        0 => 0,
        4 => 2,
        _ => 1,
    }
}

impl Workload for FigureSweep {
    // Set-up takes about 20 ms; more samples steady its median.
    const SETUPS: usize = 31;

    fn setup(ctx: &Ctx, tr: &mut Tracer, ops: &mut Ops) -> Result<Self, String> {
        let goldens = Goldens::load(&ctx.root)?;
        let apps = tr.span("workloads.build_s", |_| cwsp_workloads::all());
        let mut names = Vec::new();
        let mut modules = Vec::new();
        for w in apps {
            let compiled = common::compile(tr, &w.module);
            common::count_compile(ops, &compiled);
            let fenced = common::autofenced(tr, &w.module);
            names.push(w.name);
            modules.push([w.module, compiled.module, fenced]);
        }
        if tr.enabled() {
            for m in modules.iter().flatten() {
                let d = tr.span("ir.decode_fuse_s", |_| DecodedModule::new(m));
                let fused: u32 = d
                    .super_ops()
                    .iter()
                    .filter(|s| s.len > 1)
                    .map(|s| s.len)
                    .sum();
                ops.add("ir.decoded_ops", d.op_count() as f64);
                ops.add("ir.fused_ops", fused as f64);
            }
        }
        Ok(FigureSweep {
            names,
            modules,
            cfg: SimConfig::default(),
            goldens,
        })
    }

    fn pass(&mut self, ctx: &Ctx, pass: u64, tr: &mut Tracer, ops: &mut Ops) {
        let table = schemes();
        let njobs = self.modules.len() * table.len();
        let mut cycles = vec![0u64; njobs];
        let mut outputs = vec![0u64; njobs];
        let mut rng = common::pass_rng(ctx.seed, pass);
        for job in common::shuffled(&mut rng, njobs) {
            let (app, s) = (job / table.len(), job % table.len());
            let (scheme, run_span, insts_key, cycles_key) = table[s];
            let module = &self.modules[app][module_of(s)];
            let cfg = &self.cfg;
            let done = ops.op(
                tr,
                |tr, ops| {
                    let out = common::simulate(tr, ops, module, cfg, scheme, run_span)?;
                    let oracle = common::oracle(tr, module)?;
                    ops.add("ir.ref_steps", oracle.steps as f64);
                    common::check_oracle(
                        &format!("{} {}", module.name, scheme.name()),
                        &out.output,
                        out.ret,
                        &oracle,
                    )?;
                    ops.add(insts_key, out.stats.insts as f64);
                    ops.add(cycles_key, out.stats.cycles as f64);
                    Ok(out)
                },
                |out| common::digest(&[out.stats.cycles, out.stats.insts]),
            );
            if let Some(out) = done {
                cycles[job] = out.stats.cycles;
                let ret = out.ret.unwrap_or(u64::MAX);
                outputs[job] = common::digest(&out.output) ^ ret;
            }
        }
        tr.span("bench.check", |_| self.check_pass(&cycles, &outputs, ops));
    }
}

impl FigureSweep {
    /// Whole-pass checks: every scheme's output agrees with the raw
    /// program's, the per-app cWSP slowdowns match Fig 13 and the scheme
    /// gmeans match their goldens.
    fn check_pass(&self, cycles: &[u64], outputs: &[u64], ops: &mut Ops) {
        let ns = schemes().len();
        if cycles.contains(&0) {
            return; // a failed operation was already counted
        }
        for (app, outs) in outputs.chunks(ns).enumerate() {
            if outs.iter().any(|&o| o != outs[0]) {
                ops.fail(format!("{}: scheme outputs disagree", self.names[app]));
            }
        }
        for (s, (scheme, ..)) in schemes().iter().enumerate().skip(1) {
            let sd: Vec<f64> = cycles
                .chunks(ns)
                .map(|c| c[s] as f64 / c[0] as f64)
                .collect();
            let gm = common::gmean(&sd);
            if let Err(e) = self.goldens.check_gmean(scheme.name(), gm) {
                ops.fail(e);
            }
            if s == 1 {
                if let Err(e) = self.goldens.check_fig13(&self.names, &sd) {
                    ops.fail(e);
                }
                ops.set("cwsp_slowdown_gmean", gm);
                ops.set(
                    "cwsp_slowdown_abs_err_vs_paper",
                    (gm / PAPER_CWSP_GMEAN - 1.0).abs(),
                );
            }
        }
    }
}
