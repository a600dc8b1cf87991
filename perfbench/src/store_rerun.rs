//! `store_rerun`: setup fills a result spine in a private directory with the
//! figure sweep's results through `Engine::with_spine`. The timed phase
//! opens fresh engines on that spine and serves every job from disk (one
//! operation per job), and in its first passes runs the `beyond_ram` probe
//! under cWSP at a 1/16 resident budget and once unbounded (one operation
//! each).

use crate::common::{self, schemes, Ops, SimOut};
use crate::golden::{Goldens, PAPER_CWSP_GMEAN};
use crate::trace::Tracer;
use crate::{Ctx, Workload};
use cwsp_bench::engine::Engine;
use cwsp_ir::interp::Outcome;
use cwsp_ir::memory::with_budget_override;
use cwsp_ir::module::Module;
use cwsp_sim::config::SimConfig;
use cwsp_sim::scheme::Scheme;
use cwsp_sim::stats::SimStats;
use cwsp_workloads::probes::{beyond_ram, BEYOND_RAM_PAGES};
use std::path::PathBuf;

/// Fresh engines opened (each serving every job) per pass.
const ENGINES_PER_PASS: usize = 24;
/// Passes (from the first) that also run the beyond-RAM pair. Every
/// budgeted run appends its evicted pages, about 50 MB, to the process's
/// append-only spill file, so a fixed count keeps the file's size and the
/// peak resident size independent of how many passes fit in the run.
const BEYOND_PASSES: u64 = 1;

struct Job {
    name: &'static str,
    module: Module,
    scheme: Scheme,
    /// The stats the cold simulation produced while filling the spine.
    cold: SimStats,
}

pub struct StoreRerun {
    dir: PathBuf,
    jobs: Vec<Job>,
    apps: usize,
    cfg: SimConfig,
    goldens: Goldens,
    beyond: Module,
    beyond_oracle: Outcome,
}

impl Drop for StoreRerun {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for StoreRerun {
    const SETUPS: usize = 3;

    fn setup(ctx: &Ctx, tr: &mut Tracer, ops: &mut Ops) -> Result<Self, String> {
        let goldens = Goldens::load(&ctx.root)?;
        let dir = ctx.private_dir("spine")?;
        let apps = tr.span("workloads.build_s", |_| cwsp_workloads::all());
        let cfg = SimConfig::default();
        let mut jobs = Vec::new();
        let napps = apps.len();
        for w in apps {
            let compiled = common::compile(tr, &w.module);
            common::count_compile(ops, &compiled);
            let fenced = common::autofenced(tr, &w.module);
            for (s, (scheme, ..)) in schemes().into_iter().enumerate() {
                let module = match s {
                    0 => w.module.clone(),
                    4 => fenced.clone(),
                    _ => compiled.module.clone(),
                };
                jobs.push(Job {
                    name: w.name,
                    module,
                    scheme,
                    cold: SimStats::default(),
                });
            }
        }
        {
            let engine = tr.span("store.spine_open_s", |_| Engine::with_spine(dir.clone()));
            if !engine.uses_spine() {
                return Err(format!("cannot open a spine in {}", dir.display()));
            }
            for j in &mut jobs {
                j.cold = tr.span("store.spine_fill_s", |_| {
                    engine.stats(j.name, &j.module, &cfg, j.scheme)
                });
            }
            if engine.counters().disk_hits != 0 {
                return Err("a fresh spine served a job from disk".into());
            }
        }
        let probe = tr.span("workloads.build_s", |_| beyond_ram());
        let beyond = common::compile(tr, &probe.module).module;
        let beyond_oracle = common::oracle(tr, &beyond)?;
        Ok(StoreRerun {
            dir,
            jobs,
            apps: napps,
            cfg,
            goldens,
            beyond,
            beyond_oracle,
        })
    }

    fn pass(&mut self, ctx: &Ctx, pass: u64, tr: &mut Tracer, ops: &mut Ops) {
        let mut rng = common::pass_rng(ctx.seed, pass);
        for _ in 0..ENGINES_PER_PASS {
            let engine = tr.span("store.spine_open_s", |_| {
                Engine::with_spine(self.dir.clone())
            });
            let mut warm = vec![SimStats::default(); self.jobs.len()];
            for i in common::shuffled(&mut rng, self.jobs.len()) {
                let j = &self.jobs[i];
                let cfg = &self.cfg;
                let served = ops.op(
                    tr,
                    |tr, _| {
                        let s = tr.span("store.lookup_s", |_| {
                            engine.stats(j.name, &j.module, cfg, j.scheme)
                        });
                        if s != j.cold {
                            return Err(format!(
                                "{} {}: warm stats differ from cold",
                                j.name,
                                j.scheme.name()
                            ));
                        }
                        Ok(s)
                    },
                    |s| common::digest(&[s.cycles, s.insts]),
                );
                if let Some(s) = served {
                    warm[i] = s;
                }
            }
            let c = engine.counters();
            ops.add("store.jobs", c.jobs as f64);
            ops.add("store.disk_hits", c.disk_hits as f64);
            if c.disk_hits != c.jobs || c.sim_insts != 0 {
                ops.fail(format!(
                    "{} of {} jobs served from disk",
                    c.disk_hits, c.jobs
                ));
            }
            tr.span("bench.check", |_| self.check_figure(&warm, ops));
        }
        if pass < BEYOND_PASSES {
            self.beyond_pair(tr, ops, pass);
        }
    }
}

impl StoreRerun {
    /// The figure served from disk must still be Fig 13.
    fn check_figure(&self, warm: &[SimStats], ops: &mut Ops) {
        let ns = schemes().len();
        let names: Vec<&str> = self.jobs.iter().step_by(ns).map(|j| j.name).collect();
        let sd: Vec<f64> = warm
            .chunks(ns)
            .map(|c| c[1].cycles as f64 / c[0].cycles as f64)
            .collect();
        if sd.len() != self.apps || warm.iter().any(|s| s.cycles == 0) {
            return;
        }
        let gm = common::gmean(&sd);
        if let Err(e) = self
            .goldens
            .check_fig13(&names, &sd)
            .and_then(|()| self.goldens.check_gmean("cwsp", gm))
        {
            ops.fail(e);
        }
        ops.set("cwsp_slowdown_gmean", gm);
        ops.set(
            "cwsp_slowdown_abs_err_vs_paper",
            (gm / PAPER_CWSP_GMEAN - 1.0).abs(),
        );
    }

    /// The beyond-RAM probe under cWSP at a 1/16 resident budget, then
    /// unbounded; both must match the oracle and each other.
    fn beyond_pair(&self, tr: &mut Tracer, ops: &mut Ops, pass: u64) {
        let budget = (BEYOND_RAM_PAGES / 16) as usize;
        let before = tier_snapshot();
        let m = &self.beyond;
        let cfg = &self.cfg;
        let oracle = &self.beyond_oracle;
        let run = |tr: &mut Tracer, ops: &mut Ops, budget, span| {
            with_budget_override(budget, || {
                common::simulate(tr, ops, m, cfg, Scheme::cwsp(), span)
            })
            .and_then(|out| {
                common::check_oracle("beyond_ram", &out.output, out.ret, oracle)?;
                Ok(out)
            })
        };
        let sig = |o: &SimOut| common::digest(&[o.stats.cycles, o.stats.insts]);
        let budgeted = ops.op(
            tr,
            |tr, ops| run(tr, ops, Some(budget), "sim.beyond_budgeted_s"),
            sig,
        );
        let after = tier_snapshot();
        let unbounded = ops.op(
            tr,
            |tr, ops| run(tr, ops, None, "sim.beyond_unbounded_s"),
            sig,
        );
        if let (Some(b), Some(u)) = (&budgeted, &unbounded) {
            if b.stats != u.stats {
                ops.fail("beyond_ram: budgeted stats differ from unbounded".into());
            }
        }
        // Tier traffic of one budgeted run, averaged over the runs so far.
        let runs = (pass + 1) as f64;
        for (key, name, scale) in [
            ("store.tier_faults", "faults", 1.0),
            ("store.tier_evictions", "evictions", 1.0),
            ("store.tier_writeback_s", "writeback_ns", 1e-9),
        ] {
            let delta = (tier_field(&after, name) - tier_field(&before, name)) * scale;
            let mean = ops.gauges.get(key).copied().unwrap_or(0.0);
            ops.set(key, mean + (delta - mean) / runs);
        }
    }
}

fn tier_snapshot() -> cwsp_bench::json::Value {
    cwsp_bench::json::parse(&cwsp_obs::tier::snapshot_json()).expect("tier snapshot is JSON")
}

fn tier_field(v: &cwsp_bench::json::Value, name: &str) -> f64 {
    v.get(name).and_then(|x| x.as_f64()).unwrap_or(0.0)
}
