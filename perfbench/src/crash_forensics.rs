//! `crash_forensics`: seeded kill cycles inside the fault-free run of tatp,
//! kmeans and radix and of a seeded genprog corpus. One operation is one
//! kill: `check_crash_consistency` plus `investigate_crash`, with the
//! `run_ref` oracle as the independent reference. The kill cycles of a pass
//! are stratified over the fault-free run (one per stratum), so every pass
//! does about the same work whatever the seed.

use crate::common::{self, Ops, MAX_STEPS};
use crate::trace::Tracer;
use crate::{Ctx, Workload};
use cwsp_core::recovery::{self, RecoveredRun};
use cwsp_core::system::CwspSystem;
use cwsp_core::verify::check_crash_consistency;
use cwsp_ir::layout;
use cwsp_ir::types::Word;
use cwsp_obs::forensics::ForensicReport;
use cwsp_sim::machine::{Machine, RunEnd};
use cwsp_sim::scheme::Scheme;

/// The apps of the nested-crash sweep set.
const APPS: [&str; 3] = ["tatp", "kmeans", "radix"];
/// Kill strata per app and per genprog module in one pass.
const APP_KILLS: u64 = 6;
const GEN_KILLS: u64 = 2;
/// Generated modules in the corpus.
const GEN_MODULES: u64 = 6;

struct Target {
    system: CwspSystem,
    /// Fault-free cWSP run: cycles, output, return value.
    cycles: u64,
    output: Vec<Word>,
    ret: Option<Word>,
    /// Seeded offset in [0, 1) of each kill stratum.
    offsets: Vec<f64>,
}

pub struct CrashForensics {
    targets: Vec<Target>,
}

/// What one kill produced; equal between the composite and the traced,
/// step-by-step execution of the same kill.
struct KillResult {
    recovered_ok: bool,
    replayed: u64,
    reverted: u64,
    inv_replayed: u64,
    crosschecks: u64,
    matched: u64,
}

impl Workload for CrashForensics {
    const SETUPS: usize = 9;

    fn setup(ctx: &Ctx, tr: &mut Tracer, ops: &mut Ops) -> Result<Self, String> {
        let apps = tr.span("workloads.build_s", |_| cwsp_workloads::all());
        let mut modules: Vec<_> = APPS
            .iter()
            .map(|n| {
                let w = apps
                    .iter()
                    .find(|w| w.name == *n)
                    .expect("app in the suite");
                (w.module.clone(), APP_KILLS)
            })
            .collect();
        let mut rng = common::pass_rng(ctx.seed, u64::MAX);
        for _ in 0..GEN_MODULES {
            let s = rng.next_u64();
            let m = tr.span("core.genprog_s", |_| {
                cwsp_core::genprog::generate_default(s)
            });
            modules.push((m, GEN_KILLS));
        }
        let cfg = cwsp_sim::config::SimConfig::default();
        let mut targets = Vec::new();
        for (m, kills) in modules {
            let compiled = common::compile(tr, &m);
            common::count_compile(ops, &compiled);
            let system = CwspSystem {
                compiled,
                config: cfg.clone(),
            };
            let out = common::simulate(
                tr,
                ops,
                &system.compiled.module,
                &system.config,
                Scheme::cwsp(),
                "sim.run_s.cwsp",
            )?;
            ops.add("sim.insts.cwsp", out.stats.insts as f64);
            ops.add("sim.cycles.cwsp", out.stats.cycles as f64);
            let offsets = (0..kills)
                .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
                .collect();
            targets.push(Target {
                system,
                cycles: out.stats.cycles,
                output: out.output,
                ret: out.ret,
                offsets,
            });
        }
        Ok(CrashForensics { targets })
    }

    fn pass(&mut self, ctx: &Ctx, pass: u64, tr: &mut Tracer, ops: &mut Ops) {
        let mut jobs = Vec::new();
        for (t, target) in self.targets.iter().enumerate() {
            for (i, &u0) in target.offsets.iter().enumerate() {
                // One kill in stratum i of (1, cycles), at a seeded offset
                // that moves by the golden ratio each pass, so that a run's
                // kills cover every stratum evenly.
                let u = (u0 + pass as f64 * 0.618_033_988_749_895).fract();
                let (n, i) = (target.offsets.len() as f64, i as f64);
                let span = (target.cycles - 2) as f64;
                jobs.push((t, 1 + (span * (i + u) / n) as u64));
            }
        }
        let mut rng = common::pass_rng(ctx.seed, pass);
        for j in common::shuffled(&mut rng, jobs.len()) {
            let (t, kill) = jobs[j];
            let target = &self.targets[t];
            ops.op(
                tr,
                |tr, ops| {
                    let oracle = common::oracle(tr, &target.system.compiled.module)?;
                    ops.add("ir.ref_steps", oracle.steps as f64);
                    common::check_oracle("fault-free run", &target.output, target.ret, &oracle)?;
                    let r = if tr.enabled() {
                        kill_traced(tr, ops, target, kill, &oracle)?
                    } else {
                        kill_composite(ops, target, kill)?
                    };
                    let name = &target.system.compiled.module.name;
                    if !r.recovered_ok {
                        return Err(format!("{name}@{kill}: recovery diverged from the oracle"));
                    }
                    if r.matched != r.crosschecks {
                        return Err(format!("{name}@{kill}: forensic cross-check mismatch"));
                    }
                    ops.add("core.replayed_steps", r.replayed as f64);
                    ops.add("core.reverted_records", r.reverted as f64);
                    ops.add("obs.crosschecks", r.crosschecks as f64);
                    ops.add("obs.crosschecks_matched", r.matched as f64);
                    Ok(r)
                },
                |r| {
                    common::digest(&[
                        r.recovered_ok as u64,
                        r.replayed,
                        r.reverted,
                        r.inv_replayed,
                        r.crosschecks,
                        r.matched,
                    ])
                },
            );
        }
    }
}

/// One kill through the composite public calls.
fn kill_composite(ops: &mut Ops, target: &Target, kill: u64) -> Result<KillResult, String> {
    let sys = &target.system;
    let name = &sys.compiled.module.name;
    let ccc = check_crash_consistency(sys, kill).map_err(|e| format!("{name}@{kill}: {e}"))?;
    let inv = sys
        .investigate_crash(kill, MAX_STEPS)
        .map_err(|e| format!("{name}@{kill}: {e}"))?;
    let report = inv
        .report
        .ok_or_else(|| format!("{name}@{kill}: run completed before the kill"))?;
    ops.add("core.prekill_steps", inv.stats.insts as f64);
    Ok(KillResult {
        recovered_ok: ccc.recovered_matches_oracle,
        replayed: ccc.replayed_steps,
        reverted: ccc.reverted_records as u64,
        inv_replayed: inv.replayed_steps,
        crosschecks: report.cross_checks.len() as u64,
        matched: report.cross_checks.iter().filter(|c| c.matched).count() as u64,
    })
}

/// The same kill through the public parts of the composite calls, one span
/// each; recoveries are also checked directly against the `run_ref` oracle.
fn kill_traced(
    tr: &mut Tracer,
    ops: &mut Ops,
    target: &Target,
    kill: u64,
    oracle: &cwsp_ir::interp::Outcome,
) -> Result<KillResult, String> {
    let sys = &target.system;
    let module = &sys.compiled.module;
    let err = |e: String| format!("{}@{kill}: {e}", module.name);

    // check_crash_consistency: oracle, run to the kill, recover, compare.
    let fast = tr
        .span("ir.interp_s", |_| cwsp_ir::interp::run(module, MAX_STEPS))
        .map_err(|e| err(e.to_string()))?;
    let mut m = tr.span("sim.machine_new_s", |_| {
        Machine::new(module, &sys.config, Scheme::cwsp())
    });
    let t = std::time::Instant::now();
    let end = tr
        .span("sim.run_to_kill_s", |_| m.run(u64::MAX, Some(kill)))
        .map_err(|e| err(e.to_string()))?;
    ops.sim_ns += t.elapsed().as_nanos() as u64;
    ops.sim_insts += end.stats.insts;
    let rec = if end.end == RunEnd::Completed {
        RecoveredRun {
            memory: m.arch_mem().clone(),
            output: m.output().to_vec(),
            return_value: m.return_value(0),
            replayed_steps: 0,
            reverted_records: 0,
        }
    } else {
        let image = tr.span("sim.crash_image_s", |_| m.into_crash_image());
        tr.span("core.recover_s", |_| {
            recovery::recover(&sys.compiled, image, 0, MAX_STEPS)
        })
        .map_err(|e| err(e.to_string()))?
    };
    let recovered_ok = rec.return_value == fast.return_value
        && rec.output == fast.output
        && rec
            .memory
            .diff_where(&fast.memory, layout::is_program_data, 1)
            .is_empty();
    common::check_oracle("recovery", &rec.output, rec.return_value, oracle).map_err(err)?;

    // investigate_crash: flight-recorded run, reconstruct, cross-check.
    let mut m = tr.span("sim.machine_new_s", |_| {
        Machine::new(module, &sys.config, Scheme::cwsp())
    });
    tr.span("obs.flight_open_s", |_| m.enable_flight())
        .map_err(|e| err(format!("flight journal: {e}")))?;
    let t = std::time::Instant::now();
    let end = tr
        .span("sim.flight_run_s", |_| m.run(u64::MAX, Some(kill)))
        .map_err(|e| err(e.to_string()))?;
    ops.sim_ns += t.elapsed().as_nanos() as u64;
    ops.sim_insts += end.stats.insts;
    ops.add("sim.flight_insts", end.stats.insts as f64);
    ops.add("core.prekill_steps", end.stats.insts as f64);
    if end.end != RunEnd::PowerFailure {
        return Err(err("run completed before the kill".into()));
    }
    let records = tr.span("obs.flight_read_s", |_| m.flight_records());
    let flushed = m.flight().map_or(0, |f| f.pages_flushed());
    ops.add("obs.flight_records", records.len() as f64);
    ops.add(
        "obs.flight_bytes",
        (flushed * cwsp_store::spill::PAGE_BYTES as u64) as f64,
    );
    let (frontier, image) = tr.span("sim.crash_image_s", |_| {
        (m.frontier(), m.into_crash_image())
    });
    let ncores = frontier.cores.len();
    let mut report = tr.span("obs.forensics_s", |_| {
        let mut r = ForensicReport::reconstruct(&records, frontier);
        r.set_func_names(
            module
                .iter_functions()
                .map(|(_, f)| f.name.clone())
                .collect(),
        );
        r
    });
    let mut inv_replayed = 0;
    for core in 0..ncores {
        let cap = tr.span("obs.forensics_s", |_| report.predicted_replay(core).len());
        let (run, log) = tr
            .span("core.recover_s", |_| {
                recovery::recover_with_write_log(&sys.compiled, image.clone(), core, MAX_STEPS, cap)
            })
            .map_err(|e| err(e.to_string()))?;
        common::check_oracle("logged recovery", &run.output, run.return_value, oracle)
            .map_err(err)?;
        inv_replayed += run.replayed_steps;
        tr.span("obs.forensics_s", |_| {
            report.cross_check_core(core, &log.writes)
        });
    }
    Ok(KillResult {
        recovered_ok,
        replayed: rec.replayed_steps,
        reverted: rec.reverted_records as u64,
        inv_replayed,
        crosschecks: report.cross_checks.len() as u64,
        matched: report.cross_checks.iter().filter(|c| c.matched).count() as u64,
    })
}
