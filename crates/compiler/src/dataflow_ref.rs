//! Naive reference liveness and reaching definitions, and the differential
//! tests that hold [`Liveness`] and [`ReachingDefs`] to them.
//!
//! The references are the textbook forms: the fixpoint re-sweeps every
//! instruction of every block on each round, sets are `HashMap`/`HashSet`,
//! and a point query rescans the block — its suffix for liveness, its prefix
//! for reaching definitions. They are slow and obviously right; the
//! production analyses must agree with them at every program point for
//! every register.

use crate::liveness::{defs, Liveness, RegSet};
use crate::reaching::{DefSite, ReachingDefs};
use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::module::Module;
use cwsp_ir::types::Reg;
use std::collections::{HashMap, HashSet};

/// Liveness by whole-block re-sweeps and per-query suffix rescans.
struct NaiveLiveness {
    live_in: Vec<RegSet>,
    nregs: usize,
}

impl NaiveLiveness {
    fn compute(f: &Function) -> Self {
        let nregs = f.reg_count as usize;
        let mut live_in = vec![RegSet::new(nregs); f.blocks.len()];
        let mut order = cfg::reverse_post_order(f);
        order.reverse();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut live = RegSet::new(nregs);
                for s in cfg::successors(f, b) {
                    live.union_with(&live_in[s.index()]);
                }
                for inst in f.block(b).insts.iter().rev() {
                    for d in defs(inst).collect::<Vec<_>>() {
                        live.remove(d);
                    }
                    for u in inst.uses().collect::<Vec<_>>() {
                        live.insert(u);
                    }
                }
                if live != live_in[b.index()] {
                    live_in[b.index()] = live;
                    changed = true;
                }
            }
        }
        NaiveLiveness { live_in, nregs }
    }

    /// Registers live immediately before instruction `idx` of block `b`.
    fn live_before(&self, f: &Function, b: BlockId, idx: usize) -> RegSet {
        let mut live = RegSet::new(self.nregs);
        for s in cfg::successors(f, b) {
            live.union_with(&self.live_in[s.index()]);
        }
        let insts = &f.block(b).insts;
        for i in (idx..insts.len()).rev() {
            for d in defs(&insts[i]) {
                live.remove(d);
            }
            for u in insts[i].uses() {
                live.insert(u);
            }
        }
        live
    }
}

/// Reaching definitions over `HashMap<Reg, HashSet<DefSite>>` per block, with
/// per-query prefix rescans.
struct NaiveReaching {
    reach_in: Vec<HashMap<Reg, HashSet<DefSite>>>,
}

impl NaiveReaching {
    fn compute(f: &Function) -> Self {
        let nblocks = f.blocks.len();
        let mut last_def: Vec<HashMap<Reg, DefSite>> = vec![HashMap::new(); nblocks];
        for (bid, block) in f.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                for d in defs(inst) {
                    last_def[bid.index()].insert(d, DefSite::Inst(bid, i));
                }
            }
        }
        let mut reach_in: Vec<HashMap<Reg, HashSet<DefSite>>> = vec![HashMap::new(); nblocks];
        for r in 0..f.reg_count {
            reach_in[f.entry().index()]
                .entry(Reg(r))
                .or_default()
                .insert(DefSite::Entry);
        }
        let rpo = cfg::reverse_post_order(f);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                let mut out = reach_in[b.index()].clone();
                for (r, site) in &last_def[b.index()] {
                    let e = out.entry(*r).or_default();
                    e.clear();
                    e.insert(*site);
                }
                for s in cfg::successors(f, b) {
                    for (r, sites) in &out {
                        let e = reach_in[s.index()].entry(*r).or_default();
                        for site in sites {
                            changed |= e.insert(*site);
                        }
                    }
                }
            }
        }
        NaiveReaching { reach_in }
    }

    /// Definition sites of `r` reaching the point before instruction `idx`.
    fn at(&self, f: &Function, b: BlockId, idx: usize, r: Reg) -> HashSet<DefSite> {
        let mut sites = self.reach_in[b.index()]
            .get(&r)
            .cloned()
            .unwrap_or_default();
        for (i, inst) in f.block(b).insts.iter().enumerate().take(idx) {
            if defs(inst).any(|d| d == r) {
                sites.clear();
                sites.insert(DefSite::Inst(b, i));
            }
        }
        if sites.is_empty() {
            sites.insert(DefSite::Entry);
        }
        sites
    }
}

/// Assert that both analyses match their references on every point of `f`.
fn check_function(f: &Function) {
    let name = &f.name;
    let lv = Liveness::compute(f);
    let naive_lv = NaiveLiveness::compute(f);
    assert_eq!(lv.live_in, naive_lv.live_in, "{name}: block live-in sets");
    for (bid, block) in f.iter_blocks() {
        let n = block.insts.len();
        let mut visited = Vec::new();
        lv.walk_back(f, bid, |i, _, live| {
            assert_eq!(
                live,
                &naive_lv.live_before(f, bid, i + 1),
                "{name}: live after {bid}[{i}]"
            );
            visited.push(i);
        });
        assert!(visited.iter().rev().copied().eq(0..n), "{name}: walk order");
    }

    let rd = ReachingDefs::compute(f);
    let naive_rd = NaiveReaching::compute(f);
    for (bid, block) in f.iter_blocks() {
        for idx in 0..=block.insts.len() {
            for r in (0..f.reg_count).map(Reg) {
                let sites = rd.at(bid, idx, r);
                let got: HashSet<DefSite> = sites.iter().map(|s| rd.site(s)).collect();
                assert_eq!(sites.iter().count(), got.len(), "{name}: duplicate sites");
                assert_eq!(
                    got,
                    naive_rd.at(f, bid, idx, r),
                    "{name}: reaching {r} at {bid}[{idx}]"
                );
                assert_eq!(
                    sites.single().map(|s| rd.site(s)),
                    (got.len() == 1).then(|| *got.iter().next().unwrap()),
                    "{name}: single site of {r} at {bid}[{idx}]"
                );
            }
        }
    }
}

/// Check `m` as the compiler sees it: the raw input (what the optimizer's
/// DCE reads), the module the pruner reads, and the compiled output (what
/// the analyzer reads).
fn check_module_stages(m: &Module) {
    let mut m = m.clone();
    let check = |m: &Module| {
        for (_, f) in m.iter_functions() {
            check_function(f);
        }
    };
    check(&m);
    crate::opt::optimize(&mut m);
    crate::callsave::compute_call_saves(&mut m);
    crate::split::split_same_reg_updates(&mut m);
    crate::region::form_regions(&mut m);
    crate::checkpoint::insert_checkpoints(&mut m, crate::checkpoint::CkptMode::DefSite);
    check(&m);
    crate::prune::prune_and_build_slices(&mut m, true, true);
    check(&m);
}

/// The 38 apps, `multicore::all(4)`, `gen` seeded genprog modules with calls,
/// `conc` seeded concurrent modules and `wide` seeded genprog modules whose
/// `main` has more than 300 registers, beyond what a [`RegSet`] holds inline.
fn corpus(gen: u64, conc: u64, wide: u64) -> impl Iterator<Item = Module> {
    use cwsp_core::genprog::{generate, generate_concurrent, ConcSpec, ProgramSpec};
    let spec = ProgramSpec {
        calls: true,
        ..Default::default()
    };
    let wide_spec = ProgramSpec {
        segments: 200,
        ..Default::default()
    };
    cwsp_workloads::all()
        .into_iter()
        .map(|w| w.module)
        .chain(
            cwsp_workloads::multicore::all(4)
                .into_iter()
                .map(|(_, m)| m),
        )
        .chain((0..gen).map(move |s| generate(&spec, 0x5eed_0000 + s)))
        .chain((0..conc).map(|s| generate_concurrent(&ConcSpec::default(), 0xc0c0_0000 + s)))
        .chain((0..wide).map(move |s| {
            let m = generate(&wide_spec, 0x61de_0000 + s);
            assert!(m.iter_functions().any(|(_, f)| f.reg_count > 300));
            m
        }))
}

#[test]
fn dataflow_matches_naive_reference_on_corpus() {
    for m in corpus(60, 20, 1) {
        check_module_stages(&m);
    }
}

/// About 2,000 modules; run with `cargo test --release -p cwsp-compiler --
/// --ignored`.
#[test]
#[ignore]
fn dataflow_matches_naive_reference_on_large_corpus() {
    for m in corpus(1_500, 450, 20) {
        check_module_stages(&m);
    }
}
