//! Stable fingerprints for memo/cache keys.
//!
//! The engine memoizes simulation results by *content*, not by label:
//! workload names collide across workload sets (`hierarchy_probes()` reuses
//! the figure names of `all()` with different modules), and sweep figures
//! mutate one `SimConfig` field at a time. Hashing the module's structure
//! (its derived [`Hash`]: name, globals with their initializers, every
//! function's instructions, and the entry function) plus every semantic
//! field of the configuration, scheme, and compile options makes the key
//! collision-free in practice (64-bit FxHash over a few thousand keys) and —
//! unlike `DefaultHasher` — stable across processes, which the on-disk cache
//! requires. No text is formatted on this path.

use cwsp_compiler::pipeline::CompileOptions;
use cwsp_ir::fxhash::FxHasher;
use cwsp_ir::module::Module;
use cwsp_sim::config::{CacheParams, MainMemory, SimConfig};
use cwsp_sim::scheme::Scheme;
use std::hash::{Hash, Hasher};

/// Bump when simulator or compiler semantics change in a way that should
/// invalidate previously cached results (folded into every disk-cache key).
/// Version 2: `SimStats` grew the per-opcode `op_mix` field.
/// Version 3: observability layer — trace/profiler instrumentation reworked
/// the core issue loop and the harness telemetry schema grew queue-latency
/// and utilization fields.
/// Version 4: results moved from flat per-key JSON files to the LSM result
/// spine (`cwsp_store::spine`); v3 flat entries are migrated into the spine
/// as history (time-travel reachable) but fresh v4 keys recompute.
/// Version 5: module keys hash the IR structurally instead of its printed
/// text, which also covers global initializers and the entry function (the
/// text showed neither). Every module key changed; v4 spine entries stay as
/// history and are never served.
pub const CACHE_VERSION: u64 = 5;

/// Incrementally hashes heterogeneous fields into one stable u64.
#[derive(Debug, Default)]
pub struct Fingerprint {
    h: FxHasher,
}

impl Fingerprint {
    /// Start a fingerprint seeded with the cache version.
    pub fn new() -> Self {
        let mut f = Fingerprint {
            h: FxHasher::default(),
        };
        f.u64(CACHE_VERSION);
        f
    }

    /// Finish and return the 64-bit digest.
    pub fn digest(self) -> u64 {
        self.h.finish()
    }

    fn u64(&mut self, v: u64) {
        self.h.write_u64(v);
    }

    fn f64(&mut self, v: f64) {
        self.h.write_u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.h.write_u8(v as u8);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.h.write(s.as_bytes());
    }

    fn cache_params(&mut self, p: &CacheParams) {
        self.u64(p.size_bytes);
        self.u64(p.assoc as u64);
        self.u64(p.hit_cycles);
    }

    /// Fold in a module by content (its structural hash).
    pub fn module(&mut self, m: &Module) -> &mut Self {
        m.hash(&mut self.h);
        self
    }

    /// Fold in every semantic field of a [`SimConfig`].
    pub fn config(&mut self, c: &SimConfig) -> &mut Self {
        self.u64(c.cores as u64);
        self.u64(c.sram_levels.len() as u64);
        for l in &c.sram_levels {
            self.cache_params(l);
        }
        match &c.dram_cache {
            None => self.u64(0),
            Some(p) => {
                self.u64(1);
                self.cache_params(p);
            }
        }
        match c.main_memory {
            MainMemory::Nvm(t) => {
                self.u64(2);
                // Latencies, not the variant index: a new enum variant with
                // identical timing is the same machine.
                self.u64(t.read_cycles());
                self.u64(t.write_cycles());
            }
            MainMemory::Cxl(d) => {
                self.u64(3);
                self.str(d.name);
                self.f64(d.max_bandwidth_gbps);
                self.f64(d.read_ns);
                self.f64(d.write_ns);
            }
        }
        self.u64(c.mem_controllers as u64);
        self.u64(c.mc_numa_skew_cycles);
        self.u64(c.wpq_entries as u64);
        self.u64(c.rbt_entries as u64);
        self.u64(c.pb_entries as u64);
        self.u64(c.wb_entries as u64);
        self.u64(c.persist_path_cycles);
        self.f64(c.persist_path_gbps);
        self.u64(c.persist_granularity);
        self.u64(c.wb_drain_cycles);
        self.u64(c.issue_width as u64);
        self
    }

    /// Fold in a [`Scheme`] including its feature toggles.
    pub fn scheme(&mut self, s: Scheme) -> &mut Self {
        match s {
            Scheme::Baseline => self.u64(10),
            Scheme::Cwsp(f) => {
                self.u64(11);
                self.bool(f.persist_path);
                self.bool(f.mc_speculation);
                self.bool(f.wb_delay);
                self.bool(f.wpq_delay);
            }
            Scheme::Capri => self.u64(12),
            Scheme::ReplayCache => self.u64(13),
            Scheme::IdealPsp => self.u64(14),
            Scheme::AutoFence => self.u64(15),
        }
        self
    }

    /// Fold in [`CompileOptions`].
    pub fn options(&mut self, o: CompileOptions) -> &mut Self {
        self.bool(o.pruning);
        self.bool(o.expr_remat);
        self.bool(o.optimize);
        self
    }
}

/// Fingerprint of one module (content hash).
pub fn module_fp(m: &Module) -> u64 {
    let mut f = Fingerprint::new();
    f.module(m);
    f.digest()
}

/// Fingerprint of a (config, scheme) machine instance.
pub fn machine_fp(c: &SimConfig, s: Scheme) -> u64 {
    let mut f = Fingerprint::new();
    f.config(c).scheme(s);
    f.digest()
}

/// Fingerprint of compile options.
pub fn options_fp(o: CompileOptions) -> u64 {
    let mut f = Fingerprint::new();
    f.options(o);
    f.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_sim::config::NvmTech;
    use cwsp_sim::scheme::CwspFeatures;

    #[test]
    fn config_fields_all_contribute() {
        let base = SimConfig::default();
        let fp0 = machine_fp(&base, Scheme::Baseline);
        // Every mutation below must move the fingerprint.
        type ConfigMutation = Box<dyn Fn(&mut SimConfig)>;
        let mutations: Vec<ConfigMutation> = vec![
            Box::new(|c| c.cores = 4),
            Box::new(|c| c.sram_levels[0].size_bytes *= 2),
            Box::new(|c| c.sram_levels[1].hit_cycles += 1),
            Box::new(|c| c.dram_cache = None),
            Box::new(|c| c.main_memory = MainMemory::Nvm(NvmTech::ReRam)),
            Box::new(|c| c.mem_controllers = 4),
            Box::new(|c| c.mc_numa_skew_cycles += 1),
            Box::new(|c| c.wpq_entries += 1),
            Box::new(|c| c.rbt_entries += 1),
            Box::new(|c| c.pb_entries += 1),
            Box::new(|c| c.wb_entries += 1),
            Box::new(|c| c.persist_path_cycles += 1),
            Box::new(|c| c.persist_path_gbps *= 2.0),
            Box::new(|c| c.persist_granularity = 64),
            Box::new(|c| c.wb_drain_cycles += 1),
            Box::new(|c| c.issue_width += 1),
        ];
        for (i, m) in mutations.iter().enumerate() {
            let mut c = base.clone();
            m(&mut c);
            assert_ne!(
                machine_fp(&c, Scheme::Baseline),
                fp0,
                "mutation {i} ignored"
            );
        }
    }

    #[test]
    fn schemes_and_features_distinguished() {
        let c = SimConfig::default();
        let mut fps: Vec<u64> = [
            Scheme::Baseline,
            Scheme::cwsp(),
            Scheme::Capri,
            Scheme::ReplayCache,
            Scheme::IdealPsp,
            Scheme::AutoFence,
            Scheme::Cwsp(CwspFeatures {
                mc_speculation: false,
                ..Default::default()
            }),
        ]
        .iter()
        .map(|s| machine_fp(&c, *s))
        .collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 7);
    }

    #[test]
    fn options_distinguished() {
        let d = CompileOptions::default();
        let fp = options_fp(d);
        assert_ne!(
            fp,
            options_fp(CompileOptions {
                pruning: false,
                ..d
            })
        );
        assert_ne!(
            fp,
            options_fp(CompileOptions {
                expr_remat: false,
                ..d
            })
        );
        assert_ne!(
            fp,
            options_fp(CompileOptions {
                optimize: false,
                ..d
            })
        );
    }

    /// "Name" here is the job label the engine is asked with, which never
    /// enters the key: two label-alike workloads with different modules get
    /// different keys, and one module rebuilt gets the same key. (The
    /// module's own `name` field is content and is hashed.)
    #[test]
    fn module_content_not_name_decides() {
        use cwsp_core::genprog::generate_default;
        let a = generate_default(1);
        let b = generate_default(2);
        assert_ne!(module_fp(&a), module_fp(&b));
        assert_eq!(
            module_fp(&a),
            module_fp(&generate_default(1)),
            "stable across calls"
        );
    }

    /// Two functions and an initialized global; `init`, `entry` and `imm`
    /// each vary exactly one piece of content.
    fn probe_module(init: u64, entry: u32, imm: u64) -> Module {
        use cwsp_ir::builder::FunctionBuilder;
        use cwsp_ir::inst::{BinOp, Inst, MemRef, Operand};
        use cwsp_ir::module::FuncId;
        let mut m = Module::new("probe");
        let g = m.add_global_init("g", 2, vec![init, 7]);
        for name in ["main", "alt"] {
            let mut b = FunctionBuilder::new(name, 0);
            let e = b.entry();
            let v = b.load(e, MemRef::global(g, 0));
            let w = b.bin(e, BinOp::Add, v.into(), Operand::imm(imm));
            b.push(
                e,
                Inst::Ret {
                    val: Some(w.into()),
                },
            );
            m.add_function(b.build());
        }
        m.set_entry(FuncId(entry));
        m
    }

    #[test]
    fn module_fp_sees_initializers_entry_and_operands() {
        let base = probe_module(1, 0, 3);
        let fp = module_fp(&base);
        assert_eq!(module_fp(&base.clone()), fp, "a clone keys identically");
        assert_eq!(module_fp(&probe_module(1, 0, 3)), fp, "a rebuild too");
        assert_ne!(module_fp(&probe_module(2, 0, 3)), fp, "global init");
        assert_ne!(module_fp(&probe_module(1, 1, 3)), fp, "entry function");
        assert_ne!(module_fp(&probe_module(1, 0, 4)), fp, "one operand");
    }
}
