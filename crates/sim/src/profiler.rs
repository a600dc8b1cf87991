//! Exact cycle attribution: every simulated core-cycle charged to a
//! (function, static region, cause) cell.
//!
//! When enabled (see [`crate::machine::Machine::enable_profiler`]), the
//! machine classifies each core's cycle as it happens: issuing cycles and
//! long-latency busy cycles charge to the instruction's site with cause
//! `exec` (lump-sum stall latencies folded into an instruction's cost —
//! WPQ-hit delays, scheme persistence stalls — are split back out to their
//! stall cause); explicit stall cycles charge to the stalling site with
//! their [`StallKind`]; halted cycles charge to the synthetic `<halted>`
//! site. The attribution is exact by construction: one charge per core per
//! cycle, so the profile's total equals `cycles × cores` and coverage is a
//! real fraction, not an estimate.

use crate::event::StallKind;
use cwsp_ir::module::Module;
use cwsp_ir::types::RegionId;
use cwsp_ir::FuncId;
use cwsp_obs::FlatProfile;
use std::collections::HashMap;

/// An attribution site: the executing function (None once no frame exists)
/// and the open static region, when inside one.
pub type Site = (Option<FuncId>, Option<RegionId>);

/// What a core-cycle was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Issuing or completing an instruction.
    Exec,
    /// Stalled in the persist machinery.
    Stall(StallKind),
    /// The core has halted (others may still be running or draining).
    Halted,
}

impl Cause {
    /// The cause label used in profile reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Cause::Exec => "exec",
            Cause::Stall(StallKind::Pb) => "stall_pb",
            Cause::Stall(StallKind::Rbt) => "stall_rbt",
            Cause::Stall(StallKind::Wb) => "stall_wb",
            Cause::Stall(StallKind::Sync) => "stall_sync",
            Cause::Stall(StallKind::Wpq) => "stall_wpq",
            Cause::Stall(StallKind::Scheme) => "stall_scheme",
            Cause::Halted => "halted",
        }
    }
}

/// The per-run cycle-attribution accumulator.
#[derive(Debug, Default)]
pub struct CycleProfiler {
    cells: HashMap<(Site, Cause), u64>,
    total: u64,
    /// Exec cycles at superblock granularity: `(function, super-op index)`.
    /// A second, finer attribution axis over the same exec cycles the site
    /// cells count — superblocks are the dispatch unit under fusion, so this
    /// is the profile that says *which fused run* the time went to.
    sb_cells: HashMap<(Option<FuncId>, u32), u64>,
    /// Exec cycles offered for superblock attribution (attributed or not).
    sb_exec_total: u64,
    /// Exec cycles that resolved to a known superblock.
    sb_attributed: u64,
}

impl CycleProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        CycleProfiler::default()
    }

    /// Charge one core-cycle to `(site, cause)`.
    pub fn charge(&mut self, site: Site, cause: Cause) {
        *self.cells.entry((site, cause)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total core-cycles charged so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Charge one *exec* core-cycle to a superblock. `sb` is `None` when the
    /// issue site had no decoded position (counted against coverage, never
    /// silently dropped).
    pub fn charge_exec_superblock(&mut self, func: Option<FuncId>, sb: Option<u32>) {
        self.sb_exec_total += 1;
        if let Some(sb) = sb {
            *self.sb_cells.entry((func, sb)).or_insert(0) += 1;
            self.sb_attributed += 1;
        }
    }

    /// Fraction of exec cycles attributed to a known superblock (1.0 when
    /// no exec cycle was offered).
    pub fn superblock_coverage(&self) -> f64 {
        if self.sb_exec_total == 0 {
            1.0
        } else {
            self.sb_attributed as f64 / self.sb_exec_total as f64
        }
    }

    /// Render the superblock axis through the same report model as
    /// [`CycleProfiler::to_flat`]: the region column carries the super-op
    /// index, the cause is always `exec`.
    pub fn superblock_flat(&self, module: &Module) -> FlatProfile {
        let mut p = FlatProfile::new(self.sb_exec_total);
        for (&(func, sb), &cycles) in &self.sb_cells {
            let name = match func {
                Some(f) => module.function(f).name.clone(),
                None => "<machine>".to_string(),
            };
            p.add(&name, Some(sb as u64), "exec", cycles);
        }
        p
    }

    /// Render into the report model, resolving function names via `module`.
    /// Halted cycles become the synthetic `<halted>` site; cycles with no
    /// resolvable function become `<machine>`.
    pub fn to_flat(&self, module: &Module) -> FlatProfile {
        let mut p = FlatProfile::new(self.total);
        for (&((func, region), cause), &cycles) in &self.cells {
            let name = match (func, cause) {
                (_, Cause::Halted) => "<halted>".to_string(),
                (Some(f), _) => module.function(f).name.clone(),
                (None, _) => "<machine>".to_string(),
            };
            p.add(&name, region.map(|r| r.0 as u64), cause.as_str(), cycles);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::Inst;
    use cwsp_ir::module::Module;

    fn one_fn_module() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        (m, f)
    }

    #[test]
    fn charges_accumulate_and_resolve_names() {
        let (m, f) = one_fn_module();
        let mut p = CycleProfiler::new();
        for _ in 0..3 {
            p.charge((Some(f), Some(RegionId(2))), Cause::Exec);
        }
        p.charge((Some(f), None), Cause::Stall(StallKind::Pb));
        p.charge((None, None), Cause::Halted);
        assert_eq!(p.total(), 5);
        let flat = p.to_flat(&m);
        assert_eq!(flat.total_cycles, 5);
        assert_eq!(flat.accounted_cycles(), 5);
        // 4 of 5 cycles hit real program sites.
        assert!((flat.coverage() - 0.8).abs() < 1e-12);
        let rows = flat.sorted_rows();
        assert_eq!(rows[0].func, "main");
        assert_eq!(rows[0].region, Some(2));
        assert_eq!(rows[0].cause, "exec");
        assert!(flat.rows.iter().any(|r| r.func == "<halted>"));
    }
}
