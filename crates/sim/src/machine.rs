//! The whole-system machine: cores stepping the interpreter, the cache
//! hierarchy, the persist hardware, memory controllers, and power failure.
//!
//! The machine executes a (compiled) module with exact architectural
//! semantics — the interpreter is the same one the oracle uses — while
//! maintaining a *separate NVM image* that only advances when stores drain
//! through the persist machinery. Cutting power at an arbitrary cycle
//! therefore yields a bit-accurate post-failure NVM state: WPQ contents are
//! already applied (ADR), in-flight path entries and the volatile hierarchy
//! are lost, and per-region undo logs await reversal (§VII).

use crate::cache::{line_of, Cache};
use crate::config::SimConfig;
use crate::event::{Consumers, Event, StallKind};
use crate::iodevice::IoDevice;
use crate::mc::MemoryController;
use crate::persist::{PersistBuffer, PersistPath, RbtEntry, RegionBoundaryTable};
use crate::profiler::{Cause, CycleProfiler, Site};
use crate::scheme::Scheme;
use crate::stats::SimStats;
use crate::trace::Trace;
use crate::wbuf::WriteBuffer;
use cwsp_ir::decoded::DecodedModule;
use cwsp_ir::interp::{
    BoundaryInfo, EffectKind, Interp, InterpError, ResumeKind, ResumePoint, StepEffect,
};
use cwsp_ir::layout;
use cwsp_ir::memory::Memory;
use cwsp_ir::module::Module;
use cwsp_ir::types::{DynRegionId, RegionId, Word};
use cwsp_ir::{BlockId, FuncId, Inst};
use cwsp_obs::flight::{FlightRecord, FlightRecorder};
use cwsp_obs::forensics::{CoreFrontier, MachineFrontier};
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// All cores halted and the persist machinery drained.
    Completed,
    /// The instruction budget was exhausted (benchmark-window mode).
    InstLimit,
    /// Power was cut at the requested cycle.
    PowerFailure,
}

/// Result of [`Machine::run`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Why the run ended.
    pub end: RunEnd,
    /// Statistics up to the end.
    pub stats: SimStats,
}

/// The crash-surviving state extracted by [`Machine::into_crash_image`].
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// The NVM contents after ADR flush and undo-log reversal (§VII step 1).
    pub nvm: Memory,
    /// Output released by persisted regions (the battery-backed I/O redo
    /// buffer of §VIII keeps exactly this).
    pub output: Vec<Word>,
    /// The persisted recovery metadata: entry of the oldest unpersisted
    /// region, per core.
    pub resume: Vec<(ResumePoint, Option<RegionId>)>,
    /// Undo-log records reverted during the §VII step-1 reversal.
    pub reverted_records: usize,
}

/// Per-core pipeline + persist-hardware state.
struct Core<'m> {
    interp: Interp<'m>,
    l1: Cache,
    wb: WriteBuffer,
    pb: PersistBuffer,
    rbt: RegionBoundaryTable,
    busy_until: u64,
    halted: bool,
    /// Stores that executed architecturally but await PB space.
    pending_pb: VecDeque<(Word, Word)>,
    /// A boundary that executed but awaits RBT space (or a boundary drain
    /// when MC speculation is off).
    pending_boundary: Option<BoundaryInfo>,
    /// Dirty L1 evictions awaiting WB space.
    pending_evictions: VecDeque<u64>,
    /// Waiting for the sync-point drain (atomic/fence committed next).
    sync_drain: bool,
    /// Pending synchronous NVM writes to apply once the drain completes
    /// (the atomic's own store, persisted at commit).
    sync_writes: Vec<(Word, Word)>,
    /// Resume point to install once the sync drain completes.
    sync_resume: Option<(ResumePoint, Option<RegionId>)>,
    /// Dynamic instructions in the current region (Fig 19).
    region_insts: u64,
    /// Lines already redo-buffered by the current region (Capri model).
    capri_region_lines: Vec<u64>,
    /// Reused effect buffer so the execute stage never allocates.
    eff_scratch: StepEffect,
    /// In-progress coalesced [`Event::Stall`] span (only ever `Some` while a
    /// trace ring is attached).
    open_stall: Option<Event>,
    /// Site of the last issued instruction (profiler busy attribution).
    prof_site: Site,
    /// Superblock of the last issued instruction (profiler attribution at
    /// fused-dispatch granularity).
    prof_sb: Option<u32>,
    /// WPQ-delay cycles folded into the current instruction's cost
    /// (profiler splits them out of the busy window).
    prof_busy_wpq: u64,
    /// Scheme-stall cycles folded into the current instruction's cost.
    prof_busy_scheme: u64,
}

/// What one issue slot did (drives both the issue loop and the profiler).
enum SlotOutcome {
    /// An instruction issued; `more` means another slot may issue this cycle.
    Issued { more: bool },
    /// The core stalled in the persist machinery.
    Stalled(StallKind),
    /// The core was halted or busy on entry (later slots only).
    Blocked,
}

/// The simulated machine.
pub struct Machine<'m> {
    module: &'m Module,
    cfg: &'m SimConfig,
    scheme: Scheme,
    cycle: u64,
    arch_mem: Memory,
    nvm: Memory,
    cores: Vec<Core<'m>>,
    shared: Vec<Cache>,
    dram_cache: Option<Cache>,
    mcs: Vec<MemoryController>,
    path: PersistPath,
    dyn_counter: u64,
    stats: SimStats,
    device: IoDevice,
    resume_meta: Vec<(ResumePoint, Option<RegionId>)>,
    /// Consumers of the persist-event stream (trace ring, flight journal).
    /// `None` keeps every hook to a single predicted-not-taken branch.
    consumers: Option<Consumers>,
    profiler: Option<CycleProfiler>,
    /// Shadow of each core's persisted resume region (the RBT head's dynamic
    /// id at the last metadata write) — survives an empty RBT at the crash.
    resume_dyn: Vec<Option<u64>>,
    /// Reused scratch for [`MemoryController::tick_drained`] output.
    nvm_drained: Vec<(u64, u8, Word, DynRegionId)>,
    /// Cached sum of live MC undo-log records; recomputed only when a log
    /// append or deallocation may have changed it (`logs_dirty`).
    live_logs_cache: usize,
    logs_dirty: bool,
    /// Opt-in durability-ordering oracle for [`Scheme::AutoFence`] crash
    /// tests (see [`Machine::enable_durability_oracle`]). `None` on every
    /// measured run.
    oracle: Option<DurabilityOracle>,
}

/// Ground truth for the flush/fence semantics under [`Scheme::AutoFence`]:
/// tracks, per word, the value guaranteed durable by the last completed
/// ordering fence. At a crash, NVM must still hold that value for every word
/// not flushed again since — otherwise the machine lost a fenced flush and
/// the I6 static guarantee would be vacuous.
#[derive(Debug, Default)]
struct DurabilityOracle {
    /// Word → value covered by the latest completed fence.
    durable: std::collections::HashMap<Word, Word>,
    /// Words flushed again after their durable value was recorded (their NVM
    /// cell may legitimately hold a newer snapshot at the crash).
    refreshed: std::collections::HashSet<Word>,
    /// Per-core (word, value) snapshots flushed since that core's last
    /// completed fence.
    pending: Vec<Vec<(Word, Word)>>,
}

impl<'m> Machine<'m> {
    /// Build a machine executing `module` under `scheme`. Core `i` receives
    /// `i` as the entry function's first argument when it takes parameters
    /// (thread id for multicore workloads).
    ///
    /// # Panics
    /// Panics if the module has no entry function.
    pub fn new(module: &'m Module, cfg: &'m SimConfig, scheme: Scheme) -> Self {
        let mut arch_mem = Memory::new();
        let mut cores = Vec::new();
        let mut resume_meta = Vec::new();
        let entry_fn = module.entry().expect("module has an entry");
        let entry_params = module.function(entry_fn).param_count as usize;
        // Decode the module once; every core executes from the same flat
        // micro-op stream.
        let dec = Arc::new(DecodedModule::new(module));
        for core in 0..cfg.cores {
            let nargs = if core == 0 { 0 } else { 1.min(entry_params) };
            let interp = if nargs == 0 {
                // Core 0 passes no args; a thread-id parameter reads as 0.
                Interp::new_shared(module, Arc::clone(&dec), core, &mut arch_mem)
                    .expect("module has an entry")
            } else {
                let args = [core as Word];
                Interp::with_args_shared(module, Arc::clone(&dec), core, &mut arch_mem, &args)
                    .expect("module has an entry")
            };
            let base =
                layout::stack_top(core) - cwsp_ir::interp::frame::size_words(0, nargs as u64) * 8;
            let entry_resume = ResumePoint {
                func: entry_fn,
                block: module.function(entry_fn).entry(),
                idx: 0,
                frame_base: base,
                sp: base,
                kind: ResumeKind::FuncEntry,
            };
            resume_meta.push((entry_resume, None));
            cores.push(Core {
                interp,
                l1: Cache::new(cfg.sram_levels[0]),
                wb: WriteBuffer::new(cfg.wb_entries, cfg.wb_drain_cycles),
                pb: PersistBuffer::new(pb_capacity(scheme, cfg)),
                rbt: RegionBoundaryTable::new(cfg.rbt_entries),
                busy_until: 0,
                halted: false,
                pending_pb: VecDeque::new(),
                pending_boundary: None,
                pending_evictions: VecDeque::new(),
                sync_drain: false,
                sync_writes: Vec::new(),
                sync_resume: None,
                region_insts: 0,
                capri_region_lines: Vec::new(),
                eff_scratch: StepEffect::default(),
                open_stall: None,
                prof_site: (None, None),
                prof_sb: None,
                prof_busy_wpq: 0,
                prof_busy_scheme: 0,
            });
        }
        let nvm = arch_mem.clone();
        let shared = cfg.sram_levels[1..]
            .iter()
            .map(|p| Cache::new(*p))
            .collect();
        let dram_cache = cfg.dram_cache.map(Cache::new);
        // Media-level banking/write-combining: an 8-byte WPQ entry occupies
        // its slot for a fraction of the raw media write latency.
        let drain = (cfg.main_memory.write_cycles() / 32).max(2);
        let mcs = (0..cfg.mem_controllers)
            .map(|i| MemoryController::new(i, cfg.wpq_entries, drain, drain))
            .collect();
        // cWSP's granularity is configurable (the §V-A2 8-byte vs 64-byte
        // ablation); cacheline schemes are fixed at 64 bytes.
        let granularity = match scheme {
            Scheme::Cwsp(_) => cfg.persist_granularity,
            _ => scheme.persist_granularity(),
        };
        let path = PersistPath::new(
            cfg.persist_path_cycles / 2, // one-way
            cfg.path_bytes_per_cycle(),
            granularity,
        );
        let mut machine = Machine {
            module,
            cfg,
            scheme,
            cycle: 0,
            arch_mem,
            nvm,
            cores,
            shared,
            dram_cache,
            mcs,
            path,
            dyn_counter: 0,
            stats: SimStats::default(),
            device: IoDevice::new(),
            resume_meta,
            consumers: FlightRecorder::from_config().map(|journal| Consumers {
                ring: None,
                journal: Some(journal),
            }),
            profiler: None,
            resume_dyn: vec![None; cfg.cores],
            nvm_drained: Vec::new(),
            live_logs_cache: 0,
            logs_dirty: false,
            oracle: None,
        };
        // Open the initial region on every core (the program-entry region is
        // the non-speculative head from the start) and persist its metadata.
        if machine.uses_rbt() {
            for core in 0..machine.cfg.cores {
                let (resume, sr) = machine.resume_meta[core];
                let dyn_id = machine.next_dyn();
                machine.cores[core].rbt.open(RbtEntry {
                    dyn_id,
                    static_region: sr,
                    resume,
                    pending: 0,
                    mc_mask: 0,
                    closed: false,
                });
                machine.write_meta(core);
            }
        }
        machine
    }

    fn next_dyn(&mut self) -> DynRegionId {
        let id = DynRegionId(self.dyn_counter);
        self.dyn_counter += 1;
        id
    }

    /// Persist core `core`'s recovery metadata (the RBT head's "RS pointer",
    /// §V-B step 4) into the NVM image.
    fn write_meta(&mut self, core: usize) {
        if let Some(h) = self.cores[core].rbt.head() {
            self.resume_meta[core] = (h.resume, h.static_region);
            self.resume_dyn[core] = Some(h.dyn_id.0);
        }
        let (rp, sr) = self.resume_meta[core];
        let base = layout::RECOVERY_META_BASE + core as Word * layout::RECOVERY_META_STRIDE;
        for (i, w) in pack_meta(rp, sr).into_iter().enumerate() {
            self.nvm.store(base + i as Word * 8, w);
        }
    }

    /// Enable event tracing with a ring of `cap` events (see
    /// [`crate::trace::Trace`]); call before [`Machine::run`].
    pub fn enable_trace(&mut self, cap: usize) {
        self.consumers.get_or_insert_with(Consumers::default).ring = Some(Trace::new(cap));
    }

    /// Enable the durability-ordering oracle (AutoFence crash tests); call
    /// before [`Machine::run`]. Records, per word, the value the flush/fence
    /// contract guarantees durable, so a post-crash NVM image can be checked
    /// against it via [`Machine::durability_violations`].
    pub fn enable_durability_oracle(&mut self) {
        self.oracle = Some(DurabilityOracle {
            pending: vec![Vec::new(); self.cfg.cores],
            ..Default::default()
        });
    }

    /// Words whose NVM cell no longer holds their fence-guaranteed durable
    /// value (and were not flushed again since). Empty when the oracle is
    /// disabled or the flush/fence contract held. Call at the crash point,
    /// before [`Machine::into_crash_image`] consumes the machine.
    pub fn durability_violations(&self) -> Vec<Word> {
        let Some(o) = &self.oracle else {
            return Vec::new();
        };
        let mut bad: Vec<Word> = o
            .durable
            .iter()
            .filter(|&(w, &v)| !o.refreshed.contains(w) && self.nvm.load(*w) != v)
            .map(|(&w, _)| w)
            .collect();
        bad.sort_unstable();
        bad
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.consumers.as_ref()?.ring.as_ref()
    }

    /// Force-enable the flight recorder (independent of `CWSP_FLIGHT`); call
    /// before [`Machine::run`]. No-op when one is already attached.
    ///
    /// # Errors
    /// Propagates journal-file creation failure.
    pub fn enable_flight(&mut self) -> std::io::Result<()> {
        if self.flight().is_none() {
            self.attach_flight(FlightRecorder::create()?);
        }
        Ok(())
    }

    /// Attach a recorder built elsewhere (e.g. on a caller-chosen journal
    /// directory), replacing any existing one.
    pub fn attach_flight(&mut self, f: FlightRecorder) {
        self.consumers
            .get_or_insert_with(Consumers::default)
            .journal = Some(f);
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.consumers.as_ref()?.journal.as_ref()
    }

    /// Decoded journal records (flushed pages plus the in-memory tail), or
    /// empty when no recorder is attached.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.flight()
            .map(FlightRecorder::records)
            .unwrap_or_default()
    }

    /// Snapshot the crash-instant persist frontier: what is still volatile
    /// on every core (PB / pending stores / uncommitted sync writes / WB /
    /// dirty L1) and what sits in each WPQ. Callable on the live machine —
    /// take it before [`Machine::into_crash_image`] consumes the state.
    pub fn frontier(&self) -> MachineFrontier {
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| CoreFrontier {
                resume_region: self.resume_dyn[i],
                halted: c.halted,
                pb: c
                    .pb
                    .entries()
                    .map(|(e, sent)| (e.addr, e.region.0, sent))
                    .collect(),
                pending: c.pending_pb.iter().map(|&(a, _)| a).collect(),
                sync_pending: c.sync_writes.iter().map(|&(a, _)| a).collect(),
                wb_lines: c.wb.parked_lines().collect(),
                dirty_l1: c.l1.dirty_lines(),
            })
            .collect();
        MachineFrontier {
            crash_cycle: self.cycle,
            cores,
            wpq: self
                .mcs
                .iter()
                .map(|m| m.wpq_entries().map(|(a, r)| (a, r.0)).collect())
                .collect(),
            live_log_records: self.mcs.iter().map(|m| m.live_log_records() as u64).sum(),
        }
    }

    /// Enable exact cycle attribution (see [`crate::profiler`]); call before
    /// [`Machine::run`]. Unlike tracing, this classifies every core-cycle,
    /// so it adds measurable (but small) simulation overhead.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(CycleProfiler::new());
    }

    /// The flat cycle-attribution profile, if profiling was enabled.
    pub fn flat_profile(&self) -> Option<cwsp_obs::FlatProfile> {
        self.profiler.as_ref().map(|p| p.to_flat(self.module))
    }

    /// The exec profile at superblock (fused-dispatch) granularity, if
    /// profiling was enabled; the region column carries the super-op index.
    pub fn superblock_profile(&self) -> Option<cwsp_obs::FlatProfile> {
        self.profiler
            .as_ref()
            .map(|p| p.superblock_flat(self.module))
    }

    /// Fraction of exec cycles attributed to a known superblock (profiled
    /// runs only).
    pub fn superblock_coverage(&self) -> Option<f64> {
        self.profiler
            .as_ref()
            .map(CycleProfiler::superblock_coverage)
    }

    /// The recorded trace as Chrome trace-event JSON tracks, if tracing was
    /// enabled.
    pub fn chrome_trace(&self) -> Option<cwsp_obs::ChromeTrace> {
        self.trace()
            .map(|t| t.to_chrome(self.cores.len(), self.mcs.len()))
    }

    /// Emit one persist event to the attached consumers: the one reader of
    /// `self.consumers` besides the public accessors. With none attached
    /// this is one predicted branch and `event` never runs, so a hook builds
    /// nothing; `event` may return `None` to emit nothing.
    #[inline(always)]
    fn emit<E: Into<Option<Event>>>(&mut self, event: impl FnOnce(&mut Self) -> E) {
        if self.consumers.is_none() {
            return;
        }
        if let (Some(e), Some(c)) = (event(self).into(), &mut self.consumers) {
            c.consume(e);
        }
    }

    /// Note one stall cycle on core `i`. Consecutive cycles of the same
    /// kind on the same draining region coalesce into one span, emitted when
    /// it ends. Stall spans are ring-only, so without a ring nothing is
    /// coalesced.
    #[inline]
    fn note_stall(&mut self, i: usize, kind: StallKind) {
        if self.trace().is_none() {
            return;
        }
        self.emit(|m| {
            // The draining region is the RBT head (oldest unpersisted); fall
            // back to the open tail for stalls before anything is in flight.
            let rbt = &m.cores[i].rbt;
            let region = rbt.head().or_else(|| rbt.tail()).map(|e| e.dyn_id);
            let span = Event::Stall {
                cycle: m.cycle,
                core: i,
                kind,
                region,
                cycles: 1,
            };
            match &mut m.cores[i].open_stall {
                Some(Event::Stall {
                    kind: k,
                    region: r,
                    cycles,
                    ..
                }) if *k == kind && *r == region => {
                    *cycles += 1;
                    None
                }
                open => open.replace(span),
            }
        });
    }

    /// Charge one profiled core-cycle (no-op branch when profiling is off).
    #[inline]
    fn charge(&mut self, site: Site, cause: Cause) {
        if let Some(p) = &mut self.profiler {
            p.charge(site, cause);
        }
    }

    /// The current attribution site for core `i`: executing function +
    /// open static region.
    fn cur_site(&self, i: usize) -> Site {
        let core = &self.cores[i];
        (
            core.interp.position().map(|rp| rp.func),
            core.rbt.tail().and_then(|e| e.static_region),
        )
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Output released so far (persisted regions only).
    pub fn output(&self) -> &[Word] {
        self.device.flushed()
    }

    /// The I/O device (redo-buffer inspection).
    pub fn device(&self) -> &IoDevice {
        &self.device
    }

    /// The architectural memory (for end-of-run verification).
    pub fn arch_mem(&self) -> &Memory {
        &self.arch_mem
    }

    /// The NVM image (lags architectural state by the persist pipeline).
    pub fn nvm(&self) -> &Memory {
        &self.nvm
    }

    /// Run until completion, an instruction budget, or a crash cycle.
    ///
    /// A crash cycle at or after the cycle the machine completes is no
    /// crash: the last region has retired and released its output, so the
    /// run ends [`RunEnd::Completed`].
    ///
    /// # Errors
    /// Propagates interpreter traps (a trap is a program bug, not a
    /// simulation outcome).
    pub fn run(
        &mut self,
        max_insts: u64,
        crash_at_cycle: Option<u64>,
    ) -> Result<RunResult, InterpError> {
        loop {
            let done = self.all_done();
            let end = if crash_at_cycle.is_some_and(|c| !done && self.cycle >= c) {
                Some(RunEnd::PowerFailure)
            } else if self.stats.insts >= max_insts {
                Some(RunEnd::InstLimit)
            } else if done {
                Some(RunEnd::Completed)
            } else {
                None
            };
            if let Some(end) = end {
                for i in 0..self.cores.len() {
                    self.emit(|m| m.cores[i].open_stall.take());
                }
                self.emit(|m| Event::RunEnd {
                    cycle: m.cycle,
                    end,
                });
                self.finalize_stats();
                return Ok(RunResult {
                    end,
                    stats: self.stats.clone(),
                });
            }
            if self.profiler.is_none() {
                self.idle_skip(crash_at_cycle);
            }
            self.tick()?;
        }
    }

    /// Event-horizon fast-forward: when every core is halted or mid-latency
    /// and no machinery event (path arrival, PB send, WB drain, RBT retire,
    /// sync poll, stall poll) can occur before cycle `T`, jump directly to
    /// `T - 1` instead of ticking through provably idle cycles one by one.
    ///
    /// Exactness: a skipped cycle's tick would only (a) accrue path tokens —
    /// replayed bit-exactly by [`PersistPath::advance`]; (b) pop drained WPQ
    /// slots — deferred safely because pops are monotone and only observed at
    /// arrivals or core loads, both of which bound `T`, and journaled (when a
    /// flight recorder is attached) at each slot's own `free_at` cycle in
    /// (cycle, controller) order by the tick that pops them; and (c) add the
    /// (constant while idle) WB/PB occupancies to their integrals — added in
    /// closed form here. Every stat, trace event, flight-journal record and
    /// state transition is byte-identical to the cycle-by-cycle path.
    fn idle_skip(&mut self, crash_at_cycle: Option<u64>) {
        let cycle = self.cycle;
        let mut t = u64::MAX;
        for c in &self.cores {
            if c.halted {
                continue;
            }
            // A core that can issue (or poll a stall/sync condition) next
            // tick forbids skipping: polls mutate stall statistics.
            if c.busy_until <= cycle + 1 {
                return;
            }
            t = t.min(c.busy_until);
        }
        for c in &self.cores {
            // Due (or delay-held) WB heads are checked every tick.
            if let Some(d) = c.wb.next_drain_cycle() {
                if d <= cycle + 1 {
                    return;
                }
                t = t.min(d);
            }
            // A retirable RBT head retires next tick.
            if c.rbt.head().is_some_and(|h| h.closed && h.pending == 0) {
                return;
            }
            // Unsent PB entries send as soon as path tokens accrue.
            if c.pb.has_unsent() {
                let k = self.path.cycles_until_tokens().max(1);
                if k == 1 {
                    return;
                }
                t = t.min(cycle.saturating_add(k));
            }
        }
        if let Some(a) = self.path.next_arrival_cycle() {
            if a <= cycle + 1 {
                return; // arrived (possibly WPQ-blocked): retried every tick
            }
            t = t.min(a);
        }
        if t == u64::MAX || t <= cycle + 1 {
            return;
        }
        // Stop one cycle short of the crash: the tick that follows runs
        // cycle `c` itself, exactly as the cycle-by-cycle path would.
        let mut target = t - 1;
        if let Some(c) = crash_at_cycle {
            target = target.min(c.saturating_sub(1));
        }
        if target <= cycle {
            return;
        }
        let skipped = target - cycle;
        self.path.advance(skipped);
        let mut occ_wb = 0u64;
        let mut occ_pb = 0u64;
        for c in &self.cores {
            occ_wb += c.wb.occupancy() as u64;
            occ_pb += c.pb.occupancy() as u64;
        }
        self.stats.wb_occupancy_sum += skipped * occ_wb;
        self.stats.pb_occupancy_sum += skipped * occ_pb;
        self.cycle = target;
    }

    fn all_done(&self) -> bool {
        self.cores.iter().all(|c| {
            c.halted
                && c.pending_pb.is_empty()
                && c.pb.is_empty()
                && c.rbt.is_empty()
                && c.pending_boundary.is_none()
        })
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        let mut mix = [0u64; cwsp_ir::decoded::OPCODE_COUNT];
        for core in &self.cores {
            for (m, &c) in mix.iter_mut().zip(core.interp.op_counts()) {
                *m += c;
            }
        }
        self.stats.op_mix = mix;
        self.stats.l1 = self
            .cores
            .iter()
            .map(|c| c.l1.stats())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        if let Some(last) = self.shared.last() {
            self.stats.llc_sram = last.stats();
        }
        if let Some(d) = &self.dram_cache {
            self.stats.dram_cache = d.stats();
        }
        self.stats.nvm_writes += self.mcs.iter().map(|m| m.nvm_writes).sum::<u64>();
        self.stats.log_appends = self.mcs.iter().map(|m| m.log_appends).sum();
    }

    /// Advance one cycle.
    fn tick(&mut self) -> Result<(), InterpError> {
        self.cycle += 1;
        let cycle = self.cycle;

        // --- persist machinery ---
        self.path.tick();
        if self.flight().is_some() {
            // Journal attached: emit each drained WPQ slot as an NVM media
            // commit at its `free_at` cycle. After an idle skip one tick
            // pops the slots of many cycles; ordering the batch by
            // (free_at, mc) — stable, so each controller keeps its FIFO
            // order — gives the cycle-by-cycle path's journal exactly. The
            // plain `tick` below stays on the recorder-off hot path.
            self.nvm_drained.clear();
            for mc in &mut self.mcs {
                mc.tick_drained(cycle, &mut self.nvm_drained);
            }
            self.nvm_drained.sort_by_key(|&(at, mi, ..)| (at, mi));
            let drained = std::mem::take(&mut self.nvm_drained);
            for &(at, mc, addr, region) in &drained {
                self.emit(|_| Event::NvmCommit {
                    cycle: at,
                    mc: mc as usize,
                    region,
                    addr,
                });
            }
            self.nvm_drained = drained;
        } else {
            for mc in &mut self.mcs {
                mc.tick(cycle);
            }
        }
        // Path arrivals → WPQ (FIFO; head-of-line blocks on a full WPQ).
        let cacheline_scheme = matches!(self.scheme, Scheme::Capri | Scheme::ReplayCache);
        while let Some(e) = self.path.peek_arrival(cycle).copied() {
            let accepted = if cacheline_scheme {
                // Line payloads are not materialized; charge timing only.
                self.mcs[e.mc].accept_timing_only(cycle, e.region, e.addr)
            } else {
                self.mcs[e.mc].accept(cycle, e.region, e.addr, e.data, e.log_bit, &mut self.nvm)
            };
            if !accepted {
                break;
            }
            self.path.pop_arrival();
            self.emit(|m| Event::WpqAccept {
                cycle,
                core: e.core,
                mc: e.mc,
                region: e.region,
                addr: e.addr,
                logged: !cacheline_scheme && m.mcs[e.mc].logs(e.region, e.log_bit),
            });
            let core = &mut self.cores[e.core];
            core.pb.complete(e.pb_seq);
            core.rbt.on_ack(e.region);
            self.logs_dirty = true;
        }
        // PB → path sends (round-robin start for fairness).
        let ncores = self.cores.len();
        for k in 0..ncores {
            let i = (cycle as usize + k) % ncores;
            let core = &mut self.cores[i];
            if let Some(&e) = core.pb.next_unsent() {
                let mc = self.cfg.mc_of(e.addr);
                let skew = self.cfg.mc_numa_skew_cycles * mc as u64;
                if self.path.try_send(
                    cycle, i, e.seq, e.region, e.addr, e.data, e.log_bit, mc, skew,
                ) {
                    core.pb.mark_sent();
                }
            }
        }
        // RBT retirements: flush region output, promote the next head,
        // deallocate its logs, persist new recovery metadata.
        for i in 0..ncores {
            while let Some(retired) = self.cores[i].rbt.try_retire() {
                // Release the region's I/O redo buffer to the device (§VIII).
                self.device.flush_region(retired.dyn_id);
                self.emit(|_| Event::RegionRetire {
                    cycle,
                    core: i,
                    region: retired.dyn_id,
                });
                if let Some(h) = self.cores[i].rbt.head() {
                    let hid = h.dyn_id;
                    for mc in &mut self.mcs {
                        mc.dealloc_logs_upto(hid);
                    }
                    self.logs_dirty = true;
                }
                self.write_meta(i);
            }
            // Sample the live-log peak exactly as the per-cycle walk did,
            // but only recompute the (BTreeMap-walking) sum when an append
            // or deallocation may have changed it since the last sample.
            if self.logs_dirty {
                self.live_logs_cache = self.mcs.iter().map(|m| m.live_log_records()).sum();
                self.logs_dirty = false;
            }
            self.stats.peak_live_logs = self.stats.peak_live_logs.max(self.live_logs_cache);
        }
        // WB drains (with the cWSP PB-CAM delay when enabled).
        let wb_delay_on = matches!(self.scheme, Scheme::Cwsp(f) if f.wb_delay && f.persist_path);
        for core in &mut self.cores {
            let mut delayed = false;
            let pb = &core.pb;
            let _ = core.wb.try_drain(
                cycle,
                |line| wb_delay_on && pb.matches_line(line),
                &mut delayed,
            );
            if delayed {
                self.stats.wb_delays += 1;
            }
        }

        // --- occupancy integrals ---
        for core in &self.cores {
            self.stats.wb_occupancy_sum += core.wb.occupancy() as u64;
            self.stats.pb_occupancy_sum += core.pb.occupancy() as u64;
        }

        // --- cores ---
        for i in 0..ncores {
            self.advance_core(i)?;
        }
        Ok(())
    }

    /// Progress core `i` by up to `issue_width` instructions this cycle (or
    /// unblock pending work). Register-class instructions and L1-hit accesses
    /// consume one issue slot; longer operations block the core for their
    /// latency.
    fn advance_core(&mut self, i: usize) -> Result<(), InterpError> {
        if self.profiler.is_none() {
            // Fast path: no per-cycle classification.
            let mut slots = self.cfg.issue_width;
            while slots > 0 {
                // Fused superblock burst: when the core has no pending
                // persist work, consecutive register-only ops issue as one
                // dispatch. Each such op is exactly what advance_core_once
                // would do for it — an empty ALU effect, cost 1, one issue
                // slot — so stats and state are byte-identical; only the
                // per-op dispatch overhead is elided. The burst emits no
                // events, and no stall span is open under these guards (every
                // stall kind leaves one of them set until the core issues).
                let c = &mut self.cores[i];
                if !c.halted
                    && c.busy_until <= self.cycle
                    && !c.sync_drain
                    && c.pending_boundary.is_none()
                    && c.pending_evictions.is_empty()
                    && c.pending_pb.is_empty()
                {
                    let burst = c.interp.step_run(slots);
                    if burst > 0 {
                        c.region_insts += burst as u64;
                        self.stats.insts += burst as u64;
                        slots -= burst;
                        continue;
                    }
                }
                if !matches!(
                    self.advance_core_once(i)?,
                    SlotOutcome::Issued { more: true }
                ) {
                    break;
                }
                slots -= 1;
            }
            return Ok(());
        }
        // Profiled path: classify exactly one core-cycle.
        if self.cores[i].halted {
            self.charge((None, None), Cause::Halted);
            return Ok(());
        }
        if self.cores[i].busy_until > self.cycle {
            // A long-latency instruction is in flight. Split lump-sum stall
            // latencies folded into its cost back out to their cause; the
            // remainder is execution time at the issue site.
            let site = self.cores[i].prof_site;
            let cause = if self.cores[i].prof_busy_scheme > 0 {
                self.cores[i].prof_busy_scheme -= 1;
                Cause::Stall(StallKind::Scheme)
            } else if self.cores[i].prof_busy_wpq > 0 {
                self.cores[i].prof_busy_wpq -= 1;
                Cause::Stall(StallKind::Wpq)
            } else {
                Cause::Exec
            };
            if cause == Cause::Exec {
                let sb = self.cores[i].prof_sb;
                if let Some(p) = &mut self.profiler {
                    p.charge_exec_superblock(site.0, sb);
                }
            }
            self.charge(site, cause);
            return Ok(());
        }
        let mut attr: Option<(Site, Cause)> = None;
        for _slot in 0..self.cfg.issue_width {
            match self.advance_core_once(i)? {
                SlotOutcome::Issued { more } => {
                    attr = Some((self.cores[i].prof_site, Cause::Exec));
                    if !more {
                        break;
                    }
                }
                SlotOutcome::Stalled(kind) => {
                    // A stall after an issue still counts as an issuing cycle.
                    if attr.is_none() {
                        attr = Some((self.cur_site(i), Cause::Stall(kind)));
                    }
                    break;
                }
                SlotOutcome::Blocked => break,
            }
        }
        let (site, cause) = attr.unwrap_or(((None, None), Cause::Exec));
        // Only an actually-issued slot carries a fresh superblock capture;
        // the no-slot fallback would pair a stale one.
        if attr.is_some() && cause == Cause::Exec {
            let sb = self.cores[i].prof_sb;
            if let Some(p) = &mut self.profiler {
                p.charge_exec_superblock(site.0, sb);
            }
        }
        self.charge(site, cause);
        Ok(())
    }

    /// One issue slot for core `i`.
    fn advance_core_once(&mut self, i: usize) -> Result<SlotOutcome, InterpError> {
        let cycle = self.cycle;
        if self.cores[i].halted || self.cores[i].busy_until > cycle {
            return Ok(SlotOutcome::Blocked);
        }
        // Drain pending dirty evictions into the WB first.
        while let Some(&line) = self.cores[i].pending_evictions.front() {
            if self.cores[i].wb.has_space() {
                self.cores[i].wb.push(line);
                self.cores[i].pending_evictions.pop_front();
                self.emit(|_| Event::LineEvict {
                    cycle,
                    core: i,
                    line,
                });
            } else {
                self.stats.stall_wb += 1;
                self.note_stall(i, StallKind::Wb);
                return Ok(SlotOutcome::Stalled(StallKind::Wb));
            }
        }
        // Pending PB inserts from an already-executed store (or, under
        // AutoFence, from an executed flush — line words awaiting PB space).
        let uses_rbt = self.uses_rbt();
        while let Some(&(addr, data)) = self.cores[i].pending_pb.front() {
            if self.cores[i].pb.has_space() {
                let core = &mut self.cores[i];
                let (region, log_bit) = if uses_rbt {
                    let Some(tail) = core.rbt.tail() else {
                        return Err(InterpError::Trap(
                            "store issued with no open region (malformed module: missing region boundary)"
                                .into(),
                        ));
                    };
                    (tail.dyn_id, core.rbt.tail_is_speculative())
                } else {
                    // AutoFence: no region machinery; entries ride the path
                    // under the sentinel region (like Capri's redo lines).
                    (DynRegionId(0), false)
                };
                core.pb.push(region, addr, data, log_bit);
                if uses_rbt {
                    core.rbt.on_store(self.cfg.mc_of(addr));
                }
                core.pending_pb.pop_front();
                // Issue order with (function, region) attribution: the
                // spine of the persist lineage.
                self.emit(|m| Event::StoreIssue {
                    cycle,
                    core: i,
                    func: m.cores[i].interp.position().map(|rp| rp.func),
                    region,
                    addr,
                });
            } else {
                self.stats.stall_pb += 1;
                self.note_stall(i, StallKind::Pb);
                return Ok(SlotOutcome::Stalled(StallKind::Pb));
            }
        }
        // Pending boundary: needs RBT space (plus a full drain when MC
        // speculation is off — the conservative prior-work behavior).
        if let Some(b) = self.cores[i].pending_boundary {
            let spec_on = matches!(self.scheme, Scheme::Cwsp(f) if f.mc_speculation);
            let uses_rbt = self.uses_rbt();
            let ready = if !uses_rbt {
                true
            } else if spec_on {
                self.cores[i].rbt.has_space()
            } else {
                // Without MC speculation the core may not persist a region
                // while an older one is still in flight (§II-B): at most the
                // closing region plus the new one occupy the table.
                self.cores[i].rbt.occupancy() <= 1
            };
            if !ready {
                self.stats.stall_rbt += 1;
                self.note_stall(i, StallKind::Rbt);
                return Ok(SlotOutcome::Stalled(StallKind::Rbt));
            }
            if uses_rbt {
                let dyn_id = self.next_dyn();
                let core = &mut self.cores[i];
                core.rbt.close_tail();
                let was_empty = core.rbt.is_empty();
                core.rbt.open(RbtEntry {
                    dyn_id,
                    static_region: b.static_region,
                    resume: b.resume,
                    pending: 0,
                    mc_mask: 0,
                    closed: false,
                });
                if was_empty {
                    self.write_meta(i);
                }
                self.emit(|_| Event::RegionOpen {
                    cycle,
                    core: i,
                    region: dyn_id,
                });
            }
            self.cores[i].pending_boundary = None;
            self.stats.regions += 1;
            self.stats.region_insts += self.cores[i].region_insts;
            let n = self.cores[i].region_insts;
            self.stats.record_region_size(n);
            self.cores[i].region_insts = 0;
        }
        // Sync drain (atomic/fence waiting for full persistence, §VIII; under
        // AutoFence also a pfence waiting for prior flushes to reach the ADR
        // domain — no RBT to drain, just the PB and its feed queue).
        if self.cores[i].sync_drain {
            let drained = if self.uses_rbt() {
                self.cores[i].rbt.drained()
                    && self.cores[i].pb.is_empty()
                    && self.cores[i].pending_pb.is_empty()
            } else {
                self.cores[i].pb.is_empty() && self.cores[i].pending_pb.is_empty()
            };
            if !drained {
                self.stats.stall_sync += 1;
                self.note_stall(i, StallKind::Sync);
                return Ok(SlotOutcome::Stalled(StallKind::Sync));
            }
            // Commit the sync point: its store persists synchronously, and
            // the recovery point advances past it (it must never re-execute).
            self.cores[i].sync_drain = false;
            let mut writes = std::mem::take(&mut self.cores[i].sync_writes);
            if let Some((rp, _)) = &self.cores[i].sync_resume {
                // Recovery resumes at the `ckpt` run right after the atomic,
                // whose slice reloads the atomic's result from its slot: the
                // slot words persist with the atomic, or a kill before those
                // checkpoint stores drain replays a stale result. The core
                // stalled since the atomic issued, so its registers still
                // hold exactly what the checkpoints will store.
                let interp = &self.cores[i].interp;
                let insts = &self.module.function(rp.func).block(rp.block).insts[rp.idx..];
                for inst in insts {
                    let Inst::Ckpt { reg } = *inst else { break };
                    writes.push((layout::ckpt_slot_addr(i, reg), interp.reg(reg)));
                }
            }
            for &(a, v) in &writes {
                self.nvm.store(a, v);
                self.stats.nvm_writes += 1;
            }
            if let Some(o) = &mut self.oracle {
                // The completed drain makes every flush issued before it —
                // and the sync's own writes — durable.
                for (w, v) in o.pending[i].drain(..) {
                    o.durable.insert(w, v);
                    o.refreshed.remove(&w);
                }
                for &(w, v) in &writes {
                    o.durable.insert(w, v);
                    o.refreshed.remove(&w);
                }
            }
            writes.clear();
            self.cores[i].sync_writes = writes;
            if let Some((rp, sr)) = self.cores[i].sync_resume.take() {
                // The open region is the head (we just drained); rewrite its
                // recovery entry so the committed sync never re-executes.
                if let Some(h) = self.cores[i].rbt.head().copied() {
                    let mut e = h;
                    e.resume = rp;
                    e.static_region = sr;
                    self.cores[i].rbt.replace_head(e);
                }
                self.resume_meta[i] = (rp, sr);
                self.write_meta(i);
            }
            // The committed sync advanced the resume point mid-region:
            // journaled stores of this region issued before it never replay.
            self.emit(|m| Event::SyncCommit {
                cycle,
                core: i,
                region: m.cores[i].rbt.head().map(|h| h.dyn_id),
            });
        }

        // The stall (if any) ended: emit its coalesced span.
        if self.cores[i].open_stall.is_some() {
            self.emit(|m| m.cores[i].open_stall.take());
        }
        if self.profiler.is_some() {
            // Capture the issue site before stepping (the interpreter's
            // position moves past the instruction), and reset the lump-sum
            // stall split for this instruction's cost.
            self.cores[i].prof_site = self.cur_site(i);
            self.cores[i].prof_sb = self.cores[i].interp.current_super_op();
            self.cores[i].prof_busy_wpq = 0;
            self.cores[i].prof_busy_scheme = 0;
        }
        // Execute one instruction into the core's reused effect buffer.
        let mut eff = std::mem::take(&mut self.cores[i].eff_scratch);
        if let Err(e) = self.cores[i].interp.step_into(&mut self.arch_mem, &mut eff) {
            self.cores[i].eff_scratch = eff;
            return Err(e);
        }
        self.stats.insts += 1;
        self.cores[i].region_insts += 1;
        let cost = match self.apply_effect(i, &eff) {
            Ok(c) => c,
            Err(e) => {
                self.cores[i].eff_scratch = eff;
                return Err(e);
            }
        };
        self.cores[i].eff_scratch = eff;
        if cost <= 1 {
            // Slot-cost instruction: the core may issue again this cycle.
            Ok(SlotOutcome::Issued {
                more: !self.cores[i].halted,
            })
        } else {
            self.cores[i].busy_until = cycle + cost;
            Ok(SlotOutcome::Issued { more: false })
        }
    }

    fn uses_rbt(&self) -> bool {
        self.scheme.uses_persist_path() && matches!(self.scheme, Scheme::Cwsp(_))
    }

    /// Turn a step effect into timing + persist actions; returns its cost.
    fn apply_effect(
        &mut self,
        i: usize,
        eff: &cwsp_ir::interp::StepEffect,
    ) -> Result<u64, InterpError> {
        let mut cost: u64 = 1;
        let is_cwsp_path = matches!(self.scheme, Scheme::Cwsp(f) if f.persist_path);
        match eff.kind {
            EffectKind::Alu | EffectKind::Boundary | EffectKind::Out => {}
            EffectKind::Load => {
                cost = self.load_cost(i, eff.reads[0]);
            }
            EffectKind::Store | EffectKind::Ckpt => {
                let (a, v) = eff.writes[0];
                cost = self.store_cost(i, a, v);
                if eff.kind == EffectKind::Ckpt {
                    self.stats.ckpt_stores += 1;
                    self.emit(|m| Event::Checkpoint {
                        cycle: m.cycle,
                        core: i,
                        func: m.cores[i].interp.position().map(|rp| rp.func),
                        region: m.cores[i].rbt.tail().map(|e| e.dyn_id),
                        addr: a,
                    });
                } else {
                    self.stats.stores += 1;
                }
            }
            EffectKind::Call | EffectKind::Ret => {
                // Frame traffic: spill stores / restore loads.
                for &(a, v) in &eff.writes {
                    cost += self.store_cost(i, a, v);
                    self.stats.frame_stores += 1;
                }
                for &a in &eff.reads {
                    cost += self.load_cost(i, a);
                }
            }
            EffectKind::Atomic | EffectKind::Fence => {
                self.stats.syncs += 1;
                cost = 20;
                if self.uses_rbt() {
                    // Drain, then persist the atomic synchronously and advance
                    // the recovery point past it (see module docs).
                    let sync_resume = self.after_sync_resume(i);
                    let core = &mut self.cores[i];
                    core.sync_drain = true;
                    core.sync_writes.clear();
                    core.sync_writes.extend_from_slice(&eff.writes);
                    core.sync_resume = sync_resume;
                    cost = self.cfg.persist_path_cycles.max(20);
                } else if matches!(self.scheme, Scheme::AutoFence) {
                    // A full sync is at least a pfence: drain every prior
                    // flush, then persist the atomic's own store
                    // synchronously (no recovery-slice machinery to advance).
                    let core = &mut self.cores[i];
                    core.sync_drain = true;
                    core.sync_writes.clear();
                    core.sync_writes.extend_from_slice(&eff.writes);
                    cost = self.cfg.persist_path_cycles.max(20);
                } else if matches!(self.scheme, Scheme::ReplayCache | Scheme::Capri) {
                    cost = self.cfg.persist_path_cycles.max(20);
                }
            }
            EffectKind::Flush => {
                if matches!(self.scheme, Scheme::AutoFence) {
                    // clwb: snapshot the flushed line at execution time and
                    // enqueue its eight words toward the persist path (64
                    // bytes — exactly one line writeback of bandwidth).
                    let line = line_of(eff.reads[0]);
                    for k in 0..8u64 {
                        let a = line + k * 8;
                        let v = self.arch_mem.load(a);
                        self.cores[i].pending_pb.push_back((a, v));
                        if let Some(o) = &mut self.oracle {
                            o.pending[i].push((a, v));
                            o.refreshed.insert(a);
                        }
                    }
                }
                // Architecturally a no-op everywhere else: cost 1, no cache
                // or persist traffic, so non-AutoFence figures are unchanged.
            }
            EffectKind::PFence => {
                if matches!(self.scheme, Scheme::AutoFence) {
                    let drained =
                        self.cores[i].pb.is_empty() && self.cores[i].pending_pb.is_empty();
                    if drained {
                        // Everything flushed before already reached the ADR
                        // domain: the fence completes immediately.
                        if let Some(o) = &mut self.oracle {
                            for (w, v) in o.pending[i].drain(..) {
                                o.durable.insert(w, v);
                                o.refreshed.remove(&w);
                            }
                        }
                    } else {
                        // Stall the core until the PB and its feed queue
                        // drain (the sync-drain poll, minus RBT conditions).
                        self.cores[i].sync_drain = true;
                    }
                }
            }
            EffectKind::Halt => {
                self.cores[i].halted = true;
                self.cores[i].rbt.close_tail();
                // Count the final region.
                self.stats.regions += 1;
                self.stats.region_insts += self.cores[i].region_insts;
                let n = self.cores[i].region_insts;
                self.stats.record_region_size(n);
                self.cores[i].region_insts = 0;
            }
        }
        if let Some(v) = eff.out {
            if self.uses_rbt() {
                let Some(tail) = self.cores[i].rbt.tail() else {
                    return Err(InterpError::Trap(
                        "out issued with no open region (malformed module: missing region boundary)"
                            .into(),
                    ));
                };
                let region = tail.dyn_id;
                self.device.emit(region, v);
            } else {
                self.device.emit_direct(v);
            }
        }
        if let Some(b) = eff.boundary {
            if eff.kind != EffectKind::Halt {
                self.cores[i].pending_boundary = Some(b);
            }
        }
        // Route writes into the persist machinery.
        if is_cwsp_path
            && matches!(
                eff.kind,
                EffectKind::Store | EffectKind::Ckpt | EffectKind::Call | EffectKind::Ret
            )
        {
            for &(a, v) in &eff.writes {
                self.cores[i].pending_pb.push_back((a, v));
            }
        }
        if matches!(self.scheme, Scheme::Capri) {
            // Redo buffer at cacheline granularity. Dirty-line copies
            // coalesce only within the current region (the redo buffer is
            // logged per region for its 2-phase persistence), so repeated
            // stores to a line in *different* regions each enqueue a 64-byte
            // copy — the 8× write amplification of §II-D.
            for &(a, _) in &eff.writes {
                let line = line_of(a);
                if !self.cores[i].capri_region_lines.contains(&line) {
                    self.cores[i].capri_region_lines.push(line);
                    if !self.cores[i].pb.has_space() {
                        // Stall until the redo buffer drains one line.
                        cost += self.cfg.persist_path_cycles;
                        self.stats.stall_scheme += self.cfg.persist_path_cycles;
                        self.cores[i].prof_busy_scheme += self.cfg.persist_path_cycles;
                    } else {
                        self.cores[i].pb.push(DynRegionId(0), line, 0, false);
                    }
                }
            }
            if eff.boundary.is_some() {
                self.cores[i].capri_region_lines.clear();
                // Region end: the 2-phase persistence requires this region's
                // redo entries to reach the battery-backed proxy before too
                // many pile up; the core stalls while the buffer is saturated.
                let occ = self.cores[i].pb.occupancy();
                if occ > 128 {
                    let wait = (occ as u64 - 128) / 2;
                    cost += wait;
                    self.stats.stall_scheme += wait;
                    self.cores[i].prof_busy_scheme += wait;
                }
            }
        }
        if matches!(self.scheme, Scheme::ReplayCache) && !eff.writes.is_empty() {
            // Synchronous cacheline persistence per store.
            let per_line = (64.0 / self.cfg.path_bytes_per_cycle()).ceil() as u64;
            let sync_cost = (self.cfg.persist_path_cycles + per_line) * eff.writes.len() as u64;
            self.stats.stall_scheme += sync_cost;
            self.cores[i].prof_busy_scheme += sync_cost;
            cost += sync_cost;
            for &(a, v) in &eff.writes {
                self.nvm.store(a, v);
            }
        }
        Ok(cost)
    }

    /// The recovery point immediately after a committed sync instruction.
    fn after_sync_resume(&self, i: usize) -> Option<(ResumePoint, Option<RegionId>)> {
        // The interpreter has already stepped past the sync; its current
        // position is exactly the after-sync point.
        let rp = self.cores[i].interp.position()?;
        // The next explicit boundary in this block supplies the recovery
        // slice for the live-ins at that point (the compiler placed one right
        // after every sync, with only checkpoint stores in between).
        let f = self.module.function(rp.func);
        let sr = f.block(rp.block).insts[rp.idx..]
            .iter()
            .find_map(|inst| match inst {
                Inst::Boundary { id } => Some(*id),
                _ => None,
            });
        Some((rp, sr))
    }

    /// Timing for a load at `addr` (full hierarchy walk).
    fn load_cost(&mut self, i: usize, addr: Word) -> u64 {
        self.stats.loads += 1;
        let core = &mut self.cores[i];
        let r = core.l1.access(addr, false);
        if r.hit {
            // Pipelined L1 hits are hidden by the OOO window: slot cost only.
            return 1;
        }
        if let Some(line) = r.writeback {
            core.pending_evictions.push_back(line);
        }
        for (li, c) in self.shared.iter_mut().enumerate() {
            let rr = c.access(addr, false);
            if rr.hit {
                return self.cfg.sram_levels[li + 1].hit_cycles;
            }
        }
        if let Some(d) = &mut self.dram_cache {
            let rr = d.access(addr, false);
            if rr.hit {
                return self.cfg.dram_cache.as_ref().unwrap().hit_cycles;
            }
        }
        // Main memory (NVM): possible WPQ hit delay (§V-A2).
        self.stats.nvm_reads += 1;
        let mut lat = self.cfg.main_memory.read_cycles();
        let wpq_delay_on = matches!(self.scheme, Scheme::Cwsp(f) if f.wpq_delay && f.persist_path);
        if wpq_delay_on {
            let mc = self.cfg.mc_of(addr);
            if let Some(free_at) = self.mcs[mc].wpq_hit(addr) {
                self.stats.wpq_hits += 1;
                let extra = free_at.saturating_sub(self.cycle);
                self.stats.stall_wpq += extra;
                self.cores[i].prof_busy_wpq += extra;
                lat += extra;
            }
        }
        lat
    }

    /// Timing for a store at `addr` (write-allocate; latency mostly hidden by
    /// the store buffer — the visible cost is L1 occupancy + evictions).
    fn store_cost(&mut self, i: usize, addr: Word, _value: Word) -> u64 {
        let core = &mut self.cores[i];
        let r = core.l1.access(addr, true);
        if let Some(line) = r.writeback {
            core.pending_evictions.push_back(line);
        }
        if !r.hit {
            // Allocate through the shared levels (tag state only).
            for c in self.shared.iter_mut() {
                if c.access(addr, false).hit {
                    break;
                }
            }
            if let Some(d) = &mut self.dram_cache {
                let _ = d.access(addr, false);
            }
        }
        1
    }

    /// Cut power: consume the machine and return the crash-surviving state,
    /// performing the §VII step-1 undo-log reversal.
    pub fn into_crash_image(mut self) -> CrashImage {
        let mut reverted = 0;
        for mc in &mut self.mcs {
            reverted += mc.crash_revert(&mut self.nvm);
        }
        CrashImage {
            nvm: self.nvm,
            output: self.device.crash(),
            resume: self.resume_meta,
            reverted_records: reverted,
        }
    }

    /// Entry-function return value of core `i`, if halted via `Ret`.
    pub fn return_value(&self, i: usize) -> Option<Word> {
        self.cores[i].interp.return_value()
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.halted)
    }
}

fn pb_capacity(scheme: Scheme, cfg: &SimConfig) -> usize {
    match scheme {
        // Capri's redo buffer: 18 KB of 64-byte lines = 288 entries.
        Scheme::Capri => 288,
        _ => cfg.pb_entries,
    }
}

/// Pack a resume point + slice id into NVM metadata words.
pub fn pack_meta(rp: ResumePoint, sr: Option<RegionId>) -> [Word; 7] {
    let kind = match rp.kind {
        ResumeKind::Normal => 0,
        ResumeKind::FuncEntry => 1,
        ResumeKind::PostCall => 2,
    };
    [
        kind,
        rp.func.0 as Word,
        rp.block.0 as Word,
        rp.idx as Word,
        rp.frame_base,
        rp.sp,
        sr.map(|r| r.0 as Word + 1).unwrap_or(0),
    ]
}

/// Unpack recovery metadata written by [`pack_meta`] from the NVM image.
pub fn unpack_meta(nvm: &Memory, core: usize) -> (ResumePoint, Option<RegionId>) {
    let base = layout::RECOVERY_META_BASE + core as Word * layout::RECOVERY_META_STRIDE;
    let mut w = [0 as Word; 7];
    for (i, slot) in w.iter_mut().enumerate() {
        *slot = nvm.load(base + i as Word * 8);
    }
    let kind = match w[0] {
        0 => ResumeKind::Normal,
        1 => ResumeKind::FuncEntry,
        _ => ResumeKind::PostCall,
    };
    (
        ResumePoint {
            func: FuncId(w[1] as u32),
            block: BlockId(w[2] as u32),
            idx: w[3] as usize,
            frame_base: w[4],
            sp: w[5],
            kind,
        },
        (w[6] > 0).then(|| RegionId(w[6] as u32 - 1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    use cwsp_compiler_testutil::*;

    /// Minimal local test-module builders (no dependency on cwsp-compiler:
    /// boundaries and checkpoints are hand-placed where needed).
    mod cwsp_compiler_testutil {
        use cwsp_ir::builder::{build_counted_loop, FunctionBuilder};
        use cwsp_ir::inst::{BinOp, Inst, MemRef, Operand};
        use cwsp_ir::module::Module;

        /// A loop summing into a global, with hand-placed boundaries/ckpts in
        /// the shape the compiler would produce.
        pub fn looping_module(n: u64) -> Module {
            let mut m = Module::new("t");
            let g = m.add_global("acc", 1);
            let mut b = FunctionBuilder::new("main", 0);
            let e = b.entry();
            let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(n), |b, bb, i| {
                let v = b.load(bb, MemRef::global(g, 0));
                let s = b.bin(bb, BinOp::Add, v.into(), i.into());
                b.store(bb, s.into(), MemRef::global(g, 0));
            });
            let v = b.load(exit, MemRef::global(g, 0));
            b.push(
                exit,
                Inst::Ret {
                    val: Some(v.into()),
                },
            );
            let f = m.add_function(b.build());
            m.set_entry(f);
            m
        }

        /// The same module put through the real compiler pipeline.
        pub fn compiled_looping_module(n: u64) -> Module {
            // cwsp-compiler is a dependent crate; replicate the two passes we
            // need inline is overkill — the sim crate tests only need region
            // boundaries, which we insert by hand here.
            let mut m = looping_module(n);
            // Insert a boundary at each loop-header block start by scanning
            // for blocks targeted by back edges: cheap approximation — put a
            // boundary before every store (cuts the WAR) and at block 1.
            let fid = m.entry().unwrap();
            let f = m.function_mut(fid);
            for block in &mut f.blocks {
                let mut i = 0;
                while i < block.insts.len() {
                    if matches!(block.insts[i], Inst::Store { .. }) {
                        block.insts.insert(
                            i,
                            Inst::Boundary {
                                id: cwsp_ir::types::RegionId(u32::MAX),
                            },
                        );
                        i += 1;
                    }
                    i += 1;
                }
            }
            // Renumber.
            let mut next = 0;
            for block in &mut m.function_mut(fid).blocks {
                for inst in &mut block.insts {
                    if let Inst::Boundary { id } = inst {
                        *id = cwsp_ir::types::RegionId(next);
                        next += 1;
                    }
                }
            }
            m
        }
    }

    fn small_cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn baseline_completes_and_matches_oracle() {
        let m = looping_module(50);
        let oracle = cwsp_ir::interp::run(&m, 100_000).unwrap();
        let cfg_ = small_cfg();
        let mut machine = Machine::new(&m, &cfg_, Scheme::Baseline);
        let r = machine.run(1_000_000, None).unwrap();
        assert_eq!(r.end, RunEnd::Completed);
        assert_eq!(machine.return_value(0), oracle.return_value);
        assert!(r.stats.cycles > 0 && r.stats.insts == oracle.steps);
    }

    #[test]
    fn cwsp_completes_with_converged_nvm() {
        let m = compiled_looping_module(40);
        let oracle = cwsp_ir::interp::run(&m, 100_000).unwrap();
        let cfg_ = small_cfg();
        let mut machine = Machine::new(&m, &cfg_, Scheme::cwsp());
        let r = machine.run(1_000_000, None).unwrap();
        assert_eq!(r.end, RunEnd::Completed);
        assert_eq!(machine.return_value(0), oracle.return_value);
        // At completion every store persisted: the NVM image equals the
        // architectural memory on all software-visible words.
        let diffs = machine.nvm().diff_where(
            machine.arch_mem(),
            |a| !cwsp_ir::layout::is_hw_meta_addr(a),
            8,
        );
        assert!(diffs.is_empty(), "NVM lag at completion: {diffs:x?}");
        assert!(r.stats.regions > 0);
    }

    #[test]
    fn cwsp_is_slower_than_baseline_but_modest() {
        let m = looping_module(200);
        let mc = compiled_looping_module(200);
        let base = {
            let cfg_ = small_cfg();
            let mut machine = Machine::new(&m, &cfg_, Scheme::Baseline);
            machine.run(10_000_000, None).unwrap().stats.cycles
        };
        let cwsp = {
            let cfg_ = small_cfg();
            let mut machine = Machine::new(&mc, &cfg_, Scheme::cwsp());
            machine.run(10_000_000, None).unwrap().stats.cycles
        };
        assert!(cwsp >= base, "cwsp {cwsp} < baseline {base}");
        assert!(
            cwsp < base * 3,
            "cwsp overhead unreasonable: {cwsp} vs {base}"
        );
    }

    #[test]
    fn replaycache_is_much_slower_than_cwsp() {
        let mc = compiled_looping_module(200);
        let cwsp = {
            let cfg_ = small_cfg();
            let mut machine = Machine::new(&mc, &cfg_, Scheme::cwsp());
            machine.run(10_000_000, None).unwrap().stats.cycles
        };
        let rc = {
            let cfg_ = small_cfg();
            let mut machine = Machine::new(&mc, &cfg_, Scheme::ReplayCache);
            machine.run(10_000_000, None).unwrap().stats.cycles
        };
        assert!(rc > cwsp, "replaycache {rc} <= cwsp {cwsp}");
    }

    #[test]
    fn ideal_psp_pays_nvm_latency_without_dram_cache() {
        // A workload whose footprint misses the small L2 we give it.
        let m = looping_module(400);
        let mut cfg_with = small_cfg();
        cfg_with.sram_levels[1].size_bytes = 4 << 10; // shrink L2 to force misses
        let mut cfg_without = cfg_with.clone();
        cfg_without.dram_cache = None;
        let with = {
            let mut machine = Machine::new(&m, &cfg_with, Scheme::Baseline);
            machine.run(10_000_000, None).unwrap().stats.cycles
        };
        let without = {
            let mut machine = Machine::new(&m, &cfg_without, Scheme::IdealPsp);
            machine.run(10_000_000, None).unwrap().stats.cycles
        };
        // Equal-ish here because this footprint fits L1; the figure-level
        // contrast comes from DRAM-cache-resident workloads. Sanity only:
        assert!(without >= with);
    }

    #[test]
    fn crash_yields_image_with_meta() {
        let m = compiled_looping_module(100);
        let cfg_ = small_cfg();
        let mut machine = Machine::new(&m, &cfg_, Scheme::cwsp());
        let r = machine.run(1_000_000, Some(500)).unwrap();
        assert_eq!(r.end, RunEnd::PowerFailure);
        let img = machine.into_crash_image();
        // Recovery metadata is readable from the NVM image.
        let (rp, _sr) = unpack_meta(&img.nvm, 0);
        assert!(rp.frame_base > 0);
        assert_eq!(img.resume.len(), 1);
    }

    #[test]
    fn meta_pack_roundtrip() {
        let rp = ResumePoint {
            func: FuncId(3),
            block: BlockId(7),
            idx: 11,
            frame_base: 0xff00,
            sp: 0xff00,
            kind: ResumeKind::PostCall,
        };
        let mut nvm = Memory::new();
        let base = layout::RECOVERY_META_BASE + 2 * layout::RECOVERY_META_STRIDE;
        for (i, w) in pack_meta(rp, Some(RegionId(5))).into_iter().enumerate() {
            nvm.store(base + i as Word * 8, w);
        }
        let (got, sr) = unpack_meta(&nvm, 2);
        assert_eq!(got, rp);
        assert_eq!(sr, Some(RegionId(5)));
    }

    #[test]
    fn instruction_budget_truncates() {
        let m = looping_module(10_000);
        let cfg_ = small_cfg();
        let mut machine = Machine::new(&m, &cfg_, Scheme::Baseline);
        let r = machine.run(1_000, None).unwrap();
        assert_eq!(r.end, RunEnd::InstLimit);
        assert!(r.stats.insts >= 1_000);
    }

    #[test]
    fn multicore_steps_all_cores() {
        let m = looping_module(50);
        let mut cfg = small_cfg();
        cfg.cores = 4;
        let mut machine = Machine::new(&m, &cfg, Scheme::Baseline);
        let r = machine.run(10_000_000, None).unwrap();
        assert_eq!(r.end, RunEnd::Completed);
        assert!(machine.all_halted());
        // Wait — all cores run the same `main` summing into ONE global with
        // unsynchronized RMW; architectural interleaving is fine for the
        // machine test (cores share memory), we only check completion.
        assert!(r.stats.insts > 4 * 50);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::scheme::Scheme;
    use cwsp_ir::builder::{build_counted_loop, FunctionBuilder};
    use cwsp_ir::inst::{BinOp, Inst, MemRef, Operand};

    #[test]
    fn trace_records_region_lifecycle_and_crash() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 1);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(30), |b, bb, i| {
            let v = b.load(bb, MemRef::global(g, 0));
            let s = b.bin(bb, BinOp::Add, v.into(), i.into());
            b.store(bb, s.into(), MemRef::global(g, 0));
        });
        b.push(exit, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        // Hand-place a boundary per iteration like the compiler would.
        let fm = m.function_mut(m.entry().unwrap());
        for block in &mut fm.blocks {
            let mut i = 0;
            while i < block.insts.len() {
                if matches!(block.insts[i], Inst::Store { .. }) {
                    block.insts.insert(
                        i,
                        Inst::Boundary {
                            id: cwsp_ir::types::RegionId(0),
                        },
                    );
                    i += 1;
                }
                i += 1;
            }
        }
        let cfg_ = SimConfig::default();
        let mut machine = Machine::new(&m, &cfg_, Scheme::cwsp());
        machine.enable_trace(256);
        let r = machine.run(u64::MAX, Some(400)).unwrap();
        assert_eq!(r.end, RunEnd::PowerFailure);
        let t = machine.trace().expect("tracing enabled");
        assert!(!t.is_empty());
        let mut opened = 0;
        let mut retired = 0;
        let mut arrived = 0;
        let mut failed = 0;
        for e in t.events() {
            match e {
                Event::RegionOpen { .. } => opened += 1,
                Event::RegionRetire { .. } => retired += 1,
                Event::WpqAccept { .. } => arrived += 1,
                Event::RunEnd {
                    end: RunEnd::PowerFailure,
                    ..
                } => failed += 1,
                _ => {}
            }
        }
        assert!(
            opened > 0 && arrived > 0,
            "opened={opened} arrived={arrived}"
        );
        assert!(retired <= opened);
        assert_eq!(failed, 1);
        // The tail renders human-readable lines for post-mortems.
        assert!(t.tail(5).contains("POWER FAILURE"));
        // Cycles are monotone in the ring for point events (stall spans are
        // recorded when they *end* but stamped with their start cycle, so
        // they may appear after later point events).
        let cycles: Vec<u64> = t
            .events()
            .filter(|e| !matches!(e, Event::Stall { .. }))
            .map(|e| e.cycle())
            .collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        // PB issues are traced now that stores route through the machinery.
        assert!(
            t.events().any(|e| matches!(e, Event::StoreIssue { .. })),
            "no StoreIssue events traced"
        );
    }
}

#[cfg(test)]
mod iodevice_tests {
    use super::*;
    use crate::scheme::Scheme;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{Inst, MemRef, Operand};
    use cwsp_ir::types::RegionId;

    #[test]
    fn output_is_held_until_its_region_persists() {
        // region A: out 1; store; boundary; region B: out 2; halt.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(1),
            },
        );
        b.store(e, Operand::imm(9), MemRef::abs(4096));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        b.push(
            e,
            Inst::Out {
                val: Operand::imm(2),
            },
        );
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);

        let cfg_ = SimConfig::default();
        let mut machine = Machine::new(&m, &cfg_, Scheme::cwsp());
        // Run a handful of cycles: the instructions execute, but region A's
        // store has not persisted yet (path latency 20 cycles one-way), so no
        // output may have reached the device.
        let _ = machine.run(10_000_000, Some(6)).unwrap();
        assert!(
            machine.output().is_empty(),
            "output leaked before persistence: {:?}",
            machine.output()
        );
        assert!(machine.device().pending() >= 1, "held in the redo buffer");
        // Crash now: the unpersisted regions' output is discarded; recovery
        // re-execution would re-emit it (verified end-to-end in cwsp-core).
        let img = machine.into_crash_image();
        assert!(img.output.is_empty());
    }

    #[test]
    fn completed_run_releases_all_output_in_order() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        for k in 0..5u64 {
            b.push(
                e,
                Inst::Out {
                    val: Operand::imm(k),
                },
            );
            b.store(e, Operand::imm(k), MemRef::abs(4096 + k * 64));
            b.push(e, Inst::Boundary { id: RegionId(0) });
        }
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let cfg_ = SimConfig::default();
        let mut machine = Machine::new(&m, &cfg_, Scheme::cwsp());
        let r = machine.run(u64::MAX, None).unwrap();
        assert_eq!(r.end, RunEnd::Completed);
        assert_eq!(machine.output(), &[0, 1, 2, 3, 4]);
        assert_eq!(machine.device().pending(), 0);
    }
}

#[cfg(test)]
mod stale_read_tests {
    use super::*;
    use crate::config::CacheParams;
    use crate::scheme::Scheme;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{Inst, MemRef, Operand};
    use cwsp_ir::types::RegionId;

    /// Construct the §II-A race: a store's dirty line is evicted from a tiny
    /// L1 while its persist is still crawling down a slow path. The WB-delay
    /// check must hold the writeback (wb_delays > 0) — the cheap fix of
    /// Fig 5 — and with the feature off, no delays are recorded.
    fn race_module() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        // Store to line A, then immediately thrash the (1-set) L1 with
        // conflicting lines so A's dirty line is evicted into the WB while
        // the persist path (starved of bandwidth) still holds the store.
        b.store(e, Operand::imm(1), MemRef::abs(0x10000));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        for k in 1..24u64 {
            let _ = b.load(e, MemRef::abs(0x10000 + k * 4096));
        }
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        m
    }

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::default();
        // 1-set, 2-way L1: conflicting lines evict immediately.
        cfg.sram_levels[0] = CacheParams {
            size_bytes: 128,
            assoc: 2,
            hit_cycles: 4,
        };
        cfg.persist_path_gbps = 0.005; // ~1 entry per 3200 cycles: persist crawls
        cfg.wb_drain_cycles = 1;
        cfg
    }

    #[test]
    fn wb_delay_holds_racing_writebacks() {
        let m = race_module();
        let cfg_ = tiny_cfg();
        let mut machine = Machine::new(&m, &cfg_, Scheme::cwsp());
        let r = machine.run(u64::MAX, None).unwrap();
        assert!(
            r.stats.wb_delays > 0,
            "the dirty line must be held while its persist is pending: {:?}",
            r.stats.wb_delays
        );
    }

    #[test]
    fn disabling_the_feature_records_no_delays() {
        let m = race_module();
        let f = crate::scheme::CwspFeatures {
            wb_delay: false,
            ..Default::default()
        };
        let cfg_ = tiny_cfg();
        let mut machine = Machine::new(&m, &cfg_, Scheme::Cwsp(f));
        let r = machine.run(u64::MAX, None).unwrap();
        assert_eq!(r.stats.wb_delays, 0);
    }
}

#[cfg(test)]
mod wpq_delay_tests {
    use super::*;
    use crate::config::{CacheParams, CxlDevice, MainMemory};
    use crate::scheme::Scheme;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{Inst, MemRef, Operand};
    use cwsp_ir::types::RegionId;

    /// §V-A2: a load that misses the whole hierarchy while its word still
    /// sits in a WPQ must wait for the entry to drain (counted as a WPQ hit,
    /// Fig 8). Exercised with a glacial NVM write latency so the entry is
    /// still pending when the load arrives.
    #[test]
    fn load_hitting_pending_wpq_entry_is_delayed_and_counted() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        b.store(e, Operand::imm(7), MemRef::abs(0x10000));
        b.push(e, Inst::Boundary { id: RegionId(0) });
        // Thrash the 1-set L1 so 0x10000's line is evicted...
        let _ = b.load(e, MemRef::abs(0x10000 + 4096));
        let _ = b.load(e, MemRef::abs(0x10000 + 2 * 4096));
        // ...then reload it: misses to NVM while the WPQ entry drains.
        let v = b.load(e, MemRef::abs(0x10000));
        b.push(
            e,
            Inst::Ret {
                val: Some(v.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);

        let mut cfg = SimConfig::default();
        cfg.sram_levels[0] = CacheParams {
            size_bytes: 128,
            assoc: 2,
            hit_cycles: 4,
        };
        cfg.sram_levels[1] = CacheParams {
            size_bytes: 256,
            assoc: 2,
            hit_cycles: 14,
        };
        cfg.dram_cache = None; // misses go straight to NVM
        cfg.main_memory = MainMemory::Cxl(CxlDevice {
            name: "glacial",
            ip: "test",
            technology: "molasses",
            max_bandwidth_gbps: 1.0,
            read_ns: 100.0,
            write_ns: 50_000.0, // WPQ entries drain for thousands of cycles
        });
        let mut machine = Machine::new(&m, &cfg, Scheme::cwsp());
        let r = machine.run(u64::MAX, None).unwrap();
        assert_eq!(
            machine.return_value(0),
            Some(7),
            "architectural value correct"
        );
        assert!(
            r.stats.wpq_hits >= 1,
            "the reload must hit the pending WPQ entry"
        );
        assert!(r.stats.stall_wpq > 0, "and be delayed until it drains");
    }
}
