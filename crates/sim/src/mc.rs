//! Memory controllers: battery-backed write-pending queues (WPQ), NVM drain
//! timing, and per-region append-only hardware undo logs (§V-B2).
//!
//! A store arriving from the persist path is *persistent* the moment it
//! enters the WPQ — the WPQ sits inside the ADR persistence domain, and ADR
//! guarantees enough residual energy to finish each entry's failure-atomic
//! `⟨undo-log append, in-place data write⟩` pair. The simulator therefore
//! applies both to the NVM image at acceptance time; the WPQ entry then
//! occupies a slot until its drain latency elapses, which is what creates
//! back-pressure (Fig 26's WPQ-size sensitivity).

use cwsp_ir::memory::Memory;
use cwsp_ir::types::{DynRegionId, Word};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One WPQ slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WpqSlot {
    addr: Word,
    region: DynRegionId,
    /// Cycle at which the slot frees (drain to media complete).
    free_at: u64,
}

/// A single memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    id: usize,
    wpq_cap: usize,
    wpq: VecDeque<WpqSlot>,
    /// Per-region undo-log arrays in MC-local NVM, appended in arrival order.
    logs: BTreeMap<DynRegionId, Vec<(Word, Word)>>,
    /// Regions at or below this id are non-speculative: their arrivals are
    /// not logged and their arrays have been reclaimed.
    nonspec_horizon: Option<DynRegionId>,
    /// Media write pipeline: next cycle a new drain can start.
    media_free_at: u64,
    /// Drain cost per plain entry, in cycles.
    drain_cycles: u64,
    /// Extra drain cost when the entry also appends an undo log.
    log_extra_cycles: u64,
    /// Total log appends (statistics).
    pub log_appends: u64,
    /// Total NVM word writes performed (data + log words).
    pub nvm_writes: u64,
}

impl MemoryController {
    /// A controller with `wpq_cap` slots and the given drain costs.
    pub fn new(id: usize, wpq_cap: usize, drain_cycles: u64, log_extra_cycles: u64) -> Self {
        MemoryController {
            id,
            wpq_cap,
            wpq: VecDeque::new(),
            logs: BTreeMap::new(),
            nonspec_horizon: None,
            media_free_at: 0,
            drain_cycles,
            log_extra_cycles,
            log_appends: 0,
            nvm_writes: 0,
        }
    }

    /// This controller's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether a new arrival can be accepted.
    pub fn wpq_has_space(&self) -> bool {
        self.wpq.len() < self.wpq_cap
    }

    /// Current WPQ occupancy.
    pub fn wpq_occupancy(&self) -> usize {
        self.wpq.len()
    }

    /// Accept a store at `cycle`, applying the failure-atomic log+write to the
    /// NVM image. Returns `false` (and does nothing) when the WPQ is full.
    pub fn accept(
        &mut self,
        cycle: u64,
        region: DynRegionId,
        addr: Word,
        data: Word,
        log_bit: bool,
        nvm: &mut Memory,
    ) -> bool {
        self.accept_inner(cycle, region, addr, data, log_bit, Some(nvm))
    }

    /// Timing-only acceptance: occupies a WPQ slot and charges drain time but
    /// does not touch the NVM image (used for cacheline schemes whose line
    /// payloads the simulator does not materialize).
    pub fn accept_timing_only(&mut self, cycle: u64, region: DynRegionId, addr: Word) -> bool {
        let ok = self.accept_inner(cycle, region, addr, 0, false, None);
        if ok {
            // A cacheline entry writes 8 data words plus an 8-word redo/undo
            // log record (Capri's §II-D write amplification); accept_inner
            // counted one word already.
            self.nvm_writes += 15;
        }
        ok
    }

    /// Whether accepting an arrival appends an undo-log record: its log bit
    /// is set and its region is younger than the non-speculative horizon.
    pub fn logs(&self, region: DynRegionId, log_bit: bool) -> bool {
        log_bit && self.nonspec_horizon.is_none_or(|h| region > h)
    }

    /// Shared acceptance path. With `nvm == None` (timing only) the NVM
    /// image is neither logged nor written; only the WPQ slot and drain time
    /// are charged.
    fn accept_inner(
        &mut self,
        cycle: u64,
        region: DynRegionId,
        addr: Word,
        data: Word,
        log_bit: bool,
        nvm: Option<&mut Memory>,
    ) -> bool {
        if !self.wpq_has_space() {
            return false;
        }
        let mut cost = self.drain_cycles;
        if let Some(nvm) = nvm {
            if self.logs(region, log_bit) {
                let old = nvm.load(addr);
                self.logs.entry(region).or_default().push((addr, old));
                self.log_appends += 1;
                self.nvm_writes += 2; // log record: address + old value
                cost += self.log_extra_cycles;
            }
            nvm.store(addr, data);
        }
        self.nvm_writes += 1;
        let start = self.media_free_at.max(cycle);
        self.media_free_at = start + cost;
        self.wpq.push_back(WpqSlot {
            addr,
            region,
            free_at: start + cost,
        });
        true
    }

    /// Free drained slots at `cycle`.
    pub fn tick(&mut self, cycle: u64) {
        while self.wpq.front().is_some_and(|s| s.free_at <= cycle) {
            self.wpq.pop_front();
        }
    }

    /// Like [`MemoryController::tick`], but appends each drained slot's
    /// (free_at, controller id, addr, region) to `out` — the flight
    /// recorder's NVM-commit hook. `free_at` is the media-commit cycle,
    /// which precedes `cycle` when an idle skip deferred the pop. Only
    /// called when a recorder is attached; the plain `tick` stays on the
    /// recorder-off hot path.
    pub fn tick_drained(&mut self, cycle: u64, out: &mut Vec<(u64, u8, Word, DynRegionId)>) {
        while self.wpq.front().is_some_and(|s| s.free_at <= cycle) {
            let s = self.wpq.pop_front().unwrap();
            out.push((s.free_at, self.id as u8, s.addr, s.region));
        }
    }

    /// The (addr, region) of every slot still queued for media, in arrival
    /// order — the in-WPQ slice of the crash forensics frontier.
    pub fn wpq_entries(&self) -> impl Iterator<Item = (Word, DynRegionId)> + '_ {
        self.wpq.iter().map(|s| (s.addr, s.region))
    }

    /// If a load to `addr` would hit a pending 8-byte WPQ entry, the cycle at
    /// which that entry drains (§V-A2: such loads are delayed — Fig 8).
    pub fn wpq_hit(&self, addr: Word) -> Option<u64> {
        self.wpq.iter().find(|s| s.addr == addr).map(|s| s.free_at)
    }

    /// Reclaim the log arrays of every region at or below `dyn_id` — they
    /// became non-speculative (§V-B2).
    pub fn dealloc_logs_upto(&mut self, dyn_id: DynRegionId) {
        self.nonspec_horizon = Some(match self.nonspec_horizon {
            Some(h) => h.max(dyn_id),
            None => dyn_id,
        });
        self.logs.retain(|r, _| *r > dyn_id);
    }

    /// Total live log records (bounded by RBT size × stores/region — §V-B2
    /// argues this stays tiny).
    pub fn live_log_records(&self) -> usize {
        self.logs.values().map(Vec::len).sum()
    }

    /// Power-failure log reversal (§VII step 1): revert this MC's surviving
    /// logs in reverse region order (and reverse append order within each
    /// region), then discard them.
    pub fn crash_revert(&mut self, nvm: &mut Memory) -> usize {
        let mut reverted = 0;
        for (_, records) in self.logs.iter().rev() {
            for &(addr, old) in records.iter().rev() {
                nvm.store(addr, old);
                reverted += 1;
            }
        }
        self.logs.clear();
        reverted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(0, 2, 10, 10)
    }

    #[test]
    fn accept_writes_nvm_and_occupies_slot() {
        let mut m = mc();
        let mut nvm = Memory::new();
        assert!(m.accept(0, DynRegionId(1), 64, 7, false, &mut nvm));
        assert_eq!(nvm.load(64), 7);
        assert_eq!(m.wpq_occupancy(), 1);
        assert_eq!(m.nvm_writes, 1);
        m.tick(9);
        assert_eq!(m.wpq_occupancy(), 1, "drain takes 10 cycles");
        m.tick(10);
        assert_eq!(m.wpq_occupancy(), 0);
    }

    #[test]
    fn wpq_full_rejects() {
        let mut m = mc();
        let mut nvm = Memory::new();
        assert!(m.accept(0, DynRegionId(1), 0, 1, false, &mut nvm));
        assert!(m.accept(0, DynRegionId(1), 8, 2, false, &mut nvm));
        assert!(!m.accept(0, DynRegionId(1), 16, 3, false, &mut nvm));
        assert_eq!(nvm.load(16), 0, "rejected store does not reach NVM");
    }

    #[test]
    fn speculative_store_logs_old_value() {
        let mut m = mc();
        let mut nvm = Memory::new();
        nvm.store(64, 100);
        assert!(m.accept(0, DynRegionId(2), 64, 200, true, &mut nvm));
        assert_eq!(nvm.load(64), 200, "in-place update");
        assert_eq!(m.log_appends, 1);
        assert_eq!(m.live_log_records(), 1);
        assert_eq!(m.nvm_writes, 3, "log addr + old value + data");
    }

    #[test]
    fn crash_revert_restores_in_reverse_order() {
        let mut m = MemoryController::new(0, 8, 1, 1);
        let mut nvm = Memory::new();
        nvm.store(64, 1);
        // Region 2 then region 3 overwrite the same word speculatively.
        m.accept(0, DynRegionId(2), 64, 2, true, &mut nvm);
        m.accept(0, DynRegionId(3), 64, 3, true, &mut nvm);
        assert_eq!(nvm.load(64), 3);
        let n = m.crash_revert(&mut nvm);
        assert_eq!(n, 2);
        assert_eq!(nvm.load(64), 1, "original value restored");
        assert_eq!(m.live_log_records(), 0);
    }

    #[test]
    fn log_overwrite_hazard_is_prevented_by_append_only_logs() {
        // Figure 10(c): str1 (region 1) and str2 (region 2) hit the same
        // address; append-only per-region logs must restore the ORIGINAL
        // value, not region 1's value.
        let mut m = MemoryController::new(0, 8, 1, 1);
        let mut nvm = Memory::new();
        nvm.store(64, 100);
        m.accept(0, DynRegionId(1), 64, 150, true, &mut nvm); // logs old=100
        m.accept(0, DynRegionId(2), 64, 200, true, &mut nvm); // logs old=150
        m.crash_revert(&mut nvm);
        assert_eq!(nvm.load(64), 100);
    }

    #[test]
    fn dealloc_makes_region_nonspeculative() {
        let mut m = MemoryController::new(0, 8, 1, 1);
        let mut nvm = Memory::new();
        nvm.store(64, 1);
        m.accept(0, DynRegionId(2), 64, 2, true, &mut nvm);
        m.dealloc_logs_upto(DynRegionId(2));
        assert_eq!(m.live_log_records(), 0);
        // Late-arriving store of the promoted region is no longer logged.
        m.accept(1, DynRegionId(2), 72, 9, true, &mut nvm);
        assert_eq!(m.log_appends, 1, "no new log");
        // Crash now reverts nothing: region 2's effects are in place and will
        // be re-executed from its entry.
        m.crash_revert(&mut nvm);
        assert_eq!(nvm.load(64), 2);
    }

    #[test]
    fn wpq_hit_reports_drain_time() {
        let mut m = mc();
        let mut nvm = Memory::new();
        m.accept(5, DynRegionId(1), 64, 7, false, &mut nvm);
        assert_eq!(m.wpq_hit(64), Some(15));
        assert_eq!(m.wpq_hit(72), None);
        m.tick(15);
        assert_eq!(m.wpq_hit(64), None);
    }

    #[test]
    fn logged_drain_is_slower() {
        let mut m = MemoryController::new(0, 4, 10, 10);
        let mut nvm = Memory::new();
        m.accept(0, DynRegionId(5), 0, 1, true, &mut nvm); // 20 cycles
        m.accept(0, DynRegionId(5), 8, 1, false, &mut nvm); // +10 (pipelined)
        m.tick(19);
        assert_eq!(m.wpq_occupancy(), 2);
        m.tick(20);
        assert_eq!(m.wpq_occupancy(), 1);
        m.tick(30);
        assert_eq!(m.wpq_occupancy(), 0);
    }
}
