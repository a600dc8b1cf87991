//! The cWSP persist hardware on the core side: the persist buffer (PB), the
//! region boundary table (RBT), and the FIFO persist path (§III-B, §V).
//!
//! * **PB** — Intel's write-combining buffer repurposed as a volatile persist
//!   buffer: one entry per committed store `(region, addr, data, log-bit)`,
//!   drained in FIFO order onto the persist path. The WB-delay mechanism CAM
//!   searches it by cacheline.
//! * **RBT** — one entry per in-flight dynamic region: `Region ID`,
//!   `PendingWrs`, `MCBitVec`, and the recovery metadata ("RS Pointer"). The
//!   head is the oldest unpersisted — non-speculative — region; everything
//!   younger is speculative and undo-logged at the MCs (§V-B).
//! * **Persist path** — a latency/bandwidth-modelled FIFO from cores to
//!   memory controllers. cWSP sends 8-byte entries; cacheline schemes
//!   (Capri, ReplayCache) send 64 bytes per entry, an 8× bandwidth demand.

use crate::cache::line_of;
use cwsp_ir::interp::ResumePoint;
use cwsp_ir::types::{DynRegionId, RegionId, Word};
use std::collections::VecDeque;

/// One persist-buffer entry (Figure 9's PB fields plus a host-side sequence
/// number used for in-order deallocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbEntry {
    /// Host-side sequence number (monotonic per core).
    pub seq: u64,
    /// Dynamic region that issued the store.
    pub region: DynRegionId,
    /// 8-byte-aligned store address.
    pub addr: Word,
    /// Store data.
    pub data: Word,
    /// Whether the store is speculative and must be undo-logged at the MC.
    pub log_bit: bool,
}

/// The per-core persist buffer.
///
/// Sends are FIFO and acks pop from the head, so the entries already sent
/// down the persist path always form a prefix of the buffer; `sent` is that
/// prefix's length and the single source of truth for every entry's
/// sent/unsent state.
#[derive(Debug, Clone, Default)]
pub struct PersistBuffer {
    cap: usize,
    entries: VecDeque<PbEntry>,
    sent: usize,
    next_seq: u64,
}

impl PersistBuffer {
    /// An empty PB with `cap` entries.
    pub fn new(cap: usize) -> Self {
        PersistBuffer {
            cap,
            entries: VecDeque::new(),
            sent: 0,
            next_seq: 0,
        }
    }

    /// Whether a new entry can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.cap
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty (everything persisted).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocate an entry for a committed store; returns its sequence number.
    ///
    /// # Panics
    /// Panics when full — callers must check [`PersistBuffer::has_space`]
    /// (the core stalls instead).
    pub fn push(&mut self, region: DynRegionId, addr: Word, data: Word, log_bit: bool) -> u64 {
        assert!(self.has_space(), "PB overflow — core must stall");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(PbEntry {
            seq,
            region,
            addr,
            data,
            log_bit,
        });
        seq
    }

    /// The oldest unsent entry, if any (the persist path sends in order).
    pub fn next_unsent(&self) -> Option<&PbEntry> {
        self.entries.get(self.sent)
    }

    /// Record that [`PersistBuffer::next_unsent`] went down the persist path.
    pub fn mark_sent(&mut self) {
        debug_assert!(self.sent < self.entries.len(), "no unsent entry");
        self.sent += 1;
    }

    /// Deallocate `seq` (its data reached the WPQ). Acks arrive in FIFO order
    /// (the path is a FIFO), so every entry up to and including `seq` is done
    /// and popped from the head.
    pub fn complete(&mut self, seq: u64) {
        while self.entries.front().is_some_and(|head| head.seq <= seq) {
            self.entries.pop_front();
            self.sent = self.sent.saturating_sub(1);
        }
    }

    /// CAM search: does any entry touch `line` (64-byte granularity)? Used by
    /// the WB-delay mechanism (§V-A1).
    pub fn matches_line(&self, line: Word) -> bool {
        self.entries.iter().any(|e| line_of(e.addr) == line)
    }

    /// Whether any entry still awaits its persist-path send.
    pub fn has_unsent(&self) -> bool {
        self.sent < self.entries.len()
    }

    /// Every live entry in issue order, each with whether it was sent — the
    /// persist-buffer slice of the crash forensics frontier (sent entries
    /// are on the wire; unsent ones never left the core).
    pub fn entries(&self) -> impl Iterator<Item = (&PbEntry, bool)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e, i < self.sent))
    }
}

/// One RBT entry (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbtEntry {
    /// Globally unique dynamic region id.
    pub dyn_id: DynRegionId,
    /// Static region id (None for implicit call/return regions).
    pub static_region: Option<RegionId>,
    /// Recovery entry point of this region ("RS Pointer" + context).
    pub resume: ResumePoint,
    /// Number of stores issued by this region that have not reached a WPQ.
    pub pending: u32,
    /// Bit per memory controller this region has stored to (`MCBitVec`).
    pub mc_mask: u8,
    /// Whether the region has ended (its closing boundary committed).
    pub closed: bool,
}

/// The per-core region boundary table.
#[derive(Debug, Clone, Default)]
pub struct RegionBoundaryTable {
    cap: usize,
    entries: VecDeque<RbtEntry>,
}

impl RegionBoundaryTable {
    /// An empty RBT with `cap` entries.
    pub fn new(cap: usize) -> Self {
        RegionBoundaryTable {
            cap,
            entries: VecDeque::new(),
        }
    }

    /// Whether a new region can be opened.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.cap
    }

    /// Number of in-flight regions.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether no region is being tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Close the currently open (tail) region, if any.
    pub fn close_tail(&mut self) {
        if let Some(t) = self.entries.back_mut() {
            t.closed = true;
        }
    }

    /// Open a new region.
    ///
    /// # Panics
    /// Panics when full — callers must stall instead.
    pub fn open(&mut self, entry: RbtEntry) {
        assert!(self.has_space(), "RBT overflow — core must stall");
        self.entries.push_back(entry);
    }

    /// Account a committed store of the open (tail) region.
    pub fn on_store(&mut self, mc: usize) {
        if let Some(t) = self.entries.back_mut() {
            t.pending += 1;
            t.mc_mask |= 1 << mc;
        }
    }

    /// Account an ack from a WPQ for a store of region `dyn_id`.
    pub fn on_ack(&mut self, dyn_id: DynRegionId) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.dyn_id == dyn_id) {
            e.pending = e.pending.saturating_sub(1);
        }
    }

    /// Pop the head if it is fully persisted (closed and no pending stores).
    /// The next entry, if any, becomes the new non-speculative head; its
    /// recovery metadata must be persisted by the caller (§V-B step 4).
    pub fn try_retire(&mut self) -> Option<RbtEntry> {
        let head = self.entries.front()?;
        if head.closed && head.pending == 0 {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Replace the head entry (used when the recovery point advances past a
    /// committed synchronization instruction inside the open head region).
    pub fn replace_head(&mut self, entry: RbtEntry) {
        if let Some(h) = self.entries.front_mut() {
            *h = entry;
        }
    }

    /// The current head (oldest unpersisted region), if any.
    pub fn head(&self) -> Option<&RbtEntry> {
        self.entries.front()
    }

    /// The currently open region (tail), if any.
    pub fn tail(&self) -> Option<&RbtEntry> {
        self.entries.back()
    }

    /// Whether the tail is speculative: any region older than it is still
    /// unpersisted. Stores of the head region are non-speculative.
    pub fn tail_is_speculative(&self) -> bool {
        self.entries.len() > 1
    }

    /// Whether everything up to the open tail has persisted and the tail has
    /// no pending stores — the drain condition for synchronization points
    /// (§VIII).
    pub fn drained(&self) -> bool {
        self.entries.len() <= 1 && self.entries.front().is_none_or(|e| e.pending == 0)
    }
}

/// An entry travelling down the persist path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// Cycle at which the entry reaches its memory controller.
    pub arrives_at: u64,
    /// Issuing core.
    pub core: usize,
    /// PB sequence number (for the ack).
    pub pb_seq: u64,
    /// Dynamic region of the store.
    pub region: DynRegionId,
    /// Store address.
    pub addr: Word,
    /// Store data.
    pub data: Word,
    /// Undo-log bit.
    pub log_bit: bool,
    /// Target memory controller.
    pub mc: usize,
}

/// The bandwidth/latency-modelled FIFO persist path, shared by all cores.
#[derive(Debug, Clone)]
pub struct PersistPath {
    latency: u64,
    bytes_per_cycle: f64,
    granularity: u64,
    tokens: f64,
    in_flight: VecDeque<PathEntry>,
}

impl PersistPath {
    /// A path with one-way `latency` cycles, `bytes_per_cycle` bandwidth, and
    /// `granularity` bytes per entry.
    pub fn new(latency: u64, bytes_per_cycle: f64, granularity: u64) -> Self {
        PersistPath {
            latency,
            bytes_per_cycle,
            granularity,
            tokens: 0.0,
            in_flight: VecDeque::new(),
        }
    }

    /// The token cap: a burst of four entries.
    fn cap(&self) -> f64 {
        4.0 * self.granularity as f64
    }

    /// One cycle's token accrual: add the bandwidth, then cap. Written as a
    /// branch rather than `f64::min` — the same bits for every input, but
    /// without `min`'s NaN handling in the idle-skip replay loops.
    #[inline]
    fn accrue(t: f64, bytes_per_cycle: f64, cap: f64) -> f64 {
        let n = t + bytes_per_cycle;
        if n < cap {
            n
        } else {
            cap
        }
    }

    /// Advance one cycle: accrue bandwidth tokens (capped at one entry burst).
    pub fn tick(&mut self) {
        self.tokens = Self::accrue(self.tokens, self.bytes_per_cycle, self.cap());
    }

    /// Advance `cycles` idle cycles at once. Bit-identical to `cycles` calls
    /// to [`PersistPath::tick`]: the same per-cycle add-then-cap sequence is
    /// replayed (the loop exits early once the cap is reached, after which
    /// further ticks are no-ops).
    pub fn advance(&mut self, cycles: u64) {
        let cap = self.cap();
        for _ in 0..cycles {
            if self.tokens >= cap {
                break;
            }
            self.tokens = Self::accrue(self.tokens, self.bytes_per_cycle, cap);
        }
    }

    /// How many further [`PersistPath::tick`]s are needed before one entry's
    /// worth of tokens is available. 0 when a send is possible right now;
    /// `u64::MAX` when bandwidth is zero. Replays the exact per-cycle token
    /// arithmetic, so the returned count is the precise send-ready tick.
    pub fn cycles_until_tokens(&self) -> u64 {
        let need = self.granularity as f64;
        if self.tokens >= need {
            return 0;
        }
        if self.bytes_per_cycle <= 0.0 {
            return u64::MAX;
        }
        let cap = self.cap();
        let mut t = self.tokens;
        let mut n = 0u64;
        while t < need {
            t = Self::accrue(t, self.bytes_per_cycle, cap);
            n += 1;
        }
        n
    }

    /// The cycle at which the head in-flight entry arrives, if any.
    pub fn next_arrival_cycle(&self) -> Option<u64> {
        self.in_flight.front().map(|e| e.arrives_at)
    }

    /// Try to admit an entry at `cycle`; consumes bandwidth tokens.
    #[allow(clippy::too_many_arguments)]
    pub fn try_send(
        &mut self,
        cycle: u64,
        core: usize,
        pb_seq: u64,
        region: DynRegionId,
        addr: Word,
        data: Word,
        log_bit: bool,
        mc: usize,
        numa_skew: u64,
    ) -> bool {
        if self.tokens < self.granularity as f64 {
            return false;
        }
        self.tokens -= self.granularity as f64;
        self.in_flight.push_back(PathEntry {
            arrives_at: cycle + self.latency + numa_skew,
            core,
            pb_seq,
            region,
            addr,
            data,
            log_bit,
            mc,
        });
        true
    }

    /// The head entry if it has arrived by `cycle` (FIFO: entries behind a
    /// blocked head wait, preserving per-core order).
    pub fn peek_arrival(&self, cycle: u64) -> Option<&PathEntry> {
        self.in_flight.front().filter(|e| e.arrives_at <= cycle)
    }

    /// Pop the head entry (after the MC accepted it).
    pub fn pop_arrival(&mut self) -> Option<PathEntry> {
        self.in_flight.pop_front()
    }

    /// Entries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::function::BlockId;
    use cwsp_ir::interp::{ResumeKind, ResumePoint};
    use cwsp_ir::module::FuncId;

    fn rp() -> ResumePoint {
        ResumePoint {
            func: FuncId(0),
            block: BlockId(0),
            idx: 0,
            frame_base: 0,
            sp: 0,
            kind: ResumeKind::Normal,
        }
    }

    fn entry(dyn_id: u64) -> RbtEntry {
        RbtEntry {
            dyn_id: DynRegionId(dyn_id),
            static_region: None,
            resume: rp(),
            pending: 0,
            mc_mask: 0,
            closed: false,
        }
    }

    #[test]
    fn pb_fifo_alloc_send_complete() {
        let mut pb = PersistBuffer::new(2);
        assert!(pb.has_space() && pb.is_empty());
        let s0 = pb.push(DynRegionId(0), 64, 1, false);
        let s1 = pb.push(DynRegionId(0), 128, 2, true);
        assert!(!pb.has_space());
        assert_eq!(pb.occupancy(), 2);
        // send in order
        assert_eq!(pb.next_unsent().unwrap().seq, s0);
        pb.mark_sent();
        assert_eq!(pb.next_unsent().unwrap().seq, s1);
        // completion frees head entries in order
        pb.complete(s0);
        assert_eq!(pb.occupancy(), 1);
        assert_eq!(pb.next_unsent().unwrap().seq, s1, "unsent survives the pop");
        pb.mark_sent();
        assert!(!pb.has_unsent());
        pb.complete(s1);
        assert!(pb.is_empty() && !pb.has_unsent());
    }

    /// xorshift64 — a tiny seeded generator for the property tests below.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn pb_send_cursor_matches_a_linear_model() {
        // Random push / send / complete sequences against a naive model that
        // keeps a sent flag per entry and answers every query by scanning.
        for seed in 1..=64u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let cap = 1 + (next(&mut x) % 12) as usize;
            let mut pb = PersistBuffer::new(cap);
            let mut model: Vec<(u64, bool)> = Vec::new();
            let mut next_seq = 0u64;
            for step in 0..2_000 {
                match next(&mut x) % 3 {
                    0 if model.len() < cap => {
                        let seq = pb.push(DynRegionId(step), step * 8, step, step % 2 == 0);
                        assert_eq!(seq, next_seq);
                        model.push((seq, false));
                        next_seq += 1;
                    }
                    1 => {
                        let want = model.iter().find(|e| !e.1).map(|e| e.0);
                        assert_eq!(pb.next_unsent().map(|e| e.seq), want, "seed {seed}");
                        if want.is_some() {
                            pb.mark_sent();
                            model.iter_mut().find(|e| !e.1).unwrap().1 = true;
                        }
                    }
                    _ => {
                        // Acks only arrive for sent entries, oldest first, and
                        // may cover several at once.
                        let sent = model.iter().filter(|e| e.1).count();
                        if sent > 0 {
                            let upto = model[(next(&mut x) as usize) % sent].0;
                            pb.complete(upto);
                            model.retain(|e| e.0 > upto);
                        }
                    }
                }
                assert_eq!(pb.occupancy(), model.len(), "seed {seed} step {step}");
                assert_eq!(pb.has_unsent(), model.iter().any(|e| !e.1));
                assert_eq!(
                    pb.next_unsent().map(|e| e.seq),
                    model.iter().find(|e| !e.1).map(|e| e.0)
                );
                let flags: Vec<(u64, bool)> = pb.entries().map(|(e, sent)| (e.seq, sent)).collect();
                assert_eq!(flags, model, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "PB overflow")]
    fn pb_overflow_panics() {
        let mut pb = PersistBuffer::new(1);
        pb.push(DynRegionId(0), 0, 0, false);
        pb.push(DynRegionId(0), 8, 0, false);
    }

    #[test]
    fn pb_cam_matches_by_line() {
        let mut pb = PersistBuffer::new(4);
        pb.push(DynRegionId(0), 0x1008, 1, false);
        assert!(pb.matches_line(0x1000));
        assert!(!pb.matches_line(0x1040));
    }

    #[test]
    fn rbt_lifecycle_and_retirement() {
        let mut rbt = RegionBoundaryTable::new(2);
        rbt.open(entry(0));
        rbt.on_store(0);
        rbt.on_store(1);
        assert_eq!(rbt.head().unwrap().pending, 2);
        assert_eq!(rbt.head().unwrap().mc_mask, 0b11);
        assert!(rbt.try_retire().is_none(), "not closed yet");
        rbt.close_tail();
        assert!(rbt.try_retire().is_none(), "stores pending");
        rbt.on_ack(DynRegionId(0));
        rbt.on_ack(DynRegionId(0));
        let retired = rbt.try_retire().unwrap();
        assert_eq!(retired.dyn_id, DynRegionId(0));
        assert!(rbt.is_empty());
    }

    #[test]
    fn rbt_speculation_semantics() {
        let mut rbt = RegionBoundaryTable::new(4);
        rbt.open(entry(0));
        assert!(!rbt.tail_is_speculative(), "head region is non-speculative");
        rbt.close_tail();
        rbt.open(entry(1));
        assert!(rbt.tail_is_speculative());
        assert!(!rbt.drained());
        assert_eq!(rbt.occupancy(), 2);
    }

    #[test]
    fn rbt_drained_conditions() {
        let mut rbt = RegionBoundaryTable::new(4);
        assert!(rbt.drained(), "empty table is drained");
        rbt.open(entry(0));
        assert!(rbt.drained(), "single region with no pending stores");
        rbt.on_store(0);
        assert!(!rbt.drained());
        rbt.on_ack(DynRegionId(0));
        assert!(rbt.drained());
    }

    #[test]
    fn path_latency_and_bandwidth() {
        // 2 bytes/cycle, 8-byte entries → one send per 4 cycles.
        let mut p = PersistPath::new(10, 2.0, 8);
        assert!(
            !p.try_send(0, 0, 0, DynRegionId(0), 0, 0, false, 0, 0),
            "no tokens yet"
        );
        for _ in 0..4 {
            p.tick();
        }
        assert!(p.try_send(4, 0, 0, DynRegionId(0), 0, 0, false, 0, 0));
        assert!(
            !p.try_send(4, 0, 1, DynRegionId(0), 8, 0, false, 0, 0),
            "tokens spent"
        );
        assert!(p.peek_arrival(13).is_none(), "latency 10 not yet elapsed");
        assert!(p.peek_arrival(14).is_some());
        let e = p.pop_arrival().unwrap();
        assert_eq!(e.arrives_at, 14);
        assert!(p.is_empty());
    }

    #[test]
    fn path_numa_skew_delays_arrival() {
        let mut p = PersistPath::new(10, 8.0, 8);
        p.tick();
        assert!(p.try_send(0, 0, 0, DynRegionId(0), 0, 0, false, 1, 12));
        assert_eq!(p.pop_arrival().unwrap().arrives_at, 22);
    }

    #[test]
    fn path_64b_granularity_consumes_8x_tokens() {
        let mut p = PersistPath::new(1, 2.0, 64);
        for _ in 0..31 {
            p.tick();
        }
        assert!(!p.try_send(0, 0, 0, DynRegionId(0), 0, 0, false, 0, 0));
        p.tick();
        assert!(p.try_send(0, 0, 0, DynRegionId(0), 0, 0, false, 0, 0));
    }

    /// The per-cycle accrual exactly as written before the branch form.
    fn tick_with_min(t: f64, bytes_per_cycle: f64, granularity: u64) -> f64 {
        (t + bytes_per_cycle).min(4.0 * granularity as f64)
    }

    #[test]
    fn token_replay_is_bit_exact_with_per_cycle_ticks() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for granularity in [8u64, 64] {
            let cap = 4.0 * granularity as f64;
            let mut bandwidths = vec![0.0, 1.0 / 3.0, 0.1, 2.0, 8.0, cap, 2.0 * cap];
            bandwidths.extend((0..24).map(|_| {
                (next(&mut x) >> 11) as f64 / (1u64 << 53) as f64 * 3.0 * granularity as f64
            }));
            for bw in bandwidths {
                for trial in 0..16 {
                    let start = match trial {
                        0 => 0.0,
                        1 => cap,
                        _ => (next(&mut x) >> 11) as f64 / (1u64 << 53) as f64 * cap,
                    };
                    let mut p = PersistPath::new(1, bw, granularity);
                    p.tokens = start;
                    let n = next(&mut x) % 300;

                    // advance(n) == n ticks == n steps of the old `min` form.
                    let mut ticked = p.clone();
                    let mut old = start;
                    for _ in 0..n {
                        ticked.tick();
                        old = tick_with_min(old, bw, granularity);
                        assert_eq!(
                            ticked.tokens.to_bits(),
                            old.to_bits(),
                            "bw {bw} start {start}"
                        );
                    }
                    let mut advanced = p.clone();
                    advanced.advance(n);
                    assert_eq!(
                        advanced.tokens.to_bits(),
                        ticked.tokens.to_bits(),
                        "bw {bw} start {start} n {n}"
                    );

                    // cycles_until_tokens() is the exact first tick with a
                    // full entry's worth of tokens.
                    let k = p.cycles_until_tokens();
                    let need = granularity as f64;
                    if bw == 0.0 && start < need {
                        assert_eq!(k, u64::MAX);
                        continue;
                    }
                    let mut t = p.clone();
                    for i in 0..k {
                        assert!(t.tokens < need, "ready after {i} < {k} ticks");
                        t.tick();
                    }
                    assert!(t.tokens >= need, "not ready after {k} ticks");
                    let mut a = p.clone();
                    a.advance(k);
                    assert_eq!(a.tokens.to_bits(), t.tokens.to_bits());
                }
            }
        }
    }
}
