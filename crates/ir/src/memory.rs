//! Sparse word-granular memory, stored as 4 KiB pages.
//!
//! Both the interpreter's architectural memory and the simulator's NVM image
//! are [`Memory`] instances: sparse maps from 8-byte-aligned addresses to
//! words. Sparsity is what lets the reproduction simulate the paper's
//! multi-gigabyte footprints (2.5–6 GB, §IX-C) without allocating them.
//!
//! ## Representation
//!
//! Earlier versions kept one `HashMap<Word, Word>` entry per non-zero word,
//! which made every simulated load and store a hash probe. Real footprints
//! are page-clustered (stacks, globals, heap arenas), so the map now keys
//! 4 KiB pages (`[Word; 512]`) with an [`FxHashMap`] page table plus a
//! one-entry last-page cache: sequential and strided access patterns resolve
//! to an index into the cached page with no hashing at all.
//!
//! The observable semantics are unchanged and load-bearing for crash
//! consistency checks:
//!
//! * unwritten words read as zero;
//! * storing zero restores "never written" ([`Memory::nonzero_words`] counts
//!   only non-zero words, and two memories are equal iff their non-zero
//!   contents agree — a page left allocated but all-zero equals no page);
//! * [`Memory::iter`] visits exactly the non-zero words.
//!
//! ## Tiering
//!
//! With `CWSP_MEM_BUDGET` set (or [`Memory::with_budget`]), the page table
//! becomes the *hot tier* of a two-tier store: at most `budget` pages stay
//! resident; the rest spill to the process-wide append-only page file
//! ([`cwsp_store::spill`]). Eviction is clock/second-chance over the resident
//! slots; an all-zero victim is dropped outright (identical to the sparse
//! in-RAM behavior), other victims stage in a small writeback buffer that
//! flushes to the spill file in batches. Loads from spilled pages read
//! through without promotion; stores fault the page back in (evicting
//! another under budget pressure). All of the semantics above hold
//! bit-exactly across spill and fault — the crash-consistency oracle cannot
//! tell the tiers apart.

use crate::fxhash::FxHashMap;
use crate::types::Word;
use cwsp_store::{tier as telemetry, SpillStore};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Words per page (4 KiB / 8 bytes).
const PAGE_WORDS: usize = 512;
/// log2 of the page size in bytes.
const PAGE_SHIFT: u32 = 12;
/// Mask extracting the word offset within a page from `addr >> 3`.
const OFF_MASK: Word = PAGE_WORDS as Word - 1;
/// Sentinel page number marking the last-page cache invalid (real page
/// numbers are `addr >> 12`, which cannot reach `u64::MAX`).
const NO_PAGE: Word = Word::MAX;

/// Dirty pages staged per memory before one batched append to the spill
/// file. Bounded extra residency on top of the budget (≤ 64 KiB).
const WRITEBACK_BATCH: usize = 16;

// The spill tier and this memory must agree on the page geometry.
const _: () = assert!(PAGE_WORDS == cwsp_store::PAGE_WORDS);

type Page = Box<[Word; PAGE_WORDS]>;

fn new_page() -> Page {
    // Heap-allocate directly; `Box::new([0; 512])` would build 4 KiB on the
    // stack first in debug builds.
    vec![0; PAGE_WORDS].into_boxed_slice().try_into().unwrap()
}

/// Where a non-resident page's contents live.
#[derive(Clone, Copy, Debug)]
enum SpillRef {
    /// Immutable slot offset in the spill file.
    File(u64),
    /// Index into the owning tier's writeback buffer (not yet flushed).
    Pending(u32),
}

/// Cold-tier state of one tiered memory.
struct Tier {
    /// Maximum resident pages (≥ 1).
    budget: usize,
    /// Shared append-only page file.
    spill: Arc<SpillStore>,
    /// Page number → where its spilled contents live.
    spilled: FxHashMap<Word, SpillRef>,
    /// Dirty evicted pages awaiting one batched append.
    pending: Vec<(Word, Page)>,
    /// Clock reference bits, parallel to `Memory::pages`. `Cell` so read
    /// hits can mark recency through `&self`.
    refbits: Vec<Cell<bool>>,
    /// Clock hand (next slot to examine).
    hand: usize,
    /// Freed slots in `Memory::pages` available for reuse.
    free: Vec<u32>,
    /// Current resident pages of this memory.
    resident: usize,
    /// Resident accesses since the last telemetry flush (bulk-reported on
    /// drop to keep atomics off the simulated load/store path).
    hits: Cell<u64>,
}

impl Tier {
    fn new(budget: usize, spill: Arc<SpillStore>) -> Tier {
        Tier {
            budget: budget.max(1),
            spill,
            spilled: FxHashMap::default(),
            pending: Vec::new(),
            refbits: Vec::new(),
            hand: 0,
            free: Vec::new(),
            resident: 0,
            hits: Cell::new(0),
        }
    }

    /// Read one word of a spilled page without promoting it.
    fn read_spilled_word(&self, r: SpillRef, off: usize) -> Word {
        match r {
            SpillRef::Pending(i) => self.pending[i as usize].1[off],
            SpillRef::File(o) => self.spill.read_word(o, off),
        }
    }

    /// Copy of a spilled page's contents (iteration/diff path).
    fn read_spilled_page(&self, r: SpillRef) -> [Word; PAGE_WORDS] {
        match r {
            SpillRef::Pending(i) => *self.pending[i as usize].1,
            SpillRef::File(o) => {
                let mut buf = [0 as Word; PAGE_WORDS];
                self.spill.read_page(o, &mut buf);
                buf
            }
        }
    }

    /// Append every staged page to the spill file in one batch.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let n = self.pending.len() as u64;
        let start = Instant::now();
        for (page_no, page) in self.pending.drain(..) {
            let off = self.spill.append_page(&page);
            self.spilled.insert(page_no, SpillRef::File(off));
        }
        telemetry::record_writeback_batch(n, start.elapsed().as_nanos() as u64);
    }
}

impl Clone for Tier {
    fn clone(&self) -> Tier {
        // The global gauges count pages across live memories, so a clone
        // re-registers its resident and spilled sets.
        for _ in 0..self.resident {
            telemetry::resident_add(self.resident as u64);
        }
        telemetry::spilled_delta(self.spilled.len() as i64);
        Tier {
            budget: self.budget,
            spill: Arc::clone(&self.spill),
            spilled: self.spilled.clone(),
            pending: self.pending.clone(),
            refbits: self.refbits.clone(),
            hand: self.hand,
            free: self.free.clone(),
            resident: self.resident,
            hits: Cell::new(0),
        }
    }
}

impl Drop for Tier {
    fn drop(&mut self) {
        telemetry::record_resident_hits(self.hits.get());
        telemetry::resident_sub(self.resident as u64);
        telemetry::spilled_delta(-(self.spilled.len() as i64));
    }
}

thread_local! {
    /// Test hook: `Some(budget)` overrides `CWSP_MEM_BUDGET` for this thread
    /// (`Some(None)` forces unbounded). Set via [`with_budget_override`].
    static BUDGET_OVERRIDE: Cell<Option<Option<usize>>> = const { Cell::new(None) };
}

/// Run `f` with every `Memory::new()` on this thread using `budget` resident
/// pages (`None` = unbounded), regardless of `CWSP_MEM_BUDGET`. Restores the
/// previous override on exit, including on panic. Parallel tests must use
/// this instead of mutating the environment.
pub fn with_budget_override<R>(budget: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Option<usize>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(BUDGET_OVERRIDE.with(|c| c.replace(Some(budget))));
    f()
}

/// Sparse, word-granular memory. Unwritten words read as zero.
///
/// # Example
/// ```
/// use cwsp_ir::Memory;
/// let mut m = Memory::new();
/// assert_eq!(m.load(0x1000), 0);
/// m.store(0x1000, 42);
/// assert_eq!(m.load(0x1000), 42);
/// ```
#[derive(Clone)]
pub struct Memory {
    /// Page number (`addr >> 12`) → slot in `pages`.
    index: FxHashMap<Word, u32>,
    /// Allocated pages, in allocation order. With a tier, slots whose
    /// `page_ids` entry is [`NO_PAGE`] are free (their contents are stale).
    pages: Vec<Page>,
    /// Slot → page number (for iteration without touching the map).
    page_ids: Vec<Word>,
    /// Last-page-hit cache: `(page number, slot)`; `NO_PAGE` when invalid.
    /// A `Cell` so read hits can refresh it through `&self`.
    last: Cell<(Word, u32)>,
    /// Global count of non-zero words across all pages, resident or spilled.
    nonzero: usize,
    /// Cold-tier state; `None` = unbounded (the historical behavior, with
    /// an unchanged hot path).
    tier: Option<Box<Tier>>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// An empty (all-zero) memory, tiered per the thread's
    /// [`with_budget_override`] if one is active, else `CWSP_MEM_BUDGET`.
    pub fn new() -> Self {
        let budget = BUDGET_OVERRIDE
            .with(|c| c.get())
            .unwrap_or_else(|| cwsp_store::config::get().mem_budget);
        Memory::with_budget(budget)
    }

    /// An empty memory with an explicit resident-page budget (`None` =
    /// unbounded). A budget of 0 is clamped to 1. Falls back to unbounded
    /// if the process-wide spill file cannot be created.
    pub fn with_budget(budget: Option<usize>) -> Self {
        let tier = budget.and_then(|b| SpillStore::global().map(|s| Box::new(Tier::new(b, s))));
        Memory {
            index: FxHashMap::default(),
            pages: Vec::new(),
            page_ids: Vec::new(),
            last: Cell::new((NO_PAGE, 0)),
            nonzero: 0,
            tier,
        }
    }

    /// Whether this memory has a cold tier.
    pub fn tier_enabled(&self) -> bool {
        self.tier.is_some()
    }

    /// Resident-page budget, if tiered.
    pub fn budget_pages(&self) -> Option<usize> {
        self.tier.as_ref().map(|t| t.budget)
    }

    /// Pages currently resident in the hot tier.
    pub fn resident_pages(&self) -> usize {
        match &self.tier {
            Some(t) => t.resident,
            None => self.pages.len(),
        }
    }

    /// Pages currently spilled (including ones staged for writeback).
    pub fn spilled_pages(&self) -> usize {
        self.tier.as_ref().map_or(0, |t| t.spilled.len())
    }

    /// Read the word at `addr`.
    ///
    /// # Panics
    /// Debug-asserts 8-byte alignment.
    #[inline]
    pub fn load(&self, addr: Word) -> Word {
        debug_assert_eq!(addr % 8, 0, "unaligned load at {addr:#x}");
        let page = addr >> PAGE_SHIFT;
        let off = ((addr >> 3) & OFF_MASK) as usize;
        let (cached, slot) = self.last.get();
        if cached == page {
            if let Some(t) = &self.tier {
                t.refbits[slot as usize].set(true);
                t.hits.set(t.hits.get() + 1);
            }
            return self.pages[slot as usize][off];
        }
        match self.index.get(&page) {
            Some(&slot) => {
                self.last.set((page, slot));
                if let Some(t) = &self.tier {
                    t.refbits[slot as usize].set(true);
                    t.hits.set(t.hits.get() + 1);
                }
                self.pages[slot as usize][off]
            }
            None => match &self.tier {
                Some(t) => match t.spilled.get(&page) {
                    // Read through without promotion: loads never churn the
                    // resident set.
                    Some(&r) => {
                        telemetry::record_spilled_load();
                        t.read_spilled_word(r, off)
                    }
                    None => 0,
                },
                None => 0,
            },
        }
    }

    /// Write the word at `addr`, returning the previous value.
    ///
    /// # Panics
    /// Debug-asserts 8-byte alignment.
    #[inline]
    pub fn store(&mut self, addr: Word, value: Word) -> Word {
        debug_assert_eq!(addr % 8, 0, "unaligned store at {addr:#x}");
        let page = addr >> PAGE_SHIFT;
        let off = ((addr >> 3) & OFF_MASK) as usize;
        let (cached, cached_slot) = self.last.get();
        let slot = if cached == page {
            cached_slot
        } else if let Some(&slot) = self.index.get(&page) {
            self.last.set((page, slot));
            slot
        } else {
            match self.store_miss(page, off, value) {
                Ok(slot) => slot,
                // The store was a no-op (zero to absent, or the spilled word
                // already held `value`); `prev` is returned directly.
                Err(prev) => return prev,
            }
        };
        if let Some(t) = &self.tier {
            t.refbits[slot as usize].set(true);
            t.hits.set(t.hits.get() + 1);
        }
        let w = &mut self.pages[slot as usize][off];
        let prev = *w;
        *w = value;
        self.nonzero += (value != 0) as usize;
        self.nonzero -= (prev != 0) as usize;
        prev
    }

    /// Store path when `page` is not resident: fault it from the cold tier,
    /// allocate it, or report a no-op (`Err(previous value)`).
    #[cold]
    fn store_miss(&mut self, page: Word, off: usize, value: Word) -> Result<u32, Word> {
        if let Some(t) = self.tier.as_deref() {
            if let Some(&r) = t.spilled.get(&page) {
                let current = t.read_spilled_word(r, off);
                if current == value {
                    // Nothing would change; skip the fault entirely.
                    return Err(current);
                }
                return Ok(self.fault_in(page));
            }
        }
        if value == 0 {
            // Keep the map sparse: a zero store to an unallocated page is a
            // no-op.
            return Err(0);
        }
        Ok(self.alloc_page(page))
    }

    /// Allocate a fresh all-zero resident page for `page`, evicting under
    /// budget pressure.
    fn alloc_page(&mut self, page: Word) -> u32 {
        self.make_room();
        let Memory {
            index,
            pages,
            page_ids,
            last,
            tier,
            ..
        } = self;
        let slot = match tier.as_deref_mut() {
            Some(t) => {
                let slot = match t.free.pop() {
                    Some(s) => {
                        // Freed slots hold stale contents; a new page must
                        // read all-zero.
                        pages[s as usize].fill(0);
                        page_ids[s as usize] = page;
                        s
                    }
                    None => {
                        pages.push(new_page());
                        page_ids.push(page);
                        t.refbits.push(Cell::new(false));
                        (pages.len() - 1) as u32
                    }
                };
                t.resident += 1;
                telemetry::resident_add(t.resident as u64);
                slot
            }
            None => {
                pages.push(new_page());
                page_ids.push(page);
                (pages.len() - 1) as u32
            }
        };
        index.insert(page, slot);
        last.set((page, slot));
        slot
    }

    /// Fault a spilled page back into the resident set (store path only;
    /// loads read through).
    fn fault_in(&mut self, page: Word) -> u32 {
        self.make_room();
        let Memory {
            index,
            pages,
            page_ids,
            last,
            tier,
            ..
        } = self;
        let t = tier.as_deref_mut().expect("fault_in requires a tier");
        let r = t.spilled.remove(&page).expect("fault_in target is spilled");
        telemetry::spilled_delta(-1);
        telemetry::record_fault();
        let slot = match t.free.pop() {
            Some(s) => s,
            None => {
                pages.push(new_page());
                page_ids.push(NO_PAGE);
                t.refbits.push(Cell::new(false));
                (pages.len() - 1) as u32
            }
        };
        match r {
            SpillRef::Pending(i) => {
                let (pno, data) = t.pending.swap_remove(i as usize);
                debug_assert_eq!(pno, page);
                pages[slot as usize] = data;
                // swap_remove moved the tail entry into index `i`; fix its
                // spill ref.
                if (i as usize) < t.pending.len() {
                    let moved = t.pending[i as usize].0;
                    t.spilled.insert(moved, SpillRef::Pending(i));
                }
            }
            SpillRef::File(o) => t.spill.read_page(o, &mut pages[slot as usize]),
        }
        page_ids[slot as usize] = page;
        index.insert(page, slot);
        t.refbits[slot as usize].set(true);
        t.resident += 1;
        telemetry::resident_add(t.resident as u64);
        last.set((page, slot));
        slot
    }

    /// Evict until a page can be added within the budget.
    fn make_room(&mut self) {
        while self.tier.as_ref().is_some_and(|t| t.resident >= t.budget) {
            self.evict_one();
        }
    }

    /// Clock/second-chance eviction of one resident page. All-zero victims
    /// are dropped (restoring "never written"); others stage for a batched
    /// writeback to the spill file.
    fn evict_one(&mut self) {
        let Memory {
            index,
            pages,
            page_ids,
            last,
            tier,
            ..
        } = self;
        let t = tier.as_deref_mut().expect("evict_one requires a tier");
        debug_assert!(t.resident > 0);
        let slot = loop {
            if t.hand >= pages.len() {
                t.hand = 0;
            }
            let s = t.hand;
            t.hand += 1;
            if page_ids[s] == NO_PAGE {
                continue; // free slot
            }
            if t.refbits[s].replace(false) {
                continue; // second chance
            }
            break s;
        };
        let page = page_ids[slot];
        index.remove(&page);
        page_ids[slot] = NO_PAGE;
        t.free.push(slot as u32);
        t.resident -= 1;
        telemetry::resident_sub(1);
        telemetry::record_eviction();
        if last.get().0 == page {
            last.set((NO_PAGE, 0));
        }
        if pages[slot].iter().all(|&w| w == 0) {
            // Zero pages vanish, exactly as in the unbounded representation;
            // the slot's stale contents are cleared on reuse.
            telemetry::record_zero_drop();
            return;
        }
        let idx = t.pending.len() as u32;
        t.pending.push((page, pages[slot].clone()));
        t.spilled.insert(page, SpillRef::Pending(idx));
        telemetry::spilled_delta(1);
        if t.pending.len() >= WRITEBACK_BATCH {
            t.flush_pending();
        }
    }

    /// Number of non-zero words currently stored.
    pub fn nonzero_words(&self) -> usize {
        self.nonzero
    }

    /// Iterate `(addr, value)` over non-zero words (unspecified order),
    /// resident and spilled alike.
    pub fn iter(&self) -> impl Iterator<Item = (Word, Word)> + '_ {
        let resident = self
            .pages
            .iter()
            .zip(self.page_ids.iter())
            .filter(|&(_, &page)| page != NO_PAGE)
            .flat_map(|(p, &page)| {
                let base = page << PAGE_SHIFT;
                p.iter()
                    .enumerate()
                    .filter_map(move |(i, &v)| (v != 0).then_some((base + i as Word * 8, v)))
            });
        let spilled = self.tier.as_deref().into_iter().flat_map(|t| {
            t.spilled.iter().flat_map(move |(&page, &r)| {
                let base = page << PAGE_SHIFT;
                t.read_spilled_page(r)
                    .into_iter()
                    .enumerate()
                    .filter_map(move |(i, v)| (v != 0).then_some((base + i as Word * 8, v)))
            })
        });
        resident.chain(spilled)
    }

    /// Compare this memory with `other` over addresses `filter` accepts,
    /// returning up to `limit` differing addresses as
    /// `(addr, self_value, other_value)`.
    ///
    /// Used by the consistency verifier to compare a recovered run's NVM image
    /// against the failure-free oracle while ignoring hardware metadata.
    pub fn diff_where(
        &self,
        other: &Memory,
        mut filter: impl FnMut(Word) -> bool,
        limit: usize,
    ) -> Vec<(Word, Word, Word)> {
        let mut out = Vec::new();
        for (a, v) in self.iter() {
            if out.len() >= limit {
                break;
            }
            if filter(a) && other.load(a) != v {
                out.push((a, v, other.load(a)));
            }
        }
        // Words non-zero only in `other`: the first loop cannot see them.
        for (a, v) in other.iter() {
            if out.len() >= limit {
                break;
            }
            if filter(a) && self.load(a) == 0 {
                out.push((a, 0, v));
            }
        }
        out
    }
}

/// Equality over non-zero contents only: a page that was written and then
/// zeroed again stays allocated but compares equal to never-written memory.
impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        // Same non-zero count + every non-zero word of `self` matches
        // `other` ⇒ the non-zero sets coincide exactly.
        self.nonzero == other.nonzero && self.iter().all(|(a, v)| other.load(a) == v)
    }
}

impl Eq for Memory {}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print only the non-zero words, sorted, so assertion failures stay
        // readable regardless of page-allocation order.
        let mut words: Vec<(Word, Word)> = self.iter().collect();
        words.sort_unstable();
        f.debug_struct("Memory")
            .field("nonzero", &self.nonzero)
            .field("words", &words)
            .finish()
    }
}

impl FromIterator<(Word, Word)> for Memory {
    fn from_iter<T: IntoIterator<Item = (Word, Word)>>(iter: T) -> Self {
        let mut m = Memory::new();
        for (a, v) in iter {
            m.store(a, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default_and_roundtrip() {
        let mut m = Memory::new();
        assert_eq!(m.load(8), 0);
        assert_eq!(m.store(8, 5), 0);
        assert_eq!(m.store(8, 7), 5);
        assert_eq!(m.load(8), 7);
    }

    #[test]
    fn zero_store_keeps_sparse() {
        let mut m = Memory::new();
        m.store(16, 9);
        assert_eq!(m.nonzero_words(), 1);
        assert_eq!(m.store(16, 0), 9);
        assert_eq!(m.nonzero_words(), 0);
        assert_eq!(m.load(16), 0);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    #[cfg(debug_assertions)]
    fn unaligned_traps_in_debug() {
        Memory::new().load(3);
    }

    #[test]
    fn diff_where_finds_asymmetric_differences() {
        let a: Memory = [(8, 1), (16, 2)].into_iter().collect();
        let b: Memory = [(8, 1), (24, 3)].into_iter().collect();
        let mut d = a.diff_where(&b, |_| true, 10);
        d.sort();
        assert_eq!(d, vec![(16, 2, 0), (24, 0, 3)]);
        // filter excludes
        let d2 = a.diff_where(&b, |addr| addr < 16, 10);
        assert!(d2.is_empty());
        // limit respected
        let d3 = a.diff_where(&b, |_| true, 1);
        assert_eq!(d3.len(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let m: Memory = [(8, 1), (16, 0)].into_iter().collect();
        assert_eq!(m.nonzero_words(), 1);
    }

    #[test]
    fn page_boundaries_are_seamless() {
        let mut m = Memory::new();
        // Last word of page 0, first word of page 1, and a far page.
        for (i, a) in [4096 - 8, 4096, 7 << 40].into_iter().enumerate() {
            m.store(a, i as Word + 1);
        }
        assert_eq!(m.load(4096 - 8), 1);
        assert_eq!(m.load(4096), 2);
        assert_eq!(m.load(7 << 40), 3);
        assert_eq!(m.nonzero_words(), 3);
        // Neighbors within the same pages still read zero.
        assert_eq!(m.load(4096 - 16), 0);
        assert_eq!(m.load(4096 + 8), 0);
    }

    #[test]
    fn zeroed_page_equals_never_written() {
        let mut a = Memory::new();
        a.store(0x5000, 1);
        a.store(0x5000, 0); // page stays allocated, contents all-zero
        let b = Memory::new();
        assert_eq!(a, b);
        assert_eq!(b, a);
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn equality_ignores_page_allocation_order() {
        let a: Memory = [(0x1000, 1), (0x9000, 2)].into_iter().collect();
        let b: Memory = [(0x9000, 2), (0x1000, 1)].into_iter().collect();
        assert_eq!(a, b);
        let c: Memory = [(0x1000, 1), (0x9000, 3)].into_iter().collect();
        assert_ne!(a, c);
        let d: Memory = [(0x1000, 1)].into_iter().collect();
        assert_ne!(a, d);
        assert_ne!(d, a);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Memory::new();
        a.store(64, 10);
        let mut b = a.clone();
        b.store(64, 20);
        b.store(1 << 30, 5);
        assert_eq!(a.load(64), 10);
        assert_eq!(a.load(1 << 30), 0);
        assert_eq!(b.load(64), 20);
        assert_eq!(a.nonzero_words(), 1);
        assert_eq!(b.nonzero_words(), 2);
    }

    #[test]
    fn iter_yields_exactly_nonzero_words() {
        let mut m = Memory::new();
        m.store(0, 1);
        m.store(8, 2);
        m.store(8, 0);
        m.store(0x10_0000, 3);
        let mut got: Vec<(Word, Word)> = m.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (0x10_0000, 3)]);
        assert_eq!(m.nonzero_words(), 2);
    }

    #[test]
    fn tiered_spill_and_fault_round_trip() {
        let mut m = Memory::with_budget(Some(2));
        assert!(m.tier_enabled());
        // Touch 8 pages; only 2 can stay resident.
        for p in 0..8 as Word {
            m.store(p << PAGE_SHIFT, p + 1);
        }
        assert!(m.resident_pages() <= 2, "resident {}", m.resident_pages());
        assert_eq!(m.spilled_pages(), 6);
        // Loads read through the cold tier without promotion.
        let spilled_before = m.spilled_pages();
        for p in 0..8 as Word {
            assert_eq!(m.load(p << PAGE_SHIFT), p + 1);
        }
        assert_eq!(m.spilled_pages(), spilled_before);
        // Stores fault pages back in, still within budget.
        for p in 0..8 as Word {
            m.store((p << PAGE_SHIFT) + 8, p + 100);
        }
        assert!(m.resident_pages() <= 2);
        for p in 0..8 as Word {
            assert_eq!(m.load(p << PAGE_SHIFT), p + 1);
            assert_eq!(m.load((p << PAGE_SHIFT) + 8), p + 100);
        }
        assert_eq!(m.nonzero_words(), 16);
    }

    #[test]
    fn tiered_matches_unbounded_semantics() {
        let mut tiered = Memory::with_budget(Some(1));
        let mut plain = Memory::with_budget(None);
        // Deterministic mixed workload over several pages, with zero stores.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 33) % (16 * PAGE_WORDS as u64)) * 8;
            let val = if x.is_multiple_of(5) { 0 } else { x % 1000 };
            assert_eq!(tiered.store(addr, val), plain.store(addr, val));
            let probe = ((x >> 13) % (16 * PAGE_WORDS as u64)) * 8;
            assert_eq!(tiered.load(probe), plain.load(probe));
        }
        assert_eq!(tiered.nonzero_words(), plain.nonzero_words());
        assert_eq!(tiered, plain);
        assert_eq!(plain, tiered);
        let mut a: Vec<_> = tiered.iter().collect();
        let mut b: Vec<_> = plain.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn tiered_zero_store_restores_unwritten_across_spill() {
        let mut m = Memory::with_budget(Some(1));
        m.store(0x1000, 7);
        m.store(0x2000, 8); // evicts page 1
        m.store(0x1000, 0); // faults page 1 back, zeroes the word
        m.store(0x3000, 9); // evict again; the all-zero page must drop
        assert_eq!(m.nonzero_words(), 2);
        assert_eq!(m.load(0x1000), 0);
        let unwritten = Memory::with_budget(Some(1));
        assert_ne!(m, unwritten);
        let expect: Memory = [(0x2000, 8), (0x3000, 9)].into_iter().collect();
        assert_eq!(m, expect);
    }

    #[test]
    fn tiered_clone_is_independent() {
        let mut a = Memory::with_budget(Some(2));
        for p in 0..6 as Word {
            a.store(p << PAGE_SHIFT, p + 1);
        }
        let mut b = a.clone();
        b.store(0, 99);
        b.store(5 << PAGE_SHIFT, 0);
        for p in 0..6 as Word {
            assert_eq!(a.load(p << PAGE_SHIFT), p + 1, "clone mutated parent");
        }
        assert_eq!(b.load(0), 99);
        assert_eq!(b.load(5 << PAGE_SHIFT), 0);
        assert_eq!(a.nonzero_words(), 6);
        assert_eq!(b.nonzero_words(), 5);
    }

    #[test]
    fn budget_override_applies_to_new() {
        let m = with_budget_override(Some(4), Memory::new);
        assert_eq!(m.budget_pages(), Some(4));
        let m2 = with_budget_override(None, Memory::new);
        assert!(!m2.tier_enabled());
    }

    #[test]
    fn tiered_diff_where_sees_spilled_words() {
        let (a, b) = with_budget_override(Some(1), || {
            let a: Memory = (0..8).map(|p| ((p as Word) << PAGE_SHIFT, p + 1)).collect();
            let mut b = a.clone();
            b.store(3 << PAGE_SHIFT, 42);
            (a, b)
        });
        let d = a.diff_where(&b, |_| true, 10);
        assert_eq!(d, vec![(3 << PAGE_SHIFT, 4, 42)]);
    }

    #[test]
    fn interleaved_pages_exercise_the_page_cache() {
        let mut m = Memory::new();
        // Alternate between two pages so the one-entry cache keeps flipping.
        for i in 0..PAGE_WORDS as Word {
            m.store(i * 8, i);
            m.store((1 << 20) + i * 8, i * 2);
        }
        for i in 1..PAGE_WORDS as Word {
            assert_eq!(m.load(i * 8), i);
            assert_eq!(m.load((1 << 20) + i * 8), i * 2);
        }
        assert_eq!(m.nonzero_words(), 2 * (PAGE_WORDS - 1));
    }
}
