//! Set-associative cache models with a dense/sparse split.
//!
//! Tags only — data always lives in the interpreter's architectural memory and
//! the machine's NVM image. Small geometries (L1, L2) store their sets as one
//! flat fixed-way array indexed by `set * assoc`: no hashing, no per-set
//! allocation, and the whole tag store is cache-friendly for the *host* too.
//! Giant geometries (the 4 GB direct-mapped DRAM cache has 64 M sets) stay
//! sparse — a map from set index to its way array, hashed with the local
//! [`cwsp_ir::fxhash::FxHasher`] — which is what lets multi-GB footprints
//! simulate in megabytes of host memory.

use crate::config::CacheParams;
use cwsp_ir::fxhash::FxHashMap;

/// Cacheline size in bytes (fixed at 64, as in the paper).
pub const LINE_BYTES: u64 = 64;

/// Above this many total ways (`sets * assoc`), set storage switches from the
/// dense flat array to the sparse map. 2^18 ways ≈ 6 MB of host tag store —
/// covers the default L1/L2 geometries; the 128 MB L4 and the DRAM cache go
/// sparse.
const DENSE_WAY_LIMIT: u64 = 1 << 18;

/// The line-aligned address of `addr`.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty line evicted to make room, if any (line-aligned address).
    pub writeback: Option<u64>,
}

/// One way, packed into two words: `[tag | DIRTY, last_use]`.
/// `last_use == 0` marks an empty slot (ticks start at 1, so a resident line
/// always has a nonzero timestamp and empty slots are always preferred as
/// victims by the LRU scan). An empty way is all-zero bits, so a dense tag
/// store of plain `[u64; 2]`s comes from a zeroed allocation and its pages
/// are only touched once the simulated program reaches them.
type Way = [u64; 2];

const EMPTY: Way = [0, 0];

/// The dirty bit, packed into the tag word. Tags are line numbers divided by
/// the set count, so they never reach bit 63.
const DIRTY: u64 = 1 << 63;

#[inline]
fn is_valid(w: &Way) -> bool {
    w[1] != 0
}

#[inline]
fn tag_of(w: &Way) -> u64 {
    w[0] & !DIRTY
}

#[inline]
fn is_dirty(w: &Way) -> bool {
    w[0] & DIRTY != 0
}

/// Set storage: dense flat array for small geometries, sparse map otherwise.
#[derive(Debug, Clone)]
enum SetStore {
    /// `sets * assoc` ways at `set * assoc + way`.
    Dense(Vec<Way>),
    /// Set index → its `assoc` ways, allocated on first touch.
    Sparse(FxHashMap<u64, Box<[Way]>>),
}

/// One set-associative, write-back, write-allocate cache level (LRU).
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    store: SetStore,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// An empty cache with the given geometry.
    pub fn new(params: CacheParams) -> Self {
        let ways = params.sets() * params.assoc as u64;
        let store = if ways <= DENSE_WAY_LIMIT {
            SetStore::Dense(vec![EMPTY; ways as usize])
        } else {
            SetStore::Sparse(FxHashMap::default())
        };
        Cache {
            params,
            store,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    #[inline]
    fn index_tag(&self, addr: u64) -> (u64, u64) {
        let line = line_of(addr) / LINE_BYTES;
        let sets = self.params.sets();
        (line % sets, line / sets)
    }

    /// The ways of set `index`, allocating in sparse mode.
    #[inline]
    fn set_mut(&mut self, index: u64) -> &mut [Way] {
        let assoc = self.params.assoc as usize;
        match &mut self.store {
            SetStore::Dense(v) => {
                let base = index as usize * assoc;
                &mut v[base..base + assoc]
            }
            SetStore::Sparse(m) => m
                .entry(index)
                .or_insert_with(|| vec![EMPTY; assoc].into_boxed_slice()),
        }
    }

    /// The ways of set `index`, if materialized (read-only).
    #[inline]
    fn set_ref(&self, index: u64) -> Option<&[Way]> {
        let assoc = self.params.assoc as usize;
        match &self.store {
            SetStore::Dense(v) => {
                let base = index as usize * assoc;
                Some(&v[base..base + assoc])
            }
            SetStore::Sparse(m) => m.get(&index).map(|b| &b[..]),
        }
    }

    /// Access `addr`; allocates on miss. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let (index, tag) = self.index_tag(addr);
        let sets = self.params.sets();
        let result = {
            let ways = self.set_mut(index);
            // One scan finds both the hit and the LRU victim: empty slots
            // carry `last_use == 0` and therefore win the min comparison
            // automatically.
            let mut victim = 0usize;
            let mut victim_use = u64::MAX;
            let mut hit = false;
            for (i, w) in ways.iter_mut().enumerate() {
                if is_valid(w) && tag_of(w) == tag {
                    w[1] = tick;
                    if write {
                        w[0] |= DIRTY;
                    }
                    hit = true;
                    break;
                }
                if w[1] < victim_use {
                    victim_use = w[1];
                    victim = i;
                }
            }
            if hit {
                AccessResult {
                    hit: true,
                    writeback: None,
                }
            } else {
                let v = &mut ways[victim];
                let writeback =
                    (is_valid(v) && is_dirty(v)).then(|| (tag_of(v) * sets + index) * LINE_BYTES);
                *v = [if write { tag | DIRTY } else { tag }, tick];
                AccessResult {
                    hit: false,
                    writeback,
                }
            }
        };
        if result.hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        result
    }

    /// Whether `addr`'s line is present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let (index, tag) = self.index_tag(addr);
        self.set_ref(index)
            .is_some_and(|ws| ws.iter().any(|w| is_valid(w) && tag_of(w) == tag))
    }

    /// Invalidate `addr`'s line if present; returns whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (index, tag) = self.index_tag(addr);
        // Avoid allocating an empty sparse set just to invalidate nothing.
        if matches!(&self.store, SetStore::Sparse(m) if !m.contains_key(&index)) {
            return false;
        }
        let ways = self.set_mut(index);
        for w in ways {
            if is_valid(w) && tag_of(w) == tag {
                let was_dirty = is_dirty(w);
                *w = EMPTY;
                return was_dirty;
            }
        }
        false
    }

    /// Resident (valid) lines — host-memory introspection for tests/debug.
    pub fn resident_lines(&self) -> usize {
        match &self.store {
            SetStore::Dense(v) => v.iter().filter(|w| is_valid(w)).count(),
            SetStore::Sparse(m) => m
                .values()
                .map(|ws| ws.iter().filter(|w| is_valid(w)).count())
                .sum(),
        }
    }

    /// Line-aligned addresses of every dirty resident line, ascending —
    /// the dirty-in-cache store set the crash forensics frontier reports.
    /// Addresses are reconstructed exactly like eviction writebacks:
    /// `(tag * sets + index) * LINE_BYTES`.
    pub fn dirty_lines(&self) -> Vec<u64> {
        let sets = self.params.sets();
        let assoc = self.params.assoc as usize;
        let mut out = Vec::new();
        match &self.store {
            SetStore::Dense(v) => {
                for (i, w) in v.iter().enumerate() {
                    if is_valid(w) && is_dirty(w) {
                        let index = (i / assoc) as u64;
                        out.push((tag_of(w) * sets + index) * LINE_BYTES);
                    }
                }
            }
            SetStore::Sparse(m) => {
                for (&index, ws) in m.iter() {
                    for w in ws.iter() {
                        if is_valid(w) && is_dirty(w) {
                            out.push((tag_of(w) * sets + index) * LINE_BYTES);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Miss ratio so far (0.0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets × 2 ways × 64 B = 256 B
        Cache::new(CacheParams {
            size_bytes: 256,
            assoc: 2,
            hit_cycles: 1,
        })
    }

    #[test]
    fn hit_after_allocate() {
        let mut c = small();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(8, false).hit, "same line");
        assert!(!c.access(64, false).hit, "different set");
        assert_eq!(c.stats(), (2, 2));
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = small();
        // set 0 holds lines 0 and 128 (2 ways); 256 evicts LRU (0).
        c.access(0, true); // dirty
        c.access(128, false);
        let r = c.access(256, false);
        assert!(!r.hit);
        assert_eq!(r.writeback, Some(0), "dirty line 0 written back");
        // line 0 is gone
        assert!(!c.probe(0));
        assert!(c.probe(128) && c.probe(256));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0, false);
        c.access(128, false);
        let r = c.access(256, false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = small();
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // refresh 0; 128 becomes LRU
        let r = c.access(256, false);
        assert_eq!(r.writeback, None);
        assert!(c.probe(0), "recently used line survives");
        assert!(!c.probe(128));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.access(0, true);
        assert!(c.invalidate(0));
        assert!(!c.probe(0));
        assert!(!c.invalidate(0), "second invalidate is a no-op");
        c.access(64, false);
        assert!(!c.invalidate(64), "clean line");
    }

    #[test]
    fn invalidated_slot_is_refilled_before_evictions() {
        let mut c = small();
        c.access(0, true);
        c.access(128, true);
        c.invalidate(0);
        // The freed slot must absorb the next allocation with no writeback.
        let r = c.access(256, false);
        assert_eq!(r.writeback, None, "empty slot reused, dirty 128 survives");
        assert!(c.probe(128) && c.probe(256));
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 2 sets × 1 way
        let mut c = Cache::new(CacheParams {
            size_bytes: 128,
            assoc: 1,
            hit_cycles: 1,
        });
        c.access(0, true);
        let r = c.access(128, false); // same set (sets=2 ⇒ line 2 maps to set 0)
        assert!(!r.hit);
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn writeback_address_reconstruction() {
        // Verify tag/index round trip for a larger geometry.
        let mut c = Cache::new(CacheParams {
            size_bytes: 64 << 10,
            assoc: 2,
            hit_cycles: 1,
        });
        let a = 0xdead_b000u64;
        c.access(a, true);
        // fill the set with conflicting lines to force eviction of `a`
        let sets = c.params().sets();
        let conflict1 = a + sets * LINE_BYTES;
        let conflict2 = a + 2 * sets * LINE_BYTES;
        c.access(conflict1, false);
        let r = c.access(conflict2, false);
        assert_eq!(r.writeback, Some(line_of(a)));
    }

    #[test]
    fn small_geometries_use_dense_storage() {
        let c = Cache::new(CacheParams {
            size_bytes: 16 << 20,
            assoc: 16,
            hit_cycles: 44,
        });
        assert!(
            matches!(c.store, SetStore::Dense(_)),
            "16 MB L2 stays dense"
        );
        let c = Cache::new(CacheParams {
            size_bytes: 64 << 10,
            assoc: 8,
            hit_cycles: 4,
        });
        assert!(
            matches!(c.store, SetStore::Dense(_)),
            "64 KB L1 stays dense"
        );
    }

    #[test]
    fn sparse_storage_stays_small_for_giant_caches() {
        let mut c = Cache::new(CacheParams {
            size_bytes: 4 << 30,
            assoc: 1,
            hit_cycles: 1,
        });
        assert!(
            matches!(c.store, SetStore::Sparse(_)),
            "4 GB DRAM cache goes sparse"
        );
        for i in 0..1000u64 {
            c.access(i * 4096, true);
        }
        assert!(c.resident_lines() <= 1000);
    }

    #[test]
    fn dense_and_sparse_agree_on_the_same_trace() {
        // Same geometry forced into both modes must produce identical
        // hit/miss/writeback behaviour for an adversarial mixed trace.
        let params = CacheParams {
            size_bytes: 8 << 10,
            assoc: 4,
            hit_cycles: 1,
        };
        let mut dense = Cache::new(params);
        assert!(matches!(dense.store, SetStore::Dense(_)));
        let mut sparse = Cache::new(params);
        sparse.store = SetStore::Sparse(FxHashMap::default());
        let mut x = 0x9e3779b97f4a7c15u64;
        for k in 0..20_000u64 {
            // xorshift mixing: hits, conflicts, and strided sweeps
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = match k % 3 {
                0 => (x >> 12) & 0xFFFF8,
                1 => (k * 64) & 0x3FFF,
                _ => (k * 4096) & 0xFFFFF,
            };
            let write = k % 5 == 0;
            assert_eq!(
                dense.access(addr, write),
                sparse.access(addr, write),
                "k={k}"
            );
            if k % 97 == 0 {
                assert_eq!(dense.invalidate(addr), sparse.invalidate(addr));
            }
        }
        assert_eq!(dense.stats(), sparse.stats());
        assert_eq!(dense.resident_lines(), sparse.resident_lines());
    }
}
