//! Reaching-definitions analysis.
//!
//! The checkpoint pruner (§IV-C) needs to know, for each region boundary and
//! each live-in register, *which definitions* can supply the register's value
//! there. A boundary whose live-in has a single constant-foldable reaching
//! definition can rematerialize the value in its recovery slice instead of
//! loading the checkpoint slot — and checkpoints that no boundary loads can
//! be pruned.
//!
//! Definition sites are numbered densely and grouped by register: register
//! `r` owns the id range `reg_start[r]..reg_start[r + 1]`, whose first id is
//! its [`DefSite::Entry`] site and whose rest are its definitions in
//! (block, instruction) order. A set of reaching sites is then one `u64`
//! bit-vector per block, killing `r` clears one bit range, and "the last
//! definition of `r` before instruction `i` of block `b`" is a binary search
//! in `r`'s range.

use crate::liveness::defs;
use cwsp_ir::cfg;
use cwsp_ir::function::{BlockId, Function};
use cwsp_ir::types::Reg;

/// A definition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DefSite {
    /// The implicit definition at function entry (parameters and the
    /// zero-initialized state of never-written registers).
    Entry,
    /// Instruction `idx` of `block`.
    Inst(BlockId, usize),
}

/// Dense id of one `(DefSite, register)` pair of a function; see
/// [`ReachingDefs`].
pub type SiteId = u32;

/// Reaching definitions for one function.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// Location of each site id.
    sites: Vec<DefSite>,
    /// Register `r`'s sites are `reg_start[r]..reg_start[r + 1]`.
    reg_start: Vec<SiteId>,
    /// `u64` words per bit-vector.
    words: usize,
    /// `reach_in[b * words..][..words]` = sites reaching the entry of `b`.
    reach_in: Vec<u64>,
}

/// The sites of one register reaching one program point, sorted by id.
#[derive(Debug, Clone, Copy)]
pub enum Reaching<'a> {
    /// Exactly one site: a definition earlier in the same block, or the
    /// entry site where no block-level information exists (unreachable
    /// blocks).
    One(SiteId),
    /// The ids in `lo..hi` whose bit is set in `bits`.
    Block {
        /// The block's `reach_in` vector.
        bits: &'a [u64],
        /// First id of the register's range.
        lo: SiteId,
        /// One past its last id.
        hi: SiteId,
    },
}

impl Reaching<'_> {
    /// The site ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = SiteId> + '_ {
        let (one, range) = match *self {
            Reaching::One(s) => (Some(s), None),
            Reaching::Block { bits, lo, hi } => (None, Some(set_bits(bits, lo, hi))),
        };
        one.into_iter().chain(range.into_iter().flatten())
    }

    /// The site, when exactly one reaches.
    pub fn single(&self) -> Option<SiteId> {
        let mut it = self.iter();
        let first = it.next()?;
        it.next().is_none().then_some(first)
    }
}

impl PartialEq for Reaching<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The bits of word `w` that fall in ids `lo..hi`.
fn word_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let base = w * 64;
    let mut m = !0u64;
    if base < lo {
        m &= !0u64 << (lo - base);
    }
    if base + 64 > hi {
        m &= !0u64 >> (base + 64 - hi);
    }
    m
}

/// The words of `bits` covering ids `lo..hi`, masked to that range.
fn range_words(bits: &[u64], lo: SiteId, hi: SiteId) -> impl Iterator<Item = u64> + '_ {
    let (lo, hi) = (lo as usize, hi as usize);
    (lo / 64..hi.div_ceil(64)).map(move |w| bits[w] & word_mask(w, lo, hi))
}

/// The set ids in `lo..hi`, ascending.
fn set_bits(bits: &[u64], lo: SiteId, hi: SiteId) -> impl Iterator<Item = SiteId> + '_ {
    let wlo = lo / 64;
    range_words(bits, lo, hi)
        .enumerate()
        .flat_map(move |(k, w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    (wlo + k as u32) * 64 + b
                })
            })
        })
}

/// Clear ids `lo..hi` of `bits`.
fn clear_range(bits: &mut [u64], lo: SiteId, hi: SiteId) {
    let (lo, hi) = (lo as usize, hi as usize);
    let words = bits.iter_mut().enumerate();
    for (w, word) in words.take(hi.div_ceil(64)).skip(lo / 64) {
        *word &= !word_mask(w, lo, hi);
    }
}

impl ReachingDefs {
    /// Compute reaching definitions: number the sites, summarize each block
    /// as its last definition of every register it writes, then run the
    /// forward bit-vector fixpoint over the blocks reachable from entry.
    pub fn compute(f: &Function) -> Self {
        let nregs = f.reg_count as usize;
        let nblocks = f.blocks.len();
        // Number sites per register: count, prefix-sum, fill in block order.
        let mut reg_start: Vec<SiteId> = vec![1; nregs + 1];
        for block in &f.blocks {
            for inst in &block.insts {
                for d in defs(inst) {
                    reg_start[d.index()] += 1;
                }
            }
        }
        let mut next = 0;
        for n in &mut reg_start {
            (*n, next) = (next, next + *n);
        }
        let mut sites = vec![DefSite::Entry; reg_start[nregs] as usize];
        let mut fill: Vec<SiteId> = reg_start[..nregs].iter().map(|s| s + 1).collect();
        // Per block, the last site of each register it defines:
        // `block_defs[block_start[b]..block_start[b + 1]]`.
        let mut block_defs: Vec<(Reg, SiteId)> = Vec::new();
        let mut block_start: Vec<usize> = Vec::with_capacity(nblocks + 1);
        // Register → (block, index in `block_defs`) of its latest entry.
        let mut latest: Vec<(u32, usize)> = vec![(u32::MAX, 0); nregs];
        for (bid, block) in f.iter_blocks() {
            block_start.push(block_defs.len());
            for (i, inst) in block.insts.iter().enumerate() {
                for d in defs(inst) {
                    let id = fill[d.index()];
                    fill[d.index()] += 1;
                    sites[id as usize] = DefSite::Inst(bid, i);
                    match &mut latest[d.index()] {
                        (b, k) if *b == bid.0 => block_defs[*k].1 = id,
                        l => {
                            *l = (bid.0, block_defs.len());
                            block_defs.push((d, id));
                        }
                    }
                }
            }
        }
        block_start.push(block_defs.len());

        let words = (reg_start[nregs] as usize).div_ceil(64);
        let mut reach_in = vec![0u64; nblocks * words];
        for &s in &reg_start[..nregs] {
            reach_in[f.entry().index() * words + s as usize / 64] |= 1 << (s % 64);
        }
        let rpo = cfg::reverse_post_order(f);
        let succs: Vec<cfg::Successors> = rpo.iter().map(|&b| cfg::successors(f, b)).collect();
        let mut out = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for (&b, succ) in rpo.iter().zip(&succs) {
                // out = (in - killed) + last defs
                out.copy_from_slice(&reach_in[b.index() * words..][..words]);
                for &(r, site) in &block_defs[block_start[b.index()]..block_start[b.index() + 1]] {
                    clear_range(&mut out, reg_start[r.index()], reg_start[r.index() + 1]);
                    out[site as usize / 64] |= 1 << (site % 64);
                }
                for s in succ {
                    for (a, o) in reach_in[s.index() * words..][..words].iter_mut().zip(&out) {
                        changed |= *o & !*a != 0;
                        *a |= o;
                    }
                }
            }
        }
        ReachingDefs {
            sites,
            reg_start,
            words,
            reach_in,
        }
    }

    /// Number of site ids (the size of a dense set over them).
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Where site `id` is.
    pub fn site(&self, id: SiteId) -> DefSite {
        self.sites[id as usize]
    }

    /// The entry site of `r`.
    pub fn entry_site(&self, r: Reg) -> SiteId {
        self.reg_start[r.index()]
    }

    /// The last definition of `r` strictly before instruction `idx` of block
    /// `b`, if the block has one.
    pub fn local_def(&self, b: BlockId, idx: usize, r: Reg) -> Option<SiteId> {
        let (lo, hi) = (self.reg_start[r.index()], self.reg_start[r.index() + 1]);
        let range = &self.sites[lo as usize..hi as usize];
        let p = range.partition_point(|&s| s < DefSite::Inst(b, idx));
        match range[..p].last() {
            Some(DefSite::Inst(db, _)) if *db == b => Some(lo + p as SiteId - 1),
            _ => None,
        }
    }

    /// Definition sites of `r` reaching the point immediately before
    /// instruction `idx` of block `b`. Allocation-free: a binary search for
    /// a definition earlier in the block, else a view of the block's entry
    /// set.
    pub fn at(&self, b: BlockId, idx: usize, r: Reg) -> Reaching<'_> {
        if let Some(s) = self.local_def(b, idx, r) {
            return Reaching::One(s);
        }
        let (lo, hi) = (self.reg_start[r.index()], self.reg_start[r.index() + 1]);
        let bits = &self.reach_in[b.index() * self.words..][..self.words];
        if range_words(bits, lo, hi).all(|w| w == 0) {
            // Conservatively: uninitialized register (entry zero state).
            return Reaching::One(lo);
        }
        Reaching::Block { bits, lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{BinOp, Inst, Operand};

    fn locs(rd: &ReachingDefs, b: BlockId, idx: usize, r: Reg) -> Vec<DefSite> {
        rd.at(b, idx, r).iter().map(|s| rd.site(s)).collect()
    }

    #[test]
    fn straight_line_single_def() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r = b.mov(e, Operand::imm(1)); // def at (e, 0)
        let _u = b.bin(e, BinOp::Add, r.into(), Operand::imm(1)); // (e, 1)
        b.push(e, Inst::Halt);
        let f = b.build();
        let rd = ReachingDefs::compute(&f);
        assert_eq!(locs(&rd, e, 1, r), vec![DefSite::Inst(e, 0)]);
        // Before the def, only Entry reaches.
        assert_eq!(locs(&rd, e, 0, r), vec![DefSite::Entry]);
    }

    #[test]
    fn merge_produces_two_sites() {
        // entry: condbr -> a | b; a: r=1; br join; b: r=2; br join; join: use r
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let ba = b.block();
        let bb = b.block();
        let join = b.block();
        let c = b.vreg();
        let r = b.vreg();
        b.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: ba,
                if_false: bb,
            },
        );
        b.push(
            ba,
            Inst::Mov {
                dst: r,
                src: Operand::imm(1),
            },
        );
        b.push(ba, Inst::Br { target: join });
        b.push(
            bb,
            Inst::Mov {
                dst: r,
                src: Operand::imm(2),
            },
        );
        b.push(bb, Inst::Br { target: join });
        b.push(
            join,
            Inst::Ret {
                val: Some(r.into()),
            },
        );
        let f = b.build();
        let rd = ReachingDefs::compute(&f);
        let sites = rd.at(join, 0, r);
        assert_eq!(sites.iter().count(), 2, "{sites:?}");
        assert_eq!(sites.single(), None);
    }

    #[test]
    fn loop_carried_defs_merge_with_init() {
        use cwsp_ir::builder::build_counted_loop;
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let (header, exit) = build_counted_loop(&mut b, e, Operand::imm(3), |_, _, _| {});
        b.push(exit, Inst::Halt);
        let f = b.build();
        let rd = ReachingDefs::compute(&f);
        // the induction variable has two reaching defs at the header: the
        // init mov and the latch increment.
        let i = Reg(0);
        let sites = rd.at(header, 0, i);
        assert_eq!(sites.iter().count(), 2, "{sites:?}");
    }

    #[test]
    fn kill_within_block() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let r = b.vreg();
        b.push(
            e,
            Inst::Mov {
                dst: r,
                src: Operand::imm(1),
            },
        );
        b.push(
            e,
            Inst::Mov {
                dst: r,
                src: Operand::imm(2),
            },
        );
        b.push(
            e,
            Inst::Ret {
                val: Some(r.into()),
            },
        );
        let f = b.build();
        let rd = ReachingDefs::compute(&f);
        assert_eq!(
            locs(&rd, e, 2, r),
            vec![DefSite::Inst(e, 1)],
            "second def kills first"
        );
    }
}
