//! Control-flow graph utilities: successors/predecessors, reverse post-order,
//! and natural-loop-header detection (the region-formation pass places a
//! boundary at each loop header, §IV-A).

use crate::function::{BlockId, Function};
use crate::inst::Inst;

/// The successor blocks of one block: at most two, `if_true` before
/// `if_false`, a target named by both arms listed once. Held inline, so
/// computing it allocates nothing; it derefs to a slice and iterates by
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    blocks: [BlockId; 2],
    len: u8,
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.blocks[..self.len as usize]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a Successors {
    type Item = &'a BlockId;
    type IntoIter = std::slice::Iter<'a, BlockId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Successor blocks of `block` in `f`.
pub fn successors(f: &Function, block: BlockId) -> Successors {
    let (blocks, len) = match f.block(block).insts.last() {
        Some(Inst::Br { target }) => ([*target; 2], 1),
        Some(Inst::CondBr {
            if_true, if_false, ..
        }) => (
            [*if_true, *if_false],
            if if_true == if_false { 1 } else { 2 },
        ),
        _ => ([BlockId(0); 2], 0),
    };
    Successors { blocks, len }
}

/// Predecessor lists for every block, indexed by block id.
pub fn predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for (bid, _) in f.iter_blocks() {
        for s in successors(f, bid) {
            preds[s.index()].push(bid);
        }
    }
    preds
}

/// Blocks reachable from entry, in reverse post-order (defs before uses of
/// control flow; suitable for forward dataflow).
pub fn reverse_post_order(f: &Function) -> Vec<BlockId> {
    let n = f.blocks.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with explicit state: (block, next successor index).
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    visited[f.entry().index()] = true;
    while let Some((b, i)) = stack.pop() {
        let succs = successors(f, b);
        if i < succs.len() {
            stack.push((b, i + 1));
            let s = succs[i];
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
        }
    }
    post.reverse();
    post
}

/// Detect loop headers via DFS back edges: a block is a loop header if some
/// reachable edge `u -> h` has `h` on the DFS stack ("retreating" edge on a
/// reducible CFG).
///
/// This is the standard natural-loop approximation; our builder-produced CFGs
/// are reducible, where back edge == retreating edge.
///
/// # Example
/// ```
/// use cwsp_ir::prelude::*;
/// use cwsp_ir::builder::build_counted_loop;
/// use cwsp_ir::cfg::loop_headers;
///
/// let mut b = FunctionBuilder::new("f", 0);
/// let e = b.entry();
/// let (header, exit) = build_counted_loop(&mut b, e, Operand::imm(4), |_, _, _| {});
/// b.push(exit, Inst::Halt);
/// let f = b.build();
/// assert!(loop_headers(&f).contains(&header));
/// ```
pub fn loop_headers(f: &Function) -> Vec<BlockId> {
    let n = f.blocks.len();
    let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
    let mut headers = vec![false; n];
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    color[f.entry().index()] = 1;
    while let Some((b, i)) = stack.pop() {
        let succs = successors(f, b);
        if i < succs.len() {
            stack.push((b, i + 1));
            let s = succs[i];
            match color[s.index()] {
                0 => {
                    color[s.index()] = 1;
                    stack.push((s, 0));
                }
                1 => headers[s.index()] = true, // back edge
                _ => {}
            }
        } else {
            color[b.index()] = 2;
        }
    }
    headers
        .iter()
        .enumerate()
        .filter(|(_, &h)| h)
        .map(|(i, _)| BlockId(i as u32))
        .collect()
}

/// Immediate dominators via the Cooper–Harvey–Kennedy iterative algorithm.
///
/// Returns `idom[b]` for every reachable block (`idom[entry] == entry`);
/// unreachable blocks map to `None`.
pub fn immediate_dominators(f: &Function) -> Vec<Option<BlockId>> {
    let rpo = reverse_post_order(f);
    let n = f.blocks.len();
    let mut order_of = vec![usize::MAX; n];
    for (i, b) in rpo.iter().enumerate() {
        order_of[b.index()] = i;
    }
    let preds = predecessors(f);
    let mut idom: Vec<Option<BlockId>> = vec![None; n];
    idom[f.entry().index()] = Some(f.entry());

    let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| {
        while a != b {
            while order_of[a.index()] > order_of[b.index()] {
                a = idom[a.index()].expect("processed");
            }
            while order_of[b.index()] > order_of[a.index()] {
                b = idom[b.index()].expect("processed");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b.index()] {
                if idom[p.index()].is_none() {
                    continue; // unreachable or not yet processed
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b.index()] != Some(ni) {
                    idom[b.index()] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom
}

/// A precomputed dominator tree plus reverse post-order, bundling the
/// reachability/ordering queries forward analyses keep re-deriving.
///
/// # Example
/// ```
/// use cwsp_ir::prelude::*;
/// use cwsp_ir::cfg::DomTree;
///
/// let mut b = FunctionBuilder::new("f", 0);
/// let e = b.entry();
/// b.push(e, Inst::Halt);
/// let f = b.build();
/// let dom = DomTree::compute(&f);
/// assert!(dom.dominates(e, e));
/// assert_eq!(dom.rpo(), &[e]);
/// ```
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: Vec<Option<BlockId>>,
    children: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_pos: Vec<Option<usize>>,
}

impl DomTree {
    /// Build the tree for `f` (see [`immediate_dominators`]).
    pub fn compute(f: &Function) -> Self {
        let idom = immediate_dominators(f);
        let rpo = reverse_post_order(f);
        let mut rpo_pos = vec![None; f.blocks.len()];
        for (i, b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = Some(i);
        }
        let mut children = vec![Vec::new(); f.blocks.len()];
        for (i, d) in idom.iter().enumerate() {
            if let Some(d) = d {
                let b = BlockId(i as u32);
                if *d != b {
                    children[d.index()].push(b);
                }
            }
        }
        DomTree {
            idom,
            children,
            rpo,
            rpo_pos,
        }
    }

    /// Immediate dominator of `b` (`idom(entry) == entry`); `None` for
    /// unreachable blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `a` dominates `b` (reflexive). Unreachable blocks dominate
    /// nothing and are dominated only by themselves.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        dominates(&self.idom, a, b)
    }

    /// Blocks whose immediate dominator is `b` (the tree's children).
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// Reachable blocks in reverse post-order.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the reverse post-order; `None` when unreachable.
    pub fn rpo_position(&self, b: BlockId) -> Option<usize> {
        self.rpo_pos[b.index()]
    }

    /// Whether `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()].is_some()
    }
}

/// A post-dominator tree over the reversed CFG, mirroring [`DomTree`].
///
/// Functions may have several exits (`Halt`, `Ret`, or malformed blocks with
/// no successor), so the reversed graph is rooted at a *virtual exit* that
/// every exit block edges to. `ipdom` maps each block to its immediate
/// post-dominator; exit blocks (whose only post-dominator is the virtual
/// exit) and unreachable blocks map to `None`, distinguished by
/// [`PostDomTree::is_exit_reaching`].
///
/// Shared by the race detector's release-side ordering proof (an access is
/// guaranteed to be followed by a release sync iff the sync's block
/// post-dominates it) and by witness pruning.
///
/// # Example
/// ```
/// use cwsp_ir::prelude::*;
/// use cwsp_ir::cfg::PostDomTree;
///
/// let mut b = FunctionBuilder::new("f", 0);
/// let e = b.entry();
/// b.push(e, Inst::Halt);
/// let f = b.build();
/// let pdom = PostDomTree::compute(&f);
/// assert!(pdom.postdominates(e, e));
/// ```
#[derive(Debug, Clone)]
pub struct PostDomTree {
    ipdom: Vec<Option<BlockId>>,
    /// Blocks from which some exit is reachable (the virtual root's domain).
    exit_reaching: Vec<bool>,
}

impl PostDomTree {
    /// Build the post-dominator tree for `f` via Cooper–Harvey–Kennedy on
    /// the reversed CFG with a virtual exit node.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        // Exits: blocks with no successors (Halt/Ret terminators, or
        // malformed blocks that fall off the end).
        let exits: Vec<BlockId> = (0..n)
            .map(|i| BlockId(i as u32))
            .filter(|&b| successors(f, b).is_empty())
            .collect();

        // Reverse post-order of the *reversed* graph from the virtual exit,
        // i.e. a post-order-derived ordering where a block's successors (its
        // reverse-graph predecessors' sources) come first. We index the
        // virtual exit as `n`.
        let preds_fwd = predecessors(f); // reverse-graph successors
        let mut visited = vec![false; n + 1];
        let mut post: Vec<usize> = Vec::with_capacity(n + 1);
        let mut stack: Vec<(usize, usize)> = vec![(n, 0)];
        visited[n] = true;
        let rev_succs = |b: usize| -> Vec<usize> {
            if b == n {
                exits.iter().map(|e| e.index()).collect()
            } else {
                preds_fwd[b].iter().map(|p| p.index()).collect()
            }
        };
        while let Some((b, i)) = stack.pop() {
            let succs = rev_succs(b);
            if i < succs.len() {
                stack.push((b, i + 1));
                let s = succs[i];
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
            }
        }
        post.reverse(); // RPO of the reversed graph, virtual exit first

        let mut order_of = vec![usize::MAX; n + 1];
        for (i, &b) in post.iter().enumerate() {
            order_of[b] = i;
        }

        // succs_fwd are the reversed graph's predecessors.
        let succs_fwd: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut s: Vec<usize> = successors(f, BlockId(i as u32))
                    .iter()
                    .map(|b| b.index())
                    .collect();
                if exits.iter().any(|e| e.index() == i) {
                    s.push(n); // exit blocks edge to the virtual exit
                }
                s
            })
            .collect();

        let mut ipdom: Vec<Option<usize>> = vec![None; n + 1];
        ipdom[n] = Some(n);
        let intersect = |ipdom: &[Option<usize>], mut a: usize, mut b: usize| {
            while a != b {
                while order_of[a] > order_of[b] {
                    a = ipdom[a].expect("processed");
                }
                while order_of[b] > order_of[a] {
                    b = ipdom[b].expect("processed");
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in post.iter().skip(1) {
                let mut new_ipdom: Option<usize> = None;
                for &s in &succs_fwd[b] {
                    if ipdom[s].is_none() {
                        continue;
                    }
                    new_ipdom = Some(match new_ipdom {
                        None => s,
                        Some(cur) => intersect(&ipdom, cur, s),
                    });
                }
                if let Some(ni) = new_ipdom {
                    if ipdom[b] != Some(ni) {
                        ipdom[b] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        PostDomTree {
            exit_reaching: (0..n).map(|i| ipdom[i].is_some()).collect(),
            ipdom: (0..n)
                .map(|i| match ipdom[i] {
                    Some(p) if p < n => Some(BlockId(p as u32)),
                    _ => None, // virtual exit or exit-unreachable
                })
                .collect(),
        }
    }

    /// Immediate post-dominator of `b`; `None` when `b` is an exit block
    /// (its ipdom is the virtual exit) or cannot reach an exit.
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom[b.index()]
    }

    /// Whether some exit block is reachable from `b` (equivalently, whether
    /// `b` participates in the tree at all).
    pub fn is_exit_reaching(&self, b: BlockId) -> bool {
        self.exit_reaching[b.index()]
    }

    /// Whether `a` post-dominates `b` (reflexive): every path from `b` to
    /// any exit passes through `a`. Blocks that cannot reach an exit are
    /// post-dominated only by themselves.
    pub fn postdominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.ipdom[cur.index()] {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }
}

/// Whether `a` dominates `b` (per [`immediate_dominators`]).
pub fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.index()] {
            Some(d) if d != cur => cur = d,
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_counted_loop, FunctionBuilder};
    use crate::inst::Operand;

    fn loop_fn() -> (Function, BlockId, BlockId) {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let (h, x) = build_counted_loop(&mut b, e, Operand::imm(4), |_, _, _| {});
        b.push(x, Inst::Halt);
        (b.build(), h, x)
    }

    #[test]
    fn successors_and_preds() {
        let (f, header, exit) = loop_fn();
        let succs = successors(&f, header);
        assert_eq!(succs.len(), 2);
        assert!(succs.contains(&exit));
        let preds = predecessors(&f);
        // header has 2 preds: entry and latch
        assert_eq!(preds[header.index()].len(), 2);
        assert!(successors(&f, exit).is_empty());
    }

    #[test]
    fn successors_keep_arm_order_and_list_a_shared_target_once() {
        let mut b = FunctionBuilder::new("f", 1);
        let e = b.entry();
        let (x, y) = (b.block(), b.block());
        let c = b.param(0);
        let cond = |t, f| Inst::CondBr {
            cond: c.into(),
            if_true: t,
            if_false: f,
        };
        b.push(e, cond(y, x));
        b.push(x, cond(x, x));
        b.push(y, Inst::Br { target: y });
        let f = b.build();
        assert_eq!(*successors(&f, e), [y, x]);
        assert_eq!(successors(&f, e).into_iter().collect::<Vec<_>>(), [y, x]);
        assert_eq!(*successors(&f, x), [x]);
        assert_eq!(successors(&f, x).into_iter().count(), 1);
        assert_eq!(*successors(&f, y), [y]);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let (f, _, _) = loop_fn();
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo[0], f.entry());
        assert_eq!(rpo.len(), f.blocks.len(), "all blocks reachable here");
        // each block appears once
        let mut sorted: Vec<_> = rpo.iter().map(|b| b.index()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), rpo.len());
    }

    #[test]
    fn loop_header_detected() {
        let (f, header, _) = loop_fn();
        assert_eq!(loop_headers(&f), vec![header]);
    }

    #[test]
    fn straight_line_has_no_headers() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        b.push(e, Inst::Halt);
        let f = b.build();
        assert!(loop_headers(&f).is_empty());
    }

    #[test]
    fn dominators_of_diamond() {
        // entry -> a | b -> join
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let a = bld.block();
        let b2 = bld.block();
        let join = bld.block();
        let c = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: a,
                if_false: b2,
            },
        );
        bld.push(a, Inst::Br { target: join });
        bld.push(b2, Inst::Br { target: join });
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let idom = immediate_dominators(&f);
        assert_eq!(idom[e.index()], Some(e));
        assert_eq!(idom[a.index()], Some(e));
        assert_eq!(idom[b2.index()], Some(e));
        assert_eq!(
            idom[join.index()],
            Some(e),
            "join's idom is the branch, not an arm"
        );
        assert!(dominates(&idom, e, join));
        assert!(!dominates(&idom, a, join));
        assert!(dominates(&idom, join, join));
    }

    #[test]
    fn dominators_of_loop() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let (header, exit) = build_counted_loop(&mut bld, e, Operand::imm(3), |_, _, _| {});
        bld.push(exit, Inst::Halt);
        let f = bld.build();
        let idom = immediate_dominators(&f);
        assert_eq!(idom[header.index()], Some(e));
        assert!(dominates(&idom, header, exit));
        assert!(dominates(&idom, e, header));
        // the body is dominated by the header
        let body = cfg_body_of(&f, header);
        assert!(dominates(&idom, header, body));
    }

    fn cfg_body_of(f: &Function, header: BlockId) -> BlockId {
        successors(f, header)[0]
    }

    #[test]
    fn dom_tree_on_diamond_exposes_children_and_rpo() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let a = bld.block();
        let b2 = bld.block();
        let join = bld.block();
        let c = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: a,
                if_false: b2,
            },
        );
        bld.push(a, Inst::Br { target: join });
        bld.push(b2, Inst::Br { target: join });
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let dom = DomTree::compute(&f);
        // Entry immediately dominates all three other blocks.
        let mut kids = dom.children(e).to_vec();
        kids.sort();
        assert_eq!(kids, vec![a, b2, join]);
        assert!(dom.children(a).is_empty());
        assert_eq!(dom.idom(join), Some(e));
        assert!(dom.dominates(e, join));
        assert!(!dom.dominates(a, join));
        // RPO: entry first, join after both arms.
        assert_eq!(dom.rpo_position(e), Some(0));
        assert!(dom.rpo_position(join) > dom.rpo_position(a).max(dom.rpo_position(b2)));
        assert!(dom.is_reachable(join));
    }

    #[test]
    fn dom_tree_on_irreducible_cfg() {
        // entry -> {a, b}; a -> b; b -> a. The cycle has two entry points,
        // so neither a nor b dominates the other; both have idom == entry.
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let a = bld.block();
        let b2 = bld.block();
        let c = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: a,
                if_false: b2,
            },
        );
        bld.push(a, Inst::Br { target: b2 });
        bld.push(b2, Inst::Br { target: a });
        let f = bld.build();
        assert!(f.validate().is_ok());
        let dom = DomTree::compute(&f);
        assert_eq!(dom.idom(a), Some(e));
        assert_eq!(dom.idom(b2), Some(e));
        assert!(!dom.dominates(a, b2));
        assert!(!dom.dominates(b2, a));
        assert!(dom.dominates(e, a) && dom.dominates(e, b2));
        let mut kids = dom.children(e).to_vec();
        kids.sort();
        assert_eq!(kids, vec![a, b2]);
    }

    #[test]
    fn dom_tree_marks_unreachable_blocks() {
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let dead = bld.block();
        bld.push(e, Inst::Halt);
        bld.push(dead, Inst::Halt);
        let f = bld.build();
        let dom = DomTree::compute(&f);
        assert!(!dom.is_reachable(dead));
        assert_eq!(dom.idom(dead), None);
        assert_eq!(dom.rpo_position(dead), None);
        assert_eq!(dom.rpo(), &[e]);
        assert!(
            !dom.dominates(e, dead),
            "unreachable blocks are dominated only by themselves"
        );
    }

    #[test]
    fn postdominators_of_diamond() {
        // entry -> a | b -> join: the join post-dominates everything; the
        // arms post-dominate nothing but themselves.
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let a = bld.block();
        let b2 = bld.block();
        let join = bld.block();
        let c = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: a,
                if_false: b2,
            },
        );
        bld.push(a, Inst::Br { target: join });
        bld.push(b2, Inst::Br { target: join });
        bld.push(join, Inst::Halt);
        let f = bld.build();
        let pdom = PostDomTree::compute(&f);
        assert_eq!(pdom.ipdom(e), Some(join), "join, not an arm, is e's ipdom");
        assert_eq!(pdom.ipdom(a), Some(join));
        assert_eq!(pdom.ipdom(b2), Some(join));
        assert_eq!(pdom.ipdom(join), None, "exit block's ipdom is virtual");
        assert!(pdom.postdominates(join, e));
        assert!(pdom.postdominates(join, a));
        assert!(!pdom.postdominates(a, e));
        assert!(pdom.postdominates(e, e));
        assert!(pdom.is_exit_reaching(e));
    }

    #[test]
    fn postdominators_of_loop() {
        let (f, header, exit) = loop_fn();
        let pdom = PostDomTree::compute(&f);
        // Every path out of the body goes back through the header and then
        // the exit: both post-dominate the body.
        let body = cfg_body_of(&f, header);
        assert!(pdom.postdominates(header, body));
        assert!(pdom.postdominates(exit, body));
        assert!(pdom.postdominates(exit, f.entry()));
        assert!(!pdom.postdominates(body, header), "body may be skipped");
    }

    #[test]
    fn postdominators_with_two_exits() {
        // entry -> halt_a | halt_b: neither exit post-dominates the other,
        // and nothing but entry itself post-dominates entry.
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let xa = bld.block();
        let xb = bld.block();
        let c = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: xa,
                if_false: xb,
            },
        );
        bld.push(xa, Inst::Halt);
        bld.push(xb, Inst::Halt);
        let f = bld.build();
        let pdom = PostDomTree::compute(&f);
        assert_eq!(pdom.ipdom(e), None, "e's ipdom is the virtual exit");
        assert!(!pdom.postdominates(xa, e));
        assert!(!pdom.postdominates(xb, e));
        assert!(pdom.postdominates(e, e));
        assert!(pdom.is_exit_reaching(e));
    }

    #[test]
    fn postdom_tree_on_irreducible_cfg() {
        // entry -> {a, b}; a -> b; b -> a | exit. The a<->b cycle has two
        // entries; only the exit-side block post-dominates the other.
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let a = bld.block();
        let b2 = bld.block();
        let exit = bld.block();
        let c = bld.vreg();
        bld.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: a,
                if_false: b2,
            },
        );
        bld.push(a, Inst::Br { target: b2 });
        bld.push(
            b2,
            Inst::CondBr {
                cond: c.into(),
                if_true: a,
                if_false: exit,
            },
        );
        bld.push(exit, Inst::Halt);
        let f = bld.build();
        assert!(f.validate().is_ok());
        let pdom = PostDomTree::compute(&f);
        assert!(pdom.postdominates(b2, a), "a's only way out is through b2");
        assert!(pdom.postdominates(b2, e));
        assert!(!pdom.postdominates(a, b2), "b2 can exit without a");
        assert!(pdom.postdominates(exit, e));
        assert_eq!(pdom.ipdom(exit), None);
    }

    #[test]
    fn postdom_marks_exit_unreachable_blocks() {
        // entry -> spin; spin -> spin: the infinite loop never reaches an
        // exit, so it is post-dominated only by itself.
        let mut bld = FunctionBuilder::new("f", 0);
        let e = bld.entry();
        let spin = bld.block();
        bld.push(e, Inst::Br { target: spin });
        bld.push(spin, Inst::Br { target: spin });
        let f = bld.build();
        let pdom = PostDomTree::compute(&f);
        assert!(!pdom.is_exit_reaching(spin));
        assert!(!pdom.is_exit_reaching(e), "entry only leads into the loop");
        assert_eq!(pdom.ipdom(spin), None);
        assert!(pdom.postdominates(spin, spin));
        assert!(!pdom.postdominates(spin, e));
    }

    #[test]
    fn nested_loops_both_detected() {
        // Hand-built CFG:
        //   entry -> outer_h; outer_h -> inner_h | exit;
        //   inner_h -> inner_body | outer_latch; inner_body -> inner_h;
        //   outer_latch -> outer_h; exit: halt
        use crate::inst::BinOp;
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let outer_h = b.block();
        let inner_h = b.block();
        let inner_body = b.block();
        let outer_latch = b.block();
        let exit = b.block();
        let i = b.vreg();
        let j = b.vreg();
        b.push(
            e,
            Inst::Mov {
                dst: i,
                src: Operand::imm(0),
            },
        );
        b.push(e, Inst::Br { target: outer_h });
        let c1 = b.bin(outer_h, BinOp::CmpLtU, i.into(), Operand::imm(3));
        b.push(
            outer_h,
            Inst::CondBr {
                cond: c1.into(),
                if_true: inner_h,
                if_false: exit,
            },
        );
        let c2 = b.bin(inner_h, BinOp::CmpLtU, j.into(), Operand::imm(2));
        b.push(
            inner_h,
            Inst::CondBr {
                cond: c2.into(),
                if_true: inner_body,
                if_false: outer_latch,
            },
        );
        b.push(
            inner_body,
            Inst::Binary {
                op: BinOp::Add,
                dst: j,
                lhs: j.into(),
                rhs: Operand::imm(1),
            },
        );
        b.push(inner_body, Inst::Br { target: inner_h });
        b.push(
            outer_latch,
            Inst::Binary {
                op: BinOp::Add,
                dst: i,
                lhs: i.into(),
                rhs: Operand::imm(1),
            },
        );
        b.push(outer_latch, Inst::Br { target: outer_h });
        b.push(exit, Inst::Halt);
        let f = b.build();
        assert!(f.validate().is_ok(), "{:?}", f.validate());
        let headers = loop_headers(&f);
        assert!(headers.contains(&outer_h));
        assert!(headers.contains(&inner_h));
        assert_eq!(headers.len(), 2);
    }
}
