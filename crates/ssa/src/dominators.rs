//! Dominator computation (Cooper–Harvey–Kennedy iterative algorithm).

use crate::csr;
use ipcp_ir::cfg::{BlockId, Cfg};

/// The dominator tree of a CFG's reachable blocks.
///
/// Built by [`DomTree::build`]. Unreachable blocks have no entry in the
/// tree ([`DomTree::idom`] returns `None`, [`DomTree::is_reachable`] is
/// false).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomTree {
    /// Immediate dominator per block; the entry maps to itself.
    idom: Vec<Option<BlockId>>,
    /// Children in the dominator tree, as one flat array:
    /// `children[child_offsets[b]..child_offsets[b + 1]]` are `b`'s.
    child_offsets: Vec<u32>,
    children: Vec<BlockId>,
    /// Reverse postorder of reachable blocks (the iteration order used).
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (usize::MAX for unreachable).
    rpo_pos: Vec<usize>,
    entry: BlockId,
}

/// Reusable working memory for [`DomTree::build_in`] and
/// [`frontiers_in`], so building many procedures' trees allocates only
/// the trees themselves.
#[derive(Debug, Default)]
pub(crate) struct DomScratch {
    /// Predecessor lists of the last CFG built, flat: the predecessors of
    /// `b` are `preds[pred_offsets[b]..pred_offsets[b + 1]]`, in block
    /// order of the predecessor (with multiplicity).
    pred_offsets: Vec<u32>,
    preds: Vec<BlockId>,
    seen: Vec<bool>,
    stack: Vec<(BlockId, usize)>,
    order: Vec<BlockId>,
    pairs: Vec<(BlockId, BlockId)>,
    mark: Vec<u32>,
}

impl DomScratch {
    /// Records the predecessors of every block of `cfg`, reachable or
    /// not, in block order (with multiplicity).
    fn fill_preds(&mut self, cfg: &Cfg) {
        self.pairs.clear();
        for (i, blk) in cfg.blocks.iter().enumerate() {
            for s in blk.term.successor_iter() {
                self.pairs.push((s, BlockId::from(i)));
            }
        }
        let (offsets, preds) = (&mut self.pred_offsets, &mut self.preds);
        csr::group(
            &self.pairs,
            cfg.len(),
            |p| p.0.index(),
            |p| p.1,
            offsets,
            preds,
        );
    }
}

fn as_u32(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(n) => n,
        Err(_) => unreachable!("CFG larger than u32 blocks"),
    }
}

impl DomTree {
    /// Computes dominators with the Cooper–Harvey–Kennedy "engineered"
    /// iterative algorithm: intersect predecessors' doms in reverse
    /// postorder until a fixpoint.
    pub fn build(cfg: &Cfg) -> DomTree {
        DomTree::build_in(cfg, &mut DomScratch::default())
    }

    /// [`DomTree::build`] with caller-owned working memory; afterwards
    /// `scratch` holds `cfg`'s predecessor lists.
    pub(crate) fn build_in(cfg: &Cfg, scratch: &mut DomScratch) -> DomTree {
        let n = cfg.len();
        let DomScratch {
            seen, stack, order, ..
        } = scratch;
        cfg.reverse_postorder_into(seen, stack, order);
        let rpo = order.clone();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }

        scratch.fill_preds(cfg);
        let (pred_offsets, preds) = (&scratch.pred_offsets, &scratch.preds);

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[cfg.entry.index()] = Some(cfg.entry);

        let intersect =
            |idom: &[Option<BlockId>], rpo_pos: &[usize], mut a: BlockId, mut b: BlockId| {
                while a != b {
                    while rpo_pos[a.index()] > rpo_pos[b.index()] {
                        match idom[a.index()] {
                            Some(d) => a = d,
                            None => unreachable!("processed block has idom"),
                        }
                    }
                    while rpo_pos[b.index()] > rpo_pos[a.index()] {
                        match idom[b.index()] {
                            Some(d) => b = d,
                            None => unreachable!("processed block has idom"),
                        }
                    }
                }
                a
            };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in csr::row(pred_offsets, preds, b.index()) {
                    if idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_pos, cur, p),
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

        // Children in reverse-postorder order, grouped by parent.
        let pairs = &mut scratch.pairs;
        pairs.clear();
        for &b in rpo.iter().skip(1) {
            if let Some(d) = idom[b.index()] {
                pairs.push((d, b));
            }
        }
        let (mut child_offsets, mut children) = (Vec::new(), Vec::new());
        csr::group(
            pairs,
            n,
            |p| p.0.index(),
            |p| p.1,
            &mut child_offsets,
            &mut children,
        );

        DomTree {
            idom,
            child_offsets,
            children,
            rpo,
            rpo_pos,
            entry: cfg.entry,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            None
        } else {
            self.idom[b.index()]
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }

    /// Whether `a` dominates `b` (reflexive). False if either block is
    /// unreachable.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            // Reachable blocks have an idom chain ending at the entry.
            match self.idom[cur.index()] {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// Children of `b` in the dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        csr::row(&self.child_offsets, &self.children, b.index())
    }

    /// Reverse postorder of the reachable blocks.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Number of blocks the tree covers, reachable or not.
    pub(crate) fn len(&self) -> usize {
        self.idom.len()
    }

    /// Preorder walk of the dominator tree (parents before children) —
    /// the visit order used by SSA renaming.
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(self.rpo.len());
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            out.push(b);
            // Reverse so children are visited in insertion order.
            stack.extend(self.children(b).iter().rev());
        }
        out
    }
}

/// Computes dominance frontiers per Cytron et al.: `b ∈ DF(a)` iff `a`
/// dominates a predecessor of `b` but does not strictly dominate `b`.
pub fn dominance_frontiers(cfg: &Cfg, dom: &DomTree) -> Vec<Vec<BlockId>> {
    let mut scratch = DomScratch::default();
    scratch.fill_preds(cfg);
    let (mut offsets, mut flat) = (Vec::new(), Vec::new());
    frontiers_in(dom, &mut scratch, &mut offsets, &mut flat);
    (0..cfg.len())
        .map(|b| csr::row(&offsets, &flat, b).to_vec())
        .collect()
}

/// Dominance frontiers into a flat table: `DF(a)` is
/// `flat[offsets[a]..offsets[a + 1]]`, in ascending block order. The
/// predecessor lists come from `scratch`, as [`DomTree::build_in`] left
/// them for the CFG `dom` was built from.
pub(crate) fn frontiers_in(
    dom: &DomTree,
    scratch: &mut DomScratch,
    offsets: &mut Vec<u32>,
    flat: &mut Vec<BlockId>,
) {
    let n = dom.len();
    let DomScratch {
        pred_offsets,
        preds,
        pairs,
        mark,
        ..
    } = scratch;
    // (runner, b) pairs in ascending `b`, each pair once: `mark[runner]`
    // remembers the last `b` it was paired with.
    pairs.clear();
    mark.clear();
    mark.resize(n, u32::MAX);
    for b in 0..n {
        let bid = BlockId::from(b);
        if !dom.is_reachable(bid) {
            continue;
        }
        let idom_b = dom.idom(bid);
        for &p in csr::row(pred_offsets, preds, b) {
            if !dom.is_reachable(p) {
                continue;
            }
            let mut runner = p;
            while Some(runner) != idom_b {
                if mark[runner.index()] != as_u32(b) {
                    mark[runner.index()] = as_u32(b);
                    pairs.push((runner, bid));
                }
                match dom.idom(runner) {
                    Some(next) => runner = next,
                    None => break, // reached the entry
                }
            }
        }
    }
    // A stable grouping by runner keeps each frontier ascending.
    csr::group(pairs, n, |p| p.0.index(), |p| p.1, offsets, flat);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn entry_cfg(src: &str) -> Cfg {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        m.cfg(m.module.entry).clone()
    }

    /// O(n²) reference: iterative set-based dominators.
    fn naive_dominators(cfg: &Cfg) -> Vec<Option<Vec<BlockId>>> {
        let n = cfg.len();
        let reach = cfg.reachable();
        let all: Vec<BlockId> = (0..n)
            .map(BlockId::from)
            .filter(|b| reach[b.index()])
            .collect();
        let mut doms: Vec<Option<Vec<BlockId>>> = vec![None; n];
        for &b in &all {
            doms[b.index()] = Some(if b == cfg.entry { vec![b] } else { all.clone() });
        }
        let preds = cfg.predecessors();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &all {
                if b == cfg.entry {
                    continue;
                }
                let mut inter: Option<Vec<BlockId>> = None;
                for &p in &preds[b.index()] {
                    if let Some(pd) = &doms[p.index()] {
                        inter = Some(match inter {
                            None => pd.clone(),
                            Some(cur) => cur.into_iter().filter(|x| pd.contains(x)).collect(),
                        });
                    }
                }
                let mut next = inter.unwrap_or_default();
                if !next.contains(&b) {
                    next.push(b);
                }
                next.sort();
                let cur = doms[b.index()].as_mut().expect("reachable");
                cur.sort();
                if *cur != next {
                    *cur = next;
                    changed = true;
                }
            }
        }
        doms
    }

    fn check_against_naive(src: &str) {
        let cfg = entry_cfg(src);
        let dom = DomTree::build(&cfg);
        let naive = naive_dominators(&cfg);
        for a in 0..cfg.len() {
            for b in 0..cfg.len() {
                let (a, b) = (BlockId::from(a), BlockId::from(b));
                let fast = dom.dominates(a, b);
                let slow = naive[b.index()]
                    .as_ref()
                    .map(|d| d.contains(&a))
                    .unwrap_or(false);
                assert_eq!(fast, slow, "dominates({a},{b}) mismatch in:\n{src}");
            }
        }
    }

    #[test]
    fn straight_line() {
        check_against_naive("proc main() { x = 1; print x; }");
    }

    #[test]
    fn diamond() {
        check_against_naive(
            "proc main() { read x; if (x) { print 1; } else { print 2; } print 3; }",
        );
    }

    #[test]
    fn loops_and_nesting() {
        check_against_naive(
            "proc main() { read n; do i = 1, n { do j = 1, i { print j; } } while (n > 0) { n = n - 1; } }",
        );
    }

    #[test]
    fn early_return_creates_unreachable() {
        check_against_naive("proc main() { return; print 1; }");
    }

    #[test]
    fn nested_ifs_in_loop() {
        check_against_naive(
            "proc main() { read n; while (n > 0) { if (n % 2 == 0) { if (n > 10) { print 1; } } else { print 2; } n = n - 1; } }",
        );
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let cfg =
            entry_cfg("proc main() { read x; if (x) { while (x > 0) { x = x - 1; } } print x; }");
        let dom = DomTree::build(&cfg);
        for (i, r) in cfg.reachable().iter().enumerate() {
            if *r {
                assert!(dom.dominates(cfg.entry, BlockId::from(i)));
            } else {
                assert!(!dom.is_reachable(BlockId::from(i)));
            }
        }
    }

    #[test]
    fn preorder_visits_parents_first() {
        let cfg = entry_cfg(
            "proc main() { read x; if (x) { print 1; } else { print 2; } do i = 1, x { print i; } }",
        );
        let dom = DomTree::build(&cfg);
        let pre = dom.preorder();
        let pos = |b: BlockId| pre.iter().position(|&x| x == b).unwrap();
        for &b in pre.iter() {
            if let Some(d) = dom.idom(b) {
                assert!(pos(d) < pos(b));
            }
        }
        assert_eq!(pre.len(), dom.rpo().len());
    }

    #[test]
    fn frontier_of_branch_arms_is_the_join() {
        let cfg =
            entry_cfg("proc main() { read x; if (x) { print 1; } else { print 2; } print 3; }");
        let dom = DomTree::build(&cfg);
        let df = dominance_frontiers(&cfg, &dom);
        // Both arms have the join block in their frontier.
        let preds = cfg.predecessors();
        let join = (0..cfg.len())
            .map(BlockId::from)
            .find(|b| preds[b.index()].len() == 2)
            .unwrap();
        let arms: Vec<BlockId> = preds[join.index()].clone();
        for arm in arms {
            assert!(df[arm.index()].contains(&join), "DF({arm}) missing {join}");
        }
        // The entry's frontier is empty (it dominates everything).
        assert!(df[cfg.entry.index()].is_empty());
    }

    #[test]
    fn loop_header_is_in_frontier_of_latch_and_header() {
        let cfg = entry_cfg("proc main() { read n; while (n > 0) { n = n - 1; } }");
        let dom = DomTree::build(&cfg);
        let df = dominance_frontiers(&cfg, &dom);
        // The header participates in its own frontier via the back edge.
        let preds = cfg.predecessors();
        let header = (0..cfg.len())
            .map(BlockId::from)
            .find(|b| preds[b.index()].len() == 2)
            .unwrap();
        assert!(df[header.index()].contains(&header));
    }
}
