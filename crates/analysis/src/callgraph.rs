//! The call multigraph `G` and its SCC condensation.

use ipcp_ir::cfg::{BlockId, CallSiteId, ModuleCfg};
use ipcp_ir::program::ProcId;
use std::fmt;

/// One call site: an edge of the call multigraph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CallEdge {
    /// The procedure containing the call.
    pub caller: ProcId,
    /// The dense call-site id within the caller.
    pub site: CallSiteId,
    /// The block the call appears in.
    pub block: BlockId,
    /// The invoked procedure.
    pub callee: ProcId,
}

/// The program call graph: one node per procedure, one edge per call site.
///
/// Built by [`build_call_graph`]. The SCC decomposition is exposed in
/// **bottom-up** order (callees before callers), which is the order in
/// which return jump functions are generated.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Every call edge, grouped by caller (all of a caller's edges are
    /// contiguous, in the order of the caller's CFG blocks — call-site ids
    /// need not ascend).
    pub edges: Vec<CallEdge>,
    edge_range: Vec<(usize, usize)>,
    callers_of: Vec<Vec<usize>>,
    /// Whether each procedure is reachable from the entry.
    pub reachable: Vec<bool>,
    /// Strongly connected components in bottom-up (reverse topological)
    /// order: if `p` calls `q` and they are in different SCCs, `q`'s SCC
    /// appears first.
    pub sccs: Vec<Vec<ProcId>>,
    /// For each procedure, the index of its SCC in [`CallGraph::sccs`].
    pub scc_of: Vec<usize>,
}

impl CallGraph {
    /// The out-edges (call sites) of procedure `p`, in block order.
    pub fn calls_from(&self, p: ProcId) -> &[CallEdge] {
        let (lo, hi) = self.edge_range[p.index()];
        &self.edges[lo..hi]
    }

    /// The in-edges of procedure `p` (call sites that invoke it).
    pub fn calls_to(&self, p: ProcId) -> impl Iterator<Item = &CallEdge> {
        self.callers_of[p.index()].iter().map(|&i| &self.edges[i])
    }

    /// Whether `p` participates in recursion (its SCC has more than one
    /// member, or it calls itself).
    pub fn is_recursive(&self, p: ProcId) -> bool {
        let scc = &self.sccs[self.scc_of[p.index()]];
        scc.len() > 1 || self.calls_from(p).iter().any(|e| e.callee == p)
    }

    /// Procedures reachable from the entry, in bottom-up SCC order.
    pub fn bottom_up(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.sccs
            .iter()
            .flatten()
            .copied()
            .filter(|p| self.reachable[p.index()])
    }

    /// Total number of call sites in the program.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }
}

impl fmt::Display for CallGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.edges {
            writeln!(f, "p{} --{}--> p{}", e.caller, e.site, e.callee)?;
        }
        Ok(())
    }
}

/// Builds the call graph of a lowered module.
///
/// ```
/// use ipcp_ir::{parse_and_resolve, lower_module};
/// use ipcp_analysis::build_call_graph;
/// let m = parse_and_resolve("proc main() { call f(); call f(); } proc f() { }")?;
/// let cg = build_call_graph(&lower_module(&m));
/// assert_eq!(cg.n_edges(), 2);
/// # Ok::<(), ipcp_ir::Diagnostics>(())
/// ```
pub fn build_call_graph(mcfg: &ModuleCfg) -> CallGraph {
    let n = mcfg.module.procs.len();
    let mut edges = Vec::new();
    let mut edge_range = Vec::with_capacity(n);
    for p in 0..n {
        let lo = edges.len();
        push_calls_from(mcfg, ProcId::from(p), &mut edges);
        edge_range.push((lo, edges.len()));
    }

    let mut callers_of = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        callers_of[e.callee.index()].push(i);
    }

    let mut reachable = vec![false; n];
    let mut stack = vec![mcfg.module.entry];
    while let Some(p) = stack.pop() {
        if std::mem::replace(&mut reachable[p.index()], true) {
            continue;
        }
        let (lo, hi) = edge_range[p.index()];
        stack.extend(edges[lo..hi].iter().map(|e| e.callee));
    }

    let (sccs, scc_of) = tarjan_sccs(n, &edge_range, &edges);

    CallGraph {
        edges,
        edge_range,
        callers_of,
        reachable,
        sccs,
        scc_of,
    }
}

/// The out-edges [`build_call_graph`] gives procedure `pid`, in block
/// order — for a caller that wants one procedure's edges without building
/// the whole graph (serve compares an edited procedure's edges with the
/// live graph's).
pub fn calls_from(mcfg: &ModuleCfg, pid: ProcId) -> Vec<CallEdge> {
    let mut edges = Vec::new();
    push_calls_from(mcfg, pid, &mut edges);
    edges
}

fn push_calls_from(mcfg: &ModuleCfg, pid: ProcId, edges: &mut Vec<CallEdge>) {
    let reach = mcfg.cfg(pid).reachable();
    mcfg.each_call_in(pid, |block, site, callee, _| {
        // Calls in unreachable blocks (code after `return`) are not
        // part of the program and would pollute MOD and VAL sets.
        if reach[block.index()] {
            edges.push(CallEdge {
                caller: pid,
                site,
                block,
                callee,
            });
        }
    });
}

/// Iterative Tarjan SCC. Emits components in reverse topological
/// (bottom-up) order — Tarjan's natural emission order.
fn tarjan_sccs(
    n: usize,
    edge_range: &[(usize, usize)],
    edges: &[CallEdge],
) -> (Vec<Vec<ProcId>>, Vec<usize>) {
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs: Vec<Vec<ProcId>> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];

    // Explicit DFS frames: (node, next edge offset).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            let (lo, hi) = edge_range[v];
            if lo + *ei < hi {
                let w = edges[lo + *ei].callee.index();
                *ei += 1;
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    // `v` is still on the stack (it was pushed when its
                    // frame opened), so the pop terminates at `w == v`.
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc_of[w] = sccs.len();
                        comp.push(ProcId::from(w));
                        if w == v {
                            break;
                        }
                    }
                    comp.reverse();
                    sccs.push(comp);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn cg(src: &str) -> (ipcp_ir::ModuleCfg, CallGraph) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let g = build_call_graph(&m);
        (m, g)
    }

    fn pid(m: &ipcp_ir::ModuleCfg, name: &str) -> ProcId {
        m.module.proc_named(name).unwrap().id
    }

    #[test]
    fn edges_follow_call_sites() {
        let (m, g) = cg("proc main() { call a(); call b(); } proc a() { call b(); } proc b() { }");
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.calls_from(pid(&m, "main")).len(), 2);
        assert_eq!(g.calls_to(pid(&m, "b")).count(), 2);
    }

    #[test]
    fn unreachable_procs_are_flagged() {
        let (m, g) = cg("proc main() { } proc dead() { call main(); }");
        assert!(g.reachable[pid(&m, "main").index()]);
        assert!(!g.reachable[pid(&m, "dead").index()]);
    }

    #[test]
    fn calls_after_return_are_not_edges() {
        let (_, g) = cg("proc main() { return; call f(); } proc f() { }");
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn bottom_up_puts_callees_first() {
        let (m, g) = cg("proc main() { call mid(); } proc mid() { call leaf(); } proc leaf() { }");
        let order: Vec<ProcId> = g.bottom_up().collect();
        let posn = |p: ProcId| order.iter().position(|&q| q == p).unwrap();
        assert!(posn(pid(&m, "leaf")) < posn(pid(&m, "mid")));
        assert!(posn(pid(&m, "mid")) < posn(pid(&m, "main")));
    }

    #[test]
    fn direct_recursion_is_detected() {
        let (m, g) = cg("proc main() { call f(); } proc f() { call f(); }");
        assert!(g.is_recursive(pid(&m, "f")));
        assert!(!g.is_recursive(pid(&m, "main")));
    }

    #[test]
    fn mutual_recursion_shares_an_scc() {
        let (m, g) = cg(
            "proc main() { call even(); } proc even() { call odd(); } proc odd() { call even(); }",
        );
        let e = pid(&m, "even");
        let o = pid(&m, "odd");
        assert_eq!(g.scc_of[e.index()], g.scc_of[o.index()]);
        assert!(g.is_recursive(e));
        assert!(g.is_recursive(o));
        assert_ne!(g.scc_of[pid(&m, "main").index()], g.scc_of[e.index()]);
    }

    #[test]
    fn multigraph_keeps_parallel_edges() {
        let (m, g) = cg("proc main() { call f(); call f(); call f(); } proc f() { }");
        assert_eq!(g.calls_from(pid(&m, "main")).len(), 3);
        let sites: Vec<usize> = g
            .calls_from(pid(&m, "main"))
            .iter()
            .map(|e| e.site.index())
            .collect();
        assert_eq!(sites, vec![0, 1, 2]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 2000-deep call chain exercises the iterative Tarjan.
        let mut src = String::from("proc main() { call p0(); }\n");
        for i in 0..2000 {
            if i < 1999 {
                src.push_str(&format!("proc p{i}() {{ call p{}(); }}\n", i + 1));
            } else {
                src.push_str(&format!("proc p{i}() {{ }}\n"));
            }
        }
        let (_, g) = cg(&src);
        assert_eq!(g.sccs.len(), 2001);
        assert_eq!(g.n_edges(), 2000);
    }
}
