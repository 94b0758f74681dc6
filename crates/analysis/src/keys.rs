//! Content-hash summary keys for incremental re-analysis.
//!
//! The serve layer caches per-procedure summaries (MOD/REF direct
//! effects, return jump functions, symbolic forms) across requests. A
//! cache entry is reusable exactly when *every input* to the unit of work
//! that produced it is unchanged. This module derives, from per-procedure
//! content hashes and the call graph, a key per procedure that captures
//! those inputs:
//!
//! * [`SummaryKeys::own`] — the procedure's own (normalized) text. The
//!   MOD/REF *direct effects* of a procedure depend on nothing else.
//! * [`SummaryKeys::cone`] — a Merkle hash over the procedure's whole
//!   transitive callee cone, SCC-aware: every member of a strongly
//!   connected component folds the component's combined text into its
//!   key (members read each other's in-construction tables), and each
//!   component folds in the cones of the components it calls. Return
//!   jump functions and symbolic evaluation read callee summaries, so
//!   their cache keys hash the cone.
//!
//! The consequence that makes invalidation *exact*: editing procedure
//! `p` changes `own[p]`, hence the cone of `p`'s SCC, hence — and only —
//! the cone keys of `p`, its SCC siblings, and its transitive callers.
//! Everything outside that dependent set keeps its keys and its cached
//! summaries.
//!
//! Callers are expected to also mix a whole-program *shape* fingerprint
//! (ordered procedure and global names, plus the analysis configuration)
//! into every cache key, so adding/removing/reordering procedures or
//! globals — which renumbers `ProcId`s and entry slots — can never alias
//! an entry from a differently shaped program.

use crate::callgraph::CallGraph;
use ipcp_ir::hash::Fnv128;

/// Per-procedure cache-key material. Indexed by `ProcId` index.
#[derive(Clone, Debug)]
pub struct SummaryKeys {
    /// Hash of the procedure's own normalized text.
    pub own: Vec<u128>,
    /// SCC-aware Merkle hash of the procedure's transitive callee cone
    /// (including its own text).
    pub cone: Vec<u128>,
    /// Per SCC of the call graph ([`CallGraph::sccs`] order), the Merkle
    /// hash its members' cones fold in — kept so [`update_summary_keys`]
    /// can rehash only the components an edit reaches.
    pub scc_cone: Vec<u128>,
}

/// Computes [`SummaryKeys`] from per-procedure content hashes and the
/// call graph.
///
/// `own[i]` must be the content hash of procedure `i`'s normalized text.
/// The walk follows [`CallGraph::sccs`] — Tarjan emission order, callee
/// components first — so each component's Merkle hash can fold in the
/// already-final hashes of the components it calls.
pub fn summary_keys(cg: &CallGraph, own: &[u128]) -> SummaryKeys {
    let mut scc_cone = vec![0u128; cg.sccs.len()];
    for si in 0..cg.sccs.len() {
        scc_cone[si] = scc_hash(cg, own, &scc_cone, si);
    }
    let cone = own
        .iter()
        .enumerate()
        .map(|(i, &o)| cone_hash(o, scc_cone[cg.scc_of[i]]))
        .collect();
    SummaryKeys {
        own: own.to_vec(),
        cone,
        scc_cone,
    }
}

/// [`summary_keys`] of a program whose call graph `cg` is the one `prev`
/// was derived over, where only some procedures' own hashes moved: a
/// component is rehashed only when one of its members' own hash or one of
/// its callee components' cone moved, and every other key is copied. The
/// result equals `summary_keys(cg, own)`.
pub fn update_summary_keys(prev: &SummaryKeys, cg: &CallGraph, own: &[u128]) -> SummaryKeys {
    let mut keys = SummaryKeys {
        own: own.to_vec(),
        cone: prev.cone.clone(),
        scc_cone: prev.scc_cone.clone(),
    };
    let mut moved = vec![false; cg.sccs.len()];
    for (si, members) in cg.sccs.iter().enumerate() {
        let stale = members.iter().any(|&p| {
            prev.own[p.index()] != own[p.index()]
                || cg
                    .calls_from(p)
                    .iter()
                    .any(|e| moved[cg.scc_of[e.callee.index()]])
        });
        if !stale {
            continue;
        }
        keys.scc_cone[si] = scc_hash(cg, own, &keys.scc_cone, si);
        moved[si] = keys.scc_cone[si] != prev.scc_cone[si];
        for &p in members {
            keys.cone[p.index()] = cone_hash(own[p.index()], keys.scc_cone[si]);
        }
    }
    keys
}

/// Component `si`'s Merkle hash, given the final hashes of the components
/// it calls (Tarjan emits them first).
fn scc_hash(cg: &CallGraph, own: &[u128], scc_cone: &[u128], si: usize) -> u128 {
    let members = &cg.sccs[si];
    let mut h = Fnv128::new();
    // The component's combined text, in member order: an edit to any
    // member re-keys the whole component (members are analyzed against
    // each other's fresh tables, so that is exactly right).
    for &p in members {
        h.write_u128(own[p.index()]);
    }
    // The cones of callee components, in edge order. Edge order is
    // deterministic (grouped by caller, in block order), so the fold is
    // reproducible; duplicates are harmless.
    for &p in members {
        for e in cg.calls_from(p) {
            let cs = cg.scc_of[e.callee.index()];
            if cs != si {
                h.write_u128(scc_cone[cs]);
            }
        }
    }
    h.finish()
}

fn cone_hash(own: u128, scc_cone: u128) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(own);
    h.write_u128(scc_cone);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_call_graph;
    use ipcp_ir::hash::hash_str;
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn keys_for(srcs: &[&str], whole: &str) -> SummaryKeys {
        let m = lower_module(&parse_and_resolve(whole).unwrap());
        let cg = build_call_graph(&m);
        let own: Vec<u128> = srcs.iter().map(|s| hash_str(s)).collect();
        assert_eq!(own.len(), m.module.procs.len());
        summary_keys(&cg, &own)
    }

    const MAIN: &str = "proc main() { call mid(1); }";
    const MID: &str = "proc mid(a) { call leaf(a); }";
    const LEAF: &str = "proc leaf(b) { print b; }";

    fn chain(leaf: &str) -> SummaryKeys {
        keys_for(&[MAIN, MID, leaf], &format!("{MAIN} {MID} {leaf}"))
    }

    #[test]
    fn editing_a_leaf_rekeys_exactly_its_transitive_callers() {
        let before = chain(LEAF);
        let after = chain("proc leaf(b) { print b + 1; }");
        // leaf's own hash changed; main/mid own hashes did not.
        assert_eq!(before.own[0], after.own[0]);
        assert_eq!(before.own[1], after.own[1]);
        assert_ne!(before.own[2], after.own[2]);
        // Every cone contains leaf, so every cone changed.
        for i in 0..3 {
            assert_ne!(before.cone[i], after.cone[i], "proc {i}");
        }
    }

    #[test]
    fn editing_the_root_leaves_callee_cones_alone() {
        let before = chain(LEAF);
        let edited_main = "proc main() { call mid(2); }";
        let after = keys_for(
            &[edited_main, MID, LEAF],
            &format!("{edited_main} {MID} {LEAF}"),
        );
        assert_ne!(before.cone[0], after.cone[0], "main changed");
        assert_eq!(before.cone[1], after.cone[1], "mid untouched");
        assert_eq!(before.cone[2], after.cone[2], "leaf untouched");
    }

    #[test]
    fn scc_members_share_fate() {
        let a = "proc main() { call f(3); }";
        let f = "proc f(x) { if (x) { call g(x - 1); } }";
        let g = "proc g(y) { call f(y); }";
        let h = "proc h(z) { print z; }";
        let before = keys_for(&[a, f, g, h], &format!("{a} {f} {g} {h}"));
        let g2 = "proc g(y) { call f(y - 1); }";
        let after = keys_for(&[a, f, g2, h], &format!("{a} {f} {g2} {h}"));
        // Editing g re-keys its SCC sibling f and caller main...
        assert_ne!(before.cone[0], after.cone[0], "main");
        assert_ne!(before.cone[1], after.cone[1], "f (SCC sibling)");
        assert_ne!(before.cone[2], after.cone[2], "g");
        // ...but not the unrelated h.
        assert_eq!(before.cone[3], after.cone[3], "h");
    }

    #[test]
    fn an_update_equals_a_fresh_derivation() {
        let a = "proc main() { call f(3); call h(1); }";
        let f = "proc f(x) { if (x) { call g(x - 1); } }";
        let g = "proc g(y) { call f(y); }";
        let h = "proc h(z) { print z; }";
        let m = lower_module(&parse_and_resolve(&format!("{a} {f} {g} {h}")).unwrap());
        let cg = build_call_graph(&m);
        let before: Vec<u128> = [a, f, g, h].iter().map(|s| hash_str(s)).collect();
        let prev = summary_keys(&cg, &before);
        for edited in 0..4 {
            let mut own = before.clone();
            own[edited] ^= 1;
            let fresh = summary_keys(&cg, &own);
            let updated = update_summary_keys(&prev, &cg, &own);
            assert_eq!(updated.own, fresh.own, "edit {edited}");
            assert_eq!(updated.cone, fresh.cone, "edit {edited}");
            assert_eq!(updated.scc_cone, fresh.scc_cone, "edit {edited}");
        }
    }

    #[test]
    fn cones_fold_in_own_identity() {
        // Two procedures calling the same callee must not share a cone.
        let src = "proc main() { call a(); call b(); } \
                   proc a() { call leaf(); } \
                   proc b() { call leaf(); } \
                   proc leaf() { }";
        let k = keys_for(
            &[
                "proc main() { call a(); call b(); }",
                "proc a() { call leaf(); }",
                "proc b() { call leaf(); }",
                "proc leaf() { }",
            ],
            src,
        );
        assert_ne!(k.cone[1], k.cone[2]);
    }
}
