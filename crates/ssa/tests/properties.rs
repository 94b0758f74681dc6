//! Structural properties of the SSA substrate over generated programs.

use ipcp_analysis::{build_call_graph, compute_modref};
use ipcp_ir::cfg::BlockId;
use ipcp_ir::{lower_module, parse_and_resolve};
use ipcp_ssa::dominators::{dominance_frontiers, DomTree};
use ipcp_ssa::ssa::{build_ssa, ModKills, ValueKind};
use ipcp_suite::{generate, GenConfig};

fn modules(seed: u64) -> ipcp_ir::ModuleCfg {
    let src = generate(&GenConfig::default(), seed);
    lower_module(&parse_and_resolve(&src).unwrap())
}

/// O(n²) reference dominator check.
fn naive_dominates(cfg: &ipcp_ir::cfg::Cfg, a: BlockId, b: BlockId) -> bool {
    // a dominates b iff removing a disconnects b from the entry.
    if a == b {
        return cfg.reachable()[b.index()];
    }
    let mut seen = vec![false; cfg.len()];
    let mut stack = vec![cfg.entry];
    if cfg.entry == a {
        return cfg.reachable()[b.index()];
    }
    while let Some(x) = stack.pop() {
        if x == a || std::mem::replace(&mut seen[x.index()], true) {
            continue;
        }
        stack.extend(cfg.successors(x));
    }
    cfg.reachable()[b.index()] && !seen[b.index()]
}

#[test]
fn dominators_match_reachability_definition() {
    for seed in 0u64..40 {
        let mcfg = modules(seed);
        for (_, cfg) in mcfg.iter() {
            let dom = DomTree::build(cfg);
            for a in 0..cfg.len() {
                for b in 0..cfg.len() {
                    let (a, b) = (BlockId::from(a), BlockId::from(b));
                    assert_eq!(
                        dom.dominates(a, b),
                        naive_dominates(cfg, a, b),
                        "dominates({}, {}) mismatch (seed {})",
                        a,
                        b,
                        seed
                    );
                }
            }
        }
    }
}

#[test]
fn dominance_frontier_definition_holds() {
    for seed in 0u64..40 {
        let mcfg = modules(seed);
        for (_, cfg) in mcfg.iter() {
            let dom = DomTree::build(cfg);
            let df = dominance_frontiers(cfg, &dom);
            let preds = cfg.predecessors();
            for a in 0..cfg.len() {
                let a = BlockId::from(a);
                if !dom.is_reachable(a) {
                    continue;
                }
                for b in 0..cfg.len() {
                    let b = BlockId::from(b);
                    if !dom.is_reachable(b) {
                        continue;
                    }
                    // b ∈ DF(a) ⇔ a dominates some pred of b, and a does
                    // not strictly dominate b.
                    let dominates_a_pred = preds[b.index()]
                        .iter()
                        .any(|&p| dom.is_reachable(p) && dom.dominates(a, p));
                    let strictly = a != b && dom.dominates(a, b);
                    let expected = dominates_a_pred && !strictly;
                    assert_eq!(
                        df[a.index()].contains(&b),
                        expected,
                        "DF({}) vs {} (seed {})",
                        a,
                        b,
                        seed
                    );
                }
            }
        }
    }
}

#[test]
fn ssa_phis_have_one_arg_per_reachable_pred() {
    for seed in 0u64..40 {
        let mcfg = modules(seed);
        let cg = build_call_graph(&mcfg);
        let mr = compute_modref(&mcfg, &cg);
        for (pid, cfg) in mcfg.iter() {
            let ssa = build_ssa(&mcfg, pid, &ModKills(&mr));
            let preds = cfg.predecessors();
            let reach = cfg.reachable();
            for (i, kind) in ssa.values.iter().enumerate() {
                if let ValueKind::Phi { block, .. } = kind {
                    let reachable_preds: Vec<BlockId> = preds[block.index()]
                        .iter()
                        .copied()
                        .filter(|p| reach[p.index()])
                        .collect();
                    let args = ssa.phi_args(ipcp_ssa::ValueId::from(i));
                    assert_eq!(
                        args.len(),
                        reachable_preds.len(),
                        "phi arg count (seed {})",
                        seed
                    );
                    for (pred, _) in args {
                        assert!(reachable_preds.contains(pred));
                    }
                }
            }
        }
    }
}

#[test]
fn ssa_uses_are_dominated_by_defs() {
    for seed in 0u64..40 {
        // Structural SSA invariant: for every value with operands, each
        // operand exists (indices in range) and phi blocks are reachable.
        let mcfg = modules(seed);
        let cg = build_call_graph(&mcfg);
        let mr = compute_modref(&mcfg, &cg);
        for (pid, cfg) in mcfg.iter() {
            let ssa = build_ssa(&mcfg, pid, &ModKills(&mr));
            let reach = cfg.reachable();
            for i in 0..ssa.len() {
                let v = ipcp_ssa::ValueId::from(i);
                for op in ssa.operands(v) {
                    assert!(op.index() < ssa.len());
                }
                if let ValueKind::Phi { block, .. } = ssa.value(v) {
                    assert!(reach[block.index()]);
                }
            }
        }
    }
}

/// Pruned SSA: never more phis than minimal, and the analyses agree
/// on every observable value (prints and exits).
#[test]
fn pruned_ssa_agrees_with_minimal() {
    for seed in 0u64..32 {
        use ipcp_ir::program::SlotLayout;
        use ipcp_ssa::sccp::{self, OpaqueCallsLattice, Seeds};
        use ipcp_ssa::ssa::{build_ssa_pruned, StmtInfo};
        use ipcp_ssa::symbolic::{evaluate, OpaqueCalls};

        let mcfg = modules(seed);
        let cg = build_call_graph(&mcfg);
        let mr = compute_modref(&mcfg, &cg);
        let layout = SlotLayout::new(&mcfg.module);
        for (pid, _) in mcfg.iter() {
            let minimal = build_ssa(&mcfg, pid, &ModKills(&mr));
            let pruned = build_ssa_pruned(&mcfg, pid, &ModKills(&mr));
            let phis = |s: &ipcp_ssa::SsaProc| {
                s.values
                    .iter()
                    .filter(|k| matches!(k, ValueKind::Phi { .. }))
                    .count()
            };
            assert!(phis(&pruned) <= phis(&minimal));

            // Observable agreement: printed values under SCCP and the
            // symbolic evaluator.
            let n_vars = mcfg.module.proc(pid).vars.len();
            let sm = sccp::run(&mcfg, &minimal, &Seeds::none(n_vars), &OpaqueCallsLattice);
            let sp = sccp::run(&mcfg, &pruned, &Seeds::none(n_vars), &OpaqueCallsLattice);
            let ym = evaluate(&mcfg, &minimal, &layout, &OpaqueCalls);
            let yp = evaluate(&mcfg, &pruned, &layout, &OpaqueCalls);
            for bi in 0..minimal.n_blocks() {
                let b = ipcp_ir::cfg::BlockId::from(bi);
                for (im, ip) in minimal.stmts(b).zip(pruned.stmts(b)) {
                    if let (StmtInfo::Print { value: vm, .. }, StmtInfo::Print { value: vp, .. }) =
                        (im, ip)
                    {
                        assert_eq!(
                            sm.value(vm),
                            sp.value(vp),
                            "SCCP disagreement in block {} (seed {})",
                            bi,
                            seed
                        );
                        assert_eq!(
                            ym.value(vm),
                            yp.value(vp),
                            "symbolic disagreement in block {} (seed {})",
                            bi,
                            seed
                        );
                    }
                }
            }
            // Exit snapshots (formals/globals) agree symbolically.
            for ((_, em), (_, ep)) in minimal.exits().zip(pruned.exits()) {
                for (vm, vp) in em.iter().zip(ep) {
                    match (vm, vp) {
                        (Some(a), Some(b)) => assert_eq!(
                            ym.value(*a),
                            yp.value(*b),
                            "exit disagreement (seed {})",
                            seed
                        ),
                        (None, None) => {}
                        other => panic!("exit shape mismatch: {other:?}"),
                    }
                }
            }
        }
    }
}

/// `users()` equals, slice for slice, the naive table built by pushing
/// each value onto its operands' lists in value order: same users, same
/// order, one entry per operand occurrence. The SCCP and symbolic
/// worklists push these slices, so any reordering would change the order
/// they pop values in.
fn assert_users_match_naive(mcfg: &ipcp_ir::ModuleCfg, label: &str) {
    let cg = build_call_graph(mcfg);
    let mr = compute_modref(mcfg, &cg);
    for (pid, _) in mcfg.iter() {
        let ssa = build_ssa(mcfg, pid, &ModKills(&mr));
        let mut naive: Vec<Vec<ipcp_ssa::ValueId>> = vec![Vec::new(); ssa.len()];
        for i in 0..ssa.len() {
            let v = ipcp_ssa::ValueId::from(i);
            for op in ssa.operands(v) {
                naive[op.index()].push(v);
            }
        }
        let users = ssa.users();
        assert_eq!(users.len(), ssa.len(), "{label}: {pid:?}");
        for (i, want) in naive.iter().enumerate() {
            assert_eq!(&users[i], want.as_slice(), "{label}: {pid:?} v{i}");
        }
    }
}

#[test]
fn users_table_matches_naive_operand_inversion() {
    for seed in 0u64..40 {
        assert_users_match_naive(&modules(seed), &format!("seed {seed}"));
    }
    // Repeated operands: `a + a`, a phi merging one value from both arms
    // (`x = x`), and a call whose actuals and globals repeat a value.
    let src = "global g; \
               proc main() { read a; read c; g = a; x = a + a; if (c) { x = x; } \
                             call f(x, x + 0); print x + g; } \
               proc f(p, q) { g = p + q; }";
    let mcfg = lower_module(&parse_and_resolve(src).unwrap());
    assert_users_match_naive(&mcfg, "repeated operands");

    // The hand case really has both shapes, and `a + a` lists its user
    // twice.
    let cg = build_call_graph(&mcfg);
    let mr = compute_modref(&mcfg, &cg);
    let main = mcfg.module.proc_named("main").unwrap().id;
    let ssa = build_ssa(&mcfg, main, &ModKills(&mr));
    let doubled = (0..ssa.len())
        .map(ipcp_ssa::ValueId::from)
        .find(|&v| matches!(ssa.value(v), ValueKind::Binary(_, l, r) if l == r))
        .expect("a + a");
    let ValueKind::Binary(_, a, _) = *ssa.value(doubled) else {
        unreachable!("matched above")
    };
    let users = ssa.users();
    let listed = users[a.index()].iter().filter(|&&u| u == doubled).count();
    assert_eq!(listed, 2, "users of {a:?}: {:?}", &users[a.index()]);
    assert!(
        (0..ssa.len())
            .map(|v| ssa.phi_args(ipcp_ssa::ValueId::from(v)))
            .any(|args| args.len() == 2 && args[0].1 == args[1].1),
        "expected a phi with a repeated argument"
    );
}
