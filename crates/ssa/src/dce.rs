//! Branch folding / unreachable-code elimination driven by SCCP.
//!
//! The "complete propagation" experiment (Table 3, column 3) interleaves
//! interprocedural constant propagation with dead-code elimination:
//! substituting interprocedural constants can prove branches dead, and
//! removing the dead arms can eliminate conflicting definitions, exposing
//! further constants on the next propagation round.
//!
//! [`prune_constant_branches`] performs the CFG-level transformation: every
//! branch whose condition SCCP proved constant becomes an unconditional
//! jump. Blocks that thereby become unreachable keep their storage (block
//! ids are stable) but drop out of every later analysis — the call graph,
//! MOD/REF, SSA construction and the line-count metrics all skip
//! unreachable blocks.

use crate::sccp::SccpResult;
use crate::ssa::SsaProc;
use ipcp_ir::cfg::{BlockId, Cfg, Terminator};

/// Folds every branch with an SCCP-constant condition in `cfg`.
///
/// Returns `Some(pruned)` when at least one branch folded, `None` when the
/// CFG is already fully live. The fold drops the (pure) condition
/// expression, which is safe: FT conditions have no side effects, and a
/// condition SCCP proved constant cannot trap at runtime on executable
/// paths.
pub fn prune_constant_branches(cfg: &Cfg, ssa: &SsaProc, sccp: &SccpResult) -> Option<Cfg> {
    let mut out = cfg.clone();
    let mut changed = false;
    for bi in 0..cfg.len() {
        let b = BlockId::from(bi);
        if let Some(taken) = sccp.folded_branch(cfg, b, ssa) {
            out.blocks[bi].term = Terminator::Jump(taken);
            changed = true;
        }
    }
    changed.then_some(out)
}

/// Counts the statements in reachable blocks — the "live size" metric used
/// to report how much code complete propagation removed.
pub fn live_statements(cfg: &Cfg) -> usize {
    let reach = cfg.reachable();
    cfg.blocks
        .iter()
        .enumerate()
        .filter(|(i, _)| reach[*i])
        .map(|(_, b)| b.stmts.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sccp::{run, OpaqueCallsLattice, Seeds};
    use crate::ssa::{build_ssa, ModKills};
    use ipcp_analysis::{build_call_graph, compute_modref};
    use ipcp_ir::interp::{exec_cfg, ExecLimits};
    use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};

    fn prune_main(src: &str) -> (ModuleCfg, Option<Cfg>) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let pid = m.module.entry;
        let ssa = build_ssa(&m, pid, &ModKills(&mr));
        let n_vars = m.module.proc(pid).vars.len();
        let sccp = run(&m, &ssa, &Seeds::none(n_vars), &OpaqueCallsLattice);
        let pruned = prune_constant_branches(m.cfg(pid), &ssa, &sccp);
        (m, pruned)
    }

    #[test]
    fn constant_guard_folds_to_jump() {
        let (m, pruned) =
            prune_main("proc main() { debug = 0; if (debug) { print 111; } print 1; }");
        let pruned = pruned.expect("branch should fold");
        assert!(live_statements(&pruned) < live_statements(m.cfg(m.module.entry)) + 1);
        // The 111 print is now unreachable.
        let reach = pruned.reachable();
        for (bi, blk) in pruned.blocks.iter().enumerate() {
            for s in &blk.stmts {
                if let ipcp_ir::cfg::CStmt::Print { value } = s {
                    if matches!(value, ipcp_ir::program::Expr::Const(111, _)) {
                        assert!(!reach[bi]);
                    }
                }
            }
        }
    }

    #[test]
    fn dynamic_branch_is_untouched() {
        let (_, pruned) = prune_main("proc main() { read x; if (x) { print 1; } print 2; }");
        assert!(pruned.is_none());
    }

    #[test]
    fn pruning_preserves_behaviour() {
        let src =
            "proc main() { flag = 1; if (flag) { print 10; } else { print 20; } read z; print z; }";
        let m0 = lower_module(&parse_and_resolve(src).unwrap());
        let (m, pruned) = prune_main(src);
        let pruned = pruned.expect("fold");
        let mut m2 = m.clone();
        m2.cfgs[m.module.entry.index()] = pruned.into();
        for input in [&[0][..], &[5], &[-3]] {
            let a = exec_cfg(&m0, input, &ExecLimits::default()).unwrap();
            let b = exec_cfg(&m2, input, &ExecLimits::default()).unwrap();
            assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn zero_trip_constant_loop_folds() {
        let (_, pruned) = prune_main("proc main() { do i = 5, 1 { print i; } print 9; }");
        assert!(pruned.is_some());
    }

    #[test]
    fn live_statement_count_ignores_dead_blocks() {
        let (m, pruned) =
            prune_main("proc main() { k = 0; if (k) { print 1; print 2; print 3; } print 4; }");
        let before = live_statements(m.cfg(m.module.entry));
        let after = live_statements(&pruned.unwrap());
        assert_eq!(before - after, 3);
    }
}
