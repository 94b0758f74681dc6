//! "Complete propagation" (Table 3, column 3): alternate interprocedural
//! constant propagation and dead-code elimination to a fixpoint.
//!
//! Substituted constants can prove branches dead; removing the dead arms
//! can eliminate conflicting definitions of variables and expose more
//! constants, so after each pruning round "the propagation was performed
//! again from scratch — all of the values in CONSTANTS sets were reset to
//! ⊤". The paper found a single round of dead-code elimination sufficed on
//! its suite; [`complete_propagation`] reports the rounds it needed.

use crate::config::Config;
use crate::par::Pool;
use crate::pipeline::Analysis;
use crate::substitute::{constant_uses, Substitution};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::ProcId;
use ipcp_ssa::dce::{live_statements, prune_constant_branches};

/// Result of the iterated propagate-then-prune process.
#[derive(Debug)]
pub struct CompleteResult {
    /// The final substitution (counts + transformed program).
    pub substitution: Substitution,
    /// The final analysis.
    pub analysis: Analysis,
    /// The pruned module the final round ran on.
    pub module: ModuleCfg,
    /// Number of dead-code-elimination rounds that found something
    /// (0 = nothing was ever dead).
    pub dce_rounds: usize,
    /// Statements removed from live code across all rounds.
    pub statements_removed: usize,
    /// Substituted occurrences that lived in the conditions of branches
    /// later folded away. They were substituted before their test was
    /// deleted, so they are included in `substitution.total`.
    pub carried_substitutions: usize,
}

/// Runs propagation and dead-code elimination to a fixpoint.
///
/// Each round: analyze, substitute (seeded SCCP), fold every branch whose
/// condition is constant, and — if anything folded — restart from ⊤ on the
/// pruned program.
pub fn complete_propagation(mcfg: &ModuleCfg, config: &Config) -> CompleteResult {
    let mut module = mcfg.clone();
    let mut dce_rounds = 0usize;
    let mut statements_removed = 0usize;
    let mut carried_substitutions = 0usize;
    // Each round must remove at least one branch, and there are finitely
    // many, so this terminates; the cap is belt-and-braces.
    let max_rounds = 2 + module.cfgs.iter().map(|c| c.len()).sum::<usize>();

    for _ in 0..max_rounds {
        let analysis = Analysis::run(&module, config);
        let mut substitution = analysis.substitute(&module);

        let live_before: usize = module.cfgs.iter().map(|c| live_statements(c)).sum();
        // Each procedure's prune (SCCP verdicts → folded branches) is pure
        // given the round's analysis, so the scan runs on the worker pool;
        // the fold below applies results in procedure order, keeping the
        // counts and the pruned module identical to a sequential round.
        let (units, _pt) = Pool::new(config.effective_jobs()).run(module.cfgs.len(), |pi| {
            let sccp = substitution.sccps[pi].as_ref()?;
            let ps = analysis.symbolics[pi].as_ref()?;
            let p = ProcId::from(pi);
            let cfg = module.cfg(p);
            let pruned = prune_constant_branches(cfg, &ps.ssa, sccp)?;
            // The occurrences substituted inside the folded conditions
            // disappear with the test; remember them so the final count
            // reflects every substitution the analyzer performed.
            let mut carried = 0usize;
            for bi in 0..cfg.len() {
                let b = ipcp_ir::cfg::BlockId::from(bi);
                if sccp.folded_branch(cfg, b, &ps.ssa).is_some() {
                    carried += constant_uses(sccp, ps.ssa.term_use_vals(b));
                }
            }
            Some((pruned, carried))
        });
        let mut pruned_any = false;
        let mut next = module.clone();
        for (pi, unit) in units.into_iter().enumerate() {
            let Some((pruned, carried)) = unit else {
                continue;
            };
            carried_substitutions += carried;
            next.cfgs[pi] = std::sync::Arc::new(pruned);
            pruned_any = true;
        }

        if !pruned_any {
            substitution.total += carried_substitutions;
            return CompleteResult {
                substitution,
                analysis,
                module,
                dce_rounds,
                statements_removed,
                carried_substitutions,
            };
        }
        let live_after: usize = next.cfgs.iter().map(|c| live_statements(c)).sum();
        statements_removed += live_before.saturating_sub(live_after);
        dce_rounds += 1;
        module = next;
    }
    unreachable!("complete propagation failed to reach a fixpoint");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::interp::{exec_cfg, ExecLimits};
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn run(src: &str, config: &Config) -> (ModuleCfg, CompleteResult) {
        let mcfg = lower_module(&parse_and_resolve(src).unwrap());
        let r = complete_propagation(&mcfg, config);
        (mcfg, r)
    }

    #[test]
    fn no_dead_code_means_zero_rounds() {
        let (_, r) = run("proc main() { read x; print x; }", &Config::default());
        assert_eq!(r.dce_rounds, 0);
        assert_eq!(r.statements_removed, 0);
    }

    #[test]
    fn dead_call_site_stops_polluting_val_sets() {
        // The benefit SCCP alone cannot deliver: a call site on a dead
        // branch meets a conflicting constant into the callee's VAL set.
        // Removing the branch removes the edge from the call graph, and a
        // from-scratch propagation recovers the constant.
        let src = "global debug; \
                   proc main() { debug = 0; if (debug != 0) { call f(99); } call f(10); } \
                   proc f(a) { print a; print a * 2; }";
        let (mcfg, r) = run(src, &Config::polynomial());
        assert_eq!(r.dce_rounds, 1);
        assert!(r.statements_removed >= 1);
        let plain = Analysis::run(&mcfg, &Config::polynomial())
            .substitution_counts(&mcfg)
            .total;
        assert!(
            r.substitution.total > plain,
            "complete {} !> plain {plain}",
            r.substitution.total
        );
    }

    #[test]
    fn dead_assignment_stops_blocking_jump_functions() {
        // The jump-function generator's symbolic evaluation is not
        // path-sensitive: a dead `read t` merges ⊥ into t's value at the
        // call. Pruning the branch restores the pass-through.
        let src = "global debug; global t; \
                   proc main() { debug = 0; t = 10; if (debug != 0) { read t; } call g(t); } \
                   proc g(x) { print x; print x + 1; }";
        let (mcfg, r) = run(src, &Config::polynomial());
        assert_eq!(r.dce_rounds, 1);
        let plain = Analysis::run(&mcfg, &Config::polynomial())
            .substitution_counts(&mcfg)
            .total;
        assert!(
            r.substitution.total > plain,
            "complete {} !> plain {plain}",
            r.substitution.total
        );
    }

    #[test]
    fn complete_propagation_preserves_behaviour() {
        let src = "global mode; \
                   proc main() { mode = 1; read v; call f(v); } \
                   proc f(x) { if (mode == 1) { print x + 1; } else { print x - 1; } }";
        let (mcfg, r) = run(src, &Config::default());
        for input in [&[0][..], &[9], &[-4]] {
            let a = exec_cfg(&mcfg, input, &ExecLimits::default()).unwrap();
            let b = exec_cfg(&r.module, input, &ExecLimits::default()).unwrap();
            assert_eq!(a.output, b.output);
        }
        assert_eq!(r.dce_rounds, 1);
    }

    #[test]
    fn cascading_rounds_converge() {
        // Removing one dead branch exposes a constant that kills another.
        let src = "global a; global b; \
                   proc main() { a = 0; b = 5; call f(); } \
                   proc f() { if (a != 0) { read b; } if (b != 5) { read c; print c; } print b; }";
        let (_, r) = run(src, &Config::polynomial());
        assert!(r.dce_rounds >= 1);
        assert!(r.substitution.total >= 1);
    }

    #[test]
    fn complete_never_finds_fewer_than_plain() {
        for src in [
            "proc main() { read x; if (x) { print 1; } }",
            "global k; proc main() { k = 3; call f(); } proc f() { if (k == 3) { print k; } else { print 0 - k; } }",
            "proc main() { n = 4; do i = 1, n { print i; } }",
        ] {
            let mcfg = lower_module(&parse_and_resolve(src).unwrap());
            let plain = Analysis::run(&mcfg, &Config::polynomial())
                .substitution_counts(&mcfg)
                .total;
            let complete = complete_propagation(&mcfg, &Config::polynomial())
                .substitution
                .total;
            assert!(complete >= plain, "{src}: {complete} < {plain}");
        }
    }
}
