//! One SSA form and symbolic evaluation per procedure, shared by both
//! jump-function stages.
//!
//! The return-jump stage builds and evaluates every procedure; for a
//! non-recursive one its callees' table entries are already final, so
//! the forward-jump stage commits that form instead of building it
//! again. This suite pins the claim differentially: every reachable
//! procedure's committed form must equal the one the forward-jump stage
//! used to build on its own — a fresh SSA build evaluated against the
//! *final* return-jump table — across the suite, a mutated corpus and
//! the 1k scale tier, at one and four workers, under every configuration
//! axis that changes the form. It also pins the reuse counter the jump
//! stage reports, for the cold pipeline and for serve's miss path.

use ipcp::retjump::RetOracle;
use ipcp::serve::{same_results, CacheTxn, Memo, SummaryCache};
use ipcp::{Analysis, AnalysisLimits, Config};
use ipcp_ir::program::ProcId;
use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};
use ipcp_ssa::ssa::{build_ssa, build_ssa_pruned, CallKills, ModKills, WorstCaseKills};
use ipcp_ssa::symbolic::{evaluate_under, CallDefEval, EvalBudget};
use ipcp_ssa::OpaqueCalls;
use ipcp_suite::mutate::swap_operator;
use ipcp_suite::{generate, generate_scale, GenConfig, Rng, ScaleSpec, PROGRAMS};

const JOB_COUNTS: [usize; 2] = [1, 4];

/// The configuration axes that change a procedure's form (or whether
/// the stages can share it).
fn configs() -> Vec<(&'static str, Config)> {
    let b = Config::builder;
    vec![
        ("default", Config::default()),
        ("polynomial", Config::polynomial()),
        (
            "compose",
            b().compose_return_jfs(true)
                .build()
                .expect("valid combination"),
        ),
        ("gated", b().gated(true).build().expect("valid combination")),
        (
            "pruned",
            b().pruned_ssa(true).build().expect("valid combination"),
        ),
        (
            // Every evaluation exhausts its step slice: the kept form is
            // the degraded one, and reusing it must degrade identically.
            "starved-steps",
            Config::polynomial().with_limits(AnalysisLimits {
                max_symbolic_steps: 3,
                ..AnalysisLimits::default()
            }),
        ),
    ]
}

/// Whether the jump stage may reuse return-jump forms under `config`.
fn reuse_applies(config: &Config) -> bool {
    config.use_return_jfs && !config.pruned_ssa && !config.gated_jump_fns
}

/// The procedures whose form the jump stage should have reused.
fn expected_reuse(a: &Analysis, config: &Config) -> usize {
    if !reuse_applies(config) {
        return 0;
    }
    (0..a.cg.reachable.len())
        .filter(|&p| a.cg.reachable[p] && !a.cg.is_recursive(ProcId::from(p)) && !a.quarantined[p])
        .count()
}

/// Checks every reachable procedure's committed form against a fresh
/// build evaluated against the final return-jump table, and the reuse
/// counter against the procedures it should cover.
fn check(mcfg: &ModuleCfg, label: &str) {
    for (name, base) in configs() {
        for jobs in JOB_COUNTS {
            let config = base.with_jobs(jobs);
            let label = format!("{label} [{name}, jobs={jobs}]");
            let a = Analysis::run(mcfg, &config);
            let mod_kills = ModKills(&a.modref);
            let kills: &dyn CallKills = if config.use_mod {
                &mod_kills
            } else {
                &WorstCaseKills
            };
            let ret = RetOracle {
                table: &a.ret_jfs,
                mcfg,
                layout: &a.layout,
            };
            let oracle: &dyn CallDefEval = if config.use_return_jfs {
                &ret
            } else {
                &OpaqueCalls
            };
            let budget = EvalBudget {
                max_steps: config.limits.max_symbolic_steps,
                deadline: None,
                latch: None,
            };
            for (pi, ps) in a.symbolics.iter().enumerate() {
                let p = ProcId::from(pi);
                if !a.cg.reachable[pi] || a.quarantined[pi] {
                    assert!(ps.is_none(), "{label}: proc {pi} has a stray form");
                    continue;
                }
                let ps = ps
                    .as_ref()
                    .unwrap_or_else(|| panic!("{label}: proc {pi} has no form"));
                let ssa = if config.pruned_ssa {
                    build_ssa_pruned(mcfg, p, kills)
                } else {
                    build_ssa(mcfg, p, kills)
                };
                // The gate depends on the previous gating round's VAL
                // sets, which the final analysis does not keep; the
                // evaluation under it is what must agree.
                let (sym, _) =
                    evaluate_under(mcfg, &ssa, &a.layout, oracle, ps.gate.as_ref(), &budget);
                assert!(ps.ssa == ssa, "{label}: proc {pi}: SSA form differs");
                assert!(ps.sym == sym, "{label}: proc {pi}: symbolic values differ");
                assert_eq!(
                    ps.gate.is_some(),
                    config.gated_jump_fns,
                    "{label}: proc {pi}: gate presence"
                );
            }
            assert_eq!(
                a.timings.jump.reused,
                expected_reuse(&a, &config),
                "{label}: reuse counter"
            );
            if reuse_applies(&config) {
                // Serve's miss path hands its live return-jump forms to
                // the jump stage the same way: a cold cache reuses as
                // many forms, and the results stay identical.
                let own: ipcp_ir::Table<u128> = (0..mcfg.module.procs.len() as u128).collect();
                let mut txn = CacheTxn::new();
                let memo = Memo {
                    cache: &SummaryCache::new(),
                    own: &own,
                    txn: &mut txn,
                };
                let warm = Analysis::run_memoized(mcfg, &config, memo);
                assert!(same_results(&a, &warm), "{label}: serve results differ");
                assert!(a.symbolics == warm.symbolics, "{label}: serve forms differ");
                assert_eq!(
                    warm.timings.jump.reused, a.timings.jump.reused,
                    "{label}: serve reuse counter"
                );
            }
        }
    }
}

#[test]
fn suite_forms_match_a_fresh_evaluation() {
    for p in PROGRAMS {
        check(&p.module_cfg(), p.name);
    }
}

#[test]
fn mutated_corpus_forms_match_a_fresh_evaluation() {
    let mut rng = Rng::new(0x51AB);
    for seed in 40..44u64 {
        let base = generate(&GenConfig::default(), seed);
        for round in 0..3 {
            let src = if round == 0 {
                base.clone()
            } else {
                swap_operator(&base, &mut rng)
            };
            // Mutants that no longer resolve have nothing to analyze.
            let Ok(module) = parse_and_resolve(&src) else {
                continue;
            };
            check(
                &lower_module(&module),
                &format!("gen seed {seed} round {round}"),
            );
        }
    }
}

#[test]
fn scale_1k_forms_match_a_fresh_evaluation() {
    let spec = ScaleSpec::parse("procs=1k,shape=mixed,recursion=8,seed=101").unwrap();
    let mcfg = lower_module(&parse_and_resolve(&generate_scale(&spec)).unwrap());
    check(&mcfg, "scale-1k");
}

/// The reuse counter is not vacuous: the 1k tier has recursive SCCs,
/// which Stage 2 re-evaluates, and plenty of procedures it does not.
#[test]
fn scale_1k_reuses_every_non_recursive_form() {
    let spec = ScaleSpec::parse("procs=1k,shape=mixed,recursion=8,seed=101").unwrap();
    let mcfg = lower_module(&parse_and_resolve(&generate_scale(&spec)).unwrap());
    let a = Analysis::run(&mcfg, &Config::default().with_jobs(1));
    let reachable = a.cg.reachable.iter().filter(|&&r| r).count();
    let reused = a.timings.jump.reused;
    assert!(reused > reachable / 2, "{reused} of {reachable}");
    assert!(
        reused < reachable,
        "the tier has recursion: {reused} of {reachable}"
    );
}
