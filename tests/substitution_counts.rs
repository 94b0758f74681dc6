//! The substitution metric, counted without building the rewritten
//! program.
//!
//! `Analysis::substitution_counts` runs the same seeded SCCP as
//! `Analysis::substitute` but only counts, through the one counting rule
//! `count_proc`. This suite pins it differentially, per procedure:
//!
//! * the counts equal those `substitute` reports, and `total` is their sum;
//! * both equal the *materialized* count — the variable occurrences the
//!   rewritten program actually turned into constants, found by walking it
//!   against the original — so the counting rule cannot drift from the
//!   rewrite;
//! * the intraprocedural variant agrees with `substitute_intraprocedural`,
//!   and `integrate_and_count` with the materialized count of the
//!   integrated program.
//!
//! Inputs: the suite, a swap-operator mutation corpus and the 1k scale
//! tier, under every configuration axis that changes the SCCP seeds, the
//! call oracle or the SSA form, at one and four workers.

use ipcp::{
    count_intraprocedural, integrate_and_count, substitute_intraprocedural, Analysis, Config,
    Substitution,
};
use ipcp_ir::cfg::{CStmt, ModuleCfg, Terminator};
use ipcp_ir::program::{Arg, Expr};
use ipcp_ir::{lower_module, parse_and_resolve};
use ipcp_suite::mutate::swap_operator;
use ipcp_suite::{generate, generate_scale, GenConfig, Rng, ScaleSpec, PROGRAMS};

const JOB_COUNTS: [usize; 2] = [1, 4];

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
        (
            "pruned",
            b().pruned_ssa(true).build().expect("valid combination"),
        ),
        ("gated", b().gated(true).build().expect("valid combination")),
        ("no-return-jfs", Config::default().with_return_jfs(false)),
    ]
}

fn scale_1k() -> ModuleCfg {
    let spec = ScaleSpec::parse("procs=1k,shape=mixed,recursion=8,seed=101").unwrap();
    lower_module(&parse_and_resolve(&generate_scale(&spec)).unwrap())
}

/// Occurrences replaced in `new` relative to `old`: a variable that
/// became a constant.
fn replaced_expr(old: &Expr, new: &Expr) -> usize {
    match (old, new) {
        (Expr::Var(..), Expr::Const(..)) => 1,
        (Expr::Load(_, a, _), Expr::Load(_, b, _))
        | (Expr::Unary(_, a, _), Expr::Unary(_, b, _)) => replaced_expr(a, b),
        (Expr::Binary(_, a1, a2, _), Expr::Binary(_, b1, b2, _)) => {
            replaced_expr(a1, b1) + replaced_expr(a2, b2)
        }
        _ => 0,
    }
}

fn replaced_stmt(old: &CStmt, new: &CStmt) -> usize {
    match (old, new) {
        (CStmt::Assign { value: a, .. }, CStmt::Assign { value: b, .. })
        | (CStmt::Print { value: a }, CStmt::Print { value: b }) => replaced_expr(a, b),
        (
            CStmt::Store {
                index: i1,
                value: v1,
                ..
            },
            CStmt::Store {
                index: i2,
                value: v2,
                ..
            },
        ) => replaced_expr(i1, i2) + replaced_expr(v1, v2),
        (CStmt::Call { args: a, .. }, CStmt::Call { args: b, .. }) => a
            .iter()
            .zip(b)
            .map(|pair| match pair {
                (Arg::Value(x), Arg::Value(y)) => replaced_expr(x, y),
                _ => 0,
            })
            .sum(),
        _ => 0,
    }
}

/// Per procedure, the constants the rewritten program actually carries
/// where `original` had a variable.
fn materialized_counts(original: &ModuleCfg, sub: &Substitution) -> Vec<usize> {
    original
        .cfgs
        .iter()
        .zip(&sub.module.cfgs)
        .map(|(old, new)| {
            old.blocks
                .iter()
                .zip(&new.blocks)
                .map(|(ob, nb)| {
                    let stmts: usize = ob
                        .stmts
                        .iter()
                        .zip(&nb.stmts)
                        .map(|(a, b)| replaced_stmt(a, b))
                        .sum();
                    let term = match (&ob.term, &nb.term) {
                        (
                            Terminator::Branch { cond: a, .. },
                            Terminator::Branch { cond: b, .. },
                        ) => replaced_expr(a, b),
                        _ => 0,
                    };
                    stmts + term
                })
                .sum()
        })
        .collect()
}

/// Checks every configuration and job count on `mcfg`; returns the
/// summed interprocedural totals so callers can see the check bites.
fn check(mcfg: &ModuleCfg, label: &str) -> usize {
    let mut seen = 0;
    for (name, base) in configs() {
        for jobs in JOB_COUNTS {
            let label = format!("{label} [{name}, jobs={jobs}]");
            let a = Analysis::run(mcfg, &base.with_jobs(jobs));

            let counted = a.substitution_counts(mcfg);
            let sub = a.substitute(mcfg);
            assert_eq!(counted.counts, sub.counts, "{label}: per-procedure counts");
            assert_eq!(counted.total, sub.total, "{label}: total");
            assert_eq!(
                counted.total,
                counted.counts.iter().sum::<usize>(),
                "{label}: total is the sum"
            );
            assert_eq!(
                counted.counts,
                materialized_counts(mcfg, &sub),
                "{label}: counts vs the rewritten program"
            );
            seen += counted.total;

            let counted = count_intraprocedural(mcfg, &a);
            let sub = substitute_intraprocedural(mcfg, &a);
            assert_eq!(
                counted.counts, sub.counts,
                "{label}: intraprocedural counts"
            );
            assert_eq!(counted.total, sub.total, "{label}: intraprocedural total");
            assert_eq!(
                counted.counts,
                materialized_counts(mcfg, &sub),
                "{label}: intraprocedural counts vs the rewritten program"
            );
        }
    }
    seen
}

#[test]
fn suite_counts_match_the_substitution() {
    let mut seen = 0;
    for p in PROGRAMS {
        seen += check(&p.module_cfg(), p.name);
    }
    assert!(seen > 0, "the suite substitutes constants");
}

#[test]
fn mutated_corpus_counts_match_the_substitution() {
    let mut rng = Rng::new(0x5C07);
    let mut checked = 0;
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
            checked += 1;
        }
    }
    assert!(checked > 4, "only {checked} corpus programs resolved");
}

#[test]
fn scale_1k_counts_match_the_substitution() {
    let seen = check(&scale_1k(), "scale-1k");
    assert!(seen > 0, "the 1k tier substitutes constants");
}

/// `integrate_and_count` counts the integrated program without
/// rewriting it; the count must be what rewriting it would show.
#[test]
fn integrate_and_count_matches_the_materialized_count_at_1k() {
    let mcfg = scale_1k();
    let (count, result) = integrate_and_count(&mcfg, &Config::default(), 40_000);
    assert!(result.inlined_calls > 0, "the 1k tier has leaf calls");
    let integrated = &result.module;
    let a = Analysis::run(integrated, &Config::default());
    let sub = substitute_intraprocedural(integrated, &a);
    assert_eq!(count, sub.total);
    assert_eq!(count, materialized_counts(integrated, &sub).iter().sum());
}
