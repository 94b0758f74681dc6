//! The determinism contract of `--jobs`: the worker count (and therefore
//! the parallel schedule) must be unobservable in every analysis output.
//!
//! Each test runs the same program/config pair sequentially (`jobs = 1`,
//! which takes the original single-threaded code path verbatim) and on
//! several worker counts, then demands bit-identical `CONSTANTS(p)`,
//! telemetry, and quarantine flags. The corpus deliberately includes the
//! nasty cases: mutated programs, starved budgets, injected faults,
//! injected panics, and deadlines under concurrency.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ipcp::{Analysis, AnalysisLimits, Config, Deadline, DegradationKind, Lattice, Stage};
use ipcp_ir::interp::{run_module, EntryTrace, ExecLimits};
use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};
use ipcp_suite::mutate::swap_operator;
use ipcp_suite::prop::oracles::JobsIdentity;
use ipcp_suite::{generate, Checker, Counterexample, GenConfig, Rng, PROGRAMS};

const JOB_COUNTS: &[usize] = &[2, 4, 8];

/// Runs `config` at `jobs = 1` and every count in [`JOB_COUNTS`] and
/// asserts the three reported outputs are bit-identical. Returns the
/// sequential analysis for further checks.
fn assert_schedule_unobservable(mcfg: &ModuleCfg, config: &Config, label: &str) -> Analysis {
    let seq = Analysis::run(mcfg, &config.with_jobs(1));
    for &jobs in JOB_COUNTS {
        let par = Analysis::run(mcfg, &config.with_jobs(jobs));
        // The solver's cost counters are part of the contract: the
        // wavefront must charge the same meets and re-evaluations no
        // matter how its levels were scheduled.
        assert_eq!(
            par.vals.meets, seq.vals.meets,
            "{label}: solver meet count differs at jobs={jobs}"
        );
        assert_eq!(
            par.vals.iterations, seq.vals.iterations,
            "{label}: solver re-evaluation count differs at jobs={jobs}"
        );
        assert_eq!(
            par.vals, seq.vals,
            "{label}: CONSTANTS differ at jobs={jobs}"
        );
        assert_eq!(
            par.health, seq.health,
            "{label}: telemetry differs at jobs={jobs}"
        );
        assert_eq!(
            par.quarantined, seq.quarantined,
            "{label}: quarantine flags differ at jobs={jobs}"
        );
    }
    seq
}

/// Every configuration axis that changes what the per-procedure phases
/// compute, built through the fluent builder.
fn config_matrix() -> Vec<(&'static str, Config)> {
    let b = Config::builder;
    vec![
        ("default", Config::default()),
        ("polynomial", Config::polynomial()),
        ("no-mod", Config::polynomial().with_mod(false)),
        ("no-return-jfs", Config::polynomial().with_return_jfs(false)),
        (
            "compose",
            b().compose_return_jfs(true)
                .build()
                .expect("compose with return jfs on is valid"),
        ),
        (
            "extensions",
            b().zero_globals(true)
                .gated(true)
                .pruned_ssa(true)
                .build()
                .expect("extensions combine"),
        ),
    ]
}

#[test]
fn suite_results_are_identical_for_every_job_count() {
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        for (name, config) in config_matrix() {
            assert_schedule_unobservable(&mcfg, &config, &format!("{}/{name}", p.name));
        }
    }
}

/// Panics with every minimized counterexample from the property harness
/// (a failing round reports a shrunk repro, not the raw mutant).
fn assert_no_counterexamples(cxs: &[Counterexample]) {
    if cxs.is_empty() {
        return;
    }
    let rendered: Vec<String> = cxs.iter().map(|cx| cx.render(" --jump-fn poly")).collect();
    panic!("{}", rendered.join("\n"));
}

#[test]
fn mutated_corpus_results_are_identical_for_every_job_count() {
    let mut rng = Rng::new(0x9A72);
    let mut checker = Checker::new(0);
    checker.ctx.config = Config::polynomial();
    for seed in 40..48u64 {
        let base = generate(&GenConfig::default(), seed);
        for round in 0..4 {
            // Unparseable mutants are vacuous for the oracle, mirroring
            // the old `continue` on frontend errors.
            let src = if round == 0 {
                base.clone()
            } else {
                swap_operator(&base, &mut rng)
            };
            assert_no_counterexamples(&checker.check_source(
                &format!("gen seed {seed} round {round}"),
                &src,
                &[&JobsIdentity],
            ));
        }
    }
}

#[test]
fn starved_budgets_and_injected_faults_are_identical_for_every_job_count() {
    let starved = [
        AnalysisLimits::tiny(),
        AnalysisLimits {
            max_solver_iterations: 1,
            ..AnalysisLimits::default()
        },
        AnalysisLimits {
            max_symbolic_steps: 1,
            ..AnalysisLimits::default()
        },
        AnalysisLimits {
            max_support: 0,
            ..AnalysisLimits::default()
        },
    ];
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        for (i, limits) in starved.iter().enumerate() {
            let config = Config::polynomial().with_limits(*limits);
            assert_schedule_unobservable(&mcfg, &config, &format!("{} starved {i}", p.name));
        }
        for stage in Stage::ALL {
            for at in [1, 3] {
                let config = Config::polynomial().with_fault(stage, at);
                assert_schedule_unobservable(
                    &mcfg,
                    &config,
                    &format!("{} fault {stage:?}@{at}", p.name),
                );
            }
        }
    }
}

#[test]
fn worker_panics_stay_quarantined_to_their_procedure() {
    // A panic injected into one procedure's unit while jobs > 1 must
    // degrade only that procedure, leave the rest of the analysis
    // intact, and produce exactly the sequential result.
    for p in PROGRAMS
        .iter()
        .filter(|p| p.module_cfg().module.procs.len() >= 3)
    {
        let mcfg = p.module_cfg();
        for stage in [Stage::ModRef, Stage::Jump, Stage::RetJump] {
            let config = Config::polynomial().with_panic(stage, 1);
            let seq = assert_schedule_unobservable(
                &mcfg,
                &config,
                &format!("{} panic {stage:?}", p.name),
            );
            let quarantined = seq.quarantined.iter().filter(|&&q| q).count();
            assert!(
                quarantined <= 1,
                "{}: panic in one unit quarantined {quarantined} procedures",
                p.name
            );
        }
    }
}

#[test]
fn solver_panics_landing_mid_wavefront_are_identical_for_every_job_count() {
    // A panic injected into the VAL solver fires mid-wavefront, after
    // other units of the same level have already committed. The
    // quarantine unit there is the SCC (a panic anywhere in a cycle
    // poisons the whole cycle), so unlike the per-procedure phases we
    // tolerate more than one quarantined flag — but the set of flags,
    // the degradation events, and CONSTANTS(p) must still be identical
    // to the sequential run.
    for p in PROGRAMS
        .iter()
        .filter(|p| p.module_cfg().module.procs.len() >= 3)
    {
        let mcfg = p.module_cfg();
        for at in [1, 2] {
            let config = Config::polynomial().with_panic(Stage::Solver, at);
            let seq = assert_schedule_unobservable(
                &mcfg,
                &config,
                &format!("{} solver panic @{at}", p.name),
            );
            let quarantined = seq.quarantined.iter().filter(|&&q| q).count();
            if quarantined > 0 {
                assert!(
                    seq.health
                        .events
                        .iter()
                        .any(|e| e.kind == DegradationKind::Quarantined),
                    "{}: solver quarantined {quarantined} procedures without \
                     reporting a Quarantined event",
                    p.name
                );
            }
        }
    }
}

#[test]
fn wide_solver_levels_run_in_place_at_every_job_count() {
    // Level 1 of this call graph holds 32 independent dirty SCCs. The
    // solver still evaluates them on the calling thread in ascending SCC
    // order — one worker, nothing run ahead, so nothing absorbed or
    // replayed — and reaches the sequential ValSets.
    let width = 32;
    let mut src = String::from("global g; proc main() { g = 3; ");
    for j in 0..width {
        src.push_str(&format!("call l{j}({j}); "));
    }
    src.push_str("} proc leaf(y) { print y + g; } ");
    for j in 0..width {
        src.push_str(&format!(
            "proc l{j}(x) {{ call leaf(x * 2); call leaf({j}); }} "
        ));
    }
    let mcfg = lower_module(&parse_and_resolve(&src).expect("wide program parses"));
    let config = Config::polynomial();
    let seq = Analysis::run(&mcfg, &config.with_jobs(1));
    let par = Analysis::run(&mcfg, &config.with_jobs(4));
    let solve = par.timings.solve;
    assert_eq!(
        solve.workers, 1,
        "the solver ran on {} workers",
        solve.workers
    );
    assert_eq!((solve.absorbed, solve.replayed), (0, 0));
    assert_eq!(par.vals, seq.vals);
}

#[test]
fn deadline_expiring_mid_wavefront_terminates_and_stays_sound() {
    // Unlike the already-expired deadline above, a short-but-nonzero
    // deadline races the analysis itself: the latch can trip inside a
    // per-procedure phase's worker, between solver levels, or not at all. Which run it hits is
    // timing-dependent, so no identity claim is possible — the contract
    // is that every worker stops without a panic, the only degradations
    // reported are Deadline-kind, and whatever survives in CONSTANTS(p)
    // is still sound.
    let exec = ExecLimits {
        max_steps: 200_000,
        lenient_reads: true,
        ..ExecLimits::default()
    };
    let src = generate(
        &GenConfig {
            n_procs: 160,
            n_globals: 8,
            stmts_per_proc: 48,
            max_depth: 4,
        },
        51,
    );
    let module = parse_and_resolve(&src).expect("generated program parses");
    let mcfg = lower_module(&module);
    for &jobs in JOB_COUNTS {
        for deadline_ms in [1, 2] {
            let config = Config::polynomial()
                .with_deadline(Deadline::after_ms(deadline_ms))
                .with_jobs(jobs);
            let outcome = catch_unwind(AssertUnwindSafe(|| Analysis::run(&mcfg, &config)));
            let analysis = outcome
                .unwrap_or_else(|_| panic!("deadline {deadline_ms}ms panicked at jobs={jobs}"));
            for e in &analysis.health.events {
                assert_eq!(
                    e.kind,
                    DegradationKind::Deadline,
                    "unexpected degradation under a mid-solve deadline: {e}"
                );
            }
            if let Ok(run) = run_module(&mcfg.module, &[5, 1, -2, 8, 0], &exec) {
                check_trace(
                    &mcfg,
                    &analysis,
                    &run.trace,
                    &format!("deadline {deadline_ms}ms jobs={jobs}"),
                );
            }
        }
    }
}

/// Checks every reported `CONSTANTS(p)` pair against an observed entry
/// trace (the soundness oracle the rest of the test suite uses).
fn check_trace(mcfg: &ModuleCfg, analysis: &Analysis, trace: &EntryTrace, label: &str) {
    for (p, snapshot) in &trace.entries {
        let vals = analysis.vals.of(*p);
        for (slot, lattice) in vals.iter().enumerate() {
            if let Lattice::Const(c) = lattice {
                let observed = snapshot.get(slot).copied().unwrap_or(None);
                assert_eq!(
                    observed,
                    Some(*c),
                    "{label}: CONSTANTS({}) claims slot {slot} = {c}, observed {observed:?}",
                    mcfg.module.proc(*p).name,
                );
            }
        }
    }
}

#[test]
fn expired_deadline_under_concurrency_terminates_and_stays_sound() {
    // The deadline latch is the only state shared between workers; an
    // already-expired deadline must stop every worker without a panic,
    // and whatever survives in CONSTANTS(p) must still be sound.
    let exec = ExecLimits {
        max_steps: 200_000,
        lenient_reads: true,
        ..ExecLimits::default()
    };
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        for &jobs in JOB_COUNTS {
            let config = Config::polynomial()
                .with_deadline(Deadline::after_ms(0))
                .with_jobs(jobs);
            let outcome = catch_unwind(AssertUnwindSafe(|| Analysis::run(&mcfg, &config)));
            let analysis = outcome
                .unwrap_or_else(|_| panic!("{}: expired deadline panicked at jobs={jobs}", p.name));
            for e in &analysis.health.events {
                assert_eq!(
                    e.kind,
                    DegradationKind::Deadline,
                    "{}: unexpected degradation under expired deadline: {e}",
                    p.name
                );
            }
            if let Ok(run) = run_module(&mcfg.module, &[5, 1, -2, 8, 0], &exec) {
                check_trace(
                    &mcfg,
                    &analysis,
                    &run.trace,
                    &format!("{} jobs={jobs}", p.name),
                );
            }
        }
    }
}

#[test]
fn far_deadline_does_not_perturb_results() {
    // A deadline that never fires must be a no-op: identical to the
    // deadline-free run at every job count.
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        let no_deadline = Analysis::run(&mcfg, &Config::polynomial().with_jobs(1));
        let config = Config::polynomial().with_deadline(Deadline::after_ms(3_600_000));
        for jobs in [1usize, 4] {
            let far = Analysis::run(&mcfg, &config.with_jobs(jobs));
            assert_eq!(far.vals, no_deadline.vals, "{} jobs={jobs}", p.name);
            assert_eq!(far.health, no_deadline.health, "{} jobs={jobs}", p.name);
            assert_eq!(
                far.quarantined, no_deadline.quarantined,
                "{} jobs={jobs}",
                p.name
            );
        }
    }
}
