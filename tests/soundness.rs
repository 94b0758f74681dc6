//! Soundness: every pair in `CONSTANTS(p)` must hold at **every** dynamic
//! entry to `p`, for every analysis configuration.
//!
//! The reference interpreter records the values of each procedure's entry
//! slots at every call; this suite replays the benchmark programs and
//! thousands of generated random programs and checks the recorded values
//! against the fixpoint `VAL` sets, the substitution SCCP outputs, and the
//! transformed programs.

use ipcp::{Analysis, Config, JumpFnKind};
use ipcp_ir::interp::{run_module, EntryTrace, ExecLimits};
use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};
use ipcp_ssa::Lattice;
use ipcp_suite::prop::oracles::Soundness;
use ipcp_suite::{generate, Checker, GenConfig, PropContext, Rng, PROGRAMS};

/// All configurations exercised by the soundness checks, assembled
/// through the fluent builder (which also validates each combination).
fn all_configs() -> Vec<Config> {
    let build = |b: ipcp::ConfigBuilder| b.build().expect("soundness matrix is valid");
    let poly = || Config::builder().jump_fn_impl(JumpFnKind::Polynomial);
    let mut out = Vec::new();
    for kind in JumpFnKind::ALL {
        for use_mod in [true, false] {
            for use_ret in [true, false] {
                out.push(build(
                    Config::builder()
                        .jump_fn_impl(kind)
                        .mod_info(use_mod)
                        .return_jfs(use_ret),
                ));
            }
        }
    }
    // The extensions.
    out.push(build(poly().compose_return_jfs(true)));
    out.push(build(poly().zero_globals(true)));
    out.push(build(poly().gated(true)));
    out.push(build(poly().gated(true).compose_return_jfs(true)));
    out.push(build(poly().pruned_ssa(true)));
    out
}

/// Checks `CONSTANTS(p)` against an execution trace.
fn check_trace(mcfg: &ModuleCfg, analysis: &Analysis, trace: &EntryTrace, label: &str) {
    for (p, snapshot) in &trace.entries {
        let vals = analysis.vals.of(*p);
        for (slot, lattice) in vals.iter().enumerate() {
            if let Lattice::Const(c) = lattice {
                let observed = snapshot
                    .get(slot)
                    .copied()
                    .unwrap_or(None)
                    .unwrap_or_else(|| {
                        panic!(
                            "{label}: slot {slot} of proc {} claimed constant {c} but \
                             carries no scalar value",
                            p.index()
                        )
                    });
                assert_eq!(
                    observed,
                    *c,
                    "{label}: CONSTANTS({}) claims slot {slot} ({}) = {c}, \
                     but an execution entered with {observed}",
                    mcfg.module.proc(*p).name,
                    analysis.layout.slot_name(&mcfg.module, *p, slot),
                );
            }
        }
    }
}

/// Checks `src` against the soundness oracle under every configuration
/// in the matrix, via the shrinking property harness: a failure panics
/// with a *minimized* reproducer instead of the whole program. (The
/// oracle itself runs the interpreter leniently — under-supplied `read`s
/// zero-fill so the entry trace covers the whole program.)
fn check_program(src: &str, inputs: &[i64], label: &str) {
    for config in all_configs() {
        let mut checker = Checker::new(0);
        checker.ctx = PropContext {
            config,
            inputs: inputs.to_vec(),
        };
        let cxs = checker.check_source(&format!("{label} {config:?}"), src, &[&Soundness]);
        if !cxs.is_empty() {
            let rendered: Vec<String> = cxs.iter().map(|cx| cx.render("")).collect();
            panic!("{}", rendered.join("\n"));
        }
    }
}

#[test]
fn suite_programs_are_analyzed_soundly() {
    for p in PROGRAMS {
        check_program(p.source, p.inputs, p.name);
    }
}

#[test]
fn suite_programs_with_varied_inputs() {
    for p in PROGRAMS {
        for inputs in [&[0i64][..], &[1, 1], &[7, -2, 3], &[2, 0, 0, 5]] {
            check_program(p.source, inputs, p.name);
        }
    }
}

#[test]
fn unreachable_procedures_report_no_constants() {
    let mcfg =
        lower_module(&parse_and_resolve("proc main() { } proc dead(a) { print a; }").unwrap());
    let a = Analysis::run(&mcfg, &Config::default());
    let dead = mcfg.module.proc_named("dead").unwrap().id;
    assert!(a.vals.constants(dead).is_empty());
}

/// A call to a procedure without entry slots (no formals, no scalar
/// globals) transmits no value, but the callee still runs and its own
/// call sites count — at every job count and in the interpreter.
#[test]
fn callees_without_entry_slots_still_run_their_call_sites() {
    let chain = "proc main() { call f(); } proc f() { call g(5); } proc g(a) { print a; }";
    let conflicting = "proc main() { call f(); call g(5); } \
                       proc f() { call g(7); } proc g(a) { print a; }";
    for (src, want) in [(chain, vec![(0, 5)]), (conflicting, vec![])] {
        let mcfg = lower_module(&parse_and_resolve(src).unwrap());
        let g = mcfg.module.proc_named("g").unwrap().id;
        for jobs in [1, 2] {
            let a = Analysis::run(&mcfg, &Config::default().with_jobs(jobs));
            assert_eq!(a.vals.constants(g), want, "jobs={jobs}: {src}");
        }
        check_program(src, &[], "zero-slot callee");
    }
}

#[test]
fn zero_globals_extension_is_sound_for_ft_semantics() {
    // FT really does zero-initialize globals, so the extension may claim
    // g = 0 at main entry — and the trace must confirm it.
    let src = "global g; proc main() { call f(); g = 1; call f(); } proc f() { print g; }";
    let mcfg = lower_module(&parse_and_resolve(src).unwrap());
    let config = Config::builder()
        .zero_globals(true)
        .build()
        .expect("zero-globals alone is valid");
    let a = Analysis::run(&mcfg, &config);
    let exec = run_module(&mcfg.module, &[], &ExecLimits::default()).unwrap();
    check_trace(&mcfg, &a, &exec.trace, "zero-globals");
    // main's VAL knows g = 0; f's meets 0 and 1 → ⊥.
    let f = mcfg.module.proc_named("f").unwrap().id;
    assert!(a.vals.constants(f).is_empty());
    let main = mcfg.module.entry;
    assert_eq!(a.vals.constants(main), vec![(0, 0)]);
}

/// Deterministic random input vector for generated-program checks.
fn random_inputs(rng: &mut Rng) -> Vec<i64> {
    let n = rng.below(6) as usize;
    (0..n).map(|_| rng.range(-30, 29)).collect()
}

/// The workhorse: random programs, random inputs, every configuration.
#[test]
fn generated_programs_are_analyzed_soundly() {
    let mut rng = Rng::new(0x50A1);
    for seed in 0u64..48 {
        let src = generate(&GenConfig::default(), seed);
        check_program(&src, &random_inputs(&mut rng), &format!("seed {seed}"));
    }
}

/// Larger, deeper programs at a lower case count.
#[test]
fn generated_deep_programs_are_analyzed_soundly() {
    for seed in 0u64..24 {
        let config = GenConfig {
            n_procs: 10,
            n_globals: 4,
            stmts_per_proc: 12,
            max_depth: 3,
        };
        let src = generate(&config, seed);
        check_program(&src, &[5, -9, 2, 0, 1], &format!("deep seed {seed}"));
    }
}

/// The AST and CFG interpreters agree on random programs — validating
/// the lowering both analyses and soundness checks rely on.
#[test]
fn interpreters_agree_on_generated_programs() {
    let mut rng = Rng::new(0x1A7E);
    for seed in 0u64..48 {
        let src = generate(&GenConfig::default(), seed);
        let module = parse_and_resolve(&src).unwrap();
        let mcfg = lower_module(&module);
        let inputs = random_inputs(&mut rng);
        let limits = ExecLimits {
            max_steps: 500_000,
            lenient_reads: true,
            ..Default::default()
        };
        let ast = run_module(&module, &inputs, &limits);
        let cfg = ipcp_ir::interp::exec_cfg(&mcfg, &inputs, &limits);
        match (ast, cfg) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.output, b.output);
                assert_eq!(a.trace, b.trace);
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            (a, b) => panic!(
                "divergence: {:?} vs {:?}",
                a.map(|x| x.output),
                b.map(|x| x.output)
            ),
        }
    }
}

/// A procedure that is *sometimes* entered with different values must not
/// be reported constant — directed regression for the meet.
#[test]
fn meets_are_not_overly_optimistic() {
    let src = "proc main() { read c; if (c) { call f(1); } else { call f(2); } call f(1); } \
               proc f(a) { print a; }";
    let mcfg = lower_module(&parse_and_resolve(src).unwrap());
    let a = Analysis::run(&mcfg, &Config::polynomial());
    let f = mcfg.module.proc_named("f").unwrap().id;
    assert!(a.vals.constants(f).is_empty());
    for inputs in [&[0i64][..], &[1]] {
        let exec = run_module(&mcfg.module, inputs, &ExecLimits::default()).unwrap();
        check_trace(&mcfg, &a, &exec.trace, "meet regression");
    }
}

/// Quarantine soundness: panic-injected and budget-starved runs keep
/// every surviving `CONSTANTS(p)` claim true on the observed entry
/// states. Quarantined procedures report all-⊥ rows, which are vacuously
/// sound, so `check_trace` covers quarantined and healthy procedures
/// alike.
#[test]
fn fault_injected_and_starved_runs_stay_sound() {
    use ipcp::{AnalysisLimits, Stage};
    let limits = ExecLimits {
        max_steps: 500_000,
        lenient_reads: true,
        ..Default::default()
    };
    for seed in 0u64..12 {
        let src = generate(&GenConfig::default(), seed);
        let mcfg = lower_module(&parse_and_resolve(&src).unwrap());
        let Ok(exec) = run_module(&mcfg.module, &[4, -1, 6], &limits) else {
            continue;
        };
        let n = mcfg.module.procs.len();
        for stage in [Stage::ModRef, Stage::Jump, Stage::RetJump] {
            for victim in 0..n {
                let config = Config::polynomial().with_panic(stage, victim);
                let a = Analysis::run(&mcfg, &config);
                check_trace(
                    &mcfg,
                    &a,
                    &exec.trace,
                    &format!("seed {seed} panic {stage}@{victim}"),
                );
            }
        }
        // Starvation and quarantine composed: both degradation paths at
        // once must still only ever lose precision.
        let starved = Config::polynomial()
            .with_limits(AnalysisLimits::tiny())
            .with_panic(Stage::Jump, n / 2);
        let a = Analysis::run(&mcfg, &starved);
        check_trace(
            &mcfg,
            &a,
            &exec.trace,
            &format!("seed {seed} starved+panic"),
        );
    }
}

/// FT adopts the FORTRAN 77 aliasing rule: writing through an aliased
/// dummy is a (dynamic) error, which is precisely the assumption that
/// keeps the jump-function framework sound. These programs must fault,
/// not silently diverge from the analysis.
#[test]
fn aliased_writes_fault_instead_of_breaking_soundness() {
    // Same variable passed by reference twice, then written.
    let src =
        "proc main() { x = 1; call f(x, x); print x; }                proc f(a, b) { a = 5; }";
    let m = parse_and_resolve(src).unwrap();
    assert_eq!(
        run_module(&m, &[], &ExecLimits::default()).unwrap_err(),
        ipcp_ir::interp::ExecError::AliasedWrite
    );
    // A global passed by reference and written through the dummy.
    let src = "global g; proc main() { g = 1; call f(g); } proc f(a) { a = 9; }";
    let m = parse_and_resolve(src).unwrap();
    assert_eq!(
        run_module(&m, &[], &ExecLimits::default()).unwrap_err(),
        ipcp_ir::interp::ExecError::AliasedWrite
    );
    // Aliased but never written: conforming, runs fine.
    let src = "global g; proc main() { g = 4; call f(g); } proc f(a) { print a + g; }";
    let m = parse_and_resolve(src).unwrap();
    assert_eq!(
        run_module(&m, &[], &ExecLimits::default()).unwrap().output,
        vec![8]
    );
}
