//! Robustness: the crash-free pipeline guarantee.
//!
//! Three properties, checked over generated programs, mutated sources and
//! adversarially small budgets:
//!
//! 1. **No panics.** `analyze_source` and `Analysis::run` return values
//!    (or `IpcpError`s) for every input, however mangled — verified with a
//!    `catch_unwind` oracle.
//! 2. **Termination.** Every analysis completes under every budget (the
//!    tests themselves would hang otherwise).
//! 3. **Soundness under degradation.** Whatever the budgets, every pair
//!    reported in `CONSTANTS(p)` still holds on every dynamic entry
//!    observed by the reference interpreter — degradation may only lose
//!    precision (to ⊥), never invent constants.
//!
//! The fuzz-style loops run on the shrinking property harness
//! (`ipcp_suite::prop`): a failing round panics with a *minimized*
//! reproducer instead of the raw mutant, plus an `ipcc fuzz` replay
//! line for generated cases.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ipcp::{analyze_source, Analysis, AnalysisLimits, Config, IpcpError, Lattice, Stage};
use ipcp_ir::interp::{run_module, EntryTrace, ExecLimits};
use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};
use ipcp_suite::mutate::{perturb_call_arity, splice_statement, swap_operator};
use ipcp_suite::prop::oracles::{PanicFree, Soundness};
use ipcp_suite::{
    generate, Checker, Counterexample, GenConfig, PropContext, Property, Rng, PROGRAMS,
};

/// Checks `CONSTANTS(p)` against an execution trace (the same oracle the
/// soundness suite uses).
fn check_trace(mcfg: &ModuleCfg, analysis: &Analysis, trace: &EntryTrace, label: &str) {
    for (p, snapshot) in &trace.entries {
        let vals = analysis.vals.of(*p);
        for (slot, lattice) in vals.iter().enumerate() {
            if let Lattice::Const(c) = lattice {
                let observed = snapshot.get(slot).copied().unwrap_or(None);
                assert_eq!(
                    observed,
                    Some(*c),
                    "{label}: CONSTANTS({}) claims slot {slot} = {c}, but an \
                     execution entered with {observed:?}",
                    mcfg.module.proc(*p).name,
                );
            }
        }
    }
}

/// Adversarially small budget configurations: the full tiny() profile plus
/// each limit starved on its own.
fn starved_configs() -> Vec<Config> {
    let d = AnalysisLimits::default;
    [
        AnalysisLimits::tiny(),
        AnalysisLimits {
            max_solver_iterations: 1,
            ..d()
        },
        AnalysisLimits {
            max_symbolic_steps: 1,
            ..d()
        },
        AnalysisLimits {
            max_poly_terms: 1,
            max_poly_degree: 1,
            max_support: 1,
            ..d()
        },
        AnalysisLimits {
            max_support: 0,
            ..d()
        },
    ]
    .into_iter()
    .map(|limits| Config::polynomial().with_limits(limits))
    .collect()
}

fn lenient_exec() -> ExecLimits {
    ExecLimits {
        max_steps: 200_000,
        lenient_reads: true,
        ..ExecLimits::default()
    }
}

/// The configuration the fuzz-style tests run under. `ci.sh` runs this
/// suite twice: once as-is (quarantine on, the default) and once with
/// `IPCP_QUARANTINE=off`, so both fault-handling paths stay covered.
fn base_config() -> Config {
    let config = Config::polynomial();
    match std::env::var("IPCP_QUARANTINE").ok().as_deref() {
        Some("0") | Some("off") => config.with_quarantine(false),
        _ => config,
    }
}

/// The replay-line flags matching [`base_config`] — what `ipcc fuzz`
/// needs to reproduce a failure under the same configuration.
fn base_flags() -> &'static str {
    match std::env::var("IPCP_QUARANTINE").ok().as_deref() {
        Some("0") | Some("off") => " --jump-fn poly --no-quarantine",
        _ => " --jump-fn poly",
    }
}

/// A property-harness checker running under [`base_config`]: any failure
/// is shrunk automatically before it reaches the test's panic message.
fn checker(inputs: &[i64]) -> Checker {
    let mut checker = Checker::new(0);
    checker.ctx = PropContext {
        config: base_config(),
        inputs: inputs.to_vec(),
    };
    checker
}

/// Panics with every minimized counterexample: repro, shrink stats, and
/// (for generated cases) the `ipcc fuzz` replay line.
fn assert_no_counterexamples(cxs: &[Counterexample]) {
    if cxs.is_empty() {
        return;
    }
    let rendered: Vec<String> = cxs.iter().map(|cx| cx.render(base_flags())).collect();
    panic!("{}", rendered.join("\n"));
}

/// Grammar-aware mutations: unlike the byte-level fuzzing below, these
/// produce programs that usually *parse*, driving faults deep into the
/// analysis instead of bouncing off the frontend. The harness checks the
/// panic-freedom and soundness oracles on every mutant and shrinks any
/// counterexample to a minimal repro.
#[test]
fn grammar_mutated_sources_never_panic_and_stay_sound() {
    let base: Vec<String> = (12..18)
        .map(|s| generate(&GenConfig::default(), s))
        .collect();
    let mut rng = Rng::new(0x6A3A);
    let checker = checker(&[5, 1, -2, 8, 0]);
    let props: [&dyn Property; 2] = [&PanicFree, &Soundness];
    for round in 0..200u32 {
        let src = &base[rng.below(base.len() as u64) as usize];
        let mutated = match rng.below(3) {
            0 => swap_operator(src, &mut rng),
            1 => splice_statement(src, &mut rng),
            _ => perturb_call_arity(src, &mut rng),
        };
        assert_no_counterexamples(&checker.check_source(
            &format!("grammar-mutated round {round}"),
            &mutated,
            &props,
        ));
    }
}

#[test]
fn starved_budgets_never_panic_and_stay_sound() {
    for seed in 0..20u64 {
        let src = generate(&GenConfig::default(), seed);
        let module = parse_and_resolve(&src).unwrap();
        let mcfg = lower_module(&module);
        let exec = run_module(&module, &[3, -1, 7, 0, 12], &lenient_exec()).ok();
        for config in starved_configs() {
            let analysis = catch_unwind(AssertUnwindSafe(|| Analysis::run(&mcfg, &config)))
                .unwrap_or_else(|_| {
                    panic!("seed {seed}: analysis panicked under {config:?}\n{src}")
                });
            if let Some(exec) = &exec {
                check_trace(&mcfg, &analysis, &exec.trace, &format!("seed {seed}"));
            }
        }
    }
}

#[test]
fn starved_budgets_stay_sound_on_the_suite() {
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        let Ok(exec) = run_module(&mcfg.module, p.inputs, &lenient_exec()) else {
            continue;
        };
        for config in starved_configs() {
            let analysis = Analysis::run(&mcfg, &config);
            check_trace(&mcfg, &analysis, &exec.trace, p.name);
        }
    }
}

/// With the default (generous) limits, the benchmark suite must complete
/// at full precision — this is what keeps the paper-table outputs
/// bit-identical to a build without the budget layer.
#[test]
fn default_budgets_never_degrade_on_the_suite() {
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        let analysis = Analysis::run(&mcfg, &Config::polynomial());
        assert!(
            !analysis.health.degraded(),
            "{}: {}",
            p.name,
            analysis.health
        );
    }
}

#[test]
fn byte_mutated_sources_never_panic_the_pipeline() {
    let base: Vec<String> = (0..6).map(|s| generate(&GenConfig::default(), s)).collect();
    let mut rng = Rng::new(0xB0B5);
    let checker = checker(&[]);
    for round in 0..250u32 {
        let src = &base[rng.below(base.len() as u64) as usize];
        let mut bytes = src.as_bytes().to_vec();
        for _ in 0..=rng.below(4) {
            if bytes.is_empty() {
                break;
            }
            let i = rng.below(bytes.len() as u64) as usize;
            match rng.below(3) {
                0 => bytes[i] = rng.below(256) as u8,
                1 => {
                    bytes.remove(i);
                }
                _ => {
                    let b = bytes[rng.below(bytes.len() as u64) as usize];
                    bytes.insert(i, b);
                }
            }
        }
        let Ok(mutated) = String::from_utf8(bytes) else {
            continue; // the lexer API takes &str; invalid UTF-8 can't reach it
        };
        assert_no_counterexamples(&checker.check_source(
            &format!("byte-mutated round {round}"),
            &mutated,
            &[&PanicFree],
        ));
    }
}

#[test]
fn token_spliced_sources_never_panic_the_pipeline() {
    const SPLICE: &[&str] = &[
        "proc",
        "global",
        "call",
        "do",
        "if",
        "else",
        "while",
        "read",
        "print",
        "return",
        "array",
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        ";",
        ",",
        "=",
        "==",
        "&&",
        "||",
        "+",
        "-",
        "9223372036854775807",
        "0",
        "main",
    ];
    let base: Vec<String> = (6..12)
        .map(|s| generate(&GenConfig::default(), s))
        .collect();
    let mut rng = Rng::new(0x70C3);
    let checker = checker(&[]);
    for round in 0..250u32 {
        let src = &base[rng.below(base.len() as u64) as usize];
        let mut text = src.clone();
        for _ in 0..=rng.below(3) {
            // Splice at a char boundary (generated sources are ASCII).
            let at = rng.below(text.len() as u64 + 1) as usize;
            let tok = SPLICE[rng.below(SPLICE.len() as u64) as usize];
            text.insert_str(at, tok);
        }
        assert_no_counterexamples(&checker.check_source(
            &format!("token-spliced round {round}"),
            &text,
            &[&PanicFree],
        ));
    }
}

/// The tier-1 face of the fuzz lane: a generative sweep of every
/// registered property. A failure panics with a minimized repro and an
/// `ipcc fuzz --seed <case seed> --cases 1` replay line, so reproducing
/// a red CI run is one copy-paste.
#[test]
fn generative_property_sweep_is_clean() {
    let mut checker = checker(&[3, -1, 7, 0, 12]);
    checker.cases = 48;
    let props = ipcp_suite::prop::all_properties();
    let refs: Vec<&dyn Property> = props.iter().map(Box::as_ref).collect();
    let report = checker.run(&refs);
    assert_eq!(report.cases, 48);
    report.assert_clean(base_flags());
}

#[test]
fn frontend_errors_are_values_not_panics() {
    match analyze_source("proc main( {", &Config::default()) {
        Err(IpcpError::Frontend(diags)) => assert!(diags.has_errors()),
        other => panic!("expected a frontend error, got {other:?}"),
    }
}

/// A program that exercises forward jump functions, return jump functions
/// and the solver: `f` modifies a global (so `main.g` after the call flows
/// through f's return jump function) and forwards a polynomial.
const FAULT_SRC: &str = "global g; \
    proc main() { g = 1; call f(2, 3); print g; } \
    proc f(a, b) { g = a + b; call h(a * b + 1); } \
    proc h(x) { print x; }";

#[test]
fn fault_injection_trips_jump_retjump_and_solver() {
    let mcfg = lower_module(&parse_and_resolve(FAULT_SRC).unwrap());
    let exec = run_module(&mcfg.module, &[], &ExecLimits::default()).unwrap();
    for stage in [Stage::Jump, Stage::RetJump, Stage::Solver] {
        let config = Config::polynomial().with_fault(stage, 1);
        let analysis = Analysis::run(&mcfg, &config);
        assert!(
            analysis.health.count(stage) >= 1,
            "fault at {stage} recorded nothing:\n{}",
            analysis.health
        );
        // Degraded ≠ unsound: whatever survived must still be true.
        check_trace(&mcfg, &analysis, &exec.trace, &format!("fault {stage}"));
    }
}

/// The quarantine acceptance criterion: a panic in any single procedure's
/// per-procedure phase quarantines only that procedure. Every other
/// procedure's `CONSTANTS(p)` row is bit-identical to the fault-free run.
///
/// The victim `q` is an independent leaf that touches no globals and is
/// called with a literal argument, so no dataflow fact about any other
/// procedure routes through it.
#[test]
fn quarantine_of_one_procedure_leaves_the_rest_bit_identical() {
    let src = "proc main() { call f(1, 2); call q(3); call h(5); } \
        proc f(a, b) { print a + b; } \
        proc q(x) { print x; } \
        proc h(y) { print y; }";
    let mcfg = lower_module(&parse_and_resolve(src).unwrap());
    let clean = Analysis::run(&mcfg, &Config::polynomial());
    let victim = mcfg.module.proc_named("q").unwrap().id;
    for stage in [Stage::ModRef, Stage::Jump, Stage::RetJump] {
        let config = Config::polynomial().with_panic(stage, victim.index());
        let hurt = Analysis::run(&mcfg, &config);
        assert!(
            hurt.quarantined[victim.index()],
            "panic at {stage} did not quarantine q:\n{}",
            hurt.health
        );
        assert_eq!(hurt.quarantined.iter().filter(|&&q| q).count(), 1);
        for (pi, p) in mcfg.module.procs.iter().enumerate() {
            if pi == victim.index() {
                continue;
            }
            let pid = ipcp_ir::program::ProcId::from(pi);
            assert_eq!(
                clean.vals.of(pid),
                hurt.vals.of(pid),
                "panic at {stage} in q changed CONSTANTS({})",
                p.name
            );
        }
    }
}

/// Panic-injected runs on the whole suite: the contained fault must never
/// break a surviving constant — `CONSTANTS(p)` of every procedure
/// (quarantined rows are ⊥ and trivially sound) still holds on every
/// observed entry state.
#[test]
fn panic_injected_runs_stay_sound_on_the_suite() {
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        let Ok(exec) = run_module(&mcfg.module, p.inputs, &lenient_exec()) else {
            continue;
        };
        let n = mcfg.module.procs.len();
        for stage in [Stage::ModRef, Stage::Jump, Stage::RetJump] {
            for victim in [0, n / 2, n - 1] {
                let config = Config::polynomial().with_panic(stage, victim);
                let analysis = Analysis::run(&mcfg, &config);
                check_trace(
                    &mcfg,
                    &analysis,
                    &exec.trace,
                    &format!("{} panic {stage}@{victim}", p.name),
                );
            }
        }
    }
}

/// With quarantine disabled, the same injected panic propagates — the
/// escape hatch really turns the layer off.
#[test]
fn disabling_quarantine_lets_the_panic_escape() {
    let mcfg = lower_module(&parse_and_resolve(FAULT_SRC).unwrap());
    let config = Config::polynomial()
        .with_panic(Stage::Jump, 1)
        .with_quarantine(false);
    let result = catch_unwind(AssertUnwindSafe(|| Analysis::run(&mcfg, &config)));
    assert!(result.is_err(), "panic should escape with quarantine off");
    // Back on (the default), the identical run completes and degrades.
    let contained = Analysis::run(&mcfg, &Config::polynomial().with_panic(Stage::Jump, 1));
    assert!(contained.quarantined[1]);
    assert!(contained.health.degraded());
}

/// An already-expired deadline: the analysis still returns, the results
/// are sound (everything reachable at ⊥ is always sound), and the
/// telemetry says why precision was lost — starting with the return-jump
/// stage, whose symbolic evaluations run under the same deadline.
#[test]
fn expired_deadlines_degrade_soundly() {
    use ipcp::{Deadline, DegradationKind};
    use std::time::Duration;
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        let config = Config::polynomial().with_deadline(Deadline::after(Duration::ZERO));
        let analysis = Analysis::run(&mcfg, &config);
        assert!(
            analysis.health.count_kind(DegradationKind::Deadline) >= 1,
            "{}: no deadline event recorded:\n{}",
            p.name,
            analysis.health
        );
        assert!(
            analysis
                .health
                .events
                .iter()
                .any(|e| e.stage == Stage::RetJump && e.kind == DegradationKind::Deadline),
            "{}: the return-jump stage ignored the deadline:\n{}",
            p.name,
            analysis.health
        );
        if let Ok(exec) = run_module(&mcfg.module, p.inputs, &lenient_exec()) {
            check_trace(
                &mcfg,
                &analysis,
                &exec.trace,
                &format!("{} deadline", p.name),
            );
        }
    }
}

/// A far-future deadline changes nothing: same values, no deadline events.
#[test]
fn generous_deadlines_do_not_perturb_results() {
    use ipcp::{Deadline, DegradationKind};
    use std::time::Duration;
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        let plain = Analysis::run(&mcfg, &Config::polynomial());
        let timed = Analysis::run(
            &mcfg,
            &Config::polynomial().with_deadline(Deadline::after(Duration::from_secs(3600))),
        );
        assert_eq!(timed.health.count_kind(DegradationKind::Deadline), 0);
        for (pi, _) in mcfg.module.procs.iter().enumerate() {
            let pid = ipcp_ir::program::ProcId::from(pi);
            assert_eq!(plain.vals.of(pid), timed.vals.of(pid), "{}", p.name);
        }
    }
}

/// Deterministic fault injection is *deterministic*: the same fault point
/// produces the same telemetry and the same values on every run.
#[test]
fn fault_injection_is_reproducible() {
    let mcfg = lower_module(&parse_and_resolve(FAULT_SRC).unwrap());
    let config = Config::polynomial().with_fault(Stage::Solver, 2);
    let a = Analysis::run(&mcfg, &config);
    let b = Analysis::run(&mcfg, &config);
    assert_eq!(a.health.events.len(), b.health.events.len());
    for (ea, eb) in a.health.events.iter().zip(&b.health.events) {
        assert_eq!(ea.stage, eb.stage);
        assert_eq!(ea.detail, eb.detail);
    }
    for (pi, _) in mcfg.module.procs.iter().enumerate() {
        let p = ipcp_ir::program::ProcId::from(pi);
        assert_eq!(a.vals.of(p), b.vals.of(p));
    }
}
