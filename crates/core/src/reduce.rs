//! `ipcc reduce` — a delta-debugging triage tool.
//!
//! Given an FT program that reproduces a failure (a pipeline panic, a
//! quarantined procedure, any degradation, or a soundness-oracle
//! violation), [`reduce`] shrinks it to a small program that still
//! reproduces it, using Zeller-style ddmin over source lines followed by
//! a pass over whitespace-separated tokens. The reference interpreter is
//! reused as the soundness oracle, exactly as `tests/soundness.rs` does.
//!
//! Candidates that fail to parse are simply uninteresting — the frontend
//! returns diagnostics as values, so malformed fragments cost one cheap
//! predicate test and are discarded.

use crate::config::Config;
use crate::pipeline::Analysis;
use crate::quarantine::quiet_catch;
use ipcp_ir::interp::{run_module, ExecLimits};
use ipcp_ssa::Lattice;

/// What counts as "still failing" during reduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReduceCheck {
    /// The analysis pipeline panics (probed with quarantine off, so the
    /// panic is observable instead of contained).
    Panic,
    /// At least one procedure is quarantined by the fault-isolation layer.
    Quarantine,
    /// The analysis records any degradation event.
    Degraded,
    /// A claimed `CONSTANTS(p)` entry contradicts the interpreter's entry
    /// trace on the given inputs — a genuine soundness bug.
    Unsound {
        /// Inputs fed to `read` statements during the oracle run.
        inputs: Vec<i64>,
    },
}

impl ReduceCheck {
    /// Stable label for CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            ReduceCheck::Panic => "panic",
            ReduceCheck::Quarantine => "quarantine",
            ReduceCheck::Degraded => "degraded",
            ReduceCheck::Unsound { .. } => "unsound",
        }
    }
}

/// The result of a successful reduction.
#[derive(Clone, Debug)]
pub struct ReduceOutcome {
    /// The minimized program (still reproduces the failure).
    pub source: String,
    /// Predicate evaluations spent.
    pub tests: usize,
    /// Bytes in the original program.
    pub original_bytes: usize,
    /// Bytes in the minimized program.
    pub reduced_bytes: usize,
}

/// Does `src` reproduce the failure class `check` under `config`?
///
/// Unparseable sources are never interesting. Every probe runs under a
/// quiet `catch_unwind`, so reduction itself can never crash the caller —
/// for non-`Panic` checks an unexpected panic makes the candidate
/// uninteresting rather than aborting the search.
pub fn is_interesting(src: &str, config: &Config, check: &ReduceCheck) -> bool {
    let Ok(module) = ipcp_ir::parse_and_resolve(src) else {
        return false;
    };
    let mcfg = ipcp_ir::lower_module_owned(module);
    match check {
        ReduceCheck::Panic => {
            let probe = config.with_quarantine(false);
            quiet_catch(|| Analysis::run(&mcfg, &probe)).is_err()
        }
        ReduceCheck::Quarantine => {
            let probe = config.with_quarantine(true);
            quiet_catch(|| Analysis::run(&mcfg, &probe))
                .map(|a| a.quarantined.iter().any(|&q| q))
                .unwrap_or(false)
        }
        ReduceCheck::Degraded => quiet_catch(|| Analysis::run(&mcfg, config))
            .map(|a| a.health.degraded())
            .unwrap_or(false),
        ReduceCheck::Unsound { inputs } => {
            quiet_catch(|| soundness_violation(&mcfg, config, inputs).is_some()).unwrap_or(false)
        }
    }
}

/// Runs the analysis and replays the program in the reference
/// interpreter; returns a description of the first claimed constant the
/// execution contradicts, if any.
pub fn soundness_violation(
    mcfg: &ipcp_ir::ModuleCfg,
    config: &Config,
    inputs: &[i64],
) -> Option<String> {
    let analysis = Analysis::run(mcfg, config);
    let limits = ExecLimits {
        max_steps: 500_000,
        lenient_reads: true,
        ..Default::default()
    };
    let exec = run_module(&mcfg.module, inputs, &limits).ok()?;
    for (p, snapshot) in &exec.trace.entries {
        let vals = analysis.vals.of(*p);
        for (slot, lattice) in vals.iter().enumerate() {
            if let Lattice::Const(c) = lattice {
                let observed = snapshot.get(slot).copied().unwrap_or(None);
                if observed != Some(*c) {
                    return Some(format!(
                        "CONSTANTS({}) claims {} = {c}, but an execution entered with {}",
                        mcfg.module.proc(*p).name,
                        analysis.layout.slot_name(&mcfg.module, *p, slot),
                        match observed {
                            Some(o) => o.to_string(),
                            None => "no scalar value".to_string(),
                        },
                    ));
                }
            }
        }
    }
    None
}

/// A grammar-aware structural pre-pass plugged into
/// [`reduce_with_prepass`]. Given the current reproducer and the shared
/// probe, it may return a strictly smaller candidate that the probe has
/// already confirmed still fails. Every candidate it tries **must** go
/// through the probe — that is what keeps the `--max-tests` budget
/// airtight across layers; a probe returning `None` means the budget is
/// spent and the pass must give up.
pub type StructuralPass<'a> =
    dyn Fn(&str, &mut dyn FnMut(&str) -> Option<bool>) -> Option<String> + 'a;

/// Shrinks `src` to a small program that still reproduces `check`.
///
/// Returns `None` when the original program does not reproduce the
/// failure (so there is nothing to minimize). The search is bounded by
/// `max_tests` predicate evaluations; when the budget runs out the
/// smallest reproducer found so far is returned — reduction degrades
/// gracefully, like everything else in the pipeline.
pub fn reduce(
    src: &str,
    config: &Config,
    check: &ReduceCheck,
    max_tests: usize,
) -> Option<ReduceOutcome> {
    reduce_with_prepass(src, config, check, max_tests, None)
}

/// [`reduce`] with an optional grammar-aware structural pre-pass run to a
/// fixpoint before the byte-level ddmin passes. Structural shrinking
/// (dropping whole procedures, statements, call arguments) converges in
/// far fewer probes than ddmin on grammar-shaped failures; the pre-pass
/// shares the single `max_tests` probe budget, so every candidate it
/// evaluates is charged exactly like a ddmin candidate.
pub fn reduce_with_prepass(
    src: &str,
    config: &Config,
    check: &ReduceCheck,
    max_tests: usize,
    prepass: Option<&StructuralPass>,
) -> Option<ReduceOutcome> {
    let mut tests = 0usize;
    // `None` = test budget spent; every layer stops and keeps its
    // best-so-far. This closure is the only place a candidate is ever
    // evaluated, so no path — structural, line, token, or a candidate
    // that fails to parse — can skip the counter.
    let mut probe = |candidate: &str| -> Option<bool> {
        if tests >= max_tests {
            return None;
        }
        tests += 1;
        Some(is_interesting(candidate, config, check))
    };
    if !probe(src).unwrap_or(false) {
        return None;
    }

    let mut current = src.to_string();
    if let Some(pass) = prepass {
        while let Some(smaller) = pass(&current, &mut probe) {
            if smaller.len() >= current.len() {
                break; // a pass must make strict progress
            }
            current = smaller;
        }
    }

    let reduced = ddmin_text(&current, &mut probe);
    Some(ReduceOutcome {
        original_bytes: src.len(),
        reduced_bytes: reduced.len(),
        source: reduced,
        tests,
    })
}

/// The byte-level minimization engine: ddmin over source lines
/// (structure-preserving, fast convergence) followed by ddmin over
/// whitespace-separated tokens (FT is free-form, so rejoining with single
/// spaces preserves meaning). The probe contract is the same as
/// [`StructuralPass`]: `Some(true)` = still fails, `Some(false)` = fixed,
/// `None` = budget spent. The returned text is always one the probe has
/// accepted — when the token pass makes no progress, its single-space
/// rejoin (which no probe ever saw) is verified before being preferred
/// over the line-verified form.
pub fn ddmin_text(src: &str, probe: &mut dyn FnMut(&str) -> Option<bool>) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let kept_lines = ddmin(&lines, "\n", probe);
    let line_reduced = kept_lines.join("\n");

    let tokens: Vec<&str> = line_reduced.split_whitespace().collect();
    let n_tokens = tokens.len();
    let kept_tokens = ddmin(&tokens, " ", probe);
    let reduced = kept_tokens.join(" ");

    if kept_tokens.len() == n_tokens && reduced != line_reduced {
        // No token was dropped, so `reduced` is just `line_reduced` with
        // normalized whitespace — and was never itself probed. Keep the
        // verified form unless the normalization provably still fails.
        if !matches!(probe(&reduced), Some(true)) {
            return line_reduced;
        }
    }
    reduced
}

/// Classic ddmin: repeatedly try dropping chunks of the item list,
/// keeping any complement that still satisfies the predicate, refining
/// the granularity until chunks are single items. A `None` from the
/// probe (budget spent) ends the search with the best result so far.
fn ddmin<'a>(
    items: &[&'a str],
    sep: &str,
    probe: &mut dyn FnMut(&str) -> Option<bool>,
) -> Vec<&'a str> {
    let mut current: Vec<&'a str> = items.to_vec();
    let mut n = 2usize;
    while current.len() >= 2 && n <= current.len() {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let complement: Vec<&'a str> = current[..start]
                .iter()
                .chain(&current[end..])
                .copied()
                .collect();
            if !complement.is_empty() {
                match probe(&complement.join(sep)) {
                    None => return current,
                    Some(true) => {
                        current = complement;
                        n = n.saturating_sub(1).max(2);
                        reduced = true;
                        break;
                    }
                    Some(false) => {}
                }
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Stage;

    const FAULTY: &str = "global g;\n\
                          proc main() { g = 1; call f(2, 3); print g; }\n\
                          proc f(a, b) { g = a + b; call h(a * b); }\n\
                          proc h(x) { print x; }\n";

    #[test]
    fn healthy_program_has_nothing_to_reduce() {
        let out = reduce(FAULTY, &Config::default(), &ReduceCheck::Degraded, 500);
        assert!(out.is_none(), "no degradation to reproduce");
    }

    #[test]
    fn reduces_an_injected_panic_to_the_faulty_procedure() {
        // Panic injected into f's jump unit: the minimal reproducer needs
        // main (reachability) and f, but h should be dropped.
        let f_index = 1;
        let config = Config::default().with_panic(Stage::Jump, f_index);
        let out = reduce(FAULTY, &config, &ReduceCheck::Quarantine, 2_000)
            .expect("fault must reproduce on the original");
        assert!(is_interesting(
            &out.source,
            &config,
            &ReduceCheck::Quarantine
        ));
        assert!(out.reduced_bytes <= out.original_bytes);
        assert!(out.tests > 0);
    }

    #[test]
    fn reduces_a_real_panic_with_quarantine_off() {
        let config = Config::default().with_panic(Stage::Jump, 1);
        let out = reduce(FAULTY, &config, &ReduceCheck::Panic, 2_000)
            .expect("panic must reproduce with quarantine off");
        assert!(is_interesting(&out.source, &config, &ReduceCheck::Panic));
    }

    #[test]
    fn reduces_budget_degradations() {
        let config = Config::default().with_fault(Stage::Solver, 1);
        let out =
            reduce(FAULTY, &config, &ReduceCheck::Degraded, 2_000).expect("fault must reproduce");
        // A single-procedure program still runs the solver once.
        assert!(out.source.contains("main"), "{}", out.source);
    }

    #[test]
    fn soundness_oracle_passes_on_sound_analyses() {
        let m = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(FAULTY).unwrap());
        assert_eq!(soundness_violation(&m, &Config::polynomial(), &[]), None);
    }

    #[test]
    fn test_budget_bounds_the_search() {
        let config = Config::default().with_fault(Stage::Solver, 1);
        let out = reduce(FAULTY, &config, &ReduceCheck::Degraded, 3).expect("fault must reproduce");
        assert!(out.tests <= 3, "budget 3 exceeded: {} tests", out.tests);
    }

    /// Regression: mid-ddmin candidates that fail to parse must still be
    /// charged to the `max_tests` budget — a parse failure is one cheap
    /// predicate test, not a free pass around the counter. FAULTY is
    /// built so most single-line drops unresolve a callee, which is
    /// exactly the unparseable-candidate shape the soundness-check path
    /// sees.
    #[test]
    fn max_tests_is_honored_when_candidates_fail_to_parse() {
        let config = Config::default().with_panic(Stage::Jump, 1);
        for budget in [1usize, 4, 10] {
            let out = reduce(FAULTY, &config, &ReduceCheck::Quarantine, budget)
                .expect("fault must reproduce on the original");
            assert!(
                out.tests <= budget,
                "budget {budget} exceeded: {} tests",
                out.tests
            );
        }
    }

    /// The interpreter-soundness check rejects an unparseable candidate
    /// as uninteresting (one cheap test) instead of probing the oracle.
    #[test]
    fn unsound_check_rejects_unparseable_candidates() {
        let check = ReduceCheck::Unsound { inputs: vec![1, 2] };
        assert!(!is_interesting(
            "proc main( {",
            &Config::polynomial(),
            &check
        ));
        assert!(!is_interesting("", &Config::polynomial(), &check));
    }

    /// Structural pre-pass probes share the one budget: candidates a
    /// prepass evaluates count exactly like ddmin candidates.
    #[test]
    fn prepass_probes_are_charged_to_the_budget() {
        let config = Config::default().with_panic(Stage::Jump, 1);
        let rounds = std::cell::Cell::new(0u32);
        let pass: &StructuralPass = &|cur, probe| {
            if rounds.get() >= 8 {
                return None;
            }
            rounds.set(rounds.get() + 1);
            // Probe two truncated (unparseable) candidates; neither is
            // interesting, so the pass reports no progress.
            for cut in 1..3usize {
                probe(&cur[..cur.len() - cut])?;
            }
            None
        };
        let out = reduce_with_prepass(FAULTY, &config, &ReduceCheck::Quarantine, 4, Some(pass))
            .expect("fault must reproduce on the original");
        assert!(
            out.tests <= 4,
            "prepass escaped the budget: {} tests",
            out.tests
        );
    }

    /// A prepass that claims progress without shrinking must not loop.
    #[test]
    fn prepass_without_strict_progress_terminates() {
        let config = Config::default().with_panic(Stage::Jump, 1);
        let pass: &StructuralPass = &|cur, _probe| Some(cur.to_string());
        let out = reduce_with_prepass(FAULTY, &config, &ReduceCheck::Quarantine, 200, Some(pass))
            .expect("fault must reproduce on the original");
        assert!(is_interesting(
            &out.source,
            &config,
            &ReduceCheck::Quarantine
        ));
    }

    /// When the token pass makes no progress, its whitespace-normalized
    /// rejoin was never probed; `ddmin_text` must verify it before
    /// preferring it over the line-verified form.
    #[test]
    fn unverified_whitespace_normalization_is_rolled_back() {
        let src = "keep\nme";
        let mut probe = |c: &str| -> Option<bool> { Some(c.contains("keep") && c.contains('\n')) };
        let out = ddmin_text(src, &mut probe);
        assert!(
            out.contains('\n'),
            "returned a form the predicate rejects: {out:?}"
        );
    }
}
