//! Analysis statistics: the concrete counterpart of the paper's §3.1.5
//! cost discussion.
//!
//! The paper argues costs in terms of (a) how many jump functions of each
//! shape get built, (b) how large their support sets are (pass-through
//! support is always a singleton, so lowering a value re-evaluates at most
//! one function per use), and (c) how many meet operations the
//! interprocedural solver performs. [`CostReport::collect`] extracts those
//! quantities from a finished [`Analysis`].

use crate::jump::JumpFn;
use crate::par::{PhaseTime, Timings};
use crate::pipeline::Analysis;
use ipcp_ir::cfg::ModuleCfg;
use std::fmt;
use std::time::Duration;

/// Aggregated statistics for one analysis run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Procedures reachable from the entry.
    pub reachable_procs: usize,
    /// Call sites (edges of the call multigraph).
    pub call_sites: usize,
    /// Jump functions by shape: constant.
    pub jf_const: usize,
    /// Jump functions by shape: pass-through.
    pub jf_pass_through: usize,
    /// Jump functions by shape: non-trivial polynomial.
    pub jf_polynomial: usize,
    /// Jump functions by shape: ⊥.
    pub jf_bottom: usize,
    /// Sum of support-set sizes over all jump functions.
    pub total_support: usize,
    /// Largest single support set.
    pub max_support: usize,
    /// Return jump functions that are constants.
    pub ret_jf_const: usize,
    /// Return jump functions that are the identity of their own slot.
    pub ret_jf_identity: usize,
    /// Return jump functions that are other pass-throughs or polynomials.
    pub ret_jf_symbolic: usize,
    /// Return jump functions that are ⊥.
    pub ret_jf_bottom: usize,
    /// Meet operations the solver performed.
    pub solver_meets: usize,
    /// Worklist iterations (procedure re-evaluations).
    pub solver_iterations: usize,
    /// Total SSA values across reachable procedures.
    pub ssa_values: usize,
    /// Constant entry slots across reachable procedures.
    pub constant_slots: usize,
    /// Degradation events recorded by the budget governor (0 means the
    /// run completed at full precision).
    pub degradations: usize,
    /// Procedures quarantined by the fault-isolation layer (their
    /// summaries were forced to worst-case; everything else kept full
    /// precision).
    pub quarantined: usize,
}

impl CostReport {
    /// Gathers the report from a finished analysis.
    pub fn collect(mcfg: &ModuleCfg, analysis: &Analysis) -> CostReport {
        let mut r = CostReport {
            reachable_procs: analysis.cg.reachable.iter().filter(|&&b| b).count(),
            call_sites: analysis.cg.n_edges(),
            solver_meets: analysis.vals.meets,
            solver_iterations: analysis.vals.iterations,
            constant_slots: analysis.vals.n_constants(),
            degradations: analysis.health.events.len(),
            quarantined: analysis.quarantined.iter().filter(|&&q| q).count(),
            ..CostReport::default()
        };
        for sites in &analysis.jump_fns.sites {
            for fns in sites {
                for jf in fns {
                    let support = jf.support().len();
                    r.total_support += support;
                    r.max_support = r.max_support.max(support);
                    match jf {
                        JumpFn::Const(_) => r.jf_const += 1,
                        JumpFn::PassThrough(_) => r.jf_pass_through += 1,
                        JumpFn::Poly(_) => r.jf_polynomial += 1,
                        JumpFn::Bottom => r.jf_bottom += 1,
                    }
                }
            }
        }
        for (pi, fns) in analysis.ret_jfs.fns.iter().enumerate() {
            let Some(fns) = fns else { continue };
            for (slot, jf) in fns.iter().enumerate() {
                match jf {
                    JumpFn::Const(_) => r.ret_jf_const += 1,
                    JumpFn::PassThrough(v) if *v as usize == slot => r.ret_jf_identity += 1,
                    JumpFn::PassThrough(_) | JumpFn::Poly(_) => r.ret_jf_symbolic += 1,
                    JumpFn::Bottom => r.ret_jf_bottom += 1,
                }
            }
            let _ = pi;
        }
        for ps in analysis.symbolics.iter().flatten() {
            r.ssa_values += ps.ssa.len();
        }
        let _ = mcfg;
        r
    }

    /// Total jump functions constructed.
    pub fn jf_total(&self) -> usize {
        self.jf_const + self.jf_pass_through + self.jf_polynomial + self.jf_bottom
    }

    /// Mean support size over all jump functions — the paper's observation
    /// is that this approaches ≤ 1 in practice even for the polynomial
    /// implementation.
    pub fn mean_support(&self) -> f64 {
        if self.jf_total() == 0 {
            0.0
        } else {
            self.total_support as f64 / self.jf_total() as f64
        }
    }
}

/// One stage's line in a [`PhaseReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    /// Stage label (`modref`, `retjump`, `jump`, `solve`).
    pub stage: &'static str,
    /// Wall-clock time of the stage, summed across gating rounds.
    pub wall: Duration,
    /// Units the stage processed (procedures, or SCCs for the solver).
    pub units: usize,
    /// Parallel-fold units whose optimistic governor shard merged cleanly.
    pub absorbed: usize,
    /// Parallel-fold units discarded and replayed against the master.
    pub replayed: usize,
    /// Procedures whose return-jump symbolic form the stage reused
    /// instead of evaluating again (the jump stage's row only).
    pub reused: usize,
}

/// The per-stage timing and absorb/replay census of one analysis run —
/// the typed table both `ipcc tables` and the bench `report_all` binary
/// render, so the two never drift apart column by column.
///
/// Collect with [`PhaseReport::collect`], render a header once with
/// [`PhaseReport::header`] and one line per run with
/// [`PhaseReport::render_row`]. All quantities are observational: they
/// come from [`Timings`] and never feed back into results.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// Worker threads the run was configured with.
    pub jobs: usize,
    /// One row per pipeline stage, in pipeline order.
    pub rows: Vec<PhaseRow>,
    /// Whole-run wall clock.
    pub total: Duration,
    /// Busy-time utilization across `jobs` workers in `[0, 1]`.
    pub utilization: f64,
}

impl PhaseReport {
    /// Gathers the report from a finished run's timings.
    pub fn collect(t: &Timings) -> PhaseReport {
        let row = |stage: &'static str, pt: &PhaseTime| PhaseRow {
            stage,
            wall: pt.wall,
            units: pt.units,
            absorbed: pt.absorbed,
            replayed: pt.replayed,
            reused: pt.reused,
        };
        PhaseReport {
            jobs: t.jobs,
            rows: vec![
                row("modref", &t.modref),
                row("retjump", &t.retjump),
                row("jump", &t.jump),
                row("solve", &t.solve),
            ],
            total: t.total,
            utilization: t.utilization(),
        }
    }

    /// Total units absorbed by the parallel folds (0 when sequential).
    pub fn absorbed(&self) -> usize {
        self.rows.iter().map(|r| r.absorbed).sum()
    }

    /// Total units replayed by the parallel folds.
    pub fn replayed(&self) -> usize {
        self.rows.iter().map(|r| r.replayed).sum()
    }

    /// Total symbolic forms reused from the return-jump stage.
    pub fn reused(&self) -> usize {
        self.rows.iter().map(|r| r.reused).sum()
    }

    /// The column header matching [`PhaseReport::render_row`].
    pub fn header() -> String {
        format!(
            "{:<10} {:>4} {:>9} {:>9} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6} {:>6}",
            "program",
            "jobs",
            "modref_us",
            "retjf_us",
            "jump_us",
            "solve_us",
            "total_us",
            "absorb",
            "replay",
            "reuse",
            "util"
        )
    }

    /// One table line for this run, labelled `program`.
    pub fn render_row(&self, program: &str) -> String {
        let us = |i: usize| self.rows[i].wall.as_micros();
        format!(
            "{:<10} {:>4} {:>9} {:>9} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6} {:>5.0}%",
            program,
            self.jobs,
            us(0),
            us(1),
            us(2),
            us(3),
            self.total.as_micros(),
            self.absorbed(),
            self.replayed(),
            self.reused(),
            100.0 * self.utilization,
        )
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "reachable procedures     {}", self.reachable_procs)?;
        writeln!(f, "call sites               {}", self.call_sites)?;
        writeln!(
            f,
            "forward jump functions   {} (const {}, pass-through {}, polynomial {}, ⊥ {})",
            self.jf_total(),
            self.jf_const,
            self.jf_pass_through,
            self.jf_polynomial,
            self.jf_bottom
        )?;
        writeln!(
            f,
            "support sizes            mean {:.2}, max {}",
            self.mean_support(),
            self.max_support
        )?;
        writeln!(
            f,
            "return jump functions    const {}, identity {}, symbolic {}, ⊥ {}",
            self.ret_jf_const, self.ret_jf_identity, self.ret_jf_symbolic, self.ret_jf_bottom
        )?;
        writeln!(
            f,
            "solver                   {} meets in {} iterations",
            self.solver_meets, self.solver_iterations
        )?;
        writeln!(f, "ssa values               {}", self.ssa_values)?;
        writeln!(f, "constant entry slots     {}", self.constant_slots)?;
        writeln!(f, "degradations             {}", self.degradations)?;
        writeln!(f, "quarantined procedures   {}", self.quarantined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, JumpFnKind};
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn report(src: &str, config: &Config) -> CostReport {
        let mcfg = lower_module(&parse_and_resolve(src).unwrap());
        let analysis = Analysis::run(&mcfg, config);
        CostReport::collect(&mcfg, &analysis)
    }

    const SRC: &str = "global g; \
        proc main() { g = 2; n = 10; call f(n, 3); } \
        proc f(a, b) { call h(a); print a * b * g; } \
        proc h(x) { print x; }";

    #[test]
    fn counts_shapes_per_kind() {
        let pass = report(SRC, &Config::default());
        assert!(pass.jf_pass_through >= 1, "{pass:?}");
        assert_eq!(pass.jf_polynomial, 0, "pass-through never builds polys");
        let lit = report(SRC, &Config::default().with_jump_fn(JumpFnKind::Literal));
        assert_eq!(lit.jf_pass_through, 0);
        assert!(lit.jf_bottom > pass.jf_bottom);
        assert_eq!(lit.jf_total(), pass.jf_total());
    }

    #[test]
    fn support_stays_singleton_for_pass_through() {
        let r = report(SRC, &Config::default());
        assert!(r.max_support <= 1);
        assert!(r.mean_support() <= 1.0);
    }

    #[test]
    fn return_jf_shapes_are_classified() {
        let r = report(SRC, &Config::default());
        // h leaves g untouched → identity; f modifies nothing either.
        assert!(r.ret_jf_identity > 0, "{r:?}");
        let none = report(SRC, &Config::default().with_return_jfs(false));
        assert_eq!(
            none.ret_jf_const + none.ret_jf_identity + none.ret_jf_symbolic,
            0
        );
    }

    #[test]
    fn solver_counters_are_plausible() {
        let r = report(SRC, &Config::default());
        assert!(r.solver_iterations >= r.reachable_procs);
        assert!(r.solver_meets >= r.jf_total());
        assert!(r.ssa_values > 0);
        assert!(r.constant_slots >= 4, "{r:?}"); // a, b, x, g (×procs)
    }

    #[test]
    fn display_is_complete() {
        let text = report(SRC, &Config::default()).to_string();
        for needle in [
            "call sites",
            "support",
            "solver",
            "constant entry slots",
            "degradations",
        ] {
            assert!(text.contains(needle), "{text}");
        }
    }

    #[test]
    fn quarantined_procedures_are_counted() {
        use crate::config::Stage;
        let clean = report(SRC, &Config::default());
        assert_eq!(clean.quarantined, 0);
        let hurt = report(SRC, &Config::default().with_panic(Stage::Jump, 1));
        assert_eq!(hurt.quarantined, 1, "{hurt:?}");
        assert!(hurt.degradations > 0);
        assert!(hurt.to_string().contains("quarantined procedures   1"));
    }

    #[test]
    fn phase_report_rows_follow_pipeline_order() {
        let mcfg = lower_module(&parse_and_resolve(SRC).unwrap());
        // Pin jobs=1: Config::default() auto-resolves through IPCP_JOBS,
        // which the parallel test lane sets.
        let seq = Analysis::run(&mcfg, &Config::default().with_jobs(1));
        let pr = PhaseReport::collect(&seq.timings);
        let stages: Vec<&str> = pr.rows.iter().map(|r| r.stage).collect();
        assert_eq!(stages, ["modref", "retjump", "jump", "solve"]);
        assert_eq!(pr.jobs, 1);
        // Sequential runs never touch the optimistic fold.
        assert_eq!(pr.absorbed(), 0);
        assert_eq!(pr.replayed(), 0);
        let line = pr.render_row("probe");
        assert!(line.starts_with("probe"), "{line}");
        // Header and rows agree column-for-column (same widths, so the
        // rendered line is never wider than the header's last column).
        assert!(PhaseReport::header().contains("absorb"));
        assert!(PhaseReport::header().contains("replay"));
        assert!(PhaseReport::header().contains("reuse"));
        // Every reachable procedure of this non-recursive program reuses
        // its return-jump form, and the count lands on the jump row.
        let reachable = seq.cg.reachable.iter().filter(|&&r| r).count();
        assert_eq!(pr.rows[2].reused, reachable, "{pr:?}");
        assert_eq!(pr.reused(), reachable);
    }

    #[test]
    fn phase_report_counts_parallel_folds() {
        let mcfg = lower_module(&parse_and_resolve(SRC).unwrap());
        let par = Analysis::run(&mcfg, &Config::default().with_jobs(2));
        let pr = PhaseReport::collect(&par.timings);
        // Every optimistically-run unit is accounted exactly once.
        assert!(pr.absorbed() + pr.replayed() > 0, "{pr:?}");
        // A healthy run absorbs everything: replay only fires on budget
        // or fault boundaries.
        assert_eq!(pr.replayed(), 0, "{pr:?}");
    }

    #[test]
    fn degradations_counted_from_health() {
        let full = report(SRC, &Config::default());
        assert_eq!(full.degradations, 0, "default limits never degrade");
        let limits = crate::config::AnalysisLimits {
            max_solver_iterations: 1,
            ..crate::config::AnalysisLimits::default()
        };
        let clipped = report(SRC, &Config::default().with_limits(limits));
        assert!(clipped.degradations > 0, "{clipped:?}");
        assert!(clipped.constant_slots <= full.constant_slots);
    }
}
