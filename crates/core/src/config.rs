//! Analysis configuration: which jump function to use and which auxiliary
//! information to consult — the experimental axes of the study — plus the
//! resource-governance knobs ([`AnalysisLimits`], [`FaultInjection`]) that
//! bound every analysis stage. See `docs/ROBUSTNESS.md`.

use std::fmt;
use std::time::{Duration, Instant};

/// The four forward jump-function implementations compared by the paper
/// (§3.1), in increasing order of power. The set of constants each
/// propagates is a subset of what the next one propagates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JumpFnKind {
    /// §3.1.1 — the actual is a syntactic integer literal at the call
    /// site; everything else (including constant globals, which are passed
    /// implicitly) is ⊥. Propagates constants along single call-graph
    /// edges only.
    Literal,
    /// §3.1.2 — the actual's value is discovered by intraprocedural
    /// constant propagation / value numbering (`gcp(y, s)`), ignoring
    /// incoming formal values. Still single-edge, but sees computed
    /// constants and constant globals.
    IntraproceduralConstant,
    /// §3.1.3 — additionally, a formal parameter passed unmodified through
    /// the procedure body is transmitted symbolically, so constants flow
    /// along arbitrary-length call paths. The paper's recommendation.
    PassThrough,
    /// §3.1.4 — the actual is any polynomial function of the caller's
    /// entry values. The most powerful (and most expensive) model.
    Polynomial,
}

impl JumpFnKind {
    /// All four kinds, weakest first.
    pub const ALL: [JumpFnKind; 4] = [
        JumpFnKind::Literal,
        JumpFnKind::IntraproceduralConstant,
        JumpFnKind::PassThrough,
        JumpFnKind::Polynomial,
    ];

    /// Short column label used by the table harnesses.
    pub fn label(self) -> &'static str {
        match self {
            JumpFnKind::Literal => "literal",
            JumpFnKind::IntraproceduralConstant => "intraprocedural",
            JumpFnKind::PassThrough => "pass-through",
            JumpFnKind::Polynomial => "polynomial",
        }
    }
}

impl fmt::Display for JumpFnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The analysis stages a resource budget (or injected fault) can affect.
///
/// Each stage has its own degradation response — see `docs/ROBUSTNESS.md`
/// for the ladder. The same enum labels [`FaultInjection`] trip points and
/// recorded degradation events, so a fault at stage `s` always surfaces as
/// an event at stage `s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Per-procedure MOD/REF direct-effects collection.
    ModRef,
    /// Forward jump-function construction (including the per-procedure
    /// symbolic evaluation that feeds it).
    Jump,
    /// Return jump-function construction.
    RetJump,
    /// The interprocedural VAL worklist solver.
    Solver,
    /// Constant-driven procedure cloning.
    Cloning,
    /// Leaf-call integration (inlining).
    Inline,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::ModRef,
        Stage::Jump,
        Stage::RetJump,
        Stage::Solver,
        Stage::Cloning,
        Stage::Inline,
    ];

    /// Stable lowercase label (used in event details and CLI output).
    pub fn label(self) -> &'static str {
        match self {
            Stage::ModRef => "modref",
            Stage::Jump => "jump",
            Stage::RetJump => "retjump",
            Stage::Solver => "solver",
            Stage::Cloning => "cloning",
            Stage::Inline => "inline",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-stage resource budgets.
///
/// The defaults are deliberately generous: on the builtin suite (and any
/// program of comparable size) no budget is ever reached, so results are
/// bit-identical to an unbounded analysis. When a budget *is* exhausted
/// the affected stage degrades to a sound approximation instead of
/// diverging — see `docs/ROBUSTNESS.md` for the per-stage ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisLimits {
    /// Worklist iterations (procedure re-evaluations) the VAL solver may
    /// perform before forcing the remaining lattice values to ⊥.
    pub max_solver_iterations: u64,
    /// Symbolic-evaluation transfer steps allowed per procedure while
    /// building the inputs to jump functions.
    pub max_symbolic_steps: u64,
    /// Largest polynomial (in terms) a jump function may carry before it
    /// degrades down the jump-function ladder.
    pub max_poly_terms: usize,
    /// Largest total degree a jump-function polynomial may carry.
    pub max_poly_degree: u32,
    /// Largest support set (number of distinct entry slots) a single jump
    /// function may depend on.
    pub max_support: usize,
    /// Clones `clone_by_constants` may create in one round.
    pub max_clones: usize,
    /// Statement-count ceiling for leaf inlining.
    pub max_inline_statements: usize,
}

impl Default for AnalysisLimits {
    fn default() -> Self {
        AnalysisLimits {
            max_solver_iterations: 1_000_000,
            max_symbolic_steps: 10_000_000,
            // The ssa polynomial ring already refuses to build anything
            // larger than this, so the default cannot bite.
            max_poly_terms: ipcp_ssa::poly::Poly::MAX_TERMS,
            max_poly_degree: ipcp_ssa::poly::Poly::MAX_DEGREE,
            max_support: 64,
            max_clones: 64,
            max_inline_statements: 100_000,
        }
    }
}

impl AnalysisLimits {
    /// Adversarially small budgets, for robustness tests: every stage is
    /// likely to degrade on any non-trivial program, and the pipeline must
    /// still terminate with sound (if weak) results.
    pub fn tiny() -> AnalysisLimits {
        AnalysisLimits {
            max_solver_iterations: 4,
            max_symbolic_steps: 16,
            max_poly_terms: 1,
            max_poly_degree: 1,
            max_support: 1,
            max_clones: 1,
            max_inline_statements: 1,
        }
    }
}

/// Deterministic fault injection: artificially exhausts the budget of one
/// stage at its `at`-th budget-counted operation (1-based).
///
/// This exists purely to test the degradation machinery: a trip behaves
/// exactly like the corresponding [`AnalysisLimits`] budget running out,
/// so tests can force each ladder rung deterministically without building
/// pathological inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInjection {
    /// Which stage to trip.
    pub stage: Stage,
    /// Trip on the `at`-th operation charged to that stage (1-based;
    /// `at = 1` trips immediately).
    pub at: u64,
}

/// A wall-clock deadline for the whole analysis.
///
/// Checked *cooperatively*: the solver loops test it once per iteration,
/// the symbolic evaluator every [`Deadline::CHECK_INTERVAL`] transfer
/// steps, and the cloning/inlining drivers once per operation. Expiry
/// therefore overshoots by at most one cooperative-check interval. On
/// expiry every in-flight stage degrades exactly as if its budget had run
/// out (a sound, possibly weaker result) and a `Deadline`-kind
/// degradation event is recorded — the pipeline never hangs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// How many symbolic-evaluation transfer steps may pass between two
    /// deadline checks (the finest-grained cooperative loop).
    pub const CHECK_INTERVAL: u64 = 1024;

    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// A deadline `ms` milliseconds from now (the `--deadline-ms` flag).
    pub fn after_ms(ms: u64) -> Deadline {
        Deadline::after(Duration::from_millis(ms))
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// The raw instant, for callers that thread it into inner loops.
    pub fn instant(&self) -> Instant {
        self.at
    }
}

/// Deterministic panic injection: panics inside the named per-procedure
/// unit of work, exercising the quarantine machinery end to end.
///
/// Unlike [`FaultInjection`] (which mimics a budget running out), this
/// mimics a *bug* — an unexpected panic in one procedure's slice of one
/// phase — and the contract is that only that procedure degrades.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PanicInjection {
    /// Which per-procedure phase to panic in ([`Stage::ModRef`],
    /// [`Stage::Jump`], or [`Stage::RetJump`]).
    pub stage: Stage,
    /// Index of the procedure whose unit of work panics.
    pub proc: usize,
}

/// Full analysis configuration.
///
/// The default is the paper's recommended production setting: pass-through
/// jump functions, MOD information, return jump functions with the §3.2
/// evaluation limitation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Which forward jump function to construct.
    pub jump_fn: JumpFnKind,
    /// Use interprocedural MOD information at call sites (Table 3 compares
    /// `true` vs `false`; `false` makes every call kill every global and
    /// by-reference actual).
    pub use_mod: bool,
    /// Generate and use return jump functions (Table 2's "Using" vs "No
    /// Return Jump Functions").
    pub use_return_jfs: bool,
    /// Extension (off in the paper): compose return jump functions
    /// symbolically with the actual-argument polynomials instead of the
    /// §3.2 limitation ("return jump functions that depend on parameters
    /// to the calling procedure can never be evaluated as constant").
    pub compose_return_jfs: bool,
    /// Extension (off by default): treat globals as holding their
    /// FT-defined initial value `0` on entry to `main`, instead of the
    /// FORTRAN "uninitialized COMMON" assumption (⊥).
    pub assume_zero_globals: bool,
    /// Extension (off in the paper, anticipated by its §4.2 remark on
    /// gated single-assignment form): gate jump-function generation with
    /// a per-procedure SCCP pass, so phi inputs on provably dead paths
    /// and call sites in provably dead blocks are ignored. Subsumes most
    /// of what "complete propagation" buys, without iterating DCE.
    pub gated_jump_fns: bool,
    /// Build *pruned* SSA (liveness-filtered phi placement) instead of
    /// minimal SSA. Pure engineering knob: results are identical (the
    /// pruned phis were unobservable), construction does less work on
    /// phi-heavy programs.
    pub pruned_ssa: bool,
    /// Resource budgets for every analysis stage. The defaults never bind
    /// on realistic inputs; tighten them to trade precision for bounded
    /// work.
    pub limits: AnalysisLimits,
    /// Test hook: deterministically exhaust one stage's budget. `None`
    /// (the default) means budgets only trip when genuinely exhausted.
    pub fault_injection: Option<FaultInjection>,
    /// Per-procedure fault quarantine. When on (the default), each
    /// per-procedure unit of work runs under `catch_unwind`; a panic
    /// degrades only that procedure to a sound worst case instead of
    /// crashing the pipeline. Turn off to let panics propagate (useful
    /// when debugging with a backtrace).
    pub quarantine: bool,
    /// Optional wall-clock deadline for the whole analysis. `None` (the
    /// default) means no time bound.
    pub deadline: Option<Deadline>,
    /// Test hook: panic inside one procedure's unit of work in one phase.
    /// `None` (the default) means no injected panics.
    pub panic_injection: Option<PanicInjection>,
    /// Worker threads for the per-procedure phases (MOD/REF direct
    /// effects, SSA/symbolic + forward jump functions, return jump
    /// functions). `0` (the default) resolves automatically: the
    /// `IPCP_JOBS` environment variable when set, otherwise the machine's
    /// available parallelism. `1` is the sequential path. Results are
    /// bit-identical for every value — see `docs/ROBUSTNESS.md`.
    pub jobs: usize,
    /// Strict mode: any degradation event promotes to
    /// [`IpcpError::ResourceExhausted`](crate::IpcpError) in
    /// [`ipcp::analyze`](crate::analyze) (the `ipcc --strict` exit-code-3
    /// semantics). Off by default — degraded runs stay sound.
    pub strict: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            jump_fn: JumpFnKind::PassThrough,
            use_mod: true,
            use_return_jfs: true,
            compose_return_jfs: false,
            assume_zero_globals: false,
            gated_jump_fns: false,
            pruned_ssa: false,
            limits: AnalysisLimits::default(),
            fault_injection: None,
            quarantine: true,
            deadline: None,
            panic_injection: None,
            jobs: 0,
            strict: false,
        }
    }
}

impl Config {
    /// The paper's strongest standard configuration (polynomial + MOD +
    /// return jump functions).
    pub fn polynomial() -> Config {
        Config {
            jump_fn: JumpFnKind::Polynomial,
            ..Config::default()
        }
    }

    /// Builder-style: set the jump-function kind.
    #[must_use]
    pub fn with_jump_fn(mut self, kind: JumpFnKind) -> Config {
        self.jump_fn = kind;
        self
    }

    /// Builder-style: toggle MOD information.
    #[must_use]
    pub fn with_mod(mut self, on: bool) -> Config {
        self.use_mod = on;
        self
    }

    /// Builder-style: toggle return jump functions.
    #[must_use]
    pub fn with_return_jfs(mut self, on: bool) -> Config {
        self.use_return_jfs = on;
        self
    }

    /// Builder-style: set the resource budgets.
    #[must_use]
    pub fn with_limits(mut self, limits: AnalysisLimits) -> Config {
        self.limits = limits;
        self
    }

    /// Builder-style: arm a fault-injection trip point.
    #[must_use]
    pub fn with_fault(mut self, stage: Stage, at: u64) -> Config {
        self.fault_injection = Some(FaultInjection { stage, at });
        self
    }

    /// Builder-style: toggle per-procedure fault quarantine.
    #[must_use]
    pub fn with_quarantine(mut self, on: bool) -> Config {
        self.quarantine = on;
        self
    }

    /// Builder-style: set a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Config {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style: arm a panic-injection point.
    #[must_use]
    pub fn with_panic(mut self, stage: Stage, proc: usize) -> Config {
        self.panic_injection = Some(PanicInjection { stage, proc });
        self
    }

    /// Builder-style: set the worker-thread count for the per-procedure
    /// phases (`0` = auto-detect, `1` = sequential).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Config {
        self.jobs = jobs;
        self
    }

    /// The worker-thread count this configuration actually runs with.
    ///
    /// `jobs == 0` resolves to the `IPCP_JOBS` environment variable when
    /// it parses as a positive integer, otherwise to the machine's
    /// available parallelism. Quarantine off forces `1`: the point of
    /// `--no-quarantine` is to let a panic propagate with a usable
    /// backtrace, which requires the single-threaded path.
    pub fn effective_jobs(&self) -> usize {
        if !self.quarantine {
            return 1;
        }
        if self.jobs > 0 {
            return self.jobs;
        }
        if let Ok(v) = std::env::var("IPCP_JOBS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// A fluent, validating builder over every configuration axis.
    ///
    /// Unlike the `with_*` methods (which stay available and cannot
    /// fail), [`ConfigBuilder::build`] rejects incompatible combinations
    /// with [`IpcpError::InvalidConfig`](crate::IpcpError) instead of
    /// silently producing a configuration that cannot mean what was
    /// asked for.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder {
            config: Config::default(),
        }
    }

    /// A [`ConfigBuilder`] seeded from this configuration, for deriving
    /// a validated variant of an existing `Config`:
    ///
    /// ```
    /// use ipcp::Config;
    /// let base = Config::polynomial();
    /// let gated = base.rebuild().gated(true).build()?;
    /// assert_eq!(gated.jump_fn, base.jump_fn);
    /// # Ok::<(), ipcp::IpcpError>(())
    /// ```
    pub fn rebuild(self) -> ConfigBuilder {
        ConfigBuilder { config: self }
    }
}

/// Fluent builder for [`Config`], created by [`Config::builder`].
///
/// Every setter mirrors a `Config` field; [`ConfigBuilder::build`]
/// validates the combination and returns `Result<Config, IpcpError>`.
/// The struct-literal and `with_*` paths remain available for callers
/// that want infallible construction.
#[derive(Clone, Copy, Debug)]
pub struct ConfigBuilder {
    config: Config,
}

impl ConfigBuilder {
    /// Which forward jump-function implementation to construct.
    #[must_use]
    pub fn jump_fn_impl(mut self, kind: JumpFnKind) -> Self {
        self.config.jump_fn = kind;
        self
    }

    /// Toggle interprocedural MOD information at call sites.
    #[must_use]
    pub fn mod_info(mut self, on: bool) -> Self {
        self.config.use_mod = on;
        self
    }

    /// Toggle return jump functions.
    #[must_use]
    pub fn return_jfs(mut self, on: bool) -> Self {
        self.config.use_return_jfs = on;
        self
    }

    /// Toggle symbolic composition of return jump functions (extension;
    /// requires return jump functions to be on).
    #[must_use]
    pub fn compose_return_jfs(mut self, on: bool) -> Self {
        self.config.compose_return_jfs = on;
        self
    }

    /// Toggle the zero-initialized-globals extension.
    #[must_use]
    pub fn zero_globals(mut self, on: bool) -> Self {
        self.config.assume_zero_globals = on;
        self
    }

    /// Toggle SCCP-gated jump-function generation.
    #[must_use]
    pub fn gated(mut self, on: bool) -> Self {
        self.config.gated_jump_fns = on;
        self
    }

    /// Toggle pruned (liveness-filtered) SSA construction.
    #[must_use]
    pub fn pruned_ssa(mut self, on: bool) -> Self {
        self.config.pruned_ssa = on;
        self
    }

    /// Set all resource budgets at once.
    #[must_use]
    pub fn limits(mut self, limits: AnalysisLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Cap the number of terms a jump-function polynomial may carry.
    #[must_use]
    pub fn max_poly_terms(mut self, n: usize) -> Self {
        self.config.limits.max_poly_terms = n;
        self
    }

    /// Cap the VAL solver's worklist iterations.
    #[must_use]
    pub fn max_solver_iterations(mut self, n: u64) -> Self {
        self.config.limits.max_solver_iterations = n;
        self
    }

    /// Set the worker-thread count (`0` = auto, `1` = sequential).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = jobs;
        self
    }

    /// Set a wall-clock deadline `ms` milliseconds from now.
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.config.deadline = Some(Deadline::after_ms(ms));
        self
    }

    /// Set an explicit wall-clock deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Toggle strict mode (degradation → error in [`crate::analyze`]).
    #[must_use]
    pub fn strict(mut self, on: bool) -> Self {
        self.config.strict = on;
        self
    }

    /// Toggle per-procedure fault quarantine.
    #[must_use]
    pub fn quarantine(mut self, on: bool) -> Self {
        self.config.quarantine = on;
        self
    }

    /// Arm a deterministic fault-injection trip point.
    #[must_use]
    pub fn fault(mut self, stage: Stage, at: u64) -> Self {
        self.config.fault_injection = Some(FaultInjection { stage, at });
        self
    }

    /// Arm a deterministic panic-injection point.
    #[must_use]
    pub fn inject_panic(mut self, stage: Stage, proc: usize) -> Self {
        self.config.panic_injection = Some(PanicInjection { stage, proc });
        self
    }

    /// Validate the combination and produce the [`Config`].
    ///
    /// Rejected combinations:
    /// * `jobs > 1` with quarantine off — `--no-quarantine` exists to let
    ///   a panic propagate with a backtrace, which requires the
    ///   single-threaded path (a multi-worker run would abort the process
    ///   on the first worker panic instead);
    /// * composing return jump functions while return jump functions are
    ///   disabled — there would be nothing to compose;
    /// * a fault-injection trip point of `0` — trip points are 1-based.
    pub fn build(self) -> Result<Config, crate::IpcpError> {
        let c = self.config;
        if c.jobs > 1 && !c.quarantine {
            return Err(crate::IpcpError::InvalidConfig(
                "jobs > 1 requires quarantine: --no-quarantine exists to \
                 propagate panics with a backtrace, which needs the \
                 single-threaded path (use --jobs 1)"
                    .to_string(),
            ));
        }
        if c.compose_return_jfs && !c.use_return_jfs {
            return Err(crate::IpcpError::InvalidConfig(
                "--compose-return-jfs requires return jump functions \
                 (remove --no-return-jfs)"
                    .to_string(),
            ));
        }
        if let Some(f) = c.fault_injection {
            if f.at == 0 {
                return Err(crate::IpcpError::InvalidConfig(
                    "fault-injection trip points are 1-based; at = 0 \
                     would never trip"
                        .to_string(),
                ));
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_ordered_weakest_first() {
        assert!(JumpFnKind::Literal < JumpFnKind::IntraproceduralConstant);
        assert!(JumpFnKind::IntraproceduralConstant < JumpFnKind::PassThrough);
        assert!(JumpFnKind::PassThrough < JumpFnKind::Polynomial);
        assert_eq!(JumpFnKind::ALL.len(), 4);
    }

    #[test]
    fn default_is_the_recommended_setting() {
        let c = Config::default();
        assert_eq!(c.jump_fn, JumpFnKind::PassThrough);
        assert!(c.use_mod);
        assert!(c.use_return_jfs);
        assert!(!c.compose_return_jfs);
    }

    #[test]
    fn builders_compose() {
        let c = Config::polynomial().with_mod(false).with_return_jfs(false);
        assert_eq!(c.jump_fn, JumpFnKind::Polynomial);
        assert!(!c.use_mod);
        assert!(!c.use_return_jfs);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            JumpFnKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn stage_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Stage::ALL.len());
    }

    #[test]
    fn default_limits_are_generous_and_tiny_limits_are_not() {
        let d = AnalysisLimits::default();
        let t = AnalysisLimits::tiny();
        assert!(d.max_solver_iterations > 100_000);
        assert!(d.max_poly_terms >= ipcp_ssa::poly::Poly::MAX_TERMS);
        assert!(t.max_solver_iterations < d.max_solver_iterations);
        assert!(t.max_poly_terms < d.max_poly_terms);
    }

    #[test]
    fn fault_builder_arms_the_hook() {
        let c = Config::default().with_fault(Stage::Solver, 3);
        assert_eq!(
            c.fault_injection,
            Some(FaultInjection {
                stage: Stage::Solver,
                at: 3
            })
        );
        assert_eq!(Config::default().fault_injection, None);
    }

    #[test]
    fn quarantine_is_on_by_default_and_toggles() {
        assert!(Config::default().quarantine);
        assert!(!Config::default().with_quarantine(false).quarantine);
    }

    #[test]
    fn panic_builder_arms_the_hook() {
        let c = Config::default().with_panic(Stage::Jump, 2);
        assert_eq!(
            c.panic_injection,
            Some(PanicInjection {
                stage: Stage::Jump,
                proc: 2
            })
        );
        assert_eq!(Config::default().panic_injection, None);
    }

    #[test]
    fn builder_defaults_match_config_default() {
        let built = Config::builder().build().expect("default builds");
        assert_eq!(built, Config::default());
    }

    #[test]
    fn builder_sets_every_axis() {
        let c = Config::builder()
            .jump_fn_impl(JumpFnKind::Polynomial)
            .mod_info(false)
            .return_jfs(true)
            .compose_return_jfs(true)
            .zero_globals(true)
            .gated(true)
            .pruned_ssa(true)
            .max_poly_terms(7)
            .max_solver_iterations(99)
            .jobs(4)
            .strict(true)
            .build()
            .expect("valid combination");
        assert_eq!(c.jump_fn, JumpFnKind::Polynomial);
        assert!(!c.use_mod);
        assert!(c.compose_return_jfs && c.use_return_jfs);
        assert!(c.assume_zero_globals && c.gated_jump_fns && c.pruned_ssa);
        assert_eq!(c.limits.max_poly_terms, 7);
        assert_eq!(c.limits.max_solver_iterations, 99);
        assert_eq!(c.jobs, 4);
        assert!(c.strict);
    }

    #[test]
    fn builder_rejects_parallel_without_quarantine() {
        let err = Config::builder().jobs(4).quarantine(false).build();
        assert!(matches!(err, Err(crate::IpcpError::InvalidConfig(_))));
        // jobs = 1 without quarantine is fine: that IS the sequential path.
        assert!(Config::builder().jobs(1).quarantine(false).build().is_ok());
    }

    #[test]
    fn builder_rejects_compose_without_return_jfs() {
        let err = Config::builder()
            .return_jfs(false)
            .compose_return_jfs(true)
            .build();
        assert!(matches!(err, Err(crate::IpcpError::InvalidConfig(_))));
    }

    #[test]
    fn builder_rejects_zero_fault_trip_point() {
        let err = Config::builder().fault(Stage::Solver, 0).build();
        assert!(matches!(err, Err(crate::IpcpError::InvalidConfig(_))));
        assert!(Config::builder().fault(Stage::Solver, 1).build().is_ok());
    }

    #[test]
    fn effective_jobs_explicit_and_quarantine_override() {
        assert_eq!(Config::default().with_jobs(3).effective_jobs(), 3);
        // Quarantine off forces the sequential path regardless of jobs.
        let c = Config::default().with_quarantine(false).with_jobs(8);
        assert_eq!(c.effective_jobs(), 1);
        // Auto-detect resolves to something positive.
        assert!(Config::default().effective_jobs() >= 1);
    }

    #[test]
    fn deadlines_expire_and_far_deadlines_do_not() {
        let past = Deadline::after(Duration::from_secs(0));
        assert!(past.expired());
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        // Deadline is Copy + Eq so Config stays Copy + Eq.
        let c = Config::default().with_deadline(far);
        assert_eq!(c.deadline, Some(far));
    }
}
