//! # ipcp — Interprocedural Constant Propagation with Jump Functions
//!
//! A from-scratch implementation of the interprocedural constant
//! propagation framework of Callahan, Cooper, Kennedy, and Torczon
//! (SIGPLAN '86), evaluated the way Grove and Torczon's PLDI 1993 study
//! did: four forward jump-function implementations, polynomial return jump
//! functions, MOD-information ablation, and the iterated
//! propagate-and-prune "complete propagation".
//!
//! The analysis computes, for every procedure `p` of an FT program, the
//! set `CONSTANTS(p)` of `(name, value)` pairs that hold on **every**
//! entry to `p`, and measures usefulness by textually substituting those
//! constants into the code.
//!
//! ## Quick start
//!
//! ```
//! use ipcp::{analyze_source, Config, JumpFnKind};
//!
//! let src = r#"
//!     global size;
//!     proc main() {
//!         size = 128;
//!         call smooth(size / 2, 3);
//!     }
//!     proc smooth(n, passes) {
//!         do p = 1, passes {
//!             do i = 1, n { print i * p; }
//!         }
//!     }
//! "#;
//! let (mcfg, analysis) = analyze_source(src, &Config::default())?;
//! let smooth = mcfg.module.proc_named("smooth").unwrap().id;
//! let consts = analysis.constants_of(&mcfg, smooth);
//! assert!(consts.contains(&("n".to_string(), 64)));
//! assert!(consts.contains(&("passes".to_string(), 3)));
//! assert!(consts.contains(&("size".to_string(), 128)));
//!
//! // The Metzger–Stroud usefulness metric: constants substituted.
//! let substituted = analysis.substitution_counts(&mcfg);
//! assert!(substituted.total > 0);
//! # Ok::<(), ipcp::IpcpError>(())
//! ```
//!
//! ## Crate map
//!
//! * [`config`] — the experimental axes: [`JumpFnKind`], MOD on/off,
//!   return jump functions on/off, composition extension;
//! * [`jump`] — forward jump functions and their construction;
//! * [`retjump`] — return jump functions (bottom-up generation and the
//!   §3.2 evaluation limitation);
//! * [`solver`] — the wavefront propagation of `VAL` sets over the
//!   levels of the call-graph SCC condensation, plus the classic §4.1
//!   worklist retained as a reference oracle (lattice re-exported as [`lattice`], the paper's
//!   Figure 1);
//! * [`mod@substitute`] — the constants-substituted metric and program
//!   transformation;
//! * [`complete`] — propagate ⇄ dead-code-eliminate to fixpoint;
//! * [`cloning`] — procedure cloning driven by incoming constant vectors
//!   (the application pursued by Metzger–Stroud and Cooper–Hall–Kennedy);
//! * [`health`] — analysis budgets, the degradation governor, and run
//!   telemetry (see `docs/ROBUSTNESS.md`);
//! * [`serve`] — the crash-isolated incremental analysis service behind
//!   `ipcc serve`: content-hash-keyed summary cache, transactional
//!   commits, and the typed request engine (see `docs/SERVE.md`);
//! * [`error`] — the unified [`IpcpError`] taxonomy over front-end
//!   diagnostics, interpreter faults, and exhausted budgets.

pub mod binding;
pub mod cloning;
pub mod complete;
pub mod config;
pub mod error;
pub mod explain;
pub mod health;
pub mod inline;
pub mod jump;
pub mod par;
pub mod pipeline;
pub mod quarantine;
pub mod reduce;
pub mod report;
pub mod resource;
pub mod retjump;
pub mod serve;
pub mod solver;
pub mod substitute;

/// The constant-propagation lattice of the paper's Figure 1 (re-exported
/// from the SSA layer, which shares it).
pub mod lattice {
    pub use ipcp_ssa::lattice::Lattice;
}

pub use binding::solve_binding_graph;
pub use cloning::{clone_by_constants, cloning_gain, CloneResult};
pub use complete::{complete_propagation, CompleteResult};
pub use config::{
    AnalysisLimits, Config, ConfigBuilder, Deadline, FaultInjection, JumpFnKind, PanicInjection,
    Stage,
};
pub use error::IpcpError;
pub use explain::{explain, Explanation};
pub use health::{AnalysisHealth, DegradationEvent, DegradationKind, Governor};
pub use inline::{inline_leaf_calls, integrate_and_count, InlineResult};
pub use ipcp_ssa::DeadlineLatch;
pub use jump::{ForwardJumpFns, JumpFn};
pub use lattice::Lattice;
pub use par::{PhaseTime, Timings};
pub use pipeline::{analyze, analyze_source, Analysis, PhaseFold, PhaseUnit, UnitError};
pub use reduce::{
    ddmin_text, is_interesting, reduce, reduce_with_prepass, soundness_violation, ReduceCheck,
    ReduceOutcome, StructuralPass,
};
pub use report::{CostReport, PhaseReport, PhaseRow};
pub use resource::peak_rss_bytes;
pub use retjump::{build_return_jfs, ReturnJumpFns};
pub use serve::{ServeEngine, ServeError, SummaryCache};
pub use solver::{solve, solve_worklist_reference, ValSets};
pub use substitute::{
    count_intraprocedural, count_proc, substitute, substitute_intraprocedural, substitution_counts,
    Substitution, SubstitutionCounts,
};
