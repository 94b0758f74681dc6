//! # ipcp-analysis — call graph and interprocedural side-effect summaries
//!
//! Two classic whole-program analyses over the FT [`ModuleCfg`]:
//!
//! * [`callgraph`] builds the call (multi-)graph `G` the propagation runs
//!   on — one node per procedure, one edge per call *site* — along with
//!   strongly connected components in bottom-up (reverse topological)
//!   order, which is the evaluation order for return jump functions.
//! * [`modref`] computes flow-insensitive MOD and REF summary sets in the
//!   style of Cooper–Kennedy: for each procedure, which formals and which
//!   globals may be modified (or referenced) by an invocation, including
//!   effects transmitted through by-reference parameter bindings.
//!
//! The Grove–Torczon study found MOD information decisive: without it the
//! jump-function generator must assume every call kills every global and
//! every by-reference actual (Table 3, column 1). [`ModRef::killed_by_call`]
//! and [`worst_case_killed`] implement exactly those two behaviours.
//!
//! [`ModuleCfg`]: ipcp_ir::ModuleCfg

pub mod callgraph;
pub mod keys;
pub mod modref;

pub use callgraph::{build_call_graph, calls_from, CallEdge, CallGraph};
pub use keys::{summary_keys, update_summary_keys, SummaryKeys};
pub use modref::{
    compute_modref, direct_effects, propagate_modref, ref_bindings, worst_case_killed, ModRef,
    ModSet,
};
