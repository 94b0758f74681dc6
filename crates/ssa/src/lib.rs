//! # ipcp-ssa — SSA-based intraprocedural analyses for the IPCP study
//!
//! The per-procedure machinery under the interprocedural constant
//! propagation of the `ipcp` crate:
//!
//! * [`lattice`] — the three-level constant lattice of the paper's
//!   Figure 1 (⊤ / constant / ⊥) and its meet operator;
//! * [`dominators`] — Cooper–Harvey–Kennedy iterative dominators and
//!   Cytron dominance frontiers;
//! * [`ssa`] — SSA construction producing a *value graph* with explicit
//!   opaque sources (entries, reads, array loads, call-modified values);
//!   it hash-conses pure expressions, so equal operators over equal
//!   operands share one value (the value numbering the symbolic
//!   evaluator relies on);
//! * [`poly`] — exact multivariate polynomials over entry slots, with
//!   constants and `c·x + k` stored inline;
//! * [`symbolic`] — the polynomial symbolic evaluator behind `gcp(y, s)`
//!   and the polynomial/pass-through jump-function shapes;
//! * [`sccp`] — Wegman–Zadeck sparse conditional constant propagation,
//!   seedable with interprocedural entry constants;
//! * [`dce`] — SCCP-driven branch folding for the "complete propagation"
//!   experiment.
//!
//! Call effects are abstracted behind small oracle traits
//! ([`ssa::CallKills`], [`symbolic::CallDefEval`], [`sccp::CallDefLattice`])
//! so the interprocedural layer can plug in MOD sets and return jump
//! functions while this crate stays independent of them.

mod csr;
pub mod dce;
pub mod dominators;
pub mod lattice;
pub mod liveness;
pub mod poly;
pub mod sccp;
pub mod ssa;
pub mod symbolic;

pub use dominators::{dominance_frontiers, DomTree};
pub use lattice::Lattice;
pub use poly::{Poly, PolyVar};
pub use sccp::{CallDefLattice, OpaqueCallsLattice, SccpResult, Seeds};
pub use ssa::{
    build_ssa, build_ssa_pruned, CallKills, ModKills, SsaProc, StmtInfo, Users, ValueId, ValueKind,
    WorstCaseKills,
};
pub use symbolic::{
    CallActuals, CallDefEval, DeadlineLatch, OpaqueCalls, RetTarget, SymVal, Symbolic,
};
