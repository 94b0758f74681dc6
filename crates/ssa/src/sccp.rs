//! Sparse conditional constant propagation (Wegman–Zadeck) over the SSA
//! value graph.
//!
//! SCCP is the *intraprocedural* constant propagator of the study: seeded
//! with a procedure's interprocedural entry constants (`VAL` sets), it
//! discovers every scalar value that is constant along all executable
//! paths, pruning branches whose conditions fold. Its results drive
//!
//! * the constants-substituted metric (count the variable occurrences
//!   whose reaching SSA value is constant),
//! * dead-branch detection for the "complete propagation" experiment, and
//! * the purely intraprocedural baseline (empty seeds — Table 3 col. 4).

use crate::lattice::Lattice;
use crate::ssa::{SsaProc, ValueId, ValueKind};
use crate::symbolic::{ret_target_in, CallActuals, RetTarget};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::cfg::{BlockId, Cfg, Terminator};
use ipcp_ir::interp::eval_binop;
use ipcp_ir::lang::ast::UnOp;
use ipcp_ir::program::{ProcId, VarId};
use std::collections::HashSet;

/// Lattice oracle for call-modified variables (the SCCP analogue of
/// [`crate::symbolic::CallDefEval`]). Implemented with return jump
/// functions by the `ipcp` crate; [`OpaqueCallsLattice`] is the
/// no-information default. Implementations must be monotone.
pub trait CallDefLattice {
    /// Lattice value of `target` after `callee` returns, given the lattice
    /// values of the actuals and of the scalar globals at the call (a
    /// missing actual — an array — is ⊥).
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        actuals: &CallActuals<'_, Lattice>,
    ) -> Lattice;
}

/// Every call-modified variable is ⊥.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpaqueCallsLattice;

impl CallDefLattice for OpaqueCallsLattice {
    fn eval_call_def(&self, _: ProcId, _: RetTarget, _: &CallActuals<'_, Lattice>) -> Lattice {
        Lattice::Bottom
    }
}

/// Entry seeds: the lattice value of each variable's entry value.
///
/// Indexed by `VarId`; variables without an entry (locals, arrays) are
/// ignored. [`Seeds::none`] gives the purely intraprocedural configuration
/// (every formal/global entry is ⊥).
#[derive(Clone, Debug, Default)]
pub struct Seeds {
    by_var: Vec<Lattice>,
}

impl Seeds {
    /// All entries ⊥ — no interprocedural information.
    pub fn none(n_vars: usize) -> Seeds {
        Seeds {
            by_var: vec![Lattice::Bottom; n_vars],
        }
    }

    /// Builds seeds from per-variable lattice values.
    pub fn from_vars(by_var: Vec<Lattice>) -> Seeds {
        Seeds { by_var }
    }

    /// The seed for `v` (⊥ when out of range).
    pub fn seed(&self, v: VarId) -> Lattice {
        self.by_var
            .get(v.index())
            .copied()
            .unwrap_or(Lattice::Bottom)
    }
}

/// The SCCP fixpoint for one procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SccpResult {
    /// Lattice value per SSA value.
    pub values: Vec<Lattice>,
    /// Whether each block was found executable.
    pub block_exec: Vec<bool>,
    /// Executable CFG edges `(from, to)`.
    pub edge_exec: HashSet<(BlockId, BlockId)>,
}

impl SccpResult {
    /// The lattice value of `v`.
    pub fn value(&self, v: ValueId) -> Lattice {
        self.values[v.index()]
    }

    /// Whether the branch terminating `b` folds to a single successor
    /// (`Some(taken)`), given this fixpoint.
    pub fn folded_branch(&self, cfg: &Cfg, b: BlockId, ssa: &SsaProc) -> Option<BlockId> {
        if !self.block_exec[b.index()] {
            return None;
        }
        let Terminator::Branch {
            then_bb, else_bb, ..
        } = &cfg.block(b).term
        else {
            return None;
        };
        let cond = ssa.term_cond(b)?;
        match self.value(cond) {
            Lattice::Const(c) => Some(if c != 0 { *then_bb } else { *else_bb }),
            _ => None,
        }
    }
}

/// Runs SCCP over `ssa` with the given entry seeds and call oracle.
///
/// Pure values (constants, arithmetic, entries, call defs) are evaluated
/// optimistically over the whole graph; flow sensitivity enters through
/// phi nodes, which meet only over *executable* incoming edges, and
/// through branch terminators, which open successor edges only when their
/// condition allows.
pub fn run(
    mcfg: &ModuleCfg,
    ssa: &SsaProc,
    seeds: &Seeds,
    oracle: &dyn CallDefLattice,
) -> SccpResult {
    let cfg = mcfg.cfg(ssa.proc);
    let proc = mcfg.module.proc(ssa.proc);
    let n = ssa.len();
    let mut values = vec![Lattice::Top; n];
    let mut block_exec = vec![false; cfg.len()];
    let mut edge_exec: HashSet<(BlockId, BlockId)> = HashSet::new();
    let users = ssa.users();

    // Map each condition value to the blocks whose branch it controls.
    let mut cond_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for bi in 0..ssa.n_blocks() {
        let b = BlockId::from(bi);
        if let Some(c) = ssa.term_cond(b) {
            cond_blocks[c.index()].push(b);
        }
    }

    let eval =
        |values: &[Lattice], edge_exec: &HashSet<(BlockId, BlockId)>, v: ValueId| -> Lattice {
            match ssa.value(v) {
                ValueKind::Entry { var } => seeds.seed(*var),
                ValueKind::Const(c) => Lattice::Const(*c),
                ValueKind::ReadInput { .. } | ValueKind::Load { .. } => Lattice::Bottom,
                ValueKind::Unary(op, x) => match (op, values[x.index()]) {
                    (_, Lattice::Top) => Lattice::Top,
                    (_, Lattice::Bottom) => Lattice::Bottom,
                    (UnOp::Neg, Lattice::Const(c)) => {
                        c.checked_neg().map_or(Lattice::Bottom, Lattice::Const)
                    }
                    (UnOp::Not, Lattice::Const(c)) => Lattice::Const(i64::from(c == 0)),
                },
                ValueKind::Binary(op, a, b) => match (values[a.index()], values[b.index()]) {
                    (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
                    (Lattice::Top, _) | (_, Lattice::Top) => Lattice::Top,
                    (Lattice::Const(x), Lattice::Const(y)) => {
                        eval_binop(*op, x, y).map_or(Lattice::Bottom, Lattice::Const)
                    }
                },
                ValueKind::Phi { block, .. } => {
                    let mut acc = Lattice::Top;
                    for &(pred, arg) in ssa.phi_args(v) {
                        if edge_exec.contains(&(pred, *block)) {
                            acc = acc.meet(values[arg.index()]);
                        }
                    }
                    acc
                }
                ValueKind::CallDef { site, callee, var } => {
                    let Some(target) = ret_target_in(proc, cfg, *site, *var) else {
                        return Lattice::Bottom;
                    };
                    match CallActuals::at(ssa, *site, values) {
                        Some(actuals) => oracle.eval_call_def(*callee, target, &actuals),
                        None => Lattice::Bottom,
                    }
                }
            }
        };

    // Seed: evaluate every value once; enter at the entry block.
    let mut ssa_work: Vec<ValueId> = (0..n).rev().map(ValueId::from).collect();
    let mut flow_work: Vec<BlockId> = vec![cfg.entry];

    while !flow_work.is_empty() || !ssa_work.is_empty() {
        while let Some(v) = ssa_work.pop() {
            let next = eval(&values, &edge_exec, v);
            if next != values[v.index()] {
                values[v.index()] = next;
                ssa_work.extend(users[v.index()].iter().copied());
                for &b in &cond_blocks[v.index()] {
                    if block_exec[b.index()] {
                        flow_work.push(b);
                    }
                }
            }
        }
        let Some(b) = flow_work.pop() else { continue };
        block_exec[b.index()] = true;
        match &cfg.block(b).term {
            Terminator::Jump(t) => {
                mark_edge(b, *t, &mut edge_exec, &mut flow_work, &mut ssa_work, ssa);
            }
            Terminator::Return => {}
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                // Lowering attaches a condition value to every branch; if
                // it were ever missing, ⊥ (both arms live) is the safe read.
                let cond = ssa
                    .term_cond(b)
                    .map_or(Lattice::Bottom, |c| values[c.index()]);
                match cond {
                    Lattice::Top => {} // wait for the condition to resolve
                    Lattice::Const(c) => {
                        let t = if c != 0 { *then_bb } else { *else_bb };
                        mark_edge(b, t, &mut edge_exec, &mut flow_work, &mut ssa_work, ssa);
                    }
                    Lattice::Bottom => {
                        mark_edge(
                            b,
                            *then_bb,
                            &mut edge_exec,
                            &mut flow_work,
                            &mut ssa_work,
                            ssa,
                        );
                        mark_edge(
                            b,
                            *else_bb,
                            &mut edge_exec,
                            &mut flow_work,
                            &mut ssa_work,
                            ssa,
                        );
                    }
                }
            }
        }
    }

    SccpResult {
        values,
        block_exec,
        edge_exec,
    }
}

fn mark_edge(
    from: BlockId,
    to: BlockId,
    edge_exec: &mut HashSet<(BlockId, BlockId)>,
    flow_work: &mut Vec<BlockId>,
    ssa_work: &mut Vec<ValueId>,
    ssa: &SsaProc,
) {
    if edge_exec.insert((from, to)) {
        // Phis in the target must re-meet over the widened edge set, and
        // the target's terminator must be (re)examined.
        ssa_work.extend(ssa.phis(to).iter().copied());
        flow_work.push(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::{build_ssa, ModKills, StmtInfo};
    use ipcp_analysis::{build_call_graph, compute_modref};
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn sccp_for(src: &str, name: &str) -> (ipcp_ir::ModuleCfg, SsaProc, SccpResult) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let pid = m.module.proc_named(name).unwrap().id;
        let ssa = build_ssa(&m, pid, &ModKills(&mr));
        let n_vars = m.module.proc(pid).vars.len();
        let res = run(&m, &ssa, &Seeds::none(n_vars), &OpaqueCallsLattice);
        (m, ssa, res)
    }

    fn printed_lattices(src: &str, name: &str) -> Vec<Lattice> {
        let (_, ssa, res) = sccp_for(src, name);
        let mut out = Vec::new();
        for b in 0..ssa.n_blocks() {
            for s in ssa.stmts(ipcp_ir::cfg::BlockId::from(b)) {
                if let StmtInfo::Print { value, .. } = s {
                    out.push(res.value(value));
                }
            }
        }
        out
    }

    #[test]
    fn folds_straight_line_constants() {
        assert_eq!(
            printed_lattices("proc main() { x = 3; y = x * 4; print y + 2; }", "main"),
            vec![Lattice::Const(14)]
        );
    }

    #[test]
    fn conditional_constant_propagation_prunes_dead_branch() {
        // The classic SCCP win: x==1 on both the fall-through path and the
        // path through the (dead) branch body.
        let lats = printed_lattices(
            "proc main() { x = 1; if (x != 1) { x = 2; } print x; }",
            "main",
        );
        assert_eq!(lats, vec![Lattice::Const(1)]);
    }

    #[test]
    fn flow_insensitive_merge_would_lose_this() {
        let (_, ssa, res) = sccp_for(
            "proc main() { x = 1; if (x == 1) { x = 2; } print x; }",
            "main",
        );
        // Here the branch is taken: x is 2 at the print.
        let mut printed = Vec::new();
        for b in 0..ssa.n_blocks() {
            for s in ssa.stmts(ipcp_ir::cfg::BlockId::from(b)) {
                if let StmtInfo::Print { value, .. } = s {
                    printed.push(res.value(value));
                }
            }
        }
        assert_eq!(printed, vec![Lattice::Const(2)]);
    }

    #[test]
    fn unknown_branches_meet_both_sides() {
        assert_eq!(
            printed_lattices(
                "proc main() { read c; if (c) { x = 1; } else { x = 2; } print x; }",
                "main"
            ),
            vec![Lattice::Bottom]
        );
        assert_eq!(
            printed_lattices(
                "proc main() { read c; if (c) { x = 7; } else { x = 7; } print x; }",
                "main"
            ),
            vec![Lattice::Const(7)]
        );
    }

    #[test]
    fn dead_blocks_are_not_executable() {
        let (m, ssa, res) = sccp_for(
            "proc main() { debug = 0; if (debug) { print 111; } print 1; }",
            "main",
        );
        let cfg = m.cfg(ssa.proc);
        // Find the block printing 111; it must be non-executable.
        for (bi, blk) in cfg.blocks.iter().enumerate() {
            for s in &blk.stmts {
                if let ipcp_ir::cfg::CStmt::Print { value } = s {
                    if matches!(value, ipcp_ir::program::Expr::Const(111, _)) {
                        assert!(!res.block_exec[bi]);
                    }
                }
            }
        }
        // And the fold is reported.
        let folded: Vec<_> = (0..cfg.len())
            .filter_map(|b| res.folded_branch(cfg, BlockId::from(b), &ssa))
            .collect();
        assert_eq!(folded.len(), 1);
    }

    #[test]
    fn constant_loop_bound_zero_trips_folds() {
        // do i = 1, 0 never runs: values after the loop keep constants.
        assert_eq!(
            printed_lattices(
                "proc main() { x = 5; do i = 1, 0 { x = 77; } print x; }",
                "main"
            ),
            vec![Lattice::Const(5)]
        );
    }

    #[test]
    fn loop_accumulation_is_bottom() {
        assert_eq!(
            printed_lattices(
                "proc main() { read n; s = 0; do i = 1, n { s = s + 1; } print s; }",
                "main"
            ),
            vec![Lattice::Bottom]
        );
    }

    #[test]
    fn constant_trip_loop_final_value() {
        // SCCP does not unroll: i is ⊥ inside a real loop even with
        // constant bounds (the phi merges 1 and i+1).
        assert_eq!(
            printed_lattices("proc main() { do i = 1, 3 { print i; } }", "main"),
            vec![Lattice::Bottom]
        );
    }

    #[test]
    fn seeds_flow_into_formals() {
        let src = "proc main() { call f(41); } proc f(a) { print a + 1; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let f = m.module.proc_named("f").unwrap();
        let ssa = build_ssa(&m, f.id, &ModKills(&mr));
        let mut by_var = vec![Lattice::Bottom; f.vars.len()];
        by_var[f.formals[0].index()] = Lattice::Const(41);
        let res = run(&m, &ssa, &Seeds::from_vars(by_var), &OpaqueCallsLattice);
        let mut printed = Vec::new();
        for b in 0..ssa.n_blocks() {
            for s in ssa.stmts(ipcp_ir::cfg::BlockId::from(b)) {
                if let StmtInfo::Print { value, .. } = s {
                    printed.push(res.value(value));
                }
            }
        }
        assert_eq!(printed, vec![Lattice::Const(42)]);
    }

    #[test]
    fn seeded_condition_prunes_interprocedurally_dead_code() {
        let src = "global mode; proc main() { mode = 0; call f(); } \
                   proc f() { if (mode == 0) { print 1; } else { print 2; } }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let f = m.module.proc_named("f").unwrap();
        let ssa = build_ssa(&m, f.id, &ModKills(&mr));
        let mode = f.var_named("mode").unwrap();
        let mut by_var = vec![Lattice::Bottom; f.vars.len()];
        by_var[mode.index()] = Lattice::Const(0);
        let res = run(&m, &ssa, &Seeds::from_vars(by_var), &OpaqueCallsLattice);
        let cfg = m.cfg(f.id);
        let folded: Vec<_> = (0..cfg.len())
            .filter_map(|b| res.folded_branch(cfg, BlockId::from(b), &ssa))
            .collect();
        assert_eq!(folded.len(), 1);
    }

    #[test]
    fn division_by_zero_in_fold_is_bottom() {
        assert_eq!(
            printed_lattices("proc main() { x = 0; print 1 / x; }", "main"),
            vec![Lattice::Bottom]
        );
    }

    #[test]
    fn call_kills_are_bottom_without_oracle() {
        assert_eq!(
            printed_lattices(
                "global g; proc main() { g = 1; call f(); print g; } proc f() { g = 2; }",
                "main"
            ),
            vec![Lattice::Bottom]
        );
    }

    #[test]
    fn unmodified_values_survive_calls() {
        assert_eq!(
            printed_lattices(
                "global g; proc main() { g = 1; x = 4; call f(); print g + x; } proc f() { print 0; }",
                "main"
            ),
            // f prints 0 (its own const); main prints g + x = 5.
            vec![Lattice::Const(5)]
        );
    }
}
