//! Constant substitution — the study's effectiveness metric.
//!
//! Following Metzger and Stroud (and §4.1 "Recording the results"), the
//! number reported for a configuration is the number of constants the
//! analyzer could *textually substitute into the code*: every scalar
//! variable occurrence whose reaching value is a known constant is
//! replaced by that constant and counted. This measures useful constants
//! (a known-but-unreferenced global counts for nothing) and factors out
//! procedure length and modularity.
//!
//! The substitution pass seeds each procedure's SCCP with its
//! interprocedural `VAL` set, then counts the constant occurrences in the
//! executable blocks ([`count_proc`], the one counting rule).
//! [`substitution_counts`] stops there — the metric alone, with each
//! procedure's SCCP result dropped as soon as it is counted. [`substitute`]
//! also rewrites the occurrences and returns the transformed program so
//! tests can check behaviour is preserved.

use crate::pipeline::Analysis;
use ipcp_ir::cfg::{BlockId, CStmt, Cfg, ModuleCfg, Terminator};
use ipcp_ir::program::{Expr, Module, ProcId, VarKind};
use ipcp_ir::span::Span;
use ipcp_ir::Table;
use ipcp_ssa::sccp::{self, CallDefLattice, OpaqueCallsLattice, SccpResult, Seeds};
use ipcp_ssa::ssa::{build_ssa, ModKills, SsaProc, StmtInfo};
use ipcp_ssa::{Lattice, ValueId};
use std::sync::Arc;

/// The outcome of a substitution pass.
#[derive(Debug)]
pub struct Substitution {
    /// Constants substituted per procedure.
    pub counts: Vec<usize>,
    /// Total across the program.
    pub total: usize,
    /// The transformed program (constants folded into expressions).
    pub module: ModuleCfg,
    /// The per-procedure SCCP fixpoints (reachable procedures only) —
    /// reused by the complete-propagation driver for branch pruning.
    pub sccps: Vec<Option<SccpResult>>,
    /// Source locations of the replaced occurrences with their values —
    /// the raw material for [`Substitution::to_source`].
    pub replacements: Vec<(Span, i64)>,
}

/// The substitution metric without the transformed program: the
/// `counts` and `total` a [`Substitution`] would report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubstitutionCounts {
    /// Constants substituted per procedure.
    pub counts: Table<usize>,
    /// Total across the program.
    pub total: usize,
}

impl From<Vec<usize>> for SubstitutionCounts {
    fn from(counts: Vec<usize>) -> SubstitutionCounts {
        SubstitutionCounts {
            total: counts.iter().sum(),
            counts: counts.into(),
        }
    }
}

impl From<Table<usize>> for SubstitutionCounts {
    fn from(counts: Table<usize>) -> SubstitutionCounts {
        SubstitutionCounts {
            total: counts.iter().sum(),
            counts,
        }
    }
}

/// Maps a procedure's `VAL` vector (indexed by entry slot) onto SCCP
/// seeds (indexed by `VarId`).
pub(crate) fn seeds_from_vals(
    mcfg: &ModuleCfg,
    layout: &ipcp_ir::program::SlotLayout,
    p: ProcId,
    vals: &[Lattice],
) -> Seeds {
    let proc = mcfg.module.proc(p);
    let by_var = proc
        .vars
        .iter()
        .map(|info| match info.kind {
            VarKind::Formal(i) => vals.get(i).copied().unwrap_or(Lattice::Bottom),
            VarKind::Global(g) => layout
                .global_slot(proc.arity(), g)
                .and_then(|s| vals.get(s).copied())
                .unwrap_or(Lattice::Bottom),
            VarKind::Local => Lattice::Bottom,
        })
        .collect();
    Seeds::from_vars(by_var)
}

/// Seeds for procedure `p` taken from the analysis `VAL` sets.
fn seeds_for(analysis: &Analysis, mcfg: &ModuleCfg, p: ProcId) -> Seeds {
    seeds_from_vals(mcfg, &analysis.layout, p, analysis.vals.of(p))
}

/// Runs the seeded substitution for every reachable procedure.
pub fn substitute(mcfg: &ModuleCfg, analysis: &Analysis) -> Substitution {
    let oracle = analysis.sccp_oracle(mcfg);
    run_substitution(mcfg, analysis, oracle.as_ref(), |p| {
        seeds_for(analysis, mcfg, p)
    })
}

/// The counts [`substitute`] reports, without building the transformed
/// program.
pub fn substitution_counts(mcfg: &ModuleCfg, analysis: &Analysis) -> SubstitutionCounts {
    let oracle = analysis.sccp_oracle(mcfg);
    run_counts(mcfg, analysis, oracle.as_ref(), |p| {
        seeds_for(analysis, mcfg, p)
    })
}

/// The counts of `analysis` over `mcfg`, derived from `prev_counts`, the
/// counts of an earlier analysis `prev` over `prev_mcfg`: a procedure is
/// recounted only when an input of its count moved, and keeps its earlier
/// count otherwise. The inputs of procedure `p`'s count are its symbolic
/// form (compared by `Arc` identity, so a form the summary cache served
/// to both analyses is unchanged), `VAL(p)`, the return jump functions of
/// its callees, and whether it is reachable and quarantined. When
/// `analysis` reused `prev` stage by stage, only the procedures it reports
/// as touched, and those whose quarantine flag moved, are examined.
///
/// Returns `None` when the two analyses do not share a configuration (a
/// deadline aside) and a program shape — procedure count, arities and
/// scalar globals — since the inputs then index different slots.
pub(crate) fn recount(
    prev_mcfg: &ModuleCfg,
    prev: &Analysis,
    prev_counts: &SubstitutionCounts,
    mcfg: &ModuleCfg,
    analysis: &Analysis,
) -> Option<SubstitutionCounts> {
    let n = mcfg.module.procs.len();
    // Only the procedures of the table chunks the two modules do not
    // share can differ in arity.
    let same_shape = crate::serve::cache::same_config(&prev.config, &analysis.config)
        && prev_mcfg.module.procs.len() == n
        && prev.layout.scalar_globals == analysis.layout.scalar_globals
        && mcfg
            .module
            .procs
            .unshared(&prev_mcfg.module.procs)
            .all(|i| prev_mcfg.module.procs[i].arity() == mcfg.module.procs[i].arity());
    if !same_shape {
        return None;
    }
    let ret_moved = |i: usize| prev.ret_jfs.fns[i] != analysis.ret_jfs.fns[i];
    let form_moved = |i: usize| match (&prev.symbolics[i], &analysis.symbolics[i]) {
        (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
        (a, b) => a.is_some() != b.is_some(),
    };
    let quarantine_moved = |i: usize| prev.quarantined[i] != analysis.quarantined[i];
    let candidates: Vec<usize> = match &analysis.touched {
        Some(touched) => {
            let mut c: Vec<usize> = analysis
                .quarantined
                .unshared(&prev.quarantined)
                .filter(|&i| quarantine_moved(i))
                .collect();
            c.extend(touched);
            c.sort_unstable();
            c.dedup();
            c
        }
        None => (0..n).collect(),
    };
    let oracle = analysis.sccp_oracle(mcfg);
    let mut counts = prev_counts.counts.clone();
    let mut total = prev_counts.total;
    for pi in candidates {
        let p = ProcId::from(pi);
        let moved = prev.cg.reachable[pi] != analysis.cg.reachable[pi]
            || quarantine_moved(pi)
            || form_moved(pi)
            || prev.vals.of(p) != analysis.vals.of(p)
            || analysis
                .cg
                .calls_from(p)
                .iter()
                .any(|e| ret_moved(e.callee.index()));
        if !moved {
            continue;
        }
        let count = match analysis.symbolics[pi].as_ref() {
            Some(ps) if analysis.cg.reachable[pi] => {
                let res = sccp::run(
                    mcfg,
                    &ps.ssa,
                    &seeds_for(analysis, mcfg, p),
                    oracle.as_ref(),
                );
                count_proc(mcfg.cfg(p), &ps.ssa, &res)
            }
            _ => 0,
        };
        total = total - counts[pi] + count;
        counts.set(pi, count);
    }
    Some(SubstitutionCounts { counts, total })
}

/// The purely intraprocedural baseline (Table 3, column 4): no seeds, no
/// return jump functions, but MOD-precise kill sets.
pub fn substitute_intraprocedural(mcfg: &ModuleCfg, analysis: &Analysis) -> Substitution {
    run_substitution(mcfg, analysis, &OpaqueCallsLattice, |p| {
        Seeds::none(mcfg.module.proc(p).vars.len())
    })
}

/// The counts [`substitute_intraprocedural`] reports, without building
/// the transformed program.
pub fn count_intraprocedural(mcfg: &ModuleCfg, analysis: &Analysis) -> SubstitutionCounts {
    run_counts(mcfg, analysis, &OpaqueCallsLattice, |p| {
        Seeds::none(mcfg.module.proc(p).vars.len())
    })
}

/// Runs SCCP on every reachable procedure and hands each fixpoint to
/// `visit` together with the SSA form it ran over.
fn for_each_sccp(
    mcfg: &ModuleCfg,
    analysis: &Analysis,
    oracle: &dyn CallDefLattice,
    seeds_of: impl Fn(ProcId) -> Seeds,
    mut visit: impl FnMut(ProcId, &SsaProc, SccpResult),
) {
    for pi in 0..mcfg.module.procs.len() {
        if !analysis.cg.reachable[pi] {
            continue;
        }
        // The substitution SSA must match the analysis call-effect world.
        let Some(ps) = analysis.symbolics[pi].as_ref() else {
            continue;
        };
        let p = ProcId::from(pi);
        visit(p, &ps.ssa, sccp::run(mcfg, &ps.ssa, &seeds_of(p), oracle));
    }
}

fn run_counts(
    mcfg: &ModuleCfg,
    analysis: &Analysis,
    oracle: &dyn CallDefLattice,
    seeds_of: impl Fn(ProcId) -> Seeds,
) -> SubstitutionCounts {
    let mut counts = vec![0usize; mcfg.module.procs.len()];
    for_each_sccp(mcfg, analysis, oracle, seeds_of, |p, ssa, res| {
        counts[p.index()] = count_proc(mcfg.cfg(p), ssa, &res);
    });
    SubstitutionCounts::from(counts)
}

fn run_substitution(
    mcfg: &ModuleCfg,
    analysis: &Analysis,
    oracle: &dyn CallDefLattice,
    seeds_of: impl Fn(ProcId) -> Seeds,
) -> Substitution {
    let n = mcfg.module.procs.len();
    let mut counts = vec![0usize; n];
    let mut module = mcfg.clone();
    let mut sccps: Vec<Option<SccpResult>> = (0..n).map(|_| None).collect();
    let mut replacements = Vec::new();
    for_each_sccp(mcfg, analysis, oracle, seeds_of, |p, ssa, res| {
        counts[p.index()] = count_proc(mcfg.cfg(p), ssa, &res);
        rewrite_proc(&mut module, mcfg, p, ssa, &res, &mut replacements);
        sccps[p.index()] = Some(res);
    });
    let total = counts.iter().sum();
    Substitution {
        counts,
        total,
        module,
        sccps,
        replacements,
    }
}

/// The number of constants substitutable into one procedure: the
/// scalar-variable occurrences whose SSA value `sccp` found constant, in
/// the expressions of assignments, stores, prints, by-value call actuals
/// and branch conditions of executable blocks. This is the one counting
/// rule behind every substitution total.
pub fn count_proc(cfg: &Cfg, ssa: &SsaProc, sccp: &SccpResult) -> usize {
    let mut count = 0usize;
    for bi in 0..ssa.n_blocks() {
        if !sccp.block_exec[bi] {
            continue;
        }
        let b = BlockId::from(bi);
        for stmt in ssa.stmts(b) {
            count += match stmt {
                StmtInfo::Assign { use_vals, .. }
                | StmtInfo::Store { use_vals, .. }
                | StmtInfo::Print { use_vals, .. }
                | StmtInfo::Call { use_vals, .. } => constant_uses(sccp, use_vals),
                StmtInfo::Read { .. } => 0,
            };
        }
        if matches!(cfg.block(b).term, Terminator::Branch { .. }) {
            count += constant_uses(sccp, ssa.term_use_vals(b));
        }
    }
    count
}

impl Substitution {
    /// §4.1's optional output: "a transformed version of the original
    /// source in which the interprocedural constants are textually
    /// substituted into the code". Every replaced occurrence carries its
    /// source span, so the structured (pre-lowering) bodies can be
    /// rewritten and pretty-printed.
    pub fn to_source(&self, original: &Module) -> String {
        apply_replacements(original, &self.replacements).to_source()
    }
}

/// Rewrites `module`'s structured bodies, replacing each scalar variable
/// occurrence whose span appears in `replacements` with its constant.
pub fn apply_replacements(module: &Module, replacements: &[(Span, i64)]) -> Module {
    use std::collections::HashMap;
    let map: HashMap<Span, i64> = replacements.iter().copied().collect();
    let mut out = module.clone();
    for proc in out.procs.iter_mut() {
        rewrite_ast_block(&mut Arc::make_mut(proc).body, &map);
    }
    out
}

fn rewrite_ast_block(b: &mut ipcp_ir::program::Block, map: &std::collections::HashMap<Span, i64>) {
    use ipcp_ir::program::Stmt;
    for s in &mut b.stmts {
        match s {
            Stmt::Assign(_, e, _) | Stmt::Print(e, _) => rewrite_ast_expr(e, map),
            Stmt::Store(_, i, v, _) => {
                rewrite_ast_expr(i, map);
                rewrite_ast_expr(v, map);
            }
            Stmt::If(c, t, e, _) => {
                rewrite_ast_expr(c, map);
                rewrite_ast_block(t, map);
                rewrite_ast_block(e, map);
            }
            Stmt::While(c, body, _) => {
                rewrite_ast_expr(c, map);
                rewrite_ast_block(body, map);
            }
            Stmt::Do {
                lo, hi, step, body, ..
            } => {
                rewrite_ast_expr(lo, map);
                rewrite_ast_expr(hi, map);
                if let Some(st) = step {
                    rewrite_ast_expr(st, map);
                }
                rewrite_ast_block(body, map);
            }
            Stmt::Call(_, args, _) => {
                for a in args {
                    if let ipcp_ir::program::Arg::Value(e) = a {
                        rewrite_ast_expr(e, map);
                    }
                }
            }
            Stmt::Return(_) | Stmt::Read(_, _) => {}
        }
    }
}

fn rewrite_ast_expr(e: &mut Expr, map: &std::collections::HashMap<Span, i64>) {
    match e {
        Expr::Const(..) => {}
        Expr::Var(_, span) => {
            if let Some(&c) = map.get(span) {
                *e = Expr::Const(c, *span);
            }
        }
        Expr::Load(_, idx, _) => rewrite_ast_expr(idx, map),
        Expr::Unary(_, x, _) => rewrite_ast_expr(x, map),
        Expr::Binary(_, l, r, _) => {
            rewrite_ast_expr(l, map);
            rewrite_ast_expr(r, map);
        }
    }
}

/// How many of the occurrences `vals` hold a constant under `sccp`.
pub(crate) fn constant_uses(sccp: &SccpResult, vals: &[ValueId]) -> usize {
    vals.iter().filter(|&&v| sccp.value(v).is_const()).count()
}

/// Rewrites procedure `p` in `out`, recording each replaced occurrence
/// that carries a source span.
fn rewrite_proc(
    out: &mut ModuleCfg,
    mcfg: &ModuleCfg,
    p: ProcId,
    ssa: &SsaProc,
    res: &SccpResult,
    replacements: &mut Vec<(Span, i64)>,
) {
    let cfg = mcfg.cfg(p);
    for bi in 0..cfg.len() {
        if !res.block_exec[bi] {
            continue;
        }
        let b = BlockId::from(bi);
        let out_block = &mut Arc::make_mut(&mut out.cfgs[p.index()]).blocks[b.index()];
        for (si, (stmt, info)) in cfg.block(b).stmts.iter().zip(ssa.stmts(b)).enumerate() {
            out_block.stmts[si] = rewrite_stmt(stmt, info, res, replacements);
        }
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = &cfg.block(b).term
        {
            let mut idx = 0;
            let uses = ssa.term_use_vals(b);
            let new_cond = rewrite_expr(cond, uses, &mut idx, res, replacements);
            debug_assert_eq!(idx, uses.len());
            out_block.term = Terminator::Branch {
                cond: new_cond,
                then_bb: *then_bb,
                else_bb: *else_bb,
            };
        }
    }
}

fn rewrite_stmt(
    stmt: &CStmt,
    info: StmtInfo<'_>,
    res: &SccpResult,
    replacements: &mut Vec<(Span, i64)>,
) -> CStmt {
    let mut idx = 0usize;
    match (stmt, info) {
        (CStmt::Assign { dst, value }, StmtInfo::Assign { use_vals, .. }) => {
            let value = rewrite_expr(value, use_vals, &mut idx, res, replacements);
            debug_assert_eq!(idx, use_vals.len());
            CStmt::Assign { dst: *dst, value }
        }
        (
            CStmt::Store {
                array,
                index,
                value,
            },
            StmtInfo::Store { use_vals, .. },
        ) => {
            let index = rewrite_expr(index, use_vals, &mut idx, res, replacements);
            let value = rewrite_expr(value, use_vals, &mut idx, res, replacements);
            debug_assert_eq!(idx, use_vals.len());
            CStmt::Store {
                array: *array,
                index,
                value,
            }
        }
        (CStmt::Print { value }, StmtInfo::Print { use_vals, .. }) => {
            let value = rewrite_expr(value, use_vals, &mut idx, res, replacements);
            debug_assert_eq!(idx, use_vals.len());
            CStmt::Print { value }
        }
        (CStmt::Call { callee, args, site }, StmtInfo::Call { use_vals, .. }) => {
            let mut new_args = Vec::with_capacity(args.len());
            for a in args {
                new_args.push(match a {
                    ipcp_ir::program::Arg::Value(e) => ipcp_ir::program::Arg::Value(rewrite_expr(
                        e,
                        use_vals,
                        &mut idx,
                        res,
                        replacements,
                    )),
                    // By-reference actuals cannot be replaced by values.
                    other => other.clone(),
                });
            }
            debug_assert_eq!(idx, use_vals.len());
            CStmt::Call {
                callee: *callee,
                args: new_args,
                site: *site,
            }
        }
        (CStmt::Read { dst }, StmtInfo::Read { .. }) => CStmt::Read { dst: *dst },
        (stmt, info) => unreachable!("statement/annotation mismatch: {stmt:?} vs {info:?}"),
    }
}

/// Rewrites an expression, replacing each scalar-variable occurrence whose
/// SSA value is constant. `use_vals[idx..]` supplies the occurrence values
/// in traversal order.
fn rewrite_expr(
    e: &Expr,
    use_vals: &[ValueId],
    idx: &mut usize,
    res: &SccpResult,
    replacements: &mut Vec<(Span, i64)>,
) -> Expr {
    match e {
        Expr::Const(c, s) => Expr::Const(*c, *s),
        Expr::Var(v, s) => {
            let val = use_vals[*idx];
            *idx += 1;
            match res.value(val) {
                Lattice::Const(c) => {
                    if !s.is_empty() {
                        replacements.push((*s, c));
                    }
                    Expr::Const(c, *s)
                }
                _ => Expr::Var(*v, *s),
            }
        }
        Expr::Load(arr, index, s) => Expr::Load(
            *arr,
            Box::new(rewrite_expr(index, use_vals, idx, res, replacements)),
            *s,
        ),
        Expr::Unary(op, x, s) => Expr::Unary(
            *op,
            Box::new(rewrite_expr(x, use_vals, idx, res, replacements)),
            *s,
        ),
        Expr::Binary(op, l, r, s) => {
            let l = rewrite_expr(l, use_vals, idx, res, replacements);
            let r = rewrite_expr(r, use_vals, idx, res, replacements);
            Expr::Binary(*op, Box::new(l), Box::new(r), *s)
        }
    }
}

/// A standalone intraprocedural substitution count with MOD information
/// but no interprocedural constants at all — used when no [`Analysis`] is
/// wanted.
pub fn intraprocedural_count(mcfg: &ModuleCfg) -> usize {
    let cg = ipcp_analysis::build_call_graph(mcfg);
    let mr = ipcp_analysis::compute_modref(mcfg, &cg);
    let mut total = 0;
    for (pi, _) in mcfg.module.procs.iter().enumerate() {
        if !cg.reachable[pi] {
            continue;
        }
        let p = ProcId::from(pi);
        let ssa = build_ssa(mcfg, p, &ModKills(&mr));
        let res = sccp::run(
            mcfg,
            &ssa,
            &Seeds::none(mcfg.module.proc(p).vars.len()),
            &OpaqueCallsLattice,
        );
        total += count_proc(mcfg.cfg(p), &ssa, &res);
    }
    total
}
