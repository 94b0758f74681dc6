//! Procedure integration (inlining) — the Wegman–Zadeck alternative the
//! paper's §5 discusses: "combining procedure integration with
//! intraprocedural constant propagation to detect interprocedural
//! constants. Because procedure integration makes paths through the
//! program's call graph explicit, the interprocedural information computed
//! along a particular path may be improved."
//!
//! [`inline_leaf_calls`] splices callee CFGs into their callers, one
//! leaf layer per round, under a growth budget; [`integrate_and_count`]
//! is the §5 comparator — inline everything (non-recursive), then run the
//! purely intraprocedural propagation. It is path-precise where the
//! jump-function framework meets, at the cost of code growth.
//!
//! Correctness notes: by-reference actuals are substituted directly (same
//! storage), by-value actuals are copied into a fresh temporary before
//! entry, callee locals become fresh caller locals **re-zeroed at the
//! splice point** (a callee activation always starts with zeroed locals),
//! and callees declaring local arrays are skipped (FT has no O(1) array
//! reinitializer). Like the analyses, inlining assumes the FORTRAN
//! aliasing rule: a program that writes through an aliased dummy would
//! fault under the interpreter and is transformed at face value here.

use crate::config::{Config, Stage};
use crate::health::{AnalysisHealth, Governor};
use crate::par::Pool;
use ipcp_ir::cfg::{BasicBlock, BlockId, CStmt, CallSiteId, ModuleCfg, Terminator};
use ipcp_ir::program::{Arg, Expr, ProcId, VarId, VarInfo, VarKind};
use ipcp_ir::span::Span;
use std::sync::Arc;

/// Outcome of the inlining transformation.
#[derive(Debug)]
pub struct InlineResult {
    /// The transformed module.
    pub module: ModuleCfg,
    /// Call sites spliced away.
    pub inlined_calls: usize,
    /// Leaf-inlining rounds performed.
    pub rounds: usize,
    /// Telemetry: non-empty when the configured growth limit (not the
    /// caller's explicit `max_statements`) or a fault stopped inlining.
    pub health: AnalysisHealth,
}

/// Whether `p` is inlinable: no call statements in reachable blocks (a
/// leaf), and no local arrays (their per-activation zeroing cannot be
/// expressed cheaply).
fn is_inlinable_leaf(mcfg: &ModuleCfg, p: ProcId) -> bool {
    let proc = mcfg.module.proc(p);
    if proc
        .vars
        .iter()
        .any(|v| v.kind == VarKind::Local && v.is_array)
    {
        return false;
    }
    let cfg = mcfg.cfg(p);
    let reach = cfg.reachable();
    for (bi, blk) in cfg.blocks.iter().enumerate() {
        if reach[bi] && blk.stmts.iter().any(|s| matches!(s, CStmt::Call { .. })) {
            return false;
        }
    }
    true
}

/// Repeatedly inlines calls to leaf procedures until none remain, the
/// round limit is hit, or the program grows past the statement budget —
/// the smaller of the caller's explicit `max_statements` and the
/// configured [`max_inline_statements`](crate::config::AnalysisLimits)
/// growth limit. Stopping at the explicit cap is the caller's own choice;
/// stopping at the configured limit (or an injected
/// [`Stage::Inline`] fault) records a degradation event.
///
/// Each round flattens one layer of the call tree, so `depth` rounds
/// flatten a non-recursive program completely. Recursive procedures are
/// never inlined (they are never leaves).
pub fn inline_leaf_calls(mcfg: &ModuleCfg, config: &Config, max_statements: usize) -> InlineResult {
    let mut gov = Governor::new(config);
    let cap = max_statements.min(config.limits.max_inline_statements);
    let mut module = mcfg.clone();
    let mut inlined_calls = 0usize;
    let mut rounds = 0usize;
    let round_cap = module.module.procs.len() + 2;

    for _ in 0..round_cap {
        // The per-procedure leaf scan is pure and read-only over the
        // module; run it on the worker pool (results come back in index
        // order, so the splicing below is schedule-independent).
        let (leaves, _pt) = Pool::new(config.effective_jobs())
            .run(module.module.procs.len(), |p| {
                is_inlinable_leaf(&module, ProcId::from(p))
            });
        let mut changed = false;
        for pi in 0..module.module.procs.len() {
            if leaves[pi] {
                continue; // leaves contain no calls to inline
            }
            let p = ProcId::from(pi);
            loop {
                if gov.deadline_expired() {
                    gov.record_deadline(
                        Stage::Inline,
                        format!("deadline expired after {inlined_calls} inlined call(s)"),
                    );
                    return InlineResult {
                        module,
                        inlined_calls,
                        rounds,
                        health: gov.into_health(),
                    };
                }
                if total_statements(&module) >= cap {
                    if cap < max_statements {
                        gov.record(
                            Stage::Inline,
                            format!(
                                "statement growth limit exhausted after \
                                 {inlined_calls} inlined call(s)"
                            ),
                        );
                    }
                    return InlineResult {
                        module,
                        inlined_calls,
                        rounds,
                        health: gov.into_health(),
                    };
                }
                let Some((block, stmt, callee)) = find_leaf_call(&module, p, &leaves) else {
                    break;
                };
                if !gov.charge(Stage::Inline) {
                    gov.record(
                        Stage::Inline,
                        format!("inline budget exhausted after {inlined_calls} inlined call(s)"),
                    );
                    return InlineResult {
                        module,
                        inlined_calls,
                        rounds,
                        health: gov.into_health(),
                    };
                }
                inline_one(&mut module, p, block, stmt, callee);
                inlined_calls += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        rounds += 1;
    }

    InlineResult {
        module,
        inlined_calls,
        rounds,
        health: gov.into_health(),
    }
}

fn total_statements(mcfg: &ModuleCfg) -> usize {
    mcfg.cfgs
        .iter()
        .map(|c| c.blocks.iter().map(|b| b.stmts.len()).sum::<usize>())
        .sum()
}

/// First reachable call to an inlinable leaf in `p`.
fn find_leaf_call(
    mcfg: &ModuleCfg,
    p: ProcId,
    leaves: &[bool],
) -> Option<(BlockId, usize, ProcId)> {
    let cfg = mcfg.cfg(p);
    let reach = cfg.reachable();
    for (bi, blk) in cfg.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        for (si, s) in blk.stmts.iter().enumerate() {
            if let CStmt::Call { callee, .. } = s {
                if leaves[callee.index()] && *callee != p {
                    return Some((BlockId::from(bi), si, *callee));
                }
            }
        }
    }
    None
}

/// Splices `callee`'s CFG into `caller` at `block[stmt]`.
fn inline_one(mcfg: &mut ModuleCfg, caller: ProcId, block: BlockId, stmt: usize, callee: ProcId) {
    let callee_proc = mcfg.module.proc(callee).clone();
    let callee_cfg = mcfg.cfg(callee).clone();
    let span = Span::dummy();

    // Extract the call statement.
    let CStmt::Call { args, .. } =
        mcfg.cfgs[caller.index()].blocks[block.index()].stmts[stmt].clone()
    else {
        unreachable!("inline target is a call");
    };

    // --- variable mapping ------------------------------------------------
    let n_caller_vars = mcfg.module.procs[caller.index()].vars.len();
    let mut fresh_vars: Vec<VarInfo> = Vec::new();
    let fresh_of = |info: &VarInfo, tag: &str, fresh_vars: &mut Vec<VarInfo>| -> VarId {
        let id = VarId::from(n_caller_vars + fresh_vars.len());
        fresh_vars.push(VarInfo {
            name: format!("{}${}${}", callee_proc.name, tag, info.name),
            kind: VarKind::Local,
            is_array: info.is_array,
            array_len: info.array_len,
        });
        id
    };

    // Pre-entry statements: by-value copies and local zeroing.
    let mut prologue: Vec<CStmt> = Vec::new();
    let mut var_map: Vec<Option<VarId>> = vec![None; callee_proc.vars.len()];
    for (vi, info) in callee_proc.vars.iter().enumerate() {
        let mapped = match info.kind {
            VarKind::Formal(i) => match &args[i] {
                Arg::Scalar(v, _) | Arg::Array(v, _) => *v,
                Arg::Value(e) => {
                    let t = fresh_of(info, "arg", &mut fresh_vars);
                    prologue.push(CStmt::Assign {
                        dst: t,
                        value: e.clone(),
                    });
                    t
                }
            },
            VarKind::Global(g) => match mcfg.module.procs[caller.index()].var_for_global(g) {
                Some(v) => v,
                None => unreachable!("caller aliases every global"),
            },
            VarKind::Local => {
                let t = fresh_of(info, "loc", &mut fresh_vars);
                // A fresh activation starts with zeroed locals.
                prologue.push(CStmt::Assign {
                    dst: t,
                    value: Expr::Const(0, span),
                });
                t
            }
        };
        var_map[vi] = Some(mapped);
    }
    Arc::make_mut(&mut mcfg.module.procs[caller.index()])
        .vars
        .extend(fresh_vars);

    let map_var = |v: VarId| match var_map[v.index()] {
        Some(m) => m,
        None => unreachable!("every callee var was mapped above"),
    };

    // --- splice the blocks ------------------------------------------------
    let caller_cfg = Arc::make_mut(&mut mcfg.cfgs[caller.index()]);
    let offset = caller_cfg.blocks.len();
    let remap_block = |b: BlockId| BlockId::from(b.index() + offset);

    // Continuation: everything after the call, with the original terminator.
    let cont_id = BlockId::from(offset + callee_cfg.blocks.len());
    let old_block = &mut caller_cfg.blocks[block.index()];
    let tail: Vec<CStmt> = old_block.stmts.split_off(stmt + 1);
    old_block.stmts.pop(); // drop the call itself
    old_block.stmts.extend(prologue);
    let old_term = std::mem::replace(
        &mut old_block.term,
        Terminator::Jump(remap_block(callee_cfg.entry)),
    );

    // Fresh call-site ids for calls copied from the callee (leaves have
    // none, but stay robust if the policy widens later).
    let mut next_site = caller_cfg.n_call_sites;

    for cb in &callee_cfg.blocks {
        let mut nb = BasicBlock::new();
        for s in &cb.stmts {
            nb.stmts.push(remap_stmt(s, &map_var, &mut next_site));
        }
        nb.term = match &cb.term {
            Terminator::Return => Terminator::Jump(cont_id),
            Terminator::Jump(t) => Terminator::Jump(remap_block(*t)),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => Terminator::Branch {
                cond: remap_expr(cond, &map_var),
                then_bb: remap_block(*then_bb),
                else_bb: remap_block(*else_bb),
            },
        };
        caller_cfg.blocks.push(nb);
    }
    caller_cfg.blocks.push(BasicBlock {
        stmts: tail,
        term: old_term,
    });
    caller_cfg.n_call_sites = next_site;
}

fn remap_stmt(s: &CStmt, map_var: &impl Fn(VarId) -> VarId, next_site: &mut usize) -> CStmt {
    match s {
        CStmt::Assign { dst, value } => CStmt::Assign {
            dst: map_var(*dst),
            value: remap_expr(value, map_var),
        },
        CStmt::Store {
            array,
            index,
            value,
        } => CStmt::Store {
            array: map_var(*array),
            index: remap_expr(index, map_var),
            value: remap_expr(value, map_var),
        },
        CStmt::Read { dst } => CStmt::Read { dst: map_var(*dst) },
        CStmt::Print { value } => CStmt::Print {
            value: remap_expr(value, map_var),
        },
        CStmt::Call { callee, args, .. } => {
            let site = CallSiteId::from(*next_site);
            *next_site += 1;
            CStmt::Call {
                callee: *callee,
                args: args
                    .iter()
                    .map(|a| match a {
                        Arg::Scalar(v, sp) => Arg::Scalar(map_var(*v), *sp),
                        Arg::Array(v, sp) => Arg::Array(map_var(*v), *sp),
                        Arg::Value(e) => Arg::Value(remap_expr(e, map_var)),
                    })
                    .collect(),
                site,
            }
        }
    }
}

fn remap_expr(e: &Expr, map_var: &impl Fn(VarId) -> VarId) -> Expr {
    match e {
        Expr::Const(c, s) => Expr::Const(*c, *s),
        Expr::Var(v, s) => Expr::Var(map_var(*v), *s),
        Expr::Load(v, idx, s) => Expr::Load(map_var(*v), Box::new(remap_expr(idx, map_var)), *s),
        Expr::Unary(op, x, s) => Expr::Unary(*op, Box::new(remap_expr(x, map_var)), *s),
        Expr::Binary(op, l, r, s) => Expr::Binary(
            *op,
            Box::new(remap_expr(l, map_var)),
            Box::new(remap_expr(r, map_var)),
            *s,
        ),
    }
}

/// The Wegman–Zadeck comparator: integrate procedures under a budget,
/// then count constants with the purely intraprocedural propagation.
///
/// Returns `(substituted constants, inline result)`. Counts are *not*
/// directly comparable to the jump-function counts when code was
/// duplicated (an occurrence inlined twice can be counted twice) — the
/// path-precision-vs-growth trade-off §5 describes.
pub fn integrate_and_count(
    mcfg: &ModuleCfg,
    config: &Config,
    max_statements: usize,
) -> (usize, InlineResult) {
    let result = inline_leaf_calls(mcfg, config, max_statements);
    let count = crate::substitute::intraprocedural_count(&result.module);
    (count, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::pipeline::Analysis;
    use ipcp_ir::interp::{exec_cfg, ExecLimits};
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn mcfg(src: &str) -> ModuleCfg {
        lower_module(&parse_and_resolve(src).unwrap())
    }

    fn behaviour_preserved(a: &ModuleCfg, b: &ModuleCfg, inputs: &[&[i64]]) {
        for input in inputs {
            let x = exec_cfg(a, input, &ExecLimits::default()).unwrap();
            let y = exec_cfg(b, input, &ExecLimits::default()).unwrap();
            assert_eq!(x.output, y.output);
        }
    }

    #[test]
    fn configured_statement_limit_degrades_with_telemetry() {
        use crate::config::AnalysisLimits;
        let m = mcfg("proc main() { call f(); call f(); } proc f() { print 7; }");
        let limits = AnalysisLimits {
            max_inline_statements: total_statements(&m),
            ..AnalysisLimits::default()
        };
        let r = inline_leaf_calls(&m, &Config::default().with_limits(limits), 10_000);
        assert_eq!(r.inlined_calls, 0, "the configured limit stops all growth");
        assert_eq!(r.health.count(Stage::Inline), 1, "{}", r.health);
        // The explicit cap is the caller's own choice — no degradation.
        let r = inline_leaf_calls(&m, &Config::default(), total_statements(&m));
        assert_eq!(r.inlined_calls, 0);
        assert!(!r.health.degraded(), "{}", r.health);
    }

    #[test]
    fn fault_injection_stops_inlining_deterministically() {
        let m = mcfg("proc main() { call f(); call f(); } proc f() { print 7; }");
        let r = inline_leaf_calls(&m, &Config::default().with_fault(Stage::Inline, 2), 10_000);
        assert_eq!(r.inlined_calls, 1, "the fault trips at the second splice");
        assert_eq!(r.health.count(Stage::Inline), 1, "{}", r.health);
    }

    #[test]
    fn leaf_call_is_spliced_away() {
        let m = mcfg("proc main() { x = 3; call f(x, 4); print x; } proc f(a, b) { print a * b; }");
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        assert_eq!(r.inlined_calls, 1);
        let main_cfg = r.module.cfg(r.module.module.entry);
        let has_call = main_cfg
            .blocks
            .iter()
            .any(|b| b.stmts.iter().any(|s| matches!(s, CStmt::Call { .. })));
        assert!(!has_call);
        behaviour_preserved(&m, &r.module, &[&[]]);
    }

    #[test]
    fn by_reference_formals_alias_caller_storage() {
        let m = mcfg("proc main() { x = 1; call bump(x); print x; } proc bump(a) { a = a + 41; }");
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        behaviour_preserved(&m, &r.module, &[&[]]);
        let out = exec_cfg(&r.module, &[], &ExecLimits::default()).unwrap();
        assert_eq!(out.output, vec![42]);
    }

    #[test]
    fn by_value_arguments_copy_once() {
        let m =
            mcfg("proc main() { read x; call f(x + 1); print x; } proc f(a) { a = 99; print a; }");
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        behaviour_preserved(&m, &r.module, &[&[5], &[0]]);
    }

    #[test]
    fn locals_are_rezeroed_per_activation() {
        // g is called twice; its local must read 0 at the second splice
        // too, not the first activation's leftover.
        let m = mcfg("proc main() { call g(); call g(); } proc g() { t = t + 7; print t; }");
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        assert_eq!(r.inlined_calls, 2);
        behaviour_preserved(&m, &r.module, &[&[]]);
        let out = exec_cfg(&r.module, &[], &ExecLimits::default()).unwrap();
        assert_eq!(out.output, vec![7, 7]);
    }

    #[test]
    fn multi_level_trees_flatten_over_rounds() {
        let m = mcfg(
            "proc main() { call a(2); print 0; } \
             proc a(x) { call b(x * 3); } \
             proc b(y) { call c(y + 1); } \
             proc c(z) { print z; }",
        );
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        assert!(r.rounds >= 2, "rounds {}", r.rounds);
        behaviour_preserved(&m, &r.module, &[&[]]);
        // main is now call-free.
        let main_cfg = r.module.cfg(r.module.module.entry);
        assert!(!main_cfg
            .blocks
            .iter()
            .any(|b| b.stmts.iter().any(|s| matches!(s, CStmt::Call { .. }))));
    }

    #[test]
    fn recursive_procedures_are_left_alone() {
        let m = mcfg(
            "proc main() { x = 3; call f(x); print x; } \
             proc f(a) { if (a > 0) { a = a - 1; call f(a); } }",
        );
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        assert_eq!(r.inlined_calls, 0);
        behaviour_preserved(&m, &r.module, &[&[]]);
    }

    #[test]
    fn callees_with_local_arrays_are_skipped() {
        let m = mcfg("proc main() { call f(); } proc f() { array t[4]; t[0] = 1; print t[0]; }");
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        assert_eq!(r.inlined_calls, 0);
    }

    #[test]
    fn budget_stops_growth() {
        let m = mcfg(
            "proc main() { call f(); call f(); call f(); call f(); } \
             proc f() { print 1; print 2; print 3; print 4; print 5; }",
        );
        let unbounded = inline_leaf_calls(&m, &Config::default(), 100_000);
        assert_eq!(unbounded.inlined_calls, 4);
        let bounded = inline_leaf_calls(&m, &Config::default(), total_statements(&m) + 6);
        assert!(bounded.inlined_calls < 4, "{}", bounded.inlined_calls);
        behaviour_preserved(&m, &bounded.module, &[&[]]);
    }

    #[test]
    fn loops_around_inlined_bodies_stay_correct() {
        let m =
            mcfg("proc main() { do i = 1, 3 { call f(i); } } proc f(k) { s = k * 2; print s; }");
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        behaviour_preserved(&m, &r.module, &[&[]]);
        let out = exec_cfg(&r.module, &[], &ExecLimits::default()).unwrap();
        assert_eq!(out.output, vec![2, 4, 6]);
    }

    #[test]
    fn integration_finds_path_precise_constants() {
        // The §5 motivation: two call sites with different constants. The
        // jump-function framework meets them to ⊥; integration keeps each
        // path separate.
        let src = "proc main() { call f(1); call f(2); } proc f(a) { print a; print a + 1; }";
        let m = mcfg(src);
        let jf = Analysis::run(&m, &Config::polynomial())
            .substitution_counts(&m)
            .total;
        assert_eq!(jf, 0);
        let (integrated, r) = integrate_and_count(&m, &Config::default(), 10_000);
        assert_eq!(r.inlined_calls, 2);
        assert_eq!(integrated, 4, "each inlined copy keeps its constant");
        behaviour_preserved(&m, &r.module, &[&[]]);
    }

    #[test]
    fn globals_keep_flowing_after_integration() {
        let m = mcfg("global g; proc main() { g = 5; call f(); print g; } proc f() { g = g + 1; }");
        let r = inline_leaf_calls(&m, &Config::default(), 10_000);
        behaviour_preserved(&m, &r.module, &[&[]]);
        let out = exec_cfg(&r.module, &[], &ExecLimits::default()).unwrap();
        assert_eq!(out.output, vec![6]);
    }

    #[test]
    fn suite_programs_survive_integration() {
        for p in ipcp_suite::PROGRAMS {
            let m = p.module_cfg();
            let r = inline_leaf_calls(&m, &Config::default(), 5_000);
            behaviour_preserved(&m, &r.module, &[p.inputs]);
        }
    }
}
