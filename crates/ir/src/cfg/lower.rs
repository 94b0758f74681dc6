//! Lowering from the structured resolved AST to the basic-block CFG.

use super::{BasicBlock, BlockId, CStmt, CallSiteId, Cfg, ModuleCfg, Terminator};
use crate::lang::ast::BinOp;
use crate::program::{Block, Expr, Module, Proc, Stmt, VarId, VarInfo, VarKind};
use crate::span::Span;
use std::sync::Arc;

/// Lowers every procedure of `module` to a CFG.
///
/// `do` loops are lowered FORTRAN-style: the bound and step are copied into
/// compiler temporaries on entry (they are evaluated exactly once), and the
/// loop is pre-tested. When the step is a syntactic constant the direction
/// test is folded away. Statements after a `return` land in unreachable
/// blocks, which later phases ignore.
///
/// ```
/// use ipcp_ir::{parse_and_resolve, lower_module};
/// let m = parse_and_resolve("proc main() { do i = 1, 3 { print i; } }")?;
/// let mcfg = lower_module(&m);
/// assert!(mcfg.cfg(m.entry).len() >= 3); // preheader, header, body, exit
/// # Ok::<(), ipcp_ir::Diagnostics>(())
/// ```
pub fn lower_module(module: &Module) -> ModuleCfg {
    lower_module_owned(module.clone())
}

/// [`lower_module`] for a caller that owns the resolved module and has no
/// further use for it: the module moves into the result instead of being
/// copied.
pub fn lower_module_owned(mut module: Module) -> ModuleCfg {
    let cfgs = module
        .procs
        .iter_mut()
        .map(|p| Arc::new(lower_proc(Arc::make_mut(p))))
        .collect();
    ModuleCfg { module, cfgs }
}

/// Lowers one procedure to its CFG, appending the compiler temporaries it
/// needs to the procedure's symbol table. Lowering reads nothing outside
/// the procedure, so a module with one procedure replaced can lower just
/// that one (see [`ModuleCfg::with_proc`]).
pub(crate) fn lower_proc(proc: &mut Proc) -> Cfg {
    Lowerer::new(proc).run()
}

struct Lowerer<'a> {
    proc: &'a mut Proc,
    blocks: Vec<BasicBlock>,
    current: BlockId,
    n_call_sites: usize,
    call_locs: Vec<(BlockId, usize)>,
    n_temps: usize,
}

impl<'a> Lowerer<'a> {
    fn new(proc: &'a mut Proc) -> Self {
        Lowerer {
            proc,
            blocks: vec![BasicBlock::new()],
            current: BlockId(0),
            n_call_sites: 0,
            call_locs: Vec::new(),
            n_temps: 0,
        }
    }

    fn run(mut self) -> Cfg {
        let body = std::mem::take(&mut self.proc.body.stmts);
        self.lower_stmts(&body);
        self.proc.body.stmts = body;
        self.terminate(Terminator::Return);
        Cfg {
            blocks: self.blocks,
            entry: BlockId(0),
            n_call_sites: self.n_call_sites,
            call_locs: self.call_locs,
        }
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId::from(self.blocks.len());
        self.blocks.push(BasicBlock::new());
        id
    }

    fn push(&mut self, s: CStmt) {
        self.blocks[self.current.index()].stmts.push(s);
    }

    /// Sets the current block's terminator (it is `Return` by default).
    fn terminate(&mut self, t: Terminator) {
        self.blocks[self.current.index()].term = t;
    }

    /// Creates a fresh compiler temporary scalar in the procedure.
    fn fresh_temp(&mut self, hint: &str) -> VarId {
        let id = VarId::from(self.proc.vars.len());
        self.proc.vars.push(VarInfo {
            name: format!("${hint}{}", self.n_temps),
            kind: VarKind::Local,
            is_array: false,
            array_len: None,
        });
        self.n_temps += 1;
        id
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.lower_stmt(s);
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(dst, value, _) => self.push(CStmt::Assign {
                dst: *dst,
                value: value.clone(),
            }),
            Stmt::Store(array, index, value, _) => self.push(CStmt::Store {
                array: *array,
                index: index.clone(),
                value: value.clone(),
            }),
            Stmt::Read(dst, _) => self.push(CStmt::Read { dst: *dst }),
            Stmt::Print(value, _) => self.push(CStmt::Print {
                value: value.clone(),
            }),
            Stmt::Call(callee, args, _) => {
                let site = CallSiteId::from(self.n_call_sites);
                self.n_call_sites += 1;
                let at = self.blocks[self.current.index()].stmts.len();
                self.call_locs.push((self.current, at));
                self.push(CStmt::Call {
                    callee: *callee,
                    args: args.clone(),
                    site,
                });
            }
            Stmt::Return(_) => {
                self.terminate(Terminator::Return);
                // Anything lowered after this is unreachable; give it its
                // own block so the reachable part stays well formed.
                self.current = self.new_block();
            }
            Stmt::If(cond, then_blk, else_blk, _) => {
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join_bb = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: cond.clone(),
                    then_bb,
                    else_bb,
                });
                self.current = then_bb;
                self.lower_stmts(&then_blk.stmts);
                self.terminate(Terminator::Jump(join_bb));
                self.current = else_bb;
                self.lower_stmts(&else_blk.stmts);
                self.terminate(Terminator::Jump(join_bb));
                self.current = join_bb;
            }
            Stmt::While(cond, body, _) => {
                let header = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::Jump(header));
                self.current = header;
                self.terminate(Terminator::Branch {
                    cond: cond.clone(),
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.current = body_bb;
                self.lower_stmts(&body.stmts);
                self.terminate(Terminator::Jump(header));
                self.current = exit;
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                span,
            } => {
                self.lower_do(*var, lo, hi, step.as_ref(), body, *span);
            }
        }
    }

    fn lower_do(
        &mut self,
        var: VarId,
        lo: &Expr,
        hi: &Expr,
        step: Option<&Expr>,
        body: &Block,
        span: Span,
    ) {
        // Preheader: var = lo; $hi = hi; [$step = step]
        self.push(CStmt::Assign {
            dst: var,
            value: lo.clone(),
        });
        let hi_tmp = self.fresh_temp("do_hi");
        self.push(CStmt::Assign {
            dst: hi_tmp,
            value: hi.clone(),
        });

        // Step handling. `None` means the step is the literal 1; a constant
        // step fixes the loop direction at compile time.
        enum StepKind {
            One,
            Const(i64, VarId),
            Dynamic(VarId),
        }
        let step_kind = match step {
            None => StepKind::One,
            Some(Expr::Const(c, _)) => {
                let t = self.fresh_temp("do_step");
                self.push(CStmt::Assign {
                    dst: t,
                    value: Expr::Const(*c, span),
                });
                StepKind::Const(*c, t)
            }
            Some(e) => {
                let t = self.fresh_temp("do_step");
                self.push(CStmt::Assign {
                    dst: t,
                    value: e.clone(),
                });
                StepKind::Dynamic(t)
            }
        };

        let var_e = Expr::Var(var, span);
        let hi_e = Expr::Var(hi_tmp, span);
        let bin = |op, l: Expr, r: Expr| Expr::Binary(op, Box::new(l), Box::new(r), span);
        let cond = match &step_kind {
            StepKind::One => bin(BinOp::Le, var_e.clone(), hi_e.clone()),
            StepKind::Const(c, _) if *c > 0 => bin(BinOp::Le, var_e.clone(), hi_e.clone()),
            StepKind::Const(c, _) if *c < 0 => bin(BinOp::Ge, var_e.clone(), hi_e.clone()),
            StepKind::Const(_, t) | StepKind::Dynamic(t) => {
                // (step > 0 && var <= hi) || (step < 0 && var >= hi)
                let step_e = Expr::Var(*t, span);
                bin(
                    BinOp::Or,
                    bin(
                        BinOp::And,
                        bin(BinOp::Gt, step_e.clone(), Expr::Const(0, span)),
                        bin(BinOp::Le, var_e.clone(), hi_e.clone()),
                    ),
                    bin(
                        BinOp::And,
                        bin(BinOp::Lt, step_e, Expr::Const(0, span)),
                        bin(BinOp::Ge, var_e.clone(), hi_e.clone()),
                    ),
                )
            }
        };

        let header = self.new_block();
        let body_bb = self.new_block();
        let exit = self.new_block();
        self.terminate(Terminator::Jump(header));
        self.current = header;
        self.terminate(Terminator::Branch {
            cond,
            then_bb: body_bb,
            else_bb: exit,
        });
        self.current = body_bb;
        self.lower_stmts(&body.stmts);
        let incr = match &step_kind {
            StepKind::One => Expr::Const(1, span),
            StepKind::Const(_, t) | StepKind::Dynamic(t) => Expr::Var(*t, span),
        };
        self.push(CStmt::Assign {
            dst: var,
            value: bin(BinOp::Add, var_e, incr),
        });
        self.terminate(Terminator::Jump(header));
        self.current = exit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_resolve;

    fn lower(src: &str) -> ModuleCfg {
        lower_module(&parse_and_resolve(src).unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        let m = lower("proc main() { x = 1; y = x + 2; print y; }");
        let cfg = m.cfg(m.module.entry);
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.block(BlockId(0)).stmts.len(), 3);
        assert_eq!(cfg.block(BlockId(0)).term, Terminator::Return);
    }

    #[test]
    fn if_produces_diamond() {
        let m = lower("proc main() { read x; if (x > 0) { print 1; } else { print 2; } print 3; }");
        let cfg = m.cfg(m.module.entry);
        assert_eq!(cfg.len(), 4);
        let preds = cfg.predecessors();
        // Join block has two predecessors.
        let join = preds.iter().position(|p| p.len() == 2).unwrap();
        assert_eq!(cfg.block(BlockId::from(join)).stmts.len(), 1);
    }

    #[test]
    fn while_produces_back_edge() {
        let m = lower("proc main() { read x; while (x > 0) { x = x - 1; } }");
        let cfg = m.cfg(m.module.entry);
        let preds = cfg.predecessors();
        // The loop header has two predecessors: preheader and latch.
        assert!(preds.iter().any(|p| p.len() == 2));
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], cfg.entry);
        assert_eq!(rpo.len(), cfg.reachable().iter().filter(|&&r| r).count());
    }

    #[test]
    fn do_loop_with_constant_step_folds_direction_test() {
        let m = lower("proc main() { do i = 1, 10 { print i; } }");
        let cfg = m.cfg(m.module.entry);
        let header = cfg
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Terminator::Branch { cond, .. } => Some(cond.clone()),
                _ => None,
            })
            .unwrap();
        // Simple `i <= $hi` — no direction test.
        assert!(matches!(header, Expr::Binary(BinOp::Le, _, _, _)));
    }

    #[test]
    fn do_loop_with_dynamic_step_keeps_direction_test() {
        let m = lower("proc main() { read s; do i = 1, 10, s { print i; } }");
        let cfg = m.cfg(m.module.entry);
        let header = cfg
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Terminator::Branch { cond, .. } => Some(cond.clone()),
                _ => None,
            })
            .unwrap();
        assert!(matches!(header, Expr::Binary(BinOp::Or, _, _, _)));
    }

    #[test]
    fn negative_constant_step_uses_ge() {
        let m = lower("proc main() { do i = 10, 1, 0 - 2 { print i; } }");
        // `0 - 2` is not a syntactic constant; use a true literal instead.
        let m2 = lower_module(
            &parse_and_resolve("proc main() { do i = 10, 1, 2 { print i; } }").unwrap(),
        );
        drop(m2);
        let cfg = m.cfg(m.module.entry);
        // Dynamic step: direction test present.
        let has_or = cfg.blocks.iter().any(|b| {
            matches!(
                &b.term,
                Terminator::Branch {
                    cond: Expr::Binary(BinOp::Or, _, _, _),
                    ..
                }
            )
        });
        assert!(has_or);
    }

    #[test]
    fn code_after_return_is_unreachable() {
        let m = lower("proc main() { return; print 1; }");
        let cfg = m.cfg(m.module.entry);
        let reach = cfg.reachable();
        assert!(reach.iter().any(|r| !r), "expected an unreachable block");
        // The print must live in an unreachable block.
        for (i, blk) in cfg.blocks.iter().enumerate() {
            if blk.stmts.iter().any(|s| matches!(s, CStmt::Print { .. })) {
                assert!(!reach[i]);
            }
        }
    }

    #[test]
    fn call_sites_are_dense_and_ordered() {
        let m = lower(
            "proc main() { call f(); if (1) { call f(); } else { call f(); } call f(); } proc f() { }",
        );
        let cfg = m.cfg(m.module.entry);
        assert_eq!(cfg.n_call_sites, 4);
        let mut seen = Vec::new();
        m.each_call_in(m.module.entry, |_, site, _, _| seen.push(site.index()));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn call_site_lookup_matches_a_scan_and_survives_edits() {
        let mut m = lower(
            "proc main() { x = 1; call f(x, 2); if (x) { call f(3, x); } call g(); } \
             proc f(a, b) { } proc g() { }",
        );
        let main = m.module.entry;
        let mut scanned = Vec::new();
        m.each_call_in(main, |b, site, callee, args| {
            scanned.push((site, b, callee, args.to_vec()));
        });
        let check = |m: &crate::ModuleCfg| {
            for (site, b, callee, args) in &scanned {
                let (lb, lc, la) = m.call_site(main, *site).expect("lowered site");
                assert_eq!((lb, lc, la), (*b, *callee, &args[..]), "{site}");
            }
            assert!(m.call_site(main, CallSiteId(99)).is_none());
        };
        check(&m);
        // An edit that shifts statements leaves the index stale; the
        // lookup still finds every site.
        std::sync::Arc::make_mut(&mut m.cfgs[main.index()]).blocks[0]
            .stmts
            .remove(0);
        check(&m);
    }

    #[test]
    fn do_loop_temps_are_appended_to_symbol_table() {
        let m = lower("proc main() { do i = 1, 10, 3 { } }");
        let p = m.module.proc(m.module.entry);
        assert!(p.vars.iter().any(|v| v.name.starts_with("$do_hi")));
        assert!(p.vars.iter().any(|v| v.name.starts_with("$do_step")));
    }
}
