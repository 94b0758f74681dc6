//! Cooper–Kennedy style flow-insensitive MOD/REF summary analysis.
//!
//! `MOD(p)` answers: *which of `p`'s formal parameters and which globals
//! may be modified by an invocation of `p`* — including modifications made
//! by procedures `p` (transitively) calls, transmitted back through
//! by-reference parameter bindings. `REF(p)` is the analogous may-use set.
//!
//! The jump-function generator consults MOD at every call site: a variable
//! *not* killed by a call keeps its known value across the call. The 1993
//! study measured the value of this information by disabling it (Table 3):
//! without MOD, every call kills every global and every by-reference
//! actual — implemented here by [`worst_case_killed`].

use crate::callgraph::CallGraph;
use ipcp_ir::cfg::{CStmt, ModuleCfg};
use ipcp_ir::program::{Arg, GlobalId, ProcId, VarId, VarKind};
use std::fmt;

/// A per-procedure summary set over formals and globals.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ModSet {
    /// `formals[i]` — formal `i` may be affected.
    pub formals: Vec<bool>,
    /// `globals[g]` — global `g` may be affected (indexed by [`GlobalId`]).
    pub globals: Vec<bool>,
}

impl ModSet {
    fn new(arity: usize, n_globals: usize) -> Self {
        ModSet {
            formals: vec![false; arity],
            globals: vec![false; n_globals],
        }
    }

    /// The worst-case summary: every formal and every global is affected.
    /// This is what a quarantined procedure's summary widens to — sound
    /// for any behaviour the procedure could have.
    pub fn everything(arity: usize, n_globals: usize) -> Self {
        ModSet {
            formals: vec![true; arity],
            globals: vec![true; n_globals],
        }
    }

    /// Whether formal `i` is in the set.
    pub fn formal(&self, i: usize) -> bool {
        self.formals.get(i).copied().unwrap_or(false)
    }

    /// Whether global `g` is in the set.
    pub fn global(&self, g: GlobalId) -> bool {
        self.globals.get(g.index()).copied().unwrap_or(false)
    }

    /// Number of members (for reporting).
    pub fn len(&self) -> usize {
        self.formals.iter().filter(|&&b| b).count() + self.globals.iter().filter(|&&b| b).count()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn set_formal(&mut self, i: usize) -> bool {
        if self.formals.get(i).copied().unwrap_or(true) {
            return false;
        }
        self.formals[i] = true;
        true
    }

    fn set_global(&mut self, g: GlobalId) -> bool {
        if self.globals[g.index()] {
            return false;
        }
        self.globals[g.index()] = true;
        true
    }
}

impl fmt::Display for ModSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let formals: Vec<String> = self
            .formals
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| format!("f{i}"))
            .collect();
        let globals: Vec<String> = self
            .globals
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(g, _)| format!("g{g}"))
            .collect();
        write!(f, "{{{}}}", [formals, globals].concat().join(", "))
    }
}

/// MOD and REF summaries for every procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModRef {
    mods: Vec<ModSet>,
    refs: Vec<ModSet>,
}

impl ModRef {
    /// The MOD set of procedure `p`.
    pub fn mod_of(&self, p: ProcId) -> &ModSet {
        &self.mods[p.index()]
    }

    /// The REF set of procedure `p`.
    pub fn ref_of(&self, p: ProcId) -> &ModSet {
        &self.refs[p.index()]
    }

    /// The caller-side variables a specific call may modify, given the
    /// callee's MOD set: by-reference actuals bound to modified formals,
    /// plus the caller's aliases of modified globals.
    ///
    /// Returned `VarId`s are in the *caller's* symbol table. Globals the
    /// caller never mentions by name cannot appear (they have no caller
    /// `VarId`), which is harmless: the caller's code cannot read them
    /// either.
    pub fn killed_by_call(
        &self,
        mcfg: &ModuleCfg,
        caller: ProcId,
        callee: ProcId,
        args: &[Arg],
    ) -> Vec<VarId> {
        let m = self.mod_of(callee);
        let mut killed = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            if m.formal(i) {
                match arg {
                    Arg::Scalar(v, _) | Arg::Array(v, _) => killed.push(*v),
                    Arg::Value(_) => {} // copy-in only; caller unaffected
                }
            }
        }
        let cp = mcfg.module.proc(caller);
        for (vi, info) in cp.vars.iter().enumerate() {
            if let VarKind::Global(g) = info.kind {
                if m.global(g) {
                    let v = VarId::from(vi);
                    if !killed.contains(&v) {
                        killed.push(v);
                    }
                }
            }
        }
        killed
    }
}

/// The no-MOD-information kill set: every by-reference actual and every
/// global alias in the caller (Table 3, column 1 behaviour).
pub fn worst_case_killed(mcfg: &ModuleCfg, caller: ProcId, args: &[Arg]) -> Vec<VarId> {
    let mut killed = Vec::new();
    for arg in args {
        match arg {
            Arg::Scalar(v, _) | Arg::Array(v, _) => killed.push(*v),
            Arg::Value(_) => {}
        }
    }
    let cp = mcfg.module.proc(caller);
    for (vi, info) in cp.vars.iter().enumerate() {
        if info.is_global() {
            let v = VarId::from(vi);
            if !killed.contains(&v) {
                killed.push(v);
            }
        }
    }
    killed
}

/// Computes MOD and REF for every procedure by iterating direct effects
/// through the call graph to a fixpoint.
///
/// The lattice is finite (one bit per formal/global per procedure) and the
/// transfer is monotone, so the worklist terminates.
///
/// ```
/// use ipcp_ir::{parse_and_resolve, lower_module};
/// use ipcp_analysis::{build_call_graph, compute_modref};
/// let m = lower_module(&parse_and_resolve(
///     "global g; proc main() { x = 1; call f(x); } proc f(a) { a = 2; g = 3; }",
/// )?);
/// let cg = build_call_graph(&m);
/// let mr = compute_modref(&m, &cg);
/// let f = m.module.proc_named("f").unwrap().id;
/// assert!(mr.mod_of(f).formal(0));
/// assert!(mr.mod_of(f).global(ipcp_ir::program::GlobalId(0)));
/// # Ok::<(), ipcp_ir::Diagnostics>(())
/// ```
pub fn compute_modref(mcfg: &ModuleCfg, cg: &CallGraph) -> ModRef {
    let mut mods = Vec::new();
    let mut refs = Vec::new();
    for p in &mcfg.module.procs {
        let (m, r) = direct_effects(mcfg, p.id);
        mods.push(m);
        refs.push(r);
    }
    propagate_modref(mcfg, cg, mods, refs)
}

/// The direct (intraprocedural) MOD and REF effects of one procedure —
/// the per-procedure unit of work the pipeline runs under quarantine.
/// Call-edge propagation happens separately in [`propagate_modref`].
pub fn direct_effects(mcfg: &ModuleCfg, pid: ProcId) -> (ModSet, ModSet) {
    let n_globals = mcfg.module.globals.len();
    let p = mcfg.module.proc(pid);
    let mut m = ModSet::new(p.arity(), n_globals);
    let mut r = ModSet::new(p.arity(), n_globals);
    let mut note_def = |v: VarId| match p.var(v).kind {
        VarKind::Formal(i) => {
            m.set_formal(i);
        }
        VarKind::Global(g) => {
            m.set_global(g);
        }
        VarKind::Local => {}
    };
    let cfg = &mcfg.cfgs[p.id.index()];
    let reach = cfg.reachable();
    for (bi, blk) in cfg.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        let note_use_expr = |e: &ipcp_ir::program::Expr, r: &mut ModSet| {
            e.for_each_var(&mut |v| match p.var(v).kind {
                VarKind::Formal(i) => {
                    r.set_formal(i);
                }
                VarKind::Global(g) => {
                    r.set_global(g);
                }
                VarKind::Local => {}
            });
            // Array loads reference the array itself too.
            note_array_refs(e, p, r);
        };
        for s in &blk.stmts {
            match s {
                CStmt::Assign { dst, value } => {
                    note_use_expr(value, &mut r);
                    note_def(*dst);
                }
                CStmt::Store {
                    array,
                    index,
                    value,
                } => {
                    note_use_expr(index, &mut r);
                    note_use_expr(value, &mut r);
                    note_def(*array);
                }
                CStmt::Read { dst } => note_def(*dst),
                CStmt::Print { value } => note_use_expr(value, &mut r),
                CStmt::Call { args, .. } => {
                    // By-value argument expressions are caller-side uses.
                    for a in args {
                        if let Arg::Value(e) = a {
                            note_use_expr(e, &mut r);
                        }
                    }
                }
            }
        }
        if let ipcp_ir::cfg::Terminator::Branch { cond, .. } = &blk.term {
            note_use_expr(cond, &mut r);
        }
    }
    (m, r)
}

/// Iterates per-procedure direct effects through the call graph to a
/// fixpoint. `mods`/`refs` are indexed by procedure; a quarantined
/// procedure's entries arrive pre-widened to [`ModSet::everything`] and
/// the fixpoint soundly spreads that through reference bindings.
pub fn propagate_modref(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    mut mods: Vec<ModSet>,
    mut refs: Vec<ModSet>,
) -> ModRef {
    let n_globals = mcfg.module.globals.len();
    let mut changed = true;
    while changed {
        changed = false;
        for e in &cg.edges {
            let caller = mcfg.module.proc(e.caller);
            // Split-borrow via index cloning: read the callee summary,
            // update the caller summary.
            let callee_mod = mods[e.callee.index()].clone();
            let callee_ref = refs[e.callee.index()].clone();
            // Every call-graph edge is built from a call statement, so the
            // lookup can only miss if the CFG and graph disagree — in which
            // case the edge transmits nothing.
            let Some((_, _, args)) = mcfg.call_site(e.caller, e.site) else {
                continue;
            };

            for (i, arg) in args.iter().enumerate() {
                let affected_mod = callee_mod.formal(i);
                let affected_ref = callee_ref.formal(i);
                match arg {
                    Arg::Scalar(v, _) | Arg::Array(v, _) => match caller.var(*v).kind {
                        VarKind::Formal(j) => {
                            if affected_mod {
                                changed |= mods[e.caller.index()].set_formal(j);
                            }
                            if affected_ref {
                                changed |= refs[e.caller.index()].set_formal(j);
                            }
                        }
                        VarKind::Global(g) => {
                            if affected_mod {
                                changed |= mods[e.caller.index()].set_global(g);
                            }
                            if affected_ref {
                                changed |= refs[e.caller.index()].set_global(g);
                            }
                        }
                        VarKind::Local => {}
                    },
                    Arg::Value(_) => {}
                }
            }
            for g in 0..n_globals {
                let gid = GlobalId::from(g);
                if callee_mod.global(gid) {
                    changed |= mods[e.caller.index()].set_global(gid);
                }
                if callee_ref.global(gid) {
                    changed |= refs[e.caller.index()].set_global(gid);
                }
            }
        }
    }

    ModRef { mods, refs }
}

fn note_array_refs(e: &ipcp_ir::program::Expr, p: &ipcp_ir::program::Proc, r: &mut ModSet) {
    use ipcp_ir::program::Expr;
    match e {
        Expr::Load(v, idx, _) => {
            match p.var(*v).kind {
                VarKind::Formal(i) => {
                    r.set_formal(i);
                }
                VarKind::Global(g) => {
                    r.set_global(g);
                }
                VarKind::Local => {}
            }
            note_array_refs(idx, p, r);
        }
        Expr::Unary(_, x, _) => note_array_refs(x, p, r),
        Expr::Binary(_, l, rr, _) => {
            note_array_refs(l, p, r);
            note_array_refs(rr, p, r);
        }
        Expr::Const(..) | Expr::Var(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_call_graph;
    use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};

    fn analyze(src: &str) -> (ModuleCfg, CallGraph, ModRef) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        (m, cg, mr)
    }

    fn pid(m: &ModuleCfg, name: &str) -> ProcId {
        m.module.proc_named(name).unwrap().id
    }

    #[test]
    fn direct_assignment_to_formal_is_mod() {
        let (m, _, mr) = analyze("proc main() { x = 0; call f(x); } proc f(a) { a = 1; }");
        assert!(mr.mod_of(pid(&m, "f")).formal(0));
    }

    #[test]
    fn unmodified_formal_is_not_mod() {
        let (m, _, mr) =
            analyze("proc main() { x = 0; call f(x); } proc f(a) { y = a + 1; print y; }");
        let f = pid(&m, "f");
        assert!(!mr.mod_of(f).formal(0));
        assert!(mr.ref_of(f).formal(0));
    }

    #[test]
    fn global_assignment_is_mod() {
        let (m, _, mr) = analyze("global g; proc main() { call f(); } proc f() { g = 1; }");
        assert!(mr.mod_of(pid(&m, "f")).global(GlobalId(0)));
        // ...and propagates up to the caller.
        assert!(mr.mod_of(pid(&m, "main")).global(GlobalId(0)));
    }

    #[test]
    fn mod_propagates_through_reference_binding() {
        let (m, _, mr) = analyze(
            "proc main() { x = 0; call outer(x); } \
             proc outer(a) { call inner(a); } \
             proc inner(b) { b = 7; }",
        );
        assert!(mr.mod_of(pid(&m, "outer")).formal(0));
        assert!(mr.mod_of(pid(&m, "inner")).formal(0));
    }

    #[test]
    fn by_value_binding_blocks_mod_propagation() {
        let (m, _, mr) = analyze(
            "proc main() { x = 0; call outer(x); } \
             proc outer(a) { call inner(a + 0); } \
             proc inner(b) { b = 7; }",
        );
        assert!(!mr.mod_of(pid(&m, "outer")).formal(0));
    }

    #[test]
    fn array_store_marks_array_formal() {
        let (m, _, mr) = analyze("proc main() { array t[4]; call f(t); } proc f(b) { b[0] = 1; }");
        assert!(mr.mod_of(pid(&m, "f")).formal(0));
    }

    #[test]
    fn read_statement_is_a_mod() {
        let (m, _, mr) = analyze("global g; proc main() { call f(); } proc f() { read g; }");
        assert!(mr.mod_of(pid(&m, "f")).global(GlobalId(0)));
    }

    #[test]
    fn recursive_mod_reaches_fixpoint() {
        let (m, _, mr) = analyze(
            "global g; proc main() { call even(3); } \
             proc even(n) { if (n > 0) { m = n - 1; call odd(m); } } \
             proc odd(n) { g = g + 1; if (n > 0) { m = n - 1; call even(m); } }",
        );
        assert!(mr.mod_of(pid(&m, "even")).global(GlobalId(0)));
        assert!(mr.mod_of(pid(&m, "odd")).global(GlobalId(0)));
    }

    #[test]
    fn killed_by_call_uses_mod_precision() {
        let (m, _, mr) = analyze(
            "global g; global h; \
             proc main() { x = 1; y = 2; call f(x, y); } \
             proc f(a, b) { a = 9; g = 1; print b; }",
        );
        let main = pid(&m, "main");
        let f = pid(&m, "f");
        let mp = m.module.proc(main);
        let mut killed = None;
        m.each_call_in(main, |_, _, callee, args| {
            assert_eq!(callee, f);
            killed = Some(mr.killed_by_call(&m, main, callee, args));
        });
        let killed = killed.unwrap();
        let name = |v: &VarId| mp.var(*v).name.clone();
        let mut names: Vec<String> = killed.iter().map(name).collect();
        names.sort();
        // x (bound to the modified formal a) and g (a modified global —
        // every procedure aliases every scalar global, COMMON-style).
        // y and h survive: f neither modifies its second formal nor h.
        assert_eq!(names, vec!["g", "x"]);
    }

    #[test]
    fn worst_case_kills_all_byref_and_globals() {
        let (m, _, _) = analyze(
            "global g; \
             proc main() { x = 1; g = 2; call f(x, 5); } \
             proc f(a, b) { }",
        );
        let main = pid(&m, "main");
        let mp = m.module.proc(main);
        let mut killed = None;
        m.each_call_in(main, |_, _, _, args| {
            killed = Some(worst_case_killed(&m, main, args));
        });
        let names: Vec<String> = killed
            .unwrap()
            .iter()
            .map(|v| mp.var(*v).name.clone())
            .collect();
        assert!(names.contains(&"x".to_string()));
        assert!(names.contains(&"g".to_string()));
        assert_eq!(names.len(), 2); // the by-value `5` kills nothing
    }

    #[test]
    fn refs_include_branch_conditions_and_indices() {
        let (m, _, mr) = analyze(
            "global g; proc main() { array t[4]; call f(t, 1); } \
             proc f(b, n) { if (g > 0) { print b[n]; } }",
        );
        let f = pid(&m, "f");
        assert!(mr.ref_of(f).global(GlobalId(0)));
        assert!(mr.ref_of(f).formal(0));
        assert!(mr.ref_of(f).formal(1));
        assert!(mr.mod_of(f).is_empty());
    }

    #[test]
    fn split_phases_agree_with_compute_modref() {
        let src = "global g; proc main() { x = 0; call f(x); } \
                   proc f(a) { a = 1; call h(); } proc h() { g = 2; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let (mods, refs): (Vec<_>, Vec<_>) = m
            .module
            .procs
            .iter()
            .map(|p| direct_effects(&m, p.id))
            .unzip();
        assert_eq!(
            propagate_modref(&m, &cg, mods, refs),
            compute_modref(&m, &cg)
        );
    }

    #[test]
    fn widened_summary_spreads_soundly_to_callers() {
        // Pretend f was quarantined: its summary widens to everything,
        // and propagation carries the widened effects up through the
        // by-reference binding and the globals.
        let src = "global g; proc main() { x = 0; call f(x); } proc f(a) { print a; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let f = pid(&m, "f");
        let n_globals = m.module.globals.len();
        let (mut mods, mut refs): (Vec<_>, Vec<_>) = m
            .module
            .procs
            .iter()
            .map(|p| direct_effects(&m, p.id))
            .unzip();
        let arity = m.module.proc(f).arity();
        mods[f.index()] = ModSet::everything(arity, n_globals);
        refs[f.index()] = ModSet::everything(arity, n_globals);
        let mr = propagate_modref(&m, &cg, mods, refs);
        assert!(mr.mod_of(f).formal(0));
        assert!(mr.mod_of(f).global(GlobalId(0)));
        // main's x is a local, so no formal bit; but the global spread up.
        assert!(mr.mod_of(pid(&m, "main")).global(GlobalId(0)));
    }

    #[test]
    fn effects_in_unreachable_code_are_ignored() {
        let (m, _, mr) = analyze("global g; proc main() { call f(); } proc f() { return; g = 1; }");
        assert!(mr.mod_of(pid(&m, "f")).is_empty());
    }
}
