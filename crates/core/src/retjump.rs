//! Return jump functions (§3.2): modelling constants transmitted *back*
//! from a callee through modified reference parameters and globals.
//!
//! For every procedure `p` and every entry slot `x` (formal or scalar
//! global), `R_p^x` approximates the value `x` holds **on return from
//! `p`** as a function of `p`'s entry values — the same polynomial
//! representation as forward jump functions. Construction is a bottom-up
//! walk over the call graph: each procedure is evaluated symbolically
//! using the return jump functions of the procedures it calls (recursive
//! cycles degrade to ⊥, which is sound; FORTRAN 77 had no recursion).
//!
//! Evaluation at a call site follows the paper's §3.2 limitation by
//! default: a return jump function contributes only when it evaluates to a
//! **constant** under the values known at the call — "return jump
//! functions that depend on parameters to the calling procedure can never
//! be evaluated as constant". The `compose_return_jfs` extension lifts
//! this by substituting the actual-argument polynomials symbolically.

use crate::config::{Config, Stage};
use crate::health::Governor;
use crate::jump::{JumpFn, ProcSymbolic};
use crate::par::Pool;
use crate::pipeline::{evaluate_proc, KeptForm, PhaseFold, PhaseUnit};
use crate::quarantine::run_unit;
use ipcp_analysis::CallGraph;
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{ProcId, SlotLayout, VarId};
use ipcp_ssa::lattice::Lattice;
use ipcp_ssa::poly::Poly;
use ipcp_ssa::sccp::CallDefLattice;
use ipcp_ssa::ssa::CallKills;
use ipcp_ssa::symbolic::{CallDefEval, EvalBudget, RetTarget, SymVal};
use std::sync::Arc;

/// The return jump functions of a whole program: `fns[p][slot]`.
///
/// Every reachable procedure gets one entry per entry slot. A slot the
/// procedure provably leaves untouched holds the identity pass-through of
/// itself; a slot it may set unpredictably holds ⊥.
#[derive(Clone, Debug, Default)]
pub struct ReturnJumpFns {
    /// Per procedure, per entry slot (`None` for unreachable procedures).
    pub fns: Vec<Option<Vec<JumpFn>>>,
    /// Whether evaluation composes polynomials (extension) or applies the
    /// paper's constant-only limitation.
    pub compose: bool,
}

impl ReturnJumpFns {
    /// The return jump function for `slot` of `proc`, if computed.
    pub fn get(&self, proc: ProcId, slot: usize) -> Option<&JumpFn> {
        self.fns[proc.index()].as_ref().and_then(|v| v.get(slot))
    }

    fn target_slot(
        &self,
        mcfg: &ModuleCfg,
        callee: ProcId,
        target: RetTarget,
        layout: &SlotLayout,
    ) -> Option<usize> {
        let arity = mcfg.module.proc(callee).arity();
        match target {
            RetTarget::Formal(i) => (i < arity).then_some(i),
            RetTarget::Global(g) => layout.global_slot(arity, g),
        }
    }
}

/// The `ipcp` oracle plugged into symbolic evaluation and SCCP: resolves
/// call-modified values through return jump functions.
#[derive(Debug)]
pub struct RetOracle<'a> {
    /// The (partially built) table.
    pub table: &'a ReturnJumpFns,
    /// Module under analysis.
    pub mcfg: &'a ModuleCfg,
    /// Slot layout.
    pub layout: &'a SlotLayout,
}

impl RetOracle<'_> {
    fn jf_for(&self, callee: ProcId, target: RetTarget) -> Option<&JumpFn> {
        let slot = self
            .table
            .target_slot(self.mcfg, callee, target, self.layout)?;
        self.table.get(callee, slot)
    }

    /// The value of callee entry slot `v` at the call, over the caller's
    /// symbolic values.
    fn slot_sym<'s>(
        arg_syms: &'s [SymVal],
        global_syms: &'s [SymVal],
        arity: usize,
        v: u32,
    ) -> &'s SymVal {
        let v = v as usize;
        if v < arity {
            arg_syms.get(v).unwrap_or(&SymVal::Bottom)
        } else {
            global_syms.get(v - arity).unwrap_or(&SymVal::Bottom)
        }
    }
}

impl CallDefEval for RetOracle<'_> {
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        arg_syms: &[SymVal],
        global_syms: &[SymVal],
    ) -> SymVal {
        let Some(jf) = self.jf_for(callee, target) else {
            return SymVal::Bottom;
        };
        let arity = self.mcfg.module.proc(callee).arity();
        match jf {
            JumpFn::Bottom => SymVal::Bottom,
            JumpFn::Const(c) => SymVal::constant(*c),
            JumpFn::PassThrough(_) | JumpFn::Poly(_) if self.table.compose => {
                // Extension: substitute the caller-side polynomials for the
                // callee's entry slots.
                let poly = match jf {
                    JumpFn::PassThrough(v) => Poly::var(*v),
                    JumpFn::Poly(p) => p.clone(),
                    _ => unreachable!("outer match"),
                };
                let mut any_top = false;
                for s in poly.support() {
                    match Self::slot_sym(arg_syms, global_syms, arity, s) {
                        SymVal::Top => any_top = true,
                        SymVal::Bottom => return SymVal::Bottom,
                        SymVal::Poly(_) => {}
                    }
                }
                if any_top {
                    return SymVal::Top;
                }
                match poly.substitute(|s| {
                    Self::slot_sym(arg_syms, global_syms, arity, s)
                        .as_poly()
                        .cloned()
                }) {
                    Some(p) => SymVal::Poly(p),
                    None => SymVal::Bottom,
                }
            }
            JumpFn::PassThrough(_) | JumpFn::Poly(_) => {
                // Paper limitation: evaluate to a constant or give up.
                let result = jf.eval(|s| {
                    match Self::slot_sym(arg_syms, global_syms, arity, s) {
                        SymVal::Top => Lattice::Top,
                        SymVal::Bottom => Lattice::Bottom,
                        SymVal::Poly(p) => match p.as_const() {
                            Some(c) => Lattice::Const(c),
                            None => Lattice::Bottom, // §3.2 limitation
                        },
                    }
                });
                match result {
                    Lattice::Top => SymVal::Top,
                    Lattice::Const(c) => SymVal::constant(c),
                    Lattice::Bottom => SymVal::Bottom,
                }
            }
        }
    }
}

impl CallDefLattice for RetOracle<'_> {
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        arg_lats: &[Lattice],
        global_lats: &[Lattice],
    ) -> Lattice {
        let Some(jf) = self.jf_for(callee, target) else {
            return Lattice::Bottom;
        };
        let arity = self.mcfg.module.proc(callee).arity();
        jf.eval(|s| {
            let s = s as usize;
            if s < arity {
                arg_lats.get(s).copied().unwrap_or(Lattice::Bottom)
            } else {
                global_lats
                    .get(s - arity)
                    .copied()
                    .unwrap_or(Lattice::Bottom)
            }
        })
    }
}

/// Builds return jump functions for every reachable procedure, bottom-up
/// over the call graph SCCs.
///
/// `kills` supplies the call-effect assumption (MOD-precise or worst-case)
/// — the same oracle later used for forward jump functions, so both layers
/// see one consistent world.
///
/// Each procedure's slice (SSA build, symbolic evaluation, slot
/// classification) is a quarantine unit: a panic or a per-unit budget
/// exhaustion degrades only that procedure's return jump functions to ⊥
/// (marking it in `quarantined`), while every other procedure keeps full
/// precision. Procedures already quarantined by an earlier phase get ⊥
/// immediately, without re-running their unit.
pub fn build_return_jfs(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    config: &Config,
    quarantined: &mut [bool],
    gov: &mut Governor,
) -> ReturnJumpFns {
    build_return_jfs_keeping(mcfg, cg, layout, kills, config, quarantined, gov, false).0
}

/// [`build_return_jfs`], also handing back each procedure's symbolic
/// form when `keep` is set: for every non-recursive procedure whose
/// evaluation was not cut short by the deadline, `forms[p]` is the
/// `(ProcSymbolic, steps_exhausted)` pair its unit evaluated. Its callees'
/// table entries were final when it ran, so the form is exactly what the
/// forward-jump stage would rebuild against the finished table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_return_jfs_keeping(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    config: &Config,
    quarantined: &mut [bool],
    gov: &mut Governor,
    keep: bool,
) -> (ReturnJumpFns, Vec<Option<KeptForm>>) {
    let n_procs = mcfg.module.procs.len();
    let mut table = ReturnJumpFns {
        fns: vec![None; n_procs],
        compose: config.compose_return_jfs,
    };
    let mut forms: Vec<Option<KeptForm>> = vec![None; n_procs];
    for p in cg.bottom_up() {
        let out = run_scc_member(
            mcfg,
            &table,
            layout,
            kills,
            config,
            p,
            quarantined[p.index()],
            keep && !cg.is_recursive(p),
            gov,
        );
        if out.newly_quarantined {
            quarantined[p.index()] = true;
        }
        table.fns[p.index()] = Some(out.fns);
        forms[p.index()] = out.form;
    }
    (table, forms)
}

/// Parallel [`build_return_jfs`].
///
/// Return jump functions are the one per-procedure phase with *data*
/// dependences: a procedure's construction reads the (already built)
/// tables of its callees. The schedule follows the call-graph
/// condensation: each SCC is one unit (members may read each other's
/// fresh entries, so they stay sequential inside the unit), and units run
/// level by level — level 0 is the leaf SCCs, level `k` depends only on
/// levels `< k` — with each unit charging a governor shard
/// optimistically. Between levels the optimistic tables are committed so
/// the next level can read them.
///
/// The fold then walks SCCs in the exact bottom-up (Tarjan emission)
/// order the sequential driver uses. A unit is absorbed as-is when (a) no
/// callee SCC's committed table differs from the optimistic one its run
/// saw, and (b) [`Governor::can_absorb`] proves its charges land exactly
/// where sequential charging would have. Otherwise the unit is replayed
/// sequentially against the final table and master governor, and the
/// difference (if any) propagates to its dependents through `changed`.
/// Results, telemetry, and quarantine flags are bit-identical to the
/// sequential driver.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_return_jfs_par(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    config: &Config,
    quarantined: &mut [bool],
    gov: &mut Governor,
    pool: &Pool<'_>,
    keep: bool,
) -> (ReturnJumpFns, Vec<Option<KeptForm>>, crate::par::PhaseTime) {
    let n_procs = mcfg.module.procs.len();
    let n_sccs = cg.sccs.len();
    let snapshot: Vec<bool> = quarantined.to_vec();
    let proto = gov.shard();
    let compose = config.compose_return_jfs;

    // One SCC unit's optimistic result: per-member outcomes, with the
    // governor shard it charged.
    type SccOut = Vec<MemberOut>;

    // Optimistic phase: run each level's SCC units in parallel, committing
    // their tables before the next level starts.
    let mut opt_table = ReturnJumpFns {
        fns: vec![None; n_procs],
        compose,
    };
    let mut units: Vec<Option<PhaseUnit<SccOut>>> = (0..n_sccs).map(|_| None).collect();
    let mut time = crate::par::PhaseTime::default();
    for level in scc_levels(cg) {
        let (level_units, pt) = pool.run(level.len(), |k| {
            let si = level[k];
            let members = &cg.sccs[si];
            let mut shard = proto.shard();
            // Members of a multi-procedure SCC read each other's fresh
            // entries, so they get a private overlay of the table.
            let mut overlay: Option<ReturnJumpFns> = (members.len() > 1).then(|| opt_table.clone());
            let mut outs = Vec::with_capacity(members.len());
            for &p in members {
                let visible = overlay.as_ref().unwrap_or(&opt_table);
                let out = run_scc_member(
                    mcfg,
                    visible,
                    layout,
                    kills,
                    config,
                    p,
                    snapshot[p.index()],
                    keep && !cg.is_recursive(p),
                    &mut shard,
                );
                if let Some(o) = overlay.as_mut() {
                    o.fns[p.index()] = Some(out.fns.clone());
                }
                outs.push(out);
            }
            PhaseUnit::new(si, Ok(outs), shard)
        });
        time.absorb(pt);
        for (k, unit) in level_units.into_iter().enumerate() {
            let si = level[k];
            if let Ok(outs) = &unit.outcome {
                for (m, &p) in cg.sccs[si].iter().enumerate() {
                    opt_table.fns[p.index()] = Some(outs[m].fns.clone());
                }
            }
            units[si] = Some(unit);
        }
    }

    // Deterministic fold, in the sequential driver's SCC order.
    let mut table = ReturnJumpFns {
        fns: vec![None; n_procs],
        compose,
    };
    let mut forms: Vec<Option<KeptForm>> = vec![None; n_procs];
    let mut fold = PhaseFold::default();
    let mut changed = vec![false; n_sccs];
    for si in 0..n_sccs {
        let Some(pu) = units[si].take() else {
            continue; // unreachable SCC: never built, exactly as sequential
        };
        let members = &cg.sccs[si];
        let dep_changed = members.iter().any(|&p| {
            cg.calls_from(p).iter().any(|e| {
                let cs = cg.scc_of[e.callee.index()];
                cs != si && changed[cs]
            })
        });
        match fold.try_absorb(gov, pu, !dep_changed) {
            Some(Ok(outs)) => {
                for (out, &p) in outs.into_iter().zip(members) {
                    quarantined[p.index()] = snapshot[p.index()] || out.newly_quarantined;
                    table.fns[p.index()] = Some(out.fns);
                    forms[p.index()] = out.form;
                }
                // Committed == optimistic, so `changed[si]` stays false.
            }
            Some(Err(e)) => {
                // Units catch their own panics inside `run_scc_member`
                // and report degradation through `MemberOut`.
                unreachable!("return-JF units never fail the outcome: {e}")
            }
            None => {
                let mut any_diff = false;
                for &p in members {
                    let out = run_scc_member(
                        mcfg,
                        &table,
                        layout,
                        kills,
                        config,
                        p,
                        snapshot[p.index()],
                        keep && !cg.is_recursive(p),
                        gov,
                    );
                    if opt_table.fns[p.index()].as_ref() != Some(&out.fns) {
                        any_diff = true;
                    }
                    quarantined[p.index()] = snapshot[p.index()] || out.newly_quarantined;
                    table.fns[p.index()] = Some(out.fns);
                    forms[p.index()] = out.form;
                }
                changed[si] = any_diff;
            }
        }
    }
    fold.stamp(&mut time);
    (table, forms, time)
}

/// Groups the call graph's reachable SCCs into dependency levels: level 0
/// has no cross-SCC callees, level `k` calls only into levels `< k`.
/// Within a level, SCC indices ascend (their relative bottom-up order).
/// All SCCs of one level can be built concurrently once the previous
/// levels' tables are committed.
fn scc_levels(cg: &CallGraph) -> Vec<Vec<usize>> {
    let mut level = vec![0usize; cg.sccs.len()];
    let mut levels: Vec<Vec<usize>> = Vec::new();
    for (si, members) in cg.sccs.iter().enumerate() {
        // Reachability is uniform across an SCC (it is strongly
        // connected), so the first member decides.
        if !members.first().is_some_and(|p| cg.reachable[p.index()]) {
            continue;
        }
        let mut lv = 0;
        for &p in members {
            for e in cg.calls_from(p) {
                let cs = cg.scc_of[e.callee.index()];
                if cs != si {
                    // Tarjan emits callee SCCs first, so level[cs] is final.
                    lv = lv.max(level[cs] + 1);
                }
            }
        }
        level[si] = lv;
        while levels.len() <= lv {
            levels.push(Vec::new());
        }
        levels[lv].push(si);
    }
    levels
}

/// One procedure's result in the bottom-up walk: its slot functions,
/// whether this unit newly quarantined it, and the symbolic form it
/// evaluated when the caller asked to keep it.
#[derive(Debug)]
pub(crate) struct MemberOut {
    /// Return jump function per entry slot.
    pub fns: Vec<JumpFn>,
    /// Whether the unit panicked here (the procedure is quarantined).
    pub newly_quarantined: bool,
    /// The `(ProcSymbolic, steps_exhausted)` pair the unit evaluated —
    /// `None` unless kept (see [`build_return_jfs_keeping`]).
    pub form: Option<KeptForm>,
}

/// One procedure's slice of the bottom-up walk: the quarantine
/// short-circuit, the quarantined unit, and the panic containment —
/// shared verbatim by the sequential driver, the optimistic parallel
/// units, the fold's replay path and serve's incremental driver. With
/// `keep`, the unit hands back its symbolic form unless the deadline cut
/// the evaluation short.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_scc_member(
    mcfg: &ModuleCfg,
    table: &ReturnJumpFns,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    config: &Config,
    p: ProcId,
    already_quarantined: bool,
    keep: bool,
    gov: &mut Governor,
) -> MemberOut {
    let proc = mcfg.module.proc(p);
    let n_slots = layout.n_slots(proc.arity());
    let bottom = || MemberOut {
        fns: vec![JumpFn::Bottom; n_slots],
        newly_quarantined: false,
        form: None,
    };
    if already_quarantined {
        return bottom();
    }
    let latch = Arc::clone(gov.latch());
    let budget = EvalBudget {
        max_steps: gov.limits().max_symbolic_steps,
        deadline: config.deadline.map(|d| d.instant()),
        latch: Some(&latch),
    };
    let unit = run_unit(config, Stage::RetJump, p.index(), || {
        build_proc_ret_jfs(mcfg, table, layout, kills, p, n_slots, &budget, gov)
    });
    match unit {
        Ok((fns, form, cut_by_deadline)) => MemberOut {
            fns,
            newly_quarantined: false,
            form: (keep && !cut_by_deadline).then_some(form),
        },
        Err(e) => {
            gov.record_quarantine(
                Stage::RetJump,
                format!(
                    "{}: panic contained ({}); return jump functions forced to ⊥",
                    proc.name, e.message
                ),
            );
            MemberOut {
                newly_quarantined: true,
                ..bottom()
            }
        }
    }
}

/// One procedure's slice of return-jump-function construction — the unit
/// of work [`build_return_jfs`] runs under quarantine. Returns the slot
/// functions, the symbolic form they were read from, and whether the
/// deadline cut that evaluation short.
#[allow(clippy::too_many_arguments)]
fn build_proc_ret_jfs(
    mcfg: &ModuleCfg,
    table: &ReturnJumpFns,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    p: ProcId,
    n_slots: usize,
    budget: &EvalBudget<'_>,
    gov: &mut Governor,
) -> (Vec<JumpFn>, KeptForm, bool) {
    let (ps, exhausted) = evaluate_proc(mcfg, layout, kills, Some(table), p, false, None, budget);
    let ProcSymbolic { ssa, sym, .. } = &ps;
    let proc = mcfg.module.proc(p);
    let cut_by_deadline = exhausted && gov.deadline_expired();
    if cut_by_deadline {
        gov.record_deadline(
            Stage::RetJump,
            format!(
                "{}: deadline expired during symbolic evaluation; \
                 pending values forced to ⊥",
                proc.name
            ),
        );
    } else if exhausted {
        gov.record_quarantine(
            Stage::RetJump,
            format!(
                "{}: symbolic evaluation step slice exhausted; \
                 pending values forced to ⊥",
                proc.name
            ),
        );
    }
    let mut fns = Vec::with_capacity(n_slots);
    for slot in 0..n_slots {
        let var: Option<VarId> = if slot < proc.arity() {
            Some(proc.formals[slot])
        } else {
            proc.var_for_global(layout.scalar_globals[slot - proc.arity()])
        };
        let jf = match var {
            Some(v) if !proc.var(v).is_array => {
                let mut acc = SymVal::Top;
                for (_, snapshot) in &ssa.exits {
                    let at_exit = snapshot[v.index()]
                        .map(|val| sym.value(val).clone())
                        .unwrap_or(SymVal::Bottom);
                    acc = acc.meet(&at_exit);
                }
                match acc {
                    // No reachable exit (infinite loop): the value is
                    // never observed after the call; ⊥ is safe.
                    SymVal::Top => JumpFn::Bottom,
                    SymVal::Bottom => JumpFn::Bottom,
                    SymVal::Poly(p) => match (p.as_const(), p.as_var()) {
                        (Some(c), _) => JumpFn::Const(c),
                        (None, Some(v)) => JumpFn::PassThrough(v),
                        _ => JumpFn::Poly(p),
                    },
                }
            }
            _ => JumpFn::Bottom,
        };
        // Each slot classification charges the return-jump budget, and
        // the result is clamped to the polynomial shape limits.
        let jf = if gov.charge(Stage::RetJump) {
            let limits = *gov.limits();
            let (clamped, degraded) = jf.clamp(&limits);
            if degraded {
                gov.record(
                    Stage::RetJump,
                    format!(
                        "{}: slot {slot}: polynomial exceeds shape limits; \
                         degraded to {clamped}",
                        proc.name
                    ),
                );
            }
            clamped
        } else {
            if !jf.is_bottom() {
                gov.record(
                    Stage::RetJump,
                    format!(
                        "{}: slot {slot}: classification budget exhausted; forced to ⊥",
                        proc.name
                    ),
                );
            }
            JumpFn::Bottom
        };
        fns.push(jf);
    }
    (fns, (ps, exhausted), cut_by_deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_analysis::{build_call_graph, compute_modref};
    use ipcp_ir::{lower_module, parse_and_resolve};
    use ipcp_ssa::ssa::ModKills;

    fn ret_jfs(src: &str) -> (ipcp_ir::ModuleCfg, CallGraph, SlotLayout, ReturnJumpFns) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let layout = SlotLayout::new(&m.module);
        let mut quarantined = vec![false; m.module.procs.len()];
        let table = build_return_jfs(
            &m,
            &cg,
            &layout,
            &ModKills(&mr),
            &Config::default(),
            &mut quarantined,
            &mut Governor::unlimited(),
        );
        (m, cg, layout, table)
    }

    fn pid(m: &ipcp_ir::ModuleCfg, name: &str) -> ProcId {
        m.module.proc_named(name).unwrap().id
    }

    #[test]
    fn constant_assignment_yields_const_ret_jf() {
        let (m, _, _, t) =
            ret_jfs("proc main() { x = 0; call setx(x); print x; } proc setx(a) { a = 42; }");
        assert_eq!(t.get(pid(&m, "setx"), 0), Some(&JumpFn::Const(42)));
    }

    #[test]
    fn untouched_formal_is_identity() {
        let (m, _, _, t) =
            ret_jfs("proc main() { x = 0; call f(x, 1); } proc f(a, b) { a = b + 1; }");
        let f = pid(&m, "f");
        // a = b + 1 → polynomial x1 + 1; b untouched → identity x1.
        match t.get(f, 0) {
            Some(JumpFn::Poly(p)) => assert_eq!(p.eval(&[0, 5]), Some(6)),
            other => panic!("{other:?}"),
        }
        assert_eq!(t.get(f, 1), Some(&JumpFn::PassThrough(1)));
    }

    #[test]
    fn polynomial_of_entries() {
        let (m, _, _, t) =
            ret_jfs("proc main() { x = 0; call f(x, 3, 4); } proc f(a, b, c) { a = b * c + 1; }");
        match t.get(pid(&m, "f"), 0) {
            Some(JumpFn::Poly(p)) => {
                assert_eq!(p.eval(&[0, 3, 4]), Some(13));
                assert_eq!(p.support(), vec![1, 2]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn global_init_routine_exposes_constants() {
        // The `ocean` pattern: an init procedure assigns constant globals.
        let (m, _, layout, t) = ret_jfs(
            "global nx; global ny; \
             proc main() { call init(); } \
             proc init() { nx = 128; ny = 64; }",
        );
        let init = pid(&m, "init");
        let arity = 0;
        let nx_slot = layout
            .global_slot(arity, ipcp_ir::program::GlobalId(0))
            .unwrap();
        let ny_slot = layout
            .global_slot(arity, ipcp_ir::program::GlobalId(1))
            .unwrap();
        assert_eq!(t.get(init, nx_slot), Some(&JumpFn::Const(128)));
        assert_eq!(t.get(init, ny_slot), Some(&JumpFn::Const(64)));
    }

    #[test]
    fn data_dependent_exit_is_bottom() {
        let (m, _, _, t) = ret_jfs("proc main() { x = 0; call f(x); } proc f(a) { read a; }");
        assert_eq!(t.get(pid(&m, "f"), 0), Some(&JumpFn::Bottom));
    }

    #[test]
    fn divergent_exits_meet_to_bottom() {
        let (m, _, _, t) = ret_jfs(
            "proc main() { x = 0; call f(x); } \
             proc f(a) { if (a) { a = 1; return; } a = 2; }",
        );
        assert_eq!(t.get(pid(&m, "f"), 0), Some(&JumpFn::Bottom));
    }

    #[test]
    fn agreeing_exits_stay_constant() {
        let (m, _, _, t) = ret_jfs(
            "proc main() { x = 0; call f(x); } \
             proc f(a) { if (a) { a = 7; return; } a = 7; }",
        );
        assert_eq!(t.get(pid(&m, "f"), 0), Some(&JumpFn::Const(7)));
    }

    #[test]
    fn ret_jfs_chain_through_callees() {
        // mid's ret JF uses leaf's: a = 5 via leaf, then +1.
        let (m, _, _, t) = ret_jfs(
            "proc main() { x = 0; call mid(x); } \
             proc mid(a) { call leaf(a); a = a + 1; } \
             proc leaf(b) { b = 5; }",
        );
        assert_eq!(t.get(pid(&m, "mid"), 0), Some(&JumpFn::Const(6)));
    }

    #[test]
    fn recursive_procedures_degrade_to_bottom() {
        let (m, _, _, t) = ret_jfs(
            "proc main() { x = 0; call f(x); } \
             proc f(a) { if (a > 0) { a = a - 1; call f(a); } }",
        );
        assert_eq!(t.get(pid(&m, "f"), 0), Some(&JumpFn::Bottom));
    }

    #[test]
    fn limitation_vs_composition_at_evaluation() {
        // g's ret JF in `twice` is x0 (identity of the formal) + 1 … i.e.
        // depends on the caller's argument. Under the paper limitation the
        // oracle yields ⊥ unless the argument is constant; with
        // composition it stays symbolic.
        let src = "proc main() { x = 0; call add1(x); } proc add1(a) { a = a + 1; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let layout = SlotLayout::new(&m.module);
        for (compose, expect_poly) in [(false, false), (true, true)] {
            let config = Config::builder()
                .compose_return_jfs(compose)
                .build()
                .expect("valid combination");
            let mut quarantined = vec![false; m.module.procs.len()];
            let t = build_return_jfs(
                &m,
                &cg,
                &layout,
                &ModKills(&mr),
                &config,
                &mut quarantined,
                &mut Governor::unlimited(),
            );
            let oracle = RetOracle {
                table: &t,
                mcfg: &m,
                layout: &layout,
            };
            let add1 = m.module.proc_named("add1").unwrap().id;
            // Argument symbolically = caller's formal-like poly var 0.
            let arg = SymVal::Poly(Poly::var(0));
            let got = CallDefEval::eval_call_def(&oracle, add1, RetTarget::Formal(0), &[arg], &[]);
            if expect_poly {
                let p = got.as_poly().expect("composed polynomial");
                assert_eq!(p.eval(&[9]), Some(10));
            } else {
                assert_eq!(got, SymVal::Bottom);
            }
            // With a constant argument both modes give the constant.
            let got = CallDefEval::eval_call_def(
                &oracle,
                add1,
                RetTarget::Formal(0),
                &[SymVal::constant(9)],
                &[],
            );
            assert_eq!(got.as_const(), Some(10));
        }
    }
}
