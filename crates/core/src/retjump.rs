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
use crate::par::{PhaseTime, Pool};
use crate::pipeline::{evaluate_proc, KeptForm, PhaseFold, PhaseUnit};
use crate::quarantine::run_unit;
use crate::serve::cache::{
    CacheTxn, CachedSummary, Charges, MemoKeys, Reuse, Served, SummaryStage,
};
use ipcp_analysis::CallGraph;
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{ProcId, SlotLayout, VarId};
use ipcp_ir::Table;
use ipcp_ssa::lattice::Lattice;
use ipcp_ssa::poly::Poly;
use ipcp_ssa::sccp::CallDefLattice;
use ipcp_ssa::ssa::CallKills;
use ipcp_ssa::symbolic::{CallActuals, CallDefEval, EvalBudget, RetTarget, SymVal};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// The return jump functions of a whole program: `fns[p][slot]`.
///
/// Every reachable procedure gets one entry per entry slot. A slot the
/// procedure provably leaves untouched holds the identity pass-through of
/// itself; a slot it may set unpredictably holds ⊥. Each procedure's
/// entry is shared, so an analysis that reuses another's entries (serve's
/// live-analysis reuse, a multi-member SCC's fresh overlay) copies none.
#[derive(Clone, Debug, Default)]
pub struct ReturnJumpFns {
    /// Per procedure, per entry slot (`None` for unreachable procedures).
    pub fns: Table<Option<Arc<[JumpFn]>>>,
    /// Whether evaluation composes polynomials (extension) or applies the
    /// paper's constant-only limitation.
    pub compose: bool,
}

impl ReturnJumpFns {
    /// The return jump function for `slot` of `proc`, if computed.
    pub fn get(&self, proc: ProcId, slot: usize) -> Option<&JumpFn> {
        self.fns[proc.index()].as_ref().and_then(|v| v.get(slot))
    }
}

/// Where a [`RetOracle`] reads callee return jump functions: a whole
/// [`ReturnJumpFns`] table, or a return-jump unit's view of one.
pub trait RetTable {
    /// The return jump functions of `proc`, one per entry slot, if built
    /// yet.
    fn ret_fns(&self, proc: ProcId) -> Option<&[JumpFn]>;
    /// Whether evaluation composes polynomials (extension).
    fn compose(&self) -> bool;
}

impl RetTable for ReturnJumpFns {
    fn ret_fns(&self, proc: ProcId) -> Option<&[JumpFn]> {
        self.fns[proc.index()].as_deref()
    }

    fn compose(&self) -> bool {
        self.compose
    }
}

/// The table a return-jump unit reads: the shared table plus, inside a
/// multi-member SCC unit, the fresh entries of the members it has built so
/// far. A unit's own members are absent from the shared table until the
/// unit commits, so the overlay costs a copy of the SCC's own entries, not
/// of the whole table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetView<'a> {
    table: &'a ReturnJumpFns,
    fresh: &'a [(ProcId, Arc<[JumpFn]>)],
}

impl<'a> RetView<'a> {
    /// The table alone.
    pub(crate) fn of(table: &'a ReturnJumpFns) -> RetView<'a> {
        RetView { table, fresh: &[] }
    }

    /// Procedure `proc`'s functions as the view reads them.
    fn fns(&self, proc: ProcId) -> Option<&'a Arc<[JumpFn]>> {
        let fresh = || self.fresh.iter().find(|(q, _)| *q == proc).map(|(_, f)| f);
        self.table
            .fns
            .get(proc.index())
            .and_then(Option::as_ref)
            .or_else(fresh)
    }
}

/// Whether two entries hold the same functions (by `Arc` or by value).
fn same_fns(a: Option<&Arc<[JumpFn]>>, b: Option<&Arc<[JumpFn]>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
        (None, None) => true,
        _ => false,
    }
}

impl RetTable for RetView<'_> {
    fn ret_fns(&self, proc: ProcId) -> Option<&[JumpFn]> {
        self.fns(proc).map(|fns| &**fns)
    }

    fn compose(&self) -> bool {
        self.table.compose
    }
}

/// The `ipcp` oracle plugged into symbolic evaluation and SCCP: resolves
/// call-modified values through return jump functions.
#[derive(Debug)]
pub struct RetOracle<'a, T: ?Sized = ReturnJumpFns> {
    /// The (partially built) table.
    pub table: &'a T,
    /// Module under analysis.
    pub mcfg: &'a ModuleCfg,
    /// Slot layout.
    pub layout: &'a SlotLayout,
}

impl<T: RetTable + ?Sized> RetOracle<'_, T> {
    /// The function `callee`'s entry binds to `target`, and `callee`'s
    /// arity — read off the entry, which holds one function per formal
    /// and then one per scalar global — or `None` when the table holds no
    /// entry for `callee` or no slot for `target`.
    fn jf_for(&self, callee: ProcId, target: RetTarget) -> Option<(&JumpFn, usize)> {
        let fns = self.table.ret_fns(callee)?;
        let arity = fns.len().saturating_sub(self.layout.scalar_globals.len());
        let slot = match target {
            RetTarget::Formal(i) => (i < arity).then_some(i),
            RetTarget::Global(g) => self.layout.global_slot(arity, g),
        };
        Some((fns.get(slot?)?, arity))
    }

    /// The value of callee entry slot `v` at the call, over the caller's
    /// symbolic values (⊥ for an array actual or a missing slot).
    fn slot_sym<'s>(actuals: &CallActuals<'s, SymVal>, arity: usize, v: u32) -> &'s SymVal {
        actuals.slot(arity, v as usize).unwrap_or(&SymVal::Bottom)
    }
}

impl<T: RetTable + ?Sized> CallDefEval for RetOracle<'_, T> {
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        actuals: &CallActuals<'_, SymVal>,
    ) -> SymVal {
        let Some((jf, arity)) = self.jf_for(callee, target) else {
            return SymVal::Bottom;
        };
        match jf {
            JumpFn::Bottom => SymVal::Bottom,
            JumpFn::Const(c) => SymVal::constant(*c),
            JumpFn::PassThrough(_) | JumpFn::Poly(_) if self.table.compose() => {
                // Extension: substitute the caller-side polynomials for the
                // callee's entry slots.
                let poly = match jf {
                    JumpFn::PassThrough(v) => Poly::var(*v),
                    JumpFn::Poly(p) => p.clone(),
                    _ => unreachable!("outer match"),
                };
                let mut any_top = false;
                for s in poly.support() {
                    match Self::slot_sym(actuals, arity, s) {
                        SymVal::Top => any_top = true,
                        SymVal::Bottom => return SymVal::Bottom,
                        SymVal::Poly(_) => {}
                    }
                }
                if any_top {
                    return SymVal::Top;
                }
                match poly.substitute(|s| Self::slot_sym(actuals, arity, s).as_poly().cloned()) {
                    Some(p) => SymVal::Poly(p),
                    None => SymVal::Bottom,
                }
            }
            JumpFn::PassThrough(_) | JumpFn::Poly(_) => {
                // Paper limitation: evaluate to a constant or give up.
                let result = jf.eval(|s| match Self::slot_sym(actuals, arity, s) {
                    SymVal::Top => Lattice::Top,
                    SymVal::Bottom => Lattice::Bottom,
                    SymVal::Poly(p) => match p.as_const() {
                        Some(c) => Lattice::Const(c),
                        None => Lattice::Bottom, // §3.2 limitation
                    },
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

impl<T: RetTable + ?Sized> CallDefLattice for RetOracle<'_, T> {
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        actuals: &CallActuals<'_, Lattice>,
    ) -> Lattice {
        let Some((jf, arity)) = self.jf_for(callee, target) else {
            return Lattice::Bottom;
        };
        jf.eval(|s| {
            actuals
                .slot(arity, s as usize)
                .copied()
                .unwrap_or(Lattice::Bottom)
        })
    }
}

/// Builds return jump functions for every reachable procedure, bottom-up
/// over the call graph SCCs, on a pool of `config.effective_jobs()`.
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
    let (table, _, _, _) = build_return_jfs_on(
        mcfg,
        cg,
        layout,
        kills,
        config,
        quarantined,
        gov,
        Pool::new(config.effective_jobs()),
        false,
        None,
        &[],
        &mut CacheTxn::new(),
    );
    table
}

/// [`build_return_jfs`] on `pool`, with the memo consulted per procedure,
/// also handing back each procedure's symbolic form when `keep` is set:
/// for every non-recursive procedure whose evaluation was neither cut
/// short by the deadline nor served from the memo, `forms[p]` is the
/// `(ProcSymbolic, steps_exhausted)` pair its unit evaluated. Its callees'
/// table entries were final when it ran, so the form is exactly what the
/// forward-jump stage would rebuild against the finished table. Also
/// returns `bad[p]`: `p`'s functions are degraded or read a degraded
/// result, so no clean cone computes them (meaningful only with a memo).
///
/// Return jump functions are the one per-procedure phase with *data*
/// dependences: a procedure's construction reads the (already built)
/// tables of its callees. Each SCC of the condensation is one unit
/// (members may read each other's fresh entries, so they stay sequential
/// inside the unit). On a pool with workers the units run ahead level by
/// level — level 0 is the leaf SCCs, level `k` depends only on levels
/// `< k` — each against a governor shard, with each level's optimistic
/// tables committed before the next level starts.
///
/// The fold then walks SCCs in the bottom-up (Tarjan emission) order. A
/// unit run ahead is absorbed as-is when (a) no callee SCC's committed
/// table differs from the optimistic one its run saw, and (b)
/// [`Governor::can_absorb`] proves its charges land exactly where
/// sequential charging would have. Otherwise — or when nothing ran
/// ahead, as on a pool without workers — the unit runs against the final
/// table and the master governor, and the difference from its optimistic
/// run (if any) propagates to its dependents through `changed`.
///
/// With a memo, a unit whose inputs include a degraded result — a MOD set
/// a degraded MOD/REF unit widened (`mod_tainted[p]`), or a callee's
/// degraded or tainted functions — is a forced miss: no clean cone
/// computes what it computes, so the cache neither serves nor keeps it.
/// The taint a unit ran ahead under is part of what the fold compares.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_return_jfs_on(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    config: &Config,
    quarantined: &mut [bool],
    gov: &mut Governor,
    pool: Pool,
    keep: bool,
    memo: Option<&MemoKeys<'_>>,
    mod_tainted: &[bool],
    txn: &mut CacheTxn,
) -> (
    ReturnJumpFns,
    Vec<Option<Box<KeptForm>>>,
    PhaseTime,
    Vec<bool>,
) {
    let n_procs = mcfg.module.procs.len();
    let n_sccs = cg.sccs.len();
    let stage = RetStage {
        mcfg,
        cg,
        layout,
        kills,
        config,
        before: quarantined.to_vec().into(),
        keep,
        memo,
        mod_tainted,
        reuse: None,
    };
    let empty = || ReturnJumpFns {
        fns: Table::filled(n_procs, None),
        compose: config.compose_return_jfs,
    };

    // Optimistic phase: run each level's SCC units on the pool, committing
    // their tables before the next level starts.
    let master: &Governor = gov;
    let ahead = pool.ahead(|| {
        let mut opt_table = empty();
        let mut opt_bad = vec![false; n_procs];
        let mut opt_taint = vec![false; n_sccs];
        let mut units: Vec<Option<PhaseUnit<Vec<MemberOut>>>> = (0..n_sccs).map(|_| None).collect();
        let mut time = PhaseTime::default();
        for level in scc_levels(cg) {
            let taint: Vec<bool> = level
                .iter()
                .map(|&si| stage.taint_in(si, |q| opt_bad[q]))
                .collect();
            let (level_units, pt) = pool.run(level.len(), |k| {
                let mut shard = master.shard();
                let outs = stage.scc_unit(level[k], &opt_table, taint[k], &mut shard);
                PhaseUnit::new(level[k], outs, shard)
            });
            time.absorb(pt);
            for (unit, taint) in level_units.into_iter().zip(taint) {
                let si = unit.index;
                opt_taint[si] = taint;
                for (out, &p) in unit.outcome.iter().zip(&cg.sccs[si]) {
                    opt_table.fns.set(p.index(), Some(Arc::clone(&out.fns)));
                    opt_bad[p.index()] = out.bad;
                }
                units[si] = Some(unit);
            }
        }
        (units, opt_table, opt_taint, time)
    });
    let (mut units, opt_table, opt_taint, mut time) = ahead.unwrap_or_else(|| {
        let reachable = cg.bottom_up().count();
        let time = PhaseTime::sequential(Duration::ZERO, reachable);
        (Vec::new(), ReturnJumpFns::default(), Vec::new(), time)
    });

    // Deterministic fold, in bottom-up SCC order. `forms` holds only the
    // forms of units that ran.
    let mut table = empty();
    let mut forms: Vec<Option<Box<KeptForm>>> = vec![None; n_procs];
    let mut bad = vec![false; n_procs];
    let mut fold = PhaseFold::default();
    let mut changed = vec![false; n_sccs];
    for (si, members) in cg.sccs.iter().enumerate() {
        // Reachability is uniform across an SCC (it is strongly
        // connected); an unreachable SCC is never built.
        if !members.first().is_some_and(|p| cg.reachable[p.index()]) {
            continue;
        }
        let taint = stage.taint_in(si, |q| bad[q]);
        let absorbed = units.get_mut(si).and_then(Option::take).and_then(|unit| {
            let dep_changed = members.iter().any(|&p| {
                cg.calls_from(p).iter().any(|e| {
                    let cs = cg.scc_of[e.callee.index()];
                    cs != si && changed[cs]
                })
            });
            fold.try_absorb(gov, unit, !dep_changed && opt_taint[si] == taint)
        });
        let outs = match absorbed {
            Some(outs) => outs, // committed == optimistic: `changed[si]` stays false
            None => {
                let outs = stage.scc_unit(si, &table, taint, gov);
                changed[si] = members.iter().zip(&outs).any(|(&p, out)| {
                    opt_table.fns.get(p.index()).and_then(Option::as_ref) != Some(&out.fns)
                });
                outs
            }
        };
        for (out, &p) in outs.into_iter().zip(members) {
            let pi = p.index();
            bad[pi] = out.bad;
            quarantined[pi] = stage.before[pi] || out.newly_quarantined;
            table.fns.set(pi, Some(out.fns));
            // Only a unit that ran keeps a form, and `forms` starts empty.
            forms[pi] = out.form;
            txn.log_ret_charges(pi, out.charges);
            txn.note_unit(SummaryStage::RetJump, pi, out.served);
        }
    }
    fold.stamp(&mut time);
    (table, forms, time, bad)
}

/// What the return-jump stage of a run that reuses the live analysis
/// hands on: the table, the forms its units kept, the members of the
/// SCCs it visited, those whose unit ran rather than reusing its live
/// functions, those whose functions (or whether they are degraded) moved
/// from the live run's, and those whose functions are degraded or read a
/// degraded result, each ascending.
#[derive(Debug)]
pub(crate) struct RetCone {
    pub(crate) table: ReturnJumpFns,
    pub(crate) forms: Vec<(usize, Box<KeptForm>)>,
    pub(crate) visited: Vec<usize>,
    pub(crate) ran: Vec<usize>,
    pub(crate) moved: Vec<usize>,
    pub(crate) bad: Vec<usize>,
    pub(crate) time: PhaseTime,
}

/// The return-jump stage of a run that reuses the live analysis: starting
/// from the live table, it visits the SCCs holding a procedure of `start`
/// and, by early cutoff, every SCC that calls a procedure whose functions
/// moved or whose degradation changed, bottom-up (ascending SCC index,
/// the order of the plain walk); every other procedure keeps its live
/// functions. A visited SCC runs as [`build_return_jfs_on`] runs it —
/// each member reusing its live functions when its inputs are the live
/// run's, charging `gov`, and taking `mod_tainted` and its callees'
/// degradation as taint — and notes its units in `txn` in SCC order.
/// `quarantined` holds the flags of the stage before, and takes the
/// members this stage quarantines. The SCCs it does not visit charge
/// their recorded charges as one batch
/// ([`Unvisited`](crate::serve::cache::Unvisited)); `None` when that
/// batch does not replay.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_return_jfs_cone(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    config: &Config,
    quarantined: &mut Table<bool>,
    gov: &mut Governor,
    keep: bool,
    memo: &MemoKeys<'_>,
    reuse: &Reuse<'_>,
    txn: &mut CacheTxn,
    mod_tainted: &[bool],
    start: impl IntoIterator<Item = usize>,
) -> Option<RetCone> {
    let t0 = std::time::Instant::now();
    let stage = RetStage {
        mcfg,
        cg,
        layout,
        kills,
        config,
        before: quarantined.clone(),
        keep,
        memo: Some(memo),
        mod_tainted,
        reuse: Some(reuse),
    };
    let live = &reuse.live.ret_jfs.fns;
    let mut table = ReturnJumpFns {
        fns: live.clone(),
        compose: config.compose_return_jfs,
    };
    let (mut forms, mut visited) = (Vec::new(), Vec::new());
    let (mut ran, mut moved) = (Vec::new(), Vec::new());
    // Whether a visited procedure's functions are bad; an unvisited one is
    // the live run's clean unit.
    let mut bad: HashMap<usize, bool> = HashMap::new();
    let mut todo: BinaryHeap<Reverse<usize>> =
        start.into_iter().map(|p| Reverse(cg.scc_of[p])).collect();
    let (mut last, mut units) = (None, 0);
    let [mut unvisited, _] = reuse.unvisited();
    while let Some(Reverse(si)) = todo.pop() {
        let members = &cg.sccs[si];
        if last.replace(si) == Some(si) || !members.first().is_some_and(|p| cg.reachable[p.index()])
        {
            continue;
        }
        let live_charges = members.iter().map(|p| reuse.ret_charges(p.index()));
        if !unvisited.visit(gov, si, live_charges) {
            return None;
        }
        units += 1;
        // As in the bottom-up walk, a unit sees no entry of its own SCC
        // but the fresh ones of the members before it.
        for &p in members {
            table.fns.set(p.index(), None);
            visited.push(p.index());
        }
        let taint = stage.taint_in(si, |q| bad.get(&q).copied().unwrap_or(false));
        let outs = stage.scc_unit(si, &table, taint, gov);
        for (out, &p) in outs.into_iter().zip(members) {
            let pi = p.index();
            if out.newly_quarantined {
                quarantined.set(pi, true);
            }
            if !out.reused {
                ran.push(pi);
            }
            bad.insert(pi, out.bad);
            if out.bad != reuse.live_bad(pi) || !same_fns(Some(&out.fns), live[pi].as_ref()) {
                moved.push(pi);
                todo.extend(
                    cg.calls_to(p)
                        .map(|e| cg.scc_of[e.caller.index()])
                        .filter(|&cs| cs != si)
                        .map(Reverse),
                );
            }
            table.fns.set(pi, Some(out.fns));
            if let Some(form) = out.form {
                forms.push((pi, form));
            }
            txn.log_ret_charges(pi, out.charges);
            txn.note_unit(SummaryStage::RetJump, pi, out.served);
        }
    }
    if !unvisited.finish(gov) {
        return None;
    }
    visited.sort_unstable();
    ran.sort_unstable();
    moved.sort_unstable();
    let mut bad: Vec<usize> = bad
        .into_iter()
        .filter_map(|(p, b)| b.then_some(p))
        .collect();
    bad.sort_unstable();
    Some(RetCone {
        table,
        forms,
        visited,
        ran,
        moved,
        bad,
        time: PhaseTime::sequential(t0.elapsed(), units),
    })
}

/// Groups the call graph's reachable SCCs into dependency levels: level 0
/// calls no SCC but itself, level `k` calls only into levels `< k`.
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
/// whether this unit newly quarantined it, the symbolic form it evaluated
/// when the caller asked to keep it, how the memo served it, and the
/// charges of a clean unit.
#[derive(Debug)]
struct MemberOut {
    /// Return jump function per entry slot.
    fns: Arc<[JumpFn]>,
    /// Whether the unit panicked here (the procedure is quarantined).
    newly_quarantined: bool,
    /// The `(ProcSymbolic, steps_exhausted)` pair the unit evaluated —
    /// `None` unless kept (see [`build_return_jfs_on`]).
    form: Option<Box<KeptForm>>,
    /// The memo's note for this procedure.
    served: Served,
    /// The governor charges of a clean unit (recorded for reuse).
    charges: Charges,
    /// Whether the live analysis's functions were reused.
    reused: bool,
    /// Whether the functions are degraded or read a degraded result (see
    /// [`build_return_jfs_on`]).
    bad: bool,
}

/// A unit that reused its live functions: them, the charges it replayed
/// and its memo note.
#[derive(Debug)]
struct Reused {
    fns: Arc<[JumpFn]>,
    charges: Charges,
    served: Served,
}

/// Everything a return-jump unit reads besides the table and the governor
/// it charges.
struct RetStage<'a> {
    mcfg: &'a ModuleCfg,
    cg: &'a CallGraph,
    layout: &'a SlotLayout,
    kills: &'a (dyn CallKills + Sync),
    config: &'a Config,
    /// Quarantine flags as the stage found them.
    before: Table<bool>,
    keep: bool,
    memo: Option<&'a MemoKeys<'a>>,
    /// `mod_tainted[p]`: a callee's MOD set was widened by a degraded
    /// MOD/REF unit (empty when no memo is consulted or MOD is off).
    mod_tainted: &'a [bool],
    /// The live analysis to reuse (only with a memo).
    reuse: Option<&'a Reuse<'a>>,
}

impl RetStage<'_> {
    /// Whether SCC `si`'s unit reads a degraded result, given `bad` for
    /// the procedures below it (see [`build_return_jfs_on`]). Always
    /// `false` without a memo: only the cache cares.
    fn taint_in(&self, si: usize, bad: impl Fn(usize) -> bool) -> bool {
        let cg = self.cg;
        self.memo.is_some()
            && cg.sccs[si].iter().any(|&p| {
                self.mod_tainted.get(p.index()).is_some_and(|&t| t)
                    || cg
                        .calls_from(p)
                        .iter()
                        .any(|e| cg.scc_of[e.callee.index()] != si && bad(e.callee.index()))
            })
    }

    /// One SCC's unit: its members in order, each reading `table` plus the
    /// fresh entries of the members before it. `tainted`: the unit reads
    /// a degraded result; a member also does once an earlier member's
    /// functions are bad.
    fn scc_unit(
        &self,
        si: usize,
        table: &ReturnJumpFns,
        mut tainted: bool,
        gov: &mut Governor,
    ) -> Vec<MemberOut> {
        let members = &self.cg.sccs[si];
        let mut fresh: Vec<(ProcId, Arc<[JumpFn]>)> = Vec::new();
        let mut outs = Vec::with_capacity(members.len());
        for &p in members {
            let view = RetView {
                table,
                fresh: &fresh,
            };
            let out = self.member(view, p, tainted, gov);
            tainted |= out.bad;
            if members.len() > 1 {
                fresh.push((p, Arc::clone(&out.fns)));
            }
            outs.push(out);
        }
        outs
    }

    /// Procedure `p`'s functions in the live analysis (`None` without one).
    fn live_fns(&self, p: ProcId) -> Option<&Arc<[JumpFn]>> {
        self.reuse?.live.ret_jfs.fns[p.index()].as_ref()
    }

    /// Procedure `p`'s live functions, when its unit may reuse them: an
    /// earlier stage did not quarantine it, it is clean
    /// ([`Reuse::clean`]), it reads no degraded result, every callee
    /// entry `view` holds is the live one, and its recorded charges replay
    /// through [`Governor::can_absorb`]. A callee the view lacks is a later
    /// member of `p`'s own SCC, which the live run had not built at this
    /// point either. A reused unit is noted as the memo hit the plain path
    /// makes, or stages its live result under its moved key.
    fn reused(
        &self,
        view: RetView<'_>,
        p: ProcId,
        tainted: bool,
        gov: &mut Governor,
    ) -> Option<Reused> {
        let (pi, cg) = (p.index(), self.cg);
        let (r, memo) = self
            .reuse
            .zip(self.memo)
            .filter(|_| !tainted && !self.before[pi])?;
        let fns = self
            .live_fns(p)
            .filter(|_| r.clean(memo, SummaryStage::RetJump, pi))?;
        let same_inputs = cg.calls_from(p).iter().all(|e| match view.fns(e.callee) {
            Some(now) => same_fns(Some(now), self.live_fns(e.callee)),
            None => cg.scc_of[e.callee.index()] == cg.scc_of[pi],
        });
        let charges = *r.ret_charges(pi);
        if !same_inputs || !gov.replay(&charges) {
            return None;
        }
        let served = r.served(memo, SummaryStage::RetJump, pi, || CachedSummary::RetJump {
            fns: fns.to_vec(),
            charges,
        });
        Some(Reused {
            fns: Arc::clone(fns),
            charges,
            served,
        })
    }

    /// One procedure's unit with the memo consulted first. A hit replays
    /// its recorded charges through [`Governor::can_absorb`]; a hit that
    /// would cross a budget or fault trip runs live instead, reproducing
    /// the cold trip. A live unit runs against a recording shard, so a
    /// clean one can be cached with its charges. A `tainted` unit is a
    /// forced miss.
    fn member(&self, view: RetView<'_>, p: ProcId, tainted: bool, gov: &mut Governor) -> MemberOut {
        let pi = p.index();
        let keep = self.keep && !self.cg.is_recursive(p);
        // The quarantine short-circuit touches neither memo nor governor.
        let Some(memo) = self.memo.filter(|_| !self.before[pi]) else {
            let out = self.run(view, p, self.before[pi], keep, gov);
            return MemberOut { bad: true, ..out };
        };
        if let Some(r) = self.reused(view, p, tainted, gov) {
            return MemberOut {
                fns: r.fns,
                newly_quarantined: false,
                form: None,
                served: r.served,
                charges: r.charges,
                bad: false,
                reused: true,
            };
        }
        let lookup = memo.lookup(SummaryStage::RetJump, pi).forced_if(tainted);
        if let Some((CachedSummary::RetJump { fns, charges }, _)) = lookup.hit {
            if gov.replay(charges) {
                return MemberOut {
                    fns: Arc::from(fns.as_slice()),
                    newly_quarantined: false,
                    form: None,
                    served: lookup.served_hit(),
                    charges: *charges,
                    bad: false,
                    reused: false,
                };
            }
        }
        let mut shard = gov.shard();
        let mut out = self.run(view, p, false, keep, &mut shard);
        if gov.can_absorb(&shard) {
            // A shard that tripped can never satisfy can_absorb (its
            // counter already exceeds the cap or fault point), so this
            // branch is charge-for-charge identical to running against
            // `gov` itself.
            let clean = !out.newly_quarantined && !shard.health.degraded();
            out.charges = shard.counters();
            out.bad = tainted || !clean;
            let entry = clean.then(|| CachedSummary::RetJump {
                fns: out.fns.to_vec(),
                charges: out.charges,
            });
            gov.absorb_shard(shard);
            out.served = lookup.served_miss(entry);
        } else {
            out = self.run(view, p, false, keep, gov);
            out.served = lookup.served_miss(None);
            out.bad = true;
        }
        out
    }

    /// One procedure's slice of the bottom-up walk: the quarantine
    /// short-circuit, the quarantined unit, and the panic containment.
    /// With `keep`, the unit hands back its symbolic form unless the
    /// deadline cut the evaluation short.
    fn run(
        &self,
        view: RetView<'_>,
        p: ProcId,
        already_quarantined: bool,
        keep: bool,
        gov: &mut Governor,
    ) -> MemberOut {
        let proc = self.mcfg.module.proc(p);
        let n_slots = self.layout.n_slots(proc.arity());
        let out = |fns, form| MemberOut {
            fns,
            newly_quarantined: false,
            form,
            served: Served::Skipped,
            charges: Charges::default(),
            bad: false,
            reused: false,
        };
        let bottom = || out(vec![JumpFn::Bottom; n_slots].into(), None);
        if already_quarantined {
            return bottom();
        }
        let latch = Arc::clone(gov.latch());
        let budget = EvalBudget {
            max_steps: gov.limits().max_symbolic_steps,
            deadline: self.config.deadline.map(|d| d.instant()),
            latch: Some(&latch),
        };
        let unit = run_unit(self.config, Stage::RetJump, p.index(), || {
            build_proc_ret_jfs(
                self.mcfg,
                view,
                self.layout,
                self.kills,
                p,
                n_slots,
                &budget,
                gov,
            )
        });
        match unit {
            Ok((fns, form, cut_by_deadline)) => {
                out(fns, (keep && !cut_by_deadline).then(|| Box::new(form)))
            }
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
}

/// One procedure's slice of return-jump-function construction — the unit
/// of work [`build_return_jfs`] runs under quarantine. Returns the slot
/// functions, the symbolic form they were read from, and whether the
/// deadline cut that evaluation short.
#[allow(clippy::too_many_arguments)]
fn build_proc_ret_jfs(
    mcfg: &ModuleCfg,
    view: RetView<'_>,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    p: ProcId,
    n_slots: usize,
    budget: &EvalBudget<'_>,
    gov: &mut Governor,
) -> (Arc<[JumpFn]>, KeptForm, bool) {
    let (ps, exhausted) = evaluate_proc(mcfg, layout, kills, Some(view), p, false, None, budget);
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
    // One allocation, straight into the shared table entry.
    let fns: Arc<[JumpFn]> = (0..n_slots)
        .map(|slot| {
            let var: Option<VarId> = if slot < proc.arity() {
                Some(proc.formals[slot])
            } else {
                proc.var_for_global(layout.scalar_globals[slot - proc.arity()])
            };
            let jf = match var {
                Some(v) if !proc.var(v).is_array => {
                    let mut acc = SymVal::Top;
                    for (_, snapshot) in ssa.exits() {
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
            jf
        })
        .collect();
    (fns, (ps, exhausted), cut_by_deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_analysis::{build_call_graph, compute_modref};
    use ipcp_ir::{lower_module, parse_and_resolve};
    use ipcp_ssa::ssa::{ModKills, ValueId};

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

    /// The second member of a two-member SCC sees the first member's
    /// fresh entry, at every pool size: whichever of `a` and `b` is built
    /// second returns both globals as constants, its sibling's only
    /// through the sibling's entry. The first member, built while the
    /// second's entry is still empty, returns the second's global as ⊥.
    #[test]
    fn scc_members_read_each_others_fresh_entries_at_every_job_count() {
        let m = lower_module(
            &parse_and_resolve(
                "global g; global h; \
                 proc main() { call a(); call b(); print g + h; } \
                 proc a() { call b(); g = 5; } \
                 proc b() { call a(); h = 7; }",
            )
            .unwrap(),
        );
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let layout = SlotLayout::new(&m.module);
        let scc = &cg.sccs[cg.scc_of[pid(&m, "a").index()]];
        assert_eq!(scc.len(), 2);
        let (first, second) = (scc[0], scc[1]);
        let g = layout
            .global_slot(0, ipcp_ir::program::GlobalId(0))
            .unwrap();
        let h = layout
            .global_slot(0, ipcp_ir::program::GlobalId(1))
            .unwrap();
        let tables: Vec<Table<Option<Arc<[JumpFn]>>>> = [1, 4]
            .into_iter()
            .map(|jobs| {
                let mut quarantined = vec![false; m.module.procs.len()];
                build_return_jfs(
                    &m,
                    &cg,
                    &layout,
                    &ModKills(&mr),
                    &Config::default().with_jobs(jobs),
                    &mut quarantined,
                    &mut Governor::unlimited(),
                )
                .fns
            })
            .collect();
        assert_eq!(tables[0], tables[1], "jobs 1 and 4 disagree");
        let t = ReturnJumpFns {
            fns: tables[0].clone(),
            compose: false,
        };
        let ((own, sibling), (own_c, sibling_c)) = if second == pid(&m, "a") {
            ((g, h), (5, 7))
        } else {
            ((h, g), (7, 5))
        };
        assert_eq!(t.get(second, own), Some(&JumpFn::Const(own_c)));
        assert_eq!(
            t.get(second, sibling),
            Some(&JumpFn::Const(sibling_c)),
            "the second member must read the first member's fresh entry"
        );
        assert_eq!(t.get(first, own), Some(&JumpFn::Bottom));
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
            let eval = |arg: SymVal| {
                let values = [arg];
                let actuals = CallActuals::new(&[Some(ValueId(0))], &[], &values);
                CallDefEval::eval_call_def(&oracle, add1, RetTarget::Formal(0), &actuals)
            };
            let got = eval(SymVal::Poly(Poly::var(0)));
            if expect_poly {
                let p = got.as_poly().expect("composed polynomial");
                assert_eq!(p.eval(&[9]), Some(10));
            } else {
                assert_eq!(got, SymVal::Bottom);
            }
            // With a constant argument both modes give the constant.
            let got = eval(SymVal::constant(9));
            assert_eq!(got.as_const(), Some(10));
        }
    }
}
