//! The interprocedural propagation step: iterate `VAL` sets over the call
//! graph until the `CONSTANTS(p)` sets stabilize (§2, §4.1).
//!
//! Each procedure `p` carries a vector `VAL_p` with one lattice element
//! per entry slot. All slots start at ⊤ except the entry procedure's,
//! which start at ⊥ (nothing is known about `main`'s environment — the
//! FORTRAN "uninitialized COMMON" assumption; see
//! [`Config::assume_zero_globals`](crate::config::Config) for the FT-exact
//! alternative). Call sites evaluate their jump functions under the
//! caller's current `VAL` and meet the results into the callee's `VAL`;
//! because each element can be lowered at most twice (Figure 1), the
//! iteration terminates quickly.
//!
//! # The wavefront schedule
//!
//! The solve runs as a wavefront over the top-down levels of the
//! call-graph SCC condensation. A cross-SCC call edge always targets a
//! strictly later level, so the SCCs of one level never feed each other:
//! they can be re-evaluated concurrently, and — since every jump function
//! is monotone in its lattice inputs — one top-down pass with a local
//! FIFO fixpoint inside each SCC reaches exactly the fixpoint the classic
//! sequential worklist reaches. Each SCC unit is *dirty-driven*: it runs
//! only when some member received a lowering meet (or is the entry), so
//! the activation set matches the sequential worklist's and unreached
//! procedures keep ⊤ untouched.
//!
//! Under `jobs > 1` the units of one level run on the
//! [`par`](crate::par) worker pool against optimistic [`Governor`]
//! shards; the results are folded back in the canonical order (ascending
//! level, ascending SCC index) with
//! [`Governor::can_absorb`]/[`Governor::absorb_shard`], replaying a unit
//! against the master governor whenever its shard charges could not be
//! proven bit-identical to sequential charging. Meets into callee `VAL`
//! vectors are recorded per (caller, call site, slot) inside the unit and
//! applied only during the fold, so the final `vals`, `meets`, and
//! `iterations` are identical for every jobs count — the same contract
//! the per-procedure phases follow (`docs/ROBUSTNESS.md`, "Concurrency
//! contract").

use crate::config::{Config, Stage};
use crate::health::Governor;
use crate::jump::ForwardJumpFns;
use crate::par::{PhaseTime, Pool, Scratch};
use crate::pipeline::{PhaseFold, PhaseUnit, UnitError};
use ipcp_analysis::CallGraph;
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ssa::Lattice;
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

/// The fixpoint `VAL` sets: `vals[p][slot]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValSets {
    /// Per procedure, per entry slot.
    pub vals: Vec<Vec<Lattice>>,
    /// Number of meet operations performed (reported by the cost model).
    pub meets: usize,
    /// Number of worklist iterations (procedure re-evaluations).
    pub iterations: usize,
}

impl ValSets {
    /// The `VAL` vector of `p`.
    pub fn of(&self, p: ProcId) -> &[Lattice] {
        &self.vals[p.index()]
    }

    /// `CONSTANTS(p)`: the `(slot, value)` pairs that always hold on entry
    /// to `p`.
    pub fn constants(&self, p: ProcId) -> Vec<(usize, i64)> {
        self.vals[p.index()]
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_const().map(|c| (i, c)))
            .collect()
    }

    /// Total number of constant slots across all procedures.
    pub fn n_constants(&self) -> usize {
        self.vals
            .iter()
            .map(|v| v.iter().filter(|l| l.is_const()).count())
            .sum()
    }

    /// Renders `CONSTANTS(p)` for every reachable procedure with names.
    pub fn display<'a>(&'a self, mcfg: &'a ModuleCfg, layout: &'a SlotLayout) -> ValDisplay<'a> {
        ValDisplay {
            vals: self,
            mcfg,
            layout,
        }
    }
}

/// Pretty adapter returned by [`ValSets::display`].
#[derive(Debug)]
pub struct ValDisplay<'a> {
    vals: &'a ValSets,
    mcfg: &'a ModuleCfg,
    layout: &'a SlotLayout,
}

impl fmt::Display for ValDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pi, proc) in self.mcfg.module.procs.iter().enumerate() {
            let p = ProcId::from(pi);
            let consts = self.vals.constants(p);
            if consts.is_empty() {
                continue;
            }
            let rendered: Vec<String> = consts
                .iter()
                .map(|&(slot, c)| {
                    format!(
                        "{} = {c}",
                        self.layout.slot_name(&self.mcfg.module, p, slot)
                    )
                })
                .collect();
            writeln!(
                f,
                "CONSTANTS({}) = {{ {} }}",
                proc.name,
                rendered.join(", ")
            )?;
        }
        Ok(())
    }
}

/// Groups the reachable SCCs of the condensation into top-down dependency
/// levels: the entry SCC sits at level 0, and every cross-SCC call edge
/// goes from a level to a strictly later one. Within a level no SCC calls
/// another, which is what makes same-level units independently
/// evaluatable.
///
/// Tarjan emits callee SCCs before caller SCCs, so iterating caller SCCs
/// in *descending* index order sees every caller's final level before
/// relaxing its callees.
fn topdown_levels(cg: &CallGraph) -> Vec<Vec<usize>> {
    let n_sccs = cg.sccs.len();
    let reachable_scc = |si: usize| cg.sccs[si].first().is_some_and(|p| cg.reachable[p.index()]);
    let mut level = vec![0usize; n_sccs];
    for si in (0..n_sccs).rev() {
        if !reachable_scc(si) {
            continue;
        }
        for &p in &cg.sccs[si] {
            for edge in cg.calls_from(p) {
                let cs = cg.scc_of[edge.callee.index()];
                if cs != si {
                    level[cs] = level[cs].max(level[si] + 1);
                }
            }
        }
    }
    let mut levels: Vec<Vec<usize>> = Vec::new();
    for si in 0..n_sccs {
        if !reachable_scc(si) {
            continue;
        }
        while levels.len() <= level[si] {
            levels.push(Vec::new());
        }
        levels[level[si]].push(si);
    }
    levels
}

/// What one SCC unit's evaluation produced, before the fold commits it.
struct UnitEval {
    /// Final `VAL` vectors for the SCC members, in member order.
    member_vals: Vec<Vec<Lattice>>,
    /// Lattice contributions to callees *outside* the SCC, recorded in
    /// (member, call site, slot) evaluation order and applied by the
    /// fold. `(callee proc index, slot, incoming value)`.
    contribs: Vec<(usize, usize, Lattice)>,
    meets: usize,
    iterations: usize,
    /// A governor charge failed mid-unit (budget cap or injected fault).
    tripped: bool,
    /// A cooperative check observed the expired wall-clock deadline.
    deadline: bool,
}

/// Evaluates one SCC unit: a local FIFO fixpoint over the members, seeded
/// by their dirty flags. Pure with respect to the global solver state —
/// member `VAL`s are copied in, and meets into external callees are
/// recorded as contributions, not applied. The same function serves the
/// optimistic parallel pass (against a governor shard) and the
/// deterministic replay (against the master), so both charge and panic at
/// the same internal step.
#[allow(clippy::too_many_arguments)]
fn eval_unit(
    cg: &CallGraph,
    jump_fns: &ForwardJumpFns,
    config: &Config,
    members: &[ProcId],
    scc: usize,
    vals: &[Vec<Lattice>],
    dirty: &[bool],
    gov: &mut Governor,
    scratch: &mut Scratch,
) -> UnitEval {
    let mut out = UnitEval {
        member_vals: members.iter().map(|&p| vals[p.index()].clone()).collect(),
        // Presized for a typical unit's external contributions — spares
        // the realloc chain on fan-out-heavy procedures.
        contribs: Vec::with_capacity(64),
        meets: 0,
        iterations: 0,
        tripped: false,
        deadline: false,
    };
    // The per-unit `queued` flags and FIFO worklist live in the
    // participant's reusable scratch — one allocation per worker per
    // round instead of two per SCC unit.
    scratch.reset(members.len());
    let Scratch {
        flags: queued,
        queue: work,
    } = scratch;
    for (li, &p) in members.iter().enumerate() {
        if dirty[p.index()] {
            queued[li] = true;
            work.push_back(li);
        }
    }
    while let Some(li) = work.pop_front() {
        let p = members[li];
        if gov.deadline_expired() {
            out.deadline = true;
            return out;
        }
        // The deterministic panic-injection hook fires per *procedure
        // re-evaluation*, so an injected solver panic lands mid-wavefront
        // exactly when the named procedure's unit is activated.
        crate::quarantine::maybe_inject(config, Stage::Solver, p.index());
        if !gov.charge(Stage::Solver) {
            out.tripped = true;
            return out;
        }
        queued[li] = false;
        out.iterations += 1;
        for edge in cg.calls_from(p) {
            let site_fns = jump_fns.at(p, edge.site);
            if site_fns.is_empty() {
                continue; // unreachable call site
            }
            if cg.scc_of[edge.callee.index()] == scc {
                // Intra-SCC meet mutates a member vector (possibly the
                // caller's own), so evaluate against a snapshot.
                let caller_vals = out.member_vals[li].clone();
                let Some(lj) = members.iter().position(|&m| m == edge.callee) else {
                    unreachable!("intra-SCC callee missing from member list");
                };
                let mut changed = false;
                for (slot, jf) in site_fns.iter().enumerate() {
                    let incoming = jf.eval(|v| {
                        caller_vals
                            .get(v as usize)
                            .copied()
                            .unwrap_or(Lattice::Bottom)
                    });
                    out.meets += 1;
                    changed |= out.member_vals[lj][slot].meet_in(incoming);
                }
                if changed && !queued[lj] {
                    queued[lj] = true;
                    work.push_back(lj);
                }
            } else {
                // External contributions only read the caller's vector —
                // no snapshot needed (the in-place worklist cannot make
                // this split, which is part of the wavefront's edge).
                let caller_vals = &out.member_vals[li];
                for (slot, jf) in site_fns.iter().enumerate() {
                    let incoming = jf.eval(|v| {
                        caller_vals
                            .get(v as usize)
                            .copied()
                            .unwrap_or(Lattice::Bottom)
                    });
                    out.meets += 1;
                    out.contribs.push((edge.callee.index(), slot, incoming));
                }
            }
        }
    }
    out
}

/// Runs [`eval_unit`] under the quarantine contract: panics are contained
/// (with the quiet hook) when `config.quarantine` is on, and propagate
/// when it is off — the same semantics `quarantine::run_unit` gives the
/// per-procedure phases, minus the unit-entry injection (the solver fires
/// the hook per member re-evaluation instead).
#[allow(clippy::too_many_arguments)]
fn eval_unit_guarded(
    cg: &CallGraph,
    jump_fns: &ForwardJumpFns,
    config: &Config,
    members: &[ProcId],
    scc: usize,
    vals: &[Vec<Lattice>],
    dirty: &[bool],
    gov: &mut Governor,
    scratch: &mut Scratch,
) -> Result<UnitEval, UnitError> {
    if config.quarantine {
        crate::quarantine::quiet_catch(|| {
            eval_unit(
                cg, jump_fns, config, members, scc, vals, dirty, gov, scratch,
            )
        })
        .map_err(|msg| UnitError::new(Stage::Solver, scc, msg))
    } else {
        Ok(eval_unit(
            cg, jump_fns, config, members, scc, vals, dirty, gov, scratch,
        ))
    }
}

/// The counters a unit evaluation reports back to the fold, without the
/// buffered state (which the in-place mode applies as it goes).
struct UnitOutcome {
    meets: usize,
    iterations: usize,
    tripped: bool,
    deadline: bool,
}

/// The in-place twin of [`eval_unit`], used on the canonical path
/// (`jobs <= 1` and replays): the same per-pop sequence — deadline check,
/// panic injection, governor charge, edge evaluation in call-site order —
/// but meets land directly in `vals`/`dirty` instead of being buffered.
///
/// This is observation-equivalent to evaluate-then-commit: external
/// callees live at strictly later levels (same-level SCCs never call each
/// other), so nothing reads them before this level's fold completes; and
/// on a panic/trip/deadline the partially applied meets are erased by the
/// quarantine ⊥-fill or `degrade_reachable` exactly as the buffered
/// mode's discarded state would have been. What it buys: no member-vector
/// copies, no contribution buffer, and — via `mem::take` of the caller's
/// row — no per-edge snapshot for external calls either.
#[allow(clippy::too_many_arguments)]
fn eval_unit_inplace(
    cg: &CallGraph,
    jump_fns: &ForwardJumpFns,
    config: &Config,
    members: &[ProcId],
    scc: usize,
    vals: &mut [Vec<Lattice>],
    dirty: &mut [bool],
    gov: &mut Governor,
    scratch: &mut Scratch,
) -> UnitOutcome {
    let mut out = UnitOutcome {
        meets: 0,
        iterations: 0,
        tripped: false,
        deadline: false,
    };
    scratch.reset(members.len());
    let Scratch {
        flags: queued,
        queue: work,
    } = scratch;
    for (li, &p) in members.iter().enumerate() {
        if dirty[p.index()] {
            queued[li] = true;
            work.push_back(li);
        }
    }
    while let Some(li) = work.pop_front() {
        let p = members[li];
        if gov.deadline_expired() {
            out.deadline = true;
            return out;
        }
        crate::quarantine::maybe_inject(config, Stage::Solver, p.index());
        if !gov.charge(Stage::Solver) {
            out.tripped = true;
            return out;
        }
        queued[li] = false;
        out.iterations += 1;
        // Take the caller's row out so callee rows can be met into
        // without aliasing it (external callees are always other rows).
        let mut caller_row = std::mem::take(&mut vals[p.index()]);
        for edge in cg.calls_from(p) {
            let site_fns = jump_fns.at(p, edge.site);
            if site_fns.is_empty() {
                continue; // unreachable call site
            }
            if cg.scc_of[edge.callee.index()] == scc {
                let Some(lj) = members.iter().position(|&m| m == edge.callee) else {
                    unreachable!("intra-SCC callee missing from member list");
                };
                // Intra-SCC meets may lower the caller's own row
                // (self-recursion lands in the taken row), so evaluate
                // against a snapshot — matching the buffered mode's
                // per-edge snapshot semantics.
                let snapshot = caller_row.clone();
                let mut changed = false;
                for (slot, jf) in site_fns.iter().enumerate() {
                    let incoming =
                        jf.eval(|v| snapshot.get(v as usize).copied().unwrap_or(Lattice::Bottom));
                    out.meets += 1;
                    let target = if edge.callee == p {
                        &mut caller_row[slot]
                    } else {
                        &mut vals[edge.callee.index()][slot]
                    };
                    changed |= target.meet_in(incoming);
                }
                if changed && !queued[lj] {
                    queued[lj] = true;
                    work.push_back(lj);
                }
            } else {
                let mut changed = false;
                let callee_row = &mut vals[edge.callee.index()];
                for (slot, jf) in site_fns.iter().enumerate() {
                    let incoming = jf.eval(|v| {
                        caller_row
                            .get(v as usize)
                            .copied()
                            .unwrap_or(Lattice::Bottom)
                    });
                    out.meets += 1;
                    changed |= callee_row[slot].meet_in(incoming);
                }
                if changed {
                    dirty[edge.callee.index()] = true;
                }
            }
        }
        vals[p.index()] = caller_row;
    }
    out
}

/// [`eval_unit_inplace`] under the same quarantine contract as
/// [`eval_unit_guarded`].
#[allow(clippy::too_many_arguments)]
fn eval_unit_inplace_guarded(
    cg: &CallGraph,
    jump_fns: &ForwardJumpFns,
    config: &Config,
    members: &[ProcId],
    scc: usize,
    vals: &mut [Vec<Lattice>],
    dirty: &mut [bool],
    gov: &mut Governor,
    scratch: &mut Scratch,
) -> Result<UnitOutcome, UnitError> {
    if config.quarantine {
        crate::quarantine::quiet_catch(|| {
            eval_unit_inplace(
                cg, jump_fns, config, members, scc, vals, dirty, gov, scratch,
            )
        })
        .map_err(|msg| UnitError::new(Stage::Solver, scc, msg))
    } else {
        Ok(eval_unit_inplace(
            cg, jump_fns, config, members, scc, vals, dirty, gov, scratch,
        ))
    }
}

/// Forces every reachable procedure's slots to ⊥ — the response to a
/// mid-solve budget trip or deadline expiry, when the partially descended
/// `VAL` sets are still optimistic (too high to be trusted). Unreachable
/// procedures keep ⊤, which is equally sound (they never execute).
fn degrade_reachable(vals: &mut [Vec<Lattice>], cg: &CallGraph) {
    for (pi, v) in vals.iter_mut().enumerate() {
        if cg.reachable[pi] {
            v.fill(Lattice::Bottom);
        }
    }
}

/// Runs the wavefront propagation (see the module docs for the schedule).
///
/// `entry_globals` is the initial assumption for the entry procedure's
/// global slots (⊥ for FORTRAN-style unknown, `Const(0)` for FT's defined
/// zero initialization). `jobs` is the worker count for the per-level
/// parallel pass (`<= 1` evaluates every unit inline against the master
/// governor — the canonical sequential order the parallel fold
/// reproduces).
///
/// Each procedure re-evaluation charges one [`Stage::Solver`] iteration
/// to the governor. If the budget trips (or the deadline expires)
/// mid-solve, every reachable procedure's slots are forced to ⊥ and a
/// degradation event is recorded. A panic inside one SCC's evaluation is
/// quarantined to that SCC: its members' entry slots and every
/// contribution they make to callees degrade to ⊥, `quarantined` is
/// marked for the members, and every other procedure keeps full
/// precision.
#[allow(clippy::too_many_arguments)]
pub fn solve(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    jump_fns: &ForwardJumpFns,
    entry_globals: Lattice,
    config: &Config,
    gov: &mut Governor,
    quarantined: &mut [bool],
    jobs: usize,
) -> (ValSets, PhaseTime) {
    // Standalone entry point: spin up a pool for the whole solve (one
    // spawn per solve, not one per wavefront level). The pipeline calls
    // `solve_on` directly with its own pool instead.
    crate::par::with_pool(jobs, |pool| {
        solve_on(
            mcfg,
            cg,
            layout,
            jump_fns,
            entry_globals,
            config,
            gov,
            quarantined,
            pool,
        )
    })
}

/// [`solve`] against an existing worker [`Pool`] — the pipeline threads
/// one pool through every phase so workers are spawned once per analysis
/// run and parked between rounds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_on(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    jump_fns: &ForwardJumpFns,
    entry_globals: Lattice,
    config: &Config,
    gov: &mut Governor,
    quarantined: &mut [bool],
    pool: &Pool<'_>,
) -> (ValSets, PhaseTime) {
    let t0 = Instant::now();
    let n_procs = mcfg.module.procs.len();
    let mut vals: Vec<Vec<Lattice>> = (0..n_procs)
        .map(|p| {
            let arity = mcfg.module.procs[p].arity();
            vec![Lattice::Top; layout.n_slots(arity)]
        })
        .collect();

    // The entry procedure is invoked by the environment: nothing is known
    // about its formals (main has none) and its globals get the configured
    // assumption.
    let entry = mcfg.module.entry;
    {
        let arity = mcfg.module.proc(entry).arity();
        for (i, v) in vals[entry.index()].iter_mut().enumerate() {
            *v = if i < arity {
                Lattice::Bottom
            } else {
                entry_globals
            };
        }
    }

    let mut dirty = vec![false; n_procs];
    dirty[entry.index()] = true;

    let mut meets = 0usize;
    let mut iterations = 0usize;
    let levels = topdown_levels(cg);
    let n_units: usize = levels.iter().map(Vec::len).sum();
    let mut par_time = PhaseTime::default();
    let mut fold = PhaseFold::default();
    // The canonical fold's replay scratch, reused across every level.
    let mut fold_scratch = Scratch::default();

    // Dispatching a round to the (parked) pool still costs a few
    // park/unpark round-trips; a level with only a couple of activated
    // units is cheaper to evaluate inline on the canonical path. Pure
    // scheduling — the fold below produces identical results either way.
    const MIN_PAR_UNITS: usize = 16;

    'levels: for level in &levels {
        // Optimistic parallel pass: every activated unit of the level runs
        // on the pool against a fresh governor shard. Units read only
        // their own members' (disjoint) slices of `vals`/`dirty`, so the
        // inputs each unit sees are exactly what the canonical fold below
        // would hand it.
        let mut optimistic: Vec<Option<PhaseUnit<UnitEval>>> = Vec::new();
        let n_active = level
            .iter()
            .filter(|&&si| cg.sccs[si].iter().any(|&m| dirty[m.index()]))
            .count();
        if pool.parallel() && n_active >= MIN_PAR_UNITS {
            let proto = gov.shard();
            let (outs, pt) = pool.run_with_scratch(level.len(), Scratch::default, |scratch, k| {
                let members: &[ProcId] = &cg.sccs[level[k]];
                if !members.iter().any(|&m| dirty[m.index()]) {
                    return None; // never activated — nothing to evaluate
                }
                let mut shard = proto.shard();
                let res = eval_unit_guarded(
                    cg, jump_fns, config, members, level[k], &vals, &dirty, &mut shard, scratch,
                );
                Some(PhaseUnit::new(k, res, shard))
            });
            par_time.absorb(pt);
            optimistic = outs;
        }

        // Canonical fold, in ascending SCC index order: absorb an
        // optimistic unit when its shard charges provably land exactly as
        // sequential charging would; replay it against the master
        // otherwise (the replay re-trips, re-panics, and re-observes the
        // deadline at the same internal step, because the unit's inputs
        // are identical).
        for (k, &si) in level.iter().enumerate() {
            let members: &[ProcId] = &cg.sccs[si];
            if !members.iter().any(|&m| dirty[m.index()]) {
                continue;
            }
            let unit: Result<UnitOutcome, UnitError> =
                match optimistic.get_mut(k).and_then(Option::take) {
                    Some(pu) => {
                        let clean = matches!(&pu.outcome, Ok(u) if !u.tripped && !u.deadline);
                        let absorbable = clean || pu.outcome.is_err();
                        match fold.try_absorb(gov, pu, absorbable) {
                            Some(Ok(u)) => {
                                // Commit the buffered unit: member rows
                                // move in, external contributions are
                                // met in recorded order. (Absorbed Ok
                                // units are always clean — tripped or
                                // deadlined ones replay below.)
                                let outcome = UnitOutcome {
                                    meets: u.meets,
                                    iterations: u.iterations,
                                    tripped: u.tripped,
                                    deadline: u.deadline,
                                };
                                for (vm, &m) in u.member_vals.into_iter().zip(members) {
                                    vals[m.index()] = vm;
                                }
                                for (callee, slot, incoming) in u.contribs {
                                    if vals[callee][slot].meet_in(incoming) {
                                        dirty[callee] = true;
                                    }
                                }
                                Ok(outcome)
                            }
                            Some(Err(e)) => Err(e),
                            None => eval_unit_inplace_guarded(
                                cg,
                                jump_fns,
                                config,
                                members,
                                si,
                                &mut vals,
                                &mut dirty,
                                gov,
                                &mut fold_scratch,
                            ),
                        }
                    }
                    None => eval_unit_inplace_guarded(
                        cg,
                        jump_fns,
                        config,
                        members,
                        si,
                        &mut vals,
                        &mut dirty,
                        gov,
                        &mut fold_scratch,
                    ),
                };
            match unit {
                Err(e) => {
                    // Quarantine the whole SCC: a panic mid-fixpoint means
                    // the members' values (and any contribution they would
                    // have made) cannot be trusted to be post-fixpoint, so
                    // everything the unit touches degrades to ⊥. Skipping
                    // a call site's contribution instead would leave its
                    // callee unsoundly optimistic.
                    for &m in members {
                        quarantined[m.index()] = true;
                    }
                    let names = members
                        .iter()
                        .map(|&m| mcfg.module.proc(m).name.as_str())
                        .collect::<Vec<_>>()
                        .join("+");
                    gov.record_quarantine(
                        Stage::Solver,
                        format!(
                            "{names}: panic contained ({}); entry slots and \
                             outgoing call contributions forced to ⊥",
                            e.message
                        ),
                    );
                    for &m in members {
                        vals[m.index()].fill(Lattice::Bottom);
                    }
                    for &m in members {
                        for edge in cg.calls_from(m) {
                            if cg.scc_of[edge.callee.index()] == si {
                                continue;
                            }
                            let n_fns = jump_fns.at(m, edge.site).len();
                            let callee_vals = &mut vals[edge.callee.index()];
                            let mut changed = false;
                            for v in callee_vals.iter_mut().take(n_fns) {
                                changed |= v.meet_in(Lattice::Bottom);
                            }
                            if changed {
                                dirty[edge.callee.index()] = true;
                            }
                        }
                    }
                }
                Ok(u) => {
                    meets += u.meets;
                    iterations += u.iterations;
                    if u.deadline {
                        gov.record_deadline(
                            Stage::Solver,
                            format!(
                                "deadline expired after {iterations} re-evaluations; \
                                 all reachable entry slots forced to ⊥"
                            ),
                        );
                        degrade_reachable(&mut vals, cg);
                        break 'levels;
                    }
                    if u.tripped {
                        gov.record(
                            Stage::Solver,
                            format!(
                                "iteration budget exhausted after {iterations} re-evaluations; \
                                 all reachable entry slots forced to ⊥"
                            ),
                        );
                        degrade_reachable(&mut vals, cg);
                        break 'levels;
                    }
                }
            }
        }
    }

    let time = if !pool.parallel() {
        PhaseTime::sequential(t0.elapsed(), n_units)
    } else {
        PhaseTime {
            wall: t0.elapsed(),
            busy: par_time.busy,
            workers: par_time.workers.max(1),
            units: n_units,
            absorbed: fold.absorbed,
            replayed: fold.replayed,
            reused: 0,
        }
    };
    (
        ValSets {
            vals,
            meets,
            iterations,
        },
        time,
    )
}

/// The classic §4.1 FIFO worklist propagation, retained as a reference
/// implementation: a differential oracle for the wavefront solver (both
/// compute the same fixpoint `vals`, proven by test) and the baseline the
/// `bench_solver` binary measures the wavefront against. The worklist
/// re-evaluates a procedure every time a meet lowers one of its slots;
/// the wavefront's dependency-levelled schedule evaluates each activated
/// SCC once, with the meets from all its callers already applied — that
/// difference (fewer re-evaluations, not just concurrency) is where the
/// solver speedup comes from.
///
/// `meets`/`iterations` are schedule-dependent here and generally
/// *higher* than the wavefront's; only `vals` is comparable.
pub fn solve_worklist_reference(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    jump_fns: &ForwardJumpFns,
    entry_globals: Lattice,
    gov: &mut Governor,
) -> ValSets {
    let n_procs = mcfg.module.procs.len();
    let mut vals: Vec<Vec<Lattice>> = (0..n_procs)
        .map(|p| {
            let arity = mcfg.module.procs[p].arity();
            vec![Lattice::Top; layout.n_slots(arity)]
        })
        .collect();
    let entry = mcfg.module.entry;
    {
        let arity = mcfg.module.proc(entry).arity();
        for (i, v) in vals[entry.index()].iter_mut().enumerate() {
            *v = if i < arity {
                Lattice::Bottom
            } else {
                entry_globals
            };
        }
    }

    let mut meets = 0usize;
    let mut iterations = 0usize;
    let mut queued = vec![false; n_procs];
    let mut work: VecDeque<ProcId> = VecDeque::new();
    work.push_back(entry);
    queued[entry.index()] = true;

    while let Some(p) = work.pop_front() {
        if gov.deadline_expired() || !gov.charge(Stage::Solver) {
            degrade_reachable(&mut vals, cg);
            break;
        }
        queued[p.index()] = false;
        iterations += 1;
        for edge in cg.calls_from(p) {
            let site_fns = jump_fns.at(p, edge.site);
            if site_fns.is_empty() {
                continue;
            }
            let caller_vals = vals[p.index()].clone();
            let callee_vals = &mut vals[edge.callee.index()];
            let mut changed = false;
            for (slot, jf) in site_fns.iter().enumerate() {
                let incoming = jf.eval(|v| {
                    caller_vals
                        .get(v as usize)
                        .copied()
                        .unwrap_or(Lattice::Bottom)
                });
                meets += 1;
                changed |= callee_vals[slot].meet_in(incoming);
            }
            if changed && !queued[edge.callee.index()] {
                queued[edge.callee.index()] = true;
                work.push_back(edge.callee);
            }
        }
    }

    ValSets {
        vals,
        meets,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, JumpFnKind};
    use crate::pipeline::Analysis;
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn vals(src: &str, config: Config) -> (ipcp_ir::ModuleCfg, SlotLayout, ValSets) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let a = Analysis::run(&m, &config);
        let layout = SlotLayout::new(&m.module);
        (m, layout, a.vals)
    }

    fn slot_const(
        m: &ipcp_ir::ModuleCfg,
        layout: &SlotLayout,
        v: &ValSets,
        proc: &str,
        slot_name: &str,
    ) -> Lattice {
        let p = m.module.proc_named(proc).unwrap();
        let n = layout.n_slots(p.arity());
        for slot in 0..n {
            if layout.slot_name(&m.module, p.id, slot) == slot_name {
                return v.of(p.id)[slot];
            }
        }
        panic!("no slot {slot_name} in {proc}");
    }

    #[test]
    fn literal_argument_propagates_one_edge() {
        let (m, layout, v) = vals(
            "proc main() { call f(42); } proc f(a) { print a; }",
            Config::default().with_jump_fn(JumpFnKind::Literal),
        );
        assert_eq!(slot_const(&m, &layout, &v, "f", "a"), Lattice::Const(42));
    }

    #[test]
    fn conflicting_call_sites_meet_to_bottom() {
        let (m, layout, v) = vals(
            "proc main() { call f(1); call f(2); } proc f(a) { print a; }",
            Config::default(),
        );
        assert_eq!(slot_const(&m, &layout, &v, "f", "a"), Lattice::Bottom);
    }

    #[test]
    fn agreeing_call_sites_stay_constant() {
        let (m, layout, v) = vals(
            "proc main() { call f(5); call f(5); } proc f(a) { print a; }",
            Config::default(),
        );
        assert_eq!(slot_const(&m, &layout, &v, "f", "a"), Lattice::Const(5));
    }

    #[test]
    fn pass_through_chains_propagate_deep() {
        let src = "proc main() { call a(9); } \
                   proc a(x) { call b(x); } \
                   proc b(y) { call c(y); } \
                   proc c(z) { print z; }";
        // Pass-through: reaches c.
        let (m, layout, v) = vals(src, Config::default());
        assert_eq!(slot_const(&m, &layout, &v, "c", "z"), Lattice::Const(9));
        // Intraprocedural-constant: only one edge deep.
        let (m, layout, v) = vals(
            src,
            Config::default().with_jump_fn(JumpFnKind::IntraproceduralConstant),
        );
        assert_eq!(slot_const(&m, &layout, &v, "a", "x"), Lattice::Const(9));
        assert_eq!(slot_const(&m, &layout, &v, "b", "y"), Lattice::Bottom);
    }

    #[test]
    fn intraprocedural_beats_literal_on_computed_constants() {
        let src = "proc main() { n = 50 * 2; call f(n); } proc f(a) { print a; }";
        let (m, layout, v) = vals(src, Config::default().with_jump_fn(JumpFnKind::Literal));
        assert_eq!(slot_const(&m, &layout, &v, "f", "a"), Lattice::Bottom);
        let (m, layout, v) = vals(
            src,
            Config::default().with_jump_fn(JumpFnKind::IntraproceduralConstant),
        );
        assert_eq!(slot_const(&m, &layout, &v, "f", "a"), Lattice::Const(100));
    }

    #[test]
    fn polynomial_propagates_arithmetic_on_formals() {
        let src = "proc main() { call f(10); } \
                   proc f(n) { call g(2 * n + 1); } \
                   proc g(m) { print m; }";
        let (m, layout, v) = vals(src, Config::default().with_jump_fn(JumpFnKind::Polynomial));
        assert_eq!(slot_const(&m, &layout, &v, "g", "m"), Lattice::Const(21));
        // Pass-through cannot represent 2n+1.
        let (m, layout, v) = vals(src, Config::default());
        assert_eq!(slot_const(&m, &layout, &v, "g", "m"), Lattice::Bottom);
    }

    #[test]
    fn globals_flow_through_non_literal_jump_fns() {
        let src = "global g; proc main() { g = 7; call f(); } proc f() { print g; }";
        let (m, layout, v) = vals(src, Config::default());
        assert_eq!(slot_const(&m, &layout, &v, "f", "g"), Lattice::Const(7));
        let (m, layout, v) = vals(src, Config::default().with_jump_fn(JumpFnKind::Literal));
        assert_eq!(slot_const(&m, &layout, &v, "f", "g"), Lattice::Bottom);
    }

    #[test]
    fn entry_globals_are_unknown_by_default() {
        let src = "global g; proc main() { call f(); } proc f() { print g; }";
        let (m, layout, v) = vals(src, Config::default());
        assert_eq!(slot_const(&m, &layout, &v, "main", "g"), Lattice::Bottom);
        assert_eq!(slot_const(&m, &layout, &v, "f", "g"), Lattice::Bottom);
    }

    #[test]
    fn unreached_procedures_stay_top() {
        let (m, layout, v) = vals(
            "proc main() { } proc dead(a) { print a; }",
            Config::default(),
        );
        assert_eq!(slot_const(&m, &layout, &v, "dead", "a"), Lattice::Top);
        assert_eq!(v.constants(m.module.proc_named("dead").unwrap().id), vec![]);
    }

    #[test]
    fn recursion_converges() {
        let src = "proc main() { call f(3, 10); } \
                   proc f(n, k) { if (n > 0) { m = n - 1; call f(m, k); } print k; }";
        let (m, layout, v) = vals(src, Config::default());
        // n varies across the recursion (3, then m): ⊥.
        assert_eq!(slot_const(&m, &layout, &v, "f", "n"), Lattice::Bottom);
        // k is passed through unchanged at every site: stays 10.
        assert_eq!(slot_const(&m, &layout, &v, "f", "k"), Lattice::Const(10));
    }

    #[test]
    fn constants_report_names_values() {
        let (m, layout, v) = vals(
            "global g; proc main() { g = 3; call f(1, 2); } proc f(a, b) { print a + b + g; }",
            Config::default(),
        );
        let f = m.module.proc_named("f").unwrap().id;
        let consts = v.constants(f);
        assert_eq!(consts.len(), 3);
        let shown = v.display(&m, &layout).to_string();
        assert!(shown.contains("CONSTANTS(f)"), "{shown}");
        assert!(shown.contains("a = 1"), "{shown}");
        assert!(shown.contains("g = 3"), "{shown}");
    }

    #[test]
    fn levels_put_every_caller_strictly_above_its_callees() {
        let src = "proc main() { call a(1); call b(2); } \
                   proc a(x) { call c(x); call d(x); } \
                   proc b(y) { call d(y); } \
                   proc c(z) { call r(z); } \
                   proc d(w) { print w; } \
                   proc r(v) { if (v > 0) { call r(v - 1); } } \
                   proc dead(u) { call d(u); }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = ipcp_analysis::build_call_graph(&m);
        let levels = topdown_levels(&cg);
        let mut level_of = vec![usize::MAX; cg.sccs.len()];
        for (lv, sccs) in levels.iter().enumerate() {
            for &si in sccs {
                level_of[si] = lv;
            }
        }
        // The unreachable `dead` never gets a level.
        let dead = m.module.proc_named("dead").unwrap().id;
        assert_eq!(level_of[cg.scc_of[dead.index()]], usize::MAX);
        // Every reachable cross-SCC edge descends to a strictly later
        // level (same-level SCCs are independent).
        for (pi, _) in m.module.procs.iter().enumerate() {
            let p = ProcId::from(pi);
            if !cg.reachable[pi] {
                continue;
            }
            for edge in cg.calls_from(p) {
                let (cs, ps) = (cg.scc_of[edge.callee.index()], cg.scc_of[pi]);
                if cs != ps {
                    assert!(
                        level_of[cs] > level_of[ps],
                        "edge {pi} -> {} does not descend a level",
                        edge.callee.index()
                    );
                }
            }
        }
        // main is alone at level 0.
        assert_eq!(levels[0], vec![cg.scc_of[m.module.entry.index()]]);
    }

    #[test]
    fn wavefront_is_schedule_invariant_at_the_solver_level() {
        let src = "global g; \
                   proc main() { g = 4; call a(7); call b(7); call b(8); } \
                   proc a(x) { call shared(x); call rec(x); } \
                   proc b(y) { call shared(y); } \
                   proc shared(s) { print s + g; } \
                   proc rec(n) { if (n > 0) { call rec(n - 1); } }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let config = Config::polynomial();
        let a = Analysis::run(&m, &config);
        let layout = SlotLayout::new(&m.module);
        let n = m.module.procs.len();
        let entry_globals = Lattice::Bottom;
        let run = |jobs: usize| {
            let mut gov = Governor::new(&config);
            let mut q = vec![false; n];
            let (v, _) = solve(
                &m,
                &a.cg,
                &layout,
                &a.jump_fns,
                entry_globals,
                &config,
                &mut gov,
                &mut q,
                jobs,
            );
            (v, q)
        };
        let (seq, seq_q) = run(1);
        for jobs in [2, 4, 8] {
            let (par, par_q) = run(jobs);
            assert_eq!(par, seq, "jobs={jobs} diverged (vals/meets/iterations)");
            assert_eq!(par_q, seq_q, "jobs={jobs} quarantine flags diverged");
        }
    }

    #[test]
    fn wavefront_matches_the_worklist_reference_fixpoint() {
        // The classic §4.1 FIFO worklist and the wavefront must compute
        // the same VAL fixpoint (meets/iterations are schedule-dependent
        // and differ; only `vals` is comparable).
        let srcs = [
            "proc main() { call f(1); call f(2); call g(3); } \
             proc f(a) { call g(a); } \
             proc g(b) { print b; }",
            "global g; \
             proc main() { g = 4; call a(7); call b(7); call b(8); } \
             proc a(x) { call shared(x); call rec(x); } \
             proc b(y) { call shared(y); } \
             proc shared(s) { print s + g; } \
             proc rec(n) { if (n > 0) { call rec(n - 1); } }",
            "proc main() { call even(10); } \
             proc even(n) { if (n > 0) { m = n - 1; call odd(m); } } \
             proc odd(n) { if (n > 0) { m = n - 1; call even(m); } } \
             proc dead(a) { print a; }",
        ];
        for src in srcs {
            let m = lower_module(&parse_and_resolve(src).unwrap());
            for config in [Config::default(), Config::polynomial()] {
                let a = Analysis::run(&m, &config);
                let layout = SlotLayout::new(&m.module);
                let reference = solve_worklist_reference(
                    &m,
                    &a.cg,
                    &layout,
                    &a.jump_fns,
                    Lattice::Bottom,
                    &mut Governor::unlimited(),
                );
                assert_eq!(
                    a.vals.vals, reference.vals,
                    "wavefront and worklist fixpoints diverged on {src}"
                );
            }
        }
    }
}
