//! The four-stage pipeline of §4.1: generate return jump functions,
//! generate forward jump functions, propagate interprocedurally, record
//! the results.
//!
//! Both jump-function stages read the same per-procedure SSA form and
//! symbolic evaluation, as the paper's implementation does: Stage 1
//! builds and evaluates each procedure once, and Stage 2 reuses that
//! form. Only recursive SCC members — whose Stage-1 evaluation saw a
//! partial table — and configurations whose Stage-2 form differs are
//! evaluated a second time.

use crate::config::{Config, Stage};
use crate::error::IpcpError;
use crate::health::{AnalysisHealth, Governor};
use crate::jump::{
    build_forward_jump_fns, build_forward_jump_fns_par, ForwardJumpFns, ProcSymbolic,
};
use crate::par::{PhaseTime, Timings};
use crate::retjump::{build_return_jfs_keeping, build_return_jfs_par, RetOracle, ReturnJumpFns};
use crate::solver::ValSets;
use crate::substitute::{self, Substitution};
use ipcp_analysis::{
    build_call_graph, direct_effects, propagate_modref, CallGraph, ModRef, ModSet,
};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ssa::sccp::{CallDefLattice, OpaqueCallsLattice};
use ipcp_ssa::ssa::{build_ssa, build_ssa_pruned, CallKills, ModKills, WorstCaseKills};
use ipcp_ssa::symbolic::{CallDefEval, EvalBudget, OpaqueCalls};
use ipcp_ssa::{Lattice, Seeds};
use std::fmt;
use std::time::Instant;

/// A typed phase-unit failure: which [`Stage`] faulted, which unit, and
/// the contained panic (or exhaustion) message.
///
/// `unit` is the index in the phase's own unit space — a procedure index
/// for the per-procedure phases (MOD/REF, symbolic, forward and return
/// jump functions), an SCC index for solver units. This replaces the
/// stringly `Result<_, String>` contract the drivers used to share:
/// quarantine widening, the parallel folds, and serve's incremental path
/// all see the same structured error, and strict-mode promotion can carry
/// it through [`IpcpError`](crate::IpcpError) without string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitError {
    /// The stage whose unit faulted.
    pub stage: Stage,
    /// The unit's index (procedure index, or SCC index for the solver).
    pub unit: usize,
    /// The contained panic message.
    pub message: String,
}

impl UnitError {
    /// Builds a unit error for `stage` / `unit`.
    pub fn new(stage: Stage, unit: usize, message: impl Into<String>) -> Self {
        UnitError {
            stage,
            unit,
            message: message.into(),
        }
    }
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} unit #{} faulted: {}",
            self.stage.label(),
            self.unit,
            self.message
        )
    }
}

/// One parallel phase unit's outcome, as handed to the canonical fold:
/// its index in the phase's unit space, its result (or typed failure),
/// and the optimistic [`Governor`] shard it charged while running.
///
/// This is the contract every parallel driver shares: workers produce
/// `PhaseUnit`s out of order, and the fold walks them **in index order**,
/// absorbing each unit's shard into the authoritative governor when
/// [`Governor::can_absorb`] proves the merged counters land exactly where
/// a sequential run's would — otherwise the unit is discarded and
/// replayed sequentially ([`PhaseFold::try_absorb`]). Serve's incremental
/// path replays recorded shards through the same gate.
#[derive(Clone, Debug)]
pub struct PhaseUnit<T> {
    /// Index in the phase's unit space (procedure or SCC index).
    pub index: usize,
    /// The unit's computed result, or its typed quarantine failure.
    pub outcome: Result<T, UnitError>,
    /// The optimistic governor shard the unit charged.
    pub shard: Governor,
}

impl<T> PhaseUnit<T> {
    /// Wraps a unit outcome with the shard it charged.
    pub fn new(index: usize, outcome: Result<T, UnitError>, shard: Governor) -> Self {
        PhaseUnit {
            index,
            outcome,
            shard,
        }
    }
}

/// Absorb/replay accounting for one phase's canonical fold.
///
/// Every parallel driver folds its [`PhaseUnit`]s through
/// [`PhaseFold::try_absorb`]; the counters are stamped into the phase's
/// [`PhaseTime`] so `Timings` reports how often the optimistic path paid
/// off (absorb is O(stages); replay re-runs the unit sequentially).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseFold {
    /// Units whose shard merged cleanly (result kept).
    pub absorbed: usize,
    /// Units discarded and re-run against the authoritative governor.
    pub replayed: usize,
}

impl PhaseFold {
    /// Attempts to absorb `unit`: when `absorbable` holds and the shard
    /// merges without crossing a budget or fault boundary
    /// ([`Governor::can_absorb`] — the documented fast path), the shard
    /// is folded into `gov` and the unit's outcome is returned. Otherwise
    /// returns `None`; the caller must replay the unit sequentially.
    pub fn try_absorb<T>(
        &mut self,
        gov: &mut Governor,
        unit: PhaseUnit<T>,
        absorbable: bool,
    ) -> Option<Result<T, UnitError>> {
        if absorbable && gov.can_absorb(&unit.shard) {
            gov.absorb_shard(unit.shard);
            self.absorbed += 1;
            Some(unit.outcome)
        } else {
            self.replayed += 1;
            None
        }
    }

    /// Stamps the fold's counters into a phase's [`PhaseTime`].
    pub fn stamp(self, pt: &mut PhaseTime) {
        pt.absorbed += self.absorbed;
        pt.replayed += self.replayed;
    }
}

/// Everything the interprocedural constant propagation computed for one
/// module under one [`Config`].
#[derive(Debug)]
pub struct Analysis {
    /// The configuration used.
    pub config: Config,
    /// Call graph.
    pub cg: CallGraph,
    /// MOD/REF summaries (always computed; consulted only when
    /// `config.use_mod`).
    pub modref: ModRef,
    /// Entry-slot layout shared by every table.
    pub layout: SlotLayout,
    /// Return jump functions (an empty table when disabled).
    pub ret_jfs: ReturnJumpFns,
    /// Per-procedure SSA + polynomial evaluation (reachable procedures).
    pub symbolics: Vec<Option<ProcSymbolic>>,
    /// Forward jump functions for every reachable call site.
    pub jump_fns: ForwardJumpFns,
    /// The fixpoint `VAL` sets.
    pub vals: ValSets,
    /// Degradation telemetry: empty when every stage ran to completion
    /// within its [`AnalysisLimits`](crate::config::AnalysisLimits); the
    /// results stay sound either way.
    pub health: AnalysisHealth,
    /// `quarantined[p]` — procedure `p`'s unit of work panicked or
    /// exhausted its slice in some per-procedure phase, so its summaries
    /// were degraded to their sound worst case (jump functions ⊥, MOD/REF
    /// everything). Every other procedure kept full precision.
    pub quarantined: Vec<bool>,
    /// Per-stage wall-clock and worker-utilization accounting (summed
    /// across gating rounds). Purely observational: timings never feed
    /// back into results.
    pub timings: Timings,
}

impl Analysis {
    /// Runs the full pipeline over a lowered module.
    ///
    /// With [`Config::gated_jump_fns`] the pipeline iterates: each round's
    /// `VAL` sets seed the next round's gating SCCP, so branches (and call
    /// sites) proved dead by *interprocedural* constants stop polluting
    /// jump-function generation — the in-place equivalent of "complete
    /// propagation". The iteration stops at a fixpoint (or after a small
    /// bound; one extra round almost always suffices).
    pub fn run(mcfg: &ModuleCfg, config: &Config) -> Analysis {
        // One pool for the whole analysis: workers are spawned here once
        // and parked between rounds, so every phase (and every gating
        // round) reuses them instead of paying a spawn/join per level.
        crate::par::with_pool(config.effective_jobs(), |pool| {
            Self::run_on(mcfg, config, pool)
        })
    }

    fn run_on(mcfg: &ModuleCfg, config: &Config, pool: &crate::par::Pool<'_>) -> Analysis {
        let mut analysis = Self::run_once_on(mcfg, config, None, pool);
        if config.gated_jump_fns {
            for _ in 0..4 {
                let vals = analysis.vals.vals.clone();
                let mut next = Self::run_once_on(mcfg, config, Some(&vals), pool);
                let stable = next.vals.vals == analysis.vals.vals;
                // Telemetry accumulates across gating rounds. `absorb` is
                // order-preserving concatenation (associative, documented
                // on `AnalysisHealth::absorb`): round order is chronology.
                let mut health = std::mem::take(&mut analysis.health);
                health.absorb(std::mem::take(&mut next.health));
                next.health = health;
                let mut timings = analysis.timings;
                timings.absorb(next.timings);
                next.timings = timings;
                analysis = next;
                if stable {
                    break;
                }
            }
        }
        analysis
    }

    pub(crate) fn run_once_on(
        mcfg: &ModuleCfg,
        config: &Config,
        gate_seeds: Option<&Vec<Vec<Lattice>>>,
        pool: &crate::par::Pool<'_>,
    ) -> Analysis {
        let t_run = Instant::now();
        let jobs = config.effective_jobs();
        let cg = build_call_graph(mcfg);
        let layout = SlotLayout::new(&mcfg.module);
        let mut gov = Governor::new(config);
        let n_procs = mcfg.module.procs.len();
        let mut quarantined = vec![false; n_procs];
        let mut timings = Timings {
            jobs,
            ..Timings::default()
        };

        // Stage 0: per-procedure MOD/REF direct effects (under
        // quarantine), then call-edge propagation. Its timer starts with
        // the run, so it also covers building the call graph the
        // propagation walks, and the stage timers together cover the
        // whole run. A contained failure
        // widens only that procedure's summary to "touches everything
        // visible"; the fixpoint spreads the widening to callers exactly
        // as far as reference bindings demand.
        //
        // `jobs == 1` takes the original sequential loop verbatim (charge,
        // then run the unit only if the charge succeeded — the path
        // `--no-quarantine` debugging relies on). `jobs > 1` runs every
        // unit optimistically (units are pure and make no charges) and
        // folds in procedure order, charging the master governor exactly
        // where the sequential loop would; a charge that fails discards
        // the unit's result, reproducing the sequential skip bit for bit.
        let n_globals = mcfg.module.globals.len();
        let t0 = t_run;
        let mut mods = Vec::with_capacity(n_procs);
        let mut refs = Vec::with_capacity(n_procs);
        if !pool.parallel() {
            for (pi, p) in mcfg.module.procs.iter().enumerate() {
                let (m, r) = if !gov.charge(Stage::ModRef) {
                    quarantined[pi] = true;
                    gov.record_quarantine(
                        Stage::ModRef,
                        format!(
                            "{}: direct-effects budget exhausted; \
                             summary widened to everything visible",
                            p.name
                        ),
                    );
                    widen_modref(p.arity(), n_globals)
                } else {
                    let pid = ProcId::from(pi);
                    let unit = crate::quarantine::run_unit(config, Stage::ModRef, pi, || {
                        direct_effects(mcfg, pid)
                    });
                    commit_modref_unit(
                        &p.name,
                        unit,
                        p.arity(),
                        n_globals,
                        pi,
                        &mut quarantined,
                        &mut gov,
                    )
                };
                mods.push(m);
                refs.push(r);
            }
        } else {
            let (units, pt) = pool.run(n_procs, |pi| {
                crate::quarantine::run_unit(config, Stage::ModRef, pi, || {
                    direct_effects(mcfg, ProcId::from(pi))
                })
            });
            for (pi, unit) in units.into_iter().enumerate() {
                let p = &mcfg.module.procs[pi];
                let (m, r) = if !gov.charge(Stage::ModRef) {
                    quarantined[pi] = true;
                    gov.record_quarantine(
                        Stage::ModRef,
                        format!(
                            "{}: direct-effects budget exhausted; \
                             summary widened to everything visible",
                            p.name
                        ),
                    );
                    widen_modref(p.arity(), n_globals)
                } else {
                    commit_modref_unit(
                        &p.name,
                        unit,
                        p.arity(),
                        n_globals,
                        pi,
                        &mut quarantined,
                        &mut gov,
                    )
                };
                mods.push(m);
                refs.push(r);
            }
            timings.modref = pt;
        }
        let modref = propagate_modref(mcfg, &cg, mods, refs);
        // Direct effects plus their propagation make up the stage; the
        // sequential tail after a parallel round counts as one busy worker.
        if pool.parallel() {
            let tail = t0.elapsed().saturating_sub(timings.modref.wall);
            timings.modref.wall += tail;
            timings.modref.busy += tail;
        } else {
            timings.modref = PhaseTime::sequential(t0.elapsed(), n_procs);
        }

        let mod_kills = ModKills(&modref);
        let kills: &(dyn CallKills + Sync) = if config.use_mod {
            &mod_kills
        } else {
            &WorstCaseKills
        };

        // Stage 1: return jump functions (bottom-up over the call graph;
        // parallel over the SCC levels of the condensation). Each unit
        // builds its procedure's SSA form and evaluates it symbolically;
        // when Stage 2 would build the same form, the unit keeps it.
        let t1 = Instant::now();
        let keep = reuses_forms(config);
        let (ret_jfs, mut forms) = if !config.use_return_jfs {
            let table = ReturnJumpFns {
                fns: vec![None; n_procs],
                compose: false,
            };
            (table, vec![None; n_procs])
        } else if !pool.parallel() {
            let out = build_return_jfs_keeping(
                mcfg,
                &cg,
                &layout,
                kills,
                config,
                &mut quarantined,
                &mut gov,
                keep,
            );
            timings.retjump = PhaseTime::sequential(t1.elapsed(), cg.bottom_up().count());
            out
        } else {
            let (t, forms, pt) = build_return_jfs_par(
                mcfg,
                &cg,
                &layout,
                kills,
                config,
                &mut quarantined,
                &mut gov,
                pool,
                keep,
            );
            timings.retjump = pt;
            (t, forms)
        };

        // Stage 2: each reachable procedure's symbolic form, then forward
        // jump functions (top-down conceptually; order is irrelevant since
        // return jump functions are already fixed). A form Stage 1 kept is
        // committed as is; the rest — recursive SCC members, and every
        // procedure under a configuration whose form differs — are
        // evaluated here against the final table. Either way the commit
        // runs as a `Stage::Jump` quarantine unit, so panic injection and
        // containment behave the same. The symbolic units charge nothing —
        // step budgets are enforced inside the evaluator — so the parallel
        // fold only replays the *recording* of outcomes in procedure
        // order.
        let t2 = Instant::now();
        let latch = std::sync::Arc::clone(gov.latch());
        let max_steps = gov.limits().max_symbolic_steps;
        let deadline = config.deadline.map(|d| d.instant());
        let mut symbolics: Vec<Option<ProcSymbolic>> = Vec::new();
        let mut reused = 0;
        if !pool.parallel() {
            for pi in 0..n_procs {
                // A procedure quarantined by an earlier phase contributes
                // no symbolic form: its call sites get explicit all-⊥ jump
                // functions below, and re-running its unit here would fire
                // the same fault twice.
                if !cg.reachable[pi] || quarantined[pi] {
                    symbolics.push(None);
                    continue;
                }
                let unit = match forms[pi].take() {
                    Some(form) => reuse_unit(config, pi, form, &mut reused),
                    None => {
                        let budget = EvalBudget {
                            max_steps,
                            deadline,
                            latch: Some(&latch),
                        };
                        crate::quarantine::run_unit(config, Stage::Jump, pi, || {
                            build_proc_symbolic(
                                mcfg, config, &layout, kills, &ret_jfs, gate_seeds, pi, &budget,
                            )
                        })
                    }
                };
                commit_symbolic_unit(mcfg, pi, unit, &mut symbolics, &mut quarantined, &mut gov);
            }
            let jump_fns = build_forward_jump_fns(
                mcfg,
                &cg,
                &layout,
                config,
                &symbolics,
                &mut quarantined,
                &mut gov,
            );
            timings.jump = PhaseTime::sequential(t2.elapsed(), n_procs);
            timings.jump.reused = reused;
            return Self::finish_on(
                mcfg,
                config,
                cg,
                modref,
                layout,
                ret_jfs,
                symbolics,
                jump_fns,
                gov,
                quarantined,
                timings,
                t_run,
                pool,
            );
        }
        let has_form: Vec<bool> = forms.iter().map(Option::is_some).collect();
        let (units, mut pt) = pool.run(n_procs, |pi| {
            if !cg.reachable[pi] || quarantined[pi] || has_form[pi] {
                return None;
            }
            let budget = EvalBudget {
                max_steps,
                deadline,
                latch: Some(&latch),
            };
            Some(crate::quarantine::run_unit(config, Stage::Jump, pi, || {
                build_proc_symbolic(
                    mcfg, config, &layout, kills, &ret_jfs, gate_seeds, pi, &budget,
                )
            }))
        });
        for (pi, unit) in units.into_iter().enumerate() {
            let unit = match (unit, forms[pi].take()) {
                (Some(u), _) => u,
                (None, Some(form)) => reuse_unit(config, pi, form, &mut reused),
                (None, None) => {
                    symbolics.push(None);
                    continue;
                }
            };
            commit_symbolic_unit(mcfg, pi, unit, &mut symbolics, &mut quarantined, &mut gov);
        }
        let (jump_fns, pt_fwd) = build_forward_jump_fns_par(
            mcfg,
            &cg,
            &layout,
            config,
            &symbolics,
            &mut quarantined,
            &mut gov,
            pool,
        );
        pt.absorb(pt_fwd);
        pt.reused = reused;
        timings.jump = pt;
        Self::finish_on(
            mcfg,
            config,
            cg,
            modref,
            layout,
            ret_jfs,
            symbolics,
            jump_fns,
            gov,
            quarantined,
            timings,
            t_run,
            pool,
        )
    }

    /// [`Analysis::finish_on`] without a caller-provided pool: used by
    /// serve's incremental path, whose phases upstream of the solve are
    /// cache replays (sequential by construction).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        mcfg: &ModuleCfg,
        config: &Config,
        cg: CallGraph,
        modref: ModRef,
        layout: SlotLayout,
        ret_jfs: ReturnJumpFns,
        symbolics: Vec<Option<ProcSymbolic>>,
        jump_fns: ForwardJumpFns,
        gov: Governor,
        quarantined: Vec<bool>,
        timings: Timings,
        t_run: Instant,
    ) -> Analysis {
        crate::par::with_pool(timings.jobs, |pool| {
            Self::finish_on(
                mcfg,
                config,
                cg,
                modref,
                layout,
                ret_jfs,
                symbolics,
                jump_fns,
                gov,
                quarantined,
                timings,
                t_run,
                pool,
            )
        })
    }

    /// Stage 3 (the interprocedural wavefront solve, parallel over the
    /// SCC levels when the pool is) and assembly — shared tail of both
    /// `run_once_on` paths.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_on(
        mcfg: &ModuleCfg,
        config: &Config,
        cg: CallGraph,
        modref: ModRef,
        layout: SlotLayout,
        ret_jfs: ReturnJumpFns,
        symbolics: Vec<Option<ProcSymbolic>>,
        jump_fns: ForwardJumpFns,
        mut gov: Governor,
        mut quarantined: Vec<bool>,
        mut timings: Timings,
        t_run: Instant,
        pool: &crate::par::Pool<'_>,
    ) -> Analysis {
        let entry_globals = if config.assume_zero_globals {
            Lattice::Const(0)
        } else {
            Lattice::Bottom
        };
        let (vals, solve_time) = crate::solver::solve_on(
            mcfg,
            &cg,
            &layout,
            &jump_fns,
            entry_globals,
            config,
            &mut gov,
            &mut quarantined,
            pool,
        );
        timings.solve = solve_time;
        timings.total = t_run.elapsed();

        Analysis {
            config: *config,
            cg,
            modref,
            layout,
            ret_jfs,
            symbolics,
            jump_fns,
            vals,
            health: gov.into_health(),
            quarantined,
            timings,
        }
    }

    /// The SCCP call oracle consistent with this analysis's configuration.
    pub fn sccp_oracle<'a>(&'a self, mcfg: &'a ModuleCfg) -> Box<dyn CallDefLattice + 'a> {
        if self.config.use_return_jfs {
            Box::new(RetOracle {
                table: &self.ret_jfs,
                mcfg,
                layout: &self.layout,
            })
        } else {
            Box::new(OpaqueCallsLattice)
        }
    }

    /// `CONSTANTS(p)` as `(slot name, value)` pairs.
    pub fn constants_of(&self, mcfg: &ModuleCfg, p: ProcId) -> Vec<(String, i64)> {
        self.vals
            .constants(p)
            .into_iter()
            .map(|(slot, c)| (self.layout.slot_name(&mcfg.module, p, slot).to_string(), c))
            .collect()
    }

    /// Stage 4: record the results — run the substitution metric.
    pub fn substitute(&self, mcfg: &ModuleCfg) -> Substitution {
        substitute::substitute(mcfg, self)
    }
}

/// The worst-case MOD/REF pair a quarantined procedure is widened to.
pub(crate) fn widen_modref(arity: usize, n_globals: usize) -> (ModSet, ModSet) {
    (
        ModSet::everything(arity, n_globals),
        ModSet::everything(arity, n_globals),
    )
}

/// Commits one MOD/REF unit outcome: the pair on success, the sound
/// widening (plus a quarantine event) on a contained panic. Shared by the
/// sequential loop and the parallel fold so both record byte-identical
/// telemetry.
pub(crate) fn commit_modref_unit(
    name: &str,
    unit: Result<(ModSet, ModSet), UnitError>,
    arity: usize,
    n_globals: usize,
    pi: usize,
    quarantined: &mut [bool],
    gov: &mut Governor,
) -> (ModSet, ModSet) {
    match unit {
        Ok(pair) => pair,
        Err(e) => {
            quarantined[pi] = true;
            gov.record_quarantine(
                Stage::ModRef,
                format!(
                    "{name}: panic contained ({}); \
                     summary widened to everything visible",
                    e.message
                ),
            );
            widen_modref(arity, n_globals)
        }
    }
}

/// One evaluation's outcome: the procedure's symbolic form and whether
/// its budget cut the evaluation short. Stage 1 keeps it for Stage 2 to
/// commit instead of evaluating the procedure again.
pub(crate) type KeptForm = (ProcSymbolic, bool);

/// Whether Stage 2 builds the same form as Stage 1 (plain SSA, ungated,
/// under the return-jump oracle), so a form Stage 1 kept can be reused.
pub(crate) fn reuses_forms(config: &Config) -> bool {
    config.use_return_jfs && !config.pruned_ssa && !config.gated_jump_fns
}

/// Builds procedure `p`'s SSA form and evaluates it symbolically under
/// `budget` — the one SSA + evaluation both jump-function stages share.
///
/// The evaluation's call oracle reads `ret_jfs` (every call-modified
/// value is ⊥ when `None`). `pruned` selects pruned SSA; `gate` seeds an
/// SCCP pass whose executability facts gate the evaluation (extension).
/// Returns the form and whether the budget cut the evaluation short.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_proc(
    mcfg: &ModuleCfg,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    ret_jfs: Option<&ReturnJumpFns>,
    p: ProcId,
    pruned: bool,
    gate: Option<Seeds>,
    budget: &EvalBudget<'_>,
) -> KeptForm {
    let ssa = if pruned {
        build_ssa_pruned(mcfg, p, kills)
    } else {
        build_ssa(mcfg, p, kills)
    };
    let ret = ret_jfs.map(|table| RetOracle {
        table,
        mcfg,
        layout,
    });
    let (sym_oracle, lat_oracle): (&dyn CallDefEval, &dyn CallDefLattice) = match &ret {
        Some(oracle) => (oracle, oracle),
        None => (&OpaqueCalls, &OpaqueCallsLattice),
    };
    let gate = gate.map(|seeds| ipcp_ssa::sccp::run(mcfg, &ssa, &seeds, lat_oracle));
    let (sym, exhausted) =
        ipcp_ssa::symbolic::evaluate_under(mcfg, &ssa, layout, sym_oracle, gate.as_ref(), budget);
    (ProcSymbolic { ssa, sym, gate }, exhausted)
}

/// Procedure `pi`'s Stage-2 symbolic form under `config` — the
/// Stage::Jump unit of work, shared by the sequential loop, the parallel
/// workers and serve's incremental path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_proc_symbolic(
    mcfg: &ModuleCfg,
    config: &Config,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    ret_jfs: &ReturnJumpFns,
    gate_seeds: Option<&Vec<Vec<Lattice>>>,
    pi: usize,
    budget: &EvalBudget<'_>,
) -> KeptForm {
    let p = ProcId::from(pi);
    // Gate (extension): an SCCP pass whose executability facts prune phi
    // inputs and dead call sites, approximating jump-function generation
    // over gated single-assignment form.
    let gate = config.gated_jump_fns.then(|| match gate_seeds {
        Some(vals) => crate::substitute::seeds_from_vals(mcfg, layout, p, &vals[pi]),
        None => Seeds::none(mcfg.module.proc(p).vars.len()),
    });
    let ret_jfs = config.use_return_jfs.then_some(ret_jfs);
    evaluate_proc(
        mcfg,
        layout,
        kills,
        ret_jfs,
        p,
        config.pruned_ssa,
        gate,
        budget,
    )
}

/// Runs a form Stage 1 kept as procedure `pi`'s Stage::Jump unit: still
/// under quarantine, so panic injection fires as it would for an
/// evaluation. Counts the reuse when the unit succeeds.
pub(crate) fn reuse_unit(
    config: &Config,
    pi: usize,
    form: KeptForm,
    reused: &mut usize,
) -> Result<KeptForm, UnitError> {
    let unit = crate::quarantine::run_unit(config, Stage::Jump, pi, || form);
    *reused += usize::from(unit.is_ok());
    unit
}

/// Commits one symbolic unit outcome into `symbolics`, recording the
/// deadline/step-slice/panic events exactly as the sequential loop would.
pub(crate) fn commit_symbolic_unit(
    mcfg: &ModuleCfg,
    pi: usize,
    unit: Result<KeptForm, UnitError>,
    symbolics: &mut Vec<Option<ProcSymbolic>>,
    quarantined: &mut [bool],
    gov: &mut Governor,
) {
    let name = &mcfg.module.procs[pi].name;
    match unit {
        Ok((ps, steps_exhausted)) => {
            if steps_exhausted {
                if gov.deadline_expired() {
                    gov.record_deadline(
                        Stage::Jump,
                        format!(
                            "{name}: deadline expired during symbolic \
                             evaluation; pending values forced to ⊥"
                        ),
                    );
                } else {
                    gov.record_quarantine(
                        Stage::Jump,
                        format!(
                            "{name}: symbolic evaluation step slice \
                             exhausted; pending values forced to ⊥"
                        ),
                    );
                }
            }
            symbolics.push(Some(ps));
        }
        Err(e) => {
            quarantined[pi] = true;
            gov.record_quarantine(
                Stage::Jump,
                format!(
                    "{name}: panic contained ({}); procedure \
                     quarantined, jump functions forced to ⊥",
                    e.message
                ),
            );
            symbolics.push(None);
        }
    }
}

/// The façade entry point: runs the full pipeline and applies strict-mode
/// promotion, so library callers get the same semantics as `ipcc`
/// (`--strict` → exit code 3) without reimplementing the health check.
///
/// # Errors
///
/// [`IpcpError::ResourceExhausted`] when [`Config::strict`] is set and
/// any stage degraded. Without strict mode this never fails — degraded
/// runs stay sound and report what happened in [`Analysis::health`].
///
/// ```
/// use ipcp::{analyze, Config};
/// let module = ipcp_ir::parse_and_resolve(
///     "proc main() { call f(6); } proc f(a) { print a; }",
/// )?;
/// let mcfg = ipcp_ir::lower_module(&module);
/// let analysis = analyze(&mcfg, &Config::builder().strict(true).build()?)?;
/// let f = mcfg.module.proc_named("f").unwrap().id;
/// assert_eq!(analysis.constants_of(&mcfg, f), vec![("a".to_string(), 6)]);
/// # Ok::<(), ipcp::IpcpError>(())
/// ```
pub fn analyze(mcfg: &ModuleCfg, config: &Config) -> Result<Analysis, IpcpError> {
    let analysis = Analysis::run(mcfg, config);
    IpcpError::check_strict(config.strict, &analysis.health)?;
    Ok(analysis)
}

/// Parses, resolves, lowers, and analyzes FT source in one call.
///
/// # Errors
///
/// [`IpcpError::Frontend`] if the source is malformed. Budget exhaustion
/// is **not** an error here — the analysis degrades soundly and reports
/// what happened in [`Analysis::health`]; callers that demand full
/// precision can promote degradations with [`IpcpError::check_strict`].
///
/// ```
/// use ipcp::{analyze_source, Config};
/// let (mcfg, analysis) = analyze_source(
///     "proc main() { call f(6, 7); } proc f(a, b) { print a * b; }",
///     &Config::default(),
/// )?;
/// let f = mcfg.module.proc_named("f").unwrap().id;
/// let consts = analysis.constants_of(&mcfg, f);
/// assert_eq!(consts, vec![("a".to_string(), 6), ("b".to_string(), 7)]);
/// assert!(!analysis.health.degraded());
/// # Ok::<(), ipcp::IpcpError>(())
/// ```
pub fn analyze_source(src: &str, config: &Config) -> Result<(ModuleCfg, Analysis), IpcpError> {
    let module = ipcp_ir::parse_and_resolve(src)?;
    let mcfg = ipcp_ir::lower_module(&module);
    let analysis = Analysis::run(&mcfg, config);
    Ok((mcfg, analysis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JumpFnKind;

    #[test]
    fn pipeline_stages_hang_together() {
        let (mcfg, a) = analyze_source(
            "global size; \
             proc main() { size = 100; call setup(); call kernel(10); } \
             proc setup() { } \
             proc kernel(k) { do i = 1, k { print i * size; } }",
            &Config::default(),
        )
        .unwrap();
        let kernel = mcfg.module.proc_named("kernel").unwrap().id;
        let consts = a.constants_of(&mcfg, kernel);
        assert!(consts.contains(&("k".to_string(), 10)), "{consts:?}");
        assert!(consts.contains(&("size".to_string(), 100)), "{consts:?}");
    }

    #[test]
    fn substitution_counts_occurrences_not_slots() {
        let (mcfg, a) = analyze_source(
            "proc main() { call f(3); } proc f(a) { print a; print a + a; }",
            &Config::default(),
        )
        .unwrap();
        let sub = a.substitute(&mcfg);
        // Three occurrences of `a` replaced.
        assert_eq!(sub.total, 3);
    }

    #[test]
    fn substituted_program_behaves_identically() {
        use ipcp_ir::interp::{exec_cfg, ExecLimits};
        let src = "global g; \
                   proc main() { g = 2; read x; call f(5, x); } \
                   proc f(k, n) { do i = 1, k { print i * g + n; } }";
        let (mcfg, a) = analyze_source(src, &Config::polynomial()).unwrap();
        let sub = a.substitute(&mcfg);
        assert!(sub.total > 0);
        for input in [&[0][..], &[7], &[-3]] {
            let before = exec_cfg(&mcfg, input, &ExecLimits::default()).unwrap();
            let after = exec_cfg(&sub.module, input, &ExecLimits::default()).unwrap();
            assert_eq!(before.output, after.output, "behaviour changed");
        }
    }

    #[test]
    fn jump_fn_hierarchy_is_monotone_on_counts() {
        let src = "global g; \
                   proc main() { g = 4; n = 6; call a(n, 3); } \
                   proc a(x, y) { call b(x, y + 1); } \
                   proc b(p, q) { print p * q * g; }";
        let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(src).unwrap());
        let mut last = 0;
        for kind in JumpFnKind::ALL {
            let a = Analysis::run(&mcfg, &Config::default().with_jump_fn(kind));
            let count = a.substitute(&mcfg).total;
            assert!(count >= last, "{kind} found {count} < previous {last}");
            last = count;
        }
    }

    #[test]
    fn removing_mod_never_helps() {
        let src = "global g; \
                   proc main() { g = 1; x = 2; call f(x); print g + x; } \
                   proc f(a) { print a; }";
        let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(src).unwrap());
        let with_mod = Analysis::run(&mcfg, &Config::polynomial())
            .substitute(&mcfg)
            .total;
        let without = Analysis::run(&mcfg, &Config::polynomial().with_mod(false))
            .substitute(&mcfg)
            .total;
        assert!(without <= with_mod);
        assert!(with_mod > 0);
    }

    #[test]
    fn return_jfs_recover_constants_after_calls() {
        let src = "global g; \
                   proc main() { call init(); call use(); } \
                   proc init() { g = 8; } \
                   proc use() { print g; }";
        let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(src).unwrap());
        let with_ret = Analysis::run(&mcfg, &Config::default());
        let use_p = mcfg.module.proc_named("use").unwrap().id;
        assert_eq!(
            with_ret.constants_of(&mcfg, use_p),
            vec![("g".to_string(), 8)]
        );
        let without = Analysis::run(&mcfg, &Config::default().with_return_jfs(false));
        assert!(without.constants_of(&mcfg, use_p).is_empty());
    }

    #[test]
    fn intraprocedural_baseline_is_weaker() {
        let src = "proc main() { call f(9); } proc f(a) { print a; print 3 * 2; }";
        let (mcfg, a) = analyze_source(src, &Config::default()).unwrap();
        let inter = a.substitute(&mcfg).total;
        let intra = crate::substitute::substitute_intraprocedural(&mcfg, &a).total;
        assert!(intra < inter, "intra {intra} !< inter {inter}");
        assert_eq!(intra, 0); // `3 * 2` has no variable occurrence
        assert_eq!(inter, 1);
    }
}
