//! The four-stage pipeline of §4.1: generate return jump functions,
//! generate forward jump functions, propagate interprocedurally, record
//! the results.
//!
//! There is one driver. Every per-procedure stage — MOD/REF, return jump
//! functions, symbolic evaluation, forward jump functions — runs as
//! [`PhaseUnit`]s folded in sequential unit order ([`fold_units`], and its
//! SCC-levelled form in [`retjump`](crate::retjump)): on a pool with
//! workers the units run ahead against governor shards and the fold
//! absorbs or replays them; on a pool without, each unit runs on the
//! master and is committed at once. Serve's summary cache is a memo hook
//! inside the same path ([`Analysis::run_memoized`]), not a second driver.
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
use crate::jump::{build_forward_jump_fns_on, ForwardJumpFns, ProcSymbolic};
use crate::par::{PhaseTime, Pool, Timings};
use crate::quarantine::run_unit;
use crate::retjump::{build_return_jfs_on, RetMarks, RetOracle, RetView, ReturnJumpFns};
use crate::serve::cache::{
    cacheable, CacheTxn, CachedSummary, Live, Lookup, Memo, MemoKeys, MemoLog, Reuse, Served,
    SummaryStage,
};
use crate::solver::ValSets;
use crate::substitute::{self, Substitution, SubstitutionCounts};
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
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A typed phase-unit failure: which [`Stage`] faulted, which unit, and
/// the contained panic (or exhaustion) message.
///
/// `unit` is the index in the phase's own unit space — a procedure index
/// for the per-procedure phases (MOD/REF, symbolic, forward and return
/// jump functions), an SCC index for solver units. This replaces the
/// stringly `Result<_, String>` contract the drivers used to share:
/// quarantine widening and the folds see the same structured error, and
/// strict-mode promotion can carry it through
/// [`IpcpError`](crate::IpcpError) without string matching.
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

/// One phase unit's optimistic outcome, as handed to the canonical fold:
/// its index in the phase's unit space, its result, and the [`Governor`]
/// shard it charged while running ahead of the fold.
///
/// This is the contract every phase driver shares: on a pool with workers,
/// units run ahead out of order, and the fold walks them **in index
/// order**, absorbing each unit's shard into the authoritative governor
/// when [`Governor::can_absorb`] proves the merged counters land exactly
/// where a sequential run's would — otherwise the unit is discarded and
/// replayed against the master ([`PhaseFold::try_absorb`]). A memo hit
/// (serve's summary cache) is such a unit too: its result and recorded
/// charges were computed by an earlier request, and it passes the same
/// gate.
#[derive(Clone, Debug)]
pub struct PhaseUnit<T> {
    /// Index in the phase's unit space (procedure or SCC index).
    pub index: usize,
    /// The unit's computed outcome (failures are contained inside it).
    pub outcome: T,
    /// The optimistic governor shard the unit charged.
    pub shard: Governor,
}

impl<T> PhaseUnit<T> {
    /// Wraps a unit outcome with the shard it charged.
    pub fn new(index: usize, outcome: T, shard: Governor) -> Self {
        PhaseUnit {
            index,
            outcome,
            shard,
        }
    }
}

/// Absorb/replay accounting for one phase's canonical fold.
///
/// Every phase folds its [`PhaseUnit`]s through
/// [`PhaseFold::try_absorb`]; the counters are stamped into the phase's
/// [`PhaseTime`] so `Timings` reports how often the optimistic path paid
/// off (absorb is O(stages); replay re-runs the unit against the master).
/// Both stay 0 on a pool without workers, where no unit runs ahead.
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
    /// returns `None`; the caller must replay the unit against `gov`.
    pub fn try_absorb<T>(
        &mut self,
        gov: &mut Governor,
        unit: PhaseUnit<T>,
        absorbable: bool,
    ) -> Option<T> {
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

/// The one driver of a per-procedure phase: units `0..n`, each run by
/// `unit` against a governor and committed, in index order, by `commit`.
///
/// On a pool with workers every unit first runs ahead against its own
/// governor shard; the fold then walks the units in index order and keeps
/// a unit's outcome when its shard absorbs, re-running the unit against
/// the master otherwise ([`PhaseFold::try_absorb`]). On a pool without
/// workers nothing runs ahead ([`Pool::ahead`]): each unit runs on the
/// master and is committed at once, which is the sequential loop at the
/// sequential loop's cost. Returns the phase accounting without the
/// stage's sequential tail; callers stamp that with
/// [`PhaseTime::with_tail`].
pub(crate) fn fold_units<T: Send>(
    pool: Pool,
    gov: &mut Governor,
    n: usize,
    unit: impl Fn(usize, &mut Governor) -> T + Sync,
    mut commit: impl FnMut(usize, T, &mut Governor),
) -> PhaseTime {
    let master: &Governor = gov;
    let (ahead, mut time) = pool
        .ahead(|| {
            pool.run(n, |i| {
                let mut shard = master.shard();
                let outcome = unit(i, &mut shard);
                PhaseUnit::new(i, outcome, shard)
            })
        })
        .unwrap_or_else(|| (Vec::new(), PhaseTime::sequential(Duration::ZERO, n)));
    let mut ahead = ahead.into_iter();
    let mut fold = PhaseFold::default();
    for i in 0..n {
        let outcome = match ahead.next().and_then(|u| fold.try_absorb(gov, u, true)) {
            Some(outcome) => outcome,
            None => unit(i, gov),
        };
        commit(i, outcome, gov);
    }
    fold.stamp(&mut time);
    time
}

/// Everything the interprocedural constant propagation computed for one
/// module under one [`Config`].
#[derive(Debug)]
pub struct Analysis {
    /// The configuration used.
    pub config: Config,
    /// Call graph.
    pub cg: Arc<CallGraph>,
    /// MOD/REF summaries (always computed; consulted only when
    /// `config.use_mod`).
    pub modref: Arc<ModRef>,
    /// Entry-slot layout shared by every table.
    pub layout: Arc<SlotLayout>,
    /// Return jump functions (an empty table when disabled).
    pub ret_jfs: ReturnJumpFns,
    /// Per-procedure SSA + polynomial evaluation (reachable procedures).
    /// Each form is shared with serve's summary cache, which hands the
    /// same `Arc` to every later analysis its entry serves.
    pub symbolics: Vec<Option<Arc<ProcSymbolic>>>,
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
    /// What a memoized run recorded for the next run to reuse (`None`
    /// for a run without a memo).
    pub(crate) memo_log: Option<MemoLog>,
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
        let mut analysis = Self::run_once(mcfg, config, None, None);
        if config.gated_jump_fns {
            for _ in 0..4 {
                let vals = analysis.vals.vals.clone();
                let mut next = Self::run_once(mcfg, config, Some(&vals), None);
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

    /// [`Analysis::run`] with serve's summary cache as a memo hook: every
    /// per-procedure unit looks its key up before computing, a hit goes
    /// through the same governor gate as a unit run ahead on the pool, and
    /// the fold notes hits, misses and fresh clean units into `memo.txn`
    /// in sequential unit order. The result is bit-identical to
    /// [`Analysis::run`] (see [`crate::serve::cache`] for the contract),
    /// and so are the notes at every `--jobs`. Gated configurations bypass
    /// the memo (their units read the previous round's fixpoint).
    pub fn run_memoized(mcfg: &ModuleCfg, config: &Config, memo: Memo<'_>) -> Analysis {
        Self::run_memoized_on(mcfg, config, memo, None)
    }

    /// [`Analysis::run_memoized`] that may also reuse `live`, the analysis
    /// serve holds for the previous program, stage by stage: see
    /// [`crate::serve::cache`] for when a stage's product is shared and
    /// when the run falls back to the plain memoized path. The result,
    /// the notes and the staged entries are the plain path's.
    pub(crate) fn run_memoized_on(
        mcfg: &ModuleCfg,
        config: &Config,
        memo: Memo<'_>,
        live: Option<Live<'_>>,
    ) -> Analysis {
        if !cacheable(config) {
            memo.txn.bypassed = true;
            return Analysis::run(mcfg, config);
        }
        let reuse = live.and_then(|live| Reuse::check(mcfg, config, memo.own, live));
        Self::run_once(mcfg, config, None, Some((memo, reuse)))
    }

    /// One pass of the four stages. Every per-procedure stage runs through
    /// the fold ([`fold_units`], and its SCC-levelled form for return jump
    /// functions), whatever the pool's size; `memo`, when given, is
    /// consulted by every unit and takes the fold's notes, and its
    /// [`Reuse`], when given, lets each stage share the live analysis's
    /// product or its clean units' results.
    fn run_once(
        mcfg: &ModuleCfg,
        config: &Config,
        gate_seeds: Option<&Vec<Vec<Lattice>>>,
        memo: Option<(Memo<'_>, Option<Reuse<'_>>)>,
    ) -> Analysis {
        let t_run = Instant::now();
        // Every round of every stage runs on this pool; a round spawns
        // and joins its own workers.
        let pool = Pool::new(config.effective_jobs());
        let (memo, reuse) = match memo {
            Some((m, reuse)) => (Some(m), reuse),
            None => (None, None),
        };
        // A run that reuses the live analysis shares its call graph and
        // (unless an edit renamed a formal) slot layout: the shape and every
        // edited procedure's call edges are unchanged, so rebuilding them
        // would give equal ones.
        let (cg, layout) = match &reuse {
            Some(r) => (Arc::clone(&r.live.cg), Arc::clone(&r.layout)),
            None => (
                Arc::new(build_call_graph(mcfg)),
                Arc::new(SlotLayout::new(&mcfg.module)),
            ),
        };
        let mut gov = Governor::new(config);
        let n_procs = mcfg.module.procs.len();
        let mut quarantined = vec![false; n_procs];
        let mut timings = Timings {
            jobs: config.effective_jobs(),
            ..Timings::default()
        };
        // The memo's read side goes into the units (and so into pool
        // rounds); its transaction takes the fold's notes.
        let mut unmemoized = CacheTxn::new();
        let (memo_keys, txn) = match memo {
            Some(m) => {
                let keys = MemoKeys::new(&m, mcfg, &cg, config, reuse.as_ref());
                m.txn.start_log(n_procs, reuse.is_some());
                (Some(keys), m.txn)
            }
            None => (None, &mut unmemoized),
        };
        let memo = memo_keys.as_ref();
        let prev_log = reuse.as_ref().map(Reuse::log);
        // Each stage below keeps reusing only while its inputs equal the
        // live run's; the first stage whose product moved ends reuse.
        let mut reuse = reuse;

        // Stage 0: per-procedure MOD/REF direct effects (under
        // quarantine), then call-edge propagation. Its timer starts with
        // the run, so it also covers building the call graph the
        // propagation walks, and the stage timers together cover the
        // whole run. A contained failure widens only that procedure's
        // summary to "touches everything visible"; the fixpoint spreads
        // the widening to callers exactly as far as reference bindings
        // demand. A reused unit's effects are the live ones (`None`).
        let mut direct: Vec<Option<(ModSet, ModSet)>> = Vec::with_capacity(n_procs);
        let pt = fold_units(
            pool,
            &mut gov,
            n_procs,
            |pi, g| modref_unit(mcfg, config, memo, reuse.as_ref(), pi, g),
            |pi, (pair, quarantine, served), _| {
                direct.push(pair);
                quarantined[pi] |= quarantine;
                txn.note_unit(pi, served);
            },
        );
        // The live propagation is shared when every unit that ran has the
        // direct effects the live run used, and every procedure binds the
        // same variables by reference at its call sites.
        let shared = reuse.as_ref().filter(|r| {
            direct.iter().enumerate().all(|(pi, d)| {
                d.as_ref().is_none_or(|d| *d == r.live_direct_effects(pi))
                    && r.same_bindings(mcfg, pi)
            })
        });
        let modref = match shared {
            Some(r) => Arc::clone(&r.live.modref),
            None => {
                reuse = None;
                let (mods, refs) = direct
                    .into_iter()
                    .enumerate()
                    .map(|(pi, d)| d.unwrap_or_else(|| direct_effects(mcfg, ProcId::from(pi))))
                    .unzip();
                Arc::new(propagate_modref(mcfg, &cg, mods, refs))
            }
        };
        let reuse = reuse.as_ref();
        // A unit whose call kills read a MOD set widened by a degraded
        // MOD/REF unit computes what no clean cone computes: the memo
        // neither serves nor keeps it.
        let mod_tainted = match memo {
            Some(_) if config.use_mod && quarantined.contains(&true) => {
                mod_taint(&cg, &quarantined)
            }
            _ => Vec::new(),
        };
        // Direct effects plus their propagation make up the stage.
        timings.modref = pt.with_tail(t_run.elapsed());

        let mod_kills = ModKills(&modref);
        let kills: &(dyn CallKills + Sync) = if config.use_mod {
            &mod_kills
        } else {
            &WorstCaseKills
        };

        // Stage 1: return jump functions (bottom-up over the call graph;
        // SCC units, run ahead level by level of the condensation on a
        // pool with workers). Each unit builds its procedure's SSA form
        // and evaluates it symbolically; when Stage 2 would build the same
        // form, the unit keeps it.
        let t1 = Instant::now();
        let (ret_jfs, mut forms, marks) = if config.use_return_jfs {
            let (table, forms, pt, marks) = build_return_jfs_on(
                mcfg,
                &cg,
                &layout,
                kills,
                config,
                &mut quarantined,
                &mut gov,
                pool,
                reuses_forms(config),
                memo,
                &mod_tainted,
                reuse,
                txn,
            );
            timings.retjump = pt.with_tail(t1.elapsed());
            (table, forms, marks)
        } else {
            let table = ReturnJumpFns {
                fns: vec![None; n_procs],
                compose: false,
            };
            (table, vec![None; n_procs], RetMarks::default())
        };
        // A form reads its callees' return jump functions: one that reads
        // a degraded or tainted table entry is tainted too.
        let flagged = |v: &[bool], i: usize| v.get(i).is_some_and(|&b| b);
        let form_tainted = |pi: usize| {
            flagged(&mod_tainted, pi)
                || cg
                    .calls_from(ProcId::from(pi))
                    .iter()
                    .any(|e| flagged(&marks.bad, e.callee.index()))
        };

        // Stage 2: each reachable procedure's symbolic form, then forward
        // jump functions (top-down conceptually; order is irrelevant since
        // return jump functions are already fixed). A form Stage 1 kept is
        // committed as is; the rest — recursive SCC members, and every
        // procedure under a configuration whose form differs — are
        // evaluated here against the final table. Either way the commit
        // runs as a `Stage::Jump` quarantine unit, so panic injection and
        // containment behave the same. The symbolic units charge nothing —
        // step budgets are enforced inside the evaluator — so their fold
        // only orders the *recording* of outcomes. A clean unit whose
        // return-jump inputs did not move reuses its live form.
        let t2 = Instant::now();
        let latch = Arc::clone(gov.latch());
        let budget = EvalBudget {
            max_steps: gov.limits().max_symbolic_steps,
            deadline: config.deadline.map(|d| d.instant()),
            latch: Some(&latch),
        };
        let before = quarantined.clone();
        let has_form: Vec<bool> = forms.iter().map(Option::is_some).collect();
        let mut symbolics: Vec<Option<Arc<ProcSymbolic>>> = Vec::with_capacity(n_procs);
        let mut reused = 0;
        let mut pt = fold_units(
            pool,
            &mut gov,
            n_procs,
            |pi, _| {
                // A procedure quarantined by an earlier phase contributes
                // no symbolic form: its call sites get explicit all-⊥ jump
                // functions, and re-running its unit here would fire the
                // same fault twice.
                if !cg.reachable[pi] || before[pi] {
                    return Symbolic::Live(None, None);
                }
                let tainted = memo.is_some() && form_tainted(pi);
                if let Some((r, memo)) = reuse.zip(memo).filter(|_| !tainted) {
                    let live = r.live.symbolics[pi].as_ref();
                    let clean = !flagged(&marks.stale, pi) && r.clean(memo, SummaryStage::Jump, pi);
                    if let Some(ps) = live.filter(|_| clean) {
                        let served =
                            r.served(memo, SummaryStage::Jump, pi, || CachedSummary::Jump {
                                sym: Arc::clone(ps),
                            });
                        return Symbolic::Reused(Arc::clone(ps), served);
                    }
                }
                let lookup = memo.map(|m| m.lookup(SummaryStage::Jump, pi).forced_if(tainted));
                if let Some(l) = lookup {
                    if let Some((CachedSummary::Jump { sym }, _)) = l.hit {
                        return Symbolic::Reused(Arc::clone(sym), l.served_hit());
                    }
                }
                if has_form[pi] {
                    return Symbolic::Live(None, lookup);
                }
                let unit = run_unit(config, Stage::Jump, pi, || {
                    build_proc_symbolic(
                        mcfg, config, &layout, kills, &ret_jfs, gate_seeds, pi, &budget,
                    )
                });
                Symbolic::Live(Some(Box::new(unit)), lookup)
            },
            |pi, out, gov| {
                let (unit, lookup) = match out {
                    Symbolic::Reused(ps, served) => {
                        // The kept form is not needed: free it at once.
                        forms[pi] = None;
                        txn.note_unit(pi, served);
                        symbolics.push(Some(ps));
                        return;
                    }
                    Symbolic::Live(unit, lookup) => (unit.map(|u| *u), lookup),
                };
                let kept = || {
                    forms[pi]
                        .take()
                        .map(|f| reuse_unit(config, pi, f, &mut reused))
                };
                let Some(unit) = unit.or_else(kept) else {
                    symbolics.push(None);
                    return;
                };
                let clean = matches!(unit, Ok((_, false)));
                commit_symbolic_unit(mcfg, pi, unit, &mut symbolics, &mut quarantined, gov);
                if let Some(lookup) = lookup {
                    // A clean form is cached as the very `Arc` just
                    // committed, so a later hit shares it.
                    let sym = symbolics[pi].as_ref().filter(|_| clean).map(Arc::clone);
                    txn.note_unit(
                        pi,
                        lookup.served_miss(sym.map(|sym| CachedSummary::Jump { sym })),
                    );
                }
            },
        );
        let (jump_fns, pt_fwd) = build_forward_jump_fns_on(
            mcfg,
            &cg,
            &layout,
            config,
            &symbolics,
            &mut quarantined,
            &mut gov,
            pool,
            reuse,
            txn,
        );
        pt.absorb(pt_fwd);
        pt.reused = reused;
        timings.jump = pt.with_tail(t2.elapsed());

        // Stage 3: the interprocedural wavefront solve, then assembly.
        let entry_globals = if config.assume_zero_globals {
            Lattice::Const(0)
        } else {
            Lattice::Bottom
        };
        let (vals, solve_time) = crate::solver::solve(
            mcfg,
            &cg,
            &layout,
            &jump_fns,
            entry_globals,
            config,
            &mut gov,
            &mut quarantined,
        );
        timings.solve = solve_time;
        let memo_log = memo_keys.and_then(|m| txn.finish_log(m.keys, prev_log));
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
            memo_log,
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

    /// Stage 4: record the results — run the substitution metric and
    /// build the transformed program.
    pub fn substitute(&self, mcfg: &ModuleCfg) -> Substitution {
        substitute::substitute(mcfg, self)
    }

    /// Stage 4, metric only: the per-procedure and total counts of
    /// [`Analysis::substitute`], without building the transformed program.
    pub fn substitution_counts(&self, mcfg: &ModuleCfg) -> SubstitutionCounts {
        substitute::substitution_counts(mcfg, self)
    }
}

/// `t[p]`: some callee of `p` has a MOD set that a degraded MOD/REF unit
/// (`degraded[q]`) widened, directly or through its own callees — so `p`'s
/// call kills differ from what a clean run gives.
fn mod_taint(cg: &CallGraph, degraded: &[bool]) -> Vec<bool> {
    let mut scc_bad = vec![false; cg.sccs.len()];
    for (si, members) in cg.sccs.iter().enumerate() {
        scc_bad[si] = members.iter().any(|&p| {
            degraded[p.index()]
                || cg.calls_from(p).iter().any(|e| {
                    let cs = cg.scc_of[e.callee.index()];
                    cs != si && scc_bad[cs]
                })
        });
    }
    (0..degraded.len())
        .map(|p| {
            cg.calls_from(ProcId::from(p))
                .iter()
                .any(|e| scc_bad[cg.scc_of[e.callee.index()]])
        })
        .collect()
}

/// One procedure's MOD/REF unit: charge the direct-effects budget, then
/// reuse a clean unit's live effects (`None`), or serve the direct effects
/// from the memo or compute them under quarantine. A failed charge or a
/// contained panic widens the summary to everything visible. Returns the
/// pair, whether the procedure is now quarantined, and how the memo
/// served it.
fn modref_unit(
    mcfg: &ModuleCfg,
    config: &Config,
    memo: Option<&MemoKeys<'_>>,
    reuse: Option<&Reuse<'_>>,
    pi: usize,
    gov: &mut Governor,
) -> (Option<(ModSet, ModSet)>, bool, Served) {
    let p = &mcfg.module.procs[pi];
    let widened = || {
        let n_globals = mcfg.module.globals.len();
        (
            ModSet::everything(p.arity(), n_globals),
            ModSet::everything(p.arity(), n_globals),
        )
    };
    // The charge comes first, so a unit whose charge fails never runs
    // (the path `--no-quarantine` debugging relies on).
    if !gov.charge(Stage::ModRef) {
        gov.record_quarantine(
            Stage::ModRef,
            format!(
                "{}: direct-effects budget exhausted; \
                 summary widened to everything visible",
                p.name
            ),
        );
        return (Some(widened()), true, Served::Skipped);
    }
    if let Some((r, memo)) = reuse.zip(memo) {
        if r.clean(memo, SummaryStage::ModRef, pi) {
            let served = r.served(memo, SummaryStage::ModRef, pi, || {
                let (mods, refs) = direct_effects(mcfg, ProcId::from(pi));
                CachedSummary::ModRef { mods, refs }
            });
            return (None, false, served);
        }
    }
    let lookup = memo.map(|m| m.lookup(SummaryStage::ModRef, pi));
    if let Some(l) = lookup {
        if let Some((CachedSummary::ModRef { mods, refs }, _)) = l.hit {
            return (Some((mods.clone(), refs.clone())), false, l.served_hit());
        }
    }
    let unit = run_unit(config, Stage::ModRef, pi, || {
        direct_effects(mcfg, ProcId::from(pi))
    });
    let (pair, quarantine) = match unit {
        Ok(pair) => (pair, false),
        Err(e) => {
            gov.record_quarantine(
                Stage::ModRef,
                format!(
                    "{}: panic contained ({}); \
                     summary widened to everything visible",
                    p.name, e.message
                ),
            );
            (widened(), true)
        }
    };
    let served = lookup.map_or(Served::Skipped, |l| {
        let entry = (!quarantine).then(|| CachedSummary::ModRef {
            mods: pair.0.clone(),
            refs: pair.1.clone(),
        });
        l.served_miss(entry)
    });
    (Some(pair), quarantine, served)
}

/// One symbolic unit's outcome, before the fold commits it.
enum Symbolic<'c> {
    /// A form served from the memo or reused from the live analysis, with
    /// its note.
    Reused(Arc<ProcSymbolic>, Served),
    /// Computed live — `None` to commit the form Stage 1 kept, if any —
    /// with the memo lookup that missed.
    Live(Option<Box<Result<KeptForm, UnitError>>>, Option<Lookup<'c>>),
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
/// The evaluation's call oracle reads `ret_jfs` — the table plus, inside
/// a multi-member SCC unit, its members' fresh entries (every
/// call-modified value is ⊥ when `None`). `pruned` selects pruned SSA; `gate` seeds an
/// SCCP pass whose executability facts gate the evaluation (extension).
/// Returns the form and whether the budget cut the evaluation short.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_proc(
    mcfg: &ModuleCfg,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    ret_jfs: Option<RetView<'_>>,
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
    let ret = ret_jfs.as_ref().map(|table| RetOracle {
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
/// Stage::Jump unit of work.
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
    let ret_jfs = config.use_return_jfs.then(|| RetView::of(ret_jfs));
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
    let unit = run_unit(config, Stage::Jump, pi, || form);
    *reused += usize::from(unit.is_ok());
    unit
}

/// Commits one symbolic unit outcome into `symbolics`, recording its
/// deadline/step-slice/panic events in procedure order.
pub(crate) fn commit_symbolic_unit(
    mcfg: &ModuleCfg,
    pi: usize,
    unit: Result<KeptForm, UnitError>,
    symbolics: &mut Vec<Option<Arc<ProcSymbolic>>>,
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
            symbolics.push(Some(Arc::new(ps)));
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
    let mcfg = ipcp_ir::lower_module_owned(ipcp_ir::parse_and_resolve(src)?);
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
