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
//! strictly later level, so the SCCs of one level never feed each other,
//! and — since every jump function is monotone in its lattice inputs —
//! one top-down pass with a local FIFO fixpoint inside each SCC reaches
//! exactly the fixpoint the classic sequential worklist reaches. Each SCC
//! unit is *dirty-driven*: it runs only when some member received a
//! lowering meet, is the entry, or has no entry slots and is called from
//! a reached site of an evaluated procedure (a call that transmits no
//! value still runs the callee, whose own call sites then count). The
//! activation set therefore matches the sequential worklist's, and
//! unreached procedures keep ⊤ untouched.
//!
//! The solve runs on the calling thread at every `--jobs`: levels in
//! order, the dirty SCCs of a level in ascending SCC index, each unit
//! meeting into `vals` as it goes. `vals`, `meets` and `iterations` are
//! therefore the same for every jobs count — the contract the
//! per-procedure phases keep through their fold (`docs/ROBUSTNESS.md`,
//! "Concurrency contract").
//!
//! # The reusing schedule
//!
//! A serve edit re-solves only its cone. A run that reuses the live
//! analysis starts from the live `VAL` sets and visits, top-down, only the
//! SCCs whose inputs may have moved: those of the callers whose forward
//! jump functions moved, and what the cutoff below reaches. Every other
//! SCC keeps its live rows, activation and work — its inputs are the live
//! run's — and its recorded [`Stage::Solver`] charges replay as one batch
//! through [`Governor::replay`] (a trip condition is monotone in the
//! counter, so a batch that replays cleanly crosses no trip anywhere).
//!
//! A visited SCC is re-seeded — ⊤ (the entry procedure as in a full
//! solve), met with every external in-edge's jump functions evaluated at
//! the caller's final row — and its members are marked dirty exactly when
//! the seeding lowered a row, for the entry, and for a member without
//! entry slots that an evaluated caller calls; then [`eval_unit`] runs
//! unchanged.
//!
//! The re-seeding is exact because jump functions are monotone. A caller
//! SCC that ran evaluated each external call site at every row its
//! member held when popped, and its last pop saw the final row (any later
//! lowering would have queued it again). Every earlier evaluation is
//! therefore ≥ the one at the final row, so the meet of all of them is
//! the evaluation at the final row. A caller contributes at all only if
//! it was popped, which the `VAL` sets record per procedure. The unit
//! then starts from the rows and dirty flags the full solve would give
//! it, so its rows, `meets` and `iterations` are the full solve's. A
//! re-run member whose row, jump functions or popped flag came out
//! different from the live run's marks its callees' SCCs for re-running:
//! the cutoff stops where nothing moved. The run falls back to the full
//! solve when the batch does not replay cleanly, when a re-run unit
//! panics, trips its budget or sees the deadline, and (the caller's
//! check) when the live solve degraded or quarantined anything.

use crate::config::{Config, Stage};
use crate::health::Governor;
use crate::jump::{CallerJumpFns, ForwardJumpFns};
use crate::par::PhaseTime;
use crate::pipeline::UnitError;
use ipcp_analysis::CallGraph;
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ir::Table;
use ipcp_ssa::Lattice;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixpoint `VAL` sets: one row of lattice elements per procedure (one
/// element per entry slot), held in a chunked copy-on-write [`Table`], so
/// a solve that starts from another's rows copies only the chunks and
/// rows it writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValSets {
    rows: Table<Arc<[Lattice]>>,
    /// Whether the solve evaluated procedure `p`'s call sites at least
    /// once. A row shows this only when the procedure has entry slots.
    popped: Table<bool>,
    /// Number of meet operations performed (reported by the cost model).
    pub meets: usize,
    /// Number of worklist iterations (procedure re-evaluations).
    pub iterations: usize,
}

impl ValSets {
    /// Every procedure's row at its initial value: ⊤ everywhere except the
    /// entry procedure, whose formals are ⊥ and whose globals hold
    /// `entry_globals`.
    fn initial(mcfg: &ModuleCfg, layout: &SlotLayout, entry_globals: Lattice) -> ValSets {
        let rows = mcfg.module.procs.iter().map(|p| {
            let mut row = vec![Lattice::Top; layout.n_slots(p.arity())];
            init_row(mcfg, p.id, entry_globals, &mut row);
            Arc::from(row)
        });
        ValSets {
            rows: rows.collect(),
            popped: Table::filled(mcfg.module.procs.len(), false),
            meets: 0,
            iterations: 0,
        }
    }

    /// The `VAL` vector of `p`.
    pub fn of(&self, p: ProcId) -> &[Lattice] {
        &self.rows[p.index()]
    }

    fn row_mut(&mut self, p: usize) -> &mut [Lattice] {
        Arc::make_mut(self.rows.get_mut(p))
    }

    /// Every procedure's `VAL` vector, in procedure order.
    pub fn rows(&self) -> impl Iterator<Item = &[Lattice]> + '_ {
        self.rows.iter().map(|r| &**r)
    }

    /// The chunk addresses of the rows and the popped flags.
    #[cfg(test)]
    pub(crate) fn chunk_tables(&self) -> [(&'static str, Vec<usize>); 2] {
        [
            ("vals.rows", self.rows.chunk_addrs()),
            ("vals.popped", self.popped.chunk_addrs()),
        ]
    }

    /// Whether `other` holds the same `VAL` vectors (the work counters
    /// aside).
    pub fn same_rows(&self, other: &ValSets) -> bool {
        self.rows == other.rows
    }

    /// `CONSTANTS(p)`: the `(slot, value)` pairs that always hold on entry
    /// to `p`.
    pub fn constants(&self, p: ProcId) -> Vec<(usize, i64)> {
        self.of(p)
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_const().map(|c| (i, c)))
            .collect()
    }

    /// Total number of constant slots across all procedures.
    pub fn n_constants(&self) -> usize {
        self.rows().flatten().filter(|l| l.is_const()).count()
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

/// Sets `row`, procedure `p`'s row, to its initial value: ⊤, or for the
/// entry procedure ⊥ formals and `entry_globals` globals.
fn init_row(mcfg: &ModuleCfg, p: ProcId, entry_globals: Lattice, row: &mut [Lattice]) {
    if p != mcfg.module.entry {
        row.fill(Lattice::Top);
        return;
    }
    // The entry procedure is invoked by the environment: nothing is known
    // about its formals (main has none) and its globals get the configured
    // assumption.
    let arity = mcfg.module.proc(p).arity();
    for (i, v) in row.iter_mut().enumerate() {
        *v = if i < arity {
            Lattice::Bottom
        } else {
            entry_globals
        };
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

/// Runs one SCC unit's evaluation ([`eval_unit`]) under the quarantine
/// contract: panics are contained (with the quiet hook) when
/// `config.quarantine` is on, and propagate when it is off — the same
/// semantics `quarantine::run_unit` gives the per-procedure phases, minus
/// the unit-entry injection (the solver fires the hook per member
/// re-evaluation instead).
fn guarded<T>(config: &Config, scc: usize, eval: impl FnOnce() -> T) -> Result<T, UnitError> {
    if config.quarantine {
        crate::quarantine::quiet_catch(eval).map_err(|msg| UnitError::new(Stage::Solver, scc, msg))
    } else {
        Ok(eval())
    }
}

/// The counters one unit evaluation reports back to the wavefront.
struct UnitOutcome {
    meets: usize,
    iterations: usize,
    /// A governor charge failed mid-unit (budget cap or injected fault).
    tripped: bool,
    /// A cooperative check observed the expired wall-clock deadline.
    deadline: bool,
}

/// The buffers every unit of one solve reuses: the FIFO and its queued
/// flags, the copy of the row being evaluated, and the values one call
/// site transmits.
#[derive(Default)]
struct Scratch {
    queued: Vec<bool>,
    work: VecDeque<usize>,
    row: Vec<Lattice>,
    incoming: Vec<Lattice>,
}

/// Evaluates one SCC unit: a local FIFO fixpoint over the members, seeded
/// by their dirty flags. Each pop checks the deadline, fires the panic
/// injection hook, charges the governor, then evaluates the member's call
/// sites in order, meeting straight into `vals` and marking lowered
/// external callees in `dirty`.
///
/// External callees live at strictly later levels (same-level SCCs never
/// call each other), so nothing reads their rows before this level is
/// done; on a panic, trip or deadline the partially applied meets are
/// erased by the quarantine ⊥-fill or `degrade_reachable`.
#[allow(clippy::too_many_arguments)]
fn eval_unit(
    cg: &CallGraph,
    jump_fns: &ForwardJumpFns,
    config: &Config,
    members: &[ProcId],
    scc: usize,
    vals: &mut ValSets,
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
    let Scratch {
        queued,
        work,
        row,
        incoming,
    } = scratch;
    queued.clear();
    queued.resize(members.len(), false);
    work.clear();
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
        vals.popped.set(p.index(), true);
        out.iterations += 1;
        // Work on a copy of the caller's row, so callee rows can be met
        // into without aliasing it (external callees are always other
        // rows); it is written back after the last call site.
        row.clear();
        row.extend_from_slice(vals.of(p));
        let caller_row = &mut *row;
        for edge in cg.calls_from(p) {
            let Some(site_fns) = jump_fns.reached(p, edge.site) else {
                continue; // unreachable call site
            };
            // A callee without entry slots meets nothing in, but the call
            // still runs it once.
            let first_call = site_fns.is_empty() && !vals.popped[edge.callee.index()];
            if cg.scc_of[edge.callee.index()] == scc {
                let Some(lj) = members.iter().position(|&m| m == edge.callee) else {
                    unreachable!("intra-SCC callee missing from member list");
                };
                // Intra-SCC meets may lower the caller's own row
                // (self-recursion lands in the copied row), so every slot
                // of the site is evaluated against one snapshot.
                let snapshot = caller_row.clone();
                let mut changed = false;
                for (slot, jf) in site_fns.iter().enumerate() {
                    let incoming =
                        jf.eval(|v| snapshot.get(v as usize).copied().unwrap_or(Lattice::Bottom));
                    out.meets += 1;
                    let target = if edge.callee == p {
                        &mut caller_row[slot]
                    } else {
                        &mut vals.row_mut(edge.callee.index())[slot]
                    };
                    changed |= target.meet_in(incoming);
                }
                if (changed || first_call) && !queued[lj] {
                    queued[lj] = true;
                    work.push_back(lj);
                }
            } else {
                // Evaluate first and write the callee's row only when a
                // meet lowers it: a row the unit leaves alone stays shared
                // with the solve a reusing run started from.
                incoming.clear();
                incoming.extend(site_fns.iter().map(|jf| {
                    jf.eval(|v| {
                        caller_row
                            .get(v as usize)
                            .copied()
                            .unwrap_or(Lattice::Bottom)
                    })
                }));
                out.meets += site_fns.len();
                let callee = edge.callee.index();
                let lowers = vals.rows[callee]
                    .iter()
                    .zip(incoming.iter())
                    .any(|(&was, &inc)| was.meet(inc) != was);
                if lowers {
                    let callee_row = vals.row_mut(callee);
                    for (slot, &inc) in callee_row.iter_mut().zip(incoming.iter()) {
                        slot.meet_in(inc);
                    }
                }
                if lowers || first_call {
                    dirty[callee] = true;
                }
            }
        }
        vals.row_mut(p.index()).copy_from_slice(caller_row);
    }
    out
}

/// Forces every reachable procedure's slots to ⊥ — the response to a
/// mid-solve budget trip or deadline expiry, when the partially descended
/// `VAL` sets are still optimistic (too high to be trusted). Unreachable
/// procedures keep ⊤, which is equally sound (they never execute).
fn degrade_reachable(vals: &mut ValSets, cg: &CallGraph) {
    for (pi, &reachable) in cg.reachable.iter().enumerate() {
        if reachable {
            vals.row_mut(pi).fill(Lattice::Bottom);
        }
    }
}

/// The `(meets, iterations)` each SCC's unit added to a solve, indexed by
/// SCC — `(0, 0)` for a unit that did not run. A reusing solve replays
/// the live run's entries for the SCCs it reuses.
pub(crate) type SccWork = Table<(usize, usize)>;

/// The live solve a reusing run starts from: its `VAL` sets, the forward
/// jump functions they were solved over, its per-SCC work, and the
/// callers whose forward jump functions moved from those, ascending.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LiveSolve<'a> {
    pub(crate) vals: &'a ValSets,
    pub(crate) jump_fns: &'a ForwardJumpFns,
    pub(crate) work: &'a SccWork,
    pub(crate) moved: &'a [usize],
}

/// One solve's products.
#[derive(Debug)]
pub(crate) struct Solved {
    pub(crate) vals: ValSets,
    /// The per-SCC work, for the next reusing solve.
    pub(crate) work: SccWork,
    /// Wall time; `units` counts the SCC units that ran.
    pub(crate) time: PhaseTime,
    /// For a reusing solve, the members of the SCCs it re-ran: every
    /// procedure whose row may differ from the live one.
    pub(crate) rerun: Option<Vec<usize>>,
    /// The members of the SCCs whose unit panicked, now quarantined.
    pub(crate) quarantined: Vec<usize>,
}

/// Runs the wavefront propagation (see the module docs for the schedule).
///
/// `entry_globals` is the initial assumption for the entry procedure's
/// global slots (⊥ for FORTRAN-style unknown, `Const(0)` for FT's defined
/// zero initialization).
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
) -> (ValSets, PhaseTime) {
    let solved = solve_on(mcfg, cg, layout, jump_fns, entry_globals, config, gov, None);
    for &p in &solved.quarantined {
        quarantined[p] = true;
    }
    (solved.vals, solved.time)
}

/// [`solve`], reusing `live` where the reusing schedule allows (see the
/// module docs), and reporting the per-SCC work and the procedures it
/// quarantined instead of marking them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_on(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    jump_fns: &ForwardJumpFns,
    entry_globals: Lattice,
    config: &Config,
    gov: &mut Governor,
    live: Option<LiveSolve<'_>>,
) -> Solved {
    let t0 = Instant::now();
    let reused = live.and_then(|live| {
        let saved = gov.clone();
        let reused = solve_cone(mcfg, cg, jump_fns, entry_globals, config, gov, live);
        if reused.is_none() {
            *gov = saved;
        }
        reused
    });
    let mut solved = reused.unwrap_or_else(|| {
        solve_full(
            mcfg,
            cg,
            layout,
            &topdown_levels(cg),
            jump_fns,
            entry_globals,
            config,
            gov,
        )
    });
    solved.time = PhaseTime::sequential(t0.elapsed(), solved.time.units);
    solved
}

/// The full wavefront: every reachable SCC in level order, each run when
/// a member is dirty. The caller stamps the wall time.
#[allow(clippy::too_many_arguments)]
fn solve_full(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    levels: &[Vec<usize>],
    jump_fns: &ForwardJumpFns,
    entry_globals: Lattice,
    config: &Config,
    gov: &mut Governor,
) -> Solved {
    let mut vals = ValSets::initial(mcfg, layout, entry_globals);
    let mut dirty = vec![false; mcfg.module.procs.len()];
    dirty[mcfg.module.entry.index()] = true;
    let mut work = vec![(0, 0); cg.sccs.len()];
    let mut quarantined = Vec::new();
    let mut units = 0;
    let mut scratch = Scratch::default();

    'levels: for level in levels {
        for &si in level {
            let members: &[ProcId] = &cg.sccs[si];
            if !members.iter().any(|&m| dirty[m.index()]) {
                continue;
            }
            units += 1;
            let unit = guarded(config, si, || {
                eval_unit(
                    cg,
                    jump_fns,
                    config,
                    members,
                    si,
                    &mut vals,
                    &mut dirty,
                    gov,
                    &mut scratch,
                )
            });
            match unit {
                Err(e) => {
                    // Quarantine the whole SCC: a panic mid-fixpoint means
                    // the members' values (and any contribution they would
                    // have made) cannot be trusted to be post-fixpoint, so
                    // everything the unit touches degrades to ⊥. Skipping
                    // a call site's contribution instead would leave its
                    // callee unsoundly optimistic.
                    quarantined.extend(members.iter().map(|m| m.index()));
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
                        vals.row_mut(m.index()).fill(Lattice::Bottom);
                    }
                    for &m in members {
                        for edge in cg.calls_from(m) {
                            if cg.scc_of[edge.callee.index()] == si {
                                continue;
                            }
                            let Some(fns) = jump_fns.reached(m, edge.site) else {
                                continue;
                            };
                            let callee_vals = vals.row_mut(edge.callee.index());
                            let mut changed = fns.is_empty();
                            for v in callee_vals.iter_mut().take(fns.len()) {
                                changed |= v.meet_in(Lattice::Bottom);
                            }
                            if changed {
                                dirty[edge.callee.index()] = true;
                            }
                        }
                    }
                }
                Ok(u) => {
                    work[si] = (u.meets, u.iterations);
                    vals.meets += u.meets;
                    vals.iterations += u.iterations;
                    let iterations = vals.iterations;
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
    Solved {
        vals,
        work: work.into(),
        time: PhaseTime::sequential(Duration::ZERO, units),
        rerun: None,
        quarantined,
    }
}

/// Whether two callers' forward jump functions are equal (by `Arc` or by
/// value).
fn same_fns(a: &CallerJumpFns, b: &CallerJumpFns) -> bool {
    a.ptr_eq(b) || a == b
}

/// What re-seeding an SCC reads: the module, the call graph, the forward
/// jump functions and the entry procedure's global assumption.
struct Seed<'a> {
    mcfg: &'a ModuleCfg,
    cg: &'a CallGraph,
    jump_fns: &'a ForwardJumpFns,
    entry_globals: Lattice,
}

impl Seed<'_> {
    /// Re-seeds SCC `si` from its external callers' final rows: each
    /// member's row is its initial value met with every in-edge from a
    /// caller outside the SCC that was popped, evaluated at that caller's
    /// row, and the member is dirty when it is the entry, a call runs it
    /// (a callee without entry slots) or its row left ⊤. Returns whether
    /// any member is dirty.
    fn reseed(
        &self,
        si: usize,
        vals: &mut ValSets,
        dirty: &mut [bool],
        buf: &mut Vec<Lattice>,
    ) -> bool {
        let (cg, entry) = (self.cg, self.mcfg.module.entry);
        let mut any = false;
        for &m in &cg.sccs[si] {
            buf.clear();
            buf.resize(vals.of(m).len(), Lattice::Top);
            init_row(self.mcfg, m, self.entry_globals, buf);
            vals.popped.set(m.index(), false);
            let mut called = false;
            for edge in cg.calls_to(m) {
                let c = edge.caller;
                if cg.scc_of[c.index()] == si || !vals.popped[c.index()] {
                    continue;
                }
                let Some(fns) = self.jump_fns.reached(c, edge.site) else {
                    continue;
                };
                called |= fns.is_empty();
                let caller_row = vals.of(c);
                for (slot, jf) in fns.iter().enumerate() {
                    let incoming = jf.eval(|v| {
                        caller_row
                            .get(v as usize)
                            .copied()
                            .unwrap_or(Lattice::Bottom)
                    });
                    buf[slot].meet_in(incoming);
                }
            }
            let d = m == entry || called || buf.iter().any(|&l| l != Lattice::Top);
            dirty[m.index()] = d;
            any |= d;
            vals.row_mut(m.index()).copy_from_slice(buf);
        }
        any
    }
}

/// The SCCs below SCC `si` that a re-run of it may have moved: the callee
/// SCCs of every member whose row, popped flag or forward jump functions
/// differ from `live`'s (early cutoff).
fn moved_callees<'a>(
    cg: &'a CallGraph,
    si: usize,
    vals: &'a ValSets,
    jump_fns: &'a ForwardJumpFns,
    live: LiveSolve<'a>,
) -> impl Iterator<Item = usize> + 'a {
    cg.sccs[si]
        .iter()
        .filter(move |&&m| {
            let p = m.index();
            vals.of(m) != live.vals.of(m)
                || vals.popped[p] != live.vals.popped[p]
                || !same_fns(&jump_fns.sites[p], &live.jump_fns.sites[p])
        })
        .flat_map(move |&m| cg.calls_from(m).iter().map(|e| cg.scc_of[e.callee.index()]))
        .filter(move |&cs| cs != si)
}

/// The reusing schedule (see the module docs): starting at the SCCs of
/// `live.moved`, it visits only the SCCs the cutoff reaches, top-down
/// (descending index: a caller's SCC is finished before its callees'),
/// so it never visits an SCC whose inputs did not move. Every other SCC
/// keeps its live rows and work. A re-run unit charges `gov`; the units
/// it did not visit charge the live iterations less those of the visited
/// SCCs, replayed as one batch at the end. `None` — the caller restores
/// the governor and runs the full solve — when a re-run unit panics,
/// trips or sees the deadline, or the batch does not replay cleanly. The
/// caller stamps the wall time.
fn solve_cone(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    jump_fns: &ForwardJumpFns,
    entry_globals: Lattice,
    config: &Config,
    gov: &mut Governor,
    live: LiveSolve<'_>,
) -> Option<Solved> {
    let seed = Seed {
        mcfg,
        cg,
        jump_fns,
        entry_globals,
    };
    let mut vals = live.vals.clone();
    let mut work = live.work.clone();
    let mut unvisited = vals.iterations as u64;
    let mut todo: BinaryHeap<usize> = live.moved.iter().map(|&p| cg.scc_of[p]).collect();
    // A re-seed sets every member's flag, so marks on callees that are not
    // visited are moot.
    let mut dirty = vec![false; mcfg.module.procs.len()];
    let mut scratch = Scratch::default();
    let (mut last, mut units, mut rerun_members) = (None, 0, Vec::new());
    while let Some(si) = todo.pop() {
        let members: &[ProcId] = &cg.sccs[si];
        if last.replace(si) == Some(si) || !members.first().is_some_and(|p| cg.reachable[p.index()])
        {
            continue;
        }
        // Re-seed: every external caller is at a higher index and has its
        // final row.
        let (meets, iterations) = live.work[si];
        unvisited -= iterations as u64;
        vals.meets -= meets;
        vals.iterations -= iterations;
        work.set(si, (0, 0));
        rerun_members.extend(members.iter().map(|m| m.index()));
        if seed.reseed(si, &mut vals, &mut dirty, &mut scratch.row) {
            units += 1;
            let unit = guarded(config, si, || {
                eval_unit(
                    cg,
                    jump_fns,
                    config,
                    members,
                    si,
                    &mut vals,
                    &mut dirty,
                    gov,
                    &mut scratch,
                )
            });
            let u = unit.ok().filter(|u| !u.tripped && !u.deadline)?;
            work.set(si, (u.meets, u.iterations));
            vals.meets += u.meets;
            vals.iterations += u.iterations;
        }
        todo.extend(moved_callees(cg, si, &vals, jump_fns, live));
    }
    let solver = Stage::ALL.iter().position(|&s| s == Stage::Solver)?;
    let mut batch = [0; Stage::ALL.len()];
    batch[solver] = unvisited;
    if !gov.replay(&batch) {
        return None;
    }
    rerun_members.sort_unstable();
    Some(Solved {
        vals,
        work,
        time: PhaseTime::sequential(Duration::ZERO, units),
        rerun: Some(rerun_members),
        quarantined: Vec::new(),
    })
}

/// The classic §4.1 FIFO worklist propagation, retained as a reference
/// implementation: a differential oracle for the wavefront solver (both
/// compute the same fixpoint `vals`, proven by test) and the baseline the
/// `bench_solver` binary measures the wavefront against. The worklist
/// re-evaluates a procedure every time a meet lowers one of its slots;
/// the wavefront's dependency-levelled schedule evaluates each activated
/// SCC once, with the meets from all its callers already applied — that
/// difference (fewer re-evaluations) is where the solver speedup comes
/// from.
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
    let mut vals = ValSets::initial(mcfg, layout, entry_globals);
    let entry = mcfg.module.entry;
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
        vals.popped.set(p.index(), true);
        vals.iterations += 1;
        for edge in cg.calls_from(p) {
            let Some(site_fns) = jump_fns.reached(p, edge.site) else {
                continue;
            };
            let first_call = site_fns.is_empty() && !vals.popped[edge.callee.index()];
            let caller_vals = vals.of(p).to_vec();
            vals.meets += site_fns.len();
            let callee_vals = vals.row_mut(edge.callee.index());
            let mut changed = false;
            for (slot, jf) in site_fns.iter().enumerate() {
                let incoming = jf.eval(|v| {
                    caller_vals
                        .get(v as usize)
                        .copied()
                        .unwrap_or(Lattice::Bottom)
                });
                changed |= callee_vals[slot].meet_in(incoming);
            }
            if (changed || first_call) && !queued[edge.callee.index()] {
                queued[edge.callee.index()] = true;
                work.push_back(edge.callee);
            }
        }
    }

    vals
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
        let seq = Analysis::run(&m, &config.with_jobs(1));
        for jobs in [2, 4, 8] {
            let a = Analysis::run(&m, &config.with_jobs(jobs));
            assert_eq!(
                a.vals, seq.vals,
                "jobs={jobs} diverged (vals/meets/iterations)"
            );
            assert_eq!(
                a.quarantined, seq.quarantined,
                "jobs={jobs} quarantine flags diverged"
            );
            assert_eq!(a.health, seq.health, "jobs={jobs} health diverged");
        }
    }

    /// The reusing schedule against a full solve of the same jump
    /// functions: `live` is a full solve of `a`, and `b`'s table shares
    /// every caller's functions with `a`'s except the ones `b` changed.
    /// Under every iteration cap (so trips land in reused and re-run
    /// units alike) the rows, counters and health must be the full
    /// solve's.
    fn check_reuse(a: &str, b: &str, config: Config) {
        let lower = |src: &str| lower_module(&parse_and_resolve(src).unwrap());
        let (ma, mb) = (lower(a), lower(b));
        let (aa, ab) = (Analysis::run(&ma, &config), Analysis::run(&mb, &config));
        assert_eq!(aa.cg.edges, ab.cg.edges, "the edit keeps the call graph");
        let mut jump_fns = aa.jump_fns.clone();
        for (p, sites) in ab.jump_fns.sites.iter().enumerate() {
            if *sites != aa.jump_fns.sites[p] {
                jump_fns.sites[p] = sites.clone();
            }
        }
        let layout = SlotLayout::new(&ma.module);
        let run = |mcfg: &ModuleCfg, fns: &ForwardJumpFns, cap: u64, live| {
            let config = Config::builder()
                .max_solver_iterations(cap)
                .build()
                .unwrap();
            let mut gov = Governor::new(&config);
            let solved = solve_on(
                mcfg,
                &aa.cg,
                &layout,
                fns,
                Lattice::Bottom,
                &config,
                &mut gov,
                live,
            );
            (solved, gov.into_health())
        };
        let (live, _) = run(&ma, &aa.jump_fns, u64::MAX, None);
        let moved: Vec<usize> = (0..jump_fns.sites.len())
            .filter(|&p| !jump_fns.sites[p].ptr_eq(&aa.jump_fns.sites[p]))
            .collect();
        let live = LiveSolve {
            vals: &live.vals,
            jump_fns: &aa.jump_fns,
            work: &live.work,
            moved: &moved,
        };
        let (full, _) = run(&mb, &jump_fns, u64::MAX, None);
        let most = full.vals.iterations as u64 + 1;
        for cap in (1..=most).chain([u64::MAX]) {
            let (want, want_health) = run(&mb, &jump_fns, cap, None);
            let (got, got_health) = run(&mb, &jump_fns, cap, Some(live));
            assert_eq!(got.vals, want.vals, "cap {cap}: {b}");
            assert_eq!(got_health, want_health, "cap {cap}: {b}");
            assert_eq!(got.work, want.work, "cap {cap}: {b}");
        }
    }

    #[test]
    fn reusing_solve_matches_a_full_solve() {
        // A caller with no entry slots still runs: its constant reaches
        // `g` and `h`, and the edit moves both.
        check_reuse(
            "proc main() { call f(); } proc f() { call g(5); } \
             proc g(a) { call h(a); } proc h(b) { print b; }",
            "proc main() { call f(); } proc f() { call g(6); } \
             proc g(a) { call h(a); } proc h(b) { print b; }",
            Config::default(),
        );
        // Reviving a gated-away call pops `k` and so `f`, whose row stays
        // empty: only its popped flag tells the cutoff that `h` must
        // re-run.
        let revived = |x: i64| {
            format!(
                "proc main() {{ x = {x}; if (x) {{ call k(2); }} }} \
                 proc k(y) {{ call f(); }} proc f() {{ call h(5); }} \
                 proc h(a) {{ print a; }}"
            )
        };
        let gated = Config::builder().gated(true).build().unwrap();
        check_reuse(&revived(0), &revived(1), gated);
        // An actual that moves `VAL` through a pass-through chain and a
        // recursive SCC, and one that moves nothing below the edit.
        let prog = |x: i64, y: i64| {
            format!(
                "global g; \
                 proc main() {{ g = 4; call a({x}); call b(7); }} \
                 proc a(p) {{ call c(p); call r(p, {y}); }} \
                 proc b(q) {{ call c(q); }} \
                 proc c(s) {{ print s + g; }} \
                 proc r(n, k) {{ if (n > 0) {{ call r(n - 1, k); }} call c(k); }}"
            )
        };
        for config in [Config::default(), Config::polynomial()] {
            check_reuse(&prog(7, 1), &prog(8, 1), config);
            check_reuse(&prog(7, 1), &prog(7, 2), config);
            check_reuse(&prog(7, 1), &prog(7, 1), config);
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
            // Callees without entry slots, alone and in a recursive SCC.
            "proc main() { call f(); call g(5); } \
             proc f() { call g(7); call r(); } \
             proc r() { call s(); call g(9); } proc s() { call r(); } \
             proc g(a) { print a; }",
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
                assert!(
                    a.vals.same_rows(&reference),
                    "wavefront and worklist fixpoints diverged on {src}"
                );
            }
        }
    }
}
