//! Jump functions: the paper's central abstraction.
//!
//! A *forward jump function* `J_s^y` gives the value of actual parameter
//! `y` at call site `s` as a function of the calling procedure's entry
//! values (formals and globals). Its *support* is the set of entry slots
//! it reads. The four implementations of §3.1 differ in which shapes they
//! admit: a literal, any intraprocedurally known constant, additionally a
//! pass-through formal, or any polynomial.
//!
//! [`build_forward_jump_fns`] constructs, for every reachable call site,
//! one jump function per **callee entry slot** — the callee's formals
//! (from the actual arguments) followed by every scalar global (whose
//! value is transmitted implicitly at the call).

use crate::config::JumpFnKind;
use crate::config::{AnalysisLimits, Config, Stage};
use crate::health::Governor;
use crate::par::{PhaseTime, Pool};
use crate::pipeline::fold_units;
use crate::serve::cache::{CacheTxn, Charges, Reuse};
use ipcp_analysis::CallGraph;
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ir::Table;
use ipcp_ssa::poly::{Poly, PolyVar};
use ipcp_ssa::ssa::StmtInfo;
use ipcp_ssa::symbolic::SymVal;
use ipcp_ssa::Lattice;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One jump function — also the representation of return jump functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JumpFn {
    /// The transmitted value is always this constant.
    Const(i64),
    /// The transmitted value is exactly the caller's entry slot `v`
    /// (§3.1.3: a formal "passed unmodified through the procedure body").
    PassThrough(PolyVar),
    /// The transmitted value is a non-trivial polynomial of the caller's
    /// entry slots (§3.1.4).
    Poly(Poly),
    /// No information: evaluates to ⊥.
    Bottom,
}

impl JumpFn {
    /// Builds the jump function of the given kind from the symbolic value
    /// of the actual at the call site. Stronger kinds admit more shapes;
    /// anything not admitted degrades to ⊥.
    ///
    /// The `Literal` kind never calls this — it is purely syntactic.
    pub fn from_sym(sym: &SymVal, kind: JumpFnKind) -> JumpFn {
        let Some(p) = sym.as_poly() else {
            return JumpFn::Bottom;
        };
        if let Some(c) = p.as_const() {
            return JumpFn::Const(c);
        }
        match kind {
            JumpFnKind::Literal | JumpFnKind::IntraproceduralConstant => JumpFn::Bottom,
            JumpFnKind::PassThrough => match p.as_var() {
                Some(v) => JumpFn::PassThrough(v),
                None => JumpFn::Bottom,
            },
            JumpFnKind::Polynomial => match p.as_var() {
                Some(v) => JumpFn::PassThrough(v),
                None => JumpFn::Poly(p.clone()),
            },
        }
    }

    /// The support set: the caller entry slots whose values this jump
    /// function reads (§2: "the exact set of p's formal parameters whose
    /// values on entry are used").
    pub fn support(&self) -> Vec<PolyVar> {
        match self {
            JumpFn::Const(_) | JumpFn::Bottom => Vec::new(),
            JumpFn::PassThrough(v) => vec![*v],
            JumpFn::Poly(p) => p.support(),
        }
    }

    /// Evaluates the jump function over the constant lattice: `env` maps a
    /// caller entry slot to its current `VAL` approximation.
    ///
    /// ⊤ inputs stay optimistic (⊤ out), any ⊥ input forces ⊥, and a fully
    /// constant support evaluates the polynomial (arithmetic overflow
    /// degrades to ⊥).
    pub fn eval(&self, env: impl Fn(PolyVar) -> Lattice) -> Lattice {
        match self {
            JumpFn::Bottom => Lattice::Bottom,
            JumpFn::Const(c) => Lattice::Const(*c),
            JumpFn::PassThrough(v) => env(*v),
            JumpFn::Poly(p) => {
                let mut any_top = false;
                for v in p.support() {
                    match env(v) {
                        Lattice::Bottom => return Lattice::Bottom,
                        Lattice::Top => any_top = true,
                        Lattice::Const(_) => {}
                    }
                }
                if any_top {
                    return Lattice::Top;
                }
                p.eval_partial(|v| env(v).as_const())
                    .map_or(Lattice::Bottom, Lattice::Const)
            }
        }
    }

    /// Clamps this jump function to the configured shape budgets,
    /// degrading down the §3.1 ladder: an over-budget polynomial weakens
    /// to a pass-through when it is a bare entry slot (and one slot of
    /// support is affordable), otherwise to ⊥ — which is always sound,
    /// since a weaker jump function merely transmits less information.
    ///
    /// Returns the (possibly weakened) function and whether it degraded.
    pub fn clamp(self, limits: &AnalysisLimits) -> (JumpFn, bool) {
        match self {
            JumpFn::Poly(p) => {
                if p.fits_within(
                    limits.max_poly_terms,
                    limits.max_poly_degree,
                    limits.max_support,
                ) {
                    (JumpFn::Poly(p), false)
                } else if let Some(v) = p.as_var() {
                    if limits.max_support >= 1 {
                        (JumpFn::PassThrough(v), true)
                    } else {
                        (JumpFn::Bottom, true)
                    }
                } else {
                    (JumpFn::Bottom, true)
                }
            }
            JumpFn::PassThrough(_) if limits.max_support == 0 => (JumpFn::Bottom, true),
            other => (other, false),
        }
    }

    /// Whether the function is the constant `⊥`.
    pub fn is_bottom(&self) -> bool {
        matches!(self, JumpFn::Bottom)
    }

    /// The constant, if this is a constant jump function.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            JumpFn::Const(c) => Some(*c),
            _ => None,
        }
    }
}

impl fmt::Display for JumpFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JumpFn::Const(c) => write!(f, "{c}"),
            JumpFn::PassThrough(v) => write!(f, "x{v}"),
            JumpFn::Poly(p) => write!(f, "{p}"),
            JumpFn::Bottom => write!(f, "⊥"),
        }
    }
}

/// The forward jump functions of one call site: one per callee entry slot
/// (formals first, then scalar globals).
pub type SiteJumpFns = Vec<JumpFn>;

/// One caller's forward jump functions, indexed by call site: `None` for
/// a site the caller never reaches, which binds nothing. A reached site
/// of a callee without entry slots holds `Some` of no functions: it
/// transmits no value, but the call still runs the callee. Shared, so an
/// analysis that reuses a caller's functions from another (serve's
/// live-analysis reuse) copies none.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallerJumpFns(Arc<[Option<SiteJumpFns>]>);

impl CallerJumpFns {
    /// Whether both hold the very same shared functions.
    pub(crate) fn ptr_eq(&self, other: &CallerJumpFns) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for CallerJumpFns {
    type Target = [Option<SiteJumpFns>];

    fn deref(&self) -> &[Option<SiteJumpFns>] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a CallerJumpFns {
    type Item = &'a Option<SiteJumpFns>;
    type IntoIter = std::slice::Iter<'a, Option<SiteJumpFns>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// All forward jump functions of a program, indexed `[proc][site]`.
#[derive(Clone, Debug, Default)]
pub struct ForwardJumpFns {
    /// `sites[p][s]` — jump functions of call site `s` in procedure `p`
    /// (`None` for unreachable sites).
    pub sites: Table<CallerJumpFns>,
}

impl ForwardJumpFns {
    /// The jump functions at call site `site` of `proc` (none for an
    /// unreachable site).
    pub fn at(&self, proc: ProcId, site: ipcp_ir::cfg::CallSiteId) -> &[JumpFn] {
        self.reached(proc, site).map_or(&[], Vec::as_slice)
    }

    /// The jump functions at call site `site` of `proc`, or `None` when
    /// `proc` never reaches the site.
    pub fn reached(&self, proc: ProcId, site: ipcp_ir::cfg::CallSiteId) -> Option<&SiteJumpFns> {
        self.sites[proc.index()][site.index()].as_ref()
    }

    /// Total number of constructed (non-⊥) jump functions, for reporting.
    pub fn n_informative(&self) -> usize {
        self.sites
            .iter()
            .flatten()
            .flatten()
            .flatten()
            .filter(|j| !j.is_bottom())
            .count()
    }
}

/// Constructs the forward jump functions for every reachable call site.
///
/// `symbolics[p]` must hold the SSA form and polynomial evaluation of
/// procedure `p` under the configuration's call-effect assumptions (the
/// pipeline builds these once and shares them).
///
/// Every constructed function charges one construction step to the
/// governor's [`Stage::Jump`] budget and is clamped to the configured
/// polynomial shape limits; exhaustion degrades the function to ⊥ and
/// records a [degradation event](crate::health::DegradationEvent).
///
/// Each call edge's construction runs under quarantine: a panic degrades
/// only the *caller* — every one of its call sites transmits ⊥ for every
/// callee entry slot, which the solver treats exactly like a call whose
/// arguments are unknown. A quarantined-but-reachable caller must **not**
/// be skipped: an absent site entry would make the solver ignore the edge
/// entirely (leaving the callee optimistically at ⊤), so quarantine
/// materializes explicit all-⊥ functions of the correct length instead.
///
/// Each caller's edges are one unit of the pipeline's fold
/// ([`fold_units`]): run ahead against a governor shard on a pool with
/// workers and absorbed or replayed in ascending caller order, or run on
/// the master and committed at once on a pool without. Results,
/// telemetry, and quarantine flags are the same at every pool size.
#[allow(clippy::too_many_arguments)]
pub fn build_forward_jump_fns(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    config: &Config,
    symbolics: &Table<Option<Arc<ProcSymbolic>>>,
    quarantined: &mut [bool],
    gov: &mut Governor,
    pool: Pool,
) -> (ForwardJumpFns, PhaseTime) {
    build_forward_jump_fns_on(
        mcfg,
        cg,
        layout,
        config,
        symbolics,
        quarantined,
        gov,
        pool,
        &mut CacheTxn::new(),
    )
}

/// [`build_forward_jump_fns`], recording each caller unit's charges in
/// `txn`'s memo log.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_forward_jump_fns_on(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    config: &Config,
    symbolics: &Table<Option<Arc<ProcSymbolic>>>,
    quarantined: &mut [bool],
    gov: &mut Governor,
    pool: Pool,
    txn: &mut CacheTxn,
) -> (ForwardJumpFns, PhaseTime) {
    // A unit reads only its own caller's flag, which only its own commit
    // writes.
    let before = quarantined.to_vec();
    let n_procs = mcfg.module.procs.len();
    // Every caller without call sites shares one empty entry.
    let none: Arc<[Option<SiteJumpFns>]> = Arc::from(Vec::new());
    let mut out = Vec::with_capacity(n_procs);
    let time = fold_units(
        pool,
        gov,
        n_procs,
        |caller, g| {
            caller_unit(
                mcfg,
                cg,
                layout,
                config,
                symbolics,
                caller,
                before[caller],
                &none,
                g,
            )
        },
        |caller, (sites, quar, charges), _| {
            out.push(sites);
            quarantined[caller] = quar;
            txn.log_fwd_charges(caller, charges);
        },
    );
    (ForwardJumpFns { sites: out.into() }, time)
}

/// One caller's forward-jump unit: its sites' functions (sites the caller
/// never reaches stay `None`; a caller without sites shares `none`),
/// whether it is now quarantined, and its charges when it ran clean.
#[allow(clippy::too_many_arguments)]
fn caller_unit(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    config: &Config,
    symbolics: &Table<Option<Arc<ProcSymbolic>>>,
    caller: usize,
    already_quarantined: bool,
    none: &Arc<[Option<SiteJumpFns>]>,
    g: &mut Governor,
) -> (CallerJumpFns, bool, Option<Charges>) {
    let (c0, e0) = (g.counters(), g.health.events.len());
    let (mut fns, quar) = build_caller_jump_fns(
        mcfg,
        cg,
        layout,
        config,
        symbolics,
        caller,
        already_quarantined,
        g,
    );
    // Edges come in block order, not site order; sites the caller never
    // reaches stay `None`.
    let n_sites = mcfg.cfgs[caller].n_call_sites;
    fns.sort_unstable_by_key(|&(site, _)| site);
    let mut fns = fns.into_iter().peekable();
    let sites = match n_sites {
        0 => Arc::clone(none),
        _ => (0..n_sites)
            .map(|s| fns.next_if(|(site, _)| *site == s).map(|(_, f)| f))
            .collect(),
    };
    let clean = !quar && g.health.events.len() == e0;
    let charges = clean.then(|| {
        let c1 = g.counters();
        std::array::from_fn(|i| c1[i] - c0[i])
    });
    (CallerJumpFns(sites), quar, charges)
}

/// The forward-jump stage of a run that reuses the live analysis:
/// starting from the live functions, only `callers` (ascending) are
/// visited, charging `gov` and logging their charges in `txn`. A visited
/// caller shares its live functions when its form is the live one (the
/// same `Arc`), no earlier stage quarantined it, its live unit ran clean,
/// and replaying that unit's charges passes [`Governor::can_absorb`];
/// any other runs, under the quarantine flag `quarantined` holds for it,
/// and takes the flag its unit leaves. The callers it does not visit
/// charge their recorded charges as one batch
/// ([`Unvisited`](crate::serve::cache::Unvisited)). Returns
/// the functions and the visited callers whose functions moved from the
/// live ones; `None` when that batch does not replay.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_forward_jump_fns_cone(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    config: &Config,
    symbolics: &Table<Option<Arc<ProcSymbolic>>>,
    quarantined: &mut Table<bool>,
    gov: &mut Governor,
    reuse: &Reuse<'_>,
    txn: &mut CacheTxn,
    callers: impl IntoIterator<Item = usize>,
) -> Option<(ForwardJumpFns, Vec<usize>)> {
    let none: Arc<[Option<SiteJumpFns>]> = Arc::from(Vec::new());
    let live = &reuse.live.jump_fns;
    let mut out = live.clone();
    let mut moved = Vec::new();
    let [_, mut unvisited] = reuse.unvisited();
    for caller in callers {
        if !unvisited.visit(gov, caller, reuse.fwd_charges(caller)) {
            return None;
        }
        let before = quarantined[caller];
        let same_form = match (&symbolics[caller], &reuse.live.symbolics[caller]) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        let charges = reuse.fwd_charges(caller).filter(|_| same_form && !before);
        if let Some(&charges) = charges {
            if gov.replay(&charges) {
                txn.log_fwd_charges(caller, Some(charges));
                continue;
            }
        }
        let (sites, quar, charges) = caller_unit(
            mcfg, cg, layout, config, symbolics, caller, before, &none, gov,
        );
        if quar != before {
            quarantined.set(caller, quar);
        }
        if !(sites.ptr_eq(&live.sites[caller]) || sites == live.sites[caller]) {
            moved.push(caller);
        }
        out.sites.set(caller, sites);
        txn.log_fwd_charges(caller, charges);
    }
    unvisited.finish(gov).then_some((out, moved))
}

/// Builds the jump functions for every call site of one caller — the unit
/// of [`build_forward_jump_fns`]. Returns the per-site
/// functions plus the caller's (possibly newly set) quarantine flag.
#[allow(clippy::too_many_arguments)]
fn build_caller_jump_fns(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    config: &Config,
    symbolics: &Table<Option<Arc<ProcSymbolic>>>,
    caller: usize,
    already_quarantined: bool,
    gov: &mut Governor,
) -> (Vec<(usize, SiteJumpFns)>, bool) {
    let n_globals = layout.scalar_globals.len();
    // Loop-invariant: every edge below has `edge.caller == caller`, so
    // borrow the name once instead of cloning it per edge.
    let caller_name: &str = &mcfg.module.proc(ProcId::from(caller)).name;
    let mut quar = already_quarantined;
    let mut out: Vec<(usize, SiteJumpFns)> = Vec::new();
    for edge in cg.calls_from(ProcId::from(caller)) {
        let callee = mcfg.module.proc(edge.callee);
        let all_bottom = || vec![JumpFn::Bottom; callee.arity() + n_globals];
        if quar {
            // Already contained by an earlier phase (or an earlier edge):
            // the site still binds the callee, just with no information.
            out.push((edge.site.index(), all_bottom()));
            continue;
        }
        let Some(ps) = symbolics[caller].as_ref() else {
            continue; // caller unreachable: no jump functions needed
        };
        if let Some(gate) = &ps.gate {
            if !gate.block_exec[edge.block.index()] {
                continue; // gated: the call site is provably dead
            }
        }
        let Some(StmtInfo::Call {
            arg_vals,
            global_pre,
            ..
        }) = ps.ssa.call_info(edge.site)
        else {
            continue;
        };
        let unit = crate::quarantine::run_unit(config, Stage::Jump, caller, || {
            build_site_jump_fns(
                mcfg,
                config,
                ps,
                callee,
                caller_name,
                edge,
                arg_vals,
                global_pre,
                n_globals,
                gov,
            )
        });
        let fns = match unit {
            Ok(fns) => fns,
            Err(e) => {
                quar = true;
                gov.record_quarantine(
                    Stage::Jump,
                    format!(
                        "{caller_name}: panic contained ({}); \
                         jump functions at every call site forced to ⊥",
                        e.message
                    ),
                );
                all_bottom()
            }
        };
        out.push((edge.site.index(), fns));
    }
    (out, quar)
}

/// Constructs the jump functions of one call site — the unit of work
/// [`build_forward_jump_fns`] runs under quarantine.
#[allow(clippy::too_many_arguments)]
fn build_site_jump_fns(
    mcfg: &ModuleCfg,
    config: &Config,
    ps: &ProcSymbolic,
    callee: &ipcp_ir::program::Proc,
    caller_name: &str,
    edge: &ipcp_analysis::CallEdge,
    arg_vals: &[Option<ipcp_ssa::ValueId>],
    global_pre: &[ipcp_ssa::ValueId],
    n_globals: usize,
    gov: &mut Governor,
) -> SiteJumpFns {
    let mut fns: SiteJumpFns = Vec::with_capacity(callee.arity() + n_globals);

    // Formal slots, from the actual arguments.
    let args = mcfg
        .call_site(edge.caller, edge.site)
        .map_or(&[][..], |(_, _, args)| args);
    let syntactic = |i: usize| args.get(i).and_then(ipcp_ir::program::Arg::literal);
    for (i, arg) in arg_vals.iter().enumerate() {
        if i >= callee.arity() {
            break;
        }
        let jf = if callee.var(callee.formals[i]).is_array {
            JumpFn::Bottom
        } else if config.jump_fn == JumpFnKind::Literal {
            match syntactic(i) {
                Some(c) => JumpFn::Const(c),
                None => JumpFn::Bottom,
            }
        } else {
            match arg {
                Some(v) => JumpFn::from_sym(ps.sym.value(*v), config.jump_fn),
                None => JumpFn::Bottom,
            }
        };
        fns.push(govern(jf, gov, caller_name, edge.site.index(), i));
    }
    // A resolution-checked program always supplies every formal.
    while fns.len() < callee.arity() {
        fns.push(JumpFn::Bottom);
    }

    // Global slots. The literal jump function misses them entirely
    // ("constant globals … passed implicitly at the call site").
    for (j, &pre) in global_pre.iter().enumerate().take(n_globals) {
        let jf = if config.jump_fn == JumpFnKind::Literal {
            JumpFn::Bottom
        } else {
            JumpFn::from_sym(ps.sym.value(pre), config.jump_fn)
        };
        let slot = callee.arity() + j;
        fns.push(govern(jf, gov, caller_name, edge.site.index(), slot));
    }
    fns
}

/// Charges one construction step and clamps the function to the shape
/// budgets, degrading to ⊥ (and recording why) when either trips.
fn govern(jf: JumpFn, gov: &mut Governor, caller: &str, site: usize, slot: usize) -> JumpFn {
    if !gov.charge(Stage::Jump) {
        if !jf.is_bottom() {
            gov.record(
                Stage::Jump,
                format!(
                    "{caller}: site {site} slot {slot}: construction budget exhausted; forced to ⊥"
                ),
            );
        }
        return JumpFn::Bottom;
    }
    let limits = *gov.limits();
    let (clamped, degraded) = jf.clamp(&limits);
    if degraded {
        gov.record(
            Stage::Jump,
            format!("{caller}: site {site} slot {slot}: polynomial exceeds shape limits; degraded to {clamped}"),
        );
    }
    clamped
}

/// A procedure's SSA form together with its polynomial evaluation —
/// produced once per procedure by the pipeline and shared by both
/// jump-function stages and the substitution metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcSymbolic {
    /// SSA form under the configured call-effect assumptions.
    pub ssa: ipcp_ssa::SsaProc,
    /// Polynomial symbolic evaluation of `ssa`.
    pub sym: ipcp_ssa::Symbolic,
    /// The gating SCCP fixpoint, when `Config::gated_jump_fns` is on:
    /// call sites in non-executable blocks produce no jump functions, as
    /// if dead code had been eliminated ahead of generation.
    pub gate: Option<ipcp_ssa::SccpResult>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sym_respects_kind_hierarchy() {
        let konst = SymVal::constant(7);
        let passthru = SymVal::Poly(Poly::var(2));
        let poly = SymVal::Poly(Poly::var(0).add(&Poly::constant(1)).unwrap());
        use JumpFnKind::*;
        for kind in [IntraproceduralConstant, PassThrough, Polynomial] {
            assert_eq!(JumpFn::from_sym(&konst, kind), JumpFn::Const(7));
        }
        assert_eq!(
            JumpFn::from_sym(&passthru, IntraproceduralConstant),
            JumpFn::Bottom
        );
        assert_eq!(
            JumpFn::from_sym(&passthru, PassThrough),
            JumpFn::PassThrough(2)
        );
        assert_eq!(
            JumpFn::from_sym(&passthru, Polynomial),
            JumpFn::PassThrough(2)
        );
        assert_eq!(JumpFn::from_sym(&poly, PassThrough), JumpFn::Bottom);
        assert!(matches!(
            JumpFn::from_sym(&poly, Polynomial),
            JumpFn::Poly(_)
        ));
        assert_eq!(
            JumpFn::from_sym(&SymVal::Bottom, Polynomial),
            JumpFn::Bottom
        );
    }

    #[test]
    fn support_sets() {
        assert!(JumpFn::Const(3).support().is_empty());
        assert!(JumpFn::Bottom.support().is_empty());
        assert_eq!(JumpFn::PassThrough(4).support(), vec![4]);
        let p = Poly::var(1).mul(&Poly::var(3)).unwrap();
        assert_eq!(JumpFn::Poly(p).support(), vec![1, 3]);
    }

    #[test]
    fn eval_over_lattice() {
        use Lattice::*;
        let jf = JumpFn::PassThrough(0);
        assert_eq!(jf.eval(|_| Const(5)), Const(5));
        assert_eq!(jf.eval(|_| Top), Top);
        assert_eq!(jf.eval(|_| Bottom), Bottom);

        // 2x + y with x=3 const, y varying.
        let p = Poly::var(0)
            .mul(&Poly::constant(2))
            .unwrap()
            .add(&Poly::var(1))
            .unwrap();
        let jf = JumpFn::Poly(p);
        let env = |consts: [Lattice; 2]| move |v: PolyVar| consts[v as usize];
        assert_eq!(jf.eval(env([Const(3), Const(4)])), Const(10));
        assert_eq!(jf.eval(env([Const(3), Top])), Top);
        assert_eq!(jf.eval(env([Const(3), Bottom])), Bottom);
        assert_eq!(jf.eval(env([Top, Bottom])), Bottom); // ⊥ dominates ⊤
        assert_eq!(JumpFn::Const(9).eval(|_| Bottom), Const(9));
        assert_eq!(JumpFn::Bottom.eval(|_| Const(1)), Bottom);
    }

    #[test]
    fn eval_overflow_degrades_to_bottom() {
        let p = Poly::var(0).mul(&Poly::constant(i64::MAX)).unwrap();
        let jf = JumpFn::Poly(p);
        assert_eq!(jf.eval(|_| Lattice::Const(3)), Lattice::Bottom);
    }

    #[test]
    fn clamp_degrades_down_the_ladder() {
        let tiny = AnalysisLimits::tiny(); // 1 term, degree 1, support 1
                                           // x*y: one term but degree 2, and not a bare slot → ⊥.
        let xy = Poly::var(0).mul(&Poly::var(1)).unwrap();
        assert_eq!(JumpFn::Poly(xy).clamp(&tiny), (JumpFn::Bottom, true));
        // A bare slot fits even the tiny budget.
        assert_eq!(
            JumpFn::Poly(Poly::var(2)).clamp(&tiny),
            (JumpFn::Poly(Poly::var(2)), false)
        );
        // With a zero degree budget a bare slot weakens to pass-through…
        let degree_zero = AnalysisLimits {
            max_poly_degree: 0,
            ..AnalysisLimits::default()
        };
        assert_eq!(
            JumpFn::Poly(Poly::var(2)).clamp(&degree_zero),
            (JumpFn::PassThrough(2), true)
        );
        // …and with no support budget at all, to ⊥.
        let no_support = AnalysisLimits {
            max_support: 0,
            ..AnalysisLimits::default()
        };
        assert_eq!(
            JumpFn::PassThrough(1).clamp(&no_support),
            (JumpFn::Bottom, true)
        );
        // Constants and ⊥ survive any budget unchanged.
        assert_eq!(
            JumpFn::Const(9).clamp(&no_support),
            (JumpFn::Const(9), false)
        );
        assert_eq!(JumpFn::Bottom.clamp(&tiny), (JumpFn::Bottom, false));
    }

    #[test]
    fn display_forms() {
        assert_eq!(JumpFn::Const(-2).to_string(), "-2");
        assert_eq!(JumpFn::PassThrough(1).to_string(), "x1");
        assert_eq!(JumpFn::Bottom.to_string(), "⊥");
    }
}
