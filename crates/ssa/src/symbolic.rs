//! Polynomial symbolic evaluation over the SSA value graph.
//!
//! Expresses every SSA value, where possible, as a [`Poly`] over the
//! procedure's *entry slots* (formals, then scalar globals — see
//! [`SlotLayout`]). This is the analysis the 1993 implementation ran "on
//! top of an SSA-based value number graph": it answers both
//!
//! * `gcp(y, s)` — is actual `y` a known constant at call site `s`? — and
//! * the polynomial/pass-through jump-function shapes — is `y` a
//!   polynomial (or exactly one formal) in the caller's entry values?
//!
//! The value of a variable after a call comes from the [`CallDefEval`]
//! oracle, which the `ipcp` crate implements with return jump functions.
//!
//! [`SlotLayout`]: ipcp_ir::program::SlotLayout

use crate::poly::Poly;
use crate::ssa::{SsaProc, StmtInfo, ValueId, ValueKind};
use ipcp_ir::cfg::{Cfg, ModuleCfg};
use ipcp_ir::interp::eval_binop;
use ipcp_ir::lang::ast::{BinOp, UnOp};
use ipcp_ir::program::{GlobalId, Proc, ProcId, SlotLayout, VarId, VarKind};
use std::fmt;

/// A symbolic value: unreached, a polynomial over entry slots, or unknown.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum SymVal {
    /// Not yet reached by the optimistic fixpoint.
    #[default]
    Top,
    /// Provably equal to this polynomial of the entry-slot values on every
    /// execution reaching the definition.
    Poly(Poly),
    /// Not representable.
    Bottom,
}

impl SymVal {
    /// A constant symbolic value.
    pub fn constant(c: i64) -> SymVal {
        SymVal::Poly(Poly::constant(c))
    }

    /// The meet: ⊤ is identity, ⊥ absorbs, distinct polynomials meet to ⊥.
    #[must_use]
    pub fn meet(&self, other: &SymVal) -> SymVal {
        match (self, other) {
            (SymVal::Top, x) | (x, SymVal::Top) => x.clone(),
            (SymVal::Bottom, _) | (_, SymVal::Bottom) => SymVal::Bottom,
            (SymVal::Poly(a), SymVal::Poly(b)) => {
                if a == b {
                    SymVal::Poly(a.clone())
                } else {
                    SymVal::Bottom
                }
            }
        }
    }

    /// The polynomial, if any.
    pub fn as_poly(&self) -> Option<&Poly> {
        match self {
            SymVal::Poly(p) => Some(p),
            _ => None,
        }
    }

    /// The constant, if the value is a constant polynomial.
    pub fn as_const(&self) -> Option<i64> {
        self.as_poly().and_then(Poly::as_const)
    }
}

impl fmt::Display for SymVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymVal::Top => write!(f, "⊤"),
            SymVal::Poly(p) => write!(f, "{p}"),
            SymVal::Bottom => write!(f, "⊥"),
        }
    }
}

/// What a call-modified caller variable corresponds to on the callee side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetTarget {
    /// The callee's `i`-th formal (the caller variable was the by-reference
    /// actual in position `i`).
    Formal(usize),
    /// A global.
    Global(GlobalId),
}

/// Resolves which callee-side slot a killed caller variable binds to.
///
/// Returns `None` when the binding is ambiguous (the same variable passed
/// by reference in two positions — aliased, so no return jump function
/// applies) or nonexistent.
pub fn ret_target(
    mcfg: &ModuleCfg,
    caller: ProcId,
    site: ipcp_ir::cfg::CallSiteId,
    var: VarId,
) -> Option<RetTarget> {
    ret_target_in(mcfg.module.proc(caller), mcfg.cfg(caller), site, var)
}

/// [`ret_target`] with the caller's procedure and CFG in hand: the
/// evaluators resolve them once per procedure, not once per call def.
pub fn ret_target_in(
    p: &Proc,
    cfg: &Cfg,
    site: ipcp_ir::cfg::CallSiteId,
    var: VarId,
) -> Option<RetTarget> {
    let args = cfg.call_site(site).map_or(&[][..], |(_, _, args)| args);
    let mut positions = args
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a, ipcp_ir::program::Arg::Scalar(v, _) if *v == var))
        .map(|(i, _)| i);
    if let VarKind::Global(g) = p.var(var).kind {
        // A global may *also* be passed by reference; that aliases the
        // formal and the global, so only accept the global binding if the
        // variable is not simultaneously a by-reference actual.
        return match positions.next() {
            Some(_) => None,
            None => Some(RetTarget::Global(g)),
        };
    }
    match (positions.next(), positions.next()) {
        (Some(one), None) => Some(RetTarget::Formal(one)),
        _ => None,
    }
}

/// A borrowed view of the values flowing into one call: the caller-side
/// value of each actual and of each scalar global just before the call,
/// read straight out of an evaluator's value table. Oracles look up only
/// the slots they need; nothing is copied.
#[derive(Clone, Copy, Debug)]
pub struct CallActuals<'a, T> {
    arg_vals: &'a [Option<ValueId>],
    global_pre: &'a [ValueId],
    values: &'a [T],
}

impl<'a, T> CallActuals<'a, T> {
    /// A view over `values` (indexed by [`ValueId`]) of a call whose
    /// actuals are `arg_vals` (`None` for array actuals) and whose scalar
    /// globals just before the call are `global_pre`.
    pub fn new(
        arg_vals: &'a [Option<ValueId>],
        global_pre: &'a [ValueId],
        values: &'a [T],
    ) -> CallActuals<'a, T> {
        CallActuals {
            arg_vals,
            global_pre,
            values,
        }
    }

    /// The view of call site `site` in `ssa`, or `None` when the site is
    /// unreachable.
    pub fn at(
        ssa: &'a SsaProc,
        site: ipcp_ir::cfg::CallSiteId,
        values: &'a [T],
    ) -> Option<CallActuals<'a, T>> {
        match ssa.call_info(site)? {
            StmtInfo::Call {
                arg_vals,
                global_pre,
                ..
            } => Some(CallActuals::new(arg_vals, global_pre, values)),
            _ => None,
        }
    }

    /// The value of actual `i`; `None` for an array actual or when the
    /// call has fewer actuals.
    pub fn arg(&self, i: usize) -> Option<&'a T> {
        let v = (*self.arg_vals.get(i)?)?;
        Some(&self.values[v.index()])
    }

    /// The value of the `j`-th scalar global (per
    /// [`SlotLayout::scalar_globals`]) just before the call.
    pub fn global(&self, j: usize) -> Option<&'a T> {
        let v = *self.global_pre.get(j)?;
        Some(&self.values[v.index()])
    }

    /// The value of callee entry slot `slot` (formals first, then scalar
    /// globals) for a callee of `arity` formals.
    pub fn slot(&self, arity: usize, slot: usize) -> Option<&'a T> {
        if slot < arity {
            self.arg(slot)
        } else {
            self.global(slot - arity)
        }
    }
}

/// Oracle supplying the symbolic value of a callee-modified variable after
/// the call returns.
///
/// `actuals` exposes the caller-side symbolic value of each actual (a
/// missing one — an array actual — means ⊥) and of each scalar global just
/// before the call. Both are polynomials **over the caller's entry
/// slots**, so a sound implementation substitutes them into the callee's
/// return jump function. Implementations must be monotone in their inputs
/// (⊤ inputs may yield ⊤; lowering an input may only lower the output).
pub trait CallDefEval {
    /// Symbolic value of `target` after `callee` returns.
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        actuals: &CallActuals<'_, SymVal>,
    ) -> SymVal;
}

/// The no-information oracle: every call-modified variable becomes ⊥.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpaqueCalls;

impl CallDefEval for OpaqueCalls {
    fn eval_call_def(&self, _: ProcId, _: RetTarget, _: &CallActuals<'_, SymVal>) -> SymVal {
        SymVal::Bottom
    }
}

/// The result of symbolically evaluating one procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbolic {
    /// Symbolic value per SSA value.
    pub values: Vec<SymVal>,
    /// Slot index per variable (`None` for arrays and locals).
    pub slot_of_var: Vec<Option<u32>>,
}

impl Symbolic {
    /// The symbolic value of `v`.
    pub fn value(&self, v: ValueId) -> &SymVal {
        &self.values[v.index()]
    }
}

/// Maps each variable of `proc` to its entry-slot index.
pub fn slot_map(mcfg: &ModuleCfg, proc: ProcId, layout: &SlotLayout) -> Vec<Option<u32>> {
    let p = mcfg.module.proc(proc);
    p.vars
        .iter()
        .map(|info| {
            if info.is_array {
                return None;
            }
            match info.kind {
                VarKind::Formal(i) => Some(i as u32),
                VarKind::Global(g) => layout.global_slot(p.arity(), g).map(|s| s as u32),
                VarKind::Local => None,
            }
        })
        .collect()
}

/// Runs the optimistic polynomial fixpoint over `ssa`.
///
/// Every value starts at ⊤ and only descends (⊤ → polynomial → ⊥), so the
/// worklist terminates after at most two lowerings per value.
pub fn evaluate(
    mcfg: &ModuleCfg,
    ssa: &SsaProc,
    layout: &SlotLayout,
    oracle: &dyn CallDefEval,
) -> Symbolic {
    evaluate_gated(mcfg, ssa, layout, oracle, None)
}

/// Like [`evaluate`], but *gated*: phi arguments arriving over CFG edges a
/// prior SCCP pass proved non-executable are ignored, the way a gated
/// single-assignment form would never materialize them. This is the §4.2
/// extension that lets the plain polynomial jump function match complete
/// propagation without iterating dead-code elimination.
pub fn evaluate_gated(
    mcfg: &ModuleCfg,
    ssa: &SsaProc,
    layout: &SlotLayout,
    oracle: &dyn CallDefEval,
    gate: Option<&crate::sccp::SccpResult>,
) -> Symbolic {
    evaluate_budgeted(mcfg, ssa, layout, oracle, gate, u64::MAX).0
}

/// Like [`evaluate_gated`], but with a transfer-step budget.
///
/// When `max_steps` runs out mid-fixpoint, every value still pending on
/// the worklist — and everything data-dependent on one — is forced to ⊥
/// and the second return value is `true`. The resulting assignment is
/// still *consistent* (each value is either at its fixpoint or ⊥, and ⊥
/// absorbs every transfer function), so downstream jump functions built
/// from it remain sound; they are merely weaker.
pub fn evaluate_budgeted(
    mcfg: &ModuleCfg,
    ssa: &SsaProc,
    layout: &SlotLayout,
    oracle: &dyn CallDefEval,
    gate: Option<&crate::sccp::SccpResult>,
    max_steps: u64,
) -> (Symbolic, bool) {
    let budget = EvalBudget {
        max_steps,
        deadline: None,
        latch: None,
    };
    evaluate_under(mcfg, ssa, layout, oracle, gate, &budget)
}

/// A lock-free "the deadline has fired" latch shared by every worker of
/// one analysis run.
///
/// The first cooperative check to observe expiry stores `true`; every
/// later check on any thread is then a single relaxed load instead of a
/// monotonic-clock read. Relaxed ordering is sufficient — the latch only
/// ever moves `false → true` and carries no other data, so the worst a
/// stale load can do is pay one extra `Instant::now()`.
#[derive(Debug, Default)]
pub struct DeadlineLatch {
    fired: std::sync::atomic::AtomicBool,
}

impl DeadlineLatch {
    /// A latch that has not fired.
    pub fn new() -> DeadlineLatch {
        DeadlineLatch::default()
    }

    /// Whether the deadline `at` has passed, latching the answer: once
    /// this returns `true` it returns `true` forever, without reading the
    /// clock again.
    pub fn expired(&self, at: std::time::Instant) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        if self.fired.load(Relaxed) {
            return true;
        }
        if std::time::Instant::now() >= at {
            self.fired.store(true, Relaxed);
            return true;
        }
        false
    }

    /// Whether some checker has already observed expiry.
    pub fn has_fired(&self) -> bool {
        self.fired.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// The resource envelope for one symbolic evaluation: a transfer-step
/// budget and an optional wall-clock deadline.
///
/// The deadline is checked cooperatively every [`EvalBudget::CHECK_STEPS`]
/// transfer steps (checking `Instant::now()` per step would dominate the
/// transfer cost), so expiry overshoots by at most that interval — per
/// worker, when several evaluations run concurrently.
#[derive(Clone, Copy, Debug)]
pub struct EvalBudget<'a> {
    /// Transfer steps allowed before the evaluation degrades.
    pub max_steps: u64,
    /// Absolute wall-clock cutoff, if any.
    pub deadline: Option<std::time::Instant>,
    /// Shared expiry latch: when present, deadline checks go through it so
    /// concurrent evaluations pay one relaxed load after the first expiry
    /// instead of a clock read each.
    pub latch: Option<&'a DeadlineLatch>,
}

impl EvalBudget<'_> {
    /// Transfer steps between two deadline checks.
    pub const CHECK_STEPS: u64 = 1024;
}

/// Like [`evaluate_budgeted`], but under a full [`EvalBudget`] (step
/// budget + optional wall-clock deadline). Exhausting either degrades the
/// same way: pending values sink to ⊥, the flag comes back `true`, and
/// the assignment stays consistent and sound.
pub fn evaluate_under(
    mcfg: &ModuleCfg,
    ssa: &SsaProc,
    layout: &SlotLayout,
    oracle: &dyn CallDefEval,
    gate: Option<&crate::sccp::SccpResult>,
    budget: &EvalBudget<'_>,
) -> (Symbolic, bool) {
    let max_steps = budget.max_steps;
    let slot_of_var = slot_map(mcfg, ssa.proc, layout);
    let caller = (mcfg.module.proc(ssa.proc), mcfg.cfg(ssa.proc));
    let n = ssa.len();
    let mut values = vec![SymVal::Top; n];
    let users = ssa.users();

    // Evaluate every value once, then chase changes through users.
    let mut work: Vec<ValueId> = (0..n).map(ValueId::from).collect();
    let mut iterations = 0u64;
    let mut exhausted = false;
    while let Some(&v) = work.last() {
        if iterations >= max_steps {
            exhausted = true;
            break;
        }
        if let Some(deadline) = budget.deadline {
            if iterations.is_multiple_of(EvalBudget::CHECK_STEPS) {
                let hit = match budget.latch {
                    Some(latch) => latch.expired(deadline),
                    None => std::time::Instant::now() >= deadline,
                };
                if hit {
                    exhausted = true;
                    break;
                }
            }
        }
        work.pop();
        iterations += 1;
        debug_assert!(
            iterations <= 8 * (n.max(1) * n.max(1) + 8) as u64,
            "symbolic evaluation failed to converge"
        );
        let next = transfer(caller, ssa, &slot_of_var, &values, v, oracle, gate);
        if next != values[v.index()] {
            debug_assert!(
                rank(&next) >= rank(&values[v.index()]),
                "symbolic value raised: {} -> {}",
                values[v.index()],
                next
            );
            values[v.index()] = next;
            work.extend(users[v.index()].iter().copied());
        }
    }

    if exhausted {
        // Pending values may be stale; sink them and their transitive
        // users to ⊥ so the assignment stays consistent.
        while let Some(v) = work.pop() {
            if values[v.index()] != SymVal::Bottom {
                values[v.index()] = SymVal::Bottom;
                work.extend(users[v.index()].iter().copied());
            }
        }
    }

    (
        Symbolic {
            values,
            slot_of_var,
        },
        exhausted,
    )
}

fn rank(v: &SymVal) -> u8 {
    match v {
        SymVal::Top => 0,
        SymVal::Poly(_) => 1,
        SymVal::Bottom => 2,
    }
}

fn transfer(
    (p, cfg): (&Proc, &Cfg),
    ssa: &SsaProc,
    slot_of_var: &[Option<u32>],
    values: &[SymVal],
    v: ValueId,
    oracle: &dyn CallDefEval,
    gate: Option<&crate::sccp::SccpResult>,
) -> SymVal {
    let val = |x: ValueId| &values[x.index()];
    match ssa.value(v) {
        ValueKind::Entry { var } => match slot_of_var[var.index()] {
            Some(slot) => SymVal::Poly(Poly::var(slot)),
            None => SymVal::Bottom,
        },
        ValueKind::Const(c) => SymVal::constant(*c),
        ValueKind::ReadInput { .. } | ValueKind::Load { .. } => SymVal::Bottom,
        ValueKind::Unary(op, x) => match (op, val(*x)) {
            (_, SymVal::Top) => SymVal::Top,
            (_, SymVal::Bottom) => SymVal::Bottom,
            (UnOp::Neg, SymVal::Poly(p)) => p.neg().map_or(SymVal::Bottom, SymVal::Poly),
            (UnOp::Not, SymVal::Poly(p)) => match p.as_const() {
                Some(c) => SymVal::constant(i64::from(c == 0)),
                None => SymVal::Bottom,
            },
        },
        ValueKind::Binary(op, a, b) => binary(*op, val(*a), val(*b)),
        ValueKind::Phi { block, .. } => {
            let mut acc = SymVal::Top;
            for &(pred, arg) in ssa.phi_args(v) {
                if let Some(g) = gate {
                    if !g.edge_exec.contains(&(pred, *block)) {
                        continue; // the gate proved this path dead
                    }
                }
                acc = acc.meet(val(arg));
                if acc == SymVal::Bottom {
                    break;
                }
            }
            acc
        }
        ValueKind::CallDef { site, callee, var } => {
            let Some(target) = ret_target_in(p, cfg, *site, *var) else {
                return SymVal::Bottom;
            };
            match CallActuals::at(ssa, *site, values) {
                Some(actuals) => oracle.eval_call_def(*callee, target, &actuals),
                None => SymVal::Bottom,
            }
        }
    }
}

/// The symbolic transfer for a binary operator (public so the jump-function
/// generator can fold small expressions the same way).
pub fn binary(op: BinOp, a: &SymVal, b: &SymVal) -> SymVal {
    use SymVal::*;
    match (a, b) {
        (Top, _) | (_, Top) => Top,
        (Bottom, _) | (_, Bottom) => Bottom,
        (Poly(pa), Poly(pb)) => {
            // Constant folding first (shares semantics with the interpreter).
            if let (Some(ca), Some(cb)) = (pa.as_const(), pb.as_const()) {
                return match eval_binop(op, ca, cb) {
                    Ok(c) => SymVal::constant(c),
                    Err(_) => Bottom,
                };
            }
            match op {
                BinOp::Add => pa.add(pb).map_or(Bottom, Poly),
                BinOp::Sub => pa.sub(pb).map_or(Bottom, Poly),
                BinOp::Mul => pa.mul(pb).map_or(Bottom, Poly),
                BinOp::Div => match pb.as_const() {
                    // Exact only when the divisor divides every coefficient
                    // (then truncating division equals polynomial division
                    // for every assignment).
                    Some(d) => pa.div_exact(d).map_or(Bottom, Poly),
                    None => Bottom,
                },
                BinOp::Rem => match pb.as_const() {
                    Some(d) if pa.divisible_by(d) => SymVal::constant(0),
                    _ => Bottom,
                },
                // Comparisons and logic over non-constant polynomials are
                // not polynomials.
                _ => Bottom,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::{build_ssa, ModKills};
    use ipcp_analysis::{build_call_graph, compute_modref};
    use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};

    fn sym_for(src: &str, name: &str) -> (ModuleCfg, SsaProc, Symbolic) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let pid = m.module.proc_named(name).unwrap().id;
        let ssa = build_ssa(&m, pid, &ModKills(&mr));
        let layout = SlotLayout::new(&m.module);
        let sym = evaluate(&m, &ssa, &layout, &OpaqueCalls);
        (m, ssa, sym)
    }

    use crate::ssa::SsaProc;

    /// Symbolic value of the `print` argument in `name` (first print).
    fn printed_sym(src: &str, name: &str) -> SymVal {
        let (_, ssa, sym) = sym_for(src, name);
        for b in 0..ssa.n_blocks() {
            for s in ssa.stmts(ipcp_ir::cfg::BlockId::from(b)) {
                if let StmtInfo::Print { value, .. } = s {
                    return sym.value(value).clone();
                }
            }
        }
        panic!("no print in {name}");
    }

    #[test]
    fn constants_fold_through_locals() {
        let v = printed_sym("proc main() { x = 3; y = x * 4 + 2; print y; }", "main");
        assert_eq!(v.as_const(), Some(14));
    }

    #[test]
    fn step_budget_degrades_to_bottom_consistently() {
        let src = "proc main() { x = 3; y = x * 4 + 2; z = y - 1; print z; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let pid = m.module.entry;
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let ssa = build_ssa(&m, pid, &ModKills(&mr));
        let layout = SlotLayout::new(&m.module);
        // Unlimited budget reports no exhaustion and matches evaluate().
        let (full, hit) = evaluate_budgeted(&m, &ssa, &layout, &OpaqueCalls, None, u64::MAX);
        assert!(!hit);
        assert_eq!(
            full.values,
            evaluate(&m, &ssa, &layout, &OpaqueCalls).values
        );
        // A two-step budget exhausts; every value is then at its fixpoint
        // or ⊥ (consistency), and exhaustion is reported.
        let (cut, hit) = evaluate_budgeted(&m, &ssa, &layout, &OpaqueCalls, None, 2);
        assert!(hit);
        for (i, v) in cut.values.iter().enumerate() {
            assert!(
                *v == SymVal::Bottom || *v == full.values[i],
                "value {i} is {v}, neither ⊥ nor its fixpoint {}",
                full.values[i]
            );
        }
        // A zero budget sinks everything.
        let (zero, hit) = evaluate_budgeted(&m, &ssa, &layout, &OpaqueCalls, None, 0);
        assert!(hit);
        assert!(zero.values.iter().all(|v| *v == SymVal::Bottom));
    }

    #[test]
    fn formals_become_slot_polynomials() {
        let v = printed_sym(
            "proc main() { call f(1, 2); } proc f(a, b) { print a * 2 + b; }",
            "f",
        );
        let p = v.as_poly().unwrap();
        assert_eq!(p.to_string(), "x1 + 2*x0");
        assert_eq!(p.support(), vec![0, 1]);
        assert_eq!(p.eval(&[10, 3]), Some(23));
    }

    #[test]
    fn pass_through_is_a_single_variable() {
        let v = printed_sym(
            "proc main() { call f(7); } proc f(n) { m = n; print m; }",
            "f",
        );
        assert_eq!(v.as_poly().unwrap().as_var(), Some(0));
    }

    #[test]
    fn globals_map_to_slots_after_formals() {
        let v = printed_sym(
            "global g; proc main() { call f(1); } proc f(a) { print a + g; }",
            "f",
        );
        // f has one formal; g is slot 1.
        assert_eq!(v.as_poly().unwrap().support(), vec![0, 1]);
    }

    #[test]
    fn read_is_bottom() {
        let v = printed_sym("proc main() { read x; print x + 1; }", "main");
        assert_eq!(v, SymVal::Bottom);
    }

    #[test]
    fn array_load_is_bottom() {
        let v = printed_sym("proc main() { array t[2]; t[0] = 5; print t[0]; }", "main");
        assert_eq!(v, SymVal::Bottom);
    }

    #[test]
    fn equal_values_merge_at_joins() {
        let v = printed_sym(
            "proc main() { read c; if (c) { x = 2 + 3; } else { x = 5; } print x; }",
            "main",
        );
        assert_eq!(v.as_const(), Some(5));
    }

    #[test]
    fn unequal_values_meet_to_bottom() {
        let v = printed_sym(
            "proc main() { read c; if (c) { x = 1; } else { x = 2; } print x; }",
            "main",
        );
        assert_eq!(v, SymVal::Bottom);
    }

    #[test]
    fn loop_carried_values_are_bottom_but_invariants_survive() {
        let (_, ssa, sym) = sym_for(
            "proc main() { k = 10; s = 0; do i = 1, 5 { s = s + k; } print s; print k; }",
            "main",
        );
        let mut printed = Vec::new();
        for b in 0..ssa.n_blocks() {
            for s in ssa.stmts(ipcp_ir::cfg::BlockId::from(b)) {
                if let StmtInfo::Print { value, .. } = s {
                    printed.push(sym.value(value).clone());
                }
            }
        }
        assert_eq!(printed.len(), 2);
        assert_eq!(printed[0], SymVal::Bottom); // s is loop-varying
        assert_eq!(printed[1].as_const(), Some(10)); // k is invariant
    }

    #[test]
    fn division_is_exact_or_bottom() {
        let v = printed_sym(
            "proc main() { call f(3); } proc f(n) { print (4 * n + 6) / 2; }",
            "f",
        );
        assert_eq!(v.as_poly().unwrap().to_string(), "2*x0 + 3");
        let v = printed_sym(
            "proc main() { call f(3); } proc f(n) { print (n + 1) / 2; }",
            "f",
        );
        assert_eq!(v, SymVal::Bottom);
    }

    #[test]
    fn remainder_of_divisible_poly_is_zero() {
        let v = printed_sym(
            "proc main() { call f(3); } proc f(n) { print (6 * n) % 3; }",
            "f",
        );
        assert_eq!(v.as_const(), Some(0));
    }

    #[test]
    fn overflowing_fold_is_bottom() {
        let v = printed_sym(
            "proc main() { x = 9223372036854775807; print x + 1; }",
            "main",
        );
        assert_eq!(v, SymVal::Bottom);
    }

    #[test]
    fn calls_kill_only_modified_values() {
        let v = printed_sym(
            "global g; proc main() { x = 1; g = 2; call noop(); print x + g; } proc noop() { }",
            "main",
        );
        // noop modifies nothing: both survive the call.
        assert_eq!(v.as_const(), Some(3));
    }

    #[test]
    fn modified_global_becomes_bottom_without_return_jfs() {
        let v = printed_sym(
            "global g; proc main() { g = 2; call setg(); print g; } proc setg() { g = 7; }",
            "main",
        );
        assert_eq!(v, SymVal::Bottom); // OpaqueCalls oracle
    }

    #[test]
    fn ret_target_resolution() {
        let src = "global g; proc main() { x = 1; call f(x, 2); call f(g, 1); } \
                   proc f(a, b) { a = b; g = 0; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let main = m.module.entry;
        let p = m.module.proc(main);
        let x = p.var_named("x").unwrap();
        let g = p.var_named("g").unwrap();
        use ipcp_ir::cfg::CallSiteId;
        assert_eq!(
            ret_target(&m, main, CallSiteId(0), x),
            Some(RetTarget::Formal(0))
        );
        assert_eq!(
            ret_target(&m, main, CallSiteId(0), g),
            Some(RetTarget::Global(GlobalId(0)))
        );
        // At site 1, g is passed by reference: aliased, no target.
        assert_eq!(ret_target(&m, main, CallSiteId(1), g), None);
    }

    #[test]
    fn aliased_double_pass_has_no_target() {
        let src = "proc main() { x = 1; call f(x, x); } proc f(a, b) { a = 2; b = 3; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let main = m.module.entry;
        let x = m.module.proc(main).var_named("x").unwrap();
        assert_eq!(ret_target(&m, main, ipcp_ir::cfg::CallSiteId(0), x), None);
    }
}
