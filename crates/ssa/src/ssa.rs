//! SSA construction over FT CFGs (Cytron et al. phi placement + renaming).
//!
//! The result is a *value graph*: every scalar computation in a procedure
//! becomes a node ([`ValueKind`]) whose operands are other nodes. Opaque
//! sources — procedure entry values, `read`, array loads, and the values
//! call statements may write into by-reference actuals and globals — are
//! explicit node kinds, so every analysis downstream (GVN, SCCP, the
//! polynomial symbolic evaluator) is a simple abstract interpretation of
//! this graph.
//!
//! Call statements define ("kill") the variables a callee may modify. The
//! kill set is supplied by a [`CallKills`] oracle, so the same builder
//! serves both the MOD-precise and the no-MOD-information configurations
//! the paper compares in Table 3.

use crate::dominators::{dominance_frontiers, DomTree};
use crate::liveness::{self, Liveness};
use ipcp_analysis::modref::{worst_case_killed, ModRef};
use ipcp_ir::cfg::{BlockId, CStmt, CallSiteId, ModuleCfg, Terminator};
use ipcp_ir::lang::ast::{BinOp, UnOp};
use ipcp_ir::program::{Arg, Expr, ProcId, VarId};
use std::collections::HashMap;
use std::fmt;

/// Index of an SSA value within its [`SsaProc`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for ValueId {
    fn from(i: usize) -> Self {
        match u32::try_from(i) {
            Ok(n) => ValueId(n),
            Err(_) => unreachable!("value id overflow"),
        }
    }
}

/// The operation an SSA value represents.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// The value variable `var` (a formal or global) holds on procedure
    /// entry.
    Entry {
        /// The formal/global in the procedure's symbol table.
        var: VarId,
    },
    /// An integer constant.
    Const(i64),
    /// A unary operation.
    Unary(UnOp, ValueId),
    /// A binary operation.
    Binary(BinOp, ValueId, ValueId),
    /// A phi node merging the definitions of `var` arriving at `block`.
    Phi {
        /// The join block.
        block: BlockId,
        /// The merged variable.
        var: VarId,
    },
    /// An array element load — opaque (the study does not track constants
    /// through arrays).
    Load {
        /// The array variable.
        array: VarId,
        /// The index value.
        index: ValueId,
    },
    /// One `read` statement's result — opaque, unique per occurrence.
    ReadInput {
        /// Sequence number distinguishing occurrences.
        seq: u32,
    },
    /// The value of `var` immediately after call site `site` (which may
    /// modify it). Its meaning is refined by return jump functions.
    CallDef {
        /// The call site within this procedure.
        site: CallSiteId,
        /// The procedure invoked.
        callee: ProcId,
        /// The possibly-modified caller variable.
        var: VarId,
    },
}

/// Analysis annotations for one CFG statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StmtInfo {
    /// `dst = value`
    Assign {
        /// Value stored.
        value: ValueId,
        /// SSA value of each scalar-variable occurrence in the statement's
        /// expressions, in [`Expr::for_each_var`] order.
        use_vals: Vec<ValueId>,
    },
    /// `array[index] = value`
    Store {
        /// Index value.
        index: ValueId,
        /// Stored value.
        value: ValueId,
        /// Variable-occurrence values (index first, then value).
        use_vals: Vec<ValueId>,
    },
    /// `read dst`
    Read {
        /// The fresh opaque definition.
        def: ValueId,
    },
    /// `print value`
    Print {
        /// Printed value.
        value: ValueId,
        /// Variable-occurrence values.
        use_vals: Vec<ValueId>,
    },
    /// `call callee(args…)`
    Call {
        /// The call site id.
        site: CallSiteId,
        /// Per actual argument: the SSA value flowing in (`None` for array
        /// actuals, which carry no scalar value).
        arg_vals: Vec<Option<ValueId>>,
        /// The kill definitions this call creates: `(variable, CallDef)`.
        defs: Vec<(VarId, ValueId)>,
        /// Variable-occurrence values inside by-value argument
        /// expressions (by-reference actuals are not substitutable uses).
        use_vals: Vec<ValueId>,
        /// The SSA value of each scalar global **just before** the call,
        /// ordered per [`ipcp_ir::program::SlotLayout::scalar_globals`].
        /// Return-jump-function evaluation substitutes these for the
        /// callee's global entry slots.
        global_pre: Vec<ValueId>,
    },
}

/// Per-block SSA annotations (parallel to the CFG block's statements).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SsaBlock {
    /// Phi values defined at the head of the block.
    pub phis: Vec<ValueId>,
    /// One entry per CFG statement.
    pub stmts: Vec<StmtInfo>,
    /// The branch condition value, if the terminator is a branch.
    pub term_cond: Option<ValueId>,
    /// Variable-occurrence values in the branch condition.
    pub term_use_vals: Vec<ValueId>,
}

/// SSA form of one procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsaProc {
    /// The procedure this SSA form describes.
    pub proc: ProcId,
    /// All values.
    pub values: Vec<ValueKind>,
    /// For phi values: `(predecessor block, incoming value)` pairs.
    /// Empty for non-phis.
    pub phi_args: Vec<Vec<(BlockId, ValueId)>>,
    /// Per-CFG-block annotations.
    pub blocks: Vec<SsaBlock>,
    /// Dominator tree used during construction.
    pub dom: DomTree,
    /// The entry value created for each variable (`None` for arrays and
    /// for locals, which start as the constant 0 rather than an opaque
    /// entry value).
    pub entry_vals: Vec<Option<ValueId>>,
    /// For every reachable `return`: the SSA value of each scalar formal
    /// and global at that exit (`None` for arrays and locals), indexed by
    /// `VarId`.
    pub exits: Vec<(BlockId, Vec<Option<ValueId>>)>,
    /// Location of each reachable call site: `call_sites[site] = (block,
    /// statement index)`. Unreachable sites map to `None`.
    pub call_sites: Vec<Option<(BlockId, usize)>>,
}

impl SsaProc {
    /// The kind of value `v`.
    pub fn value(&self, v: ValueId) -> &ValueKind {
        &self.values[v.index()]
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the graph is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The operand values of `v` (phi arguments included), in
    /// [`SsaProc::for_each_operand`] order.
    pub fn operands(&self, v: ValueId) -> Vec<ValueId> {
        let mut ops = Vec::new();
        self.for_each_operand(v, |op| ops.push(op));
        ops
    }

    /// Calls `f` on each operand of `v` without allocating: unary and
    /// binary operands left to right, a load's index, phi arguments in
    /// predecessor order, and a call def's scalar actuals followed by the
    /// globals just before the call. A repeated operand is visited once
    /// per occurrence.
    pub fn for_each_operand(&self, v: ValueId, mut f: impl FnMut(ValueId)) {
        match self.value(v) {
            ValueKind::Entry { .. } | ValueKind::Const(_) | ValueKind::ReadInput { .. } => {}
            ValueKind::Unary(_, a) | ValueKind::Load { index: a, .. } => f(*a),
            ValueKind::Binary(_, a, b) => {
                f(*a);
                f(*b);
            }
            ValueKind::Phi { .. } => {
                for &(_, a) in &self.phi_args[v.index()] {
                    f(a);
                }
            }
            ValueKind::CallDef { site, .. } => {
                if let Some(StmtInfo::Call {
                    arg_vals,
                    global_pre,
                    ..
                }) = self.call_info(*site)
                {
                    arg_vals.iter().flatten().copied().for_each(&mut f);
                    global_pre.iter().copied().for_each(f);
                }
            }
        }
    }

    /// The [`StmtInfo::Call`] annotation for `site`, if the site is
    /// reachable.
    pub fn call_info(&self, site: CallSiteId) -> Option<&StmtInfo> {
        let (b, i) = self.call_sites.get(site.index()).copied().flatten()?;
        self.blocks.get(b.index()).and_then(|blk| blk.stmts.get(i))
    }

    /// `users[v]` — the values that take `v` as an operand, in ascending
    /// order, once per operand occurrence (`x + x` lists its user twice).
    pub fn users(&self) -> Users {
        let n = self.values.len();
        // Pass 1: count each value's uses; pass 2: place each user at
        // its value's cursor. Visiting users in ascending order in pass 2
        // keeps every slice sorted.
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            self.for_each_operand(ValueId::from(i), |op| offsets[op.index() + 1] += 1);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut flat = vec![ValueId(0); offsets[n]];
        for i in 0..n {
            let user = ValueId::from(i);
            self.for_each_operand(user, |op| {
                let at = &mut cursor[op.index()];
                flat[*at] = user;
                *at += 1;
            });
        }
        Users { offsets, flat }
    }

    /// Iterates over `(block, site, callee, arg_vals, defs)` for every
    /// reachable call.
    pub fn calls(&self) -> impl Iterator<Item = CallRecord<'_>> {
        self.blocks.iter().enumerate().flat_map(|(bi, blk)| {
            blk.stmts.iter().filter_map(move |s| match s {
                StmtInfo::Call {
                    site,
                    arg_vals,
                    defs,
                    ..
                } => Some((
                    BlockId::from(bi),
                    *site,
                    arg_vals.as_slice(),
                    defs.as_slice(),
                )),
                _ => None,
            })
        })
    }
}

/// One reachable call, as yielded by [`SsaProc::calls`]:
/// `(block, site, argument values, values defined by the call)`.
pub type CallRecord<'a> = (
    BlockId,
    CallSiteId,
    &'a [Option<ValueId>],
    &'a [(VarId, ValueId)],
);

/// The def-use table of one [`SsaProc`], built by [`SsaProc::users`]:
/// `users[v]` is the slice of values taking `v` as an operand. One flat
/// vector plus per-value offsets, so building it costs a fixed number of
/// allocations instead of one per value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Users {
    /// `flat[offsets[v]..offsets[v + 1]]` are the users of `v`.
    offsets: Vec<usize>,
    flat: Vec<ValueId>,
}

impl Users {
    /// Number of values the table covers.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table covers no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Index<usize> for Users {
    type Output = [ValueId];

    fn index(&self, v: usize) -> &[ValueId] {
        &self.flat[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Oracle deciding which caller variables a call statement may modify.
///
/// Implementations: [`ModKills`] (uses computed MOD sets — the paper's
/// default) and [`WorstCaseKills`] (no MOD information — Table 3
/// column 1).
pub trait CallKills {
    /// Caller-side variables possibly modified by `call callee(args…)`
    /// inside `caller`.
    fn killed(&self, mcfg: &ModuleCfg, caller: ProcId, callee: ProcId, args: &[Arg]) -> Vec<VarId>;
}

/// MOD-precise kills.
#[derive(Clone, Copy, Debug)]
pub struct ModKills<'a>(pub &'a ModRef);

impl CallKills for ModKills<'_> {
    fn killed(&self, mcfg: &ModuleCfg, caller: ProcId, callee: ProcId, args: &[Arg]) -> Vec<VarId> {
        self.0.killed_by_call(mcfg, caller, callee, args)
    }
}

/// Worst-case kills: every by-reference actual and every global alias.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorstCaseKills;

impl CallKills for WorstCaseKills {
    fn killed(
        &self,
        mcfg: &ModuleCfg,
        caller: ProcId,
        _callee: ProcId,
        args: &[Arg],
    ) -> Vec<VarId> {
        worst_case_killed(mcfg, caller, args)
    }
}

/// Builds minimal SSA for procedure `proc` of `mcfg`.
///
/// Only reachable blocks are processed; annotations for unreachable blocks
/// stay empty.
pub fn build_ssa(mcfg: &ModuleCfg, proc: ProcId, kills: &dyn CallKills) -> SsaProc {
    Builder::new(mcfg, proc, kills, None).run()
}

/// Builds *pruned* SSA: phi nodes are placed only where the variable is
/// live (per the conservative [`liveness`] analysis), eliminating the
/// dead phis minimal SSA creates. Analyses over the two forms agree — a
/// property the integration tests check — because pruned-away phis were
/// never observable.
pub fn build_ssa_pruned(mcfg: &ModuleCfg, proc: ProcId, kills: &dyn CallKills) -> SsaProc {
    let live = liveness::compute(mcfg.module.proc(proc), mcfg.cfg(proc));
    Builder::new(mcfg, proc, kills, Some(live)).run()
}

struct Builder<'a> {
    mcfg: &'a ModuleCfg,
    proc: ProcId,
    kills: &'a dyn CallKills,
    dom: DomTree,
    values: Vec<ValueKind>,
    phi_args: Vec<Vec<(BlockId, ValueId)>>,
    interned: HashMap<ValueKind, ValueId>,
    blocks: Vec<SsaBlock>,
    stacks: Vec<Vec<ValueId>>, // per VarId
    entry_vals: Vec<Option<ValueId>>,
    exits: Vec<(BlockId, Vec<Option<ValueId>>)>,
    call_sites: Vec<Option<(BlockId, usize)>>,
    /// Caller `VarId` aliasing each tracked scalar global, in slot order.
    global_vars: Vec<VarId>,
    /// Liveness for pruned phi placement (`None` = minimal SSA).
    live: Option<Liveness>,
    read_seq: u32,
}

impl<'a> Builder<'a> {
    fn new(
        mcfg: &'a ModuleCfg,
        proc: ProcId,
        kills: &'a dyn CallKills,
        live: Option<Liveness>,
    ) -> Self {
        let cfg = mcfg.cfg(proc);
        let dom = DomTree::build(cfg);
        let n_vars = mcfg.module.proc(proc).vars.len();
        // Only the scalar-global id list is needed here — building a full
        // `SlotLayout` would intern every procedure's slot names, turning
        // each per-procedure SSA build into O(module) and the whole jump
        // phase quadratic (caught by the 10k scale tier).
        let global_vars = mcfg
            .module
            .scalar_global_ids()
            .iter()
            .map(|&g| match mcfg.module.proc(proc).var_for_global(g) {
                Some(v) => v,
                None => unreachable!("every procedure aliases every scalar global"),
            })
            .collect();
        Builder {
            mcfg,
            proc,
            kills,
            dom,
            values: Vec::new(),
            phi_args: Vec::new(),
            interned: HashMap::new(),
            blocks: vec![SsaBlock::default(); cfg.len()],
            stacks: vec![Vec::new(); n_vars],
            entry_vals: vec![None; n_vars],
            exits: Vec::new(),
            call_sites: vec![None; cfg.n_call_sites],
            global_vars,
            live,
            read_seq: 0,
        }
    }

    fn fresh(&mut self, kind: ValueKind) -> ValueId {
        let id = ValueId::from(self.values.len());
        self.values.push(kind);
        self.phi_args.push(Vec::new());
        id
    }

    /// Hash-consing for pure nodes; other kinds are always fresh.
    fn intern(&mut self, kind: ValueKind) -> ValueId {
        match kind {
            ValueKind::Const(_)
            | ValueKind::Unary(..)
            | ValueKind::Binary(..)
            | ValueKind::Entry { .. } => {
                if let Some(&v) = self.interned.get(&kind) {
                    return v;
                }
                let v = self.fresh(kind.clone());
                self.interned.insert(kind, v);
                v
            }
            other => self.fresh(other),
        }
    }

    fn run(mut self) -> SsaProc {
        let cfg = self.mcfg.cfg(self.proc).clone();
        let p = self.mcfg.module.proc(self.proc);

        // Initial definitions: formals and globals get opaque entry
        // values; scalar locals start at the constant 0.
        for (vi, info) in p.vars.iter().enumerate() {
            if info.is_array {
                continue;
            }
            let var = VarId::from(vi);
            let init = if info.is_formal() || info.is_global() {
                let e = self.intern(ValueKind::Entry { var });
                self.entry_vals[vi] = Some(e);
                e
            } else {
                self.intern(ValueKind::Const(0))
            };
            self.stacks[vi].push(init);
        }

        // Collect definition sites per scalar variable.
        let reach = cfg.reachable();
        let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); p.vars.len()];
        for (bi, blk) in cfg.blocks.iter().enumerate() {
            if !reach[bi] {
                continue;
            }
            let bid = BlockId::from(bi);
            for s in &blk.stmts {
                match s {
                    CStmt::Assign { dst, .. } => def_blocks[dst.index()].push(bid),
                    CStmt::Read { dst } => def_blocks[dst.index()].push(bid),
                    CStmt::Call { callee, args, .. } => {
                        for v in self.kills.killed(self.mcfg, self.proc, *callee, args) {
                            if !p.var(v).is_array {
                                def_blocks[v.index()].push(bid);
                            }
                        }
                    }
                    CStmt::Store { .. } | CStmt::Print { .. } => {}
                }
            }
        }

        // Phi placement at iterated dominance frontiers (minimal SSA).
        let df = dominance_frontiers(&cfg, &self.dom);
        for (vi, defs) in def_blocks.iter().enumerate() {
            if defs.is_empty() {
                continue;
            }
            let var = VarId::from(vi);
            let mut has_phi = vec![false; cfg.len()];
            let mut work: Vec<BlockId> = defs.clone();
            while let Some(b) = work.pop() {
                for &d in &df[b.index()] {
                    if has_phi[d.index()] {
                        continue;
                    }
                    // Pruned SSA: skip phis for variables dead at the join
                    // (a pruned phi is not a def, so don't iterate from it).
                    if let Some(live) = &self.live {
                        if !live.live_at(d, var) {
                            continue;
                        }
                    }
                    has_phi[d.index()] = true;
                    let phi = self.fresh(ValueKind::Phi { block: d, var });
                    self.blocks[d.index()].phis.push(phi);
                    work.push(d);
                }
            }
        }

        // Renaming: preorder walk of the dominator tree with explicit
        // enter/exit events so variable stacks unwind correctly.
        enum Event {
            Enter(BlockId),
            Exit(Vec<(VarId, usize)>), // (var, number of defs to pop)
        }
        let mut agenda = vec![Event::Enter(cfg.entry)];
        while let Some(ev) = agenda.pop() {
            match ev {
                Event::Exit(pops) => {
                    for (v, n) in pops {
                        for _ in 0..n {
                            self.stacks[v.index()].pop();
                        }
                    }
                }
                Event::Enter(b) => {
                    let pops = self.rename_block(&cfg, b);
                    agenda.push(Event::Exit(pops));
                    for &c in self.dom.children(b).iter().rev() {
                        agenda.push(Event::Enter(c));
                    }
                }
            }
        }

        SsaProc {
            proc: self.proc,
            values: self.values,
            phi_args: self.phi_args,
            blocks: self.blocks,
            dom: self.dom,
            entry_vals: self.entry_vals,
            exits: self.exits,
            call_sites: self.call_sites,
        }
    }

    /// Renames one block; returns the (var, pop-count) list to unwind.
    fn rename_block(&mut self, cfg: &ipcp_ir::cfg::Cfg, b: BlockId) -> Vec<(VarId, usize)> {
        let mut pushed: HashMap<VarId, usize> = HashMap::new();
        let push = |stacks: &mut Vec<Vec<ValueId>>,
                    pushed: &mut HashMap<VarId, usize>,
                    v: VarId,
                    val: ValueId| {
            stacks[v.index()].push(val);
            *pushed.entry(v).or_insert(0) += 1;
        };

        // Phi definitions first.
        let phis = self.blocks[b.index()].phis.clone();
        for phi in phis {
            if let ValueKind::Phi { var, .. } = self.values[phi.index()] {
                push(&mut self.stacks, &mut pushed, var, phi);
            }
        }

        // Statements.
        let stmts = cfg.block(b).stmts.clone();
        let mut infos = Vec::with_capacity(stmts.len());
        for s in &stmts {
            let info = match s {
                CStmt::Assign { dst, value } => {
                    let mut use_vals = Vec::new();
                    let v = self.lower_expr(value, &mut use_vals);
                    push(&mut self.stacks, &mut pushed, *dst, v);
                    StmtInfo::Assign { value: v, use_vals }
                }
                CStmt::Store { index, value, .. } => {
                    let mut use_vals = Vec::new();
                    let i = self.lower_expr(index, &mut use_vals);
                    let v = self.lower_expr(value, &mut use_vals);
                    StmtInfo::Store {
                        index: i,
                        value: v,
                        use_vals,
                    }
                }
                CStmt::Read { dst } => {
                    let seq = self.read_seq;
                    self.read_seq += 1;
                    let v = self.fresh(ValueKind::ReadInput { seq });
                    push(&mut self.stacks, &mut pushed, *dst, v);
                    StmtInfo::Read { def: v }
                }
                CStmt::Print { value } => {
                    let mut use_vals = Vec::new();
                    let v = self.lower_expr(value, &mut use_vals);
                    StmtInfo::Print { value: v, use_vals }
                }
                CStmt::Call { callee, args, site } => {
                    let mut use_vals = Vec::new();
                    let mut arg_vals = Vec::with_capacity(args.len());
                    for a in args {
                        match a {
                            Arg::Scalar(v, _) => {
                                arg_vals.push(Some(self.current(*v)));
                            }
                            Arg::Array(..) => arg_vals.push(None),
                            Arg::Value(e) => {
                                arg_vals.push(Some(self.lower_expr(e, &mut use_vals)));
                            }
                        }
                    }
                    // Values of the scalar globals before the kill defs.
                    let global_pre: Vec<ValueId> = self
                        .global_vars
                        .clone()
                        .into_iter()
                        .map(|g| self.current(g))
                        .collect();
                    let killed = self.kills.killed(self.mcfg, self.proc, *callee, args);
                    let mut defs = Vec::new();
                    for v in killed {
                        if self.mcfg.module.proc(self.proc).var(v).is_array {
                            continue; // arrays are not renamed
                        }
                        let d = self.fresh(ValueKind::CallDef {
                            site: *site,
                            callee: *callee,
                            var: v,
                        });
                        push(&mut self.stacks, &mut pushed, v, d);
                        defs.push((v, d));
                    }
                    self.call_sites[site.index()] = Some((b, infos.len()));
                    StmtInfo::Call {
                        site: *site,
                        arg_vals,
                        defs,
                        use_vals,
                        global_pre,
                    }
                }
            };
            infos.push(info);
        }
        self.blocks[b.index()].stmts = infos;

        // Terminator.
        match &cfg.block(b).term {
            Terminator::Branch { cond, .. } => {
                let mut use_vals = Vec::new();
                let c = self.lower_expr(cond, &mut use_vals);
                self.blocks[b.index()].term_cond = Some(c);
                self.blocks[b.index()].term_use_vals = use_vals;
            }
            Terminator::Return => {
                let p = self.mcfg.module.proc(self.proc);
                // Only formals and globals: they are what return jump
                // functions consume, and what liveness keeps alive at
                // exits under pruned SSA.
                let snapshot: Vec<Option<ValueId>> = (0..p.vars.len())
                    .map(|vi| {
                        let info = &p.vars[vi];
                        if info.is_array || !(info.is_formal() || info.is_global()) {
                            None
                        } else {
                            self.stacks[vi].last().copied()
                        }
                    })
                    .collect();
                self.exits.push((b, snapshot));
            }
            Terminator::Jump(_) => {}
        }

        // Fill phi arguments in successors.
        for succ in cfg.successors(b) {
            let succ_phis = self.blocks[succ.index()].phis.clone();
            for phi in succ_phis {
                if let ValueKind::Phi { var, .. } = self.values[phi.index()] {
                    let incoming = self.current(var);
                    self.phi_args[phi.index()].push((b, incoming));
                }
            }
        }

        pushed.into_iter().collect()
    }

    fn current(&self, v: VarId) -> ValueId {
        match self.stacks[v.index()].last() {
            Some(&val) => val,
            None => unreachable!("scalar variable has an initial definition"),
        }
    }

    fn lower_expr(&mut self, e: &Expr, use_vals: &mut Vec<ValueId>) -> ValueId {
        match e {
            Expr::Const(c, _) => self.intern(ValueKind::Const(*c)),
            Expr::Var(v, _) => {
                let val = self.current(*v);
                use_vals.push(val);
                val
            }
            Expr::Load(arr, idx, _) => {
                let i = self.lower_expr(idx, use_vals);
                self.fresh(ValueKind::Load {
                    array: *arr,
                    index: i,
                })
            }
            Expr::Unary(op, x, _) => {
                let xv = self.lower_expr(x, use_vals);
                self.intern(ValueKind::Unary(*op, xv))
            }
            Expr::Binary(op, l, r, _) => {
                let lv = self.lower_expr(l, use_vals);
                let rv = self.lower_expr(r, use_vals);
                self.intern(ValueKind::Binary(*op, lv, rv))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_analysis::{build_call_graph, compute_modref};
    use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};

    fn ssa_for(src: &str, name: &str) -> (ModuleCfg, SsaProc) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let pid = m.module.proc_named(name).unwrap().id;
        let ssa = build_ssa(&m, pid, &ModKills(&mr));
        (m, ssa)
    }

    fn count_kind(ssa: &SsaProc, pred: impl Fn(&ValueKind) -> bool) -> usize {
        ssa.values.iter().filter(|k| pred(k)).count()
    }

    #[test]
    fn straight_line_has_no_phis() {
        let (_, ssa) = ssa_for("proc main() { x = 1; y = x + 2; print y; }", "main");
        assert_eq!(count_kind(&ssa, |k| matches!(k, ValueKind::Phi { .. })), 0);
    }

    #[test]
    fn diamond_join_gets_one_phi() {
        let (_, ssa) = ssa_for(
            "proc main() { read c; if (c) { x = 1; } else { x = 2; } print x; }",
            "main",
        );
        let phis = count_kind(&ssa, |k| matches!(k, ValueKind::Phi { .. }));
        assert_eq!(phis, 1);
        // The phi has exactly two incoming args with distinct constants.
        let phi = ssa
            .values
            .iter()
            .position(|k| matches!(k, ValueKind::Phi { .. }))
            .map(ValueId::from)
            .unwrap();
        let args = &ssa.phi_args[phi.index()];
        assert_eq!(args.len(), 2);
        let consts: Vec<i64> = args
            .iter()
            .filter_map(|&(_, v)| match ssa.value(v) {
                ValueKind::Const(c) => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(consts.len(), 2);
    }

    #[test]
    fn loop_variable_gets_header_phi() {
        let (_, ssa) = ssa_for("proc main() { do i = 1, 10 { print i; } }", "main");
        assert!(count_kind(&ssa, |k| matches!(k, ValueKind::Phi { .. })) >= 1);
    }

    #[test]
    fn identical_expressions_hash_cons() {
        let (_, ssa) = ssa_for(
            "proc main() { read a; x = a + 1; y = a + 1; print x + y; }",
            "main",
        );
        // `a + 1` appears once in the value graph.
        let adds = count_kind(&ssa, |k| matches!(k, ValueKind::Binary(BinOp::Add, _, _)));
        assert_eq!(adds, 2); // a+1 (shared) and x+y
    }

    #[test]
    fn formals_and_globals_get_entry_values() {
        let (m, ssa) = ssa_for(
            "global g; proc main() { call f(1); } proc f(a) { print a + g; }",
            "f",
        );
        let f = m.module.proc_named("f").unwrap();
        let a = f.var_named("a").unwrap();
        let g = f.var_named("g").unwrap();
        assert!(ssa.entry_vals[a.index()].is_some());
        assert!(ssa.entry_vals[g.index()].is_some());
        assert_eq!(
            count_kind(&ssa, |k| matches!(k, ValueKind::Entry { .. })),
            2
        );
    }

    #[test]
    fn locals_start_at_zero_not_entry() {
        let (_, ssa) = ssa_for("proc main() { print x; }", "main");
        assert_eq!(
            count_kind(&ssa, |k| matches!(k, ValueKind::Entry { .. })),
            0
        );
        // The print's value is the constant 0.
        let blk = &ssa.blocks[0];
        match &blk.stmts[0] {
            StmtInfo::Print { value, .. } => {
                assert_eq!(ssa.value(*value), &ValueKind::Const(0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn call_kills_create_calldefs_with_mod() {
        let (m, ssa) = ssa_for(
            "global g; proc main() { x = 1; y = 2; call f(x, y); print x + y + g; } \
             proc f(a, b) { a = 5; g = 6; print b; }",
            "main",
        );
        // f modifies formal 0 (bound to x) and g; y survives.
        let defs: Vec<&str> = ssa
            .values
            .iter()
            .filter_map(|k| match k {
                ValueKind::CallDef { var, .. } => {
                    Some(m.module.proc(ssa.proc).var(*var).name.as_str())
                }
                _ => None,
            })
            .collect();
        assert!(defs.contains(&"x"));
        assert!(defs.contains(&"g"));
        assert!(!defs.contains(&"y"));
    }

    #[test]
    fn worst_case_kills_more() {
        let src = "global g; proc main() { x = 1; y = 2; call f(x, y); print x + y + g; } \
                   proc f(a, b) { print a + b; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let pid = m.module.entry;
        let ssa = build_ssa(&m, pid, &WorstCaseKills);
        let defs = count_kind(&ssa, |k| matches!(k, ValueKind::CallDef { .. }));
        assert_eq!(defs, 3); // x, y, g all killed without MOD info
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let ssa_mod = build_ssa(&m, pid, &ModKills(&mr));
        assert_eq!(
            count_kind(&ssa_mod, |k| matches!(k, ValueKind::CallDef { .. })),
            0
        );
    }

    #[test]
    fn use_vals_align_with_var_occurrences() {
        let (m, ssa) = ssa_for("proc main() { x = 3; y = x + x * 2; print y; }", "main");
        let p = m.module.proc(ssa.proc);
        let blk = &ssa.blocks[0];
        match &blk.stmts[1] {
            StmtInfo::Assign { use_vals, .. } => {
                assert_eq!(use_vals.len(), 2); // two occurrences of x
                for &u in use_vals {
                    assert_eq!(ssa.value(u), &ValueKind::Const(3));
                }
            }
            other => panic!("{other:?}"),
        }
        // Count occurrences via the CFG statement for cross-checking.
        let cfg = m.cfg(ssa.proc);
        if let CStmt::Assign { value, .. } = &cfg.block(BlockId(0)).stmts[1] {
            let mut n = 0;
            value.for_each_var(&mut |v| {
                assert_eq!(p.var(v).name, "x");
                n += 1;
            });
            assert_eq!(n, 2);
        }
    }

    #[test]
    fn exit_snapshots_record_final_values() {
        let (m, ssa) = ssa_for(
            "proc main() { call f(0); } proc f(a) { a = 41; a = a + 1; }",
            "f",
        );
        assert_eq!(ssa.exits.len(), 1);
        let f = m.module.proc_named("f").unwrap();
        let a = f.var_named("a").unwrap();
        let at_exit = ssa.exits[0].1[a.index()].unwrap();
        // a = 41 + 1 — constant folding happens later (SCCP), here it is
        // a Binary over Const.
        assert!(matches!(
            ssa.value(at_exit),
            ValueKind::Binary(BinOp::Add, _, _)
        ));
    }

    #[test]
    fn multiple_returns_record_multiple_exits() {
        let (_, ssa) = ssa_for(
            "proc main() { call f(1); } proc f(a) { if (a) { a = 1; return; } a = 2; }",
            "f",
        );
        assert_eq!(ssa.exits.len(), 2);
    }

    #[test]
    fn reads_are_unique_opaque_values() {
        let (_, ssa) = ssa_for("proc main() { read x; read y; print x + y; }", "main");
        assert_eq!(
            count_kind(&ssa, |k| matches!(k, ValueKind::ReadInput { .. })),
            2
        );
    }

    #[test]
    fn loads_are_opaque_per_occurrence() {
        let (_, ssa) = ssa_for(
            "proc main() { array t[4]; t[0] = 1; print t[0] + t[0]; }",
            "main",
        );
        assert_eq!(count_kind(&ssa, |k| matches!(k, ValueKind::Load { .. })), 2);
    }

    /// `users()` must equal, slice for slice, the naive table built by
    /// pushing each value onto its operands' lists in value order.
    fn assert_users_match_operands(ssa: &SsaProc) {
        let mut naive: Vec<Vec<ValueId>> = vec![Vec::new(); ssa.len()];
        for i in 0..ssa.len() {
            let v = ValueId::from(i);
            for op in ssa.operands(v) {
                naive[op.index()].push(v);
            }
        }
        let users = ssa.users();
        assert_eq!(users.len(), ssa.len());
        for (i, want) in naive.iter().enumerate() {
            assert_eq!(&users[i], want.as_slice(), "users of v{i}");
        }
    }

    #[test]
    fn users_are_inverse_of_operands() {
        let (_, ssa) = ssa_for(
            "proc main() { read a; x = a + 1; if (x > 2) { x = x * 3; } print x; }",
            "main",
        );
        assert_users_match_operands(&ssa);
    }

    #[test]
    fn unreachable_blocks_are_skipped() {
        let (_, ssa) = ssa_for("proc main() { return; x = 1; print x; }", "main");
        // The unreachable assignment produced no values beyond the initial
        // zero-init constant.
        assert_eq!(count_kind(&ssa, |k| matches!(k, ValueKind::Const(1))), 0);
    }
}
