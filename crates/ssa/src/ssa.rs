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

use crate::csr;
use crate::dominators::{frontiers_in, DomScratch, DomTree};
use crate::liveness::{self, Liveness};
use ipcp_analysis::modref::{worst_case_killed, ModRef};
use ipcp_ir::cfg::{BlockId, CStmt, CallSiteId, Cfg, ModuleCfg, Terminator};
use ipcp_ir::lang::ast::{BinOp, UnOp};
use ipcp_ir::program::{Arg, Expr, ProcId, VarId};
use std::cell::RefCell;
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

/// Analysis annotations for one CFG statement: a view into the flat
/// operand arrays of its [`SsaProc`], as [`SsaProc::stmts`] and
/// [`SsaProc::call_info`] return it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmtInfo<'a> {
    /// `dst = value`
    Assign {
        /// Value stored.
        value: ValueId,
        /// SSA value of each scalar-variable occurrence in the statement's
        /// expressions, in [`Expr::for_each_var`] order.
        use_vals: &'a [ValueId],
    },
    /// `array[index] = value`
    Store {
        /// Index value.
        index: ValueId,
        /// Stored value.
        value: ValueId,
        /// Variable-occurrence values (index first, then value).
        use_vals: &'a [ValueId],
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
        use_vals: &'a [ValueId],
    },
    /// `call callee(args…)`
    Call {
        /// The call site id.
        site: CallSiteId,
        /// Per actual argument: the SSA value flowing in (`None` for array
        /// actuals, which carry no scalar value).
        arg_vals: &'a [Option<ValueId>],
        /// The kill definitions this call creates: `(variable, CallDef)`.
        defs: &'a [(VarId, ValueId)],
        /// Variable-occurrence values inside by-value argument
        /// expressions (by-reference actuals are not substitutable uses).
        use_vals: &'a [ValueId],
        /// The SSA value of each scalar global **just before** the call,
        /// ordered per [`ipcp_ir::program::SlotLayout::scalar_globals`].
        /// Return-jump-function evaluation substitutes these for the
        /// callee's global entry slots.
        global_pre: &'a [ValueId],
    },
}

/// A half-open range of one of the flat operand arrays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The range from `start` to the current end of `pool`.
    fn since<T>(start: usize, pool: &[T]) -> Span {
        Span {
            start: as_u32(start),
            end: as_u32(pool.len()),
        }
    }

    fn of<T>(self, pool: &[T]) -> &[T] {
        &pool[self.start as usize..self.end as usize]
    }
}

fn as_u32(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(n) => n,
        Err(_) => unreachable!("SSA table larger than u32 entries"),
    }
}

/// One statement's annotation as stored: operand lists are spans of the
/// flat arrays in [`Flat`].
#[derive(Clone, Copy, Debug)]
enum StmtRec {
    Assign {
        value: ValueId,
        uses: Span,
    },
    Store {
        index: ValueId,
        value: ValueId,
        uses: Span,
    },
    Read {
        def: ValueId,
    },
    Print {
        value: ValueId,
        uses: Span,
    },
    Call {
        site: CallSiteId,
        args: Span,
        defs: Span,
        uses: Span,
        globals: Span,
    },
}

/// One block's annotation as stored.
#[derive(Clone, Copy, Debug, Default)]
struct BlockRec {
    /// Phi values at the head of the block (in `vals`).
    phis: Span,
    /// The block's statements (in `stmts`), in order.
    stmts: Span,
    term_cond: Option<ValueId>,
    /// Variable occurrences in the branch condition (in `vals`).
    term_uses: Span,
}

/// The flat storage behind every per-block, per-statement and per-phi
/// list of an [`SsaProc`]: a handful of arrays per procedure instead of
/// one allocation per list.
#[derive(Clone, Debug, Default)]
struct Flat {
    /// One record per CFG block; unreachable blocks keep empty spans.
    blocks: Vec<BlockRec>,
    stmts: Vec<StmtRec>,
    /// Block phis, use lists and `global_pre` lists.
    vals: Vec<ValueId>,
    /// Call `arg_vals` and exit snapshots.
    opt_vals: Vec<Option<ValueId>>,
    defs: Vec<(VarId, ValueId)>,
    /// Each reachable `return`: its block and its snapshot (in
    /// `opt_vals`).
    exits: Vec<(BlockId, Span)>,
    /// Phi arguments per value:
    /// `phi_args[phi_offsets[v]..phi_offsets[v + 1]]`.
    phi_offsets: Vec<u32>,
    phi_args: Vec<(BlockId, ValueId)>,
}

impl Flat {
    fn clear(&mut self) {
        self.blocks.clear();
        self.stmts.clear();
        self.vals.clear();
        self.opt_vals.clear();
        self.defs.clear();
        self.exits.clear();
        self.phi_offsets.clear();
        self.phi_args.clear();
    }

    fn view(&self, r: &StmtRec) -> StmtInfo<'_> {
        match *r {
            StmtRec::Assign { value, uses } => StmtInfo::Assign {
                value,
                use_vals: uses.of(&self.vals),
            },
            StmtRec::Store { index, value, uses } => StmtInfo::Store {
                index,
                value,
                use_vals: uses.of(&self.vals),
            },
            StmtRec::Read { def } => StmtInfo::Read { def },
            StmtRec::Print { value, uses } => StmtInfo::Print {
                value,
                use_vals: uses.of(&self.vals),
            },
            StmtRec::Call {
                site,
                args,
                defs,
                uses,
                globals,
            } => StmtInfo::Call {
                site,
                arg_vals: args.of(&self.opt_vals),
                defs: defs.of(&self.defs),
                use_vals: uses.of(&self.vals),
                global_pre: globals.of(&self.vals),
            },
        }
    }
}

/// SSA form of one procedure.
///
/// Every list — phi arguments, each block's phis and statements, each
/// statement's operands, the exit snapshots — lives in one of a few flat
/// arrays and is read through a slice-returning accessor.
#[derive(Clone, Debug)]
pub struct SsaProc {
    /// The procedure this SSA form describes.
    pub proc: ProcId,
    /// All values.
    pub values: Vec<ValueKind>,
    /// Dominator tree used during construction.
    pub dom: DomTree,
    /// The entry value created for each variable (`None` for arrays and
    /// for locals, which start as the constant 0 rather than an opaque
    /// entry value).
    pub entry_vals: Vec<Option<ValueId>>,
    /// Location of each reachable call site: `call_sites[site] = (block,
    /// statement index)`. Unreachable sites map to `None`.
    pub call_sites: Vec<Option<(BlockId, usize)>>,
    flat: Flat,
}

/// Equality is structural over what the accessors return, not over how
/// the flat arrays happen to be laid out.
impl PartialEq for SsaProc {
    fn eq(&self, other: &SsaProc) -> bool {
        self.proc == other.proc
            && self.values == other.values
            && self.dom == other.dom
            && self.entry_vals == other.entry_vals
            && self.call_sites == other.call_sites
            && (0..self.len()).all(|v| {
                let v = ValueId::from(v);
                self.phi_args(v) == other.phi_args(v)
            })
            && self.n_blocks() == other.n_blocks()
            && (0..self.n_blocks()).all(|b| {
                let b = BlockId::from(b);
                self.phis(b) == other.phis(b)
                    && self.stmts(b).eq(other.stmts(b))
                    && self.term_cond(b) == other.term_cond(b)
                    && self.term_use_vals(b) == other.term_use_vals(b)
            })
            && self.exits().eq(other.exits())
    }
}

impl Eq for SsaProc {}

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

    /// For a phi value: its `(predecessor block, incoming value)` pairs,
    /// in the order renaming reached the predecessors. Empty for
    /// non-phis.
    pub fn phi_args(&self, v: ValueId) -> &[(BlockId, ValueId)] {
        let (lo, hi) = (
            self.flat.phi_offsets[v.index()],
            self.flat.phi_offsets[v.index() + 1],
        );
        &self.flat.phi_args[lo as usize..hi as usize]
    }

    /// Number of CFG blocks, reachable or not.
    pub fn n_blocks(&self) -> usize {
        self.flat.blocks.len()
    }

    /// Phi values defined at the head of block `b`.
    pub fn phis(&self, b: BlockId) -> &[ValueId] {
        self.flat.blocks[b.index()].phis.of(&self.flat.vals)
    }

    /// One annotation per CFG statement of block `b`, in order (none for
    /// an unreachable block).
    pub fn stmts(&self, b: BlockId) -> impl ExactSizeIterator<Item = StmtInfo<'_>> + '_ {
        let span = self.flat.blocks[b.index()].stmts;
        span.of(&self.flat.stmts)
            .iter()
            .map(move |r| self.flat.view(r))
    }

    /// The annotation of statement `i` of block `b`, if there is one.
    pub fn stmt(&self, b: BlockId, i: usize) -> Option<StmtInfo<'_>> {
        let span = self.flat.blocks.get(b.index())?.stmts;
        span.of(&self.flat.stmts).get(i).map(|r| self.flat.view(r))
    }

    /// The branch condition value, if block `b` ends in a branch.
    pub fn term_cond(&self, b: BlockId) -> Option<ValueId> {
        self.flat.blocks[b.index()].term_cond
    }

    /// Variable-occurrence values in block `b`'s branch condition.
    pub fn term_use_vals(&self, b: BlockId) -> &[ValueId] {
        self.flat.blocks[b.index()].term_uses.of(&self.flat.vals)
    }

    /// For every reachable `return`: its block, and the SSA value of each
    /// scalar formal and global at that exit (`None` for arrays and
    /// locals), indexed by `VarId`.
    pub fn exits(&self) -> impl ExactSizeIterator<Item = (BlockId, &[Option<ValueId>])> + '_ {
        self.flat
            .exits
            .iter()
            .map(|&(b, span)| (b, span.of(&self.flat.opt_vals)))
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
                for &(_, a) in self.phi_args(v) {
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
    pub fn call_info(&self, site: CallSiteId) -> Option<StmtInfo<'_>> {
        let (b, i) = self.call_sites.get(site.index()).copied().flatten()?;
        self.stmt(b, i)
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
        (0..self.n_blocks()).flat_map(move |bi| {
            let b = BlockId::from(bi);
            self.stmts(b).filter_map(move |s| match s {
                StmtInfo::Call {
                    site,
                    arg_vals,
                    defs,
                    ..
                } => Some((b, site, arg_vals, defs)),
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
    /// Appends to `out` the caller-side variables possibly modified by
    /// `call callee(args…)` inside `caller`.
    fn killed(
        &self,
        mcfg: &ModuleCfg,
        caller: ProcId,
        callee: ProcId,
        args: &[Arg],
        out: &mut Vec<VarId>,
    );
}

/// MOD-precise kills.
#[derive(Clone, Copy, Debug)]
pub struct ModKills<'a>(pub &'a ModRef);

impl CallKills for ModKills<'_> {
    fn killed(
        &self,
        mcfg: &ModuleCfg,
        caller: ProcId,
        callee: ProcId,
        args: &[Arg],
        out: &mut Vec<VarId>,
    ) {
        self.0.killed_by_call(mcfg, caller, callee, args, out);
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
        out: &mut Vec<VarId>,
    ) {
        worst_case_killed(mcfg, caller, args, out);
    }
}

/// Builds minimal SSA for procedure `proc` of `mcfg`.
///
/// Only reachable blocks are processed; annotations for unreachable blocks
/// stay empty.
pub fn build_ssa(mcfg: &ModuleCfg, proc: ProcId, kills: &dyn CallKills) -> SsaProc {
    with_scratch(|s| Builder::new(mcfg, proc, kills, None, s).run())
}

/// Builds *pruned* SSA: phi nodes are placed only where the variable is
/// live (per the conservative [`liveness`] analysis), eliminating the
/// dead phis minimal SSA creates. Analyses over the two forms agree — a
/// property the integration tests check — because pruned-away phis were
/// never observable.
pub fn build_ssa_pruned(mcfg: &ModuleCfg, proc: ProcId, kills: &dyn CallKills) -> SsaProc {
    let live = liveness::compute(mcfg.module.proc(proc), mcfg.cfg(proc));
    with_scratch(|s| Builder::new(mcfg, proc, kills, Some(&live), s).run())
}

/// Working memory for building SSA, kept per thread so that building a
/// whole program's forms allocates little beyond the forms themselves.
/// Every field is cleared before use.
#[derive(Default)]
struct Scratch {
    /// The form under construction; copied out exact-sized at the end.
    values: Vec<ValueKind>,
    flat: Flat,
    entry_vals: Vec<Option<ValueId>>,
    call_sites: Vec<Option<(BlockId, usize)>>,
    interned: HashMap<ValueKind, ValueId>,
    dom: DomScratch,
    /// Dominance frontiers, flat by block.
    df_offsets: Vec<u32>,
    df: Vec<BlockId>,
    /// The current definition of every scalar variable during renaming,
    /// and the `(variable, previous definition)` log that unwinds it.
    current: Vec<ValueId>,
    undo: Vec<(VarId, ValueId)>,
    /// Every reachable call's kill list, flat; `kill_spans[site]` is its
    /// range.
    killed: Vec<VarId>,
    kill_spans: Vec<Span>,
    /// Definition blocks per variable, flat:
    /// `def_blocks[def_offsets[v]..def_offsets[v + 1]]`.
    def_offsets: Vec<u32>,
    def_blocks: Vec<BlockId>,
    def_pairs: Vec<(VarId, BlockId)>,
    /// `phi_mark[b] == v + 1` once variable `v` has a phi at `b`.
    phi_mark: Vec<u32>,
    /// Per-block offsets or counts, reused by each step that needs one.
    offsets: Vec<u32>,
    work: Vec<BlockId>,
    /// Phis in creation order, with their blocks.
    new_phis: Vec<(BlockId, ValueId)>,
    /// The next free argument slot of each phi.
    phi_cursor: Vec<u32>,
    agenda: Vec<Event>,
    global_vars: Vec<VarId>,
}

/// A renaming step: enter a block, or unwind the definitions made since
/// the undo log had the given length.
enum Event {
    Enter(BlockId),
    Exit(usize),
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on this thread's scratch, or on a fresh one if it is in use.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut Scratch::default()),
    })
}

/// No definition (array variables are never renamed).
const UNDEFINED: ValueId = ValueId(u32::MAX);

struct Builder<'a> {
    mcfg: &'a ModuleCfg,
    cfg: &'a Cfg,
    proc: ProcId,
    kills: &'a dyn CallKills,
    /// Liveness for pruned phi placement (`None` = minimal SSA).
    live: Option<&'a Liveness>,
    read_seq: u32,
    s: &'a mut Scratch,
}

impl<'a> Builder<'a> {
    fn new(
        mcfg: &'a ModuleCfg,
        proc: ProcId,
        kills: &'a dyn CallKills,
        live: Option<&'a Liveness>,
        s: &'a mut Scratch,
    ) -> Self {
        Builder {
            mcfg,
            cfg: mcfg.cfg(proc),
            proc,
            kills,
            live,
            read_seq: 0,
            s,
        }
    }

    fn fresh(&mut self, kind: ValueKind) -> ValueId {
        let id = ValueId::from(self.s.values.len());
        self.s.values.push(kind);
        id
    }

    /// Hash-consing for pure nodes; other kinds are always fresh.
    fn intern(&mut self, kind: ValueKind) -> ValueId {
        match kind {
            ValueKind::Const(_)
            | ValueKind::Unary(..)
            | ValueKind::Binary(..)
            | ValueKind::Entry { .. } => {
                if let Some(&v) = self.s.interned.get(&kind) {
                    return v;
                }
                let v = self.fresh(kind.clone());
                self.s.interned.insert(kind, v);
                v
            }
            other => self.fresh(other),
        }
    }

    fn run(mut self) -> SsaProc {
        let (cfg, p) = (self.cfg, self.mcfg.module.proc(self.proc));
        let (n_blocks, n_vars) = (cfg.len(), p.vars.len());
        let dom = DomTree::build_in(cfg, &mut self.s.dom);
        {
            let s = &mut *self.s;
            s.values.clear();
            s.flat.clear();
            s.flat.blocks.resize(n_blocks, BlockRec::default());
            s.entry_vals.clear();
            s.entry_vals.resize(n_vars, None);
            s.call_sites.clear();
            s.call_sites.resize(cfg.n_call_sites, None);
            s.interned.clear();
            s.current.clear();
            s.current.resize(n_vars, UNDEFINED);
            s.undo.clear();
            s.killed.clear();
            s.kill_spans.clear();
            s.kill_spans.resize(cfg.n_call_sites, Span::default());
            s.def_pairs.clear();
            s.new_phis.clear();
            s.agenda.clear();
            // Only the scalar-global id list is needed here — building a
            // full `SlotLayout` would intern every procedure's slot names,
            // turning each per-procedure SSA build into O(module) and the
            // whole jump phase quadratic (caught by the 10k scale tier).
            s.global_vars.clear();
            for g in self.mcfg.module.scalar_global_ids() {
                match p.var_for_global(g) {
                    Some(v) => s.global_vars.push(v),
                    None => unreachable!("every procedure aliases every scalar global"),
                }
            }
        }

        // Initial definitions: formals and globals get opaque entry
        // values; scalar locals start at the constant 0.
        for (vi, info) in p.vars.iter().enumerate() {
            if info.is_array {
                continue;
            }
            let var = VarId::from(vi);
            let init = if info.is_formal() || info.is_global() {
                let e = self.intern(ValueKind::Entry { var });
                self.s.entry_vals[vi] = Some(e);
                e
            } else {
                self.intern(ValueKind::Const(0))
            };
            self.s.current[vi] = init;
        }

        self.collect_defs(&dom, n_vars);
        self.place_phis(&dom, n_vars);

        // Renaming: preorder walk of the dominator tree with explicit
        // enter/exit events so definitions unwind correctly.
        self.s.agenda.push(Event::Enter(cfg.entry));
        while let Some(ev) = self.s.agenda.pop() {
            match ev {
                Event::Exit(mark) => {
                    let s = &mut *self.s;
                    for (v, prev) in s.undo.drain(mark..).rev() {
                        s.current[v.index()] = prev;
                    }
                }
                Event::Enter(b) => {
                    let mark = self.s.undo.len();
                    self.rename_block(b);
                    self.s.agenda.push(Event::Exit(mark));
                    for &c in dom.children(b).iter().rev() {
                        self.s.agenda.push(Event::Enter(c));
                    }
                }
            }
        }

        // Values created during renaming take no phi arguments.
        let s = &mut *self.s;
        let total = as_u32(s.flat.phi_args.len());
        s.flat.phi_offsets.resize(s.values.len() + 1, total);
        SsaProc {
            proc: self.proc,
            values: s.values.clone(),
            dom,
            entry_vals: s.entry_vals.clone(),
            call_sites: s.call_sites.clone(),
            flat: s.flat.clone(),
        }
    }

    /// Asks for every reachable call's kill list once, and records each
    /// scalar variable's definition blocks (in block, then statement
    /// order).
    fn collect_defs(&mut self, dom: &DomTree, n_vars: usize) {
        let (cfg, p) = (self.cfg, self.mcfg.module.proc(self.proc));
        let s = &mut *self.s;
        for (bi, blk) in cfg.blocks.iter().enumerate() {
            let bid = BlockId::from(bi);
            if !dom.is_reachable(bid) {
                continue;
            }
            for st in &blk.stmts {
                match st {
                    CStmt::Assign { dst, .. } | CStmt::Read { dst } => {
                        s.def_pairs.push((*dst, bid))
                    }
                    CStmt::Call { callee, args, site } => {
                        let start = s.killed.len();
                        self.kills
                            .killed(self.mcfg, self.proc, *callee, args, &mut s.killed);
                        s.kill_spans[site.index()] = Span::since(start, &s.killed);
                        for &v in &s.killed[start..] {
                            if !p.var(v).is_array {
                                s.def_pairs.push((v, bid));
                            }
                        }
                    }
                    CStmt::Store { .. } | CStmt::Print { .. } => {}
                }
            }
        }
        let (offsets, blocks) = (&mut s.def_offsets, &mut s.def_blocks);
        csr::group(
            &s.def_pairs,
            n_vars,
            |p| p.0.index(),
            |p| p.1,
            offsets,
            blocks,
        );
    }

    /// Phi placement at iterated dominance frontiers (minimal SSA, or
    /// pruned by liveness), then the phi argument slots: one per
    /// reachable incoming edge of the phi's block, filled during renaming.
    fn place_phis(&mut self, dom: &DomTree, n_vars: usize) {
        let cfg = self.cfg;
        let n_blocks = cfg.len();
        {
            let s = &mut *self.s;
            frontiers_in(dom, &mut s.dom, &mut s.df_offsets, &mut s.df);
            s.phi_mark.clear();
            s.phi_mark.resize(n_blocks, 0);
        }
        let first_phi = self.s.values.len();
        for vi in 0..n_vars {
            let var = VarId::from(vi);
            let mark = as_u32(vi + 1);
            let s = &mut *self.s;
            s.work.clear();
            s.work
                .extend_from_slice(csr::row(&s.def_offsets, &s.def_blocks, vi));
            while let Some(b) = self.s.work.pop() {
                let (lo, hi) = (
                    self.s.df_offsets[b.index()],
                    self.s.df_offsets[b.index() + 1],
                );
                for k in lo as usize..hi as usize {
                    let d = self.s.df[k];
                    if self.s.phi_mark[d.index()] == mark {
                        continue;
                    }
                    // Pruned SSA: skip phis for variables dead at the join
                    // (a pruned phi is not a def, so don't iterate from it).
                    if let Some(live) = self.live {
                        if !live.live_at(d, var) {
                            continue;
                        }
                    }
                    self.s.phi_mark[d.index()] = mark;
                    let phi = self.fresh(ValueKind::Phi { block: d, var });
                    self.s.new_phis.push((d, phi));
                    self.s.work.push(d);
                }
            }
        }

        let s = &mut *self.s;
        // Each block's phis, in creation order, head the `vals` array.
        let (offsets, vals) = (&mut s.offsets, &mut s.flat.vals);
        csr::group(
            &s.new_phis,
            n_blocks,
            |p| p.0.index(),
            |p| p.1,
            offsets,
            vals,
        );
        for (bi, blk) in s.flat.blocks.iter_mut().enumerate() {
            blk.phis = Span {
                start: s.offsets[bi],
                end: s.offsets[bi + 1],
            };
        }

        // Argument slots: a phi at `b` takes one argument per edge into
        // `b` from a reachable block.
        let in_edges = &mut s.offsets;
        in_edges.clear();
        in_edges.resize(n_blocks, 0);
        for (bi, blk) in cfg.blocks.iter().enumerate() {
            if dom.is_reachable(BlockId::from(bi)) {
                for t in blk.term.successor_iter() {
                    in_edges[t.index()] += 1;
                }
            }
        }
        let offsets = &mut s.flat.phi_offsets;
        offsets.clear();
        offsets.resize(first_phi + 1, 0);
        for &(d, _) in &s.new_phis {
            offsets.push(offsets[offsets.len() - 1] + in_edges[d.index()]);
        }
        s.phi_cursor.clear();
        s.phi_cursor
            .extend_from_slice(&offsets[first_phi..offsets.len() - 1]);
        let total = offsets[offsets.len() - 1] as usize;
        s.flat.phi_args.resize(total, (cfg.entry, UNDEFINED));
    }

    /// Pushes a definition of `v`, to be unwound on leaving the block.
    fn define(&mut self, v: VarId, val: ValueId) {
        let prev = std::mem::replace(&mut self.s.current[v.index()], val);
        self.s.undo.push((v, prev));
    }

    fn current(&self, v: VarId) -> ValueId {
        let val = self.s.current[v.index()];
        if val == UNDEFINED {
            unreachable!("scalar variable has an initial definition");
        }
        val
    }

    /// Renames one block: its phis, statements and terminator, then the
    /// arguments it passes to its successors' phis.
    fn rename_block(&mut self, b: BlockId) {
        let cfg = self.cfg;
        let phis = self.s.flat.blocks[b.index()].phis;
        for i in phis.start as usize..phis.end as usize {
            let phi = self.s.flat.vals[i];
            if let ValueKind::Phi { var, .. } = self.s.values[phi.index()] {
                self.define(var, phi);
            }
        }

        let stmts_start = self.s.flat.stmts.len();
        for (si, st) in cfg.block(b).stmts.iter().enumerate() {
            let rec = match st {
                CStmt::Assign { dst, value } => {
                    let start = self.s.flat.vals.len();
                    let v = self.lower_expr(value);
                    let uses = Span::since(start, &self.s.flat.vals);
                    self.define(*dst, v);
                    StmtRec::Assign { value: v, uses }
                }
                CStmt::Store { index, value, .. } => {
                    let start = self.s.flat.vals.len();
                    let i = self.lower_expr(index);
                    let v = self.lower_expr(value);
                    StmtRec::Store {
                        index: i,
                        value: v,
                        uses: Span::since(start, &self.s.flat.vals),
                    }
                }
                CStmt::Read { dst } => {
                    let seq = self.read_seq;
                    self.read_seq += 1;
                    let v = self.fresh(ValueKind::ReadInput { seq });
                    self.define(*dst, v);
                    StmtRec::Read { def: v }
                }
                CStmt::Print { value } => {
                    let start = self.s.flat.vals.len();
                    let v = self.lower_expr(value);
                    StmtRec::Print {
                        value: v,
                        uses: Span::since(start, &self.s.flat.vals),
                    }
                }
                CStmt::Call { callee, args, site } => self.rename_call(b, si, *site, *callee, args),
            };
            self.s.flat.stmts.push(rec);
        }
        let stmts = Span::since(stmts_start, &self.s.flat.stmts);
        self.s.flat.blocks[b.index()].stmts = stmts;

        // Terminator.
        match &cfg.block(b).term {
            Terminator::Branch { cond, .. } => {
                let start = self.s.flat.vals.len();
                let c = self.lower_expr(cond);
                let blk = &mut self.s.flat.blocks[b.index()];
                blk.term_cond = Some(c);
                blk.term_uses = Span::since(start, &self.s.flat.vals);
            }
            Terminator::Return => {
                let p = self.mcfg.module.proc(self.proc);
                // Only formals and globals: they are what return jump
                // functions consume, and what liveness keeps alive at
                // exits under pruned SSA.
                let s = &mut *self.s;
                let start = s.flat.opt_vals.len();
                for (vi, info) in p.vars.iter().enumerate() {
                    let keep = !info.is_array && (info.is_formal() || info.is_global());
                    s.flat.opt_vals.push(keep.then_some(s.current[vi]));
                }
                let span = Span::since(start, &s.flat.opt_vals);
                s.flat.exits.push((b, span));
            }
            Terminator::Jump(_) => {}
        }

        // Fill phi arguments in successors.
        let first_phi = match self.s.new_phis.first() {
            Some(&(_, phi)) => phi.index(),
            None => return,
        };
        for succ in cfg.block(b).term.successor_iter() {
            let phis = self.s.flat.blocks[succ.index()].phis;
            for i in phis.start as usize..phis.end as usize {
                let phi = self.s.flat.vals[i];
                if let ValueKind::Phi { var, .. } = self.s.values[phi.index()] {
                    let incoming = self.current(var);
                    let s = &mut *self.s;
                    let at = &mut s.phi_cursor[phi.index() - first_phi];
                    s.flat.phi_args[*at as usize] = (b, incoming);
                    *at += 1;
                }
            }
        }
    }

    /// Renames call statement `si` of block `b`: its actuals, the globals
    /// just before it, and a fresh definition per variable it kills.
    fn rename_call(
        &mut self,
        b: BlockId,
        si: usize,
        site: CallSiteId,
        callee: ProcId,
        args: &[Arg],
    ) -> StmtRec {
        let uses_start = self.s.flat.vals.len();
        let args_start = self.s.flat.opt_vals.len();
        for a in args {
            let val = match a {
                Arg::Scalar(v, _) => Some(self.current(*v)),
                Arg::Array(..) => None,
                Arg::Value(e) => Some(self.lower_expr(e)),
            };
            self.s.flat.opt_vals.push(val);
        }
        let s = &mut *self.s;
        let uses = Span::since(uses_start, &s.flat.vals);
        let arg_span = Span::since(args_start, &s.flat.opt_vals);
        // Values of the scalar globals before the kill defs.
        let globals_start = s.flat.vals.len();
        for &g in &s.global_vars {
            s.flat.vals.push(s.current[g.index()]);
        }
        let globals = Span::since(globals_start, &s.flat.vals);
        let defs_start = s.flat.defs.len();
        let p = self.mcfg.module.proc(self.proc);
        let kills = self.s.kill_spans[site.index()];
        for k in kills.start as usize..kills.end as usize {
            let v = self.s.killed[k];
            if p.var(v).is_array {
                continue; // arrays are not renamed
            }
            let d = self.fresh(ValueKind::CallDef {
                site,
                callee,
                var: v,
            });
            self.define(v, d);
            self.s.flat.defs.push((v, d));
        }
        self.s.call_sites[site.index()] = Some((b, si));
        StmtRec::Call {
            site,
            args: arg_span,
            defs: Span::since(defs_start, &self.s.flat.defs),
            uses,
            globals,
        }
    }

    /// Lowers `e` to a value, appending the value of each variable
    /// occurrence to the `vals` array.
    fn lower_expr(&mut self, e: &Expr) -> ValueId {
        match e {
            Expr::Const(c, _) => self.intern(ValueKind::Const(*c)),
            Expr::Var(v, _) => {
                let val = self.current(*v);
                self.s.flat.vals.push(val);
                val
            }
            Expr::Load(arr, idx, _) => {
                let i = self.lower_expr(idx);
                self.fresh(ValueKind::Load {
                    array: *arr,
                    index: i,
                })
            }
            Expr::Unary(op, x, _) => {
                let xv = self.lower_expr(x);
                self.intern(ValueKind::Unary(*op, xv))
            }
            Expr::Binary(op, l, r, _) => {
                let lv = self.lower_expr(l);
                let rv = self.lower_expr(r);
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
        let args = ssa.phi_args(phi);
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
        match ssa.stmt(BlockId(0), 0) {
            Some(StmtInfo::Print { value, .. }) => {
                assert_eq!(ssa.value(value), &ValueKind::Const(0));
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
        match ssa.stmt(BlockId(0), 1) {
            Some(StmtInfo::Assign { use_vals, .. }) => {
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
        assert_eq!(ssa.exits().len(), 1);
        let f = m.module.proc_named("f").unwrap();
        let a = f.var_named("a").unwrap();
        let at_exit = ssa.exits().next().unwrap().1[a.index()].unwrap();
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
        assert_eq!(ssa.exits().len(), 2);
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
