//! Resolved program representation: names become dense ids, procedures get
//! symbol tables, and call sites are checked against procedure signatures.
//!
//! The resolved [`Module`] is the input to everything downstream: the CFG
//! lowering, the interpreters, MOD/REF analysis and the interprocedural
//! constant propagation pipeline.

use crate::error::{Diagnostic, Diagnostics};
use crate::hash::TextHash;
use crate::lang::{ast, Build, Item, Parser};
use crate::span::Span;
use crate::table::Table;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a usable index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(u32::try_from(i).expect("id overflow"))
            }
        }
    };
}

id_type! {
    /// Index of a global variable in [`Module::globals`].
    GlobalId
}
id_type! {
    /// Index of a procedure in [`Module::procs`].
    ProcId
}
id_type! {
    /// Index of a variable in its procedure's [`Proc::vars`] table.
    ///
    /// `VarId`s are per-procedure; the same numeric id in two procedures
    /// names unrelated variables (except that globals resolve to a `VarId`
    /// in each procedure that references them, linked via [`VarKind::Global`]).
    VarId
}

/// What kind of variable a [`VarInfo`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// The `n`-th formal parameter of the enclosing procedure.
    Formal(usize),
    /// A procedure-local variable (implicitly declared on first assignment,
    /// or via `array`).
    Local,
    /// A reference to the module-level global with the given id.
    Global(GlobalId),
}

/// Per-procedure symbol-table entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarInfo {
    /// Source name.
    pub name: String,
    /// Formal / local / global.
    pub kind: VarKind,
    /// Whether the variable holds an array (true) or a scalar (false).
    pub is_array: bool,
    /// Declared length for local/global arrays; `None` for scalars and for
    /// array formals (whose length comes from the actual argument).
    pub array_len: Option<i64>,
}

impl VarInfo {
    /// Whether this entry is a formal parameter.
    pub fn is_formal(&self) -> bool {
        matches!(self.kind, VarKind::Formal(_))
    }

    /// Whether this entry refers to a global.
    pub fn is_global(&self) -> bool {
        matches!(self.kind, VarKind::Global(_))
    }
}

/// A module-level variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalInfo {
    /// Source name.
    pub name: String,
    /// `Some(len)` when the global is an array.
    pub array_len: Option<i64>,
}

impl GlobalInfo {
    /// Whether the global is an array.
    pub fn is_array(&self) -> bool {
        self.array_len.is_some()
    }
}

/// A resolved expression. Mirrors [`ast::Expr`] with ids for names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Const(i64, Span),
    /// Scalar variable use.
    Var(VarId, Span),
    /// Array element load.
    Load(VarId, Box<Expr>, Span),
    /// Unary operation.
    Unary(ast::UnOp, Box<Expr>, Span),
    /// Binary operation.
    Binary(ast::BinOp, Box<Expr>, Box<Expr>, Span),
}

impl Expr {
    /// Source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Const(_, s)
            | Expr::Var(_, s)
            | Expr::Load(_, _, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s) => *s,
        }
    }

    /// Whether the expression is a literal constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Expr::Const(..))
    }

    /// Visits every scalar variable use (including array index
    /// subexpressions) in evaluation order.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Const(..) => {}
            Expr::Var(v, _) => f(*v),
            Expr::Load(_, idx, _) => idx.for_each_var(f),
            Expr::Unary(_, e, _) => e.for_each_var(f),
            Expr::Binary(_, l, r, _) => {
                l.for_each_var(f);
                r.for_each_var(f);
            }
        }
    }
}

/// How an actual argument is passed at a call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Arg {
    /// A bare scalar variable: passed **by reference** (FORTRAN style);
    /// the callee may modify it.
    Scalar(VarId, Span),
    /// A bare array variable: the whole array is passed by reference.
    Array(VarId, Span),
    /// Any other expression: evaluated and passed **by value** (copy-in,
    /// no copy-out).
    Value(Expr),
}

impl Arg {
    /// Source span of the argument.
    pub fn span(&self) -> Span {
        match self {
            Arg::Scalar(_, s) | Arg::Array(_, s) => *s,
            Arg::Value(e) => e.span(),
        }
    }

    /// The literal value if the argument is a syntactic integer literal —
    /// the information the *literal constant jump function* is allowed
    /// to use.
    pub fn literal(&self) -> Option<i64> {
        match self {
            Arg::Value(Expr::Const(v, _)) => Some(*v),
            _ => None,
        }
    }
}

/// A resolved statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// Scalar assignment.
    Assign(VarId, Expr, Span),
    /// Array element store.
    Store(VarId, Expr, Expr, Span),
    /// Conditional.
    If(Expr, Block, Block, Span),
    /// Pre-tested loop.
    While(Expr, Block, Span),
    /// FORTRAN counted loop; `hi`/`step` evaluated once on entry.
    Do {
        /// Induction variable (a scalar).
        var: VarId,
        /// Initial value.
        lo: Expr,
        /// Inclusive bound.
        hi: Expr,
        /// Step; `None` means 1.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
        /// Statement span.
        span: Span,
    },
    /// Procedure call.
    Call(ProcId, Vec<Arg>, Span),
    /// Early return.
    Return(Span),
    /// Input.
    Read(VarId, Span),
    /// Output.
    Print(Expr, Span),
}

impl Stmt {
    /// Source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign(_, _, s)
            | Stmt::Store(_, _, _, s)
            | Stmt::If(_, _, _, s)
            | Stmt::While(_, _, s)
            | Stmt::Do { span: s, .. }
            | Stmt::Call(_, _, s)
            | Stmt::Return(s)
            | Stmt::Read(_, s)
            | Stmt::Print(_, s) => *s,
        }
    }
}

/// A resolved statement sequence.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
}

/// A resolved procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proc {
    /// Source name.
    pub name: String,
    /// This procedure's id within the module.
    pub id: ProcId,
    /// Symbol table: formals first (in parameter order), then locals and
    /// referenced globals in order of first mention.
    pub vars: Vec<VarInfo>,
    /// Ids of the formal parameters, in order (`vars[formals[i]]` has
    /// `VarKind::Formal(i)`).
    pub formals: Vec<VarId>,
    /// The body.
    pub body: Block,
    /// Header span.
    pub span: Span,
}

impl Proc {
    /// Looks up the symbol-table entry for `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this procedure.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Finds a variable by source name.
    pub fn var_named(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|vi| vi.name == name)
            .map(VarId::from)
    }

    /// Number of formal parameters.
    pub fn arity(&self) -> usize {
        self.formals.len()
    }

    /// `e`, an expression of this procedure, as FT source with minimal
    /// parentheses.
    pub(crate) fn display_expr<'a>(&'a self, e: &'a Expr) -> impl fmt::Display + 'a {
        ExprSource(self, e, 0)
    }

    /// The `VarId` this procedure uses for global `g`, if it references it.
    pub fn var_for_global(&self, g: GlobalId) -> Option<VarId> {
        self.vars
            .iter()
            .position(|vi| vi.kind == VarKind::Global(g))
            .map(VarId::from)
    }
}

/// A fully resolved, semantically checked module.
#[derive(Clone, PartialEq, Eq)]
pub struct Module {
    /// Module-level variables.
    pub globals: Vec<GlobalInfo>,
    /// All procedures, each behind its own [`Arc`] in a chunked
    /// copy-on-write [`Table`]: cloning a module shares every procedure,
    /// and a pass that rewrites one procedure copies only that one
    /// (`Arc::make_mut`) and the table chunk holding it.
    pub procs: Table<Arc<Proc>>,
    /// The entry procedure (`main`, which must take no parameters).
    pub entry: ProcId,
    /// The name and signature table the resolution built, shared by every
    /// clone of the module.
    sigs: SharedSigs,
}

/// A program's name and signature table: global and procedure names to
/// ids, and each procedure's arity. Resolution builds it once; every
/// module derived from that resolution shares it by [`Arc`], and so does a
/// replacement resolved against it ([`resolve_replacement`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Signatures {
    global_ids: HashMap<String, GlobalId>,
    proc_ids: HashMap<String, ProcId>,
    arities: Vec<usize>,
}

/// The table a module holds. It is derived from the module's own globals
/// and procedures, so it takes no part in equality or in the module's
/// `Debug` output.
#[derive(Clone, Default)]
struct SharedSigs(Arc<Signatures>);

impl PartialEq for SharedSigs {
    fn eq(&self, _: &SharedSigs) -> bool {
        true
    }
}

impl Eq for SharedSigs {}

impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("globals", &self.globals)
            .field("procs", &self.procs)
            .field("entry", &self.entry)
            .finish()
    }
}

impl Module {
    /// Looks up a procedure by id.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn proc(&self, p: ProcId) -> &Proc {
        &self.procs[p.index()]
    }

    /// Finds a procedure by source name: a hash lookup in the module's
    /// signature table, or a scan when procedures were added after
    /// resolution (procedure cloning).
    pub fn proc_named(&self, name: &str) -> Option<&Proc> {
        let table = &self.sigs.0;
        if table.arities.len() == self.procs.len() {
            return table.proc_ids.get(name).map(|&id| self.proc(id));
        }
        self.procs.iter().map(|p| &**p).find(|p| p.name == name)
    }

    /// Ids of the scalar (non-array) globals — the ones whose values the
    /// interprocedural analysis tracks.
    pub fn scalar_global_ids(&self) -> Vec<GlobalId> {
        self.globals
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_array())
            .map(|(i, _)| GlobalId::from(i))
            .collect()
    }

    /// Renders the module as FT source: its globals, then each procedure
    /// as [`Module::proc_source`] prints it, a blank line before each. For
    /// a module resolved from `src`, this is what [`crate::lang::pretty::program`]
    /// renders for the parsed `src` when every local `array` declaration
    /// opens its procedure's body.
    pub fn to_source(&self) -> String {
        self.source_with(None)
    }

    /// [`Module::to_source`] with the definition of procedure `id`
    /// replaced by `text`, verbatim.
    pub fn to_source_replacing(&self, id: ProcId, text: &str) -> String {
        self.source_with(Some((id, text)))
    }

    fn source_with(&self, replace: Option<(ProcId, &str)>) -> String {
        let mut out = String::new();
        for g in &self.globals {
            let _ = match g.array_len {
                Some(len) => writeln!(out, "global {}[{len}];", g.name),
                None => writeln!(out, "global {};", g.name),
            };
        }
        for (i, p) in self.procs.iter().enumerate() {
            if i > 0 || !self.globals.is_empty() {
                out.push('\n');
            }
            match replace {
                Some((id, text)) if id.index() == i => {
                    out.push_str(text);
                    if !text.ends_with('\n') {
                        out.push('\n');
                    }
                }
                _ => {
                    let _ = self.write_proc(&mut out, p);
                }
            }
        }
        out
    }

    /// Writes [`Module::proc_source`] to `out`.
    fn write_proc(&self, out: &mut impl fmt::Write, p: &Proc) -> fmt::Result {
        let formals: Vec<&str> = p.formals.iter().map(|&f| p.var(f).name.as_str()).collect();
        writeln!(out, "proc {}({}) {{", p.name, formals.join(", "))?;
        for vi in p
            .vars
            .iter()
            .filter(|vi| vi.kind == VarKind::Local && vi.is_array)
        {
            writeln!(out, "    array {}[{}];", vi.name, vi.array_len.unwrap_or(1))?;
        }
        self.write_block(out, p, &p.body, 1)?;
        writeln!(out, "}}")
    }

    /// The statements of `b` at `depth`, as [`crate::lang::pretty`] lays
    /// them out.
    fn write_block(
        &self,
        out: &mut impl fmt::Write,
        p: &Proc,
        b: &Block,
        depth: usize,
    ) -> fmt::Result {
        let (w, name) = (4 * depth, |v: &VarId| p.var(*v).name.as_str());
        for s in &b.stmts {
            write!(out, "{:w$}", "")?;
            match s {
                Stmt::Assign(v, e, _) => writeln!(out, "{} = {};", name(v), p.display_expr(e)),
                Stmt::Store(v, i, e, _) => {
                    let (i, e) = (p.display_expr(i), p.display_expr(e));
                    writeln!(out, "{}[{i}] = {e};", name(v))
                }
                Stmt::If(c, t, e, _) => {
                    writeln!(out, "if ({}) {{", p.display_expr(c))?;
                    self.write_block(out, p, t, depth + 1)?;
                    if !e.stmts.is_empty() {
                        writeln!(out, "{:w$}}} else {{", "")?;
                        self.write_block(out, p, e, depth + 1)?;
                    }
                    writeln!(out, "{:w$}}}", "")
                }
                Stmt::While(c, body, _) => {
                    writeln!(out, "while ({}) {{", p.display_expr(c))?;
                    self.write_block(out, p, body, depth + 1)?;
                    writeln!(out, "{:w$}}}", "")
                }
                Stmt::Do {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                    ..
                } => {
                    let (lo, hi) = (p.display_expr(lo), p.display_expr(hi));
                    write!(out, "do {} = {lo}, {hi}", name(var))?;
                    if let Some(step) = step {
                        write!(out, ", {}", p.display_expr(step))?;
                    }
                    writeln!(out, " {{")?;
                    self.write_block(out, p, body, depth + 1)?;
                    writeln!(out, "{:w$}}}", "")
                }
                Stmt::Call(callee, args, _) => {
                    write!(out, "call {}(", self.procs[callee.index()].name)?;
                    for (i, a) in args.iter().enumerate() {
                        let sep = if i == 0 { "" } else { ", " };
                        match a {
                            Arg::Scalar(v, _) | Arg::Array(v, _) => {
                                write!(out, "{sep}{}", name(v))?
                            }
                            Arg::Value(e) => write!(out, "{sep}{}", p.display_expr(e))?,
                        }
                    }
                    writeln!(out, ");")
                }
                Stmt::Return(_) => writeln!(out, "return;"),
                Stmt::Read(v, _) => writeln!(out, "read {};", name(v)),
                Stmt::Print(e, _) => writeln!(out, "print {};", p.display_expr(e)),
            }?;
        }
        Ok(())
    }

    /// Procedure `p` as FT source — one of this module's, or a new
    /// definition of one, naming its callees as this module does. The
    /// local `array` declarations open the body, in declaration order,
    /// wherever the source declared them: resolution keeps only the
    /// variable they declare.
    pub fn proc_source(&self, p: &Proc) -> String {
        let mut out = String::new();
        let _ = self.write_proc(&mut out, p);
        out
    }

    /// The [`hash_str`](crate::hash::hash_str) digest of
    /// [`Module::proc_source`], computed without keeping the text. A
    /// procedure's printed text depends on its own body only, so neither
    /// does this digest.
    pub fn proc_hash(&self, p: &Proc) -> u128 {
        let mut h = TextHash::default();
        let _ = self.write_proc(&mut h, p);
        h.finish()
    }
}

/// An expression of a procedure printed as FT source: the spelling and
/// minimal parentheses of [`crate::lang::pretty::expr`]. `.2` is the
/// binding strength the context requires.
struct ExprSource<'a>(&'a Proc, &'a Expr, u8);

impl fmt::Display for ExprSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ExprSource(p, e, min_prec) = *self;
        let sub = |e, prec| ExprSource(p, e, prec);
        match e {
            Expr::Const(v, _) if *v < 0 => write!(f, "({v})"),
            Expr::Const(v, _) => write!(f, "{v}"),
            Expr::Var(v, _) => f.write_str(&p.var(*v).name),
            Expr::Load(v, i, _) => write!(f, "{}[{}]", p.var(*v).name, sub(i, 0)),
            Expr::Unary(op, e, _) => write!(f, "{}{}", op.as_str(), sub(e, ast::UNARY_PRECEDENCE)),
            Expr::Binary(op, l, r, _) => {
                let prec = op.precedence();
                // Left-associative: the right operand must bind tighter.
                let (l, r) = (sub(l, prec), sub(r, prec + 1));
                if prec < min_prec {
                    write!(f, "({l} {} {r})", op.as_str())
                } else {
                    write!(f, "{l} {} {r}", op.as_str())
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

/// Resolves `text`, a new definition of one of `module`'s procedures,
/// against `module`'s signature table (the one its resolution built,
/// shared — the call builds no table), when that provably yields the
/// procedure a whole-program resolution would produce with the new
/// definition swapped in — spans aside, which stay relative to `text`.
/// Returns `Ok(None)` whenever it cannot prove that; the caller then
/// resolves the recombined program in full.
///
/// The proof needs four things:
///
/// * `text` is exactly one procedure definition, named like one of
///   `module`'s procedures and with its arity, so the signature table
///   (and every other body's resolution) is unchanged;
/// * `text` resolves without a diagnostic;
/// * each formal's array-ness from the new body's own indexing equals the
///   formal's array-ness in `module`. Every array formal is then indexed
///   in the new body itself, so the whole-module array-ness fixpoint,
///   which `module` already satisfies, stays the least fixpoint with the
///   body swapped in, and no procedure's formals move;
/// * the new body's call sites pass the call-site checks against that
///   fixpoint. Other procedures' call sites into it see unchanged
///   formals, so they pass as they did.
///
/// # Errors
///
/// The lex or parse errors of `text` when it does not parse, located in
/// `text`.
pub fn resolve_replacement(module: &Module, text: &str) -> Result<Option<Proc>, Diagnostics> {
    // The module's own table, shared: nothing is declared against it.
    let mut r = Resolver {
        diags: Diagnostics::new(),
        globals: module.globals.clone(),
        table: Arc::clone(&module.sigs.0),
    };
    let mut procs = Vec::with_capacity(1);
    let items = r.resolve_bodies(text, &mut procs)?;
    let old = match items[..] {
        [Item::Proc { name, arity, .. }] => module.proc_named(name).filter(|p| p.arity() == arity),
        _ => None,
    };
    let (Some(old), Some(Ok(mut proc))) = (old, procs.pop().map(Arc::try_unwrap)) else {
        return Ok(None);
    };
    proc.id = old.id;
    let formals_match = proc
        .formals
        .iter()
        .zip(&old.formals)
        .all(|(&new, &was)| proc.var(new).is_array == old.var(was).is_array);
    if !r.diags.is_empty() || !formals_match {
        return Ok(None);
    }
    retag_args(&mut proc.body, &proc.vars);
    let callee = |id: ProcId| {
        if id == proc.id {
            &proc
        } else {
            &*module.procs[id.index()]
        }
    };
    let mut ok = true;
    each_call(&proc.body, &mut |id, args, span| {
        ok &= call_site_errors(callee(id), args, span).is_empty();
    });
    Ok(ok.then_some(proc))
}

/// Incremental resolver: the signature table plus the module-level
/// diagnostics. [`crate::stream`] drives it in three steps:
///
/// 1. declare every global and every procedure signature
///    ([`Resolver::declare`], fed by [`crate::lang::scan_items`]);
/// 2. parse each text's bodies straight into resolved [`Proc`]s against
///    the table ([`Resolver::resolve_bodies`]);
/// 3. run the whole-module fixpoint and checks ([`Resolver::finish`]).
pub(crate) struct Resolver {
    diags: Diagnostics,
    globals: Vec<GlobalInfo>,
    table: Arc<Signatures>,
}

impl Resolver {
    pub(crate) fn new() -> Self {
        Resolver {
            diags: Diagnostics::new(),
            globals: Vec::new(),
            table: Arc::default(),
        }
    }

    /// Number of procedures declared so far.
    pub(crate) fn n_procs(&self) -> usize {
        self.table.arities.len()
    }

    /// Pass 0: registers one text's declarations — its globals first,
    /// then its procedure signatures, each group in source order.
    /// Signatures get consecutive [`ProcId`]s in declaration order; a
    /// duplicate name still occupies its slot so ids stay aligned with
    /// body order.
    pub(crate) fn declare(&mut self, items: &[Item<'_>]) {
        let table = Arc::make_mut(&mut self.table);
        for item in items {
            if let Item::Global {
                name,
                array_len,
                span,
            } = *item
            {
                if table.global_ids.contains_key(name) {
                    self.diags.error(format!("duplicate global `{name}`"), span);
                    continue;
                }
                let id = GlobalId::from(self.globals.len());
                table.global_ids.insert(name.to_owned(), id);
                self.globals.push(GlobalInfo {
                    name: name.to_owned(),
                    array_len,
                });
            }
        }
        for item in items {
            if let Item::Proc { name, arity, span } = *item {
                let id = ProcId::from(table.arities.len());
                if table.proc_ids.contains_key(name) {
                    self.diags
                        .error(format!("duplicate procedure `{name}`"), span);
                } else {
                    table.proc_ids.insert(name.to_owned(), id);
                }
                if table.global_ids.contains_key(name) {
                    self.diags.error(
                        format!("procedure `{name}` shadows a global of the same name"),
                        span,
                    );
                }
                table.arities.push(arity);
            }
        }
    }

    /// Pass 1: parses `src` and resolves each procedure body against the
    /// signature table as it is parsed, appending the procedures to
    /// `procs` with ids from `procs.len()` up, and returns `src`'s items.
    /// On a lex or parse error returns those errors, and the resolve
    /// errors of `src` are dropped.
    pub(crate) fn resolve_bodies<'s>(
        &mut self,
        src: &'s str,
        procs: &mut Vec<Arc<Proc>>,
    ) -> Result<Vec<Item<'s>>, Diagnostics> {
        let mut parser = Parser::new(src, Resolving::new(self, procs));
        parser.program();
        let (builder, items) = parser.finish()?;
        for d in builder.diags {
            self.diags.push(d);
        }
        Ok(items)
    }

    /// The declarations of `src`, or its lex or parse errors. The bodies
    /// are resolved against this resolver's table and dropped.
    pub(crate) fn parse_items<'s>(&self, src: &'s str) -> Result<Vec<Item<'s>>, Diagnostics> {
        let mut procs = Vec::new();
        let mut parser = Parser::new(src, Resolving::new(self, &mut procs));
        parser.program();
        Ok(parser.finish()?.1)
    }

    /// Pass 2: the whole-module array-ness fixpoint, call-site checks,
    /// and the entry-procedure rule. Consumes the resolver.
    pub(crate) fn finish(mut self, mut procs: Vec<Arc<Proc>>) -> Result<Module, Diagnostics> {
        self.infer_formal_arrays(&mut procs);
        self.check_call_sites(&procs);

        let entry = match self.table.proc_ids.get("main") {
            Some(&id) => {
                if !procs[id.index()].formals.is_empty() {
                    self.diags
                        .error("`main` must take no parameters", procs[id.index()].span);
                }
                id
            }
            None => {
                self.diags
                    .error("program has no `main` procedure", Span::dummy());
                ProcId(0)
            }
        };

        let module = Module {
            globals: self.globals,
            procs: procs.into(),
            entry,
            sigs: SharedSigs(self.table),
        };
        self.diags.into_result(module)
    }

    /// Merges diagnostics produced outside the resolver (chunk parse
    /// errors in the streaming path) so one report carries everything.
    pub(crate) fn absorb_diags(&mut self, diags: Diagnostics) {
        self.diags.extend(diags);
    }

    /// Consumes the resolver, yielding its accumulated diagnostics (the
    /// streaming path's early-exit when chunks failed to parse).
    pub(crate) fn into_diags(self) -> Diagnostics {
        self.diags
    }

    /// Propagates array-ness from formals used as arrays to the actuals
    /// bound to them, transitively, until nothing changes.
    fn infer_formal_arrays(&mut self, procs: &mut [Arc<Proc>]) {
        loop {
            let mut changed = false;
            // Collect (proc, var) pairs that must become arrays.
            let mut promote: Vec<(usize, VarId)> = Vec::new();
            for (pi, p) in procs.iter().enumerate() {
                each_call(&p.body, &mut |callee, args, _| {
                    let cp = &procs[callee.index()];
                    for (ai, arg) in args.iter().enumerate() {
                        let Some(&fv) = cp.formals.get(ai) else {
                            continue;
                        };
                        if !cp.var(fv).is_array {
                            continue;
                        }
                        if let Arg::Scalar(v, _) = arg {
                            if !p.var(*v).is_array {
                                promote.push((pi, *v));
                            }
                        }
                    }
                });
            }
            for (pi, v) in promote {
                let info = &mut Arc::make_mut(&mut procs[pi]).vars[v.index()];
                // Non-formals are reported in `check_call_sites`.
                if !info.is_array && info.is_formal() {
                    info.is_array = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Re-tag Scalar args that now name arrays.
        for p in procs.iter_mut() {
            let Proc { vars, body, .. } = Arc::make_mut(p);
            retag_args(body, vars);
        }
    }

    fn check_call_sites(&mut self, procs: &[Arc<Proc>]) {
        let mut errors: Vec<(String, Span)> = Vec::new();
        for p in procs {
            each_call(&p.body, &mut |callee, args, span| {
                errors.extend(call_site_errors(&procs[callee.index()], args, span));
            });
        }
        for (msg, span) in errors {
            self.diags.error(msg, span);
        }
    }
}

/// The resolving [`Build`]er: the parser hands it each construct as it
/// completes, and it turns names into ids against the signature table
/// and the current procedure's symbol table, exactly in the order the
/// language defines — an assignment's value before its target, an array
/// before its index, a callee before its arguments.
///
/// Three diagnostics belong *before* text that is parsed after them: an
/// indexed scalar (its span is the whole load or store), a `do` variable
/// used as an array, and a call's arity mismatch (its span is the whole
/// call). The first two are pushed with a placeholder span when the name
/// is met and patched when the construct completes; the last is inserted
/// at the position its callee was met.
struct Resolving<'r, 's> {
    r: &'r Resolver,
    /// This text's resolve diagnostics, in order.
    diags: Vec<Diagnostic>,
    procs: &'r mut Vec<Arc<Proc>>,
    ctx: ProcCtx<'s>,
    /// Open argument lists of calls to unknown procedures: nothing in
    /// them is resolved (no variable is created, nothing is reported).
    skipping: usize,
    /// Whether the latest [`Build::var`] reported a scalar use of an
    /// array — withdrawn when the variable turns out to be a bare,
    /// by-reference call argument.
    var_reported: bool,
    /// The open statement lists ([`Build::block_begin`]).
    stmts: Vec<Stmt>,
}

/// The procedure being resolved.
#[derive(Default)]
struct ProcCtx<'s> {
    name: &'s str,
    span: Span,
    vars: Vec<VarInfo>,
    by_name: HashMap<&'s str, VarId>,
    formals: Vec<VarId>,
}

/// A resolved [`Build::target`]: the variable, plus the index of its
/// diagnostic while that still waits for its span.
type Target = (VarId, Option<usize>);

impl<'r, 's> Resolving<'r, 's> {
    fn new(r: &'r Resolver, procs: &'r mut Vec<Arc<Proc>>) -> Self {
        Resolving {
            r,
            diags: Vec::new(),
            procs,
            ctx: ProcCtx::default(),
            skipping: 0,
            var_reported: false,
            stmts: Vec::new(),
        }
    }

    fn error(&mut self, message: String, span: Span) -> usize {
        self.diags.push(Diagnostic::error(message, span));
        self.diags.len() - 1
    }

    /// Looks up `name`, creating a local (or importing a global) on demand.
    fn lookup(&mut self, name: &'s str) -> VarId {
        if let Some(&v) = self.ctx.by_name.get(name) {
            return v;
        }
        let id = VarId::from(self.ctx.vars.len());
        let (kind, is_array, array_len) = match self.r.table.global_ids.get(name) {
            Some(&g) => {
                let gi = &self.r.globals[g.index()];
                (VarKind::Global(g), gi.is_array(), gi.array_len)
            }
            None => (VarKind::Local, false, None),
        };
        self.ctx.vars.push(VarInfo {
            name: name.to_owned(),
            kind,
            is_array,
            array_len,
        });
        self.ctx.by_name.insert(name, id);
        id
    }

    /// Records that `v` is indexed; returns the diagnostic's index when
    /// that is an error.
    fn mark_array_use(&mut self, v: VarId, span: Span) -> Option<usize> {
        let info = &mut self.ctx.vars[v.index()];
        if info.is_array {
            return None;
        }
        let message = match info.kind {
            VarKind::Formal(_) => {
                info.is_array = true;
                return None;
            }
            VarKind::Local if info.array_len.is_none() => {
                format!("`{}` indexed but never declared with `array`", info.name)
            }
            _ => format!("`{}` is a scalar, not an array", info.name),
        };
        Some(self.error(message, span))
    }

    /// Records that `v` is read or written as a scalar; returns the
    /// diagnostic's index when that is an error.
    fn mark_scalar_use(&mut self, v: VarId, span: Span) -> Option<usize> {
        let info = &self.ctx.vars[v.index()];
        if !info.is_array {
            return None;
        }
        let message = format!("array `{}` used where a scalar is required", info.name);
        Some(self.error(message, span))
    }

    /// The variable of `t`, its diagnostic (if any) now spanning `span`.
    fn settle(&mut self, (v, pending): Target, span: Span) -> VarId {
        if let Some(d) = pending.and_then(|i| self.diags.get_mut(i)) {
            d.span = span;
        }
        v
    }
}

impl<'s> Build<'s> for Resolving<'_, 's> {
    type Expr = Expr;
    type Arg = Arg;
    type Stmt = Option<Stmt>;
    type Block = Block;
    type Target = Target;
    type Callee = Result<(ProcId, &'s str, usize), &'s str>;

    fn span(e: &Expr) -> Span {
        e.span()
    }

    fn literal(e: &Expr) -> Option<i64> {
        match e {
            Expr::Const(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Globals were declared by the signature pass.
    fn global(&mut self, _name: &'s str, _array_len: Option<i64>, _span: Span) {}

    fn proc_begin(&mut self, name: &'s str, params: &[(&'s str, Span)], span: Span) {
        self.ctx.name = name;
        self.ctx.span = span;
        self.ctx.vars.clear();
        self.ctx.by_name.clear();
        self.ctx.formals = Vec::with_capacity(params.len());
        for (i, &(param, span)) in params.iter().enumerate() {
            if self.ctx.by_name.contains_key(param) {
                self.error(format!("duplicate parameter `{param}`"), span);
                continue;
            }
            if self.r.table.global_ids.contains_key(param) {
                self.error(
                    format!("parameter `{param}` shadows a global of the same name"),
                    span,
                );
            }
            let v = VarId::from(self.ctx.vars.len());
            self.ctx.vars.push(VarInfo {
                name: param.to_owned(),
                kind: VarKind::Formal(i),
                is_array: false, // refined by use and by the later fixpoint
                array_len: None,
            });
            self.ctx.by_name.insert(param, v);
            self.ctx.formals.push(v);
        }
    }

    fn proc_end(&mut self, body: Block) {
        let mut vars = Vec::with_capacity(self.ctx.vars.len() + self.r.globals.len());
        vars.append(&mut self.ctx.vars);
        // FORTRAN COMMON model: every procedure can see every scalar
        // global, whether or not it names it. Importing them all gives the
        // analyses a uniform view (call sites transmit a value for every
        // scalar global, and MOD kills apply to them in every caller).
        for (gi, g) in self.r.globals.iter().enumerate() {
            if g.is_array() || self.ctx.by_name.contains_key(g.name.as_str()) {
                continue;
            }
            vars.push(VarInfo {
                name: g.name.clone(),
                kind: VarKind::Global(GlobalId::from(gi)),
                is_array: false,
                array_len: None,
            });
        }
        let id = ProcId::from(self.procs.len());
        self.procs.push(Arc::new(Proc {
            name: self.ctx.name.to_owned(),
            id,
            vars,
            formals: std::mem::take(&mut self.ctx.formals),
            body,
            span: self.ctx.span,
        }));
    }

    fn block_begin(&mut self) -> usize {
        self.stmts.len()
    }

    fn push(&mut self, stmt: Option<Stmt>) {
        // Declarations and calls to unknown procedures leave no statement.
        self.stmts.extend(stmt);
    }

    fn block_end(&mut self, start: usize) -> Block {
        Block {
            stmts: self.stmts.drain(start..).collect(),
        }
    }

    fn int(&mut self, value: i64, span: Span) -> Expr {
        Expr::Const(value, span)
    }

    fn var(&mut self, name: &'s str, span: Span) -> Expr {
        if self.skipping > 0 {
            return Expr::Var(VarId(0), span);
        }
        let v = self.lookup(name);
        self.var_reported = self.mark_scalar_use(v, span).is_some();
        Expr::Var(v, span)
    }

    fn target(&mut self, name: &'s str, array: bool) -> Target {
        if self.skipping > 0 {
            return (VarId(0), None);
        }
        let v = self.lookup(name);
        let pending = if array {
            self.mark_array_use(v, Span::dummy())
        } else {
            self.mark_scalar_use(v, Span::dummy())
        };
        (v, pending)
    }

    fn load(&mut self, array: Target, index: Expr, span: Span) -> Expr {
        Expr::Load(self.settle(array, span), Box::new(index), span)
    }

    fn unary(&mut self, op: ast::UnOp, operand: Expr, span: Span) -> Expr {
        Expr::Unary(op, Box::new(operand), span)
    }

    fn binary(&mut self, op: ast::BinOp, lhs: Expr, rhs: Expr, span: Span) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs), span)
    }

    fn array_decl(&mut self, name: &'s str, len: i64, span: Span) -> Option<Stmt> {
        if let Some(&existing) = self.ctx.by_name.get(name) {
            let what = if self.ctx.vars[existing.index()].is_array {
                "an array"
            } else {
                "a scalar"
            };
            self.error(format!("`{name}` already declared as {what}"), span);
        } else {
            let v = VarId::from(self.ctx.vars.len());
            self.ctx.vars.push(VarInfo {
                name: name.to_owned(),
                kind: VarKind::Local,
                is_array: true,
                array_len: Some(len),
            });
            self.ctx.by_name.insert(name, v);
        }
        None // declarations carry no runtime behaviour
    }

    fn assign(&mut self, name: &'s str, value: Expr, span: Span) -> Option<Stmt> {
        let v = self.lookup(name);
        self.mark_scalar_use(v, span);
        Some(Stmt::Assign(v, value, span))
    }

    fn store(&mut self, array: Target, index: Expr, value: Expr, span: Span) -> Option<Stmt> {
        Some(Stmt::Store(self.settle(array, span), index, value, span))
    }

    fn if_(&mut self, cond: Expr, then_blk: Block, else_blk: Block, span: Span) -> Option<Stmt> {
        Some(Stmt::If(cond, then_blk, else_blk, span))
    }

    fn while_(&mut self, cond: Expr, body: Block, span: Span) -> Option<Stmt> {
        Some(Stmt::While(cond, body, span))
    }

    fn do_(
        &mut self,
        var: Target,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Block,
        span: Span,
    ) -> Option<Stmt> {
        Some(Stmt::Do {
            var: self.settle(var, span),
            lo,
            hi,
            step,
            body,
            span,
        })
    }

    fn callee(&mut self, name: &'s str) -> Self::Callee {
        match self.r.table.proc_ids.get(name) {
            Some(&pid) => Ok((pid, name, self.diags.len())),
            None => {
                self.skipping += 1;
                Err(name)
            }
        }
    }

    fn arg(&mut self, e: Expr) -> Arg {
        match e {
            // A bare name passes by reference: not a scalar use.
            Expr::Var(v, span) if self.skipping == 0 => {
                if self.var_reported {
                    self.diags.pop();
                }
                if self.ctx.vars[v.index()].is_array {
                    Arg::Array(v, span)
                } else {
                    Arg::Scalar(v, span)
                }
            }
            e => Arg::Value(e),
        }
    }

    fn call(&mut self, callee: Self::Callee, args: Vec<Arg>, span: Span) -> Option<Stmt> {
        let (pid, name, at) = match callee {
            Ok(found) => found,
            Err(name) => {
                self.skipping -= 1;
                self.error(format!("call to unknown procedure `{name}`"), span);
                return None;
            }
        };
        let expected = self.r.table.arities[pid.index()];
        if args.len() != expected {
            let message = format!(
                "`{name}` expects {expected} argument{}, got {}",
                if expected == 1 { "" } else { "s" },
                args.len()
            );
            let at = at.min(self.diags.len());
            self.diags.insert(at, Diagnostic::error(message, span));
        }
        Some(Stmt::Call(pid, args, span))
    }

    fn ret(&mut self, span: Span) -> Option<Stmt> {
        Some(Stmt::Return(span))
    }

    fn read(&mut self, name: &'s str, span: Span) -> Option<Stmt> {
        let v = self.lookup(name);
        self.mark_scalar_use(v, span);
        Some(Stmt::Read(v, span))
    }

    fn print(&mut self, value: Expr, span: Span) -> Option<Stmt> {
        Some(Stmt::Print(value, span))
    }
}

/// The array/scalar mismatches between one call's actuals and the formals
/// of its callee `cp`.
fn call_site_errors(cp: &Proc, args: &[Arg], span: Span) -> Vec<(String, Span)> {
    let mut errors = Vec::new();
    for (ai, arg) in args.iter().enumerate() {
        let Some(&fv) = cp.formals.get(ai) else {
            continue;
        };
        let formal_is_array = cp.var(fv).is_array;
        let actual_is_array = matches!(arg, Arg::Array(..));
        if formal_is_array && !actual_is_array {
            errors.push((
                format!(
                    "argument {} of call to `{}` must be an array (formal `{}` is indexed)",
                    ai + 1,
                    cp.name,
                    cp.var(fv).name
                ),
                span,
            ));
        } else if !formal_is_array && actual_is_array {
            errors.push((
                format!(
                    "argument {} of call to `{}` is an array but formal `{}` is a scalar",
                    ai + 1,
                    cp.name,
                    cp.var(fv).name
                ),
                span,
            ));
        }
    }
    errors
}

/// The layout of a procedure's *entry slots*: the values the
/// interprocedural analysis tracks on entry to each procedure.
///
/// Slot `i < arity` is the `i`-th formal parameter; slot `arity + j` is the
/// `j`-th **scalar** global (array globals and array formals carry no
/// constant value). The same layout is used by the interpreter's entry
/// trace and by the `ipcp` solver's `VAL` vectors, which is what makes the
/// soundness tests a direct index-by-index comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotLayout {
    /// Scalar globals in slot order.
    pub scalar_globals: Vec<GlobalId>,
    /// Interner backing the precomputed slot-name table.
    names: crate::names::Names,
    /// `slot_ids[p][slot]` is the interned name of slot `slot` of
    /// procedure `p`. Built once in [`SlotLayout::new`] so the explain /
    /// display hot paths never allocate per query.
    slot_ids: Vec<Vec<crate::names::NameId>>,
}

impl SlotLayout {
    /// Builds the layout for `module`, including the per-procedure
    /// slot-name table.
    pub fn new(module: &Module) -> Self {
        let scalar_globals = module.scalar_global_ids();
        let mut names = crate::names::Names::new();
        let slot_ids = module
            .procs
            .iter()
            .map(|proc| {
                let mut ids = Vec::with_capacity(proc.arity() + scalar_globals.len());
                for &fv in &proc.formals {
                    ids.push(names.intern(&proc.var(fv).name));
                }
                for g in &scalar_globals {
                    ids.push(names.intern(&module.globals[g.index()].name));
                }
                ids
            })
            .collect();
        SlotLayout {
            scalar_globals,
            names,
            slot_ids,
        }
    }

    /// Number of slots for a procedure with `arity` formals.
    pub fn n_slots(&self, arity: usize) -> usize {
        arity + self.scalar_globals.len()
    }

    /// The slot index of global `g`, if `g` is a tracked scalar global.
    pub fn global_slot(&self, arity: usize, g: GlobalId) -> Option<usize> {
        self.scalar_globals
            .iter()
            .position(|&x| x == g)
            .map(|j| arity + j)
    }

    /// Human-readable name of slot `i` of procedure `p`.
    ///
    /// Served from the table precomputed in [`SlotLayout::new`] — no
    /// allocation per query. The `module` argument is kept so call sites
    /// read naturally and the signature can fall back to recomputation if
    /// the table ever becomes optional; it is not consulted today.
    pub fn slot_name(&self, _module: &Module, p: ProcId, slot: usize) -> &str {
        self.names.resolve(self.slot_ids[p.index()][slot])
    }

    /// Interned id of slot `slot` of procedure `p` (resolve via
    /// [`SlotLayout::names`]).
    pub fn slot_name_id(&self, p: ProcId, slot: usize) -> crate::names::NameId {
        self.slot_ids[p.index()][slot]
    }

    /// The interner backing [`SlotLayout::slot_name`].
    pub fn names(&self) -> &crate::names::Names {
        &self.names
    }
}

/// Walks every call statement in a block (recursively).
pub fn each_call(b: &Block, f: &mut impl FnMut(ProcId, &[Arg], Span)) {
    for s in &b.stmts {
        match s {
            Stmt::Call(callee, args, span) => f(*callee, args, *span),
            Stmt::If(_, t, e, _) => {
                each_call(t, f);
                each_call(e, f);
            }
            Stmt::While(_, body, _) | Stmt::Do { body, .. } => each_call(body, f),
            _ => {}
        }
    }
}

fn retag_args(b: &mut Block, vars: &[VarInfo]) {
    for s in &mut b.stmts {
        match s {
            Stmt::Call(_, args, _) => {
                for a in args {
                    if let Arg::Scalar(v, sp) = *a {
                        if vars[v.index()].is_array {
                            *a = Arg::Array(v, sp);
                        }
                    }
                }
            }
            Stmt::If(_, t, e, _) => {
                retag_args(t, vars);
                retag_args(e, vars);
            }
            Stmt::While(_, body, _) | Stmt::Do { body, .. } => retag_args(body, vars),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_resolve;

    #[test]
    fn resolves_globals_formals_and_locals() {
        let m = parse_and_resolve("global g; proc main() { call f(1); } proc f(a) { x = a + g; }")
            .unwrap();
        let f = m.proc_named("f").unwrap();
        assert_eq!(f.arity(), 1);
        let a = f.var_named("a").unwrap();
        assert_eq!(f.var(a).kind, VarKind::Formal(0));
        let x = f.var_named("x").unwrap();
        assert_eq!(f.var(x).kind, VarKind::Local);
        let g = f.var_named("g").unwrap();
        assert_eq!(f.var(g).kind, VarKind::Global(GlobalId(0)));
    }

    #[test]
    fn missing_main_is_an_error() {
        let err = parse_and_resolve("proc helper() { }").unwrap_err();
        assert!(err.to_string().contains("no `main`"));
    }

    #[test]
    fn main_with_params_is_an_error() {
        assert!(parse_and_resolve("proc main(x) { }").is_err());
    }

    #[test]
    fn unknown_callee_is_an_error() {
        let err = parse_and_resolve("proc main() { call nope(); }").unwrap_err();
        assert!(err.to_string().contains("unknown procedure"));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let err = parse_and_resolve("proc main() { call f(1, 2); } proc f(a) { }").unwrap_err();
        assert!(err.to_string().contains("expects 1 argument"));
    }

    #[test]
    fn scalar_indexed_without_decl_is_an_error() {
        let err = parse_and_resolve("proc main() { x = 1; y = x[0]; }").unwrap_err();
        assert!(err.to_string().contains("never declared with `array`"));
    }

    #[test]
    fn array_used_as_scalar_is_an_error() {
        let err = parse_and_resolve("proc main() { array a[4]; x = a + 1; }").unwrap_err();
        assert!(err.to_string().contains("used where a scalar"));
    }

    #[test]
    fn formal_arrayness_inferred_from_indexing() {
        let m = parse_and_resolve(
            "proc main() { array buf[8]; call fill(buf, 8); } proc fill(b, n) { do i = 0, n - 1 { b[i] = 0; } }",
        )
        .unwrap();
        let fill = m.proc_named("fill").unwrap();
        assert!(fill.var(fill.formals[0]).is_array);
        assert!(!fill.var(fill.formals[1]).is_array);
    }

    #[test]
    fn formal_arrayness_propagates_through_wrappers() {
        let m = parse_and_resolve(
            "proc main() { array buf[8]; call outer(buf); } \
             proc outer(b) { call inner(b); } \
             proc inner(c) { c[0] = 1; }",
        )
        .unwrap();
        let outer = m.proc_named("outer").unwrap();
        assert!(outer.var(outer.formals[0]).is_array);
        // And the call argument was re-tagged as an array pass.
        let mut saw_array_arg = false;
        each_call(&outer.body, &mut |_, args, _| {
            saw_array_arg |= matches!(args[0], Arg::Array(..));
        });
        assert!(saw_array_arg);
    }

    #[test]
    fn passing_scalar_where_array_expected_is_an_error() {
        let err = parse_and_resolve("proc main() { x = 1; call f(x); } proc f(b) { b[0] = 1; }")
            .unwrap_err();
        assert!(err.to_string().contains("must be an array"));
    }

    #[test]
    fn passing_array_where_scalar_expected_is_an_error() {
        let err =
            parse_and_resolve("proc main() { array a[4]; call f(a); } proc f(x) { y = x + 1; }")
                .unwrap_err();
        assert!(err.to_string().contains("is an array but formal"));
    }

    #[test]
    fn duplicate_names_are_errors() {
        assert!(parse_and_resolve("global g; global g; proc main() { }").is_err());
        assert!(parse_and_resolve("proc main() { } proc f() { } proc f() { }").is_err());
        assert!(parse_and_resolve("proc main() { } proc f(a, a) { }").is_err());
    }

    #[test]
    fn literal_detection_on_args() {
        let m =
            parse_and_resolve("proc main() { x = 2; call f(1, x, x + 1); } proc f(a, b, c) { }")
                .unwrap();
        let main = m.proc(m.entry);
        each_call(&main.body, &mut |_, args, _| {
            assert_eq!(args[0].literal(), Some(1));
            assert_eq!(args[1].literal(), None);
            assert_eq!(args[2].literal(), None);
        });
    }

    #[test]
    fn replacement_text_must_be_one_known_procedure_that_resolves_cleanly() {
        let m = parse_and_resolve("proc main() { call f(1); } proc f(a) { print a; }").unwrap();
        let f = resolve_replacement(&m, "# new body\nproc f(a) { print a + 1; }")
            .unwrap()
            .unwrap();
        assert_eq!(f.id, m.proc_named("f").unwrap().id);
        for text in [
            "proc f(a) { print a; } proc main() { }", // two procedures
            "global g; proc f(a) { print a; }",       // a global
            "proc g(a) { print a; }",                 // unknown name
            "proc f(a, b) { print a; }",              // arity changed
            "proc f(a) { call nope(); }",             // resolve error
        ] {
            assert_eq!(resolve_replacement(&m, text), Ok(None), "{text}");
        }
        // A parse error is reported, located in the replacement text.
        let err = resolve_replacement(&m, "proc f(a) { print ; }").unwrap_err();
        assert_eq!(
            err.to_string(),
            parse_and_resolve("proc f(a) { print ; }")
                .unwrap_err()
                .to_string()
        );
    }

    #[test]
    fn to_source_round_trips_through_resolution() {
        let src = "global g;\n\nproc main() {\n    array t[4];\n    g = 1;\n    t[0] = g;\n    call f(t, g);\n}\n\nproc f(b, n) {\n    b[n] = n;\n}\n";
        let m1 = parse_and_resolve(src).unwrap();
        let printed = m1.to_source();
        assert_eq!(printed, src);
        let m2 = parse_and_resolve(&printed).unwrap();
        assert_eq!(printed, m2.to_source());
    }

    #[test]
    fn printing_matches_the_ast_printer_and_hoists_local_arrays() {
        let src = "global n; global t[3];\n\
                   proc main() { n = -(1 + 2) * 3 - -4; call f(n, t, n + 1, (n)); x = !(n < 2) || n % 2 == 0 && 1; } \
                   proc f(a, b, c, d) { if (a) { b[a - (0 - 1)] = 1; } else { if (c) { return; } } \
                   while (a > 0) { a = a - 1; array u[2]; u[a] = b[0]; } do i = 1, c, 2 { read d; print i; } do j = c, 1 { } }";
        let m = parse_and_resolve(src).unwrap();
        let ast = crate::lang::pretty::program(&crate::lang::parse_program(src).unwrap());
        let hoisted = ast.replace("        array u[2];\n", "").replace(
            "proc f(a, b, c, d) {\n",
            "proc f(a, b, c, d) {\n    array u[2];\n",
        );
        assert_eq!(m.to_source(), hoisted);
        for p in &m.procs {
            let text = m.proc_source(p);
            assert!(hoisted.contains(&text), "{text}");
            assert_eq!(m.proc_hash(p), crate::hash::hash_str(&text));
        }
        let replaced =
            m.to_source_replacing(m.proc_named("f").unwrap().id, "proc f(a, b, c, d) { }");
        assert!(
            replaced.ends_with("}\n\nproc f(a, b, c, d) { }\n"),
            "{replaced}"
        );
    }
}
