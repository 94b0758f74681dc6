//! Per-procedure control-flow graphs and the AST-to-CFG lowering.
//!
//! Every analysis in the workspace (MOD/REF, SSA construction, SCCP,
//! symbolic evaluation, jump-function generation) works on the [`ModuleCfg`]
//! produced by [`lower_module`]. The CFG is also executable — see
//! [`crate::interp::exec_cfg`] — which lets the test suite check that CFG
//! transformations (constant substitution, dead-code elimination,
//! procedure cloning) preserve program behaviour.

mod lower;

pub use lower::{lower_module, lower_module_owned};

use crate::program::{Arg, Expr, Module, Proc, ProcId, VarId};
use crate::table::Table;
use std::fmt;
use std::sync::Arc;

/// Index of a basic block within its procedure's [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl From<usize> for BlockId {
    fn from(i: usize) -> Self {
        match u32::try_from(i) {
            Ok(n) => BlockId(n),
            Err(_) => unreachable!("block id overflow"),
        }
    }
}

/// Index of a call site within its procedure (dense, in lowering order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSiteId(pub u32);

impl CallSiteId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CallSiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cs{}", self.0)
    }
}

impl fmt::Display for CallSiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cs{}", self.0)
    }
}

impl From<usize> for CallSiteId {
    fn from(i: usize) -> Self {
        match u32::try_from(i) {
            Ok(n) => CallSiteId(n),
            Err(_) => unreachable!("call site id overflow"),
        }
    }
}

/// A straight-line CFG statement. Expressions are pure; all side effects
/// are statement-level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CStmt {
    /// `dst = value`
    Assign {
        /// Target scalar.
        dst: VarId,
        /// Stored value.
        value: Expr,
    },
    /// `array[index] = value`
    Store {
        /// Target array.
        array: VarId,
        /// Cell index.
        index: Expr,
        /// Stored value.
        value: Expr,
    },
    /// `read dst`
    Read {
        /// Target scalar.
        dst: VarId,
    },
    /// `print value`
    Print {
        /// Printed value.
        value: Expr,
    },
    /// `call callee(args...)`
    Call {
        /// Callee procedure.
        callee: ProcId,
        /// Actual arguments.
        args: Vec<Arg>,
        /// This call's dense id within the enclosing procedure.
        site: CallSiteId,
    },
}

/// Block terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional edge.
    Jump(BlockId),
    /// Two-way conditional edge; nonzero condition takes `then_bb`.
    Branch {
        /// Branch condition.
        cond: Expr,
        /// Successor when the condition is nonzero.
        then_bb: BlockId,
        /// Successor when the condition is zero.
        else_bb: BlockId,
    },
    /// Procedure exit.
    Return,
}

impl Terminator {
    /// The successor blocks, in order.
    pub fn successors(&self) -> Vec<BlockId> {
        self.successor_iter().collect()
    }

    /// The successor blocks, in order, without allocating.
    pub fn successor_iter(&self) -> impl Iterator<Item = BlockId> + Clone {
        let (first, second) = match *self {
            Terminator::Jump(b) => (Some(b), None),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (Some(then_bb), Some(else_bb)),
            Terminator::Return => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// A basic block: straight-line statements plus one terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// The statements, in execution order.
    pub stmts: Vec<CStmt>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

impl BasicBlock {
    /// An empty block ending in `Return` (placeholder during construction).
    pub fn new() -> Self {
        BasicBlock {
            stmts: Vec::new(),
            term: Terminator::Return,
        }
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// The control-flow graph of one procedure.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// All blocks; unreachable blocks may exist (e.g. code after `return`).
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BlockId,
    /// Number of call sites lowered into this CFG (dense `CallSiteId`s).
    pub n_call_sites: usize,
    /// `call_locs[site]`: the block and statement index where call `site`
    /// was lowered. A lookup cache over `blocks` for [`Cfg::call_site`],
    /// which verifies the recorded position and rescans if an edit (such
    /// as inlining) moved the statement.
    call_locs: Vec<(BlockId, usize)>,
}

/// Equality is structural: the call-site index is a cache over `blocks`.
impl PartialEq for Cfg {
    fn eq(&self, other: &Cfg) -> bool {
        self.blocks == other.blocks
            && self.entry == other.entry
            && self.n_call_sites == other.n_call_sites
    }
}

impl Eq for Cfg {}

impl Cfg {
    /// Call site `site`'s block, callee and actual arguments.
    ///
    /// A direct lookup through the index recorded at lowering; a statement
    /// an edit has moved since is found by a scan instead.
    pub fn call_site(&self, site: CallSiteId) -> Option<(BlockId, ProcId, &[Arg])> {
        fn call_at(b: BlockId, s: &CStmt, want: CallSiteId) -> Option<(BlockId, ProcId, &[Arg])> {
            match s {
                CStmt::Call { callee, args, site } if *site == want => Some((b, *callee, args)),
                _ => None,
            }
        }
        if let Some(&(b, i)) = self.call_locs.get(site.index()) {
            let stmt = self.blocks.get(b.index()).and_then(|blk| blk.stmts.get(i));
            if let Some(hit) = stmt.and_then(|s| call_at(b, s, site)) {
                return Some(hit);
            }
        }
        self.blocks.iter().enumerate().find_map(|(bi, blk)| {
            blk.stmts
                .iter()
                .find_map(|s| call_at(BlockId::from(bi), s, site))
        })
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &BasicBlock {
        &self.blocks[b.index()]
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has no blocks (never true for lowered procedures).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Successors of `b`.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        self.block(b).term.successors()
    }

    /// Predecessor lists for every block (indexed by block id).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, blk) in self.blocks.iter().enumerate() {
            for s in blk.term.successors() {
                preds[s.index()].push(BlockId::from(i));
            }
        }
        preds
    }

    /// Blocks reachable from the entry, as a bitmap indexed by block id.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b.index()], true) {
                continue;
            }
            stack.extend(self.block(b).term.successor_iter());
        }
        seen
    }

    /// Reverse postorder over reachable blocks, starting at the entry.
    ///
    /// Every reachable block appears exactly once; for a reducible CFG all
    /// of a block's forward-edge predecessors appear before it.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut rpo = Vec::new();
        self.reverse_postorder_into(&mut Vec::new(), &mut Vec::new(), &mut rpo);
        rpo
    }

    /// [`Cfg::reverse_postorder`] into `rpo`, with `seen` and `stack` as
    /// working memory a caller can reuse across CFGs.
    pub fn reverse_postorder_into(
        &self,
        seen: &mut Vec<bool>,
        stack: &mut Vec<(BlockId, usize)>,
        rpo: &mut Vec<BlockId>,
    ) {
        seen.clear();
        seen.resize(self.blocks.len(), false);
        rpo.clear();
        // Iterative DFS with an explicit stack of (block, next-successor).
        stack.clear();
        stack.push((self.entry, 0));
        seen[self.entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(s) = self.block(b).term.successor_iter().nth(*next) {
                *next += 1;
                if !std::mem::replace(&mut seen[s.index()], true) {
                    stack.push((s, 0));
                }
            } else {
                rpo.push(b);
                stack.pop();
            }
        }
        rpo.reverse();
    }

    /// Renders the CFG as indented text (for snapshots and debugging).
    pub fn display<'a>(&'a self, module: &'a Module, proc: ProcId) -> CfgDisplay<'a> {
        CfgDisplay {
            cfg: self,
            module,
            proc,
        }
    }
}

/// Pretty display adapter returned by [`Cfg::display`].
#[derive(Debug)]
pub struct CfgDisplay<'a> {
    cfg: &'a Cfg,
    module: &'a Module,
    proc: ProcId,
}

impl fmt::Display for CfgDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.module.proc(self.proc);
        let name = |v: VarId| p.var(v).name.clone();
        let expr = |e: &Expr| p.display_expr(e).to_string();
        writeln!(f, "proc {} {{", p.name)?;
        for (i, blk) in self.cfg.blocks.iter().enumerate() {
            let tag = if BlockId::from(i) == self.cfg.entry {
                " (entry)"
            } else {
                ""
            };
            writeln!(f, "  bb{i}{tag}:")?;
            for s in &blk.stmts {
                match s {
                    CStmt::Assign { dst, value } => {
                        writeln!(f, "    {} = {}", name(*dst), expr(value))?
                    }
                    CStmt::Store {
                        array,
                        index,
                        value,
                    } => writeln!(f, "    {}[{}] = {}", name(*array), expr(index), expr(value))?,
                    CStmt::Read { dst } => writeln!(f, "    read {}", name(*dst))?,
                    CStmt::Print { value } => writeln!(f, "    print {}", expr(value))?,
                    CStmt::Call { callee, args, site } => {
                        let rendered: Vec<String> = args
                            .iter()
                            .map(|a| match a {
                                Arg::Scalar(v, _) => format!("&{}", name(*v)),
                                Arg::Array(v, _) => format!("&{}[]", name(*v)),
                                Arg::Value(e) => expr(e),
                            })
                            .collect();
                        writeln!(
                            f,
                            "    call {}({})  ; {site}",
                            self.module.proc(*callee).name,
                            rendered.join(", ")
                        )?
                    }
                }
            }
            match &blk.term {
                Terminator::Jump(b) => writeln!(f, "    jump {b}")?,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => writeln!(f, "    branch {} ? {then_bb} : {else_bb}", expr(cond))?,
                Terminator::Return => writeln!(f, "    return")?,
            }
        }
        writeln!(f, "}}")
    }
}

/// A lowered module: the resolved symbol information plus one [`Cfg`] per
/// procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleCfg {
    /// Symbol tables and (original) structured bodies.
    ///
    /// Lowering may append compiler temporaries to procedure symbol tables,
    /// so use this module (not the one passed to [`lower_module`]) when
    /// mapping `VarId`s to names.
    pub module: Module,
    /// One CFG per procedure, indexed by [`ProcId`], each behind its own
    /// [`Arc`] in a [`Table`] like [`Module::procs`].
    pub cfgs: Table<Arc<Cfg>>,
}

impl ModuleCfg {
    /// The CFG of procedure `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn cfg(&self, p: ProcId) -> &Cfg {
        &self.cfgs[p.index()]
    }

    /// This module with procedure `proc.id` replaced by `proc`, lowered
    /// here. Every other procedure and CFG is shared with `self`, so the
    /// cost is one procedure's lowering plus a reference-count bump per
    /// procedure. The caller guarantees that `proc` resolved against this
    /// module's signature table (same name and arity) and that no other
    /// procedure's resolution depends on it beyond that signature — see
    /// [`crate::program::resolve_replacement`].
    pub fn with_proc(&self, mut proc: Proc) -> ModuleCfg {
        let i = proc.id.index();
        let cfg = lower::lower_proc(&mut proc);
        let mut next = self.clone();
        next.module.procs[i] = Arc::new(proc);
        next.cfgs[i] = Arc::new(cfg);
        next
    }

    /// Iterates over `(ProcId, &Cfg)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, &Cfg)> {
        self.cfgs
            .iter()
            .enumerate()
            .map(|(i, c)| (ProcId::from(i), &**c))
    }

    /// Call site `site` of procedure `p`: its block, callee and actual
    /// arguments (see [`Cfg::call_site`]).
    pub fn call_site(&self, p: ProcId, site: CallSiteId) -> Option<(BlockId, ProcId, &[Arg])> {
        self.cfg(p).call_site(site)
    }

    /// Visits every call statement in procedure `p`.
    pub fn each_call_in(&self, p: ProcId, mut f: impl FnMut(BlockId, CallSiteId, ProcId, &[Arg])) {
        for (bi, blk) in self.cfg(p).blocks.iter().enumerate() {
            for s in &blk.stmts {
                if let CStmt::Call { callee, args, site } = s {
                    f(BlockId::from(bi), *site, *callee, args);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower_module, parse_and_resolve};

    fn lower(src: &str) -> ModuleCfg {
        lower_module(&parse_and_resolve(src).unwrap())
    }

    #[test]
    fn display_renders_every_construct() {
        let m = lower(
            "global g; \
             proc main() { array t[2]; read x; t[x % 2] = x; \
                           if (x > 0) { call f(x, 3, t); } print g; } \
             proc f(a, b, arr) { a = b; arr[0] = a; }",
        );
        let text = m
            .cfg(m.module.entry)
            .display(&m.module, m.module.entry)
            .to_string();
        assert!(text.contains("proc main {"), "{text}");
        assert!(text.contains("(entry)"), "{text}");
        assert!(text.contains("read x"), "{text}");
        assert!(text.contains("t[x % 2] = x"), "{text}");
        assert!(text.contains("branch x > 0 ?"), "{text}");
        assert!(text.contains("call f(&x, 3, &t[])  ; cs0"), "{text}");
        assert!(text.contains("print g"), "{text}");
        assert!(text.contains("return"), "{text}");
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_covers_reachable() {
        let m = lower(
            "proc main() { read x; while (x > 0) { if (x % 2 == 0) { print 0; } x = x - 1; } return; print 99; }",
        );
        let cfg = m.cfg(m.module.entry);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], cfg.entry);
        let n_reach = cfg.reachable().iter().filter(|&&r| r).count();
        assert_eq!(rpo.len(), n_reach);
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        assert!(rpo.iter().all(|b| seen.insert(*b)));
    }

    #[test]
    fn module_iter_pairs_ids_with_cfgs() {
        let m = lower("proc main() { call a(); } proc a() { } proc b() { }");
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs.len(), 3);
        for (i, (pid, _)) in pairs.iter().enumerate() {
            assert_eq!(pid.index(), i);
        }
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Return.successors(), Vec::<BlockId>::new());
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        let b = Terminator::Branch {
            cond: crate::program::Expr::Const(1, crate::span::Span::dummy()),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn predecessors_are_complete_and_exact() {
        let m = lower("proc main() { read x; if (x) { print 1; } else { print 2; } print 3; }");
        let cfg = m.cfg(m.module.entry);
        let preds = cfg.predecessors();
        // Inverse consistency with successors.
        for (bi, _) in cfg.blocks.iter().enumerate() {
            let b = BlockId::from(bi);
            for s in cfg.successors(b) {
                assert!(preds[s.index()].contains(&b));
            }
        }
        let total_edges: usize = preds.iter().map(|p| p.len()).sum();
        let total_succs: usize = (0..cfg.len())
            .map(|b| cfg.successors(BlockId::from(b)).len())
            .sum();
        assert_eq!(total_edges, total_succs);
    }

    #[test]
    fn each_call_in_reports_blocks_and_sites() {
        let m = lower("proc main() { call f(); if (1) { call g(); } } proc f() { } proc g() { }");
        let mut seen = Vec::new();
        m.each_call_in(m.module.entry, |block, site, callee, args| {
            assert!(args.is_empty());
            seen.push((block, site, callee));
        });
        assert_eq!(seen.len(), 2);
        assert_ne!(seen[0].0, seen[1].0); // different blocks
        assert_ne!(seen[0].1, seen[1].1); // different sites
    }
}
