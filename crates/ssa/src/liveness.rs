//! Backward liveness analysis over the CFG, used to build *pruned* SSA:
//! a phi node for variable `v` is only placed where `v` is live, which is
//! how production compilers avoid the dead-phi blowup of minimal SSA
//! (Cytron et al. §5.1, "pruned SSA").
//!
//! The sets are deliberately conservative (an over-approximation of
//! liveness keeps more phis, which is always safe):
//!
//! * a call is assumed to **read** every by-reference scalar actual and
//!   every scalar global (the callee might);
//! * a call **defines nothing** for kill purposes (so variables stay live
//!   across calls);
//! * a `return` is assumed to read every formal and global — their exit
//!   values feed return jump functions.

use ipcp_ir::cfg::{BlockId, CStmt, Cfg, Terminator};
use ipcp_ir::program::{Arg, Expr, Proc, VarId};

/// Per-block liveness: one bitmap over `VarId`s per block, stored flat.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// 64-bit words per block.
    words: usize,
    /// `live_in[b * words..][..words]` — the variables that may be read
    /// before being written on some path from the top of block `b`.
    live_in: Vec<u64>,
}

impl Liveness {
    /// Whether `v` is live at the top of `b`.
    pub fn live_at(&self, b: BlockId, v: VarId) -> bool {
        let word = self.live_in[b.index() * self.words + v.index() / 64];
        word >> (v.index() % 64) & 1 == 1
    }
}

fn set(bits: &mut [u64], v: VarId) {
    bits[v.index() / 64] |= 1 << (v.index() % 64);
}

fn note_expr_uses(e: &Expr, set_bits: &mut [u64]) {
    e.for_each_var(&mut |v| set(set_bits, v));
}

/// Computes conservative liveness for one procedure.
pub fn compute(proc: &Proc, cfg: &Cfg) -> Liveness {
    let n_vars = proc.vars.len();
    let n_blocks = cfg.len();
    let words = n_vars.div_ceil(64);
    let row = |b: usize| b * words..(b + 1) * words;

    // Per-block upward-exposed uses and (strong) defs.
    let mut gen = vec![0u64; n_blocks * words];
    let mut kill = vec![0u64; n_blocks * words];
    let mut uses = vec![0u64; words];
    // An occurrence is upward-exposed unless the block already killed it.
    let expose = |uses: &mut [u64], g: &mut [u64], k: &[u64]| {
        for ((g, u), k) in g.iter_mut().zip(uses.iter_mut()).zip(k) {
            *g |= *u & !k;
            *u = 0;
        }
    };
    for (bi, blk) in cfg.blocks.iter().enumerate() {
        let (g, k) = (&mut gen[row(bi)], &mut kill[row(bi)]);
        for s in &blk.stmts {
            match s {
                CStmt::Assign { dst, value } => {
                    note_expr_uses(value, &mut uses);
                    expose(&mut uses, g, k);
                    set(k, *dst);
                }
                CStmt::Store { index, value, .. } => {
                    note_expr_uses(index, &mut uses);
                    note_expr_uses(value, &mut uses);
                    expose(&mut uses, g, k);
                }
                CStmt::Read { dst } => set(k, *dst),
                CStmt::Print { value } => {
                    note_expr_uses(value, &mut uses);
                    expose(&mut uses, g, k);
                }
                CStmt::Call { args, .. } => {
                    // Conservative: the callee may read every by-ref
                    // actual and every global; it kills nothing.
                    for a in args {
                        match a {
                            Arg::Scalar(v, _) | Arg::Array(v, _) => set(&mut uses, *v),
                            Arg::Value(e) => note_expr_uses(e, &mut uses),
                        }
                    }
                    for (vi, info) in proc.vars.iter().enumerate() {
                        if info.is_global() {
                            set(&mut uses, VarId::from(vi));
                        }
                    }
                    expose(&mut uses, g, k);
                }
            }
        }
        match &blk.term {
            Terminator::Branch { cond, .. } => {
                note_expr_uses(cond, &mut uses);
                expose(&mut uses, g, k);
            }
            Terminator::Return => {
                // Exit values of formals and globals feed return jump
                // functions.
                for (vi, info) in proc.vars.iter().enumerate() {
                    if info.is_formal() || info.is_global() {
                        set(&mut uses, VarId::from(vi));
                    }
                }
                expose(&mut uses, g, k);
            }
            Terminator::Jump(_) => {}
        }
    }

    // Iterate live_in[b] = gen[b] ∪ (∪_succ live_in[succ] − kill[b]).
    let mut live_in = vec![0u64; n_blocks * words];
    let mut out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..n_blocks).rev() {
            out.fill(0);
            for s in cfg.blocks[bi].term.successor_iter() {
                for (o, l) in out.iter_mut().zip(&live_in[row(s.index())]) {
                    *o |= l;
                }
            }
            for (w, i) in row(bi).enumerate() {
                let new = gen[i] | (out[w] & !kill[i]);
                if new & !live_in[i] != 0 {
                    live_in[i] |= new;
                    changed = true;
                }
            }
        }
    }

    Liveness { words, live_in }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::cfg::BlockId;
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn liveness_for(
        src: &str,
        name: &str,
    ) -> (ipcp_ir::ModuleCfg, Liveness, ipcp_ir::program::ProcId) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let pid = m.module.proc_named(name).unwrap().id;
        let l = compute(m.module.proc(pid), m.cfg(pid));
        (m, l, pid)
    }

    #[test]
    fn straight_line_use_is_live_at_entry() {
        let (m, l, pid) = liveness_for("proc main() { print x; x = 1; print x; }", "main");
        let x = m.module.proc(pid).var_named("x").unwrap();
        assert!(l.live_at(BlockId(0), x)); // upward-exposed first use
    }

    #[test]
    fn killed_before_use_is_dead_at_entry() {
        let (m, l, pid) = liveness_for("proc main() { x = 1; print x; }", "main");
        let x = m.module.proc(pid).var_named("x").unwrap();
        assert!(!l.live_at(BlockId(0), x));
    }

    #[test]
    fn loop_carried_variable_is_live_at_header() {
        let (m, l, pid) = liveness_for(
            "proc main() { s = 0; read n; while (n > 0) { s = s + 1; n = n - 1; } print s; }",
            "main",
        );
        let p = m.module.proc(pid);
        let s = p.var_named("s").unwrap();
        let n = p.var_named("n").unwrap();
        let cfg = m.cfg(pid);
        // Find the loop header (the block with two predecessors).
        let preds = cfg.predecessors();
        let header = (0..cfg.len())
            .map(BlockId::from)
            .find(|b| preds[b.index()].len() == 2)
            .unwrap();
        assert!(l.live_at(header, s));
        assert!(l.live_at(header, n));
    }

    #[test]
    fn formals_and_globals_live_at_returns() {
        let (m, l, pid) = liveness_for(
            "global g; proc main() { call f(1); } proc f(a) { x = 2; print x; }",
            "f",
        );
        let p = m.module.proc(pid);
        let a = p.var_named("a").unwrap();
        let g = p.var_named("g").unwrap();
        let x = p.var_named("x").unwrap();
        // a, g live everywhere (return uses them); the local x is dead at
        // entry (defined before use).
        assert!(l.live_at(BlockId(0), a));
        assert!(l.live_at(BlockId(0), g));
        assert!(!l.live_at(BlockId(0), x));
    }

    #[test]
    fn calls_keep_globals_live() {
        let (m, l, pid) = liveness_for(
            "global g; proc main() { g = 1; call h(); } proc h() { }",
            "main",
        );
        let g = m.module.proc(pid).var_named("g").unwrap();
        assert!(!l.live_at(BlockId(0), g)); // killed by the assignment first
                                            // But g is in gen of any block whose call precedes a kill — here
                                            // there is only one block; the property we care about is that the
                                            // call marked g used *after* the kill, which shows up as live_out
                                            // only; entry stays dead. Nothing to assert beyond no-panic.
        let _ = m;
    }
}
