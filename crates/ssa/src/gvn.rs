//! Hash-based global value numbering over the SSA value graph
//! (Alpern–Wegman–Zadeck style congruence detection).
//!
//! Two values are *congruent* when they provably compute the same result:
//! same operation over congruent operands, or a phi whose arguments are
//! all congruent to one value. The 1993 implementation built its jump
//! functions "on top of an existing framework for global value numbering";
//! here the numbering is an auxiliary analysis (the polynomial evaluator
//! does the heavy lifting), used to validate congruences and available to
//! clients that want redundancy information.
//!
//! The algorithm is the optimistic RPO-iterated hash partition: initially
//! all values share one class; each round re-keys every value by
//! `(operation, operand classes)`; iteration stops when the partition is
//! stable. Opaque values (loads, reads, call defs) are their own classes.

use crate::ssa::{SsaProc, ValueId, ValueKind};
use std::collections::HashMap;

/// The congruence classes computed by [`number`].
#[derive(Clone, Debug)]
pub struct ValueNumbering {
    /// Class id per value; equal ids ⇒ provably equal runtime values.
    pub class: Vec<u32>,
}

impl ValueNumbering {
    /// Whether `a` and `b` are congruent.
    pub fn congruent(&self, a: ValueId, b: ValueId) -> bool {
        self.class[a.index()] == self.class[b.index()]
    }

    /// Number of distinct classes.
    pub fn n_classes(&self) -> usize {
        let mut seen: Vec<u32> = self.class.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// Hashable per-round key for a value.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Opaque(u32), // unique per value
    Const(i64),
    Entry(u32),
    Unary(u8, u32),
    Binary(u8, u32, u32),
    Phi(u32, Vec<u32>), // block, arg classes
    PhiCollapsed(u32),  // phi with all-congruent args
}

/// Computes the optimistic congruence partition.
///
/// Runs at most `values.len() + 1` refinement rounds (each round can only
/// split classes, and there are at most `n` classes).
pub fn number(ssa: &SsaProc) -> ValueNumbering {
    // The φ(x,…,x) ≡ x collapse slightly weakens the pure-refinement
    // termination argument, so the run is round-capped; if it fails to
    // settle, retry without the collapse (which provably refines and
    // terminates). In practice the capped run always converges.
    match number_with(ssa, true).or_else(|| number_with(ssa, false)) {
        Some(numbering) => numbering,
        None => unreachable!("collapse-free numbering terminates"),
    }
}

fn number_with(ssa: &SsaProc, collapse: bool) -> Option<ValueNumbering> {
    let n = ssa.len();
    // Optimistic start: everything congruent (class 0).
    let mut class = vec![0u32; n];

    for _round in 0..(2 * n + 8) {
        let mut table: HashMap<Key, u32> = HashMap::new();
        let mut next: Vec<u32> = vec![0; n];
        let mut fresh = 0u32;
        for (i, slot) in next.iter_mut().enumerate() {
            let v = ValueId::from(i);
            let key = match ssa.value(v) {
                ValueKind::Const(c) => Key::Const(*c),
                ValueKind::Entry { var } => Key::Entry(var.0),
                ValueKind::Unary(op, a) => Key::Unary(*op as u8, class[a.index()]),
                ValueKind::Binary(op, a, b) => {
                    let (ca, cb) = (class[a.index()], class[b.index()]);
                    // Commutative operators get canonical operand order.
                    use ipcp_ir::lang::ast::BinOp::*;
                    let commutes = matches!(op, Add | Mul | Eq | Ne | And | Or);
                    if commutes && cb < ca {
                        Key::Binary(*op as u8, cb, ca)
                    } else {
                        Key::Binary(*op as u8, ca, cb)
                    }
                }
                ValueKind::Phi { block, .. } => {
                    let args: Vec<u32> = ssa
                        .phi_args(ValueId::from(i))
                        .iter()
                        .map(|&(_, a)| class[a.index()])
                        .collect();
                    if collapse && !args.is_empty() && args.iter().all(|&c| c == args[0]) {
                        // φ(x, x, …) ≡ x
                        Key::PhiCollapsed(args[0])
                    } else {
                        Key::Phi(block.0, args)
                    }
                }
                ValueKind::Load { .. }
                | ValueKind::ReadInput { .. }
                | ValueKind::CallDef { .. } => Key::Opaque(i as u32),
            };
            let id = *table.entry(key).or_insert_with(|| {
                let id = fresh;
                fresh += 1;
                id
            });
            *slot = id;
        }
        // `PhiCollapsed(c)` must land in the same class as the values whose
        // class is `c`: remap collapsed phis onto their argument's class.
        if collapse {
            for i in 0..n {
                if let ValueKind::Phi { .. } = ssa.value(ValueId::from(i)) {
                    let args: Vec<u32> = ssa
                        .phi_args(ValueId::from(i))
                        .iter()
                        .map(|&(_, a)| next[a.index()])
                        .collect();
                    if !args.is_empty() && args.iter().all(|&c| c == args[0]) {
                        next[i] = args[0];
                    }
                }
            }
        }
        if next == class {
            return Some(ValueNumbering { class });
        }
        class = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::{build_ssa, ModKills, StmtInfo};
    use ipcp_analysis::{build_call_graph, compute_modref};
    use ipcp_ir::{lower_module, parse_and_resolve};

    fn numbering(src: &str, name: &str) -> (SsaProc, ValueNumbering) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let pid = m.module.proc_named(name).unwrap().id;
        let ssa = build_ssa(&m, pid, &ModKills(&mr));
        let vn = number(&ssa);
        (ssa, vn)
    }

    /// Values printed by the procedure, in order.
    fn printed(ssa: &SsaProc) -> Vec<ValueId> {
        let mut out = Vec::new();
        for b in 0..ssa.n_blocks() {
            for s in ssa.stmts(ipcp_ir::cfg::BlockId::from(b)) {
                if let StmtInfo::Print { value, .. } = s {
                    out.push(value);
                }
            }
        }
        out
    }

    #[test]
    fn syntactically_equal_expressions_are_congruent() {
        let (ssa, vn) = numbering(
            "proc main() { read a; read b; print a + b; print a + b; }",
            "main",
        );
        let p = printed(&ssa);
        assert!(vn.congruent(p[0], p[1]));
    }

    #[test]
    fn commutativity_is_recognized() {
        let (ssa, vn) = numbering(
            "proc main() { read a; read b; print a + b; print b + a; print a - b; print b - a; }",
            "main",
        );
        let p = printed(&ssa);
        assert!(vn.congruent(p[0], p[1]));
        assert!(!vn.congruent(p[2], p[3]));
    }

    #[test]
    fn distinct_reads_are_not_congruent() {
        let (ssa, vn) = numbering("proc main() { read a; read b; print a; print b; }", "main");
        let p = printed(&ssa);
        assert!(!vn.congruent(p[0], p[1]));
    }

    #[test]
    fn phi_of_congruent_args_collapses() {
        // x and y get the same value on both paths; at the join their phis
        // are congruent to each other (the classic AWZ example).
        let (ssa, vn) = numbering(
            "proc main() { read c; if (c) { x = c + 1; y = c + 1; } else { x = c * 2; y = c * 2; } print x; print y; }",
            "main",
        );
        let p = printed(&ssa);
        assert!(vn.congruent(p[0], p[1]));
    }

    #[test]
    fn phi_collapse_to_single_value() {
        // x is c+1 on both paths: the phi is congruent to c+1 itself.
        let (ssa, vn) = numbering(
            "proc main() { read c; if (c) { x = c + 1; } else { x = c + 1; } print x; print c + 1; }",
            "main",
        );
        let p = printed(&ssa);
        assert!(vn.congruent(p[0], p[1]));
    }

    #[test]
    fn loop_congruence_of_parallel_inductions() {
        // Two identical inductions stay congruent through the loop — the
        // optimistic start is what makes this possible.
        let (ssa, vn) = numbering(
            "proc main() { read n; i = 0; j = 0; while (i < n) { i = i + 1; j = j + 1; } print i; print j; }",
            "main",
        );
        let p = printed(&ssa);
        assert!(vn.congruent(p[0], p[1]));
    }

    #[test]
    fn different_constants_split() {
        let (ssa, vn) = numbering("proc main() { print 1; print 2; print 1; }", "main");
        let p = printed(&ssa);
        assert!(!vn.congruent(p[0], p[1]));
        assert!(vn.congruent(p[0], p[2]));
    }

    #[test]
    fn call_defs_are_opaque() {
        let (ssa, vn) = numbering(
            "global g; proc main() { g = 1; call f(); print g; call f(); print g; } proc f() { g = g + 1; }",
            "main",
        );
        let p = printed(&ssa);
        assert!(!vn.congruent(p[0], p[1]));
    }

    #[test]
    fn class_count_is_sane() {
        let (ssa, vn) = numbering("proc main() { x = 1; y = 1; print x + y; }", "main");
        // With hash-consing, x and y are literally the same Const node.
        assert!(vn.n_classes() <= ssa.len());
    }
}
