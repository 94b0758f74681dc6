//! Pretty-printer: renders a parsed [`Program`] back to FT source text.
//!
//! The printer is exact enough that `parse(pretty(parse(src)))` equals
//! `parse(src)` up to spans — a property exercised by the round-trip tests
//! in this module and by proptest in the crate's integration tests.

use super::ast::*;
use std::fmt::Write as _;

/// Renders a whole program as FT source.
///
/// ```
/// use ipcp_ir::lang::{parse_program, pretty};
/// let src = "global n;\n\nproc main() {\n    n = 1 + 2 * 3;\n}\n";
/// let prog = parse_program(src)?;
/// assert_eq!(pretty::program(&prog), src);
/// # Ok::<(), ipcp_ir::Diagnostics>(())
/// ```
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for g in &p.globals {
        match g.array_len {
            Some(len) => {
                let _ = writeln!(out, "global {}[{len}];", g.name);
            }
            None => {
                let _ = writeln!(out, "global {};", g.name);
            }
        }
    }
    for (i, proc) in p.procs.iter().enumerate() {
        if i > 0 || !p.globals.is_empty() {
            out.push('\n');
        }
        proc_into(&mut out, proc);
    }
    out
}

fn proc_into(out: &mut String, proc: &ProcDecl) {
    let params: Vec<&str> = proc.params.iter().map(|(n, _)| n.as_str()).collect();
    let _ = writeln!(out, "proc {}({}) {{", proc.name, params.join(", "));
    block_body(out, &proc.body, 1);
    out.push_str("}\n");
}

/// Renders an expression with minimal parentheses.
pub fn expr(e: &Expr) -> String {
    let mut out = String::new();
    expr_prec(&mut out, e, 0);
    out
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("    ");
    }
}

fn block_body(out: &mut String, b: &Block, indent: usize) {
    for s in &b.stmts {
        stmt_into(out, s, indent);
    }
}

fn stmt_into(out: &mut String, s: &Stmt, indent: usize) {
    pad(out, indent);
    match s {
        Stmt::ArrayDecl { name, len, .. } => {
            let _ = writeln!(out, "array {name}[{len}];");
        }
        Stmt::Assign { name, value, .. } => {
            let _ = writeln!(out, "{name} = {};", expr(value));
        }
        Stmt::Store {
            name, index, value, ..
        } => {
            let _ = writeln!(out, "{name}[{}] = {};", expr(index), expr(value));
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            let _ = writeln!(out, "if ({}) {{", expr(cond));
            block_body(out, then_blk, indent + 1);
            pad(out, indent);
            if else_blk.stmts.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                block_body(out, else_blk, indent + 1);
                pad(out, indent);
                out.push_str("}\n");
            }
        }
        Stmt::While { cond, body, .. } => {
            let _ = writeln!(out, "while ({}) {{", expr(cond));
            block_body(out, body, indent + 1);
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::Do {
            var,
            lo,
            hi,
            step,
            body,
            ..
        } => {
            match step {
                Some(st) => {
                    let _ = writeln!(
                        out,
                        "do {var} = {}, {}, {} {{",
                        expr(lo),
                        expr(hi),
                        expr(st)
                    );
                }
                None => {
                    let _ = writeln!(out, "do {var} = {}, {} {{", expr(lo), expr(hi));
                }
            }
            block_body(out, body, indent + 1);
            pad(out, indent);
            out.push_str("}\n");
        }
        Stmt::Call { callee, args, .. } => {
            let rendered: Vec<String> = args.iter().map(expr).collect();
            let _ = writeln!(out, "call {callee}({});", rendered.join(", "));
        }
        Stmt::Return { .. } => out.push_str("return;\n"),
        Stmt::Read { name, .. } => {
            let _ = writeln!(out, "read {name};");
        }
        Stmt::Print { value, .. } => {
            let _ = writeln!(out, "print {};", expr(value));
        }
    }
}

/// Prints `e`, parenthesizing when its top operator binds no tighter than
/// `min_prec` requires.
fn expr_prec(out: &mut String, e: &Expr, min_prec: u8) {
    match e {
        Expr::Const { value, .. } => {
            if *value < 0 {
                // Negative literals only arise from folded ASTs; print them
                // parenthesized so `a - -1` round-trips as `a - (-1)`.
                let _ = write!(out, "({value})");
            } else {
                let _ = write!(out, "{value}");
            }
        }
        Expr::Var { name, .. } => out.push_str(name),
        Expr::Load { name, index, .. } => {
            let _ = write!(out, "{name}[");
            expr_prec(out, index, 0);
            out.push(']');
        }
        Expr::Unary { op, operand, .. } => {
            out.push_str(op.as_str());
            expr_prec(out, operand, UNARY_PRECEDENCE);
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let prec = op.precedence();
            let needs_parens = prec < min_prec;
            if needs_parens {
                out.push('(');
            }
            expr_prec(out, lhs, prec);
            let _ = write!(out, " {} ", op.as_str());
            // Left-associative: the right operand must bind strictly tighter.
            expr_prec(out, rhs, prec + 1);
            if needs_parens {
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{parse_expr, parse_program};

    fn strip_spans_eq(a: &Program, b: &Program) -> bool {
        // Compare via pretty-printing, which ignores spans by construction.
        program(a) == program(b)
    }

    #[test]
    fn expr_round_trip_preserves_structure() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a - b - c",
            "a - (b - c)",
            "-x * y",
            "-(x * y)",
            "!(a == b) && c < d || e",
            "a[i + 1] * 2",
            "x % 3 == 0",
        ] {
            let e1 = parse_expr(src).unwrap();
            let printed = expr(&e1);
            let e2 = parse_expr(&printed).unwrap();
            assert_eq!(expr(&e2), printed, "round-trip failed for `{src}`");
        }
    }

    #[test]
    fn program_round_trip() {
        let src = r#"
            global n;
            global tbl[4];
            proc main() {
                n = 3;
                call f(n, 2 + n);
                if (n > 0) { print n; } else { read n; }
                do i = 1, n, 2 { tbl[i] = i * i; }
                while (n < 10) { n = n + 1; }
                return;
            }
            proc f(a, b) {
                array t[2];
                t[0] = a;
                print t[0] + b;
            }
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = program(&p1);
        let p2 = parse_program(&printed).unwrap();
        assert!(strip_spans_eq(&p1, &p2), "pretty output:\n{printed}");
        // And printing is idempotent.
        assert_eq!(program(&p2), printed);
    }

    #[test]
    fn negative_literal_is_reparseable() {
        use crate::lang::ast::{BinOp, Expr};
        let e = Expr::Binary {
            op: BinOp::Sub,
            lhs: Box::new(Expr::var("a")),
            rhs: Box::new(Expr::lit(-1)),
            span: crate::span::Span::dummy(),
        };
        let printed = expr(&e);
        assert_eq!(printed, "a - (-1)");
        parse_expr(&printed).unwrap();
    }

    #[test]
    fn unary_over_binary_parenthesizes() {
        let e = parse_expr("-(a + b)").unwrap();
        assert_eq!(expr(&e), "-(a + b)");
    }
}
