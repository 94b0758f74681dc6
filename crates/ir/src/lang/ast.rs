//! Parsed (unresolved) abstract syntax tree for FT.
//!
//! Names are plain strings here. Only the syntactic tools build this tree
//! ([`super::parse_program`]: `ipcc fmt`, which must format programs that
//! do not resolve, and `program_stats`); resolution never does — the same
//! grammar writes the checked, id-based [`crate::program::Module`]
//! directly ([`crate::parse_and_resolve`]), and the module prints itself
//! ([`crate::program::Module::to_source`]). [`BinOp`] and [`UnOp`], with
//! their spelling and precedence, are shared by both forms.

use crate::span::Span;
use std::fmt;

/// A whole parsed source file.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Program {
    /// Module-level variable declarations, in source order.
    pub globals: Vec<GlobalDecl>,
    /// Procedure definitions, in source order.
    pub procs: Vec<ProcDecl>,
}

/// `global name;` or `global name[len];`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalDecl {
    /// Declared name.
    pub name: String,
    /// `Some(len)` when the global is an array of `len` cells.
    pub array_len: Option<i64>,
    /// Declaration site.
    pub span: Span,
}

/// `proc name(p1, p2, ...) { ... }`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcDecl {
    /// Procedure name.
    pub name: String,
    /// Formal parameter names, in order.
    pub params: Vec<(String, Span)>,
    /// Procedure body.
    pub body: Block,
    /// Span of the header (name + parameter list).
    pub span: Span,
}

/// A `{ ... }` statement sequence.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
}

/// One FT statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `array name[len];` — declares a procedure-local array.
    ArrayDecl {
        /// Declared name.
        name: String,
        /// Number of cells.
        len: i64,
        /// Statement span.
        span: Span,
    },
    /// `name = expr;`
    Assign {
        /// Target scalar.
        name: String,
        /// Value stored.
        value: Expr,
        /// Statement span.
        span: Span,
    },
    /// `name[index] = expr;`
    Store {
        /// Target array.
        name: String,
        /// Cell index.
        index: Expr,
        /// Value stored.
        value: Expr,
        /// Statement span.
        span: Span,
    },
    /// `if (cond) { .. } else { .. }` — `else_blk` may be empty.
    If {
        /// Branch condition (nonzero = taken).
        cond: Expr,
        /// Then-branch.
        then_blk: Block,
        /// Else-branch (empty block when absent).
        else_blk: Block,
        /// Statement span.
        span: Span,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition (nonzero = continue).
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Statement span.
        span: Span,
    },
    /// `do var = lo, hi [, step] { .. }` — FORTRAN counted loop.
    ///
    /// `hi` and `step` are evaluated once on entry; the loop runs while
    /// `var <= hi` for positive step, `var >= hi` for negative step.
    Do {
        /// Induction variable.
        var: String,
        /// Initial value.
        lo: Expr,
        /// Inclusive bound, evaluated once.
        hi: Expr,
        /// Step (defaults to `1`), evaluated once.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
        /// Statement span.
        span: Span,
    },
    /// `call proc(arg, ...);`
    Call {
        /// Callee name.
        callee: String,
        /// Actual arguments; a bare scalar variable is passed by reference.
        args: Vec<Expr>,
        /// Statement span.
        span: Span,
    },
    /// `return;`
    Return {
        /// Statement span.
        span: Span,
    },
    /// `read name;` — consume one input integer into a scalar.
    Read {
        /// Target scalar.
        name: String,
        /// Statement span.
        span: Span,
    },
    /// `print expr;`
    Print {
        /// Printed value.
        value: Expr,
        /// Statement span.
        span: Span,
    },
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::ArrayDecl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::Store { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Do { span, .. }
            | Stmt::Call { span, .. }
            | Stmt::Return { span }
            | Stmt::Read { span, .. }
            | Stmt::Print { span, .. } => *span,
        }
    }
}

/// Binary operators, in FT surface syntax.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` wrapping-free 64-bit addition (overflow is a runtime error).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` truncating toward zero; division by zero is a runtime error.
    Div,
    /// `%` remainder with the sign of the dividend.
    Rem,
    /// `==` yields 0/1.
    Eq,
    /// `!=` yields 0/1.
    Ne,
    /// `<` yields 0/1.
    Lt,
    /// `<=` yields 0/1.
    Le,
    /// `>` yields 0/1.
    Gt,
    /// `>=` yields 0/1.
    Ge,
    /// `&&` logical and over truthiness, yields 0/1 (non-short-circuit).
    And,
    /// `||` logical or over truthiness, yields 0/1 (non-short-circuit).
    Or,
}

impl BinOp {
    /// Surface spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding strength for the pretty-printer (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 6,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Binding strength of a unary operator: tighter than any [`BinOp`]
/// tier, so the printers parenthesize a binary operand of one.
pub const UNARY_PRECEDENCE: u8 = 7;

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not: `!x` is 1 when `x == 0`, else 0.
    Not,
}

impl UnOp {
    /// Surface spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One FT expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Const {
        /// The literal value.
        value: i64,
        /// Source span.
        span: Span,
    },
    /// Scalar variable use.
    Var {
        /// The referenced name.
        name: String,
        /// Source span.
        span: Span,
    },
    /// Array element load `name[index]`.
    Load {
        /// The referenced array.
        name: String,
        /// Cell index.
        index: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Const { span, .. }
            | Expr::Var { span, .. }
            | Expr::Load { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. } => *span,
        }
    }

    /// Convenience constructor for a literal with a dummy span.
    pub fn lit(value: i64) -> Expr {
        Expr::Const {
            value,
            span: Span::dummy(),
        }
    }

    /// Convenience constructor for a variable use with a dummy span.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var {
            name: name.into(),
            span: Span::dummy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_orders_or_below_mul() {
        assert!(BinOp::Or.precedence() < BinOp::And.precedence());
        assert!(BinOp::And.precedence() < BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() < BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() < BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() < BinOp::Mul.precedence());
    }

    #[test]
    fn stmt_span_is_reachable_for_all_variants() {
        let s = Stmt::Return {
            span: Span::new(1, 8),
        };
        assert_eq!(s.span(), Span::new(1, 8));
    }
}
