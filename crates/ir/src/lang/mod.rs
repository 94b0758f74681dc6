//! The FT surface language: lexer, parser, AST, and pretty-printer.
//!
//! FT is a FORTRAN-77-flavoured integer language with modern braces syntax.
//! A program is a sequence of `global` declarations and `proc` definitions;
//! execution starts at `proc main()`. The grammar (EBNF):
//!
//! ```text
//! program     := item*
//! item        := "global" IDENT ("[" INT "]")? ";"
//!              | "proc" IDENT "(" (IDENT ("," IDENT)*)? ")" block
//! block       := "{" stmt* "}"
//! stmt        := "array" IDENT "[" INT "]" ";"
//!              | IDENT "=" expr ";"
//!              | IDENT "[" expr "]" "=" expr ";"
//!              | "if" "(" expr ")" block ("else" (block | if-stmt))?
//!              | "while" "(" expr ")" block
//!              | "do" IDENT "=" expr "," expr ("," expr)? block
//!              | "call" IDENT "(" (arg ("," arg)*)? ")" ";"
//!              | "return" ";"
//!              | "read" IDENT ";"
//!              | "print" expr ";"
//! arg         := expr                        -- a bare IDENT is by-reference
//! expr        := or-expr with C-like precedence:
//!                 ||  &&  (== !=)  (< <= > >=)  (+ -)  (* / %)  (unary - !)
//! atom        := INT | IDENT | IDENT "[" expr "]" | "(" expr ")"
//! ```
//!
//! All values are 64-bit signed integers; comparisons and logical operators
//! yield `0` or `1`, and any nonzero value is truthy in conditions.
//! Comments run from `//` or `#` to end of line (`#` mirrors FORTRAN `C`
//! comment cards when transliterating old codes).

pub mod ast;
mod lexer;
mod parser;
pub mod pretty;
mod token;

pub use ast::*;
pub use lexer::Lexer;
pub use parser::{parse_expr, parse_program, scan_items, Item};
pub(crate) use parser::{Build, Parser};
pub use token::{Keyword, Token, TokenKind};
