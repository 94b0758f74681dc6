//! Recursive-descent parser for FT.
//!
//! The grammar exists once, generic over a [`Build`] sink that decides
//! what each parsed construct becomes: [`AstBuilder`] builds the
//! unresolved [`Program`] that the syntactic tools read (`ipcc fmt`,
//! `program_stats`), and the resolving builder in
//! [`crate::program`] writes checked procedure bodies straight into a
//! `Module`. Tokens are lexed on demand, one token of lookahead.

use super::ast::*;
use super::lexer::Lexer;
use super::token::{Keyword, Token, TokenKind};
use crate::error::Diagnostics;
use crate::span::Span;

/// Parses a full FT program.
///
/// # Errors
///
/// Returns accumulated [`Diagnostics`] on any lexical or syntactic error.
/// The parser recovers at item boundaries (it skips to the next `proc` /
/// `global` keyword) so multiple errors can be reported in one pass.
///
/// ```
/// use ipcp_ir::lang::parse_program;
/// let prog = parse_program("global g; proc main() { g = 1; }")?;
/// assert_eq!(prog.globals.len(), 1);
/// assert_eq!(prog.procs.len(), 1);
/// # Ok::<(), ipcp_ir::Diagnostics>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, Diagnostics> {
    let mut parser = Parser::new(src, AstBuilder::default());
    parser.program();
    Ok(parser.finish()?.0.program)
}

/// Parses a single expression (used by tests and the REPL-style examples).
///
/// # Errors
///
/// Returns diagnostics if the input is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr, Diagnostics> {
    let mut parser = Parser::new(src, AstBuilder::default());
    let expr = parser.expr();
    if parser.tok.kind != TokenKind::Eof {
        parser
            .diags
            .error("trailing input after expression", parser.tok.span);
    }
    parser.finish()?;
    expr.ok_or_else(Diagnostics::new)
}

/// The globals and procedure signatures of `src`, read without parsing
/// a body: each is skipped by counting braces. `None` when `src` has a
/// lex or parse error outside the bodies, or a body whose braces do not
/// balance; such a text never parses. A `Some` text may still hold an
/// error inside a body, which only the full parse finds.
pub fn scan_items(src: &str) -> Option<Vec<Item<'_>>> {
    let mut parser = Parser::new(src, AstBuilder::default());
    parser.skim = true;
    loop {
        match parser.tok.kind {
            TokenKind::Eof => break,
            TokenKind::Keyword(Keyword::Global) => parser.global_decl()?,
            TokenKind::Keyword(Keyword::Proc) => parser.proc_decl()?,
            _ => return None,
        }
    }
    parser.finish().ok().map(|(_, items)| items)
}

/// The binary operator `kind` spells, if any.
fn binop(kind: TokenKind<'_>) -> Option<BinOp> {
    Some(match kind {
        TokenKind::OrOr => BinOp::Or,
        TokenKind::AndAnd => BinOp::And,
        TokenKind::Eq => BinOp::Eq,
        TokenKind::Ne => BinOp::Ne,
        TokenKind::Lt => BinOp::Lt,
        TokenKind::Le => BinOp::Le,
        TokenKind::Gt => BinOp::Gt,
        TokenKind::Ge => BinOp::Ge,
        TokenKind::Plus => BinOp::Add,
        TokenKind::Minus => BinOp::Sub,
        TokenKind::Star => BinOp::Mul,
        TokenKind::Slash => BinOp::Div,
        TokenKind::Percent => BinOp::Rem,
        _ => return None,
    })
}

/// Maximum nesting depth of expressions and blocks. Recursive descent
/// uses the host stack, so unbounded nesting (e.g. ten thousand open
/// parentheses) would overflow it; past this depth the parser reports a
/// diagnostic instead of recursing.
const MAX_DEPTH: usize = 256;

/// A top-level declaration as the signature table needs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Item<'s> {
    /// `global name;` or `global name[len];`
    Global {
        /// The declared name.
        name: &'s str,
        /// `Some(len)` for an array.
        array_len: Option<i64>,
        /// The declaration.
        span: Span,
    },
    /// A procedure header.
    Proc {
        /// The procedure's name.
        name: &'s str,
        /// Its parameter count.
        arity: usize,
        /// The header, from `proc` to `)`.
        span: Span,
    },
}

/// The sink the grammar builds into. The parser calls each hook when the
/// construct is complete, except [`Build::target`] and [`Build::callee`],
/// which run before the subexpressions they govern: the resolver must
/// meet names in exactly the order the language defines (an assignment's
/// value before its target, an array before its index).
pub(crate) trait Build<'s> {
    /// An expression.
    type Expr;
    /// A call argument.
    type Arg;
    /// A statement.
    type Stmt;
    /// A statement list.
    type Block: Default;
    /// The array of a load or store, or a `do` variable.
    type Target;
    /// The procedure a call names.
    type Callee;

    /// Source span of `e`.
    fn span(e: &Self::Expr) -> Span;
    /// The value of `e` when it is an integer literal.
    fn literal(e: &Self::Expr) -> Option<i64>;

    /// `global name;` or `global name[len];`
    fn global(&mut self, name: &'s str, array_len: Option<i64>, span: Span);
    /// A procedure header; its body follows.
    fn proc_begin(&mut self, name: &'s str, params: &[(&'s str, Span)], span: Span);
    /// The body of the procedure begun last.
    fn proc_end(&mut self, body: Self::Block);
    /// Opens a statement list: the statements pushed until the matching
    /// [`Build::block_end`] form it. Lists nest like the blocks they
    /// build, so one stack serves them all and each list is allocated
    /// once, at its exact length.
    fn block_begin(&mut self) -> usize;
    /// Appends `stmt` to the innermost open list.
    fn push(&mut self, stmt: Self::Stmt);
    /// Closes the list that [`Build::block_begin`] returned `start` for.
    fn block_end(&mut self, start: usize) -> Self::Block;

    /// An integer literal.
    fn int(&mut self, value: i64, span: Span) -> Self::Expr;
    /// A scalar variable use.
    fn var(&mut self, name: &'s str, span: Span) -> Self::Expr;
    /// Names an array (`array`) or a `do` variable before the
    /// subexpressions that follow it.
    fn target(&mut self, name: &'s str, array: bool) -> Self::Target;
    /// `array[index]`
    fn load(&mut self, array: Self::Target, index: Self::Expr, span: Span) -> Self::Expr;
    /// A unary operation.
    fn unary(&mut self, op: UnOp, operand: Self::Expr, span: Span) -> Self::Expr;
    /// A binary operation.
    fn binary(&mut self, op: BinOp, lhs: Self::Expr, rhs: Self::Expr, span: Span) -> Self::Expr;

    /// `array name[len];`
    fn array_decl(&mut self, name: &'s str, len: i64, span: Span) -> Self::Stmt;
    /// `name = value;`
    fn assign(&mut self, name: &'s str, value: Self::Expr, span: Span) -> Self::Stmt;
    /// `array[index] = value;`
    fn store(
        &mut self,
        array: Self::Target,
        index: Self::Expr,
        value: Self::Expr,
        span: Span,
    ) -> Self::Stmt;
    /// `if (cond) { .. } else { .. }`
    fn if_(
        &mut self,
        cond: Self::Expr,
        then_blk: Self::Block,
        else_blk: Self::Block,
        span: Span,
    ) -> Self::Stmt;
    /// `while (cond) { .. }`
    fn while_(&mut self, cond: Self::Expr, body: Self::Block, span: Span) -> Self::Stmt;
    /// `do var = lo, hi [, step] { .. }`
    #[allow(clippy::too_many_arguments)]
    fn do_(
        &mut self,
        var: Self::Target,
        lo: Self::Expr,
        hi: Self::Expr,
        step: Option<Self::Expr>,
        body: Self::Block,
        span: Span,
    ) -> Self::Stmt;
    /// The callee of a call, before its arguments.
    fn callee(&mut self, name: &'s str) -> Self::Callee;
    /// One call argument.
    fn arg(&mut self, e: Self::Expr) -> Self::Arg;
    /// `call callee(args);`
    fn call(&mut self, callee: Self::Callee, args: Vec<Self::Arg>, span: Span) -> Self::Stmt;
    /// `return;`
    fn ret(&mut self, span: Span) -> Self::Stmt;
    /// `read name;`
    fn read(&mut self, name: &'s str, span: Span) -> Self::Stmt;
    /// `print value;`
    fn print(&mut self, value: Self::Expr, span: Span) -> Self::Stmt;
}

/// Builds the unresolved [`Program`].
#[derive(Default)]
pub(crate) struct AstBuilder {
    program: Program,
    /// The procedure begun last, its body still empty.
    header: Option<ProcDecl>,
    stmts: Vec<Stmt>,
}

impl<'s> Build<'s> for AstBuilder {
    type Expr = Expr;
    type Arg = Expr;
    type Stmt = Stmt;
    type Block = Block;
    type Target = &'s str;
    type Callee = &'s str;

    fn span(e: &Expr) -> Span {
        e.span()
    }

    fn literal(e: &Expr) -> Option<i64> {
        match e {
            Expr::Const { value, .. } => Some(*value),
            _ => None,
        }
    }

    fn global(&mut self, name: &'s str, array_len: Option<i64>, span: Span) {
        self.program.globals.push(GlobalDecl {
            name: name.to_owned(),
            array_len,
            span,
        });
    }

    fn proc_begin(&mut self, name: &'s str, params: &[(&'s str, Span)], span: Span) {
        self.header = Some(ProcDecl {
            name: name.to_owned(),
            params: params.iter().map(|&(p, s)| (p.to_owned(), s)).collect(),
            body: Block::default(),
            span,
        });
    }

    fn proc_end(&mut self, body: Block) {
        if let Some(decl) = self.header.take() {
            self.program.procs.push(ProcDecl { body, ..decl });
        }
    }

    fn block_begin(&mut self) -> usize {
        self.stmts.len()
    }

    fn push(&mut self, stmt: Stmt) {
        self.stmts.push(stmt);
    }

    fn block_end(&mut self, start: usize) -> Block {
        Block {
            stmts: self.stmts.drain(start..).collect(),
        }
    }

    fn int(&mut self, value: i64, span: Span) -> Expr {
        Expr::Const { value, span }
    }

    fn var(&mut self, name: &'s str, span: Span) -> Expr {
        Expr::Var {
            name: name.to_owned(),
            span,
        }
    }

    fn target(&mut self, name: &'s str, _array: bool) -> &'s str {
        name
    }

    fn load(&mut self, name: &'s str, index: Expr, span: Span) -> Expr {
        Expr::Load {
            name: name.to_owned(),
            index: Box::new(index),
            span,
        }
    }

    fn unary(&mut self, op: UnOp, operand: Expr, span: Span) -> Expr {
        Expr::Unary {
            op,
            operand: Box::new(operand),
            span,
        }
    }

    fn binary(&mut self, op: BinOp, lhs: Expr, rhs: Expr, span: Span) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        }
    }

    fn array_decl(&mut self, name: &'s str, len: i64, span: Span) -> Stmt {
        Stmt::ArrayDecl {
            name: name.to_owned(),
            len,
            span,
        }
    }

    fn assign(&mut self, name: &'s str, value: Expr, span: Span) -> Stmt {
        Stmt::Assign {
            name: name.to_owned(),
            value,
            span,
        }
    }

    fn store(&mut self, name: &'s str, index: Expr, value: Expr, span: Span) -> Stmt {
        Stmt::Store {
            name: name.to_owned(),
            index,
            value,
            span,
        }
    }

    fn if_(&mut self, cond: Expr, then_blk: Block, else_blk: Block, span: Span) -> Stmt {
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        }
    }

    fn while_(&mut self, cond: Expr, body: Block, span: Span) -> Stmt {
        Stmt::While { cond, body, span }
    }

    fn do_(
        &mut self,
        var: &'s str,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Block,
        span: Span,
    ) -> Stmt {
        Stmt::Do {
            var: var.to_owned(),
            lo,
            hi,
            step,
            body,
            span,
        }
    }

    fn callee(&mut self, name: &'s str) -> &'s str {
        name
    }

    fn arg(&mut self, e: Expr) -> Expr {
        e
    }

    fn call(&mut self, callee: &'s str, args: Vec<Expr>, span: Span) -> Stmt {
        Stmt::Call {
            callee: callee.to_owned(),
            args,
            span,
        }
    }

    fn ret(&mut self, span: Span) -> Stmt {
        Stmt::Return { span }
    }

    fn read(&mut self, name: &'s str, span: Span) -> Stmt {
        Stmt::Read {
            name: name.to_owned(),
            span,
        }
    }

    fn print(&mut self, value: Expr, span: Span) -> Stmt {
        Stmt::Print { value, span }
    }
}

/// The grammar, writing into `b`.
pub(crate) struct Parser<'s, B> {
    lexer: Lexer<'s>,
    /// The one token of lookahead.
    tok: Token<'s>,
    depth: usize,
    diags: Diagnostics,
    lex_errors: Diagnostics,
    /// Every global and every procedure header parsed, in source order.
    items: Vec<Item<'s>>,
    /// The current header's parameters (reused across procedures).
    params: Vec<(&'s str, Span)>,
    /// Skip procedure bodies instead of parsing them ([`scan_items`]).
    skim: bool,
    /// The sink.
    b: B,
}

impl<'s, B: Build<'s>> Parser<'s, B> {
    pub(crate) fn new(src: &'s str, b: B) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(src),
            tok: Token::new(TokenKind::Eof, Span::dummy()),
            depth: 0,
            diags: Diagnostics::new(),
            lex_errors: Diagnostics::new(),
            items: Vec::new(),
            params: Vec::new(),
            skim: false,
            b,
        };
        parser.tok = parser.lex();
        parser
    }

    /// The builder and the items — or the errors: the lex errors if
    /// there are any (a token stream with holes would only yield
    /// follow-on parse errors), else the parse errors.
    pub(crate) fn finish(mut self) -> Result<(B, Vec<Item<'s>>), Diagnostics> {
        while self.tok.kind != TokenKind::Eof {
            self.bump();
        }
        if !self.lex_errors.is_empty() {
            return Err(self.lex_errors);
        }
        self.diags.into_result((self.b, self.items))
    }

    /// The next token; lex errors are recorded and skipped.
    fn lex(&mut self) -> Token<'s> {
        loop {
            match self.lexer.next_token() {
                Ok(tok) => return tok,
                Err(d) => self.lex_errors.push(d),
            }
        }
    }

    /// Charges one nesting level; errors (once per offending branch) when
    /// the source nests deeper than [`MAX_DEPTH`].
    fn enter(&mut self, what: &str) -> bool {
        if self.depth >= MAX_DEPTH {
            self.diags.error(
                format!("{what} nesting exceeds the supported depth ({MAX_DEPTH})"),
                self.tok.span,
            );
            false
        } else {
            self.depth += 1;
            true
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn bump(&mut self) -> Token<'s> {
        let tok = self.tok;
        if tok.kind != TokenKind::Eof {
            self.tok = self.lex();
        }
        tok
    }

    fn at(&self, kind: TokenKind<'_>) -> bool {
        self.tok.kind == kind
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Option<Token<'s>> {
        if self.at(kind) {
            Some(self.bump())
        } else {
            self.diags.error(
                format!("expected `{kind}`, found `{}`", self.tok.kind),
                self.tok.span,
            );
            None
        }
    }

    fn expect_ident(&mut self) -> Option<(&'s str, Span)> {
        match self.tok.kind {
            TokenKind::Ident(name) => Some((name, self.bump().span)),
            other => {
                self.diags.error(
                    format!("expected identifier, found `{other}`"),
                    self.tok.span,
                );
                None
            }
        }
    }

    fn expect_int(&mut self) -> Option<(i64, Span)> {
        match self.tok.kind {
            TokenKind::Int(v) => Some((v, self.bump().span)),
            other => {
                self.diags.error(
                    format!("expected integer literal, found `{other}`"),
                    self.tok.span,
                );
                None
            }
        }
    }

    /// `len` of an array declaration, reported when not positive.
    fn check_len(&mut self, len: i64, span: Span) {
        if len <= 0 {
            self.diags
                .error(format!("array length must be positive, got {len}"), span);
        }
    }

    /// Skip forward to the start of the next top-level item (error recovery).
    fn recover_to_item(&mut self) {
        while !matches!(
            self.tok.kind,
            TokenKind::Eof
                | TokenKind::Keyword(Keyword::Proc)
                | TokenKind::Keyword(Keyword::Global)
        ) {
            self.bump();
        }
    }

    pub(crate) fn program(&mut self) {
        loop {
            match self.tok.kind {
                TokenKind::Eof => break,
                TokenKind::Keyword(Keyword::Global) => {
                    if self.global_decl().is_none() {
                        self.recover_to_item();
                    }
                }
                TokenKind::Keyword(Keyword::Proc) => {
                    if self.proc_decl().is_none() {
                        self.recover_to_item();
                    }
                }
                other => {
                    self.diags.error(
                        format!("expected `proc` or `global`, found `{other}`"),
                        self.tok.span,
                    );
                    self.bump();
                    self.recover_to_item();
                }
            }
        }
    }

    fn global_decl(&mut self) -> Option<()> {
        let start = self.bump().span; // `global`
        let (name, name_span) = self.expect_ident()?;
        let array_len = if self.eat(TokenKind::LBracket) {
            let (len, len_span) = self.expect_int()?;
            self.check_len(len, len_span);
            self.expect(TokenKind::RBracket)?;
            Some(len)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        let span = start.merge(name_span).merge(end);
        self.items.push(Item::Global {
            name,
            array_len,
            span,
        });
        if !self.skim {
            self.b.global(name, array_len, span);
        }
        Some(())
    }

    fn proc_decl(&mut self) -> Option<()> {
        let start = self.bump().span; // `proc`
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        self.params.clear();
        if !self.at(TokenKind::RParen) {
            loop {
                let param = self.expect_ident()?;
                self.params.push(param);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        let header_end = self.expect(TokenKind::RParen)?.span;
        let span = start.merge(header_end);
        let arity = self.params.len();
        if self.skim {
            if !self.at(TokenKind::LBrace) || !self.lexer.skip_block() {
                return None;
            }
            self.tok = self.lex();
        } else {
            self.b.proc_begin(name, &self.params, span);
            let body = self.block()?;
            self.b.proc_end(body);
        }
        self.items.push(Item::Proc { name, arity, span });
        Some(())
    }

    fn block(&mut self) -> Option<B::Block> {
        if !self.enter("block") {
            return None;
        }
        let block = self.block_inner();
        self.leave();
        block
    }

    fn block_inner(&mut self) -> Option<B::Block> {
        self.expect(TokenKind::LBrace)?;
        let start = self.b.block_begin();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            match self.stmt() {
                Some(s) => self.b.push(s),
                None => {
                    // Recover within the block: skip to just after the next `;`
                    // or stop at a brace.
                    loop {
                        match self.tok.kind {
                            TokenKind::Semi => {
                                self.bump();
                                break;
                            }
                            TokenKind::RBrace | TokenKind::LBrace | TokenKind::Eof => break,
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
            }
        }
        let block = self.b.block_end(start);
        self.expect(TokenKind::RBrace)?;
        Some(block)
    }

    fn stmt(&mut self) -> Option<B::Stmt> {
        match self.tok.kind {
            TokenKind::Keyword(Keyword::Array) => self.array_decl(),
            TokenKind::Keyword(Keyword::If) => self.if_stmt(),
            TokenKind::Keyword(Keyword::While) => self.while_stmt(),
            TokenKind::Keyword(Keyword::Do) => self.do_stmt(),
            TokenKind::Keyword(Keyword::Call) => self.call_stmt(),
            TokenKind::Keyword(Keyword::Return) => {
                let start = self.bump().span;
                let end = self.expect(TokenKind::Semi)?.span;
                Some(self.b.ret(start.merge(end)))
            }
            TokenKind::Keyword(Keyword::Read) => {
                let start = self.bump().span;
                let (name, _) = self.expect_ident()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Some(self.b.read(name, start.merge(end)))
            }
            TokenKind::Keyword(Keyword::Print) => {
                let start = self.bump().span;
                let value = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Some(self.b.print(value, start.merge(end)))
            }
            TokenKind::Ident(_) => self.assign_or_store(),
            other => {
                self.diags.error(
                    format!("expected statement, found `{other}`"),
                    self.tok.span,
                );
                // Consume the offending token: the caller's recovery loop
                // stops *before* braces, so leaving it in place would spin
                // forever on a stray `{` here.
                self.bump();
                None
            }
        }
    }

    fn array_decl(&mut self) -> Option<B::Stmt> {
        let start = self.bump().span; // `array`
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LBracket)?;
        let (len, len_span) = self.expect_int()?;
        self.check_len(len, len_span);
        self.expect(TokenKind::RBracket)?;
        let end = self.expect(TokenKind::Semi)?.span;
        Some(self.b.array_decl(name, len, start.merge(end)))
    }

    fn if_stmt(&mut self) -> Option<B::Stmt> {
        let start = self.bump().span; // `if`
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_blk = self.block()?;
        let else_blk = if self.eat(TokenKind::Keyword(Keyword::Else)) {
            if self.at(TokenKind::Keyword(Keyword::If)) {
                // `else if` chains desugar to a one-statement else block.
                let nested = self.if_stmt()?;
                let start = self.b.block_begin();
                self.b.push(nested);
                self.b.block_end(start)
            } else {
                self.block()?
            }
        } else {
            B::Block::default()
        };
        Some(self.b.if_(cond, then_blk, else_blk, start))
    }

    fn while_stmt(&mut self) -> Option<B::Stmt> {
        let start = self.bump().span; // `while`
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Some(self.b.while_(cond, body, start))
    }

    fn do_stmt(&mut self) -> Option<B::Stmt> {
        let start = self.bump().span; // `do`
        let (var, _) = self.expect_ident()?;
        let var = self.b.target(var, false);
        self.expect(TokenKind::Assign)?;
        let lo = self.expr()?;
        self.expect(TokenKind::Comma)?;
        let hi = self.expr()?;
        let step = if self.eat(TokenKind::Comma) {
            Some(self.expr()?)
        } else {
            None
        };
        let body = self.block()?;
        Some(self.b.do_(var, lo, hi, step, body, start))
    }

    fn call_stmt(&mut self) -> Option<B::Stmt> {
        let start = self.bump().span; // `call`
        let (callee, _) = self.expect_ident()?;
        let callee = self.b.callee(callee);
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                let e = self.expr()?;
                args.push(self.b.arg(e));
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let end = self.expect(TokenKind::Semi)?.span;
        Some(self.b.call(callee, args, start.merge(end)))
    }

    fn assign_or_store(&mut self) -> Option<B::Stmt> {
        let (name, name_span) = self.expect_ident()?;
        if self.eat(TokenKind::LBracket) {
            let array = self.b.target(name, true);
            let index = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            self.expect(TokenKind::Assign)?;
            let value = self.expr()?;
            let end = self.expect(TokenKind::Semi)?.span;
            Some(self.b.store(array, index, value, name_span.merge(end)))
        } else {
            self.expect(TokenKind::Assign)?;
            let value = self.expr()?;
            let end = self.expect(TokenKind::Semi)?.span;
            Some(self.b.assign(name, value, name_span.merge(end)))
        }
    }

    // ---- expressions (precedence climbing over `BinOp::precedence`) ----

    fn expr(&mut self) -> Option<B::Expr> {
        if !self.enter("expression") {
            return None;
        }
        let e = self.binary(1);
        self.leave();
        e
    }

    /// A chain of binary operators that bind at least as tightly as
    /// `min_prec`, left-associative: `a - b - c` is `(a - b) - c`.
    fn binary(&mut self, min_prec: u8) -> Option<B::Expr> {
        let mut lhs = self.unary_expr()?;
        while let Some(op) = binop(self.tok.kind).filter(|op| op.precedence() >= min_prec) {
            self.bump();
            let rhs = self.binary(op.precedence() + 1)?;
            let span = B::span(&lhs).merge(B::span(&rhs));
            lhs = self.b.binary(op, lhs, rhs, span);
        }
        Some(lhs)
    }

    fn unary_expr(&mut self) -> Option<B::Expr> {
        // Unary operators recurse without passing through `expr`; charge
        // depth here too so `----…x` cannot overflow the stack.
        if !self.enter("expression") {
            return None;
        }
        let e = self.unary_expr_inner();
        self.leave();
        e
    }

    fn unary_expr_inner(&mut self) -> Option<B::Expr> {
        let op = match self.tok.kind {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            _ => return self.atom(),
        };
        let start = self.bump().span;
        let operand = self.unary_expr()?;
        let span = start.merge(B::span(&operand));
        // Fold negated literals so `-5` is a literal constant (as in
        // FORTRAN): the literal jump function and the constant-step
        // `do` lowering both depend on seeing it syntactically.
        if op == UnOp::Neg {
            if let Some(neg) = B::literal(&operand).and_then(i64::checked_neg) {
                return Some(self.b.int(neg, span));
            }
        }
        Some(self.b.unary(op, operand, span))
    }

    fn atom(&mut self) -> Option<B::Expr> {
        match self.tok.kind {
            TokenKind::Int(value) => {
                let span = self.bump().span;
                Some(self.b.int(value, span))
            }
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                if self.eat(TokenKind::LBracket) {
                    let array = self.b.target(name, true);
                    let index = self.expr()?;
                    let end = self.expect(TokenKind::RBracket)?.span;
                    Some(self.b.load(array, index, span.merge(end)))
                } else {
                    Some(self.b.var(name, span))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Some(e)
            }
            other => {
                self.diags.error(
                    format!("expected expression, found `{other}`"),
                    self.tok.span,
                );
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse_program(src).expect("program should parse")
    }

    #[test]
    fn parses_minimal_program() {
        let p = parse_ok("proc main() { }");
        assert_eq!(p.procs.len(), 1);
        assert_eq!(p.procs[0].name, "main");
        assert!(p.procs[0].params.is_empty());
        assert!(p.procs[0].body.stmts.is_empty());
    }

    #[test]
    fn parses_globals_scalar_and_array() {
        let p = parse_ok("global n; global buf[16]; proc main() { }");
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[0].array_len, None);
        assert_eq!(p.globals[1].array_len, Some(16));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("expected +, got {other:?}"),
        }
    }

    #[test]
    fn comparison_below_arithmetic() {
        let e = parse_expr("a + 1 < b * 2").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Lt, .. }));
    }

    #[test]
    fn logical_lowest() {
        let e = parse_expr("a < 1 && b > 2 || c == 3").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn unary_stacks() {
        let e = parse_expr("--x").unwrap();
        match e {
            Expr::Unary {
                op: UnOp::Neg,
                operand,
                ..
            } => {
                assert!(matches!(*operand, Expr::Unary { op: UnOp::Neg, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_do_loop_with_step() {
        let p = parse_ok("proc main() { do i = 1, 10, 2 { print i; } }");
        match &p.procs[0].body.stmts[0] {
            Stmt::Do {
                var, step, body, ..
            } => {
                assert_eq!(var, "i");
                assert!(step.is_some());
                assert_eq!(body.stmts.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_do_loop_without_step() {
        let p = parse_ok("proc main() { do i = 1, 10 { } }");
        assert!(matches!(
            &p.procs[0].body.stmts[0],
            Stmt::Do { step: None, .. }
        ));
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse_ok("proc main() { if (a == 1) { } else if (a == 2) { } else { print 3; } }");
        match &p.procs[0].body.stmts[0] {
            Stmt::If { else_blk, .. } => {
                assert_eq!(else_blk.stmts.len(), 1);
                assert!(matches!(else_blk.stmts[0], Stmt::If { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_calls_with_mixed_args() {
        let p = parse_ok("proc main() { call f(x, 3, y + 1, a[2]); } proc f(a, b, c, d) { }");
        match &p.procs[0].body.stmts[0] {
            Stmt::Call { callee, args, .. } => {
                assert_eq!(callee, "f");
                assert_eq!(args.len(), 4);
                assert!(matches!(args[0], Expr::Var { .. }));
                assert!(matches!(args[1], Expr::Const { .. }));
                assert!(matches!(args[2], Expr::Binary { .. }));
                assert!(matches!(args[3], Expr::Load { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_array_store_and_load() {
        let p = parse_ok("proc main() { array a[8]; a[0] = a[1] + 1; }");
        assert!(matches!(
            p.procs[0].body.stmts[0],
            Stmt::ArrayDecl { len: 8, .. }
        ));
        assert!(matches!(p.procs[0].body.stmts[1], Stmt::Store { .. }));
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        assert!(parse_program("proc main() { x = 1 }").is_err());
    }

    #[test]
    fn reports_multiple_errors_with_recovery() {
        let err = parse_program("proc main() { x = ; y = 1 + ; }").unwrap_err();
        assert!(err.len() >= 2, "expected >=2 errors, got: {err}");
    }

    #[test]
    fn zero_length_array_rejected() {
        assert!(parse_program("proc main() { array a[0]; }").is_err());
    }

    #[test]
    fn stray_top_level_tokens_are_reported() {
        let err = parse_program("42 proc main() { }").unwrap_err();
        assert!(err.has_errors());
    }

    #[test]
    fn parenthesized_expressions_override_precedence() {
        let e = parse_expr("(1 + 2) * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                ..
            } => {
                assert!(matches!(*lhs, Expr::Binary { op: BinOp::Add, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stray_brace_after_failed_statement_terminates() {
        // Regression: recovery used to stop *before* a `{` without
        // consuming it, then re-enter `stmt` on the same token forever.
        let err = parse_program("proc main() { x = { } }").unwrap_err();
        assert!(err.has_errors());
    }

    #[test]
    fn deep_parentheses_diagnose_instead_of_overflowing() {
        let src = format!(
            "proc main() {{ x = {}1{}; }}",
            "(".repeat(10_000),
            ")".repeat(10_000)
        );
        let err = parse_program(&src).unwrap_err();
        assert!(err.to_string().contains("nesting exceeds"), "{err}");
    }

    #[test]
    fn deep_unary_chains_diagnose_instead_of_overflowing() {
        let src = format!("proc main() {{ x = {}1; }}", "-".repeat(10_000));
        let err = parse_program(&src).unwrap_err();
        assert!(err.to_string().contains("nesting exceeds"), "{err}");
    }

    #[test]
    fn deep_blocks_diagnose_instead_of_overflowing() {
        let src = format!(
            "proc main() {{ {} print 1; {} }}",
            "if (1) {".repeat(10_000),
            "}".repeat(10_000)
        );
        let err = parse_program(&src).unwrap_err();
        assert!(err.to_string().contains("nesting exceeds"), "{err}");
    }

    #[test]
    fn reasonable_nesting_stays_within_the_cap() {
        let src = format!(
            "proc main() {{ x = {}1{}; }}",
            "(".repeat(100),
            ")".repeat(100)
        );
        assert!(parse_program(&src).is_ok());
        let src = format!(
            "proc main() {{ {} print 1; {} }}",
            "if (1) {".repeat(100),
            "}".repeat(100)
        );
        assert!(parse_program(&src).is_ok());
    }

    #[test]
    fn relational_chain_is_left_associative() {
        // `a - b - c` is `(a - b) - c`.
        let e = parse_expr("a - b - c").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Sub,
                lhs,
                rhs,
                ..
            } => {
                assert!(matches!(*lhs, Expr::Binary { op: BinOp::Sub, .. }));
                assert!(matches!(*rhs, Expr::Var { .. }));
            }
            other => panic!("{other:?}"),
        }
    }
}
// (kept at module end to avoid renumbering: regression tests for the
// negative-literal fold)
#[cfg(test)]
mod neg_literal_tests {
    use super::*;

    #[test]
    fn negative_literals_fold_to_constants() {
        assert!(matches!(
            parse_expr("-5").unwrap(),
            Expr::Const { value: -5, .. }
        ));
        assert!(matches!(
            parse_expr("--5").unwrap(),
            Expr::Const { value: 5, .. }
        ));
        // Folding respects precedence: `-5 * 2` is `(-5) * 2`.
        match parse_expr("-5 * 2").unwrap() {
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                ..
            } => {
                assert!(matches!(*lhs, Expr::Const { value: -5, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negation_of_variables_stays_unary() {
        assert!(matches!(
            parse_expr("-x").unwrap(),
            Expr::Unary { op: UnOp::Neg, .. }
        ));
    }

    #[test]
    fn negative_literal_call_arguments_are_literal() {
        use crate::parse_and_resolve;
        use crate::program::each_call;
        let m = parse_and_resolve("proc main() { call f(-7); } proc f(a) { print a; }").unwrap();
        let main = m.proc(m.entry);
        each_call(&main.body, &mut |_, args, _| {
            assert_eq!(args[0].literal(), Some(-7));
        });
    }

    #[test]
    fn negative_constant_do_step_folds_direction() {
        use crate::{lower_module, parse_and_resolve};
        let m = lower_module(
            &parse_and_resolve("proc main() { do i = 10, 1, -2 { print i; } }").unwrap(),
        );
        let cfg = m.cfg(m.module.entry);
        let header = cfg
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                crate::cfg::Terminator::Branch { cond, .. } => Some(cond.clone()),
                _ => None,
            })
            .unwrap();
        // Constant negative step: plain `i >= $hi`, no direction test.
        assert!(matches!(
            header,
            crate::program::Expr::Binary(BinOp::Ge, _, _, _)
        ));
        // And it executes correctly.
        let out = crate::interp::run_module(
            &parse_and_resolve("proc main() { do i = 10, 1, -2 { print i; } }").unwrap(),
            &[],
            &crate::interp::ExecLimits::default(),
        )
        .unwrap();
        assert_eq!(out.output, vec![10, 8, 6, 4, 2]);
    }
}
