//! Token definitions for the FT lexer.

use crate::span::Span;
use std::fmt;

/// Reserved words of FT.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Keyword {
    /// `proc` — procedure definition.
    Proc,
    /// `global` — module-level variable declaration.
    Global,
    /// `array` — local array declaration.
    Array,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `do` — FORTRAN-style counted loop.
    Do,
    /// `call`
    Call,
    /// `return`
    Return,
    /// `read` — consume one integer from the input stream.
    Read,
    /// `print` — append one integer to the output stream.
    Print,
}

impl Keyword {
    /// Parses an identifier-like word into a keyword, if it is one.
    // Not `FromStr`: absence of a keyword is the normal case (it's an
    // identifier), not an error.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Keyword> {
        Some(match s {
            "proc" => Keyword::Proc,
            "global" => Keyword::Global,
            "array" => Keyword::Array,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "while" => Keyword::While,
            "do" => Keyword::Do,
            "call" => Keyword::Call,
            "return" => Keyword::Return,
            "read" => Keyword::Read,
            "print" => Keyword::Print,
            _ => return None,
        })
    }

    /// The surface spelling of the keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Proc => "proc",
            Keyword::Global => "global",
            Keyword::Array => "array",
            Keyword::If => "if",
            Keyword::Else => "else",
            Keyword::While => "while",
            Keyword::Do => "do",
            Keyword::Call => "call",
            Keyword::Return => "return",
            Keyword::Read => "read",
            Keyword::Print => "print",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a lexed token. Identifiers borrow the source text, so a
/// token is `Copy` and lexing allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TokenKind<'s> {
    /// An integer literal; the value is stored pre-parsed.
    Int(i64),
    /// An identifier (not a keyword).
    Ident(&'s str),
    /// A reserved word.
    Keyword(Keyword),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Assign,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
    /// End of input (always the final token).
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Semi => write!(f, ";"),
            TokenKind::Assign => write!(f, "="),
            TokenKind::Eq => write!(f, "=="),
            TokenKind::Ne => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::AndAnd => write!(f, "&&"),
            TokenKind::OrOr => write!(f, "||"),
            TokenKind::Not => write!(f, "!"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token together with its source location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'s> {
    /// What was lexed.
    pub kind: TokenKind<'s>,
    /// Where it was lexed from.
    pub span: Span,
}

impl<'s> Token<'s> {
    /// Creates a token.
    pub fn new(kind: TokenKind<'s>, span: Span) -> Self {
        Token { kind, span }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trips_through_spelling() {
        for kw in [
            Keyword::Proc,
            Keyword::Global,
            Keyword::Array,
            Keyword::If,
            Keyword::Else,
            Keyword::While,
            Keyword::Do,
            Keyword::Call,
            Keyword::Return,
            Keyword::Read,
            Keyword::Print,
        ] {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::from_str("banana"), None);
    }

    #[test]
    fn token_kinds_display_their_spelling() {
        assert_eq!(TokenKind::Le.to_string(), "<=");
        assert_eq!(TokenKind::Int(-3).to_string(), "-3");
        assert_eq!(TokenKind::Ident("x1").to_string(), "x1");
    }
}
