//! Hand-written lexer for FT.

use super::token::{Keyword, Token, TokenKind};
use crate::error::Diagnostic;
use crate::span::Span;

/// On-demand lexer over FT source text: the parser pulls one token at a
/// time, and identifiers borrow `src`.
///
/// ```
/// use ipcp_ir::lang::{Lexer, TokenKind};
/// let mut lexer = Lexer::new("x = 41 + 1;");
/// let mut kinds = Vec::new();
/// loop {
///     let tok = lexer.next_token()?;
///     kinds.push(tok.kind);
///     if tok.kind == TokenKind::Eof {
///         break;
///     }
/// }
/// assert_eq!(kinds.len(), 7); // x = 41 + 1 ; <eof>
/// assert_eq!(kinds[0], TokenKind::Ident("x"));
/// assert_eq!(kinds[2], TokenKind::Int(41));
/// # Ok::<(), ipcp_ir::Diagnostic>(())
/// ```
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'#') => self.skip_line(),
                Some(b'/') if self.peek2() == Some(b'/') => self.skip_line(),
                _ => break,
            }
        }
    }

    fn skip_line(&mut self) {
        while let Some(b) = self.peek() {
            self.pos += 1;
            if b == b'\n' {
                break;
            }
        }
    }

    /// Skips past the `}` that closes a block whose `{` was the last
    /// token lexed, counting nested braces and skipping comments — byte
    /// for byte what lexing would see, since no FT token contains a brace
    /// or a comment opener. Returns `false` when the input ends first.
    pub(crate) fn skip_block(&mut self) -> bool {
        let mut depth = 1usize;
        while let Some(b) = self.bump() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return true;
                    }
                }
                b'#' => self.skip_line(),
                b'/' if self.peek() == Some(b'/') => self.skip_line(),
                _ => {}
            }
        }
        false
    }

    /// Lexes the next token, or a diagnostic for an unrecognized character
    /// or malformed literal. After an error the offending text is
    /// consumed, so the next call resumes behind it.
    pub fn next_token(&mut self) -> Result<Token<'a>, Diagnostic> {
        self.skip_trivia();
        let start = self.pos as u32;
        let Some(b) = self.bump() else {
            return Ok(Token::new(TokenKind::Eof, Span::new(start, start)));
        };
        let simple =
            |kind: TokenKind<'a>, end: usize| Ok(Token::new(kind, Span::new(start, end as u32)));
        match b {
            b'0'..=b'9' => self.lex_int(start as usize),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Ok(self.lex_word(start as usize)),
            b'+' => simple(TokenKind::Plus, self.pos),
            b'-' => simple(TokenKind::Minus, self.pos),
            b'*' => simple(TokenKind::Star, self.pos),
            b'/' => simple(TokenKind::Slash, self.pos),
            b'%' => simple(TokenKind::Percent, self.pos),
            b'(' => simple(TokenKind::LParen, self.pos),
            b')' => simple(TokenKind::RParen, self.pos),
            b'{' => simple(TokenKind::LBrace, self.pos),
            b'}' => simple(TokenKind::RBrace, self.pos),
            b'[' => simple(TokenKind::LBracket, self.pos),
            b']' => simple(TokenKind::RBracket, self.pos),
            b',' => simple(TokenKind::Comma, self.pos),
            b';' => simple(TokenKind::Semi, self.pos),
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    simple(TokenKind::Eq, self.pos)
                } else {
                    simple(TokenKind::Assign, self.pos)
                }
            }
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    simple(TokenKind::Ne, self.pos)
                } else {
                    simple(TokenKind::Not, self.pos)
                }
            }
            b'<' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    simple(TokenKind::Le, self.pos)
                } else {
                    simple(TokenKind::Lt, self.pos)
                }
            }
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    simple(TokenKind::Ge, self.pos)
                } else {
                    simple(TokenKind::Gt, self.pos)
                }
            }
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.pos += 1;
                    simple(TokenKind::AndAnd, self.pos)
                } else {
                    Err(Diagnostic::error(
                        "expected `&&` (single `&` is not an operator)",
                        Span::new(start, self.pos as u32),
                    ))
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.pos += 1;
                    simple(TokenKind::OrOr, self.pos)
                } else {
                    Err(Diagnostic::error(
                        "expected `||` (single `|` is not an operator)",
                        Span::new(start, self.pos as u32),
                    ))
                }
            }
            other => Err(Diagnostic::error(
                format!("unrecognized character `{}`", other as char),
                Span::new(start, self.pos as u32),
            )),
        }
    }

    fn lex_int(&mut self, start: usize) -> Result<Token<'a>, Diagnostic> {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let span = Span::new(start as u32, self.pos as u32);
        let text = &self.src[start..self.pos];
        match text.parse::<i64>() {
            Ok(v) => Ok(Token::new(TokenKind::Int(v), span)),
            Err(_) => Err(Diagnostic::error(
                format!("integer literal `{text}` out of 64-bit range"),
                span,
            )),
        }
    }

    fn lex_word(&mut self, start: usize) -> Token<'a> {
        while matches!(
            self.peek(),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.pos += 1;
        }
        let span = Span::new(start as u32, self.pos as u32);
        let text = &self.src[start..self.pos];
        match Keyword::from_str(text) {
            Some(kw) => Token::new(TokenKind::Keyword(kw), span),
            None => Token::new(TokenKind::Ident(text), span),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token up to and including `Eof`, and every error.
    fn lex(src: &str) -> (Vec<Token<'_>>, Vec<Diagnostic>) {
        let mut lexer = Lexer::new(src);
        let (mut tokens, mut errors) = (Vec::new(), Vec::new());
        loop {
            match lexer.next_token() {
                Ok(tok) => {
                    tokens.push(tok);
                    if tok.kind == TokenKind::Eof {
                        return (tokens, errors);
                    }
                }
                Err(d) => errors.push(d),
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        let (tokens, errors) = lex(src);
        assert!(errors.is_empty(), "{errors:?}");
        tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_all_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("+ - * / % ( ) { } [ ] , ; = == != < <= > >= && || !"),
            vec![
                Plus, Minus, Star, Slash, Percent, LParen, RParen, LBrace, RBrace, LBracket,
                RBracket, Comma, Semi, Assign, Eq, Ne, Lt, Le, Gt, Ge, AndAnd, OrOr, Not, Eof
            ]
        );
    }

    #[test]
    fn keywords_vs_identifiers() {
        use TokenKind::*;
        assert_eq!(
            kinds("do doit i1 _x proc process"),
            vec![
                Keyword(super::Keyword::Do),
                Ident("doit"),
                Ident("i1"),
                Ident("_x"),
                Keyword(super::Keyword::Proc),
                Ident("process"),
                Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 // comment to eol\n# hash comment\n2"),
            vec![TokenKind::Int(1), TokenKind::Int(2), TokenKind::Eof]
        );
    }

    #[test]
    fn spans_cover_tokens() {
        let toks = lex("ab + 12").0;
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(5, 7));
    }

    #[test]
    fn huge_literal_is_an_error() {
        let (_, errors) = lex("99999999999999999999");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("out of 64-bit range"));
    }

    #[test]
    fn bad_character_reports_and_recovers() {
        let (tokens, errors) = lex("a $ b ?");
        assert_eq!(errors.len(), 2);
        assert_eq!(tokens.len(), 3); // a b <eof>
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(kinds("   \n\t "), vec![TokenKind::Eof]);
    }

    #[test]
    fn skip_block_balances_braces_outside_comments() {
        let src = "{ a { b } # }\n // } {\n c } d";
        let mut lexer = Lexer::new(src);
        assert_eq!(lexer.next_token().unwrap().kind, TokenKind::LBrace);
        assert!(lexer.skip_block());
        assert_eq!(lexer.next_token().unwrap().kind, TokenKind::Ident("d"));
        let mut lexer = Lexer::new("{ { }");
        lexer.next_token().unwrap();
        assert!(!lexer.skip_block());
    }

    #[test]
    fn minus_then_int_is_two_tokens() {
        assert_eq!(
            kinds("-5"),
            vec![TokenKind::Minus, TokenKind::Int(5), TokenKind::Eof]
        );
    }
}
