//! Hand written lexer for the GLSL subset.
//!
//! The lexer operates on *post-preprocessing* text (see
//! [`crate::preprocessor`]) and produces a flat [`Token`] stream terminated by
//! [`TokenKind::Eof`]. Comments (`//` and `/* */`) are skipped.

use crate::error::{GlslError, Result, Stage};
use crate::token::{Span, Token, TokenKind};

/// Tokenises an entire source string.
///
/// # Errors
///
/// Returns a [`GlslError`] with [`Stage::Lex`] on unknown characters or
/// unterminated block comments.
///
/// # Examples
///
/// ```
/// use prism_glsl::lexer::tokenize;
/// use prism_glsl::token::TokenKind;
/// let toks = tokenize("vec4 c = vec4(1.0);").unwrap();
/// assert_eq!(toks[0].kind, TokenKind::Ident("vec4".into()));
/// assert!(matches!(toks.last().unwrap().kind, TokenKind::Eof));
/// ```
pub fn tokenize(source: &str) -> Result<Vec<Token>> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, span: Span) {
        self.tokens.push(Token::new(kind, span));
    }

    fn run(mut self) -> Result<Vec<Token>> {
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(c) = self.peek() else {
                self.push(TokenKind::Eof, span);
                return Ok(self.tokens);
            };
            match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(span),
                b'0'..=b'9' => self.lex_number(span)?,
                b'.' => {
                    // A leading dot may start a float literal such as `.5`.
                    if matches!(self.peek2(), Some(b'0'..=b'9')) {
                        self.lex_number(span)?;
                    } else {
                        self.bump();
                        self.push(TokenKind::Dot, span);
                    }
                }
                _ => self.lex_operator(span)?,
            }
        }
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(GlslError::at(
                                    Stage::Lex,
                                    start,
                                    "unterminated block comment",
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_ident(&mut self, span: Span) {
        let start = self.pos;
        let len = self.src[start..]
            .iter()
            .take_while(|c| c.is_ascii_alphanumeric() || **c == b'_')
            .count();
        // An identifier never spans a line break.
        self.pos += len;
        self.col += len as u32;
        let text =
            std::str::from_utf8(&self.src[start..self.pos]).expect("identifier bytes are ASCII");
        // Keywords match on the borrowed slice: only an identifier allocates.
        let kind = match TokenKind::keyword(text) {
            Some(keyword) => keyword,
            None => TokenKind::Ident(text.to_string()),
        };
        self.push(kind, span);
    }

    fn lex_number(&mut self, span: Span) -> Result<()> {
        let start = self.pos;
        let mut is_float = false;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            // Exponent part makes the literal a float.
            let save = (self.pos, self.line, self.col);
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            } else {
                // Not actually an exponent (e.g. an identifier follows); back off.
                self.pos = save.0;
                self.line = save.1;
                self.col = save.2;
                is_float = self.src[start..self.pos].contains(&b'.');
            }
        }
        // Float suffixes `f`/`F` and unsigned suffix `u`/`U`.
        if matches!(self.peek(), Some(b'f') | Some(b'F')) {
            is_float = true;
            self.bump();
        } else if matches!(self.peek(), Some(b'u') | Some(b'U')) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .expect("numeric literal bytes are ASCII")
            .trim_end_matches(['f', 'F', 'u', 'U']);
        if is_float {
            let value: f64 = text.parse().map_err(|_| {
                GlslError::at(Stage::Lex, span, format!("invalid float literal `{text}`"))
            })?;
            self.push(TokenKind::FloatLit(value), span);
        } else {
            let value: i64 = text.parse().map_err(|_| {
                GlslError::at(Stage::Lex, span, format!("invalid int literal `{text}`"))
            })?;
            self.push(TokenKind::IntLit(value), span);
        }
        Ok(())
    }

    fn lex_operator(&mut self, span: Span) -> Result<()> {
        let c = self.bump().expect("caller checked a char is present");
        let two = |lexer: &mut Lexer<'a>, next: u8, yes: TokenKind, no: TokenKind| {
            if lexer.peek() == Some(next) {
                lexer.bump();
                yes
            } else {
                no
            }
        };
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'?' => TokenKind::Question,
            b':' => TokenKind::Colon,
            b'%' => TokenKind::Percent,
            b'+' => {
                if self.peek() == Some(b'+') {
                    self.bump();
                    TokenKind::PlusPlus
                } else {
                    two(self, b'=', TokenKind::PlusAssign, TokenKind::Plus)
                }
            }
            b'-' => {
                if self.peek() == Some(b'-') {
                    self.bump();
                    TokenKind::MinusMinus
                } else {
                    two(self, b'=', TokenKind::MinusAssign, TokenKind::Minus)
                }
            }
            b'*' => two(self, b'=', TokenKind::StarAssign, TokenKind::Star),
            b'/' => two(self, b'=', TokenKind::SlashAssign, TokenKind::Slash),
            b'=' => two(self, b'=', TokenKind::Eq, TokenKind::Assign),
            b'!' => two(self, b'=', TokenKind::Ne, TokenKind::Bang),
            b'<' => two(self, b'=', TokenKind::Le, TokenKind::Lt),
            b'>' => two(self, b'=', TokenKind::Ge, TokenKind::Gt),
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    TokenKind::AndAnd
                } else {
                    return Err(GlslError::at(Stage::Lex, span, "unexpected character `&`"));
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    return Err(GlslError::at(Stage::Lex, span, "unexpected character `|`"));
                }
            }
            other => {
                return Err(GlslError::at(
                    Stage::Lex,
                    span,
                    format!("unexpected character `{}`", other as char),
                ));
            }
        };
        self.push(kind, span);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        let k = kinds("vec4 c = vec4(1.0);");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("vec4".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Assign,
                TokenKind::Ident("vec4".into()),
                TokenKind::LParen,
                TokenKind::FloatLit(1.0),
                TokenKind::RParen,
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_float_forms() {
        let k = kinds("0.5 .5 2e-3 1.5e2 3.0f 7u");
        assert_eq!(
            k[..6],
            [
                TokenKind::FloatLit(0.5),
                TokenKind::FloatLit(0.5),
                TokenKind::FloatLit(2e-3),
                TokenKind::FloatLit(1.5e2),
                TokenKind::FloatLit(3.0),
                TokenKind::IntLit(7),
            ]
        );
    }

    #[test]
    fn lexes_compound_operators() {
        let k = kinds("a += b; c *= d; e <= f; g != h; i && j || !k; ++n; m--;");
        assert!(k.contains(&TokenKind::PlusAssign));
        assert!(k.contains(&TokenKind::StarAssign));
        assert!(k.contains(&TokenKind::Le));
        assert!(k.contains(&TokenKind::Ne));
        assert!(k.contains(&TokenKind::AndAnd));
        assert!(k.contains(&TokenKind::OrOr));
        assert!(k.contains(&TokenKind::Bang));
        assert!(k.contains(&TokenKind::PlusPlus));
        assert!(k.contains(&TokenKind::MinusMinus));
    }

    #[test]
    fn skips_comments() {
        let k = kinds("// line comment\n/* block\ncomment */ float x;");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("float".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_recognised() {
        let k = kinds("uniform const in out if else for return discard");
        assert_eq!(
            k[..9],
            [
                TokenKind::KwUniform,
                TokenKind::KwConst,
                TokenKind::KwIn,
                TokenKind::KwOut,
                TokenKind::KwIf,
                TokenKind::KwElse,
                TokenKind::KwFor,
                TokenKind::KwReturn,
                TokenKind::KwDiscard,
            ]
        );
    }

    #[test]
    fn reports_unterminated_block_comment() {
        let err = tokenize("/* never closed").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn reports_unknown_character() {
        let err = tokenize("float x = 1 @ 2;").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = tokenize("float a;\nfloat b;").unwrap();
        let b_tok = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident("b".into()))
            .unwrap();
        assert_eq!(b_tok.span.line, 2);
    }

    #[test]
    fn dot_swizzle_after_identifier() {
        let k = kinds("v.xyz");
        assert_eq!(
            k[..3],
            [
                TokenKind::Ident("v".into()),
                TokenKind::Dot,
                TokenKind::Ident("xyz".into()),
            ]
        );
    }

    #[test]
    fn exponent_without_digits_is_not_consumed() {
        // `2elephants` should lex as int 2 followed by an identifier.
        let k = kinds("2elephants");
        assert_eq!(k[0], TokenKind::IntLit(2));
        assert_eq!(k[1], TokenKind::Ident("elephants".into()));
    }
}
