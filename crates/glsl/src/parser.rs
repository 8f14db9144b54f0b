//! Recursive-descent parser for the GLSL subset.
//!
//! The parser consumes the token stream produced by [`crate::lexer`] and
//! builds the AST defined in [`crate::ast`]. It accepts the fragment-shader
//! subset used by the GFXBench-style corpus: global `uniform`/`in`/`out`/
//! `const` declarations (including constant arrays with initialisers),
//! function definitions, counted `for` loops, `if`/`else`, assignments,
//! swizzles, constructor and intrinsic calls, and the ternary operator.
//!
//! Nesting is bounded: statements, expressions, operator chains and
//! `else if` chains nested deeper than [`MAX_NESTING`] are a
//! [`Stage::Parse`] error, so neither this recursive descent nor the
//! recursive walks over the AST and IR after it can run out of stack on
//! deeply nested input.

use crate::ast::*;
use crate::error::{GlslError, Result, Stage};
use crate::lexer::tokenize;
use crate::token::{Span, Token, TokenKind};
use crate::types::Type;

/// Parses a complete (already preprocessed) GLSL source string.
///
/// # Errors
///
/// Returns a [`GlslError`] describing the first lexical or syntactic problem.
///
/// # Examples
///
/// ```
/// use prism_glsl::parser::parse;
/// let tu = parse("out vec4 color; void main() { color = vec4(1.0); }").unwrap();
/// assert!(tu.main().is_some());
/// ```
pub fn parse(source: &str) -> Result<TranslationUnit> {
    let tokens = tokenize(source)?;
    Parser::new(tokens).parse_translation_unit()
}

/// The deepest nesting [`parse`] reaches on `source`, in the levels
/// [`MAX_NESTING`] bounds.
///
/// # Errors
///
/// The error [`parse`] returns for `source`.
///
/// # Examples
///
/// ```
/// use prism_glsl::parser::nesting_depth;
/// // The statement, its value, the call argument, one parenthesis.
/// assert_eq!(nesting_depth("out vec4 c; void main() { c = vec4((1.0)); }").unwrap(), 4);
/// ```
pub fn nesting_depth(source: &str) -> Result<usize> {
    let mut parser = Parser::new(tokenize(source)?);
    parser.parse_translation_unit()?;
    Ok(parser.deepest)
}

/// The deepest nesting the parser accepts. Each nested statement, nested
/// expression (a parenthesised, bracketed, call-argument or operand
/// sub-expression), prefix operator, postfix `.field` / `[index]` and each
/// further operand of a binary-operator chain counts one level; deeper input
/// is a [`Stage::Parse`] error. Chains count because the AST nests them:
/// `a + b + c` is `(a + b) + c`, and an `else if` is an `if` statement in
/// the `else` branch. So a flat sum of more than about 125 operands, or an
/// `if … else if …` chain of more than about 125 arms, is rejected too.
/// The bound keeps the parser's recursion and the walks over the AST and IR
/// after it within a 2 MB stack in a debug build: nested parentheses and
/// calls, the costliest levels, overflow such a stack between 200 and 250
/// levels. The corpus nests at most 9 deep.
pub const MAX_NESTING: usize = 128;

/// A single pass over the token stream: the parser never backtracks, so
/// [`Parser::bump`] moves each token out instead of cloning it.
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
    /// The deepest nesting reached so far.
    deepest: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            deepest: 0,
        }
    }

    /// Enters one nesting level, failing past [`MAX_NESTING`]. The caller
    /// leaves its levels with [`Parser::leave`] once its sub-tree is built;
    /// an error aborts the whole parse, so error paths need not leave.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.deepest = self.deepest.max(self.depth);
        Ok(())
    }

    fn leave(&mut self, levels: usize) {
        self.depth -= levels;
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    /// Consumes the current token and returns its kind, moved out of the
    /// stream (a consumed token is never read again). At the end the `Eof`
    /// token stays in place and is returned again.
    fn bump(&mut self) -> TokenKind {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].kind, TokenKind::Eof)
        } else {
            TokenKind::Eof
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`, found `{}`", kind, self.peek())))
        }
    }

    fn error(&self, message: impl Into<String>) -> GlslError {
        GlslError::at(Stage::Parse, self.span(), message)
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            TokenKind::Ident(name) => Ok(name),
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    /// Consumes a `++` (`Some(false)`) or `--` (`Some(true)`).
    fn eat_step(&mut self) -> Option<bool> {
        let negative = match self.peek() {
            TokenKind::PlusPlus => false,
            TokenKind::MinusMinus => true,
            _ => return None,
        };
        self.bump();
        Some(negative)
    }

    // ----- top level -------------------------------------------------------

    fn parse_translation_unit(&mut self) -> Result<TranslationUnit> {
        let mut decls = Vec::new();
        while self.peek() != &TokenKind::Eof {
            decls.push(self.parse_decl()?);
        }
        Ok(TranslationUnit { decls })
    }

    fn parse_decl(&mut self) -> Result<Decl> {
        let span = self.span();

        // `precision mediump float;`
        if self.eat(&TokenKind::KwPrecision) {
            let qualifier = match self.bump() {
                TokenKind::KwPrecisionQualifier(q) => q,
                other => {
                    return Err(self.error(format!("expected precision qualifier, found `{other}`")))
                }
            };
            let ty = self.parse_type()?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Decl::Precision { qualifier, ty });
        }

        // Optional layout(location = N)
        let mut location = None;
        if self.eat(&TokenKind::KwLayout) {
            self.expect(&TokenKind::LParen)?;
            let key = self.expect_ident()?;
            if key != "location" {
                return Err(self.error(format!("unsupported layout key `{key}`")));
            }
            self.expect(&TokenKind::Assign)?;
            match self.bump() {
                TokenKind::IntLit(v) => location = Some(v as u32),
                other => return Err(self.error(format!("expected integer, found `{other}`"))),
            }
            self.expect(&TokenKind::RParen)?;
        }

        // Storage qualifier.
        let mut qualifier = StorageQualifier::Global;
        let mut has_qualifier = false;
        loop {
            match self.peek() {
                TokenKind::KwFlat | TokenKind::KwPrecisionQualifier(_) => {
                    self.bump();
                }
                TokenKind::KwIn => {
                    self.bump();
                    qualifier = StorageQualifier::In;
                    has_qualifier = true;
                }
                TokenKind::KwOut => {
                    self.bump();
                    qualifier = StorageQualifier::Out;
                    has_qualifier = true;
                }
                TokenKind::KwUniform => {
                    self.bump();
                    qualifier = StorageQualifier::Uniform;
                    has_qualifier = true;
                }
                TokenKind::KwConst => {
                    self.bump();
                    qualifier = StorageQualifier::Const;
                    has_qualifier = true;
                }
                _ => break,
            }
        }
        // Precision qualifier may also appear after the storage qualifier.
        if matches!(self.peek(), TokenKind::KwPrecisionQualifier(_)) {
            self.bump();
        }

        let ty = self.parse_type()?;

        // Function definition: `type name ( ...`
        if !has_qualifier
            && matches!(self.peek(), TokenKind::Ident(_))
            && self.peek_ahead(1) == &TokenKind::LParen
        {
            return self.parse_function(ty, span);
        }

        let name = self.expect_ident()?;
        // Array suffix on the declarator: `vec4 weights[9]` or `vec4 weights[]`.
        let ty = self.parse_array_suffix(ty)?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Decl::Global(GlobalDecl {
            qualifier,
            ty,
            name,
            init,
            location,
            span,
        }))
    }

    fn parse_function(&mut self, return_type: Type, span: Span) -> Result<Decl> {
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                // `void` parameter list: `main(void)`.
                if self.peek() == &TokenKind::KwVoid && self.peek_ahead(1) == &TokenKind::RParen {
                    self.bump();
                    break;
                }
                // Skip `in`/`const`/precision qualifiers on parameters.
                while matches!(
                    self.peek(),
                    TokenKind::KwIn | TokenKind::KwConst | TokenKind::KwPrecisionQualifier(_)
                ) {
                    self.bump();
                }
                let ty = self.parse_type()?;
                let pname = self.expect_ident()?;
                let ty = self.parse_array_suffix(ty)?;
                params.push(Param { ty, name: pname });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let body = self.parse_block()?;
        Ok(Decl::Function(FunctionDef {
            return_type,
            name,
            params,
            body,
            span,
        }))
    }

    fn parse_type(&mut self) -> Result<Type> {
        if self.eat(&TokenKind::KwVoid) {
            return Ok(Type::Void);
        }
        let span = self.span();
        let name = self.expect_ident()?;
        let base = Type::from_name(&name)
            .ok_or_else(|| GlslError::at(Stage::Parse, span, format!("unknown type `{name}`")))?;
        self.parse_array_suffix(base)
    }

    /// Parses optional `[N]` / `[]` suffixes, wrapping `base` in an array type.
    fn parse_array_suffix(&mut self, base: Type) -> Result<Type> {
        if self.peek() == &TokenKind::LBracket {
            // Do not consume if this is an array *constructor* `type[](...)` —
            // the caller (primary expression) handles that; here we only handle
            // declarator suffixes, which are followed by `=`, `;`, `,` or `)`.
            self.bump();
            let size = match self.peek() {
                TokenKind::IntLit(v) => {
                    let v = *v as usize;
                    self.bump();
                    Some(v)
                }
                _ => None,
            };
            self.expect(&TokenKind::RBracket)?;
            return Ok(Type::Array(Box::new(base), size));
        }
        Ok(base)
    }

    // ----- statements ------------------------------------------------------

    fn parse_block(&mut self) -> Result<Block> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.peek() == &TokenKind::Eof {
                return Err(self.error("unexpected end of input inside block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(Block { stmts })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        self.enter()?;
        let stmt = self.parse_stmt_at_depth()?;
        self.leave(1);
        Ok(stmt)
    }

    fn parse_stmt_at_depth(&mut self) -> Result<Stmt> {
        let span = self.span();
        match self.peek() {
            TokenKind::LBrace => Ok(Stmt::Block(self.parse_block()?)),
            TokenKind::KwIf => self.parse_if(),
            TokenKind::KwFor => self.parse_for(),
            TokenKind::KwReturn => {
                self.bump();
                if self.eat(&TokenKind::Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            TokenKind::KwDiscard => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Discard)
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Break)
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Continue)
            }
            TokenKind::KwConst => {
                self.bump();
                self.parse_local_decl(true, span)
            }
            TokenKind::KwPrecisionQualifier(_) => {
                self.bump();
                self.parse_local_decl(false, span)
            }
            TokenKind::Ident(name) => {
                // A statement starting with a type name followed by an
                // identifier is a local declaration; otherwise it is an
                // assignment or expression statement.
                if Type::from_name(name).is_some()
                    && matches!(self.peek_ahead(1), TokenKind::Ident(_))
                {
                    self.parse_local_decl(false, span)
                } else {
                    self.parse_assign_or_expr(span)
                }
            }
            _ => self.parse_assign_or_expr(span),
        }
    }

    fn parse_local_decl(&mut self, is_const: bool, span: Span) -> Result<Stmt> {
        let ty = self.parse_type()?;
        let name = self.expect_ident()?;
        let ty = self.parse_array_suffix(ty)?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Decl {
            is_const,
            ty,
            name,
            init,
            span,
        })
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        self.expect(&TokenKind::KwIf)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_block = self.parse_stmt_as_block()?;
        let else_block = if self.eat(&TokenKind::KwElse) {
            Some(self.parse_stmt_as_block()?)
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_block,
            else_block,
        })
    }

    /// Parses either a braced block or a single statement wrapped in a block.
    fn parse_stmt_as_block(&mut self) -> Result<Block> {
        if self.peek() == &TokenKind::LBrace {
            self.parse_block()
        } else {
            Ok(Block {
                stmts: vec![self.parse_stmt()?],
            })
        }
    }

    fn parse_for(&mut self) -> Result<Stmt> {
        self.expect(&TokenKind::KwFor)?;
        self.expect(&TokenKind::LParen)?;
        // init: `int i = 0`
        let var_ty = self.parse_type()?;
        let var = self.expect_ident()?;
        self.expect(&TokenKind::Assign)?;
        let init = self.parse_expr()?;
        self.expect(&TokenKind::Semi)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::Semi)?;
        let step_span = self.span();
        let step = self.parse_for_step(step_span)?;
        self.expect(&TokenKind::RParen)?;
        let body = self.parse_stmt_as_block()?;
        Ok(Stmt::For {
            var,
            var_ty,
            init,
            cond,
            step: Box::new(step),
            body,
        })
    }

    /// Parses the third clause of a `for` header (`i++`, `++i`, `i += 2`,
    /// `i = i + 1`).
    fn parse_for_step(&mut self, span: Span) -> Result<Stmt> {
        // Prefix increment/decrement.
        if let Some(negative) = self.eat_step() {
            let name = self.expect_ident()?;
            return Ok(make_step(name, negative, span));
        }
        let name = self.expect_ident()?;
        match self.bump() {
            TokenKind::PlusPlus => Ok(make_step(name, false, span)),
            TokenKind::MinusMinus => Ok(make_step(name, true, span)),
            TokenKind::PlusAssign => {
                let value = self.parse_expr()?;
                Ok(Stmt::Assign {
                    target: LValue::Var(name),
                    op: AssignOp::Add,
                    value,
                    span,
                })
            }
            TokenKind::MinusAssign => {
                let value = self.parse_expr()?;
                Ok(Stmt::Assign {
                    target: LValue::Var(name),
                    op: AssignOp::Sub,
                    value,
                    span,
                })
            }
            TokenKind::Assign => {
                let value = self.parse_expr()?;
                Ok(Stmt::Assign {
                    target: LValue::Var(name),
                    op: AssignOp::Assign,
                    value,
                    span,
                })
            }
            other => Err(self.error(format!("unsupported for-loop step `{other}`"))),
        }
    }

    fn parse_assign_or_expr(&mut self, span: Span) -> Result<Stmt> {
        let start = self.pos;
        let expr = self.parse_expr()?;
        if self.peek().is_assign_op() {
            let op = match self.bump() {
                TokenKind::Assign => AssignOp::Assign,
                TokenKind::PlusAssign => AssignOp::Add,
                TokenKind::MinusAssign => AssignOp::Sub,
                TokenKind::StarAssign => AssignOp::Mul,
                TokenKind::SlashAssign => AssignOp::Div,
                _ => unreachable!("is_assign_op matched"),
            };
            let target = expr_to_lvalue(expr).ok_or_else(|| {
                GlslError::at(
                    Stage::Parse,
                    self.tokens[start].span,
                    "left-hand side of assignment is not assignable",
                )
            })?;
            let value = self.parse_expr()?;
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::Assign {
                target,
                op,
                value,
                span,
            });
        }
        // Postfix increment as a statement: `i++;`
        if let Some(negative) = self.eat_step() {
            self.expect(&TokenKind::Semi)?;
            if let Expr::Ident(name) = expr {
                return Ok(make_step(name, negative, span));
            }
            return Err(self.error("increment target must be a variable"));
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Expr(expr))
    }

    // ----- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.enter()?;
        let expr = self.parse_ternary()?;
        self.leave(1);
        Ok(expr)
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let cond = self.parse_binary(0)?;
        if self.eat(&TokenKind::Question) {
            let then_e = self.parse_expr()?;
            self.expect(&TokenKind::Colon)?;
            let else_e = self.parse_expr()?;
            return Ok(Expr::Ternary(
                Box::new(cond),
                Box::new(then_e),
                Box::new(else_e),
            ));
        }
        Ok(cond)
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        // Each further operand nests the chain built so far one level deeper.
        let mut folds = 0;
        while let Some((op, prec)) = binop_for(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.enter()?;
            folds += 1;
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.leave(folds);
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Plus => None,
            _ => return self.parse_postfix(),
        };
        self.bump();
        self.enter()?;
        let inner = self.parse_unary()?;
        self.leave(1);
        Ok(match op {
            Some(op) => Expr::Unary(op, Box::new(inner)),
            None => inner,
        })
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut expr = self.parse_primary()?;
        // Each `.field` / `[index]` nests the expression one level deeper.
        let mut folds = 0;
        loop {
            if self.eat(&TokenKind::Dot) {
                self.enter()?;
                let field = self.expect_ident()?;
                expr = Expr::Field(Box::new(expr), field);
            } else if self.eat(&TokenKind::LBracket) {
                self.enter()?;
                let index = self.parse_expr()?;
                self.expect(&TokenKind::RBracket)?;
                expr = Expr::Index(Box::new(expr), Box::new(index));
            } else {
                break;
            }
            folds += 1;
        }
        self.leave(folds);
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let span = self.span();
        match self.bump() {
            TokenKind::FloatLit(v) => Ok(Expr::FloatLit(v)),
            TokenKind::IntLit(v) => Ok(Expr::IntLit(v)),
            TokenKind::BoolLit(v) => Ok(Expr::BoolLit(v)),
            TokenKind::LParen => {
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                // Array constructor: `vec4[](...)` or `vec4[9](...)`.
                if Type::from_name(&name).is_some() && self.peek() == &TokenKind::LBracket {
                    let elem_ty = Type::from_name(&name).expect("checked above");
                    self.bump();
                    if let TokenKind::IntLit(_) = self.peek() {
                        self.bump();
                    }
                    self.expect(&TokenKind::RBracket)?;
                    self.expect(&TokenKind::LParen)?;
                    let elems = self.parse_call_args()?;
                    return Ok(Expr::ArrayInit { elem_ty, elems });
                }
                // Call or constructor.
                if self.eat(&TokenKind::LParen) {
                    let args = self.parse_call_args()?;
                    return Ok(Expr::Call(name, args));
                }
                Ok(Expr::Ident(name))
            }
            other => Err(GlslError::at(
                Stage::Parse,
                span,
                format!("unexpected token `{other}` in expression"),
            )),
        }
    }

    /// Parses comma-separated call arguments up to and including `)`.
    fn parse_call_args(&mut self) -> Result<Vec<Expr>> {
        let mut args = Vec::new();
        if self.eat(&TokenKind::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.parse_expr()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }
}

/// Builds the canonical `i = i + 1` / `i = i - 1` step statement.
fn make_step(name: String, negative: bool, span: Span) -> Stmt {
    Stmt::Assign {
        target: LValue::Var(name),
        op: if negative {
            AssignOp::Sub
        } else {
            AssignOp::Add
        },
        value: Expr::IntLit(1),
        span,
    }
}

/// Operator precedence table. Higher binds tighter.
fn binop_for(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 1),
        TokenKind::AndAnd => (BinOp::And, 2),
        TokenKind::Eq => (BinOp::Eq, 3),
        TokenKind::Ne => (BinOp::Ne, 3),
        TokenKind::Lt => (BinOp::Lt, 4),
        TokenKind::Le => (BinOp::Le, 4),
        TokenKind::Gt => (BinOp::Gt, 4),
        TokenKind::Ge => (BinOp::Ge, 4),
        TokenKind::Plus => (BinOp::Add, 5),
        TokenKind::Minus => (BinOp::Sub, 5),
        TokenKind::Star => (BinOp::Mul, 6),
        TokenKind::Slash => (BinOp::Div, 6),
        TokenKind::Percent => (BinOp::Mod, 6),
        _ => return None,
    })
}

/// Converts an expression that denotes a storage location into an [`LValue`].
fn expr_to_lvalue(expr: Expr) -> Option<LValue> {
    match expr {
        Expr::Ident(name) => Some(LValue::Var(name)),
        Expr::Index(base, idx) => Some(LValue::Index(Box::new(expr_to_lvalue(*base)?), idx)),
        Expr::Field(base, field) => Some(LValue::Field(Box::new(expr_to_lvalue(*base)?), field)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Decl, Expr, Stmt, StorageQualifier};
    use crate::types::{ScalarKind, Type};

    #[test]
    fn parses_globals_with_qualifiers() {
        let tu = parse(
            "uniform sampler2D tex;\nuniform vec4 ambient;\nin vec2 uv;\nout vec4 fragColor;",
        )
        .unwrap();
        let globals: Vec<_> = tu.globals().collect();
        assert_eq!(globals.len(), 4);
        assert_eq!(globals[0].qualifier, StorageQualifier::Uniform);
        assert!(globals[0].ty.is_sampler());
        assert_eq!(globals[2].qualifier, StorageQualifier::In);
        assert_eq!(globals[3].qualifier, StorageQualifier::Out);
    }

    #[test]
    fn parses_layout_location() {
        let tu = parse("layout(location = 2) out vec4 color; void main() {}").unwrap();
        let g = tu.globals().next().unwrap();
        assert_eq!(g.location, Some(2));
    }

    #[test]
    fn parses_main_with_assignment() {
        let tu = parse("out vec4 c; void main() { c = vec4(1.0, 0.0, 0.0, 1.0); }").unwrap();
        let main = tu.main().unwrap();
        assert_eq!(main.body.stmts.len(), 1);
        match &main.body.stmts[0] {
            Stmt::Assign { target, value, .. } => {
                assert_eq!(target.root(), "c");
                assert!(
                    matches!(value, Expr::Call(name, args) if name == "vec4" && args.len() == 4)
                );
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_loop_with_compound_assign() {
        let src = "out vec4 c; void main() {\n c = vec4(0.0);\n for (int i = 0; i < 9; i++) { c += vec4(0.1); }\n}";
        let tu = parse(src).unwrap();
        let main = tu.main().unwrap();
        match &main.body.stmts[1] {
            Stmt::For {
                var, cond, body, ..
            } => {
                assert_eq!(var, "i");
                assert!(matches!(cond, Expr::Binary(BinOp::Lt, _, _)));
                assert_eq!(body.stmts.len(), 1);
            }
            other => panic!("expected for loop, got {other:?}"),
        }
    }

    #[test]
    fn parses_motivating_example_style_array_init() {
        let src = r#"
            out vec4 fragColor; in vec2 uv;
            uniform sampler2D tex;
            void main() {
                const vec4[] weights = vec4[](vec4(0.01), vec4(0.02), vec4(0.03));
                fragColor = weights[0] * texture(tex, uv);
            }
        "#;
        let tu = parse(src).unwrap();
        let main = tu.main().unwrap();
        match &main.body.stmts[0] {
            Stmt::Decl {
                is_const, ty, init, ..
            } => {
                assert!(is_const);
                assert!(matches!(ty, Type::Array(_, None)));
                assert!(matches!(init, Some(Expr::ArrayInit { elems, .. }) if elems.len() == 3));
            }
            other => panic!("expected const array decl, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_and_ternary() {
        let src = "uniform float t; out vec4 c; void main() { if (t > 0.5) { c = vec4(1.0); } else c = vec4(0.0); float k = t > 0.1 ? 1.0 : 2.0; c *= k; }";
        let tu = parse(src).unwrap();
        let main = tu.main().unwrap();
        assert!(matches!(main.body.stmts[0], Stmt::If { .. }));
        match &main.body.stmts[1] {
            Stmt::Decl {
                init: Some(Expr::Ternary(..)),
                ..
            } => {}
            other => panic!("expected ternary init, got {other:?}"),
        }
    }

    #[test]
    fn parses_swizzles_and_indexing() {
        let src = "uniform vec4 v; uniform mat4 m; out vec4 c; void main() { c.xyz = v.rgb; c.w = m[2][3]; }";
        let tu = parse(src).unwrap();
        let main = tu.main().unwrap();
        assert_eq!(main.body.stmts.len(), 2);
    }

    #[test]
    fn parses_user_functions() {
        let src =
            "float sq(float x) { return x * x; } out vec4 c; void main() { c = vec4(sq(2.0)); }";
        let tu = parse(src).unwrap();
        assert!(tu.function("sq").is_some());
        assert_eq!(tu.function("sq").unwrap().params.len(), 1);
    }

    #[test]
    fn operator_precedence() {
        let tu = parse("out float o; void main() { o = 1.0 + 2.0 * 3.0; }").unwrap();
        let main = tu.main().unwrap();
        match &main.body.stmts[0] {
            Stmt::Assign {
                value: Expr::Binary(BinOp::Add, _, rhs),
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("expected a + (b*c), got {other:?}"),
        }
    }

    #[test]
    fn logical_operators_parse() {
        let src = "uniform float a; uniform float b; out vec4 c; void main() { if (a > 0.0 && b < 1.0 || a == b) { c = vec4(1.0); } }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn discard_and_return() {
        let src = "uniform float a; out vec4 c; void main() { if (a < 0.5) { discard; } c = vec4(a); return; }";
        let tu = parse(src).unwrap();
        assert!(tu.main().is_some());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("void main() { float 3; }").is_err());
        assert!(parse("void main() { x += ; }").is_err());
        assert!(parse("void main() {").is_err());
        assert!(parse("unknown_type x;").is_err());
        assert!(parse("void main() { 1.0 = x; }").is_err());
    }

    #[test]
    fn precision_statement_is_accepted() {
        let tu =
            parse("precision mediump float; out vec4 c; void main() { c = vec4(1.0); }").unwrap();
        assert!(matches!(tu.decls[0], Decl::Precision { .. }));
    }

    #[test]
    fn parses_compound_div_assign() {
        let src = "out vec4 c; void main() { c = vec4(2.0); c /= 4.0; }";
        let tu = parse(src).unwrap();
        match &tu.main().unwrap().body.stmts[1] {
            Stmt::Assign { op, .. } => assert_eq!(*op, crate::ast::AssignOp::Div),
            other => panic!("expected /=, got {other:?}"),
        }
    }

    #[test]
    fn unary_operators() {
        let src = "uniform float a; out vec4 c; void main() { c = vec4(-a); if (!(a > 0.0)) { c = vec4(0.0); } }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn int_vector_types_parse() {
        let src =
            "uniform ivec2 size; out vec4 c; void main() { int w = size.x; c = vec4(float(w)); }";
        let tu = parse(src).unwrap();
        let g = tu.globals().next().unwrap();
        assert_eq!(g.ty, Type::Vector(ScalarKind::Int, 2));
    }
}
