//! Abstract syntax tree for the GLSL subset.

use crate::token::Span;
use crate::types::Type;

/// A whole shader translation unit (one fragment or vertex shader).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Global declarations and function definitions in source order.
    pub decls: Vec<Decl>,
}

impl TranslationUnit {
    /// Returns the function named `name`, if defined.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.decls.iter().find_map(|d| match d {
            Decl::Function(f) if f.name == name => Some(f),
            _ => None,
        })
    }

    /// Returns the `main` function, if defined.
    pub fn main(&self) -> Option<&FunctionDef> {
        self.function("main")
    }

    /// Iterates over all global variable declarations.
    pub fn globals(&self) -> impl Iterator<Item = &GlobalDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Global(g) => Some(g),
            _ => None,
        })
    }
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// A global variable declaration (uniform, in, out, const or plain global).
    Global(GlobalDecl),
    /// A `precision mediump float;`-style statement (recorded, no effect).
    Precision { qualifier: String, ty: Type },
    /// A function definition.
    Function(FunctionDef),
}

/// Storage qualifiers on global declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageQualifier {
    /// Shader stage input (`in`).
    In,
    /// Shader stage output (`out`).
    Out,
    /// Uniform variable.
    Uniform,
    /// Compile-time constant.
    Const,
    /// Plain module-scope global.
    Global,
}

/// A global variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Storage qualifier.
    pub qualifier: StorageQualifier,
    /// Declared type (may be an array type).
    pub ty: Type,
    /// Variable name.
    pub name: String,
    /// Optional initialiser (required for `const`).
    pub init: Option<Expr>,
    /// Optional `layout(location = N)` value.
    pub location: Option<u32>,
    /// Source location of the declaration.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Return type (`void` for `main`).
    pub return_type: Type,
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Function body.
    pub body: Block,
    /// Source location of the definition.
    pub span: Span,
}

/// A `{ ... }` statement block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A named variable.
    Var(String),
    /// An indexed element of an array, vector or matrix.
    Index(Box<LValue>, Box<Expr>),
    /// A swizzled or single-component field access (`v.x`, `v.rgb`).
    Field(Box<LValue>, String),
}

impl LValue {
    /// The root variable name of this l-value.
    pub fn root(&self) -> &str {
        match self {
            LValue::Var(n) => n,
            LValue::Index(inner, _) | LValue::Field(inner, _) => inner.root(),
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A local variable declaration, optionally `const`, optionally initialised.
    Decl {
        /// Whether the declaration is `const`.
        is_const: bool,
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Optional initialiser.
        init: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// An assignment (`x = e`, `x += e`, ...).
    Assign {
        /// Assignment target.
        target: LValue,
        /// Which assignment operator is used.
        op: AssignOp,
        /// Right-hand side.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// An `if`/`else` statement.
    If {
        /// Condition expression (must be `bool`).
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch.
        else_block: Option<Block>,
    },
    /// A canonical counted `for` loop.
    For {
        /// Loop-variable name.
        var: String,
        /// Loop-variable declared type (int).
        var_ty: Type,
        /// Initial value expression.
        init: Expr,
        /// Condition expression.
        cond: Expr,
        /// Per-iteration step statement (assignment or increment).
        step: Box<Stmt>,
        /// Loop body.
        body: Block,
    },
    /// `return e;` / `return;`
    Return(Option<Expr>),
    /// `discard;`
    Discard,
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// An expression evaluated for its effect (e.g. a `void` call).
    Expr(Expr),
    /// A nested block.
    Block(Block),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
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
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// GLSL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
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

    /// `true` for arithmetic operators producing numeric results.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }

    /// `true` for comparison operators producing `bool`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// `true` for logical `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Numeric negation `-x`.
    Neg,
    /// Logical not `!b`.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Float literal.
    FloatLit(f64),
    /// Integer literal.
    IntLit(i64),
    /// Boolean literal.
    BoolLit(bool),
    /// Variable reference.
    Ident(String),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Function, intrinsic or constructor call (`texture(...)`, `vec4(...)`).
    Call(String, Vec<Expr>),
    /// Array constructor `vec4[](a, b, c)` or `vec4[3](a, b, c)`.
    ArrayInit {
        /// Element type.
        elem_ty: Type,
        /// Element expressions.
        elems: Vec<Expr>,
    },
    /// Indexing `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Swizzle / component access `v.xyz`, `v.r`.
    Field(Box<Expr>, String),
    /// Ternary conditional `c ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Visits this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Binary(_, a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            Expr::Unary(_, a) => a.walk(visit),
            Expr::Call(_, args) => {
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::ArrayInit { elems, .. } => {
                for e in elems {
                    e.walk(visit);
                }
            }
            Expr::Index(a, i) => {
                a.walk(visit);
                i.walk(visit);
            }
            Expr::Field(a, _) => a.walk(visit),
            Expr::Ternary(c, t, e) => {
                c.walk(visit);
                t.walk(visit);
                e.walk(visit);
            }
            _ => {}
        }
    }
}

/// Returns `true` if `field` is a valid swizzle selection string (`x`, `rgb`,
/// `xyzw`, ...), up to 4 components from a single naming set.
pub fn is_swizzle(field: &str) -> bool {
    if field.is_empty() || field.len() > 4 {
        return false;
    }
    let xyzw = field.chars().all(|c| "xyzw".contains(c));
    let rgba = field.chars().all(|c| "rgba".contains(c));
    let stpq = field.chars().all(|c| "stpq".contains(c));
    xyzw || rgba || stpq
}

/// Maps a swizzle character to its component index (0–3).
pub fn swizzle_index(c: char) -> Option<usize> {
    match c {
        'x' | 'r' | 's' => Some(0),
        'y' | 'g' | 't' => Some(1),
        'z' | 'b' | 'p' => Some(2),
        'w' | 'a' | 'q' => Some(3),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swizzle_validation() {
        assert!(is_swizzle("x"));
        assert!(is_swizzle("xyz"));
        assert!(is_swizzle("rgba"));
        assert!(is_swizzle("st"));
        assert!(!is_swizzle("xg")); // mixed naming sets
        assert!(!is_swizzle("xyzwx")); // too long
        assert!(!is_swizzle(""));
        assert!(!is_swizzle("uv"));
    }

    #[test]
    fn swizzle_indices() {
        assert_eq!(swizzle_index('x'), Some(0));
        assert_eq!(swizzle_index('a'), Some(3));
        assert_eq!(swizzle_index('p'), Some(2));
        assert_eq!(swizzle_index('u'), None);
    }

    #[test]
    fn lvalue_root() {
        let lv = LValue::Field(
            Box::new(LValue::Index(
                Box::new(LValue::Var("arr".into())),
                Box::new(Expr::IntLit(3)),
            )),
            "xyz".into(),
        );
        assert_eq!(lv.root(), "arr");
    }

    #[test]
    fn expr_walk_visits_all_nodes() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Call("texture".into(), vec![Expr::Ident("t".into())])),
            Box::new(Expr::FloatLit(1.0)),
        );
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 4);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Add.is_arithmetic());
        assert!(BinOp::Le.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Mul.is_comparison());
        assert_eq!(BinOp::Ne.symbol(), "!=");
    }

    #[test]
    fn translation_unit_lookup() {
        let tu = TranslationUnit {
            decls: vec![Decl::Function(FunctionDef {
                return_type: Type::Void,
                name: "main".into(),
                params: vec![],
                body: Block::default(),
                span: Span::default(),
            })],
        };
        assert!(tu.main().is_some());
        assert!(tu.function("helper").is_none());
    }
}
