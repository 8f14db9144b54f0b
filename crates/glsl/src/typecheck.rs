//! Semantic analysis / type checking for the GLSL subset.
//!
//! The checker validates a parsed [`TranslationUnit`]: every referenced
//! variable and function exists, expression operand types are compatible
//! (with GLSL's implicit int→float promotion and scalar↔vector broadcast for
//! arithmetic), conditions are boolean, assignments match the target type,
//! and `main` exists with signature `void main()` for fragment shaders.

use crate::ast::*;
use crate::builtins::{constructor_arity_ok, resolve_call, Builtin, CallKind};
use crate::error::{GlslError, Result, Stage};
use crate::types::{ScalarKind, Type};
use std::collections::HashMap;

/// Signature of a user-defined function.
struct FnSig {
    /// Parameter types in order.
    params: Vec<Type>,
    /// Return type.
    ret: Type,
}

/// Symbol information gathered during checking.
#[derive(Default)]
struct Symbols {
    /// Global variables: name → (type, storage qualifier).
    globals: HashMap<String, (Type, StorageQualifier)>,
    /// User function signatures.
    functions: HashMap<String, FnSig>,
}

/// Type checks a shader translation unit.
///
/// # Errors
///
/// Returns the first semantic error found ([`Stage::TypeCheck`]).
///
/// # Examples
///
/// ```
/// use prism_glsl::{parser::parse, typecheck::check};
/// let tu = parse("out vec4 c; void main() { c = vec4(1.0); }").unwrap();
/// assert!(check(&tu).is_ok());
/// let bad = parse("out vec4 c; void main() { c = missing; }").unwrap();
/// assert!(check(&bad).is_err());
/// ```
pub fn check(tu: &TranslationUnit) -> Result<()> {
    let mut symbols = Symbols::default();

    // Pass 1: collect globals and function signatures.
    for decl in &tu.decls {
        match decl {
            Decl::Global(g) => {
                if symbols.globals.contains_key(&g.name) {
                    return Err(err(format!("duplicate global `{}`", g.name)));
                }
                symbols
                    .globals
                    .insert(g.name.clone(), (g.ty.clone(), g.qualifier));
            }
            Decl::Function(f) => {
                if symbols.functions.contains_key(&f.name) {
                    return Err(err(format!("duplicate function `{}`", f.name)));
                }
                symbols.functions.insert(
                    f.name.clone(),
                    FnSig {
                        params: f.params.iter().map(|p| p.ty.clone()).collect(),
                        ret: f.return_type.clone(),
                    },
                );
            }
            Decl::Precision { .. } => {}
        }
    }

    // Pass 2: check global initialisers.
    for g in tu.globals() {
        if let Some(init) = &g.init {
            let env = Env::new(&symbols);
            let ty = env.infer(init)?;
            if !assignable(&g.ty, &ty) {
                return Err(err(format!(
                    "initialiser for `{}` has type {ty}, expected {}",
                    g.name, g.ty
                )));
            }
        } else if g.qualifier == StorageQualifier::Const {
            return Err(err(format!(
                "const global `{}` requires an initialiser",
                g.name
            )));
        }
    }

    // Pass 3: check every function body.
    for decl in &tu.decls {
        if let Decl::Function(f) = decl {
            let mut env = Env::new(&symbols);
            env.push_scope();
            for p in &f.params {
                env.declare(&p.name, p.ty.clone());
            }
            check_block(&mut env, &f.body, &f.return_type)?;
            env.pop_scope();
        }
    }

    // Fragment shaders must define `void main()`.
    match tu.main() {
        Some(main) => {
            if main.return_type != Type::Void || !main.params.is_empty() {
                return Err(err("main must have signature `void main()`"));
            }
        }
        None => return Err(err("shader has no main function")),
    }

    Ok(())
}

fn err(message: impl Into<String>) -> GlslError {
    GlslError::new(Stage::TypeCheck, message)
}

/// Lexical environment used while checking a function body.
struct Env<'a> {
    symbols: &'a Symbols,
    scopes: Vec<HashMap<String, Type>>,
}

impl<'a> Env<'a> {
    fn new(symbols: &'a Symbols) -> Self {
        Env {
            symbols,
            scopes: Vec::new(),
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, ty: Type) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), ty);
        }
    }

    fn lookup(&self, name: &str) -> Option<Type> {
        for scope in self.scopes.iter().rev() {
            if let Some(ty) = scope.get(name) {
                return Some(ty.clone());
            }
        }
        self.symbols.globals.get(name).map(|(ty, _)| ty.clone())
    }

    /// Infers the type of an expression.
    fn infer(&self, expr: &Expr) -> Result<Type> {
        match expr {
            Expr::FloatLit(_) => Ok(Type::FLOAT),
            Expr::IntLit(_) => Ok(Type::INT),
            Expr::BoolLit(_) => Ok(Type::BOOL),
            Expr::Ident(name) => self
                .lookup(name)
                .ok_or_else(|| err(format!("unknown variable `{name}`"))),
            Expr::Unary(UnOp::Neg, inner) => {
                let ty = self.infer(inner)?;
                if ty.is_numeric() {
                    Ok(ty)
                } else {
                    Err(err(format!("cannot negate value of type {ty}")))
                }
            }
            Expr::Unary(UnOp::Not, inner) => {
                let ty = self.infer(inner)?;
                if ty == Type::BOOL {
                    Ok(ty)
                } else {
                    Err(err(format!("`!` requires bool, found {ty}")))
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                let lt = self.infer(lhs)?;
                let rt = self.infer(rhs)?;
                binary_result(*op, &lt, &rt)
            }
            Expr::Ternary(cond, then_e, else_e) => {
                let ct = self.infer(cond)?;
                if ct != Type::BOOL {
                    return Err(err(format!("ternary condition must be bool, found {ct}")));
                }
                let tt = self.infer(then_e)?;
                let et = self.infer(else_e)?;
                unify(&tt, &et)
                    .ok_or_else(|| err(format!("ternary branches have types {tt} and {et}")))
            }
            Expr::Call(name, args) => {
                let arg_types: Vec<Type> =
                    args.iter().map(|a| self.infer(a)).collect::<Result<_>>()?;
                match resolve_call(name) {
                    CallKind::Constructor(ty) => {
                        if constructor_arity_ok(&ty, &arg_types) {
                            Ok(ty)
                        } else {
                            Err(err(format!(
                                "constructor {name}(...) given incompatible arguments"
                            )))
                        }
                    }
                    CallKind::Builtin(b) => self.check_builtin(name, b, &arg_types),
                    CallKind::UserFunction => {
                        let sig = self
                            .symbols
                            .functions
                            .get(name)
                            .ok_or_else(|| err(format!("unknown function `{name}`")))?;
                        if sig.params.len() != arg_types.len() {
                            return Err(err(format!(
                                "function `{name}` expects {} arguments, got {}",
                                sig.params.len(),
                                arg_types.len()
                            )));
                        }
                        for (expected, actual) in sig.params.iter().zip(&arg_types) {
                            if !assignable(expected, actual) {
                                return Err(err(format!(
                                    "argument to `{name}` has type {actual}, expected {expected}"
                                )));
                            }
                        }
                        Ok(sig.ret.clone())
                    }
                }
            }
            Expr::ArrayInit { elem_ty, elems } => {
                for e in elems {
                    let ty = self.infer(e)?;
                    if !assignable(elem_ty, &ty) {
                        return Err(err(format!(
                            "array element has type {ty}, expected {elem_ty}"
                        )));
                    }
                }
                Ok(Type::Array(Box::new(elem_ty.clone()), Some(elems.len())))
            }
            Expr::Index(base, index) => {
                let bt = self.infer(base)?;
                let it = self.infer(index)?;
                if !matches!(
                    it,
                    Type::Scalar(ScalarKind::Int) | Type::Scalar(ScalarKind::Uint)
                ) {
                    return Err(err(format!("index must be an integer, found {it}")));
                }
                bt.index_result()
                    .ok_or_else(|| err(format!("type {bt} cannot be indexed")))
            }
            Expr::Field(base, field) => {
                let bt = self.infer(base)?;
                swizzle_result(&bt, field)
            }
        }
    }

    fn check_builtin(&self, name: &str, b: Builtin, arg_types: &[Type]) -> Result<Type> {
        if arg_types.is_empty() {
            return Err(err(format!("builtin `{name}` requires arguments")));
        }
        if b.is_texture() && !arg_types[0].is_sampler() {
            return Err(err(format!(
                "first argument of `{name}` must be a sampler, found {}",
                arg_types[0]
            )));
        }
        b.result_type(arg_types).ok_or_else(|| {
            err(format!(
                "builtin `{name}` given incompatible argument types"
            ))
        })
    }

    /// Infers the type of an l-value.
    fn infer_lvalue(&self, lv: &LValue) -> Result<Type> {
        match lv {
            LValue::Var(name) => self
                .lookup(name)
                .ok_or_else(|| err(format!("unknown variable `{name}`"))),
            LValue::Index(base, index) => {
                let bt = self.infer_lvalue(base)?;
                let it = self.infer(index)?;
                if !matches!(
                    it,
                    Type::Scalar(ScalarKind::Int) | Type::Scalar(ScalarKind::Uint)
                ) {
                    return Err(err(format!("index must be an integer, found {it}")));
                }
                bt.index_result()
                    .ok_or_else(|| err(format!("type {bt} cannot be indexed")))
            }
            LValue::Field(base, field) => {
                let bt = self.infer_lvalue(base)?;
                swizzle_result(&bt, field)
            }
        }
    }
}

/// Result type of a swizzle / component access.
fn swizzle_result(base: &Type, field: &str) -> Result<Type> {
    match base {
        Type::Vector(kind, width) => {
            if !is_swizzle(field) {
                return Err(err(format!("invalid swizzle `.{field}` on {base}")));
            }
            for c in field.chars() {
                let idx = swizzle_index(c).expect("validated by is_swizzle");
                if idx >= *width as usize {
                    return Err(err(format!(
                        "swizzle component `{c}` out of range for {base}"
                    )));
                }
            }
            if field.len() == 1 {
                Ok(Type::Scalar(*kind))
            } else {
                Ok(Type::Vector(*kind, field.len() as u8))
            }
        }
        _ => Err(err(format!("cannot access field `.{field}` on {base}"))),
    }
}

/// Whether a value of type `from` can be assigned to a target of type `to`.
///
/// GLSL permits implicit int→float / int→uint promotion for scalars; we also
/// accept sized/unsized array mismatch when the element types agree.
pub fn assignable(to: &Type, from: &Type) -> bool {
    if to == from {
        return true;
    }
    match (to, from) {
        (Type::Scalar(ScalarKind::Float), Type::Scalar(ScalarKind::Int | ScalarKind::Uint)) => true,
        (Type::Scalar(ScalarKind::Uint), Type::Scalar(ScalarKind::Int)) => true,
        (
            Type::Vector(ScalarKind::Float, n),
            Type::Vector(ScalarKind::Int | ScalarKind::Uint, m),
        ) => n == m,
        (Type::Array(te, _), Type::Array(fe, _)) => assignable(te, fe),
        _ => false,
    }
}

/// Unifies the two branch types of a ternary.
fn unify(a: &Type, b: &Type) -> Option<Type> {
    if a == b {
        return Some(a.clone());
    }
    if assignable(a, b) {
        return Some(a.clone());
    }
    if assignable(b, a) {
        return Some(b.clone());
    }
    None
}

/// Result type of a binary operation, or an error when incompatible.
pub fn binary_result(op: BinOp, lt: &Type, rt: &Type) -> Result<Type> {
    if op.is_logical() {
        if *lt == Type::BOOL && *rt == Type::BOOL {
            return Ok(Type::BOOL);
        }
        return Err(err(format!(
            "`{}` requires bool operands, found {lt} and {rt}",
            op.symbol()
        )));
    }
    if op.is_comparison() {
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            if unify(lt, rt).is_some() {
                return Ok(Type::BOOL);
            }
        } else if lt.is_scalar() && rt.is_scalar() && lt.is_numeric() && rt.is_numeric() {
            return Ok(Type::BOOL);
        }
        return Err(err(format!(
            "cannot compare {lt} and {rt} with `{}`",
            op.symbol()
        )));
    }
    // Arithmetic.
    if !lt.is_numeric() || !rt.is_numeric() {
        return Err(err(format!(
            "arithmetic `{}` requires numeric operands, found {lt} and {rt}",
            op.symbol()
        )));
    }
    arithmetic_result(op, lt, rt).ok_or_else(|| {
        err(format!(
            "incompatible operands {lt} and {rt} for `{}`",
            op.symbol()
        ))
    })
}

/// GLSL arithmetic result-type rules, including scalar↔vector broadcast and
/// the matrix multiplication forms (`mat*vec`, `vec*mat`, `mat*mat`,
/// `mat*scalar`).
pub fn arithmetic_result(op: BinOp, lt: &Type, rt: &Type) -> Option<Type> {
    use Type::*;
    match (lt, rt) {
        (Scalar(a), Scalar(b)) => Some(Scalar(promote(*a, *b)?)),
        (Vector(a, n), Vector(b, m)) if n == m => Some(Vector(promote(*a, *b)?, *n)),
        (Vector(a, n), Scalar(b)) | (Scalar(b), Vector(a, n)) => Some(Vector(promote(*a, *b)?, *n)),
        (Matrix(n), Matrix(m)) if n == m => Some(Matrix(*n)),
        (Matrix(n), Scalar(ScalarKind::Float | ScalarKind::Int))
        | (Scalar(ScalarKind::Float | ScalarKind::Int), Matrix(n)) => Some(Matrix(*n)),
        (Matrix(n), Vector(ScalarKind::Float, m)) if op == BinOp::Mul && n == m => {
            Some(Vector(ScalarKind::Float, *n))
        }
        (Vector(ScalarKind::Float, m), Matrix(n)) if op == BinOp::Mul && n == m => {
            Some(Vector(ScalarKind::Float, *n))
        }
        _ => None,
    }
}

/// Numeric promotion for mixed scalar kinds.
fn promote(a: ScalarKind, b: ScalarKind) -> Option<ScalarKind> {
    use ScalarKind::*;
    match (a, b) {
        (Bool, _) | (_, Bool) => None,
        (Float, _) | (_, Float) => Some(Float),
        (Uint, _) | (_, Uint) => Some(Uint),
        (Int, Int) => Some(Int),
    }
}

fn check_block(env: &mut Env<'_>, block: &Block, ret_ty: &Type) -> Result<()> {
    env.push_scope();
    for stmt in &block.stmts {
        check_stmt(env, stmt, ret_ty)?;
    }
    env.pop_scope();
    Ok(())
}

fn check_stmt(env: &mut Env<'_>, stmt: &Stmt, ret_ty: &Type) -> Result<()> {
    match stmt {
        Stmt::Decl { ty, name, init, .. } => {
            if let Some(init) = init {
                let it = env.infer(init)?;
                if !assignable(ty, &it) {
                    return Err(err(format!(
                        "cannot initialise `{name}` of type {ty} with value of type {it}"
                    )));
                }
            }
            env.declare(name, ty.clone());
            Ok(())
        }
        Stmt::Assign {
            target, op, value, ..
        } => {
            let tt = env.infer_lvalue(target)?;
            let vt = env.infer(value)?;
            let effective = match op {
                AssignOp::Assign => vt.clone(),
                // Compound assignment: the combined value must be assignable back.
                AssignOp::Add | AssignOp::Sub => arithmetic_result(BinOp::Add, &tt, &vt)
                    .ok_or_else(|| {
                        err(format!("cannot apply compound assignment: {tt} vs {vt}"))
                    })?,
                AssignOp::Mul => arithmetic_result(BinOp::Mul, &tt, &vt).ok_or_else(|| {
                    err(format!("cannot apply compound assignment: {tt} vs {vt}"))
                })?,
                AssignOp::Div => arithmetic_result(BinOp::Div, &tt, &vt).ok_or_else(|| {
                    err(format!("cannot apply compound assignment: {tt} vs {vt}"))
                })?,
            };
            if !assignable(&tt, &effective) {
                return Err(err(format!(
                    "cannot assign value of type {effective} to target of type {tt}"
                )));
            }
            Ok(())
        }
        Stmt::If {
            cond,
            then_block,
            else_block,
        } => {
            let ct = env.infer(cond)?;
            if ct != Type::BOOL {
                return Err(err(format!("if condition must be bool, found {ct}")));
            }
            check_block(env, then_block, ret_ty)?;
            if let Some(eb) = else_block {
                check_block(env, eb, ret_ty)?;
            }
            Ok(())
        }
        Stmt::For {
            var,
            var_ty,
            init,
            cond,
            step,
            body,
        } => {
            env.push_scope();
            let it = env.infer(init)?;
            if !assignable(var_ty, &it) {
                return Err(err(format!(
                    "loop variable `{var}` of type {var_ty} initialised with {it}"
                )));
            }
            env.declare(var, var_ty.clone());
            let ct = env.infer(cond)?;
            if ct != Type::BOOL {
                return Err(err(format!("loop condition must be bool, found {ct}")));
            }
            check_stmt(env, step, ret_ty)?;
            check_block(env, body, ret_ty)?;
            env.pop_scope();
            Ok(())
        }
        Stmt::Return(Some(e)) => {
            let et = env.infer(e)?;
            if !assignable(ret_ty, &et) {
                return Err(err(format!(
                    "return value has type {et}, function returns {ret_ty}"
                )));
            }
            Ok(())
        }
        Stmt::Return(None) => {
            if *ret_ty != Type::Void {
                return Err(err("non-void function must return a value"));
            }
            Ok(())
        }
        Stmt::Discard | Stmt::Break | Stmt::Continue => Ok(()),
        Stmt::Expr(e) => {
            env.infer(e)?;
            Ok(())
        }
        Stmt::Block(b) => check_block(env, b, ret_ty),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ok(src: &str) {
        check(&parse(src).unwrap()).unwrap()
    }

    fn fails(src: &str) -> GlslError {
        check(&parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn accepts_minimal_fragment_shader() {
        ok("out vec4 c; void main() { c = vec4(1.0); }");
    }

    #[test]
    fn accepts_motivating_example() {
        let src = r#"
            out vec4 fragColor; in vec2 uv;
            uniform sampler2D tex;
            uniform vec4 ambient;
            void main() {
                const vec4[] weights = vec4[](vec4(0.01), vec4(0.02), vec4(0.01));
                const vec2[] offsets = vec2[](vec2(-0.0083), vec2(0.0), vec2(0.0083));
                float weightTotal = 0.0;
                fragColor = vec4(0.0);
                for (int i = 0; i < 3; i++) {
                    weightTotal += weights[i][0];
                    fragColor += weights[i] * texture(tex, uv + offsets[i]) * 3.0 * ambient;
                }
                fragColor /= weightTotal;
            }
        "#;
        ok(src);
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = fails("out vec4 c; void main() { c = missing; }");
        assert!(e.message.contains("unknown variable"));
    }

    #[test]
    fn rejects_missing_main() {
        let e = fails("out vec4 c;");
        assert!(e.message.contains("no main"));
    }

    #[test]
    fn rejects_bad_condition_type() {
        let e = fails("uniform float t; out vec4 c; void main() { if (t) { c = vec4(1.0); } }");
        assert!(e.message.contains("bool"));
    }

    #[test]
    fn rejects_type_mismatch_assignment() {
        let e = fails("uniform vec2 a; out vec4 c; void main() { c = a; }");
        assert!(e.message.contains("assign"));
    }

    #[test]
    fn rejects_sampler_arithmetic() {
        let e = fails("uniform sampler2D t; out vec4 c; void main() { c = vec4(1.0) + t; }");
        assert!(e.message.contains("numeric"));
    }

    #[test]
    fn scalar_broadcast_allowed() {
        ok("uniform float f; uniform vec4 v; out vec4 c; void main() { c = v * f + 1.0; }");
    }

    #[test]
    fn matrix_vector_multiplication() {
        ok("uniform mat4 m; uniform vec4 v; out vec4 c; void main() { c = m * v; }");
        let e = fails(
            "uniform mat4 m; uniform vec3 v; out vec4 c; void main() { c = vec4(m * v, 1.0); }",
        );
        assert!(e.message.contains("incompatible") || e.message.contains("operands"));
    }

    #[test]
    fn int_to_float_promotion() {
        ok("out vec4 c; void main() { float x = 3; c = vec4(x); }");
    }

    #[test]
    fn user_function_call_checked() {
        ok("float sq(float x) { return x * x; } out vec4 c; void main() { c = vec4(sq(2.0)); }");
        let e = fails("float sq(float x) { return x * x; } out vec4 c; void main() { c = vec4(sq(2.0, 3.0)); }");
        assert!(e.message.contains("expects"));
    }

    #[test]
    fn swizzle_bounds_checked() {
        ok("uniform vec3 v; out vec4 c; void main() { c = vec4(v.xyz, 1.0); }");
        let e = fails("uniform vec2 v; out vec4 c; void main() { c = vec4(v.xyz, 1.0); }");
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn texture_requires_sampler() {
        let e = fails(
            "uniform vec4 notex; in vec2 uv; out vec4 c; void main() { c = texture(notex, uv); }",
        );
        assert!(e.message.contains("sampler"));
    }

    #[test]
    fn duplicate_symbols_rejected() {
        assert!(
            check(&parse("uniform float a; uniform float a; void main() {}").unwrap()).is_err()
        );
    }

    #[test]
    fn const_global_requires_initialiser() {
        let e = fails("const float k; void main() {}");
        assert!(e.message.contains("initialiser"));
    }

    #[test]
    fn ternary_branch_types_must_unify() {
        ok("uniform float t; out vec4 c; void main() { c = t > 0.0 ? vec4(1.0) : vec4(0.0); }");
        let e =
            fails("uniform float t; out vec4 c; void main() { c = t > 0.0 ? vec4(1.0) : 0.5; }");
        assert!(e.message.contains("branches"));
    }

    #[test]
    fn compound_assign_type_rules() {
        ok("out vec4 c; void main() { c = vec4(1.0); c /= 2.0; c *= vec4(0.5); }");
        let e = fails("out vec4 c; uniform mat4 m; void main() { c = vec4(1.0); c += m; }");
        assert!(!e.message.is_empty());
    }
}
