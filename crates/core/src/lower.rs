//! AST → IR lowering.
//!
//! The lowering mirrors what LunarGlass's GLSL front-end does to shaders
//! before optimization, including the behaviours the paper identifies as
//! source-to-source artefacts (§III-C):
//!
//! * **matrices are scalarised** — a `mat4` becomes four column vectors and
//!   `m * v` becomes an explicit multiply/add chain over the columns;
//! * **scalar × vector arithmetic is vectorised** — the scalar operand is
//!   splatted into a vector first, because IR binary operations require equal
//!   operand widths (as in LLVM);
//! * **user functions are inlined** into `main`, so the optimizer sees one
//!   straight-line body with structured `if`/`for` statements.

use prism_glsl::ast::{
    self, AssignOp, BinOp, Decl, Expr, LValue, Stmt as AstStmt, StorageQualifier, UnOp,
};
use prism_glsl::builtins::{resolve_call, Builtin, CallKind};
use prism_glsl::types::{SamplerKind, ScalarKind, Type};
use prism_glsl::ShaderSource;
use prism_ir::prelude::*;
use std::collections::HashMap;
use std::fmt;

/// An error produced while lowering a shader to IR.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Description of the unsupported or malformed construct.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(message: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError {
        message: message.into(),
    })
}

/// Lowers a checked shader to IR.
///
/// # Errors
///
/// Returns a [`LowerError`] for constructs outside the supported subset
/// (non-constant loop bounds, dynamic vector indexing, recursion, ...).
pub fn lower(source: &ShaderSource, name: &str) -> Result<Shader, LowerError> {
    let mut lowerer = Lowerer::new(source, name);
    lowerer.run()?;
    Ok(lowerer.shader)
}

/// A typed operand: the value plus its IR type.
#[derive(Debug, Clone)]
struct TV {
    op: Operand,
    ty: IrType,
}

impl TV {
    fn new(op: Operand, ty: IrType) -> TV {
        TV { op, ty }
    }
}

/// A lowered expression: either a plain value or a scalarised matrix.
#[derive(Debug, Clone)]
enum Lowered {
    Value(TV),
    /// Matrix as column vectors, each of width `dim`.
    Matrix(Vec<Operand>, u8),
}

/// What a GLSL name is bound to during lowering.
#[derive(Debug, Clone)]
enum Binding {
    /// An immutable value (inputs, uniforms, const globals, inlined args).
    Value(TV),
    /// A mutable variable backed by a register.
    Var { reg: Reg, ty: IrType },
    /// A matrix variable: column operands (uniform slots or registers).
    Matrix {
        cols: Vec<Operand>,
        dim: u8,
        mutable_regs: Option<Vec<Reg>>,
    },
    /// A constant array.
    ConstArray { index: usize, elem_ty: IrType },
    /// An array of uniform slots (constant indexing only).
    UniformArray { slots: Vec<usize>, elem_ty: IrType },
    /// A texture sampler.
    Sampler { index: usize, dim: TextureDim },
}

struct Lowerer<'a> {
    src: &'a ShaderSource,
    shader: Shader,
    scopes: Vec<HashMap<String, Binding>>,
    /// Backing register of each shader output, by output index.
    output_regs: Vec<Reg>,
    /// Statement sinks; the innermost is the list being appended to.
    sinks: Vec<Vec<Stmt>>,
    /// Return-value register stack for inlined user functions.
    return_slots: Vec<Option<(Reg, IrType)>>,
    /// Inlining depth guard.
    inline_depth: usize,
}

impl<'a> Lowerer<'a> {
    fn new(src: &'a ShaderSource, name: &str) -> Self {
        Lowerer {
            src,
            shader: Shader::new(name),
            scopes: vec![HashMap::new()],
            output_regs: Vec::new(),
            sinks: vec![Vec::new()],
            return_slots: Vec::new(),
            inline_depth: 0,
        }
    }

    // ----- plumbing ---------------------------------------------------------

    fn emit(&mut self, stmt: Stmt) {
        self.sinks
            .last_mut()
            .expect("at least one statement sink")
            .push(stmt);
    }

    fn define(&mut self, ty: IrType, op: Op, hint: Option<&str>) -> Reg {
        let reg = match hint {
            Some(h) => self.shader.new_named_reg(ty, h),
            None => self.shader.new_reg(ty),
        };
        self.emit(Stmt::Def { dst: reg, op });
        reg
    }

    fn bind(&mut self, name: &str, binding: Binding) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), binding);
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(b.clone());
            }
        }
        None
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    // ----- top level --------------------------------------------------------

    fn run(&mut self) -> Result<(), LowerError> {
        self.lower_globals()?;
        // The source outlives the lowerer: borrowing it through a copy of
        // the reference, not through `self`, walks the AST without cloning.
        let src: &'a ShaderSource = self.src;
        let Some(main) = src.ast.main() else {
            return err("shader has no main function");
        };
        self.lower_body(&main.body.stmts)?;
        // Final output stores.
        let stores: Vec<Stmt> = self
            .output_regs
            .iter()
            .enumerate()
            .map(|(i, reg)| Stmt::StoreOutput {
                output: i,
                components: None,
                value: Operand::Reg(*reg),
            })
            .collect();
        for s in stores {
            self.emit(s);
        }
        self.shader.body = self.sinks.pop().expect("root sink");
        Ok(())
    }

    fn lower_globals(&mut self) -> Result<(), LowerError> {
        let src: &'a ShaderSource = self.src;
        for decl in &src.ast.decls {
            let Decl::Global(g) = decl else { continue };
            match g.qualifier {
                StorageQualifier::In => {
                    let ty = value_type(&g.ty).ok_or_else(|| LowerError {
                        message: format!("unsupported input type {}", g.ty),
                    })?;
                    let index = self.shader.inputs.len();
                    self.shader.inputs.push(InputVar {
                        name: g.name.clone(),
                        ty,
                    });
                    self.bind(&g.name, Binding::Value(TV::new(Operand::Input(index), ty)));
                }
                StorageQualifier::Out => {
                    let ty = value_type(&g.ty).ok_or_else(|| LowerError {
                        message: format!("unsupported output type {}", g.ty),
                    })?;
                    self.shader.outputs.push(OutputVar {
                        name: g.name.clone(),
                        ty,
                    });
                    let reg = self.shader.new_named_reg(ty, &g.name);
                    // Initialise so every path has a defined value.
                    self.emit(Stmt::Def {
                        dst: reg,
                        op: if ty.is_scalar() {
                            Op::Mov(Operand::float(0.0))
                        } else {
                            Op::Splat {
                                ty,
                                value: Operand::float(0.0),
                            }
                        },
                    });
                    self.output_regs.push(reg);
                    self.bind(&g.name, Binding::Var { reg, ty });
                }
                StorageQualifier::Uniform => self.lower_uniform(&g.name, &g.ty)?,
                StorageQualifier::Const => self.lower_const_global(g)?,
                StorageQualifier::Global => {
                    let ty = value_type(&g.ty).ok_or_else(|| LowerError {
                        message: format!("unsupported global type {}", g.ty),
                    })?;
                    let init = match &g.init {
                        Some(e) => self.lower_expr(e)?,
                        None => TV::new(Operand::float(0.0), IrType::F32),
                    };
                    let init = self.coerce(init, ty);
                    let reg = self.define(ty, Op::Mov(init.op), Some(&g.name));
                    self.bind(&g.name, Binding::Var { reg, ty });
                }
            }
        }
        Ok(())
    }

    fn lower_uniform(&mut self, name: &str, ty: &Type) -> Result<(), LowerError> {
        match ty {
            Type::Sampler(kind) => {
                let index = self.shader.samplers.len();
                let dim = sampler_dim(*kind);
                self.shader.samplers.push(SamplerVar {
                    name: name.to_string(),
                    dim,
                });
                self.bind(name, Binding::Sampler { index, dim });
            }
            Type::Matrix(n) => {
                let col_ty = IrType::fvec(*n);
                let mut cols = Vec::new();
                for col in 0..*n as usize {
                    let slot = self.shader.uniforms.len();
                    self.shader.uniforms.push(UniformVar {
                        name: name.to_string(),
                        ty: col_ty,
                        slot: col,
                        original: format!("mat{n}"),
                    });
                    cols.push(Operand::Uniform(slot));
                }
                self.bind(
                    name,
                    Binding::Matrix {
                        cols,
                        dim: *n,
                        mutable_regs: None,
                    },
                );
            }
            Type::Array(elem, Some(len)) => {
                let elem_ir = value_type(elem).ok_or_else(|| LowerError {
                    message: format!("unsupported uniform array element {elem}"),
                })?;
                let mut slots = Vec::new();
                for i in 0..*len {
                    let slot = self.shader.uniforms.len();
                    self.shader.uniforms.push(UniformVar {
                        name: name.to_string(),
                        ty: elem_ir,
                        slot: i,
                        original: format!("{}[{len}]", elem.glsl_name()),
                    });
                    slots.push(slot);
                }
                self.bind(
                    name,
                    Binding::UniformArray {
                        slots,
                        elem_ty: elem_ir,
                    },
                );
            }
            other => {
                let ir_ty = value_type(other).ok_or_else(|| LowerError {
                    message: format!("unsupported uniform type {other}"),
                })?;
                let slot = self.shader.uniforms.len();
                self.shader.uniforms.push(UniformVar {
                    name: name.to_string(),
                    ty: ir_ty,
                    slot: 0,
                    original: other.glsl_name(),
                });
                self.bind(name, Binding::Value(TV::new(Operand::Uniform(slot), ir_ty)));
            }
        }
        Ok(())
    }

    fn lower_const_global(&mut self, g: &ast::GlobalDecl) -> Result<(), LowerError> {
        let Some(init) = &g.init else {
            return err(format!("const global `{}` has no initialiser", g.name));
        };
        if let Expr::ArrayInit { elem_ty, elems } = init {
            return self.lower_const_array(&g.name, elem_ty, elems);
        }
        let ty = value_type(&g.ty).ok_or_else(|| LowerError {
            message: format!("unsupported const type {}", g.ty),
        })?;
        let value = self.lower_expr(init)?;
        let value = self.coerce(value, ty);
        self.bind(&g.name, Binding::Value(value));
        Ok(())
    }

    fn lower_const_array(
        &mut self,
        name: &str,
        elem_ty: &Type,
        elems: &[Expr],
    ) -> Result<(), LowerError> {
        let elem_ir = value_type(elem_ty).ok_or_else(|| LowerError {
            message: format!("unsupported array element type {elem_ty}"),
        })?;
        let mut elements = Vec::with_capacity(elems.len());
        for e in elems {
            let lanes = eval_const_expr(e, elem_ir.width).ok_or_else(|| LowerError {
                message: format!("array element of `{name}` is not a constant expression"),
            })?;
            elements.push(lanes);
        }
        let index = self.shader.const_arrays.len();
        self.shader.const_arrays.push(ConstArray {
            name: name.to_string(),
            elem_ty: elem_ir,
            elements,
        });
        self.bind(
            name,
            Binding::ConstArray {
                index,
                elem_ty: elem_ir,
            },
        );
        Ok(())
    }

    // ----- statements -------------------------------------------------------

    fn lower_body(&mut self, stmts: &[AstStmt]) -> Result<(), LowerError> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &AstStmt) -> Result<(), LowerError> {
        match stmt {
            AstStmt::Decl { ty, name, init, .. } => self.lower_decl(ty, name, init.as_ref()),
            AstStmt::Assign {
                target, op, value, ..
            } => self.lower_assign(target, *op, value),
            AstStmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let cond = self.lower_expr(cond)?;
                self.push_scope();
                self.sinks.push(Vec::new());
                self.lower_body(&then_block.stmts)?;
                let then_body = self.sinks.pop().expect("then sink");
                self.pop_scope();
                self.push_scope();
                self.sinks.push(Vec::new());
                if let Some(eb) = else_block {
                    self.lower_body(&eb.stmts)?;
                }
                let else_body = self.sinks.pop().expect("else sink");
                self.pop_scope();
                self.emit(Stmt::If {
                    cond: cond.op,
                    then_body,
                    else_body,
                });
                Ok(())
            }
            AstStmt::For {
                var,
                init,
                cond,
                step,
                body,
                ..
            } => self.lower_for(var, init, cond, step, &body.stmts),
            AstStmt::Return(value) => {
                match self.return_slots.last().cloned().flatten() {
                    Some((reg, ty)) => {
                        if let Some(v) = value {
                            let tv = self.lower_expr(v)?;
                            let tv = self.coerce(tv, ty);
                            self.emit(Stmt::Def {
                                dst: reg,
                                op: Op::Mov(tv.op),
                            });
                        }
                        Ok(())
                    }
                    // `return;` from main simply ends execution of the body;
                    // the trailing output stores still run, matching GLSL where
                    // outputs hold their last written value.
                    None => Ok(()),
                }
            }
            AstStmt::Discard => {
                self.emit(Stmt::Discard { cond: None });
                Ok(())
            }
            AstStmt::Break | AstStmt::Continue => err("break/continue are not supported"),
            AstStmt::Expr(e) => {
                // Evaluate for effect (e.g. a void helper call).
                let _ = self.lower_any(e)?;
                Ok(())
            }
            AstStmt::Block(b) => {
                self.push_scope();
                self.lower_body(&b.stmts)?;
                self.pop_scope();
                Ok(())
            }
        }
    }

    fn lower_decl(&mut self, ty: &Type, name: &str, init: Option<&Expr>) -> Result<(), LowerError> {
        // Local constant arrays become shader-level constant arrays.
        if let Some(Expr::ArrayInit { elem_ty, elems }) = init {
            return self.lower_const_array(name, elem_ty, elems);
        }
        match ty {
            Type::Matrix(n) => {
                let col_ty = IrType::fvec(*n);
                let cols_init: Vec<Operand> = match init {
                    Some(e) => match self.lower_any(e)? {
                        Lowered::Matrix(cols, dim) if dim == *n => cols,
                        Lowered::Matrix(_, dim) => {
                            return err(format!("matrix size mismatch: mat{n} vs mat{dim}"))
                        }
                        Lowered::Value(_) => {
                            return err("cannot initialise a matrix from a vector")
                        }
                    },
                    None => (0..*n)
                        .map(|_| Operand::Const(Constant::FloatVec(vec![0.0; *n as usize])))
                        .collect(),
                };
                let mut regs = Vec::new();
                let mut cols = Vec::new();
                for (i, c) in cols_init.into_iter().enumerate() {
                    let reg = self.define(col_ty, Op::Mov(c), Some(&format!("{name}_c{i}")));
                    regs.push(reg);
                    cols.push(Operand::Reg(reg));
                }
                self.bind(
                    name,
                    Binding::Matrix {
                        cols,
                        dim: *n,
                        mutable_regs: Some(regs),
                    },
                );
                Ok(())
            }
            _ => {
                let ir_ty = value_type(ty).ok_or_else(|| LowerError {
                    message: format!("unsupported local type {ty}"),
                })?;
                let value = match init {
                    Some(e) => {
                        let tv = self.lower_expr(e)?;
                        self.coerce(tv, ir_ty)
                    }
                    None => TV::new(zero_of(ir_ty), ir_ty),
                };
                let reg = self.define(ir_ty, Op::Mov(value.op), Some(name));
                self.bind(name, Binding::Var { reg, ty: ir_ty });
                Ok(())
            }
        }
    }

    fn lower_for(
        &mut self,
        var: &str,
        init: &Expr,
        cond: &Expr,
        step: &AstStmt,
        body: &[AstStmt],
    ) -> Result<(), LowerError> {
        let start = const_int(init).ok_or_else(|| LowerError {
            message: "loop initial value must be a constant integer".into(),
        })?;
        let (end, inclusive) = match cond {
            Expr::Binary(BinOp::Lt, lhs, rhs) if is_ident(lhs, var) => (const_int(rhs), false),
            Expr::Binary(BinOp::Le, lhs, rhs) if is_ident(lhs, var) => (const_int(rhs), true),
            Expr::Binary(BinOp::Gt, lhs, rhs) if is_ident(lhs, var) => (const_int(rhs), false),
            Expr::Binary(BinOp::Ge, lhs, rhs) if is_ident(lhs, var) => (const_int(rhs), true),
            _ => (None, false),
        };
        let Some(mut end) = end else {
            return err("loop bound must be a comparison of the loop variable with a constant");
        };
        let step_value = match step {
            AstStmt::Assign {
                target, op, value, ..
            } if target.root() == var => match (op, const_int(value)) {
                (AssignOp::Add, Some(v)) => v,
                (AssignOp::Sub, Some(v)) => -v,
                (AssignOp::Assign, _) => match value {
                    Expr::Binary(BinOp::Add, lhs, rhs) if is_ident(lhs, var) => {
                        const_int(rhs).unwrap_or(1)
                    }
                    Expr::Binary(BinOp::Sub, lhs, rhs) if is_ident(lhs, var) => {
                        -const_int(rhs).unwrap_or(1)
                    }
                    _ => return err("unsupported loop step expression"),
                },
                _ => return err("unsupported loop step"),
            },
            _ => return err("unsupported loop step statement"),
        };
        if step_value == 0 {
            return err("loop step must be non-zero");
        }
        if inclusive {
            // `i <= i64::MAX` never ends: the bound one past it does not exist.
            let Some(exclusive) = end.checked_add(step_value.signum()) else {
                return err("inclusive loop bound is out of range");
            };
            end = exclusive;
        }

        let var_reg = self.shader.new_named_reg(IrType::I32, var);
        self.push_scope();
        self.bind(
            var,
            Binding::Var {
                reg: var_reg,
                ty: IrType::I32,
            },
        );
        self.sinks.push(Vec::new());
        self.lower_body(body)?;
        let loop_body = self.sinks.pop().expect("loop sink");
        self.pop_scope();
        self.emit(Stmt::Loop {
            var: var_reg,
            start,
            end,
            step: step_value,
            body: loop_body,
        });
        Ok(())
    }

    fn lower_assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value: &Expr,
    ) -> Result<(), LowerError> {
        match target {
            LValue::Var(name) => match self.lookup(name) {
                Some(Binding::Var { reg, ty }) => {
                    let rhs = self.lower_any(value)?;
                    let rhs = match rhs {
                        Lowered::Value(tv) => tv,
                        Lowered::Matrix(..) => {
                            return err("cannot assign a matrix to a vector variable")
                        }
                    };
                    let combined = self.apply_compound(op, Operand::Reg(reg), ty, rhs)?;
                    self.emit(Stmt::Def {
                        dst: reg,
                        op: combined,
                    });
                    Ok(())
                }
                Some(Binding::Matrix {
                    mutable_regs: Some(regs),
                    dim,
                    ..
                }) => {
                    let rhs = self.lower_any(value)?;
                    let Lowered::Matrix(cols, rdim) = rhs else {
                        return err("cannot assign a non-matrix to a matrix variable");
                    };
                    if rdim != dim {
                        return err("matrix dimension mismatch in assignment");
                    }
                    if op != AssignOp::Assign {
                        return err("compound assignment to matrices is not supported");
                    }
                    let stmts: Vec<Stmt> = regs
                        .iter()
                        .zip(cols)
                        .map(|(r, c)| Stmt::Def {
                            dst: *r,
                            op: Op::Mov(c),
                        })
                        .collect();
                    for s in stmts {
                        self.emit(s);
                    }
                    Ok(())
                }
                Some(_) => err(format!("`{name}` is not assignable")),
                None => err(format!("unknown variable `{name}`")),
            },
            LValue::Field(base, field) => {
                let LValue::Var(name) = base.as_ref() else {
                    return err("only single-level swizzle assignment is supported");
                };
                let Some(Binding::Var { reg, ty }) = self.lookup(name) else {
                    return err(format!("`{name}` is not an assignable vector"));
                };
                let comps: Vec<u8> = field
                    .chars()
                    .filter_map(|c| ast::swizzle_index(c).map(|i| i as u8))
                    .collect();
                if comps.is_empty() || comps.len() != field.len() {
                    return err(format!("invalid swizzle `.{field}`"));
                }
                let rhs = self.lower_expr(value)?;
                // Read-modify-write of the selected components: compound ops
                // first combine the current component values with the RHS.
                let rhs = if op == AssignOp::Assign {
                    rhs
                } else {
                    let current = if comps.len() == 1 {
                        TV::new(
                            Operand::Reg(self.define(
                                ty.element(),
                                Op::Extract {
                                    vector: Operand::Reg(reg),
                                    index: comps[0],
                                },
                                None,
                            )),
                            ty.element(),
                        )
                    } else {
                        let sw_ty = ty.with_width(comps.len() as u8);
                        TV::new(
                            Operand::Reg(self.define(
                                sw_ty,
                                Op::Swizzle {
                                    vector: Operand::Reg(reg),
                                    lanes: comps.clone(),
                                },
                                None,
                            )),
                            sw_ty,
                        )
                    };
                    let combined = self.apply_compound(op, current.op, current.ty, rhs)?;
                    let r = self.define(current.ty, combined, None);
                    TV::new(Operand::Reg(r), current.ty)
                };
                // Insert each component individually — this is precisely the
                // pattern the Coalesce flag collapses.
                if comps.len() == 1 {
                    let scalar = self.coerce(rhs, ty.element());
                    self.emit(Stmt::Def {
                        dst: reg,
                        op: Op::Insert {
                            vector: Operand::Reg(reg),
                            index: comps[0],
                            value: scalar.op,
                        },
                    });
                } else {
                    // Extract every component first, then insert them one by
                    // one; the resulting run of consecutive insertions is the
                    // pattern the Coalesce flag targets.
                    let elems: Vec<Reg> = (0..comps.len())
                        .map(|lane| {
                            self.define(
                                ty.element(),
                                Op::Extract {
                                    vector: rhs.op.clone(),
                                    index: lane as u8,
                                },
                                None,
                            )
                        })
                        .collect();
                    for (comp, elem) in comps.iter().zip(elems) {
                        self.emit(Stmt::Def {
                            dst: reg,
                            op: Op::Insert {
                                vector: Operand::Reg(reg),
                                index: *comp,
                                value: Operand::Reg(elem),
                            },
                        });
                    }
                }
                Ok(())
            }
            LValue::Index(base, index) => {
                let LValue::Var(name) = base.as_ref() else {
                    return err("only single-level indexed assignment is supported");
                };
                let Some(idx) = const_int(index) else {
                    return err("indexed assignment requires a constant index");
                };
                match self.lookup(name) {
                    Some(Binding::Var { reg, ty }) if ty.is_vector() => {
                        let rhs = self.lower_expr(value)?;
                        let rhs = self.coerce(rhs, ty.element());
                        self.emit(Stmt::Def {
                            dst: reg,
                            op: Op::Insert {
                                vector: Operand::Reg(reg),
                                index: idx as u8,
                                value: rhs.op,
                            },
                        });
                        Ok(())
                    }
                    Some(Binding::Matrix {
                        mutable_regs: Some(regs),
                        dim,
                        ..
                    }) => {
                        let rhs = self.lower_expr(value)?;
                        let rhs = self.coerce(rhs, IrType::fvec(dim));
                        let col = regs.get(idx as usize).copied().ok_or_else(|| LowerError {
                            message: "matrix column index out of range".into(),
                        })?;
                        if op != AssignOp::Assign {
                            return err("compound assignment to matrix columns is not supported");
                        }
                        self.emit(Stmt::Def {
                            dst: col,
                            op: Op::Mov(rhs.op),
                        });
                        Ok(())
                    }
                    _ => err(format!("`{name}` cannot be index-assigned")),
                }
            }
        }
    }

    /// Combines the current value of a target with the RHS for compound
    /// assignment operators, returning the op producing the new value.
    fn apply_compound(
        &mut self,
        op: AssignOp,
        current: Operand,
        ty: IrType,
        rhs: TV,
    ) -> Result<Op, LowerError> {
        let bin = match op {
            AssignOp::Assign => {
                let rhs = self.coerce(rhs, ty);
                return Ok(Op::Mov(rhs.op));
            }
            AssignOp::Add => BinaryOp::Add,
            AssignOp::Sub => BinaryOp::Sub,
            AssignOp::Mul => BinaryOp::Mul,
            AssignOp::Div => BinaryOp::Div,
        };
        let (lhs, rhs) = self.broadcast_pair(TV::new(current, ty), rhs);
        Ok(Op::Binary(bin, lhs.op, rhs.op))
    }

    // ----- expressions ------------------------------------------------------

    fn lower_expr(&mut self, expr: &Expr) -> Result<TV, LowerError> {
        match self.lower_any(expr)? {
            Lowered::Value(tv) => Ok(tv),
            Lowered::Matrix(..) => err("matrix value used where a scalar or vector is required"),
        }
    }

    fn lower_any(&mut self, expr: &Expr) -> Result<Lowered, LowerError> {
        match expr {
            Expr::FloatLit(v) => Ok(Lowered::Value(TV::new(Operand::float(*v), IrType::F32))),
            Expr::IntLit(v) => Ok(Lowered::Value(TV::new(Operand::int(*v), IrType::I32))),
            Expr::BoolLit(b) => Ok(Lowered::Value(TV::new(Operand::boolean(*b), IrType::BOOL))),
            Expr::Ident(name) => match self.lookup(name) {
                Some(Binding::Value(tv)) => Ok(Lowered::Value(tv)),
                Some(Binding::Var { reg, ty }) => {
                    Ok(Lowered::Value(TV::new(Operand::Reg(reg), ty)))
                }
                Some(Binding::Matrix { cols, dim, .. }) => Ok(Lowered::Matrix(cols, dim)),
                Some(Binding::ConstArray { .. }) | Some(Binding::UniformArray { .. }) => {
                    err(format!("array `{name}` must be indexed"))
                }
                Some(Binding::Sampler { .. }) => err(format!("sampler `{name}` used as a value")),
                None => err(format!("unknown variable `{name}`")),
            },
            Expr::Unary(UnOp::Neg, inner) => match self.lower_any(inner)? {
                Lowered::Value(tv) => {
                    let reg = self.define(tv.ty, Op::Unary(UnaryOp::Neg, tv.op), None);
                    Ok(Lowered::Value(TV::new(Operand::Reg(reg), tv.ty)))
                }
                Lowered::Matrix(cols, dim) => {
                    let col_ty = IrType::fvec(dim);
                    let negated = cols
                        .into_iter()
                        .map(|c| {
                            Operand::Reg(self.define(col_ty, Op::Unary(UnaryOp::Neg, c), None))
                        })
                        .collect();
                    Ok(Lowered::Matrix(negated, dim))
                }
            },
            Expr::Unary(UnOp::Not, inner) => {
                let tv = self.lower_expr(inner)?;
                let reg = self.define(IrType::BOOL, Op::Unary(UnaryOp::Not, tv.op), None);
                Ok(Lowered::Value(TV::new(Operand::Reg(reg), IrType::BOOL)))
            }
            Expr::Binary(op, lhs, rhs) => self.lower_binary(*op, lhs, rhs),
            Expr::Ternary(cond, then_e, else_e) => {
                let c = self.lower_expr(cond)?;
                let t = self.lower_expr(then_e)?;
                let e = self.lower_expr(else_e)?;
                let (t, e) = self.broadcast_pair(t, e);
                let reg = self.define(
                    t.ty,
                    Op::Select {
                        cond: c.op,
                        if_true: t.op,
                        if_false: e.op,
                    },
                    None,
                );
                Ok(Lowered::Value(TV::new(Operand::Reg(reg), t.ty)))
            }
            Expr::Call(name, args) => self.lower_call(name, args),
            Expr::ArrayInit { .. } => err("array constructors are only supported as initialisers"),
            Expr::Index(base, index) => self.lower_index(base, index),
            Expr::Field(base, field) => self.lower_field(base, field),
        }
    }

    fn lower_field(&mut self, base: &Expr, field: &str) -> Result<Lowered, LowerError> {
        let base_tv = self.lower_expr(base)?;
        if !base_tv.ty.is_vector() {
            return err(format!("cannot swizzle non-vector value with `.{field}`"));
        }
        let lanes: Vec<u8> = field
            .chars()
            .filter_map(|c| ast::swizzle_index(c).map(|i| i as u8))
            .collect();
        if lanes.is_empty() || lanes.len() != field.len() {
            return err(format!("invalid swizzle `.{field}`"));
        }
        if lanes.len() == 1 {
            let ty = base_tv.ty.element();
            let reg = self.define(
                ty,
                Op::Extract {
                    vector: base_tv.op,
                    index: lanes[0],
                },
                None,
            );
            Ok(Lowered::Value(TV::new(Operand::Reg(reg), ty)))
        } else {
            let ty = base_tv.ty.with_width(lanes.len() as u8);
            let reg = self.define(
                ty,
                Op::Swizzle {
                    vector: base_tv.op,
                    lanes,
                },
                None,
            );
            Ok(Lowered::Value(TV::new(Operand::Reg(reg), ty)))
        }
    }

    fn lower_index(&mut self, base: &Expr, index: &Expr) -> Result<Lowered, LowerError> {
        // Indexing a named array or matrix.
        if let Expr::Ident(name) = base {
            match self.lookup(name) {
                Some(Binding::ConstArray {
                    index: array,
                    elem_ty,
                }) => {
                    let idx = self.lower_expr(index)?;
                    let reg = self.define(
                        elem_ty,
                        Op::ConstArrayLoad {
                            array,
                            index: idx.op,
                        },
                        None,
                    );
                    return Ok(Lowered::Value(TV::new(Operand::Reg(reg), elem_ty)));
                }
                Some(Binding::UniformArray { slots, elem_ty }) => {
                    let Some(i) = const_int(index) else {
                        return err(format!("uniform array `{name}` requires a constant index"));
                    };
                    let slot = slots.get(i as usize).copied().ok_or_else(|| LowerError {
                        message: format!("index {i} out of range for `{name}`"),
                    })?;
                    return Ok(Lowered::Value(TV::new(Operand::Uniform(slot), elem_ty)));
                }
                Some(Binding::Matrix { cols, dim, .. }) => {
                    let Some(i) = const_int(index) else {
                        return err(format!("matrix `{name}` requires a constant column index"));
                    };
                    let col = cols.get(i as usize).cloned().ok_or_else(|| LowerError {
                        message: format!("column {i} out of range for `{name}`"),
                    })?;
                    return Ok(Lowered::Value(TV::new(col, IrType::fvec(dim))));
                }
                _ => {}
            }
        }
        // Otherwise: indexing a vector value with a constant index.
        let base_tv = self.lower_expr(base)?;
        if base_tv.ty.is_vector() {
            let Some(i) = const_int(index) else {
                return err("dynamic indexing of vectors is not supported");
            };
            let ty = base_tv.ty.element();
            let reg = self.define(
                ty,
                Op::Extract {
                    vector: base_tv.op,
                    index: i as u8,
                },
                None,
            );
            return Ok(Lowered::Value(TV::new(Operand::Reg(reg), ty)));
        }
        err("unsupported indexing expression")
    }

    fn lower_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Lowered, LowerError> {
        let l = self.lower_any(lhs)?;
        let r = self.lower_any(rhs)?;
        match (l, r) {
            (Lowered::Value(a), Lowered::Value(b)) => {
                let bin = map_binop(op);
                if bin.is_comparison() || bin.is_logical() {
                    let (a, b) = self.broadcast_pair(a, b);
                    let reg = self.define(IrType::BOOL, Op::Binary(bin, a.op, b.op), None);
                    return Ok(Lowered::Value(TV::new(Operand::Reg(reg), IrType::BOOL)));
                }
                let (a, b) = self.broadcast_pair(a, b);
                let reg = self.define(a.ty, Op::Binary(bin, a.op, b.op), None);
                Ok(Lowered::Value(TV::new(Operand::Reg(reg), a.ty)))
            }
            // Matrix * vector — scalarised into column multiply/adds.
            (Lowered::Matrix(cols, dim), Lowered::Value(v))
                if op == BinOp::Mul && v.ty.is_vector() =>
            {
                Ok(Lowered::Value(self.matrix_vector_mul(&cols, dim, v)?))
            }
            // vector * Matrix — per-component dot products.
            (Lowered::Value(v), Lowered::Matrix(cols, dim))
                if op == BinOp::Mul && v.ty.is_vector() =>
            {
                let col_ty = IrType::fvec(dim);
                let mut comps = Vec::new();
                for col in &cols {
                    let d = self.define(
                        IrType::F32,
                        Op::Intrinsic(Intrinsic::Dot, vec![v.op.clone(), col.clone()]),
                        None,
                    );
                    comps.push(Operand::Reg(d));
                }
                let reg = self.define(
                    col_ty,
                    Op::Construct {
                        ty: col_ty,
                        parts: comps,
                    },
                    None,
                );
                Ok(Lowered::Value(TV::new(Operand::Reg(reg), col_ty)))
            }
            // Matrix * Matrix — column-by-column.
            (Lowered::Matrix(a_cols, dim), Lowered::Matrix(b_cols, bdim)) if op == BinOp::Mul => {
                if dim != bdim {
                    return err("matrix dimension mismatch in multiplication");
                }
                let col_ty = IrType::fvec(dim);
                let mut out_cols = Vec::new();
                for b_col in &b_cols {
                    let v = TV::new(b_col.clone(), col_ty);
                    let col = self.matrix_vector_mul(&a_cols, dim, v)?;
                    out_cols.push(col.op);
                }
                Ok(Lowered::Matrix(out_cols, dim))
            }
            // Matrix ± Matrix — per column.
            (Lowered::Matrix(a_cols, dim), Lowered::Matrix(b_cols, bdim))
                if (op == BinOp::Add || op == BinOp::Sub) && dim == bdim =>
            {
                let col_ty = IrType::fvec(dim);
                let bin = map_binop(op);
                let cols = a_cols
                    .iter()
                    .zip(&b_cols)
                    .map(|(a, b)| {
                        Operand::Reg(self.define(
                            col_ty,
                            Op::Binary(bin, a.clone(), b.clone()),
                            None,
                        ))
                    })
                    .collect();
                Ok(Lowered::Matrix(cols, dim))
            }
            // Matrix * scalar / scalar * Matrix — scale each column.
            (Lowered::Matrix(cols, dim), Lowered::Value(s))
            | (Lowered::Value(s), Lowered::Matrix(cols, dim))
                if s.ty.is_scalar() =>
            {
                let col_ty = IrType::fvec(dim);
                let splat = self.define(
                    col_ty,
                    Op::Splat {
                        ty: col_ty,
                        value: s.op,
                    },
                    None,
                );
                let bin = map_binop(op);
                let scaled = cols
                    .iter()
                    .map(|c| {
                        Operand::Reg(self.define(
                            col_ty,
                            Op::Binary(bin, c.clone(), Operand::Reg(splat)),
                            None,
                        ))
                    })
                    .collect();
                Ok(Lowered::Matrix(scaled, dim))
            }
            _ => err(format!(
                "unsupported operand combination for `{}`",
                op.symbol()
            )),
        }
    }

    /// `M * v` scalarised: `sum_j (col_j * splat(v[j]))`.
    fn matrix_vector_mul(&mut self, cols: &[Operand], dim: u8, v: TV) -> Result<TV, LowerError> {
        let col_ty = IrType::fvec(dim);
        let mut acc: Option<Operand> = None;
        for (j, col) in cols.iter().enumerate() {
            let elem = self.define(
                IrType::F32,
                Op::Extract {
                    vector: v.op.clone(),
                    index: j as u8,
                },
                None,
            );
            let splat = self.define(
                col_ty,
                Op::Splat {
                    ty: col_ty,
                    value: Operand::Reg(elem),
                },
                None,
            );
            let prod = self.define(
                col_ty,
                Op::Binary(BinaryOp::Mul, col.clone(), Operand::Reg(splat)),
                None,
            );
            acc = Some(match acc {
                None => Operand::Reg(prod),
                Some(prev) => Operand::Reg(self.define(
                    col_ty,
                    Op::Binary(BinaryOp::Add, prev, Operand::Reg(prod)),
                    None,
                )),
            });
        }
        Ok(TV::new(
            acc.expect("matrix has at least one column"),
            col_ty,
        ))
    }

    fn lower_call(&mut self, name: &str, args: &[Expr]) -> Result<Lowered, LowerError> {
        match resolve_call(name) {
            CallKind::Constructor(ty) => self.lower_constructor(&ty, args),
            CallKind::Builtin(b) => self.lower_builtin(name, b, args),
            CallKind::UserFunction => self.inline_user_function(name, args),
        }
    }

    fn lower_constructor(&mut self, ty: &Type, args: &[Expr]) -> Result<Lowered, LowerError> {
        match ty {
            Type::Scalar(_) => {
                let target = value_type(ty).expect("scalar type");
                let a = self.lower_expr(&args[0])?;
                if a.ty == target {
                    return Ok(Lowered::Value(a));
                }
                let reg = self.define(
                    target,
                    Op::Convert {
                        to: target,
                        value: a.op,
                    },
                    None,
                );
                Ok(Lowered::Value(TV::new(Operand::Reg(reg), target)))
            }
            Type::Vector(_, n) => {
                let target = value_type(ty).expect("vector type");
                if args.len() == 1 {
                    let a = self.lower_expr(&args[0])?;
                    if a.ty.is_scalar() {
                        let a = self.coerce_float(a);
                        let reg = self.define(
                            target,
                            Op::Splat {
                                ty: target,
                                value: a.op,
                            },
                            None,
                        );
                        return Ok(Lowered::Value(TV::new(Operand::Reg(reg), target)));
                    }
                    if a.ty.width == *n {
                        return Ok(Lowered::Value(a));
                    }
                    // Truncating construction from a wider vector.
                    let lanes: Vec<u8> = (0..*n).collect();
                    let reg = self.define(
                        target,
                        Op::Swizzle {
                            vector: a.op,
                            lanes,
                        },
                        None,
                    );
                    return Ok(Lowered::Value(TV::new(Operand::Reg(reg), target)));
                }
                let mut parts = Vec::new();
                for a in args {
                    let tv = self.lower_expr(a)?;
                    let tv = self.coerce_float(tv);
                    parts.push(tv.op);
                }
                let reg = self.define(target, Op::Construct { ty: target, parts }, None);
                Ok(Lowered::Value(TV::new(Operand::Reg(reg), target)))
            }
            Type::Matrix(n) => {
                let col_ty = IrType::fvec(*n);
                if args.len() == 1 {
                    // Diagonal matrix from a scalar.
                    let s = self.lower_expr(&args[0])?;
                    let s = self.coerce_float(s);
                    let mut cols = Vec::new();
                    for c in 0..*n {
                        let mut lanes = vec![0.0; *n as usize];
                        let zero_vec = Operand::Const(Constant::FloatVec(lanes.clone()));
                        lanes[c as usize] = 1.0;
                        let reg = self.define(
                            col_ty,
                            Op::Insert {
                                vector: zero_vec,
                                index: c,
                                value: s.op.clone(),
                            },
                            None,
                        );
                        cols.push(Operand::Reg(reg));
                    }
                    return Ok(Lowered::Matrix(cols, *n));
                }
                if args.len() == *n as usize {
                    let mut cols = Vec::new();
                    for a in args {
                        let tv = self.lower_expr(a)?;
                        let tv = self.coerce(tv, col_ty);
                        cols.push(tv.op);
                    }
                    return Ok(Lowered::Matrix(cols, *n));
                }
                err("unsupported matrix constructor form")
            }
            _ => err(format!("cannot construct value of type {ty}")),
        }
    }

    fn lower_builtin(
        &mut self,
        name: &str,
        b: Builtin,
        args: &[Expr],
    ) -> Result<Lowered, LowerError> {
        if b.is_texture() {
            let Expr::Ident(sampler_name) = &args[0] else {
                return err("texture sampler argument must be a sampler variable");
            };
            let Some(Binding::Sampler { index, dim }) = self.lookup(sampler_name) else {
                return err(format!("`{sampler_name}` is not a sampler"));
            };
            let coords = self.lower_expr(&args[1])?;
            let lod = if matches!(b, Builtin::TextureLod) && args.len() > 2 {
                Some(self.lower_expr(&args[2])?.op)
            } else {
                None
            };
            let result_ty = dim.sample_type();
            let reg = self.define(
                result_ty,
                Op::TextureSample {
                    sampler: index,
                    coords: coords.op,
                    lod,
                    dim,
                },
                None,
            );
            return Ok(Lowered::Value(TV::new(Operand::Reg(reg), result_ty)));
        }

        let Some(intrinsic) = intrinsic_for(name) else {
            return err(format!("unsupported builtin `{name}`"));
        };
        let mut lowered: Vec<TV> = Vec::new();
        for a in args {
            lowered.push(self.lower_expr(a)?);
        }
        let result_ty = intrinsic_result_ty(intrinsic, &lowered);
        let ops: Vec<Operand> = lowered.into_iter().map(|tv| tv.op).collect();
        let reg = self.define(result_ty, Op::Intrinsic(intrinsic, ops), None);
        Ok(Lowered::Value(TV::new(Operand::Reg(reg), result_ty)))
    }

    fn inline_user_function(&mut self, name: &str, args: &[Expr]) -> Result<Lowered, LowerError> {
        if self.inline_depth > 8 {
            return err("function inlining too deep (recursion is not supported)");
        }
        let src: &'a ShaderSource = self.src;
        let Some(func) = src.ast.function(name) else {
            return err(format!("unknown function `{name}`"));
        };
        if func.params.len() != args.len() {
            return err(format!("wrong number of arguments to `{name}`"));
        }
        // Lower arguments in the caller scope.
        let mut lowered_args = Vec::new();
        for (param, arg) in func.params.iter().zip(args) {
            let ty = value_type(&param.ty).ok_or_else(|| LowerError {
                message: format!("unsupported parameter type {}", param.ty),
            })?;
            let tv = self.lower_expr(arg)?;
            let tv = self.coerce(tv, ty);
            lowered_args.push((param.name.clone(), tv, ty));
        }

        self.inline_depth += 1;
        self.push_scope();
        for (pname, tv, ty) in lowered_args {
            let reg = self.define(ty, Op::Mov(tv.op), Some(&pname));
            self.bind(&pname, Binding::Var { reg, ty });
        }
        let ret = if func.return_type == Type::Void {
            None
        } else {
            let ty = value_type(&func.return_type).ok_or_else(|| LowerError {
                message: format!("unsupported return type {}", func.return_type),
            })?;
            let reg = self.define(ty, Op::Mov(zero_of(ty)), Some(&format!("{name}_ret")));
            Some((reg, ty))
        };
        self.return_slots.push(ret);
        self.lower_body(&func.body.stmts)?;
        self.return_slots.pop();
        self.pop_scope();
        self.inline_depth -= 1;

        match ret {
            Some((reg, ty)) => Ok(Lowered::Value(TV::new(Operand::Reg(reg), ty))),
            None => Ok(Lowered::Value(TV::new(Operand::float(0.0), IrType::F32))),
        }
    }

    // ----- type adjustment helpers ------------------------------------------

    /// Adjusts a pair of operands to a common width/kind, splatting scalars
    /// into vectors (the paper's "unnecessary vectorisation" artefact) and
    /// promoting ints to floats when mixed.
    fn broadcast_pair(&mut self, a: TV, b: TV) -> (TV, TV) {
        let mut a = a;
        let mut b = b;
        // Promote int to float when mixed.
        if a.ty.is_float() && b.ty.is_int() {
            b = self.coerce_float(b);
        } else if b.ty.is_float() && a.ty.is_int() {
            a = self.coerce_float(a);
        }
        if a.ty.width == b.ty.width {
            return (a, b);
        }
        if a.ty.is_scalar() && b.ty.is_vector() {
            let ty = b.ty;
            let reg = self.define(ty, Op::Splat { ty, value: a.op }, None);
            a = TV::new(Operand::Reg(reg), ty);
        } else if b.ty.is_scalar() && a.ty.is_vector() {
            let ty = a.ty;
            let reg = self.define(ty, Op::Splat { ty, value: b.op }, None);
            b = TV::new(Operand::Reg(reg), ty);
        }
        (a, b)
    }

    /// Converts an integer scalar/vector value to float.
    fn coerce_float(&mut self, tv: TV) -> TV {
        if tv.ty.is_float() {
            return tv;
        }
        // Constant ints convert in place.
        if let Operand::Const(c) = &tv.op {
            if let Some(v) = c.as_f64() {
                return TV::new(
                    Operand::float(v),
                    IrType::fvec(tv.ty.width).element().with_width(tv.ty.width),
                );
            }
        }
        let to = IrType::vec(prism_ir::types::Scalar::F32, tv.ty.width);
        let reg = self.define(to, Op::Convert { to, value: tv.op }, None);
        TV::new(Operand::Reg(reg), to)
    }

    /// Coerces a value to exactly `target` (splat, truncate, convert).
    fn coerce(&mut self, tv: TV, target: IrType) -> TV {
        if tv.ty == target {
            return tv;
        }
        let tv = if target.is_float() && tv.ty.is_int() {
            self.coerce_float(tv)
        } else {
            tv
        };
        if tv.ty == target {
            return tv;
        }
        if tv.ty.is_scalar() && target.is_vector() {
            let reg = self.define(
                target,
                Op::Splat {
                    ty: target,
                    value: tv.op,
                },
                None,
            );
            return TV::new(Operand::Reg(reg), target);
        }
        if tv.ty.is_vector() && target.is_vector() && tv.ty.width > target.width {
            let lanes: Vec<u8> = (0..target.width).collect();
            let reg = self.define(
                target,
                Op::Swizzle {
                    vector: tv.op,
                    lanes,
                },
                None,
            );
            return TV::new(Operand::Reg(reg), target);
        }
        if tv.ty.scalar != target.scalar && tv.ty.width == target.width {
            let reg = self.define(
                target,
                Op::Convert {
                    to: target,
                    value: tv.op,
                },
                None,
            );
            return TV::new(Operand::Reg(reg), target);
        }
        tv
    }
}

// ----- free helpers ----------------------------------------------------------

/// Maps a GLSL scalar/vector type to an IR type (`None` for opaque/matrix).
fn value_type(ty: &Type) -> Option<IrType> {
    match ty {
        Type::Scalar(k) => Some(IrType::vec(scalar_kind(*k), 1)),
        Type::Vector(k, n) => Some(IrType::vec(scalar_kind(*k), *n)),
        _ => None,
    }
}

fn scalar_kind(k: ScalarKind) -> prism_ir::types::Scalar {
    use prism_ir::types::Scalar;
    match k {
        ScalarKind::Float => Scalar::F32,
        ScalarKind::Int => Scalar::I32,
        ScalarKind::Uint => Scalar::U32,
        ScalarKind::Bool => Scalar::Bool,
    }
}

fn sampler_dim(kind: SamplerKind) -> TextureDim {
    match kind {
        SamplerKind::Sampler2D => TextureDim::Dim2D,
        SamplerKind::Sampler3D => TextureDim::Dim3D,
        SamplerKind::SamplerCube => TextureDim::Cube,
        SamplerKind::Sampler2DShadow => TextureDim::Shadow2D,
        SamplerKind::Sampler2DArray => TextureDim::Array2D,
    }
}

fn map_binop(op: BinOp) -> BinaryOp {
    match op {
        BinOp::Add => BinaryOp::Add,
        BinOp::Sub => BinaryOp::Sub,
        BinOp::Mul => BinaryOp::Mul,
        BinOp::Div => BinaryOp::Div,
        BinOp::Mod => BinaryOp::Mod,
        BinOp::Eq => BinaryOp::Eq,
        BinOp::Ne => BinaryOp::Ne,
        BinOp::Lt => BinaryOp::Lt,
        BinOp::Le => BinaryOp::Le,
        BinOp::Gt => BinaryOp::Gt,
        BinOp::Ge => BinaryOp::Ge,
        BinOp::And => BinaryOp::And,
        BinOp::Or => BinaryOp::Or,
    }
}

/// Maps a GLSL builtin name to the IR intrinsic used to implement it.
fn intrinsic_for(name: &str) -> Option<Intrinsic> {
    Intrinsic::from_glsl_name(name)
}

/// Result type of an intrinsic given lowered argument types.
fn intrinsic_result_ty(i: Intrinsic, args: &[TV]) -> IrType {
    match i {
        Intrinsic::Dot | Intrinsic::Length | Intrinsic::Distance => IrType::F32,
        Intrinsic::Cross => IrType::fvec(3),
        Intrinsic::Smoothstep => args.last().map(|a| a.ty).unwrap_or(IrType::F32),
        Intrinsic::Step => args.last().map(|a| a.ty).unwrap_or(IrType::F32),
        _ => args
            .iter()
            .map(|a| a.ty)
            .max_by_key(|t| t.width)
            .unwrap_or(IrType::F32),
    }
}

/// Evaluates an expression as a constant integer (literals and negation only).
fn const_int(expr: &Expr) -> Option<i64> {
    match expr {
        Expr::IntLit(v) => Some(*v),
        Expr::FloatLit(v) if v.fract() == 0.0 => Some(*v as i64),
        Expr::Unary(UnOp::Neg, inner) => const_int(inner).map(|v| -v),
        _ => None,
    }
}

fn is_ident(expr: &Expr, name: &str) -> bool {
    matches!(expr, Expr::Ident(n) if n == name)
}

/// Evaluates a constant expression into `width` lanes (used for const arrays).
fn eval_const_expr(expr: &Expr, width: u8) -> Option<Vec<f64>> {
    let scalar = |v: f64| Some(vec![v; width as usize]);
    match expr {
        Expr::FloatLit(v) => scalar(*v),
        Expr::IntLit(v) => scalar(*v as f64),
        Expr::Unary(UnOp::Neg, inner) => {
            eval_const_expr(inner, width).map(|v| v.iter().map(|x| -x).collect())
        }
        Expr::Binary(op, a, b) => {
            let av = eval_const_expr(a, width)?;
            let bv = eval_const_expr(b, width)?;
            let f = |x: f64, y: f64| match op {
                BinOp::Add => Some(x + y),
                BinOp::Sub => Some(x - y),
                BinOp::Mul => Some(x * y),
                BinOp::Div if y != 0.0 => Some(x / y),
                _ => None,
            };
            let lanes: Option<Vec<f64>> = av.iter().zip(&bv).map(|(x, y)| f(*x, *y)).collect();
            lanes
        }
        Expr::Call(name, args) => {
            // Constant vector constructors: vec2(0.1), vec4(a, b, c, d).
            let ty = Type::from_name(name)?;
            let n = ty.vector_width()?;
            if n != width && (args.len() != 1) {
                return None;
            }
            if args.len() == 1 {
                let inner = eval_const_expr(&args[0], 1)?;
                return Some(vec![inner[0]; width as usize]);
            }
            let mut lanes = Vec::new();
            for a in args {
                lanes.extend(eval_const_expr(a, 1)?);
            }
            lanes.truncate(width as usize);
            while lanes.len() < width as usize {
                lanes.push(0.0);
            }
            Some(lanes)
        }
        _ => None,
    }
}

fn zero_of(ty: IrType) -> Operand {
    if ty.is_bool() {
        Operand::boolean(false)
    } else if ty.is_scalar() {
        if ty.is_int() {
            Operand::int(0)
        } else {
            Operand::float(0.0)
        }
    } else {
        Operand::Const(Constant::FloatVec(vec![0.0; ty.width as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::verify::verify;

    fn lower_src(src: &str) -> Shader {
        let source = ShaderSource::parse(src).expect("front-end");
        let shader = lower(&source, "test").expect("lowering");
        verify(&shader).expect("verification");
        shader
    }

    #[test]
    fn lowers_minimal_shader() {
        let s = lower_src("out vec4 c; void main() { c = vec4(1.0, 0.0, 0.0, 1.0); }");
        assert_eq!(s.outputs.len(), 1);
        assert!(s.size() >= 2);
    }

    #[test]
    fn lowers_texture_sampling_and_uniforms() {
        let s = lower_src(
            "uniform sampler2D tex; uniform vec4 tint; in vec2 uv; out vec4 c;\n\
             void main() { c = texture(tex, uv) * tint; }",
        );
        assert_eq!(s.samplers.len(), 1);
        assert_eq!(s.uniforms.len(), 1);
        assert_eq!(s.texture_op_count(), 1);
    }

    #[test]
    fn matrix_uniform_is_scalarised() {
        let s = lower_src("uniform mat4 m; in vec4 p; out vec4 c; void main() { c = m * p; }");
        // Four column slots for the matrix uniform.
        assert_eq!(s.uniforms.len(), 4);
        // Scalarised multiply: extracts, splats, multiplies and adds.
        assert!(
            s.size() > 10,
            "expected scalarised matrix code, size {}",
            s.size()
        );
    }

    #[test]
    fn scalar_vector_multiply_is_splatted() {
        let s =
            lower_src("uniform float f; uniform vec4 v; out vec4 c; void main() { c = v * f; }");
        let has_splat = {
            let mut found = false;
            prism_ir::stmt::walk_body(&s.body, &mut |st| {
                if let Stmt::Def {
                    op: Op::Splat { .. },
                    ..
                } = st
                {
                    found = true;
                }
            });
            found
        };
        assert!(has_splat, "scalar operand should have been splatted");
    }

    #[test]
    fn loops_lower_to_counted_loops() {
        let s = lower_src(
            "out vec4 c; void main() { float a = 0.0; for (int i = 0; i < 9; i++) { a += 0.1; } c = vec4(a); }",
        );
        assert_eq!(s.loop_count(), 1);
    }

    #[test]
    fn const_arrays_become_shader_constants() {
        let s = lower_src(
            "out vec4 c; void main() {\n\
               const vec2[] offsets = vec2[](vec2(-0.01), vec2(0.0), vec2(0.01));\n\
               c = vec4(offsets[1], offsets[2]);\n\
             }",
        );
        assert_eq!(s.const_arrays.len(), 1);
        assert_eq!(s.const_arrays[0].len(), 3);
        assert_eq!(s.const_arrays[0].elements[0], vec![-0.01, -0.01]);
    }

    #[test]
    fn swizzle_assignment_produces_inserts() {
        let s = lower_src("out vec4 c; uniform vec3 v; void main() { c.xyz = v; c.w = 1.0; }");
        let mut inserts = 0;
        prism_ir::stmt::walk_body(&s.body, &mut |st| {
            if let Stmt::Def {
                op: Op::Insert { .. },
                ..
            } = st
            {
                inserts += 1;
            }
        });
        assert_eq!(
            inserts, 4,
            "3 components + alpha should be individual inserts"
        );
    }

    #[test]
    fn user_functions_are_inlined() {
        let s = lower_src(
            "float sq(float x) { return x * x; } uniform float t; out vec4 c;\n\
             void main() { c = vec4(sq(t) + sq(2.0)); }",
        );
        // No call instruction exists in the IR, so everything is inline.
        assert!(s.size() > 4);
    }

    #[test]
    fn conditionals_and_discard() {
        let s = lower_src(
            "uniform float a; out vec4 c; void main() { if (a > 0.5) { c = vec4(1.0); } else { discard; } }",
        );
        assert_eq!(s.branch_count(), 1);
    }

    #[test]
    fn motivating_example_lowers_and_runs() {
        let src = r#"
            out vec4 fragColor; in vec2 uv;
            uniform sampler2D tex;
            uniform vec4 ambient;
            void main() {
                const vec4[] weights = vec4[](
                    vec4(0.01), vec4(0.05), vec4(0.14), vec4(0.21), vec4(0.61),
                    vec4(0.21), vec4(0.14), vec4(0.05), vec4(0.01));
                const vec2[] offsets = vec2[](
                    vec2(-0.0083), vec2(-0.0062), vec2(-0.0042), vec2(-0.0021), vec2(0.0),
                    vec2(0.0021), vec2(0.0042), vec2(0.0062), vec2(0.0083));
                float weightTotal = 0.0;
                fragColor = vec4(0.0);
                for (int i = 0; i < 9; i++) {
                    weightTotal += weights[i][0];
                    fragColor += weights[i] * texture(tex, uv + offsets[i]) * 3.0 * ambient;
                }
                fragColor /= weightTotal;
            }
        "#;
        let s = lower_src(src);
        assert_eq!(s.loop_count(), 1);
        assert_eq!(s.const_arrays.len(), 2);
        let ctx = FragmentContext::with_defaults(&s, 0.3, 0.7);
        let result = prism_ir::interp::run_fragment(&s, &ctx).unwrap();
        assert!(!result.discarded);
        // The weighted blur of in-range samples scaled by 3*ambient(0.5) stays finite and positive.
        assert!(result.outputs[0].iter().all(|v| v.is_finite()));
        assert!(result.outputs[0][3] > 0.0);
    }

    #[test]
    fn rejects_unsupported_constructs() {
        let source = ShaderSource::parse(
            "out vec4 c; uniform float n; void main() { for (int i = 0; i < 9; i++) { if (n > float(i)) { break; } } c = vec4(n); }",
        )
        .unwrap();
        assert!(lower(&source, "bad").is_err());
    }

    #[test]
    fn ternary_lowers_to_select() {
        let s = lower_src(
            "uniform float t; out vec4 c; void main() { c = t > 0.5 ? vec4(1.0) : vec4(0.0); }",
        );
        let mut selects = 0;
        prism_ir::stmt::walk_body(&s.body, &mut |st| {
            if let Stmt::Def {
                op: Op::Select { .. },
                ..
            } = st
            {
                selects += 1;
            }
        });
        assert_eq!(selects, 1);
    }

    #[test]
    fn emitted_lowered_shader_reparses() {
        let s = lower_src(
            "uniform sampler2D tex; uniform vec4 tint; in vec2 uv; out vec4 c;\n\
             void main() { vec4 t = texture(tex, uv); if (t.a < 0.1) { discard; } c = t * tint; }",
        );
        let glsl = prism_emit::emit_glsl(&s);
        assert!(
            prism_glsl::ShaderSource::preprocess_and_parse(&glsl, &Default::default()).is_ok(),
            "{glsl}"
        );
    }
}
