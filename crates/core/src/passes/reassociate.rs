//! Integer reassociation (the Reassociate flag).
//!
//! LunarGlass's stock reassociation pass reorders *integer* arithmetic to
//! simplify it, and also catches a small number of floating-point identities
//! such as `f × 0` (§III-A). Because integers barely occur in fragment
//! shaders, the paper finds this pass rarely applicable, and most of its
//! observable effect comes from removing additions of zero in floating-point
//! code (§VI-D3). The implementation mirrors that behaviour:
//!
//! * integer `x + 0`, `x * 1`, `x * 0`, `x - 0` simplification,
//! * integer constant grouping `(x + c1) + c2 → x + (c1 + c2)`,
//! * floating-point `x + 0.0`, `x - 0.0` removal and `x * 0.0 → 0.0`
//!   (the latter is unsafe for NaN/Inf, exactly as in LunarGlass).

use super::DefMap;
use prism_ir::prelude::*;

/// The integer-reassociation pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reassociate;

impl Reassociate {
    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(&self, shader: &mut Shader) -> bool {
        let defs = DefMap::of(shader);
        let reg_tys: Vec<IrType> = shader.regs.iter().map(|r| r.ty).collect();
        let mut changed = false;
        let mut body = std::mem::take(&mut shader.body);
        rewrite_body(&mut body, &defs, &reg_tys, &mut changed);
        shader.body = body;
        changed
    }
}

fn rewrite_body(body: &mut [Stmt], defs: &DefMap, reg_tys: &[IrType], changed: &mut bool) {
    for stmt in body.iter_mut() {
        match stmt {
            Stmt::Def { dst, op } => {
                if let Some(new_op) = simplify(op, defs, reg_tys[dst.0 as usize]) {
                    *op = new_op;
                    *changed = true;
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                rewrite_body(then_body, defs, reg_tys, changed);
                rewrite_body(else_body, defs, reg_tys, changed);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => rewrite_body(loop_body, defs, reg_tys, changed),
            _ => {}
        }
    }
}

fn simplify(op: &Op, defs: &DefMap, dst_ty: IrType) -> Option<Op> {
    let Op::Binary(bop, a, b) = op else {
        return None;
    };
    let ca = defs.const_of(a);
    let cb = defs.const_of(b);

    match bop {
        BinaryOp::Add => {
            // x + 0 → x (integer or float, safe for the values shaders use).
            if cb.as_ref().is_some_and(|c| c.is_all(0.0)) {
                return Some(Op::Mov(a.clone()));
            }
            if ca.as_ref().is_some_and(|c| c.is_all(0.0)) {
                return Some(Op::Mov(b.clone()));
            }
            // Integer constant regrouping: (x + c1) + c2 → x + (c1+c2).
            if dst_ty.is_int() {
                if let (Operand::Reg(r), Some(c2)) = (a, &cb) {
                    if let Some(Op::Binary(BinaryOp::Add, x, y)) = defs.def(*r) {
                        if let Some(c1) = defs.const_of(y) {
                            let folded = c1.as_i64()? + c2.as_i64()?;
                            return Some(Op::Binary(
                                BinaryOp::Add,
                                x.clone(),
                                Operand::int(folded),
                            ));
                        }
                    }
                }
            }
            None
        }
        BinaryOp::Sub => {
            // x - 0 → x.
            if cb.as_ref().is_some_and(|c| c.is_all(0.0)) {
                return Some(Op::Mov(a.clone()));
            }
            None
        }
        BinaryOp::Mul => {
            // x * 1 → x / 1 * x → x (integer only here; the FP pass handles floats).
            if dst_ty.is_int() {
                if cb.as_ref().is_some_and(|c| c.is_all(1.0)) {
                    return Some(Op::Mov(a.clone()));
                }
                if ca.as_ref().is_some_and(|c| c.is_all(1.0)) {
                    return Some(Op::Mov(b.clone()));
                }
            }
            // x * 0 → 0, including the float form LunarGlass's pass performs.
            if cb.as_ref().is_some_and(|c| c.is_all(0.0))
                || ca.as_ref().is_some_and(|c| c.is_all(0.0))
            {
                return Some(Op::Mov(zero_like(dst_ty)));
            }
            None
        }
        _ => None,
    }
}

fn zero_like(ty: IrType) -> Operand {
    if ty.is_int() && ty.is_scalar() {
        Operand::int(0)
    } else if ty.is_scalar() {
        Operand::float(0.0)
    } else {
        Operand::Const(Constant::FloatVec(vec![0.0; ty.width as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::verify::verify;

    fn out_shader() -> Shader {
        let mut s = Shader::new("reassoc");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "u".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        s
    }

    #[test]
    fn removes_float_add_zero() {
        let mut s = out_shader();
        let a = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(
                    BinaryOp::Add,
                    Operand::Uniform(0),
                    Operand::Const(Constant::FloatVec(vec![0.0; 4])),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        assert!(Reassociate.run(&mut s));
        verify(&s).unwrap();
        assert!(matches!(
            &s.body[0],
            Stmt::Def {
                op: Op::Mov(Operand::Uniform(0)),
                ..
            }
        ));
    }

    #[test]
    fn folds_float_multiply_by_zero() {
        let mut s = out_shader();
        let a = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(
                    BinaryOp::Mul,
                    Operand::Uniform(0),
                    Operand::Const(Constant::FloatVec(vec![0.0; 4])),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        assert!(Reassociate.run(&mut s));
        match &s.body[0] {
            Stmt::Def {
                op: Op::Mov(Operand::Const(Constant::FloatVec(v))),
                ..
            } => {
                assert_eq!(v, &vec![0.0; 4]);
            }
            other => panic!("expected zero constant, got {other:?}"),
        }
    }

    #[test]
    fn regroups_integer_constant_chain() {
        let mut s = out_shader();
        let i0 = s.new_reg(IrType::I32);
        let i1 = s.new_reg(IrType::I32);
        let i2 = s.new_reg(IrType::I32);
        let f = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: i0,
                op: Op::Convert {
                    to: IrType::I32,
                    value: Operand::Input(0),
                },
            },
            Stmt::Def {
                dst: i1,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(i0), Operand::int(3)),
            },
            Stmt::Def {
                dst: i2,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(i1), Operand::int(4)),
            },
            Stmt::Def {
                dst: f,
                op: Op::Convert {
                    to: IrType::F32,
                    value: Operand::Reg(i2),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(f),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        s.inputs.push(InputVar {
            name: "x".into(),
            ty: IrType::F32,
        });
        assert!(Reassociate.run(&mut s));
        verify(&s).unwrap();
        match &s.body[2] {
            Stmt::Def {
                op: Op::Binary(BinaryOp::Add, x, y),
                ..
            } => {
                assert_eq!(x, &Operand::Reg(i0));
                assert_eq!(y, &Operand::int(7));
            }
            other => panic!("expected regrouped add, got {other:?}"),
        }
    }

    #[test]
    fn leaves_plain_float_multiplies_to_the_fp_pass() {
        let mut s = out_shader();
        let a = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(
                    BinaryOp::Mul,
                    Operand::Uniform(0),
                    Operand::Const(Constant::FloatVec(vec![1.0; 4])),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        // Float x*1 is the FP-reassociation pass's job, not this one's.
        assert!(!Reassociate.run(&mut s));
    }
}
