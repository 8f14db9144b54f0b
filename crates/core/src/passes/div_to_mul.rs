//! Constant division → multiplication (the Div-to-Mul flag).
//!
//! The paper's second custom unsafe pass (§III-B): division by a constant
//! (or by a value that is known at compile time, such as the fully folded
//! `weightTotal` of the motivating example) is replaced by multiplication
//! with the constant's reciprocal, computed at compile time. Division units
//! are slower than multipliers on every GPU in the study, but many drivers
//! already perform this rewrite — which is why the paper finds the flag's
//! measured effect close to zero on several platforms (§VI-D7).

use super::DefMap;
use prism_ir::prelude::*;

/// The constant-division-to-multiplication pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct DivToMul;

impl DivToMul {
    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(&self, shader: &mut Shader) -> bool {
        let defs = DefMap::of(shader);
        let mut changed = false;
        let mut body = std::mem::take(&mut shader.body);
        rewrite(&mut body, &defs, &mut changed);
        shader.body = body;
        changed
    }
}

fn rewrite(body: &mut [Stmt], defs: &DefMap, changed: &mut bool) {
    for stmt in body.iter_mut() {
        match stmt {
            Stmt::Def { op, .. } => {
                let Op::Binary(BinaryOp::Div, a, b) = op else {
                    continue;
                };
                let Some(divisor) = defs.const_of(b) else {
                    continue;
                };
                let Some(inverse) = reciprocal(&divisor) else {
                    continue;
                };
                *op = Op::Binary(BinaryOp::Mul, a.clone(), Operand::Const(inverse));
                *changed = true;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                rewrite(then_body, defs, changed);
                rewrite(else_body, defs, changed);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => rewrite(loop_body, defs, changed),
            _ => {}
        }
    }
}

/// Per-lane reciprocal of a float constant; `None` if any lane is zero or the
/// constant is not floating point (integer division keeps its semantics).
fn reciprocal(c: &Constant) -> Option<Constant> {
    match c {
        Constant::Float(v) => {
            if *v == 0.0 {
                None
            } else {
                Some(Constant::Float(1.0 / v))
            }
        }
        Constant::FloatVec(v) => {
            if v.contains(&0.0) {
                None
            } else {
                Some(Constant::FloatVec(v.iter().map(|x| 1.0 / x).collect()))
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};
    use prism_ir::verify::verify;

    #[test]
    fn rewrites_division_by_scalar_constant() {
        let mut s = Shader::new("div");
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
        let a = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(
                    BinaryOp::Div,
                    Operand::Uniform(0),
                    Operand::Const(Constant::FloatVec(vec![4.0; 4])),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        let before = s.clone();
        assert!(DivToMul.run(&mut s));
        verify(&s).unwrap();
        match &s.body[0] {
            Stmt::Def {
                op: Op::Binary(BinaryOp::Mul, _, Operand::Const(c)),
                ..
            } => {
                assert!(c.is_all(0.25));
            }
            other => panic!("expected multiplication by reciprocal, got {other:?}"),
        }
        let ctx = FragmentContext::with_defaults(&before, 0.0, 0.0);
        let rb = run_fragment(&before, &ctx).unwrap();
        let ra = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&rb, &ra, 1e-9));
    }

    #[test]
    fn sees_through_splatted_constants() {
        let mut s = Shader::new("div-splat");
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
        let denom = s.new_reg(IrType::fvec(4));
        let a = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: denom,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(8.0),
                },
            },
            Stmt::Def {
                dst: a,
                op: Op::Binary(BinaryOp::Div, Operand::Uniform(0), Operand::Reg(denom)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        assert!(DivToMul.run(&mut s));
        match &s.body[1] {
            Stmt::Def {
                op: Op::Binary(BinaryOp::Mul, _, Operand::Const(c)),
                ..
            } => {
                assert!(c.is_all(0.125));
            }
            other => panic!("expected reciprocal multiply, got {other:?}"),
        }
    }

    #[test]
    fn division_by_non_constant_or_zero_is_left_alone() {
        let mut s = Shader::new("div-skip");
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
        s.uniforms.push(UniformVar {
            name: "d".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        let a = s.new_reg(IrType::fvec(4));
        let b = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(BinaryOp::Div, Operand::Uniform(0), Operand::Uniform(1)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Binary(
                    BinaryOp::Div,
                    Operand::Reg(a),
                    Operand::Const(Constant::FloatVec(vec![2.0, 0.0, 2.0, 2.0])),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(b),
            },
        ];
        assert!(!DivToMul.run(&mut s));
    }

    #[test]
    fn integer_division_is_not_rewritten() {
        let mut s = Shader::new("div-int");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let f = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: i,
                op: Op::Binary(BinaryOp::Div, Operand::int(7), Operand::int(2)),
            },
            Stmt::Def {
                dst: f,
                op: Op::Convert {
                    to: IrType::F32,
                    value: Operand::Reg(i),
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
        assert!(!DivToMul.run(&mut s));
    }
}
