//! Global value numbering (the GVN flag).
//!
//! Extends the always-on local CSE across structured control flow: values
//! computed before a conditional or loop are available inside it, so
//! redundant recomputation in branch bodies collapses to copies. Like LLVM's
//! GVN it also merges redundant loads — here, repeated texture samples with
//! identical coordinates, which local CSE deliberately leaves alone.
//!
//! The paper finds GVN mainly applies to the few complex shaders and is
//! rarely in the optimal flag set (§VI-D2); it is enabled by default in
//! LunarGlass.

use super::cse::{cse_body, number_value, ValueTable};
use prism_ir::analysis::Analysis;
use prism_ir::prelude::*;

/// The global value numbering pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gvn;

impl Gvn {
    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(&self, shader: &mut Shader) -> bool {
        let analysis = Analysis::of(shader);
        let mut changed = false;
        let mut body = std::mem::take(&mut shader.body);
        // Scope-inheriting CSE over pure ops.
        cse_body(&mut body, &analysis, &mut changed, true);
        // Redundant texture-sample elimination (GVN-style load merging).
        merge_texture_loads(
            &mut body,
            &analysis,
            &mut ValueTable::default(),
            &mut changed,
        );
        shader.body = body;
        changed
    }
}

fn merge_texture_loads<'a>(
    body: &'a mut [Stmt],
    analysis: &Analysis,
    table: &mut ValueTable<'a>,
    changed: &mut bool,
) {
    for stmt in body.iter_mut() {
        match stmt {
            Stmt::Def { dst, op } => {
                if let Op::TextureSample { coords, lod, .. } = op {
                    let operands_stable = std::iter::once(&*coords)
                        .chain(lod.as_ref().map(|l| l as &Operand))
                        .all(|o| match o {
                            Operand::Reg(r) => analysis.is_ssa(*r),
                            _ => true,
                        });
                    if !operands_stable {
                        continue;
                    }
                    number_value(*dst, op, analysis, table, changed);
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                let mut t = table.clone();
                merge_texture_loads(then_body, analysis, &mut t, changed);
                let mut e = table.clone();
                merge_texture_loads(else_body, analysis, &mut e, changed);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => {
                let mut t = table.clone();
                merge_texture_loads(loop_body, analysis, &mut t, changed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::cse::Cse;
    use super::*;
    use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};
    use prism_ir::verify::verify;

    /// The same uniform expression computed before and inside a branch.
    fn cross_branch_shader() -> Shader {
        let mut s = Shader::new("gvn");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "u".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        let pre = s.new_reg(IrType::F32);
        let cond = s.new_reg(IrType::BOOL);
        let inner = s.new_reg(IrType::F32);
        let out = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: pre,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::float(3.0)),
            },
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Gt, Operand::Uniform(0), Operand::float(0.25)),
            },
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(pre),
                },
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: vec![
                    Stmt::Def {
                        dst: inner,
                        op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::float(3.0)),
                    },
                    Stmt::Def {
                        dst: out,
                        op: Op::Splat {
                            ty: IrType::fvec(4),
                            value: Operand::Reg(inner),
                        },
                    },
                ],
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        s
    }

    #[test]
    fn shares_values_across_branches() {
        let mut s = cross_branch_shader();
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let before = run_fragment(&s, &ctx).unwrap();
        // Local CSE alone does not catch it...
        assert!(!Cse.run(&mut s.clone()));
        // ...but GVN does.
        assert!(Gvn.run(&mut s));
        verify(&s).unwrap();
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-12));
        // The inner recomputation is now a copy.
        let mut copies_of_pre = 0;
        prism_ir::stmt::walk_body(&s.body, &mut |st| {
            if let Stmt::Def {
                op: Op::Mov(Operand::Reg(r)),
                ..
            } = st
            {
                if r.0 == 0 {
                    copies_of_pre += 1;
                }
            }
        });
        assert_eq!(copies_of_pre, 1);
    }

    #[test]
    fn merges_identical_texture_samples() {
        let mut s = Shader::new("gvn-tex");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        let a = s.new_reg(IrType::fvec(4));
        let b = s.new_reg(IrType::fvec(4));
        let sum = s.new_reg(IrType::fvec(4));
        let sample = |dst| Stmt::Def {
            dst,
            op: Op::TextureSample {
                sampler: 0,
                coords: Operand::Input(0),
                lod: None,
                dim: TextureDim::Dim2D,
            },
        };
        s.body = vec![
            sample(a),
            sample(b),
            Stmt::Def {
                dst: sum,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(a), Operand::Reg(b)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(sum),
            },
        ];
        let ctx = FragmentContext::with_defaults(&s, 0.3, 0.6);
        let before = run_fragment(&s, &ctx).unwrap();
        assert!(Gvn.run(&mut s));
        verify(&s).unwrap();
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-12));
        assert_eq!(s.texture_op_count(), 1);
    }

    #[test]
    fn no_change_when_nothing_is_redundant() {
        let mut s = Shader::new("gvn-none");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "u".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        let a = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Uniform(0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        assert!(!Gvn.run(&mut s));
    }
}
