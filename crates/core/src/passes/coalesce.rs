//! Vector-insertion coalescing (the Coalesce flag).
//!
//! Source patterns like
//!
//! ```glsl
//! color.x = a; color.y = b; color.z = c; color.w = 1.0;
//! ```
//!
//! lower to a chain of per-component `Insert` operations on the same
//! register. This pass collapses such chains into a single swizzled vector
//! construction (`color = vec4(a, b, c, 1.0)`), matching LunarGlass's
//! "Coalesce inserts/extracts into multiInserts/swizzles" behaviour (§III-A).
//! Because almost every shader writes vectors component by component
//! somewhere, this flag applies to nearly the whole corpus (Fig. 8a).

use prism_ir::analysis::Analysis;
use prism_ir::prelude::*;

/// The insertion-coalescing pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coalesce;

impl Coalesce {
    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(&self, shader: &mut Shader) -> bool {
        let mut changed = false;
        let reg_tys: Vec<IrType> = shader.regs.iter().map(|r| r.ty).collect();
        let analysis = Analysis::of(shader);
        let mut body = std::mem::take(&mut shader.body);
        coalesce_body(&mut body, &reg_tys, &analysis, &mut changed);
        shader.body = body;
        changed
    }
}

fn coalesce_body(
    body: &mut Vec<Stmt>,
    reg_tys: &[IrType],
    analysis: &Analysis,
    changed: &mut bool,
) {
    // Recurse into nested bodies first.
    for stmt in body.iter_mut() {
        match stmt {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                coalesce_body(then_body, reg_tys, analysis, changed);
                coalesce_body(else_body, reg_tys, analysis, changed);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => coalesce_body(loop_body, reg_tys, analysis, changed),
            _ => {}
        }
    }

    let mut out: Vec<Stmt> = Vec::with_capacity(body.len());
    let mut idx = 0;
    while idx < body.len() {
        if let Some(run) = insert_run(&body[idx..], reg_tys, analysis) {
            let width = reg_tys[run.final_dst.0 as usize].width as usize;
            let covered = run.lanes.iter().filter(|l| l.is_some()).count();
            if covered == width && run.len >= 2 {
                let parts: Vec<Operand> =
                    run.lanes.into_iter().map(|l| l.expect("covered")).collect();
                out.push(Stmt::Def {
                    dst: run.final_dst,
                    op: Op::Construct {
                        ty: reg_tys[run.final_dst.0 as usize],
                        parts,
                    },
                });
                idx += run.len;
                *changed = true;
                continue;
            }
        }
        // Runs only look ahead of `idx`, so the statement can move out; the
        // placeholder left behind is never read.
        out.push(std::mem::replace(
            &mut body[idx],
            Stmt::Discard { cond: None },
        ));
        idx += 1;
    }
    *body = out;
}

/// A detected chain of consecutive insertions.
struct InsertRun {
    /// Register holding the fully built vector after the run.
    final_dst: Reg,
    /// Number of consecutive statements the run spans.
    len: usize,
    /// The last value written to each lane.
    lanes: Vec<Option<Operand>>,
}

/// Detects a maximal run of consecutive insert definitions at the start of
/// `stmts` where each insertion builds on the previous one — either by
/// repeatedly redefining the same register (`r = insert(r, lane, v)`), or as
/// an SSA chain (`r1 = insert(r0, ..); r2 = insert(r1, ..)`) whose
/// intermediate values have no other uses.
fn insert_run(stmts: &[Stmt], reg_tys: &[IrType], analysis: &Analysis) -> Option<InsertRun> {
    let Some(Stmt::Def {
        dst,
        op: Op::Insert {
            vector,
            index,
            value,
        },
    }) = stmts.first()
    else {
        return None;
    };
    let width = reg_tys.get(dst.0 as usize)?.width as usize;
    let mut lanes: Vec<Option<Operand>> = vec![None; width];
    // Lanes not written by the run may come from a constant base vector.
    if let Operand::Const(c) = vector {
        if let Some(base) = c.lanes(width as u8) {
            for (slot, v) in lanes.iter_mut().zip(base) {
                *slot = Some(Operand::float(v));
            }
        }
    }
    if (*index as usize) < width {
        lanes[*index as usize] = Some(value.clone());
    }
    let mut current = *dst;
    let mut len = 1;
    for stmt in &stmts[1..] {
        let Stmt::Def {
            dst,
            op:
                Op::Insert {
                    vector,
                    index,
                    value,
                },
        } = stmt
        else {
            break;
        };
        // The next insert must extend the value built so far.
        if vector != &Operand::Reg(current) {
            break;
        }
        // SSA-chain intermediates must have no other users, otherwise their
        // definitions cannot be folded away.
        if *dst != current && analysis.use_count(current) > 1 {
            break;
        }
        // The inserted value must not read the vector being built.
        if value == &Operand::Reg(current) {
            break;
        }
        if (*index as usize) < width {
            lanes[*index as usize] = Some(value.clone());
        }
        current = *dst;
        len += 1;
    }
    Some(InsertRun {
        final_dst: current,
        len,
        lanes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};
    use prism_ir::verify::verify;

    fn insert_chain_shader() -> Shader {
        let mut s = Shader::new("coalesce");
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
        let v = s.new_reg(IrType::fvec(4));
        let a = s.new_reg(IrType::F32);
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::float(2.0)),
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 0,
                    value: Operand::Reg(a),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 1,
                    value: Operand::Uniform(0),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 2,
                    value: Operand::float(0.5),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 3,
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        s
    }

    #[test]
    fn collapses_full_insert_chain_into_construct() {
        let mut s = insert_chain_shader();
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let before = run_fragment(&s, &ctx).unwrap();
        assert!(Coalesce.run(&mut s));
        verify(&s).unwrap();
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-12));
        let mut inserts = 0;
        let mut constructs = 0;
        prism_ir::stmt::walk_body(&s.body, &mut |st| match st {
            Stmt::Def {
                op: Op::Insert { .. },
                ..
            } => inserts += 1,
            Stmt::Def {
                op: Op::Construct { .. },
                ..
            } => constructs += 1,
            _ => {}
        });
        assert_eq!(inserts, 0);
        assert_eq!(constructs, 1);
    }

    #[test]
    fn partial_chains_are_left_alone() {
        let mut s = Shader::new("coalesce-partial");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 0,
                    value: Operand::float(1.0),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 1,
                    value: Operand::float(2.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        // Only two of four lanes are written, so nothing changes.
        assert!(!Coalesce.run(&mut s));
    }

    #[test]
    fn repeated_lane_writes_take_the_last_value() {
        let mut s = Shader::new("coalesce-repeat");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(2),
        });
        let v = s.new_reg(IrType::fvec(2));
        s.body = vec![
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(2),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 0,
                    value: Operand::float(1.0),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 1,
                    value: Operand::float(2.0),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(v),
                    index: 0,
                    value: Operand::float(9.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let before = run_fragment(&s, &ctx).unwrap();
        assert!(Coalesce.run(&mut s));
        verify(&s).unwrap();
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-12));
        assert_eq!(after.outputs[0], vec![9.0, 2.0]);
    }

    /// `v.x = x; v.y = y` as a two-insert chain on a `vec2` register.
    fn chain(v: Reg, x: f64, y: f64) -> [Stmt; 2] {
        [(0, x), (1, y)].map(|(index, value)| Stmt::Def {
            dst: v,
            op: Op::Insert {
                vector: Operand::Reg(v),
                index,
                value: Operand::float(value),
            },
        })
    }

    /// `sum = sum + v`.
    fn accumulate(sum: Reg, v: Reg) -> Stmt {
        Stmt::Def {
            dst: sum,
            op: Op::Binary(BinaryOp::Add, Operand::Reg(sum), Operand::Reg(v)),
        }
    }

    /// The shape of a body: `C` for a construct, `I` for an insert, `+` for
    /// any other definition, and nested bodies in brackets.
    fn shape(body: &[Stmt]) -> String {
        body.iter()
            .map(|stmt| match stmt {
                Stmt::Def {
                    op: Op::Construct { .. },
                    ..
                } => "C".to_string(),
                Stmt::Def {
                    op: Op::Insert { .. },
                    ..
                } => "I".to_string(),
                Stmt::Def { .. } => "+".to_string(),
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => format!("if[{}|{}]", shape(then_body), shape(else_body)),
                Stmt::Loop { body, .. } => format!("loop[{}]", shape(body)),
                Stmt::StoreOutput { .. } => "S".to_string(),
                Stmt::Discard { .. } => "D".to_string(),
            })
            .collect()
    }

    #[test]
    fn works_inside_conditionals() {
        // if { chain; loop { chain; if { chain; sum += v } sum += v } sum += v }
        // sum += v — a chain at each of three depths, and a statement after
        // each nested block that must keep its place.
        let mut s = Shader::new("coalesce-nested");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(2),
        });
        let v = s.new_reg(IrType::fvec(2));
        let sum = s.new_reg(IrType::fvec(2));
        let i = s.new_reg(IrType::I32);
        let zero = |dst| Stmt::Def {
            dst,
            op: Op::Splat {
                ty: IrType::fvec(2),
                value: Operand::float(0.0),
            },
        };
        let inner_if = Stmt::If {
            cond: Operand::boolean(true),
            then_body: [chain(v, 5.0, 6.0).to_vec(), vec![accumulate(sum, v)]].concat(),
            else_body: vec![],
        };
        let the_loop = Stmt::Loop {
            var: i,
            start: 0,
            end: 2,
            step: 1,
            body: [
                chain(v, 3.0, 4.0).to_vec(),
                vec![inner_if, accumulate(sum, v)],
            ]
            .concat(),
        };
        s.body = vec![
            zero(v),
            zero(sum),
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: [
                    chain(v, 1.0, 2.0).to_vec(),
                    vec![the_loop, accumulate(sum, v)],
                ]
                .concat(),
                else_body: vec![],
            },
            accumulate(sum, v),
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(sum),
            },
        ];
        verify(&s).unwrap();
        assert_eq!(shape(&s.body), "++if[IIloop[IIif[II+|]+]+|]+S");
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let before = run_fragment(&s, &ctx).unwrap();
        assert!(Coalesce.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(shape(&s.body), "++if[Cloop[Cif[C+|]+]+|]+S");
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-12));
        assert_eq!(after.outputs[0], vec![30.0, 36.0]);
    }
}
