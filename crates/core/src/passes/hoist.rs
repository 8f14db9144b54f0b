//! Conditional flattening (the Hoist flag).
//!
//! Converts small `if`/`else` statements whose bodies only compute values
//! into straight-line code followed by `select` instructions, exactly as
//! LunarGlass's "hoist" pass turns branch assignments into select
//! instructions (§III-A). Both sides are then executed unconditionally —
//! removing the branch but lengthening the block and increasing register
//! pressure, which is why the paper sees both wins and pathological losses
//! from this flag (§VI-D6).
//!
//! `if (c) discard;` is rewritten into a conditional discard instead.

use prism_ir::hash::{FxHashMap, FxHashSet};
use prism_ir::prelude::*;

/// The conditional-flattening pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hoist {
    /// Maximum number of statements per branch body that will be flattened.
    pub max_branch_size: usize,
}

impl Hoist {
    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(&self, shader: &mut Shader) -> bool {
        let mut changed = false;
        let mut body = std::mem::take(&mut shader.body);
        let mut defined: FxHashSet<Reg> = FxHashSet::default();
        self.hoist_body(shader, &mut body, &mut defined, &mut changed);
        shader.body = body;
        changed
    }

    fn hoist_body(
        &self,
        shader: &mut Shader,
        body: &mut Vec<Stmt>,
        defined: &mut FxHashSet<Reg>,
        changed: &mut bool,
    ) {
        let mut out: Vec<Stmt> = Vec::with_capacity(body.len());
        for mut stmt in body.drain(..) {
            match &mut stmt {
                Stmt::Def { dst, .. } => {
                    defined.insert(*dst);
                    out.push(stmt);
                }
                Stmt::Loop {
                    var,
                    body: loop_body,
                    ..
                } => {
                    defined.insert(*var);
                    let mut inner = defined.clone();
                    self.hoist_body(shader, loop_body, &mut inner, changed);
                    out.push(stmt);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    // `if (c) { discard; }` → conditional discard.
                    if else_body.is_empty()
                        && then_body.len() == 1
                        && matches!(then_body[0], Stmt::Discard { cond: None })
                    {
                        *changed = true;
                        out.push(Stmt::Discard {
                            cond: Some(cond.clone()),
                        });
                        continue;
                    }
                    // Recurse first so nested conditionals can flatten bottom-up.
                    let mut then_defined = defined.clone();
                    self.hoist_body(shader, then_body, &mut then_defined, changed);
                    let mut else_defined = defined.clone();
                    self.hoist_body(shader, else_body, &mut else_defined, changed);

                    if self.can_flatten(then_body) && self.can_flatten(else_body) {
                        *changed = true;
                        let flattened =
                            flatten(shader, cond.clone(), then_body, else_body, defined);
                        for s in &flattened {
                            if let Stmt::Def { dst, .. } = s {
                                defined.insert(*dst);
                            }
                        }
                        out.extend(flattened);
                        continue;
                    }
                    // Registers defined on both paths are defined afterwards.
                    for r in then_defined.intersection(&else_defined) {
                        defined.insert(*r);
                    }
                    out.push(stmt);
                }
                _ => out.push(stmt),
            }
        }
        *body = out;
    }

    /// A branch body can be flattened when it only defines values (no nested
    /// control flow, stores or discards) and is small enough.
    fn can_flatten(&self, body: &[Stmt]) -> bool {
        body.len() <= self.max_branch_size && body.iter().all(|s| matches!(s, Stmt::Def { .. }))
    }
}

/// Produces the straight-line replacement for a flattenable conditional.
fn flatten(
    shader: &mut Shader,
    cond: Operand,
    then_body: &[Stmt],
    else_body: &[Stmt],
    defined_before: &FxHashSet<Reg>,
) -> Vec<Stmt> {
    let mut out = Vec::new();
    let then_final = speculate(shader, then_body, &mut out);
    let else_final = speculate(shader, else_body, &mut out);

    // Every register written by either branch gets a select merging the two
    // incoming values; a side that did not write the register keeps its value
    // from before the conditional.
    let mut written: Vec<Reg> = then_final
        .keys()
        .chain(else_final.keys())
        .copied()
        .collect();
    written.sort();
    written.dedup();
    for reg in written {
        let from_then = then_final.get(&reg).copied();
        let from_else = else_final.get(&reg).copied();
        let prior_exists = defined_before.contains(&reg);
        let if_true = match from_then {
            Some(r) => Operand::Reg(r),
            None if prior_exists => Operand::Reg(reg),
            None => continue,
        };
        let if_false = match from_else {
            Some(r) => Operand::Reg(r),
            None if prior_exists => Operand::Reg(reg),
            None => continue,
        };
        out.push(Stmt::Def {
            dst: reg,
            op: Op::Select {
                cond: cond.clone(),
                if_true,
                if_false,
            },
        });
    }
    out
}

/// Emits a branch body unconditionally with every written register renamed to
/// a fresh one, and returns the final fresh register for each original
/// destination.
fn speculate(shader: &mut Shader, body: &[Stmt], out: &mut Vec<Stmt>) -> FxHashMap<Reg, Reg> {
    let mut rename: FxHashMap<Reg, Reg> = FxHashMap::default();
    for stmt in body {
        let Stmt::Def { dst, op } = stmt else {
            continue;
        };
        let mut op = op.clone();
        for operand in op.operands_mut() {
            if let Operand::Reg(r) = operand {
                if let Some(new) = rename.get(r) {
                    *operand = Operand::Reg(*new);
                }
            }
        }
        let fresh = shader.new_reg(shader.reg_ty(*dst));
        out.push(Stmt::Def { dst: fresh, op });
        rename.insert(*dst, fresh);
    }
    rename
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};
    use prism_ir::verify::verify;

    /// The optimizer's parameter (the Hoist stage of
    /// [`SCHEDULE`](crate::pipeline::SCHEDULE)).
    const HOIST: Hoist = Hoist {
        max_branch_size: 64,
    };

    /// `out = base; if (u < 0.5) { out = base * 2; } else { out = base + 1 }`
    fn branchy_shader() -> Shader {
        let mut s = Shader::new("hoist");
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
        let cond = s.new_reg(IrType::BOOL);
        let out = s.new_reg(IrType::fvec(4));
        let t0 = s.new_reg(IrType::fvec(4));
        let t1 = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Uniform(0),
                },
            },
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Lt, Operand::Uniform(0), Operand::float(0.5)),
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: vec![
                    Stmt::Def {
                        dst: t0,
                        op: Op::Binary(
                            BinaryOp::Mul,
                            Operand::Reg(out),
                            Operand::fvec(vec![2.0; 4]),
                        ),
                    },
                    Stmt::Def {
                        dst: out,
                        op: Op::Mov(Operand::Reg(t0)),
                    },
                ],
                else_body: vec![
                    Stmt::Def {
                        dst: t1,
                        op: Op::Binary(
                            BinaryOp::Add,
                            Operand::Reg(out),
                            Operand::fvec(vec![1.0; 4]),
                        ),
                    },
                    Stmt::Def {
                        dst: out,
                        op: Op::Mov(Operand::Reg(t1)),
                    },
                ],
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
    fn flattens_branches_into_selects() {
        let mut s = branchy_shader();
        let ctx_lo = {
            let mut c = FragmentContext::with_defaults(&s, 0.0, 0.0);
            c.uniforms[0] = vec![0.25];
            c
        };
        let ctx_hi = {
            let mut c = FragmentContext::with_defaults(&s, 0.0, 0.0);
            c.uniforms[0] = vec![0.75];
            c
        };
        let before_lo = run_fragment(&s, &ctx_lo).unwrap();
        let before_hi = run_fragment(&s, &ctx_hi).unwrap();
        assert!(HOIST.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(s.branch_count(), 0);
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
        assert!(selects >= 1);
        let after_lo = run_fragment(&s, &ctx_lo).unwrap();
        let after_hi = run_fragment(&s, &ctx_hi).unwrap();
        assert!(results_approx_equal(&before_lo, &after_lo, 1e-9));
        assert!(results_approx_equal(&before_hi, &after_hi, 1e-9));
    }

    #[test]
    fn one_sided_branch_keeps_prior_value() {
        let mut s = Shader::new("hoist1");
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
        let cond = s.new_reg(IrType::BOOL);
        let out = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.25),
                },
            },
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Gt, Operand::Uniform(0), Operand::float(0.5)),
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: vec![Stmt::Def {
                    dst: out,
                    op: Op::Splat {
                        ty: IrType::fvec(4),
                        value: Operand::float(1.0),
                    },
                }],
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        let mut ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        ctx.uniforms[0] = vec![0.4];
        let before = run_fragment(&s, &ctx).unwrap();
        assert!(HOIST.run(&mut s));
        verify(&s).unwrap();
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-9));
        assert_eq!(after.outputs[0], vec![0.25; 4]);
    }

    #[test]
    fn conditional_discard_is_rewritten_not_speculated() {
        let mut s = Shader::new("hoistd");
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
        let cond = s.new_reg(IrType::BOOL);
        s.body = vec![
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Lt, Operand::Uniform(0), Operand::float(0.1)),
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: vec![Stmt::Discard { cond: None }],
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::fvec(vec![1.0; 4]),
            },
        ];
        assert!(HOIST.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(s.branch_count(), 0);
        assert!(matches!(s.body[1], Stmt::Discard { cond: Some(_) }));
    }

    #[test]
    fn branches_with_nested_control_flow_are_left_alone() {
        let mut s = Shader::new("hoistn");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let cond = s.new_reg(IrType::BOOL);
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::F32);
        let out = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Mov(Operand::float(0.0)),
            },
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Lt, Operand::float(0.3), Operand::float(0.5)),
            },
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: vec![Stmt::Loop {
                    var: i,
                    start: 0,
                    end: 4,
                    step: 1,
                    body: vec![Stmt::Def {
                        dst: acc,
                        op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::float(1.0)),
                    }],
                }],
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        assert!(!HOIST.run(&mut s));
        assert_eq!(s.branch_count(), 1);
        assert_eq!(s.loop_count(), 1);
    }

    #[test]
    fn respects_branch_size_limit() {
        let mut s = branchy_shader();
        let pass = Hoist { max_branch_size: 1 };
        assert!(!pass.run(&mut s));
        assert_eq!(s.branch_count(), 1);
    }
}
