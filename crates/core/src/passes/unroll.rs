//! Loop unrolling for constant loop indices (the Unroll flag).
//!
//! Every counted loop whose trip count is known at compile time and below a
//! size budget is fully unrolled: the body is replicated once per iteration
//! with the induction variable replaced by the iteration's constant value.
//! Unrolling is what lets constant folding evaluate constant-array indices
//! and accumulator sums in the paper's motivating example (§II), and is also
//! the source of the "large basic blocks" artefact (§III-C(c)).

use prism_ir::prelude::*;
use prism_ir::stmt::{body_size, rewrite_operands, trip_count};

/// The loop-unrolling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unroll {
    /// Maximum trip count that will be unrolled.
    pub max_trip_count: usize,
    /// Maximum `trip count × body size` budget.
    pub max_expanded_size: usize,
}

impl Unroll {
    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(&self, shader: &mut Shader) -> bool {
        let mut changed = false;
        let mut body = std::mem::take(&mut shader.body);
        self.unroll_body(&mut body, &mut changed);
        shader.body = body;
        changed
    }

    fn unroll_body(&self, body: &mut Vec<Stmt>, changed: &mut bool) {
        let mut out: Vec<Stmt> = Vec::with_capacity(body.len());
        for mut stmt in body.drain(..) {
            match &mut stmt {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.unroll_body(then_body, changed);
                    self.unroll_body(else_body, changed);
                    out.push(stmt);
                }
                Stmt::Loop {
                    var,
                    start,
                    end,
                    step,
                    body: loop_body,
                } => {
                    // Inner loops first so nested constant loops fully unroll.
                    self.unroll_body(loop_body, changed);
                    let trip_count =
                        usize::try_from(trip_count(*start, *end, *step)).unwrap_or(usize::MAX);
                    let expanded = trip_count.saturating_mul(body_size(loop_body));
                    if trip_count == 0 {
                        *changed = true;
                        continue;
                    }
                    if trip_count > self.max_trip_count || expanded > self.max_expanded_size {
                        out.push(stmt);
                        continue;
                    }
                    *changed = true;
                    let mut i = *start;
                    for _ in 0..trip_count {
                        let mut copy = loop_body.clone();
                        let induction = *var;
                        rewrite_operands(&mut copy, &mut |o| {
                            if *o == Operand::Reg(induction) {
                                *o = Operand::int(i);
                            }
                        });
                        out.extend(copy);
                        // The value after the last iteration is never read
                        // and may lie past the end of `i64`.
                        i = i.wrapping_add(*step);
                    }
                }
                _ => out.push(stmt),
            }
        }
        *body = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};
    use prism_ir::verify::verify;

    /// The optimizer's parameters (the Unroll stage of
    /// [`SCHEDULE`](crate::pipeline::SCHEDULE)).
    const UNROLL: Unroll = Unroll {
        max_trip_count: 64,
        max_expanded_size: 2048,
    };

    fn accumulating_loop(trips: i64) -> Shader {
        let mut s = Shader::new("unroll");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::F32);
        let fi = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Mov(Operand::float(0.0)),
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: trips,
                step: 1,
                body: vec![
                    Stmt::Def {
                        dst: fi,
                        op: Op::Convert {
                            to: IrType::F32,
                            value: Operand::Reg(i),
                        },
                    },
                    Stmt::Def {
                        dst: acc,
                        op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Reg(fi)),
                    },
                ],
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(acc),
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
    fn fully_unrolls_and_preserves_semantics() {
        let mut s = accumulating_loop(9);
        let ctx = FragmentContext::with_defaults(&s, 0.1, 0.2);
        let before = run_fragment(&s, &ctx).unwrap();
        assert!(UNROLL.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(s.loop_count(), 0);
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-9));
        assert_eq!(after.outputs[0][0], 36.0);
    }

    #[test]
    fn zero_trip_loops_disappear() {
        let mut s = accumulating_loop(0);
        assert!(UNROLL.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(s.loop_count(), 0);
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        assert_eq!(run_fragment(&s, &ctx).unwrap().outputs[0][0], 0.0);
    }

    #[test]
    fn respects_trip_count_budget() {
        let mut s = accumulating_loop(500);
        assert!(!UNROLL.run(&mut s));
        assert_eq!(s.loop_count(), 1);
    }

    #[test]
    fn unrolls_nested_loops() {
        let mut s = Shader::new("nested");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let j = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Mov(Operand::float(0.0)),
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 3,
                step: 1,
                body: vec![Stmt::Loop {
                    var: j,
                    start: 0,
                    end: 2,
                    step: 1,
                    body: vec![Stmt::Def {
                        dst: acc,
                        op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::float(1.0)),
                    }],
                }],
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(acc),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        assert!(UNROLL.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(s.loop_count(), 0);
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        assert_eq!(run_fragment(&s, &ctx).unwrap().outputs[0][0], 6.0);
    }

    #[test]
    fn negative_step_loops_unroll() {
        let mut s = Shader::new("down");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::F32);
        let fi = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Mov(Operand::float(0.0)),
            },
            Stmt::Loop {
                var: i,
                start: 4,
                end: 0,
                step: -1,
                body: vec![
                    Stmt::Def {
                        dst: fi,
                        op: Op::Convert {
                            to: IrType::F32,
                            value: Operand::Reg(i),
                        },
                    },
                    Stmt::Def {
                        dst: acc,
                        op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Reg(fi)),
                    },
                ],
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(acc),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        assert!(UNROLL.run(&mut s));
        verify(&s).unwrap();
        // 4 + 3 + 2 + 1 = 10
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        assert_eq!(run_fragment(&s, &ctx).unwrap().outputs[0][0], 10.0);
    }
}
