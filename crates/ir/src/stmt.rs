//! Statements and structured control flow of the prism IR.
//!
//! The IR keeps *structured* control flow (if / counted loop) rather than a
//! flat CFG: LunarGlass's GLSL back-end reconstructs structured control flow
//! anyway, the GFXBench-style shaders only contain structured control flow,
//! and the paper's transformations (loop unrolling, conditional flattening)
//! are naturally expressed as structured rewrites.

use crate::op::{Op, OperandList, Operands, OperandsMut};
use crate::value::{Operand, Reg};

/// One statement of a shader body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Define (or redefine) a virtual register: `dst = op(...)`.
    Def {
        /// Destination register.
        dst: Reg,
        /// Operation computing the value.
        op: Op,
    },
    /// Write a value to a shader output.
    StoreOutput {
        /// Index into [`crate::shader::Shader::outputs`].
        output: usize,
        /// Optional component selection being written (e.g. `.xyz`); `None`
        /// writes the whole output.
        components: Option<Vec<u8>>,
        /// The value written.
        value: Operand,
    },
    /// Structured conditional.
    If {
        /// Boolean condition.
        cond: Operand,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise.
        else_body: Vec<Stmt>,
    },
    /// Counted loop with compile-time-known bounds (`for (int i = start;
    /// i < end; i += step)`); `var` holds the induction value each iteration.
    Loop {
        /// Induction variable register (type `int`).
        var: Reg,
        /// Inclusive start value.
        start: i64,
        /// Exclusive end bound.
        end: i64,
        /// Per-iteration increment (non-zero).
        step: i64,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Conditionally or unconditionally discard the fragment.
    Discard {
        /// Condition; `None` means unconditional.
        cond: Option<Operand>,
    },
}

impl Stmt {
    /// Number of statements in this statement including nested bodies.
    pub fn size(&self) -> usize {
        match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => 1 + body_size(then_body) + body_size(else_body),
            Stmt::Loop { body, .. } => 1 + body_size(body),
            _ => 1,
        }
    }

    /// Visits every statement (including nested ones), pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Stmt)) {
        visit(self);
        match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body {
                    s.walk(visit);
                }
                for s in else_body {
                    s.walk(visit);
                }
            }
            Stmt::Loop { body, .. } => {
                for s in body {
                    s.walk(visit);
                }
            }
            _ => {}
        }
    }

    /// All operands read by this statement itself (not nested statements).
    pub fn operands(&self) -> Operands<'_> {
        match self {
            Stmt::Def { op, .. } => op.operands(),
            Stmt::StoreOutput { value: a, .. } | Stmt::If { cond: a, .. } => {
                OperandList::Fixed([Some(a), None, None])
            }
            Stmt::Loop { .. } => OperandList::Fixed([None, None, None]),
            Stmt::Discard { cond } => OperandList::Fixed([cond.as_ref(), None, None]),
        }
    }

    /// Mutable references to the operands read by this statement itself.
    pub fn operands_mut(&mut self) -> OperandsMut<'_> {
        match self {
            Stmt::Def { op, .. } => op.operands_mut(),
            Stmt::StoreOutput { value: a, .. } | Stmt::If { cond: a, .. } => {
                OperandList::Fixed([Some(a), None, None])
            }
            Stmt::Loop { .. } => OperandList::Fixed([None, None, None]),
            Stmt::Discard { cond } => OperandList::Fixed([cond.as_mut(), None, None]),
        }
    }
}

/// Total number of statements in a body, including nested ones.
pub fn body_size(body: &[Stmt]) -> usize {
    body.iter().map(Stmt::size).sum()
}

/// Number of iterations of a counted loop ([`Stmt::Loop`]):
/// ⌈|end − start| / |step|⌉, or 0 when the step is zero or points away
/// from `end`. Exact over the whole `i64` range of bounds and steps.
pub fn trip_count(start: i64, end: i64, step: i64) -> u64 {
    if (step > 0 && start < end) || (step < 0 && start > end) {
        end.abs_diff(start).div_ceil(step.unsigned_abs())
    } else {
        0
    }
}

/// Visits every statement in a body, pre-order.
pub fn walk_body<'a>(body: &'a [Stmt], visit: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        s.walk(visit);
    }
}

/// Applies `rewrite` to every operand in a body, including nested statements
/// and loop/if bodies.
pub fn rewrite_operands(body: &mut [Stmt], rewrite: &mut impl FnMut(&mut Operand)) {
    for stmt in body {
        for op in stmt.operands_mut() {
            rewrite(op);
        }
        match stmt {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                rewrite_operands(then_body, rewrite);
                rewrite_operands(else_body, rewrite);
            }
            Stmt::Loop { body, .. } => rewrite_operands(body, rewrite),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryOp, Op};
    use crate::value::{Operand, Reg};

    fn def(dst: u32, op: Op) -> Stmt {
        Stmt::Def { dst: Reg(dst), op }
    }

    #[test]
    fn size_counts_nested_statements() {
        let s = Stmt::If {
            cond: Operand::boolean(true),
            then_body: vec![def(0, Op::Mov(Operand::float(1.0)))],
            else_body: vec![
                def(1, Op::Mov(Operand::float(2.0))),
                def(2, Op::Mov(Operand::float(3.0))),
            ],
        };
        assert_eq!(s.size(), 4);
        assert_eq!(
            body_size(&[s.clone(), def(3, Op::Mov(Operand::float(0.0)))]),
            5
        );
    }

    #[test]
    fn walk_visits_nested() {
        let s = Stmt::Loop {
            var: Reg(0),
            start: 0,
            end: 4,
            step: 1,
            body: vec![def(1, Op::Mov(Operand::Reg(Reg(0))))],
        };
        let mut n = 0;
        s.walk(&mut |_| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn rewrite_operands_reaches_nested_bodies() {
        let mut body = vec![Stmt::If {
            cond: Operand::Reg(Reg(9)),
            then_body: vec![def(
                1,
                Op::Binary(BinaryOp::Add, Operand::Reg(Reg(2)), Operand::Reg(Reg(3))),
            )],
            else_body: vec![],
        }];
        let mut seen = 0;
        rewrite_operands(&mut body, &mut |o| {
            seen += 1;
            *o = Operand::float(0.0);
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn trip_count_helper() {
        assert_eq!(trip_count(0, 9, 1), 9);
        assert_eq!(trip_count(0, 9, 2), 5);
        assert_eq!(trip_count(9, 0, -1), 9);
        assert_eq!(trip_count(0, 0, 1), 0);
        assert_eq!(trip_count(5, 3, 1), 0);
        assert_eq!(trip_count(0, 4, 0), 0);
    }

    #[test]
    fn trip_count_is_exact_at_the_extremes_of_i64() {
        assert_eq!(trip_count(-i64::MAX, i64::MAX, 1), u64::MAX - 1);
        assert_eq!(trip_count(i64::MIN, i64::MAX, 1), u64::MAX);
        assert_eq!(trip_count(i64::MAX, i64::MIN, -1), u64::MAX);
        assert_eq!(trip_count(i64::MIN, i64::MAX, i64::MAX), 3);
        assert_eq!(trip_count(i64::MAX, i64::MIN, i64::MIN), 2);
        assert_eq!(trip_count(0, i64::MIN, i64::MIN), 1);
        // A step pointing away from the bound runs zero times, however wide
        // the range.
        assert_eq!(trip_count(i64::MIN, i64::MAX, i64::MIN), 0);
        assert_eq!(trip_count(i64::MAX, i64::MIN, 1), 0);
        assert_eq!(trip_count(i64::MIN, i64::MAX, 0), 0);
    }
}
