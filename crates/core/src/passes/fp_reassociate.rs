//! Unsafe floating-point reassociation (the FP Reassociate flag).
//!
//! This is the paper's main custom pass (§III-B). It performs algebraic
//! rewrites that a conformant driver compiler may not apply because they can
//! change floating point rounding, but that an offline tool under developer
//! control can:
//!
//! * identity removal: `x * 1 → x`, `x + 0 → x`, `x - 0 → x`, `x * 0 → 0`;
//! * **constant grouping** in multiplication chains:
//!   `(c1 * x) * c2 → x * (c1·c2)`;
//! * **scalar grouping**: `f1 * (f2 * v) → (f1·f2) * v` — the scalar product
//!   is computed once in a scalar register and splatted once, instead of
//!   splatting both scalars and doing two vector multiplies;
//! * **factorisation** across addition chains: `a·b + a·c → a·(b + c)`,
//!   which in the motivating blur shader hoists the common `3.0 * ambient`
//!   factor out of all nine texture-sample terms;
//! * `(a + b) - a → b`;
//! * canonical ordering of commutative operands, which exposes more CSE.

use super::{eval_const_op, DefMap};
use prism_ir::analysis::Analysis;
use prism_ir::prelude::*;
use prism_ir::verify::operand_ty;

/// The unsafe floating-point reassociation pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct FpReassociate;

impl FpReassociate {
    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(&self, shader: &mut Shader) -> bool {
        let mut changed = false;
        // Multiple rounds so chains rewritten in round one can be grouped
        // further in round two; bounded to keep compilation fast.
        for _ in 0..3 {
            let round = run_round(shader);
            changed |= round;
            if !round {
                break;
            }
        }
        changed
    }
}

fn run_round(shader: &mut Shader) -> bool {
    let defs = DefMap::of(shader);
    let analysis = Analysis::of(shader);
    let mut ctx = Ctx {
        defs,
        analysis,
        changed: false,
        new_regs: Vec::new(),
    };
    let mut body = std::mem::take(&mut shader.body);
    ctx.rewrite_body(&mut body, shader);
    shader.body = body;
    ctx.changed
}

struct Ctx {
    defs: DefMap,
    analysis: Analysis,
    changed: bool,
    /// Statements to insert before the definition currently being rewritten.
    new_regs: Vec<Stmt>,
}

/// One leaf factor of a multiplication chain.
#[derive(Debug, Clone)]
enum Factor {
    /// A constant factor (scalar or per-lane vector constant).
    Const(Constant),
    /// A scalar value splatted to vector width.
    ScalarSplat(Operand),
    /// Any other value (vector register, texture result, ...).
    Other(Operand),
}

impl Factor {
    /// Equality under the same canonical-text semantics as [`Operand::key`],
    /// without building the key strings (this runs O(terms²·factors) inside
    /// [`Ctx::factor_add_chain`]).
    fn key_eq(&self, other: &Factor) -> bool {
        match (self, other) {
            (Factor::Const(a), Factor::Const(b)) => const_key_eq(a, b),
            (Factor::ScalarSplat(a), Factor::ScalarSplat(b)) => operand_key_eq(a, b),
            (Factor::Other(a), Factor::Other(b)) => operand_key_eq(a, b),
            _ => false,
        }
    }
}

/// `canonical_f64` prints `-0.0` as `0` and every NaN as `NaN`, so key
/// equality collapses those beyond plain `==`.
fn f64_key_eq(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn const_key_eq(a: &Constant, b: &Constant) -> bool {
    match (a, b) {
        (Constant::Float(x), Constant::Float(y)) => f64_key_eq(*x, *y),
        (Constant::Int(x), Constant::Int(y)) => x == y,
        (Constant::Uint(x), Constant::Uint(y)) => x == y,
        (Constant::Bool(x), Constant::Bool(y)) => x == y,
        (Constant::FloatVec(x), Constant::FloatVec(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| f64_key_eq(*p, *q))
        }
        _ => false,
    }
}

fn operand_key_eq(a: &Operand, b: &Operand) -> bool {
    match (a, b) {
        (Operand::Reg(x), Operand::Reg(y)) => x == y,
        (Operand::Const(x), Operand::Const(y)) => const_key_eq(x, y),
        (Operand::Input(x), Operand::Input(y)) => x == y,
        (Operand::Uniform(x), Operand::Uniform(y)) => x == y,
        _ => false,
    }
}

impl Ctx {
    fn rewrite_body(&mut self, body: &mut Vec<Stmt>, shader: &mut Shader) {
        let mut out: Vec<Stmt> = Vec::with_capacity(body.len());
        for mut stmt in body.drain(..) {
            match &mut stmt {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.rewrite_body(then_body, shader);
                    self.rewrite_body(else_body, shader);
                    out.push(stmt);
                }
                Stmt::Loop {
                    body: loop_body, ..
                } => {
                    self.rewrite_body(loop_body, shader);
                    out.push(stmt);
                }
                Stmt::Def { dst, op } => {
                    let dst_ty = shader.reg_ty(*dst);
                    if self.rewrite_def(op, dst_ty, shader) {
                        self.changed = true;
                    }
                    out.append(&mut self.new_regs);
                    out.push(stmt);
                }
                _ => out.push(stmt),
            }
        }
        *body = out;
    }

    /// Rewrites one float definition in place, possibly queueing helper
    /// definitions in `self.new_regs`. Returns `true` if anything changed.
    fn rewrite_def(&mut self, op: &mut Op, dst_ty: IrType, shader: &mut Shader) -> bool {
        if !dst_ty.is_float() {
            return false;
        }
        if self.identity(op, dst_ty) {
            return true;
        }
        if let Some(rewritten) = self.sub_of_add(op) {
            *op = rewritten;
            return true;
        }
        if let Op::Binary(BinaryOp::Mul, ..) = op {
            if let Some(rewritten) = self.group_mul_chain(op, dst_ty, shader) {
                *op = rewritten;
                return true;
            }
        }
        if let Op::Binary(BinaryOp::Add, ..) = op {
            if let Some(rewritten) = self.factor_add_chain(op, dst_ty, shader) {
                *op = rewritten;
                return true;
            }
        }
        self.canonical_order(op)
    }

    // --- identities ----------------------------------------------------------

    fn identity(&self, op: &mut Op, dst_ty: IrType) -> bool {
        enum Keep {
            A,
            B,
            Zero,
        }
        let keep = {
            let Op::Binary(bop, a, b) = &*op else {
                return false;
            };
            let ca = self.defs.const_of(a);
            let cb = self.defs.const_of(b);
            let one = |c: &Option<Constant>| c.as_ref().is_some_and(|c| c.is_all(1.0));
            let zero = |c: &Option<Constant>| c.as_ref().is_some_and(|c| c.is_all(0.0));
            match bop {
                BinaryOp::Mul if one(&cb) => Keep::A,
                BinaryOp::Mul if one(&ca) => Keep::B,
                BinaryOp::Mul if zero(&ca) || zero(&cb) => Keep::Zero,
                BinaryOp::Add if zero(&cb) => Keep::A,
                BinaryOp::Add if zero(&ca) => Keep::B,
                BinaryOp::Sub if zero(&cb) => Keep::A,
                BinaryOp::Div if one(&cb) => Keep::A,
                BinaryOp::Div if zero(&ca) => Keep::Zero,
                _ => return false,
            }
        };
        // Move the surviving operand out instead of cloning it; the
        // placeholder left behind is overwritten immediately.
        let taken = {
            let Op::Binary(_, a, b) = op else {
                unreachable!("matched Binary above")
            };
            match keep {
                Keep::A => std::mem::replace(a, Operand::Input(0)),
                Keep::B => std::mem::replace(b, Operand::Input(0)),
                Keep::Zero => zero_operand(dst_ty),
            }
        };
        *op = Op::Mov(taken);
        true
    }

    // --- (a + b) - a → b ------------------------------------------------------

    fn sub_of_add(&self, op: &Op) -> Option<Op> {
        let Op::Binary(BinaryOp::Sub, a, b) = op else {
            return None;
        };
        let Operand::Reg(r) = a else { return None };
        if !self.absorbable(*r) {
            return None;
        }
        let Some(Op::Binary(BinaryOp::Add, x, y)) = self.defs.def(*r) else {
            return None;
        };
        if operand_key_eq(x, b) {
            return Some(Op::Mov(y.clone()));
        }
        if operand_key_eq(y, b) {
            return Some(Op::Mov(x.clone()));
        }
        None
    }

    // --- multiplication chains ------------------------------------------------

    /// A register's definition may be absorbed into a chain rewrite when it is
    /// single-assignment and only used once (here).
    fn absorbable(&self, reg: Reg) -> bool {
        self.analysis.is_ssa(reg) && self.analysis.use_count(reg) == 1
    }

    fn collect_mul_chain(&self, operand: &Operand, out: &mut Vec<Factor>, depth: usize) {
        if depth < 8 {
            if let Operand::Reg(r) = operand {
                if self.absorbable(*r) {
                    match self.defs.def(*r) {
                        Some(Op::Binary(BinaryOp::Mul, a, b)) => {
                            self.collect_mul_chain(a, out, depth + 1);
                            self.collect_mul_chain(b, out, depth + 1);
                            return;
                        }
                        Some(Op::Splat { value, .. }) => {
                            match self.defs.const_of(value) {
                                Some(c) => out.push(Factor::Const(c)),
                                None => out.push(Factor::ScalarSplat(value.clone())),
                            }
                            return;
                        }
                        _ => {}
                    }
                }
            }
        }
        match self.defs.const_of(operand) {
            Some(c) => out.push(Factor::Const(c)),
            None => out.push(Factor::Other(operand.clone())),
        }
    }

    /// Groups constants and splatted scalars in a multiplication chain.
    fn group_mul_chain(&mut self, op: &Op, dst_ty: IrType, shader: &mut Shader) -> Option<Op> {
        let Op::Binary(BinaryOp::Mul, a, b) = op else {
            return None;
        };
        let mut factors = Vec::new();
        self.collect_mul_chain(a, &mut factors, 0);
        self.collect_mul_chain(b, &mut factors, 0);
        let n_const = factors
            .iter()
            .filter(|f| matches!(f, Factor::Const(_)))
            .count();
        let n_scalar = factors
            .iter()
            .filter(|f| matches!(f, Factor::ScalarSplat(_)))
            .count();
        // Only worthwhile when at least two groupable factors can be merged.
        if n_const + n_scalar < 2 || factors.len() < 3 {
            return None;
        }
        Some(self.rebuild_product(factors, dst_ty, shader))
    }

    /// Rebuilds `∏ factors` with constants folded together, scalars multiplied
    /// in scalar registers, and a single splat for the scalar part.
    fn rebuild_product(&mut self, factors: Vec<Factor>, dst_ty: IrType, shader: &mut Shader) -> Op {
        // Fold all constants into one.
        let mut const_product: Option<Constant> = None;
        let mut scalars: Vec<Operand> = Vec::new();
        let mut others: Vec<Operand> = Vec::new();
        for f in factors {
            match f {
                Factor::Const(c) => {
                    const_product = Some(match const_product {
                        None => c,
                        Some(prev) => mul_constants(&prev, &c),
                    });
                }
                Factor::ScalarSplat(s) => scalars.push(s),
                Factor::Other(o) => others.push(o),
            }
        }

        // Scalar product, computed in scalar registers.
        let mut scalar_value: Option<Operand> = None;
        for s in scalars {
            scalar_value = Some(match scalar_value {
                None => s,
                Some(prev) => {
                    let r = shader.new_reg(IrType::F32);
                    self.new_regs.push(Stmt::Def {
                        dst: r,
                        op: Op::Binary(BinaryOp::Mul, prev, s),
                    });
                    Operand::Reg(r)
                }
            });
        }

        // Merge the folded constant into the scalar product when it is a
        // uniform-lane constant, otherwise keep it as a vector factor.
        let mut vector_const: Option<Constant> = None;
        if let Some(c) = const_product {
            let lanes = c.lanes(c.ty().width).unwrap_or_default();
            let uniform_lanes = lanes.windows(2).all(|w| w[0] == w[1]);
            let scalar_const = lanes.first().copied().unwrap_or(1.0);
            if uniform_lanes && scalar_value.is_some() {
                if scalar_const != 1.0 {
                    let prev = scalar_value.take().expect("checked is_some");
                    let r = shader.new_reg(IrType::F32);
                    self.new_regs.push(Stmt::Def {
                        dst: r,
                        op: Op::Binary(BinaryOp::Mul, prev, Operand::float(scalar_const)),
                    });
                    scalar_value = Some(Operand::Reg(r));
                }
            } else if !c.is_all(1.0) {
                vector_const = Some(c);
            }
        }

        // Splat the combined scalar once (if the result is a vector).
        let mut vector_factors: Vec<Operand> = others;
        if let Some(sv) = scalar_value {
            if dst_ty.is_vector() {
                let r = shader.new_reg(dst_ty);
                self.new_regs.push(Stmt::Def {
                    dst: r,
                    op: Op::Splat {
                        ty: dst_ty,
                        value: sv,
                    },
                });
                vector_factors.push(Operand::Reg(r));
            } else {
                vector_factors.push(sv);
            }
        }
        if let Some(c) = vector_const {
            vector_factors.push(Operand::Const(broadcast_const(&c, dst_ty)));
        }

        // Chain the remaining factors, left to right; only the final multiply
        // stays in the rewritten op, earlier ones become helper defs.
        match vector_factors.len() {
            0 => Op::Mov(Operand::Const(broadcast_const(
                &Constant::Float(1.0),
                dst_ty,
            ))),
            1 => Op::Mov(vector_factors.pop().expect("len == 1")),
            _ => {
                let mut iter = vector_factors.into_iter();
                let mut x = iter.next().expect("len >= 2");
                let mut y = iter.next().expect("len >= 2");
                for f in iter {
                    let r = shader.new_reg(IrType::vec(
                        prism_ir::types::Scalar::F32,
                        operand_ty(shader, &x).map_or(dst_ty.width, |ty| ty.width),
                    ));
                    self.new_regs.push(Stmt::Def {
                        dst: r,
                        op: Op::Binary(BinaryOp::Mul, x, y),
                    });
                    x = Operand::Reg(r);
                    y = f;
                }
                Op::Binary(BinaryOp::Mul, x, y)
            }
        }
    }

    // --- addition chains ------------------------------------------------------

    fn collect_add_chain(&self, operand: &Operand, out: &mut Vec<Operand>, depth: usize) {
        if depth < 12 {
            if let Operand::Reg(r) = operand {
                if self.absorbable(*r) {
                    if let Some(Op::Binary(BinaryOp::Add, a, b)) = self.defs.def(*r) {
                        self.collect_add_chain(a, out, depth + 1);
                        self.collect_add_chain(b, out, depth + 1);
                        return;
                    }
                }
            }
        }
        out.push(operand.clone());
    }

    /// Factors common multiplicative factors out of an addition chain:
    /// `a·x + a·y + a·z → a·(x + y + z)`.
    fn factor_add_chain(&mut self, op: &Op, dst_ty: IrType, shader: &mut Shader) -> Option<Op> {
        let Op::Binary(BinaryOp::Add, a, b) = op else {
            return None;
        };
        let mut terms = Vec::new();
        self.collect_add_chain(a, &mut terms, 0);
        self.collect_add_chain(b, &mut terms, 0);
        if terms.len() < 2 {
            return None;
        }
        // Factor multiset per term.
        let term_factors: Vec<Vec<Factor>> = terms
            .iter()
            .map(|t| {
                let mut f = Vec::new();
                self.collect_mul_chain(t, &mut f, 0);
                f
            })
            .collect();
        // Common factors = those whose key appears in every term (counting
        // multiplicity one).
        let mut common: Vec<Factor> = Vec::new();
        for candidate in &term_factors[0] {
            if common.iter().any(|c| c.key_eq(candidate)) {
                continue;
            }
            if term_factors
                .iter()
                .all(|tf| tf.iter().any(|f| f.key_eq(candidate)))
            {
                common.push(candidate.clone());
            }
        }
        // Pull out only non-trivial common factors (not the constant 1).
        common.retain(|f| !matches!(f, Factor::Const(c) if c.is_all(1.0)));
        if common.is_empty() {
            return None;
        }
        // Factoring out everything from a 2-term chain where each term *is*
        // the common factor would be degenerate; require either several terms
        // or a real residue.
        let residues: Vec<Vec<Factor>> = term_factors
            .into_iter()
            .map(|mut remaining| {
                for c in &common {
                    if let Some(pos) = remaining.iter().position(|f| f.key_eq(c)) {
                        remaining.remove(pos);
                    }
                }
                remaining
            })
            .collect();
        if terms.len() < 3 && common.len() < 2 && residues.iter().all(|r| r.is_empty()) {
            return None;
        }

        // Rebuild each term as the product of its residue.
        let mut rebuilt_terms: Vec<Operand> = Vec::new();
        for residue in residues {
            if residue.is_empty() {
                rebuilt_terms.push(Operand::Const(broadcast_const(
                    &Constant::Float(1.0),
                    dst_ty,
                )));
                continue;
            }
            let op = self.rebuild_product(residue, dst_ty, shader);
            let r = shader.new_reg(dst_ty);
            self.new_regs.push(Stmt::Def { dst: r, op });
            rebuilt_terms.push(Operand::Reg(r));
        }
        // Sum the residues.
        let mut iter = rebuilt_terms.into_iter();
        let mut sum = iter.next().expect("at least two terms");
        for t in iter {
            let r = shader.new_reg(dst_ty);
            self.new_regs.push(Stmt::Def {
                dst: r,
                op: Op::Binary(BinaryOp::Add, sum, t),
            });
            sum = Operand::Reg(r);
        }
        // Multiply the sum by the common factors.
        let mut factors = vec![Factor::Other(sum)];
        factors.extend(common);
        Some(self.rebuild_product(factors, dst_ty, shader))
    }

    // --- canonical operand ordering -------------------------------------------

    fn canonical_order(&self, op: &mut Op) -> bool {
        let Op::Binary(bop, a, b) = op else {
            return false;
        };
        if !bop.is_commutative() || !bop.is_arithmetic() {
            return false;
        }
        // Constants to the right, otherwise order by key.
        let swap = match (a.is_const(), b.is_const()) {
            (true, false) => true,
            (false, true) => false,
            _ => b.key() < a.key(),
        };
        if swap {
            std::mem::swap(a, b);
        }
        swap
    }
}

fn zero_operand(ty: IrType) -> Operand {
    if ty.is_scalar() {
        Operand::float(0.0)
    } else {
        Operand::Const(Constant::FloatVec(vec![0.0; ty.width as usize]))
    }
}

fn mul_constants(a: &Constant, b: &Constant) -> Constant {
    eval_const_op(
        &Op::Binary(
            BinaryOp::Mul,
            Operand::Const(a.clone()),
            Operand::Const(b.clone()),
        ),
        &|o| o.as_const().cloned(),
    )
    .unwrap_or_else(|| a.clone())
}

fn broadcast_const(c: &Constant, ty: IrType) -> Constant {
    if ty.is_scalar() {
        return Constant::Float(c.as_f64().unwrap_or(1.0));
    }
    match c.lanes(ty.width) {
        Some(lanes) => Constant::FloatVec(lanes),
        None => {
            let v = c.as_f64().unwrap_or(1.0);
            Constant::FloatVec(vec![v; ty.width as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::dce::Dce;
    use super::*;
    use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};
    use prism_ir::verify::verify;

    fn check_semantics(before: &Shader, after: &Shader) {
        for (x, y) in [(0.1, 0.2), (0.7, 0.4), (0.9, 0.95)] {
            let ctx_b = FragmentContext::with_defaults(before, x, y);
            let ctx_a = FragmentContext::with_defaults(after, x, y);
            let rb = run_fragment(before, &ctx_b).unwrap();
            let ra = run_fragment(after, &ctx_a).unwrap();
            assert!(
                results_approx_equal(&rb, &ra, 1e-6),
                "semantics changed at ({x},{y}): {rb:?} vs {ra:?}"
            );
        }
    }

    #[test]
    fn removes_multiply_by_one_and_add_zero() {
        let mut s = Shader::new("fp");
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
        let b = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(
                    BinaryOp::Mul,
                    Operand::Uniform(0),
                    Operand::Const(Constant::FloatVec(vec![1.0; 4])),
                ),
            },
            Stmt::Def {
                dst: b,
                op: Op::Binary(
                    BinaryOp::Add,
                    Operand::Reg(a),
                    Operand::Const(Constant::FloatVec(vec![0.0; 4])),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(b),
            },
        ];
        let before = s.clone();
        assert!(FpReassociate.run(&mut s));
        verify(&s).unwrap();
        check_semantics(&before, &s);
        assert!(matches!(
            &s.body[0],
            Stmt::Def {
                op: Op::Mov(Operand::Uniform(0)),
                ..
            }
        ));
    }

    #[test]
    fn groups_scalars_out_of_vector_multiplies() {
        // v * splat(f1) * splat(f2)  →  v * splat(f1*f2)
        let mut s = Shader::new("fp-scalar");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "v".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        s.uniforms.push(UniformVar {
            name: "f1".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        s.uniforms.push(UniformVar {
            name: "f2".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        let s1 = s.new_reg(IrType::fvec(4));
        let s2 = s.new_reg(IrType::fvec(4));
        let m1 = s.new_reg(IrType::fvec(4));
        let m2 = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: s1,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Uniform(1),
                },
            },
            Stmt::Def {
                dst: m1,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::Reg(s1)),
            },
            Stmt::Def {
                dst: s2,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Uniform(2),
                },
            },
            Stmt::Def {
                dst: m2,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(m1), Operand::Reg(s2)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(m2),
            },
        ];
        let before = s.clone();
        assert!(FpReassociate.run(&mut s));
        Dce.run(&mut s);
        verify(&s).unwrap();
        check_semantics(&before, &s);
        // A scalar multiply now exists and only one vector multiply remains.
        let mut scalar_muls = 0;
        let mut vector_muls = 0;
        prism_ir::stmt::walk_body(&s.body, &mut |st| {
            if let Stmt::Def {
                dst,
                op: Op::Binary(BinaryOp::Mul, ..),
            } = st
            {
                if s.reg_ty(*dst).is_scalar() {
                    scalar_muls += 1;
                } else {
                    vector_muls += 1;
                }
            }
        });
        assert_eq!(scalar_muls, 1, "{:#?}", s.body);
        assert_eq!(vector_muls, 1, "{:#?}", s.body);
    }

    #[test]
    fn groups_constants_in_chains() {
        // (x * 2) * 4 → x * 8 (via constant grouping).
        let mut s = Shader::new("fp-const");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "x".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        let m1 = s.new_reg(IrType::fvec(4));
        let m2 = s.new_reg(IrType::fvec(4));
        let m3 = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: m1,
                op: Op::Binary(
                    BinaryOp::Mul,
                    Operand::Uniform(0),
                    Operand::Const(Constant::FloatVec(vec![2.0; 4])),
                ),
            },
            Stmt::Def {
                dst: m2,
                op: Op::Binary(
                    BinaryOp::Mul,
                    Operand::Reg(m1),
                    Operand::Const(Constant::FloatVec(vec![4.0; 4])),
                ),
            },
            Stmt::Def {
                dst: m3,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(m2), Operand::Uniform(0)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(m3),
            },
        ];
        let before = s.clone();
        assert!(FpReassociate.run(&mut s));
        Dce.run(&mut s);
        verify(&s).unwrap();
        check_semantics(&before, &s);
        // The two constants are folded into one 8.0 factor.
        let mut const_eights = 0;
        prism_ir::stmt::walk_body(&s.body, &mut |st| {
            for o in st.operands() {
                if let Operand::Const(c) = o {
                    if c.is_all(8.0) {
                        const_eights += 1;
                    }
                }
            }
        });
        assert_eq!(const_eights, 1, "{:#?}", s.body);
    }

    #[test]
    fn factors_common_term_out_of_addition_chain() {
        // a*x + a*y + a*z → a*(x+y+z): 4 multiplies become 1 (plus the adds).
        let mut s = Shader::new("fp-factor");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "a".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        s.uniforms.push(UniformVar {
            name: "x".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        s.uniforms.push(UniformVar {
            name: "y".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        s.uniforms.push(UniformVar {
            name: "z".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        let t1 = s.new_reg(IrType::fvec(4));
        let t2 = s.new_reg(IrType::fvec(4));
        let t3 = s.new_reg(IrType::fvec(4));
        let s1 = s.new_reg(IrType::fvec(4));
        let s2 = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: t1,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::Uniform(1)),
            },
            Stmt::Def {
                dst: t2,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::Uniform(2)),
            },
            Stmt::Def {
                dst: t3,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::Uniform(3)),
            },
            Stmt::Def {
                dst: s1,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(t1), Operand::Reg(t2)),
            },
            Stmt::Def {
                dst: s2,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(s1), Operand::Reg(t3)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(s2),
            },
        ];
        let before = s.clone();
        assert!(FpReassociate.run(&mut s));
        Dce.run(&mut s);
        verify(&s).unwrap();
        check_semantics(&before, &s);
        let mut muls = 0;
        prism_ir::stmt::walk_body(&s.body, &mut |st| {
            if let Stmt::Def {
                op: Op::Binary(BinaryOp::Mul, ..),
                ..
            } = st
            {
                muls += 1;
            }
        });
        assert!(
            muls < 3,
            "expected fewer multiplies after factoring, got {muls}: {:#?}",
            s.body
        );
    }

    #[test]
    fn add_then_subtract_cancels() {
        // (a + b) - a → b
        let mut s = Shader::new("fp-cancel");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "a".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        s.uniforms.push(UniformVar {
            name: "b".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        let sum = s.new_reg(IrType::fvec(4));
        let diff = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: sum,
                op: Op::Binary(BinaryOp::Add, Operand::Uniform(0), Operand::Uniform(1)),
            },
            Stmt::Def {
                dst: diff,
                op: Op::Binary(BinaryOp::Sub, Operand::Reg(sum), Operand::Uniform(0)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(diff),
            },
        ];
        let before = s.clone();
        assert!(FpReassociate.run(&mut s));
        Dce.run(&mut s);
        verify(&s).unwrap();
        check_semantics(&before, &s);
        assert!(matches!(
            s.body.iter().find(|st| matches!(st, Stmt::Def { .. })),
            Some(Stmt::Def {
                op: Op::Mov(Operand::Uniform(1)),
                ..
            })
        ));
    }

    #[test]
    fn canonical_ordering_moves_constants_right() {
        let mut s = Shader::new("fp-order");
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
                    BinaryOp::Mul,
                    Operand::Const(Constant::FloatVec(vec![2.0; 4])),
                    Operand::Uniform(0),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        assert!(FpReassociate.run(&mut s));
        match &s.body[0] {
            Stmt::Def {
                op: Op::Binary(BinaryOp::Mul, x, y),
                ..
            } => {
                assert_eq!(x, &Operand::Uniform(0));
                assert!(y.is_const());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn integer_code_is_untouched() {
        let mut s = Shader::new("fp-int");
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
                op: Op::Binary(BinaryOp::Mul, Operand::int(3), Operand::int(1)),
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
        assert!(!FpReassociate.run(&mut s));
    }
}
