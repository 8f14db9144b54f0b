//! Optimization passes.
//!
//! Two groups exist, mirroring §III of the paper:
//!
//! * **always-on canonicalisation** — constant folding/propagation, local
//!   common-sub-expression elimination and trivially-dead-code removal. These
//!   correspond to the LLVM passes LunarGlass always runs and are applied for
//!   every flag combination including the empty one (which is also the
//!   baseline used for the per-flag measurements of Fig. 9);
//! * **flag-controlled passes** — ADCE, Hoist, Unroll, Coalesce, GVN, integer
//!   Reassociate, and the paper's custom unsafe FP Reassociate and constant
//!   Div-to-Mul passes.
//!
//! Every pass list names its passes with one [`Pass`] value each, parameters
//! included: the optimizer's [`SCHEDULE`](crate::pipeline::SCHEDULE) and the
//! specializer's fold stage are constant tables of them, and so is the
//! simulated drivers' stage-id table each driver preset builds its list from.

pub mod adce;
pub mod coalesce;
pub mod constfold;
pub mod cse;
pub mod dce;
pub mod div_to_mul;
pub mod fp_reassociate;
pub mod gvn;
pub mod hoist;
pub mod reassociate;
pub mod rename;
pub mod unroll;

use prism_ir::analysis::Analysis;
use prism_ir::hash::FxHashMap;
use prism_ir::prelude::*;

/// One transformation over shader IR, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Straight-line SSA renaming ([`rename`]).
    Rename,
    /// Constant folding and propagation ([`constfold`]).
    ConstFold,
    /// Local common-sub-expression elimination ([`cse`]).
    Cse,
    /// Trivially-dead-code removal ([`dce`]).
    Dce,
    /// Loop unrolling ([`unroll`]).
    Unroll(unroll::Unroll),
    /// Conditional flattening ([`hoist`]).
    Hoist(hoist::Hoist),
    /// Vector-insertion coalescing ([`coalesce`]).
    Coalesce,
    /// Global value numbering ([`gvn`]).
    Gvn,
    /// Integer reassociation ([`reassociate`]).
    Reassociate,
    /// Unsafe floating-point reassociation ([`fp_reassociate`]).
    FpReassociate,
    /// Constant division to multiplication ([`div_to_mul`]).
    DivToMul,
    /// Aggressive dead-code elimination ([`adce`]).
    Adce,
    /// The zero/one identities a uniform-value specialization unlocks
    /// ([`specialize`](crate::specialize)).
    SpecIdentities,
}

impl Pass {
    /// Short machine-readable pass name. The warm-start shard header's
    /// [schedule hash](crate::cache::persist::schedule_hash) covers it.
    pub const fn name(self) -> &'static str {
        match self {
            Pass::Rename => "rename",
            Pass::ConstFold => "constfold",
            Pass::Cse => "cse",
            Pass::Dce => "dce",
            Pass::Unroll(_) => "unroll",
            Pass::Hoist(_) => "hoist",
            Pass::Coalesce => "coalesce",
            Pass::Gvn => "gvn",
            Pass::Reassociate => "reassociate",
            Pass::FpReassociate => "fp_reassociate",
            Pass::DivToMul => "div_to_mul",
            Pass::Adce => "adce",
            Pass::SpecIdentities => "spec-identities",
        }
    }

    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(self, shader: &mut Shader) -> bool {
        match self {
            Pass::Rename => rename::Rename.run(shader),
            Pass::ConstFold => constfold::ConstFold.run(shader),
            Pass::Cse => cse::Cse.run(shader),
            Pass::Dce => dce::Dce.run(shader),
            Pass::Unroll(pass) => pass.run(shader),
            Pass::Hoist(pass) => pass.run(shader),
            Pass::Coalesce => coalesce::Coalesce.run(shader),
            Pass::Gvn => gvn::Gvn.run(shader),
            Pass::Reassociate => reassociate::Reassociate.run(shader),
            Pass::FpReassociate => fp_reassociate::FpReassociate.run(shader),
            Pass::DivToMul => div_to_mul::DivToMul.run(shader),
            Pass::Adce => adce::Adce.run(shader),
            Pass::SpecIdentities => crate::specialize::spec_identities(shader),
        }
    }
}

/// A map from single-assignment registers to their defining operation,
/// shared by several passes that need to "look through" operands.
#[derive(Debug, Default)]
pub struct DefMap {
    defs: FxHashMap<Reg, Op>,
}

impl DefMap {
    /// Builds the map for all SSA registers of the shader (single definition,
    /// not nested in a loop or conditional).
    pub fn of(shader: &Shader) -> DefMap {
        let analysis = Analysis::of(shader);
        let mut defs = FxHashMap::default();
        prism_ir::stmt::walk_body(&shader.body, &mut |s| {
            if let Stmt::Def { dst, op } = s {
                if analysis.is_ssa(*dst) {
                    defs.insert(*dst, op.clone());
                }
            }
        });
        DefMap { defs }
    }

    /// The defining op of an SSA register.
    pub fn def(&self, reg: Reg) -> Option<&Op> {
        self.defs.get(&reg)
    }

    /// Looks through an operand: if it is an SSA register defined by a `Mov`,
    /// follows the chain to the underlying operand.
    pub fn resolve<'a>(&'a self, operand: &'a Operand) -> &'a Operand {
        let mut current = operand;
        for _ in 0..16 {
            let Operand::Reg(r) = current else {
                return current;
            };
            match self.def(*r) {
                Some(Op::Mov(inner)) => current = inner,
                _ => return current,
            }
        }
        current
    }

    /// Returns the constant value of an operand, looking through SSA `Mov`
    /// and `Splat` definitions. Splats of a constant scalar resolve to a
    /// vector constant of the splat's width.
    pub fn const_of(&self, operand: &Operand) -> Option<Constant> {
        match self.resolve(operand) {
            Operand::Const(c) => Some(c.clone()),
            Operand::Reg(r) => match self.def(*r) {
                Some(Op::Splat { ty, value }) => {
                    let c = self.const_of(value)?;
                    let v = c.as_f64()?;
                    Some(Constant::FloatVec(vec![v; ty.width as usize]))
                }
                _ => None,
            },
            _ => None,
        }
    }
}

/// Evaluates an operation whose operands are all constants.
///
/// Returns `None` when the operands are not constant or the operation cannot
/// be safely folded at compile time (e.g. division by zero).
pub fn eval_const_op(op: &Op, consts: &dyn Fn(&Operand) -> Option<Constant>) -> Option<Constant> {
    let width_of = |c: &Constant| c.ty().width;
    match op {
        Op::Mov(a) => consts(a),
        Op::Unary(UnaryOp::Neg, a) => {
            let c = consts(a)?;
            match c {
                Constant::Float(v) => Some(Constant::Float(-v)),
                Constant::Int(v) => Some(Constant::Int(-v)),
                Constant::FloatVec(v) => Some(Constant::FloatVec(v.iter().map(|x| -x).collect())),
                _ => None,
            }
        }
        Op::Unary(UnaryOp::Not, a) => consts(a)?.as_bool().map(|b| Constant::Bool(!b)),
        Op::Binary(bop, a, b) => {
            let ca = consts(a)?;
            let cb = consts(b)?;
            eval_const_binary(*bop, &ca, &cb)
        }
        Op::Splat { ty, value } => {
            let c = consts(value)?;
            let v = c.as_f64()?;
            if ty.width == 1 {
                Some(Constant::Float(v))
            } else {
                Some(Constant::FloatVec(vec![v; ty.width as usize]))
            }
        }
        Op::Construct { ty, parts } => {
            let mut lanes = Vec::new();
            for p in parts {
                let c = consts(p)?;
                lanes.extend(c.lanes(width_of(&c))?);
            }
            if parts.len() == 1 && lanes.len() == 1 {
                lanes = vec![lanes[0]; ty.width as usize];
            }
            if lanes.len() < ty.width as usize {
                return None;
            }
            lanes.truncate(ty.width as usize);
            Some(Constant::FloatVec(lanes))
        }
        Op::Extract { vector, index } => {
            let c = consts(vector)?;
            let lanes = c.lanes(width_of(&c))?;
            lanes.get(*index as usize).map(|v| Constant::Float(*v))
        }
        Op::Insert {
            vector,
            index,
            value,
        } => {
            let c = consts(vector)?;
            let mut lanes = c.lanes(width_of(&c))?;
            let v = consts(value)?.as_f64()?;
            if (*index as usize) < lanes.len() {
                lanes[*index as usize] = v;
            }
            Some(Constant::FloatVec(lanes))
        }
        Op::Swizzle { vector, lanes } => {
            let c = consts(vector)?;
            let src = c.lanes(width_of(&c))?;
            let out: Option<Vec<f64>> = lanes
                .iter()
                .map(|l| src.get(*l as usize).copied())
                .collect();
            let out = out?;
            if out.len() == 1 {
                Some(Constant::Float(out[0]))
            } else {
                Some(Constant::FloatVec(out))
            }
        }
        Op::Select {
            cond,
            if_true,
            if_false,
        } => {
            let c = consts(cond)?.as_bool()?;
            if c {
                consts(if_true)
            } else {
                consts(if_false)
            }
        }
        Op::Convert { to, value } => {
            let c = consts(value)?;
            let v = c.as_f64()?;
            Some(if to.is_int() {
                Constant::Int(v.trunc() as i64)
            } else if to.is_scalar() {
                Constant::Float(v)
            } else {
                return None;
            })
        }
        Op::Intrinsic(i, args) => {
            let mut consts_args = Vec::new();
            for a in args {
                consts_args.push(consts(a)?);
            }
            eval_const_intrinsic(*i, &consts_args)
        }
        // Texture samples and const-array loads with dynamic indices are not
        // folded here; const-array loads with constant indices are folded by
        // the constant-folding pass itself (it has access to the arrays).
        Op::TextureSample { .. } | Op::ConstArrayLoad { .. } => None,
    }
}

fn eval_const_binary(op: BinaryOp, a: &Constant, b: &Constant) -> Option<Constant> {
    if op.is_logical() {
        let (x, y) = (a.as_bool()?, b.as_bool()?);
        return Some(Constant::Bool(match op {
            BinaryOp::And => x && y,
            BinaryOp::Or => x || y,
            _ => unreachable!(),
        }));
    }
    if op.is_comparison() {
        let (x, y) = (a.as_f64()?, b.as_f64()?);
        return Some(Constant::Bool(match op {
            BinaryOp::Eq => x == y,
            BinaryOp::Ne => x != y,
            BinaryOp::Lt => x < y,
            BinaryOp::Le => x <= y,
            BinaryOp::Gt => x > y,
            BinaryOp::Ge => x >= y,
            _ => unreachable!(),
        }));
    }
    // Integer arithmetic stays integer.
    if let (Constant::Int(x), Constant::Int(y)) = (a, b) {
        return Some(Constant::Int(match op {
            BinaryOp::Add => x + y,
            BinaryOp::Sub => x - y,
            BinaryOp::Mul => x * y,
            BinaryOp::Div => {
                if *y == 0 {
                    return None;
                }
                x / y
            }
            BinaryOp::Mod => {
                if *y == 0 {
                    return None;
                }
                x % y
            }
            _ => return None,
        }));
    }
    let wa = a.ty().width.max(b.ty().width);
    let la = a.lanes(wa)?;
    let lb = b.lanes(wa)?;
    let mut out = Vec::with_capacity(wa as usize);
    for (x, y) in la.iter().zip(&lb) {
        let v = match op {
            BinaryOp::Add => x + y,
            BinaryOp::Sub => x - y,
            BinaryOp::Mul => x * y,
            BinaryOp::Div => {
                if *y == 0.0 {
                    return None;
                }
                x / y
            }
            BinaryOp::Mod => {
                if *y == 0.0 {
                    return None;
                }
                x - y * (x / y).floor()
            }
            _ => return None,
        };
        out.push(v);
    }
    Some(if wa == 1 {
        Constant::Float(out[0])
    } else {
        Constant::FloatVec(out)
    })
}

fn eval_const_intrinsic(i: Intrinsic, args: &[Constant]) -> Option<Constant> {
    let w = args.iter().map(|c| c.ty().width).max()?;
    let lanes: Vec<Vec<f64>> = args.iter().map(|c| c.lanes(w)).collect::<Option<_>>()?;
    let unary = |f: fn(f64) -> f64| -> Option<Constant> {
        let out: Vec<f64> = lanes[0].iter().map(|x| f(*x)).collect();
        Some(pack(out))
    };
    match i {
        Intrinsic::Abs => unary(f64::abs),
        Intrinsic::Floor => unary(f64::floor),
        Intrinsic::Fract => unary(|x| x - x.floor()),
        Intrinsic::Sqrt => unary(|x| x.max(0.0).sqrt()),
        Intrinsic::InverseSqrt => unary(|x| 1.0 / x.max(1e-12).sqrt()),
        Intrinsic::Sign => unary(f64::signum),
        Intrinsic::Exp => unary(f64::exp),
        Intrinsic::Sin => unary(f64::sin),
        Intrinsic::Cos => unary(f64::cos),
        Intrinsic::Min if args.len() == 2 => Some(pack(
            lanes[0]
                .iter()
                .zip(&lanes[1])
                .map(|(a, b)| a.min(*b))
                .collect(),
        )),
        Intrinsic::Max if args.len() == 2 => Some(pack(
            lanes[0]
                .iter()
                .zip(&lanes[1])
                .map(|(a, b)| a.max(*b))
                .collect(),
        )),
        Intrinsic::Pow if args.len() == 2 => Some(pack(
            lanes[0]
                .iter()
                .zip(&lanes[1])
                .map(|(a, b)| a.abs().powf(*b))
                .collect(),
        )),
        Intrinsic::Dot if args.len() == 2 => Some(Constant::Float(
            lanes[0].iter().zip(&lanes[1]).map(|(a, b)| a * b).sum(),
        )),
        _ => None,
    }
}

fn pack(lanes: Vec<f64>) -> Constant {
    if lanes.len() == 1 {
        Constant::Float(lanes[0])
    } else {
        Constant::FloatVec(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_map_resolves_mov_chains() {
        let mut s = Shader::new("t");
        let a = s.new_reg(IrType::F32);
        let b = s.new_reg(IrType::F32);
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Mov(Operand::float(2.0)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Mov(Operand::Reg(a)),
            },
        ];
        let dm = DefMap::of(&s);
        assert_eq!(dm.resolve(&Operand::Reg(b)), &Operand::float(2.0));
        assert_eq!(dm.const_of(&Operand::Reg(b)), Some(Constant::Float(2.0)));
    }

    #[test]
    fn def_map_sees_through_splats() {
        let mut s = Shader::new("t");
        let a = s.new_reg(IrType::fvec(4));
        s.body = vec![Stmt::Def {
            dst: a,
            op: Op::Splat {
                ty: IrType::fvec(4),
                value: Operand::float(3.0),
            },
        }];
        let dm = DefMap::of(&s);
        assert_eq!(
            dm.const_of(&Operand::Reg(a)),
            Some(Constant::FloatVec(vec![3.0; 4]))
        );
    }

    #[test]
    fn const_binary_folding() {
        let consts = |o: &Operand| o.as_const().cloned();
        let op = Op::Binary(BinaryOp::Mul, Operand::float(3.0), Operand::float(4.0));
        assert_eq!(eval_const_op(&op, &consts), Some(Constant::Float(12.0)));
        let vec_op = Op::Binary(
            BinaryOp::Add,
            Operand::fvec(vec![1.0, 2.0]),
            Operand::float(1.0),
        );
        assert_eq!(
            eval_const_op(&vec_op, &consts),
            Some(Constant::FloatVec(vec![2.0, 3.0]))
        );
        // Division by zero is not folded.
        let div0 = Op::Binary(BinaryOp::Div, Operand::float(1.0), Operand::float(0.0));
        assert_eq!(eval_const_op(&div0, &consts), None);
        // Integer arithmetic stays integral.
        let int_op = Op::Binary(BinaryOp::Add, Operand::int(3), Operand::int(4));
        assert_eq!(eval_const_op(&int_op, &consts), Some(Constant::Int(7)));
    }

    #[test]
    fn const_structural_folding() {
        let consts = |o: &Operand| o.as_const().cloned();
        let extract = Op::Extract {
            vector: Operand::fvec(vec![5.0, 6.0, 7.0]),
            index: 1,
        };
        assert_eq!(eval_const_op(&extract, &consts), Some(Constant::Float(6.0)));
        let swz = Op::Swizzle {
            vector: Operand::fvec(vec![1.0, 2.0, 3.0]),
            lanes: vec![2, 0],
        };
        assert_eq!(
            eval_const_op(&swz, &consts),
            Some(Constant::FloatVec(vec![3.0, 1.0]))
        );
        let sel = Op::Select {
            cond: Operand::boolean(false),
            if_true: Operand::float(1.0),
            if_false: Operand::float(2.0),
        };
        assert_eq!(eval_const_op(&sel, &consts), Some(Constant::Float(2.0)));
        let cmp = Op::Binary(BinaryOp::Lt, Operand::int(2), Operand::int(5));
        assert_eq!(eval_const_op(&cmp, &consts), Some(Constant::Bool(true)));
    }

    #[test]
    fn const_intrinsic_folding() {
        let consts = |o: &Operand| o.as_const().cloned();
        let dot = Op::Intrinsic(
            Intrinsic::Dot,
            vec![Operand::fvec(vec![1.0, 2.0]), Operand::fvec(vec![3.0, 4.0])],
        );
        assert_eq!(eval_const_op(&dot, &consts), Some(Constant::Float(11.0)));
        let tex = Op::TextureSample {
            sampler: 0,
            coords: Operand::fvec(vec![0.0, 0.0]),
            lod: None,
            dim: TextureDim::Dim2D,
        };
        assert_eq!(eval_const_op(&tex, &consts), None);
    }
}
