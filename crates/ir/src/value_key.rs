//! Structural keys for value numbering.
//!
//! CSE and GVN give two operations one value number when
//! [`Op::value_key`](crate::op::Op::value_key) returns equal [`ValueKey`]s.
//! A key borrows the operation it describes and costs no allocation to build,
//! hash or compare. Its equivalence classes are those of the printed key form
//! ([`Operand::key`] joined per operator):
//!
//! * commutative operands are put in one canonical order;
//! * float constants compare by value after canonicalisation — `0.0` equals
//!   `-0.0` and every NaN equals every other NaN — lane by lane for vector
//!   constants;
//! * constants of different kinds stay distinct: `1`, `1u` and `1.0` are
//!   three values.

use crate::op::{BinaryOp, Intrinsic, UnaryOp};
use crate::types::{IrType, TextureDim};
use crate::value::{Constant, Operand};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// The value-numbering key of one operation; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKey<'a> {
    /// A copy.
    Mov(OperandKey<'a>),
    /// A binary operation; commutative operands in canonical order.
    Binary(BinaryOp, OperandKey<'a>, OperandKey<'a>),
    /// A unary operation.
    Unary(UnaryOp, OperandKey<'a>),
    /// An intrinsic call.
    Intrinsic(Intrinsic, OperandKeys<'a>),
    /// A texture sample, with or without an explicit LOD.
    TextureSample {
        /// Sampler index.
        sampler: usize,
        /// Texture dimensionality.
        dim: TextureDim,
        /// Coordinates.
        coords: OperandKey<'a>,
        /// Explicit level of detail, if any.
        lod: Option<OperandKey<'a>>,
    },
    /// A vector construction.
    Construct(IrType, OperandKeys<'a>),
    /// A scalar broadcast.
    Splat(IrType, OperandKey<'a>),
    /// A component extraction.
    Extract(OperandKey<'a>, u8),
    /// A component insertion: vector, lane, value.
    Insert(OperandKey<'a>, u8, OperandKey<'a>),
    /// A swizzle.
    Swizzle(OperandKey<'a>, &'a [u8]),
    /// A conditional select: condition, true value, false value.
    Select(OperandKey<'a>, OperandKey<'a>, OperandKey<'a>),
    /// A constant-array load: array, index.
    ConstArrayLoad(usize, OperandKey<'a>),
    /// A conversion.
    Convert(IrType, OperandKey<'a>),
}

/// One operand as value numbering sees it: registers, inputs and uniforms
/// by index, constants by canonical value (see the module docs).
///
/// The order is total and agrees with equality; it only serves to put
/// commutative operands in one canonical order.
#[derive(Debug, Clone, Copy)]
pub struct OperandKey<'a>(pub &'a Operand);

/// The canonical bit pattern of a float constant: `-0.0` maps to `0.0` and
/// every NaN to one NaN.
fn canonical_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

impl<'a> OperandKey<'a> {
    /// The operand's kind and scalar payload; a vector constant carries its
    /// lane count here and its lanes in [`OperandKey::lanes`].
    fn head(&self) -> (u8, u64) {
        match self.0 {
            Operand::Reg(r) => (0, u64::from(r.0)),
            Operand::Input(i) => (1, *i as u64),
            Operand::Uniform(u) => (2, *u as u64),
            Operand::Const(Constant::Float(v)) => (3, canonical_bits(*v)),
            Operand::Const(Constant::Int(v)) => (4, *v as u64),
            Operand::Const(Constant::Uint(v)) => (5, *v),
            Operand::Const(Constant::Bool(b)) => (6, u64::from(*b)),
            Operand::Const(Constant::FloatVec(lanes)) => (7, lanes.len() as u64),
        }
    }

    /// Canonical lane bits of a vector constant (empty for anything else).
    fn lanes(&self) -> impl Iterator<Item = u64> + 'a {
        let lanes: &'a [f64] = match self.0 {
            Operand::Const(Constant::FloatVec(lanes)) => lanes,
            _ => &[],
        };
        lanes.iter().map(|v| canonical_bits(*v))
    }
}

impl Ord for OperandKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.head()
            .cmp(&other.head())
            .then_with(|| self.lanes().cmp(other.lanes()))
    }
}

impl PartialOrd for OperandKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for OperandKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for OperandKey<'_> {}

impl Hash for OperandKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (kind, payload) = self.head();
        state.write_u8(kind);
        state.write_u64(payload);
        for lane in self.lanes() {
            state.write_u64(lane);
        }
    }
}

/// An operand list (intrinsic arguments, constructor parts) compared and
/// hashed element by element as [`OperandKey`]s.
#[derive(Debug, Clone, Copy)]
pub struct OperandKeys<'a>(pub &'a [Operand]);

impl PartialEq for OperandKeys<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0)
                .all(|(a, b)| OperandKey(a) == OperandKey(b))
    }
}

impl Eq for OperandKeys<'_> {}

impl Hash for OperandKeys<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        for operand in self.0 {
            OperandKey(operand).hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxBuildHasher;
    use crate::value::Reg;
    use std::hash::BuildHasher;

    fn key(operand: &Operand) -> OperandKey<'_> {
        OperandKey(operand)
    }

    #[test]
    fn float_constants_compare_by_canonical_value() {
        let zero = Operand::float(0.0);
        let neg_zero = Operand::float(-0.0);
        assert_eq!(key(&zero), key(&neg_zero));
        let nan = Operand::float(f64::NAN);
        let other_nan = Operand::float(f64::from_bits(f64::NAN.to_bits() ^ 1));
        assert_eq!(key(&nan), key(&other_nan));
        let build = FxBuildHasher::default();
        assert_eq!(build.hash_one(key(&nan)), build.hash_one(key(&other_nan)));
        let a = Operand::fvec(vec![1.0, -0.0]);
        let b = Operand::fvec(vec![1.0, 0.0]);
        assert_eq!(key(&a), key(&b));
        assert_eq!(build.hash_one(key(&a)), build.hash_one(key(&b)));
        assert_ne!(key(&a), key(&Operand::fvec(vec![1.0, 0.0, 0.0])));
    }

    #[test]
    fn constant_kinds_and_operand_kinds_stay_distinct() {
        let ops = [
            Operand::int(1),
            Operand::Const(Constant::Uint(1)),
            Operand::float(1.0),
            Operand::Reg(Reg(1)),
            Operand::Input(1),
            Operand::Uniform(1),
            Operand::boolean(true),
            Operand::fvec(vec![1.0]),
        ];
        for (i, a) in ops.iter().enumerate() {
            for (j, b) in ops.iter().enumerate() {
                assert_eq!(key(a) == key(b), i == j, "{a:?} vs {b:?}");
            }
        }
    }
}
