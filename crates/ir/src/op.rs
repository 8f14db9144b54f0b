//! Operations (right-hand sides of register definitions) in the prism IR.

use crate::types::{IrType, TextureDim};
use crate::value::Operand;
use crate::value_key::{OperandKey, OperandKeys, ValueKey};

/// Binary arithmetic and comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Componentwise addition.
    Add,
    /// Componentwise subtraction.
    Sub,
    /// Componentwise multiplication.
    Mul,
    /// Componentwise division.
    Div,
    /// Componentwise modulo.
    Mod,
    /// Equality (scalar result).
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinaryOp {
    /// GLSL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "&&",
            BinaryOp::Or => "||",
        }
    }

    /// `true` for +, -, *, /, %.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
        )
    }

    /// `true` for comparisons (boolean result).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// `true` for `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// `true` when `a op b == b op a`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinaryOp::Add
                | BinaryOp::Mul
                | BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::And
                | BinaryOp::Or
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical not.
    Not,
}

/// Built-in intrinsic functions carried through to the back-end and the GPU
/// cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `pow(x, y)`
    Pow,
    /// `exp(x)`
    Exp,
    /// `log(x)`
    Log,
    /// `sqrt(x)`
    Sqrt,
    /// `inversesqrt(x)`
    InverseSqrt,
    /// `sin(x)` (also used for cos/tan cost-wise)
    Sin,
    /// `cos(x)`
    Cos,
    /// `abs(x)`
    Abs,
    /// `sign(x)`
    Sign,
    /// `floor(x)`
    Floor,
    /// `fract(x)`
    Fract,
    /// `mod(x, y)`
    Mod,
    /// `min(x, y)`
    Min,
    /// `max(x, y)`
    Max,
    /// `clamp(x, lo, hi)`
    Clamp,
    /// `mix(a, b, t)`
    Mix,
    /// `step(edge, x)`
    Step,
    /// `smoothstep(e0, e1, x)`
    Smoothstep,
    /// `length(v)`
    Length,
    /// `distance(a, b)`
    Distance,
    /// `dot(a, b)`
    Dot,
    /// `cross(a, b)`
    Cross,
    /// `normalize(v)`
    Normalize,
    /// `reflect(i, n)`
    Reflect,
    /// `refract(i, n, eta)`
    Refract,
    /// `dFdx(x)`
    DFdx,
    /// `dFdy(x)`
    DFdy,
    /// `fwidth(x)`
    Fwidth,
}

impl Intrinsic {
    /// GLSL spelling of the intrinsic.
    pub fn glsl_name(self) -> &'static str {
        match self {
            Intrinsic::Pow => "pow",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::InverseSqrt => "inversesqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Abs => "abs",
            Intrinsic::Sign => "sign",
            Intrinsic::Floor => "floor",
            Intrinsic::Fract => "fract",
            Intrinsic::Mod => "mod",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Clamp => "clamp",
            Intrinsic::Mix => "mix",
            Intrinsic::Step => "step",
            Intrinsic::Smoothstep => "smoothstep",
            Intrinsic::Length => "length",
            Intrinsic::Distance => "distance",
            Intrinsic::Dot => "dot",
            Intrinsic::Cross => "cross",
            Intrinsic::Normalize => "normalize",
            Intrinsic::Reflect => "reflect",
            Intrinsic::Refract => "refract",
            Intrinsic::DFdx => "dFdx",
            Intrinsic::DFdy => "dFdy",
            Intrinsic::Fwidth => "fwidth",
        }
    }

    /// Maps a GLSL builtin name to an intrinsic.
    pub fn from_glsl_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "pow" => Intrinsic::Pow,
            "exp" | "exp2" => Intrinsic::Exp,
            "log" | "log2" => Intrinsic::Log,
            "sqrt" => Intrinsic::Sqrt,
            "inversesqrt" => Intrinsic::InverseSqrt,
            "sin" | "tan" | "asin" | "acos" | "atan" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "abs" => Intrinsic::Abs,
            "sign" => Intrinsic::Sign,
            "floor" | "ceil" | "trunc" | "round" => Intrinsic::Floor,
            "fract" => Intrinsic::Fract,
            "mod" => Intrinsic::Mod,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "clamp" | "saturate" => Intrinsic::Clamp,
            "mix" | "lerp" => Intrinsic::Mix,
            "step" => Intrinsic::Step,
            "smoothstep" => Intrinsic::Smoothstep,
            "length" => Intrinsic::Length,
            "distance" => Intrinsic::Distance,
            "dot" => Intrinsic::Dot,
            "cross" => Intrinsic::Cross,
            "normalize" => Intrinsic::Normalize,
            "reflect" => Intrinsic::Reflect,
            "refract" => Intrinsic::Refract,
            "dFdx" => Intrinsic::DFdx,
            "dFdy" => Intrinsic::DFdy,
            "fwidth" => Intrinsic::Fwidth,
            _ => return None,
        })
    }

    /// `true` for intrinsics with transcendental hardware cost.
    pub fn is_transcendental(self) -> bool {
        matches!(
            self,
            Intrinsic::Pow
                | Intrinsic::Exp
                | Intrinsic::Log
                | Intrinsic::Sqrt
                | Intrinsic::InverseSqrt
                | Intrinsic::Sin
                | Intrinsic::Cos
                | Intrinsic::Normalize
                | Intrinsic::Length
                | Intrinsic::Distance
                | Intrinsic::Smoothstep
                | Intrinsic::Refract
        )
    }
}

/// The right-hand side of a register definition.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Copy of an operand.
    Mov(Operand),
    /// Binary operation. Both operands must have the same width (the lowering
    /// splats scalars into vectors — the paper's "unnecessary vectorisation"
    /// artefact).
    Binary(BinaryOp, Operand, Operand),
    /// Unary operation.
    Unary(UnaryOp, Operand),
    /// Intrinsic call.
    Intrinsic(Intrinsic, Vec<Operand>),
    /// Texture sample: `texture(sampler, coords)` with optional LOD.
    TextureSample {
        /// Index into [`crate::shader::Shader::samplers`].
        sampler: usize,
        /// Texture coordinates.
        coords: Operand,
        /// Optional explicit level of detail.
        lod: Option<Operand>,
        /// Dimensionality (determines result type).
        dim: TextureDim,
    },
    /// Construct a vector from scalar/vector parts (`vecN(parts...)`).
    Construct {
        /// Result type.
        ty: IrType,
        /// Parts supplying the components in order.
        parts: Vec<Operand>,
    },
    /// Broadcast a scalar to a vector (`vecN(s)`).
    Splat {
        /// Result type.
        ty: IrType,
        /// The scalar value to broadcast.
        value: Operand,
    },
    /// Extract a single component of a vector with a constant index.
    Extract {
        /// Source vector.
        vector: Operand,
        /// Component index (0–3).
        index: u8,
    },
    /// Insert a scalar into one component of a vector, producing a new vector.
    ///
    /// Chains of these are what the Coalesce pass collapses into `Construct`.
    Insert {
        /// The vector being updated.
        vector: Operand,
        /// Component index (0–3).
        index: u8,
        /// The scalar value to place.
        value: Operand,
    },
    /// Reorder / replicate components of a vector (`v.xxyz`).
    Swizzle {
        /// Source vector.
        vector: Operand,
        /// Selected source components, length 1–4.
        lanes: Vec<u8>,
    },
    /// Conditional select: `cond ? a : b` (the target of the Hoist pass).
    Select {
        /// Boolean condition.
        cond: Operand,
        /// Value when true.
        if_true: Operand,
        /// Value when false.
        if_false: Operand,
    },
    /// Load an element of a constant array with a (possibly dynamic) index.
    ConstArrayLoad {
        /// Index into [`crate::shader::Shader::const_arrays`].
        array: usize,
        /// Element index operand.
        index: Operand,
    },
    /// Convert between scalar kinds (componentwise).
    Convert {
        /// Target type.
        to: IrType,
        /// Source value.
        value: Operand,
    },
}

/// Operands borrowed from one operation or statement, in order, with no
/// heap allocation: up to three fixed operands held inline, or the operand
/// vector of an intrinsic call or a constructor. `R` is `&Operand` or
/// `&mut Operand`; [`Operands`] and [`OperandsMut`] name the two.
///
/// The list is its own iterator, so `for o in stmt.operands()` reads like a
/// loop over a `Vec`.
#[derive(Debug)]
pub enum OperandList<R, S> {
    /// Up to three fixed operands; `None` slots are skipped.
    Fixed([Option<R>; 3]),
    /// An operand vector, borrowed in place.
    Slice(S),
}

/// Shared operands of an op or statement; see [`OperandList`].
pub type Operands<'a> = OperandList<&'a Operand, std::slice::Iter<'a, Operand>>;
/// Mutable operands of an op or statement; see [`OperandList`].
pub type OperandsMut<'a> = OperandList<&'a mut Operand, std::slice::IterMut<'a, Operand>>;

impl<R, S: ExactSizeIterator<Item = R>> Iterator for OperandList<R, S> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        match self {
            OperandList::Fixed(slots) => slots.iter_mut().find_map(Option::take),
            OperandList::Slice(iter) => iter.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            OperandList::Fixed(slots) => slots.iter().filter(|s| s.is_some()).count(),
            OperandList::Slice(iter) => iter.len(),
        };
        (n, Some(n))
    }
}

impl<R, S: ExactSizeIterator<Item = R>> ExactSizeIterator for OperandList<R, S> {}

impl Op {
    /// All operands of this operation, in order.
    pub fn operands(&self) -> Operands<'_> {
        match self {
            Op::Mov(a)
            | Op::Unary(_, a)
            | Op::Extract { vector: a, .. }
            | Op::Swizzle { vector: a, .. }
            | Op::Splat { value: a, .. }
            | Op::ConstArrayLoad { index: a, .. }
            | Op::Convert { value: a, .. } => OperandList::Fixed([Some(a), None, None]),
            Op::Binary(_, a, b)
            | Op::Insert {
                vector: a,
                value: b,
                ..
            } => OperandList::Fixed([Some(a), Some(b), None]),
            Op::Intrinsic(_, args) => OperandList::Slice(args.iter()),
            Op::TextureSample { coords, lod, .. } => {
                OperandList::Fixed([Some(coords), lod.as_ref(), None])
            }
            Op::Construct { parts, .. } => OperandList::Slice(parts.iter()),
            Op::Select {
                cond,
                if_true,
                if_false,
            } => OperandList::Fixed([Some(cond), Some(if_true), Some(if_false)]),
        }
    }

    /// Mutable references to all operands of this operation.
    pub fn operands_mut(&mut self) -> OperandsMut<'_> {
        match self {
            Op::Mov(a)
            | Op::Unary(_, a)
            | Op::Extract { vector: a, .. }
            | Op::Swizzle { vector: a, .. }
            | Op::Splat { value: a, .. }
            | Op::ConstArrayLoad { index: a, .. }
            | Op::Convert { value: a, .. } => OperandList::Fixed([Some(a), None, None]),
            Op::Binary(_, a, b)
            | Op::Insert {
                vector: a,
                value: b,
                ..
            } => OperandList::Fixed([Some(a), Some(b), None]),
            Op::Intrinsic(_, args) => OperandList::Slice(args.iter_mut()),
            Op::TextureSample { coords, lod, .. } => {
                OperandList::Fixed([Some(coords), lod.as_mut(), None])
            }
            Op::Construct { parts, .. } => OperandList::Slice(parts.iter_mut()),
            Op::Select {
                cond,
                if_true,
                if_false,
            } => OperandList::Fixed([Some(cond), Some(if_true), Some(if_false)]),
        }
    }

    /// `true` when this op has no side effects and may be removed if unused.
    ///
    /// Texture samples are treated as removable in fragment shaders (they have
    /// no side effects), matching LLVM's `isTriviallyDead` behaviour that the
    /// paper references when discussing ADCE.
    pub fn is_pure(&self) -> bool {
        // Derivatives interact with neighbouring invocations but are still
        // side-effect free for the purposes of dead-code removal.
        true
    }

    /// `true` if this op samples a texture.
    pub fn is_texture(&self) -> bool {
        matches!(self, Op::TextureSample { .. })
    }

    /// The structural key CSE and GVN number values by: operator plus
    /// operand identities, with commutative operands in canonical order. See
    /// [`ValueKey`] for which operands count as equal.
    pub fn value_key(&self) -> ValueKey<'_> {
        match self {
            Op::Mov(a) => ValueKey::Mov(OperandKey(a)),
            Op::Binary(op, a, b) => {
                // Commutative operators get a canonical operand order so that
                // `a+b` and `b+a` receive the same value number.
                let (a, b) = (OperandKey(a), OperandKey(b));
                if op.is_commutative() && b < a {
                    ValueKey::Binary(*op, b, a)
                } else {
                    ValueKey::Binary(*op, a, b)
                }
            }
            Op::Unary(op, a) => ValueKey::Unary(*op, OperandKey(a)),
            Op::Intrinsic(i, args) => ValueKey::Intrinsic(*i, OperandKeys(args)),
            Op::TextureSample {
                sampler,
                coords,
                lod,
                dim,
            } => ValueKey::TextureSample {
                sampler: *sampler,
                dim: *dim,
                coords: OperandKey(coords),
                lod: lod.as_ref().map(OperandKey),
            },
            Op::Construct { ty, parts } => ValueKey::Construct(*ty, OperandKeys(parts)),
            Op::Splat { ty, value } => ValueKey::Splat(*ty, OperandKey(value)),
            Op::Extract { vector, index } => ValueKey::Extract(OperandKey(vector), *index),
            Op::Insert {
                vector,
                index,
                value,
            } => ValueKey::Insert(OperandKey(vector), *index, OperandKey(value)),
            Op::Swizzle { vector, lanes } => ValueKey::Swizzle(OperandKey(vector), lanes),
            Op::Select {
                cond,
                if_true,
                if_false,
            } => ValueKey::Select(OperandKey(cond), OperandKey(if_true), OperandKey(if_false)),
            Op::ConstArrayLoad { array, index } => {
                ValueKey::ConstArrayLoad(*array, OperandKey(index))
            }
            Op::Convert { to, value } => ValueKey::Convert(*to, OperandKey(value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Reg;

    #[test]
    fn binary_op_classification() {
        assert!(BinaryOp::Add.is_arithmetic());
        assert!(BinaryOp::Add.is_commutative());
        assert!(!BinaryOp::Sub.is_commutative());
        assert!(BinaryOp::Lt.is_comparison());
        assert!(BinaryOp::And.is_logical());
        assert_eq!(BinaryOp::Div.symbol(), "/");
    }

    #[test]
    fn intrinsic_name_round_trip() {
        for i in [
            Intrinsic::Pow,
            Intrinsic::Dot,
            Intrinsic::Normalize,
            Intrinsic::Clamp,
            Intrinsic::Mix,
            Intrinsic::Fract,
        ] {
            assert_eq!(Intrinsic::from_glsl_name(i.glsl_name()), Some(i));
        }
        assert_eq!(Intrinsic::from_glsl_name("nope"), None);
        assert!(Intrinsic::Pow.is_transcendental());
        assert!(!Intrinsic::Abs.is_transcendental());
    }

    #[test]
    fn operand_listing() {
        let op = Op::Select {
            cond: Operand::Reg(Reg(0)),
            if_true: Operand::float(1.0),
            if_false: Operand::float(0.0),
        };
        assert_eq!(op.operands().len(), 3);
        let op = Op::TextureSample {
            sampler: 0,
            coords: Operand::Reg(Reg(1)),
            lod: Some(Operand::float(0.0)),
            dim: TextureDim::Dim2D,
        };
        assert_eq!(op.operands().len(), 2);
        assert!(op.is_texture());
    }

    #[test]
    fn value_key_canonicalises_commutative_operands() {
        let a = Op::Binary(BinaryOp::Add, Operand::Reg(Reg(1)), Operand::Reg(Reg(2)));
        let b = Op::Binary(BinaryOp::Add, Operand::Reg(Reg(2)), Operand::Reg(Reg(1)));
        assert_eq!(a.value_key(), b.value_key());
        let c = Op::Binary(BinaryOp::Sub, Operand::Reg(Reg(1)), Operand::Reg(Reg(2)));
        let d = Op::Binary(BinaryOp::Sub, Operand::Reg(Reg(2)), Operand::Reg(Reg(1)));
        assert_ne!(c.value_key(), d.value_key());
    }

    #[test]
    fn operands_mut_allows_rewriting() {
        let mut op = Op::Binary(BinaryOp::Mul, Operand::Reg(Reg(1)), Operand::Reg(Reg(2)));
        for o in op.operands_mut() {
            *o = Operand::float(1.0);
        }
        assert!(op.operands().all(|o| o.is_const()));
    }
}
