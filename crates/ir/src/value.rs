//! Registers, constants and operands of the prism IR.

use crate::types::{IrType, Scalar};
use std::fmt;

/// A virtual register index within one shader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A compile-time constant value.
///
/// Vector constants hold up to four `f64` lanes regardless of element kind;
/// the associated [`IrType`] on the operand supplies the interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum Constant {
    /// Float scalar constant.
    Float(f64),
    /// Signed integer scalar constant.
    Int(i64),
    /// Unsigned integer scalar constant.
    Uint(u64),
    /// Boolean constant.
    Bool(bool),
    /// Float vector constant of width 2–4.
    FloatVec(Vec<f64>),
}

impl Constant {
    /// The IR type of this constant.
    pub fn ty(&self) -> IrType {
        match self {
            Constant::Float(_) => IrType::F32,
            Constant::Int(_) => IrType::I32,
            Constant::Uint(_) => IrType::U32,
            Constant::Bool(_) => IrType::BOOL,
            Constant::FloatVec(v) => IrType::vec(Scalar::F32, v.len() as u8),
        }
    }

    /// Returns the scalar float value, accepting int constants as floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Constant::Float(v) => Some(*v),
            Constant::Int(v) => Some(*v as f64),
            Constant::Uint(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the integer value if this is an integer constant.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Constant::Int(v) => Some(*v),
            Constant::Uint(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Returns the boolean value if this is a bool constant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Constant::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the lanes of the constant broadcast to `width` components.
    ///
    /// A scalar float/int broadcasts to all lanes; a vector must already have
    /// exactly `width` lanes.
    pub fn lanes(&self, width: u8) -> Option<Vec<f64>> {
        match self {
            Constant::Float(v) => Some(vec![*v; width as usize]),
            Constant::Int(v) => Some(vec![*v as f64; width as usize]),
            Constant::Uint(v) => Some(vec![*v as f64; width as usize]),
            Constant::FloatVec(v) if v.len() == width as usize => Some(v.clone()),
            _ => None,
        }
    }

    /// `true` when every lane equals `value`.
    pub fn is_all(&self, value: f64) -> bool {
        match self {
            Constant::Float(v) => *v == value,
            Constant::Int(v) => *v as f64 == value,
            Constant::Uint(v) => *v as f64 == value,
            Constant::FloatVec(v) => v.iter().all(|x| *x == value),
            Constant::Bool(_) => false,
        }
    }

    /// A canonical text form used for hashing / value numbering.
    pub fn key(&self) -> String {
        match self {
            Constant::Float(v) => format!("f:{}", canonical_f64(*v)),
            Constant::Int(v) => format!("i:{v}"),
            Constant::Uint(v) => format!("u:{v}"),
            Constant::Bool(b) => format!("b:{b}"),
            Constant::FloatVec(v) => {
                let parts: Vec<String> = v.iter().map(|x| canonical_f64(*x)).collect();
                format!("fv:{}", parts.join(","))
            }
        }
    }
}

/// Formats an `f64` in a canonical way (so `1` and `1.0` hash equally).
pub fn canonical_f64(v: f64) -> String {
    if v == 0.0 {
        // Collapse -0.0 and 0.0.
        return "0".to_string();
    }
    format!("{v}")
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Float(v) => write!(f, "{}", GlslFloat(*v)),
            Constant::Int(v) => write!(f, "{v}"),
            Constant::Uint(v) => write!(f, "{v}u"),
            Constant::Bool(b) => write!(f, "{b}"),
            Constant::FloatVec(v) => write!(f, "vec{}({})", v.len(), Floats(v, ", ")),
        }
    }
}

/// A float as a valid GLSL float literal (it always contains a `.`),
/// written straight into a formatter. Non-finite values become constant
/// expressions (`(1.0 / 0.0)`).
#[derive(Debug, Clone, Copy)]
pub struct GlslFloat(pub f64);

impl fmt::Display for GlslFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v.is_nan() {
            return f.write_str("(0.0 / 0.0)");
        }
        if v.is_infinite() {
            return f.write_str(if v > 0.0 {
                "(1.0 / 0.0)"
            } else {
                "(-1.0 / 0.0)"
            });
        }
        // `{}` prints a finite float without an exponent, and with a `.`
        // exactly when the value has a fractional part.
        if v.fract() == 0.0 {
            write!(f, "{v}.0")
        } else {
            write!(f, "{v}")
        }
    }
}

/// Float lanes as [`GlslFloat`] literals, with a separator between them.
#[derive(Debug, Clone, Copy)]
pub struct Floats<'f>(pub &'f [f64], pub &'static str);

impl fmt::Display for Floats<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(self.1)?;
            }
            write!(f, "{}", GlslFloat(*v))?;
        }
        Ok(())
    }
}

/// An operand of an IR operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Reg(Reg),
    /// An inline constant.
    Const(Constant),
    /// A shader stage input (interpolated varying), by index into
    /// [`crate::shader::Shader::inputs`].
    Input(usize),
    /// A non-sampler uniform, by index into [`crate::shader::Shader::uniforms`].
    Uniform(usize),
}

impl Operand {
    /// Float constant operand.
    pub fn float(v: f64) -> Operand {
        Operand::Const(Constant::Float(v))
    }

    /// Integer constant operand.
    pub fn int(v: i64) -> Operand {
        Operand::Const(Constant::Int(v))
    }

    /// Boolean constant operand.
    pub fn boolean(v: bool) -> Operand {
        Operand::Const(Constant::Bool(v))
    }

    /// Float vector constant operand.
    pub fn fvec(lanes: Vec<f64>) -> Operand {
        Operand::Const(Constant::FloatVec(lanes))
    }

    /// Returns the constant if this operand is a constant.
    pub fn as_const(&self) -> Option<&Constant> {
        match self {
            Operand::Const(c) => Some(c),
            _ => None,
        }
    }

    /// `true` if this operand is any constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Operand::Const(_))
    }

    /// A canonical text key for value numbering.
    pub fn key(&self) -> String {
        match self {
            Operand::Reg(r) => format!("r{}", r.0),
            Operand::Const(c) => c.key(),
            Operand::Input(i) => format!("in{i}"),
            Operand::Uniform(u) => format!("un{u}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_types() {
        assert_eq!(Constant::Float(1.0).ty(), IrType::F32);
        assert_eq!(Constant::Int(3).ty(), IrType::I32);
        assert_eq!(Constant::Bool(true).ty(), IrType::BOOL);
        assert_eq!(
            Constant::FloatVec(vec![1.0, 2.0, 3.0]).ty(),
            IrType::fvec(3)
        );
    }

    #[test]
    fn lanes_broadcast() {
        assert_eq!(Constant::Float(2.0).lanes(3), Some(vec![2.0, 2.0, 2.0]));
        assert_eq!(
            Constant::FloatVec(vec![1.0, 2.0]).lanes(2),
            Some(vec![1.0, 2.0])
        );
        assert_eq!(Constant::FloatVec(vec![1.0, 2.0]).lanes(3), None);
        assert_eq!(Constant::Bool(true).lanes(2), None);
    }

    #[test]
    fn is_all_checks_every_lane() {
        assert!(Constant::Float(0.0).is_all(0.0));
        assert!(Constant::FloatVec(vec![1.0, 1.0, 1.0]).is_all(1.0));
        assert!(!Constant::FloatVec(vec![1.0, 2.0]).is_all(1.0));
        assert!(Constant::Int(3).is_all(3.0));
    }

    #[test]
    fn glsl_float_formatting() {
        assert_eq!(GlslFloat(1.0).to_string(), "1.0");
        assert_eq!(GlslFloat(0.5).to_string(), "0.5");
        assert_eq!(GlslFloat(-2.0).to_string(), "-2.0");
        // Whatever the exact rendering, the literal must parse as a GLSL float.
        let tiny = GlslFloat(1e-9).to_string();
        assert!(tiny.contains('.') || tiny.contains('e'));
    }

    #[test]
    fn glsl_float_appends_a_point_exactly_when_display_prints_none() {
        // The rule the adapter replaces: print `{}`, then append `.0` when
        // the text carries no `.`, `e` or `E`.
        let scanned = |v: f64| {
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0")
            }
        };
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e-9,
            1e16,
            1e23,
            1.5e300,
            -2.5e-300,
            4503599627370495.5,
            9007199254740993.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            0.9999999999999999,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = f64::from_bits(x);
            if v.is_finite() {
                values.push(v);
            }
            values.push((x % 100_000) as f64 / 64.0 - 700.0);
        }
        for v in values {
            assert_eq!(GlslFloat(v).to_string(), scanned(v), "{v:e}");
        }
    }

    #[test]
    fn constant_display_is_glsl() {
        assert_eq!(Constant::Float(3.0).to_string(), "3.0");
        assert_eq!(
            Constant::FloatVec(vec![1.0, 0.5, 0.0]).to_string(),
            "vec3(1.0, 0.5, 0.0)"
        );
        assert_eq!(Constant::Uint(7).to_string(), "7u");
    }

    #[test]
    fn canonical_keys_collapse_equivalent_floats() {
        assert_eq!(Constant::Float(0.0).key(), Constant::Float(-0.0).key());
        assert_ne!(Constant::Float(1.0).key(), Constant::Int(1).key());
    }

    #[test]
    fn operand_helpers() {
        let r = Operand::Reg(Reg(4));
        assert!(Operand::float(1.0).is_const());
        assert!(!r.is_const());
        assert_eq!(Operand::Input(2).key(), "in2");
        assert_eq!(Operand::Uniform(1).key(), "un1");
        let from_reg: Operand = Reg(9).into();
        assert_eq!(from_reg, Operand::Reg(Reg(9)));
    }
}
