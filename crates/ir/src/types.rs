//! Types for the prism shader IR.
//!
//! The IR follows the LunarGlass/LLVM model the paper describes: only scalars
//! and short vectors exist. GLSL matrices are scalarised into column vectors
//! during lowering (the paper's §III-C artefact (a)), and scalar-by-vector
//! arithmetic is vectorised by splatting the scalar (artefact (b)).

use std::fmt;

/// Scalar element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// 32-bit float.
    F32,
    /// 32-bit signed integer.
    I32,
    /// 32-bit unsigned integer.
    U32,
    /// Boolean.
    Bool,
}

impl Scalar {
    /// `true` for the floating point scalar.
    pub fn is_float(self) -> bool {
        matches!(self, Scalar::F32)
    }

    /// `true` for signed/unsigned integers.
    pub fn is_int(self) -> bool {
        matches!(self, Scalar::I32 | Scalar::U32)
    }
}

/// An IR value type: a scalar or a short vector (width 2–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IrType {
    /// Element kind.
    pub scalar: Scalar,
    /// Number of components: 1 (scalar) to 4.
    pub width: u8,
}

impl IrType {
    /// 32-bit float scalar.
    pub const F32: IrType = IrType {
        scalar: Scalar::F32,
        width: 1,
    };
    /// 32-bit signed int scalar.
    pub const I32: IrType = IrType {
        scalar: Scalar::I32,
        width: 1,
    };
    /// 32-bit unsigned int scalar.
    pub const U32: IrType = IrType {
        scalar: Scalar::U32,
        width: 1,
    };
    /// Boolean scalar.
    pub const BOOL: IrType = IrType {
        scalar: Scalar::Bool,
        width: 1,
    };

    /// Creates a vector type of the given element kind and width (1–4).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 4.
    pub fn vec(scalar: Scalar, width: u8) -> IrType {
        assert!(
            (1..=4).contains(&width),
            "vector width must be 1..=4, got {width}"
        );
        IrType { scalar, width }
    }

    /// Float vector of the given width.
    pub fn fvec(width: u8) -> IrType {
        IrType::vec(Scalar::F32, width)
    }

    /// `true` if this is a scalar (width 1).
    pub fn is_scalar(self) -> bool {
        self.width == 1
    }

    /// `true` if this is a vector (width ≥ 2).
    pub fn is_vector(self) -> bool {
        self.width >= 2
    }

    /// `true` if the element kind is float.
    pub fn is_float(self) -> bool {
        self.scalar.is_float()
    }

    /// `true` if the element kind is an integer.
    pub fn is_int(self) -> bool {
        self.scalar.is_int()
    }

    /// `true` if the element kind is bool.
    pub fn is_bool(self) -> bool {
        self.scalar == Scalar::Bool
    }

    /// The scalar type with the same element kind.
    pub fn element(self) -> IrType {
        IrType {
            scalar: self.scalar,
            width: 1,
        }
    }

    /// This type widened (or narrowed) to `width` components.
    pub fn with_width(self, width: u8) -> IrType {
        IrType::vec(self.scalar, width)
    }

    /// GLSL spelling of this type (used by the back-end); the type's
    /// [`Display`](fmt::Display) writes the same text without the `String`.
    pub fn glsl_name(self) -> String {
        self.to_string()
    }
}

impl fmt::Display for IrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 1 {
            return f.write_str(match self.scalar {
                Scalar::F32 => "float",
                Scalar::I32 => "int",
                Scalar::U32 => "uint",
                Scalar::Bool => "bool",
            });
        }
        let prefix = match self.scalar {
            Scalar::F32 => "vec",
            Scalar::I32 => "ivec",
            Scalar::U32 => "uvec",
            Scalar::Bool => "bvec",
        };
        write!(f, "{prefix}{}", self.width)
    }
}

/// Texture/sampler dimensionality carried on sampler bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextureDim {
    /// 2D texture.
    Dim2D,
    /// 3D texture.
    Dim3D,
    /// Cube map.
    Cube,
    /// 2D shadow (depth-compare) texture; sampling yields a scalar.
    Shadow2D,
    /// 2D array texture.
    Array2D,
}

impl TextureDim {
    /// Result type of a sample from this texture.
    pub fn sample_type(self) -> IrType {
        match self {
            TextureDim::Shadow2D => IrType::F32,
            _ => IrType::fvec(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_constructors_and_predicates() {
        let v3 = IrType::fvec(3);
        assert!(v3.is_vector());
        assert!(v3.is_float());
        assert!(!v3.is_scalar());
        assert_eq!(v3.element(), IrType::F32);
        assert_eq!(v3.with_width(4), IrType::fvec(4));
        assert!(IrType::BOOL.is_bool());
        assert!(IrType::I32.is_int());
    }

    #[test]
    #[should_panic(expected = "vector width")]
    fn zero_width_panics() {
        IrType::vec(Scalar::F32, 0);
    }

    #[test]
    fn glsl_names() {
        assert_eq!(IrType::F32.glsl_name(), "float");
        assert_eq!(IrType::fvec(4).glsl_name(), "vec4");
        assert_eq!(IrType::vec(Scalar::I32, 2).glsl_name(), "ivec2");
        assert_eq!(IrType::vec(Scalar::Bool, 3).glsl_name(), "bvec3");
        assert_eq!(IrType::U32.glsl_name(), "uint");
    }

    #[test]
    fn texture_dims() {
        assert_eq!(TextureDim::Shadow2D.sample_type(), IrType::F32);
        assert_eq!(TextureDim::Dim2D.sample_type(), IrType::fvec(4));
    }
}
