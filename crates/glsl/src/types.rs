//! The GLSL type system subset used throughout prism.

use std::fmt;

/// Scalar component kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// 32-bit IEEE float (`float`).
    Float,
    /// Signed 32-bit integer (`int`).
    Int,
    /// Unsigned 32-bit integer (`uint`).
    Uint,
    /// Boolean (`bool`).
    Bool,
}

impl ScalarKind {
    /// GLSL name of the scalar type.
    pub fn glsl_name(self) -> &'static str {
        match self {
            ScalarKind::Float => "float",
            ScalarKind::Int => "int",
            ScalarKind::Uint => "uint",
            ScalarKind::Bool => "bool",
        }
    }

    /// GLSL vector-type prefix (`vec`, `ivec`, `uvec`, `bvec`).
    pub fn vec_prefix(self) -> &'static str {
        match self {
            ScalarKind::Float => "vec",
            ScalarKind::Int => "ivec",
            ScalarKind::Uint => "uvec",
            ScalarKind::Bool => "bvec",
        }
    }

    /// Whether arithmetic on this scalar is floating point.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarKind::Float)
    }
}

/// Sampler (texture) types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplerKind {
    /// `sampler2D`
    Sampler2D,
    /// `sampler3D`
    Sampler3D,
    /// `samplerCube`
    SamplerCube,
    /// `sampler2DShadow`
    Sampler2DShadow,
    /// `sampler2DArray`
    Sampler2DArray,
}

impl SamplerKind {
    /// GLSL name of the sampler type.
    pub fn glsl_name(self) -> &'static str {
        match self {
            SamplerKind::Sampler2D => "sampler2D",
            SamplerKind::Sampler3D => "sampler3D",
            SamplerKind::SamplerCube => "samplerCube",
            SamplerKind::Sampler2DShadow => "sampler2DShadow",
            SamplerKind::Sampler2DArray => "sampler2DArray",
        }
    }
}

/// A GLSL type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void`, only valid as a function return type.
    Void,
    /// A scalar type.
    Scalar(ScalarKind),
    /// A vector of 2–4 components.
    Vector(ScalarKind, u8),
    /// A square float matrix (`mat2`, `mat3`, `mat4`); `cols == rows`.
    Matrix(u8),
    /// An opaque sampler.
    Sampler(SamplerKind),
    /// An array of a non-array element type, optionally sized.
    Array(Box<Type>, Option<usize>),
}

impl Type {
    /// Shorthand for `float`.
    pub const FLOAT: Type = Type::Scalar(ScalarKind::Float);
    /// Shorthand for `int`.
    pub const INT: Type = Type::Scalar(ScalarKind::Int);
    /// Shorthand for `bool`.
    pub const BOOL: Type = Type::Scalar(ScalarKind::Bool);

    /// Returns a float vector type `vecN`.
    pub fn vec(n: u8) -> Type {
        Type::Vector(ScalarKind::Float, n)
    }

    /// Parses a GLSL type name (`float`, `vec3`, `mat4`, `sampler2D`, ...).
    ///
    /// Returns `None` if the identifier does not name a known type.
    pub fn from_name(name: &str) -> Option<Type> {
        Some(match name {
            "void" => Type::Void,
            "float" => Type::Scalar(ScalarKind::Float),
            "int" => Type::Scalar(ScalarKind::Int),
            "uint" => Type::Scalar(ScalarKind::Uint),
            "bool" => Type::Scalar(ScalarKind::Bool),
            "vec2" => Type::Vector(ScalarKind::Float, 2),
            "vec3" => Type::Vector(ScalarKind::Float, 3),
            "vec4" => Type::Vector(ScalarKind::Float, 4),
            "ivec2" => Type::Vector(ScalarKind::Int, 2),
            "ivec3" => Type::Vector(ScalarKind::Int, 3),
            "ivec4" => Type::Vector(ScalarKind::Int, 4),
            "uvec2" => Type::Vector(ScalarKind::Uint, 2),
            "uvec3" => Type::Vector(ScalarKind::Uint, 3),
            "uvec4" => Type::Vector(ScalarKind::Uint, 4),
            "bvec2" => Type::Vector(ScalarKind::Bool, 2),
            "bvec3" => Type::Vector(ScalarKind::Bool, 3),
            "bvec4" => Type::Vector(ScalarKind::Bool, 4),
            "mat2" => Type::Matrix(2),
            "mat3" => Type::Matrix(3),
            "mat4" => Type::Matrix(4),
            "sampler2D" => Type::Sampler(SamplerKind::Sampler2D),
            "sampler3D" => Type::Sampler(SamplerKind::Sampler3D),
            "samplerCube" => Type::Sampler(SamplerKind::SamplerCube),
            "sampler2DShadow" => Type::Sampler(SamplerKind::Sampler2DShadow),
            "sampler2DArray" => Type::Sampler(SamplerKind::Sampler2DArray),
            _ => return None,
        })
    }

    /// GLSL spelling of the type.
    pub fn glsl_name(&self) -> String {
        match self {
            Type::Void => "void".to_string(),
            Type::Scalar(k) => k.glsl_name().to_string(),
            Type::Vector(k, n) => format!("{}{}", k.vec_prefix(), n),
            Type::Matrix(n) => format!("mat{n}"),
            Type::Sampler(s) => s.glsl_name().to_string(),
            Type::Array(elem, Some(n)) => format!("{}[{}]", elem.glsl_name(), n),
            Type::Array(elem, None) => format!("{}[]", elem.glsl_name()),
        }
    }

    /// Scalar component kind of a scalar, vector or matrix type.
    pub fn scalar_kind(&self) -> Option<ScalarKind> {
        match self {
            Type::Scalar(k) | Type::Vector(k, _) => Some(*k),
            Type::Matrix(_) => Some(ScalarKind::Float),
            _ => None,
        }
    }

    /// Number of scalar components (1 for scalars, N for vecN, N*N for matN).
    pub fn component_count(&self) -> Option<usize> {
        match self {
            Type::Scalar(_) => Some(1),
            Type::Vector(_, n) => Some(*n as usize),
            Type::Matrix(n) => Some((*n as usize) * (*n as usize)),
            _ => None,
        }
    }

    /// Vector width (1 for scalars, N for vectors); `None` for other types.
    pub fn vector_width(&self) -> Option<u8> {
        match self {
            Type::Scalar(_) => Some(1),
            Type::Vector(_, n) => Some(*n),
            _ => None,
        }
    }

    /// `true` for scalar/vector/matrix numeric types (not bool).
    pub fn is_numeric(&self) -> bool {
        match self {
            Type::Scalar(k) | Type::Vector(k, _) => !matches!(k, ScalarKind::Bool),
            Type::Matrix(_) => true,
            _ => false,
        }
    }

    /// `true` for sampler types.
    pub fn is_sampler(&self) -> bool {
        matches!(self, Type::Sampler(_))
    }

    /// `true` for scalar types.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Scalar(_))
    }

    /// `true` for vector types.
    pub fn is_vector(&self) -> bool {
        matches!(self, Type::Vector(_, _))
    }

    /// Returns the result of indexing this type with `[]`.
    ///
    /// Arrays yield their element type, vectors their scalar, matrices their
    /// column vector.
    pub fn index_result(&self) -> Option<Type> {
        match self {
            Type::Array(elem, _) => Some((**elem).clone()),
            Type::Vector(k, _) => Some(Type::Scalar(*k)),
            Type::Matrix(n) => Some(Type::Vector(ScalarKind::Float, *n)),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.glsl_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_type_names() {
        for name in [
            "float",
            "int",
            "uint",
            "bool",
            "vec2",
            "vec3",
            "vec4",
            "ivec3",
            "bvec2",
            "mat2",
            "mat3",
            "mat4",
            "sampler2D",
            "samplerCube",
        ] {
            let ty = Type::from_name(name).unwrap();
            assert_eq!(ty.glsl_name(), name);
        }
        assert!(Type::from_name("texture2D").is_none());
    }

    #[test]
    fn component_counts() {
        assert_eq!(Type::FLOAT.component_count(), Some(1));
        assert_eq!(Type::vec(3).component_count(), Some(3));
        assert_eq!(Type::Matrix(4).component_count(), Some(16));
        assert_eq!(
            Type::Sampler(SamplerKind::Sampler2D).component_count(),
            None
        );
    }

    #[test]
    fn index_results() {
        assert_eq!(Type::vec(4).index_result(), Some(Type::FLOAT));
        assert_eq!(Type::Matrix(3).index_result(), Some(Type::vec(3)));
        let arr = Type::Array(Box::new(Type::vec(4)), Some(9));
        assert_eq!(arr.index_result(), Some(Type::vec(4)));
        assert_eq!(Type::FLOAT.index_result(), None);
    }

    #[test]
    fn numeric_classification() {
        assert!(Type::vec(2).is_numeric());
        assert!(Type::Matrix(2).is_numeric());
        assert!(!Type::BOOL.is_numeric());
        assert!(!Type::Sampler(SamplerKind::Sampler2D).is_numeric());
    }

    #[test]
    fn array_display() {
        let arr = Type::Array(Box::new(Type::vec(4)), Some(9));
        assert_eq!(arr.to_string(), "vec4[9]");
        let unsized_arr = Type::Array(Box::new(Type::vec(2)), None);
        assert_eq!(unsized_arr.to_string(), "vec2[]");
    }
}
