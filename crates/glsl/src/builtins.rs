//! Built-in GLSL function and constructor signatures.
//!
//! The resolver answers "given this call name and these argument types, what
//! is the result type?" for the intrinsics used by the GFXBench-style corpus
//! (texture sampling, the common math builtins, geometric functions) and for
//! type constructors (`vec4(...)`, `mat3(...)`, `float(...)`).

use crate::types::{SamplerKind, ScalarKind, Type};

/// Classification of a resolved call.
#[derive(Debug, Clone, PartialEq)]
pub enum CallKind {
    /// A scalar/vector/matrix constructor (`vec4(x)`, `float(i)`).
    Constructor(Type),
    /// A built-in intrinsic function.
    Builtin(Builtin),
    /// A user-defined function (resolved by the type checker, not here).
    UserFunction,
}

/// Built-in intrinsic identifiers, grouped by semantic family.
///
/// The GPU substrate assigns per-vendor costs to each of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    // Texture access.
    /// `texture(sampler, coord)` (+ optional bias).
    Texture,
    /// `textureLod(sampler, coord, lod)`.
    TextureLod,
    /// `texelFetch(sampler, icoord, lod)`.
    TexelFetch,
    /// `textureProj(sampler, coord)`.
    TextureProj,

    // Componentwise transcendental / power functions.
    /// `pow(x, y)`
    Pow,
    /// `exp(x)` / `exp2(x)`
    Exp,
    /// `log(x)` / `log2(x)`
    Log,
    /// `sqrt(x)`
    Sqrt,
    /// `inversesqrt(x)`
    InverseSqrt,
    /// `sin(x)`, `cos(x)`, `tan(x)`
    Trig,
    /// `asin`, `acos`, `atan`
    InvTrig,

    // Componentwise simple math.
    /// `abs(x)`
    Abs,
    /// `sign(x)`
    Sign,
    /// `floor(x)`, `ceil(x)`, `fract(x)`, `trunc(x)`, `round(x)`
    Round,
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
    /// `saturate(x)` (HLSL-ism occasionally seen; clamp to `[0, 1]`)
    Saturate,

    // Geometric.
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
    /// `faceforward(n, i, nref)`
    FaceForward,

    // Matrix.
    /// `transpose(m)`
    Transpose,
    /// `inverse(m)`
    Inverse,

    // Derivatives (fragment stage).
    /// `dFdx(x)` / `dFdy(x)`
    Derivative,
    /// `fwidth(x)`
    Fwidth,
}

impl Builtin {
    /// Looks up a builtin by its GLSL name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "texture" | "texture2D" | "textureCube" => Builtin::Texture,
            "textureLod" | "texture2DLod" => Builtin::TextureLod,
            "texelFetch" => Builtin::TexelFetch,
            "textureProj" => Builtin::TextureProj,
            "pow" => Builtin::Pow,
            "exp" | "exp2" => Builtin::Exp,
            "log" | "log2" => Builtin::Log,
            "sqrt" => Builtin::Sqrt,
            "inversesqrt" => Builtin::InverseSqrt,
            "sin" | "cos" | "tan" => Builtin::Trig,
            "asin" | "acos" | "atan" => Builtin::InvTrig,
            "abs" => Builtin::Abs,
            "sign" => Builtin::Sign,
            "floor" | "ceil" | "fract" | "trunc" | "round" => Builtin::Round,
            "mod" => Builtin::Mod,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "clamp" => Builtin::Clamp,
            "mix" | "lerp" => Builtin::Mix,
            "step" => Builtin::Step,
            "smoothstep" => Builtin::Smoothstep,
            "saturate" => Builtin::Saturate,
            "length" => Builtin::Length,
            "distance" => Builtin::Distance,
            "dot" => Builtin::Dot,
            "cross" => Builtin::Cross,
            "normalize" => Builtin::Normalize,
            "reflect" => Builtin::Reflect,
            "refract" => Builtin::Refract,
            "faceforward" => Builtin::FaceForward,
            "transpose" => Builtin::Transpose,
            "inverse" => Builtin::Inverse,
            "dFdx" | "dFdy" => Builtin::Derivative,
            "fwidth" => Builtin::Fwidth,
            _ => return None,
        })
    }

    /// `true` if this builtin samples a texture (memory access).
    pub fn is_texture(self) -> bool {
        matches!(
            self,
            Builtin::Texture | Builtin::TextureLod | Builtin::TexelFetch | Builtin::TextureProj
        )
    }

    /// `true` for transcendental-cost intrinsics (pow, exp, log, trig, ...).
    pub fn is_transcendental(self) -> bool {
        matches!(
            self,
            Builtin::Pow
                | Builtin::Exp
                | Builtin::Log
                | Builtin::Sqrt
                | Builtin::InverseSqrt
                | Builtin::Trig
                | Builtin::InvTrig
        )
    }

    /// Result type given the argument types; `None` if the arguments are
    /// incompatible with the builtin.
    pub fn result_type(self, args: &[Type]) -> Option<Type> {
        use Builtin::*;
        let first = args.first()?;
        match self {
            Texture | TextureLod | TexelFetch | TextureProj => {
                if let Type::Sampler(kind) = first {
                    match kind {
                        SamplerKind::Sampler2DShadow => Some(Type::FLOAT),
                        _ => Some(Type::vec(4)),
                    }
                } else {
                    None
                }
            }
            Pow | Mod | Min | Max | Step => {
                // Componentwise with scalar broadcast on the second operand.
                if args.len() < 2 {
                    return None;
                }
                componentwise_result(&args[0], &args[1])
            }
            Exp | Log | Sqrt | InverseSqrt | Trig | InvTrig | Abs | Sign | Round | Saturate
            | Derivative | Fwidth | Normalize => Some(first.clone()),
            Clamp | Mix | Smoothstep | FaceForward | Refract => {
                // Result has the shape of the widest vector operand.
                let mut result = args[0].clone();
                for a in args {
                    if a.vector_width().unwrap_or(0) > result.vector_width().unwrap_or(0) {
                        result = a.clone();
                    }
                }
                // smoothstep(e0, e1, x): result follows `x`.
                if self == Smoothstep {
                    result = args.last()?.clone();
                }
                Some(result)
            }
            Length | Distance | Dot => Some(Type::FLOAT),
            Cross => Some(Type::vec(3)),
            Reflect => Some(first.clone()),
            Transpose | Inverse => Some(first.clone()),
        }
    }
}

/// Componentwise binary result with scalar broadcast (vec ⊕ float → vec).
fn componentwise_result(a: &Type, b: &Type) -> Option<Type> {
    match (a, b) {
        (Type::Vector(..), Type::Scalar(_)) => Some(a.clone()),
        (Type::Scalar(_), Type::Vector(..)) => Some(b.clone()),
        _ if a == b => Some(a.clone()),
        _ => None,
    }
}

/// Resolves a call name into a constructor, builtin or user function.
pub fn resolve_call(name: &str) -> CallKind {
    if let Some(ty) = Type::from_name(name) {
        if !matches!(ty, Type::Void | Type::Sampler(_)) {
            return CallKind::Constructor(ty);
        }
    }
    if let Some(b) = Builtin::from_name(name) {
        return CallKind::Builtin(b);
    }
    CallKind::UserFunction
}

/// Checks whether a constructor call with the given argument types is valid,
/// i.e. the arguments supply enough components.
///
/// GLSL allows `vecN(scalar)` splat, component-list construction from any mix
/// of scalars and vectors, `matN(scalar)` diagonal construction, and
/// single-argument conversions between scalar types.
pub fn constructor_arity_ok(target: &Type, args: &[Type]) -> bool {
    let Some(needed) = target.component_count() else {
        return false;
    };
    if args.is_empty() {
        return false;
    }
    // Single-scalar splat / diagonal / conversion is always fine.
    if args.len() == 1 && args[0].is_scalar() {
        return true;
    }
    // Truncating construction from a single wider vector (vec3(v4)) is allowed.
    if args.len() == 1 {
        if let Some(have) = args[0].component_count() {
            return have >= needed;
        }
        return false;
    }
    let supplied: usize = args.iter().map(|a| a.component_count().unwrap_or(0)).sum();
    supplied >= needed && args.iter().all(|a| a.component_count().is_some())
}

// Keep ScalarKind referenced for documentation purposes in this module.
const _: Option<ScalarKind> = None;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_constructors_and_builtins() {
        assert_eq!(resolve_call("vec4"), CallKind::Constructor(Type::vec(4)));
        assert_eq!(resolve_call("float"), CallKind::Constructor(Type::FLOAT));
        assert_eq!(resolve_call("texture"), CallKind::Builtin(Builtin::Texture));
        assert_eq!(resolve_call("myHelper"), CallKind::UserFunction);
        // Samplers cannot be constructed.
        assert_eq!(resolve_call("sampler2D"), CallKind::UserFunction);
    }

    #[test]
    fn texture_returns_vec4_or_float_for_shadow() {
        let b = Builtin::Texture;
        assert_eq!(
            b.result_type(&[Type::Sampler(SamplerKind::Sampler2D), Type::vec(2)]),
            Some(Type::vec(4))
        );
        assert_eq!(
            b.result_type(&[Type::Sampler(SamplerKind::Sampler2DShadow), Type::vec(3)]),
            Some(Type::FLOAT)
        );
        assert_eq!(b.result_type(&[Type::vec(2)]), None);
    }

    #[test]
    fn componentwise_builtins_broadcast_scalars() {
        assert_eq!(
            Builtin::Pow.result_type(&[Type::vec(3), Type::FLOAT]),
            Some(Type::vec(3))
        );
        assert_eq!(
            Builtin::Max.result_type(&[Type::FLOAT, Type::FLOAT]),
            Some(Type::FLOAT)
        );
        assert_eq!(
            Builtin::Min.result_type(&[Type::vec(2), Type::vec(3)]),
            None
        );
    }

    #[test]
    fn geometric_builtins() {
        assert_eq!(
            Builtin::Dot.result_type(&[Type::vec(3), Type::vec(3)]),
            Some(Type::FLOAT)
        );
        assert_eq!(
            Builtin::Cross.result_type(&[Type::vec(3), Type::vec(3)]),
            Some(Type::vec(3))
        );
        assert_eq!(
            Builtin::Normalize.result_type(&[Type::vec(3)]),
            Some(Type::vec(3))
        );
    }

    #[test]
    fn mix_and_clamp_follow_widest_operand() {
        assert_eq!(
            Builtin::Mix.result_type(&[Type::vec(4), Type::vec(4), Type::FLOAT]),
            Some(Type::vec(4))
        );
        assert_eq!(
            Builtin::Clamp.result_type(&[Type::vec(2), Type::FLOAT, Type::FLOAT]),
            Some(Type::vec(2))
        );
        assert_eq!(
            Builtin::Smoothstep.result_type(&[Type::FLOAT, Type::FLOAT, Type::vec(3)]),
            Some(Type::vec(3))
        );
    }

    #[test]
    fn constructor_arity_checks() {
        assert!(constructor_arity_ok(&Type::vec(4), &[Type::FLOAT]));
        assert!(constructor_arity_ok(
            &Type::vec(4),
            &[Type::vec(3), Type::FLOAT]
        ));
        assert!(constructor_arity_ok(
            &Type::vec(4),
            &[Type::FLOAT, Type::FLOAT, Type::FLOAT, Type::FLOAT]
        ));
        assert!(constructor_arity_ok(&Type::vec(3), &[Type::vec(4)]));
        assert!(!constructor_arity_ok(
            &Type::vec(4),
            &[Type::vec(2), Type::FLOAT]
        ));
        assert!(constructor_arity_ok(&Type::Matrix(4), &[Type::FLOAT]));
        assert!(constructor_arity_ok(&Type::FLOAT, &[Type::INT]));
        assert!(!constructor_arity_ok(&Type::vec(2), &[]));
    }

    #[test]
    fn classification_helpers() {
        assert!(Builtin::Texture.is_texture());
        assert!(!Builtin::Dot.is_texture());
        assert!(Builtin::Pow.is_transcendental());
        assert!(!Builtin::Abs.is_transcendental());
    }

    #[test]
    fn legacy_names_resolve() {
        assert_eq!(Builtin::from_name("texture2D"), Some(Builtin::Texture));
        assert_eq!(Builtin::from_name("lerp"), Some(Builtin::Mix));
        assert_eq!(Builtin::from_name("nonsense"), None);
    }
}
