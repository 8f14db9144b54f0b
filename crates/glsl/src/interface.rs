//! Shader interface introspection.
//!
//! Every uniform, sampler, stage input and stage output of a fragment
//! shader, extracted from a checked translation unit: the interface the
//! paper's harness (§IV-B) binds before timing draw calls.

use crate::ast::{StorageQualifier, TranslationUnit};
use crate::types::Type;

/// One variable of the shader's external interface.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceVar {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional `layout(location=N)` binding.
    pub location: Option<u32>,
}

/// The complete external interface of a fragment shader.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShaderInterface {
    /// Stage inputs (`in` variables), i.e. what the vertex shader must write.
    pub inputs: Vec<InterfaceVar>,
    /// Stage outputs (`out` variables), i.e. the render-target colours.
    pub outputs: Vec<InterfaceVar>,
    /// Non-sampler uniforms.
    pub uniforms: Vec<InterfaceVar>,
    /// Sampler uniforms (texture bindings).
    pub samplers: Vec<InterfaceVar>,
}

impl ShaderInterface {
    /// Extracts the interface from a parsed translation unit.
    pub fn of(tu: &TranslationUnit) -> ShaderInterface {
        let mut iface = ShaderInterface::default();
        for g in tu.globals() {
            let var = InterfaceVar {
                name: g.name.clone(),
                ty: g.ty.clone(),
                location: g.location,
            };
            match g.qualifier {
                StorageQualifier::In => iface.inputs.push(var),
                StorageQualifier::Out => iface.outputs.push(var),
                StorageQualifier::Uniform => {
                    if g.ty.is_sampler() || matches!(&g.ty, Type::Array(e, _) if e.is_sampler()) {
                        iface.samplers.push(var);
                    } else {
                        iface.uniforms.push(var);
                    }
                }
                StorageQualifier::Const | StorageQualifier::Global => {}
            }
        }
        iface
    }

    /// Returns `true` when two interfaces declare the same inputs, outputs,
    /// uniforms and samplers (by name and type), in any order.
    ///
    /// The paper relies on this invariant: optimization must never change the
    /// shader's external interface.
    pub fn same_io(&self, other: &ShaderInterface) -> bool {
        let key = |vars: &[InterfaceVar]| {
            let mut v: Vec<(String, String)> = vars
                .iter()
                .map(|x| (x.name.clone(), x.ty.glsl_name()))
                .collect();
            v.sort();
            v
        };
        key(&self.inputs) == key(&other.inputs)
            && key(&self.outputs) == key(&other.outputs)
            && key(&self.uniforms) == key(&other.uniforms)
            && key(&self.samplers) == key(&other.samplers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn extracts_full_interface() {
        let tu = parse(
            "uniform sampler2D tex; uniform vec4 ambient; uniform float exposure;\n\
             in vec2 uv; in vec3 normal; out vec4 fragColor;\n\
             void main() { fragColor = texture(tex, uv) * ambient * exposure; }",
        )
        .unwrap();
        let iface = ShaderInterface::of(&tu);
        assert_eq!(iface.inputs.len(), 2);
        assert_eq!(iface.outputs.len(), 1);
        assert_eq!(iface.uniforms.len(), 2);
        assert_eq!(iface.samplers.len(), 1);
    }

    #[test]
    fn const_globals_are_not_interface() {
        let tu = parse("const float K = 2.0; out vec4 c; void main() { c = vec4(K); }").unwrap();
        let iface = ShaderInterface::of(&tu);
        assert!(iface.uniforms.is_empty());
    }

    #[test]
    fn same_io_ignores_declaration_order() {
        let a = parse("uniform float x; uniform float y; in vec2 uv; out vec4 c; void main() { c = vec4(x + y + uv.x); }").unwrap();
        let b = parse("uniform float y; uniform float x; in vec2 uv; out vec4 c; void main() { c = vec4(uv.y); }").unwrap();
        assert!(ShaderInterface::of(&a).same_io(&ShaderInterface::of(&b)));
        let c =
            parse("uniform float x; in vec2 uv; out vec4 c; void main() { c = vec4(x); }").unwrap();
        assert!(!ShaderInterface::of(&a).same_io(&ShaderInterface::of(&c)));
    }
}
