//! Cross-backend interface extraction.
//!
//! The study's measurement harness relies on one invariant: however the
//! optimized IR reaches a driver — desktop GLSL, converted GLES, SPIR-V
//! assembly or MSL — the shader's *external interface* (inputs, outputs,
//! uniforms, samplers) is the same, so one generated vertex shader and one
//! uniform/texture setup serve every platform. [`source_interface`] runs the
//! *consuming front-end* of a backend over emitted text and normalises what
//! it finds into a [`SourceInterface`], so the differential suite can assert
//! interface identity across all four backends on a real parse rather than
//! text heuristics.

use crate::backend::BackendKind;
use crate::glsl_backend::glsl_sampler_name;
use prism_ir::Shader;

/// The normalised external interface of one emitted shader text: variable
/// (name, GLSL type spelling) pairs per storage class, sorted by name so
/// declaration order cannot affect comparisons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceInterface {
    /// Stage inputs.
    pub inputs: Vec<(String, String)>,
    /// Stage outputs.
    pub outputs: Vec<(String, String)>,
    /// Non-sampler uniforms (type is the original GLSL declaration, e.g.
    /// `mat4`, whatever the backend spelled it as).
    pub uniforms: Vec<(String, String)>,
    /// Sampler bindings.
    pub samplers: Vec<(String, String)>,
}

impl SourceInterface {
    /// `true` when two extracted interfaces describe the same I/O — the
    /// invariant emission across backends must keep.
    pub fn same_io(&self, other: &SourceInterface) -> bool {
        self == other
    }

    fn normalised(mut self) -> SourceInterface {
        self.inputs.sort();
        self.outputs.sort();
        self.uniforms.sort();
        self.samplers.sort();
        self
    }

    /// The interface of a parsed GLSL translation unit.
    fn of_glsl(iface: &prism_glsl::ShaderInterface) -> SourceInterface {
        let pairs = |vars: &[prism_glsl::interface::InterfaceVar]| {
            vars.iter()
                .map(|v| (v.name.clone(), v.ty.glsl_name()))
                .collect()
        };
        SourceInterface {
            inputs: pairs(&iface.inputs),
            outputs: pairs(&iface.outputs),
            uniforms: pairs(&iface.uniforms),
            samplers: pairs(&iface.samplers),
        }
        .normalised()
    }

    /// The interface of a reconstructed IR shader (the SPIR-V assembly
    /// front-end's output), with uniform slots grouped back into their
    /// original declarations.
    pub fn of_shader(shader: &Shader) -> SourceInterface {
        let mut uniforms: Vec<(String, String)> = Vec::new();
        for u in &shader.uniforms {
            if uniforms.iter().all(|(name, _)| name != &u.name) {
                uniforms.push((u.name.clone(), u.original.clone()));
            }
        }
        SourceInterface {
            inputs: shader
                .inputs
                .iter()
                .map(|v| (v.name.clone(), v.ty.glsl_name()))
                .collect(),
            outputs: shader
                .outputs
                .iter()
                .map(|v| (v.name.clone(), v.ty.glsl_name()))
                .collect(),
            uniforms,
            samplers: shader
                .samplers
                .iter()
                .map(|s| (s.name.clone(), glsl_sampler_name(s.dim).to_string()))
                .collect(),
        }
        .normalised()
    }
}

/// Runs `kind`'s consuming front-end over `text` and extracts the external
/// interface: the GLSL targets parse with the real GLSL front-end, MSL is
/// desugared and then parsed, SPIR-V assembly is parsed directly.
///
/// # Errors
///
/// Returns the front-end's message when `text` is not valid for `kind`.
pub fn source_interface(kind: BackendKind, text: &str) -> Result<SourceInterface, String> {
    match kind {
        BackendKind::DesktopGlsl | BackendKind::Gles => {
            let parsed = prism_glsl::ShaderSource::preprocess_and_parse(text, &Default::default())
                .map_err(|e| e.to_string())?;
            Ok(SourceInterface::of_glsl(&parsed.interface()))
        }
        BackendKind::Msl => {
            let glsl = crate::msl::msl_to_glsl(text)?;
            let parsed = prism_glsl::ShaderSource::preprocess_and_parse(&glsl, &Default::default())
                .map_err(|e| e.to_string())?;
            Ok(SourceInterface::of_glsl(&parsed.interface()))
        }
        BackendKind::SpirvAsm => {
            let parsed = crate::spirv::parse_spirv_asm(text)?;
            Ok(SourceInterface::of_shader(&parsed.shader))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::prelude::*;

    fn shader() -> Shader {
        let mut s = Shader::new("iface-test");
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        s.outputs.push(OutputVar {
            name: "fragColor".into(),
            ty: IrType::fvec(4),
        });
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        s.uniforms.push(UniformVar {
            name: "ambient".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::Binary(
                    BinaryOp::Mul,
                    Operand::Uniform(0),
                    Operand::Const(Constant::FloatVec(vec![1.0, 1.0, 1.0, 1.0])),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        // Keep the input and sampler live through the interface even though
        // the body ignores them — interface extraction is declaration-based.
        s
    }

    #[test]
    fn every_backend_text_extracts_the_same_interface() {
        let s = shader();
        let reference = SourceInterface::of_shader(&s);
        for kind in BackendKind::ALL {
            let text = kind.emit(&s);
            let extracted =
                source_interface(kind, &text).unwrap_or_else(|e| panic!("{kind}: {e}\n{text}"));
            assert!(
                extracted.same_io(&reference),
                "{kind}: {extracted:?} vs {reference:?}"
            );
        }
    }

    #[test]
    fn interface_differences_are_detected() {
        let s = shader();
        let mut other = s.clone();
        other.uniforms.push(UniformVar {
            name: "gain".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        assert!(!SourceInterface::of_shader(&s).same_io(&SourceInterface::of_shader(&other)));
    }

    #[test]
    fn wrong_form_for_a_backend_is_an_error() {
        let s = shader();
        let glsl = BackendKind::DesktopGlsl.emit(&s);
        assert!(source_interface(BackendKind::SpirvAsm, &glsl).is_err());
        assert!(source_interface(BackendKind::Msl, &glsl).is_err());
    }
}
