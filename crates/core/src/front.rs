//! The one front door: shader text in any source form becomes verified IR.
//!
//! The simulated drivers (`Platform::submit` and the driver memo), the
//! compile service's front stage and the schedule canary all enter through
//! [`front`], so no pass runs on IR the verifier has not seen.
//! [`CompileSession`](crate::CompileSession) takes a parsed [`ShaderSource`]
//! instead (corpus sources carry übershader defines) and lowers and
//! verifies it the same way.

use crate::lower::lower;
use crate::pipeline::CompileError;
use prism_emit::BackendKind;
use prism_glsl::{GlslError, ShaderSource, Stage};
use prism_ir::verify::verify;
use prism_ir::Shader;

/// What the front end made of one text.
#[derive(Debug, Clone)]
pub struct Front {
    /// The lowered IR (rebuilt, for SPIR-V assembly), named after the
    /// caller's `name` and verified.
    pub ir: Shader,
    /// The source-form version token the front end saw: the `#version`
    /// payload for GLSL (`"450"`, `"310 es"`, empty without one), the
    /// `; Version:` header for SPIR-V assembly (`"spirv-1.0"`), and
    /// `"metal"` for MSL.
    pub version: String,
}

/// Front-ends `text` in `form`'s source form — a GLSL preprocess and parse
/// (no defines), the SPIR-V assembly parser, or the MSL desugaring plus a
/// GLSL parse — then lowers it, names the IR `name` and verifies it.
///
/// # Errors
///
/// [`CompileError::Front`] when the front end rejects the text (text in
/// another source form included), [`CompileError::Lower`] or
/// [`CompileError::Verify`] when the IR does not lower or verify.
///
/// ```
/// use prism_emit::BackendKind;
///
/// let text = "#version 310 es\nout vec4 c; void main() { c = vec4(1.0); }";
/// let gles = prism_core::front(BackendKind::Gles, text, "doc").unwrap();
/// assert_eq!((gles.ir.name.as_str(), gles.version.as_str()), ("doc", "310 es"));
/// ```
pub fn front(form: BackendKind, text: &str, name: &str) -> Result<Front, CompileError> {
    let foreign = |e: String| CompileError::Front(GlslError::new(Stage::Parse, e));
    let (ir, version) = match form {
        BackendKind::DesktopGlsl | BackendKind::Gles => {
            let source = ShaderSource::parse(text)?;
            (lower(&source, name)?, source.version.unwrap_or_default())
        }
        BackendKind::SpirvAsm => {
            let parsed = prism_emit::parse_spirv_asm(text).map_err(foreign)?;
            let mut ir = parsed.shader;
            ir.name = name.to_string();
            (ir, parsed.version)
        }
        BackendKind::Msl => {
            let source = ShaderSource::parse(&prism_emit::msl_to_glsl(text).map_err(foreign)?)?;
            (lower(&source, name)?, form.version().to_string())
        }
    };
    verify(&ir).map_err(CompileError::Verify)?;
    Ok(Front { ir, version })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINT: &str = "uniform vec4 tint; in vec2 uv; out vec4 c;\n\
        void main() { if (uv.x > 0.5) { c = tint; } else { c = tint * 0.5; } }";

    /// `TINT` in `form`'s source form, as the optimizer emits it.
    fn text_in(form: BackendKind) -> String {
        form.emit(&front(BackendKind::DesktopGlsl, TINT, "tint").unwrap().ir)
    }

    #[test]
    fn every_form_reports_its_version_token_and_names_the_ir() {
        let bare = front(BackendKind::DesktopGlsl, TINT, "bare").unwrap();
        assert_eq!((bare.ir.name.as_str(), bare.version.as_str()), ("bare", ""));
        for (form, version) in [
            (BackendKind::DesktopGlsl, "450"),
            (BackendKind::Gles, "310 es"),
            (BackendKind::SpirvAsm, "spirv-1.0"),
            (BackendKind::Msl, "metal"),
        ] {
            let parsed = front(form, &text_in(form), "named").unwrap();
            assert_eq!(parsed.version, version, "{form:?}");
            assert_eq!(parsed.ir.name, "named", "{form:?}");
        }
    }

    #[test]
    fn text_in_the_wrong_form_is_a_front_error() {
        for (form, text) in [
            (BackendKind::SpirvAsm, TINT.to_string()),
            (BackendKind::Msl, TINT.to_string()),
            (BackendKind::DesktopGlsl, text_in(BackendKind::SpirvAsm)),
            (BackendKind::Gles, text_in(BackendKind::Msl)),
        ] {
            assert!(
                matches!(front(form, &text, "wrong"), Err(CompileError::Front(_))),
                "{form:?}"
            );
        }
    }

    #[test]
    fn a_float_branch_condition_is_a_verify_error_naming_the_if() {
        let spirv = text_in(BackendKind::SpirvAsm);
        let (cond, float) = (branch_condition(&spirv), input_load(&spirv));
        let text = spirv.replace(
            &format!("OpBranchConditional {cond} "),
            &format!("OpBranchConditional {float} "),
        );
        match front(BackendKind::SpirvAsm, &text, "float-cond") {
            Err(CompileError::Verify(e)) => {
                assert!(e.message.contains("if condition"), "{e}");
            }
            other => panic!("expected a verify error, got {other:?}"),
        }
    }

    /// The condition id of the first `OpBranchConditional` in `spirv`.
    fn branch_condition(spirv: &str) -> &str {
        spirv
            .lines()
            .find_map(|line| line.trim().strip_prefix("OpBranchConditional "))
            .and_then(|rest| rest.split_whitespace().next())
            .expect("TINT branches")
    }

    /// The id of a float loaded from the `uv` input in `spirv`.
    fn input_load(spirv: &str) -> &str {
        spirv
            .lines()
            .map(str::trim)
            .find(|line| line.contains("= OpCompositeExtract float"))
            .and_then(|line| line.split(" = ").next())
            .expect("TINT extracts a lane of uv")
    }
}
