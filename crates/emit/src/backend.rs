//! Emission backends: one IR, N source-text targets.
//!
//! The paper's study is inherently multi-platform: the same optimized IR must
//! reach desktop drivers as `#version 450` GLSL and the two phones as
//! `#version 310 es` GLES (converted through glslang + SPIRV-Cross in the
//! paper, §III-C(d)). A [`BackendKind`] names one such target and
//! [`BackendKind::emit`] writes it. Emission works directly from IR in a
//! single pass — the GLES backend renames temporaries *during* emission
//! instead of cloning and rewriting the whole shader first.
//!
//! The set of targets is closed: [`BackendKind`] is the cheap, hashable
//! identity that compile-session emission memos and platform declarations
//! key on.

use crate::glsl_backend::{emit_glsl_with, EmitOptions, TempNameStyle};
use prism_ir::Shader;
use std::fmt;

/// Identity of an emission target. Used as a cache key by the compile
/// session's per-backend emission memo and declared by every GPU platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendKind {
    /// Desktop OpenGL GLSL (`#version 450`), the paper's three desktops.
    DesktopGlsl,
    /// OpenGL ES GLSL (`#version 310 es`), the paper's two phones.
    Gles,
    /// SPIR-V-like textual assembly (structured, `%NNN` SSA ids) — what a
    /// Vulkan driver consumes.
    SpirvAsm,
    /// Metal-Shading-Language-like text (`[[stage_in]]` structs, `fragment`
    /// entry point) — what a Metal driver consumes.
    Msl,
}

impl BackendKind {
    /// Every backend, GLSL targets first (the study's presentation order).
    pub const ALL: [BackendKind; 4] = [
        BackendKind::DesktopGlsl,
        BackendKind::Gles,
        BackendKind::SpirvAsm,
        BackendKind::Msl,
    ];

    /// Number of backends (the per-backend counter arrays in cache
    /// statistics are this long).
    pub const COUNT: usize = BackendKind::ALL.len();

    /// This backend's position in [`BackendKind::ALL`] (per-backend counter
    /// index).
    pub fn index(self) -> usize {
        match self {
            BackendKind::DesktopGlsl => 0,
            BackendKind::Gles => 1,
            BackendKind::SpirvAsm => 2,
            BackendKind::Msl => 3,
        }
    }

    /// Short lower-case label (used in records and reports).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::DesktopGlsl => "desktop",
            BackendKind::Gles => "gles",
            BackendKind::SpirvAsm => "spirv",
            BackendKind::Msl => "msl",
        }
    }

    /// The inverse of [`BackendKind::name`]: resolves a recorded backend
    /// label (e.g. from a serialised study) back to its identity.
    pub fn from_name(name: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The source-form version token this backend stamps in its output and
    /// the matching driver front-end therefore reads back: the `#version`
    /// payload for the GLSL targets, the `; Version:` header for SPIR-V
    /// assembly, the `metal_stdlib` signature for MSL.
    pub fn version(self) -> &'static str {
        match self {
            BackendKind::DesktopGlsl => "450",
            BackendKind::Gles => "310 es",
            BackendKind::SpirvAsm => crate::spirv::SPIRV_VERSION,
            BackendKind::Msl => crate::msl::MSL_VERSION,
        }
    }

    /// Emits the complete shader text for `shader` in this backend's form
    /// (the crate docs describe each form). Emission is a pure function of
    /// the IR: the compile session memoises its output per (fingerprint,
    /// backend) and replays it across shaders and threads.
    pub fn emit(self, shader: &Shader) -> String {
        match self {
            BackendKind::DesktopGlsl => emit_glsl_with(shader, &EmitOptions::default()),
            BackendKind::Gles => emit_glsl_with(
                shader,
                &EmitOptions {
                    version: BackendKind::Gles.version().to_string(),
                    emit_precision: true,
                    temp_names: TempNameStyle::SpirvCross,
                    ..EmitOptions::default()
                },
            ),
            BackendKind::SpirvAsm => crate::spirv::emit_spirv_asm(shader),
            BackendKind::Msl => crate::msl::emit_msl(shader),
        }
    }

    /// Request forms this backend can serve *besides* its canonical
    /// [`BackendKind::name`]: the API/dialect labels a compile request may
    /// name without there being a dedicated emitter for them.
    /// [`BackendKind::resolve`] falls through these to pick the emitter.
    pub fn serves(self) -> &'static [&'static str] {
        match self {
            BackendKind::DesktopGlsl => &["glsl", "glsl450", "opengl", "desktop-glsl"],
            BackendKind::Gles => &["essl", "gles310", "webgl2", "android-glsl"],
            BackendKind::SpirvAsm => &["spirv-asm", "spv", "vulkan"],
            BackendKind::Msl => &["metal", "msl-macos", "msl-ios"],
        }
    }

    /// Resolves a requested target *form* to the backend that serves it,
    /// and whether the form was an alias (no emitter by that name). A
    /// canonical [`BackendKind::name`] resolves directly; any other form
    /// falls through each backend's [`BackendKind::serves`] list in
    /// [`BackendKind::ALL`] order. Case and surrounding whitespace are
    /// forgiven; `None` means no backend serves the form.
    ///
    /// ```
    /// use prism_emit::BackendKind;
    ///
    /// assert_eq!(BackendKind::resolve("gles"), Some((BackendKind::Gles, false)));
    /// // No dedicated "metal" emitter exists; the form falls through to MSL.
    /// assert_eq!(BackendKind::resolve("metal"), Some((BackendKind::Msl, true)));
    /// assert_eq!(BackendKind::resolve("dxil"), None);
    /// ```
    pub fn resolve(form: &str) -> Option<(BackendKind, bool)> {
        let form = form.trim().to_ascii_lowercase();
        if let Some(direct) = BackendKind::from_name(&form) {
            return Some((direct, false));
        }
        BackendKind::ALL
            .into_iter()
            .find(|b| b.serves().contains(&form.as_str()))
            .map(|b| (b, true))
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::prelude::*;

    fn shader() -> Shader {
        let mut s = Shader::new("backend-test");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let r = s.new_named_reg(IrType::fvec(4), "base");
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.25),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        s
    }

    #[test]
    fn kinds_index_name_and_version_their_backend() {
        for (i, kind) in BackendKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!(BackendKind::COUNT, 4);
        assert_eq!(BackendKind::DesktopGlsl.name(), "desktop");
        assert_eq!(BackendKind::Gles.version(), "310 es");
        assert_eq!(BackendKind::SpirvAsm.version(), "spirv-1.0");
        assert_eq!(BackendKind::Msl.version(), "metal");
        assert_eq!(format!("{}", BackendKind::Gles), "gles");
    }

    #[test]
    fn names_resolve_back_to_kinds() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::from_name("webgpu"), None);
    }

    #[test]
    fn resolve_takes_direct_names_and_falls_through_aliases() {
        // Canonical names resolve directly and are not fallbacks.
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::resolve(kind.name()), Some((kind, false)));
        }
        // Every advertised alias falls through to exactly its backend.
        for kind in BackendKind::ALL {
            for alias in kind.serves() {
                assert_eq!(
                    BackendKind::resolve(alias),
                    Some((kind, true)),
                    "alias {alias}"
                );
            }
        }
        // Case and whitespace are forgiven; unknown forms are refused.
        assert_eq!(
            BackendKind::resolve(" Metal "),
            Some((BackendKind::Msl, true))
        );
        assert_eq!(
            BackendKind::resolve("VULKAN"),
            Some((BackendKind::SpirvAsm, true))
        );
        assert_eq!(
            BackendKind::resolve(" GLES "),
            Some((BackendKind::Gles, false))
        );
        assert_eq!(BackendKind::resolve("dxil"), None);
    }

    #[test]
    fn all_four_backends_emit_distinct_text_from_one_ir() {
        let s = shader();
        let texts: Vec<String> = BackendKind::ALL.iter().map(|k| k.emit(&s)).collect();
        for (i, a) in texts.iter().enumerate() {
            for b in &texts[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(texts[2].starts_with("; SPIR-V"));
        assert!(texts[3].starts_with("#include <metal_stdlib>"));
    }

    #[test]
    fn desktop_and_gles_differ_in_header_and_temporaries() {
        let s = shader();
        let desktop = BackendKind::DesktopGlsl.emit(&s);
        let gles = BackendKind::Gles.emit(&s);
        assert!(desktop.starts_with("#version 450"));
        assert!(desktop.contains("vec4 base"));
        assert!(gles.starts_with("#version 310 es"));
        assert!(gles.contains("precision highp float;"));
        assert!(gles.contains("_100"), "{gles}");
        assert!(!gles.contains("base"), "GLES renames temporaries: {gles}");
    }

    #[test]
    fn backends_are_pure_functions_of_the_ir() {
        let s = shader();
        for kind in BackendKind::ALL {
            assert_eq!(kind.emit(&s), kind.emit(&s));
        }
    }
}
