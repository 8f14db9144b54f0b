//! # prism-emit — IR → GLSL back-ends
//!
//! Regenerates shader source from prism IR, the way LunarGlass's GLSL
//! back-end does for the paper's source-to-source pipeline. The emitted code
//! exhibits the same artefact classes the paper documents (§III-C): matrices
//! arrive already scalarised from the lowering, scalar×vector arithmetic is
//! splatted, and unrolled/flattened control flow becomes one long block of
//! temporaries.
//!
//! Emission is organised around [`BackendKind`], the closed set of targets —
//! one IR, N source-text targets, all emitting straight from the IR with no
//! intermediate shader clone through [`BackendKind::emit`]. Each emitter
//! writes into one output `String`: operands, types and literals go in
//! through `Display` adapters rather than per-operand strings, and register
//! names come from one dense per-register table built once per emission
//! ([`names::RegNamer`]). The SPIR-V form gathers only its constant
//! declarations aside, since the body it writes later is what discovers
//! them:
//!
//! * `DesktopGlsl` writes `#version 450` GLSL with name-hint temporaries for
//!   the three desktop OpenGL drivers;
//! * `Gles` writes `#version 310 es` GLES with precision qualifiers and
//!   SPIRV-Cross style `_NNN` temporaries for the two phones, reproducing
//!   the paper's glslang → SPIRV-Cross conversion artefacts (§III-C(d)) in a
//!   single emission pass;
//! * `SpirvAsm` writes structured SPIR-V-like textual assembly
//!   (`OpEntryPoint` / `OpLoad` / `OpStore` lines, SSA `%NNN` result ids,
//!   explicit result types) for the Vulkan-desktop platform — [`spirv`] also
//!   hosts the matching front-end a driver parses it with;
//! * `Msl` writes Metal-Shading-Language-like text (`#include
//!   <metal_stdlib>`, `[[stage_in]]` interface struct, `fragment` entry
//!   point) for the Apple-mobile platform — [`msl`] hosts the desugaring
//!   front-end transform.
//!
//! [`BackendKind`] is also the hashable identity of a backend: compile
//! sessions memoise emitted text per (IR fingerprint, backend) and GPU
//! platforms declare the kind their driver consumes.
//! [`interface::source_interface`] runs any backend's consuming front-end
//! over emitted text and extracts a normalised [`SourceInterface`], so
//! interface identity can be checked across every backend on a real parse.
//!
//! ```
//! use prism_ir::prelude::*;
//! use prism_emit::{emit_glsl, BackendKind};
//!
//! let mut s = Shader::new("doc");
//! s.outputs.push(OutputVar { name: "color".into(), ty: IrType::fvec(4) });
//! let r = s.new_reg(IrType::fvec(4));
//! s.body = vec![
//!     Stmt::Def { dst: r, op: Op::Splat { ty: IrType::fvec(4), value: Operand::float(0.5) } },
//!     Stmt::StoreOutput { output: 0, components: None, value: Operand::Reg(r) },
//! ];
//! let glsl = emit_glsl(&s);
//! assert!(glsl.contains("out vec4 color;"));
//! // The same IR fans out to every target:
//! let spirv = BackendKind::SpirvAsm.emit(&s);
//! assert!(spirv.starts_with("; SPIR-V"));
//! let msl = BackendKind::Msl.emit(&s);
//! assert!(msl.starts_with("#include <metal_stdlib>"));
//! ```

pub mod backend;
pub mod glsl_backend;
pub mod interface;
pub mod msl;
pub mod names;
pub mod spirv;

pub use backend::{BackendChain, BackendKind};
pub use glsl_backend::{emit_glsl, emit_glsl_with, EmitOptions, Syntax, TempNameStyle};
pub use interface::{source_interface, SourceInterface};
pub use msl::{emit_msl, msl_to_glsl};
pub use spirv::{emit_spirv_asm, parse_spirv_asm, ParsedSpirv};
