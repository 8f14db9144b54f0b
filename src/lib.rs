//! # prism — a reproduction of *"A Cross-platform Evaluation of Graphics
//! Shader Compiler Optimization"* (Crawford & O'Boyle, ISPASS 2018)
//!
//! The workspace rebuilds, from scratch and in Rust, every system the paper
//! uses or depends on:
//!
//! | layer | crate | paper counterpart |
//! |---|---|---|
//! | GLSL front-end | [`glsl`] | LunarGlass GLSL front-end / glslang |
//! | shader IR + structural fingerprint | [`ir`] | LLVM 3.4 IR inside LunarGlass |
//! | offline optimizer (8 flags) | [`core`] | LunarGlass passes + the paper's custom unsafe FP passes |
//! | variant compile sessions | [`core`] (`session`) | — (engineering: lower-once, prefix-shared 256-way variant generation) |
//! | multi-target back-end | [`emit`] | LunarGlass GLSL back-end + the mobile SPIRV-Cross path, extended to SPIR-V assembly and MSL |
//! | GPU substrate | [`gpu`] | the five physical GPUs + their drivers, extended with a Vulkan desktop and a Metal phone |
//! | benchmark corpus | [`corpus`] | GFXBench 4.0 fragment shaders |
//! | timing harness | [`harness`] | the paper's isolated draw-call timing framework |
//! | exhaustive search | [`search`] | the 256-combination iterative compilation study |
//! | figures/tables | [`report`] | the evaluation section's figures and Table I |
//!
//! The hot path of the study — compiling every shader under all 256 flag
//! combinations — runs through [`core::CompileSession`]: each shader is
//! lowered to IR once, the pass schedule is replayed as inspectable stages
//! whose IR snapshots are shared across combinations with a common schedule
//! prefix, and a commutative-aware structural fingerprint
//! ([`ir::fingerprint`](mod@ir::fingerprint)) short-circuits duplicate states before GLSL
//! emission. The session output is byte-identical to brute force (the
//! property suite proves it) at a fraction of the cost, and one session per
//! shader serves all seven platforms in [`search`] through four emission
//! backends (desktop GLSL, GLES, SPIR-V assembly, MSL).
//!
//! ## Quick start
//!
//! ```
//! use prism::core::{compile, Flag, OptFlags};
//! use prism::glsl::ShaderSource;
//! use prism::gpu::{Platform, Vendor};
//!
//! // The paper's motivating blur shader, optimized with the custom passes.
//! let source = ShaderSource::parse(prism::corpus::flagship::BLUR9).unwrap();
//! let flags = OptFlags::from_flags(&[Flag::Unroll, Flag::FpReassociate, Flag::DivToMul]);
//! let optimized = compile(&source, "blur", flags).unwrap();
//!
//! // Submit both versions to a simulated GPU and compare frame times.
//! let gpu = Platform::new(Vendor::Arm);
//! let before = gpu.submit(&source.text, "blur").unwrap().ideal_frame_ns;
//! let after = gpu.submit(&optimized.glsl, "blur").unwrap().ideal_frame_ns;
//! assert!(after < before);
//! ```

/// The GLSL front-end (`prism-glsl`).
pub use prism_glsl as glsl;

/// The shader IR (`prism-ir`).
pub use prism_ir as ir;

/// The flag-driven offline optimizer (`prism-core`).
pub use prism_core as core;

/// The IR → source-text back-ends (`prism-emit`).
pub use prism_emit as emit;

/// The seven-vendor GPU substrate (`prism-gpu`).
pub use prism_gpu as gpu;

/// The static analysis layer — cost models and lints (`prism-analyze`).
pub use prism_analyze as analyze;

/// The GFXBench-like shader corpus (`prism-corpus`).
pub use prism_corpus as corpus;

/// The isolated timing harness (`prism-harness`).
pub use prism_harness as harness;

/// The exhaustive iterative-compilation search (`prism-search`).
pub use prism_search as search;

/// The sharded compile service (`prism-serve`).
pub use prism_serve as serve;

/// Statistics and figure/table renderers (`prism-report`).
pub use prism_report as report;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_wired() {
        // One symbol per layer, to catch broken re-exports early.
        let _ = crate::core::OptFlags::all();
        let _ = crate::gpu::Vendor::ALL;
        let _ = crate::analyze::lint::ids::DEAD_OUTPUT;
        let _ = crate::corpus::flagship::BLUR9;
        let _ = crate::harness::MeasureConfig::quick();
        let _ = crate::serve::ServeConfig::default();
        let _ = crate::report::ViolinSummary::of(&[1.0]);
    }
}
