//! # prism-harness — the isolated shader execution environment
//!
//! Reproduces the paper's custom measurement framework (§IV-B): fragment
//! shaders are timed in isolation rather than inside the full benchmark, by
//! rendering full-screen quads with a generated vertex shader, introspected
//! default uniform/texture bindings, and `GL_TIME_ELAPSED`-style timing of
//! every draw call (100 frames × 5 repeats). Here the "GPU" is the simulated
//! platform from `prism-gpu`, so measurements are deterministic per seed.
//!
//! ```
//! use prism_gpu::{Platform, Vendor};
//! use prism_harness::{measure_cost, MeasureConfig};
//!
//! let platform = Platform::new(Vendor::Intel);
//! let glsl = "uniform vec4 tint; in vec2 uv; out vec4 c;\n\
//!             void main() { c = vec4(uv, 0.0, 1.0) * tint; }";
//! let cost = platform.submit(glsl, "doc").unwrap();
//! let m = measure_cost(&platform, &cost, &MeasureConfig::quick(), 0);
//! assert!(m.mean_ns > 0.0);
//! ```

pub mod measurement;
pub mod uniforms;
pub mod vertex_gen;

pub use measurement::{measure_cost, MeasureConfig, Measurement};
pub use uniforms::{default_bindings, DefaultBindings, TextureBinding, UniformBinding};
pub use vertex_gen::generate_vertex_shader;
