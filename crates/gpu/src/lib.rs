//! # prism-gpu — the seven-vendor GPU substrate
//!
//! The paper measures real GPUs; this crate provides the simulated substitute
//! (see DESIGN.md §1): for each of the seven platforms — the paper's five
//! (Intel HD 530, AMD RX 480, NVIDIA GTX 1080, ARM Mali-T880, Qualcomm
//! Adreno 530) plus the RX 480 again behind Mesa's Vulkan driver (RADV,
//! consuming SPIR-V assembly) and an Apple A9 behind Metal (consuming MSL) —
//! a [`Platform`] bundles
//!
//! * a [`DriverModel`]: the vendor JIT compiler, which
//!   re-parses incoming source text with the front-end matching the
//!   platform's declared emission backend (GLSL, SPIR-V assembly or MSL) and
//!   applies the conformant optimizations that driver is known to perform
//!   (this is what decides whether an *offline* optimization still has an
//!   effect on that platform),
//! * a [`DeviceSpec`]: the architecture model (scalar vs.
//!   vec4 ALUs, texture throughput, register budget, occupancy behaviour,
//!   timer-query noise),
//! * the [cost model](cost) and [timing model](timing) that convert compiled
//!   IR into per-frame `GL_TIME_ELAPSED`-style samples,
//! * an ARM-offline-compiler-style [static analyser](static_analysis) used
//!   for the Fig. 4b shader characterisation.
//!
//! A [`DriverMemo`] runs many submissions through the drivers at once: each
//! distinct (source form, text) is parsed once, and each driver pass runs
//! once per distinct IR, replayed through a transition graph by stable stage
//! id ([`DriverModel::stages`]). The study sweep gives each of its columns
//! (the original shader, one variant, or one specialization key) one memo
//! shared by all platforms; [`Platform::submit`] stays the one-shot
//! reference path.

pub mod cost;
pub mod driver;
pub mod isa;
pub mod memo;
pub mod platform;
pub mod static_analysis;
pub mod timing;
pub mod vendor;

pub use cost::FragmentCost;
pub use driver::{DriverModel, DriverPass};
pub use isa::IsaStats;
pub use memo::{DriverMemo, DriverStats};
pub use platform::{Platform, ShaderCost};
pub use static_analysis::{analyze, StaticCycles};
pub use timing::{DrawConfig, NoiseState, TimeSample};
pub use vendor::{AluStyle, DeviceSpec, ThermalDrift, Vendor};
