//! Vendor driver (JIT compiler) models.
//!
//! In the real study each GPU's driver receives the (possibly pre-optimized)
//! GLSL source and runs its own compiler over it before execution. The
//! quality of that internal compiler is what decides whether an *offline*
//! optimization still has anything left to win — the central cross-platform
//! effect in the paper (e.g. §VI-C: AMD gains most from offline unrolling
//! because its 2017 Mesa driver does little loop optimization, while Intel's
//! driver already folds constant division so Div-to-Mul measures ≈0 there).
//!
//! Each platform therefore front-ends the incoming text through
//! [`prism_core::front`](fn@prism_core::front) in its own source form
//! (GLSL, SPIR-V assembly or MSL), and its [`DriverModel`] applies to the
//! verified IR the *conformant* subset of passes that the corresponding
//! vendor driver performs. The unsafe floating-point transformations are
//! never applied by any driver model — a conformant compiler may not
//! reassociate floating point — which is exactly why the paper adds them
//! offline.
//!
//! A model builds its pass list once ([`DriverModel::stages`]) from the
//! optimizer's own [`Pass`] enum. Each entry carries a stable stage id, one
//! per (pass, parameter) pair and the same for every vendor, so a
//! [`DriverMemo`](crate::DriverMemo) can replay the list through a transition
//! graph that all platforms share.

use crate::vendor::Vendor;
use prism_core::passes::{hoist::Hoist, unroll::Unroll};
use prism_core::{CompileError, Pass};
use prism_ir::prelude::*;
use prism_ir::verify::verify;

/// Rounds of a driver's pass list: a second round runs only when the first
/// changed the IR.
pub const DRIVER_ROUNDS: usize = 2;

/// The largest `trip count × body size` a driver unrolls, for every vendor.
const UNROLL_BUDGET: usize = 1024;

/// A driver's loop unrolling up to `max_trip_count` iterations.
const fn unroll(max_trip_count: usize) -> Pass {
    Pass::Unroll(Unroll {
        max_trip_count,
        max_expanded_size: UNROLL_BUDGET,
    })
}

/// A driver's if-conversion of branches up to `max_branch_size` statements.
const fn hoist(max_branch_size: usize) -> Pass {
    Pass::Hoist(Hoist { max_branch_size })
}

/// Every (pass, parameter) pair a driver preset runs. A pass's stage id is
/// its index here, so one id names one (pass, parameter) pair for every
/// vendor, and all ids fit the transition graph's 64 clean-stage mask bits.
const DRIVER_STAGES: [Pass; 12] = [
    Pass::Rename,
    Pass::ConstFold,
    Pass::Cse,
    Pass::Dce,
    unroll(32),
    unroll(64),
    hoist(2),
    hoist(3),
    hoist(4),
    Pass::Coalesce,
    Pass::Gvn,
    Pass::DivToMul,
];

/// What a vendor's internal compiler does on top of the always-present
/// canonicalisation (constant folding, CSE, dead-code removal).
#[derive(Debug, Clone)]
pub struct DriverModel {
    /// Which vendor this driver belongs to.
    pub vendor: Vendor,
    /// The driver's pass list, each pass with its stage id, built once by
    /// [`DriverModel::preset`].
    stages: Vec<(Pass, usize)>,
}

/// The knobs that set one vendor's internal compiler apart.
struct Personality {
    /// Internal loop unrolling up to this trip count (0 = none).
    unroll_trip_limit: usize,
    /// Internal global value numbering.
    gvn: bool,
    /// Internal if-conversion for branches up to this many statements
    /// (0 = none).
    hoist_limit: usize,
    /// Internal constant-division-to-multiplication rewriting.
    div_to_mul: bool,
    /// Internal coalescing of per-component vector writes.
    coalesce: bool,
}

impl Personality {
    /// The pass list this personality runs.
    fn passes(&self) -> Vec<Pass> {
        // Every real driver compiles through an SSA IR, so the renaming pass
        // is part of the baseline canonicalisation here too.
        let mut passes = vec![Pass::Rename, Pass::ConstFold, Pass::Cse, Pass::Dce];
        if self.unroll_trip_limit > 0 {
            passes.extend([
                unroll(self.unroll_trip_limit),
                Pass::Rename,
                Pass::ConstFold,
            ]);
        }
        if self.hoist_limit > 0 {
            passes.push(hoist(self.hoist_limit));
        }
        if self.coalesce {
            passes.push(Pass::Coalesce);
        }
        if self.gvn {
            passes.push(Pass::Gvn);
        }
        if self.div_to_mul {
            passes.push(Pass::DivToMul);
        }
        passes.extend([Pass::ConstFold, Pass::Cse, Pass::Dce]);
        passes
    }
}

impl DriverModel {
    /// The calibrated driver model for one of the paper's platforms.
    ///
    /// * **NVIDIA** — mature proprietary stack: unrolls, value-numbers,
    ///   if-converts small branches, folds constant division.
    /// * **Intel** (Mesa i965, 2017) — unrolls and folds constant division;
    ///   modest if-conversion.
    /// * **AMD** (Mesa/Gallium, 2017) — little loop optimization at the GLSL
    ///   level; folds constant division; basic GVN.
    /// * **ARM** (Mali) — conservative: canonicalisation plus constant
    ///   division folding only.
    /// * **Qualcomm** (Adreno) — canonicalisation and small-branch
    ///   if-conversion; no internal unrolling, keeps division as issued.
    /// * **RADV** (Mesa Vulkan, 2017) — young NIR stack: value-numbers and
    ///   if-converts, but no loop unrolling yet and keeps division as
    ///   issued (same silicon as AMD-GL, different compiler personality).
    /// * **Apple** (Metal, 2016) — LLVM-based: solid scalar optimization
    ///   (GVN, if-conversion, constant-division folding) but no
    ///   source-level loop restructuring at AIR build time.
    pub fn preset(vendor: Vendor) -> DriverModel {
        let personality = match vendor {
            Vendor::Nvidia => Personality {
                unroll_trip_limit: 64,
                gvn: true,
                hoist_limit: 4,
                div_to_mul: true,
                coalesce: true,
            },
            Vendor::Intel => Personality {
                unroll_trip_limit: 32,
                gvn: true,
                hoist_limit: 2,
                div_to_mul: true,
                coalesce: true,
            },
            Vendor::Amd => Personality {
                unroll_trip_limit: 0,
                gvn: true,
                hoist_limit: 2,
                div_to_mul: true,
                coalesce: true,
            },
            Vendor::Arm => Personality {
                unroll_trip_limit: 0,
                gvn: false,
                hoist_limit: 0,
                div_to_mul: true,
                coalesce: false,
            },
            Vendor::Qualcomm => Personality {
                unroll_trip_limit: 0,
                gvn: false,
                hoist_limit: 3,
                div_to_mul: false,
                coalesce: false,
            },
            Vendor::Radv => Personality {
                unroll_trip_limit: 0,
                gvn: true,
                hoist_limit: 3,
                div_to_mul: false,
                coalesce: true,
            },
            Vendor::Apple => Personality {
                unroll_trip_limit: 0,
                gvn: true,
                hoist_limit: 2,
                div_to_mul: true,
                coalesce: true,
            },
        };
        let stages = personality
            .passes()
            .into_iter()
            .map(|pass| {
                let id = DRIVER_STAGES
                    .iter()
                    .position(|p| *p == pass)
                    .expect("every preset pass has a stage id");
                (pass, id)
            })
            .collect();
        DriverModel { vendor, stages }
    }

    /// The back half of driver compilation: the vendor's internal passes
    /// over IR that a front end has already produced. Every platform arrives
    /// here with the verified IR of
    /// [`prism_core::front`](fn@prism_core::front).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if the IR is (or a pass makes it)
    /// structurally invalid.
    pub fn compile_ir(&self, mut ir: Shader, name: &str) -> Result<Shader, CompileError> {
        ir.name = name.to_string();
        for _ in 0..DRIVER_ROUNDS {
            let mut changed = false;
            for (pass, _) in &self.stages {
                changed |= pass.run(&mut ir);
            }
            if !changed {
                break;
            }
        }
        verify(&ir).map_err(CompileError::Verify)?;
        Ok(ir)
    }

    /// The pass list this driver runs, in order, each pass with its stable
    /// stage id: one id per (pass, parameter) pair, the same for every
    /// vendor, below 64.
    pub fn stages(&self) -> &[(Pass, usize)] {
        &self.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOPY: &str = "uniform sampler2D tex; uniform vec4 ambient; in vec2 uv; out vec4 c;\n\
        void main() {\n\
          const vec2[] offs = vec2[](vec2(-0.01), vec2(0.0), vec2(0.01));\n\
          c = vec4(0.0);\n\
          float total = 0.0;\n\
          for (int i = 0; i < 3; i++) { total += 0.25; c += texture(tex, uv + offs[i]) * 2.0 * ambient; }\n\
          c /= total;\n\
        }";

    #[test]
    fn presets_differ_in_maturity() {
        let runs = |vendor, wanted: fn(&Pass) -> bool| {
            DriverModel::preset(vendor)
                .stages()
                .iter()
                .any(|(pass, _)| wanted(pass))
        };
        let unrolls = |p: &Pass| matches!(p, Pass::Unroll(_));
        assert!(runs(Vendor::Nvidia, unrolls));
        assert!(!runs(Vendor::Amd, unrolls));
        assert!(!runs(Vendor::Arm, |p| *p == Pass::Gvn));
        assert!(!runs(Vendor::Qualcomm, |p| *p == Pass::DivToMul));
        assert!(runs(Vendor::Intel, |p| *p == Pass::DivToMul));
    }

    /// What a desktop GLSL driver makes of `glsl`: the front door, then the
    /// driver's passes.
    fn compile(driver: &DriverModel, glsl: &str, name: &str) -> Result<Shader, CompileError> {
        let front = prism_core::front(prism_emit::BackendKind::DesktopGlsl, glsl, name)?;
        driver.compile_ir(front.ir, name)
    }

    #[test]
    fn nvidia_driver_unrolls_internally_but_amd_does_not() {
        let nv = compile(&DriverModel::preset(Vendor::Nvidia), LOOPY, "loopy").unwrap();
        let amd = compile(&DriverModel::preset(Vendor::Amd), LOOPY, "loopy").unwrap();
        assert_eq!(nv.loop_count(), 0, "NVIDIA's JIT unrolls the constant loop");
        assert_eq!(
            amd.loop_count(),
            1,
            "2017 Mesa/AMD leaves the loop in place"
        );
        // NVIDIA's unrolled code contains all three samples statically; AMD's
        // rolled loop keeps the single sample inside the loop body.
        assert_eq!(nv.texture_op_count(), 3);
        assert_eq!(amd.texture_op_count(), 1);
    }

    #[test]
    fn driver_compilation_is_deterministic() {
        let d = DriverModel::preset(Vendor::Qualcomm);
        let a = compile(&d, LOOPY, "loopy").unwrap();
        let b = compile(&d, LOOPY, "loopy").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_glsl_is_rejected() {
        let d = DriverModel::preset(Vendor::Intel);
        assert!(compile(&d, "void main() { oops }", "bad").is_err());
    }
}
