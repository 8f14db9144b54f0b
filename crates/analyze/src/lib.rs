//! Static analysis layer: per-platform cost models and an IR lint engine.
//!
//! The paper characterises shader complexity with ARM's offline static
//! analyser (Fig. 4b) — per-pipe cycle counts without running a frame. The
//! per-pipe walk itself is [`prism_gpu::cost::pipe_paths`], the one walk
//! that [`Platform::static_cycles`](prism_gpu::Platform::static_cycles)
//! also reads Fig. 4b from; this crate builds the static-analysis subsystem
//! on it:
//!
//! * [`CostModel`] — per-pipe (arithmetic / load-store / texture) cycle
//!   counts along the **shortest and longest** execution path, loop-trip
//!   aware, with a register-pressure estimate from
//!   [`prism_ir::analysis::Liveness`], parameterised by each of the seven
//!   platform personalities in [`prism_gpu::Vendor`] (scalar vs vec4 ALU,
//!   per-class throughput, register budget) instead of one hardcoded table;
//! * [`lint`](mod@lint) — rule-based diagnostics with stable ids and severities, in
//!   machine-readable JSON: AZP-style specialization sites
//!   (`uniform-foldable-expr`, `uniform-branch`), dead interface elements
//!   (`dead-output`, `unused-uniform`, `unused-sampler`) and optimization
//!   residue the passes left behind (`loop-invariant-missed`);
//! * [`StaticReport`] / [`analyze`] — the combined per-`(shader,
//!   personality)` artifact that the serve plane memoises in the corpus
//!   cache and the search prefilter consumes.

pub mod cost;
pub mod lint;

pub use cost::{CostModel, CostSummary, PipeCycles};
pub use lint::{lint, Lint, Severity};

use prism_gpu::Vendor;
use prism_ir::Shader;

/// The complete static-analysis artifact for one shader under one platform
/// personality: the cost-model summary plus the (platform-independent) lint
/// diagnostics. This is what the corpus cache memoises per
/// `(fingerprint, personality)` and what an `analyze` request returns.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticReport {
    /// Shader name the report was computed for.
    pub shader: String,
    /// Platform personality name (one of [`Vendor::name`]).
    pub personality: String,
    /// Per-pipe cost model output.
    pub cost: CostSummary,
    /// Lint diagnostics, in source order.
    pub lints: Vec<Lint>,
}

serde::impl_serde_struct!(StaticReport {
    shader,
    personality,
    cost,
    lints
});

impl StaticReport {
    /// Serialises the report to its machine-readable JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message if serialisation fails (it cannot for this type).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Parses a report back from [`StaticReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not a serialised report.
    pub fn from_json(text: &str) -> Result<StaticReport, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Runs the full static-analysis layer — cost model plus lints — for one
/// shader under one platform personality.
pub fn analyze(shader: &Shader, vendor: Vendor) -> StaticReport {
    StaticReport {
        shader: shader.name.clone(),
        personality: vendor.name().to_string(),
        cost: CostModel::for_vendor(vendor).cost(shader),
        lints: lint(shader),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::prelude::*;

    fn blur_like() -> Shader {
        let mut s = Shader::new("report-test");
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        s.uniforms.push(UniformVar {
            name: "gain".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        let t = s.new_reg(IrType::fvec(4));
        let g = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: t,
                op: Op::TextureSample {
                    sampler: 0,
                    coords: Operand::Input(0),
                    lod: None,
                    dim: TextureDim::Dim2D,
                },
            },
            Stmt::Def {
                dst: g,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(t), Operand::Uniform(0)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(g),
            },
        ];
        s
    }

    #[test]
    fn report_round_trips_json_for_every_personality() {
        let s = blur_like();
        for vendor in Vendor::ALL {
            let report = analyze(&s, vendor);
            assert_eq!(report.personality, vendor.name());
            assert!(report.cost.estimated_cycles > 0.0);
            let restored = StaticReport::from_json(&report.to_json().unwrap()).unwrap();
            assert_eq!(restored, report);
        }
    }

    #[test]
    fn personalities_disagree_on_the_same_shader() {
        // The whole point of per-platform models: the same IR must cost
        // differently on a Mali vec4 ALU than on a desktop scalar ALU.
        let s = blur_like();
        let arm = analyze(&s, Vendor::Arm).cost.estimated_cycles;
        let nvidia = analyze(&s, Vendor::Nvidia).cost.estimated_cycles;
        assert_ne!(arm, nvidia);
    }
}
