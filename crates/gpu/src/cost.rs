//! The per-fragment execution cost model.
//!
//! Converts [`IsaStats`] into an estimated cycle count
//! for one fragment on one device. The model is deliberately simple — an
//! additive ALU/texture/overhead decomposition with a register-pressure
//! multiplier — because that is what the paper's cross-platform effects hinge
//! on:
//!
//! * on desktop GPUs the ALU term is a modest fraction of a texture-heavy
//!   shader, so removing arithmetic buys single-digit percentages, while the
//!   weaker mobile ALUs make the same savings worth 30–45 % (Fig. 3);
//! * vec4 ALUs (Mali) charge a whole slot for scalar work, so the paper's
//!   scalar-grouping rewrite helps the scalar-ALU GPUs (Adreno, desktop) and
//!   not Mali;
//! * exceeding the per-thread register budget reduces occupancy; the penalty
//!   is mild on desktop and severe on mobile, producing the paper's
//!   pathological Hoist/Unroll slow-downs on the phones.

use crate::isa::IsaStats;
use crate::vendor::{AluStyle, DeviceSpec};

/// Cycle-level cost breakdown for one fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentCost {
    /// Cycles spent on arithmetic (simple + transcendental + divides + moves).
    pub alu_cycles: f64,
    /// Cycles attributed to texture sampling.
    pub texture_cycles: f64,
    /// Fixed pipeline and control-flow overhead cycles.
    pub overhead_cycles: f64,
    /// Multiplier (≥ 1) applied for register pressure / reduced occupancy.
    pub pressure_factor: f64,
    /// Estimated peak live registers used by the shader.
    pub registers_used: f64,
    /// Total cycles for one fragment, including the pressure factor.
    pub total_cycles: f64,
}

impl FragmentCost {
    /// Evaluates the cost model for one shader on one device.
    pub fn evaluate(stats: &IsaStats, spec: &DeviceSpec) -> FragmentCost {
        let alu_ops = match spec.alu_style {
            // Scalar SIMT: work is proportional to scalar-equivalent ops.
            AluStyle::Scalar => {
                stats.scalar_alu
                    + stats.selects
                    + stats.moves * 0.5
                    + stats.transcendental * spec.transcendental_factor
                    + stats.divisions * spec.divide_factor
            }
            // Vec4 ALU: work is proportional to vector slots, scalar work
            // wastes the remaining lanes (no benefit from narrower maths).
            AluStyle::Vec4 => {
                let base = stats.vector_ops + stats.moves * 0.25 + stats.selects * 0.25;
                base + stats.transcendental / 4.0 * spec.transcendental_factor
                    + stats.divisions / 4.0 * spec.divide_factor
            }
        };
        let alu_cycles = alu_ops / spec.alu_per_cycle;
        let texture_cycles = stats.texture_samples * spec.texture_cost;
        let overhead_cycles = spec.fragment_overhead
            + stats.branches * spec.branch_cost
            + stats.loop_iterations * spec.loop_overhead;

        let registers_used = stats.register_pressure;
        let over_budget = (registers_used - spec.register_budget).max(0.0);
        let pressure_factor = 1.0 + over_budget * spec.pressure_penalty;

        let total_cycles = (alu_cycles + texture_cycles + overhead_cycles) * pressure_factor;
        FragmentCost {
            alu_cycles,
            texture_cycles,
            overhead_cycles,
            pressure_factor,
            registers_used,
            total_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;

    fn stats(scalar_alu: f64, tex: f64) -> IsaStats {
        IsaStats {
            scalar_alu,
            vector_ops: scalar_alu / 4.0,
            texture_samples: tex,
            register_pressure: 16.0,
            instruction_count: scalar_alu / 4.0 + tex,
            ..IsaStats::default()
        }
    }

    #[test]
    fn alu_savings_matter_more_on_mobile() {
        let heavy = stats(400.0, 9.0);
        let light = stats(200.0, 9.0);
        let speedup = |vendor: Vendor| {
            let spec = DeviceSpec::preset(vendor);
            let before = FragmentCost::evaluate(&heavy, &spec).total_cycles;
            let after = FragmentCost::evaluate(&light, &spec).total_cycles;
            (before - after) / before
        };
        let desktop = speedup(Vendor::Nvidia);
        let mobile = speedup(Vendor::Qualcomm);
        assert!(
            mobile > desktop * 1.5,
            "mobile speedup {mobile:.3} should exceed desktop {desktop:.3}"
        );
    }

    #[test]
    fn vec4_alu_does_not_reward_scalar_narrowing() {
        // Same vector slots, fewer scalar-equivalent ops: scalar ALUs benefit,
        // the Mali-style vec4 ALU does not.
        let wide = IsaStats {
            scalar_alu: 160.0,
            vector_ops: 40.0,
            register_pressure: 16.0,
            ..IsaStats::default()
        };
        let narrowed = IsaStats {
            scalar_alu: 80.0,
            vector_ops: 40.0,
            register_pressure: 16.0,
            ..IsaStats::default()
        };
        let adreno = DeviceSpec::preset(Vendor::Qualcomm);
        let mali = DeviceSpec::preset(Vendor::Arm);
        let adreno_gain = FragmentCost::evaluate(&wide, &adreno).total_cycles
            - FragmentCost::evaluate(&narrowed, &adreno).total_cycles;
        let mali_gain = FragmentCost::evaluate(&wide, &mali).total_cycles
            - FragmentCost::evaluate(&narrowed, &mali).total_cycles;
        assert!(adreno_gain > 0.0);
        assert!(
            mali_gain.abs() < 1e-9,
            "vec4 ALU should see no gain, got {mali_gain}"
        );
    }

    #[test]
    fn register_pressure_hurts_mobile_more() {
        let tight = IsaStats {
            scalar_alu: 100.0,
            vector_ops: 25.0,
            register_pressure: 96.0,
            ..IsaStats::default()
        };
        let loose = IsaStats {
            scalar_alu: 100.0,
            vector_ops: 25.0,
            register_pressure: 16.0,
            ..IsaStats::default()
        };
        let penalty = |vendor: Vendor| {
            let spec = DeviceSpec::preset(vendor);
            FragmentCost::evaluate(&tight, &spec).total_cycles
                / FragmentCost::evaluate(&loose, &spec).total_cycles
        };
        assert!(penalty(Vendor::Arm) > 1.5, "Mali should fall off a cliff");
        assert!(
            penalty(Vendor::Amd) < 1.05,
            "the RX 480 has registers to spare"
        );
    }

    #[test]
    fn divisions_cost_more_than_multiplies() {
        let with_div = IsaStats {
            divisions: 4.0,
            vector_ops: 1.0,
            register_pressure: 8.0,
            ..IsaStats::default()
        };
        let with_mul = IsaStats {
            scalar_alu: 4.0,
            vector_ops: 1.0,
            register_pressure: 8.0,
            ..IsaStats::default()
        };
        for vendor in Vendor::ALL {
            let spec = DeviceSpec::preset(vendor);
            let div = FragmentCost::evaluate(&with_div, &spec).total_cycles;
            let mul = FragmentCost::evaluate(&with_mul, &spec).total_cycles;
            assert!(div > mul, "{vendor}: division should cost more");
        }
    }

    #[test]
    fn loop_overhead_is_charged_per_iteration() {
        let rolled = IsaStats {
            scalar_alu: 90.0,
            vector_ops: 22.5,
            loop_iterations: 9.0,
            register_pressure: 12.0,
            ..IsaStats::default()
        };
        let unrolled = IsaStats {
            scalar_alu: 90.0,
            vector_ops: 22.5,
            loop_iterations: 0.0,
            register_pressure: 12.0,
            ..IsaStats::default()
        };
        let amd = DeviceSpec::preset(Vendor::Amd);
        let a = FragmentCost::evaluate(&rolled, &amd).total_cycles;
        let b = FragmentCost::evaluate(&unrolled, &amd).total_cycles;
        assert!(a > b + 9.0 * amd.loop_overhead * 0.9);
    }
}
