//! The per-fragment execution cost model and the static pipe walk.
//!
//! [`FragmentCost`] converts [`IsaStats`] into an estimated cycle count
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
//!
//! [`pipe_paths`] is the static view of the same device: it walks the IR
//! without running it and splits the cycles of the **shortest and longest**
//! execution path across the arithmetic, load/store and texture pipes —
//! conditionals pick their cheaper/dearer side under the device's own
//! weighting, and counted loops multiply their body by the static trip
//! count. Its Arm longest path is the paper's Fig. 4b number
//! ([`Platform::static_cycles`](crate::Platform::static_cycles)), and
//! `prism_analyze`'s per-platform cost models are built on it.

use crate::isa::IsaStats;
use crate::vendor::{AluStyle, DeviceSpec};
use prism_ir::prelude::*;
use prism_ir::stmt::trip_count;
use prism_ir::verify::operand_ty;

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

/// Cycle totals for the three Mali-style execution pipes, the decomposition
/// the paper's Fig. 4b plots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipeCycles {
    /// Arithmetic-pipe cycles (simple ALU, transcendentals, divides,
    /// selects, branch and loop bookkeeping).
    pub arithmetic: f64,
    /// Load/store-pipe cycles (interface reads, moves/shuffles, constant
    /// array loads, output writes).
    pub load_store: f64,
    /// Texture-pipe cycles.
    pub texture: f64,
}

impl PipeCycles {
    /// Sum of the three pipes.
    pub fn total(&self) -> f64 {
        self.arithmetic + self.load_store + self.texture
    }

    /// The dominant pipe (what the shader is bound by on this path).
    pub fn bound_by(&self) -> &'static str {
        if self.texture >= self.arithmetic && self.texture >= self.load_store {
            "texture"
        } else if self.arithmetic >= self.load_store {
            "arithmetic"
        } else {
            "load_store"
        }
    }

    fn add(&mut self, other: &PipeCycles) {
        self.arithmetic += other.arithmetic;
        self.load_store += other.load_store;
        self.texture += other.texture;
    }
}

/// Per-pipe cycles of `shader` on `spec` along its cheapest and its dearest
/// execution path, as `(shortest, longest)`. Both include the
/// path-independent interface traffic: every input and uniform is read once
/// through the load/store pipe.
pub fn pipe_paths(spec: &DeviceSpec, shader: &Shader) -> (PipeCycles, PipeCycles) {
    let mut shortest = PipeCycles::default();
    let mut longest = PipeCycles::default();
    let interface = (shader.inputs.len() as f64 * 0.5 + shader.uniforms.len() as f64 * 0.25)
        / spec.alu_per_cycle.max(1.0);
    shortest.load_store += interface;
    longest.load_store += interface;
    walk(spec, shader, &shader.body, 1.0, &mut shortest, &mut longest);
    (shortest, longest)
}

/// Walks one statement list, accumulating shortest- and longest-path cycles
/// in lockstep. `scale` is the product of enclosing loop trip counts.
fn walk(
    spec: &DeviceSpec,
    shader: &Shader,
    body: &[Stmt],
    scale: f64,
    shortest: &mut PipeCycles,
    longest: &mut PipeCycles,
) {
    for stmt in body {
        match stmt {
            Stmt::Def { dst, op } => {
                let cycles = op_cycles(spec, shader, *dst, op, scale);
                shortest.add(&cycles);
                longest.add(&cycles);
            }
            Stmt::StoreOutput { .. } => {
                let c = scale * 0.5 / spec.alu_per_cycle.max(1.0);
                shortest.load_store += c;
                longest.load_store += c;
            }
            Stmt::Discard { .. } => {
                let c = scale / spec.alu_per_cycle.max(1.0);
                shortest.arithmetic += c;
                longest.arithmetic += c;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                let branch = scale * spec.branch_cost;
                shortest.arithmetic += branch;
                longest.arithmetic += branch;
                let paths = |side: &[Stmt]| {
                    let (mut short, mut long) = (PipeCycles::default(), PipeCycles::default());
                    walk(spec, shader, side, scale, &mut short, &mut long);
                    (short, long)
                };
                let (then_short, then_long) = paths(then_body);
                let (else_short, else_long) = paths(else_body);
                // Cheapest side on the shortest path, dearest on the
                // longest — per *this* device's weighting, which is why the
                // walk is parameterised rather than post-weighted.
                shortest.add(if then_short.total() <= else_short.total() {
                    &then_short
                } else {
                    &else_short
                });
                longest.add(if then_long.total() >= else_long.total() {
                    &then_long
                } else {
                    &else_long
                });
            }
            Stmt::Loop {
                start,
                end,
                step,
                body: loop_body,
                ..
            } => {
                let trips = trip_count(*start, *end, *step) as f64;
                let overhead = scale * trips * spec.loop_overhead;
                shortest.arithmetic += overhead;
                longest.arithmetic += overhead;
                walk(spec, shader, loop_body, scale * trips, shortest, longest);
            }
        }
    }
}

/// Cycle cost of one operation, split across the three pipes.
fn op_cycles(spec: &DeviceSpec, shader: &Shader, dst: Reg, op: &Op, scale: f64) -> PipeCycles {
    let mut cycles = PipeCycles::default();
    let throughput = spec.alu_per_cycle.max(1.0);
    let dst_width = shader.reg_ty(dst).width as f64;
    let width_of = |a: &Operand| operand_ty(shader, a).map_or(1.0, |ty| f64::from(ty.width));
    // Scalar ALUs pay per lane; the vec4 ALU pays one slot whatever the
    // width (scalar work wastes the remaining lanes).
    let lanes = |width: f64| match spec.alu_style {
        AluStyle::Scalar => width.max(1.0),
        AluStyle::Vec4 => 1.0,
    };
    match op {
        Op::Binary(bop, a, b) => {
            let width = width_of(a).max(width_of(b));
            let factor = match bop {
                BinaryOp::Div | BinaryOp::Mod => spec.divide_factor,
                _ => 1.0,
            };
            cycles.arithmetic += scale * lanes(width) * factor / throughput;
        }
        Op::Unary(_, a) => {
            cycles.arithmetic += scale * lanes(width_of(a)) / throughput;
        }
        Op::Select { .. } => {
            cycles.arithmetic += scale * lanes(dst_width) / throughput;
        }
        Op::Convert { .. } => {
            cycles.arithmetic += scale * lanes(dst_width) / throughput;
        }
        Op::Intrinsic(i, args) => {
            let width = args.iter().map(width_of).fold(1.0, f64::max);
            let factor = if i.is_transcendental() {
                spec.transcendental_factor
            } else {
                2.0
            };
            cycles.arithmetic += scale * lanes(width) * factor / throughput;
        }
        Op::TextureSample { .. } => {
            cycles.texture += scale * spec.texture_cost;
        }
        Op::ConstArrayLoad { .. } => {
            cycles.load_store += scale * lanes(dst_width) / throughput;
        }
        Op::Mov(Operand::Uniform(_)) | Op::Mov(Operand::Input(_)) => {
            cycles.load_store += scale * 0.5 * lanes(dst_width) / throughput;
        }
        Op::Mov(_)
        | Op::Splat { .. }
        | Op::Construct { .. }
        | Op::Extract { .. }
        | Op::Insert { .. }
        | Op::Swizzle { .. } => {
            cycles.load_store += scale * 0.5 * lanes(dst_width) / throughput;
        }
    }
    cycles
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

    fn texture_heavy_shader() -> Shader {
        let mut s = Shader::new("texbound");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.samplers.push(SamplerVar {
            name: "t".into(),
            dim: TextureDim::Dim2D,
        });
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        let mut acc = s.new_reg(IrType::fvec(4));
        let mut body = vec![Stmt::Def {
            dst: acc,
            op: Op::Splat {
                ty: IrType::fvec(4),
                value: Operand::float(0.0),
            },
        }];
        for _ in 0..8 {
            let t = s.new_reg(IrType::fvec(4));
            let sum = s.new_reg(IrType::fvec(4));
            body.push(Stmt::Def {
                dst: t,
                op: Op::TextureSample {
                    sampler: 0,
                    coords: Operand::Input(0),
                    lod: None,
                    dim: TextureDim::Dim2D,
                },
            });
            body.push(Stmt::Def {
                dst: sum,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Reg(t)),
            });
            acc = sum;
        }
        body.push(Stmt::StoreOutput {
            output: 0,
            components: None,
            value: Operand::Reg(acc),
        });
        s.body = body;
        s
    }

    #[test]
    fn texture_heavy_shader_is_texture_bound() {
        let s = texture_heavy_shader();
        let (shortest, longest) = pipe_paths(&DeviceSpec::preset(Vendor::Arm), &s);
        assert_eq!(longest.bound_by(), "texture");
        assert!(longest.total() > 8.0);
        // Straight-line code has one path.
        assert_eq!(shortest, longest);
    }

    #[test]
    fn loops_multiply_and_longest_branch_wins() {
        // A 4-trip loop of one add, then a branch whose `then` side is one
        // multiply and whose `else` side is six adds: the longest path takes
        // the six, the shortest the one.
        let mut s = Shader::new("paths");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let a = s.new_reg(IrType::fvec(4));
        let add = || Stmt::Def {
            dst: a,
            op: Op::Binary(BinaryOp::Add, Operand::Reg(a), Operand::fvec(vec![1.0; 4])),
        };
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 4,
                step: 1,
                body: vec![add()],
            },
            Stmt::If {
                cond: Operand::boolean(false),
                then_body: vec![Stmt::Def {
                    dst: a,
                    op: Op::Binary(BinaryOp::Mul, Operand::Reg(a), Operand::fvec(vec![2.0; 4])),
                }],
                else_body: (0..6).map(|_| add()).collect(),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        for vendor in Vendor::ALL {
            let spec = DeviceSpec::preset(vendor);
            let (shortest, longest) = pipe_paths(&spec, &s);
            let lanes = match spec.alu_style {
                AluStyle::Scalar => 4.0,
                AluStyle::Vec4 => 1.0,
            };
            let op = lanes / spec.alu_per_cycle.max(1.0);
            let loop_part = 4.0 * op + 4.0 * spec.loop_overhead;
            let branch = spec.branch_cost;
            assert!(
                (longest.arithmetic - (loop_part + branch + 6.0 * op)).abs() < 1e-9,
                "{vendor}: {longest:?}"
            );
            assert!(
                (shortest.arithmetic - (loop_part + branch + op)).abs() < 1e-9,
                "{vendor}: {shortest:?}"
            );
            assert_eq!(longest.bound_by(), "arithmetic", "{vendor}");
        }
    }
}
