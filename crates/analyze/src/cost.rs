//! Per-platform static cost models.
//!
//! One [`CostModel`] per platform personality, derived from the calibrated
//! [`DeviceSpec`] presets: scalar ALUs charge per lane, the Mali-style vec4
//! ALU charges per vector slot, transcendentals and divides use the
//! per-platform factors, and exceeding the register budget applies the
//! platform's occupancy penalty. Unlike the dynamic model (which costs the
//! driver-parsed IR after measurement), this model runs on the optimizer's
//! own IR and reports **both** the shortest and the longest execution path,
//! as walked by [`prism_gpu::cost::pipe_paths`] — the same walk
//! [`Platform::static_cycles`](prism_gpu::Platform::static_cycles) reads
//! Fig. 4b from.

use prism_gpu::cost::pipe_paths;
pub use prism_gpu::cost::PipeCycles;
use prism_gpu::{AluStyle, DeviceSpec, Vendor};
use prism_ir::analysis::Liveness;
use prism_ir::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Cost-model output for one shader under one personality.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSummary {
    /// Personality name the model was parameterised with.
    pub personality: String,
    /// ALU issue style (`"scalar"` or `"vec4"`).
    pub alu_style: String,
    /// Per-pipe cycles along the cheapest execution path (every conditional
    /// takes its cheaper side).
    pub shortest: PipeCycles,
    /// Per-pipe cycles along the dearest execution path.
    pub longest: PipeCycles,
    /// Estimated peak live scalar register components (liveness-derived,
    /// plus interpolated inputs which stay resident the whole shader).
    pub registers_used: f64,
    /// Occupancy multiplier (≥ 1) once `registers_used` exceeds the
    /// personality's register budget.
    pub pressure_factor: f64,
    /// The single ranking scalar: midpoint of the shortest/longest path
    /// totals plus per-fragment overhead, scaled by the pressure factor.
    pub estimated_cycles: f64,
}

// `PipeCycles` lives in prism-gpu, which has no serde, so the summary's
// JSON form is written here: each path is one object of its three pipes.
fn pipes_to_value(pipes: &PipeCycles) -> Value {
    Value::Obj(vec![
        ("arithmetic".to_string(), pipes.arithmetic.to_value()),
        ("load_store".to_string(), pipes.load_store.to_value()),
        ("texture".to_string(), pipes.texture.to_value()),
    ])
}

fn pipes_from_value(v: &Value) -> Result<PipeCycles, String> {
    let pipe = |name: &str| match v.get(name) {
        Some(value) => f64::from_value(value),
        None => Err(format!("missing field `{name}` in PipeCycles")),
    };
    Ok(PipeCycles {
        arithmetic: pipe("arithmetic")?,
        load_store: pipe("load_store")?,
        texture: pipe("texture")?,
    })
}

impl Serialize for CostSummary {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("personality".to_string(), self.personality.to_value()),
            ("alu_style".to_string(), self.alu_style.to_value()),
            ("shortest".to_string(), pipes_to_value(&self.shortest)),
            ("longest".to_string(), pipes_to_value(&self.longest)),
            ("registers_used".to_string(), self.registers_used.to_value()),
            (
                "pressure_factor".to_string(),
                self.pressure_factor.to_value(),
            ),
            (
                "estimated_cycles".to_string(),
                self.estimated_cycles.to_value(),
            ),
        ])
    }
}

impl Deserialize for CostSummary {
    fn from_value(v: &Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| format!("missing field `{name}` in CostSummary"))
        };
        Ok(CostSummary {
            personality: String::from_value(field("personality")?)?,
            alu_style: String::from_value(field("alu_style")?)?,
            shortest: pipes_from_value(field("shortest")?)?,
            longest: pipes_from_value(field("longest")?)?,
            registers_used: f64::from_value(field("registers_used")?)?,
            pressure_factor: f64::from_value(field("pressure_factor")?)?,
            estimated_cycles: f64::from_value(field("estimated_cycles")?)?,
        })
    }
}

/// A static cost model parameterised by one platform personality.
#[derive(Debug, Clone)]
pub struct CostModel {
    spec: DeviceSpec,
}

impl CostModel {
    /// The model for one of the seven platform personalities.
    pub fn for_vendor(vendor: Vendor) -> CostModel {
        CostModel {
            spec: DeviceSpec::preset(vendor),
        }
    }

    /// Evaluates the model for one shader.
    pub fn cost(&self, shader: &Shader) -> CostSummary {
        let (shortest, longest) = pipe_paths(&self.spec, shader);

        let liveness = Liveness::of(shader);
        let input_lanes: f64 = shader.inputs.iter().map(|i| i.ty.width as f64).sum();
        let registers_used = liveness.peak_lanes() as f64 + input_lanes;
        let over_budget = (registers_used - self.spec.register_budget).max(0.0);
        let pressure_factor = 1.0 + over_budget * self.spec.pressure_penalty;

        // The expected path sits between the two extremes; adding the fixed
        // per-fragment overhead keeps ratios comparable with the dynamic
        // model's totals.
        let mid = 0.5 * (shortest.total() + longest.total());
        let estimated_cycles = (mid + self.spec.fragment_overhead) * pressure_factor;

        CostSummary {
            personality: self.spec.vendor.name().to_string(),
            alu_style: match self.spec.alu_style {
                AluStyle::Scalar => "scalar".to_string(),
                AluStyle::Vec4 => "vec4".to_string(),
            },
            shortest,
            longest,
            registers_used,
            pressure_factor,
            estimated_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branchy_shader() -> Shader {
        let mut s = Shader::new("branchy");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "mode".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        let cond = s.new_reg(IrType::BOOL);
        let a = s.new_reg(IrType::fvec(4));
        let heavy: Vec<Stmt> = (0..6)
            .map(|_| Stmt::Def {
                dst: a,
                op: Op::Binary(
                    BinaryOp::Mul,
                    Operand::fvec(vec![1.5; 4]),
                    Operand::fvec(vec![0.5; 4]),
                ),
            })
            .collect();
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Gt, Operand::Uniform(0), Operand::float(0.5)),
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: heavy,
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        s
    }

    #[test]
    fn shortest_path_is_never_dearer_than_longest() {
        let s = branchy_shader();
        for vendor in Vendor::ALL {
            let c = CostModel::for_vendor(vendor).cost(&s);
            assert!(
                c.shortest.total() <= c.longest.total() + 1e-12,
                "{vendor:?}: shortest {} > longest {}",
                c.shortest.total(),
                c.longest.total()
            );
        }
    }

    #[test]
    fn branchy_shader_splits_its_paths() {
        // The empty else side makes the shortest path strictly cheaper.
        let c = CostModel::for_vendor(Vendor::Amd).cost(&branchy_shader());
        assert!(c.shortest.total() < c.longest.total());
    }

    #[test]
    fn vec4_alu_ignores_scalar_narrowing_where_scalar_alus_gain() {
        // A wide op and a scalar op: the Mali model charges both one slot,
        // the scalar models charge 4 lanes vs 1.
        let mut wide = Shader::new("wide");
        wide.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let w = wide.new_reg(IrType::fvec(4));
        wide.body = vec![
            Stmt::Def {
                dst: w,
                op: Op::Binary(
                    BinaryOp::Add,
                    Operand::fvec(vec![1.0; 4]),
                    Operand::fvec(vec![2.0; 4]),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(w),
            },
        ];
        let mut narrow = Shader::new("narrow");
        narrow.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::F32,
        });
        let n = narrow.new_reg(IrType::F32);
        narrow.body = vec![
            Stmt::Def {
                dst: n,
                op: Op::Binary(BinaryOp::Add, Operand::float(1.0), Operand::float(2.0)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(n),
            },
        ];
        let mali = CostModel::for_vendor(Vendor::Arm);
        let adreno = CostModel::for_vendor(Vendor::Qualcomm);
        let mali_wide = mali.cost(&wide).longest.arithmetic;
        let mali_narrow = mali.cost(&narrow).longest.arithmetic;
        assert!(
            (mali_wide - mali_narrow).abs() < 1e-12,
            "vec4 ALU must not care"
        );
        assert!(adreno.cost(&wide).longest.arithmetic > adreno.cost(&narrow).longest.arithmetic);
    }

    #[test]
    fn register_pressure_penalises_small_register_files() {
        // 40 simultaneously live vec4 values: over Mali's budget of 32,
        // under AMD's 256.
        let mut s = Shader::new("pressure");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let regs: Vec<_> = (0..40).map(|_| s.new_reg(IrType::fvec(4))).collect();
        let mut body: Vec<Stmt> = regs
            .iter()
            .enumerate()
            .map(|(i, r)| Stmt::Def {
                dst: *r,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(i as f64),
                },
            })
            .collect();
        let mut acc = regs[0];
        for r in &regs[1..] {
            let next = s.new_reg(IrType::fvec(4));
            body.push(Stmt::Def {
                dst: next,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Reg(*r)),
            });
            acc = next;
        }
        body.push(Stmt::StoreOutput {
            output: 0,
            components: None,
            value: Operand::Reg(acc),
        });
        s.body = body;
        let mali = CostModel::for_vendor(Vendor::Arm).cost(&s);
        let amd = CostModel::for_vendor(Vendor::Amd).cost(&s);
        assert!(mali.pressure_factor > 1.5, "Mali: {}", mali.pressure_factor);
        assert!((amd.pressure_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loop_trips_multiply_the_body() {
        let mut s = Shader::new("loopy");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let a = s.new_reg(IrType::fvec(4));
        let body_stmt = |dst| Stmt::Def {
            dst,
            op: Op::Binary(
                BinaryOp::Add,
                Operand::fvec(vec![1.0; 4]),
                Operand::fvec(vec![1.0; 4]),
            ),
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
                end: 8,
                step: 1,
                body: vec![body_stmt(a)],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        let mut unrolled = Shader::new("unrolled");
        unrolled.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let b = unrolled.new_reg(IrType::fvec(4));
        let mut ub = vec![Stmt::Def {
            dst: b,
            op: Op::Splat {
                ty: IrType::fvec(4),
                value: Operand::float(0.0),
            },
        }];
        ub.extend((0..8).map(|_| body_stmt(b)));
        ub.push(Stmt::StoreOutput {
            output: 0,
            components: None,
            value: Operand::Reg(b),
        });
        unrolled.body = ub;
        let model = CostModel::for_vendor(Vendor::Intel);
        let rolled_cost = model.cost(&s);
        let unrolled_cost = model.cost(&unrolled);
        // Same arithmetic work in the body; the rolled form adds 8 loop
        // overheads on top.
        assert!(rolled_cost.longest.arithmetic > unrolled_cost.longest.arithmetic);
    }
}
