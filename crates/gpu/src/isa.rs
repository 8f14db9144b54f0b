//! Lowering driver-compiled IR onto an abstract vendor ISA and counting what
//! the hardware would execute.
//!
//! The counts are *per fragment*: loops multiply their body by the trip
//! count, conditionals contribute the expected cost of the taken path (the
//! harness drives shaders with constant uniform inputs, so branches are
//! coherent across a wave), and a linear-scan liveness estimate provides the
//! register pressure figure the occupancy model consumes.

use prism_ir::prelude::*;
use prism_ir::stmt::trip_count;
use prism_ir::verify::operand_ty;

/// Per-fragment instruction statistics for one compiled shader.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IsaStats {
    /// Scalar-equivalent simple ALU operations (a vec4 add counts 4).
    pub scalar_alu: f64,
    /// Vector-slot operations (a vec4 add counts 1) — used by vec4 ALUs.
    pub vector_ops: f64,
    /// Transcendental operations (scalar-equivalent count).
    pub transcendental: f64,
    /// Floating point divisions (scalar-equivalent count).
    pub divisions: f64,
    /// Texture sample operations.
    pub texture_samples: f64,
    /// Register-to-register moves, splats and component shuffles.
    pub moves: f64,
    /// Select (conditional move) operations.
    pub selects: f64,
    /// Dynamic branches executed (conditionals remaining in the code).
    pub branches: f64,
    /// Total loop iterations executed (for loop-overhead charging).
    pub loop_iterations: f64,
    /// Estimated peak number of live scalar register components.
    pub register_pressure: f64,
    /// Total instructions (any class), per fragment.
    pub instruction_count: f64,
}

impl IsaStats {
    /// Gathers statistics for a shader.
    pub fn of(shader: &Shader) -> IsaStats {
        let mut stats = IsaStats::default();
        count_body(shader, &shader.body, 1.0, &mut stats);
        stats.register_pressure = register_pressure(shader);
        stats
    }
}

fn count_body(shader: &Shader, body: &[Stmt], scale: f64, stats: &mut IsaStats) {
    for stmt in body {
        match stmt {
            Stmt::Def { dst, op } => count_op(shader, *dst, op, scale, stats),
            Stmt::StoreOutput { .. } => {
                stats.moves += scale;
                stats.instruction_count += scale;
            }
            Stmt::Discard { .. } => {
                stats.instruction_count += scale;
                stats.scalar_alu += scale;
                stats.vector_ops += scale;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                stats.branches += scale;
                stats.instruction_count += scale;
                // Constant-uniform inputs make branches coherent, so a wave
                // executes one side; we charge the expected (average) side.
                let mut then_stats = IsaStats::default();
                count_body(shader, then_body, scale, &mut then_stats);
                let mut else_stats = IsaStats::default();
                count_body(shader, else_body, scale, &mut else_stats);
                stats.add_scaled(&then_stats, 0.5);
                stats.add_scaled(&else_stats, 0.5);
            }
            Stmt::Loop {
                start,
                end,
                step,
                body: loop_body,
                ..
            } => {
                let trips = trip_count(*start, *end, *step) as f64;
                stats.loop_iterations += scale * trips;
                stats.instruction_count += scale * trips; // loop bookkeeping
                count_body(shader, loop_body, scale * trips, stats);
            }
        }
    }
}

impl IsaStats {
    fn add_scaled(&mut self, other: &IsaStats, factor: f64) {
        self.scalar_alu += other.scalar_alu * factor;
        self.vector_ops += other.vector_ops * factor;
        self.transcendental += other.transcendental * factor;
        self.divisions += other.divisions * factor;
        self.texture_samples += other.texture_samples * factor;
        self.moves += other.moves * factor;
        self.selects += other.selects * factor;
        self.branches += other.branches * factor;
        self.loop_iterations += other.loop_iterations * factor;
        self.instruction_count += other.instruction_count * factor;
    }
}

fn count_op(shader: &Shader, dst: Reg, op: &Op, scale: f64, stats: &mut IsaStats) {
    let dst_width = shader.reg_ty(dst).width as f64;
    let width_of = |a: &Operand| operand_ty(shader, a).map_or(1.0, |ty| f64::from(ty.width));
    stats.instruction_count += scale;
    match op {
        Op::Mov(a) => {
            // Copies of constants/inputs still occupy an issue slot but are
            // usually folded into operands downstream; charge a light move.
            stats.moves += scale * width_of(a).min(dst_width);
        }
        Op::Binary(bop, a, b) => {
            let width = width_of(a).max(width_of(b)).max(1.0);
            match bop {
                BinaryOp::Div => {
                    if shader.reg_ty(dst).is_float() {
                        stats.divisions += scale * width;
                    } else {
                        stats.scalar_alu += scale * width;
                    }
                    stats.vector_ops += scale;
                }
                BinaryOp::Mod => {
                    stats.divisions += scale * width;
                    stats.vector_ops += scale;
                }
                _ => {
                    stats.scalar_alu += scale * width;
                    stats.vector_ops += scale;
                }
            }
        }
        Op::Unary(_, a) => {
            stats.scalar_alu += scale * width_of(a);
            stats.vector_ops += scale;
        }
        Op::Intrinsic(i, args) => {
            let width = args.iter().map(width_of).fold(1.0, f64::max);
            if i.is_transcendental() {
                stats.transcendental += scale * width;
            } else {
                // dot/min/max/mix style intrinsics: a couple of ALU ops.
                stats.scalar_alu += scale * width * 2.0;
            }
            stats.vector_ops += scale;
        }
        Op::TextureSample { .. } => {
            stats.texture_samples += scale;
            stats.vector_ops += scale;
        }
        Op::Construct { parts, .. } => {
            stats.moves += scale * parts.len() as f64;
            stats.vector_ops += scale;
        }
        Op::Splat { .. } => {
            stats.moves += scale * dst_width;
            stats.vector_ops += scale;
        }
        Op::Extract { .. } | Op::Swizzle { .. } => {
            stats.moves += scale * dst_width;
            stats.vector_ops += scale;
        }
        Op::Insert { .. } => {
            stats.moves += scale * 1.0;
            stats.vector_ops += scale;
        }
        Op::Select { .. } => {
            stats.selects += scale * dst_width;
            stats.vector_ops += scale;
        }
        Op::ConstArrayLoad { .. } => {
            stats.moves += scale * dst_width;
            stats.vector_ops += scale;
        }
        Op::Convert { .. } => {
            stats.scalar_alu += scale * dst_width;
            stats.vector_ops += scale;
        }
    }
}

/// Estimates peak register pressure (live scalar components) with a linear
/// scan over the linearised execution order.
pub fn register_pressure(shader: &Shader) -> f64 {
    // Linearise: statements in order; loop bodies once; both branch sides.
    let mut order: Vec<&Stmt> = Vec::new();
    linearise(&shader.body, &mut order);

    // First definition and last use index per register, dense by register
    // number. A register outside the shader's table (malformed IR) grows
    // the tables instead of panicking, as `Analysis` does.
    let mut first_def = vec![NEVER; shader.regs.len()];
    let mut last_use = vec![NEVER; shader.regs.len()];
    for (idx, stmt) in order.iter().enumerate() {
        let defined = match stmt {
            Stmt::Def { dst, .. } => {
                // A redefinition keeps the register alive through this point.
                *slot(&mut last_use, *dst) = idx;
                Some(*dst)
            }
            Stmt::Loop { var, .. } => Some(*var),
            _ => None,
        };
        if let Some(reg) = defined {
            let first = slot(&mut first_def, reg);
            if *first == NEVER {
                *first = idx;
            }
        }
        for o in stmt.operands() {
            if let Operand::Reg(r) = o {
                *slot(&mut last_use, *r) = idx;
            }
        }
    }

    // Each register's width goes live at its first definition and dies one
    // past its last use. Widths are small integers, so every per-statement
    // sum (and the running total) is exact in `f64`, whatever the order.
    let mut delta = vec![0.0f64; order.len() + 1];
    for (index, &def_idx) in first_def.iter().enumerate() {
        if def_idx == NEVER {
            continue;
        }
        let end_idx = match last_use.get(index) {
            Some(&used) if used != NEVER => used,
            _ => def_idx,
        };
        let width = shader.reg_ty(Reg(index as u32)).width as f64;
        delta[def_idx] += width;
        delta[end_idx + 1] -= width;
    }
    let mut max_live = 0.0f64;
    let mut live = 0.0f64;
    for d in delta {
        live += d;
        max_live = max_live.max(live);
    }
    // Interpolated inputs occupy registers for the whole shader.
    let input_regs: f64 = shader.inputs.iter().map(|i| i.ty.width as f64).sum();
    max_live + input_regs
}

/// The statement index of a register [`register_pressure`] never saw
/// defined or used.
const NEVER: usize = usize::MAX;

/// `table`'s entry for `reg`, growing the table with [`NEVER`] for a
/// register past its end.
fn slot(table: &mut Vec<usize>, reg: Reg) -> &mut usize {
    let index = reg.0 as usize;
    if index >= table.len() {
        table.resize(index + 1, NEVER);
    }
    &mut table[index]
}

fn linearise<'a>(body: &'a [Stmt], out: &mut Vec<&'a Stmt>) {
    for stmt in body {
        out.push(stmt);
        match stmt {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                linearise(then_body, out);
                linearise(else_body, out);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => linearise(loop_body, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_shader() -> Shader {
        let mut s = Shader::new("isa");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        s.uniforms.push(UniformVar {
            name: "tint".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        let t = s.new_reg(IrType::fvec(4));
        let m = s.new_reg(IrType::fvec(4));
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
                dst: m,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(t), Operand::Uniform(0)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(m),
            },
        ];
        s
    }

    #[test]
    fn counts_basic_classes() {
        let stats = IsaStats::of(&simple_shader());
        assert_eq!(stats.texture_samples, 1.0);
        assert_eq!(stats.scalar_alu, 4.0);
        assert_eq!(stats.vector_ops, 2.0);
        assert!(stats.register_pressure >= 4.0);
        assert!(stats.instruction_count >= 3.0);
    }

    #[test]
    fn loops_scale_their_bodies() {
        let mut s = Shader::new("loop");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 9,
                step: 1,
                body: vec![Stmt::Def {
                    dst: acc,
                    op: Op::Binary(
                        BinaryOp::Add,
                        Operand::Reg(acc),
                        Operand::fvec(vec![0.1; 4]),
                    ),
                }],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(acc),
            },
        ];
        let stats = IsaStats::of(&s);
        assert_eq!(stats.loop_iterations, 9.0);
        assert_eq!(stats.scalar_alu, 36.0);
        // 9 adds inside the loop plus the splat before it.
        assert_eq!(stats.vector_ops, 10.0);
    }

    #[test]
    fn branches_charge_expected_cost() {
        let mut s = Shader::new("branch");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let out = s.new_reg(IrType::fvec(4));
        let heavy: Vec<Stmt> = (0..4)
            .map(|_| Stmt::Def {
                dst: out,
                op: Op::Binary(
                    BinaryOp::Add,
                    Operand::fvec(vec![1.0; 4]),
                    Operand::fvec(vec![2.0; 4]),
                ),
            })
            .collect();
        s.body = vec![
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: heavy,
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        let stats = IsaStats::of(&s);
        assert_eq!(stats.branches, 1.0);
        // 4 vec4 adds at 50% probability = 8 scalar-equivalent ops.
        assert_eq!(stats.scalar_alu, 8.0);
    }

    #[test]
    fn division_is_counted_separately() {
        let mut s = Shader::new("div");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "u".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        let d = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: d,
                op: Op::Binary(
                    BinaryOp::Div,
                    Operand::Uniform(0),
                    Operand::fvec(vec![3.0; 4]),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(d),
            },
        ];
        let stats = IsaStats::of(&s);
        assert_eq!(stats.divisions, 4.0);
        assert_eq!(stats.scalar_alu, 0.0);
    }

    /// `dst = splat(value)` of a vec4.
    fn splat(dst: Reg, value: f64) -> Stmt {
        Stmt::Def {
            dst,
            op: Op::Splat {
                ty: IrType::fvec(4),
                value: Operand::float(value),
            },
        }
    }

    fn add(dst: Reg, a: Reg, b: Reg) -> Stmt {
        Stmt::Def {
            dst,
            op: Op::Binary(BinaryOp::Add, Operand::Reg(a), Operand::Reg(b)),
        }
    }

    fn store(value: Reg) -> Stmt {
        Stmt::StoreOutput {
            output: 0,
            components: None,
            value: Operand::Reg(value),
        }
    }

    #[test]
    fn register_pressure_counts_hand_cases_exactly() {
        // A redefinition keeps a register live up to it: `a` spans 0..=3
        // although nothing reads it, so it overlaps `b` (1..=2) and `c`
        // (2..=2): 12 components at statement 2.
        let mut s = Shader::new("redefined");
        let [a, b, c] = [(); 3].map(|_| s.new_reg(IrType::fvec(4)));
        s.body = vec![splat(a, 1.0), splat(b, 2.0), add(c, b, b), splat(a, 3.0)];
        assert_eq!(register_pressure(&s), 12.0);

        // A loop's induction variable is defined at the loop statement and
        // lives to its last use: `acc` (4) + `i` (1) + `f` (1) at statement 2.
        let mut s = Shader::new("induction");
        let acc = s.new_reg(IrType::fvec(4));
        let i = s.new_reg(IrType::I32);
        let f = s.new_reg(IrType::F32);
        let convert = Op::Convert {
            to: IrType::F32,
            value: Operand::Reg(i),
        };
        s.body = vec![
            splat(acc, 0.0),
            Stmt::Loop {
                var: i,
                start: 0,
                end: 4,
                step: 1,
                body: vec![
                    Stmt::Def {
                        dst: f,
                        op: convert,
                    },
                    add(acc, acc, f),
                ],
            },
            store(acc),
        ];
        assert_eq!(register_pressure(&s), 6.0);

        // A register used but never defined — here one outside the register
        // table — is never live; interpolated inputs always are.
        let mut s = Shader::new("undefined");
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        let b = s.new_reg(IrType::fvec(4));
        let mov = Op::Mov(Operand::Reg(Reg(99)));
        s.body = vec![Stmt::Def { dst: b, op: mov }, store(b)];
        assert_eq!(register_pressure(&s), 4.0 + 2.0);

        // Both sides of an `if` are scanned in order: the then side peaks at
        // `c` + `t` = 8, the else side at `c` + `e1` + `e2` = 12.
        let mut s = Shader::new("branches");
        let [c, t, e1, e2] = [(); 4].map(|_| s.new_reg(IrType::fvec(4)));
        s.body = vec![
            splat(c, 0.0),
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: vec![splat(t, 1.0), add(c, t, t)],
                else_body: vec![splat(e1, 2.0), splat(e2, 3.0), add(c, e1, e2)],
            },
            store(c),
        ];
        assert_eq!(register_pressure(&s), 12.0);
    }

    #[test]
    fn register_pressure_grows_with_live_values() {
        // Ten simultaneously live vec4 temporaries versus two.
        let mut big = Shader::new("big");
        big.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let regs: Vec<Reg> = (0..10).map(|_| big.new_reg(IrType::fvec(4))).collect();
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
        // Sum them all at the end so they are all live simultaneously.
        let mut acc = regs[0];
        for r in &regs[1..] {
            let next = big.new_reg(IrType::fvec(4));
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
        big.body = body;

        let mut small = Shader::new("small");
        small.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let a = small.new_reg(IrType::fvec(4));
        small.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        assert!(register_pressure(&big) > register_pressure(&small) + 20.0);
    }
}
