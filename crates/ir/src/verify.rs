//! Structural and type verification of shader IR.
//!
//! Every optimization pass in `prism-core` is followed by a verifier run in
//! debug builds and in tests, so malformed rewrites are caught immediately
//! rather than surfacing as nonsense GLSL or bogus timing results.

use crate::hash::FxHashSet;
use crate::op::Op;
use crate::shader::Shader;
use crate::stmt::Stmt;
use crate::types::IrType;
use crate::value::{Operand, Reg};
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Human readable description of the problem.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR verification failed: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a shader, returning the first problem found.
///
/// Checks performed:
/// * every register referenced exists in the register table,
/// * every register use is preceded by a definition on all structured paths
///   reaching it (defined earlier in the same or an enclosing statement list,
///   or defined in *both* branches of an earlier `if`),
/// * operand indices (inputs, uniforms, samplers, outputs, const arrays) are
///   in range,
/// * every const array element has its element type's lane count,
/// * operation result widths match the destination register type,
/// * vector component indices are within the operand width,
/// * loop bounds describe a finite, forward-progressing loop.
pub fn verify(shader: &Shader) -> Result<(), VerifyError> {
    for array in &shader.const_arrays {
        let (name, width) = (&array.name, usize::from(array.elem_ty.width));
        if let Some(lanes) = array.elements.iter().map(Vec::len).find(|&n| n != width) {
            return Err(err(format!(
                "const array `{name}` has a {lanes}-lane element"
            )));
        }
    }
    let mut defined: FxHashSet<Reg> = FxHashSet::default();
    verify_body(shader, &shader.body, &mut defined)
}

fn err(message: impl Into<String>) -> VerifyError {
    VerifyError {
        message: message.into(),
    }
}

fn verify_body(
    shader: &Shader,
    body: &[Stmt],
    defined: &mut FxHashSet<Reg>,
) -> Result<(), VerifyError> {
    for stmt in body {
        verify_stmt(shader, stmt, defined)?;
    }
    Ok(())
}

fn verify_stmt(
    shader: &Shader,
    stmt: &Stmt,
    defined: &mut FxHashSet<Reg>,
) -> Result<(), VerifyError> {
    // All operands of the statement itself must already be defined.
    for operand in stmt.operands() {
        verify_operand(shader, operand, defined)?;
    }
    match stmt {
        Stmt::Def { dst, op } => {
            if dst.0 as usize >= shader.regs.len() {
                return Err(err(format!("register {dst} not allocated")));
            }
            verify_op(shader, *dst, op, defined)?;
            defined.insert(*dst);
        }
        Stmt::StoreOutput {
            output,
            components,
            value,
        } => {
            let out = shader
                .outputs
                .get(*output)
                .ok_or_else(|| err(format!("output index {output} out of range")))?;
            if let Some(comps) = components {
                if comps.is_empty() || comps.len() > 4 {
                    return Err(err("output component list must have 1-4 entries"));
                }
                for c in comps {
                    if *c >= out.ty.width {
                        return Err(err(format!(
                            "output component {c} out of range for {}",
                            out.ty
                        )));
                    }
                }
            } else {
                let vt = operand_ty(shader, value);
                if let Some(vt) = vt {
                    if vt.width != out.ty.width {
                        return Err(err(format!(
                            "store to output `{}` has width {} but output is {}",
                            out.name, vt.width, out.ty
                        )));
                    }
                }
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let ct = operand_ty(shader, cond);
            if let Some(ct) = ct {
                if !ct.is_bool() || !ct.is_scalar() {
                    return Err(err(format!("if condition must be scalar bool, found {ct}")));
                }
            }
            // Registers defined in only one branch must not leak out, but
            // registers defined in both branches are defined afterwards.
            let mut then_defined = defined.clone();
            verify_body(shader, then_body, &mut then_defined)?;
            let mut else_defined = defined.clone();
            verify_body(shader, else_body, &mut else_defined)?;
            for r in then_defined.intersection(&else_defined) {
                defined.insert(*r);
            }
        }
        Stmt::Loop {
            var,
            start,
            end,
            step,
            body,
        } => {
            if *step == 0 {
                return Err(err("loop step must be non-zero"));
            }
            if (*step > 0 && end < start) || (*step < 0 && end > start) {
                return Err(err(format!(
                    "loop bounds {start}..{end} step {step} never terminate or never run"
                )));
            }
            if var.0 as usize >= shader.regs.len() {
                return Err(err(format!("loop variable {var} not allocated")));
            }
            defined.insert(*var);
            // A loop body may execute zero times, so registers it defines are
            // conservatively NOT considered defined afterwards — except when
            // the trip count is statically at least one.
            let mut loop_defined = defined.clone();
            verify_body(shader, body, &mut loop_defined)?;
            let trips_at_least_once = (*step > 0 && start < end) || (*step < 0 && start > end);
            if trips_at_least_once {
                *defined = loop_defined;
            }
        }
        Stmt::Discard { .. } => {}
    }
    Ok(())
}

fn verify_operand(
    shader: &Shader,
    operand: &Operand,
    defined: &FxHashSet<Reg>,
) -> Result<(), VerifyError> {
    match operand {
        Operand::Reg(r) => {
            if r.0 as usize >= shader.regs.len() {
                return Err(err(format!("register {r} not allocated")));
            }
            if !defined.contains(r) {
                return Err(err(format!("register {r} used before definition")));
            }
        }
        Operand::Input(i) => {
            if *i >= shader.inputs.len() {
                return Err(err(format!("input index {i} out of range")));
            }
        }
        Operand::Uniform(u) => {
            if *u >= shader.uniforms.len() {
                return Err(err(format!("uniform index {u} out of range")));
            }
        }
        Operand::Const(_) => {}
    }
    Ok(())
}

/// Type of an operand when it can be determined locally.
pub fn operand_ty(shader: &Shader, operand: &Operand) -> Option<IrType> {
    match operand {
        Operand::Reg(r) => shader.regs.get(r.0 as usize).map(|i| i.ty),
        Operand::Const(c) => Some(c.ty()),
        Operand::Input(i) => shader.inputs.get(*i).map(|v| v.ty),
        Operand::Uniform(u) => shader.uniforms.get(*u).map(|v| v.ty),
    }
}

fn verify_op(
    shader: &Shader,
    dst: Reg,
    op: &Op,
    defined: &FxHashSet<Reg>,
) -> Result<(), VerifyError> {
    for operand in op.operands() {
        verify_operand(shader, operand, defined)?;
    }
    let dst_ty = shader.reg_ty(dst);
    match op {
        Op::Binary(bop, a, b) => {
            let at = operand_ty(shader, a);
            let bt = operand_ty(shader, b);
            if let (Some(at), Some(bt)) = (at, bt) {
                if at.width != bt.width {
                    return Err(err(format!(
                        "binary {bop:?} operand widths differ: {at} vs {bt}"
                    )));
                }
                if bop.is_comparison() || bop.is_logical() {
                    if !dst_ty.is_bool() {
                        return Err(err(format!(
                            "comparison/logical result must be bool, register {dst} is {dst_ty}"
                        )));
                    }
                } else if dst_ty.width != at.width {
                    return Err(err(format!(
                        "binary {bop:?} result width {} does not match register {dst} ({dst_ty})",
                        at.width
                    )));
                }
            }
        }
        Op::Extract { vector, index } => {
            if let Some(vt) = operand_ty(shader, vector) {
                if *index >= vt.width {
                    return Err(err(format!("extract index {index} out of range for {vt}")));
                }
            }
            if !dst_ty.is_scalar() {
                return Err(err(format!("extract result must be scalar, got {dst_ty}")));
            }
        }
        Op::Insert { vector, index, .. } => {
            if let Some(vt) = operand_ty(shader, vector) {
                if *index >= vt.width {
                    return Err(err(format!("insert index {index} out of range for {vt}")));
                }
                if dst_ty.width != vt.width {
                    return Err(err("insert result width must match vector operand"));
                }
            }
        }
        Op::Swizzle { vector, lanes } => {
            if lanes.is_empty() || lanes.len() > 4 {
                return Err(err("swizzle must select 1-4 lanes"));
            }
            if let Some(vt) = operand_ty(shader, vector) {
                for l in lanes {
                    if *l >= vt.width {
                        return Err(err(format!("swizzle lane {l} out of range for {vt}")));
                    }
                }
            }
            if dst_ty.width as usize != lanes.len() {
                return Err(err("swizzle result width must equal lane count"));
            }
        }
        Op::Construct { ty, parts } => {
            if parts.is_empty() {
                return Err(err("construct needs at least one part"));
            }
            if *ty != dst_ty {
                return Err(err(format!(
                    "construct type {ty} does not match destination {dst_ty}"
                )));
            }
            let total: u8 = parts
                .iter()
                .map(|p| operand_ty(shader, p).map(|t| t.width).unwrap_or(1))
                .sum();
            if parts.len() > 1 {
                if total != ty.width {
                    return Err(err(format!("construct of {ty} given {total} components")));
                }
            } else if total != ty.width && total != 1 {
                // A single part is either a same-width copy or a scalar
                // broadcast — a lone vec2 cannot build a vec4.
                return Err(err(format!(
                    "construct of {ty} from a single {total}-component part"
                )));
            }
        }
        Op::Splat { ty, value } => {
            if *ty != dst_ty {
                return Err(err("splat type must match destination"));
            }
            if let Some(vt) = operand_ty(shader, value) {
                if !vt.is_scalar() {
                    return Err(err("splat source must be scalar"));
                }
            }
        }
        Op::TextureSample { sampler, dim, .. } => {
            if *sampler >= shader.samplers.len() {
                return Err(err(format!("sampler index {sampler} out of range")));
            }
            if dim.sample_type() != dst_ty {
                return Err(err(format!(
                    "texture sample result should be {}, register is {dst_ty}",
                    dim.sample_type()
                )));
            }
        }
        Op::ConstArrayLoad { array, .. } => {
            let arr = shader
                .const_arrays
                .get(*array)
                .ok_or_else(|| err(format!("const array index {array} out of range")))?;
            if arr.elem_ty != dst_ty {
                return Err(err(format!(
                    "const array `{}` element type {} does not match register {dst_ty}",
                    arr.name, arr.elem_ty
                )));
            }
        }
        Op::Select {
            cond,
            if_true,
            if_false,
        } => {
            if let Some(ct) = operand_ty(shader, cond) {
                if !ct.is_bool() {
                    return Err(err("select condition must be bool"));
                }
            }
            let tt = operand_ty(shader, if_true);
            let ft = operand_ty(shader, if_false);
            if let (Some(tt), Some(ft)) = (tt, ft) {
                if tt.width != ft.width {
                    return Err(err("select arms must have equal widths"));
                }
            }
            // The result is one of the arms, so the destination must carry
            // whichever arm width is known.
            if let Some(at) = tt.or(ft) {
                if dst_ty.width != at.width {
                    return Err(err(format!(
                        "select arms have width {} but register {dst} is {dst_ty}",
                        at.width
                    )));
                }
            }
        }
        Op::Convert { to, .. } => {
            if *to != dst_ty {
                return Err(err("convert target type must match destination"));
            }
        }
        Op::Mov(src) => {
            // A move is a bit copy: the destination type must match the
            // source exactly (a retyped register cannot hide behind a Mov).
            if let Some(st) = operand_ty(shader, src) {
                if st != dst_ty {
                    return Err(err(format!(
                        "mov of {st} into register {dst} typed {dst_ty}"
                    )));
                }
            }
        }
        Op::Unary(uop, a) => {
            if let Some(at) = operand_ty(shader, a) {
                if at.width != dst_ty.width {
                    return Err(err(format!(
                        "unary {uop:?} operand is {at} but register {dst} is {dst_ty}"
                    )));
                }
                match uop {
                    crate::op::UnaryOp::Not => {
                        if !dst_ty.is_bool() || !at.is_bool() {
                            return Err(err("logical not requires bool operand and result"));
                        }
                    }
                    crate::op::UnaryOp::Neg => {
                        if dst_ty.is_bool() {
                            return Err(err("negation result cannot be bool"));
                        }
                    }
                }
            }
        }
        Op::Intrinsic(intr, args) => {
            let arity = intrinsic_arity(*intr);
            if args.len() != arity {
                return Err(err(format!(
                    "{} takes {arity} arguments, got {}",
                    intr.glsl_name(),
                    args.len()
                )));
            }
            use crate::op::Intrinsic as I;
            match intr {
                // Reductions produce a scalar whatever the operand width.
                I::Length | I::Distance | I::Dot if !dst_ty.is_scalar() => {
                    return Err(err(format!(
                        "{} result must be scalar, register {dst} is {dst_ty}",
                        intr.glsl_name()
                    )));
                }
                I::Cross if dst_ty.width != 3 => {
                    return Err(err(format!(
                        "cross result must be a 3-vector, register {dst} is {dst_ty}"
                    )));
                }
                I::Length | I::Distance | I::Dot | I::Cross => {}
                // Componentwise single-argument intrinsics preserve their
                // operand's width.
                I::Exp
                | I::Log
                | I::Sqrt
                | I::InverseSqrt
                | I::Sin
                | I::Cos
                | I::Abs
                | I::Sign
                | I::Floor
                | I::Fract
                | I::Normalize
                | I::DFdx
                | I::DFdy
                | I::Fwidth => {
                    if let Some(at) = operand_ty(shader, &args[0]) {
                        if at.width != dst_ty.width {
                            return Err(err(format!(
                                "{} of {at} cannot produce register {dst} typed {dst_ty}",
                                intr.glsl_name()
                            )));
                        }
                    }
                }
                // Multi-argument componentwise intrinsics allow scalar
                // broadcasting in some positions, so only arity is checked.
                _ => {}
            }
        }
    }
    Ok(())
}

/// Argument count of each intrinsic (the GLSL builtin signature).
fn intrinsic_arity(intr: crate::op::Intrinsic) -> usize {
    use crate::op::Intrinsic as I;
    match intr {
        I::Exp
        | I::Log
        | I::Sqrt
        | I::InverseSqrt
        | I::Sin
        | I::Cos
        | I::Abs
        | I::Sign
        | I::Floor
        | I::Fract
        | I::Length
        | I::Normalize
        | I::DFdx
        | I::DFdy
        | I::Fwidth => 1,
        I::Pow
        | I::Mod
        | I::Min
        | I::Max
        | I::Step
        | I::Distance
        | I::Dot
        | I::Cross
        | I::Reflect => 2,
        I::Clamp | I::Mix | I::Smoothstep | I::Refract => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BinaryOp;
    use crate::shader::{OutputVar, SamplerVar};
    use crate::types::TextureDim;
    use crate::value::Constant;

    fn base_shader() -> Shader {
        let mut s = Shader::new("v");
        s.outputs.push(OutputVar {
            name: "fragColor".into(),
            ty: IrType::fvec(4),
        });
        s
    }

    #[test]
    fn accepts_simple_valid_shader() {
        let mut s = base_shader();
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        assert!(verify(&s).is_ok());
    }

    #[test]
    fn rejects_use_before_def() {
        let mut s = base_shader();
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![Stmt::StoreOutput {
            output: 0,
            components: None,
            value: Operand::Reg(r),
        }];
        let e = verify(&s).unwrap_err();
        assert!(e.message.contains("before definition"));
    }

    #[test]
    fn rejects_width_mismatch() {
        let mut s = base_shader();
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::Binary(
                    BinaryOp::Add,
                    Operand::Const(Constant::FloatVec(vec![1.0, 2.0])),
                    Operand::float(3.0),
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        let e = verify(&s).unwrap_err();
        assert!(e.message.contains("widths differ"));
    }

    #[test]
    fn branch_local_register_does_not_escape() {
        let mut s = base_shader();
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: vec![Stmt::Def {
                    dst: r,
                    op: Op::Splat {
                        ty: IrType::fvec(4),
                        value: Operand::float(1.0),
                    },
                }],
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        assert!(verify(&s).is_err());
        // Defining it in both branches makes the use legal.
        let mut s2 = base_shader();
        let r2 = s2.new_reg(IrType::fvec(4));
        let mk = |v: f64| Stmt::Def {
            dst: r2,
            op: Op::Splat {
                ty: IrType::fvec(4),
                value: Operand::float(v),
            },
        };
        s2.body = vec![
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: vec![mk(1.0)],
                else_body: vec![mk(0.0)],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r2),
            },
        ];
        assert!(verify(&s2).is_ok());
    }

    #[test]
    fn rejects_bad_sampler_and_output_indices() {
        let mut s = base_shader();
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![Stmt::Def {
            dst: r,
            op: Op::TextureSample {
                sampler: 0,
                coords: Operand::fvec(vec![0.0, 0.0]),
                lod: None,
                dim: TextureDim::Dim2D,
            },
        }];
        assert!(verify(&s).is_err());
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        assert!(verify(&s).is_ok());
        s.body.push(Stmt::StoreOutput {
            output: 3,
            components: None,
            value: Operand::Reg(r),
        });
        assert!(verify(&s).is_err());
    }

    #[test]
    fn rejects_zero_step_loop() {
        let mut s = base_shader();
        let i = s.new_reg(IrType::I32);
        s.body = vec![Stmt::Loop {
            var: i,
            start: 0,
            end: 4,
            step: 0,
            body: vec![],
        }];
        assert!(verify(&s).unwrap_err().message.contains("non-zero"));
    }

    #[test]
    fn loop_body_defs_visible_when_loop_always_runs() {
        let mut s = base_shader();
        let i = s.new_reg(IrType::I32);
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Loop {
                var: i,
                start: 0,
                end: 3,
                step: 1,
                body: vec![Stmt::Def {
                    dst: r,
                    op: Op::Splat {
                        ty: IrType::fvec(4),
                        value: Operand::float(1.0),
                    },
                }],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        assert!(verify(&s).is_ok());
    }

    #[test]
    fn rejects_swizzle_out_of_range() {
        let mut s = base_shader();
        let v = s.new_reg(IrType::fvec(2));
        let w = s.new_reg(IrType::fvec(3));
        s.body = vec![
            Stmt::Def {
                dst: v,
                op: Op::Construct {
                    ty: IrType::fvec(2),
                    parts: vec![Operand::float(1.0), Operand::float(2.0)],
                },
            },
            Stmt::Def {
                dst: w,
                op: Op::Swizzle {
                    vector: Operand::Reg(v),
                    lanes: vec![0, 1, 2],
                },
            },
        ];
        assert!(verify(&s).unwrap_err().message.contains("out of range"));
    }

    #[test]
    fn rejects_a_const_array_element_of_the_wrong_width() {
        let mut s = base_shader();
        s.const_arrays.push(crate::shader::ConstArray {
            name: "w".into(),
            elem_ty: IrType::fvec(2),
            elements: vec![vec![0.1, 0.2], vec![0.3, 0.4]],
        });
        assert!(verify(&s).is_ok());
        for bad in [vec![], vec![0.3], vec![0.3, 0.4, 0.5]] {
            s.const_arrays[0].elements[1] = bad;
            let message = verify(&s).unwrap_err().message;
            assert!(message.contains("const array `w`"), "{message}");
        }
    }
}
