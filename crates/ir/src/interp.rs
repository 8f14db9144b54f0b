//! A reference interpreter for the prism IR.
//!
//! The interpreter executes a shader for a single fragment, given concrete
//! input, uniform and texture values, and returns the values written to the
//! shader outputs. It is the semantic oracle used by the test suite: every
//! optimization pass must leave the interpreted result (approximately, for
//! the unsafe floating-point passes) unchanged.

use crate::op::{BinaryOp, Intrinsic, Op, UnaryOp};
use crate::shader::Shader;
use crate::stmt::Stmt;
use crate::types::TextureDim;
use crate::value::{Constant, Operand, Reg};
use std::collections::HashMap;
use std::fmt;

/// A runtime value: a numeric vector of 1–4 lanes or a boolean.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Numeric value (floats and integers are both stored as `f64` lanes).
    Num(Vec<f64>),
    /// Boolean value.
    Bool(bool),
}

impl Val {
    /// Scalar numeric value.
    pub fn scalar(v: f64) -> Val {
        Val::Num(vec![v])
    }

    /// Numeric lanes of this value.
    ///
    /// Booleans convert to a single `0.0` / `1.0` lane.
    pub fn lanes(&self) -> Vec<f64> {
        match self {
            Val::Num(v) => v.clone(),
            Val::Bool(b) => vec![if *b { 1.0 } else { 0.0 }],
        }
    }

    /// Width (number of lanes) of the value.
    pub fn width(&self) -> usize {
        match self {
            Val::Num(v) => v.len(),
            Val::Bool(_) => 1,
        }
    }

    /// Boolean interpretation of the value.
    pub fn truthy(&self) -> bool {
        match self {
            Val::Bool(b) => *b,
            Val::Num(v) => v.first().map(|x| *x != 0.0).unwrap_or(false),
        }
    }
}

/// An error raised during interpretation (malformed IR reaching execution).
#[derive(Debug, Clone, PartialEq)]
pub struct InterpError {
    /// Description of the fault.
    pub message: String,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

fn err(message: impl Into<String>) -> InterpError {
    InterpError {
        message: message.into(),
    }
}

/// Execution context for one fragment: concrete values for every interface
/// variable plus a procedural texture model.
#[derive(Debug, Clone, Default)]
pub struct FragmentContext {
    /// Input (varying) values by input index.
    pub inputs: Vec<Vec<f64>>,
    /// Uniform values by uniform slot index.
    pub uniforms: Vec<Vec<f64>>,
    /// Seed that varies the procedural texture content per sampler.
    pub texture_seed: f64,
}

impl FragmentContext {
    /// Builds a context with deterministic default values mirroring the
    /// paper's harness (§IV-B): every uniform scalar is `0.5`, every varying
    /// is derived from the fragment coordinate, textures are procedural.
    pub fn with_defaults(shader: &Shader, frag_x: f64, frag_y: f64) -> FragmentContext {
        let inputs = shader
            .inputs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (0..v.ty.width as usize)
                    .map(|lane| default_varying(i, lane, frag_x, frag_y))
                    .collect()
            })
            .collect();
        let uniforms = shader
            .uniforms
            .iter()
            .map(|u| vec![0.5; u.ty.width as usize])
            .collect();
        FragmentContext {
            inputs,
            uniforms,
            texture_seed: 1.0,
        }
    }

    /// Samples the procedural texture bound to `sampler` at `coords`.
    ///
    /// The texture is a smooth, colourful periodic pattern (mirroring the
    /// harness's "colourfully-patterned opaque power-of-two image"): each
    /// channel is a different phase-shifted sinusoid of the coordinates, and
    /// alpha is 1.
    // The frequencies below are decorative pattern constants, not attempts
    // at mathematical constants (6.2831 happens to sit near tau).
    #[allow(clippy::approx_constant)]
    pub fn sample_texture(&self, sampler: usize, coords: &[f64], dim: TextureDim) -> Vec<f64> {
        let x = coords.first().copied().unwrap_or(0.0);
        let y = coords.get(1).copied().unwrap_or(0.0);
        let z = coords.get(2).copied().unwrap_or(0.0);
        let s = self.texture_seed + sampler as f64 * 0.73;
        let sample = |phase: f64| {
            0.5 + 0.5
                * ((x * 6.2831 * (1.0 + s) + y * 3.7 + z * 1.3 + phase).sin()
                    * (y * 5.113 * (1.0 + 0.5 * s) + x * 2.9 + phase * 0.7).cos())
        };
        match dim {
            TextureDim::Shadow2D => vec![if sample(0.0) > z { 1.0 } else { 0.0 }],
            _ => vec![sample(0.0), sample(1.7), sample(3.1), 1.0],
        }
    }
}

/// Deterministic default varying value used by [`FragmentContext::with_defaults`].
fn default_varying(input_index: usize, lane: usize, frag_x: f64, frag_y: f64) -> f64 {
    match lane {
        0 => frag_x + input_index as f64 * 0.01,
        1 => frag_y + input_index as f64 * 0.013,
        2 => 0.5 + 0.1 * input_index as f64,
        _ => 1.0,
    }
}

/// The result of executing a shader for one fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentResult {
    /// Output values by output index (width matches the output type).
    pub outputs: Vec<Vec<f64>>,
    /// `true` if the fragment was discarded.
    pub discarded: bool,
}

/// Executes `shader` for one fragment described by `ctx`.
///
/// # Errors
///
/// Returns [`InterpError`] if the IR is malformed (e.g. use of an undefined
/// register); verified shaders do not fail.
pub fn run_fragment(shader: &Shader, ctx: &FragmentContext) -> Result<FragmentResult, InterpError> {
    let mut state = State {
        shader,
        ctx,
        regs: HashMap::new(),
        outputs: shader
            .outputs
            .iter()
            .map(|o| vec![0.0; o.ty.width as usize])
            .collect(),
        discarded: false,
    };
    state.exec_body(&shader.body)?;
    Ok(FragmentResult {
        outputs: state.outputs,
        discarded: state.discarded,
    })
}

struct State<'a> {
    shader: &'a Shader,
    ctx: &'a FragmentContext,
    regs: HashMap<Reg, Val>,
    outputs: Vec<Vec<f64>>,
    discarded: bool,
}

impl<'a> State<'a> {
    fn exec_body(&mut self, body: &[Stmt]) -> Result<(), InterpError> {
        for stmt in body {
            if self.discarded {
                return Ok(());
            }
            self.exec_stmt(stmt)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<(), InterpError> {
        match stmt {
            Stmt::Def { dst, op } => {
                let v = self.eval_op(op)?;
                self.regs.insert(*dst, v);
                Ok(())
            }
            Stmt::StoreOutput {
                output,
                components,
                value,
            } => {
                let v = self.eval(value)?.lanes();
                let out = self
                    .outputs
                    .get_mut(*output)
                    .ok_or_else(|| err("output index out of range"))?;
                match components {
                    None => {
                        for (i, lane) in out.iter_mut().enumerate() {
                            *lane = v.get(i).copied().unwrap_or(*v.first().unwrap_or(&0.0));
                        }
                    }
                    Some(comps) => {
                        for (src, dst_idx) in comps.iter().enumerate() {
                            if let Some(slot) = out.get_mut(*dst_idx as usize) {
                                *slot = v.get(src).copied().unwrap_or(*v.first().unwrap_or(&0.0));
                            }
                        }
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_body(then_body)
                } else {
                    self.exec_body(else_body)
                }
            }
            Stmt::Loop {
                var,
                start,
                end,
                step,
                body,
            } => {
                let mut i = *start;
                let mut guard = 0usize;
                while (*step > 0 && i < *end) || (*step < 0 && i > *end) {
                    self.regs.insert(*var, Val::scalar(i as f64));
                    self.exec_body(body)?;
                    if self.discarded {
                        return Ok(());
                    }
                    // A step past the end of `i64` also passes `end`.
                    let Some(next) = i.checked_add(*step) else {
                        break;
                    };
                    i = next;
                    guard += 1;
                    if guard > 1_000_000 {
                        return Err(err("loop exceeded iteration guard"));
                    }
                }
                Ok(())
            }
            Stmt::Discard { cond } => {
                let fire = match cond {
                    None => true,
                    Some(c) => self.eval(c)?.truthy(),
                };
                if fire {
                    self.discarded = true;
                }
                Ok(())
            }
        }
    }

    fn eval(&self, operand: &Operand) -> Result<Val, InterpError> {
        match operand {
            Operand::Reg(r) => self
                .regs
                .get(r)
                .cloned()
                .ok_or_else(|| err(format!("register {r} not defined at use"))),
            Operand::Const(c) => Ok(const_val(c)),
            Operand::Input(i) => self
                .ctx
                .inputs
                .get(*i)
                .cloned()
                .map(Val::Num)
                .ok_or_else(|| err(format!("input {i} missing from context"))),
            Operand::Uniform(u) => self
                .ctx
                .uniforms
                .get(*u)
                .cloned()
                .map(Val::Num)
                .ok_or_else(|| err(format!("uniform {u} missing from context"))),
        }
    }

    fn eval_op(&self, op: &Op) -> Result<Val, InterpError> {
        match op {
            Op::Mov(a) => self.eval(a),
            Op::Binary(bop, a, b) => {
                let av = self.eval(a)?;
                let bv = self.eval(b)?;
                eval_binary(*bop, &av, &bv)
            }
            Op::Unary(uop, a) => {
                let av = self.eval(a)?;
                Ok(match uop {
                    UnaryOp::Neg => Val::Num(av.lanes().iter().map(|x| -x).collect()),
                    UnaryOp::Not => Val::Bool(!av.truthy()),
                })
            }
            Op::Intrinsic(i, args) => {
                let vals: Vec<Val> = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<_, _>>()?;
                eval_intrinsic(*i, &vals)
            }
            Op::TextureSample {
                sampler,
                coords,
                lod: _,
                dim,
            } => {
                let c = self.eval(coords)?.lanes();
                Ok(Val::Num(self.ctx.sample_texture(*sampler, &c, *dim)))
            }
            Op::Construct { ty, parts } => {
                let mut lanes = Vec::with_capacity(ty.width as usize);
                for p in parts {
                    lanes.extend(self.eval(p)?.lanes());
                }
                if parts.len() == 1 && lanes.len() == 1 {
                    // Single-scalar construct splats.
                    lanes = vec![lanes[0]; ty.width as usize];
                }
                lanes.truncate(ty.width as usize);
                while lanes.len() < ty.width as usize {
                    lanes.push(0.0);
                }
                Ok(Val::Num(lanes))
            }
            Op::Splat { ty, value } => {
                let v = self.eval(value)?.lanes();
                let x = v.first().copied().unwrap_or(0.0);
                Ok(Val::Num(vec![x; ty.width as usize]))
            }
            Op::Extract { vector, index } => {
                let v = self.eval(vector)?.lanes();
                v.get(*index as usize)
                    .map(|x| Val::scalar(*x))
                    .ok_or_else(|| err("extract index out of range"))
            }
            Op::Insert {
                vector,
                index,
                value,
            } => {
                let mut v = self.eval(vector)?.lanes();
                let x = self.eval(value)?.lanes().first().copied().unwrap_or(0.0);
                if (*index as usize) < v.len() {
                    v[*index as usize] = x;
                }
                Ok(Val::Num(v))
            }
            Op::Swizzle { vector, lanes } => {
                let v = self.eval(vector)?.lanes();
                Ok(Val::Num(
                    lanes
                        .iter()
                        .map(|l| v.get(*l as usize).copied().unwrap_or(0.0))
                        .collect(),
                ))
            }
            Op::Select {
                cond,
                if_true,
                if_false,
            } => {
                if self.eval(cond)?.truthy() {
                    self.eval(if_true)
                } else {
                    self.eval(if_false)
                }
            }
            Op::ConstArrayLoad { array, index } => {
                let arr = self
                    .shader
                    .const_arrays
                    .get(*array)
                    .ok_or_else(|| err("const array out of range"))?;
                if arr.elements.is_empty() {
                    return Err(err("const array load from empty array"));
                }
                let idx = self.eval(index)?.lanes().first().copied().unwrap_or(0.0);
                let idx = (idx.round() as i64).clamp(0, arr.len() as i64 - 1) as usize;
                Ok(Val::Num(arr.elements[idx].clone()))
            }
            Op::Convert { to, value } => {
                let v = self.eval(value)?;
                match v {
                    Val::Bool(b) => {
                        Ok(Val::Num(vec![if b { 1.0 } else { 0.0 }; to.width as usize]))
                    }
                    Val::Num(lanes) => {
                        let converted: Vec<f64> = lanes
                            .iter()
                            .map(|x| if to.is_int() { x.trunc() } else { *x })
                            .collect();
                        Ok(Val::Num(converted))
                    }
                }
            }
        }
    }
}

fn const_val(c: &Constant) -> Val {
    match c {
        Constant::Float(v) => Val::scalar(*v),
        Constant::Int(v) => Val::scalar(*v as f64),
        Constant::Uint(v) => Val::scalar(*v as f64),
        Constant::Bool(b) => Val::Bool(*b),
        Constant::FloatVec(v) => Val::Num(v.clone()),
    }
}

fn broadcast(a: &[f64], b: &[f64]) -> (Vec<f64>, Vec<f64>) {
    if a.len() == b.len() {
        (a.to_vec(), b.to_vec())
    } else if a.len() == 1 {
        (vec![a[0]; b.len()], b.to_vec())
    } else if b.len() == 1 {
        (a.to_vec(), vec![b[0]; a.len()])
    } else {
        (a.to_vec(), b.to_vec())
    }
}

fn eval_binary(op: BinaryOp, a: &Val, b: &Val) -> Result<Val, InterpError> {
    if op.is_logical() {
        return Ok(Val::Bool(match op {
            BinaryOp::And => a.truthy() && b.truthy(),
            BinaryOp::Or => a.truthy() || b.truthy(),
            _ => unreachable!(),
        }));
    }
    let (x, y) = broadcast(&a.lanes(), &b.lanes());
    if op.is_comparison() {
        let l = x.first().copied().unwrap_or(0.0);
        let r = y.first().copied().unwrap_or(0.0);
        return Ok(Val::Bool(match op {
            BinaryOp::Eq => (l - r).abs() < f64::EPSILON,
            BinaryOp::Ne => (l - r).abs() >= f64::EPSILON,
            BinaryOp::Lt => l < r,
            BinaryOp::Le => l <= r,
            BinaryOp::Gt => l > r,
            BinaryOp::Ge => l >= r,
            _ => unreachable!(),
        }));
    }
    let lanes: Vec<f64> = x
        .iter()
        .zip(&y)
        .map(|(l, r)| match op {
            BinaryOp::Add => l + r,
            BinaryOp::Sub => l - r,
            BinaryOp::Mul => l * r,
            BinaryOp::Div => {
                if *r == 0.0 {
                    0.0
                } else {
                    l / r
                }
            }
            BinaryOp::Mod => {
                if *r == 0.0 {
                    0.0
                } else {
                    l - r * (l / r).floor()
                }
            }
            _ => unreachable!(),
        })
        .collect();
    Ok(Val::Num(lanes))
}

/// Lane lookup that saturates at the last lane and falls back to `0.0` for an
/// empty vector value, so no intrinsic can index-panic on degenerate input.
fn lane_at(v: &[f64], idx: usize) -> f64 {
    v.get(idx.min(v.len().saturating_sub(1)))
        .copied()
        .unwrap_or(0.0)
}

fn eval_intrinsic(i: Intrinsic, args: &[Val]) -> Result<Val, InterpError> {
    let lanes = |n: usize| -> Vec<f64> { args.get(n).map(|v| v.lanes()).unwrap_or_default() };
    let unary = |f: fn(f64) -> f64| -> Val { Val::Num(lanes(0).iter().map(|x| f(*x)).collect()) };
    Ok(match i {
        Intrinsic::Pow => {
            let (x, y) = broadcast(&lanes(0), &lanes(1));
            Val::Num(x.iter().zip(&y).map(|(a, b)| a.abs().powf(*b)).collect())
        }
        Intrinsic::Exp => unary(f64::exp),
        Intrinsic::Log => unary(|x| if x <= 0.0 { 0.0 } else { x.ln() }),
        Intrinsic::Sqrt => unary(|x| x.max(0.0).sqrt()),
        Intrinsic::InverseSqrt => unary(|x| 1.0 / x.max(1e-12).sqrt()),
        Intrinsic::Sin => unary(f64::sin),
        Intrinsic::Cos => unary(f64::cos),
        Intrinsic::Abs => unary(f64::abs),
        Intrinsic::Sign => unary(f64::signum),
        Intrinsic::Floor => unary(f64::floor),
        Intrinsic::Fract => unary(|x| x - x.floor()),
        Intrinsic::Mod => {
            let (x, y) = broadcast(&lanes(0), &lanes(1));
            Val::Num(
                x.iter()
                    .zip(&y)
                    .map(|(a, b)| {
                        if *b == 0.0 {
                            0.0
                        } else {
                            a - b * (a / b).floor()
                        }
                    })
                    .collect(),
            )
        }
        Intrinsic::Min => {
            let (x, y) = broadcast(&lanes(0), &lanes(1));
            Val::Num(x.iter().zip(&y).map(|(a, b)| a.min(*b)).collect())
        }
        Intrinsic::Max => {
            let (x, y) = broadcast(&lanes(0), &lanes(1));
            Val::Num(x.iter().zip(&y).map(|(a, b)| a.max(*b)).collect())
        }
        Intrinsic::Clamp => {
            let x = lanes(0);
            let (lo, _) = broadcast(&lanes(1), &x);
            let (hi, _) = broadcast(&lanes(2), &x);
            Val::Num(
                x.iter()
                    .enumerate()
                    .map(|(idx, v)| v.max(lane_at(&lo, idx)).min(lane_at(&hi, idx)))
                    .collect(),
            )
        }
        Intrinsic::Mix => {
            let a = lanes(0);
            let b = lanes(1);
            let (t, _) = broadcast(&lanes(2), &a);
            Val::Num(
                a.iter()
                    .zip(&b)
                    .enumerate()
                    .map(|(idx, (x, y))| {
                        let tt = lane_at(&t, idx);
                        x * (1.0 - tt) + y * tt
                    })
                    .collect(),
            )
        }
        Intrinsic::Step => {
            let (edge, x) = broadcast(&lanes(0), &lanes(1));
            Val::Num(
                edge.iter()
                    .zip(&x)
                    .map(|(e, v)| if v < e { 0.0 } else { 1.0 })
                    .collect(),
            )
        }
        Intrinsic::Smoothstep => {
            let x = lanes(2);
            let (e0, _) = broadcast(&lanes(0), &x);
            let (e1, _) = broadcast(&lanes(1), &x);
            Val::Num(
                x.iter()
                    .enumerate()
                    .map(|(idx, v)| {
                        let a = lane_at(&e0, idx);
                        let b = lane_at(&e1, idx);
                        let t = ((v - a) / (b - a).max(1e-12)).clamp(0.0, 1.0);
                        t * t * (3.0 - 2.0 * t)
                    })
                    .collect(),
            )
        }
        Intrinsic::Length => Val::scalar(lanes(0).iter().map(|x| x * x).sum::<f64>().sqrt()),
        Intrinsic::Distance => {
            let (a, b) = broadcast(&lanes(0), &lanes(1));
            Val::scalar(
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt(),
            )
        }
        Intrinsic::Dot => {
            let (a, b) = broadcast(&lanes(0), &lanes(1));
            Val::scalar(a.iter().zip(&b).map(|(x, y)| x * y).sum())
        }
        Intrinsic::Cross => {
            let a = lanes(0);
            let b = lanes(1);
            if a.len() < 3 || b.len() < 3 {
                return Err(err("cross requires vec3 operands"));
            }
            Val::Num(vec![
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            ])
        }
        Intrinsic::Normalize => {
            let a = lanes(0);
            let len = a.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            Val::Num(a.iter().map(|x| x / len).collect())
        }
        Intrinsic::Reflect => {
            let (i_v, n) = broadcast(&lanes(0), &lanes(1));
            let d: f64 = i_v.iter().zip(&n).map(|(x, y)| x * y).sum();
            Val::Num(i_v.iter().zip(&n).map(|(x, y)| x - 2.0 * d * y).collect())
        }
        Intrinsic::Refract => {
            // Simplified refract: eta-scaled reflection fallback.
            let (i_v, n) = broadcast(&lanes(0), &lanes(1));
            let eta = lanes(2).first().copied().unwrap_or(1.0);
            let d: f64 = i_v.iter().zip(&n).map(|(x, y)| x * y).sum();
            let k = 1.0 - eta * eta * (1.0 - d * d);
            if k < 0.0 {
                Val::Num(vec![0.0; i_v.len()])
            } else {
                Val::Num(
                    i_v.iter()
                        .zip(&n)
                        .map(|(x, y)| eta * x - (eta * d + k.sqrt()) * y)
                        .collect(),
                )
            }
        }
        // Derivatives are zero for a single isolated fragment.
        Intrinsic::DFdx | Intrinsic::DFdy => Val::Num(vec![0.0; lanes(0).len()]),
        Intrinsic::Fwidth => Val::Num(vec![0.0; lanes(0).len()]),
    })
}

/// Compares two fragment results for exact equality — every output lane must
/// agree bit-for-bit (`f64::to_bits`), with one deliberate canonicalisation:
/// the two zeros compare equal. Folding `x·0 → 0` legitimately turns a `-0.0`
/// into `+0.0`, and no framebuffer consumer can observe the sign of zero; any
/// other bit of drift (including NaN payloads) is a real semantic change.
/// This is the oracle the specialization differential uses: a substituted-
/// and-folded variant performs the same exact arithmetic as the general one,
/// so nothing beyond zero-sign may move.
pub fn results_exactly_equal(a: &FragmentResult, b: &FragmentResult) -> bool {
    if a.discarded != b.discarded || a.outputs.len() != b.outputs.len() {
        return false;
    }
    let canon = |v: f64| {
        if v == 0.0 {
            0.0f64.to_bits()
        } else {
            v.to_bits()
        }
    };
    a.outputs
        .iter()
        .zip(&b.outputs)
        .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(l, r)| canon(*l) == canon(*r)))
}

/// Compares two fragment results with a relative/absolute tolerance, which is
/// how the test-suite checks that optimizations preserve semantics (the
/// unsafe floating-point passes may legitimately change low-order bits).
pub fn results_approx_equal(a: &FragmentResult, b: &FragmentResult, tol: f64) -> bool {
    if a.discarded != b.discarded {
        return false;
    }
    if a.outputs.len() != b.outputs.len() {
        return false;
    }
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        if x.len() != y.len() {
            return false;
        }
        for (l, r) in x.iter().zip(y) {
            let scale = 1.0_f64.max(l.abs()).max(r.abs());
            if (l - r).abs() > tol * scale {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shader::{OutputVar, SamplerVar, UniformVar};
    use crate::types::IrType;

    fn shader_with_output() -> Shader {
        let mut s = Shader::new("interp");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s
    }

    #[test]
    fn executes_simple_arithmetic() {
        let mut s = shader_with_output();
        let a = s.new_reg(IrType::F32);
        let b = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(BinaryOp::Add, Operand::float(1.5), Operand::float(2.5)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(a),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(b),
            },
        ];
        let ctx = FragmentContext::with_defaults(&s, 0.25, 0.75);
        let r = run_fragment(&s, &ctx).unwrap();
        assert_eq!(r.outputs[0], vec![4.0, 4.0, 4.0, 4.0]);
        assert!(!r.discarded);
    }

    #[test]
    fn loop_accumulates() {
        let mut s = shader_with_output();
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::F32);
        let out = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Mov(Operand::float(0.0)),
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 5,
                step: 1,
                body: vec![Stmt::Def {
                    dst: acc,
                    op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Reg(i)),
                }],
            },
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(acc),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let r = run_fragment(&s, &ctx).unwrap();
        assert_eq!(r.outputs[0][0], 10.0);
    }

    #[test]
    fn loop_stops_when_its_next_step_passes_the_end_of_i64() {
        // i = 0, 2^62, then 2^63 is past both `end` and `i64::MAX`.
        let mut s = shader_with_output();
        let i = s.new_reg(IrType::I32);
        let count = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: count,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: i64::MAX,
                step: 1 << 62,
                body: vec![Stmt::Def {
                    dst: count,
                    op: Op::Binary(
                        BinaryOp::Add,
                        Operand::Reg(count),
                        Operand::fvec(vec![1.0; 4]),
                    ),
                }],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(count),
            },
        ];
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        assert_eq!(run_fragment(&s, &ctx).unwrap().outputs[0], vec![2.0; 4]);
    }

    #[test]
    fn branch_and_discard() {
        let mut s = shader_with_output();
        s.uniforms.push(UniformVar {
            name: "t".into(),
            ty: IrType::F32,
            slot: 0,
            original: "t".into(),
        });
        let c = s.new_reg(IrType::BOOL);
        s.body = vec![
            Stmt::Def {
                dst: c,
                op: Op::Binary(BinaryOp::Lt, Operand::Uniform(0), Operand::float(0.4)),
            },
            Stmt::If {
                cond: Operand::Reg(c),
                then_body: vec![Stmt::Discard { cond: None }],
                else_body: vec![Stmt::StoreOutput {
                    output: 0,
                    components: None,
                    value: Operand::fvec(vec![1.0, 0.0, 0.0, 1.0]),
                }],
            },
        ];
        // Default uniform is 0.5, so no discard.
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let r = run_fragment(&s, &ctx).unwrap();
        assert!(!r.discarded);
        assert_eq!(r.outputs[0][0], 1.0);
        // Lower the uniform below the threshold and the fragment is discarded.
        let mut ctx2 = ctx.clone();
        ctx2.uniforms[0] = vec![0.1];
        let r2 = run_fragment(&s, &ctx2).unwrap();
        assert!(r2.discarded);
    }

    #[test]
    fn texture_sampling_is_deterministic_and_in_range() {
        let mut s = shader_with_output();
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        let t = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: t,
                op: Op::TextureSample {
                    sampler: 0,
                    coords: Operand::fvec(vec![0.3, 0.6]),
                    lod: None,
                    dim: TextureDim::Dim2D,
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(t),
            },
        ];
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let a = run_fragment(&s, &ctx).unwrap();
        let b = run_fragment(&s, &ctx).unwrap();
        assert_eq!(a, b);
        assert!(a.outputs[0].iter().all(|v| (0.0..=1.0).contains(v)));
        assert_eq!(a.outputs[0][3], 1.0);
    }

    #[test]
    fn intrinsics_behave_reasonably() {
        assert_eq!(
            eval_intrinsic(
                Intrinsic::Dot,
                &[Val::Num(vec![1.0, 2.0, 3.0]), Val::Num(vec![4.0, 5.0, 6.0])]
            )
            .unwrap(),
            Val::scalar(32.0)
        );
        assert_eq!(
            eval_intrinsic(
                Intrinsic::Mix,
                &[
                    Val::Num(vec![0.0, 10.0]),
                    Val::Num(vec![10.0, 20.0]),
                    Val::scalar(0.5)
                ]
            )
            .unwrap(),
            Val::Num(vec![5.0, 15.0])
        );
        assert_eq!(
            eval_intrinsic(
                Intrinsic::Clamp,
                &[
                    Val::Num(vec![-1.0, 0.5, 2.0]),
                    Val::scalar(0.0),
                    Val::scalar(1.0)
                ]
            )
            .unwrap(),
            Val::Num(vec![0.0, 0.5, 1.0])
        );
        let n = eval_intrinsic(Intrinsic::Normalize, &[Val::Num(vec![3.0, 0.0, 4.0])]).unwrap();
        assert!((n.lanes()[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn approx_equality_tolerates_small_differences() {
        let a = FragmentResult {
            outputs: vec![vec![1.0, 2.0]],
            discarded: false,
        };
        let b = FragmentResult {
            outputs: vec![vec![1.0 + 1e-7, 2.0 - 1e-7]],
            discarded: false,
        };
        let c = FragmentResult {
            outputs: vec![vec![1.5, 2.0]],
            discarded: false,
        };
        assert!(results_approx_equal(&a, &b, 1e-5));
        assert!(!results_approx_equal(&a, &c, 1e-5));
        let d = FragmentResult {
            outputs: vec![vec![1.0, 2.0]],
            discarded: true,
        };
        assert!(!results_approx_equal(&a, &d, 1e-5));
    }

    #[test]
    fn division_by_zero_is_guarded() {
        let v = eval_binary(BinaryOp::Div, &Val::scalar(1.0), &Val::scalar(0.0)).unwrap();
        assert_eq!(v, Val::scalar(0.0));
    }

    #[test]
    fn zero_lane_shuffle_stores_do_not_panic() {
        // Regression: a zero-lane swizzle produces an empty vector value; a
        // component store of that value used to fall back to `v[0]` when the
        // source lane was missing, which panics on the empty vector. The
        // fallback must be 0.0, like the full-store path one match arm up.
        let mut s = shader_with_output();
        let wide = s.new_reg(IrType::fvec(4));
        let empty = s.new_reg(IrType::F32);
        s.body = vec![
            Stmt::Def {
                dst: wide,
                op: Op::Mov(Operand::fvec(vec![1.0, 2.0, 3.0, 4.0])),
            },
            Stmt::Def {
                dst: empty,
                op: Op::Swizzle {
                    vector: Operand::Reg(wide),
                    lanes: vec![],
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: Some(vec![1]),
                value: Operand::Reg(empty),
            },
        ];
        let r = run_fragment(&s, &FragmentContext::with_defaults(&s, 0.25, 0.75)).unwrap();
        assert_eq!(r.outputs[0][1], 0.0);
    }

    #[test]
    fn empty_vector_values_do_not_panic_in_ops() {
        // Splat / Insert / comparisons / Clamp-family intrinsics over empty
        // vector values all take the 0.0 fallback instead of indexing.
        let mut s = shader_with_output();
        let wide = s.new_reg(IrType::fvec(2));
        let empty = s.new_reg(IrType::F32);
        let splat = s.new_reg(IrType::fvec(3));
        let ins = s.new_reg(IrType::fvec(2));
        let cmp = s.new_reg(IrType::BOOL);
        let sel = s.new_reg(IrType::F32);
        s.body = vec![
            Stmt::Def {
                dst: wide,
                op: Op::Mov(Operand::fvec(vec![5.0, 6.0])),
            },
            Stmt::Def {
                dst: empty,
                op: Op::Swizzle {
                    vector: Operand::Reg(wide),
                    lanes: vec![],
                },
            },
            Stmt::Def {
                dst: splat,
                op: Op::Splat {
                    ty: IrType::fvec(3),
                    value: Operand::Reg(empty),
                },
            },
            Stmt::Def {
                dst: ins,
                op: Op::Insert {
                    vector: Operand::Reg(wide),
                    index: 0,
                    value: Operand::Reg(empty),
                },
            },
            Stmt::Def {
                dst: cmp,
                op: Op::Binary(BinaryOp::Lt, Operand::Reg(empty), Operand::Reg(empty)),
            },
            Stmt::Def {
                dst: sel,
                op: Op::Intrinsic(
                    Intrinsic::Clamp,
                    vec![Operand::Reg(wide), Operand::Reg(empty), Operand::Reg(empty)],
                ),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(splat),
            },
        ];
        let r = run_fragment(&s, &FragmentContext::with_defaults(&s, 0.25, 0.75)).unwrap();
        // The empty-splat broadcast falls back to 0.0 in every written lane.
        assert_eq!(r.outputs[0], vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn exact_equality_is_bitwise() {
        let a = FragmentResult {
            outputs: vec![vec![1.0, 0.0]],
            discarded: false,
        };
        let same = FragmentResult {
            outputs: vec![vec![1.0, 0.0]],
            discarded: false,
        };
        let neg_zero = FragmentResult {
            outputs: vec![vec![1.0, -0.0]],
            discarded: false,
        };
        let off = FragmentResult {
            outputs: vec![vec![1.0 + f64::EPSILON, 0.0]],
            discarded: false,
        };
        assert!(results_exactly_equal(&a, &same));
        // The one canonicalisation: signed zeros compare equal (x·0 folds
        // flip the sign of zero, which no output consumer observes).
        assert!(results_exactly_equal(&a, &neg_zero));
        assert!(!results_exactly_equal(&a, &off));
    }
}
