//! Serialisation of the IR through the vendored `serde` data model.
//!
//! The warm-start persistence layer (`prism_core::cache::persist` in the
//! core crate) snapshots cached IR exemplars to disk, so every IR type gets a
//! [`Serialize`]/[`Deserialize`] impl here. Two encoding rules keep the round
//! trip *bit-exact* — the persisted cache must confirm structural equality
//! against live IR, so a single drifted float would silently degrade every
//! warm lookup into a miss:
//!
//! * **Floats are strings.** The vendored JSON writer stores numbers as
//!   `f64` and prints integral values as integers, which cannot distinguish
//!   `-0.0` from `0.0` or survive non-finite values. Every `f64` in the IR is
//!   therefore encoded as its shortest-round-trip `Display` string (Rust
//!   guarantees `format!("{v}").parse::<f64>()` reproduces the value
//!   bit-for-bit for all finite floats, and `-0`, `inf`, `NaN` all parse
//!   back).
//! * **64-bit integers are strings.** `Value::Num` is an `f64`, which is
//!   lossy above 2^53; loop bounds and integer constants are `i64`/`u64`, so
//!   they are written as decimal strings.
//!
//! Enums are encoded as single-key objects (`{"variant": payload}`) or bare
//! strings for unit variants. Unknown variants or malformed payloads return
//! `Err`, never panic — the persistence layer treats any error as a cold
//! shard.

use crate::op::{BinaryOp, Intrinsic, Op, UnaryOp};
use crate::shader::{ConstArray, InputVar, OutputVar, RegInfo, SamplerVar, Shader, UniformVar};
use crate::stmt::Stmt;
use crate::types::{IrType, Scalar, TextureDim};
use crate::value::{Constant, Operand, Reg};
use serde::{Deserialize, Serialize, Value};

/// Encodes an `f64` as a bit-faithful decimal string (see module docs).
fn f64_to_value(v: f64) -> Value {
    Value::Str(format!("{v}"))
}

/// Decodes an `f64` written by [`f64_to_value`].
fn f64_from_value(v: &Value) -> Result<f64, String> {
    match v {
        Value::Str(s) => s
            .parse::<f64>()
            .map_err(|_| format!("invalid float literal `{s}`")),
        other => Err(format!("expected float string, got {other:?}")),
    }
}

/// Decodes a decimal-string integer of any primitive width.
fn int_from_value<T: std::str::FromStr>(v: &Value, what: &str) -> Result<T, String> {
    match v {
        Value::Str(s) => s
            .parse::<T>()
            .map_err(|_| format!("invalid {what} literal `{s}`")),
        other => Err(format!("expected {what} string, got {other:?}")),
    }
}

/// Builds a single-key object `{tag: payload}` — the enum-variant encoding.
fn tagged(tag: &str, payload: Value) -> Value {
    Value::Obj(vec![(tag.to_string(), payload)])
}

/// Splits a single-key object back into `(tag, payload)`.
fn untag(v: &Value) -> Result<(&str, &Value), String> {
    match v {
        Value::Obj(fields) if fields.len() == 1 => Ok((fields[0].0.as_str(), &fields[0].1)),
        other => Err(format!("expected single-key variant object, got {other:?}")),
    }
}

/// Looks up a required object field.
fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get(name).ok_or_else(|| format!("missing field `{name}`"))
}

impl Serialize for Scalar {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                Scalar::F32 => "f32",
                Scalar::I32 => "i32",
                Scalar::U32 => "u32",
                Scalar::Bool => "bool",
            }
            .to_string(),
        )
    }
}

impl Deserialize for Scalar {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => match s.as_str() {
                "f32" => Ok(Scalar::F32),
                "i32" => Ok(Scalar::I32),
                "u32" => Ok(Scalar::U32),
                "bool" => Ok(Scalar::Bool),
                other => Err(format!("unknown scalar kind `{other}`")),
            },
            other => Err(format!("expected scalar string, got {other:?}")),
        }
    }
}

impl Serialize for IrType {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("scalar".to_string(), self.scalar.to_value()),
            ("width".to_string(), Value::Num(self.width as f64)),
        ])
    }
}

impl Deserialize for IrType {
    fn from_value(v: &Value) -> Result<Self, String> {
        let scalar = Scalar::from_value(field(v, "scalar")?)?;
        let width = u8::from_value(field(v, "width")?)?;
        if !(1..=4).contains(&width) {
            return Err(format!("vector width {width} out of range 1..=4"));
        }
        Ok(IrType { scalar, width })
    }
}

impl Serialize for TextureDim {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                TextureDim::Dim2D => "2d",
                TextureDim::Dim3D => "3d",
                TextureDim::Cube => "cube",
                TextureDim::Shadow2D => "shadow2d",
                TextureDim::Array2D => "array2d",
            }
            .to_string(),
        )
    }
}

impl Deserialize for TextureDim {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => match s.as_str() {
                "2d" => Ok(TextureDim::Dim2D),
                "3d" => Ok(TextureDim::Dim3D),
                "cube" => Ok(TextureDim::Cube),
                "shadow2d" => Ok(TextureDim::Shadow2D),
                "array2d" => Ok(TextureDim::Array2D),
                other => Err(format!("unknown texture dimension `{other}`")),
            },
            other => Err(format!("expected texture dimension string, got {other:?}")),
        }
    }
}

impl Serialize for Reg {
    fn to_value(&self) -> Value {
        Value::Num(self.0 as f64)
    }
}

impl Deserialize for Reg {
    fn from_value(v: &Value) -> Result<Self, String> {
        u32::from_value(v).map(Reg)
    }
}

impl Serialize for Constant {
    fn to_value(&self) -> Value {
        match self {
            Constant::Float(v) => tagged("float", f64_to_value(*v)),
            Constant::Int(v) => tagged("int", Value::Str(v.to_string())),
            Constant::Uint(v) => tagged("uint", Value::Str(v.to_string())),
            Constant::Bool(b) => tagged("bool", Value::Bool(*b)),
            Constant::FloatVec(lanes) => tagged(
                "fvec",
                Value::Arr(lanes.iter().map(|v| f64_to_value(*v)).collect()),
            ),
        }
    }
}

impl Deserialize for Constant {
    fn from_value(v: &Value) -> Result<Self, String> {
        let (tag, payload) = untag(v)?;
        match tag {
            "float" => Ok(Constant::Float(f64_from_value(payload)?)),
            "int" => Ok(Constant::Int(int_from_value(payload, "i64")?)),
            "uint" => Ok(Constant::Uint(int_from_value(payload, "u64")?)),
            "bool" => Ok(Constant::Bool(bool::from_value(payload)?)),
            "fvec" => match payload {
                Value::Arr(items) => Ok(Constant::FloatVec(
                    items.iter().map(f64_from_value).collect::<Result<_, _>>()?,
                )),
                other => Err(format!("expected float-vector array, got {other:?}")),
            },
            other => Err(format!("unknown constant variant `{other}`")),
        }
    }
}

impl Serialize for Operand {
    fn to_value(&self) -> Value {
        match self {
            Operand::Reg(r) => tagged("reg", r.to_value()),
            Operand::Const(c) => tagged("const", c.to_value()),
            Operand::Input(i) => tagged("input", Value::Num(*i as f64)),
            Operand::Uniform(u) => tagged("uniform", Value::Num(*u as f64)),
        }
    }
}

impl Deserialize for Operand {
    fn from_value(v: &Value) -> Result<Self, String> {
        let (tag, payload) = untag(v)?;
        match tag {
            "reg" => Ok(Operand::Reg(Reg::from_value(payload)?)),
            "const" => Ok(Operand::Const(Constant::from_value(payload)?)),
            "input" => Ok(Operand::Input(usize::from_value(payload)?)),
            "uniform" => Ok(Operand::Uniform(usize::from_value(payload)?)),
            other => Err(format!("unknown operand variant `{other}`")),
        }
    }
}

impl Serialize for BinaryOp {
    fn to_value(&self) -> Value {
        Value::Str(self.symbol().to_string())
    }
}

impl Deserialize for BinaryOp {
    fn from_value(v: &Value) -> Result<Self, String> {
        const ALL: [BinaryOp; 13] = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Mod,
            BinaryOp::Eq,
            BinaryOp::Ne,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
            BinaryOp::And,
            BinaryOp::Or,
        ];
        match v {
            Value::Str(s) => ALL
                .into_iter()
                .find(|op| op.symbol() == s)
                .ok_or_else(|| format!("unknown binary operator `{s}`")),
            other => Err(format!("expected binary-operator string, got {other:?}")),
        }
    }
}

impl Serialize for UnaryOp {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                UnaryOp::Neg => "neg",
                UnaryOp::Not => "not",
            }
            .to_string(),
        )
    }
}

impl Deserialize for UnaryOp {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => match s.as_str() {
                "neg" => Ok(UnaryOp::Neg),
                "not" => Ok(UnaryOp::Not),
                other => Err(format!("unknown unary operator `{other}`")),
            },
            other => Err(format!("expected unary-operator string, got {other:?}")),
        }
    }
}

impl Serialize for Intrinsic {
    fn to_value(&self) -> Value {
        // `glsl_name` / `from_glsl_name` round-trip for every canonical name
        // (asserted by the op module's tests), so the GLSL spelling doubles as
        // the serialised form.
        Value::Str(self.glsl_name().to_string())
    }
}

impl Deserialize for Intrinsic {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => {
                Intrinsic::from_glsl_name(s).ok_or_else(|| format!("unknown intrinsic `{s}`"))
            }
            other => Err(format!("expected intrinsic string, got {other:?}")),
        }
    }
}

impl Serialize for Op {
    fn to_value(&self) -> Value {
        match self {
            Op::Mov(a) => tagged("mov", a.to_value()),
            Op::Binary(op, a, b) => tagged(
                "bin",
                Value::Obj(vec![
                    ("op".to_string(), op.to_value()),
                    ("a".to_string(), a.to_value()),
                    ("b".to_string(), b.to_value()),
                ]),
            ),
            Op::Unary(op, a) => tagged(
                "un",
                Value::Obj(vec![
                    ("op".to_string(), op.to_value()),
                    ("a".to_string(), a.to_value()),
                ]),
            ),
            Op::Intrinsic(i, args) => tagged(
                "call",
                Value::Obj(vec![
                    ("f".to_string(), i.to_value()),
                    ("args".to_string(), args.to_value()),
                ]),
            ),
            Op::TextureSample {
                sampler,
                coords,
                lod,
                dim,
            } => tagged(
                "tex",
                Value::Obj(vec![
                    ("sampler".to_string(), Value::Num(*sampler as f64)),
                    ("coords".to_string(), coords.to_value()),
                    ("lod".to_string(), lod.to_value()),
                    ("dim".to_string(), dim.to_value()),
                ]),
            ),
            Op::Construct { ty, parts } => tagged(
                "ctor",
                Value::Obj(vec![
                    ("ty".to_string(), ty.to_value()),
                    ("parts".to_string(), parts.to_value()),
                ]),
            ),
            Op::Splat { ty, value } => tagged(
                "splat",
                Value::Obj(vec![
                    ("ty".to_string(), ty.to_value()),
                    ("value".to_string(), value.to_value()),
                ]),
            ),
            Op::Extract { vector, index } => tagged(
                "ext",
                Value::Obj(vec![
                    ("vector".to_string(), vector.to_value()),
                    ("index".to_string(), Value::Num(*index as f64)),
                ]),
            ),
            Op::Insert {
                vector,
                index,
                value,
            } => tagged(
                "ins",
                Value::Obj(vec![
                    ("vector".to_string(), vector.to_value()),
                    ("index".to_string(), Value::Num(*index as f64)),
                    ("value".to_string(), value.to_value()),
                ]),
            ),
            Op::Swizzle { vector, lanes } => tagged(
                "swz",
                Value::Obj(vec![
                    ("vector".to_string(), vector.to_value()),
                    ("lanes".to_string(), lanes.to_value()),
                ]),
            ),
            Op::Select {
                cond,
                if_true,
                if_false,
            } => tagged(
                "sel",
                Value::Obj(vec![
                    ("cond".to_string(), cond.to_value()),
                    ("if_true".to_string(), if_true.to_value()),
                    ("if_false".to_string(), if_false.to_value()),
                ]),
            ),
            Op::ConstArrayLoad { array, index } => tagged(
                "cal",
                Value::Obj(vec![
                    ("array".to_string(), Value::Num(*array as f64)),
                    ("index".to_string(), index.to_value()),
                ]),
            ),
            Op::Convert { to, value } => tagged(
                "cvt",
                Value::Obj(vec![
                    ("to".to_string(), to.to_value()),
                    ("value".to_string(), value.to_value()),
                ]),
            ),
        }
    }
}

impl Deserialize for Op {
    fn from_value(v: &Value) -> Result<Self, String> {
        let (tag, p) = untag(v)?;
        match tag {
            "mov" => Ok(Op::Mov(Operand::from_value(p)?)),
            "bin" => Ok(Op::Binary(
                BinaryOp::from_value(field(p, "op")?)?,
                Operand::from_value(field(p, "a")?)?,
                Operand::from_value(field(p, "b")?)?,
            )),
            "un" => Ok(Op::Unary(
                UnaryOp::from_value(field(p, "op")?)?,
                Operand::from_value(field(p, "a")?)?,
            )),
            "call" => Ok(Op::Intrinsic(
                Intrinsic::from_value(field(p, "f")?)?,
                Vec::from_value(field(p, "args")?)?,
            )),
            "tex" => Ok(Op::TextureSample {
                sampler: usize::from_value(field(p, "sampler")?)?,
                coords: Operand::from_value(field(p, "coords")?)?,
                lod: Option::from_value(field(p, "lod")?)?,
                dim: TextureDim::from_value(field(p, "dim")?)?,
            }),
            "ctor" => Ok(Op::Construct {
                ty: IrType::from_value(field(p, "ty")?)?,
                parts: Vec::from_value(field(p, "parts")?)?,
            }),
            "splat" => Ok(Op::Splat {
                ty: IrType::from_value(field(p, "ty")?)?,
                value: Operand::from_value(field(p, "value")?)?,
            }),
            "ext" => Ok(Op::Extract {
                vector: Operand::from_value(field(p, "vector")?)?,
                index: u8::from_value(field(p, "index")?)?,
            }),
            "ins" => Ok(Op::Insert {
                vector: Operand::from_value(field(p, "vector")?)?,
                index: u8::from_value(field(p, "index")?)?,
                value: Operand::from_value(field(p, "value")?)?,
            }),
            "swz" => Ok(Op::Swizzle {
                vector: Operand::from_value(field(p, "vector")?)?,
                lanes: Vec::from_value(field(p, "lanes")?)?,
            }),
            "sel" => Ok(Op::Select {
                cond: Operand::from_value(field(p, "cond")?)?,
                if_true: Operand::from_value(field(p, "if_true")?)?,
                if_false: Operand::from_value(field(p, "if_false")?)?,
            }),
            "cal" => Ok(Op::ConstArrayLoad {
                array: usize::from_value(field(p, "array")?)?,
                index: Operand::from_value(field(p, "index")?)?,
            }),
            "cvt" => Ok(Op::Convert {
                to: IrType::from_value(field(p, "to")?)?,
                value: Operand::from_value(field(p, "value")?)?,
            }),
            other => Err(format!("unknown op variant `{other}`")),
        }
    }
}

impl Serialize for Stmt {
    fn to_value(&self) -> Value {
        match self {
            Stmt::Def { dst, op } => tagged(
                "def",
                Value::Obj(vec![
                    ("dst".to_string(), dst.to_value()),
                    ("op".to_string(), op.to_value()),
                ]),
            ),
            Stmt::StoreOutput {
                output,
                components,
                value,
            } => tagged(
                "store",
                Value::Obj(vec![
                    ("output".to_string(), Value::Num(*output as f64)),
                    ("components".to_string(), components.to_value()),
                    ("value".to_string(), value.to_value()),
                ]),
            ),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => tagged(
                "if",
                Value::Obj(vec![
                    ("cond".to_string(), cond.to_value()),
                    ("then".to_string(), then_body.to_value()),
                    ("else".to_string(), else_body.to_value()),
                ]),
            ),
            Stmt::Loop {
                var,
                start,
                end,
                step,
                body,
            } => tagged(
                "loop",
                Value::Obj(vec![
                    ("var".to_string(), var.to_value()),
                    ("start".to_string(), Value::Str(start.to_string())),
                    ("end".to_string(), Value::Str(end.to_string())),
                    ("step".to_string(), Value::Str(step.to_string())),
                    ("body".to_string(), body.to_value()),
                ]),
            ),
            Stmt::Discard { cond } => tagged("discard", cond.to_value()),
        }
    }
}

impl Deserialize for Stmt {
    fn from_value(v: &Value) -> Result<Self, String> {
        let (tag, p) = untag(v)?;
        match tag {
            "def" => Ok(Stmt::Def {
                dst: Reg::from_value(field(p, "dst")?)?,
                op: Op::from_value(field(p, "op")?)?,
            }),
            "store" => Ok(Stmt::StoreOutput {
                output: usize::from_value(field(p, "output")?)?,
                components: Option::from_value(field(p, "components")?)?,
                value: Operand::from_value(field(p, "value")?)?,
            }),
            "if" => Ok(Stmt::If {
                cond: Operand::from_value(field(p, "cond")?)?,
                then_body: Vec::from_value(field(p, "then")?)?,
                else_body: Vec::from_value(field(p, "else")?)?,
            }),
            "loop" => Ok(Stmt::Loop {
                var: Reg::from_value(field(p, "var")?)?,
                start: int_from_value(field(p, "start")?, "i64")?,
                end: int_from_value(field(p, "end")?, "i64")?,
                step: int_from_value(field(p, "step")?, "i64")?,
                body: Vec::from_value(field(p, "body")?)?,
            }),
            "discard" => Ok(Stmt::Discard {
                cond: Option::from_value(p)?,
            }),
            other => Err(format!("unknown statement variant `{other}`")),
        }
    }
}

impl Serialize for InputVar {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), self.name.to_value()),
            ("ty".to_string(), self.ty.to_value()),
        ])
    }
}

impl Deserialize for InputVar {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(InputVar {
            name: String::from_value(field(v, "name")?)?,
            ty: IrType::from_value(field(v, "ty")?)?,
        })
    }
}

impl Serialize for OutputVar {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), self.name.to_value()),
            ("ty".to_string(), self.ty.to_value()),
        ])
    }
}

impl Deserialize for OutputVar {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(OutputVar {
            name: String::from_value(field(v, "name")?)?,
            ty: IrType::from_value(field(v, "ty")?)?,
        })
    }
}

impl Serialize for UniformVar {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), self.name.to_value()),
            ("ty".to_string(), self.ty.to_value()),
            ("slot".to_string(), Value::Num(self.slot as f64)),
            ("original".to_string(), self.original.to_value()),
        ])
    }
}

impl Deserialize for UniformVar {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(UniformVar {
            name: String::from_value(field(v, "name")?)?,
            ty: IrType::from_value(field(v, "ty")?)?,
            slot: usize::from_value(field(v, "slot")?)?,
            original: String::from_value(field(v, "original")?)?,
        })
    }
}

impl Serialize for SamplerVar {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), self.name.to_value()),
            ("dim".to_string(), self.dim.to_value()),
        ])
    }
}

impl Deserialize for SamplerVar {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(SamplerVar {
            name: String::from_value(field(v, "name")?)?,
            dim: TextureDim::from_value(field(v, "dim")?)?,
        })
    }
}

impl Serialize for ConstArray {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), self.name.to_value()),
            ("elem_ty".to_string(), self.elem_ty.to_value()),
            (
                "elements".to_string(),
                Value::Arr(
                    self.elements
                        .iter()
                        .map(|lanes| Value::Arr(lanes.iter().map(|v| f64_to_value(*v)).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for ConstArray {
    fn from_value(v: &Value) -> Result<Self, String> {
        let elements = match field(v, "elements")? {
            Value::Arr(items) => items
                .iter()
                .map(|item| match item {
                    Value::Arr(lanes) => lanes.iter().map(f64_from_value).collect(),
                    other => Err(format!("expected lane array, got {other:?}")),
                })
                .collect::<Result<_, _>>()?,
            other => return Err(format!("expected element array, got {other:?}")),
        };
        Ok(ConstArray {
            name: String::from_value(field(v, "name")?)?,
            elem_ty: IrType::from_value(field(v, "elem_ty")?)?,
            elements,
        })
    }
}

impl Serialize for RegInfo {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("ty".to_string(), self.ty.to_value()),
            ("name_hint".to_string(), self.name_hint.to_value()),
        ])
    }
}

impl Deserialize for RegInfo {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(RegInfo {
            ty: IrType::from_value(field(v, "ty")?)?,
            name_hint: Option::from_value(field(v, "name_hint")?)?,
        })
    }
}

impl Serialize for Shader {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), self.name.to_value()),
            ("inputs".to_string(), self.inputs.to_value()),
            ("uniforms".to_string(), self.uniforms.to_value()),
            ("samplers".to_string(), self.samplers.to_value()),
            ("outputs".to_string(), self.outputs.to_value()),
            ("const_arrays".to_string(), self.const_arrays.to_value()),
            ("regs".to_string(), self.regs.to_value()),
            ("body".to_string(), self.body.to_value()),
        ])
    }
}

impl Deserialize for Shader {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Shader {
            name: String::from_value(field(v, "name")?)?,
            inputs: Vec::from_value(field(v, "inputs")?)?,
            uniforms: Vec::from_value(field(v, "uniforms")?)?,
            samplers: Vec::from_value(field(v, "samplers")?)?,
            outputs: Vec::from_value(field(v, "outputs")?)?,
            const_arrays: Vec::from_value(field(v, "const_arrays")?)?,
            regs: Vec::from_value(field(v, "regs")?)?,
            body: Vec::from_value(field(v, "body")?)?,
            // The fingerprint memo is a cache, not part of the value; a
            // deserialised shader starts with an empty one.
            fp_memo: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;

    fn sample_shader() -> Shader {
        let mut s = Shader::new("roundtrip");
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        s.uniforms.push(UniformVar {
            name: "tint_c0".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "uniform mat4 tint;".into(),
        });
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Shadow2D,
        });
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.const_arrays.push(ConstArray {
            name: "weights".into(),
            elem_ty: IrType::fvec(4),
            elements: vec![vec![0.1, -0.0, 1e-17, 3.5], vec![0.25; 4]],
        });
        let cond = s.new_reg(IrType::BOOL);
        let acc = s.new_named_reg(IrType::fvec(4), "acc");
        let t = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Lt, Operand::Input(0), Operand::float(0.5)),
            },
            Stmt::Def {
                dst: t,
                op: Op::TextureSample {
                    sampler: 0,
                    coords: Operand::Input(0),
                    lod: Some(Operand::float(0.0)),
                    dim: TextureDim::Shadow2D,
                },
            },
            Stmt::Loop {
                var: s.new_reg(IrType::I32),
                start: -1,
                end: 9,
                step: 2,
                body: vec![Stmt::Def {
                    dst: acc,
                    op: Op::Intrinsic(
                        Intrinsic::Mix,
                        vec![Operand::Reg(t), Operand::Uniform(0), Operand::float(0.3)],
                    ),
                }],
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: vec![Stmt::Discard {
                    cond: Some(Operand::boolean(true)),
                }],
                else_body: vec![Stmt::Def {
                    dst: acc,
                    op: Op::Select {
                        cond: Operand::Reg(cond),
                        if_true: Operand::Reg(t),
                        if_false: Operand::Const(Constant::FloatVec(vec![0.0; 4])),
                    },
                }],
            },
            Stmt::StoreOutput {
                output: 0,
                components: Some(vec![0, 1, 2]),
                value: Operand::Reg(acc),
            },
        ];
        s
    }

    #[test]
    fn shader_round_trips_exactly() {
        let shader = sample_shader();
        let back = Shader::from_value(&shader.to_value()).unwrap();
        assert_eq!(back, shader);
        assert_eq!(fingerprint(&back), fingerprint(&shader));
    }

    #[test]
    fn shader_round_trips_through_json_text() {
        let shader = sample_shader();
        let json = serde_json::to_string(&shader).unwrap();
        let back: Shader = serde_json::from_str(&json).unwrap();
        assert_eq!(back, shader);
    }

    #[test]
    fn floats_survive_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e-300,
            -2.5e17,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let back = f64_from_value(&f64_to_value(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} drifted");
        }
        // NaN keeps NaN-ness (the payload is not significant to the IR).
        assert!(f64_from_value(&f64_to_value(f64::NAN)).unwrap().is_nan());
    }

    #[test]
    fn sixty_four_bit_integers_survive() {
        let c = Constant::Uint(u64::MAX);
        assert_eq!(Constant::from_value(&c.to_value()).unwrap(), c);
        let c = Constant::Int(i64::MIN);
        assert_eq!(Constant::from_value(&c.to_value()).unwrap(), c);
    }

    #[test]
    fn every_enum_code_round_trips() {
        for dim in [
            TextureDim::Dim2D,
            TextureDim::Dim3D,
            TextureDim::Cube,
            TextureDim::Shadow2D,
            TextureDim::Array2D,
        ] {
            assert_eq!(TextureDim::from_value(&dim.to_value()).unwrap(), dim);
        }
        for scalar in [Scalar::F32, Scalar::I32, Scalar::U32, Scalar::Bool] {
            assert_eq!(Scalar::from_value(&scalar.to_value()).unwrap(), scalar);
        }
        for op in [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Mod,
            BinaryOp::Eq,
            BinaryOp::Ne,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
            BinaryOp::And,
            BinaryOp::Or,
        ] {
            assert_eq!(BinaryOp::from_value(&op.to_value()).unwrap(), op);
        }
    }

    #[test]
    fn malformed_values_error_instead_of_panicking() {
        assert!(Shader::from_value(&Value::Num(1.0)).is_err());
        assert!(Stmt::from_value(&tagged("nope", Value::Null)).is_err());
        assert!(Op::from_value(&tagged("bin", Value::Obj(vec![]))).is_err());
        assert!(Constant::from_value(&tagged("float", Value::Str("xyz".into()))).is_err());
        assert!(IrType::from_value(&Value::Obj(vec![
            ("scalar".to_string(), Value::Str("f32".into())),
            ("width".to_string(), Value::Num(9.0)),
        ]))
        .is_err());
        assert!(Intrinsic::from_value(&Value::Str("definitely_not".into())).is_err());
    }
}
