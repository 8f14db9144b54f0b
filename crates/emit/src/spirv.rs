//! SPIR-V-like textual assembly: emission and the matching front-end.
//!
//! The paper's desktop pipeline feeds drivers GLSL, but the modern form of
//! the same experiment hands a Vulkan driver SPIR-V produced from the very
//! same optimized IR. [`emit_spirv_asm`] writes a *textual, structured*
//! SPIR-V-like assembly — `OpEntryPoint` / `OpLoad` / `OpStore`-style lines,
//! SSA `%NNN` result ids by register index (the [`TempNameStyle::SpirvId`]
//! id space), explicit result types on every instruction — in the layout
//! `spirv-dis` prints. It is deliberately **not** a binary SPIR-V module
//! (see ROADMAP: real binary encoding is the recorded follow-on): structured
//! control flow keeps prism's counted loops as a `OpLoopMerge` +
//! `OpLoopCounter` pair instead of φ-nodes, and interface declarations carry
//! the original GLSL uniform spelling as a `;` comment so the external
//! interface survives the round trip exactly.
//!
//! [`parse_spirv_asm`] is the consuming front-end (what the simulated Vulkan
//! driver runs): it rebuilds a full [`Shader`] — interface, constants and
//! structured body — from the text, so driver models cost the code the
//! driver actually parsed, exactly as the GLSL platforms do. Like the GLSL
//! parser, it rejects nesting deeper than [`MAX_NESTING`] levels.
//!
//! [`TempNameStyle::SpirvId`]: crate::glsl_backend::TempNameStyle

use crate::glsl_backend::Swizzle;
use crate::names::RegNamer;
use prism_glsl::parser::MAX_NESTING;
use prism_ir::prelude::*;
use prism_ir::types::Scalar;
use prism_ir::value::{Floats, GlslFloat};
use prism_ir::value_key::OperandKey;
use prism_ir::verify::operand_ty;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write};

/// The version token the assembly header carries (and the parser reports as
/// the source-form version the driver saw).
pub const SPIRV_VERSION: &str = "spirv-1.0";

/// Emits the complete SPIR-V-like assembly of a shader.
pub fn emit_spirv_asm(shader: &Shader) -> String {
    let mut out = String::new();
    SpirvEmitter::new(shader).run(&mut out);
    out
}

/// One emission, written straight into the caller's output buffer. Only the
/// constant declarations, which the body discovers but the global section
/// above it declares, are gathered aside and spliced in at the end.
struct SpirvEmitter<'a> {
    shader: &'a Shader,
    namer: RegNamer,
    /// Named ids handed out so far. The numeric register ids are never
    /// stored: [`is_register_id`] recognises them by shape.
    used_ids: HashSet<String>,
    /// Interface / const-array ids, in declaration order.
    input_ids: Vec<String>,
    output_ids: Vec<String>,
    /// One id per uniform *name* (grouped slots), plus each slot's flat base.
    uniform_ids: Vec<(String, usize, usize)>,
    sampler_ids: Vec<String>,
    array_ids: Vec<String>,
    /// Ids of the per-input / per-uniform-slot `OpLoad` results.
    input_loads: Vec<String>,
    uniform_loads: Vec<String>,
    /// Constant declaration lines in first-use order, the constants' ids,
    /// and each distinct constant's index among them.
    consts: String,
    const_names: Vec<String>,
    const_ids: HashMap<OperandKey<'a>, usize>,
    label: usize,
}

impl<'a> SpirvEmitter<'a> {
    fn new(shader: &'a Shader) -> Self {
        SpirvEmitter {
            shader,
            namer: RegNamer::spirv_ids(shader),
            used_ids: ["%main", "%entry"].map(String::from).into_iter().collect(),
            input_ids: Vec::new(),
            output_ids: Vec::new(),
            uniform_ids: Vec::new(),
            sampler_ids: Vec::new(),
            array_ids: Vec::new(),
            input_loads: Vec::new(),
            uniform_loads: Vec::new(),
            consts: String::new(),
            const_names: Vec::new(),
            const_ids: HashMap::new(),
            label: 0,
        }
    }

    /// Allocates a not-yet-used id, suffixing on collision.
    fn fresh(&mut self, base: &str) -> String {
        let taken = |this: &Self, id: &str| {
            this.used_ids.contains(id) || is_register_id(id, this.shader.regs.len())
        };
        let mut candidate = format!("%{base}");
        let mut n = 0;
        while taken(self, &candidate) {
            n += 1;
            candidate = format!("%{base}_{n}");
        }
        self.used_ids.insert(candidate.clone());
        candidate
    }

    fn run(mut self, out: &mut String) {
        let shader = self.shader;
        self.allocate_interface_ids();

        out.push_str("; SPIR-V\n; Version: 1.0\n; Generator: prism; 0\n; Schema: 0\n");
        out.push_str("OpCapability Shader\n");
        out.push_str("OpMemoryModel Logical GLSL450\n");
        out.push_str("OpEntryPoint Fragment %main \"main\"");
        for id in self.input_ids.iter().chain(&self.output_ids) {
            let _ = write!(out, " {id}");
        }
        out.push_str("\nOpExecutionMode %main OriginUpperLeft\n");
        out.push_str("OpSource GLSL 450\n");
        out.push_str("OpName %main \"main\"\n");
        for (i, id) in self.input_ids.iter().enumerate() {
            let _ = writeln!(out, "OpDecorate {id} Location {i}");
        }
        for (i, id) in self.output_ids.iter().enumerate() {
            let _ = writeln!(out, "OpDecorate {id} Location {i}");
        }
        for (i, (id, _, _)) in self.uniform_ids.iter().enumerate() {
            let _ = writeln!(out, "OpDecorate {id} Binding {i}");
        }
        for (i, id) in self.sampler_ids.iter().enumerate() {
            let _ = writeln!(out, "OpDecorate {id} Binding {i}");
        }
        for (id, v) in self.input_ids.iter().zip(&shader.inputs) {
            let _ = writeln!(out, "{id} = OpVariable Input {}", TypeToken(v.ty));
        }
        for (id, v) in self.output_ids.iter().zip(&shader.outputs) {
            let _ = writeln!(out, "{id} = OpVariable Output {}", TypeToken(v.ty));
        }
        for (id, base, slots) in &self.uniform_ids {
            let u = &shader.uniforms[*base];
            let _ = writeln!(
                out,
                "{id} = OpVariable Uniform {} x{slots} ; {}",
                TypeToken(u.ty),
                u.original
            );
        }
        for (id, s) in self.sampler_ids.iter().zip(&shader.samplers) {
            let _ = writeln!(
                out,
                "{id} = OpVariable UniformConstant {}",
                crate::glsl_backend::glsl_sampler_name(s.dim)
            );
        }
        for (id, arr) in self.array_ids.iter().zip(&shader.const_arrays) {
            let _ = write!(
                out,
                "{id} = OpConstantComposite {}[{}] ",
                TypeToken(arr.elem_ty),
                arr.len()
            );
            for (i, lanes) in arr.elements.iter().enumerate() {
                let sep = if i > 0 { " " } else { "" };
                let _ = write!(out, "{sep}({})", Floats(lanes, " "));
            }
            out.push('\n');
        }
        // The constant declarations belong here, but the body below is what
        // discovers them: they are spliced in once it is written.
        let consts_at = out.len();
        out.push_str("%main = OpFunction void None\n%entry = OpLabel\n");
        self.emit_loads(out);
        self.emit_body(out, &shader.body);
        out.push_str("OpReturn\nOpFunctionEnd\n");
        out.insert_str(consts_at, &self.consts);
    }

    fn allocate_interface_ids(&mut self) {
        let shader = self.shader;
        for v in &shader.inputs {
            let id = self.fresh(&v.name);
            self.input_ids.push(id);
        }
        for v in &shader.outputs {
            let id = self.fresh(&v.name);
            self.output_ids.push(id);
        }
        // Group uniform slots under one id per declaration, like the GLSL
        // interface emission does.
        let mut idx = 0;
        while idx < shader.uniforms.len() {
            let name = &shader.uniforms[idx].name;
            let slots = shader.uniforms[idx..]
                .iter()
                .take_while(|u| u.name == *name)
                .count();
            let id = self.fresh(name);
            self.uniform_ids.push((id, idx, slots));
            idx += slots;
        }
        for v in &shader.samplers {
            let id = self.fresh(&v.name);
            self.sampler_ids.push(id);
        }
        for a in &shader.const_arrays {
            let id = self.fresh(&a.name);
            self.array_ids.push(id);
        }
    }

    /// Every input and uniform slot is loaded once at function entry (the
    /// assembly's stand-in for per-use access chains).
    fn emit_loads(&mut self, out: &mut String) {
        let shader = self.shader;
        for (i, v) in shader.inputs.iter().enumerate() {
            let id = self.fresh(&format!("in{i}"));
            let _ = writeln!(
                out,
                "{id} = OpLoad {} {}",
                TypeToken(v.ty),
                self.input_ids[i]
            );
            self.input_loads.push(id);
        }
        for group in 0..self.uniform_ids.len() {
            let (_, base, slots) = self.uniform_ids[group];
            for slot in 0..slots {
                let flat = base + slot;
                let id = self.fresh(&format!("u{flat}"));
                let _ = writeln!(
                    out,
                    "{id} = OpLoad {} {} {slot}",
                    TypeToken(shader.uniforms[flat].ty),
                    self.uniform_ids[group].0
                );
                self.uniform_loads.push(id);
            }
        }
    }

    /// Writes an operand's id, declaring a constant on its first use.
    fn operand(&mut self, out: &mut String, operand: &'a Operand) {
        let id = match operand {
            Operand::Reg(r) => self.namer.name(*r),
            Operand::Input(i) => &self.input_loads[*i],
            Operand::Uniform(u) => &self.uniform_loads[*u],
            Operand::Const(c) => {
                let index = self.const_id(operand, c);
                &self.const_names[index]
            }
        };
        out.push_str(id);
    }

    /// Writes operands separated by single spaces.
    fn operands(&mut self, out: &mut String, operands: &'a [Operand]) {
        for (i, operand) in operands.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            self.operand(out, operand);
        }
    }

    /// The index of constant `c` (the payload of `operand`), declaring it on
    /// first sight. Constants equal as values (`0.0` and `-0.0`) share one
    /// declaration: the first one's.
    fn const_id(&mut self, operand: &'a Operand, c: &Constant) -> usize {
        let key = OperandKey(operand);
        if let Some(&index) = self.const_ids.get(&key) {
            return index;
        }
        let id = match c {
            Constant::Float(v) => self.fresh(&format!(
                "float_{}",
                mangle_number(&GlslFloat(*v).to_string())
            )),
            Constant::Int(v) => self.fresh(&format!("int_{}", mangle_number(&v.to_string()))),
            Constant::Uint(v) => self.fresh(&format!("uint_{v}")),
            Constant::Bool(b) => self.fresh(if *b { "true" } else { "false" }),
            Constant::FloatVec(_) => self.fresh(&format!("cv{}", self.const_ids.len())),
        };
        let consts = &mut self.consts;
        let _ = match c {
            Constant::Float(v) => writeln!(consts, "{id} = OpConstant float {}", GlslFloat(*v)),
            Constant::Int(v) => writeln!(consts, "{id} = OpConstant int {v}"),
            Constant::Uint(v) => writeln!(consts, "{id} = OpConstant uint {v}"),
            Constant::Bool(true) => writeln!(consts, "{id} = OpConstantTrue bool"),
            Constant::Bool(false) => writeln!(consts, "{id} = OpConstantFalse bool"),
            Constant::FloatVec(v) => writeln!(
                consts,
                "{id} = OpConstantComposite v{}float {}",
                v.len(),
                Floats(v, " ")
            ),
        };
        let index = self.const_names.len();
        self.const_names.push(id);
        self.const_ids.insert(key, index);
        index
    }

    fn emit_body(&mut self, out: &mut String, body: &'a [Stmt]) {
        for stmt in body {
            self.emit_stmt(out, stmt);
        }
    }

    fn emit_stmt(&mut self, out: &mut String, stmt: &'a Stmt) {
        match stmt {
            Stmt::Def { dst, op } => self.emit_def(out, *dst, op),
            Stmt::StoreOutput {
                output,
                components,
                value,
            } => {
                let _ = write!(out, "OpStore {} ", self.output_ids[*output]);
                self.operand(out, value);
                if let Some(comps) = components {
                    let _ = write!(out, " {}", Swizzle(comps));
                }
                out.push('\n');
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let n = self.label;
                self.label += 1;
                let _ = write!(out, "OpSelectionMerge %merge{n} None\nOpBranchConditional ");
                self.operand(out, cond);
                if else_body.is_empty() {
                    let _ = writeln!(out, " %then{n} %merge{n}");
                } else {
                    let _ = writeln!(out, " %then{n} %else{n}");
                }
                let _ = writeln!(out, "%then{n} = OpLabel");
                self.emit_body(out, then_body);
                let _ = writeln!(out, "OpBranch %merge{n}");
                if !else_body.is_empty() {
                    let _ = writeln!(out, "%else{n} = OpLabel");
                    self.emit_body(out, else_body);
                    let _ = writeln!(out, "OpBranch %merge{n}");
                }
                let _ = writeln!(out, "%merge{n} = OpLabel");
            }
            Stmt::Loop {
                var,
                start,
                end,
                step,
                body,
            } => {
                let n = self.label;
                self.label += 1;
                let _ = writeln!(
                    out,
                    "OpBranch %header{n}\n%header{n} = OpLabel\n\
                     OpLoopMerge %merge{n} %continue{n} None\n\
                     {} = OpLoopCounter int {start} {end} {step}",
                    self.namer.name(*var)
                );
                self.emit_body(out, body);
                let _ = writeln!(
                    out,
                    "%continue{n} = OpLabel\nOpBranch %header{n}\n%merge{n} = OpLabel"
                );
            }
            Stmt::Discard { cond } => match cond {
                None => out.push_str("OpKill\n"),
                Some(c) => {
                    let n = self.label;
                    self.label += 1;
                    let _ = write!(out, "OpSelectionMerge %merge{n} None\nOpBranchConditional ");
                    self.operand(out, c);
                    let _ = writeln!(
                        out,
                        " %then{n} %merge{n}\n%then{n} = OpLabel\n\
                         OpKill\nOpBranch %merge{n}\n%merge{n} = OpLabel"
                    );
                }
            },
        }
    }

    fn emit_def(&mut self, out: &mut String, dst: Reg, op: &'a Op) {
        let ty = TypeToken(self.shader.reg_ty(dst));
        // The operand's scalar kind picks the float/int/bool opcode form.
        let shader = self.shader;
        let scalar_of = |o: &Operand| operand_ty(shader, o).map_or(Scalar::F32, |ty| ty.scalar);
        let _ = write!(out, "{} = ", self.namer.name(dst));
        match op {
            Op::Mov(a) => {
                let _ = write!(out, "OpCopyObject {ty} ");
                self.operand(out, a);
            }
            Op::Binary(b, x, y) => {
                let _ = write!(out, "{} {ty} ", binary_opcode(*b, scalar_of(x)));
                self.operand(out, x);
                out.push(' ');
                self.operand(out, y);
            }
            Op::Unary(UnaryOp::Neg, a) => {
                let opcode = if scalar_of(a).is_float() {
                    "OpFNegate"
                } else {
                    "OpSNegate"
                };
                let _ = write!(out, "{opcode} {ty} ");
                self.operand(out, a);
            }
            Op::Unary(UnaryOp::Not, a) => {
                let _ = write!(out, "OpLogicalNot {ty} ");
                self.operand(out, a);
            }
            Op::Intrinsic(i, args) => {
                let _ = match core_intrinsic_opcode(*i) {
                    Some(core) => write!(out, "{core} {ty} "),
                    None => write!(out, "OpExtInst {ty} GLSL.std.450 {} ", ext_inst_name(*i)),
                };
                self.operands(out, args);
            }
            Op::TextureSample {
                sampler,
                coords,
                lod,
                dim: _,
            } => {
                let s = &self.sampler_ids[*sampler];
                let _ = match lod {
                    None => write!(out, "OpImageSampleImplicitLod {ty} {s} "),
                    Some(_) => write!(out, "OpImageSampleExplicitLod {ty} {s} "),
                };
                self.operand(out, coords);
                if let Some(l) = lod {
                    out.push_str(" Lod ");
                    self.operand(out, l);
                }
            }
            Op::Construct { ty: _, parts } => {
                let _ = write!(out, "OpCompositeConstruct {ty} ");
                self.operands(out, parts);
            }
            Op::Splat {
                ty: splat_ty,
                value,
            } => {
                let _ = write!(out, "OpCompositeConstruct {ty} ");
                for i in 0..splat_ty.width {
                    if i > 0 {
                        out.push(' ');
                    }
                    self.operand(out, value);
                }
            }
            Op::Extract { vector, index } => {
                let _ = write!(out, "OpCompositeExtract {ty} ");
                self.operand(out, vector);
                let _ = write!(out, " {index}");
            }
            Op::Insert {
                vector,
                index,
                value,
            } => {
                let _ = write!(out, "OpCompositeInsert {ty} ");
                self.operand(out, value);
                out.push(' ');
                self.operand(out, vector);
                let _ = write!(out, " {index}");
            }
            Op::Swizzle { vector, lanes } => {
                let _ = write!(out, "OpVectorShuffle {ty} ");
                self.operand(out, vector);
                out.push(' ');
                self.operand(out, vector);
                for lane in lanes {
                    let _ = write!(out, " {lane}");
                }
                if lanes.is_empty() {
                    out.push(' ');
                }
            }
            Op::Select {
                cond,
                if_true,
                if_false,
            } => {
                let _ = write!(out, "OpSelect {ty} ");
                self.operand(out, cond);
                out.push(' ');
                self.operand(out, if_true);
                out.push(' ');
                self.operand(out, if_false);
            }
            Op::ConstArrayLoad { array, index } => {
                let _ = write!(out, "OpAccessChain {ty} {} ", self.array_ids[*array]);
                self.operand(out, index);
            }
            Op::Convert { to, value } => {
                let _ = write!(out, "{} {ty} ", convert_opcode(scalar_of(value), to.scalar));
                self.operand(out, value);
            }
        }
        out.push('\n');
    }
}

/// Whether `id` is one of the numeric register ids `%<100 + index>` of a
/// shader with `regs` registers (the ids [`RegNamer::spirv_ids`] writes).
fn is_register_id(id: &str, regs: usize) -> bool {
    id.strip_prefix('%')
        .filter(|digits| !digits.starts_with('0') && digits.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|digits| digits.parse::<usize>().ok())
        .is_some_and(|n| n >= 100 && n - 100 < regs)
}

/// The assembly spelling of an IR type (`v4float`, `float`, `int`, …).
struct TypeToken(IrType);

impl fmt::Display for TypeToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scalar = match self.0.scalar {
            Scalar::F32 => "float",
            Scalar::I32 => "int",
            Scalar::U32 => "uint",
            Scalar::Bool => "bool",
        };
        if self.0.width == 1 {
            f.write_str(scalar)
        } else {
            write!(f, "v{}{scalar}", self.0.width)
        }
    }
}

fn parse_type_token(token: &str) -> Option<IrType> {
    let (width, scalar) = if let Some(rest) = token.strip_prefix('v') {
        let mut chars = rest.chars();
        let width = chars.next()?.to_digit(10)? as u8;
        (width, chars.as_str())
    } else {
        (1, token)
    };
    let scalar = match scalar {
        "float" => Scalar::F32,
        "int" => Scalar::I32,
        "uint" => Scalar::U32,
        "bool" => Scalar::Bool,
        _ => return None,
    };
    if (1..=4).contains(&width) {
        Some(IrType { scalar, width })
    } else {
        None
    }
}

/// Turns a numeric literal into an id-safe fragment (`0.25` → `0_25`,
/// `-3` → `n3`).
fn mangle_number(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            '.' => '_',
            '-' => 'n',
            '+' => 'p',
            other => other,
        })
        .collect()
}

fn binary_opcode(op: BinaryOp, kind: Scalar) -> &'static str {
    use BinaryOp::*;
    match (op, kind) {
        (Add, Scalar::F32) => "OpFAdd",
        (Add, _) => "OpIAdd",
        (Sub, Scalar::F32) => "OpFSub",
        (Sub, _) => "OpISub",
        (Mul, Scalar::F32) => "OpFMul",
        (Mul, _) => "OpIMul",
        (Div, Scalar::F32) => "OpFDiv",
        (Div, Scalar::U32) => "OpUDiv",
        (Div, _) => "OpSDiv",
        (Mod, Scalar::F32) => "OpFMod",
        (Mod, Scalar::U32) => "OpUMod",
        (Mod, _) => "OpSMod",
        (Eq, Scalar::F32) => "OpFOrdEqual",
        (Eq, Scalar::Bool) => "OpLogicalEqual",
        (Eq, _) => "OpIEqual",
        (Ne, Scalar::F32) => "OpFOrdNotEqual",
        (Ne, Scalar::Bool) => "OpLogicalNotEqual",
        (Ne, _) => "OpINotEqual",
        (Lt, Scalar::F32) => "OpFOrdLessThan",
        (Lt, Scalar::U32) => "OpULessThan",
        (Lt, _) => "OpSLessThan",
        (Le, Scalar::F32) => "OpFOrdLessThanEqual",
        (Le, Scalar::U32) => "OpULessThanEqual",
        (Le, _) => "OpSLessThanEqual",
        (Gt, Scalar::F32) => "OpFOrdGreaterThan",
        (Gt, Scalar::U32) => "OpUGreaterThan",
        (Gt, _) => "OpSGreaterThan",
        (Ge, Scalar::F32) => "OpFOrdGreaterThanEqual",
        (Ge, Scalar::U32) => "OpUGreaterThanEqual",
        (Ge, _) => "OpSGreaterThanEqual",
        (And, _) => "OpLogicalAnd",
        (Or, _) => "OpLogicalOr",
    }
}

fn parse_binary_opcode(opcode: &str) -> Option<BinaryOp> {
    Some(match opcode {
        "OpFAdd" | "OpIAdd" => BinaryOp::Add,
        "OpFSub" | "OpISub" => BinaryOp::Sub,
        "OpFMul" | "OpIMul" => BinaryOp::Mul,
        "OpFDiv" | "OpSDiv" | "OpUDiv" => BinaryOp::Div,
        "OpFMod" | "OpSMod" | "OpUMod" => BinaryOp::Mod,
        "OpFOrdEqual" | "OpIEqual" | "OpLogicalEqual" => BinaryOp::Eq,
        "OpFOrdNotEqual" | "OpINotEqual" | "OpLogicalNotEqual" => BinaryOp::Ne,
        "OpFOrdLessThan" | "OpSLessThan" | "OpULessThan" => BinaryOp::Lt,
        "OpFOrdLessThanEqual" | "OpSLessThanEqual" | "OpULessThanEqual" => BinaryOp::Le,
        "OpFOrdGreaterThan" | "OpSGreaterThan" | "OpUGreaterThan" => BinaryOp::Gt,
        "OpFOrdGreaterThanEqual" | "OpSGreaterThanEqual" | "OpUGreaterThanEqual" => BinaryOp::Ge,
        "OpLogicalAnd" => BinaryOp::And,
        "OpLogicalOr" => BinaryOp::Or,
        _ => return None,
    })
}

/// Intrinsics that are core SPIR-V instructions rather than
/// `GLSL.std.450` extended ones.
fn core_intrinsic_opcode(i: Intrinsic) -> Option<&'static str> {
    Some(match i {
        Intrinsic::Dot => "OpDot",
        Intrinsic::DFdx => "OpDPdx",
        Intrinsic::DFdy => "OpDPdy",
        Intrinsic::Fwidth => "OpFwidth",
        _ => return None,
    })
}

fn parse_core_intrinsic(opcode: &str) -> Option<Intrinsic> {
    Some(match opcode {
        "OpDot" => Intrinsic::Dot,
        "OpDPdx" => Intrinsic::DFdx,
        "OpDPdy" => Intrinsic::DFdy,
        "OpFwidth" => Intrinsic::Fwidth,
        _ => return None,
    })
}

/// `GLSL.std.450` spellings of the extended-instruction intrinsics.
fn ext_inst_name(i: Intrinsic) -> &'static str {
    use Intrinsic::*;
    match i {
        Pow => "Pow",
        Exp => "Exp",
        Log => "Log",
        Sqrt => "Sqrt",
        InverseSqrt => "InverseSqrt",
        Sin => "Sin",
        Cos => "Cos",
        Abs => "FAbs",
        Sign => "FSign",
        Floor => "Floor",
        Fract => "Fract",
        Mod => "FMod",
        Min => "FMin",
        Max => "FMax",
        Clamp => "FClamp",
        Mix => "FMix",
        Step => "Step",
        Smoothstep => "SmoothStep",
        Length => "Length",
        Distance => "Distance",
        Dot | DFdx | DFdy | Fwidth => unreachable!("core instructions"),
        Cross => "Cross",
        Normalize => "Normalize",
        Reflect => "Reflect",
        Refract => "Refract",
    }
}

fn parse_ext_inst_name(name: &str) -> Option<Intrinsic> {
    use Intrinsic::*;
    Some(match name {
        "Pow" => Pow,
        "Exp" => Exp,
        "Log" => Log,
        "Sqrt" => Sqrt,
        "InverseSqrt" => InverseSqrt,
        "Sin" => Sin,
        "Cos" => Cos,
        "FAbs" => Abs,
        "FSign" => Sign,
        "Floor" => Floor,
        "Fract" => Fract,
        "FMod" => Mod,
        "FMin" => Min,
        "FMax" => Max,
        "FClamp" => Clamp,
        "FMix" => Mix,
        "Step" => Step,
        "SmoothStep" => Smoothstep,
        "Length" => Length,
        "Distance" => Distance,
        "Cross" => Cross,
        "Normalize" => Normalize,
        "Reflect" => Reflect,
        "Refract" => Refract,
        _ => return None,
    })
}

fn convert_opcode(from: Scalar, to: Scalar) -> &'static str {
    match (from, to) {
        (Scalar::F32, Scalar::I32) => "OpConvertFToS",
        (Scalar::F32, Scalar::U32) => "OpConvertFToU",
        (Scalar::I32, Scalar::F32) => "OpConvertSToF",
        (Scalar::U32, Scalar::F32) => "OpConvertUToF",
        _ => "OpBitcast",
    }
}

fn parse_swizzle(text: &str) -> Result<Vec<u8>, String> {
    text.chars()
        .map(|c| match c {
            'x' => Ok(0u8),
            'y' => Ok(1),
            'z' => Ok(2),
            'w' => Ok(3),
            other => Err(format!("invalid swizzle component `{other}`")),
        })
        .collect()
}

/// The result of parsing SPIR-V-like assembly: the reconstructed shader plus
/// the source-form version token the header declared.
#[derive(Debug, Clone)]
pub struct ParsedSpirv {
    /// The reconstructed IR (interface + structured body).
    pub shader: Shader,
    /// The version the front-end saw (e.g. `"spirv-1.0"`).
    pub version: String,
}

/// Parses prism's SPIR-V-like assembly back into a [`Shader`].
///
/// This is the front-end the simulated Vulkan driver runs over submitted
/// text. It accepts exactly the grammar [`emit_spirv_asm`] writes and
/// reports anything else as an error — a driver never guesses.
///
/// # Errors
///
/// Returns a message naming the offending line when the text is not valid
/// prism SPIR-V-like assembly, and a nesting error when selections and
/// loops nest deeper than [`MAX_NESTING`] levels.
pub fn parse_spirv_asm(text: &str) -> Result<ParsedSpirv, String> {
    Parser::new(text).run()
}

#[derive(Default)]
struct Parser<'a> {
    lines: Vec<&'a str>,
    pos: usize,
    /// Selections and loops open around the current line.
    depth: usize,
    shader: Shader,
    version: String,
    /// id → operand (constants, loads, instruction results).
    operands: HashMap<String, Operand>,
    /// id → interface tables.
    outputs: HashMap<String, usize>,
    inputs: HashMap<String, usize>,
    /// uniform group id → (flat base slot, slot count).
    uniforms: HashMap<String, (usize, usize)>,
    samplers: HashMap<String, usize>,
    arrays: HashMap<String, usize>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lines: text.lines().map(str::trim).collect(),
            shader: Shader::new("spirv-asm"),
            ..Parser::default()
        }
    }

    fn run(mut self) -> Result<ParsedSpirv, String> {
        if self.lines.first() != Some(&"; SPIR-V") {
            return Err("not prism SPIR-V-like assembly (missing `; SPIR-V` header)".into());
        }
        self.parse_globals()?;
        let body = self.parse_block(&[])?;
        self.shader.body = body;
        self.expect("OpFunctionEnd")?;
        Ok(ParsedSpirv {
            shader: self.shader,
            version: self.version,
        })
    }

    fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<&'a str> {
        let line = self.peek()?;
        self.pos += 1;
        Some(line)
    }

    fn expect(&mut self, what: &str) -> Result<(), String> {
        match self.next() {
            Some(line) if line == what => Ok(()),
            other => Err(format!("expected `{what}`, got {other:?}")),
        }
    }

    /// Everything up to and including `%entry = OpLabel` plus the prelude
    /// loads: header comments, interface variables, constants.
    fn parse_globals(&mut self) -> Result<(), String> {
        while let Some(line) = self.next() {
            if line.is_empty() {
                continue;
            }
            if let Some(version) = line.strip_prefix("; Version: ") {
                self.version = format!("spirv-{}", version.trim());
                continue;
            }
            if line.starts_with(';') {
                continue;
            }
            // Directive lines without a result id are ignored metadata here.
            if !line.starts_with('%') {
                continue;
            }
            let (id, rest) = split_def(line)?;
            let mut tokens = rest.split_whitespace();
            let opcode = tokens.next().ok_or_else(|| format!("empty def: {line}"))?;
            match opcode {
                "OpVariable" => self.parse_variable(id, rest)?,
                "OpConstant" => {
                    let ty = self.type_arg(tokens.next(), line)?;
                    let literal = tokens
                        .next()
                        .ok_or_else(|| format!("missing literal: {line}"))?;
                    let constant = match ty.scalar {
                        Scalar::F32 => {
                            Constant::Float(literal.parse().map_err(|e| format!("{line}: {e}"))?)
                        }
                        Scalar::I32 => {
                            Constant::Int(literal.parse().map_err(|e| format!("{line}: {e}"))?)
                        }
                        Scalar::U32 => {
                            Constant::Uint(literal.parse().map_err(|e| format!("{line}: {e}"))?)
                        }
                        Scalar::Bool => return Err(format!("bool OpConstant: {line}")),
                    };
                    self.operands
                        .insert(id.to_string(), Operand::Const(constant));
                }
                "OpConstantTrue" => {
                    self.operands.insert(id.to_string(), Operand::boolean(true));
                }
                "OpConstantFalse" => {
                    self.operands
                        .insert(id.to_string(), Operand::boolean(false));
                }
                "OpConstantComposite" => {
                    let ty_token = tokens
                        .next()
                        .ok_or_else(|| format!("missing type: {line}"))?;
                    if let Some(bracket) = ty_token.find('[') {
                        // A constant array: `v4float[9] (..) (..) ...`.
                        self.parse_const_array(id, &ty_token[..bracket], rest)?;
                    } else {
                        let lanes: Result<Vec<f64>, String> = tokens
                            .map(|t| t.parse().map_err(|e| format!("{line}: {e}")))
                            .collect();
                        self.operands.insert(id.to_string(), Operand::fvec(lanes?));
                    }
                }
                "OpFunction" => {
                    self.expect("%entry = OpLabel")?;
                    self.parse_loads()?;
                    return Ok(());
                }
                other => return Err(format!("unexpected global opcode `{other}`: {line}")),
            }
        }
        Err("missing OpFunction".into())
    }

    fn parse_variable(&mut self, id: &str, rest: &str) -> Result<(), String> {
        // `OpVariable <Storage> <type> [x<slots>] [; original]`
        let (decl, comment) = match rest.split_once(" ; ") {
            Some((decl, comment)) => (decl, Some(comment.trim())),
            None => (rest, None),
        };
        let mut tokens = decl.split_whitespace();
        tokens.next(); // OpVariable
        let storage = tokens
            .next()
            .ok_or_else(|| format!("missing storage class: {rest}"))?;
        let ty_token = tokens
            .next()
            .ok_or_else(|| format!("missing type: {rest}"))?;
        let name = id.trim_start_matches('%').to_string();
        match storage {
            "Input" => {
                let ty = self.type_arg(Some(ty_token), rest)?;
                self.inputs.insert(id.to_string(), self.shader.inputs.len());
                self.shader.inputs.push(InputVar { name, ty });
            }
            "Output" => {
                let ty = self.type_arg(Some(ty_token), rest)?;
                self.outputs
                    .insert(id.to_string(), self.shader.outputs.len());
                self.shader.outputs.push(OutputVar { name, ty });
            }
            "Uniform" => {
                let ty = self.type_arg(Some(ty_token), rest)?;
                let slots: usize = match tokens.next() {
                    Some(x) if x.starts_with('x') => {
                        x[1..].parse().map_err(|e| format!("{rest}: {e}"))?
                    }
                    _ => 1,
                };
                let original = comment
                    .ok_or_else(|| format!("uniform without original declaration: {rest}"))?
                    .to_string();
                let base = self.shader.uniforms.len();
                self.uniforms.insert(id.to_string(), (base, slots));
                for slot in 0..slots {
                    self.shader.uniforms.push(UniformVar {
                        name: name.clone(),
                        ty,
                        slot,
                        original: original.clone(),
                    });
                }
            }
            "UniformConstant" => {
                let dim = match ty_token {
                    "sampler2D" => TextureDim::Dim2D,
                    "sampler3D" => TextureDim::Dim3D,
                    "samplerCube" => TextureDim::Cube,
                    "sampler2DShadow" => TextureDim::Shadow2D,
                    "sampler2DArray" => TextureDim::Array2D,
                    other => return Err(format!("unknown sampler type `{other}`")),
                };
                self.samplers
                    .insert(id.to_string(), self.shader.samplers.len());
                self.shader.samplers.push(SamplerVar { name, dim });
            }
            other => return Err(format!("unknown storage class `{other}`: {rest}")),
        }
        Ok(())
    }

    fn parse_const_array(&mut self, id: &str, elem_token: &str, rest: &str) -> Result<(), String> {
        let elem_ty =
            parse_type_token(elem_token).ok_or_else(|| format!("bad element type: {rest}"))?;
        let mut elements = Vec::new();
        let mut cursor = rest;
        while let Some(open) = cursor.find('(') {
            let close = cursor[open..]
                .find(')')
                .ok_or_else(|| format!("unclosed element: {rest}"))?
                + open;
            let lanes: Result<Vec<f64>, String> = cursor[open + 1..close]
                .split_whitespace()
                .map(|t| t.parse().map_err(|e| format!("{rest}: {e}")))
                .collect();
            elements.push(lanes?);
            cursor = &cursor[close + 1..];
        }
        self.arrays
            .insert(id.to_string(), self.shader.const_arrays.len());
        self.shader.const_arrays.push(ConstArray {
            name: id.trim_start_matches('%').to_string(),
            elem_ty,
            elements,
        });
        Ok(())
    }

    /// The function-entry loads mapping interface ids to operand ids.
    fn parse_loads(&mut self) -> Result<(), String> {
        while let Some(line) = self.peek() {
            if !(line.starts_with('%') && line.contains("= OpLoad ")) {
                return Ok(());
            }
            self.next();
            let (id, rest) = split_def(line)?;
            let mut tokens = rest.split_whitespace();
            tokens.next(); // OpLoad
            tokens.next(); // result type (implied by the variable)
            let source = tokens
                .next()
                .ok_or_else(|| format!("missing source: {line}"))?;
            let operand = if let Some(input) = self.inputs.get(source) {
                Operand::Input(*input)
            } else if let Some((base, slots)) = self.uniforms.get(source) {
                let slot: usize = match tokens.next() {
                    Some(t) => t.parse().map_err(|e| format!("{line}: {e}"))?,
                    None => 0,
                };
                if slot >= *slots {
                    return Err(format!("uniform slot out of range: {line}"));
                }
                Operand::Uniform(base + slot)
            } else {
                return Err(format!("OpLoad of unknown variable `{source}`"));
            };
            self.operands.insert(id.to_string(), operand);
        }
        Ok(())
    }

    fn operand(&self, token: &str, line: &str) -> Result<Operand, String> {
        self.operands
            .get(token)
            .cloned()
            .ok_or_else(|| format!("unknown id `{token}` in `{line}`"))
    }

    fn type_arg(&self, token: Option<&str>, line: &str) -> Result<IrType, String> {
        token
            .and_then(parse_type_token)
            .ok_or_else(|| format!("bad type token in `{line}`"))
    }

    /// Parses statements until a label in `stop` (which is consumed) or
    /// a function terminator (`OpReturn`, left unconsumed for the caller).
    fn parse_block(&mut self, stop: &[&str]) -> Result<Vec<Stmt>, String> {
        let mut body = Vec::new();
        loop {
            let Some(line) = self.peek() else {
                return Err("unterminated block".into());
            };
            if line == "OpReturn" {
                if stop.is_empty() {
                    self.next();
                    return Ok(body);
                }
                return Err("OpReturn inside structured block".into());
            }
            if let Some((label, rest)) = line.split_once(" = ") {
                if rest == "OpLabel" && stop.contains(&label) {
                    self.next();
                    return Ok(body);
                }
            }
            self.next();
            if line.starts_with("OpBranch ") {
                // Block terminators inside structured constructs; the
                // structure itself is driven by the labels.
                continue;
            }
            if line == "OpKill" {
                body.push(Stmt::Discard { cond: None });
                continue;
            }
            if let Some(rest) = line.strip_prefix("OpStore ") {
                let mut tokens = rest.split_whitespace();
                let target = tokens
                    .next()
                    .ok_or_else(|| format!("missing store target: {line}"))?;
                let value = tokens
                    .next()
                    .ok_or_else(|| format!("missing store value: {line}"))?;
                let output = *self
                    .outputs
                    .get(target)
                    .ok_or_else(|| format!("store to unknown output `{target}`"))?;
                let components = match tokens.next() {
                    None => None,
                    Some(swz) => Some(parse_swizzle(swz)?),
                };
                body.push(Stmt::StoreOutput {
                    output,
                    components,
                    value: self.operand(value, line)?,
                });
                continue;
            }
            if let Some(rest) = line.strip_prefix("OpSelectionMerge ") {
                let merge = rest
                    .split_whitespace()
                    .next()
                    .ok_or_else(|| format!("missing merge label: {line}"))?;
                self.enter(line)?;
                body.push(self.parse_selection(merge)?);
                self.depth -= 1;
                continue;
            }
            if line.starts_with("OpLoopMerge ") {
                self.enter(line)?;
                body.push(self.parse_loop(line)?);
                self.depth -= 1;
                continue;
            }
            if line.contains(" = ") {
                if line.ends_with("= OpLabel") {
                    // Loop headers arrive via OpBranch; their label line is
                    // consumed here and the next line is OpLoopMerge.
                    continue;
                }
                let stmt = self.parse_def(line)?;
                body.push(stmt);
                continue;
            }
            return Err(format!("unexpected instruction `{line}`"));
        }
    }

    /// Opens the selection or loop `line` starts (one parser recursion),
    /// failing past [`MAX_NESTING`] levels.
    fn enter(&mut self, line: &str) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(format!("nesting deeper than {MAX_NESTING} levels: {line}"));
        }
        Ok(())
    }

    fn parse_selection(&mut self, merge: &str) -> Result<Stmt, String> {
        let branch = self
            .next()
            .ok_or_else(|| "missing OpBranchConditional".to_string())?;
        let rest = branch
            .strip_prefix("OpBranchConditional ")
            .ok_or_else(|| format!("expected OpBranchConditional, got `{branch}`"))?;
        let mut tokens = rest.split_whitespace();
        let cond = tokens
            .next()
            .ok_or_else(|| format!("missing condition: {branch}"))?;
        let then_label = tokens
            .next()
            .ok_or_else(|| format!("missing true label: {branch}"))?;
        let false_label = tokens
            .next()
            .ok_or_else(|| format!("missing false label: {branch}"))?;
        let cond = self.operand(cond, branch)?;
        self.expect(&format!("{then_label} = OpLabel"))?;
        let has_else = false_label != merge;
        let then_body = if has_else {
            self.parse_block(&[false_label])?
        } else {
            self.parse_block(&[merge])?
        };
        let else_body = if has_else {
            self.parse_block(&[merge])?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn parse_loop(&mut self, merge_line: &str) -> Result<Stmt, String> {
        // `OpLoopMerge %merge %continue None`, then the counter definition.
        let mut tokens = merge_line.split_whitespace();
        tokens.next(); // OpLoopMerge
        let merge = tokens
            .next()
            .ok_or_else(|| format!("missing merge label: {merge_line}"))?;
        let cont = tokens
            .next()
            .ok_or_else(|| format!("missing continue label: {merge_line}"))?;
        let counter = self
            .next()
            .ok_or_else(|| "missing OpLoopCounter".to_string())?;
        let (id, rest) = split_def(counter)?;
        let mut tokens = rest.split_whitespace();
        if tokens.next() != Some("OpLoopCounter") {
            return Err(format!("expected OpLoopCounter, got `{counter}`"));
        }
        let ty = self.type_arg(tokens.next(), counter)?;
        let parse_int = |t: Option<&str>| -> Result<i64, String> {
            t.ok_or_else(|| format!("missing bound: {counter}"))?
                .parse()
                .map_err(|e| format!("{counter}: {e}"))
        };
        let start = parse_int(tokens.next())?;
        let end = parse_int(tokens.next())?;
        let step = parse_int(tokens.next())?;
        let var = self.reg_for(id, ty);
        let body = self.parse_block(&[cont])?;
        // The header label shares the continue label's sequence number
        // (`%continueN` ↔ `%headerN`); anything else is not our grammar.
        let sequence = cont
            .strip_prefix("%continue")
            .ok_or_else(|| format!("malformed continue label `{cont}`"))?;
        self.expect(&format!("OpBranch %header{sequence}"))?;
        self.expect(&format!("{merge} = OpLabel"))?;
        Ok(Stmt::Loop {
            var,
            start,
            end,
            step,
            body,
        })
    }

    fn parse_def(&mut self, line: &str) -> Result<Stmt, String> {
        let (id, rest) = split_def(line)?;
        let mut tokens = rest.split_whitespace();
        let opcode = tokens
            .next()
            .ok_or_else(|| format!("empty instruction: {line}"))?;
        let ty = self.type_arg(tokens.next(), line)?;
        let args: Vec<&str> = tokens.collect();
        let arg = |i: usize| -> Result<&str, String> {
            args.get(i)
                .copied()
                .ok_or_else(|| format!("missing operand {i}: {line}"))
        };
        let op = match opcode {
            "OpCopyObject" => Op::Mov(self.operand(arg(0)?, line)?),
            "OpFNegate" | "OpSNegate" => Op::Unary(UnaryOp::Neg, self.operand(arg(0)?, line)?),
            "OpLogicalNot" => Op::Unary(UnaryOp::Not, self.operand(arg(0)?, line)?),
            "OpSelect" => Op::Select {
                cond: self.operand(arg(0)?, line)?,
                if_true: self.operand(arg(1)?, line)?,
                if_false: self.operand(arg(2)?, line)?,
            },
            "OpCompositeExtract" => Op::Extract {
                vector: self.operand(arg(0)?, line)?,
                index: arg(1)?.parse().map_err(|e| format!("{line}: {e}"))?,
            },
            "OpCompositeInsert" => Op::Insert {
                value: self.operand(arg(0)?, line)?,
                vector: self.operand(arg(1)?, line)?,
                index: arg(2)?.parse().map_err(|e| format!("{line}: {e}"))?,
            },
            "OpVectorShuffle" => {
                let vector = self.operand(arg(0)?, line)?;
                let second = self.operand(arg(1)?, line)?;
                if vector != second {
                    return Err(format!("two-source shuffle unsupported: {line}"));
                }
                let lanes: Result<Vec<u8>, String> = args[2..]
                    .iter()
                    .map(|t| t.parse().map_err(|e| format!("{line}: {e}")))
                    .collect();
                Op::Swizzle {
                    vector,
                    lanes: lanes?,
                }
            }
            "OpCompositeConstruct" => {
                let parts: Result<Vec<Operand>, String> =
                    args.iter().map(|t| self.operand(t, line)).collect();
                let parts = parts?;
                let splat = ty.width > 1
                    && parts.len() == ty.width as usize
                    && parts.windows(2).all(|w| w[0] == w[1]);
                if splat {
                    Op::Splat {
                        ty,
                        value: parts[0].clone(),
                    }
                } else {
                    Op::Construct { ty, parts }
                }
            }
            "OpAccessChain" => {
                let array = *self
                    .arrays
                    .get(arg(0)?)
                    .ok_or_else(|| format!("unknown constant array: {line}"))?;
                Op::ConstArrayLoad {
                    array,
                    index: self.operand(arg(1)?, line)?,
                }
            }
            "OpImageSampleImplicitLod" | "OpImageSampleExplicitLod" => {
                let sampler = *self
                    .samplers
                    .get(arg(0)?)
                    .ok_or_else(|| format!("unknown sampler: {line}"))?;
                let coords = self.operand(arg(1)?, line)?;
                let lod = if opcode == "OpImageSampleExplicitLod" {
                    if arg(2)? != "Lod" {
                        return Err(format!("expected Lod operand: {line}"));
                    }
                    Some(self.operand(arg(3)?, line)?)
                } else {
                    None
                };
                Op::TextureSample {
                    sampler,
                    coords,
                    lod,
                    dim: self.shader.samplers[sampler].dim,
                }
            }
            "OpExtInst" => {
                if arg(0)? != "GLSL.std.450" {
                    return Err(format!("unknown extended instruction set: {line}"));
                }
                let intrinsic = parse_ext_inst_name(arg(1)?)
                    .ok_or_else(|| format!("unknown extended instruction: {line}"))?;
                let operands: Result<Vec<Operand>, String> =
                    args[2..].iter().map(|t| self.operand(t, line)).collect();
                Op::Intrinsic(intrinsic, operands?)
            }
            "OpConvertFToS" | "OpConvertFToU" | "OpConvertSToF" | "OpConvertUToF" | "OpBitcast" => {
                Op::Convert {
                    to: ty,
                    value: self.operand(arg(0)?, line)?,
                }
            }
            other => {
                if let Some(intrinsic) = parse_core_intrinsic(other) {
                    let operands: Result<Vec<Operand>, String> =
                        args.iter().map(|t| self.operand(t, line)).collect();
                    Op::Intrinsic(intrinsic, operands?)
                } else if let Some(binary) = parse_binary_opcode(other) {
                    Op::Binary(
                        binary,
                        self.operand(arg(0)?, line)?,
                        self.operand(arg(1)?, line)?,
                    )
                } else {
                    return Err(format!("unknown opcode `{other}`: {line}"));
                }
            }
        };
        let dst = self.reg_for(id, ty);
        Ok(Stmt::Def { dst, op })
    }

    /// The register behind a result id. Emitted ids are per *register*, not
    /// per definition — the IR is not strictly SSA (accumulators redefine
    /// their register inside loops) — so a repeated id must resolve to the
    /// one register it always named.
    fn reg_for(&mut self, id: &str, ty: IrType) -> Reg {
        if let Some(Operand::Reg(r)) = self.operands.get(id) {
            return *r;
        }
        let reg = self.shader.new_reg(ty);
        self.operands.insert(id.to_string(), Operand::Reg(reg));
        reg
    }
}

/// Splits `%id = <rest>`, rejecting lines without a result id.
fn split_def(line: &str) -> Result<(&str, &str), String> {
    let (id, rest) = line
        .split_once(" = ")
        .ok_or_else(|| format!("expected `<id> = <instruction>`: {line}"))?;
    if !id.starts_with('%') {
        return Err(format!("result id must start with `%`: {line}"));
    }
    Ok((id, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::verify::verify;

    fn shader() -> Shader {
        let mut s = Shader::new("spirv-test");
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        s.outputs.push(OutputVar {
            name: "fragColor".into(),
            ty: IrType::fvec(4),
        });
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        s.uniforms.push(UniformVar {
            name: "ambient".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        s.const_arrays.push(ConstArray {
            name: "weights".into(),
            elem_ty: IrType::fvec(4),
            elements: vec![vec![0.1, 0.1, 0.1, 0.1], vec![0.2, 0.2, 0.2, 0.2]],
        });
        let i = s.new_named_reg(IrType::I32, "i");
        let acc = s.new_reg(IrType::fvec(4));
        let w = s.new_reg(IrType::fvec(4));
        let t = s.new_reg(IrType::fvec(4));
        let sum = s.new_reg(IrType::fvec(4));
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
                end: 2,
                step: 1,
                body: vec![
                    Stmt::Def {
                        dst: w,
                        op: Op::ConstArrayLoad {
                            array: 0,
                            index: Operand::Reg(i),
                        },
                    },
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
                        dst: acc,
                        op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Reg(t)),
                    },
                ],
            },
            Stmt::If {
                cond: Operand::boolean(false),
                then_body: vec![Stmt::Discard { cond: None }],
                else_body: vec![],
            },
            Stmt::Def {
                dst: sum,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(acc), Operand::Uniform(0)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(sum),
            },
        ];
        s
    }

    #[test]
    fn emission_is_spirv_shaped() {
        let asm = emit_spirv_asm(&shader());
        assert!(asm.starts_with("; SPIR-V\n; Version: 1.0\n"));
        assert!(asm.contains("OpEntryPoint Fragment %main \"main\" %uv %fragColor"));
        assert!(asm.contains("%uv = OpVariable Input v2float"));
        assert!(asm.contains("%ambient = OpVariable Uniform v4float x1 ; vec4"));
        assert!(asm.contains("%tex = OpVariable UniformConstant sampler2D"));
        assert!(asm.contains("OpImageSampleImplicitLod v4float %tex"));
        assert!(asm.contains("OpLoopMerge %merge0 %continue0 None"));
        assert!(asm.contains("OpStore %fragColor"));
        assert!(asm.contains("%100 ="), "SSA ids by register index:\n{asm}");
        assert!(asm.trim_end().ends_with("OpFunctionEnd"));
    }

    #[test]
    fn parse_reconstructs_interface_and_structure() {
        let s = shader();
        let asm = emit_spirv_asm(&s);
        let parsed = parse_spirv_asm(&asm).expect("own emission parses");
        assert_eq!(parsed.version, SPIRV_VERSION);
        let p = &parsed.shader;
        assert_eq!(p.inputs, s.inputs);
        assert_eq!(p.outputs, s.outputs);
        assert_eq!(p.uniforms, s.uniforms);
        assert_eq!(p.samplers, s.samplers);
        assert_eq!(p.const_arrays, s.const_arrays);
        assert_eq!(p.loop_count(), 1);
        assert_eq!(p.branch_count(), 1);
        assert_eq!(p.texture_op_count(), 1);
        verify(p).expect("parsed IR verifies");
    }

    #[test]
    fn emission_is_deterministic() {
        let s = shader();
        assert_eq!(emit_spirv_asm(&s), emit_spirv_asm(&s));
    }

    #[test]
    fn garbage_is_rejected_with_a_reason() {
        assert!(parse_spirv_asm("void main() {}").is_err());
        let asm = emit_spirv_asm(&shader());
        let truncated = &asm[..asm.len() / 2];
        assert!(parse_spirv_asm(truncated).is_err());
    }

    #[test]
    fn foreign_loop_labels_error_instead_of_panicking() {
        // Hand-written (non-prism) assembly may use arbitrary merge /
        // continue labels; a label shorter than `%continue` used to slice
        // out of bounds. A driver must report, never crash.
        let asm = emit_spirv_asm(&shader())
            .replace("%continue0", "%x")
            .replace("%header0", "%h");
        let err = parse_spirv_asm(&asm).expect_err("foreign labels rejected");
        assert!(err.contains("continue label"), "{err}");
    }
}
