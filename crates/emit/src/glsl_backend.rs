//! IR → GLSL emission.
//!
//! The back-end regenerates desktop GLSL from prism IR, in the style of
//! LunarGlass's GLSL back-end: temporaries are emitted as explicit
//! declarations, matrices have already been scalarised by the lowering, and
//! flattened/unrolled control flow shows up as one long basic block — the
//! source-to-source artefacts the paper discusses in §III-C.

use crate::names::RegNamer;
use prism_ir::analysis::Analysis;
use prism_ir::prelude::*;
use prism_ir::value::{Floats, GlslFloat};
use std::collections::HashSet;
use std::fmt::{self, Write};

/// How the emitter names temporaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TempNameStyle {
    /// Reuse source-name hints where unique, `t<N>` otherwise (LunarGlass
    /// style, the desktop path).
    #[default]
    Hinted,
    /// SPIRV-Cross style `_<id>` names by register index, mirroring the
    /// paper's glslang → SPIRV-Cross mobile conversion round trip.
    SpirvCross,
    /// SPIR-V style SSA result ids (`%<id>`) by register index — the id
    /// space of the [`SpirvAsm`](crate::BackendKind::SpirvAsm) textual-assembly
    /// backend, which has its own emitter. The C-like emitter here rejects
    /// this style (`%101` is not a C identifier): passing it to
    /// [`emit_glsl_with`] panics.
    SpirvId,
}

/// The surface syntax the C-like emitter writes. GLSL and Metal Shading
/// Language share statement and expression structure; they differ in type
/// names, interface declarations, texture-sampling calls and a handful of
/// intrinsic spellings — exactly the points this switch selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Syntax {
    /// OpenGL (ES) Shading Language.
    #[default]
    Glsl,
    /// Metal Shading Language (SPIRV-Cross flavoured: `main0`,
    /// `[[stage_in]]` interface structs, `<name>Smplr` sampler arguments).
    Msl,
}

/// Options controlling emission.
#[derive(Debug, Clone)]
pub struct EmitOptions {
    /// `#version` line to emit (ignored by the MSL syntax, which has none).
    pub version: String,
    /// Emit `precision highp float;` (needed for OpenGL ES).
    pub emit_precision: bool,
    /// Temporary-naming scheme.
    pub temp_names: TempNameStyle,
    /// Target surface syntax.
    pub syntax: Syntax,
}

impl Default for EmitOptions {
    fn default() -> Self {
        EmitOptions {
            version: "450".to_string(),
            emit_precision: false,
            temp_names: TempNameStyle::Hinted,
            syntax: Syntax::Glsl,
        }
    }
}

/// Identifiers the MSL emission reserves beyond the shader's own interface:
/// the interface struct instances and the MSL spellings a register name must
/// not shadow.
const MSL_RESERVED: &[&str] = &[
    "in",
    "out",
    "main0",
    "constant",
    "device",
    "sampler",
    "fragment",
    "metal",
    "float2",
    "float3",
    "float4",
    "float4x4",
    "int2",
    "int3",
    "int4",
    "uint2",
    "uint3",
    "uint4",
    "bool2",
    "bool3",
    "bool4",
    "fmod",
    "rsqrt",
    "dfdx",
    "dfdy",
    "discard_fragment",
    "level",
];

/// Emits a complete GLSL fragment shader for `shader`.
pub fn emit_glsl(shader: &Shader) -> String {
    emit_glsl_with(shader, &EmitOptions::default())
}

/// Emits GLSL (or MSL, per [`EmitOptions::syntax`]) with explicit options.
///
/// # Panics
///
/// Panics on [`TempNameStyle::SpirvId`]: SPIR-V result ids are not C
/// identifiers — that style belongs to the `SpirvAsm` backend's own emitter.
pub fn emit_glsl_with(shader: &Shader, options: &EmitOptions) -> String {
    let mut out = String::new();
    Emitter::new(shader, options).run(&mut out);
    out
}

/// One emission: every line is written straight into the caller's output
/// buffer; operands, types and constants go through [`fmt::Display`]
/// adapters instead of intermediate strings.
struct Emitter<'a> {
    shader: &'a Shader,
    options: &'a EmitOptions,
    namer: RegNamer,
    analysis: Analysis,
    /// Registers already declared, indexed by register number.
    declared: Vec<bool>,
    indent: usize,
}

impl<'a> Emitter<'a> {
    fn new(shader: &'a Shader, options: &'a EmitOptions) -> Self {
        let namer = match (options.temp_names, options.syntax) {
            (TempNameStyle::Hinted, Syntax::Glsl) => RegNamer::new(shader),
            (TempNameStyle::Hinted, Syntax::Msl) => RegNamer::with_reserved(shader, MSL_RESERVED),
            (TempNameStyle::SpirvCross, _) => RegNamer::spirv_cross(shader),
            (TempNameStyle::SpirvId, _) => {
                panic!("SPIR-V ids are not C identifiers; use the SpirvAsm backend")
            }
        };
        Emitter {
            shader,
            options,
            namer,
            analysis: Analysis::of(shader),
            declared: vec![false; shader.regs.len()],
            indent: 0,
        }
    }

    fn run(mut self, out: &mut String) {
        let shader = self.shader;
        match self.options.syntax {
            Syntax::Glsl => {
                let _ = writeln!(out, "#version {}", self.options.version);
                if self.options.emit_precision {
                    out.push_str("precision highp float;\n");
                    out.push_str("precision highp int;\n");
                }
                self.emit_interface(out);
                self.emit_const_arrays(out);
                out.push_str("void main()\n{\n");
                self.indent = 1;
                self.emit_predeclarations(out);
                self.emit_body(out, &shader.body);
            }
            Syntax::Msl => {
                out.push_str("#include <metal_stdlib>\n");
                out.push_str("using namespace metal;\n\n");
                self.emit_msl_interface_structs(out);
                self.emit_const_arrays(out);
                out.push_str("fragment main0_out main0(");
                self.emit_msl_entry_params(out);
                out.push_str(")\n{\n");
                self.indent = 1;
                self.line(out, "main0_out out = {};");
                self.emit_predeclarations(out);
                self.emit_body(out, &shader.body);
                self.line(out, "return out;");
            }
        }
        out.push_str("}\n");
    }

    /// The target-syntax spelling of an IR value type.
    fn ty(&self, ty: IrType) -> TyName {
        TyName(ty, self.options.syntax)
    }

    /// An operand in the target syntax.
    fn opnd<'e>(&'e self, operand: &'e Operand) -> Opnd<'e, 'a> {
        Opnd(self, operand)
    }

    fn emit_interface(&self, out: &mut String) {
        for v in &self.shader.inputs {
            let _ = writeln!(out, "in {} {};", v.ty, v.name);
        }
        for v in &self.shader.outputs {
            let _ = writeln!(out, "out {} {};", v.ty, v.name);
        }
        // Group uniform slots back into their original declarations so the
        // external interface is unchanged by optimization.
        let mut seen = HashSet::new();
        for u in &self.shader.uniforms {
            if seen.insert(u.name.as_str()) {
                let _ = writeln!(out, "uniform {} {};", u.original, u.name);
            }
        }
        for s in &self.shader.samplers {
            let _ = writeln!(out, "uniform {} {};", glsl_sampler_name(s.dim), s.name);
        }
    }

    /// The `[[stage_in]]` / `[[color(n)]]` interface structs of the MSL form
    /// (SPIRV-Cross's `main0_in` / `main0_out` shape).
    fn emit_msl_interface_structs(&self, out: &mut String) {
        out.push_str("struct main0_in\n{\n");
        for (i, v) in self.shader.inputs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {} {} [[user(locn{i})]];",
                TyName(v.ty, Syntax::Msl),
                v.name
            );
        }
        out.push_str("};\n\nstruct main0_out\n{\n");
        for (i, v) in self.shader.outputs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {} {} [[color({i})]];",
                TyName(v.ty, Syntax::Msl),
                v.name
            );
        }
        out.push_str("};\n\n");
    }

    /// The entry-point parameter list of the MSL form: stage-in struct,
    /// one `constant` argument per uniform declaration, one texture + one
    /// `<name>Smplr` sampler per sampler binding.
    fn emit_msl_entry_params(&self, out: &mut String) {
        out.push_str("main0_in in [[stage_in]]");
        let mut seen = HashSet::new();
        let mut buffer = 0usize;
        for u in &self.shader.uniforms {
            if seen.insert(u.name.as_str()) {
                out.push_str(", constant ");
                write_msl_uniform_decl(out, &u.original, &u.name);
                let _ = write!(out, " [[buffer({buffer})]]");
                buffer += 1;
            }
        }
        for (i, s) in self.shader.samplers.iter().enumerate() {
            let _ = write!(
                out,
                ", {}<float> {} [[texture({i})]], sampler {}Smplr [[sampler({i})]]",
                msl_texture_name(s.dim),
                s.name,
                s.name
            );
        }
    }

    fn emit_const_arrays(&self, out: &mut String) {
        for arr in &self.shader.const_arrays {
            let elem = self.ty(arr.elem_ty);
            // One line in MSL so the MSL → GLSL front-end transform stays a
            // line-local rewrite.
            let (open, sep, close) = match self.options.syntax {
                Syntax::Glsl => {
                    let _ = write!(out, "const {elem} {}[{}] = {elem}[](", arr.name, arr.len());
                    ("\n    ", ",\n    ", "\n);\n")
                }
                Syntax::Msl => {
                    let _ = write!(out, "constant {elem} {}[{}] = {{", arr.name, arr.len());
                    (" ", ", ", " };\n")
                }
            };
            out.push_str(open);
            for (i, lanes) in arr.elements.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                if arr.elem_ty.is_scalar() {
                    let _ = write!(out, "{}", GlslFloat(lanes[0]));
                } else {
                    let _ = write!(out, "{elem}({})", Floats(lanes, ", "));
                }
            }
            out.push_str(close);
        }
    }

    /// Registers with multiple definitions or definitions nested inside
    /// control flow are declared up front; single-definition top-level
    /// registers are declared at their definition site.
    fn emit_predeclarations(&mut self, out: &mut String) {
        for (i, info) in self.shader.regs.iter().enumerate() {
            let reg = Reg(i as u32);
            let facts = self.analysis.facts(reg);
            if facts.def_count == 0 {
                continue;
            }
            let needs_predecl = !facts.is_ssa() && facts.use_count > 0;
            if needs_predecl {
                self.pad(out);
                let _ = writeln!(out, "{} {};", self.ty(info.ty), self.namer.name(reg));
                self.declared[i] = true;
            }
        }
    }

    /// The current indentation.
    fn pad(&self, out: &mut String) {
        for _ in 0..self.indent {
            out.push_str("    ");
        }
    }

    fn line(&self, out: &mut String, text: &str) {
        self.pad(out);
        out.push_str(text);
        out.push('\n');
    }

    fn emit_body(&mut self, out: &mut String, body: &[Stmt]) {
        for stmt in body {
            self.emit_stmt(out, stmt);
        }
    }

    fn emit_stmt(&mut self, out: &mut String, stmt: &Stmt) {
        match stmt {
            Stmt::Def { dst, op } => self.emit_def(out, *dst, op),
            Stmt::StoreOutput {
                output,
                components,
                value,
            } => {
                self.pad(out);
                let name = &self.shader.outputs[*output].name;
                if self.options.syntax == Syntax::Msl {
                    out.push_str("out.");
                }
                out.push_str(name);
                if let Some(comps) = components {
                    let _ = write!(out, ".{}", Swizzle(comps));
                }
                let _ = writeln!(out, " = {};", self.opnd(value));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.pad(out);
                let _ = writeln!(out, "if ({}) {{", self.opnd(cond));
                self.indent += 1;
                self.emit_body(out, then_body);
                self.indent -= 1;
                if else_body.is_empty() {
                    self.line(out, "}");
                } else {
                    self.line(out, "} else {");
                    self.indent += 1;
                    self.emit_body(out, else_body);
                    self.indent -= 1;
                    self.line(out, "}");
                }
            }
            Stmt::Loop {
                var,
                start,
                end,
                step,
                body,
            } => {
                self.pad(out);
                let name = self.namer.name(*var);
                let cmp = if *step > 0 { "<" } else { ">" };
                let _ = write!(out, "for (int {name} = {start}; {name} {cmp} {end}; {name}");
                let _ = match *step {
                    1 => write!(out, "++"),
                    -1 => write!(out, "--"),
                    s if s > 0 => write!(out, " += {s}"),
                    s => write!(out, " -= {}", -s),
                };
                out.push_str(") {\n");
                self.indent += 1;
                self.emit_body(out, body);
                self.indent -= 1;
                self.line(out, "}");
            }
            Stmt::Discard { cond } => {
                let kill = match self.options.syntax {
                    Syntax::Glsl => "discard;",
                    Syntax::Msl => "discard_fragment();",
                };
                match cond {
                    None => self.line(out, kill),
                    Some(c) => {
                        self.pad(out);
                        let _ = writeln!(out, "if ({}) {{ {kill} }}", self.opnd(c));
                    }
                }
            }
        }
    }

    fn emit_def(&mut self, out: &mut String, dst: Reg, op: &Op) {
        // Vector-component insertion emits as a component assignment rather
        // than an expression.
        if let Op::Insert {
            vector,
            index,
            value,
        } = op
        {
            let comp = Swizzle(std::slice::from_ref(index));
            if !matches!(vector, Operand::Reg(src) if *src == dst) {
                let first = !std::mem::replace(&mut self.declared[dst.0 as usize], true);
                self.pad(out);
                if first {
                    let _ = write!(out, "{} ", self.ty(self.shader.reg_ty(dst)));
                }
                let _ = writeln!(out, "{} = {};", self.namer.name(dst), self.opnd(vector));
            }
            self.pad(out);
            let name = self.namer.name(dst);
            let _ = writeln!(out, "{name}.{comp} = {};", self.opnd(value));
            return;
        }

        let first = !std::mem::replace(&mut self.declared[dst.0 as usize], true);
        self.pad(out);
        if first {
            let _ = write!(out, "{} ", self.ty(self.shader.reg_ty(dst)));
        }
        let _ = write!(out, "{} = ", self.namer.name(dst));
        self.write_op(out, op);
        out.push_str(";\n");
    }

    fn write_op(&self, out: &mut String, op: &Op) {
        let _ = match op {
            Op::Mov(a) => write!(out, "{}", self.opnd(a)),
            Op::Binary(b, x, y) => {
                write!(out, "({} {} {})", self.opnd(x), b.symbol(), self.opnd(y))
            }
            Op::Unary(UnaryOp::Neg, a) => write!(out, "(-{})", self.opnd(a)),
            Op::Unary(UnaryOp::Not, a) => write!(out, "(!{})", self.opnd(a)),
            Op::Intrinsic(i, args) => {
                let name = match self.options.syntax {
                    Syntax::Glsl => i.glsl_name(),
                    Syntax::Msl => msl_intrinsic_name(*i),
                };
                write!(out, "{name}({})", Opnds(self, args))
            }
            Op::TextureSample {
                sampler,
                coords,
                lod,
                dim,
            } => {
                let s = &self.shader.samplers[*sampler].name;
                let coords = self.opnd(coords);
                match self.options.syntax {
                    Syntax::Glsl => match lod {
                        Some(l) => write!(out, "textureLod({s}, {coords}, {})", self.opnd(l)),
                        None => write!(out, "texture({s}, {coords})"),
                    },
                    Syntax::Msl => {
                        // Shadow textures compare rather than sample; the
                        // (whole-coordinate) form keeps the transform back to
                        // GLSL `texture(...)` a call-level rewrite.
                        let method = if *dim == TextureDim::Shadow2D {
                            "sample_compare"
                        } else {
                            "sample"
                        };
                        match lod {
                            Some(l) => write!(
                                out,
                                "{s}.{method}({s}Smplr, {coords}, level({}))",
                                self.opnd(l)
                            ),
                            None => write!(out, "{s}.{method}({s}Smplr, {coords})"),
                        }
                    }
                }
            }
            Op::Construct { ty, parts } => {
                write!(out, "{}({})", self.ty(*ty), Opnds(self, parts))
            }
            Op::Splat { ty, value } => write!(out, "{}({})", self.ty(*ty), self.opnd(value)),
            Op::Extract { vector, index } => write!(
                out,
                "{}.{}",
                self.opnd(vector),
                Swizzle(std::slice::from_ref(index))
            ),
            Op::Insert { .. } => unreachable!("handled in emit_def"),
            Op::Swizzle { vector, lanes } => {
                write!(out, "{}.{}", self.opnd(vector), Swizzle(lanes))
            }
            Op::Select {
                cond,
                if_true,
                if_false,
            } => write!(
                out,
                "({} ? {} : {})",
                self.opnd(cond),
                self.opnd(if_true),
                self.opnd(if_false)
            ),
            Op::ConstArrayLoad { array, index } => {
                let arr = &self.shader.const_arrays[*array];
                write!(out, "{}[{}]", arr.name, self.opnd(index))
            }
            Op::Convert { to, value } => {
                write!(out, "{}({})", self.ty(*to), self.opnd(value))
            }
        };
    }
}

/// An operand in the emitter's target syntax.
struct Opnd<'e, 'a>(&'e Emitter<'a>, &'e Operand);

impl fmt::Display for Opnd<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Opnd(emitter, operand) = *self;
        let msl = emitter.options.syntax == Syntax::Msl;
        match operand {
            Operand::Reg(r) => f.write_str(emitter.namer.name(*r)),
            // MSL spells float-vector constructors `floatN`; every other
            // literal is the constant's GLSL text.
            Operand::Const(Constant::FloatVec(v)) if msl => {
                write!(f, "float{}({})", v.len(), Floats(v, ", "))
            }
            Operand::Const(c) => write!(f, "{c}"),
            Operand::Input(i) => {
                if msl {
                    f.write_str("in.")?;
                }
                f.write_str(&emitter.shader.inputs[*i].name)
            }
            Operand::Uniform(u) => {
                let u = &emitter.shader.uniforms[*u];
                if uniform_needs_index(&u.original) {
                    write!(f, "{}[{}]", u.name, u.slot)
                } else {
                    f.write_str(&u.name)
                }
            }
        }
    }
}

/// A comma-separated operand list (call arguments, constructor parts).
struct Opnds<'e, 'a>(&'e Emitter<'a>, &'e [Operand]);

impl fmt::Display for Opnds<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, operand) in self.1.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}", Opnd(self.0, operand))?;
        }
        Ok(())
    }
}

/// The spelling of an IR value type in one surface syntax (`vec4` in GLSL,
/// `float4` in MSL).
#[derive(Clone, Copy)]
struct TyName(IrType, Syntax);

impl fmt::Display for TyName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TyName(ty, syntax) = *self;
        if syntax == Syntax::Glsl || ty.width == 1 {
            return write!(f, "{ty}");
        }
        let prefix = match ty.scalar {
            prism_ir::types::Scalar::F32 => "float",
            prism_ir::types::Scalar::I32 => "int",
            prism_ir::types::Scalar::U32 => "uint",
            prism_ir::types::Scalar::Bool => "bool",
        };
        write!(f, "{prefix}{}", ty.width)
    }
}

/// Component indices as a swizzle (`xyzw`).
pub(crate) struct Swizzle<'c>(pub(crate) &'c [u8]);

impl fmt::Display for Swizzle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0 {
            f.write_char("xyzw".chars().nth(*c as usize).unwrap_or('x'))?;
        }
        Ok(())
    }
}

/// Whether the original uniform declaration requires indexing to reach one
/// IR slot (matrices and arrays do; plain scalars/vectors do not).
fn uniform_needs_index(original: &str) -> bool {
    original.starts_with("mat") || original.contains('[')
}

/// The GLSL sampler spelling of a texture dimensionality.
pub(crate) fn glsl_sampler_name(dim: TextureDim) -> &'static str {
    match dim {
        TextureDim::Dim2D => "sampler2D",
        TextureDim::Dim3D => "sampler3D",
        TextureDim::Cube => "samplerCube",
        TextureDim::Shadow2D => "sampler2DShadow",
        TextureDim::Array2D => "sampler2DArray",
    }
}

/// The MSL texture type of a sampler binding.
pub(crate) fn msl_texture_name(dim: TextureDim) -> &'static str {
    match dim {
        TextureDim::Dim2D => "texture2d",
        TextureDim::Dim3D => "texture3d",
        TextureDim::Cube => "texturecube",
        TextureDim::Shadow2D => "depth2d",
        TextureDim::Array2D => "texture2d_array",
    }
}

/// The MSL entry-point declaration of one uniform: matrices become
/// `float4x4&` references, arrays stay arrays (prism's MSL-like subset), and
/// plain scalars/vectors become references — all reversible to the original
/// GLSL `uniform` declaration.
fn write_msl_uniform_decl(out: &mut String, original: &str, name: &str) {
    let _ = match original.find('[') {
        Some(bracket) => {
            let (elem, dims) = original.split_at(bracket);
            write!(out, "{} {name}{dims}", msl_decl_type(elem))
        }
        None => write!(out, "{}& {name}", msl_decl_type(original)),
    };
}

/// Maps a GLSL declaration type to its MSL spelling.
fn msl_decl_type(glsl: &str) -> &str {
    match glsl {
        "vec2" => "float2",
        "vec3" => "float3",
        "vec4" => "float4",
        "ivec2" => "int2",
        "ivec3" => "int3",
        "ivec4" => "int4",
        "uvec2" => "uint2",
        "uvec3" => "uint3",
        "uvec4" => "uint4",
        "bvec2" => "bool2",
        "bvec3" => "bool3",
        "bvec4" => "bool4",
        "mat2" => "float2x2",
        "mat3" => "float3x3",
        "mat4" => "float4x4",
        other => other,
    }
}

/// MSL spellings of the handful of intrinsics GLSL names differently.
pub(crate) fn msl_intrinsic_name(i: prism_ir::op::Intrinsic) -> &'static str {
    use prism_ir::op::Intrinsic;
    match i {
        Intrinsic::InverseSqrt => "rsqrt",
        Intrinsic::Mod => "fmod",
        Intrinsic::DFdx => "dfdx",
        Intrinsic::DFdy => "dfdy",
        other => other.glsl_name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_shader() -> Shader {
        let mut s = Shader::new("emit-test");
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
        let t = s.new_named_reg(IrType::fvec(4), "sample");
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
    fn emits_interface_and_body() {
        let glsl = emit_glsl(&simple_shader());
        assert!(glsl.contains("#version 450"));
        assert!(glsl.contains("in vec2 uv;"));
        assert!(glsl.contains("out vec4 fragColor;"));
        assert!(glsl.contains("uniform vec4 ambient;"));
        assert!(glsl.contains("uniform sampler2D tex;"));
        assert!(glsl.contains("vec4 sample = texture(tex, uv);"));
        assert!(glsl.contains("fragColor = "));
    }

    #[test]
    fn emitted_glsl_reparses_with_front_end() {
        let glsl = emit_glsl(&simple_shader());
        let reparsed = prism_glsl::ShaderSource::preprocess_and_parse(&glsl, &Default::default());
        assert!(reparsed.is_ok(), "emitted GLSL failed to re-parse:\n{glsl}");
    }

    #[test]
    fn matrix_uniform_slots_reference_columns() {
        let mut s = Shader::new("mat");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        for col in 0..4 {
            s.uniforms.push(UniformVar {
                name: "model".into(),
                ty: IrType::fvec(4),
                slot: col,
                original: "mat4".into(),
            });
        }
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::Mov(Operand::Uniform(2)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        let glsl = emit_glsl(&s);
        // One declaration, column references indexed.
        assert_eq!(glsl.matches("uniform mat4 model;").count(), 1);
        assert!(glsl.contains("model[2]"));
    }

    #[test]
    fn loops_conditionals_and_discard_emit() {
        let mut s = Shader::new("cf");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_named_reg(IrType::I32, "i");
        let acc = s.new_named_reg(IrType::F32, "acc");
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Mov(Operand::float(0.0)),
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 9,
                step: 1,
                body: vec![Stmt::Def {
                    dst: acc,
                    op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::float(0.125)),
                }],
            },
            Stmt::If {
                cond: Operand::boolean(false),
                then_body: vec![Stmt::Discard { cond: None }],
                else_body: vec![Stmt::Def {
                    dst: v,
                    op: Op::Splat {
                        ty: IrType::fvec(4),
                        value: Operand::Reg(acc),
                    },
                }],
            },
            Stmt::Discard {
                cond: Some(Operand::boolean(false)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: Some(vec![0]),
                value: Operand::Reg(acc),
            },
        ];
        let glsl = emit_glsl(&s);
        assert!(glsl.contains("for (int i = 0; i < 9; i++) {"));
        assert!(glsl.contains("if (false) {"));
        assert!(glsl.contains("discard;"));
        assert!(glsl.contains("c.x = acc;"));
        // acc is multiply-defined so it must be pre-declared exactly once.
        assert_eq!(glsl.matches("float acc").count(), 1);
        assert!(
            prism_glsl::ShaderSource::preprocess_and_parse(&glsl, &Default::default()).is_ok(),
            "{glsl}"
        );
    }

    #[test]
    fn const_arrays_and_insert_emit() {
        let mut s = Shader::new("arr");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.const_arrays.push(ConstArray {
            name: "weights".into(),
            elem_ty: IrType::fvec(4),
            elements: vec![vec![0.1, 0.1, 0.1, 0.1], vec![0.2, 0.2, 0.2, 0.2]],
        });
        let w = s.new_reg(IrType::fvec(4));
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: w,
                op: Op::ConstArrayLoad {
                    array: 0,
                    index: Operand::int(1),
                },
            },
            Stmt::Def {
                dst: v,
                op: Op::Insert {
                    vector: Operand::Reg(w),
                    index: 3,
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        let glsl = emit_glsl(&s);
        assert!(glsl.contains("const vec4 weights[2] = vec4[]("));
        assert!(glsl.contains("weights[1]"));
        assert!(glsl.contains(".w = 1.0;"));
        assert!(
            prism_glsl::ShaderSource::preprocess_and_parse(&glsl, &Default::default()).is_ok(),
            "{glsl}"
        );
    }

    #[test]
    fn precision_header_for_mobile_options() {
        let opts = EmitOptions {
            version: "310 es".into(),
            emit_precision: true,
            ..Default::default()
        };
        let glsl = emit_glsl_with(&simple_shader(), &opts);
        assert!(glsl.starts_with("#version 310 es"));
        assert!(glsl.contains("precision highp float;"));
    }
}
