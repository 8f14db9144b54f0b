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
use prism_ir::value::format_glsl_float;
use std::collections::HashSet;
use std::fmt::Write;

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
    Emitter::new(shader, options).run()
}

struct Emitter<'a> {
    shader: &'a Shader,
    options: &'a EmitOptions,
    namer: RegNamer,
    analysis: Analysis,
    declared: HashSet<Reg>,
    out: String,
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
            declared: HashSet::new(),
            out: String::new(),
            indent: 0,
        }
    }

    fn run(self) -> String {
        match self.options.syntax {
            Syntax::Glsl => self.run_glsl(),
            Syntax::Msl => self.run_msl(),
        }
    }

    fn run_glsl(mut self) -> String {
        let _ = writeln!(self.out, "#version {}", self.options.version);
        if self.options.emit_precision {
            self.out.push_str("precision highp float;\n");
            self.out.push_str("precision highp int;\n");
        }
        self.emit_interface();
        self.emit_const_arrays();
        self.out.push_str("void main()\n{\n");
        self.indent = 1;
        self.emit_predeclarations();
        let body = self.shader.body.clone();
        self.emit_body(&body);
        self.indent = 0;
        self.out.push_str("}\n");
        self.out
    }

    fn run_msl(mut self) -> String {
        self.out.push_str("#include <metal_stdlib>\n");
        self.out.push_str("using namespace metal;\n\n");
        self.emit_msl_interface_structs();
        self.emit_const_arrays();
        let params = self.msl_entry_params();
        let _ = writeln!(
            self.out,
            "fragment main0_out main0({})\n{{",
            params.join(", ")
        );
        self.indent = 1;
        self.line("main0_out out = {};");
        self.emit_predeclarations();
        let body = self.shader.body.clone();
        self.emit_body(&body);
        self.line("return out;");
        self.indent = 0;
        self.out.push_str("}\n");
        self.out
    }

    /// The target-syntax spelling of an IR value type.
    fn ty_name(&self, ty: IrType) -> String {
        match self.options.syntax {
            Syntax::Glsl => ty.glsl_name(),
            Syntax::Msl => msl_type_name(ty),
        }
    }

    fn emit_interface(&mut self) {
        for v in &self.shader.inputs {
            let _ = writeln!(self.out, "in {} {};", v.ty.glsl_name(), v.name);
        }
        for v in &self.shader.outputs {
            let _ = writeln!(self.out, "out {} {};", v.ty.glsl_name(), v.name);
        }
        // Group uniform slots back into their original declarations so the
        // external interface is unchanged by optimization.
        let mut seen = HashSet::new();
        for u in &self.shader.uniforms {
            if seen.insert(u.name.clone()) {
                let _ = writeln!(self.out, "uniform {} {};", u.original, u.name);
            }
        }
        for s in &self.shader.samplers {
            let _ = writeln!(self.out, "uniform {} {};", glsl_sampler_name(s.dim), s.name);
        }
    }

    /// The `[[stage_in]]` / `[[color(n)]]` interface structs of the MSL form
    /// (SPIRV-Cross's `main0_in` / `main0_out` shape).
    fn emit_msl_interface_structs(&mut self) {
        self.out.push_str("struct main0_in\n{\n");
        for (i, v) in self.shader.inputs.iter().enumerate() {
            let _ = writeln!(
                self.out,
                "    {} {} [[user(locn{i})]];",
                msl_type_name(v.ty),
                v.name
            );
        }
        self.out.push_str("};\n\nstruct main0_out\n{\n");
        for (i, v) in self.shader.outputs.iter().enumerate() {
            let _ = writeln!(
                self.out,
                "    {} {} [[color({i})]];",
                msl_type_name(v.ty),
                v.name
            );
        }
        self.out.push_str("};\n\n");
    }

    /// The entry-point parameter list of the MSL form: stage-in struct,
    /// one `constant` argument per uniform declaration, one texture + one
    /// `<name>Smplr` sampler per sampler binding.
    fn msl_entry_params(&self) -> Vec<String> {
        let mut params = vec!["main0_in in [[stage_in]]".to_string()];
        let mut seen = HashSet::new();
        let mut buffer = 0usize;
        for u in &self.shader.uniforms {
            if seen.insert(u.name.clone()) {
                params.push(format!(
                    "constant {} [[buffer({buffer})]]",
                    msl_uniform_decl(&u.original, &u.name)
                ));
                buffer += 1;
            }
        }
        for (i, s) in self.shader.samplers.iter().enumerate() {
            params.push(format!(
                "{}<float> {} [[texture({i})]]",
                msl_texture_name(s.dim),
                s.name
            ));
            params.push(format!("sampler {}Smplr [[sampler({i})]]", s.name));
        }
        params
    }

    fn emit_const_arrays(&mut self) {
        for arr in &self.shader.const_arrays {
            let elem = self.ty_name(arr.elem_ty);
            let elems: Vec<String> = arr
                .elements
                .iter()
                .map(|lanes| {
                    if arr.elem_ty.is_scalar() {
                        format_glsl_float(lanes[0])
                    } else {
                        let parts: Vec<String> =
                            lanes.iter().map(|v| format_glsl_float(*v)).collect();
                        format!("{elem}({})", parts.join(", "))
                    }
                })
                .collect();
            match self.options.syntax {
                Syntax::Glsl => {
                    let _ = writeln!(
                        self.out,
                        "const {elem} {}[{}] = {elem}[](\n    {}\n);",
                        arr.name,
                        arr.len(),
                        elems.join(",\n    ")
                    );
                }
                // One line so the MSL → GLSL front-end transform stays a
                // line-local rewrite.
                Syntax::Msl => {
                    let _ = writeln!(
                        self.out,
                        "constant {elem} {}[{}] = {{ {} }};",
                        arr.name,
                        arr.len(),
                        elems.join(", ")
                    );
                }
            }
        }
    }

    /// Registers with multiple definitions or definitions nested inside
    /// control flow are declared up front; single-definition top-level
    /// registers are declared at their definition site.
    fn emit_predeclarations(&mut self) {
        for (i, info) in self.shader.regs.iter().enumerate() {
            let reg = Reg(i as u32);
            let facts = self.analysis.facts(reg);
            if facts.def_count == 0 {
                continue;
            }
            let needs_predecl = !facts.is_ssa() && facts.use_count > 0;
            if needs_predecl {
                self.line(&format!(
                    "{} {};",
                    self.ty_name(info.ty),
                    self.namer.name(reg)
                ));
                self.declared.insert(reg);
            }
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn emit_body(&mut self, body: &[Stmt]) {
        for stmt in body {
            self.emit_stmt(stmt);
        }
    }

    fn emit_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Def { dst, op } => self.emit_def(*dst, op),
            Stmt::StoreOutput {
                output,
                components,
                value,
            } => {
                let name = &self.shader.outputs[*output].name;
                let out_name = match self.options.syntax {
                    Syntax::Glsl => name.clone(),
                    Syntax::Msl => format!("out.{name}"),
                };
                let target = match components {
                    None => out_name,
                    Some(comps) => format!("{out_name}.{}", swizzle_string(comps)),
                };
                let value = self.operand(value);
                self.line(&format!("{target} = {value};"));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.operand(cond);
                self.line(&format!("if ({cond}) {{"));
                self.indent += 1;
                self.emit_body(then_body);
                self.indent -= 1;
                if else_body.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    self.emit_body(else_body);
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::Loop {
                var,
                start,
                end,
                step,
                body,
            } => {
                let name = self.namer.name(*var).to_string();
                let step_text = match *step {
                    1 => format!("{name}++"),
                    -1 => format!("{name}--"),
                    s if s > 0 => format!("{name} += {s}"),
                    s => format!("{name} -= {}", -s),
                };
                let cmp = if *step > 0 { "<" } else { ">" };
                self.line(&format!(
                    "for (int {name} = {start}; {name} {cmp} {end}; {step_text}) {{"
                ));
                self.indent += 1;
                self.emit_body(body);
                self.indent -= 1;
                self.line("}");
            }
            Stmt::Discard { cond } => {
                let kill = match self.options.syntax {
                    Syntax::Glsl => "discard;",
                    Syntax::Msl => "discard_fragment();",
                };
                match cond {
                    None => self.line(kill),
                    Some(c) => {
                        let c = self.operand(c);
                        self.line(&format!("if ({c}) {{ {kill} }}"));
                    }
                }
            }
        }
    }

    fn emit_def(&mut self, dst: Reg, op: &Op) {
        let name = self.namer.name(dst).to_string();
        let ty = self.ty_name(self.shader.reg_ty(dst));

        // Vector-component insertion emits as a component assignment rather
        // than an expression.
        if let Op::Insert {
            vector,
            index,
            value,
        } = op
        {
            let value_text = self.operand(value);
            let comp = swizzle_string(&[*index]);
            match vector {
                Operand::Reg(src) if *src == dst => {
                    self.line(&format!("{name}.{comp} = {value_text};"));
                }
                other => {
                    let base = self.operand(other);
                    if self.declared.insert(dst) {
                        self.line(&format!("{ty} {name} = {base};"));
                    } else {
                        self.line(&format!("{name} = {base};"));
                    }
                    self.line(&format!("{name}.{comp} = {value_text};"));
                }
            }
            return;
        }

        let expr = self.op_expr(op);
        if self.declared.insert(dst) {
            self.line(&format!("{ty} {name} = {expr};"));
        } else {
            self.line(&format!("{name} = {expr};"));
        }
    }

    fn op_expr(&self, op: &Op) -> String {
        match op {
            Op::Mov(a) => self.operand(a),
            Op::Binary(b, x, y) => {
                format!("({} {} {})", self.operand(x), b.symbol(), self.operand(y))
            }
            Op::Unary(UnaryOp::Neg, a) => format!("(-{})", self.operand(a)),
            Op::Unary(UnaryOp::Not, a) => format!("(!{})", self.operand(a)),
            Op::Intrinsic(i, args) => {
                let parts: Vec<String> = args.iter().map(|a| self.operand(a)).collect();
                let name = match self.options.syntax {
                    Syntax::Glsl => i.glsl_name(),
                    Syntax::Msl => msl_intrinsic_name(*i),
                };
                format!("{name}({})", parts.join(", "))
            }
            Op::TextureSample {
                sampler,
                coords,
                lod,
                dim,
            } => {
                let s = &self.shader.samplers[*sampler].name;
                match self.options.syntax {
                    Syntax::Glsl => match lod {
                        Some(l) => format!(
                            "textureLod({s}, {}, {})",
                            self.operand(coords),
                            self.operand(l)
                        ),
                        None => format!("texture({s}, {})", self.operand(coords)),
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
                            Some(l) => format!(
                                "{s}.{method}({s}Smplr, {}, level({}))",
                                self.operand(coords),
                                self.operand(l)
                            ),
                            None => format!("{s}.{method}({s}Smplr, {})", self.operand(coords)),
                        }
                    }
                }
            }
            Op::Construct { ty, parts } => {
                let p: Vec<String> = parts.iter().map(|a| self.operand(a)).collect();
                format!("{}({})", self.ty_name(*ty), p.join(", "))
            }
            Op::Splat { ty, value } => format!("{}({})", self.ty_name(*ty), self.operand(value)),
            Op::Extract { vector, index } => {
                format!("{}.{}", self.operand(vector), swizzle_string(&[*index]))
            }
            Op::Insert { .. } => unreachable!("handled in emit_def"),
            Op::Swizzle { vector, lanes } => {
                format!("{}.{}", self.operand(vector), swizzle_string(lanes))
            }
            Op::Select {
                cond,
                if_true,
                if_false,
            } => format!(
                "({} ? {} : {})",
                self.operand(cond),
                self.operand(if_true),
                self.operand(if_false)
            ),
            Op::ConstArrayLoad { array, index } => {
                let arr = &self.shader.const_arrays[*array];
                format!("{}[{}]", arr.name, self.operand(index))
            }
            Op::Convert { to, value } => {
                format!("{}({})", self.ty_name(*to), self.operand(value))
            }
        }
    }

    fn operand(&self, operand: &Operand) -> String {
        match operand {
            Operand::Reg(r) => self.namer.name(*r).to_string(),
            Operand::Const(c) => match self.options.syntax {
                Syntax::Glsl => constant_text(c),
                Syntax::Msl => msl_constant_text(c),
            },
            Operand::Input(i) => {
                let name = &self.shader.inputs[*i].name;
                match self.options.syntax {
                    Syntax::Glsl => name.clone(),
                    Syntax::Msl => format!("in.{name}"),
                }
            }
            Operand::Uniform(u) => {
                let u = &self.shader.uniforms[*u];
                if uniform_needs_index(&u.original) {
                    format!("{}[{}]", u.name, u.slot)
                } else {
                    u.name.clone()
                }
            }
        }
    }
}

/// Whether the original uniform declaration requires indexing to reach one
/// IR slot (matrices and arrays do; plain scalars/vectors do not).
fn uniform_needs_index(original: &str) -> bool {
    original.starts_with("mat") || original.contains('[')
}

fn constant_text(c: &Constant) -> String {
    match c {
        Constant::Float(v) => format_glsl_float(*v),
        Constant::Int(v) => format!("{v}"),
        Constant::Uint(v) => format!("{v}u"),
        Constant::Bool(b) => format!("{b}"),
        Constant::FloatVec(v) => {
            let parts: Vec<String> = v.iter().map(|x| format_glsl_float(*x)).collect();
            format!("vec{}({})", v.len(), parts.join(", "))
        }
    }
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

/// The MSL spelling of an IR value type (`vec4` → `float4`, …).
pub(crate) fn msl_type_name(ty: IrType) -> String {
    if ty.width == 1 {
        ty.glsl_name()
    } else {
        let prefix = match ty.scalar {
            prism_ir::types::Scalar::F32 => "float",
            prism_ir::types::Scalar::I32 => "int",
            prism_ir::types::Scalar::U32 => "uint",
            prism_ir::types::Scalar::Bool => "bool",
        };
        format!("{prefix}{}", ty.width)
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
fn msl_uniform_decl(original: &str, name: &str) -> String {
    if let Some(bracket) = original.find('[') {
        let (elem, dims) = original.split_at(bracket);
        format!("{} {name}{dims}", msl_decl_type(elem))
    } else {
        format!("{}& {name}", msl_decl_type(original))
    }
}

/// Maps a GLSL declaration type to its MSL spelling.
fn msl_decl_type(glsl: &str) -> String {
    match glsl {
        "float" | "int" | "uint" | "bool" => glsl.to_string(),
        "vec2" => "float2".into(),
        "vec3" => "float3".into(),
        "vec4" => "float4".into(),
        "ivec2" => "int2".into(),
        "ivec3" => "int3".into(),
        "ivec4" => "int4".into(),
        "uvec2" => "uint2".into(),
        "uvec3" => "uint3".into(),
        "uvec4" => "uint4".into(),
        "bvec2" => "bool2".into(),
        "bvec3" => "bool3".into(),
        "bvec4" => "bool4".into(),
        "mat2" => "float2x2".into(),
        "mat3" => "float3x3".into(),
        "mat4" => "float4x4".into(),
        other => other.to_string(),
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

/// MSL constant literals: identical to GLSL except vector constructors.
fn msl_constant_text(c: &Constant) -> String {
    match c {
        Constant::FloatVec(v) => {
            let parts: Vec<String> = v.iter().map(|x| format_glsl_float(*x)).collect();
            format!("float{}({})", v.len(), parts.join(", "))
        }
        other => constant_text(other),
    }
}

fn swizzle_string(comps: &[u8]) -> String {
    comps
        .iter()
        .map(|c| "xyzw".chars().nth(*c as usize).unwrap_or('x'))
        .collect()
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
