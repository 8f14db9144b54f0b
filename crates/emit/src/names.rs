//! Register naming for GLSL emission.
//!
//! Registers carry optional source-name hints from the lowering; the namer
//! reuses them when unique (so emitted code stays readable, like LunarGlass
//! output) and otherwise falls back to `t<N>` temporaries.

use prism_ir::prelude::*;
use std::collections::{HashMap, HashSet};

/// Assigns a stable GLSL identifier to every register of a shader.
///
/// Temporaries are numbered in order of first appearance in the body (not by
/// internal register index), so two shaders with identical bodies emit
/// identical text even if their register tables differ — a property the
/// variant-deduplication step and the "ADCE never changes the output"
/// observation rely on.
#[derive(Debug, Clone)]
pub struct RegNamer {
    names: HashMap<Reg, String>,
}

impl RegNamer {
    /// Builds names for all registers in `shader`, avoiding collisions with
    /// interface variable names.
    pub fn new(shader: &Shader) -> RegNamer {
        RegNamer::with_reserved(shader, &[])
    }

    /// Like [`RegNamer::new`], but additionally avoiding `reserved`
    /// identifiers — target-language keywords the emitting dialect cannot use
    /// as locals (e.g. `in`/`out`, the MSL interface struct instances).
    pub fn with_reserved(shader: &Shader, reserved: &[&str]) -> RegNamer {
        let mut taken = interface_names(shader);
        taken.extend(reserved.iter().map(|r| r.to_string()));

        // Registers in order of first appearance (definitions, loop variables
        // and uses), followed by any register never referenced in the body.
        let mut ordered: Vec<Reg> = Vec::new();
        let mut seen: HashSet<Reg> = HashSet::new();
        prism_ir::stmt::walk_body(&shader.body, &mut |stmt| {
            if let prism_ir::Stmt::Def { dst, .. } = stmt {
                if seen.insert(*dst) {
                    ordered.push(*dst);
                }
            }
            if let prism_ir::Stmt::Loop { var, .. } = stmt {
                if seen.insert(*var) {
                    ordered.push(*var);
                }
            }
            for operand in stmt.operands() {
                if let prism_ir::Operand::Reg(r) = operand {
                    if seen.insert(*r) {
                        ordered.push(*r);
                    }
                }
            }
        });
        for i in 0..shader.regs.len() {
            let reg = Reg(i as u32);
            if seen.insert(reg) {
                ordered.push(reg);
            }
        }

        let mut names = HashMap::new();
        let mut counter = 0usize;
        for reg in ordered {
            let info = &shader.regs[reg.0 as usize];
            let base = match info.name_hint.clone().filter(|h| is_valid_ident(h)) {
                Some(hint) => hint,
                None => {
                    let name = format!("t{counter}");
                    counter += 1;
                    name
                }
            };
            let mut candidate = base.clone();
            let mut suffix = 0;
            while taken.contains(&candidate) {
                suffix += 1;
                candidate = format!("{base}_{suffix}");
            }
            taken.insert(candidate.clone());
            names.insert(reg, candidate);
        }
        RegNamer { names }
    }

    /// Builds SPIRV-Cross style names (`_<100 + index>`) for all registers,
    /// mirroring the temporaries that tool produces on the paper's mobile
    /// conversion path. Naming is by register index, so it needs no shader
    /// rewrite — the GLES backend renames during emission.
    pub fn spirv_cross(shader: &Shader) -> RegNamer {
        let mut taken = interface_names(shader);
        let mut names = HashMap::new();
        for i in 0..shader.regs.len() {
            let base = format!("_{}", 100 + i);
            let mut candidate = base.clone();
            let mut suffix = 0;
            while taken.contains(&candidate) {
                suffix += 1;
                candidate = format!("{base}_{suffix}");
            }
            taken.insert(candidate.clone());
            names.insert(Reg(i as u32), candidate);
        }
        RegNamer { names }
    }

    /// Builds SPIR-V style SSA result ids (`%<100 + index>`) for all
    /// registers, by register index like [`RegNamer::spirv_cross`] — the id
    /// space the [`SpirvAsm`](crate::BackendKind::SpirvAsm) backend writes.
    /// Interface globals use named ids (`%uv`), which can never collide with
    /// the numeric register ids, so no avoidance set is needed.
    pub fn spirv_ids(shader: &Shader) -> RegNamer {
        let names = (0..shader.regs.len())
            .map(|i| (Reg(i as u32), format!("%{}", 100 + i)))
            .collect();
        RegNamer { names }
    }

    /// The GLSL name of a register.
    ///
    /// # Panics
    ///
    /// Panics if the register does not belong to the shader the namer was
    /// built for.
    pub fn name(&self, reg: Reg) -> &str {
        &self.names[&reg]
    }
}

/// Every identifier of the shader's external interface (plus const arrays),
/// which register names must not collide with.
fn interface_names(shader: &Shader) -> HashSet<String> {
    let mut taken: HashSet<String> = HashSet::new();
    for v in &shader.inputs {
        taken.insert(v.name.clone());
    }
    for v in &shader.uniforms {
        taken.insert(v.name.clone());
    }
    for v in &shader.samplers {
        taken.insert(v.name.clone());
    }
    for v in &shader.outputs {
        taken.insert(v.name.clone());
    }
    for a in &shader.const_arrays {
        taken.insert(a.name.clone());
    }
    taken
}

fn is_valid_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_are_reused_and_deduplicated() {
        let mut s = Shader::new("n");
        s.uniforms.push(UniformVar {
            name: "color".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "color".into(),
        });
        let a = s.new_named_reg(IrType::F32, "color"); // collides with the uniform
        let b = s.new_named_reg(IrType::F32, "weight");
        let c = s.new_reg(IrType::F32);
        let namer = RegNamer::new(&s);
        assert_ne!(namer.name(a), "color");
        assert_eq!(namer.name(b), "weight");
        assert_eq!(namer.name(c), "t0");
    }

    #[test]
    fn invalid_hints_fall_back_to_temporaries() {
        let mut s = Shader::new("n");
        let a = s.new_named_reg(IrType::F32, "9bad name");
        let namer = RegNamer::new(&s);
        assert_eq!(namer.name(a), "t0");
    }
}
