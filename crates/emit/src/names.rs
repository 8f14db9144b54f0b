//! Register naming for GLSL emission.
//!
//! Registers carry optional source-name hints from the lowering; the namer
//! reuses them when unique (so emitted code stays readable, like LunarGlass
//! output) and otherwise falls back to `t<N>` temporaries.

use prism_ir::prelude::*;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Assigns a stable GLSL identifier to every register of a shader.
///
/// Temporaries are numbered in order of first appearance in the body (not by
/// internal register index), so two shaders with identical bodies emit
/// identical text even if their register tables differ — a property the
/// variant-deduplication step and the "ADCE never changes the output"
/// observation rely on.
///
/// The names live in one dense table indexed by register number, built once
/// per emission; [`RegNamer::name`] borrows from it.
#[derive(Debug, Clone)]
pub struct RegNamer {
    names: Vec<String>,
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
        taken.extend(reserved.iter().map(|r| Cow::Borrowed(*r)));
        let mut namer = HintNamer {
            shader,
            taken,
            next_suffix: HashMap::new(),
            temps: 0,
            names: vec![None; shader.regs.len()],
        };

        // Registers in order of first appearance (definitions, loop variables
        // and uses), followed by any register never referenced in the body.
        prism_ir::stmt::walk_body(&shader.body, &mut |stmt| {
            if let prism_ir::Stmt::Def { dst, .. } = stmt {
                namer.assign(*dst);
            }
            if let prism_ir::Stmt::Loop { var, .. } = stmt {
                namer.assign(*var);
            }
            for operand in stmt.operands() {
                if let prism_ir::Operand::Reg(r) = operand {
                    namer.assign(*r);
                }
            }
        });
        for i in 0..shader.regs.len() {
            namer.assign(Reg(i as u32));
        }
        RegNamer {
            names: namer.names.into_iter().flatten().collect(),
        }
    }

    /// Builds SPIRV-Cross style names (`_<100 + index>`) for all registers,
    /// mirroring the temporaries that tool produces on the paper's mobile
    /// conversion path. Naming is by register index, so it needs no shader
    /// rewrite — the GLES backend renames during emission.
    pub fn spirv_cross(shader: &Shader) -> RegNamer {
        // `_<n>` names never collide with each other, and a suffixed
        // `_<n>_<k>` never with a plain one, so the interface is the only
        // thing a register name can clash with.
        let taken = interface_names(shader);
        let names = (0..shader.regs.len())
            .map(|i| {
                let base = format!("_{}", 100 + i);
                if !taken.contains(base.as_str()) {
                    return base;
                }
                (1..)
                    .map(|suffix| format!("{base}_{suffix}"))
                    .find(|candidate| !taken.contains(candidate.as_str()))
                    .expect("a free suffix exists")
            })
            .collect();
        RegNamer { names }
    }

    /// Builds SPIR-V style SSA result ids (`%<100 + index>`) for all
    /// registers, by register index like [`RegNamer::spirv_cross`] — the id
    /// space the [`SpirvAsm`](crate::BackendKind::SpirvAsm) backend writes.
    /// Interface globals use named ids (`%uv`), which can never collide with
    /// the numeric register ids, so no avoidance set is needed.
    pub fn spirv_ids(shader: &Shader) -> RegNamer {
        let names = (0..shader.regs.len())
            .map(|i| format!("%{}", 100 + i))
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
        &self.names[reg.0 as usize]
    }
}

/// The state of one hinted naming pass ([`RegNamer::with_reserved`]).
struct HintNamer<'s> {
    shader: &'s Shader,
    /// Every identifier a new name must avoid: the interface, the reserved
    /// words and the names handed out so far.
    taken: HashSet<Cow<'s, str>>,
    /// Per hint, the first suffix not yet known to be taken: every
    /// `<hint>_<k>` below it is, so a later probe starts there. SSA
    /// renaming gives every redefinition of a variable the same hint, so
    /// probing from 1 each time would be quadratic in the redefinitions.
    next_suffix: HashMap<&'s str, usize>,
    /// `t<N>` temporaries handed out so far.
    temps: usize,
    names: Vec<Option<String>>,
}

impl<'s> HintNamer<'s> {
    /// Names `reg` on first sight: its hint when valid and free, else
    /// `t<N>`, suffixed `_<k>` with the first free `k` on a clash.
    fn assign(&mut self, reg: Reg) {
        if self.names[reg.0 as usize].is_some() {
            return;
        }
        let hint = self.shader.regs[reg.0 as usize]
            .name_hint
            .as_deref()
            .filter(|h| is_valid_ident(h));
        let name = match hint {
            Some(hint) if !self.taken.contains(hint) => {
                self.taken.insert(Cow::Borrowed(hint));
                hint.to_string()
            }
            Some(hint) => {
                let from = self.next_suffix.get(hint).copied().unwrap_or(1);
                let (suffix, name) = self.first_free(hint, from);
                self.next_suffix.insert(hint, suffix + 1);
                name
            }
            None => {
                let base = format!("t{}", self.temps);
                self.temps += 1;
                if self.taken.contains(base.as_str()) {
                    self.first_free(&base, 1).1
                } else {
                    self.taken.insert(Cow::Owned(base.clone()));
                    base
                }
            }
        };
        self.names[reg.0 as usize] = Some(name);
    }

    /// The first `<base>_<k>` with `k >= from` that is not taken, marked
    /// taken.
    fn first_free(&mut self, base: &str, from: usize) -> (usize, String) {
        let (suffix, name) = (from..)
            .map(|suffix| (suffix, format!("{base}_{suffix}")))
            .find(|(_, candidate)| !self.taken.contains(candidate.as_str()))
            .expect("a free suffix exists");
        self.taken.insert(Cow::Owned(name.clone()));
        (suffix, name)
    }
}

/// Every identifier of the shader's external interface (plus const arrays),
/// which register names must not collide with.
fn interface_names(shader: &Shader) -> HashSet<Cow<'_, str>> {
    let inputs = shader.inputs.iter().map(|v| &v.name);
    let uniforms = shader.uniforms.iter().map(|v| &v.name);
    let samplers = shader.samplers.iter().map(|v| &v.name);
    let outputs = shader.outputs.iter().map(|v| &v.name);
    let arrays = shader.const_arrays.iter().map(|a| &a.name);
    inputs
        .chain(uniforms)
        .chain(samplers)
        .chain(outputs)
        .chain(arrays)
        .map(|name| Cow::Borrowed(name.as_str()))
        .collect()
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
