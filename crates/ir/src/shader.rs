//! The top-level IR container: one fragment shader.

use crate::stmt::{body_size, Stmt};
use crate::types::{IrType, TextureDim};
use crate::value::Reg;

/// A shader-stage input (interpolated varying).
#[derive(Debug, Clone, PartialEq)]
pub struct InputVar {
    /// GLSL name (preserved so the interface survives a round trip).
    pub name: String,
    /// Value type.
    pub ty: IrType,
}

/// A non-sampler uniform.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformVar {
    /// GLSL name.
    pub name: String,
    /// Value type of one element.
    pub ty: IrType,
    /// For matrix or array uniforms split into several IR slots, the index of
    /// this slot within the original GLSL variable (e.g. matrix column).
    pub slot: usize,
    /// The original GLSL declaration this slot came from (used to reconstruct
    /// the interface and by the harness to initialise values).
    pub original: String,
}

/// A sampler binding.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerVar {
    /// GLSL name.
    pub name: String,
    /// Texture dimensionality.
    pub dim: TextureDim,
}

/// A shader output (render target value).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputVar {
    /// GLSL name.
    pub name: String,
    /// Value type.
    pub ty: IrType,
}

/// A constant array produced from a `const type[] name = type[](...)`
/// declaration. Elements are stored as scalar lanes per element.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstArray {
    /// Source-level name (for readable emission).
    pub name: String,
    /// Element type.
    pub elem_ty: IrType,
    /// Element values; each inner vector has `elem_ty.width` lanes.
    pub elements: Vec<Vec<f64>>,
}

impl ConstArray {
    /// Number of elements in the array.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

/// Per-register metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RegInfo {
    /// Value type of the register.
    pub ty: IrType,
    /// Optional source-level name hint (used for readable GLSL emission).
    pub name_hint: Option<String>,
}

/// A complete fragment shader in prism IR form.
///
/// The body is a structured statement list; user functions have been inlined
/// by the lowering (as LunarGlass does), so there is exactly one body.
///
/// The structural [fingerprint](crate::fingerprint::fingerprint) is memoised
/// in-line (`fp_memo`): computed once per structure, carried through clones,
/// and cleared by [`invalidate_fingerprint`](Shader::invalidate_fingerprint)
/// whenever a transformation mutates the IR. The memo is *not* part of the
/// value — `==`, [`same_structure`](Shader::same_structure) and
/// serialisation all ignore it.
#[derive(Debug, Default)]
pub struct Shader {
    /// Shader name (corpus identifier).
    pub name: String,
    /// Stage inputs.
    pub inputs: Vec<InputVar>,
    /// Non-sampler uniforms (matrices appear as one slot per column).
    pub uniforms: Vec<UniformVar>,
    /// Sampler bindings.
    pub samplers: Vec<SamplerVar>,
    /// Stage outputs.
    pub outputs: Vec<OutputVar>,
    /// Constant arrays referenced by `ConstArrayLoad`.
    pub const_arrays: Vec<ConstArray>,
    /// Virtual register metadata, indexed by [`Reg`].
    pub regs: Vec<RegInfo>,
    /// The shader body.
    pub body: Vec<Stmt>,
    /// Memoised structural fingerprint; see the type-level docs.
    pub(crate) fp_memo: std::sync::OnceLock<crate::fingerprint::Fingerprint>,
}

impl Clone for Shader {
    fn clone(&self) -> Shader {
        crate::counters::count_ir_clone();
        Shader {
            name: self.name.clone(),
            inputs: self.inputs.clone(),
            uniforms: self.uniforms.clone(),
            samplers: self.samplers.clone(),
            outputs: self.outputs.clone(),
            const_arrays: self.const_arrays.clone(),
            regs: self.regs.clone(),
            body: self.body.clone(),
            // The clone has the same structure, so the memo stays valid.
            fp_memo: self.fp_memo.clone(),
        }
    }
}

impl PartialEq for Shader {
    /// Value equality: name plus structure. The fingerprint memo is a cache,
    /// not part of the value, and is excluded.
    fn eq(&self, other: &Shader) -> bool {
        self.name == other.name && self.same_structure(other)
    }
}

impl Shader {
    /// Creates an empty shader with the given name.
    pub fn new(name: impl Into<String>) -> Shader {
        Shader {
            name: name.into(),
            ..Shader::default()
        }
    }

    /// Structural equality modulo the corpus `name` — the relation the
    /// [fingerprint](crate::fingerprint::fingerprint) hashes. Two übershader
    /// family members whose lowered bodies coincide are `same_structure` even
    /// though `==` (which includes the name) says otherwise; corpus-level
    /// caches confirm fingerprint matches with exactly this check.
    pub fn same_structure(&self, other: &Shader) -> bool {
        crate::counters::count_equality_confirm();
        self.inputs == other.inputs
            && self.uniforms == other.uniforms
            && self.samplers == other.samplers
            && self.outputs == other.outputs
            && self.const_arrays == other.const_arrays
            && self.regs == other.regs
            && self.body == other.body
    }

    /// Clears the memoised fingerprint. Must be called (and is, by
    /// `Stage::run` in the optimizer) after any in-place mutation of the
    /// structural fields; clone-and-rebuild construction paths start with an
    /// empty memo automatically.
    pub fn invalidate_fingerprint(&mut self) {
        self.fp_memo.take();
    }

    /// The memoised fingerprint, if one has been computed for this structure.
    pub fn cached_fingerprint(&self) -> Option<crate::fingerprint::Fingerprint> {
        self.fp_memo.get().copied()
    }

    /// Allocates a fresh virtual register of type `ty`.
    pub fn new_reg(&mut self, ty: IrType) -> Reg {
        self.regs.push(RegInfo {
            ty,
            name_hint: None,
        });
        Reg((self.regs.len() - 1) as u32)
    }

    /// Allocates a fresh register with a source-name hint.
    pub fn new_named_reg(&mut self, ty: IrType, hint: impl Into<String>) -> Reg {
        self.regs.push(RegInfo {
            ty,
            name_hint: Some(hint.into()),
        });
        Reg((self.regs.len() - 1) as u32)
    }

    /// The type of a register.
    ///
    /// # Panics
    ///
    /// Panics if the register does not belong to this shader.
    pub fn reg_ty(&self, reg: Reg) -> IrType {
        self.regs[reg.0 as usize].ty
    }

    /// Total number of statements in the body, including nested statements.
    pub fn size(&self) -> usize {
        body_size(&self.body)
    }

    /// Number of texture-sampling operations anywhere in the body.
    pub fn texture_op_count(&self) -> usize {
        let mut n = 0;
        crate::stmt::walk_body(&self.body, &mut |s| {
            if let Stmt::Def { op, .. } = s {
                if op.is_texture() {
                    n += 1;
                }
            }
        });
        n
    }

    /// Number of loops anywhere in the body.
    pub fn loop_count(&self) -> usize {
        let mut n = 0;
        crate::stmt::walk_body(&self.body, &mut |s| {
            if matches!(s, Stmt::Loop { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Number of conditionals anywhere in the body.
    pub fn branch_count(&self) -> usize {
        let mut n = 0;
        crate::stmt::walk_body(&self.body, &mut |s| {
            if matches!(s, Stmt::If { .. }) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::value::Operand;

    #[test]
    fn register_allocation_and_types() {
        let mut s = Shader::new("test");
        let a = s.new_reg(IrType::F32);
        let b = s.new_named_reg(IrType::fvec(4), "color");
        assert_eq!(a, Reg(0));
        assert_eq!(b, Reg(1));
        assert_eq!(s.reg_ty(a), IrType::F32);
        assert_eq!(s.reg_ty(b), IrType::fvec(4));
        assert_eq!(s.regs[1].name_hint.as_deref(), Some("color"));
    }

    #[test]
    fn structural_counts() {
        let mut s = Shader::new("counts");
        let r = s.new_reg(IrType::fvec(4));
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        s.body = vec![
            Stmt::Loop {
                var: s.new_reg(IrType::I32),
                start: 0,
                end: 4,
                step: 1,
                body: vec![Stmt::Def {
                    dst: r,
                    op: Op::TextureSample {
                        sampler: 0,
                        coords: Operand::fvec(vec![0.5, 0.5]),
                        lod: None,
                        dim: TextureDim::Dim2D,
                    },
                }],
            },
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: vec![Stmt::Discard { cond: None }],
                else_body: vec![],
            },
        ];
        assert_eq!(s.loop_count(), 1);
        assert_eq!(s.branch_count(), 1);
        assert_eq!(s.texture_op_count(), 1);
        assert_eq!(s.size(), 4);
    }

    #[test]
    fn const_array_len() {
        let a = ConstArray {
            name: "weights".into(),
            elem_ty: IrType::fvec(4),
            elements: vec![vec![0.1; 4]; 9],
        };
        assert_eq!(a.len(), 9);
        assert!(!a.is_empty());
    }
}
