//! Structural fingerprinting of shaders.
//!
//! A [`Fingerprint`] is a 128-bit structural hash of a [`Shader`]: two
//! shaders that are structurally identical always produce the same
//! fingerprint, and the hash is *commutative-aware* — the operands of
//! commutative binary operations (`a + b` vs `b + a`) are combined
//! order-independently, so trivially reordered forms land in the same hash
//! bucket and can be recognised as merge candidates cheaply.
//!
//! Fingerprints exist to make variant deduplication cheap: the compile
//! session hashes the IR after every pass-schedule stage and short-circuits
//! recompilation and GLSL emission whenever a state it has already seen
//! reappears (§V-C of the paper observes that most of the 256 flag
//! combinations collapse onto a handful of distinct programs). A fingerprint
//! match is only ever a *candidate*: callers that need exactness (the session
//! does) confirm with full structural equality (`Shader: PartialEq`), so a
//! 128-bit collision can never merge genuinely different shaders.

use crate::op::Op;
use crate::shader::Shader;
use crate::stmt::Stmt;
use crate::value::{Constant, Operand};
use std::fmt;

/// A 128-bit structural hash of a shader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The (memoised) structural fingerprint of a shader.
///
/// The hash covers everything GLSL emission depends on: the interface
/// (inputs, uniforms, samplers, outputs), constant arrays, register types and
/// name hints, and the full statement tree. The shader's `name` is excluded —
/// two structurally identical shaders with different corpus names fingerprint
/// equally, which is what cross-variant deduplication wants.
///
/// The result is memoised in the shader itself: the first call hashes the
/// structure (and bumps [`FINGERPRINTS_COMPUTED`]); later calls — including
/// on clones, which carry the memo — return the stored value. Code that
/// mutates a shader in place must call [`Shader::invalidate_fingerprint`]
/// (the optimizer's stage driver does) or the memo goes stale.
///
/// [`FINGERPRINTS_COMPUTED`]: crate::counters::FINGERPRINTS_COMPUTED
pub fn fingerprint(shader: &Shader) -> Fingerprint {
    *shader.fp_memo.get_or_init(|| compute_fingerprint(shader))
}

/// Computes the structural fingerprint from scratch, bypassing (and not
/// populating) the memo. [`fingerprint`] is the memoised entry point; this
/// exists for it and for stale-memo debug assertions.
pub fn compute_fingerprint(shader: &Shader) -> Fingerprint {
    crate::counters::count_fingerprint_computed();
    let mut h = Fnv128::new();
    h.write_usize(shader.inputs.len());
    for input in &shader.inputs {
        h.write_str(&input.name);
        h.write_u64(ty_code(input.ty));
    }
    h.write_usize(shader.uniforms.len());
    for uniform in &shader.uniforms {
        h.write_str(&uniform.name);
        h.write_u64(ty_code(uniform.ty));
        h.write_usize(uniform.slot);
        h.write_str(&uniform.original);
    }
    h.write_usize(shader.samplers.len());
    for sampler in &shader.samplers {
        h.write_str(&sampler.name);
        h.write_u64(sampler.dim as u64);
    }
    h.write_usize(shader.outputs.len());
    for output in &shader.outputs {
        h.write_str(&output.name);
        h.write_u64(ty_code(output.ty));
    }
    h.write_usize(shader.const_arrays.len());
    for array in &shader.const_arrays {
        h.write_str(&array.name);
        h.write_u64(ty_code(array.elem_ty));
        h.write_usize(array.elements.len());
        for element in &array.elements {
            for lane in element {
                h.write_f64(*lane);
            }
        }
    }
    h.write_usize(shader.regs.len());
    for reg in &shader.regs {
        h.write_u64(ty_code(reg.ty));
        match &reg.name_hint {
            Some(hint) => h.write_str(hint),
            None => h.write_u64(0),
        }
    }
    hash_body(&shader.body, &mut h);
    Fingerprint(h.finish())
}

fn hash_body(body: &[Stmt], h: &mut Fnv128) {
    h.write_usize(body.len());
    for stmt in body {
        hash_stmt(stmt, h);
    }
}

fn hash_stmt(stmt: &Stmt, h: &mut Fnv128) {
    match stmt {
        Stmt::Def { dst, op } => {
            h.write_u64(1);
            h.write_u64(dst.0 as u64);
            hash_op(op, h);
        }
        Stmt::StoreOutput {
            output,
            components,
            value,
        } => {
            h.write_u64(2);
            h.write_usize(*output);
            match components {
                Some(lanes) => {
                    h.write_usize(lanes.len());
                    for lane in lanes {
                        h.write_u64(*lane as u64);
                    }
                }
                None => h.write_u64(u64::MAX),
            }
            hash_operand(value, h);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            h.write_u64(3);
            hash_operand(cond, h);
            hash_body(then_body, h);
            hash_body(else_body, h);
        }
        Stmt::Loop {
            var,
            start,
            end,
            step,
            body,
        } => {
            h.write_u64(4);
            h.write_u64(var.0 as u64);
            h.write_u64(*start as u64);
            h.write_u64(*end as u64);
            h.write_u64(*step as u64);
            hash_body(body, h);
        }
        Stmt::Discard { cond } => {
            h.write_u64(5);
            match cond {
                Some(c) => hash_operand(c, h),
                None => h.write_u64(0),
            }
        }
    }
}

fn hash_op(op: &Op, h: &mut Fnv128) {
    match op {
        Op::Mov(a) => {
            h.write_u64(10);
            hash_operand(a, h);
        }
        Op::Binary(binop, a, b) => {
            h.write_u64(11);
            h.write_u64(*binop as u64);
            if binop.is_commutative() {
                // Order-independent combination: hash each operand into its
                // own sub-hash, then mix with commutative operations (sum and
                // xor, all 128 bits of each) so `a + b` and `b + a`
                // fingerprint identically.
                let ha = hash_operand_alone(a);
                let hb = hash_operand_alone(b);
                let sum = ha.wrapping_add(hb);
                let xor = ha ^ hb;
                h.write_u64(sum as u64);
                h.write_u64((sum >> 64) as u64);
                h.write_u64(xor as u64);
                h.write_u64((xor >> 64) as u64);
            } else {
                hash_operand(a, h);
                hash_operand(b, h);
            }
        }
        Op::Unary(unop, a) => {
            h.write_u64(12);
            h.write_u64(*unop as u64);
            hash_operand(a, h);
        }
        Op::Intrinsic(intrinsic, args) => {
            h.write_u64(13);
            h.write_u64(*intrinsic as u64);
            h.write_usize(args.len());
            for arg in args {
                hash_operand(arg, h);
            }
        }
        Op::TextureSample {
            sampler,
            coords,
            lod,
            dim,
        } => {
            h.write_u64(14);
            h.write_usize(*sampler);
            h.write_u64(*dim as u64);
            hash_operand(coords, h);
            match lod {
                Some(l) => hash_operand(l, h),
                None => h.write_u64(0),
            }
        }
        Op::Construct { ty, parts } => {
            h.write_u64(15);
            h.write_u64(ty_code(*ty));
            h.write_usize(parts.len());
            for part in parts {
                hash_operand(part, h);
            }
        }
        Op::Splat { ty, value } => {
            h.write_u64(16);
            h.write_u64(ty_code(*ty));
            hash_operand(value, h);
        }
        Op::Extract { vector, index } => {
            h.write_u64(17);
            h.write_u64(*index as u64);
            hash_operand(vector, h);
        }
        Op::Insert {
            vector,
            index,
            value,
        } => {
            h.write_u64(18);
            h.write_u64(*index as u64);
            hash_operand(vector, h);
            hash_operand(value, h);
        }
        Op::Swizzle { vector, lanes } => {
            h.write_u64(19);
            h.write_usize(lanes.len());
            for lane in lanes {
                h.write_u64(*lane as u64);
            }
            hash_operand(vector, h);
        }
        Op::Select {
            cond,
            if_true,
            if_false,
        } => {
            h.write_u64(20);
            hash_operand(cond, h);
            hash_operand(if_true, h);
            hash_operand(if_false, h);
        }
        Op::ConstArrayLoad { array, index } => {
            h.write_u64(21);
            h.write_usize(*array);
            hash_operand(index, h);
        }
        Op::Convert { to, value } => {
            h.write_u64(22);
            h.write_u64(ty_code(*to));
            hash_operand(value, h);
        }
    }
}

fn hash_operand(operand: &Operand, h: &mut Fnv128) {
    match operand {
        Operand::Reg(r) => {
            h.write_u64(30);
            h.write_u64(r.0 as u64);
        }
        Operand::Const(c) => {
            h.write_u64(31);
            hash_constant(c, h);
        }
        Operand::Input(i) => {
            h.write_u64(32);
            h.write_usize(*i);
        }
        Operand::Uniform(u) => {
            h.write_u64(33);
            h.write_usize(*u);
        }
    }
}

fn hash_constant(constant: &Constant, h: &mut Fnv128) {
    match constant {
        Constant::Float(v) => {
            h.write_u64(40);
            h.write_f64(*v);
        }
        Constant::Int(v) => {
            h.write_u64(41);
            h.write_u64(*v as u64);
        }
        Constant::Uint(v) => {
            h.write_u64(42);
            h.write_u64(*v);
        }
        Constant::Bool(b) => {
            h.write_u64(43);
            h.write_u64(*b as u64);
        }
        Constant::FloatVec(lanes) => {
            h.write_u64(44);
            h.write_usize(lanes.len());
            for lane in lanes {
                h.write_f64(*lane);
            }
        }
    }
}

/// Hashes one operand into a standalone 128-bit value (for commutative
/// mixing).
fn hash_operand_alone(operand: &Operand) -> u128 {
    let mut h = Fnv128::new();
    hash_operand(operand, &mut h);
    h.finish()
}

fn ty_code(ty: crate::types::IrType) -> u64 {
    (ty.scalar as u64) << 8 | ty.width as u64
}

/// FNV-1a over 128 bits: simple, fast, and with 128 bits of state the
/// birthday bound sits far beyond the few hundred states a session touches.
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    fn new() -> Fnv128 {
        Fnv128 {
            state: Self::OFFSET,
        }
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.state ^= byte as u128;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_f64(&mut self, v: f64) {
        // -0.0 == 0.0, so the two must hash alike.
        let bits = if v == 0.0 { 0u64 } else { v.to_bits() };
        self.write_u64(bits);
    }

    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        for byte in s.as_bytes() {
            self.state ^= *byte as u128;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u128 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BinaryOp;
    use crate::shader::OutputVar;
    use crate::types::IrType;
    use crate::value::Reg;

    fn base_shader() -> Shader {
        let mut s = Shader::new("fp");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let a = s.new_reg(IrType::F32);
        let b = s.new_reg(IrType::F32);
        let sum = s.new_reg(IrType::F32);
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Mov(Operand::float(1.0)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Mov(Operand::float(2.0)),
            },
            Stmt::Def {
                dst: sum,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(a), Operand::Reg(b)),
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
    fn identical_shaders_fingerprint_equally() {
        let a = base_shader();
        let b = base_shader();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn name_is_excluded() {
        let a = base_shader();
        let mut b = base_shader();
        b.name = "other".into();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn commutative_operand_swap_is_fingerprint_neutral() {
        let a = base_shader();
        let mut b = base_shader();
        if let Stmt::Def {
            op: Op::Binary(BinaryOp::Add, x, y),
            ..
        } = &mut b.body[2]
        {
            std::mem::swap(x, y);
        } else {
            panic!("expected the add");
        }
        assert_ne!(a, b, "swapped operands are structurally different");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "but hash into the same bucket"
        );
    }

    #[test]
    fn non_commutative_operand_swap_changes_the_fingerprint() {
        let a = base_shader();
        let mut b = base_shader();
        if let Stmt::Def { op, .. } = &mut b.body[2] {
            *op = Op::Binary(BinaryOp::Sub, Operand::Reg(Reg(0)), Operand::Reg(Reg(1)));
        }
        let mut c = base_shader();
        if let Stmt::Def { op, .. } = &mut c.body[2] {
            *op = Op::Binary(BinaryOp::Sub, Operand::Reg(Reg(1)), Operand::Reg(Reg(0)));
        }
        assert_ne!(fingerprint(&b), fingerprint(&c));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn structural_changes_change_the_fingerprint() {
        let a = base_shader();

        let mut different_const = base_shader();
        if let Stmt::Def { op, .. } = &mut different_const.body[0] {
            *op = Op::Mov(Operand::float(1.5));
        }
        assert_ne!(fingerprint(&a), fingerprint(&different_const));

        let mut extra_stmt = base_shader();
        let r = extra_stmt.new_reg(IrType::F32);
        extra_stmt.body.push(Stmt::Def {
            dst: r,
            op: Op::Mov(Operand::float(0.0)),
        });
        assert_ne!(fingerprint(&a), fingerprint(&extra_stmt));

        let mut renamed_output = base_shader();
        renamed_output.outputs[0].name = "color".into();
        assert_ne!(fingerprint(&a), fingerprint(&renamed_output));

        let mut hinted = base_shader();
        hinted.regs[0].name_hint = Some("acc".into());
        assert_ne!(
            fingerprint(&a),
            fingerprint(&hinted),
            "name hints feed GLSL emission, so they must be part of the hash"
        );
    }

    #[test]
    fn zero_sign_is_collapsed() {
        let mut a = base_shader();
        if let Stmt::Def { op, .. } = &mut a.body[0] {
            *op = Op::Mov(Operand::float(0.0));
        }
        let mut b = base_shader();
        if let Stmt::Def { op, .. } = &mut b.body[0] {
            *op = Op::Mov(Operand::float(-0.0));
        }
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn display_is_stable_hex() {
        let fp = fingerprint(&base_shader());
        let text = fp.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(text, fingerprint(&base_shader()).to_string());
    }
}
