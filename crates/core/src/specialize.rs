//! Uniform-value specialization: the AZP axis on top of the flag sweep.
//!
//! Gaming shaders spend real time computing on uniform values that are
//! dynamically zero (or one, or otherwise fixed) for whole draw batches —
//! tints at zero, fog disabled, exposure at identity. This module clones a
//! shader's IR under a set of *value assumptions* about its uniforms,
//! substitutes the assumed constants into every use site, and lets the
//! existing constant-folding / dead-code passes collapse whatever the
//! assumption unlocks. The result is a second program — the *specialized*
//! variant — paired with the untouched *general* one behind a cheap runtime
//! guard: check the assumed uniforms before the draw, bind the specialized
//! program when the assumption holds, fall back to the general program when
//! it does not.
//!
//! The axis composes with the 8 optimizer flags: a variant is now keyed by
//! `(OptFlags, SpecKey)`. A specialized base is just another IR structure, so
//! the whole transition/emission machinery of the corpus cache applies
//! unchanged — an assumption a shader never branches on folds to the *same*
//! structure as the general base, and the entire flags subtree dedups away by
//! fingerprint.
//!
//! Semantic safety is not assumed: [`verify_specialization`] differentially
//! executes the guarded dispatch against the always-general program through
//! the IR interpreter — on inputs where the assumption does **not** hold the
//! guard must route to the general variant and the outputs must agree
//! bit-for-bit, and on inputs where it holds the specialized variant itself
//! must agree with the general one bit-for-bit (substituting an equal
//! constant and folding is exact arithmetic, not an approximation).

use crate::passes::constfold::ConstFold;
use crate::passes::cse::Cse;
use crate::passes::dce::Dce;
use crate::pipeline::{CompiledShader, Stage};
use prism_ir::interp::{results_exactly_equal, run_fragment, FragmentContext};
use prism_ir::prelude::*;
use prism_ir::stmt::rewrite_operands;
use prism_ir::verify::operand_ty;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Process-global counters (mirroring `prism_ir::counters`): cheap relaxed
// atomics the perf gate snapshots to pin how much specialization work a run
// performed and how much the guard/verification machinery actually executed.

static SPECIALIZATIONS_GENERATED: AtomicUsize = AtomicUsize::new(0);
static SPEC_GUARD_DISPATCHES: AtomicUsize = AtomicUsize::new(0);
static SPEC_INTERP_CONFIRMS: AtomicUsize = AtomicUsize::new(0);

/// A point-in-time snapshot of the specialization counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecCounters {
    /// Specialization folds actually performed (memo misses — a cache-served
    /// specialized base does not re-count).
    pub specializations_generated: usize,
    /// Runtime guard evaluations performed by [`GuardedDispatch::select`].
    pub spec_guard_dispatches: usize,
    /// Differential interpreter comparisons that confirmed bit-identical
    /// outputs between the dispatch and the general program.
    pub spec_interp_confirms: usize,
}

impl SpecCounters {
    /// The counter deltas accumulated since an `earlier` snapshot.
    #[must_use]
    pub fn since(&self, earlier: &SpecCounters) -> SpecCounters {
        SpecCounters {
            specializations_generated: self
                .specializations_generated
                .saturating_sub(earlier.specializations_generated),
            spec_guard_dispatches: self
                .spec_guard_dispatches
                .saturating_sub(earlier.spec_guard_dispatches),
            spec_interp_confirms: self
                .spec_interp_confirms
                .saturating_sub(earlier.spec_interp_confirms),
        }
    }
}

/// Snapshots the process-global specialization counters.
pub fn spec_counters() -> SpecCounters {
    SpecCounters {
        specializations_generated: SPECIALIZATIONS_GENERATED.load(Ordering::Relaxed),
        spec_guard_dispatches: SPEC_GUARD_DISPATCHES.load(Ordering::Relaxed),
        spec_interp_confirms: SPEC_INTERP_CONFIRMS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Assumption vocabulary.

/// The value a uniform slot is assumed to hold (in every lane).
///
/// Constants are stored as `f64` bit patterns so the type is `Eq + Hash` and
/// can key caches; [`SpecValue::as_f64`] recovers the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpecValue {
    /// The uniform is zero in every lane (the AZP case).
    Zero,
    /// The uniform is one in every lane (identity scales, alpha at full).
    One,
    /// The uniform holds this exact value (`f64::to_bits`) in every lane.
    Constant(u64),
}

impl SpecValue {
    /// An assumption of an arbitrary exact value.
    pub fn constant(v: f64) -> SpecValue {
        SpecValue::Constant(v.to_bits())
    }

    /// The assumed value as an `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            SpecValue::Zero => 0.0,
            SpecValue::One => 1.0,
            SpecValue::Constant(bits) => f64::from_bits(bits),
        }
    }
}

impl fmt::Display for SpecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecValue::Zero => write!(f, "0"),
            SpecValue::One => write!(f, "1"),
            SpecValue::Constant(bits) => write!(f, "{}", f64::from_bits(*bits)),
        }
    }
}

/// One assumption: uniform slot `slot` holds `value` in every lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecAssumption {
    /// Index into the shader's uniform slot list (`Shader::uniforms`, the
    /// same index `Operand::Uniform` carries).
    pub slot: usize,
    /// The assumed per-lane value.
    pub value: SpecValue,
}

impl SpecAssumption {
    /// Convenience constructor.
    pub fn new(slot: usize, value: SpecValue) -> SpecAssumption {
        SpecAssumption { slot, value }
    }
}

impl fmt::Display for SpecAssumption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}={}", self.slot, self.value)
    }
}

/// A canonical set of uniform-value assumptions — the specialization half of
/// the `(OptFlags, SpecKey)` variant key.
///
/// The assumption list is sorted by slot and deduplicated at construction, so
/// two keys describing the same assumptions compare and hash equal however
/// they were built. The empty key is the *general* (unspecialized) program.
/// Cloning is a refcount bump — the key is designed to ride in request keys
/// and cache maps.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecKey {
    assumptions: Arc<[SpecAssumption]>,
}

impl Default for SpecKey {
    fn default() -> Self {
        SpecKey::general()
    }
}

impl SpecKey {
    /// The empty key: no assumptions, the general program.
    pub fn general() -> SpecKey {
        SpecKey {
            assumptions: Arc::from([]),
        }
    }

    /// A canonical key over `assumptions` (sorted by slot; on duplicate
    /// slots the first assumption for that slot wins).
    pub fn of(mut assumptions: Vec<SpecAssumption>) -> SpecKey {
        assumptions.sort_by_key(|a| a.slot);
        assumptions.dedup_by_key(|a| a.slot);
        SpecKey {
            assumptions: assumptions.into(),
        }
    }

    /// A single-assumption key.
    pub fn single(slot: usize, value: SpecValue) -> SpecKey {
        SpecKey::of(vec![SpecAssumption::new(slot, value)])
    }

    /// `true` for the empty (general) key.
    pub fn is_general(&self) -> bool {
        self.assumptions.is_empty()
    }

    /// The canonical assumption list.
    pub fn assumptions(&self) -> &[SpecAssumption] {
        &self.assumptions
    }

    /// Evaluates the runtime guard against concrete uniform values (by slot
    /// index, one lane vector per slot): `true` when every assumed slot
    /// exists and holds the assumed value in every lane. A missing slot
    /// fails the guard — the dispatch then conservatively runs the general
    /// program.
    pub fn holds_on(&self, uniforms: &[Vec<f64>]) -> bool {
        self.assumptions.iter().all(|a| {
            uniforms
                .get(a.slot)
                .is_some_and(|lanes| lanes.iter().all(|v| *v == a.value.as_f64()))
        })
    }

    /// A fragment context in which every assumption *holds* (assumed slots
    /// pinned to their assumed value, everything else at harness defaults).
    pub fn holding_context(&self, shader: &Shader, frag_x: f64, frag_y: f64) -> FragmentContext {
        let mut ctx = FragmentContext::with_defaults(shader, frag_x, frag_y);
        for a in self.assumptions.iter() {
            if let Some(lanes) = ctx.uniforms.get_mut(a.slot) {
                lanes.fill(a.value.as_f64());
            }
        }
        ctx
    }

    /// A fragment context in which every assumption is *violated* (each
    /// assumed slot holds a value different from the assumed one).
    pub fn violating_context(&self, shader: &Shader, frag_x: f64, frag_y: f64) -> FragmentContext {
        let mut ctx = FragmentContext::with_defaults(shader, frag_x, frag_y);
        for a in self.assumptions.iter() {
            let assumed = a.value.as_f64();
            let mut other = assumed + 1.0;
            if other == assumed {
                // Degenerate magnitudes where +1.0 is absorbed: flip the low
                // mantissa bit instead — always a different value.
                other = f64::from_bits(assumed.to_bits() ^ 1);
            }
            if let Some(lanes) = ctx.uniforms.get_mut(a.slot) {
                lanes.fill(other);
            }
        }
        ctx
    }
}

impl fmt::Display for SpecKey {
    /// `general` for the empty key, else a comma list like `u0=0,u2=1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.assumptions.is_empty() {
            return write!(f, "general");
        }
        for (i, a) in self.assumptions.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The specialization transform.

/// A reason a shader cannot be specialized under a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The key names a uniform slot the shader does not have.
    UnknownSlot(usize),
    /// The assumed slot is not a float scalar/vector (or scalar int) — the
    /// only shapes the substitution knows how to materialise as a constant.
    UnsupportedType(usize),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownSlot(s) => {
                write!(f, "specialization names unknown uniform slot {s}")
            }
            SpecError::UnsupportedType(s) => write!(
                f,
                "specialization on uniform slot {s} with an unsupported type"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Clones `base` under the assumptions of `key`: every `Operand::Uniform`
/// use of an assumed slot becomes the assumed constant (at the slot's
/// declared width), then the always-on constant-fold / CSE / dead-code
/// passes collapse whatever the substitution unlocked.
///
/// The shader's interface is left untouched — the specialized program still
/// declares the assumed uniforms (a real driver binds the same pipeline
/// layout for both sides of the dispatch); only the *uses* are folded away.
///
/// # Errors
///
/// Returns [`SpecError`] when the key names a slot the shader does not have
/// or one whose type the substitution cannot materialise.
pub fn specialize_shader(base: &Shader, key: &SpecKey) -> Result<Shader, SpecError> {
    for a in key.assumptions() {
        let u = base
            .uniforms
            .get(a.slot)
            .ok_or(SpecError::UnknownSlot(a.slot))?;
        let ok = u.ty.is_float() || (u.ty.is_int() && u.ty.is_scalar());
        if !ok {
            return Err(SpecError::UnsupportedType(a.slot));
        }
    }
    let mut ir = base.clone();
    rewrite_operands(&mut ir.body, &mut |operand| {
        if let Operand::Uniform(slot) = operand {
            if let Some(a) = key.assumptions().iter().find(|a| a.slot == *slot) {
                let ty = base.uniforms[*slot].ty;
                let v = a.value.as_f64();
                *operand = if ty.is_int() {
                    Operand::Const(Constant::Int(v as i64))
                } else if ty.is_scalar() {
                    Operand::Const(Constant::Float(v))
                } else {
                    Operand::Const(Constant::FloatVec(vec![v; ty.width as usize]))
                };
            }
        }
    });
    // The substitution mutated the structure: drop any memoised fingerprint
    // carried over by `clone` before anything can observe it.
    ir.invalidate_fingerprint();
    // Fold what the constants unlocked through the ordinary always-on
    // canonicalisation passes, run as a real `Stage` so the memo/mutation
    // contract (and its PRISM_VERIFY tripwire) applies here too.
    let fold = fold_stage();
    for _ in 0..4 {
        if !fold.run(&mut ir) {
            break;
        }
    }
    SPECIALIZATIONS_GENERATED.fetch_add(1, Ordering::Relaxed);
    Ok(ir)
}

/// The canonicalisation stage the specializer folds with: constant folding
/// (which also splices statically-decided branches), the zero/one algebraic
/// identities the substituted constants unlock, local CSE and trivial
/// dead-code removal.
pub(crate) fn fold_stage() -> Stage {
    Stage::always(
        "specialize-fold",
        vec![
            Box::new(ConstFold),
            Box::new(SpecIdentities),
            Box::new(Cse),
            Box::new(Dce),
        ],
    )
}

/// Algebraic identities over the substituted constants: `x·0 → 0`,
/// `x·1 → x`, `x±0 → x`, `x/1 → x`, and `select(const, a, b)` → the taken
/// side. These are the folds a zero/one assumption exists to unlock — after
/// them, DCE deletes the now-dead texture samples and arithmetic feeding the
/// folded term.
///
/// The identities are exact for every finite value; `x·0` canonicalises the
/// sign of zero and collapses a hypothetical `∞·0` to `0`, which is why the
/// differential verifier — not this pass — has the final word on every
/// specialization before it ships.
struct SpecIdentities;

impl crate::passes::Pass for SpecIdentities {
    fn name(&self) -> &'static str {
        "spec-identities"
    }

    fn run(&self, shader: &mut Shader) -> bool {
        fn const_all(operand: &Operand, value: f64) -> bool {
            matches!(operand, Operand::Const(c) if c.is_all(value))
        }
        fn zero_of(ty: IrType) -> Constant {
            if ty.is_int() {
                Constant::Int(0)
            } else if ty.is_scalar() {
                Constant::Float(0.0)
            } else {
                Constant::FloatVec(vec![0.0; ty.width as usize])
            }
        }
        fn rewrite(shader: &Shader, dst: Reg, op: &Op) -> Option<Op> {
            let dst_ty = shader.reg_ty(dst);
            if dst_ty.is_bool() {
                return None;
            }
            // `Mov(x)` is only sound when `x` already has the destination's
            // width — a scalar opposite a vector operand broadcasts, and a
            // `Mov` would silently drop that.
            let keep = |x: &Operand| -> Option<Op> {
                (operand_ty(shader, x).map(|ty| ty.width) == Some(dst_ty.width))
                    .then(|| Op::Mov(x.clone()))
            };
            match op {
                Op::Binary(BinaryOp::Mul, a, b) => {
                    if const_all(a, 0.0) || const_all(b, 0.0) {
                        return Some(Op::Mov(Operand::Const(zero_of(dst_ty))));
                    }
                    if const_all(a, 1.0) {
                        return keep(b);
                    }
                    if const_all(b, 1.0) {
                        return keep(a);
                    }
                    None
                }
                Op::Binary(BinaryOp::Add, a, b) => {
                    if const_all(a, 0.0) {
                        return keep(b);
                    }
                    if const_all(b, 0.0) {
                        return keep(a);
                    }
                    None
                }
                Op::Binary(BinaryOp::Sub, a, b) => {
                    if const_all(b, 0.0) {
                        return keep(a);
                    }
                    None
                }
                Op::Binary(BinaryOp::Div, a, b) => {
                    if const_all(b, 1.0) {
                        return keep(a);
                    }
                    None
                }
                Op::Select {
                    cond: Operand::Const(c),
                    if_true,
                    if_false,
                } => {
                    let taken = if c.as_bool()? { if_true } else { if_false };
                    keep(taken)
                }
                _ => None,
            }
        }
        fn walk(shader: &Shader, body: &mut [Stmt], changed: &mut bool) {
            for stmt in body {
                match stmt {
                    Stmt::Def { dst, op } => {
                        if let Some(new_op) = rewrite(shader, *dst, op) {
                            *op = new_op;
                            *changed = true;
                        }
                    }
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(shader, then_body, changed);
                        walk(shader, else_body, changed);
                    }
                    Stmt::Loop { body, .. } => walk(shader, body, changed),
                    _ => {}
                }
            }
        }
        let mut changed = false;
        let mut body = std::mem::take(&mut shader.body);
        walk(shader, &mut body, &mut changed);
        shader.body = body;
        changed
    }
}

// ---------------------------------------------------------------------------
// Guarded dispatch.

/// A specialized/general program pair behind a runtime value guard.
///
/// [`GuardedDispatch::select`] is the runtime: evaluate the guard against the
/// uniform values about to be bound and return the program to draw with.
#[derive(Debug, Clone)]
pub struct GuardedDispatch {
    /// The assumptions the specialized side was compiled under.
    pub spec: SpecKey,
    /// The general program (always safe).
    pub general: CompiledShader,
    /// The specialized program (valid only while the guard holds).
    pub specialized: CompiledShader,
}

impl GuardedDispatch {
    /// Evaluates the guard and picks the program for these uniform values.
    pub fn select(&self, uniforms: &[Vec<f64>]) -> &CompiledShader {
        SPEC_GUARD_DISPATCHES.fetch_add(1, Ordering::Relaxed);
        if self.spec.holds_on(uniforms) {
            &self.specialized
        } else {
            &self.general
        }
    }

    /// `true` when the specialization actually changed the program — a
    /// dispatch whose two sides emit identical text is pure overhead and a
    /// caller should deploy the general program alone.
    pub fn is_effective(&self) -> bool {
        self.specialized.glsl != self.general.glsl
    }
}

// ---------------------------------------------------------------------------
// Differential verification through the interpreter.

/// A semantic disagreement found by [`verify_specialization`] — a
/// specialization that must NOT ship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDivergence {
    /// What diverged, where.
    pub message: String,
}

impl fmt::Display for SpecDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "specialization divergence: {}", self.message)
    }
}

impl std::error::Error for SpecDivergence {}

/// Outcome of a successful differential verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecVerification {
    /// Bit-identical comparisons performed (both guard directions, all
    /// probe fragments).
    pub confirms: usize,
}

/// The deterministic fragment coordinates the differential suite probes:
/// corners, centre, and off-axis points so multi-lane varyings differ.
pub fn default_probe_points() -> Vec<(f64, f64)> {
    vec![
        (0.0, 0.0),
        (1.0, 0.0),
        (0.25, 0.75),
        (0.5, 0.5),
        (0.875, 0.125),
    ]
}

/// Differentially executes `dispatch` against the always-general program on
/// `probes` fragment coordinates, in both guard directions:
///
/// * on a **violating** context the guard must fail, the dispatch must route
///   to the general program, and the routed output must equal the general
///   output bit-for-bit (a guard inverted or weakened shows up here);
/// * on a **holding** context the guard must pass and the **specialized**
///   program itself must agree with the general one bit-for-bit — the
///   substitute-equal-constant-and-fold transform performs exactly the same
///   arithmetic, so any drift at all is a real miscompile.
///
/// # Errors
///
/// Returns [`SpecDivergence`] on the first disagreement (guard direction,
/// interpreter fault, or output mismatch).
pub fn verify_specialization(
    dispatch: &GuardedDispatch,
    probes: &[(f64, f64)],
) -> Result<SpecVerification, SpecDivergence> {
    let spec = &dispatch.spec;
    let general = &dispatch.general.ir;
    let specialized = &dispatch.specialized.ir;
    let name = &dispatch.general.name;
    let mut confirms = 0usize;
    let run = |ir: &Shader, ctx: &FragmentContext, side: &str| {
        run_fragment(ir, ctx).map_err(|e| SpecDivergence {
            message: format!("{name} [spec {spec}]: {side} program faulted: {e}"),
        })
    };
    for (fx, fy) in probes {
        // Direction 1: assumption violated — dispatch must fall back.
        let violating = spec.violating_context(general, *fx, *fy);
        if spec.holds_on(&violating.uniforms) {
            return Err(SpecDivergence {
                message: format!(
                    "{name} [spec {spec}]: guard holds on a violating context at ({fx},{fy})"
                ),
            });
        }
        let routed = dispatch.select(&violating.uniforms);
        if !Arc::ptr_eq(&routed.ir, &dispatch.general.ir) {
            return Err(SpecDivergence {
                message: format!(
                    "{name} [spec {spec}]: dispatch routed a violating context to the \
                     specialized program"
                ),
            });
        }
        let dispatched = run(&routed.ir, &violating, "dispatched")?;
        let reference = run(general, &violating, "general")?;
        if !results_exactly_equal(&dispatched, &reference) {
            return Err(SpecDivergence {
                message: format!(
                    "{name} [spec {spec}]: outputs differ on a violating context at ({fx},{fy})"
                ),
            });
        }
        confirms += 1;
        SPEC_INTERP_CONFIRMS.fetch_add(1, Ordering::Relaxed);

        // Direction 2: assumption holds — the specialized fold must be exact.
        let holding = spec.holding_context(general, *fx, *fy);
        if !spec.holds_on(&holding.uniforms) {
            return Err(SpecDivergence {
                message: format!(
                    "{name} [spec {spec}]: guard fails on a holding context at ({fx},{fy})"
                ),
            });
        }
        let fast = run(specialized, &holding, "specialized")?;
        let slow = run(general, &holding, "general")?;
        if !results_exactly_equal(&fast, &slow) {
            return Err(SpecDivergence {
                message: format!(
                    "{name} [spec {spec}]: specialized output differs from general on a \
                     holding context at ({fx},{fy})"
                ),
            });
        }
        confirms += 1;
        SPEC_INTERP_CONFIRMS.fetch_add(1, Ordering::Relaxed);
    }
    Ok(SpecVerification { confirms })
}

/// Candidate single-assumption keys for a shader: zero and one on every
/// float uniform slot, in slot order. This is the arm pool the tuner and the
/// corpus-wide differential suite sweep; callers wanting exact-constant
/// assumptions build keys directly.
pub fn candidate_keys(shader: &Shader, limit: usize) -> Vec<SpecKey> {
    let mut keys = Vec::new();
    for (slot, u) in shader.uniforms.iter().enumerate() {
        if !u.ty.is_float() {
            continue;
        }
        keys.push(SpecKey::single(slot, SpecValue::Zero));
        keys.push(SpecKey::single(slot, SpecValue::One));
        if keys.len() >= limit {
            break;
        }
    }
    keys.truncate(limit);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::OptFlags;
    use crate::session::CompileSession;
    use prism_emit::BackendKind;
    use prism_glsl::ShaderSource;
    use prism_ir::fingerprint::fingerprint;

    const TINTED: &str = "uniform sampler2D tex; uniform vec4 tint; uniform float exposure;\n\
        in vec2 uv; out vec4 c;\n\
        void main() {\n\
            vec4 glow = texture(tex, uv * 3.0) * tint;\n\
            c = texture(tex, uv) * exposure + glow;\n\
        }";

    fn session() -> CompileSession {
        CompileSession::new(&ShaderSource::parse(TINTED).unwrap(), "tinted").unwrap()
    }

    /// Uniform slot index by GLSL name (samplers live in a separate list).
    fn slot_of(shader: &Shader, name: &str) -> usize {
        shader
            .uniforms
            .iter()
            .position(|u| u.name == name)
            .unwrap_or_else(|| panic!("no uniform {name} in {:?}", shader.uniforms))
    }

    #[test]
    fn keys_are_canonical_and_display_readably() {
        let a = SpecKey::of(vec![
            SpecAssumption::new(2, SpecValue::One),
            SpecAssumption::new(0, SpecValue::Zero),
            SpecAssumption::new(2, SpecValue::Zero), // duplicate slot: first wins post-sort
        ]);
        let b = SpecKey::of(vec![
            SpecAssumption::new(0, SpecValue::Zero),
            SpecAssumption::new(2, SpecValue::One),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "u0=0,u2=1");
        assert_eq!(SpecKey::general().to_string(), "general");
        assert!(SpecKey::general().is_general());
        assert_eq!(SpecValue::constant(0.25).as_f64(), 0.25);
    }

    #[test]
    fn guard_evaluates_per_lane_values() {
        let key = SpecKey::single(1, SpecValue::Zero);
        assert!(key.holds_on(&[vec![9.0], vec![0.0, 0.0]]));
        assert!(!key.holds_on(&[vec![9.0], vec![0.0, 0.5]]));
        // A missing slot fails the guard (conservative fallback).
        assert!(!key.holds_on(&[vec![9.0]]));
        assert!(SpecKey::general().holds_on(&[]));
    }

    #[test]
    fn zero_specialization_deletes_the_dead_texture_sample() {
        let s = session();
        let tint = slot_of(s.base_ir(), "tint");
        let spec = SpecKey::single(tint, SpecValue::Zero);
        let specialized = specialize_shader(s.base_ir(), &spec).unwrap();
        // `texture(tex, uv * 3.0) * tint` collapses to 0 and DCE removes the
        // sample; the general program keeps both samples.
        assert_eq!(s.base_ir().texture_op_count(), 2);
        assert_eq!(specialized.texture_op_count(), 1);
        // The interface is untouched — the dispatch binds one layout.
        assert_eq!(specialized.uniforms.len(), s.base_ir().uniforms.len());
    }

    #[test]
    fn one_specialization_folds_the_identity_scale() {
        let s = session();
        let exposure = slot_of(s.base_ir(), "exposure");
        let spec = SpecKey::single(exposure, SpecValue::One);
        let specialized = specialize_shader(s.base_ir(), &spec).unwrap();
        // `texture(tex, uv) * 1.0` loses the multiply but keeps the sample.
        assert_eq!(specialized.texture_op_count(), 2);
        assert!(specialized.size() < s.base_ir().size());
    }

    #[test]
    fn bad_keys_are_rejected() {
        let s = session();
        assert_eq!(
            specialize_shader(s.base_ir(), &SpecKey::single(99, SpecValue::Zero)),
            Err(SpecError::UnknownSlot(99))
        );
        assert!(SpecError::UnknownSlot(99).to_string().contains("99"));
    }

    #[test]
    fn specialization_fold_through_constfold_invalidates_the_memo() {
        // Satellite: the fingerprint memo rides through `Clone` (same
        // structure), so the specializer's substitute-then-fold path must
        // leave no stale memo behind — neither after the substitution nor
        // after the `ConstFold` stage mutates the clone.
        let s = session();
        let base = s.base_ir();
        let memo_before = fingerprint(base); // memoise on the shared base
        assert_eq!(base.cached_fingerprint(), Some(memo_before));

        let tint = slot_of(base, "tint");
        let specialized = specialize_shader(base, &SpecKey::single(tint, SpecValue::Zero)).unwrap();
        // The fold mutated the clone, so any surviving memo would be stale;
        // the stage contract requires it dropped.
        assert_eq!(specialized.cached_fingerprint(), None);
        assert_ne!(fingerprint(&specialized), memo_before);
        // And the shared base's own memo is untouched and still correct.
        assert_eq!(base.cached_fingerprint(), Some(memo_before));
    }

    #[test]
    fn dispatch_selects_by_guard_and_verifies_differentially() {
        let s = session();
        let tint = slot_of(s.base_ir(), "tint");
        let spec = SpecKey::single(tint, SpecValue::Zero);
        let before = spec_counters();
        let dispatch = s
            .dispatch_for(OptFlags::all(), &spec, BackendKind::DesktopGlsl)
            .unwrap();
        assert!(dispatch.is_effective());

        // Guard routing.
        let zeroed = spec.holding_context(&dispatch.general.ir, 0.5, 0.5);
        let nonzero = spec.violating_context(&dispatch.general.ir, 0.5, 0.5);
        assert!(Arc::ptr_eq(
            &dispatch.select(&zeroed.uniforms).ir,
            &dispatch.specialized.ir
        ));
        assert!(Arc::ptr_eq(
            &dispatch.select(&nonzero.uniforms).ir,
            &dispatch.general.ir
        ));

        // Differential verification confirms both directions on every probe.
        let probes = default_probe_points();
        let report = verify_specialization(&dispatch, &probes).unwrap();
        assert_eq!(report.confirms, probes.len() * 2);

        let delta = spec_counters().since(&before);
        assert!(delta.specializations_generated >= 1);
        assert!(delta.spec_guard_dispatches >= 2);
        assert_eq!(delta.spec_interp_confirms, report.confirms);
    }

    #[test]
    fn candidate_keys_cover_float_uniforms_zero_and_one() {
        let s = session();
        let keys = candidate_keys(s.base_ir(), 16);
        // Two float uniform variables (tint, exposure), two values each.
        assert_eq!(keys.len(), 2 * s.base_ir().uniforms.len());
        assert!(keys.iter().all(|k| k.assumptions().len() == 1));
        assert_eq!(candidate_keys(s.base_ir(), 3).len(), 3);
    }

    #[test]
    fn specialized_variants_share_the_transition_and_emission_planes() {
        // The dedup acceptance story in miniature: an assumption the shader
        // never reads (specializing a slot that appears only in dead code —
        // here, a key whose fold leaves the structure unchanged) must
        // produce the SAME fingerprint as the general base, so the whole
        // flags subtree is answered by the cache with zero new stage work.
        let s = session();
        let exposure = slot_of(s.base_ir(), "exposure");
        let spec = SpecKey::single(exposure, SpecValue::One);

        // Warm the general side.
        let general_fp = s.optimized_fingerprint(OptFlags::all()).unwrap();
        let runs_before = s.stats().stage_runs;

        let spec_fp = s.specialized_fingerprint(OptFlags::all(), &spec).unwrap();
        let spec_runs = s.stats().stage_runs - runs_before;
        assert_ne!(spec_fp, general_fp, "the ×1 fold changes the program");
        // The specialized walk runs its own stages at most once each; asking
        // again is pure cache.
        let runs_mid = s.stats().stage_runs;
        let again = s.specialized_fingerprint(OptFlags::all(), &spec).unwrap();
        assert_eq!(again, spec_fp);
        assert_eq!(s.stats().stage_runs, runs_mid, "replay must be all hits");
        assert!(spec_runs > 0);
    }
}
