//! Flag set → pass pipeline → optimized GLSL.
//!
//! Mirrors how the paper drives LunarGlass (§III-A): the always-on
//! canonicalisation passes run for every configuration (they are also the
//! baseline for the per-flag experiments of Fig. 9), then each enabled flag
//! adds its pass in a fixed order, and a final cleanup round folds anything
//! the flag passes exposed (e.g. constant-array indices after unrolling).
//! That order is one constant, [`SCHEDULE`], which every compilation path
//! walks: [`compile_ir`], the sessions, the compile service and the
//! warm-start schedule hash.

use crate::flags::{Flag, OptFlags};
use crate::lower::{lower, LowerError};
use crate::passes::{hoist::Hoist, unroll::Unroll, Pass};
use prism_emit::emit_glsl;
use prism_glsl::{GlslError, ShaderSource};
use prism_ir::prelude::*;
use prism_ir::verify::{verify, VerifyError};
use std::fmt;

/// An error from the compilation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The GLSL front-end rejected the shader.
    Front(GlslError),
    /// Lowering to IR failed (unsupported construct).
    Lower(LowerError),
    /// A pass produced structurally invalid IR (an internal bug).
    Verify(VerifyError),
    /// The requested uniform-value specialization does not apply to this
    /// shader (unknown slot, unsupported uniform type).
    Specialize(crate::specialize::SpecError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Front(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Verify(e) => write!(f, "{e}"),
            CompileError::Specialize(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<GlslError> for CompileError {
    fn from(e: GlslError) -> Self {
        CompileError::Front(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// The result of compiling one shader with one flag combination.
#[derive(Debug, Clone)]
pub struct CompiledShader {
    /// Shader name (corpus identifier).
    pub name: String,
    /// Flag combination used.
    pub flags: OptFlags,
    /// Optimized IR (what the GPU substrate consumes). A shared handle into
    /// the session's exemplar store: a session-compiled shader whose cached
    /// snapshot already carries this shader's name is returned without
    /// cloning the IR at all.
    pub ir: std::sync::Arc<Shader>,
    /// Re-emitted desktop GLSL (what a real driver would receive). A shared
    /// handle: session-compiled shaders point straight into the emission
    /// memo, so handing the text around never copies the body.
    pub glsl: std::sync::Arc<str>,
}

/// One stage of the pass schedule: a group of passes that either always runs
/// or is gated on a single flag.
///
/// Exposing the schedule as stages lets [`crate::session::CompileSession`]
/// snapshot the IR at every stage boundary and share the prefix of the
/// schedule across all flag combinations that agree on it.
#[derive(Debug)]
pub struct Stage {
    /// Human-readable stage label (used in debug output and session stats).
    pub label: &'static str,
    /// `None` for always-on canonicalisation stages; `Some(flag)` for stages
    /// that only run when the flag is enabled.
    pub flag: Option<Flag>,
    /// The passes of this stage, in execution order.
    pub passes: &'static [Pass],
}

impl Stage {
    /// `true` when this stage runs for the given flag combination.
    pub fn enabled_for(&self, flags: OptFlags) -> bool {
        self.flag.is_none_or(|f| flags.contains(f))
    }

    /// Runs every pass of this stage over the shader, in order, returning
    /// whether any pass reported mutating the IR.
    ///
    /// A `false` return is the optimizer's licence for the O(1) identity
    /// fast path: the caller may keep the pre-stage snapshot (same `Arc`,
    /// same fingerprint) without re-hashing or re-verifying. The stage
    /// therefore invalidates the shader's fingerprint memo exactly when a
    /// pass reports a change, and — in debug builds, or in any build with
    /// `PRISM_VERIFY=1` in the environment — runs the IR verifier after
    /// every pass and convicts passes that lie in either direction by
    /// re-hashing.
    pub fn run(&self, ir: &mut Shader) -> bool {
        #[cfg(debug_assertions)]
        let fp_before = prism_ir::fingerprint::compute_fingerprint(ir);
        let mut changed = false;
        for pass in self.passes {
            if pass.run(ir) {
                changed = true;
            }
            if cfg!(debug_assertions) || verify_every_pass() {
                assert!(
                    verify(ir).is_ok(),
                    "pass `{}` of stage `{}` produced invalid IR",
                    pass.name(),
                    self.label
                );
            }
        }
        if changed {
            ir.invalidate_fingerprint();
            if cfg!(debug_assertions) || verify_every_pass() {
                // Tripwire for the memo/mutation contract: `Clone` carries
                // the fingerprint memo (the clone has the same structure), so
                // a mutating stage MUST drop it — a surviving memo that no
                // longer matches a from-scratch hash means some rewrite path
                // mutated shared IR without invalidating.
                if let Some(stale) = ir.cached_fingerprint() {
                    assert_eq!(
                        stale,
                        prism_ir::fingerprint::compute_fingerprint(ir),
                        "stage `{}` mutated the IR but a stale fingerprint memo survived",
                        self.label
                    );
                }
            }
        }
        #[cfg(debug_assertions)]
        {
            let fp_after = prism_ir::fingerprint::compute_fingerprint(ir);
            debug_assert!(
                changed || fp_after == fp_before,
                "a pass of stage `{}` mutated the IR but reported clean",
                self.label
            );
        }
        changed
    }

    /// [`Stage::run`], then the IR verifier when the stage changed the IR —
    /// the optimizer's step of [`walk_stages`](crate::walk_stages), in every
    /// build profile, mirroring the post-pipeline check [`compile_ir`]
    /// performs: a pass that corrupts IR must surface as an error, never as
    /// silently emitted (and cached) garbage. An unchanged IR was verified
    /// when it was produced.
    ///
    /// # Errors
    ///
    /// The verifier's error when the changed IR breaks an invariant.
    pub fn run_verified(&self, ir: &mut Shader) -> Result<bool, VerifyError> {
        let changed = self.run(ir);
        if changed {
            verify(ir)?;
        }
        Ok(changed)
    }
}

/// Whether `PRISM_VERIFY=1` (or any non-empty value other than `0`) is set:
/// release builds then run the IR verifier after every pass, exactly as
/// debug builds always do. The CI release leg sets it so optimizer bugs that
/// only reproduce under release codegen still fail loudly. Read once per
/// process — the env var is a boot-time switch, not a live toggle.
fn verify_every_pass() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var("PRISM_VERIFY")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// The full pass schedule as inspectable stages.
///
/// The always-on canonicalisation (constant folding, local CSE, trivial DCE)
/// brackets the flag passes; the flag passes appear in LunarGlass's fixed
/// order, each in its own stage so a session can branch at exactly the points
/// where flag combinations diverge. A stage's index here is its id in the
/// transition graph and in warm-start snapshots.
pub const SCHEDULE: &[Stage] = &[
    Stage {
        label: "canonicalise",
        flag: None,
        passes: &[Pass::Rename, Pass::ConstFold, Pass::Cse, Pass::Dce],
    },
    Stage {
        label: Flag::Unroll.name(),
        flag: Some(Flag::Unroll),
        passes: &[Pass::Unroll(Unroll {
            max_trip_count: 64,
            max_expanded_size: 2048,
        })],
    },
    // Unrolling exposes constant array indices and accumulator sums;
    // renaming turns the unrolled accumulator chain into SSA form and
    // folding then evaluates it. This mid-pipeline canonicalisation runs
    // unconditionally so that enabling a flag whose pass finds nothing to
    // do (e.g. Unroll on a loop-free shader) cannot perturb the generated
    // code.
    Stage {
        label: "mid-canonicalise",
        flag: None,
        passes: &[Pass::Rename, Pass::ConstFold],
    },
    Stage {
        label: Flag::Hoist.name(),
        flag: Some(Flag::Hoist),
        passes: &[Pass::Hoist(Hoist {
            max_branch_size: 64,
        })],
    },
    Stage {
        label: Flag::Coalesce.name(),
        flag: Some(Flag::Coalesce),
        passes: &[Pass::Coalesce],
    },
    Stage {
        label: Flag::Gvn.name(),
        flag: Some(Flag::Gvn),
        passes: &[Pass::Gvn],
    },
    Stage {
        label: Flag::Reassociate.name(),
        flag: Some(Flag::Reassociate),
        passes: &[Pass::Reassociate],
    },
    Stage {
        label: Flag::FpReassociate.name(),
        flag: Some(Flag::FpReassociate),
        passes: &[Pass::FpReassociate],
    },
    Stage {
        label: Flag::DivToMul.name(),
        flag: Some(Flag::DivToMul),
        passes: &[Pass::DivToMul],
    },
    Stage {
        label: Flag::Adce.name(),
        flag: Some(Flag::Adce),
        passes: &[Pass::Adce],
    },
    // Final cleanup, run twice: the first round removes definitions the
    // flag passes left dead, which lets the second round's copy
    // propagation and CSE converge to the same canonical form regardless
    // of which flag passes ran (this is what keeps ADCE a strict no-op on
    // the output).
    Stage {
        label: "final-cleanup",
        flag: None,
        passes: &[
            Pass::Rename,
            Pass::ConstFold,
            Pass::Cse,
            Pass::Dce,
            Pass::ConstFold,
            Pass::Cse,
            Pass::Dce,
        ],
    },
];

/// Lowers and optimizes a shader, returning the IR.
///
/// # Errors
///
/// Returns [`CompileError`] if lowering fails or (internal bug) a pass breaks
/// IR invariants.
pub fn compile_ir(
    source: &ShaderSource,
    name: &str,
    flags: OptFlags,
) -> Result<Shader, CompileError> {
    let mut ir = lower(source, name)?;
    verify(&ir).map_err(CompileError::Verify)?;
    // The pass schedule is applied once, as LunarGlass applies its pass list
    // once per compilation; the schedule is ordered so that later passes see
    // the work earlier ones expose (unroll → fold → reassociate → div-to-mul).
    for stage in SCHEDULE.iter().filter(|stage| stage.enabled_for(flags)) {
        stage.run(&mut ir);
    }
    verify(&ir).map_err(CompileError::Verify)?;
    Ok(ir)
}

/// Compiles a shader with the given flags all the way to optimized GLSL.
///
/// # Errors
///
/// See [`compile_ir`].
///
/// # Examples
///
/// ```
/// use prism_core::{compile, OptFlags};
/// use prism_glsl::ShaderSource;
///
/// let src = ShaderSource::parse(
///     "uniform vec4 tint; in vec2 uv; out vec4 c;\n\
///      void main() { c = vec4(uv, 0.0, 1.0) * tint * 1.0; }",
/// ).unwrap();
/// let optimized = compile(&src, "doc", OptFlags::all()).unwrap();
/// assert!(optimized.glsl.contains("out vec4 c;"));
/// ```
pub fn compile(
    source: &ShaderSource,
    name: &str,
    flags: OptFlags,
) -> Result<CompiledShader, CompileError> {
    let ir = compile_ir(source, name, flags)?;
    let glsl = emit_glsl(&ir).into();
    Ok(CompiledShader {
        name: name.to_string(),
        flags,
        ir: std::sync::Arc::new(ir),
        glsl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};

    const MOTIVATING: &str = r#"
        out vec4 fragColor; in vec2 uv;
        uniform sampler2D tex;
        uniform vec4 ambient;
        void main() {
            const vec4[] weights = vec4[](
                vec4(0.01), vec4(0.05), vec4(0.14), vec4(0.21), vec4(0.18),
                vec4(0.21), vec4(0.14), vec4(0.05), vec4(0.01));
            const vec2[] offsets = vec2[](
                vec2(-0.0083), vec2(-0.0062), vec2(-0.0042), vec2(-0.0021), vec2(0.0),
                vec2(0.0021), vec2(0.0042), vec2(0.0062), vec2(0.0083));
            float weightTotal = 0.0;
            fragColor = vec4(0.0);
            for (int i = 0; i < 9; i++) {
                weightTotal += weights[i][0];
                fragColor += weights[i] * texture(tex, uv + offsets[i]) * 3.0 * ambient;
            }
            fragColor /= weightTotal;
        }
    "#;

    fn motivating_source() -> ShaderSource {
        ShaderSource::parse(MOTIVATING).unwrap()
    }

    #[test]
    fn no_flags_still_canonicalises() {
        let src =
            ShaderSource::parse("uniform vec4 u; out vec4 c; void main() { c = u * (2.0 * 3.0); }")
                .unwrap();
        let out = compile(&src, "canon", OptFlags::NONE).unwrap();
        assert!(out.glsl.contains("6.0"), "{}", out.glsl);
    }

    #[test]
    fn all_flag_combinations_compile_the_motivating_example() {
        let src = motivating_source();
        for flags in OptFlags::all_combinations() {
            let result = compile(&src, "blur", flags);
            assert!(result.is_ok(), "flags {flags} failed: {result:?}");
        }
    }

    #[test]
    fn unrolling_plus_folding_removes_the_loop_and_division() {
        let src = motivating_source();
        let baseline = compile(&src, "blur", OptFlags::NONE).unwrap();
        assert_eq!(baseline.ir.loop_count(), 1);
        let flags = OptFlags::from_flags(&[Flag::Unroll, Flag::FpReassociate, Flag::DivToMul]);
        let optimized = compile(&src, "blur", flags).unwrap();
        assert_eq!(
            optimized.ir.loop_count(),
            0,
            "loop should be fully unrolled"
        );
        // weightTotal folds to a constant, so the final division becomes a
        // multiplication by a constant (Listing 2 in the paper).
        let mut divisions = 0;
        prism_ir::stmt::walk_body(&optimized.ir.body, &mut |s| {
            if let Stmt::Def {
                op: Op::Binary(BinaryOp::Div, ..),
                ..
            } = s
            {
                divisions += 1;
            }
        });
        assert_eq!(
            divisions, 0,
            "division by folded weightTotal should be gone"
        );
        // All nine texture samples survive.
        assert_eq!(optimized.ir.texture_op_count(), 9);
    }

    #[test]
    fn optimization_preserves_semantics_for_every_flag_combination() {
        let src = motivating_source();
        let reference = compile(&src, "blur", OptFlags::NONE).unwrap();
        let ctx = FragmentContext::with_defaults(&reference.ir, 0.37, 0.61);
        let want = run_fragment(&reference.ir, &ctx).unwrap();
        // A representative subset of combinations (the full 256 runs in the
        // integration suite).
        for flags in [
            OptFlags::all(),
            OptFlags::lunarglass_default(),
            OptFlags::only(Flag::Unroll),
            OptFlags::only(Flag::Hoist),
            OptFlags::only(Flag::FpReassociate),
            OptFlags::only(Flag::DivToMul),
            OptFlags::from_flags(&[
                Flag::Unroll,
                Flag::FpReassociate,
                Flag::DivToMul,
                Flag::Coalesce,
            ]),
        ] {
            let optimized = compile(&src, "blur", flags).unwrap();
            let ctx2 = FragmentContext::with_defaults(&optimized.ir, 0.37, 0.61);
            let got = run_fragment(&optimized.ir, &ctx2).unwrap();
            assert!(
                results_approx_equal(&want, &got, 1e-4),
                "flags {flags} changed the image: {want:?} vs {got:?}"
            );
        }
    }

    #[test]
    fn interface_is_preserved_by_optimization() {
        let src = motivating_source();
        let optimized = compile(&src, "blur", OptFlags::all()).unwrap();
        let reparsed =
            prism_glsl::ShaderSource::preprocess_and_parse(&optimized.glsl, &Default::default())
                .expect("optimized GLSL must re-parse");
        assert!(src.interface().same_io(&reparsed.interface()));
    }

    #[test]
    fn adce_alone_never_changes_the_output() {
        // Reproduces the paper's Fig. 8h observation at the pipeline level.
        let src = motivating_source();
        let without = compile(&src, "blur", OptFlags::NONE).unwrap();
        let with = compile(&src, "blur", OptFlags::only(Flag::Adce)).unwrap();
        assert_eq!(without.glsl, with.glsl);
    }

    #[test]
    fn pipeline_structure_follows_flags() {
        let passes = |flags: OptFlags| -> Vec<&str> {
            SCHEDULE
                .iter()
                .filter(|stage| stage.enabled_for(flags))
                .flat_map(|stage| stage.passes.iter().map(|pass| pass.name()))
                .collect()
        };
        assert_eq!(passes(OptFlags::NONE).len(), 13);
        assert!(passes(OptFlags::all()).len() > 13);
        let names = passes(OptFlags::only(Flag::Unroll));
        assert!(names.contains(&"unroll"));
        assert!(!names.contains(&"hoist"));
    }
}
