//! Property-based tests over the optimizer's core invariants.
//!
//! The crates.io `proptest` harness is unavailable offline, so these
//! properties run over a deterministic in-house generator: a seeded SplitMix64
//! stream drives a small expression grammar, producing the same shader corpus
//! on every run (failures are reproducible by seed).
//!
//! Properties:
//!
//! * any generated arithmetic shader survives the front-end and every flag
//!   combination of the optimizer without panicking,
//! * optimization preserves the rendered result (within unsafe-FP tolerance),
//! * emitted GLSL always re-parses and keeps the shader interface,
//! * **session equivalence**: for generated shaders and the corpus (every
//!   shader in release builds, a sample in debug), session-based variants
//!   are text- and count-identical to brute-force `compile`-per-combination,
//!   which also proves IR-fingerprint dedup never merges shaders whose
//!   emitted GLSL differs,
//! * **corpus-cache transparency**: übershader-family sessions sharing one
//!   [`CorpusCache`] show nonzero cross-shader stage hits while every cached
//!   result stays byte-identical to cold per-session compilation, for both
//!   the desktop and GLES emission backends,
//! * **value-key equivalence**: the structural value-numbering key
//!   ([`Op::value_key`]) partitions every corpus operation exactly as the
//!   printed string key it replaced, kept here as the oracle.

use prism::core::{compile, unique_variants, CacheStore, CompileSession, CorpusCache, OptFlags};
use prism::emit::{source_interface, BackendKind};
use prism::glsl::ShaderSource;
use prism::ir::interp::{results_approx_equal, run_fragment, FragmentContext};
use prism::ir::{BinaryOp, Constant, Intrinsic, Op, Operand, Reg, Stmt, TextureDim};
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic generator state (SplitMix64).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A random expression over the shader's available values; depth-bounded so
/// generated shaders stay within realistic fragment-shader sizes.
fn gen_expr(g: &mut Gen, depth: u32) -> String {
    if depth == 0 || g.below(3) == 0 {
        return match g.below(7) {
            0 => "uv.x".to_string(),
            1 => "uv.y".to_string(),
            2 => "tint.x".to_string(),
            3 => "tint.y * 0.5".to_string(),
            4 => "gain".to_string(),
            5 => format!("{}.0", 1 + g.below(8)),
            _ => format!("{}.5", 1 + g.below(4)),
        };
    }
    match g.below(7) {
        0 => format!("({} + {})", gen_expr(g, depth - 1), gen_expr(g, depth - 1)),
        1 => format!("({} * {})", gen_expr(g, depth - 1), gen_expr(g, depth - 1)),
        2 => format!("({} - {})", gen_expr(g, depth - 1), gen_expr(g, depth - 1)),
        // Division by a non-zero constant: the Div-to-Mul target pattern.
        3 => format!("({} / {}.0)", gen_expr(g, depth - 1), 2 + g.below(7)),
        4 => format!("abs({})", gen_expr(g, depth - 1)),
        5 => format!(
            "min({}, {})",
            gen_expr(g, depth - 1),
            gen_expr(g, depth - 1)
        ),
        _ => format!(
            "mix({}, {}, 0.25)",
            gen_expr(g, depth - 1),
            gen_expr(g, depth - 1)
        ),
    }
}

/// Wraps generated expressions in a complete fragment shader that exercises
/// scalar maths, vector construction and component writes. Some shaders get a
/// constant-bound accumulation loop so Unroll has something to do.
fn gen_shader(g: &mut Gen) -> String {
    let a = gen_expr(g, 3);
    let b = gen_expr(g, 3);
    let reps = 1 + g.below(5);
    let mut body = format!("    float acc = {a};\n");
    if g.below(2) == 0 {
        body.push_str(&format!(
            "    for (int i = 0; i < {reps}; i++) {{ acc += {b} * 0.125; }}\n"
        ));
    } else {
        for i in 0..reps {
            body.push_str(&format!("    acc += {b} * {}.0;\n", i + 1));
        }
    }
    format!(
        "uniform vec4 tint;\nuniform float gain;\nin vec2 uv;\nout vec4 fragColor;\n\
         void main() {{\n{body}    vec3 rgb = vec3(acc, acc * 0.5, {a});\n    fragColor.xyz = rgb;\n    fragColor.w = 1.0;\n}}\n"
    )
}

fn generated_sources(count: usize, seed: u64) -> Vec<ShaderSource> {
    let mut g = Gen::new(seed);
    (0..count)
        .map(|i| {
            let text = gen_shader(&mut g);
            ShaderSource::parse(&text)
                .unwrap_or_else(|e| panic!("generated shader {i} must parse: {e}\n{text}"))
        })
        .collect()
}

/// Every flag combination preserves the generated shader's output.
#[test]
fn optimization_preserves_generated_shader_semantics() {
    for (i, source) in generated_sources(24, 0xA11CE).iter().enumerate() {
        let reference = compile(source, "gen", OptFlags::NONE).expect("baseline compiles");
        let ctx = FragmentContext::with_defaults(&reference.ir, 0.3, 0.65);
        let want = run_fragment(&reference.ir, &ctx).expect("baseline runs");

        // A representative spread of combinations (the exhaustive version
        // runs on the fixed corpus in the integration tests).
        for bits in [
            0u8,
            0xFF,
            0b0101_0101,
            0b1010_1010,
            0b0011_0110,
            0b1100_0001,
        ] {
            let flags = OptFlags::from_bits(bits);
            let optimized = compile(source, "gen", flags).expect("optimized compiles");
            let ctx2 = FragmentContext::with_defaults(&optimized.ir, 0.3, 0.65);
            let got = run_fragment(&optimized.ir, &ctx2).expect("optimized runs");
            assert!(
                results_approx_equal(&want, &got, 1e-3),
                "shader {i}, flags {flags} changed output: {:?} vs {:?}",
                want.outputs,
                got.outputs
            );
        }
    }
}

/// Emitted GLSL for any flag set re-parses and keeps the interface — and the
/// GLES emission of the same compilation keeps it too (one generated vertex
/// shader and one uniform setup must serve both measurement paths).
#[test]
fn emitted_glsl_reparses_and_keeps_interface() {
    let mut g = Gen::new(0xBEEF);
    for source in generated_sources(16, 0xBEEF ^ 1) {
        let flags = OptFlags::from_bits(g.below(256) as u8);
        let optimized = compile(&source, "gen", flags).expect("compiles");
        let reparsed = ShaderSource::preprocess_and_parse(&optimized.glsl, &Default::default())
            .expect("emitted GLSL re-parses");
        assert!(source.interface().same_io(&reparsed.interface()));
        let gles = prism::emit::BackendKind::Gles.emit(&optimized.ir);
        let interface = |kind, text: &str| source_interface(kind, text).expect("emission parses");
        assert_eq!(
            interface(BackendKind::DesktopGlsl, &optimized.glsl),
            interface(BackendKind::Gles, &gles),
            "desktop and GLES emissions must expose one interface:\n{gles}"
        );
    }
}

/// Variant deduplication groups flag sets if and only if their emitted text
/// is identical.
#[test]
fn variant_dedup_is_consistent_with_text_equality() {
    for source in generated_sources(8, 0xD00D) {
        let set = unique_variants(&source, "gen").expect("variants");
        // Spot-check a handful of flag sets against their variant's text.
        for bits in [0u8, 1, 16, 64, 255] {
            let flags = OptFlags::from_bits(bits);
            let direct = compile(&source, "gen", flags).expect("compiles").glsl;
            assert_eq!(set.variant_for(flags).glsl, direct);
        }
        // Distinct variants must have distinct text.
        for (i, a) in set.variants.iter().enumerate() {
            for b in &set.variants[i + 1..] {
                assert_ne!(a.glsl, b.glsl);
            }
        }
    }
}

/// Session-based variant generation is byte-identical to brute force: for
/// every one of the 256 combinations the session's text equals an independent
/// `compile`, the variant count matches, and the flag→variant grouping is the
/// same. Because the session deduplicates on IR fingerprints before emission,
/// this equality also proves fingerprint dedup never merges flag sets whose
/// emitted GLSL differs.
///
/// Release builds check every corpus shader (the CI `PRISM_VERIFY=1` leg
/// runs this in release); debug builds check a slice of families, the blur
/// flagship included.
#[test]
fn session_variants_are_byte_identical_to_brute_force() {
    let corpus = prism::corpus::Corpus::gfxbench_like();
    let sampled = ["flagship_blur9", "ui_blit_00", "color_grade_01"];
    let corpus_sources: Vec<(String, ShaderSource)> = corpus
        .cases
        .iter()
        .filter(|c| !cfg!(debug_assertions) || sampled.contains(&c.name.as_str()))
        .map(|c| (c.name.clone(), c.source.clone()))
        .collect();
    let expected = if cfg!(debug_assertions) {
        sampled.len()
    } else {
        corpus.cases.len()
    };
    assert_eq!(
        corpus_sources.len(),
        expected,
        "checked corpus shaders exist"
    );

    let generated: Vec<(String, ShaderSource)> = generated_sources(6, 0x5E55)
        .into_iter()
        .enumerate()
        .map(|(i, s)| (format!("gen_{i}"), s))
        .collect();

    for (name, source) in corpus_sources.into_iter().chain(generated) {
        let session = CompileSession::new(&source, &name).expect("session constructs");
        let set = session.variants().expect("session variants");

        // Brute force: an independent full compile per combination.
        let mut brute_unique: Vec<std::sync::Arc<str>> = Vec::new();
        for flags in OptFlags::all_combinations() {
            let direct = compile(&source, &name, flags).expect("brute force compiles");
            assert_eq!(
                set.variant_for(flags).glsl,
                direct.glsl,
                "{name}: flags {flags} diverge between session and brute force"
            );
            if !brute_unique.contains(&direct.glsl) {
                brute_unique.push(direct.glsl);
            }
        }
        assert_eq!(
            set.unique_count(),
            brute_unique.len(),
            "{name}: variant count diverges"
        );

        // The session must actually have shared work, not just agreed.
        let stats = session.stats();
        assert!(
            stats.stage_hits > stats.stage_runs,
            "{name}: expected prefix sharing, got {stats:?}"
        );
    }
}

/// Übershader-family sessions sharing one `CorpusCache` must (a) actually
/// share — nonzero *cross-shader* stage hits — and (b) stay transparent:
/// every emitted text, for both the desktop and GLES backends, is
/// byte-identical to a cold session compiling alone with a private cache.
#[test]
fn corpus_cache_shares_across_family_sessions_and_stays_byte_identical() {
    let corpus = prism::corpus::Corpus::gfxbench_like();
    // Two texture_combine übershader instances whose specialisations lower
    // to structurally identical IR — the family-sharing case the corpus
    // cache exists for.
    let family: Vec<_> = corpus
        .cases
        .iter()
        .filter(|c| c.name == "texture_combine_00" || c.name == "texture_combine_01")
        .collect();
    assert_eq!(family.len(), 2, "family members exist in the corpus");

    let cache = Arc::new(CorpusCache::new());
    let sample_bits = [0u8, 3, 16, 97, 170, 255];
    for (i, case) in family.iter().enumerate() {
        let shared = CompileSession::with_cache(&case.source, &case.name, cache.clone()).unwrap();
        let shared_set = shared.variants().unwrap();
        let cold = CompileSession::new(&case.source, &case.name).unwrap();
        let cold_set = cold.variants().unwrap();

        // The full variant sets agree variant-for-variant.
        assert_eq!(
            shared_set.unique_count(),
            cold_set.unique_count(),
            "{}",
            case.name
        );
        for (a, b) in shared_set.variants.iter().zip(&cold_set.variants) {
            assert_eq!(a.glsl, b.glsl, "{}", case.name);
            assert_eq!(a.flag_sets, b.flag_sets, "{}", case.name);
        }

        // Per-backend texts agree for a spread of combinations.
        for bits in sample_bits {
            let flags = OptFlags::from_bits(bits);
            for backend in BackendKind::ALL {
                assert_eq!(
                    shared.text_for(flags, backend).unwrap(),
                    cold.text_for(flags, backend).unwrap(),
                    "{}: flags {flags}, backend {backend}",
                    case.name
                );
            }
        }

        if i == 0 {
            // Nothing to share yet: the first session seeds the cache.
            assert_eq!(cache.stats().cross_shader_stage_hits, 0);
        }
    }

    // The second family member was answered by the first one's work.
    let stats = cache.stats();
    assert_eq!(stats.sessions, 2);
    assert!(
        stats.cross_shader_stage_hits > 0,
        "expected cross-shader stage sharing, got {stats:?}"
    );
    assert!(
        stats.cross_shader_emission_hits > 0,
        "expected cross-shader emission sharing, got {stats:?}"
    );
    assert!(
        stats.identity_transitions > 0,
        "clean stages must be answered by the identity mask, not edges: {stats:?}"
    );
}

/// **Eviction property**: a budget-bounded `CorpusCache` must (a) never hold
/// more entries than its budget at any point of a multi-family sweep, (b)
/// actually evict (the sweep overflows the budget many times over), and (c)
/// stay fully transparent — every session's variant set is byte-identical to
/// a cold, unbounded compile, because an evicted entry is only ever
/// recomputed, never lost.
#[test]
fn bounded_corpus_cache_respects_its_budget_and_stays_transparent() {
    let corpus = prism::corpus::Corpus::family_mix();
    let cases = &corpus.cases;

    let budget = 48;
    let cache = Arc::new(CorpusCache::bounded(budget));
    for case in cases {
        let bounded = CompileSession::with_cache(&case.source, &case.name, cache.clone()).unwrap();
        let bounded_set = bounded.variants().unwrap();
        assert!(
            cache.entry_count() <= budget,
            "{}: cache grew to {} entries (budget {budget})",
            case.name,
            cache.entry_count()
        );

        let cold = CompileSession::new(&case.source, &case.name).unwrap();
        let cold_set = cold.variants().unwrap();
        assert_eq!(bounded_set.unique_count(), cold_set.unique_count());
        for (a, b) in bounded_set.variants.iter().zip(&cold_set.variants) {
            assert_eq!(a.glsl, b.glsl, "{}", case.name);
            assert_eq!(a.flag_sets, b.flag_sets, "{}", case.name);
        }
    }

    let stats = cache.stats();
    assert!(
        stats.evictions > 0,
        "a 5-shader sweep must overflow a {budget}-entry budget: {stats:?}"
    );
}

/// The per-combination session compile agrees with its own batch variants()
/// view (the two code paths share the same caches).
#[test]
fn session_single_compiles_agree_with_batch_variants() {
    for source in generated_sources(4, 0xCAFE) {
        let session = CompileSession::new(&source, "gen").expect("session constructs");
        let set = session.variants().expect("session variants");
        for bits in [0u8, 3, 17, 128, 255] {
            let flags = OptFlags::from_bits(bits);
            let single = session.compile(flags).expect("session compile");
            assert_eq!(single.glsl, set.variant_for(flags).glsl);
        }
    }
}

/// The printed value-numbering key CSE and GVN used before [`Op::value_key`]
/// became structural: the equivalence oracle for the structural key.
fn oracle_value_key(op: &Op) -> String {
    let list = |operands: &[Operand]| {
        operands
            .iter()
            .map(Operand::key)
            .collect::<Vec<_>>()
            .join(",")
    };
    match op {
        Op::Mov(a) => format!("mov({})", a.key()),
        Op::Binary(op, a, b) => {
            let (x, y) = if op.is_commutative() && b.key() < a.key() {
                (b.key(), a.key())
            } else {
                (a.key(), b.key())
            };
            format!("bin:{op:?}({x},{y})")
        }
        Op::Unary(op, a) => format!("un:{op:?}({})", a.key()),
        Op::Intrinsic(i, args) => format!("call:{i:?}({})", list(args)),
        Op::TextureSample {
            sampler,
            coords,
            lod,
            dim,
        } => format!(
            "tex:{sampler}:{dim:?}({},{})",
            coords.key(),
            lod.as_ref().map(|l| l.key()).unwrap_or_default()
        ),
        Op::Construct { ty, parts } => format!("ctor:{ty}({})", list(parts)),
        Op::Splat { ty, value } => format!("splat:{ty}({})", value.key()),
        Op::Extract { vector, index } => format!("ext({},{index})", vector.key()),
        Op::Insert {
            vector,
            index,
            value,
        } => format!("ins({},{index},{})", vector.key(), value.key()),
        Op::Swizzle { vector, lanes } => format!("swz({},{lanes:?})", vector.key()),
        Op::Select {
            cond,
            if_true,
            if_false,
        } => format!("sel({},{},{})", cond.key(), if_true.key(), if_false.key()),
        Op::ConstArrayLoad { array, index } => format!("cal({array},{})", index.key()),
        Op::Convert { to, value } => format!("cvt:{to}({})", value.key()),
    }
}

/// For each op, the index of the first op in its class under `key`: two
/// keys partition `ops` identically exactly when these vectors are equal.
fn partition<'a, K: std::hash::Hash + Eq>(ops: &[&'a Op], key: impl Fn(&'a Op) -> K) -> Vec<usize> {
    let mut first: HashMap<K, usize> = HashMap::new();
    ops.iter()
        .enumerate()
        .map(|(i, op)| *first.entry(key(op)).or_insert(i))
        .collect()
}

#[test]
fn value_keys_partition_every_corpus_op_like_the_string_key() {
    let corpus = prism::corpus::Corpus::gfxbench_like();
    let mut shaders = Vec::new();
    for case in &corpus.cases {
        shaders.push(Arc::new(
            prism::core::lower(&case.source, &case.name).expect("corpus shaders lower"),
        ));
        let session = CompileSession::new(&case.source, &case.name).unwrap();
        for variant in session.variants().unwrap().variants {
            shaders.push(variant.ir);
        }
    }
    let mut ops: Vec<&Op> = Vec::new();
    for shader in &shaders {
        prism::ir::stmt::walk_body(&shader.body, &mut |stmt| {
            if let Stmt::Def { op, .. } = stmt {
                ops.push(op);
            }
        });
    }
    let structural = partition(&ops, Op::value_key);
    let printed = partition(&ops, oracle_value_key);
    let classes = structural
        .iter()
        .enumerate()
        .filter(|(i, first)| i == *first)
        .count();
    assert!(
        classes > 1_000 && classes < ops.len(),
        "{classes} classes over {} ops",
        ops.len()
    );
    for (i, (s, p)) in structural.iter().zip(&printed).enumerate() {
        assert_eq!(
            s, p,
            "op {i} ({:?}) joins op {s} under the structural key but op {p} under the string key",
            ops[i]
        );
    }
}

#[test]
fn value_key_hand_cases_agree_with_the_string_key() {
    let float = Operand::float;
    let r = |n| Operand::Reg(Reg(n));
    let bin = |op, a, b| Op::Binary(op, a, b);
    let mov = Op::Mov;
    let sample = |lod| Op::TextureSample {
        sampler: 0,
        coords: r(1),
        lod,
        dim: TextureDim::Dim2D,
    };
    let quiet_nan = f64::NAN;
    let other_nan = f64::from_bits(quiet_nan.to_bits() | 0x5);
    assert!(other_nan.is_nan() && other_nan.to_bits() != quiet_nan.to_bits());
    // (a, b, whether a and b take one value number)
    let cases = [
        (mov(float(0.0)), mov(float(-0.0)), true),
        (mov(float(quiet_nan)), mov(float(other_nan)), true),
        (mov(float(quiet_nan)), mov(float(-quiet_nan)), true),
        (
            mov(Operand::fvec(vec![1.0, -0.0, 2.0])),
            mov(Operand::fvec(vec![1.0, 0.0, 2.0])),
            true,
        ),
        (
            mov(Operand::fvec(vec![1.0, 0.0])),
            mov(Operand::fvec(vec![1.0, 0.0, 0.0])),
            false,
        ),
        (
            mov(Operand::int(1)),
            mov(Operand::Const(Constant::Uint(1))),
            false,
        ),
        (mov(Operand::int(1)), mov(float(1.0)), false),
        (
            mov(Operand::Const(Constant::Uint(1))),
            mov(float(1.0)),
            false,
        ),
        (mov(float(1.0)), mov(Operand::fvec(vec![1.0])), false),
        (
            bin(BinaryOp::Add, r(1), r(2)),
            bin(BinaryOp::Add, r(2), r(1)),
            true,
        ),
        (
            bin(BinaryOp::Sub, r(1), r(2)),
            bin(BinaryOp::Sub, r(2), r(1)),
            false,
        ),
        (
            bin(BinaryOp::Mul, float(-0.0), r(3)),
            bin(BinaryOp::Mul, r(3), float(0.0)),
            true,
        ),
        (sample(None), sample(Some(float(0.0))), false),
        (
            Op::Intrinsic(Intrinsic::Max, vec![r(1), r(2)]),
            Op::Intrinsic(Intrinsic::Max, vec![r(1), r(2), r(3)]),
            false,
        ),
        (sample(Some(float(0.0))), sample(Some(float(-0.0))), true),
        (mov(r(1)), mov(Operand::Input(1)), false),
        (mov(Operand::Input(1)), mov(Operand::Uniform(1)), false),
    ];
    for (a, b, same) in &cases {
        assert_eq!(
            oracle_value_key(a) == oracle_value_key(b),
            *same,
            "oracle: {a:?} vs {b:?}"
        );
        assert_eq!(
            a.value_key() == b.value_key(),
            *same,
            "structural: {a:?} vs {b:?}"
        );
    }
}
