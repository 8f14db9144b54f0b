//! Cross-crate integration tests: front-end → optimizer → back-end → driver →
//! cost model, exercised together the way the study uses them.

use prism::core::{compile, unique_variants, Flag, OptFlags};
use prism::glsl::ShaderSource;
use prism::gpu::{Platform, Vendor};
use prism::ir::interp::{results_approx_equal, run_fragment, FragmentContext};

fn blur_source() -> ShaderSource {
    ShaderSource::parse(prism::corpus::flagship::BLUR9).expect("blur parses")
}

/// Every one of the 256 flag combinations must preserve the blur's image
/// (within unsafe-FP tolerance) — the core correctness contract of the
/// optimizer.
#[test]
fn all_256_combinations_preserve_blur_semantics() {
    let source = blur_source();
    let reference = compile(&source, "blur", OptFlags::NONE).unwrap();
    let ctx = FragmentContext::with_defaults(&reference.ir, 0.41, 0.27);
    let want = run_fragment(&reference.ir, &ctx).unwrap();
    for flags in OptFlags::all_combinations() {
        let optimized = compile(&source, "blur", flags).unwrap();
        let ctx2 = FragmentContext::with_defaults(&optimized.ir, 0.41, 0.27);
        let got = run_fragment(&optimized.ir, &ctx2).unwrap();
        assert!(
            results_approx_equal(&want, &got, 1e-4),
            "flags {flags} changed the rendered result"
        );
    }
}

/// Optimized GLSL must re-parse with the same external interface, for every
/// corpus family representative and every flag combination the variants use.
#[test]
fn optimized_glsl_reparses_with_identical_interface() {
    let corpus = prism::corpus::Corpus::gfxbench_like();
    let representatives = [
        "flagship_blur9",
        "flagship_deferred_light",
        "forward_lit_09",
        "shadow_filter_04",
        "ssao_02",
        "water_02",
        "utility_03",
    ];
    for name in representatives {
        let case = corpus.case(name).expect("representative exists");
        let variants = unique_variants(&case.source, name).expect("variants");
        for variant in &variants.variants {
            let reparsed = ShaderSource::preprocess_and_parse(&variant.glsl, &Default::default())
                .unwrap_or_else(|e| {
                    panic!("{name} variant {} fails to re-parse: {e}", variant.index)
                });
            assert!(
                case.source.interface().same_io(&reparsed.interface()),
                "{name} variant {} changed the shader interface",
                variant.index
            );
        }
    }
}

/// The motivating example's headline numbers: the fully optimized blur is
/// faster on every platform, and the phones gain more than the desktops
/// (the paper's Fig. 3 shape).
#[test]
fn blur_gains_follow_the_paper_shape() {
    use prism::emit::BackendKind;
    let source = blur_source();
    let session = prism::core::CompileSession::new(&source, "blur").expect("session");
    let flags = OptFlags::from_flags(&[
        Flag::Unroll,
        Flag::Coalesce,
        Flag::FpReassociate,
        Flag::DivToMul,
    ]);
    let mut gains = Vec::new();
    for vendor in Vendor::ALL {
        let platform = Platform::new(vendor);
        // Each driver receives its own source form: the desktops the corpus
        // text, everyone else the conversion of the (un)optimized lowering.
        let original_converted;
        let original: &str = if platform.backend() == BackendKind::DesktopGlsl {
            &source.text
        } else {
            original_converted = session.base_text_for(platform.backend());
            &original_converted
        };
        let optimized = session.text_for(flags, platform.backend()).unwrap();
        let before = platform.submit(original, "blur").unwrap().ideal_frame_ns;
        let after = platform.submit(&optimized, "blur").unwrap().ideal_frame_ns;
        let gain = (before - after) / before * 100.0;
        assert!(
            gain > 0.0,
            "{vendor}: blur must not regress, got {gain:.2}%"
        );
        gains.push((vendor, gain));
    }
    let desktop_avg = gains
        .iter()
        .filter(|(v, _)| !v.is_mobile())
        .map(|(_, g)| *g)
        .sum::<f64>()
        / Vendor::DESKTOP.len() as f64;
    let mobile_avg = gains
        .iter()
        .filter(|(v, _)| v.is_mobile())
        .map(|(_, g)| *g)
        .sum::<f64>()
        / Vendor::MOBILE.len() as f64;
    assert!(
        mobile_avg > desktop_avg,
        "mobile ({mobile_avg:.2}%) should gain more than desktop ({desktop_avg:.2}%): {gains:?}"
    );
    // AMD benefits most among desktops (its 2017 driver does not unroll).
    let amd = gains.iter().find(|(v, _)| *v == Vendor::Amd).unwrap().1;
    let nvidia = gains.iter().find(|(v, _)| *v == Vendor::Nvidia).unwrap().1;
    assert!(
        amd > nvidia,
        "AMD ({amd:.2}%) should out-gain NVIDIA ({nvidia:.2}%)"
    );
}

/// Unrolling alone is a no-op on platforms whose driver already unrolls
/// (Intel, NVIDIA) but matters where the driver does not (AMD) — the
/// mechanism behind the paper's per-flag differences.
#[test]
fn driver_maturity_decides_whether_offline_unrolling_matters() {
    let source = blur_source();
    let baseline = compile(&source, "blur", OptFlags::NONE).unwrap();
    let unrolled = compile(&source, "blur", OptFlags::only(Flag::Unroll)).unwrap();
    let gain = |vendor: Vendor| {
        let p = Platform::new(vendor);
        let before = p.submit(&baseline.glsl, "blur").unwrap().ideal_frame_ns;
        let after = p.submit(&unrolled.glsl, "blur").unwrap().ideal_frame_ns;
        (before - after) / before * 100.0
    };
    let intel = gain(Vendor::Intel);
    let nvidia = gain(Vendor::Nvidia);
    let amd = gain(Vendor::Amd);
    assert!(
        intel.abs() < 1.0,
        "Intel's driver unrolls internally: {intel:.2}%"
    );
    assert!(
        nvidia.abs() < 1.0,
        "NVIDIA's driver unrolls internally: {nvidia:.2}%"
    );
    assert!(
        amd > 3.0,
        "AMD's 2017 driver does not unroll, offline unrolling should win: {amd:.2}%"
    );
}

/// The ADCE flag does not change the generated code for representative
/// corpus shaders (the paper's Fig. 8h observation). A handful of the larger
/// übershader variants can still show textual differences through cleanup
/// ordering — see EXPERIMENTS.md — so this checks the common case rather than
/// universally quantifying over the corpus.
#[test]
fn adce_never_changes_generated_code() {
    let corpus = prism::corpus::Corpus::gfxbench_like();
    for name in [
        "flagship_blur9",
        "flagship_tonemap",
        "ui_blit_00",
        "ssao_01",
        "water_00",
        "particle_02",
    ] {
        let case = corpus.case(name).expect("case exists");
        let variants = unique_variants(&case.source, name).expect("variants");
        assert!(
            !variants.flag_changes_code(Flag::Adce),
            "{name}: ADCE should never change the output"
        );
    }
}

/// The number of distinct variants stays far below 256 and simple shaders
/// produce almost none (Fig. 4c).
#[test]
fn variant_counts_match_figure_4c_shape() {
    let corpus = prism::corpus::Corpus::gfxbench_like();
    let count = |name: &str| {
        let case = corpus.case(name).expect("case exists");
        unique_variants(&case.source, name)
            .expect("variants")
            .unique_count()
    };
    let simple = count("ui_blit_00");
    let blur = count("flagship_blur9");
    let lit = count("forward_lit_09");
    assert!(
        simple <= 6,
        "trivial shader should have almost no variants: {simple}"
    );
    assert!(blur > simple);
    assert!(blur <= 64, "even the blur stays well under 256: {blur}");
    assert!(lit <= 64, "übershader variants stay bounded: {lit}");
}

/// The GLES re-emission path used for the phones keeps the interface intact
/// but produces genuinely different text (the paper's §III-C(d) artefacts).
#[test]
fn mobile_conversion_differs_but_keeps_interface() {
    let source = blur_source();
    let compiled = compile(&source, "blur", OptFlags::lunarglass_default()).unwrap();
    let desktop = prism::emit::emit_glsl(&compiled.ir);
    let mobile = prism::emit::BackendKind::Gles.emit(&compiled.ir);
    assert_ne!(desktop, mobile);
    let reparsed = ShaderSource::preprocess_and_parse(&mobile, &Default::default()).unwrap();
    assert!(source.interface().same_io(&reparsed.interface()));
}
