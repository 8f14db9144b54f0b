//! A miniature end-to-end reproduction run: corpus slice → exhaustive sweep →
//! every figure/table renderer, with the qualitative checks the paper's
//! evaluation section reports.

use prism::core::Flag;
use prism::corpus::Corpus;
use prism::gpu::Vendor;
use prism::report;
use prism::search::{flag_impact, run_study, Policy, StudyConfig, StudyResults};

fn mini_corpus() -> Corpus {
    let full = Corpus::gfxbench_like();
    let keep = [
        "flagship_blur9",
        "flagship_tonemap",
        "flagship_deferred_light",
        "shadow_filter_01",
        "bloom_blur_02",
        "forward_lit_00",
        "forward_lit_09",
        "ui_blit_00",
        "ui_blit_05",
        "color_grade_02",
        "ssao_01",
        "utility_02",
    ];
    Corpus {
        cases: full
            .cases
            .into_iter()
            .filter(|c| keep.contains(&c.name.as_str()))
            .collect(),
    }
}

fn run_mini_study() -> StudyResults {
    run_study(&mini_corpus(), &StudyConfig::quick())
}

#[test]
fn full_pipeline_study_produces_all_figures() {
    let study = run_mini_study();
    assert_eq!(study.platforms().len(), 7);
    assert_eq!(study.shaders.len(), 12);

    // Every renderer produces non-trivial output for this study.
    let everything = report::render_all(&study, "flagship_blur9");
    assert!(everything.contains("Figure 3"));
    assert!(everything.contains("Figure 4"));
    assert!(everything.contains("Figure 5"));
    assert!(everything.contains("Figure 6"));
    assert!(everything.contains("Table I"));
    assert!(everything.contains("Figure 7"));
    assert!(everything.contains("Figure 8"));
    assert!(everything.contains("Figure 9"));

    // The study serialises and round-trips (for offline re-analysis).
    let restored = StudyResults::from_json(&study.to_json().unwrap()).unwrap();
    assert_eq!(restored.measurements.len(), study.measurements.len());
}

#[test]
fn qualitative_results_follow_the_paper() {
    let study = run_mini_study();

    // Fig. 5: the per-shader best policy is at least as good as the best
    // static set, which in turn beats or matches default LunarGlass.
    for vendor in study.platforms() {
        let records = study.for_platform(&vendor);
        let best = prism::search::mean_speedup(&records, Policy::Best);
        let (_, static_mean) = prism::search::minimal_best_static(&records);
        let default = prism::search::mean_speedup(&records, Policy::DefaultLunarGlass);
        assert!(
            best >= static_mean - 1e-9,
            "{vendor}: best {best} < static {static_mean}"
        );
        assert!(
            static_mean >= default - 1e-9,
            "{vendor}: static {static_mean} < default {default}"
        );
    }

    // The motivating blur is among the most-improved shaders everywhere.
    for vendor in study.platforms() {
        let records = study.for_platform(&vendor);
        let top = prism::search::top_n_speedups(&records, 3);
        assert!(
            top.iter().any(|(name, _)| name == "flagship_blur9"),
            "{vendor}: expected the blur in the top-3, got {top:?}"
        );
    }

    // Fig. 8: ADCE is (almost) never applicable; Coalesce and FP-Reassociate
    // apply to a majority of shaders.
    let arm_rows = prism::search::flag_applicability(&study, "ARM");
    let row = |flag: Flag| arm_rows.iter().find(|r| r.flag == flag).unwrap().clone();
    assert!(
        row(Flag::Adce).applicability_rate() < 0.35,
        "ADCE should be a near-universal no-op: {:?}",
        row(Flag::Adce)
    );
    assert!(row(Flag::Coalesce).applicability_rate() > 0.5);
    assert!(row(Flag::FpReassociate).applicability_rate() > 0.5);
    // Loops are rare, so Unroll applies to a minority.
    assert!(row(Flag::Unroll).applicability_rate() < 0.5);

    // Fig. 9: offline unrolling matters on AMD (whose driver does not unroll)
    // and is a wash on NVIDIA (whose driver does).
    let amd_unroll = flag_impact(&study, "AMD", Flag::Unroll);
    let nvidia_unroll = flag_impact(&study, "NVIDIA", Flag::Unroll);
    assert!(
        amd_unroll.max() > 3.0,
        "AMD unroll peak {:.2}",
        amd_unroll.max()
    );
    assert!(
        nvidia_unroll.max() < amd_unroll.max(),
        "NVIDIA ({:.2}) should gain less than AMD ({:.2}) from offline unrolling",
        nvidia_unroll.max(),
        amd_unroll.max()
    );

    // Scalar grouping pays off most on the scalar-ALU Adreno.
    let adreno_fp = flag_impact(&study, "Qualcomm", Flag::FpReassociate);
    let mali_fp = flag_impact(&study, "ARM", Flag::FpReassociate);
    assert!(
        adreno_fp.max() >= mali_fp.max(),
        "Adreno FP-reassociate peak {:.2} should be at least Mali's {:.2}",
        adreno_fp.max(),
        mali_fp.max()
    );
}

/// Backend routing, end to end: every row must have been compiled by its
/// driver from the source form the platform declares — the submission
/// records the version token the driver front-end actually parsed — across
/// all four backends (GLES conversion for the Android phones, SPIR-V
/// assembly for the Vulkan desktop, MSL for Apple, desktop GLSL elsewhere).
#[test]
fn every_row_is_compiled_from_its_platforms_declared_source_form() {
    let study = run_mini_study();
    assert_eq!(study.measurements.len(), 12 * 7);
    for m in &study.measurements {
        let vendor = Vendor::ALL
            .iter()
            .find(|v| v.name() == m.vendor)
            .expect("known vendor");
        let expected = vendor.backend();
        assert_eq!(m.backend, expected.name(), "{} on {}", m.shader, m.vendor);
        assert_eq!(
            m.driver_source_version,
            expected.version(),
            "{} on {}: the declared source form must reach the driver",
            m.shader,
            m.vendor
        );
    }
    // All four source forms actually appear in the sweep.
    let forms: std::collections::HashSet<&str> = study
        .measurements
        .iter()
        .map(|m| m.backend.as_str())
        .collect();
    assert_eq!(forms.len(), 4, "{forms:?}");
}

/// The shared corpus cache changes how fast the sweep runs, never what it
/// computes: a family corpus slice shows cross-shader sharing in the study's
/// cache record while producing measurements byte-identical to running each
/// shader as its own study, on its own private cache.
#[test]
fn shared_corpus_cache_shares_across_shaders_without_changing_results() {
    let full = Corpus::gfxbench_like();
    let keep = [
        "texture_combine_00",
        "texture_combine_01",
        "texture_combine_02",
        "ui_blit_00",
    ];
    let corpus = Corpus {
        cases: full
            .cases
            .into_iter()
            .filter(|c| keep.contains(&c.name.as_str()))
            .collect(),
    };

    let shared = run_study(&corpus, &StudyConfig::quick());
    assert_eq!(shared.cache.stats.sessions, corpus.len());
    assert!(
        shared.cache.stats.cross_shader_stage_hits > 0,
        "übershader family members must share stage work: {:?}",
        shared.cache
    );
    assert!(shared.cache.stats.stage_hit_rate() > 0.9);

    let mut solo = StudyResults::default();
    for case in &corpus.cases {
        let alone = Corpus {
            cases: vec![case.clone()],
        };
        let study = run_study(&alone, &StudyConfig::quick());
        assert_eq!(study.cache.stats.cross_shader_stage_hits, 0);
        solo.shaders.extend(study.shaders);
        solo.measurements.extend(study.measurements);
        solo.cache.stats.stage_runs += study.cache.stats.stage_runs;
        solo.cache.stats.emissions += study.cache.stats.emissions;
    }
    // The shared cache did strictly less optimization and emission work...
    assert!(shared.cache.stats.stage_runs < solo.cache.stats.stage_runs);
    assert!(shared.cache.stats.emissions < solo.cache.stats.emissions);
    // ...while every record — static facts and every timing on every
    // platform, both backends — is identical.
    assert_eq!(shared.shaders, solo.shaders);
    assert_eq!(shared.measurements, solo.measurements);
}

#[test]
fn corpus_characterisation_matches_section_v() {
    let corpus = Corpus::gfxbench_like();
    let stats = corpus.stats();
    // Power-law-ish size distribution with a long tail of small shaders.
    assert!(stats.under_50_loc * 2 > stats.shader_count);
    assert!(stats.max_loc > 25);
    // Loops are uncommon; component writes are near-universal.
    assert!(stats.with_loops * 4 < stats.shader_count);
    assert!(stats.with_component_writes * 3 > stats.shader_count * 2);
}
