//! End-to-end tests of the incremental flag-search subsystem: strategies
//! running against live sessions reach the quality bar (≥ the LunarGlass
//! default policy) at a fraction of the exhaustive compile cost, budgets are
//! hard, bounded caches change nothing about the measurements, the new
//! records survive the JSON round trip, the bandit strategies' regret curves
//! converge, and the measurement-in-the-loop tune tenant reaches the same
//! bar through a shared [`CompileService`] without re-emitting variants the
//! serving plane already paid for.

use prism::core::OptFlags;
use prism::corpus::Corpus;
use prism::gpu::Vendor;
use prism::report;
use prism::search::{
    run_study, standard_strategies, static_agreement_rows, StudyConfig, StudyResults,
};
use prism::serve::{CompileRequest, CompileService, ServeConfig, TuneSpec};

/// The strategy names the shipped set exposes, derived from the set itself
/// so a renamed strategy fails here rather than silently testing nothing.
fn strategy_names() -> Vec<&'static str> {
    standard_strategies().iter().map(|s| s.name()).collect()
}

/// A corpus slice mixing the blur flagship (real optimization headroom) with
/// übershader family members (cache sharing) and simple shaders.
fn mini_corpus() -> Corpus {
    Corpus::family_mix()
}

fn search_config() -> StudyConfig {
    StudyConfig {
        search: true,
        ..StudyConfig::quick()
    }
}

#[test]
fn strategies_meet_the_default_policy_below_a_quarter_of_the_compile_cost() {
    let study = run_study(&mini_corpus(), &search_config());
    assert_eq!(study.platforms().len(), 7);

    // 7 platforms x 4 strategies.
    assert_eq!(study.search.len(), 7 * strategy_names().len());
    for vendor in study.platforms() {
        for strategy in strategy_names() {
            let row = study
                .search
                .iter()
                .find(|r| r.vendor == vendor && r.strategy == strategy)
                .unwrap_or_else(|| panic!("missing search row {vendor}/{strategy}"));
            assert_eq!(row.shaders, 5);

            // Hard budget, and strictly fewer compilations than the
            // exhaustive 256 — in fact under a quarter of them.
            assert!(
                row.max_compiles <= row.budget,
                "{vendor}/{strategy} exceeded its budget: {row:?}"
            );
            assert!(
                row.mean_compiles < 64.0,
                "{vendor}/{strategy} should compile < 25% of 256: {row:?}"
            );

            // Never better than the oracle (sanity of the comparison).
            assert!(
                row.mean_speedup <= row.oracle_mean_speedup + 1e-9,
                "{vendor}/{strategy} beat the exhaustive oracle: {row:?}"
            );

            // The paper-grade quality bar: greedy and ablation searches must
            // match or beat the default LunarGlass policy everywhere.
            if strategy != "hill_climb" {
                assert!(
                    row.mean_speedup >= row.default_mean_speedup - 1e-9,
                    "{vendor}/{strategy} lost to the default flags: {row:?}"
                );
            }
        }
    }
}

#[test]
fn bandit_regret_curves_converge_within_a_quarter_of_the_exhaustive_cost() {
    let study = run_study(&mini_corpus(), &search_config());
    for vendor in study.platforms() {
        for bandit in ["epsilon_greedy", "ucb1"] {
            let row = study
                .search
                .iter()
                .find(|r| r.vendor == vendor && r.strategy == bandit)
                .unwrap_or_else(|| panic!("missing bandit row {vendor}/{bandit}"));

            // ≤ 25% of the exhaustive 256 combinations, and ≥ the default
            // LunarGlass policy — the online strategies must clear the same
            // bar as the offline ones.
            assert!(
                row.max_compiles <= 64,
                "{vendor}/{bandit} spent over a quarter of the exhaustive cost: {row:?}"
            );
            assert!(
                row.mean_speedup >= row.default_mean_speedup - 1e-9,
                "{vendor}/{bandit} lost to the default flags: {row:?}"
            );

            // The regret curve is present, aligned with its checkpoints,
            // anchored at the budget, non-increasing (each extra measurement
            // can only improve the anytime deployment in oracle mode), and
            // consistent with the reported final regret.
            assert_eq!(row.regret_checkpoints.len(), row.mean_regret.len());
            assert!(!row.mean_regret.is_empty(), "{vendor}/{bandit}: {row:?}");
            assert_eq!(*row.regret_checkpoints.last().unwrap(), row.budget);
            for pair in row.mean_regret.windows(2) {
                assert!(
                    pair[1] <= pair[0] + 1e-9,
                    "{vendor}/{bandit} regret increased along the curve: {row:?}"
                );
            }
            assert!(row.regret_final >= 0.0);
            assert!((row.regret_final - row.mean_regret.last().unwrap()).abs() < 1e-12);
        }
    }
}

#[test]
fn live_tune_tenant_matches_the_default_policy_on_every_platform() {
    let corpus = mini_corpus();
    let study = run_study(&corpus, &search_config());

    // One service carries the whole sweep: every tune pass shares its memo
    // plane (and its best-known warm starts) with every other.
    let tune_all = || {
        let service = CompileService::new(ServeConfig::default());
        let mut outcomes = Vec::new();
        for vendor in Vendor::ALL {
            for case in &corpus.cases {
                let spec = TuneSpec::new(vendor).with_budget(16).with_family(format!(
                    "{}:{}",
                    case.family,
                    vendor.name()
                ));
                let outcome = service
                    .tune_spec(&case.source.text, &spec, None)
                    .unwrap_or_else(|e| panic!("{:?}/{} tune failed: {e}", vendor, case.name));
                outcomes.push((vendor.name(), case.name.clone(), outcome));
            }
        }
        outcomes
    };
    let outcomes = tune_all();
    assert_eq!(outcomes, tune_all(), "the tune sweep must be deterministic");

    // Score each live pass's chosen flags on the exhaustive study record for
    // the same (shader, platform): per platform, the mean tuned speedup must
    // match or beat the default policy, at ≤ 25% of the exhaustive cost.
    for vendor in Vendor::ALL {
        let mut tuned_sum = 0.0;
        let mut default_sum = 0.0;
        let mut shaders = 0;
        for (v, shader, outcome) in &outcomes {
            if *v != vendor.name() {
                continue;
            }
            assert!(
                outcome.measurements_taken <= 16,
                "{vendor:?}/{shader} overran its measurement budget: {outcome:?}"
            );
            let record = study
                .measurements
                .iter()
                .find(|r| r.shader == *shader && r.vendor == vendor.name())
                .unwrap_or_else(|| panic!("study is missing {vendor:?}/{shader}"));
            tuned_sum += record.speedup_vs_original(outcome.best_flags);
            default_sum += record.speedup_vs_original(OptFlags::lunarglass_default());
            shaders += 1;
        }
        assert_eq!(shaders, corpus.cases.len());
        assert!(
            tuned_sum >= default_sum - 1e-9,
            "live tuning lost to the default policy on {vendor:?}: tuned {:.3} vs default {:.3}",
            tuned_sum / shaders as f64,
            default_sum / shaders as f64
        );
    }
}

#[test]
fn tune_pass_never_re_emits_a_variant_the_serving_plane_already_paid_for() {
    let corpus = mini_corpus();
    let case = corpus
        .cases
        .iter()
        .find(|c| c.name == "flagship_blur9")
        .expect("mini corpus carries the blur flagship");
    let service = CompileService::new(ServeConfig::default());
    let backend = Vendor::Amd.backend();

    // Serving traffic covers the entire flag space for this (shader,
    // backend): every (fingerprint, flags, backend) triple the tuner could
    // possibly request is already in the shared memo.
    for bits in 0..=u8::MAX {
        let request = CompileRequest::builder(&case.source.text)
            .flags(OptFlags::from_bits(bits))
            .backend(backend)
            .build();
        service.compile(&request).expect("serving compile");
    }
    let before = service.stats();
    assert!(before.cache.emissions > 0);

    let outcome = service.tune(&case.source.text, Vendor::Amd, 16).unwrap();
    let after = service.stats();
    assert!(outcome.measurements_taken <= 16);
    // The memo-sharing acceptance bar: zero duplicate emissions for
    // already-served triples — the whole tune pass is answered by the plane
    // serving traffic warmed.
    assert_eq!(
        after.cache.emissions, before.cache.emissions,
        "the tuner re-emitted an already-served variant"
    );
    assert!(
        after.cache.emission_hits > before.cache.emission_hits,
        "the tuner's compiles never touched the shared emission memo"
    );
    assert_eq!(after.tune_requests, 1);
    assert_eq!(after.measurements_taken, outcome.measurements_taken);
}

/// Tentpole acceptance: on the flagship blur tune, the static prefilter cuts
/// the scarce resource — timing measurements — by at least a quarter across
/// the 7 platforms, and the flags it deploys still match or beat the default
/// LunarGlass policy on every platform's exhaustive record (the warm-start
/// and default arms are always truly measured, so the quality floor cannot
/// be pruned away).
#[test]
fn static_prefilter_cuts_flagship_measurements_by_a_quarter_without_losing_quality() {
    let corpus = mini_corpus();
    let case = corpus
        .cases
        .iter()
        .find(|c| c.name == "flagship_blur9")
        .expect("mini corpus carries the blur flagship");
    let study = run_study(&corpus, &StudyConfig::quick());

    let mut baseline_measurements = 0usize;
    let mut prefilter_measurements = 0usize;
    for vendor in Vendor::ALL {
        // Fresh services so both modes tune from the same cold start.
        let baseline = CompileService::new(ServeConfig::default())
            .tune_spec(
                &case.source.text,
                &TuneSpec::new(vendor).with_budget(16),
                None,
            )
            .unwrap();
        let service = CompileService::new(ServeConfig::default());
        let filtered = service
            .tune_spec(
                &case.source.text,
                &TuneSpec::new(vendor)
                    .with_budget(16)
                    .with_static_prefilter(true),
                None,
            )
            .unwrap();
        assert_eq!(baseline.candidates_pruned, 0);
        assert_eq!(
            filtered.search_compiles,
            filtered.measurements_taken + filtered.candidates_pruned,
            "{vendor:?}: every evaluated arm is measured or pruned: {filtered:?}"
        );
        assert_eq!(
            service.stats().search_candidates_pruned,
            filtered.candidates_pruned
        );
        baseline_measurements += baseline.measurements_taken;
        prefilter_measurements += filtered.measurements_taken;

        // Quality: scored on the exhaustive record, the prefiltered tune
        // still matches or beats the default policy on this platform.
        let record = study
            .measurements
            .iter()
            .find(|r| r.shader == case.name && r.vendor == vendor.name())
            .unwrap_or_else(|| panic!("study is missing {vendor:?}/{}", case.name));
        let tuned = record.speedup_vs_original(filtered.best_flags);
        let default = record.speedup_vs_original(OptFlags::lunarglass_default());
        assert!(
            tuned >= default - 1e-9,
            "{vendor:?}: prefiltered tune lost to the default policy: tuned {tuned:.3} vs default {default:.3}"
        );
    }
    assert!(
        (prefilter_measurements as f64) <= 0.75 * baseline_measurements as f64,
        "prefilter saved too little: {prefilter_measurements} of {baseline_measurements} measurements"
    );
}

/// The `fig_static` table covers every platform for the measured corpus, its
/// agreements are well-formed, and the static model's ranking is better than
/// antagonistic on average (otherwise the prefilter would be unsafe).
#[test]
fn fig_static_scores_rank_agreement_on_all_seven_platforms() {
    let corpus = mini_corpus();
    let study = run_study(&corpus, &StudyConfig::quick());
    let rows = static_agreement_rows(&corpus, &study);
    assert!(!rows.is_empty());
    for vendor in Vendor::ALL {
        assert!(
            rows.iter().any(|r| r.vendor == vendor.name()),
            "fig_static is missing platform {vendor:?}"
        );
    }
    for row in &rows {
        assert!(row.variants >= 2, "{row:?}");
        assert!((0.0..=1.0).contains(&row.agreement), "{row:?}");
        assert!(row.footrule >= 0.0, "{row:?}");
    }
    let mean = rows.iter().map(|r| r.agreement).sum::<f64>() / rows.len() as f64;
    assert!(
        mean > 0.5,
        "static ranking is worse than a coin flip on average: {mean:.3}"
    );

    let text = report::fig_static(&rows);
    assert!(text.contains("Static cost model"), "{text}");
    for vendor in Vendor::ALL {
        assert!(text.contains(vendor.name()), "{text}");
    }
}

#[test]
fn search_results_are_deterministic_across_runs() {
    let a = run_study(&mini_corpus(), &search_config());
    let b = run_study(&mini_corpus(), &search_config());
    assert_eq!(a.search, b.search);
}

#[test]
fn bounded_cache_reproduces_unbounded_study_results_byte_for_byte() {
    let corpus = mini_corpus();
    let unbounded = run_study(&corpus, &search_config());
    let bounded = run_study(
        &corpus,
        &StudyConfig {
            cache_budget: Some(64),
            ..search_config()
        },
    );
    // Eviction only ever forces recomputation, so every measured number —
    // and therefore every search row — is identical.
    assert_eq!(bounded.shaders, unbounded.shaders);
    assert_eq!(bounded.measurements, unbounded.measurements);
    assert_eq!(bounded.skipped, unbounded.skipped);
    assert_eq!(bounded.search, unbounded.search);
}

#[test]
fn search_rows_round_trip_json_and_render() {
    let study = run_study(&mini_corpus(), &search_config());
    let restored = StudyResults::from_json(&study.to_json().unwrap()).unwrap();
    assert_eq!(restored.search, study.search);

    let fig10 = report::fig10_incremental(&restored);
    for strategy in strategy_names() {
        assert!(
            fig10.contains(strategy),
            "fig10 missing {strategy}:\n{fig10}"
        );
    }
    assert!(report::render_all(&restored, "flagship_blur9").contains("Figure 10"));
}
