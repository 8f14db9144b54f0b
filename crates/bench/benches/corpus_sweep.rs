//! Criterion benchmark of the corpus-level study sweep hot path: one shared
//! [`CorpusCache`](prism_core::CorpusCache) for every shader session versus
//! one study per shader, each on its own private cache.
//!
//! Besides timing both configurations, the bench asserts the properties the
//! shared cache must keep (cross-shader hits happen; results are
//! byte-identical; the shared sweep performs strictly less compile work), so
//! CI can run it as a smoke test and the hot path cannot silently regress.
//! Set `PRISM_BENCH_SMOKE=1` for the reduced CI configuration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prism_corpus::Corpus;
use prism_search::{run_study, StudyConfig, StudyResults};

/// Whether the reduced CI smoke configuration is requested.
fn smoke() -> bool {
    std::env::var_os("PRISM_BENCH_SMOKE").is_some()
}

/// A corpus slice dominated by übershader family members that actually share
/// IR, so the cross-shader path is exercised, plus an unrelated small shader.
fn family_corpus() -> Corpus {
    let keep: &[&str] = if smoke() {
        &["texture_combine_00", "texture_combine_01", "ui_blit_00"]
    } else {
        &[
            "texture_combine_00",
            "texture_combine_01",
            "texture_combine_02",
            "texture_combine_03",
            "ui_blit_00",
            "color_grade_01",
        ]
    };
    Corpus {
        cases: Corpus::gfxbench_like()
            .cases
            .into_iter()
            .filter(|c| keep.contains(&c.name.as_str()))
            .collect(),
    }
}

fn sweep(corpus: &Corpus) -> StudyResults {
    run_study(corpus, &StudyConfig::quick())
}

/// One study per shader: every session memoises against a private cache, so
/// nothing is shared across shaders. Records are concatenated in corpus
/// order and the work counters summed.
fn sweep_per_shader(corpus: &Corpus) -> StudyResults {
    let mut total = StudyResults::default();
    for case in &corpus.cases {
        let study = sweep(&Corpus {
            cases: vec![case.clone()],
        });
        total.shaders.extend(study.shaders);
        total.measurements.extend(study.measurements);
        let stats = &study.cache.stats;
        total.cache.stats.stage_runs += stats.stage_runs;
        total.cache.stats.stage_hits += stats.stage_hits;
        total.cache.stats.emissions += stats.emissions;
    }
    total
}

fn corpus_sweep_benchmarks(c: &mut Criterion) {
    let corpus = family_corpus();

    c.bench_function("study_sweep_shared_corpus_cache", |b| {
        b.iter(|| black_box(sweep(&corpus)))
    });
    c.bench_function("study_sweep_per_shader_caches", |b| {
        b.iter(|| black_box(sweep_per_shader(&corpus)))
    });

    consistency_report(&corpus);
}

/// One checked comparison run: the shared cache must share across shaders,
/// do strictly less compile work, and change nothing about the results.
fn consistency_report(corpus: &Corpus) {
    let ir_before = prism_ir::counters::snapshot();
    let shared = sweep(corpus);
    let ir_mid = prism_ir::counters::snapshot();
    let solo = sweep_per_shader(corpus);
    let shared_ir = ir_mid.since(&ir_before);
    let solo_ir = prism_ir::counters::snapshot().since(&ir_mid);

    println!(
        "\ncorpus sweep ({} shaders):\n  shared cache: {} stage runs, {} hits ({} cross-shader, {} identity), {} emissions\n  per-shader:   {} stage runs, {} hits, {} emissions\n  ir work:      shared {} clones / {} fingerprints, per-shader {} clones / {} fingerprints",
        corpus.len(),
        shared.cache.stats.stage_runs,
        shared.cache.stats.stage_hits,
        shared.cache.stats.cross_shader_stage_hits,
        shared.cache.stats.identity_transitions,
        shared.cache.stats.emissions,
        solo.cache.stats.stage_runs,
        solo.cache.stats.stage_hits,
        solo.cache.stats.emissions,
        shared_ir.ir_clones,
        shared_ir.fingerprints_computed,
        solo_ir.ir_clones,
        solo_ir.fingerprints_computed,
    );

    assert!(
        shared.cache.stats.cross_shader_stage_hits > 0,
        "family sweep must share stage work across shaders: {:?}",
        shared.cache
    );
    assert!(
        shared.cache.stats.identity_transitions > 0,
        "a sweep over mostly-clean stages must take the identity fast path: {:?}",
        shared.cache
    );
    assert!(
        shared.cache.stats.stage_runs < solo.cache.stats.stage_runs,
        "shared cache must run strictly fewer stages ({} vs {})",
        shared.cache.stats.stage_runs,
        solo.cache.stats.stage_runs
    );
    assert!(
        shared.cache.stats.emissions < solo.cache.stats.emissions,
        "shared cache must emit strictly less ({} vs {})",
        shared.cache.stats.emissions,
        solo.cache.stats.emissions
    );
    assert_eq!(
        shared.shaders, solo.shaders,
        "shared cache must not change static records"
    );
    assert_eq!(
        shared.measurements, solo.measurements,
        "shared cache must not change a single measurement"
    );
    println!("  consistency: OK (results byte-identical, strictly less work)");

    warm_start_report(corpus, &shared);
}

/// Warm-start smoke check, driven by `PRISM_WARM_DIR`: the sweep re-runs
/// against a persistent snapshot directory kept across bench invocations.
/// The first invocation finds the directory empty and populates it; every
/// later invocation must warm-start from it — reporting warm hits > 0 and
/// strictly fewer stage runs/emissions than the cold sweep, with
/// byte-identical results. `PRISM_REQUIRE_WARM=1` (set on CI's second
/// invocation) turns "the directory was already populated" into a hard
/// requirement, so a silently-cold second run fails the build.
fn warm_start_report(corpus: &Corpus, cold: &StudyResults) {
    let Some(dir) = std::env::var_os("PRISM_WARM_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    // Specifically shard files — leftover `.shard-NN.tmp` from a crashed
    // writer or stray junk must not masquerade as a populated snapshot.
    let pre_populated = std::fs::read_dir(&dir)
        .map(|entries| {
            entries.flatten().any(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with("shard-") && name.ends_with(".json")
            })
        })
        .unwrap_or(false);
    let warm = run_study(
        corpus,
        &StudyConfig {
            warm_start_dir: Some(dir.clone()),
            ..StudyConfig::quick()
        },
    );
    let stats = &warm.cache.stats;
    println!(
        "  warm start ({}): {} entries from {} shards ({} skipped), {} warm stage hits, {} warm emission hits, {} stage runs",
        if pre_populated { "pre-populated" } else { "cold, populating" },
        stats.warm_entries_loaded,
        stats.warm_shards_loaded,
        stats.warm_shards_skipped,
        stats.warm_stage_hits,
        stats.warm_emission_hits,
        stats.stage_runs,
    );
    assert!(
        warm.warnings.is_empty(),
        "snapshot save failed: {:?}",
        warm.warnings
    );
    assert_eq!(
        warm.measurements, cold.measurements,
        "warm start must not change a single measurement"
    );
    if std::env::var_os("PRISM_REQUIRE_WARM").is_some() {
        assert!(
            pre_populated,
            "PRISM_REQUIRE_WARM set but {} held no snapshot",
            dir.display()
        );
    }
    if pre_populated {
        assert!(
            stats.warm_stage_hits > 0 && stats.warm_emission_hits > 0,
            "second run must report warm hits: {stats:?}"
        );
        assert!(
            stats.stage_runs < cold.cache.stats.stage_runs,
            "warm sweep must re-run strictly fewer stages ({} vs {})",
            stats.stage_runs,
            cold.cache.stats.stage_runs
        );
        assert!(
            stats.emissions < cold.cache.stats.emissions,
            "warm sweep must emit strictly less ({} vs {})",
            stats.emissions,
            cold.cache.stats.emissions
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(if smoke() { 2 } else { 10 });
    targets = corpus_sweep_benchmarks
}
criterion_main!(benches);
