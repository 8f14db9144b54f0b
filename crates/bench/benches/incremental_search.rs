//! Criterion benchmark of the incremental flag-search path: pay-as-you-go
//! compilation of strategy-chosen flag subsets against live sessions, versus
//! exhaustively materialising all 256 variants per shader.
//!
//! Besides timing, the bench asserts the subsystem's contract — every
//! strategy compiles strictly fewer combinations than the exhaustive sweep,
//! never exceeds its budget, and the greedy/ablation strategies match or
//! beat the LunarGlass default policy on every platform — so CI can run it
//! as a smoke test (`PRISM_BENCH_SMOKE=1`) and the search path cannot
//! silently regress.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prism_core::CompileSession;
use prism_corpus::Corpus;
use prism_search::{incremental_search_records, run_study, StudyConfig, StudyResults};

/// Whether the reduced CI smoke configuration is requested.
fn smoke() -> bool {
    std::env::var_os("PRISM_BENCH_SMOKE").is_some()
}

/// The blur flagship (real optimization headroom) plus family members and a
/// simple shader, trimmed further in smoke mode.
fn search_corpus() -> Corpus {
    if smoke() {
        Corpus::gfxbench_like().subset(&["flagship_blur9", "texture_combine_00", "ui_blit_00"])
    } else {
        Corpus::family_mix()
    }
}

fn incremental_search_benchmarks(c: &mut Criterion) {
    let corpus = search_corpus();
    let config = StudyConfig::quick();
    // The exhaustive study measured once up front: it is both the timing
    // oracle the strategies score against and the baseline being compared.
    let study = run_study(&corpus, &config);

    c.bench_function("incremental_search_all_strategies", |b| {
        b.iter(|| black_box(incremental_search_records(&corpus, &study, &config)))
    });
    c.bench_function("exhaustive_256_variant_generation", |b| {
        b.iter(|| {
            for case in &corpus.cases {
                let session = CompileSession::new(&case.source, &case.name).unwrap();
                black_box(session.variants().unwrap());
            }
        })
    });

    smoke_contract(&corpus, &study, &config);
}

/// The checked contract run: budgets are hard, compile counts stay strictly
/// under the exhaustive 256 (indeed under a quarter of it), and greedy and
/// ablation strategies clear the default-policy bar on every platform.
fn smoke_contract(corpus: &Corpus, study: &StudyResults, config: &StudyConfig) {
    let records = incremental_search_records(corpus, study, config);
    assert!(!records.is_empty(), "search must produce records");

    println!("\nincremental search ({} shaders):", corpus.len());
    for row in &records {
        println!(
            "  {:<10} {:<16} {:+6.2}% (oracle {:+6.2}%, default {:+6.2}%) at {:5.1}/256 compiles",
            row.vendor,
            row.strategy,
            row.mean_speedup,
            row.oracle_mean_speedup,
            row.default_mean_speedup,
            row.mean_compiles,
        );
        assert!(
            row.max_compiles <= row.budget,
            "{}/{} exceeded its compile budget: {row:?}",
            row.vendor,
            row.strategy
        );
        assert!(
            (row.mean_compiles as usize) < 256 && row.max_compiles < 256,
            "{}/{} must compile strictly fewer combinations than exhaustive: {row:?}",
            row.vendor,
            row.strategy
        );
        assert!(
            row.mean_compiles < 64.0,
            "{}/{} should stay under a quarter of the exhaustive cost: {row:?}",
            row.vendor,
            row.strategy
        );
        if row.strategy != "hill_climb" {
            assert!(
                row.mean_speedup >= row.default_mean_speedup - 1e-9,
                "{}/{} lost to the LunarGlass default policy: {row:?}",
                row.vendor,
                row.strategy
            );
        }
    }
    println!("  contract: OK (budgets hard, < 25% of exhaustive, >= default policy)");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(if smoke() { 2 } else { 10 });
    targets = incremental_search_benchmarks
}
criterion_main!(benches);
