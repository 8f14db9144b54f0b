//! The benchmark's own checks: the traced study replica describes the same
//! program as `run_study`, the compact stream generator draws the library's
//! streams, and the serve output check catches a wrong response.

use perfbench::serve::{check_samples, serve_pass};
use perfbench::stream::{self, Stream, ANALYZE_SHARE, CHECK_SAMPLE};
use perfbench::study;
use prism_corpus::Corpus;
use prism_search::run_study;
use prism_serve::{request_stream, CompileService, RequestTarget, ServeConfig, StreamSpec};
use std::sync::Arc;

/// A slice of the corpus: a few families, including the flagship blur.
fn slice() -> Corpus {
    let keep = [
        "flagship_blur9",
        "ui_blit_00",
        "ui_blit_02",
        "color_grade_01",
    ];
    Corpus {
        cases: Corpus::gfxbench_like()
            .cases
            .into_iter()
            .filter(|c| keep.contains(&c.name.as_str()))
            .collect(),
    }
}

#[test]
fn traced_replica_is_byte_identical_to_run_study() {
    let corpus = slice();
    for seed in [1, 2] {
        let config = study::config(seed, 2);
        let reference = run_study(&corpus, &config);
        let replica = study::traced_replica(&corpus, &config);
        assert_eq!(
            study::comparable_json(&replica.results),
            study::comparable_json(&reference),
            "seed {seed}"
        );
        let expected = study::expected_rows(&corpus, &config);
        assert_eq!(
            study::failed_rows(&reference, &replica.results, expected),
            0
        );
        // Layer self times plus the loop's own time are the traced
        // wall-clock, exactly.
        let sum: u64 = replica.layer_self_ns().iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, replica.wall_ns());
        assert!(replica.submits > replica.distinct_inputs);
        assert!(replica.cache.stage_runs > 0);
    }
}

#[test]
fn the_row_check_counts_differences_and_gaps() {
    let corpus = slice();
    let config = study::config(3, 2);
    let reference = study::comparable(&run_study(&corpus, &config));
    let expected = study::expected_rows(&corpus, &config);
    assert_eq!(study::failed_rows(&reference, &reference, expected), 0);
    let mut changed = reference.clone();
    changed.measurements[1].original_ns += 1.0;
    changed.measurements.pop();
    assert_eq!(study::failed_rows(&reference, &changed, expected), 2);
}

/// The compact draw is `request_stream`, request for request.
fn assert_same_stream(corpus: &Corpus, spec: &StreamSpec) {
    let library = request_stream(corpus, spec);
    let compact = stream::draw(corpus, spec);
    assert_eq!(library.len(), compact.len());
    for (lib, item) in library.iter().zip(&compact) {
        let ours = item.request(corpus);
        assert_eq!(lib.source, ours.source);
        assert_eq!(lib.flags, ours.flags);
        assert_eq!(lib.target, ours.target);
        assert_eq!(lib.target, RequestTarget::Kind(item.backend));
    }
}

#[test]
fn compact_streams_draw_the_library_streams() {
    let corpus = Corpus::gfxbench_like();
    let mut cold = stream::cold_spec(9);
    cold.requests = 3_000;
    assert_same_stream(&corpus, &cold);
    let mut hot = stream::hot_spec(9);
    hot.requests = 3_000;
    assert_same_stream(&corpus, &hot);
}

#[test]
fn streams_are_seeded_with_an_analysis_share_and_a_check_sample() {
    let corpus = slice();
    let mut spec = stream::hot_spec(4);
    spec.requests = 4_000;
    let a = Stream::new(&corpus, &spec, 4);
    let b = Stream::new(&corpus, &spec, 4);
    assert_eq!(a.items, b.items);
    assert_eq!(a.checked, b.checked);
    let c = Stream::new(&corpus, &stream::hot_spec(5), 5);
    assert_ne!(a.items[..100], c.items[..100]);
    let analyses = a.items.iter().filter(|i| i.analyze.is_some()).count();
    let share = analyses as f64 / a.items.len() as f64;
    let target = 1.0 / ANALYZE_SHARE as f64;
    assert!((share - target).abs() < 0.03, "analysis share {share}");
    assert_eq!(a.checked.iter().filter(|c| **c).count(), CHECK_SAMPLE);
}

#[test]
fn served_samples_match_private_sessions_and_a_wrong_one_is_caught() {
    let corpus = slice();
    let mut spec = stream::cold_spec(6);
    spec.requests = 600;
    let stream = Stream::new(&corpus, &spec, 6);
    let service = CompileService::new(ServeConfig::default());
    let pass = serve_pass(&service, &stream, 2, true);
    assert_eq!(pass.errors, 0);
    assert_eq!(pass.bad_analysis, 0);
    assert_eq!(pass.latencies.len(), 600);
    assert_eq!(pass.spans.len(), 2, "one recorder per client");
    let (checked, failed) = check_samples(&corpus, &stream, &pass.sampled);
    assert_eq!(checked, CHECK_SAMPLE);
    assert_eq!(failed, 0);

    let mut tampered = pass.sampled.clone();
    tampered[0].1 = Arc::from(format!("{}\n", tampered[0].1));
    assert_eq!(check_samples(&corpus, &stream, &tampered).1, 1);
}
