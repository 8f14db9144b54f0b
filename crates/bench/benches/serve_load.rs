//! Criterion benchmark + smoke contract for the sharded compile service.
//!
//! Drives seeded Zipf-skewed request streams (corpus shaders × flag sets ×
//! 4 backends) through a [`CompileService`] and reports deterministic
//! work-counter latencies. Three contract phases run even in smoke mode
//! (`PRISM_BENCH_SMOKE=1`):
//!
//! 1. **steady state** — after warm-up, coalesced + memo-served requests
//!    are ≥ 90% of the stream and the p50 request costs zero work;
//! 2. **warm boot** — a service booted from the previous service's snapshot
//!    replays the same stream with **zero** stage runs and byte-identical
//!    responses, every request answered by the memo on the calling thread
//!    (no request led a compile, nothing coalesced);
//! 3. **hammer** — a service under concurrent identical clients
//!    coalesces (`coalesced_requests > 0`) and stays byte-identical;
//! 4. **online tune** — a flag-search tenant on the warm-booted service
//!    stays under its measurement budget, and the variant it lands on is
//!    afterwards memo-served to serving traffic at zero work (shared
//!    cache plane, both directions);
//! 5. **analysis replay** — static reports computed before the snapshot are
//!    answered by the warm-booted service from the persisted memo with zero
//!    fresh analysis walks.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prism_core::OptFlags;
use prism_corpus::Corpus;
use prism_emit::BackendKind;
use prism_gpu::Vendor;
use prism_serve::{
    request_stream, run_stream, CompileRequest, CompileService, ServeConfig, StreamSpec,
};
use std::sync::{Arc, Barrier};

/// Whether the reduced CI smoke configuration is requested.
fn smoke() -> bool {
    std::env::var_os("PRISM_BENCH_SMOKE").is_some()
}

fn serve_corpus() -> Corpus {
    if smoke() {
        Corpus::gfxbench_like().subset(&[
            "flagship_blur9",
            "ui_blit_00",
            "texture_combine_00",
            "forward_lit_00",
        ])
    } else {
        Corpus::gfxbench_like()
    }
}

fn stream_spec() -> StreamSpec {
    if smoke() {
        StreamSpec::standard(7, 400)
    } else {
        StreamSpec::standard(7, 1600)
    }
}

fn warmup_len(spec: &StreamSpec) -> usize {
    spec.requests * 3 / 8
}

fn serve_load_benchmarks(c: &mut Criterion) {
    let corpus = serve_corpus();
    let spec = stream_spec();
    let stream = request_stream(&corpus, &spec);

    // Timing target 1: the steady-state stream against a pre-warmed service
    // (the serving hot path — almost entirely memo lookups).
    let warmed = CompileService::new(ServeConfig::default());
    run_stream(&warmed, &stream, 0);
    c.bench_function("serve_steady_state_stream", |b| {
        b.iter(|| black_box(run_stream(&warmed, &stream, 0)))
    });

    // Timing target 2: one fully cold boot-and-serve cycle.
    c.bench_function("serve_cold_boot_stream", |b| {
        b.iter(|| {
            let service = CompileService::new(ServeConfig::default());
            black_box(run_stream(&service, &stream, 0))
        })
    });

    smoke_contract(&corpus, &spec, &stream);
}

/// The checked contract run (printed + hard-asserted, so CI smoke catches
/// regressions in the serving path itself, not just its latency).
fn smoke_contract(_corpus: &Corpus, spec: &StreamSpec, stream: &[CompileRequest]) {
    // Phase 1: steady state. ≥ 90% of post-warm-up requests are free.
    let dir = std::env::temp_dir().join(format!(
        "prism-serve-bench-{}-{:p}",
        std::process::id(),
        spec
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig::default().with_warm_start_dir(dir.clone());
    let warmup = warmup_len(spec);
    let cold = CompileService::new(config.clone());
    let summary = run_stream(&cold, stream, warmup);
    println!(
        "\nserve steady state ({} requests, {} measured): p50={} p99={} free={:.1}% memo={} zero_copy={}",
        summary.requests,
        summary.measured,
        summary.p50_latency,
        summary.p99_latency,
        100.0 * summary.free_fraction(),
        summary.memo_served,
        summary.zero_copy,
    );
    assert_eq!(summary.errors, 0, "{summary:?}");
    assert!(
        summary.free_fraction() >= 0.9,
        "steady-state free fraction {:.3} below the 90% acceptance: {summary:?}",
        summary.free_fraction()
    );
    assert_eq!(
        summary.p50_latency, 0,
        "the p50 request must be memo-served"
    );

    // A replayed request must answer with the memo's own allocation.
    let probe = stream[0].clone();
    let first = cold.compile(&probe).unwrap();
    let second = cold.compile(&probe).unwrap();
    assert!(
        Arc::ptr_eq(&first.text, &second.text),
        "replayed response body is not the shared memo handle"
    );

    // Zero-copy contract: replaying the whole stream against the now-fully
    // warmed service is pure memo serving, and a memo-served request must
    // not deep-clone a single IR shader.
    let ir_before = prism_ir::counters::snapshot();
    let replay = run_stream(&cold, stream, 0);
    let replay_ir = prism_ir::counters::snapshot().since(&ir_before);
    println!(
        "serve replay: memo_served={}/{} ir_clones={} fingerprints={}",
        replay.memo_served, replay.measured, replay_ir.ir_clones, replay_ir.fingerprints_computed
    );
    assert_eq!(
        replay.memo_served, replay.measured,
        "a fully warmed service must memo-serve the entire stream: {replay:?}"
    );
    assert_eq!(
        replay_ir.ir_clones, 0,
        "memo-served requests deep-cloned IR: {replay_ir:?}"
    );
    assert_eq!(
        replay.p50_latency, summary.p50_latency,
        "replay p50 request work regressed from the post-warm-up stream"
    );

    // Phase 5 setup (before the snapshot is cut): one static analysis on the
    // cold service, so the report travels to disk with the warm-start state.
    let analysis_flags = OptFlags::lunarglass_default();
    let analysis = cold
        .analyze(&stream[0].source, analysis_flags, Vendor::Arm)
        .expect("static analysis on the cold service");

    // Phase 2: warm boot. Snapshot, boot a new service from disk, replay.
    let cold_stats = cold.stats();
    assert!(cold_stats.cache.stage_runs > 0);
    cold.shutdown().unwrap().expect("snapshot written");
    let warm = CompileService::new(config);
    let boot_stats = warm.stats();
    let warm_summary = run_stream(&warm, stream, 0);
    let replay_stats = warm.stats();
    let memo_answered = replay_stats.memo_answered - boot_stats.memo_answered;
    let leaders = replay_stats.leader_requests - boot_stats.leader_requests;
    let coalesced = replay_stats.cache.coalesced_requests - boot_stats.cache.coalesced_requests;
    println!(
        "serve warm boot: stage_runs={} memo_served={}/{} memo_answered={memo_answered} leaders={leaders} coalesced={coalesced}",
        warm_summary.stage_runs, warm_summary.memo_served, warm_summary.measured
    );
    // Hits end on the calling thread: none may fall back into the flight
    // table or lead a compile.
    assert_eq!(
        memo_answered, warm_summary.measured,
        "warm-booted hits left the memo path: {replay_stats:?}"
    );
    assert_eq!(
        leaders, 0,
        "warm-booted hits led a compile: {replay_stats:?}"
    );
    assert_eq!(coalesced, 0, "warm-booted hits coalesced: {replay_stats:?}");
    assert_eq!(
        warm_summary.stage_runs, 0,
        "warm-booted service re-ran stages: {warm_summary:?}"
    );
    assert_eq!(warm_summary.errors, 0);
    assert_eq!(warm_summary.memo_served, warm_summary.measured);
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 3: hammer. A service under concurrent identical clients must
    // coalesce; the hook holds the leader until every other client has
    // joined its flight, making `coalesced_requests > 0` a hard guarantee
    // rather than a race.
    const CLIENTS: usize = 8;
    let hammer = Arc::new(CompileService::new(ServeConfig::default()));
    hammer.set_compute_hook(Some(Box::new(|probe| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while probe.waiters() < CLIENTS - 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    })));
    let request = CompileRequest::new(&stream[0].source, OptFlags::all(), BackendKind::SpirvAsm);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let texts: Vec<Arc<str>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let hammer = Arc::clone(&hammer);
                let barrier = Arc::clone(&barrier);
                let request = request.clone();
                scope.spawn(move || {
                    barrier.wait();
                    hammer.compile(&request).unwrap().text
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    hammer.set_compute_hook(None);
    for text in &texts[1..] {
        assert_eq!(text, &texts[0], "hammered responses diverged");
    }
    let hammer_stats = hammer.stats();
    println!(
        "serve hammer: coalesced_requests={} routed_requests={}",
        hammer_stats.cache.coalesced_requests, hammer_stats.cache.routed_requests
    );
    assert!(
        hammer_stats.cache.coalesced_requests > 0,
        "concurrent identical clients did not coalesce: {hammer_stats:?}"
    );

    // Phase 4: online tune. A flag-search tenant runs on the warm-booted
    // service, so its candidate compiles land in the same memo plane the
    // replayed stream populated — and the variant it converges on is
    // afterwards served back to ordinary traffic for zero work.
    let tune_budget = 12;
    let outcome = warm
        .tune(&stream[0].source, Vendor::Arm, tune_budget)
        .expect("tune pass on the warm-booted service");
    let tuned_stats = warm.stats();
    println!(
        "serve online tune: measurements={}/{} search_compiles={} best={:?}",
        outcome.measurements_taken, tune_budget, outcome.search_compiles, outcome.best_flags
    );
    assert!(
        outcome.measurements_taken <= tune_budget,
        "tune overran its measurement budget: {outcome:?}"
    );
    assert_eq!(tuned_stats.tune_requests, 1);
    assert_eq!(tuned_stats.measurements_taken, outcome.measurements_taken);
    // Shared plane, tenant → server direction: a serving request for the
    // combination the tuner just paid for must be answered from the memo
    // without any fresh work.
    let tuned_request = CompileRequest::builder(&stream[0].source)
        .flags(outcome.best_flags)
        .backend(Vendor::Arm.backend())
        .build();
    let served = warm.compile(&tuned_request).unwrap();
    assert_eq!(
        served.work.latency(),
        0,
        "the tuned variant was not memo-served to serving traffic"
    );
    // Phase 5: analysis replay. The static report the cold service computed
    // travelled with the snapshot; the warm-booted service must answer the
    // same analysis from the persisted memo without one fresh walk.
    let replayed = warm
        .analyze(&stream[0].source, analysis_flags, Vendor::Arm)
        .expect("analysis replay on the warm-booted service");
    assert_eq!(replayed, analysis, "warm-served analysis diverged");
    let analysis_stats = warm.stats();
    println!(
        "serve analysis replay: static_analyses={} warm_analysis_hits={} lints={}",
        analysis_stats.cache.static_analyses,
        analysis_stats.cache.warm_analysis_hits,
        replayed.lints.len(),
    );
    assert_eq!(
        analysis_stats.cache.static_analyses, 0,
        "warm-booted service re-walked a persisted analysis: {analysis_stats:?}"
    );
    assert!(
        analysis_stats.cache.warm_analysis_hits > 0,
        "the replayed analysis did not come from the snapshot: {analysis_stats:?}"
    );
    println!(
        "  contract: OK (>=90% free, warm boot 0 stage runs and 0 leaders, coalescing live, tuned variant memo-served, analysis replay 0 walks)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(if smoke() { 2 } else { 10 });
    targets = serve_load_benchmarks
}
criterion_main!(benches);
