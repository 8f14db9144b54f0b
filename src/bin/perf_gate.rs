//! CI perf-regression gate over deterministic compile-work counters.
//!
//! Wall-clock benchmarks are useless as CI gates (shared runners, thermal
//! noise); the quantities that actually protect the hot path are the
//! *deterministic* work counters the caching subsystems maintain: stage runs
//! avoided, cache hits, emission dedup, the incremental search's compile
//! counts, the simulated drivers' parses and pass runs, and the warm-start
//! persistence layer's disk-hit counters (the smoke sweep is run twice
//! against one snapshot directory; the second run must do strictly less
//! work with byte-identical results — hard-asserted here, not just
//! baselined). This binary runs the smoke-sized study
//! (single-threaded, fixed seeds, so every counter is exactly
//! reproducible), writes them as a `BENCH_perf_gate.json` baseline, and —
//! with `--check <baseline>` — fails (exit 1) if any counter regresses
//! beyond a threshold against the committed baseline.
//!
//! ```text
//! cargo run --release --bin perf_gate -- --out BENCH_perf_gate.json \
//!     --check ci/bench-baseline.json
//! # regenerate the committed baseline after an intentional change:
//! cargo run --release --bin perf_gate -- --out ci/bench-baseline.json
//! ```
//!
//! The relative tolerance defaults to 10% (plus an absolute grace of 2 for
//! tiny counters) and can be overridden with `PRISM_GATE_TOLERANCE=0.05`; a
//! value that is not a non-negative number fails the gate with exit code 1.

use prism::corpus::Corpus;
use prism::gpu::Vendor;
use prism::search::{run_study, standard_strategies, StudyConfig, StudyResults};
use prism::serve::{request_stream, run_stream, CompileService, ServeConfig, StreamSpec, TuneSpec};
use std::process::ExitCode;

/// One gated counter: a deterministic measurement plus the direction in
/// which it is allowed to move freely.
#[derive(Debug, Clone, PartialEq)]
struct Counter {
    name: String,
    value: f64,
    higher_is_better: bool,
}

serde::impl_serde_struct!(Counter {
    name,
    value,
    higher_is_better
});

/// Direction markers for the counter tables below.
const HIGHER: bool = true;
const LOWER: bool = false;

impl Counter {
    fn new(name: impl Into<String>, higher_is_better: bool, value: f64) -> Counter {
        Counter {
            name: name.into(),
            value,
            higher_is_better,
        }
    }
}

/// One gated counter per `(name, higher_is_better, value)` row, in row order.
fn table(rows: &[(&str, bool, f64)]) -> Vec<Counter> {
    rows.iter()
        .map(|&(name, higher, value)| Counter::new(name, higher, value))
        .collect()
}

/// The on-disk `BENCH_*.json` shape.
#[derive(Debug, Clone, PartialEq)]
struct GateReport {
    schema: usize,
    counters: Vec<Counter>,
}

serde::impl_serde_struct!(GateReport { schema, counters });

/// The smoke corpus: übershader family members (cache sharing), the blur
/// flagship (optimization headroom), and simple shaders.
fn gate_corpus() -> Corpus {
    Corpus::family_mix()
}

/// Runs the deterministic smoke study and extracts the gated counters.
fn measure() -> GateReport {
    // Single worker thread: the shared-cache counters depend on which
    // session reaches a memo first, so determinism requires a sequential
    // sweep. Timings are seeded per (shader, platform) and deterministic
    // regardless.
    let config = StudyConfig {
        threads: 1,
        search: true,
        ..StudyConfig::quick()
    };
    let corpus = gate_corpus();
    let ir_before = prism::ir::counters::snapshot();
    let study = run_study(&corpus, &config);
    let ir_work = prism::ir::counters::snapshot().since(&ir_before);
    let warm = measure_warm_start(&corpus);

    let stats = &study.cache.stats;
    let exhaustive_combinations = (study.shaders.len() * 256) as f64;
    let unique_variants: usize = study.shaders.iter().map(|s| s.unique_variants).sum();
    let driver = &study.driver;
    let mut counters = table(&[
        ("stage_runs", LOWER, stats.stage_runs as f64),
        ("stage_hits", HIGHER, stats.stage_hits as f64),
        (
            "cross_shader_stage_hits",
            HIGHER,
            stats.cross_shader_stage_hits as f64,
        ),
        ("emissions", LOWER, stats.emissions as f64),
        ("emission_hits", HIGHER, stats.emission_hits as f64),
        (
            "variant_dedup_ratio",
            HIGHER,
            exhaustive_combinations / unique_variants.max(1) as f64,
        ),
        // Zero-copy IR plane: deep-clone / hashing work attributed to the
        // sequential study sweep via the process-global IR counters.
        ("ir_clones", LOWER, ir_work.ir_clones as f64),
        (
            "fingerprints_computed",
            LOWER,
            ir_work.fingerprints_computed as f64,
        ),
        ("equality_confirms", LOWER, ir_work.equality_confirms as f64),
        (
            "identity_transitions",
            HIGHER,
            ir_work.identity_transitions as f64,
        ),
        // Simulated-driver plane: front-end parses and driver pass runs the
        // sweep's per-column driver memos could not answer.
        ("driver_front_parses", LOWER, driver.front_parses as f64),
        ("driver_stage_runs", LOWER, driver.stage_runs as f64),
        ("driver_stage_hits", HIGHER, driver.stage_hits as f64),
    ]);

    // Per-backend emission counters: the per-target split of `emissions`.
    // Names come from the backend set itself, so adding a fifth backend
    // emits an un-baselined counter and fails the gate until the baseline is
    // deliberately regenerated — exactly like a new search strategy.
    for backend in prism::emit::BackendKind::ALL {
        counters.push(Counter::new(
            format!("emissions_{}", backend.name()),
            LOWER,
            stats.emissions_by_backend[backend.index()] as f64,
        ));
    }

    // Incremental search: distinct combinations compiled per strategy,
    // summed over shaders and platforms. Names come from the strategy set
    // itself, so a renamed or added strategy changes the emitted counters
    // (and the stale baseline name then fails the gate) instead of silently
    // gating nothing. (The complementary "compiles avoided" number is just
    // `256 * shaders - spent`, so gating it too would double-report every
    // regression.)
    for strategy in standard_strategies() {
        let name = strategy.name();
        let spent: f64 = study
            .search
            .iter()
            .filter(|r| r.strategy == name)
            .map(|r| r.mean_compiles * r.shaders as f64)
            .sum();
        counters.push(Counter::new(
            format!("search_compiles_{name}"),
            LOWER,
            spent,
        ));
    }
    counters.extend(warm);
    counters.extend(measure_serve(&corpus));
    counters.extend(measure_tune(&corpus, &study));
    counters.extend(measure_specialize(&corpus));

    GateReport {
        schema: 1,
        counters,
    }
}

/// The specialization phase: a flags × assumptions sweep over the smoke
/// corpus against one shared cache — every candidate zero/one assumption is
/// folded into a guarded dispatch at two flag sets and differentially
/// interp-verified in both guard directions. Gates the specialization work
/// the calls return — bases derived, guard evaluations, interpreter
/// confirmations — and *hard-asserts* the dedup contract: the fingerprint
/// transition graph must absorb at least half of the specialized stage work
/// (hits ≥ runs), because specialized bases intern into the same planes the
/// flag axis already warmed.
fn measure_specialize(corpus: &Corpus) -> Vec<Counter> {
    use prism::core::specialize::{candidate_keys, default_probe_points, verify_specialization};
    use prism::core::{CacheStore, CompileSession, CorpusCache, OptFlags};
    use std::sync::Arc;

    let cache = Arc::new(CorpusCache::new());
    let probes = default_probe_points();
    let (mut generated, mut guard_dispatches, mut confirms) = (0usize, 0usize, 0usize);
    for case in &corpus.cases {
        let session = CompileSession::with_cache(
            &case.source,
            &case.name,
            cache.clone() as Arc<dyn CacheStore>,
        )
        .expect("smoke corpus session");
        for key in candidate_keys(session.base_ir(), 4) {
            // The session derives a key's base once; every flag set below
            // starts from that memoised snapshot.
            if session.specialized_base(&key).is_ok() {
                generated += 1;
            }
            for flags in [OptFlags::NONE, OptFlags::lunarglass_default()] {
                let dispatch = match session.dispatch_for(
                    flags,
                    &key,
                    prism::emit::BackendKind::DesktopGlsl,
                ) {
                    Ok(dispatch) => dispatch,
                    Err(_) => continue,
                };
                let verification = verify_specialization(&dispatch, &probes).unwrap_or_else(|d| {
                    panic!("specialization miscompile in the gate sweep: {}", d.message)
                });
                // The verifier routes one violating context per probe point
                // through `GuardedDispatch::select`.
                guard_dispatches += probes.len();
                confirms += verification.confirms;
            }
        }
    }
    let stats = cache.stats();
    assert!(generated > 0, "the smoke corpus must admit specializations");
    assert!(
        stats.stage_hits >= stats.stage_runs,
        "fingerprint dedup must absorb at least half the specialized stage work \
         ({} hits vs {} runs)",
        stats.stage_hits,
        stats.stage_runs
    );

    table(&[
        ("specializations_generated", LOWER, generated as f64),
        ("spec_guard_dispatches", HIGHER, guard_dispatches as f64),
        ("spec_interp_confirms", HIGHER, confirms as f64),
    ])
}

/// The compile-service phase: a seeded Zipf request stream replayed from one
/// thread (deterministic) against a cold service, then replayed again by a
/// service warm-booted from the first one's snapshot. Gates the per-request p50/p99
/// work-counter latencies and the memo-served volume, and *hard-asserts*
/// the serving contracts — p50 is free after warm-up, and the warm-booted
/// replay performs zero stage runs — so those cannot regress even within
/// baseline slack.
fn measure_serve(corpus: &Corpus) -> Vec<Counter> {
    let spec = StreamSpec::standard(7, 400);
    let stream = request_stream(corpus, &spec);
    let warmup = stream.len() / 4;
    let dir = std::env::temp_dir().join(format!("prism-perf-gate-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig::default().with_warm_start_dir(dir.clone());

    let cold = CompileService::new(config.clone());
    let summary = run_stream(&cold, &stream, warmup);
    cold.shutdown().expect("serve snapshot");
    let warm_service = CompileService::new(config);
    let warm_summary = run_stream(&warm_service, &stream, 0);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(summary.errors, 0, "corpus requests must all serve");
    assert_eq!(
        summary.p50_latency, 0,
        "the median post-warm-up request must be memo-served"
    );
    assert_eq!(
        warm_summary.stage_runs, 0,
        "a warm-booted service must replay the stream without running a stage"
    );
    assert_eq!(
        warm_summary.memo_served, warm_summary.measured,
        "every warm-booted request must be memo-served"
    );

    table(&[
        ("serve_p50_request_work", LOWER, summary.p50_latency as f64),
        ("serve_p99_request_work", LOWER, summary.p99_latency as f64),
        ("serve_total_work", LOWER, summary.total_work as f64),
        ("serve_memo_served", HIGHER, summary.memo_served as f64),
        (
            "serve_warm_replay_stage_runs",
            LOWER,
            warm_summary.stage_runs as f64,
        ),
    ])
}

/// The online-tune phase: a measurement-in-the-loop flag search rides a
/// service that is already carrying serving traffic, so the search tenant's
/// compiles hit the same memo plane the servers warmed. Gates the tune cost
/// counters (`tune_measurements`, `search_compiles`) and the anytime quality
/// gauge (`tune_regret_x1000`, scored against the smoke study's exhaustive
/// record for the same shader and platform), and *hard-asserts* the tenancy
/// contract: the budget holds, and the tuner re-emits strictly less than it
/// compiles because the serving plane already paid for shared variants.
fn measure_tune(corpus: &Corpus, study: &StudyResults) -> Vec<Counter> {
    let service = CompileService::new(ServeConfig::default());
    let stream = request_stream(corpus, &StreamSpec::standard(11, 160));
    let serving = run_stream(&service, &stream, 0);
    assert_eq!(serving.errors, 0, "corpus requests must all serve");

    let case = corpus
        .cases
        .iter()
        .find(|c| c.name == "flagship_blur9")
        .expect("smoke corpus carries the blur flagship");
    let oracle = study
        .measurements
        .iter()
        .find(|r| r.shader == case.name && r.vendor == Vendor::Amd.name())
        .expect("smoke study measured the flagship on AMD");
    let before = service.stats();
    let spec = TuneSpec::new(Vendor::Amd).with_family(case.family.as_str());
    let outcome = service
        .tune_spec(&case.source.text, &spec, Some(oracle))
        .expect("flagship tune pass");
    let stats = service.stats();

    assert!(
        outcome.measurements_taken <= outcome.budget,
        "tune must respect its measurement budget ({} > {})",
        outcome.measurements_taken,
        outcome.budget
    );
    assert!(
        stats.cache.emissions - before.cache.emissions < outcome.search_compiles,
        "the tuner must reuse emissions the serving plane already paid for"
    );
    assert_eq!(stats.tune_requests, 1);

    // Second pass with the static prefilter on: the analysis plane (fresh
    // walks, memo hits, lints) and the pruning ledger become gated work
    // counters of their own. Hard-assert the prefilter contract first — it
    // must actually skip measurements, and every analysis it consumed must
    // have gone through the per-(fingerprint, personality) memo.
    let filtered_spec = TuneSpec::new(Vendor::Amd)
        .with_family(case.family.as_str())
        .with_static_prefilter(true);
    let filtered = service
        .tune_spec(&case.source.text, &filtered_spec, Some(oracle))
        .expect("prefiltered flagship tune pass");
    let stats = service.stats();
    assert!(
        filtered.candidates_pruned > 0,
        "the static prefilter must prune at least one candidate"
    );
    assert_eq!(
        filtered.search_compiles,
        filtered.measurements_taken + filtered.candidates_pruned,
        "every evaluated candidate is either measured or pruned"
    );
    assert!(
        stats.cache.static_analyses > 0,
        "the prefilter must have walked fresh analyses"
    );

    table(&[
        ("tune_measurements", LOWER, stats.measurements_taken as f64),
        ("search_compiles", LOWER, stats.search_compiles as f64),
        ("tune_regret_x1000", LOWER, stats.tune_regret_x1000 as f64),
        ("static_analyses", LOWER, stats.cache.static_analyses as f64),
        (
            "analysis_memo_hits",
            HIGHER,
            stats.cache.analysis_memo_hits as f64,
        ),
        ("lints_emitted", LOWER, stats.lints_emitted as f64),
        (
            "search_candidates_pruned",
            HIGHER,
            stats.search_candidates_pruned as f64,
        ),
    ])
}

/// The warm-start phase: the same smoke sweep run twice against one
/// persistent snapshot directory — the first run populates it, the second
/// must warm-start from it. Besides emitting the gated counters, this
/// *hard-asserts* the persistence contract (strictly fewer stage runs and
/// emissions, byte-identical measurements, no skipped shards), so a
/// regression fails the gate even before any baseline comparison.
fn measure_warm_start(corpus: &Corpus) -> Vec<Counter> {
    let dir = std::env::temp_dir().join(format!("prism-perf-gate-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StudyConfig {
        threads: 1,
        warm_start_dir: Some(dir.clone()),
        ..StudyConfig::quick()
    };
    let cold = run_study(corpus, &config);
    let warm = run_study(corpus, &config);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        cold.warnings.is_empty() && warm.warnings.is_empty(),
        "warm-start snapshot round trip must be clean: {:?} / {:?}",
        cold.warnings,
        warm.warnings
    );
    assert_eq!(
        warm.cache.stats.warm_shards_skipped, 0,
        "a snapshot this process just wrote must load in full"
    );
    assert!(
        warm.cache.stats.stage_runs < cold.cache.stats.stage_runs,
        "warm run must re-run strictly fewer stages ({} vs {})",
        warm.cache.stats.stage_runs,
        cold.cache.stats.stage_runs
    );
    assert!(
        warm.cache.stats.emissions < cold.cache.stats.emissions,
        "warm run must emit strictly less ({} vs {})",
        warm.cache.stats.emissions,
        cold.cache.stats.emissions
    );
    assert_eq!(
        warm.measurements, cold.measurements,
        "warm start must not change a single measurement"
    );

    let stats = &warm.cache.stats;
    table(&[
        ("warm_stage_runs", LOWER, stats.stage_runs as f64),
        ("warm_stage_hits", HIGHER, stats.warm_stage_hits as f64),
        ("warm_emissions", LOWER, stats.emissions as f64),
        (
            "warm_emission_hits",
            HIGHER,
            stats.warm_emission_hits as f64,
        ),
        (
            "warm_entries_loaded",
            HIGHER,
            stats.warm_entries_loaded as f64,
        ),
    ])
}

/// Compares `current` against `baseline`; returns the regression messages.
/// Name mismatches fail in both directions: a counter that disappeared AND a
/// counter the baseline has never seen (e.g. a newly added strategy) both
/// demand a deliberate baseline regeneration, otherwise the new counter
/// would sit un-gated.
fn regressions(current: &GateReport, baseline: &GateReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for now in &current.counters {
        if !baseline.counters.iter().any(|b| b.name == now.name) {
            failures.push(format!(
                "counter `{}` is not in the baseline — regenerate it to start gating the counter",
                now.name
            ));
        }
    }
    for base in &baseline.counters {
        let Some(now) = current.counters.iter().find(|c| c.name == base.name) else {
            failures.push(format!(
                "counter `{}` present in the baseline but no longer measured",
                base.name
            ));
            continue;
        };
        // Relative tolerance with a small absolute grace so near-zero
        // counters do not gate on ±1 jitter-free-but-intentional changes.
        let slack = (base.value.abs() * tolerance).max(2.0);
        let (regressed, direction) = if base.higher_is_better {
            (now.value < base.value - slack, "fell")
        } else {
            (now.value > base.value + slack, "rose")
        };
        if regressed {
            failures.push(format!(
                "counter `{}` {} from {} to {} (allowed slack {:.1})",
                base.name, direction, base.value, now.value, slack
            ));
        }
    }
    failures
}

/// The relative tolerance: `raw` (the `PRISM_GATE_TOLERANCE` value) when
/// set, else 10%. A value that is not a finite, non-negative number — `5%`,
/// `-0.1`, `NaN` — is an error: gating at a tolerance nobody asked for would
/// pass or fail the build for the wrong reason.
fn parse_tolerance(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(0.10);
    };
    match raw.trim().parse::<f64>() {
        Ok(tolerance) if tolerance.is_finite() && tolerance >= 0.0 => Ok(tolerance),
        _ => Err(format!(
            "PRISM_GATE_TOLERANCE must be a non-negative fraction such as 0.05, got `{raw}`"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_perf_gate.json");
    let mut check_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out_path = iter.next().expect("--out needs a path").clone(),
            "--check" => check_path = Some(iter.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument `{other}` (expected --out/--check)");
                return ExitCode::FAILURE;
            }
        }
    }
    let raw_tolerance =
        std::env::var_os("PRISM_GATE_TOLERANCE").map(|t| t.to_string_lossy().into_owned());
    let tolerance = match parse_tolerance(raw_tolerance.as_deref()) {
        Ok(tolerance) => tolerance,
        Err(e) => {
            eprintln!("perf gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = measure();
    let json = serde_json::to_string(&report).expect("gate report serialises");
    std::fs::write(&out_path, &json).expect("write gate report");
    println!(
        "perf gate: wrote {} counters to {out_path}",
        report.counters.len()
    );
    for c in &report.counters {
        println!(
            "  {:<36} {:>10.1}  ({})",
            c.name,
            c.value,
            if c.higher_is_better {
                "higher is better"
            } else {
                "lower is better"
            }
        );
    }

    let Some(check_path) = check_path else {
        return ExitCode::SUCCESS;
    };
    let baseline_text = match std::fs::read_to_string(&check_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perf gate: cannot read baseline {check_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline: GateReport = match serde_json::from_str(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf gate: malformed baseline {check_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = regressions(&report, &baseline, tolerance);
    if failures.is_empty() {
        println!(
            "perf gate: OK — no counter regressed beyond {:.0}% vs {check_path}",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate: FAILED vs {check_path}");
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "(intentional change? regenerate with: cargo run --release --bin perf_gate -- --out {check_path})"
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &str, value: f64, higher: bool) -> Counter {
        Counter::new(name, higher, value)
    }

    fn report(counters: Vec<Counter>) -> GateReport {
        GateReport {
            schema: 1,
            counters,
        }
    }

    #[test]
    fn regression_detection_respects_direction_and_tolerance() {
        let baseline = report(vec![
            counter("hits", 100.0, true),
            counter("runs", 100.0, false),
        ]);
        // Within tolerance: fine in both directions.
        let ok = report(vec![
            counter("hits", 95.0, true),
            counter("runs", 105.0, false),
        ]);
        assert!(regressions(&ok, &baseline, 0.10).is_empty());
        // Beyond tolerance in the bad direction: flagged.
        let bad = report(vec![
            counter("hits", 80.0, true),
            counter("runs", 100.0, false),
        ]);
        let failures = regressions(&bad, &baseline, 0.10);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("hits"));
        // Beyond tolerance in the good direction: never flagged.
        let better = report(vec![
            counter("hits", 200.0, true),
            counter("runs", 10.0, false),
        ]);
        assert!(regressions(&better, &baseline, 0.10).is_empty());
    }

    #[test]
    fn name_mismatches_fail_the_gate_in_both_directions() {
        let baseline = report(vec![counter("hits", 100.0, true)]);
        let current = report(vec![counter("other", 1.0, true)]);
        let failures = regressions(&current, &baseline, 0.10);
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().any(|f| f.contains("not in the baseline")));
        assert!(failures.iter().any(|f| f.contains("no longer measured")));
    }

    #[test]
    fn small_counters_get_absolute_grace() {
        let baseline = report(vec![counter("tiny", 3.0, true)]);
        let current = report(vec![counter("tiny", 1.0, true)]);
        assert!(regressions(&current, &baseline, 0.10).is_empty());
        let gone = report(vec![counter("tiny", 0.0, true)]);
        assert_eq!(regressions(&gone, &baseline, 0.10).len(), 1);
    }

    #[test]
    fn tolerances_that_are_not_non_negative_numbers_are_rejected() {
        assert_eq!(parse_tolerance(None), Ok(0.10));
        assert_eq!(parse_tolerance(Some("0.05")), Ok(0.05));
        assert_eq!(parse_tolerance(Some("0")), Ok(0.0));
        for bad in ["5%", "", "-0.1", "NaN", "inf", "ten"] {
            let err = parse_tolerance(Some(bad)).unwrap_err();
            assert!(err.contains("PRISM_GATE_TOLERANCE"), "{bad}: {err}");
        }
    }

    #[test]
    fn gate_report_round_trips_json() {
        let r = report(vec![counter("hits", 12.5, true)]);
        let json = serde_json::to_string(&r).unwrap();
        let back: GateReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn measured_counters_are_deterministic_across_runs() {
        let a = measure();
        let b = measure();
        assert_eq!(a, b, "gate counters must be exactly reproducible");
        // The warm-start phase feeds the gate too.
        for name in [
            "ir_clones",
            "fingerprints_computed",
            "equality_confirms",
            "identity_transitions",
            "driver_front_parses",
            "driver_stage_runs",
            "driver_stage_hits",
            "warm_stage_runs",
            "warm_stage_hits",
            "warm_emissions",
            "warm_emission_hits",
            "warm_entries_loaded",
            "serve_p50_request_work",
            "serve_p99_request_work",
            "serve_total_work",
            "serve_memo_served",
            "serve_warm_replay_stage_runs",
            "tune_measurements",
            "search_compiles",
            "tune_regret_x1000",
            "static_analyses",
            "analysis_memo_hits",
            "lints_emitted",
            "search_candidates_pruned",
            "specializations_generated",
            "spec_guard_dispatches",
            "spec_interp_confirms",
        ] {
            assert!(
                a.counters.iter().any(|c| c.name == name),
                "counter `{name}` missing from the gate report"
            );
        }
        // Each backend's emission count is gated individually, and the
        // split is consistent with the total.
        let mut split = 0.0;
        for backend in prism::emit::BackendKind::ALL {
            let name = format!("emissions_{}", backend.name());
            let counter = a
                .counters
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("counter `{name}` missing from the gate report"));
            assert!(
                counter.value > 0.0,
                "{name}: 7-platform sweep emits all forms"
            );
            split += counter.value;
        }
        let total = a.counters.iter().find(|c| c.name == "emissions").unwrap();
        assert_eq!(split, total.value);
    }
}
