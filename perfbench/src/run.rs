//! The three workloads, untraced (end-to-end metrics) and traced (per-layer
//! metrics).

use crate::serve::{boot_hot, check_samples, serve_pass, Pass};
use crate::stats::{p50_p99_us, peak_rss_mb, Metric, Outcome};
use crate::stream::{cold_spec, hot_spec, Stream};
use crate::study;
use crate::trace::{durations, write_jsonl, Span};
use prism_corpus::Corpus;
use prism_report::median;
use prism_search::run_study;
use prism_serve::{CompileService, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["study", "serve_cold", "serve_hot"];

/// A run sets up at least this many times and reports the median...
const MIN_SETUPS: usize = 3;
/// ...and keeps setting up until this many seconds went into it, so a
/// set-up of a few milliseconds still gets a steady median.
const SETUP_SECONDS: f64 = 1.0;
/// The fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Traced and untraced passes each in the traced cold phase.
const TRACED_COLD_ROUNDS: usize = 3;
/// Passes per configuration in the traced hot phase.
const TRACED_HOT_PASSES: usize = 10;

/// Where the hot set-up writes its snapshots (removed afterwards).
const SCRATCH_DIR: &str = ".perfbench_tmp";
/// Where traced runs write their spans.
const SPANS_DIR: &str = ".perfbench_out";

/// Worker threads for the study and client threads for the hot stream.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `workload` untraced for about `seconds`: every end-to-end metric.
///
/// # Panics
///
/// On an unknown workload name.
pub fn untraced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    match workload {
        "study" => study_untraced(seed, seconds),
        "serve_cold" => cold_untraced(seed, seconds),
        "serve_hot" => hot_untraced(seed, seconds),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Times `f` at least [`MIN_SETUPS`] times and for at least
/// [`SETUP_SECONDS`]; returns the last result and the median time.
fn set_up<T>(mut f: impl FnMut() -> T) -> (T, Metric) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS || times.iter().sum::<f64>() < SETUP_SECONDS {
        // Tear the previous set-up down outside the timer.
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    let metric = Metric::new("setup_s", "s", median(&times)).samples(times.len());
    (last.expect("set up at least once"), metric)
}

/// Runs `pass` until `seconds` have passed and at least [`MIN_PASSES`] ran.
fn window<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass());
    }
    passes
}

fn study_untraced(seed: u64, seconds: f64) -> Outcome {
    let ((corpus, config), setup) =
        set_up(|| (Corpus::gfxbench_like(), study::config(seed, nproc())));
    let expected = study::expected_rows(&corpus, &config);
    let mut reference = None;
    let mut outcome = Outcome::default();
    let walls: Vec<f64> = window(seconds, || {
        let start = Instant::now();
        let results = run_study(&corpus, &config);
        let wall = start.elapsed().as_secs_f64();
        let reference = reference.get_or_insert_with(|| study::comparable(&results));
        outcome.attempted += expected;
        outcome.failed += study::failed_rows(reference, &results, expected);
        wall
    });
    let rows = (corpus.len() * 256 * config.vendors.len()) as f64;
    let rates: Vec<f64> = walls.iter().map(|w| rows / w).collect();
    let n = walls.len();
    // A pass is the study's unit of latency, and a run holds too few passes
    // for any percentile above the median to have samples beyond it: the
    // median pass stands in for both percentiles.
    let median_us = median(&walls) * 1e6;
    outcome.correct = outcome.failed == 0;
    outcome.metrics = vec![
        Metric::new("wall_s", "s", median(&walls))
            .samples(n)
            .note("study_s: one run_study over the full corpus"),
        Metric::new("rps", "1/s", median(&rates))
            .samples(n)
            .note("shader x flag set x platform rows per second"),
        Metric::new("p50_us", "us", median_us)
            .samples(n)
            .note("median study pass"),
        Metric::new("p99_us", "us", median_us)
            .samples(n)
            .note("median study pass: too few passes for a tail"),
        setup,
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    outcome
}

/// What a timed window keeps of one serve pass: its figures and what the
/// checks need, not its per-request latencies, so the process's memory does
/// not grow with the number of passes a run fits in.
struct Figures {
    wall: f64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    requests: usize,
    failed: usize,
    worked: usize,
    sampled: Vec<(usize, Arc<str>)>,
}

impl Figures {
    fn of(mut pass: Pass) -> Figures {
        let (p50_us, p99_us) = p50_p99_us(&mut pass.latencies);
        Figures {
            wall: pass.wall.as_secs_f64(),
            rps: pass.rps(),
            p50_us,
            p99_us,
            requests: pass.latencies.len(),
            failed: pass.errors + pass.bad_analysis,
            worked: pass.worked,
            sampled: pass.sampled,
        }
    }
}

/// The serve end-to-end metrics over `passes`, plus output checks.
fn serve_outcome(
    corpus: &Corpus,
    stream: &Stream,
    passes: &[Figures],
    setup: Metric,
    names: [&'static str; 4],
) -> Outcome {
    let mut outcome = Outcome::default();
    let figure = |f: fn(&Figures) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut sampled = Vec::new();
    for pass in passes {
        outcome.attempted += pass.requests;
        outcome.failed += pass.failed;
        sampled.extend(pass.sampled.iter().cloned());
    }
    let (_, mismatched) = check_samples(corpus, stream, &sampled);
    outcome.failed += mismatched;
    outcome.correct = outcome.failed == 0;
    let n = passes.len();
    let requests = outcome.attempted;
    outcome.metrics = vec![
        Metric::new("wall_s", "s", figure(|p| p.wall))
            .samples(n)
            .note("one pass over the stream"),
        Metric::new("rps", "1/s", figure(|p| p.rps))
            .samples(n)
            .note(names[0]),
        Metric::new("p50_us", "us", figure(|p| p.p50_us))
            .samples(requests)
            .note(names[1]),
        Metric::new("p99_us", "us", figure(|p| p.p99_us))
            .samples(requests)
            .note(names[2]),
        setup,
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()).note(names[3]),
    ];
    outcome
}

fn cold_untraced(seed: u64, seconds: f64) -> Outcome {
    let ((corpus, stream), setup) = set_up(|| {
        let corpus = Corpus::gfxbench_like();
        let stream = Stream::new(&corpus, &cold_spec(seed), seed);
        (corpus, stream)
    });
    let passes = window(seconds, || {
        let service = CompileService::new(ServeConfig::default());
        Figures::of(serve_pass(&service, &stream, 1, false))
    });
    serve_outcome(
        &corpus,
        &stream,
        &passes,
        setup,
        [
            "cold_rps",
            "cold_p50_us, median of per-pass p50",
            "cold_p99_us, median of per-pass p99",
            "fresh service per pass",
        ],
    )
}

fn hot_untraced(seed: u64, seconds: f64) -> Outcome {
    let scratch = PathBuf::from(SCRATCH_DIR);
    let ((corpus, stream, hot), setup) = set_up(|| {
        let corpus = Corpus::gfxbench_like();
        let stream = Stream::new(&corpus, &hot_spec(seed), seed);
        let hot = boot_hot(&stream, &scratch);
        (corpus, stream, hot)
    });
    let _ = std::fs::remove_dir(&scratch);
    let clients = nproc();
    let stats_before = hot.service.stats();
    let ir_before = prism_ir::counters::snapshot();
    let passes = window(seconds, || {
        Figures::of(serve_pass(&hot.service, &stream, clients, false))
    });
    let ir = prism_ir::counters::snapshot().since(&ir_before);
    let stats = hot.service.stats();
    let mut outcome = serve_outcome(
        &corpus,
        &stream,
        &passes,
        setup,
        [
            "hot_rps",
            "hot_p50_us, median of per-pass p50",
            "hot_p99_us, median of per-pass p99",
            "warm-booted service",
        ],
    );
    outcome.failed += hot.errors;
    // The window must be pure hit path: no stage run, emission, fresh
    // analysis or IR clone.
    let hit_path = stats.cache.stage_runs == stats_before.cache.stage_runs
        && stats.cache.emissions == stats_before.cache.emissions
        && stats.cache.static_analyses == stats_before.cache.static_analyses
        && ir.ir_clones == 0
        && passes.iter().all(|p| p.worked == 0);
    if !hit_path {
        eprintln!(
            "serve_hot: the timed window left the hit path (stage runs {}, emissions {}, IR clones {})",
            stats.cache.stage_runs - stats_before.cache.stage_runs,
            stats.cache.emissions - stats_before.cache.emissions,
            ir.ir_clones
        );
    }
    outcome.correct = outcome.failed == 0 && hit_path;
    outcome
}

/// Runs the traced phases of all three workloads and reports every
/// per-layer metric; `trace.overhead_ratio` is `workload`'s. Spans are
/// written under `.perfbench_out/` once every phase has finished.
///
/// # Panics
///
/// On an unknown workload name.
pub fn traced(workload: &str, seed: u64) -> Outcome {
    assert!(
        WORKLOADS.contains(&workload),
        "unknown workload `{workload}`"
    );
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (study_overhead, study_spans) = traced_study(seed, &mut outcome);
    let (cold_overhead, cold_spans) = traced_cold(seed, &mut outcome);
    let (hot_overhead, hot_spans) = traced_hot(seed, &mut outcome);
    let overhead = match workload {
        "study" => study_overhead,
        "serve_cold" => cold_overhead,
        _ => hot_overhead,
    };
    outcome.metrics.push(
        Metric::new("trace.overhead_ratio", "ratio", overhead)
            .note("traced over untraced wall-clock, same thread count, this workload"),
    );
    outcome.correct &= outcome.failed == 0;
    let written = write_spans(&[
        ("study", study_spans),
        ("serve_cold", cold_spans),
        ("serve_hot", hot_spans),
    ]);
    if let Err(e) = written {
        eprintln!("spans not written: {e}");
    }
    outcome
}

fn write_spans(phases: &[(&str, Vec<Vec<Span>>)]) -> std::io::Result<()> {
    let dir = Path::new(SPANS_DIR);
    std::fs::create_dir_all(dir)?;
    for (phase, threads) in phases {
        let file = std::fs::File::create(dir.join(format!("spans-{phase}.jsonl")))?;
        let mut out = std::io::BufWriter::new(file);
        for (thread, spans) in threads.iter().enumerate() {
            write_jsonl(&mut out, thread, spans)?;
        }
        std::io::Write::flush(&mut out)?;
    }
    Ok(())
}

fn count(name: &str, value: usize) -> Metric {
    Metric::new(name, "count", value as f64)
}

fn seconds(name: &str, ns: u64) -> Metric {
    Metric::new(name, "s", ns as f64 / 1e9)
}

fn p50_p99_of(spans: &[Vec<Span>], name: &str) -> (f64, f64, usize) {
    let mut ns: Vec<usize> = spans
        .iter()
        .flat_map(|s| durations(s, name))
        .map(|d| d as usize)
        .collect();
    if ns.is_empty() {
        return (f64::NAN, f64::NAN, 0);
    }
    let (p50, p99) = p50_p99_us(&mut ns);
    (p50, p99, ns.len())
}

/// The study's traced phase: the traced replica between two untraced
/// single-thread `run_study`s (their mean is the untraced wall-clock), and
/// the replica checked byte-identical to them.
fn traced_study(seed: u64, outcome: &mut Outcome) -> (f64, Vec<Vec<Span>>) {
    let corpus = Corpus::gfxbench_like();
    let config = study::config(seed, 1);
    let timed = || {
        let start = Instant::now();
        let results = run_study(&corpus, &config);
        (results, start.elapsed())
    };
    let (reference, before) = timed();
    let replica = study::traced_replica(&corpus, &config);
    let (_, after) = timed();
    let untraced = (before + after) / 2;

    let expected = study::expected_rows(&corpus, &config);
    outcome.attempted += expected;
    outcome.failed +=
        study::failed_rows(&study::comparable(&reference), &replica.results, expected);
    if study::comparable_json(&replica.results) != study::comparable_json(&reference) {
        eprintln!("study: the traced replica's results differ from run_study's");
        outcome.correct = false;
    }
    let layers = replica.layer_self_ns();
    let layer_sum: u64 = layers.iter().map(|(_, ns)| ns).sum();
    if layer_sum != replica.wall_ns() {
        eprintln!(
            "study: layer self times sum to {layer_sum} ns, traced wall-clock is {} ns",
            replica.wall_ns()
        );
        outcome.correct = false;
    }
    for (layer, ns) in layers {
        let name = match layer {
            "search" => "search.self_s".to_string(),
            layer => format!("{layer}_s"),
        };
        outcome.metrics.push(seconds(&name, ns));
    }
    let reuse = 1.0 - replica.distinct_inputs as f64 / replica.submits.max(1) as f64;
    let cache = &replica.cache;
    let unique: usize = replica
        .results
        .shaders
        .iter()
        .map(|s| s.unique_variants)
        .sum();
    outcome.metrics.extend([
        count("gpu.submits", replica.submits),
        count("gpu.distinct_inputs", replica.distinct_inputs),
        Metric::new("gpu.input_reuse_ratio", "ratio", reuse),
        count("core.stage_runs", cache.stage_runs),
        count("core.stage_hits", cache.stage_hits),
        count("core.identity_transitions", cache.identity_transitions),
        count("emit.emissions", cache.emissions),
        count("emit.emission_hits", cache.emission_hits),
        count("core.unique_variants", unique),
        count("ir.ir_clones", replica.ir.ir_clones as usize),
        count(
            "ir.fingerprints_computed",
            replica.ir.fingerprints_computed as usize,
        ),
    ]);
    let overhead = replica.wall_ns() as f64 / untraced.as_nanos() as f64;
    (overhead, vec![replica.spans])
}

/// The cold stream's traced phase, every pass on a fresh service from one
/// client: the per-layer figures come from the first traced pass, and the
/// overhead from the medians of [`TRACED_COLD_ROUNDS`] traced and as many
/// untraced passes, interleaved.
fn traced_cold(seed: u64, outcome: &mut Outcome) -> (f64, Vec<Vec<Span>>) {
    let corpus = Corpus::gfxbench_like();
    let stream = Stream::new(&corpus, &cold_spec(seed), seed);
    let service = CompileService::new(ServeConfig::default());
    let ir_before = prism_ir::counters::snapshot();
    let pass = serve_pass(&service, &stream, 1, true);
    let ir = prism_ir::counters::snapshot().since(&ir_before);
    let stats = service.stats();
    let entries = service.cache().entry_count();
    drop(service);

    let fresh_wall = |traced: bool| {
        let service = CompileService::new(ServeConfig::default());
        serve_pass(&service, &stream, 1, traced).wall.as_secs_f64()
    };
    let mut traced = vec![pass.wall.as_secs_f64()];
    let mut untraced = vec![fresh_wall(false)];
    for _ in 1..TRACED_COLD_ROUNDS {
        traced.push(fresh_wall(true));
        untraced.push(fresh_wall(false));
    }

    let (_, mismatched) = check_samples(&corpus, &stream, &pass.sampled);
    outcome.attempted += pass.latencies.len();
    outcome.failed += pass.errors + pass.bad_analysis + mismatched;

    let spans = &pass.spans;
    let (emit_p50, _, emit_n) = p50_p99_of(spans, "serve.emit");
    let (stage_p50, stage_p99, stage_n) = p50_p99_of(spans, "serve.stage");
    let (fresh_p50, _, fresh_n) = p50_p99_of(spans, "analyze.fresh");
    let memo = p50_p99_of(spans, "serve.memo").2;
    let cache = &stats.cache;
    outcome.metrics.extend([
        count("serve_cold.core.stage_runs", cache.stage_runs),
        count("serve_cold.core.stage_hits", cache.stage_hits),
        count(
            "serve_cold.core.identity_transitions",
            cache.identity_transitions,
        ),
        count("serve_cold.emit.emissions", cache.emissions),
        count("serve_cold.emit.emission_hits", cache.emission_hits),
        count("serve_cold.core.unique_variants", pass.fingerprints.len()),
        count("serve_cold.ir.ir_clones", ir.ir_clones as usize),
        count(
            "serve_cold.ir.fingerprints_computed",
            ir.fingerprints_computed as usize,
        ),
        Metric::new("serve.emit_p50_us", "us", emit_p50).samples(emit_n),
        Metric::new("serve.stage_p50_us", "us", stage_p50).samples(stage_n),
        Metric::new("serve.stage_p99_us", "us", stage_p99).samples(stage_n),
        count("serve.front_lowers", stats.front_lowers),
        count("serve.front_hits", stats.front_hits),
        Metric::new(
            "serve.memo_served_ratio",
            "ratio",
            memo as f64 / pass.latencies.len().max(1) as f64,
        )
        .samples(pass.latencies.len()),
        Metric::new("analyze.fresh_p50_us", "us", fresh_p50).samples(fresh_n),
        count("analyze.static_analyses", cache.static_analyses),
        count("analyze.memo_hits", cache.analysis_memo_hits),
        count("core.cache_entries", entries),
    ]);
    let overhead = median(&traced) / median(&untraced);
    (overhead, pass.spans)
}

/// The hot stream's traced phase: one warm boot, then rounds of one pass
/// each untraced from `nproc` clients and traced from 1, 2 and `nproc`
/// clients, interleaved so host drift hits every configuration alike.
fn traced_hot(seed: u64, outcome: &mut Outcome) -> (f64, Vec<Vec<Span>>) {
    let corpus = Corpus::gfxbench_like();
    let stream = Stream::new(&corpus, &hot_spec(seed), seed);
    let scratch = PathBuf::from(SCRATCH_DIR);
    let hot = boot_hot(&stream, &scratch);
    let _ = std::fs::remove_dir(&scratch);
    outcome.failed += hot.errors;
    let warm = hot.service.stats().cache;

    let clients = nproc();
    let mut configs = vec![(clients, false), (1, true), (2, true), (clients, true)];
    configs.dedup();
    let mut passes: Vec<Vec<Pass>> = configs.iter().map(|_| Vec::new()).collect();
    for _ in 0..TRACED_HOT_PASSES {
        for (config, runs) in configs.iter().zip(&mut passes) {
            runs.push(serve_pass(&hot.service, &stream, config.0, config.1));
        }
    }
    let of = |config: (usize, bool)| -> &[Pass] {
        let index = configs.iter().position(|c| *c == config);
        &passes[index.expect("configuration measured")]
    };
    let median_of =
        |passes: &[Pass], f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    for pass in passes.iter().flatten() {
        let (_, mismatched) = check_samples(&corpus, &stream, &pass.sampled);
        outcome.attempted += pass.latencies.len();
        outcome.failed += pass.errors + pass.bad_analysis + mismatched + pass.worked;
    }
    let spans: Vec<Vec<Span>> = of((clients, true))
        .iter()
        .flat_map(|p| p.spans.clone())
        .collect();
    let (memo_p50, memo_p99, memo_n) = p50_p99_of(&spans, "serve.memo");
    let speedup = median_of(of((2, true)), Pass::rps) / median_of(of((1, true)), Pass::rps);
    outcome.metrics.extend([
        Metric::new("serve.memo_p50_us", "us", memo_p50).samples(memo_n),
        Metric::new("serve.memo_p99_us", "us", memo_p99).samples(memo_n),
        Metric::new("serve.two_client_speedup", "ratio", speedup).samples(TRACED_HOT_PASSES),
        seconds("core.snapshot_save_s", hot.save.as_nanos() as u64),
        seconds("core.snapshot_load_s", hot.load.as_nanos() as u64),
        count("core.warm_entries_loaded", warm.warm_entries_loaded),
        count("core.warm_shards_skipped", warm.warm_shards_skipped),
    ]);
    let wall = |p: &Pass| p.wall.as_secs_f64();
    let overhead = median_of(of((clients, true)), wall) / median_of(of((clients, false)), wall);
    (overhead, spans)
}
