//! Deterministic load-test harness for the compile service.
//!
//! Builds a seeded, Zipf-skewed synthetic request stream over a population
//! of (corpus shader × flag set × backend) combinations — the request mix a
//! shader-compile service actually sees: a handful of hot übershader
//! variants dominating a long tail — and replays it against a
//! [`CompileService`], summarising *work-counter* latencies (stage runs +
//! emissions per request). Work counters are deterministic where wall-clock
//! is not, which is what lets the perf gate pin p50/p99 to a baseline.

use crate::service::{CompileRequest, CompileService};
use prism_core::{OptFlags, SessionStats};
use prism_corpus::Corpus;
use prism_emit::BackendKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic request stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// RNG seed; the stream is a pure function of (corpus, spec).
    pub seed: u64,
    /// Total requests to generate.
    pub requests: usize,
    /// Zipf exponent: higher = more head-heavy.
    pub skew: f64,
    /// Flag combinations in the population (crossed with every shader and
    /// every backend).
    pub flag_sets: Vec<OptFlags>,
}

impl StreamSpec {
    /// The default serving mix: four flag combinations, Zipf 1.8 — the
    /// head-heavy distribution of a real shader-cache daemon, where a
    /// handful of hot übershader variants dominate a long tail.
    pub fn standard(seed: u64, requests: usize) -> StreamSpec {
        StreamSpec {
            seed,
            requests,
            skew: 1.8,
            flag_sets: vec![
                OptFlags::NONE,
                OptFlags::all(),
                OptFlags::from_bits(0x0F),
                OptFlags::from_bits(0xF0),
            ],
        }
    }
}

/// Builds the Zipf-skewed request stream: the population is every
/// (shader, flag set, backend) triple in deterministic corpus order, ranked
/// by population index, sampled by inverse CDF over cumulative
/// `1/(rank+1)^skew` weights with the seeded [`StdRng`].
pub fn request_stream(corpus: &Corpus, spec: &StreamSpec) -> Vec<CompileRequest> {
    let mut population = Vec::new();
    for case in &corpus.cases {
        for &flags in &spec.flag_sets {
            for backend in BackendKind::ALL {
                population.push(
                    CompileRequest::builder(&case.source.text)
                        .flags(flags)
                        .backend(backend)
                        .build(),
                );
            }
        }
    }
    assert!(!population.is_empty(), "empty corpus or flag sets");

    // Cumulative Zipf weights over the ranked population.
    let mut cumulative = Vec::with_capacity(population.len());
    let mut total = 0.0;
    for rank in 0..population.len() {
        total += 1.0 / ((rank + 1) as f64).powf(spec.skew);
        cumulative.push(total);
    }

    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.requests)
        .map(|_| {
            let u = rng.gen_range(0.0..total);
            let idx = cumulative.partition_point(|&c| c <= u);
            population[idx.min(population.len() - 1)].clone()
        })
        .collect()
}

/// Summary of one replayed stream. All counters are deterministic for a
/// given (service state, stream).
#[derive(Debug, Clone, Default)]
pub struct LoadSummary {
    /// Requests replayed (warm-up included).
    pub requests: usize,
    /// Requests in the measured (post-warm-up) window.
    pub measured: usize,
    /// Median work-counter latency over the measured window.
    pub p50_latency: usize,
    /// 99th-percentile work-counter latency over the measured window.
    pub p99_latency: usize,
    /// Total work (stage runs + emissions) over the measured window.
    pub total_work: usize,
    /// Measured-window requests served entirely from the memo
    /// (zero stage runs *and* zero emissions).
    pub memo_served: usize,
    /// Measured-window requests coalesced onto another in-flight compile.
    pub coalesced: usize,
    /// Measured-window requests that cost the service no fresh compile work:
    /// memo-served, or coalesced onto a compile another request paid for.
    pub free: usize,
    /// Measured-window responses answered by the emission memo's shared
    /// handle (no emitter ran).
    pub zero_copy: usize,
    /// Total stage runs across the whole stream (warm-up included) — the
    /// counter the warm-boot replay acceptance pins to zero.
    pub stage_runs: usize,
    /// Requests that failed (should be zero for corpus streams).
    pub errors: usize,
}

impl LoadSummary {
    /// Fraction of measured requests that cost no compile work: served from
    /// the memo or coalesced onto an in-flight compile. The tentpole
    /// acceptance wants this ≥ 0.9 after warm-up.
    pub fn free_fraction(&self) -> f64 {
        if self.measured == 0 {
            return 0.0;
        }
        self.free as f64 / self.measured as f64
    }
}

/// The `p`-th percentile (0–100) of a latency population, nearest-rank.
pub fn percentile(sorted: &[usize], p: usize) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Replays `stream` against `service` sequentially (deterministic), treating
/// the first `warmup` requests as cache warm-up and summarising the rest.
pub fn run_stream(
    service: &CompileService,
    stream: &[CompileRequest],
    warmup: usize,
) -> LoadSummary {
    let mut summary = LoadSummary {
        requests: stream.len(),
        ..LoadSummary::default()
    };
    let mut latencies = Vec::new();
    for (i, request) in stream.iter().enumerate() {
        let measured = i >= warmup;
        match service.compile(request) {
            Ok(response) => {
                summary.stage_runs += response.work.stage_runs;
                if measured {
                    record(
                        &mut summary,
                        &mut latencies,
                        &response.work,
                        response.coalesced,
                        response.zero_copy,
                    );
                }
            }
            Err(_) => summary.errors += 1,
        }
    }
    latencies.sort_unstable();
    summary.measured = latencies.len();
    summary.p50_latency = percentile(&latencies, 50);
    summary.p99_latency = percentile(&latencies, 99);
    summary
}

fn record(
    summary: &mut LoadSummary,
    latencies: &mut Vec<usize>,
    work: &SessionStats,
    coalesced: bool,
    zero_copy: bool,
) {
    let latency = work.latency();
    latencies.push(latency);
    summary.total_work += latency;
    if latency == 0 {
        summary.memo_served += 1;
    }
    if coalesced {
        summary.coalesced += 1;
    }
    if latency == 0 || coalesced {
        summary.free += 1;
    }
    if zero_copy {
        summary.zero_copy += 1;
    }
}
