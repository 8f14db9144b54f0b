//! The `study` workload: one `run_study` over the full corpus per pass, and
//! the single-thread traced replica of its sweep loop.
//!
//! The replica rebuilds `prism_search`'s per-shader loop from public calls
//! so each call into a layer can be wrapped in a span. It must produce shader
//! records, measurements and skips byte-identical to `run_study` on the same
//! corpus and config ([`comparable_json`]); the benchmark checks this on
//! every traced run, and its tests check it on a corpus slice.

use crate::stream::derive;
use crate::trace::{self_times, Recorder, Span};
use prism_core::{
    CacheStats, CacheStore, CompileError, CompileSession, CorpusCache, Flag, OptFlags,
};
use prism_corpus::{Corpus, ShaderCase};
use prism_emit::BackendKind;
use prism_glsl::ShaderSource;
use prism_gpu::{Platform, ShaderCost, Vendor};
use prism_harness::measure_cost;
use prism_ir::counters::IrCounters;
use prism_search::{
    ShaderPlatformRecord, ShaderRecord, SkippedShader, StudyConfig, StudyResults, VariantRecord,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// The layers the replica times, in report order. `search` is the root span:
/// its self time is the sweep loop's own work.
pub const LAYERS: [&str; 11] = [
    "core.session_open",
    "core.variants",
    "emit.text_for",
    "glsl.driver_parse",
    "emit.spirv_parse",
    "emit.msl_to_glsl",
    "core.driver_lower",
    "gpu.driver_passes",
    "gpu.cost_model",
    "harness.measure",
    "search",
];

/// The study configuration for a run: `prism_bench::bench_config()` with its
/// measurement seed mixed with the run seed, on `threads` workers.
pub fn config(seed: u64, threads: usize) -> StudyConfig {
    let mut config = prism_bench::bench_config();
    config.measure.seed ^= derive(seed, 5);
    config.threads = threads;
    config
}

/// The parts of a study the output checks compare: shader records,
/// measurements and skips. Cache counters are left out because they depend
/// on thread order.
pub fn comparable(study: &StudyResults) -> StudyResults {
    StudyResults {
        shaders: study.shaders.clone(),
        measurements: study.measurements.clone(),
        skipped: study.skipped.clone(),
        ..StudyResults::default()
    }
}

/// [`comparable`] as JSON, for byte-identity checks.
pub fn comparable_json(study: &StudyResults) -> String {
    comparable(study)
        .to_json()
        .expect("study results serialise")
}

/// Rows (shader × platform measurements) a complete study of `corpus` has.
pub fn expected_rows(corpus: &Corpus, config: &StudyConfig) -> usize {
    corpus.len() * config.vendors.len()
}

/// Rows of `pass` that are missing, differ from `reference`, or were
/// skipped, plus shader records that differ. Checking the reference against
/// itself counts only incompleteness.
pub fn failed_rows(reference: &StudyResults, pass: &StudyResults, expected: usize) -> usize {
    let matching = reference
        .measurements
        .iter()
        .zip(&pass.measurements)
        .take(expected)
        .filter(|(a, b)| a == b)
        .count();
    let shaders_differ = reference.shaders.len().abs_diff(pass.shaders.len())
        + reference
            .shaders
            .iter()
            .zip(&pass.shaders)
            .filter(|(a, b)| a != b)
            .count();
    expected - matching + pass.skipped.len() + shaders_differ
}

/// What the traced replica measured.
pub struct Replica {
    /// The sweep's results (cache record left default).
    pub results: StudyResults,
    /// The spans, from one recorder (root first).
    pub spans: Vec<Span>,
    /// Counters of the replica's corpus cache.
    pub cache: CacheStats,
    /// IR-plane work done during the replica (exact: single thread).
    pub ir: IrCounters,
    /// Driver submissions.
    pub submits: usize,
    /// Distinct `(source form, text)` driver inputs among them.
    pub distinct_inputs: usize,
}

impl Replica {
    /// Wall-clock of the traced sweep: the root span.
    pub fn wall_ns(&self) -> u64 {
        self.spans[0].duration_ns()
    }

    /// Self time per layer, in ns, in [`LAYERS`] order (absent layers 0).
    pub fn layer_self_ns(&self) -> Vec<(&'static str, u64)> {
        let totals: BTreeMap<&str, u64> = self_times(&self.spans);
        LAYERS
            .iter()
            .map(|layer| (*layer, totals.get(layer).copied().unwrap_or(0)))
            .collect()
    }
}

/// The sweep loop of `run_study` on one thread, shared cache on, with every
/// call into a layer wrapped in a span.
pub fn traced_replica(corpus: &Corpus, config: &StudyConfig) -> Replica {
    let ir_before = prism_ir::counters::snapshot();
    let mut rec = Recorder::new(Instant::now());
    let platforms: Vec<Platform> = config.vendors.iter().map(|v| Platform::new(*v)).collect();
    let cache = Arc::new(config.new_corpus_cache());
    let mut results = StudyResults::default();
    let mut inputs = Inputs::default();
    let root = rec.begin();
    for (index, case) in corpus.cases.iter().enumerate() {
        rec.set_request(index as u64);
        let (shader, measurements, skipped) =
            replica_shader(&mut rec, &mut inputs, case, &platforms, config, &cache);
        results.shaders.extend(shader);
        results.measurements.extend(measurements);
        results.skipped.extend(skipped);
    }
    rec.end(root, "search");
    Replica {
        results,
        spans: rec.into_spans(),
        cache: cache.stats(),
        ir: prism_ir::counters::snapshot().since(&ir_before),
        submits: inputs.submits,
        distinct_inputs: inputs.distinct.len(),
    }
}

/// Driver inputs seen so far, keyed by source form and text hash.
#[derive(Default)]
struct Inputs {
    submits: usize,
    distinct: HashSet<(BackendKind, u64)>,
}

impl Inputs {
    fn note(&mut self, backend: BackendKind, text: &str) {
        let mut hasher = DefaultHasher::new();
        text.hash(&mut hasher);
        self.submits += 1;
        self.distinct.insert((backend, hasher.finish()));
    }
}

type ShaderOutcome = (
    Option<ShaderRecord>,
    Vec<ShaderPlatformRecord>,
    Vec<SkippedShader>,
);

/// One shader of the sweep, as `prism_search`'s `process_shader` runs it.
fn replica_shader(
    rec: &mut Recorder,
    inputs: &mut Inputs,
    case: &ShaderCase,
    platforms: &[Platform],
    config: &StudyConfig,
    cache: &Arc<CorpusCache>,
) -> ShaderOutcome {
    let skip = |error: String| SkippedShader {
        name: case.name.clone(),
        family: case.family.clone(),
        error,
    };
    let session = rec.span("core.session_open", |_| {
        CompileSession::with_cache_in_family(
            &case.source,
            &case.name,
            &case.family,
            Arc::clone(cache) as Arc<dyn CacheStore>,
        )
    });
    let session = match session {
        Ok(session) => session,
        Err(e) => return (None, Vec::new(), vec![skip(e.to_string())]),
    };
    let variants = match rec.span("core.variants", |_| session.variants()) {
        Ok(variants) => variants,
        Err(e) => return (None, Vec::new(), vec![skip(e.to_string())]),
    };

    let arm = platforms
        .iter()
        .find(|p| p.vendor() == Vendor::Arm)
        .cloned()
        .unwrap_or_else(|| Platform::new(Vendor::Arm));
    let arm_text = rec.span("emit.text_for", |_| {
        session.base_text_for(BackendKind::Gles)
    });
    let arm_static_cycles = submit(rec, inputs, &arm, &arm_text, &case.name)
        .map(|c| {
            rec.span("gpu.cost_model", |_| {
                arm.static_cycles(&c.driver_ir).total()
            })
        })
        .unwrap_or(0.0);

    let record = ShaderRecord {
        name: case.name.clone(),
        family: case.family.clone(),
        loc: case.lines_of_code(),
        arm_static_cycles,
        unique_variants: variants.unique_count(),
        flag_changes_code: Flag::ALL
            .iter()
            .map(|f| variants.flag_changes_code(*f))
            .collect(),
    };

    let mut measurements = Vec::new();
    let mut failures = Vec::new();
    for (platform_idx, platform) in platforms.iter().enumerate() {
        let vendor = platform.vendor().name();
        let backend = platform.backend();
        let stream_base = stream_id(&case.name, platform_idx);
        let original_text: Arc<str> = match backend {
            BackendKind::DesktopGlsl => Arc::from(case.source.text.as_str()),
            _ => rec.span("emit.text_for", |_| session.base_text_for(backend)),
        };
        let original_cost = match submit(rec, inputs, platform, &original_text, &case.name) {
            Ok(cost) => cost,
            Err(e) => {
                failures.push(skip(format!("driver({vendor}): original shader: {e}")));
                continue;
            }
        };
        let original = rec.span("harness.measure", |_| {
            measure_cost(platform, &original_cost, &config.measure, stream_base)
        });

        let mut variant_records = Vec::new();
        let mut variant_failure = None;
        let mut driver_source_version = String::new();
        for variant in &variants.variants {
            let text = match backend {
                BackendKind::DesktopGlsl => Ok(Arc::clone(&variant.glsl)),
                _ => rec.span("emit.text_for", |_| {
                    session.text_for(variant.representative_flags(), backend)
                }),
            };
            let text = match text {
                Ok(text) => text,
                Err(e) => {
                    variant_failure = Some(skip(format!(
                        "emit({vendor}/{backend}): variant {}: {e}",
                        variant.index
                    )));
                    break;
                }
            };
            let cost = match submit(rec, inputs, platform, &text, &case.name) {
                Ok(cost) => cost,
                Err(e) => {
                    variant_failure = Some(skip(format!(
                        "driver({vendor}): variant {}: {e}",
                        variant.index
                    )));
                    break;
                }
            };
            if driver_source_version.is_empty() {
                driver_source_version = cost.source_version.clone();
            }
            let m = rec.span("harness.measure", |_| {
                measure_cost(
                    platform,
                    &cost,
                    &config.measure,
                    stream_base.wrapping_add(1 + variant.index as u64),
                )
            });
            variant_records.push(VariantRecord {
                index: variant.index,
                flag_bits: variant.flag_sets.iter().map(|f| f.bits()).collect(),
                mean_ns: m.mean_ns,
                stddev_ns: m.stddev_ns,
            });
        }
        if let Some(failure) = variant_failure {
            failures.push(failure);
            continue;
        }
        measurements.push(ShaderPlatformRecord {
            shader: case.name.clone(),
            vendor: vendor.to_string(),
            backend: backend.name().to_string(),
            driver_source_version,
            original_ns: original.mean_ns,
            variants: variant_records,
            flag_to_variant: (0..=255u8)
                .map(|bits| variants.by_flags[&OptFlags::from_bits(bits)])
                .collect(),
        });
    }
    (Some(record), measurements, failures)
}

/// `Platform::submit`, split at its layer boundaries: the front-end for the
/// platform's source form, the driver's lowering, its internal passes, and
/// the cost model.
fn submit(
    rec: &mut Recorder,
    inputs: &mut Inputs,
    platform: &Platform,
    text: &str,
    name: &str,
) -> Result<ShaderCost, CompileError> {
    let backend = platform.backend();
    inputs.note(backend, text);
    let foreign =
        |e: String| CompileError::Front(prism_glsl::GlslError::new(prism_glsl::Stage::Parse, e));
    let parse = |rec: &mut Recorder, glsl: &str| {
        rec.span("glsl.driver_parse", |_| {
            ShaderSource::preprocess_and_parse(glsl, &Default::default())
        })
        .map_err(CompileError::Front)
    };
    let (ir, version) = match backend {
        BackendKind::DesktopGlsl | BackendKind::Gles => {
            let source = parse(rec, text)?;
            let ir = rec.span("core.driver_lower", |_| prism_core::lower(&source, name))?;
            (ir, source.version.unwrap_or_default())
        }
        BackendKind::SpirvAsm => {
            let parsed = rec
                .span("emit.spirv_parse", |_| prism_emit::parse_spirv_asm(text))
                .map_err(foreign)?;
            (parsed.shader, parsed.version)
        }
        BackendKind::Msl => {
            let glsl = rec
                .span("emit.msl_to_glsl", |_| prism_emit::msl_to_glsl(text))
                .map_err(foreign)?;
            let source = parse(rec, &glsl)?;
            let ir = rec.span("core.driver_lower", |_| prism_core::lower(&source, name))?;
            (ir, BackendKind::Msl.version().to_string())
        }
    };
    let driver_ir = rec.span("gpu.driver_passes", |_| {
        platform.driver.compile_ir(ir, name)
    })?;
    let mut cost = rec.span("gpu.cost_model", |_| platform.cost_of_ir(driver_ir));
    cost.source_version = version;
    Ok(cost)
}

/// The sweep's deterministic per-(shader, platform) noise stream id.
fn stream_id(shader: &str, platform_idx: usize) -> u64 {
    let mut hasher = DefaultHasher::new();
    shader.hash(&mut hasher);
    hasher.finish().wrapping_add((platform_idx as u64) << 48)
}
