//! The exhaustive iterative-compilation sweep.
//!
//! For every corpus shader: open one [`CompileSession`] (lowering the shader
//! to IR exactly once), derive the 256 flag-combination variants through the
//! session's shared schedule snapshots, deduplicate them (§V-C), submit the
//! original shader and every distinct variant to every platform's driver, and
//! time each with the harness. The same session serves all seven platforms —
//! variant generation happens once per shader for the whole study, and each
//! platform's driver receives the text of the emission backend matching its
//! API: the OpenGL desktops get `#version 450` GLSL, the GLES phones get
//! `#version 310 es` text (the paper's glslang → SPIRV-Cross conversion
//! path, §III-C(d)), the Vulkan desktop gets SPIR-V assembly and the Metal
//! phone gets MSL — four source forms derived from the same optimized IR.
//!
//! All sessions memoise against one shared, thread-safe [`CorpusCache`]:
//! übershader family members share most of their IR, so one family member's
//! stage transitions and emitted text routinely answer another's lookups.
//! The corpus-level counters land in [`StudyResults::cache`].
//!
//! The drivers' own work is memoised per column — the original shader or
//! one variant: the column's submissions share one [`DriverMemo`], so each
//! text is parsed once and each driver pass runs once per distinct IR. Its
//! counters land in [`StudyResults::driver`].
//!
//! Shaders are processed on a work-stealing worker pool (the offline tool and
//! the simulated GPUs are pure functions, so this is safe and deterministic):
//! workers pull the next shader from a shared queue, so one expensive
//! flagship shader no longer idles the rest of a pre-assigned chunk.

use crate::driver::incremental_search_records;
use crate::results::{
    CacheRecord, ShaderPlatformRecord, ShaderRecord, SkippedShader, StudyResults, VariantRecord,
};
use prism_core::{CacheStore, CompileSession, CorpusCache, Flag, OptFlags};
use prism_corpus::{Corpus, ShaderCase};
use prism_emit::BackendKind;
use prism_gpu::{DriverMemo, DriverStats, Platform, Vendor};
use prism_harness::{measure_cost, MeasureConfig};
use rayon::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Configuration of a full study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Harness timing configuration.
    pub measure: MeasureConfig,
    /// Platforms to measure on (defaults to all seven).
    pub vendors: Vec<Vendor>,
    /// Number of worker threads.
    pub threads: usize,
    /// Bound the shared corpus cache to at most this many entries
    /// (LRU-evicted). `None` (default) grows monotonically. Results are
    /// byte-identical either way — only the work counters differ.
    pub cache_budget: Option<usize>,
    /// Run the incremental flag-search comparison after the exhaustive
    /// sweep, filling [`StudyResults::search`] with per-(platform, strategy)
    /// rows. `false` (default) skips it.
    pub search: bool,
    /// Persistent warm-start directory for the sweep's corpus cache. When
    /// set, the sweep loads any snapshot found there before compiling —
    /// stale or corrupt shards are skipped, never trusted — and saves the
    /// warmed cache back afterwards, so the next `run_study` over the same
    /// corpus performs strictly fewer stage runs and emissions with
    /// byte-identical results. Warm-vs-cold hit counts land in
    /// [`StudyResults::cache`]. `None` (default) starts cold.
    pub warm_start_dir: Option<std::path::PathBuf>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            measure: MeasureConfig::default(),
            vendors: Vendor::ALL.to_vec(),
            threads: 8,
            cache_budget: None,
            search: false,
            warm_start_dir: None,
        }
    }
}

impl StudyConfig {
    /// A reduced configuration for unit tests and quick experiments.
    pub fn quick() -> StudyConfig {
        StudyConfig {
            measure: MeasureConfig::quick(),
            vendors: Vendor::ALL.to_vec(),
            threads: 4,
            cache_budget: None,
            search: false,
            warm_start_dir: None,
        }
    }

    /// A fresh corpus cache honouring this config's `cache_budget`:
    /// [`CorpusCache::with_budget`] of it, which the sweep and the
    /// incremental search call directly. The wall-clock benchmark's
    /// single-thread study replica (`perfbench/src/study.rs`) still builds
    /// its cache through this.
    pub fn new_corpus_cache(&self) -> CorpusCache {
        CorpusCache::with_budget(self.cache_budget)
    }
}

/// Runs the full study over a corpus.
///
/// Shaders that fail to compile (none in the built-in corpus) are recorded in
/// [`StudyResults::skipped`] with the error that rejected them — as are
/// (shader, platform) rows dropped because a simulated driver rejected the
/// original or a variant — so a partially incompatible corpus still yields
/// results *and* stays diagnosable.
pub fn run_study(corpus: &Corpus, config: &StudyConfig) -> StudyResults {
    let platforms: Vec<Platform> = config.vendors.iter().map(|v| Platform::new(*v)).collect();
    let corpus_cache = Arc::new(CorpusCache::with_budget(config.cache_budget));
    // Warm-start the cache before any session opens. Loading is
    // corruption-tolerant (a bad shard is skipped and counted, never
    // trusted), so nothing can fail here; the skip counts surface in
    // `StudyResults::cache`.
    if let Some(dir) = &config.warm_start_dir {
        corpus_cache.load(dir);
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.threads.max(1))
        .build()
        .expect("worker pool");
    let per_shader: Vec<Result<ProcessedShader, SkippedShader>> = pool.install(|| {
        corpus
            .cases
            .par_iter()
            .map(|case| process_shader(case, &platforms, &config.measure, &corpus_cache))
            .collect()
    });

    let mut study = StudyResults::default();
    for entry in per_shader {
        match entry {
            Ok(processed) => {
                study.shaders.push(processed.record);
                study.measurements.extend(processed.measurements);
                study.skipped.extend(processed.platform_failures);
                study.driver += processed.driver;
            }
            Err(skipped) => study.skipped.push(skipped),
        }
    }
    study.cache = CacheRecord {
        stats: corpus_cache.stats(),
    };
    // Persist the warmed cache for the next run. A save failure (full or
    // read-only disk) must not invalidate the measurements already taken —
    // record it and carry on.
    if let Some(dir) = &config.warm_start_dir {
        if let Err(e) = corpus_cache.save(dir) {
            study
                .warnings
                .push(format!("warm-start snapshot not saved: {e}"));
        }
    }
    if config.search {
        study.search = incremental_search_records(corpus, &study, config);
    }
    study
}

/// The output of processing one shader that made it through the optimizer.
struct ProcessedShader {
    record: ShaderRecord,
    measurements: Vec<ShaderPlatformRecord>,
    /// Platforms whose driver rejected the original or a variant; recorded so
    /// a missing (shader, platform) row is diagnosable rather than silent.
    platform_failures: Vec<SkippedShader>,
    /// Driver-memo work of this shader's columns.
    driver: DriverStats,
}

/// One platform's row of a shader, filled column by column.
#[derive(Default)]
struct PlatformRow {
    original_ns: f64,
    variants: Vec<VariantRecord>,
    driver_source_version: String,
    /// Why the row was dropped; no later column submits to this platform.
    failure: Option<SkippedShader>,
}

/// Processes one shader: one compile session against the study's corpus
/// cache, variants, per-platform measurements through the platform's
/// declared emission backend.
///
/// Driver submissions go column by column — the original shader, then each
/// variant — and each column's seven submissions share one [`DriverMemo`],
/// dropped when the column ends: the column's texts are parsed once per
/// source form, and the vendors' common passes run once per distinct IR.
fn process_shader(
    case: &ShaderCase,
    platforms: &[Platform],
    measure: &MeasureConfig,
    corpus_cache: &Arc<CorpusCache>,
) -> Result<ProcessedShader, SkippedShader> {
    let skip = |error: String| SkippedShader {
        name: case.name.clone(),
        family: case.family.clone(),
        error,
    };
    let session = CompileSession::with_cache(
        &case.source,
        &case.name,
        Arc::clone(corpus_cache) as Arc<dyn CacheStore>,
    )
    .map_err(|e| skip(e.to_string()))?;
    let variants = session.variants().map_err(|e| skip(e.to_string()))?;
    let mut driver = DriverStats::default();
    let mut rows: Vec<PlatformRow> = platforms.iter().map(|_| PlatformRow::default()).collect();

    // Column 0, the original shader. Static facts first (platform
    // independent): the ARM static analyser runs on the ARM driver's
    // compilation of the original shader, as in the paper — which on the
    // Mali toolchain means the GLES conversion of the original, the same
    // submission ARM's own row makes through this column's memo.
    let mut memo = DriverMemo::new();
    let arm = platforms
        .iter()
        .find(|p| p.vendor() == Vendor::Arm)
        .cloned()
        .unwrap_or_else(|| Platform::new(Vendor::Arm));
    let arm_static_cycles = memo
        .submit(&arm, &session.base_text_for(BackendKind::Gles), &case.name)
        .map(|c| arm.static_cycles(&c.driver_ir).total())
        .unwrap_or(0.0);

    let flag_changes_code = Flag::ALL
        .iter()
        .map(|f| variants.flag_changes_code(*f))
        .collect();

    let record = ShaderRecord {
        name: case.name.clone(),
        family: case.family.clone(),
        loc: case.lines_of_code(),
        arm_static_cycles,
        unique_variants: variants.unique_count(),
        flag_changes_code,
    };

    for (platform_idx, (platform, row)) in platforms.iter().zip(&mut rows).enumerate() {
        // Desktop OpenGL drivers take the corpus text as-is; no other driver
        // can consume desktop GLSL, so those platforms measure the original
        // through the conversion path — the unoptimized lowering emitted by
        // their backend (§III-C(d) for GLES; the SPIR-V and MSL consumers
        // enter the same way).
        let original_converted;
        let original_text: &str = match platform.backend() {
            BackendKind::DesktopGlsl => &case.source.text,
            backend => {
                original_converted = session.base_text_for(backend);
                &original_converted
            }
        };
        match memo.submit(platform, original_text, &case.name) {
            Ok(cost) => {
                let stream = stream_id(&case.name, platform_idx);
                row.original_ns = measure_cost(platform, &cost, measure, stream).mean_ns;
            }
            Err(e) => {
                let vendor = platform.vendor().name();
                row.failure = Some(skip(format!("driver({vendor}): original shader: {e}")));
            }
        }
    }
    driver += memo.stats();

    for variant in &variants.variants {
        let mut memo = DriverMemo::new();
        for (platform_idx, (platform, row)) in platforms.iter().zip(&mut rows).enumerate() {
            if row.failure.is_some() {
                continue;
            }
            let vendor = platform.vendor().name();
            let backend = platform.backend();
            // The platform's backend decides which text of this variant the
            // driver sees. The desktop text is the variant's own (dedup key)
            // string; every other form comes from the session's per-backend
            // emission memo over the same optimized IR.
            let emitted_text;
            let text: &str = match backend {
                BackendKind::DesktopGlsl => &variant.glsl,
                _ => match session.text_for(variant.representative_flags(), backend) {
                    Ok(text) => {
                        emitted_text = text;
                        &emitted_text
                    }
                    Err(e) => {
                        row.failure = Some(skip(format!(
                            "emit({vendor}/{backend}): variant {}: {e}",
                            variant.index
                        )));
                        continue;
                    }
                },
            };
            let cost = match memo.submit(platform, text, &case.name) {
                Ok(cost) => cost,
                Err(e) => {
                    // A variant failed driver compilation; drop this
                    // platform's row to keep the flag→variant table
                    // consistent, but record why.
                    row.failure = Some(skip(format!(
                        "driver({vendor}): variant {}: {e}",
                        variant.index
                    )));
                    continue;
                }
            };
            if row.driver_source_version.is_empty() {
                row.driver_source_version = cost.source_version.clone();
            }
            let stream = stream_id(&case.name, platform_idx).wrapping_add(1 + variant.index as u64);
            let m = measure_cost(platform, &cost, measure, stream);
            row.variants.push(VariantRecord {
                index: variant.index,
                flag_bits: variant.flag_sets.iter().map(|f| f.bits()).collect(),
                mean_ns: m.mean_ns,
                stddev_ns: m.stddev_ns,
            });
        }
        driver += memo.stats();
    }

    let flag_to_variant: Vec<usize> = (0..=255u8)
        .map(|bits| variants.by_flags[&OptFlags::from_bits(bits)])
        .collect();
    let mut measurements = Vec::new();
    let mut platform_failures = Vec::new();
    for (platform, row) in platforms.iter().zip(rows) {
        match row.failure {
            Some(failure) => platform_failures.push(failure),
            None => measurements.push(ShaderPlatformRecord {
                shader: case.name.clone(),
                vendor: platform.vendor().name().to_string(),
                backend: platform.backend().name().to_string(),
                driver_source_version: row.driver_source_version,
                original_ns: row.original_ns,
                variants: row.variants,
                flag_to_variant: flag_to_variant.clone(),
            }),
        }
    }
    Ok(ProcessedShader {
        record,
        measurements,
        platform_failures,
        driver,
    })
}

/// Deterministic per-(shader, platform) noise stream id.
fn stream_id(shader: &str, platform_idx: usize) -> u64 {
    let mut hasher = DefaultHasher::new();
    shader.hash(&mut hasher);
    hasher.finish().wrapping_add((platform_idx as u64) << 48)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_core::OptFlags;

    /// A miniature corpus: the blur flagship plus a couple of family shaders.
    fn mini_corpus() -> Corpus {
        let full = Corpus::gfxbench_like();
        let keep = [
            "flagship_blur9",
            "ui_blit_00",
            "ui_blit_02",
            "color_grade_01",
        ];
        Corpus {
            cases: full
                .cases
                .into_iter()
                .filter(|c| keep.contains(&c.name.as_str()))
                .collect(),
        }
    }

    #[test]
    fn incompatible_shaders_are_recorded_not_swallowed() {
        // A shader that parses but has a dynamic loop bound, which the
        // lowering rejects: the study must complete, measure the good shader,
        // and record the bad one with its error text.
        let dynamic_loop = prism_glsl::ShaderSource::parse(
            "uniform int n; in vec2 uv; out vec4 c;\n\
             void main() { c = vec4(0.0); for (int i = 0; i < n; i++) { c += vec4(0.1); } }",
        )
        .unwrap();
        let mut corpus = mini_corpus();
        corpus.cases.retain(|c| c.name == "ui_blit_00");
        corpus.cases.push(ShaderCase {
            name: "dynamic_loop".into(),
            family: "synthetic".into(),
            defines: vec![],
            source: dynamic_loop,
        });

        let study = run_study(&corpus, &StudyConfig::quick());
        assert_eq!(study.shaders.len(), 1);
        assert!(!study.is_complete());
        assert_eq!(study.skipped.len(), 1);
        let skipped = &study.skipped[0];
        assert_eq!(skipped.name, "dynamic_loop");
        assert_eq!(skipped.family, "synthetic");
        assert!(
            skipped.error.contains("loop"),
            "error should name the cause, got: {}",
            skipped.error
        );
    }

    #[test]
    fn study_covers_all_shaders_and_platforms() {
        let corpus = mini_corpus();
        let study = run_study(&corpus, &StudyConfig::quick());
        assert_eq!(study.shaders.len(), corpus.len());
        assert_eq!(study.measurements.len(), corpus.len() * Vendor::ALL.len());
        assert_eq!(study.platforms().len(), 7);
        for m in &study.measurements {
            assert!(m.original_ns > 0.0);
            assert!(!m.variants.is_empty());
            assert_eq!(m.flag_to_variant.len(), 256);
        }
        // All four source forms are exercised, and every row records which
        // form its driver parsed.
        use std::collections::HashSet;
        let backends: HashSet<&str> = study
            .measurements
            .iter()
            .map(|m| m.backend.as_str())
            .collect();
        assert_eq!(backends.len(), 4, "{backends:?}");
        for m in &study.measurements {
            let expected = prism_emit::BackendKind::from_name(&m.backend)
                .expect("recorded backend resolves")
                .version();
            assert_eq!(
                m.driver_source_version, expected,
                "{}/{}",
                m.shader, m.vendor
            );
        }
    }

    #[test]
    fn blur_best_variant_beats_original_on_every_platform() {
        let corpus = Corpus {
            cases: Corpus::gfxbench_like()
                .cases
                .into_iter()
                .filter(|c| c.name == "flagship_blur9")
                .collect(),
        };
        let study = run_study(&corpus, &StudyConfig::quick());
        for m in &study.measurements {
            let best = m.best_speedup_vs_original();
            // Desktop wins are small (the noise-free model's NVIDIA best is
            // 0.86%), so "clear" means clear of the noise floor, not large.
            assert!(
                best > 0.5,
                "{}: expected a clear win on the blur, got {best:.2}%",
                m.vendor
            );
        }
        // Mobile gains exceed desktop gains (Fig. 3 of the paper).
        let gain = |vendor: &str| {
            study
                .measurement("flagship_blur9", vendor)
                .unwrap()
                .best_speedup_vs_original()
        };
        let desktop_max = gain("Intel").max(gain("AMD")).max(gain("NVIDIA"));
        let mobile_min = gain("ARM").min(gain("Qualcomm"));
        assert!(
            mobile_min > desktop_max * 0.8,
            "mobile {mobile_min:.1}% should be at least comparable to desktop {desktop_max:.1}%"
        );
    }

    #[test]
    fn simple_shaders_have_mostly_identical_variants() {
        let corpus = mini_corpus();
        let study = run_study(&corpus, &StudyConfig::quick());
        let ui = study.shader("ui_blit_00").unwrap();
        assert!(ui.unique_variants <= 6, "got {}", ui.unique_variants);
        let blur = study.shader("flagship_blur9").unwrap();
        assert!(blur.unique_variants > ui.unique_variants);
        assert!(blur.unique_variants <= 64);
    }

    #[test]
    fn adce_never_changes_code_in_the_study() {
        let corpus = mini_corpus();
        let study = run_study(&corpus, &StudyConfig::quick());
        for s in &study.shaders {
            assert!(
                !s.flag_changes_code[Flag::Adce.bit() as usize],
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn warm_start_makes_the_second_sweep_strictly_cheaper_and_identical() {
        let corpus = mini_corpus();
        let dir = std::env::temp_dir().join(format!(
            "prism-sweep-warm-{}-{:p}",
            std::process::id(),
            &corpus
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StudyConfig {
            warm_start_dir: Some(dir.clone()),
            ..StudyConfig::quick()
        };

        let cold = run_study(&corpus, &config);
        let warm = run_study(&corpus, &config);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(cold.cache.stats.warm_entries_loaded, 0);
        assert!(cold.warnings.is_empty(), "{:?}", cold.warnings);
        assert!(warm.cache.stats.warm_entries_loaded > 0);
        assert!(warm.cache.stats.warm_stage_hits > 0);
        assert!(warm.cache.stats.warm_emission_hits > 0);
        assert_eq!(warm.cache.stats.warm_shards_skipped, 0);
        // The warm run re-did strictly less work than the cold run...
        assert!(warm.cache.stats.stage_runs < cold.cache.stats.stage_runs);
        assert!(warm.cache.stats.emissions < cold.cache.stats.emissions);
        // ...and changed nothing about what was measured.
        assert_eq!(warm.shaders, cold.shaders);
        assert_eq!(warm.measurements, cold.measurements);
        assert_eq!(warm.skipped, cold.skipped);
    }

    #[test]
    fn save_failure_is_a_warning_not_a_lost_study() {
        let mut corpus = mini_corpus();
        corpus.cases.truncate(1);
        // A warm-start dir whose *parent component is a regular file*: the
        // snapshot save cannot create the directory no matter the process's
        // privileges (the suite may run as root, where read-only permission
        // bits alone would not fail the write).
        let blocker = std::env::temp_dir().join(format!(
            "prism-sweep-blocker-{}-{:p}",
            std::process::id(),
            &corpus
        ));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let study = run_study(
            &corpus,
            &StudyConfig {
                warm_start_dir: Some(blocker.join("snapshot")),
                ..StudyConfig::quick()
            },
        );
        let _ = std::fs::remove_file(&blocker);
        assert!(
            study
                .warnings
                .iter()
                .any(|w| w.contains("warm-start snapshot not saved")),
            "save failure must surface as a warning: {:?}",
            study.warnings
        );
        // The measurements already taken are unharmed.
        assert_eq!(study.shaders.len(), 1);
        assert_eq!(study.measurements.len(), Vendor::ALL.len());
        assert!(study.skipped.is_empty());
    }

    #[test]
    fn near_identical_variants_time_nearly_identically() {
        let corpus = mini_corpus();
        let study = run_study(&corpus, &StudyConfig::quick());
        // The no-flag and ADCE-only variants are the same code, so they map to
        // the same variant record and thus identical times.
        for m in &study.measurements {
            let none = m.time_for(OptFlags::NONE);
            let adce = m.time_for(OptFlags::only(Flag::Adce));
            assert_eq!(none, adce);
        }
    }
}
