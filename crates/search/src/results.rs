//! Study result data structures.
//!
//! Everything the analyses (Figs. 5–9, Table I) need is captured in plain
//! serialisable records, so a full exhaustive sweep can be saved to JSON and
//! re-analysed without re-running the measurement.

use prism_core::{CacheStats, OptFlags};
use prism_gpu::DriverStats;

/// Timing of one distinct shader variant on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantRecord {
    /// Variant index within the shader's variant set.
    pub index: usize,
    /// All flag combinations (as raw 8-bit masks) that produce this variant.
    pub flag_bits: Vec<u8>,
    /// Mean measured frame time in nanoseconds.
    pub mean_ns: f64,
    /// Standard deviation of the frame times.
    pub stddev_ns: f64,
}

serde::impl_serde_struct!(VariantRecord {
    index,
    flag_bits,
    mean_ns,
    stddev_ns
});

/// All measurements of one shader on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ShaderPlatformRecord {
    /// Corpus shader name.
    pub shader: String,
    /// Platform name (`Vendor::name()`).
    pub vendor: String,
    /// The emission backend whose text this platform's driver consumed for
    /// every variant (`"desktop"`, `"gles"`, `"spirv"` or `"msl"`, see
    /// `prism_emit::BackendKind::name`).
    pub backend: String,
    /// The source-form version token the driver front-end reported seeing
    /// in the submitted variant text (e.g. `"450"`, `"310 es"`,
    /// `"spirv-1.0"`, `"metal"`) — end-to-end evidence the right backend's
    /// form reached the right platform.
    pub driver_source_version: String,
    /// Frame time of the original, untouched shader (not passed through the
    /// offline optimizer at all) — the baseline for Figs. 3, 5, 6 and 7. On
    /// every non-desktop-GLSL platform the original is measured through the
    /// conversion path (§III-C(d) for GLES; likewise SPIR-V and MSL), as
    /// desktop GLSL cannot run there.
    pub original_ns: f64,
    /// Distinct variant timings.
    pub variants: Vec<VariantRecord>,
    /// For each of the 256 flag masks, the index of the variant it produces.
    pub flag_to_variant: Vec<usize>,
}

serde::impl_serde_struct!(ShaderPlatformRecord {
    shader,
    vendor,
    backend,
    driver_source_version,
    original_ns,
    variants,
    flag_to_variant
});

impl ShaderPlatformRecord {
    /// Frame time of the variant a flag combination produces.
    pub fn time_for(&self, flags: OptFlags) -> f64 {
        let idx = self.flag_to_variant[flags.bits() as usize];
        self.variants[idx].mean_ns
    }

    /// Frame time of the LunarGlass no-flags baseline (canonicalisation only).
    pub fn baseline_ns(&self) -> f64 {
        self.time_for(OptFlags::NONE)
    }

    /// The fastest variant's (flag set, time).
    pub fn best(&self) -> (OptFlags, f64) {
        let mut best_flags = OptFlags::NONE;
        let mut best_time = f64::INFINITY;
        for bits in 0..=255u8 {
            let flags = OptFlags::from_bits(bits);
            let t = self.time_for(flags);
            if t < best_time {
                best_time = t;
                best_flags = flags;
            }
        }
        (best_flags, best_time)
    }

    /// Percentage speed-up of `flags` relative to the original shader
    /// (positive = faster than the untouched shader).
    pub fn speedup_vs_original(&self, flags: OptFlags) -> f64 {
        percent_speedup(self.original_ns, self.time_for(flags))
    }

    /// Percentage speed-up of the best variant relative to the original.
    pub fn best_speedup_vs_original(&self) -> f64 {
        percent_speedup(self.original_ns, self.best().1)
    }

    /// Percentage speed-up of `flags` relative to the no-flags LunarGlass
    /// baseline (the comparison used for the per-flag violins of Fig. 9).
    pub fn speedup_vs_baseline(&self, flags: OptFlags) -> f64 {
        percent_speedup(self.baseline_ns(), self.time_for(flags))
    }
}

/// Percentage speed-up of `new` versus `old` (positive = `new` is faster).
pub fn percent_speedup(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        return 0.0;
    }
    (old - new) / old * 100.0
}

/// Static per-shader facts gathered once (platform independent).
#[derive(Debug, Clone, PartialEq)]
pub struct ShaderRecord {
    /// Corpus shader name.
    pub name: String,
    /// Übershader family.
    pub family: String,
    /// Paper's lines-of-code metric (Fig. 4a).
    pub loc: usize,
    /// ARM-style static-analyser total cycles (Fig. 4b).
    pub arm_static_cycles: f64,
    /// Number of distinct variants out of the 256 flag combinations (Fig. 4c).
    pub unique_variants: usize,
    /// For each flag (in `Flag::ALL` order), whether enabling it ever changes
    /// the generated code (the red bars of Fig. 8).
    pub flag_changes_code: Vec<bool>,
}

serde::impl_serde_struct!(ShaderRecord {
    name,
    family,
    loc,
    arm_static_cycles,
    unique_variants,
    flag_changes_code,
});

/// A shader the sweep could not compile, with the reason — recorded instead
/// of silently dropped, so partially incompatible corpora are diagnosable.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedShader {
    /// Corpus shader name.
    pub name: String,
    /// Übershader family.
    pub family: String,
    /// The compile error, rendered to text.
    pub error: String,
}

serde::impl_serde_struct!(SkippedShader {
    name,
    family,
    error
});

/// Aggregated result of one incremental-search strategy on one platform:
/// how close the strategy's found flag sets get to the exhaustive oracle,
/// and at what fraction of the exhaustive compile cost (one row of the
/// incremental-search table; see `prism_search::driver`).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRecord {
    /// Platform name (`Vendor::name()`).
    pub vendor: String,
    /// Strategy name (`SearchStrategy::name()`).
    pub strategy: String,
    /// Shaders the strategy searched on this platform.
    pub shaders: usize,
    /// The per-shader compile budget the driver enforced.
    pub budget: usize,
    /// Mean distinct flag combinations compiled per shader (the exhaustive
    /// study compiles all 256).
    pub mean_compiles: f64,
    /// The largest per-shader compile count observed (must be ≤ `budget`).
    pub max_compiles: usize,
    /// Mean percentage speed-up (vs the original shader) of the best
    /// combination the strategy found.
    pub mean_speedup: f64,
    /// Mean speed-up of the exhaustive per-shader oracle (the ceiling).
    pub oracle_mean_speedup: f64,
    /// Mean speed-up of the LunarGlass default flags (the floor a useful
    /// strategy must clear).
    pub default_mean_speedup: f64,
    /// The measurement counts the regret curve is sampled at (powers of two
    /// up to the budget, then the budget; see
    /// `prism_search::bandit::RegretTracker::checkpoints_for`).
    pub regret_checkpoints: Vec<usize>,
    /// Mean regret (speedup percentage points behind the exhaustive oracle)
    /// of the deploy-now choice after each checkpoint's worth of
    /// measurements — the Fig.-regret curve, one value per checkpoint.
    pub mean_regret: Vec<f64>,
    /// Mean regret at the full budget (the last curve point).
    pub regret_final: f64,
}

serde::impl_serde_struct!(SearchRecord {
    vendor,
    strategy,
    shaders,
    budget,
    mean_compiles,
    max_compiles,
    mean_speedup,
    oracle_mean_speedup,
    default_mean_speedup,
    regret_checkpoints,
    mean_regret,
    regret_final
});

impl SearchRecord {
    /// Mean fraction of the exhaustive 256 combinations compiled.
    pub fn compile_fraction(&self) -> f64 {
        self.mean_compiles / 256.0
    }

    /// Fraction of the oracle's mean speed-up the strategy achieved. When
    /// the oracle itself gains nothing (≤ 0), a strategy that matched it
    /// scores 1.0 and one that fell short scores 0.0 — the ratio would
    /// otherwise flip sign and overstate the worst performers.
    pub fn oracle_fraction(&self) -> f64 {
        if self.oracle_mean_speedup <= 0.0 {
            if self.mean_speedup >= self.oracle_mean_speedup - 1e-12 {
                1.0
            } else {
                0.0
            }
        } else {
            self.mean_speedup / self.oracle_mean_speedup
        }
    }
}

/// Corpus-level compile-cache statistics of one study run: how much
/// optimization and emission work the sweep performed, and how much was
/// shared — within a shader's 256 combinations and, through the sweep's one
/// [`CorpusCache`](prism_core::CorpusCache), *across* shaders (übershader
/// family members reusing each other's stage transitions and emitted text).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheRecord {
    /// The store's counters (see [`CacheStats`] for field meanings).
    pub stats: CacheStats,
}

/// `stats`' scalar counters, in the order [`CacheRecord`]'s JSON writes
/// them; the per-backend `emissions_*` split follows `emissions`. Fields
/// come back `&mut` so the writer and the reader share this one key list.
fn counters(stats: &mut CacheStats) -> [(&'static str, &mut usize); 21] {
    [
        ("sessions", &mut stats.sessions),
        ("stage_runs", &mut stats.stage_runs),
        ("stage_hits", &mut stats.stage_hits),
        ("identity_transitions", &mut stats.identity_transitions),
        (
            "cross_shader_stage_hits",
            &mut stats.cross_shader_stage_hits,
        ),
        ("emissions", &mut stats.emissions),
        ("emission_hits", &mut stats.emission_hits),
        (
            "cross_shader_emission_hits",
            &mut stats.cross_shader_emission_hits,
        ),
        ("evictions", &mut stats.evictions),
        ("warm_stage_hits", &mut stats.warm_stage_hits),
        ("warm_emission_hits", &mut stats.warm_emission_hits),
        ("warm_entries_loaded", &mut stats.warm_entries_loaded),
        ("warm_shards_loaded", &mut stats.warm_shards_loaded),
        ("warm_shards_skipped", &mut stats.warm_shards_skipped),
        ("warm_entries_skipped", &mut stats.warm_entries_skipped),
        ("routed_requests", &mut stats.routed_requests),
        ("coalesced_requests", &mut stats.coalesced_requests),
        ("static_analyses", &mut stats.static_analyses),
        ("analysis_memo_hits", &mut stats.analysis_memo_hits),
        ("warm_analysis_hits", &mut stats.warm_analysis_hits),
        ("warm_verify_rejects", &mut stats.warm_verify_rejects),
    ]
}

/// The per-backend emission keys (`emissions_desktop`, ...), in
/// [`BackendKind::ALL`](prism_emit::BackendKind::ALL) order.
fn backend_keys() -> impl Iterator<Item = (String, usize)> {
    prism_emit::BackendKind::ALL
        .into_iter()
        .map(|backend| (format!("emissions_{}", backend.name()), backend.index()))
}

// Serialised flat so the JSON stays a single small object. Hand-written
// because the counter struct (`CacheStats`) lives in prism-core and is not
// tied to this crate's record shape.
impl serde::Serialize for CacheRecord {
    fn to_value(&self) -> serde::Value {
        let num = |n: usize| serde::Value::Num(n as f64);
        let mut stats = self.stats;
        let mut fields = Vec::new();
        for (name, count) in counters(&mut stats) {
            fields.push((name.to_string(), num(*count)));
            if name == "emissions" {
                fields.extend(
                    backend_keys()
                        .map(|(key, index)| (key, num(self.stats.emissions_by_backend[index]))),
                );
            }
        }
        serde::Value::Obj(fields)
    }
}

impl serde::Deserialize for CacheRecord {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let count = |name: &str| -> Result<usize, String> {
            match v.get(name) {
                Some(serde::Value::Num(n)) => Ok(*n as usize),
                Some(other) => Err(format!("expected number for `{name}`, got {other:?}")),
                None => Err(format!("missing field `{name}` in CacheRecord")),
            }
        };
        let mut stats = CacheStats::default();
        for (name, field) in counters(&mut stats) {
            *field = count(name)?;
        }
        for (key, index) in backend_keys() {
            stats.emissions_by_backend[index] = count(&key)?;
        }
        Ok(CacheRecord { stats })
    }
}

/// A complete study: every shader × platform × variant measurement.
#[derive(Debug, Clone, Default)]
pub struct StudyResults {
    /// Static per-shader facts.
    pub shaders: Vec<ShaderRecord>,
    /// All timing records.
    pub measurements: Vec<ShaderPlatformRecord>,
    /// Shaders the offline optimizer rejected, with the error that caused it.
    pub skipped: Vec<SkippedShader>,
    /// Corpus-level compile-cache statistics of this run.
    pub cache: CacheRecord,
    /// Incremental-search strategy comparison rows (empty unless the study
    /// ran with `StudyConfig::search` enabled).
    pub search: Vec<SearchRecord>,
    /// Non-fatal problems of this run (e.g. a warm-start snapshot that could
    /// not be written) — the measurements are still valid, but the operator
    /// should know.
    pub warnings: Vec<String>,
    /// Work of the sweep's driver memos, summed over every column.
    pub driver: DriverStats,
}

// `DriverStats` lives in prism-gpu, which has no serde; its JSON form is
// written here, one small object of counts.
fn driver_to_value(driver: &DriverStats) -> serde::Value {
    let num = |n: usize| serde::Value::Num(n as f64);
    serde::Value::Obj(vec![
        ("front_parses".to_string(), num(driver.front_parses)),
        ("front_hits".to_string(), num(driver.front_hits)),
        ("stage_runs".to_string(), num(driver.stage_runs)),
        ("stage_hits".to_string(), num(driver.stage_hits)),
    ])
}

fn driver_from_value(v: &serde::Value) -> Result<DriverStats, String> {
    let count = |name: &str| {
        v.get(name)
            .ok_or_else(|| format!("missing field `{name}` in DriverStats"))
            .and_then(serde::Deserialize::from_value)
    };
    Ok(DriverStats {
        front_parses: count("front_parses")?,
        front_hits: count("front_hits")?,
        stage_runs: count("stage_runs")?,
        stage_hits: count("stage_hits")?,
    })
}

impl serde::Serialize for StudyResults {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("shaders".to_string(), self.shaders.to_value()),
            ("measurements".to_string(), self.measurements.to_value()),
            ("skipped".to_string(), self.skipped.to_value()),
            ("cache".to_string(), self.cache.to_value()),
            ("search".to_string(), self.search.to_value()),
            ("warnings".to_string(), self.warnings.to_value()),
            ("driver".to_string(), driver_to_value(&self.driver)),
        ])
    }
}

impl serde::Deserialize for StudyResults {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| format!("missing field `{name}` in StudyResults"))
        };
        Ok(StudyResults {
            shaders: serde::Deserialize::from_value(field("shaders")?)?,
            measurements: serde::Deserialize::from_value(field("measurements")?)?,
            skipped: serde::Deserialize::from_value(field("skipped")?)?,
            cache: serde::Deserialize::from_value(field("cache")?)?,
            search: serde::Deserialize::from_value(field("search")?)?,
            warnings: serde::Deserialize::from_value(field("warnings")?)?,
            driver: driver_from_value(field("driver")?)?,
        })
    }
}

impl StudyResults {
    /// All measurements for one platform, in shader order.
    pub fn for_platform(&self, vendor: &str) -> Vec<&ShaderPlatformRecord> {
        self.measurements
            .iter()
            .filter(|m| m.vendor == vendor)
            .collect()
    }

    /// The static record of a shader.
    pub fn shader(&self, name: &str) -> Option<&ShaderRecord> {
        self.shaders.iter().find(|s| s.name == name)
    }

    /// The measurement of one shader on one platform.
    pub fn measurement(&self, shader: &str, vendor: &str) -> Option<&ShaderPlatformRecord> {
        self.measurements
            .iter()
            .find(|m| m.shader == shader && m.vendor == vendor)
    }

    /// `true` when every corpus shader made it through the offline optimizer.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }

    /// The platforms present in the study, in first-appearance order.
    pub fn platforms(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for m in &self.measurements {
            if !seen.contains(&m.vendor) {
                seen.push(m.vendor.clone());
            }
        }
        seen
    }

    /// Serialises the study to JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error message when the study
    /// contains a value JSON cannot represent (a non-finite timing) — a
    /// malformed measurement must surface to the report path as an error,
    /// not abort the whole study run with a panic.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Restores a study from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error message on malformed input.
    pub fn from_json(text: &str) -> Result<StudyResults, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_core::Flag;

    fn record() -> ShaderPlatformRecord {
        // Two variants: the baseline (slower) and an optimized one (faster);
        // flag bit 4 (Unroll) switches to the optimized variant.
        let mut flag_to_variant = vec![0usize; 256];
        for bits in 0..=255u8 {
            if OptFlags::from_bits(bits).contains(Flag::Unroll) {
                flag_to_variant[bits as usize] = 1;
            }
        }
        ShaderPlatformRecord {
            shader: "s".into(),
            vendor: "AMD".into(),
            backend: "desktop".into(),
            driver_source_version: "450".into(),
            original_ns: 1000.0,
            variants: vec![
                VariantRecord {
                    index: 0,
                    flag_bits: vec![0],
                    mean_ns: 1010.0,
                    stddev_ns: 5.0,
                },
                VariantRecord {
                    index: 1,
                    flag_bits: vec![16],
                    mean_ns: 800.0,
                    stddev_ns: 5.0,
                },
            ],
            flag_to_variant,
        }
    }

    #[test]
    fn lookup_and_speedups() {
        let r = record();
        assert_eq!(r.time_for(OptFlags::NONE), 1010.0);
        assert_eq!(r.time_for(OptFlags::only(Flag::Unroll)), 800.0);
        assert_eq!(r.baseline_ns(), 1010.0);
        let (best_flags, best_time) = r.best();
        assert!(best_flags.contains(Flag::Unroll));
        assert_eq!(best_time, 800.0);
        assert!((r.best_speedup_vs_original() - 20.0).abs() < 1e-9);
        // The artefact effect: the no-flag variant is slower than the original.
        assert!(r.speedup_vs_original(OptFlags::NONE) < 0.0);
        assert!((r.speedup_vs_baseline(OptFlags::only(Flag::Unroll)) - 20.79).abs() < 0.1);
    }

    #[test]
    fn percent_speedup_sign_convention() {
        assert!(percent_speedup(100.0, 90.0) > 0.0);
        assert!(percent_speedup(100.0, 110.0) < 0.0);
        assert_eq!(percent_speedup(0.0, 10.0), 0.0);
    }

    #[test]
    fn study_round_trips_through_json() {
        let study = StudyResults {
            shaders: vec![ShaderRecord {
                name: "s".into(),
                family: "f".into(),
                loc: 12,
                arm_static_cycles: 30.0,
                unique_variants: 2,
                flag_changes_code: vec![false; 8],
            }],
            measurements: vec![record()],
            skipped: vec![SkippedShader {
                name: "broken".into(),
                family: "f".into(),
                error: "front-end: unexpected token".into(),
            }],
            cache: CacheRecord {
                stats: CacheStats {
                    sessions: 1,
                    stage_runs: 7,
                    stage_hits: 21,
                    identity_transitions: 6,
                    cross_shader_stage_hits: 3,
                    emissions: 4,
                    emissions_by_backend: [1, 1, 1, 1],
                    emission_hits: 8,
                    cross_shader_emission_hits: 2,
                    evictions: 5,
                    warm_stage_hits: 6,
                    warm_emission_hits: 1,
                    warm_entries_loaded: 40,
                    warm_shards_loaded: 15,
                    warm_shards_skipped: 1,
                    warm_entries_skipped: 2,
                    routed_requests: 9,
                    coalesced_requests: 4,
                    static_analyses: 7,
                    analysis_memo_hits: 3,
                    warm_analysis_hits: 2,
                    warm_verify_rejects: 1,
                },
            },
            search: vec![SearchRecord {
                vendor: "AMD".into(),
                strategy: "greedy_forward".into(),
                shaders: 1,
                budget: 63,
                mean_compiles: 19.0,
                max_compiles: 19,
                mean_speedup: 18.5,
                oracle_mean_speedup: 20.0,
                default_mean_speedup: 12.0,
                regret_checkpoints: vec![1, 2, 4, 8, 16, 32, 63],
                mean_regret: vec![5.0, 3.0, 2.0, 1.5, 1.5, 0.5, 0.5],
                regret_final: 0.5,
            }],
            warnings: vec!["warm-start dir was read-only".into()],
            driver: DriverStats {
                front_parses: 11,
                front_hits: 9,
                stage_runs: 40,
                stage_hits: 120,
            },
        };
        let json = study.to_json().unwrap();
        let restored = StudyResults::from_json(&json).unwrap();
        assert_eq!(restored.shaders, study.shaders);
        assert_eq!(restored.measurements, study.measurements);
        assert_eq!(restored.skipped, study.skipped);
        assert_eq!(restored.cache, study.cache);
        assert_eq!(restored.search, study.search);
        assert_eq!(restored.warnings, study.warnings);
        assert_eq!(restored.driver, study.driver);
        assert_eq!(restored.cache.stats.evictions, 5);
        assert_eq!(restored.cache.stats.warm_stage_hits, 6);
        assert_eq!(restored.cache.stats.warm_shards_skipped, 1);
        let search = &restored.search[0];
        assert!((search.compile_fraction() - 19.0 / 256.0).abs() < 1e-12);
        assert!((search.oracle_fraction() - 0.925).abs() < 1e-12);
        assert!((restored.cache.stats.stage_hit_rate() - 0.75).abs() < 1e-9);
        assert!(!restored.is_complete());
        assert_eq!(restored.platforms(), vec!["AMD".to_string()]);
        assert!(restored.measurement("s", "AMD").is_some());
        assert!(restored.measurement("s", "Intel").is_none());
        assert!(StudyResults::from_json("{broken").is_err());
    }

    #[test]
    fn the_committed_study_report_round_trips_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../study-report.json");
        let text = std::fs::read_to_string(path).expect("committed study-report.json");
        let study = StudyResults::from_json(&text).unwrap();
        assert_eq!(study.to_json().unwrap(), text);
    }

    #[test]
    fn non_finite_measurements_serialise_to_an_error_not_a_panic() {
        // JSON cannot represent NaN; `to_json` must surface that as a
        // Result (it used to panic via `.expect`).
        let mut bad = record();
        bad.original_ns = f64::NAN;
        let study = StudyResults {
            measurements: vec![bad],
            ..StudyResults::default()
        };
        let err = study.to_json().unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }
}
