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

// Hand-written (not `impl_serde_struct!`) because the version field was
// renamed when the study outgrew GLSL-only drivers: new reports serialise
// `driver_source_version`, old `study-report.json` artifacts carrying
// `driver_glsl_version` still deserialize.
impl serde::Serialize for ShaderPlatformRecord {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("shader".to_string(), self.shader.to_value()),
            ("vendor".to_string(), self.vendor.to_value()),
            ("backend".to_string(), self.backend.to_value()),
            (
                "driver_source_version".to_string(),
                self.driver_source_version.to_value(),
            ),
            ("original_ns".to_string(), self.original_ns.to_value()),
            ("variants".to_string(), self.variants.to_value()),
            (
                "flag_to_variant".to_string(),
                self.flag_to_variant.to_value(),
            ),
        ])
    }
}

impl serde::Deserialize for ShaderPlatformRecord {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| format!("missing field `{name}` in ShaderPlatformRecord"))
        };
        let version = match v.get("driver_source_version") {
            Some(value) => value,
            // Pre-rename reports (GLSL-only study runs).
            None => field("driver_glsl_version")?,
        };
        Ok(ShaderPlatformRecord {
            shader: serde::Deserialize::from_value(field("shader")?)?,
            vendor: serde::Deserialize::from_value(field("vendor")?)?,
            backend: serde::Deserialize::from_value(field("backend")?)?,
            driver_source_version: serde::Deserialize::from_value(version)?,
            original_ns: serde::Deserialize::from_value(field("original_ns")?)?,
            variants: serde::Deserialize::from_value(field("variants")?)?,
            flag_to_variant: serde::Deserialize::from_value(field("flag_to_variant")?)?,
        })
    }
}

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
    /// Candidates whose measurement the static prefilter skipped, summed
    /// over shaders (always 0 in oracle mode and with the prefilter off —
    /// the counter that keeps pruning pinned, never silently lossy).
    pub candidates_pruned: usize,
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

// Hand-written (not `impl_serde_struct!`) because the regret fields postdate
// the first study-report.json artifacts: new reports serialise them, old
// reports without them still deserialize (empty curve, zero final regret).
impl serde::Serialize for SearchRecord {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("vendor".to_string(), self.vendor.to_value()),
            ("strategy".to_string(), self.strategy.to_value()),
            ("shaders".to_string(), self.shaders.to_value()),
            ("budget".to_string(), self.budget.to_value()),
            ("mean_compiles".to_string(), self.mean_compiles.to_value()),
            (
                "candidates_pruned".to_string(),
                self.candidates_pruned.to_value(),
            ),
            ("max_compiles".to_string(), self.max_compiles.to_value()),
            ("mean_speedup".to_string(), self.mean_speedup.to_value()),
            (
                "oracle_mean_speedup".to_string(),
                self.oracle_mean_speedup.to_value(),
            ),
            (
                "default_mean_speedup".to_string(),
                self.default_mean_speedup.to_value(),
            ),
            (
                "regret_checkpoints".to_string(),
                self.regret_checkpoints.to_value(),
            ),
            ("mean_regret".to_string(), self.mean_regret.to_value()),
            ("regret_final".to_string(), self.regret_final.to_value()),
        ])
    }
}

impl serde::Deserialize for SearchRecord {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| format!("missing field `{name}` in SearchRecord"))
        };
        // Pre-regret reports have no curve; default rather than fail.
        let regret_checkpoints = match v.get("regret_checkpoints") {
            Some(value) => serde::Deserialize::from_value(value)?,
            None => Vec::new(),
        };
        let mean_regret = match v.get("mean_regret") {
            Some(value) => serde::Deserialize::from_value(value)?,
            None => Vec::new(),
        };
        let regret_final = match v.get("regret_final") {
            Some(value) => serde::Deserialize::from_value(value)?,
            None => 0.0,
        };
        // Pre-prefilter reports never pruned; absent means 0.
        let candidates_pruned = match v.get("candidates_pruned") {
            Some(value) => serde::Deserialize::from_value(value)?,
            None => 0,
        };
        Ok(SearchRecord {
            vendor: serde::Deserialize::from_value(field("vendor")?)?,
            strategy: serde::Deserialize::from_value(field("strategy")?)?,
            shaders: serde::Deserialize::from_value(field("shaders")?)?,
            budget: serde::Deserialize::from_value(field("budget")?)?,
            mean_compiles: serde::Deserialize::from_value(field("mean_compiles")?)?,
            candidates_pruned,
            max_compiles: serde::Deserialize::from_value(field("max_compiles")?)?,
            mean_speedup: serde::Deserialize::from_value(field("mean_speedup")?)?,
            oracle_mean_speedup: serde::Deserialize::from_value(field("oracle_mean_speedup")?)?,
            default_mean_speedup: serde::Deserialize::from_value(field("default_mean_speedup")?)?,
            regret_checkpoints,
            mean_regret,
            regret_final,
        })
    }
}

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

/// One measured `(shader, platform, specialization)` arm of the
/// uniform-value specialization study: the AZP axis, where a shader is
/// cloned under an assumption about a uniform's dynamic value (zero, one, an
/// exact constant), folded, and deployed behind a runtime guard. The record
/// captures both sides of the bargain — the win when the assumption holds
/// and the guard cost every draw pays whether it holds or not.
///
/// Every recorded arm was differentially interp-verified against the
/// general program (both guard directions, bit-for-bit) before measurement;
/// `interp_confirms` pins how many comparisons backed it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializationRecord {
    /// Corpus shader name.
    pub shader: String,
    /// Platform name (`Vendor::name()`).
    pub vendor: String,
    /// Canonical specialization key display (`u0=0`, `u1=1,u3=0`, ...).
    pub spec: String,
    /// The flag combination both sides were compiled under (raw 8-bit mask).
    pub flag_bits: u8,
    /// Mean frame time of the general program at those flags (ns).
    pub general_ns: f64,
    /// Mean frame time of the specialized program, valid only while the
    /// assumption holds (ns).
    pub specialized_ns: f64,
    /// Modelled host-side guard evaluation cost per draw (ns) — the
    /// per-lane uniform compares run before binding either program, paid on
    /// every draw, winning or not.
    pub guard_ns: f64,
    /// Differential interpreter comparisons that confirmed this arm
    /// bit-for-bit before it was measured.
    pub interp_confirms: usize,
}

serde::impl_serde_struct!(SpecializationRecord {
    shader,
    vendor,
    spec,
    flag_bits,
    general_ns,
    specialized_ns,
    guard_ns,
    interp_confirms
});

impl SpecializationRecord {
    /// Percentage speed-up of the guarded dispatch when the assumption
    /// holds (specialized program + guard vs general program). Positive
    /// means the specialization pays for its guard.
    pub fn win_when_holds(&self) -> f64 {
        percent_speedup(self.general_ns, self.specialized_ns + self.guard_ns)
    }

    /// Percentage overhead of the guarded dispatch when the assumption does
    /// NOT hold (general program + guard vs general program alone) — the
    /// cost of being wrong about a batch. Always ≥ 0.
    pub fn overhead_when_violated(&self) -> f64 {
        -percent_speedup(self.general_ns, self.general_ns + self.guard_ns)
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

// Serialised flat so the JSON stays a single small object. Hand-written
// because the counter struct (`CacheStats`) lives in prism-core and is not
// tied to this crate's record shape.
impl serde::Serialize for CacheRecord {
    fn to_value(&self) -> serde::Value {
        let num = |n: usize| serde::Value::Num(n as f64);
        let mut fields = vec![
            ("sessions".to_string(), num(self.stats.sessions)),
            ("stage_runs".to_string(), num(self.stats.stage_runs)),
            ("stage_hits".to_string(), num(self.stats.stage_hits)),
            (
                "identity_transitions".to_string(),
                num(self.stats.identity_transitions),
            ),
            (
                "cross_shader_stage_hits".to_string(),
                num(self.stats.cross_shader_stage_hits),
            ),
            ("emissions".to_string(), num(self.stats.emissions)),
        ];
        for backend in prism_emit::BackendKind::ALL {
            fields.push((
                format!("emissions_{}", backend.name()),
                num(self.stats.emissions_by_backend[backend.index()]),
            ));
        }
        fields.extend(vec![
            ("emission_hits".to_string(), num(self.stats.emission_hits)),
            (
                "cross_shader_emission_hits".to_string(),
                num(self.stats.cross_shader_emission_hits),
            ),
            ("evictions".to_string(), num(self.stats.evictions)),
            (
                "warm_stage_hits".to_string(),
                num(self.stats.warm_stage_hits),
            ),
            (
                "warm_emission_hits".to_string(),
                num(self.stats.warm_emission_hits),
            ),
            (
                "warm_entries_loaded".to_string(),
                num(self.stats.warm_entries_loaded),
            ),
            (
                "warm_shards_loaded".to_string(),
                num(self.stats.warm_shards_loaded),
            ),
            (
                "warm_shards_skipped".to_string(),
                num(self.stats.warm_shards_skipped),
            ),
            (
                "warm_entries_skipped".to_string(),
                num(self.stats.warm_entries_skipped),
            ),
            (
                "routed_requests".to_string(),
                num(self.stats.routed_requests),
            ),
            (
                "coalesced_requests".to_string(),
                num(self.stats.coalesced_requests),
            ),
            (
                "static_analyses".to_string(),
                num(self.stats.static_analyses),
            ),
            (
                "analysis_memo_hits".to_string(),
                num(self.stats.analysis_memo_hits),
            ),
            (
                "warm_analysis_hits".to_string(),
                num(self.stats.warm_analysis_hits),
            ),
            (
                "warm_verify_rejects".to_string(),
                num(self.stats.warm_verify_rejects),
            ),
        ]);
        serde::Value::Obj(fields)
    }
}

impl serde::Deserialize for CacheRecord {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| format!("missing field `{name}` in CacheRecord"))
        };
        let count = |name: &str| -> Result<usize, String> {
            match field(name)? {
                serde::Value::Num(n) => Ok(*n as usize),
                other => Err(format!("expected number for `{name}`, got {other:?}")),
            }
        };
        // The warm-start counters postdate the first study-report.json
        // artifacts; an absent key means a pre-warm-start report, which is
        // still perfectly usable with the counters at 0.
        let warm_count = |name: &str| -> Result<usize, String> {
            match v.get(name) {
                None => Ok(0),
                Some(serde::Value::Num(n)) => Ok(*n as usize),
                Some(other) => Err(format!("expected number for `{name}`, got {other:?}")),
            }
        };
        // Like the warm counters, the per-backend split postdates the first
        // artifacts; absent keys stay 0.
        let mut emissions_by_backend = [0usize; prism_emit::BackendKind::COUNT];
        for backend in prism_emit::BackendKind::ALL {
            emissions_by_backend[backend.index()] =
                warm_count(&format!("emissions_{}", backend.name()))?;
        }
        Ok(CacheRecord {
            stats: CacheStats {
                sessions: count("sessions")?,
                stage_runs: count("stage_runs")?,
                stage_hits: count("stage_hits")?,
                // The identity-transition counter postdates the transition
                // graph refactor; absent means an older report, counter 0.
                identity_transitions: warm_count("identity_transitions")?,
                cross_shader_stage_hits: count("cross_shader_stage_hits")?,
                emissions: count("emissions")?,
                emissions_by_backend,
                emission_hits: count("emission_hits")?,
                cross_shader_emission_hits: count("cross_shader_emission_hits")?,
                evictions: count("evictions")?,
                warm_stage_hits: warm_count("warm_stage_hits")?,
                warm_emission_hits: warm_count("warm_emission_hits")?,
                warm_entries_loaded: warm_count("warm_entries_loaded")?,
                warm_shards_loaded: warm_count("warm_shards_loaded")?,
                warm_shards_skipped: warm_count("warm_shards_skipped")?,
                warm_entries_skipped: warm_count("warm_entries_skipped")?,
                // The serving counters postdate the warm-start ones; the
                // same absent-key-means-0 compatibility applies.
                routed_requests: warm_count("routed_requests")?,
                coalesced_requests: warm_count("coalesced_requests")?,
                // The static-analysis plane postdates the serving counters.
                static_analyses: warm_count("static_analyses")?,
                analysis_memo_hits: warm_count("analysis_memo_hits")?,
                warm_analysis_hits: warm_count("warm_analysis_hits")?,
                warm_verify_rejects: warm_count("warm_verify_rejects")?,
            },
        })
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
    /// Uniform-value specialization arms (the AZP axis), when the study ran
    /// with specialization enabled. Empty for flag-only studies.
    pub specializations: Vec<SpecializationRecord>,
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

/// Reads the driver counters. Reports written before the driver memo
/// existed have none; an absent counter reads as 0.
fn driver_from_value(v: Option<&serde::Value>) -> Result<DriverStats, String> {
    let count = |name: &str| match v.and_then(|v| v.get(name)) {
        Some(value) => serde::Deserialize::from_value(value),
        None => Ok(0),
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
            (
                "specializations".to_string(),
                self.specializations.to_value(),
            ),
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
        // Reports written before the warning channel / the specialization
        // axis landed simply omit those keys; absent means empty, not
        // malformed.
        let warnings = match v.get("warnings") {
            Some(value) => serde::Deserialize::from_value(value)?,
            None => Vec::new(),
        };
        let specializations = match v.get("specializations") {
            Some(value) => serde::Deserialize::from_value(value)?,
            None => Vec::new(),
        };
        Ok(StudyResults {
            shaders: serde::Deserialize::from_value(field("shaders")?)?,
            measurements: serde::Deserialize::from_value(field("measurements")?)?,
            skipped: serde::Deserialize::from_value(field("skipped")?)?,
            cache: serde::Deserialize::from_value(field("cache")?)?,
            search: serde::Deserialize::from_value(field("search")?)?,
            warnings,
            specializations,
            driver: driver_from_value(v.get("driver"))?,
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
                candidates_pruned: 5,
                max_compiles: 19,
                mean_speedup: 18.5,
                oracle_mean_speedup: 20.0,
                default_mean_speedup: 12.0,
                regret_checkpoints: vec![1, 2, 4, 8, 16, 32, 63],
                mean_regret: vec![5.0, 3.0, 2.0, 1.5, 1.5, 0.5, 0.5],
                regret_final: 0.5,
            }],
            warnings: vec!["warm-start dir was read-only".into()],
            specializations: vec![SpecializationRecord {
                shader: "s".into(),
                vendor: "AMD".into(),
                spec: "u1=0".into(),
                flag_bits: 0b0110_0001,
                general_ns: 1000.0,
                specialized_ns: 850.0,
                guard_ns: 4.0,
                interp_confirms: 10,
            }],
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
        assert_eq!(restored.specializations, study.specializations);
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
    fn legacy_glsl_version_key_still_deserializes() {
        // Reports written before the study spoke SPIR-V/MSL used
        // `driver_glsl_version`; they must keep loading under the renamed
        // field, and new reports must serialise the new key.
        let json = serde_json::to_string(&record()).unwrap();
        assert!(json.contains("\"driver_source_version\":\"450\""));
        assert!(!json.contains("driver_glsl_version"));
        let legacy = json.replace("driver_source_version", "driver_glsl_version");
        let restored: ShaderPlatformRecord = serde_json::from_str(&legacy).unwrap();
        assert_eq!(restored, record());
    }

    #[test]
    fn pre_regret_search_records_still_deserialize() {
        // Search rows written before the regret curve existed must keep
        // loading, with an empty curve and zero final regret.
        let old = r#"{"vendor":"AMD","strategy":"ablation","shaders":5,"budget":63,"mean_compiles":10.0,"max_compiles":10,"mean_speedup":17.0,"oracle_mean_speedup":20.0,"default_mean_speedup":12.0}"#;
        let record: SearchRecord = serde_json::from_str(old).unwrap();
        assert_eq!(record.strategy, "ablation");
        assert!(record.regret_checkpoints.is_empty());
        assert!(record.mean_regret.is_empty());
        assert_eq!(record.regret_final, 0.0);
        // Ditto the prefilter counter, which postdates the regret curve.
        assert_eq!(record.candidates_pruned, 0);
    }

    #[test]
    fn pre_warm_start_cache_records_still_deserialize() {
        // study-report.json artifacts written before the warm-start counters
        // existed must stay readable, with the counters defaulted to 0.
        let old = r#"{"shared":true,"sessions":1,"stage_runs":7,"stage_hits":21,"cross_shader_stage_hits":3,"emissions":4,"emission_hits":8,"cross_shader_emission_hits":2,"evictions":5}"#;
        let record: CacheRecord = serde_json::from_str(old).unwrap();
        assert_eq!(record.stats.stage_runs, 7);
        assert_eq!(record.stats.warm_stage_hits, 0);
        assert_eq!(record.stats.warm_shards_skipped, 0);
        assert_eq!(record.stats.static_analyses, 0);
        assert_eq!(record.stats.warm_verify_rejects, 0);
    }

    #[test]
    fn pre_specialization_reports_still_deserialize() {
        // study-report.json artifacts written before the specialization axis
        // (and before the warning channel) omit those keys entirely; they
        // must load with both defaulted to empty.
        let old = r#"{"shaders":[],"measurements":[],"skipped":[],"cache":{"shared":false,"sessions":0,"stage_runs":0,"stage_hits":0,"cross_shader_stage_hits":0,"emissions":0,"emission_hits":0,"cross_shader_emission_hits":0,"evictions":0},"search":[]}"#;
        let restored = StudyResults::from_json(old).unwrap();
        assert!(restored.warnings.is_empty());
        assert!(restored.specializations.is_empty());
        // Ditto the driver-memo counters, and any one of them.
        assert_eq!(restored.driver, DriverStats::default());
        let partial = old.replace(
            r#""search":[]"#,
            r#""search":[],"driver":{"front_parses":3}"#,
        );
        let restored = StudyResults::from_json(&partial).unwrap();
        assert_eq!(restored.driver.front_parses, 3);
        assert_eq!(restored.driver.stage_runs, 0);
    }

    #[test]
    fn specialization_records_report_both_sides_of_the_guard() {
        let rec = SpecializationRecord {
            shader: "s".into(),
            vendor: "AMD".into(),
            spec: "u0=0".into(),
            flag_bits: 0,
            general_ns: 1000.0,
            specialized_ns: 750.0,
            guard_ns: 10.0,
            interp_confirms: 10,
        };
        // Holding: (1000 - 760) / 1000 = 24% win, guard included.
        assert!((rec.win_when_holds() - 24.0).abs() < 1e-9);
        // Violated: the guard is pure overhead, 10/1000 = 1%.
        assert!((rec.overhead_when_violated() - 1.0).abs() < 1e-9);
        assert!(rec.overhead_when_violated() >= 0.0);
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
