//! Online flag tuning as a compile-service tenant.
//!
//! [`CompileService::tune`] runs a measurement-in-the-loop flag search for
//! one shader on one simulated platform, *through the service itself*: every
//! candidate combination the search strategy wants to try becomes an
//! ordinary [`CompileRequest`] and takes the same route → memo → coalesce →
//! run path as serving traffic. The consequences are exactly the ones the
//! service was built for:
//!
//! * variants the serving plane already emitted cost the search tenant a
//!   memo hit (an `Arc<str>` refcount bump), not an emission — and vice
//!   versa: variants the tuner paid for are served zero-copy afterwards;
//! * concurrent tuners and servers missing the memo on the same
//!   `(fingerprint, flags, backend)` coalesce onto one compile;
//! * the tuner's compiles warm the shared [`CorpusCache`](prism_core::CorpusCache) for the whole
//!   übershader family.
//!
//! Measurement goes through [`prism_search::LiveEvaluator`]: the emitted
//! text is submitted to the platform's driver model and timed by the
//! harness's quick loop ([`MeasureConfig::quick`]) under a deterministic
//! per-(shader, platform) noise stream, so a tune pass is reproducible end
//! to end. The search itself is the deterministic UCB1 bandit
//! ([`Ucb1`], no RNG), warm-started from the family's best-known set
//! (tracked service-side, last-wins, across tune passes); ε-greedy competes
//! only in the study's strategy table. When the caller holds an exhaustive
//! [`ShaderPlatformRecord`] for the same (shader, platform), passing it to
//! [`CompileService::tune_spec`] scores the run's anytime behaviour as a
//! [`RegretTracker`] curve and publishes the final regret in
//! [`ServiceStats::tune_regret_x1000`](crate::ServiceStats).

use crate::service::{CompileRequest, CompileService, ServeError};
use prism_core::OptFlags;
use prism_gpu::{Platform, Vendor};
use prism_harness::MeasureConfig;
use prism_search::{
    CompileHandle, LiveEvaluator, RegretTracker, SearchDriver, SearchStrategy,
    ShaderPlatformRecord, StaticCostHook, Ucb1,
};

/// Everything one tune pass needs beyond the source text. The bandit
/// ([`Ucb1`]) and the measurement loop ([`MeasureConfig::quick`]) are fixed;
/// a spec picks the platform, the budget, the family and the prefilter.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TuneSpec {
    /// The platform to tune for (decides the emission backend too).
    pub vendor: Vendor,
    /// Hard cap on distinct flag combinations measured.
    pub budget: usize,
    /// Übershader family for warm-start bookkeeping (`None` = the global
    /// pool).
    pub family: Option<String>,
    /// When `true`, candidates whose static cost
    /// ([`CompileService::analyze`]) is dominated by an already-measured
    /// arm skip their timing measurement (the warm start and the LunarGlass
    /// default are always truly measured). Pruned arms are counted in
    /// [`TuneOutcome::candidates_pruned`] and
    /// [`ServiceStats::search_candidates_pruned`](crate::ServiceStats).
    pub static_prefilter: bool,
}

impl TuneSpec {
    /// A spec for `vendor` with the service defaults: budget 16, the
    /// global warm-start pool, no prefilter.
    pub fn new(vendor: Vendor) -> TuneSpec {
        TuneSpec {
            vendor,
            budget: 16,
            family: None,
            static_prefilter: false,
        }
    }

    /// This spec with a different measurement budget.
    pub fn with_budget(mut self, budget: usize) -> TuneSpec {
        self.budget = budget;
        self
    }

    /// This spec tagged with an übershader family for warm-start sharing.
    pub fn with_family(mut self, family: impl Into<String>) -> TuneSpec {
        self.family = Some(family.into());
        self
    }

    /// This spec with the static-cost prefilter switched on or off.
    pub fn with_static_prefilter(mut self, on: bool) -> TuneSpec {
        self.static_prefilter = on;
        self
    }
}

/// What one tune pass found and spent.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// Platform name tuned for.
    pub vendor: String,
    /// The best flag combination found.
    pub best_flags: OptFlags,
    /// Its measured mean frame time (nanoseconds).
    pub best_ns: f64,
    /// Timing measurements taken (distinct combinations measured; the
    /// budgeted resource).
    pub measurements_taken: usize,
    /// Distinct combinations compiled through the service.
    pub search_compiles: usize,
    /// Candidates whose timing measurement the static prefilter skipped
    /// (always 0 with [`TuneSpec::static_prefilter`] off).
    pub candidates_pruned: usize,
    /// The budget the driver enforced.
    pub budget: usize,
    /// The combination the bandit evaluated first (the family's best-known
    /// set, or the LunarGlass default on a cold service).
    pub warm_start: OptFlags,
    /// Regret-vs-measurements curve against the exhaustive oracle — only
    /// when [`CompileService::tune_spec`] was given a record to score
    /// against.
    pub regret: Option<RegretTracker>,
}

impl CompileService {
    /// Tunes `source` for `vendor` under a measurement `budget`, with the
    /// default spec (global warm-start pool, no prefilter). See
    /// [`CompileService::tune_spec`].
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the source never produces a measurable variant
    /// (front-stage rejection, unknown target, compile failure).
    pub fn tune(
        &self,
        source: &str,
        vendor: Vendor,
        budget: usize,
    ) -> Result<TuneOutcome, ServeError> {
        self.tune_spec(source, &TuneSpec::new(vendor).with_budget(budget), None)
    }

    /// Tunes `source` per `spec`, routing every candidate compile through
    /// this service (see the [module docs](self)). With `oracle` set — an
    /// exhaustive record for the same (shader, platform) — the pass is also
    /// scored as a regret curve and the final regret lands in
    /// [`ServiceStats::tune_regret_x1000`](crate::ServiceStats).
    ///
    /// # Errors
    ///
    /// [`ServeError`] when no combination could be evaluated at all; the
    /// error is re-derived from a direct compile of the warm-start
    /// combination so the caller sees the front-end or compile failure
    /// rather than a generic "nothing measured".
    pub fn tune_spec(
        &self,
        source: &str,
        spec: &TuneSpec,
        oracle: Option<&ShaderPlatformRecord>,
    ) -> Result<TuneOutcome, ServeError> {
        let platform = Platform::new(spec.vendor);
        let backend = platform.backend();
        let family = spec.family.clone().unwrap_or_default();
        let warm = self
            .tune_warm_hint(&family)
            .unwrap_or_else(OptFlags::lunarglass_default);

        let compile: CompileHandle = Box::new(|flags| {
            let request = CompileRequest::builder(source)
                .flags(flags)
                .backend(backend)
                .build();
            self.compile(&request)
                .map(|response| response.text)
                .map_err(|e| e.to_string())
        });
        // The shader's measurement identity is its source hash — the same
        // name the front stage gives the IR — so re-tuning the same text
        // reproduces byte-identical noise streams.
        let shader_name = crate::service::source_name(source);
        let mut evaluator =
            LiveEvaluator::new(compile, &platform, shader_name, MeasureConfig::quick())
                .with_warm_start(warm);
        if spec.static_prefilter {
            // Per-candidate static cost through the service's analysis path:
            // memoised per (fingerprint, personality), so a candidate that
            // collapses to an already-analysed optimized form costs a memo
            // hit, not a walk.
            let hook: StaticCostHook = Box::new(move |flags| {
                self.analyze(source, flags, spec.vendor)
                    .ok()
                    .map(|report| report.cost.estimated_cycles)
            });
            evaluator = evaluator.with_static_prefilter(hook);
        }
        let driver = SearchDriver::over(Box::new(evaluator), spec.budget);

        Ucb1 { exploration: 1.5 }.run(&driver);

        let Some((best_flags, best_ns)) = driver.best_evaluated() else {
            // Nothing measured: surface the underlying service error.
            let request = CompileRequest::builder(source)
                .flags(warm)
                .backend(backend)
                .build();
            return Err(match self.compile(&request) {
                Err(e) => e,
                Ok(_) => ServeError::Compile(
                    "platform driver rejected every measured variant".to_string(),
                ),
            });
        };

        let cost = driver.cost();
        let regret = oracle
            .map(|record| RegretTracker::from_log(&driver.evaluation_log(), record, spec.budget));
        let regret_x1000 = regret
            .as_ref()
            .map(|r| (r.final_regret().max(0.0) * 1000.0).round() as usize);
        self.record_tune(
            &family,
            best_flags,
            cost.measurements,
            cost.compiles,
            cost.candidates_pruned,
            regret_x1000,
        );

        Ok(TuneOutcome {
            vendor: spec.vendor.name().to_string(),
            best_flags,
            best_ns,
            measurements_taken: cost.measurements,
            search_compiles: cost.compiles,
            candidates_pruned: cost.candidates_pruned,
            budget: spec.budget,
            warm_start: warm,
            regret,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use prism_emit::BackendKind;

    const SHADER: &str = r#"
        uniform sampler2D tex; uniform vec4 ambient; in vec2 uv; out vec4 c;
        void main() {
            const vec2[] offs = vec2[](vec2(-0.01), vec2(0.0), vec2(0.01));
            c = vec4(0.0);
            float total = 0.0;
            for (int i = 0; i < 3; i++) {
                total += 0.25;
                c += texture(tex, uv + offs[i]) * 2.0 * ambient;
            }
            c /= total;
        }
    "#;

    #[test]
    fn tune_is_deterministic_and_respects_its_budget() {
        let run = || {
            let service = CompileService::new(ServeConfig::default());
            let outcome = service.tune(SHADER, Vendor::Amd, 12).unwrap();
            let stats = service.stats();
            (outcome, stats)
        };
        let (a, a_stats) = run();
        let (b, b_stats) = run();
        assert_eq!(a, b, "same spec on a fresh service must reproduce exactly");
        assert_eq!(a_stats, b_stats);
        assert!(a.measurements_taken <= 12, "{a:?}");
        assert_eq!(a.search_compiles, a.measurements_taken);
        assert_eq!(a.warm_start, OptFlags::lunarglass_default());
        assert!(a.best_ns > 0.0);
        assert_eq!(a_stats.tune_requests, 1);
        assert_eq!(a_stats.measurements_taken, a.measurements_taken);
        assert_eq!(a_stats.search_compiles, a.search_compiles);
        // No oracle: the regret gauge stays untouched.
        assert_eq!(a_stats.tune_regret_x1000, 0);
        assert!(a.regret.is_none());
    }

    #[test]
    fn second_tune_warm_starts_from_the_first_and_reuses_the_memo() {
        let service = CompileService::new(ServeConfig::default());
        let first = service.tune(SHADER, Vendor::Amd, 12).unwrap();
        let emissions_after_first = service.stats().cache.emissions;
        let second = service.tune(SHADER, Vendor::Amd, 12).unwrap();
        assert_eq!(second.warm_start, first.best_flags);
        // The second pass starts from a different incumbent, so it may
        // explore a few fresh combinations — but the bulk of its compiles
        // must be answered by the memo the first pass paid for.
        let new_emissions = service.stats().cache.emissions - emissions_after_first;
        assert!(
            new_emissions < second.search_compiles,
            "second tune re-emitted everything: {new_emissions} of {}",
            second.search_compiles
        );
        assert!(service.stats().cache.emission_hits > 0);
        assert_eq!(service.stats().tune_requests, 2);
    }

    #[test]
    fn tune_on_a_mobile_platform_compiles_the_gles_form() {
        let service = CompileService::new(ServeConfig::default());
        let outcome = service.tune(SHADER, Vendor::Arm, 8).unwrap();
        assert!(outcome.measurements_taken <= 8);
        // The Mali platform consumes GLES text: the service emitted through
        // that backend, not desktop GLSL.
        assert!(service.stats().cache.emissions_by_backend[BackendKind::Gles.index()] > 0);
        assert_eq!(
            service.stats().cache.emissions_by_backend[BackendKind::DesktopGlsl.index()],
            0
        );
    }

    #[test]
    fn tune_surfaces_frontend_errors() {
        let service = CompileService::new(ServeConfig::default());
        let err = service
            .tune("void main() { broken", Vendor::Amd, 4)
            .unwrap_err();
        assert!(matches!(err, ServeError::Frontend(_)), "{err:?}");
        // A failed tune records nothing.
        assert_eq!(service.stats().tune_requests, 0);
    }

    #[test]
    fn static_prefilter_accounting_is_deterministic_and_consistent() {
        let spec = TuneSpec::new(Vendor::Amd)
            .with_budget(12)
            .with_static_prefilter(true);
        let run = || {
            let service = CompileService::new(ServeConfig::default());
            let outcome = service.tune_spec(SHADER, &spec, None).unwrap();
            let stats = service.stats();
            (outcome, stats)
        };
        let (a, a_stats) = run();
        let (b, b_stats) = run();
        assert_eq!(a, b, "prefilter tunes must reproduce exactly");
        assert_eq!(a_stats, b_stats);
        // Every evaluated arm was either truly measured or statically
        // pruned; the analysis path never loses one.
        assert_eq!(
            a.search_compiles,
            a.measurements_taken + a.candidates_pruned
        );
        assert_eq!(a_stats.search_candidates_pruned, a.candidates_pruned);
        // The prefilter's analyses went through the shared memo.
        assert!(a_stats.cache.static_analyses > 0);
        assert!(a.best_ns > 0.0);
    }
}
