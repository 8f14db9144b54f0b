//! The evaluation seam of incremental flag search.
//!
//! A [`SearchDriver`](crate::driver::SearchDriver) used to be hardwired to
//! score candidates against a pre-measured exhaustive
//! [`ShaderPlatformRecord`] — which made search strictly *offline*: it could
//! replay the study's timings but never run where no exhaustive sweep has
//! been paid for. This module owns the seam instead: an [`Evaluator`] turns
//! a flag combination into a frame time and keeps a cost ledger
//! ([`EvalCost`]), and the driver only enforces budget + memoisation on top.
//!
//! Two evaluators ship:
//!
//! * [`OracleEvaluator`] — today's behaviour, bit for bit: compile through a
//!   live [`CompileSession`] (so the compile *cost* is real and
//!   pay-as-you-go against the warm cache), read the *timing* from the
//!   exhaustive study's record. Used by
//!   [`incremental_search_records`](crate::driver::incremental_search_records)
//!   and everything Figure-10 shaped, where the oracle comparison must be
//!   exact.
//! * [`LiveEvaluator`] — measurement-in-the-loop: compile through any
//!   compile handle (a closure — typically a `prism_serve::CompileService`,
//!   so search traffic and serving traffic share one memo plane), submit the
//!   emitted text to a [`Platform`]'s driver, and time it with the harness
//!   under a deterministic per-shader noise stream. No exhaustive record is
//!   required or consulted.

use crate::results::ShaderPlatformRecord;
use prism_core::{CompileSession, OptFlags};
use prism_emit::BackendKind;
use prism_gpu::Platform;
use prism_harness::{measure_cost, MeasureConfig};
use std::cell::RefCell;
use std::sync::Arc;

/// What one search run has spent so far, in the units that matter to each
/// evaluator: compiles are the pay-as-you-go cost both modes share;
/// measurements exist only in live mode, where device time is the scarce
/// resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCost {
    /// Distinct flag combinations compiled.
    pub compiles: usize,
    /// Timing measurements taken (live mode; 0 for the oracle).
    pub measurements: usize,
    /// Candidates whose measurement was skipped because the static cost
    /// model ranked them strictly behind an already-measured arm (the
    /// static prefilter; 0 when the prefilter is off or in oracle mode).
    pub candidates_pruned: usize,
}

/// A source of frame times for flag combinations — the thing a
/// [`SearchDriver`](crate::driver::SearchDriver) wraps with budget and
/// memoisation. `evaluate` is called at most once per distinct combination
/// (the driver memoises); returning `None` reports an evaluation failure and
/// stops the strategy the same way budget exhaustion does.
pub trait Evaluator {
    /// Frame time (nanoseconds) of the variant `flags` produces, or `None`
    /// when this combination cannot be evaluated.
    fn evaluate(&self, flags: OptFlags) -> Option<f64>;

    /// Deterministic seed component tied to this evaluator's (shader,
    /// platform) identity, for reproducible randomised strategies. Uses
    /// FNV-1a rather than `DefaultHasher` so the stream — and therefore the
    /// perf gate's committed search counters — is stable across Rust
    /// releases.
    fn context_seed(&self) -> u64;

    /// The cost ledger so far.
    fn cost(&self) -> EvalCost;

    /// The combination a warm-started strategy should evaluate first —
    /// the übershader family's best-known set when one is known. `None`
    /// means "no prior": strategies fall back to the LunarGlass default.
    fn warm_start(&self) -> Option<OptFlags> {
        None
    }
}

/// FNV-1a over `shader NUL vendor` — the (shader, platform) identity hash
/// both evaluators key their RNG streams on.
pub(crate) fn context_seed_for(shader: &str, vendor: &str) -> u64 {
    prism_core::fnv64(format!("{shader}\0{vendor}").as_bytes())
}

/// The offline evaluator: compiles through a live [`CompileSession`] (real,
/// incremental compile cost against the warm cache) and replays the
/// exhaustive study's deterministic timing for whatever variant the flags
/// produce — so strategy results are *exactly* comparable to the oracle.
pub struct OracleEvaluator<'a> {
    session: &'a CompileSession,
    record: &'a ShaderPlatformRecord,
    backend: BackendKind,
    ledger: RefCell<EvalCost>,
}

impl<'a> OracleEvaluator<'a> {
    /// An evaluator over `session`, scoring against `record`, emitting
    /// through `backend` (the platform's declared backend).
    pub fn new(
        session: &'a CompileSession,
        record: &'a ShaderPlatformRecord,
        backend: BackendKind,
    ) -> OracleEvaluator<'a> {
        OracleEvaluator {
            session,
            record,
            backend,
            ledger: RefCell::new(EvalCost::default()),
        }
    }

    /// The record being scored against (timing oracle and shader identity).
    pub fn record(&self) -> &ShaderPlatformRecord {
        self.record
    }
}

impl Evaluator for OracleEvaluator<'_> {
    fn evaluate(&self, flags: OptFlags) -> Option<f64> {
        // The actual pay-as-you-go compilation: exactly this combination,
        // through the platform's backend, against the warm session cache.
        self.session.text_for(flags, self.backend).ok()?;
        self.ledger.borrow_mut().compiles += 1;
        Some(self.record.time_for(flags))
    }

    fn context_seed(&self) -> u64 {
        context_seed_for(&self.record.shader, &self.record.vendor)
    }

    fn cost(&self) -> EvalCost {
        *self.ledger.borrow()
    }
}

/// The compile handle a [`LiveEvaluator`] draws emitted text from. The
/// `Arc<str>` return is deliberate: a `prism_serve::CompileService` answers
/// with its emission memo's shared handle, so search traffic that hits
/// text the serving plane already emitted costs a refcount bump, not a copy.
pub type CompileHandle<'a> = Box<dyn Fn(OptFlags) -> Result<Arc<str>, String> + 'a>;

/// The static-cost hook a [`LiveEvaluator`] prefilters through: maps a flag
/// combination to the static cost model's estimated cycles for the variant
/// it produces (typically `prism_serve::CompileService::analyze`, so the
/// walk is memoised per `(fingerprint, personality)` in the corpus cache).
/// `None` means "no static estimate" — the candidate is measured normally.
pub type StaticCostHook<'a> = Box<dyn Fn(OptFlags) -> Option<f64> + 'a>;

/// The measurement-in-the-loop evaluator: compile through a shared handle,
/// submit to the platform's driver, time with the harness. Every evaluation
/// spends real (simulated) device time, tracked in the ledger — the driver's
/// budget is therefore a *measurement* budget, the scarce resource of online
/// tuning.
pub struct LiveEvaluator<'a> {
    compile: CompileHandle<'a>,
    platform: &'a Platform,
    shader: String,
    measure: MeasureConfig,
    stream: u64,
    warm: Option<OptFlags>,
    static_cost: Option<StaticCostHook<'a>>,
    /// Best measured arm so far as (measured ns, static cost) — the
    /// incumbent the prefilter compares candidates against.
    incumbent: RefCell<Option<(f64, f64)>>,
    ledger: RefCell<EvalCost>,
}

impl<'a> LiveEvaluator<'a> {
    /// A live evaluator for `shader` on `platform`, compiling through
    /// `compile` (typically a closure over a `CompileService`) and timing
    /// each variant with `measure`. The noise stream is derived from the
    /// (shader, platform) identity, keeping runs reproducible.
    pub fn new(
        compile: CompileHandle<'a>,
        platform: &'a Platform,
        shader: impl Into<String>,
        measure: MeasureConfig,
    ) -> LiveEvaluator<'a> {
        let shader = shader.into();
        let stream = context_seed_for(&shader, platform.vendor().name());
        LiveEvaluator {
            compile,
            platform,
            shader,
            measure,
            stream,
            warm: None,
            static_cost: None,
            incumbent: RefCell::new(None),
            ledger: RefCell::new(EvalCost::default()),
        }
    }

    /// Warm-start hint: the family's best-known set, evaluated first by the
    /// explore/exploit strategies.
    pub fn with_warm_start(mut self, flags: OptFlags) -> LiveEvaluator<'a> {
        self.warm = Some(flags);
        self
    }

    /// Installs the static prefilter: before spending a timing measurement
    /// on a candidate, ask `hook` for its static cost and — once at least
    /// one arm has been measured — skip candidates whose static cost is at
    /// or above the best measured arm's. A pruned candidate
    /// still compiles (the hook needs the optimized IR) but costs zero
    /// measurements; it reports a *pessimistic* predicted time, scaled above
    /// the incumbent by the static-cost ratio, so the deploy-now choice can
    /// never land on an arm nobody measured. The warm-start set and the
    /// LunarGlass default are exempt — the quality floor both the search
    /// table and the tune tenant assert against is always truly measured.
    pub fn with_static_prefilter(mut self, hook: StaticCostHook<'a>) -> LiveEvaluator<'a> {
        self.static_cost = Some(hook);
        self
    }

    /// Measures `text` under this evaluator's deterministic noise stream and
    /// updates the ledger (and the prefilter incumbent, when `static_cost`
    /// carries the candidate's static estimate).
    fn measure(&self, text: &str, flags: OptFlags, static_cost: Option<f64>) -> Option<f64> {
        let cost = self.platform.submit(text, &self.shader).ok()?;
        // One stream per flag combination (mirroring the sweep's
        // per-variant streams), so re-tuning reproduces byte-identical
        // measurements.
        let stream = self.stream.wrapping_add(1 + flags.bits() as u64);
        let m = measure_cost(self.platform, &cost, &self.measure, stream);
        let mut ledger = self.ledger.borrow_mut();
        ledger.measurements += 1;
        if let Some(s) = static_cost {
            let mut incumbent = self.incumbent.borrow_mut();
            if incumbent.is_none_or(|(best_ns, _)| m.mean_ns < best_ns) {
                *incumbent = Some((m.mean_ns, s));
            }
        }
        Some(m.mean_ns)
    }
}

impl Evaluator for LiveEvaluator<'_> {
    fn evaluate(&self, flags: OptFlags) -> Option<f64> {
        let text = (self.compile)(flags).ok()?;
        self.ledger.borrow_mut().compiles += 1;
        let Some(hook) = &self.static_cost else {
            return self.measure(&text, flags, None);
        };
        let Some(s) = hook(flags) else {
            // No static estimate for this candidate: measure it normally
            // (but it cannot seed the incumbent without a static cost).
            return self.measure(&text, flags, None);
        };
        let exempt = Some(flags) == self.warm || flags == OptFlags::lunarglass_default();
        if !exempt {
            if let Some((best_ns, best_static)) = *self.incumbent.borrow() {
                if s >= best_static && best_static > 0.0 {
                    // Statically dominated (at-or-above the incumbent: equal
                    // static cost almost always means the flags collapsed to
                    // the incumbent's own optimized variant, and re-timing it
                    // under a fresh noise stream buys nothing): skip the
                    // measurement and report a prediction strictly worse
                    // than the incumbent, so neither the strategy's
                    // best-seen nor the prefix-best deploy choice can select
                    // an unmeasured arm.
                    self.ledger.borrow_mut().candidates_pruned += 1;
                    return Some(best_ns * (s / best_static) * (1.0 + 1e-9));
                }
            }
        }
        self.measure(&text, flags, Some(s))
    }

    fn context_seed(&self) -> u64 {
        self.stream
    }

    fn cost(&self) -> EvalCost {
        *self.ledger.borrow()
    }

    fn warm_start(&self) -> Option<OptFlags> {
        self.warm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_gpu::Vendor;

    const SHADER: &str = "uniform sampler2D tex; uniform vec4 tint; in vec2 uv; out vec4 c;\n\
        void main() { c = texture(tex, uv) * tint * 2.0 * tint; }";

    fn live_session() -> CompileSession {
        let source = prism_glsl::ShaderSource::parse(SHADER).unwrap();
        CompileSession::new(&source, "live").unwrap()
    }

    #[test]
    fn live_evaluator_measures_deterministically_and_ledgers() {
        let session = live_session();
        let platform = Platform::new(Vendor::Amd);
        let run = || {
            let compile: CompileHandle = Box::new(|flags| {
                session
                    .text_for(flags, BackendKind::DesktopGlsl)
                    .map_err(|e| e.to_string())
            });
            let eval = LiveEvaluator::new(compile, &platform, "live", MeasureConfig::quick());
            let t_none = eval.evaluate(OptFlags::NONE).unwrap();
            let t_all = eval.evaluate(OptFlags::all()).unwrap();
            (t_none, t_all, eval.cost())
        };
        let (a_none, a_all, a_cost) = run();
        let (b_none, b_all, b_cost) = run();
        assert_eq!((a_none, a_all), (b_none, b_all));
        assert_eq!(a_cost, b_cost);
        assert_eq!(a_cost.compiles, 2);
        assert_eq!(a_cost.measurements, 2);
        assert!(a_none > 0.0 && a_all > 0.0);
    }

    #[test]
    fn live_evaluator_reports_compile_failures_as_none() {
        let platform = Platform::new(Vendor::Intel);
        let compile: CompileHandle = Box::new(|_| Err("down".to_string()));
        let eval = LiveEvaluator::new(compile, &platform, "down", MeasureConfig::quick());
        assert!(eval.evaluate(OptFlags::NONE).is_none());
        assert_eq!(eval.cost(), EvalCost::default());
    }

    #[test]
    fn static_prefilter_skips_dominated_candidates_but_measures_exempt_arms() {
        let session = live_session();
        let platform = Platform::new(Vendor::Amd);
        let compile: CompileHandle = Box::new(|flags| {
            session
                .text_for(flags, BackendKind::DesktopGlsl)
                .map_err(|e| e.to_string())
        });
        // Synthetic static model: every extra flag costs more cycles, so
        // anything beyond the empty set is statically dominated.
        let hook: StaticCostHook = Box::new(|flags| Some(1.0 + flags.len() as f64));
        let eval = LiveEvaluator::new(compile, &platform, "prefilter", MeasureConfig::quick())
            .with_static_prefilter(hook);

        let t_none = eval.evaluate(OptFlags::NONE).unwrap();
        // Dominated: pruned with a pessimistic prediction strictly above the
        // incumbent, and no timing measurement spent.
        let t_all = eval.evaluate(OptFlags::all()).unwrap();
        assert!(
            t_all > t_none,
            "pruned arm must predict worse: {t_all} vs {t_none}"
        );
        // The LunarGlass default is exempt: measured even though dominated.
        let t_default = eval.evaluate(OptFlags::lunarglass_default()).unwrap();
        assert!(t_default > 0.0);

        let cost = eval.cost();
        assert_eq!(cost.compiles, 3, "pruned arms still compile");
        assert_eq!(
            cost.measurements, 2,
            "only the undominated + exempt arms measure"
        );
        assert_eq!(cost.candidates_pruned, 1);
    }

    #[test]
    fn warm_start_defaults_to_none_and_is_settable() {
        let platform = Platform::new(Vendor::Arm);
        let compile: CompileHandle = Box::new(|_| Err("unused".to_string()));
        let eval = LiveEvaluator::new(compile, &platform, "w", MeasureConfig::quick());
        assert_eq!(eval.warm_start(), None);
        let compile: CompileHandle = Box::new(|_| Err("unused".to_string()));
        let eval = LiveEvaluator::new(compile, &platform, "w", MeasureConfig::quick())
            .with_warm_start(OptFlags::all());
        assert_eq!(eval.warm_start(), Some(OptFlags::all()));
    }
}
