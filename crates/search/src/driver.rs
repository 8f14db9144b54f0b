//! Incremental flag search over live compile sessions.
//!
//! The paper answers "which flags help this shader?" by brute force: all 256
//! combinations are compiled, measured, and ranked (§III-A). PR 1–2 made that
//! exhaustive sweep fast; this module makes it *unnecessary* for workloads
//! that cannot afford it. A [`SearchDriver`] wraps one live
//! [`CompileSession`] and one platform's measurement record, and compiles
//! exactly the combinations a [`SearchStrategy`] asks for — pay-as-you-go
//! against the session's warm (possibly corpus-shared, possibly bounded)
//! cache — while enforcing a hard compile budget.
//!
//! Four strategies ship, mirroring the classic iterative-compilation
//! playbook:
//!
//! * [`GreedyForward`] — start from no flags and greedily add the single
//!   flag with the best improvement until nothing improves;
//! * [`GreedyBackward`] — start from the LunarGlass defaults and greedily
//!   drop flags that do not help (it can only match or beat the default,
//!   since the default itself is its first evaluation);
//! * [`Ablation`] — evaluate the default, each single-flag ablation
//!   (default minus one stock flag, default plus one custom flag), and the
//!   refined combination those ablations suggest;
//! * [`RandomRestartHillClimb`] — seeded random restarts with single-bit
//!   hill climbing, the strategy that keeps exploring until the budget runs
//!   dry.
//!
//! Scoring goes through the [`Evaluator`] seam (see
//! [`crate::evaluator`]): the [`OracleEvaluator`] replays the exhaustive
//! study's own deterministic measurement for a given variant — so strategy
//! results are directly comparable to the oracle while paying for far fewer
//! compilations — and the [`LiveEvaluator`](crate::evaluator::LiveEvaluator)
//! measures variants as it searches, no exhaustive record required. The
//! explore/exploit bandit strategies ([`EpsilonGreedy`](crate::bandit::EpsilonGreedy),
//! [`Ucb1`](crate::bandit::Ucb1)) live in [`crate::bandit`] alongside the
//! [`RegretTracker`] that scores every
//! strategy's evaluation log against the oracle.
//! [`incremental_search_records`] aggregates the comparison per (platform,
//! strategy) into [`SearchRecord`] rows — regret-vs-measurements curves
//! included — for [`StudyResults::search`](crate::results::StudyResults)
//! and the Fig. 10 style report table.

use crate::bandit::RegretTracker;
use crate::evaluator::{EvalCost, Evaluator, OracleEvaluator};
use crate::results::{percent_speedup, SearchRecord, StudyResults};
use crate::sweep::StudyConfig;
use prism_core::{CacheStore, CompileSession, CorpusCache, Flag, OptFlags};
use prism_corpus::Corpus;
use prism_emit::BackendKind;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of an incremental search run: the compile budget, the
/// strategies' seed and the hill-climb restart count. (The live tuner's
/// static prefilter is `prism_serve::TuneSpec::static_prefilter`; this
/// search replays the study's timings and takes no measurement to skip.)
///
/// Marked `#[non_exhaustive]`: construct with [`SearchConfig::default`] and
/// the `with_*` setters, so future knobs are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchConfig {
    /// Hard cap on distinct flag combinations each strategy may compile per
    /// (shader, platform). The default, 63, keeps every strategy strictly
    /// under a quarter of the exhaustive 256.
    pub budget: usize,
    /// Seed for the randomised strategies (deterministic per (shader,
    /// platform, strategy) — reruns reproduce byte-identical records).
    pub seed: u64,
    /// Restart count for [`RandomRestartHillClimb`].
    pub restarts: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            budget: 63,
            seed: 0x5EED_CAFE,
            restarts: 3,
        }
    }
}

impl SearchConfig {
    /// This config with a different per-shader compile budget.
    pub fn with_budget(mut self, budget: usize) -> SearchConfig {
        self.budget = budget;
        self
    }

    /// This config with a different strategy seed.
    pub fn with_seed(mut self, seed: u64) -> SearchConfig {
        self.seed = seed;
        self
    }
}

/// The outcome of one strategy run on one (shader, platform).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Strategy name.
    pub strategy: String,
    /// The best flag combination found among those evaluated.
    pub best_flags: OptFlags,
    /// Its measured frame time (from the study's deterministic harness).
    pub best_ns: f64,
    /// Distinct flag combinations compiled (the pay-as-you-go cost).
    pub compiles: usize,
    /// The compile budget the driver enforced.
    pub budget: usize,
}

/// Budget + memo wrapper around an [`Evaluator`] for one (shader, platform)
/// search run.
///
/// Each [`SearchDriver::evaluate`] call delegates a distinct combination to
/// the evaluator — compiling through a live session or service handle, then
/// scoring offline (oracle) or measuring online (live) — and memoises the
/// answer. Distinct combinations are counted against a hard budget; once it
/// is spent, `evaluate` returns `None` and the strategy must stop.
/// Re-evaluating an already-evaluated combination is free (answered from the
/// driver's memo). The driver also keeps an ordered evaluation log, which is
/// what the [`RegretTracker`] replays to score a strategy's
/// anytime behaviour against the exhaustive oracle.
pub struct SearchDriver<'a> {
    evaluator: Box<dyn Evaluator + 'a>,
    budget: usize,
    evaluated: RefCell<HashMap<OptFlags, f64>>,
    log: RefCell<Vec<(OptFlags, f64)>>,
}

impl<'a> SearchDriver<'a> {
    /// A driver over any [`Evaluator`], with a hard `budget` of distinct
    /// combinations.
    pub fn over(evaluator: Box<dyn Evaluator + 'a>, budget: usize) -> SearchDriver<'a> {
        SearchDriver {
            evaluator,
            budget: budget.max(1),
            evaluated: RefCell::new(HashMap::new()),
            log: RefCell::new(Vec::new()),
        }
    }

    /// Frame time of `flags`, evaluating it on demand. `None` once the
    /// budget is exhausted (repeat queries of already-evaluated combinations
    /// stay free and still answer) — or if the combination fails to
    /// evaluate, which stops the strategy the same way. The latter cannot
    /// happen for shaders that passed the exhaustive sweep (compilation is
    /// deterministic and all 256 combinations succeeded to produce the
    /// record at all); it exists so a driver over a hostile session — or a
    /// live service losing its platform — degrades to "search over what
    /// evaluates" instead of panicking.
    pub fn evaluate(&self, flags: OptFlags) -> Option<f64> {
        if let Some(time) = self.evaluated.borrow().get(&flags) {
            return Some(*time);
        }
        if self.evaluated.borrow().len() >= self.budget {
            return None;
        }
        let time = self.evaluator.evaluate(flags)?;
        self.evaluated.borrow_mut().insert(flags, time);
        self.log.borrow_mut().push((flags, time));
        Some(time)
    }

    /// Distinct combinations evaluated so far.
    pub fn compiles(&self) -> usize {
        self.evaluated.borrow().len()
    }

    /// The budget this driver enforces.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The evaluator's cost ledger (compiles, and in live mode the
    /// measurements and frames actually spent).
    pub fn cost(&self) -> EvalCost {
        self.evaluator.cost()
    }

    /// The combination a warm-started strategy evaluates first: the
    /// evaluator's best-known prior, or the LunarGlass default when it has
    /// none.
    pub fn warm_start(&self) -> OptFlags {
        self.evaluator
            .warm_start()
            .unwrap_or_else(OptFlags::lunarglass_default)
    }

    /// The ordered evaluation log — every distinct (flags, time) in the
    /// order it was first evaluated. This is what regret analysis replays:
    /// entry `k` answers "what would we deploy after `k + 1` evaluations?".
    pub fn evaluation_log(&self) -> Vec<(OptFlags, f64)> {
        self.log.borrow().clone()
    }

    /// The best (flags, time) among everything evaluated so far.
    pub fn best_evaluated(&self) -> Option<(OptFlags, f64)> {
        self.evaluated
            .borrow()
            .iter()
            .min_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .expect("frame times are finite")
                    .then_with(|| a.0.len().cmp(&b.0.len()))
                    .then_with(|| a.0.bits().cmp(&b.0.bits()))
            })
            .map(|(flags, time)| (*flags, *time))
    }

    /// Packages the run so far as a [`SearchOutcome`] for `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if the strategy evaluated nothing (every shipped strategy
    /// evaluates at least its starting point; the budget is at least 1).
    pub fn outcome(&self, strategy: &str) -> SearchOutcome {
        let (best_flags, best_ns) = self
            .best_evaluated()
            .expect("strategy must evaluate at least one combination");
        SearchOutcome {
            strategy: strategy.to_string(),
            best_flags,
            best_ns,
            compiles: self.compiles(),
            budget: self.budget,
        }
    }

    /// A deterministic seed component tied to the evaluator's (shader,
    /// platform) identity, for reproducible randomised strategies. Uses
    /// FNV-1a rather than `DefaultHasher` so the stream — and therefore the
    /// perf gate's committed search counters — is stable across Rust
    /// releases.
    pub fn context_seed(&self) -> u64 {
        self.evaluator.context_seed()
    }
}

/// A flag-subset exploration policy running against a [`SearchDriver`].
///
/// Implementations call [`SearchDriver::evaluate`] as they see fit and stop
/// when they converge or when `evaluate` returns `None` (budget exhausted);
/// the driver keeps the best-seen combination, so `run` has no return value.
pub trait SearchStrategy {
    /// Stable name used in result tables.
    fn name(&self) -> &'static str;

    /// Explores combinations against `driver` until convergence or budget
    /// exhaustion.
    fn run(&self, driver: &SearchDriver);
}

/// Greedy forward selection: start from no flags, repeatedly add the single
/// flag with the largest improvement, stop when no addition improves. At
/// most `1 + 8 + 7 + … + 1 = 37` compilations.
pub struct GreedyForward;

impl SearchStrategy for GreedyForward {
    fn name(&self) -> &'static str {
        "greedy_forward"
    }

    fn run(&self, driver: &SearchDriver) {
        let mut current = OptFlags::NONE;
        let Some(mut current_time) = driver.evaluate(current) else {
            return;
        };
        loop {
            let mut best: Option<(OptFlags, f64)> = None;
            for flag in Flag::ALL {
                if current.contains(flag) {
                    continue;
                }
                let candidate = current.with(flag);
                let Some(time) = driver.evaluate(candidate) else {
                    return;
                };
                if time < current_time && best.is_none_or(|(_, bt)| time < bt) {
                    best = Some((candidate, time));
                }
            }
            let Some((next, time)) = best else { return };
            current = next;
            current_time = time;
        }
    }
}

/// Greedy backward elimination from the LunarGlass defaults: evaluate the
/// default set, then repeatedly drop the flag whose removal helps (or
/// changes nothing — minimising the set), until every remaining flag earns
/// its place. Because the default set is evaluated first, the result can
/// never be worse than the default policy. At most `1 + 6 + 5 + … + 1 = 22`
/// compilations.
pub struct GreedyBackward;

impl SearchStrategy for GreedyBackward {
    fn name(&self) -> &'static str {
        "greedy_backward"
    }

    fn run(&self, driver: &SearchDriver) {
        let mut current = OptFlags::lunarglass_default();
        let Some(mut current_time) = driver.evaluate(current) else {
            return;
        };
        loop {
            let mut best: Option<(OptFlags, f64)> = None;
            for flag in current.flags() {
                let candidate = current.without(flag);
                let Some(time) = driver.evaluate(candidate) else {
                    return;
                };
                if time <= current_time && best.is_none_or(|(_, bt)| time <= bt) {
                    best = Some((candidate, time));
                }
            }
            let Some((next, time)) = best else { return };
            current = next;
            current_time = time;
        }
    }
}

/// Per-flag ablation around the LunarGlass defaults: evaluate the default,
/// each default-minus-one-stock-flag and default-plus-one-custom-flag
/// variant, then the refined set those ablations suggest (drop flags whose
/// removal did not hurt, add flags that helped in isolation). Exactly 10
/// compilations — and never worse than the default, which it evaluates
/// first.
pub struct Ablation;

impl SearchStrategy for Ablation {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn run(&self, driver: &SearchDriver) {
        let base = OptFlags::lunarglass_default();
        let Some(base_time) = driver.evaluate(base) else {
            return;
        };
        let mut refined = base;
        for flag in Flag::ALL {
            let (candidate, in_base) = if base.contains(flag) {
                (base.without(flag), true)
            } else {
                (base.with(flag), false)
            };
            let Some(time) = driver.evaluate(candidate) else {
                return;
            };
            if in_base {
                if time <= base_time {
                    refined = refined.without(flag);
                }
            } else if time < base_time {
                refined = refined.with(flag);
            }
        }
        let _ = driver.evaluate(refined);
    }
}

/// Random-restart hill climbing: from each seeded random starting set, flip
/// the single bit with the best improvement until a local optimum, then
/// restart. The strategy that spends whatever budget the others leave on the
/// table; its RNG stream is keyed on (seed, shader, platform), so runs are
/// reproducible.
pub struct RandomRestartHillClimb {
    /// Base RNG seed (combined with the driver's context seed).
    pub seed: u64,
    /// Number of random restarts.
    pub restarts: usize,
}

impl SearchStrategy for RandomRestartHillClimb {
    fn name(&self) -> &'static str {
        "hill_climb"
    }

    fn run(&self, driver: &SearchDriver) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ driver.context_seed());
        for _ in 0..self.restarts.max(1) {
            let mut current = OptFlags::from_bits(rng.next_u64() as u8);
            let Some(mut current_time) = driver.evaluate(current) else {
                return;
            };
            loop {
                let mut best: Option<(OptFlags, f64)> = None;
                for flag in Flag::ALL {
                    let flipped = if current.contains(flag) {
                        current.without(flag)
                    } else {
                        current.with(flag)
                    };
                    let Some(time) = driver.evaluate(flipped) else {
                        return;
                    };
                    if time < current_time && best.is_none_or(|(_, bt)| time < bt) {
                        best = Some((flipped, time));
                    }
                }
                let Some((next, time)) = best else { break };
                current = next;
                current_time = time;
            }
        }
    }
}

/// The standard strategy set compared in the study's incremental-search
/// table, in report order. The classic iterative-compilation four come
/// first, then the explore/exploit bandits from [`crate::bandit`].
pub fn standard_strategies(config: &SearchConfig) -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(GreedyForward),
        Box::new(GreedyBackward),
        Box::new(Ablation),
        Box::new(RandomRestartHillClimb {
            seed: config.seed,
            restarts: config.restarts,
        }),
        Box::new(crate::bandit::EpsilonGreedy {
            seed: config.seed,
            epsilon: 0.2,
        }),
        Box::new(crate::bandit::Ucb1 { exploration: 1.5 }),
    ]
}

/// Runs every standard strategy over every (shader, platform) of an
/// exhaustively measured study and aggregates, per (platform, strategy), how
/// close the strategy gets to the exhaustive oracle at what fraction of the
/// compile cost.
///
/// Sessions are opened fresh against one shared corpus cache (bounded when
/// `config.cache_budget` is set), so strategies pay real, incremental
/// compilation — warmed by whatever earlier strategies and family members
/// already computed — while their timings replay the study's deterministic
/// measurements, keeping the oracle comparison exact.
pub fn incremental_search_records(
    corpus: &Corpus,
    study: &StudyResults,
    config: &StudyConfig,
    search: &SearchConfig,
) -> Vec<SearchRecord> {
    let cache = Arc::new(CorpusCache::with_budget(config.cache_budget));
    let strategies = standard_strategies(search);
    let checkpoints = RegretTracker::checkpoints_for(search.budget);

    /// Per-(platform, strategy) accumulator.
    #[derive(Default)]
    struct Acc {
        shaders: usize,
        compiles: usize,
        pruned: usize,
        max_compiles: usize,
        speedup_sum: f64,
        oracle_sum: f64,
        default_sum: f64,
        regret_sums: Vec<f64>,
    }
    // Keyed (vendor, strategy); insertion order drives the output order.
    let mut order: Vec<(String, String)> = Vec::new();
    let mut accs: HashMap<(String, String), Acc> = HashMap::new();

    for case in &corpus.cases {
        let session = match CompileSession::with_cache(
            &case.source,
            &case.name,
            Arc::clone(&cache) as Arc<dyn CacheStore>,
        ) {
            Ok(session) => session,
            // Shaders the exhaustive sweep skipped are skipped here too.
            Err(_) => continue,
        };
        for record in study.measurements.iter().filter(|m| m.shader == case.name) {
            let Some(backend) = BackendKind::from_name(&record.backend) else {
                continue;
            };
            for strategy in &strategies {
                let driver = SearchDriver::over(
                    Box::new(OracleEvaluator::new(&session, record, backend)),
                    search.budget,
                );
                strategy.run(&driver);
                // A strategy whose very first compile failed has nothing to
                // report; skip the row rather than panic (mirrors how the
                // exhaustive sweep records rather than crashes on failures).
                if driver.best_evaluated().is_none() {
                    continue;
                }
                let outcome = driver.outcome(strategy.name());
                let regret =
                    RegretTracker::from_log(&driver.evaluation_log(), record, search.budget);

                let key = (record.vendor.clone(), outcome.strategy.clone());
                if !accs.contains_key(&key) {
                    order.push(key.clone());
                }
                let acc = accs.entry(key).or_default();
                acc.shaders += 1;
                acc.compiles += outcome.compiles;
                // Always 0 in oracle mode (the prefilter only gates live
                // measurements), but wired through so live-mode aggregation
                // reports its pruning honestly.
                acc.pruned += driver.cost().candidates_pruned;
                acc.max_compiles = acc.max_compiles.max(outcome.compiles);
                acc.speedup_sum += percent_speedup(record.original_ns, outcome.best_ns);
                acc.oracle_sum += record.best_speedup_vs_original();
                acc.default_sum += record.speedup_vs_original(OptFlags::lunarglass_default());
                if acc.regret_sums.is_empty() {
                    acc.regret_sums = vec![0.0; checkpoints.len()];
                }
                for (sum, r) in acc.regret_sums.iter_mut().zip(regret.curve()) {
                    *sum += r;
                }
            }
        }
    }

    order
        .into_iter()
        .map(|key| {
            let acc = &accs[&key];
            let n = acc.shaders.max(1) as f64;
            let mean_regret: Vec<f64> = acc.regret_sums.iter().map(|s| s / n).collect();
            let regret_final = mean_regret.last().copied().unwrap_or(0.0);
            SearchRecord {
                vendor: key.0,
                strategy: key.1,
                shaders: acc.shaders,
                budget: search.budget,
                mean_compiles: acc.compiles as f64 / n,
                candidates_pruned: acc.pruned,
                max_compiles: acc.max_compiles,
                mean_speedup: acc.speedup_sum / n,
                oracle_mean_speedup: acc.oracle_sum / n,
                default_mean_speedup: acc.default_sum / n,
                regret_checkpoints: checkpoints.clone(),
                mean_regret,
                regret_final,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::{ShaderPlatformRecord, VariantRecord};
    use prism_glsl::ShaderSource;

    const BLURRY: &str = r#"
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

    /// A synthetic record where exactly `fast_flag` switches to a faster
    /// variant (and a second flag makes it slightly faster again).
    fn synthetic_record(fast_flag: Flag, bonus_flag: Flag) -> ShaderPlatformRecord {
        let mut flag_to_variant = vec![0usize; 256];
        for bits in 0..=255u8 {
            let flags = OptFlags::from_bits(bits);
            flag_to_variant[bits as usize] =
                match (flags.contains(fast_flag), flags.contains(bonus_flag)) {
                    (true, true) => 2,
                    (true, false) => 1,
                    _ => 0,
                };
        }
        ShaderPlatformRecord {
            shader: "synthetic".into(),
            vendor: "AMD".into(),
            backend: "desktop".into(),
            driver_source_version: "450".into(),
            original_ns: 1000.0,
            variants: vec![
                VariantRecord {
                    index: 0,
                    flag_bits: vec![0],
                    mean_ns: 1010.0,
                    stddev_ns: 1.0,
                },
                VariantRecord {
                    index: 1,
                    flag_bits: vec![],
                    mean_ns: 900.0,
                    stddev_ns: 1.0,
                },
                VariantRecord {
                    index: 2,
                    flag_bits: vec![],
                    mean_ns: 850.0,
                    stddev_ns: 1.0,
                },
            ],
            flag_to_variant,
        }
    }

    fn session() -> CompileSession {
        CompileSession::new(&ShaderSource::parse(BLURRY).unwrap(), "synthetic").unwrap()
    }

    fn oracle_driver<'a>(
        session: &'a CompileSession,
        record: &'a ShaderPlatformRecord,
        budget: usize,
    ) -> SearchDriver<'a> {
        SearchDriver::over(
            Box::new(OracleEvaluator::new(
                session,
                record,
                BackendKind::DesktopGlsl,
            )),
            budget,
        )
    }

    #[test]
    fn driver_enforces_its_budget_and_memoises() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        let driver = oracle_driver(&session, &record, 3);
        assert!(driver.evaluate(OptFlags::NONE).is_some());
        assert!(driver.evaluate(OptFlags::only(Flag::Unroll)).is_some());
        assert!(driver.evaluate(OptFlags::only(Flag::Gvn)).is_some());
        assert_eq!(driver.compiles(), 3);
        // Budget spent: new combinations refuse, old ones still answer.
        assert!(driver.evaluate(OptFlags::all()).is_none());
        assert!(driver.evaluate(OptFlags::NONE).is_some());
        assert_eq!(driver.compiles(), 3);
        // Memoised repeats do not grow the evaluation log or the ledger.
        assert_eq!(driver.evaluation_log().len(), 3);
        assert_eq!(driver.cost().compiles, 3);
        assert_eq!(driver.cost().measurements, 0);
        let (best, time) = driver.best_evaluated().unwrap();
        assert_eq!(best, OptFlags::only(Flag::Unroll));
        assert_eq!(time, 900.0);
    }

    #[test]
    fn greedy_forward_finds_the_two_flag_optimum() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        let driver = oracle_driver(&session, &record, 63);
        GreedyForward.run(&driver);
        let outcome = driver.outcome("greedy_forward");
        assert_eq!(outcome.best_ns, 850.0);
        assert!(outcome.best_flags.contains(Flag::Unroll));
        assert!(outcome.best_flags.contains(Flag::Gvn));
        assert!(
            outcome.compiles <= 37,
            "greedy forward overspent: {outcome:?}"
        );
    }

    #[test]
    fn greedy_backward_never_loses_to_the_default() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        let driver = oracle_driver(&session, &record, 63);
        GreedyBackward.run(&driver);
        let outcome = driver.outcome("greedy_backward");
        let default_time = record.time_for(OptFlags::lunarglass_default());
        assert!(outcome.best_ns <= default_time);
        assert!(outcome.compiles <= 22, "{outcome:?}");
        // The default contains both useful flags here, so backward keeps
        // them and drops the rest.
        assert!(outcome.best_flags.contains(Flag::Unroll));
        assert!(outcome.best_flags.contains(Flag::Gvn));
        assert!(outcome.best_flags.len() <= 6);
    }

    #[test]
    fn ablation_spends_exactly_ten_compiles() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::FpReassociate);
        let driver = oracle_driver(&session, &record, 63);
        Ablation.run(&driver);
        let outcome = driver.outcome("ablation");
        assert!(outcome.compiles <= 10, "{outcome:?}");
        // FP Reassociate is outside the default set; ablation adds it.
        assert!(outcome.best_flags.contains(Flag::FpReassociate));
        assert!(outcome.best_ns <= record.time_for(OptFlags::lunarglass_default()));
    }

    #[test]
    fn hill_climb_is_deterministic_and_budget_bound() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        let climb = RandomRestartHillClimb {
            seed: 7,
            restarts: 3,
        };
        let run = || {
            let driver = oracle_driver(&session, &record, 20);
            climb.run(&driver);
            driver.outcome("hill_climb")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce the same outcome");
        assert!(a.compiles <= 20, "{a:?}");
    }

    #[test]
    fn strategies_stop_cleanly_on_a_tiny_budget() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        for strategy in standard_strategies(&SearchConfig::default()) {
            let driver = oracle_driver(&session, &record, 2);
            strategy.run(&driver);
            let outcome = driver.outcome(strategy.name());
            assert!(
                outcome.compiles <= 2,
                "{} overspent: {outcome:?}",
                strategy.name()
            );
        }
    }
}
