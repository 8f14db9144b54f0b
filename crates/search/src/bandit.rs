//! Explore/exploit strategies and regret accounting for online flag search.
//!
//! The greedy and ablation strategies in [`crate::driver`] are fine when
//! evaluations are cheap (oracle mode replays a recorded timing), but online
//! tuning pays real device time per evaluation, so the question becomes the
//! classic bandit one: which of the 8 flag *toggles* is worth the next
//! measurement? This module ships two standard answers —
//! [`EpsilonGreedy`] and [`Ucb1`] — framed over toggle-arms on an incumbent
//! configuration, plus the [`RegretTracker`] that replays any strategy's
//! evaluation log against the exhaustive oracle to produce the
//! regret-vs-measurements curves reported in
//! [`SearchRecord`](crate::results::SearchRecord) and rendered by
//! `prism_report::fig_regret`.
//!
//! Both bandits are **warm-started**: their first evaluation is the driver's
//! [`warm_start`](crate::driver::SearchDriver::warm_start) combination (the
//! übershader family's best-known set when the evaluator carries one, the
//! LunarGlass default otherwise), and when the warm start differs from the
//! default policy the default is measured too, as an up-front baseline.
//! Because both anchors are evaluated before any exploration and the driver
//! keeps the best-seen combination, a bandit can never report a result worse
//! than its prior *or* the default — the same "never lose to the default"
//! property [`GreedyBackward`](crate::driver::GreedyBackward) has.

use crate::driver::{SearchDriver, SearchStrategy};
use crate::results::ShaderPlatformRecord;
use prism_core::{Flag, OptFlags};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Reward in `[0, 1]` for measuring `time` when the incumbent best is
/// `best`: 0.5 is "no change", 1.0 is "halved the frame time".
fn reward(best: f64, time: f64) -> f64 {
    ((best - time) / best.max(1e-9)).clamp(-1.0, 1.0) * 0.5 + 0.5
}

/// Shared bandit loop: arms are the 8 single-flag toggles applied to the
/// incumbent best configuration. `pick` chooses the next arm from the
/// (pulls, reward sums, total pulls) statistics; the loop evaluates the
/// toggled candidate, updates the arm's statistics, and adopts the candidate
/// as incumbent when it improves. Memoised evaluations (a candidate already
/// seen) still update arm statistics — otherwise a deterministic policy
/// would re-pick the same arm forever — and an iteration backstop bounds the
/// loop even when every evaluation is free.
fn run_toggle_bandit(
    driver: &SearchDriver,
    mut pick: impl FnMut(&[usize; 8], &[f64; 8], usize) -> usize,
) {
    let mut incumbent = driver.warm_start();
    let Some(mut incumbent_time) = driver.evaluate(incumbent) else {
        return;
    };
    // Baseline arm: when the warm start is a prior best-known set, also
    // measure the default policy up front (one evaluation; free when they
    // coincide). This keeps the "never lose to the default" guarantee even
    // when the prior came from another shader in the family pool.
    let default = OptFlags::lunarglass_default();
    if default != incumbent {
        if let Some(time) = driver.evaluate(default) {
            if time < incumbent_time {
                incumbent = default;
                incumbent_time = time;
            }
        } else {
            return;
        }
    }
    let mut pulls = [0usize; 8];
    let mut rewards = [0.0f64; 8];
    let max_iterations = driver.budget() * 8 + 64;
    for _ in 0..max_iterations {
        if driver.compiles() >= driver.budget() {
            return;
        }
        let total: usize = pulls.iter().sum();
        let arm = pick(&pulls, &rewards, total).min(7);
        let flag = Flag::ALL[arm];
        let candidate = if incumbent.contains(flag) {
            incumbent.without(flag)
        } else {
            incumbent.with(flag)
        };
        let Some(time) = driver.evaluate(candidate) else {
            return;
        };
        pulls[arm] += 1;
        rewards[arm] += reward(incumbent_time, time);
        if time < incumbent_time {
            incumbent = candidate;
            incumbent_time = time;
        }
    }
}

/// ε-greedy over the 8 flag toggles: with probability `epsilon` pull a
/// uniformly random arm, otherwise the arm with the best mean reward so far
/// (untried arms count as optimistic and are tried first, in flag order).
/// The RNG stream is keyed on (seed, shader, platform) via the driver's
/// context seed, so runs are reproducible.
pub struct EpsilonGreedy {
    /// Base RNG seed (combined with the driver's context seed).
    pub seed: u64,
    /// Exploration probability in `[0, 1]`.
    pub epsilon: f64,
}

impl SearchStrategy for EpsilonGreedy {
    fn name(&self) -> &'static str {
        "epsilon_greedy"
    }

    fn run(&self, driver: &SearchDriver) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ driver.context_seed());
        let epsilon = self.epsilon.clamp(0.0, 1.0);
        run_toggle_bandit(driver, |pulls, rewards, _total| {
            // Draw the coin before any early return so the stream advances
            // identically regardless of the arm statistics.
            let explore = (rng.next_u64() as f64 / u64::MAX as f64) < epsilon;
            if explore {
                return (rng.next_u64() % 8) as usize;
            }
            if let Some(untried) = pulls.iter().position(|&p| p == 0) {
                return untried;
            }
            let mut best = 0;
            let mut best_mean = f64::NEG_INFINITY;
            for arm in 0..8 {
                let mean = rewards[arm] / pulls[arm] as f64;
                if mean > best_mean {
                    best = arm;
                    best_mean = mean;
                }
            }
            best
        });
    }
}

/// UCB1 over the 8 flag toggles: pull the arm maximising
/// `mean + exploration * sqrt(ln(total) / pulls)`, trying every arm once
/// first (in flag order). Fully deterministic — no RNG at all — so its
/// evaluation log, and therefore its perf-gate counters, are stable by
/// construction.
pub struct Ucb1 {
    /// Width of the confidence bonus (the classic value is `sqrt(2)`).
    pub exploration: f64,
}

impl SearchStrategy for Ucb1 {
    fn name(&self) -> &'static str {
        "ucb1"
    }

    fn run(&self, driver: &SearchDriver) {
        let exploration = self.exploration;
        run_toggle_bandit(driver, |pulls, rewards, total| {
            if let Some(untried) = pulls.iter().position(|&p| p == 0) {
                return untried;
            }
            let mut best = 0;
            let mut best_score = f64::NEG_INFINITY;
            let ln_total = (total.max(1) as f64).ln();
            for arm in 0..8 {
                let mean = rewards[arm] / pulls[arm] as f64;
                let score = mean + exploration * (ln_total / pulls[arm] as f64).sqrt();
                if score > best_score {
                    best = arm;
                    best_score = score;
                }
            }
            best
        });
    }
}

/// Regret-vs-measurements curve for one strategy run on one (shader,
/// platform), replayed from the driver's evaluation log against the
/// exhaustive oracle.
///
/// At checkpoint `k` the tracker asks: *if tuning had stopped after `k`
/// evaluations, which combination would we deploy, and how many speedup
/// percentage points does it leave on the table versus the exhaustive
/// best?* Deploy choice is the best of the first `k` log entries (by time,
/// then fewer flags, then flag bits — the driver's own tie-break); regret is
/// clamped at zero. In oracle mode the curve is non-increasing by
/// construction: a longer prefix can only improve the deploy choice.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretTracker {
    checkpoints: Vec<usize>,
    curve: Vec<f64>,
}

impl RegretTracker {
    /// The measurement-count checkpoints for a `budget`: powers of two below
    /// it, then the budget itself — `1, 2, 4, … budget`.
    pub fn checkpoints_for(budget: usize) -> Vec<usize> {
        let budget = budget.max(1);
        let mut points = Vec::new();
        let mut k = 1usize;
        while k < budget {
            points.push(k);
            k *= 2;
        }
        points.push(budget);
        points
    }

    /// Replays `log` (the driver's ordered evaluation log) against `record`
    /// at the checkpoints for `budget`.
    pub fn from_log(
        log: &[(OptFlags, f64)],
        record: &ShaderPlatformRecord,
        budget: usize,
    ) -> RegretTracker {
        let checkpoints = RegretTracker::checkpoints_for(budget);
        let oracle = record.best_speedup_vs_original();
        let mut curve = Vec::with_capacity(checkpoints.len());
        for &k in &checkpoints {
            let deploy = log
                .iter()
                .take(k)
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .expect("frame times are finite")
                        .then_with(|| a.0.len().cmp(&b.0.len()))
                        .then_with(|| a.0.bits().cmp(&b.0.bits()))
                })
                .map(|(flags, _)| *flags);
            let regret = match deploy {
                Some(flags) => (oracle - record.speedup_vs_original(flags)).max(0.0),
                // An empty prefix deploys nothing: full regret.
                None => oracle.max(0.0),
            };
            curve.push(regret);
        }
        RegretTracker { checkpoints, curve }
    }

    /// The measurement counts the curve is sampled at.
    pub fn checkpoints(&self) -> &[usize] {
        &self.checkpoints
    }

    /// Regret (speedup percentage points behind the oracle) per checkpoint.
    pub fn curve(&self) -> &[f64] {
        &self.curve
    }

    /// Regret at the final checkpoint (the full budget).
    pub fn final_regret(&self) -> f64 {
        self.curve.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::standard_strategies;
    use crate::evaluator::OracleEvaluator;
    use crate::results::VariantRecord;
    use prism_core::CompileSession;
    use prism_emit::BackendKind;
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
    fn bandits_are_deterministic_and_never_lose_to_their_warm_start() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        let default_time = record.time_for(OptFlags::lunarglass_default());
        for strategy in [
            Box::new(EpsilonGreedy {
                seed: 7,
                epsilon: 0.2,
            }) as Box<dyn SearchStrategy>,
            Box::new(Ucb1 { exploration: 1.5 }),
        ] {
            let run = || {
                let driver = oracle_driver(&session, &record, 24);
                strategy.run(&driver);
                driver.outcome(strategy.name())
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "{} must reproduce exactly", strategy.name());
            assert!(a.compiles <= 24, "{a:?}");
            assert!(
                a.best_ns <= default_time,
                "{} lost to its warm start: {a:?}",
                strategy.name()
            );
        }
    }

    #[test]
    fn bandits_find_the_two_flag_optimum_with_budget_to_spare() {
        let session = session();
        // Default set = {Unroll, Gvn, …}: the optimum is reachable from the
        // warm start by toggling flags *off*, which both bandits explore.
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        for strategy in [
            Box::new(EpsilonGreedy {
                seed: 0x5EED_CAFE,
                epsilon: 0.2,
            }) as Box<dyn SearchStrategy>,
            Box::new(Ucb1 { exploration: 1.5 }),
        ] {
            let driver = oracle_driver(&session, &record, 63);
            strategy.run(&driver);
            let outcome = driver.outcome(strategy.name());
            assert_eq!(
                outcome.best_ns,
                850.0,
                "{} missed the optimum: {outcome:?}",
                strategy.name()
            );
        }
    }

    #[test]
    fn bandits_respect_a_tiny_budget_and_terminate() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        for strategy in [
            Box::new(EpsilonGreedy {
                seed: 3,
                epsilon: 0.5,
            }) as Box<dyn SearchStrategy>,
            Box::new(Ucb1 { exploration: 1.5 }),
        ] {
            let driver = oracle_driver(&session, &record, 2);
            strategy.run(&driver);
            let outcome = driver.outcome(strategy.name());
            assert!(outcome.compiles <= 2, "{outcome:?}");
        }
    }

    #[test]
    fn checkpoints_are_powers_of_two_up_to_the_budget() {
        assert_eq!(
            RegretTracker::checkpoints_for(63),
            vec![1, 2, 4, 8, 16, 32, 63]
        );
        assert_eq!(RegretTracker::checkpoints_for(8), vec![1, 2, 4, 8]);
        assert_eq!(RegretTracker::checkpoints_for(1), vec![1]);
        assert_eq!(RegretTracker::checkpoints_for(0), vec![1]);
    }

    #[test]
    fn regret_replays_the_log_and_is_non_increasing_in_oracle_mode() {
        let session = session();
        let record = synthetic_record(Flag::Unroll, Flag::Gvn);
        for strategy in standard_strategies() {
            let driver = oracle_driver(&session, &record, 63);
            strategy.run(&driver);
            let tracker = RegretTracker::from_log(&driver.evaluation_log(), &record, 63);
            assert_eq!(tracker.checkpoints(), &[1, 2, 4, 8, 16, 32, 63][..]);
            for pair in tracker.curve().windows(2) {
                assert!(
                    pair[1] <= pair[0] + 1e-12,
                    "{}: regret increased: {:?}",
                    strategy.name(),
                    tracker.curve()
                );
            }
            assert!(tracker.final_regret() >= 0.0);
        }
        // A strategy that finds the exhaustive optimum ends at zero regret.
        let driver = oracle_driver(&session, &record, 63);
        crate::driver::GreedyForward.run(&driver);
        let tracker = RegretTracker::from_log(&driver.evaluation_log(), &record, 63);
        assert_eq!(tracker.final_regret(), 0.0);
    }
}
