//! # prism-search — exhaustive iterative compilation over flag combinations
//!
//! The experiment driver of the reproduction (§III-A, §VI of the paper):
//! every corpus shader is compiled with all 256 optimization-flag
//! combinations, duplicates are removed, and the original plus every distinct
//! variant is timed on every simulated platform. The resulting
//! [`StudyResults`] feed the analyses behind each figure:
//!
//! * [`policies`] — per-shader-best / default-LunarGlass / best-static
//!   comparisons (Fig. 5, Fig. 6, Fig. 7, Table I),
//! * [`applicability`] — which flags change code and which end up in optimal
//!   sets (Fig. 8),
//! * [`per_flag`] — each flag in isolation against the no-flag baseline
//!   (Fig. 9).
//!
//! The exhaustive sweep is no longer the only driver: [`driver`] adds
//! **incremental flag search** — pluggable [`SearchStrategy`] policies
//! (greedy forward-add, greedy backward-drop, per-flag ablation,
//! random-restart hill climbing, plus the [`bandit`] explore/exploit
//! strategies) that explore flag *subsets* under a hard evaluation budget,
//! and a comparison harness reporting how close each strategy gets to the
//! exhaustive oracle at what fraction of the compile cost
//! ([`StudyResults::search`]), regret-vs-measurements curves included.
//! Scoring goes through the [`evaluator`] seam: [`OracleEvaluator`] replays
//! a study's recorded timings (offline, exact), [`LiveEvaluator`] compiles
//! through any shared handle and measures as it searches (online,
//! measurement-in-the-loop — see `prism_serve::CompileService::tune`).

pub mod applicability;
pub mod bandit;
pub mod driver;
pub mod evaluator;
pub mod per_flag;
pub mod policies;
pub mod results;
pub mod static_rank;
pub mod sweep;

pub use applicability::{flag_applicability, FlagApplicability};
pub use bandit::{EpsilonGreedy, RegretTracker, Ucb1};
pub use driver::{
    incremental_search_records, standard_strategies, Ablation, GreedyBackward, GreedyForward,
    RandomRestartHillClimb, SearchDriver, SearchOutcome, SearchStrategy,
};
pub use evaluator::{
    CompileHandle, EvalCost, Evaluator, LiveEvaluator, OracleEvaluator, StaticCostHook,
};
pub use per_flag::{all_flag_impacts, flag_impact, FlagImpact};
pub use policies::{
    best_static_flags, mean_speedup, minimal_best_static, per_shader_speedups, platform_summaries,
    top_n_mean_best, top_n_speedups, PlatformSummary, Policy,
};
pub use static_rank::{footrule_agreement, static_agreement_rows, StaticRankRow};

pub use results::{
    percent_speedup, SearchRecord, ShaderPlatformRecord, ShaderRecord, SkippedShader, StudyResults,
    VariantRecord,
};
pub use sweep::{run_study, StudyConfig};
