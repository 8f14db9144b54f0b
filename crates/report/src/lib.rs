//! # prism-report — statistics and table/figure renderers
//!
//! Turns [`prism_search::StudyResults`] into the rows and series the paper's
//! evaluation section reports: Fig. 3 (motivating example), Fig. 4 (corpus
//! characterisation), Fig. 5 (overall averages), Fig. 6 (top-30 shaders),
//! Table I (best static flags), Fig. 7 (per-shader distributions), Fig. 8
//! (flag applicability), Fig. 9 (per-flag isolated impact), and — beyond the
//! paper — Fig. 10 (incremental flag-search strategies vs the exhaustive
//! oracle).

pub mod figures;
pub mod stats;
pub mod violin;

pub use figures::{
    best_static_contains, fig10_incremental, fig3_motivating, fig4_characterization, fig5_overall,
    fig6_top30, fig7_per_shader, fig8_applicability, fig9_per_flag, fig_backends, fig_cache,
    fig_regret, fig_serve, fig_static, mean_best_speedups, render_all, summary, table1_best_static,
    ServeRow,
};
pub use stats::{histogram, mean, median, percentile, stddev};
pub use violin::ViolinSummary;
