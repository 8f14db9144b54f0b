//! Text renderers that regenerate every table and figure of the paper's
//! evaluation from a [`StudyResults`].
//!
//! Each function returns the rows/series the corresponding figure plots; the
//! bench targets in `prism-bench` print them, and `EXPERIMENTS.md` records the
//! paper-reported versus measured values.

use crate::stats::{histogram, mean};
use crate::violin::ViolinSummary;
use prism_core::{Flag, OptFlags};
use prism_search::{
    flag_applicability, flag_impact, per_shader_speedups, platform_summaries, top_n_mean_best,
    top_n_speedups, Policy, StudyResults,
};
use std::fmt::Write;

/// Fig. 3: the motivating blur shader's best speed-up per platform, plus the
/// distribution of best-static speed-ups across all shaders on ARM.
pub fn fig3_motivating(study: &StudyResults, blur_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3 — motivating example ({blur_name})");
    let _ = writeln!(out, "  best optimized variant vs. original shader:");
    for vendor in study.platforms() {
        if let Some(m) = study.measurement(blur_name, &vendor) {
            let _ = writeln!(
                out,
                "    {vendor:<10} {:+6.2}%",
                m.best_speedup_vs_original()
            );
        }
    }
    // Right-hand side of Fig. 3: distribution of best-static speed-ups on ARM.
    let records = study.for_platform("ARM");
    if !records.is_empty() {
        let (flags, _) = prism_search::minimal_best_static(&records);
        let speedups = per_shader_speedups(&records, Policy::Static(flags));
        let _ = writeln!(
            out,
            "  ARM best-static ({flags}) speed-up distribution across all shaders:"
        );
        let _ = writeln!(out, "    {}", ViolinSummary::of(&speedups));
    }
    out
}

/// Fig. 4: corpus characterisation — (a) lines of code, (b) ARM static
/// cycles, (c) unique variants per shader.
pub fn fig4_characterization(study: &StudyResults) -> String {
    let mut out = String::new();
    let loc: Vec<f64> = study.shaders.iter().map(|s| s.loc as f64).collect();
    let cycles: Vec<f64> = study.shaders.iter().map(|s| s.arm_static_cycles).collect();
    let variants: Vec<f64> = study
        .shaders
        .iter()
        .map(|s| s.unique_variants as f64)
        .collect();
    let _ = writeln!(
        out,
        "Figure 4 — corpus characterisation ({} shaders)",
        study.shaders.len()
    );
    let _ = writeln!(
        out,
        "  (a) lines of code:       {}",
        distribution_line(&loc)
    );
    let _ = writeln!(
        out,
        "  (b) ARM static cycles:   {}",
        distribution_line(&cycles)
    );
    let _ = writeln!(
        out,
        "  (c) unique variants/256: {}",
        distribution_line(&variants)
    );
    let under_50 = loc.iter().filter(|&&l| l < 50.0).count();
    let _ = writeln!(
        out,
        "      shaders under 50 LoC: {under_50}/{} ({:.0}%)",
        loc.len(),
        100.0 * under_50 as f64 / loc.len().max(1) as f64
    );
    let (edges, counts) = histogram(&loc, 6);
    for (edge, count) in edges.iter().zip(&counts) {
        let _ = writeln!(out, "      LoC >= {edge:6.1}: {count}");
    }
    out
}

fn distribution_line(values: &[f64]) -> String {
    let v = ViolinSummary::of(values);
    format!(
        "min {:.1}  median {:.1}  mean {:.1}  max {:.1}",
        v.min, v.median, v.mean, v.max
    )
}

/// Fig. 5: average speed-up across all shaders for the three policies, per
/// platform.
pub fn fig5_overall(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5 — average speed-up across all shaders (vs. original)"
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>14} {:>18} {:>14}",
        "platform", "per-shader best", "default LunarGlass", "best static"
    );
    for s in platform_summaries(study) {
        let _ = writeln!(
            out,
            "  {:<10} {:>13.2}% {:>17.2}% {:>13.2}%",
            s.vendor, s.mean_best, s.mean_default, s.mean_best_static
        );
    }
    out
}

/// Fig. 6: average speed-up of the 30 most-improved shaders per platform.
pub fn fig6_top30(study: &StudyResults, n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6 — mean speed-up of the {n} most-improved shaders"
    );
    for vendor in study.platforms() {
        let records = study.for_platform(&vendor);
        let top = top_n_mean_best(&records, n);
        let _ = writeln!(out, "  {vendor:<10} {top:+6.2}%");
        for (name, speedup) in top_n_speedups(&records, 5) {
            let _ = writeln!(out, "      {name:<28} {speedup:+6.2}%");
        }
    }
    out
}

/// Table I: the best static flag set per platform.
pub fn table1_best_static(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I — best static flags per platform");
    let _ = write!(out, "  {:<10}", "platform");
    for flag in Flag::ALL {
        let _ = write!(out, " {:>14}", flag.name());
    }
    let _ = writeln!(out);
    let summaries = platform_summaries(study);
    for s in &summaries {
        let _ = write!(out, "  {:<10}", s.vendor);
        for flag in Flag::ALL {
            let mark = if s.best_static.contains(flag) {
                "yes"
            } else {
                "-"
            };
            let _ = write!(out, " {mark:>14}");
        }
        let _ = writeln!(out);
    }
    // The "All" row: best single set across every platform's records pooled.
    let mut pooled: Vec<&prism_search::ShaderPlatformRecord> = Vec::new();
    for vendor in study.platforms() {
        pooled.extend(study.for_platform(&vendor));
    }
    if !pooled.is_empty() {
        let (flags, _) = prism_search::minimal_best_static(&pooled);
        let _ = write!(out, "  {:<10}", "All");
        for flag in Flag::ALL {
            let mark = if flags.contains(flag) { "yes" } else { "-" };
            let _ = write!(out, " {mark:>14}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Fig. 7: per-shader speed-up distributions for the three policies, per
/// platform.
pub fn fig7_per_shader(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7 — per-shader speed-up distributions (vs. original)"
    );
    for vendor in study.platforms() {
        let records = study.for_platform(&vendor);
        let (static_flags, _) = prism_search::minimal_best_static(&records);
        let best = per_shader_speedups(&records, Policy::Best);
        let default = per_shader_speedups(&records, Policy::DefaultLunarGlass);
        let static_speedups = per_shader_speedups(&records, Policy::Static(static_flags));
        let _ = writeln!(out, "  {vendor}");
        let _ = writeln!(out, "    best (green):        {}", ViolinSummary::of(&best));
        let _ = writeln!(
            out,
            "    default LG (red):    {}",
            ViolinSummary::of(&default)
        );
        let _ = writeln!(
            out,
            "    best static (blue):  {}",
            ViolinSummary::of(&static_speedups)
        );
        let near_zero = best.iter().filter(|s| s.abs() < 1.0).count();
        let _ = writeln!(
            out,
            "    shaders within ±1% under best policy: {near_zero}/{}",
            best.len()
        );
    }
    out
}

/// Fig. 8: per-flag applicability and optimality fractions (platform given).
pub fn fig8_applicability(study: &StudyResults, vendor: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 8 — flag applicability on {vendor}");
    let _ = writeln!(
        out,
        "  {:<16} {:>8} {:>14} {:>18}",
        "flag", "shaders", "changes code", "in optimal 10%"
    );
    for row in flag_applicability(study, vendor) {
        let _ = writeln!(
            out,
            "  {:<16} {:>8} {:>9} ({:>4.0}%) {:>12} ({:>4.0}%)",
            row.flag.name(),
            row.total_shaders,
            row.changes_code,
            row.applicability_rate() * 100.0,
            row.in_optimal_set,
            row.optimality_rate() * 100.0
        );
    }
    out
}

/// Fig. 9: per-flag isolated speed-up distributions (vs. the no-flag
/// LunarGlass baseline), per platform.
pub fn fig9_per_flag(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9 — per-flag speed-up vs. the no-flag baseline");
    for vendor in study.platforms() {
        let _ = writeln!(out, "  {vendor}");
        for flag in Flag::ALL {
            let impact = flag_impact(study, &vendor, flag);
            let _ = writeln!(
                out,
                "    {:<16} {}",
                flag.name(),
                ViolinSummary::of(&impact.speedups)
            );
        }
    }
    out
}

/// Fig. 10 (beyond the paper): incremental flag-search strategies versus
/// the exhaustive oracle — mean speed-up achieved and fraction of the 256
/// combinations compiled, per platform.
pub fn fig10_incremental(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10 — incremental flag search vs the exhaustive oracle"
    );
    if study.search.is_empty() {
        let _ = writeln!(out, "  (study ran without incremental search)");
        return out;
    }
    for vendor in study.platforms() {
        let rows: Vec<_> = study.search.iter().filter(|r| r.vendor == vendor).collect();
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  {vendor}");
        let _ = writeln!(
            out,
            "    {:<16} {:>10} {:>10} {:>11} {:>12} {:>9}",
            "strategy", "speedup", "oracle", "% of oracle", "compiles/256", "budget"
        );
        for row in rows {
            let _ = writeln!(
                out,
                "    {:<16} {:>9.2}% {:>9.2}% {:>10.0}% {:>7.1} ({:>2.0}%) {:>8}",
                row.strategy,
                row.mean_speedup,
                row.oracle_mean_speedup,
                row.oracle_fraction() * 100.0,
                row.mean_compiles,
                row.compile_fraction() * 100.0,
                row.budget
            );
        }
    }
    out
}

/// Regret-vs-measurements report (beyond the paper): for each platform and
/// strategy, the mean speedup percentage points left on the table versus the
/// exhaustive oracle if tuning had stopped after 1, 2, 4, … budget
/// evaluations — the anytime view of [`fig10_incremental`]'s endpoint
/// numbers. Strategies without a recorded curve (pre-regret study reports)
/// are skipped.
pub fn fig_regret(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure R — regret vs measurements (speedup %-points behind the oracle)"
    );
    let with_curves: Vec<_> = study
        .search
        .iter()
        .filter(|r| !r.mean_regret.is_empty())
        .collect();
    if with_curves.is_empty() {
        let _ = writeln!(out, "  (study carries no regret curves)");
        return out;
    }
    for vendor in study.platforms() {
        let rows: Vec<_> = with_curves.iter().filter(|r| r.vendor == vendor).collect();
        let Some(first) = rows.first() else { continue };
        let _ = writeln!(out, "  {vendor}");
        let mut header = format!("    {:<16}", "strategy");
        for k in &first.regret_checkpoints {
            let _ = write!(header, " {k:>7}");
        }
        let _ = writeln!(out, "{header}  (measurements)");
        for row in rows {
            let mut line = format!("    {:<16}", row.strategy);
            for r in &row.mean_regret {
                let _ = write!(line, " {r:>7.2}");
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// Corpus-cache work/sharing report of one study run: how much optimization
/// and emission work the sweep performed, how much was answered warm —
/// split into hits produced by this run's own sessions (cross-shader
/// sharing) and hits answered from a persistent warm-start snapshot — and
/// how healthy the snapshot itself was (shards loaded vs skipped).
pub fn fig_cache(study: &StudyResults) -> String {
    let stats = &study.cache.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Corpus cache — {} sessions, one shared corpus-wide store",
        stats.sessions,
    );
    let _ = writeln!(
        out,
        "  stages:    {:>6} runs  {:>6} hits ({:>5.1}% hit rate, {} cross-shader, {} warm-start)",
        stats.stage_runs,
        stats.stage_hits,
        stats.stage_hit_rate() * 100.0,
        stats.cross_shader_stage_hits,
        stats.warm_stage_hits,
    );
    let _ = writeln!(
        out,
        "  emissions: {:>6} done  {:>6} hits ({} cross-shader, {} warm-start)",
        stats.emissions,
        stats.emission_hits,
        stats.cross_shader_emission_hits,
        stats.warm_emission_hits,
    );
    if stats.evictions > 0 {
        let _ = writeln!(out, "  evictions: {:>6} (bounded store)", stats.evictions);
    }
    if stats.warm_shards_loaded + stats.warm_shards_skipped > 0 {
        let _ = writeln!(
            out,
            "  warm start: {} entries from {} shards ({} shard(s) skipped as stale/corrupt)",
            stats.warm_entries_loaded, stats.warm_shards_loaded, stats.warm_shards_skipped,
        );
    } else {
        let _ = writeln!(out, "  warm start: none (cold run)");
    }
    if stats.routed_requests > 0 {
        let _ = writeln!(
            out,
            "  serving:   {:>6} routed  {:>6} coalesced ({:>5.1}%)",
            stats.routed_requests,
            stats.coalesced_requests,
            100.0 * stats.coalesced_requests as f64 / stats.routed_requests as f64,
        );
    }
    out
}

/// One replayed request stream against the compile service, summarised for
/// [`fig_serve`]. Plain data so the report crate stays independent of the
/// serve crate: callers (the demo example, the perf gate) copy their
/// `LoadSummary`/`ServiceStats` counters in.
#[derive(Debug, Clone, Default)]
pub struct ServeRow {
    /// Stream label (e.g. `"cold"`, `"warm boot"`).
    pub label: String,
    /// Requests replayed.
    pub requests: usize,
    /// Requests in the measured (post-warm-up) window.
    pub measured: usize,
    /// p50 work-counter latency (stage runs + emissions) over the window.
    pub p50_latency: usize,
    /// p99 work-counter latency over the window.
    pub p99_latency: usize,
    /// Measured requests served entirely from the memo.
    pub memo_served: usize,
    /// Measured requests coalesced onto an in-flight compile.
    pub coalesced: usize,
    /// Responses answered with the emission memo's shared handle.
    pub zero_copy: usize,
    /// Stage runs over the whole stream (0 for a warm-booted replay).
    pub stage_runs: usize,
}

/// Compile-service load report (beyond the paper): deterministic p50/p99
/// work-counter latencies and free-serving rates for replayed request
/// streams — the serving-layer counterpart of [`fig_cache`]'s study-level
/// sharing report.
pub fn fig_serve(rows: &[ServeRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Compile service — Zipf request streams, work-counter latency"
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>8} {:>6} {:>6} {:>8} {:>9} {:>9} {:>10}",
        "stream",
        "requests",
        "measured",
        "p50",
        "p99",
        "memo",
        "coalesced",
        "zero-copy",
        "stage runs"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>8} {:>6} {:>6} {:>8} {:>9} {:>9} {:>10}",
            row.label,
            row.requests,
            row.measured,
            row.p50_latency,
            row.p99_latency,
            row.memo_served,
            row.coalesced,
            row.zero_copy,
            row.stage_runs,
        );
    }
    out
}

/// Static-analysis rank agreement (beyond the paper, but in its spirit:
/// §III characterises shaders with ARM's offline static analyser): per
/// platform × shader, how closely the static cost model's variant ranking
/// tracks the measured ranking, as a normalised Spearman-footrule agreement
/// in `[0, 1]` (1 = identical order, 0 = reversed). This is the evidence
/// table behind the search tenant's static prefilter.
pub fn fig_static(rows: &[prism_search::StaticRankRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Static cost model — rank agreement vs measured frame times"
    );
    let _ = writeln!(
        out,
        "  {:<10} {:<16} {:>8} {:>9} {:>10}",
        "platform", "shader", "variants", "footrule", "agreement"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "  {:<10} {:<16} {:>8} {:>9.1} {:>9.0}%",
            row.vendor,
            row.shader,
            row.variants,
            row.footrule,
            row.agreement * 100.0,
        );
    }
    if !rows.is_empty() {
        let mean = rows.iter().map(|r| r.agreement).sum::<f64>() / rows.len() as f64;
        let _ = writeln!(out, "  {:<36} mean agreement {:>5.0}%", "", mean * 100.0);
    }
    out
}

/// Source-form routing report (beyond the paper): which emission backend
/// each platform's driver consumed and which source-form version token the
/// driver front-end reported parsing — the end-to-end evidence that one
/// optimized IR reached N drivers through four different source forms.
pub fn fig_backends(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Source forms — one IR, per-platform driver input");
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>14} {:>8}",
        "platform", "backend", "driver parsed", "shaders"
    );
    for vendor in study.platforms() {
        let records = study.for_platform(&vendor);
        let Some(first) = records.first() else {
            continue;
        };
        debug_assert!(
            records.iter().all(|r| r.backend == first.backend
                && r.driver_source_version == first.driver_source_version),
            "{vendor}: mixed source forms on one platform"
        );
        let _ = writeln!(
            out,
            "  {vendor:<10} {:>8} {:>14} {:>8}",
            first.backend,
            first.driver_source_version,
            records.len()
        );
    }
    out
}

/// A compact overall summary used by the quickstart example.
pub fn summary(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "study: {} shaders x {} platforms, {} measurements",
        study.shaders.len(),
        study.platforms().len(),
        study.measurements.len()
    );
    for s in platform_summaries(study) {
        let _ = writeln!(
            out,
            "  {:<10} best {:+5.2}%  default {:+5.2}%  static {:+5.2}%  ({})",
            s.vendor, s.mean_best, s.mean_default, s.mean_best_static, s.best_static
        );
    }
    out
}

/// Convenience: the mean best-policy speed-up per platform (used in tests and
/// EXPERIMENTS.md to compare against the paper's 1–4 % claim).
pub fn mean_best_speedups(study: &StudyResults) -> Vec<(String, f64)> {
    study
        .platforms()
        .into_iter()
        .map(|vendor| {
            let records = study.for_platform(&vendor);
            let v = per_shader_speedups(&records, Policy::Best);
            (vendor, mean(&v))
        })
        .collect()
}

/// Checks whether a flag appears in the reported best-static row for a
/// platform (used when comparing against the paper's Table I).
pub fn best_static_contains(study: &StudyResults, vendor: &str, flag: Flag) -> bool {
    let records = study.for_platform(vendor);
    if records.is_empty() {
        return false;
    }
    let (flags, _) = prism_search::minimal_best_static(&records);
    flags.contains(flag)
}

/// The full set of renderers in figure order, handy for "render everything".
/// Uniform-value specialization report (beyond the paper): per platform,
/// every interp-verified `(shader, assumption)` arm with the win the guarded
/// dispatch delivers while the assumption holds against the guard overhead
/// every draw pays when it does not — both sides of deploying the AZP axis.
/// Arms are listed best-win first within each platform.
pub fn fig_specialize(study: &StudyResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure S — uniform-value specialization (win when the assumption holds vs guard overhead)"
    );
    if study.specializations.is_empty() {
        let _ = writeln!(out, "  (study ran without the specialization axis)");
        return out;
    }
    let mut vendors: Vec<&str> = study
        .specializations
        .iter()
        .map(|r| r.vendor.as_str())
        .collect();
    vendors.sort_unstable();
    vendors.dedup();
    for vendor in vendors {
        let mut rows: Vec<_> = study
            .specializations
            .iter()
            .filter(|r| r.vendor == vendor)
            .collect();
        rows.sort_by(|a, b| {
            b.win_when_holds()
                .partial_cmp(&a.win_when_holds())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (&a.shader, &a.spec).cmp(&(&b.shader, &b.spec)))
        });
        let _ = writeln!(out, "  {vendor}");
        let _ = writeln!(
            out,
            "    {:<20} {:<12} {:>10} {:>10} {:>8} {:>9} {:>9}",
            "shader", "assumption", "general", "special", "guard", "win", "overhead"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "    {:<20} {:<12} {:>8.0}ns {:>8.0}ns {:>6.1}ns {:>8.2}% {:>8.2}%",
                r.shader,
                r.spec,
                r.general_ns,
                r.specialized_ns,
                r.guard_ns,
                r.win_when_holds(),
                r.overhead_when_violated(),
            );
        }
    }
    let confirms: usize = study
        .specializations
        .iter()
        .map(|r| r.interp_confirms)
        .sum();
    let _ = writeln!(
        out,
        "  every arm differentially interp-verified ({confirms} bit-exact confirmations)"
    );
    out
}

pub fn render_all(study: &StudyResults, blur_name: &str) -> String {
    let mut out = String::new();
    out.push_str(&fig3_motivating(study, blur_name));
    out.push('\n');
    out.push_str(&fig4_characterization(study));
    out.push('\n');
    out.push_str(&fig5_overall(study));
    out.push('\n');
    out.push_str(&fig6_top30(study, 30));
    out.push('\n');
    out.push_str(&table1_best_static(study));
    out.push('\n');
    out.push_str(&fig7_per_shader(study));
    out.push('\n');
    for vendor in study.platforms() {
        out.push_str(&fig8_applicability(study, &vendor));
        out.push('\n');
    }
    out.push_str(&fig9_per_flag(study));
    if !study.search.is_empty() {
        out.push('\n');
        out.push_str(&fig10_incremental(study));
        out.push('\n');
        out.push_str(&fig_regret(study));
    }
    out.push('\n');
    out.push_str(&fig_backends(study));
    if !study.specializations.is_empty() {
        out.push('\n');
        out.push_str(&fig_specialize(study));
    }
    out.push('\n');
    out.push_str(&fig_cache(study));
    out
}

// Re-export OptFlags so downstream doc examples can name it via this module.
#[allow(unused_imports)]
use OptFlags as _OptFlagsForDocs;

#[cfg(test)]
mod tests {
    use super::*;
    use prism_search::{ShaderPlatformRecord, ShaderRecord, VariantRecord};

    fn tiny_study() -> StudyResults {
        let mut flag_to_variant = vec![0usize; 256];
        for bits in 0..=255u8 {
            if OptFlags::from_bits(bits).contains(Flag::Unroll) {
                flag_to_variant[bits as usize] = 1;
            }
        }
        let record = |vendor: &str, fast: f64| ShaderPlatformRecord {
            shader: "blur".into(),
            vendor: vendor.into(),
            backend: "desktop".into(),
            driver_source_version: "450".into(),
            original_ns: 1000.0,
            variants: vec![
                VariantRecord {
                    index: 0,
                    flag_bits: vec![0],
                    mean_ns: 1005.0,
                    stddev_ns: 2.0,
                },
                VariantRecord {
                    index: 1,
                    flag_bits: vec![16],
                    mean_ns: fast,
                    stddev_ns: 2.0,
                },
            ],
            flag_to_variant: flag_to_variant.clone(),
        };
        StudyResults {
            shaders: vec![ShaderRecord {
                name: "blur".into(),
                family: "flagship".into(),
                loc: 14,
                arm_static_cycles: 40.0,
                unique_variants: 2,
                flag_changes_code: {
                    let mut v = vec![false; 8];
                    v[Flag::Unroll.bit() as usize] = true;
                    v
                },
            }],
            measurements: vec![record("AMD", 750.0), record("ARM", 650.0)],
            ..StudyResults::default()
        }
    }

    #[test]
    fn every_figure_renders_nonempty_text() {
        let study = tiny_study();
        assert!(fig3_motivating(&study, "blur").contains("AMD"));
        assert!(fig4_characterization(&study).contains("lines of code"));
        assert!(fig5_overall(&study).contains("per-shader best"));
        assert!(fig6_top30(&study, 30).contains("most-improved"));
        assert!(table1_best_static(&study).contains("Unroll"));
        assert!(fig7_per_shader(&study).contains("best static"));
        assert!(fig8_applicability(&study, "AMD").contains("changes code"));
        assert!(fig9_per_flag(&study).contains("Unroll"));
        let backends = fig_backends(&study);
        assert!(backends.contains("desktop"), "{backends}");
        assert!(backends.contains("450"), "{backends}");
        assert!(summary(&study).contains("shaders"));
        let all = render_all(&study, "blur");
        assert!(all.len() > 500);
        // Without search rows, Fig. 10 is omitted from the full render but
        // still renders standalone with a note.
        assert!(!all.contains("Figure 10"));
        assert!(fig10_incremental(&study).contains("without incremental search"));
    }

    #[test]
    fn fig10_lists_every_strategy_per_platform() {
        let mut study = tiny_study();
        for vendor in ["AMD", "ARM"] {
            for strategy in ["greedy_forward", "ablation"] {
                study.search.push(prism_search::SearchRecord {
                    vendor: vendor.into(),
                    strategy: strategy.into(),
                    shaders: 1,
                    budget: 63,
                    mean_compiles: 12.0,
                    max_compiles: 12,
                    candidates_pruned: 0,
                    mean_speedup: 20.0,
                    oracle_mean_speedup: 25.0,
                    default_mean_speedup: 15.0,
                    regret_checkpoints: vec![1, 2, 4, 8, 16, 32, 63],
                    mean_regret: vec![6.0, 5.0, 5.0, 3.0, 2.0, 1.0, 1.0],
                    regret_final: 1.0,
                });
            }
        }
        let text = fig10_incremental(&study);
        assert!(text.contains("greedy_forward"));
        assert!(text.contains("ablation"));
        assert!(text.contains("AMD"));
        assert!(text.contains("ARM"));
        assert!(render_all(&study, "blur").contains("Figure 10"));
    }

    #[test]
    fn fig_regret_renders_curves_and_skips_rows_without_them() {
        let mut study = tiny_study();
        assert!(fig_regret(&study).contains("no regret curves"));
        study.search.push(prism_search::SearchRecord {
            vendor: "AMD".into(),
            strategy: "ucb1".into(),
            shaders: 1,
            budget: 63,
            mean_compiles: 20.0,
            max_compiles: 20,
            candidates_pruned: 0,
            mean_speedup: 24.0,
            oracle_mean_speedup: 25.0,
            default_mean_speedup: 15.0,
            regret_checkpoints: vec![1, 2, 4, 8, 16, 32, 63],
            mean_regret: vec![10.0, 6.0, 4.5, 2.0, 1.0, 1.0, 1.0],
            regret_final: 1.0,
        });
        // A pre-regret row (empty curve) must be skipped, not crash.
        study.search.push(prism_search::SearchRecord {
            vendor: "AMD".into(),
            strategy: "legacy".into(),
            shaders: 1,
            budget: 63,
            mean_compiles: 10.0,
            max_compiles: 10,
            candidates_pruned: 0,
            mean_speedup: 18.0,
            oracle_mean_speedup: 25.0,
            default_mean_speedup: 15.0,
            regret_checkpoints: vec![],
            mean_regret: vec![],
            regret_final: 0.0,
        });
        let text = fig_regret(&study);
        assert!(text.contains("ucb1"), "{text}");
        assert!(!text.contains("legacy"), "{text}");
        assert!(text.contains("10.00"), "{text}");
        assert!(render_all(&study, "blur").contains("Figure R"));
    }

    #[test]
    fn table1_reports_the_beneficial_flag() {
        let study = tiny_study();
        assert!(best_static_contains(&study, "AMD", Flag::Unroll));
        assert!(!best_static_contains(&study, "AMD", Flag::Hoist));
        assert!(!best_static_contains(&study, "Intel", Flag::Unroll));
    }

    #[test]
    fn mean_best_speedups_are_positive_here() {
        let study = tiny_study();
        for (vendor, speedup) in mean_best_speedups(&study) {
            assert!(speedup > 0.0, "{vendor}: {speedup}");
        }
    }

    #[test]
    fn fig_cache_reports_warm_and_cold_runs() {
        let mut study = tiny_study();
        let cold = fig_cache(&study);
        assert!(cold.contains("cold run"), "{cold}");
        assert!(render_all(&study, "blur").contains("Corpus cache"));

        study.cache.stats.stage_runs = 10;
        study.cache.stats.stage_hits = 30;
        study.cache.stats.warm_stage_hits = 25;
        study.cache.stats.warm_emission_hits = 4;
        study.cache.stats.warm_entries_loaded = 40;
        study.cache.stats.warm_shards_loaded = 15;
        study.cache.stats.warm_shards_skipped = 1;
        let warm = fig_cache(&study);
        assert!(warm.contains("one shared corpus-wide store"), "{warm}");
        assert!(warm.contains("40 entries from 15 shards"), "{warm}");
        assert!(warm.contains("1 shard(s) skipped"), "{warm}");
        assert!(warm.contains("25 warm-start"), "{warm}");

        // Study sweeps never route requests; the serving line only appears
        // once a compile service has driven the cache.
        assert!(!warm.contains("serving:"), "{warm}");
        study.cache.stats.routed_requests = 200;
        study.cache.stats.coalesced_requests = 50;
        let served = fig_cache(&study);
        assert!(served.contains("200 routed"), "{served}");
        assert!(served.contains("50 coalesced ( 25.0%)"), "{served}");
    }

    #[test]
    fn fig_serve_renders_one_line_per_stream() {
        let rows = vec![
            ServeRow {
                label: "cold".into(),
                requests: 400,
                measured: 250,
                p50_latency: 0,
                p99_latency: 12,
                memo_served: 230,
                coalesced: 0,
                zero_copy: 231,
                stage_runs: 597,
            },
            ServeRow {
                label: "warm boot".into(),
                requests: 400,
                measured: 400,
                stage_runs: 0,
                memo_served: 400,
                zero_copy: 400,
                ..ServeRow::default()
            },
        ];
        let text = fig_serve(&rows);
        assert!(text.contains("Compile service"), "{text}");
        assert!(text.contains("cold"), "{text}");
        assert!(text.contains("warm boot"), "{text}");
        assert!(text.contains("597"), "{text}");
    }

    #[test]
    fn fig_static_renders_agreement_rows_and_their_mean() {
        let rows = vec![
            prism_search::StaticRankRow {
                vendor: "ARM".into(),
                shader: "blur".into(),
                variants: 8,
                footrule: 8.0,
                agreement: 0.75,
            },
            prism_search::StaticRankRow {
                vendor: "Apple".into(),
                shader: "blur".into(),
                variants: 8,
                footrule: 0.0,
                agreement: 1.0,
            },
        ];
        let text = fig_static(&rows);
        assert!(text.contains("Static cost model"), "{text}");
        assert!(text.contains("ARM"), "{text}");
        assert!(text.contains("75%"), "{text}");
        assert!(text.contains("mean agreement"), "{text}");
        assert!(text.contains("88%"), "{text}");
        assert_eq!(fig_static(&[]).lines().count(), 2, "header only when empty");
    }

    #[test]
    fn specialize_report_shows_both_sides_of_the_guard() {
        let mut study = tiny_study();
        let empty = fig_specialize(&study);
        assert!(empty.contains("without the specialization axis"), "{empty}");
        assert!(
            !render_all(&study, "blur").contains("Figure S"),
            "flag-only studies must not render an empty specialization figure"
        );

        study.specializations = vec![
            prism_search::SpecializationRecord {
                shader: "blur".into(),
                vendor: "AMD".into(),
                spec: "u1=0".into(),
                flag_bits: OptFlags::lunarglass_default().bits(),
                general_ns: 1000.0,
                specialized_ns: 800.0,
                guard_ns: 6.0,
                interp_confirms: 10,
            },
            prism_search::SpecializationRecord {
                shader: "blur".into(),
                vendor: "AMD".into(),
                spec: "u0=1".into(),
                flag_bits: OptFlags::lunarglass_default().bits(),
                general_ns: 1000.0,
                specialized_ns: 950.0,
                guard_ns: 6.0,
                interp_confirms: 10,
            },
        ];
        let text = fig_specialize(&study);
        assert!(text.contains("Figure S"), "{text}");
        assert!(text.contains("u1=0"), "{text}");
        assert!(text.contains("AMD"), "{text}");
        assert!(text.contains("20 bit-exact confirmations"), "{text}");
        // Best win sorts first within the platform.
        let zero_line = text.lines().position(|l| l.contains("u1=0")).unwrap();
        let one_line = text.lines().position(|l| l.contains("u0=1")).unwrap();
        assert!(zero_line < one_line, "{text}");
        assert!(render_all(&study, "blur").contains("Figure S"));
    }
}
