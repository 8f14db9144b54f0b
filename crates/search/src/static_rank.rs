//! Static-rank vs measured-rank agreement — the honest reproduction of the
//! paper's Fig. 4b claim.
//!
//! The paper characterises shaders with ARM's offline static analyser and
//! implicitly asks the reader to trust that static per-pipe cycle counts
//! track real frame times. This module measures that trust directly: for
//! every (shader, platform) the exhaustive study timed, rank the distinct
//! variants once by the [`prism_analyze::CostModel`]'s estimated cycles and
//! once by their measured mean frame time, and score how far the two
//! rankings disagree with the **Spearman footrule**
//! `F = Σ|rank_static(i) − rank_measured(i)|`, normalised to an agreement in
//! `[0, 1]` via the footrule's maximum `⌊n²/2⌋` (attained by reversed
//! rankings). Agreement 1.0 means the static model orders variants exactly
//! as the platform's driver + timer do; 0.0 means it orders them backwards.
//!
//! These rows are what `prism_report::fig_static` renders, and what
//! justifies the search tenant's static prefilter (the live evaluator's
//! [`with_static_prefilter`](crate::evaluator::LiveEvaluator::with_static_prefilter),
//! switched on by `prism_serve::TuneSpec::static_prefilter`): the prefilter
//! is only as safe as the static ranking is faithful.

use crate::results::StudyResults;
use prism_analyze::CostModel;
use prism_core::OptFlags;
use prism_corpus::Corpus;
use prism_gpu::Vendor;

/// Static-vs-measured rank agreement of one (shader, platform): one row of
/// the `fig_static` table.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticRankRow {
    /// Platform name (`Vendor::name()`).
    pub vendor: String,
    /// Shader name.
    pub shader: String,
    /// Distinct variants ranked (the shader's deduplicated variant count).
    pub variants: usize,
    /// Raw Spearman footrule distance between the two rankings.
    pub footrule: f64,
    /// Normalised agreement in `[0, 1]`: `1 − F / ⌊n²/2⌋`.
    pub agreement: f64,
}

serde::impl_serde_struct!(StaticRankRow {
    vendor,
    shader,
    variants,
    footrule,
    agreement
});

/// Competition ranks of `values` (0-based): position in the ascending sort,
/// ties broken by original index so the ranking is deterministic.
fn ranks(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .expect("costs are finite")
            .then_with(|| a.cmp(&b))
    });
    let mut rank = vec![0usize; values.len()];
    for (position, index) in order.into_iter().enumerate() {
        rank[index] = position;
    }
    rank
}

/// Spearman footrule distance and normalised agreement between two value
/// vectors of equal length (each is ranked ascending first). Lists shorter
/// than two elements agree trivially (footrule 0, agreement 1).
pub fn footrule_agreement(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "rankings must cover the same items");
    let n = a.len();
    if n < 2 {
        return (0.0, 1.0);
    }
    let ra = ranks(a);
    let rb = ranks(b);
    let footrule: f64 = ra.iter().zip(&rb).map(|(x, y)| x.abs_diff(*y) as f64).sum();
    let max = ((n * n) / 2) as f64;
    (footrule, 1.0 - footrule / max)
}

/// One `fig_static` row per (shader, platform) of an exhaustively measured
/// study: each distinct variant's optimized IR is re-derived through a
/// compile session (memoised — one representative flag set per variant) and
/// costed by the platform personality's static model, then the static
/// ranking is scored against the study's measured ranking. Shaders the
/// optimizer rejected, records for unknown platforms, and degenerate
/// single-variant records are skipped, mirroring the sweep's own policy.
pub fn static_agreement_rows(corpus: &Corpus, study: &StudyResults) -> Vec<StaticRankRow> {
    let mut rows = Vec::new();
    for case in &corpus.cases {
        let Ok(session) = prism_core::CompileSession::new(&case.source, &case.name) else {
            continue;
        };
        for record in study.measurements.iter().filter(|m| m.shader == case.name) {
            let Some(vendor) = Vendor::from_name(&record.vendor) else {
                continue;
            };
            let model = CostModel::for_vendor(vendor);
            let mut static_costs = Vec::new();
            let mut measured = Vec::new();
            for variant in &record.variants {
                // Any flag set mapping to this variant reproduces its IR;
                // take the first recorded one as the representative.
                let Some(&bits) = variant.flag_bits.first() else {
                    continue;
                };
                let Ok(compiled) = session.compile(OptFlags::from_bits(bits)) else {
                    continue;
                };
                static_costs.push(model.cost(&compiled.ir).estimated_cycles);
                measured.push(variant.mean_ns);
            }
            if static_costs.len() < 2 {
                continue;
            }
            let (footrule, agreement) = footrule_agreement(&static_costs, &measured);
            rows.push(StaticRankRow {
                vendor: record.vendor.clone(),
                shader: record.shader.clone(),
                variants: static_costs.len(),
                footrule,
                agreement,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_rankings_agree_perfectly() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let (footrule, agreement) = footrule_agreement(&a, &b);
        assert_eq!(footrule, 0.0);
        assert_eq!(agreement, 1.0);
    }

    #[test]
    fn reversed_rankings_have_zero_agreement() {
        // The footrule maximum ⌊n²/2⌋ is attained exactly by the reversed
        // permutation, so a backwards static model scores 0.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [40.0, 30.0, 20.0, 10.0];
        let (footrule, agreement) = footrule_agreement(&a, &b);
        assert_eq!(footrule, 8.0);
        assert_eq!(agreement, 0.0);
    }

    #[test]
    fn one_swap_costs_two_footrule_steps() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 30.0, 20.0];
        let (footrule, agreement) = footrule_agreement(&a, &b);
        assert_eq!(footrule, 2.0);
        assert!((agreement - (1.0 - 2.0 / 4.0)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rankings_agree_trivially() {
        assert_eq!(footrule_agreement(&[], &[]), (0.0, 1.0));
        assert_eq!(footrule_agreement(&[5.0], &[7.0]), (0.0, 1.0));
    }

    #[test]
    fn ties_rank_deterministically_by_index() {
        // Equal values keep their original order, so re-running the ranking
        // is byte-stable — what keeps fig_static reproducible.
        assert_eq!(ranks(&[2.0, 2.0, 1.0]), vec![1, 2, 0]);
    }

    #[test]
    fn rows_round_trip_json() {
        let row = StaticRankRow {
            vendor: "ARM".into(),
            shader: "flagship_blur9".into(),
            variants: 12,
            footrule: 14.0,
            agreement: 0.8,
        };
        let json = serde_json::to_string(&row).unwrap();
        let back: StaticRankRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back, row);
    }
}
