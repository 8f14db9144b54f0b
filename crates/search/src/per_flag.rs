//! Per-flag isolated impact (Fig. 9).
//!
//! Each flag is measured *alone* against the LunarGlass all-flags-off
//! baseline — not against the original shader — so the comparison isolates
//! the pass's effect from the source-to-source artefacts, exactly as the
//! paper does ("we use a baseline of LunarGlass running with all
//! optimizations disabled here, rather than an unaltered shader", §VI-D).

use crate::results::StudyResults;
use prism_core::{Flag, OptFlags};

/// The distribution of per-shader speed-ups for one flag on one platform —
/// the data behind one violin of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct FlagImpact {
    /// The flag measured in isolation.
    pub flag: Flag,
    /// Platform name.
    pub vendor: String,
    /// Percentage speed-up per shader versus the no-flag baseline.
    pub speedups: Vec<f64>,
}

impl FlagImpact {
    /// Mean speed-up across shaders.
    pub fn mean(&self) -> f64 {
        if self.speedups.is_empty() {
            0.0
        } else {
            self.speedups.iter().sum::<f64>() / self.speedups.len() as f64
        }
    }

    /// Largest observed speed-up (the violin's upper extent).
    pub fn max(&self) -> f64 {
        self.speedups.iter().copied().fold(0.0, f64::max)
    }

    /// Largest observed slow-down (the violin's lower extent, negative).
    pub fn min(&self) -> f64 {
        self.speedups.iter().copied().fold(0.0, f64::min)
    }

    /// Number of shaders whose code the flag actually changed (non-zero
    /// entries only exist for those, all others sit exactly at 0).
    pub fn nonzero_count(&self) -> usize {
        self.speedups.iter().filter(|s| s.abs() > 1e-9).count()
    }
}

/// Computes the isolated impact of one flag on one platform.
pub fn flag_impact(study: &StudyResults, vendor: &str, flag: Flag) -> FlagImpact {
    let speedups = study
        .for_platform(vendor)
        .iter()
        .map(|record| record.speedup_vs_baseline(OptFlags::only(flag)))
        .collect();
    FlagImpact {
        flag,
        vendor: vendor.to_string(),
        speedups,
    }
}

/// Computes Fig. 9 in full: every flag on every platform of the study.
pub fn all_flag_impacts(study: &StudyResults) -> Vec<FlagImpact> {
    let mut out = Vec::new();
    for vendor in study.platforms() {
        for flag in Flag::ALL {
            out.push(flag_impact(study, &vendor, flag));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::{ShaderPlatformRecord, ShaderRecord, VariantRecord};

    fn study() -> StudyResults {
        // Shader where Unroll helps by 20% and Hoist hurts by 10% relative to
        // the no-flag baseline of 1000 ns.
        let mut flag_to_variant = vec![0usize; 256];
        for bits in 0..=255u8 {
            let flags = OptFlags::from_bits(bits);
            flag_to_variant[bits as usize] =
                match (flags.contains(Flag::Unroll), flags.contains(Flag::Hoist)) {
                    (true, _) => 1,
                    (false, true) => 2,
                    _ => 0,
                };
        }
        StudyResults {
            shaders: vec![ShaderRecord {
                name: "s".into(),
                family: "f".into(),
                loc: 20,
                arm_static_cycles: 10.0,
                unique_variants: 3,
                flag_changes_code: vec![true; 8],
            }],
            measurements: vec![ShaderPlatformRecord {
                shader: "s".into(),
                vendor: "ARM".into(),
                backend: "gles".into(),
                driver_source_version: "310 es".into(),
                original_ns: 980.0,
                variants: vec![
                    VariantRecord {
                        index: 0,
                        flag_bits: vec![0],
                        mean_ns: 1000.0,
                        stddev_ns: 1.0,
                    },
                    VariantRecord {
                        index: 1,
                        flag_bits: vec![],
                        mean_ns: 800.0,
                        stddev_ns: 1.0,
                    },
                    VariantRecord {
                        index: 2,
                        flag_bits: vec![],
                        mean_ns: 1100.0,
                        stddev_ns: 1.0,
                    },
                ],
                flag_to_variant,
            }],
            ..StudyResults::default()
        }
    }

    #[test]
    fn isolated_impacts_use_the_no_flag_baseline() {
        let s = study();
        let unroll = flag_impact(&s, "ARM", Flag::Unroll);
        assert_eq!(unroll.speedups.len(), 1);
        assert!((unroll.mean() - 20.0).abs() < 1e-9);
        let hoist = flag_impact(&s, "ARM", Flag::Hoist);
        assert!((hoist.mean() + 10.0).abs() < 1e-9);
        // A flag that maps to the same variant as the baseline has exactly 0.
        let adce = flag_impact(&s, "ARM", Flag::Adce);
        assert_eq!(adce.mean(), 0.0);
        assert_eq!(adce.nonzero_count(), 0);
        assert_eq!(unroll.nonzero_count(), 1);
    }

    #[test]
    fn all_impacts_cover_every_flag_and_platform() {
        let s = study();
        let all = all_flag_impacts(&s);
        assert_eq!(all.len(), 8);
        assert!(all.iter().any(|i| i.flag == Flag::DivToMul));
    }

    #[test]
    fn extents_reflect_best_and_worst_cases() {
        let s = study();
        let unroll = flag_impact(&s, "ARM", Flag::Unroll);
        assert_eq!(unroll.max(), unroll.mean());
        assert_eq!(unroll.min(), 0.0);
        let hoist = flag_impact(&s, "ARM", Flag::Hoist);
        assert!(hoist.min() < 0.0);
    }
}
