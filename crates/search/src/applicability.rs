//! Per-flag applicability analysis (Fig. 8).
//!
//! For every optimization flag the paper reports three counts over the
//! corpus: the total number of shaders (blue), the number of shaders whose
//! generated code the flag changes at all (red), and the number of shaders
//! for which the flag is included in at least half of the optimal 10 % of
//! variants (green).

use crate::results::StudyResults;
use prism_core::{Flag, OptFlags};

/// Applicability counts for one flag on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct FlagApplicability {
    /// The flag in question.
    pub flag: Flag,
    /// Platform name.
    pub vendor: String,
    /// Total number of shaders measured (the blue bar).
    pub total_shaders: usize,
    /// Shaders whose generated code the flag changes (the red bar).
    pub changes_code: usize,
    /// Shaders where the flag appears in at least half of the optimal 10 % of
    /// flag combinations (the green bar).
    pub in_optimal_set: usize,
}

impl FlagApplicability {
    /// Fraction of shaders the flag changes.
    pub fn applicability_rate(&self) -> f64 {
        self.changes_code as f64 / self.total_shaders.max(1) as f64
    }

    /// Fraction of shaders where the flag is in the optimal set.
    pub fn optimality_rate(&self) -> f64 {
        self.in_optimal_set as f64 / self.total_shaders.max(1) as f64
    }
}

/// Computes Fig. 8 for one platform: one entry per flag.
pub fn flag_applicability(study: &StudyResults, vendor: &str) -> Vec<FlagApplicability> {
    let records = study.for_platform(vendor);
    Flag::ALL
        .iter()
        .map(|flag| {
            let mut changes_code = 0;
            let mut in_optimal_set = 0;
            for record in &records {
                let changes = study
                    .shader(&record.shader)
                    .map(|s| s.flag_changes_code[flag.bit() as usize])
                    .unwrap_or(false);
                if changes {
                    changes_code += 1;
                }
                if flag_in_optimal_tenth(record, *flag) {
                    in_optimal_set += 1;
                }
            }
            FlagApplicability {
                flag: *flag,
                vendor: vendor.to_string(),
                total_shaders: records.len(),
                changes_code,
                in_optimal_set,
            }
        })
        .collect()
}

/// The paper's green-bar criterion: the flag is enabled in at least half of
/// the best 10 % of the 256 flag combinations (ranked by measured time).
fn flag_in_optimal_tenth(record: &crate::results::ShaderPlatformRecord, flag: Flag) -> bool {
    let mut ranked: Vec<(f64, OptFlags)> = (0..=255u8)
        .map(|bits| {
            let flags = OptFlags::from_bits(bits);
            (record.time_for(flags), flags)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("times are finite"));
    let take = (ranked.len() / 10).max(1);
    let with_flag = ranked[..take]
        .iter()
        .filter(|(_, f)| f.contains(flag))
        .count();
    with_flag * 2 >= take
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::{ShaderPlatformRecord, ShaderRecord, VariantRecord};

    fn study_with_one_shader(fast_flag: Flag) -> StudyResults {
        let mut flag_to_variant = vec![0usize; 256];
        for bits in 0..=255u8 {
            if OptFlags::from_bits(bits).contains(fast_flag) {
                flag_to_variant[bits as usize] = 1;
            }
        }
        let mut flag_changes_code = vec![false; 8];
        flag_changes_code[fast_flag.bit() as usize] = true;
        StudyResults {
            shaders: vec![ShaderRecord {
                name: "s".into(),
                family: "f".into(),
                loc: 10,
                arm_static_cycles: 5.0,
                unique_variants: 2,
                flag_changes_code,
            }],
            measurements: vec![ShaderPlatformRecord {
                shader: "s".into(),
                vendor: "AMD".into(),
                backend: "desktop".into(),
                driver_source_version: "450".into(),
                original_ns: 1000.0,
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
                ],
                flag_to_variant,
            }],
            ..StudyResults::default()
        }
    }

    #[test]
    fn beneficial_flag_is_applicable_and_optimal() {
        let study = study_with_one_shader(Flag::Unroll);
        let table = flag_applicability(&study, "AMD");
        let unroll = table.iter().find(|f| f.flag == Flag::Unroll).unwrap();
        assert_eq!(unroll.total_shaders, 1);
        assert_eq!(unroll.changes_code, 1);
        assert_eq!(unroll.in_optimal_set, 1);
        assert_eq!(unroll.applicability_rate(), 1.0);
        assert_eq!(unroll.optimality_rate(), 1.0);
        // ADCE neither changes code nor appears required in the optimal set.
        let adce = table.iter().find(|f| f.flag == Flag::Adce).unwrap();
        assert_eq!(adce.changes_code, 0);
    }

    #[test]
    fn harmful_flag_is_applicable_but_not_optimal() {
        // Make the flag's variant slower instead.
        let mut study = study_with_one_shader(Flag::Hoist);
        study.measurements[0].variants[1].mean_ns = 1300.0;
        let table = flag_applicability(&study, "AMD");
        let hoist = table.iter().find(|f| f.flag == Flag::Hoist).unwrap();
        assert_eq!(hoist.changes_code, 1);
        assert_eq!(hoist.in_optimal_set, 0);
    }

    #[test]
    fn unknown_platform_yields_empty_counts() {
        let study = study_with_one_shader(Flag::Unroll);
        let table = flag_applicability(&study, "Intel");
        assert!(table.iter().all(|f| f.total_shaders == 0));
    }
}
