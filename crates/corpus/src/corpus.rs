//! The assembled benchmark corpus.

use crate::families::{all_families, Family};
use crate::flagship;
use prism_glsl::{GlslError, ShaderSource};
use std::collections::HashMap;

/// One benchmark fragment shader, ready for the optimizer and the harness.
#[derive(Debug, Clone)]
pub struct ShaderCase {
    /// Unique corpus name (`family_NN` or `flagship_*`).
    pub name: String,
    /// The übershader family this instance was specialised from.
    pub family: String,
    /// The `#define` switches used to specialise it.
    pub defines: Vec<(String, String)>,
    /// The preprocessed, parsed and checked shader.
    pub source: ShaderSource,
}

impl ShaderCase {
    /// The paper's lines-of-code metric for this shader (post-preprocessing).
    pub fn lines_of_code(&self) -> usize {
        self.source.lines_of_code()
    }
}

/// The full benchmark corpus: the stand-in for GFXBench 4.0's fragment
/// shaders, built to match the structural statistics the paper reports.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All shader cases, in deterministic order.
    pub cases: Vec<ShaderCase>,
}

impl Corpus {
    /// Builds the GFXBench-4.0-like corpus: three hand-written flagship
    /// shaders plus every specialisation of every übershader family.
    ///
    /// # Panics
    ///
    /// Panics if any built-in corpus shader fails the front-end — that is a
    /// bug in the corpus itself and is covered by tests.
    pub fn gfxbench_like() -> Corpus {
        Corpus::try_build().expect("built-in corpus shaders must pass the front-end")
    }

    /// Fallible corpus construction (exposed for error-path testing).
    pub fn try_build() -> Result<Corpus, (String, GlslError)> {
        let mut cases = Vec::new();
        for (name, src) in flagship::all() {
            let source = ShaderSource::parse(src).map_err(|e| (name.to_string(), e))?;
            cases.push(ShaderCase {
                name: name.to_string(),
                family: "flagship".to_string(),
                defines: Vec::new(),
                source,
            });
        }
        for family in all_families() {
            instantiate_family(&family, &mut cases)?;
        }
        Ok(Corpus { cases })
    }

    /// Instantiates every specialisation of a single übershader family as
    /// its own corpus (no flagships). A family with zero specialisations
    /// yields an empty corpus — a legal, if degenerate, input every corpus
    /// statistic must tolerate.
    ///
    /// # Errors
    ///
    /// Returns the failing instance name and front-end error if a
    /// specialisation does not parse.
    pub fn from_family(family: &Family) -> Result<Corpus, (String, GlslError)> {
        let mut cases = Vec::new();
        instantiate_family(family, &mut cases)?;
        Ok(Corpus { cases })
    }

    /// The canonical small slice for smoke benches, CI gates and quick
    /// studies: the blur flagship (real optimization headroom), two
    /// texture_combine übershader family members (cross-shader cache
    /// sharing) and two simple shaders. One definition so the perf gate,
    /// benches and tests all exercise the same corpus.
    pub const FAMILY_MIX: [&'static str; 5] = [
        "flagship_blur9",
        "texture_combine_00",
        "texture_combine_01",
        "ui_blit_00",
        "color_grade_01",
    ];

    /// The [`Corpus::FAMILY_MIX`] sub-corpus.
    pub fn family_mix() -> Corpus {
        Corpus::gfxbench_like().subset(&Corpus::FAMILY_MIX)
    }

    /// The sub-corpus containing only the named shaders (in corpus order).
    /// The one constructor behind every test/bench/CI corpus slice, so the
    /// slices cannot drift apart when the corpus is renamed or regrown.
    ///
    /// # Panics
    ///
    /// Panics if any requested name is absent — a misspelt slice must fail
    /// loudly, not silently shrink a benchmark.
    pub fn subset(&self, names: &[&str]) -> Corpus {
        for name in names {
            assert!(
                self.case(name).is_some(),
                "corpus subset requests unknown shader `{name}`"
            );
        }
        Corpus {
            cases: self
                .cases
                .iter()
                .filter(|c| names.contains(&c.name.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Number of shaders in the corpus.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// `true` if the corpus is empty (never the case for the built-in one).
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// Looks a case up by name.
    pub fn case(&self, name: &str) -> Option<&ShaderCase> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// The motivating-example blur shader.
    pub fn blur9(&self) -> &ShaderCase {
        self.case(flagship::BLUR9_NAME)
            .expect("flagship blur is always present")
    }

    /// Per-shader lines-of-code values (Fig. 4a input).
    pub fn loc_distribution(&self) -> Vec<usize> {
        self.cases.iter().map(ShaderCase::lines_of_code).collect()
    }

    /// Median and maximum of the lines-of-code distribution, or `None` for
    /// an empty corpus. Callers used to take `loc.iter().max().unwrap()`
    /// themselves, which panicked the moment a zero-member übershader
    /// family (or an over-filtered subset) produced an empty corpus.
    pub fn loc_summary(&self) -> Option<LocSummary> {
        let mut sorted = self.loc_distribution();
        sorted.sort_unstable();
        let max = *sorted.last()?;
        Some(LocSummary {
            median: sorted[sorted.len() / 2],
            max,
        })
    }

    /// Structural summary used to check the corpus against the paper's §V
    /// characterisation.
    pub fn stats(&self) -> CorpusStats {
        let mut stats = CorpusStats {
            shader_count: self.cases.len(),
            ..CorpusStats::default()
        };
        for case in &self.cases {
            let text = &case.source.text;
            if text.contains("for (") || text.contains("for(") {
                stats.with_loops += 1;
            }
            if text.contains("if (") || text.contains("if(") || text.contains(" ? ") {
                stats.with_branches += 1;
            }
            if has_constant_division(text) {
                stats.with_constant_division += 1;
            }
            if text.contains(".rgb =")
                || text.contains(".a =")
                || text.contains(".x =")
                || text.contains(".xyz =")
            {
                stats.with_component_writes += 1;
            }
            let loc = case.lines_of_code();
            stats.max_loc = stats.max_loc.max(loc);
            if loc < 50 {
                stats.under_50_loc += 1;
            }
        }
        stats
    }
}

/// Instantiates one family's specialisations into `cases` (shared by the
/// full corpus builder and [`Corpus::from_family`]).
fn instantiate_family(
    family: &Family,
    cases: &mut Vec<ShaderCase>,
) -> Result<(), (String, GlslError)> {
    for (idx, spec) in family.specializations.iter().enumerate() {
        let defines: HashMap<String, String> = spec
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let name = format!("{}_{:02}", family.name, idx);
        let source = ShaderSource::preprocess_and_parse(family.source, &defines)
            .map_err(|e| (name.clone(), e))?;
        cases.push(ShaderCase {
            name,
            family: family.name.to_string(),
            defines: spec
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            source,
        });
    }
    Ok(())
}

/// Median and maximum lines of code of a corpus (see
/// [`Corpus::loc_summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocSummary {
    /// Median per-shader lines of code.
    pub median: usize,
    /// Largest per-shader lines of code.
    pub max: usize,
}

/// Crude textual check for "divides by a literal constant somewhere".
fn has_constant_division(text: &str) -> bool {
    let bytes = text.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'/' && i + 1 < bytes.len() {
            let rest = text[i + 1..].trim_start();
            if rest
                .chars()
                .next()
                .map(|c| c.is_ascii_digit())
                .unwrap_or(false)
            {
                return true;
            }
        }
    }
    false
}

/// Structural statistics of the corpus (compared against the paper's §V).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Total number of shaders.
    pub shader_count: usize,
    /// Shaders containing at least one loop.
    pub with_loops: usize,
    /// Shaders containing a conditional or ternary.
    pub with_branches: usize,
    /// Shaders dividing by a literal constant.
    pub with_constant_division: usize,
    /// Shaders writing outputs/vectors component by component.
    pub with_component_writes: usize,
    /// Shaders with fewer than 50 lines of code.
    pub under_50_loc: usize,
    /// Largest lines-of-code value.
    pub max_loc: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_builds_and_has_the_right_size() {
        let corpus = Corpus::gfxbench_like();
        assert!(corpus.len() >= 100, "corpus has {} shaders", corpus.len());
        assert!(!corpus.is_empty());
        assert!(corpus.case(crate::flagship::BLUR9_NAME).is_some());
        assert_eq!(corpus.blur9().family, "flagship");
    }

    #[test]
    fn corpus_names_are_unique() {
        let corpus = Corpus::gfxbench_like();
        let mut names: Vec<&str> = corpus.cases.iter().map(|c| c.name.as_str()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn structure_matches_paper_characterisation() {
        let corpus = Corpus::gfxbench_like();
        let stats = corpus.stats();
        let n = stats.shader_count as f64;
        // Loops are uncommon (§V-A).
        assert!((stats.with_loops as f64) < 0.25 * n, "{stats:?}");
        // A majority of shaders are under 50 lines (Fig. 4a).
        assert!((stats.under_50_loc as f64) > 0.5 * n, "{stats:?}");
        // Even the longest shader stays in the low hundreds of lines.
        assert!(stats.max_loc < 350, "{stats:?}");
        assert!(stats.max_loc > 30, "{stats:?}");
        // Constant division and component writes are widespread (Fig. 8a/8b).
        assert!((stats.with_constant_division as f64) > 0.4 * n, "{stats:?}");
        assert!((stats.with_component_writes as f64) > 0.6 * n, "{stats:?}");
        // Branches show up in a meaningful minority.
        assert!((stats.with_branches as f64) > 0.15 * n, "{stats:?}");
    }

    #[test]
    fn loc_distribution_is_power_law_like() {
        let corpus = Corpus::gfxbench_like();
        let LocSummary { median, max } = corpus.loc_summary().expect("non-empty corpus");
        assert!(
            max > 3 * median,
            "expected a long tail: median {median}, max {max}"
        );
    }

    #[test]
    fn zero_member_family_yields_a_harmless_empty_corpus() {
        // A family with no specialisations is legal corpus input: every
        // statistic must degrade gracefully instead of panicking (the old
        // `loc.iter().max().unwrap()` pattern died here).
        let barren = Family {
            name: "barren",
            source: "out vec4 c; void main() { c = vec4(1.0); }",
            specializations: vec![],
        };
        let corpus = Corpus::from_family(&barren).expect("empty family builds");
        assert!(corpus.is_empty());
        assert_eq!(corpus.len(), 0);
        assert_eq!(corpus.loc_summary(), None);
        assert_eq!(corpus.loc_distribution(), Vec::<usize>::new());
        assert_eq!(corpus.stats().shader_count, 0);
        assert_eq!(corpus.stats().max_loc, 0);
        assert!(corpus.case("barren_00").is_none());
    }

    #[test]
    fn single_family_corpus_instantiates_every_specialisation() {
        let family = all_families()
            .into_iter()
            .find(|f| f.name == "ui_blit")
            .expect("ui_blit family exists");
        let corpus = Corpus::from_family(&family).unwrap();
        assert_eq!(corpus.len(), family.specializations.len());
        assert!(corpus.cases.iter().all(|c| c.family == "ui_blit"));
        assert!(corpus.loc_summary().is_some());
    }

    #[test]
    fn every_case_lowers_and_compiles_unoptimized() {
        // The whole corpus must survive the optimizer's front half; this is
        // the corpus-side contract the search crate relies on.
        let corpus = Corpus::gfxbench_like();
        for case in &corpus.cases {
            let result = prism_core::compile(&case.source, &case.name, prism_core::OptFlags::NONE);
            assert!(
                result.is_ok(),
                "{} failed to compile: {result:?}",
                case.name
            );
        }
    }
}
