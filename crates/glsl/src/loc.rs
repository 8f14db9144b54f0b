//! The paper's "lines of code" static complexity metric (§V-A, Fig. 4a).
//!
//! The metric is computed on *post-preprocessing* GLSL and ignores
//! non-executable lines: uniform / input / output / precision declarations,
//! comments, blank lines and lines containing only brackets. Unused function
//! definitions still count, exactly as the paper notes.

/// Counts the paper's "lines of code" metric for preprocessed GLSL text
/// ([`ShaderSource::lines_of_code`](crate::ShaderSource::lines_of_code) is
/// this count over a front-ended shader's text).
///
/// # Examples
///
/// ```
/// use prism_glsl::loc::lines_of_code;
/// let src = "uniform float t;\n\nvoid main() {\n    float x = t * 2.0;\n}\n";
/// // The `uniform` declaration, the blank line and the lone `}` are ignored;
/// // the function signature `void main() {` and the statement
/// // `float x = t * 2.0;` are the two counted lines.
/// assert_eq!(lines_of_code(src), 2);
/// ```
///
/// Counting rules, in order:
/// * blank lines and comment-only lines are ignored,
/// * lines containing only `{`, `}`, `(`, `)`, `;` or combinations thereof
///   are ignored,
/// * `uniform`, `in`, `out`, `layout`, `precision`, `#`-directive and
///   `const` *global* declaration lines are ignored,
/// * every other line (statements, function signatures, local declarations)
///   counts as one line of code.
pub fn lines_of_code(source: &str) -> usize {
    let mut count = 0;
    let mut in_block_comment = false;
    let mut brace_depth: i32 = 0;
    for raw in source.lines() {
        let mut line = raw.trim();

        if in_block_comment {
            if let Some(end) = line.find("*/") {
                line = line[end + 2..].trim();
                in_block_comment = false;
            } else {
                continue;
            }
        }
        // Strip trailing line comments and block comments that open here.
        if let Some(pos) = line.find("//") {
            line = line[..pos].trim();
        }
        if let Some(pos) = line.find("/*") {
            let after = &line[pos + 2..];
            if let Some(end) = after.find("*/") {
                let rest = after[end + 2..].trim().to_string();
                let head = line[..pos].trim().to_string();
                // Both sides of an inline block comment are considered.
                let joined = format!("{head} {rest}");
                return_count_line(&joined, brace_depth, &mut count);
                update_depth(&joined, &mut brace_depth);
                continue;
            }
            in_block_comment = true;
            line = line[..pos].trim();
        }

        return_count_line(line, brace_depth, &mut count);
        update_depth(line, &mut brace_depth);
    }
    count
}

fn update_depth(line: &str, depth: &mut i32) {
    for c in line.chars() {
        match c {
            '{' => *depth += 1,
            '}' => *depth -= 1,
            _ => {}
        }
    }
}

fn return_count_line(line: &str, brace_depth: i32, count: &mut usize) {
    if line.is_empty() {
        return;
    }
    // Lines that are only punctuation.
    if line
        .chars()
        .all(|c| "{}();,".contains(c) || c.is_whitespace())
    {
        return;
    }
    // Preprocessor leftovers (should not appear after preprocessing, but be safe).
    if line.starts_with('#') {
        return;
    }
    let first_word = line.split_whitespace().next().unwrap_or("");
    let is_global_scope = brace_depth == 0;
    let is_decl_keyword = matches!(
        first_word,
        "uniform" | "in" | "out" | "varying" | "attribute" | "layout" | "precision" | "flat"
    );
    if is_decl_keyword {
        return;
    }
    // Global `const` array/scalar tables are parameter data, not code.
    if is_global_scope && first_word == "const" {
        return;
    }
    *count += 1;
}

/// Summary statistics over a set of per-shader LoC values, used to render the
/// Fig. 4a distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LocSummary {
    /// Number of shaders measured.
    pub count: usize,
    /// Smallest LoC value.
    pub min: usize,
    /// Largest LoC value.
    pub max: usize,
    /// Median LoC.
    pub median: usize,
    /// Fraction of shaders with fewer than 50 lines.
    pub fraction_under_50: f64,
}

impl LocSummary {
    /// Computes summary statistics from individual LoC counts.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_counts(counts: &[usize]) -> Option<LocSummary> {
        if counts.is_empty() {
            return None;
        }
        let mut sorted = counts.to_vec();
        sorted.sort_unstable();
        let under_50 = sorted.iter().filter(|&&c| c < 50).count();
        Some(LocSummary {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            median: sorted[sorted.len() / 2],
            fraction_under_50: under_50 as f64 / sorted.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_bracket_lines_ignored() {
        let src = "\n\n{\n}\n;\n";
        assert_eq!(lines_of_code(src), 0);
    }

    #[test]
    fn declarations_ignored_statements_counted() {
        let src = "uniform sampler2D tex;\nin vec2 uv;\nout vec4 c;\nvoid main() {\n    c = texture(tex, uv);\n    c *= 2.0;\n}\n";
        // counted: `void main() {`, two statements.
        assert_eq!(lines_of_code(src), 3);
    }

    #[test]
    fn comments_ignored() {
        let src = "// a comment\n/* block\n comment */\nvoid main() {\n    float x = 1.0; // trailing\n}\n";
        assert_eq!(lines_of_code(src), 2);
    }

    #[test]
    fn global_const_tables_ignored_but_local_const_counts() {
        let src = "const float K = 2.0;\nvoid main() {\n    const float j = 3.0;\n    float x = j * K;\n}\n";
        assert_eq!(lines_of_code(src), 3);
    }

    #[test]
    fn unused_functions_still_count() {
        let src = "float unused(float x) {\n    return x * 2.0;\n}\nvoid main() {\n    float y = 1.0;\n}\n";
        assert_eq!(lines_of_code(src), 4);
    }

    #[test]
    fn summary_statistics() {
        let s = LocSummary::from_counts(&[3, 10, 45, 80, 300]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 300);
        assert_eq!(s.median, 45);
        assert!((s.fraction_under_50 - 0.6).abs() < 1e-9);
        assert!(LocSummary::from_counts(&[]).is_none());
    }
}
