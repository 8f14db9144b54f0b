//! A small GLSL preprocessor.
//!
//! The GFXBench-style corpus follows the "übershader" pattern described in the
//! paper (§IV-A): one large base shader is specialised into many concrete
//! shader instances through `#define` switches and `#ifdef` blocks. This
//! module implements the subset of the GLSL preprocessor required for that
//! pattern:
//!
//! * `#version` / `#extension` / `#pragma` lines (recorded, then dropped),
//! * object-like `#define NAME` and `#define NAME value`,
//! * `#undef NAME`,
//! * `#ifdef NAME`, `#ifndef NAME`, `#else`, `#endif` (nested),
//! * substitution of object-like macros in ordinary source lines.
//!
//! A line that starts inside a `/* … */` comment is never a directive, and
//! the output may grow to at most [`MAX_EXPANSION`] times the input.
//!
//! The output is plain GLSL text, which is what the paper's lines-of-code
//! metric (Fig. 4a) is measured over and what the rest of the front-end
//! consumes.

use crate::error::{GlslError, Result, Stage};
use std::collections::HashMap;

/// Result of preprocessing: the expanded source plus metadata.
#[derive(Debug, Clone, Default)]
pub struct PreprocessedSource {
    /// Expanded GLSL text with all directives resolved and removed.
    pub text: String,
    /// `#version` string if one was present (e.g. `"450 core"`).
    pub version: Option<String>,
    /// Names of `#extension` directives encountered.
    pub extensions: Vec<String>,
    /// Macros that were defined (including those supplied externally).
    pub defines: HashMap<String, String>,
}

/// The largest the preprocessor's output may grow, as a multiple of its
/// input: the source plus the external definitions' names and values.
/// Substitution copies a macro's value at every use, so without a bound
/// `#define A <n/2 bytes>` followed by n/4 uses of `A` would turn n bytes of
/// source into about n²/8; past the bound the expansion is a
/// [`Stage::Preprocess`] error. No corpus shader's text grows at all.
pub const MAX_EXPANSION: usize = 4;

/// Preprocesses `source` with an initial set of externally supplied macro
/// definitions (the übershader specialisation switches).
///
/// `external_defines` maps macro names to replacement text; use an empty
/// string for flag-style macros (`#define USE_SHADOWS`).
///
/// # Errors
///
/// Returns a [`GlslError`] with [`Stage::Preprocess`] for malformed or
/// unbalanced directives, and for an expansion past [`MAX_EXPANSION`].
///
/// # Examples
///
/// ```
/// use prism_glsl::preprocessor::preprocess;
/// use std::collections::HashMap;
/// let src = "#define K 3\nfloat x = K;";
/// let out = preprocess(src, &HashMap::new()).unwrap();
/// assert!(out.text.contains("float x = 3;"));
/// ```
pub fn preprocess(
    source: &str,
    external_defines: &HashMap<String, String>,
) -> Result<PreprocessedSource> {
    let mut defines: HashMap<String, String> = external_defines.clone();
    let external_len: usize = defines.iter().map(|(k, v)| k.len() + v.len()).sum();
    let limit = MAX_EXPANSION.saturating_mul(source.len() + external_len);
    let mut out = PreprocessedSource::default();
    // Stack of (parent_active, this_branch_taken, currently_active).
    let mut cond_stack: Vec<CondFrame> = Vec::new();
    // Only a source that opens a block comment needs its lines scanned.
    let has_comments = source.contains("/*");
    let mut in_comment = false;

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let trimmed = raw_line.trim_start();
        let active = cond_stack.iter().all(|f| f.active);
        let starts_in_comment = in_comment;
        if has_comments {
            in_comment = comment_open_after(raw_line, in_comment);
        }

        if let Some(directive) = trimmed.strip_prefix('#').filter(|_| !starts_in_comment) {
            let directive = directive.trim();
            let (name, rest) = split_directive(directive);
            match name {
                "version" => {
                    if active {
                        out.version = Some(rest.trim().to_string());
                    }
                }
                "extension" | "pragma" => {
                    if active {
                        out.extensions.push(rest.trim().to_string());
                    }
                }
                "define" => {
                    if active {
                        let (macro_name, value) = split_directive(rest.trim());
                        if macro_name.is_empty() {
                            return Err(GlslError::new(
                                Stage::Preprocess,
                                format!("line {line_no}: #define without a name"),
                            ));
                        }
                        defines.insert(macro_name.to_string(), value.trim().to_string());
                    }
                }
                "undef" => {
                    if active {
                        defines.remove(rest.trim());
                    }
                }
                "ifdef" | "ifndef" => {
                    let name_defined = defines.contains_key(rest.trim());
                    let cond = if name == "ifdef" {
                        name_defined
                    } else {
                        !name_defined
                    };
                    cond_stack.push(CondFrame {
                        parent_active: active,
                        taken: cond && active,
                        active: cond && active,
                    });
                }
                "if" => {
                    // Support the common `#if defined(X)` / `#if 0` / `#if 1` forms.
                    let cond = eval_if_condition(rest.trim(), &defines);
                    cond_stack.push(CondFrame {
                        parent_active: active,
                        taken: cond && active,
                        active: cond && active,
                    });
                }
                "else" => {
                    let frame = cond_stack.last_mut().ok_or_else(|| {
                        GlslError::new(
                            Stage::Preprocess,
                            format!("line {line_no}: #else without matching #ifdef"),
                        )
                    })?;
                    frame.active = frame.parent_active && !frame.taken;
                    frame.taken = true;
                }
                "elif" => {
                    let cond = eval_if_condition(rest.trim(), &defines);
                    let frame = cond_stack.last_mut().ok_or_else(|| {
                        GlslError::new(
                            Stage::Preprocess,
                            format!("line {line_no}: #elif without matching #ifdef"),
                        )
                    })?;
                    frame.active = frame.parent_active && !frame.taken && cond;
                    if frame.active {
                        frame.taken = true;
                    }
                }
                "endif" => {
                    if cond_stack.pop().is_none() {
                        return Err(GlslError::new(
                            Stage::Preprocess,
                            format!("line {line_no}: #endif without matching #ifdef"),
                        ));
                    }
                }
                other => {
                    return Err(GlslError::new(
                        Stage::Preprocess,
                        format!("line {line_no}: unsupported directive `#{other}`"),
                    ));
                }
            }
            continue;
        }

        if active {
            substitute_macros(&mut out.text, raw_line, &defines, limit);
            if out.text.len() > limit {
                return Err(GlslError::new(
                    Stage::Preprocess,
                    format!(
                        "line {line_no}: macro expansion grows the source past \
                         {MAX_EXPANSION} times its size"
                    ),
                ));
            }
            out.text.push('\n');
        }
    }

    if !cond_stack.is_empty() {
        return Err(GlslError::new(
            Stage::Preprocess,
            "unterminated #ifdef block at end of file",
        ));
    }

    out.defines = defines;
    Ok(out)
}

struct CondFrame {
    parent_active: bool,
    taken: bool,
    active: bool,
}

fn split_directive(text: &str) -> (&str, &str) {
    match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], &text[i..]),
        None => (text, ""),
    }
}

fn eval_if_condition(cond: &str, defines: &HashMap<String, String>) -> bool {
    let cond = cond.trim();
    if cond == "0" {
        return false;
    }
    if cond == "1" {
        return true;
    }
    if let Some(rest) = cond.strip_prefix("!defined") {
        let name = rest
            .trim()
            .trim_start_matches('(')
            .trim_end_matches(')')
            .trim();
        return !defines.contains_key(name);
    }
    if let Some(rest) = cond.strip_prefix("defined") {
        let name = rest
            .trim()
            .trim_start_matches('(')
            .trim_end_matches(')')
            .trim();
        return defines.contains_key(name);
    }
    // Fall back to: a bare macro name is true when defined to a non-zero value.
    match defines.get(cond) {
        Some(v) => v.trim() != "0" && !v.trim().is_empty(),
        None => false,
    }
}

/// Whether a `/* … */` comment is open at the end of `line`, given whether
/// one was open at its start. Outside a comment, `//` ends the scan.
fn comment_open_after(line: &str, mut open: bool) -> bool {
    let mut rest = line;
    loop {
        if open {
            match rest.find("*/") {
                Some(i) => {
                    rest = &rest[i + 2..];
                    open = false;
                }
                None => return true,
            }
        } else {
            let Some(i) = rest.find('/') else {
                return false;
            };
            match rest.as_bytes().get(i + 1) {
                Some(b'*') => {
                    rest = &rest[i + 2..];
                    open = true;
                }
                Some(b'/') => return false,
                _ => rest = &rest[i + 1..],
            }
        }
    }
}

/// Appends `line` to `out`, replacing whole-identifier occurrences of
/// object-like macros. Stops early once `out` is longer than `limit`; the
/// caller reports the overrun.
fn substitute_macros(
    out: &mut String,
    line: &str,
    defines: &HashMap<String, String>,
    limit: usize,
) {
    if defines.is_empty() {
        out.push_str(line);
        return;
    }
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let ident = &line[start..i];
            match defines.get(ident) {
                Some(replacement) if !replacement.is_empty() => {
                    out.push_str(replacement);
                    if out.len() > limit {
                        return;
                    }
                }
                Some(_) | None => out.push_str(ident),
            }
        } else {
            out.push(c as char);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> PreprocessedSource {
        preprocess(src, &HashMap::new()).unwrap()
    }

    fn pp_with(src: &str, defs: &[(&str, &str)]) -> PreprocessedSource {
        let map = defs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        preprocess(src, &map).unwrap()
    }

    #[test]
    fn records_version_and_strips_directive() {
        let out = pp("#version 450 core\nfloat x;");
        assert_eq!(out.version.as_deref(), Some("450 core"));
        assert!(!out.text.contains("#version"));
        assert!(out.text.contains("float x;"));
    }

    #[test]
    fn object_macro_substitution() {
        let out = pp("#define RADIUS 4\nfloat r = RADIUS;\nfloat rr = RADIUS_BIG;");
        assert!(out.text.contains("float r = 4;"));
        // Only whole identifiers are substituted.
        assert!(out.text.contains("RADIUS_BIG"));
    }

    #[test]
    fn ifdef_selects_branches() {
        let src = "#ifdef USE_A\nfloat a;\n#else\nfloat b;\n#endif";
        let with = pp_with(src, &[("USE_A", "")]);
        assert!(with.text.contains("float a;"));
        assert!(!with.text.contains("float b;"));
        let without = pp(src);
        assert!(!without.text.contains("float a;"));
        assert!(without.text.contains("float b;"));
    }

    #[test]
    fn ifndef_and_nested_conditionals() {
        let src = "#ifndef SKIP\n#ifdef INNER\nfloat i;\n#endif\nfloat o;\n#endif";
        let out = pp_with(src, &[("INNER", "")]);
        assert!(out.text.contains("float i;"));
        assert!(out.text.contains("float o;"));
        let skipped = pp_with(src, &[("SKIP", ""), ("INNER", "")]);
        assert!(!skipped.text.contains("float i;"));
        assert!(!skipped.text.contains("float o;"));
    }

    #[test]
    fn if_defined_form() {
        let src =
            "#if defined(FOO)\nfloat f;\n#elif defined(BAR)\nfloat b;\n#else\nfloat e;\n#endif";
        assert!(pp_with(src, &[("FOO", "")]).text.contains("float f;"));
        assert!(pp_with(src, &[("BAR", "")]).text.contains("float b;"));
        assert!(pp(src).text.contains("float e;"));
    }

    #[test]
    fn define_inside_inactive_block_is_ignored() {
        let src = "#ifdef NOPE\n#define K 9\n#endif\nfloat x = K;";
        let out = pp(src);
        assert!(out.text.contains("float x = K;"));
    }

    #[test]
    fn undef_removes_macro() {
        let out = pp("#define K 2\n#undef K\nfloat x = K;");
        assert!(out.text.contains("float x = K;"));
    }

    #[test]
    fn unbalanced_endif_is_an_error() {
        assert!(preprocess("#endif", &HashMap::new()).is_err());
        assert!(preprocess("#ifdef X\nfloat a;", &HashMap::new()).is_err());
        assert!(preprocess("#else", &HashMap::new()).is_err());
    }

    #[test]
    fn external_defines_drive_specialisation() {
        let src =
            "#ifdef QUALITY_HIGH\nconst int SAMPLES = 16;\n#else\nconst int SAMPLES = 4;\n#endif";
        let hi = pp_with(src, &[("QUALITY_HIGH", "1")]);
        assert!(hi.text.contains("SAMPLES = 16"));
        let lo = pp(src);
        assert!(lo.text.contains("SAMPLES = 4"));
    }

    #[test]
    fn a_line_inside_a_block_comment_is_no_directive() {
        let out = pp("/*\n# Blur pass\n#define K 9\n*/ float x = K;\n#define J 2\nfloat y = J;");
        assert!(out.text.contains("# Blur pass"));
        assert!(out.text.contains("float x = K;"));
        assert!(out.text.contains("float y = 2;"));
        // Comments opened and closed on one line, or after `//`, leave the
        // next line a directive.
        let out = pp("float a; /* one */ // /* not open\n#define K 3\nfloat x = K;");
        assert!(out.text.contains("float x = 3;"));
        assert!(comment_open_after("a /* b */ c /* d", false));
        assert!(!comment_open_after("*/ a // b /*", true));
        assert!(!comment_open_after("a / b * c", false));
    }

    #[test]
    fn expansion_is_bounded() {
        let value = "x".repeat(2_000);
        let uses = "A ".repeat(1_000);
        let src = format!("#define A {value}\nfloat y = {uses};");
        let err = preprocess(&src, &HashMap::new()).unwrap_err();
        assert_eq!(err.stage, Stage::Preprocess);
        assert!(err.message.contains("expansion"), "{}", err.message);
        // The same uses of a short macro stay within the bound.
        let src = format!("#define A 1.0\nfloat y = {uses};");
        assert!(preprocess(&src, &HashMap::new()).is_ok());
        // External definitions count towards the input.
        let defs = [("A".to_string(), value)].into_iter().collect();
        assert!(preprocess("float y = A A A;", &defs).is_ok());
    }

    #[test]
    fn if_zero_and_one() {
        let src = "#if 0\nfloat dead;\n#endif\n#if 1\nfloat live;\n#endif";
        let out = pp(src);
        assert!(!out.text.contains("dead"));
        assert!(out.text.contains("live"));
    }
}
