//! # prism-glsl — GLSL front-end for the prism shader-optimization study
//!
//! This crate implements the front half of the LunarGlass-style pipeline used
//! in *"A Cross-platform Evaluation of Graphics Shader Compiler Optimization"*
//! (Crawford & O'Boyle, ISPASS 2018): a preprocessor that resolves the
//! übershader `#define` specialisation pattern, a lexer and recursive-descent
//! parser for the fragment-shader subset of GLSL used by the GFXBench-style
//! corpus, a type checker, shader interface introspection (the uniforms,
//! samplers, inputs and outputs that optimization must keep), and the paper's
//! lines-of-code complexity metric.
//!
//! ## Quick start
//!
//! ```
//! use prism_glsl::ShaderSource;
//!
//! let src = r#"
//!     uniform sampler2D tex; uniform vec4 tint;
//!     in vec2 uv; out vec4 fragColor;
//!     void main() { fragColor = texture(tex, uv) * tint; }
//! "#;
//! let shader = ShaderSource::parse(src).unwrap();
//! assert_eq!(shader.interface.samplers.len(), 1);
//! assert!(shader.lines_of_code() > 0);
//! ```

pub mod ast;
pub mod builtins;
pub mod error;
pub mod interface;
pub mod lexer;
pub mod loc;
pub mod parser;
pub mod preprocessor;
pub mod token;
pub mod typecheck;
pub mod types;

use std::collections::HashMap;

pub use ast::TranslationUnit;
pub use error::{GlslError, Stage};
pub use interface::ShaderInterface;
pub use types::Type;

/// A fully front-ended shader: preprocessed text, type-checked AST and
/// interface, plus the static metrics computed on demand from the text. This
/// is the unit the optimizer, drivers and corpus all exchange.
#[derive(Debug, Clone)]
pub struct ShaderSource {
    /// Post-preprocessing GLSL text.
    pub text: String,
    /// Parsed AST.
    pub ast: TranslationUnit,
    /// External interface (uniforms, samplers, ins, outs).
    pub interface: ShaderInterface,
    /// The `#version` string the preprocessor saw (e.g. `"450"`, `"310 es"`),
    /// if the source carried one. Lets a driver model report which API's text
    /// actually reached it.
    pub version: Option<String>,
}

impl ShaderSource {
    /// Runs the full front-end, the preprocessor included, with no external
    /// defines: [`ShaderSource::preprocess_and_parse`] of `source` alone.
    ///
    /// # Errors
    ///
    /// Returns the first preprocessing, lexical, syntactic or semantic error.
    pub fn parse(source: &str) -> error::Result<ShaderSource> {
        ShaderSource::preprocess_and_parse(source, &HashMap::new())
    }

    /// Preprocesses `source` with the given übershader `#define` switches and
    /// then runs the full front-end. The preprocessor's output becomes
    /// [`ShaderSource::text`] without a copy.
    ///
    /// # Errors
    ///
    /// Returns the first preprocessing, lexical, syntactic or semantic error.
    pub fn preprocess_and_parse(
        source: &str,
        defines: &HashMap<String, String>,
    ) -> error::Result<ShaderSource> {
        let pre = preprocessor::preprocess(source, defines)?;
        let ast = parser::parse(&pre.text)?;
        typecheck::check(&ast)?;
        let interface = ShaderInterface::of(&ast);
        Ok(ShaderSource {
            text: pre.text,
            ast,
            interface,
            version: pre.version,
        })
    }

    /// The paper's lines-of-code metric (§V-A, Fig. 4a) over
    /// [`ShaderSource::text`], computed on demand: the corpus
    /// characterisation reads it, no driver or compile path does.
    ///
    /// ```
    /// use prism_glsl::ShaderSource;
    ///
    /// let shader = ShaderSource::parse(
    ///     "uniform float t;\nout vec4 c;\nvoid main() {\n    c = vec4(t);\n}\n",
    /// )
    /// .unwrap();
    /// // `void main() {` and the assignment; declarations and the lone
    /// // bracket do not count.
    /// assert_eq!(shader.lines_of_code(), 2);
    /// ```
    pub fn lines_of_code(&self) -> usize {
        loc::lines_of_code(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shader_source_end_to_end() {
        let src = "uniform float exposure;\nin vec2 uv;\nout vec4 c;\nvoid main() {\n  c = vec4(uv, 0.0, 1.0) * exposure;\n}";
        let s = ShaderSource::parse(src).unwrap();
        assert_eq!(s.interface.inputs.len(), 1);
        assert_eq!(s.interface.uniforms.len(), 1);
        assert_eq!(s.lines_of_code(), 2);
        assert!(s.ast.main().is_some());
    }

    #[test]
    fn preprocess_and_parse_specialises_ubershader() {
        let src = r#"
            uniform sampler2D albedo; in vec2 uv; out vec4 c;
            void main() {
                vec4 base = texture(albedo, uv);
            #ifdef USE_TINT
                base *= vec4(0.9, 0.8, 0.7, 1.0);
            #endif
                c = base;
            }
        "#;
        let plain = ShaderSource::preprocess_and_parse(src, &HashMap::new()).unwrap();
        let tinted = ShaderSource::preprocess_and_parse(
            src,
            &[("USE_TINT".to_string(), String::new())]
                .into_iter()
                .collect(),
        )
        .unwrap();
        assert!(tinted.lines_of_code() > plain.lines_of_code());
        assert!(tinted.interface.same_io(&plain.interface));
    }

    #[test]
    fn preprocess_records_the_version_directive() {
        let plain = ShaderSource::parse("out vec4 c; void main() { c = vec4(1.0); }").unwrap();
        assert_eq!(plain.version, None);
        let es = ShaderSource::preprocess_and_parse(
            "#version 310 es\nprecision highp float;\nout vec4 c; void main() { c = vec4(1.0); }",
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(es.version.as_deref(), Some("310 es"));
        let desktop = ShaderSource::preprocess_and_parse(
            "#version 450\nout vec4 c; void main() { c = vec4(1.0); }",
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(desktop.version.as_deref(), Some("450"));
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(ShaderSource::parse("void main() { oops }").is_err());
        assert!(ShaderSource::parse("out vec4 c; void main() { c = nothere; }").is_err());
    }
}
