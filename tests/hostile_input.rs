//! Hostile input at the text entry points. Every probe must come back from
//! [`CompileService::compile`] and [`Platform::submit`] as a typed error or
//! an output, in-process: never a panic, a stack overflow or a hang.
//!
//! The parser bounds nesting at [`MAX_NESTING`] levels. The probes here
//! check that a source far past the bound is a parse error at both entry
//! points, that a source exactly at it runs through both on a 2 MB stack
//! even in a debug build, and that the corpus stays far below it. The
//! compile service also shares the GLSL drivers' front end, preprocessor
//! included, so a `#version` line or a `#` line inside a block comment does
//! not change what it serves, and the preprocessor's output is bounded at
//! [`MAX_EXPANSION`] times its input at both entry points.

use prism::core::{CompileError, OptFlags};
use prism::corpus::Corpus;
use prism::emit::BackendKind;
use prism::glsl::parser::{nesting_depth, MAX_NESTING};
use prism::glsl::preprocessor::MAX_EXPANSION;
use prism::glsl::Stage;
use prism::gpu::{Platform, Vendor};
use prism::ir::Fingerprint;
use prism::serve::{CompileRequest, CompileService, ServeConfig, ServeError, ServiceStats};

/// Every request is rejected before routing, or routes and is answered by
/// the memo, leads a compile or coalesces onto a leader.
fn assert_requests_add_up(stats: &ServiceStats) {
    let routed = stats.memo_answered + stats.leader_requests + stats.cache.coalesced_requests;
    assert_eq!(stats.cache.routed_requests, routed, "{stats:?}");
    assert_eq!(stats.requests, stats.front_errors + routed, "{stats:?}");
}

/// A fragment shader whose `main` body is `body`, with a float uniform `u`
/// and a `vec4` output `c`.
fn shader(body: &str) -> String {
    format!("uniform float u;\nout vec4 c;\nvoid main() {{\n{body}\n}}\n")
}

/// `c = vec4(((…1.0…)));` with `n` parentheses.
fn parens(n: usize) -> String {
    shader(&format!("c = vec4({}1.0{});", "(".repeat(n), ")".repeat(n)))
}

/// `c = vec4(abs(abs(…u…)));` with `n` nested calls.
fn calls(n: usize) -> String {
    shader(&format!(
        "c = vec4({}u{});",
        "abs(".repeat(n),
        ")".repeat(n)
    ))
}

/// `c = vec4(- - … u);` with `n` prefix negations.
fn negations(n: usize) -> String {
    shader(&format!("c = vec4({}u);", "- ".repeat(n)))
}

/// `c = vec4(u + u + … + u);` with `n` additions.
fn sums(n: usize) -> String {
    shader(&format!("c = vec4(u{});", " + u".repeat(n)))
}

/// `n` nested blocks around the assignment.
fn blocks(n: usize) -> String {
    shader(&format!("{}c = vec4(u);{}", "{ ".repeat(n), " }".repeat(n)))
}

/// `n` nested `if`s around the assignment.
fn ifs(n: usize) -> String {
    shader(&format!(
        "c = vec4(0.0);\n{}c = vec4(u);{}",
        "if (u > 0.5) { ".repeat(n),
        " }".repeat(n)
    ))
}

/// An `if … else if …` chain of `n + 1` arms: each `else if` is an `if`
/// statement in the previous arm's `else` branch.
fn else_ifs(n: usize) -> String {
    shader(&format!(
        "c = vec4(0.0);\nif (u > 0.5) {{ c = vec4(1.0); }}{}",
        " else if (u > 0.25) { c = vec4(u); }".repeat(n)
    ))
}

/// A nesting probe: its kind and its source at `n` extra levels.
type Probe = (&'static str, fn(usize) -> String);

/// What the service makes of `source` at every flag, as desktop GLSL.
fn serve(service: &CompileService, source: &str) -> Result<(Fingerprint, String), ServeError> {
    let request = CompileRequest::new(source, OptFlags::all(), BackendKind::DesktopGlsl);
    service
        .compile(&request)
        .map(|response| (response.fingerprint, response.text.to_string()))
}

fn assert_nesting_error(result: Result<impl std::fmt::Debug, String>, entry: &str) {
    let message = result.expect_err(entry);
    assert!(message.contains("nesting"), "{entry}: {message}");
}

#[test]
fn twenty_thousand_parentheses_are_a_parse_error_at_both_entry_points() {
    let source = parens(20_000);
    assert!(source.len() > 40_000);

    let service = CompileService::new(ServeConfig::default());
    let served = serve(&service, &source).map_err(|e| match e {
        ServeError::Frontend(message) => message,
        other => panic!("expected a front-stage error, got {other:?}"),
    });
    assert_nesting_error(served, "service");
    let stats = service.stats();
    assert_eq!(stats.front_errors, 1);
    assert_requests_add_up(&stats);

    let submitted = Platform::new(Vendor::Nvidia)
        .submit(&source, "deep")
        .map(|cost| cost.ideal_frame_ns)
        .map_err(|e| match e {
            CompileError::Front(e) if e.stage == Stage::Parse => e.message,
            other => panic!("expected a parse error, got {other:?}"),
        });
    assert_nesting_error(submitted, "driver");
}

#[test]
fn nesting_at_the_limit_runs_on_a_two_megabyte_stack() {
    let probes: [Probe; 7] = [
        ("parentheses", parens),
        ("calls", calls),
        ("negations", negations),
        ("sums", sums),
        ("blocks", blocks),
        ("ifs", ifs),
        ("else-ifs", else_ifs),
    ];
    let run = move || {
        let service = CompileService::new(ServeConfig::default());
        let platforms = [Vendor::Nvidia, Vendor::Arm].map(Platform::new);
        for (kind, build) in probes {
            // Each level a probe adds is one parser level, so the
            // shallowest source fixes how many levels reach the limit.
            let base = nesting_depth(&build(0)).expect(kind);
            assert_eq!(nesting_depth(&build(1)).expect(kind), base + 1, "{kind}");
            let at = build(MAX_NESTING - base);
            assert_eq!(nesting_depth(&at).expect(kind), MAX_NESTING, "{kind}");

            // At the limit: compiled through both entry points.
            serve(&service, &at).unwrap_or_else(|e| panic!("{kind}: {e:?}"));
            for platform in &platforms {
                platform
                    .submit(&at, kind)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
            }

            let over = build(MAX_NESTING - base + 1);
            assert!(
                matches!(serve(&service, &over), Err(ServeError::Frontend(m)) if m.contains("nesting")),
                "{kind}: the service accepts one level past the limit"
            );
            assert!(
                matches!(platforms[0].submit(&over, kind), Err(CompileError::Front(e)) if e.stage == Stage::Parse),
                "{kind}: the driver accepts one level past the limit"
            );
        }
        assert_requests_add_up(&service.stats());
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .expect("spawn the probe thread")
        .join()
        .expect("probes at the nesting limit stay within 2 MB of stack");
}

#[test]
fn the_corpus_nests_far_below_the_limit() {
    let corpus = Corpus::gfxbench_like();
    let deepest = corpus
        .cases
        .iter()
        .map(|case| {
            let depth = nesting_depth(&case.source.text).expect("corpus shaders parse");
            (depth, case.name.as_str())
        })
        .max()
        .expect("a non-empty corpus");
    assert!(deepest.0 * 8 <= MAX_NESTING, "{deepest:?}");
}

/// Serves each of the first corpus sources bare and with `prefix` in front,
/// expecting the same fingerprint and text, and checks a GLSL driver
/// accepts the prefixed text too.
fn assert_served_like_the_bare_source(prefix: &str) {
    let corpus = Corpus::gfxbench_like();
    let service = CompileService::new(ServeConfig::default());
    for case in &corpus.cases[..4] {
        let bare = &case.source.text;
        let prefixed = format!("{prefix}{bare}");
        let expected = serve(&service, bare).expect("the bare corpus source is served");
        let served = serve(&service, &prefixed).expect("the prefixed source is served");
        assert_eq!(served, expected, "{}", case.name);
        Platform::new(Vendor::Intel)
            .submit(&prefixed, &case.name)
            .expect("a desktop driver accepts it");
    }
    let stats = service.stats();
    assert_eq!(stats.front_errors, 0);
    assert_requests_add_up(&stats);
}

#[test]
fn a_version_line_is_served_like_the_bare_source() {
    assert_served_like_the_bare_source("#version 450\n");
}

#[test]
fn hash_lines_inside_a_block_comment_are_no_directives() {
    // Neither the heading nor the `#define` is a directive: were the
    // define applied, the source would have no `main`.
    assert_served_like_the_bare_source("/*\n# Blur pass\n#define main unused\n*/\n");
}

#[test]
fn a_quadratic_macro_expansion_is_a_preprocess_error_at_both_entry_points() {
    // `#define A <n/2 bytes>` and n/4 uses of `A`: about n²/8 bytes if
    // expanded, 200 MB for this 40 KB source.
    let n = 40_000;
    let source = format!(
        "#define A {}\n{}",
        "1".repeat(n / 2),
        shader(&format!("c = vec4({});", "A ".repeat(n / 4)))
    );
    assert!(source.len() < n * 11 / 10);

    let service = CompileService::new(ServeConfig::default());
    let served = serve(&service, &source).map_err(|e| match e {
        ServeError::Frontend(message) => message,
        other => panic!("expected a front-stage error, got {other:?}"),
    });
    let message = served.expect_err("service");
    assert!(message.starts_with("preprocess error"), "{message}");
    assert!(
        message.contains(&format!("{MAX_EXPANSION} times")),
        "{message}"
    );
    let stats = service.stats();
    assert_eq!(stats.front_errors, 1);
    assert_requests_add_up(&stats);

    match Platform::new(Vendor::Amd).submit(&source, "expansion") {
        Err(CompileError::Front(e)) => {
            assert_eq!(e.stage, Stage::Preprocess, "{e}");
            assert!(e.message.contains("expansion"), "{e}");
        }
        other => panic!("expected a preprocess error, got {other:?}"),
    }
}
