//! Hostile input at the text entry points. Every probe must come back from
//! [`CompileService::compile`], [`Platform::submit`] and
//! [`DriverMemo::submit`] as a typed error or an output, in-process: never
//! a panic, a stack overflow or a hang. All three enter through
//! `prism_core::front`, which verifies the IR before any pass runs.
//!
//! The GLSL parser bounds nesting at [`MAX_NESTING`] levels. The probes here
//! check that a source far past the bound is a parse error at both entry
//! points, that a source exactly at it runs through both on a 2 MB stack
//! even in a debug build, and that the corpus stays far below it. The
//! SPIR-V assembly parser bounds nested selections and loops at the same
//! [`MAX_NESTING`], checked the same way at both driver entry points. The
//! compile service shares the GLSL drivers' front end, preprocessor
//! included, so a `#version` line or a `#` line inside a block comment does
//! not change what it serves, and the preprocessor's output is bounded at
//! [`MAX_EXPANSION`] times its input at both entry points. A SPIR-V constant
//! array with an element of the wrong width is a verify error at both
//! driver entry points, not a panic inside a driver pass.

use prism::core::{CompileError, OptFlags};
use prism::corpus::Corpus;
use prism::emit::BackendKind;
use prism::glsl::parser::{nesting_depth, MAX_NESTING};
use prism::glsl::preprocessor::MAX_EXPANSION;
use prism::glsl::Stage;
use prism::gpu::{DriverMemo, Platform, Vendor};
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

/// SPIR-V assembly whose `main` nests `n` selections around one store.
fn spirv_selections(n: usize) -> String {
    let mut text = String::from(
        "; SPIR-V\n; Version: 1.0\n\
         %c = OpVariable Output v4float\n\
         %u = OpVariable Uniform float x1 ; float\n\
         %half = OpConstant float 0.5\n\
         %main = OpFunction void None\n\
         %entry = OpLabel\n\
         %u0 = OpLoad float %u 0\n\
         %value = OpCompositeConstruct v4float %u0 %u0 %u0 %u0\n\
         %cond = OpFOrdGreaterThan bool %u0 %half\n",
    );
    for k in 0..n {
        text += &format!(
            "OpSelectionMerge %merge{k} None\n\
             OpBranchConditional %cond %then{k} %merge{k}\n\
             %then{k} = OpLabel\n"
        );
    }
    text += "OpStore %c %value\n";
    for k in (0..n).rev() {
        text += &format!("OpBranch %merge{k}\n%merge{k} = OpLabel\n");
    }
    text + "OpReturn\nOpFunctionEnd\n"
}

/// What RADV's driver makes of `text` through both driver entry points:
/// the one-shot reference and a fresh memo.
fn radv_submits(text: &str) -> [Result<f64, CompileError>; 2] {
    let radv = Platform::new(Vendor::Radv);
    [
        radv.submit(text, "spirv"),
        DriverMemo::new().submit(&radv, text, "spirv"),
    ]
    .map(|submitted| submitted.map(|cost| cost.ideal_frame_ns))
}

fn assert_spirv_nesting_error(text: &str) {
    for (entry, submitted) in ["Platform::submit", "DriverMemo::submit"]
        .into_iter()
        .zip(radv_submits(text))
    {
        match submitted {
            Err(CompileError::Front(e)) => {
                assert_eq!(e.stage, Stage::Parse, "{entry}: {e}");
                assert!(e.message.contains("nesting"), "{entry}: {e}");
            }
            other => panic!("{entry}: expected a nesting error, got {other:?}"),
        }
    }
}

#[test]
fn ten_thousand_nested_spirv_selections_are_a_nesting_error_at_both_driver_entry_points() {
    let text = spirv_selections(10_000);
    assert!(text.len() > 1_000_000);
    assert_spirv_nesting_error(&text);
}

#[test]
fn spirv_nesting_at_the_limit_runs_on_a_two_megabyte_stack() {
    let run = || {
        let [reference, memoised] = radv_submits(&spirv_selections(MAX_NESTING));
        let reference = reference.expect("Platform::submit at the limit");
        assert_eq!(
            memoised.expect("DriverMemo::submit at the limit"),
            reference
        );
        assert_spirv_nesting_error(&spirv_selections(MAX_NESTING + 1));
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .expect("spawn the probe thread")
        .join()
        .expect("SPIR-V nested to the limit stays within 2 MB of stack");
}

#[test]
fn a_constant_array_element_of_the_wrong_width_is_a_verify_error_at_both_driver_entry_points() {
    let source = "uniform float u; out vec4 c; void main() {\n\
        const float[] w = float[](0.1, 0.2, 0.3);\n\
        float t = 0.0;\n\
        for (int i = 0; i < 3; i++) { t += w[i] * u; }\n\
        c = vec4(t);\n\
        }";
    let base = prism::core::front(BackendKind::DesktopGlsl, source, "w").expect("the GLSL lowers");
    let spirv = BackendKind::SpirvAsm.emit(&base.ir);
    // `%w`'s first element gets no lanes, and the loop's load reads it
    // through a constant index, which a driver's constant folding folds.
    let index = spirv
        .lines()
        .find_map(|line| line.split_once(" = OpAccessChain float %w "))
        .map(|(_, index)| index.trim())
        .expect("the loop loads from %w");
    let text = spirv
        .replace("(0.1)", "()")
        .replace(
            "%main = OpFunction",
            "%int_0 = OpConstant int 0\n%main = OpFunction",
        )
        .replace(
            &format!("OpAccessChain float %w {index}"),
            "OpAccessChain float %w %int_0",
        );
    assert!(
        text.contains("%w = OpConstantComposite float[3] () (0.2) (0.3)"),
        "{text}"
    );
    for (entry, submitted) in ["Platform::submit", "DriverMemo::submit"]
        .into_iter()
        .zip(radv_submits(&text))
    {
        match submitted {
            Err(CompileError::Verify(e)) => {
                assert!(e.message.contains("const array `w`"), "{entry}: {e}");
            }
            other => panic!("{entry}: expected a verify error, got {other:?}"),
        }
    }
}
