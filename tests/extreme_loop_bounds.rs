//! Counted loops at the ends of `i64`. The GLSL front-end lowers
//! `for (int i = -9223372036854775807; i < 9223372036854775807; i++)` and
//! the SPIR-V front-end reads `OpLoopCounter int -9223372036854775808
//! 9223372036854775807 1`. Every layer that counts such a loop's trips — the
//! Unroll pass, the static cost model, the drivers' instruction counter and
//! the compile service — must return a result or a typed error. These tests
//! are meant for debug builds, where an overflowing subtraction panics.

use prism::analyze::analyze;
use prism::core::{CompileSession, Flag, OptFlags};
use prism::emit::BackendKind;
use prism::glsl::ShaderSource;
use prism::gpu::{Platform, Vendor};
use prism::serve::{CompileService, ServeConfig};

/// A loop over all of `i64` but its two ends: 2^64 − 2 trips.
const WIDE: &str = r#"
    uniform vec4 tint; out vec4 color;
    void main() {
        vec4 acc = vec4(0.0);
        for (int i = -9223372036854775807; i < 9223372036854775807; i++) {
            acc += tint * 0.5;
        }
        color = acc;
    }
"#;

/// The same shader with a 4-trip loop.
const NARROW: &str = r#"
    uniform vec4 tint; out vec4 color;
    void main() {
        vec4 acc = vec4(0.0);
        for (int i = 0; i < 4; i++) {
            acc += tint * 0.5;
        }
        color = acc;
    }
"#;

fn session(text: &str) -> CompileSession {
    let source = ShaderSource::parse(text).expect("parses");
    CompileSession::new(&source, "wide").expect("lowers")
}

#[test]
fn unroll_keeps_a_full_range_loop_rolled() {
    let session = session(WIDE);
    let text = session
        .text_for(OptFlags::only(Flag::Unroll), BackendKind::DesktopGlsl)
        .expect("the Unroll compile succeeds");
    assert!(text.contains("for ("), "{text}");
}

#[test]
fn static_analysis_costs_every_trip_of_a_full_range_loop() {
    let wide = session(WIDE);
    let narrow = session(NARROW);
    let estimate = |session: &CompileSession| {
        analyze(session.base_ir(), Vendor::Arm)
            .cost
            .estimated_cycles
    };
    assert!(estimate(&wide) > estimate(&narrow));

    // Fig. 4b's reading of the same loop on the Arm driver's IR.
    let arm = Platform::new(Vendor::Arm);
    let static_total = |session: &CompileSession| {
        let text = session.base_text_for(BackendKind::Gles);
        let cost = arm.submit(&text, "wide").expect("the Arm driver compiles");
        arm.static_cycles(&cost.driver_ir).total()
    };
    assert!(static_total(&wide) > static_total(&narrow));
}

#[test]
fn glsl_driver_counts_a_full_range_loop() {
    let cost = Platform::new(Vendor::Amd)
        .submit(WIDE, "wide")
        .expect("the AMD driver compiles");
    assert_eq!(cost.stats.loop_iterations, (u64::MAX - 1) as f64);
    assert!(cost.ideal_frame_ns.is_finite());
}

#[test]
fn spirv_driver_counts_a_loop_over_all_of_i64() {
    let emitted = session(WIDE).base_text_for(BackendKind::SpirvAsm);
    let widest = emitted.replace(
        "OpLoopCounter int -9223372036854775807 ",
        "OpLoopCounter int -9223372036854775808 ",
    );
    assert_ne!(*emitted, widest, "the emitted loop counter moved");
    let cost = Platform::new(Vendor::Radv)
        .submit(&widest, "wide")
        .expect("the RADV driver compiles");
    assert_eq!(cost.stats.loop_iterations, u64::MAX as f64);
}

#[test]
fn compile_service_analyzes_a_full_range_loop() {
    let service = CompileService::new(ServeConfig::default());
    for flags in [OptFlags::lunarglass_default(), OptFlags::all()] {
        let report = service
            .analyze(WIDE, flags, Vendor::Arm)
            .unwrap_or_else(|e| panic!("{flags}: {e}"));
        assert!(report.cost.longest.total() > 1e18, "{flags}");
    }
}

#[test]
fn inclusive_bound_past_the_end_of_i64_is_a_typed_error() {
    let source = ShaderSource::parse(
        "out vec4 color; void main() { color = vec4(0.0); \
         for (int i = 0; i <= 9223372036854775807; i++) { color += vec4(1.0); } }",
    )
    .expect("parses");
    match CompileSession::new(&source, "inclusive") {
        Ok(_) => panic!("`i <= i64::MAX` has no exclusive bound"),
        Err(error) => assert!(error.to_string().contains("out of range"), "{error}"),
    }
}
