//! Differential suite for the driver memo: every memoised submission must
//! equal the one-shot reference path, [`Platform::submit`].
//!
//! The study sweep sends each column of a shader — the original, every
//! distinct variant, every specialization key — to all seven platforms
//! through one [`DriverMemo`]. This suite replays exactly those columns and
//! compares each memoised result with a fresh `Platform::submit` of the same
//! text: the same driver IR (structure and name), a bit-equal noise-free
//! frame time, the same source-form version, or the same error. Debug
//! builds cover a corpus slice; release builds cover the whole corpus.

use prism::core::{
    candidate_keys, CacheStore, CompileError, CompileSession, CorpusCache, OptFlags,
};
use prism::corpus::{Corpus, ShaderCase};
use prism::emit::BackendKind;
use prism::gpu::{DriverMemo, DriverModel, Platform, ShaderCost, Vendor};
use std::sync::Arc;

/// Submissions of one column: (platform index, text).
type Column = Vec<(usize, Arc<str>)>;

/// The corpus this build checks: a slice of families (the blur flagship
/// included) in debug, everything in release.
fn corpus() -> Corpus {
    let full = Corpus::gfxbench_like();
    if !cfg!(debug_assertions) {
        return full;
    }
    let keep = [
        "flagship_blur9",
        "ui_blit_00",
        "ui_blit_02",
        "color_grade_01",
    ];
    Corpus {
        cases: full
            .cases
            .into_iter()
            .filter(|c| keep.contains(&c.name.as_str()))
            .collect(),
    }
}

/// Every column the sweep submits for `case`, each platform's text as the
/// sweep chooses it: the original (desktop drivers take the corpus text, the
/// rest its conversion), each variant, and each effective specialization
/// key's general and specialized programs.
fn columns(case: &ShaderCase, session: &CompileSession, platforms: &[Platform]) -> Vec<Column> {
    let mut columns = Vec::new();
    let original = platforms
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let text = match p.backend() {
                BackendKind::DesktopGlsl => Arc::from(case.source.text.as_str()),
                backend => session.base_text_for(backend),
            };
            (i, text)
        })
        .collect();
    columns.push(original);
    for variant in session.variants().expect("corpus variants").variants {
        let flags = variant.representative_flags();
        let column = platforms
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let text = session.text_for(flags, p.backend()).expect("variant emits");
                (i, text)
            })
            .collect();
        columns.push(column);
    }
    let flags = OptFlags::lunarglass_default();
    for key in candidate_keys(session.base_ir(), 2) {
        let mut column = Vec::new();
        for (i, p) in platforms.iter().enumerate() {
            let Ok(dispatch) = session.dispatch_for(flags, &key, p.backend()) else {
                continue;
            };
            if dispatch.is_effective() {
                column.push((i, dispatch.general.glsl));
                column.push((i, dispatch.specialized.glsl));
            }
        }
        columns.push(column);
    }
    columns
}

/// The memoised result equals the reference: driver IR structure and name,
/// bit-equal frame time, source version — or the same error.
fn assert_same(
    got: &Result<ShaderCost, CompileError>,
    want: &Result<ShaderCost, CompileError>,
    what: &str,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert!(
                got.driver_ir.same_structure(&want.driver_ir),
                "{what}: driver IR differs"
            );
            assert_eq!(got.driver_ir.name, want.driver_ir.name, "{what}");
            assert_eq!(
                got.ideal_frame_ns.to_bits(),
                want.ideal_frame_ns.to_bits(),
                "{what}"
            );
            assert_eq!(got.source_version, want.source_version, "{what}");
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{what}"),
        (got, want) => panic!(
            "{what}: memo {:?} vs reference {:?}",
            got.as_ref().err(),
            want.as_ref().err()
        ),
    }
}

#[test]
fn memoised_submits_equal_the_reference_for_every_column_and_platform() {
    let platforms = Platform::all();
    let cache = Arc::new(CorpusCache::new());
    let mut submits = 0;
    for case in &corpus().cases {
        let session = CompileSession::with_cache(
            &case.source,
            &case.name,
            Arc::clone(&cache) as Arc<dyn CacheStore>,
        )
        .expect("corpus session");
        for (index, column) in columns(case, &session, &platforms).iter().enumerate() {
            let mut memo = DriverMemo::new();
            for (platform, text) in column {
                let platform = &platforms[*platform];
                let what = format!("{} column {index} on {}", case.name, platform.vendor());
                let want = platform.submit(text, &case.name);
                assert_same(&memo.submit(platform, text, &case.name), &want, &what);
                submits += 1;
            }
            let stats = memo.stats();
            assert_eq!(stats.front_parses + stats.front_hits, column.len());
        }
    }
    assert!(submits > 0);
}

#[test]
fn rejected_texts_return_the_reference_error_and_parse_once() {
    let blur = prism::corpus::flagship::BLUR9;
    let session = CompileSession::new(
        &prism::glsl::ShaderSource::parse(blur).expect("blur parses"),
        "blur",
    )
    .expect("blur session");
    let spirv = session.base_text_for(BackendKind::SpirvAsm);
    let dynamic_loop = "uniform int n; in vec2 uv; out vec4 c;\n\
        void main() { c = vec4(0.0); for (int i = 0; i < n; i++) { c += vec4(0.1); } }";
    let cases: [(Vendor, &str); 5] = [
        // The GLSL front-end rejects it.
        (Vendor::Intel, "void main() { oops }"),
        // It parses, but lowering rejects the dynamic loop bound.
        (Vendor::Arm, dynamic_loop),
        // Text in another platform's source form.
        (Vendor::Nvidia, &spirv),
        (Vendor::Radv, blur),
        (Vendor::Apple, blur),
    ];
    for (vendor, text) in cases {
        let platform = Platform::new(vendor);
        let want = platform.submit(text, "bad");
        assert!(want.is_err(), "{vendor}");
        let mut memo = DriverMemo::new();
        assert_same(&memo.submit(&platform, text, "bad"), &want, vendor.name());
        assert_same(&memo.submit(&platform, text, "bad"), &want, vendor.name());
        let stats = memo.stats();
        assert_eq!(stats.front_parses, 1, "{vendor}: the error is memoised");
        assert_eq!(stats.front_hits, 1, "{vendor}");
        assert_eq!(stats.stage_runs + stats.stage_hits, 0, "{vendor}");
    }

    // One text is one front-end input per source form: the GLSL blur
    // compiles on a desktop driver and is still rejected by the Vulkan and
    // Metal drivers that see it through the same memo.
    let mut memo = DriverMemo::new();
    for vendor in [Vendor::Intel, Vendor::Radv, Vendor::Apple] {
        let platform = Platform::new(vendor);
        let want = platform.submit(blur, "blur");
        assert_same(&memo.submit(&platform, blur, "blur"), &want, vendor.name());
    }
    assert_eq!(memo.stats().front_parses, 3);
}

#[test]
fn a_second_driver_round_that_changes_the_ir_is_replayed() {
    // Round one's GVN leaves the branch's product redundant and the
    // second round's folding removes it, so a memo that stopped after one
    // round would return different IR.
    let text = "uniform float u; uniform vec4 t; in vec2 uv; out vec4 c;\n\
        void main() { vec4 a = t * uv.x; c = a;\n\
          if (u > 0.5) { vec4 b = t * uv.x; c = b + vec4(1.0); } }";
    let source = prism::glsl::ShaderSource::parse(text).expect("parses");
    let lowered = prism::core::lower(&source, "twice").expect("lowers");
    let mut memo = DriverMemo::new();
    let mut second_round_changed = false;
    for platform in Platform::all() {
        if platform.backend() != BackendKind::DesktopGlsl {
            continue;
        }
        let want = platform.submit(text, "twice");
        assert_same(&memo.submit(&platform, text, "twice"), &want, "twice");
        let mut one_round = lowered.clone();
        for (pass, _) in platform.driver.stages() {
            pass.run(&mut one_round);
        }
        let want = want.expect("compiles");
        second_round_changed |= !one_round.same_structure(&want.driver_ir);
    }
    assert!(second_round_changed);
}

#[test]
fn stage_ids_name_one_pass_and_parameter_each_and_fit_the_mask() {
    let mut seen = Vec::new();
    for vendor in Vendor::ALL {
        for &(pass, id) in DriverModel::preset(vendor).stages() {
            assert!(id < 64, "{vendor}: {pass:?} has stage id {id}");
            for &(other, other_id) in &seen {
                assert_eq!(
                    pass == other,
                    id == other_id,
                    "{vendor}: {pass:?} (id {id}) vs {other:?} (id {other_id})"
                );
            }
            seen.push((pass, id));
        }
    }
}
