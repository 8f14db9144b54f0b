//! Golden file for the static-analysis plane: what every platform
//! personality's static report says about every corpus shader, pinned in
//! `tests/golden/static_reports.txt`.
//!
//! Each line covers one (shader, vendor) pair. It holds a stable FNV-64
//! digest of [`analyze`]'s JSON report over two forms of the shader: its
//! lowered base IR, then its LunarGLASS-default optimized IR. The report
//! carries the cost model's shortest and longest pipe paths, its register
//! and pressure estimates and every lint, so a change to the pipe walk, the
//! liveness estimate or a lint rule shows up here. Debug builds check every
//! 13th shader; release builds check all of them. After an *intentional*
//! analysis change, regenerate:
//!
//! ```text
//! PRISM_BLESS=1 cargo test --release --test static_golden
//! ```
//!
//! and commit the updated file.
//!
//! The file also holds the one-walk check: Fig. 4b's
//! [`Platform::static_cycles`] and the analysis plane's [`CostModel`] read
//! the same pipe walk.

use prism::analyze::{analyze, CostModel};
use prism::core::{CompileSession, OptFlags};
use prism::corpus::{Corpus, ShaderCase};
use prism::emit::BackendKind;
use prism::gpu::{Platform, Vendor};
use prism::ir::hash::fnv64;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/static_reports.txt")
}

/// One golden line per vendor for `case`: `<shader> <vendor> <digest>`.
fn lines_for(case: &ShaderCase) -> Vec<String> {
    let session = CompileSession::new(&case.source, &case.name).expect("corpus session");
    let optimized = session
        .compile(OptFlags::lunarglass_default())
        .expect("corpus shader optimizes")
        .ir;
    let forms = [session.base_ir(), &optimized];
    Vendor::ALL
        .iter()
        .map(|&vendor| {
            let mut bytes = Vec::new();
            for ir in forms {
                let json = analyze(ir, vendor).to_json().expect("report serialises");
                bytes.extend_from_slice(&(json.len() as u64).to_le_bytes());
                bytes.extend_from_slice(json.as_bytes());
            }
            format!("{} {} {:016x}", case.name, vendor.name(), fnv64(&bytes))
        })
        .collect()
}

#[test]
fn static_reports_match_the_committed_golden_for_every_corpus_shader() {
    let corpus = Corpus::gfxbench_like();
    let bless = std::env::var_os("PRISM_BLESS").is_some();
    let stride = if bless || !cfg!(debug_assertions) {
        1
    } else {
        13
    };
    let actual: Vec<String> = corpus
        .cases
        .iter()
        .step_by(stride)
        .flat_map(lines_for)
        .collect();
    let path = golden_path();
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}) — regenerate with PRISM_BLESS=1 cargo test --release --test static_golden",
            path.display()
        )
    });
    let golden: Vec<&str> = golden.lines().collect();
    let vendors = Vendor::ALL.len();
    assert_eq!(
        golden.len(),
        corpus.cases.len() * vendors,
        "{} must hold one line per (corpus shader, vendor)",
        path.display()
    );
    let expected: Vec<&str> = golden
        .chunks(vendors)
        .step_by(stride)
        .flatten()
        .copied()
        .collect();
    assert_eq!(expected.len(), actual.len());
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(
            *want, got,
            "static analysis output drifted (intentional? regenerate with \
             PRISM_BLESS=1 cargo test --release --test static_golden)"
        );
    }
}

#[test]
fn static_cycles_is_the_cost_models_longest_path_on_every_platform() {
    let corpus = Corpus::gfxbench_like();
    let case = corpus.blur9();
    let session = CompileSession::new(&case.source, &case.name).expect("blur session");
    for platform in Platform::all() {
        let text = match platform.backend() {
            BackendKind::DesktopGlsl => case.source.text.clone(),
            backend => session.base_text_for(backend).to_string(),
        };
        let driver_ir = platform
            .submit(&text, &case.name)
            .expect("blur compiles")
            .driver_ir;
        let fig4b = platform.static_cycles(&driver_ir);
        let model = CostModel::for_vendor(platform.vendor())
            .cost(&driver_ir)
            .longest;
        let bits =
            |p: prism::gpu::PipeCycles| [p.arithmetic, p.load_store, p.texture].map(f64::to_bits);
        assert_eq!(bits(fig4b), bits(model), "{}", platform.vendor());
    }
}
