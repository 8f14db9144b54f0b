//! Golden file for the simulated drivers: what every vendor's driver makes
//! of every corpus shader, pinned in `tests/golden/driver_corpus.txt`.
//!
//! Each line covers one (shader, vendor) pair. It holds a stable FNV-64
//! digest over the shader's columns in sweep order — the original text, then
//! every distinct variant — of what [`Platform::submit`] returns for each:
//! the driver IR's structural [`Fingerprint`](prism::ir::Fingerprint) and
//! the noise-free frame time's bits, or the error text. The driver memo
//! suite only holds the memo to `Platform::submit`; this file pins
//! `Platform::submit` itself, so a driver pass that decides differently
//! shows up here. Debug builds check every 13th shader; release builds
//! check all of them. After an *intentional* driver change, regenerate:
//!
//! ```text
//! PRISM_BLESS=1 cargo test --release --test driver_golden
//! ```
//!
//! and commit the updated file.

use prism::core::CompileSession;
use prism::corpus::{Corpus, ShaderCase};
use prism::emit::BackendKind;
use prism::gpu::Platform;
use prism::ir::fingerprint;
use prism::ir::hash::fnv64;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/driver_corpus.txt")
}

/// The texts the sweep submits for `case`, one per platform backend and
/// column: the original (desktop drivers take the corpus text, the rest its
/// conversion), then every distinct variant.
fn columns(case: &ShaderCase, session: &CompileSession) -> Vec<Vec<(BackendKind, Arc<str>)>> {
    let original = BackendKind::ALL
        .iter()
        .map(|&backend| {
            let text = match backend {
                BackendKind::DesktopGlsl => Arc::from(case.source.text.as_str()),
                backend => session.base_text_for(backend),
            };
            (backend, text)
        })
        .collect();
    let mut columns = vec![original];
    for variant in session.variants().expect("corpus variants").variants {
        let flags = variant.representative_flags();
        let column = BackendKind::ALL
            .iter()
            .map(|&backend| {
                let text = session.text_for(flags, backend).expect("variant emits");
                (backend, text)
            })
            .collect();
        columns.push(column);
    }
    columns
}

/// One golden line per vendor for `case`: `<shader> <vendor> <columns>
/// <digest>`.
fn lines_for(case: &ShaderCase, platforms: &[Platform]) -> Vec<String> {
    let session = CompileSession::new(&case.source, &case.name).expect("corpus session");
    let columns = columns(case, &session);
    platforms
        .iter()
        .map(|platform| {
            let mut bytes = Vec::new();
            for column in &columns {
                let (_, text) = column
                    .iter()
                    .find(|(backend, _)| *backend == platform.backend())
                    .expect("every backend has a text");
                match platform.submit(text, &case.name) {
                    Ok(cost) => {
                        bytes.push(0);
                        bytes.extend_from_slice(&fingerprint(&cost.driver_ir).0.to_le_bytes());
                        bytes.extend_from_slice(&cost.ideal_frame_ns.to_bits().to_le_bytes());
                    }
                    Err(e) => {
                        let text = e.to_string();
                        bytes.push(1);
                        bytes.extend_from_slice(&(text.len() as u64).to_le_bytes());
                        bytes.extend_from_slice(text.as_bytes());
                    }
                }
            }
            format!(
                "{} {} {} {:016x}",
                case.name,
                platform.vendor().name(),
                columns.len(),
                fnv64(&bytes)
            )
        })
        .collect()
}

#[test]
fn driver_outputs_match_the_committed_golden_for_every_corpus_column() {
    let corpus = Corpus::gfxbench_like();
    let platforms = Platform::all();
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
        .flat_map(|case| lines_for(case, &platforms))
        .collect();
    let path = golden_path();
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}) — regenerate with PRISM_BLESS=1 cargo test --release --test driver_golden",
            path.display()
        )
    });
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        corpus.cases.len() * platforms.len(),
        "{} must hold one line per (corpus shader, vendor)",
        path.display()
    );
    let expected: Vec<&str> = golden
        .chunks(platforms.len())
        .step_by(stride)
        .flatten()
        .copied()
        .collect();
    assert_eq!(expected.len(), actual.len());
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(
            *want, got,
            "simulated driver output drifted (intentional? regenerate with \
             PRISM_BLESS=1 cargo test --release --test driver_golden)"
        );
    }
}
