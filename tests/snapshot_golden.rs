//! Golden file for the warm-start snapshot bytes, pinned in
//! `tests/golden/snapshot_shards.txt`.
//!
//! The persistence suites check that save→load→save reproduces itself
//! within one build; this file pins the bytes themselves, so a change that
//! re-encodes, reorders or drops what [`CorpusCache::save`] writes fails
//! here even when it round-trips. Two snapshots cover all three memo planes:
//!
//! * a single-threaded [`Corpus::family_mix`] study with a `warm_start_dir`
//!   (transition edges, clean-stage masks and emissions), and
//! * a [`CompileService`] with its own warm-start dir that analyses every
//!   `family_mix` shader under all seven personalities at
//!   [`OptFlags::all`] and shuts down (edges, emissions and analyses).
//!
//! Each golden line holds one shard file's byte length and FNV-64 digest.
//! The header names the pass-schedule hash the shard headers carry, so any
//! pass or emitter change (which moves that hash) needs a re-bless, as does
//! an intentional format change. Regenerate with:
//!
//! ```text
//! PRISM_BLESS=1 cargo test --release --test snapshot_golden
//! ```
//!
//! and commit the updated file.
//!
//! [`CorpusCache::save`]: prism::core::CorpusCache::save

use prism::core::cache::persist::{schedule_hash, FORMAT_VERSION};
use prism::core::{OptFlags, FINGERPRINT_SHARDS};
use prism::corpus::Corpus;
use prism::gpu::Vendor;
use prism::ir::hash::fnv64;
use prism::search::{run_study, StudyConfig};
use prism::serve::{CompileService, ServeConfig};
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_shards.txt")
}

/// A fresh scratch directory (removed on drop, even on panic).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "prism-snapshot-golden-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One line per shard file of the snapshot in `dir`: `<label> shard-NN
/// <bytes> <fnv64>`.
fn shard_lines(label: &str, dir: &Path) -> Vec<String> {
    (0..FINGERPRINT_SHARDS)
        .map(|shard| {
            let name = format!("shard-{shard:02}.json");
            let bytes = std::fs::read(dir.join(&name))
                .unwrap_or_else(|e| panic!("{label} snapshot lacks {name}: {e}"));
            format!("{label} {name} {} {:016x}", bytes.len(), fnv64(&bytes))
        })
        .collect()
}

/// The study's snapshot: edges, identity masks and emissions.
fn study_snapshot(dir: &Path) {
    let config = StudyConfig {
        threads: 1,
        warm_start_dir: Some(dir.to_path_buf()),
        ..StudyConfig::quick()
    };
    let study = run_study(&Corpus::family_mix(), &config);
    assert!(study.warnings.is_empty(), "{:?}", study.warnings);
}

/// The service's snapshot: edges, emissions and one analysis per
/// (shader, personality).
fn service_snapshot(dir: &Path) {
    let service = CompileService::new(ServeConfig::default().with_warm_start_dir(dir));
    for case in &Corpus::family_mix().cases {
        for vendor in Vendor::ALL {
            service
                .analyze(&case.source.text, OptFlags::all(), vendor)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", case.name, vendor.name()));
        }
    }
    assert!(service.stats().cache.static_analyses > 0);
    service
        .shutdown()
        .expect("snapshot saved")
        .expect("warm-start dir configured");
}

#[test]
fn warm_start_shards_match_the_committed_golden() {
    let study_dir = ScratchDir::new("study");
    let serve_dir = ScratchDir::new("serve");
    study_snapshot(&study_dir.0);
    service_snapshot(&serve_dir.0);

    let mut actual = vec![format!(
        "# format {FORMAT_VERSION} schedule {:016x}",
        schedule_hash()
    )];
    actual.extend(shard_lines("study", &study_dir.0));
    actual.extend(shard_lines("serve", &serve_dir.0));

    let path = golden_path();
    if std::env::var_os("PRISM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}) — regenerate with PRISM_BLESS=1 cargo test --release --test snapshot_golden",
            path.display()
        )
    });
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        actual.len(),
        "{} must hold a header and one line per shard file",
        path.display()
    );
    for (want, got) in golden.iter().zip(&actual) {
        assert_eq!(
            *want, got,
            "warm-start snapshot bytes drifted (intentional? regenerate with \
             PRISM_BLESS=1 cargo test --release --test snapshot_golden)"
        );
    }
}
