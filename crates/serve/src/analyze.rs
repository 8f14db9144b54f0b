//! Static analysis as a compile-service request path.
//!
//! [`CompileService::analyze`] answers "what does this platform's static
//! model think of this shader under these flags" through the same path as
//! any compile: route → memo, then coalesce → batch → run only when the memo
//! misses. The analysed IR is the
//! *optimized* IR of the requested flag combination (the schedule walk is
//! memo-warm when any tenant already compiled it), and the report itself is
//! memoised per `(fingerprint, personality)` in the shared [`CorpusCache`] —
//! a repeat analysis of the same optimized form is an `Arc<str>` refcount
//! bump, never a re-walk. Warm-start snapshots persist the reports, so a
//! rebooted service answers analyses it never computed in this process.
//!
//! This is the endpoint the online tuner's static prefilter calls per
//! candidate ([`TuneSpec::with_static_prefilter`](crate::tune::TuneSpec)),
//! and what the CI lint-artifact job drains for the flagship corpus.
//!
//! [`CorpusCache`]: prism_core::CorpusCache

use crate::service::{CompileRequest, CompileService, ServeError};
use prism_analyze::StaticReport;
use prism_core::OptFlags;
use prism_gpu::Vendor;

impl CompileService {
    /// The static-analysis report (per-pipe cost model + lints) of `source`
    /// compiled under `flags`, as seen by `vendor`'s platform personality.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the underlying compile fails, or when the memoised
    /// report text fails to parse (an internal bug, surfaced as
    /// [`ServeError::Compile`]).
    pub fn analyze(
        &self,
        source: &str,
        flags: OptFlags,
        vendor: Vendor,
    ) -> Result<StaticReport, ServeError> {
        let request = CompileRequest::builder(source)
            .flags(flags)
            .backend(vendor.backend())
            .analyze(vendor)
            .build();
        let response = self.compile(&request)?;
        let json = response.analysis.ok_or_else(|| {
            ServeError::Compile("analysis requested but response carried none".to_string())
        })?;
        StaticReport::from_json(&json).map_err(ServeError::Compile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use prism_core::CacheStore;

    const SHADER: &str = r#"
        uniform sampler2D tex; uniform vec4 tint; uniform float unused_knob;
        in vec2 uv; out vec4 color;
        void main() {
            vec4 t = texture(tex, uv);
            color = t * tint + vec4(0.5) * 2.0;
        }
    "#;

    #[test]
    fn analyze_reports_cost_and_is_memoised_per_personality() {
        let service = CompileService::new(ServeConfig::default());
        let report = service
            .analyze(SHADER, OptFlags::lunarglass_default(), Vendor::Arm)
            .unwrap();
        assert_eq!(report.personality, Vendor::Arm.name());
        assert!(report.cost.estimated_cycles > 0.0);

        let after_first = service.cache().stats();
        assert_eq!(after_first.static_analyses, 1);

        // The same (flags, personality) again: served from the analysis
        // memo, no fresh walk.
        let again = service
            .analyze(SHADER, OptFlags::lunarglass_default(), Vendor::Arm)
            .unwrap();
        assert_eq!(again, report);
        let after_second = service.cache().stats();
        assert_eq!(after_second.static_analyses, 1);
        assert_eq!(after_second.analysis_memo_hits, 1);

        // A different personality is a distinct memo line.
        let apple = service
            .analyze(SHADER, OptFlags::lunarglass_default(), Vendor::Apple)
            .unwrap();
        assert_eq!(apple.personality, Vendor::Apple.name());
        assert_eq!(service.cache().stats().static_analyses, 2);
    }

    #[test]
    fn analyze_counts_lints_once_per_fresh_analysis() {
        let service = CompileService::new(ServeConfig::default());
        // `unused_knob` is declared but never read: at least one lint.
        let report = service
            .analyze(SHADER, OptFlags::NONE, Vendor::Qualcomm)
            .unwrap();
        assert!(!report.lints.is_empty(), "expected an unused-uniform lint");
        let emitted = service.stats().lints_emitted;
        assert_eq!(emitted, report.lints.len());

        // A memo-served repeat does not re-count its lints.
        service
            .analyze(SHADER, OptFlags::NONE, Vendor::Qualcomm)
            .unwrap();
        assert_eq!(service.stats().lints_emitted, emitted);
    }

    #[test]
    fn warm_restart_serves_analyses_from_disk() {
        let dir = std::env::temp_dir().join(format!(
            "prism-serve-analyze-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let config = ServeConfig::default().with_warm_start_dir(&dir);
        let first = CompileService::new(config.clone());
        let report = first
            .analyze(SHADER, OptFlags::lunarglass_default(), Vendor::Radv)
            .unwrap();
        first.shutdown().unwrap();

        let second = CompileService::new(config);
        let replayed = second
            .analyze(SHADER, OptFlags::lunarglass_default(), Vendor::Radv)
            .unwrap();
        assert_eq!(replayed, report);
        // Answered by the warmed memo: no fresh analysis walk this process.
        let stats = second.cache().stats();
        assert_eq!(stats.static_analyses, 0);
        assert_eq!(
            stats.warm_analysis_hits, 1,
            "hit must come from the snapshot"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
