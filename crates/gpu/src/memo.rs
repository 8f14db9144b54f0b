//! The driver memo: each driver input parsed once, each driver pass run once
//! per distinct IR.
//!
//! A study column — the original shader, or one of its variants — reaches
//! all seven platforms as four texts (desktop GLSL for three vendors, GLES
//! for two, SPIR-V and MSL for one each), and every vendor's driver opens
//! with the same canonicalisation passes. Compiled one submission at a time,
//! the same text is parsed and lowered up to three times and the same pass
//! runs over the same IR once per vendor. A [`DriverMemo`] shared by a
//! column's submissions removes that repetition in two layers:
//!
//! * **Front memo** — keyed by (source form, exact text): each input is
//!   parsed and lowered once and its IR interned; front-end errors are
//!   memoised as values.
//! * **Pass replay** — the vendor's [stages](crate::DriverModel::stages)
//!   replay through a private [`CorpusCache`] transition graph, keyed by
//!   (driver stage id, fingerprint). A state seen before — by another
//!   platform, or by the driver's own second round — is answered by an edge
//!   or a clean-stage mask bit instead of a pass run.
//!
//! The final state is verified and costed exactly as [`Platform::submit`]
//! does, so a memoised submission returns the same [`ShaderCost`]. The
//! graph is never the study's shared cache: driver stage ids are not
//! optimizer stage indices, and an original shader lowers to the same IR
//! the optimizer starts from.

use crate::driver::{DriverPass, DRIVER_ROUNDS};
use crate::platform::{front_end, Platform, ShaderCost};
use prism_core::cache::SessionId;
use prism_core::{walk_stages, CacheStore, CompileError, CorpusCache, SessionStats, Snapshot};
use prism_emit::BackendKind;
use prism_ir::fingerprint::fingerprint;
use prism_ir::verify::verify;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

/// Work counters of driver memos: front-end work done and avoided, driver
/// pass applications run and answered by the transition graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Texts parsed and lowered by a driver front-end (front memo misses).
    pub front_parses: usize,
    /// Submissions whose text the front memo already held.
    pub front_hits: usize,
    /// Driver pass applications that ran.
    pub stage_runs: usize,
    /// Driver pass applications answered by an edge or a clean-stage mask.
    pub stage_hits: usize,
}

impl std::ops::AddAssign for DriverStats {
    fn add_assign(&mut self, other: DriverStats) {
        self.front_parses += other.front_parses;
        self.front_hits += other.front_hits;
        self.stage_runs += other.stage_runs;
        self.stage_hits += other.stage_hits;
    }
}

/// What the front-end made of one input: the interned lowered IR and the
/// source-form version token it saw.
#[derive(Clone)]
struct Front {
    base: Snapshot,
    version: String,
}

/// Driver work memoised across the submissions of one sweep column (see the
/// [module docs](self)). Drop it when the column ends: it holds every IR
/// state the column's drivers passed through.
///
/// # Examples
///
/// ```
/// use prism_gpu::{DriverMemo, Platform, Vendor};
///
/// let text = "uniform vec4 t; in vec2 uv; out vec4 c;\n\
///             void main() { c = vec4(uv, 0.0, 1.0) * t * 1.0; }";
/// let mut memo = DriverMemo::new();
/// for vendor in [Vendor::Intel, Vendor::Amd, Vendor::Nvidia] {
///     let platform = Platform::new(vendor);
///     let cost = memo.submit(&platform, text, "doc").unwrap();
///     assert_eq!(cost.ideal_frame_ns, platform.submit(text, "doc").unwrap().ideal_frame_ns);
/// }
/// // Three desktop drivers, one parse.
/// assert_eq!(memo.stats().front_parses, 1);
/// assert_eq!(memo.stats().front_hits, 2);
/// ```
pub struct DriverMemo {
    /// Front memo per source form, indexed by [`BackendKind::index`].
    fronts: [HashMap<String, Result<Front, CompileError>>; BackendKind::COUNT],
    graph: CorpusCache,
    session: SessionId,
    /// Driver pass applications run and answered by the graph.
    walked: SessionStats,
    front_parses: usize,
    front_hits: usize,
}

impl Default for DriverMemo {
    fn default() -> Self {
        DriverMemo::new()
    }
}

impl DriverMemo {
    /// An empty memo with a fresh, unshared transition graph.
    pub fn new() -> DriverMemo {
        let graph = CorpusCache::new();
        let session = graph.register_session();
        DriverMemo {
            fronts: Default::default(),
            graph,
            session,
            walked: SessionStats::default(),
            front_parses: 0,
            front_hits: 0,
        }
    }

    /// [`Platform::submit`] through the memo: the same cost, source version
    /// and driver IR, with the front-end and pass work shared across every
    /// submission this memo has seen.
    ///
    /// # Errors
    ///
    /// The error [`Platform::submit`] returns for this text, including a
    /// memoised front-end error.
    pub fn submit(
        &mut self,
        platform: &Platform,
        text: &str,
        name: &str,
    ) -> Result<ShaderCost, CompileError> {
        let front = self.front(platform.backend(), text, name)?;
        let state = self.drive(platform.driver.stages(), front.base);
        let mut driver_ir = (*state.ir).clone();
        driver_ir.name = name.to_string();
        verify(&driver_ir).map_err(CompileError::Verify)?;
        let mut cost = platform.cost_of_ir(driver_ir);
        cost.source_version = front.version;
        Ok(cost)
    }

    /// Work done and avoided so far.
    pub fn stats(&self) -> DriverStats {
        DriverStats {
            front_parses: self.front_parses,
            front_hits: self.front_hits,
            stage_runs: self.walked.stage_runs,
            stage_hits: self.walked.stage_hits,
        }
    }

    /// The front-end's result for `text` in `backend`'s source form, parsed
    /// and lowered on first sight only.
    fn front(
        &mut self,
        backend: BackendKind,
        text: &str,
        name: &str,
    ) -> Result<Front, CompileError> {
        if let Some(front) = self.fronts[backend.index()].get(text) {
            self.front_hits += 1;
            return front.clone();
        }
        self.front_parses += 1;
        let front = front_end(backend, text, name).map(|(ir, version)| Front {
            base: self.graph.intern(Snapshot {
                fp: fingerprint(&ir),
                ir: Arc::new(ir),
            }),
            version,
        });
        self.fronts[backend.index()].insert(text.to_string(), front.clone());
        front
    }

    /// Runs `stages` from `start` for up to [`DRIVER_ROUNDS`] rounds, as
    /// [`DriverModel::compile_ir`](crate::DriverModel::compile_ir) does, each
    /// round one [`walk_stages`] over the graph. A round that ends on the
    /// state it started from is the fixed point; passes are deterministic,
    /// so stopping there gives the reference path's result. The driver
    /// verifies once, after the last round, so the step only runs the pass.
    fn drive(&mut self, stages: &[(DriverPass, usize)], start: Snapshot) -> Snapshot {
        let mut state = start;
        for _ in 0..DRIVER_ROUNDS {
            let round_start = Arc::clone(&state.ir);
            let round = stages.iter().map(|&(pass, id)| (id, pass));
            state = walk_stages(
                &self.graph,
                self.session,
                state,
                round,
                &mut self.walked,
                |pass: DriverPass, ir| Ok::<_, Infallible>(pass.run(ir)),
            )
            .unwrap_or_else(|never| match never {});
            // Every state is the graph's interned exemplar, so one structure
            // is one allocation.
            if Arc::ptr_eq(&state.ir, &round_start) {
                break;
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vendor;

    const LOOPY: &str = "uniform sampler2D tex; uniform vec4 ambient; in vec2 uv; out vec4 c;\n\
        void main() {\n\
          const vec2[] offs = vec2[](vec2(-0.01), vec2(0.0), vec2(0.01));\n\
          c = vec4(0.0);\n\
          float total = 0.0;\n\
          for (int i = 0; i < 3; i++) { total += 0.25; c += texture(tex, uv + offs[i]) * 2.0 * ambient; }\n\
          c /= total;\n\
        }";

    #[test]
    fn vendors_share_pass_runs_and_a_repeat_runs_none() {
        // Equality with `Platform::submit` is the job of the
        // `tests/driver_memo.rs` differential suite; this pins the sharing.
        let mut memo = DriverMemo::new();
        for platform in Platform::all() {
            if matches!(
                platform.backend(),
                BackendKind::DesktopGlsl | BackendKind::Gles
            ) {
                memo.submit(&platform, LOOPY, "a").unwrap();
            }
        }
        let stats = memo.stats();
        // One parse per source form: three desktop and two GLES drivers.
        assert_eq!((stats.front_parses, stats.front_hits), (2, 3));
        // The vendors share their canonicalisation prefix and second round.
        assert!(stats.stage_hits > stats.stage_runs, "{stats:?}");

        let nvidia = Platform::new(Vendor::Nvidia);
        let again = memo.submit(&nvidia, LOOPY, "b").unwrap();
        assert_eq!(memo.stats().stage_runs, stats.stage_runs);
        assert_eq!(again.driver_ir.name, "b");
    }
}
