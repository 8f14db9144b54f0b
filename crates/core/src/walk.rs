//! The one walk over the transition graph.
//!
//! Three callers replay a pass list over a [`CacheStore`]: a
//! [`CompileSession`](crate::CompileSession) deriving flag variants, the
//! compile service answering a request, and the simulated driver's memo
//! replaying a vendor's passes. All three walk the graph with
//! [`walk_stages`] and memoise emitted text with [`emit_memoised`]; what
//! differs between them is the step they pass in. The optimizer's step,
//! [`Stage::run_verified`](crate::Stage::run_verified), verifies every stage
//! that changed the IR, while the driver's step only runs its pass: the
//! driver verifies once at the end, and loops its rounds outside the walk.

use crate::cache::{hit_rate, CacheStore, SessionId, Snapshot, MASK_STAGES};
use prism_emit::BackendKind;
use prism_ir::fingerprint::fingerprint;
use prism_ir::Shader;
use std::sync::Arc;

/// Work counters of walks and emissions: what ran and what the store
/// answered. A [`CompileSession`](crate::CompileSession) accumulates them
/// over its lifetime; a compile-service response carries one request's
/// worth. A shared store's corpus-wide view (including cross-shader
/// sharing) lives in [`CacheStats`](crate::cache::CacheStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Stage executions that actually ran passes (cache misses).
    pub stage_runs: usize,
    /// Stage executions answered from the transition graph.
    pub stage_hits: usize,
    /// Emissions performed (across all backends).
    pub emissions: usize,
    /// Emissions answered from the (fingerprint, backend) memo.
    pub emission_hits: usize,
}

impl SessionStats {
    /// Fraction of stage executions served from cache (0 when nothing ran).
    pub fn stage_hit_rate(&self) -> f64 {
        hit_rate(self.stage_hits, self.stage_runs)
    }

    /// The work-counter latency: stage runs + emissions, the units of real
    /// work (hits are free). Deterministic, unlike wall-clock, which is what
    /// lets the perf gate hold a request stream's p50/p99 to a baseline.
    pub fn latency(&self) -> usize {
        self.stage_runs + self.emissions
    }
}

/// The clean-mask bit of `stage`; 0 for a stage past the mask, which the
/// store records as a self-edge instead.
fn mask_bit(stage: usize) -> u64 {
    if stage < MASK_STAGES {
        1 << stage
    } else {
        0
    }
}

/// Walks `stages` — `(stage id, item)` pairs in schedule order — from
/// `start` over `store`'s transition graph and returns the final state.
///
/// The store's clean-stage mask is read once per *distinct* state: every
/// stage it marks as identity for the current structure is skipped
/// outright — no lookup, no fingerprint, no clone — and consecutive
/// identity stages collapse into one mask read. A stage the graph cannot
/// answer runs `step` on a copy of the IR; `step` returns whether it changed
/// the IR (and may reject the result with an error). The transition is
/// recorded either way, and after a change the walk continues from the
/// store's canonical exemplar, so later lookups resolve by pointer.
///
/// # Errors
///
/// The first error `step` returns.
pub fn walk_stages<S, T, E>(
    store: &S,
    session: SessionId,
    start: Snapshot,
    stages: impl IntoIterator<Item = (usize, T)>,
    stats: &mut SessionStats,
    mut step: impl FnMut(T, &mut Shader) -> Result<bool, E>,
) -> Result<Snapshot, E>
where
    S: CacheStore + ?Sized,
{
    let mut state = start;
    let mut clean = store.identity_stages(&state);
    let mut skipped = 0;
    for (stage, item) in stages {
        let bit = mask_bit(stage);
        if clean & bit != 0 {
            skipped += 1;
            continue;
        }
        let next = match store.transition(session, stage, &state) {
            Some(next) => {
                stats.stage_hits += 1;
                next
            }
            None => {
                let mut ir = (*state.ir).clone();
                let output = if step(item, &mut ir)? {
                    ir.invalidate_fingerprint();
                    Snapshot {
                        fp: fingerprint(&ir),
                        ir: Arc::new(ir),
                    }
                } else {
                    // Identity: the input snapshot is the output — no
                    // fingerprint, no new allocation. The store records it
                    // as a clean-stage bit.
                    state.clone()
                };
                stats.stage_runs += 1;
                store.record_transition(session, stage, state.clone(), output)
            }
        };
        if Arc::ptr_eq(&next.ir, &state.ir) {
            clean |= bit;
        } else {
            state = next;
            clean = store.identity_stages(&state);
        }
    }
    if skipped > 0 {
        stats.stage_hits += skipped;
        store.note_identity_skips(session, skipped);
    }
    Ok(state)
}

/// The `backend` text of `state`, memoised on (fingerprint, backend): a hit
/// hands back the memo's shared allocation, a miss emits once and records
/// the text.
pub fn emit_memoised<S>(
    store: &S,
    session: SessionId,
    backend: BackendKind,
    state: &Snapshot,
    stats: &mut SessionStats,
) -> Arc<str>
where
    S: CacheStore + ?Sized,
{
    if let Some(text) = store.emission(session, backend, state) {
        stats.emission_hits += 1;
        return text;
    }
    let text: Arc<str> = Arc::from(backend.backend().emit(&state.ir));
    stats.emissions += 1;
    store.record_emission(session, backend, state, Arc::clone(&text));
    text
}
