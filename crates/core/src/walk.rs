//! The one walk over the transition graph.
//!
//! Three callers replay a pass list over a [`CacheStore`]: a
//! [`CompileSession`](crate::CompileSession) deriving flag variants, the
//! compile service answering a request, and the simulated driver's memo
//! replaying a vendor's passes. All three walk the graph with a [`Walk`]
//! ([`walk_stages`] drives one over a whole pass list) and memoise emitted
//! text with [`emit_memoised`]; what differs between them is the step they
//! pass in. The compile service also drives a walk lookup-only on the
//! calling thread, so a request the memo answers completely never leaves
//! it. The optimizer's step,
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

/// One walk over the transition graph from a start state, advanced a stage
/// at a time. [`walk_stages`] drives a walk over a whole pass list; the
/// compile service drives one lookup-only on the calling thread and, at the
/// first stage the graph cannot answer, hands the walk to the request's
/// leader, which [finishes](Walk::finish) it from there — so the stages the
/// caller answered are not looked up again.
///
/// The store's clean-stage mask is read once per *distinct* state: every
/// stage it marks as identity for the current structure is skipped
/// outright — no lookup, no fingerprint, no clone — and consecutive
/// identity stages collapse into one mask read. Those mask skips are booked
/// with the store once per [`Walk::settle`], not once per stage; an edge hit
/// is counted by the store's lookup itself.
#[derive(Debug, Clone)]
pub struct Walk {
    state: Snapshot,
    /// The store's clean-stage mask of `state`.
    clean: u64,
    /// Stages taken off `clean` since the last settle.
    skipped: usize,
}

impl Walk {
    /// A walk standing at `start` (one mask read).
    pub fn new<S: CacheStore + ?Sized>(store: &S, start: Snapshot) -> Walk {
        let clean = store.identity_stages(&start);
        Walk {
            state: start,
            clean,
            skipped: 0,
        }
    }

    /// Answers `stage` from the clean mask or a graph edge and moves on.
    /// Returns `false`, counting nothing and staying put, when the graph
    /// cannot answer it.
    pub fn answer<S: CacheStore + ?Sized>(
        &mut self,
        store: &S,
        session: SessionId,
        stage: usize,
        stats: &mut SessionStats,
    ) -> bool {
        let bit = mask_bit(stage);
        if self.clean & bit != 0 {
            self.skipped += 1;
        } else {
            let Some(next) = store.transition(session, stage, &self.state) else {
                return false;
            };
            self.advance(store, bit, next);
        }
        stats.stage_hits += 1;
        true
    }

    /// Runs a stage the graph could not answer: `step` gets the working
    /// copy of the current state's IR and returns whether it changed it (or
    /// rejects the result with an error). The transition is recorded either
    /// way, and after a change the walk continues from the store's canonical
    /// exemplar, so later lookups resolve by pointer.
    ///
    /// The step contract: `Ok(false)` means the step left the IR untouched,
    /// so the copy still equals the state it was taken from and the next
    /// step reuses it. `work` holds that copy next to the state it copies;
    /// the IR is cloned again only after a step changed it (the copy then
    /// becomes the new state) or after the walk moved to another state.
    fn run<S, T, E>(
        &mut self,
        store: &S,
        session: SessionId,
        (stage, item): (usize, T),
        stats: &mut SessionStats,
        work: &mut Option<(Arc<Shader>, Shader)>,
        step: impl FnOnce(T, &mut Shader) -> Result<bool, E>,
    ) -> Result<(), E>
    where
        S: CacheStore + ?Sized,
    {
        let mut ir = match work.take() {
            Some((of, ir)) if Arc::ptr_eq(&of, &self.state.ir) => ir,
            _ => (*self.state.ir).clone(),
        };
        let output = if step(item, &mut ir)? {
            ir.invalidate_fingerprint();
            Snapshot {
                fp: fingerprint(&ir),
                ir: Arc::new(ir),
            }
        } else {
            // Identity: the input snapshot is the output — no fingerprint,
            // no new allocation. The store records it as a clean-stage bit,
            // and the untouched copy serves the next step.
            *work = Some((Arc::clone(&self.state.ir), ir));
            self.state.clone()
        };
        stats.stage_runs += 1;
        let next = store.record_transition(session, stage, self.state.clone(), output);
        self.advance(store, mask_bit(stage), next);
        Ok(())
    }

    /// Walks the remaining `stages` — `(stage id, item)` pairs in schedule
    /// order — answering what the graph can and running `step` for the
    /// rest, then settles and returns the final state.
    ///
    /// `step` must return `Ok(false)` only when it left the IR untouched:
    /// the walk keeps one working copy of the current state's IR, local to
    /// this call, and hands the same copy to every step until one changes
    /// it or the walk moves to another state (see `tests/pass_identity.rs`).
    ///
    /// # Errors
    ///
    /// The first error `step` returns (the hits taken before it are still
    /// booked).
    pub fn finish<S, T, E>(
        mut self,
        store: &S,
        session: SessionId,
        stages: impl IntoIterator<Item = (usize, T)>,
        stats: &mut SessionStats,
        mut step: impl FnMut(T, &mut Shader) -> Result<bool, E>,
    ) -> Result<Snapshot, E>
    where
        S: CacheStore + ?Sized,
    {
        let mut work = None;
        for (stage, item) in stages {
            if self.answer(store, session, stage, stats) {
                continue;
            }
            if let Err(e) = self.run(store, session, (stage, item), stats, &mut work, &mut step) {
                self.settle(store);
                return Err(e);
            }
        }
        self.settle(store);
        Ok(self.state)
    }

    /// Books the mask skips taken since the last settle with the store in
    /// one note ([`CacheStore::note_identity_skips`]).
    pub fn settle<S: CacheStore + ?Sized>(&mut self, store: &S) {
        if self.skipped > 0 {
            store.note_identity_skips(self.skipped);
            self.skipped = 0;
        }
    }

    /// The state the walk stands at (hits not yet settled stay unbooked).
    pub fn into_state(self) -> Snapshot {
        self.state
    }

    fn advance<S: CacheStore + ?Sized>(&mut self, store: &S, bit: u64, next: Snapshot) {
        if Arc::ptr_eq(&next.ir, &self.state.ir) {
            self.clean |= bit;
        } else {
            self.state = next;
            self.clean = store.identity_stages(&self.state);
        }
    }
}

/// Walks `stages` — `(stage id, item)` pairs in schedule order — from
/// `start` over `store`'s transition graph and returns the final state: a
/// [`Walk`] from `start`, [finished](Walk::finish) over every stage. A
/// stage the graph cannot answer runs `step` on a working copy of the IR.
/// `Ok(false)` from `step` means the IR is untouched, and the one working
/// copy is reused by the next step; it is cloned again only after a change
/// or a move to another state.
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
    step: impl FnMut(T, &mut Shader) -> Result<bool, E>,
) -> Result<Snapshot, E>
where
    S: CacheStore + ?Sized,
{
    Walk::new(store, start).finish(store, session, stages, stats, step)
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
    let text: Arc<str> = Arc::from(backend.emit(&state.ir));
    stats.emissions += 1;
    store.record_emission(session, backend, state, Arc::clone(&text));
    text
}
