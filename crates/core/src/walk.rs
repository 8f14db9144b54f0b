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
//!
//! A walk stands on a graph [`Node`] — the store's fingerprint, never-reused
//! generation and clean-stage mask of one structure — not on IR. A stage the
//! mask marks clean costs nothing; any other answered stage costs one
//! edge-plane read, under whose lock the output's mask is read off the cell
//! the edge holds, and clones no `Arc<Shader>`: a node is `Copy`, so a step
//! touches no refcount. IR is fetched only when a stage must run or the
//! caller asks for the final state. A bounded store may reclaim a node
//! between the lookup that named it and that fetch; the walk then re-derives
//! the node's IR by running the steps of the stages it answered since the
//! last IR it held, and books none of them a second time.

use crate::cache::{hit_rate, CacheStore, Node, NodeId, SessionId, Snapshot, MASK_STAGES};
use prism_emit::BackendKind;
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
/// The walk stands on a [`Node`] and counts the stages it has taken, so it
/// knows where in its caller's stage list it stopped. Every stage the
/// node's clean mask marks as identity is skipped outright — no lookup, no
/// fingerprint, no clone — and consecutive identity stages collapse into
/// the one mask read that came with the node. Those mask skips are booked
/// with the store once per [`Walk::settle`], not once per stage; an edge
/// hit is counted by the store's lookup itself.
#[derive(Debug, Clone)]
pub struct Walk {
    /// The node the walk started at: the one whose IR the caller hands
    /// [`Walk::finish`].
    origin: NodeId,
    node: Node,
    /// Stages taken so far, answered or run, in the caller's stage order.
    taken: usize,
    /// Stages taken off the clean mask since the last settle.
    skipped: usize,
}

/// The last IR a walk held — its start's, then each run's canonical output
/// — with the node it belongs to and the stages taken when the walk stood
/// there.
struct Anchor {
    ir: Arc<Shader>,
    node: NodeId,
    at: usize,
}

impl Walk {
    /// A walk standing at `start` (one exemplar read for its node).
    pub fn new<S: CacheStore + ?Sized>(store: &S, start: &Snapshot) -> Walk {
        Walk::at(store.node(start))
    }

    /// A walk standing at `start`, a node the caller read with
    /// [`CacheStore::node`].
    pub fn at(start: Node) -> Walk {
        Walk {
            origin: start.id,
            node: start,
            taken: 0,
            skipped: 0,
        }
    }

    /// The node the walk stands at: the key of the emission and analysis
    /// memos once every stage is taken.
    pub fn node(&self) -> Node {
        self.node
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
        if self.node.clean & mask_bit(stage) != 0 {
            self.skipped += 1;
        } else {
            let Some(next) = store.transition(session, stage, &self.node) else {
                return false;
            };
            self.node = next;
        }
        self.taken += 1;
        stats.stage_hits += 1;
        true
    }

    /// Walks the rest of `stages` — every `(stage id, item)` pair of the
    /// walk's stage list in schedule order, from the first; the stages
    /// already taken are skipped — answering what the graph can and running
    /// `step` for the rest, then settles and returns the final node and
    /// state. `start` is the state the walk started at.
    ///
    /// `step` gets a working copy of the current state's IR and returns
    /// whether it changed it (or rejects the result with an error). The
    /// transition is recorded either way, and after a change the walk
    /// continues from the store's canonical exemplar, so later lookups
    /// resolve by pointer. `step` must return `Ok(false)` only when it left
    /// the IR untouched: the walk keeps one working copy of the current
    /// state's IR, local to this call, and hands the same copy to every step
    /// until one changes it or the walk moves to another node (see
    /// `tests/pass_identity.rs`).
    ///
    /// # Errors
    ///
    /// The first error `step` returns (the hits taken before it are still
    /// booked).
    pub fn finish<S, I, T, E>(
        mut self,
        store: &S,
        session: SessionId,
        start: &Snapshot,
        stages: I,
        stats: &mut SessionStats,
        mut step: impl FnMut(T, &mut Shader) -> Result<bool, E>,
    ) -> Result<(Node, Snapshot), E>
    where
        S: CacheStore + ?Sized,
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let walked = self.walk_rest(store, session, start, stages.into_iter(), stats, &mut step);
        self.settle(store);
        let ir = walked?;
        let fp = self.node.fingerprint();
        Ok((self.node, Snapshot { ir, fp }))
    }

    fn walk_rest<S, I, T, E>(
        &mut self,
        store: &S,
        session: SessionId,
        start: &Snapshot,
        stages: I,
        stats: &mut SessionStats,
        step: &mut impl FnMut(T, &mut Shader) -> Result<bool, E>,
    ) -> Result<Arc<Shader>, E>
    where
        S: CacheStore + ?Sized,
        I: Iterator<Item = (usize, T)> + Clone,
    {
        let mut anchor = Anchor {
            ir: Arc::clone(&start.ir),
            node: self.origin,
            at: 0,
        };
        let mut work: Option<(NodeId, Shader)> = None;
        for (stage, item) in stages.clone().skip(self.taken) {
            if self.answer(store, session, stage, stats) {
                continue;
            }
            let input = self.ir(store, &mut anchor, stages.clone(), step)?;
            let mut ir = match work.take() {
                Some((at, ir)) if at == self.node.id => ir,
                _ => (*input).clone(),
            };
            let input = Snapshot {
                ir: input,
                fp: self.node.fingerprint(),
            };
            // Identity: the input snapshot is the output — no fingerprint,
            // no new allocation. The store records it as a clean-stage bit,
            // and the untouched copy serves the next step.
            let (output, untouched) = if step(item, &mut ir)? {
                ir.invalidate_fingerprint();
                (Snapshot::new(ir), None)
            } else {
                (input.clone(), Some(ir))
            };
            stats.stage_runs += 1;
            let (next, canonical) = store.record_transition(session, stage, input, output);
            work = untouched.map(|ir| (next.id, ir));
            self.node = next;
            self.taken += 1;
            anchor = Anchor {
                ir: canonical,
                node: next.id,
                at: self.taken,
            };
        }
        self.ir(store, &mut anchor, stages, step)
    }

    /// The IR of the node the walk stands at, which becomes the anchor: the
    /// anchor's own when the walk still stands there, else the store's
    /// exemplar, else — the store reclaimed the node after the lookup that
    /// named it — the anchor's IR run through the steps of the stages taken
    /// since. Those stages are already booked, so the re-run books nothing.
    fn ir<S, I, T, E>(
        &self,
        store: &S,
        anchor: &mut Anchor,
        stages: I,
        step: &mut impl FnMut(T, &mut Shader) -> Result<bool, E>,
    ) -> Result<Arc<Shader>, E>
    where
        S: CacheStore + ?Sized,
        I: Iterator<Item = (usize, T)>,
    {
        if anchor.node != self.node.id {
            let ir = match store.fetch(&self.node) {
                Some(ir) => ir,
                None => {
                    let mut ir = (*anchor.ir).clone();
                    for (_, item) in stages.skip(anchor.at).take(self.taken - anchor.at) {
                        step(item, &mut ir)?;
                    }
                    ir.invalidate_fingerprint();
                    Arc::new(ir)
                }
            };
            *anchor = Anchor {
                ir,
                node: self.node.id,
                at: self.taken,
            };
        }
        Ok(Arc::clone(&anchor.ir))
    }

    /// Books the mask skips taken since the last settle with the store in
    /// one note ([`CacheStore::note_identity_skips`]).
    pub fn settle<S: CacheStore + ?Sized>(&mut self, store: &S) {
        if self.skipped > 0 {
            store.note_identity_skips(self.skipped);
            self.skipped = 0;
        }
    }
}

/// Walks `stages` — `(stage id, item)` pairs in schedule order — from
/// `start` over `store`'s transition graph and returns the final node and
/// state: a [`Walk`] from `start`, [finished](Walk::finish) over every
/// stage. A stage the graph cannot answer runs `step` on a working copy of
/// the IR. `Ok(false)` from `step` means the IR is untouched, and the one
/// working copy is reused by the next step; it is cloned again only after a
/// change or a move to another state.
///
/// # Errors
///
/// The first error `step` returns.
pub fn walk_stages<S, I, T, E>(
    store: &S,
    session: SessionId,
    start: &Snapshot,
    stages: I,
    stats: &mut SessionStats,
    step: impl FnMut(T, &mut Shader) -> Result<bool, E>,
) -> Result<(Node, Snapshot), E>
where
    S: CacheStore + ?Sized,
    I: IntoIterator<Item = (usize, T)>,
    I::IntoIter: Clone,
{
    Walk::new(store, start).finish(store, session, start, stages, stats, step)
}

/// The `backend` text of `state` at `node`, memoised on (node, backend): a
/// hit hands back the memo's shared allocation, a miss emits `state`'s IR
/// once and records the text.
pub fn emit_memoised<S>(
    store: &S,
    session: SessionId,
    backend: BackendKind,
    (node, state): (&Node, &Snapshot),
    stats: &mut SessionStats,
) -> Arc<str>
where
    S: CacheStore + ?Sized,
{
    if let Some(text) = store.emission(session, backend, node) {
        stats.emission_hits += 1;
        return text;
    }
    let text: Arc<str> = Arc::from(backend.emit(&state.ir));
    stats.emissions += 1;
    store.record_emission(session, backend, state, Arc::clone(&text));
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CorpusCache;
    use prism_ir::prelude::*;
    use std::convert::Infallible;

    /// One output written with a splat of `value`: a distinct structure per
    /// value.
    fn splat(value: f64) -> Shader {
        let mut s = Shader::new("walk-test");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(value),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        s
    }

    /// Stage `i` turns any IR into `splat(i + 1)`.
    const STAGES: [(usize, f64); 3] = [(0, 1.0), (1, 2.0), (2, 3.0)];

    fn step(value: f64, ir: &mut Shader) -> Result<bool, Infallible> {
        *ir = splat(value);
        Ok(true)
    }

    #[test]
    fn a_node_reclaimed_after_its_lookup_is_re_derived_and_booked_once() {
        // Four entries per edge and emission shard map: room for the three
        // edges of the cold walk, whichever shards they land in.
        let cache = CorpusCache::bounded(128);
        let session = cache.register_session();
        let start = cache.intern(Snapshot::new(splat(0.0)));
        let cold = walk_stages(
            &cache,
            session,
            &start,
            STAGES,
            &mut SessionStats::default(),
            step,
        );
        assert!(cold.is_ok());

        // Answer stage 0 by its edge, then crowd every shard until that
        // edge and the one out of its output are evicted, which reclaims
        // the node the walk stands on.
        let mut stats = SessionStats::default();
        let mut walk = Walk::new(&cache, &start);
        assert!(walk.answer(&cache, session, 0, &mut stats));
        let reached = walk.node();
        assert!(cache.fetch(&reached).is_some());
        for seed in 100..1100 {
            let input = Snapshot::new(splat(f64::from(seed)));
            let output = Snapshot::new(splat(f64::from(seed) + 0.5));
            cache.record_transition(session, 0, input, output);
        }
        assert!(
            cache.fetch(&reached).is_none(),
            "the node was not reclaimed"
        );

        let runs_before = cache.stats().stage_runs;
        let (node, state) = walk
            .finish(&cache, session, &start, STAGES, &mut stats, step)
            .unwrap_or_else(|never| match never {});
        assert!(state.ir.same_structure(&splat(3.0)));
        assert_eq!(node.fingerprint(), state.fp);
        assert_eq!(state.fp, Snapshot::new(splat(3.0)).fp);
        // Stage 0 was a hit; the re-derivation of its output ran its step
        // again but booked nothing, and stages 1 and 2 ran once each.
        assert_eq!(stats.stage_hits, 1);
        assert_eq!(stats.stage_runs, 2);
        assert_eq!(cache.stats().stage_runs - runs_before, 2);
    }
}
