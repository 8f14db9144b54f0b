//! The compile cache: one fingerprint transition graph per [`CorpusCache`].
//!
//! The store implements one model — a **fingerprint transition graph** with
//! zero-copy storage:
//!
//! * **Exemplars** — one interned `Arc<Shader>` per *distinct IR structure*
//!   (not per `(fingerprint, stage)` key), held in per-fingerprint chains so
//!   hash collisions coexist instead of merging. Interning confirms
//!   structural equality exactly once per distinct `Arc` entering the plane;
//!   every later lookup resolves by pointer identity, so equality
//!   confirmation runs once per collision candidate, not once per hit.
//! * **Memo planes** — three maps of one entry type, each keyed
//!   `(input fingerprint, K)` and holding entries that reference their input
//!   exemplar by generation (no per-hit structural compare):
//!   * *edges* (`K` = stage index): stage transitions recorded as
//!     fingerprint → fingerprint edges between exemplars (`NodeId` =
//!     fingerprint + a never-reused generation stamp). Replaying a flag
//!     combination is a walk over u64 edges with zero IR clones until
//!     emission.
//!   * *emissions* (`K` = backend): emitted text.
//!   * *analyses* (`K` = platform personality): serialised static-analysis
//!     reports.
//!
//!   The planes share one lookup, LRU touch, insert-with-eviction, warm
//!   insert and persisted-entry walk; an edge differs only in that its value
//!   is a second exemplar reference, its output node, held together with
//!   that node's clean-stage cell.
//! * **Identity bits** — a stage whose passes report the IR unchanged sets a
//!   bit in the input exemplar's clean-stage mask instead of storing an
//!   edge. The walk ([`Walk`](crate::walk::Walk)) stands on a graph [`Node`],
//!   which carries the mask read with it, and skips every clean stage in
//!   O(1): no lookup, no re-fingerprint, no snapshot insert, no equality
//!   confirmation. Consecutive identity edges collapse into a single mask
//!   read. The mask lives in one shared cell per exemplar, which every edge
//!   into the node and every [`Pinned`] handle on it hold too, so a bit set
//!   after an edge was recorded is seen through that edge.
//!
//! Lookups are keyed by [`Node`], not by IR: a node is resolved from a
//! [`Snapshot`] once ([`CacheStore::node`]), and an answered stage
//! ([`CacheStore::transition`]) costs one edge-plane read, under whose lock
//! the output's mask is read off the edge's cell, with no `Arc<Shader>`
//! clone; IR is fetched ([`CacheStore::fetch`]) only when a stage must run
//! or a caller asks for a final state. The hit counters are [`Striped`] per
//! thread, so concurrent hits write no shared counter line.
//!
//! A standalone [`CompileSession`](crate::CompileSession) owns a private
//! `CorpusCache`; the study sweep and the compile service share one across
//! every session, thread-safely. Übershader families share most of their
//! IR, so a family member's stage transitions and emitted text are routinely
//! answered from work another shader's session already did ("cross-shader"
//! hits), across worker threads.
//!
//! Fingerprint matches are only candidates: interning (and therefore every
//! lookup) confirms a candidate with full structural IR equality before it
//! can answer anything, so a hash collision can never silently merge
//! different variants. Pointer equality ([`Arc::ptr_eq`]) is the fast path —
//! shared schedule prefixes hand around the same allocation.
//!
//! A [`CorpusCache`] can additionally be **bounded**
//! ([`CorpusCache::bounded`]): every memo entry carries a last-use
//! generation stamp and the least-recently-used entry is evicted whenever a
//! shard exceeds its budget, so a production-scale corpus sweep runs in
//! fixed memory. Exemplars are reference-counted from the entries that use
//! them and dropped when the last entry goes, so eviction reclaims IR
//! storage too — except a [pinned](CorpusCache::pin) one, which stays for
//! the cache's lifetime. The LRU touch refreshes exactly the entry a lookup
//! resolved — never its fingerprint-colliding bucket neighbours, which would
//! otherwise be kept alive forever by hits they never answered. Because the
//! store is a pure cache (an evicted entry is simply recomputed on the next
//! miss), a bounded cache produces byte-identical results to an unbounded
//! one — only the work counters differ.
//!
//! Finally, a [`CorpusCache`] can be **persisted** (the [`persist`] module):
//! [`CorpusCache::save`] writes the exemplar store and all three memo planes
//! as one versioned, checksummed file per fingerprint-range shard, and
//! [`CorpusCache::load`] warm-starts a fresh process from such a snapshot —
//! stale, torn or corrupt shards are skipped (and counted in
//! [`CacheStats`]), never trusted. Warm entries answer lookups through the
//! exact same interning path as live ones, so a warm-started sweep produces
//! byte-identical results while performing strictly less work; hits answered
//! from disk are reported separately (`warm_*` counters) from hits produced
//! by this process's own sessions.

use prism_emit::BackendKind;
use prism_ir::counters::Striped;
use prism_ir::fingerprint::{fingerprint, Fingerprint};
use prism_ir::Shader;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

pub mod persist;

/// An IR snapshot at a stage boundary: the shader state plus its structural
/// fingerprint.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The IR at this boundary (shared, never mutated in place).
    pub ir: Arc<Shader>,
    /// Structural fingerprint of `ir`.
    pub fp: Fingerprint,
}

impl Snapshot {
    /// Fingerprints `ir` and takes it into a shared handle.
    pub fn new(ir: Shader) -> Snapshot {
        Snapshot {
            fp: fingerprint(&ir),
            ir: Arc::new(ir),
        }
    }
}

/// Identifies one session against a store; used to distinguish same-session
/// reuse from cross-shader sharing in the statistics.
pub type SessionId = u64;

/// Stage indices representable in an exemplar's clean-stage bitmask. The
/// schedule has far fewer stages; an (impossible today) stage at or past
/// this index records a self-edge instead of a mask bit — correct, just not
/// O(1).
pub(crate) const MASK_STAGES: usize = 64;

/// A node of the fingerprint transition graph: one distinct IR structure.
///
/// `gen` is a store-unique, **never reused** stamp, so a `NodeId` held
/// across a lock release (or inside an edge that outlives its exemplar) can
/// go stale — a failed fetch, a cache miss — but can never silently alias a
/// different structure that later landed in the same chain slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeId {
    fp: Fingerprint,
    gen: u64,
}

/// The generation of a node the store does not hold; stamps count up from 0
/// and never reach it.
const NO_GEN: u64 = u64::MAX;

/// A graph node as a walk sees it: one interned IR structure's fingerprint
/// and never-reused generation, plus its clean-stage mask as read with it.
///
/// A node names a structure without holding its IR: a lookup keyed by a node
/// takes no `Arc<Shader>` refcount, and the IR is
/// [fetched](CacheStore::fetch) only when needed. A node the store does not
/// hold — never interned, or reclaimed by a bounded budget since it was read
/// — answers no lookup and fetches nothing; generations are never reused, so
/// it cannot alias a later structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) clean: u64,
}

impl Node {
    /// A node the store does not hold, for a structure with fingerprint
    /// `fp`.
    fn unknown(fp: Fingerprint) -> Node {
        Node {
            id: NodeId { fp, gen: NO_GEN },
            clean: 0,
        }
    }

    /// The structural fingerprint of the node's IR.
    pub fn fingerprint(&self) -> Fingerprint {
        self.id.fp
    }
}

/// A node's clean-stage mask: a bitmask over stage indices known to map its
/// structure to itself, in one cell shared by the node's exemplar, every
/// edge into the node and every [`Pinned`] handle on it. Bits are only
/// added, with `fetch_or` under the exemplar shard's write lock, and read
/// `Relaxed`: the mask publishes no other data. A reader that misses a bit
/// set a moment ago looks the stage up instead, misses (an identity stage
/// has no edge) and runs it once more — extra work, never a wrong answer.
type CleanCell = Arc<AtomicU64>;

/// A node together with its exemplar's [`CleanCell`], so the node's current
/// mask reads without the exemplar lock: an edge holds one for its output,
/// a [`Pinned`] handle one for its node. It holds the cell, not a copy of
/// the mask, because masks gain bits after an edge is recorded; a copy
/// would turn those mask skips into lookups that miss and stage runs.
#[derive(Debug, Clone)]
struct NodeCell {
    id: NodeId,
    clean: CleanCell,
}

impl NodeCell {
    /// The node, with its mask as of now.
    fn node(&self) -> Node {
        Node {
            id: self.id,
            clean: self.clean.load(Ordering::Relaxed),
        }
    }
}

/// One interned IR exemplar: the single shared `Arc<Shader>` stored for its
/// structure, plus the graph metadata hung off it.
struct Exemplar {
    /// Never-reused identity stamp (see [`NodeId`]).
    gen: u64,
    /// The canonical allocation for this structure — the first `Arc` that
    /// entered the plane wins, and every hit hands it back (zero-copy).
    ir: Arc<Shader>,
    /// Memo entries referencing this node. At 0 (with no pin and no identity
    /// knowledge) the exemplar is removable.
    refs: usize,
    /// Permanent references ([`CorpusCache::pin`]): a pinned exemplar is
    /// never removed. Kept apart from `refs` because a pin is no memo
    /// knowledge: a node only pinned is not persisted.
    pins: usize,
    /// The clean-stage mask's shared cell.
    clean: CleanCell,
}

/// Per-fingerprint chains of exemplars. A chain longer than one means a real
/// fingerprint collision: distinct structures coexisting under one hash.
type ExemplarMap = HashMap<Fingerprint, Vec<Exemplar>>;

/// One memo entry: `input_gen`'s structure, under the entry's key, maps to
/// `value`. Pure u64 bookkeeping plus the value — the IR itself lives once
/// in the exemplar store.
struct Entry<T> {
    owner: SessionId,
    input_gen: u64,
    value: T,
}

/// What a memo entry maps its input to. An edge's value is its output node
/// with that node's [`CleanCell`]; the edge holds an exemplar reference to
/// it, so an edge in the plane always has its output exemplar in the store.
/// Emitted text and analysis reports are shared `Arc<str>`s (a hit hands the
/// caller a refcount bump, never a copy of the body) and reference no node.
trait EntryValue {
    /// The exemplar this value holds a reference to, if any.
    fn node(&self) -> Option<NodeId>;
}

impl EntryValue for NodeCell {
    fn node(&self) -> Option<NodeId> {
        Some(self.id)
    }
}

impl EntryValue for Arc<str> {
    fn node(&self) -> Option<NodeId> {
        None
    }
}

/// One memo plane: per-fingerprint-shard maps of entries keyed
/// `(input fingerprint, K)`, behind `RwLock`s. Pure lookups peek under a
/// read lock (the serve hot path is almost all hits, and readers must not
/// serialize on each other); writers take the exclusive lock once per record
/// — or once per confirmed hit for the bounded stores' LRU touch.
type Plane<K, T> = Vec<RwLock<BoundedMap<(Fingerprint, K), Entry<T>>>>;

fn plane<K: Eq + Hash + Clone, T>() -> Plane<K, T> {
    (0..SHARDS)
        .map(|_| RwLock::new(BoundedMap::new()))
        .collect()
}

/// Finds `ir` in an exemplar chain: pointer identity first, then structural
/// equality (once per collision candidate — the chain is almost always a
/// single entry).
fn chain_find(chain: &[Exemplar], ir: &Arc<Shader>) -> Option<usize> {
    if let Some(i) = chain.iter().position(|e| Arc::ptr_eq(&e.ir, ir)) {
        return Some(i);
    }
    chain.iter().position(|e| e.ir.same_structure(ir))
}

/// Whether a recorded transition is an identity: the stage handed back the
/// IR it was given (same allocation, or — for direct trait users — the same
/// structure).
fn is_identity(input: &Snapshot, output: &Snapshot) -> bool {
    Arc::ptr_eq(&input.ir, &output.ir)
        || (input.fp == output.fp && input.ir.same_structure(&output.ir))
}

/// Counters describing how much work a store performed and how much it
/// shared. For a [`CorpusCache`] the `cross_shader_*` counters additionally
/// separate hits answered by a *different* session's work — the corpus-level
/// sharing the paper's übershader families make possible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Sessions registered against this store.
    pub sessions: usize,
    /// Stage executions that actually ran passes (cache misses).
    pub stage_runs: usize,
    /// Stage executions answered from the transition graph — edge hits plus
    /// `identity_transitions`.
    pub stage_hits: usize,
    /// Subset of `stage_hits` answered in O(1) by identity knowledge: the
    /// input's structure is known to pass through the stage unchanged, so no
    /// pass ran, no fingerprint was computed and no equality was confirmed.
    /// Identity answers carry no owner and are never counted as
    /// cross-shader or warm hits.
    pub identity_transitions: usize,
    /// Subset of `stage_hits` answered by another session's entry.
    pub cross_shader_stage_hits: usize,
    /// Emissions performed (across all backends).
    pub emissions: usize,
    /// Emissions performed, split by backend (indexed by
    /// [`BackendKind::index`]; sums to `emissions`). The per-target view the
    /// perf gate watches — a backend that silently stops sharing its memo
    /// shows up here even when the total still looks healthy.
    pub emissions_by_backend: [usize; BackendKind::COUNT],
    /// Emissions answered from the (fingerprint, backend) memo.
    pub emission_hits: usize,
    /// Subset of `emission_hits` answered by another session's entry.
    pub cross_shader_emission_hits: usize,
    /// Entries dropped by a bounded store's LRU policy (always 0 for
    /// unbounded stores).
    pub evictions: usize,
    /// Subset of `stage_hits` answered by an entry loaded from a warm-start
    /// snapshot ([`CorpusCache::load`]) rather than computed by any session
    /// of this process.
    pub warm_stage_hits: usize,
    /// Subset of `emission_hits` answered by a warm-start entry.
    pub warm_emission_hits: usize,
    /// Entries restored by [`CorpusCache::load`].
    pub warm_entries_loaded: usize,
    /// Snapshot shards accepted by [`CorpusCache::load`].
    pub warm_shards_loaded: usize,
    /// Snapshot shards rejected by [`CorpusCache::load`] (wrong version or
    /// pass-schedule hash, checksum mismatch, torn or malformed file) — each
    /// degrades to a cold shard instead of being trusted.
    pub warm_shards_skipped: usize,
    /// Individual entries rejected inside otherwise-valid shards (an
    /// emission recorded under a [`BackendKind`] this build does not know, an
    /// edge whose endpoint lives in a shard file that was skipped or
    /// deleted, or an entry whose node a bounded budget reclaimed during the
    /// load). Unlike a shard-level problem, such an entry costs only itself:
    /// the rest of the shard loads.
    pub warm_entries_skipped: usize,
    /// Fresh static-analysis walks recorded into the `(fingerprint,
    /// personality)` memo ([`CorpusCache::record_analysis`]) — each one paid
    /// a cost-model walk plus a lint pass.
    pub static_analyses: usize,
    /// Analysis lookups answered from the memo
    /// ([`CorpusCache::analysis`]) — no walk ran.
    pub analysis_memo_hits: usize,
    /// Subset of `analysis_memo_hits` answered by a warm-start entry.
    pub warm_analysis_hits: usize,
    /// Warm-shard exemplars rejected by the IR verifier at load time. A
    /// persisted IR that no longer verifies (written by a buggy build, or
    /// bit-rotted in a way the checksum happened to miss) is dropped with
    /// every entry referencing it, never interned.
    pub warm_verify_rejects: usize,
    /// Compile-service requests routed to a fingerprint shard after the
    /// shared front stage (0 outside a serving process).
    pub routed_requests: usize,
    /// Subset of `routed_requests` that coalesced onto an identical
    /// in-flight compile instead of starting their own — the singleflight
    /// wins of a serving process.
    pub coalesced_requests: usize,
}

/// `hits / (hits + runs)`, 0 when nothing ran — the stage hit rate every
/// counter set reports.
pub(crate) fn hit_rate(hits: usize, runs: usize) -> f64 {
    let total = hits + runs;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl CacheStats {
    /// Fraction of stage executions served from cache (0 when nothing ran).
    pub fn stage_hit_rate(&self) -> f64 {
        hit_rate(self.stage_hits, self.stage_runs)
    }
}

/// Storage backing a compile session's transition and emission memos.
///
/// Implementations must answer lookups only after confirming structural IR
/// equality against the stored exemplar (fingerprints are candidates, not
/// proofs), and must be pure caches: storing never changes what future
/// compilations would compute, only how fast.
pub trait CacheStore {
    /// Registers a new session and returns its id (used to attribute
    /// cross-shader sharing).
    fn register_session(&self) -> SessionId;

    /// Interns `snapshot`'s IR into the exemplar store and returns the
    /// canonical snapshot for its structure (the first-interned `Arc` wins).
    /// Sessions intern their base once at construction so every later
    /// lookup resolves by pointer identity.
    fn intern(&self, snapshot: Snapshot) -> Snapshot;

    /// The node of `snapshot`'s structure with its clean-stage mask (one
    /// exemplar read), or a node that answers nothing when the store does
    /// not hold the structure. A walk resolves its start once; every later
    /// lookup is keyed by node. (A [`Pinned`] handle reads its node without
    /// the exemplar read.)
    fn node(&self, snapshot: &Snapshot) -> Node;

    /// The IR of `node`: its exemplar's shared allocation, or `None` when
    /// the store does not hold the node (a bounded budget may reclaim it
    /// between the lookup that named it and this fetch).
    fn fetch(&self, node: &Node) -> Option<Arc<Shader>>;

    /// Books `skips` stage hits a walk took straight off a node's clean
    /// mask, in one note: no per-transition lookup happened for them, so
    /// they are counted here as store-wide stage hits and identity
    /// transitions.
    fn note_identity_skips(&self, skips: usize);

    /// Looks up the output node of running stage `stage` over `input`: one
    /// edge-plane read, under whose lock the output's current clean mask is
    /// read off the cell the edge holds, and no IR handle. A hit is counted
    /// store-wide here, with its cross-shader or warm attribution. The
    /// input's clean mask is the caller's to check: an identity stage has no
    /// edge.
    fn transition(&self, session: SessionId, stage: usize, input: &Node) -> Option<Node>;

    /// Records that stage `stage` maps `input` to `output` and returns the
    /// output's node (with its mask) and canonical IR. An identity
    /// transition (`output` structurally equals `input`) is stored as a bit
    /// in the input exemplar's clean-stage mask, not as an edge, and returns
    /// the input's node with that bit set; any other returns the interned
    /// exemplar of the output's structure, so the caller walks on without a
    /// second intern.
    fn record_transition(
        &self,
        session: SessionId,
        stage: usize,
        input: Snapshot,
        output: Snapshot,
    ) -> (Node, Arc<Shader>);

    /// Looks up the emitted text of `state` for `backend`. The returned
    /// handle shares the cached allocation — callers never pay a body copy.
    fn emission(&self, session: SessionId, backend: BackendKind, state: &Node) -> Option<Arc<str>>;

    /// Records the emitted text of `state` for `backend`.
    fn record_emission(
        &self,
        session: SessionId,
        backend: BackendKind,
        state: &Snapshot,
        text: Arc<str>,
    );

    /// Work/sharing counters accumulated so far.
    fn stats(&self) -> CacheStats;
}

/// Number of lock shards in a [`CorpusCache`]. Keys are spread by
/// fingerprint, so concurrent sessions working on unrelated IR rarely touch
/// the same lock.
const SHARDS: usize = 16;

/// The fingerprint-range shard count, public so a serving layer can route
/// requests with the exact same split the cache (and its persisted snapshot
/// files) use — one shard owner per `shard-NN.json` without re-keying.
pub const FINGERPRINT_SHARDS: usize = SHARDS;

/// The shard a fingerprint belongs to, in `0..FINGERPRINT_SHARDS`. This is
/// the routing function: the cache's lock shards and the persisted snapshot
/// files agree on it.
pub fn shard_of(fp: Fingerprint) -> usize {
    (fp.0 as usize) % SHARDS
}

/// Pseudo-owner of entries restored from a warm-start snapshot
/// ([`CorpusCache::load`]). Real session ids count up from 0 and can never
/// reach this value, so a hit on a warm entry is attributable as
/// answered-from-disk rather than answered-by-another-session.
const WARM_OWNER: SessionId = SessionId::MAX;

/// One shard of a bounded memo: buckets of entries stamped with their
/// last-use generation, plus a running entry count so the LRU bound is
/// enforced without rescanning.
struct BoundedMap<K, V> {
    map: HashMap<K, Vec<(u64, V)>>,
    entries: usize,
}

impl<K: Eq + Hash + Clone, V> BoundedMap<K, V> {
    fn new() -> BoundedMap<K, V> {
        BoundedMap {
            map: HashMap::new(),
            entries: 0,
        }
    }

    /// The bucket for `key`, *without* refreshing any generation stamp.
    /// Lookups read under the shard's read lock, so the LRU touch is
    /// deferred to [`BoundedMap::refresh`] under the write lock, for exactly
    /// the entry that answered — refreshing the whole bucket would keep
    /// fingerprint-colliding neighbours alive on hits they never answered,
    /// making them unevictable.
    fn peek(&self, key: &K) -> Option<&Vec<(u64, V)>> {
        self.map.get(key)
    }

    /// Refreshes the generation stamp of exactly the entries `hit` matches —
    /// the LRU touch of a confirmed lookup. A no-op if the entry was evicted
    /// between the lookup's two lock acquisitions (the caller already holds a
    /// clone of the answer, so nothing is lost).
    fn refresh(&mut self, key: &K, now: u64, hit: impl Fn(&V) -> bool) {
        if let Some(bucket) = self.map.get_mut(key) {
            for (generation, value) in bucket.iter_mut() {
                if hit(value) {
                    *generation = now;
                }
            }
        }
    }

    /// Inserts an entry stamped `now` and evicts least-recently-used entries
    /// until this shard is back within `budget`. Returns the evicted entries
    /// with their keys, so the caller can release the exemplar references
    /// they held.
    fn insert(&mut self, key: K, value: V, now: u64, budget: Option<usize>) -> Vec<(K, V)> {
        self.map.entry(key).or_default().push((now, value));
        self.entries += 1;
        let mut evicted = Vec::new();
        if let Some(budget) = budget {
            while self.entries > budget.max(1) {
                match self.evict_oldest() {
                    Some(entry) => evicted.push(entry),
                    None => break,
                }
            }
        }
        evicted
    }

    /// Removes and returns the entry with the oldest generation stamp. A
    /// bounded shard stays small, so the linear scan is cheap and keeps
    /// eviction free of auxiliary index structures that would need their own
    /// locking.
    fn evict_oldest(&mut self) -> Option<(K, V)> {
        let mut oldest: Option<(K, usize, u64)> = None;
        for (key, bucket) in &self.map {
            for (idx, (generation, _)) in bucket.iter().enumerate() {
                if oldest
                    .as_ref()
                    .is_none_or(|(_, _, best)| *generation < *best)
                {
                    oldest = Some((key.clone(), idx, *generation));
                }
            }
        }
        let (key, idx, _) = oldest?;
        let bucket = self.map.get_mut(&key).expect("oldest key present");
        let (_, value) = bucket.remove(idx);
        if bucket.is_empty() {
            self.map.remove(&key);
        }
        self.entries -= 1;
        Some((key, value))
    }
}

/// The counters a memo hit bumps, by index into [`CorpusCache`]'s striped
/// set: a hit writes only its own thread's stripe.
#[derive(Clone, Copy)]
enum Hit {
    Stage,
    Identity,
    CrossShaderStage,
    WarmStage,
    Emission,
    CrossShaderEmission,
    WarmEmission,
    Analysis,
    WarmAnalysis,
    Routed,
}

/// Counters in [`Hit`].
const HITS: usize = Hit::Routed as usize + 1;

/// A thread-safe, corpus-wide cache store shared by many sessions.
///
/// The study sweep builds every shader's session against one `CorpusCache`,
/// so übershader family members reuse each other's stage transitions and
/// emitted text across worker threads. The exemplar store and the three
/// memo planes (edges, emissions, analyses) are all sharded by fingerprint
/// to keep lock contention off the hot path; the hit counters are striped
/// per thread and the rest are atomics.
///
/// A cache built with [`CorpusCache::bounded`] additionally enforces an
/// entry budget with per-shard LRU eviction (entries are generation-stamped
/// on every lookup), so incremental search over an arbitrarily large corpus
/// runs in fixed memory; because eviction only ever forces recomputation,
/// results stay byte-identical to an unbounded cache.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use prism_core::{CacheStore, CompileSession, CorpusCache};
/// use prism_glsl::ShaderSource;
///
/// let cache = Arc::new(CorpusCache::new());
/// let a = ShaderSource::parse(
///     "uniform vec4 t; in vec2 uv; out vec4 c; void main() { c = vec4(uv, 0.0, 1.0) * t; }",
/// ).unwrap();
/// let s1 = CompileSession::with_cache(&a, "a", cache.clone()).unwrap();
/// let s2 = CompileSession::with_cache(&a, "a2", cache.clone()).unwrap();
/// s1.variants().unwrap();
/// s2.variants().unwrap();
/// // The second session re-used the first one's work wholesale.
/// assert!(cache.stats().cross_shader_stage_hits > 0);
/// ```
pub struct CorpusCache {
    sessions: AtomicU64,
    /// Total entry budget across edges and emissions, or `None` for
    /// unbounded growth. Exemplars are not counted — they are storage,
    /// reference-counted from the entries and reclaimed with them.
    budget: Option<usize>,
    /// The per-shard-map slice of `budget` (edges and emissions have
    /// `2 * SHARDS` maps between them).
    shard_budget: Option<usize>,
    /// Monotonic generation clock for LRU stamping.
    clock: AtomicU64,
    /// Monotonic exemplar generation stamps (see [`NodeId`]); never reused.
    gens: AtomicU64,
    /// The exemplar store: one interned `Arc<Shader>` per distinct
    /// structure, sharded by fingerprint.
    exemplars: Vec<RwLock<ExemplarMap>>,
    /// Edges, keyed `(input fingerprint, stage index)`, each holding its
    /// output node's cell.
    transitions: Plane<usize, NodeCell>,
    /// Emitted text, keyed `(input fingerprint, backend)`.
    emissions: Plane<BackendKind, Arc<str>>,
    /// Serialised `StaticReport` JSON, keyed `(input fingerprint,
    /// personality name)`. The cache stores the report as opaque text —
    /// `prism-core` sits below the analyser in the crate graph, so the memo
    /// plane cannot (and need not) name its types. The name is the
    /// personality's `&'static str`, so a lookup builds its key without
    /// allocating.
    analyses: Plane<&'static str, Arc<str>>,
    /// Personality names this process can recompute analyses for
    /// ([`CorpusCache::register_personalities`]). A persisted analysis under
    /// an unregistered name is skipped at load time — forward compatibility,
    /// like an unknown backend.
    personalities: RwLock<Vec<&'static str>>,
    /// The counters every memo hit bumps, indexed by [`Hit`].
    hits: Striped<HITS>,
    stage_runs: AtomicUsize,
    emissions_done: AtomicUsize,
    emissions_by_backend: [AtomicUsize; BackendKind::COUNT],
    evictions: AtomicUsize,
    warm_entries_loaded: AtomicUsize,
    warm_shards_loaded: AtomicUsize,
    warm_shards_skipped: AtomicUsize,
    pub(crate) warm_entries_skipped: AtomicUsize,
    static_analyses: AtomicUsize,
    pub(crate) warm_verify_rejects: AtomicUsize,
    coalesced_requests: AtomicUsize,
}

impl Default for CorpusCache {
    fn default() -> Self {
        CorpusCache::with_budget(None)
    }
}

impl CorpusCache {
    /// An empty, unbounded corpus-wide store (the cache grows monotonically
    /// with the corpus).
    pub fn new() -> CorpusCache {
        CorpusCache::default()
    }

    /// An empty store bounded to at most `max_entries` edge and emission
    /// entries, enforced with per-shard LRU eviction (the analysis plane
    /// gets the same per-shard-map slice on top).
    ///
    /// To enforce the bound without a global lock, the budget is split
    /// evenly across the `2 * SHARDS` (32) edge and emission shard maps,
    /// quantizing the *effective* capacity **down** to a multiple of 32
    /// (e.g. `bounded(63)` caches at most 32 entries) — so for budgets of at
    /// least 32 the ceiling is hard and never exceeded, and callers wanting
    /// full use of a budget should pass a multiple of 32. Budgets *below* 32
    /// are raised to the one-entry-per-shard-map minimum: `entry_count()`
    /// can then reach 32 regardless of the smaller request.
    pub fn bounded(max_entries: usize) -> CorpusCache {
        CorpusCache::with_budget(Some(max_entries))
    }

    /// [`CorpusCache::bounded`] by `budget` when it is set, otherwise
    /// [`CorpusCache::new`]: the one constructor for callers whose budget
    /// is a config option.
    pub fn with_budget(budget: Option<usize>) -> CorpusCache {
        CorpusCache {
            sessions: AtomicU64::new(0),
            budget,
            shard_budget: budget.map(|b| (b / (2 * SHARDS)).max(1)),
            clock: AtomicU64::new(0),
            gens: AtomicU64::new(0),
            exemplars: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            transitions: plane(),
            emissions: plane(),
            analyses: plane(),
            personalities: RwLock::new(Vec::new()),
            hits: Striped::new(),
            stage_runs: AtomicUsize::new(0),
            emissions_done: AtomicUsize::new(0),
            emissions_by_backend: std::array::from_fn(|_| AtomicUsize::new(0)),
            evictions: AtomicUsize::new(0),
            warm_entries_loaded: AtomicUsize::new(0),
            warm_shards_loaded: AtomicUsize::new(0),
            warm_shards_skipped: AtomicUsize::new(0),
            warm_entries_skipped: AtomicUsize::new(0),
            static_analyses: AtomicUsize::new(0),
            warm_verify_rejects: AtomicUsize::new(0),
            coalesced_requests: AtomicUsize::new(0),
        }
    }

    fn hit(&self, counter: Hit) {
        self.hits.add(counter as usize, 1);
    }

    fn hits(&self, counter: Hit) -> usize {
        self.hits.get(counter as usize)
    }

    /// Books a memo hit answered by `owner`'s entry: `hit`, plus `warm` for
    /// a warm-start entry or `cross` for another session's.
    fn hit_by(&self, owner: SessionId, session: SessionId, hit: Hit, warm: Hit, cross: Hit) {
        self.hit(hit);
        if owner == WARM_OWNER {
            self.hit(warm);
        } else if owner != session {
            self.hit(cross);
        }
    }

    /// Counts a compile-service request routed to a fingerprint shard. The
    /// cache owns the counter so serving telemetry travels with the rest of
    /// [`CacheStats`] through reports and the perf gate.
    pub fn note_routed_request(&self) {
        self.hit(Hit::Routed);
    }

    /// Counts a request that coalesced onto an identical in-flight compile.
    pub fn note_coalesced_request(&self) {
        self.coalesced_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// The configured entry budget, if this store is bounded.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Entries currently cached across all three memo planes and every shard
    /// (exemplars are storage, not entries, and are not counted). A bounded
    /// store keeps the edge + emission total at or below
    /// [`CorpusCache::budget`] (for budgets of at least `2 * SHARDS = 32`);
    /// the analysis plane gets the same per-shard-map slice on top.
    pub fn entry_count(&self) -> usize {
        fn entries<K, T>(plane: &Plane<K, T>) -> usize {
            plane
                .iter()
                .map(|s| s.read().expect("corpus cache poisoned").entries)
                .sum()
        }
        entries(&self.transitions) + entries(&self.emissions) + entries(&self.analyses)
    }

    /// Distinct IR structures currently interned in the exemplar store.
    pub fn exemplar_count(&self) -> usize {
        self.exemplars
            .iter()
            .map(|s| {
                s.read()
                    .expect("corpus cache poisoned")
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    fn shard(fp: Fingerprint) -> usize {
        shard_of(fp)
    }

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Resolves `snap` against its exemplar shard without interning:
    /// pointer scan under the read lock (the hot path — session state flows
    /// out of this store, so the `Arc` is usually the interned one);
    /// structural confirmation of collision candidates outside it. `None` =
    /// structure never seen.
    fn resolve_node(&self, snap: &Snapshot) -> Option<Node> {
        let node = |e: &Exemplar| Node {
            id: NodeId {
                fp: snap.fp,
                gen: e.gen,
            },
            clean: e.clean.load(Ordering::Relaxed),
        };
        let candidates: Vec<(Node, Arc<Shader>)> = {
            let map = self.exemplars[Self::shard(snap.fp)]
                .read()
                .expect("corpus cache poisoned");
            let chain = map.get(&snap.fp)?;
            if let Some(e) = chain.iter().find(|e| Arc::ptr_eq(&e.ir, &snap.ir)) {
                return Some(node(e));
            }
            chain.iter().map(|e| (node(e), Arc::clone(&e.ir))).collect()
        };
        candidates
            .into_iter()
            .find(|(_, ir)| ir.same_structure(&snap.ir))
            .map(|(node, _)| node)
    }

    /// Resolve-or-insert in one lock acquisition: the node of `snap`'s
    /// structure (interned on first sight) is handed to `hold` — which takes
    /// its references, pin or clean-stage bits — and returned with its cell
    /// and canonical allocation. Taking a reference under the same lock keeps
    /// the exemplar from being reclaimed before the entry that references it
    /// lands.
    fn intern_node(
        &self,
        snap: &Snapshot,
        hold: impl FnOnce(&mut Exemplar),
    ) -> (NodeCell, Arc<Shader>) {
        let mut map = self.exemplars[Self::shard(snap.fp)]
            .write()
            .expect("corpus cache poisoned");
        let chain = map.entry(snap.fp).or_default();
        let i = chain_find(chain, &snap.ir).unwrap_or_else(|| {
            chain.push(Exemplar {
                gen: self.gens.fetch_add(1, Ordering::Relaxed),
                ir: Arc::clone(&snap.ir),
                refs: 0,
                pins: 0,
                clean: CleanCell::default(),
            });
            chain.len() - 1
        });
        let exemplar = &mut chain[i];
        hold(exemplar);
        let cell = NodeCell {
            id: NodeId {
                fp: snap.fp,
                gen: exemplar.gen,
            },
            clean: Arc::clone(&exemplar.clean),
        };
        (cell, Arc::clone(&exemplar.ir))
    }

    /// Takes one reference to `node` if the store still holds it, and says
    /// whether it did. A bounded budget may have reclaimed the node since it
    /// was named; the caller then must not insert an entry naming it.
    fn add_node_ref(&self, node: NodeId) -> bool {
        let mut map = self.exemplars[Self::shard(node.fp)]
            .write()
            .expect("corpus cache poisoned");
        match map
            .get_mut(&node.fp)
            .and_then(|c| c.iter_mut().find(|e| e.gen == node.gen))
        {
            Some(e) => {
                e.refs += 1;
                true
            }
            None => false,
        }
    }

    /// Drops one reference to `node`, removing the exemplar when nothing
    /// references it any more, it is not pinned and it carries no identity
    /// knowledge (a clean mask is worth keeping: one bitfield that spares
    /// whole stage runs). Never called while a memo-plane shard lock is held.
    fn release_node(&self, node: NodeId) {
        let mut map = self.exemplars[Self::shard(node.fp)]
            .write()
            .expect("corpus cache poisoned");
        let Some(chain) = map.get_mut(&node.fp) else {
            return;
        };
        let Some(i) = chain.iter().position(|e| e.gen == node.gen) else {
            return;
        };
        let e = &mut chain[i];
        e.refs = e.refs.saturating_sub(1);
        if e.refs == 0 && e.pins == 0 && e.clean.load(Ordering::Relaxed) == 0 {
            chain.remove(i);
            if chain.is_empty() {
                map.remove(&node.fp);
            }
        }
    }

    /// Drops the exemplar references an entry keyed under `fp` held: its
    /// input node and, for an edge, its output node.
    fn release_entry<T: EntryValue>(&self, fp: Fingerprint, entry: &Entry<T>) {
        self.release_node(NodeId {
            fp,
            gen: entry.input_gen,
        });
        if let Some(output) = entry.value.node() {
            self.release_node(output);
        }
    }

    /// The entry `key` holds for the exemplar generation `gen`: its owner and
    /// `read` of its value. `read` runs under the shard's read lock, where
    /// every plane value is readable — text by a refcount bump, an edge's
    /// output node off the cell the edge holds — so a hit takes no second
    /// lock but a bounded store's LRU touch.
    fn lookup<K, T, R>(
        &self,
        plane: &Plane<K, T>,
        gen: u64,
        key: (Fingerprint, K),
        read: impl FnOnce(&T) -> R,
    ) -> Option<(SessionId, R)>
    where
        K: Eq + Hash + Clone,
        T: EntryValue,
    {
        let shard = &plane[Self::shard(key.0)];
        let hit = {
            let map = shard.read().expect("corpus cache poisoned");
            map.peek(&key)?
                .iter()
                .find(|(_, e)| e.input_gen == gen)
                .map(|(_, e)| (e.owner, read(&e.value)))?
        };
        // LRU touch of exactly the entry that answered — unconfirmed bucket
        // neighbours keep their stamps and stay evictable. Only bounded
        // stores pay this write-lock acquisition; an unbounded store's hit
        // path is read-locks only.
        if self.shard_budget.is_some() {
            let now = self.now();
            shard
                .write()
                .expect("corpus cache poisoned")
                .refresh(&key, now, |e| e.input_gen == gen);
        }
        Some(hit)
    }

    /// Inserts an entry of `owner` mapping `input`'s structure, under `k`,
    /// to `value` — its exemplar references already taken — evicting
    /// least-recently-used entries past the shard budget and releasing the
    /// references they held. A warm insert ([`WARM_OWNER`]) yields to an
    /// entry already present for the same input exemplar: its references
    /// are handed back and `false` is returned, so loading into an
    /// already-warm cache is a no-op.
    fn insert<K, T>(
        &self,
        plane: &Plane<K, T>,
        owner: SessionId,
        input: NodeId,
        k: K,
        value: T,
    ) -> bool
    where
        K: Eq + Hash + Clone,
        T: EntryValue,
    {
        let key = (input.fp, k);
        let entry = Entry {
            owner,
            input_gen: input.gen,
            value,
        };
        let now = self.now();
        let evicted = {
            let mut map = plane[Self::shard(input.fp)]
                .write()
                .expect("corpus cache poisoned");
            let present = |bucket: &Vec<(u64, Entry<T>)>| {
                bucket.iter().any(|(_, e)| e.input_gen == input.gen)
            };
            if owner == WARM_OWNER && map.peek(&key).is_some_and(present) {
                drop(map);
                self.release_entry(input.fp, &entry);
                return false;
            }
            map.insert(key, entry, now, self.shard_budget)
        };
        self.evictions.fetch_add(evicted.len(), Ordering::Relaxed);
        for ((fp, _), entry) in evicted {
            self.release_entry(fp, &entry);
        }
        true
    }

    /// Inserts one restored entry under [`WARM_OWNER`]. Counts no work:
    /// nothing ran. Returns whether it landed (`false`: an entry was already
    /// present), or `None` when a node it names is gone — a bounded budget
    /// reclaimed it since the load interned it — and the entry is skipped:
    /// an entry is never inserted dangling, so an edge in the plane always
    /// holds its output exemplar.
    fn insert_warm<K, T>(&self, plane: &Plane<K, T>, input: NodeId, k: K, value: T) -> Option<bool>
    where
        K: Eq + Hash + Clone,
        T: EntryValue,
    {
        // References are taken before the entry lands so eviction of
        // *other* entries can never reclaim these nodes out from under it;
        // on the dedupe path they are handed back.
        if !self.add_node_ref(input) {
            return None;
        }
        if let Some(output) = value.node() {
            if !self.add_node_ref(output) {
                self.release_node(input);
                return None;
            }
        }
        Some(self.insert(plane, WARM_OWNER, input, k, value))
    }

    /// Declares the platform-personality names this process can recompute
    /// static analyses for. A persisted analysis under any other name is
    /// skipped at load time (counted in `warm_entries_skipped`) — the
    /// forward-compatibility rule unknown backends already follow. Idempotent
    /// and additive; call before [`CorpusCache::load`].
    pub fn register_personalities(&self, names: &[&'static str]) {
        let mut known = self.personalities.write().expect("corpus cache poisoned");
        for name in names {
            if !known.contains(name) {
                known.push(name);
            }
        }
    }

    /// The registered name equal to `name`, if it was declared through
    /// [`CorpusCache::register_personalities`]: how a persisted name becomes
    /// an analysis-plane key.
    pub(crate) fn registered_personality(&self, name: &str) -> Option<&'static str> {
        self.personalities
            .read()
            .expect("corpus cache poisoned")
            .iter()
            .find(|k| **k == name)
            .copied()
    }

    /// Looks up the memoised static-analysis report of `state` for
    /// `personality`. Mirrors [`CacheStore::emission`] — keyed by node,
    /// shared-allocation handout, warm attribution from the entry's owner,
    /// LRU touch on bounded stores — except that it books no cross-session
    /// hits, so it takes no session.
    pub fn analysis(&self, personality: &'static str, state: &Node) -> Option<Arc<str>> {
        let key = (state.id.fp, personality);
        let (owner, text) = self.lookup(&self.analyses, state.id.gen, key, Arc::clone)?;
        self.hit(Hit::Analysis);
        if owner == WARM_OWNER {
            self.hit(Hit::WarmAnalysis);
        }
        Some(text)
    }

    /// Records a freshly computed static-analysis report (serialised JSON)
    /// for `(state, personality)`, owned by `session`, and counts the walk
    /// in `static_analyses`.
    pub fn record_analysis(
        &self,
        session: SessionId,
        personality: &'static str,
        state: &Snapshot,
        text: Arc<str>,
    ) {
        self.static_analyses.fetch_add(1, Ordering::Relaxed);
        let (node, _) = self.intern_node(state, |e| e.refs += 1);
        self.insert(&self.analyses, session, node.id, personality, text);
    }

    /// Interns `snapshot` and pins its node: one permanent reference, so no
    /// bounded budget ever reclaims it and its generation never changes. The
    /// handle reads the node with its current clean mask and takes no
    /// exemplar lock to do it. Pin what a caller keeps and walks from for
    /// the cache's lifetime, such as the compile service's bases; each call
    /// pins once more.
    pub fn pin(&self, snapshot: Snapshot) -> Pinned {
        let (cell, ir) = self.intern_node(&snapshot, |e| e.pins += 1);
        Pinned {
            state: Snapshot {
                ir,
                fp: snapshot.fp,
            },
            cell,
        }
    }
}

/// A pinned node ([`CorpusCache::pin`]): the canonical snapshot of one
/// interned structure, and its [`Node`] read off the exemplar's shared
/// clean-stage cell, with no lock. The pin is permanent, so the node stays
/// in the store — with the same generation — for the cache's lifetime.
#[derive(Debug, Clone)]
pub struct Pinned {
    state: Snapshot,
    cell: NodeCell,
}

impl Pinned {
    /// The node's canonical snapshot: the exemplar's shared allocation.
    pub fn snapshot(&self) -> &Snapshot {
        &self.state
    }

    /// The node, with its clean-stage mask as of now.
    pub fn node(&self) -> Node {
        self.cell.node()
    }
}

impl CacheStore for CorpusCache {
    fn register_session(&self) -> SessionId {
        self.sessions.fetch_add(1, Ordering::Relaxed)
    }

    fn intern(&self, snapshot: Snapshot) -> Snapshot {
        let (_, ir) = self.intern_node(&snapshot, |_| {});
        Snapshot {
            ir,
            fp: snapshot.fp,
        }
    }

    fn node(&self, snapshot: &Snapshot) -> Node {
        self.resolve_node(snapshot)
            .unwrap_or_else(|| Node::unknown(snapshot.fp))
    }

    fn fetch(&self, node: &Node) -> Option<Arc<Shader>> {
        let id = node.id;
        let map = self.exemplars[Self::shard(id.fp)]
            .read()
            .expect("corpus cache poisoned");
        let exemplar = map.get(&id.fp)?.iter().find(|e| e.gen == id.gen)?;
        Some(Arc::clone(&exemplar.ir))
    }

    fn note_identity_skips(&self, skips: usize) {
        self.hits.add(Hit::Stage as usize, skips);
        self.hits.add(Hit::Identity as usize, skips);
        prism_ir::counters::count_identity_transitions(skips);
    }

    fn transition(&self, session: SessionId, stage: usize, input: &Node) -> Option<Node> {
        let key = (input.id.fp, stage);
        let (owner, output) = self.lookup(&self.transitions, input.id.gen, key, NodeCell::node)?;
        self.hit_by(
            owner,
            session,
            Hit::Stage,
            Hit::WarmStage,
            Hit::CrossShaderStage,
        );
        Some(output)
    }

    fn record_transition(
        &self,
        session: SessionId,
        stage: usize,
        input: Snapshot,
        output: Snapshot,
    ) -> (Node, Arc<Shader>) {
        self.stage_runs.fetch_add(1, Ordering::Relaxed);
        if stage < MASK_STAGES && is_identity(&input, &output) {
            // One bit instead of an edge: every future replay of this stage
            // over this structure is a mask read, through every edge into it
            // too.
            let (cell, ir) = self.intern_node(&input, |e| {
                e.clean.fetch_or(1 << stage, Ordering::Relaxed);
            });
            return (cell.node(), ir);
        }
        let (in_node, _) = self.intern_node(&input, |e| e.refs += 1);
        let (out_cell, out_ir) = self.intern_node(&output, |e| e.refs += 1);
        let out_node = out_cell.node();
        self.insert(&self.transitions, session, in_node.id, stage, out_cell);
        (out_node, out_ir)
    }

    fn emission(&self, session: SessionId, backend: BackendKind, state: &Node) -> Option<Arc<str>> {
        let key = (state.id.fp, backend);
        let (owner, text) = self.lookup(&self.emissions, state.id.gen, key, Arc::clone)?;
        self.hit_by(
            owner,
            session,
            Hit::Emission,
            Hit::WarmEmission,
            Hit::CrossShaderEmission,
        );
        Some(text)
    }

    fn record_emission(
        &self,
        session: SessionId,
        backend: BackendKind,
        state: &Snapshot,
        text: Arc<str>,
    ) {
        self.emissions_done.fetch_add(1, Ordering::Relaxed);
        self.emissions_by_backend[backend.index()].fetch_add(1, Ordering::Relaxed);
        let (node, _) = self.intern_node(state, |e| e.refs += 1);
        self.insert(&self.emissions, session, node.id, backend, text);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            sessions: self.sessions.load(Ordering::Relaxed) as usize,
            stage_runs: self.stage_runs.load(Ordering::Relaxed),
            stage_hits: self.hits(Hit::Stage),
            identity_transitions: self.hits(Hit::Identity),
            cross_shader_stage_hits: self.hits(Hit::CrossShaderStage),
            emissions: self.emissions_done.load(Ordering::Relaxed),
            emissions_by_backend: std::array::from_fn(|i| {
                self.emissions_by_backend[i].load(Ordering::Relaxed)
            }),
            emission_hits: self.hits(Hit::Emission),
            cross_shader_emission_hits: self.hits(Hit::CrossShaderEmission),
            evictions: self.evictions.load(Ordering::Relaxed),
            warm_stage_hits: self.hits(Hit::WarmStage),
            warm_emission_hits: self.hits(Hit::WarmEmission),
            warm_entries_loaded: self.warm_entries_loaded.load(Ordering::Relaxed),
            warm_shards_loaded: self.warm_shards_loaded.load(Ordering::Relaxed),
            warm_shards_skipped: self.warm_shards_skipped.load(Ordering::Relaxed),
            warm_entries_skipped: self.warm_entries_skipped.load(Ordering::Relaxed),
            static_analyses: self.static_analyses.load(Ordering::Relaxed),
            analysis_memo_hits: self.hits(Hit::Analysis),
            warm_analysis_hits: self.hits(Hit::WarmAnalysis),
            warm_verify_rejects: self.warm_verify_rejects.load(Ordering::Relaxed),
            routed_requests: self.hits(Hit::Routed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{walk_stages, SessionStats, Walk};
    use prism_ir::fingerprint::{fingerprint, Fingerprint};
    use prism_ir::prelude::*;
    use std::convert::Infallible;

    /// What a one-stage walk from `input` answers for `stage`: the output
    /// state — `input` itself for a clean stage, booked as one identity
    /// skip — or `None` when the graph cannot answer it.
    pub(super) fn transition<S: CacheStore + ?Sized>(
        store: &S,
        session: SessionId,
        stage: usize,
        input: &Snapshot,
    ) -> Option<Snapshot> {
        let mut walk = Walk::new(store, input);
        let start = walk.node();
        let answered = walk.answer(store, session, stage, &mut SessionStats::default());
        walk.settle(store);
        if !answered {
            return None;
        }
        let output = walk.node();
        if output == start {
            return Some(input.clone());
        }
        Some(Snapshot {
            ir: store.fetch(&output)?,
            fp: output.fingerprint(),
        })
    }

    fn snapshot(seed: u32) -> Snapshot {
        let mut s = Shader::new("cache-test");
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
                    value: Operand::float(seed as f64),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        let fp = fingerprint(&s);
        Snapshot {
            ir: Arc::new(s),
            fp,
        }
    }

    fn exercise(store: &dyn CacheStore) {
        let s1 = store.register_session();
        let s2 = store.register_session();
        assert_ne!(s1, s2);

        let input = snapshot(1);
        let output = snapshot(2);
        assert!(transition(store, s1, 0, &input).is_none());
        store.record_transition(s1, 0, input.clone(), output.clone());
        // Same-session hit.
        let hit = transition(store, s1, 0, &input).expect("hit");
        assert!(Arc::ptr_eq(&hit.ir, &output.ir));
        // Cross-session hit — and a structurally-equal but distinct Arc still
        // confirms.
        let equal_input = Snapshot {
            ir: Arc::new((*input.ir).clone()),
            fp: input.fp,
        };
        assert!(transition(store, s2, 0, &equal_input).is_some());
        // A different stage index misses.
        assert!(transition(store, s2, 1, &input).is_none());

        let text: Arc<str> = Arc::from("void main() {}");
        assert!(store
            .emission(s1, BackendKind::Gles, &store.node(&input))
            .is_none());
        store.record_emission(s1, BackendKind::Gles, &input, Arc::clone(&text));
        let hit = store
            .emission(s2, BackendKind::Gles, &store.node(&input))
            .expect("hit");
        assert_eq!(&*hit, &*text);
        // The hit is the shared allocation, not a copy of the body.
        assert!(Arc::ptr_eq(&hit, &text));
        // Backends do not alias each other's entries.
        assert!(store
            .emission(s1, BackendKind::DesktopGlsl, &store.node(&input))
            .is_none());

        let stats = store.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.stage_runs, 1);
        assert_eq!(stats.stage_hits, 2);
        assert_eq!(stats.cross_shader_stage_hits, 1);
        assert_eq!(stats.identity_transitions, 0);
        assert_eq!(stats.emissions, 1);
        assert_eq!(
            stats.emissions_by_backend[BackendKind::Gles.index()],
            1,
            "the one emission was a GLES one"
        );
        assert_eq!(
            stats.emissions_by_backend.iter().sum::<usize>(),
            stats.emissions
        );
        assert_eq!(stats.emission_hits, 1);
        assert_eq!(stats.cross_shader_emission_hits, 1);
        assert_eq!(stats.evictions, 0);
        assert!(stats.stage_hit_rate() > 0.6);
    }

    /// The identity-transition contract: a recorded
    /// identity becomes a mask bit, the mask answers O(1), and the answer is
    /// the very snapshot asked about (zero-copy, zero confirmation).
    fn exercise_identity(store: &dyn CacheStore) {
        let s1 = store.register_session();
        let input = store.intern(snapshot(7));

        // Unknown structure: no identity knowledge, no transition.
        assert_eq!(store.node(&snapshot(8)).clean, 0);
        assert!(transition(store, s1, 3, &input).is_none());

        // Recording input → input (same Arc) stores a mask bit, not an edge.
        store.record_transition(s1, 3, input.clone(), input.clone());
        assert_eq!(store.node(&input).clean, 1 << 3);

        // The mask answers the lookup with the queried snapshot itself —
        // same allocation, so zero IR clones by construction. (The global
        // `prism_ir::counters` are process-wide and other tests run
        // concurrently, so per-store zero-delta asserts live in the perf
        // gate, not here.)
        let hit = transition(store, s1, 3, &input).expect("identity hit");
        assert!(Arc::ptr_eq(&hit.ir, &input.ir));

        // A structurally-equal but distinct Arc still resolves to the mask.
        let equal = Snapshot {
            ir: Arc::new((*input.ir).clone()),
            fp: input.fp,
        };
        assert_eq!(store.node(&equal).clean, 1 << 3);
        assert!(transition(store, s1, 3, &equal).is_some());

        // Other stages are unaffected; mask-skip notes land in the stats.
        assert!(transition(store, s1, 4, &input).is_none());
        store.note_identity_skips(2);
        let stats = store.stats();
        assert_eq!(stats.identity_transitions, 4);
        assert!(stats.stage_hits >= stats.identity_transitions);
    }

    #[test]
    fn corpus_cache_stores_and_confirms() {
        exercise(&CorpusCache::new());
    }

    #[test]
    fn corpus_cache_collapses_identity_transitions() {
        exercise_identity(&CorpusCache::new());
    }

    #[test]
    fn interning_returns_the_first_seen_allocation() {
        let cache = CorpusCache::new();
        let first = cache.intern(snapshot(1));
        let second = cache.intern(Snapshot {
            ir: Arc::new((*first.ir).clone()),
            fp: first.fp,
        });
        assert!(
            Arc::ptr_eq(&first.ir, &second.ir),
            "structurally equal snapshots must share one exemplar"
        );
        assert_eq!(cache.exemplar_count(), 1);
    }

    #[test]
    fn bounded_cache_evicts_lru_and_stays_within_budget() {
        // The smallest enforceable budget: one entry per edge and emission
        // shard map, and the analysis plane's same per-shard slice on top.
        let cache = CorpusCache::bounded(32);
        assert_eq!(cache.budget(), Some(32));
        let ceiling = 32 + SHARDS;
        let id = cache.register_session();

        // Far more distinct entries of every plane than the budget allows,
        // each plane keyed on its own states.
        for seed in 0..200u32 {
            let input = snapshot(seed);
            let output = snapshot(seed + 1000);
            if transition(&cache, id, 0, &input).is_none() {
                cache.record_transition(id, 0, input, output);
            }
            let text = Arc::from(format!("// {seed}"));
            cache.record_emission(id, BackendKind::Gles, &snapshot(seed + 2000), text);
            let report = Arc::from(format!("{{\"seed\":{seed}}}"));
            cache.record_analysis(id, "Arm", &snapshot(seed + 3000), report);
            assert!(
                cache.entry_count() <= ceiling,
                "entry count {} exceeded budget after seed {seed}",
                cache.entry_count()
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
        assert_eq!(stats.stage_runs, 200);
        assert_eq!(stats.emissions, 200);
        assert_eq!(stats.static_analyses, 200);

        // Eviction reclaims the exemplars the evicted entries referenced, text
        // entries' included: the store cannot hold more structures than live
        // entries can name (two per edge, one per text entry).
        assert!(
            cache.exemplar_count() <= 2 * cache.entry_count(),
            "{} exemplars outlive {} entries",
            cache.exemplar_count(),
            cache.entry_count()
        );

        // Eviction is transparent: an evicted key simply misses and can be
        // recomputed; a key just recorded (most recently used) still hits.
        let fresh = snapshot(5000);
        cache.record_transition(id, 0, fresh.clone(), snapshot(5001));
        assert!(transition(&cache, id, 0, &fresh).is_some());
        cache.record_emission(id, BackendKind::Gles, &fresh, Arc::from("// fresh"));
        assert!(cache
            .emission(id, BackendKind::Gles, &cache.node(&fresh))
            .is_some());
        cache.record_analysis(id, "Arm", &fresh, Arc::from("{}"));
        assert!(cache.analysis("Arm", &cache.node(&fresh)).is_some());
    }

    #[test]
    fn lru_touch_refreshes_only_the_structurally_confirmed_entry() {
        // Two entries per shard map (64 / (2 * SHARDS)).
        let cache = CorpusCache::bounded(64);
        let id = cache.register_session();

        // Two structurally different inputs forced into one bucket by
        // stamping the same fingerprint — collisions are legal (fingerprints
        // are candidates, not proofs), and before the fix a hit on either
        // entry refreshed the whole bucket, making colliding neighbours
        // unevictable.
        let a = snapshot(1);
        let neighbour = Snapshot {
            ir: snapshot(2).ir,
            fp: a.fp,
        };
        cache.record_transition(id, 0, a.clone(), snapshot(100));
        cache.record_transition(id, 0, neighbour.clone(), snapshot(101));

        // Repeated hits on `a` must not refresh the unconfirmed neighbour.
        for _ in 0..4 {
            assert!(transition(&cache, id, 0, &a).is_some());
        }

        // A third entry in the same shard map exceeds the two-entry budget:
        // the untouched neighbour is now the least-recently-used entry and
        // must be the one evicted, not the hot `a` or the fresh entry.
        let crowd = Snapshot {
            ir: snapshot(3).ir,
            fp: Fingerprint(a.fp.0.wrapping_add(SHARDS as u128)),
        };
        cache.record_transition(id, 0, crowd.clone(), snapshot(102));
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            transition(&cache, id, 0, &a).is_some(),
            "the repeatedly-confirmed entry must survive eviction"
        );
        assert!(
            transition(&cache, id, 0, &neighbour).is_none(),
            "the never-confirmed colliding neighbour must have been evicted"
        );
        assert!(transition(&cache, id, 0, &crowd).is_some());
    }

    #[test]
    fn a_clean_bit_recorded_after_an_edge_is_a_mask_skip_through_it() {
        let cache = CorpusCache::new();
        let id = cache.register_session();
        let x = cache.intern(snapshot(1));
        // The edge X → Y lands while Y's mask is still empty ...
        let (y, _) = cache.record_transition(id, 0, x.clone(), snapshot(2));
        assert_eq!(y.clean, 0);
        // ... and only then does stage 1 turn out to leave Y unchanged.
        let y_state = Snapshot {
            ir: cache.fetch(&y).expect("the edge holds its output"),
            fp: y.fingerprint(),
        };
        cache.record_transition(id, 1, y_state.clone(), y_state.clone());

        // The next walk from X answers stage 0 by the edge and takes stage 1
        // off the mask it reads through that edge: no lookup, no run.
        let before = cache.stats();
        let stages = [(0, ()), (1, ())];
        let untouched = |(), _: &mut Shader| Ok::<bool, Infallible>(false);
        let (node, state) = walk_stages(
            &cache,
            id,
            &x,
            stages,
            &mut SessionStats::default(),
            untouched,
        )
        .unwrap_or_else(|never| match never {});
        assert_eq!(node.clean, 1 << 1);
        assert!(Arc::ptr_eq(&state.ir, &y_state.ir));
        let after = cache.stats();
        assert_eq!(after.identity_transitions, before.identity_transitions + 1);
        assert_eq!(after.stage_runs, before.stage_runs);
    }

    #[test]
    fn a_pinned_node_survives_a_budget_that_evicts_everything_around_it() {
        // One entry per edge shard map.
        let cache = CorpusCache::bounded(32);
        let id = cache.register_session();
        let pinned = cache.pin(snapshot(1));
        let loose = cache.intern(snapshot(2));
        cache.record_transition(id, 0, pinned.snapshot().clone(), snapshot(3));
        cache.record_transition(id, 0, loose.clone(), snapshot(4));
        let node = pinned.node();
        let loose_node = cache.node(&loose);
        for seed in 100..1100 {
            cache.record_transition(id, 0, snapshot(seed), snapshot(seed + 5000));
        }
        assert!(
            transition(&cache, id, 0, pinned.snapshot()).is_none(),
            "the pinned node's edge was not evicted"
        );
        assert!(
            cache.fetch(&loose_node).is_none(),
            "the unpinned node was not reclaimed"
        );
        let ir = cache.fetch(&node).expect("the pinned node is held");
        assert!(Arc::ptr_eq(&ir, &pinned.snapshot().ir));
        assert_eq!(cache.node(pinned.snapshot()), node, "same generation");
        assert_eq!(pinned.node(), node);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CorpusCache::new();
        assert_eq!(cache.budget(), None);
        let id = cache.register_session();
        for seed in 0..100u32 {
            cache.record_transition(id, 0, snapshot(seed), snapshot(seed + 1000));
        }
        assert_eq!(cache.entry_count(), 100);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn shard_of_agrees_with_the_cache_lock_split() {
        for seed in 0..64u32 {
            let snap = snapshot(seed);
            assert_eq!(shard_of(snap.fp), CorpusCache::shard(snap.fp));
            assert!(shard_of(snap.fp) < FINGERPRINT_SHARDS);
        }
    }

    /// Satellite regression test for the read-path lock split: many threads
    /// hammering the emission memo with pure hits (plus a few writers) must
    /// observe byte-identical text — and the same shared allocation — as a
    /// sequential reader, on both bounded and unbounded stores.
    #[test]
    fn emission_reads_are_byte_identical_under_a_multithreaded_hammer() {
        for budget in [None, Some(64)] {
            let cache = Arc::new(CorpusCache::with_budget(budget));
            let writer = cache.register_session();
            let states: Vec<Snapshot> = (0..8).map(snapshot).collect();
            let texts: Vec<Arc<str>> = (0..8)
                .map(|i| Arc::from(format!("// emission {i}\nvoid main() {{}}").as_str()))
                .collect();
            for (state, text) in states.iter().zip(&texts) {
                cache.record_emission(writer, BackendKind::Msl, state, Arc::clone(text));
            }

            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    let states = states.clone();
                    let texts = texts.clone();
                    std::thread::spawn(move || {
                        let id = cache.register_session();
                        for round in 0..200 {
                            let i = (t + round) % states.len();
                            match cache.emission(id, BackendKind::Msl, &cache.node(&states[i])) {
                                Some(hit) => {
                                    assert_eq!(&*hit, &*texts[i], "torn read on entry {i}");
                                }
                                // Bounded stores may have evicted the entry;
                                // a miss is recomputed, never wrong.
                                None => {
                                    cache.record_emission(
                                        id,
                                        BackendKind::Msl,
                                        &states[i],
                                        Arc::clone(&texts[i]),
                                    );
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // Sequential replay after the hammer still confirms structurally
            // and shares the allocation (unbounded case: nothing evicted).
            if budget.is_none() {
                for (state, text) in states.iter().zip(&texts) {
                    let hit = cache
                        .emission(writer, BackendKind::Msl, &cache.node(state))
                        .expect("unbounded entries never evict");
                    assert!(Arc::ptr_eq(&hit, text));
                }
            }
        }
    }

    #[test]
    fn corpus_cache_is_safe_under_concurrent_sessions() {
        let cache = Arc::new(CorpusCache::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let id = cache.register_session();
                    for stage in 0..8 {
                        let input = snapshot(stage);
                        let output = snapshot(stage + 1);
                        if transition(&*cache, id, stage as usize, &input).is_none() {
                            cache.record_transition(id, stage as usize, input, output);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.sessions, 4);
        assert_eq!(stats.stage_runs + stats.stage_hits, 32);
        // Every distinct (stage, input) ran at most once... unless two threads
        // raced the same miss, which the cache tolerates (both record; lookups
        // confirm equality, so correctness is unaffected).
        assert!(stats.stage_runs >= 8);
    }
}
