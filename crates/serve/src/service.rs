//! The compile service.
//!
//! One [`CompileService`] owns a [`CorpusCache`] and serves every
//! [`CompileRequest`] on its caller's thread, in this order:
//!
//! 1. **route** — the source text goes through a shared *lower-once front
//!    stage*: [`prism_core::front`](fn@prism_core::front) in the desktop GLSL
//!    form (preprocess + parse + lower + verify, the GLSL drivers' own front
//!    door), memoised per source text. The route step reads the base IR's
//!    graph [`Node`] under the front memo's read lock and takes no IR
//!    handle; only a leader clones the base [`Snapshot`]. The node's
//!    [`Fingerprint`] keys every later step; the cache splits its locks 16
//!    ways on it ([`prism_core::shard_of`]) — the same split the warm-start
//!    snapshot files use, so a request's shard survives restarts without
//!    re-keying;
//! 2. **memo** — the calling thread walks the pass schedule over the shared
//!    [`CorpusCache`] lookup-only, node to node ([`Walk`]): the
//!    specialized-base memo, the stage transitions, the emitted text and
//!    (when asked for) the static analysis are answered whenever an
//!    equivalent request (or a warm-start snapshot) already paid for them.
//!    An answered stage is one edge-plane read plus one exemplar read for
//!    the output's clean mask, and the emission and analysis lookups key by
//!    the walk's final node; no `Arc<Shader>` is cloned. A request the memo
//!    answers completely **ends here** ([`ServiceStats::memo_answered`]): it
//!    never coalesces, and its body is the memo's shared `Arc<str>` handle —
//!    a refcount bump, never a copy. The counters such a request bumps
//!    (`requests`, `front_hits`, `memo_answered`, `zero_copy_hits`, and the
//!    cache's hit and `routed_requests` counters) are striped per thread
//!    ([`Striped`]) and summed by [`CompileService::stats`], so concurrent
//!    hits write no shared counter line;
//! 3. **coalesce** — only a request the memo missed enters the singleflight
//!    table keyed `(fingerprint, flags, backend, analysis, spec)`: one leader
//!    compiles, every waiter blocks on the same flight and receives the same
//!    `Arc`'d result ([`CacheStats::coalesced_requests`] counts the merged
//!    ones);
//! 4. **run** — the leader resumes the caller's walk at the stage it missed
//!    (no stage the caller answered is looked up again) from the base
//!    snapshot, fetching IR only for the stages it runs and the final state,
//!    runs the passes, emitter and analysis the memo lacked, and records
//!    them for every later request. Leaders of different keys run in parallel; two that miss the
//!    same stage of one state may both run it, and the transition memo keeps
//!    one result. The test compute hook runs here, so only for leaders.

use prism_core::cache::SessionId;
use prism_core::specialize::default_probe_points;
use prism_core::{
    build_schedule, emit_memoised, specialize_shader, CacheStats, CacheStore, CorpusCache, Node,
    OptFlags, SessionStats, Snapshot, SpecKey, Stage, Walk,
};
use prism_emit::BackendKind;
use prism_gpu::Vendor;
use prism_ir::counters::Striped;
use prism_ir::fingerprint::Fingerprint;
use prism_ir::hash::fnv64;
use prism_ir::interp::{results_exactly_equal, run_fragment};
use prism_ir::verify::verify;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// The pass schedule, instantiated once per thread: `Stage` holds boxed
/// passes without `Send + Sync` bounds, so each thread that compiles owns
/// its own (deterministic) copy instead of sharing one behind a lock.
fn with_schedule<R>(f: impl FnOnce(&[Stage]) -> R) -> R {
    thread_local! {
        static SCHEDULE: Vec<Stage> = build_schedule();
    }
    SCHEDULE.with(|s| f(s))
}

/// The stages `flags` enables, as `(stage id, stage)` pairs in schedule
/// order: the one stage list a request's walk takes, on the calling thread
/// and in its leader.
fn enabled(schedule: &[Stage], flags: OptFlags) -> impl Iterator<Item = (usize, &Stage)> + Clone {
    schedule
        .iter()
        .enumerate()
        .filter(move |(_, stage)| stage.enabled_for(flags))
}

/// The deterministic name the service gives an anonymous source text — used
/// for the lowered IR and as the tune tenant's measurement identity.
pub(crate) fn source_name(source: &str) -> String {
    format!("serve-{:016x}", fnv64(source.as_bytes()))
}

/// Service configuration.
///
/// Marked `#[non_exhaustive]`: construct with [`ServeConfig::default`] and
/// the `with_*` setters, so future knobs are not breaking changes.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Warm-start directory: loaded on boot ([`CorpusCache::load`]) and
    /// snapshotted on [`CompileService::shutdown`] ([`CorpusCache::save`]).
    pub warm_start_dir: Option<PathBuf>,
    /// Entry budget for the underlying cache (`None` = unbounded).
    pub cache_budget: Option<usize>,
}

impl ServeConfig {
    /// This config with a warm-start snapshot directory.
    pub fn with_warm_start_dir(mut self, dir: impl Into<PathBuf>) -> ServeConfig {
        self.warm_start_dir = Some(dir.into());
        self
    }

    /// This config with a bounded cache-entry budget.
    pub fn with_cache_budget(mut self, budget: usize) -> ServeConfig {
        self.cache_budget = Some(budget);
        self
    }
}

/// What a request asks to be compiled to: a backend identity, or a named
/// target *form* resolved by [`BackendKind::resolve`] (so a request may say
/// `"metal"` or `"essl"` without knowing which emitter serves it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestTarget {
    /// A direct backend identity.
    Kind(BackendKind),
    /// A named form, resolved by alias fall-through.
    Named(String),
}

/// One compile request: source text, flag combination, emission target, and
/// an optional static-analysis personality whose report rides the response.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// GLSL source text.
    pub source: String,
    /// Optimization flag combination.
    pub flags: OptFlags,
    /// Emission target.
    pub target: RequestTarget,
    /// When set, the response also carries the platform personality's
    /// static-analysis report (cost model + lints) for the optimized IR,
    /// memoised per `(fingerprint, personality)` exactly like emitted text.
    pub analyze: Option<Vendor>,
    /// Uniform-value assumptions to compile under (the `(flags, spec)`
    /// variant axis). The general key — the default — is the ordinary
    /// unspecialized compile; a non-general key substitutes the assumed
    /// constants into the base IR, folds, interp-verifies the fold against
    /// the general base, and runs the flag schedule from the specialized
    /// base. The response's `text` is then only valid while the assumptions
    /// hold — callers pair it with a general compile behind a guard.
    pub specialize: SpecKey,
}

impl CompileRequest {
    /// A request for a direct backend.
    pub fn new(source: impl Into<String>, flags: OptFlags, backend: BackendKind) -> CompileRequest {
        CompileRequest {
            source: source.into(),
            flags,
            target: RequestTarget::Kind(backend),
            analyze: None,
            specialize: SpecKey::general(),
        }
    }

    /// A request for a named target form (see [`BackendKind::resolve`]).
    pub fn named(source: impl Into<String>, flags: OptFlags, form: &str) -> CompileRequest {
        CompileRequest {
            source: source.into(),
            flags,
            target: RequestTarget::Named(form.to_string()),
            analyze: None,
            specialize: SpecKey::general(),
        }
    }

    /// A builder over `source` — the one construction path the tune
    /// endpoint, the load generator and the demo binary share. Defaults: no
    /// flags, desktop GLSL, no analysis, general (unspecialized).
    pub fn builder(source: impl Into<String>) -> CompileRequestBuilder {
        CompileRequestBuilder {
            source: source.into(),
            flags: OptFlags::NONE,
            target: RequestTarget::Kind(BackendKind::DesktopGlsl),
            analyze: None,
            specialize: SpecKey::general(),
        }
    }
}

/// Builder for [`CompileRequest`]; see [`CompileRequest::builder`].
#[derive(Debug, Clone)]
pub struct CompileRequestBuilder {
    source: String,
    flags: OptFlags,
    target: RequestTarget,
    analyze: Option<Vendor>,
    specialize: SpecKey,
}

impl CompileRequestBuilder {
    /// Sets the optimization flag combination (default: none).
    pub fn flags(mut self, flags: OptFlags) -> CompileRequestBuilder {
        self.flags = flags;
        self
    }

    /// Compiles under uniform-value assumptions (default: general).
    pub fn specialize(mut self, spec: SpecKey) -> CompileRequestBuilder {
        self.specialize = spec;
        self
    }

    /// Targets a direct backend (default: desktop GLSL).
    pub fn backend(mut self, backend: BackendKind) -> CompileRequestBuilder {
        self.target = RequestTarget::Kind(backend);
        self
    }

    /// Also requests the platform personality's static-analysis report
    /// (default: none).
    pub fn analyze(mut self, vendor: Vendor) -> CompileRequestBuilder {
        self.analyze = Some(vendor);
        self
    }

    /// Finishes the request.
    pub fn build(self) -> CompileRequest {
        CompileRequest {
            source: self.source,
            flags: self.flags,
            target: self.target,
            analyze: self.analyze,
            specialize: self.specialize,
        }
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The front stage rejected the source (preprocess/parse/lower/verify).
    Frontend(String),
    /// No backend serves the requested form.
    UnknownTarget(String),
    /// A pass broke IR invariants mid-compile (internal bug).
    Compile(String),
    /// The request's specialization key does not apply to the source (bad
    /// slot / unsupported type), or the specialized fold failed its
    /// differential interp verification against the general base.
    Specialize(String),
    /// The compile panicked twice (once plus one retry); waiters receive
    /// this error rather than hanging.
    Panicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Frontend(e) => write!(f, "front stage: {e}"),
            ServeError::UnknownTarget(t) => write!(f, "no backend serves target `{t}`"),
            ServeError::Compile(e) => write!(f, "compile: {e}"),
            ServeError::Specialize(e) => write!(f, "specialize: {e}"),
            ServeError::Panicked(e) => write!(f, "compile panicked: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served compile.
#[derive(Debug, Clone)]
pub struct CompileResponse {
    /// The emitted text — the emission memo's shared handle (zero-copy).
    pub text: Arc<str>,
    /// The backend that produced `text` (after target resolution).
    pub backend: BackendKind,
    /// `true` when the request named a form without a direct emitter and
    /// fell through to a backend's alias ([`BackendKind::serves`]).
    pub chain_fallback: bool,
    /// Structural fingerprint of the optimized IR behind `text`.
    pub fingerprint: Fingerprint,
    /// The work this request cost the service — its work-counter latency
    /// breakdown. A coalesced waiter reports the leader's work, because that
    /// is the work its response cost.
    pub work: SessionStats,
    /// `true` when the memo missed and this request coalesced onto an
    /// identical in-flight compile instead of compiling on its own. A
    /// request the memo answers completely never coalesces: it returns
    /// from the calling thread without entering the flight table.
    pub coalesced: bool,
    /// `true` when the body was answered by the emission memo (no emitter
    /// ran for this request).
    pub zero_copy: bool,
    /// The requested personality's static-analysis report as machine-
    /// readable JSON (`prism_analyze::StaticReport::from_json` parses it) —
    /// the analysis memo's shared handle, present iff the request set
    /// [`CompileRequest::analyze`].
    pub analysis: Option<Arc<str>>,
}

/// Singleflight key: requests agreeing on all five coalesce onto one
/// compile. (`SpecKey` is `Arc`-backed, so the key is `Clone`-cheap but no
/// longer `Copy`.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FlightKey {
    fp: Fingerprint,
    flags: OptFlags,
    backend: BackendKind,
    analyze: Option<Vendor>,
    spec: SpecKey,
}

/// What a completed flight hands every merged request.
#[derive(Debug, Clone)]
struct Served {
    text: Arc<str>,
    fp: Fingerprint,
    work: SessionStats,
    zero_copy: bool,
    analysis: Option<Arc<str>>,
}

/// One in-flight compile. `state` moves `None → Some(result)` exactly once;
/// the condvar wakes every waiter at that moment.
struct Flight {
    state: Mutex<Option<Result<Served, ServeError>>>,
    cv: Condvar,
    waiters: AtomicUsize,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    fn complete(&self, result: Result<Served, ServeError>) {
        let mut state = self.state.lock().expect("flight poisoned");
        if state.is_none() {
            *state = Some(result);
        }
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Served, ServeError> {
        let mut state = self.state.lock().expect("flight poisoned");
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self.cv.wait(state).expect("flight poisoned");
        }
    }
}

/// Probe handed to the test-only compute hook: visibility into the flight
/// being computed, without exposing `Flight` itself.
#[doc(hidden)]
pub struct FlightProbe<'a> {
    flight: &'a Flight,
}

impl FlightProbe<'_> {
    /// Requests currently coalesced onto this flight.
    pub fn waiters(&self) -> usize {
        self.flight.waiters.load(Ordering::SeqCst)
    }
}

#[doc(hidden)]
pub type ComputeHook = Box<dyn Fn(&FlightProbe<'_>) + Send + Sync>;

/// Where the calling thread's memo walk stopped: the leader's job picks up
/// there, so none of the stages the caller answered is looked up again.
enum Resume {
    /// The specialized base of the request's base is not memoised: derive
    /// it, then walk every stage.
    Specialize,
    /// The transition graph could not answer the walk's next stage: walk on
    /// from it.
    Stage(Walk),
    /// Every stage was answered and the walk stands at the final node; the
    /// emission memo missed (`text` is `None`) or only the analysis memo
    /// did.
    Done { walk: Walk, text: Option<Arc<str>> },
}

/// The service counters every request can bump, by index into
/// [`Counters::hits`].
#[derive(Clone, Copy)]
enum Hit {
    Requests,
    FrontHits,
    MemoAnswered,
    ZeroCopyHits,
}

/// Counters in [`Hit`].
const HITS: usize = Hit::ZeroCopyHits as usize + 1;

/// Monotonic service counters (everything not already owned by the cache).
#[derive(Default)]
struct Counters {
    /// Striped per thread: concurrent memo-answered requests write no
    /// shared counter line.
    hits: Striped<HITS>,
    front_lowers: AtomicUsize,
    front_errors: AtomicUsize,
    chain_fallbacks: AtomicUsize,
    compile_panics: AtomicUsize,
    retried_jobs: AtomicUsize,
    leader_requests: AtomicUsize,
    tune_requests: AtomicUsize,
    tune_measurements: AtomicUsize,
    search_compiles: AtomicUsize,
    search_candidates_pruned: AtomicUsize,
    lints_emitted: AtomicUsize,
    // The last completed tune's regret, in milli-percentage-points (an
    // integer so `ServiceStats` stays `Eq`); not monotonic.
    tune_regret_x1000: AtomicUsize,
}

impl Counters {
    fn hit(&self, counter: Hit) {
        self.hits.add(counter as usize, 1);
    }

    fn hits(&self, counter: Hit) -> usize {
        self.hits.get(counter as usize)
    }
}

/// A point-in-time snapshot of service telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests received. Each is counted in exactly one of
    /// `front_errors`, `memo_answered`, `leader_requests` and
    /// [`CacheStats::coalesced_requests`]; every one but the first kind is
    /// routed ([`CacheStats::routed_requests`]).
    pub requests: usize,
    /// Requests the memo answered completely on the calling thread — no
    /// flight or compile.
    pub memo_answered: usize,
    /// Requests whose front stage was answered from the source-text memo
    /// (a memoised rejection included).
    pub front_hits: usize,
    /// Front-stage lowers run: one per source-memo miss, whether the source
    /// lowered or was rejected.
    pub front_lowers: usize,
    /// Requests rejected before routing: an unknown target form, or a
    /// source the front stage rejects, whether lowered now or answered from
    /// the memo.
    pub front_errors: usize,
    /// Requests that named a form and fell through to a backend's alias.
    pub chain_fallbacks: usize,
    /// Response bodies answered by the emission memo's shared handle.
    pub zero_copy_hits: usize,
    /// Compile attempts that panicked (each is retried once).
    pub compile_panics: usize,
    /// Leader compiles that succeeded on their post-panic retry.
    pub retried_jobs: usize,
    /// Requests the memo missed that led a compile (the first of their key
    /// in flight).
    pub leader_requests: usize,
    /// Online-tune passes completed (`CompileService::tune*`).
    pub tune_requests: usize,
    /// Timing measurements taken across all tune passes (the online search
    /// tenant's scarce-resource spend).
    pub measurements_taken: usize,
    /// Distinct flag combinations the search tenant compiled across all
    /// tune passes. Each was an ordinary request: routed, answered by the
    /// memo when it could be, and coalesced and run otherwise.
    pub search_compiles: usize,
    /// Search candidates whose timing measurement was skipped because the
    /// static prefilter found their static cost dominated by an already-
    /// measured arm (across all tune passes).
    pub search_candidates_pruned: usize,
    /// Lints produced by fresh static analyses (memo-served reports do not
    /// re-count their lints — this tracks analysis work, not report reads).
    pub lints_emitted: usize,
    /// The last completed oracle-scored tune's final regret, in
    /// milli-percentage-points behind the exhaustive best (0 when no
    /// oracle-scored tune ran). Integer so this snapshot stays `Eq`.
    pub tune_regret_x1000: usize,
    /// The underlying cache's counters, including `routed_requests` and
    /// `coalesced_requests`.
    pub cache: CacheStats,
}

/// The compile service. See the [module docs](self) for the request
/// lifecycle; construction is [`CompileService::new`], teardown
/// [`CompileService::shutdown`] (snapshots the cache) or a plain drop (no
/// snapshot).
pub struct CompileService {
    warm_start_dir: Option<PathBuf>,
    cache: Arc<CorpusCache>,
    session: SessionId,
    /// Front-stage memo: the interned base IR of every source text seen,
    /// or its rejection.
    front: RwLock<HashMap<String, Result<Snapshot, ServeError>>>,
    /// Specialized-base memo: the substituted-folded-verified snapshot each
    /// `(base fingerprint, spec key)` pair starts its flag walk from —
    /// derived (and interp-verified against the general base) once, then a
    /// refcount bump for every later request.
    spec_bases: RwLock<HashMap<(Fingerprint, SpecKey), Snapshot>>,
    flights: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    counters: Counters,
    hook: RwLock<Option<ComputeHook>>,
    /// Per-übershader-family best-known flag sets, updated by every
    /// completed tune pass and used to warm-start the next one. The empty
    /// key `""` is the global fallback.
    best_known: Mutex<HashMap<String, OptFlags>>,
}

impl CompileService {
    /// Boots a service: builds the cache (bounded if configured) and
    /// warm-starts it from `warm_start_dir` when set.
    pub fn new(config: ServeConfig) -> CompileService {
        let cache = Arc::new(CorpusCache::with_budget(config.cache_budget));
        // Register the analysis personalities this service can answer for
        // BEFORE warm-starting: persisted analysis entries keyed by an
        // unknown personality are skipped (and counted) at load time.
        cache.register_personalities(&Vendor::ALL.map(Vendor::name));
        if let Some(dir) = &config.warm_start_dir {
            cache.load(dir);
        }
        let session = cache.register_session();
        CompileService {
            warm_start_dir: config.warm_start_dir,
            cache,
            session,
            front: RwLock::new(HashMap::new()),
            spec_bases: RwLock::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            hook: RwLock::new(None),
            best_known: Mutex::new(HashMap::new()),
        }
    }

    /// The service's shared cache (for telemetry and tests).
    pub fn cache(&self) -> &Arc<CorpusCache> {
        &self.cache
    }

    /// Current service telemetry.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            requests: c.hits(Hit::Requests),
            memo_answered: c.hits(Hit::MemoAnswered),
            front_hits: c.hits(Hit::FrontHits),
            front_lowers: c.front_lowers.load(Ordering::Relaxed),
            front_errors: c.front_errors.load(Ordering::Relaxed),
            chain_fallbacks: c.chain_fallbacks.load(Ordering::Relaxed),
            zero_copy_hits: c.hits(Hit::ZeroCopyHits),
            compile_panics: c.compile_panics.load(Ordering::Relaxed),
            retried_jobs: c.retried_jobs.load(Ordering::Relaxed),
            leader_requests: c.leader_requests.load(Ordering::Relaxed),
            tune_requests: c.tune_requests.load(Ordering::Relaxed),
            measurements_taken: c.tune_measurements.load(Ordering::Relaxed),
            search_compiles: c.search_compiles.load(Ordering::Relaxed),
            search_candidates_pruned: c.search_candidates_pruned.load(Ordering::Relaxed),
            lints_emitted: c.lints_emitted.load(Ordering::Relaxed),
            tune_regret_x1000: c.tune_regret_x1000.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Serves one request on the calling thread (blocking). See the
    /// [module docs](self) for the route → memo → coalesce → run order.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on front-stage rejection, unknown target form, or a
    /// (twice-)failing compile. Errors are results, never hangs: a panicking
    /// compile is retried once and then reported to every merged request.
    pub fn compile(&self, request: &CompileRequest) -> Result<CompileResponse, ServeError> {
        self.counters.hit(Hit::Requests);
        let (backend, chain_fallback, base) = self.route(request).inspect_err(|_| {
            self.counters.front_errors.fetch_add(1, Ordering::Relaxed);
        })?;
        // Routed: the target resolved and the front stage lowered the source.
        self.cache.note_routed_request();
        let mut work = SessionStats::default();
        let (served, coalesced) = match self.answer_from_memo(request, backend, base, &mut work) {
            Ok(served) => {
                self.counters.hit(Hit::MemoAnswered);
                self.counters.hit(Hit::ZeroCopyHits);
                (served, false)
            }
            Err(resume) => {
                let key = FlightKey {
                    fp: base.fingerprint(),
                    flags: request.flags,
                    backend,
                    analyze: request.analyze,
                    spec: request.specialize.clone(),
                };
                self.fly(&request.source, key, resume, work)?
            }
        };
        Ok(CompileResponse {
            text: served.text,
            backend,
            chain_fallback,
            fingerprint: served.fp,
            work: served.work,
            coalesced,
            zero_copy: served.zero_copy,
            analysis: served.analysis,
        })
    }

    /// Graceful shutdown: snapshots the cache to the configured warm-start
    /// directory (if any) so the next boot serves this process's work from
    /// disk.
    ///
    /// # Errors
    ///
    /// Propagates [`CorpusCache::save`] failures.
    pub fn shutdown(self) -> Result<Option<prism_core::SaveReport>, String> {
        match &self.warm_start_dir {
            Some(dir) => self.cache.save(dir).map(Some),
            None => Ok(None),
        }
    }

    /// Installs the test-only compute hook (runs at the start of every
    /// leader compile; a request the memo answers never reaches it). Used by
    /// the coalescing and torn-request suites to hold or crash a compile
    /// deterministically.
    #[doc(hidden)]
    pub fn set_compute_hook(&self, hook: Option<ComputeHook>) {
        *self.hook.write().expect("hook poisoned") = hook;
    }

    /// The best-known flag set for a family (falling back to the global
    /// `""` entry), if any tune pass has recorded one.
    pub(crate) fn tune_warm_hint(&self, family: &str) -> Option<OptFlags> {
        let map = self.best_known.lock().expect("best-known map poisoned");
        map.get(family).copied().or_else(|| map.get("").copied())
    }

    /// Records a completed tune pass: updates the family's (and the global)
    /// best-known set last-wins, and bumps the tune counters.
    pub(crate) fn record_tune(
        &self,
        family: &str,
        best_flags: OptFlags,
        measurements: usize,
        search_compiles: usize,
        candidates_pruned: usize,
        regret_x1000: Option<usize>,
    ) {
        {
            let mut map = self.best_known.lock().expect("best-known map poisoned");
            map.insert(family.to_string(), best_flags);
            map.insert(String::new(), best_flags);
        }
        let c = &self.counters;
        c.tune_requests.fetch_add(1, Ordering::Relaxed);
        c.tune_measurements
            .fetch_add(measurements, Ordering::Relaxed);
        c.search_compiles
            .fetch_add(search_compiles, Ordering::Relaxed);
        c.search_candidates_pruned
            .fetch_add(candidates_pruned, Ordering::Relaxed);
        if let Some(regret) = regret_x1000 {
            c.tune_regret_x1000.store(regret, Ordering::Relaxed);
        }
    }
}

/// Completes a flight (and unregisters it) exactly once, even if the
/// processing path unwinds: dropping an unfinished guard reports a panic
/// error to every waiter instead of leaving them blocked forever.
struct FlightGuard<'a> {
    service: &'a CompileService,
    key: FlightKey,
    flight: Arc<Flight>,
    done: bool,
}

impl FlightGuard<'_> {
    fn finish(mut self, result: Result<Served, ServeError>) {
        self.done = true;
        self.flight.complete(result);
        self.service.unregister_flight(&self.key, &self.flight);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.flight.complete(Err(ServeError::Panicked(
                "compile unwound without completing its flight".to_string(),
            )));
            self.service.unregister_flight(&self.key, &self.flight);
        }
    }
}

impl CompileService {
    /// The steps a request passes before it routes: target resolution and
    /// the front stage, which yields the base IR's node. The node is read
    /// under the front memo's read lock; no IR handle leaves it.
    fn route(&self, request: &CompileRequest) -> Result<(BackendKind, bool, Node), ServeError> {
        let (backend, chain_fallback) = match &request.target {
            RequestTarget::Kind(kind) => (*kind, false),
            RequestTarget::Named(form) => {
                BackendKind::resolve(form).ok_or_else(|| ServeError::UnknownTarget(form.clone()))?
            }
        };
        if chain_fallback {
            self.counters
                .chain_fallbacks
                .fetch_add(1, Ordering::Relaxed);
        }
        let (base, memoised) = self.front(&request.source, |base| self.cache.node(base));
        if memoised {
            self.counters.hit(Hit::FrontHits);
        }
        Ok((backend, chain_fallback, base?))
    }

    /// Coalesce → run, for a request the memo missed: the first request of
    /// its key leads — its compile resumes the caller's walk from `resume`
    /// with the `work` counted so far — and every identical request arriving
    /// meanwhile waits on the leader's flight. Returns the result and
    /// whether this request coalesced.
    fn fly(
        &self,
        source: &str,
        key: FlightKey,
        resume: Resume,
        work: SessionStats,
    ) -> Result<(Served, bool), ServeError> {
        let (flight, leader) = {
            let mut flights = self.flights.lock().expect("flights poisoned");
            match flights.get(&key) {
                Some(flight) => {
                    flight.waiters.fetch_add(1, Ordering::SeqCst);
                    (Arc::clone(flight), false)
                }
                None => {
                    let flight = Arc::new(Flight::new());
                    flights.insert(key.clone(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !leader {
            self.cache.note_coalesced_request();
            return Ok((flight.wait()?, true));
        }
        self.counters
            .leader_requests
            .fetch_add(1, Ordering::Relaxed);
        Ok((self.lead(source, key, resume, work, flight)?, false))
    }

    /// The calling thread's walk: answers `request` from the memo planes
    /// alone — the specialized-base memo, the transition graph, the emission
    /// memo and (when asked for) the analysis memo — counting the hits into
    /// `work`. The walk stands on graph nodes, and the emission and analysis
    /// lookups key by its final node: it runs no pass, emitter or analysis
    /// and takes no IR handle. At the first miss it returns where it
    /// stopped, for the leader to resume.
    fn answer_from_memo(
        &self,
        request: &CompileRequest,
        backend: BackendKind,
        base: Node,
        work: &mut SessionStats,
    ) -> Result<Served, Resume> {
        let start = if request.specialize.is_general() {
            base
        } else {
            let spec = &request.specialize;
            self.memoised_spec_base(base.fingerprint(), spec, |start| self.cache.node(start))
                .ok_or(Resume::Specialize)?
        };
        let mut walk = Walk::at(start);
        let missed = with_schedule(|schedule| {
            enabled(schedule, request.flags)
                .any(|(stage, _)| !walk.answer(&*self.cache, self.session, stage, work))
        });
        walk.settle(&*self.cache);
        if missed {
            return Err(Resume::Stage(walk));
        }
        let node = walk.node();
        let Some(text) = self.cache.emission(self.session, backend, &node) else {
            return Err(Resume::Done { walk, text: None });
        };
        work.emission_hits += 1;
        let analysis = match request.analyze {
            None => None,
            Some(vendor) => match self.cache.analysis(self.session, vendor.name(), &node) {
                Some(json) => Some(json),
                None => {
                    return Err(Resume::Done {
                        walk,
                        text: Some(text),
                    })
                }
            },
        };
        Ok(Served {
            text,
            fp: node.fingerprint(),
            work: *work,
            zero_copy: true,
            analysis,
        })
    }

    /// The shared lower-once front stage: the desktop GLSL form of
    /// [`prism_core::front`](fn@prism_core::front), memoised per source text
    /// (errors included, so a hostile source costs one front-stage failure,
    /// not one per request). `read` sees the base snapshot under the memo's
    /// read lock: the route step reads its node there, and only a leader
    /// clones the snapshot. Also returns whether the memo held the text.
    fn front<R>(
        &self,
        source: &str,
        read: impl FnOnce(&Snapshot) -> R,
    ) -> (Result<R, ServeError>, bool) {
        if let Some(base) = self.front.read().expect("front memo poisoned").get(source) {
            return (base.as_ref().map(read).map_err(ServeError::clone), true);
        }
        // Lower outside the lock (slow); a racing duplicate lower of the
        // same text is wasted work but deterministic — the base IR and its
        // fingerprint are pure functions of the source.
        let base = self.lower_front(source);
        let base = self
            .front
            .write()
            .expect("front memo poisoned")
            .entry(source.to_string())
            .or_insert(base)
            .clone();
        (base.as_ref().map(read).map_err(ServeError::clone), false)
    }

    fn lower_front(&self, source: &str) -> Result<Snapshot, ServeError> {
        self.counters.front_lowers.fetch_add(1, Ordering::Relaxed);
        // Requests are anonymous; name the shader by its source hash so the
        // IR (and everything memoised from it) is deterministic per text.
        let front = prism_core::front(BackendKind::DesktopGlsl, source, &source_name(source))
            .map_err(|e| ServeError::Frontend(e.to_string()))?;
        // Intern the base into the cache's exemplar plane: repeat requests
        // (and racing duplicate lowers) of the same source then share one
        // allocation, and the compute walk resolves it by pointer identity.
        Ok(self.cache.intern(Snapshot::new(front.ir)))
    }

    /// Runs the leader's compile to flight completion. A panicking compile
    /// is caught and retried once (transient failures — including the test
    /// hook — succeed on retry); a second panic becomes a
    /// [`ServeError::Panicked`] result. Either way the flight completes:
    /// waiters never hang.
    fn lead(
        &self,
        source: &str,
        key: FlightKey,
        resume: Resume,
        work: SessionStats,
        flight: Arc<Flight>,
    ) -> Result<Served, ServeError> {
        let guard = FlightGuard {
            service: self,
            key,
            flight,
            done: false,
        };
        let attempt = || self.compute(source, &guard.key, &resume, work, &guard.flight);
        let result = match catch_unwind(AssertUnwindSafe(attempt)) {
            Ok(result) => result,
            Err(_) => {
                self.counters.compile_panics.fetch_add(1, Ordering::Relaxed);
                match catch_unwind(AssertUnwindSafe(attempt)) {
                    Ok(result) => {
                        self.counters.retried_jobs.fetch_add(1, Ordering::Relaxed);
                        result
                    }
                    Err(_) => {
                        self.counters.compile_panics.fetch_add(1, Ordering::Relaxed);
                        Err(ServeError::Panicked(
                            "compile panicked twice; giving up".to_string(),
                        ))
                    }
                }
            }
        };
        guard.finish(result.clone());
        result
    }

    /// The leader's compile: resumes the caller's memo walk where it
    /// stopped — deriving the specialized base, walking on from the stage
    /// the graph missed, or only fetching the final state — then emits and
    /// analyses whatever the memo lacked, recording it for every later
    /// request.
    fn compute(
        &self,
        source: &str,
        key: &FlightKey,
        resume: &Resume,
        mut work: SessionStats,
        flight: &Flight,
    ) -> Result<Served, ServeError> {
        if let Some(hook) = self.hook.read().expect("hook poisoned").as_ref() {
            hook(&FlightProbe { flight });
        }
        // Only a leader takes the base snapshot: the walk runs its stages
        // from it, and re-derives from it any node a bounded cache reclaimed
        // since the caller's lookups. A specialized request runs the
        // ordinary flag schedule, just from a different starting snapshot:
        // the substituted-and-folded base. That base is another IR
        // structure, so everything downstream (transition memo, emission
        // memo, analysis memo) dedups by fingerprint with no special cases.
        let base = self.front(source, Snapshot::clone).0?;
        let start = if key.spec.is_general() {
            base
        } else {
            self.spec_base(&base, &key.spec)?
        };
        let (walk, text) = match resume {
            Resume::Specialize => (Walk::new(&*self.cache, &start), None),
            Resume::Stage(walk) => (walk.clone(), None),
            Resume::Done { walk, text } => (walk.clone(), text.clone()),
        };
        let (node, state) = self.walk_on(walk, &start, key.flags, &mut work)?;
        let text = match text {
            Some(text) => text,
            None => {
                let reached = (&node, &state);
                emit_memoised(&*self.cache, self.session, key.backend, reached, &mut work)
            }
        };
        let zero_copy = work.emission_hits > 0;
        if zero_copy {
            self.counters.hit(Hit::ZeroCopyHits);
        }
        // The analysis rides the same memo discipline as emitted text: one
        // walk of the optimized IR per distinct `(fingerprint, personality)`,
        // then shared `Arc` handles forever (including across warm restarts).
        let analysis = match key.analyze {
            None => None,
            Some(vendor) => {
                let personality = vendor.name();
                match self.cache.analysis(self.session, personality, &node) {
                    Some(json) => Some(json),
                    None => {
                        let report = prism_analyze::analyze(&state.ir, vendor);
                        self.counters
                            .lints_emitted
                            .fetch_add(report.lints.len(), Ordering::Relaxed);
                        let json: Arc<str> =
                            Arc::from(report.to_json().map_err(ServeError::Compile)?.as_str());
                        self.cache.record_analysis(
                            self.session,
                            personality,
                            &state,
                            Arc::clone(&json),
                        );
                        Some(json)
                    }
                }
            }
        };
        Ok(Served {
            text,
            fp: state.fp,
            work,
            zero_copy,
            analysis,
        })
    }

    /// Finishes `walk`, started at `start`, over the stages `flags`
    /// enables from where it stopped, answering what the graph can and
    /// running the rest, as a `CompileSession` walks. The stage the caller's
    /// walk missed is looked up once more, because a leader of another key
    /// may have recorded it since.
    fn walk_on(
        &self,
        walk: Walk,
        start: &Snapshot,
        flags: OptFlags,
        work: &mut SessionStats,
    ) -> Result<(Node, Snapshot), ServeError> {
        with_schedule(|schedule| {
            walk.finish(
                &*self.cache,
                self.session,
                start,
                enabled(schedule, flags),
                work,
                |stage: &Stage, ir| {
                    stage
                        .run_verified(ir)
                        .map_err(|e| ServeError::Compile(e.to_string()))
                },
            )
        })
    }

    /// `read` of the specialized base of `(base, spec)` under the memo's
    /// read lock, if it is memoised.
    fn memoised_spec_base<R>(
        &self,
        base: Fingerprint,
        spec: &SpecKey,
        read: impl FnOnce(&Snapshot) -> R,
    ) -> Option<R> {
        self.spec_bases
            .read()
            .expect("spec-base memo poisoned")
            .get(&(base, spec.clone()))
            .map(read)
    }

    /// The snapshot a specialized flag walk starts from: the memoised
    /// specialized base for this `(fingerprint, spec)` pair, derived on a
    /// miss.
    ///
    /// The derivation substitutes the assumed constants, folds, checks IR
    /// invariants, and then differentially executes the specialized base
    /// against the general base through the interpreter on
    /// assumption-holding contexts at the standard probe points — the fold
    /// must be bit-for-bit exact or the request fails rather than serve a
    /// miscompile. The verified snapshot is interned into the cache's
    /// exemplar plane so it dedups like any other structure.
    fn spec_base(&self, base: &Snapshot, spec: &SpecKey) -> Result<Snapshot, ServeError> {
        if let Some(snap) = self.memoised_spec_base(base.fp, spec, Snapshot::clone) {
            return Ok(snap);
        }
        let ir =
            specialize_shader(&base.ir, spec).map_err(|e| ServeError::Specialize(e.to_string()))?;
        verify(&ir).map_err(|e| ServeError::Compile(e.to_string()))?;
        for (fx, fy) in default_probe_points() {
            let ctx = spec.holding_context(&base.ir, fx, fy);
            let fast = run_fragment(&ir, &ctx)
                .map_err(|e| ServeError::Specialize(format!("specialized base faulted: {e}")))?;
            let slow = run_fragment(&base.ir, &ctx)
                .map_err(|e| ServeError::Specialize(format!("general base faulted: {e}")))?;
            if !results_exactly_equal(&fast, &slow) {
                return Err(ServeError::Specialize(format!(
                    "fold diverges from the general program under [{spec}] at ({fx},{fy})"
                )));
            }
        }
        let snap = self.cache.intern(Snapshot::new(ir));
        // A racing duplicate derivation of the same pair is wasted but
        // deterministic work; last write wins with an identical snapshot.
        self.spec_bases
            .write()
            .expect("spec-base memo poisoned")
            .insert((base.fp, spec.clone()), snap.clone());
        Ok(snap)
    }

    fn unregister_flight(&self, key: &FlightKey, flight: &Arc<Flight>) {
        let mut flights = self.flights.lock().expect("flights poisoned");
        if let Some(current) = flights.get(key) {
            if Arc::ptr_eq(current, flight) {
                flights.remove(key);
            }
        }
    }
}
