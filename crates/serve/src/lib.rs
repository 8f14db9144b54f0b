//! # prism-serve — the sharded compile service
//!
//! Wraps the prism optimizer in a compile-request API of the kind a driver
//! vendor's shader-cache daemon or a cloud shader-build farm would expose:
//! clients submit `(source, flags, backend)` and get back emitted text plus
//! its fingerprint and work counters. The service exists to make the
//! corpus-wide sharing the paper's übershader study measures (ISPASS'18 §IV)
//! pay off *across* clients, not just within one study process.
//!
//! ## Request order: route → memo → coalesce → run
//!
//! Every request is served on its caller's thread.
//!
//! 1. **route** — a shared *lower-once front stage*, the GLSL drivers' own
//!    front door [`prism_core::front`](fn@prism_core::front) memoised per
//!    source text, preprocesses, parses, lowers and verifies the source, and
//!    the base IR's structural fingerprint keys every later step; the cache
//!    splits its locks 16 ways on it ([`prism_core::FINGERPRINT_SHARDS`] /
//!    [`prism_core::shard_of`]). Warm-start snapshot files use the same
//!    split, so shard ownership is stable across restarts.
//! 2. **memo** — the calling thread walks the pass schedule lookup-only
//!    over the shared [`CorpusCache`](prism_core::CorpusCache): stage
//!    transitions, emitted text and static analyses that any previous
//!    request (or a warm-start snapshot) paid for are answered from the
//!    memo. **A hit ends here**: it never coalesces, and its body is the
//!    memo's shared `Arc<str>` handle — a refcount bump, never a copy
//!    ([`ServiceStats::memo_answered`] counts these requests).
//! 3. **coalesce** — a request the memo missed joins a singleflight table:
//!    identical in-flight misses (same fingerprint, flags, backend, analysis
//!    and specialization) merge onto one compile, one leader compiles and
//!    every waiter receives the same `Arc`'d result. Merged requests are
//!    counted in
//!    [`CacheStats::coalesced_requests`](prism_core::CacheStats).
//! 4. **run** — the leader resumes the caller's walk at the stage the graph
//!    missed, so no stage the caller answered is looked up again, and runs
//!    only what the memo lacked. Leaders of different keys run in parallel.
//!    The test compute hook runs here, so only for leaders.
//!
//! A single-threaded request stream is fully deterministic, down to every
//! work counter; the [`load`] harness and the perf gate rely on that.
//!
//! ## The search tenant
//!
//! Serving is not the only client of the memo plane: [`CompileService::tune`]
//! ([`tune`] module) runs an online, measurement-in-the-loop flag search
//! whose every candidate compile is an ordinary request along the same
//! route → memo → coalesce → run path — so tuning traffic and serving
//! traffic share one cache, coalesce against each other on misses, and hand
//! each other zero-copy emissions. Spend and results are visible in
//! [`ServiceStats::tune_requests`], [`ServiceStats::measurements_taken`],
//! [`ServiceStats::search_compiles`] and
//! [`ServiceStats::tune_regret_x1000`].
//!
//! ```
//! use prism_serve::{CompileRequest, CompileService, ServeConfig};
//! use prism_core::OptFlags;
//! use prism_emit::BackendKind;
//!
//! let service = CompileService::new(ServeConfig::default());
//! let source = "uniform float u_gain;\nin vec2 v_uv;\nout vec4 frag;\nvoid main() {\n    frag = vec4(v_uv * u_gain, 0.0, 1.0);\n}\n";
//! let request = CompileRequest::new(source, OptFlags::all(), BackendKind::Gles);
//! let first = service.compile(&request).unwrap();
//! let second = service.compile(&request).unwrap();
//! assert_eq!(first.text, second.text);
//! assert!(second.zero_copy, "the replay is answered by the emission memo");
//! assert_eq!(second.work.latency(), 0);
//! ```

pub mod analyze;
pub mod load;
pub mod service;
pub mod tune;

pub use load::{percentile, request_stream, run_stream, LoadSummary, StreamSpec};
pub use service::{
    CompileRequest, CompileRequestBuilder, CompileResponse, CompileService, RequestTarget,
    ServeConfig, ServeError, ServiceStats,
};
pub use tune::{TuneOutcome, TuneSpec, TuneStrategy};

#[cfg(test)]
mod tests {
    use super::*;
    use prism_core::{CacheStore, OptFlags};
    use prism_emit::BackendKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    const SOURCE: &str = "uniform float u_gain;\nuniform vec4 u_tint;\nin vec2 v_uv;\nout vec4 frag;\nvoid main() {\n    vec2 scaled = v_uv * u_gain;\n    vec4 base = vec4(scaled, 0.5, 1.0);\n    frag = base * u_tint;\n}\n";

    fn request(flags: OptFlags, backend: BackendKind) -> CompileRequest {
        CompileRequest::new(SOURCE, flags, backend)
    }

    /// Every request is rejected before routing, or routes and is answered
    /// by the memo, leads a compile or coalesces onto a leader.
    fn assert_requests_add_up(stats: &ServiceStats) {
        let routed = stats.memo_answered + stats.leader_requests + stats.cache.coalesced_requests;
        assert_eq!(stats.cache.routed_requests, routed, "{stats:?}");
        assert_eq!(stats.requests, stats.front_errors + routed, "{stats:?}");
    }

    #[test]
    fn identical_requests_are_memo_served_and_zero_copy() {
        let service = CompileService::new(ServeConfig::default());
        let req = request(OptFlags::all(), BackendKind::Msl);
        let first = service.compile(&req).unwrap();
        assert!(!first.zero_copy);
        assert!(first.work.latency() > 0);
        let second = service.compile(&req).unwrap();
        assert_eq!(first.text, second.text);
        assert!(
            Arc::ptr_eq(&first.text, &second.text),
            "the replayed body must be the memo's handle, not a copy"
        );
        assert!(second.zero_copy);
        assert_eq!(second.work.latency(), 0, "{:?}", second.work);
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.front_hits, 1);
        assert_eq!(stats.cache.routed_requests, 2);
    }

    /// The service and a session walk the transition graph through the same
    /// function, so a cold service answers a request stream with the text a
    /// cold session emits and reports exactly the work the session counted
    /// for the same call.
    #[test]
    fn service_and_session_count_the_same_work() {
        use prism_core::{CompileSession, Flag, SessionStats};
        let requests = [
            (OptFlags::NONE, BackendKind::DesktopGlsl),
            (OptFlags::all(), BackendKind::Gles),
            (OptFlags::lunarglass_default(), BackendKind::SpirvAsm),
            (OptFlags::all(), BackendKind::DesktopGlsl),
            (OptFlags::only(Flag::Unroll), BackendKind::Msl),
            (OptFlags::all(), BackendKind::Gles),
            (OptFlags::from_bits(0b1010_0101), BackendKind::Msl),
        ];
        let corpus = prism_corpus::Corpus::gfxbench_like();
        for case in corpus.cases.iter().step_by(13) {
            let service = CompileService::new(ServeConfig::default());
            let session = CompileSession::new(&case.source, &case.name).unwrap();
            for (flags, backend) in requests {
                let response = service
                    .compile(&CompileRequest::new(
                        case.source.text.as_str(),
                        flags,
                        backend,
                    ))
                    .unwrap();
                let before = session.stats();
                let text = session.text_for(flags, backend).unwrap();
                let after = session.stats();
                let delta = SessionStats {
                    stage_runs: after.stage_runs - before.stage_runs,
                    stage_hits: after.stage_hits - before.stage_hits,
                    emissions: after.emissions - before.emissions,
                    emission_hits: after.emission_hits - before.emission_hits,
                };
                let at = format!("{} {flags} {backend}", case.name);
                assert_eq!(response.text, text, "{at}");
                assert_eq!(response.work, delta, "{at}");
            }
        }
    }

    #[test]
    fn named_targets_fall_through_the_backend_chain() {
        let service = CompileService::new(ServeConfig::default());
        let mut alias_requests = 0;
        for kind in BackendKind::ALL {
            let direct = service
                .compile(&CompileRequest::named(SOURCE, OptFlags::NONE, kind.name()))
                .unwrap();
            assert_eq!(direct.backend, kind);
            assert!(!direct.chain_fallback, "{kind}");
            assert_eq!(service.stats().chain_fallbacks, alias_requests, "{kind}");
            for alias in kind.serves() {
                let response = service
                    .compile(&CompileRequest::named(SOURCE, OptFlags::NONE, alias))
                    .unwrap();
                alias_requests += 1;
                assert_eq!(response.backend, kind, "{alias}");
                assert_eq!(response.text, direct.text, "{alias}");
                assert!(response.chain_fallback, "{alias}");
                assert_eq!(service.stats().chain_fallbacks, alias_requests, "{alias}");
            }
        }

        let err = service
            .compile(&CompileRequest::named(SOURCE, OptFlags::NONE, "dxbc"))
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownTarget("dxbc".to_string()));
        let stats = service.stats();
        assert_eq!(stats.front_errors, 1, "an unknown target is a front error");
        assert_eq!(stats.chain_fallbacks, alias_requests);
        assert_requests_add_up(&stats);
    }

    #[test]
    fn front_stage_errors_are_memoised_per_source() {
        let service = CompileService::new(ServeConfig::default());
        let bad = CompileRequest::new(
            "void main() { frag = ; }",
            OptFlags::NONE,
            BackendKind::Gles,
        );
        assert!(matches!(
            service.compile(&bad),
            Err(ServeError::Frontend(_))
        ));
        assert!(matches!(
            service.compile(&bad),
            Err(ServeError::Frontend(_))
        ));
        let stats = service.stats();
        assert_eq!(stats.front_errors, 2, "both rejections are front errors");
        assert_eq!(stats.front_lowers, 1, "the second failure is a memo hit");
        assert_eq!(
            stats.cache.routed_requests, 0,
            "rejected requests never route"
        );
        assert_requests_add_up(&stats);
    }

    /// Satellite 3 (coalescing): N threads submit the identical request and
    /// the whole group costs exactly one compile — one stage-run/emission
    /// delta — with byte-identical (indeed pointer-identical) responses.
    #[test]
    fn n_identical_inflight_requests_cost_exactly_one_compile() {
        const CLIENTS: usize = 6;
        let service = Arc::new(CompileService::new(ServeConfig::default()));

        // The hook holds the leader's compile until every other client has
        // joined the flight as a waiter, making the coalescing deterministic.
        service.set_compute_hook(Some(Box::new(|probe| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while probe.waiters() < CLIENTS - 1 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "waiters never joined: {}",
                    probe.waiters()
                );
                std::thread::yield_now();
            }
        })));

        let baseline = service.cache().stats();
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let responses: Vec<CompileResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        service
                            .compile(&request(OptFlags::all(), BackendKind::SpirvAsm))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        service.set_compute_hook(None);

        let stats = service.cache().stats();
        assert_eq!(
            stats.coalesced_requests - baseline.coalesced_requests,
            CLIENTS - 1,
            "every non-leader coalesces"
        );
        assert_eq!(
            stats.emissions - baseline.emissions,
            1,
            "exactly one emission for the whole group"
        );
        let ran = stats.stage_runs - baseline.stage_runs;
        let schedule_len = prism_core::build_schedule().len();
        assert!(
            ran > 0 && ran <= schedule_len,
            "exactly one schedule's worth of stage runs, got {ran}"
        );
        let leader_text = &responses[0].text;
        let mut coalesced = 0;
        for response in &responses {
            assert!(Arc::ptr_eq(&response.text, leader_text));
            if response.coalesced {
                coalesced += 1;
            }
        }
        assert_eq!(coalesced, CLIENTS - 1);
    }

    /// Satellite 3 (torn request): a panic mid-compile does not poison the
    /// singleflight table — the job retries and every waiter still gets a
    /// result; nobody hangs.
    #[test]
    fn a_panicking_compile_is_retried_and_never_hangs_waiters() {
        let service = CompileService::new(ServeConfig::default());
        let crashes = Arc::new(AtomicUsize::new(0));
        let crashes_hook = Arc::clone(&crashes);
        service.set_compute_hook(Some(Box::new(move |_| {
            if crashes_hook.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected torn-request crash");
            }
        })));
        // catch_unwind still prints the panic backtrace by default; silence
        // it for the injected crash so the test log stays readable.
        let saved = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = service.compile(&request(OptFlags::all(), BackendKind::DesktopGlsl));
        std::panic::set_hook(saved);
        service.set_compute_hook(None);

        let response = result.expect("the retry must serve the request");
        assert!(response.work.latency() > 0);
        assert_eq!(crashes.load(Ordering::SeqCst), 2, "one crash + one retry");
        let stats = service.stats();
        assert_eq!(stats.compile_panics, 1);
        assert_eq!(stats.retried_jobs, 1);

        // The flight table is clean: the same request is served again,
        // from the memo this time.
        let replay = service
            .compile(&request(OptFlags::all(), BackendKind::DesktopGlsl))
            .unwrap();
        assert_eq!(replay.work.latency(), 0);
        assert_eq!(replay.text, response.text);
    }

    /// A compile that panics twice (retry included) reports an error to its
    /// waiters instead of hanging them, and leaves the service healthy.
    #[test]
    fn a_twice_panicking_compile_becomes_an_error_result() {
        let service = CompileService::new(ServeConfig::default());
        service.set_compute_hook(Some(Box::new(|_| panic!("always torn"))));
        let saved = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = service.compile(&request(OptFlags::NONE, BackendKind::Gles));
        std::panic::set_hook(saved);
        assert!(matches!(result, Err(ServeError::Panicked(_))));
        assert_eq!(service.stats().compile_panics, 2);

        service.set_compute_hook(None);
        let healthy = service
            .compile(&request(OptFlags::NONE, BackendKind::Gles))
            .unwrap();
        assert!(healthy.work.latency() > 0, "the error was not memoised");
    }

    /// Runs `request` from `clients` threads released together by a barrier.
    fn race(
        service: &CompileService,
        clients: usize,
        request: &CompileRequest,
    ) -> Vec<Result<CompileResponse, ServeError>> {
        let barrier = Barrier::new(clients);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        service.compile(request)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// A compute hook that holds each leader call until `clients - 1`
    /// requests wait on its flight, then panics when `panics(call)` says so
    /// (calls counted from 0).
    fn held_hook(clients: usize, panics: fn(usize) -> bool) -> service::ComputeHook {
        let calls = AtomicUsize::new(0);
        Box::new(move |probe| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while probe.waiters() < clients - 1 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "waiters never joined: {}",
                    probe.waiters()
                );
                std::thread::yield_now();
            }
            if panics(calls.fetch_add(1, Ordering::SeqCst)) {
                panic!("injected leader crash");
            }
        })
    }

    /// A leader that panics with waiters on its flight: its retry serves
    /// every client the same handle, and a leader that panics on the retry
    /// too fails every client — leaving no flight behind, so the same
    /// request leads again once the fault is gone.
    #[test]
    fn a_panicking_leader_with_waiters_serves_or_fails_every_client() {
        const CLIENTS: usize = 5;
        let service = CompileService::new(ServeConfig::default());
        let retried = request(OptFlags::all(), BackendKind::Gles);
        let failing = request(OptFlags::all(), BackendKind::Msl);
        let saved = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        service.set_compute_hook(Some(held_hook(CLIENTS, |call| call == 0)));
        let served = race(&service, CLIENTS, &retried);
        let after_retry = service.stats();
        service.set_compute_hook(Some(held_hook(CLIENTS, |_| true)));
        let failed = race(&service, CLIENTS, &failing);
        std::panic::set_hook(saved);
        service.set_compute_hook(None);

        let texts: Vec<Arc<str>> = served
            .into_iter()
            .map(|r| r.expect("the retry serves every client").text)
            .collect();
        assert!(texts.iter().all(|t| Arc::ptr_eq(t, &texts[0])));
        assert_eq!(after_retry.compile_panics, 1);
        assert_eq!(after_retry.retried_jobs, 1);
        assert_eq!(after_retry.leader_requests, 1);
        assert_eq!(after_retry.cache.coalesced_requests, CLIENTS - 1);

        for result in &failed {
            assert!(matches!(result, Err(ServeError::Panicked(_))), "{result:?}");
        }
        let stats = service.stats();
        assert_eq!(stats.compile_panics, 3, "one retried crash, then two");
        assert_eq!(stats.retried_jobs, 1);
        assert_eq!(stats.cache.coalesced_requests, 2 * (CLIENTS - 1));

        let again = service.compile(&failing).expect("the fault is gone");
        assert!(!again.coalesced && again.work.latency() > 0, "{again:?}");
        assert_eq!(service.stats().leader_requests, 3);
    }

    /// A leader held inside its compile stalls no miss on another base, not
    /// even one in the same cache shard: leaders run in parallel, each on
    /// its caller's thread.
    #[test]
    fn a_held_leader_does_not_stall_a_miss_on_another_base() {
        use std::sync::{mpsc, Mutex};
        let corpus = prism_corpus::Corpus::gfxbench_like();
        let base = |source: &str| {
            let name = service::source_name(source);
            let front = prism_core::front(BackendKind::DesktopGlsl, source, &name).unwrap();
            prism_ir::fingerprint::fingerprint(&front.ir)
        };
        let held = corpus.cases[0].source.text.as_str();
        let held_fp = base(held);
        let other = corpus.cases[1..]
            .iter()
            .map(|case| case.source.text.as_str())
            .find(|&source| {
                let fp = base(source);
                fp != held_fp && prism_core::shard_of(fp) == prism_core::shard_of(held_fp)
            })
            .expect("two corpus bases share a shard");

        let service = CompileService::new(ServeConfig::default());
        let first = std::sync::atomic::AtomicBool::new(true);
        let (entered, on_entry) = mpsc::channel();
        let (release, on_release) = mpsc::channel::<()>();
        let on_release = Mutex::new(on_release);
        service.set_compute_hook(Some(Box::new(move |_| {
            if first.swap(false, Ordering::SeqCst) {
                entered.send(()).unwrap();
                // A timeout panics, and the panic shows in `compile_panics`.
                on_release
                    .lock()
                    .unwrap()
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .expect("the other miss waited for the held leader");
            }
        })));
        let compile = |source| {
            service.compile(&CompileRequest::new(
                source,
                OptFlags::all(),
                BackendKind::Gles,
            ))
        };
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| compile(held));
            on_entry.recv().unwrap();
            let response = compile(other);
            release.send(()).unwrap();
            response.expect("the other base compiles");
            leader.join().unwrap().expect("the held leader compiles");
        });
        service.set_compute_hook(None);
        let stats = service.stats();
        assert_eq!(stats.compile_panics, 0, "a miss stalled: {stats:?}");
        assert_eq!(stats.leader_requests, 2);
    }

    /// Tentpole acceptance (warm boot): a service booted from the previous
    /// service's snapshot serves the replayed stream with **zero** stage
    /// runs and byte-identical responses.
    #[test]
    fn warm_booted_service_replays_the_stream_with_zero_stage_runs() {
        let corpus =
            prism_corpus::Corpus::gfxbench_like().subset(&["ui_blit_00", "forward_lit_00"]);
        let spec = StreamSpec::standard(11, 60);
        let stream = request_stream(&corpus, &spec);
        let dir = std::env::temp_dir().join(format!(
            "prism-serve-warm-{}-{:p}",
            std::process::id(),
            &spec
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            warm_start_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };

        let cold = CompileService::new(config.clone());
        let cold_texts: Vec<_> = stream
            .iter()
            .map(|r| cold.compile(r).unwrap().text)
            .collect();
        assert!(cold.stats().cache.stage_runs > 0);
        cold.shutdown().unwrap().expect("snapshot written");

        let warm = CompileService::new(config);
        let summary = run_stream(&warm, &stream, 0);
        assert_eq!(
            summary.stage_runs, 0,
            "warm boot re-ran stages: {summary:?}"
        );
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.memo_served, summary.measured, "{summary:?}");
        let warm_texts: Vec<_> = stream
            .iter()
            .map(|r| warm.compile(r).unwrap().text)
            .collect();
        for (cold_text, warm_text) in cold_texts.iter().zip(&warm_texts) {
            assert_eq!(cold_text, warm_text);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tentpole acceptance (skewed stream): after warm-up, coalesced +
    /// memo-served requests are ≥ 90% of the measured window. Memo hits end
    /// on the calling thread; every other request leads one compile.
    #[test]
    fn zipf_stream_is_mostly_free_after_warmup() {
        let corpus = prism_corpus::Corpus::gfxbench_like();
        let spec = StreamSpec::standard(7, 1600);
        let stream = request_stream(&corpus, &spec);
        let service = CompileService::new(ServeConfig::default());
        let warmup = 600;
        let summary = run_stream(&service, &stream, warmup);
        assert_eq!(summary.errors, 0);
        assert!(
            summary.free_fraction() >= 0.9,
            "free fraction {:.3} below the 90% acceptance: {summary:?}",
            summary.free_fraction()
        );
        assert_eq!(summary.p50_latency, 0, "the p50 request must be free");
        let stats = service.stats();
        assert_eq!(stats.leader_requests + stats.memo_answered, stream.len());
        assert_eq!(
            stats.cache.coalesced_requests, 0,
            "a sequential replay never coalesces"
        );
    }

    /// The stream generator is a pure function of (corpus, spec), and its
    /// Zipf head is actually hot.
    #[test]
    fn request_streams_are_deterministic_and_head_heavy() {
        let corpus = prism_corpus::Corpus::gfxbench_like().subset(&["ui_blit_00"]);
        let spec = StreamSpec::standard(3, 200);
        let a = request_stream(&corpus, &spec);
        let b = request_stream(&corpus, &spec);
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.flags, y.flags);
            assert_eq!(x.target, y.target);
        }
        // The hottest combination must take far more than a uniform share
        // (200 / 16 combinations = 12.5 requests each if unskewed).
        let mut counts = std::collections::HashMap::new();
        for r in &a {
            *counts.entry((r.flags, r.target.clone())).or_insert(0usize) += 1;
        }
        let hottest = counts.values().max().copied().unwrap();
        assert!(hottest * 4 > a.len(), "Zipf head too cold: {hottest}/200");
    }

    /// A specialized request rides the whole lifecycle: substituted and
    /// folded once per `(fingerprint, spec)`, interp-verified against the
    /// general base, then memo-served (zero-copy) on replay like any other
    /// variant.
    #[test]
    fn specialized_requests_fold_verify_and_memoise() {
        use prism_core::{spec_counters, SpecKey, SpecValue};
        let service = CompileService::new(ServeConfig::default());
        let general = service
            .compile(&request(OptFlags::all(), BackendKind::DesktopGlsl))
            .unwrap();

        // `u_tint` is uniform slot 1; assuming it zero folds `base * u_tint`
        // (and everything feeding `base`) away.
        let spec = SpecKey::single(1, SpecValue::Zero);
        let specialized_request = CompileRequest::builder(SOURCE)
            .flags(OptFlags::all())
            .specialize(spec.clone())
            .build();
        let before = spec_counters();
        let first = service.compile(&specialized_request).unwrap();
        assert_ne!(first.text, general.text, "the fold must change the text");
        assert_ne!(first.fingerprint, general.fingerprint);
        assert_eq!(
            spec_counters().since(&before).specializations_generated,
            1,
            "one derivation for the new (fingerprint, spec) pair"
        );

        // Replay: the specialized base comes from the memo (no re-derivation)
        // and the response is the emission memo's handle.
        let replay = service.compile(&specialized_request).unwrap();
        assert!(Arc::ptr_eq(&first.text, &replay.text));
        assert!(replay.zero_copy);
        assert_eq!(replay.work.latency(), 0, "{:?}", replay.work);
        assert_eq!(
            spec_counters().since(&before).specializations_generated,
            1,
            "the replay must not re-specialize"
        );
    }

    /// An inapplicable specialization key is a request error, not a panic —
    /// and it does not poison the flight table for the general request.
    #[test]
    fn inapplicable_specializations_error_cleanly() {
        use prism_core::{SpecKey, SpecValue};
        let service = CompileService::new(ServeConfig::default());
        let bad = CompileRequest::builder(SOURCE)
            .specialize(SpecKey::single(42, SpecValue::Zero))
            .build();
        let err = service.compile(&bad).unwrap_err();
        assert!(matches!(err, ServeError::Specialize(_)), "{err:?}");
        let healthy = service
            .compile(&request(OptFlags::NONE, BackendKind::DesktopGlsl))
            .unwrap();
        assert!(healthy.work.latency() > 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 50), 7);
        let pop: Vec<usize> = (1..=100).collect();
        assert_eq!(percentile(&pop, 50), 50);
        assert_eq!(percentile(&pop, 99), 99);
        assert_eq!(percentile(&pop, 100), 100);
    }
}
