//! The compile service's memo path. A request the memo answers completely
//! returns on the calling thread: it never registers a flight or reaches the
//! compute hook. A request the memo misses part-way through the schedule is
//! resumed by its leader where the caller's walk stopped, so no stage hit is
//! counted twice and the request reports the work a `CompileSession` counts
//! for the same call.

use prism::core::{candidate_keys, lower, CompileSession, Flag, OptFlags, SessionStats};
use prism::corpus::Corpus;
use prism::emit::BackendKind;
use prism::gpu::Vendor;
use prism::serve::{
    request_stream, CompileRequest, CompileResponse, CompileService, ServeConfig, ServiceStats,
    StreamSpec,
};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

fn corpus() -> Corpus {
    Corpus::gfxbench_like().subset(&[
        "flagship_blur9",
        "ui_blit_00",
        "forward_lit_00",
        "color_grade_01",
    ])
}

/// A seeded Zipf stream over `corpus` in which every eighth request also
/// asks for a static analysis, followed by specialized requests for each
/// shader's first two candidate keys.
fn mixed_stream(corpus: &Corpus, seed: u64, requests: usize) -> Vec<CompileRequest> {
    let mut stream = request_stream(corpus, &StreamSpec::standard(seed, requests));
    for (i, request) in stream.iter_mut().enumerate().step_by(8) {
        request.analyze = Some(Vendor::ALL[i / 8 % Vendor::ALL.len()]);
    }
    for case in &corpus.cases {
        let base = lower(&case.source, &case.name).expect("corpus shaders lower");
        for spec in candidate_keys(&base, 2) {
            stream.push(
                CompileRequest::builder(&case.source.text)
                    .flags(OptFlags::all())
                    .specialize(spec)
                    .build(),
            );
        }
    }
    stream
}

fn same_handle(a: &Option<Arc<str>>, b: &Option<Arc<str>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// Every request is rejected before routing, or routes and is answered by
/// the memo, leads a compile or coalesces onto a leader.
fn assert_requests_add_up(stats: &ServiceStats) {
    let routed = stats.memo_answered + stats.leader_requests + stats.cache.coalesced_requests;
    assert_eq!(stats.cache.routed_requests, routed, "{stats:?}");
    assert_eq!(stats.requests, stats.front_errors + routed, "{stats:?}");
}

#[test]
fn warm_hits_never_reach_the_flight_path() {
    let corpus = corpus();
    let stream = mixed_stream(&corpus, 5, 240);
    let service = CompileService::new(ServeConfig::default());
    let warm: Vec<CompileResponse> = stream
        .iter()
        .map(|r| service.compile(r).expect("the warm-up serves"))
        .collect();
    service.set_compute_hook(Some(Box::new(|_| {
        panic!("a memo-answered request reached the compute path")
    })));
    let before = service.stats();
    for (i, (request, first)) in stream.iter().zip(&warm).enumerate() {
        let replay = service
            .compile(request)
            .unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert!(
            Arc::ptr_eq(&replay.text, &first.text),
            "request {i}: the body is not the memo's handle"
        );
        assert!(
            same_handle(&replay.analysis, &first.analysis),
            "request {i}: the report is not the memo's handle"
        );
        assert!(replay.zero_copy && !replay.coalesced);
        assert_eq!(replay.work.latency(), 0, "{:?}", replay.work);
    }
    service.set_compute_hook(None);
    let after = service.stats();
    assert_eq!(after.memo_answered - before.memo_answered, stream.len());
    assert_eq!(
        after.leader_requests, before.leader_requests,
        "a hit led a compile"
    );
    assert_eq!(
        after.cache.coalesced_requests, before.cache.coalesced_requests,
        "a hit coalesced"
    );
    assert_eq!(after.compile_panics, before.compile_panics);
    assert_requests_add_up(&after);
}

#[test]
fn a_mid_schedule_miss_resumes_where_the_callers_walk_stopped() {
    // `missed` shares `warmed`'s schedule prefix through Hoist and then asks
    // for Gvn, which nothing has run yet.
    let warmed = OptFlags::from_flags(&[Flag::Unroll, Flag::Hoist]);
    let missed = OptFlags::from_flags(&[Flag::Unroll, Flag::Hoist, Flag::Gvn]);
    let calls = [
        (warmed, BackendKind::Gles),
        (missed, BackendKind::Gles),
        (missed, BackendKind::Msl),
        (missed, BackendKind::Gles),
    ];
    for case in &corpus().cases {
        let service = CompileService::new(ServeConfig::default());
        let session = CompileSession::new(&case.source, &case.name).unwrap();
        let hits_before = service.stats().cache.stage_hits;
        let mut summed_hits = 0;
        for (call, (flags, backend)) in calls.into_iter().enumerate() {
            let request = CompileRequest::new(case.source.text.as_str(), flags, backend);
            let response = service.compile(&request).unwrap();
            let before = session.stats();
            let text = session.text_for(flags, backend).unwrap();
            let after = session.stats();
            let delta = SessionStats {
                stage_runs: after.stage_runs - before.stage_runs,
                stage_hits: after.stage_hits - before.stage_hits,
                emissions: after.emissions - before.emissions,
                emission_hits: after.emission_hits - before.emission_hits,
            };
            let at = format!("{} call {call}: {flags} {backend}", case.name);
            assert_eq!(response.text, text, "{at}");
            assert_eq!(response.work, delta, "{at}");
            if call == 1 {
                assert!(
                    response.work.stage_hits > 0 && response.work.stage_runs > 0,
                    "{at}: expected a miss part-way through the schedule, got {:?}",
                    response.work
                );
            }
            summed_hits += response.work.stage_hits;
        }
        assert_eq!(
            service.stats().cache.stage_hits - hits_before,
            summed_hits,
            "{}: a stage hit was counted twice",
            case.name
        );
        let stats = service.stats();
        assert_eq!(stats.memo_answered, 1, "{}", case.name);
        assert_requests_add_up(&stats);
    }
}

#[test]
fn four_clients_replaying_a_warmed_stream_match_private_sessions() {
    const CLIENTS: usize = 4;
    let corpus = corpus();
    let stream = mixed_stream(&corpus, 9, 320);
    let mut sessions: HashMap<&str, CompileSession> = HashMap::new();
    for case in &corpus.cases {
        let session = CompileSession::new(&case.source, &case.name).unwrap();
        sessions.insert(case.source.text.as_str(), session);
    }
    let service = CompileService::new(ServeConfig::default());
    // Warm half the stream, so the replay mixes memo hits with misses that
    // lead, coalesce and resume concurrently.
    for request in &stream[..stream.len() / 2] {
        service.compile(request).expect("the warm-up serves");
    }
    let replies: Vec<Vec<CompileResponse>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    stream
                        .iter()
                        .map(|r| service.compile(r).expect("the replay serves"))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for responses in &replies {
        for (i, (request, response)) in stream.iter().zip(responses).enumerate() {
            let session = &sessions[request.source.as_str()];
            let expected = if request.specialize.is_general() {
                session.text_for(request.flags, response.backend)
            } else {
                session.text_for_spec(request.flags, &request.specialize, response.backend)
            }
            .unwrap();
            assert_eq!(response.text, expected, "request {i}");
            assert_eq!(response.analysis.is_some(), request.analyze.is_some());
        }
    }
    let stats = service.stats();
    assert_eq!(stats.requests, stream.len() / 2 + CLIENTS * stream.len());
    assert_eq!(stats.compile_panics, 0);
    assert_eq!(stats.front_errors, 0);
    assert!(stats.memo_answered > 0, "{stats:?}");
    assert_requests_add_up(&stats);
}

/// Four leaders of different keys on one base, released together, each
/// serve a private session's text.
#[test]
fn concurrent_leaders_of_different_keys_on_one_base_match_private_sessions() {
    let corpus = Corpus::gfxbench_like();
    for case in corpus.cases.iter().step_by(13) {
        let source = case.source.text.as_str();
        let service = CompileService::new(ServeConfig::default());
        // Memoise the front stage, so the four requests race in the walk.
        let warm_up = CompileRequest::new(source, OptFlags::NONE, BackendKind::DesktopGlsl);
        service.compile(&warm_up).expect("the warm-up serves");
        let barrier = Barrier::new(BackendKind::ALL.len());
        let responses: Vec<CompileResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = BackendKind::ALL
                .map(|backend| {
                    let (barrier, service) = (&barrier, &service);
                    scope.spawn(move || {
                        barrier.wait();
                        let request = CompileRequest::new(source, OptFlags::all(), backend);
                        service.compile(&request).expect("the request serves")
                    })
                })
                .into_iter()
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let session = CompileSession::new(&case.source, &case.name).unwrap();
        for response in &responses {
            let expected = session.text_for(OptFlags::all(), response.backend).unwrap();
            let at = format!("{} {}", case.name, response.backend);
            assert_eq!(response.text, expected, "{at}");
        }
        assert_requests_add_up(&service.stats());
    }
}
