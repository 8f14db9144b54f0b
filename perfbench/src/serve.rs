//! The `serve_cold` and `serve_hot` workloads and their traced runs.
//!
//! Clients are closed loops: each sends its next request only after the
//! previous response arrived. Every request is timed on its own; a pass's
//! percentiles come from that pass's requests, and a run reports the median
//! pass. Output checks run after the timed window: a seeded sample of
//! responses must be byte-identical to a private
//! [`CompileSession::text_for`], which shares no route, coalesce or memo
//! state with the service.

use crate::stream::{Item, Stream};
use crate::trace::{Recorder, Span};
use prism_core::{CacheStore, CompileSession};
use prism_corpus::Corpus;
use prism_ir::fingerprint::Fingerprint;
use prism_serve::{CompileResponse, CompileService, ServeConfig};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// What clients saw during one pass over a stream.
#[derive(Default)]
pub struct Pass {
    /// Per-request latency, in ns.
    pub latencies: Vec<usize>,
    /// Wall-clock from the first request sent to the last response.
    pub wall: Duration,
    /// Sampled responses, by stream position.
    pub sampled: Vec<(usize, Arc<str>)>,
    /// Requests that returned an error.
    pub errors: usize,
    /// Responses whose analysis report is missing or unrequested.
    pub bad_analysis: usize,
    /// Responses that did compile work (stage runs or emissions).
    pub worked: usize,
    /// Spans, one list per client (empty unless traced).
    pub spans: Vec<Vec<Span>>,
    /// Distinct optimized-IR fingerprints served (collected only when traced).
    pub fingerprints: HashSet<Fingerprint>,
}

impl Pass {
    /// Requests served per second.
    pub fn rps(&self) -> f64 {
        self.latencies.len() as f64 / self.wall.as_secs_f64()
    }
}

/// The span name for a response, by the work it did: `serve.stage` if any
/// stage ran, else `serve.emit` if it emitted, else `analyze.fresh` if it
/// ran a fresh static analysis, else `serve.memo`.
fn class_of(response: &CompileResponse, fresh_analysis: bool) -> &'static str {
    if response.work.stage_runs > 0 {
        "serve.stage"
    } else if response.work.emissions > 0 {
        "serve.emit"
    } else if fresh_analysis {
        "analyze.fresh"
    } else {
        "serve.memo"
    }
}

/// One closed-loop client serving positions `client, client + clients, …`
/// of `stream`. With a recorder, each request is a span named by
/// [`class_of`]; fresh analyses are told apart by the cache's
/// `static_analyses` counter, read only after analysis requests (no other
/// request moves it), which is exact for a single client.
fn client(
    service: &CompileService,
    stream: &Stream,
    client: usize,
    clients: usize,
    mut rec: Option<&mut Recorder>,
) -> (Pass, Instant, Instant) {
    let mut pass = Pass::default();
    let mut analyses = service.cache().stats().static_analyses;
    let start = Instant::now();
    for position in (client..stream.requests.len()).step_by(clients) {
        let request = &stream.requests[position];
        let open = rec.as_deref_mut().map(|rec| {
            rec.set_request(position as u64);
            rec.begin()
        });
        let sent = Instant::now();
        let result = service.compile(request);
        pass.latencies.push(sent.elapsed().as_nanos() as usize);
        match result {
            Ok(response) => {
                if let (Some(rec), Some(open)) = (rec.as_deref_mut(), open) {
                    let mut fresh = false;
                    if request.analyze.is_some() {
                        let now = service.cache().stats().static_analyses;
                        fresh = now > analyses;
                        analyses = now;
                    }
                    rec.end(open, class_of(&response, fresh));
                    pass.fingerprints.insert(response.fingerprint);
                }
                if response.work.latency() > 0 {
                    pass.worked += 1;
                }
                if response.analysis.is_some() != request.analyze.is_some() {
                    pass.bad_analysis += 1;
                }
                if stream.checked[position] {
                    pass.sampled.push((position, response.text));
                }
            }
            Err(_) => {
                if let (Some(rec), Some(open)) = (rec.as_deref_mut(), open) {
                    rec.end(open, "serve.error");
                }
                pass.errors += 1;
            }
        }
    }
    (pass, start, Instant::now())
}

/// Serves the whole stream once from `clients` closed-loop client threads
/// (inline on this thread for one client), each with a recorder when
/// `traced`.
pub fn serve_pass(service: &CompileService, stream: &Stream, clients: usize, traced: bool) -> Pass {
    let epoch = Instant::now();
    if clients == 1 {
        let mut rec = traced.then(|| Recorder::new(epoch));
        let (mut pass, start, end) = client(service, stream, 0, 1, rec.as_mut());
        pass.wall = end - start;
        pass.spans = rec.into_iter().map(Recorder::into_spans).collect();
        return pass;
    }
    let barrier = Barrier::new(clients);
    let parts: Vec<(Pass, Instant, Instant, Option<Recorder>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rec = traced.then(|| Recorder::new(epoch));
                    barrier.wait();
                    let (pass, start, end) = client(service, stream, c, clients, rec.as_mut());
                    (pass, start, end, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = parts
        .iter()
        .map(|p| p.1)
        .min()
        .expect("at least one client");
    let end = parts
        .iter()
        .map(|p| p.2)
        .max()
        .expect("at least one client");
    let mut pass = Pass {
        wall: end - start,
        ..Pass::default()
    };
    for (part, _, _, rec) in parts {
        pass.latencies.extend(part.latencies);
        pass.sampled.extend(part.sampled);
        pass.errors += part.errors;
        pass.bad_analysis += part.bad_analysis;
        pass.worked += part.worked;
        pass.fingerprints.extend(part.fingerprints);
        pass.spans.extend(rec.map(Recorder::into_spans));
    }
    pass
}

/// The text a private session emits for `item`: the check's reference.
fn reference_text(corpus: &Corpus, item: &Item) -> Option<Arc<str>> {
    let case = &corpus.cases[item.shader];
    let session = CompileSession::new(&case.source, &case.name).ok()?;
    session.text_for(item.flags, item.backend).ok()
}

/// Checks sampled responses against private sessions. Returns how many
/// were checked and how many differed.
pub fn check_samples(
    corpus: &Corpus,
    stream: &Stream,
    sampled: &[(usize, Arc<str>)],
) -> (usize, usize) {
    let mut references: HashMap<usize, Option<Arc<str>>> = HashMap::new();
    let mut failed = 0;
    for (position, text) in sampled {
        let reference = references
            .entry(*position)
            .or_insert_with(|| reference_text(corpus, &stream.items[*position]));
        if reference.as_deref() != Some(&**text) {
            failed += 1;
        }
    }
    (sampled.len(), failed)
}

/// A fresh scratch directory for one snapshot, under `root`.
fn snapshot_dir(root: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = root.join(format!(
        "snapshot-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A warm-booted service ready for the hot window, and what booting cost.
pub struct HotService {
    /// The booted service (front memo warmed).
    pub service: CompileService,
    /// Time to write the snapshot.
    pub save: Duration,
    /// Time to boot a service from the snapshot.
    pub load: Duration,
    /// Requests that failed while warming.
    pub errors: usize,
}

/// The hot set-up: serve the stream once on a cold service, snapshot it,
/// boot a new service from the snapshot, and warm its front memo with one
/// request per distinct source. The snapshot directory is removed before
/// returning.
pub fn boot_hot(stream: &Stream, scratch: &Path) -> HotService {
    let dir = snapshot_dir(scratch);
    let config = ServeConfig::default().with_warm_start_dir(&dir);
    let cold = CompileService::new(config.clone());
    let mut errors = serve_pass(&cold, stream, 1, false).errors;
    let saved = Instant::now();
    let saved_ok = cold.shutdown().is_ok();
    let save = saved.elapsed();
    let loaded = Instant::now();
    let service = CompileService::new(config);
    let load = loaded.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    if !saved_ok {
        errors += 1;
    }
    let mut warmed = HashSet::new();
    for (item, request) in stream.items.iter().zip(&stream.requests) {
        if warmed.insert(item.shader) && service.compile(request).is_err() {
            errors += 1;
        }
    }
    HotService {
        service,
        save,
        load,
        errors,
    }
}
