//! Seeded request streams for the serve workloads.
//!
//! [`draw`] samples exactly the stream [`prism_serve::request_stream`]
//! samples — same population order, same cumulative weights, same RNG draws
//! — but returns population indices instead of requests, so the benchmark
//! never materialises the whole population (106,496 source copies for the
//! cold stream's 256 flag sets). The benchmark's tests pin the two to each
//! other.

use prism_core::OptFlags;
use prism_corpus::Corpus;
use prism_emit::BackendKind;
use prism_gpu::Vendor;
use prism_serve::{CompileRequest, StreamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests in one pass of the cold stream.
pub const COLD_REQUESTS: usize = 30_000;
/// Requests in one pass of the hot stream.
pub const HOT_REQUESTS: usize = 16_384;
/// One request in this many asks for a static analysis.
pub const ANALYZE_SHARE: u64 = 8;
/// Responses per stream checked against a private session.
pub const CHECK_SAMPLE: usize = 128;

/// Mixes a run seed into a per-purpose seed.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// The cold stream's spec: uniform (`skew` 0) over every shader × all 256
/// flag sets × 4 backends.
pub fn cold_spec(seed: u64) -> StreamSpec {
    StreamSpec {
        seed: derive(seed, 1),
        requests: COLD_REQUESTS,
        skew: 0.0,
        flag_sets: OptFlags::all_combinations().collect(),
    }
}

/// The hot stream's spec: the standard Zipf-1.8 serving mix.
pub fn hot_spec(seed: u64) -> StreamSpec {
    StreamSpec::standard(derive(seed, 2), HOT_REQUESTS)
}

/// One request of a stream, by reference into the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Corpus index of the shader.
    pub shader: usize,
    /// Flag set.
    pub flags: OptFlags,
    /// Emission backend.
    pub backend: BackendKind,
    /// Static-analysis personality, when the request asks for one.
    pub analyze: Option<Vendor>,
}

impl Item {
    /// The request this item stands for.
    pub fn request(&self, corpus: &Corpus) -> CompileRequest {
        let builder = CompileRequest::builder(&corpus.cases[self.shader].source.text)
            .flags(self.flags)
            .backend(self.backend);
        match self.analyze {
            Some(vendor) => builder.analyze(vendor).build(),
            None => builder.build(),
        }
    }
}

/// Samples `spec`'s stream over `corpus` as items (no analysis requests).
pub fn draw(corpus: &Corpus, spec: &StreamSpec) -> Vec<Item> {
    let backends = BackendKind::ALL.len();
    let per_shader = spec.flag_sets.len() * backends;
    let population = corpus.len() * per_shader;
    assert!(population > 0, "empty corpus or flag sets");
    let mut cumulative = Vec::with_capacity(population);
    let mut total = 0.0;
    for rank in 0..population {
        total += 1.0 / ((rank + 1) as f64).powf(spec.skew);
        cumulative.push(total);
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.requests)
        .map(|_| {
            let u = rng.gen_range(0.0..total);
            let idx = cumulative.partition_point(|&c| c <= u).min(population - 1);
            Item {
                shader: idx / per_shader,
                flags: spec.flag_sets[idx % per_shader / backends],
                backend: BackendKind::ALL[idx % backends],
                analyze: None,
            }
        })
        .collect()
}

/// Marks a seeded one-in-[`ANALYZE_SHARE`] share of `items` as analysis
/// requests, each for a seeded platform personality.
pub fn add_analyses(items: &mut [Item], seed: u64) {
    let mut rng = StdRng::seed_from_u64(derive(seed, 3));
    for item in items {
        if rng.next_u64() % ANALYZE_SHARE == 0 {
            let vendor = Vendor::ALL[(rng.next_u64() % Vendor::ALL.len() as u64) as usize];
            item.analyze = Some(vendor);
        }
    }
}

/// A seeded sample of [`CHECK_SAMPLE`] distinct stream positions, as a
/// per-position flag.
pub fn check_sample(len: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 4));
    let mut picked = vec![false; len];
    let want = CHECK_SAMPLE.min(len);
    let mut count = 0;
    while count < want {
        let i = (rng.next_u64() % len as u64) as usize;
        if !picked[i] {
            picked[i] = true;
            count += 1;
        }
    }
    picked
}

/// A seeded stream, ready to serve.
pub struct Stream {
    /// The items, in stream order.
    pub items: Vec<Item>,
    /// The requests, in stream order.
    pub requests: Vec<CompileRequest>,
    /// Positions whose responses are checked.
    pub checked: Vec<bool>,
}

impl Stream {
    /// Draws `spec`'s stream with the seeded analysis share and check sample.
    pub fn new(corpus: &Corpus, spec: &StreamSpec, seed: u64) -> Stream {
        let mut items = draw(corpus, spec);
        add_analyses(&mut items, seed);
        let requests = items.iter().map(|item| item.request(corpus)).collect();
        let checked = check_sample(items.len(), seed);
        Stream {
            items,
            requests,
            checked,
        }
    }
}
