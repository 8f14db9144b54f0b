//! # perfbench — wall-clock benchmark of the prism workspace
//!
//! Three workloads, each measured end to end with tracing off:
//!
//! * `study` — one `run_study` over the full `Corpus::gfxbench_like()`
//!   (104 shaders × 256 flag sets × 7 platforms) per pass, on `nproc`
//!   workers, starting cold;
//! * `serve_cold` — a seeded uniform stream over every shader × flag set ×
//!   backend, one closed-loop client, a fresh inline `CompileService` per
//!   pass (the write path);
//! * `serve_hot` — a seeded Zipf-1.8 stream replayed by `nproc` closed-loop
//!   clients against a service warm-booted from a snapshot (the hit path).
//!
//! A traced run (`--trace 1`) times every layer from outside, by wrapping
//! the calls into each crate's public functions in spans ([`trace`]). See
//! `METRICS.md` beside this package for which layer metric should move
//! which end-to-end metric on which workload.

pub mod run;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod study;
pub mod trace;
