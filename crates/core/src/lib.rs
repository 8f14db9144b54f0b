//! # prism-core — the LunarGlass-style shader optimization framework
//!
//! This crate is the reproduction of the paper's primary software artifact:
//! an offline, source-to-source shader optimizer driven by eight
//! command-line-style flags (§III). It lowers GLSL to the prism IR, runs the
//! always-on canonicalisation passes plus whichever flag-controlled passes are
//! enabled, and emits GLSL again, ready to be handed to a (simulated) GPU
//! driver.
//!
//! * [`flags`] — the 8 optimization flags and their 256 combinations.
//! * [`lower`](mod@lower) — GLSL AST → IR lowering (matrix scalarisation, inlining).
//! * [`passes`] — the optimization passes themselves.
//! * [`pipeline`] — the staged pass schedule and single-shot compilation.
//! * [`session`] — lower-once, prefix-shared variant compilation sessions
//!   with per-backend (desktop GLSL / mobile GLES) emission memos.
//! * [`cache`] — the memo store: a thread-safe fingerprint transition graph,
//!   private to a standalone session or shared by a whole study sweep,
//!   optionally bounded with LRU eviction and per-family hit-rate telemetry.
//! * [`walk`] — the one walk over that graph and the one emission-memo
//!   step, shared by sessions, the compile service and the driver memo.
//! * [`variant`] — exhaustive variant generation and deduplication (§V-C).

pub mod cache;
pub mod flags;
pub mod lower;
pub mod passes;
pub mod pipeline;
pub mod session;
pub mod specialize;
pub mod variant;
pub mod walk;

pub use cache::persist::{LoadReport, SaveReport};
pub use cache::{
    shard_of, CacheStats, CacheStore, CorpusCache, FamilyCacheStats, Snapshot, FINGERPRINT_SHARDS,
};
pub use flags::{Flag, OptFlags};
pub use lower::{lower, LowerError};
pub use pipeline::{
    build_pipeline, build_schedule, compile, compile_ir, CompileError, CompiledShader, Stage,
};
pub use session::CompileSession;
pub use specialize::{
    candidate_keys, spec_counters, specialize_shader, verify_specialization, GuardedDispatch,
    SpecAssumption, SpecCounters, SpecDivergence, SpecError, SpecKey, SpecValue, SpecVerification,
};
pub use variant::{unique_variants, Variant, VariantSet};
pub use walk::{emit_memoised, walk_stages, SessionStats};
