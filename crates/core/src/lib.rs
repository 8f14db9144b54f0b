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
//! * [`front`](mod@front) — the one front door: text in any source form →
//!   lowered, verified IR, for the drivers, the compile service and the
//!   schedule canary.
//! * [`lower`](mod@lower) — GLSL AST → IR lowering (matrix scalarisation, inlining).
//! * [`passes`] — the optimization passes themselves, named by the one
//!   [`Pass`] enum every pass list (optimizer, specializer, drivers) is a
//!   constant table of.
//! * [`pipeline`] — the staged pass schedule [`SCHEDULE`] and single-shot
//!   compilation.
//! * [`session`] — lower-once, prefix-shared variant compilation sessions
//!   with per-backend (desktop GLSL / mobile GLES) emission memos.
//! * [`cache`] — the memo store: a thread-safe fingerprint transition graph
//!   with one entry type across its edge, emission and analysis planes,
//!   private to a standalone session or shared by a whole study sweep,
//!   optionally bounded with LRU eviction (a [`Pinned`] node is never
//!   reclaimed) and persisted for warm starts.
//! * [`walk`] — the one walk over that graph, standing on graph nodes and
//!   fetching IR only to run a stage, and the one emission-memo step,
//!   shared by sessions, the compile service and the driver memo.
//! * [`variant`] — exhaustive variant generation and deduplication (§V-C).

pub mod cache;
pub mod flags;
pub mod front;
pub mod lower;
pub mod passes;
pub mod pipeline;
pub mod session;
pub mod specialize;
pub mod variant;
pub mod walk;

pub use cache::persist::{LoadReport, SaveReport};
pub use cache::{
    shard_of, CacheStats, CacheStore, CorpusCache, Node, Pinned, Snapshot, FINGERPRINT_SHARDS,
};
pub use flags::{Flag, OptFlags};
pub use front::{front, Front};
pub use lower::{lower, LowerError};
pub use passes::Pass;
pub use pipeline::{compile, compile_ir, CompileError, CompiledShader, Stage, SCHEDULE};
/// The one stable byte hash, re-exported for crates above this one that do
/// not depend on `prism-ir` themselves.
pub use prism_ir::hash::fnv64;
pub use session::CompileSession;
pub use specialize::{
    candidate_keys, specialize_shader, verify_specialization, GuardedDispatch, SpecAssumption,
    SpecDivergence, SpecError, SpecKey, SpecValue, SpecVerification,
};
pub use variant::{unique_variants, Variant, VariantSet};
pub use walk::{emit_memoised, walk_stages, SessionStats, Walk};
