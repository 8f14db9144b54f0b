//! # prism-corpus — the GFXBench-4.0-like benchmark shader corpus
//!
//! GFXBench 4.0 is proprietary, so the study's shaders cannot be shipped;
//! this crate provides a synthetic substitute for them:
//! around a hundred fragment shaders organised into übershader families
//! specialised through `#define` switches (§IV-A of the paper), plus the
//! hand-written flagship shaders including the paper's Listing-1 blur.
//! The corpus is deterministic and matches the structural statistics the
//! paper reports in §V (size distribution, loop/branch rarity, constant
//! divisions, per-component vector writes).
//!
//! ```
//! use prism_corpus::Corpus;
//! let corpus = Corpus::gfxbench_like();
//! assert!(corpus.len() >= 100);
//! assert!(corpus.blur9().source.text.contains("weightTotal"));
//! ```

pub mod corpus;
pub mod families;
pub mod flagship;

pub use corpus::{Corpus, CorpusStats, LocSummary, ShaderCase};
pub use families::{all_families, Family};
