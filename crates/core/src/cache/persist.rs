//! Persistent warm-start snapshots of a [`CorpusCache`].
//!
//! The study sweep amortises compilation *within* a process through the
//! shared corpus cache; this module amortises it *across* processes: after a
//! sweep, [`CorpusCache::save`] writes the transition graph — the exemplar
//! store (one IR per distinct structure, with its clean-stage identity
//! mask) and the three memo planes: stage-transition edges, emitted text and
//! static-analysis reports — to disk, and a later run's
//! [`CorpusCache::load`] warm-starts from it so the second sweep of the same
//! corpus performs strictly fewer stage runs and emissions while producing
//! byte-identical results.
//!
//! # On-disk format (version 3)
//!
//! One file per fingerprint-range shard (`shard-NN.json`, reusing the
//! cache's 16-way shard split, so a serving layer can distribute the shard
//! files across processes without re-keying anything). Each file holds
//! exactly two lines:
//!
//! 1. a header object carrying the [`FORMAT_VERSION`], the FNV-64 hash of
//!    the current pass schedule ([`schedule_hash`]), the shard index, the
//!    entry count (edges + emissions + analyses; exemplars are storage, not
//!    entries) and an FNV-64 checksum of the payload line;
//! 2. the payload: the shard's exemplars — each IR serialised bit-exactly
//!    (`prism_ir::serde_impls`) exactly **once**, with its clean-stage mask —
//!    followed by its edges, emissions and analyses, which reference
//!    exemplars by file-local index (edges may point at an output exemplar
//!    in another shard's file: `output_shard` + index there). Version 1
//!    stored one IR clone per entry; version 2 stores one per distinct
//!    structure, and the load path computes each exemplar's fingerprint once
//!    (memoised) instead of once per entry.
//!
//! # Trust policy
//!
//! A shard is loaded whole or not at all, and **skipped — never trusted —**
//! whenever anything disagrees: unreadable or torn file, header/payload
//! parse error, version or pass-schedule-hash mismatch (version-1 snapshots
//! are rejected here — cold start, never misread), checksum mismatch, entry
//! count mismatch, an exemplar whose recomputed fingerprint lands in the
//! wrong shard, an unknown stage, or an entry referencing a file-local
//! exemplar index out of range. Two exceptions are entry-local and
//! *forward-compatible*: an emission recorded under a backend name this
//! build does not know (a snapshot written by a newer build with more
//! backends), and an edge whose output exemplar lives in a shard file that
//! was itself skipped or deleted — both skip just that entry, counted in
//! `CacheStats::warm_entries_skipped`, because neither is corruption of
//! *this* shard and rejecting the whole file would punish every neighbour.
//! Shard skips are counted (`CacheStats::warm_shards_skipped`) so a degraded
//! warm start is visible, and fingerprints are always *recomputed* from the
//! deserialised IR rather than read from the file, so a
//! corrupted-but-parseable exemplar can never poison a bucket under a wrong
//! key. Loaded entries answer lookups through the same interning and
//! structural-equality confirmation as live ones; on top of that,
//! save→load→save is idempotent and the shard files are byte-deterministic
//! (exemplars and entries are sorted before writing).

use super::{CorpusCache, EntryValue, NodeCell, NodeId, Plane, Snapshot, SHARDS};
use crate::pipeline::SCHEDULE;
use prism_emit::BackendKind;
use prism_ir::fingerprint::{fingerprint, Fingerprint};
use prism_ir::hash::fnv64;
use prism_ir::verify::verify;
use prism_ir::Shader;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Version stamp of the on-disk shard format. Bump on any encoding change;
/// old snapshots are then skipped (cold start), never misread. Version 2:
/// the transition-graph layout (interned exemplars + index-based edges)
/// replacing version 1's one-IR-clone-per-entry layout. Version 3: the
/// static-analysis memo joins the payload (`analyses`, keyed by platform
/// personality), and every exemplar is run through the IR verifier at load
/// time — a non-verifying exemplar is dropped with its dependent entries
/// (`LoadReport::verify_rejects`), never interned.
pub const FORMAT_VERSION: u32 = 3;

/// A canary fragment shader pushed through the whole compiler to fingerprint
/// its *behaviour* (see [`schedule_hash`]). It deliberately gives every pass
/// something to chew on: a constant-bound loop with a constant-array
/// accumulator (unroll, const-fold, rename), a division by a foldable total
/// (div-to-mul, fp-reassociate), a conditional (hoist), per-component vector
/// assembly (coalesce), and repeated subexpressions (cse, gvn, dce/adce).
const CANARY: &str = r#"
    uniform sampler2D tex; uniform vec4 ambient; in vec2 uv; out vec4 c;
    void main() {
        const vec2[] offs = vec2[](vec2(-0.01), vec2(0.0), vec2(0.01));
        c = vec4(0.0);
        float total = 0.0;
        for (int i = 0; i < 3; i++) {
            total += 0.25;
            c += texture(tex, uv + offs[i]) * 2.0 * ambient;
        }
        c /= total;
        c = (uv.x > 0.5) ? c : c * 0.5;
        c.x = c.x + uv.y * 3.0 + uv.y * 3.0;
    }
"#;

/// A stable fingerprint of the compiler that produced a snapshot: the pass
/// schedule's *structure* (stage order, labels, gating flags, per-stage pass
/// lists) combined with its observable *behaviour* — the `CANARY` shader goes
/// through the [front door](fn@crate::front) and every stage (flagged or
/// not), hashing the IR fingerprint after each stage and the emitted text of
/// every backend.
/// Cached transitions are only meaningful for the exact compiler that
/// produced them, and renames are not the only way compilers change: a
/// reworked pass or emitter with untouched names shifts the canary trace and
/// reads old snapshots as stale, where hashing names alone would silently
/// trust outputs of the old implementation.
///
/// Deterministic within a build, so the canary compilation runs once per
/// process (memoised) rather than once per save/load.
pub fn schedule_hash() -> u64 {
    static HASH: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *HASH.get_or_init(compute_schedule_hash)
}

fn compute_schedule_hash() -> u64 {
    use std::fmt::Write as _;
    let mut description = String::new();
    for (idx, stage) in SCHEDULE.iter().enumerate() {
        let _ = write!(
            description,
            "{idx}:{}:{}:",
            stage.label,
            stage.flag.map(|f| f.name()).unwrap_or("-"),
        );
        for pass in stage.passes {
            description.push_str(pass.name());
            description.push(',');
        }
        description.push(';');
    }
    let mut ir = crate::front(BackendKind::DesktopGlsl, CANARY, "schedule-canary")
        .expect("the canary shader front-ends")
        .ir;
    for stage in SCHEDULE {
        stage.run(&mut ir);
        let _ = write!(description, "{}={};", stage.label, fingerprint(&ir));
    }
    for backend in BackendKind::ALL {
        description.push_str(&backend.emit(&ir));
    }
    fnv64(description.as_bytes())
}

/// Outcome of a [`CorpusCache::load`]: how much of the snapshot was usable.
/// The same numbers are mirrored into the cache's
/// [`CacheStats`](super::CacheStats) (`warm_*` counters) so study results
/// carry them without extra plumbing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Shard files accepted and restored in full.
    pub shards_loaded: usize,
    /// Shard files present but rejected (see the module's trust policy);
    /// each degrades to a cold shard.
    pub shards_skipped: usize,
    /// Entries restored across all three memo planes.
    pub entries_loaded: usize,
    /// Entries inside accepted shards that were individually skipped: an
    /// emission under a backend name unknown to this build (a snapshot from
    /// a newer build — forward compatibility, not corruption), an analysis
    /// under an unregistered platform personality, an entry referencing a
    /// verify-rejected exemplar, an edge whose output exemplar lives in a
    /// shard file that was skipped or deleted, or an entry whose node a
    /// bounded budget reclaimed while earlier entries loaded (an entry is
    /// never inserted naming a node the store no longer holds).
    pub entries_skipped: usize,
    /// Persisted exemplars rejected by the IR verifier (dropped with their
    /// dependent entries, which are counted in `entries_skipped`).
    pub verify_rejects: usize,
}

/// Outcome of a [`CorpusCache::save`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveReport {
    /// Shard files written (always [`FINGERPRINT_SHARDS`](crate::FINGERPRINT_SHARDS) on success).
    pub shards_written: usize,
    /// Entries written across all three memo planes (exemplars are storage,
    /// not entries, and are not counted).
    pub entries_written: usize,
}

/// Shard-file header: the first line of every `shard-NN.json`.
struct ShardHeader {
    version: usize,
    schedule_hash: String,
    shard: usize,
    entries: usize,
    checksum: String,
}

serde::impl_serde_struct!(ShardHeader {
    version,
    schedule_hash,
    shard,
    entries,
    checksum
});

/// One persisted exemplar: a distinct IR structure, serialised exactly once,
/// with its clean-stage identity mask. Fingerprints are recomputed on load
/// (once per exemplar, memoised), not stored.
struct PersistedExemplar {
    clean_stages: usize,
    ir: Arc<Shader>,
}

serde::impl_serde_struct!(PersistedExemplar { clean_stages, ir });

/// One persisted stage-transition edge. `input` indexes this file's
/// exemplar list; `output` indexes the exemplar list of the file for shard
/// `output_shard` (edges cross shard boundaries whenever a stage changes the
/// fingerprint's shard).
struct PersistedEdge {
    stage: usize,
    input: usize,
    output_shard: usize,
    output: usize,
}

serde::impl_serde_struct!(PersistedEdge {
    stage,
    input,
    output_shard,
    output
});

/// One persisted emission: file-local index of the final-IR exemplar,
/// backend name, emitted text. The text is a plain `String` on disk (the
/// in-memory `Arc<str>` handle is not serialisable and would encode
/// identically anyway); load re-wraps it.
struct PersistedEmission {
    backend: String,
    input: usize,
    text: String,
}

serde::impl_serde_struct!(PersistedEmission {
    backend,
    input,
    text
});

/// One persisted static-analysis memo entry: file-local index of the
/// analysed exemplar, platform-personality name, serialised report JSON.
struct PersistedAnalysis {
    personality: String,
    input: usize,
    text: String,
}

serde::impl_serde_struct!(PersistedAnalysis {
    personality,
    input,
    text
});

/// The second line of a shard file.
struct ShardPayload {
    exemplars: Vec<PersistedExemplar>,
    transitions: Vec<PersistedEdge>,
    emissions: Vec<PersistedEmission>,
    analyses: Vec<PersistedAnalysis>,
}

serde::impl_serde_struct!(ShardPayload {
    exemplars,
    transitions,
    emissions,
    analyses
});

/// A standalone-validated shard file, parsed but not yet interned: the
/// exemplars with their recomputed fingerprints, and the entries still in
/// index form. Cross-file references (edge outputs) are resolved against the
/// other parsed files in a later phase.
struct ParsedShard {
    /// `None` slots are verify-rejected exemplars: the file-local index
    /// space is preserved so surviving entries still resolve, but nothing
    /// referencing a rejected slot loads.
    exemplars: Vec<Option<(Snapshot, u64)>>,
    transitions: Vec<(usize, usize, usize, usize)>,
    emissions: Vec<(BackendKind, usize, Arc<str>)>,
    analyses: Vec<(String, usize, Arc<str>)>,
    /// Unknown-backend emissions dropped during parsing.
    skipped_entries: usize,
    /// Exemplars the IR verifier rejected.
    verify_rejects: usize,
}

/// The snapshot file for one shard index.
fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02}.json"))
}

impl CorpusCache {
    /// Writes this cache's transition graph to `dir` as one versioned,
    /// checksummed file per fingerprint-range shard (see the
    /// [module docs](self) for the format and trust policy). Existing shard
    /// files are replaced via a temp-file rename, so a crashed writer never
    /// leaves a half-written shard under the real name.
    ///
    /// # Errors
    ///
    /// Returns a message if the directory cannot be created or a shard file
    /// cannot be serialised or written.
    pub fn save(&self, dir: &Path) -> Result<SaveReport, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("warm-start dir {}: {e}", dir.display()))?;
        let hash = format!("{:016x}", schedule_hash());

        // Phase 1: snapshot every shard's persistable exemplars and assign
        // file-local indices, building one global generation → (shard, index)
        // map first — edges reference output exemplars across shard files, so
        // no file can be written until every file's index space is known.
        // Exemplars nothing references and nothing is known about are dead
        // weight (e.g. session base states never transitioned, or a pinned
        // base with neither) and are not persisted.
        let mut shard_exemplars: Vec<Vec<PersistedExemplar>> = Vec::with_capacity(SHARDS);
        let mut index: HashMap<u64, (usize, usize)> = HashMap::new();
        for shard in 0..SHARDS {
            let mut list: Vec<(u128, u64, PersistedExemplar)> = {
                let map = self.exemplars[shard].read().expect("corpus cache poisoned");
                map.iter()
                    .flat_map(|(fp, chain)| {
                        chain.iter().filter_map(move |e| {
                            let clean = e.clean.load(Ordering::Relaxed);
                            (e.refs > 0 || clean != 0).then(|| {
                                let ir = Arc::clone(&e.ir);
                                let clean_stages = clean as usize;
                                (fp.0, e.gen, PersistedExemplar { clean_stages, ir })
                            })
                        })
                    })
                    .collect()
            };
            // Sorted by (fingerprint, generation): load interns in file
            // order, handing out ascending fresh generations, so this order
            // reproduces itself across save→load→save — byte determinism.
            list.sort_by_key(|(fp, gen, _)| (*fp, *gen));
            for (idx, (_, gen, _)) in list.iter().enumerate() {
                index.insert(*gen, (shard, idx));
            }
            shard_exemplars.push(list.into_iter().map(|(_, _, e)| e).collect());
        }

        let mut report = SaveReport::default();
        for (shard, exemplars) in shard_exemplars.into_iter().enumerate() {
            let payload = self.shard_payload(shard, exemplars, &index);
            let entries =
                payload.transitions.len() + payload.emissions.len() + payload.analyses.len();
            let payload_json = serde_json::to_string(&payload)
                .map_err(|e| format!("shard {shard} payload: {e}"))?;
            let header = ShardHeader {
                version: FORMAT_VERSION as usize,
                schedule_hash: hash.clone(),
                shard,
                entries,
                checksum: format!("{:016x}", fnv64(payload_json.as_bytes())),
            };
            let header_json =
                serde_json::to_string(&header).map_err(|e| format!("shard {shard} header: {e}"))?;
            let path = shard_path(dir, shard);
            let tmp = dir.join(format!(".shard-{shard:02}.tmp"));
            std::fs::write(&tmp, format!("{header_json}\n{payload_json}\n"))
                .map_err(|e| format!("write {}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &path)
                .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
            report.shards_written += 1;
            report.entries_written += entries;
        }
        Ok(report)
    }

    /// Restores a snapshot written by [`CorpusCache::save`] into this cache,
    /// marking every restored entry as warm (hits on them are reported as
    /// `warm_*` in [`CacheStats`](super::CacheStats)). Corruption-tolerant
    /// and infallible: a missing directory or missing shard files simply
    /// leave those shards cold, and any shard that fails validation is
    /// skipped and counted — see the [module docs](self).
    pub fn load(&self, dir: &Path) -> LoadReport {
        let mut report = LoadReport::default();
        let hash = format!("{:016x}", schedule_hash());
        let stage_count = SCHEDULE.len();

        // Phase A: read and standalone-validate every shard file. Nothing
        // touches the cache yet, so a bad file rejects cleanly.
        let mut parsed: Vec<Option<ParsedShard>> = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let text = match std::fs::read_to_string(shard_path(dir, shard)) {
                Ok(text) => Some(text),
                // Absent shard file: cold, but not corrupt — not a skip.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                // Present but unreadable (I/O error, permissions, invalid
                // UTF-8 from a binary-torn write): data was lost — count it.
                Err(_) => {
                    report.shards_skipped += 1;
                    None
                }
            };
            parsed.push(text.and_then(|text| {
                match parse_shard(shard, &text, &hash, stage_count) {
                    Ok(p) => Some(p),
                    Err(_reason) => {
                        report.shards_skipped += 1;
                        None
                    }
                }
            }));
        }

        // Phase B: intern the accepted files' exemplars, in file order (the
        // determinism contract with save), recording each file-local index's
        // node with its clean cell. A structure already present just merges
        // its clean mask; a verify-rejected slot stays `None` and never
        // touches the cache.
        let nodes: Vec<Vec<Option<NodeCell>>> = parsed
            .iter()
            .map(|p| match p {
                Some(p) => p
                    .exemplars
                    .iter()
                    .map(|slot| {
                        let (snap, clean) = slot.as_ref()?;
                        let (cell, _) = self.intern_node(snap, |e| {
                            e.clean.fetch_or(*clean, Ordering::Relaxed);
                        });
                        Some(cell)
                    })
                    .collect(),
                None => Vec::new(),
            })
            .collect();

        // Phase C: warm-insert edges, emissions and analyses. An edge holds
        // its output's cell, so it reads the output's loaded mask and every
        // bit set later. An entry whose exemplar was verify-rejected, an edge
        // whose output file was skipped (or whose output index outruns that
        // file), an analysis under a personality this process cannot
        // recompute (a newer or differently configured writer's entry —
        // forward compatibility, same as unknown backends), or an entry whose
        // node a bounded budget reclaimed while earlier entries loaded costs
        // only itself.
        for shard in 0..SHARDS {
            let Some(p) = &parsed[shard] else { continue };
            let input = |index: usize| nodes[shard][index].as_ref().map(|n| n.id);
            let mut loaded = 0usize;
            let mut skipped = p.skipped_entries;
            let edges = p
                .transitions
                .iter()
                .map(|&(stage, index, output_shard, output)| {
                    let output = nodes[output_shard].get(output).cloned().flatten()?;
                    Some((input(index)?, stage, output))
                });
            self.load_plane(&self.transitions, edges, &mut loaded, &mut skipped);
            let emissions = p
                .emissions
                .iter()
                .map(|(backend, index, text)| Some((input(*index)?, *backend, Arc::clone(text))));
            self.load_plane(&self.emissions, emissions, &mut loaded, &mut skipped);
            let analyses = p.analyses.iter().map(|(personality, index, text)| {
                let personality = self.registered_personality(personality)?;
                Some((input(*index)?, personality, Arc::clone(text)))
            });
            self.load_plane(&self.analyses, analyses, &mut loaded, &mut skipped);
            report.shards_loaded += 1;
            report.entries_loaded += loaded;
            report.entries_skipped += skipped;
            report.verify_rejects += p.verify_rejects;
        }

        self.warm_entries_loaded
            .fetch_add(report.entries_loaded, Ordering::Relaxed);
        self.warm_shards_loaded
            .fetch_add(report.shards_loaded, Ordering::Relaxed);
        self.warm_shards_skipped
            .fetch_add(report.shards_skipped, Ordering::Relaxed);
        self.warm_entries_skipped
            .fetch_add(report.entries_skipped, Ordering::Relaxed);
        self.warm_verify_rejects
            .fetch_add(report.verify_rejects, Ordering::Relaxed);
        report
    }

    /// One shard's payload, with every entry rewritten into file-index form
    /// against the phase-1 global index. Entries are sorted for byte
    /// determinism; an entry referencing an exemplar interned after phase 1
    /// took its snapshot (a save racing live sessions) is dropped — the
    /// store is a pure cache, so a dropped entry only costs a recompute.
    fn shard_payload(
        &self,
        shard: usize,
        exemplars: Vec<PersistedExemplar>,
        index: &HashMap<u64, (usize, usize)>,
    ) -> ShardPayload {
        let transitions =
            self.persisted_rows(&self.transitions, shard, index, |input, stage, out| {
                let (output_shard, output) = *index.get(&out.id.gen)?;
                Some((*stage, input, output_shard, output))
            });
        let emissions =
            self.persisted_rows(&self.emissions, shard, index, |input, backend, text| {
                Some((input, backend.name(), text.to_string()))
            });
        let analyses = self.persisted_rows(&self.analyses, shard, index, |input, name, text| {
            Some((input, name.to_string(), text.to_string()))
        });

        ShardPayload {
            exemplars,
            transitions: transitions
                .into_iter()
                .map(|(stage, input, output_shard, output)| PersistedEdge {
                    stage,
                    input,
                    output_shard,
                    output,
                })
                .collect(),
            emissions: emissions
                .into_iter()
                .map(|(input, backend, text)| PersistedEmission {
                    backend: backend.to_string(),
                    input,
                    text,
                })
                .collect(),
            analyses: analyses
                .into_iter()
                .map(|(input, personality, text)| PersistedAnalysis {
                    personality,
                    input,
                    text,
                })
                .collect(),
        }
    }

    /// One shard of `plane` as sorted persisted rows: `row` maps each entry
    /// whose input exemplar phase 1 indexed — its file-local input index,
    /// key and value — to a row, or drops it (an edge whose output was not
    /// indexed). Input indices order by (fingerprint, generation) within the
    /// file, so the sort is stable across save→load→save.
    fn persisted_rows<K, T, R: Ord>(
        &self,
        plane: &Plane<K, T>,
        shard: usize,
        index: &HashMap<u64, (usize, usize)>,
        row: impl Fn(usize, &K, &T) -> Option<R>,
    ) -> Vec<R> {
        let map = plane[shard].read().expect("corpus cache poisoned");
        let mut rows: Vec<R> = map
            .map
            .iter()
            .flat_map(|((_, key), bucket)| {
                bucket.iter().filter_map(|(_, e)| {
                    let (in_shard, input) = *index.get(&e.input_gen)?;
                    debug_assert_eq!(in_shard, shard, "entry keyed outside its input's shard");
                    row(input, key, &e.value)
                })
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Warm-inserts one shard's restored entries of `plane`; a `None` entry
    /// (see phase C of [`CorpusCache::load`]), or one naming a node that is
    /// gone by the time it lands, is skipped and counted.
    fn load_plane<K, T>(
        &self,
        plane: &Plane<K, T>,
        entries: impl Iterator<Item = Option<(NodeId, K, T)>>,
        loaded: &mut usize,
        skipped: &mut usize,
    ) where
        K: Eq + std::hash::Hash + Clone,
        T: EntryValue,
    {
        for entry in entries {
            match entry.and_then(|(input, k, value)| self.insert_warm(plane, input, k, value)) {
                Some(true) => *loaded += 1,
                Some(false) => {}
                None => *skipped += 1,
            }
        }
    }
}

/// Validates one shard file standalone — everything short of cross-file edge
/// targets is checked here, *before* any entry touches the cache. Each
/// exemplar's fingerprint is recomputed (and memoised into its `Arc`) exactly
/// once; unknown-backend emissions are dropped individually and counted.
fn parse_shard(
    shard: usize,
    text: &str,
    expected_hash: &str,
    stage_count: usize,
) -> Result<ParsedShard, String> {
    let (header_line, payload_text) = text
        .split_once('\n')
        .ok_or_else(|| "missing payload line".to_string())?;
    let header: ShardHeader =
        serde_json::from_str(header_line).map_err(|e| format!("header: {e}"))?;
    if header.version != FORMAT_VERSION as usize {
        return Err(format!(
            "format version {} (expected {FORMAT_VERSION})",
            header.version
        ));
    }
    if header.schedule_hash != expected_hash {
        return Err("pass-schedule hash mismatch (stale snapshot)".to_string());
    }
    if header.shard != shard {
        return Err(format!("shard index {} under file {shard}", header.shard));
    }
    let payload_text = payload_text.strip_suffix('\n').unwrap_or(payload_text);
    if format!("{:016x}", fnv64(payload_text.as_bytes())) != header.checksum {
        return Err("payload checksum mismatch (torn or corrupt)".to_string());
    }
    let payload: ShardPayload =
        serde_json::from_str(payload_text).map_err(|e| format!("payload: {e}"))?;
    if payload.transitions.len() + payload.emissions.len() + payload.analyses.len()
        != header.entries
    {
        return Err("entry count mismatch".to_string());
    }

    let mut exemplars = Vec::with_capacity(payload.exemplars.len());
    let mut verify_rejects = 0usize;
    for e in payload.exemplars {
        // The verifier runs before anything else: a persisted IR that no
        // longer satisfies the invariants (a buggy writer, or rot the
        // checksum happened to miss) is dropped alone — its file-local slot
        // stays reserved so surviving entries still index correctly, and the
        // shard check below is moot for IR nothing will ever intern.
        if verify(&e.ir).is_err() {
            verify_rejects += 1;
            exemplars.push(None);
            continue;
        }
        // The one fingerprint computation this exemplar will ever need: it
        // memoises into the Arc and every later intern/lookup reuses it.
        let fp: Fingerprint = fingerprint(&e.ir);
        if super::shard_of(fp) != shard {
            return Err("exemplar in wrong shard".to_string());
        }
        exemplars.push(Some((Snapshot { ir: e.ir, fp }, e.clean_stages as u64)));
    }

    let mut transitions = Vec::with_capacity(payload.transitions.len());
    for t in payload.transitions {
        if t.stage >= stage_count {
            return Err(format!("stage index {} out of schedule", t.stage));
        }
        if t.input >= exemplars.len() {
            return Err("edge input index out of range".to_string());
        }
        if t.output_shard >= SHARDS {
            return Err(format!("edge output shard {} out of range", t.output_shard));
        }
        transitions.push((t.stage, t.input, t.output_shard, t.output));
    }

    let mut emissions = Vec::with_capacity(payload.emissions.len());
    let mut skipped_entries = 0usize;
    for e in payload.emissions {
        // Forward compatibility: a backend this build has never heard of
        // means a *newer* writer, not corruption — the entry can never
        // answer a lookup here, so it is dropped alone and counted,
        // leaving the rest of the shard useful.
        let Some(backend) = BackendKind::from_name(&e.backend) else {
            skipped_entries += 1;
            continue;
        };
        if e.input >= exemplars.len() {
            return Err("emission input index out of range".to_string());
        }
        emissions.push((backend, e.input, Arc::<str>::from(e.text)));
    }

    let mut analyses = Vec::with_capacity(payload.analyses.len());
    for a in payload.analyses {
        if a.input >= exemplars.len() {
            return Err("analysis input index out of range".to_string());
        }
        // Personality names are validated against the loading cache's
        // registered set in phase C (the cache, not the file, knows them).
        analyses.push((a.personality, a.input, Arc::<str>::from(a.text)));
    }

    Ok(ParsedShard {
        exemplars,
        transitions,
        emissions,
        analyses,
        skipped_entries,
        verify_rejects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::transition;
    use crate::cache::{shard_of, CacheStore};
    use prism_ir::prelude::*;
    use std::sync::atomic::AtomicUsize;

    /// A fresh scratch directory per test (removed on drop).
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(label: &str) -> ScratchDir {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "prism-persist-{label}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn snapshot(seed: u32) -> Snapshot {
        let mut s = Shader::new("persist-test");
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
        Snapshot {
            fp: fingerprint(&s),
            ir: Arc::new(s),
        }
    }

    /// The personality `populated_cache` records its analyses under; a
    /// loader must register it to restore them.
    const PERSONALITY: &str = "Arm";

    /// A cache with a handful of entries of every plane across shards: 20
    /// transitions, 10 emissions and 5 analyses.
    fn populated_cache() -> CorpusCache {
        let cache = CorpusCache::new();
        cache.register_personalities(&[PERSONALITY]);
        let id = cache.register_session();
        for seed in 0..20u32 {
            cache.record_transition(id, seed as usize % 3, snapshot(seed), snapshot(seed + 500));
        }
        for seed in 0..10u32 {
            cache.record_emission(
                id,
                if seed % 2 == 0 {
                    BackendKind::DesktopGlsl
                } else {
                    BackendKind::Gles
                },
                &snapshot(seed),
                Arc::from(format!("void main() {{ /* {seed} */ }}")),
            );
        }
        for seed in 10..15u32 {
            let report = Arc::from(format!("{{\"seed\":{seed}}}"));
            cache.record_analysis(id, PERSONALITY, &snapshot(seed), report);
        }
        cache
    }

    /// An empty cache that can restore `populated_cache`'s analyses.
    fn warm_cache() -> CorpusCache {
        let warm = CorpusCache::new();
        warm.register_personalities(&[PERSONALITY]);
        warm
    }

    #[test]
    fn save_load_round_trips_every_entry() {
        let dir = ScratchDir::new("roundtrip");
        let cache = populated_cache();
        let saved = cache.save(&dir.0).unwrap();
        assert_eq!(saved.shards_written, SHARDS);
        assert_eq!(saved.entries_written, 35);

        let warm = warm_cache();
        let report = warm.load(&dir.0);
        assert_eq!(report.shards_skipped, 0);
        assert_eq!(report.entries_loaded, 35);
        assert_eq!(warm.entry_count(), cache.entry_count());
        let stats = warm.stats();
        assert_eq!(stats.warm_entries_loaded, 35);
        assert_eq!(stats.warm_shards_skipped, 0);

        // Every persisted transition, emission and analysis answers a lookup,
        // and the hits are attributed to the warm snapshot, not to any
        // session.
        let id = warm.register_session();
        for seed in 0..20u32 {
            let hit = transition(&warm, id, seed as usize % 3, &snapshot(seed))
                .unwrap_or_else(|| panic!("transition {seed} must warm-hit"));
            assert!(hit.ir.same_structure(&snapshot(seed + 500).ir));
        }
        for seed in 0..10u32 {
            let backend = if seed % 2 == 0 {
                BackendKind::DesktopGlsl
            } else {
                BackendKind::Gles
            };
            let text = warm
                .emission(id, backend, &warm.node(&snapshot(seed)))
                .unwrap_or_else(|| panic!("emission {seed} must warm-hit"));
            assert_eq!(*text, format!("void main() {{ /* {seed} */ }}"));
        }
        for seed in 10..15u32 {
            let report = warm
                .analysis(PERSONALITY, &warm.node(&snapshot(seed)))
                .unwrap_or_else(|| panic!("analysis {seed} must warm-hit"));
            assert_eq!(*report, format!("{{\"seed\":{seed}}}"));
        }
        let stats = warm.stats();
        assert_eq!(stats.warm_stage_hits, 20);
        assert_eq!(stats.warm_emission_hits, 10);
        assert_eq!(stats.warm_analysis_hits, 5);
        assert_eq!(stats.cross_shader_stage_hits, 0);
        assert_eq!(stats.stage_runs, 0, "warm hits must not count as runs");
    }

    #[test]
    fn identity_knowledge_round_trips() {
        // A clean-stage mask is graph knowledge, not an entry: it rides on
        // its exemplar, and a warm-started cache answers the stage in O(1)
        // as an identity transition.
        let dir = ScratchDir::new("identity");
        let cache = CorpusCache::new();
        let id = cache.register_session();
        let state = cache.intern(snapshot(1));
        cache.record_transition(id, 2, state.clone(), state.clone());
        assert_eq!(cache.node(&state).clean, 1 << 2);
        let saved = cache.save(&dir.0).unwrap();
        // The mask is storage, not an entry.
        assert_eq!(saved.entries_written, 0);

        let warm = CorpusCache::new();
        let report = warm.load(&dir.0);
        assert_eq!(report.shards_skipped, 0);
        let probe = snapshot(1);
        assert_eq!(warm.node(&probe).clean, 1 << 2);
        let wid = warm.register_session();
        let hit = transition(&warm, wid, 2, &probe).expect("warm identity hit");
        assert!(Arc::ptr_eq(&hit.ir, &probe.ir));
        let stats = warm.stats();
        assert_eq!(stats.identity_transitions, 1);
        assert_eq!(stats.stage_runs, 0);
    }

    #[test]
    fn save_is_byte_deterministic_and_idempotent_under_reload() {
        let dir_a = ScratchDir::new("determinism-a");
        let dir_b = ScratchDir::new("determinism-b");
        let cache = populated_cache();
        cache.save(&dir_a.0).unwrap();

        let warm = warm_cache();
        let report = warm.load(&dir_a.0);
        assert_eq!(report.entries_loaded, 35);
        warm.save(&dir_b.0).unwrap();
        for shard in 0..SHARDS {
            let a = std::fs::read_to_string(shard_path(&dir_a.0, shard)).unwrap();
            let b = std::fs::read_to_string(shard_path(&dir_b.0, shard)).unwrap();
            assert_eq!(a, b, "shard {shard} drifted across save→load→save");
        }
        // Loading the same snapshot twice adds nothing to any plane (dedup
        // by structure).
        let before = warm.entry_count();
        let exemplars_before = warm.exemplar_count();
        let report = warm.load(&dir_a.0);
        assert_eq!(report.entries_loaded, 0);
        assert_eq!(warm.entry_count(), before);
        assert_eq!(warm.exemplar_count(), exemplars_before);
    }

    #[test]
    fn corrupt_or_stale_shards_degrade_to_cold_without_panicking() {
        let dir = ScratchDir::new("corrupt");
        let cache = populated_cache();
        cache.save(&dir.0).unwrap();

        // Shard 0: truncated mid-payload (torn write).
        let path0 = shard_path(&dir.0, 0);
        let text = std::fs::read_to_string(&path0).unwrap();
        std::fs::write(&path0, &text[..text.len() / 2]).unwrap();
        // Shard 1: not JSON at all.
        std::fs::write(shard_path(&dir.0, 1), "definitely { not json").unwrap();
        // Shard 2: valid JSON, wrong format version.
        let path2 = shard_path(&dir.0, 2);
        let text2 = std::fs::read_to_string(&path2).unwrap();
        std::fs::write(&path2, text2.replace("\"version\":3", "\"version\":999")).unwrap();
        // Shard 3: header claims a different pass schedule.
        let path3 = shard_path(&dir.0, 3);
        let text3 = std::fs::read_to_string(&path3).unwrap();
        let hash = format!("{:016x}", schedule_hash());
        std::fs::write(&path3, text3.replace(&hash, "0000000000000000")).unwrap();
        // Shard 4: torn through a binary buffer — invalid UTF-8. Present but
        // unreadable is data loss and must be counted, unlike a missing file.
        std::fs::write(shard_path(&dir.0, 4), [0x7bu8, 0x22, 0xff, 0xfe, 0x00]).unwrap();

        let warm = CorpusCache::new();
        let report = warm.load(&dir.0);
        assert_eq!(report.shards_skipped, 5);
        assert_eq!(report.shards_loaded, SHARDS - 5);
        assert!(report.entries_loaded <= 35);
        let stats = warm.stats();
        assert_eq!(stats.warm_shards_skipped, 5);
        assert_eq!(stats.warm_shards_loaded, SHARDS - 5);
    }

    #[test]
    fn version_1_snapshots_are_rejected_whole() {
        // A pre-transition-graph snapshot (format version 1) stores one IR
        // clone per entry under a different payload schema. The version check
        // rejects it before any schema guesswork: cold start, never misread.
        let dir = ScratchDir::new("v1-reject");
        populated_cache().save(&dir.0).unwrap();
        for shard in 0..SHARDS {
            let path = shard_path(&dir.0, shard);
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replace("\"version\":3", "\"version\":2")).unwrap();
        }
        let warm = CorpusCache::new();
        let report = warm.load(&dir.0);
        assert_eq!(report.shards_loaded, 0);
        assert_eq!(report.shards_skipped, SHARDS);
        assert_eq!(report.entries_loaded, 0);
        assert_eq!(warm.entry_count(), 0);
    }

    #[test]
    fn cross_shard_edge_to_a_skipped_shard_costs_only_the_edge() {
        // populated_cache's transitions routinely cross shard boundaries
        // (input and output fingerprints land in different shards). Deleting
        // one shard file must cold-start that shard *and* skip — not reject —
        // every other shard's edges whose output lived there.
        let dir = ScratchDir::new("cross-shard");
        let cache = populated_cache();
        cache.save(&dir.0).unwrap();

        // Find a shard that some *other* shard's edge points into.
        let mut victim = None;
        'outer: for shard in 0..SHARDS {
            let text = std::fs::read_to_string(shard_path(&dir.0, shard)).unwrap();
            let (_, payload) = text.split_once('\n').unwrap();
            let payload: ShardPayload = serde_json::from_str(payload.trim_end()).unwrap();
            for t in &payload.transitions {
                if t.output_shard != shard {
                    victim = Some(t.output_shard);
                    break 'outer;
                }
            }
        }
        let victim = victim.expect("populated cache has cross-shard edges");
        std::fs::remove_file(shard_path(&dir.0, victim)).unwrap();

        let warm = CorpusCache::new();
        let report = warm.load(&dir.0);
        // A missing file is cold, not corrupt.
        assert_eq!(report.shards_skipped, 0);
        assert_eq!(report.shards_loaded, SHARDS - 1);
        assert!(
            report.entries_skipped > 0,
            "dangling cross-shard edges must be skipped individually"
        );
        assert_eq!(
            report.entries_loaded + report.entries_skipped,
            35 - entries_in_shard(&cache, victim),
            "every surviving shard's entries are either loaded or skipped"
        );
    }

    /// Entries of one shard of a live cache, across all three planes.
    fn entries_in_shard(cache: &CorpusCache, shard: usize) -> usize {
        cache.transitions[shard].read().unwrap().entries
            + cache.emissions[shard].read().unwrap().entries
            + cache.analyses[shard].read().unwrap().entries
    }

    #[test]
    fn unknown_future_backend_entry_is_skipped_not_the_shard() {
        // A snapshot written by a *newer* build can tag emissions with a
        // backend this build has never heard of. That is not corruption:
        // exactly the unknown entry is dropped (and counted), the rest of
        // the shard stays warm.
        let dir = ScratchDir::new("future-backend");
        let cache = populated_cache();
        cache.save(&dir.0).unwrap();

        let mut patched_shard = None;
        for shard in 0..SHARDS {
            let path = shard_path(&dir.0, shard);
            let text = std::fs::read_to_string(&path).unwrap();
            let (header_line, payload) = text.split_once('\n').unwrap();
            if !payload.contains("\"backend\":\"gles\"") {
                continue;
            }
            let payload = payload.trim_end();
            let patched = payload.replacen("\"backend\":\"gles\"", "\"backend\":\"webgpu\"", 1);
            // Keep the shard otherwise pristine: same entry count, a
            // checksum that matches the patched payload.
            let mut header: ShardHeader = serde_json::from_str(header_line).unwrap();
            header.checksum = format!("{:016x}", fnv64(patched.as_bytes()));
            let header_json = serde_json::to_string(&header).unwrap();
            std::fs::write(&path, format!("{header_json}\n{patched}\n")).unwrap();
            patched_shard = Some(shard);
            break;
        }
        patched_shard.expect("populated cache has at least one GLES emission");

        let warm = warm_cache();
        let report = warm.load(&dir.0);
        assert_eq!(
            report.shards_skipped, 0,
            "an unknown entry must not reject its shard"
        );
        assert_eq!(report.entries_skipped, 1);
        assert_eq!(report.entries_loaded, 34);
        let stats = warm.stats();
        assert_eq!(stats.warm_entries_skipped, 1);
        assert_eq!(stats.warm_entries_loaded, 34);
        assert_eq!(stats.warm_shards_skipped, 0);

        // Every entry other than the retagged one still answers.
        let id = warm.register_session();
        let mut gles_hits = 0;
        for seed in 0..10u32 {
            let backend = if seed % 2 == 0 {
                BackendKind::DesktopGlsl
            } else {
                BackendKind::Gles
            };
            if warm
                .emission(id, backend, &warm.node(&snapshot(seed)))
                .is_some()
            {
                gles_hits += 1;
            }
        }
        assert_eq!(gles_hits, 9, "exactly the retagged emission is cold");
    }

    #[test]
    fn missing_directory_is_a_cold_start_not_an_error() {
        let dir = ScratchDir::new("missing");
        let cache = CorpusCache::new();
        let report = cache.load(&dir.0);
        assert_eq!(report, LoadReport::default());
        assert_eq!(cache.stats().warm_shards_skipped, 0);
    }

    #[test]
    fn loading_respects_a_bounded_cache_budget() {
        let dir = ScratchDir::new("bounded");
        populated_cache().save(&dir.0).unwrap();
        let bounded = CorpusCache::bounded(32);
        bounded.load(&dir.0);
        assert!(
            bounded.entry_count() <= 32,
            "load must not overflow the budget: {} entries",
            bounded.entry_count()
        );
    }

    #[test]
    fn a_bounded_load_never_keeps_an_entry_naming_a_reclaimed_node() {
        let dir = ScratchDir::new("bounded-dangling");
        populated_cache().save(&dir.0).unwrap();
        let bounded = CorpusCache::bounded(32);
        bounded.register_personalities(&[PERSONALITY]);
        let report = bounded.load(&dir.0);
        assert_eq!(report.entries_loaded + report.entries_skipped, 35);
        let held = |id: NodeId| {
            let map = bounded.exemplars[shard_of(id.fp)].read().unwrap();
            map.get(&id.fp)
                .is_some_and(|chain| chain.iter().any(|e| e.gen == id.gen))
        };
        fn nodes<K, T: EntryValue>(plane: &Plane<K, T>) -> Vec<NodeId> {
            let mut nodes = Vec::new();
            for shard in plane {
                for ((fp, _), bucket) in &shard.read().unwrap().map {
                    for (_, e) in bucket {
                        nodes.push(NodeId {
                            fp: *fp,
                            gen: e.input_gen,
                        });
                        nodes.extend(e.value.node());
                    }
                }
            }
            nodes
        }
        let named = [
            nodes(&bounded.transitions),
            nodes(&bounded.emissions),
            nodes(&bounded.analyses),
        ]
        .concat();
        assert!(!named.is_empty());
        assert!(named.into_iter().all(held), "an entry names a gone node");
    }

    #[test]
    fn a_warm_insert_naming_a_reclaimed_node_is_skipped_and_counted() {
        let cache = CorpusCache::new();
        let (input, _) = cache.intern_node(&snapshot(1), |_| {});
        // The output's last reference goes, as under a bounded budget.
        let (output, _) = cache.intern_node(&snapshot(2), |e| e.refs += 1);
        cache.release_node(output.id);
        assert!(cache.fetch(&output.node()).is_none());

        let (mut loaded, mut skipped) = (0, 0);
        let edge = Some((input.id, 0, output));
        cache.load_plane(
            &cache.transitions,
            std::iter::once(edge),
            &mut loaded,
            &mut skipped,
        );
        assert_eq!((loaded, skipped), (0, 1));
        assert_eq!(cache.entry_count(), 0, "nothing inserted dangling");
    }

    #[test]
    fn a_loaded_edge_reads_its_outputs_loaded_mask() {
        let dir = ScratchDir::new("edge-mask");
        let cache = CorpusCache::new();
        let id = cache.register_session();
        let output = cache.intern(snapshot(2));
        cache.record_transition(id, 0, snapshot(1), output.clone());
        cache.record_transition(id, 1, output.clone(), output.clone());
        cache.save(&dir.0).unwrap();

        let warm = CorpusCache::new();
        assert_eq!(warm.load(&dir.0).entries_loaded, 1);
        let wid = warm.register_session();
        let input = warm.node(&snapshot(1));
        let reached = warm.transition(wid, 0, &input).expect("warm edge hit");
        assert_eq!(reached.clean, 1 << 1);
        // A bit the warm cache learns afterwards is read through the loaded
        // edge too.
        let state = warm.intern(snapshot(2));
        warm.record_transition(wid, 2, state.clone(), state);
        let reached = warm.transition(wid, 0, &input).expect("warm edge hit");
        assert_eq!(reached.clean, 1 << 1 | 1 << 2);
    }

    #[test]
    fn schedule_hash_is_stable_within_a_build() {
        assert_eq!(schedule_hash(), schedule_hash());
        assert_ne!(schedule_hash(), 0);
    }

    #[test]
    fn analyses_round_trip_and_unknown_personalities_are_skipped() {
        let dir = ScratchDir::new("analyses");
        let cache = populated_cache();
        let id = cache.register_session();
        // Two personalities' worth of memoised reports on the same exemplars.
        for seed in 0..4u32 {
            let state = cache.intern(snapshot(seed));
            cache.record_analysis(id, "Arm", &state, Arc::from(format!("{{\"arm\":{seed}}}")));
            cache.record_analysis(
                id,
                "NVIDIA",
                &state,
                Arc::from(format!("{{\"nv\":{seed}}}")),
            );
        }
        assert_eq!(cache.stats().static_analyses, 5 + 8);
        let saved = cache.save(&dir.0).unwrap();
        assert_eq!(
            saved.entries_written, 43,
            "35 populated entries + 8 analyses"
        );

        // A loader that only knows the Arm personality: the NVIDIA entries
        // are individually skipped, everything else warms.
        let warm = CorpusCache::new();
        warm.register_personalities(&["Arm"]);
        let report = warm.load(&dir.0);
        assert_eq!(report.shards_skipped, 0);
        assert_eq!(report.verify_rejects, 0);
        assert_eq!(report.entries_loaded, 39);
        assert_eq!(report.entries_skipped, 4, "the four NVIDIA analyses");

        // Warm analysis hits serve from the memo: zero fresh walks.
        for seed in 0..4u32 {
            let state = warm.intern(snapshot(seed));
            let text = warm
                .analysis("Arm", &warm.node(&state))
                .unwrap_or_else(|| panic!("analysis {seed} must warm-hit"));
            assert_eq!(*text, format!("{{\"arm\":{seed}}}"));
            assert!(warm.analysis("NVIDIA", &warm.node(&state)).is_none());
        }
        let stats = warm.stats();
        assert_eq!(stats.analysis_memo_hits, 4);
        assert_eq!(stats.warm_analysis_hits, 4);
        assert_eq!(stats.static_analyses, 0, "no fresh walks after warm start");

        // With both personalities registered, save→load→save stays
        // byte-deterministic including the analysis plane.
        let full = CorpusCache::new();
        full.register_personalities(&["Arm", "NVIDIA"]);
        full.load(&dir.0);
        let dir_b = ScratchDir::new("analyses-b");
        full.save(&dir_b.0).unwrap();
        for shard in 0..SHARDS {
            let a = std::fs::read_to_string(shard_path(&dir.0, shard)).unwrap();
            let b = std::fs::read_to_string(shard_path(&dir_b.0, shard)).unwrap();
            assert_eq!(a, b, "shard {shard} drifted across save→load→save");
        }
    }

    #[test]
    fn verify_rejected_exemplars_are_dropped_with_their_entries() {
        // An IR that parses and serialises fine but violates the verifier's
        // invariants: it stores from an input index that does not exist.
        // Whatever wrote it was buggy; the loader must drop the exemplar and
        // every entry referencing it, and count the rejection.
        let bad = {
            let mut s = Shader::new("persist-bad");
            s.outputs.push(OutputVar {
                name: "c".into(),
                ty: IrType::fvec(4),
            });
            s.body = vec![Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Input(7),
            }];
            Snapshot {
                fp: fingerprint(&s),
                ir: Arc::new(s),
            }
        };
        assert!(
            prism_ir::verify::verify(&bad.ir).is_err(),
            "fixture must not verify"
        );

        let dir = ScratchDir::new("verify-reject");
        let cache = CorpusCache::new();
        let id = cache.register_session();
        // One healthy entry, one edge into the bad exemplar, one emission on
        // it — the latter two must evaporate at load time.
        cache.record_transition(id, 0, snapshot(1), snapshot(2));
        cache.record_transition(id, 1, snapshot(3), bad.clone());
        cache.record_emission(id, BackendKind::Gles, &bad, Arc::from("bad text"));
        cache.save(&dir.0).unwrap();

        let warm = CorpusCache::new();
        let report = warm.load(&dir.0);
        assert_eq!(
            report.shards_skipped, 0,
            "a bad exemplar must not reject its shard"
        );
        assert_eq!(report.verify_rejects, 1);
        assert_eq!(
            report.entries_skipped, 2,
            "the edge into it and the emission on it"
        );
        assert_eq!(report.entries_loaded, 1, "the healthy edge");
        let stats = warm.stats();
        assert_eq!(stats.warm_verify_rejects, 1);

        let wid = warm.register_session();
        assert!(transition(&warm, wid, 0, &snapshot(1)).is_some());
        assert!(transition(&warm, wid, 1, &snapshot(3)).is_none());
        assert!(warm
            .emission(wid, BackendKind::Gles, &warm.node(&bad))
            .is_none());
    }
}
