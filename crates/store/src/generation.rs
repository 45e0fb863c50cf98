//! Generation-aware snapshot store layout.
//!
//! A *store root* holds a sequence of snapshot directories, one per
//! sampling run, named `gen-<id>` with a monotonically increasing
//! decimal id:
//!
//! ```text
//! store/
//!   gen-00000001/   shard-0-of-2.rrs  shard-1-of-2.rrs  MANIFEST
//!   gen-00000002/   shard-0-of-2.rrs  shard-1-of-2.rrs  MANIFEST
//! ```
//!
//! Every persisted sketch is a committed generation: its directory holds
//! one shard file per machine plus a one-line `MANIFEST` sidecar written
//! *after* every shard landed. The manifest is the commit record: a
//! generation without one is in progress (or abandoned) and is never
//! served. Shard files and the manifest are both written through
//! atomic tmp-file renames, so a reader scanning the root concurrently
//! with a writer sees either a committed generation or nothing — the
//! property `dim serve`'s zero-downtime hot-reload rests on.
//!
//! The write protocol is [`begin_generation`] (reserve the next id, even
//! over uncommitted attempts) → write shards → [`commit_generation`];
//! [`load_latest_chain`] is the one reader and [`gc_generations`] bounds
//! disk use. A root with shard files directly inside it and no generation
//! (the flat layout of older builds) is refused as
//! [`StoreError::Unversioned`]: it must be re-sampled.
//!
//! # Delta chains
//!
//! A generation holding `*.rrd` files (see [`crate::delta`]) is a *delta
//! generation*: one applied edge batch plus the re-sampled RR sets it
//! invalidated. A committed streamed state is then a *chain* — a `DIMR`
//! base generation followed by contiguous delta generations, each linked
//! to its predecessor by graph fingerprint. [`load_latest_chain`] resolves
//! and folds a chain into an ordinary [`Snapshot`] (so readers like
//! `dim serve` need no delta awareness), splicing each shard's repairs
//! into its base elements, and [`gc_generations`] keeps every generation
//! a live chain still references.
//!
//! A chain ends when its writer compacts it: the workers persist the
//! shards they hold resident — which equal the fold — as a fresh base
//! through the same [`begin_generation`] → [`commit_generation`] protocol,
//! and the writer adds the tip graph with [`write_graph_file`]. A
//! compacted base carries the chain's *root* fingerprint in its shard
//! headers (what requests match) and the mutated graph alongside as
//! [`GRAPH_FILE`], which is where later deltas and resumed streams pick
//! the true tip graph up from. The store is single-writer: compaction and
//! GC must not run concurrently with another writer on the same root.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use dim_coverage::PooledSets;
use dim_graph::{DeltaBatch, Graph};

use crate::delta::{delta_base_of, delta_file_name, delta_paths, read_delta_shard, DeltaShard};
use crate::{
    check_shard_ids, checksum, files_with_extension, io_err, mismatch, read_base_headers,
    read_shard, shard_file_name, ShardHeader, ShardSnapshot, Snapshot, SnapshotRequest, StoreError,
    SHARD_EXTENSION,
};

/// Prefix of generation directory names inside a store root.
pub const GENERATION_PREFIX: &str = "gen-";
/// Name of the commit-marker file inside a generation directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Name of the serialized mutated graph a compacted generation carries.
pub const GRAPH_FILE: &str = "graph.dimg";
/// First line tag of a manifest (versioned for forward compatibility).
const MANIFEST_TAG: &str = "dim-generation-v1";

/// Canonical directory name for generation `id` (zero-padded so lexical
/// and numeric order agree for the first 10^8 generations; parsing is
/// numeric, so larger ids still work).
pub fn generation_dir_name(id: u64) -> String {
    format!("{GENERATION_PREFIX}{id:08}")
}

/// Parses a directory name as a generation id. Strict: the prefix
/// followed by ASCII digits only.
pub(crate) fn parse_generation_dir(name: &str) -> Option<u64> {
    let digits = name.strip_prefix(GENERATION_PREFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every generation directory under `root` (committed or not), sorted by
/// ascending id. Entries that do not match the naming scheme — including
/// a flat layout's shard files — are ignored. A root that does not exist
/// yet lists as empty rather than erroring, so "first sample into a fresh
/// store" needs no special casing.
pub fn list_generations(root: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let entries = match fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(root, e)),
    };
    let mut gens: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(root, e))?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        if let Some(id) = entry.file_name().to_str().and_then(parse_generation_dir) {
            gens.push((id, path));
        }
    }
    gens.sort();
    Ok(gens)
}

/// Reserves the next generation id under `root` — one past the highest
/// existing directory, committed or not, so a crashed writer's leftover
/// never gets overwritten — and creates its directory.
pub fn begin_generation(root: &Path) -> Result<(u64, PathBuf), StoreError> {
    let next = list_generations(root)?
        .last()
        .map(|&(id, _)| id + 1)
        .unwrap_or(1);
    let dir = root.join(generation_dir_name(next));
    fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    Ok((next, dir))
}

/// The run a sketch was sampled for: the `(k, ε, δ)` its θ certifies.
/// Every generation's manifest records it, delta and compacted
/// generations the values of the run their chain began with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunParams {
    /// Seed-set size.
    pub k: u64,
    /// Approximation slack ε.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
}

/// A parsed manifest: the committed id and, unless an older build wrote
/// it, the run the generation was sampled for.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Manifest {
    pub(crate) id: u64,
    pub(crate) params: Option<RunParams>,
}

/// Writes the commit-marker manifest into a generation directory,
/// atomically (tmp file + rename): one line, `dim-generation-v1 <id>
/// k=<k> epsilon=<ε> delta=<δ>`, the floats in a form that parses back to
/// the same bits. Only after this returns does the generation become
/// visible to [`load_latest_snapshot`].
pub fn commit_generation(dir: &Path, id: u64, params: &RunParams) -> Result<(), StoreError> {
    let tmp = dir.join(format!(".{MANIFEST_FILE}.tmp"));
    let RunParams { k, epsilon, delta } = params;
    let content = format!("{MANIFEST_TAG} {id} k={k} epsilon={epsilon:?} delta={delta:?}\n");
    fs::write(&tmp, content).map_err(|e| io_err(&tmp, e))?;
    let path = dir.join(MANIFEST_FILE);
    fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    Ok(())
}

/// Reads a generation directory's manifest: `Ok(None)` when absent
/// (uncommitted), the manifest when present, `Corrupt` when the file
/// exists but does not parse. A manifest of an older build names the id
/// alone: it parses, with no run parameters.
pub(crate) fn read_manifest(dir: &Path) -> Result<Option<Manifest>, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    let content = match fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, e)),
    };
    match parse_manifest(&content) {
        Some(manifest) => Ok(Some(manifest)),
        None => Err(StoreError::Corrupt {
            path: Some(path),
            detail: "malformed generation manifest",
        }),
    }
}

fn parse_manifest(content: &str) -> Option<Manifest> {
    let mut words = content.lines().next()?.split_whitespace();
    if words.next()? != MANIFEST_TAG {
        return None;
    }
    let id = words.next()?.parse().ok()?;
    let rest: Vec<&str> = words.collect();
    let params = match rest[..] {
        [] => None,
        [k, epsilon, delta] => Some(RunParams {
            k: k.strip_prefix("k=")?.parse().ok()?,
            epsilon: epsilon.strip_prefix("epsilon=")?.parse().ok()?,
            delta: delta.strip_prefix("delta=")?.parse().ok()?,
        }),
        _ => return None,
    };
    Some(Manifest { id, params })
}

/// Whether `dir` holds a manifest committing generation `id`.
fn is_committed(dir: &Path, id: u64) -> Result<bool, StoreError> {
    Ok(read_manifest(dir)?.is_some_and(|m| m.id == id))
}

/// Id of the newest *committed* generation under `root` (directory id
/// and manifest agree), or `None` when the root has none. Reads manifests
/// only — what a writer checks to tell whether another one committed
/// since it last looked.
pub fn latest_generation(root: &Path) -> Result<Option<u64>, StoreError> {
    for (id, dir) in list_generations(root)?.into_iter().rev() {
        if is_committed(&dir, id)? {
            return Ok(Some(id));
        }
    }
    Ok(None)
}

/// How a loaded generation relates to its delta chain: which base it
/// folds over, the edge batches applied on top (empty for a plain base),
/// and where a resumed stream continues.
#[derive(Clone, Debug)]
pub struct ChainInfo {
    /// Generation id of the `DIMR` base (the loaded generation itself
    /// when no deltas are stacked on it).
    pub base_generation: u64,
    /// The chain's shard files and the provenance they share.
    pub files: ChainFiles,
    /// The chain's edge batches in application order.
    pub batches: Vec<DeltaBatch>,
    /// Fingerprint of the graph after every batch (the base graph's when
    /// `batches` is empty) — what the next delta must name as parent.
    pub tip_fingerprint: u64,
    /// Sequence number the next batch in this chain must carry.
    pub next_seq: u64,
    /// The run the chain was sampled for; `None` when its manifests
    /// predate the record.
    pub params: Option<RunParams>,
}

/// A resolved chain's files and the provenance every shard of it carries:
/// all one machine needs to fold its own shard ([`ChainFiles::fold_shard`]).
#[derive(Clone, Debug)]
pub struct ChainFiles {
    /// Directory of the chain's base generation.
    pub base_dir: PathBuf,
    /// Directories of its delta generations, in application order.
    pub link_dirs: Vec<PathBuf>,
    /// The graph, sampler and set universe every shard header names.
    pub request: SnapshotRequest,
    /// Master seed of the run that sampled the base.
    pub seed: u64,
    /// Global RR-set count θ across all shards.
    pub theta: u64,
    /// Number of shards, one per machine.
    pub shard_count: u32,
}

impl ChainFiles {
    /// Folds shard `id`: its base shard file, then its delta shard in each
    /// link, every header checked against `id` and the chain's provenance.
    /// The last repair of a set wins, untouched sets keep their base bytes,
    /// and the merged repairs are spliced in as one.
    pub fn fold_shard(&self, id: u32) -> Result<ShardSnapshot, StoreError> {
        let path = self.base_dir.join(shard_file_name(id, self.shard_count));
        let mut shard = read_shard(&path, &self.request)?;
        let h = shard.header;
        for (field, expected, found) in [
            ("shard_id", id as u64, h.shard_id as u64),
            ("shard_count", self.shard_count as u64, h.shard_count as u64),
            ("seed", self.seed, h.seed),
            ("theta", self.theta, h.theta),
        ] {
            if expected != found {
                return Err(mismatch(&path, field, expected, found));
            }
        }
        let mut overrides: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (seq, dir) in self.link_dirs.iter().enumerate() {
            let path = dir.join(delta_file_name(id, self.shard_count));
            let delta = read_delta_shard(&path)?;
            if !delta.header.extends(&h) || delta.header.batch_seq != seq as u64 {
                return Err(StoreError::Corrupt {
                    path: Some(path),
                    detail: "delta shard disagrees with its base shard",
                });
            }
            overrides.extend(delta.repaired);
        }
        if !overrides.is_empty() {
            let merged: Vec<_> = overrides.iter().map(|(&i, set)| (i, &set[..])).collect();
            let mut spliced = PooledSets::new();
            shard.elements.splice_into(&merged, &mut spliced);
            shard.elements = spliced;
        }
        Ok(shard)
    }

    /// Folds every shard, each on its own thread, into one snapshot; the
    /// error returned is the first failing shard's, in shard order.
    pub(crate) fn fold(&self) -> Result<Snapshot, StoreError> {
        let folded: Vec<Result<ShardSnapshot, StoreError>> = std::thread::scope(|scope| {
            let folds: Vec<_> = (0..self.shard_count)
                .map(|id| scope.spawn(move || self.fold_shard(id)))
                .collect();
            folds
                .into_iter()
                .map(|fold| fold.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        Ok(Snapshot {
            fingerprint: self.request.fingerprint,
            sampler: self.request.sampler,
            seed: self.seed,
            theta: self.theta,
            num_sets: self.request.num_sets,
            shard_count: self.shard_count,
            shards: folded.into_iter().collect::<Result<_, _>>()?,
        })
    }
}

/// Fingerprint of the graph a base generation describes: the hash of its
/// persisted [`GRAPH_FILE`] when present (a compacted base, whose shard
/// headers keep the chain's *root* fingerprint), the shard fingerprint
/// otherwise.
fn base_graph_fingerprint(dir: &Path, fallback: u64) -> Result<u64, StoreError> {
    let path = dir.join(GRAPH_FILE);
    match fs::read(&path) {
        Ok(bytes) => Ok(checksum(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(fallback),
        Err(e) => Err(io_err(&path, e)),
    }
}

/// Writes `graph` into a compacted generation's directory as
/// [`GRAPH_FILE`]: its canonical DIMG image, the bytes whose hash is the
/// chain's tip fingerprint. The generation is not committed yet, so a
/// plain write suffices — a crash leaves an uncommitted directory.
pub fn write_graph_file(dir: &Path, graph: &Graph) -> Result<(), StoreError> {
    let mut buf = Vec::new();
    dim_graph::binary::write_binary(graph, &mut buf).expect("in-memory serialization cannot fail");
    let path = dir.join(GRAPH_FILE);
    fs::write(&path, &buf).map_err(|e| io_err(&path, e))
}

/// Loads the mutated graph a compacted generation persisted alongside its
/// shards, or `None` for generations without one.
pub fn read_graph_file(dir: &Path) -> Result<Option<Graph>, StoreError> {
    let path = dir.join(GRAPH_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, e)),
    };
    dim_graph::binary::decode_binary(&bytes)
        .map(Some)
        .map_err(|_| StoreError::Corrupt {
            path: Some(path),
            detail: "malformed graph file",
        })
}

/// Reads one delta generation: every `*.rrd` shard, mutually consistent
/// (same linkage, provenance, and batch), complete `0..shard_count`,
/// sorted by shard id.
fn read_delta_generation(dir: &Path) -> Result<Vec<DeltaShard>, StoreError> {
    let paths = delta_paths(dir)?;
    if paths.is_empty() {
        return Err(StoreError::Empty {
            dir: dir.to_path_buf(),
        });
    }
    let mut shards: Vec<DeltaShard> = Vec::with_capacity(paths.len());
    for path in &paths {
        let shard = read_delta_shard(path)?;
        if let Some(first) = shards.first() {
            let a = &shard.header;
            let b = &first.header;
            let agree = a.base_generation == b.base_generation
                && a.parent_fingerprint == b.parent_fingerprint
                && a.fingerprint == b.fingerprint
                && a.sampler == b.sampler
                && a.seed == b.seed
                && a.theta == b.theta
                && a.batch_seq == b.batch_seq
                && a.shard_count == b.shard_count
                && a.num_sets == b.num_sets;
            if !agree {
                return Err(StoreError::Corrupt {
                    path: Some(path.clone()),
                    detail: "delta shards disagree on provenance",
                });
            }
            if shard.batch != first.batch {
                return Err(StoreError::Corrupt {
                    path: Some(path.clone()),
                    detail: "delta shards carry different batches",
                });
            }
        }
        shards.push(shard);
    }
    let shard_count = shards[0].header.shard_count;
    let ids = shards.iter().map(|s| s.header.shard_id);
    check_shard_ids(dir, &paths, ids, shard_count, "duplicate delta shard id")?;
    shards.sort_by_key(|s| s.header.shard_id);
    Ok(shards)
}

/// Resolves the chain whose tip is `gens[tip_idx]` — a base generation is
/// a chain of no links — from manifests, shard headers and the delta
/// generations: validates every link (base id, sequence, graph
/// fingerprints, provenance) and collects the batches. No base shard's RR
/// sets are read; [`ChainFiles::fold_shard`] reads them.
fn resolve_chain(
    gens: &[(u64, PathBuf)],
    tip_idx: usize,
    request: &SnapshotRequest,
) -> Result<ChainInfo, StoreError> {
    let (tip_id, tip_dir) = &gens[tip_idx];
    let corrupt = |detail: &'static str| StoreError::Corrupt {
        path: Some(tip_dir.clone()),
        detail,
    };
    let base_id = match delta_base_of(tip_dir)? {
        Some(base) if base >= *tip_id => {
            return Err(corrupt("delta chain base not older than tip"))
        }
        Some(base) => base,
        None => *tip_id,
    };
    // The chain is the committed generations in [base, tip]; uncommitted
    // ids in between are crashed or in-progress attempts and do not
    // participate.
    let mut base: Option<(&PathBuf, Option<RunParams>)> = None;
    let mut link_dirs: Vec<PathBuf> = Vec::new();
    for (id, dir) in &gens[..=tip_idx] {
        if *id < base_id {
            continue;
        }
        let Some(manifest) = read_manifest(dir)?.filter(|m| m.id == *id) else {
            continue;
        };
        match base {
            None if *id == base_id => base = Some((dir, manifest.params)),
            Some((_, params)) if params == manifest.params => link_dirs.push(dir.clone()),
            Some(_) => return Err(corrupt("delta chain links name another run")),
            None => {}
        }
    }
    let (base_dir, params) = base.ok_or_else(|| corrupt("delta chain base generation missing"))?;
    let bases: Vec<ShardHeader> = read_base_headers(base_dir, request)?;
    let first = bases[0];
    let mut tip_fp = base_graph_fingerprint(base_dir, first.fingerprint)?;
    let mut batches: Vec<DeltaBatch> = Vec::with_capacity(link_dirs.len());
    for dir in &link_dirs {
        let shards = match read_delta_generation(dir) {
            Ok(shards) => shards,
            Err(StoreError::Empty { .. }) => {
                return Err(corrupt("delta chain interrupted by a non-delta generation"))
            }
            Err(e) => return Err(e),
        };
        let h = shards[0].header;
        if h.base_generation != base_id {
            return Err(corrupt("delta chain link names a different base"));
        }
        if h.batch_seq != batches.len() as u64 {
            return Err(corrupt("delta chain sequence gap"));
        }
        if h.parent_fingerprint != tip_fp {
            return Err(corrupt("delta chain fingerprint mismatch"));
        }
        if !shards.iter().zip(&bases).all(|(d, b)| d.header.extends(b)) {
            return Err(corrupt("delta chain provenance mismatch"));
        }
        tip_fp = h.fingerprint;
        batches.push(shards[0].batch.clone());
    }
    Ok(ChainInfo {
        base_generation: base_id,
        files: ChainFiles {
            base_dir: base_dir.clone(),
            link_dirs,
            request: *request,
            seed: first.seed,
            theta: first.theta,
            shard_count: first.shard_count,
        },
        next_seq: batches.len() as u64,
        batches,
        tip_fingerprint: tip_fp,
        params,
    })
}

/// Loads the newest committed generation under `root` that validates
/// against `request`, returning its id alongside the snapshot.
///
/// Uncommitted generations (no manifest) are skipped — they are still
/// being written. So is a committed generation whose shards are
/// incomplete ([`StoreError::MissingShard`] / [`StoreError::Empty`],
/// which a crash between shard writes and GC can leave behind); any other
/// failure — corruption, provenance mismatch, I/O — surfaces immediately,
/// because silently falling back to an older sketch would mask it. A root
/// holding *only* uncommitted generations reports
/// [`StoreError::Uncommitted`] naming the newest attempt, so callers can
/// tell "nothing sampled yet" from "writer crashed before commit".
///
/// A generation holding delta shards loads as its whole chain (base +
/// deltas folded in order), so serving layers stay delta-oblivious. A
/// root with no generation directory is [`StoreError::Empty`], or
/// [`StoreError::Unversioned`] when it holds shard files of the flat
/// layout older builds wrote.
pub fn load_latest_snapshot(
    root: &Path,
    request: &SnapshotRequest,
) -> Result<(u64, Snapshot), StoreError> {
    load_latest_chain(root, request).map(|(id, snapshot, _)| (id, snapshot))
}

/// [`load_latest_snapshot`] plus the resolved [`ChainInfo`]: the chain
/// [`resolve_latest_chain`] resolves, every shard folded on its own thread.
pub fn load_latest_chain(
    root: &Path,
    request: &SnapshotRequest,
) -> Result<(u64, Snapshot, ChainInfo), StoreError> {
    let (id, chain) = resolve_latest_chain(root, request)?;
    Ok((id, chain.files.fold()?, chain))
}

/// Resolves the newest committed chain under `root` that validates against
/// `request`, as [`load_latest_snapshot`] chooses it, from its manifests,
/// shard headers and delta generations alone: what a streaming master
/// reads before each machine folds its own shard
/// ([`ChainFiles::fold_shard`]).
pub fn resolve_latest_chain(
    root: &Path,
    request: &SnapshotRequest,
) -> Result<(u64, ChainInfo), StoreError> {
    let gens = list_generations(root)?;
    if gens.is_empty() {
        let dir = root.to_path_buf();
        return Err(if files_with_extension(root, SHARD_EXTENSION)?.is_empty() {
            StoreError::Empty { dir }
        } else {
            StoreError::Unversioned { dir }
        });
    }
    let mut any_committed = false;
    let mut newest_uncommitted: Option<u64> = None;
    for tip_idx in (0..gens.len()).rev() {
        let (id, dir) = &gens[tip_idx];
        if !is_committed(dir, *id)? {
            newest_uncommitted.get_or_insert(*id);
            continue;
        }
        any_committed = true;
        match resolve_chain(&gens, tip_idx, request) {
            Ok(chain) => return Ok((*id, chain)),
            Err(StoreError::MissingShard { .. }) | Err(StoreError::Empty { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    // Distinguish "nothing committed yet" from "committed but unloadable".
    match newest_uncommitted {
        Some(newest) if !any_committed => Err(StoreError::Uncommitted {
            dir: root.to_path_buf(),
            newest,
        }),
        _ => Err(StoreError::Empty {
            dir: root.to_path_buf(),
        }),
    }
}

/// Deletes old generation directories, keeping the newest `keep` (by id,
/// committed or not — an uncommitted newest generation is a write in
/// progress and must survive) *plus* every generation a kept delta chain
/// still references: a kept delta generation pins its base and all
/// intermediate links, so a served chain never loses its foundation.
/// `keep` is clamped to at least 1. An uncommitted directory older than
/// that (a crashed sample, apply or compaction) is collected like any
/// other. Returns the removed generation ids in ascending order.
///
/// A kept generation's link is read once, from the checksummed header of
/// its first delta shard; shard bodies are never opened. If any kept link
/// is unreadable (truncated prefix, bad magic or version, header checksum
/// mismatch) the error is returned and nothing is deleted. A kept delta
/// shard whose *body* is corrupt does not fail GC — [`load_latest_chain`],
/// which consumes the body, still reports it as [`StoreError::Corrupt`].
pub fn gc_generations(root: &Path, keep: usize) -> Result<Vec<u64>, StoreError> {
    let keep = keep.max(1);
    let gens = list_generations(root)?;
    if gens.len() <= keep {
        return Ok(Vec::new());
    }
    let mut first_kept = gens.len() - keep;
    // Chain closure: lower the boundary until every kept delta
    // generation's base (and therefore every intermediate link — ids are
    // ordered) is kept too. `resolved` marks the generations whose link
    // has been read: each pass looks only at the ones the last pass added.
    let mut resolved = gens.len();
    while first_kept < resolved {
        let mut boundary = first_kept;
        for (_, dir) in &gens[first_kept..resolved] {
            if let Some(base) = delta_base_of(dir)? {
                boundary = boundary.min(gens.partition_point(|&(id, _)| id < base));
            }
        }
        resolved = first_kept;
        first_kept = boundary;
    }
    let mut removed = Vec::new();
    for (id, dir) in &gens[..first_kept] {
        fs::remove_dir_all(dir).map_err(|e| io_err(dir, e))?;
        removed.push(*id);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_shard, ShardHeader};
    use dim_coverage::PooledSets;
    use dim_diffusion::DiffusionModel::IndependentCascade as IC;
    use dim_diffusion::SamplerKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The run every test generation is committed for.
    pub(crate) const PARAMS: RunParams = RunParams {
        k: 5,
        epsilon: 0.5,
        delta: 0.01,
    };

    fn temp_root(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "dim-store-gen-{}-{tag}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn request() -> SnapshotRequest {
        SnapshotRequest {
            fingerprint: 0xfeed_f00d,
            sampler: SamplerKind::Standard(IC),
            num_sets: 5,
        }
    }

    /// Writes a complete single-shard snapshot into `dir`; `mark`
    /// distinguishes the generations' contents.
    fn write_snapshot(dir: &Path, mark: u32) {
        let mut elements = PooledSets::new();
        elements.push(&[mark % 5]);
        elements.push(&[(mark + 1) % 5, 4]);
        let header = ShardHeader {
            fingerprint: 0xfeed_f00d,
            sampler: SamplerKind::Standard(IC),
            seed: mark as u64,
            theta: 2,
            shard_id: 0,
            shard_count: 1,
            num_sets: 5,
            num_elements: 2,
            edges_examined: 1,
        };
        write_shard(dir, &header, &elements).unwrap();
    }

    #[test]
    fn dir_names_roundtrip_and_parse_strictly() {
        assert_eq!(generation_dir_name(7), "gen-00000007");
        assert_eq!(parse_generation_dir("gen-00000007"), Some(7));
        assert_eq!(parse_generation_dir("gen-123456789012"), Some(123_456_789_012));
        assert_eq!(parse_generation_dir("gen-"), None);
        assert_eq!(parse_generation_dir("gen-07x"), None);
        assert_eq!(parse_generation_dir("generation-7"), None);
        assert_eq!(parse_generation_dir("shard-0-of-1.rrs"), None);
    }

    #[test]
    fn begin_commit_list_latest() {
        let root = temp_root("begin");
        assert!(list_generations(&root).unwrap().is_empty());
        assert!(latest_generation(&root).unwrap().is_none());

        let (id1, dir1) = begin_generation(&root).unwrap();
        assert_eq!(id1, 1);
        // In progress: listed, but not latest-committed.
        assert_eq!(list_generations(&root).unwrap().len(), 1);
        assert!(latest_generation(&root).unwrap().is_none());
        write_snapshot(&dir1, 0);
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        assert_eq!(latest_generation(&root).unwrap(), Some(1));

        // The next id is reserved past any existing directory, even an
        // uncommitted one.
        let (id2, _dir2) = begin_generation(&root).unwrap();
        assert_eq!(id2, 2);
        let (id3, dir3) = begin_generation(&root).unwrap();
        assert_eq!(id3, 3);
        write_snapshot(&dir3, 1);
        commit_generation(&dir3, id3, &PARAMS).unwrap();
        assert_eq!(latest_generation(&root).unwrap(), Some(3));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn load_latest_skips_uncommitted_and_pins_id() {
        let root = temp_root("load");
        let (id1, dir1) = begin_generation(&root).unwrap();
        write_snapshot(&dir1, 0);
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        // Generation 2 has shards but no manifest: a write in progress.
        let (_id2, dir2) = begin_generation(&root).unwrap();
        write_snapshot(&dir2, 7);
        let (id, snap) = load_latest_snapshot(&root, &request()).unwrap();
        assert_eq!(id, 1);
        assert_eq!(snap.seed, 0);
        // Commit it: now it is the one served.
        commit_generation(&dir2, 2, &PARAMS).unwrap();
        let (id, snap) = load_latest_snapshot(&root, &request()).unwrap();
        assert_eq!(id, 2);
        assert_eq!(snap.seed, 7);
        fs::remove_dir_all(&root).unwrap();
    }

    /// A root with shard files directly inside and no generation — the
    /// flat layout older builds wrote — is refused, typed, and the message
    /// says it holds no committed generation and must be re-sampled.
    #[test]
    fn load_latest_refuses_a_flat_root() {
        let root = temp_root("flat");
        write_snapshot(&root, 3);
        match load_latest_chain(&root, &request()) {
            Err(e @ StoreError::Unversioned { .. }) => {
                let text = e.to_string();
                assert!(text.starts_with("no committed generation in "), "{text}");
                assert!(text.contains("must be re-sampled"), "{text}");
            }
            other => panic!("expected Unversioned, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn load_latest_reports_empty_store() {
        let root = temp_root("empty");
        assert!(matches!(
            load_latest_snapshot(&root, &request()),
            Err(StoreError::Empty { .. })
        ));
        // A root holding only uncommitted generations is not "empty" — it
        // names the newest attempt so the operator can tell a crashed
        // writer from a store that was never sampled into.
        let (_, dir) = begin_generation(&root).unwrap();
        write_snapshot(&dir, 0);
        let (id2, dir2) = begin_generation(&root).unwrap();
        write_snapshot(&dir2, 1);
        match load_latest_snapshot(&root, &request()) {
            Err(StoreError::Uncommitted { dir, newest }) => {
                assert_eq!(dir, root);
                assert_eq!(newest, id2);
            }
            other => panic!("expected Uncommitted, got {other:?}"),
        }
        // Once anything commits, unloadable leftovers report Empty again.
        commit_generation(&dir2, id2, &PARAMS).unwrap();
        fs::remove_file(dir2.join(crate::shard_file_name(0, 1))).unwrap();
        assert!(matches!(
            load_latest_snapshot(&root, &request()),
            Err(StoreError::Empty { .. })
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn load_latest_surfaces_corruption_instead_of_falling_back() {
        let root = temp_root("corrupt");
        let (id1, dir1) = begin_generation(&root).unwrap();
        write_snapshot(&dir1, 0);
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        let (id2, dir2) = begin_generation(&root).unwrap();
        write_snapshot(&dir2, 1);
        commit_generation(&dir2, id2, &PARAMS).unwrap();
        // Corrupt the newest generation's shard.
        let victim = dir2.join(crate::shard_file_name(0, 1));
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        assert!(matches!(
            load_latest_snapshot(&root, &request()),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn manifest_mismatch_is_corrupt() {
        let root = temp_root("manifest");
        let (_, dir) = begin_generation(&root).unwrap();
        fs::write(dir.join(MANIFEST_FILE), "not a manifest\n").unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        // A manifest naming the wrong id does not commit this directory.
        fs::write(dir.join(MANIFEST_FILE), format!("{MANIFEST_TAG} 99\n")).unwrap();
        assert!(latest_generation(&root).unwrap().is_none());
        // Run parameters are all three or none.
        fs::write(dir.join(MANIFEST_FILE), format!("{MANIFEST_TAG} 1 k=5\n")).unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    /// The manifest records the run exactly, floats bit for bit, and an
    /// older build's id-only manifest still commits, with no run.
    #[test]
    fn manifest_records_the_run() {
        let root = temp_root("params");
        let (id, dir) = begin_generation(&root).unwrap();
        let params = RunParams {
            k: 40,
            epsilon: 0.1 + 0.2,
            delta: 1.0 / 4039.0,
        };
        commit_generation(&dir, id, &params).unwrap();
        let manifest = read_manifest(&dir).unwrap().unwrap();
        assert_eq!((manifest.id, manifest.params), (id, Some(params)));
        fs::write(dir.join(MANIFEST_FILE), format!("{MANIFEST_TAG} {id}\n")).unwrap();
        let older = read_manifest(&dir).unwrap().unwrap();
        assert_eq!((older.id, older.params), (id, None));
        assert_eq!(latest_generation(&root).unwrap(), Some(id));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_keeps_newest_and_reports_removed() {
        let root = temp_root("gc");
        for mark in 0..5 {
            let (id, dir) = begin_generation(&root).unwrap();
            write_snapshot(&dir, mark);
            commit_generation(&dir, id, &PARAMS).unwrap();
        }
        let removed = gc_generations(&root, 2).unwrap();
        assert_eq!(removed, vec![1, 2, 3]);
        let left: Vec<u64> = list_generations(&root)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(left, vec![4, 5]);
        // keep is clamped to 1: the latest always survives.
        let removed = gc_generations(&root, 0).unwrap();
        assert_eq!(removed, vec![4]);
        assert_eq!(latest_generation(&root).unwrap(), Some(5));
        // Ids keep increasing after GC (no reuse).
        let (id, _) = begin_generation(&root).unwrap();
        assert_eq!(id, 6);
        fs::remove_dir_all(&root).unwrap();
    }

    use crate::delta::{write_delta_shard, DeltaShardHeader, DELTA_MAGIC, DELTA_VERSION};
    use dim_graph::{DeltaBatch, EdgeOp, GraphBuilder, WeightModel};

    /// Writes a committed single-shard delta generation chained onto
    /// `base_generation` with the given fingerprint link and repairs.
    fn write_delta_generation(
        root: &Path,
        base_generation: u64,
        seq: u64,
        parent_fingerprint: u64,
        fingerprint: u64,
        repaired: Vec<(u32, Vec<u32>)>,
    ) -> (u64, PathBuf) {
        let (id, dir) = begin_generation(root).unwrap();
        let header = DeltaShardHeader {
            base_generation,
            parent_fingerprint,
            fingerprint,
            sampler: SamplerKind::Standard(IC),
            seed: 0,
            theta: 2,
            batch_seq: seq,
            shard_id: 0,
            shard_count: 1,
            num_sets: 5,
            num_elements: 2,
            repaired_count: repaired.len() as u64,
        };
        let batch = DeltaBatch::new(seq, vec![EdgeOp::Delete { u: 0, v: 1 }]);
        write_delta_shard(&dir, &header, &batch, &repaired).unwrap();
        commit_generation(&dir, id, &PARAMS).unwrap();
        (id, dir)
    }

    #[test]
    fn chain_loads_folded_snapshot() {
        let root = temp_root("chain");
        let (id1, dir1) = begin_generation(&root).unwrap();
        write_snapshot(&dir1, 0); // elements [[0], [1, 4]], fp 0xfeed_f00d
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        write_delta_generation(&root, id1, 0, 0xfeed_f00d, 0xaaaa, vec![(1, vec![2, 3])]);
        write_delta_generation(&root, id1, 1, 0xaaaa, 0xbbbb, vec![(0, vec![1])]);
        // Set 1 again, already repaired by the first link: the last wins.
        write_delta_generation(&root, id1, 2, 0xbbbb, 0xcccc, vec![(1, vec![0, 2, 4])]);

        let (id, snap, chain) = load_latest_chain(&root, &request()).unwrap();
        assert_eq!(id, 4);
        assert_eq!(chain.base_generation, id1);
        assert_eq!(chain.batches.len(), 3);
        assert_eq!(chain.tip_fingerprint, 0xcccc);
        assert_eq!(chain.next_seq, 3);
        assert_eq!(chain.params, Some(PARAMS));
        let shard = &snap.shards[0];
        let folded: Vec<&[u32]> = shard.elements.iter().collect();
        assert_eq!(folded, [&[1][..], &[0, 2, 4][..]]);
        // The request still names the ROOT graph; the plain loader agrees.
        let (id, snap2) = load_latest_snapshot(&root, &request()).unwrap();
        assert_eq!(id, 4);
        assert!(snap2.shards[0].elements.iter().eq(shard.elements.iter()));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn chain_rejects_broken_fingerprint_link() {
        let root = temp_root("chainlink");
        let (id1, dir1) = begin_generation(&root).unwrap();
        write_snapshot(&dir1, 0);
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        // parent_fingerprint does not match the base graph.
        write_delta_generation(&root, id1, 0, 0xdead, 0xaaaa, vec![(0, vec![1])]);
        match load_latest_chain(&root, &request()) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "delta chain fingerprint mismatch")
            }
            other => panic!("expected corrupt chain, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    /// Every link of a chain repeats its base's run: a link naming another
    /// is corrupt.
    #[test]
    fn chain_rejects_a_link_of_another_run() {
        let root = temp_root("chainrun");
        let (id1, dir1) = begin_generation(&root).unwrap();
        write_snapshot(&dir1, 0);
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        let (id2, dir2) = write_delta_generation(&root, id1, 0, 0xfeed_f00d, 0xaaaa, vec![]);
        let other = RunParams { k: 6, ..PARAMS };
        commit_generation(&dir2, id2, &other).unwrap();
        match load_latest_chain(&root, &request()) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "delta chain links name another run")
            }
            other => panic!("expected corrupt chain, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    /// A chain holding a DIMD version-1 delta — sealed with FNV-1a, as
    /// that version was — is refused by its version, not by a checksum,
    /// and the error names the delta file.
    #[test]
    fn chain_refuses_a_version_1_delta_naming_its_path() {
        let root = temp_root("chainv1");
        let (id1, dir1) = begin_generation(&root).unwrap();
        write_snapshot(&dir1, 0);
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        let (_, dir2) =
            write_delta_generation(&root, id1, 0, 0xfeed_f00d, 0xaaaa, vec![(0, vec![1])]);
        let victim = dir2.join(crate::delta::delta_file_name(0, 1));
        let current = fs::read(&victim).unwrap();
        let (hdr, body) = crate::unseal(&current, DELTA_MAGIC, DELTA_VERSION).unwrap();
        fs::write(&victim, crate::fnv::fnv_seal(DELTA_MAGIC, 1, hdr, body)).unwrap();
        match load_latest_chain(&root, &request()) {
            Err(StoreError::Corrupt {
                path: Some(path),
                detail,
            }) => assert_eq!((path, detail), (victim, "unsupported format version")),
            other => panic!("expected a refused version, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    /// A base shard over another set universe is refused before the fold:
    /// nothing in a small file may make a reader size per-node state for
    /// 2³² nodes.
    #[test]
    fn chain_refuses_a_base_over_another_universe() {
        let root = temp_root("chainuniverse");
        let (id1, dir1) = begin_generation(&root).unwrap();
        let header = ShardHeader {
            fingerprint: 0xfeed_f00d,
            sampler: SamplerKind::Standard(IC),
            seed: 0,
            theta: 0,
            shard_id: 0,
            shard_count: 1,
            num_sets: u32::MAX as u64,
            num_elements: 0,
            edges_examined: 0,
        };
        write_shard(&dir1, &header, &PooledSets::new()).unwrap();
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        write_delta_generation(&root, id1, 0, 0xfeed_f00d, 0xaaaa, vec![]);
        match load_latest_chain(&root, &request()) {
            Err(StoreError::Mismatch {
                field,
                expected,
                found,
                ..
            }) => assert_eq!((field, expected, found), ("num_sets", 5, u32::MAX as u64)),
            other => panic!("expected num_sets mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_keeps_chain_base_and_collects_crashed_attempts() {
        let root = temp_root("gcchain");
        let (id1, dir1) = begin_generation(&root).unwrap();
        write_snapshot(&dir1, 0);
        commit_generation(&dir1, id1, &PARAMS).unwrap();
        write_delta_generation(&root, id1, 0, 0xfeed_f00d, 0xaaaa, vec![(0, vec![1])]);
        // A compaction that crashed before its commit: an uncommitted
        // directory inside the live chain's id range.
        let (crashed, crashed_dir) = begin_generation(&root).unwrap();
        write_snapshot(&crashed_dir, 9);
        write_delta_generation(&root, id1, 1, 0xaaaa, 0xbbbb, vec![(1, vec![2])]);
        // Keeping only the tip must pin the whole chain down to its base,
        // and the chain loads past the crashed attempt.
        assert!(gc_generations(&root, 1).unwrap().is_empty());
        assert_eq!(list_generations(&root).unwrap().len(), 4);
        assert_eq!(load_latest_chain(&root, &request()).unwrap().2.next_seq, 2);

        // A fresh base makes the old chain, crashed attempt included,
        // collectable. Other names under the root are never touched.
        let (id5, dir5) = begin_generation(&root).unwrap();
        write_snapshot(&dir5, 1);
        commit_generation(&dir5, id5, &PARAMS).unwrap();
        let (id6, _) = write_delta_generation(&root, id5, 0, 0xfeed_f00d, 0xcccc, vec![]);
        let unrelated = root.join("gen-00000009.tmp");
        fs::create_dir_all(&unrelated).unwrap();

        let removed = gc_generations(&root, 1).unwrap();
        assert_eq!(removed, vec![1, 2, crashed, 4]);
        let left: Vec<u64> = list_generations(&root)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(left, vec![id5, id6]);
        assert!(unrelated.exists(), "a non-generation name is not GC's to delete");
        fs::remove_dir_all(&root).unwrap();
    }

    /// `path` with the byte at `at` (from the end when negative) inverted.
    fn flip_byte(path: &Path, at: isize) {
        let mut bytes = fs::read(path).unwrap();
        let at = if at < 0 { bytes.len() - at.unsigned_abs() } else { at as usize };
        bytes[at] ^= 0xff;
        fs::write(path, bytes).unwrap();
    }

    /// GC reads links from checksummed headers only: an unreadable kept
    /// link fails it before anything is deleted, a corrupt *body* is not
    /// its business — the loaders that consume the body still refuse it.
    #[test]
    fn gc_reads_headers_only_and_deletes_nothing_on_an_unreadable_link() {
        let root = temp_root("gchdr");
        for mark in 0..2 {
            let (id, dir) = begin_generation(&root).unwrap();
            write_snapshot(&dir, mark);
            commit_generation(&dir, id, &PARAMS).unwrap();
        }
        let (_, dir3) =
            write_delta_generation(&root, 2, 0, 0xfeed_f00d, 0xaaaa, vec![(0, vec![1])]);
        write_delta_generation(&root, 2, 1, 0xaaaa, 0xbbbb, vec![(1, vec![2])]);
        let ids = |root: &Path| -> Vec<u64> {
            list_generations(root).unwrap().into_iter().map(|(id, _)| id).collect()
        };
        let victim = dir3.join(crate::delta::delta_file_name(0, 1));

        // Header checksum, magic, version, header length, a truncated
        // prefix: typed errors, and generation 1 (collectable) survives.
        let intact = fs::read(&victim).unwrap();
        let header_len = u32::from_le_bytes(intact[8..12].try_into().unwrap()) as usize;
        for at in [12 + header_len, 0, 4, 11, 20] {
            flip_byte(&victim, at as isize);
            assert!(
                matches!(gc_generations(&root, 1), Err(StoreError::Corrupt { .. })),
                "flip at byte {at}"
            );
            assert_eq!(ids(&root), [1, 2, 3, 4], "flip at byte {at}");
            fs::write(&victim, &intact).unwrap();
        }
        fs::write(&victim, &intact[..12 + header_len]).unwrap();
        assert!(matches!(gc_generations(&root, 1), Err(StoreError::Corrupt { .. })));
        assert_eq!(ids(&root), [1, 2, 3, 4]);
        fs::write(&victim, &intact).unwrap();

        // A corrupt body: GC walks the chain through the header and
        // collects generation 1; loading still fails.
        flip_byte(&victim, -9);
        assert_eq!(gc_generations(&root, 1).unwrap(), [1]);
        assert_eq!(ids(&root), [2, 3, 4]);
        assert!(matches!(
            load_latest_chain(&root, &request()),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    /// A base carrying [`GRAPH_FILE`] (a compacted one) names its graph by
    /// the file's hash, answers the root request, and anchors the deltas
    /// chained on it; a hostile graph file is a typed error.
    #[test]
    fn graph_file_anchors_chain_and_rejects_hostile_bytes() {
        let root = temp_root("graphfile");
        let mut b = GraphBuilder::new(5);
        b.add_weighted_edge(0, 1, 0.5);
        b.add_weighted_edge(1, 2, 0.25);
        let graph = b.build(WeightModel::WeightedCascade);
        let tip_fp = crate::graph_fingerprint(&graph);
        let (id1, dir1) = begin_generation(&root).unwrap();
        write_snapshot(&dir1, 0);
        write_graph_file(&dir1, &graph).unwrap();
        commit_generation(&dir1, id1, &PARAMS).unwrap();

        let image = fs::read(dir1.join(GRAPH_FILE)).unwrap();
        assert_eq!(checksum(&image), tip_fp, "the file is the fingerprinted image");
        let restored = read_graph_file(&dir1).unwrap().expect("graph persisted");
        assert_eq!(crate::graph_fingerprint(&restored), tip_fp);
        let (id, _, chain) = load_latest_chain(&root, &request()).unwrap();
        assert_eq!(id, id1);
        assert!(chain.batches.is_empty());
        assert_eq!(chain.tip_fingerprint, tip_fp);

        // A corrupted graph file (n = 2⁶⁰; a trailing byte) is a typed
        // error, never a panic.
        let graph_path = dir1.join(GRAPH_FILE);
        let huge_n = [&image[..8], &(1u64 << 60).to_le_bytes(), &image[16..]].concat();
        for hostile in [huge_n, [&image[..], &[0]].concat()] {
            fs::write(&graph_path, hostile).unwrap();
            assert!(matches!(read_graph_file(&dir1), Err(StoreError::Corrupt { .. })));
        }
        fs::write(&graph_path, &image).unwrap();

        // A delta chains off the persisted graph, not the shards' root
        // fingerprint.
        write_delta_generation(&root, id1, 0, tip_fp, 0x1234, vec![(1, vec![0])]);
        let (id, snap, chain) = load_latest_chain(&root, &request()).unwrap();
        assert_eq!(id, id1 + 1);
        assert_eq!(snap.shards[0].elements.get(1), &[0][..]);
        assert_eq!(chain.base_generation, id1);
        assert_eq!(chain.tip_fingerprint, 0x1234);
        fs::remove_dir_all(&root).unwrap();
    }
}
