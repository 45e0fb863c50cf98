//! Versioned on-disk RR-sketch snapshots.
//!
//! OPIM-C's online/offline split observes that RR-set generation dominates
//! selection: sample once, then answer many selection queries against the
//! frozen sketch. This crate persists the per-machine RR-set shards a
//! DiIMM run produced (`dim sample`), so later processes (`dim im
//! --load-rr`, `dim serve`) can rebuild byte-identical coverage state
//! without resampling.
//!
//! # Shard file layout (all integers little-endian)
//!
//! ```text
//! magic           b"DIMR"
//! version         u32        (currently 3)
//! header_len      u32        (bytes in the header block)
//! header          header_len bytes — see [`ShardHeader`]
//! header_checksum u64        XXH64 over the header block
//! body            elements section
//! body_checksum   u64        XXH64 over the body
//! ```
//!
//! Header block: `fingerprint u64 · sampler u8 · seed u64 · theta u64 ·
//! shard_id u32 · shard_count u32 · num_sets u64 · num_elements u64 ·
//! edges_examined u64`. `sampler` is the [`SamplerKind::tag`] of the RR-set
//! law that drew the sets (0 reverse BFS, 1 LT walk, 3 SUBSIM's count-first
//! law, today's IC default; worker ops carry the same byte); a tag keeps
//! its law forever, so a sketch is only extended or repaired by the
//! sampler that wrote it. Tag 2, the jump sampler SUBSIM used before, is
//! retired: such a file is refused as [`StoreError::RetiredSampler`] and
//! must be re-sampled. `edges_examined`
//! counts sampler work units (Σ w(R): one per in-edge examined on a coin
//! row, `1 + L` on a SUBSIM count row with `L` live edges). The elements
//! section is `count u64 · offsets[count+1] u64 ·
//! pool u32[offsets[count]]` — the flat [`PooledSets`] representation of
//! the shard's RR sets. The inverted index (node → RR sets) is neither
//! stored nor derived here: a loader hands back the RR sets, decoding a
//! generation's shard files in parallel, and the coverage shard that
//! reads the index builds it (`CoverageShard::prepare`). Files of an older
//! version are refused as [`StoreError::Corrupt`] ("unsupported format
//! version") and must be re-sampled: version 1 also stored the index, and
//! versions 1 and 2 were sealed with FNV-1a instead of XXH64
//! ([`checksum`]).
//!
//! Shard files live in committed generation directories under a store
//! root ([`generation`]), and [`load_latest_chain`] is the one reader.
//!
//! Decoding untrusted bytes never panics: every length is bounds-checked
//! before allocation, both checksums must match, readers are strict
//! (trailing bytes are an error), and every node id must lie in the set
//! universe. The universe size `num_sets` bounds those ids and the file's
//! length does not bound it, so it must equal the caller's (the graph's
//! node count, [`SnapshotRequest::num_sets`]): a reader sizes per-node
//! state by it. Failures surface as typed [`StoreError`]s.

mod checksum;
pub mod delta;
#[cfg(test)]
mod fnv;
pub mod generation;

pub use checksum::{checksum, Xxh64};

pub use delta::{
    decode_delta_header, decode_delta_shard, encode_delta_shard, write_delta_shard, DeltaShard,
    DeltaShardHeader, DELTA_EXTENSION, DELTA_MAGIC, DELTA_VERSION,
};
pub use generation::{
    begin_generation, commit_generation, gc_generations, generation_dir_name, latest_generation,
    list_generations, load_latest_chain, load_latest_snapshot, read_graph_file, write_graph_file,
    ChainInfo, RunParams, GENERATION_PREFIX, GRAPH_FILE, MANIFEST_FILE,
};

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dim_cluster::ops::{put_u32, put_u64, Reader};
use dim_coverage::PooledSets;
use dim_diffusion::SamplerKind;
use dim_graph::Graph;

/// File magic for RR-sketch shard files.
pub const MAGIC: [u8; 4] = *b"DIMR";
/// Current snapshot format version.
pub const VERSION: u32 = 3;
/// Extension used by shard files inside a snapshot directory.
pub const SHARD_EXTENSION: &str = "rrs";
/// Upper bound on `header_len` accepted while decoding (the header block
/// is 49 bytes; the slack leaves room for forward-compatible extensions
/// without letting a corrupt length trigger a huge allocation).
const MAX_HEADER_LEN: usize = 4096;

/// Typed failures for snapshot persistence. Corrupt or mismatched bytes
/// always land here — never in a panic.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io { path: PathBuf, source: io::Error },
    /// The bytes do not decode as a valid shard file.
    Corrupt {
        path: Option<PathBuf>,
        detail: &'static str,
    },
    /// The shard decoded fine but does not match what the caller (or a
    /// sibling shard) requires — wrong graph, sampler, seed, …
    Mismatch {
        path: PathBuf,
        field: &'static str,
        expected: u64,
        found: u64,
    },
    /// The directory holds a partial snapshot: `shard_id` of
    /// `shard_count` is absent.
    MissingShard {
        dir: PathBuf,
        shard_id: u32,
        shard_count: u32,
    },
    /// The directory contains no shard files at all.
    Empty { dir: PathBuf },
    /// The shard was drawn under a sampler tag no build draws any more
    /// ([`SamplerKind::is_retired`]): it can be neither extended nor
    /// repaired, and must be re-sampled.
    RetiredSampler { path: Option<PathBuf>, tag: u8 },
    /// The store root holds shard files directly inside and no generation
    /// directory: the flat layout of an older build, which no loader
    /// reads. It must be re-sampled.
    Unversioned { dir: PathBuf },
    /// The store root holds generation directories but none is committed
    /// — every attempt is still being written or crashed before its
    /// manifest landed. `newest` names the newest uncommitted id so the
    /// operator can tell "writer still running" from "writer crashed".
    Uncommitted { dir: PathBuf, newest: u64 },
}

impl StoreError {
    fn corrupt(detail: &'static str) -> Self {
        StoreError::Corrupt { path: None, detail }
    }

    /// Attaches a file path to a path-less [`StoreError::Corrupt`].
    pub(crate) fn with_path(self, path: &Path) -> Self {
        match self {
            StoreError::Corrupt { path: None, detail } => StoreError::Corrupt {
                path: Some(path.to_path_buf()),
                detail,
            },
            StoreError::RetiredSampler { path: None, tag } => StoreError::RetiredSampler {
                path: Some(path.to_path_buf()),
                tag,
            },
            other => other,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "snapshot I/O error at {}: {source}", path.display())
            }
            StoreError::Corrupt { path: Some(p), detail } => {
                write!(f, "corrupt snapshot shard {}: {detail}", p.display())
            }
            StoreError::Corrupt { path: None, detail } => {
                write!(f, "corrupt snapshot shard: {detail}")
            }
            StoreError::Mismatch {
                path,
                field,
                expected,
                found,
            } => write!(
                f,
                "snapshot shard {} {field} mismatch: expected {expected}, found {found}",
                path.display()
            ),
            StoreError::MissingShard {
                dir,
                shard_id,
                shard_count,
            } => write!(
                f,
                "snapshot {} is missing shard {shard_id} of {shard_count}",
                dir.display()
            ),
            StoreError::Empty { dir } => {
                write!(f, "no snapshot shards (*.{SHARD_EXTENSION}) in {}", dir.display())
            }
            StoreError::RetiredSampler { path, tag } => {
                write!(f, "snapshot shard")?;
                if let Some(p) = path {
                    write!(f, " {}", p.display())?;
                }
                write!(
                    f,
                    " was drawn under retired sampler tag {tag}, a law no build draws any \
                     more: it can be neither extended nor repaired, so re-sample it (`dim sample`)"
                )
            }
            StoreError::Unversioned { dir } => write!(
                f,
                "no committed generation in {}: its shard files (*.{SHARD_EXTENSION}) lie \
                 directly inside, in the flat layout of an older build, and must be re-sampled \
                 (a store root holds gen-* directories; pass the root, not one of them)",
                dir.display()
            ),
            StoreError::Uncommitted { dir, newest } => write!(
                f,
                "no committed generation in {}: newest generation {newest} has no \
                 manifest (writer still running, or crashed before commit)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Fingerprint of a graph: [`checksum`] of its canonical "DIMG" binary
/// serialization, streamed through the hasher (the image is never built
/// in memory). Ties a snapshot to the exact CSR it was sampled from — same
/// topology *and* same edge probabilities.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut h = Xxh64::new();
    dim_graph::binary::write_binary(graph, &mut h).expect("hashing cannot fail");
    h.finish()
}

/// Everything needed to decide whether a shard belongs to a given run:
/// provenance (graph, sampler, seed), the sampling state (θ), and the
/// shard's place in the snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    /// [`graph_fingerprint`] of the sampled graph.
    pub fingerprint: u64,
    /// Which RR sampler produced the sets.
    pub sampler: SamplerKind,
    /// Master seed of the sampling run.
    pub seed: u64,
    /// Global RR-set count θ across all shards.
    pub theta: u64,
    /// This shard's machine id, `0..shard_count`.
    pub shard_id: u32,
    /// Number of machines ℓ the snapshot was sampled on.
    pub shard_count: u32,
    /// Set-universe size (the graph's node count `n`).
    pub num_sets: u64,
    /// RR sets stored locally in this shard.
    pub num_elements: u64,
    /// Sampler work units this shard's sampler spent (Σ w(R), for
    /// restored stats).
    pub edges_examined: u64,
}

impl ShardHeader {
    /// Serializes the header block (the bytes covered by
    /// `header_checksum`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(49);
        put_u64(&mut out, self.fingerprint);
        out.push(self.sampler.tag());
        put_u64(&mut out, self.seed);
        put_u64(&mut out, self.theta);
        put_u32(&mut out, self.shard_id);
        put_u32(&mut out, self.shard_count);
        put_u64(&mut out, self.num_sets);
        put_u64(&mut out, self.num_elements);
        put_u64(&mut out, self.edges_examined);
        out
    }

    /// Strictly decodes a header block.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(bytes);
        let fingerprint = r.u64().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        let tag = r.u8().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        let sampler = sampler_of(tag)?;
        let seed = r.u64().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        let theta = r.u64().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        let shard_id = r.u32().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        let shard_count = r.u32().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        let num_sets = r.u64().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        let num_elements = r.u64().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        let edges_examined = r.u64().ok_or_else(|| StoreError::corrupt("truncated header"))?;
        r.finish()
            .ok_or_else(|| StoreError::corrupt("trailing bytes in header"))?;
        if shard_count == 0 {
            return Err(StoreError::corrupt("shard_count is zero"));
        }
        if shard_id >= shard_count {
            return Err(StoreError::corrupt("shard_id out of range"));
        }
        Ok(ShardHeader {
            fingerprint,
            sampler,
            seed,
            theta,
            shard_id,
            shard_count,
            num_sets,
            num_elements,
            edges_examined,
        })
    }
}

/// The sampler a header's tag names: a retired tag is refused as
/// [`StoreError::RetiredSampler`], any other unknown one as corrupt.
pub(crate) fn sampler_of(tag: u8) -> Result<SamplerKind, StoreError> {
    SamplerKind::from_tag(tag).ok_or_else(|| {
        if SamplerKind::is_retired(tag) {
            StoreError::RetiredSampler { path: None, tag }
        } else {
            StoreError::corrupt("unknown sampler tag")
        }
    })
}

/// One decoded shard: its header and its element records (RR set → node
/// ids).
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    pub header: ShardHeader,
    pub elements: PooledSets,
}

/// Appends one `PooledSets` section: `count u64 · offsets[count+1] u64 ·
/// pool u32[...]`, reserving exactly its length first.
fn put_sets(out: &mut Vec<u8>, sets: &PooledSets) {
    out.reserve(8 + 8 * (sets.len() + 1) + 4 * sets.total_size());
    put_u64(out, sets.len() as u64);
    let mut offset = 0u64;
    put_u64(out, 0);
    for list in sets.iter() {
        offset += list.len() as u64;
        put_u64(out, offset);
    }
    for list in sets.iter() {
        for &v in list {
            put_u32(out, v);
        }
    }
}

/// Strictly parses a `PooledSets` section that fills `body` exactly. Every
/// count is checked against `body.len()` before any allocation;
/// `max_value` bounds the pool entries.
fn take_sets(body: &[u8], max_value: u64) -> Result<PooledSets, StoreError> {
    let (count, rest) = body
        .split_first_chunk::<8>()
        .ok_or_else(|| StoreError::corrupt("truncated section count"))?;
    let count = u64::from_le_bytes(*count) as usize;
    // `count + 1` offsets of 8 bytes each must fit in the buffer.
    if count >= body.len() / 8 {
        return Err(StoreError::corrupt("section count exceeds buffer"));
    }
    let (offset_bytes, rest) = rest.split_at(rest.len().min((count + 1) * 8));
    let mut offsets = Vec::with_capacity(count + 1);
    let mut prev = 0u64;
    for chunk in offset_bytes.as_chunks::<8>().0 {
        let o = u64::from_le_bytes(*chunk);
        if offsets.is_empty() && o != 0 {
            return Err(StoreError::corrupt("section offsets must start at zero"));
        }
        if o < prev {
            return Err(StoreError::corrupt("section offsets not monotone"));
        }
        prev = o;
        offsets.push(o as usize);
    }
    if offsets.len() <= count {
        return Err(StoreError::corrupt("truncated section offsets"));
    }
    let pool_len = prev as usize;
    if pool_len.checked_mul(4).is_none_or(|b| b > body.len()) {
        return Err(StoreError::corrupt("section pool exceeds buffer"));
    }
    let (pool_bytes, trailing) = rest.split_at(rest.len().min(pool_len * 4));
    let (pool_chunks, _) = pool_bytes.as_chunks::<4>();
    let pool: Vec<u32> = pool_chunks.iter().map(|c| u32::from_le_bytes(*c)).collect();
    if pool.iter().any(|&v| v as u64 >= max_value) {
        return Err(StoreError::corrupt("section pool value out of range"));
    }
    if pool.len() < pool_len {
        return Err(StoreError::corrupt("truncated section pool"));
    }
    // The checks above should make reassembly infallible, but these are
    // hostile bytes: route through the validating constructor so any gap
    // (e.g. a u64 offset overflowing the u32 arena bound) surfaces as
    // `Corrupt` instead of a panic.
    let sets = PooledSets::try_from_parts(offsets, pool)
        .map_err(|_| StoreError::corrupt("section offsets malformed"))?;
    if !trailing.is_empty() {
        return Err(StoreError::corrupt("trailing bytes in body"));
    }
    Ok(sets)
}

/// Serializes a shard file: header + elements, both blocks checksummed.
pub fn encode_shard(header: &ShardHeader, elements: &PooledSets) -> Vec<u8> {
    seal(MAGIC, VERSION, &header.encode(), |body| {
        put_sets(body, elements)
    })
}

/// Builds the envelope `DIMR` and `DIMD` files share — `magic · version ·
/// header_len · header · checksum(header) · body · checksum(body)` — in
/// one buffer: `write_body` appends the body in place, reserving what each
/// section appends, and it is checksummed where it lies.
pub(crate) fn seal(
    magic: [u8; 4],
    version: u32,
    hdr: &[u8],
    write_body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + 4 + hdr.len() + 8);
    out.extend_from_slice(&magic);
    put_u32(&mut out, version);
    put_u32(&mut out, hdr.len() as u32);
    out.extend_from_slice(hdr);
    put_u64(&mut out, checksum(hdr));
    let body_start = out.len();
    write_body(&mut out);
    let body_checksum = checksum(&out[body_start..]);
    // Exact, so the trailer does not double a body-sized buffer.
    out.reserve_exact(8);
    put_u64(&mut out, body_checksum);
    out
}

/// Longest envelope prefix [`unseal_header`] consumes: `magic · version ·
/// header_len`, the largest accepted header block, its checksum.
pub(crate) const MAX_PREFIX_LEN: usize = 12 + MAX_HEADER_LEN + 8;

/// Opens the prefix of an envelope written by [`seal`] — `magic · version
/// · header_len · header · checksum(header)` — and nothing after it:
/// magic, version and the header checksum must match, in that order, so a
/// file of another version is refused by its version, never by a checksum
/// its writer computed with another hash. Returns the header block
/// and the cursor left after its checksum, so a caller that only wants the
/// header may pass the first [`MAX_PREFIX_LEN`] bytes of a file.
pub(crate) fn unseal_header(
    bytes: &[u8],
    magic: [u8; 4],
    version: u32,
) -> Result<(&[u8], Reader<'_>), StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(4).ok_or_else(|| StoreError::corrupt("truncated magic"))? != magic {
        return Err(StoreError::corrupt("bad magic"));
    }
    if r.u32().ok_or_else(|| StoreError::corrupt("truncated version"))? != version {
        return Err(StoreError::corrupt("unsupported format version"));
    }
    let header_len = r
        .u32()
        .ok_or_else(|| StoreError::corrupt("truncated header length"))? as usize;
    if header_len > MAX_HEADER_LEN {
        return Err(StoreError::corrupt("header length out of range"));
    }
    let hdr = r
        .take(header_len)
        .ok_or_else(|| StoreError::corrupt("truncated header"))?;
    let header_checksum = r
        .u64()
        .ok_or_else(|| StoreError::corrupt("truncated header checksum"))?;
    if header_checksum != checksum(hdr) {
        return Err(StoreError::corrupt("header checksum mismatch"));
    }
    Ok((hdr, r))
}

/// Opens an envelope written by [`seal`]: magic, version and both
/// checksums must match. Returns the header block and the body.
pub(crate) fn unseal(
    bytes: &[u8],
    magic: [u8; 4],
    version: u32,
) -> Result<(&[u8], &[u8]), StoreError> {
    let (hdr, mut r) = unseal_header(bytes, magic, version)?;
    // Everything between the header checksum and the final 8 bytes is the
    // checksummed body.
    let body = r
        .remaining()
        .checked_sub(8)
        .and_then(|len| r.take(len))
        .ok_or_else(|| StoreError::corrupt("truncated body"))?;
    if r.u64() != Some(checksum(body)) {
        return Err(StoreError::corrupt("body checksum mismatch"));
    }
    Ok((hdr, body))
}

/// Decodes and fully validates a shard file from untrusted bytes over
/// `num_sets` sets: the node count of the graph the caller expects. The
/// node ids are checked against the header's universe and nothing in the
/// file bounds its size, so a header naming another universe is refused.
pub fn decode_shard(bytes: &[u8], num_sets: u64) -> Result<ShardSnapshot, StoreError> {
    let shard = decode(bytes)?;
    if shard.header.num_sets != num_sets {
        return Err(StoreError::corrupt("num_sets disagrees with the caller"));
    }
    Ok(shard)
}

/// Decodes and validates a shard file's header and elements.
fn decode(bytes: &[u8]) -> Result<ShardSnapshot, StoreError> {
    let (hdr, body) = unseal(bytes, MAGIC, VERSION)?;
    let header = ShardHeader::decode(hdr)?;
    let elements = take_sets(body, header.num_sets)?;
    if elements.len() as u64 != header.num_elements {
        return Err(StoreError::corrupt("element count disagrees with header"));
    }
    Ok(ShardSnapshot { header, elements })
}

/// Canonical file name for shard `id` of `count` (e.g.
/// `shard-3-of-8.rrs`).
pub fn shard_file_name(id: u32, count: u32) -> String {
    format!("shard-{id}-of-{count}.{SHARD_EXTENSION}")
}

/// A [`StoreError::Io`] at `path`.
pub(crate) fn io_err(path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// A [`StoreError::Mismatch`] at `path`.
fn mismatch(path: &Path, field: &'static str, expected: u64, found: u64) -> StoreError {
    StoreError::Mismatch {
        path: path.to_path_buf(),
        field,
        expected,
        found,
    }
}

/// Writes `bytes` into `dir` (created if needed) as `name`, atomically:
/// they land in a temporary file first, then rename into place, so a
/// crashed writer leaves no half-written file behind.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, StoreError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = dir.join(name);
    let tmp = dir.join(format!(".{name}.tmp"));
    fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    Ok(path)
}

/// Writes one shard into `dir` (created if needed) under its canonical
/// name, atomically: the bytes land in a temporary file first, then
/// rename into place, so a crashed writer leaves no half-written `.rrs`
/// behind.
pub fn write_shard(
    dir: &Path,
    header: &ShardHeader,
    elements: &PooledSets,
) -> Result<PathBuf, StoreError> {
    let name = shard_file_name(header.shard_id, header.shard_count);
    write_atomic(dir, &name, &encode_shard(header, elements))
}

/// Reads and validates one shard file and checks its header against
/// `request`, the set universe included.
fn read_shard(path: &Path, request: &SnapshotRequest) -> Result<ShardSnapshot, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let shard = decode(&bytes).map_err(|e| e.with_path(path))?;
    let h = &shard.header;
    if h.fingerprint != request.fingerprint {
        return Err(mismatch(path, "fingerprint", request.fingerprint, h.fingerprint));
    }
    if h.sampler != request.sampler {
        return Err(mismatch(
            path,
            "sampler",
            request.sampler.tag() as u64,
            h.sampler.tag() as u64,
        ));
    }
    if h.num_sets != request.num_sets {
        return Err(mismatch(path, "num_sets", request.num_sets, h.num_sets));
    }
    Ok(shard)
}

/// Every `*.extension` file in `dir`, sorted by name.
pub(crate) fn files_with_extension(dir: &Path, extension: &str) -> Result<Vec<PathBuf>, StoreError> {
    let mut paths = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let path = entry.map_err(|e| io_err(dir, e))?.path();
        if path.extension().is_some_and(|e| e == extension) {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

/// Checks that the shard ids read from `paths` (in the same order) are
/// `0..shard_count`, each once: a repeat is `Corrupt { detail: duplicate }`
/// naming its file, a gap is [`StoreError::MissingShard`].
pub(crate) fn check_shard_ids(
    dir: &Path,
    paths: &[PathBuf],
    ids: impl Iterator<Item = u32>,
    shard_count: u32,
    duplicate: &'static str,
) -> Result<(), StoreError> {
    let mut seen = vec![false; shard_count as usize];
    for (id, path) in ids.zip(paths) {
        if std::mem::replace(&mut seen[id as usize], true) {
            return Err(StoreError::Corrupt {
                path: Some(path.clone()),
                detail: duplicate,
            });
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(missing) => Err(StoreError::MissingShard {
            dir: dir.to_path_buf(),
            shard_id: missing as u32,
            shard_count,
        }),
        None => Ok(()),
    }
}

/// What a loader requires of a snapshot. Mismatches become typed
/// [`StoreError::Mismatch`]es instead of silently selecting seeds against
/// the wrong sketch.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotRequest {
    /// Required [`graph_fingerprint`].
    pub fingerprint: u64,
    /// Required sampler.
    pub sampler: SamplerKind,
    /// Required set-universe size: the graph's node count `n`. It bounds
    /// every node id, readers size per-node state by it (an index holds
    /// `n` lists) and no file bounds it, so every shard must name it.
    pub num_sets: u64,
}

/// A complete, validated snapshot: every shard present, mutually
/// consistent, and matching the request.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub fingerprint: u64,
    pub sampler: SamplerKind,
    pub seed: u64,
    pub theta: u64,
    /// Set-universe size (graph node count `n`).
    pub num_sets: u64,
    pub shard_count: u32,
    /// Shards in `shard_id` order.
    pub shards: Vec<ShardSnapshot>,
}

impl Snapshot {
    /// Σ over all stored RR sets of their size.
    pub fn total_size(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.elements.total_size() as u64)
            .sum()
    }
}

/// Loads every `*.rrs` shard in `dir`, validates mutual consistency and
/// the request, and returns the assembled snapshot.
///
/// Each shard file is read, decoded and checked against the request on
/// its own thread; the results are then taken, and the siblings compared,
/// in path order, so the error returned is the one a one-file-at-a-time
/// loader would return: that of the first bad path in sorted order.
pub(crate) fn load_snapshot(dir: &Path, request: &SnapshotRequest) -> Result<Snapshot, StoreError> {
    let paths = files_with_extension(dir, SHARD_EXTENSION)?;
    if paths.is_empty() {
        return Err(StoreError::Empty {
            dir: dir.to_path_buf(),
        });
    }
    let decoded: Vec<Result<ShardSnapshot, StoreError>> = std::thread::scope(|scope| {
        let readers: Vec<_> = paths
            .iter()
            .map(|path| scope.spawn(move || read_shard(path, request)))
            .collect();
        readers
            .into_iter()
            .map(|reader| reader.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    let mut shards: Vec<ShardSnapshot> = Vec::with_capacity(paths.len());
    for (path, shard) in paths.iter().zip(decoded) {
        let shard = shard?;
        // The request (`num_sets` included) was checked by `read_shard`.
        if let Some(first) = shards.first() {
            let (h, f) = (&shard.header, &first.header);
            if h.shard_count != f.shard_count {
                return Err(mismatch(
                    path,
                    "shard_count",
                    f.shard_count as u64,
                    h.shard_count as u64,
                ));
            }
            if h.seed != f.seed {
                return Err(mismatch(path, "seed", f.seed, h.seed));
            }
            if h.theta != f.theta {
                return Err(mismatch(path, "theta", f.theta, h.theta));
            }
        }
        shards.push(shard);
    }
    let shard_count = shards[0].header.shard_count;
    let ids = shards.iter().map(|s| s.header.shard_id);
    check_shard_ids(dir, &paths, ids, shard_count, "duplicate shard id")?;
    shards.sort_by_key(|s| s.header.shard_id);
    let first = shards[0].header;
    let total: u64 = shards.iter().map(|s| s.header.num_elements).sum();
    if total != first.theta {
        return Err(StoreError::Mismatch {
            path: dir.to_path_buf(),
            field: "theta",
            expected: first.theta,
            found: total,
        });
    }
    Ok(Snapshot {
        fingerprint: first.fingerprint,
        sampler: first.sampler,
        seed: first.seed,
        theta: first.theta,
        num_sets: first.num_sets,
        shard_count,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_diffusion::DiffusionModel::IndependentCascade as IC;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample_sets() -> PooledSets {
        let mut p = PooledSets::new();
        p.push(&[0, 3]);
        p.push(&[]);
        p.push(&[2, 1, 3]);
        p.push(&[4]);
        p
    }

    fn sample_header(num_elements: u64) -> ShardHeader {
        ShardHeader {
            fingerprint: 0xdead_beef_cafe_f00d,
            sampler: SamplerKind::Standard(IC),
            seed: 42,
            theta: 4,
            shard_id: 0,
            shard_count: 1,
            num_sets: 5,
            num_elements,
            edges_examined: 17,
        }
    }

    fn encode_sample() -> Vec<u8> {
        let elements = sample_sets();
        encode_shard(&sample_header(elements.len() as u64), &elements)
    }

    /// Shards over small universes, drawn from a fixed seed, each under a
    /// header that agrees with it.
    fn random_shards() -> impl Iterator<Item = (ShardHeader, PooledSets)> {
        let mut rng = dim_graph::Rng::new(0x5eed);
        (0..64).map(move |_| {
            let num_sets = 1 + rng.below(40);
            let mut elements = PooledSets::new();
            for _ in 0..rng.below(30) {
                let set: Vec<u32> = (0..rng.below(8)).map(|_| rng.below(num_sets) as u32).collect();
                elements.push(&set);
            }
            let header = ShardHeader {
                theta: elements.len() as u64,
                num_sets: num_sets as u64,
                ..sample_header(elements.len() as u64)
            };
            (header, elements)
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "dim-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header(4);
        assert_eq!(ShardHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_tag_and_range() {
        let mut bytes = sample_header(4).encode();
        bytes[8] = 99; // sampler tag
        assert!(matches!(
            ShardHeader::decode(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
        // The retired jump law is refused by name, not called corrupt.
        bytes[8] = 2;
        assert!(matches!(
            ShardHeader::decode(&bytes),
            Err(StoreError::RetiredSampler { path: None, tag: 2 })
        ));
        let mut h = sample_header(4);
        h.shard_id = 3;
        h.shard_count = 2;
        assert!(ShardHeader::decode(&h.encode()).is_err());
        h.shard_count = 0;
        h.shard_id = 0;
        assert!(ShardHeader::decode(&h.encode()).is_err());
    }

    #[test]
    fn shard_roundtrip() {
        let bytes = encode_sample();
        let snap = decode_shard(&bytes, 5).unwrap();
        assert_eq!(snap.header, sample_header(4));
        assert!(snap.elements.iter().eq(sample_sets().iter()));
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = encode_sample();
        for len in 0..bytes.len() {
            assert!(
                decode_shard(&bytes[..len], 5).is_err(),
                "truncation to {len} bytes decoded"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_errors() {
        let bytes = encode_sample();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            assert!(
                decode_shard(&mutated, 5).is_err(),
                "flip at byte {i} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = encode_sample();
        bytes.push(0);
        assert!(decode_shard(&bytes, 5).is_err());
    }

    /// Decoding hands back exactly the encoded header and elements and
    /// derives nothing: the index is built by whoever reads it.
    #[test]
    fn decoded_index_is_the_transpose_of_the_elements() {
        for (header, elements) in random_shards() {
            let bytes = encode_shard(&header, &elements);
            let snap = decode_shard(&bytes, header.num_sets).unwrap();
            assert!(snap.elements.iter().eq(elements.iter()), "{header:?}");
        }
    }

    /// The body is the elements section and nothing else.
    #[test]
    fn file_holds_the_elements_section_only() {
        for (header, elements) in random_shards() {
            let section = 8 + 8 * (elements.len() + 1) + 4 * elements.total_size();
            let len = 12 + header.encode().len() + 8 + section + 8;
            assert_eq!(encode_shard(&header, &elements).len(), len, "{header:?}");
        }
    }

    /// A version-1 file (elements, then their transpose, in the same
    /// layout, sealed with FNV-1a) is refused by its version, never parsed
    /// or checksummed, and the error names the file.
    #[test]
    fn version_1_files_are_refused_with_their_path() {
        let mut body = Vec::new();
        put_sets(&mut body, &sample_sets());
        put_sets(&mut body, &sample_sets().transpose(5));
        let v1 = crate::fnv::fnv_seal(MAGIC, 1, &sample_header(4).encode(), &body);
        let dir = temp_dir("v1");
        let path = dir.join(shard_file_name(0, 1));
        fs::write(&path, &v1).unwrap();
        match load_snapshot(&dir, &request()) {
            Err(StoreError::Corrupt {
                path: Some(p),
                detail,
            }) => {
                assert_eq!(p, path);
                assert_eq!(detail, "unsupported format version");
            }
            other => panic!("expected corrupt with path, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard of ~100 bytes naming a universe of 2³² − 1 sets is refused,
    /// typed: no reader sizes per-node state by a universe it did not ask
    /// for.
    #[test]
    fn universe_other_than_the_request_is_refused_before_the_index() {
        let header = ShardHeader {
            theta: 0,
            num_sets: u32::MAX as u64,
            ..sample_header(0)
        };
        let dir = temp_dir("universe");
        let path = write_shard(&dir, &header, &PooledSets::new()).unwrap();
        match load_snapshot(&dir, &request()) {
            Err(StoreError::Mismatch {
                path: p,
                field,
                expected,
                found,
            }) => {
                assert_eq!(p, path);
                assert_eq!((field, expected, found), ("num_sets", 5, u32::MAX as u64));
            }
            other => panic!("expected num_sets mismatch, got {other:?}"),
        }
        let bytes = fs::read(&path).unwrap();
        match decode_shard(&bytes, 5) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "num_sets disagrees with the caller")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absurd_count_rejected_before_allocation() {
        let bytes = encode_sample();
        let hdr_end = 4 + 4 + 4 + sample_header(4).encode().len() + 8;
        let mut mutated = bytes.clone();
        // Overwrite the elements-section count with u64::MAX and fix the
        // body checksum so the count check itself is what trips.
        mutated[hdr_end..hdr_end + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_end = mutated.len() - 8;
        let sum = checksum(&mutated[hdr_end..body_end]);
        mutated[body_end..].copy_from_slice(&sum.to_le_bytes());
        match decode_shard(&mutated, 5) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "section count exceeds buffer")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip_and_atomic_name() {
        let dir = temp_dir("roundtrip");
        let elements = sample_sets();
        let path = write_shard(&dir, &sample_header(elements.len() as u64), &elements).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "shard-0-of-1.rrs"
        );
        let snap = read_shard(&path, &request()).unwrap();
        assert_eq!(snap.header.num_elements, 4);
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .unwrap()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Shard `id` of `count`: the RR sets `[id, 4]` and `[2]`.
    fn shard(id: u32, count: u32) -> (ShardHeader, PooledSets) {
        let mut elements = PooledSets::new();
        elements.push(&[id, 4]);
        elements.push(&[2]);
        let theta = 2 * count as u64;
        (ShardHeader { shard_id: id, shard_count: count, theta, ..sample_header(2) }, elements)
    }

    fn write_shards(dir: &Path, count: u32) {
        for id in 0..count {
            let (header, elements) = shard(id, count);
            write_shard(dir, &header, &elements).unwrap();
        }
    }

    fn request() -> SnapshotRequest {
        SnapshotRequest {
            fingerprint: 0xdead_beef_cafe_f00d,
            sampler: SamplerKind::Standard(IC),
            num_sets: 5,
        }
    }

    #[test]
    fn load_snapshot_assembles_all_shards() {
        let dir = temp_dir("load");
        write_shards(&dir, 2);
        let snap = load_snapshot(&dir, &request()).unwrap();
        assert_eq!(snap.shard_count, 2);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.theta, 4);
        assert_eq!(snap.shards.iter().map(|s| s.header.edges_examined).sum::<u64>(), 34);
        assert_eq!(snap.shards[0].header.shard_id, 0);
        assert_eq!(snap.shards[1].header.shard_id, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_snapshot_rejects_fingerprint_mismatch() {
        let dir = temp_dir("fp");
        write_shards(&dir, 2);
        let mut req = request();
        req.fingerprint = 1;
        match load_snapshot(&dir, &req) {
            Err(StoreError::Mismatch { field, .. }) => assert_eq!(field, "fingerprint"),
            other => panic!("expected mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_snapshot_rejects_sampler_and_shard_count_mismatch() {
        let dir = temp_dir("sampler");
        write_shards(&dir, 2);
        let mut req = request();
        req.sampler = SamplerKind::ReverseBfs;
        match load_snapshot(&dir, &req) {
            Err(StoreError::Mismatch { field, .. }) => assert_eq!(field, "sampler"),
            other => panic!("expected mismatch, got {other:?}"),
        }
        // A sibling from a run of another shard count.
        let (header, elements) = shard(0, 4);
        write_shard(&dir, &header, &elements).unwrap();
        match load_snapshot(&dir, &request()) {
            Err(StoreError::Mismatch { field, .. }) => assert_eq!(field, "shard_count"),
            other => panic!("expected mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_snapshot_reports_missing_shard() {
        let dir = temp_dir("missing");
        write_shards(&dir, 2);
        fs::remove_file(dir.join(shard_file_name(1, 2))).unwrap();
        match load_snapshot(&dir, &request()) {
            Err(StoreError::MissingShard {
                shard_id,
                shard_count,
                ..
            }) => {
                assert_eq!(shard_id, 1);
                assert_eq!(shard_count, 2);
            }
            other => panic!("expected missing shard, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_snapshot_reports_empty_dir() {
        let dir = temp_dir("empty");
        assert!(matches!(
            load_snapshot(&dir, &request()),
            Err(StoreError::Empty { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Shards decode in parallel, yet the error is always that of the
    /// first bad file in path order, with its path: here a flipped body,
    /// then a truncation, then a sibling with another seed.
    #[test]
    fn load_snapshot_surfaces_on_disk_corruption() {
        let dir = temp_dir("corrupt");
        write_shards(&dir, 4);
        let (header, elements) = shard(3, 4);
        write_shard(&dir, &ShardHeader { seed: 43, ..header }, &elements).unwrap();
        let path = |id| dir.join(shard_file_name(id, 4));
        let intact: Vec<Vec<u8>> = (0..4).map(|id| fs::read(path(id)).unwrap()).collect();
        let mut flipped = intact[1].clone();
        let last_body_byte = flipped.len() - 9;
        flipped[last_body_byte] ^= 0xff;
        fs::write(path(1), &flipped).unwrap();
        let prefix = 12 + header.encode().len() + 8;
        fs::write(path(2), &intact[2][..prefix + 4]).unwrap();

        // Display names the variant, the file and every field.
        let error = || load_snapshot(&dir, &request()).unwrap_err().to_string();
        let corrupt = |id, detail| {
            format!("corrupt snapshot shard {}: {detail}", path(id).display())
        };
        for _ in 0..16 {
            assert_eq!(error(), corrupt(1, "body checksum mismatch"));
        }
        fs::write(path(1), &intact[1]).unwrap();
        assert_eq!(error(), corrupt(2, "truncated body"));
        fs::write(path(2), &intact[2]).unwrap();
        let seed = format!("snapshot shard {} seed mismatch: expected 42, found 43", path(3).display());
        assert_eq!(error(), seed);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_sensitive_to_graph_content() {
        use dim_graph::{GraphBuilder, WeightModel};
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 0.5);
        b.add_weighted_edge(1, 2, 0.5);
        let g1 = b.build(WeightModel::WeightedCascade);
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 0.5);
        b.add_weighted_edge(1, 2, 0.25);
        let g2 = b.build(WeightModel::WeightedCascade);
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g1));
    }
}
