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
//! version         u32        (currently 1)
//! header_len      u32        (bytes in the header block)
//! header          header_len bytes — see [`ShardHeader`]
//! header_checksum u64        FNV-1a over the header block
//! body            elements section, then index section
//! body_checksum   u64        FNV-1a over the body
//! ```
//!
//! Header block: `fingerprint u64 · sampler u8 · seed u64 · theta u64 ·
//! shard_id u32 · shard_count u32 · num_sets u64 · num_elements u64 ·
//! edges_examined u64`. `sampler` is the `SamplerSpec` tag of the RR-set
//! law that drew the sets (0 reverse BFS, 1 LT walk, 2 SUBSIM, today's IC
//! default); a tag keeps its law forever, so a sketch is only extended or
//! repaired by the sampler that wrote it. `edges_examined` counts sampler
//! work units (Σ w(R): one per in-edge examined, one per jump on a SUBSIM
//! jump row). Each body section is `count u64 ·
//! offsets[count+1] u64 · pool u32[offsets[count]]` — the flat
//! [`PooledSets`] representation. The index section is the transpose of
//! the elements section over the set universe and is verified at load.
//!
//! Decoding untrusted bytes never panics: every length is bounds-checked
//! before allocation, both checksums must match, readers are strict
//! (trailing bytes are an error), and the rebuilt index is cross-checked
//! against the elements. Failures surface as typed [`StoreError`]s.

pub mod delta;
pub mod generation;

pub use delta::{
    decode_delta_header, decode_delta_shard, encode_delta_shard, write_delta_shard, DeltaShard,
    DeltaShardHeader, DELTA_EXTENSION, DELTA_MAGIC, DELTA_VERSION,
};
pub use generation::{
    begin_generation, commit_generation, gc_generations, generation_dir_name, latest_generation,
    list_generations, load_latest_chain, load_latest_snapshot, read_graph_file, write_graph_file,
    ChainInfo, GENERATION_PREFIX, GRAPH_FILE, MANIFEST_FILE,
};

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use dim_cluster::ops::{put_u32, put_u64, Reader};
use dim_cluster::SamplerSpec;
use dim_coverage::PooledSets;
use dim_graph::Graph;

/// File magic for RR-sketch shard files.
pub const MAGIC: [u8; 4] = *b"DIMR";
/// Current snapshot format version.
pub const VERSION: u32 = 1;
/// Extension used by shard files inside a snapshot directory.
pub const SHARD_EXTENSION: &str = "rrs";
/// Upper bound on `header_len` accepted while decoding (the v1 header is
/// 49 bytes; the slack leaves room for forward-compatible extensions
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

/// FNV-1a 64-bit hash — the format's checksum. Not cryptographic; it
/// guards against truncation and bit rot, not adversaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Hashes a writer's byte stream instead of storing it.
struct FnvWriter {
    hash: u64,
}

impl Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Fingerprint of a graph: FNV-1a over its canonical "DIMG" binary
/// serialization. Ties a snapshot to the exact CSR it was sampled from —
/// same topology *and* same edge probabilities.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut w = FnvWriter {
        hash: 0xcbf2_9ce4_8422_2325,
    };
    dim_graph::binary::write_binary(graph, &mut w)
        .expect("in-memory serialization cannot fail");
    w.hash
}

/// Everything needed to decide whether a shard belongs to a given run:
/// provenance (graph, sampler, seed), the sampling state (θ), and the
/// shard's place in the snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    /// [`graph_fingerprint`] of the sampled graph.
    pub fingerprint: u64,
    /// Which RR sampler produced the sets.
    pub sampler: SamplerSpec,
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
        let sampler = SamplerSpec::from_tag(tag)
            .ok_or_else(|| StoreError::corrupt("unknown sampler tag"))?;
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

/// One decoded shard: its header, the element records (RR set → node
/// ids), and the verified transpose index (node id → local RR-set ids).
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    pub header: ShardHeader,
    pub elements: PooledSets,
    pub index: PooledSets,
}

/// Appends one `PooledSets` section: `count u64 · offsets[count+1] u64 ·
/// pool u32[...]`.
fn put_sets(out: &mut Vec<u8>, sets: &PooledSets) {
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

/// Strictly parses one `PooledSets` section. `bound` is the length of the
/// buffer the reader was built over, used to reject absurd counts before
/// any allocation; `max_value` bounds the pool entries.
fn take_sets(r: &mut Reader<'_>, bound: usize, max_value: u64) -> Result<PooledSets, StoreError> {
    let count = r
        .u64()
        .ok_or_else(|| StoreError::corrupt("truncated section count"))? as usize;
    // `count + 1` offsets of 8 bytes each must fit in the buffer.
    if count >= bound / 8 {
        return Err(StoreError::corrupt("section count exceeds buffer"));
    }
    let mut offsets = Vec::with_capacity(count + 1);
    let mut prev = 0u64;
    for i in 0..=count {
        let o = r
            .u64()
            .ok_or_else(|| StoreError::corrupt("truncated section offsets"))?;
        if i == 0 && o != 0 {
            return Err(StoreError::corrupt("section offsets must start at zero"));
        }
        if o < prev {
            return Err(StoreError::corrupt("section offsets not monotone"));
        }
        prev = o;
        offsets.push(o as usize);
    }
    let pool_len = prev as usize;
    if pool_len
        .checked_mul(4)
        .map(|b| b > bound)
        .unwrap_or(true)
    {
        return Err(StoreError::corrupt("section pool exceeds buffer"));
    }
    let mut pool = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        let v = r
            .u32()
            .ok_or_else(|| StoreError::corrupt("truncated section pool"))?;
        if (v as u64) >= max_value {
            return Err(StoreError::corrupt("section pool value out of range"));
        }
        pool.push(v);
    }
    // The checks above should make reassembly infallible, but these are
    // hostile bytes: route through the validating constructor so any gap
    // (e.g. a u64 offset overflowing the u32 arena bound) surfaces as
    // `Corrupt` instead of a panic.
    PooledSets::try_from_parts(offsets, pool)
        .map_err(|_| StoreError::corrupt("section offsets malformed"))
}

/// Serializes a shard file: header + elements + transpose index, both
/// blocks checksummed.
pub fn encode_shard(header: &ShardHeader, elements: &PooledSets, index: &PooledSets) -> Vec<u8> {
    let mut body = Vec::new();
    put_sets(&mut body, elements);
    put_sets(&mut body, index);
    seal(MAGIC, VERSION, &header.encode(), &body)
}

/// Wraps a header block and a body in the envelope `DIMR` and `DIMD` files
/// share: `magic · version · header_len · header · fnv(header) · body ·
/// fnv(body)`.
pub(crate) fn seal(magic: [u8; 4], version: u32, hdr: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + 4 + hdr.len() + 8 + body.len() + 8);
    out.extend_from_slice(&magic);
    put_u32(&mut out, version);
    put_u32(&mut out, hdr.len() as u32);
    out.extend_from_slice(hdr);
    put_u64(&mut out, fnv1a(hdr));
    out.extend_from_slice(body);
    put_u64(&mut out, fnv1a(body));
    out
}

/// Longest envelope prefix [`unseal_header`] consumes: `magic · version ·
/// header_len`, the largest accepted header block, its checksum.
pub(crate) const MAX_PREFIX_LEN: usize = 12 + MAX_HEADER_LEN + 8;

/// Opens the prefix of an envelope written by [`seal`] — `magic · version
/// · header_len · header · fnv(header)` — and nothing after it: magic,
/// version and the header checksum must match. Returns the header block
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
    if header_checksum != fnv1a(hdr) {
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
    if r.u64() != Some(fnv1a(body)) {
        return Err(StoreError::corrupt("body checksum mismatch"));
    }
    Ok((hdr, body))
}

/// Decodes and fully validates a shard file from untrusted bytes.
pub fn decode_shard(bytes: &[u8]) -> Result<ShardSnapshot, StoreError> {
    let (hdr, body) = unseal(bytes, MAGIC, VERSION)?;
    let header = ShardHeader::decode(hdr)?;
    let mut r = Reader::new(body);
    let elements = take_sets(&mut r, body.len(), header.num_sets)?;
    let index = take_sets(&mut r, body.len(), header.num_elements)?;
    r.finish()
        .ok_or_else(|| StoreError::corrupt("trailing bytes in body"))?;
    if elements.len() as u64 != header.num_elements {
        return Err(StoreError::corrupt("element count disagrees with header"));
    }
    if index.len() as u64 != header.num_sets {
        return Err(StoreError::corrupt("index count disagrees with header"));
    }
    // The index must be exactly the transpose of the elements — a cheap
    // full-integrity check beyond the checksums, and the guarantee the
    // serving layer relies on.
    let expected = elements.transpose(header.num_sets as usize);
    if (0..index.len()).any(|i| index.get(i) != expected.get(i)) {
        return Err(StoreError::corrupt("index is not the transpose of elements"));
    }
    Ok(ShardSnapshot {
        header,
        elements,
        index,
    })
}

/// Canonical file name for shard `id` of `count` (e.g.
/// `shard-3-of-8.rrs`).
pub fn shard_file_name(id: u32, count: u32) -> String {
    format!("shard-{id}-of-{count}.{SHARD_EXTENSION}")
}

/// Writes one shard into `dir` (created if needed) under its canonical
/// name, building the transpose index from `elements`. The write is
/// atomic: bytes land in a temporary file first, then rename into place,
/// so a crashed writer leaves no half-written `.rrs` behind.
pub fn write_shard(
    dir: &Path,
    header: &ShardHeader,
    elements: &PooledSets,
) -> Result<PathBuf, StoreError> {
    fs::create_dir_all(dir).map_err(|source| StoreError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let index = elements.transpose(header.num_sets as usize);
    let bytes = encode_shard(header, elements, &index);
    let path = dir.join(shard_file_name(header.shard_id, header.shard_count));
    let tmp = dir.join(format!(
        ".{}.tmp",
        shard_file_name(header.shard_id, header.shard_count)
    ));
    fs::write(&tmp, &bytes).map_err(|source| StoreError::Io {
        path: tmp.clone(),
        source,
    })?;
    fs::rename(&tmp, &path).map_err(|source| StoreError::Io {
        path: path.clone(),
        source,
    })?;
    Ok(path)
}

/// Reads and validates one shard file.
pub(crate) fn read_shard(path: &Path) -> Result<ShardSnapshot, StoreError> {
    let bytes = fs::read(path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    decode_shard(&bytes).map_err(|e| e.with_path(path))
}

/// What a loader requires of a snapshot. Mismatches become typed
/// [`StoreError::Mismatch`]es instead of silently selecting seeds against
/// the wrong sketch.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotRequest {
    /// Required [`graph_fingerprint`].
    pub fingerprint: u64,
    /// Required sampler.
    pub sampler: SamplerSpec,
    /// Required shard count, if the caller cares (e.g. resuming onto a
    /// cluster of a fixed size). `None` accepts whatever the snapshot has.
    pub shard_count: Option<u32>,
}

/// A complete, validated snapshot: every shard present, mutually
/// consistent, and matching the request.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub fingerprint: u64,
    pub sampler: SamplerSpec,
    pub seed: u64,
    pub theta: u64,
    /// Set-universe size (graph node count `n`).
    pub num_sets: u64,
    pub shard_count: u32,
    /// Shards in `shard_id` order.
    pub shards: Vec<ShardSnapshot>,
    /// Σ sampler work units across shards during the original sampling.
    pub edges_examined: u64,
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
pub fn load_snapshot(dir: &Path, request: &SnapshotRequest) -> Result<Snapshot, StoreError> {
    let entries = fs::read_dir(dir).map_err(|source| StoreError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| StoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        if path.extension().map(|e| e == SHARD_EXTENSION).unwrap_or(false) {
            paths.push(path);
        }
    }
    if paths.is_empty() {
        return Err(StoreError::Empty {
            dir: dir.to_path_buf(),
        });
    }
    paths.sort();
    let mut shards: Vec<ShardSnapshot> = Vec::with_capacity(paths.len());
    for path in &paths {
        let shard = read_shard(path)?;
        let h = &shard.header;
        let mismatch = |field, expected, found| StoreError::Mismatch {
            path: path.clone(),
            field,
            expected,
            found,
        };
        if h.fingerprint != request.fingerprint {
            return Err(mismatch("fingerprint", request.fingerprint, h.fingerprint));
        }
        if h.sampler != request.sampler {
            return Err(mismatch(
                "sampler",
                request.sampler.tag() as u64,
                h.sampler.tag() as u64,
            ));
        }
        if let Some(expect) = request.shard_count {
            if h.shard_count != expect {
                return Err(mismatch("shard_count", expect as u64, h.shard_count as u64));
            }
        }
        if let Some(first) = shards.first() {
            let f = &first.header;
            if h.shard_count != f.shard_count {
                return Err(mismatch(
                    "shard_count",
                    f.shard_count as u64,
                    h.shard_count as u64,
                ));
            }
            if h.seed != f.seed {
                return Err(mismatch("seed", f.seed, h.seed));
            }
            if h.theta != f.theta {
                return Err(mismatch("theta", f.theta, h.theta));
            }
            if h.num_sets != f.num_sets {
                return Err(mismatch("num_sets", f.num_sets, h.num_sets));
            }
        }
        shards.push(shard);
    }
    let shard_count = shards[0].header.shard_count;
    let mut seen = vec![false; shard_count as usize];
    for (shard, path) in shards.iter().zip(&paths) {
        let id = shard.header.shard_id as usize;
        if seen[id] {
            return Err(StoreError::Corrupt {
                path: Some(path.clone()),
                detail: "duplicate shard id",
            });
        }
        seen[id] = true;
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(StoreError::MissingShard {
            dir: dir.to_path_buf(),
            shard_id: missing as u32,
            shard_count,
        });
    }
    shards.sort_by_key(|s| s.header.shard_id);
    let first = shards[0].header;
    let edges_examined: u64 = shards.iter().map(|s| s.header.edges_examined).sum();
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
        edges_examined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
            sampler: SamplerSpec::Subsim,
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
        let index = elements.transpose(5);
        encode_shard(&sample_header(elements.len() as u64), &elements, &index)
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
        let snap = decode_shard(&bytes).unwrap();
        assert_eq!(snap.header, sample_header(4));
        let elements = sample_sets();
        for i in 0..elements.len() {
            assert_eq!(snap.elements.get(i), elements.get(i));
        }
        let index = elements.transpose(5);
        for i in 0..5 {
            assert_eq!(snap.index.get(i), index.get(i));
        }
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = encode_sample();
        for len in 0..bytes.len() {
            assert!(
                decode_shard(&bytes[..len]).is_err(),
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
                decode_shard(&mutated).is_err(),
                "flip at byte {i} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = encode_sample();
        bytes.push(0);
        assert!(decode_shard(&bytes).is_err());
    }

    #[test]
    fn mismatched_index_errors() {
        let elements = sample_sets();
        // Wrong index: transpose of something else entirely.
        let mut other = PooledSets::new();
        for _ in 0..elements.len() {
            other.push(&[0]);
        }
        let index = other.transpose(5);
        let bytes = encode_shard(&sample_header(elements.len() as u64), &elements, &index);
        match decode_shard(&bytes) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "index is not the transpose of elements")
            }
            other => panic!("expected corrupt index, got {other:?}"),
        }
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
        let sum = fnv1a(&mutated[hdr_end..body_end]);
        mutated[body_end..].copy_from_slice(&sum.to_le_bytes());
        match decode_shard(&mutated) {
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
        let snap = read_shard(&path).unwrap();
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

    fn write_pair(dir: &Path) {
        for id in 0..2u32 {
            let mut h = sample_header(2);
            h.shard_id = id;
            h.shard_count = 2;
            let mut elements = PooledSets::new();
            elements.push(&[id, 4]);
            elements.push(&[2]);
            write_shard(dir, &h, &elements).unwrap();
        }
    }

    fn request() -> SnapshotRequest {
        SnapshotRequest {
            fingerprint: 0xdead_beef_cafe_f00d,
            sampler: SamplerSpec::Subsim,
            shard_count: None,
        }
    }

    #[test]
    fn load_snapshot_assembles_all_shards() {
        let dir = temp_dir("load");
        write_pair(&dir);
        let snap = load_snapshot(&dir, &request()).unwrap();
        assert_eq!(snap.shard_count, 2);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.theta, 4);
        assert_eq!(snap.edges_examined, 34);
        assert_eq!(snap.shards[0].header.shard_id, 0);
        assert_eq!(snap.shards[1].header.shard_id, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_snapshot_rejects_fingerprint_mismatch() {
        let dir = temp_dir("fp");
        write_pair(&dir);
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
        write_pair(&dir);
        let mut req = request();
        req.sampler = SamplerSpec::ReverseBfs;
        match load_snapshot(&dir, &req) {
            Err(StoreError::Mismatch { field, .. }) => assert_eq!(field, "sampler"),
            other => panic!("expected mismatch, got {other:?}"),
        }
        let mut req = request();
        req.shard_count = Some(4);
        match load_snapshot(&dir, &req) {
            Err(StoreError::Mismatch { field, .. }) => assert_eq!(field, "shard_count"),
            other => panic!("expected mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_snapshot_reports_missing_shard() {
        let dir = temp_dir("missing");
        write_pair(&dir);
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

    #[test]
    fn load_snapshot_surfaces_on_disk_corruption() {
        let dir = temp_dir("corrupt");
        write_pair(&dir);
        let victim = dir.join(shard_file_name(0, 2));
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        match load_snapshot(&dir, &request()) {
            Err(StoreError::Corrupt { path: Some(p), .. }) => assert_eq!(p, victim),
            other => panic!("expected corrupt with path, got {other:?}"),
        }
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
