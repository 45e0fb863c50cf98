//! Delta shards (`DIMD` files): incremental generations layered on the
//! versioned `DIMR` base format.
//!
//! A streamed generation does not re-serialize every RR set. Instead each
//! worker writes a *delta shard* recording (a) the edge batch that was
//! applied and (b) only the RR sets the batch invalidated, re-sampled on
//! the mutated graph. A committed generation is then *base shards + an
//! ordered delta chain*; [`crate::generation::load_latest_chain`] folds
//! the chain back into a full snapshot at load time. A chain is never
//! folded on disk: compaction has the workers persist the shards they hold
//! resident — already the fold — as a new base.
//!
//! # Delta file layout (all integers little-endian)
//!
//! ```text
//! magic           b"DIMD"
//! version         u32        (currently 2)
//! header_len      u32
//! header          header_len bytes — see [`DeltaShardHeader`]
//! header_checksum u64        XXH64 over the header block
//! body            batch section, then repaired-record section
//! body_checksum   u64        XXH64 over the body
//! ```
//!
//! Header block: `base_generation u64 · parent_fingerprint u64 ·
//! fingerprint u64 · sampler u8 · seed u64 · theta u64 · batch_seq u64 ·
//! shard_id u32 · shard_count u32 · num_sets u64 · num_elements u64 ·
//! repaired_count u64`. The body is `batch_len u32 · batch bytes` (the
//! canonical [`DeltaBatch`] encoding, whose `seq` must equal `batch_seq`)
//! followed by `repaired_count` records of `set_index u32 · len u32 ·
//! nodes u32[len]` with strictly increasing `set_index`.
//!
//! Version 1 files, the same layout sealed with FNV-1a, are refused as
//! [`StoreError::Corrupt`] ("unsupported format version"); a chain holding
//! one must be re-sampled.
//!
//! The fingerprint pair is the chain linkage: `parent_fingerprint` is the
//! graph the batch applied to, `fingerprint` the graph it produced. A
//! loader validates every link starting from the base's graph, so a delta
//! chain can never silently apply against the wrong sketch. As with
//! `DIMR`, decoding untrusted bytes never panics — every length is
//! bounds-checked before allocation and failures surface as typed
//! [`StoreError`]s.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use dim_cluster::ops::{put_u32, put_u64, Reader};
use dim_cluster::SamplerSpec;
use dim_graph::DeltaBatch;

use crate::{
    files_with_extension, io_err, seal, unseal, unseal_header, write_atomic, StoreError,
    MAX_PREFIX_LEN,
};

/// File magic for delta shard files.
pub const DELTA_MAGIC: [u8; 4] = *b"DIMD";
/// Current delta format version.
pub const DELTA_VERSION: u32 = 2;
/// Extension used by delta shard files inside a generation directory.
pub const DELTA_EXTENSION: &str = "rrd";

/// Provenance and chain linkage for one delta shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaShardHeader {
    /// Generation id of the `DIMR` base this chain extends.
    pub base_generation: u64,
    /// Fingerprint of the graph the batch applied to (the previous link's
    /// tip, or the base graph for the first delta).
    pub parent_fingerprint: u64,
    /// Fingerprint of the graph the batch produced.
    pub fingerprint: u64,
    /// Which RR sampler re-generated the repaired sets.
    pub sampler: SamplerSpec,
    /// Master seed of the sampling run (per-set streams derive from it).
    pub seed: u64,
    /// Global RR-set count θ across all shards (unchanged by repair).
    pub theta: u64,
    /// Position of the batch in the chain, 0-based from the base.
    pub batch_seq: u64,
    /// This shard's machine id, `0..shard_count`.
    pub shard_id: u32,
    /// Number of machines ℓ in the snapshot.
    pub shard_count: u32,
    /// Set-universe size (the graph's node count `n`).
    pub num_sets: u64,
    /// Total RR sets resident in this shard (for validation; unchanged by
    /// repair).
    pub num_elements: u64,
    /// Number of repaired records in the body.
    pub repaired_count: u64,
}

impl DeltaShardHeader {
    /// Serializes the header block (the bytes covered by
    /// `header_checksum`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(81);
        put_u64(&mut out, self.base_generation);
        put_u64(&mut out, self.parent_fingerprint);
        put_u64(&mut out, self.fingerprint);
        out.push(self.sampler.tag());
        put_u64(&mut out, self.seed);
        put_u64(&mut out, self.theta);
        put_u64(&mut out, self.batch_seq);
        put_u32(&mut out, self.shard_id);
        put_u32(&mut out, self.shard_count);
        put_u64(&mut out, self.num_sets);
        put_u64(&mut out, self.num_elements);
        put_u64(&mut out, self.repaired_count);
        out
    }

    /// Strictly decodes a header block.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let truncated = || StoreError::corrupt("truncated delta header");
        let mut r = Reader::new(bytes);
        let base_generation = r.u64().ok_or_else(truncated)?;
        let parent_fingerprint = r.u64().ok_or_else(truncated)?;
        let fingerprint = r.u64().ok_or_else(truncated)?;
        let tag = r.u8().ok_or_else(truncated)?;
        let sampler = crate::sampler_of(tag)?;
        let seed = r.u64().ok_or_else(truncated)?;
        let theta = r.u64().ok_or_else(truncated)?;
        let batch_seq = r.u64().ok_or_else(truncated)?;
        let shard_id = r.u32().ok_or_else(truncated)?;
        let shard_count = r.u32().ok_or_else(truncated)?;
        let num_sets = r.u64().ok_or_else(truncated)?;
        let num_elements = r.u64().ok_or_else(truncated)?;
        let repaired_count = r.u64().ok_or_else(truncated)?;
        r.finish()
            .ok_or_else(|| StoreError::corrupt("trailing bytes in delta header"))?;
        if shard_count == 0 {
            return Err(StoreError::corrupt("shard_count is zero"));
        }
        if shard_id >= shard_count {
            return Err(StoreError::corrupt("shard_id out of range"));
        }
        if repaired_count > num_elements {
            return Err(StoreError::corrupt("repaired_count exceeds num_elements"));
        }
        Ok(DeltaShardHeader {
            base_generation,
            parent_fingerprint,
            fingerprint,
            sampler,
            seed,
            theta,
            batch_seq,
            shard_id,
            shard_count,
            num_sets,
            num_elements,
            repaired_count,
        })
    }
}

/// One decoded delta shard: its header, the edge batch, and the repaired
/// RR-set records `(local set index, new member nodes)` in strictly
/// increasing index order.
#[derive(Clone, Debug)]
pub struct DeltaShard {
    pub header: DeltaShardHeader,
    pub batch: DeltaBatch,
    pub repaired: Vec<(u32, Vec<u32>)>,
}

/// Canonical file name for delta shard `id` of `count` (e.g.
/// `shard-3-of-8.rrd`).
pub(crate) fn delta_file_name(id: u32, count: u32) -> String {
    format!("shard-{id}-of-{count}.{DELTA_EXTENSION}")
}

/// Serializes a delta shard file: header + batch + repaired records, both
/// blocks checksummed. `repaired` must be sorted by strictly increasing
/// set index (the canonical order a repair pass naturally produces).
///
/// # Panics
/// Panics if `repaired` is unsorted or its length disagrees with the
/// header — programmer errors on the trusted write path, not data errors.
pub fn encode_delta_shard(
    header: &DeltaShardHeader,
    batch: &DeltaBatch,
    repaired: &[(u32, Vec<u32>)],
) -> Vec<u8> {
    assert_eq!(header.repaired_count as usize, repaired.len());
    assert_eq!(header.batch_seq, batch.seq);
    assert!(
        repaired.windows(2).all(|w| w[0].0 < w[1].0),
        "repaired records must be sorted by strictly increasing set index"
    );
    let batch_bytes = batch.encode();
    seal(DELTA_MAGIC, DELTA_VERSION, &header.encode(), |body| {
        put_u32(body, batch_bytes.len() as u32);
        body.extend_from_slice(&batch_bytes);
        put_records(body, repaired);
    })
}

/// Appends the repaired records, each `set_index u32 · len u32 ·
/// nodes u32[len]`, reserving exactly their length first.
fn put_records(out: &mut Vec<u8>, repaired: &[(u32, Vec<u32>)]) {
    out.reserve(repaired.iter().map(|(_, nodes)| 8 + 4 * nodes.len()).sum());
    for (set_index, nodes) in repaired {
        put_u32(out, *set_index);
        put_u32(out, nodes.len() as u32);
        for &v in nodes {
            put_u32(out, v);
        }
    }
}

/// Decodes and fully validates a delta shard file from untrusted bytes.
pub fn decode_delta_shard(bytes: &[u8]) -> Result<DeltaShard, StoreError> {
    let (hdr, body) = unseal(bytes, DELTA_MAGIC, DELTA_VERSION)?;
    let header = DeltaShardHeader::decode(hdr)?;
    let mut r = Reader::new(body);
    let batch_len = r
        .u32()
        .ok_or_else(|| StoreError::corrupt("truncated batch length"))? as usize;
    if batch_len > r.remaining() {
        return Err(StoreError::corrupt("batch length exceeds body"));
    }
    let batch_bytes = r
        .take(batch_len)
        .ok_or_else(|| StoreError::corrupt("truncated batch"))?;
    let batch = DeltaBatch::decode(batch_bytes)
        .map_err(|_| StoreError::corrupt("malformed edge batch"))?;
    if batch.seq != header.batch_seq {
        return Err(StoreError::corrupt("batch seq disagrees with header"));
    }
    let count = header.repaired_count as usize;
    // Each record is at least 8 bytes; bound allocation by the body.
    if count > r.remaining() / 8 {
        return Err(StoreError::corrupt("repaired count exceeds body"));
    }
    let mut repaired = Vec::with_capacity(count);
    let mut prev: Option<u32> = None;
    for _ in 0..count {
        let set_index = r
            .u32()
            .ok_or_else(|| StoreError::corrupt("truncated repaired record"))?;
        if header.num_elements <= set_index as u64 {
            return Err(StoreError::corrupt("repaired set index out of range"));
        }
        if prev.is_some_and(|p| p >= set_index) {
            return Err(StoreError::corrupt("repaired records not sorted"));
        }
        prev = Some(set_index);
        let len = r
            .u32()
            .ok_or_else(|| StoreError::corrupt("truncated repaired record"))? as usize;
        if len > r.remaining() / 4 {
            return Err(StoreError::corrupt("repaired record exceeds body"));
        }
        let mut nodes = Vec::with_capacity(len);
        for _ in 0..len {
            let v = r
                .u32()
                .ok_or_else(|| StoreError::corrupt("truncated repaired record"))?;
            if header.num_sets <= v as u64 {
                return Err(StoreError::corrupt("repaired node out of range"));
            }
            nodes.push(v);
        }
        repaired.push((set_index, nodes));
    }
    r.finish()
        .ok_or_else(|| StoreError::corrupt("trailing bytes in delta body"))?;
    Ok(DeltaShard {
        header,
        batch,
        repaired,
    })
}

/// Writes one delta shard into `dir` (created if needed) under its
/// canonical name, atomically (tmp file + rename) like
/// [`crate::write_shard`].
pub fn write_delta_shard(
    dir: &Path,
    header: &DeltaShardHeader,
    batch: &DeltaBatch,
    repaired: &[(u32, Vec<u32>)],
) -> Result<PathBuf, StoreError> {
    let name = delta_file_name(header.shard_id, header.shard_count);
    write_atomic(dir, &name, &encode_delta_shard(header, batch, repaired))
}

/// Reads and validates one delta shard file.
pub(crate) fn read_delta_shard(path: &Path) -> Result<DeltaShard, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    decode_delta_shard(&bytes).map_err(|e| e.with_path(path))
}

/// All `*.rrd` files in a generation directory, sorted by name. Empty for
/// a base (`DIMR`) generation.
pub(crate) fn delta_paths(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    files_with_extension(dir, DELTA_EXTENSION)
}

/// Decodes the header of a delta shard from the start of its file — the
/// whole file or just its first bytes — without looking at the body: the
/// envelope prefix (`magic · version · header_len · header · checksum(header)`)
/// is verified exactly as [`decode_delta_shard`] verifies it, and whatever
/// follows is ignored.
pub fn decode_delta_header(bytes: &[u8]) -> Result<DeltaShardHeader, StoreError> {
    let (hdr, _) = unseal_header(bytes, DELTA_MAGIC, DELTA_VERSION)?;
    DeltaShardHeader::decode(hdr)
}

/// Reads the header of one delta shard file: at most [`MAX_PREFIX_LEN`]
/// bytes come off the disk. The body — batch and repaired records,
/// megabytes on a live chain — is neither read nor checked.
fn read_delta_header(path: &Path) -> Result<DeltaShardHeader, StoreError> {
    let io = |e| io_err(path, e);
    let mut prefix = Vec::with_capacity(MAX_PREFIX_LEN);
    fs::File::open(path)
        .map_err(io)?
        .take(MAX_PREFIX_LEN as u64)
        .read_to_end(&mut prefix)
        .map_err(io)?;
    decode_delta_header(&prefix).map_err(|e| e.with_path(path))
}

/// Reads the base-generation link from a delta generation directory (the
/// first `*.rrd` file's header), or `None` when the directory holds no
/// delta shards. Chain-aware GC uses this to keep transitively referenced
/// bases alive.
pub(crate) fn delta_base_of(dir: &Path) -> Result<Option<u64>, StoreError> {
    match delta_paths(dir)?.first() {
        Some(path) => Ok(Some(read_delta_header(path)?.base_generation)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum;
    use dim_graph::EdgeOp;

    fn sample_batch() -> DeltaBatch {
        DeltaBatch::new(
            2,
            vec![
                EdgeOp::Insert { u: 0, v: 3, p: 0.5 },
                EdgeOp::Delete { u: 1, v: 2 },
            ],
        )
    }

    fn sample_header() -> DeltaShardHeader {
        DeltaShardHeader {
            base_generation: 4,
            parent_fingerprint: 0x1111_2222_3333_4444,
            fingerprint: 0x5555_6666_7777_8888,
            sampler: SamplerSpec::Subsim,
            seed: 42,
            theta: 10,
            batch_seq: 2,
            shard_id: 1,
            shard_count: 2,
            num_sets: 5,
            num_elements: 6,
            repaired_count: 2,
        }
    }

    fn sample_repaired() -> Vec<(u32, Vec<u32>)> {
        vec![(1, vec![3, 0]), (4, vec![2])]
    }

    fn encode_sample() -> Vec<u8> {
        encode_delta_shard(&sample_header(), &sample_batch(), &sample_repaired())
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        assert_eq!(DeltaShardHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn shard_roundtrip() {
        let shard = decode_delta_shard(&encode_sample()).unwrap();
        assert_eq!(shard.header, sample_header());
        assert_eq!(shard.batch, sample_batch());
        assert_eq!(shard.repaired, sample_repaired());
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = encode_sample();
        for len in 0..bytes.len() {
            assert!(
                decode_delta_shard(&bytes[..len]).is_err(),
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
                decode_delta_shard(&mutated).is_err(),
                "flip at byte {i} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = encode_sample();
        bytes.push(0);
        assert!(decode_delta_shard(&bytes).is_err());
    }

    fn refix_body_checksum(bytes: &mut [u8]) {
        let hdr_len = sample_header().encode().len();
        let body_start = 4 + 4 + 4 + hdr_len + 8;
        let body_end = bytes.len() - 8;
        let sum = checksum(&bytes[body_start..body_end]);
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn absurd_counts_rejected_before_allocation() {
        // Batch length far beyond the body, checksum refixed so the length
        // check itself is what trips — no allocation, no panic.
        let mut bytes = encode_sample();
        let hdr_len = sample_header().encode().len();
        let body_start = 4 + 4 + 4 + hdr_len + 8;
        bytes[body_start..body_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refix_body_checksum(&mut bytes);
        match decode_delta_shard(&bytes) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "batch length exceeds body")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_or_out_of_range_repairs_rejected() {
        let h = sample_header();
        // Out-of-range set index (num_elements is 6).
        let mut bad = DeltaShardHeader {
            repaired_count: 1,
            ..h
        };
        let bytes = encode_delta_shard(&bad, &sample_batch(), &[(5, vec![0])]);
        assert!(decode_delta_shard(&bytes).is_ok());
        let bytes = encode_delta_shard(&bad, &sample_batch(), &[(4, vec![9])]);
        match decode_delta_shard(&bytes) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "repaired node out of range")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        bad.repaired_count = 7;
        assert!(DeltaShardHeader::decode(&bad.encode()).is_err());
    }

    #[test]
    fn batch_seq_must_match_header() {
        let mut h = sample_header();
        h.batch_seq = 3;
        // encode asserts on the trusted path, so build the mismatch by
        // hand: encode with a matching header, then bump the header field
        // and refix checksums.
        let batch = DeltaBatch::new(3, sample_batch().ops);
        let bytes = encode_delta_shard(&h, &batch, &sample_repaired());
        assert!(decode_delta_shard(&bytes).is_ok());
        let wrong = DeltaBatch::new(9, sample_batch().ops);
        let mut forged = encode_delta_shard(
            &DeltaShardHeader {
                batch_seq: 9,
                ..h
            },
            &wrong,
            &sample_repaired(),
        );
        // Splice the original (seq 3) header back in with its checksum.
        let hdr = h.encode();
        forged[12..12 + hdr.len()].copy_from_slice(&hdr);
        let sum = checksum(&hdr);
        forged[12 + hdr.len()..12 + hdr.len() + 8].copy_from_slice(&sum.to_le_bytes());
        match decode_delta_shard(&forged) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "batch seq disagrees with header")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    /// The header-only reader is as strict about the envelope prefix as
    /// the full decoder, and blind to everything after it.
    #[test]
    fn header_only_reader_is_strict_about_the_prefix_and_ignores_the_body() {
        let bytes = encode_sample();
        let prefix_len = 12 + sample_header().encode().len() + 8;
        assert_eq!(decode_delta_header(&bytes).unwrap(), sample_header());
        assert_eq!(decode_delta_header(&bytes[..prefix_len]).unwrap(), sample_header());
        for len in 0..prefix_len {
            assert!(
                matches!(decode_delta_header(&bytes[..len]), Err(StoreError::Corrupt { .. })),
                "prefix truncated to {len} bytes decoded"
            );
        }
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            match decode_delta_header(&mutated) {
                Err(StoreError::Corrupt { .. }) if i < prefix_len => {}
                Ok(header) if i >= prefix_len => {
                    assert_eq!(header, sample_header());
                    assert!(decode_delta_shard(&mutated).is_err(), "body flip at {i}");
                }
                other => panic!("flip at byte {i}: {other:?}"),
            }
        }
        for header_len in [MAX_PREFIX_LEN as u32, u32::MAX] {
            let mut long = bytes.clone();
            long[8..12].copy_from_slice(&header_len.to_le_bytes());
            match decode_delta_header(&long) {
                Err(StoreError::Corrupt { detail, .. }) => {
                    assert_eq!(detail, "header length out of range")
                }
                other => panic!("header_len {header_len}: {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip_and_base_link() {
        let dir = std::env::temp_dir().join(format!(
            "dim-store-delta-{}-{}",
            std::process::id(),
            line!()
        ));
        let path =
            write_delta_shard(&dir, &sample_header(), &sample_batch(), &sample_repaired())
                .unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "shard-1-of-2.rrd"
        );
        let shard = read_delta_shard(&path).unwrap();
        assert_eq!(shard.header, sample_header());
        assert_eq!(delta_base_of(&dir).unwrap(), Some(4));
        // No temp files left behind.
        assert!(fs::read_dir(&dir)
            .unwrap()
            .all(|e| !e.unwrap().file_name().to_str().unwrap().ends_with(".tmp")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_base_of_none_for_base_generation() {
        let dir = std::env::temp_dir().join(format!(
            "dim-store-delta-none-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(delta_base_of(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }
}
