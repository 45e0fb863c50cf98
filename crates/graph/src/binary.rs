//! Compact binary graph format for fast load/save.
//!
//! Text edge lists parse at tens of MB/s; the paper's Twitter graph has
//! 1.5G edges, for which a binary CSR dump (magic `DIMG`, little-endian)
//! loads at memory-copy speed. Only the forward CSR is stored. On load its
//! three arrays are converted in bulk straight into the graph's own, and
//! the reverse adjacency is rebuilt by one linear counting pass (the
//! crate's one reverse-CSR construction, deterministic): no builder, edge
//! list or sort is involved.
//!
//! Layout:
//! ```text
//! "DIMG" | u32 version | u64 n | u64 m
//! u64 out_offsets[n+1] | u32 out_targets[m] | f32 out_probs[m]
//! ```
//!
//! Decoding is bounded and strict, like every other format on
//! [`Reader`]: `n` and `m` fix the image's length, so the decoder demands
//! `8·(n+1) + 8·m` remaining bytes *before* allocating anything — a
//! corrupted count, a truncated image and a trailing byte are all the same
//! typed [`GraphError::Parse`]. Rows must be what [`write_binary`] emits
//! (targets strictly increasing, no self-loops, probabilities in `[0, 1]`),
//! so an image that decodes re-encodes to exactly the bytes it came from.

use std::io::Write;
use std::path::Path;

use crate::codec::Reader;
use crate::csr::Graph;
use crate::error::GraphError;

const MAGIC: &[u8; 4] = b"DIMG";
const VERSION: u32 = 1;

/// Bytes the writer gathers before each `write_all`.
const BATCH_BYTES: usize = 1 << 16;

/// Writes the graph in binary CSR form. Values are encoded into a buffer a
/// row at a time, and `writer` gets them in batches of about 64 KiB, not
/// one call per value.
pub fn write_binary<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = Batches {
        writer,
        buf: Vec::with_capacity(2 * BATCH_BYTES),
    };
    w.buf.extend_from_slice(MAGIC);
    w.put(&[VERSION], u32::to_le_bytes)?;
    let (n, m) = (graph.num_nodes() as u64, graph.num_edges() as u64);
    w.put(&[n, m], u64::to_le_bytes)?;
    // Offsets derived from per-node degrees (the CSR arrays themselves are
    // private to the graph; degrees reconstruct them exactly).
    let mut offset = 0u64;
    w.put(&[offset], u64::to_le_bytes)?;
    for u in graph.nodes() {
        offset += graph.out_degree(u) as u64;
        w.put(&[offset], u64::to_le_bytes)?;
    }
    for u in graph.nodes() {
        w.put(graph.out_neighbors(u), u32::to_le_bytes)?;
    }
    for u in graph.nodes() {
        w.put(graph.out_probs(u), f32::to_le_bytes)?;
    }
    w.writer.write_all(&w.buf)?;
    w.writer.flush()?;
    Ok(())
}

/// A writer behind a buffer that is handed on in batches.
struct Batches<W> {
    writer: W,
    buf: Vec<u8>,
}

impl<W: Write> Batches<W> {
    /// Appends `values` as `N`-byte little-endian words, at most a batch
    /// of them at a time, and hands the buffer on whenever it holds a
    /// batch, so it never holds two.
    fn put<T: Copy, const N: usize>(
        &mut self,
        values: &[T],
        to_le_bytes: fn(T) -> [u8; N],
    ) -> std::io::Result<()> {
        for part in values.chunks(BATCH_BYTES / N) {
            let start = self.buf.len();
            self.buf.resize(start + N * part.len(), 0);
            let (words, _) = self.buf[start..].as_chunks_mut::<N>();
            for (word, &v) in words.iter_mut().zip(part) {
                *word = to_le_bytes(v);
            }
            if self.buf.len() >= BATCH_BYTES {
                self.writer.write_all(&self.buf)?;
                self.buf.clear();
            }
        }
        Ok(())
    }
}

/// A typed "this is not a DIMG image" error (`line` is 0: no line numbers
/// in a binary format).
fn corrupt(message: impl Into<String>) -> GraphError {
    GraphError::Parse {
        line: 0,
        message: message.into(),
    }
}

/// Decodes an in-memory image written by [`write_binary`]. Hostile bytes
/// are a [`GraphError::Parse`], never a panic or an oversized allocation.
pub fn decode_binary(bytes: &[u8]) -> Result<Graph, GraphError> {
    let truncated = || corrupt("truncated image");
    let mut r = Reader::new(bytes);
    let magic = r.take(4).ok_or_else(truncated)?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:?}, expected DIMG")));
    }
    let version = r.u32().ok_or_else(truncated)?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let n = r.u64().ok_or_else(truncated)?;
    let m = r.u64().ok_or_else(truncated)?;
    // `n` and `m` fix the length of everything that follows. Demanding it
    // exactly bounds both counts by the buffer before any allocation and
    // is the truncation and trailing-byte check in one.
    let body_len = n
        .checked_add(1)
        .and_then(|offsets| offsets.checked_add(m)?.checked_mul(8));
    if body_len != Some(r.remaining() as u64) || n > 1 << 32 {
        return Err(corrupt(format!(
            "n = {n}, m = {m} do not describe an image of {} bytes",
            bytes.len()
        )));
    }
    let (n, m) = (n as usize, m as usize);
    // Each array is converted in one pass straight into the vector the
    // graph keeps. An offset too large for `usize` saturates, which the
    // offset checks below then refuse (it exceeds `m`).
    let offsets = r.take(8 * (n + 1)).ok_or_else(truncated)?;
    let out_offsets: Vec<usize> = (offsets.as_chunks::<8>().0.iter())
        .map(|&b| usize::try_from(u64::from_le_bytes(b)).unwrap_or(usize::MAX))
        .collect();
    if out_offsets[0] != 0 || out_offsets[n] != m {
        return Err(corrupt("corrupt offset array"));
    }
    if out_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("non-monotone offsets"));
    }
    let targets = r.take(4 * m).ok_or_else(truncated)?;
    let out_targets: Vec<u32> = (targets.as_chunks::<4>().0.iter())
        .map(|&b| u32::from_le_bytes(b))
        .collect();
    let probs = r.take(4 * m).ok_or_else(truncated)?;
    let out_probs: Vec<f32> = (probs.as_chunks::<4>().0.iter())
        .map(|&b| f32::from_le_bytes(b))
        .collect();
    r.finish().ok_or_else(|| corrupt("trailing bytes"))?;

    for u in 0..n {
        let row = out_offsets[u]..out_offsets[u + 1];
        let mut prev = None;
        for (&v, &p) in out_targets[row.clone()].iter().zip(&out_probs[row]) {
            if v as usize >= n {
                return Err(corrupt("edge target out of range"));
            }
            // What `write_binary` emits for any built graph, and what
            // `Graph::from_rows` takes.
            if v as usize == u || prev.is_some_and(|w| w >= v) {
                return Err(corrupt("row is not strictly increasing and loop-free"));
            }
            if !(0.0..=1.0).contains(&p) {
                return Err(corrupt("probability out of [0,1]"));
            }
            prev = Some(v);
        }
    }
    Ok(Graph::from_rows(n, out_offsets, out_targets, out_probs))
}

/// Writes to a file path.
pub fn write_binary_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), GraphError> {
    write_binary(graph, std::fs::File::create(path)?)
}

/// Reads from a file path.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    decode_binary(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::{GraphBuilder, WeightModel};

    #[test]
    fn roundtrip() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = decode_binary(&buf).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
        // Reverse adjacency reconstructed identically.
        for v in g.nodes() {
            assert_eq!(g.in_neighbors(v), g2.in_neighbors(v));
            assert_eq!(g.in_probs(v), g2.in_probs(v));
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode_binary(b"NOPE\x01\x00\x00\x00").unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_truncation() {
        let g = erdos_renyi(50, 200, WeightModel::WeightedCascade, 4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        for cut in [5, 20, buf.len() / 2, buf.len() - 3] {
            assert!(decode_binary(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_out_of_range_target() {
        let g = erdos_renyi(10, 20, WeightModel::WeightedCascade, 5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Corrupt one target to an out-of-range id. Targets start after
        // magic(4) + version(4) + n(8) + m(8) + offsets((n+1)*8).
        let targets_start = 24 + 11 * 8;
        buf[targets_start..targets_start + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(decode_binary(&buf).is_err());
    }

    /// `image` with the `u64` at byte `at` replaced (`n` is at 8, `m` at
    /// 16, the offsets start at 24).
    fn with_u64_at(image: &[u8], at: usize, value: u64) -> Vec<u8> {
        let mut bytes = image.to_vec();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    #[test]
    fn hostile_images_are_parse_errors() {
        let mut image = Vec::new();
        write_binary(&erdos_renyi(10, 20, WeightModel::WeightedCascade, 5), &mut image).unwrap();
        let hostile = [
            ("n = 2^60", with_u64_at(&image, 8, 1 << 60)),
            ("n = u64::MAX", with_u64_at(&image, 8, u64::MAX)),
            ("m = 2^60", with_u64_at(&image, 16, 1 << 60)),
            ("m = u64::MAX", with_u64_at(&image, 16, u64::MAX)),
            ("offsets[1] > offsets[2]", with_u64_at(&image, 24 + 8, u64::MAX)),
            ("trailing byte", [&image[..], &[0]].concat()),
        ];
        for (what, bytes) in hostile {
            let err = decode_binary(&bytes).expect_err(what);
            assert!(matches!(err, GraphError::Parse { .. }), "{what}: {err}");
        }
    }

    #[test]
    fn rejects_rows_the_writer_never_emits() {
        // 0 → {1, 2}: an unsorted row, a duplicate edge, a self-loop.
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 0.5);
        b.add_weighted_edge(0, 2, 0.5);
        let mut image = Vec::new();
        write_binary(&b.build(WeightModel::WeightedCascade), &mut image).unwrap();
        let targets = 24 + 4 * 8;
        for row in [[2u32, 1], [1, 1], [0, 2]] {
            let mut bytes = image.clone();
            bytes[targets..targets + 4].copy_from_slice(&row[0].to_le_bytes());
            bytes[targets + 4..targets + 8].copy_from_slice(&row[1].to_le_bytes());
            assert!(decode_binary(&bytes).is_err(), "row {row:?} accepted");
        }
    }

    /// The image the commit before `decode_binary` wrote for the 5-node
    /// graph below: the byte format did not move.
    #[test]
    fn reads_an_image_written_before_the_slice_decoder() {
        #[rustfmt::skip]
        const IMAGE: [u8; 112] = [
            0x44, 0x49, 0x4d, 0x47, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3f,
            0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x3e, 0x00, 0x00, 0x40, 0x3f,
        ];
        let g = decode_binary(&IMAGE).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            [(0, 1, 0.5), (0, 3, 0.25), (1, 2, 1.0), (3, 0, 0.125), (3, 4, 0.75)]
        );
        let mut rewritten = Vec::new();
        write_binary(&g, &mut rewritten).unwrap();
        assert_eq!(rewritten, IMAGE);
    }

    #[test]
    fn file_roundtrip() {
        let g = erdos_renyi(30, 100, WeightModel::Uniform(0.2), 6);
        let path = std::env::temp_dir().join(format!("dim-binary-{}.dimg", std::process::id()));
        write_binary_file(&g, &path).unwrap();
        let g2 = read_binary_file(&path).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_graph_roundtrip() {
        let b = GraphBuilder::new(3);
        let g = b.build(WeightModel::WeightedCascade);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = decode_binary(&buf).unwrap();
        assert_eq!(g2.num_nodes(), 3);
        assert_eq!(g2.num_edges(), 0);
    }
}
