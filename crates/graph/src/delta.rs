//! Edge-stream deltas over the frozen CSR [`Graph`].
//!
//! Real social graphs mutate constantly while the CSR representation is
//! immutable by design. This module bridges the two: an [`EdgeOp`] is one
//! mutation (insert / delete / reweight of a directed edge), a
//! [`DeltaBatch`] is a sequence-numbered group of ops with a canonical
//! little-endian codec (so batches can live in `dim-store` delta shards and
//! travel the cluster wire), and [`apply_batch`] splices a batch into a base
//! graph's CSR rows, giving a new [`Graph`].
//!
//! Mutations never add nodes: every op must reference nodes `< n`. This
//! keeps all per-node state in the samplers and coverage shards (visit
//! trackers, epoch flags, SUBSIM's per-node CDF tables) valid across a
//! batch, which is what makes incremental RR-set repair sound.
//!
//! Semantics (documented, deterministic):
//! * `Insert` on an existing edge overwrites its weight.
//! * `Delete` / `Reweight` on a missing edge is a no-op.
//! * Ops within a batch apply in order; later ops win.

use std::fmt;

use crate::codec::Reader;
use crate::csr::{Graph, RowEdit};
use crate::NodeId;

/// One edge mutation in a stream batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeOp {
    /// Add edge `u → v` with propagation probability `p` (overwrites the
    /// weight if the edge already exists).
    Insert { u: NodeId, v: NodeId, p: f32 },
    /// Remove edge `u → v` (no-op if absent).
    Delete { u: NodeId, v: NodeId },
    /// Change the probability of existing edge `u → v` to `p` (no-op if
    /// absent).
    Reweight { u: NodeId, v: NodeId, p: f32 },
}

const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;
const TAG_REWEIGHT: u8 = 2;

impl EdgeOp {
    /// The edge's target node — the only node whose in-neighborhood this op
    /// changes, hence the unit of RR-set invalidation.
    pub fn target(&self) -> NodeId {
        match *self {
            EdgeOp::Insert { v, .. } | EdgeOp::Delete { v, .. } | EdgeOp::Reweight { v, .. } => v,
        }
    }

    /// The edge's source node.
    pub fn source(&self) -> NodeId {
        match *self {
            EdgeOp::Insert { u, .. } | EdgeOp::Delete { u, .. } | EdgeOp::Reweight { u, .. } => u,
        }
    }
}

/// A sequence-numbered batch of edge mutations.
///
/// `seq` orders batches within a delta chain: batch `s` applies on top of
/// the state produced by batch `s − 1`. The store layer persists `seq` in
/// every delta shard and validates chain order at load time.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaBatch {
    /// Position of this batch in the edit stream (0-based).
    pub seq: u64,
    /// Mutations, applied in order.
    pub ops: Vec<EdgeOp>,
}

/// Errors from decoding or validating a delta batch.
#[derive(Debug)]
pub enum DeltaError {
    /// The encoded bytes are malformed (bad tag, truncation, trailing
    /// bytes, pathological counts).
    Corrupt(String),
    /// An op is semantically invalid for the target graph (node out of
    /// range, self-loop, probability outside `[0, 1]`).
    Invalid(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Corrupt(m) => write!(f, "corrupt delta batch: {m}"),
            DeltaError::Invalid(m) => write!(f, "invalid edge op: {m}"),
        }
    }
}

impl std::error::Error for DeltaError {}

fn corrupt(msg: impl Into<String>) -> DeltaError {
    DeltaError::Corrupt(msg.into())
}

impl DeltaBatch {
    /// Creates a batch; convenience for tests and the CLI.
    pub fn new(seq: u64, ops: Vec<EdgeOp>) -> Self {
        DeltaBatch { seq, ops }
    }

    /// Validates every op against a graph with `num_nodes` nodes: node ids
    /// in range, no self-loops, probabilities within `[0, 1]` and finite.
    /// Streams never add nodes — that is what keeps per-node sampler state
    /// valid across an applied batch.
    pub fn validate(&self, num_nodes: usize) -> Result<(), DeltaError> {
        for (i, op) in self.ops.iter().enumerate() {
            let (u, v) = (op.source(), op.target());
            if u as usize >= num_nodes || v as usize >= num_nodes {
                return Err(DeltaError::Invalid(format!(
                    "op {i}: edge ({u}, {v}) references a node ≥ {num_nodes}"
                )));
            }
            if u == v {
                return Err(DeltaError::Invalid(format!("op {i}: self-loop on {u}")));
            }
            if let EdgeOp::Insert { p, .. } | EdgeOp::Reweight { p, .. } = *op {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(DeltaError::Invalid(format!(
                        "op {i}: probability {p} outside [0, 1]"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Nodes whose in-neighborhood this batch mutates, sorted and deduped.
    /// An RR set must be invalidated iff it contains one of these nodes:
    /// reverse traversal only draws randomness while scanning a visited
    /// node's in-list, so a set that never visited a touched node replays
    /// byte-identically on the mutated graph.
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.ops.iter().map(|op| op.target()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Canonical little-endian encoding: `seq` (u64), op count (u32), then
    /// per op a tag byte (`0`=Insert, `1`=Delete, `2`=Reweight), `u` (u32),
    /// `v` (u32), and for Insert/Reweight the probability (f32 LE bits).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.ops.len() * 13);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match *op {
                EdgeOp::Insert { u, v, p } => {
                    out.push(TAG_INSERT);
                    out.extend_from_slice(&u.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&p.to_le_bytes());
                }
                EdgeOp::Delete { u, v } => {
                    out.push(TAG_DELETE);
                    out.extend_from_slice(&u.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
                EdgeOp::Reweight { u, v, p } => {
                    out.push(TAG_REWEIGHT);
                    out.extend_from_slice(&u.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
        }
        out
    }

    /// Strict decode of [`DeltaBatch::encode`]'s format. Bad tags,
    /// truncation, pathological counts, and trailing bytes are all
    /// [`DeltaError::Corrupt`] — never a panic or over-allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeltaError> {
        let truncated = || corrupt("truncated delta batch");
        let mut r = Reader::new(bytes);
        let seq = r.u64().ok_or_else(truncated)?;
        let count = r.u32().ok_or_else(truncated)? as usize;
        // Each op is at least 9 bytes; bound the allocation by what the
        // buffer could actually hold.
        if count > r.remaining() / 9 {
            return Err(corrupt(format!(
                "op count {count} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = r.u8().ok_or_else(truncated)?;
            let u = r.u32().ok_or_else(truncated)?;
            let v = r.u32().ok_or_else(truncated)?;
            let op = match tag {
                TAG_INSERT => EdgeOp::Insert { u, v, p: r.f32().ok_or_else(truncated)? },
                TAG_DELETE => EdgeOp::Delete { u, v },
                TAG_REWEIGHT => {
                    EdgeOp::Reweight { u, v, p: r.f32().ok_or_else(truncated)? }
                }
                t => return Err(corrupt(format!("unknown edge-op tag {t}"))),
            };
            ops.push(op);
        }
        r.finish().ok_or_else(|| corrupt("trailing bytes after the last op"))?;
        Ok(DeltaBatch { seq, ops })
    }
}

/// Applies `batch` to `base` and returns the mutated graph.
///
/// The batch is first resolved to one final state per edited `(u, v)` —
/// its ops folded in order over the edge's state in `base` — and the
/// resolved edits are then spliced into both CSR directions: untouched
/// rows are copied as whole runs and only edited rows are merged, so the
/// cost is two array copies plus the batch, independent of how the edges
/// are distributed. The result is array-for-array what rebuilding the
/// edited edge list through [`crate::GraphBuilder`] gives.
pub fn apply_batch(base: &Graph, batch: &DeltaBatch) -> Result<Graph, DeltaError> {
    batch.validate(base.num_nodes())?;
    // Stable, so each edge's ops stay in batch order.
    let mut ops = batch.ops.clone();
    ops.sort_by_key(|op| (op.source(), op.target()));
    let mut by_source: Vec<RowEdit> = Vec::with_capacity(ops.len());
    for group in ops.chunk_by(|a, b| (a.source(), a.target()) == (b.source(), b.target())) {
        let (u, v) = (group[0].source(), group[0].target());
        let mut state = base
            .out_neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|i| base.out_probs(u)[i]);
        for op in group {
            match *op {
                EdgeOp::Insert { p, .. } => state = Some(p),
                EdgeOp::Delete { .. } => state = None,
                EdgeOp::Reweight { p, .. } => state = state.map(|_| p),
            }
        }
        by_source.push((u, v, state));
    }
    let mut by_target: Vec<RowEdit> = by_source.iter().map(|&(u, v, s)| (v, u, s)).collect();
    by_target.sort_unstable_by_key(|&(v, u, _)| (v, u));
    Ok(base.spliced(&by_source, &by_target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::{GraphBuilder, WeightModel};

    fn base() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_weighted_edge(0, 1, 0.5);
        b.add_weighted_edge(1, 2, 0.25);
        b.add_weighted_edge(2, 3, 0.75);
        b.add_weighted_edge(3, 4, 1.0);
        b.build(WeightModel::WeightedCascade)
    }

    fn sample_batch() -> DeltaBatch {
        DeltaBatch::new(
            0,
            vec![
                EdgeOp::Insert { u: 0, v: 3, p: 0.5 },
                EdgeOp::Delete { u: 1, v: 2 },
                EdgeOp::Reweight { u: 2, v: 3, p: 0.1 },
            ],
        )
    }

    #[test]
    fn codec_roundtrip() {
        let b = sample_batch();
        let bytes = b.encode();
        assert_eq!(DeltaBatch::decode(&bytes).unwrap(), b);
        let empty = DeltaBatch::new(7, vec![]);
        assert_eq!(DeltaBatch::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let bytes = sample_batch().encode();
        for cut in 0..bytes.len() {
            assert!(
                DeltaBatch::decode(&bytes[..cut]).is_err(),
                "accepted truncation at {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(DeltaBatch::decode(&long).is_err(), "accepted trailing byte");
    }

    #[test]
    fn decode_rejects_bad_tag_and_pathological_count() {
        let mut bytes = sample_batch().encode();
        bytes[12] = 9; // first op tag
        assert!(matches!(
            DeltaBatch::decode(&bytes).unwrap_err(),
            DeltaError::Corrupt(_)
        ));
        // Huge declared count with a tiny body must not allocate or panic.
        let mut tiny = Vec::new();
        tiny.extend_from_slice(&0u64.to_le_bytes());
        tiny.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(DeltaBatch::decode(&tiny).is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_self_loop_bad_p() {
        let oob = DeltaBatch::new(0, vec![EdgeOp::Delete { u: 0, v: 9 }]);
        assert!(oob.validate(5).is_err());
        let self_loop = DeltaBatch::new(0, vec![EdgeOp::Insert { u: 2, v: 2, p: 0.5 }]);
        assert!(self_loop.validate(5).is_err());
        let bad_p = DeltaBatch::new(0, vec![EdgeOp::Insert { u: 0, v: 1, p: 1.5 }]);
        assert!(bad_p.validate(5).is_err());
        let nan_p = DeltaBatch::new(
            0,
            vec![EdgeOp::Reweight {
                u: 0,
                v: 1,
                p: f32::NAN,
            }],
        );
        assert!(nan_p.validate(5).is_err());
        assert!(sample_batch().validate(5).is_ok());
    }

    #[test]
    fn touched_nodes_sorted_deduped() {
        let b = DeltaBatch::new(
            0,
            vec![
                EdgeOp::Insert { u: 0, v: 3, p: 0.5 },
                EdgeOp::Delete { u: 1, v: 3 },
                EdgeOp::Reweight { u: 4, v: 1, p: 0.2 },
            ],
        );
        assert_eq!(b.touched_nodes(), vec![1, 3]);
    }

    #[test]
    fn apply_semantics() {
        let g = base();
        let mutated = apply_batch(&g, &sample_batch()).unwrap();
        assert_eq!(mutated.num_nodes(), 5);
        // Insert added (0,3); delete removed (1,2); reweight changed (2,3).
        assert_eq!(mutated.num_edges(), 4);
        assert_eq!(mutated.out_neighbors(0), &[1, 3]);
        assert!(mutated.out_neighbors(1).is_empty());
        assert_eq!(mutated.out_probs(2), &[0.1]);
        // Untouched edge survives byte-identically.
        assert_eq!(mutated.out_probs(3), &[1.0]);
    }

    #[test]
    fn insert_overwrites_and_missing_edge_ops_are_noops() {
        let g = base();
        let batch = DeltaBatch::new(
            0,
            vec![
                EdgeOp::Insert { u: 0, v: 1, p: 0.9 }, // overwrite existing
                EdgeOp::Delete { u: 0, v: 4 },         // absent: no-op
                EdgeOp::Reweight { u: 0, v: 2, p: 0.3 }, // absent: no-op
            ],
        );
        let mutated = apply_batch(&g, &batch).unwrap();
        assert_eq!(mutated.num_edges(), 4);
        assert_eq!(mutated.out_probs(0), &[0.9]);
        assert!(!mutated.out_neighbors(0).contains(&2));
    }

    /// Every array of both CSR directions, row by row.
    fn assert_same_csr(a: &Graph, b: &Graph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.nodes() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out row {v}");
            assert_eq!(a.out_probs(v), b.out_probs(v), "out probs {v}");
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in row {v}");
            assert_eq!(a.in_probs(v), b.in_probs(v), "in probs {v}");
            assert_eq!(a.in_prob_sum(v), b.in_prob_sum(v), "in sum {v}");
            assert_eq!(a.in_uniform_prob(v), b.in_uniform_prob(v), "uniform {v}");
        }
    }

    #[test]
    fn chained_batches_compose_like_one_folded_batch() {
        let g = base();
        let b0 = DeltaBatch::new(0, vec![EdgeOp::Insert { u: 0, v: 3, p: 0.5 }]);
        let b1 = DeltaBatch::new(1, vec![EdgeOp::Delete { u: 0, v: 3 }]);
        let chained = apply_batch(&apply_batch(&g, &b0).unwrap(), &b1).unwrap();
        // Insert-then-delete composes back to the base graph, one batch at
        // a time or folded into one.
        assert_same_csr(&chained, &g);
        let folded = DeltaBatch::new(0, [b0.ops, b1.ops].concat());
        assert_same_csr(&apply_batch(&g, &folded).unwrap(), &g);
    }

    #[test]
    fn later_ops_on_one_edge_win_and_rows_empty_and_fill() {
        let g = base();
        let batch = DeltaBatch::new(
            0,
            vec![
                // (4, 0): created, reweighted, deleted, created again.
                EdgeOp::Insert { u: 4, v: 0, p: 0.1 },
                EdgeOp::Reweight { u: 4, v: 0, p: 0.2 },
                EdgeOp::Delete { u: 4, v: 0 },
                EdgeOp::Reweight { u: 4, v: 0, p: 0.9 }, // absent: no-op
                EdgeOp::Insert { u: 4, v: 0, p: 0.3 },
                // Row 3 emptied, row 4 filled at both ends of its range.
                EdgeOp::Delete { u: 3, v: 4 },
                EdgeOp::Insert { u: 4, v: 3, p: 0.4 },
                EdgeOp::Insert { u: 4, v: 1, p: 0.6 },
            ],
        );
        let mutated = apply_batch(&g, &batch).unwrap();
        let mut b = GraphBuilder::new(5);
        b.add_weighted_edge(0, 1, 0.5);
        b.add_weighted_edge(1, 2, 0.25);
        b.add_weighted_edge(2, 3, 0.75);
        b.add_weighted_edge(4, 0, 0.3);
        b.add_weighted_edge(4, 1, 0.6);
        b.add_weighted_edge(4, 3, 0.4);
        assert_same_csr(&mutated, &b.build(WeightModel::WeightedCascade));
        assert!(mutated.out_neighbors(3).is_empty());
        assert_eq!(mutated.in_uniform_prob(0), Some(0.3));
        assert_eq!(mutated.in_uniform_prob(1), None, "0.5 and 0.6 enter node 1");
        assert_eq!(mutated.in_uniform_prob(4), None, "no in-edges left");
    }

    #[test]
    fn splice_matches_rebuild_and_identity_on_larger_graph() {
        let g = erdos_renyi(200, 900, WeightModel::WeightedCascade, 5);
        let edges: Vec<_> = g.edges().collect();
        let (du, dv, _) = edges[17];
        let (ru, rv, _) = edges[edges.len() - 3];
        let batch = DeltaBatch::new(
            0,
            vec![
                EdgeOp::Insert { u: 7, v: 150, p: 0.4 },
                EdgeOp::Delete { u: du, v: dv },
                EdgeOp::Reweight { u: ru, v: rv, p: 0.6 },
            ],
        );
        let mut b = GraphBuilder::new(200);
        b.add_weighted_edge(7, 150, 0.4); // first occurrence wins in the builder
        for &(u, v, p) in &edges {
            if (u, v) != (du, dv) {
                b.add_weighted_edge(u, v, if (u, v) == (ru, rv) { 0.6 } else { p });
            }
        }
        assert_same_csr(
            &apply_batch(&g, &batch).unwrap(),
            &b.build(WeightModel::WeightedCascade),
        );
        // Identity batch reproduces the base CSR exactly.
        assert_same_csr(&apply_batch(&g, &DeltaBatch::new(0, vec![])).unwrap(), &g);
    }
}
