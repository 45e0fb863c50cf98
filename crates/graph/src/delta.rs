//! Edge-stream deltas over the frozen CSR [`Graph`].
//!
//! Real social graphs mutate constantly while the CSR representation is
//! immutable by design. This module bridges the two: an [`EdgeOp`] is one
//! mutation (insert / delete / reweight of a directed edge), a
//! [`DeltaBatch`] is a sequence-numbered group of ops with a canonical
//! little-endian codec (so batches can live in `dim-store` delta shards and
//! travel the cluster wire), and [`apply_batch`] folds a batch into a base
//! graph and materializes a new CSR [`Graph`].
//!
//! Mutations never add nodes: every op must reference nodes `< n`. This
//! keeps all per-node state in the samplers and coverage shards (visit
//! trackers, epoch flags, SUBSIM's per-node jump precompute) valid across a
//! batch, which is what makes incremental RR-set repair sound.
//!
//! Semantics (documented, deterministic):
//! * `Insert` on an existing edge overwrites its weight.
//! * `Delete` / `Reweight` on a missing edge is a no-op.
//! * Ops within a batch apply in order; later ops win.

use std::collections::BTreeMap;
use std::fmt;

use crate::builder::GraphBuilder;
use crate::codec::Reader;
use crate::csr::Graph;
use crate::weights::WeightModel;
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

/// Mutable overlay over a frozen base [`Graph`].
///
/// Holds the base plus the accumulated edge state from every applied batch,
/// and materializes a fresh CSR [`Graph`] on demand. The overlay itself is
/// cheap to mutate (a `BTreeMap` keyed by `(u, v)`); materialization pays
/// the full CSR rebuild, which the stream pipeline does once per batch.
pub(crate) struct DeltaGraph<'g> {
    base: &'g Graph,
    /// Full current edge state: `(u, v) → p`. Seeded lazily from the base's
    /// edges on the first mutation.
    edges: BTreeMap<(NodeId, NodeId), f32>,
    next_seq: u64,
}

impl<'g> DeltaGraph<'g> {
    /// Creates an overlay with no pending mutations (next expected batch
    /// sequence number 0).
    pub fn new(base: &'g Graph) -> Self {
        let edges = base.edges().map(|(u, v, p)| ((u, v), p)).collect();
        DeltaGraph {
            base,
            edges,
            next_seq: 0,
        }
    }

    /// Overlay resuming an existing chain: the next batch must carry
    /// `next_seq`.
    pub fn resuming(base: &'g Graph, next_seq: u64) -> Self {
        let mut dg = DeltaGraph::new(base);
        dg.next_seq = next_seq;
        dg
    }

    /// Applies a batch: validates it, checks its sequence number continues
    /// the chain, and folds its ops into the overlay in order.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<(), DeltaError> {
        if batch.seq != self.next_seq {
            return Err(DeltaError::Invalid(format!(
                "batch seq {} does not continue chain (expected {})",
                batch.seq, self.next_seq
            )));
        }
        batch.validate(self.base.num_nodes())?;
        for op in &batch.ops {
            match *op {
                EdgeOp::Insert { u, v, p } => {
                    self.edges.insert((u, v), p);
                }
                EdgeOp::Delete { u, v } => {
                    self.edges.remove(&(u, v));
                }
                EdgeOp::Reweight { u, v, p } => {
                    if let Some(w) = self.edges.get_mut(&(u, v)) {
                        *w = p;
                    }
                }
            }
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Materializes the current overlay state as a fresh CSR [`Graph`] with
    /// the same node count as the base. Deterministic: edges are emitted in
    /// `(u, v)` order regardless of mutation history.
    pub fn materialize(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.base.num_nodes(), self.edges.len());
        for (&(u, v), &p) in &self.edges {
            b.add_weighted_edge(u, v, p);
        }
        // Every edge carries an explicit weight, so the model is never
        // consulted; WeightedCascade is just the conventional placeholder.
        b.build(WeightModel::WeightedCascade)
    }
}

/// Applies `batch` to `base` and materializes the mutated graph in one
/// step — the common "one batch at a time" path in workers and tests.
pub fn apply_batch(base: &Graph, batch: &DeltaBatch) -> Result<Graph, DeltaError> {
    let mut dg = DeltaGraph::resuming(base, batch.seq);
    dg.apply(batch)?;
    Ok(dg.materialize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

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

    #[test]
    fn chain_seq_enforced_and_composition_matches_one_shot() {
        let g = base();
        let b0 = DeltaBatch::new(0, vec![EdgeOp::Insert { u: 0, v: 3, p: 0.5 }]);
        let b1 = DeltaBatch::new(1, vec![EdgeOp::Delete { u: 0, v: 3 }]);
        let mut dg = DeltaGraph::new(&g);
        assert!(dg.apply(&b1).is_err(), "out-of-order batch accepted");
        dg.apply(&b0).unwrap();
        dg.apply(&b1).unwrap();
        assert_eq!(dg.next_seq, 2);
        let chained = dg.materialize();
        // Insert-then-delete composes back to the base graph.
        let direct = base();
        assert_eq!(chained.num_edges(), direct.num_edges());
        for v in 0..5u32 {
            assert_eq!(chained.out_neighbors(v), direct.out_neighbors(v));
            assert_eq!(chained.out_probs(v), direct.out_probs(v));
        }
    }

    #[test]
    fn materialize_deterministic_on_larger_graph() {
        let g = erdos_renyi(200, 900, WeightModel::WeightedCascade, 5);
        let batch = DeltaBatch::new(
            0,
            vec![
                EdgeOp::Insert {
                    u: 7,
                    v: 150,
                    p: 0.4,
                },
                EdgeOp::Delete { u: 3, v: 11 },
                EdgeOp::Reweight {
                    u: 100,
                    v: 5,
                    p: 0.6,
                },
            ],
        );
        let a = apply_batch(&g, &batch).unwrap();
        let b = apply_batch(&g, &batch).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..200u32 {
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v));
            assert_eq!(a.in_probs(v), b.in_probs(v));
        }
        // Identity batch reproduces the base CSR exactly.
        let id = apply_batch(&g, &DeltaBatch::new(0, vec![])).unwrap();
        assert_eq!(id.num_edges(), g.num_edges());
        for v in 0..200u32 {
            assert_eq!(id.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(id.in_probs(v), g.in_probs(v));
            assert_eq!(id.out_neighbors(v), g.out_neighbors(v));
        }
    }
}
