//! Immutable CSR graph with forward and reverse adjacency.

use std::ops::Deref;
use std::sync::Arc;

use crate::NodeId;

/// A directed graph in compressed-sparse-row form.
///
/// Both directions are materialized: forward adjacency drives Monte-Carlo
/// forward simulation of diffusion, reverse adjacency drives reverse
/// influence sampling. Each stored edge carries its propagation probability
/// `p(u,v)` in `[0, 1]`.
///
/// The structure is immutable once built; construct it through
/// [`crate::GraphBuilder`].
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    m: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    out_probs: Vec<f32>,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
    in_probs: Vec<f32>,
    /// Cumulative in-probability per node, `Σ_{u ∈ N_v^in} p(u,v)`, needed by
    /// the LT reverse random walk (stop probability `1 − Σ p`).
    in_prob_sums: Vec<f32>,
    /// Per node: the one probability every in-edge carries, NaN when the
    /// in-list is empty or mixed. Weighted cascade makes every row uniform,
    /// so the IC samplers read this instead of streaming `in_probs`.
    in_uniform_probs: Vec<f32>,
}

/// The graph a sampler or worker holds: borrowed from its caller, or one
/// resident copy shared by every holder. Either way it is never cloned per
/// holder, and it dereferences to the [`Graph`].
#[derive(Clone, Debug)]
pub enum GraphRef<'g> {
    /// A graph the caller owns for at least `'g`.
    Borrowed(&'g Graph),
    /// A graph freed when its last holder drops it.
    Shared(Arc<Graph>),
}

impl Deref for GraphRef<'_> {
    type Target = Graph;

    #[inline]
    fn deref(&self) -> &Graph {
        match self {
            GraphRef::Borrowed(g) => g,
            GraphRef::Shared(g) => g,
        }
    }
}

impl<'g> From<&'g Graph> for GraphRef<'g> {
    fn from(g: &'g Graph) -> Self {
        GraphRef::Borrowed(g)
    }
}

impl From<Arc<Graph>> for GraphRef<'_> {
    fn from(g: Arc<Graph>) -> Self {
        GraphRef::Shared(g)
    }
}

/// One edge's state after a batch, addressed within one CSR direction:
/// `(row, column, Some(p) = present with probability p | None = absent)`.
pub(crate) type RowEdit = (NodeId, NodeId, Option<f32>);

impl Graph {
    /// Assembles a graph from raw CSR arrays. Intended for
    /// [`crate::GraphBuilder`]; invariants are checked with debug assertions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_csr(
        n: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        out_probs: Vec<f32>,
        in_offsets: Vec<usize>,
        in_sources: Vec<NodeId>,
        in_probs: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(in_offsets.len(), n + 1);
        debug_assert_eq!(out_targets.len(), out_probs.len());
        debug_assert_eq!(in_sources.len(), in_probs.len());
        debug_assert_eq!(out_targets.len(), in_sources.len());
        let m = out_targets.len();
        let in_row = |v: usize| &in_probs[in_offsets[v]..in_offsets[v + 1]];
        let in_prob_sums = (0..n).map(|v| in_row(v).iter().sum()).collect();
        let in_uniform_probs = (0..n)
            .map(|v| match in_row(v).split_first() {
                Some((&first, rest)) if rest.iter().all(|&p| p == first) => first,
                _ => f32::NAN,
            })
            .collect();
        Graph {
            n,
            m,
            out_offsets,
            out_targets,
            out_probs,
            in_offsets,
            in_sources,
            in_probs,
            in_prob_sums,
            in_uniform_probs,
        }
    }

    /// The graph with `edits` spliced in: untouched rows are copied as
    /// whole runs, touched rows are merged. `by_source` holds each edited
    /// edge as `(u, v, state)` sorted by `(u, v)`, `by_target` the same
    /// edges as `(v, u, state)` sorted by `(v, u)`, one entry per edge.
    /// Rows are strictly increasing before and after, so the arrays are
    /// exactly what [`crate::GraphBuilder`] builds from the edited edge list.
    pub(crate) fn spliced(&self, by_source: &[RowEdit], by_target: &[RowEdit]) -> Graph {
        let (out_offsets, out_targets, out_probs) =
            splice_rows(&self.out_offsets, &self.out_targets, &self.out_probs, by_source);
        let (in_offsets, in_sources, in_probs) =
            splice_rows(&self.in_offsets, &self.in_sources, &self.in_probs, by_target);
        Graph::from_csr(
            self.n,
            out_offsets,
            out_targets,
            out_probs,
            in_offsets,
            in_sources,
            in_probs,
        )
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.out_offsets[u + 1] - self.out_offsets[u]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Targets of `u`'s outgoing edges.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.out_targets[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// Propagation probabilities aligned with [`Self::out_neighbors`].
    #[inline]
    pub fn out_probs(&self, u: NodeId) -> &[f32] {
        let u = u as usize;
        &self.out_probs[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// Sources of `v`'s incoming edges.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Every in-list back to back, node by node: `v`'s sources are the
    /// [`Self::in_degree`]`(v)` entries from [`Self::in_start`]`(v)` on.
    #[inline]
    pub fn in_sources(&self) -> &[NodeId] {
        &self.in_sources
    }

    /// Where `v`'s in-list starts in [`Self::in_sources`].
    #[inline]
    pub fn in_start(&self, v: NodeId) -> usize {
        self.in_offsets[v as usize]
    }

    /// Propagation probabilities aligned with [`Self::in_neighbors`].
    #[inline]
    pub fn in_probs(&self, v: NodeId) -> &[f32] {
        let v = v as usize;
        &self.in_probs[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// `Σ_{u ∈ N_v^in} p(u,v)` — the LT activation mass entering `v`.
    #[inline]
    pub fn in_prob_sum(&self, v: NodeId) -> f32 {
        self.in_prob_sums[v as usize]
    }

    /// The probability shared by every in-edge of `v`, `None` when the
    /// in-list is empty or holds more than one value.
    #[inline]
    pub fn in_uniform_prob(&self, v: NodeId) -> Option<f32> {
        let p = self.in_uniform_probs[v as usize];
        (!p.is_nan()).then_some(p)
    }

    /// Iterates over all directed edges as `(u, v, p)` triples in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.n as NodeId).flat_map(move |u| {
            self.out_neighbors(u)
                .iter()
                .zip(self.out_probs(u))
                .map(move |(&v, &p)| (u, v, p))
        })
    }

    /// Iterates over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n as NodeId
    }

    /// Returns true when the LT precondition `Σ_{u∈N_v^in} p(u,v) ≤ 1` holds
    /// for every node (with a small tolerance for `f32` accumulation).
    pub fn satisfies_lt_constraint(&self) -> bool {
        self.in_prob_sums.iter().all(|&s| s <= 1.0 + 1e-4)
    }

    /// Estimated resident memory of the adjacency arrays, in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.out_offsets.len() + self.in_offsets.len()) * size_of::<usize>()
            + (self.out_targets.len() + self.in_sources.len()) * size_of::<NodeId>()
            + (self.out_probs.len()
                + self.in_probs.len()
                + self.in_prob_sums.len()
                + self.in_uniform_probs.len())
                * size_of::<f32>()
    }
}

/// Splices `edits` (sorted by `(row, column)`, one per pair) into one CSR
/// direction whose rows are strictly increasing.
fn splice_rows(
    offsets: &[usize],
    cols: &[NodeId],
    probs: &[f32],
    edits: &[RowEdit],
) -> (Vec<usize>, Vec<NodeId>, Vec<f32>) {
    let n = offsets.len() - 1;
    let mut new_offsets = Vec::with_capacity(n + 1);
    let mut new_cols = Vec::with_capacity(cols.len() + edits.len());
    let mut new_probs = Vec::with_capacity(cols.len() + edits.len());
    new_offsets.push(0);
    // Base entries `from..to` are unaffected by any edit: one memcpy each.
    let copy = |new_cols: &mut Vec<NodeId>, new_probs: &mut Vec<f32>, from: usize, to: usize| {
        new_cols.extend_from_slice(&cols[from..to]);
        new_probs.extend_from_slice(&probs[from..to]);
    };
    let mut next_row = 0;
    // One group of edits per touched row, then `None` for the rows after
    // the last of them.
    for group in edits.chunk_by(|a, b| a.0 == b.0).map(Some).chain([None]) {
        // The run of untouched rows up to the next edited one.
        let row = group.map_or(n, |g| g[0].0 as usize);
        let start = new_cols.len();
        copy(&mut new_cols, &mut new_probs, offsets[next_row], offsets[row]);
        new_offsets.extend(
            offsets[next_row + 1..=row]
                .iter()
                .map(|&o| o - offsets[next_row] + start),
        );
        let Some(group) = group else { break };
        let (mut at, end) = (offsets[row], offsets[row + 1]);
        for &(_, col, state) in group {
            let before = at + cols[at..end].partition_point(|&c| c < col);
            copy(&mut new_cols, &mut new_probs, at, before);
            // The edit supersedes the base entry, if there is one.
            at = before + usize::from(before < end && cols[before] == col);
            if let Some(p) = state {
                new_cols.push(col);
                new_probs.push(p);
            }
        }
        copy(&mut new_cols, &mut new_probs, at, end);
        new_offsets.push(new_cols.len());
        next_row = row + 1;
    }
    (new_offsets, new_cols, new_probs)
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, WeightModel};

    fn diamond() -> crate::Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build(WeightModel::WeightedCascade)
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        let mut in3 = g.in_neighbors(3).to_vec();
        in3.sort_unstable();
        assert_eq!(in3, vec![1, 2]);
    }

    #[test]
    fn weighted_cascade_probs() {
        let g = diamond();
        // indeg(1) = 1 so p(0,1) = 1; indeg(3) = 2 so p(·,3) = 0.5.
        assert_eq!(g.in_probs(1), &[1.0]);
        assert_eq!(g.in_probs(3), &[0.5, 0.5]);
        assert!((g.in_prob_sum(3) - 1.0).abs() < 1e-6);
        assert!(g.satisfies_lt_constraint());
    }

    #[test]
    fn forward_reverse_consistency() {
        let g = diamond();
        let mut fwd: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        let mut rev: Vec<(u32, u32)> = g
            .nodes()
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (u, v)))
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn edge_probability_alignment() {
        let g = diamond();
        for (u, v, p) in g.edges() {
            let idx = g.in_neighbors(v).iter().position(|&x| x == u).unwrap();
            assert_eq!(g.in_probs(v)[idx], p);
        }
    }

    #[test]
    fn memory_accounting_positive() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
    }
}
