//! Mutable graph builder producing CSR [`Graph`]s.

use crate::csr::Graph;
use crate::weights::WeightModel;
use crate::NodeId;

/// Accumulates directed edges and materializes an immutable [`Graph`].
///
/// Duplicate edges are removed at build time (keeping the first occurrence's
/// explicit weight, if any). Self-loops are dropped: a node trivially
/// "influences" itself in every diffusion model, so self-loops carry no
/// information and would only distort weighted-cascade probabilities.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    /// `(u, v, explicit probability or NaN)` triples.
    edges: Vec<(NodeId, NodeId, f32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with at least `n` nodes. Adding an edge
    /// touching a larger node id grows the node count automatically.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder pre-sized for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Current node count.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before dedup).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge whose probability will be assigned by the
    /// [`WeightModel`] at build time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.push(u, v, f32::NAN);
    }

    /// Adds a directed edge with an explicit propagation probability,
    /// overriding the weight model for this edge.
    ///
    /// # Panics
    /// Panics if `p` is not within `[0, 1]`.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, p: f32) {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        self.push(u, v, p);
    }

    /// Adds both `(u,v)` and `(v,u)`, for undirected source data
    /// (e.g. the Facebook friendship dataset in Table III).
    pub(crate) fn add_undirected_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    fn push(&mut self, u: NodeId, v: NodeId, p: f32) {
        if u == v {
            return;
        }
        let hi = u.max(v) as usize + 1;
        if hi > self.n {
            self.n = hi;
        }
        self.edges.push((u, v, p));
    }

    /// Builds the immutable CSR graph, assigning each edge without an
    /// explicit probability according to `model`.
    pub fn build(mut self, model: WeightModel) -> Graph {
        // Sort by (u, v) then dedup so CSR rows come out ordered. `sort_by`
        // (stable) keeps the first occurrence of duplicate (u, v) pairs,
        // preserving its explicit weight.
        self.edges.sort_by_key(|e| (e.0, e.1));
        self.edges.dedup_by_key(|e| (e.0, e.1));
        let edges = &self.edges;
        build_sorted(self.n, || edges.iter().copied(), model)
    }
}

/// The graph on `n` nodes of `edges`, which yields each edge as `(u, v,
/// explicit probability or NaN)`, sorted by `(u, v)`, distinct and
/// loop-free; an edge without an explicit probability gets `model`'s for
/// its in-degree and its index in that order. One counting pass lays out
/// the forward rows and one fills them (`edges` is walked twice), then
/// [`Graph::from_rows`] builds the reverse CSR.
pub(crate) fn build_sorted<I>(n: usize, edges: impl Fn() -> I, model: WeightModel) -> Graph
where
    I: Iterator<Item = (NodeId, NodeId, f32)>,
{
    let mut in_deg = vec![0usize; n];
    let mut out_offsets = vec![0usize; n + 1];
    for (u, v, _) in edges() {
        out_offsets[u as usize + 1] += 1;
        in_deg[v as usize] += 1;
    }
    for i in 0..n {
        out_offsets[i + 1] += out_offsets[i];
    }

    let m = out_offsets[n];
    let mut out_targets = Vec::with_capacity(m);
    let mut out_probs = Vec::with_capacity(m);
    for (i, (u, v, p)) in edges().enumerate() {
        debug_assert!(i >= out_offsets[u as usize]);
        let prob = if p.is_nan() {
            model.probability(u, v, in_deg[v as usize], i)
        } else {
            p
        };
        out_targets.push(v);
        out_probs.push(prob);
    }
    Graph::from_rows(n, out_offsets, out_targets, out_probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_first_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 0.7);
        b.add_weighted_edge(0, 1, 0.2);
        let g = b.build(WeightModel::WeightedCascade);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_probs(0), &[0.7]);
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1);
        b.add_edge(0, 1);
        let g = b.build(WeightModel::Uniform(0.1));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn grows_node_count() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 9);
        let g = b.build(WeightModel::Uniform(0.5));
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(0, 1);
        let g = b.build(WeightModel::WeightedCascade);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[0]);
    }

    #[test]
    fn explicit_weight_survives_wc_model() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 0.9);
        b.add_edge(1, 2);
        let g = b.build(WeightModel::WeightedCascade);
        // Edge (0,2) keeps 0.9; edge (1,2) gets 1/indeg(2) = 0.5.
        let probs: Vec<(u32, f32)> = g
            .in_neighbors(2)
            .iter()
            .copied()
            .zip(g.in_probs(2).iter().copied())
            .collect();
        assert!(probs.contains(&(0, 0.9)));
        assert!(probs.contains(&(1, 0.5)));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_probability() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 1.5);
    }
}
