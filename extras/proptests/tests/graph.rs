//! Property-based tests for the graph substrate.

use dim_graph::{GraphBuilder, GraphStats, WeightModel};
use proptest::prelude::*;

/// Arbitrary edge list over up to 64 nodes.
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..64, 0u32..64), 0..200)
}

proptest! {
    /// Forward and reverse CSR views always describe the same edge set.
    #[test]
    fn forward_reverse_transpose(edges in edges_strategy()) {
        let mut b = GraphBuilder::new(64);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build(WeightModel::Uniform(0.5));
        let mut fwd: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        let mut rev: Vec<(u32, u32)> = g
            .nodes()
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (u, v)))
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        prop_assert_eq!(fwd, rev);
    }

    /// Degree sums both equal the edge count.
    #[test]
    fn degree_sums_equal_m(edges in edges_strategy()) {
        let mut b = GraphBuilder::new(64);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build(WeightModel::Uniform(0.1));
        let out_sum: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
    }

    /// Weighted cascade always satisfies the LT constraint with equality on
    /// nodes that have in-neighbors: Σ p(u,v) = 1.
    #[test]
    fn weighted_cascade_sums_to_one(edges in edges_strategy()) {
        let mut b = GraphBuilder::new(64);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build(WeightModel::WeightedCascade);
        prop_assert!(g.satisfies_lt_constraint());
        for v in g.nodes() {
            if g.in_degree(v) > 0 {
                prop_assert!((g.in_prob_sum(v) - 1.0).abs() < 1e-4);
            }
        }
    }

    /// Building is idempotent on the deduplicated edge set: rebuilding from
    /// the built graph's edges yields the same graph.
    #[test]
    fn rebuild_fixed_point(edges in edges_strategy()) {
        let mut b = GraphBuilder::new(64);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build(WeightModel::WeightedCascade);
        let mut b2 = GraphBuilder::new(g.num_nodes());
        for (u, v, p) in g.edges() {
            b2.add_weighted_edge(u, v, p);
        }
        let g2 = b2.build(WeightModel::WeightedCascade);
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
    }

    /// Stats never contradict the graph.
    #[test]
    fn stats_consistent(edges in edges_strategy()) {
        let mut b = GraphBuilder::new(64);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build(WeightModel::Uniform(0.2));
        let s = GraphStats::compute(&g);
        prop_assert_eq!(s.nodes, g.num_nodes());
        prop_assert_eq!(s.edges, g.num_edges());
        prop_assert!(s.max_in_degree <= g.num_edges());
        prop_assert!(s.sources <= s.nodes);
    }

    /// Edge-list IO round-trips arbitrary graphs exactly (probabilities are
    /// printed in full f32 precision).
    #[test]
    fn io_roundtrip(edges in edges_strategy()) {
        let mut b = GraphBuilder::new(64);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build(WeightModel::Trivalency);
        let mut buf = Vec::new();
        dim_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = dim_graph::io::read_edge_list(
            buf.as_slice(), true, WeightModel::Trivalency).unwrap();
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
    }
}
