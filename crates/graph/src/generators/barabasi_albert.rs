//! Barabási–Albert preferential attachment.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::rng::Rng;
use crate::weights::WeightModel;

/// Generates an undirected (symmetrized) Barabási–Albert graph: starts from
/// a clique of `m_attach + 1` nodes, then each new node attaches to
/// `m_attach` existing nodes chosen proportionally to their current degree.
///
/// The result has a power-law degree tail (exponent ≈ 3), the hallmark of
/// friendship graphs such as the Facebook dataset in Table III.
///
/// # Panics
/// Panics if `m_attach == 0` or `n ≤ m_attach`.
pub fn barabasi_albert(n: usize, m_attach: usize, model: WeightModel, seed: u64) -> Graph {
    assert!(m_attach >= 1, "attachment count must be positive");
    assert!(n > m_attach, "need n > m_attach");
    let mut rng = Rng::new(seed);
    let mut builder = GraphBuilder::with_capacity(n, 2 * n * m_attach);
    // `targets` holds one entry per edge endpoint; sampling uniformly from it
    // is sampling proportional to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m_attach);

    let seed_nodes = m_attach + 1;
    for u in 0..seed_nodes as u32 {
        for v in 0..u {
            builder.add_undirected_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }

    let mut picked = Vec::with_capacity(m_attach);
    for u in seed_nodes as u32..n as u32 {
        picked.clear();
        // Rejection-sample m_attach distinct targets.
        while picked.len() < m_attach {
            let t = endpoints[rng.below(endpoints.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            builder.add_undirected_edge(u, t);
            endpoints.push(u);
            endpoints.push(t);
        }
    }
    builder.build(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_edge_counts() {
        let n = 500;
        let m = 4;
        let g = barabasi_albert(n, m, WeightModel::WeightedCascade, 11);
        assert_eq!(g.num_nodes(), n);
        // Undirected edges: clique m(m+1)/2 plus m per subsequent node;
        // each stored twice (directed both ways).
        let expected = 2 * (m * (m + 1) / 2 + (n - m - 1) * m);
        assert_eq!(g.num_edges(), expected);
    }

    #[test]
    fn symmetric() {
        let g = barabasi_albert(200, 3, WeightModel::WeightedCascade, 5);
        for (u, v, _) in g.edges() {
            assert!(
                g.out_neighbors(v).contains(&u),
                "missing reverse of ({u},{v})"
            );
        }
    }

    #[test]
    fn has_skewed_degrees() {
        let g = barabasi_albert(2000, 3, WeightModel::WeightedCascade, 1);
        let max_deg = g.nodes().map(|u| g.out_degree(u)).max().unwrap();
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            max_deg as f64 > 5.0 * avg,
            "max {max_deg} should exceed 5x avg {avg}"
        );
    }

    #[test]
    fn deterministic() {
        let a = barabasi_albert(100, 2, WeightModel::WeightedCascade, 9);
        let b = barabasi_albert(100, 2, WeightModel::WeightedCascade, 9);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
}
