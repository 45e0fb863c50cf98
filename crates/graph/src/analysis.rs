//! Descriptive statistics over graphs (Table III columns).

use crate::csr::Graph;

/// Summary statistics of a graph, used by the Table III reproduction and by
/// examples to describe their workloads.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Average degree `m / n`.
    pub avg_degree: f64,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of nodes with no incoming edges.
    pub sources: usize,
    /// Number of nodes with no outgoing edges.
    pub sinks: usize,
    /// True when for every edge `(u,v)` the reverse `(v,u)` exists too.
    pub symmetric: bool,
}

impl GraphStats {
    /// Computes statistics in a single pass over the adjacency arrays.
    pub fn compute(g: &Graph) -> Self {
        let mut max_in = 0;
        let mut max_out = 0;
        let mut sources = 0;
        let mut sinks = 0;
        let mut symmetric = true;
        for u in g.nodes() {
            let din = g.in_degree(u);
            let dout = g.out_degree(u);
            max_in = max_in.max(din);
            max_out = max_out.max(dout);
            if din == 0 {
                sources += 1;
            }
            if dout == 0 {
                sinks += 1;
            }
            if symmetric {
                symmetric = g
                    .out_neighbors(u)
                    .iter()
                    .all(|&v| g.out_neighbors(v).binary_search(&u).is_ok());
            }
        }
        GraphStats {
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            avg_degree: if g.num_nodes() == 0 {
                0.0
            } else {
                g.num_edges() as f64 / g.num_nodes() as f64
            },
            max_in_degree: max_in,
            max_out_degree: max_out,
            sources,
            sinks,
            symmetric,
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} avg_deg={:.1} max_in={} max_out={} {}",
            self.nodes,
            self.edges,
            self.avg_degree,
            self.max_in_degree,
            self.max_out_degree,
            if self.symmetric { "undirected" } else { "directed" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, WeightModel};

    #[test]
    fn stats_of_path() {
        // 0 -> 1 -> 2
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let s = GraphStats::compute(&b.build(WeightModel::WeightedCascade));
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.sources, 1);
        assert_eq!(s.sinks, 1);
        assert!(!s.symmetric);
        assert!((s.avg_degree - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn detects_symmetry() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(0, 1);
        let s = GraphStats::compute(&b.build(WeightModel::WeightedCascade));
        assert!(s.symmetric);
    }

    #[test]
    fn display_contains_counts() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let s = GraphStats::compute(&b.build(WeightModel::WeightedCascade));
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("m=1"));
    }
}
