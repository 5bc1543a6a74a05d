//! Summary statistics of a graph (the columns of the paper's Table 1), as
//! the `social_network` example prints them and the generator tests check
//! them. The core's initial `Δ` reads the average edge weight from
//! `NeighborSource::avg_weight` instead.

use rayon::prelude::*;

use crate::csr::Graph;
use crate::weight::{Dist, NodeId, Weight};

/// Summary statistics of a weighted graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of undirected edges `m`.
    pub edges: usize,
    /// Minimum node degree.
    pub min_degree: usize,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Average node degree (`2m / n`).
    pub avg_degree: f64,
    /// Minimum edge weight.
    pub min_weight: Weight,
    /// Maximum edge weight.
    pub max_weight: Weight,
    /// Average edge weight.
    pub avg_weight: f64,
    /// Sum of all edge weights.
    pub total_weight: Dist,
}

impl GraphStats {
    /// Computes all statistics in one parallel pass over the nodes.
    pub fn compute(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let m = graph.num_edges();
        let (min_degree, max_degree) = if n == 0 {
            (0, 0)
        } else {
            (0..n)
                .into_par_iter()
                .map(|u| {
                    let d = graph.degree(u as NodeId);
                    (d, d)
                })
                .reduce(|| (usize::MAX, 0), |a, b| (a.0.min(b.0), a.1.max(b.1)))
        };
        let min_degree = if n == 0 { 0 } else { min_degree };
        let (min_weight, max_weight) =
            (graph.min_weight().unwrap_or(0), graph.max_weight().unwrap_or(0));
        let total_weight = graph.total_weight();
        GraphStats {
            nodes: n,
            edges: m,
            min_degree,
            max_degree,
            avg_degree: if n == 0 { 0.0 } else { 2.0 * m as f64 / n as f64 },
            min_weight,
            max_weight,
            avg_weight: if m == 0 { 0.0 } else { total_weight as f64 / m as f64 },
            total_weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> Graph {
        Graph::from_edges(5, &[(0, 1, 2), (0, 2, 4), (0, 3, 6), (0, 4, 8)])
    }

    #[test]
    fn stats_on_star() {
        let s = GraphStats::compute(&star());
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.max_degree, 4);
        assert!((s.avg_degree - 1.6).abs() < 1e-9);
        assert_eq!(s.min_weight, 2);
        assert_eq!(s.max_weight, 8);
        assert!((s.avg_weight - 5.0).abs() < 1e-9);
        assert_eq!(s.total_weight, 20);
    }

    #[test]
    fn stats_on_empty_graph() {
        let s = GraphStats::compute(&crate::GraphBuilder::new(0).build());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.avg_degree, 0.0);
    }
}
