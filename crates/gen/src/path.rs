//! Elementary topologies: the linear array of the paper's `roads(S)` family
//! and a weighted path for hand-built test cases.

use cldiam_graph::{Graph, GraphBuilder, NodeId, Weight};

/// A path `0 - 1 - … - (n-1)` with constant edge weight `w`.
///
/// The paper's `roads(S)` family multiplies a unit-weight linear array of `S`
/// nodes with a road network; [`path`] with `w = 1` is that linear array.
pub fn path(n: usize, w: Weight) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge((i - 1) as NodeId, i as NodeId, w);
    }
    b.build()
}

/// A path with explicitly specified edge weights (`weights[i]` is the weight
/// of the edge `{i, i+1}`), convenient for hand-constructed test cases.
// lint:allow(dead-pub): hand-built fixture shared by the unit tests of the
// core and testkit crates; no generator spec produces it.
pub fn weighted_path(weights: &[Weight]) -> Graph {
    let mut b = GraphBuilder::with_capacity(weights.len() + 1, weights.len());
    for (i, &w) in weights.iter().enumerate() {
        b.add_edge(i as NodeId, (i + 1) as NodeId, w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_shape() {
        let g = path(5, 3);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.edge_weight(3, 4), Some(3));
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(path(0, 1).num_nodes(), 0);
        assert_eq!(path(1, 1).num_edges(), 0);
    }

    #[test]
    fn weighted_path_assigns_given_weights() {
        let g = weighted_path(&[5, 10, 15]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 2), Some(10));
        assert_eq!(g.edge_weight(2, 3), Some(15));
    }
}
