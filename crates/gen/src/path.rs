//! The linear array of the paper's `roads(S)` family.

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
}
