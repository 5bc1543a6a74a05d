//! The [`NeighborSource`] abstraction: one traversal interface served by
//! both storage tiers.
//!
//! Every undirected engine in the workspace — BFS, connected components,
//! Dijkstra, Δ-stepping, Δ-growing, the bounds engine — is generic over this
//! trait, so the dense [`Graph`](crate::Graph) (slice zips) and the
//! [`CompressedGraph`](crate::CompressedGraph) (varint block decoding) run
//! the *same monomorphized* inner loops: the choice of representation is a
//! compile-time parameter, not a branch in the relax loop.
//!
//! The trait deliberately mirrors the subset of `Graph`'s inherent API those
//! engines use. Weight statistics are part of the contract because engine
//! behaviour depends on them (`suggest_delta`, bucket-ring sizing, the
//! Dijkstra kernel's choice of queue): a representation must report the
//! exact same values as the dense graph it encodes or determinism across
//! tiers breaks. Both tiers record them when the graph is built, so every
//! run can read them in `O(1)`.

use crate::weight::{Dist, NodeId, Weight};

/// A graph whose out-neighbors can be iterated per node.
///
/// Implementations must be cheap to query concurrently (`Sync`) — the
/// parallel engines fan node ranges out across threads.
pub trait NeighborSource: Sync {
    /// Iterator over `(target, weight)` pairs of one node's out-arcs, in
    /// strictly increasing target order.
    type Neighbors<'a>: Iterator<Item = (NodeId, Weight)> + 'a
    where
        Self: 'a;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of stored arcs (twice the edge count on undirected graphs).
    fn num_arcs(&self) -> usize;

    /// Neighbors of `u` with their edge weights, sorted by target id.
    fn neighbors(&self, u: NodeId) -> Self::Neighbors<'_>;

    /// Out-degree of `u`.
    fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).count()
    }

    /// Whether arcs are one-directional. The compressed tier is
    /// undirected-only, so the default is `false`.
    fn is_directed(&self) -> bool {
        false
    }

    /// Number of undirected edges (arcs on directed graphs).
    fn num_edges(&self) -> usize {
        if self.is_directed() {
            self.num_arcs()
        } else {
            self.num_arcs() / 2
        }
    }

    /// Whether the graph has no nodes.
    fn is_empty(&self) -> bool {
        self.num_nodes() == 0
    }

    /// All node ids, in increasing order.
    fn node_ids(&self) -> std::ops::Range<NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Smallest edge weight, `None` on edgeless graphs.
    fn min_weight(&self) -> Option<Weight>;

    /// Largest edge weight, `None` on edgeless graphs.
    fn max_weight(&self) -> Option<Weight>;

    /// Mean edge weight rounded down (minimum 1), `None` on edgeless graphs.
    /// Must equal the dense graph's value exactly — `Δ` suggestion feeds off
    /// it.
    fn avg_weight(&self) -> Option<Weight>;

    /// Sum of all edge weights (each undirected edge counted once).
    fn total_weight(&self) -> Dist;

    /// Resident bytes of the adjacency payload, for reporting.
    fn memory_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph(n: usize) -> crate::Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n.saturating_sub(1) {
            b.add_edge(u as NodeId, (u + 1) as NodeId, (u + 1) as Weight);
        }
        b.build()
    }

    // Exercises the trait through a generic function, the way the engines do.
    fn arc_sum<G: NeighborSource>(graph: &G) -> (usize, u64) {
        let mut arcs = 0;
        let mut sum = 0u64;
        for u in graph.node_ids() {
            for (_, w) in graph.neighbors(u) {
                arcs += 1;
                sum += u64::from(w);
            }
        }
        (arcs, sum)
    }

    #[test]
    fn dense_graph_serves_the_trait() {
        let g = path_graph(5);
        let (arcs, sum) = arc_sum(&g);
        assert_eq!(arcs, g.num_arcs());
        assert_eq!(sum, 2 * g.total_weight());
        assert_eq!(NeighborSource::num_edges(&g), 4);
        assert_eq!(NeighborSource::degree(&g, 1), 2);
        assert!(!NeighborSource::is_directed(&g));
        assert_eq!(g.node_ids(), 0..5);
    }
}
