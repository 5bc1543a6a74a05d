//! Sequential binary-heap Dijkstra, the exactness oracle of the test suites.
//! The pipeline runs every exact SSSP on [`crate::DijkstraScratch`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cldiam_graph::{Dist, NeighborSource, NodeId, INFINITY};

/// Output of a single-source shortest path computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShortestPaths {
    /// Source node.
    pub source: NodeId,
    /// `dist[u]` — weight of the shortest path from the source to `u`
    /// ([`INFINITY`] if unreachable).
    pub dist: Vec<Dist>,
}

impl ShortestPaths {
    /// Largest finite distance (the weighted eccentricity of the source
    /// within its component). Zero for a singleton component.
    pub fn eccentricity(&self) -> Dist {
        self.dist.iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0)
    }

    /// The node realizing [`ShortestPaths::eccentricity`] (the source itself
    /// for a singleton component).
    pub fn farthest_node(&self) -> NodeId {
        self.dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != INFINITY)
            .max_by_key(|&(_, &d)| d)
            .map(|(u, _)| u as NodeId)
            .unwrap_or(self.source)
    }

    /// Number of nodes reachable from the source (including the source).
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d != INFINITY).count()
    }
}

/// Runs Dijkstra's algorithm from `source` with a binary heap.
///
/// # Panics
///
/// Panics if `source` is not a node of `graph`.
// lint:allow(dead-pub): the exactness oracle; the unit tests of this crate,
// `cldiam-core` and `cldiam-testkit`, the SSSP property suites and the root
// SSSP, cluster and invariant suites check distances against it.
pub fn dijkstra<G: NeighborSource>(graph: &G, source: NodeId) -> ShortestPaths {
    let n = graph.num_nodes();
    assert!((source as usize) < n, "source {source} out of range (n = {n})");
    let mut dist = vec![INFINITY; n];
    let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();

    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));

    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in graph.neighbors(u) {
            let candidate = d + Dist::from(w);
            if candidate < dist[v as usize] {
                dist[v as usize] = candidate;
                heap.push(Reverse((candidate, v)));
            }
        }
    }

    ShortestPaths { source, dist }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_graph::Graph;

    fn diamond() -> Graph {
        // 0 -> 3 either via 1 (1 + 1 = 2) or via 2 (5 + 5 = 10); plus a direct
        // heavy edge 0-3 of weight 4.
        Graph::from_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 2, 5), (2, 3, 5), (0, 3, 4)])
    }

    #[test]
    fn shortest_distances_on_diamond() {
        let sp = dijkstra(&diamond(), 0);
        assert_eq!(sp.dist, vec![0, 1, 5, 2]);
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let g = Graph::from_edges(4, &[(0, 1, 2), (2, 3, 2)]);
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist[1], 2);
        assert_eq!(sp.dist[2], INFINITY);
        assert_eq!(sp.reached(), 2);
    }

    #[test]
    fn eccentricity_and_farthest() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 10)]);
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.eccentricity(), 12);
        assert_eq!(sp.farthest_node(), 3);
    }

    #[test]
    fn source_has_zero_distance() {
        let sp = dijkstra(&diamond(), 2);
        assert_eq!(sp.dist[2], 0);
        assert_eq!(sp.dist.iter().filter(|&&d| d == 0).count(), 1);
    }

    #[test]
    fn singleton_graph() {
        let sp = dijkstra(&cldiam_graph::GraphBuilder::new(1).build(), 0);
        assert_eq!(sp.eccentricity(), 0);
        assert_eq!(sp.farthest_node(), 0);
        assert_eq!(sp.reached(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_source() {
        dijkstra(&cldiam_graph::GraphBuilder::new(2).build(), 5);
    }
}
