//! Bellman-Ford with early termination — a second, structurally different
//! shortest-path oracle used to cross-check Dijkstra and Δ-stepping in
//! property tests, and the conceptual ancestor of the Δ-growing step
//! (Section 3 of the paper performs "edge relaxations of the kind used in the
//! classical Bellman-Ford's algorithm").

use cldiam_graph::{Dist, Graph, NodeId, INFINITY};

/// Output of [`bellman_ford`]: the distance array and the number of full
/// relaxation sweeps performed before convergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BellmanFordOutcome {
    /// `dist[u]` — shortest-path weight from the source ([`INFINITY`] if
    /// unreachable).
    pub dist: Vec<Dist>,
    /// Number of full-edge relaxation sweeps executed (the unweighted depth of
    /// the shortest-path tree plus one).
    pub sweeps: usize,
}

/// Runs Bellman-Ford from `source`, sweeping all edges until no tentative
/// distance improves. Since all weights are positive there are no negative
/// cycles and the procedure always terminates within `n` sweeps.
pub fn bellman_ford(graph: &Graph, source: NodeId) -> BellmanFordOutcome {
    let n = graph.num_nodes();
    assert!((source as usize) < n, "source {source} out of range (n = {n})");
    let mut dist = vec![INFINITY; n];
    dist[source as usize] = 0;
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        let mut changed = false;
        for u in 0..n as NodeId {
            let du = dist[u as usize];
            if du == INFINITY {
                continue;
            }
            for (v, w) in graph.neighbors(u) {
                let candidate = du + Dist::from(w);
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    changed = true;
                }
            }
        }
        if !changed || sweeps > n {
            break;
        }
    }
    BellmanFordOutcome { dist, sweeps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_sssp::dijkstra;

    #[test]
    fn matches_dijkstra_on_small_graph() {
        let g = Graph::from_edges(
            6,
            &[(0, 1, 4), (0, 2, 1), (2, 1, 2), (1, 3, 5), (2, 3, 8), (3, 4, 3), (1, 4, 10)],
        );
        let bf = bellman_ford(&g, 0);
        let dj = dijkstra(&g, 0);
        assert_eq!(bf.dist, dj.dist);
        assert_eq!(bf.dist[5], INFINITY);
    }

    #[test]
    fn sweeps_bounded_by_hop_depth() {
        // A path graph needs as many sweeps as its hop length (plus the final
        // no-change sweep) in the worst case, but never more than n + 1.
        let edges: Vec<_> = (0..49).map(|i| (i as NodeId, (i + 1) as NodeId, 1)).collect();
        let g = Graph::from_edges(50, &edges);
        let bf = bellman_ford(&g, 0);
        assert_eq!(bf.dist[49], 49);
        assert!(bf.sweeps <= 51);
    }

    #[test]
    fn isolated_source() {
        let g = Graph::from_edges(3, &[(1, 2, 7)]);
        let bf = bellman_ford(&g, 0);
        assert_eq!(bf.dist, vec![0, INFINITY, INFINITY]);
        assert_eq!(bf.sweeps, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_source() {
        bellman_ford(&cldiam_graph::GraphBuilder::new(1).build(), 3);
    }
}
