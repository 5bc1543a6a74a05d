//! Unweighted traversal utilities.
//!
//! The paper's analysis distinguishes the *weighted* diameter `Φ(G)` from the
//! *unweighted* diameter `Ψ(G)` (the round-complexity lower bound of the
//! Δ-stepping baseline under linear space). These BFS helpers compute hop
//! distances, eccentricities and a double-sweep estimate of `Ψ(G)`.

use std::collections::VecDeque;

use crate::source::NeighborSource;
use crate::weight::NodeId;

/// Hop distance assigned to unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Breadth-first search from `source`; returns the hop distance of every node
/// ([`UNREACHABLE`] for nodes in other components).
pub fn bfs_hops<G: NeighborSource>(graph: &G, source: NodeId) -> Vec<u32> {
    multi_source_bfs(graph, std::slice::from_ref(&source))
}

/// Breadth-first search from a set of sources; each node gets the hop distance
/// to the nearest source.
pub fn multi_source_bfs<G: NeighborSource>(graph: &G, sources: &[NodeId]) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::with_capacity(sources.len());
    for &s in sources {
        if dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for (v, _) in graph.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Unweighted eccentricity of `source` restricted to its component (maximum
/// finite hop distance).
pub fn hop_eccentricity<G: NeighborSource>(graph: &G, source: NodeId) -> u32 {
    bfs_hops(graph, source).into_iter().filter(|&d| d != UNREACHABLE).max().unwrap_or(0)
}

/// Double-sweep lower bound for the unweighted diameter `Ψ(G)`: BFS from a
/// start node, then BFS again from the farthest node found. On many practical
/// graph classes (road networks, meshes) this is exact or nearly so.
// lint:allow(dead-pub): shared test fixture; the generator suites and the
// SSSP integration suite check hop diameters `Ψ(G)` with it.
pub fn double_sweep_hop_diameter<G: NeighborSource>(graph: &G, start: NodeId) -> u32 {
    if graph.num_nodes() == 0 {
        return 0;
    }
    let first = bfs_hops(graph, start);
    let farthest = first
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != UNREACHABLE)
        .max_by_key(|&(_, &d)| d)
        .map(|(i, _)| i as NodeId)
        .unwrap_or(start);
    hop_eccentricity(graph, farthest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Graph;

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i as NodeId, (i + 1) as NodeId, 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = bfs_hops(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let d = bfs_hops(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = path(7);
        let d = multi_source_bfs(&g, &[0, 6]);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn multi_source_with_duplicate_sources() {
        let g = path(3);
        let d = multi_source_bfs(&g, &[1, 1]);
        assert_eq!(d, vec![1, 0, 1]);
    }

    #[test]
    fn eccentricity_and_double_sweep() {
        let g = path(10);
        assert_eq!(hop_eccentricity(&g, 0), 9);
        assert_eq!(hop_eccentricity(&g, 5), 5);
        // Double sweep from the middle still finds the true hop diameter of a path.
        assert_eq!(double_sweep_hop_diameter(&g, 5), 9);
    }

    #[test]
    fn double_sweep_on_empty_graph() {
        assert_eq!(double_sweep_hop_diameter(&Graph::empty(0), 0), 0);
    }
}
