//! Connected components.
//!
//! The paper defines the diameter of a disconnected graph as the largest
//! distance between two nodes *in the same connected component*, and the
//! benchmark harness runs every algorithm on the largest component of the
//! generated graphs (as is standard for the SNAP/LAW social networks).
//! Components are labelled by a sequential union-find.

use crate::csr::Graph;
use crate::ops;
use crate::source::NeighborSource;
use crate::weight::NodeId;

/// Result of a connected-components computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentLabels {
    /// `labels[u]` is the component identifier of node `u`. Identifiers are
    /// dense in `0..count`, assigned in order of smallest member node.
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub count: usize,
}

impl ComponentLabels {
    /// Sizes of each component, indexed by component identifier.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Identifier of the largest component (ties broken by smaller id).
    pub fn largest(&self) -> Option<u32> {
        let sizes = self.sizes();
        sizes
            .iter()
            .enumerate()
            .max_by_key(|&(id, &s)| (s, std::cmp::Reverse(id)))
            .map(|(id, _)| id as u32)
    }

    /// `true` if every node is in a single component.
    pub fn is_connected(&self) -> bool {
        self.count <= 1
    }
}

/// Sequential union-find with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// Computes connected components with a sequential union-find. On a directed
/// graph this yields *weakly* connected components (arc direction ignored).
pub fn connected_components<G: NeighborSource>(graph: &G) -> ComponentLabels {
    let n = graph.num_nodes();
    let mut uf = UnionFind::new(n);
    for u in graph.node_ids() {
        for (v, _) in graph.neighbors(u) {
            uf.union(u, v);
        }
    }
    canonicalize(n, |u| uf.find(u))
}

fn canonicalize(n: usize, mut root_of: impl FnMut(u32) -> u32) -> ComponentLabels {
    let mut remap = vec![u32::MAX; n];
    let mut labels = vec![0u32; n];
    let mut count = 0u32;
    for u in 0..n as u32 {
        let root = root_of(u);
        if remap[root as usize] == u32::MAX {
            remap[root as usize] = count;
            count += 1;
        }
        labels[u as usize] = remap[root as usize];
    }
    ComponentLabels { labels, count: count as usize }
}

/// Extracts every component with at least two nodes as a standalone graph,
/// returning for each the subgraph and the ascending mapping
/// `new id -> original id`, ordered by component identifier.
///
/// Unlike calling [`crate::ops::induced_subgraph`] per component (which pays
/// an `O(n)` relabelling array per call), the total cost here is `O(n + m)`,
/// independent of the component count — the difference between tractable and
/// quadratic on raw real-world graphs with tens of thousands of small
/// components. Singleton components are omitted: their subgraph is a single
/// isolated node, which no distance computation can say anything interesting
/// about.
pub fn component_subgraphs<G: NeighborSource>(
    graph: &G,
    labels: &ComponentLabels,
) -> Vec<(Graph, Vec<NodeId>)> {
    assert!(!graph.is_directed(), "component_subgraphs expects an undirected graph");
    let sizes = labels.sizes();
    // Dense slot per non-singleton component, in label (= smallest-member)
    // order, and the member list of each.
    let mut slot = vec![usize::MAX; labels.count];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    let mut local = vec![NodeId::MAX; graph.num_nodes()];
    for (u, &label) in labels.labels.iter().enumerate() {
        if sizes[label as usize] < 2 {
            continue;
        }
        if slot[label as usize] == usize::MAX {
            slot[label as usize] = members.len();
            members.push(Vec::with_capacity(sizes[label as usize]));
        }
        let list = &mut members[slot[label as usize]];
        local[u] = list.len() as NodeId;
        list.push(u as NodeId);
    }
    // Every neighbor of a member is a member of the same component, and local
    // ids ascend with original ids, so each list is copied as is.
    members.into_iter().map(|m| (ops::extract_subgraph(graph, &m, &local), m)).collect()
}

/// Extracts the largest connected component as a standalone graph.
///
/// Returns the subgraph and the mapping `new id -> original id`.
pub fn largest_component(graph: &Graph) -> (Graph, Vec<NodeId>) {
    let labels = connected_components(graph);
    let keep: Vec<NodeId> = match labels.largest() {
        None => Vec::new(),
        Some(target) => (0..graph.num_nodes() as NodeId)
            .filter(|&u| labels.labels[u as usize] == target)
            .collect(),
    };
    (ops::induced_subgraph(graph, &keep), keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_components() -> Graph {
        // {0,1,2} triangle and {3,4} edge, node 5 isolated.
        Graph::from_edges(6, &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 5)])
    }

    #[test]
    fn union_find_counts_components() {
        let labels = connected_components(&two_components());
        assert_eq!(labels.count, 3);
        assert_eq!(labels.labels[0], labels.labels[2]);
        assert_eq!(labels.labels[3], labels.labels[4]);
        assert_ne!(labels.labels[0], labels.labels[3]);
        assert_ne!(labels.labels[3], labels.labels[5]);
    }

    #[test]
    fn sizes_and_largest() {
        let labels = connected_components(&two_components());
        let sizes = labels.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        let largest = labels.largest().unwrap();
        assert_eq!(sizes[largest as usize], 3);
    }

    #[test]
    fn largest_component_extraction() {
        let (sub, mapping) = largest_component(&two_components());
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(mapping, vec![0, 1, 2]);
    }

    #[test]
    fn component_subgraphs_split_and_relabel() {
        let g = two_components();
        let labels = connected_components(&g);
        let parts = component_subgraphs(&g, &labels);
        // The isolated node 5 is omitted; components come in label order.
        assert_eq!(parts.len(), 2);
        let (triangle, tri_map) = &parts[0];
        assert_eq!(tri_map, &vec![0, 1, 2]);
        assert_eq!(triangle.num_nodes(), 3);
        assert_eq!(triangle.num_edges(), 3);
        let (pair, pair_map) = &parts[1];
        assert_eq!(pair_map, &vec![3, 4]);
        assert_eq!(pair.edge_weight(0, 1), Some(5));
    }

    #[test]
    fn component_subgraphs_of_edgeless_graphs_are_empty() {
        let g = crate::GraphBuilder::new(4).build();
        let labels = connected_components(&g);
        assert!(component_subgraphs(&g, &labels).is_empty());
    }

    #[test]
    fn component_subgraphs_match_induced_subgraph() {
        // Interleaved components: {0,2,4} path and {1,3} edge.
        let g = Graph::from_edges(5, &[(0, 2, 1), (2, 4, 2), (1, 3, 9)]);
        let labels = connected_components(&g);
        for (sub, mapping) in component_subgraphs(&g, &labels) {
            assert_eq!(sub, crate::ops::induced_subgraph(&g, &mapping));
        }
    }

    #[test]
    fn empty_graph_has_no_components() {
        let labels = connected_components(&crate::GraphBuilder::new(0).build());
        assert_eq!(labels.count, 0);
        assert!(labels.largest().is_none());
        let (sub, mapping) = largest_component(&crate::GraphBuilder::new(0).build());
        assert!(sub.is_empty());
        assert!(mapping.is_empty());
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let labels = connected_components(&crate::GraphBuilder::new(4).build());
        assert_eq!(labels.count, 4);
        assert!(!labels.is_connected());
    }
}
