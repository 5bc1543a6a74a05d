//! Graph transformations: cartesian products, induced subgraphs and
//! reweighting.
//!
//! The paper's `roads(S)` benchmark family is "the cartesian product of a
//! linear array of `S` nodes and unit edge weights with roads-USA"; the
//! [`cartesian_product`] implemented here is the general graph operation used
//! by the generator crate to build that family.

use rayon::prelude::*;

use crate::builder::{list_blocks, sort_adjacency, GraphBuilder, SORT_BLOCK};
use crate::csr::Graph;
use crate::source::NeighborSource;
use crate::weight::{NodeId, Weight};

/// Cartesian product `G □ H`.
///
/// Nodes are pairs `(g, h)` encoded as `g * H.num_nodes() + h`. Two nodes are
/// adjacent when they agree on one coordinate and the other coordinates are
/// adjacent in the corresponding factor; the edge inherits the factor edge's
/// weight.
///
/// # Panics
///
/// Panics if the product would exceed `u32::MAX` nodes.
pub fn cartesian_product(g: &Graph, h: &Graph) -> Graph {
    assert!(!g.is_directed() && !h.is_directed(), "cartesian_product expects undirected factors");
    let ng = g.num_nodes();
    let nh = h.num_nodes();
    let product = ng.checked_mul(nh).expect("product size overflow");
    assert!(product <= NodeId::MAX as usize, "cartesian product exceeds u32 node ids");
    let encode = |gu: NodeId, hu: NodeId| gu as u64 * nh as u64 + hu as u64;
    let mut builder = GraphBuilder::with_capacity(product, g.num_edges() * nh + h.num_edges() * ng);
    // Edges from G, replicated for every node of H.
    for (gu, gv, w) in g.edges() {
        for hu in 0..nh as NodeId {
            builder.add_edge(encode(gu, hu) as NodeId, encode(gv, hu) as NodeId, w);
        }
    }
    // Edges from H, replicated for every node of G.
    for (hu, hv, w) in h.edges() {
        for gu in 0..ng as NodeId {
            builder.add_edge(encode(gu, hu) as NodeId, encode(gu, hv) as NodeId, w);
        }
    }
    // `with_capacity(product, ..)` pre-sizes the node count, so isolated
    // product nodes survive even if they have no incident edges.
    builder.build()
}

/// Induced subgraph on `nodes` (which must not contain duplicates).
///
/// Node `nodes[i]` of the original graph becomes node `i` of the subgraph.
/// Directedness is preserved: the induced subgraph of a directed graph keeps
/// exactly the arcs whose endpoints both survive. The graph is already
/// canonical, so its lists are copied straight into the subgraph's CSR
/// arrays, in `O(n + m)` time; only a non-ascending `nodes` makes the
/// relabelled lists need a sort.
pub fn induced_subgraph(graph: &Graph, nodes: &[NodeId]) -> Graph {
    let mut new_id = vec![NodeId::MAX; graph.num_nodes()];
    for (i, &u) in nodes.iter().enumerate() {
        assert_eq!(new_id[u as usize], NodeId::MAX, "duplicate node {u} in induced_subgraph");
        new_id[u as usize] = i as NodeId;
    }
    extract_subgraph(graph, nodes, &new_id)
}

/// The subgraph whose node `i` is `nodes[i]` of `graph`. An arc `u → v`
/// leaving a node of `nodes` is dropped if `new_id[v]` is `NodeId::MAX` and
/// otherwise kept as `i → new_id[v]`, where `new_id[v]` must be `v`'s index
/// in `nodes`.
///
/// Shared by [`induced_subgraph`] and [`crate::component_subgraphs`]. Two
/// passes over blocks of [`SORT_BLOCK`] members, each in parallel: the first
/// counts every member's kept arcs, whose prefix sums size the CSR arrays
/// exactly; the second copies each list into its slots and, when `nodes` is
/// not ascending, sorts it on its own. A canonical graph has no parallel
/// arcs, so nothing is deduplicated. [`Graph::from_csr`] checks the result.
pub(crate) fn extract_subgraph<G: NeighborSource>(
    graph: &G,
    nodes: &[NodeId],
    new_id: &[NodeId],
) -> Graph {
    let ascending = nodes.windows(2).all(|pair| pair[0] < pair[1]);
    let kept = |u: NodeId| {
        graph.neighbors(u).filter_map(|(v, w)| {
            let nv = new_id[v as usize];
            (nv != NodeId::MAX).then_some((nv, w))
        })
    };
    let mut offsets = vec![0usize; nodes.len() + 1];
    offsets[1..].par_chunks_mut(SORT_BLOCK).zip(nodes.par_chunks(SORT_BLOCK)).for_each(
        |(degrees, block)| {
            for (degree, &u) in degrees.iter_mut().zip(block) {
                *degree = kept(u).count();
            }
        },
    );
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let arcs = offsets[nodes.len()];
    let mut targets = vec![0 as NodeId; arcs];
    let mut weights = vec![0 as Weight; arcs];
    list_blocks(&offsets, &mut targets, &mut weights)
        .into_par_iter()
        .zip(nodes.par_chunks(SORT_BLOCK))
        .for_each(|((bounds, targets, weights), block)| {
            let base = bounds[0];
            let mut scratch = Vec::new();
            for (list, &u) in bounds.windows(2).zip(block) {
                let range = list[0] - base..list[1] - base;
                let (list_targets, list_weights) =
                    (&mut targets[range.clone()], &mut weights[range]);
                for ((target, weight), (nv, w)) in
                    list_targets.iter_mut().zip(list_weights.iter_mut()).zip(kept(u))
                {
                    (*target, *weight) = (nv, w);
                }
                if !ascending {
                    sort_adjacency(list_targets, list_weights, &mut scratch);
                }
            }
        });
    if graph.is_directed() {
        Graph::from_directed_csr(offsets, targets, weights)
    } else {
        Graph::from_csr(offsets, targets, weights)
    }
}

/// Applies a function to every edge weight (the result is clamped to be
/// positive). Useful to re-draw weights on a fixed topology, as the paper does
/// for the "born unweighted" social graphs.
pub fn map_weights(graph: &Graph, mut f: impl FnMut(NodeId, NodeId, Weight) -> Weight) -> Graph {
    assert!(!graph.is_directed(), "map_weights expects an undirected graph");
    let mut builder = GraphBuilder::new(graph.num_nodes());
    for (u, v, w) in graph.edges() {
        builder.add_edge(u, v, f(u, v, w).max(1));
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize, w: Weight) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i as NodeId, (i + 1) as NodeId, w)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn product_of_paths_is_grid() {
        let p3 = path(3, 1);
        let p2 = path(2, 1);
        let grid = cartesian_product(&p3, &p2);
        assert_eq!(grid.num_nodes(), 6);
        // Grid 3x2 has 3*1 + 2*2 = 7 edges.
        assert_eq!(grid.num_edges(), 7);
        // Node (g, h) = g*2 + h; (0,0)-(0,1) and (0,0)-(1,0) must exist.
        assert!(grid.edge_weight(0, 1).is_some());
        assert!(grid.edge_weight(0, 2).is_some());
        assert!(grid.edge_weight(0, 3).is_none());
    }

    #[test]
    fn product_preserves_factor_weights() {
        let heavy = path(2, 9);
        let light = path(2, 2);
        let prod = cartesian_product(&heavy, &light);
        // (0,0)-(1,0): heavy edge; (0,0)-(0,1): light edge.
        assert_eq!(prod.edge_weight(0, 2), Some(9));
        assert_eq!(prod.edge_weight(0, 1), Some(2));
    }

    #[test]
    fn product_node_count_with_isolated_factor() {
        let p2 = path(2, 1);
        let isolated = crate::GraphBuilder::new(3).build();
        let prod = cartesian_product(&p2, &isolated);
        assert_eq!(prod.num_nodes(), 6);
        assert_eq!(prod.num_edges(), 3);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]);
        let sub = induced_subgraph(&g, &[1, 2, 3]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.edge_weight(0, 1), Some(2));
        assert_eq!(sub.edge_weight(1, 2), Some(3));
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        let g = path(3, 1);
        induced_subgraph(&g, &[0, 0]);
    }

    #[test]
    fn induced_subgraph_preserves_direction() {
        // Arcs 0→1, 1→2, 2→0, 3→1; keep {0, 1, 2}.
        let mut b = GraphBuilder::new_directed(4);
        b.add_arc(0, 1, 1);
        b.add_arc(1, 2, 2);
        b.add_arc(2, 0, 3);
        b.add_arc(3, 1, 9);
        let g = b.build();
        let sub = induced_subgraph(&g, &[0, 1, 2]);
        assert!(sub.is_directed());
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.edge_weight(0, 1), Some(1));
        assert_eq!(sub.edge_weight(1, 0), None);
        assert_eq!(sub.edge_weight(2, 0), Some(3));
    }

    #[test]
    fn map_weights_rescales() {
        let g = path(3, 4);
        let doubled = map_weights(&g, |_, _, w| w * 2);
        assert_eq!(doubled.edge_weight(0, 1), Some(8));
        let clamped = map_weights(&g, |_, _, _| 0);
        assert_eq!(clamped.edge_weight(0, 1), Some(1));
    }
}
