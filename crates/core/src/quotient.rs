//! The weighted quotient graph of a clustering (Section 4).
//!
//! Nodes of the quotient graph correspond to clusters. For every edge
//! `(u, v)` of the original graph whose endpoints lie in different clusters,
//! the quotient contains an edge between those clusters with weight
//! `w(u, v) + d_u + d_v`; among parallel edges only the lightest is kept. The
//! diameter of the original graph is then estimated as
//! `Φ_approx(G) = Φ(G_C) + 2·R`, which is never below the true diameter when
//! the `d_u` are genuine distance upper bounds.
//!
//! The paper builds `G_C` in one MapReduce round: every inter-cluster edge is
//! mapped to its cluster pair, and the reducer of a pair keeps the lightest
//! edge, a `reduceByKey(min)`. Here the round is combined map-side, as a
//! MapReduce combiner would do it. A parallel scan cuts the nodes into
//! chunks, and each chunk folds its boundary edges into a fixed-size
//! direct-mapped table from cluster pair to lightest augmented weight. The
//! sort that builds the quotient's CSR therefore sees each chunk's distinct
//! pairs, not every boundary edge. [`QuotientGraph::boundary_edges`] still
//! counts every inter-cluster edge inspected: they are the round's messages.

use cldiam_graph::atomic::ChunkBuffers;
use cldiam_graph::{Dist, Graph, GraphBuilder, NeighborSource, NodeId, Weight};

use crate::clustering::Clustering;

/// Slots of each chunk's combiner table. A power of two: the table is
/// indexed by the top bits of a multiplicative hash.
pub const COMBINER_SLOTS: usize = 1 << COMBINER_BITS;

const COMBINER_BITS: u32 = 12;

/// Fewest nodes per chunk of the boundary scan.
const MIN_CHUNK_NODES: usize = 256;

/// The key of a free slot. A packed pair is never 0: its second id is
/// larger than its first, so it is at least 1.
const FREE: u64 = 0;

/// The quotient graph of a clustering, together with the cluster-center
/// labels of its nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuotientGraph {
    /// The quotient graph itself: node `i` represents the cluster centered at
    /// `cluster_centers[i]`.
    pub graph: Graph,
    /// Original center node of every quotient node.
    pub cluster_centers: Vec<NodeId>,
    /// Number of original inter-cluster edges inspected (before keeping only
    /// the minimum-weight parallel edge per cluster pair).
    pub boundary_edges: usize,
    /// Number of those edges whose augmented weight `w + d_u + d_v` exceeds
    /// `Weight::MAX`. Their quotient edges are clamped to `Weight::MAX`, so
    /// when this is non-zero `Φ(G_C) + 2·R` is no upper bound.
    pub overflow_edges: usize,
}

impl QuotientGraph {
    /// Quotient node id of the cluster centered at `center`, if any.
    pub fn node_of_center(&self, center: NodeId) -> Option<NodeId> {
        self.cluster_centers.binary_search(&center).ok().map(|i| i as NodeId)
    }
}

/// One chunk's map-side combiner.
#[derive(Debug, Default)]
struct Combiner {
    /// `(packed pair, lightest weight)`, or `(FREE, 0)`.
    slots: Vec<(u64, Weight)>,
    /// Entries evicted from `slots`; after [`Combiner::finish`], the chunk's
    /// lightest edge per pair, sorted.
    spill: Vec<(NodeId, NodeId, Weight)>,
    boundary_edges: usize,
    overflow_edges: usize,
}

impl Combiner {
    /// Keeps the lighter of `w` and the weight held for the pair `{a, b}`
    /// (`a != b`). A different pair holding the slot is evicted to `spill`.
    #[inline]
    fn fold(&mut self, a: NodeId, b: NodeId, w: Weight) {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        let key = u64::from(a) << 32 | u64::from(b);
        let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - COMBINER_BITS)) as usize;
        let held = &mut self.slots[slot];
        if held.0 == key {
            held.1 = held.1.min(w);
            return;
        }
        if held.0 != FREE {
            self.spill.push(((held.0 >> 32) as NodeId, held.0 as NodeId, held.1));
        }
        *held = (key, w);
    }

    /// Moves the table's entries to `spill` and keeps its lightest edge per
    /// pair.
    fn finish(&mut self) {
        for &(key, w) in &self.slots {
            if key != FREE {
                self.spill.push(((key >> 32) as NodeId, key as NodeId, w));
            }
        }
        self.spill.sort_unstable();
        self.spill.dedup_by_key(|e| (e.0, e.1));
    }
}

/// Builds the weighted quotient graph of `clustering` over `graph`.
///
/// A parallel scan inspects each undirected edge once, from its smaller
/// endpoint, and counts every edge whose endpoints lie in different clusters
/// into `boundary_edges`. Its augmented weight `w + d_u + d_v` is clamped to
/// `Weight::MAX`; each clamped edge is counted in `overflow_edges`. Each
/// chunk of the scan folds the edge into its combiner, a table of
/// [`COMBINER_SLOTS`] slots direct-mapped by a multiplicative hash of the
/// cluster pair, which keeps the lightest weight per pair. A pair that finds
/// its slot held by another pair evicts it into the chunk's spill buffer,
/// which is sorted and deduplicated once the chunk is done. The
/// [`GraphBuilder`] then merges the chunks' survivors. A chunk's table does
/// not grow with the number of clusters, and its spill holds at most its
/// boundary edges.
///
/// Node ids are dense, so the center → quotient-node index is a plain `Vec`
/// lookup. The result does not depend on the thread count: the builder keeps
/// the lightest edge per pair however the chunks split them.
pub fn quotient_graph<G: NeighborSource>(graph: &G, clustering: &Clustering) -> QuotientGraph {
    let centers = clustering.centers.clone();
    let mut quotient_id: Vec<NodeId> = vec![NodeId::MAX; graph.num_nodes()];
    for (i, &c) in centers.iter().enumerate() {
        quotient_id[c as usize] = i as NodeId;
    }

    let assignment = &clustering.assignment;
    let dist = &clustering.dist;
    let quotient_id = &quotient_id;
    let mut chunks = ChunkBuffers::<Combiner>::new();
    let combiners = chunks.scan(graph.num_nodes(), MIN_CHUNK_NODES, |range, combiner| {
        combiner.slots.resize(COMBINER_SLOTS, (FREE, 0));
        for u in range {
            let cu = assignment[u];
            let du = dist[u];
            for (v, w) in graph.neighbors(u as NodeId) {
                if u >= v as usize {
                    continue;
                }
                let cv = assignment[v as usize];
                if cu == cv {
                    continue;
                }
                combiner.boundary_edges += 1;
                let weight = Dist::from(w).saturating_add(du).saturating_add(dist[v as usize]);
                if weight > Dist::from(Weight::MAX) {
                    combiner.overflow_edges += 1;
                }
                let clamped = weight.min(Dist::from(Weight::MAX)) as Weight;
                combiner.fold(quotient_id[cu as usize], quotient_id[cv as usize], clamped.max(1));
            }
        }
        combiner.finish();
    });
    let boundary_edges = combiners.iter().map(|c| c.boundary_edges).sum();
    let overflow_edges = combiners.iter().map(|c| c.overflow_edges).sum();
    let survivors = combiners.iter().map(|c| c.spill.len()).sum();
    let mut builder = GraphBuilder::with_capacity(centers.len(), survivors);
    for combiner in combiners.iter() {
        builder.extend_edges(combiner.spill.iter().copied());
    }
    // The spill buffers are copied into the builder: free them before its
    // sort doubles the edge array.
    drop(chunks);
    QuotientGraph {
        graph: builder.build(),
        cluster_centers: centers,
        boundary_edges,
        overflow_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_mr::CostMetrics;

    fn toy() -> (Graph, Clustering) {
        // Two clusters: {0,1} centered at 0 and {2,3} centered at 3, joined by
        // the edge (1,2) of weight 7 plus a second boundary edge (0,2) of
        // weight 100.
        let graph = Graph::from_edges(4, &[(0, 1, 2), (1, 2, 7), (0, 2, 100), (2, 3, 3)]);
        let clustering = Clustering {
            assignment: vec![0, 0, 3, 3],
            dist: vec![0, 2, 3, 0],
            centers: vec![0, 3],
            radius: 3,
            delta_end: 4,
            growing_steps: 1,
            stages: 1,
            metrics: CostMetrics::default(),
        };
        (graph, clustering)
    }

    #[test]
    fn quotient_has_one_node_per_cluster() {
        let (graph, clustering) = toy();
        let q = quotient_graph(&graph, &clustering);
        assert_eq!(q.graph.num_nodes(), 2);
        assert_eq!(q.cluster_centers, vec![0, 3]);
        assert_eq!(q.node_of_center(3), Some(1));
        assert_eq!(q.node_of_center(1), None);
    }

    #[test]
    fn quotient_edge_takes_minimum_augmented_weight() {
        let (graph, clustering) = toy();
        let q = quotient_graph(&graph, &clustering);
        // Edge (1,2): 7 + d1 + d2 = 7 + 2 + 3 = 12. Edge (0,2): 100 + 0 + 3 =
        // 103. The minimum, 12, must be kept.
        assert_eq!(q.graph.num_edges(), 1);
        assert_eq!(q.graph.edge_weight(0, 1), Some(12));
        assert_eq!(q.boundary_edges, 2);
        assert_eq!(q.overflow_edges, 0);
    }

    #[test]
    fn intra_cluster_edges_are_dropped() {
        let (graph, clustering) = toy();
        let q = quotient_graph(&graph, &clustering);
        // Edges (0,1) and (2,3) are internal and contribute nothing.
        assert_eq!(q.graph.num_edges() + 2, graph.num_edges() - 1);
    }

    #[test]
    fn single_cluster_gives_edgeless_quotient() {
        let graph = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
        let clustering = Clustering {
            assignment: vec![0, 0, 0],
            dist: vec![0, 1, 2],
            centers: vec![0],
            radius: 2,
            delta_end: 2,
            growing_steps: 2,
            stages: 1,
            metrics: CostMetrics::default(),
        };
        let q = quotient_graph(&graph, &clustering);
        assert_eq!(q.graph.num_nodes(), 1);
        assert_eq!(q.graph.num_edges(), 0);
        assert_eq!(q.boundary_edges, 0);
    }
}
