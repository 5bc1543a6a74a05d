//! Edge-list accumulator producing canonical CSR graphs.

use rayon::prelude::*;

use crate::csr::Graph;
use crate::weight::{NodeId, Weight};

/// Accumulates weighted edges (undirected by default, directed via
/// [`GraphBuilder::new_directed`]) and produces a [`Graph`].
///
/// The builder enforces the invariants every algorithm in the workspace relies
/// on:
///
/// * self loops are dropped,
/// * parallel edges are collapsed keeping the *minimum* weight (a parallel
///   edge can never shorten a shortest path otherwise),
/// * in undirected mode the edge set is symmetrized (each edge stored in both
///   endpoints' adjacency lists); in directed mode every arc is kept as
///   given and a reverse CSR is derived,
/// * adjacency lists are sorted by target node.
///
/// Building is parallelized with rayon (sorting dominates) so that the large
/// synthetic benchmark graphs can be materialized quickly.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId, Weight)>,
    directed: bool,
}

impl GraphBuilder {
    /// Creates a builder for an undirected graph with (at least) `num_nodes`
    /// nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder { num_nodes, edges: Vec::new(), directed: false }
    }

    /// Creates a builder for a *directed* graph: arcs added with
    /// [`GraphBuilder::add_arc`] are kept one-way, and [`GraphBuilder::build`]
    /// produces a graph with [`Graph::is_directed`] set.
    pub fn new_directed(num_nodes: usize) -> Self {
        GraphBuilder { num_nodes, edges: Vec::new(), directed: true }
    }

    /// Creates a builder with pre-reserved edge capacity.
    pub fn with_capacity(num_nodes: usize, edge_capacity: usize) -> Self {
        GraphBuilder { num_nodes, edges: Vec::with_capacity(edge_capacity), directed: false }
    }

    /// `true` if the builder produces a directed graph.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of nodes the built graph will have (grows automatically when an
    /// edge references a larger node id).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds the edge `{u, v}` with weight `w` — both directions, even on a
    /// directed builder (a symmetric pair of arcs).
    ///
    /// Self loops are silently ignored; zero weights are clamped to 1 so that
    /// the positivity invariant always holds.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        if self.directed {
            self.add_arc(u, v, w);
            self.add_arc(v, u, w);
            return;
        }
        if u == v {
            return;
        }
        let w = w.max(1);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.num_nodes = self.num_nodes.max(b as usize + 1);
        self.edges.push((a, b, w));
    }

    /// Adds the arc `u → v` with weight `w`. On an undirected builder this is
    /// the same as [`GraphBuilder::add_edge`] (the arc is symmetrized); on a
    /// directed builder the arc stays one-way.
    ///
    /// Self loops are silently ignored; zero weights are clamped to 1.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId, w: Weight) {
        if !self.directed {
            self.add_edge(u, v, w);
            return;
        }
        if u == v {
            return;
        }
        let w = w.max(1);
        self.num_nodes = self.num_nodes.max(u.max(v) as usize + 1);
        self.edges.push((u, v, w));
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId, Weight)>>(&mut self, iter: I) {
        for (u, v, w) in iter {
            self.add_edge(u, v, w);
        }
    }

    /// Consumes the builder and produces the canonical CSR graph.
    ///
    /// The two super-linear stages — canonicalizing the edge set and ordering
    /// every adjacency list — are both expressed as parallel sorts, so CSR
    /// construction scales with the thread pool instead of bottlenecking on a
    /// per-node sorting loop.
    pub fn build(mut self) -> Graph {
        if self.directed {
            return self.build_directed();
        }
        let n = self.num_nodes;
        // Canonical order: by (u, v, w); keeping the first of each (u, v) run
        // keeps the minimum weight.
        self.edges.par_sort_unstable();
        self.edges.dedup_by_key(|e| (e.0, e.1));

        // Symmetrize into a directed half-edge array and sort it by
        // (source, target): one parallel sort yields every adjacency list
        // already in target order, replacing the sequential per-node sorts.
        let mut directed: Vec<(NodeId, NodeId, Weight)> = Vec::with_capacity(self.edges.len() * 2);
        for &(u, v, w) in &self.edges {
            directed.push((u, v, w));
            directed.push((v, u, w));
        }
        drop(self.edges);
        directed.par_sort_unstable();

        let (offsets, targets, weights) = csr_arrays(n, &directed);
        Graph::from_csr(offsets, targets, weights)
    }

    /// Directed half of [`GraphBuilder::build`]: arcs are canonicalized by
    /// the same parallel sort (dedup keeps the minimum weight per `(u, v)`
    /// arc — `u → v` and `v → u` are distinct arcs) and the reverse CSR is
    /// derived inside [`Graph::from_directed_csr`].
    fn build_directed(mut self) -> Graph {
        let n = self.num_nodes;
        self.edges.par_sort_unstable();
        self.edges.dedup_by_key(|e| (e.0, e.1));
        let (offsets, targets, weights) = csr_arrays(n, &self.edges);
        Graph::from_directed_csr(offsets, targets, weights)
    }
}

/// Scatters a `(source, target, weight)` array sorted by `(source, target)`
/// into CSR offset/target/weight arrays.
fn csr_arrays(
    n: usize,
    arcs: &[(NodeId, NodeId, Weight)],
) -> (Vec<usize>, Vec<NodeId>, Vec<Weight>) {
    let mut degrees = vec![0usize; n];
    for &(u, _, _) in arcs {
        degrees[u as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for d in &degrees {
        acc += d;
        offsets.push(acc);
    }
    let mut targets = Vec::with_capacity(arcs.len());
    let mut weights = Vec::with_capacity(arcs.len());
    for &(_, v, w) in arcs {
        targets.push(v);
        weights.push(w);
    }
    (offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_min_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 7);
        b.add_edge(1, 0, 3);
        b.add_edge(0, 1, 9);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 5);
        b.add_edge(0, 2, 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn zero_weight_clamped_to_one() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn node_count_grows_with_edges() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 9, 2);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn adjacency_sorted_by_target() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(2, 4, 1);
        b.add_edge(2, 0, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(2, 1, 1);
        let g = b.build();
        let neigh: Vec<_> = g.neighbors(2).map(|(v, _)| v).collect();
        assert_eq!(neigh, vec![0, 1, 3, 4]);
    }

    #[test]
    fn extend_edges_matches_add_edge() {
        let edges = vec![(0, 1, 2), (1, 2, 3), (2, 3, 4)];
        let mut a = GraphBuilder::new(4);
        a.extend_edges(edges.iter().copied());
        let mut b = GraphBuilder::new(4);
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w);
        }
        assert_eq!(a.build(), b.build());
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn directed_arcs_stay_one_way() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_arc(0, 1, 5);
        b.add_arc(1, 2, 7);
        let g = b.build();
        assert!(g.is_directed());
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), None);
        let in1: Vec<_> = g.in_neighbors(1).collect();
        assert_eq!(in1, vec![(0, 5)]);
    }

    #[test]
    fn directed_dedup_is_per_arc() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_arc(0, 1, 9);
        b.add_arc(0, 1, 4);
        b.add_arc(1, 0, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert_eq!(g.edge_weight(1, 0), Some(2));
    }

    #[test]
    fn directed_add_edge_symmetrizes() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1, 3);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(3));
        assert_eq!(g.edge_weight(1, 0), Some(3));
    }

    #[test]
    fn undirected_add_arc_symmetrizes() {
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1, 3);
        let g = b.build();
        assert!(!g.is_directed());
        assert_eq!(g.edge_weight(1, 0), Some(3));
    }

    #[test]
    fn symmetric_directed_build_matches_undirected_arcs() {
        // A directed graph whose arc set happens to be symmetric stores the
        // same forward CSR as the undirected build of the same edges.
        let edges = [(0u32, 1u32, 2u32), (1, 2, 3), (0, 2, 9)];
        let mut d = GraphBuilder::new_directed(3);
        let mut u = GraphBuilder::new(3);
        for &(a, b, w) in &edges {
            d.add_edge(a, b, w);
            u.add_edge(a, b, w);
        }
        let dg = d.build();
        let ug = u.build();
        assert_eq!(dg.offsets(), ug.offsets());
        assert_eq!(dg.targets(), ug.targets());
        assert_eq!(dg.weights(), ug.weights());
    }
}
