//! Compressed-sparse-row storage for weighted graphs (undirected by
//! default, with an opt-in directed mode carrying a reverse CSR).

use crate::source::NeighborSource;
use crate::storage::Storage;
use crate::weight::{Dist, NodeId, Weight};

/// The incoming-arc adjacency of a directed graph: a second CSR indexed by
/// arc *target*, parallel in shape to the forward arrays. Within a node the
/// in-neighbors are sorted by source id (a consequence of the deterministic
/// counting-sort construction).
#[derive(Clone, Debug, PartialEq, Eq)]
struct ReverseCsr {
    offsets: Vec<usize>,
    sources: Vec<NodeId>,
    weights: Vec<Weight>,
}

/// An immutable weighted graph in compressed-sparse-row form.
///
/// In the default **undirected** mode every edge `{u, v}` is stored twice
/// (once in the adjacency list of `u` and once in that of `v`);
/// [`Graph::num_edges`] reports the number of undirected edges, i.e. half of
/// the stored arcs. In **directed** mode ([`Graph::is_directed`]) each arc
/// `u → v` is stored once in the forward adjacency of `u` and once in the
/// reverse adjacency of `v` ([`Graph::in_neighbors`]), and
/// [`Graph::num_edges`] counts arcs. Self loops are never stored. Node
/// identifiers are dense in `0..num_nodes()`.
///
/// Construction goes through [`crate::GraphBuilder`] (or the generator crate),
/// which guarantees these invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u]..offsets[u + 1]` indexes the arcs leaving `u`. Owned or,
    /// for graphs loaded from a v2 snapshot via mmap, a zero-copy view into
    /// the mapped file.
    offsets: Storage<usize>,
    /// Arc targets, grouped by source node and sorted by target within a node.
    targets: Storage<NodeId>,
    /// Arc weights, parallel to `targets`.
    weights: Storage<Weight>,
    /// Incoming-arc CSR; present exactly when the graph is directed.
    rev: Option<Box<ReverseCsr>>,
    /// Statistics of `weights`, recorded at construction.
    weight_stats: WeightStats,
}

/// The minimum, maximum and sum of a graph's stored arc weights, recorded
/// once when the graph is built so that the weight statistics of both
/// storage tiers are `O(1)` reads. All zero for an arcless graph; otherwise
/// `min ≥ 1`, since every weight is positive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct WeightStats {
    pub(crate) min: Weight,
    pub(crate) max: Weight,
    /// Sum over stored arcs: an undirected edge counts twice.
    pub(crate) sum: Dist,
}

impl WeightStats {
    /// Smallest weight of a graph with `arcs` stored arcs.
    pub(crate) fn min_weight(&self, arcs: usize) -> Option<Weight> {
        (arcs > 0).then_some(self.min)
    }

    /// Largest weight of a graph with `arcs` stored arcs.
    pub(crate) fn max_weight(&self, arcs: usize) -> Option<Weight> {
        (arcs > 0).then_some(self.max)
    }

    /// Mean arc weight rounded down (at least 1) of a graph with `arcs`
    /// stored arcs.
    pub(crate) fn avg_weight(&self, arcs: usize) -> Option<Weight> {
        (arcs > 0).then(|| (self.sum / arcs as Dist).max(1) as Weight)
    }

    /// Sum of the edge weights: each undirected edge once, each arc of a
    /// directed graph once.
    pub(crate) fn total_weight(&self, directed: bool) -> Dist {
        if directed {
            self.sum
        } else {
            self.sum / 2
        }
    }
}

/// Panics unless the CSR arrays are structurally valid (shared by the
/// undirected and directed constructors). Returns the weight statistics,
/// gathered in the same pass.
fn validate_csr(offsets: &[usize], targets: &[NodeId], weights: &[Weight]) -> WeightStats {
    assert!(!offsets.is_empty(), "offsets must contain at least one entry");
    assert_eq!(
        *offsets.last().unwrap(),
        targets.len(),
        "last offset must equal the number of arcs"
    );
    assert_eq!(targets.len(), weights.len(), "targets and weights must be parallel");
    let n = offsets.len() - 1;
    assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be nondecreasing");
    let mut stats = WeightStats { min: Weight::MAX, ..WeightStats::default() };
    for (u, window) in offsets.windows(2).enumerate() {
        for i in window[0]..window[1] {
            let v = targets[i];
            assert!((v as usize) < n, "arc target {v} out of range (n = {n})");
            assert_ne!(v as usize, u, "self loops are not allowed");
            assert!(weights[i] > 0, "edge weights must be strictly positive");
            assert!(
                i == window[0] || targets[i - 1] < v,
                "adjacency list of node {u} is not strictly increasing"
            );
            stats.min = stats.min.min(weights[i]);
            stats.max = stats.max.max(weights[i]);
            stats.sum += Dist::from(weights[i]);
        }
    }
    if weights.is_empty() {
        WeightStats::default()
    } else {
        stats
    }
}

/// The reverse CSR of a forward CSR, built with a deterministic counting
/// sort: scanning arcs in forward order leaves every in-neighbor list sorted
/// by source id, independent of any thread count.
fn reverse_of(offsets: &[usize], targets: &[NodeId], weights: &[Weight]) -> ReverseCsr {
    let n = offsets.len() - 1;
    let mut in_degree = vec![0usize; n];
    for &v in targets {
        in_degree[v as usize] += 1;
    }
    let mut rev_offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    rev_offsets.push(0);
    for d in &in_degree {
        acc += d;
        rev_offsets.push(acc);
    }
    let mut cursor = rev_offsets[..n].to_vec();
    let mut sources = vec![0 as NodeId; targets.len()];
    let mut rev_weights = vec![0 as Weight; targets.len()];
    for u in 0..n {
        for i in offsets[u]..offsets[u + 1] {
            let v = targets[i] as usize;
            let slot = cursor[v];
            cursor[v] += 1;
            sources[slot] = u as NodeId;
            rev_weights[slot] = weights[i];
        }
    }
    ReverseCsr { offsets: rev_offsets, sources, weights: rev_weights }
}

impl Graph {
    /// Builds an undirected graph directly from CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (wrong offset length, decreasing
    /// offsets, targets out of range, zero weights, self loops, or an
    /// adjacency list that is not strictly increasing: unsorted or holding a
    /// parallel arc).
    pub fn from_csr(offsets: Vec<usize>, targets: Vec<NodeId>, weights: Vec<Weight>) -> Self {
        let weight_stats = validate_csr(&offsets, &targets, &weights);
        Graph {
            offsets: offsets.into(),
            targets: targets.into(),
            weights: weights.into(),
            rev: None,
            weight_stats,
        }
    }

    /// Assembles an undirected graph straight from (possibly mapped) storage,
    /// checking only the O(1) shape invariants.
    ///
    /// This is the mmap fast path of the v2 snapshot loader: the arrays were
    /// validated in full when the snapshot was written, so the O(arcs)
    /// re-validation of [`Graph::from_csr`] is skipped, and `weight_stats`
    /// comes from the snapshot's checksummed header. Callers must only pass
    /// storage and statistics produced by this crate's snapshot writer.
    pub(crate) fn from_storage_unchecked(
        offsets: Storage<usize>,
        targets: Storage<NodeId>,
        weights: Storage<Weight>,
        weight_stats: WeightStats,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least one entry");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "last offset must equal the number of arcs"
        );
        assert_eq!(targets.len(), weights.len(), "targets and weights must be parallel");
        Graph { offsets, targets, weights, rev: None, weight_stats }
    }

    /// Builds a directed graph from forward CSR arrays; the reverse CSR is
    /// derived internally with a deterministic counting sort. Arc sets may be
    /// asymmetric — that is the point.
    ///
    /// # Panics
    ///
    /// Panics under the same structural conditions as [`Graph::from_csr`].
    pub fn from_directed_csr(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        weights: Vec<Weight>,
    ) -> Self {
        let weight_stats = validate_csr(&offsets, &targets, &weights);
        let rev = reverse_of(&offsets, &targets, &weights);
        Graph {
            offsets: offsets.into(),
            targets: targets.into(),
            weights: weights.into(),
            rev: Some(Box::new(rev)),
            weight_stats,
        }
    }

    /// Builds a graph from an explicit undirected edge list.
    ///
    /// This is a convenience wrapper around [`crate::GraphBuilder`]: edges are
    /// symmetrized, self loops dropped and parallel edges collapsed to the one
    /// of minimum weight.
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId, Weight)]) -> Self {
        let mut builder = crate::GraphBuilder::with_capacity(num_nodes, edges.len());
        for &(u, v, w) in edges {
            builder.add_edge(u, v, w);
        }
        builder.build()
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1].into(),
            targets: Vec::new().into(),
            weights: Vec::new().into(),
            rev: None,
            weight_stats: WeightStats::default(),
        }
    }

    /// `true` if the graph carries a directed arc set (and hence a reverse
    /// CSR). Undirected graphs answer `false`.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.rev.is_some()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges: undirected edges for undirected graphs (half the
    /// stored arcs), arcs for directed graphs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.is_directed() {
            self.targets.len()
        } else {
            self.targets.len() / 2
        }
    }

    /// Number of stored forward arcs (twice [`Graph::num_edges`] for
    /// undirected graphs, equal to it for directed ones).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_nodes() == 0
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Iterator over all node identifiers.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over the neighbors of `u` with the connecting edge weight.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let range = self.offsets[u as usize]..self.offsets[u as usize + 1];
        range.map(move |i| (self.targets[i], self.weights[i]))
    }

    /// The neighbor/weight slices of `u`, useful for tight inner loops.
    #[inline]
    pub fn neighbor_slices(&self, u: NodeId) -> (&[NodeId], &[Weight]) {
        let range = self.offsets[u as usize]..self.offsets[u as usize + 1];
        (&self.targets[range.clone()], &self.weights[range])
    }

    /// Iterator over the in-neighbors of `u` with the connecting arc weight.
    /// On an undirected graph this is the same set as [`Graph::neighbors`].
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let (sources, weights) = self.in_neighbor_slices(u);
        sources.iter().copied().zip(weights.iter().copied())
    }

    /// The in-neighbor/weight slices of `u`. Falls back to the forward
    /// adjacency on undirected graphs, where the two coincide.
    #[inline]
    pub fn in_neighbor_slices(&self, u: NodeId) -> (&[NodeId], &[Weight]) {
        match &self.rev {
            Some(rev) => {
                let range = rev.offsets[u as usize]..rev.offsets[u as usize + 1];
                (&rev.sources[range.clone()], &rev.weights[range])
            }
            None => self.neighbor_slices(u),
        }
    }

    /// In-degree of node `u` (equal to [`Graph::degree`] when undirected).
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        match &self.rev {
            Some(rev) => rev.offsets[u as usize + 1] - rev.offsets[u as usize],
            None => self.degree(u),
        }
    }

    /// The graph with every arc reversed. A clone for undirected graphs; for
    /// directed graphs the forward and reverse adjacencies swap roles (the
    /// counting-sorted in-lists are already sorted by source, so the swapped
    /// forward lists satisfy the sorted-CSR invariant as-is).
    pub fn reversed(&self) -> Graph {
        match &self.rev {
            None => self.clone(),
            Some(rev) => Graph::from_directed_csr(
                rev.offsets.clone(),
                rev.sources.clone(),
                rev.weights.clone(),
            ),
        }
    }

    /// Iterator over edges `(u, v, w)`: undirected edges with `u < v` for
    /// undirected graphs, every arc once for directed graphs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        let directed = self.is_directed();
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .filter_map(move |(v, w)| if directed || u < v { Some((u, v, w)) } else { None })
        })
    }

    /// Iterator over all arcs `(u, v, w)` (each undirected edge appears twice).
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.nodes().flat_map(move |u| self.neighbors(u).map(move |(v, w)| (u, v, w)))
    }

    /// Weight of the edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let (targets, weights) = self.neighbor_slices(u);
        targets.binary_search(&v).ok().map(|i| weights[i])
    }

    /// `true` if the edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Minimum edge weight, or `None` for an edgeless graph. `O(1)`, like
    /// every weight statistic: they are recorded when the graph is built.
    pub fn min_weight(&self) -> Option<Weight> {
        self.weight_stats.min_weight(self.num_arcs())
    }

    /// Maximum edge weight, or `None` for an edgeless graph.
    pub fn max_weight(&self) -> Option<Weight> {
        self.weight_stats.max_weight(self.num_arcs())
    }

    /// Average edge weight, or `None` for an edgeless graph.
    ///
    /// The paper's practical configuration of `CLUSTER` uses this value as the
    /// initial guess for `Δ`.
    pub fn avg_weight(&self) -> Option<Weight> {
        self.weight_stats.avg_weight(self.num_arcs())
    }

    /// Sum of all edge weights (each undirected edge counted once; each arc
    /// once for directed graphs).
    pub fn total_weight(&self) -> Dist {
        self.weight_stats.total_weight(self.is_directed())
    }

    /// The recorded weight statistics, for the snapshot writer.
    pub(crate) fn weight_stats(&self) -> WeightStats {
        self.weight_stats
    }

    /// Memory footprint of the CSR arrays (including the reverse CSR of a
    /// directed graph), in bytes. Used by the MR model to check the "linear
    /// total memory" accounting.
    pub fn memory_bytes(&self) -> usize {
        let forward = self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + self.weights.len() * std::mem::size_of::<Weight>();
        let reverse = self.rev.as_ref().map_or(0, |rev| {
            rev.offsets.len() * std::mem::size_of::<usize>()
                + rev.sources.len() * std::mem::size_of::<NodeId>()
                + rev.weights.len() * std::mem::size_of::<Weight>()
        });
        forward + reverse
    }

    /// Raw CSR offset array (`offsets[u]..offsets[u+1]` indexes the arcs of
    /// `u`). Exposed for cost accounting and advanced consumers.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw CSR arc-target array, parallel to [`Graph::weights`]. Exposed for
    /// the binary snapshot writer and advanced consumers.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Raw CSR arc-weight array, parallel to [`Graph::targets`].
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }
}

/// Neighbor iterator of the dense tier: a zip of the target and weight
/// slices of one node.
pub type DenseNeighbors<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, NodeId>>,
    std::iter::Copied<std::slice::Iter<'a, Weight>>,
>;

impl NeighborSource for Graph {
    type Neighbors<'a> = DenseNeighbors<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        Graph::num_arcs(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> DenseNeighbors<'_> {
        let (targets, weights) = self.neighbor_slices(u);
        targets.iter().copied().zip(weights.iter().copied())
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        Graph::degree(self, u)
    }

    #[inline]
    fn is_directed(&self) -> bool {
        Graph::is_directed(self)
    }

    fn min_weight(&self) -> Option<Weight> {
        Graph::min_weight(self)
    }

    fn max_weight(&self) -> Option<Weight> {
        Graph::max_weight(self)
    }

    fn avg_weight(&self) -> Option<Weight> {
        Graph::avg_weight(self)
    }

    fn total_weight(&self) -> Dist {
        Graph::total_weight(self)
    }

    fn memory_bytes(&self) -> usize {
        Graph::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 10), (1, 2, 20), (0, 2, 30)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert!(!g.is_empty());
    }

    #[test]
    fn neighbors_are_symmetric_and_sorted() {
        let g = triangle();
        let n0: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 10), (2, 30)]);
        let n2: Vec<_> = g.neighbors(2).collect();
        assert_eq!(n2, vec![(0, 30), (1, 20)]);
    }

    #[test]
    fn edge_queries() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 1), Some(10));
        assert_eq!(g.edge_weight(1, 0), Some(10));
        assert_eq!(g.edge_weight(0, 0), None);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn weight_statistics() {
        let g = triangle();
        assert_eq!(g.min_weight(), Some(10));
        assert_eq!(g.max_weight(), Some(30));
        assert_eq!(g.avg_weight(), Some(20));
        assert_eq!(g.total_weight(), 60);
    }

    #[test]
    fn edges_listed_once() {
        let g = triangle();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1, 10), (0, 2, 30), (1, 2, 20)]);
        assert_eq!(g.arcs().count(), 6);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.min_weight(), None);
        assert_eq!(g.avg_weight(), None);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn from_csr_rejects_self_loops() {
        Graph::from_csr(vec![0, 1], vec![0], vec![1]);
    }

    #[test]
    #[should_panic(expected = "adjacency list of node 0 is not strictly increasing")]
    fn from_csr_rejects_unsorted_lists() {
        // If accepted, `edge_weight` would binary-search an unsorted list:
        // `has_edge(0, 3)` false while `edge_weight(3, 0)` is `Some(5)`.
        Graph::from_csr(vec![0, 3, 4, 5, 6], vec![3, 2, 1, 0, 0, 0], vec![5, 6, 7, 7, 6, 5]);
    }

    #[test]
    #[should_panic(expected = "adjacency list of node 0 is not strictly increasing")]
    fn from_csr_rejects_parallel_arcs() {
        // If accepted, this would report 2 edges between 2 nodes.
        Graph::from_csr(vec![0, 2, 4], vec![1, 1, 0, 0], vec![4, 9, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn from_csr_rejects_zero_weights() {
        Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_csr_rejects_dangling_targets() {
        Graph::from_csr(vec![0, 1, 1], vec![7], vec![1]);
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle();
        assert!(g.memory_bytes() > 0);
    }

    /// A directed triangle cycle 0→1→2→0 plus a chord 0→2.
    fn directed_cycle() -> Graph {
        Graph::from_directed_csr(vec![0, 2, 3, 4], vec![1, 2, 2, 0], vec![10, 40, 20, 30])
    }

    #[test]
    fn directed_counts_and_queries() {
        let g = directed_cycle();
        assert!(g.is_directed());
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.total_weight(), 100);
        let out0: Vec<_> = g.neighbors(0).collect();
        assert_eq!(out0, vec![(1, 10), (2, 40)]);
        let in2: Vec<_> = g.in_neighbors(2).collect();
        assert_eq!(in2, vec![(0, 40), (1, 20)]);
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.in_degree(2), 2);
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1, 10), (0, 2, 40), (1, 2, 20), (2, 0, 30)]);
    }

    #[test]
    fn reversed_swaps_adjacencies() {
        let g = directed_cycle();
        let r = g.reversed();
        assert!(r.is_directed());
        let out2: Vec<_> = r.neighbors(2).collect();
        assert_eq!(out2, vec![(0, 40), (1, 20)]);
        let in0: Vec<_> = r.in_neighbors(0).collect();
        assert_eq!(in0, vec![(1, 10), (2, 40)]);
        // Reversing twice restores the original graph bit-for-bit.
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn undirected_in_neighbors_match_out_neighbors() {
        let g = triangle();
        assert!(!g.is_directed());
        for u in g.nodes() {
            let out: Vec<_> = g.neighbors(u).collect();
            let inn: Vec<_> = g.in_neighbors(u).collect();
            assert_eq!(out, inn);
            assert_eq!(g.degree(u), g.in_degree(u));
        }
        assert_eq!(g.reversed(), g);
    }
}
