//! Edge-list accumulator producing canonical CSR graphs.

use rayon::prelude::*;

use crate::csr::Graph;
use crate::weight::{NodeId, Weight};

/// Nodes per task of the parallel per-list sort in [`GraphBuilder::build`]
/// and of the parallel copy in [`crate::ops::extract_subgraph`].
pub(crate) const SORT_BLOCK: usize = 4096;

/// Arcs below which [`GraphBuilder::build`] scatters in one part: every part
/// walks the whole edge list, which a small graph does not repay.
const SCATTER_MIN_ARCS: usize = 1 << 15;

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
/// Building sorts no global edge array: a counting sort places each arc in
/// its source's list, in parallel over parts of the node range, and only the
/// lists themselves are sorted, in parallel, so that the large synthetic
/// benchmark graphs can be materialized quickly.
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
    /// Four steps: count every node's arcs, scatter each arc into its
    /// source's slot range, sort and dedup each adjacency list on its own
    /// (keeping the lightest parallel arc), and compact the lists in place.
    /// All but the per-list sorts take linear time. The scatter runs in one
    /// part per pool thread, each owning a range of source nodes with about
    /// equal arc counts; every list receives its arcs in the same order at
    /// any part count, so the result does not depend on the thread count.
    pub fn build(self) -> Graph {
        let directed = self.directed;
        let n = self.num_nodes;
        // An undirected edge `(a, b)` is stored as `a → b` and `b → a`.
        let symmetric = !directed;

        // Count: `offsets[u]` is the number of arcs leaving `u`, then, after
        // an inclusive prefix sum, the end of `u`'s slot range.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v, _) in &self.edges {
            offsets[u as usize] += 1;
            if symmetric {
                offsets[v as usize] += 1;
            }
        }
        let mut end = 0;
        for slot in offsets.iter_mut() {
            end += *slot;
            *slot = end;
        }

        let mut targets = vec![0 as NodeId; end];
        let mut weights = vec![0 as Weight; end];
        scatter(&self.edges, symmetric, &mut offsets[..n], &mut targets, &mut weights);
        drop(self.edges);

        if sort_lists(&offsets, &mut targets, &mut weights) > 0 {
            compact(&mut offsets, &mut targets, &mut weights);
        }
        if directed {
            Graph::from_directed_csr(offsets, targets, weights)
        } else {
            Graph::from_csr(offsets, targets, weights)
        }
    }
}

/// Places every arc of `edges` in its source's slot range. `cursors[u]` is
/// the end of `u`'s range on entry and counts down as arcs are placed, so on
/// return it is the start. Walking the edges backwards leaves every list in
/// input order, which is often already sorted.
///
/// The nodes are cut into one part per pool thread with about equal arc
/// counts, found by binary search on the cursors. Each part owns its nodes'
/// cursors and slot ranges, walks all of `edges` backwards and places only
/// the arcs its nodes leave, so every list receives its arcs in the order of
/// one sequential walk, whatever the part count.
fn scatter(
    edges: &[(NodeId, NodeId, Weight)],
    symmetric: bool,
    cursors: &mut [usize],
    targets: &mut [NodeId],
    weights: &mut [Weight],
) {
    let arcs = targets.len();
    let parts = if arcs < SCATTER_MIN_ARCS { 1 } else { rayon::current_num_threads().max(1) };
    // The cursors are inclusive prefix sums of the degrees: the arcs of the
    // nodes below `cut` end at `cursors[cut - 1]`.
    let cuts: Vec<(usize, usize)> = (1..=parts)
        .map(|k| {
            let cut = if k == parts {
                cursors.len()
            } else {
                cursors.partition_point(|&end| end < arcs * k / parts)
            };
            (cut, cut.checked_sub(1).map_or(0, |last| cursors[last]))
        })
        .collect();
    let mut blocks = Vec::with_capacity(parts);
    let (mut first, mut base) = (0, 0);
    let (mut rest_cursors, mut rest_targets, mut rest_weights) = (cursors, targets, weights);
    for (cut, arc_cut) in cuts {
        let (part_cursors, tail_cursors) =
            std::mem::take(&mut rest_cursors).split_at_mut(cut - first);
        let (part_targets, tail_targets) =
            std::mem::take(&mut rest_targets).split_at_mut(arc_cut - base);
        let (part_weights, tail_weights) =
            std::mem::take(&mut rest_weights).split_at_mut(arc_cut - base);
        (rest_cursors, rest_targets, rest_weights) = (tail_cursors, tail_targets, tail_weights);
        blocks.push((first, base, part_cursors, part_targets, part_weights));
        (first, base) = (cut, arc_cut);
    }
    blocks.into_par_iter().for_each(|(first, base, cursors, targets, weights)| {
        let mut place = |u: NodeId, v: NodeId, w: Weight| {
            // An owned source's offset is below the part's length; any other
            // source wraps past it.
            if let Some(cursor) = cursors.get_mut((u as usize).wrapping_sub(first)) {
                *cursor -= 1;
                targets[*cursor - base] = v;
                weights[*cursor - base] = w;
            }
        };
        for &(u, v, w) in edges.iter().rev() {
            place(u, v, w);
            if symmetric {
                place(v, u, w);
            }
        }
    });
}

/// Cuts `targets` and `weights` into the slot ranges of blocks of
/// [`SORT_BLOCK`] consecutive lists of the CSR `offsets` (with `offsets[0]`
/// at the start of both slices). Each block comes with its lists' bounds,
/// `SORT_BLOCK + 1` offsets (fewer in the last block).
pub(crate) fn list_blocks<'a>(
    offsets: &'a [usize],
    targets: &'a mut [NodeId],
    weights: &'a mut [Weight],
) -> Vec<(&'a [usize], &'a mut [NodeId], &'a mut [Weight])> {
    let n = offsets.len() - 1;
    let mut blocks = Vec::with_capacity(n.div_ceil(SORT_BLOCK));
    let (mut rest_targets, mut rest_weights) = (targets, weights);
    for first in (0..n).step_by(SORT_BLOCK) {
        let bounds = &offsets[first..=(first + SORT_BLOCK).min(n)];
        let len = bounds[bounds.len() - 1] - bounds[0];
        let (block_targets, tail_targets) = std::mem::take(&mut rest_targets).split_at_mut(len);
        let (block_weights, tail_weights) = std::mem::take(&mut rest_weights).split_at_mut(len);
        (rest_targets, rest_weights) = (tail_targets, tail_weights);
        blocks.push((bounds, block_targets, block_weights));
    }
    blocks
}

/// Sorts every adjacency list with [`sort_adjacency`], in parallel over
/// blocks of [`SORT_BLOCK`] nodes, and returns the number of arcs dropped.
fn sort_lists(offsets: &[usize], targets: &mut [NodeId], weights: &mut [Weight]) -> usize {
    list_blocks(offsets, targets, weights)
        .into_par_iter()
        .map(|(bounds, targets, weights)| {
            let base = bounds[0];
            let mut scratch = Vec::new();
            bounds
                .windows(2)
                .map(|list| {
                    let range = list[0] - base..list[1] - base;
                    sort_adjacency(&mut targets[range.clone()], &mut weights[range], &mut scratch)
                })
                .sum::<usize>()
        })
        .sum()
}

/// Sorts one adjacency list by target and keeps the lightest arc of each
/// target at the front. The dropped arcs are left at the back with weight 0,
/// which no kept arc has; returns how many there are. `scratch` is reused
/// across calls.
pub(crate) fn sort_adjacency(
    targets: &mut [NodeId],
    weights: &mut [Weight],
    scratch: &mut Vec<u64>,
) -> usize {
    if targets.windows(2).all(|pair| pair[0] < pair[1]) {
        return 0;
    }
    // One `u64` key per arc orders by target, then by weight.
    scratch.clear();
    scratch.extend(
        targets.iter().zip(weights.iter()).map(|(&v, &w)| (u64::from(v) << 32) | u64::from(w)),
    );
    scratch.sort_unstable();
    scratch.dedup_by_key(|key| *key >> 32);
    for (i, &key) in scratch.iter().enumerate() {
        targets[i] = (key >> 32) as NodeId;
        weights[i] = key as Weight;
    }
    weights[scratch.len()..].fill(0);
    targets.len() - scratch.len()
}

/// Drops the arcs [`sort_adjacency`] marked with weight 0, moving every list
/// down to close the gaps and rewriting `offsets` to match.
fn compact(offsets: &mut [usize], targets: &mut Vec<NodeId>, weights: &mut Vec<Weight>) {
    let mut kept = 0;
    let mut start = 0;
    for u in 0..offsets.len() - 1 {
        let end = offsets[u + 1];
        for i in start..end {
            if weights[i] != 0 {
                targets[kept] = targets[i];
                weights[kept] = weights[i];
                kept += 1;
            }
        }
        offsets[u + 1] = kept;
        start = end;
    }
    targets.truncate(kept);
    targets.shrink_to_fit();
    weights.truncate(kept);
    weights.shrink_to_fit();
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
        assert!(g.edge_weight(1, 1).is_none());
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

    #[test]
    fn scatter_leaves_every_list_in_input_order_at_any_part_count() {
        // Above the one-part floor, every part count must hand each list its
        // arcs in input order, which lets an already-sorted list skip its
        // sort. The sort would hide a wrong order, so the scatter is checked
        // on its own; unique weights identify each arc.
        let n = 300;
        let edges: Vec<(NodeId, NodeId, Weight)> =
            (0..40_000u32).map(|i| (i * 7 % 299, (i * 13 % 299) + 1, i + 1)).collect();
        for symmetric in [false, true] {
            let mut expected = vec![Vec::new(); n];
            for &(u, v, w) in &edges {
                expected[u as usize].push((v, w));
                if symmetric {
                    expected[v as usize].push((u, w));
                }
            }
            let mut ends = Vec::with_capacity(n);
            let mut end = 0;
            for list in &expected {
                end += list.len();
                ends.push(end);
            }
            for threads in [1, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let (mut cursors, mut targets, mut weights) =
                    (ends.clone(), vec![0; end], vec![0; end]);
                pool.install(|| {
                    scatter(&edges, symmetric, &mut cursors, &mut targets, &mut weights)
                });
                for (u, list) in expected.iter().enumerate() {
                    let range = cursors[u]..ends[u];
                    let placed: Vec<_> = targets[range.clone()]
                        .iter()
                        .copied()
                        .zip(weights[range].iter().copied())
                        .collect();
                    assert_eq!(&placed, list, "list {u}, symmetric {symmetric}, {threads} threads");
                }
            }
        }
    }
}
