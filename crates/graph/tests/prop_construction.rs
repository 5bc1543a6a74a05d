//! Graph construction against a reference canonicalization.
//!
//! `GraphBuilder::build` places arcs with a counting sort and sorts each
//! adjacency list on its own; `induced_subgraph` and `component_subgraphs`
//! copy the lists of an already-canonical graph. Every one of them must
//! produce exactly the CSR arrays of the reference below: a
//! `BTreeMap<(u, v), min w>` over the arcs, written here and sharing no code
//! with the builder. Inputs carry parallel edges with different weights, self
//! loops, zero weights, ids at or past the declared node count, isolated
//! nodes, and empty and edgeless graphs. Half of the cases spread their ids
//! over several of the builder's 4,096-node sort blocks. Every case runs at
//! 1, 2, 3 and 4 threads.
//!
//! The builder scatters large inputs in one part per thread, each owning a
//! range of source nodes, and extraction copies blocks of 4,096 members in
//! parallel. The drawn cases are too small for either, so fixed cases with
//! tens of thousands of arcs cover them: one hub that every arc leaves (the
//! other parts own no arc), fewer nodes than threads (parts own no node),
//! and node lists that span several extraction blocks.
//!
//! A graph records the minimum, maximum and sum of its arc weights when it
//! is built, so its weight statistics are `O(1)` reads. On every dense
//! construction path — the ones above, `from_csr`, `reversed`,
//! `map_weights`, `cartesian_product`, decompression, and v1, v2 buffered
//! and v2 mmap snapshot loads — they must equal a scan of `weights()`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use cldiam_graph::io::binary::parse_binary;
use cldiam_graph::io::snapshot::write_snapshot;
use cldiam_graph::ops::{cartesian_product, induced_subgraph, map_weights};
use cldiam_graph::{
    component_subgraphs, connected_components, largest_component, parse_snapshot_bytes,
    read_snapshot_file, write_snapshot_file, CompressedGraph, Graph, GraphBuilder, NodeId,
    SnapshotGraph, SnapshotOptions, SnapshotPayload, Weight,
};

#[path = "support/v1_image.rs"]
mod v1_image;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// Gap between consecutive ids of a spread case: the 16 ids then reach node
/// 22,485, in the sixth sort block.
const SPREAD: u32 = 1_499;

fn with_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(op)
}

/// The canonical arc set of a graph: node count, direction, and the lightest
/// weight of every arc `u → v` (both directions of an undirected edge).
#[derive(Clone, Debug)]
struct Reference {
    num_nodes: usize,
    directed: bool,
    arcs: BTreeMap<(NodeId, NodeId), Weight>,
}

impl Reference {
    /// Canonicalizes `(u, v, w, both)` insertions the way `GraphBuilder`
    /// documents: a self loop is dropped without growing the node set, a
    /// zero weight counts as 1, and `both` (or an undirected graph) adds the
    /// two arcs of an edge.
    fn canonicalize(
        num_nodes: usize,
        directed: bool,
        edges: &[(NodeId, NodeId, Weight, bool)],
    ) -> Self {
        let mut reference = Reference { num_nodes, directed, arcs: BTreeMap::new() };
        for &(u, v, w, both) in edges {
            if u == v {
                continue;
            }
            reference.num_nodes = reference.num_nodes.max(u.max(v) as usize + 1);
            reference.insert(u, v, w.max(1));
            if both || !directed {
                reference.insert(v, u, w.max(1));
            }
        }
        reference
    }

    fn insert(&mut self, u: NodeId, v: NodeId, w: Weight) {
        let slot = self.arcs.entry((u, v)).or_insert(w);
        *slot = (*slot).min(w);
    }

    /// The subgraph on `nodes`, node `nodes[i]` becoming node `i`.
    fn induced(&self, nodes: &[NodeId]) -> Reference {
        let position: BTreeMap<NodeId, NodeId> =
            nodes.iter().enumerate().map(|(i, &u)| (u, i as NodeId)).collect();
        let arcs = self
            .arcs
            .iter()
            .filter_map(|(&(u, v), &w)| Some(((*position.get(&u)?, *position.get(&v)?), w)))
            .collect();
        Reference { num_nodes: nodes.len(), directed: self.directed, arcs }
    }

    /// Weakly connected components, each ascending, ordered by smallest
    /// member.
    fn components(&self) -> Vec<Vec<NodeId>> {
        let mut adjacent = vec![Vec::new(); self.num_nodes];
        for &(u, v) in self.arcs.keys() {
            adjacent[u as usize].push(v);
            adjacent[v as usize].push(u);
        }
        let mut seen = vec![false; self.num_nodes];
        let mut components = Vec::new();
        for first in 0..self.num_nodes {
            if seen[first] {
                continue;
            }
            seen[first] = true;
            let mut members = vec![first as NodeId];
            let mut next = 0;
            while next < members.len() {
                for &v in &adjacent[members[next] as usize] {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        members.push(v);
                    }
                }
                next += 1;
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }

    /// Asserts that `graph` stores exactly this arc set, forward and, when
    /// directed, reverse.
    fn assert_matches(&self, graph: &Graph, what: &str) {
        let mut offsets = vec![0usize; self.num_nodes + 1];
        for &(u, _) in self.arcs.keys() {
            offsets[u as usize + 1] += 1;
        }
        for u in 0..self.num_nodes {
            offsets[u + 1] += offsets[u];
        }
        let targets: Vec<NodeId> = self.arcs.keys().map(|&(_, v)| v).collect();
        let weights: Vec<Weight> = self.arcs.values().copied().collect();
        assert_eq!(graph.num_nodes(), self.num_nodes, "{what}: node count");
        assert_eq!(graph.is_directed(), self.directed, "{what}: direction");
        assert_eq!(graph.offsets(), &offsets[..], "{what}: offsets");
        assert_eq!(graph.targets(), &targets[..], "{what}: targets");
        assert_eq!(graph.weights(), &weights[..], "{what}: weights");
        if self.directed {
            let mut incoming = vec![Vec::new(); self.num_nodes];
            for (&(u, v), &w) in &self.arcs {
                incoming[v as usize].push((u, w));
            }
            for (v, expected) in incoming.iter().enumerate() {
                let actual: Vec<_> = graph.in_neighbors(v as NodeId).collect();
                assert_eq!(&actual, expected, "{what}: in-neighbors of {v}");
            }
        }
        assert_weight_stats(graph, what);
    }
}

/// Asserts that the weight statistics `graph` recorded when it was built
/// equal a scan of its weight array.
fn assert_weight_stats(graph: &Graph, what: &str) {
    let weights = graph.weights();
    let (arcs, sum) = (weights.len() as u64, weights.iter().map(|&w| u64::from(w)).sum::<u64>());
    assert_eq!(graph.min_weight(), weights.iter().copied().min(), "{what}: min_weight");
    assert_eq!(graph.max_weight(), weights.iter().copied().max(), "{what}: max_weight");
    let avg = (arcs > 0).then(|| (sum / arcs).max(1) as Weight);
    assert_eq!(graph.avg_weight(), avg, "{what}: avg_weight");
    let total = if graph.is_directed() { sum } else { sum / 2 };
    assert_eq!(graph.total_weight(), total, "{what}: total_weight");
}

/// The dense construction paths [`Reference::assert_matches`] does not see:
/// rebuilding from the CSR arrays and reversing, and on undirected graphs
/// reweighting, a product with a path, decompression, and the three
/// snapshot loads.
fn check_weight_stats_on_the_other_paths(input: &Input) {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let graph = build(input);
    let arrays = (graph.offsets().to_vec(), graph.targets().to_vec(), graph.weights().to_vec());
    assert_weight_stats(&graph.reversed(), "reversed");
    if graph.is_directed() {
        let (offsets, targets, weights) = arrays;
        let rebuilt = Graph::from_directed_csr(offsets, targets, weights);
        assert_weight_stats(&rebuilt, "from_directed_csr");
        return;
    }
    assert_weight_stats(&Graph::from_csr(arrays.0, arrays.1, arrays.2), "from_csr");
    let reweighted = map_weights(&graph, |u, v, w| w * 3 + (u ^ v) % 4);
    assert_weight_stats(&reweighted, "map_weights");
    let path = Graph::from_edges(3, &[(0, 1, 9), (1, 2, 1)]);
    assert_weight_stats(&cartesian_product(&graph, &path), "cartesian_product");
    assert_weight_stats(&CompressedGraph::from_graph(&graph, 2).to_graph(), "to_graph");

    let v1 = v1_image::v1_image(graph.offsets(), graph.targets(), graph.weights());
    assert_weight_stats(&parse_binary(&v1).expect("v1 load"), "v1 load");
    let payload = SnapshotPayload::Dense(&graph);
    let mut v2 = Vec::new();
    write_snapshot(&payload, &mut v2).expect("in-memory v2 write");
    let buffered = parse_snapshot_bytes(&v2).expect("v2 buffered load").graph;
    let path = std::env::temp_dir().join(format!(
        "cldiam-weight-stats-{}-{}.cldg",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    write_snapshot_file(&payload, &path).expect("v2 file write");
    let mapped = read_snapshot_file(&path, &SnapshotOptions { mmap: true, verify: false })
        .expect("v2 mmap load")
        .graph;
    std::fs::remove_file(&path).expect("remove the snapshot file");
    for (loaded, what) in [(buffered, "v2 buffered load"), (mapped, "v2 mmap load")] {
        match loaded {
            SnapshotGraph::Dense(g) => assert_weight_stats(&g, what),
            SnapshotGraph::Compressed(_) => panic!("{what}: a dense snapshot loaded compressed"),
        }
    }
}

/// A builder input: declared node count, direction, and insertions
/// `(u, v, w, both)`, where `both` sends a directed insertion through
/// `add_edge` instead of `add_arc`.
type Input = (usize, bool, Vec<(NodeId, NodeId, Weight, bool)>);

/// Ids are drawn from `0..declared + 4`, so some reach past the declared
/// node count; 16 ids and up to 48 insertions give parallel edges often,
/// weights `0..=6` give zero weights and ties, and a declared count above
/// every drawn id leaves isolated nodes.
fn input() -> impl Strategy<Value = Input> {
    (0usize..=12, 0u32..2, 0u32..2, 0usize..=48).prop_flat_map(|(declared, directed, spread, m)| {
        let ids = declared as u32 + 4;
        let stride = if spread == 1 { SPREAD } else { 1 };
        collection::vec((0..ids, 0..ids, 0u32..=6, 0u32..2), m).prop_map(move |raw| {
            let edges = raw
                .into_iter()
                .map(|(u, v, w, both)| (u * stride, v * stride, w, both == 1))
                .collect();
            (declared * stride as usize, directed == 1, edges)
        })
    })
}

fn build((declared, directed, edges): &Input) -> Graph {
    let mut builder = if *directed {
        GraphBuilder::new_directed(*declared)
    } else {
        GraphBuilder::new(*declared)
    };
    for &(u, v, w, both) in edges {
        if both {
            builder.add_edge(u, v, w);
        } else {
            builder.add_arc(u, v, w);
        }
    }
    builder.build()
}

/// SplitMix64: a per-node draw from the case's `seed`.
fn mix(seed: u64, u: NodeId) -> u64 {
    let mut z = seed ^ u64::from(u).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// About two thirds of the nodes, ascending, and the same nodes shuffled.
fn node_lists(num_nodes: usize, seed: u64) -> (Vec<NodeId>, Vec<NodeId>) {
    let ascending: Vec<NodeId> =
        (0..num_nodes as NodeId).filter(|&u| !mix(seed, u).is_multiple_of(3)).collect();
    let mut shuffled = ascending.clone();
    shuffled.sort_unstable_by_key(|&u| mix(seed, u) >> 2);
    (ascending, shuffled)
}

fn check_build(input: &Input) {
    let reference = Reference::canonicalize(input.0, input.1, &input.2);
    for threads in THREAD_COUNTS {
        let graph = with_pool(threads, || build(input));
        reference.assert_matches(&graph, &format!("build at {threads} threads"));
    }
}

fn check_induced_subgraph(input: &Input, seed: u64) {
    let reference = Reference::canonicalize(input.0, input.1, &input.2);
    let graph = build(input);
    let (ascending, shuffled) = node_lists(graph.num_nodes(), seed);
    for nodes in [&ascending, &shuffled] {
        let expected = reference.induced(nodes);
        for threads in THREAD_COUNTS {
            let sub = with_pool(threads, || induced_subgraph(&graph, nodes));
            expected.assert_matches(&sub, &format!("induced subgraph at {threads} threads"));
        }
    }
}

/// `component_subgraphs` takes undirected graphs only, so the input's
/// direction is ignored.
fn check_component_subgraphs(input: &Input) {
    let undirected = (input.0, false, input.2.clone());
    let reference = Reference::canonicalize(undirected.0, false, &undirected.2);
    let graph = build(&undirected);
    let expected: Vec<_> =
        reference.components().into_iter().filter(|members| members.len() >= 2).collect();
    for threads in THREAD_COUNTS {
        let parts =
            with_pool(threads, || component_subgraphs(&graph, &connected_components(&graph)));
        assert_eq!(parts.len(), expected.len(), "component count at {threads} threads");
        for ((sub, mapping), members) in parts.iter().zip(&expected) {
            assert_eq!(mapping, members, "component members at {threads} threads");
            reference
                .induced(members)
                .assert_matches(sub, &format!("component subgraph at {threads} threads"));
        }
    }
}

fn check_largest_component(input: &Input) {
    let reference = Reference::canonicalize(input.0, input.1, &input.2);
    let graph = build(input);
    // The largest component; ties go to the one with the smallest member.
    let mut best: Vec<NodeId> = Vec::new();
    for members in reference.components() {
        if members.len() > best.len() {
            best = members;
        }
    }
    for threads in THREAD_COUNTS {
        let (sub, mapping) = with_pool(threads, || largest_component(&graph));
        assert_eq!(mapping, best, "largest component members at {threads} threads");
        reference
            .induced(&best)
            .assert_matches(&sub, &format!("largest component at {threads} threads"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn builder_matches_the_reference(input in input()) {
        check_build(&input);
    }

    #[test]
    fn induced_subgraph_matches_the_reference(input in input(), seed in 0u64..u64::MAX) {
        check_induced_subgraph(&input, seed);
    }

    #[test]
    fn component_subgraphs_match_the_reference(input in input()) {
        check_component_subgraphs(&input);
    }

    #[test]
    fn largest_component_matches_the_reference(input in input()) {
        check_largest_component(&input);
    }

    #[test]
    fn every_dense_construction_path_records_its_weight_statistics(input in input()) {
        check_weight_stats_on_the_other_paths(&input);
    }
}

/// Inputs the strategy draws too rarely to rely on: no nodes at all, a
/// self loop alone (which adds no node), and nodes without edges, each
/// undirected and directed.
#[test]
fn empty_and_edgeless_graphs_match_the_reference() {
    for directed in [false, true] {
        for input in
            [(0, directed, vec![]), (0, directed, vec![(3, 3, 5, false)]), (5, directed, vec![])]
        {
            check_build(&input);
            check_induced_subgraph(&input, 7);
            check_component_subgraphs(&input);
            check_largest_component(&input);
            check_weight_stats_on_the_other_paths(&input);
        }
    }
}

fn check_all(input: &Input) {
    check_build(input);
    check_induced_subgraph(input, 11);
    check_component_subgraphs(input);
    check_largest_component(input);
}

/// 45,000 arcs leave hub node 7,777 of 12,000 for targets that repeat with
/// other weights, so the parts before and after the hub's own part are
/// empty; undirected, every edge touches the hub instead.
#[test]
fn a_hub_that_every_arc_leaves_matches_the_reference() {
    const HUB: NodeId = 7_777;
    let edges: Vec<_> = (0..45_000u32).map(|i| (HUB, i * 7_919 % 12_000, i % 7, false)).collect();
    for directed in [true, false] {
        check_all(&(12_000, directed, edges.clone()));
    }
}

/// Two nodes joined by 40,000 parallel edges and arcs of both directions:
/// fewer nodes than threads, so some parts own no node.
#[test]
fn fewer_nodes_than_threads_match_the_reference() {
    let edges: Vec<_> = (0..40_000u32).map(|i| (i % 2, 1 - i % 2, i % 11, i % 3 == 0)).collect();
    for directed in [true, false] {
        check_all(&(2, directed, edges.clone()));
    }
}

/// A ring of 10,000 nodes with chords: its largest component and its
/// induced subgraphs (about 6,700 members) span several 4,096-member
/// extraction blocks.
#[test]
fn node_lists_over_several_blocks_match_the_reference() {
    const N: u32 = 10_000;
    let edges: Vec<_> = (0..N)
        .flat_map(|u| [(u, (u + 1) % N, u % 5, false), (u, (u * 97 + 13) % N, u % 9, u % 4 == 0)])
        .collect();
    for directed in [true, false] {
        check_all(&(N as usize, directed, edges.clone()));
    }
}
