//! Property-based equivalence of the Δ-stepping implementations and of the
//! batched multi-source drivers.
//!
//! The acceptance bar for the bucket-array engine: on random weighted graphs
//! — connected, disconnected, and with heavy weights driving the engine
//! through its overflow path — the production engine
//! ([`cldiam_sssp::delta_stepping()`]) and Dijkstra must agree on every
//! distance, and the engine's full outcome (distances, phases, relaxation
//! requests and distinct improved nodes per phase) must equal the
//! `BTreeMap`-bucketed implementation kept below as
//! `delta_stepping_reference`, on thread pools of 1, 2 and 8 workers, with
//! and without scratch reuse. Those graphs are small enough for every phase
//! to scan as one chunk, so road, R-MAT and hub graphs whose phases split
//! into many chunks are pinned the same way at 1, 2, 3 and 8 threads. The
//! batched eccentricity driver is pinned against the sequential per-source
//! Dijkstra loop under the same pools.
//!
//! The kernel behind every exact SSSP, [`DijkstraScratch`], is pinned
//! against the binary-heap [`dijkstra`] with one scratch reused across a
//! sequence of graphs that grows and shrinks: every distance, the
//! eccentricity, the farthest node (largest id among equally far nodes),
//! the reach count, both directions of a directed run, and the node
//! sequence of a sweep chain. A run settles whole weight bands on a ring
//! when the graph's weights fit it and falls back to a radix heap
//! otherwise, so the sequences mix graphs on both sides of that choice.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use cldiam_gen::GraphSpec;
use cldiam_graph::{
    largest_component, CompressedGraph, Dist, Graph, GraphBuilder, NodeId, Weight, INFINITY,
};
use cldiam_sssp::{
    batched_eccentricities, delta_stepping, delta_stepping_with_scratch, dijkstra,
    sweep_chain_lower_bound, DeltaSteppingOutcome, DijkstraScratch, SsspDirection, SsspScratch,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn with_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(op)
}

/// A random weighted graph of 2..=18 nodes. `spine` adds a spanning path
/// (connected); without it the random extra edges usually leave several
/// components, exercising unreachable nodes. `max_w` stretches the weight
/// range: small weights keep everything within one ring lap, heavy weights
/// under a small Δ force relaxations through the engine's overflow list.
fn graph_strategy(spine: bool, max_w: Weight) -> impl Strategy<Value = Graph> {
    (2usize..=18).prop_flat_map(move |n| {
        let path_weights = proptest::collection::vec(1..=max_w, if spine { n - 1 } else { 0 });
        let extra_edges =
            proptest::collection::vec((0..n as u32, 0..n as u32, 1..=max_w), 0..(2 * n));
        (path_weights, extra_edges).prop_map(move |(pw, extra)| {
            let mut builder = GraphBuilder::new(n);
            for (i, w) in pw.iter().enumerate() {
                builder.add_edge(i as u32, (i + 1) as u32, *w);
            }
            for (u, v, w) in extra {
                if u != v {
                    builder.add_edge(u, v, w);
                }
            }
            builder.build()
        })
    })
}

/// Union of the three graph families the engine must handle: connected with
/// light weights, typically disconnected, and connected with heavy weights.
fn any_graph() -> impl Strategy<Value = Graph> {
    (0usize..3).prop_flat_map(|family| {
        let (spine, max_w) = match family {
            0 => (true, 30),
            1 => (false, 30),
            _ => (true, 4_000_000),
        };
        graph_strategy(spine, max_w)
    })
}

/// The engine's cap on its bucket ring: a relaxation that jumps this many
/// buckets or more ahead of the current one waits in the overflow list.
const RING_CAP: u64 = 1024;

/// The `BTreeMap`-bucketed Δ-stepping that the bucket-array engine replaced,
/// kept as its sequential reference. Returns the outcome the engine must
/// reproduce bit for bit (distances, phases, requests and distinct improved
/// nodes per phase) and the widest frontier any phase relaxed.
///
/// Like the engine, it queues each improved node once per phase, at its
/// post-phase bucket, and relaxes a node as often as it is queued in the
/// bucket being settled. It also models the engine's ring horizon, because
/// that decides how often a node is queued: an entry `RING_CAP` or more
/// buckets ahead waits in a far list, and is re-queued at its node's bucket
/// of the moment (or dropped, if that bucket is settled) when the horizon
/// reaches the smallest bucket it was queued at.
fn delta_stepping_reference(
    graph: &Graph,
    source: NodeId,
    delta: Weight,
) -> (DeltaSteppingOutcome, usize) {
    let delta_dist = Dist::from(delta);
    let horizon = (Dist::from(graph.max_weight().unwrap_or(1)) / delta_dist + 2).min(RING_CAP);
    let mut state = Reference {
        graph,
        delta_dist,
        dist: vec![INFINITY; graph.num_nodes()],
        buckets: BTreeMap::new(),
        far: Vec::new(),
        far_min: u64::MAX,
        widest: 0,
        outcome: DeltaSteppingOutcome {
            source,
            delta,
            dist: Vec::new(),
            phases: 0,
            relaxations: 0,
            updates: 0,
        },
    };
    state.dist[source as usize] = 0;
    state.buckets.entry(0).or_default().push(source);

    // Marks nodes already recorded in the current bucket's settled set, so the
    // heavy phase relaxes each of them exactly once.
    let mut in_settled = vec![false; graph.num_nodes()];
    // All buckets below `base` are settled.
    let mut base = 0;
    loop {
        if state.far_min < base + horizon {
            state.pull_far(base, horizon);
        }
        let bucket_idx = match state.buckets.keys().next() {
            Some(&b) => b,
            None if state.far.is_empty() => break,
            None => {
                base = state.far_min;
                state.pull_far(base, horizon);
                continue;
            }
        };
        let mut settled: Vec<NodeId> = Vec::new();
        // Light phases: repeat until bucket `bucket_idx` stops receiving nodes.
        while let Some(current) = state.buckets.remove(&bucket_idx) {
            // Lazy deletion: skip entries whose distance left this bucket.
            let active: Vec<NodeId> = current
                .into_iter()
                .filter(|&v| state.dist[v as usize] / delta_dist == bucket_idx)
                .collect();
            if active.is_empty() {
                break;
            }
            for &u in &active {
                if !in_settled[u as usize] {
                    in_settled[u as usize] = true;
                    settled.push(u);
                }
            }
            state.phase(&active, false, bucket_idx + horizon);
        }
        // Heavy phase: relax heavy edges of every node settled in the bucket.
        if !settled.is_empty() {
            state.phase(&settled, true, bucket_idx + 1 + horizon);
        }
        for u in settled {
            in_settled[u as usize] = false;
        }
        base = bucket_idx + 1;
    }
    state.outcome.dist = state.dist;
    (state.outcome, state.widest)
}

/// The state of a [`delta_stepping_reference`] run.
struct Reference<'g> {
    graph: &'g Graph,
    delta_dist: Dist,
    dist: Vec<Dist>,
    buckets: BTreeMap<u64, Vec<NodeId>>,
    /// Entries queued beyond the horizon, and a lower bound on their buckets.
    far: Vec<NodeId>,
    far_min: u64,
    widest: usize,
    outcome: DeltaSteppingOutcome,
}

impl Reference<'_> {
    /// One phase: relaxes the light or heavy arcs of `nodes` from the
    /// pre-phase distances, then queues every improved node once at its
    /// post-phase bucket, or in the far list from bucket `limit` on.
    fn phase(&mut self, nodes: &[NodeId], heavy: bool, limit: u64) {
        let delta_dist = self.delta_dist;
        let requests: Vec<(NodeId, Dist)> = nodes
            .iter()
            .flat_map(|&u| {
                let du = self.dist[u as usize];
                self.graph
                    .neighbors(u)
                    .filter(move |&(_, w)| (Dist::from(w) > delta_dist) == heavy)
                    .map(move |(v, w)| (v, du + Dist::from(w)))
            })
            .collect();
        let mut improved = BTreeSet::new();
        for &(v, d) in &requests {
            if d < self.dist[v as usize] {
                self.dist[v as usize] = d;
                improved.insert(v);
            }
        }
        for &v in &improved {
            let b = self.dist[v as usize] / delta_dist;
            if b < limit {
                self.buckets.entry(b).or_default().push(v);
            } else {
                self.far.push(v);
                self.far_min = self.far_min.min(b);
            }
        }
        self.widest = self.widest.max(nodes.len());
        self.outcome.phases += 1;
        self.outcome.relaxations += requests.len() as u64;
        self.outcome.updates += improved.len() as u64;
    }

    /// Re-queues the far entries whose node's bucket now lies in
    /// `[base, base + horizon)`, and drops those whose bucket is settled.
    fn pull_far(&mut self, base: u64, horizon: u64) {
        let mut far_min = u64::MAX;
        let delta_dist = self.delta_dist;
        let (dist, buckets) = (&self.dist, &mut self.buckets);
        self.far.retain(|&v| {
            let b = dist[v as usize] / delta_dist;
            if b < base {
                false
            } else if b < base + horizon {
                buckets.entry(b).or_default().push(v);
                false
            } else {
                far_min = far_min.min(b);
                true
            }
        });
        self.far_min = far_min;
    }
}

/// Exercises one (graph, source, delta) case, asserting the
/// cross-implementation equalities, and returns the engine outcome.
fn check_case(
    graph: &Graph,
    source: NodeId,
    delta: Weight,
    scratch: &mut SsspScratch,
) -> DeltaSteppingOutcome {
    let expected = dijkstra(graph, source);
    let engine = delta_stepping(graph, source, delta, None);
    let reused = delta_stepping_with_scratch(graph, source, delta, None, scratch);
    let (reference, _) = delta_stepping_reference(graph, source, delta);
    assert_eq!(engine.dist, expected.dist, "engine vs dijkstra (source {source}, delta {delta})");
    assert_eq!(engine, reference, "engine vs reference (source {source}, delta {delta})");
    assert_eq!(reused, engine, "scratch reuse changed the outcome");
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bucket_engine_matches_reference_and_dijkstra_on_every_pool(
        graph in any_graph(),
        source_sel in 0usize..18,
        delta_sel in 0usize..4,
    ) {
        let n = graph.num_nodes();
        let source = (source_sel % n) as NodeId;
        let avg = graph.avg_weight().unwrap_or(1).max(1);
        let delta = [1, avg, avg.saturating_mul(8).max(1), Weight::MAX][delta_sel].max(1);

        // One scratch reused across every pool: reuse must never leak state.
        let mut scratch = SsspScratch::new();
        let reference_outcome =
            with_pool(THREAD_COUNTS[0], || check_case(&graph, source, delta, &mut scratch));
        for &threads in &THREAD_COUNTS[1..] {
            let outcome =
                with_pool(threads, || check_case(&graph, source, delta, &mut scratch));
            // Full outcome — distances and all three counters — must be
            // bit-identical across pool sizes.
            prop_assert_eq!(&outcome, &reference_outcome, "diverged at {} threads", threads);
        }
    }

    #[test]
    fn batched_eccentricities_match_the_sequential_loop_on_every_pool(
        graph in any_graph(),
    ) {
        let sources: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
        let sequential: Vec<Dist> =
            sources.iter().map(|&s| dijkstra(&graph, s).eccentricity()).collect();
        for &threads in &THREAD_COUNTS {
            let batched = with_pool(threads, || batched_eccentricities(&graph, &sources));
            prop_assert_eq!(&batched, &sequential, "diverged at {} threads", threads);
        }
    }
}

/// A hub joined to 600 spokes, each spoke to the next around a cycle and to
/// a pendant node: the hub's first phase improves 600 nodes at once.
fn hub_graph() -> Graph {
    const SPOKES: u32 = 600;
    let mut builder = GraphBuilder::new(1 + 2 * SPOKES as usize);
    for i in 1..=SPOKES {
        builder.add_edge(0, i, 1 + i * 7_919 % 1_000);
        builder.add_edge(i, i % SPOKES + 1, 1 + i * 1_031 % 3_000);
        builder.add_edge(i, SPOKES + i, 1 + i * 613 % 500);
    }
    builder.build()
}

/// The engine against the reference on graphs whose phases span many
/// chunks of its parallel scan (`ChunkBuffers::scan` cuts a phase of `len`
/// nodes into at most `len / 32` chunks, so every graph of the property
/// above runs one): a generated road lattice's largest component, a small
/// R-MAT graph and a hub, with Δ from 1 (the overflow path) to
/// `Weight::MAX` (one bucket), on pools of 1, 2, 3 and 8 threads with one
/// scratch reused throughout.
#[test]
fn multi_chunk_phases_match_the_reference_on_every_pool() {
    let road = largest_component(&GraphSpec::RoadNetwork { rows: 60, cols: 60 }.generate(1)).0;
    let rmat = largest_component(&GraphSpec::RMat { scale: 10 }.generate(1)).0;
    let hub = hub_graph();
    let mut scratch = SsspScratch::new();
    for (name, graph) in [("road", &road), ("rmat", &rmat), ("hub", &hub)] {
        let avg = graph.avg_weight().unwrap_or(1).max(1);
        let mut widest = 0;
        for delta in [1, avg, avg.saturating_mul(8), Weight::MAX] {
            let (reference, phase_widest) = delta_stepping_reference(graph, 0, delta);
            assert_eq!(reference.dist, dijkstra(graph, 0).dist, "{name}, delta {delta}");
            widest = widest.max(phase_widest);
            for threads in [1, 2, 3, 8] {
                let outcome = with_pool(threads, || {
                    delta_stepping_with_scratch(graph, 0, delta, None, &mut scratch)
                });
                assert_eq!(outcome, reference, "{name}, delta {delta}, {threads} threads");
            }
        }
        assert!(widest > 256, "{name}: the widest phase relaxed only {widest} nodes");
    }
}

/// The case the reference's far list exists for. With Δ = 2 every arc but
/// `v–d` is heavy and the ring is capped at 1,024 buckets. The source's heavy
/// phase queues `v` at bucket 2,000, beyond the horizon; `a`'s heavy phase
/// lowers it to bucket 1,500, inside it. Settling `c` at bucket 1,000 brings
/// bucket 2,000 inside the horizon, so the far entry is re-queued at `v`'s
/// bucket of the moment, next to the fresh entry, and `v`'s light arc is
/// relaxed twice: 11 requests where one entry per bucket would make 10.
#[test]
fn a_far_entry_re_queued_beside_a_fresh_one_is_relaxed_twice() {
    let (s, a, c, v, d) = (0, 1, 2, 3, 4);
    let graph = Graph::from_edges(
        5,
        &[(s, a, 1_000), (s, c, 2_000), (s, v, 4_000), (a, v, 2_000), (v, d, 1)],
    );
    let (reference, _) = delta_stepping_reference(&graph, s, 2);
    assert_eq!((reference.phases, reference.relaxations, reference.updates), (9, 11, 5));
    for threads in [1, 2] {
        assert_eq!(with_pool(threads, || delta_stepping(&graph, s, 2, None)), reference);
    }
}

/// Weights in `lo..=hi`, each end drawn a quarter of the time so that the
/// graph's lightest and heaviest arcs often sit exactly on them.
fn weight_in(lo: Weight, hi: Weight) -> impl Strategy<Value = Weight> {
    (0usize..4, lo..=hi).prop_map(move |(end, w)| [lo, hi, w, w][end])
}

/// The weight range `[lo, hi]` of the band family. `lo` is `2^k − 1`, `2^k`
/// or `2^k + 1` for `k` in `1..=31`, and with `s = ⌊log₂ lo⌋`, `hi >> s` is
/// 1 to 3, so that queued nodes often share a band, or 61 to 64, on both
/// sides of the ring's limit of 62 (capped at `Weight::MAX`). A band one bit
/// too wide holds nodes that a later pop from the same band still improves,
/// and a settled node's stale distance then shows in the eccentricity; a
/// ring one band too short wraps onto the band being popped.
fn band_limit_range((k, near, span, jitter): (u32, usize, usize, u64)) -> (Weight, Weight) {
    let lo = [(1u64 << k) - 1, 1 << k, (1 << k) + 1][near];
    let shift = lo.ilog2();
    let bands = [1, 2, 3, 61, 62, 63, 64][span];
    let hi = ((bands << shift) | (jitter & ((1 << shift) - 1))).max(lo);
    (lo as Weight, hi.min(u64::from(Weight::MAX)) as Weight)
}

/// A random graph of 1..=40 nodes for the kernel suite. Unit weights make
/// many nodes tie on distance, so the farthest-node tie-break is exercised;
/// the widest family draws weights up to `Weight::MAX`, and the band family
/// straddles the ring's limit (see [`band_limit_range`]). Without `spine`
/// the graph is usually disconnected, and each extra edge may come with a
/// twin of another weight (a multi-edge the builder collapses to its
/// lightest).
fn kernel_graph(directed: bool) -> impl Strategy<Value = Graph> {
    let band_draw = (1u32..=31, 0usize..3, 0usize..7, 0u64..=u64::from(Weight::MAX));
    (1usize..=40, 0usize..5, 0usize..2, band_draw).prop_flat_map(move |(n, family, spine, band)| {
        let (lo, hi) = match family {
            4 => band_limit_range(band),
            _ => (1, [1, 30, 4_000_000, Weight::MAX][family]),
        };
        let path_weights =
            proptest::collection::vec(weight_in(lo, hi), if spine == 1 { n - 1 } else { 0 });
        // (u, v, w, (twin?, twin weight))
        let extra_edges = proptest::collection::vec(
            (0..n as u32, 0..n as u32, weight_in(lo, hi), (0usize..2, weight_in(lo, hi))),
            0..(3 * n),
        );
        (path_weights, extra_edges).prop_map(move |(pw, extra)| {
            let mut builder =
                if directed { GraphBuilder::new_directed(n) } else { GraphBuilder::new(n) };
            let mut add = |u: u32, v: u32, w: Weight| {
                if directed {
                    builder.add_arc(u, v, w);
                } else {
                    builder.add_edge(u, v, w);
                }
            };
            for (i, w) in pw.iter().enumerate() {
                add(i as u32, (i + 1) as u32, *w);
            }
            for (u, v, w, (twin, w2)) in extra {
                if u != v {
                    add(u, v, w);
                    if twin == 1 {
                        add(u, v, w2);
                    }
                }
            }
            builder.build()
        })
    })
}

/// Asserts that the scratch's last run from `source` equals `dijkstra` on
/// `reference` — distances, eccentricity, farthest node and reach count.
fn assert_scratch_matches(scratch: &DijkstraScratch, reference: &Graph, source: NodeId) {
    let expected = dijkstra(reference, source);
    for v in 0..reference.num_nodes() as NodeId {
        assert_eq!(scratch.distance(v), expected.dist[v as usize], "source {source} node {v}");
    }
    assert_eq!(scratch.eccentricity(), expected.eccentricity(), "source {source}");
    assert_eq!(scratch.farthest_node(), expected.farthest_node(), "source {source}");
    assert_eq!(scratch.reached(), expected.reached(), "source {source}");
}

/// The nodes a farthest-node sweep chain visits from `start`, stopping at
/// the first repeat, with each step supplied by `sweep` as
/// `(eccentricity, farthest node)`.
fn sweep_chain_nodes(
    start: NodeId,
    budget: usize,
    mut sweep: impl FnMut(NodeId) -> (Dist, NodeId),
) -> (Vec<NodeId>, Dist) {
    let mut visited = vec![start];
    let mut best = 0;
    while visited.len() <= budget {
        let (ecc, farthest) = sweep(*visited.last().expect("chain has a start"));
        best = best.max(ecc);
        if visited.contains(&farthest) {
            break;
        }
        visited.push(farthest);
    }
    visited.truncate(budget);
    (visited, best)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reused_scratch_matches_dijkstra_on_undirected_graphs(
        graphs in proptest::collection::vec(kernel_graph(false), 1..6),
    ) {
        let mut scratch = DijkstraScratch::new();
        // Forward then backward through the sequence: the scratch sees the
        // node count both grow and shrink.
        for graph in graphs.iter().chain(graphs.iter().rev()) {
            let compressed = CompressedGraph::from_graph(graph, 1);
            for source in 0..graph.num_nodes() as NodeId {
                scratch.run(graph, source);
                assert_scratch_matches(&scratch, graph, source);
                scratch.run(&compressed, source);
                assert_scratch_matches(&scratch, graph, source);
            }
        }
    }

    #[test]
    fn directed_runs_match_dijkstra_on_the_graph_and_its_reverse(
        graphs in proptest::collection::vec(kernel_graph(true), 1..6),
    ) {
        let mut scratch = DijkstraScratch::new();
        for graph in graphs.iter().chain(graphs.iter().rev()) {
            let reversed = graph.reversed();
            for source in 0..graph.num_nodes() as NodeId {
                scratch.run_directed(graph, source, SsspDirection::Forward);
                assert_scratch_matches(&scratch, graph, source);
                scratch.run_directed(graph, source, SsspDirection::Backward);
                assert_scratch_matches(&scratch, &reversed, source);
            }
        }
    }

    #[test]
    fn scratch_sweep_chains_visit_the_dijkstra_chain(
        graphs in proptest::collection::vec(kernel_graph(false), 1..6),
        budget in 1usize..8,
    ) {
        let mut scratch = DijkstraScratch::new();
        for graph in graphs.iter().chain(graphs.iter().rev()) {
            for start in 0..graph.num_nodes() as NodeId {
                let via_scratch = sweep_chain_nodes(start, budget, |u| {
                    scratch.run(graph, u);
                    (scratch.eccentricity(), scratch.farthest_node())
                });
                let via_dijkstra = sweep_chain_nodes(start, budget, |u| {
                    let sp = dijkstra(graph, u);
                    (sp.eccentricity(), sp.farthest_node())
                });
                prop_assert_eq!(&via_scratch, &via_dijkstra, "start {}", start);
                let (best, used) = sweep_chain_lower_bound(graph, start, budget, &mut scratch);
                prop_assert_eq!((best, used), (via_dijkstra.1, via_dijkstra.0.len()));
            }
        }
    }
}

/// The Δ tradeoff on a structured graph, pinned deterministically: on the
/// repo's standard mesh, phases are non-increasing along a doubling Δ grid
/// (toward Bellman-Ford). Kept out of the proptest because the monotonicity
/// is a property of well-behaved instances, not of adversarial ones — and
/// the work counters are *not* pointwise monotone (vanishing heavy phases
/// can shed a few duplicate relaxations between neighbouring grid points),
/// so only the endpoints are compared on work.
#[test]
fn phases_fall_along_a_doubling_delta_grid() {
    let graph = cldiam_gen::mesh(12, cldiam_gen::WeightModel::UniformUnit, 3);
    let mut scratch = SsspScratch::with_capacity(graph.num_nodes());
    let mut delta: Weight = 50_000;
    let mut first: Option<DeltaSteppingOutcome> = None;
    let mut previous_phases = u64::MAX;
    for _ in 0..8 {
        let outcome = delta_stepping_with_scratch(&graph, 0, delta, None, &mut scratch);
        assert!(
            outcome.phases <= previous_phases,
            "phases rose from {previous_phases} to {} at delta {delta}",
            outcome.phases
        );
        previous_phases = outcome.phases;
        first.get_or_insert(outcome);
        delta = delta.saturating_mul(2);
    }
    let fine = first.expect("grid ran");
    let coarse = delta_stepping_with_scratch(&graph, 0, delta, None, &mut scratch);
    assert!(coarse.work() >= fine.work(), "coarse {} fine {}", coarse.work(), fine.work());
}
