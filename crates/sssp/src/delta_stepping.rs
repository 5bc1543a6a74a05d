//! Parallel Δ-stepping SSSP (Meyer & Sanders, J. Algorithms 2003) — the
//! paper's baseline competitor.
//!
//! Tentative distances are kept in buckets of width `Δ`. The algorithm
//! repeatedly takes the non-empty bucket of smallest index, relaxes *light*
//! edges (weight ≤ Δ) of its nodes until the bucket stops changing, and then
//! relaxes the *heavy* edges (weight > Δ) of every node settled in the bucket
//! once. Small `Δ` approaches Dijkstra (little work, many phases); large `Δ`
//! approaches Bellman-Ford (few phases, much work).
//!
//! # The bucket ring
//!
//! The production engine ([`delta_stepping`] /
//! [`delta_stepping_with_scratch`]) keeps the buckets in a *cyclic array*
//! rather than an ordered map: bucket `b` lives in ring slot
//! `b mod ring_size`, where `ring_size` covers the largest bucket jump a
//! single relaxation can make (`⌈max_weight / Δ⌉ + 1`, capped). Because every
//! relaxation from bucket `b` lands in a bucket `≥ b`, the slot of a settled
//! bucket is empty before any later bucket with the same residue can be
//! filled, so slots are never shared between live buckets. Entries whose
//! bucket index lies beyond the ring horizon go to an overflow list and are
//! pulled back in (lazily, tracked by the minimum overflow bucket) as the
//! frontier advances. All of this state lives in a reusable [`SsspScratch`]:
//! tentative distances in atomic fetch-min cells
//! ([`cldiam_graph::atomic::MinDistCells`], the same unsafe-free CAS
//! machinery the Δ-growing hot path relaxes through), the ring, and the
//! touched bookkeeping — so repeated runs (multi-source batches, Δ-grid
//! sweeps) perform no per-run allocations beyond the returned distance
//! vector, and resets cost `O(reached)`, never `O(n)`.
//!
//! # Determinism
//!
//! Relaxation requests of a phase are generated in parallel from a pre-phase
//! snapshot of the frontier's distances and applied *in place* with an atomic
//! `fetch_min` per target. A `min` is commutative and associative, so the
//! post-phase distance of every node — and therefore the set of improved
//! nodes, the bucket structure, and every counter below — is a pure function
//! of the pre-phase state: the output is bit-identical at any thread count
//! and matches the sequential reference of the property suite.
//!
//! As in the Δ-growing wave, each chunk of a phase's scan collects in its
//! own reused buffer ([`cldiam_graph::atomic::ChunkBuffers`]) the nodes it
//! was the first in the phase to improve (claimed through a touched bitmap),
//! sorted, and the nodes it reached for the first time in the run;
//! [`merge_runs`] merges the sorted runs into the phase's ascending improved
//! set. One sequential pass over that set then clears the phase marks and
//! routes each node: one still in the current bucket joins the next light
//! phase's frontier at once, its distance becoming that phase's snapshot,
//! and any other is queued at its bucket. So only a bucket's first light
//! phase reads the bucket's ring slot, and every later one relaxes an
//! ascending frontier, which keeps the scan's memory accesses local on
//! graphs with scattered node ids.
//!
//! In the MapReduce cost model adopted by the paper, each light-relaxation
//! sub-phase and each heavy-relaxation phase is one round; the messages are
//! the relaxation requests generated and the node updates are the tentative
//! distance improvements applied. Every bucket that runs a light phase ends
//! with one heavy phase, and counts it as a round even when no arc is
//! heavier than `Δ` (`max_weight ≤ Δ`): such a heavy phase could generate
//! no request, so it is counted without a scan. These counters are charged
//! to an optional [`CostTracker`] and also returned in the
//! [`DeltaSteppingOutcome`]. `updates` counts *distinct nodes improved per
//! phase* — a scheduling-independent quantity, the same semantics as the
//! node updates a Δ-growing wave charges. Distances and all three counters
//! are pinned bit-identical to the `BTreeMap`-bucketed implementation the
//! engine replaced, which the property suite
//! (`tests/prop_sssp_equivalence.rs`) keeps as its reference.

use std::sync::atomic::{AtomicBool, Ordering};

use cldiam_mr::CostTracker;

use cldiam_graph::atomic::{merge_runs, ChunkBuffers};
use cldiam_graph::{Dist, MinDistCells, NeighborSource, NodeId, Weight, INFINITY};

/// Result of a Δ-stepping run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSteppingOutcome {
    /// Source node.
    pub source: NodeId,
    /// Bucket width used.
    pub delta: Weight,
    /// Shortest-path distances ([`INFINITY`] for unreachable nodes).
    pub dist: Vec<Dist>,
    /// Number of relaxation phases (MapReduce rounds).
    pub phases: u64,
    /// Number of relaxation requests generated (messages).
    pub relaxations: u64,
    /// Number of tentative-distance improvements applied (node updates):
    /// distinct improved nodes per phase (see the module docs).
    pub updates: u64,
}

impl DeltaSteppingOutcome {
    /// Largest finite distance — the weighted eccentricity of the source.
    pub fn eccentricity(&self) -> Dist {
        self.dist.iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0)
    }

    /// The paper's *work* measure for this run.
    pub fn work(&self) -> u64 {
        self.relaxations + self.updates
    }
}

/// Minimum frontier nodes per parallel chunk during relaxation-request
/// generation. Relaxation phases are numerous and often tiny; below this many
/// nodes per chunk, splitting costs more than it buys. Chunk-ordered
/// recombination keeps the output identical either way.
const PAR_MIN_FRONTIER: usize = 32;

/// Upper bound on the cyclic bucket array length. A ring of
/// `⌈max_weight / Δ⌉ + 1` slots makes the overflow list unreachable, but for
/// tiny `Δ` on heavy graphs that is absurdly large; beyond this cap, far
/// relaxations take the overflow path instead.
const RING_CAP: usize = 1024;

/// A reasonable default bucket width: the average edge weight (clamped to at
/// least 1). The benchmark harness additionally sweeps `Δ` over a grid and
/// keeps the best-performing value, as the paper does.
pub fn suggest_delta<G: NeighborSource>(graph: &G) -> Weight {
    graph.avg_weight().unwrap_or(1).max(1)
}

/// Reusable state for the bucket-array Δ-stepping engine: atomic tentative
/// distances, the cyclic bucket ring with its overflow list, and the
/// per-phase and settled bookkeeping. One scratch serves any number of runs,
/// on graphs of any size (buffers grow monotonically and resets touch only
/// what the previous run reached) — allocate it once per worker and thread
/// it through every [`delta_stepping_with_scratch`] call.
#[derive(Debug, Default)]
pub struct SsspScratch {
    /// Tentative distances in atomic fetch-min cells.
    dist: MinDistCells,
    /// Every node reached this run, each exactly once, for the `O(reached)`
    /// reset. Its order depends on how phases were cut into chunks, so
    /// nothing that reads it may depend on its order.
    reached: Vec<NodeId>,
    /// The cyclic bucket array: bucket `b` lives in slot `b % ring.len()`.
    ring: Vec<Vec<NodeId>>,
    /// Entries queued across all ring slots.
    ring_len: usize,
    /// Entries whose bucket lies beyond the ring horizon.
    overflow: Vec<NodeId>,
    /// Per-phase "already collected as improved" marks.
    touched: Vec<AtomicBool>,
    /// Per-chunk outputs of a relaxation phase.
    chunks: ChunkBuffers<PhaseChunk>,
    /// The current light phase's frontier.
    active: Vec<NodeId>,
    /// Improved nodes of the last phase, ascending, with the buffer and the
    /// run ends their per-chunk runs are merged through.
    improved: Vec<NodeId>,
    merge_buf: Vec<NodeId>,
    run_ends: Vec<usize>,
    /// Nodes settled in the current bucket (relaxed at least once as light
    /// frontier), deduplicated via `in_settled`. Kept only when the graph
    /// has heavy arcs.
    settled: Vec<NodeId>,
    in_settled: Vec<bool>,
    /// Pre-phase distance snapshot of `active` / `settled`.
    snap: Vec<Dist>,
}

impl SsspScratch {
    /// Fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for graphs with `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut scratch = Self::default();
        scratch.ensure(n);
        scratch
    }

    fn ensure(&mut self, n: usize) {
        self.dist.ensure(n);
        if self.touched.len() < n {
            self.in_settled.resize(n, false);
            self.touched.resize_with(n, || AtomicBool::new(false));
        }
    }

    /// Resets the previous run's tentative distances — `O(reached)`.
    fn reset(&mut self) {
        for v in self.reached.drain(..) {
            self.dist.store(v as usize, INFINITY);
        }
        for slot in &mut self.ring {
            slot.clear();
        }
        self.ring_len = 0;
        self.overflow.clear();
    }

    /// Tentative distance of `v` from the most recent run ([`INFINITY`] if
    /// unreachable). Valid until the next run on this scratch.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Dist {
        self.dist.load(v as usize)
    }

    /// Largest finite distance of the most recent run — the weighted
    /// eccentricity of its source. `O(reached)`.
    pub fn eccentricity(&self) -> Dist {
        self.reached.iter().map(|&v| self.dist.load(v as usize)).max().unwrap_or(0)
    }

    /// Copies the most recent run's distances for a graph of `n` nodes into a
    /// fresh vector.
    fn export_dist(&self, n: usize) -> Vec<Dist> {
        (0..n).map(|v| self.dist.load(v)).collect()
    }

    /// Starts bucket `base` of a run: drains its ring slot into the first
    /// light phase's frontier and snapshot, dropping the entries whose node
    /// has left the bucket since it was queued (lazy deletion).
    fn drain_slot(&mut self, base: u64, delta_dist: Dist) {
        let ring_size = self.ring.len() as u64;
        let slot = &mut self.ring[(base % ring_size) as usize];
        self.ring_len -= slot.len();
        self.active.clear();
        self.snap.clear();
        for v in slot.drain(..) {
            let d = self.dist.load(v as usize);
            if d / delta_dist == base {
                self.active.push(v);
                self.snap.push(d);
            }
        }
    }

    /// One parallel relaxation phase: relaxes the light edges of `active`
    /// (`heavy == false`) or the heavy edges of `settled` (`heavy == true`)
    /// from their pre-phase distances in `snap`, fetch-min-ing targets in
    /// place. Each chunk lists, sorted, the nodes it was the first in the
    /// phase to improve (claimed through the touched marks), and the nodes
    /// it reached first: a node is first reached by the one `fetch_min`
    /// that returns [`INFINITY`], so exactly one chunk lists it. Leaves the
    /// merged improved nodes, ascending and still marked, in `improved`,
    /// appends the first reaches to `reached`, and returns the number of
    /// relaxation requests generated.
    fn relax_phase<G: NeighborSource>(&mut self, graph: &G, delta_dist: Dist, heavy: bool) -> u64 {
        let nodes = if heavy { &self.settled } else { &self.active };
        let (snap, dist, touched) = (&self.snap, &self.dist, &self.touched);
        let chunks = self.chunks.scan(nodes.len(), PAR_MIN_FRONTIER, |range, out| {
            for i in range {
                let du = snap[i];
                // Internal iteration: the compressed tier's block decoder
                // folds this closure into one tight per-coding loop.
                graph.neighbors(nodes[i]).for_each(|(v, w)| {
                    let wd = Dist::from(w);
                    if (wd > delta_dist) != heavy {
                        return;
                    }
                    out.requests += 1;
                    let cand = du + wd;
                    let prev = dist.fetch_min(v as usize, cand);
                    if prev > cand {
                        if prev == INFINITY {
                            out.reached.push(v);
                        }
                        if !touched[v as usize].swap(true, Ordering::Relaxed) {
                            out.improved.push(v);
                        }
                    }
                });
            }
            out.improved.sort_unstable();
        });
        let mut requests = 0;
        self.improved.clear();
        self.run_ends.clear();
        for chunk in chunks {
            requests += std::mem::take(&mut chunk.requests);
            if !chunk.improved.is_empty() {
                self.improved.append(&mut chunk.improved);
                self.run_ends.push(self.improved.len());
            }
            self.reached.append(&mut chunk.reached);
        }
        merge_runs(&mut self.improved, &mut self.merge_buf, &mut self.run_ends);
        requests
    }

    /// The one pass over a phase's improved nodes: clears each node's phase
    /// mark, then appends it with its distance to the next light phase's
    /// frontier and snapshot if it is still in bucket `base`, and otherwise
    /// queues it at its bucket — in the ring below bucket `horizon`, in the
    /// overflow list from there on.
    fn route_improved(
        &mut self,
        base: u64,
        horizon: u64,
        delta_dist: Dist,
        overflow_min: &mut u64,
    ) {
        let ring_size = self.ring.len() as u64;
        self.active.clear();
        self.snap.clear();
        for &v in &self.improved {
            self.touched[v as usize].store(false, Ordering::Relaxed);
            let d = self.dist.load(v as usize);
            let b = d / delta_dist;
            debug_assert!(b >= base, "relaxation moved a node into a settled bucket");
            if b == base {
                self.active.push(v);
                self.snap.push(d);
            } else if b < horizon {
                self.ring[(b % ring_size) as usize].push(v);
                self.ring_len += 1;
            } else {
                self.overflow.push(v);
                *overflow_min = (*overflow_min).min(b);
            }
        }
    }
}

/// What one chunk of a relaxation phase collects, in buffers reused across
/// phases.
#[derive(Debug, Default)]
struct PhaseChunk {
    /// Nodes this chunk was the first in the phase to improve.
    improved: Vec<NodeId>,
    /// Nodes this chunk reached for the first time in the run.
    reached: Vec<NodeId>,
    requests: u64,
}

/// Runs Δ-stepping from `source` with bucket width `delta` on the cyclic
/// bucket-array engine, reusing `scratch` across calls.
///
/// Light-edge relaxation requests are generated in parallel (rayon) from a
/// pre-phase snapshot and applied with atomic fetch-min cells, so the
/// distance output — and every counter — is independent of the number of
/// threads (see the module docs). Cost metrics are charged to `tracker` when
/// provided.
///
/// # Panics
///
/// Panics if `source` is out of range or `delta` is zero.
// lint:allow(twin-entry): perfbench times this call by name; the next
// benchmark change makes the scratch an argument of `delta_stepping`.
pub fn delta_stepping_with_scratch<G: NeighborSource>(
    graph: &G,
    source: NodeId,
    delta: Weight,
    tracker: Option<&CostTracker>,
    scratch: &mut SsspScratch,
) -> DeltaSteppingOutcome {
    let n = graph.num_nodes();
    assert!((source as usize) < n, "source {source} out of range (n = {n})");
    assert!(delta >= 1, "delta must be positive");
    let delta_dist = Dist::from(delta);
    let max_weight = Dist::from(graph.max_weight().unwrap_or(1));
    // Without an arc heavier than Δ, a heavy phase generates no request.
    let heavy_arcs = max_weight > delta_dist;

    scratch.ensure(n);
    scratch.reset();

    // Size the ring to the largest single-relaxation bucket jump (capped);
    // a larger ring from an earlier run is kept — it only reduces overflow.
    let max_jump = max_weight / delta_dist + 2;
    let desired = usize::try_from(max_jump).unwrap_or(RING_CAP).min(RING_CAP);
    if scratch.ring.len() < desired {
        scratch.ring.resize_with(desired, Vec::new);
    }
    let ring_size = scratch.ring.len() as u64;

    let mut phases = 0u64;
    let mut relaxations = 0u64;
    let mut updates = 0u64;

    scratch.dist.store(source as usize, 0);
    scratch.reached.push(source);
    scratch.ring[0].push(source);
    scratch.ring_len = 1;

    // All buckets below `base` are settled; `overflow_min` is a lower bound
    // on the smallest bucket index present in the overflow list.
    let mut base: u64 = 0;
    let mut overflow_min: u64 = u64::MAX;

    // Moves overflow entries whose bucket fell inside the ring horizon into
    // the ring; drops stale entries (node improved and re-bucketed earlier).
    fn drain_overflow(scratch: &mut SsspScratch, base: u64, delta_dist: Dist) -> u64 {
        let ring_size = scratch.ring.len() as u64;
        let mut new_min = u64::MAX;
        let mut kept = 0;
        for i in 0..scratch.overflow.len() {
            let v = scratch.overflow[i];
            let b = scratch.dist.load(v as usize) / delta_dist;
            if b < base {
                continue; // stale: settled under a fresher ring entry
            } else if b < base + ring_size {
                scratch.ring[(b % ring_size) as usize].push(v);
                scratch.ring_len += 1;
            } else {
                scratch.overflow[kept] = v;
                kept += 1;
                new_min = new_min.min(b);
            }
        }
        scratch.overflow.truncate(kept);
        new_min
    }

    loop {
        // Pull overflow entries the advancing horizon now covers.
        if overflow_min < base + ring_size {
            overflow_min = drain_overflow(scratch, base, delta_dist);
        }
        // Find the next non-empty bucket. All live ring entries sit in
        // [base, base + ring_size), so the scan is bounded by the ring.
        if scratch.ring_len > 0 {
            while scratch.ring[(base % ring_size) as usize].is_empty() {
                base += 1;
            }
        } else if scratch.overflow.is_empty() {
            break;
        } else {
            base = overflow_min;
            overflow_min = drain_overflow(scratch, base, delta_dist);
            continue;
        }

        // Light phases on bucket `base`: repeat until it stops receiving
        // nodes. Nodes an improvement leaves in the bucket are relaxed
        // again, exactly as in Meyer & Sanders; they go straight into the
        // next phase's frontier, so only the first phase reads the ring.
        scratch.drain_slot(base, delta_dist);
        if scratch.active.is_empty() {
            // Only stale entries: the bucket runs no phase at all.
            base += 1;
            continue;
        }
        while !scratch.active.is_empty() {
            phases += 1;
            if heavy_arcs {
                for &u in &scratch.active {
                    if !scratch.in_settled[u as usize] {
                        scratch.in_settled[u as usize] = true;
                        scratch.settled.push(u);
                    }
                }
            }
            relaxations += scratch.relax_phase(graph, delta_dist, false);
            updates += scratch.improved.len() as u64;
            scratch.route_improved(base, base + ring_size, delta_dist, &mut overflow_min);
        }

        // Heavy phase: relax heavy edges of every node settled in the
        // bucket. It is one round whether or not the graph has heavy arcs;
        // without them it could generate no request, so it is not scanned.
        phases += 1;
        if heavy_arcs {
            scratch.snap.clear();
            let (snap, settled, dist) = (&mut scratch.snap, &scratch.settled, &scratch.dist);
            snap.extend(settled.iter().map(|&u| dist.load(u as usize)));
            relaxations += scratch.relax_phase(graph, delta_dist, true);
            updates += scratch.improved.len() as u64;
            // A heavy arc leaves the bucket, so nothing joins `active`.
            scratch.route_improved(base, base + 1 + ring_size, delta_dist, &mut overflow_min);
            for &u in &scratch.settled {
                scratch.in_settled[u as usize] = false;
            }
            scratch.settled.clear();
        }
        base += 1;
    }

    if let Some(t) = tracker {
        t.add_rounds(phases);
        t.add_messages(relaxations);
        t.add_node_updates(updates);
    }

    DeltaSteppingOutcome {
        source,
        delta,
        dist: scratch.export_dist(n),
        phases,
        relaxations,
        updates,
    }
}

/// Runs Δ-stepping from `source` with bucket width `delta` on a fresh
/// [`SsspScratch`]. Callers issuing many runs (multi-source batches, Δ-grid
/// sweeps) should hold a scratch and use [`delta_stepping_with_scratch`].
///
/// # Panics
///
/// Panics if `source` is out of range or `delta` is zero.
pub fn delta_stepping<G: NeighborSource>(
    graph: &G,
    source: NodeId,
    delta: Weight,
    tracker: Option<&CostTracker>,
) -> DeltaSteppingOutcome {
    let mut scratch = SsspScratch::with_capacity(graph.num_nodes());
    delta_stepping_with_scratch(graph, source, delta, tracker, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use cldiam_gen::{mesh, preferential_attachment, WeightModel};
    use cldiam_graph::Graph;

    fn check_against_dijkstra(
        graph: &Graph,
        source: NodeId,
        delta: Weight,
    ) -> DeltaSteppingOutcome {
        let expected = dijkstra(graph, source);
        let outcome = delta_stepping(graph, source, delta, None);
        assert_eq!(outcome.dist, expected.dist, "delta = {delta}");
        outcome
    }

    #[test]
    fn matches_dijkstra_on_weighted_mesh() {
        let g = mesh(12, WeightModel::UniformUnit, 3);
        for delta in [1, 1_000, 100_000, 1_000_000] {
            check_against_dijkstra(&g, 0, delta);
        }
    }

    #[test]
    fn matches_dijkstra_on_social_graph() {
        let g = preferential_attachment(500, 3, WeightModel::UniformUnit, 5);
        for delta in [10_000, 500_000] {
            check_against_dijkstra(&g, 42, delta);
        }
    }

    #[test]
    fn matches_dijkstra_with_disconnected_nodes() {
        let g = Graph::from_edges(5, &[(0, 1, 3), (1, 2, 4)]);
        let outcome = check_against_dijkstra(&g, 0, 2);
        assert_eq!(outcome.dist[4], INFINITY);
        assert_eq!(outcome.eccentricity(), 7);
    }

    #[test]
    fn tiny_delta_on_heavy_weights_exercises_the_overflow_path() {
        // Weights up to 50_000 with Δ = 1 make every relaxation jump far past
        // the capped ring horizon, so every queued node takes the overflow
        // detour at least once.
        let g = Graph::from_edges(
            6,
            &[(0, 1, 50_000), (1, 2, 1), (0, 3, 20_000), (3, 4, 40_000), (4, 2, 1), (2, 5, 9_999)],
        );
        check_against_dijkstra(&g, 0, 1);
        check_against_dijkstra(&g, 2, 3);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_runs_and_graphs() {
        let small = mesh(6, WeightModel::UniformUnit, 2);
        let big = mesh(10, WeightModel::UniformUnit, 3);
        let mut scratch = SsspScratch::new();
        // Interleave graphs and sources; every reused run must equal a
        // fresh-scratch run bit for bit.
        for (graph, source, delta) in
            [(&big, 0u32, 400_000u32), (&small, 5, 1_000), (&big, 17, 50_000), (&small, 0, 1)]
        {
            let reused = delta_stepping_with_scratch(graph, source, delta, None, &mut scratch);
            let fresh = delta_stepping(graph, source, delta, None);
            assert_eq!(reused, fresh);
            assert_eq!(scratch.eccentricity(), fresh.eccentricity());
            assert_eq!(scratch.distance(source), 0);
        }
    }

    #[test]
    fn a_bucket_without_heavy_arcs_still_counts_its_heavy_phase() {
        // Four buckets either way. At Δ = 4 every arc is heavy: each light
        // phase scans nothing and each heavy phase does the relaxing. At
        // Δ = 5 every arc is light and no heavy phase is scanned. Both count
        // a light and a heavy phase per bucket, six requests and three
        // updates.
        let g = Graph::from_edges(4, &[(0, 1, 5), (1, 2, 5), (2, 3, 5)]);
        for delta in [4, 5] {
            let outcome = delta_stepping(&g, 0, delta, None);
            let counters = (outcome.phases, outcome.relaxations, outcome.updates);
            assert_eq!(counters, (8, 6, 3), "delta {delta}");
        }
    }

    #[test]
    fn reached_lists_each_node_once_and_a_reused_scratch_resets_clean() {
        // A hub with 600 spokes, a pendant on each and 49 isolated nodes.
        // At Δ = 3 its light phases relax up to ~170 spokes, which a pool of
        // four threads cuts into five chunks, and heavy arcs fill the
        // settled bookkeeping.
        let edges: Vec<(NodeId, NodeId, Weight)> =
            (1..=600).flat_map(|i| [(0, i, 1 + i % 7), (i, 600 + i, 1 + i % 5)]).collect();
        let hub = Graph::from_edges(1_250, &edges);
        let small = mesh(6, WeightModel::UniformUnit, 2);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("thread pool");
        let mut scratch = SsspScratch::new();
        pool.install(|| {
            let outcome = delta_stepping_with_scratch(&hub, 0, 3, None, &mut scratch);
            let mut reached = scratch.reached.clone();
            reached.sort_unstable();
            let finite: Vec<NodeId> =
                (0..1_250).filter(|&v| outcome.dist[v as usize] != INFINITY).collect();
            assert_eq!(finite.len(), 1_201);
            assert_eq!(reached, finite);

            let reused = delta_stepping_with_scratch(&small, 3, 1_000, None, &mut scratch);
            assert_eq!(reused, delta_stepping(&small, 3, 1_000, None));
            assert_eq!(scratch.reached.len(), small.num_nodes());
            // Nothing of the hub run is left: every cell past the mesh is
            // unreached again, and every mark is clear.
            for v in 0..hub.num_nodes() {
                let expected = reused.dist.get(v).copied().unwrap_or(INFINITY);
                assert_eq!(scratch.dist.load(v), expected, "node {v}");
                assert!(!scratch.touched[v].load(Ordering::Relaxed), "node {v}");
                assert!(!scratch.in_settled[v], "node {v}");
            }
            assert!(scratch.settled.is_empty() && scratch.overflow.is_empty());
            assert_eq!(scratch.ring_len, 0);
        });
    }

    #[test]
    fn small_delta_means_more_phases_than_large_delta() {
        let g = mesh(16, WeightModel::UniformUnit, 9);
        let fine = delta_stepping(&g, 0, 1_000, None);
        let coarse = delta_stepping(&g, 0, 1_000_000, None);
        assert!(fine.phases > coarse.phases, "fine {} vs coarse {}", fine.phases, coarse.phases);
    }

    #[test]
    fn large_delta_means_at_least_as_much_work() {
        let g = mesh(16, WeightModel::UniformUnit, 9);
        let fine = delta_stepping(&g, 0, 10_000, None);
        let coarse = delta_stepping(&g, 0, 1_000_000, None);
        assert!(coarse.work() >= fine.work(), "coarse {} fine {}", coarse.work(), fine.work());
    }

    #[test]
    fn charges_cost_tracker() {
        let g = mesh(8, WeightModel::UniformUnit, 1);
        let tracker = CostTracker::new();
        let outcome = delta_stepping(&g, 0, 500_000, Some(&tracker));
        let snap = tracker.snapshot();
        assert_eq!(snap.rounds, outcome.phases);
        assert_eq!(snap.messages, outcome.relaxations);
        assert_eq!(snap.node_updates, outcome.updates);
        assert!(snap.rounds > 0);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn rejects_zero_delta() {
        let g = Graph::from_edges(2, &[(0, 1, 1)]);
        delta_stepping(&g, 0, 0, None);
    }

    #[test]
    fn suggest_delta_is_average_weight() {
        let g = Graph::from_edges(3, &[(0, 1, 10), (1, 2, 30)]);
        assert_eq!(suggest_delta(&g), 20);
        assert_eq!(suggest_delta(&cldiam_graph::GraphBuilder::new(2).build()), 1);
    }
}
