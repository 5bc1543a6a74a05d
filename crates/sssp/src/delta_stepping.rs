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
//! and matches the sequential reference of the property suite. The
//! per-phase improved set is
//! collected through a touched-bitmap into per-chunk buffers
//! ([`cldiam_graph::atomic::ChunkBuffers`]) exactly like the Δ-growing
//! scratch, and re-bucketed sequentially in ascending node order.
//!
//! In the MapReduce cost model adopted by the paper, each light-relaxation
//! sub-phase and each heavy-relaxation phase is one round; the messages are
//! the relaxation requests generated and the node updates are the tentative
//! distance improvements applied. These are charged to an optional
//! [`CostTracker`] and also returned in the [`DeltaSteppingOutcome`].
//! `updates` counts *distinct nodes improved per phase* — a
//! scheduling-independent quantity, the same semantics as the growing path's
//! `StepStats::updates`. Distances and `phases` are pinned bit-identical to
//! the original `BTreeMap`-bucketed implementation, which the property suite
//! (`tests/prop_sssp_equivalence.rs`) keeps as its reference.

use std::sync::atomic::{AtomicBool, Ordering};

use cldiam_mr::CostTracker;

use cldiam_graph::atomic::ChunkBuffers;
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
/// touched/settled bookkeeping. One scratch serves any number of runs, on
/// graphs of any size (buffers grow monotonically and resets touch only what
/// the previous run reached) — allocate it once per worker and thread it
/// through every [`delta_stepping_with_scratch`] call.
#[derive(Debug, Default)]
pub struct SsspScratch {
    /// Tentative distances in atomic fetch-min cells.
    dist: MinDistCells,
    /// `true` while a node holds a finite tentative distance this run.
    seen: Vec<bool>,
    /// Every node reached this run, for the `O(reached)` reset.
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
    /// Current phase's frontier after lazy deletion.
    active: Vec<NodeId>,
    /// Raw entries drained from the current bucket slot.
    pending: Vec<NodeId>,
    /// Sorted improved nodes of the last phase.
    improved: Vec<NodeId>,
    /// Nodes settled in the current bucket (relaxed at least once as light
    /// frontier), deduplicated via `in_settled`.
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
        if self.seen.len() < n {
            self.seen.resize(n, false);
            self.in_settled.resize(n, false);
            self.touched.resize_with(n, || AtomicBool::new(false));
        }
    }

    /// Resets the previous run's tentative distances — `O(reached)`.
    fn reset(&mut self) {
        for v in self.reached.drain(..) {
            self.dist.store(v as usize, INFINITY);
            self.seen[v as usize] = false;
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

    /// One parallel relaxation phase: relaxes the light edges of `active`
    /// (`heavy == false`) or the heavy edges of `settled` (`heavy == true`)
    /// from their pre-phase distances in `snap`, fetch-min-ing targets in
    /// place and collecting first-improvements-of-the-phase through the
    /// touched bitmap. Leaves the sorted improved nodes in `improved`, clears
    /// their phase marks, registers first-time reaches, and returns the
    /// number of relaxation requests generated.
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
                    if prev > cand && !touched[v as usize].swap(true, Ordering::Relaxed) {
                        out.improved.push(v);
                    }
                });
            }
        });
        let mut requests = 0;
        self.improved.clear();
        for chunk in chunks {
            requests += std::mem::take(&mut chunk.requests);
            self.improved.append(&mut chunk.improved);
        }
        self.improved.sort_unstable();
        for &v in &self.improved {
            self.touched[v as usize].store(false, Ordering::Relaxed);
            if !self.seen[v as usize] {
                self.seen[v as usize] = true;
                self.reached.push(v);
            }
        }
        requests
    }
}

/// What one chunk of a relaxation phase collects, in a buffer reused across
/// phases.
#[derive(Debug, Default)]
struct PhaseChunk {
    /// Nodes this chunk was the first in the phase to improve.
    improved: Vec<NodeId>,
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

    scratch.ensure(n);
    scratch.reset();

    // Size the ring to the largest single-relaxation bucket jump (capped);
    // a larger ring from an earlier run is kept — it only reduces overflow.
    let max_jump = Dist::from(graph.max_weight().unwrap_or(1)) / delta_dist + 2;
    let desired = usize::try_from(max_jump).unwrap_or(RING_CAP).min(RING_CAP);
    if scratch.ring.len() < desired {
        scratch.ring.resize_with(desired, Vec::new);
    }
    let ring_size = scratch.ring.len() as u64;

    let mut phases = 0u64;
    let mut relaxations = 0u64;
    let mut updates = 0u64;

    scratch.dist.store(source as usize, 0);
    scratch.seen[source as usize] = true;
    scratch.reached.push(source);
    scratch.ring[0].push(source);
    scratch.ring_len = 1;

    // All buckets below `base` are settled; `overflow_min` is a lower bound
    // on the smallest bucket index present in the overflow list.
    let mut base: u64 = 0;
    let mut overflow_min: u64 = u64::MAX;

    // Re-buckets an improved node at its post-phase distance.
    fn rebucket(
        scratch: &mut SsspScratch,
        v: NodeId,
        base: u64,
        ring_size: u64,
        delta_dist: Dist,
        overflow_min: &mut u64,
    ) {
        let b = scratch.dist.load(v as usize) / delta_dist;
        debug_assert!(b >= base, "relaxation moved a node into a settled bucket");
        if b < base + ring_size {
            scratch.ring[(b % ring_size) as usize].push(v);
            scratch.ring_len += 1;
        } else {
            scratch.overflow.push(v);
            *overflow_min = (*overflow_min).min(b);
        }
    }

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
        let bucket_idx = if scratch.ring_len > 0 {
            let mut b = base;
            while scratch.ring[(b % ring_size) as usize].is_empty() {
                b += 1;
            }
            b
        } else if scratch.overflow.is_empty() {
            break;
        } else {
            base = overflow_min;
            overflow_min = drain_overflow(scratch, base, delta_dist);
            continue;
        };
        base = bucket_idx;
        let slot = (bucket_idx % ring_size) as usize;

        // Light phases: repeat until bucket `bucket_idx` stops receiving
        // nodes. Nodes re-inserted into the same bucket by an improvement are
        // relaxed again, exactly as in Meyer & Sanders.
        loop {
            let drained = scratch.ring[slot].len();
            scratch.pending.clear();
            let (pending, ring) = (&mut scratch.pending, &mut scratch.ring);
            pending.append(&mut ring[slot]);
            scratch.ring_len -= drained;
            // Lazy deletion: keep only nodes whose tentative distance still
            // falls in this bucket (stale entries are skipped).
            scratch.active.clear();
            let (active, pending, dist) = (&mut scratch.active, &scratch.pending, &scratch.dist);
            active.extend(
                pending.iter().copied().filter(|&v| dist.load(v as usize) / delta_dist == base),
            );
            if scratch.active.is_empty() {
                break;
            }
            phases += 1;
            scratch.snap.clear();
            let (snap, active, dist) = (&mut scratch.snap, &scratch.active, &scratch.dist);
            snap.extend(active.iter().map(|&u| dist.load(u as usize)));
            for i in 0..scratch.active.len() {
                let u = scratch.active[i];
                if !scratch.in_settled[u as usize] {
                    scratch.in_settled[u as usize] = true;
                    scratch.settled.push(u);
                }
            }
            relaxations += scratch.relax_phase(graph, delta_dist, false);
            updates += scratch.improved.len() as u64;
            for i in 0..scratch.improved.len() {
                let v = scratch.improved[i];
                rebucket(scratch, v, base, ring_size, delta_dist, &mut overflow_min);
            }
            if scratch.ring[slot].is_empty() {
                break;
            }
        }

        // Heavy phase: relax heavy edges of every node settled in the bucket.
        if !scratch.settled.is_empty() {
            phases += 1;
            scratch.snap.clear();
            let (snap, settled, dist) = (&mut scratch.snap, &scratch.settled, &scratch.dist);
            snap.extend(settled.iter().map(|&u| dist.load(u as usize)));
            relaxations += scratch.relax_phase(graph, delta_dist, true);
            updates += scratch.improved.len() as u64;
            for i in 0..scratch.improved.len() {
                let v = scratch.improved[i];
                rebucket(scratch, v, base + 1, ring_size, delta_dist, &mut overflow_min);
            }
            for i in 0..scratch.settled.len() {
                let u = scratch.settled[i];
                scratch.in_settled[u as usize] = false;
            }
            scratch.settled.clear();
        }
        base = bucket_idx + 1;
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
