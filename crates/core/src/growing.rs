//! The Δ-growing step and the `PartialGrowth` procedure (Section 3).
//!
//! A Δ-growing step performs, in parallel, one wave of Bellman-Ford-style
//! relaxations restricted to *light* edges (weight at most the threshold
//! `Δ`) and to tentative distances that stay within `Δ`: for each node `u`
//! with `d_u < Δ` and each light edge `(u, v)`, if `d_u + w(u, v) ≤ Δ` and
//! the state of `v` improves,
//! set `d_v = d_u + w(u, v)` and `c_v = c_u`. When several nodes can update
//! `v`, the update with the smallest distance — and, secondarily, the one
//! whose center has the smallest index — wins, which makes the outcome
//! independent of thread scheduling.
//!
//! `PartialGrowth` repeats Δ-growing steps until no state changes or until a
//! caller-provided coverage goal is reached (half of the uncovered nodes for
//! `CLUSTER`; `CLUSTER2`'s `PartialGrowth2` is the same procedure without the
//! goal).
//!
//! # The resident hot path
//!
//! Every admissible relaxation is CAS-applied in place against the target's
//! cell in [`AtomicGrowCells`], which converges to the same deterministic
//! winner the literal MR reducer picks (see `atomic_state.rs` for the
//! protocol). A decomposition keeps its whole grow state in the cells of one
//! [`GrowScratch`] from its first stage to its last: the cells are reset
//! once, and at the end they are consumed in place, their center and
//! true-distance columns becoming the clustering's. In between, the stage
//! bookkeeping runs over two sorted lists instead of scanning all `n` nodes:
//! the uncovered nodes, where new centers are drawn and where the nodes first
//! reached in a stage are found and frozen, and the *live sources*, the
//! covered nodes that still act as growth sources.
//!
//! This is the paper's `Contract`, done lazily. A covered node stays a
//! source, but a frozen source leaves the live list the first time a wave
//! scans it and finds no unfrozen neighbour: every arc of such a node hits a
//! frozen target, which a wave skips before charging a message, and frozen
//! nodes never thaw. A stage therefore pays for the uncovered nodes and the
//! cluster-boundary edges only, while its rounds, messages, node updates,
//! growing steps and cancel checkpoints stay exactly those of the unpruned
//! growth.
//!
//! Every proposal of a wave must read the state the wave started from, while
//! targets are updated concurrently, so a wave reads its frontier from a
//! snapshot. The live sources need none: they are frozen, and a frozen node
//! is never a proposal target, so the first wave of each growth reads them
//! straight from the cells, and only the stage's reached nodes are listed
//! and snapshotted as its frontier. A wave collects its updated nodes and
//! interior sources in per-chunk buffers ([`ChunkBuffers`]) instead of
//! through one shared cursor, and each chunk sorts its updated nodes before
//! it returns. The sorted runs are merged into the next frontier, and one
//! parallel pass over it clears the touched marks, settles its nodes and
//! snapshots them for the next wave. The scratch reuses every buffer — the
//! frontier double-buffer, the merge buffer, the snapshot, the touched marks
//! — so a decomposition performs O(1) amortized heap allocations per wave.
//! [`partial_growth`] and [`delta_growing_step`] run the same wave over a
//! caller's [`GrowState`], which they load into the cells and store back
//! around the growth; their first wave snapshots the caller's whole frontier.
//!
//! Each wave charges the caller's [`CostTracker`] itself, once: one round,
//! one message per relaxation proposal and one node update per node whose
//! state changed in the wave (the quantity the MR reducer charges as node
//! updates). The equivalence proptests pin the in-place path and the literal
//! MR execution (`cldiam-testkit`'s `mr_impl`) to identical states *and*
//! identical charges.

use std::sync::atomic::{AtomicBool, Ordering};

use rayon::prelude::*;

use cldiam_mr::CostTracker;

use cldiam_graph::atomic::{merge_runs, ChunkBuffers};
use cldiam_graph::{CancelToken, Dist, NeighborSource, NodeId};

use crate::atomic_state::{AtomicGrowCells, Proposed};
use crate::state::{eff_below_threshold, eff_within_threshold, GrowState, NO_CENTER};

/// What a `PartialGrowth` invocation reports back to its stage loop; its
/// MR costs go to the caller's [`CostTracker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrowthOutcome {
    /// Number of Δ-growing steps executed (one MR round each).
    pub steps: u64,
    /// Number of unfrozen nodes reached (tentatively covered) when the
    /// procedure stopped.
    pub reached_unfrozen: usize,
}

/// Minimum frontier nodes per chunk of a wave: waves are numerous and often
/// tiny, and below this many nodes per chunk splitting costs more than it
/// buys.
const PAR_MIN_FRONTIER: usize = 32;

/// Minimum list entries per chunk of a bookkeeping scan.
const PAR_MIN_LIST: usize = 4096;

/// A node's `(eff, center, true_dist)` as a wave starts.
type Snapshot = (i64, NodeId, Dist);

/// What one chunk of a wave collects, in a buffer reused across waves.
#[derive(Debug, Default)]
struct WaveChunk {
    /// Nodes this chunk was the first in the wave to improve, ascending once
    /// the chunk is done.
    updated: Vec<NodeId>,
    /// Frozen sources this chunk scanned without finding an unfrozen
    /// neighbour.
    interior: Vec<NodeId>,
    proposals: u64,
    newly_reached: usize,
}

/// Reusable state of the in-place Δ-growing hot path.
///
/// One `GrowScratch` serves an entire decomposition: `CLUSTER` / `CLUSTER2`
/// allocate it once and keep the grow state resident in its atomic cells
/// from the first stage until `GrowScratch::finish` consumes them, so every
/// growth and every wave reuses the same cells, frontier buffers and
/// per-chunk buffers.
#[derive(Debug, Default)]
pub struct GrowScratch {
    /// The grow state, in atomic cells.
    cells: AtomicGrowCells,
    /// Per-node "already collected into the next frontier this wave" marks.
    touched: Vec<AtomicBool>,
    /// Per-chunk wave outputs.
    chunks: ChunkBuffers<WaveChunk>,
    /// Per-chunk outputs of the initial frontier's scan.
    picks: ChunkBuffers<Vec<NodeId>>,
    /// Current wave's frontier, ascending. The live sources, which the first
    /// wave of each decomposition growth scans too, are not listed here.
    frontier: Vec<NodeId>,
    /// The frontier's state as the wave starts, entry for entry.
    snap: Vec<Snapshot>,
    /// Updated nodes of the last executed wave (ascending).
    next: Vec<NodeId>,
    /// Buffer the sorted runs of `next` are merged through.
    merge_buf: Vec<NodeId>,
    /// End of each sorted run in `next` before the merge.
    run_ends: Vec<usize>,
    /// Interior sources found by the current growth's waves, ascending.
    interior: Vec<NodeId>,
    /// Nodes not covered by a finished stage, ascending.
    uncovered: Vec<NodeId>,
    /// Covered nodes not yet found interior, ascending.
    live: Vec<NodeId>,
    /// Unfrozen nodes reached so far in the current stage.
    reached: usize,
    /// Whether any source has left the live list in this decomposition.
    pruned: bool,
}

impl GrowScratch {
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
        if self.touched.len() != n {
            self.touched = (0..n).map(|_| AtomicBool::new(false)).collect();
        }
    }

    /// Starts a decomposition of an `n`-node graph: every node untouched and
    /// uncovered, and no sources.
    pub(crate) fn start(&mut self, n: usize) {
        self.ensure(n);
        self.cells.reset(n);
        self.uncovered.clear();
        self.uncovered.extend(0..n as NodeId);
        self.live.clear();
        self.reached = 0;
        self.pruned = false;
    }

    /// The nodes no finished stage has covered, ascending.
    pub(crate) fn uncovered(&self) -> &[NodeId] {
        &self.uncovered
    }

    /// Makes the unreached node `u` a cluster center: its own center at
    /// distance zero.
    pub(crate) fn set_center(&mut self, u: NodeId) {
        debug_assert!(!self.cells.is_reached(u as usize), "centers must be unreached");
        self.cells.set(u as usize, 0, u, 0);
        self.reached += 1;
    }

    /// Gives every live source its effective credit for the coming stage,
    /// `credit(center, true_dist)`, keeping its assignment and true distance
    /// (0 in `CLUSTER`; possibly negative in `CLUSTER2`).
    pub(crate) fn credit_sources(&self, credit: impl Fn(NodeId, Dist) -> i64) {
        for &u in &self.live {
            let (_, center, true_dist) = self.cells.read(u as usize);
            self.cells.set(u as usize, credit(center, true_dist), center, true_dist);
        }
    }

    /// `PartialGrowth` over the resident state: [`partial_growth`]'s contract,
    /// with the stage's sources and reached nodes as the initial frontier.
    pub(crate) fn partial_growth<G: NeighborSource>(
        &mut self,
        graph: &G,
        threshold: Dist,
        stop_at_reached: Option<usize>,
        tracker: &CostTracker,
        cancel: &CancelToken,
    ) -> GrowthOutcome {
        let idle = GrowthOutcome { steps: 0, reached_unfrozen: self.reached };
        if stop_at_reached.is_some_and(|target| self.reached >= target) {
            return idle;
        }
        // Initial frontier: this stage's reached nodes below the threshold,
        // ascending like the uncovered list they are picked from. The first
        // wave reads the live sources from the cells.
        let (cells, uncovered) = (&self.cells, &self.uncovered);
        let active = |u: NodeId| {
            cells.is_reached(u as usize) && eff_below_threshold(cells.eff(u as usize), threshold)
        };
        self.frontier.clear();
        let picked = self.picks.scan(uncovered.len(), PAR_MIN_LIST, |range, out| {
            out.extend(uncovered[range].iter().copied().filter(|&u| active(u)));
        });
        for out in picked {
            self.frontier.append(out);
        }
        // A pruned source was below the threshold when a wave found it
        // interior and stays so (credits only fall, Δ only grows), so the
        // unpruned growth has no source only if nothing was ever pruned: a
        // growth without an active source still runs its (empty) wave once
        // something has been pruned.
        if self.frontier.is_empty() && !self.pruned && !self.live.iter().any(|&u| active(u)) {
            return idle;
        }
        self.snapshot_frontier();
        let outcome =
            self.grow(graph, threshold, true, self.reached, stop_at_reached, tracker, cancel);
        self.reached = outcome.reached_unfrozen;
        if !self.interior.is_empty() {
            self.pruned = true;
            let interior = &self.interior;
            debug_assert!(interior.windows(2).all(|pair| pair[0] < pair[1]));
            let mut k = 0;
            self.live.retain(|&u| {
                while k < interior.len() && interior[k] < u {
                    k += 1;
                }
                k == interior.len() || interior[k] != u
            });
            self.interior.clear();
        }
        outcome
    }

    /// End of a stage (`Contract`): freezes every node the stage reached and
    /// turns it into a live source for the following stages.
    pub(crate) fn freeze_reached(&mut self) {
        let (cells, reached) = (&self.cells, &mut self.next);
        reached.clear();
        self.uncovered.retain(|&u| {
            let hit = cells.is_reached(u as usize);
            if hit {
                reached.push(u);
            }
            !hit
        });
        for &u in &self.next {
            self.cells.freeze(u as usize);
        }
        // `live` and the newly frozen `next` are disjoint ascending runs:
        // merge them in place from the back of `live`, with no buffer. The
        // runs interleave unpredictably, so each step selects, not branches.
        let (mut i, mut j) = (self.live.len(), self.next.len());
        self.live.resize(i + j, 0);
        while j > 0 {
            let u = self.next[j - 1];
            let take_live = i > 0 && self.live[i - 1] > u;
            self.live[i + j - 1] = if take_live { self.live[i - 1] } else { u };
            i -= usize::from(take_live);
            j -= usize::from(!take_live);
        }
        self.reached = 0;
    }

    /// The largest finite true distance in the resident state: the radius
    /// of the clustering [`GrowScratch::finish`] would return, whose
    /// singletons sit at distance 0.
    pub(crate) fn radius(&self) -> Dist {
        self.cells.max_finite_true_dist()
    }

    /// Ends the decomposition: every still-uncovered node becomes a
    /// singleton cluster. Returns each node's center and true distance, in
    /// the memory of the cells they were grown in.
    pub(crate) fn finish(self) -> (Vec<NodeId>, Vec<Dist>) {
        let (mut center, mut true_dist) = self.cells.into_center_and_true_dist();
        for &u in &self.uncovered {
            center[u as usize] = u;
            true_dist[u as usize] = 0;
        }
        (center, true_dist)
    }

    /// Repeats waves from `self.frontier`, and from the live sources first
    /// if `scan_live` — the `PartialGrowth` loop shared by every entry point.
    /// `reached` is the unfrozen reached count the growth starts from.
    #[allow(clippy::too_many_arguments)] // partial_growth's inputs plus the start
    fn grow<G: NeighborSource>(
        &mut self,
        graph: &G,
        threshold: Dist,
        mut scan_live: bool,
        mut reached: usize,
        stop_at_reached: Option<usize>,
        tracker: &CostTracker,
        cancel: &CancelToken,
    ) -> GrowthOutcome {
        let mut steps = 0;
        loop {
            // Wave boundary: every relaxation of the previous wave is committed.
            if cancel.checkpoint() {
                break;
            }
            reached += self.wave(graph, threshold, scan_live, tracker);
            scan_live = false;
            steps += 1;
            if self.next.is_empty() || stop_at_reached.is_some_and(|target| reached >= target) {
                break;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        GrowthOutcome { steps, reached_unfrozen: reached }
    }

    /// Snapshots the frontier's state for the coming wave.
    fn snapshot_frontier(&mut self) {
        snapshot(&self.cells, &self.frontier, &mut self.snap, |_| {});
    }

    /// Executes one wave from `self.frontier` (and from the live sources
    /// first, if `scan_live`), leaving the sorted updated nodes in
    /// `self.next`, settled, with their snapshot in `self.snap`, and
    /// appending the interior sources it found to `self.interior`. Charges
    /// `tracker` one round, the proposals as messages and the updated nodes
    /// as node updates. Returns how many previously-unreached nodes were
    /// assigned for the first time.
    fn wave<G: NeighborSource>(
        &mut self,
        graph: &G,
        threshold: Dist,
        scan_live: bool,
        tracker: &CostTracker,
    ) -> usize {
        let live: &[NodeId] = if scan_live { &self.live } else { &[] };
        let (frontier, snap, cells, touched) =
            (&self.frontier, &self.snap, &self.cells, &self.touched);
        let sources = live.len() + frontier.len();
        let chunks = self.chunks.scan(sources, PAR_MIN_FRONTIER, |range, out| {
            let mut relax = |u: NodeId, (eff_u, center_u, true_u): Snapshot| {
                if !eff_below_threshold(eff_u, threshold) || center_u == NO_CENTER {
                    return;
                }
                let src_plus = u + 1;
                let mut open = false;
                graph.neighbors(u).for_each(|(v, w)| {
                    if cells.is_frozen(v as usize) {
                        return;
                    }
                    open = true;
                    // Light edges only: under `CLUSTER2`'s negative credits
                    // `eff_u + w ≤ Δ` does not imply `w ≤ Δ`.
                    let wd = Dist::from(w);
                    if wd > threshold {
                        return;
                    }
                    let cand = eff_u.saturating_add(wd as i64);
                    if !eff_within_threshold(cand, threshold) {
                        return;
                    }
                    out.proposals += 1;
                    let true_v = true_u.saturating_add(wd);
                    if let Proposed::Improved { newly_reached } =
                        cells.propose(v as usize, cand, center_u, src_plus, true_v)
                    {
                        out.newly_reached += usize::from(newly_reached);
                        if !touched[v as usize].swap(true, Ordering::Relaxed) {
                            out.updated.push(v);
                        }
                    }
                });
                // Frozen nodes never thaw: a frozen source with no unfrozen
                // neighbour will never propose again.
                if !open && cells.is_frozen(u as usize) {
                    out.interior.push(u);
                }
            };
            // Positions below `live.len()` are live sources, the rest index
            // the frontier. A live source is frozen and a frozen node is
            // never a proposal target, so its cell holds still all wave.
            let split = live.len();
            for &u in &live[range.start.min(split)..range.end.min(split)] {
                relax(u, cells.read(u as usize));
            }
            let listed = range.start.saturating_sub(split)..range.end.saturating_sub(split);
            for (&u, &state) in frontier[listed.clone()].iter().zip(&snap[listed]) {
                relax(u, state);
            }
            out.updated.sort_unstable();
        });

        // Chunks cover ascending source ranges, so the interior sources
        // arrive in order. The updated nodes arrive as one ascending run per
        // chunk; merging the runs gives the canonical ascending frontier
        // order every tie-break relies on.
        let (mut proposals, mut newly_reached) = (0, 0);
        self.next.clear();
        self.run_ends.clear();
        for chunk in chunks {
            proposals += std::mem::take(&mut chunk.proposals);
            newly_reached += std::mem::take(&mut chunk.newly_reached);
            if !chunk.updated.is_empty() {
                self.next.append(&mut chunk.updated);
                self.run_ends.push(self.next.len());
            }
            self.interior.append(&mut chunk.interior);
        }
        merge_runs(&mut self.next, &mut self.merge_buf, &mut self.run_ends);
        // One pass over the updated nodes — O(updated), never O(n): reset
        // the per-wave marks, settle, and snapshot the next wave's frontier.
        let (cells, touched) = (&self.cells, &self.touched);
        snapshot(cells, &self.next, &mut self.snap, |v| {
            touched[v].store(false, Ordering::Relaxed);
            cells.settle(v);
        });
        tracker.add_round();
        tracker.add_messages(proposals);
        tracker.add_node_updates(self.next.len() as u64);
        newly_reached
    }
}

/// Writes the state of every node of `nodes` into `snap`, entry for entry,
/// after running `prepare` on the node: one parallel pass.
fn snapshot(
    cells: &AtomicGrowCells,
    nodes: &[NodeId],
    snap: &mut Vec<Snapshot>,
    prepare: impl Fn(usize) + Send + Sync,
) {
    // Growing the buffer writes only its new tail; every entry is
    // overwritten below.
    snap.resize(nodes.len(), (0, 0, 0));
    snap.par_chunks_mut(PAR_MIN_LIST).zip(nodes.par_chunks(PAR_MIN_LIST)).for_each(
        |(entries, nodes)| {
            for (entry, &v) in entries.iter_mut().zip(nodes) {
                prepare(v as usize);
                *entry = cells.read(v as usize);
            }
        },
    );
}

/// Executes one Δ-growing step from `frontier`, charging it to `tracker` as
/// one MR round.
///
/// `threshold` is the growth threshold `Δ`, an unsigned distance, and also
/// the heaviest traversable (light) edge weight. Effective distances stay
/// signed (`CLUSTER2` sources carry a rescaled, possibly negative credit)
/// and are compared across the signedness boundary with
/// [`eff_below_threshold`] / [`eff_within_threshold`], so a `Δ` past
/// `i64::MAX` — reachable via Δ-doubling on massive heavy graphs — no longer
/// wraps negative and silently stops growth.
///
/// Returns the nodes whose state changed (the next frontier). Frozen nodes
/// are never updated; they only act as sources.
///
/// `frontier` must be sorted ascending (the order every frontier in this
/// workspace is produced in: initial frontiers scan node ids upward and each
/// step returns its updated set sorted). The deterministic `true_dist`
/// tie-break — first proposal in frontier order among equal `(eff, center)`
/// keys, the MR reducer's rule — is realized in place as smallest-source-id,
/// which coincides with frontier order only when the frontier is sorted; on
/// an unsorted frontier this function and the MR reducer could legitimately
/// disagree on the payload of a tied target.
///
/// This entry point loads and stores the full state around a single wave; a
/// multi-wave growth should go through [`partial_growth`], which keeps the
/// state resident in the scratch's atomic cells across waves.
// lint:allow(dead-pub): single-wave test entry point; the equivalence suites
// drive it wave by wave against the literal MR step, production grows
// through `GrowScratch`.
pub fn delta_growing_step<G: NeighborSource>(
    graph: &G,
    threshold: Dist,
    state: &mut GrowState,
    frontier: &[NodeId],
    tracker: &CostTracker,
    scratch: &mut GrowScratch,
) -> Vec<NodeId> {
    debug_assert!(
        frontier.windows(2).all(|pair| pair[0] <= pair[1]),
        "delta_growing_step requires a sorted frontier"
    );
    scratch.ensure(state.len());
    scratch.cells.load_from(state);
    scratch.frontier.clear();
    scratch.frontier.extend_from_slice(frontier);
    scratch.snapshot_frontier();
    scratch.wave(graph, threshold, false, tracker);
    scratch.interior.clear();
    scratch.cells.store_into(state);
    scratch.next.clone()
}

/// Repeats Δ-growing steps until no state is updated, until
/// `stop_at_reached` unfrozen nodes have been reached, or until `cancel`
/// fires. Each step is charged as one MR round to `tracker`, with its
/// proposals as messages and its updates as node updates.
///
/// The initial frontier is every node with a finite effective distance below
/// the threshold (centers and, in `CLUSTER2`, rescaled covered sources). The
/// state is loaded into `scratch`'s atomic cells once, every wave relaxes in
/// place, and the result is stored back once at the end. `CLUSTER` and
/// `CLUSTER2` run the same waves over state kept resident in the scratch.
///
/// The cooperative [`CancelToken`] is polled once per Δ-growing wave.
/// Stopping between waves leaves a *consistent partial growth*: every applied
/// relaxation is a genuine improvement, distances remain upper bounds on the
/// true center distances, and nodes the growth never reached stay uncovered —
/// the callers' singleton fallback turns that into a valid (if coarse)
/// clustering.
// lint:allow(dead-pub): test entry point that grows a caller's `GrowState`;
// this crate's and `cldiam-testkit`'s unit tests, `prop_cluster_equivalence.rs`
// and the root cluster suite drive it. CLUSTER and CLUSTER2 grow the
// scratch-resident state instead.
pub fn partial_growth<G: NeighborSource>(
    graph: &G,
    threshold: Dist,
    state: &mut GrowState,
    stop_at_reached: Option<usize>,
    tracker: &CostTracker,
    scratch: &mut GrowScratch,
    cancel: &CancelToken,
) -> GrowthOutcome {
    // Unfrozen nodes already reached (eff ≤ threshold ⇒ reached); the waves
    // keep the count incrementally — a node's first assignment is a unique
    // event, so it stays exact without O(n) recounts between waves.
    let reached = state.count_reached_unfrozen();
    let idle = GrowthOutcome { steps: 0, reached_unfrozen: reached };
    if stop_at_reached.is_some_and(|target| reached >= target) {
        return idle;
    }

    // Initial frontier: every potential source, in ascending node order.
    scratch.ensure(state.len());
    scratch.frontier.clear();
    scratch.frontier.extend((0..state.len() as NodeId).filter(|&u| {
        eff_below_threshold(state.eff[u as usize], threshold)
            && state.center[u as usize] != NO_CENTER
    }));
    if scratch.frontier.is_empty() {
        return idle;
    }
    scratch.cells.load_from(state);
    scratch.snapshot_frontier();
    let outcome = scratch.grow(graph, threshold, false, reached, stop_at_reached, tracker, cancel);
    scratch.interior.clear();
    scratch.cells.store_into(state);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EFF_INFINITY;
    use cldiam_graph::{Graph, Weight};
    use cldiam_mr::CostMetrics;

    /// The path `0 - 1 - … - k` whose edge `{i, i+1}` weighs `weights[i]`.
    fn weighted_path(weights: &[Weight]) -> Graph {
        let edges: Vec<_> =
            weights.iter().enumerate().map(|(i, &w)| (i as NodeId, i as NodeId + 1, w)).collect();
        Graph::from_edges(weights.len() + 1, &edges)
    }

    fn init_state_with_center(n: usize, center: NodeId) -> GrowState {
        let mut s = GrowState::new(n);
        s.set_center(center);
        s
    }

    /// `partial_growth` from a fresh scratch; returns the outcome and the
    /// costs it charged.
    fn grow(
        graph: &Graph,
        threshold: Dist,
        state: &mut GrowState,
        stop_at_reached: Option<usize>,
    ) -> (GrowthOutcome, CostMetrics) {
        let tracker = CostTracker::new();
        let never = CancelToken::never();
        let outcome = partial_growth(
            graph,
            threshold,
            state,
            stop_at_reached,
            &tracker,
            &mut GrowScratch::new(),
            &never,
        );
        (outcome, tracker.snapshot())
    }

    /// One Δ-growing step from a fresh scratch; returns the updated nodes and
    /// the costs it charged.
    fn step(
        graph: &Graph,
        threshold: Dist,
        state: &mut GrowState,
        frontier: &[NodeId],
    ) -> (Vec<NodeId>, CostMetrics) {
        let tracker = CostTracker::new();
        let updated = delta_growing_step(
            graph,
            threshold,
            state,
            frontier,
            &tracker,
            &mut GrowScratch::new(),
        );
        (updated, tracker.snapshot())
    }

    /// `GrowScratch::partial_growth` over the resident state, never
    /// cancelled; returns the outcome and the costs it charged.
    fn grow_resident(
        scratch: &mut GrowScratch,
        graph: &Graph,
        threshold: Dist,
        stop_at_reached: Option<usize>,
    ) -> (GrowthOutcome, CostMetrics) {
        let tracker = CostTracker::new();
        let outcome = scratch.partial_growth(
            graph,
            threshold,
            stop_at_reached,
            &tracker,
            &CancelToken::never(),
        );
        (outcome, tracker.snapshot())
    }

    #[test]
    fn freeze_reached_merges_the_stage_into_the_live_list() {
        // Stage 1 reaches 5 and 2, stage 2 reaches 7, 0 and 3: each freeze
        // moves its nodes from the uncovered list into the live one, and
        // both stay ascending.
        let mut scratch = GrowScratch::new();
        scratch.start(8);
        scratch.set_center(5);
        scratch.set_center(2);
        scratch.freeze_reached();
        assert_eq!(
            (&scratch.live[..], scratch.uncovered()),
            (&[2, 5][..], &[0, 1, 3, 4, 6, 7][..])
        );
        for u in [7, 0, 3] {
            scratch.set_center(u);
        }
        scratch.freeze_reached();
        assert_eq!(
            (&scratch.live[..], scratch.uncovered()),
            (&[0, 2, 3, 5, 7][..], &[1, 4, 6][..])
        );
    }

    #[test]
    fn growing_step_respects_threshold_and_light_edges() {
        // Path 0 -1- 1 -5- 2 -1- 3 with Δ = 3: the weight-5 edge is heavy and
        // must not be traversed.
        let g = weighted_path(&[1, 5, 1]);
        let mut s = init_state_with_center(4, 0);
        let (updated, costs) = step(&g, 3, &mut s, &[0]);
        assert_eq!(updated, vec![1]);
        assert_eq!((costs.rounds, costs.messages, costs.node_updates), (1, 1, 1));
        assert_eq!(s.center[1], 0);
        assert_eq!(s.eff[1], 1);
        assert_eq!(s.eff[2], EFF_INFINITY);
    }

    #[test]
    fn growing_step_enforces_distance_budget() {
        // Edges all light (weight 2) but Δ = 3 allows only one hop.
        let g = weighted_path(&[2, 2, 2]);
        let mut s = init_state_with_center(4, 0);
        let (updated, _) = step(&g, 3, &mut s, &[0]);
        assert_eq!(updated, vec![1]);
        let (updated2, _) = step(&g, 3, &mut s, &updated);
        // 0 -> 1 costs 2; 1 -> 2 would cost 4 > 3: no growth.
        assert!(updated2.is_empty());
    }

    #[test]
    fn tie_break_prefers_smaller_distance_then_smaller_center() {
        // Node 1 is reachable from center 0 (weight 4) and center 2 (weight 2).
        let g = cldiam_graph::Graph::from_edges(3, &[(0, 1, 4), (2, 1, 2)]);
        let mut s = GrowState::new(3);
        s.set_center(0);
        s.set_center(2);
        step(&g, 10, &mut s, &[0, 2]);
        assert_eq!(s.center[1], 2);
        assert_eq!(s.eff[1], 2);

        // Equal distances: the smaller center index wins.
        let g2 = cldiam_graph::Graph::from_edges(3, &[(0, 1, 3), (2, 1, 3)]);
        let mut s2 = GrowState::new(3);
        s2.set_center(0);
        s2.set_center(2);
        step(&g2, 10, &mut s2, &[0, 2]);
        assert_eq!(s2.center[1], 0);
    }

    #[test]
    fn frozen_nodes_are_sources_but_not_targets() {
        let g = weighted_path(&[1, 1]);
        let mut s = GrowState::new(3);
        s.set_center(0);
        s.center[1] = 0;
        s.eff[1] = 1;
        s.true_dist[1] = 1;
        s.freeze_reached();
        // New stage: node 1 is a frozen source with credit 0; node 0 frozen too.
        s.eff[0] = 0;
        s.eff[1] = 0;
        let (updated, _) = step(&g, 5, &mut s, &[0, 1]);
        assert_eq!(updated, vec![2]);
        // Node 2 inherits node 1's cluster (center 0) and accumulates the true
        // distance through it.
        assert_eq!(s.center[2], 0);
        assert_eq!(s.true_dist[2], 2);
        // Frozen node 1 kept its original state.
        assert_eq!(s.eff[1], 0);
        assert_eq!(s.true_dist[1], 1);
    }

    #[test]
    fn partial_growth_runs_to_fixpoint() {
        let g = weighted_path(&[1, 1, 1, 1]);
        let mut s = init_state_with_center(5, 0);
        let (outcome, _) = grow(&g, 10, &mut s, None);
        assert_eq!(outcome.reached_unfrozen, 5);
        assert!(outcome.steps >= 4);
        assert_eq!(s.true_dist[4], 4);
    }

    #[test]
    fn partial_growth_stops_at_coverage_target() {
        let g = weighted_path(&[1, 1, 1, 1, 1, 1, 1, 1]);
        let mut s = init_state_with_center(9, 0);
        let (outcome, _) = grow(&g, 100, &mut s, Some(3));
        assert!(outcome.reached_unfrozen >= 3);
        assert!(
            outcome.reached_unfrozen < 9,
            "stopped early, reached {}",
            outcome.reached_unfrozen
        );
    }

    #[test]
    fn partial_growth_charges_tracker() {
        // From center 0 on the path 0 - 1 - 2 - 3, wave k reaches node k and
        // proposes back to node k - 1 too; the fourth wave reaches nothing.
        let g = weighted_path(&[1, 1, 1]);
        let mut s = init_state_with_center(4, 0);
        let (outcome, costs) = grow(&g, 10, &mut s, None);
        assert_eq!(outcome.steps, 4);
        assert_eq!((costs.rounds, costs.messages, costs.node_updates), (4, 6, 3));
    }

    #[test]
    fn threshold_past_i64_max_still_grows() {
        // Regression for the signed-Δ overflow: Δ-doubling caps at
        // 2·total_weight, which can exceed i64::MAX on massive heavy graphs.
        // The old `run.delta as i64` cast wrapped such a Δ negative, making
        // every frontier node fail the threshold test and silently stopping
        // all growth. With the unsigned threshold the growth must proceed
        // exactly as with any other huge Δ.
        let g = weighted_path(&[1, 1, 1]);
        let threshold: Dist = i64::MAX as Dist + 12_345;
        let mut s = init_state_with_center(4, 0);
        let (outcome, _) = grow(&g, threshold, &mut s, None);
        assert_eq!(outcome.reached_unfrozen, 4, "growth stopped under a Δ past i64::MAX");
        assert_eq!(s.true_dist[3], 3);
        // CLUSTER2-style negative credits keep working against the same Δ.
        let mut s2 = init_state_with_center(4, 0);
        s2.freeze_reached();
        s2.eff[0] = -7;
        let (outcome2, _) = grow(&g, threshold, &mut s2, None);
        assert_eq!(outcome2.reached_unfrozen, 3);
        assert_eq!(s2.eff[3], -4);
    }

    #[test]
    fn scratch_is_reusable_across_growths_and_graph_sizes() {
        let mut scratch = GrowScratch::new();
        for n in [4usize, 9, 4] {
            let g = weighted_path(&vec![1; n - 1]);
            let mut s = init_state_with_center(n, 0);
            let (tracker, never) = (CostTracker::new(), CancelToken::never());
            let outcome = partial_growth(&g, 100, &mut s, None, &tracker, &mut scratch, &never);
            assert_eq!(outcome.reached_unfrozen, n);
            assert_eq!(s.true_dist[n - 1], (n - 1) as Dist);
        }
    }

    #[test]
    fn cluster2_iteration_without_centers_or_live_sources_runs_its_empty_wave() {
        // Component {0, 1, 2} is covered in the first iteration; the isolated
        // node 3 is never drawn as a center.
        let g = cldiam_graph::Graph::from_edges(4, &[(0, 1, 1), (1, 2, 1)]);
        let mut scratch = GrowScratch::new();
        scratch.start(4);
        scratch.set_center(0);
        let (first, _) = grow_resident(&mut scratch, &g, 10, None);
        assert_eq!(first.reached_unfrozen, 3);
        scratch.freeze_reached();
        // Second iteration: the first wave scans the three sources and finds
        // them interior.
        scratch.credit_sources(|_, _| 0);
        let (second, costs) = grow_resident(&mut scratch, &g, 10, None);
        assert_eq!((second.steps, costs.messages), (1, 0));
        assert!(scratch.live.is_empty());
        scratch.freeze_reached();
        // Third iteration: no new center and no live source, but the unpruned
        // frontier (the three covered sources) is not empty, so the growth
        // still runs one empty wave: one round, one step, one checkpoint.
        scratch.credit_sources(|_, _| 0);
        let mut unpruned_state = scratch.cells.export();
        let runs = [true, false].map(|pruned| {
            let tracker = CostTracker::new();
            let token = CancelToken::with_check_limit(3);
            let outcome = if pruned {
                scratch.partial_growth(&g, 10, None, &tracker, &token)
            } else {
                let state = &mut unpruned_state;
                partial_growth(&g, 10, state, None, &tracker, &mut GrowScratch::new(), &token)
            };
            // The budget of three trips on the second checkpoint after the
            // growth: the growth itself used exactly one.
            let checks = (token.checkpoint(), token.checkpoint());
            let costs = tracker.snapshot();
            (outcome, (costs.rounds, costs.messages, costs.node_updates), checks)
        });
        let expected = GrowthOutcome { steps: 1, reached_unfrozen: 0 };
        assert_eq!(runs[0], (expected, (1, 0, 0), (false, true)));
        assert_eq!(runs[1], runs[0]);
    }

    #[test]
    fn a_source_behind_a_heavy_edge_stays_live_until_delta_grows() {
        // 0 -1- 1 -8- 2 -9- 3: stage 1 covers {0, 1} from center 0 at Δ = 2.
        let g = cldiam_graph::Graph::from_edges(4, &[(0, 1, 1), (1, 2, 8), (2, 3, 9)]);
        let mut scratch = GrowScratch::new();
        scratch.start(4);
        scratch.set_center(0);
        grow_resident(&mut scratch, &g, 2, None);
        scratch.freeze_reached();
        // Stage 2 at Δ = 2: source 0 is interior, but source 1 still has an
        // unfrozen neighbour across its (for now heavy) edge.
        scratch.credit_sources(|_, _| 0);
        scratch.set_center(3);
        let (stalled, costs) = grow_resident(&mut scratch, &g, 2, Some(2));
        assert_eq!((costs.messages, stalled.reached_unfrozen), (0, 1));
        assert_eq!(scratch.live, vec![1]);
        // Once Δ has doubled past the edge, source 1 claims node 2 for
        // cluster 0 before center 3 can.
        let (grown, costs) = grow_resident(&mut scratch, &g, 8, Some(2));
        assert_eq!((costs.messages, grown.reached_unfrozen), (1, 2));
        assert_eq!(scratch.cells.read(2), (8, 0, 9));
    }

    #[test]
    fn live_sources_keep_an_unfrozen_neighbour_after_each_stage_growth() {
        // CLUSTER-style stages on a mesh: one center per stage, Δ doubled
        // until half of the uncovered nodes are reached.
        let g = cldiam_gen::mesh(12, cldiam_gen::WeightModel::UniformUnit, 5);
        let n = g.num_nodes();
        let mut scratch = GrowScratch::new();
        scratch.start(n);
        let mut delta = Dist::from(cldiam_graph::WEIGHT_SCALE);
        let mut pruned = 0;
        for stage in 0..4 {
            let uncovered = scratch.uncovered().to_vec();
            let covered = n - uncovered.len();
            let target = uncovered.len().div_ceil(2);
            scratch.credit_sources(|_, _| 0);
            scratch.set_center(uncovered[uncovered.len() / 2]);
            while grow_resident(&mut scratch, &g, delta, Some(target)).0.reached_unfrozen < target {
                delta *= 2;
            }
            for &u in &scratch.live {
                assert!(
                    g.neighbors(u).any(|(v, _)| !scratch.cells.is_frozen(v as usize)),
                    "stage {stage}: live source {u} has only frozen neighbours"
                );
            }
            pruned += covered - scratch.live.len();
            scratch.freeze_reached();
        }
        assert!(pruned > 0, "no interior source was pruned");
    }

    #[test]
    fn growing_matches_restricted_dijkstra_distances() {
        // With a single center, an unrestricted growth (huge Δ) must reproduce
        // exact shortest-path distances.
        let g = cldiam_gen::mesh(8, cldiam_gen::WeightModel::UniformUnit, 3);
        let mut s = init_state_with_center(g.num_nodes(), 0);
        grow(&g, Dist::MAX, &mut s, None);
        let sp = cldiam_sssp::dijkstra(&g, 0);
        for u in 0..g.num_nodes() {
            assert_eq!(s.true_dist[u], sp.dist[u], "node {u}");
            assert_eq!(s.eff[u], sp.dist[u] as i64, "node {u}");
        }
    }
}
