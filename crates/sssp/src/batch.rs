//! Batched multi-source shortest paths.
//!
//! The paper's evaluation leans on *iterated* SSSP: the exact diameter and
//! the eccentricity ablations run one Dijkstra per node, the lower-bound
//! normalization runs chains of farthest-node sweeps, and the benchmark
//! harness sweeps Δ-stepping over a grid of bucket widths. Allocating full
//! per-source state (`dist` / `hops` / `parent` vectors plus a heap) for
//! every one of those runs dominates the runtime on small and medium graphs.
//!
//! This module provides the shared engine those drivers batch through:
//!
//! * [`DijkstraScratch`] — the one Dijkstra kernel behind every exact SSSP
//!   of the workspace: a reusable distance array plus two bucket queues,
//!   one of which a run picks from the graph's weight range (an `O(1)` read
//!   on both storage tiers).
//!   - A *band ring* when every arc weighs at least `2^s`, for
//!     `s = ⌊log₂ w_min⌋`, and the heaviest arc spans at most 62 bands of
//!     width `2^s`. Each entry goes to the slot of its band in a 64-slot
//!     ring with a one-word occupancy mask. No relaxation lands in the band
//!     being popped, so each of its entries is final and a pop takes any of
//!     them, with no redistribution. This is Δ-stepping with Δ ≤ `w_min`,
//!     where every edge is heavy. Road networks take this path: the
//!     `road:1500x1500` LCC of generator seed 1 weighs `[242, 1925]`, 15
//!     bands of width 128.
//!   - A monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990)
//!     otherwise, e.g. for R-MAT's `[1, 10^6]`. A push is one append to the
//!     bucket indexed by the highest bit in which the key differs from the
//!     last popped key; a pop refills bucket 0 by redistributing the lowest
//!     non-empty bucket around its minimum. On the `road:1500x1500` LCC
//!     that moved each pushed entry 5.6 times; the band ring moves none,
//!     and cut the bounds engine's time on the compressed `road:700x700`
//!     LCC by a third (see README's *Performance* section).
//!
//!   Repeated runs are allocation-free after warm-up: the distance array is
//!   reset via the run's reached list (`O(reached)`, never `O(n)`) and the
//!   buckets keep their capacity. The eccentricity and farthest node are
//!   maxima kept as nodes settle, so they do not depend on the pop order
//!   within a band, and reading them is `O(1)`. Forward, backward and
//!   generic [`NeighborSource`] runs share one relax loop, which scans
//!   neighbours by internal iteration so the compressed tier decodes each
//!   block in one tight loop. It tracks distances only — no hop counts or
//!   parent pointers — because none of the batched consumers need them;
//!   use [`crate::dijkstra::dijkstra`] for the full shortest-path tree.
//! * [`ScratchPool`] — a lock-guarded free list of scratches shared by the
//!   rayon workers of a batch, so a batch over `k` sources allocates
//!   `O(min(k, threads))` scratches instead of `k`.
//! * [`multi_source_dijkstra`] / [`batched_eccentricities`] — the parallel
//!   drivers consumed by `exact_diameter`, `all_eccentricities` and the
//!   per-component sweep chains of `diameter_lower_bound`.
//!
//! Every quantity read out of a scratch ([`DijkstraScratch::eccentricity`],
//! [`DijkstraScratch::farthest_node`]) is a pure function of the source and
//! the graph, so batches are bit-identical at any thread count regardless of
//! which worker's scratch served which source.

use std::sync::Mutex;

use rayon::prelude::*;

use cldiam_graph::{Dist, Graph, NeighborSource, NodeId, Weight, INFINITY};

/// Which adjacency a directed scratch run traverses.
///
/// [`SsspDirection::Forward`] follows arcs `u → v` and computes distances
/// *from* the source; [`SsspDirection::Backward`] follows them in reverse
/// (via the reverse CSR) and computes distances *to* the source. On an
/// undirected graph the two coincide.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SsspDirection {
    /// Distances from the source along out-arcs.
    #[default]
    Forward,
    /// Distances to the source along in-arcs.
    Backward,
}

/// The queue of one Dijkstra run. Every pushed key is at least the last
/// popped one, and a pop returns an entry whose key no later push can
/// undercut: the [`RadixHeap`] pops a minimum, the [`BandRing`] any entry
/// of the lowest band.
trait SettleQueue {
    fn push(&mut self, key: Dist, node: NodeId);
    fn pop(&mut self) -> Option<(Dist, NodeId)>;
}

/// A monotone radix heap of `(key, node)` entries: every pushed key must be
/// at least the last popped one, which Dijkstra guarantees. Bucket `i > 0`
/// holds the keys whose highest bit differing from `last` is bit `i − 1`;
/// bucket 0 holds the keys equal to `last`.
#[derive(Debug)]
struct RadixHeap {
    buckets: [Vec<(Dist, NodeId)>; 65],
    /// Bit `i − 1` is set when bucket `i > 0` is non-empty.
    occupied: u64,
    last: Dist,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap { buckets: std::array::from_fn(|_| Vec::new()), occupied: 0, last: 0 }
    }
}

impl RadixHeap {
    /// Empties the heap and rewinds `last` to 0, keeping bucket capacity.
    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.occupied = 0;
        self.last = 0;
    }
}

impl SettleQueue for RadixHeap {
    #[inline]
    fn push(&mut self, key: Dist, node: NodeId) {
        debug_assert!(key >= self.last, "radix heap key {key} below last pop {}", self.last);
        let i = 64 - (key ^ self.last).leading_zeros() as usize;
        if i > 0 {
            self.occupied |= 1 << (i - 1);
        }
        self.buckets[i].push((key, node));
    }

    /// Pops an entry of minimum key (ties in no particular order).
    #[inline]
    fn pop(&mut self) -> Option<(Dist, NodeId)> {
        if self.buckets[0].is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let i = self.occupied.trailing_zeros() as usize + 1;
            self.occupied &= !(1 << (i - 1));
            let mut from = std::mem::take(&mut self.buckets[i]);
            self.last = from.iter().map(|&(key, _)| key).min().expect("occupied bucket");
            // Every key of bucket `i` agrees with the new `last` above bit
            // `i − 1`, so each lands in a bucket below `i`.
            for (key, node) in from.drain(..) {
                self.push(key, node);
            }
            self.buckets[i] = from;
        }
        self.buckets[0].pop()
    }
}

/// Slots of a [`BandRing`]: one per bit of its occupancy mask.
const BANDS: usize = 64;

/// The band shift `s` of a graph whose arc weights span `[lo, hi]`, if its
/// runs can settle whole bands on a [`BandRing`]; `None` selects the radix
/// heap.
///
/// With `s = ⌊log₂ lo⌋`, a band of width `2^s` is no wider than the
/// lightest arc, so settling a node of band `b` pushes only into bands
/// `b + 1 ..= b + (hi >> s) + 1`, and the queued entries never span more
/// than `(hi >> s) + 2` bands. The ring applies when they fit in its
/// [`BANDS`] slots. An arcless graph (`None`) queues only its source, at
/// shift 0.
fn band_shift(weights: Option<(Weight, Weight)>) -> Option<u32> {
    let Some((lo, hi)) = weights else { return Some(0) };
    let shift = lo.checked_ilog2()?;
    ((hi >> shift) as usize + 2 <= BANDS).then_some(shift)
}

/// A bucket queue over distance bands of width `2^shift`, for graphs whose
/// lightest arc weighs at least `2^shift` (see [`band_shift`]). Band `b`
/// lives in slot `b mod BANDS`. No relaxation from a node of the lowest
/// occupied band lands in that band, so each of its entries already holds
/// its node's final distance (or is stale): a pop takes the last entry of
/// that band, in no particular key order, and nothing is redistributed.
#[derive(Debug)]
struct BandRing {
    slots: [Vec<(Dist, NodeId)>; BANDS],
    /// Bit `i` is set when slot `i` is non-empty.
    occupied: u64,
    /// The band of the last pop: every queued entry lies in one of the
    /// `BANDS` bands from it on.
    band: Dist,
    shift: u32,
}

impl Default for BandRing {
    fn default() -> Self {
        BandRing { slots: std::array::from_fn(|_| Vec::new()), occupied: 0, band: 0, shift: 0 }
    }
}

impl BandRing {
    /// Empties the ring for bands of width `2^shift`, keeping slot capacity.
    fn clear(&mut self, shift: u32) {
        self.slots.iter_mut().for_each(Vec::clear);
        self.occupied = 0;
        self.band = 0;
        self.shift = shift;
    }
}

impl SettleQueue for BandRing {
    #[inline]
    fn push(&mut self, key: Dist, node: NodeId) {
        let band = key >> self.shift;
        debug_assert!(
            band >= self.band && band - self.band < BANDS as Dist,
            "band {band} outside the ring at band {}",
            self.band
        );
        let slot = band as usize % BANDS;
        self.occupied |= 1 << slot;
        self.slots[slot].push((key, node));
    }

    #[inline]
    fn pop(&mut self) -> Option<(Dist, NodeId)> {
        if self.occupied == 0 {
            return None;
        }
        // The lowest band is the first occupied slot at or after the last
        // pop's, counting around the ring.
        let from = (self.band as usize % BANDS) as u32;
        self.band += Dist::from(self.occupied.rotate_right(from).trailing_zeros());
        let slot = self.band as usize % BANDS;
        let entry = self.slots[slot].pop();
        if self.slots[slot].is_empty() {
            self.occupied &= !(1 << slot);
        }
        entry
    }
}

/// Dijkstra from `source` over the arcs `neighbors(u)` yields, settling in
/// `queue`'s order into `dist` (all [`INFINITY`] on entry) and listing every
/// reached node in `reached`. Returns the lexicographic max of
/// `(distance, node)` over the settled nodes.
fn settle_all<Q: SettleQueue, I>(
    queue: &mut Q,
    dist: &mut [Dist],
    reached: &mut Vec<NodeId>,
    source: NodeId,
    neighbors: impl Fn(NodeId) -> I,
) -> (Dist, NodeId)
where
    I: Iterator<Item = (NodeId, Weight)>,
{
    dist[source as usize] = 0;
    reached.push(source);
    queue.push(0, source);
    let mut farthest = (0, source);
    while let Some((d, u)) = queue.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        farthest = farthest.max((d, u));
        neighbors(u).for_each(|(v, w)| {
            let candidate = d + Dist::from(w);
            let slot = &mut dist[v as usize];
            if candidate < *slot {
                if *slot == INFINITY {
                    reached.push(v);
                }
                *slot = candidate;
                queue.push(candidate, v);
            }
        });
    }
    farthest
}

/// Reusable single-source shortest-path state: tentative distances, the
/// two settle queues, the reached list used for `O(reached)` resets, the
/// farthest settled node, and a seen-bitmap for sweep chains (see
/// [`DijkstraScratch::sweep_mark`]).
///
/// Every run — [`DijkstraScratch::run`] on any [`NeighborSource`] and both
/// directions of [`DijkstraScratch::run_directed`] — goes through one relax
/// loop, monomorphized per queue. A run picks its queue once, from the
/// graph's `O(1)` weight range: a ring of distance bands when the heaviest
/// arc spans at most 62 bands of width `2^⌊log₂ w_min⌋`, a radix heap
/// otherwise (see the module docs). A push appends to a bucket in
/// `O(1)`; stale entries are skipped on pop. The eccentricity and farthest
/// node are folded in as nodes settle, so [`DijkstraScratch::eccentricity`]
/// and [`DijkstraScratch::farthest_node`] are `O(1)` reads.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<Dist>,
    heap: RadixHeap,
    ring: BandRing,
    reached: Vec<NodeId>,
    /// Lexicographic max of `(distance, node)` over the settled nodes.
    farthest: (Dist, NodeId),
    swept: Vec<bool>,
    swept_list: Vec<NodeId>,
}

impl DijkstraScratch {
    /// Fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Dijkstra from `source`, leaving the distances resident in the
    /// scratch (read them with [`DijkstraScratch::distance`] /
    /// [`DijkstraScratch::eccentricity`] / [`DijkstraScratch::farthest_node`]
    /// until the next run). The previous run's state is reset in
    /// `O(previously reached)`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of `graph`.
    pub fn run<G: NeighborSource>(&mut self, graph: &G, source: NodeId) {
        let bands = band_shift(graph.min_weight().zip(graph.max_weight()));
        self.settle(graph.num_nodes(), bands, source, |u| graph.neighbors(u));
    }

    /// [`DijkstraScratch::run`] with an explicit traversal direction. A
    /// backward run relaxes in-arcs, so `distance(v)` afterwards is the
    /// shortest-path weight from `v` *to* the source.
    pub fn run_directed(&mut self, graph: &Graph, source: NodeId, direction: SsspDirection) {
        match direction {
            SsspDirection::Forward => self.run(graph, source),
            SsspDirection::Backward => {
                // In-arcs carry the same weights as the out-arcs.
                let bands = band_shift(graph.min_weight().zip(graph.max_weight()));
                self.settle(graph.num_nodes(), bands, source, |u| graph.in_neighbors(u))
            }
        }
    }

    /// Resets the scratch for a graph of `n` nodes and runs Dijkstra from
    /// `source` over the arcs `neighbors(u)` yields: on the band ring at
    /// shift `s` for `bands = Some(s)`, on the radix heap for `None`.
    fn settle<I>(
        &mut self,
        n: usize,
        bands: Option<u32>,
        source: NodeId,
        neighbors: impl Fn(NodeId) -> I,
    ) where
        I: Iterator<Item = (NodeId, Weight)>,
    {
        assert!((source as usize) < n, "source {source} out of range (n = {n})");
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
        }
        for v in self.reached.drain(..) {
            self.dist[v as usize] = INFINITY;
        }
        let Self { dist, heap, ring, reached, farthest, .. } = self;
        *farthest = match bands {
            Some(shift) => {
                ring.clear(shift);
                settle_all(ring, dist, reached, source, neighbors)
            }
            None => {
                heap.clear();
                settle_all(heap, dist, reached, source, neighbors)
            }
        };
    }

    /// Distance of `v` from the most recent run's source ([`INFINITY`] if
    /// unreachable).
    #[inline]
    pub fn distance(&self, v: NodeId) -> Dist {
        self.dist[v as usize]
    }

    /// Number of nodes reached by the most recent run (including the source).
    pub fn reached(&self) -> usize {
        self.reached.len()
    }

    /// Largest finite distance of the most recent run — the weighted
    /// eccentricity of its source within its component. `O(1)`: kept as
    /// nodes settle.
    pub fn eccentricity(&self) -> Dist {
        self.farthest.0
    }

    /// The node realizing [`DijkstraScratch::eccentricity`], with the same
    /// tie-break as [`crate::dijkstra::ShortestPaths::farthest_node`] (the
    /// largest node id among equally-far nodes), so sweep chains driven
    /// through a scratch follow the identical node sequence. Returns the
    /// source itself for a singleton component. `O(1)`.
    pub fn farthest_node(&self) -> NodeId {
        assert!(!self.reached.is_empty(), "farthest_node requires a completed run");
        self.farthest.1
    }

    /// Clears the sweep seen-bitmap in `O(previously marked)`. Call once
    /// before a sweep chain; the bitmap survives [`DijkstraScratch::run`]
    /// calls so chains can interleave runs and marks.
    pub fn sweep_clear(&mut self) {
        for v in self.swept_list.drain(..) {
            self.swept[v as usize] = false;
        }
    }

    /// Marks `v` as visited by the current sweep chain. Returns `true` when
    /// `v` was newly marked, `false` when it had already been seen — the
    /// O(1) replacement for the `Vec::contains` repeat check that made long
    /// sweep chains quadratic in their budget.
    pub fn sweep_mark(&mut self, v: NodeId) -> bool {
        if self.swept.len() <= v as usize {
            self.swept.resize(v as usize + 1, false);
        }
        if self.swept[v as usize] {
            return false;
        }
        self.swept[v as usize] = true;
        self.swept_list.push(v);
        true
    }
}

/// A free list of [`DijkstraScratch`]es shared across the workers of a batch.
/// `with` hands a scratch to the closure, creating one only when every
/// existing scratch is in use — so a parallel batch allocates one scratch per
/// *concurrently active* worker, not per source.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<DijkstraScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a pooled scratch, returning the scratch afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut DijkstraScratch) -> R) -> R {
        let mut scratch =
            self.pool.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        let result = f(&mut scratch);
        self.pool.lock().expect("scratch pool poisoned").push(scratch);
        result
    }
}

/// Runs one Dijkstra per source, in parallel over a shared [`ScratchPool`],
/// and maps each completed run through `f` (eccentricity, farthest node,
/// any distance reads). Results are returned in source order and are
/// bit-identical at any thread count.
pub fn multi_source_dijkstra<G: NeighborSource, T: Send>(
    graph: &G,
    sources: &[NodeId],
    f: impl Fn(NodeId, &DijkstraScratch) -> T + Sync,
) -> Vec<T> {
    let pool = ScratchPool::new();
    sources
        .par_iter()
        .map(|&source| {
            pool.with(|scratch| {
                scratch.run(graph, source);
                f(source, scratch)
            })
        })
        .collect()
}

/// Weighted eccentricity of every source, computed as one batched
/// multi-source Dijkstra over a shared scratch pool. Equivalent to (and
/// pinned against) the per-source loop
/// `sources.map(|s| dijkstra(graph, s).eccentricity())`, without the
/// per-source state allocations.
pub fn batched_eccentricities<G: NeighborSource>(graph: &G, sources: &[NodeId]) -> Vec<Dist> {
    multi_source_dijkstra(graph, sources, |_, scratch| scratch.eccentricity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use cldiam_gen::{mesh, WeightModel};

    /// Pushes `keys` (each at least the last pop) between pops and checks
    /// every pop against a sorted reference.
    fn check_radix_pops(heap: &mut RadixHeap, rounds: &[&[Dist]]) {
        let mut reference: Vec<Dist> = Vec::new();
        for keys in rounds {
            for (i, &key) in keys.iter().enumerate() {
                heap.push(key, i as NodeId);
            }
            reference.extend_from_slice(keys);
            reference.sort_unstable_by(|a, b| b.cmp(a));
            let expected = reference.pop().expect("a round pushes at least one key");
            assert_eq!(heap.pop().map(|(key, _)| key), Some(expected));
        }
        while let Some(expected) = reference.pop() {
            assert_eq!(heap.pop().map(|(key, _)| key), Some(expected));
        }
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn radix_heap_pops_in_sorted_order() {
        let top = 1 << 63;
        let mut heap = RadixHeap::default();
        check_radix_pops(
            &mut heap,
            &[
                // Equal keys (bucket 0), then keys sharing one bucket in
                // unsorted order, so the refill must split around the minimum.
                &[0, 0, 0],
                &[7, 5, 6, 5],
                &[9, 6, 12, 8],
                // XOR with `last` sets bit 63: bucket 64.
                &[top + 3, top, u64::MAX - 1, 40],
                &[top + 1, top + 1],
                &[u64::MAX - 1],
            ],
        );
        // A cleared heap rewinds `last`, so small keys are valid again.
        heap.clear();
        check_radix_pops(&mut heap, &[&[3, 1, 2], &[2, 4]]);
    }

    #[test]
    fn band_shift_takes_the_ring_exactly_while_the_bands_fit() {
        // Unit bands: weights up to 62 span 64 bands, 63 would span 65.
        assert_eq!(band_shift(Some((1, 62))), Some(0));
        assert_eq!(band_shift(Some((1, 63))), None);
        // A road-network range: 128 ≤ 242 < 256, and 1938 >> 7 = 15.
        assert_eq!(band_shift(Some((242, 1938))), Some(7));
        assert_eq!(band_shift(Some((1 << 31, u32::MAX))), Some(31));
        // The band is no wider than the lightest arc, whatever its low bits.
        assert_eq!(band_shift(Some(((1 << 20) - 1, 1 << 24))), Some(19));
        assert_eq!(band_shift(Some(((1 << 20) + 1, 1 << 24))), Some(20));
        // R-MAT's uniform weights spread far wider than 62 bands.
        assert_eq!(band_shift(Some((1, 1_000_000))), None);
        // An arcless graph queues only its source.
        let arcless = cldiam_graph::Graph::empty(3);
        assert_eq!(band_shift(arcless.min_weight().zip(arcless.max_weight())), Some(0));
        let mut scratch = DijkstraScratch::new();
        scratch.run(&arcless, 1);
        assert_eq!((scratch.distance(0), scratch.distance(1)), (INFINITY, 0));
        assert_eq!((scratch.eccentricity(), scratch.farthest_node()), (0, 1));
    }

    #[test]
    fn band_ring_pops_band_by_band_around_the_wrap() {
        // Bands of width 4. After the source, keys reach 63 bands ahead of
        // the last pop; once band 1 is popped, band 64 shares slot 0 with
        // the source's band 0.
        let mut ring = BandRing::default();
        ring.clear(2);
        ring.push(0, 0);
        assert_eq!(ring.pop(), Some((0, 0)));
        for (node, key) in [(1, 7), (2, 4), (3, 255), (4, 20)] {
            ring.push(key, node);
        }
        let (key, _) = ring.pop().expect("band 1 is queued");
        assert_eq!(key >> 2, 1);
        ring.push(258, 5);
        let mut bands = vec![key >> 2];
        while let Some((key, _)) = ring.pop() {
            bands.push(key >> 2);
        }
        assert_eq!(bands, [1, 1, 5, 63, 64]);
        // A cleared ring rewinds its band, so small keys are valid again.
        ring.clear(0);
        ring.push(0, 0);
        assert_eq!(ring.pop(), Some((0, 0)));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn scratch_matches_full_dijkstra_across_reused_runs() {
        let g = mesh(8, WeightModel::UniformUnit, 4);
        let mut scratch = DijkstraScratch::new();
        for source in [0u32, 17, 63, 0] {
            scratch.run(&g, source);
            let sp = dijkstra(&g, source);
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(scratch.distance(v), sp.dist[v as usize], "source {source} node {v}");
            }
            assert_eq!(scratch.eccentricity(), sp.eccentricity());
            assert_eq!(scratch.farthest_node(), sp.farthest_node());
            assert_eq!(scratch.reached(), sp.reached());
        }
    }

    #[test]
    fn scratch_resets_between_graphs_of_different_sizes() {
        let big = mesh(6, WeightModel::UniformUnit, 1);
        let small = cldiam_graph::Graph::from_edges(3, &[(0, 1, 4)]);
        let mut scratch = DijkstraScratch::new();
        scratch.run(&big, 0);
        scratch.run(&small, 0);
        assert_eq!(scratch.distance(1), 4);
        assert_eq!(scratch.distance(2), INFINITY);
        assert_eq!(scratch.eccentricity(), 4);
        assert_eq!(scratch.reached(), 2);
    }

    #[test]
    fn farthest_node_breaks_ties_like_the_full_dijkstra() {
        // Nodes 1 and 2 are both at distance 5; the larger id must win, as in
        // ShortestPaths::farthest_node.
        let g = cldiam_graph::Graph::from_edges(3, &[(0, 1, 5), (0, 2, 5)]);
        let mut scratch = DijkstraScratch::new();
        scratch.run(&g, 0);
        assert_eq!(scratch.farthest_node(), 2);
        assert_eq!(scratch.farthest_node(), dijkstra(&g, 0).farthest_node());
    }

    #[test]
    fn batched_eccentricities_match_the_sequential_loop() {
        let g = mesh(7, WeightModel::UniformUnit, 9);
        let sources: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let batched = batched_eccentricities(&g, &sources);
        let sequential: Vec<Dist> =
            sources.iter().map(|&s| dijkstra(&g, s).eccentricity()).collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn multi_source_results_come_back_in_source_order() {
        let g = mesh(5, WeightModel::UniformUnit, 2);
        let sources = [24u32, 0, 12];
        let tagged = multi_source_dijkstra(&g, &sources, |s, scratch| (s, scratch.distance(s)));
        assert_eq!(tagged, vec![(24, 0), (0, 0), (12, 0)]);
    }

    #[test]
    fn backward_run_matches_forward_on_reversed_graph() {
        // Directed cycle with a chord: 0→1 (2), 1→2 (3), 2→0 (5), 0→2 (9).
        let mut b = cldiam_graph::GraphBuilder::new_directed(3);
        b.add_arc(0, 1, 2);
        b.add_arc(1, 2, 3);
        b.add_arc(2, 0, 5);
        b.add_arc(0, 2, 9);
        let g = b.build();
        let r = g.reversed();
        let mut backward = DijkstraScratch::new();
        let mut forward = DijkstraScratch::new();
        for s in 0..3 {
            backward.run_directed(&g, s, SsspDirection::Backward);
            forward.run(&r, s);
            for v in 0..3 {
                assert_eq!(backward.distance(v), forward.distance(v), "source {s} node {v}");
            }
            assert_eq!(backward.eccentricity(), forward.eccentricity());
            assert_eq!(backward.farthest_node(), forward.farthest_node());
        }
    }

    #[test]
    fn directed_runs_on_undirected_graphs_are_direction_blind() {
        let g = mesh(5, WeightModel::UniformUnit, 8);
        let mut a = DijkstraScratch::new();
        let mut b = DijkstraScratch::new();
        a.run_directed(&g, 7, SsspDirection::Forward);
        b.run_directed(&g, 7, SsspDirection::Backward);
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(a.distance(v), b.distance(v));
        }
    }

    #[test]
    fn sweep_bitmap_marks_once_and_resets() {
        let mut scratch = DijkstraScratch::new();
        assert!(scratch.sweep_mark(5));
        assert!(!scratch.sweep_mark(5));
        assert!(scratch.sweep_mark(2));
        scratch.sweep_clear();
        assert!(scratch.sweep_mark(5));
        assert!(scratch.sweep_mark(2));
    }

    #[test]
    fn sweep_bitmap_survives_runs() {
        let g = mesh(4, WeightModel::UniformUnit, 1);
        let mut scratch = DijkstraScratch::new();
        scratch.sweep_clear();
        assert!(scratch.sweep_mark(0));
        scratch.run(&g, 0);
        assert!(!scratch.sweep_mark(0), "runs must not clear the sweep bitmap");
    }

    #[test]
    fn pool_reuses_scratches() {
        let pool = ScratchPool::new();
        let g = mesh(4, WeightModel::UniformUnit, 1);
        pool.with(|s| s.run(&g, 0));
        // The second borrow must see the pooled (already warmed) scratch.
        pool.with(|s| {
            assert!(s.reached() > 0);
            s.run(&g, 3);
            assert_eq!(s.distance(3), 0);
        });
    }
}
