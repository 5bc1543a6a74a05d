//! The compressed adjacency tier: delta-varint CSR blocks.
//!
//! Each node's sorted neighbor list is stored as one byte block: the first
//! target as a zigzag varint of `v₀ − u` (neighbors are usually near their
//! source on renumbered meshes and road networks), every further target as a
//! varint of `gap − 1` (gaps are strictly positive in a sorted, duplicate-free
//! list), and weights coded next to their target by one of three schemes
//! chosen per graph at compression time:
//!
//! * **constant** — one distinct weight in the whole graph: zero bytes/arc;
//! * **palette** — ≤ 256 distinct weights: one byte indexing a sorted table;
//! * **varint** — the general case: LEB128 of the raw weight.
//!
//! Blocks are length-prefixed and grouped [`GROUP`] nodes per *base*: a
//! `u32` array holds the blob offset of every [`GROUP`]-th block, so
//! `neighbors(u)` is one base lookup plus at most `GROUP - 1` length-varint
//! skips — no per-node 8-byte offset.
//! Node ranges are cut into `k` shards at construction; each shard owns its
//! own bases + blob pair (and its own section in a `.cldg` v2 snapshot), the
//! scaffolding for a later shard-at-a-time streaming mode. Today every shard
//! is resident (or mapped) and results are bit-identical to the dense tier.
//!
//! Weight statistics (`min/max/avg/total`) are recorded at compression time
//! from the dense source so that `Δ` suggestion and bucket-ring sizing in the
//! engines see *exactly* the dense values — determinism across tiers depends
//! on it.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::csr::WeightStats;
use crate::io::varint::{encode_u64, read_varint, zigzag_decode, zigzag_encode};
use crate::mmap::Mmap;
use crate::source::NeighborSource;
use crate::storage::Storage;
use crate::weight::{Dist, NodeId, Weight};
use crate::Graph;

/// Nodes per base entry: one `u32` blob offset every `GROUP` blocks.
///
/// `neighbors(u)` pays `u % GROUP` length-prefix skips, so the group size
/// trades base-array bytes (4 / `GROUP` per node) against random-access
/// decode latency; 8 costs 0.5 B/node of bases. The benchmark's
/// `graph.decode_tax` metric (compressed ÷ dense time) measures what the
/// remaining skips cost.
pub(crate) const GROUP: usize = 8;

/// Maximum palette size (one-byte indices).
pub(crate) const MAX_PALETTE: usize = 256;

/// How arc weights are coded inside the neighbor blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum WeightCoding {
    /// Every edge has this weight; blocks store no weight bytes at all.
    Constant(Weight),
    /// At most [`MAX_PALETTE`] distinct weights; blocks store one-byte
    /// indices into this sorted table.
    Palette(Vec<Weight>),
    /// Fixed-width little-endian weights (1..=4 bytes, enough for the
    /// maximum weight): branch-free decode for high-entropy weights.
    Fixed(u8),
    /// Raw LEB128 weights.
    Varint,
}

impl WeightCoding {
    /// Picks the densest applicable coding for a weight multiset.
    fn choose(weights: &[Weight]) -> WeightCoding {
        let mut distinct = BTreeSet::new();
        for &w in weights {
            distinct.insert(w);
            if distinct.len() > MAX_PALETTE {
                return WeightCoding::beyond_palette(weights);
            }
        }
        match distinct.len() {
            1 => WeightCoding::Constant(*distinct.iter().next().unwrap()),
            0 => WeightCoding::Constant(1),
            _ => WeightCoding::Palette(distinct.into_iter().collect()),
        }
    }

    /// High-entropy fallback (more than [`MAX_PALETTE`] distinct weights):
    /// fixed-width bytes when they cost at most ~5% over LEB128 — uniform
    /// fixed-point weights land here, and Δ-stepping's relax loop decodes
    /// them without per-byte continuation branches — raw varints when the
    /// distribution is skewed enough that LEB128 is genuinely smaller.
    fn beyond_palette(weights: &[Weight]) -> WeightCoding {
        let width = weight_width(weights.iter().copied().max().unwrap_or(0));
        let fixed_total = weights.len() * usize::from(width);
        let varint_total: usize = weights.iter().map(|&w| varint_len(u64::from(w))).sum();
        if fixed_total <= varint_total + varint_total / 20 {
            WeightCoding::Fixed(width)
        } else {
            WeightCoding::Varint
        }
    }
}

/// Little-endian bytes needed to hold `w` (1..=4).
pub(crate) fn weight_width(w: Weight) -> u8 {
    (32 - w.leading_zeros()).max(1).div_ceil(8) as u8
}

/// Encoded LEB128 length of `v` (1..=10).
fn varint_len(v: u64) -> usize {
    ((64 - v.max(1).leading_zeros()).div_ceil(7)) as usize
}

/// One node-range shard: a base array (`u32` blob offset of every
/// [`GROUP`]-th block) plus the concatenated length-prefixed blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Shard {
    pub(crate) bases: Storage<u32>,
    pub(crate) blob: Storage<u8>,
}

/// An immutable undirected weighted graph stored as delta-varint CSR blocks.
///
/// Serves the exact same node/arc set as the [`Graph`] it was compressed
/// from, through the same [`NeighborSource`] interface, at a fraction of the
/// bytes. Construction goes through [`CompressedGraph::from_graph`] (or the
/// `.cldg` v2 loader); the directed tier is not supported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedGraph {
    num_nodes: usize,
    num_arcs: usize,
    /// Weight statistics of the dense source, preserved exactly.
    weight_stats: WeightStats,
    coding: WeightCoding,
    /// Nodes per shard (the last shard may be shorter); ≥ 1.
    nodes_per_shard: usize,
    shards: Vec<Shard>,
}

impl CompressedGraph {
    /// Compresses an undirected dense graph into `num_shards` node-range
    /// shards (clamped to `1..=num_nodes`).
    ///
    /// # Panics
    ///
    /// Panics if `graph` is directed, or if a shard blob would exceed
    /// `u32::MAX` bytes (use more shards).
    pub fn from_graph(graph: &Graph, num_shards: usize) -> CompressedGraph {
        assert!(!graph.is_directed(), "the compressed tier is undirected-only");
        let n = graph.num_nodes();
        let coding = WeightCoding::choose(graph.weights());
        let nodes_per_shard = shard_size(n, num_shards);
        let mut shards = Vec::new();
        let mut lo = 0usize;
        while lo < n || (n == 0 && shards.is_empty()) {
            let hi = (lo + nodes_per_shard).min(n);
            shards.push(encode_shard(graph, &coding, lo, hi));
            if hi == lo {
                break;
            }
            lo = hi;
        }
        CompressedGraph {
            num_nodes: n,
            num_arcs: graph.num_arcs(),
            weight_stats: graph.weight_stats(),
            coding,
            nodes_per_shard,
            shards,
        }
    }

    /// Reassembles a compressed graph from snapshot parts. Trusted input:
    /// the shards must have been produced by [`CompressedGraph::from_graph`]
    /// (directly or via a snapshot written from it).
    pub(crate) fn from_parts(
        num_nodes: usize,
        num_arcs: usize,
        weight_stats: WeightStats,
        coding: WeightCoding,
        nodes_per_shard: usize,
        shards: Vec<Shard>,
    ) -> CompressedGraph {
        assert!(nodes_per_shard >= 1);
        assert_eq!(shards.len(), shard_count(num_nodes, nodes_per_shard));
        CompressedGraph { num_nodes, num_arcs, weight_stats, coding, nodes_per_shard, shards }
    }

    /// Decompresses back into a dense [`Graph`], re-validating every CSR
    /// invariant on the way (this is the untrusted-input integrity check of
    /// the buffered snapshot loader).
    pub fn to_graph(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.num_nodes + 1);
        let mut targets = Vec::with_capacity(self.num_arcs);
        let mut weights = Vec::with_capacity(self.num_arcs);
        offsets.push(0);
        for u in 0..self.num_nodes as NodeId {
            for (v, w) in self.neighbors(u) {
                targets.push(v);
                weights.push(w);
            }
            offsets.push(targets.len());
        }
        Graph::from_csr(offsets, targets, weights)
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of stored arcs (twice the undirected edge count).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_arcs / 2
    }

    /// Number of node-range shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards [`CompressedGraph::from_graph`] produces for `n`
    /// nodes and a request of `k` shards (the request is a ceiling: uniform
    /// node ranges may need fewer).
    pub fn from_graph_shard_count(n: usize, k: usize) -> usize {
        shard_count(n, shard_size(n, k))
    }

    /// Nodes per shard (the last shard may hold fewer).
    #[inline]
    pub fn nodes_per_shard(&self) -> usize {
        self.nodes_per_shard
    }

    /// Decoded neighbor block of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> CompressedNeighbors<'_> {
        let ui = u as usize;
        let shard = &self.shards[ui / self.nodes_per_shard];
        let local = ui % self.nodes_per_shard;
        let blob: &[u8] = &shard.blob;
        let mut rest = &blob[shard.bases[local / GROUP] as usize..];
        // Skip the preceding blocks of the group: read each length prefix
        // and jump over the payload.
        for _ in 0..local % GROUP {
            let len = read_varint(&mut rest) as usize;
            rest = &rest[len..];
        }
        let len = read_varint(&mut rest) as usize;
        let weights = match &self.coding {
            WeightCoding::Constant(w) => WeightRead::Constant(*w),
            WeightCoding::Palette(table) => WeightRead::Palette(table),
            WeightCoding::Fixed(width) => WeightRead::Fixed(*width),
            WeightCoding::Varint => WeightRead::Varint,
        };
        CompressedNeighbors { rest: &rest[..len], u, prev: 0, first: true, weights }
    }

    /// Compressed payload bytes (bases + blobs + palette): the number that
    /// goes up against [`Graph::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        let palette = match &self.coding {
            WeightCoding::Palette(table) => table.len() * std::mem::size_of::<Weight>(),
            _ => 0,
        };
        palette
            + self
                .shards
                .iter()
                .map(|s| s.bases.len() * std::mem::size_of::<u32>() + s.blob.len())
                .sum::<usize>()
    }

    /// Snapshot-writer accessors.
    pub(crate) fn coding(&self) -> &WeightCoding {
        &self.coding
    }

    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    pub(crate) fn weight_stats(&self) -> WeightStats {
        self.weight_stats
    }
}

/// Shard length for `n` nodes in (at most) `k` shards.
fn shard_size(n: usize, k: usize) -> usize {
    let k = k.clamp(1, n.max(1));
    n.div_ceil(k).max(1)
}

/// Number of shards produced by [`shard_size`]-sized cuts.
fn shard_count(n: usize, nodes_per_shard: usize) -> usize {
    n.div_ceil(nodes_per_shard).max(1)
}

/// Encodes the blocks of nodes `lo..hi` into one shard.
fn encode_shard(graph: &Graph, coding: &WeightCoding, lo: usize, hi: usize) -> Shard {
    let mut bases = Vec::with_capacity((hi - lo).div_ceil(GROUP).max(1));
    let mut blob: Vec<u8> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    for (i, u) in (lo..hi).enumerate() {
        if i % GROUP == 0 {
            let base = u32::try_from(blob.len()).expect("shard blob exceeds u32 range");
            bases.push(base);
        }
        payload.clear();
        let mut prev: Option<NodeId> = None;
        for (v, w) in graph.neighbors(u as NodeId) {
            match prev {
                None => encode_u64(&mut payload, zigzag_encode(i64::from(v) - u as i64)),
                Some(p) => {
                    debug_assert!(v > p, "adjacency must be strictly increasing");
                    encode_u64(&mut payload, u64::from(v - p - 1));
                }
            }
            prev = Some(v);
            match coding {
                WeightCoding::Constant(c) => debug_assert_eq!(w, *c),
                WeightCoding::Palette(table) => {
                    let idx = table.binary_search(&w).expect("weight missing from palette");
                    payload.push(idx as u8);
                }
                WeightCoding::Fixed(width) => {
                    payload.extend_from_slice(&w.to_le_bytes()[..usize::from(*width)]);
                }
                WeightCoding::Varint => encode_u64(&mut payload, u64::from(w)),
            }
        }
        encode_u64(&mut blob, payload.len() as u64);
        blob.extend_from_slice(&payload);
    }
    if bases.is_empty() {
        bases.push(0);
    }
    u32::try_from(blob.len()).expect("shard blob exceeds u32 range");
    Shard { bases: bases.into(), blob: blob.into() }
}

/// How the neighbor iterator reads weights.
#[derive(Clone, Copy, Debug)]
enum WeightRead<'a> {
    Constant(Weight),
    Palette(&'a [Weight]),
    Fixed(u8),
    Varint,
}

/// Streaming decoder of one node's neighbor block.
#[derive(Clone, Debug)]
pub struct CompressedNeighbors<'a> {
    /// Remaining payload of this node's block.
    rest: &'a [u8],
    u: NodeId,
    prev: NodeId,
    first: bool,
    weights: WeightRead<'a>,
}

/// Consumes a `WIDTH`-byte little-endian weight from the front of `rest`.
#[inline(always)]
fn read_fixed<const WIDTH: usize>(rest: &mut &[u8]) -> Weight {
    let (chunk, tail) = rest.split_first_chunk::<WIDTH>().expect("truncated fixed-width weight");
    *rest = tail;
    let mut buf = [0u8; 4];
    buf[..WIDTH].copy_from_slice(chunk);
    Weight::from_le_bytes(buf)
}

impl<'a> CompressedNeighbors<'a> {
    /// Shared arc loop with the weight reader monomorphized in: the coding
    /// dispatch happens once per block (in [`Iterator::fold`]), not once per
    /// arc, which is what keeps internal iteration — the relax loops — close
    /// to dense-slice speed.
    #[inline]
    fn fold_with<B, F, W>(mut self, init: B, mut f: F, mut read_weight: W) -> B
    where
        F: FnMut(B, (NodeId, Weight)) -> B,
        W: FnMut(&mut &'a [u8]) -> Weight,
    {
        let mut acc = init;
        while !self.rest.is_empty() {
            let raw = read_varint(&mut self.rest);
            let v = if self.first {
                self.first = false;
                (i64::from(self.u) + zigzag_decode(raw)) as NodeId
            } else {
                self.prev + 1 + raw as NodeId
            };
            self.prev = v;
            let w = read_weight(&mut self.rest);
            acc = f(acc, (v, w));
        }
        acc
    }
}

impl<'a> Iterator for CompressedNeighbors<'a> {
    type Item = (NodeId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, Weight)> {
        if self.rest.is_empty() {
            return None;
        }
        let raw = read_varint(&mut self.rest);
        let v = if self.first {
            self.first = false;
            (i64::from(self.u) + zigzag_decode(raw)) as NodeId
        } else {
            self.prev + 1 + raw as NodeId
        };
        self.prev = v;
        let w = match self.weights {
            WeightRead::Constant(w) => w,
            WeightRead::Palette(table) => {
                let (&idx, tail) = self.rest.split_first().expect("truncated palette index");
                self.rest = tail;
                table[idx as usize]
            }
            WeightRead::Fixed(width) => match width {
                1 => read_fixed::<1>(&mut self.rest),
                2 => read_fixed::<2>(&mut self.rest),
                3 => read_fixed::<3>(&mut self.rest),
                _ => read_fixed::<4>(&mut self.rest),
            },
            WeightRead::Varint => read_varint(&mut self.rest) as Weight,
        };
        Some((v, w))
    }

    /// Internal iteration (`for_each`, `sum`, collectors) dispatches on the
    /// weight coding once per block and then runs one tight loop per coding.
    fn fold<B, F>(self, init: B, f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        match self.weights {
            WeightRead::Constant(w) => self.fold_with(init, f, move |_| w),
            WeightRead::Palette(table) => self.fold_with(init, f, move |rest| {
                let (&idx, tail) = rest.split_first().expect("truncated palette index");
                *rest = tail;
                table[idx as usize]
            }),
            WeightRead::Fixed(width) => match width {
                1 => self.fold_with(init, f, read_fixed::<1>),
                2 => self.fold_with(init, f, read_fixed::<2>),
                3 => self.fold_with(init, f, read_fixed::<3>),
                _ => self.fold_with(init, f, read_fixed::<4>),
            },
            WeightRead::Varint => self.fold_with(init, f, |rest| read_varint(rest) as Weight),
        }
    }
}

impl NeighborSource for CompressedGraph {
    type Neighbors<'a> = CompressedNeighbors<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> CompressedNeighbors<'_> {
        CompressedGraph::neighbors(self, u)
    }

    fn min_weight(&self) -> Option<Weight> {
        self.weight_stats.min_weight(self.num_arcs)
    }

    fn max_weight(&self) -> Option<Weight> {
        self.weight_stats.max_weight(self.num_arcs)
    }

    fn avg_weight(&self) -> Option<Weight> {
        self.weight_stats.avg_weight(self.num_arcs)
    }

    fn total_weight(&self) -> Dist {
        self.weight_stats.total_weight(false)
    }

    fn memory_bytes(&self) -> usize {
        CompressedGraph::memory_bytes(self)
    }
}

/// Maps every shard payload of a snapshot through [`Arc<Mmap>`]-backed
/// storage — used by the v2 loader (the `pub(crate)` seam keeping mmap
/// details out of this module's encoding logic).
pub(crate) fn mapped_shard(
    map: &Arc<Mmap>,
    bases_offset: usize,
    bases_len: usize,
    blob_offset: usize,
    blob_len: usize,
) -> Option<Shard> {
    let bases = Storage::mapped(Arc::clone(map), bases_offset, bases_len)?;
    let blob = Storage::mapped(Arc::clone(map), blob_offset, blob_len)?;
    Some(Shard { bases, blob })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn assert_equivalent(graph: &Graph, compressed: &CompressedGraph) {
        assert_eq!(compressed.num_nodes(), graph.num_nodes());
        assert_eq!(compressed.num_arcs(), graph.num_arcs());
        assert_eq!(compressed.num_edges(), graph.num_edges());
        for u in graph.nodes() {
            let dense: Vec<_> = graph.neighbors(u).collect();
            let packed: Vec<_> = compressed.neighbors(u).collect();
            assert_eq!(packed, dense, "adjacency of node {u} differs");
            assert_eq!(NeighborSource::degree(compressed, u), graph.degree(u));
        }
        assert_eq!(NeighborSource::min_weight(compressed), graph.min_weight());
        assert_eq!(NeighborSource::max_weight(compressed), graph.max_weight());
        assert_eq!(NeighborSource::avg_weight(compressed), graph.avg_weight());
        assert_eq!(NeighborSource::total_weight(compressed), graph.total_weight());
        assert_eq!(&compressed.to_graph(), graph);
    }

    fn ring(n: usize, weight_of: impl Fn(usize) -> Weight) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            b.add_edge(u as NodeId, ((u + 1) % n) as NodeId, weight_of(u));
        }
        // A long chord exercises large first-neighbor deltas.
        b.add_edge(0, (n / 2) as NodeId, weight_of(0));
        b.build()
    }

    #[test]
    fn constant_weight_graphs_store_no_weight_bytes() {
        let g = ring(40, |_| 7);
        let c = CompressedGraph::from_graph(&g, 1);
        assert!(matches!(c.coding(), WeightCoding::Constant(7)));
        assert_equivalent(&g, &c);
        assert!(c.memory_bytes() < g.memory_bytes() / 3);
    }

    #[test]
    fn small_weight_sets_use_a_palette() {
        let g = ring(40, |u| 10 + (u % 5) as Weight);
        let c = CompressedGraph::from_graph(&g, 3);
        assert!(matches!(c.coding(), WeightCoding::Palette(t) if t.len() == 5));
        assert_equivalent(&g, &c);
    }

    #[test]
    fn skewed_wide_weight_ranges_fall_back_to_varints() {
        // > MAX_PALETTE distinct values, almost all of them one or two
        // LEB128 bytes, with outliers forcing a 4-byte fixed width: varints
        // are genuinely smaller here.
        let g = ring(300, |u| if u % 97 == 0 { 50_000_000 } else { 1 + u as Weight });
        let c = CompressedGraph::from_graph(&g, 4);
        assert!(matches!(c.coding(), WeightCoding::Varint));
        assert_equivalent(&g, &c);
    }

    #[test]
    fn high_entropy_weights_use_fixed_width_bytes() {
        // > MAX_PALETTE distinct three-varint-byte weights: the fixed coding
        // matches LEB128 byte for byte and decodes branch-free.
        let g = ring(300, |u| 500_000 + u as Weight);
        let c = CompressedGraph::from_graph(&g, 4);
        assert!(matches!(c.coding(), WeightCoding::Fixed(3)));
        assert_equivalent(&g, &c);
    }

    #[test]
    fn sharding_never_changes_the_adjacency() {
        let g = ring(97, |u| 1 + (u % 9) as Weight);
        for shards in [1, 2, 3, 7, 16, 97, 1000] {
            let c = CompressedGraph::from_graph(&g, shards);
            assert!(c.num_shards() <= shards.max(1));
            assert_equivalent(&g, &c);
        }
    }

    #[test]
    fn empty_and_edgeless_graphs_compress() {
        let empty = Graph::empty(0);
        let c = CompressedGraph::from_graph(&empty, 4);
        assert_eq!(c.num_nodes(), 0);
        assert_eq!(&c.to_graph(), &empty);

        let isolated = Graph::empty(5);
        let c = CompressedGraph::from_graph(&isolated, 2);
        assert_equivalent(&isolated, &c);
        assert_eq!(NeighborSource::min_weight(&c), None);
        assert_eq!(NeighborSource::avg_weight(&c), None);
    }

    #[test]
    fn group_boundaries_are_exact() {
        // Degrees straddling the 16-node group boundary: stars at nodes
        // 15/16/17 with varying degrees.
        let mut b = GraphBuilder::new(64);
        for u in 0..63u32 {
            b.add_edge(u, u + 1, 3);
        }
        for v in [1u32, 30, 40, 50, 60] {
            b.add_edge(15, v, 5);
            b.add_edge(17, v, 9);
        }
        let g = b.build();
        let c = CompressedGraph::from_graph(&g, 2);
        assert_equivalent(&g, &c);
    }
}
