//! Unsafe-free atomic fetch-min cells — the shared relaxation machinery of
//! the workspace.
//!
//! Both parallel hot paths of this repository are, at their core, *fetch-min
//! races*: many threads propose values for a node and the node's cell must
//! converge to the minimum proposal regardless of thread count or
//! scheduling. This module provides the two flavours they need:
//!
//! * [`MinDistCells`] — one `AtomicU64` per node, relaxed with the hardware
//!   `fetch_min`. This is what single-key relaxations (Δ-stepping SSSP in
//!   `cldiam-sssp`) use: a tentative distance is a single word, so the
//!   fetch-min is a single atomic RMW and the cell trivially converges to the
//!   minimum of all proposals.
//! * [`SeqMinCells`] — a *multi-word* fetch-min for keys too wide to pack
//!   into one portable atomic word. The Δ-growing hot path of `cldiam-core`
//!   relaxes the 128-bit key `(eff: i64, center: u32, src: u32)` with a
//!   `u64` payload riding along; each node carries a sequence word that turns
//!   its four field words into one logically-atomic value, seqlock style.
//!
//! # The seqlock protocol of [`SeqMinCells`]
//!
//! * even `seq` — the fields are consistent and may be read optimistically
//!   (validate by re-reading `seq` afterwards);
//! * a writer acquires the cell by CAS-ing `seq` from even to odd, stores the
//!   fields, and releases with `seq + 2`.
//!
//! The CAS loop in [`SeqMinCells::propose`] is therefore a fetch-min over the
//! lexicographic triple `(key1, key2, key3)`: a proposal is rejected without
//! ever taking the cell lock unless it strictly improves the current value,
//! every successful write strictly decreases the key, and the cell converges
//! to the global minimum of all proposals regardless of thread count or
//! scheduling. All of this is unsafe-free: the fields are ordinary
//! `std::sync::atomic` types.
//!
//! The fast-reject in both flavours relies on the same monotonicity argument:
//! a cell's value never increases over its lifetime, so any relaxed load
//! upper-bounds the final value — a proposal already above it can never win
//! and is dismissed with a single load.
//!
//! Both engines also collect, wave by wave, the nodes a parallel scan
//! improved; [`ChunkBuffers`] gives every chunk of the scan its own reused
//! output buffer, so the collection needs no shared cursor. Each chunk sorts
//! its own nodes, and [`merge_runs`] merges the chunks' runs into the
//! ascending order both engines' next frontier is kept in.

// Behind the `model-check` feature the atomics (and the spin hint) route
// through the cldiam-modelcheck shims, so the very code below — not a
// transcription of it — runs under the schedule-exploring model checker
// (see crates/modelcheck and the feature-gated tests/model_atomic.rs).
// Outside an exploration the shims delegate to std with zero overhead.
#[cfg(not(feature = "model-check"))]
use std::hint::spin_loop;
#[cfg(not(feature = "model-check"))]
use std::sync::atomic::{fence, AtomicI64, AtomicU32, AtomicU64, Ordering};

#[cfg(feature = "model-check")]
use cldiam_modelcheck::hint::spin_loop;
#[cfg(feature = "model-check")]
use cldiam_modelcheck::sync::atomic::{fence, AtomicI64, AtomicU32, AtomicU64, Ordering};

use std::ops::Range;

use rayon::prelude::*;

use crate::weight::{Dist, NodeId, INFINITY};

/// Chunks per pool thread of a [`ChunkBuffers::scan`] — the same
/// granularity the executor gives any other parallel loop.
const CHUNKS_PER_THREAD: usize = 4;

/// Reusable per-chunk output buffers for a parallel scan over `0..len`.
///
/// A scan is cut into contiguous chunks, in order, and each chunk fills its
/// own buffer, so collecting the scan's output needs no shared cursor (one
/// contended `fetch_add` per collected item). A chunk moves its buffer into
/// a local for the duration of the scan and writes it back once, so no two
/// threads write to the same cache line while scanning. The buffers, with
/// their capacity, are reused by the next scan: once they have grown to the
/// work's size, a scan allocates nothing.
#[derive(Debug, Default)]
pub struct ChunkBuffers<T> {
    bufs: Vec<T>,
}

impl<T: Default + Send> ChunkBuffers<T> {
    /// No buffers yet; they are created by the first scan that needs them.
    pub fn new() -> Self {
        ChunkBuffers { bufs: Vec::new() }
    }

    /// Cuts `0..len` into contiguous chunks of at least `min_len` positions
    /// (a single chunk on a one-thread pool), runs `scan(range, buffer)` for
    /// every chunk in parallel, and returns the chunks' buffers in chunk
    /// order. A buffer comes in as the previous caller left it, so drain it
    /// (`Vec::append`, `std::mem::take`) to keep its capacity and start the
    /// next scan empty.
    pub fn scan<F>(&mut self, len: usize, min_len: usize, scan: F) -> &mut [T]
    where
        F: Fn(Range<usize>, &mut T) + Sync + Send,
    {
        let threads = rayon::current_num_threads();
        let chunks = if threads <= 1 {
            1
        } else {
            (threads * CHUNKS_PER_THREAD).min(len / min_len.max(1)).max(1)
        };
        if self.bufs.len() < chunks {
            self.bufs.resize_with(chunks, T::default);
        }
        let bufs = &mut self.bufs[..chunks];
        bufs.par_iter_mut().enumerate().for_each(|(chunk, buf)| {
            let mut local = std::mem::take(buf);
            scan(len * chunk / chunks..len * (chunk + 1) / chunks, &mut local);
            *buf = local;
        });
        bufs
    }
}

/// Merges the ascending runs of `list`, which end at the offsets `ends`,
/// into one ascending list: pairwise, through `buf`, in `⌈log₂ runs⌉`
/// linear passes that allocate nothing once `buf` has grown. Leaves `ends`
/// with one entry, or none if `list` is empty.
pub fn merge_runs(list: &mut Vec<NodeId>, buf: &mut Vec<NodeId>, ends: &mut Vec<usize>) {
    while ends.len() > 1 {
        buf.clear();
        let mut start = 0;
        for pair in 0..ends.len().div_ceil(2) {
            let mid = ends[2 * pair];
            let end = ends.get(2 * pair + 1).copied().unwrap_or(mid);
            let (a, b) = (&list[start..mid], &list[mid..end]);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i] < b[j] {
                    buf.push(a[i]);
                    i += 1;
                } else {
                    buf.push(b[j]);
                    j += 1;
                }
            }
            buf.extend_from_slice(&a[i..]);
            buf.extend_from_slice(&b[j..]);
            ends[pair] = end;
            start = end;
        }
        ends.truncate(ends.len().div_ceil(2));
        std::mem::swap(list, buf);
    }
}

/// Per-node atomic tentative distances supporting concurrent fetch-min
/// relaxation. The cell block is grown lazily and never shrunk, so a single
/// instance can serve repeated runs (resetting only the entries a run
/// touched).
#[derive(Debug, Default)]
pub struct MinDistCells {
    cells: Vec<AtomicU64>,
}

impl MinDistCells {
    /// Empty cell block; sized by [`MinDistCells::ensure`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Grows the block to at least `n` cells, initializing new cells to
    /// [`INFINITY`]. Existing cells are untouched.
    pub fn ensure(&mut self, n: usize) {
        if self.cells.len() < n {
            self.cells.resize_with(n, || AtomicU64::new(INFINITY));
        }
    }

    /// Relaxed load of cell `v`.
    #[inline]
    pub fn load(&self, v: usize) -> Dist {
        self.cells[v].load(Ordering::Relaxed)
    }

    /// Relaxed store into cell `v` (quiescent use only: initialization and
    /// between-phase resets).
    #[inline]
    pub fn store(&self, v: usize, d: Dist) {
        self.cells[v].store(d, Ordering::Relaxed);
    }

    /// Atomically lowers cell `v` to `min(current, d)` and returns the value
    /// the cell held *before* the operation. The caller learns whether it
    /// improved the cell (`previous > d`) and whether it reached the node
    /// first (`previous == INFINITY`).
    ///
    /// Concurrent callers converge to the minimum proposal; the final cell
    /// value is independent of thread count and scheduling.
    #[inline]
    pub fn fetch_min(&self, v: usize, d: Dist) -> Dist {
        // Fast reject on a relaxed load: the value is non-increasing, so any
        // observed value upper-bounds the final one.
        let seen = self.cells[v].load(Ordering::Relaxed);
        if seen <= d {
            return seen;
        }
        self.cells[v].fetch_min(d, Ordering::Relaxed)
    }
}

/// Per-node multi-word fetch-min cells under the lexicographic order
/// `(key1, key2, key3)`, with an arbitrary `u64` payload riding along (the
/// payload is *not* part of the order — it is whatever the winning proposal
/// carried). See the module docs for the seqlock protocol.
#[derive(Debug, Default)]
pub struct SeqMinCells {
    /// Sequence word per node: even = consistent, odd = writer active.
    seq: Vec<AtomicU32>,
    /// Primary key component.
    key1: Vec<AtomicI64>,
    /// Secondary key component.
    key2: Vec<AtomicU32>,
    /// Final tie-break component. By convention `0` can be reserved by the
    /// caller to mean "settled before the current wave" (see
    /// [`SeqMinCells::settle`]).
    key3: Vec<AtomicU32>,
    /// Payload, not part of the key.
    payload: Vec<AtomicU64>,
}

impl SeqMinCells {
    /// Empty cell block; sized by [`SeqMinCells::resize`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Resizes the block to exactly `n` cells. Cell contents are unspecified
    /// afterwards; callers must [`SeqMinCells::set`] every cell before use.
    pub fn resize(&mut self, n: usize) {
        if self.seq.len() != n {
            self.seq = (0..n).map(|_| AtomicU32::new(0)).collect();
            self.key1 = (0..n).map(|_| AtomicI64::new(0)).collect();
            self.key2 = (0..n).map(|_| AtomicU32::new(0)).collect();
            self.key3 = (0..n).map(|_| AtomicU32::new(0)).collect();
            self.payload = (0..n).map(|_| AtomicU64::new(0)).collect();
        }
    }

    /// Quiescent initialization of cell `v` (no wave in flight): resets the
    /// sequence word and stores the value with relaxed ordering.
    #[inline]
    pub fn set(&self, v: usize, key1: i64, key2: u32, key3: u32, payload: u64) {
        self.seq[v].store(0, Ordering::Relaxed);
        self.key1[v].store(key1, Ordering::Relaxed);
        self.key2[v].store(key2, Ordering::Relaxed);
        self.key3[v].store(key3, Ordering::Relaxed);
        self.payload[v].store(payload, Ordering::Relaxed);
    }

    /// Quiescent read of `(key1, key2, payload)` for node `v` (no wave in
    /// flight).
    #[inline]
    pub fn read(&self, v: usize) -> (i64, u32, u64) {
        (
            self.key1[v].load(Ordering::Relaxed),
            self.key2[v].load(Ordering::Relaxed),
            self.payload[v].load(Ordering::Relaxed),
        )
    }

    /// Quiescent read of the primary key component of node `v` alone — for
    /// bulk per-field exports that would otherwise pay for all three words of
    /// [`SeqMinCells::read`].
    #[inline]
    pub fn read_key1(&self, v: usize) -> i64 {
        self.key1[v].load(Ordering::Relaxed)
    }

    /// Quiescent read of the secondary key component of node `v` alone.
    #[inline]
    pub fn read_key2(&self, v: usize) -> u32 {
        self.key2[v].load(Ordering::Relaxed)
    }

    /// Quiescent read of the payload of node `v` alone.
    #[inline]
    pub fn read_payload(&self, v: usize) -> u64 {
        self.payload[v].load(Ordering::Relaxed)
    }

    /// Consumes the block and returns every cell's secondary key and payload,
    /// in node order, and frees the other three columns. Where an atomic has
    /// its integer's size and alignment (every 64-bit target), the collects
    /// reuse the two columns' buffers in place and allocate nothing.
    pub fn into_key2_and_payload(self) -> (Vec<u32>, Vec<u64>) {
        (
            self.key2.into_iter().map(AtomicU32::into_inner).collect(),
            self.payload.into_iter().map(AtomicU64::into_inner).collect(),
        )
    }

    /// Clears the tie-break component of node `v` (sets it to `0`), so that
    /// later proposals with an equal `(key1, key2)` lose against the current
    /// value. Must only be called between waves.
    #[inline]
    pub fn settle(&self, v: usize) {
        self.key3[v].store(0, Ordering::Relaxed);
    }

    /// Seqlock-validated read of the full `(key1, key2, key3, payload)`
    /// tuple of node `v`, safe *during* a wave: retries until a read is
    /// bracketed by the same even sequence value, so the returned tuple is
    /// never torn across a concurrent [`SeqMinCells::propose`] write. Use
    /// the quiescent [`SeqMinCells::read`] family between waves instead —
    /// it skips the validation loop. Built for this crate's tests and the
    /// model checker's `model_atomic` suite only: the engines read between
    /// waves.
    #[cfg(any(test, feature = "model-check"))]
    pub fn read_coherent(&self, v: usize) -> (i64, u32, u32, u64) {
        let seq = &self.seq[v];
        loop {
            let s = seq.load(Ordering::Acquire);
            if s & 1 == 1 {
                spin_loop();
                continue;
            }
            let key1 = self.key1[v].load(Ordering::Relaxed);
            let key2 = self.key2[v].load(Ordering::Relaxed);
            let key3 = self.key3[v].load(Ordering::Relaxed);
            let payload = self.payload[v].load(Ordering::Relaxed);
            // Order the field loads before the validating re-read of `seq`.
            fence(Ordering::Acquire);
            if seq.load(Ordering::Relaxed) == s {
                return (key1, key2, key3, payload);
            }
            spin_loop();
        }
    }

    /// Attempts to improve node `v` with the proposal
    /// `(key1, key2, key3, payload)`. Returns `Some(previous_key2)` when the
    /// cell was improved (the caller can detect a first-ever assignment from
    /// the previous secondary key), `None` when the proposal was ≥ the
    /// current value.
    ///
    /// Concurrent callers converge to the minimum proposal under the
    /// `(key1, key2, key3)` order; the outcome is independent of thread count
    /// and scheduling.
    #[inline]
    pub fn propose(&self, v: usize, key1: i64, key2: u32, key3: u32, payload: u64) -> Option<u32> {
        // Fast reject on a single relaxed load: `key1` is non-increasing over
        // a cell's lifetime (every write strictly decreases the key), so any
        // observed value upper-bounds the final one — if the proposal is
        // already above it, it can never win. This is the common case in dense
        // waves and skips the validated read entirely.
        if key1 > self.key1[v].load(Ordering::Relaxed) {
            return None;
        }
        let seq = &self.seq[v];
        loop {
            let s = seq.load(Ordering::Acquire);
            if s & 1 == 1 {
                // A writer holds the cell; it is about to strictly decrease
                // the key, so we must re-read before deciding anything.
                spin_loop();
                continue;
            }
            let cur_key1 = self.key1[v].load(Ordering::Relaxed);
            let cur_key2 = self.key2[v].load(Ordering::Relaxed);
            let cur_key3 = self.key3[v].load(Ordering::Relaxed);
            // Order the field loads before the validating re-read of `seq`.
            fence(Ordering::Acquire);
            if seq.load(Ordering::Relaxed) != s {
                continue; // torn read; retry
            }
            if (key1, key2, key3) >= (cur_key1, cur_key2, cur_key3) {
                return None;
            }
            // Acquire the cell: even -> odd. Success proves the fields did not
            // change since the validated read (every write bumps `seq`), so
            // the comparison above still holds and we can write immediately.
            if seq.compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed).is_ok() {
                // Order the odd `seq` store before the field stores: without
                // this store-store barrier a weakly-ordered machine could make
                // a half-written field visible while `seq` still reads as the
                // stale even value, letting a concurrent proposer validate a
                // torn key and wrongly reject a winning proposal.
                fence(Ordering::Release);
                self.key1[v].store(key1, Ordering::Relaxed);
                self.key2[v].store(key2, Ordering::Relaxed);
                self.key3[v].store(key3, Ordering::Relaxed);
                self.payload[v].store(payload, Ordering::Relaxed);
                seq.store(s.wrapping_add(2), Ordering::Release);
                return Some(cur_key2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_dist_cells_fetch_min_reports_previous() {
        let mut cells = MinDistCells::new();
        cells.ensure(3);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells.load(0), INFINITY);
        assert_eq!(cells.fetch_min(0, 10), INFINITY);
        assert_eq!(cells.fetch_min(0, 4), 10);
        // Equal or worse proposals do not write and report the blocking value.
        assert_eq!(cells.fetch_min(0, 4), 4);
        assert_eq!(cells.fetch_min(0, 9), 4);
        assert_eq!(cells.load(0), 4);
    }

    #[test]
    fn min_dist_cells_ensure_grows_without_clobbering() {
        let mut cells = MinDistCells::new();
        cells.ensure(2);
        cells.store(1, 7);
        cells.ensure(4);
        assert_eq!(cells.load(1), 7);
        assert_eq!(cells.load(3), INFINITY);
        cells.ensure(1); // never shrinks
        assert_eq!(cells.len(), 4);
    }

    #[test]
    fn min_dist_cells_concurrent_relaxation_converges() {
        let mut cells = MinDistCells::new();
        cells.ensure(1);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cells = &cells;
                scope.spawn(move || {
                    for round in 0..1000u64 {
                        cells.fetch_min(0, (round.wrapping_mul(13) + t) % 64 + 1);
                    }
                    cells.fetch_min(0, 1);
                });
            }
        });
        assert_eq!(cells.load(0), 1);
    }

    #[test]
    fn chunk_buffers_cover_the_range_in_chunk_order() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("thread pool");
        let mut bufs: ChunkBuffers<Vec<usize>> = ChunkBuffers::new();
        for len in [0usize, 1, 7, 300, 64] {
            let mut seen = Vec::new();
            pool.install(|| {
                for buf in bufs.scan(len, 8, |range, buf| buf.extend(range)) {
                    seen.append(buf);
                }
            });
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len {len}");
        }
        // The 300-long scan used every chunk; the drained buffers keep their
        // capacity for the next scan.
        assert_eq!(bufs.bufs.len(), 16);
        assert!(bufs.bufs.iter().all(|buf| buf.is_empty() && buf.capacity() > 0));
    }

    #[test]
    fn merge_runs_merges_any_number_of_runs() {
        let mut buf = Vec::new();
        let cases: [&[&[NodeId]]; 4] = [
            &[],
            &[&[4, 9]],
            &[&[3], &[1, 2], &[0, 4]],
            &[&[1, 8], &[0, 2, 3], &[5], &[7, 9], &[6]],
        ];
        for runs in cases {
            let mut list: Vec<NodeId> = runs.concat();
            let mut ends = Vec::new();
            for run in runs {
                ends.push(ends.last().copied().unwrap_or(0) + run.len());
            }
            let mut expected = list.clone();
            expected.sort_unstable();
            merge_runs(&mut list, &mut buf, &mut ends);
            assert_eq!(list, expected);
            assert!(ends.len() <= 1);
        }
    }

    #[test]
    fn seq_min_cells_propose_and_settle() {
        let mut cells = SeqMinCells::new();
        cells.resize(2);
        cells.set(1, i64::MAX, u32::MAX, 0, u64::MAX);
        assert_eq!(cells.propose(1, 10, 3, 1, 10), Some(u32::MAX));
        assert_eq!(cells.propose(1, 10, 3, 1, 99), None); // equal key
        assert_eq!(cells.propose(1, 10, 2, 5, 7), Some(3)); // better key2
        assert_eq!(cells.read(1), (10, 2, 7));
        assert_eq!(cells.read_coherent(1).2, 5);
        cells.settle(1);
        assert_eq!(cells.read_coherent(1).2, 0);
        // Same (key1, key2) from any source now loses against the settled
        // value; a strictly better key1 still wins.
        assert_eq!(cells.propose(1, 10, 2, 1, 0), None);
        assert_eq!(cells.propose(1, 9, 9, 1, 9), Some(2));
    }

    #[test]
    fn seq_min_cells_into_key2_and_payload_returns_every_cell() {
        let mut cells = SeqMinCells::new();
        cells.resize(3);
        for v in 0..3u32 {
            cells.set(v as usize, i64::MAX, u32::MAX, 0, u64::MAX);
        }
        cells.propose(0, 4, 7, 1, 40);
        cells.set(2, -1, 9, 0, 90);
        assert_eq!(cells.into_key2_and_payload(), (vec![7, u32::MAX, 9], vec![40, u64::MAX, 90]));
    }

    #[test]
    fn seq_min_cells_read_coherent_matches_quiescent_read() {
        let mut cells = SeqMinCells::new();
        cells.resize(1);
        cells.set(0, i64::MAX, u32::MAX, 0, u64::MAX);
        assert_eq!(cells.read_coherent(0), (i64::MAX, u32::MAX, 0, u64::MAX));
        cells.propose(0, 5, 2, 9, 77);
        assert_eq!(cells.read_coherent(0), (5, 2, 9, 77));
        assert_eq!(cells.read(0), (5, 2, 77));
    }

    #[test]
    fn seq_min_cells_read_coherent_is_never_torn_under_contention() {
        let mut cells = SeqMinCells::new();
        cells.resize(1);
        // The initial cell keeps key1 == payload too, for readers that run
        // before any writer.
        cells.set(0, i64::MAX, u32::MAX, 0, i64::MAX as u64);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cells = &cells;
                scope.spawn(move || {
                    for round in 0..1000i64 {
                        // Writers keep key1 == payload in every proposal, so
                        // any torn tuple is detectable by value.
                        let key1 = i64::from(t) + 4000 - round * 4;
                        cells.propose(0, key1, t, t + 1, key1 as u64);
                    }
                });
                scope.spawn(move || {
                    for _ in 0..1000 {
                        let (key1, _, _, payload) = cells.read_coherent(0);
                        assert_eq!(key1 as u64, payload, "torn concurrent read");
                    }
                });
            }
        });
    }

    #[test]
    fn seq_min_cells_concurrent_proposals_converge() {
        let mut cells = SeqMinCells::new();
        cells.resize(1);
        cells.set(0, i64::MAX, u32::MAX, 0, u64::MAX);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cells = &cells;
                scope.spawn(move || {
                    for round in 0..1000u32 {
                        let key1 = i64::from((round.wrapping_mul(7) + t) % 64) + 1;
                        cells.propose(0, key1, (round + t) % 16, t + 1, key1 as u64);
                    }
                    cells.propose(0, 1, 0, t + 1, 1);
                });
            }
        });
        assert_eq!(cells.read(0), (1, 0, 1));
        assert_eq!(cells.read_coherent(0).2, 1);
    }
}
