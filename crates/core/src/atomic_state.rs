//! Per-node atomic growth state for the in-place Δ-growing hot path.
//!
//! The two-phase formulation of a Δ-growing step (materialize every
//! relaxation proposal, then reduce per target) pays O(frontier + proposals)
//! heap traffic per wave. [`AtomicGrowCells`] removes that: every proposal is
//! applied *in place* with a CAS loop against the target's cell, and the cell
//! converges to the minimum proposal under the total order
//!
//! ```text
//! (eff, center, src)
//! ```
//!
//! which is exactly the winner the literal MapReduce reducer picks:
//!
//! * smallest effective distance first, then smallest center index — the
//!   paper's scheduling-independent tie-break;
//! * `src` (the proposing frontier node, biased by `+1` so that `0` can mean
//!   "settled before this wave") breaks the remaining ties the way the MR
//!   reducer's first-proposal-in-shuffle-order rule does. Frontiers are kept
//!   sorted, so the first proposal with the winning `(eff, center)` key is the
//!   one from the smallest source node; among equal `(eff, center, src)` the
//!   payload is identical, so any representative is the right one. Without
//!   this third component the *key* reduction would still be deterministic but
//!   the `true_dist` payload riding along would not, because two sources can
//!   propose the same `(eff, center)` with different accumulated
//!   original-graph distances.
//!
//! The CAS machinery itself — the multi-word seqlock fetch-min — lives in
//! [`cldiam_graph::atomic::SeqMinCells`], the same unsafe-free module the
//! Δ-stepping SSSP engine relaxes through (with its single-word
//! [`cldiam_graph::atomic::MinDistCells`] flavour). This type is the
//! `GrowState`-aware wrapper: it maps `(eff, center, src, true_dist)` onto
//! the generic `(key1, key2, key3, payload)` cell and carries the frozen
//! flags that make covered nodes source-only. A decomposition keeps its
//! whole grow state here from the first stage to the last: the cells are
//! reset once, edited node by node between growths (new centers, source
//! credits, freezing), and consumed at the end
//! (`AtomicGrowCells::into_center_and_true_dist`), whose center and
//! true-distance columns become the clustering's in place. Callers holding a
//! `GrowState` of their own load it in and store it back around a growth
//! instead.

use rayon::prelude::*;

use cldiam_graph::atomic::SeqMinCells;
use cldiam_graph::{Dist, NodeId};

use crate::state::{GrowState, EFF_INFINITY, NO_CENTER};

/// Result of [`AtomicGrowCells::propose`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proposed {
    /// The proposal did not improve the cell (it was ≥ the current key).
    Rejected,
    /// The proposal was written into the cell.
    Improved {
        /// `true` iff this write reached the node for the first time (its
        /// center was [`crate::state::NO_CENTER`] before the write). At most
        /// one proposal per node can ever observe this.
        newly_reached: bool,
    },
}

/// Per-node growth state in atomic cells, supporting concurrent in-place
/// relaxation. See the module docs for the key order and
/// [`cldiam_graph::atomic`] for the seqlock protocol.
#[derive(Debug, Default)]
pub struct AtomicGrowCells {
    /// The shared multi-word fetch-min cells: key1 = eff, key2 = center,
    /// key3 = src + 1 (0 = settled), payload = true_dist.
    cells: SeqMinCells,
    /// Frozen flags, immutable during a growth: frozen nodes are never
    /// proposed to (they only act as sources).
    frozen: Vec<bool>,
}

impl AtomicGrowCells {
    /// Empty cell block; sized when a state is reset or loaded in
    /// ([`AtomicGrowCells::load_from`]).
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

    /// Resets the cells to an untouched, unfrozen state of `n` nodes — the
    /// in-place equivalent of loading `GrowState::new(n)`.
    pub(crate) fn reset(&mut self, n: usize) {
        self.cells.resize(n);
        self.frozen.clear();
        self.frozen.resize(n, false);
        let cells = &self.cells;
        (0..n).into_par_iter().with_min_len(2048).for_each(|u| {
            cells.set(u, EFF_INFINITY, NO_CENTER, 0, Dist::MAX);
        });
    }

    /// Loads a [`GrowState`] into the cells, resetting every sequence word and
    /// marking every value as settled.
    pub fn load_from(&mut self, state: &GrowState) {
        let n = state.len();
        self.cells.resize(n);
        self.frozen.clear();
        self.frozen.extend_from_slice(&state.frozen);
        let cells = &self.cells;
        (0..n).into_par_iter().with_min_len(2048).for_each(|u| {
            cells.set(u, state.eff[u], state.center[u], 0, state.true_dist[u]);
        });
    }

    /// Writes the cells back into a [`GrowState`]. Must only be called when no
    /// wave is in flight (all sequence words even).
    ///
    /// # Panics
    ///
    /// Panics if `state` tracks a different number of nodes than the cells.
    pub fn store_into(&self, state: &mut GrowState) {
        let n = self.len();
        assert_eq!(state.len(), n, "cells do not match the state");
        const CHUNK: usize = 2048;
        let cells = &self.cells;
        state.eff.par_chunks_mut(CHUNK).enumerate().for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            for (i, e) in chunk.iter_mut().enumerate() {
                *e = cells.read_key1(base + i);
            }
        });
        state.center.par_chunks_mut(CHUNK).enumerate().for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            for (i, c) in chunk.iter_mut().enumerate() {
                *c = cells.read_key2(base + i);
            }
        });
        state.true_dist.par_chunks_mut(CHUNK).enumerate().for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            for (i, d) in chunk.iter_mut().enumerate() {
                *d = cells.read_payload(base + i);
            }
        });
    }

    /// The cells and frozen flags as a fresh [`GrowState`] (no wave in
    /// flight).
    #[cfg(test)]
    pub(crate) fn export(&self) -> GrowState {
        let n = self.len();
        let mut state = GrowState {
            center: vec![0; n],
            eff: vec![0; n],
            true_dist: vec![0; n],
            frozen: self.frozen.clone(),
        };
        self.store_into(&mut state);
        state
    }

    /// Consumes the cells and returns every node's center and true distance
    /// (no wave in flight), reusing the two columns' memory in place.
    pub(crate) fn into_center_and_true_dist(self) -> (Vec<NodeId>, Vec<Dist>) {
        self.cells.into_key2_and_payload()
    }

    /// The largest finite true distance of any node, or 0 if there is none
    /// (no wave in flight).
    pub(crate) fn max_finite_true_dist(&self) -> Dist {
        let cells = &self.cells;
        (0..self.len())
            .into_par_iter()
            .with_min_len(2048)
            .map(|u| cells.read_payload(u))
            .filter(|&d| d != Dist::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Quiescent write of node `v`'s `(eff, center, true_dist)`, settled (no
    /// wave in flight): a new center, or a covered node's source credit.
    #[inline]
    pub(crate) fn set(&self, v: usize, eff: i64, center: NodeId, true_d: Dist) {
        self.cells.set(v, eff, center, 0, true_d);
    }

    /// `true` if node `v` has been reached by some cluster (no wave in
    /// flight).
    #[inline]
    pub(crate) fn is_reached(&self, v: usize) -> bool {
        self.cells.read_key2(v) != NO_CENTER
    }

    /// Quiescent read of node `v`'s effective distance alone.
    #[inline]
    pub(crate) fn eff(&self, v: usize) -> i64 {
        self.cells.read_key1(v)
    }

    /// Freezes node `v`: from now on it is a source only, never a target.
    #[inline]
    pub(crate) fn freeze(&mut self, v: usize) {
        self.frozen[v] = true;
    }

    /// Quiescent read of `(eff, center, true_dist)` for node `v` (no wave in
    /// flight). Used to snapshot the frontier's pre-wave state.
    #[inline]
    pub fn read(&self, v: usize) -> (i64, NodeId, Dist) {
        self.cells.read(v)
    }

    /// `true` if `v` is frozen.
    #[inline]
    pub fn is_frozen(&self, v: usize) -> bool {
        self.frozen[v]
    }

    /// Marks node `v` as settled (clears the source tie-break), so that
    /// next-wave proposals with an equal `(eff, center)` key lose against it —
    /// the same "strictly better or rejected" rule the two-phase apply loop
    /// used between waves. Must be called between waves for every node updated
    /// in the previous wave.
    #[inline]
    pub fn settle(&self, v: usize) {
        self.cells.settle(v);
    }

    /// Attempts to improve node `v` with the proposal
    /// `(eff, center, src_plus, true_d)`, where `src_plus` is the proposing
    /// frontier node + 1. Returns whether the cell was improved, and if so
    /// whether this was the node's first assignment ever.
    ///
    /// Concurrent callers converge to the minimum proposal under the
    /// `(eff, center, src_plus)` order; the outcome is independent of thread
    /// count and scheduling.
    #[inline]
    pub fn propose(
        &self,
        v: usize,
        eff: i64,
        center: NodeId,
        src_plus: NodeId,
        true_d: Dist,
    ) -> Proposed {
        match self.cells.propose(v, eff, center, src_plus, true_d) {
            None => Proposed::Rejected,
            Some(prev_center) => Proposed::Improved { newly_reached: prev_center == NO_CENTER },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells_for(n: usize) -> AtomicGrowCells {
        let state = GrowState::new(n);
        let mut cells = AtomicGrowCells::new();
        cells.load_from(&state);
        cells
    }

    #[test]
    fn load_store_roundtrip() {
        let mut state = GrowState::new(3);
        state.set_center(1);
        state.center[2] = 1;
        state.eff[2] = 5;
        state.true_dist[2] = 5;
        state.frozen[0] = true;
        let mut cells = AtomicGrowCells::new();
        cells.load_from(&state);
        assert!(cells.is_frozen(0));
        assert!(!cells.is_frozen(2));
        let out = cells.export();
        assert_eq!(out.eff, state.eff);
        assert_eq!(out.center, state.center);
        assert_eq!(out.true_dist, state.true_dist);
        assert_eq!(out.frozen, state.frozen);
    }

    #[test]
    fn reset_set_and_freeze_edit_the_resident_state() {
        let mut cells = cells_for(2);
        cells.propose(1, 5, 0, 1, 5);
        cells.reset(3);
        let untouched = GrowState::new(3);
        let out = cells.export();
        assert_eq!(
            (out.eff, out.center, out.true_dist),
            (untouched.eff, untouched.center, untouched.true_dist)
        );
        assert_eq!(out.frozen, untouched.frozen);
        cells.set(2, 0, 2, 0);
        assert!(cells.is_reached(2) && !cells.is_reached(1));
        // A quiescent write is settled: an equal key from any source loses.
        assert_eq!(cells.propose(2, 0, 2, 1, 0), Proposed::Rejected);
        cells.freeze(2);
        assert!(cells.is_frozen(2) && !cells.is_frozen(1));
    }

    #[test]
    fn propose_improves_and_reports_first_reach() {
        let cells = cells_for(2);
        assert_eq!(cells.read(1), (EFF_INFINITY, NO_CENTER, Dist::MAX));
        assert_eq!(cells.propose(1, 10, 0, 1, 10), Proposed::Improved { newly_reached: true });
        assert_eq!(cells.propose(1, 4, 0, 1, 4), Proposed::Improved { newly_reached: false });
        assert_eq!(cells.read(1), (4, 0, 4));
    }

    #[test]
    fn propose_rejects_equal_and_worse_keys() {
        let cells = cells_for(2);
        cells.propose(1, 5, 2, 3, 5);
        // Worse eff, equal key, worse center, worse src: all rejected.
        assert_eq!(cells.propose(1, 6, 0, 1, 6), Proposed::Rejected);
        assert_eq!(cells.propose(1, 5, 2, 3, 99), Proposed::Rejected);
        assert_eq!(cells.propose(1, 5, 3, 1, 5), Proposed::Rejected);
        assert_eq!(cells.propose(1, 5, 2, 4, 5), Proposed::Rejected);
        // Equal (eff, center) from a smaller source wins: the MR reducer keeps
        // the first proposal in shuffle order, which is the smallest source.
        assert!(matches!(cells.propose(1, 5, 2, 2, 7), Proposed::Improved { .. }));
        assert_eq!(cells.read(1), (5, 2, 7));
    }

    #[test]
    fn settle_wins_ties_against_later_waves() {
        let cells = cells_for(2);
        cells.propose(1, 5, 2, 3, 5);
        cells.settle(1);
        // Same (eff, center) from any source now loses: the value predates the
        // wave and the two-phase rule only replaces on strict improvement.
        assert_eq!(cells.propose(1, 5, 2, 1, 5), Proposed::Rejected);
        assert!(matches!(cells.propose(1, 4, 9, 1, 4), Proposed::Improved { .. }));
    }

    #[test]
    fn concurrent_proposals_converge_to_the_minimum() {
        let mut state = GrowState::new(1);
        state.frozen.clear();
        state.frozen.push(false);
        let mut cells = AtomicGrowCells::new();
        cells.load_from(&state);
        // Hammer the single cell from 8 OS threads with interleaved keys; the
        // cell must end at the global minimum (1, 0, src 1) with its payload.
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cells = &cells;
                scope.spawn(move || {
                    for round in 0..1000u32 {
                        let eff = i64::from((round.wrapping_mul(7) + t) % 64) + 1;
                        let center = (round + t) % 16;
                        let src = t + 1;
                        cells.propose(0, eff, center, src, eff as Dist);
                    }
                    // Every thread also fires the global minimum once.
                    cells.propose(0, 1, 0, t + 1, 1);
                });
            }
        });
        assert_eq!(cells.read(0), (1, 0, 1));
        // The tie-break kept source 1, the lowest: the same key from it ties
        // and loses, from source 0 it wins.
        assert!(matches!(cells.propose(0, 1, 0, 1, 1), Proposed::Rejected));
        assert!(matches!(cells.propose(0, 1, 0, 0, 1), Proposed::Improved { .. }));
    }
}
