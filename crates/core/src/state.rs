//! Per-node growth state shared by `CLUSTER` and `CLUSTER2`.
//!
//! The paper maintains for every node a pair `(c_u, d_u)`: the cluster center
//! the node has been (tentatively) reached from and an upper bound on its
//! distance from that center. Our implementation keeps two distance
//! quantities:
//!
//! * `eff` — the *effective stage distance*, the quantity the Δ-growing step
//!   thresholds against `Δ`. It corresponds exactly to the distance a node
//!   would have in the paper's *contracted* graph: covered nodes act as
//!   distance-0 sources in `CLUSTER` (procedure `Contract` reroutes boundary
//!   edges to the centers), and as sources with a rescaled credit in
//!   `CLUSTER2` (procedure `Contract2` subtracts `2·R_CL` per elapsed
//!   iteration), which is why the value is signed.
//! * `true_dist` — the accumulated weight of the growth path from the cluster
//!   center in the *original* graph; a genuine upper bound on
//!   `dist(center, u)`, used for the quotient edge weights and the clustering
//!   radius.
//!
//! Keeping the state on the original node set instead of physically rebuilding
//! a contracted graph at every stage produces the same growth trajectories
//! (see `contract.rs` for the explicit procedure and the equivalence tests)
//! while avoiding repeated CSR reconstruction.
//!
//! `GrowState` itself is the plain, single-owner view of the state. `CLUSTER`
//! and `CLUSTER2` never build one: they keep their state in the per-node
//! atomic cells of [`crate::atomic_state::AtomicGrowCells`] for the whole
//! decomposition, and at the end the cells' center and true-distance columns
//! become the clustering's in place. [`crate::growing::partial_growth`] loads
//! a caller's `GrowState` into those cells and stores it back around a
//! growth — see `growing.rs`.

use cldiam_graph::{Dist, NodeId};

/// Sentinel for "not yet reached by any cluster".
pub const NO_CENTER: NodeId = NodeId::MAX;

/// Sentinel for an infinite effective distance.
pub const EFF_INFINITY: i64 = i64::MAX;

/// `true` when the (signed) effective distance `eff` lies strictly below the
/// (unsigned) growth threshold `Δ`.
///
/// The growth threshold is a distance — [`Dist`], unsigned — while effective
/// distances are signed because `CLUSTER2` sources carry a rescaled, possibly
/// negative credit. Comparing the two by casting `Δ` to `i64` wraps negative
/// once Δ-doubling pushes `Δ` past `i64::MAX` (the doubling cap is
/// `2 · total_weight`, reachable on massive heavy graphs) and silently stops
/// all growth; these helpers compare across the signedness boundary instead.
/// [`EFF_INFINITY`] ("unreached") is never below any threshold.
#[inline]
pub fn eff_below_threshold(eff: i64, threshold: Dist) -> bool {
    eff != EFF_INFINITY && (eff < 0 || (eff as Dist) < threshold)
}

/// `true` when `eff` lies at or below the threshold `Δ` — the admissibility
/// test for a relaxation candidate `d_u + w(u, v) ≤ Δ`. See
/// [`eff_below_threshold`] for the signedness contract.
#[inline]
pub fn eff_within_threshold(eff: i64, threshold: Dist) -> bool {
    eff != EFF_INFINITY && (eff < 0 || (eff as Dist) <= threshold)
}

/// Mutable growth state over the original node set.
#[derive(Clone, Debug)]
pub struct GrowState {
    /// Tentative cluster center of each node ([`NO_CENTER`] if untouched).
    pub center: Vec<NodeId>,
    /// Effective (contracted-graph) distance used for the `Δ` threshold.
    pub eff: Vec<i64>,
    /// Upper bound on the original-graph distance to the assigned center.
    pub true_dist: Vec<Dist>,
    /// Nodes covered in a previous stage/iteration: they act as growth sources
    /// but their state can no longer change (they do not exist as regular
    /// nodes in the contracted graph).
    pub frozen: Vec<bool>,
}

impl GrowState {
    /// A state where every node is untouched.
    pub fn new(num_nodes: usize) -> Self {
        GrowState {
            center: vec![NO_CENTER; num_nodes],
            eff: vec![EFF_INFINITY; num_nodes],
            true_dist: vec![Dist::MAX; num_nodes],
            frozen: vec![false; num_nodes],
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.center.len()
    }

    /// `true` if the state tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.center.is_empty()
    }

    /// Marks `u` as a cluster center: it is its own center at distance zero.
    pub fn set_center(&mut self, u: NodeId) {
        self.center[u as usize] = u;
        self.eff[u as usize] = 0;
        self.true_dist[u as usize] = 0;
    }

    /// `true` if node `u` has been reached by some cluster (tentatively or
    /// definitively).
    pub fn is_reached(&self, u: NodeId) -> bool {
        self.center[u as usize] != NO_CENTER
    }

    /// Number of *unfrozen* nodes currently reached by some cluster — the
    /// coverage quantity `PartialGrowth` stops on. The growing hot path keeps
    /// this count incrementally (a node's first assignment is a unique event);
    /// this method is the from-scratch definition it must agree with.
    pub fn count_reached_unfrozen(&self) -> usize {
        (0..self.len()).filter(|&u| !self.frozen[u] && self.center[u] != NO_CENTER).count()
    }

    /// Freezes every currently-reached, unfrozen node (the end-of-stage
    /// "assign `u` to the cluster centered at `c_u`" step). Returns how many
    /// nodes were frozen.
    pub fn freeze_reached(&mut self) -> usize {
        let mut frozen_now = 0;
        for u in 0..self.len() {
            if !self.frozen[u] && self.center[u] != NO_CENTER {
                self.frozen[u] = true;
                frozen_now += 1;
            }
        }
        frozen_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_state_is_untouched() {
        let s = GrowState::new(3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(!s.is_reached(0));
        assert_eq!(s.count_reached_unfrozen(), 0);
    }

    #[test]
    fn set_center_marks_self_assignment() {
        let mut s = GrowState::new(3);
        s.set_center(1);
        assert!(s.is_reached(1));
        assert_eq!(s.center[1], 1);
        assert_eq!(s.eff[1], 0);
        assert_eq!(s.true_dist[1], 0);
    }

    #[test]
    fn freeze_reached_freezes_only_reached_nodes() {
        let mut s = GrowState::new(4);
        s.set_center(0);
        s.center[1] = 0;
        s.eff[1] = 5;
        s.true_dist[1] = 5;
        assert_eq!(s.count_reached_unfrozen(), 2);
        assert_eq!(s.freeze_reached(), 2);
        assert_eq!(s.frozen, vec![true, true, false, false]);
        assert_eq!(s.count_reached_unfrozen(), 0);
        // A second freeze only picks up nodes reached since the first.
        s.set_center(3);
        assert_eq!(s.freeze_reached(), 1);
        assert_eq!(s.frozen, vec![true, true, false, true]);
    }

    #[test]
    fn threshold_comparisons_cross_the_signedness_boundary() {
        // Negative CLUSTER2 credits are below every positive threshold.
        assert!(eff_below_threshold(-5, 1));
        assert!(eff_below_threshold(0, 1));
        assert!(!eff_below_threshold(1, 1));
        assert!(eff_within_threshold(1, 1));
        assert!(!eff_within_threshold(2, 1));
        // Thresholds past i64::MAX (the old `as i64` wrap) still admit every
        // finite effective distance…
        let past_i64 = i64::MAX as Dist + 7;
        assert!(eff_below_threshold(i64::MAX - 1, past_i64));
        assert!(eff_within_threshold(i64::MAX - 1, past_i64));
        // …but the "unreached" sentinel is never below any threshold.
        assert!(!eff_below_threshold(EFF_INFINITY, Dist::MAX));
        assert!(!eff_within_threshold(EFF_INFINITY, Dist::MAX));
    }
}
