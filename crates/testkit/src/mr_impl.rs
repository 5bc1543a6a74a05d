//! A literal MapReduce formulation of the Δ-growing step, executed on the
//! simulated engine of [`crate::engine`].
//!
//! Section 4.1 argues that a Δ-growing step can be implemented with a constant
//! number of rounds of basic key-value primitives, regardless of how many
//! clusters are active. This module spells that mapping out: the map phase
//! emits one relaxation proposal per light edge (weight at most the
//! threshold) of the frontier, keyed by the target node; the reduce phase
//! keeps, per target, the proposal with the smallest distance (ties broken
//! by the smaller center index); the output is then joined with the node
//! states. The result is bit-for-bit identical to
//! the shared-memory fast path in [`cldiam_core::growing`], which the tests
//! verify — the fast path simply avoids materializing the key-value pairs.

use cldiam_core::{eff_below_threshold, eff_within_threshold, GrowState, NO_CENTER};
use cldiam_graph::{Dist, Graph, NodeId};

use crate::engine::MrEngine;

/// One relaxation proposal shuffled to the reducer responsible for `target`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Proposal {
    /// Proposed effective distance (threshold-bounded).
    pub eff: i64,
    /// Proposing cluster center.
    pub center: NodeId,
    /// Proposed true-distance upper bound.
    pub true_dist: Dist,
}

impl Proposal {
    fn better_than(&self, other: &Proposal) -> bool {
        (self.eff, self.center) < (other.eff, other.center)
    }
}

/// Executes one Δ-growing step as a MapReduce round on `engine`.
///
/// Returns the nodes whose state changed. The engine charges one round, the
/// proposals as messages and the nodes whose state changed as node updates —
/// the exact charges the in-place shared-memory implementation makes to its
/// cost tracker; the equivalence proptests pin the two executions to
/// identical states *and* identical charges.
pub fn mr_delta_growing_step(
    engine: &MrEngine,
    graph: &Graph,
    threshold: Dist,
    state: &mut GrowState,
    frontier: &[NodeId],
) -> Vec<NodeId> {
    // Map phase: emit (target, proposal) for every admissible relaxation.
    // Reserve for the frontier's full degree sum (every light edge can emit).
    let arc_bound: usize = frontier.iter().map(|&u| graph.degree(u)).sum();
    let mut pairs: Vec<(NodeId, Proposal)> = Vec::with_capacity(arc_bound);
    for &u in frontier {
        let eff_u = state.eff[u as usize];
        let center_u = state.center[u as usize];
        if !eff_below_threshold(eff_u, threshold) || center_u == NO_CENTER {
            continue;
        }
        for (v, w) in graph.neighbors(u) {
            let wd = Dist::from(w);
            if wd > threshold || state.frozen[v as usize] {
                continue;
            }
            let cand = eff_u.saturating_add(wd as i64);
            if eff_within_threshold(cand, threshold) {
                pairs.push((
                    v,
                    Proposal {
                        eff: cand,
                        center: center_u,
                        true_dist: state.true_dist[u as usize].saturating_add(wd),
                    },
                ));
            }
        }
    }

    // Reduce phase: keep the best proposal per target node.
    let winners: Vec<(NodeId, Proposal)> = engine.run_round(pairs, |&target, proposals| {
        let best = proposals
            .into_iter()
            .reduce(|a, b| if b.better_than(&a) { b } else { a })
            .expect("reducer is only called on non-empty groups");
        vec![(target, best)]
    });

    // Join with the node states (in a real deployment this is the same round's
    // reducer over the state table; here it is a local pass).
    let mut updated = Vec::new();
    let mut updates = 0u64;
    for (v, proposal) in winners {
        let vi = v as usize;
        let current = Proposal {
            eff: state.eff[vi],
            center: state.center[vi],
            true_dist: state.true_dist[vi],
        };
        if proposal.better_than(&current) {
            state.eff[vi] = proposal.eff;
            state.center[vi] = proposal.center;
            state.true_dist[vi] = proposal.true_dist;
            updated.push(v);
            updates += 1;
        }
    }
    engine.tracker().add_node_updates(updates);
    updated.sort_unstable();
    updated
}

/// Runs Δ-growing steps on the engine until no state changes (the MapReduce
/// analogue of [`cldiam_core::growing::partial_growth`] without an early-stop
/// target). Returns the number of rounds executed.
pub fn mr_partial_growth(
    engine: &MrEngine,
    graph: &Graph,
    threshold: Dist,
    state: &mut GrowState,
) -> u64 {
    let mut frontier: Vec<NodeId> = (0..state.len() as NodeId)
        .filter(|&u| {
            eff_below_threshold(state.eff[u as usize], threshold)
                && state.center[u as usize] != NO_CENTER
        })
        .collect();
    let mut rounds = 0;
    while !frontier.is_empty() {
        rounds += 1;
        frontier = mr_delta_growing_step(engine, graph, threshold, state, &frontier);
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MrConfig;
    use cldiam_core::growing::{partial_growth, GrowScratch};
    use cldiam_gen::{mesh, road_network, WeightModel};
    use cldiam_graph::CancelToken;
    use cldiam_mr::CostTracker;

    fn engines() -> MrEngine {
        MrEngine::new(MrConfig::with_machines(4))
    }

    fn assert_equivalent(graph: &Graph, centers: &[NodeId], threshold: Dist) {
        let mut fast = GrowState::new(graph.num_nodes());
        let mut slow = GrowState::new(graph.num_nodes());
        for &c in centers {
            fast.set_center(c);
            slow.set_center(c);
        }
        let (tracker, never) = (CostTracker::new(), CancelToken::never());
        partial_growth(
            graph,
            threshold,
            &mut fast,
            None,
            &tracker,
            &mut GrowScratch::new(),
            &never,
        );
        let engine = engines();
        mr_partial_growth(&engine, graph, threshold, &mut slow);
        assert_eq!(fast.eff, slow.eff);
        assert_eq!(fast.center, slow.center);
        assert_eq!(fast.true_dist, slow.true_dist);
        assert!(engine.metrics().rounds > 0);
    }

    #[test]
    fn matches_fast_path_on_mesh() {
        let g = mesh(8, WeightModel::UniformUnit, 3);
        assert_equivalent(&g, &[0, 37], 400_000);
    }

    #[test]
    fn matches_fast_path_on_road_network() {
        let g = road_network(10, 10, 2);
        assert_equivalent(&g, &[0, 50, 99], 1_200);
    }

    #[test]
    fn single_step_reports_updates_to_tracker() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let engine = engines();
        let mut state = GrowState::new(4);
        state.set_center(0);
        let updated = mr_delta_growing_step(&engine, &g, 10, &mut state, &[0]);
        assert_eq!(updated, vec![1]);
        let metrics = engine.metrics();
        assert_eq!(metrics.rounds, 1);
        assert_eq!(metrics.node_updates, 1);
        assert!(metrics.messages >= 1);
    }

    #[test]
    fn frontier_with_no_admissible_edges_stops() {
        let g = Graph::from_edges(3, &[(0, 1, 5), (1, 2, 5)]);
        let engine = engines();
        let mut state = GrowState::new(3);
        state.set_center(0);
        // Threshold 3 makes every edge heavy: nothing to do.
        let rounds = mr_partial_growth(&engine, &g, 3, &mut state);
        assert_eq!(rounds, 1);
        assert_eq!(state.center[1], NO_CENTER);
    }
}
