//! The explicit `Contract` procedure (Section 3) and its equivalence with the
//! logical, state-based contraction used by [`crate::cluster`].
//!
//! After a sequence of Δ-growing steps from a center set `X`, procedure
//! `Contract` removes every covered node except the centers and reroutes
//! boundary edges: an edge `(u, v)` with `u` covered and `v` uncovered is
//! replaced by `(c_u, v)` with the same weight; edges between two covered
//! nodes disappear; edges between two uncovered nodes are kept.
//!
//! The production code path in [`crate::cluster`] never materializes the
//! contracted graph — it freezes covered nodes and lets them act as
//! distance-0 sources, which yields identical growth trajectories (the tests
//! in this module check that equivalence explicitly) while avoiding a CSR
//! rebuild per stage. The explicit procedure is compiled for tests only, as
//! executable documentation of the paper that pins that equivalence.

use cldiam_graph::{Graph, GraphBuilder, NodeId};

use crate::state::{GrowState, NO_CENTER};

/// A physically contracted graph together with the mapping back to the
/// original node identifiers.
#[derive(Clone, Debug)]
pub struct ContractedGraph {
    /// The contracted graph. Its nodes are the cluster centers plus the
    /// uncovered nodes of the original graph.
    pub graph: Graph,
    /// `orig[i]` is the original node represented by contracted node `i`.
    pub orig: Vec<NodeId>,
    /// `true` at position `i` iff contracted node `i` is a cluster center.
    pub is_center: Vec<bool>,
}

impl ContractedGraph {
    /// Contracted id of an original node, if it survived the contraction.
    pub fn contracted_id(&self, original: NodeId) -> Option<NodeId> {
        self.orig.binary_search(&original).ok().map(|i| i as NodeId)
    }
}

/// Applies procedure `Contract` to `graph` given the growth state of the
/// current stage: covered nodes (reached by some cluster) are removed except
/// the centers themselves, and boundary edges are rerouted to the centers
/// keeping their original weight.
pub fn contract(graph: &Graph, state: &GrowState) -> ContractedGraph {
    let n = graph.num_nodes();
    assert_eq!(state.len(), n, "state does not match the graph");

    // Surviving nodes: centers and uncovered nodes, in increasing original id
    // (the filter scans ids in order, so `orig` is born sorted).
    let orig: Vec<NodeId> = (0..n as NodeId)
        .filter(|&u| {
            let c = state.center[u as usize];
            c == NO_CENTER || c == u
        })
        .collect();
    // Node ids are dense: the original → contracted id map is a Vec lookup.
    let mut new_id: Vec<NodeId> = vec![NodeId::MAX; n];
    for (i, &u) in orig.iter().enumerate() {
        new_id[u as usize] = i as NodeId;
    }
    let is_center: Vec<bool> = orig.iter().map(|&u| state.center[u as usize] == u).collect();

    let mut builder = GraphBuilder::new(orig.len());
    for (u, v, w) in graph.edges() {
        let cu = state.center[u as usize];
        let cv = state.center[v as usize];
        match (cu, cv) {
            (NO_CENTER, NO_CENTER) => {
                builder.add_edge(new_id[u as usize], new_id[v as usize], w);
            }
            (NO_CENTER, _) => {
                builder.add_edge(new_id[u as usize], new_id[cv as usize], w);
            }
            (_, NO_CENTER) => {
                builder.add_edge(new_id[cu as usize], new_id[v as usize], w);
            }
            // Both endpoints covered: the edge disappears.
            _ => {}
        }
    }
    ContractedGraph { graph: builder.build(), orig, is_center }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growing::{partial_growth, GrowScratch};
    use cldiam_gen::{mesh, road_network, WeightModel};
    use cldiam_graph::{CancelToken, Dist};
    use cldiam_mr::CostTracker;

    fn grow(graph: &Graph, threshold: Dist, state: &mut GrowState) {
        let (tracker, never) = (CostTracker::new(), CancelToken::never());
        partial_growth(graph, threshold, state, None, &tracker, &mut GrowScratch::new(), &never);
    }

    /// Grows clusters from `centers` with threshold Δ, and checks that growing
    /// on the physically contracted graph produces the same effective
    /// distances for surviving nodes as the logical (frozen-source) emulation
    /// on the original graph.
    fn assert_contract_equivalence(graph: &Graph, centers: &[NodeId], delta: Dist) {
        // First stage: grow from the centers.
        let mut state = GrowState::new(graph.num_nodes());
        for &c in centers {
            state.set_center(c);
        }
        grow(graph, delta, &mut state);
        let contracted = contract(graph, &state);

        // Logical second stage on the original graph: freeze, reset credits.
        let mut logical = state.clone();
        logical.freeze_reached();
        for u in 0..logical.len() {
            if logical.frozen[u] {
                logical.eff[u] = 0;
            }
        }
        grow(graph, delta, &mut logical);

        // Physical second stage on the contracted graph: centers restart at 0.
        let mut physical = GrowState::new(contracted.graph.num_nodes());
        for (i, &is_c) in contracted.is_center.iter().enumerate() {
            if is_c {
                physical.set_center(i as NodeId);
            }
        }
        grow(&contracted.graph, delta, &mut physical);

        // Every surviving uncovered node must have the same effective distance
        // in both executions.
        for (i, &orig_u) in contracted.orig.iter().enumerate() {
            if contracted.is_center[i] {
                continue;
            }
            assert_eq!(
                physical.eff[i], logical.eff[orig_u as usize],
                "node {orig_u}: physical {} vs logical {}",
                physical.eff[i], logical.eff[orig_u as usize]
            );
        }
    }

    #[test]
    fn surviving_nodes_are_centers_and_uncovered() {
        let g = Graph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 10), (3, 4, 1)]);
        let mut state = GrowState::new(5);
        state.set_center(0);
        grow(&g, 3, &mut state);
        // Nodes 0,1,2 covered by cluster 0 (the weight-10 edge is heavy);
        // nodes 3,4 uncovered.
        let c = contract(&g, &state);
        assert_eq!(c.orig, vec![0, 3, 4]);
        assert_eq!(c.is_center, vec![true, false, false]);
        assert_eq!(c.contracted_id(3), Some(1));
        assert_eq!(c.contracted_id(2), None);
        // The boundary edge (2,3) is rerouted to the center 0 with weight 10.
        assert_eq!(c.graph.edge_weight(0, 1), Some(10));
        // The uncovered edge (3,4) is kept.
        assert_eq!(c.graph.edge_weight(1, 2), Some(1));
        assert_eq!(c.graph.num_edges(), 2);
    }

    #[test]
    fn parallel_boundary_edges_keep_the_lightest() {
        // Two covered nodes of the same cluster both touch uncovered node 3.
        let g = Graph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 9), (2, 3, 4)]);
        let mut state = GrowState::new(4);
        state.set_center(0);
        grow(&g, 2, &mut state);
        let c = contract(&g, &state);
        assert_eq!(c.orig, vec![0, 3]);
        assert_eq!(c.graph.edge_weight(0, 1), Some(4));
    }

    #[test]
    fn contraction_equivalence_on_mesh() {
        let g = mesh(10, WeightModel::UniformUnit, 5);
        assert_contract_equivalence(&g, &[0, 55, 99], 300_000);
    }

    #[test]
    fn contraction_equivalence_on_road_network() {
        let g = road_network(12, 12, 9);
        assert_contract_equivalence(&g, &[0, 70, 130], 1_500);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_mismatched_state() {
        let g = cldiam_graph::GraphBuilder::new(3).build();
        let state = GrowState::new(2);
        contract(&g, &state);
    }
}
