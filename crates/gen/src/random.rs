//! Classic random graph models: Erdős–Rényi `G(n, m)` and preferential
//! attachment (Barabási–Albert).
//!
//! The preferential-attachment generator is the proxy for the livejournal
//! social network (power-law degrees, small diameter, a single giant
//! component); `G(n, m)` is used in tests and ablations as a topology with
//! light-tailed degrees.

use cldiam_graph::{Graph, GraphBuilder, NodeId};
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;

use crate::weights::WeightModel;

/// Erdős–Rényi graph with `n` nodes and (up to) `m` distinct edges, weights
/// from `model`.
pub fn gnm_random(n: usize, m: usize, model: WeightModel, seed: u64) -> Graph {
    assert!(n >= 2 || m == 0, "cannot place edges on fewer than two nodes");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, m);
    let mut placed = 0usize;
    let mut attempts = 0usize;
    let max_attempts = m.saturating_mul(20).max(64);
    while placed < m && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        builder.add_edge(u, v, model.sample(&mut rng, 1));
        placed += 1;
    }
    builder.build()
}

/// Barabási–Albert preferential attachment: nodes arrive one at a time and
/// connect to `edges_per_node` existing nodes chosen proportionally to their
/// current degree.
pub fn preferential_attachment(
    n: usize,
    edges_per_node: usize,
    model: WeightModel,
    seed: u64,
) -> Graph {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let m = edges_per_node.max(1);
    let mut builder = GraphBuilder::with_capacity(n, n.saturating_mul(m));
    if n == 0 {
        return builder.build();
    }
    // Target multiset: each edge endpoint is recorded once; sampling uniformly
    // from this list is degree-proportional sampling.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    // Seed clique among the first min(n, m + 1) nodes.
    let seed_nodes = n.min(m + 1);
    for i in 0..seed_nodes {
        for j in (i + 1)..seed_nodes {
            builder.add_edge(i as NodeId, j as NodeId, model.sample(&mut rng, 1));
            endpoints.push(i as NodeId);
            endpoints.push(j as NodeId);
        }
    }
    for u in seed_nodes..n {
        let mut chosen = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            guard += 1;
            let target = if endpoints.is_empty() {
                rng.gen_range(0..u) as NodeId
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if target != u as NodeId && !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &v in &chosen {
            builder.add_edge(u as NodeId, v, model.sample(&mut rng, 1));
            endpoints.push(u as NodeId);
            endpoints.push(v);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_graph::stats::GraphStats;
    use cldiam_graph::{connected_components, largest_component};

    #[test]
    fn gnm_has_requested_size() {
        let g = gnm_random(100, 300, WeightModel::Unit, 2);
        assert_eq!(g.num_nodes(), 100);
        // Duplicates are collapsed, so the edge count is at most the target.
        assert!(g.num_edges() <= 300);
        assert!(g.num_edges() >= 250, "edges: {}", g.num_edges());
    }

    #[test]
    fn gnm_zero_edges() {
        let g = gnm_random(10, 0, WeightModel::Unit, 2);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn gnm_is_deterministic() {
        assert_eq!(
            gnm_random(50, 120, WeightModel::UniformUnit, 9),
            gnm_random(50, 120, WeightModel::UniformUnit, 9)
        );
    }

    #[test]
    fn ba_graph_is_connected_and_skewed() {
        let g = preferential_attachment(2000, 4, WeightModel::UniformUnit, 11);
        assert_eq!(g.num_nodes(), 2000);
        assert!(connected_components(&g).is_connected());
        let stats = GraphStats::compute(&g);
        assert!(stats.max_degree > 8 * stats.avg_degree as usize);
    }

    #[test]
    fn ba_small_hop_diameter() {
        let g = preferential_attachment(2000, 4, WeightModel::Unit, 11);
        let (core, _) = largest_component(&g);
        let d = cldiam_testkit::traversal::double_sweep_hop_diameter(&core, 0);
        assert!(d <= 10, "hop diameter {d}");
    }

    #[test]
    fn ba_handles_tiny_inputs() {
        assert_eq!(preferential_attachment(0, 3, WeightModel::Unit, 1).num_nodes(), 0);
        let g = preferential_attachment(3, 5, WeightModel::Unit, 1);
        assert_eq!(g.num_nodes(), 3);
        assert!(g.num_edges() <= 3);
    }
}
