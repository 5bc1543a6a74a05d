//! `CLUSTER2(G, τ)` — Algorithm 2 of the paper.
//!
//! The refined decomposition used for the approximation analysis (Theorem 2).
//! It first runs `CLUSTER(G, τ)` only to learn the radius `R_CL(τ)`, then
//! performs `log n` iterations. In iteration `i`, uncovered nodes are selected
//! as new centers independently with probability `2^i / n` (so the selection
//! pressure doubles every iteration and the last iteration selects everything
//! still uncovered), clusters are grown with threshold `2·R_CL(τ)` until no
//! state changes (`PartialGrowth2`), and the graph is contracted with weight
//! rescaling (`Contract2`): a boundary edge `(u, v)` re-attaches to the
//! center with weight `d_u + w(u, v) − 2·R_CL(τ)`.
//!
//! The rescaling gives CLUSTER2 its key property: a center selected at
//! iteration `i₀` needs exactly `⌈d / (2·R_CL)⌉` iterations to reach a node at
//! light distance `d`, so late centers cannot "catch up" to nodes that earlier
//! clusters are about to reach — the ingredient that bounds how many clusters
//! can intersect a shortest path in the proof of Theorem 2.
//!
//! As in `cluster.rs`, contraction is performed logically: covered nodes act
//! as growth sources whose *effective* credit at iteration `i` is
//! `D(u) − 2·R_CL·(i − i₀)`, where `D(u)` is the accumulated original-weight
//! distance from the center and `i₀` the center's creation iteration. This is
//! arithmetically identical to relaxing over the rescaled edges of the
//! physically contracted graph, while keeping `D(u)` available as a genuine
//! distance upper bound for the quotient construction.

use cldiam_mr::CostTracker;
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;

use cldiam_graph::{CancelToken, Dist, NeighborSource, NodeId};

use crate::cluster::{cluster_stages, finalize, ClusterRun};
use crate::clustering::Clustering;
use crate::config::ClusterConfig;
use crate::growing::GrowScratch;

/// Runs `CLUSTER2(G, τ)` and returns the resulting clustering.
///
/// The preliminary `CLUSTER` call (used only for its radius estimate) runs
/// with the same configuration; its cost is included in the returned metrics.
///
/// The cooperative [`CancelToken`] is polled at iteration and Δ-growing wave
/// boundaries (the preliminary `CLUSTER` run shares the same token); a
/// caller that never cancels passes `&CancelToken::never()`. Cancellation
/// degrades gracefully exactly as in [`crate::cluster::cluster`]: completed
/// iterations keep their clusters and the rest become singletons, which is
/// always valid.
pub fn cluster2<G: NeighborSource>(
    graph: &G,
    config: &ClusterConfig,
    cancel: &CancelToken,
) -> Clustering {
    let n = graph.num_nodes();
    let tracker = CostTracker::new();
    // One scratch serves the preliminary CLUSTER run and every iteration.
    let mut scratch = GrowScratch::with_capacity(n);
    if n == 0 {
        let run = ClusterRun { delta: 1, growing_steps: 0, stages: 0 };
        return finalize(scratch, run, &tracker);
    }

    // Step 1: learn R_CL(τ) from a CLUSTER run, whose cost is charged to
    // this run. Only its radius is needed, so it is read off the cells,
    // which the iterations below then reuse.
    let preliminary = cluster_stages(graph, config, &tracker, &mut scratch, cancel);
    let r_cl = scratch.radius().max(1);
    let threshold: Dist = r_cl.saturating_mul(2);

    // Step 2: log n iterations with doubling selection probability, on a
    // fresh resident state.
    let iterations = (n.max(2) as f64).log2().ceil() as u32;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(config.seed.wrapping_add(0x5EED));
    scratch.start(n);
    // Creation iteration of each center, indexed by center node id.
    let mut creation_iter: Vec<u32> = vec![0; n];
    let mut growing_steps = 0u64;

    for i in 1..=iterations {
        // Iteration boundary: stop here and let the singleton fallback
        // below cover whatever the completed iterations did not.
        if cancel.checkpoint() {
            break;
        }
        let uncovered = scratch.uncovered();
        if uncovered.is_empty() {
            break;
        }
        let p = ((1u64 << i.min(63)) as f64 / n as f64).min(1.0);
        let mut new_centers: Vec<NodeId> =
            uncovered.iter().copied().filter(|_| rng.gen::<f64>() < p).collect();
        if i == iterations && new_centers.len() < uncovered.len() {
            // The last iteration selects every uncovered node (p ≥ 1); keep
            // that guarantee explicit even under floating-point rounding.
            new_centers = uncovered.to_vec();
        }
        let num_uncovered = uncovered.len();

        // Covered nodes become growth sources with their rescaled credit.
        scratch.credit_sources(|center, true_dist| {
            let elapsed = Dist::from(i - 1 - creation_iter[center as usize]);
            true_dist as i64 - (threshold.saturating_mul(elapsed)) as i64
        });
        for &c in &new_centers {
            scratch.set_center(c);
            creation_iter[c as usize] = i - 1;
        }
        tracker.add_round();
        tracker.add_messages(num_uncovered as u64);

        // PartialGrowth2: grow until no state is updated.
        growing_steps += scratch.partial_growth(graph, threshold, None, &tracker, cancel).steps;

        // Contract2 (logical): freeze everything reached in this iteration.
        scratch.freeze_reached();
        tracker.add_round();
    }

    // Any node still uncovered (unreachable from every center within the
    // light-edge constraint, e.g. separated by edges heavier than 2·R_CL)
    // becomes a singleton cluster.
    let run = ClusterRun {
        delta: threshold,
        growing_steps: growing_steps + preliminary.growing_steps,
        stages: preliminary.stages + u64::from(iterations),
    };
    finalize(scratch, run, &tracker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster;
    use cldiam_gen::{mesh, road_network, WeightModel};
    use cldiam_graph::{largest_component, GraphBuilder};
    use cldiam_sssp::dijkstra;

    fn config(tau: usize, seed: u64) -> ClusterConfig {
        ClusterConfig::default().with_tau(tau).with_seed(seed)
    }

    #[test]
    fn produces_a_valid_clustering_on_mesh() {
        let g = mesh(14, WeightModel::UniformUnit, 3);
        let clustering = cluster2(&g, &config(2, 5), &CancelToken::never());
        clustering.validate(&g).expect("valid clustering");
        assert!(clustering.num_clusters() >= 1);
        assert!(clustering.num_clusters() <= g.num_nodes());
    }

    #[test]
    fn distances_are_upper_bounds_on_true_distances() {
        let g = mesh(12, WeightModel::UniformUnit, 9);
        let clustering = cluster2(&g, &config(2, 2), &CancelToken::never());
        for &c in &clustering.centers {
            let sp = dijkstra(&g, c);
            for u in 0..g.num_nodes() {
                if clustering.assignment[u] == c {
                    assert!(
                        clustering.dist[u] >= sp.dist[u],
                        "node {u}: recorded {} < true {}",
                        clustering.dist[u],
                        sp.dist[u]
                    );
                }
            }
        }
    }

    #[test]
    fn is_deterministic_in_the_seed() {
        let g = mesh(10, WeightModel::UniformUnit, 1);
        let a = cluster2(&g, &config(2, 7), &CancelToken::never());
        let b = cluster2(&g, &config(2, 7), &CancelToken::never());
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.dist, b.dist);
    }

    #[test]
    fn works_on_road_networks() {
        let (g, _) = largest_component(&road_network(18, 18, 4));
        let clustering = cluster2(&g, &config(2, 3), &CancelToken::never());
        clustering.validate(&g).expect("valid clustering");
    }

    #[test]
    fn cluster2_radius_is_bounded_by_rcl_log_n() {
        // Lemma 2: the radius of CLUSTER2 is O(R_CL · log n) — each of the
        // ≤ log n iterations grows a cluster by at most 2·R_CL of additional
        // light distance.
        let g = mesh(16, WeightModel::UniformUnit, 6);
        let c1 = cluster(&g, &config(2, 9), &CancelToken::never());
        let c2 = cluster2(&g, &config(2, 9), &CancelToken::never());
        let log_n = (g.num_nodes() as f64).log2().ceil() as u64;
        let bound = 2 * c1.radius.max(1) * (log_n + 1);
        assert!(
            c2.radius <= bound,
            "cluster2 radius {} exceeds 2·R_CL·(log n + 1) = {bound}",
            c2.radius
        );
        assert!(c2.num_clusters() >= 1);
    }

    #[test]
    fn handles_empty_and_singleton_graphs() {
        let never = CancelToken::never();
        assert_eq!(
            cluster2(&GraphBuilder::new(0).build(), &config(1, 1), &never).num_clusters(),
            0
        );
        let one = cluster2(&GraphBuilder::new(1).build(), &config(1, 1), &never);
        assert_eq!(one.num_clusters(), 1);
        assert_eq!(one.assignment, vec![0]);
    }

    #[test]
    fn cancelled_cluster2_is_still_a_valid_clustering() {
        let g = mesh(12, WeightModel::UniformUnit, 6);
        let pre = CancelToken::never();
        pre.cancel();
        let degenerate = cluster2(&g, &config(2, 4), &pre);
        degenerate.validate(&g).expect("valid clustering");
        assert_eq!(degenerate.num_clusters(), g.num_nodes());

        let partial = cluster2(&g, &config(2, 4), &CancelToken::with_check_limit(6));
        partial.validate(&g).expect("valid clustering");
        let again = cluster2(&g, &config(2, 4), &CancelToken::with_check_limit(6));
        assert_eq!(partial.assignment, again.assignment);
        assert_eq!(partial.dist, again.dist);
    }
}
