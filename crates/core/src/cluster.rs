//! `CLUSTER(G, τ)` — Algorithm 1 of the paper.
//!
//! Clusters are grown in stages. In each stage a fresh batch of centers is
//! selected uniformly at random among the still-uncovered nodes (each with
//! probability `γ·τ·log n / |uncovered|`, `γ = 4 ln 2`), and the current
//! clusters — previous ones contracted to their centers plus the new ones —
//! are grown with Δ-growing steps until at least half of the uncovered nodes
//! are reached within distance `Δ`; whenever the goal cannot be met, `Δ` is
//! doubled and the growth continues. Covered nodes are then assigned to their
//! clusters and the stage's coverage is frozen (the logical equivalent of
//! procedure `Contract`; see `contract.rs`). When fewer than `8·τ·log n` nodes
//! remain uncovered, they become singleton clusters.
//!
//! Theorem 1: w.h.p. the procedure produces `O(τ log² n)` clusters of radius
//! `O(R_G(τ) · log n)` using `O(ℓ_{R_G(τ)} · log n)` Δ-growing steps, and the
//! final threshold satisfies `Δ_end = O(R_G(τ))` (Lemma 1).

use cldiam_mr::CostTracker;
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;

use cldiam_graph::{CancelToken, Dist, NeighborSource, NodeId};

use crate::clustering::Clustering;
use crate::config::ClusterConfig;
use crate::growing::GrowScratch;

/// The paper's constant `γ = 4 ln 2` used in the center-selection probability.
pub const GAMMA: f64 = 2.772_588_722_239_781;

/// Runs `CLUSTER(G, τ)` and returns the resulting clustering.
///
/// The decomposition is deterministic given `config.seed`. Works on connected
/// and disconnected graphs alike (nodes unreachable from every selected center
/// end up as singleton clusters, matching the paper's convention of treating
/// components independently).
///
/// The cooperative [`CancelToken`] is polled at stage and Δ-growing wave
/// boundaries; a caller that never cancels passes `&CancelToken::never()`.
/// A cancelled run degrades gracefully: whatever the completed stages
/// covered keeps its clusters, every still-uncovered node becomes a
/// singleton, and the result is always a *valid* clustering (per-node
/// distances remain genuine upper bounds), just coarser than an
/// uninterrupted run's.
pub fn cluster<G: NeighborSource>(
    graph: &G,
    config: &ClusterConfig,
    cancel: &CancelToken,
) -> Clustering {
    let tracker = CostTracker::new();
    let mut scratch = GrowScratch::with_capacity(graph.num_nodes());
    let run = cluster_stages(graph, config, &tracker, &mut scratch, cancel);
    finalize(scratch, run, &tracker)
}

/// Internal driver shared with `CLUSTER2`: runs the staged decomposition in
/// the caller's growing scratch, which holds the grow state from the first
/// stage to the last, so every stage and every wave of the decomposition
/// reuses the same atomic cells and frontier buffers. The nodes left
/// uncovered stay so until [`GrowScratch::finish`] makes them singletons;
/// the round that charges for it is already counted.
pub(crate) fn cluster_stages<G: NeighborSource>(
    graph: &G,
    config: &ClusterConfig,
    tracker: &CostTracker,
    scratch: &mut GrowScratch,
    cancel: &CancelToken,
) -> ClusterRun {
    let n = graph.num_nodes();
    let mut run =
        ClusterRun { delta: config.initial_delta.resolve(graph), growing_steps: 0, stages: 0 };
    if n == 0 {
        return run;
    }
    let log_n = (n.max(2) as f64).log2();
    let stop_threshold = (8.0 * config.tau as f64 * log_n).ceil() as usize;
    // Once Δ exceeds the total edge weight no further doubling can help:
    // every node reachable from a source has been reached.
    let delta_cap: Dist = graph.total_weight().saturating_mul(2).max(2);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
    scratch.start(n);

    loop {
        // Stage boundary: a cancelled run keeps the stages already frozen
        // and falls through to the singleton fallback below, which is a
        // valid (coarse) clustering of whatever remains.
        if cancel.checkpoint() {
            break;
        }
        let uncovered = scratch.uncovered();
        if uncovered.is_empty() || uncovered.len() < stop_threshold {
            break;
        }
        run.stages += 1;

        // Center selection: each uncovered node independently with probability
        // γ·τ·log n / |uncovered| (capped at 1).
        let p = (GAMMA * config.tau as f64 * log_n / uncovered.len() as f64).min(1.0);
        let mut new_centers: Vec<NodeId> =
            uncovered.iter().copied().filter(|_| rng.gen::<f64>() < p).collect();
        if new_centers.is_empty() {
            // The expected batch size is Θ(τ log n) ≫ 1, so an empty batch is
            // vanishingly unlikely; force one center to guarantee progress.
            new_centers.push(uncovered[rng.gen_range(0..uncovered.len())]);
        }
        let num_uncovered = uncovered.len();

        // Stage initialization: previously covered nodes act as distance-0
        // sources for their clusters — the logical form of Contract — and
        // new centers start their own clusters.
        scratch.credit_sources(|_, _| 0);
        for &c in &new_centers {
            scratch.set_center(c);
        }
        // One round for selection + state initialization.
        tracker.add_round();
        tracker.add_messages(num_uncovered as u64);

        // Inner loop: grow until at least half of the uncovered nodes are
        // within distance Δ, doubling Δ whenever the goal cannot be met.
        let target = num_uncovered.div_ceil(2);
        loop {
            let outcome = scratch.partial_growth(
                graph,
                run.delta,
                run.delta,
                Some(target),
                config.max_growing_steps_per_phase,
                Some(tracker),
                cancel,
            );
            run.growing_steps += outcome.steps;
            if outcome.reached_unfrozen >= target {
                break;
            }
            // A cancelled growth missed its target on purpose: accept the
            // partial coverage instead of doubling Δ forever after it.
            if cancel.is_cancelled() {
                break;
            }
            if run.delta >= delta_cap {
                // Nothing reachable is left within any budget (disconnected
                // remainder); stop doubling and accept the partial coverage.
                break;
            }
            run.delta = run.delta.saturating_mul(2).min(delta_cap);
            tracker.add_round();
        }

        // End of stage: assign reached nodes to their clusters (Contract).
        scratch.freeze_reached();
        tracker.add_round();
    }

    // Remaining uncovered nodes become singleton clusters.
    tracker.add_round();
    run
}

/// Bookkeeping of the staged decomposition; the grow state itself stays in
/// the scratch.
pub(crate) struct ClusterRun {
    pub(crate) delta: Dist,
    pub(crate) growing_steps: u64,
    pub(crate) stages: u64,
}

/// Finishes the decomposition held in `scratch` and packages it into a
/// [`Clustering`], whose assignment and distances take over the cells'
/// memory.
pub(crate) fn finalize(scratch: GrowScratch, run: ClusterRun, tracker: &CostTracker) -> Clustering {
    let (assignment, mut dist) = scratch.finish();
    for d in &mut dist {
        if *d == Dist::MAX {
            *d = 0;
        }
    }
    let radius = dist.iter().copied().max().unwrap_or(0);
    let centers: Vec<NodeId> =
        (0..assignment.len() as NodeId).filter(|&u| assignment[u as usize] == u).collect();
    Clustering {
        assignment,
        dist,
        centers,
        radius,
        delta_end: run.delta,
        growing_steps: run.growing_steps,
        stages: run.stages,
        metrics: tracker.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialDelta;
    use cldiam_gen::{mesh, path, preferential_attachment, road_network, WeightModel};
    use cldiam_graph::largest_component;
    use cldiam_sssp::dijkstra;

    fn default_config(tau: usize, seed: u64) -> ClusterConfig {
        ClusterConfig::default().with_tau(tau).with_seed(seed)
    }

    /// Distances recorded by the clustering must upper-bound the true
    /// distances to the assigned centers.
    fn assert_distances_are_upper_bounds(graph: &cldiam_graph::Graph, clustering: &Clustering) {
        for &c in &clustering.centers {
            let sp = dijkstra(graph, c);
            for u in 0..graph.num_nodes() {
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
    fn clusters_cover_every_node_on_mesh() {
        let g = mesh(16, WeightModel::UniformUnit, 3);
        let clustering = cluster(&g, &default_config(4, 7), &CancelToken::never());
        clustering.validate(&g).expect("valid clustering");
        assert!(clustering.num_clusters() < g.num_nodes());
        assert!(clustering.num_clusters() >= 1);
        assert_distances_are_upper_bounds(&g, &clustering);
    }

    #[test]
    fn works_on_road_networks_with_original_weights() {
        let (g, _) = largest_component(&road_network(25, 25, 5));
        let clustering = cluster(&g, &default_config(4, 11), &CancelToken::never());
        clustering.validate(&g).expect("valid clustering");
        assert_distances_are_upper_bounds(&g, &clustering);
        assert!(clustering.radius > 0);
    }

    #[test]
    fn works_on_power_law_graphs() {
        let g = preferential_attachment(800, 3, WeightModel::UniformUnit, 2);
        let clustering = cluster(&g, &default_config(4, 3), &CancelToken::never());
        clustering.validate(&g).expect("valid clustering");
        assert_distances_are_upper_bounds(&g, &clustering);
    }

    #[test]
    fn is_deterministic_in_the_seed() {
        // 400 nodes with τ = 2 so the staged growth actually runs (the
        // stopping threshold 8·τ·log n is well below n).
        let g = mesh(20, WeightModel::UniformUnit, 3);
        let a = cluster(&g, &default_config(2, 9), &CancelToken::never());
        let b = cluster(&g, &default_config(2, 9), &CancelToken::never());
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.dist, b.dist);
        let c = cluster(&g, &default_config(2, 10), &CancelToken::never());
        assert_ne!(a.assignment, c.assignment);
    }

    #[test]
    fn larger_tau_gives_more_clusters_and_smaller_radius() {
        let g = mesh(24, WeightModel::UniformUnit, 3);
        let coarse = cluster(&g, &default_config(1, 5), &CancelToken::never());
        let fine = cluster(&g, &default_config(16, 5), &CancelToken::never());
        assert!(fine.num_clusters() > coarse.num_clusters());
        assert!(fine.radius <= coarse.radius);
    }

    #[test]
    fn handles_disconnected_graphs_with_singletons() {
        let g = cldiam_graph::Graph::from_edges(6, &[(0, 1, 2), (1, 2, 2), (4, 5, 3)]);
        let clustering = cluster(&g, &default_config(1, 1), &CancelToken::never());
        clustering.validate(&g).expect("valid clustering");
        // Node 3 is isolated: it must be its own (singleton) cluster.
        assert_eq!(clustering.assignment[3], 3);
        assert_eq!(clustering.dist[3], 0);
    }

    #[test]
    fn handles_tiny_graphs() {
        let empty = cldiam_graph::Graph::empty(0);
        let c0 = cluster(&empty, &default_config(2, 1), &CancelToken::never());
        assert_eq!(c0.num_clusters(), 0);
        let single = cldiam_graph::Graph::empty(1);
        let c1 = cluster(&single, &default_config(2, 1), &CancelToken::never());
        assert_eq!(c1.num_clusters(), 1);
        assert_eq!(c1.assignment, vec![0]);
        let pair = path(2, 5);
        let c2 = cluster(&pair, &default_config(2, 1), &CancelToken::never());
        c2.validate(&pair).expect("valid clustering");
    }

    #[test]
    fn small_tau_on_small_graph_skips_staged_growth() {
        // When n < 8·τ·log n every node becomes a singleton immediately.
        let g = path(10, 1);
        let clustering = cluster(&g, &default_config(64, 1), &CancelToken::never());
        assert_eq!(clustering.num_clusters(), 10);
        assert_eq!(clustering.radius, 0);
        assert_eq!(clustering.stages, 0);
    }

    #[test]
    fn growing_steps_and_rounds_are_reported() {
        let g = mesh(20, WeightModel::UniformUnit, 4);
        let clustering = cluster(&g, &default_config(2, 6), &CancelToken::never());
        assert!(clustering.growing_steps > 0);
        assert!(clustering.metrics.rounds >= clustering.growing_steps);
        assert!(clustering.metrics.work() > 0);
        assert!(clustering.stages >= 1);
    }

    #[test]
    fn delta_end_tracks_initial_policy() {
        let g = mesh(16, WeightModel::UniformUnit, 8);
        let from_min = cluster(
            &g,
            &default_config(2, 3).with_initial_delta(InitialDelta::MinWeight),
            &CancelToken::never(),
        );
        let from_avg = cluster(
            &g,
            &default_config(2, 3).with_initial_delta(InitialDelta::AvgWeight),
            &CancelToken::never(),
        );
        // Starting from the minimum weight requires more doublings but ends in
        // the same ballpark; both must exceed their starting value.
        assert!(from_min.delta_end >= Dist::from(g.min_weight().unwrap()));
        assert!(from_avg.delta_end >= Dist::from(g.avg_weight().unwrap()));
    }

    #[test]
    fn step_cap_limits_growing_steps_per_phase() {
        let g = mesh(20, WeightModel::UniformUnit, 4);
        let capped = cluster(&g, &default_config(2, 6).with_step_cap(2), &CancelToken::never());
        capped.validate(&g).expect("valid clustering");
        // With a cap the algorithm still terminates and covers every node.
        assert_eq!(capped.assignment.len(), g.num_nodes());
    }

    #[test]
    fn cancelled_cluster_is_still_a_valid_clustering() {
        // A pre-cancelled token degrades to all-singletons; a tight check
        // budget stops somewhere in the middle. Both must validate and keep
        // recorded distances as genuine upper bounds.
        let g = mesh(14, WeightModel::UniformUnit, 3);
        let pre = CancelToken::never();
        pre.cancel();
        let degenerate = cluster(&g, &default_config(2, 5), &pre);
        degenerate.validate(&g).expect("valid clustering");
        assert_eq!(degenerate.num_clusters(), g.num_nodes());
        assert_eq!(degenerate.radius, 0);

        let partial = cluster(&g, &default_config(2, 5), &CancelToken::with_check_limit(4));
        partial.validate(&g).expect("valid clustering");
        assert_distances_are_upper_bounds(&g, &partial);
    }

    #[test]
    fn check_limit_cancellation_is_deterministic() {
        let g = mesh(12, WeightModel::UniformUnit, 8);
        let first = cluster(&g, &default_config(2, 2), &CancelToken::with_check_limit(5));
        for _ in 0..4 {
            let again = cluster(&g, &default_config(2, 2), &CancelToken::with_check_limit(5));
            assert_eq!(first.assignment, again.assignment);
            assert_eq!(first.dist, again.dist);
            assert_eq!(first.radius, again.radius);
        }
    }
}
