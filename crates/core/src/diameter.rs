//! `CL-DIAM`: cluster-based diameter approximation (Section 4 / Section 5).
//!
//! The driver decomposes the graph (with `CLUSTER`, or `CLUSTER2` when
//! requested), builds the weighted quotient graph, computes (or tightly
//! estimates) the quotient diameter `Φ(G_C)` and returns
//! `Φ_approx(G) = Φ(G_C) + 2·R`, which is an upper bound on the true weighted
//! diameter whenever the per-node distances are genuine upper bounds — which
//! they are by construction in this implementation. A quotient edge weight
//! too large for a `Weight` would have to be clamped, so such a quotient
//! reports no bound (`INFINITY`) instead.

use cldiam_graph::{CancelToken, Dist, NeighborSource, INFINITY};
use cldiam_mr::CostMetrics;
use cldiam_sssp::{diameter_lower_bound, exact_diameter};

use crate::cluster::cluster_cancel;
use crate::cluster2::cluster2_cancel;
use crate::clustering::Clustering;
use crate::config::ClusterConfig;
use crate::quotient::{quotient_graph, QuotientGraph};

/// Result of a `CL-DIAM` run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiameterEstimate {
    /// The diameter estimate `Φ_approx(G) = Φ(G_C) + 2·R` (an upper bound),
    /// or `INFINITY` (no bound) when a quotient edge weight overflowed.
    pub upper_bound: Dist,
    /// Diameter of the quotient graph `Φ(G_C)`.
    pub quotient_diameter: Dist,
    /// Radius `R` of the clustering.
    pub radius: Dist,
    /// Number of clusters (nodes of the quotient graph).
    pub num_clusters: usize,
    /// Number of edges of the quotient graph.
    pub quotient_edges: usize,
    /// Whether the quotient diameter was computed exactly (all-pairs) or
    /// estimated with farthest-node sweeps. Also `false` when a quotient
    /// edge weight overflowed.
    pub quotient_exact: bool,
    /// Number of Δ-growing steps performed by the decomposition.
    pub growing_steps: u64,
    /// Aggregate MR cost (rounds, messages, node updates).
    pub metrics: CostMetrics,
}

impl DiameterEstimate {
    /// Approximation ratio against a known reference value (typically the
    /// lower bound produced by iterated SSSP sweeps, as in Table 2); see
    /// [`approximation_ratio`].
    pub fn ratio_against(&self, reference: Dist) -> f64 {
        approximation_ratio(self.upper_bound, reference)
    }
}

/// Approximation ratio `estimate / reference` of a diameter estimate. An
/// `INFINITY` estimate (no bound) and a positive estimate against a zero
/// reference are infinitely loose; `0 / 0` is exact (1.0).
pub fn approximation_ratio(estimate: Dist, reference: Dist) -> f64 {
    if estimate == INFINITY {
        f64::INFINITY
    } else if reference == 0 {
        if estimate == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        estimate as f64 / reference as f64
    }
}

/// The `CL-DIAM` driver. Holds a configuration and exposes the individual
/// pipeline stages, which the benchmark harness instruments separately.
#[derive(Clone, Debug, Default)]
pub struct ClDiam {
    config: ClusterConfig,
}

impl ClDiam {
    /// Creates a driver with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        ClDiam { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs the graph decomposition stage only.
    pub fn decompose<G: NeighborSource>(&self, graph: &G) -> Clustering {
        self.decompose_cancel(graph, &CancelToken::never())
    }

    /// [`ClDiam::decompose`] with a cooperative [`CancelToken`]. A cancelled
    /// decomposition is still a valid clustering — completed stages keep
    /// their clusters, the rest become singletons — so every downstream
    /// stage (quotient, diameter bound) stays sound, merely coarser.
    pub fn decompose_cancel<G: NeighborSource>(
        &self,
        graph: &G,
        cancel: &CancelToken,
    ) -> Clustering {
        if self.config.use_cluster2 {
            cluster2_cancel(graph, &self.config, cancel)
        } else {
            cluster_cancel(graph, &self.config, cancel)
        }
    }

    /// Runs the full pipeline: decomposition, quotient construction and
    /// quotient-diameter computation.
    pub fn run<G: NeighborSource>(&self, graph: &G) -> DiameterEstimate {
        self.run_cancel(graph, &CancelToken::never())
    }

    /// [`ClDiam::run`] with a cooperative [`CancelToken`]. Only the
    /// decomposition polls the token; the quotient stage always completes
    /// (it is cheap relative to the decomposition and the estimate would be
    /// useless without it), so the returned `upper_bound` is exactly as
    /// sound as an uninterrupted run's — a degraded clustering just makes
    /// it looser.
    pub fn run_cancel<G: NeighborSource>(
        &self,
        graph: &G,
        cancel: &CancelToken,
    ) -> DiameterEstimate {
        let clustering = self.decompose_cancel(graph, cancel);
        self.estimate_from_clustering(graph, &clustering)
    }

    /// Builds the quotient of an existing clustering and finishes the
    /// estimate, so a caller can read the decomposition (such as its final
    /// `Δ`) next to the estimate built from it, as the `delta_tuning` example
    /// does.
    ///
    /// A quotient edge whose augmented weight does not fit a `Weight` is
    /// clamped, which shortens it, so `Φ(G_C) + 2·R` could fall below the
    /// diameter: such a quotient yields `upper_bound = INFINITY` and
    /// `quotient_exact = false`.
    pub fn estimate_from_clustering<G: NeighborSource>(
        &self,
        graph: &G,
        clustering: &Clustering,
    ) -> DiameterEstimate {
        let quotient = quotient_graph(graph, clustering);
        let (quotient_diameter, quotient_exact) = self.quotient_diameter(&quotient);
        let (upper_bound, quotient_exact) = if quotient.overflow_edges > 0 {
            (INFINITY, false)
        } else {
            (quotient_diameter.saturating_add(clustering.radius.saturating_mul(2)), quotient_exact)
        };
        // The quotient construction and its diameter computation are charged
        // as one extra round each, following the paper's observation that the
        // quotient fits in a single reducer's local memory.
        let metrics = clustering.metrics.merged(&CostMetrics {
            rounds: 2,
            messages: quotient.boundary_edges as u64,
            node_updates: 0,
            peak_local_items: quotient.graph.num_arcs() as u64,
        });
        DiameterEstimate {
            upper_bound,
            quotient_diameter,
            radius: clustering.radius,
            num_clusters: clustering.num_clusters(),
            quotient_edges: quotient.graph.num_edges(),
            quotient_exact,
            growing_steps: clustering.growing_steps,
            metrics,
        }
    }

    /// Diameter of the quotient graph: exact (batched all-pairs Dijkstra
    /// through `cldiam_sssp::batch`) below the configured size threshold,
    /// estimated with farthest-node sweep chains above it.
    fn quotient_diameter(&self, quotient: &QuotientGraph) -> (Dist, bool) {
        let q = &quotient.graph;
        if q.num_nodes() <= 1 {
            return (0, true);
        }
        if q.num_nodes() <= self.config.exact_quotient_threshold {
            (exact_diameter(q), true)
        } else {
            (diameter_lower_bound(q, self.config.quotient_sweeps, self.config.seed), false)
        }
    }
}

/// Convenience function: runs `CL-DIAM` on `graph` with `config`.
pub fn approximate_diameter<G: NeighborSource>(
    graph: &G,
    config: &ClusterConfig,
) -> DiameterEstimate {
    ClDiam::new(config.clone()).run(graph)
}

/// [`approximate_diameter`] with a cooperative [`CancelToken`] (see
/// [`ClDiam::run_cancel`]).
pub fn approximate_diameter_cancel<G: NeighborSource>(
    graph: &G,
    config: &ClusterConfig,
    cancel: &CancelToken,
) -> DiameterEstimate {
    ClDiam::new(config.clone()).run_cancel(graph, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialDelta;
    use cldiam_gen::{mesh, path, preferential_attachment, road_network, WeightModel};
    use cldiam_graph::largest_component;

    fn config(tau: usize, seed: u64) -> ClusterConfig {
        ClusterConfig::default().with_tau(tau).with_seed(seed)
    }

    fn check_bounds(graph: &cldiam_graph::Graph, estimate: &DiameterEstimate) -> (Dist, f64) {
        let exact = exact_diameter(graph);
        assert!(
            estimate.upper_bound >= exact,
            "estimate {} below true diameter {exact}",
            estimate.upper_bound
        );
        let ratio = estimate.ratio_against(exact);
        (exact, ratio)
    }

    #[test]
    fn upper_bounds_and_good_ratio_on_mesh() {
        let g = mesh(16, WeightModel::UniformUnit, 3);
        let estimate = approximate_diameter(&g, &config(4, 7));
        let (_, ratio) = check_bounds(&g, &estimate);
        assert!(ratio < 2.0, "ratio {ratio}");
        assert!(estimate.num_clusters > 1);
        assert!(estimate.metrics.rounds > 0);
    }

    #[test]
    fn upper_bounds_on_road_network() {
        let (g, _) = largest_component(&road_network(22, 22, 5));
        let estimate = approximate_diameter(&g, &config(4, 3));
        let (_, ratio) = check_bounds(&g, &estimate);
        assert!(ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn upper_bounds_on_social_graph() {
        let g = preferential_attachment(600, 3, WeightModel::UniformUnit, 4);
        let estimate = approximate_diameter(&g, &config(8, 5));
        let (_, ratio) = check_bounds(&g, &estimate);
        assert!(ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn cluster2_variant_also_upper_bounds() {
        let g = mesh(12, WeightModel::UniformUnit, 8);
        let estimate = approximate_diameter(&g, &config(2, 9).with_cluster2(true));
        check_bounds(&g, &estimate);
    }

    #[test]
    fn estimate_on_path_graph_is_tight() {
        // On a path with τ large enough, every node is a singleton cluster and
        // the quotient is the path itself: the estimate equals the diameter.
        let g = path(32, 5);
        let estimate = approximate_diameter(&g, &config(64, 1));
        assert_eq!(estimate.upper_bound, 31 * 5);
        assert_eq!(estimate.radius, 0);
        assert!(estimate.quotient_exact);
    }

    #[test]
    fn handles_trivial_graphs() {
        let empty = cldiam_graph::Graph::empty(0);
        let e = approximate_diameter(&empty, &config(2, 1));
        assert_eq!(e.upper_bound, 0);
        let single = cldiam_graph::Graph::empty(1);
        let s = approximate_diameter(&single, &config(2, 1));
        assert_eq!(s.upper_bound, 0);
        assert_eq!(s.num_clusters, 1);
    }

    #[test]
    fn ratio_against_zero_reference() {
        let estimate = DiameterEstimate {
            upper_bound: 0,
            quotient_diameter: 0,
            radius: 0,
            num_clusters: 1,
            quotient_edges: 0,
            quotient_exact: true,
            growing_steps: 0,
            metrics: CostMetrics::default(),
        };
        assert_eq!(estimate.ratio_against(0), 1.0);
        let nonzero = DiameterEstimate { upper_bound: 5, ..estimate };
        assert!(nonzero.ratio_against(0).is_infinite());
        assert!((nonzero.ratio_against(4) - 1.25).abs() < 1e-9);
        let unbounded = DiameterEstimate { upper_bound: INFINITY, ..estimate };
        assert!(unbounded.ratio_against(4).is_infinite());
        assert!(unbounded.ratio_against(0).is_infinite());
    }

    #[test]
    fn initial_delta_sensitivity_mirrors_section_5() {
        // The §5 experiment: on a mesh with bimodal weights, starting Δ at the
        // graph diameter skips the self-tuning and inflates the estimate,
        // while starting at the minimum weight stays tight.
        let g = mesh(24, WeightModel::paper_bimodal(), 11);
        let exact = exact_diameter(&g);
        let tight =
            approximate_diameter(&g, &config(4, 2).with_initial_delta(InitialDelta::MinWeight));
        let loose =
            approximate_diameter(&g, &config(4, 2).with_initial_delta(InitialDelta::Fixed(exact)));
        assert!(tight.upper_bound >= exact);
        assert!(loose.upper_bound >= exact);
        assert!(
            loose.upper_bound >= tight.upper_bound,
            "loose {} vs tight {}",
            loose.upper_bound,
            tight.upper_bound
        );
    }

    #[test]
    fn cancelled_run_still_upper_bounds_the_diameter() {
        // A degraded decomposition only coarsens the clustering; the
        // quotient estimate must still bracket the exact diameter, all the
        // way down to the all-singletons case (quotient == graph).
        let g = mesh(10, WeightModel::UniformUnit, 4);
        let exact = exact_diameter(&g);
        for limit in [1, 3, 8] {
            let estimate = approximate_diameter_cancel(
                &g,
                &config(2, 6),
                &CancelToken::with_check_limit(limit),
            );
            assert!(
                estimate.upper_bound >= exact,
                "limit {limit}: estimate {} below true diameter {exact}",
                estimate.upper_bound
            );
            let again = approximate_diameter_cancel(
                &g,
                &config(2, 6),
                &CancelToken::with_check_limit(limit),
            );
            assert_eq!(estimate, again, "limit {limit}: cancelled run not deterministic");
        }
    }

    #[test]
    fn overflowing_quotient_weight_reports_no_upper_bound() {
        // 0 -1- 1 -MAX- 2 -1- 3 -1- 4 -MAX- 5 -1- 6, clustered {0,1}, {2,3,4}
        // and {5,6} around 0, 3 and 6. Both heavy edges augment to MAX + 2,
        // and clamping them to MAX gave Φ(G_C) + 2R = 2·MAX + 2, below the
        // diameter 2·MAX + 4.
        let max = cldiam_graph::Weight::MAX;
        let g = cldiam_graph::Graph::from_edges(
            7,
            &[(0, 1, 1), (1, 2, max), (2, 3, 1), (3, 4, 1), (4, 5, max), (5, 6, 1)],
        );
        let clustering = Clustering {
            assignment: vec![0, 0, 3, 3, 3, 6, 6],
            dist: vec![0, 1, 1, 0, 1, 1, 0],
            centers: vec![0, 3, 6],
            radius: 1,
            delta_end: 1,
            growing_steps: 1,
            stages: 1,
            metrics: CostMetrics::default(),
        };
        assert_eq!(quotient_graph(&g, &clustering).overflow_edges, 2);
        let estimate = ClDiam::default().estimate_from_clustering(&g, &clustering);
        assert_eq!(exact_diameter(&g), 2 * Dist::from(max) + 4);
        assert_eq!(estimate.upper_bound, INFINITY);
        assert!(!estimate.quotient_exact);
    }

    #[test]
    fn estimate_from_clustering_reuses_decomposition() {
        let g = mesh(10, WeightModel::UniformUnit, 2);
        let driver = ClDiam::new(config(2, 3));
        let clustering = driver.decompose(&g);
        let a = driver.estimate_from_clustering(&g, &clustering);
        let b = driver.run(&g);
        assert_eq!(a.upper_bound, b.upper_bound);
        assert_eq!(a.num_clusters, b.num_clusters);
    }
}
