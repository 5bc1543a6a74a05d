//! `CL-DIAM`: cluster-based diameter approximation (Section 4 / Section 5).
//!
//! The driver decomposes the graph (with `CLUSTER`, or `CLUSTER2` when
//! requested), builds the weighted quotient graph, computes its exact
//! diameter `Φ(G_C)` with the anytime bounds engine and returns
//! `Φ_approx(G) = Φ(G_C) + 2·R`, which is an upper bound on the true weighted
//! diameter whenever the per-node distances are genuine upper bounds — which
//! they are by construction in this implementation. A quotient edge weight
//! too large for a `Weight` would have to be clamped, so such a quotient
//! reports no bound (`INFINITY`) instead.

use cldiam_graph::{CancelToken, Dist, Graph, NeighborSource, INFINITY};
use cldiam_mr::CostMetrics;
use cldiam_sssp::{bounds_diameter, BoundsConfig, ComponentSplit, NO_ORACLE};

use crate::cluster::cluster;
use crate::cluster2::cluster2;
use crate::clustering::Clustering;
use crate::config::ClusterConfig;
use crate::quotient::quotient_graph;

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
    /// Whether `Φ(G_C)` is the quotient's exact diameter; `false` when a
    /// quotient edge weight overflowed, or when a cancelled token stopped the
    /// quotient's bounds run early (see [`ClDiam::estimate_from_clustering`]).
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

    /// Runs the graph decomposition stage only, uncancelled.
    pub fn decompose<G: NeighborSource>(&self, graph: &G) -> Clustering {
        self.clustering(graph, &CancelToken::never())
    }

    /// Runs the full pipeline: decomposition, quotient construction and
    /// quotient-diameter computation.
    ///
    /// The decomposition polls the cooperative [`CancelToken`] (a caller
    /// that never cancels passes `&CancelToken::never()`). A cancelled
    /// decomposition is still a valid clustering — completed stages keep
    /// their clusters, the rest become singletons — and the quotient stage
    /// still bounds `Φ(G_C)` soundly (see [`Self::estimate_from_clustering`]),
    /// so `upper_bound` stays an upper bound, just a looser one.
    pub fn run<G: NeighborSource>(&self, graph: &G, cancel: &CancelToken) -> DiameterEstimate {
        let clustering = self.clustering(graph, cancel);
        self.estimate_from_clustering(graph, &clustering, cancel)
    }

    /// The decomposition the configuration selects: `CLUSTER`, or `CLUSTER2`
    /// under [`ClusterConfig::use_cluster2`].
    fn clustering<G: NeighborSource>(&self, graph: &G, cancel: &CancelToken) -> Clustering {
        if self.config.use_cluster2 {
            cluster2(graph, &self.config, cancel)
        } else {
            cluster(graph, &self.config, cancel)
        }
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
    ///
    /// Once `cancel`'s shared flag is set (a wall deadline or an explicit
    /// cancel, never a check budget), the quotient's bounds run stops after
    /// one SSSP per component, reporting its upper bound as `Φ(G_C)` and
    /// `quotient_exact = false`: a deadline that cut the decomposition short
    /// is not overrun by an exact solve of the near-singleton quotient.
    pub fn estimate_from_clustering<G: NeighborSource>(
        &self,
        graph: &G,
        clustering: &Clustering,
        cancel: &CancelToken,
    ) -> DiameterEstimate {
        let quotient = quotient_graph(graph, clustering);
        let (quotient_diameter, quotient_exact) = Self::quotient_diameter(&quotient.graph, cancel);
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

    /// An upper bound on the quotient's diameter and whether it is exact, from
    /// the bounds engine with no oracle, tolerance 1.0 and a budget of one
    /// SSSP per quotient node, over the quotient's components. Each SSSP
    /// closes its source's interval, so an uncancelled run converges at every
    /// quotient size; its worst case is all-pairs, sequential per component.
    fn quotient_diameter(q: &Graph, cancel: &CancelToken) -> (Dist, bool) {
        let config = BoundsConfig::default().with_max_sssp(q.num_nodes()).with_tolerance(1.0);
        let split = ComponentSplit::compute(q);
        // Pass the token only once its shared flag is set: a check budget
        // alone would cut short the quotient run of every check-limited run.
        let never = CancelToken::never();
        let cancel = if cancel.is_cancelled() { cancel } else { &never };
        let outcome = bounds_diameter(q, &config, NO_ORACLE, &split, cancel);
        (outcome.upper, outcome.converged)
    }
}

/// Convenience function: runs `CL-DIAM` on `graph` with `config`, uncancelled
/// (see [`ClDiam::run`] for a run under a [`CancelToken`]).
pub fn approximate_diameter<G: NeighborSource>(
    graph: &G,
    config: &ClusterConfig,
) -> DiameterEstimate {
    ClDiam::new(config.clone()).run(graph, &CancelToken::never())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialDelta;
    use cldiam_gen::{mesh, path, preferential_attachment, road_network, WeightModel};
    use cldiam_graph::largest_component;
    use cldiam_sssp::exact_diameter;

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
        let driver = ClDiam::new(config(2, 6));
        for limit in [1, 3, 8] {
            let estimate = driver.run(&g, &CancelToken::with_check_limit(limit));
            assert!(
                estimate.upper_bound >= exact,
                "limit {limit}: estimate {} below true diameter {exact}",
                estimate.upper_bound
            );
            let again = driver.run(&g, &CancelToken::with_check_limit(limit));
            assert_eq!(estimate, again, "limit {limit}: cancelled run not deterministic");
        }
    }

    #[test]
    fn a_cancelled_token_stops_the_quotient_run_after_one_sssp_per_component() {
        // Cancelled before the run, the decomposition leaves every node a
        // singleton, so the quotient is the graph. One SSSP per component
        // bounds its diameter soundly but not exactly. A check budget never
        // sets the shared flag, so its run still solves the quotient exactly.
        let g = mesh(10, WeightModel::UniformUnit, 4);
        let exact = exact_diameter(&g);
        let driver = ClDiam::new(config(2, 6));
        let cancelled = CancelToken::never();
        cancelled.cancel();
        let estimate = driver.run(&g, &cancelled);
        assert_eq!(estimate.num_clusters, g.num_nodes());
        assert!(!estimate.quotient_exact);
        assert!(estimate.upper_bound >= exact, "{} below {exact}", estimate.upper_bound);
        assert!(driver.run(&g, &CancelToken::with_check_limit(1)).quotient_exact);
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
        let never = CancelToken::never();
        let estimate = ClDiam::default().estimate_from_clustering(&g, &clustering, &never);
        assert_eq!(exact_diameter(&g), 2 * Dist::from(max) + 4);
        assert_eq!(estimate.upper_bound, INFINITY);
        assert!(!estimate.quotient_exact);
    }

    #[test]
    fn estimate_from_clustering_reuses_decomposition() {
        let g = mesh(10, WeightModel::UniformUnit, 2);
        let driver = ClDiam::new(config(2, 3));
        let clustering = driver.decompose(&g);
        let never = CancelToken::never();
        let a = driver.estimate_from_clustering(&g, &clustering, &never);
        let b = driver.run(&g, &never);
        assert_eq!(a.upper_bound, b.upper_bound);
        assert_eq!(a.num_clusters, b.num_clusters);
    }
}
