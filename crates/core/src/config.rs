//! Configuration of the clustering / diameter-approximation pipeline.

use cldiam_graph::{Dist, NeighborSource};

/// Policy for the initial value of the growth threshold `Δ`.
///
/// The pseudocode of `CLUSTER` starts from the minimum edge weight and doubles
/// until the coverage goal is met. Section 5 shows that starting from the
/// *average* edge weight reduces the number of doublings (hence rounds)
/// without hurting the approximation, and that starting from a value as large
/// as the diameter can inflate the approximation by 2.5×; the experiments all
/// use the average-weight rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialDelta {
    /// The pseudocode default: the minimum edge weight.
    MinWeight,
    /// The paper's practical choice: the average edge weight.
    AvgWeight,
    /// A fixed, caller-supplied value (used by the §5 sensitivity experiment).
    Fixed(Dist),
}

impl InitialDelta {
    /// Resolves the policy against a concrete graph (always at least 1).
    pub fn resolve<G: NeighborSource>(&self, graph: &G) -> Dist {
        match *self {
            InitialDelta::MinWeight => Dist::from(graph.min_weight().unwrap_or(1)).max(1),
            InitialDelta::AvgWeight => Dist::from(graph.avg_weight().unwrap_or(1)).max(1),
            InitialDelta::Fixed(v) => v.max(1),
        }
    }
}

/// Configuration of `CLUSTER` / `CLUSTER2` and of the `CL-DIAM` driver.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// The parameter `τ`: the batch size of the progressive center selection.
    /// `CLUSTER` produces `O(τ log² n)` clusters; larger `τ` means more
    /// clusters, a smaller radius and fewer growing steps, but a larger
    /// quotient graph.
    pub tau: usize,
    /// Initial value of the growth threshold `Δ`.
    pub initial_delta: InitialDelta,
    /// Seed of the random center selection (the algorithm is deterministic
    /// given the seed).
    pub seed: u64,
    /// Optional cap on the number of Δ-growing steps per `PartialGrowth`
    /// invocation (the `O(n/τ)` limit discussed at the end of §4.1 for skewed
    /// topologies). `None` means unlimited, as in Algorithm 1.
    pub max_growing_steps_per_phase: Option<usize>,
    /// When `true`, `CL-DIAM` decomposes the graph with `CLUSTER2`
    /// (Algorithm 2) instead of `CLUSTER`; the paper's experiments use
    /// `CLUSTER` because the refined decomposition "does not seem to provide a
    /// significant improvement in practice".
    pub use_cluster2: bool,
    /// No library code reads it (`CL-DIAM` solves `Φ(G_C)` exactly at every
    /// size); only perfbench's threshold check does, until ROADMAP item 7.
    pub exact_quotient_threshold: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            tau: 64,
            initial_delta: InitialDelta::AvgWeight,
            seed: 1,
            max_growing_steps_per_phase: None,
            use_cluster2: false,
            exact_quotient_threshold: 2_000,
        }
    }
}

impl ClusterConfig {
    /// Sets `τ`.
    pub fn with_tau(mut self, tau: usize) -> Self {
        self.tau = tau.max(1);
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initial-`Δ` policy.
    pub fn with_initial_delta(mut self, policy: InitialDelta) -> Self {
        self.initial_delta = policy;
        self
    }

    /// Caps the number of growing steps per `PartialGrowth` call (§4.1).
    pub fn with_step_cap(mut self, cap: usize) -> Self {
        self.max_growing_steps_per_phase = Some(cap.max(1));
        self
    }

    /// Switches the decomposition to `CLUSTER2`.
    pub fn with_cluster2(mut self, enable: bool) -> Self {
        self.use_cluster2 = enable;
        self
    }

    /// Chooses `τ` so that the expected number of clusters (≈ `τ log² n`, the
    /// Theorem 1 bound) stays below `target_quotient_nodes`, mimicking the
    /// paper's rule "τ was set to yield a number of nodes in the quotient
    /// graph ≤ 100,000".
    pub fn tau_for_quotient_target(num_nodes: usize, target_quotient_nodes: usize) -> usize {
        if num_nodes <= 1 {
            return 1;
        }
        let log_n = (num_nodes as f64).log2().max(1.0);
        let tau = target_quotient_nodes as f64 / (log_n * log_n);
        tau.max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_graph::Graph;

    #[test]
    fn initial_delta_resolution() {
        let g = Graph::from_edges(3, &[(0, 1, 10), (1, 2, 30)]);
        assert_eq!(InitialDelta::MinWeight.resolve(&g), 10);
        assert_eq!(InitialDelta::AvgWeight.resolve(&g), 20);
        assert_eq!(InitialDelta::Fixed(7).resolve(&g), 7);
        assert_eq!(InitialDelta::Fixed(0).resolve(&g), 1);
        // Edgeless graph falls back to 1.
        assert_eq!(InitialDelta::AvgWeight.resolve(&Graph::empty(4)), 1);
    }

    #[test]
    fn builder_methods_compose() {
        let c = ClusterConfig::default()
            .with_tau(10)
            .with_seed(99)
            .with_initial_delta(InitialDelta::MinWeight)
            .with_step_cap(5)
            .with_cluster2(true);
        assert_eq!(c.tau, 10);
        assert_eq!(c.seed, 99);
        assert_eq!(c.initial_delta, InitialDelta::MinWeight);
        assert_eq!(c.max_growing_steps_per_phase, Some(5));
        assert!(c.use_cluster2);
    }

    #[test]
    fn tau_clamped_to_one() {
        assert_eq!(ClusterConfig::default().with_tau(0).tau, 1);
    }

    #[test]
    fn tau_for_quotient_target_scales() {
        let small = ClusterConfig::tau_for_quotient_target(1 << 10, 1000);
        let large = ClusterConfig::tau_for_quotient_target(1 << 20, 1000);
        assert!(small >= large, "small-n tau {small} vs large-n tau {large}");
        assert!(small >= 1 && large >= 1);
        assert_eq!(ClusterConfig::tau_for_quotient_target(1, 100), 1);
    }
}
