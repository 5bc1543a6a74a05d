//! Anytime diameter bounds with the CL-DIAM quotient oracle plugged in.
//!
//! The engine itself lives in `cldiam_sssp::bounds` and is deliberately
//! oblivious to clustering; this module supplies the glue that makes it the
//! paper-flavoured *anytime* algorithm: the oracle consulted mid-run is a
//! full CL-DIAM pipeline (`Φ(G_C) + 2·R`), so a handful of adaptive SSSPs
//! and one clustering pass cooperate on the same shrinking interval instead
//! of running as two unrelated fixed-budget pipelines.

use cldiam_graph::{CancelToken, Dist, Graph, NeighborSource, INFINITY};
use cldiam_sssp::{
    bounds_diameter_cancel, bounds_diameter_with_split_cancel, BoundsConfig, BoundsOutcome,
    ComponentSplit, DiameterOracle, NO_ORACLE,
};

use crate::config::ClusterConfig;
use crate::diameter::approximate_diameter_cancel;

/// The CL-DIAM quotient upper bound as a [`DiameterOracle`]: a full
/// clustering + quotient pipeline run on whichever (component) graph the
/// bounds engine hands it, dense or compressed.
///
/// The oracle carries its own [`CancelToken`]: once the shared flag is set
/// (wall deadline or explicit [`CancelToken::cancel`]) it declines to start
/// a clustering pass and reports `INFINITY`, which the engine treats as
/// "no improvement" — `apply_cap(INFINITY)` is a no-op. A per-clone check
/// budget never sets the shared flag, so under a pure logical-cadence
/// budget the oracle still runs to completion and stays deterministic.
struct QuotientOracle<'a> {
    config: &'a ClusterConfig,
    cancel: &'a CancelToken,
}

impl DiameterOracle for QuotientOracle<'_> {
    fn diameter_upper_bound<G: NeighborSource>(&self, graph: &G) -> Dist {
        if self.cancel.is_cancelled() {
            return INFINITY;
        }
        approximate_diameter_cancel(graph, self.config, &self.cancel.child()).upper_bound
    }
}

/// Configuration of the anytime bound-tightening run.
#[derive(Clone, Debug, Default)]
pub struct AnytimeConfig {
    /// Engine knobs: SSSP budget, tolerance, oracle timing.
    pub bounds: BoundsConfig,
    /// Clustering configuration for the quotient upper-bound oracle;
    /// `None` disables the oracle and runs pure interval tightening.
    pub cluster: Option<ClusterConfig>,
}

impl AnytimeConfig {
    /// Engine knobs, builder style.
    pub fn with_bounds(mut self, bounds: BoundsConfig) -> Self {
        self.bounds = bounds;
        self
    }

    /// Enables the CL-DIAM quotient oracle with the given clustering
    /// configuration.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }
}

/// Runs the anytime engine over a precomputed component split (undirected
/// graphs only — see [`anytime_diameter_cancel`] for the directed dispatch).
pub fn anytime_diameter_with_split<G: NeighborSource>(
    graph: &G,
    config: &AnytimeConfig,
    split: &ComponentSplit,
) -> BoundsOutcome {
    anytime_diameter_with_split_cancel(graph, config, split, &CancelToken::never())
}

/// [`anytime_diameter_with_split`] with a cooperative [`CancelToken`]. The
/// engine polls the token at SSSP boundaries and the quotient oracle both
/// declines to start and polls at decomposition boundaries once the shared
/// flag is set, so an interrupted run still returns a valid best-so-far
/// `[lb, ub]` bracket (marked `interrupted`, never `converged`).
pub fn anytime_diameter_with_split_cancel<G: NeighborSource>(
    graph: &G,
    config: &AnytimeConfig,
    split: &ComponentSplit,
    cancel: &CancelToken,
) -> BoundsOutcome {
    match &config.cluster {
        Some(c) => {
            let oracle = QuotientOracle { config: c, cancel };
            bounds_diameter_with_split_cancel(graph, &config.bounds, Some(&oracle), split, cancel)
        }
        None => bounds_diameter_with_split_cancel(graph, &config.bounds, NO_ORACLE, split, cancel),
    }
}

/// Runs the anytime `[lb, ub]` engine: undirected graphs are component-split
/// and bounded per component, directed graphs run the forward/backward
/// engine (where the quotient oracle — whose clustering is undirected-only —
/// is never consulted). The cooperative [`CancelToken`] is polled as
/// [`anytime_diameter_with_split_cancel`] describes.
pub fn anytime_diameter_cancel(
    graph: &Graph,
    config: &AnytimeConfig,
    cancel: &CancelToken,
) -> BoundsOutcome {
    if graph.is_directed() {
        // CL-DIAM clustering is undirected; the directed engine runs without
        // the oracle regardless of configuration.
        return bounds_diameter_cancel(graph, &config.bounds, NO_ORACLE, cancel);
    }
    anytime_diameter_with_split_cancel(graph, config, &ComponentSplit::compute(graph), cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_gen::{mesh, rmat, RmatParams, WeightModel};
    use cldiam_sssp::exact_diameter;

    #[test]
    fn oracle_run_still_brackets_the_exact_diameter() {
        let g = mesh(10, WeightModel::UniformUnit, 5);
        let exact = exact_diameter(&g);
        let config = AnytimeConfig::default()
            .with_bounds(BoundsConfig::default().with_quotient_after(2))
            .with_cluster(ClusterConfig::default().with_tau(4).with_seed(7));
        let outcome = anytime_diameter_cancel(&g, &config, &CancelToken::never());
        assert!(outcome.lower <= exact && exact <= outcome.upper);
        for it in &outcome.iterations {
            assert!(it.lower <= exact && exact <= it.upper);
        }
    }

    #[test]
    fn oracle_appears_in_the_trace_when_budget_is_tight() {
        // Two SSSPs will not close an rmat component; the oracle must fire.
        let g = rmat(RmatParams::paper(8), WeightModel::UniformUnit, 3);
        let config = AnytimeConfig::default()
            .with_bounds(BoundsConfig::default().with_max_sssp(3).with_quotient_after(2))
            .with_cluster(ClusterConfig::default().with_tau(16).with_seed(3));
        let outcome = anytime_diameter_cancel(&g, &config, &CancelToken::never());
        assert!(
            outcome.iterations.iter().any(|it| it.source.is_none()),
            "quotient oracle never consulted"
        );
    }

    #[test]
    fn split_variant_matches_the_convenience_entry_point() {
        let g = mesh(9, WeightModel::UniformUnit, 1);
        let config = AnytimeConfig::default()
            .with_cluster(ClusterConfig::default().with_tau(4).with_seed(1));
        let split = ComponentSplit::compute(&g);
        assert_eq!(
            anytime_diameter_with_split(&g, &config, &split),
            anytime_diameter_cancel(&g, &config, &CancelToken::never())
        );
    }

    #[test]
    fn no_oracle_matches_raw_engine() {
        let g = mesh(8, WeightModel::UniformUnit, 9);
        let config = AnytimeConfig::default();
        let raw = bounds_diameter_cancel(&g, &config.bounds, NO_ORACLE, &CancelToken::never());
        assert_eq!(anytime_diameter_cancel(&g, &config, &CancelToken::never()), raw);
    }

    #[test]
    fn cancelled_anytime_run_reports_best_so_far_bracket() {
        let g = mesh(10, WeightModel::UniformUnit, 5);
        let exact = exact_diameter(&g);
        let config = AnytimeConfig::default()
            .with_bounds(BoundsConfig::default().with_quotient_after(2))
            .with_cluster(ClusterConfig::default().with_tau(4).with_seed(7));
        let token = CancelToken::never();
        token.cancel();
        let outcome = anytime_diameter_cancel(&g, &config, &token);
        assert!(outcome.interrupted);
        assert!(!outcome.converged);
        // The admitted first SSSP keeps the bracket non-trivial even when
        // the token was cancelled before the run started.
        assert!(outcome.lower > 0);
        assert!(outcome.lower <= exact && exact <= outcome.upper);
    }

    #[test]
    fn check_limited_anytime_run_is_deterministic_and_sound() {
        let g = mesh(12, WeightModel::UniformUnit, 2);
        let exact = exact_diameter(&g);
        let config = AnytimeConfig::default()
            .with_bounds(BoundsConfig::default().with_max_sssp(100).with_quotient_after(2))
            .with_cluster(ClusterConfig::default().with_tau(4).with_seed(3));
        let run =
            |limit| anytime_diameter_cancel(&g, &config, &CancelToken::with_check_limit(limit));
        let first = run(3);
        assert!(first.lower <= exact && exact <= first.upper);
        for _ in 0..4 {
            assert_eq!(run(3), first, "check-limited anytime run not deterministic");
        }
    }
}
