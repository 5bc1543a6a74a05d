//! Execution of CL-DIAM, the Δ-stepping baseline and the bounds engine with
//! the paper's instrumentation, one entry point per algorithm.

use std::time::Instant;

use cldiam_core::{
    anytime_diameter, approximate_diameter, approximation_ratio, AnytimeConfig, ClusterConfig,
};
use cldiam_graph::{CancelToken, Dist, Graph, NeighborSource, NodeId};
use cldiam_sssp::{
    bounds_diameter_directed, delta_stepping_with_scratch, diameter_lower_bound_with_split,
    sssp_diameter_upper_bound, suggest_delta, BoundsConfig, BoundsOutcome, ComponentSplit,
    SsspScratch,
};

/// One measured run of one algorithm on one graph — the columns of
/// Table 2.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Algorithm name (`CL-DIAM`, `Δ-stepping` or `bounds`).
    pub algorithm: String,
    /// Diameter estimate (upper bound) produced by the run.
    pub estimate: Dist,
    /// Lower bound used to normalize the approximation ratio.
    pub lower_bound: Dist,
    /// Approximation ratio (`estimate / lower_bound`).
    pub approximation: f64,
    /// Wall-clock time, in seconds.
    pub time_s: f64,
    /// MapReduce rounds.
    pub rounds: u64,
    /// Work: node updates plus messages.
    pub work: u64,
    /// Extra detail (τ, Δ, cluster counts) for the JSON output.
    pub detail: String,
    /// The bounds engine's outcome, with its iteration trace (`None` for the
    /// other algorithms).
    pub bounds: Option<BoundsOutcome>,
}

/// Computes the diameter lower bound the paper uses to normalize ratios:
/// iterated farthest-node SSSP sweeps, over a precomputed [`ComponentSplit`]
/// so one connectivity pass serves the reference bound, the Δ-stepping
/// baseline and the bounds engine.
pub fn reference_lower_bound<G: NeighborSource>(
    graph: &G,
    seed: u64,
    split: &ComponentSplit,
) -> Dist {
    diameter_lower_bound_with_split(graph, 4, seed, split)
}

/// Runs the anytime bounds engine (`--algo bounds`) on an undirected graph,
/// reusing the caller's [`ComponentSplit`]. Works on any [`NeighborSource`]
/// (dense or compressed CSR). The cooperative [`CancelToken`]
/// (`--timeout-ms` / `--timeout-checks`) stops the engine at the next SSSP
/// boundary once expired, and the result then reports the best-so-far
/// `[lb, ub]` bracket with `interrupted=true`.
pub fn run_bounds<G: NeighborSource>(
    graph: &G,
    config: &AnytimeConfig,
    split: &ComponentSplit,
    cancel: &CancelToken,
) -> RunResult {
    let started = Instant::now();
    let outcome = anytime_diameter(graph, config, split, cancel);
    bounds_result(&config.bounds, config.cluster.is_some(), outcome, started)
}

/// Runs the anytime bounds engine on a directed graph, which goes whole
/// through the forward/backward engine (dense only: it needs in-arcs), under
/// a cooperative [`CancelToken`] as in [`run_bounds`]. The directed engine
/// takes no oracle.
pub fn run_bounds_directed(
    graph: &Graph,
    config: &BoundsConfig,
    cancel: &CancelToken,
) -> RunResult {
    let started = Instant::now();
    let outcome = bounds_diameter_directed(graph, config, cancel);
    bounds_result(config, false, outcome, started)
}

/// The row of a bounds run that began at `started`.
fn bounds_result(
    config: &BoundsConfig,
    oracle: bool,
    outcome: BoundsOutcome,
    started: Instant,
) -> RunResult {
    RunResult {
        algorithm: "bounds".to_string(),
        estimate: outcome.upper,
        lower_bound: outcome.lower,
        approximation: approximation_ratio(outcome.upper, outcome.lower),
        time_s: started.elapsed().as_secs_f64(),
        rounds: outcome.sssp_runs as u64,
        work: 0,
        detail: format!(
            "budget={} tolerance={} oracle={} converged={} interrupted={} sssp={}",
            config.max_sssp,
            config.tolerance,
            if oracle { "quotient" } else { "off" },
            outcome.converged,
            outcome.interrupted,
            outcome.sssp_runs
        ),
        bounds: Some(outcome),
    }
}

/// Runs `CL-DIAM` under an explicit [`ClusterConfig`], where the `cldiam`
/// CLI's flags set `τ` and the `CLUSTER2` switch.
pub fn run_cldiam<G: NeighborSource>(
    graph: &G,
    lower_bound: Dist,
    config: &ClusterConfig,
) -> RunResult {
    let started = Instant::now();
    let estimate = approximate_diameter(graph, config);
    let time_s = started.elapsed().as_secs_f64();
    RunResult {
        algorithm: "CL-DIAM".to_string(),
        estimate: estimate.upper_bound,
        lower_bound,
        approximation: approximation_ratio(estimate.upper_bound, lower_bound),
        time_s,
        rounds: estimate.metrics.rounds,
        work: estimate.metrics.work(),
        detail: format!(
            "tau={} decomposition={} clusters={} radius={} growing_steps={}",
            config.tau,
            if config.use_cluster2 { "CLUSTER2" } else { "CLUSTER" },
            estimate.num_clusters,
            estimate.radius,
            estimate.growing_steps
        ),
        bounds: None,
    }
}

/// Runs the Δ-stepping baseline from a seeded node of the largest component
/// and converts the eccentricity into the 2-approximation of the diameter.
/// `Some(delta)` runs that bucket width; `None` sweeps the grid
/// `suggest_delta × {1, 4, 16, 64}` and keeps the run with the fewest rounds
/// (the criterion the paper used to pick `Δ` on its Spark platform). On a
/// disconnected graph the estimate covers every component of `split`.
pub fn run_delta_stepping<G: NeighborSource>(
    graph: &G,
    delta: Option<u32>,
    lower_bound: Dist,
    seed: u64,
    split: &ComponentSplit,
) -> RunResult {
    let widths = match delta {
        Some(delta) => vec![delta],
        None => {
            let base = suggest_delta(graph);
            [1, 4, 16, 64].iter().map(|&factor| base.saturating_mul(factor).max(1)).collect()
        }
    };
    let source = baseline_source(graph, seed, split);
    // One engine scratch serves the whole grid: each candidate run resets in
    // O(reached) and reuses the distance cells and bucket ring.
    let mut scratch = SsspScratch::with_capacity(graph.num_nodes());
    let best = widths
        .into_iter()
        .map(|delta| run_delta_stepping_scratch(graph, source, delta, lower_bound, &mut scratch))
        .reduce(|best, run| if run.rounds < best.rounds { run } else { best })
        .expect("at least one delta candidate was evaluated");
    cover_all_components(best, graph, source, split)
}

/// One Δ-stepping run over a caller-provided [`SsspScratch`], so grid sweeps
/// reuse the engine state (distances, bucket ring, touched list) across
/// every Δ candidate instead of re-allocating per run. Its estimate covers
/// `source`'s component only.
fn run_delta_stepping_scratch<G: NeighborSource>(
    graph: &G,
    source: NodeId,
    delta: u32,
    lower_bound: Dist,
    scratch: &mut SsspScratch,
) -> RunResult {
    let started = Instant::now();
    let outcome = delta_stepping_with_scratch(graph, source, delta, None, scratch);
    let time_s = started.elapsed().as_secs_f64();
    let estimate = outcome.eccentricity().saturating_mul(2);
    RunResult {
        algorithm: "Δ-stepping".to_string(),
        estimate,
        lower_bound,
        approximation: approximation_ratio(estimate, lower_bound),
        time_s,
        rounds: outcome.phases,
        work: outcome.work(),
        detail: format!("delta={delta} source={source}"),
        bounds: None,
    }
}

/// Makes a Δ-stepping row an upper bound on a disconnected graph. A run
/// from `source` only sees `source`'s component, so the estimate takes the
/// max with one sweep per non-singleton component
/// ([`sssp_diameter_upper_bound`]), and the row's time includes
/// those sweeps. Rounds and work stay Δ-stepping's own.
fn cover_all_components<G: NeighborSource>(
    mut result: RunResult,
    graph: &G,
    source: NodeId,
    split: &ComponentSplit,
) -> RunResult {
    if split.is_connected() {
        return result;
    }
    let started = Instant::now();
    let bound = sssp_diameter_upper_bound(graph, source, split);
    result.time_s += started.elapsed().as_secs_f64();
    result.estimate = result.estimate.max(bound);
    result.approximation = approximation_ratio(result.estimate, result.lower_bound);
    result
}

/// Source node used by the Δ-stepping baseline: a pseudo-random node derived
/// from the seed (the paper starts Δ-stepping from a random node; hashing
/// avoids always landing on node 0, which on lattice-like graphs is a corner
/// with worst-case eccentricity). A draw outside the largest component of
/// `split` moves to that component's smallest member, the relocation rule of
/// [`diameter_lower_bound_with_split`], so the baseline never starts on an
/// isolated node.
fn baseline_source<G: NeighborSource>(graph: &G, seed: u64, split: &ComponentSplit) -> NodeId {
    let drawn = ((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % graph.num_nodes().max(1) as u64)
        as NodeId;
    if split.is_connected() {
        return drawn;
    }
    let labels = &split.labels.labels;
    let largest = split.labels.largest().expect("a disconnected graph has a largest component");
    if labels[drawn as usize] == largest {
        drawn
    } else {
        labels.iter().position(|&l| l == largest).expect("the largest component has a member")
            as NodeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_gen::{mesh, WeightModel};

    /// The paper's practical configuration: `CLUSTER`, initial `Δ` = average
    /// edge weight, `τ` from the estimate that aims the quotient at `target`
    /// nodes (see [`ClusterConfig::tau_for_quotient_target`]).
    fn practical_config(graph: &Graph, target: usize, seed: u64) -> ClusterConfig {
        let tau = ClusterConfig::tau_for_quotient_target(graph.num_nodes(), target);
        ClusterConfig::default().with_tau(tau).with_seed(seed)
    }

    #[test]
    fn cldiam_run_produces_conservative_estimate() {
        let g = mesh(20, WeightModel::UniformUnit, 3);
        let lower = reference_lower_bound(&g, 3, &ComponentSplit::compute(&g));
        let result = run_cldiam(&g, lower, &practical_config(&g, 500, 3));
        assert!(result.estimate >= lower);
        assert!(result.approximation >= 1.0);
        assert!(result.rounds > 0);
        assert!(result.work > 0);
        assert!(result.time_s >= 0.0);
    }

    #[test]
    fn delta_stepping_run_produces_conservative_estimate() {
        let g = mesh(20, WeightModel::UniformUnit, 3);
        let split = ComponentSplit::compute(&g);
        let lower = reference_lower_bound(&g, 3, &split);
        let result = run_delta_stepping(&g, None, lower, 3, &split);
        assert!(result.estimate >= lower);
        assert!(result.approximation >= 1.0);
        assert!(
            result.approximation <= 2.1,
            "2-approximation bound violated: {}",
            result.approximation
        );
        assert!(result.rounds > 0);
    }

    #[test]
    fn delta_sweep_picks_fewest_rounds() {
        let g = mesh(16, WeightModel::UniformUnit, 5);
        let split = ComponentSplit::compute(&g);
        let lower = reference_lower_bound(&g, 5, &split);
        let best = run_delta_stepping(&g, None, lower, 5, &split);
        let fine = run_delta_stepping(&g, Some(suggest_delta(&g)), lower, 5, &split);
        assert!(best.rounds <= fine.rounds);
    }

    #[test]
    fn cldiam_uses_fewer_rounds_than_delta_stepping_on_meshes() {
        // The headline result of the paper (Figure 2): the cluster-based
        // algorithm needs far fewer rounds than Δ-stepping on high-diameter
        // graphs.
        let g = mesh(32, WeightModel::UniformUnit, 9);
        let split = ComponentSplit::compute(&g);
        let lower = reference_lower_bound(&g, 9, &split);
        let cl = run_cldiam(&g, lower, &practical_config(&g, 500, 9));
        let ds = run_delta_stepping(&g, None, lower, 9, &split);
        assert!(
            cl.rounds < ds.rounds,
            "CL-DIAM rounds {} not below Δ-stepping rounds {}",
            cl.rounds,
            ds.rounds
        );
    }
}
