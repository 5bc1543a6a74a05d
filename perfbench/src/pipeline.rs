//! One pass of the Table 2 pipeline over one graph: component split,
//! reference lower bound, CL-DIAM stage by stage, Δ-stepping and the anytime
//! bounds engine, each timed as its own layer, plus the correctness checks
//! that every run makes.

use cldiam_core::{quotient_graph, AnytimeConfig, ClDiam, ClusterConfig};
use cldiam_graph::{Dist, NeighborSource, NodeId, INFINITY};
use cldiam_sssp::{
    delta_stepping_with_scratch, diameter_lower_bound_with_split, exact_diameter, suggest_delta,
    BoundsConfig, BoundsOutcome, ComponentSplit, SsspScratch,
};

use crate::trace::Recorder;
use crate::workload::{Workload, QUOTIENT_TARGET};

/// The algorithms' own seed (CLUSTER's center sampling, the lower bound's
/// first sweep). It is fixed, so a run's `--seed` changes only the graphs.
pub const ALGO_SEED: u64 = 1;

/// Farthest-node sweeps of the reference lower bound (as the `cldiam` CLI).
const LOWER_BOUND_SWEEPS: usize = 4;

/// Δ-stepping starts from node 0: the hub of an R-MAT graph and a corner of
/// a road lattice, so its eccentricity and phase count vary little from
/// graph to graph of a family.
pub const DELTA_SOURCE: NodeId = 0;

/// Wall time of each layer in one pass over one graph, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    pub split: f64,
    pub lower_bound: f64,
    /// The CL-DIAM layers, summed over the workload's CL-DIAM seeds.
    pub cluster: f64,
    pub quotient: f64,
    pub quotient_diameter: f64,
    pub delta: f64,
    pub bounds: f64,
    /// The whole pass over the graph, from the split to the bounds.
    pub total: f64,
}

impl LayerTimes {
    fn fields(&mut self) -> [&mut f64; 8] {
        [
            &mut self.split,
            &mut self.lower_bound,
            &mut self.cluster,
            &mut self.quotient,
            &mut self.quotient_diameter,
            &mut self.delta,
            &mut self.bounds,
            &mut self.total,
        ]
    }

    /// The mean over several passes or graphs.
    pub fn mean(times: &[LayerTimes]) -> LayerTimes {
        let mut sum = LayerTimes::default();
        for t in times {
            let mut t = *t;
            for (s, v) in sum.fields().into_iter().zip(t.fields()) {
                *s += *v;
            }
        }
        for s in sum.fields() {
            *s /= times.len() as f64;
        }
        sum
    }
}

/// The deterministic outputs of one CL-DIAM run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClDiamRun {
    pub seed: u64,
    pub clusters: usize,
    pub radius: Dist,
    pub delta_end: Dist,
    pub growing_steps: u64,
    pub stages: u64,
    pub quotient_nodes: usize,
    pub quotient_edges: usize,
    pub boundary_edges: usize,
    pub quotient_diameter: Dist,
    pub upper: Dist,
    pub rounds: u64,
    pub work: u64,
    pub peak_local_items: u64,
}

/// The deterministic part of a bounds-engine outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundsSummary {
    pub lower: Dist,
    pub upper: Dist,
    pub sssp: usize,
    pub iterations: usize,
    pub converged: bool,
    pub interrupted: bool,
}

impl BoundsSummary {
    pub fn of(outcome: &BoundsOutcome) -> Self {
        BoundsSummary {
            lower: outcome.lower,
            upper: outcome.upper,
            sssp: outcome.sssp_runs,
            iterations: outcome.iterations.len(),
            converged: outcome.converged,
            interrupted: outcome.interrupted,
        }
    }
}

/// Every deterministic output of a pass over one graph. Two passes over the
/// same graph must agree on all of it, at any thread count and with or
/// without tracing.
#[derive(Clone, Debug, PartialEq)]
pub struct Logical {
    pub components: usize,
    pub lower_bound: Dist,
    pub cldiam: Vec<ClDiamRun>,
    pub delta: u32,
    pub delta_phases: u64,
    pub delta_relaxations: u64,
    pub delta_updates: u64,
    pub delta_eccentricity: Dist,
    pub delta_unreached: usize,
    pub bounds: BoundsSummary,
}

impl Logical {
    /// The mean of `f` over this graph's CL-DIAM runs.
    pub fn cldiam_mean(&self, f: impl Fn(&ClDiamRun) -> f64) -> f64 {
        self.cldiam.iter().map(f).sum::<f64>() / self.cldiam.len() as f64
    }

    pub fn cldiam_ratio(&self) -> f64 {
        self.cldiam_mean(|r| r.upper as f64 / self.lower_bound as f64)
    }

    pub fn bounds_ratio(&self) -> f64 {
        self.bounds.upper as f64 / self.bounds.lower as f64
    }

    /// Every certified upper bound of the pass: each CL-DIAM run's,
    /// Δ-stepping's `2·ecc` and the bounds engine's.
    pub fn upper_bounds(&self) -> Vec<Dist> {
        let mut uppers: Vec<Dist> = self.cldiam.iter().map(|r| r.upper).collect();
        uppers.push(self.delta_eccentricity.saturating_mul(2));
        uppers.push(self.bounds.upper);
        uppers
    }

    /// The correctness checks of one pass; returns what failed.
    pub fn check(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let best_lower = self.lower_bound.max(self.bounds.lower);
        let uppers = self.upper_bounds();
        if self.lower_bound == 0 || self.bounds.lower == 0 {
            failures.push(format!(
                "zero lower bound (reference {}, bounds {})",
                self.lower_bound, self.bounds.lower
            ));
        }
        if uppers.iter().any(|&ub| ub < best_lower) {
            failures.push(format!(
                "lower bound {best_lower} (reference {}, bounds {}) above an upper bound \
                 (CL-DIAM runs, Δ-stepping 2·ecc, bounds: {uppers:?})",
                self.lower_bound, self.bounds.lower
            ));
        }
        let threshold = ClusterConfig::default().exact_quotient_threshold;
        for run in self.cldiam.iter().filter(|r| r.quotient_nodes > threshold) {
            failures.push(format!(
                "CL-DIAM seed {}: quotient of {} clusters exceeds the exact threshold \
                 {threshold}",
                run.seed, run.quotient_nodes
            ));
        }
        if self.delta_unreached > 0 {
            failures.push(format!(
                "Δ-stepping left {} nodes of a connected graph unreached",
                self.delta_unreached
            ));
        }
        if self.bounds.interrupted {
            failures.push("bounds engine interrupted".to_string());
        }
        failures
    }
}

/// CL-DIAM's configuration for a graph of `num_nodes` nodes.
pub fn cluster_config(num_nodes: usize, seed: u64) -> ClusterConfig {
    let tau = ClusterConfig::tau_for_quotient_target(num_nodes, QUOTIENT_TARGET);
    ClusterConfig::default().with_tau(tau).with_seed(seed)
}

/// Bounds-engine configuration: an SSSP budget, tolerance 1.0 (the exact
/// diameter) and the CL-DIAM quotient oracle.
pub fn anytime_config(budget: usize, num_nodes: usize) -> AnytimeConfig {
    let bounds = BoundsConfig::default().with_max_sssp(budget).with_tolerance(1.0);
    AnytimeConfig::default().with_bounds(bounds).with_cluster(cluster_config(num_nodes, ALGO_SEED))
}

pub fn delta_for<G: NeighborSource>(graph: &G, multiple: u32) -> u32 {
    suggest_delta(graph).saturating_mul(multiple).max(1)
}

/// CL-DIAM stage by stage: CLUSTER, the quotient graph, its exact diameter.
/// Adds the stage times to `t`.
fn cldiam<G: NeighborSource>(
    graph: &G,
    seed: u64,
    rec: &mut Recorder,
    t: &mut LayerTimes,
) -> ClDiamRun {
    let cl_diam = ClDiam::new(cluster_config(graph.num_nodes(), seed));
    let whole = rec.open("core.cldiam");
    let open = rec.open("core.cluster");
    let clustering = cl_diam.decompose(graph);
    t.cluster += rec.close(&open);
    let m = clustering.metrics;
    rec.counters(
        &open,
        &[
            ("rounds", m.rounds as f64),
            ("messages", m.messages as f64),
            ("node_updates", m.node_updates as f64),
            ("growing_steps", clustering.growing_steps as f64),
            ("stages", clustering.stages as f64),
            ("clusters", clustering.num_clusters() as f64),
            ("radius", clustering.radius as f64),
            ("delta_end", clustering.delta_end as f64),
        ],
    );
    let open = rec.open("core.quotient");
    let quotient = quotient_graph(graph, &clustering);
    t.quotient += rec.close(&open);
    rec.counters(
        &open,
        &[
            ("nodes", quotient.graph.num_nodes() as f64),
            ("edges", quotient.graph.num_edges() as f64),
            ("boundary_edges", quotient.boundary_edges as f64),
        ],
    );
    let (quotient_diameter, secs) =
        rec.time("core.quotient_diameter", || exact_diameter(&quotient.graph));
    t.quotient_diameter += secs;
    rec.close(&whole);
    // The charges of `ClDiam::estimate_from_clustering`: a round each for
    // the quotient build and its diameter, the boundary edges as messages,
    // and the quotient, gathered on one reducer, as the local-memory peak
    // (CLUSTER charges none). The traced run checks them against
    // `approximate_diameter`.
    let run = ClDiamRun {
        seed,
        clusters: clustering.num_clusters(),
        radius: clustering.radius,
        delta_end: clustering.delta_end,
        growing_steps: clustering.growing_steps,
        stages: clustering.stages,
        quotient_nodes: quotient.graph.num_nodes(),
        quotient_edges: quotient.graph.num_edges(),
        boundary_edges: quotient.boundary_edges,
        quotient_diameter,
        upper: quotient_diameter.saturating_add(clustering.radius.saturating_mul(2)),
        rounds: m.rounds + 2,
        work: m.work() + quotient.boundary_edges as u64,
        peak_local_items: m.peak_local_items.max(quotient.graph.num_arcs() as u64),
    };
    rec.counters(
        &whole,
        &[
            ("upper_bound", run.upper as f64),
            ("rounds", run.rounds as f64),
            ("work", run.work as f64),
            ("peak_local_items", run.peak_local_items as f64),
        ],
    );
    run
}

/// Runs the pipeline once over `graph`, timing every layer call.
pub fn run<G: NeighborSource>(
    graph: &G,
    workload: &Workload,
    rec: &mut Recorder,
) -> (Logical, LayerTimes) {
    let mut t = LayerTimes::default();
    let pass = rec.open("pipeline");
    let n = graph.num_nodes();

    let (split, secs) = rec.time("graph.split", || ComponentSplit::compute(graph));
    t.split = secs;

    let (lower_bound, secs) = rec.time("sssp.lower_bound", || {
        diameter_lower_bound_with_split(graph, LOWER_BOUND_SWEEPS, ALGO_SEED, &split)
    });
    t.lower_bound = secs;

    let seeds = ALGO_SEED..ALGO_SEED + workload.cldiam_seeds;
    let cldiam_runs: Vec<ClDiamRun> = seeds.map(|seed| cldiam(graph, seed, rec, &mut t)).collect();

    let delta = delta_for(graph, workload.delta_multiple);
    let open = rec.open("sssp.delta");
    let mut scratch = SsspScratch::with_capacity(n);
    let outcome = delta_stepping_with_scratch(graph, DELTA_SOURCE, delta, None, &mut scratch);
    t.delta = rec.close(&open);
    drop(scratch);
    rec.counters(
        &open,
        &[
            ("delta", delta as f64),
            ("phases", outcome.phases as f64),
            ("relaxations", outcome.relaxations as f64),
            ("updates", outcome.updates as f64),
        ],
    );

    let config = anytime_config(workload.bounds_budget, n);
    let open = rec.open("sssp.bounds");
    let bounds = cldiam_core::anytime_diameter_with_split(graph, &config, &split);
    t.bounds = rec.close(&open);
    rec.counters(
        &open,
        &[
            ("sssp", bounds.sssp_runs as f64),
            ("iterations", bounds.iterations.len() as f64),
            ("lower", bounds.lower as f64),
            ("upper", bounds.upper as f64),
        ],
    );
    t.total = rec.close(&pass);

    let logical = Logical {
        components: split.labels.count,
        lower_bound,
        cldiam: cldiam_runs,
        delta,
        delta_phases: outcome.phases,
        delta_relaxations: outcome.relaxations,
        delta_updates: outcome.updates,
        delta_eccentricity: outcome.eccentricity(),
        delta_unreached: outcome.dist.iter().filter(|&&d| d == INFINITY).count(),
        bounds: BoundsSummary::of(&bounds),
    };
    (logical, t)
}
