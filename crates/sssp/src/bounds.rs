//! Anytime `[lb, ub]` diameter bound-tightening.
//!
//! The fixed-budget drivers of [`crate::diameter`] spend their SSSPs blindly:
//! `diameter_lower_bound` always runs its full sweep budget and CL-DIAM
//! always pays a complete clustering, even when three well-chosen SSSPs
//! would already close the interval. This module implements the adaptive
//! alternative of Magnien–Latapy–Habib (arXiv:0904.2728) and
//! Takes–Kosters' BoundingDiameters / iFUB: maintain a per-node
//! eccentricity interval `[ecc_lb[v], ecc_ub[v]]`, tighten every interval
//! after each SSSP with
//!
//! ```text
//! ecc_lb[v] ≥ max(d(s, v), ecc(s) − d(s, v))
//! ecc_ub[v] ≤ ecc(s) + d(s, v)
//! ```
//!
//! pick the next source as the active node of maximum interval width, and
//! stop as soon as the diameter interval `[max lb, max-over-candidates ub]`
//! closes (or a budget / tolerance is hit). The first two sources form a
//! 2-sweep (max-degree node, then the farthest node it reaches) so the
//! classic sweep-chain lower bound is folded into the same SSSPs, and an
//! optional *oracle* — in production CL-DIAM's quotient upper bound, wired
//! up in `cldiam-core` — is consulted once mid-run to cap every interval.
//! [`bounds_diameter`] runs undirected graphs, component by component.
//!
//! Directed graphs go through [`bounds_diameter_directed`], which takes no
//! oracle (CL-DIAM's clustering is undirected) and runs a forward+backward
//! Dijkstra pair per iteration (Roditty–Vassilevska Williams frame diameter
//! approximation this way, arXiv:1207.3622). The interval rules above are
//! only sound when every node reaches every other, so the engine detects
//! strong connectivity from the first pair's reach counts: strongly
//! connected digraphs get the full interval machinery with the directed
//! rules
//!
//! ```text
//! ecc_lb[v] ≥ max(d(v, s), ecc_f(s) − d(s, v))
//! ecc_ub[v] ≤ d(v, s) + ecc_f(s)
//! ```
//!
//! (`ecc_f` the forward eccentricity; on symmetric inputs these reduce
//! exactly to the undirected rules), while non-strongly-connected digraphs
//! fall back to an alternating forward/backward sweep chain (2-dSweep) that
//! reports a lower bound only and an infinite upper bound.
//!
//! Everything runs through the reusable [`DijkstraScratch`] machinery of
//! [`crate::batch`]; multi-component undirected graphs are split once (see
//! [`ComponentSplit`]) and bounded per component in parallel, keeping
//! results bit-identical at any thread count.

use std::cmp::Reverse;

use cldiam_graph::{CancelToken, Dist, Graph, NeighborSource, NodeId, INFINITY};
use rayon::prelude::*;

use crate::batch::{DijkstraScratch, SsspDirection};
use crate::diameter::ComponentSplit;

/// Tuning knobs of the bounds engine.
///
/// An oracle, when one is supplied, is consulted once per component, after
/// the fourth SSSP if those four have not closed the interval; a budget
/// below four SSSPs never reaches it.
#[derive(Clone, Copy, Debug)]
pub struct BoundsConfig {
    /// Maximum number of SSSP runs per connected component (a directed
    /// iteration spends two: one forward, one backward).
    pub max_sssp: usize,
    /// Stop once `upper ≤ tolerance · lower`; `1.0` demands the exact
    /// diameter, `1.1` a 10%-tight interval.
    pub tolerance: f64,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig { max_sssp: 64, tolerance: 1.0 }
    }
}

/// SSSP runs after which an interval still open consults the oracle.
const ORACLE_AFTER_SSSP: usize = 4;

impl BoundsConfig {
    /// Sets the per-component SSSP budget.
    pub fn with_max_sssp(mut self, max_sssp: usize) -> Self {
        self.max_sssp = max_sssp;
        self
    }

    /// Sets the stopping tolerance (clamped to at least 1.0).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = if tolerance.is_finite() { tolerance.max(1.0) } else { 1.0 };
        self
    }
}

/// One recorded step of the engine: the state of the diameter interval after
/// an SSSP (or after the oracle capped the intervals).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundsIteration {
    /// SSSP source of this iteration in original node ids; `None` for the
    /// oracle step, which runs no SSSP.
    pub source: Option<NodeId>,
    /// Cumulative SSSP runs spent when this iteration finished.
    pub sssp_runs: usize,
    /// Diameter lower bound after the iteration.
    pub lower: Dist,
    /// Diameter upper bound after the iteration ([`INFINITY`] while unknown).
    pub upper: Dist,
    /// Number of nodes whose eccentricity interval is still open *and* whose
    /// upper bound could still raise the diameter.
    pub open: usize,
}

/// Final state of a bounds run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundsOutcome {
    /// Certified diameter lower bound.
    pub lower: Dist,
    /// Certified diameter upper bound ([`INFINITY`] when the input is a
    /// non-strongly-connected digraph, where only the lower bound is sound).
    pub upper: Dist,
    /// Total SSSP runs spent.
    pub sssp_runs: usize,
    /// `true` when the interval closed to the configured tolerance before
    /// the budget ran out (or the run was cancelled).
    pub converged: bool,
    /// `true` when a [`CancelToken`] stopped the run before budget or
    /// convergence — the reported interval is the best-so-far state at the
    /// last completed phase, still a sound bracket.
    pub interrupted: bool,
    /// Per-iteration trace, in execution order (component by component for
    /// disconnected inputs).
    pub iterations: Vec<BoundsIteration>,
}

impl BoundsOutcome {
    fn trivial() -> Self {
        BoundsOutcome {
            lower: 0,
            upper: 0,
            sssp_runs: 0,
            converged: true,
            interrupted: false,
            iterations: Vec::new(),
        }
    }
}

/// A diameter-upper-bound oracle: given a (component) graph, return an
/// upper bound on its diameter. In production this is CL-DIAM's quotient
/// bound `Φ(G_C) + 2R`, wired up by `cldiam-core`. The method is generic
/// over the graph representation so one oracle serves dense and compressed
/// inputs alike; implementors that need a dense graph (e.g. to cluster)
/// should materialize one internally.
pub trait DiameterOracle: Sync {
    /// An upper bound on the diameter of `graph`.
    fn diameter_upper_bound<G: NeighborSource>(&self, graph: &G) -> Dist;
}

/// The uninhabited "no oracle" type: plugs the `O: DiameterOracle` type
/// parameter at call sites that pass `None`. Use [`NO_ORACLE`].
#[derive(Clone, Copy, Debug)]
pub enum NoOracle {}

impl DiameterOracle for NoOracle {
    fn diameter_upper_bound<G: NeighborSource>(&self, _graph: &G) -> Dist {
        match *self {}
    }
}

/// `None` with the oracle type fixed, for engine calls without an oracle:
/// `bounds_diameter(&g, &config, NO_ORACLE, &split, &cancel)`.
pub const NO_ORACLE: Option<&NoOracle> = None;

/// `upper ≤ tolerance · lower`, with the interval closed and finite.
/// Tolerance 1.0 (the exact diameter) is decided in integers: above 2^53
/// distinct distances round to the same `f64`.
fn within_tolerance(lower: Dist, upper: Dist, tolerance: f64) -> bool {
    upper != INFINITY
        && (upper == lower || (tolerance > 1.0 && (upper as f64) <= tolerance * (lower as f64)))
}

/// Interval state of one engine run, shared by the undirected and
/// strongly-connected-directed modes.
struct Intervals {
    lb: Vec<Dist>,
    ub: Vec<Dist>,
    /// Lower bound on the diameter (the largest certified eccentricity
    /// lower bound folded with every observed `ecc(s)`).
    diam_lb: Dist,
}

impl Intervals {
    fn new(n: usize) -> Self {
        Intervals { lb: vec![0; n], ub: vec![INFINITY; n], diam_lb: 0 }
    }

    /// Diameter upper bound: the largest per-node upper bound that could
    /// still exceed the certified lower bound (never below `diam_lb`).
    fn diam_ub(&self) -> Dist {
        let over = self.ub.iter().copied().filter(|&u| u > self.diam_lb).max().unwrap_or(0);
        over.max(self.diam_lb)
    }

    /// Nodes whose interval is open and whose upper bound could still raise
    /// the diameter — the candidate pool for source selection.
    fn open_count(&self) -> usize {
        (0..self.lb.len()).filter(|&v| self.lb[v] < self.ub[v] && self.ub[v] > self.diam_lb).count()
    }

    /// The open node of maximum interval width (ties: larger degree, then
    /// smaller id), or `None` when the pool is empty. Degrees are read only
    /// to break a width tie: on a compressed graph a degree decodes the
    /// node's whole adjacency.
    fn widest_open<G: NeighborSource>(&self, graph: &G) -> Option<NodeId> {
        // (width, node, the node's degree once read)
        let mut best: Option<(Dist, NodeId, Option<usize>)> = None;
        for v in 0..self.lb.len() as NodeId {
            let (lb, ub) = (self.lb[v as usize], self.ub[v as usize]);
            if lb >= ub || ub <= self.diam_lb {
                continue;
            }
            let width = ub - lb;
            match &mut best {
                Some((widest, _, _)) if width < *widest => {}
                Some((widest, node, degree)) if width == *widest => {
                    let d = graph.degree(v);
                    if d > *degree.get_or_insert_with(|| graph.degree(*node)) {
                        best = Some((width, v, Some(d)));
                    }
                }
                _ => best = Some((width, v, None)),
            }
        }
        best.map(|(_, v, _)| v)
    }

    /// Caps every upper bound by an oracle-certified diameter bound.
    fn apply_cap(&mut self, cap: Dist) {
        for u in &mut self.ub {
            *u = (*u).min(cap);
        }
    }
}

/// Runs the interval engine on one *connected undirected* graph. `mapping`
/// translates local ids to original ids for the iteration trace (`None` =
/// identity).
///
/// The cancel token is polled once per iteration, after the first SSSP (so
/// an already-expired deadline still yields a non-trivial lower bound) —
/// SSSPs are never abandoned mid-run, because a partial distance array
/// under-estimates eccentricities and would break the `ub` bracket.
fn bound_connected<G: NeighborSource, O: DiameterOracle>(
    graph: &G,
    config: &BoundsConfig,
    oracle: Option<&O>,
    mapping: Option<&[NodeId]>,
    cancel: &CancelToken,
) -> BoundsOutcome {
    let n = graph.num_nodes();
    if n <= 1 {
        return BoundsOutcome::trivial();
    }
    let original = |v: NodeId| mapping.map_or(v, |m| m[v as usize]);
    let mut state = Intervals::new(n);
    let mut scratch = DijkstraScratch::new();
    let mut iterations = Vec::new();
    let mut runs = 0usize;
    let mut oracle_spent = oracle.is_none();
    let mut interrupted = false;
    let budget = config.max_sssp.max(1);

    // First source: the max-degree node (the BoundingDiameters heuristic —
    // high-degree nodes sit near the center, giving tight upper bounds).
    let mut source = (0..n as NodeId)
        .max_by_key(|&v| (graph.degree(v), Reverse(v)))
        .expect("connected graph has nodes");
    // Second source: the farthest node of the first sweep (the classic
    // 2-sweep, folding the sweep-chain lower bound into the same SSSPs).
    let mut next_is_sweep = true;

    loop {
        if runs > 0 && cancel.checkpoint() {
            interrupted = true;
            break;
        }
        scratch.run(graph, source);
        runs += 1;
        let ecc = scratch.eccentricity();
        state.diam_lb = state.diam_lb.max(ecc);
        for v in 0..n {
            let d = scratch.distance(v as NodeId);
            debug_assert_ne!(d, INFINITY, "connected component must be fully reached");
            let lb = d.max(ecc - d);
            state.lb[v] = state.lb[v].max(lb);
            state.ub[v] = state.ub[v].min(ecc.saturating_add(d));
        }
        let sweep_target = scratch.farthest_node();
        let upper = state.diam_ub();
        iterations.push(BoundsIteration {
            source: Some(original(source)),
            sssp_runs: runs,
            lower: state.diam_lb,
            upper,
            open: state.open_count(),
        });
        if within_tolerance(state.diam_lb, upper, config.tolerance) {
            break;
        }
        // Mid-run oracle consult: cap every interval with the clustering
        // upper bound once plain SSSPs have had their chance.
        if !oracle_spent && runs >= ORACLE_AFTER_SSSP {
            oracle_spent = true;
            if let Some(oracle) = oracle {
                state.apply_cap(oracle.diameter_upper_bound(graph));
                let upper = state.diam_ub();
                iterations.push(BoundsIteration {
                    source: None,
                    sssp_runs: runs,
                    lower: state.diam_lb,
                    upper,
                    open: state.open_count(),
                });
                if within_tolerance(state.diam_lb, upper, config.tolerance) {
                    break;
                }
            }
        }
        // The budget is spent: no source to choose.
        if runs >= budget {
            break;
        }
        source =
            if next_is_sweep && state.lb[sweep_target as usize] < state.ub[sweep_target as usize] {
                sweep_target
            } else {
                match state.widest_open(graph) {
                    Some(v) => v,
                    None => break,
                }
            };
        next_is_sweep = false;
    }
    // Every exit follows a recorded iteration, and nothing has moved since.
    let upper = iterations.last().map_or(INFINITY, |last| last.upper);
    BoundsOutcome {
        lower: state.diam_lb,
        upper,
        sssp_runs: runs,
        converged: !interrupted && within_tolerance(state.diam_lb, upper, config.tolerance),
        interrupted,
        iterations,
    }
}

/// The anytime `[lb, ub]` diameter bounds engine on a *directed* graph, run
/// whole (no component split, no oracle): a forward+backward Dijkstra pair
/// per iteration. Strongly connected inputs get the interval machinery;
/// anything else falls back to the alternating 2-dSweep chain, which
/// certifies a lower bound only. The [`CancelToken`] is polled once per
/// iteration after the first forward/backward pair.
pub fn bounds_diameter_directed(
    graph: &Graph,
    config: &BoundsConfig,
    cancel: &CancelToken,
) -> BoundsOutcome {
    let n = graph.num_nodes();
    if n <= 1 {
        return BoundsOutcome::trivial();
    }
    let mut fwd = DijkstraScratch::new();
    let mut bwd = DijkstraScratch::new();
    let mut iterations = Vec::new();
    let mut runs = 0usize;
    let mut interrupted = false;
    let budget = config.max_sssp.max(1);

    // First pair decides the mode: strong connectivity is exactly "the first
    // source reaches everything in both directions".
    let first = (0..n as NodeId)
        .max_by_key(|&v| (graph.degree(v), Reverse(v)))
        .expect("non-empty graph has nodes");
    fwd.run_directed(graph, first, SsspDirection::Forward);
    bwd.run_directed(graph, first, SsspDirection::Backward);
    runs += 2;
    let strongly_connected = fwd.reached() == n && bwd.reached() == n;

    if !strongly_connected {
        // Lower-bound-only mode: alternating forward/backward sweep chain.
        let mut best = fwd.eccentricity().max(bwd.eccentricity());
        let mut open = n;
        iterations.push(BoundsIteration {
            source: Some(first),
            sssp_runs: runs,
            lower: best,
            upper: INFINITY,
            open,
        });
        fwd.sweep_clear();
        fwd.sweep_mark(first);
        let mut current = fwd.farthest_node();
        let mut direction = SsspDirection::Backward;
        while runs < budget && fwd.sweep_mark(current) {
            if cancel.checkpoint() {
                interrupted = true;
                break;
            }
            fwd.run_directed(graph, current, direction);
            runs += 1;
            best = best.max(fwd.eccentricity());
            open = n;
            iterations.push(BoundsIteration {
                source: Some(current),
                sssp_runs: runs,
                lower: best,
                upper: INFINITY,
                open,
            });
            current = fwd.farthest_node();
            direction = match direction {
                SsspDirection::Forward => SsspDirection::Backward,
                SsspDirection::Backward => SsspDirection::Forward,
            };
        }
        return BoundsOutcome {
            lower: best,
            upper: INFINITY,
            sssp_runs: runs,
            converged: false,
            interrupted,
            iterations,
        };
    }

    let mut state = Intervals::new(n);
    let mut source = first;
    let mut next_is_sweep = true;
    loop {
        // The scratches already hold the pair for `source`.
        let ecc_f = fwd.eccentricity();
        let ecc_b = bwd.eccentricity();
        state.diam_lb = state.diam_lb.max(ecc_f).max(ecc_b);
        for v in 0..n {
            let df = fwd.distance(v as NodeId);
            let db = bwd.distance(v as NodeId);
            debug_assert!(df != INFINITY && db != INFINITY, "strongly connected by detection");
            // ecc(v) ≥ d(v, s) and ecc(v) ≥ ecc_f(s) − d(s, v);
            // ecc(v) ≤ d(v, s) + ecc_f(s). All eccentricities are forward.
            state.lb[v] = state.lb[v].max(db).max(ecc_f.saturating_sub(df));
            state.ub[v] = state.ub[v].min(db.saturating_add(ecc_f));
        }
        let sweep_target = fwd.farthest_node();
        let upper = state.diam_ub();
        iterations.push(BoundsIteration {
            source: Some(source),
            sssp_runs: runs,
            lower: state.diam_lb,
            upper,
            open: state.open_count(),
        });
        if within_tolerance(state.diam_lb, upper, config.tolerance) {
            break;
        }
        if runs + 2 > budget {
            break;
        }
        if cancel.checkpoint() {
            interrupted = true;
            break;
        }
        source =
            if next_is_sweep && state.lb[sweep_target as usize] < state.ub[sweep_target as usize] {
                sweep_target
            } else {
                match state.widest_open(graph) {
                    Some(v) => v,
                    None => break,
                }
            };
        next_is_sweep = false;
        fwd.run_directed(graph, source, SsspDirection::Forward);
        bwd.run_directed(graph, source, SsspDirection::Backward);
        runs += 2;
    }
    // Every exit follows a recorded iteration, and nothing has moved since.
    let upper = iterations.last().map_or(INFINITY, |last| last.upper);
    BoundsOutcome {
        lower: state.diam_lb,
        upper,
        sssp_runs: runs,
        converged: !interrupted && within_tolerance(state.diam_lb, upper, config.tolerance),
        interrupted,
        iterations,
    }
}

/// The anytime `[lb, ub]` diameter bounds engine on an undirected graph,
/// over its [`ComponentSplit`]: compute the split once with
/// [`ComponentSplit::compute`] and share it with the other bound drivers.
/// Directed graphs are never split; they go through
/// [`bounds_diameter_directed`].
///
/// Disconnected graphs bound every non-singleton component in parallel,
/// each with the full per-component budget; the diameter interval of the
/// whole graph is the pointwise max (the paper's convention: the diameter
/// of a disconnected graph is the largest intra-component distance).
///
/// A component whose first four SSSPs leave its interval open consults
/// `oracle` once and caps every eccentricity bound with its answer, which
/// the trace records as an iteration with `source: None`.
///
/// Every component gets its own *child* [`CancelToken`] (fresh checkpoint
/// counter over the shared flag/deadline), so a logical check budget stops
/// each component after the same number of phase boundaries at any thread
/// count — the degraded result is deterministic for a fixed cadence. A
/// caller that never cancels passes `&CancelToken::never()`.
pub fn bounds_diameter<G: NeighborSource, O: DiameterOracle>(
    graph: &G,
    config: &BoundsConfig,
    oracle: Option<&O>,
    split: &ComponentSplit,
    cancel: &CancelToken,
) -> BoundsOutcome {
    assert!(!graph.is_directed(), "bounds_diameter expects an undirected graph");
    if graph.num_nodes() == 0 {
        return BoundsOutcome::trivial();
    }
    if split.is_connected() {
        return bound_connected(graph, config, oracle, None, cancel);
    }
    let outcomes: Vec<BoundsOutcome> = split
        .parts
        .par_iter()
        .map(|(sub, mapping)| bound_connected(sub, config, oracle, Some(mapping), &cancel.child()))
        .collect();
    let mut combined = BoundsOutcome::trivial();
    for outcome in outcomes {
        combined.lower = combined.lower.max(outcome.lower);
        combined.upper = combined.upper.max(outcome.upper);
        combined.converged &= outcome.converged;
        combined.interrupted |= outcome.interrupted;
        // Re-base each component's cumulative run counter onto the trace.
        let base = combined.sssp_runs;
        combined.iterations.extend(outcome.iterations.into_iter().map(|mut it| {
            it.sssp_runs += base;
            it
        }));
        combined.sssp_runs += outcome.sssp_runs;
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diameter::exact_diameter;
    use cldiam_gen::{mesh, path, rmat, road_network, RmatParams, WeightModel};
    use cldiam_graph::{Graph, GraphBuilder};

    /// The engine without an oracle or a deadline, on either kind of graph.
    fn run(graph: &Graph, config: &BoundsConfig) -> BoundsOutcome {
        let never = CancelToken::never();
        if graph.is_directed() {
            bounds_diameter_directed(graph, config, &never)
        } else {
            bounds_diameter(graph, config, NO_ORACLE, &ComponentSplit::compute(graph), &never)
        }
    }

    /// A fixed-answer oracle for the cap tests.
    struct Fixed(Dist);

    impl DiameterOracle for Fixed {
        fn diameter_upper_bound<G: NeighborSource>(&self, _graph: &G) -> Dist {
            self.0
        }
    }

    #[test]
    fn closes_exactly_on_a_path() {
        let g = path(9, 5);
        let outcome = run(&g, &BoundsConfig::default());
        assert!(outcome.converged);
        assert_eq!(outcome.lower, 40);
        assert_eq!(outcome.upper, 40);
        // The 2-sweep (center → endpoint → endpoint) should close a path in
        // very few SSSPs.
        assert!(outcome.sssp_runs <= 4, "spent {} SSSPs", outcome.sssp_runs);
    }

    #[test]
    fn converges_to_exact_diameter_on_small_graphs() {
        for (i, g) in [
            mesh(6, WeightModel::UniformUnit, 3),
            rmat(RmatParams::paper(6), WeightModel::UniformUnit, 5),
            road_network(8, 8, 2),
        ]
        .iter()
        .enumerate()
        {
            let exact = exact_diameter(g);
            let outcome = run(g, &BoundsConfig::default().with_max_sssp(4 * g.num_nodes()));
            assert!(outcome.converged, "graph {i} did not converge");
            assert_eq!(outcome.lower, exact, "graph {i}");
            assert_eq!(outcome.upper, exact, "graph {i}");
        }
    }

    #[test]
    fn every_iteration_brackets_the_exact_diameter() {
        let g = mesh(7, WeightModel::UniformUnit, 11);
        let exact = exact_diameter(&g);
        let outcome = run(&g, &BoundsConfig::default());
        assert!(!outcome.iterations.is_empty());
        let mut prev_lower = 0;
        let mut prev_upper = INFINITY;
        for it in &outcome.iterations {
            assert!(it.lower <= exact, "lb {} above exact {exact}", it.lower);
            assert!(it.upper >= exact, "ub {} below exact {exact}", it.upper);
            assert!(it.lower >= prev_lower, "lower bound regressed");
            assert!(it.upper <= prev_upper, "upper bound regressed");
            prev_lower = it.lower;
            prev_upper = it.upper;
        }
    }

    #[test]
    fn budget_is_honored_and_interval_stays_sound() {
        let g = mesh(9, WeightModel::UniformUnit, 2);
        let exact = exact_diameter(&g);
        let outcome = run(&g, &BoundsConfig::default().with_max_sssp(2));
        assert_eq!(outcome.sssp_runs, 2);
        assert!(outcome.lower <= exact && exact <= outcome.upper);
    }

    #[test]
    fn tolerance_allows_early_stop() {
        let g = mesh(9, WeightModel::UniformUnit, 2);
        let tight = run(&g, &BoundsConfig::default());
        let loose = run(&g, &BoundsConfig::default().with_tolerance(1.5));
        assert!(loose.converged);
        assert!(loose.sssp_runs <= tight.sssp_runs);
        assert!((loose.upper as f64) <= 1.5 * (loose.lower as f64));
    }

    #[test]
    fn exact_tolerance_is_decided_in_integers() {
        // Regression: 2^53 and 2^53 + 1 round to the same f64, so the float
        // test called this open interval converged at tolerance 1.0.
        let lower: Dist = 1 << 53;
        assert!(!within_tolerance(lower, lower + 1, 1.0));
        assert!(within_tolerance(lower + 1, lower + 1, 1.0));
        assert!(within_tolerance(lower, lower + 1, 1.1));
        assert!(!within_tolerance(lower, INFINITY, 1.1));
    }

    #[test]
    fn oracle_cap_is_applied_and_recorded() {
        let g = mesh(8, WeightModel::UniformUnit, 6);
        let exact = exact_diameter(&g);
        // An exact oracle must close the interval the moment it fires.
        let oracle = Fixed(exact);
        let config = BoundsConfig::default();
        let split = ComponentSplit::compute(&g);
        let outcome = bounds_diameter(&g, &config, Some(&oracle), &split, &CancelToken::never());
        assert!(outcome.converged);
        assert_eq!(outcome.upper, exact);
        assert!(
            outcome.iterations.iter().any(|it| it.source.is_none()),
            "oracle step missing from the trace"
        );
    }

    #[test]
    fn disconnected_graphs_bound_the_largest_intra_component_distance() {
        let g = Graph::from_edges(7, &[(0, 1, 5), (2, 3, 10), (3, 4, 10), (4, 5, 10)]);
        let outcome = run(&g, &BoundsConfig::default());
        assert!(outcome.converged);
        assert_eq!(outcome.lower, 30);
        assert_eq!(outcome.upper, 30);
        // Component sources are reported in original ids.
        for it in &outcome.iterations {
            if let Some(s) = it.source {
                assert!(s < 7);
            }
        }
    }

    #[test]
    fn widest_open_breaks_width_ties_by_degree_then_id() {
        // Degrees: 0 → 3, 1 → 1, 2 → 3, 3 → 3, 4 → 2, 5 → 2.
        let g = Graph::from_edges(
            6,
            &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (2, 4, 1), (3, 4, 1), (2, 5, 1), (3, 5, 1)],
        );
        let mut state = Intervals::new(6);
        state.ub = vec![9; 6];
        // Open: 1 and 2 tie at width 7, and 2 has the larger degree.
        state.lb = vec![9, 2, 2, 9, 3, 9];
        assert_eq!(state.widest_open(&g), Some(2));
        // Open: 2 and 3 tie at width 7 and at degree 3; the smaller id wins.
        state.lb = vec![9, 2, 2, 2, 3, 9];
        assert_eq!(state.widest_open(&g), Some(2));
        // A strictly wider interval wins whatever its degree.
        state.lb[5] = 0;
        assert_eq!(state.widest_open(&g), Some(5));
        // Upper bounds at the certified diameter close every interval.
        state.diam_lb = 9;
        assert_eq!(state.widest_open(&g), None);
    }

    #[test]
    fn empty_and_singleton_graphs_are_trivially_converged() {
        for g in [
            cldiam_graph::GraphBuilder::new(0).build(),
            cldiam_graph::GraphBuilder::new(1).build(),
            cldiam_graph::GraphBuilder::new(5).build(),
        ] {
            let outcome = run(&g, &BoundsConfig::default());
            assert!(outcome.converged);
            assert_eq!((outcome.lower, outcome.upper), (0, 0));
            assert_eq!(outcome.sssp_runs, 0);
        }
    }

    fn directed_cycle(n: u32, w: u32) -> Graph {
        let mut b = GraphBuilder::new_directed(n as usize);
        for i in 0..n {
            b.add_arc(i, (i + 1) % n, w);
        }
        b.build()
    }

    #[test]
    fn strongly_connected_digraph_converges_to_its_directed_diameter() {
        // Directed n-cycle: d(u, v) walks forward only, diameter = (n-1)·w.
        let g = directed_cycle(7, 3);
        let outcome = run(&g, &BoundsConfig::default());
        assert!(outcome.converged);
        assert_eq!(outcome.lower, 18);
        assert_eq!(outcome.upper, 18);
    }

    #[test]
    fn non_strongly_connected_digraph_reports_lower_bound_only() {
        // A one-way path: 0→1→2→3. No node reaches backwards.
        let mut b = GraphBuilder::new_directed(4);
        b.add_arc(0, 1, 2);
        b.add_arc(1, 2, 2);
        b.add_arc(2, 3, 2);
        let g = b.build();
        let outcome = run(&g, &BoundsConfig::default());
        assert!(!outcome.converged);
        assert_eq!(outcome.upper, INFINITY);
        // d(0, 3) = 6 must be discovered by the sweep chain.
        assert_eq!(outcome.lower, 6);
    }

    #[test]
    fn symmetric_directed_engine_matches_the_undirected_answer() {
        let edges = [(0u32, 1u32, 4u32), (1, 2, 1), (2, 3, 7), (0, 3, 2), (1, 3, 9)];
        let mut d = GraphBuilder::new_directed(4);
        let mut u = GraphBuilder::new(4);
        for &(a, b, w) in &edges {
            d.add_edge(a, b, w);
            u.add_edge(a, b, w);
        }
        let dg = d.build();
        let ug = u.build();
        let from_directed = run(&dg, &BoundsConfig::default());
        let from_undirected = run(&ug, &BoundsConfig::default());
        assert!(from_directed.converged && from_undirected.converged);
        assert_eq!(from_directed.lower, from_undirected.lower);
        assert_eq!(from_directed.upper, from_undirected.upper);
        assert_eq!(from_directed.upper, exact_diameter(&ug));
    }

    #[test]
    fn cancelled_run_reports_best_so_far_bracket() {
        let g = mesh(9, WeightModel::UniformUnit, 2);
        let exact = exact_diameter(&g);
        let cancel = CancelToken::never();
        cancel.cancel();
        let split = ComponentSplit::compute(&g);
        let outcome = bounds_diameter(&g, &BoundsConfig::default(), NO_ORACLE, &split, &cancel);
        // Even a pre-cancelled token admits one SSSP, so the lower bound is
        // non-trivial and the interval still brackets the exact diameter.
        assert!(outcome.interrupted);
        assert!(!outcome.converged);
        assert_eq!(outcome.sssp_runs, 1);
        assert!(outcome.lower > 0);
        assert!(outcome.lower <= exact && exact <= outcome.upper);
    }

    #[test]
    fn check_limit_cancellation_is_deterministic() {
        let g = mesh(8, WeightModel::UniformUnit, 17);
        let exact = exact_diameter(&g);
        let config = BoundsConfig::default().with_max_sssp(1_000);
        let split = ComponentSplit::compute(&g);
        let run =
            || bounds_diameter(&g, &config, NO_ORACLE, &split, &CancelToken::with_check_limit(3));
        let first = run();
        assert!(first.interrupted && !first.converged);
        assert!(first.lower <= exact && exact <= first.upper);
        for _ in 0..5 {
            assert_eq!(run(), first, "logical cadence must be reproducible");
        }
    }

    #[test]
    fn check_limit_is_deterministic_across_components() {
        // Two non-singleton components bounded in parallel: each gets a
        // child token with a fresh counter, so the combined outcome is
        // schedule-independent.
        let mut b = GraphBuilder::new(14);
        for i in 0..6u32 {
            b.add_edge(i, i + 1, 2 + i);
        }
        for i in 7..13u32 {
            b.add_edge(i, i + 1, 3 * (i - 6));
        }
        let g = b.build();
        let split = ComponentSplit::compute(&g);
        let config = BoundsConfig::default().with_max_sssp(1_000);
        let run =
            || bounds_diameter(&g, &config, NO_ORACLE, &split, &CancelToken::with_check_limit(2));
        let first = run();
        assert!(first.interrupted);
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
    }
}
