//! Property-based equivalence of the resident `CLUSTER` / `CLUSTER2` drivers
//! with a transcription of the plain stage loops they replace.
//!
//! The oracle below keeps the whole grow state in a [`GrowState`] and runs
//! every growth through [`partial_growth`], re-initializing every node
//! at every stage: covered nodes become sources again with their credit and
//! the initial frontier is rebuilt from all `n` nodes. The production drivers
//! keep the state resident in the growing scratch and prune interior sources
//! (the lazy `Contract`). Both must return the same [`Clustering`] —
//! assignment, distances, centers, radius, `Δ_end`, growing steps, stages
//! and every MR cost counter — under logical check budgets of 1 to 8
//! checkpoints, and on thread pools of 1, 2 and 8 workers.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;

use cldiam_core::cluster::GAMMA;
use cldiam_core::{
    cluster, cluster2, partial_growth, ClusterConfig, Clustering, GrowScratch, GrowState,
};
use cldiam_graph::{CancelToken, Dist, Graph, GraphBuilder, NodeId, Weight};
use cldiam_mr::CostTracker;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn pools() -> &'static [rayon::ThreadPool] {
    static POOLS: OnceLock<Vec<rayon::ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| {
        THREAD_COUNTS
            .iter()
            .map(|&threads| {
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
            })
            .collect()
    })
}

/// A random graph of `n` nodes from one of three families:
/// 0 — connected (random spanning tree plus extra edges), weights 1..=1000;
/// 1 — disconnected: three random components and a few isolated nodes;
/// 2 — connected, with weights at every scale up to `u32::MAX`, so edges
///     too heavy for one `Δ` turn light after a few doublings.
fn random_graph(family: usize, n: usize, seed: u64) -> Graph {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let weight = |rng: &mut Xoshiro256PlusPlus| -> Weight {
        match family {
            2 => (rng.gen::<u32>() >> rng.gen_range(0u32..32)).max(1),
            _ => rng.gen_range(1..=1000),
        }
    };
    let mut builder = GraphBuilder::new(n);
    // Component boundaries: one component, or three plus isolated nodes.
    let bounds: Vec<usize> = if family == 1 {
        let a = rng.gen_range(n / 5..n / 2);
        let b = rng.gen_range(a + 2..n - 8);
        vec![0, a, b, n - 4]
    } else {
        vec![0, n]
    };
    for part in bounds.windows(2) {
        let (lo, hi) = (part[0], part[1]);
        for v in lo + 1..hi {
            let u = rng.gen_range(lo..v);
            let w = weight(&mut rng);
            builder.add_edge(u as NodeId, v as NodeId, w);
        }
        for _ in 0..(hi - lo) / 2 {
            let u = rng.gen_range(lo..hi);
            let v = rng.gen_range(lo..hi);
            if u != v {
                let w = weight(&mut rng);
                builder.add_edge(u as NodeId, v as NodeId, w);
            }
        }
    }
    builder.build()
}

/// `(state, Δ, growing steps, stages)` of a finished oracle decomposition.
type OracleRun = (GrowState, Dist, u64, u64);

fn uncovered_nodes(state: &GrowState) -> Vec<NodeId> {
    (0..state.len() as NodeId).filter(|&u| !state.frozen[u as usize]).collect()
}

/// The pseudocode's re-initialization of `(c_u, d_u)` for unfrozen nodes.
fn reset_unfrozen(state: &mut GrowState) {
    for u in 0..state.len() {
        if !state.frozen[u] {
            state.center[u] = cldiam_core::NO_CENTER;
            state.eff[u] = cldiam_core::EFF_INFINITY;
            state.true_dist[u] = Dist::MAX;
        }
    }
}

/// `CLUSTER`'s stage loop over a plain `GrowState`.
fn oracle_cluster_state(
    graph: &Graph,
    config: &ClusterConfig,
    tracker: &CostTracker,
    cancel: &CancelToken,
) -> OracleRun {
    let n = graph.num_nodes();
    let mut state = GrowState::new(n);
    let mut delta = config.initial_delta.resolve(graph);
    let (mut growing_steps, mut stages) = (0u64, 0u64);
    let log_n = (n.max(2) as f64).log2();
    let stop_threshold = (8.0 * config.tau as f64 * log_n).ceil() as usize;
    let delta_cap: Dist = graph.total_weight().saturating_mul(2).max(2);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
    let mut scratch = GrowScratch::new();
    loop {
        if cancel.checkpoint() {
            break;
        }
        let uncovered = uncovered_nodes(&state);
        if uncovered.is_empty() || uncovered.len() < stop_threshold {
            break;
        }
        stages += 1;
        let p = (GAMMA * config.tau as f64 * log_n / uncovered.len() as f64).min(1.0);
        let mut new_centers: Vec<NodeId> =
            uncovered.iter().copied().filter(|_| rng.gen::<f64>() < p).collect();
        if new_centers.is_empty() {
            new_centers.push(uncovered[rng.gen_range(0..uncovered.len())]);
        }
        reset_unfrozen(&mut state);
        for u in 0..n as NodeId {
            if state.frozen[u as usize] {
                state.eff[u as usize] = 0;
            }
        }
        for &c in &new_centers {
            state.set_center(c);
        }
        tracker.add_round();
        tracker.add_messages(uncovered.len() as u64);
        let target = uncovered.len().div_ceil(2);
        loop {
            let outcome = partial_growth(
                graph,
                delta,
                &mut state,
                Some(target),
                tracker,
                &mut scratch,
                cancel,
            );
            growing_steps += outcome.steps;
            if outcome.reached_unfrozen >= target || cancel.is_cancelled() || delta >= delta_cap {
                break;
            }
            delta = delta.saturating_mul(2).min(delta_cap);
            tracker.add_round();
        }
        state.freeze_reached();
        tracker.add_round();
    }
    for u in uncovered_nodes(&state) {
        state.set_center(u);
    }
    state.freeze_reached();
    tracker.add_round();
    (state, delta, growing_steps, stages)
}

/// `finalize`: packages a finished oracle run.
fn package(run: OracleRun, tracker: &CostTracker) -> Clustering {
    let (state, delta_end, growing_steps, stages) = run;
    let centers = (0..state.len() as NodeId).filter(|&u| state.center[u as usize] == u).collect();
    let dist: Vec<Dist> =
        state.true_dist.iter().map(|&d| if d == Dist::MAX { 0 } else { d }).collect();
    let radius = dist.iter().copied().max().unwrap_or(0);
    Clustering {
        assignment: state.center,
        dist,
        centers,
        radius,
        delta_end,
        growing_steps,
        stages,
        metrics: tracker.snapshot(),
    }
}

fn oracle_cluster(graph: &Graph, config: &ClusterConfig, cancel: &CancelToken) -> Clustering {
    let tracker = CostTracker::new();
    let run = oracle_cluster_state(graph, config, &tracker, cancel);
    package(run, &tracker)
}

/// `CLUSTER2`'s iteration loop over a plain `GrowState`.
fn oracle_cluster2(graph: &Graph, config: &ClusterConfig, cancel: &CancelToken) -> Clustering {
    let n = graph.num_nodes();
    let tracker = CostTracker::new();
    let preliminary = oracle_cluster(graph, config, cancel);
    let threshold: Dist = preliminary.radius.max(1).saturating_mul(2);
    tracker.add_rounds(preliminary.metrics.rounds);
    tracker.add_messages(preliminary.metrics.messages);
    tracker.add_node_updates(preliminary.metrics.node_updates);

    let iterations = (n.max(2) as f64).log2().ceil() as u32;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(config.seed.wrapping_add(0x5EED));
    let mut state = GrowState::new(n);
    let mut creation_iter: Vec<u32> = vec![0; n];
    let mut growing_steps = 0u64;
    let mut scratch = GrowScratch::new();
    for i in 1..=iterations {
        if cancel.checkpoint() {
            break;
        }
        let uncovered = uncovered_nodes(&state);
        if uncovered.is_empty() {
            break;
        }
        let p = ((1u64 << i.min(63)) as f64 / n as f64).min(1.0);
        let mut new_centers: Vec<NodeId> =
            uncovered.iter().copied().filter(|_| rng.gen::<f64>() < p).collect();
        if i == iterations && new_centers.len() < uncovered.len() {
            new_centers = uncovered.clone();
        }
        reset_unfrozen(&mut state);
        for u in 0..n {
            if state.frozen[u] {
                let center = state.center[u];
                let elapsed = Dist::from(i - 1 - creation_iter[center as usize]);
                let credit = state.true_dist[u] as i64 - (threshold.saturating_mul(elapsed)) as i64;
                state.eff[u] = credit;
            }
        }
        for &c in &new_centers {
            state.set_center(c);
            creation_iter[c as usize] = i - 1;
        }
        tracker.add_round();
        tracker.add_messages(uncovered.len() as u64);
        let outcome =
            partial_growth(graph, threshold, &mut state, None, &tracker, &mut scratch, cancel);
        growing_steps += outcome.steps;
        state.freeze_reached();
        tracker.add_round();
    }
    for u in uncovered_nodes(&state) {
        state.set_center(u);
    }
    state.freeze_reached();
    let run = (
        state,
        threshold,
        growing_steps + preliminary.growing_steps,
        preliminary.stages + u64::from(iterations),
    );
    package(run, &tracker)
}

/// A fresh token of the given check budget (`None`: never cancels).
fn token(budget: Option<u64>) -> CancelToken {
    budget.map_or_else(CancelToken::never, CancelToken::with_check_limit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn resident_drivers_match_the_stage_loop_oracle(
        family in 0usize..3,
        n in 130usize..240,
        tau in 1usize..=2,
        graph_seed in 0u64..1 << 32,
        algo_seed in 0u64..1 << 32,
    ) {
        // 8·τ·log n < n for every n ≥ 130 and τ ≤ 2, so stages actually run.
        prop_assert!(8.0 * tau as f64 * (n as f64).log2() < n as f64);
        let graph = random_graph(family, n, graph_seed);
        let config = ClusterConfig::default().with_tau(tau).with_seed(algo_seed);
        for budget in std::iter::once(None).chain((1..=8).map(Some)) {
            let expected = (
                oracle_cluster(&graph, &config, &token(budget)),
                oracle_cluster2(&graph, &config, &token(budget)),
            );
            if budget.is_none() {
                prop_assert!(expected.0.stages >= 1, "no stage ran");
            }
            for (pool, threads) in pools().iter().zip(THREAD_COUNTS) {
                let got = pool.install(|| {
                    (
                        cluster(&graph, &config, &token(budget)),
                        cluster2(&graph, &config, &token(budget)),
                    )
                });
                prop_assert_eq!(
                    &got.0, &expected.0,
                    "CLUSTER, family {family}, n {n}, τ {tau}, budget {budget:?}, \
                     {threads} threads"
                );
                prop_assert_eq!(
                    &got.1, &expected.1,
                    "CLUSTER2, family {family}, n {n}, τ {tau}, budget {budget:?}, \
                     {threads} threads"
                );
            }
        }
    }
}
