//! Integration tests for the MapReduce substrate driven by graph workloads:
//! classic graph computations expressed as key-value rounds on the simulated
//! engine, checked against the shared-memory oracles, plus the strict
//! `MR(M_T, M_L)` accounting of Fact 1.

use cldiam::gen::{mesh, preferential_attachment, WeightModel};
use cldiam::graph::{Graph, NodeId};
use cldiam::prelude::*;
use cldiam_testkit::traversal::bfs_hops;
use cldiam_testkit::{primitives, MrConfig, MrEngine};

/// Unweighted BFS expressed as MapReduce rounds: each round maps the frontier
/// to (neighbor, level + 1) pairs and reduces by keeping the first level at
/// which a node is reached.
fn mr_bfs(engine: &MrEngine, graph: &Graph, source: NodeId) -> Vec<u32> {
    let mut level = vec![u32::MAX; graph.num_nodes()];
    level[source as usize] = 0;
    let mut frontier = vec![source];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        let pairs: Vec<(NodeId, u32)> = frontier
            .iter()
            .flat_map(|&u| graph.neighbors(u).map(move |(v, _)| (v, depth + 1)))
            .collect();
        let reduced = engine.run_round(pairs, |&v, levels| {
            vec![(v, levels.into_iter().min().expect("non-empty group"))]
        });
        frontier = reduced
            .into_iter()
            .filter_map(|(v, l)| {
                if l < level[v as usize] {
                    level[v as usize] = l;
                    Some(v)
                } else {
                    None
                }
            })
            .collect();
        depth += 1;
    }
    level
}

#[test]
fn mr_bfs_matches_sequential_bfs() {
    let graph = mesh(12, WeightModel::Unit, 3);
    let engine = MrEngine::new(MrConfig::with_machines(4));
    let levels = mr_bfs(&engine, &graph, 0);
    assert_eq!(levels, bfs_hops(&graph, 0));
    // One MR round per BFS level (the hop eccentricity of the corner is 22),
    // plus the final empty-frontier check.
    assert!(engine.metrics().rounds >= 22);
}

#[test]
fn mr_degree_count_matches_graph_degrees() {
    let graph = preferential_attachment(400, 3, WeightModel::UniformUnit, 7);
    let engine = MrEngine::new(MrConfig::with_machines(8));
    let pairs: Vec<(NodeId, u64)> =
        graph.edges().flat_map(|(u, v, _)| [(u, 1u64), (v, 1u64)]).collect();
    let mut degrees = engine.run_round(pairs, |&u, ones| vec![(u, ones.len() as u64)]);
    degrees.sort_unstable();
    for (u, d) in degrees {
        assert_eq!(d as usize, graph.degree(u), "node {u}");
    }
}

#[test]
fn mr_sort_orders_edges_by_weight() {
    let graph = mesh(10, WeightModel::UniformUnit, 5);
    let engine = MrEngine::new(MrConfig::with_machines(4));
    let weights: Vec<u32> = graph.edges().map(|(_, _, w)| w).collect();
    let sorted = primitives::sort(&engine, weights.clone());
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(sorted.len(), weights.len());
    assert_eq!(sorted.first().copied(), graph.min_weight());
    assert_eq!(sorted.last().copied(), graph.max_weight());
}

#[test]
fn strict_mode_charges_fact1_round_counts() {
    // Fact 1: sorting n items costs O(log_{M_L} n) rounds. With M_L = 64 and
    // n = 200 000 values that is ⌈log_64 n⌉ = 3 rounds; the loose (Spark-like)
    // accounting charges a single round.
    let values: Vec<u64> = (0..200_000u64).rev().collect();
    let loose = MrEngine::new(MrConfig::with_machines(4).with_local_memory(1 << 6));
    primitives::sort(&loose, values.clone());
    assert_eq!(loose.metrics().rounds, 1);

    let strict = MrEngine::new(MrConfig::with_machines(4).with_local_memory(1 << 6).strict());
    primitives::sort(&strict, values);
    assert_eq!(strict.metrics().rounds, 3);
}

#[test]
fn machine_count_does_not_change_results_only_load() {
    let graph = mesh(8, WeightModel::UniformUnit, 2);
    let mut outputs = Vec::new();
    let mut peaks = Vec::new();
    for machines in [1usize, 2, 8] {
        let engine = MrEngine::new(MrConfig::with_machines(machines));
        let mut levels = mr_bfs(&engine, &graph, 0);
        levels.shrink_to_fit();
        outputs.push(levels);
        peaks.push(engine.metrics().peak_local_items);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
    // More machines never increases the peak per-machine load.
    assert!(peaks[2] <= peaks[0]);
}

#[test]
fn cost_accounting_charges_rounds_and_messages_exactly() {
    // Every run_round charges exactly one round and `input_items` messages;
    // chaining rounds accumulates both, with no hidden charges.
    let engine = MrEngine::new(MrConfig::with_machines(4));
    let first: Vec<(u32, u64)> = (0..120u32).map(|i| (i % 10, 1u64)).collect();
    let mid = engine.run_round(first, |&k, vs| vec![(k, vs.len() as u64)]);
    let mid_len = mid.len();
    engine.run_round(mid, |_, vs| vec![((), vs.into_iter().sum::<u64>())]);

    let metrics = engine.metrics();
    assert_eq!(metrics.rounds, 2);
    assert_eq!(metrics.messages, 120 + mid_len as u64);
    let history = engine.history();
    assert_eq!(history.len(), 2);
    assert_eq!(history[0].input_items, 120);
    assert_eq!(history[1].input_items, mid_len);
    // Work is messages plus node updates; run_round itself applies none.
    assert_eq!(metrics.work(), metrics.messages);
}

#[test]
fn tiny_local_memory_flags_every_overloaded_round() {
    // With M_L = 8 items and all pairs hashed to one key, one machine holds
    // the whole input: the violation must be flagged and the peak recorded.
    let engine = MrEngine::new(MrConfig::with_machines(4).with_local_memory(8));
    let pairs: Vec<(u8, u32)> = (0..100u32).map(|i| (1u8, i)).collect();
    engine.run_round(pairs, |&k, vs| vec![(k, vs.len() as u32)]);

    let history = engine.history();
    assert!(history[0].local_memory_exceeded, "100 items on one machine must exceed M_L = 8");
    assert_eq!(engine.metrics().peak_local_items, 100);

    // The follow-up round (one key-count pair) fits comfortably.
    let engine2 = MrEngine::new(MrConfig::with_machines(4).with_local_memory(8));
    let small: Vec<(u8, u32)> = (0..5u32).map(|i| (i as u8, i)).collect();
    engine2.run_round(small, |&k, vs| vec![(k, vs.len() as u32)]);
    assert!(!engine2.history()[0].local_memory_exceeded);
}

#[test]
fn round_count_is_independent_of_machine_count() {
    // The Figure-4 invariant: varying the number of machines changes the
    // per-machine load (and wall-clock time on a real platform) but never the
    // round structure of the computation.
    let graph = mesh(10, WeightModel::UniformUnit, 4);
    let mut round_counts = Vec::new();
    let mut message_counts = Vec::new();
    for machines in [1usize, 2, 4, 16] {
        let engine = MrEngine::new(MrConfig::with_machines(machines));
        mr_bfs(&engine, &graph, 0);
        primitives::sort(&engine, graph.edges().map(|(_, _, w)| w).collect::<Vec<_>>());
        let metrics = engine.metrics();
        round_counts.push(metrics.rounds);
        message_counts.push(metrics.messages);
    }
    assert!(
        round_counts.windows(2).all(|w| w[0] == w[1]),
        "round counts varied with machine count: {round_counts:?}"
    );
    assert!(
        message_counts.windows(2).all(|w| w[0] == w[1]),
        "message counts varied with machine count: {message_counts:?}"
    );
}

#[test]
fn strict_fact1_rounds_are_also_machine_independent() {
    // Fact 1 charges ⌈log_{M_L} n⌉ rounds as a function of n and M_L only;
    // the machine count must not leak into the charge.
    let values: Vec<u64> = (0..50_000u64).rev().collect();
    let mut rounds = Vec::new();
    for machines in [2usize, 8, 32] {
        let engine =
            MrEngine::new(MrConfig::with_machines(machines).with_local_memory(1 << 6).strict());
        primitives::sort(&engine, values.clone());
        rounds.push(engine.metrics().rounds);
    }
    assert_eq!(rounds[0], rounds[1]);
    assert_eq!(rounds[1], rounds[2]);
    assert!(rounds[0] >= 2, "50k items with M_L = 64 must charge multiple rounds");
}

#[test]
fn delta_stepping_work_dominates_cldiam_work_on_mesh() {
    // Cross-substrate sanity check of the cost model feeding Figure 3: on a
    // high-diameter graph, the clustering-based estimator charges less work
    // than a full Δ-stepping SSSP.
    let graph = mesh(40, WeightModel::UniformUnit, 6);
    let config = ClusterConfig::default().with_tau(4).with_seed(6);
    let estimate = approximate_diameter(&graph, &config);
    let sssp = delta_stepping(&graph, 0, 500_000, None);
    assert!(
        estimate.metrics.work() < sssp.work(),
        "CL-DIAM work {} not below Δ-stepping work {}",
        estimate.metrics.work(),
        sssp.work()
    );
}
