//! Property-based equivalence of the map-side combining quotient build with
//! a transcription of the plain gather it replaces.
//!
//! The oracle below gathers every boundary edge with its clamped augmented
//! weight and hands them all to a [`GraphBuilder`], which keeps the
//! lightest edge per cluster pair. [`quotient_graph`] folds the edges into
//! per-chunk combiner tables instead. Both must return the same
//! [`QuotientGraph`] — graph, centers, boundary-edge count and overflow count
//! — on dense and compressed graphs, on thread pools of 1, 2 and 8 workers,
//! for clusterings from `CLUSTER` and `CLUSTER2` runs and for hand-made
//! all-singleton and single-cluster clusterings. Every case's all-singleton
//! quotient has more cluster pairs than a combiner table has slots, so the
//! eviction path runs in every case.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;

use cldiam_core::quotient::COMBINER_SLOTS;
use cldiam_core::{cluster, cluster2, quotient_graph, ClusterConfig, Clustering, QuotientGraph};
use cldiam_graph::{CancelToken, CompressedGraph, Dist, Graph, GraphBuilder, NodeId, Weight};
use cldiam_mr::CostMetrics;

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

/// A random graph of `n` nodes and about `2n` edges from one of four
/// families:
/// 0 — connected (random spanning tree plus extra edges), weights 1..=1000;
/// 1 — disconnected: three random components and a few isolated nodes;
/// 2 — connected, every edge added three times with different weights;
/// 3 — connected, a third of the weights within 3 of `Weight::MAX`, so
///     augmented quotient weights overflow.
fn random_graph(family: usize, n: usize, seed: u64) -> Graph {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let weight = |rng: &mut Xoshiro256PlusPlus| -> Weight {
        if family == 3 && rng.gen_range(0u32..3) == 0 {
            Weight::MAX - rng.gen_range(0u32..4)
        } else {
            rng.gen_range(1..=1000)
        }
    };
    let copies = if family == 2 { 3 } else { 1 };
    let mut builder = GraphBuilder::new(n);
    let mut add = |rng: &mut Xoshiro256PlusPlus, u: usize, v: usize| {
        for _ in 0..copies {
            let w = weight(rng);
            builder.add_edge(u as NodeId, v as NodeId, w);
        }
    };
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
            add(&mut rng, u, v);
        }
        for _ in lo..hi {
            let u = rng.gen_range(lo..hi);
            let v = rng.gen_range(lo..hi);
            if u != v {
                add(&mut rng, u, v);
            }
        }
    }
    builder.build()
}

/// The quotient build being replaced: gather every boundary edge, then let
/// the builder's sort keep the lightest per cluster pair.
fn oracle_quotient(graph: &Graph, clustering: &Clustering) -> QuotientGraph {
    let centers = clustering.centers.clone();
    let mut quotient_id: Vec<NodeId> = vec![NodeId::MAX; graph.num_nodes()];
    for (i, &c) in centers.iter().enumerate() {
        quotient_id[c as usize] = i as NodeId;
    }
    let (assignment, dist) = (&clustering.assignment, &clustering.dist);
    let mut boundary = Vec::new();
    let mut overflow_edges = 0;
    for u in 0..graph.num_nodes() as NodeId {
        for (v, w) in graph.neighbors(u) {
            let (cu, cv) = (assignment[u as usize], assignment[v as usize]);
            if u >= v || cu == cv {
                continue;
            }
            let weight =
                Dist::from(w).saturating_add(dist[u as usize]).saturating_add(dist[v as usize]);
            if weight > Dist::from(Weight::MAX) {
                overflow_edges += 1;
            }
            let clamped = weight.min(Dist::from(Weight::MAX)) as Weight;
            boundary.push((quotient_id[cu as usize], quotient_id[cv as usize], clamped.max(1)));
        }
    }
    let boundary_edges = boundary.len();
    let mut builder = GraphBuilder::with_capacity(centers.len(), boundary_edges);
    builder.extend_edges(boundary);
    QuotientGraph {
        graph: builder.build(),
        cluster_centers: centers,
        boundary_edges,
        overflow_edges,
    }
}

/// A hand-made clustering with the given centers and per-node distances.
fn hand_made(assignment: Vec<NodeId>, centers: Vec<NodeId>, dist: Vec<Dist>) -> Clustering {
    let radius = dist.iter().copied().max().unwrap_or(0);
    Clustering {
        assignment,
        dist,
        centers,
        radius,
        delta_end: 0,
        growing_steps: 0,
        stages: 0,
        metrics: CostMetrics::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn combined_quotient_matches_the_gather_oracle(
        family in 0usize..4,
        n in 2200usize..3200,
        tau in 1usize..=4,
        graph_seed in 0u64..1 << 32,
        algo_seed in 0u64..1 << 32,
    ) {
        let graph = random_graph(family, n, graph_seed);
        let compressed = CompressedGraph::from_graph(&graph, 3);
        let config = ClusterConfig::default().with_tau(tau).with_seed(algo_seed);
        let all_nodes: Vec<NodeId> = (0..n as NodeId).collect();
        let clusterings = [
            ("CLUSTER", cluster(&graph, &config, &CancelToken::never())),
            ("CLUSTER2", cluster2(&graph, &config, &CancelToken::never())),
            ("singletons", hand_made(all_nodes.clone(), all_nodes, vec![0; n])),
            ("one cluster", hand_made(vec![0; n], vec![0], vec![1; n])),
        ];
        let mut most_pairs = 0;
        let mut overflow_edges = 0;
        for (name, clustering) in &clusterings {
            let expected = oracle_quotient(&graph, clustering);
            most_pairs = most_pairs.max(expected.graph.num_edges());
            overflow_edges += expected.overflow_edges;
            for (pool, threads) in pools().iter().zip(THREAD_COUNTS) {
                let (dense, packed) = pool.install(|| {
                    (quotient_graph(&graph, clustering), quotient_graph(&compressed, clustering))
                });
                prop_assert_eq!(
                    &dense, &expected,
                    "{name}, dense, family {family}, n {n}, τ {tau}, {threads} threads"
                );
                prop_assert_eq!(
                    &packed, &expected,
                    "{name}, compressed, family {family}, n {n}, τ {tau}, {threads} threads"
                );
            }
        }
        prop_assert!(
            most_pairs > COMBINER_SLOTS,
            "{most_pairs} cluster pairs never evict from {COMBINER_SLOTS} slots"
        );
        if family == 3 {
            prop_assert!(overflow_edges > 0, "no augmented weight overflowed");
        }
    }
}
