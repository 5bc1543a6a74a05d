//! Determinism across thread counts.
//!
//! The vendored rayon is a real threaded executor; these tests pin down the
//! contract every algorithm in the workspace relies on: running the same
//! seeded computation on pools of 1, 2, and 8 workers produces bit-identical
//! results — same graphs, same clusterings, same distances, same estimates,
//! and same MapReduce cost metrics. A regression here means some reduction
//! started depending on scheduling order.

use cldiam::gen::{mesh, rmat, RmatParams, WeightModel};
use cldiam::graph::CancelToken;
use cldiam::prelude::*;
use cldiam_core::{cluster, quotient_graph};
use cldiam_sssp::diameter::all_eccentricities;
use cldiam_sssp::{
    bounds_diameter, delta_stepping, suggest_delta, BoundsConfig, ComponentSplit, NO_ORACLE,
};
use cldiam_testkit::{MrConfig, MrEngine};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn with_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(op)
}

/// Runs `op` on every thread count and asserts all results equal the
/// 1-thread reference.
fn assert_identical<R: PartialEq + std::fmt::Debug + Send>(op: impl Fn() -> R + Send + Sync) {
    let reference = with_pool(THREAD_COUNTS[0], &op);
    for &threads in &THREAD_COUNTS[1..] {
        let result = with_pool(threads, &op);
        assert_eq!(result, reference, "result diverged at {threads} threads");
    }
}

#[test]
fn full_pipeline_is_bit_identical_across_thread_counts() {
    // generate → CLUSTER → quotient → estimate, everything inside the pool.
    assert_identical(|| {
        let graph = mesh(12, WeightModel::UniformUnit, 7);
        let config = ClusterConfig::default().with_tau(4).with_seed(7);
        let clustering = cluster(&graph, &config, &CancelToken::never());
        let quotient = quotient_graph(&graph, &clustering);
        let estimate = approximate_diameter(&graph, &config);
        (
            graph,
            clustering,
            quotient.graph,
            quotient.cluster_centers,
            quotient.boundary_edges,
            // `estimate` carries the MrMetrics (rounds, messages, node
            // updates, peak memory) — all compared bit-for-bit.
            estimate,
        )
    });
}

#[test]
fn rmat_generation_is_identical_across_thread_counts() {
    // The generator chunks by GEN_CHUNKS, never by pool size.
    assert_identical(|| rmat(RmatParams::paper(8), WeightModel::UniformUnit, 11));
}

#[test]
fn delta_stepping_is_identical_across_thread_counts() {
    assert_identical(|| {
        let graph = mesh(14, WeightModel::UniformUnit, 3);
        let delta = suggest_delta(&graph);
        let fine = delta_stepping(&graph, 0, delta, None);
        let coarse = delta_stepping(&graph, 5, delta.saturating_mul(16), None);
        (fine, coarse)
    });
}

#[test]
fn all_eccentricities_are_identical_across_thread_counts() {
    assert_identical(|| {
        let graph = mesh(9, WeightModel::UniformUnit, 4);
        all_eccentricities(&graph)
    });
}

#[test]
fn mr_engine_rounds_are_identical_across_thread_counts() {
    // The engine's own pool is sized to its machine count; the outer pool
    // must not leak into round outputs, loads, or metrics. Output order is
    // also exact: the engine groups with a fixed-seed hasher.
    assert_identical(|| {
        let engine = MrEngine::new(MrConfig::with_machines(4));
        let pairs: Vec<(u32, u64)> = (0..500u32).map(|i| (i % 37, u64::from(i))).collect();
        let sums = engine.run_round(pairs, |&k, vs| vec![(k, vs.iter().sum::<u64>())]);
        let total = engine.run_round(sums, |_, vs| vec![((), vs.iter().sum::<u64>())]);
        (total, engine.history(), engine.metrics())
    });
}

#[test]
fn bounds_engine_is_identical_across_thread_counts() {
    // The anytime engine splits disconnected graphs and bounds the
    // components in parallel; the combined outcome — bounds, SSSP counts and
    // the full iteration trace — must not depend on the pool size.
    assert_identical(|| {
        let connected = mesh(10, WeightModel::UniformUnit, 5);
        let disconnected = rmat(RmatParams::paper(7), WeightModel::UniformUnit, 13);
        let config = BoundsConfig::default().with_max_sssp(12);
        let bounds = |graph| {
            let split = ComponentSplit::compute(graph);
            bounds_diameter(graph, &config, NO_ORACLE, &split, &CancelToken::never())
        };
        (bounds(&connected), bounds(&disconnected))
    });
}
