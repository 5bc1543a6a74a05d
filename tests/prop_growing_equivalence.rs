//! Property-based equivalence of the two Δ-growing step implementations.
//!
//! The acceptance bar for the in-place hot path: on random weighted graphs,
//! the allocation-free in-place step ([`cldiam_core::delta_growing_step`])
//! and the literal MapReduce execution
//! ([`cldiam_testkit::mr_impl::mr_delta_growing_step`]) must produce
//! identical `GrowState`s, identical per-wave updated sets and identical
//! per-wave message and node-update charges, each read as the difference of
//! two cost snapshots (the in-place step's `CostTracker`, the MR engine's
//! metrics), wave by wave until fixpoint, on thread pools of 1, 2 and 8
//! workers.
//!
//! The scenario also exercises the frozen-source path: after a first growth
//! phase, reached nodes are frozen and re-seeded as sources with a (possibly
//! negative, `CLUSTER2`-style) credit before the phase under test runs.

use proptest::prelude::*;

use cldiam_core::{delta_growing_step, GrowScratch, GrowState, NO_CENTER};
use cldiam_gen::{mesh, WeightModel};
use cldiam_graph::{Dist, Graph, GraphBuilder, NodeId, WEIGHT_SCALE};
use cldiam_mr::{CostMetrics, CostTracker};
use cldiam_testkit::mr_impl::mr_delta_growing_step;
use cldiam_testkit::{MrConfig, MrEngine};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const MAX_WAVES: usize = 64;

/// A connected random weighted graph with 2..=16 nodes (spanning path plus
/// random extra edges), the same recipe as the workspace-level invariants
/// suite but smaller: each case runs six growths to fixpoint on three pools.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (2usize..=16).prop_flat_map(|n| {
        let path_weights = proptest::collection::vec(1u32..=20, n - 1);
        let extra_edges =
            proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..=20), 0..(2 * n));
        (path_weights, extra_edges).prop_map(move |(pw, extra)| {
            let mut builder = GraphBuilder::new(n);
            for (i, w) in pw.iter().enumerate() {
                builder.add_edge(i as u32, (i + 1) as u32, *w);
            }
            for (u, v, w) in extra {
                if u != v {
                    builder.add_edge(u, v, w);
                }
            }
            builder.build()
        })
    })
}

/// Everything a wave-by-wave growth produces: the per-wave updated sets with
/// their messages and node updates, and the final state vectors.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Trace {
    waves: Vec<(Vec<NodeId>, u64, u64)>,
    eff: Vec<i64>,
    center: Vec<NodeId>,
    true_dist: Vec<Dist>,
}

/// Builds the initial state: centers from `center_sel`, plus an optional
/// frozen first phase whose survivors become sources with `credit`.
fn init_state(
    graph: &Graph,
    center_sel: &[usize],
    prefreeze: bool,
    credit: i64,
    threshold: Dist,
) -> GrowState {
    let n = graph.num_nodes();
    let mut state = GrowState::new(n);
    let mut centers: Vec<NodeId> = center_sel.iter().map(|&c| (c % n) as NodeId).collect();
    centers.sort_unstable();
    centers.dedup();
    for &c in &centers {
        state.set_center(c);
    }
    if prefreeze {
        // Deterministic phase 0: grow a little, freeze what was reached,
        // re-seed as credited sources.
        let (tracker, mut scratch) = (CostTracker::new(), GrowScratch::new());
        let mut frontier = centers.clone();
        for _ in 0..2 {
            let updated = delta_growing_step(
                graph,
                threshold / 2,
                &mut state,
                &frontier,
                &tracker,
                &mut scratch,
            );
            if updated.is_empty() {
                break;
            }
            frontier = updated;
        }
        state.freeze_reached();
        for u in 0..n {
            if state.frozen[u] {
                state.eff[u] = credit;
            }
        }
    }
    state
}

fn initial_frontier(state: &GrowState, threshold: Dist) -> Vec<NodeId> {
    (0..state.len() as NodeId)
        .filter(|&u| {
            cldiam_core::eff_below_threshold(state.eff[u as usize], threshold)
                && state.center[u as usize] != NO_CENTER
        })
        .collect()
}

/// The messages and node updates charged between two cost snapshots.
fn charged(before: CostMetrics, after: CostMetrics) -> (u64, u64) {
    (after.messages - before.messages, after.node_updates - before.node_updates)
}

fn run_in_place(graph: &Graph, threshold: Dist, init: &GrowState) -> Trace {
    let mut state = init.clone();
    let (tracker, mut scratch) = (CostTracker::new(), GrowScratch::new());
    let mut frontier = initial_frontier(&state, threshold);
    let mut waves = Vec::new();
    for _ in 0..MAX_WAVES {
        if frontier.is_empty() {
            break;
        }
        let before = tracker.snapshot();
        let updated =
            delta_growing_step(graph, threshold, &mut state, &frontier, &tracker, &mut scratch);
        let (messages, node_updates) = charged(before, tracker.snapshot());
        waves.push((updated.clone(), messages, node_updates));
        frontier = updated;
    }
    Trace { waves, eff: state.eff, center: state.center, true_dist: state.true_dist }
}

fn run_mapreduce(graph: &Graph, threshold: Dist, init: &GrowState) -> Trace {
    let mut state = init.clone();
    let engine = MrEngine::new(MrConfig::with_machines(4));
    let mut frontier = initial_frontier(&state, threshold);
    let mut waves = Vec::new();
    for _ in 0..MAX_WAVES {
        if frontier.is_empty() {
            break;
        }
        let before = engine.metrics();
        let updated = mr_delta_growing_step(&engine, graph, threshold, &mut state, &frontier);
        let (messages, node_updates) = charged(before, engine.metrics());
        waves.push((updated.clone(), messages, node_updates));
        frontier = updated;
    }
    Trace { waves, eff: state.eff, center: state.center, true_dist: state.true_dist }
}

fn with_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_place_and_mapreduce_growing_steps_are_bit_identical(
        graph in arbitrary_graph(),
        center_sel in proptest::collection::vec(0usize..16, 1..4),
        threshold_raw in 5u64..120,
        prefreeze_raw in 0u32..2,
        credit_raw in 0u64..=15,
    ) {
        let threshold: Dist = threshold_raw;
        let prefreeze = prefreeze_raw == 1;
        let credit = -(credit_raw as i64);
        let init = init_state(&graph, &center_sel, prefreeze, credit, threshold);

        let reference = with_pool(THREAD_COUNTS[0], || {
            (
                run_in_place(&graph, threshold, &init),
                run_mapreduce(&graph, threshold, &init),
            )
        });
        let (in_place, mapreduce) = &reference;

        // The two implementations agree wave-by-wave: same updated sets,
        // same proposal counts (MR messages), same update counts (MR node
        // updates), same final state.
        prop_assert_eq!(in_place, mapreduce);

        // And the in-place path is scheduling-independent: identical traces
        // on wider pools.
        for &threads in &THREAD_COUNTS[1..] {
            let wide = with_pool(threads, || {
                (
                    run_in_place(&graph, threshold, &init),
                    run_mapreduce(&graph, threshold, &init),
                )
            });
            prop_assert_eq!(&wide, &reference, "diverged at {} threads", threads);
        }
    }
}

#[test]
fn in_place_step_matches_the_mr_formulation_on_a_mesh() {
    let g = mesh(6, WeightModel::UniformUnit, 11);
    let mut init = GrowState::new(g.num_nodes());
    for &c in &[0, 17, 35] {
        init.set_center(c);
    }
    let threshold = 3 * Dist::from(WEIGHT_SCALE);
    let in_place = run_in_place(&g, threshold, &init);
    assert!(in_place.waves.len() > 1, "the growth must run several waves");
    assert_eq!(in_place, run_mapreduce(&g, threshold, &init));
}
