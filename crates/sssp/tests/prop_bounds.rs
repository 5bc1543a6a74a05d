//! Property-based soundness of the anytime bounds engine and the directed
//! SSSP substrate.
//!
//! The acceptance bar: on random weighted graphs — connected and
//! disconnected — every recorded iteration of the bounds engine must bracket
//! the exact diameter (`lb ≤ Φ(G) ≤ ub`), bounds must tighten monotonically,
//! a converged run must land exactly on `exact_diameter`, and the whole
//! outcome (bounds, run counts, iteration trace) must be bit-identical on
//! thread pools of 1, 2 and 8 workers. The directed engine is held to the
//! same bar on random strongly connected digraphs, against the largest
//! forward eccentricity, with a finite upper bound on every run. On random
//! digraphs the backward Dijkstra must equal a forward Dijkstra on the
//! explicitly reversed graph.

use proptest::prelude::*;

use cldiam_graph::{CancelToken, Dist, Graph, GraphBuilder, NodeId, Weight, INFINITY};
use cldiam_sssp::{
    bounds_diameter, bounds_diameter_directed, dijkstra, exact_diameter, BoundsConfig,
    BoundsOutcome, ComponentSplit, DijkstraScratch, SsspDirection, NO_ORACLE,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn run(graph: &Graph, config: &BoundsConfig) -> BoundsOutcome {
    bounds_diameter(
        graph,
        config,
        NO_ORACLE,
        &ComponentSplit::compute(graph),
        &CancelToken::never(),
    )
}

fn with_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(op)
}

/// A random undirected graph of 2..=18 nodes; `spine` forces connectivity.
fn graph_strategy(spine: bool, max_w: Weight) -> impl Strategy<Value = Graph> {
    (2usize..=18).prop_flat_map(move |n| {
        let path_weights = proptest::collection::vec(1..=max_w, if spine { n - 1 } else { 0 });
        let extra_edges =
            proptest::collection::vec((0..n as u32, 0..n as u32, 1..=max_w), 0..(2 * n));
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

/// Connected and typically-disconnected families, light and heavy weights.
fn any_graph() -> impl Strategy<Value = Graph> {
    (0usize..3).prop_flat_map(|family| {
        let (spine, max_w) = match family {
            0 => (true, 30),
            1 => (false, 30),
            _ => (true, 4_000_000),
        };
        graph_strategy(spine, max_w)
    })
}

/// A random digraph of 2..=16 nodes (arcs stay one-way; no symmetry).
fn digraph_strategy() -> impl Strategy<Value = Graph> {
    (2usize..=16).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1..=60u32), 1..(3 * n)).prop_map(
            move |arcs| {
                let mut builder = GraphBuilder::new_directed(n);
                for (u, v, w) in arcs {
                    if u != v {
                        builder.add_arc(u, v, w);
                    }
                }
                builder.build()
            },
        )
    })
}

/// A random strongly connected digraph of 2..=16 nodes: the one-way ring
/// `0 → 1 → … → n-1 → 0` plus random one-way chords.
fn strongly_connected_digraph() -> impl Strategy<Value = Graph> {
    (2usize..=16).prop_flat_map(|n| {
        let ring = proptest::collection::vec(1..=60u32, n);
        let chords = proptest::collection::vec((0..n as u32, 0..n as u32, 1..=60u32), 0..(2 * n));
        (ring, chords).prop_map(move |(ring, chords)| {
            let mut builder = GraphBuilder::new_directed(n);
            for (i, w) in ring.into_iter().enumerate() {
                builder.add_arc(i as u32, ((i + 1) % n) as u32, w);
            }
            for (u, v, w) in chords {
                if u != v {
                    builder.add_arc(u, v, w);
                }
            }
            builder.build()
        })
    })
}

/// The directed diameter: the largest forward eccentricity.
fn exact_directed_diameter(graph: &Graph) -> Dist {
    (0..graph.num_nodes() as NodeId).map(|s| dijkstra(graph, s).eccentricity()).max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_iteration_brackets_the_exact_diameter_on_every_pool(
        graph in any_graph(),
        budget_sel in 0usize..3,
    ) {
        let exact = exact_diameter(&graph);
        // A generous budget guarantees convergence at tolerance 1.0; the
        // small budgets exercise honest early-stopping.
        let budget = [2, 6, 4 * graph.num_nodes().max(1)][budget_sel];
        let config = BoundsConfig::default().with_max_sssp(budget);

        let reference = with_pool(THREAD_COUNTS[0], || run(&graph, &config));
        prop_assert!(reference.lower <= exact, "final lb {} above {exact}", reference.lower);
        prop_assert!(reference.upper >= exact, "final ub {} below {exact}", reference.upper);
        if reference.converged {
            prop_assert_eq!(reference.lower, exact);
            prop_assert_eq!(reference.upper, exact);
        }
        // A component's lower bound never exceeds its own diameter, hence
        // never the global one — sound on every iteration of every trace.
        for it in &reference.iterations {
            prop_assert!(it.lower <= exact, "iteration lb {} above {exact}", it.lower);
        }
        // Upper bounds bracket the *component* diameter; on a connected
        // graph that is the global diameter, and the interval must also
        // tighten monotonically (one trace, one component).
        if ComponentSplit::compute(&graph).is_connected() {
            let mut prev_lower = 0;
            let mut prev_upper = cldiam_graph::INFINITY;
            for it in &reference.iterations {
                prop_assert!(it.upper >= exact, "iteration ub {} below {exact}", it.upper);
                prop_assert!(it.lower >= prev_lower, "lower bound regressed");
                prop_assert!(it.upper <= prev_upper, "upper bound regressed");
                prev_lower = it.lower;
                prev_upper = it.upper;
            }
        }

        for &threads in &THREAD_COUNTS[1..] {
            let outcome = with_pool(threads, || run(&graph, &config));
            prop_assert_eq!(&outcome, &reference, "bounds diverged at {} threads", threads);
        }
    }

    #[test]
    fn directed_iterations_bracket_the_exact_diameter_on_every_pool(
        graph in strongly_connected_digraph(),
        budget_sel in 0usize..3,
    ) {
        let exact = exact_directed_diameter(&graph);
        // Each iteration spends two SSSPs, a forward and a backward one.
        let budget = [2, 6, 4 * graph.num_nodes()][budget_sel];
        let config = BoundsConfig::default().with_max_sssp(budget);
        let run = || bounds_diameter_directed(&graph, &config, &CancelToken::never());

        let reference = with_pool(THREAD_COUNTS[0], run);
        prop_assert!(reference.upper != INFINITY, "no upper bound on a strongly connected input");
        prop_assert!(reference.lower <= exact, "final lb {} above {exact}", reference.lower);
        prop_assert!(reference.upper >= exact, "final ub {} below {exact}", reference.upper);
        if reference.converged {
            prop_assert_eq!(reference.lower, exact);
            prop_assert_eq!(reference.upper, exact);
        }
        let mut prev_lower = 0;
        let mut prev_upper = INFINITY;
        for it in &reference.iterations {
            prop_assert!(it.lower <= exact, "iteration lb {} above {exact}", it.lower);
            prop_assert!(it.upper >= exact, "iteration ub {} below {exact}", it.upper);
            prop_assert!(it.lower >= prev_lower, "lower bound regressed");
            prop_assert!(it.upper <= prev_upper, "upper bound regressed");
            prev_lower = it.lower;
            prev_upper = it.upper;
        }

        for &threads in &THREAD_COUNTS[1..] {
            let outcome = with_pool(threads, run);
            prop_assert_eq!(&outcome, &reference, "bounds diverged at {} threads", threads);
        }
    }

    #[test]
    fn backward_dijkstra_equals_forward_on_the_reversed_graph(
        graph in digraph_strategy(),
        source_sel in 0usize..16,
    ) {
        let source = (source_sel % graph.num_nodes()) as NodeId;
        let reversed = graph.reversed();
        let mut scratch = DijkstraScratch::new();
        scratch.run_directed(&graph, source, SsspDirection::Backward);
        let expected = dijkstra(&reversed, source);
        for v in 0..graph.num_nodes() as NodeId {
            prop_assert_eq!(
                scratch.distance(v),
                expected.dist[v as usize],
                "node {} (source {})", v, source
            );
        }
        prop_assert_eq!(scratch.eccentricity(), expected.eccentricity());
    }
}
