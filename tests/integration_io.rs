//! End-to-end ingestion: the bundled fixtures flow from file to diameter
//! estimate, snapshots round-trip, and parsing is thread-count independent.

use proptest::prelude::*;

use cldiam::graph::io::{binary, dimacs, edgelist};
use cldiam::graph::{
    detect_format, largest_component, load_graph, parse_snapshot_bytes, read_snapshot_file,
    FileFormat, Graph, SnapshotGraph, SnapshotOptions,
};
use cldiam::prelude::*;
use cldiam::sssp::{
    diameter_lower_bound, exact_diameter, sssp_diameter_upper_bound, ComponentSplit,
};

const ROADS_GR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/roads.gr");
const SOCIAL_TSV: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/social.tsv");
const ROADS_V1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/roads-v1.cldg");

#[path = "../crates/graph/tests/support/v1_image.rs"]
mod v1_image;

fn v1_bytes(graph: &Graph) -> Vec<u8> {
    v1_image::v1_image(graph.offsets(), graph.targets(), graph.weights())
}

#[test]
fn dimacs_fixture_flows_to_a_diameter_estimate() {
    let raw = load_graph(ROADS_GR).expect("fixture parses");
    assert_eq!(raw.num_nodes(), 14);
    assert_eq!(raw.num_edges(), 19);
    // The fixture carries a detached 2-node spur, as real datasets do.
    assert!(!cldiam::graph::connected_components(&raw).is_connected());
    let (graph, _) = largest_component(&raw);
    assert_eq!(graph.num_nodes(), 12);

    let config = ClusterConfig::default().with_tau(4).with_seed(1);
    let estimate = approximate_diameter(&graph, &config);
    let exact = exact_diameter(&graph);
    let lower = diameter_lower_bound(&graph, 4, 1);
    assert!(estimate.upper_bound >= exact, "estimate {} < exact {exact}", estimate.upper_bound);
    assert!(lower <= exact);
    assert!(estimate.upper_bound > 0);
}

#[test]
fn snap_fixture_flows_to_a_diameter_estimate() {
    let graph = load_graph(SOCIAL_TSV).expect("fixture parses");
    assert_eq!(graph.num_nodes(), 12);
    assert_eq!(graph.num_edges(), 17);
    // Unweighted SNAP lines default to weight 1.
    assert_eq!(graph.edge_weight(0, 1), Some(1));
    let estimate = approximate_diameter(&graph, &ClusterConfig::default().with_tau(4));
    assert!(estimate.upper_bound >= exact_diameter(&graph));
}

#[test]
fn fixture_formats_are_auto_detected() {
    let head = std::fs::read(ROADS_GR).unwrap();
    assert_eq!(detect_format(ROADS_GR.as_ref(), &head), FileFormat::Dimacs);
    let head = std::fs::read(SOCIAL_TSV).unwrap();
    assert_eq!(detect_format(SOCIAL_TSV.as_ref(), &head), FileFormat::EdgeList);
}

#[test]
fn fixtures_survive_disconnection_in_the_sssp_bounds() {
    // The raw (unextracted) DIMACS fixture is disconnected: the SSSP bounds
    // must bracket the per-component diameter from every source.
    let raw = load_graph(ROADS_GR).unwrap();
    let exact = exact_diameter(&raw);
    let split = ComponentSplit::compute(&raw);
    for source in [0, 12, 13] {
        assert!(sssp_diameter_upper_bound(&raw, source, &split) >= exact, "source {source}");
    }
    for seed in 0..4 {
        assert!(diameter_lower_bound(&raw, 4, seed) <= exact);
    }
}

#[test]
fn binary_snapshot_round_trips_the_fixtures() {
    for path in [ROADS_GR, SOCIAL_TSV] {
        let graph = load_graph(path).unwrap();
        assert_eq!(binary::parse_binary(&v1_bytes(&graph)).unwrap(), graph, "{path}");
    }
}

/// The committed v1 image of `roads.gr` is the one v1 file no test builds:
/// every load path must still read it as version 1 and the same graph.
#[test]
fn committed_v1_snapshot_loads_on_every_path() {
    let expected = SnapshotGraph::Dense(load_graph(ROADS_GR).unwrap());
    let buffered = parse_snapshot_bytes(&std::fs::read(ROADS_V1).unwrap()).unwrap();
    assert_eq!((buffered.version, &buffered.graph), (1, &expected));
    for mmap in [false, true] {
        let snap = read_snapshot_file(ROADS_V1, &SnapshotOptions { mmap, verify: true }).unwrap();
        assert_eq!((snap.version, &snap.graph), (1, &expected), "mmap: {mmap}");
    }
}

#[test]
fn parallel_parsing_is_identical_across_thread_counts() {
    let bytes = std::fs::read(ROADS_GR).unwrap();
    // A larger synthetic body to actually spread across chunks.
    let mut big = String::from("# big\n");
    for i in 0..3_000u32 {
        big.push_str(&format!("{}\t{}\t{}\n", i, (i * 7 + 1) % 3_001, 1 + i % 50));
    }
    let with_pool = |threads: usize, op: &(dyn Fn() -> Graph + Sync)| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(op)
    };
    for parse in [
        &(|| dimacs::parse_dimacs_bytes(&bytes).unwrap()) as &(dyn Fn() -> Graph + Sync),
        &(|| edgelist::parse_edge_list(&big).unwrap()),
    ] {
        let reference = with_pool(1, parse);
        for threads in [2, 4, 8] {
            assert_eq!(with_pool(threads, parse), reference, "diverged at {threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// text → Graph → binary snapshot → Graph is the identity, for arbitrary
    /// graphs (isolated nodes, parallel-edge collapses and all).
    #[test]
    fn text_and_binary_round_trip_identity(
        n in 1usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40, 1u32..1000), 0..120),
    ) {
        let mut builder = GraphBuilder::new(n);
        for (u, v, w) in edges {
            if u != v {
                builder.add_edge(u % n as u32, v % n as u32, w);
            }
        }
        let graph = builder.build();

        // Edge-list text round trip.
        let text: String = graph.edges().map(|(u, v, w)| format!("{u} {v} {w}\n")).collect();
        let mut reparsed = edgelist::parse_edge_list_bytes(text.as_bytes()).unwrap();
        // The text form drops trailing isolated nodes (no edges mention
        // them); pad the builder the way a consumer with a node count would.
        if reparsed.num_nodes() < graph.num_nodes() {
            let mut b = GraphBuilder::new(graph.num_nodes());
            b.extend_edges(reparsed.edges());
            reparsed = b.build();
        }
        prop_assert_eq!(&reparsed, &graph);

        // DIMACS text round trip (header keeps isolated nodes exactly).
        let mut gr = format!("p sp {} {}\n", graph.num_nodes(), graph.num_arcs());
        for (u, v, w) in graph.edges() {
            gr += &format!("a {} {} {w}\na {} {} {w}\n", u + 1, v + 1, v + 1, u + 1);
        }
        prop_assert_eq!(&dimacs::parse_dimacs_bytes(gr.as_bytes()).unwrap(), &graph);

        // Binary snapshot round trip.
        prop_assert_eq!(&binary::parse_binary(&v1_bytes(&graph)).unwrap(), &graph);
    }
}
