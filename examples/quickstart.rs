//! Quickstart: approximate the weighted diameter of a small graph.
//!
//! Builds a weighted graph from an inline edge list, runs the cluster-based
//! diameter approximation (`CL-DIAM`) and compares the estimate with the
//! exact diameter and with the SSSP-based 2-approximation baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cldiam::graph::edgelist::parse_edge_list;
use cldiam::prelude::*;
use cldiam::sssp::{exact_diameter, sssp_diameter_upper_bound, ComponentSplit};

fn main() {
    // A small weighted graph: two communities joined by a long bridge.
    let graph = parse_edge_list(
        "\
        0 1 3\n 1 2 4\n 2 0 5\n 1 3 2\n 3 4 6\n 4 5 1\n 5 3 2\n\
        4 6 40\n\
        6 7 3\n 7 8 2\n 8 6 4\n 8 9 5\n 9 10 1\n 10 6 2\n",
    )
    .expect("inline edge list is well formed");

    println!("graph: {} nodes, {} edges", graph.num_nodes(), graph.num_edges());

    // CL-DIAM: decompose into clusters, build the quotient graph, estimate.
    let config = ClusterConfig::default().with_tau(2).with_seed(42);
    let estimate = approximate_diameter(&graph, &config);
    println!("\nCL-DIAM estimate");
    println!("  upper bound          : {}", estimate.upper_bound);
    println!("  quotient diameter    : {}", estimate.quotient_diameter);
    println!("  clustering radius    : {}", estimate.radius);
    println!("  clusters             : {}", estimate.num_clusters);
    println!("  growing steps        : {}", estimate.growing_steps);
    println!("  MR rounds            : {}", estimate.metrics.rounds);
    println!("  work (updates+msgs)  : {}", estimate.metrics.work());

    // Baselines: exact diameter (feasible on a toy graph) and the SSSP bound.
    let exact = exact_diameter(&graph);
    let sssp_bound = sssp_diameter_upper_bound(&graph, 0, &ComponentSplit::compute(&graph));
    let lower = diameter_lower_bound(&graph, 4, 1);
    println!("\nreference values");
    println!("  exact diameter       : {exact}");
    println!("  SSSP 2-approximation : {sssp_bound}");
    println!("  sweep lower bound    : {lower}");
    println!(
        "\napproximation ratio: {:.4} (vs exact), {:.4} (vs lower bound)",
        estimate.ratio_against(exact),
        estimate.ratio_against(lower)
    );

    assert!(estimate.upper_bound >= exact, "CL-DIAM must never underestimate");
}
