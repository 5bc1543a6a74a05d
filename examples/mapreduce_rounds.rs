//! Running the Δ-growing step as literal MapReduce rounds.
//!
//! The production code path uses a shared-memory parallel loop and only
//! *charges* the MapReduce cost model; this example executes the same growth
//! on the simulated key-value engine of the dev-only `cldiam-testkit` crate
//! (hash-partitioned machines, per-key reducers) and prints the per-round
//! shuffle statistics, to make the paper's "O(1) rounds per growing step"
//! mapping concrete.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example mapreduce_rounds
//! ```

use cldiam::gen::{mesh, WeightModel};
use cldiam_core::GrowState;
use cldiam_testkit::{mr_impl::mr_partial_growth, MrConfig, MrEngine};

fn main() {
    let graph = mesh(48, WeightModel::UniformUnit, 21);
    println!("mesh(48): {} nodes, {} edges", graph.num_nodes(), graph.num_edges());

    let engine = MrEngine::new(MrConfig::with_machines(8));
    let mut state = GrowState::new(graph.num_nodes());
    // Four centers spread over the mesh.
    for &c in &[0, 47, 48 * 47, 48 * 48 - 1] {
        state.set_center(c);
    }

    let threshold = 8 * u64::from(cldiam::graph::WEIGHT_SCALE);
    let rounds = mr_partial_growth(&engine, &graph, threshold, &mut state);
    let covered = state.center.iter().filter(|&&c| c != cldiam_core::NO_CENTER).count();

    println!("\ngrowth finished after {rounds} MapReduce rounds; {covered} nodes covered");
    println!("aggregate cost: {}", engine.metrics());

    println!("\nper-round shuffle statistics (first 10 rounds):");
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>10}",
        "round", "input pairs", "output pairs", "peak machine", "ML ok?"
    );
    for (i, round) in engine.history().iter().enumerate().take(10) {
        let peak = round.machine_loads.iter().map(|l| l.items).max().unwrap_or(0);
        println!(
            "{:>6} {:>12} {:>12} {:>14} {:>10}",
            i + 1,
            round.input_items,
            round.output_items,
            peak,
            if round.local_memory_exceeded { "exceeded" } else { "yes" }
        );
    }
}
