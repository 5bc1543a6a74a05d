//! Hop-count metrics: the unweighted diameter `Ψ(G)`.
//!
//! The Δ-stepping baseline is lower-bounded by the unweighted diameter
//! `Ψ(G)` under linear space. Computing it exactly requires all-pairs
//! information, so the estimator below samples start nodes.

use cldiam_graph::traversal::double_sweep_hop_diameter;
use cldiam_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;
use rayon::prelude::*;

/// Estimates the unweighted diameter `Ψ(G)` with double BFS sweeps from
/// `samples` random start nodes (a lower bound that is near-exact on the
/// high-diameter graph classes where `Ψ` matters).
pub fn unweighted_diameter(graph: &Graph, samples: usize, seed: u64) -> u32 {
    let n = graph.num_nodes();
    if n == 0 {
        return 0;
    }
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let starts: Vec<NodeId> = (0..samples.max(1)).map(|_| rng.gen_range(0..n) as NodeId).collect();
    starts.par_iter().map(|&s| double_sweep_hop_diameter(graph, s)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_gen::{mesh, WeightModel};

    #[test]
    fn unweighted_diameter_of_mesh() {
        // Hop diameter of an S x S mesh is 2(S - 1), independent of weights.
        let g = mesh(7, WeightModel::UniformUnit, 3);
        assert_eq!(unweighted_diameter(&g, 4, 9), 12);
    }

    #[test]
    fn empty_graph_estimates_are_zero() {
        let g = cldiam_graph::Graph::empty(0);
        assert_eq!(unweighted_diameter(&g, 3, 0), 0);
    }
}
