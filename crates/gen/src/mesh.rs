//! Mesh topologies.
//!
//! `mesh(S)` in the paper is an `S × S` square mesh with `S²` nodes and
//! `2S(S − 1)` edges; it is included because its doubling dimension is known
//! (`b = 2`), so Corollary 1 applies. Weights are drawn from a
//! [`WeightModel`], uniform `(0, 1]` in the paper's Table 1 and bimodal in the
//! §5 initial-`Δ` experiment.

use cldiam_graph::{Graph, GraphBuilder, NodeId};
use rand::SeedableRng;
use rand_xoshiro::Xoshiro256PlusPlus;

use crate::weights::WeightModel;

/// An `side × side` square mesh with weights drawn from `model`.
pub fn mesh(side: usize, model: WeightModel, seed: u64) -> Graph {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let n = side * side;
    let id = |r: usize, c: usize| (r * side + c) as NodeId;
    let mut b = GraphBuilder::with_capacity(n, 2 * side * side.saturating_sub(1));
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                b.add_edge(id(r, c), id(r, c + 1), model.sample(&mut rng, 1));
            }
            if r + 1 < side {
                b.add_edge(id(r, c), id(r + 1, c), model.sample(&mut rng, 1));
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_graph::connected_components;

    #[test]
    fn mesh_counts_match_paper_formula() {
        for side in [2usize, 5, 16] {
            let g = mesh(side, WeightModel::Unit, 0);
            assert_eq!(g.num_nodes(), side * side);
            assert_eq!(g.num_edges(), 2 * side * (side - 1));
        }
    }

    #[test]
    fn mesh_is_connected() {
        let g = mesh(10, WeightModel::UniformUnit, 3);
        assert!(connected_components(&g).is_connected());
    }

    #[test]
    fn mesh_corner_and_interior_degrees() {
        let g = mesh(4, WeightModel::Unit, 0);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(5), 4); // interior (row 1, col 1)
    }

    #[test]
    fn mesh_is_deterministic_in_seed() {
        assert_eq!(mesh(6, WeightModel::UniformUnit, 9), mesh(6, WeightModel::UniformUnit, 9));
        assert_ne!(mesh(6, WeightModel::UniformUnit, 9), mesh(6, WeightModel::UniformUnit, 10));
    }
}
