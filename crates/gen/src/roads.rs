//! Synthetic road networks.
//!
//! The paper's road benchmarks (roads-USA, roads-CAL) come from the DIMACS
//! shortest-path challenge and cannot be redistributed here, so this module
//! generates a synthetic proxy with the same topological character: a sparse,
//! near-planar network with very high (weighted and unweighted) diameter, low
//! doubling dimension, positive integer weights that vary smoothly in space
//! (travel times), and average degree well below 3.
//!
//! The construction is a percolated grid: intersections sit on an `rows ×
//! cols` lattice; each lattice edge is kept with a fixed probability (above
//! the percolation threshold, so a giant component spans the map); edge
//! weights are Euclidean lengths of jittered node positions multiplied by a
//! smooth "terrain" factor, mimicking the spatially correlated travel times of
//! real road graphs. A sparse set of diagonal "shortcut" edges plays the role
//! of highways.
//!
//! `roads(S)` from Table 1 — "the cartesian product of a linear array of `S`
//! nodes … with roads-USA" — is provided by [`roads_product`].

use cldiam_graph::ops::cartesian_product;
use cldiam_graph::{Graph, GraphBuilder, NodeId, Weight};
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;

use crate::path::path;

/// Probability of keeping each lattice edge (above the bond-percolation
/// threshold 0.5 of the square lattice, so the giant component spans).
const KEEP_PROBABILITY: f64 = 0.72;
/// Probability of adding a diagonal shortcut at a lattice cell.
const SHORTCUT_PROBABILITY: f64 = 0.04;
/// Base length scale of one lattice step, in integer weight units.
const BASE_LENGTH: f64 = 400.0;

/// Generates a synthetic road network on an `rows × cols` lattice.
///
/// The graph may contain small disconnected islands (as real road extracts
/// do); callers interested in a connected instance should extract the largest
/// component via [`cldiam_graph::largest_component`].
pub fn road_network(rows: usize, cols: usize, seed: u64) -> Graph {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;

    // Jittered positions, in lattice units.
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            (r as f64 + rng.gen::<f64>() * 0.35, c as f64 + rng.gen::<f64>() * 0.35)
        })
        .collect();

    // Smooth terrain factor per coarse 8x8 block, interpolated by lookup.
    let block_rows = rows.div_ceil(8).max(1);
    let block_cols = cols.div_ceil(8).max(1);
    let terrain: Vec<f64> =
        (0..block_rows * block_cols).map(|_| 1.0 + 1.5 * rng.gen::<f64>()).collect();
    let terrain_at = |r: usize, c: usize| {
        terrain[(r / 8).min(block_rows - 1) * block_cols + (c / 8).min(block_cols - 1)]
    };

    let edge_weight =
        |ra: usize, ca: usize, rb: usize, cb: usize, rng: &mut Xoshiro256PlusPlus| -> Weight {
            let (xa, ya) = positions[ra * cols + ca];
            let (xb, yb) = positions[rb * cols + cb];
            let dist = ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt();
            let factor = 0.5 * (terrain_at(ra, ca) + terrain_at(rb, cb));
            let noise = 0.9 + 0.2 * rng.gen::<f64>();
            ((dist * factor * noise * BASE_LENGTH).round() as Weight).max(1)
        };

    let mut b = GraphBuilder::with_capacity(n, (2.6 * n as f64) as usize / 2);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols && rng.gen::<f64>() < KEEP_PROBABILITY {
                let w = edge_weight(r, c, r, c + 1, &mut rng);
                b.add_edge(id(r, c), id(r, c + 1), w);
            }
            if r + 1 < rows && rng.gen::<f64>() < KEEP_PROBABILITY {
                let w = edge_weight(r, c, r + 1, c, &mut rng);
                b.add_edge(id(r, c), id(r + 1, c), w);
            }
            if r + 1 < rows && c + 1 < cols && rng.gen::<f64>() < SHORTCUT_PROBABILITY {
                let w = edge_weight(r, c, r + 1, c + 1, &mut rng);
                b.add_edge(id(r, c), id(r + 1, c + 1), w);
            }
        }
    }
    b.build()
}

/// The paper's `roads(S)` family: the cartesian product of a unit-weight
/// linear array of `S` nodes with a road network (`≈ S · n_base` nodes).
pub fn roads_product(s: usize, base: &Graph) -> Graph {
    cartesian_product(&path(s, 1), base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_graph::largest_component;
    use cldiam_graph::stats::GraphStats;
    use cldiam_testkit::traversal;

    #[test]
    fn road_network_is_sparse() {
        let g = road_network(40, 40, 3);
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.nodes, 1600);
        assert!(
            stats.avg_degree > 1.8 && stats.avg_degree < 3.2,
            "avg degree {}",
            stats.avg_degree
        );
        assert!(stats.max_degree <= 8);
    }

    #[test]
    fn giant_component_spans_most_nodes() {
        let g = road_network(50, 50, 7);
        let (core, _) = largest_component(&g);
        assert!(core.num_nodes() > g.num_nodes() * 7 / 10, "giant component {}", core.num_nodes());
    }

    #[test]
    fn road_network_has_high_hop_diameter() {
        let g = road_network(40, 40, 5);
        let (core, _) = largest_component(&g);
        let d = traversal::double_sweep_hop_diameter(&core, 0);
        // A percolated 40x40 lattice must have hop diameter at least the grid
        // dimension; social-like graphs would be < 15.
        assert!(d >= 40, "hop diameter {d}");
    }

    #[test]
    fn weights_are_positive_and_spatially_bounded() {
        let g = road_network(20, 20, 11);
        let stats = GraphStats::compute(&g);
        assert!(stats.min_weight >= 1);
        // Lattice neighbours are ~1 unit apart: weights stay within a small
        // multiple of the base length.
        assert!(stats.max_weight <= (6.0 * BASE_LENGTH) as Weight);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(road_network(15, 15, 1), road_network(15, 15, 1));
        assert_ne!(road_network(15, 15, 1), road_network(15, 15, 2));
    }

    #[test]
    fn roads_product_scales_nodes_linearly() {
        let base = road_network(10, 10, 3);
        let g = roads_product(3, &base);
        assert_eq!(g.num_nodes(), 3 * base.num_nodes());
        // Product edge count: 3 * m_base + 2 * n_base.
        assert_eq!(g.num_edges(), 3 * base.num_edges() + 2 * base.num_nodes());
    }

    #[test]
    fn roads_product_with_s_one_is_base() {
        let base = road_network(8, 8, 3);
        let g = roads_product(1, &base);
        assert_eq!(g.num_nodes(), base.num_nodes());
        assert_eq!(g.num_edges(), base.num_edges());
    }
}
