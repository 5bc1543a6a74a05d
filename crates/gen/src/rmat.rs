//! R-MAT recursive matrix graphs (Chakrabarti, Zhan, Faloutsos, SDM 2004).
//!
//! `R-MAT(S)` in the paper has `2^S` nodes and `16 · 2^S` edges, a power-law
//! degree distribution and small diameter — a stand-in for social networks
//! such as twitter. Edge weights follow a uniform `(0, 1]` distribution.

use cldiam_graph::{Graph, GraphBuilder, NodeId};
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;
use rayon::prelude::*;

use crate::weights::WeightModel;

/// Number of deterministic chunks edge generation is split into.
///
/// Each chunk derives its own RNG stream from `(seed, chunk index)`, so this
/// constant is part of the generator's output format: changing it changes
/// every generated graph. It is deliberately a generator-owned constant —
/// **not** `rayon::current_num_threads()`, which now reports real hardware
/// threads — so graphs are bit-identical on any machine at any thread count.
/// (The value matches the simulated thread count of the PR-1 sequential
/// executor, preserving all previously generated graphs.)
pub const GEN_CHUNKS: usize = 8;

/// Parameters of the R-MAT recursion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// `log2` of the number of nodes.
    pub scale: u32,
    /// Number of (directed, pre-symmetrization) edges generated per node.
    pub edge_factor: usize,
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Per-level multiplicative noise applied to the quadrant probabilities,
    /// which avoids the strictly self-similar degree plateaus of noiseless
    /// R-MAT.
    pub noise: f64,
}

impl RmatParams {
    /// The paper's configuration: `2^scale` nodes, `16 · 2^scale` edges, and
    /// the standard skewed quadrant probabilities `(0.57, 0.19, 0.19, 0.05)`.
    pub fn paper(scale: u32) -> Self {
        RmatParams { scale, edge_factor: 16, a: 0.57, b: 0.19, c: 0.19, noise: 0.1 }
    }

    /// Probability of the bottom-right quadrant.
    pub fn d(&self) -> f64 {
        (1.0 - self.a - self.b - self.c).max(0.0)
    }
}

/// Generates an R-MAT graph with weights drawn from `model`.
///
/// The returned graph is symmetrized (the paper symmetrizes twitter the same
/// way), has self loops removed and parallel edges collapsed, so the final
/// undirected edge count is somewhat below `edge_factor · 2^scale`.
pub fn rmat(params: RmatParams, model: WeightModel, seed: u64) -> Graph {
    let n = 1usize << params.scale;
    let target_edges = n.saturating_mul(params.edge_factor);

    // Generate edge endpoints in parallel chunks, each with an independent
    // deterministic stream derived from (seed, chunk index).
    let chunks = GEN_CHUNKS;
    let per_chunk = target_edges.div_ceil(chunks);
    let edge_lists: Vec<Vec<(NodeId, NodeId)>> = (0..chunks)
        .into_par_iter()
        .map(|chunk| {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(
                seed ^ (chunk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let count = per_chunk.min(target_edges.saturating_sub(chunk * per_chunk));
            let mut edges = Vec::with_capacity(count);
            for _ in 0..count {
                edges.push(sample_edge(&params, &mut rng));
            }
            edges
        })
        .collect();

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed.wrapping_add(1));
    let mut builder = GraphBuilder::with_capacity(n, target_edges);
    for edges in edge_lists {
        for (u, v) in edges {
            builder.add_edge(u, v, model.sample(&mut rng, 1));
        }
    }
    builder.build()
}

/// Draws one edge by descending the recursion one level per bit: at each
/// level the jittered quadrant probabilities `a, b, c, d` split `[0, total)`
/// and one draw `r` picks the quadrant, `a` top-left, `b` top-right (`col`
/// bit), `c` bottom-left (`row` bit), `d` bottom-right (both bits).
///
/// The quadrant is chosen without a data-dependent branch: the three
/// comparisons of `r` against the f64 partial sums `a`, `a + b` and
/// `a + b + c` are combined with bitwise operators into the two bits. The
/// draws, the sums and their order are those of an `if r < a … else if`
/// chain, and `r` is finite, so the edges are the chain's too; the
/// fingerprints in `tests/generator_fingerprints.rs` pin them.
fn sample_edge<R: Rng>(params: &RmatParams, rng: &mut R) -> (NodeId, NodeId) {
    let (mut row, mut col) = (0u64, 0u64);
    let d = params.d();
    for level in (0..params.scale).rev() {
        // Multiplicative noise, renormalized.
        let mut jitter = |p: f64| p * (1.0 - params.noise + 2.0 * params.noise * rng.gen::<f64>());
        let (a, b, c, dd) = (jitter(params.a), jitter(params.b), jitter(params.c), jitter(d));
        let total = a + b + c + dd;
        let r = rng.gen::<f64>() * total;
        let ab = a + b;
        let (past_a, past_ab, past_abc) = (r >= a, r >= ab, r >= ab + c);
        row |= u64::from(past_a & past_ab) << level;
        col |= u64::from(past_a & (!past_ab | past_abc)) << level;
    }
    (row as NodeId, col as NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_graph::stats::GraphStats;

    #[test]
    fn paper_params_sum_to_one() {
        let p = RmatParams::paper(10);
        assert!((p.a + p.b + p.c + p.d() - 1.0).abs() < 1e-9);
        assert_eq!(p.edge_factor, 16);
    }

    #[test]
    fn node_count_is_power_of_two() {
        let g = rmat(RmatParams::paper(8), WeightModel::Unit, 1);
        assert_eq!(g.num_nodes(), 256);
        // Deduplication removes some edges but the bulk must remain.
        assert!(g.num_edges() > 256 * 4, "edges: {}", g.num_edges());
        assert!(g.num_edges() <= 256 * 16);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = RmatParams::paper(7);
        assert_eq!(rmat(p, WeightModel::UniformUnit, 3), rmat(p, WeightModel::UniformUnit, 3));
        assert_ne!(rmat(p, WeightModel::UniformUnit, 3), rmat(p, WeightModel::UniformUnit, 4));
    }

    #[test]
    fn generation_is_independent_of_thread_count() {
        // The chunk count is GEN_CHUNKS, never the pool size, so the same
        // seed yields the same graph no matter how many workers execute it.
        let p = RmatParams::paper(7);
        let baseline = rmat(p, WeightModel::UniformUnit, 3);
        for threads in [1usize, 3, 8] {
            let pool =
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool");
            let graph = pool.install(|| rmat(p, WeightModel::UniformUnit, 3));
            assert_eq!(graph, baseline, "{threads} threads");
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = rmat(RmatParams::paper(10), WeightModel::Unit, 7);
        let stats = GraphStats::compute(&g);
        // A power-law-ish graph has a hub whose degree dwarfs the average.
        assert!(
            stats.max_degree as f64 > 10.0 * stats.avg_degree,
            "max {} avg {}",
            stats.max_degree,
            stats.avg_degree
        );
    }

    #[test]
    fn small_diameter_of_largest_component() {
        let g = rmat(RmatParams::paper(10), WeightModel::Unit, 7);
        let (core, _) = cldiam_graph::largest_component(&g);
        // The giant component should cover most nodes and have a tiny hop
        // diameter, like the paper's social graphs (Ψ ≈ 9).
        assert!(core.num_nodes() > g.num_nodes() / 2);
        let hop_diam = cldiam_testkit::traversal::double_sweep_hop_diameter(&core, 0);
        assert!(hop_diam <= 12, "hop diameter {hop_diam}");
    }
}
