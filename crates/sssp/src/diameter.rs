//! SSSP-based diameter bounds.
//!
//! * Upper bound: twice the eccentricity of any node (the paper's baseline,
//!   computed with Δ-stepping in the experiments).
//! * Lower bound: the largest eccentricity seen while iterating "run SSSP,
//!   jump to the farthest node reached, repeat" — exactly the procedure the
//!   paper uses to normalize the approximation ratios of Table 2.
//! * Exact diameter: all-pairs Dijkstra (parallel over sources), tractable for
//!   the small graphs used in tests and for quotient graphs.
//!
//! All of the iterated-SSSP drivers here run through the batched multi-source
//! engine of [`crate::batch`]: one [`ScratchPool`] per call site, so the many
//! Dijkstras of an all-pairs sweep or a sweep chain share reusable
//! distance/heap state instead of allocating per source.

use cldiam_graph::{
    component_subgraphs, connected_components, ComponentLabels, Dist, Graph, NeighborSource,
    NodeId, INFINITY,
};
use rand::{Rng, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;
use rayon::prelude::*;

use crate::batch::{batched_eccentricities, DijkstraScratch, ScratchPool};

/// Weighted eccentricity of `source`: the largest finite distance from it.
pub fn eccentricity<G: NeighborSource>(graph: &G, source: NodeId) -> Dist {
    let mut scratch = DijkstraScratch::new();
    scratch.run(graph, source);
    scratch.eccentricity()
}

/// A connected-component split computed once and shared by every bound
/// driver of a run.
///
/// [`diameter_lower_bound`] and [`sssp_diameter_upper_bound`] each need the
/// per-component subgraphs; computing the `O(n + m)` union-find and split in
/// each of them made a single CLI run pay it twice (three times with the
/// bounds engine). Callers that run several drivers compute one split with
/// [`ComponentSplit::compute`] and pass it to the `*_with_split` variants.
#[derive(Clone, Debug)]
pub struct ComponentSplit {
    /// The component labelling of the original graph.
    pub labels: ComponentLabels,
    /// Non-singleton components as standalone graphs with their ascending
    /// `new id -> original id` mappings ([`component_subgraphs`] order).
    /// Empty when the graph is connected — drivers then run on the original
    /// graph directly, avoiding a full copy.
    pub parts: Vec<(Graph, Vec<NodeId>)>,
}

impl ComponentSplit {
    /// Labels the components and extracts the non-singleton subgraphs (the
    /// latter only when there are at least two components).
    pub fn compute<G: NeighborSource>(graph: &G) -> Self {
        let labels = connected_components(graph);
        let parts =
            if labels.count <= 1 { Vec::new() } else { component_subgraphs(graph, &labels) };
        ComponentSplit { labels, parts }
    }

    /// `true` when every node is in one component (parts are then empty).
    pub fn is_connected(&self) -> bool {
        self.labels.count <= 1
    }
}

/// The subgraph-local id of `node` within a component's ascending
/// `new id -> original id` mapping.
///
/// # Panics
///
/// Panics when `node` is not a member of the mapping: a miss here means the
/// caller routed a sweep start into the wrong component, and silently mapping
/// it to local id 0 (as an earlier revision did) would mask that mapping bug
/// as a mere wrong-source sweep.
fn local_id(mapping: &[NodeId], node: NodeId) -> NodeId {
    mapping
        .binary_search(&node)
        .map(|i| i as NodeId)
        .unwrap_or_else(|_| panic!("node {node} is not a member of this component's mapping"))
}

/// The SSSP 2-approximation of the diameter: the true diameter lies in
/// `[ecc, 2 · ecc]` for the eccentricity of any node of the component that
/// realizes it.
///
/// The diameter of a possibly-disconnected graph is the largest distance
/// between two nodes *in the same component* (the paper's convention), so a
/// sweep from `source` alone — whose eccentricity ignores unreachable nodes —
/// would silently under-bound whenever the diameter lives in another
/// component. One sweep is therefore run per non-singleton component (from
/// `source` for its own component, from the smallest member node for every
/// other, in parallel) and the bounds are combined with `max`. Each sweep
/// runs on the component's own subgraph ([`component_subgraphs`], `O(n + m)`
/// to split), so fragmented graphs pay for their components' sizes, not
/// `components × n`.
pub fn sssp_diameter_upper_bound<G: NeighborSource>(graph: &G, source: NodeId) -> Dist {
    sssp_diameter_upper_bound_with_split(graph, source, &ComponentSplit::compute(graph))
}

/// [`sssp_diameter_upper_bound`] over a precomputed [`ComponentSplit`],
/// letting several bound drivers share one split.
pub fn sssp_diameter_upper_bound_with_split<G: NeighborSource>(
    graph: &G,
    source: NodeId,
    split: &ComponentSplit,
) -> Dist {
    if split.is_connected() {
        return eccentricity(graph, source).saturating_mul(2);
    }
    let source_label = split.labels.labels[source as usize];
    let pool = ScratchPool::new();
    split
        .parts
        .par_iter()
        .map(|(sub, mapping)| {
            let start = if split.labels.labels[mapping[0] as usize] == source_label {
                local_id(mapping, source)
            } else {
                0
            };
            pool.with(|scratch| {
                scratch.run(sub, start);
                scratch.eccentricity().saturating_mul(2)
            })
        })
        .max()
        .unwrap_or(0)
}

/// Lower bound on the diameter via iterated farthest-node sweeps: run
/// Dijkstra, move to the farthest node reached and repeat, keeping the
/// largest eccentricity observed (usually very tight on road networks and
/// meshes).
///
/// On a disconnected graph a single sweep chain can never leave its starting
/// component, and a uniformly random start may land in a tiny component and
/// report a uselessly loose bound. One chain is therefore run per
/// non-singleton component, all in parallel on the components' own subgraphs
/// ([`component_subgraphs`], `O(n + m)` to split): the largest component's
/// chain starts at the random node (relocated into it if the draw landed
/// elsewhere), every other chain at its component's smallest member, and
/// each chain gets the full `sweeps` budget. Total cost is the split plus
/// `O(sweeps)` Dijkstras per component *at that component's size*, so
/// fragmented raw datasets stay tractable. The chains share one scratch pool,
/// and each chain reuses a single scratch across its sweeps.
pub fn diameter_lower_bound<G: NeighborSource>(graph: &G, sweeps: usize, seed: u64) -> Dist {
    if graph.num_nodes() == 0 {
        return 0;
    }
    diameter_lower_bound_with_split(graph, sweeps, seed, &ComponentSplit::compute(graph))
}

/// [`diameter_lower_bound`] over a precomputed [`ComponentSplit`], letting
/// several bound drivers share one split.
pub fn diameter_lower_bound_with_split<G: NeighborSource>(
    graph: &G,
    sweeps: usize,
    seed: u64,
    split: &ComponentSplit,
) -> Dist {
    if graph.num_nodes() == 0 {
        return 0;
    }
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let random_start = rng.gen_range(0..graph.num_nodes()) as NodeId;
    if split.is_connected() {
        let mut scratch = DijkstraScratch::new();
        return sweep_chain(graph, random_start, sweeps, &mut scratch).0;
    }
    let largest = split.labels.largest().expect("non-empty graph has a largest component");
    let in_largest = |u: NodeId| split.labels.labels[u as usize] == largest;
    let pool = ScratchPool::new();
    split
        .parts
        .par_iter()
        .map(|(sub, mapping)| {
            let start = if in_largest(mapping[0]) && in_largest(random_start) {
                local_id(mapping, random_start)
            } else {
                0
            };
            pool.with(|scratch| sweep_chain(sub, start, sweeps, scratch).0)
        })
        .max()
        .unwrap_or(0)
}

/// One iterated farthest-node sweep chain from `start` (stays within the
/// start's component by construction), reusing `scratch` across its sweeps.
/// Returns the best eccentricity seen and the number of sweeps actually run.
///
/// The chain stops as soon as the farthest node is one it has already swept
/// from — not merely when it equals the current node. On a symmetric graph
/// the two endpoints of the same shortest path are each other's farthest
/// node, and the endpoint-only test of an earlier revision made the chain
/// ping-pong between them, burning the whole sweep budget on duplicate
/// Dijkstras that could not improve the bound. The repeat check uses the
/// scratch's seen-bitmap (`O(1)` per sweep); the `Vec::contains` scan of an
/// earlier revision was quadratic in the budget, harmless at 4 sweeps but
/// not at the budgets the anytime bounds engine runs with.
fn sweep_chain<G: NeighborSource>(
    graph: &G,
    start: NodeId,
    sweeps: usize,
    scratch: &mut DijkstraScratch,
) -> (Dist, usize) {
    let mut current = start;
    let mut best = 0;
    let budget = sweeps.max(1);
    let mut used = 0;
    scratch.sweep_clear();
    // Chain starts already swept from.
    scratch.sweep_mark(start);
    for _ in 0..budget {
        scratch.run(graph, current);
        used += 1;
        let ecc = scratch.eccentricity();
        if ecc > best {
            best = ecc;
        }
        let farthest = scratch.farthest_node();
        if !scratch.sweep_mark(farthest) {
            break;
        }
        current = farthest;
    }
    (best, used)
}

/// Public driver for one sweep chain: the repo's iterated farthest-node
/// lower bound from an explicit start, reporting the bound and the number of
/// SSSPs spent. Used by the anytime bounds engine to seed and refresh its
/// diameter lower bound; see [`diameter_lower_bound`] for the randomized
/// per-component driver.
pub fn sweep_chain_lower_bound<G: NeighborSource>(
    graph: &G,
    start: NodeId,
    sweeps: usize,
    scratch: &mut DijkstraScratch,
) -> (Dist, usize) {
    sweep_chain(graph, start, sweeps, scratch)
}

/// Exact weighted diameter by all-pairs Dijkstra, parallel over source nodes
/// through the batched multi-source driver.
///
/// Defined as the paper does for possibly-disconnected graphs: the largest
/// distance between two nodes *in the same connected component*. Intended for
/// small graphs (tests, quotient graphs); the cost is `O(n · m log n)`.
pub fn exact_diameter<G: NeighborSource>(graph: &G) -> Dist {
    all_eccentricities(graph).into_iter().max().unwrap_or(0)
}

/// Exact eccentricity of every node (batched all-pairs Dijkstra); useful for
/// ablations and for validating approximation ratios in tests.
pub fn all_eccentricities<G: NeighborSource>(graph: &G) -> Vec<Dist> {
    let sources: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
    batched_eccentricities(graph, &sources)
}

/// `true` if `dist` contains a finite entry for every node — i.e. the source
/// reaches the whole graph.
pub fn reaches_all(dist: &[Dist]) -> bool {
    dist.iter().all(|&d| d != INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_gen::{mesh, path, road_network, WeightModel};
    use cldiam_graph::largest_component;

    #[test]
    fn path_diameter_is_exact() {
        let g = path(10, 3);
        assert_eq!(exact_diameter(&g), 27);
        assert_eq!(eccentricity(&g, 0), 27);
        assert_eq!(eccentricity(&g, 5), 15);
    }

    #[test]
    fn upper_bound_is_at_least_diameter() {
        let g = mesh(9, WeightModel::UniformUnit, 4);
        let exact = exact_diameter(&g);
        for source in [0, 40, 80] {
            let ub = sssp_diameter_upper_bound(&g, source);
            assert!(ub >= exact);
            assert!(ub <= 2 * exact);
        }
    }

    #[test]
    fn lower_bound_never_exceeds_diameter_and_is_tight_on_mesh() {
        let g = mesh(9, WeightModel::UniformUnit, 4);
        let exact = exact_diameter(&g);
        let lb = diameter_lower_bound(&g, 4, 7);
        assert!(lb <= exact);
        // Farthest-node sweeps are essentially exact on meshes.
        assert!(lb * 10 >= exact * 9, "lb {lb} vs exact {exact}");
    }

    #[test]
    fn lower_bound_on_road_network() {
        let (g, _) = largest_component(&road_network(15, 15, 3));
        let exact = exact_diameter(&g);
        let lb = diameter_lower_bound(&g, 4, 1);
        assert!(lb <= exact && lb > 0);
        assert!(lb * 10 >= exact * 8, "lb {lb} vs exact {exact}");
    }

    #[test]
    fn sweep_chain_stops_on_a_repeated_chain_start() {
        // Regression: on a symmetric path the two endpoints are each other's
        // farthest node. The old `farthest == current` test never fired, so a
        // chain starting in the middle ping-ponged endpoint-to-endpoint for
        // the whole budget. It must now stop after sweeping each endpoint
        // once: mid, right endpoint, left endpoint — three sweeps.
        let g = path(9, 5);
        let mut scratch = DijkstraScratch::new();
        let (best, used) = sweep_chain(&g, 4, 100, &mut scratch);
        assert_eq!(best, 8 * 5);
        assert_eq!(used, 3, "chain burned {used} sweeps instead of stopping on the repeat");
        // Starting at an endpoint: endpoint, other endpoint, stop.
        let (best_end, used_end) = sweep_chain(&g, 0, 100, &mut scratch);
        assert_eq!(best_end, 8 * 5);
        assert_eq!(used_end, 2);
    }

    #[test]
    fn sweep_chain_still_honors_the_budget() {
        let (g, _) = largest_component(&road_network(12, 12, 3));
        let mut scratch = DijkstraScratch::new();
        let (_, used) = sweep_chain(&g, 0, 2, &mut scratch);
        assert!(used <= 2);
    }

    #[test]
    fn local_id_maps_members_in_order() {
        let mapping = [3u32, 7, 9];
        assert_eq!(local_id(&mapping, 3), 0);
        assert_eq!(local_id(&mapping, 7), 1);
        assert_eq!(local_id(&mapping, 9), 2);
    }

    #[test]
    #[should_panic(expected = "not a member of this component's mapping")]
    fn local_id_panics_on_a_non_member() {
        // Regression: a non-member used to map silently to local id 0, hiding
        // component-routing bugs behind a wrong-source sweep.
        let mapping = [3u32, 7, 9];
        local_id(&mapping, 8);
    }

    #[test]
    fn disconnected_graph_uses_per_component_diameter() {
        let g = cldiam_graph::Graph::from_edges(5, &[(0, 1, 5), (2, 3, 2), (3, 4, 2)]);
        assert_eq!(exact_diameter(&g), 5);
    }

    #[test]
    fn upper_bound_holds_with_isolated_source() {
        // Regression: node 0 is isolated, the long path lives elsewhere. The
        // old implementation returned 2·ecc(0) = 0, *below* the true diameter
        // of 30 — violating the upper-bound contract.
        let g = cldiam_graph::Graph::from_edges(5, &[(1, 2, 10), (2, 3, 10), (3, 4, 10)]);
        let exact = exact_diameter(&g);
        assert_eq!(exact, 30);
        let ub = sssp_diameter_upper_bound(&g, 0);
        assert!(ub >= exact, "upper bound {ub} below exact diameter {exact}");
        assert!(ub <= 2 * exact);
    }

    #[test]
    fn upper_bound_holds_from_every_source_on_disconnected_graphs() {
        // Three components of very different diameters; the bound must hold
        // no matter which component the source sits in.
        let g = cldiam_graph::Graph::from_edges(
            9,
            &[(0, 1, 1), (2, 3, 7), (3, 4, 7), (5, 6, 2), (6, 7, 2), (7, 8, 2)],
        );
        let exact = exact_diameter(&g);
        assert_eq!(exact, 14);
        for source in 0..9 {
            let ub = sssp_diameter_upper_bound(&g, source);
            assert!(ub >= exact, "source {source}: upper bound {ub} below {exact}");
            assert!(ub <= 2 * exact, "source {source}: upper bound {ub} not within 2x");
        }
    }

    #[test]
    fn lower_bound_escapes_tiny_components() {
        // Regression: a 2-node component next to a long path. A random start
        // landing in the tiny component used to trap the whole sweep there,
        // reporting a bound of 1 against a true diameter of 30. Every seed
        // must now find the path regardless of where the start lands.
        let g =
            cldiam_graph::Graph::from_edges(6, &[(0, 1, 1), (2, 3, 10), (3, 4, 10), (4, 5, 10)]);
        let exact = exact_diameter(&g);
        assert_eq!(exact, 30);
        for seed in 0..16 {
            let lb = diameter_lower_bound(&g, 4, seed);
            assert!(lb <= exact, "seed {seed}: lower bound {lb} above exact {exact}");
            assert_eq!(lb, exact, "seed {seed}: loose lower bound {lb}");
        }
    }

    #[test]
    fn lower_bound_covers_small_components_larger_than_the_biggest() {
        // The largest component (a 5-node unit-weight star-ish path) has a
        // *smaller* diameter than a 3-node heavy path; the per-component
        // restart must surface the heavy one.
        let g = cldiam_graph::Graph::from_edges(
            8,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (5, 6, 100), (6, 7, 100)],
        );
        let exact = exact_diameter(&g);
        assert_eq!(exact, 200);
        for seed in 0..8 {
            let lb = diameter_lower_bound(&g, 4, seed);
            assert_eq!(lb, exact, "seed {seed}: missed the heavy component ({lb})");
        }
    }

    #[test]
    fn bounds_bracket_exact_diameter_with_isolated_nodes() {
        // Isolated nodes (singleton components) are skipped, not swept.
        let g = cldiam_graph::Graph::from_edges(64, &[(10, 20, 5), (20, 30, 5)]);
        assert_eq!(exact_diameter(&g), 10);
        assert!(sssp_diameter_upper_bound(&g, 0) >= 10);
        let lb = diameter_lower_bound(&g, 3, 9);
        assert!(lb <= 10 && lb > 0);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        assert_eq!(exact_diameter(&cldiam_graph::Graph::empty(0)), 0);
        assert_eq!(exact_diameter(&cldiam_graph::Graph::empty(1)), 0);
        assert_eq!(diameter_lower_bound(&cldiam_graph::Graph::empty(0), 3, 0), 0);
    }

    #[test]
    fn all_eccentricities_max_is_diameter() {
        let g = mesh(6, WeightModel::UniformUnit, 2);
        let eccs = all_eccentricities(&g);
        assert_eq!(eccs.iter().copied().max().unwrap(), exact_diameter(&g));
        assert_eq!(eccs.len(), g.num_nodes());
    }

    #[test]
    fn reaches_all_detects_infinity() {
        assert!(reaches_all(&[0, 1, 2]));
        assert!(!reaches_all(&[0, INFINITY]));
    }
}
