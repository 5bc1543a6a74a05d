//! The result of a graph decomposition.

use cldiam_graph::{Dist, NeighborSource, NodeId};
use cldiam_mr::CostMetrics;

/// A clustering (τ-clustering in the paper's terminology): a partition of the
/// nodes into clusters, each with a distinguished center and, for every node,
/// an upper bound on its distance to the center.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// `assignment[u]` — the center of the cluster `u` belongs to (centers are
    /// assigned to themselves).
    pub assignment: Vec<NodeId>,
    /// `dist[u]` — an upper bound on `dist(assignment[u], u)` in the original
    /// graph (0 for centers).
    pub dist: Vec<Dist>,
    /// The distinct cluster centers, sorted by node id.
    pub centers: Vec<NodeId>,
    /// The clustering radius: `max_u dist[u]`.
    pub radius: Dist,
    /// The final value of the growth threshold `Δ` (`Δ_end` in Lemma 1).
    pub delta_end: Dist,
    /// Number of Δ-growing steps performed.
    pub growing_steps: u64,
    /// Number of stages (outer-loop iterations) executed.
    pub stages: u64,
    /// MR cost charged by the decomposition.
    pub metrics: CostMetrics,
}

impl Clustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Number of nodes in the clustered graph.
    pub fn num_nodes(&self) -> usize {
        self.assignment.len()
    }

    /// Checks the structural invariants of a clustering against its graph:
    ///
    /// 1. every node is assigned to a cluster whose center exists,
    /// 2. every center is assigned to itself at distance 0,
    /// 3. every distance bound is at most the recorded radius,
    /// 4. the recorded radius is attained by some node.
    ///
    /// Returns a description of the first violated invariant, if any.
    // lint:allow(dead-pub): test oracle; the unit tests of CLUSTER and
    // CLUSTER2 and the root cluster, invariant and smoke suites check every
    // clustering with it.
    pub fn validate<G: NeighborSource>(&self, graph: &G) -> Result<(), String> {
        if self.assignment.len() != graph.num_nodes() {
            return Err(format!(
                "assignment covers {} nodes but the graph has {}",
                self.assignment.len(),
                graph.num_nodes()
            ));
        }
        let center_set: std::collections::HashSet<NodeId> = self.centers.iter().copied().collect();
        for (u, &c) in self.assignment.iter().enumerate() {
            if !center_set.contains(&c) {
                return Err(format!("node {u} is assigned to {c}, which is not a center"));
            }
        }
        for &c in &self.centers {
            if self.assignment[c as usize] != c {
                return Err(format!("center {c} is assigned to {}", self.assignment[c as usize]));
            }
            if self.dist[c as usize] != 0 {
                return Err(format!("center {c} has nonzero distance {}", self.dist[c as usize]));
            }
        }
        if let Some((u, &d)) = self.dist.iter().enumerate().find(|&(_, &d)| d > self.radius) {
            return Err(format!("node {u} has distance {d} beyond the radius {}", self.radius));
        }
        if !self.dist.is_empty() && !self.dist.contains(&self.radius) {
            return Err(format!("radius {} is not attained by any node", self.radius));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cldiam_graph::Graph;

    fn toy_clustering() -> (Graph, Clustering) {
        let graph = Graph::from_edges(4, &[(0, 1, 2), (1, 2, 2), (2, 3, 2)]);
        let clustering = Clustering {
            assignment: vec![0, 0, 3, 3],
            dist: vec![0, 2, 2, 0],
            centers: vec![0, 3],
            radius: 2,
            delta_end: 2,
            growing_steps: 2,
            stages: 1,
            metrics: CostMetrics::default(),
        };
        (graph, clustering)
    }

    #[test]
    fn valid_clustering_passes() {
        let (graph, clustering) = toy_clustering();
        assert!(clustering.validate(&graph).is_ok());
        assert_eq!(clustering.num_clusters(), 2);
        assert_eq!(clustering.num_nodes(), 4);
    }

    #[test]
    fn detects_dangling_assignment() {
        let (graph, mut clustering) = toy_clustering();
        clustering.assignment[1] = 2;
        let err = clustering.validate(&graph).unwrap_err();
        assert!(err.contains("not a center"), "{err}");
    }

    #[test]
    fn detects_center_with_nonzero_distance() {
        let (graph, mut clustering) = toy_clustering();
        clustering.dist[0] = 5;
        let err = clustering.validate(&graph).unwrap_err();
        assert!(err.contains("beyond the radius") || err.contains("nonzero distance"), "{err}");
    }

    #[test]
    fn detects_radius_violation() {
        let (graph, mut clustering) = toy_clustering();
        clustering.dist[1] = 10;
        assert!(clustering.validate(&graph).is_err());
    }

    #[test]
    fn detects_unattained_radius() {
        let (graph, mut clustering) = toy_clustering();
        clustering.radius = 99;
        let err = clustering.validate(&graph).unwrap_err();
        assert!(err.contains("not attained"), "{err}");
    }

    #[test]
    fn detects_size_mismatch() {
        let (_, clustering) = toy_clustering();
        let other = cldiam_graph::GraphBuilder::new(7).build();
        assert!(clustering.validate(&other).is_err());
    }
}
