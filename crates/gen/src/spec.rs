//! Named benchmark workloads.
//!
//! [`GraphSpec`] gives every benchmark family of Table 1 a name and a
//! parameter set so the harness, the examples and the tests can refer to the
//! same workloads. `generate` is deterministic in the seed.

use cldiam_graph::Graph;

use crate::mesh::mesh;
use crate::random::{gnm_random, preferential_attachment};
use crate::rmat::{rmat, RmatParams};
use crate::roads::{road_network, roads_product};
use crate::weights::{assign_weights, WeightModel};

/// A named, parameterized benchmark graph family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphSpec {
    /// Synthetic road network on an `rows × cols` lattice (proxy for
    /// roads-USA / roads-CAL), original integer weights.
    RoadNetwork {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
    },
    /// `mesh(S)`: an `S × S` square mesh with uniform `(0, 1]` weights.
    Mesh {
        /// Side length `S`.
        side: usize,
    },
    /// `R-MAT(S)`: `2^S` nodes, `16·2^S` edges, uniform `(0, 1]` weights
    /// (proxy for twitter and for the paper's own R-MAT family).
    RMat {
        /// `log2` of the number of nodes.
        scale: u32,
    },
    /// Preferential-attachment graph (proxy for livejournal), uniform
    /// `(0, 1]` weights.
    PreferentialAttachment {
        /// Number of nodes.
        nodes: usize,
        /// Edges added per arriving node.
        edges_per_node: usize,
    },
    /// Erdős–Rényi `G(n, m)`, uniform `(0, 1]` weights (used in ablations).
    Gnm {
        /// Number of nodes.
        nodes: usize,
        /// Number of edges.
        edges: usize,
    },
    /// `roads(S)`: cartesian product of a unit-weight path of `S` nodes with
    /// a synthetic road network on an `rows × cols` lattice.
    RoadsProduct {
        /// Path length `S`.
        s: usize,
        /// Base lattice rows.
        rows: usize,
        /// Base lattice columns.
        cols: usize,
    },
}

impl GraphSpec {
    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            GraphSpec::RoadNetwork { rows, cols } => format!("roads-{rows}x{cols}"),
            GraphSpec::Mesh { side } => format!("mesh({side})"),
            GraphSpec::RMat { scale } => format!("R-MAT({scale})"),
            GraphSpec::PreferentialAttachment { nodes, .. } => format!("social-ba({nodes})"),
            GraphSpec::Gnm { nodes, edges } => format!("gnm({nodes},{edges})"),
            GraphSpec::RoadsProduct { s, rows, cols } => format!("roads({s})x{rows}x{cols}"),
        }
    }

    /// The weight model the paper uses for this family.
    pub fn default_weight_model(&self) -> WeightModel {
        match self {
            GraphSpec::RoadNetwork { .. } | GraphSpec::RoadsProduct { .. } => WeightModel::Original,
            _ => WeightModel::UniformUnit,
        }
    }

    /// Generates the raw graph (possibly disconnected) with the family's
    /// default weight model.
    pub fn generate(&self, seed: u64) -> Graph {
        self.generate_with(self.default_weight_model(), seed)
    }

    /// Generates the raw graph with an explicit weight model.
    pub fn generate_with(&self, model: WeightModel, seed: u64) -> Graph {
        let topology = match *self {
            GraphSpec::RoadNetwork { rows, cols } => road_network(rows, cols, seed),
            GraphSpec::Mesh { side } => return mesh(side, model, seed),
            GraphSpec::RMat { scale } => return rmat(RmatParams::paper(scale), model, seed),
            GraphSpec::PreferentialAttachment { nodes, edges_per_node } => {
                return preferential_attachment(nodes, edges_per_node, model, seed)
            }
            GraphSpec::Gnm { nodes, edges } => return gnm_random(nodes, edges, model, seed),
            GraphSpec::RoadsProduct { s, rows, cols } => {
                roads_product(s, &road_network(rows, cols, seed))
            }
        };
        match model {
            WeightModel::Original => topology,
            other => assign_weights(&topology, other, seed.wrapping_add(0xDEAD_BEEF)),
        }
    }

    /// Parses a compact textual spec, the syntax of the `cldiam` CLI's
    /// `gen:` inputs (the part after the `gen:` prefix):
    ///
    /// * `mesh:SIDE` — `mesh(SIDE)`;
    /// * `rmat:SCALE` — `R-MAT(SCALE)`;
    /// * `road:ROWSxCOLS` — synthetic road lattice;
    /// * `ba:NODES:EDGES_PER_NODE` — preferential attachment;
    /// * `gnm:NODES:EDGES` — Erdős–Rényi `G(n, m)`;
    /// * `roads:S:ROWSxCOLS` — the paper's `roads(S)` cartesian product.
    pub fn parse(spec: &str) -> Result<GraphSpec, String> {
        fn num<T: std::str::FromStr>(token: Option<&str>, what: &str) -> Result<T, String> {
            token
                .ok_or_else(|| format!("missing {what}"))?
                .parse::<T>()
                .map_err(|_| format!("bad {what}: {:?}", token.unwrap_or("")))
        }
        fn grid(token: Option<&str>) -> Result<(usize, usize), String> {
            let token = token.ok_or("missing ROWSxCOLS dimensions")?;
            let (r, c) = token.split_once('x').ok_or_else(|| {
                format!("bad dimensions {token:?}: expected ROWSxCOLS (e.g. 40x40)")
            })?;
            Ok((
                r.parse().map_err(|_| format!("bad row count {r:?}"))?,
                c.parse().map_err(|_| format!("bad column count {c:?}"))?,
            ))
        }
        let mut parts = spec.split(':');
        let family = parts.next().unwrap_or("");
        let parsed = match family {
            "mesh" => GraphSpec::Mesh { side: num(parts.next(), "mesh side")? },
            "rmat" => GraphSpec::RMat { scale: num(parts.next(), "R-MAT scale")? },
            "road" => {
                let (rows, cols) = grid(parts.next())?;
                GraphSpec::RoadNetwork { rows, cols }
            }
            "ba" => GraphSpec::PreferentialAttachment {
                nodes: num(parts.next(), "node count")?,
                edges_per_node: num(parts.next(), "edges-per-node count")?,
            },
            "gnm" => GraphSpec::Gnm {
                nodes: num(parts.next(), "node count")?,
                edges: num(parts.next(), "edge count")?,
            },
            "roads" => {
                let s = num(parts.next(), "path length S")?;
                let (rows, cols) = grid(parts.next())?;
                GraphSpec::RoadsProduct { s, rows, cols }
            }
            other => {
                return Err(format!(
                    "unknown family {other:?}: expected mesh | rmat | road | ba | gnm | roads"
                ))
            }
        };
        if let Some(extra) = parts.next() {
            return Err(format!("unexpected trailing component {extra:?}"));
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_stable() {
        let specs = [
            GraphSpec::RoadNetwork { rows: 10, cols: 20 },
            GraphSpec::Mesh { side: 8 },
            GraphSpec::RMat { scale: 9 },
            GraphSpec::PreferentialAttachment { nodes: 100, edges_per_node: 3 },
            GraphSpec::Gnm { nodes: 50, edges: 100 },
            GraphSpec::RoadsProduct { s: 2, rows: 5, cols: 5 },
        ];
        let labels: Vec<_> = specs.iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(GraphSpec::Mesh { side: 8 }.label(), "mesh(8)");
    }

    #[test]
    fn road_families_keep_original_weights() {
        assert_eq!(
            GraphSpec::RoadNetwork { rows: 4, cols: 4 }.default_weight_model(),
            WeightModel::Original
        );
        assert_eq!(GraphSpec::Mesh { side: 4 }.default_weight_model(), WeightModel::UniformUnit);
    }

    #[test]
    fn generate_is_deterministic_per_spec() {
        let spec = GraphSpec::RMat { scale: 7 };
        assert_eq!(spec.generate(5), spec.generate(5));
    }

    #[test]
    fn parses_cli_specs() {
        assert_eq!(GraphSpec::parse("mesh:24").unwrap(), GraphSpec::Mesh { side: 24 });
        assert_eq!(GraphSpec::parse("rmat:10").unwrap(), GraphSpec::RMat { scale: 10 });
        assert_eq!(
            GraphSpec::parse("road:40x30").unwrap(),
            GraphSpec::RoadNetwork { rows: 40, cols: 30 }
        );
        assert_eq!(
            GraphSpec::parse("ba:500:4").unwrap(),
            GraphSpec::PreferentialAttachment { nodes: 500, edges_per_node: 4 }
        );
        assert_eq!(
            GraphSpec::parse("gnm:100:300").unwrap(),
            GraphSpec::Gnm { nodes: 100, edges: 300 }
        );
        assert_eq!(
            GraphSpec::parse("roads:3:20x20").unwrap(),
            GraphSpec::RoadsProduct { s: 3, rows: 20, cols: 20 }
        );
    }

    #[test]
    fn rejects_malformed_cli_specs() {
        for bad in ["", "mesh", "mesh:x", "rmat:9:9", "road:40", "torus:5", "ba:10"] {
            assert!(GraphSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn explicit_weight_model_overrides_default() {
        let spec = GraphSpec::Mesh { side: 6 };
        let unit = spec.generate_with(WeightModel::Unit, 1);
        assert_eq!(unit.max_weight(), Some(1));
        let uniform = spec.generate_with(WeightModel::UniformUnit, 1);
        assert!(uniform.max_weight().unwrap() > 1);
    }
}
