//! SNAP/TSV-style plain-text edge lists.
//!
//! The format of the SNAP benchmark collection the paper evaluates on: one
//! edge per line, whitespace separated, with an optional integer weight
//! (`u v [w]`). Lines starting with `#`, `%` or `c` are treated as comments.
//! Unweighted lines get weight 1. Node identifiers are 0-based and the node
//! set grows to cover the largest id seen.
//!
//! Parsing is parallel over newline-aligned chunks with a chunk-ordered
//! merge; see [`crate::io`] for the determinism contract.

use std::io::{self, BufWriter, Write};

use crate::csr::Graph;
use crate::io::{
    count_asymmetric_arcs, graph_from_arcs, parse_lines_parallel, EdgeDirection, IoError,
    LoadedGraph,
};
use crate::weight::{NodeId, Weight};

/// Parses one `u v [w]` payload line (already trimmed, not a comment).
fn parse_edge(line: &str) -> Result<(NodeId, NodeId, Weight), String> {
    let mut parts = line.split_whitespace();
    let endpoint = |token: Option<&str>, which: &str| -> Result<NodeId, String> {
        let token = token.ok_or_else(|| format!("missing {which} endpoint"))?;
        let id = token
            .parse::<u64>()
            .map_err(|_| format!("{which} endpoint {token:?} is not a non-negative integer"))?;
        if id >= NodeId::MAX as u64 {
            return Err(format!("{which} endpoint {id} exceeds the node-id limit"));
        }
        Ok(id as NodeId)
    };
    let u = endpoint(parts.next(), "source")?;
    let v = endpoint(parts.next(), "target")?;
    let w = match parts.next() {
        None => 1u64,
        Some(token) => token
            .parse::<u64>()
            .map_err(|_| format!("weight {token:?} is not a non-negative integer"))?,
    };
    if w == 0 {
        // The builder would silently clamp a zero weight to 1, altering
        // every distance through the edge; reject instead of rewriting.
        return Err("weight 0 is not allowed (weights must be strictly positive)".to_string());
    }
    if w > Weight::MAX as u64 {
        return Err(format!("weight {w} exceeds the weight limit {}", Weight::MAX));
    }
    if let Some(extra) = parts.next() {
        return Err(format!("unexpected trailing token {extra:?}"));
    }
    Ok((u, v, w as Weight))
}

/// Parses the raw arc list of an edge-list document.
fn parse_arc_lines(bytes: &[u8]) -> Result<Vec<(NodeId, NodeId, Weight)>, IoError> {
    parse_lines_parallel(bytes, 1, |_, line| {
        if line.is_empty() || matches!(line.as_bytes()[0], b'#' | b'%' | b'c') {
            return Ok(None);
        }
        parse_edge(line).map(Some)
    })
}

/// Parses an edge list from raw bytes (parallel over newline-aligned chunks).
pub fn parse_edge_list_bytes(bytes: &[u8]) -> Result<Graph, IoError> {
    let arcs = parse_arc_lines(bytes)?;
    Ok(graph_from_arcs(0, &arcs, EdgeDirection::Symmetrize))
}

/// Parses an edge list with an explicit [`EdgeDirection`], also counting the
/// arcs whose reverse is absent (directedness evidence for the caller).
pub fn parse_edge_list_bytes_as(
    bytes: &[u8],
    direction: EdgeDirection,
) -> Result<LoadedGraph, IoError> {
    let arcs = parse_arc_lines(bytes)?;
    let asymmetric_arcs = count_asymmetric_arcs(&arcs);
    Ok(LoadedGraph { graph: graph_from_arcs(0, &arcs, direction), asymmetric_arcs })
}

/// Parses an edge list stored in a string (convenient for tests and examples).
pub fn parse_edge_list(text: &str) -> Result<Graph, IoError> {
    parse_edge_list_bytes(text.as_bytes())
}

/// Writes the graph as a weighted edge list (`u v w`, one undirected edge per
/// line).
// lint:allow(dead-pub): writes edge-list fixtures for this module's tests
// and the root IO and storage suites; no pipeline path exports a graph.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> io::Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# cldiam edge list: {} nodes, {} edges", graph.num_nodes(), graph.num_edges())?;
    for (u, v, w) in graph.edges() {
        writeln!(out, "{u} {v} {w}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_weighted_and_unweighted_lines() {
        let g = parse_edge_list("# comment\n0 1 5\n1 2\n% other comment\n\n2 3 7\n").unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 2), Some(1));
        assert_eq!(g.edge_weight(2, 3), Some(7));
    }

    #[test]
    fn parses_tab_separated_snap_style() {
        let g = parse_edge_list("# FromNodeId\tToNodeId\n0\t1\n1\t2\n").unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn rejects_garbage_with_line_number() {
        let err = parse_edge_list("0 1 5\nnot an edge\n").unwrap_err();
        match err {
            IoError::Parse { line_number, .. } => assert_eq!(line_number, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_negative_weight() {
        let err = parse_edge_list("0 1 -5\n").unwrap_err();
        match err {
            IoError::Parse { line_number, message } => {
                assert_eq!(line_number, 1);
                assert!(message.contains("weight"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_zero_weight() {
        // The builder clamps 0 to 1; accepting it here would silently alter
        // distances relative to the input file.
        let err = parse_edge_list("0 1 0\n").unwrap_err();
        assert!(
            matches!(err, IoError::Parse { line_number: 1, ref message } if message.contains("strictly positive"))
        );
    }

    #[test]
    fn rejects_missing_endpoint_and_trailing_tokens() {
        assert!(parse_edge_list("7\n").is_err());
        assert!(parse_edge_list("0 1 2 3\n").is_err());
        assert!(parse_edge_list(&format!("0 {}\n", u64::from(NodeId::MAX))).is_err());
    }

    #[test]
    fn roundtrip_through_text() {
        let g = Graph::from_edges(4, &[(0, 1, 3), (1, 2, 4), (0, 3, 9)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let parsed = parse_edge_list_bytes(&buf).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn roundtrip_through_file() {
        let g = Graph::from_edges(3, &[(0, 1, 2), (1, 2, 8)]);
        let dir = crate::io::test_dir::TempDir::new("cldiam_edgelist_test");
        let path = dir.join("g.txt");
        write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let parsed = crate::io::load_graph(&path).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn directed_mode_keeps_one_way_arcs() {
        let text = "0 1 5\n1 2 3\n2 0 4\n";
        let loaded = parse_edge_list_bytes_as(text.as_bytes(), EdgeDirection::Directed).unwrap();
        assert!(loaded.graph.is_directed());
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.graph.edge_weight(0, 1), Some(5));
        assert_eq!(loaded.graph.edge_weight(1, 0), None);
        // Every arc lacks its reverse.
        assert_eq!(loaded.asymmetric_arcs, 3);
    }

    #[test]
    fn symmetric_input_reports_no_asymmetric_arcs() {
        let text = "0 1 5\n1 0 5\n1 2 3\n2 1 3\n";
        let loaded = parse_edge_list_bytes_as(text.as_bytes(), EdgeDirection::Symmetrize).unwrap();
        assert!(!loaded.graph.is_directed());
        assert_eq!(loaded.asymmetric_arcs, 0);
        assert_eq!(loaded.graph, parse_edge_list(text).unwrap());
    }

    #[test]
    fn asymmetry_count_ignores_weight_mismatches() {
        // 0→1 and 1→0 exist with different weights: directionally symmetric.
        let text = "0 1 5\n1 0 7\n0 2 1\n";
        let loaded = parse_edge_list_bytes_as(text.as_bytes(), EdgeDirection::Symmetrize).unwrap();
        assert_eq!(loaded.asymmetric_arcs, 1);
    }

    #[test]
    fn large_input_parses_identically_to_sequential_reference() {
        // Enough lines to spread across many chunks.
        let mut text = String::from("# header\n");
        for i in 0..5_000u32 {
            text.push_str(&format!("{} {} {}\n", i, i + 1, 1 + (i % 40)));
        }
        let g = parse_edge_list(&text).unwrap();
        assert_eq!(g.num_nodes(), 5_001);
        assert_eq!(g.num_edges(), 5_000);
        assert_eq!(g.edge_weight(17, 18), Some(18));
    }
}
