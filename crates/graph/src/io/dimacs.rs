//! The DIMACS shortest-path graph format (`.gr`).
//!
//! The format of the 9th DIMACS Implementation Challenge road networks the
//! paper benchmarks on (roads-USA, roads-CAL):
//!
//! ```text
//! c comment lines
//! p sp <num_nodes> <num_arcs>
//! a <u> <v> <w>        (1-based endpoints, one line per directed arc)
//! ```
//!
//! Arcs are symmetrized into undirected edges by [`crate::GraphBuilder`]
//! (road networks list both directions; parallel arcs collapse to the
//! minimum weight). The `p` header must precede every `a` line; arc
//! endpoints must lie in `1..=num_nodes` and the number of `a` lines must
//! match the header's arc count — violations are reported with the offending
//! line number.
//!
//! Parsing of the arc section is parallel over newline-aligned chunks with a
//! chunk-ordered merge; see [`crate::io`] for the determinism contract.

use crate::csr::Graph;
use crate::io::{
    count_asymmetric_arcs, graph_from_arcs, parse_lines_parallel, EdgeDirection, IoError,
    LoadedGraph,
};
use crate::weight::{NodeId, Weight};

/// The parsed `p sp <n> <m>` header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Header {
    num_nodes: usize,
    num_arcs: usize,
    /// Byte offset of the first line after the header.
    body_offset: usize,
    /// 1-based line number of the first line after the header.
    body_first_line: usize,
}

/// Locates and parses the `p` line sequentially (it must precede the arcs and
/// is virtually always within the first few lines).
fn parse_header(bytes: &[u8]) -> Result<Header, IoError> {
    let mut offset = 0usize;
    let mut line_number = 0usize;
    while offset < bytes.len() {
        line_number += 1;
        let end = bytes[offset..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| offset + i + 1)
            .unwrap_or(bytes.len());
        let line = std::str::from_utf8(bytes[offset..end].trim_ascii()).map_err(|_| {
            IoError::Parse { line_number, message: "line is not valid UTF-8".to_string() }
        })?;
        offset = end;
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                // `p sp <n> <m>`; the problem identifier is not enforced so
                // that `p edge` style variants still load.
                let _problem = parts.next().ok_or_else(|| IoError::Parse {
                    line_number,
                    message: "bad header: expected `p sp <nodes> <arcs>`".to_string(),
                })?;
                let mut count = |what: &str| -> Result<usize, IoError> {
                    parts.next().and_then(|t| t.parse::<usize>().ok()).ok_or_else(|| {
                        IoError::Parse {
                            line_number,
                            message: format!("bad header: missing or non-numeric {what} count"),
                        }
                    })
                };
                let num_nodes = count("node")?;
                let num_arcs = count("arc")?;
                if num_nodes >= NodeId::MAX as usize {
                    return Err(IoError::Parse {
                        line_number,
                        message: format!("bad header: {num_nodes} nodes exceeds the node limit"),
                    });
                }
                if let Some(extra) = parts.next() {
                    return Err(IoError::Parse {
                        line_number,
                        message: format!("bad header: unexpected trailing token {extra:?}"),
                    });
                }
                return Ok(Header {
                    num_nodes,
                    num_arcs,
                    body_offset: offset,
                    body_first_line: line_number + 1,
                });
            }
            Some("a") => {
                return Err(IoError::Parse {
                    line_number,
                    message: "arc line before the `p sp <nodes> <arcs>` header".to_string(),
                })
            }
            _ => {
                return Err(IoError::Parse {
                    line_number,
                    message: format!("expected a `c` comment or the `p` header, got {line:?}"),
                })
            }
        }
    }
    Err(IoError::Format("missing `p sp <nodes> <arcs>` header".to_string()))
}

/// Parses one `a <u> <v> <w>` payload line against the header's node count.
fn parse_arc(line: &str, num_nodes: usize) -> Result<(NodeId, NodeId, Weight), String> {
    let mut parts = line.split_whitespace();
    let marker = parts.next();
    debug_assert_eq!(marker, Some("a"));
    let endpoint = |token: Option<&str>, which: &str| -> Result<NodeId, String> {
        let token = token.ok_or_else(|| format!("missing {which} endpoint"))?;
        let id = token
            .parse::<u64>()
            .map_err(|_| format!("{which} endpoint {token:?} is not a positive integer"))?;
        if id == 0 || id > num_nodes as u64 {
            return Err(format!(
                "{which} endpoint {id} out of range 1..={num_nodes} declared by the header"
            ));
        }
        Ok((id - 1) as NodeId)
    };
    let u = endpoint(parts.next(), "source")?;
    let v = endpoint(parts.next(), "target")?;
    let w_token = parts.next().ok_or("missing arc weight")?;
    let w = w_token
        .parse::<u64>()
        .map_err(|_| format!("weight {w_token:?} is not a non-negative integer"))?;
    if w == 0 {
        // The builder would silently clamp a zero weight to 1, altering
        // every distance through the arc; reject instead of rewriting.
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

/// A raw parsed arc list: `(u, v, w)` in file order.
type ArcList = Vec<(NodeId, NodeId, Weight)>;

/// Parses the header and the full arc section of a DIMACS document.
fn parse_arc_section(bytes: &[u8]) -> Result<(Header, ArcList), IoError> {
    let header = parse_header(bytes)?;
    let arcs =
        parse_lines_parallel(&bytes[header.body_offset..], header.body_first_line, |_, line| {
            if line.is_empty() || line.starts_with('c') {
                return Ok(None);
            }
            // Tokenize rather than test for a literal "a " prefix so that
            // tab-delimited files are treated like the edge-list parser does.
            if line.split_whitespace().next() != Some("a") {
                return Err(format!("expected an `a <u> <v> <w>` arc line, got {line:?}"));
            }
            parse_arc(line, header.num_nodes).map(Some)
        })?;
    if arcs.len() != header.num_arcs {
        return Err(IoError::Format(format!(
            "header declares {} arcs but the file contains {}",
            header.num_arcs,
            arcs.len()
        )));
    }
    Ok((header, arcs))
}

/// Parses a DIMACS `.gr` document from raw bytes (header sequentially, arc
/// section parallel over newline-aligned chunks).
pub fn parse_dimacs_bytes(bytes: &[u8]) -> Result<Graph, IoError> {
    let (header, arcs) = parse_arc_section(bytes)?;
    Ok(graph_from_arcs(header.num_nodes, &arcs, EdgeDirection::Symmetrize))
}

/// Parses a DIMACS document with an explicit [`EdgeDirection`], also counting
/// the arcs whose reverse is absent (directedness evidence for the caller).
pub fn parse_dimacs_bytes_as(
    bytes: &[u8],
    direction: EdgeDirection,
) -> Result<LoadedGraph, IoError> {
    let (header, arcs) = parse_arc_section(bytes)?;
    let asymmetric_arcs = count_asymmetric_arcs(&arcs);
    Ok(LoadedGraph { graph: graph_from_arcs(header.num_nodes, &arcs, direction), asymmetric_arcs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_dimacs(text: &str) -> Result<Graph, IoError> {
        parse_dimacs_bytes(text.as_bytes())
    }

    const SMALL: &str = "c tiny example\n\
                         p sp 4 5\n\
                         a 1 2 10\n\
                         a 2 1 10\n\
                         a 2 3 20\n\
                         c interleaved comment\n\
                         a 3 4 5\n\
                         a 4 1 7\n";

    #[test]
    fn parses_small_document() {
        let g = parse_dimacs(SMALL).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.edge_weight(0, 1), Some(10));
        assert_eq!(g.edge_weight(2, 3), Some(5));
        assert_eq!(g.edge_weight(3, 0), Some(7));
    }

    #[test]
    fn parses_tab_delimited_arc_lines() {
        let g = parse_dimacs("p\tsp\t3\t2\na\t1\t2\t4\na\t2\t3\t6\n").unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert_eq!(g.edge_weight(1, 2), Some(6));
    }

    #[test]
    fn keeps_isolated_trailing_nodes() {
        let g = parse_dimacs("p sp 6 1\na 1 2 3\n").unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn rejects_bad_header() {
        for (text, expect_line) in [
            ("p sp\na 1 2 3\n", 1),
            ("p sp 4 nope\n", 1),
            ("c ok\nhello world\n", 2),
            ("a 1 2 3\np sp 4 1\n", 1),
            ("p sp 4 1 extra\n", 1),
        ] {
            match parse_dimacs(text).unwrap_err() {
                IoError::Parse { line_number, .. } => {
                    assert_eq!(line_number, expect_line, "input {text:?}")
                }
                other => panic!("unexpected error {other} for {text:?}"),
            }
        }
        assert!(matches!(parse_dimacs("c nothing else\n").unwrap_err(), IoError::Format(_)));
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let err = parse_dimacs("p sp 3 1\na 1 9 5\n").unwrap_err();
        match err {
            IoError::Parse { line_number, message } => {
                assert_eq!(line_number, 2);
                assert!(message.contains("out of range"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(parse_dimacs("p sp 3 1\na 0 2 5\n").is_err());
    }

    #[test]
    fn rejects_negative_weight_and_arc_count_mismatch() {
        assert!(matches!(
            parse_dimacs("p sp 3 1\na 1 2 -4\n").unwrap_err(),
            IoError::Parse { line_number: 2, .. }
        ));
        assert!(matches!(
            parse_dimacs("p sp 3 1\na 1 2 0\n").unwrap_err(),
            IoError::Parse { line_number: 2, ref message } if message.contains("strictly positive")
        ));
        assert!(matches!(parse_dimacs("p sp 3 2\na 1 2 4\n").unwrap_err(), IoError::Format(_)));
    }

    #[test]
    fn roundtrips_through_writer() {
        // Both directions of every edge, as road-network files list them.
        let g = Graph::from_edges(5, &[(0, 1, 3), (1, 2, 4), (0, 3, 9), (3, 4, 1)]);
        let mut text = format!("p sp {} {}\n", g.num_nodes(), g.num_arcs());
        for (u, v, w) in g.edges() {
            text += &format!("a {} {} {w}\na {} {} {w}\n", u + 1, v + 1, v + 1, u + 1);
        }
        assert_eq!(parse_dimacs(&text).unwrap(), g);
    }

    #[test]
    fn directed_mode_keeps_one_way_arcs() {
        let loaded = parse_dimacs_bytes_as(SMALL.as_bytes(), EdgeDirection::Directed).unwrap();
        assert!(loaded.graph.is_directed());
        // Arcs 1↔2 are mutual; 2→3, 3→4, 4→1 are one-way.
        assert_eq!(loaded.graph.num_edges(), 5);
        assert_eq!(loaded.graph.edge_weight(0, 1), Some(10));
        assert_eq!(loaded.graph.edge_weight(1, 0), Some(10));
        assert_eq!(loaded.graph.edge_weight(2, 1), None);
        assert_eq!(loaded.asymmetric_arcs, 3);
    }

    #[test]
    fn symmetrize_mode_matches_plain_parse() {
        let loaded = parse_dimacs_bytes_as(SMALL.as_bytes(), EdgeDirection::Symmetrize).unwrap();
        assert!(!loaded.graph.is_directed());
        assert_eq!(loaded.graph, parse_dimacs(SMALL).unwrap());
        assert_eq!(loaded.asymmetric_arcs, 3);
    }

    #[test]
    fn large_arc_section_parses_across_chunks() {
        let n = 4_000u32;
        let mut text = format!("p sp {} {}\n", n, n - 1);
        for i in 1..n {
            text.push_str(&format!("a {} {} {}\n", i, i + 1, 1 + (i % 9)));
        }
        let g = parse_dimacs(&text).unwrap();
        assert_eq!(g.num_nodes(), n as usize);
        assert_eq!(g.num_edges(), (n - 1) as usize);
    }
}
