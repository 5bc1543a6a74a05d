//! Plain-text table rendering and JSON export of run results.

use cldiam_graph::{Dist, INFINITY};
use cldiam_sssp::BoundsIteration;

use crate::json::{to_string_pretty, Value};
use crate::runner::RunResult;

/// One labelled table row: a graph plus the results of the algorithms that
/// ran on it.
#[derive(Clone, Debug)]
pub struct ResultRow {
    /// Graph label (the file name, or the generator's label).
    pub graph: String,
    /// The input as given (a path or `gen:` spec), noting a largest-component
    /// extraction.
    pub proxy: String,
    /// Number of nodes of the graph the algorithms ran on.
    pub nodes: usize,
    /// Number of edges of the graph the algorithms ran on.
    pub edges: usize,
    /// Results, one per algorithm.
    pub results: Vec<RunResult>,
}

/// Renders rows in the layout of the paper's Table 2: one line per graph with
/// the chosen metric for every algorithm side by side.
pub fn render_table(title: &str, rows: &[ResultRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    let algorithms: Vec<String> = rows[0].results.iter().map(|r| r.algorithm.clone()).collect();
    out.push_str(&format!("{:<14} {:>10} {:>10}", "graph", "nodes", "edges"));
    for a in &algorithms {
        out.push_str(&format!(" | {a:^38}"));
    }
    out.push('\n');
    out.push_str(&format!("{:<14} {:>10} {:>10}", "", "", ""));
    for _ in &algorithms {
        out.push_str(&format!(
            " | {:>8} {:>9} {:>8} {:>10}",
            "approx", "time(s)", "rounds", "work"
        ));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<14} {:>10} {:>10}", row.graph, row.nodes, row.edges));
        for result in &row.results {
            out.push_str(&format!(
                " | {:>8.3} {:>9.3} {:>8} {:>10.3e}",
                result.approximation, result.time_s, result.rounds, result.work as f64
            ));
        }
        out.push('\n');
    }
    out
}

/// Serializes rows as pretty JSON, the machine-readable companion of the
/// table (`cldiam --json`).
pub fn to_json(rows: &[ResultRow]) -> String {
    let rows = rows.iter().map(|row| {
        Value::Object(vec![
            ("graph", row.graph.as_str().into()),
            ("proxy", row.proxy.as_str().into()),
            ("nodes", row.nodes.into()),
            ("edges", row.edges.into()),
            ("results", Value::Array(row.results.iter().map(result_value).collect())),
        ])
    });
    to_string_pretty(&Value::Array(rows.collect()))
}

/// One result: the Table 2 columns, then a bounds run's outcome and its
/// iteration trace.
fn result_value(result: &RunResult) -> Value {
    let mut members = vec![
        ("algorithm", result.algorithm.as_str().into()),
        ("estimate", bound(result.estimate)),
        ("lower_bound", result.lower_bound.into()),
        ("approximation", result.approximation.into()),
        ("time_s", result.time_s.into()),
        ("rounds", result.rounds.into()),
        ("work", result.work.into()),
        ("detail", result.detail.as_str().into()),
    ];
    if let Some(outcome) = &result.bounds {
        members.push(("converged", outcome.converged.into()));
        members.push(("interrupted", outcome.interrupted.into()));
        let iterations = outcome.iterations.iter().map(iteration_value).collect();
        members.push(("iterations", Value::Array(iterations)));
    }
    Value::Object(members)
}

/// One bounds iteration; the oracle step has no source.
fn iteration_value(it: &BoundsIteration) -> Value {
    Value::Object(vec![
        ("source", it.source.map_or(Value::Null, Value::from)),
        ("sssp_runs", it.sssp_runs.into()),
        ("lower", it.lower.into()),
        ("upper", bound(it.upper)),
        ("open", it.open.into()),
    ])
}

/// An upper bound, or `null` for [`INFINITY`], the bound a run could not
/// establish (JSON has no infinite number).
fn bound(distance: Dist) -> Value {
    if distance == INFINITY {
        Value::Null
    } else {
        distance.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<ResultRow> {
        vec![ResultRow {
            graph: "mesh".to_string(),
            proxy: "64x64 mesh".to_string(),
            nodes: 4096,
            edges: 8064,
            results: vec![
                RunResult {
                    algorithm: "CL-DIAM".to_string(),
                    estimate: 120,
                    lower_bound: 100,
                    approximation: 1.2,
                    time_s: 0.5,
                    rounds: 42,
                    work: 100_000,
                    detail: String::new(),
                    bounds: None,
                },
                RunResult {
                    algorithm: "Δ-stepping".to_string(),
                    estimate: 190,
                    lower_bound: 100,
                    approximation: 1.9,
                    time_s: 3.0,
                    rounds: 900,
                    work: 2_000_000,
                    detail: String::new(),
                    bounds: None,
                },
            ],
        }]
    }

    #[test]
    fn table_contains_all_columns() {
        let text = render_table("Table 2", &sample_rows());
        assert!(text.contains("Table 2"));
        assert!(text.contains("mesh"));
        assert!(text.contains("CL-DIAM"));
        assert!(text.contains("Δ-stepping"));
        assert!(text.contains("1.200"));
        assert!(text.contains("900"));
    }

    #[test]
    fn empty_table_renders_placeholder() {
        assert!(render_table("t", &[]).contains("no rows"));
    }

    #[test]
    fn json_roundtrips_structure() {
        let json = to_json(&sample_rows());
        let value = crate::json_reader::from_str(&json).unwrap();
        assert_eq!(value.at(0).get("graph").as_str(), Some("mesh"));
        assert_eq!(value.at(0).get("results").at(1).get("rounds").as_u64(), Some(900));
        assert_eq!(value.at(0).get("results").at(0).get("approximation").as_f64(), Some(1.2));
    }
}
