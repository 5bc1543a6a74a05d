//! Every estimate the `cldiam` CLI reports is an upper bound: no row may sit
//! below the reference lower bound of the same run, on disconnected inputs
//! too, nor below the exact diameter when every node is its own cluster and
//! the quotient passes 2,000 nodes, and a row without a bound reports no
//! ratio either.

use std::path::Path;
use std::process::Command;

use cldiam_gen::GraphSpec;
use cldiam_graph::largest_component;
use cldiam_sssp::exact_diameter;

mod support {
    pub mod json;
    pub mod temp_dir;
}
use support::json::{from_str, Value};
use support::temp_dir::TempDir;

const CLDIAM: &str = env!("CARGO_BIN_EXE_cldiam");

/// Runs `cldiam INPUT ARGS --no-time --json FILE` and returns the result rows
/// of the JSON report.
fn report_rows(input: &str, args: &[&str], json: &Path) -> Vec<Value> {
    let output = Command::new(CLDIAM)
        .arg(input)
        .args(args)
        .args(["--no-time", "--json"])
        .arg(json)
        .output()
        .expect("cldiam binary runs");
    assert!(
        output.status.success(),
        "cldiam {input} failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let report = from_str(&std::fs::read_to_string(json).expect("JSON report written"))
        .expect("the report is valid JSON");
    std::fs::remove_file(json).ok();
    let Value::Array(rows) = report.at(0).get("results") else {
        panic!("the report has no results array");
    };
    rows.clone()
}

#[test]
fn every_row_is_at_least_the_lower_bound_on_a_disconnected_rmat() {
    // R-MAT(15) leaves isolated nodes, and the seeded Δ-stepping source
    // once landed on one, reporting an estimate of 0.
    let json = std::env::temp_dir().join(format!("cldiam-cli-rmat15-{}.json", std::process::id()));
    let rows = report_rows("gen:rmat:15", &["--algo", "both", "--seed", "1"], &json);
    assert_eq!(rows.len(), 2, "--algo both reports CL-DIAM and Δ-stepping");
    for row in &rows {
        let algorithm = row.get("algorithm").as_str().expect("algorithm name");
        let estimate = row.get("estimate").as_u64().expect("finite estimate");
        let lower = row.get("lower_bound").as_u64().expect("lower bound");
        assert!(lower > 0, "{algorithm}: the reference lower bound is 0");
        assert!(estimate >= lower, "{algorithm}: estimate {estimate} is below lower bound {lower}");
    }
}

#[test]
fn a_row_without_an_upper_bound_reports_no_ratio() {
    // A path whose every third edge weighs `u32::MAX`: with τ = 1 the
    // quotient edge weights overflow, so CL-DIAM reports no bound (a null
    // estimate). Its ratio must be null too, not the `INFINITY` sentinel
    // divided by the lower bound.
    let dir = TempDir::new(&format!("cldiam-cli-heavy-{}", std::process::id()));
    let input = dir.join("heavy.tsv");
    let edges: String = (0..59u32)
        .map(|i| format!("{i}\t{}\t{}\n", i + 1, if i % 3 == 1 { u32::MAX } else { 1 }))
        .collect();
    std::fs::write(&input, edges).expect("write the path");
    let rows = report_rows(
        input.to_str().expect("UTF-8 temp path"),
        &["--tau", "1", "--algo", "both"],
        &dir.join("report.json"),
    );
    assert_eq!(rows.len(), 2, "--algo both reports CL-DIAM and Δ-stepping");
    assert!(
        rows.iter().any(|row| matches!(row.get("estimate"), Value::Null)),
        "no row lost its upper bound, so the overflow case is not exercised"
    );
    for row in &rows {
        let algorithm = row.get("algorithm").as_str().expect("algorithm name");
        let unbounded = matches!(row.get("estimate"), Value::Null);
        let approximation = row.get("approximation");
        if unbounded {
            assert!(
                matches!(approximation, Value::Null),
                "{algorithm}: no upper bound, yet approximation {approximation:?}"
            );
        } else {
            assert!(approximation.as_f64().is_some(), "{algorithm}: bounded row has no ratio");
        }
    }
}

/// Runs `cldiam gen:SPEC --tau 100000 --seed SEED` (every node its own
/// cluster, so the quotient is the graph) with `--algo both`, `--algo
/// bounds` and an interrupted `--algo bounds`, each dense and `--compress`,
/// and asserts `lower_bound ≤ exact ≤ estimate` on every row, where `exact`
/// is the exact diameter of the same generated graph. Returns `exact` and the
/// CL-DIAM rows' estimates.
fn assert_rows_bracket_the_exact_diameter(spec: &str, seed: u64, lcc: bool) -> (u64, Vec<u64>) {
    let raw = GraphSpec::parse(spec).expect("valid spec").generate(seed);
    let exact = if lcc { exact_diameter(&largest_component(&raw).0) } else { exact_diameter(&raw) };
    let input = format!("gen:{spec}");
    let seed = seed.to_string();
    let json = std::env::temp_dir().join(format!(
        "cldiam-cli-{}-{}.json",
        spec.replace(':', "-"),
        std::process::id()
    ));
    let mut cldiam = Vec::new();
    for algo in [
        &["--algo", "both"][..],
        &["--algo", "bounds"],
        &["--algo", "bounds", "--timeout-checks", "2"],
    ] {
        for compress in [&[][..], &["--compress"]] {
            let mut args = vec!["--tau", "100000", "--seed", seed.as_str()];
            if lcc {
                args.push("--largest-component");
            }
            args.extend_from_slice(algo);
            args.extend_from_slice(compress);
            for row in report_rows(&input, &args, &json) {
                let algorithm = row.get("algorithm").as_str().expect("algorithm name");
                let estimate = row.get("estimate").as_u64().expect("finite estimate");
                let lower = row.get("lower_bound").as_u64().expect("lower bound");
                assert!(
                    lower <= exact && exact <= estimate,
                    "cldiam {input} {args:?}, {algorithm}: [{lower}, {estimate}] misses the \
                     exact diameter {exact}"
                );
                if algorithm == "CL-DIAM" {
                    cldiam.push(estimate);
                }
            }
        }
    }
    (exact, cldiam)
}

#[test]
fn singleton_clusters_of_a_road_lcc_estimate_its_exact_diameter() {
    // τ = 100,000 leaves each of the 3,533 nodes its own cluster: R = 0 and
    // Φ(G_C) is the graph's own diameter. A sweep estimate of Φ, which is a
    // lower bound, once reported 66,560 here.
    let (exact, cldiam) = assert_rows_bracket_the_exact_diameter("road:60x60", 1, true);
    assert_eq!(exact, 74_706);
    assert_eq!(cldiam, [exact, exact], "CL-DIAM rows, dense and compressed");
}

#[test]
fn singleton_clusters_of_a_disconnected_gnm_bracket_its_exact_diameter() {
    // 2,100 singleton clusters over many components, so again R = 0 and
    // Φ(G_C) is the diameter. A sweep estimate of Φ once reported 8,133,274
    // here.
    let (exact, cldiam) = assert_rows_bracket_the_exact_diameter("gnm:2100:2600", 4, false);
    assert_eq!(exact, 8_148_990);
    assert_eq!(cldiam, [exact, exact], "CL-DIAM rows, dense and compressed");
}
