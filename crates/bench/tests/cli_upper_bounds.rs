//! Every estimate the `cldiam` CLI reports is an upper bound: no row may sit
//! below the reference lower bound of the same run, on disconnected inputs
//! too.

use std::process::Command;

use cldiam_bench::json::{from_str, Value};

const CLDIAM: &str = env!("CARGO_BIN_EXE_cldiam");

#[test]
fn every_row_is_at_least_the_lower_bound_on_a_disconnected_rmat() {
    // R-MAT(15) leaves isolated nodes, and the seeded Δ-stepping source
    // once landed on one, reporting an estimate of 0.
    let json = std::env::temp_dir().join(format!("cldiam-cli-rmat15-{}.json", std::process::id()));
    let output = Command::new(CLDIAM)
        .args(["gen:rmat:15", "--algo", "both", "--seed", "1", "--no-time", "--json"])
        .arg(&json)
        .output()
        .expect("cldiam binary runs");
    assert!(
        output.status.success(),
        "cldiam gen:rmat:15 failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let report = from_str(&std::fs::read_to_string(&json).expect("JSON report written"))
        .expect("the report is valid JSON");
    std::fs::remove_file(&json).ok();
    let Value::Array(rows) = report.at(0).get("results") else {
        panic!("the report has no results array");
    };
    assert_eq!(rows.len(), 2, "--algo both reports CL-DIAM and Δ-stepping");
    for row in rows {
        let algorithm = row.get("algorithm").as_str().expect("algorithm name");
        let estimate = row.get("estimate").as_u64().expect("finite estimate");
        let lower = row.get("lower_bound").as_u64().expect("lower bound");
        assert!(lower > 0, "{algorithm}: the reference lower bound is 0");
        assert!(estimate >= lower, "{algorithm}: estimate {estimate} is below lower bound {lower}");
    }
}
