//! Golden reports: each command's `cldiam --no-time --json` report must match
//! its committed file under `tests/golden/` byte for byte.
//!
//! The commands cover every runner and both decompositions, the directed
//! engine (its sweep fallback on a digraph that is not strongly connected,
//! and its interval loop, converging and interrupted, on one that is), the
//! quotient oracle (converging, interrupted under a check-limited token, and
//! once per component of a disconnected graph), the compressed tier and a
//! run with the oracle switched off. A change meant to keep
//! behaviour must leave every golden as it is. There is no bless switch: a
//! golden changes only by editing its file, next to the change that moves it.
//!
//! The commands pass no `--threads`, so the suite checks whatever
//! `CLDIAM_THREADS` the test run sets; every thread count must match the same
//! golden.

use std::path::{Path, PathBuf};
use std::process::Command;

const CLDIAM: &str = env!("CARGO_BIN_EXE_cldiam");

/// `(golden file stem, cldiam arguments)`. Inputs are relative to the
/// workspace root, the commands' working directory, so the report's `proxy`
/// field does not depend on where the repository is checked out.
const CASES: &[(&str, &[&str])] = &[
    (
        "roads-lcc-tau4-both",
        &["tests/data/roads.gr", "--largest-component", "--tau", "4", "--algo", "both"],
    ),
    ("roads-delta4", &["tests/data/roads.gr", "--algo", "delta", "--delta", "4"]),
    ("roads-bounds-checks2", &["tests/data/roads.gr", "--algo", "bounds", "--timeout-checks", "2"]),
    ("social-directed-bounds", &["tests/data/social.tsv", "--directed", "--algo", "bounds"]),
    (
        "social-directed-lcc-bounds",
        &["tests/data/social.tsv", "--directed", "--algo", "bounds", "--largest-component"],
    ),
    ("ring-directed-bounds", &["tests/data/ring.tsv", "--directed", "--algo", "bounds"]),
    (
        "ring-directed-bounds-checks3",
        &["tests/data/ring.tsv", "--directed", "--algo", "bounds", "--timeout-checks", "3"],
    ),
    (
        "road60-lcc-both-cluster2",
        &["gen:road:60x60", "--largest-component", "--algo", "both", "--cluster2"],
    ),
    ("road60-lcc-bounds", &["gen:road:60x60", "--largest-component", "--algo", "bounds"]),
    (
        "road60-lcc-bounds-checks6",
        &["gen:road:60x60", "--largest-component", "--algo", "bounds", "--timeout-checks", "6"],
    ),
    ("road60-bounds-budget8", &["gen:road:60x60", "--algo", "bounds", "--bounds-budget", "8"]),
    ("rmat12-both-compress", &["gen:rmat:12", "--algo", "both", "--compress"]),
    ("rmat14-bounds", &["gen:rmat:14", "--algo", "bounds"]),
    (
        "mesh40-bounds-noquotient-tol105",
        &["gen:mesh:40", "--algo", "bounds", "--no-quotient", "--tolerance", "1.05"],
    ),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `cldiam ARGS --no-time --json FILE` from the workspace root and
/// returns the report, or a description of the failed run.
fn report(stem: &str, args: &[&str]) -> Result<String, String> {
    let json =
        std::env::temp_dir().join(format!("cldiam-golden-{}-{stem}.json", std::process::id()));
    let output = Command::new(CLDIAM)
        .current_dir(workspace_root())
        .args(args)
        .args(["--no-time", "--json"])
        .arg(&json)
        .output()
        .map_err(|e| format!("cannot start cldiam: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim_end()
        ));
    }
    let report = std::fs::read_to_string(&json).map_err(|e| format!("no JSON report: {e}"));
    std::fs::remove_file(&json).ok();
    report
}

/// The first line where `actual` departs from `expected`, 1-based.
fn first_difference(expected: &str, actual: &str) -> String {
    let (mut expected_lines, mut actual_lines) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (expected_lines.next(), actual_lines.next()) {
            (Some(e), Some(a)) if e == a => {}
            (None, None) => break,
            (e, a) => {
                let (e, a) = (e.unwrap_or("<end of report>"), a.unwrap_or("<end of report>"));
                return format!("line {line}: expected {:?}, got {:?}", e.trim(), a.trim());
            }
        }
    }
    "the lines agree but the bytes do not (line endings or a trailing newline)".to_string()
}

#[test]
fn reports_match_their_goldens() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut failures = Vec::new();
    for &(stem, args) in CASES {
        let command = format!("cldiam {} --no-time --json", args.join(" "));
        let golden_path = golden_dir.join(format!("{stem}.json"));
        let golden = match std::fs::read_to_string(&golden_path) {
            Ok(golden) => golden,
            Err(e) => {
                failures.push(format!("{command}: cannot read {}: {e}", golden_path.display()));
                continue;
            }
        };
        match report(stem, args) {
            Ok(actual) if actual == golden => {}
            Ok(actual) => failures.push(format!(
                "{command}: differs from {stem}.json at {}",
                first_difference(&golden, &actual)
            )),
            Err(e) => failures.push(format!("{command}: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden report(s) differ:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
