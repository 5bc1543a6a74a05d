//! The `cldiam` CLI must produce byte-identical JSON no matter how the graph
//! is held (dense vs compressed CSR) or served (in-memory parse vs
//! mmap-backed snapshot) and at any thread count.

use std::path::{Path, PathBuf};
use std::process::Command;

mod support {
    pub mod temp_dir;
}
use support::temp_dir::TempDir;

const CLDIAM: &str = env!("CARGO_BIN_EXE_cldiam");

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data").join(name)
}

/// Copies `name` into a scenario-private temp directory so `--cache` writes
/// land next to the copy, not in the repository tree. Returns the directory,
/// which is removed when dropped, and the copy.
fn staged_fixture(tag: &str, name: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new(&format!("cldiam-cli-{}-{tag}", std::process::id()));
    let staged = dir.join(name);
    std::fs::copy(fixture(name), &staged).unwrap();
    (dir, staged)
}

/// Runs the CLI with `--no-time --json` and returns the JSON report bytes.
fn run_json(input: &Path, extra: &[&str]) -> String {
    let json =
        input.with_extension(format!("out-{}.json", extra.join("_").replace(['-', '/'], "")));
    let status = Command::new(CLDIAM)
        .arg(input)
        .args(["--seed", "1", "--no-time", "--json"])
        .arg(&json)
        .args(extra)
        .status()
        .expect("cldiam binary runs");
    assert!(status.success(), "cldiam {input:?} {extra:?} failed: {status}");
    std::fs::read_to_string(&json).expect("JSON report written")
}

#[test]
fn dense_compressed_and_mmap_runs_are_byte_identical() {
    for name in ["roads.gr", "social.tsv"] {
        for algo in ["cldiam", "delta", "bounds"] {
            let (_dir, input) = staged_fixture(&format!("{algo}-eq"), name);
            let baseline = run_json(&input, &["--algo", algo]);
            // Compressed CSR, in memory.
            let compressed = run_json(&input, &["--algo", algo, "--compress"]);
            assert_eq!(compressed, baseline, "{name}/{algo}: compressed in-memory diverged");
            // Sharded compressed snapshot written, then served via mmap: the
            // first run writes the cache cold, the second hits it.
            let mmap_flags = ["--algo", algo, "--cache", "--shards", "2", "--mmap"];
            let cold = run_json(&input, &mmap_flags);
            assert_eq!(cold, baseline, "{name}/{algo}: cold mmap run diverged");
            let warm = run_json(&input, &mmap_flags);
            assert_eq!(warm, baseline, "{name}/{algo}: warm mmap run diverged");
            // Checksum-verifying mmap load changes nothing but the cost.
            let verified = run_json(
                &input,
                &["--algo", algo, "--cache", "--shards", "2", "--mmap", "--verify-snapshot"],
            );
            assert_eq!(verified, baseline, "{name}/{algo}: verified mmap run diverged");
        }
    }
}

#[test]
fn mmap_runs_are_identical_across_thread_counts() {
    let (_dir, input) = staged_fixture("threads", "roads.gr");
    let reference = run_json(&input, &["--threads", "1"]);
    for threads in ["2", "4"] {
        let json = run_json(&input, &["--threads", threads, "--cache", "--compress", "--mmap"]);
        assert_eq!(json, reference, "diverged at {threads} threads");
    }
}

#[test]
fn v1_snapshot_cache_still_serves_the_cli() {
    let (_dir, input) = staged_fixture("v1compat", "roads.gr");
    let baseline = run_json(&input, &[]);
    // Plant the committed v1 image of the input as its cache, fresher than
    // the text: the CLI must load through it (upgrading it to v2 in place)
    // and produce the same report.
    let cache = cldiam_graph::io::snapshot_path(&input);
    std::fs::copy(fixture("roads-v1.cldg"), &cache).unwrap();
    let future = std::time::SystemTime::now() + std::time::Duration::from_secs(60);
    std::fs::OpenOptions::new().append(true).open(&cache).unwrap().set_modified(future).unwrap();
    let via_v1 = run_json(&input, &["--cache"]);
    assert_eq!(via_v1, baseline, "v1 cache produced a different report");
    let bytes = std::fs::read(&cache).unwrap();
    assert_eq!(
        cldiam_graph::snapshot_version(&bytes),
        Some(2),
        "the CLI load must upgrade the v1 cache in place"
    );
}
