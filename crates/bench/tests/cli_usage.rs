//! Usage errors and `--help`: each command's exit code and its complete
//! stderr (stdout for `--help`) are pinned byte for byte, so the flag parser
//! cannot move a message, the order its rules apply in, or an exit code.

use std::path::Path;
use std::process::Command;

const CLDIAM: &str = env!("CARGO_BIN_EXE_cldiam");

/// The synopsis that `--help` and every usage error print.
const USAGE: &str =
    "usage: cldiam <PATH | gen:SPEC> [--tau N] [--quotient N] [--delta D] [--cluster2]
              [--algo cldiam|delta|both|bounds] [--bounds-budget N]
              [--tolerance F] [--timeout-ms N] [--timeout-checks N]
              [--no-quotient] [--directed | --symmetrize]
              [--seed K] [--threads N] [--largest-component] [--cache]
              [--compress] [--shards N] [--mmap] [--verify-snapshot]
              [--json PATH] [--no-time]";

/// The line after the synopsis in a usage error.
const HINT: &str = "run `cldiam --help` or see the README's \"Supported file formats\" section";

/// What `--help` prints after the synopsis and a blank line.
const HELP: &str = "INPUT is a graph file (DIMACS .gr, SNAP/TSV edge list, or a binary .cldg
snapshot; format auto-detected) or a generator spec such as gen:mesh:32,
gen:rmat:10, gen:road:40x40, gen:ba:2000:8, gen:gnm:1000:4000,
gen:roads:3:20x20.

--tau N               CLUSTER batch size τ (default: auto from --quotient)
--quotient N          quotient-size target for the auto τ rule (default 2000)
--delta D             Δ-stepping bucket width (default: sweep a grid)
--cluster2            decompose with CLUSTER2 (Algorithm 2)
--algo A              cldiam | delta | both | bounds (default both)
--bounds-budget N     SSSP budget per component for --algo bounds (default 64)
--tolerance F         stop the bounds engine at ub ≤ F·lb (default 1.0)
--timeout-ms N        wall-clock deadline for --algo bounds; an expired run
                      reports the best-so-far [lb, ub] (interrupted=true)
--timeout-checks N    logical deadline: stop after N cancellation checkpoints
                      per component (deterministic across reruns)
--no-quotient         disable the quotient oracle inside --algo bounds
--directed            keep arc directions (text inputs, --algo bounds only)
--symmetrize          force the default symmetrizing load explicitly
--seed K              RNG seed (default 1)
--threads N           worker-pool size (default: CLDIAM_THREADS, then hardware)
--largest-component   extract the largest connected component first
--cache               reuse/write a binary .cldg snapshot next to the input
--compress            hold the graph as delta-varint compressed CSR
--shards N            shard the compressed payload (implies --compress)
--mmap                serve .cldg payloads zero-copy (with --cache or .cldg input)
--verify-snapshot     verify payload checksums on the mmap path too
--json PATH           write the JSON report rows to PATH (\"-\" for stdout)
--no-time             report wall-clock fields as 0 (byte-identical reruns)";

const ROADS: &str = "tests/data/roads.gr";
const SOCIAL: &str = "tests/data/social.tsv";
const DIRECTED_ALGO: &str = "--directed supports --algo bounds only";
const DIRECTED_TIER: &str = "--directed supports neither --compress nor --mmap: the directed \
                             bounds engine needs the dense in-arc arrays";
const DIRECTED_GEN: &str = "--directed needs a text graph file; gen: workloads are undirected";
const TIMEOUT_ALGO: &str = "--timeout-ms / --timeout-checks support --algo bounds only";
const MMAP_GEN: &str = "--mmap needs a file input: gen: workloads have nothing to map";

/// `(arguments, message)`: each command exits 2 and prints its message, the
/// synopsis and the hint on stderr, and nothing else.
const USAGE_ERRORS: &[(&[&str], &str)] = &[
    // A valued flag as the last argument.
    (&[ROADS, "--tau"], "--tau requires a value"),
    (&[ROADS, "--algo"], "--algo requires a value"),
    (&[ROADS, "--json"], "--json requires a value"),
    // A value each valued flag rejects.
    (&[ROADS, "--tau", "0"], "--tau expects a positive integer"),
    (&[ROADS, "--quotient", "0"], "--quotient expects a positive integer"),
    (&[ROADS, "--delta", "0"], "--delta expects a positive integer"),
    (&[ROADS, "--bounds-budget", "0"], "--bounds-budget expects a positive integer"),
    (&[ROADS, "--tolerance", "0.5"], "--tolerance expects a finite number >= 1.0"),
    (&[ROADS, "--tolerance", "inf"], "--tolerance expects a finite number >= 1.0"),
    (&[ROADS, "--tolerance", "NaN"], "--tolerance expects a finite number >= 1.0"),
    (&[ROADS, "--timeout-ms", "-1"], "--timeout-ms expects an unsigned integer (milliseconds)"),
    (&[ROADS, "--timeout-checks", "0"], "--timeout-checks expects a positive integer"),
    (&[ROADS, "--seed", "-1"], "--seed expects an unsigned integer"),
    (&[ROADS, "--threads", "0"], "--threads expects a positive integer"),
    (&[ROADS, "--shards", "0"], "--shards expects a positive integer"),
    (
        &[ROADS, "--algo", "nope"],
        "unknown --algo \"nope\": expected cldiam | delta | both | bounds",
    ),
    // The arguments around the flags.
    (&[ROADS, "--no-such-flag"], "unknown flag \"--no-such-flag\""),
    (&[ROADS, SOCIAL], "unexpected extra input \"tests/data/social.tsv\""),
    (&[], "missing input: a graph file path or a gen:SPEC"),
    (&["--algo", "bounds"], "missing input: a graph file path or a gen:SPEC"),
    // The rules between flags.
    (&[SOCIAL, "--directed", "--symmetrize"], "--directed and --symmetrize are mutually exclusive"),
    (&["gen:mesh:4", "--directed"], DIRECTED_GEN),
    (&[SOCIAL, "--directed", "--algo", "cldiam"], DIRECTED_ALGO),
    (&[SOCIAL, "--directed", "--algo", "delta"], DIRECTED_ALGO),
    (&[SOCIAL, "--directed", "--compress"], DIRECTED_TIER),
    (&[SOCIAL, "--directed", "--mmap"], DIRECTED_TIER),
    (&["gen:mesh:4", "--mmap"], MMAP_GEN),
    (&[ROADS, "--timeout-ms", "5", "--algo", "delta"], TIMEOUT_ALGO),
    (&[ROADS, "--timeout-checks", "2", "--algo", "cldiam"], TIMEOUT_ALGO),
    // Where several rules break, the first in the parser's order is reported.
    (
        &["gen:mesh:4", "--directed", "--symmetrize"],
        "--directed and --symmetrize are mutually exclusive",
    ),
    (&["gen:mesh:4", "--directed", "--algo", "cldiam"], DIRECTED_GEN),
    (&[SOCIAL, "--directed", "--algo", "delta", "--compress"], DIRECTED_ALGO),
    (&["gen:mesh:4", "--mmap", "--timeout-ms", "5", "--algo", "delta"], MMAP_GEN),
];

/// `(arguments, exit code, stderr)` for the errors found once parsing is
/// done, which print no synopsis.
const INPUT_ERRORS: &[(&[&str], i32, &str)] = &[
    (
        &[ROADS, "--mmap"],
        2,
        "--mmap needs a .cldg snapshot input or --cache (text has nothing to map)\n",
    ),
    (
        &["gen:nope:3"],
        2,
        "bad gen: spec \"nope:3\": unknown family \"nope\": expected mesh | rmat | road | ba | \
         gnm | roads\n",
    ),
];

/// Runs `cldiam ARGS` from the workspace root and returns its exit code,
/// stdout and stderr.
fn cldiam(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(CLDIAM)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(args)
        .output()
        .expect("cldiam binary runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (output.status.code(), text(output.stdout), text(output.stderr))
}

/// Asserts that no command in `cases` departs from its `(exit code,
/// stderr)`, naming every one that does.
fn assert_stderr(cases: impl Iterator<Item = (&'static [&'static str], i32, String)>) {
    let mut failures = Vec::new();
    for (args, code, expected) in cases {
        let (actual_code, _, stderr) = cldiam(args);
        if actual_code != Some(code) || stderr != expected {
            failures.push(format!(
                "cldiam {}: expected exit {code} and {expected:?}, got exit {actual_code:?} and \
                 {stderr:?}",
                args.join(" ")
            ));
        }
    }
    assert!(failures.is_empty(), "{} command(s) differ:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn usage_errors_exit_2_with_their_message_and_the_synopsis() {
    assert_stderr(
        USAGE_ERRORS
            .iter()
            .map(|&(args, message)| (args, 2, format!("{message}\n{USAGE}\n{HINT}\n"))),
    );
}

#[test]
fn input_errors_exit_with_their_message_alone() {
    assert_stderr(
        INPUT_ERRORS.iter().map(|&(args, code, stderr)| (args, code, stderr.to_string())),
    );
}

#[test]
fn an_unwritable_json_path_exits_1_after_the_report() {
    let (code, _, stderr) =
        cldiam(&[ROADS, "--algo", "delta", "--no-time", "--json", "tests/data"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr.lines().last(),
        Some("cannot write JSON to \"tests/data\": Is a directory (os error 21)")
    );
}

#[test]
fn help_prints_the_synopsis_and_every_flag_on_stdout() {
    for flag in ["--help", "-h"] {
        let (code, stdout, stderr) = cldiam(&[flag]);
        assert_eq!(code, Some(0), "cldiam {flag}");
        assert_eq!(stdout, format!("{USAGE}\n\n{HELP}\n"), "cldiam {flag}");
        assert_eq!(stderr, "", "cldiam {flag}");
    }
}
