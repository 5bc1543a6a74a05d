//! The `cldiam` command-line tool: CL-DIAM, the Δ-stepping baseline and the
//! anytime bounds engine on a graph file or a generator spec. `cldiam --help`
//! lists the inputs and flags.
//!
//! The program prints the Table 2-style text row (and the JSON rows with
//! `--json`). It exits 2 on a usage error and 1 when the input cannot be
//! loaded (naming the offending line for text formats), holds no node, or the
//! JSON cannot be written.

use std::fmt::Display;
use std::io::Read;
use std::path::Path;
use std::str::FromStr;
use std::time::{Duration, Instant};

use cldiam_bench::report::{render_table, to_json, ResultRow};
use cldiam_bench::runner::{
    reference_lower_bound, run_bounds, run_bounds_directed, run_cldiam, run_delta_stepping,
    RunResult,
};
use cldiam_bench::threads::install_with_threads;
use cldiam_core::{AnytimeConfig, ClusterConfig};
use cldiam_gen::GraphSpec;
use cldiam_graph::{
    detect_format, largest_component, load_graph_as, load_graph_cached_with, read_snapshot_file,
    CacheOptions, CancelToken, CompressedGraph, EdgeDirection, FileFormat, Graph, NeighborSource,
    SnapshotGraph, SnapshotOptions, INFINITY,
};
use cldiam_sssp::{BoundsConfig, ComponentSplit};

#[derive(Default)]
struct Options {
    input: String,
    tau: Option<usize>,
    target_quotient: usize,
    delta: Option<u32>,
    cluster2: bool,
    algo: Algo,
    bounds: BoundsConfig,
    timeout_ms: Option<u64>,
    timeout_checks: Option<u64>,
    no_quotient: bool,
    directed: bool,
    symmetrize: bool,
    seed: u64,
    threads: Option<usize>,
    largest_component: bool,
    cache: bool,
    compress: bool,
    shards: usize,
    mmap: bool,
    verify_snapshot: bool,
    json: Option<String>,
    no_time: bool,
}

#[derive(Clone, Copy, Default, PartialEq)]
enum Algo {
    Cldiam,
    Delta,
    #[default]
    Both,
    Bounds,
}

const USAGE: &str =
    "usage: cldiam <PATH | gen:SPEC> [--tau N] [--quotient N] [--delta D] [--cluster2]\n\
                     \u{20}             [--algo cldiam|delta|both|bounds] [--bounds-budget N]\n\
                     \u{20}             [--tolerance F] [--timeout-ms N] [--timeout-checks N]\n\
                     \u{20}             [--no-quotient] [--directed | --symmetrize]\n\
                     \u{20}             [--seed K] [--threads N] [--largest-component] [--cache]\n\
                     \u{20}             [--compress] [--shards N] [--mmap] [--verify-snapshot]\n\
                     \u{20}             [--json PATH] [--no-time]";

/// Prints `message` on stderr and exits with `code`.
fn exit_with(code: i32, message: impl Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code);
}

/// A usage error: `error`, then the synopsis, on stderr; exit code 2.
fn usage(error: impl Display) -> ! {
    exit_with(
        2,
        format_args!(
            "{error}\n{USAGE}\nrun `cldiam --help` or see the README's \"Supported file formats\" \
             section"
        ),
    )
}

/// Requested help goes to stdout and exits 0, unlike a usage error.
fn help() -> ! {
    println!(
        "{USAGE}\n\n\
         INPUT is a graph file (DIMACS .gr, SNAP/TSV edge list, or a binary .cldg\n\
         snapshot; format auto-detected) or a generator spec such as gen:mesh:32,\n\
         gen:rmat:10, gen:road:40x40, gen:ba:2000:8, gen:gnm:1000:4000,\n\
         gen:roads:3:20x20.\n\n\
         --tau N               CLUSTER batch size τ (default: auto from --quotient)\n\
         --quotient N          quotient-size target for the auto τ rule (default 2000)\n\
         --delta D             Δ-stepping bucket width (default: sweep a grid)\n\
         --cluster2            decompose with CLUSTER2 (Algorithm 2)\n\
         --algo A              cldiam | delta | both | bounds (default both)\n\
         --bounds-budget N     SSSP budget per component for --algo bounds (default 64)\n\
         --tolerance F         stop the bounds engine at ub ≤ F·lb (default 1.0)\n\
         --timeout-ms N        wall-clock deadline for --algo bounds; an expired run\n\
         \u{20}                     reports the best-so-far [lb, ub] (interrupted=true)\n\
         --timeout-checks N    logical deadline: stop after N cancellation checkpoints\n\
         \u{20}                     per component (deterministic across reruns)\n\
         --no-quotient         disable the quotient oracle inside --algo bounds\n\
         --directed            keep arc directions (text inputs, --algo bounds only)\n\
         --symmetrize          force the default symmetrizing load explicitly\n\
         --seed K              RNG seed (default 1)\n\
         --threads N           worker-pool size (default: CLDIAM_THREADS, then hardware)\n\
         --largest-component   extract the largest connected component first\n\
         --cache               reuse/write a binary .cldg snapshot next to the input\n\
         --compress            hold the graph as delta-varint compressed CSR\n\
         --shards N            shard the compressed payload (implies --compress)\n\
         --mmap                serve .cldg payloads zero-copy (with --cache or .cldg input)\n\
         --verify-snapshot     verify payload checksums on the mmap path too\n\
         --json PATH           write the JSON report rows to PATH (\"-\" for stdout)\n\
         --no-time             report wall-clock fields as 0 (byte-identical reruns)"
    );
    std::process::exit(0);
}

/// The argument after `flag`, its value; a missing one is a usage error.
fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| usage(format_args!("{flag} requires a value")))
}

/// The value of `flag` as a `T` that `valid` accepts; any other value is a
/// usage error saying what `flag` expects.
fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    valid: impl Fn(&T) -> bool,
    expects: &str,
) -> T {
    match next_value(args, flag).parse() {
        Ok(value) if valid(&value) => value,
        _ => usage(format_args!("{flag} expects {expects}")),
    }
}

/// The value of `flag` as a positive integer.
fn positive<T: FromStr + PartialOrd + From<u8>>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> T {
    flag_value(args, flag, |n| *n >= T::from(1), "a positive integer")
}

/// `--directed` and `--timeout-*` need the bounds engine, the one
/// direction-aware and interruptible algorithm: they narrow the default
/// `both` to it and reject `cldiam` and `delta` with `error`.
fn require_bounds(algo: &mut Algo, error: &str) {
    match algo {
        Algo::Bounds => {}
        Algo::Both => *algo = Algo::Bounds,
        Algo::Cldiam | Algo::Delta => usage(error),
    }
}

fn parse_args() -> Options {
    let mut options = Options { target_quotient: 2_000, seed: 1, shards: 1, ..Options::default() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--tau" => options.tau = Some(positive(&mut args, flag)),
            "--quotient" => options.target_quotient = positive(&mut args, flag),
            "--delta" => options.delta = Some(positive(&mut args, flag)),
            "--cluster2" => options.cluster2 = true,
            "--algo" => {
                options.algo = match next_value(&mut args, flag).as_str() {
                    "cldiam" => Algo::Cldiam,
                    "delta" => Algo::Delta,
                    "both" => Algo::Both,
                    "bounds" => Algo::Bounds,
                    other => usage(format_args!(
                        "unknown --algo {other:?}: expected cldiam | delta | both | bounds"
                    )),
                }
            }
            "--bounds-budget" => options.bounds.max_sssp = positive(&mut args, flag),
            "--tolerance" => {
                let valid = |f: &f64| f.is_finite() && *f >= 1.0;
                options.bounds.tolerance =
                    flag_value(&mut args, flag, valid, "a finite number >= 1.0");
            }
            "--timeout-ms" => {
                let expects = "an unsigned integer (milliseconds)";
                options.timeout_ms = Some(flag_value(&mut args, flag, |_| true, expects));
            }
            "--timeout-checks" => options.timeout_checks = Some(positive(&mut args, flag)),
            "--no-quotient" => options.no_quotient = true,
            "--directed" => options.directed = true,
            "--symmetrize" => options.symmetrize = true,
            "--seed" => options.seed = flag_value(&mut args, flag, |_| true, "an unsigned integer"),
            "--threads" => options.threads = Some(positive(&mut args, flag)),
            "--largest-component" | "--lcc" => options.largest_component = true,
            "--cache" => options.cache = true,
            "--compress" => options.compress = true,
            "--shards" => {
                options.shards = positive(&mut args, flag);
                options.compress = true;
            }
            "--mmap" => options.mmap = true,
            "--verify-snapshot" => options.verify_snapshot = true,
            "--json" => options.json = Some(next_value(&mut args, flag)),
            "--no-time" => options.no_time = true,
            "--help" | "-h" => help(),
            other if other.starts_with("--") => usage(format_args!("unknown flag {other:?}")),
            other if options.input.is_empty() => options.input = other.to_string(),
            other => usage(format_args!("unexpected extra input {other:?}")),
        }
    }
    if options.input.is_empty() {
        usage("missing input: a graph file path or a gen:SPEC");
    }
    let generated = options.input.starts_with("gen:");
    if options.directed {
        if options.symmetrize {
            usage("--directed and --symmetrize are mutually exclusive");
        }
        if generated {
            usage("--directed needs a text graph file; gen: workloads are undirected");
        }
        require_bounds(&mut options.algo, "--directed supports --algo bounds only");
        if options.cache {
            eprintln!("[cldiam] --cache ignored: binary snapshots are undirected");
            options.cache = false;
        }
        if options.compress || options.mmap {
            usage(
                "--directed supports neither --compress nor --mmap: the directed bounds engine \
                 needs the dense in-arc arrays",
            );
        }
    }
    if options.mmap && generated {
        usage("--mmap needs a file input: gen: workloads have nothing to map");
    }
    if options.timeout_ms.is_some() || options.timeout_checks.is_some() {
        require_bounds(
            &mut options.algo,
            "--timeout-ms / --timeout-checks support --algo bounds only",
        );
    }
    options
}

/// Builds the cooperative cancellation token from the timeout flags. The
/// wall deadline starts ticking here, so call this right before the run.
fn cancel_token(options: &Options) -> CancelToken {
    let token =
        options.timeout_checks.map_or_else(CancelToken::never, CancelToken::with_check_limit);
    match options.timeout_ms {
        Some(ms) => token.and_deadline(Duration::from_millis(ms)),
        None => token,
    }
}

/// Wraps a dense graph in the tier the flags selected.
fn tiered(graph: Graph, options: &Options) -> SnapshotGraph {
    if options.compress {
        SnapshotGraph::Compressed(CompressedGraph::from_graph(&graph, options.shards))
    } else {
        SnapshotGraph::Dense(graph)
    }
}

/// Loads the input graph, in whichever CSR tier the flags selected: a `gen:`
/// spec or a file in any supported format. Every undirected pipeline below
/// is generic over [`NeighborSource`], so both tiers feed the same code.
fn load_input(options: &Options) -> (SnapshotGraph, String) {
    if let Some(spec_text) = options.input.strip_prefix("gen:") {
        let spec = GraphSpec::parse(spec_text)
            .unwrap_or_else(|e| exit_with(2, format_args!("bad gen: spec {spec_text:?}: {e}")));
        let graph = spec.generate(options.seed);
        let label = spec.label();
        return (tiered(graph, options), label);
    }
    let label = Path::new(&options.input)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| options.input.clone());
    let fail = |e: &dyn Display| -> ! {
        exit_with(1, format_args!("cannot load {:?}: {e}", options.input))
    };
    if options.cache {
        let cache_options = CacheOptions {
            compress: options.compress,
            shards: options.shards,
            mmap: options.mmap,
            verify: options.verify_snapshot,
        };
        let (graph, from_snapshot) =
            load_graph_cached_with(&options.input, &cache_options).unwrap_or_else(|e| fail(&e));
        if from_snapshot {
            eprintln!("(loaded binary snapshot, text parse skipped)");
        }
        return (graph, label);
    }
    // Sniff the head so snapshot inputs can be served in their native tier
    // (and zero-copy under --mmap) without reading the whole file first.
    let path = Path::new(&options.input);
    let mut head = Vec::new();
    match std::fs::File::open(path) {
        Ok(file) => {
            if let Err(e) = file.take(4096).read_to_end(&mut head) {
                fail(&e);
            }
        }
        Err(e) => fail(&e),
    }
    if detect_format(path, &head) == FileFormat::Binary && !options.directed {
        let snapshot_options =
            SnapshotOptions { mmap: options.mmap, verify: options.verify_snapshot };
        let snap = read_snapshot_file(path, &snapshot_options).unwrap_or_else(|e| fail(&e));
        let source = match snap.graph {
            SnapshotGraph::Dense(g) => tiered(g, options),
            compressed @ SnapshotGraph::Compressed(_) => compressed,
        };
        return (source, label);
    }
    if options.mmap {
        exit_with(2, "--mmap needs a .cldg snapshot input or --cache (text has nothing to map)");
    }
    let direction =
        if options.directed { EdgeDirection::Directed } else { EdgeDirection::Symmetrize };
    let loaded = load_graph_as(&options.input, direction).unwrap_or_else(|e| fail(&e));
    if loaded.asymmetric_arcs > 0 {
        if options.directed {
            eprintln!("[cldiam] {} one-way arc(s) kept directed", loaded.asymmetric_arcs);
        } else if !options.symmetrize {
            eprintln!(
                "[cldiam] warning: {} arc(s) u→v have no companion v→u; the input \
                 looks directed and was symmetrized — pass --directed to keep arc \
                 directions (or --symmetrize to silence this check)",
                loaded.asymmetric_arcs
            );
        }
    }
    (tiered(loaded.graph, options), label)
}

fn main() {
    let options = parse_args();
    install_with_threads(options.threads, || run(&options));
}

/// Prints a bounds run's iteration trace to stderr, one line per SSSP (or
/// per oracle consult), so a long run shows its anytime progress.
fn print_bounds_progress(result: &RunResult) {
    let Some(outcome) = &result.bounds else { return };
    for (i, it) in outcome.iterations.iter().enumerate() {
        let source = match it.source {
            Some(s) => format!("source={s}"),
            None => "quotient-oracle".to_string(),
        };
        let upper = if it.upper == INFINITY { "inf".to_string() } else { it.upper.to_string() };
        eprintln!(
            "[bounds] it {}: {source} sssp={} lb={} ub={upper} open={}",
            i + 1,
            it.sssp_runs,
            it.lower,
            it.open
        );
    }
}

/// The full undirected pipeline — CL-DIAM, the Δ-stepping baseline and the
/// bounds engine all run through [`NeighborSource`], so the dense and the
/// compressed tier share this code without branching.
fn run_undirected<G: NeighborSource>(graph: &G, options: &Options) -> Vec<RunResult> {
    let tau = options.tau.unwrap_or_else(|| {
        ClusterConfig::tau_for_quotient_target(graph.num_nodes(), options.target_quotient)
    });
    let config = ClusterConfig::default()
        .with_tau(tau)
        .with_seed(options.seed)
        .with_cluster2(options.cluster2);

    let mut results = Vec::new();
    // One connectivity pass serves the reference lower bound, the Δ-stepping
    // baseline and the bounds engine alike.
    let split = ComponentSplit::compute(graph);
    if options.algo != Algo::Bounds {
        let lower = reference_lower_bound(graph, options.seed, &split);
        if options.algo != Algo::Delta {
            results.push(run_cldiam(graph, lower, &config));
        }
        if options.algo != Algo::Cldiam {
            results.push(run_delta_stepping(graph, options.delta, lower, options.seed, &split));
        }
    } else {
        let cluster = (!options.no_quotient).then_some(config);
        let anytime = AnytimeConfig { bounds: options.bounds, cluster };
        results.push(run_bounds(graph, &anytime, &split, &cancel_token(options)));
    }
    results
}

fn run(options: &Options) {
    let load_started = Instant::now();
    let (mut source, label) = load_input(options);
    let mut proxy = options.input.clone();
    if options.largest_component {
        // Component extraction is dense machinery; a compressed source round
        // trips through the dense tier and is recompressed afterwards.
        let was_compressed = matches!(source, SnapshotGraph::Compressed(_));
        let dense = source.into_dense();
        let raw_nodes = dense.num_nodes();
        let (core, _) = largest_component(&dense);
        eprintln!("[cldiam] largest component: {} of {} nodes kept", core.num_nodes(), raw_nodes);
        proxy.push_str(" (largest component)");
        source = if was_compressed || options.compress {
            SnapshotGraph::Compressed(CompressedGraph::from_graph(&core, options.shards))
        } else {
            SnapshotGraph::Dense(core)
        };
    }
    let (nodes, edges, tier) = match &source {
        SnapshotGraph::Dense(g) => (g.num_nodes(), g.num_edges(), "dense csr".to_string()),
        SnapshotGraph::Compressed(c) => {
            (c.num_nodes(), c.num_edges(), format!("compressed csr, {} shard(s)", c.num_shards()))
        }
    };
    eprintln!(
        "[cldiam] {label}: {nodes} nodes, {edges} edges ({tier}; loaded in {:.2}s)",
        load_started.elapsed().as_secs_f64()
    );
    if nodes == 0 {
        exit_with(1, "[cldiam] the graph is empty; nothing to estimate");
    }

    let mut results = match &source {
        // parse_args narrowed directed inputs to the bounds engine, which runs
        // the whole digraph (no component split) with no oracle.
        SnapshotGraph::Dense(graph) if graph.is_directed() => {
            vec![run_bounds_directed(graph, &options.bounds, &cancel_token(options))]
        }
        SnapshotGraph::Dense(graph) => run_undirected(graph, options),
        SnapshotGraph::Compressed(graph) => run_undirected(graph, options),
    };
    results.iter().for_each(print_bounds_progress);
    if options.no_time {
        for result in &mut results {
            result.time_s = 0.0;
        }
    }

    let rows = vec![ResultRow { graph: label.clone(), proxy, nodes, edges, results }];
    println!("{}", render_table(&format!("cldiam — {label}"), &rows));
    if let Some(path) = &options.json {
        let json = to_json(&rows);
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(path, json).unwrap_or_else(|e| {
                exit_with(1, format_args!("cannot write JSON to {path:?}: {e}"))
            });
            eprintln!("(raw rows written to {path})");
        }
    }
}
