//! End-to-end diameter approximation of a graph file (or generator spec).
//!
//! ```text
//! cldiam <INPUT> [options]
//!
//! INPUT:
//!   PATH            a graph file: DIMACS .gr, SNAP/TSV edge list, or a
//!                   binary .cldg snapshot (format auto-detected)
//!   gen:SPEC        a synthetic workload, e.g. gen:mesh:32, gen:rmat:10,
//!                   gen:road:40x40, gen:ba:2000:8, gen:gnm:1000:4000,
//!                   gen:roads:3:20x20
//!
//! options:
//!   --tau N         CLUSTER batch size τ (default: auto from --quotient)
//!   --quotient N    quotient-size target for the auto τ rule (default 2000)
//!   --delta D       Δ-stepping bucket width (default: sweep a grid, keep
//!                   the fewest-rounds configuration)
//!   --cluster2      decompose with CLUSTER2 (Algorithm 2) instead of CLUSTER
//!   --algo A        cldiam | delta | both | bounds (default both)
//!   --bounds-budget N
//!                   SSSP budget per component for --algo bounds (default 64)
//!   --tolerance F   stop the bounds engine at ub ≤ F·lb (default 1.0: exact)
//!   --timeout-ms N  wall-clock deadline for --algo bounds: the engine stops
//!                   at the next SSSP boundary past the deadline and reports
//!                   the best-so-far [lb, ub] with interrupted=true
//!   --timeout-checks N
//!                   logical deadline: stop after N cancellation checkpoints
//!                   per component (deterministic, unlike wall-clock time)
//!   --no-quotient   disable the CL-DIAM quotient oracle inside --algo bounds
//!   --directed      keep arc directions (text inputs only; implies
//!                   --algo bounds, the only direction-aware algorithm)
//!   --symmetrize    explicitly request the default symmetrizing load and
//!                   silence the one-way-arc warning
//!   --seed K        RNG seed (default 1)
//!   --threads N     worker-pool size (default: CLDIAM_THREADS, then hardware)
//!   --largest-component
//!                   extract the largest connected component before running
//!                   (what the paper does with every real-world graph);
//!                   in --directed mode: the largest *weakly* connected one
//!   --cache         reuse/write a binary .cldg snapshot next to the input
//!   --compress      hold the graph as delta-varint compressed CSR (and write
//!                   compressed snapshot payloads under --cache)
//!   --shards N      split the compressed payload into N node-range shards
//!                   (implies --compress)
//!   --mmap          serve .cldg payloads zero-copy from a memory mapping
//!                   (needs --cache or a .cldg input)
//!   --verify-snapshot
//!                   verify payload checksums on the mmap path too (buffered
//!                   loads always verify)
//!   --json PATH     write the JSON report rows to PATH ("-" for stdout)
//!   --no-time       report wall-clock fields as 0 so output is byte-identical
//!                   across runs and thread counts (used by the CI matrix)
//! ```
//!
//! The program prints the Table 2-style text row and exits non-zero on any
//! parse error (with the offending line number for text formats).

use std::io::Read;
use std::path::Path;
use std::time::{Duration, Instant};

use cldiam_bench::json::Value;
use cldiam_bench::report::{render_table, to_json, ResultRow};
use cldiam_bench::runner::{
    reference_lower_bound, run_bounds, run_bounds_directed, run_cldiam, run_delta_stepping,
    RunResult,
};
use cldiam_bench::threads::{configured_threads, install_with_threads};
use cldiam_core::{AnytimeConfig, ClusterConfig};
use cldiam_gen::GraphSpec;
use cldiam_graph::{
    detect_format, largest_component, load_graph_as, load_graph_cached_with, read_snapshot_file,
    CacheOptions, CancelToken, CompressedGraph, EdgeDirection, FileFormat, Graph, NeighborSource,
    SnapshotGraph, SnapshotOptions,
};
use cldiam_sssp::{BoundsConfig, ComponentSplit};

struct Options {
    input: String,
    tau: Option<usize>,
    target_quotient: usize,
    delta: Option<u32>,
    cluster2: bool,
    algo: Algo,
    bounds_budget: usize,
    tolerance: f64,
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

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Cldiam,
    Delta,
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

fn usage() -> ! {
    eprintln!(
        "{USAGE}\nrun `cldiam --help` or see the README's \"Supported file formats\" section"
    );
    std::process::exit(2);
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

fn parse_args() -> Options {
    let mut options = Options {
        input: String::new(),
        tau: None,
        target_quotient: 2_000,
        delta: None,
        cluster2: false,
        algo: Algo::Both,
        bounds_budget: 64,
        tolerance: 1.0,
        timeout_ms: None,
        timeout_checks: None,
        no_quotient: false,
        directed: false,
        symmetrize: false,
        seed: 1,
        threads: configured_threads(),
        largest_component: false,
        cache: false,
        compress: false,
        shards: 1,
        mmap: false,
        verify_snapshot: false,
        json: None,
        no_time: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tau" => match value(&mut args, "--tau").parse() {
                Ok(n) if n >= 1 => options.tau = Some(n),
                _ => {
                    eprintln!("--tau expects a positive integer");
                    usage()
                }
            },
            "--quotient" => match value(&mut args, "--quotient").parse() {
                Ok(n) if n >= 1 => options.target_quotient = n,
                _ => {
                    eprintln!("--quotient expects a positive integer");
                    usage()
                }
            },
            "--delta" => match value(&mut args, "--delta").parse() {
                Ok(d) if d >= 1 => options.delta = Some(d),
                _ => {
                    eprintln!("--delta expects a positive integer");
                    usage()
                }
            },
            "--cluster2" => options.cluster2 = true,
            "--algo" => {
                options.algo = match value(&mut args, "--algo").as_str() {
                    "cldiam" => Algo::Cldiam,
                    "delta" => Algo::Delta,
                    "both" => Algo::Both,
                    "bounds" => Algo::Bounds,
                    other => {
                        eprintln!(
                            "unknown --algo {other:?}: expected cldiam | delta | both | bounds"
                        );
                        usage()
                    }
                }
            }
            "--bounds-budget" => match value(&mut args, "--bounds-budget").parse() {
                Ok(n) if n >= 1 => options.bounds_budget = n,
                _ => {
                    eprintln!("--bounds-budget expects a positive integer");
                    usage()
                }
            },
            "--tolerance" => match value(&mut args, "--tolerance").parse::<f64>() {
                Ok(f) if f.is_finite() && f >= 1.0 => options.tolerance = f,
                _ => {
                    eprintln!("--tolerance expects a finite number >= 1.0");
                    usage()
                }
            },
            "--timeout-ms" => match value(&mut args, "--timeout-ms").parse() {
                Ok(n) => options.timeout_ms = Some(n),
                Err(_) => {
                    eprintln!("--timeout-ms expects an unsigned integer (milliseconds)");
                    usage()
                }
            },
            "--timeout-checks" => match value(&mut args, "--timeout-checks").parse() {
                Ok(n) if n >= 1 => options.timeout_checks = Some(n),
                _ => {
                    eprintln!("--timeout-checks expects a positive integer");
                    usage()
                }
            },
            "--no-quotient" => options.no_quotient = true,
            "--directed" => options.directed = true,
            "--symmetrize" => options.symmetrize = true,
            "--seed" => match value(&mut args, "--seed").parse() {
                Ok(k) => options.seed = k,
                Err(_) => {
                    eprintln!("--seed expects an unsigned integer");
                    usage()
                }
            },
            "--threads" => match value(&mut args, "--threads").parse() {
                Ok(n) if n >= 1 => options.threads = Some(n),
                _ => {
                    eprintln!("--threads expects a positive integer");
                    usage()
                }
            },
            "--largest-component" | "--lcc" => options.largest_component = true,
            "--cache" => options.cache = true,
            "--compress" => options.compress = true,
            "--shards" => match value(&mut args, "--shards").parse() {
                Ok(n) if n >= 1 => {
                    options.shards = n;
                    options.compress = true;
                }
                _ => {
                    eprintln!("--shards expects a positive integer");
                    usage()
                }
            },
            "--mmap" => options.mmap = true,
            "--verify-snapshot" => options.verify_snapshot = true,
            "--json" => options.json = Some(value(&mut args, "--json")),
            "--no-time" => options.no_time = true,
            "--help" | "-h" => help(),
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
            other if options.input.is_empty() => options.input = other.to_string(),
            other => {
                eprintln!("unexpected extra input {other:?}");
                usage()
            }
        }
    }
    if options.input.is_empty() {
        eprintln!("missing input: a graph file path or a gen:SPEC");
        usage();
    }
    if options.directed && options.symmetrize {
        eprintln!("--directed and --symmetrize are mutually exclusive");
        usage();
    }
    if options.directed {
        if options.input.starts_with("gen:") {
            eprintln!("--directed needs a text graph file; gen: workloads are undirected");
            usage();
        }
        match options.algo {
            Algo::Bounds => {}
            // The default `both` silently narrows: bounds is the only
            // direction-aware algorithm.
            Algo::Both => options.algo = Algo::Bounds,
            Algo::Cldiam | Algo::Delta => {
                eprintln!("--directed supports --algo bounds only");
                usage();
            }
        }
        if options.cache {
            eprintln!("[cldiam] --cache ignored: binary snapshots are undirected");
            options.cache = false;
        }
        if options.compress || options.mmap {
            eprintln!(
                "--directed supports neither --compress nor --mmap: the directed bounds \
                       engine needs the dense in-arc arrays"
            );
            usage();
        }
    }
    if options.mmap && options.input.starts_with("gen:") {
        eprintln!("--mmap needs a file input: gen: workloads have nothing to map");
        usage();
    }
    if options.timeout_ms.is_some() || options.timeout_checks.is_some() {
        match options.algo {
            Algo::Bounds => {}
            // As with --directed, the default `both` narrows silently:
            // bounds is the only anytime (interruptible) algorithm.
            Algo::Both => options.algo = Algo::Bounds,
            Algo::Cldiam | Algo::Delta => {
                eprintln!("--timeout-ms / --timeout-checks support --algo bounds only");
                usage();
            }
        }
    }
    options
}

/// Builds the cooperative cancellation token from the timeout flags. The
/// wall deadline starts ticking here, so call this right before the run.
fn cancel_token(options: &Options) -> CancelToken {
    match (options.timeout_ms, options.timeout_checks) {
        (None, None) => CancelToken::never(),
        (Some(ms), None) => CancelToken::with_deadline(Duration::from_millis(ms)),
        (None, Some(k)) => CancelToken::with_check_limit(k),
        (Some(ms), Some(k)) => {
            CancelToken::with_check_limit(k).and_deadline(Duration::from_millis(ms))
        }
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
        let spec = GraphSpec::parse(spec_text).unwrap_or_else(|e| {
            eprintln!("bad gen: spec {spec_text:?}: {e}");
            std::process::exit(2);
        });
        let graph = spec.generate(options.seed);
        let label = spec.label();
        return (tiered(graph, options), label);
    }
    let label = Path::new(&options.input)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| options.input.clone());
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("cannot load {:?}: {e}", options.input);
        std::process::exit(1);
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
        eprintln!("--mmap needs a .cldg snapshot input or --cache (text has nothing to map)");
        std::process::exit(2);
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

/// Streams the bounds engine's iteration trace to stderr, one line per SSSP
/// (or per oracle consult), so long runs show their anytime progress.
fn print_bounds_progress(result: &RunResult) {
    let Some(Value::Array(items)) = &result.iterations else { return };
    for (i, it) in items.iter().enumerate() {
        let source = match it.get("source").as_u64() {
            Some(s) => format!("source={s}"),
            None => "quotient-oracle".to_string(),
        };
        let upper = match it.get("upper").as_u64() {
            Some(u) => u.to_string(),
            None => "inf".to_string(),
        };
        eprintln!(
            "[bounds] it {}: {} sssp={} lb={} ub={} open={}",
            i + 1,
            source,
            it.get("sssp_runs").as_u64().unwrap_or(0),
            it.get("lower").as_u64().unwrap_or(0),
            upper,
            it.get("open").as_u64().unwrap_or(0),
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
    let bounds_config = BoundsConfig::default()
        .with_max_sssp(options.bounds_budget)
        .with_tolerance(options.tolerance);

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
        let cluster = if options.no_quotient { None } else { Some(config.clone()) };
        let anytime = AnytimeConfig { bounds: bounds_config, cluster };
        let result = run_bounds(graph, &anytime, &split, &cancel_token(options));
        print_bounds_progress(&result);
        results.push(result);
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
        eprintln!("[cldiam] the graph is empty; nothing to estimate");
        std::process::exit(1);
    }

    let mut results = match &source {
        SnapshotGraph::Dense(graph) if graph.is_directed() => {
            // parse_args narrowed directed inputs to the bounds engine, which
            // runs the whole digraph (no component split) with no oracle.
            let bounds_config = BoundsConfig::default()
                .with_max_sssp(options.bounds_budget)
                .with_tolerance(options.tolerance);
            let anytime = AnytimeConfig { bounds: bounds_config, cluster: None };
            let result = run_bounds_directed(graph, &anytime, &cancel_token(options));
            print_bounds_progress(&result);
            vec![result]
        }
        SnapshotGraph::Dense(graph) => run_undirected(graph, options),
        SnapshotGraph::Compressed(graph) => run_undirected(graph, options),
    };
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
                eprintln!("cannot write JSON to {path:?}: {e}");
                std::process::exit(1);
            });
            eprintln!("(raw rows written to {path})");
        }
    }
}
