//! Regenerates every table and figure of the paper's evaluation section on
//! laptop-scale synthetic proxies.
//!
//! ```text
//! reproduce <experiment> [--scale S] [--seed K] [--json PATH] [--threads N]
//!
//! experiments:
//!   table1   benchmark graph inventory (n, m, diameter)
//!   table2   CL-DIAM vs Δ-stepping: approximation, time, rounds, work
//!   table3   CL-DIAM on the two big graphs
//!   fig1     approximation-ratio series (same runs as table2)
//!   fig2     rounds series (log scale in the paper)
//!   fig3     work series (log scale in the paper)
//!   fig4     scalability vs number of machines
//!   delta    the §5 initial-Δ experiment
//!   all      everything above
//! ```
//!
//! `--scale` rescales every workload (1.0 ≈ tens of thousands of nodes;
//! the default 0.5 finishes in a few minutes on a laptop); `--json` writes the
//! raw rows of the table/figure experiments next to the printed text;
//! `--threads` pins the worker pool every experiment runs on (defaulting to
//! the `CLDIAM_THREADS` environment variable, then the hardware). `fig4`
//! ignores the pin for its measurement loop, since sweeping the worker count
//! is the experiment.

use std::time::Instant;

use cldiam_bench::report::{render_figure, render_table, to_json};
use cldiam_bench::runner::{
    reference_lower_bound, reference_lower_bound_with_split, run_cldiam, run_delta_stepping_best,
};
use cldiam_bench::workloads::{Workload, WorkloadSet};
use cldiam_bench::ResultRow;
use cldiam_core::{approximate_diameter, ClDiam, ClusterConfig, InitialDelta};
use cldiam_graph::stats::GraphStats;
use cldiam_sssp::{diameter_lower_bound, unweighted_diameter, ComponentSplit};

struct Options {
    experiment: String,
    scale: f64,
    seed: u64,
    json: Option<String>,
    target_quotient: usize,
    threads: Option<usize>,
}

fn parse_args() -> Options {
    let mut options = Options {
        experiment: "all".to_string(),
        scale: 0.5,
        seed: 1,
        json: None,
        target_quotient: 2_000,
        threads: cldiam_bench::configured_threads(),
    };
    let mut args = std::env::args().skip(1);
    if let Some(first) = args.next() {
        options.experiment = first;
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                options.scale = args.next().and_then(|v| v.parse().ok()).unwrap_or(options.scale)
            }
            "--seed" => {
                options.seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(options.seed)
            }
            "--json" => options.json = args.next(),
            "--quotient" => {
                options.target_quotient =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or(options.target_quotient)
            }
            "--threads" => {
                options.threads =
                    args.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).or(options.threads)
            }
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    options
}

/// Quotient-size target for a graph of `n` nodes: the paper keeps the
/// quotient "≤ 100,000 nodes" on multi-million-node inputs; at laptop scale
/// the equivalent rule is a fixed fraction of the graph (clamped below by the
/// CLI floor and above by the paper's absolute cap).
fn quotient_target(n: usize, floor: usize) -> usize {
    (n / 4).clamp(floor, 100_000)
}

/// Runs both algorithms on every Table 2 workload, producing the shared rows
/// behind Table 2 and Figures 1–3.
fn table2_rows(options: &Options) -> Vec<ResultRow> {
    let mut rows = Vec::new();
    for workload in WorkloadSet::table2(options.scale, options.seed) {
        let graph = workload.generate();
        let stats = GraphStats::compute(&graph);
        eprintln!(
            "[table2] {} ({}): {} nodes, {} edges",
            workload.paper_name, workload.proxy, stats.nodes, stats.edges
        );
        let split = ComponentSplit::compute(&graph);
        let lower = reference_lower_bound_with_split(&graph, options.seed, &split);
        let target = quotient_target(stats.nodes, options.target_quotient);
        let cl = run_cldiam(&graph, lower, target, options.seed);
        let ds = run_delta_stepping_best(&graph, lower, options.seed, &split);
        rows.push(ResultRow {
            graph: workload.paper_name.to_string(),
            proxy: workload.proxy.clone(),
            nodes: stats.nodes,
            edges: stats.edges,
            results: vec![cl, ds],
        });
    }
    rows
}

fn table1(options: &Options) {
    println!("\nTable 1 — benchmark graphs (synthetic proxies at scale {})", options.scale);
    println!(
        "{:<14} {:<40} {:>10} {:>10} {:>14} {:>8}",
        "graph", "proxy", "n", "m", "diameter(lb)", "Psi(lb)"
    );
    let mut workloads = WorkloadSet::table2(options.scale, options.seed);
    workloads.extend(WorkloadSet::table3(options.scale, options.seed));
    for w in workloads {
        let graph = w.generate();
        let stats = GraphStats::compute(&graph);
        let lower = diameter_lower_bound(&graph, 2, options.seed);
        let psi = unweighted_diameter(&graph, 2, options.seed);
        println!(
            "{:<14} {:<40} {:>10} {:>10} {:>14} {:>8}",
            w.paper_name, w.proxy, stats.nodes, stats.edges, lower, psi
        );
    }
}

fn table2(options: &Options, rows: &[ResultRow]) {
    println!();
    println!("{}", render_table("Table 2 — CL-DIAM vs Δ-stepping", rows));
    if let Some(path) = &options.json {
        std::fs::write(path, to_json(rows)).expect("write JSON output");
        println!("(raw rows written to {path})");
    }
}

fn figures(rows: &[ResultRow]) {
    println!();
    println!(
        "{}",
        render_figure("Figure 1 — approximation ratio", rows, "ratio", |r| r.approximation)
    );
    println!(
        "{}",
        render_figure("Figure 2 — rounds (paper plots log scale)", rows, "rounds", |r| r.rounds
            as f64)
    );
    println!(
        "{}",
        render_figure("Figure 3 — work (paper plots log scale)", rows, "work", |r| r.work as f64)
    );
}

fn table3(options: &Options) {
    println!("\nTable 3 — big graphs (CL-DIAM only)");
    println!(
        "{:<14} {:<40} {:>10} {:>10} {:>10} {:>8} {:>12}",
        "graph", "proxy", "n", "m", "time(s)", "rounds", "work"
    );
    for w in WorkloadSet::table3(options.scale, options.seed) {
        let graph = w.generate();
        let stats = GraphStats::compute(&graph);
        let lower = reference_lower_bound(&graph, options.seed);
        let result = run_cldiam(
            &graph,
            lower,
            quotient_target(stats.nodes, options.target_quotient),
            options.seed,
        );
        println!(
            "{:<14} {:<40} {:>10} {:>10} {:>10.2} {:>8} {:>12.3e}",
            w.paper_name,
            w.proxy,
            stats.nodes,
            stats.edges,
            result.time_s,
            result.rounds,
            result.work as f64
        );
    }
}

fn figure4(options: &Options) {
    println!("\nFigure 4 — scalability of CL-DIAM vs number of machines");
    let machine_counts = [1usize, 2, 4, 8, 16];
    print!("{:<14} {:>10}", "graph", "nodes");
    for m in machine_counts {
        print!(" {:>12}", format!("{m} machines"));
    }
    println!();
    for w in WorkloadSet::figure4(options.scale, options.seed) {
        let graph = w.generate();
        print!("{:<14} {:>10}", w.paper_name, graph.num_nodes());
        for machines in machine_counts {
            let pool =
                rayon::ThreadPoolBuilder::new().num_threads(machines).build().expect("thread pool");
            let tau = ClusterConfig::tau_for_quotient_target(
                graph.num_nodes(),
                quotient_target(graph.num_nodes(), options.target_quotient),
            );
            let config = ClusterConfig::default().with_tau(tau).with_seed(options.seed);
            let started = Instant::now();
            let estimate = pool.install(|| approximate_diameter(&graph, &config));
            assert!(estimate.upper_bound > 0);
            print!(" {:>11.2}s", started.elapsed().as_secs_f64());
        }
        println!();
    }
    println!("(the paper reports near-linear speedups from 2 to 16 Spark workers; each");
    println!(" machine count above runs on a dedicated worker pool of that size, so the");
    println!(" speedup you observe is bounded by the physical cores of this host)");
}

fn delta_experiment(options: &Options) {
    println!("\n§5 experiment — sensitivity to the initial Δ (bimodal mesh)");
    let workload: Workload = WorkloadSet::delta_experiment(options.scale, options.seed);
    let graph = workload.generate();
    let lower = reference_lower_bound(&graph, options.seed);
    println!(
        "workload: {} — {} nodes, {} edges, diameter ≥ {lower}",
        workload.proxy,
        graph.num_nodes(),
        graph.num_edges()
    );
    let tau = ClusterConfig::tau_for_quotient_target(
        graph.num_nodes(),
        quotient_target(graph.num_nodes(), options.target_quotient),
    );
    let policies = [
        ("min edge weight", InitialDelta::MinWeight),
        ("average edge weight", InitialDelta::AvgWeight),
        ("graph diameter", InitialDelta::Fixed(lower)),
    ];
    println!(
        "{:<22} {:>14} {:>10} {:>8} {:>12} {:>12}",
        "initial Δ", "estimate", "ratio", "rounds", "Δ_end", "time(s)"
    );
    for (name, policy) in policies {
        let config = ClusterConfig::default()
            .with_tau(tau)
            .with_seed(options.seed)
            .with_initial_delta(policy);
        let driver = ClDiam::new(config);
        let started = Instant::now();
        let clustering = driver.decompose(&graph);
        let estimate = driver.estimate_from_clustering(&graph, &clustering);
        println!(
            "{:<22} {:>14} {:>10.4} {:>8} {:>12} {:>12.2}",
            name,
            estimate.upper_bound,
            estimate.ratio_against(lower),
            estimate.metrics.rounds,
            clustering.delta_end,
            started.elapsed().as_secs_f64()
        );
    }
    println!("(paper: ratio 1.0001 when Δ starts at the minimum weight, ≈2.5 when it starts at the diameter)");
}

fn main() {
    let options = parse_args();
    let experiment = options.experiment.as_str();
    if let Some(threads) = options.threads {
        eprintln!("(running on a {threads}-thread worker pool)");
    }
    let started = Instant::now();
    // Every experiment runs inside the requested pool; fig4 builds its own
    // per-machine-count pools on top, which is the point of that experiment.
    cldiam_bench::install_with_threads(options.threads, || match experiment {
        "table1" => table1(&options),
        "table2" => {
            let rows = table2_rows(&options);
            table2(&options, &rows);
        }
        "table3" => table3(&options),
        "fig1" | "fig2" | "fig3" => {
            let rows = table2_rows(&options);
            figures(&rows);
        }
        "fig4" => figure4(&options),
        "delta" => delta_experiment(&options),
        "all" => {
            table1(&options);
            let rows = table2_rows(&options);
            table2(&options, &rows);
            figures(&rows);
            table3(&options);
            figure4(&options);
            delta_experiment(&options);
        }
        other => {
            eprintln!("unknown experiment {other:?}; expected table1|table2|table3|fig1|fig2|fig3|fig4|delta|all");
            std::process::exit(2);
        }
    });
    eprintln!("\ncompleted {experiment:?} in {:.1}s", started.elapsed().as_secs_f64());
}
