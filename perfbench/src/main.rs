//! The CL-DIAM benchmark: the columns of the paper's Table 2 (approximation,
//! time, rounds, work) end to end, and split by layer, on three workloads
//! built with `cldiam-gen`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload road-2m --seed 1 --seconds 18 --trace 0
//! ```
//!
//! `--trace 0` sets up each graph and runs passes of the pipeline (component
//! split, reference lower bound, CL-DIAM, Δ-stepping, anytime bounds) at two
//! threads for `--seconds`, then prints the end-to-end metrics. `--trace 1`
//! makes two untraced passes and two traced ones (two threads, then one),
//! sweeps the Δ grid, checks CL-DIAM against `approximate_diameter`, runs
//! the bounds engine to convergence and on the other storage tier, and
//! prints the per-layer metrics; its spans go to
//! `.perfbench/trace-<workload>-seed<n>.jsonl`.
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod pipeline;
mod trace;
mod workload;

use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use cldiam_core::{anytime_diameter_with_split, approximate_diameter, AnytimeConfig};
use cldiam_graph::NeighborSource;
use cldiam_sssp::{delta_stepping_with_scratch, BoundsOutcome, ComponentSplit, SsspScratch};

use pipeline::{BoundsSummary, ClDiamRun, LayerTimes, Logical, DELTA_SOURCE};
use trace::Recorder;
use workload::{Instance, Workload, CONVERGENCE_BUDGET};

/// Worker threads of every untraced run: what the benchmark host has.
const THREADS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Where snapshots and span files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench";
/// The Δ-stepping grid of the Table 2 harness, as multiples of
/// `suggest_delta`: span name, then the metrics of its time and phases.
const DELTA_GRID: [(u32, &str, &str, &str); 4] = [
    (1, "sssp.delta.grid_x1", "sssp.delta.grid_x1_s", "sssp.delta.grid_x1_phases"),
    (4, "sssp.delta.grid_x4", "sssp.delta.grid_x4_s", "sssp.delta.grid_x4_phases"),
    (16, "sssp.delta.grid_x16", "sssp.delta.grid_x16_s", "sssp.delta.grid_x16_phases"),
    (64, "sssp.delta.grid_x64", "sssp.delta.grid_x64_s", "sssp.delta.grid_x64_phases"),
];
/// Layers whose 1-thread time over 2-thread time is reported.
const SCALING: [(&str, &str); 6] = [
    ("core.cluster", "core.cluster.speedup_2t"),
    ("core.quotient", "core.quotient.speedup_2t"),
    ("core.quotient_diameter", "core.quotient_diameter.speedup_2t"),
    ("sssp.lower_bound", "sssp.lower_bound.speedup_2t"),
    ("sssp.delta", "sssp.delta.speedup_2t"),
    ("sssp.bounds", "sssp.bounds.speedup_2t"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = workload::find(&value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Operations attempted and failed, and the metrics of a run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation, failed if `failures` is not empty.
    fn check(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        }
    }

    /// Checks that two runs agree on every deterministic output.
    fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, a: &T, b: &T) {
        let failures = if a == b { Vec::new() } else { vec![format!("{a:?} != {b:?}")] };
        self.check(what, failures);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check(name, vec![format!("not a finite number: {value}")]);
        }
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum::<f64>() / items.len() as f64
}

/// The process's peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is readable");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("spawn worker threads")
}

/// Sets up every instance of the workload, first rebuilding instance 0 and
/// dropping it until there are at least `min_setups` set-up times.
fn set_up_all(
    w: &Workload,
    seed: u64,
    dir: &Path,
    min_setups: usize,
    rec: &mut Recorder,
) -> (Vec<Instance>, Vec<f64>) {
    let mut times = Vec::new();
    for _ in w.instances..min_setups {
        let (instance, secs) = workload::set_up(w, seed, 0, dir, rec);
        instance.release().expect("remove a snapshot the run wrote");
        times.push(secs);
    }
    let mut instances = Vec::new();
    for index in 0..w.instances {
        let (instance, secs) = workload::set_up(w, seed, index, dir, rec);
        instances.push(instance);
        times.push(secs);
    }
    (instances, times)
}

fn release_all(instances: Vec<Instance>) {
    for instance in instances {
        instance.release().expect("remove a snapshot the run wrote");
    }
}

/// One pipeline pass over every instance.
struct Pass {
    logical: Vec<Logical>,
    times: Vec<LayerTimes>,
}

fn run_pass(
    instances: &[Instance],
    w: &Workload,
    label: &str,
    rec: &mut Recorder,
    report: &mut Report,
) -> Pass {
    let mut pass = Pass { logical: Vec::new(), times: Vec::new() };
    for (index, instance) in instances.iter().enumerate() {
        let (logical, times) = match instance {
            Instance::Dense(g) => pipeline::run(g, w, rec),
            Instance::Mapped { graph, .. } => pipeline::run(graph, w, rec),
        };
        report.check(&format!("{label}, graph {index}"), logical.check());
        eprintln!(
            "{label}, graph {index}: {:.3} s (split {:.3}, lower bound {:.3}, cluster {:.3}, \
             quotient {:.3}, quotient diameter {:.3}, Δ-stepping {:.3}, bounds {:.3})",
            times.total,
            times.split,
            times.lower_bound,
            times.cluster,
            times.quotient,
            times.quotient_diameter,
            times.delta,
            times.bounds
        );
        pass.logical.push(logical);
        pass.times.push(times);
    }
    pass
}

fn untraced(args: &Args, dir: &Path) -> Report {
    let w = args.workload;
    let mut report = Report::default();
    let mut rec = Recorder::new(false);
    let (setup, passes) = pool(THREADS).install(|| {
        let (instances, setup) = set_up_all(w, args.seed, dir, MIN_SETUPS, &mut rec);
        let started = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        loop {
            let label = format!("pass {}", passes.len());
            let pass = run_pass(&instances, w, &label, &mut rec, &mut report);
            if let Some(first) = passes.first() {
                let what = format!("determinism, pass 0 vs {label}");
                report.same(&what, &first.logical, &pass.logical);
            }
            passes.push(pass);
            if started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        release_all(instances);
        (setup, passes)
    });

    // Times: the median over passes of the mean over graphs. Counts and
    // ratios: the mean over graphs (and CL-DIAM seeds), the same every pass.
    let means: Vec<LayerTimes> = passes.iter().map(|p| LayerTimes::mean(&p.times)).collect();
    let times = |f: &dyn Fn(&LayerTimes) -> f64| median(means.iter().map(f));
    let logical = &passes[0].logical;
    let cldiam = |f: fn(&ClDiamRun) -> u64| mean(logical, |l| l.cldiam_mean(|r| f(r) as f64));
    let seeds = w.cldiam_seeds as f64;
    report.metric("setup_s", median(setup), "s");
    report.metric("run_s", times(&|t| t.total), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let cldiam_s = times(&|t| (t.cluster + t.quotient + t.quotient_diameter) / seeds);
    report.metric("cldiam_s", cldiam_s, "s");
    report.metric("cldiam_ratio", mean(logical, Logical::cldiam_ratio), "ratio");
    report.metric("cldiam_rounds", cldiam(|r| r.rounds), "count");
    report.metric("cldiam_work", cldiam(|r| r.work), "count");
    report.metric("delta_s", times(&|t| t.delta), "s");
    report.metric("delta_rounds", mean(logical, |l| l.delta_phases as f64), "count");
    let delta_work = mean(logical, |l| (l.delta_relaxations + l.delta_updates) as f64);
    report.metric("delta_work", delta_work, "count");
    report.metric("bounds_s", times(&|t| t.bounds), "s");
    report.metric("bounds_sssp", mean(logical, |l| l.bounds.sssp as f64), "count");
    report.metric("bounds_ratio", mean(logical, Logical::bounds_ratio), "ratio");
    report
}

/// Sweeps the Δ grid on one graph with one reused scratch; every candidate
/// must find the eccentricity the pipeline's Δ found.
fn delta_grid<G: NeighborSource>(
    graph: &G,
    logical: &Logical,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let mut scratch = SsspScratch::with_capacity(graph.num_nodes());
    for (multiple, span, _, _) in DELTA_GRID {
        let delta = pipeline::delta_for(graph, multiple);
        let open = rec.open(span);
        let outcome = delta_stepping_with_scratch(graph, DELTA_SOURCE, delta, None, &mut scratch);
        rec.close(&open);
        rec.counters(&open, &[("delta", delta as f64), ("phases", outcome.phases as f64)]);
        let what = format!("Δ grid x{multiple}, eccentricity");
        report.same(&what, &outcome.eccentricity(), &logical.delta_eccentricity);
    }
}

/// The library's `approximate_diameter` must agree with the stage-by-stage
/// pipeline on the bound and on the Table 2 costs.
fn check_against_library<G: NeighborSource>(
    graph: &G,
    logical: &Logical,
    rec: &mut Recorder,
    report: &mut Report,
) {
    for run in &logical.cldiam {
        let config = pipeline::cluster_config(graph.num_nodes(), run.seed);
        let (estimate, _) =
            rec.time("core.approximate_diameter", || approximate_diameter(graph, &config));
        report.same(
            &format!(
                "CL-DIAM seed {}, stages vs approximate_diameter (upper, Φ, radius, clusters, quotient \
                 edges, exact, rounds, work, peak local items)",
                run.seed
            ),
            &(
                estimate.upper_bound,
                estimate.quotient_diameter,
                estimate.radius,
                estimate.num_clusters,
                estimate.quotient_edges,
                estimate.quotient_exact,
                estimate.metrics.rounds,
                estimate.metrics.work(),
                estimate.metrics.peak_local_items,
            ),
            &(
                run.upper,
                run.quotient_diameter,
                run.radius,
                run.clusters,
                run.quotient_edges,
                true,
                run.rounds,
                run.work,
                run.peak_local_items,
            ),
        );
    }
}

/// Runs the bounds engine to convergence: it must close the interval within
/// `CONVERGENCE_BUDGET` SSSPs, on a diameter that every bound of the pass
/// brackets.
fn converge<G: NeighborSource>(
    graph: &G,
    logical: &Logical,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let config = pipeline::anytime_config(CONVERGENCE_BUDGET, graph.num_nodes());
    let split = ComponentSplit::compute(graph);
    let open = rec.open("sssp.bounds.converge");
    let outcome = anytime_diameter_with_split(graph, &config, &split);
    rec.close(&open);
    rec.counters(&open, &[("sssp", outcome.sssp_runs as f64), ("diameter", outcome.upper as f64)]);
    let mut failures = Vec::new();
    if !outcome.converged || outcome.interrupted || outcome.lower != outcome.upper {
        failures.push(format!(
            "not closed after {} SSSPs: [{}, {}]",
            outcome.sssp_runs, outcome.lower, outcome.upper
        ));
    }
    let lowers = [logical.lower_bound, logical.bounds.lower];
    let uppers = logical.upper_bounds();
    if lowers.iter().any(|&lb| lb > outcome.lower) || uppers.iter().any(|&ub| ub < outcome.upper) {
        failures.push(format!(
            "diameter {} outside a bound: lower {lowers:?}, upper {uppers:?}",
            outcome.upper
        ));
    }
    report.check("bounds engine convergence", failures);
}

/// The traced run's checks on one graph beyond the timed passes.
fn extra_checks<G: NeighborSource>(
    graph: &G,
    logical: &Logical,
    rec: &mut Recorder,
    report: &mut Report,
) {
    delta_grid(graph, logical, rec, report);
    check_against_library(graph, logical, rec, report);
    converge(graph, logical, rec, report);
}

/// The bounds engine alone, timed as the `sssp.bounds.other_tier` span.
fn timed_bounds<G: NeighborSource>(
    graph: &G,
    config: &AnytimeConfig,
    rec: &mut Recorder,
) -> (BoundsOutcome, f64) {
    let split = ComponentSplit::compute(graph);
    rec.time("sssp.bounds.other_tier", || anytime_diameter_with_split(graph, config, &split))
}

/// Runs the pass's bounds on the instance's other storage tier (compressed
/// and mapped for a dense instance, dense for a mapped one), checks that it
/// returns the same outcome, and returns (compressed, dense) seconds.
fn both_tiers(
    instance: &Instance,
    w: &Workload,
    logical: &Logical,
    own_seconds: f64,
    path: &Path,
    rec: &mut Recorder,
    report: &mut Report,
) -> (f64, f64) {
    let config = pipeline::anytime_config(w.bounds_budget, instance.num_nodes());
    let (outcome, seconds) = match instance {
        Instance::Dense(g) => {
            let mapped = workload::snapshot_roundtrip(g, path, rec);
            let (outcome, compressed) = timed_bounds(&mapped, &config, rec);
            drop(mapped);
            std::fs::remove_file(path).expect("remove a snapshot the run wrote");
            (outcome, (compressed, own_seconds))
        }
        Instance::Mapped { graph, .. } => {
            let (dense, _) = rec.time("graph.decompress", || graph.to_graph());
            let (outcome, dense_seconds) = timed_bounds(&dense, &config, rec);
            (outcome, (own_seconds, dense_seconds))
        }
    };
    let what = "bounds outcome, dense vs compressed tier";
    report.same(what, &BoundsSummary::of(&outcome), &logical.bounds);
    seconds
}

/// Span positions of the sections of a traced run.
struct Sections {
    setup: Range<usize>,
    two_threads: Range<usize>,
    one_thread: Range<usize>,
    extras: Range<usize>,
}

fn traced(args: &Args, dir: &Path) -> Report {
    let w = args.workload;
    let mut report = Report::default();
    let mut rec = Recorder::new(true);
    let one_thread = pool(1);
    let (sections, untraced_total, traced_total, bytes_per_edge, decode_tax) = pool(THREADS)
        .install(|| {
            let (instances, _) = set_up_all(w, args.seed, dir, 1, &mut rec);
            let setup = 0..rec.len();
            let bytes_per_edge = mean(&instances, Instance::bytes_per_edge);

            // The first pass pays for first-touch page faults; it warms up
            // the untraced pass that the traced one is compared with.
            rec.set_enabled(false);
            let warm_up = run_pass(&instances, w, "warm-up pass", &mut rec, &mut report);
            let untraced = run_pass(&instances, w, "untraced pass", &mut rec, &mut report);
            rec.set_enabled(true);
            let start = rec.len();
            let traced2 = run_pass(&instances, w, "traced pass, 2 threads", &mut rec, &mut report);
            let two_threads = start..rec.len();
            let start = rec.len();
            let traced1 = one_thread.install(|| {
                run_pass(&instances, w, "traced pass, 1 thread", &mut rec, &mut report)
            });
            let one_thread = start..rec.len();
            report.same("determinism, warm-up vs untraced", &warm_up.logical, &untraced.logical);
            report.same("determinism, untraced vs traced", &untraced.logical, &traced2.logical);
            report.same("determinism, 2 threads vs 1", &traced2.logical, &traced1.logical);

            let start = rec.len();
            let (mut compressed_s, mut dense_s) = (0.0, 0.0);
            for (index, instance) in instances.iter().enumerate() {
                let logical = &traced2.logical[index];
                match instance {
                    Instance::Dense(g) => extra_checks(g, logical, &mut rec, &mut report),
                    Instance::Mapped { graph, .. } => {
                        extra_checks(graph, logical, &mut rec, &mut report)
                    }
                }
                let path = dir.join(format!("{}-{}-other-{index}.cldg", w.name, args.seed));
                let own = traced2.times[index].bounds;
                let (c, d) = both_tiers(instance, w, logical, own, &path, &mut rec, &mut report);
                compressed_s += c;
                dense_s += d;
            }
            let extras = start..rec.len();
            release_all(instances);
            let sections = Sections { setup, two_threads, one_thread, extras };
            let untraced_total = LayerTimes::mean(&untraced.times).total;
            let traced_total = LayerTimes::mean(&traced2.times).total;
            (sections, untraced_total, traced_total, bytes_per_edge, compressed_s / dense_s)
        });
    let path = dir.join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
    rec.write_jsonl(&path).expect("write the span file");
    per_layer(&mut report, &rec, &sections);
    report.metric("graph.bytes_per_edge", bytes_per_edge, "B/edge");
    report.metric("graph.decode_tax", decode_tax, "ratio");
    report.metric("trace.overhead_s", traced_total - untraced_total, "s");
    report
}

/// The per-layer metrics of a traced run, read from its spans: each is the
/// mean over the calls of that layer (one per graph, or per CL-DIAM seed).
fn per_layer(report: &mut Report, rec: &Recorder, s: &Sections) {
    let all = || 0..rec.len();
    let r2 = || s.two_threads.clone();
    let seconds = |range: Range<usize>, span: &str| rec.mean_seconds(range, span);
    let count = |span: &str, key: &str| rec.mean_counter(r2(), span, key);

    report.metric("gen.generate_s", seconds(s.setup.clone(), "gen.generate"), "s");
    let lcc = seconds(s.setup.clone(), "graph.largest_component");
    report.metric("graph.largest_component_s", lcc, "s");
    // Set-up on the snapshot tier, the other-tier step on the dense one.
    report.metric("graph.compress_s", seconds(all(), "graph.compress"), "s");
    report.metric("graph.snapshot_write_s", seconds(all(), "graph.snapshot_write"), "s");
    report.metric("graph.snapshot_mmap_s", seconds(all(), "graph.snapshot_mmap"), "s");
    report.metric("graph.split_s", seconds(r2(), "graph.split"), "s");
    report.metric("sssp.lower_bound_s", seconds(r2(), "sssp.lower_bound"), "s");

    let cluster_s = seconds(r2(), "core.cluster");
    let steps = count("core.cluster", "growing_steps");
    let updates = count("core.cluster", "node_updates");
    report.metric("core.cluster_s", cluster_s, "s");
    report.metric("core.cluster.s_per_step", cluster_s / steps, "s");
    report.metric("core.cluster.growing_steps", steps, "count");
    report.metric("core.cluster.stages", count("core.cluster", "stages"), "count");
    report.metric("core.cluster.rounds", count("core.cluster", "rounds"), "count");
    report.metric("core.cluster.messages", count("core.cluster", "messages"), "count");
    report.metric("core.cluster.node_updates", updates, "count");
    report.metric("core.cluster.updates_per_s", updates / cluster_s, "1/s");
    report.metric("core.cluster.clusters", count("core.cluster", "clusters"), "count");
    report.metric("core.cluster.radius", count("core.cluster", "radius"), "weight");
    report.metric("core.cluster.delta_end", count("core.cluster", "delta_end"), "weight");
    let peak = count("core.cldiam", "peak_local_items");
    report.metric("core.cldiam.peak_local_items", peak, "count");

    report.metric("core.quotient_s", seconds(r2(), "core.quotient"), "s");
    let boundary = count("core.quotient", "boundary_edges");
    report.metric("core.quotient.boundary_edges", boundary, "count");
    report.metric("core.quotient.nodes", count("core.quotient", "nodes"), "count");
    report.metric("core.quotient.edges", count("core.quotient", "edges"), "count");
    let quotient_diameter = seconds(r2(), "core.quotient_diameter");
    report.metric("core.quotient_diameter_s", quotient_diameter, "s");

    let delta_s = seconds(r2(), "sssp.delta");
    let phases = count("sssp.delta", "phases");
    report.metric("sssp.delta_s", delta_s, "s");
    report.metric("sssp.delta.phases", phases, "count");
    report.metric("sssp.delta.s_per_phase", delta_s / phases, "s");
    report.metric("sssp.delta.relaxations", count("sssp.delta", "relaxations"), "count");
    report.metric("sssp.delta.updates", count("sssp.delta", "updates"), "count");
    for (_, span, time_metric, phases_metric) in DELTA_GRID {
        report.metric(time_metric, seconds(s.extras.clone(), span), "s");
        let grid_phases = rec.mean_counter(s.extras.clone(), span, "phases");
        report.metric(phases_metric, grid_phases, "count");
    }

    let bounds_s = seconds(r2(), "sssp.bounds");
    let sssp = count("sssp.bounds", "sssp");
    report.metric("sssp.bounds_s", bounds_s, "s");
    report.metric("sssp.bounds.sssp", sssp, "count");
    report.metric("sssp.bounds.s_per_sssp", bounds_s / sssp, "s");
    report.metric("sssp.bounds.iterations", count("sssp.bounds", "iterations"), "count");
    let converge_s = seconds(s.extras.clone(), "sssp.bounds.converge");
    report.metric("sssp.bounds.converge_s", converge_s, "s");
    let converge_sssp = rec.mean_counter(s.extras.clone(), "sssp.bounds.converge", "sssp");
    report.metric("sssp.bounds.converge_sssp", converge_sssp, "count");

    for (span, metric) in SCALING {
        let speedup = seconds(s.one_thread.clone(), span) / seconds(r2(), span);
        report.metric(metric, speedup, "ratio");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).expect("create the output directory");
    let report = if args.trace { traced(&args, dir) } else { untraced(&args, dir) };
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:>36} {value:>18.6} {unit}");
    }
    println!("{}", report.to_json());
}
