//! The benchmark's workloads and their set-up: generation, component
//! extraction and, for the snapshot workload, compression, a v2 snapshot
//! write and an mmap open.

use std::path::{Path, PathBuf};

use cldiam_gen::GraphSpec;
use cldiam_graph::{
    largest_component, read_snapshot_file, write_snapshot_file, CompressedGraph, Graph,
    SnapshotGraph, SnapshotOptions, SnapshotPayload,
};

use crate::trace::Recorder;

/// How the graph is held while the algorithms run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Dense CSR in memory.
    Dense,
    /// One-shard delta-varint compressed CSR, written as a v2 `.cldg`
    /// snapshot and served through mmap.
    Snapshot,
}

pub struct Workload {
    pub name: &'static str,
    /// `cldiam-gen` spec (the `gen:` syntax of the `cldiam` CLI).
    pub spec: &'static str,
    pub tier: Tier,
    /// Independent graphs per run, generated from seeds derived from the
    /// run's seed. Figures that differ from graph to graph are averaged over
    /// them, so a run's figures depend less on which seed it drew.
    pub instances: usize,
    /// CL-DIAM runs per graph, with consecutive seeds. Where CLUSTER's
    /// random centers make its stage count, and so its work, flip between
    /// two values from seed to seed, the mean over several seeds is steady.
    pub cldiam_seeds: u64,
    /// Δ-stepping bucket width as a multiple of `suggest_delta`: the grid
    /// candidate with the fewest phases on this family.
    pub delta_multiple: u32,
    /// SSSP budget of the anytime bounds engine in the timed passes: the
    /// bracket after a fixed budget. How many SSSPs closing the interval
    /// takes varies from graph to graph by up to 2x, which no run-to-run
    /// bound could absorb, so convergence is checked and timed in the traced
    /// run instead (see `CONVERGENCE_BUDGET`).
    pub bounds_budget: usize,
}

/// SSSP budget of the traced run's convergence check: every workload's
/// bounds engine must close the interval (tolerance 1.0) within it.
pub const CONVERGENCE_BUDGET: usize = 64;

/// Every workload sets the quotient-size target to 1000, so each quotient
/// stays under the 2000-cluster `exact_quotient_threshold` and its diameter
/// is exact.
pub const QUOTIENT_TARGET: usize = 1000;

pub const WORKLOADS: &[Workload] = &[
    // High diameter, thin frontiers: ~200 Δ-growing steps and ~3200
    // Δ-stepping phases, so per-wave and per-phase overhead set the time.
    // The timed bounds engine stops after its 2-sweep; closing the interval
    // takes 26-38 SSSPs (15-20 s), depending on the seed.
    Workload {
        name: "road-2m",
        spec: "road:1500x1500",
        tier: Tier::Dense,
        instances: 1,
        cldiam_seeds: 1,
        delta_multiple: 64,
        bounds_budget: 2,
    },
    // Low diameter, skewed degrees: ~10 wide growing steps and ~20 phases,
    // so relaxation throughput sets the time; the quotient gathers millions
    // of boundary edges. Generation dominates set-up. CLUSTER runs 3 or 4
    // stages depending on its seed, so work is averaged over three graphs
    // and three seeds. Two SSSPs bring the bounds within 0.1% (closing takes
    // 2-3).
    Workload {
        name: "rmat-18",
        spec: "rmat:18",
        tier: Tier::Dense,
        instances: 3,
        cldiam_seeds: 3,
        delta_multiple: 16,
        bounds_budget: 2,
    },
    // The same graph and SSSP layers through the compressed tier: every
    // neighbour scan decodes varints, and set-up writes a snapshot and maps
    // it back. The bounds engine is most of the pass: 16 SSSPs and the
    // quotient oracle per graph (closing the interval takes 21-35).
    Workload {
        name: "road-snap-bounds",
        spec: "road:700x700",
        tier: Tier::Snapshot,
        instances: 3,
        cldiam_seeds: 1,
        delta_multiple: 64,
        bounds_budget: 16,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generator seed of instance `index` of a run with seed `seed`.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index as u64)
}

/// A set-up graph, on the tier the workload runs.
pub enum Instance {
    Dense(Graph),
    Mapped { graph: CompressedGraph, path: PathBuf },
}

impl Instance {
    pub fn num_nodes(&self) -> usize {
        match self {
            Instance::Dense(g) => g.num_nodes(),
            Instance::Mapped { graph, .. } => graph.num_nodes(),
        }
    }

    pub fn num_edges(&self) -> usize {
        match self {
            Instance::Dense(g) => g.num_edges(),
            Instance::Mapped { graph, .. } => graph.num_edges(),
        }
    }

    /// Bytes the graph occupies on its tier, per undirected edge.
    pub fn bytes_per_edge(&self) -> f64 {
        let bytes = match self {
            Instance::Dense(g) => g.memory_bytes(),
            Instance::Mapped { graph, .. } => graph.memory_bytes(),
        };
        bytes as f64 / self.num_edges().max(1) as f64
    }

    /// Unmaps the graph and removes its snapshot file.
    pub fn release(self) -> std::io::Result<()> {
        match self {
            Instance::Dense(_) => Ok(()),
            Instance::Mapped { graph, path } => {
                drop(graph);
                std::fs::remove_file(path)
            }
        }
    }
}

/// Compresses `graph` into one shard, writes it as a v2 snapshot at `path`
/// and maps it back, timing each step as its own span.
pub fn snapshot_roundtrip(graph: &Graph, path: &Path, rec: &mut Recorder) -> CompressedGraph {
    let (compressed, _) = rec.time("graph.compress", || CompressedGraph::from_graph(graph, 1));
    rec.time("graph.snapshot_write", || {
        write_snapshot_file(&SnapshotPayload::Compressed(&compressed), path)
            .expect("snapshot write inside the checkout")
    });
    let options = SnapshotOptions { mmap: true, verify: false };
    let (loaded, _) = rec.time("graph.snapshot_mmap", || {
        read_snapshot_file(path, &options).expect("snapshot written just before")
    });
    let SnapshotGraph::Compressed(mapped) = loaded.graph else {
        panic!("a compressed payload must load as a compressed graph");
    };
    assert_eq!(
        (mapped.num_nodes(), mapped.num_arcs()),
        (compressed.num_nodes(), compressed.num_arcs()),
        "mapped snapshot differs from the graph written"
    );
    mapped
}

/// Builds instance `index`: generation, largest component and, on the
/// snapshot tier, the snapshot round trip. Returns it with its set-up time.
pub fn set_up(
    workload: &Workload,
    seed: u64,
    index: usize,
    dir: &Path,
    rec: &mut Recorder,
) -> (Instance, f64) {
    let spec = GraphSpec::parse(workload.spec).expect("workload specs are valid");
    let setup = rec.open("setup");
    let (raw, _) = rec.time("gen.generate", || spec.generate(instance_seed(seed, index)));
    let ((core, _), _) = rec.time("graph.largest_component", || largest_component(&raw));
    drop(raw);
    let instance = match workload.tier {
        Tier::Dense => Instance::Dense(core),
        Tier::Snapshot => {
            let path = dir.join(format!("{}-{seed}-{index}.cldg", workload.name));
            let graph = snapshot_roundtrip(&core, &path, rec);
            Instance::Mapped { graph, path }
        }
    };
    let secs = rec.close(&setup);
    rec.counters(
        &setup,
        &[
            ("nodes", instance.num_nodes() as f64),
            ("edges", instance.num_edges() as f64),
            ("bytes_per_edge", instance.bytes_per_edge()),
        ],
    );
    (instance, secs)
}
