//! Weighted undirected graph substrate for the CL-DIAM reproduction.
//!
//! This crate provides the storage layer every other crate builds on:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) representation of a
//!   weighted undirected graph with `u32` node identifiers and positive
//!   integer edge weights (see [`Weight`], [`Dist`]).
//! * [`atomic`] — unsafe-free atomic fetch-min cells: single-word
//!   [`MinDistCells`] for SSSP relaxation and the multi-word seqlock
//!   [`SeqMinCells`] behind the Δ-growing hot path in `cldiam-core`.
//! * [`GraphBuilder`] — an edge-list accumulator that deduplicates, removes
//!   self loops, symmetrizes and produces a [`Graph`].
//! * [`components`] — connected components (union-find) and
//!   largest-component extraction.
//! * [`traversal`] — unweighted BFS utilities (hop distances, double sweep).
//! * [`ops`] — graph transformations: cartesian product (used by the paper's
//!   `roads(S)` family), induced subgraphs and reweighting.
//! * [`stats`] — degree/weight statistics (the columns of the paper's
//!   Table 1).
//! * [`io`] — file ingestion: SNAP/TSV edge lists, DIMACS `.gr`, a versioned
//!   binary CSR snapshot, and format auto-detection ([`load_graph`]). Text
//!   parsing is parallel over newline-aligned chunks and deterministic at any
//!   thread count.
//! * [`cancel`] — the cooperative [`CancelToken`] polled at engine phase
//!   boundaries for deadline-bounded, gracefully degrading runs.
//! * [`failpoint`] — fault-injection hooks on every I/O seam (zero-cost
//!   when disarmed; armed via `CLDIAM_FAILPOINTS` or the test registry).
//!
//! The paper assumes positive integral edge weights polynomial in `n`; graphs
//! that are "born unweighted" get uniform random weights in `(0, 1]` which we
//! represent in fixed point with scale [`WEIGHT_SCALE`].

// Unsafe is confined to the `storage` and `mmap` modules, which opt
// back in at module scope with their invariants documented per site.
#![deny(unsafe_code)]

pub mod atomic;
pub mod builder;
pub mod cancel;
pub mod components;
pub mod compressed;
pub mod csr;
pub mod failpoint;
pub mod io;
pub mod mmap;
pub mod ops;
pub mod source;
pub mod stats;
mod storage;
pub mod traversal;
pub mod weight;

pub use atomic::{MinDistCells, SeqMinCells};
pub use builder::GraphBuilder;
pub use cancel::CancelToken;
pub use components::{
    component_subgraphs, connected_components, largest_component, ComponentLabels,
};
pub use compressed::CompressedGraph;
pub use csr::Graph;
pub use io::edgelist;
pub use io::snapshot::{
    parse_snapshot_bytes, read_snapshot_file, snapshot_version, write_snapshot_file, Snapshot,
    SnapshotGraph, SnapshotOptions, SnapshotPayload,
};
pub use io::{
    detect_format, load_graph, load_graph_as, load_graph_cached_with, CacheOptions, EdgeDirection,
    FileFormat, IoError, LoadedGraph,
};
pub use source::NeighborSource;
pub use stats::GraphStats;
pub use weight::{weight_from_unit, Dist, NodeId, Weight, INFINITY, WEIGHT_SCALE};
