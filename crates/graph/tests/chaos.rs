//! Chaos suite: every injected I/O fault must surface as a typed error or
//! a transparent recovery — never a panic, a hang, or a silently-wrong
//! graph.
//!
//! Each scenario arms failpoints through [`cldiam_graph::failpoint::scoped`],
//! which serializes scenarios across test threads (the registry is
//! process-global), and runs the public loaders against a scenario-private
//! temp directory. Fault-free phases hold `scoped(&[])`, so no other
//! scenario's faults can fire while they load.

use std::path::{Path, PathBuf};

use cldiam_graph::failpoint::scoped;
use cldiam_graph::io::snapshot::write_snapshot;
use cldiam_graph::{
    load_graph, load_graph_cached_with, read_snapshot_file, CacheOptions, Graph, IoError,
    SnapshotGraph, SnapshotOptions, SnapshotPayload,
};

/// A scenario-private temp directory, removed and recreated per call so
/// reruns never see stale caches, and removed again when dropped, so a
/// failing scenario cleans up too.
struct ScenarioDir(PathBuf);

impl std::ops::Deref for ScenarioDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScenarioDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn scenario_dir(tag: &str) -> ScenarioDir {
    let dir = std::env::temp_dir().join(format!("cldiam-chaos-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scenario dir");
    ScenarioDir(dir)
}

/// Writes a small edge-list file and returns its path plus the graph it
/// parses to.
fn sample_input(dir: &Path) -> (PathBuf, Graph) {
    let text = "0 1 5\n1 2 3\n2 3 4\n3 0 2\n0 2 9\n";
    let path = dir.join("sample.txt");
    std::fs::write(&path, text).expect("write sample input");
    let graph = Graph::from_edges(4, &[(0, 1, 5), (1, 2, 3), (2, 3, 4), (3, 0, 2), (0, 2, 9)]);
    (path, graph)
}

fn cache_path(input: &Path) -> PathBuf {
    let mut name = input.as_os_str().to_os_string();
    name.push(".cldg");
    PathBuf::from(name)
}

fn quarantine_path(input: &Path) -> PathBuf {
    let mut name = cache_path(input).into_os_string();
    name.push(".corrupt");
    PathBuf::from(name)
}

/// The cache tiers the crash scenarios cycle through.
fn tiers() -> [CacheOptions; 2] {
    [CacheOptions::default(), CacheOptions { compress: true, shards: 2, ..CacheOptions::default() }]
}

#[test]
fn read_error_is_a_typed_error() {
    let dir = scenario_dir("read-eio");
    let (path, _) = sample_input(&dir);
    let _guard = scoped(&["io::read=eio"]);
    match load_graph(&path) {
        Err(IoError::Io(e)) => assert!(e.to_string().contains("failpoint")),
        other => panic!("expected an I/O error, got {other:?}"),
    }
}

#[test]
fn transient_read_errors_are_retried() {
    let dir = scenario_dir("read-retry");
    let (path, expected) = sample_input(&dir);
    let _guard = scoped(&["io::read=interrupted*2"]);
    let graph = load_graph(&path).expect("retry over transient errors");
    assert_eq!(graph, expected);
}

#[test]
fn persistent_transient_errors_eventually_fail() {
    let dir = scenario_dir("read-retry-exhausted");
    let (path, _) = sample_input(&dir);
    let _guard = scoped(&["io::read=interrupted"]);
    match load_graph(&path) {
        Err(IoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::Interrupted),
        other => panic!("expected exhausted retries, got {other:?}"),
    }
}

#[test]
fn cache_write_failure_never_fails_the_load() {
    for (i, options) in tiers().iter().enumerate() {
        let dir = scenario_dir(&format!("cache-enospc-{i}"));
        let (path, expected) = sample_input(&dir);
        let _guard = scoped(&["cache::write=enospc"]);
        let (graph, cached) = load_graph_cached_with(&path, options).expect("load survives");
        assert_eq!(graph.into_dense(), expected);
        assert!(!cached);
        assert!(!cache_path(&path).exists(), "failed write must not leave a cache");
    }
}

#[test]
fn partial_cache_write_leaves_no_trace() {
    let dir = scenario_dir("cache-partial");
    let (path, expected) = sample_input(&dir);
    {
        let _guard = scoped(&["cache::write=partial:64"]);
        let (graph, _) =
            load_graph_cached_with(&path, &CacheOptions::default()).expect("load survives");
        assert_eq!(graph.into_dense(), expected);
    }
    let cache = cache_path(&path);
    assert!(!cache.exists(), "partial write must not reach the final path");
    let mut tmp = cache.into_os_string();
    tmp.push(".tmp");
    assert!(!Path::new(&tmp).exists(), "temp file must be cleaned up");
}

#[test]
fn torn_cache_write_is_quarantined_on_the_next_load() {
    for (i, options) in tiers().iter().enumerate() {
        let dir = scenario_dir(&format!("cache-torn-{i}"));
        let (path, expected) = sample_input(&dir);
        {
            // Crash simulation: a truncated image lands at the final path
            // and the writer believes it succeeded.
            let _guard = scoped(&["cache::write=torn:48"]);
            let (graph, _) = load_graph_cached_with(&path, options).expect("load survives");
            assert_eq!(graph.clone().into_dense(), expected);
        }
        assert!(cache_path(&path).exists(), "torn image reaches the final path");
        let _quiet = scoped(&[]);
        // Next run: the corrupt cache must be detected, quarantined, and
        // transparently regenerated from the text source.
        let (graph, cached) = load_graph_cached_with(&path, options).expect("recovery");
        assert_eq!(graph.into_dense(), expected);
        assert!(!cached, "corrupt cache must not be served");
        assert!(quarantine_path(&path).exists(), "corrupt cache must be quarantined");
        // And the regenerated cache serves the run after that.
        let (graph, cached) = load_graph_cached_with(&path, options).expect("regenerated");
        assert_eq!(graph.into_dense(), expected);
        assert!(cached);
    }
}

#[test]
fn bit_rot_in_the_cache_is_detected_and_quarantined() {
    let dir = scenario_dir("cache-bitrot");
    let (path, expected) = sample_input(&dir);
    {
        let _guard = scoped(&["cache::write=bitflip:150"]);
        load_graph_cached_with(&path, &CacheOptions::default()).expect("load survives");
    }
    let _quiet = scoped(&[]);
    let (graph, cached) =
        load_graph_cached_with(&path, &CacheOptions::default()).expect("recovery");
    // The hard invariant: whatever the checksums caught or missed, the
    // served graph must be the source graph. A detected flip additionally
    // quarantines the cache and re-parses.
    assert_eq!(graph.into_dense(), expected, "bit rot must never produce a wrong graph");
    if !cached {
        assert!(quarantine_path(&path).exists());
    }
}

#[test]
fn cache_read_io_error_falls_back_without_quarantining() {
    let dir = scenario_dir("cache-read-eio");
    let (path, expected) = sample_input(&dir);
    {
        let _quiet = scoped(&[]);
        load_graph_cached_with(&path, &CacheOptions::default()).expect("prime the cache");
    }
    assert!(cache_path(&path).exists());
    let _guard = scoped(&["snapshot::read=eio"]);
    // Only the cache read goes through `snapshot::read`; the fallback
    // re-parse reads the text through `cache::regen`, so the load recovers.
    let (graph, cached) =
        load_graph_cached_with(&path, &CacheOptions::default()).expect("fallback");
    assert_eq!(graph.into_dense(), expected);
    assert!(!cached);
    // A plain I/O error says nothing about the bytes: no quarantine.
    assert!(cache_path(&path).exists());
    assert!(!quarantine_path(&path).exists());
}

#[test]
fn truncated_cache_read_recovers_via_quarantine() {
    let dir = scenario_dir("cache-read-truncated");
    let (path, expected) = sample_input(&dir);
    {
        let _quiet = scoped(&[]);
        load_graph_cached_with(&path, &CacheOptions::default()).expect("prime the cache");
    }
    let _guard = scoped(&["snapshot::read=truncate:32"]);
    let (graph, cached) =
        load_graph_cached_with(&path, &CacheOptions::default()).expect("recovery");
    assert_eq!(graph.into_dense(), expected);
    assert!(!cached);
    assert!(quarantine_path(&path).exists());
}

#[test]
fn source_regeneration_errors_are_typed() {
    let dir = scenario_dir("regen-eio");
    let (path, _) = sample_input(&dir);
    let _guard = scoped(&["cache::regen=eio"]);
    match load_graph_cached_with(&path, &CacheOptions::default()) {
        Err(IoError::Io(e)) => assert!(e.to_string().contains("failpoint")),
        other => panic!("expected an I/O error, got {other:?}"),
    }
}

#[test]
fn mmap_setup_failure_is_typed_and_buffered_path_still_works() {
    let dir = scenario_dir("mmap-eio");
    let graph = Graph::from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
    let snap = dir.join("g.cldg");
    let mut bytes = Vec::new();
    write_snapshot(&SnapshotPayload::Dense(&graph), &mut bytes).expect("serialize");
    std::fs::write(&snap, &bytes).expect("write snapshot");
    let _guard = scoped(&["mmap::map=eio"]);
    let mapped = SnapshotOptions { mmap: true, verify: true };
    match read_snapshot_file(&snap, &mapped) {
        Err(IoError::Io(e)) => assert!(e.to_string().contains("failpoint")),
        other => panic!("expected an mmap error, got {other:?}"),
    }
    let buffered = SnapshotOptions { mmap: false, verify: true };
    let loaded = read_snapshot_file(&snap, &buffered).expect("buffered path unaffected");
    match loaded.graph {
        SnapshotGraph::Dense(g) => assert_eq!(g, graph),
        SnapshotGraph::Compressed(_) => panic!("dense payload expected"),
    }
}

#[test]
fn snapshot_read_bitflip_never_yields_a_wrong_graph() {
    let dir = scenario_dir("snapshot-bitflip");
    let graph = Graph::from_edges(4, &[(0, 1, 7), (1, 2, 1), (2, 3, 2)]);
    let snap = dir.join("g.cldg");
    let mut bytes = Vec::new();
    write_snapshot(&SnapshotPayload::Dense(&graph), &mut bytes).expect("serialize");
    std::fs::write(&snap, &bytes).expect("write snapshot");
    let buffered = SnapshotOptions { mmap: false, verify: true };
    for offset in [9usize, 70, 100, 130, 160, 200] {
        let _guard = scoped(&[&format!("snapshot::read=bitflip:{offset}")]);
        match read_snapshot_file(&snap, &buffered) {
            Err(_) => {}
            Ok(snapshot) => match snapshot.graph {
                // A flip in padding can go unnoticed; the decoded graph must
                // then be exactly the original.
                SnapshotGraph::Dense(g) => assert_eq!(g, graph, "offset {offset}"),
                SnapshotGraph::Compressed(c) => assert_eq!(c.to_graph(), graph, "offset {offset}"),
            },
        }
    }
}
