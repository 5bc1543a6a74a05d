//! Storage-layer properties: varint coding laws, compressed-snapshot
//! identity across thread counts, and snapshot-cache staleness handling.

use proptest::prelude::*;

use cldiam::graph::io::snapshot::{
    parse_snapshot_bytes, snapshot_version, write_snapshot, SnapshotGraph, SnapshotPayload,
};
use cldiam::graph::io::{binary, edgelist, snapshot_path, varint};
use cldiam::graph::{load_graph, load_graph_cached_with, CacheOptions, CompressedGraph, Graph};

const ROADS_GR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/roads.gr");

/// A fixture's temp directory; dropping it removes the text, its snapshot
/// cache and any quarantined copy of the cache, so a failing assertion
/// cleans up too.
struct FixtureDir(std::path::PathBuf);

impl Drop for FixtureDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn with_pool<T>(threads: usize, op: impl FnOnce() -> T + Send) -> T
where
    T: Send,
{
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `read_varint ∘ encode_u64` is the identity for any `u64`, and the
    /// decoder consumes exactly the bytes the encoder produced, never more
    /// than `ceil(64 / 7)` of them.
    #[test]
    fn varint_encode_decode_is_identity(value in 0u64..=u64::MAX) {
        let mut buf = Vec::new();
        varint::encode_u64(&mut buf, value);
        prop_assert!(buf.len() <= 10);
        let mut rest = buf.as_slice();
        prop_assert_eq!(varint::read_varint(&mut rest), value);
        prop_assert!(rest.is_empty());
    }

    /// A concatenated stream of varints decodes back to the source values;
    /// cutting the stream anywhere strictly inside the last varint makes
    /// the decoder panic rather than misread.
    #[test]
    fn varint_streams_roundtrip_and_reject_truncation(
        values in proptest::collection::vec(0u64..=u64::MAX, 1..20),
    ) {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for &v in &values {
            varint::encode_u64(&mut buf, v);
            ends.push(buf.len());
        }
        let mut rest = buf.as_slice();
        for &v in &values {
            prop_assert_eq!(varint::read_varint(&mut rest), v);
        }
        prop_assert!(rest.is_empty());
        // Truncation inside the final varint.
        let last_start = ends[ends.len() - 1] - 1;
        let start_of_last = if ends.len() >= 2 { ends[ends.len() - 2] } else { 0 };
        for cut in start_of_last..=last_start {
            let prefix = &buf[start_of_last..cut];
            let decoded = std::panic::catch_unwind(|| varint::read_varint(&mut &prefix[..]));
            prop_assert!(decoded.is_err(), "cut at {} must not decode", cut);
        }
    }

    /// text → Graph → compressed v2 snapshot → Graph is the identity, for
    /// arbitrary graphs and shard counts.
    #[test]
    fn text_to_compressed_snapshot_identity(
        n in 1usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40, 1u32..1000), 0..120),
        shards in 1usize..6,
    ) {
        let mut builder = cldiam::graph::GraphBuilder::new(n);
        for (u, v, w) in edges {
            if u != v {
                builder.add_edge(u % n as u32, v % n as u32, w);
            }
        }
        let graph = builder.build();
        let mut text = Vec::new();
        edgelist::write_edge_list(&graph, &mut text).unwrap();
        let reparsed = edgelist::parse_edge_list_bytes(&text).unwrap();
        let compressed = CompressedGraph::from_graph(&reparsed, shards);
        let mut snap = Vec::new();
        write_snapshot(&SnapshotPayload::Compressed(&compressed), &mut snap).unwrap();
        let back = parse_snapshot_bytes(&snap).unwrap().graph;
        prop_assert_eq!(back.into_dense(), reparsed);
    }
}

#[test]
fn compressed_snapshot_pipeline_is_identical_across_thread_counts() {
    // text parse → compress → snapshot bytes → reload, at 1, 2 and 8
    // threads: the snapshot bytes and the reloaded graph must be
    // bit-identical to the single-threaded run.
    let bytes = std::fs::read(ROADS_GR).unwrap();
    let mut big = String::from("# big\n");
    for i in 0..3_000u32 {
        big.push_str(&format!("{}\t{}\t{}\n", i, (i * 7 + 1) % 3_001, 1 + i % 50));
    }
    let pipeline = |threads: usize, text: &[u8]| -> (Vec<u8>, Graph) {
        with_pool(threads, || {
            let graph = cldiam::graph::io::load_graph_bytes("input.txt".as_ref(), text).unwrap();
            let compressed = CompressedGraph::from_graph(&graph, 4);
            let mut snap = Vec::new();
            write_snapshot(&SnapshotPayload::Compressed(&compressed), &mut snap).unwrap();
            let back = parse_snapshot_bytes(&snap).unwrap().graph.into_dense();
            assert_eq!(back, graph);
            (snap, back)
        })
    };
    for text in [bytes.as_slice(), big.as_bytes()] {
        let reference = pipeline(1, text);
        for threads in [2, 8] {
            assert_eq!(pipeline(threads, text), reference, "diverged at {threads} threads");
        }
    }
}

/// Loads `text` through its snapshot cache on the default (dense) tier;
/// `true` when the snapshot served the load.
fn load_cached(text: &std::path::Path) -> (Graph, bool) {
    let (graph, from_snapshot) = load_graph_cached_with(text, &CacheOptions::default()).unwrap();
    (graph.into_dense(), from_snapshot)
}

/// Writes a small edge-list text fixture into a directory of its own and
/// returns the directory and the fixture's path.
fn write_text_fixture(name: &str) -> (FixtureDir, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("cldiam-storage-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("input.tsv");
    std::fs::write(&path, "0\t1\t5\n1\t2\t3\n2\t3\t4\n0\t3\t9\n").unwrap();
    (FixtureDir(dir), path)
}

#[test]
fn cache_is_written_then_reused() {
    let (_dir, text) = write_text_fixture("reuse");
    let (first, from_snapshot) = load_cached(&text);
    assert!(!from_snapshot, "first load must parse the text");
    assert!(snapshot_path(&text).exists(), "cache written next to the input");
    let (second, from_snapshot) = load_cached(&text);
    assert!(from_snapshot, "second load must hit the cache");
    assert_eq!(first, second);
}

#[test]
fn stale_cache_is_transparently_regenerated() {
    let (_dir, text) = write_text_fixture("stale");
    load_cached(&text);
    // The text grows an edge and its mtime moves past the cache's.
    std::fs::write(&text, "0\t1\t5\n1\t2\t3\n2\t3\t4\n0\t3\t9\n3\t4\t2\n").unwrap();
    let future = std::time::SystemTime::now() + std::time::Duration::from_secs(60);
    std::fs::OpenOptions::new().append(true).open(&text).unwrap().set_modified(future).unwrap();
    let (graph, from_snapshot) = load_cached(&text);
    assert!(!from_snapshot, "stale cache must fall back to the text");
    assert_eq!(graph.num_nodes(), 5, "the reparse must see the new edge");
}

#[test]
fn future_version_cache_is_transparently_regenerated() {
    let (_dir, text) = write_text_fixture("future");
    let expected = load_graph(&text).unwrap();
    // Forge a cache stamped with a version this build does not know.
    let mut forged = binary::MAGIC.to_vec();
    forged.extend_from_slice(&99u32.to_le_bytes());
    forged.extend_from_slice(&[0u8; 56]);
    let cache = snapshot_path(&text);
    std::fs::write(&cache, &forged).unwrap();
    let future = std::time::SystemTime::now() + std::time::Duration::from_secs(60);
    std::fs::OpenOptions::new().append(true).open(&cache).unwrap().set_modified(future).unwrap();
    let (graph, from_snapshot) = load_cached(&text);
    assert!(!from_snapshot, "unreadable cache must fall back to the text");
    assert_eq!(graph, expected);
    assert_eq!(
        snapshot_version(&std::fs::read(&cache).unwrap()),
        Some(2),
        "the unreadable cache must be replaced by a v2 snapshot"
    );
}

#[test]
fn v1_cache_is_upgraded_to_v2_in_place() {
    let (_dir, text) = write_text_fixture("upgrade");
    let expected = load_graph(&text).unwrap();
    let cache = snapshot_path(&text);
    binary::write_binary(&expected, std::fs::File::create(&cache).unwrap()).unwrap();
    let future = std::time::SystemTime::now() + std::time::Duration::from_secs(60);
    std::fs::OpenOptions::new().append(true).open(&cache).unwrap().set_modified(future).unwrap();
    assert_eq!(snapshot_version(&std::fs::read(&cache).unwrap()), Some(1));
    let (graph, from_snapshot) = load_cached(&text);
    assert!(from_snapshot, "a valid v1 cache still serves the load");
    assert_eq!(graph, expected);
    assert_eq!(
        snapshot_version(&std::fs::read(&cache).unwrap()),
        Some(2),
        "the v1 cache must be upgraded to v2 in place"
    );
}

#[test]
fn cache_tier_follows_the_requested_options() {
    let (_dir, text) = write_text_fixture("tier");
    let dense = load_graph(&text).unwrap();
    let compressed_options = CacheOptions { compress: true, shards: 3, mmap: false, verify: true };
    let (graph, _) = load_graph_cached_with(&text, &compressed_options).unwrap();
    match &graph {
        SnapshotGraph::Compressed(c) => assert_eq!(c.to_graph(), dense),
        other => panic!("expected a compressed payload, got {other:?}"),
    }
    // The cache on disk now holds the compressed tier; asking for the dense
    // tier converts (and rewrites) without reparsing the text.
    let (graph, from_snapshot) = load_graph_cached_with(&text, &CacheOptions::default()).unwrap();
    assert!(from_snapshot);
    assert_eq!(graph, SnapshotGraph::Dense(dense.clone()));
    // And the mmap path serves the same bits.
    for threads in [1, 2, 8] {
        let options = CacheOptions { compress: true, shards: 3, mmap: true, verify: false };
        let loaded =
            with_pool(threads, || load_graph_cached_with(&text, &options).unwrap().0.into_dense());
        assert_eq!(loaded, dense, "mmap load diverged at {threads} threads");
    }
}
