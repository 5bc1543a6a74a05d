//! Corruption resistance of the snapshot parsers.
//!
//! The acceptance bar: truncating a valid v1 or v2 snapshot at *every* byte
//! offset, and flipping arbitrary bits anywhere in the image, must yield a
//! typed [`IoError`] or a graph identical to the original — never a panic,
//! and never a silently different graph. The parsers run on whatever the
//! disk hands them; these tests are the trust model's enforcement.

use proptest::prelude::*;

use cldiam_graph::io::snapshot::write_snapshot;
use cldiam_graph::{parse_snapshot_bytes, CompressedGraph, Graph, GraphBuilder, SnapshotPayload};

#[path = "support/v1_image.rs"]
mod v1_image;

fn sample_graph() -> Graph {
    let mut b = GraphBuilder::new(30);
    for u in 0..29u32 {
        b.add_edge(u, u + 1, 1 + (u % 9));
    }
    b.add_edge(0, 15, 40);
    b.add_edge(7, 22, 12);
    b.build()
}

/// The three on-disk images under test: v1, v2 dense, v2 compressed.
fn images() -> Vec<(&'static str, Vec<u8>)> {
    let graph = sample_graph();
    let v1 = v1_image::v1_image(graph.offsets(), graph.targets(), graph.weights());
    let mut v2_dense = Vec::new();
    write_snapshot(&SnapshotPayload::Dense(&graph), &mut v2_dense).expect("serialize v2 dense");
    let compressed = CompressedGraph::from_graph(&graph, 2);
    let mut v2_compressed = Vec::new();
    write_snapshot(&SnapshotPayload::Compressed(&compressed), &mut v2_compressed)
        .expect("serialize v2 compressed");
    vec![("v1", v1), ("v2-dense", v2_dense), ("v2-compressed", v2_compressed)]
}

/// Parsing corrupted bytes must return `Err` or the original graph; the
/// panic-freedom half of the contract is enforced by the test harness.
fn assert_err_or_original(label: &str, what: &str, bytes: &[u8], original: &Graph) {
    match parse_snapshot_bytes(bytes) {
        Err(_) => {}
        Ok(snapshot) => {
            assert_eq!(
                &snapshot.graph.into_dense(),
                original,
                "{label}: {what} parsed into a different graph"
            );
        }
    }
}

#[test]
fn truncation_at_every_offset_is_err_or_original() {
    let original = sample_graph();
    for (label, bytes) in images() {
        for len in 0..bytes.len() {
            assert_err_or_original(
                label,
                &format!("truncation to {len}"),
                &bytes[..len],
                &original,
            );
        }
        // The untruncated image must round-trip.
        assert_eq!(
            parse_snapshot_bytes(&bytes).expect("intact image").graph.into_dense(),
            original,
            "{label}: intact image failed to round-trip"
        );
    }
}

#[test]
fn appended_garbage_is_err_or_original() {
    let original = sample_graph();
    for (label, mut bytes) in images() {
        bytes.extend_from_slice(&[0xAB; 37]);
        assert_err_or_original(label, "appended garbage", &bytes, &original);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bit_flips_are_err_or_original(
        flips in proptest::collection::vec((0usize..1 << 20, 0u8..8), 1..9),
        image in 0usize..3,
    ) {
        let original = sample_graph();
        let (label, mut bytes) = images().swap_remove(image);
        for (offset, bit) in flips {
            let at = offset % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        assert_err_or_original(label, "bit flips", &bytes, &original);
    }

    #[test]
    fn random_byte_stomps_are_err_or_original(
        start in 0usize..1 << 20,
        stomp in proptest::collection::vec(0u8..=255, 1..64),
        image in 0usize..3,
    ) {
        let original = sample_graph();
        let (label, mut bytes) = images().swap_remove(image);
        let at = start % bytes.len();
        let end = (at + stomp.len()).min(bytes.len());
        bytes[at..end].copy_from_slice(&stomp[..end - at]);
        assert_err_or_original(label, "byte stomp", &bytes, &original);
    }
}
