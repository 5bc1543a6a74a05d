//! Golden fingerprints of the generated graphs.
//!
//! One graph of every `gen:` family is pinned here, raw and as its largest
//! component, by a hash of its CSR arrays. The perfbench
//! counters pin only the three benchmark graphs, and only indirectly; a
//! change to a generator, to `GraphBuilder` or to subgraph extraction that
//! moves any other graph by one arc or one weight fails here instead of
//! going unnoticed.
//!
//! Every fingerprint is computed at 1, 2 and 3 threads, so the parallel
//! construction is pinned at an uneven part count too.
//!
//! A deliberate change to a generator's output must update the constants
//! and say why; the failure message prints the new ones.

use cldiam::gen::{GraphSpec, WeightModel};
use cldiam::graph::{largest_component, Graph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 3];

fn with_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(op)
}

/// FNV-1a over the node count, then every offset, target and weight, each
/// as little-endian bytes.
fn fingerprint(graph: &Graph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(&(graph.num_nodes() as u64).to_le_bytes());
    for &offset in graph.offsets() {
        feed(&(offset as u64).to_le_bytes());
    }
    for &target in graph.targets() {
        feed(&target.to_le_bytes());
    }
    for &weight in graph.weights() {
        feed(&weight.to_le_bytes());
    }
    hash
}

/// `(spec, raw fingerprint, largest-component fingerprint)` at seed 1.
const GOLDEN: [(&str, u64, u64); 6] = [
    ("road:120x120", 0x363288c6a22d5349, 0xfde1072df4bef26c),
    ("rmat:12", 0xa1e94ce2c577fe74, 0x1b4ebf85c82ba560),
    ("mesh:48", 0x96994a884a441fa9, 0x96994a884a441fa9),
    ("ba:4000:4", 0x093cda06791df67a, 0x093cda06791df67a),
    ("gnm:4000:16000", 0xe030026b26effc68, 0x591562ad2f89e18f),
    ("roads:3:20x20", 0x7d3c20efb6f0b95d, 0xf6f1b0cc7f8aef15),
];

#[test]
fn generated_graphs_match_their_golden_fingerprints() {
    let mut drifted = Vec::new();
    for threads in THREAD_COUNTS {
        for &(spec, raw_golden, lcc_golden) in &GOLDEN {
            let (raw_hash, lcc_hash) = with_pool(threads, || {
                let raw = GraphSpec::parse(spec).expect("valid spec").generate(1);
                let (lcc, _) = largest_component(&raw);
                (fingerprint(&raw), fingerprint(&lcc))
            });
            if (raw_hash, lcc_hash) != (raw_golden, lcc_golden) {
                drifted.push(format!(
                    "(\"{spec}\", {raw_hash:#018x}, {lcc_hash:#018x}) at {threads} threads"
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "generated graphs drifted; now:\n{}", drifted.join("\n"));
}

#[test]
fn reweighted_road_matches_its_golden_fingerprint() {
    // `generate_with` re-draws the weights through `ops::map_weights`.
    let spec = GraphSpec::parse("road:60x60").expect("valid spec");
    for threads in THREAD_COUNTS {
        let hash =
            with_pool(threads, || fingerprint(&spec.generate_with(WeightModel::UniformUnit, 1)));
        assert_eq!(
            hash, 0x5cc7a49f47688bf5,
            "road:60x60 reweighted at {threads} threads: {hash:#018x}"
        );
    }
}
