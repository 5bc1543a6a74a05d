//! The reader of `.cldg` snapshot format v1, the older dense-only layout.
//!
//! Snapshots are written in format v2 ([`crate::io::snapshot`]); v1 files
//! still load through [`parse_binary`], which the snapshot readers call on a
//! version-1 image. The layout (all integers little-endian):
//!
//! ```text
//! magic     4 bytes   b"CLDG"
//! version   u32       format version (currently 1)
//! num_nodes u64
//! num_arcs  u64
//! hdr_sum   u64       FNV-1a of the 24 bytes above
//! section × 3 (offsets as u64, targets as u32, weights as u32):
//!   len     u64       payload length in bytes
//!   sum     u64       FNV-1a of the payload
//!   payload len bytes
//! ```
//!
//! Every section is checksummed, so truncation and corruption are detected
//! before any CSR invariant is trusted; [`parse_binary`] additionally
//! re-validates the structural invariants (monotone offsets, in-range
//! targets, positive weights, no self loops, sorted adjacency lists,
//! symmetric arcs) and therefore never panics on hostile input and never
//! yields a [`Graph`] that violates what its query methods assume.

use crate::csr::Graph;
use crate::io::{le_u32, le_u64, IoError};
use crate::weight::{NodeId, Weight};

/// Leading magic bytes of a snapshot file.
pub const MAGIC: &[u8; 4] = b"CLDG";

/// The format version this module reads.
pub const FORMAT_VERSION: u32 = 1;

/// 64-bit FNV-1a, the integrity checksum of the snapshot sections (shared
/// with the v2 layout in [`crate::io::snapshot`]).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Cursor over the snapshot bytes with bounds-checked reads.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], IoError> {
        let end =
            self.pos.checked_add(len).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
                IoError::Format(format!("truncated snapshot: {what} needs {len} bytes"))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u64(&mut self, what: &str) -> Result<u64, IoError> {
        let bytes = self.take(8, what)?;
        Ok(le_u64(bytes))
    }

    fn take_section(&mut self, expected_len: usize, what: &str) -> Result<&'a [u8], IoError> {
        let len = self.take_u64(what)?;
        if len != expected_len as u64 {
            return Err(IoError::Format(format!(
                "{what} section is {len} bytes, expected {expected_len}"
            )));
        }
        let sum = self.take_u64(what)?;
        let payload = self.take(expected_len, what)?;
        if fnv1a(payload) != sum {
            return Err(IoError::Format(format!("{what} section checksum mismatch")));
        }
        Ok(payload)
    }
}

/// Deserializes a snapshot from raw bytes, verifying checksums and every CSR
/// invariant.
pub fn parse_binary(bytes: &[u8]) -> Result<Graph, IoError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let header = cur.take(24, "header")?;
    if &header[..4] != MAGIC {
        return Err(IoError::Format("not a cldiam binary snapshot (bad magic)".to_string()));
    }
    let version = le_u32(&header[4..8]);
    if version != FORMAT_VERSION {
        return Err(IoError::Format(format!(
            "unsupported snapshot version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let num_nodes = le_u64(&header[8..16]);
    let num_arcs = le_u64(&header[16..24]);
    let hdr_sum = cur.take_u64("header checksum")?;
    if fnv1a(header) != hdr_sum {
        return Err(IoError::Format("header checksum mismatch".to_string()));
    }
    if num_nodes >= NodeId::MAX as u64 || num_arcs > usize::MAX as u64 / 8 {
        return Err(IoError::Format(format!(
            "implausible snapshot dimensions: {num_nodes} nodes, {num_arcs} arcs"
        )));
    }
    let (n, arcs) = (num_nodes as usize, num_arcs as usize);

    let offsets_raw = cur.take_section((n + 1) * 8, "offsets")?;
    let targets_raw = cur.take_section(arcs * 4, "targets")?;
    let weights_raw = cur.take_section(arcs * 4, "weights")?;
    if cur.pos != bytes.len() {
        return Err(IoError::Format(format!(
            "{} trailing bytes after the weights section",
            bytes.len() - cur.pos
        )));
    }
    decode_validated_dense(n, arcs, offsets_raw, targets_raw, weights_raw)
}

/// Decodes little-endian CSR sections into an undirected [`Graph`], checking
/// every structural invariant (monotone spanning offsets, sorted in-range
/// targets, no self loops, positive weights, arc symmetry). Never panics on
/// hostile input. Shared by the v1 parser and the buffered v2 dense loader.
pub(crate) fn decode_validated_dense(
    n: usize,
    arcs: usize,
    offsets_raw: &[u8],
    targets_raw: &[u8],
    weights_raw: &[u8],
) -> Result<Graph, IoError> {
    if offsets_raw.len() != (n + 1) * 8
        || targets_raw.len() != arcs * 4
        || weights_raw.len() != arcs * 4
    {
        return Err(IoError::Format("CSR section sizes do not match the header".to_string()));
    }
    let num_arcs = arcs as u64;
    let mut offsets = Vec::with_capacity(n + 1);
    for chunk in offsets_raw.chunks_exact(8) {
        let o = le_u64(chunk);
        if o > num_arcs {
            return Err(IoError::Format(format!("offset {o} exceeds the arc count {num_arcs}")));
        }
        if let Some(&prev) = offsets.last() {
            if (o as usize) < prev {
                return Err(IoError::Format("offsets are not nondecreasing".to_string()));
            }
        }
        offsets.push(o as usize);
    }
    if offsets.first() != Some(&0) || offsets.last() != Some(&arcs) {
        return Err(IoError::Format("offsets do not span the arc array".to_string()));
    }

    let targets: Vec<NodeId> = targets_raw.chunks_exact(4).map(le_u32).collect();
    let weights: Vec<Weight> = weights_raw.chunks_exact(4).map(le_u32).collect();
    for (u, window) in offsets.windows(2).enumerate() {
        let mut prev: Option<NodeId> = None;
        for i in window[0]..window[1] {
            let v = targets[i];
            if prev.is_some_and(|p| v <= p) {
                return Err(IoError::Format(format!(
                    "adjacency list of node {u} is not strictly increasing (edge queries \
                     binary-search it)"
                )));
            }
            prev = Some(v);
            if v as usize >= n {
                return Err(IoError::Format(format!("arc target {v} out of range (n = {n})")));
            }
            if v as usize == u {
                return Err(IoError::Format(format!("self loop on node {u}")));
            }
            if weights[i] == 0 {
                return Err(IoError::Format(format!("zero weight on an arc of node {u}")));
            }
        }
    }
    // Symmetry: every arc must have its reverse with the same weight, or the
    // "undirected" graph would traverse directionally and miscount edges.
    // Adjacency lists are sorted (checked above), so the reverse lookup is a
    // binary search.
    for (u, window) in offsets.windows(2).enumerate() {
        for i in window[0]..window[1] {
            let v = targets[i] as usize;
            let back = &targets[offsets[v]..offsets[v + 1]];
            let reverse = back.binary_search(&(u as NodeId)).ok().map(|j| weights[offsets[v] + j]);
            if reverse != Some(weights[i]) {
                return Err(IoError::Format(format!(
                    "arc {u}->{v} (weight {}) has no matching reverse arc",
                    weights[i]
                )));
            }
        }
    }
    Ok(Graph::from_csr(offsets, targets, weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::v1_image::v1_image;

    fn sample() -> Graph {
        Graph::from_edges(6, &[(0, 1, 3), (1, 2, 4), (0, 3, 9), (3, 4, 1), (2, 4, 8)])
    }

    fn snapshot(graph: &Graph) -> Vec<u8> {
        v1_image(graph.offsets(), graph.targets(), graph.weights())
    }

    #[test]
    fn roundtrips_through_memory() {
        let g = sample();
        assert_eq!(parse_binary(&snapshot(&g)).unwrap(), g);
    }

    #[test]
    fn roundtrips_empty_and_edgeless_graphs() {
        for g in [crate::GraphBuilder::new(0).build(), crate::GraphBuilder::new(7).build()] {
            assert_eq!(parse_binary(&snapshot(&g)).unwrap(), g);
        }
    }

    #[test]
    fn roundtrips_through_file() {
        let g = sample();
        let dir = crate::io::test_dir::TempDir::new("cldiam_binary_test");
        let path = dir.join("g.cldg");
        std::fs::write(&path, snapshot(&g)).unwrap();
        assert_eq!(crate::io::load_graph(&path).unwrap(), g);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut buf = snapshot(&sample());
        buf[0] = b'X';
        assert!(
            matches!(parse_binary(&buf).unwrap_err(), IoError::Format(m) if m.contains("magic"))
        );
        let mut buf = snapshot(&sample());
        buf[4] = 99;
        assert!(
            matches!(parse_binary(&buf).unwrap_err(), IoError::Format(m) if m.contains("version"))
        );
    }

    #[test]
    fn detects_corruption_and_truncation() {
        let full = snapshot(&sample());
        // Flip one payload byte somewhere after the header.
        let mut corrupt = full.clone();
        let idx = full.len() - 3;
        corrupt[idx] ^= 0xFF;
        assert!(parse_binary(&corrupt).is_err());
        // Truncate at every prefix length: must error, never panic.
        for len in 0..full.len() {
            assert!(parse_binary(&full[..len]).is_err(), "prefix {len} accepted");
        }
    }

    #[test]
    fn rejects_unsorted_adjacency_lists() {
        // Node 0's targets stored [2, 1]: checksums fine, but edge queries
        // binary-search the list, so this must be rejected.
        let buf = v1_image(&[0, 2, 3, 4], &[2, 1, 0, 0], &[5, 5, 5, 5]);
        assert!(
            matches!(parse_binary(&buf).unwrap_err(), IoError::Format(m) if m.contains("increasing"))
        );
    }

    #[test]
    fn rejects_asymmetric_arcs() {
        // Arc 0->1 with no 1->0: num_edges() would be wrong and traversal
        // directional.
        let buf = v1_image(&[0, 1, 1], &[1], &[5]);
        assert!(
            matches!(parse_binary(&buf).unwrap_err(), IoError::Format(m) if m.contains("reverse"))
        );
        // Reverse present but with a different weight.
        let buf = v1_image(&[0, 1, 2], &[1, 0], &[5, 6]);
        assert!(
            matches!(parse_binary(&buf).unwrap_err(), IoError::Format(m) if m.contains("reverse"))
        );
    }

    #[test]
    fn accepts_forged_but_valid_snapshot() {
        let buf = v1_image(&[0, 1, 2], &[1, 0], &[5, 5]);
        let g = parse_binary(&buf).unwrap();
        assert_eq!(g, Graph::from_edges(2, &[(0, 1, 5)]));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = snapshot(&sample());
        buf.push(0);
        assert!(
            matches!(parse_binary(&buf).unwrap_err(), IoError::Format(m) if m.contains("trailing"))
        );
    }
}
