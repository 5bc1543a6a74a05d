//! `.cldg` format v2: sectioned snapshots with an mmap-backed zero-copy
//! read path and optional compressed payloads.
//!
//! Layout (all integers little-endian, every payload section 8-byte-aligned
//! and zero-padded up to the next section):
//!
//! ```text
//! 0x00 magic           b"CLDG"
//! 0x04 version         u32 = 2
//! 0x08 flags           u32   bit0 = compressed payload;
//!                            bits 8..10 = weight coding (0 varint, 1 palette,
//!                            2 constant, 3 fixed-width — width derived from max_weight)
//! 0x0C num_shards      u32   node-range shards (1 for dense payloads)
//! 0x10 num_nodes       u64
//! 0x18 num_arcs        u64
//! 0x20 min_weight      u32
//! 0x24 max_weight      u32
//! 0x28 weight_sum      u64   sum of weights over stored arcs
//! 0x30 num_sections    u32
//! 0x34 nodes_per_shard u32   0 for dense payloads
//! 0x38 hdr_sum         u64   FNV-1a of bytes 0x00..0x38
//! 0x40 section table   num_sections × { kind u32, shard u32, offset u64,
//!                                       len u64, checksum u64 }
//!      table_sum       u64   FNV-1a of the table bytes
//!      payload sections...
//! ```
//!
//! Dense payloads carry three sections (`offsets` as u64, `targets` and
//! `weights` as u32) — exactly the v1 arrays, but at known aligned offsets,
//! so the mmap loader can serve them to [`Graph`] as zero-copy typed slices
//! with O(header) work before the first query. Compressed payloads carry a
//! `bases` + `blocks` section pair per shard (plus one `palette` section
//! when the weight coding needs it); see [`crate::compressed`] for the block
//! format.
//!
//! ## Trust model
//!
//! The header and section table are validated eagerly on every load
//! (checksums, plausibility, section bounds/alignment), and so are the
//! per-shard group bases of compressed payloads (each must stay inside its
//! blob section, nondecreasing) — no offset read from disk is ever used to
//! index memory before being bounds-checked. Buffered loads also verify
//! every payload checksum and fully re-validate dense CSR invariants, so
//! hostile input errors cleanly, exactly like v1. The mmap path instead
//! trusts payload *contents* — v2 snapshots are only written from
//! already-validated graphs — and verifies payload checksums only when
//! [`SnapshotOptions::verify`] is set (the CLI's `--verify-snapshot`): a
//! deliberately corrupted unverified mapped blob can still panic at
//! traversal time (bounds checks inside the varint decoder), but never
//! causes undefined behaviour; pass `verify` to detect it at load time.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use crate::compressed::{
    mapped_shard, weight_width, CompressedGraph, Shard, WeightCoding, GROUP, MAX_PALETTE,
};
use crate::csr::{Graph, WeightStats};
use crate::io::binary::{decode_validated_dense, fnv1a, MAGIC};
use crate::io::{le_u32, le_u64, IoError};
use crate::mmap::Mmap;
use crate::storage::Storage;
use crate::weight::{NodeId, Weight};

/// Version written by [`write_snapshot`] and read by the v2 parser.
pub const FORMAT_VERSION_2: u32 = 2;

const HEADER_LEN: usize = 0x40;
const SECTION_ENTRY_LEN: usize = 32;

const FLAG_COMPRESSED: u32 = 1;
const CODING_SHIFT: u32 = 8;
const CODING_VARINT: u32 = 0;
const CODING_PALETTE: u32 = 1;
const CODING_CONSTANT: u32 = 2;
const CODING_FIXED: u32 = 3;

const KIND_OFFSETS: u32 = 1;
const KIND_TARGETS: u32 = 2;
const KIND_WEIGHTS: u32 = 3;
const KIND_BASES: u32 = 4;
const KIND_BLOCKS: u32 = 5;
const KIND_PALETTE: u32 = 6;

/// Whether mapped sections can be served as zero-copy typed slices: the
/// on-disk layout is little-endian with 8-byte offsets.
const ZERO_COPY: bool = cfg!(all(target_endian = "little", target_pointer_width = "64"));

/// What to serialize into a v2 snapshot.
pub enum SnapshotPayload<'a> {
    /// Dense CSR sections (the v1 arrays at aligned offsets).
    Dense(&'a Graph),
    /// Delta-varint compressed blocks, sharded.
    Compressed(&'a CompressedGraph),
}

/// What a snapshot load produced.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotGraph {
    /// A dense graph (v1 files, or v2 files with dense payloads).
    Dense(Graph),
    /// A compressed graph (v2 files with compressed payloads).
    Compressed(CompressedGraph),
}

impl SnapshotGraph {
    /// The dense view, decompressing if needed.
    pub fn into_dense(self) -> Graph {
        match self {
            SnapshotGraph::Dense(g) => g,
            SnapshotGraph::Compressed(c) => c.to_graph(),
        }
    }

    /// Number of nodes, whichever tier is loaded.
    pub fn num_nodes(&self) -> usize {
        match self {
            SnapshotGraph::Dense(g) => g.num_nodes(),
            SnapshotGraph::Compressed(c) => c.num_nodes(),
        }
    }
}

/// A loaded snapshot: the graph plus the format version it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The deserialized payload.
    pub graph: SnapshotGraph,
    /// On-disk format version (1 or 2).
    pub version: u32,
}

/// Read-path knobs.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotOptions {
    /// Serve payload sections straight from a memory mapping instead of
    /// buffering and copying the file (v2 only; v1 files are buffered).
    pub mmap: bool,
    /// Verify payload checksums even on the mmap path. Buffered loads always
    /// verify.
    pub verify: bool,
}

impl Default for SnapshotOptions {
    fn default() -> Self {
        SnapshotOptions { mmap: false, verify: true }
    }
}

struct SectionDesc {
    kind: u32,
    shard: u32,
    payload: Vec<u8>,
}

fn le_bytes_u64(values: impl Iterator<Item = u64>, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_bytes_u32(values: impl Iterator<Item = u32>, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Serializes a v2 snapshot.
///
/// Directed graphs are refused for the same reason as in v1: the format
/// stores only forward arrays and the loader assumes symmetry.
pub fn write_snapshot<W: Write>(payload: &SnapshotPayload<'_>, writer: W) -> std::io::Result<()> {
    let (flags, num_shards, nodes_per_shard, stats, sections) = match payload {
        SnapshotPayload::Dense(graph) => {
            if graph.is_directed() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "binary snapshots only support undirected graphs",
                ));
            }
            let sections = vec![
                SectionDesc {
                    kind: KIND_OFFSETS,
                    shard: 0,
                    payload: le_bytes_u64(
                        graph.offsets().iter().map(|&o| o as u64),
                        graph.offsets().len(),
                    ),
                },
                SectionDesc {
                    kind: KIND_TARGETS,
                    shard: 0,
                    payload: le_bytes_u32(graph.targets().iter().copied(), graph.targets().len()),
                },
                SectionDesc {
                    kind: KIND_WEIGHTS,
                    shard: 0,
                    payload: le_bytes_u32(graph.weights().iter().copied(), graph.weights().len()),
                },
            ];
            let stats = (graph.num_nodes() as u64, graph.num_arcs() as u64, graph.weight_stats());
            (0u32, 1u32, 0u32, stats, sections)
        }
        SnapshotPayload::Compressed(c) => {
            let coding_flag = match c.coding() {
                WeightCoding::Varint => CODING_VARINT,
                WeightCoding::Palette(_) => CODING_PALETTE,
                WeightCoding::Constant(_) => CODING_CONSTANT,
                WeightCoding::Fixed(_) => CODING_FIXED,
            };
            let mut sections = Vec::with_capacity(1 + 2 * c.num_shards());
            if let WeightCoding::Palette(table) = c.coding() {
                sections.push(SectionDesc {
                    kind: KIND_PALETTE,
                    shard: 0,
                    payload: le_bytes_u32(table.iter().copied(), table.len()),
                });
            }
            for (s, shard) in c.shards().iter().enumerate() {
                sections.push(SectionDesc {
                    kind: KIND_BASES,
                    shard: s as u32,
                    payload: le_bytes_u32(shard.bases.iter().copied(), shard.bases.len()),
                });
                sections.push(SectionDesc {
                    kind: KIND_BLOCKS,
                    shard: s as u32,
                    payload: shard.blob.to_vec(),
                });
            }
            let stats = (c.num_nodes() as u64, c.num_arcs() as u64, c.weight_stats());
            (
                FLAG_COMPRESSED | (coding_flag << CODING_SHIFT),
                c.num_shards() as u32,
                c.nodes_per_shard() as u32,
                stats,
                sections,
            )
        }
    };
    let (num_nodes, num_arcs, weight_stats) = stats;

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&FORMAT_VERSION_2.to_le_bytes());
    header.extend_from_slice(&flags.to_le_bytes());
    header.extend_from_slice(&num_shards.to_le_bytes());
    header.extend_from_slice(&num_nodes.to_le_bytes());
    header.extend_from_slice(&num_arcs.to_le_bytes());
    header.extend_from_slice(&weight_stats.min.to_le_bytes());
    header.extend_from_slice(&weight_stats.max.to_le_bytes());
    header.extend_from_slice(&weight_stats.sum.to_le_bytes());
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    header.extend_from_slice(&nodes_per_shard.to_le_bytes());
    let hdr_sum = fnv1a(&header);
    header.extend_from_slice(&hdr_sum.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);

    // Assign aligned payload offsets and build the table.
    let mut table = Vec::with_capacity(sections.len() * SECTION_ENTRY_LEN);
    let mut offset = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN + 8;
    debug_assert_eq!(offset % 8, 0);
    let mut offsets = Vec::with_capacity(sections.len());
    for section in &sections {
        offsets.push(offset);
        table.extend_from_slice(&section.kind.to_le_bytes());
        table.extend_from_slice(&section.shard.to_le_bytes());
        table.extend_from_slice(&(offset as u64).to_le_bytes());
        table.extend_from_slice(&(section.payload.len() as u64).to_le_bytes());
        table.extend_from_slice(&fnv1a(&section.payload).to_le_bytes());
        offset += section.payload.len().div_ceil(8) * 8;
    }
    let table_sum = fnv1a(&table);

    let mut out = BufWriter::new(writer);
    out.write_all(&header)?;
    out.write_all(&table)?;
    out.write_all(&table_sum.to_le_bytes())?;
    for (i, section) in sections.iter().enumerate() {
        out.write_all(&section.payload)?;
        let pad = section.payload.len().div_ceil(8) * 8 - section.payload.len();
        // The final section is unpadded: file length equals the last
        // payload's end.
        if i + 1 < sections.len() {
            out.write_all(&[0u8; 8][..pad])?;
        }
    }
    out.flush()
}

/// Writes a v2 snapshot to a file path, crash-safely: the bytes are
/// serialized in memory and land via temp file + fsync + atomic rename, so
/// a crashed or concurrent writer never leaves a torn snapshot at `path`.
pub fn write_snapshot_file<P: AsRef<Path>>(
    payload: &SnapshotPayload<'_>,
    path: P,
) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    write_snapshot(payload, &mut bytes)?;
    super::write_bytes_atomic(&bytes, path.as_ref())
}

/// One parsed (and eagerly validated) section table entry.
#[derive(Clone, Copy)]
struct SectionEntry {
    kind: u32,
    shard: u32,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// Parsed header + table, shared by the mapped and buffered assembly paths.
struct Layout {
    flags: u32,
    num_shards: usize,
    num_nodes: usize,
    num_arcs: usize,
    weight_stats: WeightStats,
    nodes_per_shard: usize,
    entries: Vec<SectionEntry>,
}

fn format_err<T>(message: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Format(message.into()))
}

/// Validates magic, version, header and table checksums, plausibility and
/// section bounds/alignment. O(header + table), independent of payload size.
fn parse_layout(bytes: &[u8]) -> Result<Layout, IoError> {
    if bytes.len() < HEADER_LEN {
        return format_err("truncated snapshot: header incomplete");
    }
    if &bytes[..4] != MAGIC {
        return format_err("not a cldiam binary snapshot (bad magic)");
    }
    let u32_at = |at: usize| le_u32(&bytes[at..at + 4]);
    let u64_at = |at: usize| le_u64(&bytes[at..at + 8]);
    let version = u32_at(0x04);
    if version != FORMAT_VERSION_2 {
        return format_err(format!(
            "unsupported snapshot version {version} (the v2 reader handles {FORMAT_VERSION_2})"
        ));
    }
    if fnv1a(&bytes[..HEADER_LEN - 8]) != u64_at(HEADER_LEN - 8) {
        return format_err("header checksum mismatch");
    }
    let flags = u32_at(0x08);
    let num_shards = u32_at(0x0C) as usize;
    let num_nodes = u64_at(0x10);
    let num_arcs = u64_at(0x18);
    let num_sections = u32_at(0x30) as usize;
    if num_nodes >= NodeId::MAX as u64 || num_arcs > usize::MAX as u64 / 8 {
        return format_err(format!(
            "implausible snapshot dimensions: {num_nodes} nodes, {num_arcs} arcs"
        ));
    }
    let (num_nodes, num_arcs) = (num_nodes as usize, num_arcs as usize);
    if num_shards == 0 || num_shards > num_nodes.max(1) {
        return format_err(format!("implausible shard count {num_shards}"));
    }
    if num_sections > 1 + 2 * num_shards {
        return format_err(format!("implausible section count {num_sections}"));
    }
    let table_len = num_sections * SECTION_ENTRY_LEN;
    let payload_start = HEADER_LEN + table_len + 8;
    if bytes.len() < payload_start {
        return format_err("truncated snapshot: section table incomplete");
    }
    let table = &bytes[HEADER_LEN..HEADER_LEN + table_len];
    if fnv1a(table) != u64_at(HEADER_LEN + table_len) {
        return format_err("section table checksum mismatch");
    }
    let mut entries = Vec::with_capacity(num_sections);
    let mut end_max = payload_start;
    for chunk in table.chunks_exact(SECTION_ENTRY_LEN) {
        let entry = SectionEntry {
            kind: le_u32(&chunk[0..4]),
            shard: le_u32(&chunk[4..8]),
            offset: le_u64(&chunk[8..16]) as usize,
            len: le_u64(&chunk[16..24]) as usize,
            checksum: le_u64(&chunk[24..32]),
        };
        if !entry.offset.is_multiple_of(8) || entry.offset < payload_start {
            return format_err(format!("section {} is misaligned", entry.kind));
        }
        let end =
            entry.offset.checked_add(entry.len).filter(|&e| e <= bytes.len()).ok_or_else(|| {
                IoError::Format(format!("section {} overruns the file", entry.kind))
            })?;
        end_max = end_max.max(end);
        entries.push(entry);
    }
    if end_max != bytes.len() {
        return format_err(format!(
            "{} trailing bytes after the last section",
            bytes.len() - end_max
        ));
    }
    Ok(Layout {
        flags,
        num_shards,
        num_nodes,
        num_arcs,
        weight_stats: WeightStats { min: u32_at(0x20), max: u32_at(0x24), sum: u64_at(0x28) },
        nodes_per_shard: u32_at(0x34) as usize,
        entries,
    })
}

impl Layout {
    /// The unique section of `kind`/`shard`, with its exact expected length
    /// (or `None` for variable-length sections).
    fn section(
        &self,
        kind: u32,
        shard: u32,
        expect_len: Option<usize>,
    ) -> Result<SectionEntry, IoError> {
        let mut found = None;
        for entry in &self.entries {
            if entry.kind == kind && entry.shard == shard {
                if found.is_some() {
                    return format_err(format!("duplicate section kind {kind} shard {shard}"));
                }
                found = Some(*entry);
            }
        }
        let entry = found
            .ok_or_else(|| IoError::Format(format!("missing section kind {kind} shard {shard}")))?;
        if let Some(expected) = expect_len {
            if entry.len != expected {
                return format_err(format!(
                    "section kind {kind} is {} bytes, expected {expected}",
                    entry.len
                ));
            }
        }
        Ok(entry)
    }

    fn verify_payloads(&self, bytes: &[u8]) -> Result<(), IoError> {
        for entry in &self.entries {
            if fnv1a(&bytes[entry.offset..entry.offset + entry.len]) != entry.checksum {
                return format_err(format!("section kind {} checksum mismatch", entry.kind));
            }
        }
        Ok(())
    }

    /// Node span of shard `s`.
    fn shard_span(&self, s: usize) -> usize {
        let lo = (s * self.nodes_per_shard).min(self.num_nodes);
        let hi = ((s + 1) * self.nodes_per_shard).min(self.num_nodes);
        hi - lo
    }
}

/// Parses a v2 snapshot from fully buffered bytes: payload checksums always
/// verified, dense payloads fully re-validated, everything copied to owned
/// storage.
pub fn parse_snapshot_v2(bytes: &[u8]) -> Result<SnapshotGraph, IoError> {
    let layout = parse_layout(bytes)?;
    layout.verify_payloads(bytes)?;
    assemble(&layout, bytes, None)
}

/// Parses a v2 snapshot served from a memory mapping: payload sections become
/// zero-copy typed views into the mapping (on little-endian 64-bit hosts;
/// other hosts fall back to owned copies), checksums verified only when
/// `verify` is set.
fn parse_snapshot_v2_mapped(map: Arc<Mmap>, verify: bool) -> Result<SnapshotGraph, IoError> {
    let layout = parse_layout(map.as_slice())?;
    if verify {
        layout.verify_payloads(map.as_slice())?;
    }
    if ZERO_COPY {
        assemble(&layout, map.as_slice(), Some(&map))
    } else {
        // Big-endian or 32-bit host: mapped sections cannot be reinterpreted
        // in place; decode owned copies with full validation instead.
        layout.verify_payloads(map.as_slice())?;
        assemble(&layout, map.as_slice(), None)
    }
}

/// Builds the graph from a validated layout. With `map`, payloads become
/// zero-copy mapped storage (trusting structure, see the module docs); without
/// it, payloads are decoded into owned storage with full validation.
fn assemble(
    layout: &Layout,
    bytes: &[u8],
    map: Option<&Arc<Mmap>>,
) -> Result<SnapshotGraph, IoError> {
    if layout.flags & FLAG_COMPRESSED == 0 {
        assemble_dense(layout, bytes, map).map(SnapshotGraph::Dense)
    } else {
        assemble_compressed(layout, bytes, map).map(SnapshotGraph::Compressed)
    }
}

fn assemble_dense(
    layout: &Layout,
    bytes: &[u8],
    map: Option<&Arc<Mmap>>,
) -> Result<Graph, IoError> {
    let (n, arcs) = (layout.num_nodes, layout.num_arcs);
    let offsets = layout.section(KIND_OFFSETS, 0, Some((n + 1) * 8))?;
    let targets = layout.section(KIND_TARGETS, 0, Some(arcs * 4))?;
    let weights = layout.section(KIND_WEIGHTS, 0, Some(arcs * 4))?;
    match map {
        Some(map) => {
            let misaligned = || IoError::Format("dense section misaligned for mapping".to_string());
            let offsets: Storage<usize> =
                Storage::mapped(Arc::clone(map), offsets.offset, n + 1).ok_or_else(misaligned)?;
            let targets: Storage<NodeId> =
                Storage::mapped(Arc::clone(map), targets.offset, arcs).ok_or_else(misaligned)?;
            let weights: Storage<Weight> =
                Storage::mapped(Arc::clone(map), weights.offset, arcs).ok_or_else(misaligned)?;
            // O(1) shape checks; the O(arcs) invariants were validated when
            // the snapshot was written.
            if offsets.first() != Some(&0) || offsets.last() != Some(&arcs) {
                return format_err("offsets do not span the arc array");
            }
            Ok(Graph::from_storage_unchecked(offsets, targets, weights, layout.weight_stats))
        }
        None => decode_validated_dense(
            n,
            arcs,
            &bytes[offsets.offset..offsets.offset + offsets.len],
            &bytes[targets.offset..targets.offset + targets.len],
            &bytes[weights.offset..weights.offset + weights.len],
        ),
    }
}

fn assemble_compressed(
    layout: &Layout,
    bytes: &[u8],
    map: Option<&Arc<Mmap>>,
) -> Result<CompressedGraph, IoError> {
    let coding = match (layout.flags >> CODING_SHIFT) & 0b11 {
        CODING_VARINT => WeightCoding::Varint,
        CODING_PALETTE => {
            let entry = layout.section(KIND_PALETTE, 0, None)?;
            let count = entry.len / 4;
            if entry.len % 4 != 0 || count == 0 || count > MAX_PALETTE {
                return format_err(format!("implausible palette section ({} bytes)", entry.len));
            }
            let table: Vec<Weight> =
                bytes[entry.offset..entry.offset + entry.len].chunks_exact(4).map(le_u32).collect();
            WeightCoding::Palette(table)
        }
        CODING_CONSTANT => {
            WeightCoding::Constant(if layout.num_arcs > 0 { layout.weight_stats.min } else { 1 })
        }
        // The width is a pure function of the maximum weight, so the header
        // stats pin it without a dedicated field.
        CODING_FIXED => WeightCoding::Fixed(weight_width(layout.weight_stats.max)),
        other => return format_err(format!("unknown weight coding {other}")),
    };
    if layout.nodes_per_shard == 0 {
        return format_err("compressed snapshot with zero nodes per shard");
    }
    let mut shards = Vec::with_capacity(layout.num_shards);
    for s in 0..layout.num_shards {
        let span = layout.shard_span(s);
        let groups = span.div_ceil(GROUP).max(1);
        let bases = layout.section(KIND_BASES, s as u32, Some(groups * 4))?;
        let blob = layout.section(KIND_BLOCKS, s as u32, None)?;
        let shard = match map {
            Some(map) if cfg!(target_endian = "little") => {
                mapped_shard(map, bases.offset, groups, blob.offset, blob.len)
                    .ok_or_else(|| IoError::Format("compressed section misaligned".to_string()))?
            }
            _ => {
                let bases_vec: Vec<u32> = bytes[bases.offset..bases.offset + bases.len]
                    .chunks_exact(4)
                    .map(le_u32)
                    .collect();
                let blob_vec = bytes[blob.offset..blob.offset + blob.len].to_vec();
                Shard { bases: bases_vec.into(), blob: blob_vec.into() }
            }
        };
        // The section table only bounds the *sections*; the group bases
        // inside a `bases` section index into the blob and are trusted by
        // `CompressedGraph::neighbors`. Validate them here (O(bases), still
        // independent of payload size) so a hostile or bit-rotted bases
        // array yields a typed error instead of an out-of-range slice —
        // this covers the unverified mmap path too.
        let mut prev = 0u32;
        for &base in shard.bases.iter() {
            if base as usize > blob.len || base < prev {
                return format_err(format!(
                    "group base {base} out of range for shard {s} ({} blob bytes)",
                    blob.len
                ));
            }
            prev = base;
        }
        shards.push(shard);
    }
    // Reject shard/geometry mismatches the section checks cannot see.
    if layout.num_shards != layout.num_nodes.div_ceil(layout.nodes_per_shard).max(1) {
        return format_err("shard count does not match the node range");
    }
    Ok(CompressedGraph::from_parts(
        layout.num_nodes,
        layout.num_arcs,
        layout.weight_stats,
        coding,
        layout.nodes_per_shard,
        shards,
    ))
}

/// Reads a snapshot of either format version from `path`.
///
/// Version 1 files are buffered and fully validated by the v1 parser.
/// Version 2 files honour [`SnapshotOptions`]: with `mmap` the payload is
/// served zero-copy from the mapping after O(header) validation; without it
/// the file is buffered, verified and copied.
pub fn read_snapshot_file<P: AsRef<Path>>(
    path: P,
    options: &SnapshotOptions,
) -> Result<Snapshot, IoError> {
    let path = path.as_ref();
    if options.mmap {
        let file = super::open_file(path, "snapshot::read")?;
        let map = Arc::new(Mmap::map(&file).map_err(IoError::Io)?);
        match snapshot_version(map.as_slice()) {
            Some(1) => Ok(Snapshot {
                graph: SnapshotGraph::Dense(super::binary::parse_binary(map.as_slice())?),
                version: 1,
            }),
            _ => Ok(Snapshot {
                graph: parse_snapshot_v2_mapped(map, options.verify)?,
                version: FORMAT_VERSION_2,
            }),
        }
    } else {
        let bytes = super::read_file_bytes(path, "snapshot::read")?;
        parse_snapshot_bytes(&bytes)
    }
}

/// Parses buffered snapshot bytes of either format version.
pub fn parse_snapshot_bytes(bytes: &[u8]) -> Result<Snapshot, IoError> {
    match snapshot_version(bytes) {
        Some(1) => Ok(Snapshot {
            graph: SnapshotGraph::Dense(super::binary::parse_binary(bytes)?),
            version: 1,
        }),
        _ => Ok(Snapshot { graph: parse_snapshot_v2(bytes)?, version: FORMAT_VERSION_2 }),
    }
}

/// The format version of snapshot bytes, if they carry the magic.
pub fn snapshot_version(bytes: &[u8]) -> Option<u32> {
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return None;
    }
    Some(le_u32(&bytes[4..8]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::binary;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(40);
        for u in 0..39u32 {
            b.add_edge(u, u + 1, 1 + (u % 7));
        }
        b.add_edge(0, 20, 9);
        b.build()
    }

    fn snapshot_bytes(payload: &SnapshotPayload<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(payload, &mut buf).unwrap();
        buf
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cldiam-snap-{}-{name}.cldg", std::process::id()))
    }

    #[test]
    fn dense_roundtrips_buffered() {
        let g = sample();
        let buf = snapshot_bytes(&SnapshotPayload::Dense(&g));
        let snap = parse_snapshot_bytes(&buf).unwrap();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.graph, SnapshotGraph::Dense(g));
    }

    #[test]
    fn compressed_roundtrips_buffered() {
        let g = sample();
        for shards in [1, 3, 8] {
            let c = CompressedGraph::from_graph(&g, shards);
            let buf = snapshot_bytes(&SnapshotPayload::Compressed(&c));
            let snap = parse_snapshot_bytes(&buf).unwrap();
            match snap.graph {
                SnapshotGraph::Compressed(back) => {
                    assert_eq!(back, c);
                    assert_eq!(back.to_graph(), g);
                }
                other => panic!("expected compressed payload, got {other:?}"),
            }
        }
    }

    #[test]
    fn fixed_width_coding_roundtrips_buffered_and_mapped() {
        // > 256 distinct high-entropy weights select the fixed-width coding,
        // whose byte width travels through the header stats, not a section.
        let mut b = GraphBuilder::new(300);
        for u in 0..299u32 {
            b.add_edge(u, u + 1, 500_000 + u);
        }
        let g = b.build();
        let c = CompressedGraph::from_graph(&g, 2);
        assert!(matches!(c.coding(), WeightCoding::Fixed(3)));

        let buf = snapshot_bytes(&SnapshotPayload::Compressed(&c));
        let snap = parse_snapshot_bytes(&buf).unwrap();
        assert_eq!(snap.graph, SnapshotGraph::Compressed(c.clone()));

        let path = temp_path("fixed");
        write_snapshot_file(&SnapshotPayload::Compressed(&c), &path).unwrap();
        let snap =
            read_snapshot_file(&path, &SnapshotOptions { mmap: true, verify: true }).unwrap();
        match snap.graph {
            SnapshotGraph::Compressed(back) => assert_eq!(back.to_graph(), g),
            other => panic!("expected compressed payload, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dense_and_compressed_roundtrip_mapped() {
        let g = sample();
        let c = CompressedGraph::from_graph(&g, 4);
        for (name, payload, want_dense) in [
            ("dense", SnapshotPayload::Dense(&g), true),
            ("compressed", SnapshotPayload::Compressed(&c), false),
        ] {
            let path = temp_path(name);
            write_snapshot_file(&payload, &path).unwrap();
            for verify in [false, true] {
                let snap =
                    read_snapshot_file(&path, &SnapshotOptions { mmap: true, verify }).unwrap();
                assert_eq!(snap.version, 2);
                match (&snap.graph, want_dense) {
                    (SnapshotGraph::Dense(d), true) => assert_eq!(d, &g),
                    (SnapshotGraph::Compressed(back), false) => {
                        assert_eq!(back.to_graph(), g);
                        assert_eq!(back.num_shards(), c.num_shards());
                    }
                    (other, _) => panic!("unexpected payload {other:?}"),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v1_files_still_load_through_the_snapshot_reader() {
        let g = sample();
        let path = temp_path("v1");
        binary::write_binary(&g, std::fs::File::create(&path).unwrap()).unwrap();
        for mmap in [false, true] {
            let snap = read_snapshot_file(&path, &SnapshotOptions { mmap, verify: true }).unwrap();
            assert_eq!(snap.version, 1);
            assert_eq!(snap.graph, SnapshotGraph::Dense(g.clone()));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graphs_roundtrip() {
        for g in [Graph::empty(0), Graph::empty(5)] {
            let buf = snapshot_bytes(&SnapshotPayload::Dense(&g));
            assert_eq!(parse_snapshot_bytes(&buf).unwrap().graph, SnapshotGraph::Dense(g.clone()));
            let c = CompressedGraph::from_graph(&g, 2);
            let buf = snapshot_bytes(&SnapshotPayload::Compressed(&c));
            assert_eq!(parse_snapshot_bytes(&buf).unwrap().graph.into_dense(), g);
        }
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let g = sample();
        let full = snapshot_bytes(&SnapshotPayload::Dense(&g));
        for len in 0..full.len() {
            assert!(parse_snapshot_bytes(&full[..len]).is_err(), "prefix {len} accepted");
        }
        // Flip one byte in every region: header, table, payload.
        for idx in [5usize, 9, HEADER_LEN + 3, full.len() - 2] {
            let mut corrupt = full.clone();
            corrupt[idx] ^= 0x40;
            assert!(parse_snapshot_bytes(&corrupt).is_err(), "corruption at {idx} accepted");
        }
        let mut trailing = full.clone();
        trailing.push(7);
        assert!(matches!(
            parse_snapshot_bytes(&trailing).unwrap_err(),
            IoError::Format(m) if m.contains("trailing")
        ));
    }

    #[test]
    fn mapped_load_without_verify_skips_payload_corruption_but_header_is_checked() {
        let g = sample();
        let c = CompressedGraph::from_graph(&g, 2);
        let path = temp_path("no-verify");
        write_snapshot_file(&SnapshotPayload::Compressed(&c), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the header: caught even without verify.
        bytes[9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot_file(&path, &SnapshotOptions { mmap: true, verify: false }).is_err());
        // Corrupt a payload byte: only the verifying load notices at parse
        // time (the unverified mapped load defers to bounds checks).
        bytes[9] ^= 0xFF;
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot_file(&path, &SnapshotOptions { mmap: true, verify: true }).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn directed_graphs_are_refused() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_arc(0, 1, 3);
        let g = b.build();
        let err = write_snapshot(&SnapshotPayload::Dense(&g), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn snapshot_version_sniffs_correctly() {
        let g = sample();
        assert_eq!(snapshot_version(&snapshot_bytes(&SnapshotPayload::Dense(&g))), Some(2));
        let mut v1 = Vec::new();
        binary::write_binary(&g, &mut v1).unwrap();
        assert_eq!(snapshot_version(&v1), Some(1));
        assert_eq!(snapshot_version(b"p sp 2 1\n"), None);
        assert_eq!(snapshot_version(b"CL"), None);
    }
}
