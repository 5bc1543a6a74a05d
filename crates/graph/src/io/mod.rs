//! Graph file ingestion: text parsers, binary snapshots, format detection.
//!
//! The paper's experiments run on external real-world graphs — SNAP social
//! networks and DIMACS road networks — so this module provides a path from
//! files on disk to the pipeline:
//!
//! * [`edgelist`] — SNAP/TSV-style edge lists (`u v [w]`, `#`/`%`/`c`
//!   comments, 0-based ids), the format of the SNAP collection.
//! * [`dimacs`] — the DIMACS shortest-path format (`c` comments, one
//!   `p sp <n> <m>` header, `a <u> <v> <w>` arcs, 1-based ids), the format of
//!   the 9th DIMACS Implementation Challenge road networks.
//! * [`binary`] — a versioned binary CSR snapshot (magic + header +
//!   checksummed sections) so repeated runs on the same input skip text
//!   parsing entirely.
//! * [`load_graph`] / [`detect_format`] — open any of the above by sniffing
//!   the file content (extension as a tie-breaker).
//!
//! Both text parsers are parallel: the input is split into newline-aligned
//! chunks, every chunk is parsed on the rayon pool, and the per-chunk edge
//! vectors are concatenated in chunk order. Because the merge is
//! chunk-ordered and [`crate::GraphBuilder`] sorts and deduplicates every
//! adjacency list, which leaves no trace of the arc order, the resulting
//! [`Graph`] is bit-identical at any thread count. Errors carry precise
//! 1-based line numbers; when several lines are malformed the error reported
//! is always the earliest one in file order, again independent of the
//! chunking.

pub mod binary;
pub mod dimacs;
pub mod edgelist;
pub mod snapshot;
pub mod varint;

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use rayon::prelude::*;

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::failpoint::{self, WriteFault};
use crate::weight::{NodeId, Weight};

/// Infallible little-endian decodes for length-checked slices. Every
/// hostile-input decode path goes through these (or `from_le_bytes` on a
/// literal array) rather than `try_into().expect(...)`, so the parsers
/// contain no panicking conversions at all — disk faults and corruption
/// surface as [`IoError`], never as a panic.
#[inline]
pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// See [`le_u32`].
#[inline]
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ])
}

/// Retries `op` over transient I/O errors (`Interrupted`, `WouldBlock`)
/// with a short bounded backoff; any other error — and the fourth
/// transient one in a row — is returned to the caller.
pub(crate) fn with_io_retry<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut backoff_ms = 1u64;
    for _ in 0..3 {
        match op() {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
                ) =>
            {
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                backoff_ms *= 4;
            }
            other => return other,
        }
    }
    op()
}

/// Reads a whole file through the failpoint seam `site`, retrying
/// transient errors. Every buffered load in this module funnels through
/// here, so chaos tests can inject truncation, bit flips, `EIO` and
/// delays at one place.
pub(crate) fn read_file_bytes(path: &Path, site: &str) -> std::io::Result<Vec<u8>> {
    with_io_retry(|| {
        failpoint::inject(site)?;
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        failpoint::mutate_buffer(site, &mut bytes)?;
        Ok(bytes)
    })
}

/// Opens `path` for reading through the failpoint seam `site`, retrying
/// transient errors. Streaming readers that cannot buffer the whole file
/// (or that hand the handle to `mmap`) funnel through here instead of
/// [`read_file_bytes`]; either way every open in the crate passes a
/// failpoint, so chaos tests can inject `EIO`/`ENOENT`/delays uniformly.
pub(crate) fn open_file(path: &Path, site: &str) -> std::io::Result<std::fs::File> {
    with_io_retry(|| {
        failpoint::inject(site)?;
        std::fs::File::open(path)
    })
}

/// Persists `bytes` crash-safely: write to a same-directory temp file,
/// fsync, then atomically rename over `path`. A reader never observes a
/// half-written file — it sees either the old contents or the new ones.
/// On error the temp file is removed (best-effort) and `path` is
/// untouched. The `cache::write` failpoint can simulate `ENOSPC`, partial
/// writes, torn renames and silent bit rot.
pub(crate) fn write_bytes_atomic(bytes: &[u8], path: &Path) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let write_tmp = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        match failpoint::on_write("cache::write", bytes) {
            WriteFault::None => file.write_all(bytes)?,
            WriteFault::Err(e) => return Err(e),
            WriteFault::Partial(n) => {
                // Disk-full mid-write: some bytes land, then the write
                // fails. The caller sees the error and `path` is untouched.
                file.write_all(&bytes[..n])?;
                file.sync_all().ok();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "failpoint cache::write (partial)",
                ));
            }
            // Crash simulations: a truncated or bit-flipped image reaches
            // the final path "successfully" — the next load must detect it.
            WriteFault::Torn(n) => file.write_all(&bytes[..n])?,
            WriteFault::Corrupt(copy) => file.write_all(&copy)?,
        }
        file.sync_all()
    };
    match with_io_retry(write_tmp) {
        Ok(()) => std::fs::rename(&tmp, path),
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Errors produced while reading or writing graph files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line in a text format, with its 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line_number: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A structural problem: bad magic, checksum mismatch, unsupported
    /// version, inconsistent section sizes.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line_number, message } => {
                write!(f, "line {line_number}: {message}")
            }
            IoError::Format(message) => write!(f, "invalid file: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// The on-disk graph formats the loader understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileFormat {
    /// DIMACS shortest-path (`.gr`): `p sp n m` header and `a u v w` arcs.
    Dimacs,
    /// SNAP/TSV edge list: whitespace-separated `u v [w]` lines.
    EdgeList,
    /// The [`binary`] CSR snapshot.
    Binary,
}

/// Guesses the format of a graph file from its leading bytes, using the file
/// extension as a tie-breaker for empty or all-comment heads.
///
/// The binary magic wins outright; a first significant line starting with
/// `p ` or `a ` means DIMACS; anything else is treated as an edge list.
pub fn detect_format(path: &Path, head: &[u8]) -> FileFormat {
    if head.starts_with(binary::MAGIC) {
        return FileFormat::Binary;
    }
    for line in head.split(|&b| b == b'\n') {
        let line = line.trim_ascii();
        if line.is_empty() || matches!(line[0], b'#' | b'%' | b'c') {
            continue;
        }
        let first_token = line.split(|b: &u8| b.is_ascii_whitespace()).next();
        if matches!(first_token, Some(b"p") | Some(b"a")) {
            return FileFormat::Dimacs;
        }
        return FileFormat::EdgeList;
    }
    match path.extension().and_then(|e| e.to_str()) {
        Some("gr") | Some("dimacs") => FileFormat::Dimacs,
        Some("cldg") => FileFormat::Binary,
        _ => FileFormat::EdgeList,
    }
}

/// How a loader should interpret the arc lines of a text format.
///
/// Both text formats store *directed* arcs on disk (SNAP follower links,
/// DIMACS `a` lines); the historical behaviour — and the
/// [`EdgeDirection::Symmetrize`] default — folds every arc into an
/// undirected edge. [`EdgeDirection::Directed`] keeps the arcs one-way and
/// produces a graph with [`Graph::is_directed`] set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EdgeDirection {
    /// Fold `u → v` into the undirected edge `{u, v}` (today's behaviour).
    #[default]
    Symmetrize,
    /// Keep every arc one-way.
    Directed,
}

/// A loaded graph plus what the loader observed about the raw arc set.
#[derive(Clone, Debug)]
pub struct LoadedGraph {
    /// The constructed graph.
    pub graph: Graph,
    /// Number of distinct non-loop arcs `u → v` in the input with no
    /// companion arc `v → u` (any weight). Nonzero means the input is
    /// genuinely directed; a symmetrizing load of such a file silently
    /// invents the missing reverse arcs, and callers should warn.
    pub asymmetric_arcs: usize,
}

/// Counts distinct non-loop arcs whose reverse is absent from the input.
pub(crate) fn count_asymmetric_arcs(arcs: &[(NodeId, NodeId, Weight)]) -> usize {
    let mut pairs: Vec<(NodeId, NodeId)> =
        arcs.iter().filter(|&&(u, v, _)| u != v).map(|&(u, v, _)| (u, v)).collect();
    pairs.par_sort_unstable();
    pairs.dedup();
    pairs.par_iter().filter(|&&(u, v)| pairs.binary_search(&(v, u)).is_err()).count()
}

/// Builds a graph from a parsed arc list according to `direction`.
pub(crate) fn graph_from_arcs(
    num_nodes: usize,
    arcs: &[(NodeId, NodeId, Weight)],
    direction: EdgeDirection,
) -> Graph {
    match direction {
        EdgeDirection::Symmetrize => {
            let mut builder = GraphBuilder::with_capacity(num_nodes, arcs.len());
            builder.extend_edges(arcs.iter().copied());
            builder.build()
        }
        EdgeDirection::Directed => {
            let mut builder = GraphBuilder::new_directed(num_nodes);
            for &(u, v, w) in arcs {
                builder.add_arc(u, v, w);
            }
            builder.build()
        }
    }
}

/// Loads a graph from `path`, auto-detecting the format with
/// [`detect_format`]. Text formats are parsed in parallel on the current
/// rayon pool.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    let path = path.as_ref();
    let bytes = read_file_bytes(path, "io::read")?;
    load_graph_bytes(path, &bytes)
}

/// [`load_graph`] over an in-memory buffer (`path` only informs detection).
pub fn load_graph_bytes(path: &Path, bytes: &[u8]) -> Result<Graph, IoError> {
    match detect_format(path, &bytes[..bytes.len().min(4096)]) {
        FileFormat::Binary => Ok(snapshot::parse_snapshot_bytes(bytes)?.graph.into_dense()),
        FileFormat::Dimacs => dimacs::parse_dimacs_bytes(bytes),
        FileFormat::EdgeList => edgelist::parse_edge_list_bytes(bytes),
    }
}

/// Loads a graph with an explicit [`EdgeDirection`], also reporting how many
/// input arcs lack their reverse (see [`LoadedGraph::asymmetric_arcs`]).
///
/// Binary snapshots store undirected CSR arrays only, so requesting
/// [`EdgeDirection::Directed`] on one is a [`IoError::Format`] error.
pub fn load_graph_as<P: AsRef<Path>>(
    path: P,
    direction: EdgeDirection,
) -> Result<LoadedGraph, IoError> {
    let path = path.as_ref();
    let bytes = read_file_bytes(path, "io::read")?;
    load_graph_bytes_as(path, &bytes, direction)
}

/// [`load_graph_as`] over an in-memory buffer.
pub fn load_graph_bytes_as(
    path: &Path,
    bytes: &[u8],
    direction: EdgeDirection,
) -> Result<LoadedGraph, IoError> {
    match detect_format(path, &bytes[..bytes.len().min(4096)]) {
        FileFormat::Binary => match direction {
            EdgeDirection::Symmetrize => Ok(LoadedGraph {
                graph: snapshot::parse_snapshot_bytes(bytes)?.graph.into_dense(),
                asymmetric_arcs: 0,
            }),
            EdgeDirection::Directed => Err(IoError::Format(
                "binary snapshots are undirected; load the original text file in directed mode"
                    .to_string(),
            )),
        },
        FileFormat::Dimacs => dimacs::parse_dimacs_bytes_as(bytes, direction),
        FileFormat::EdgeList => edgelist::parse_edge_list_bytes_as(bytes, direction),
    }
}

/// The conventional location of the binary snapshot companion of a text
/// graph file: the same path with `.cldg` appended (`roads.gr` →
/// `roads.gr.cldg`).
pub fn snapshot_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".cldg");
    PathBuf::from(name)
}

/// How [`load_graph_cached_with`] should materialize and serve the snapshot
/// cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheOptions {
    /// Write (and prefer) compressed v2 payloads instead of dense ones.
    pub compress: bool,
    /// Shard count for compressed payloads (clamped to `1..=num_nodes`).
    pub shards: usize,
    /// Serve snapshot payloads zero-copy from a memory mapping.
    pub mmap: bool,
    /// Verify payload checksums on the mmap path (buffered loads always do).
    pub verify: bool,
}

impl Default for CacheOptions {
    fn default() -> Self {
        CacheOptions { compress: false, shards: 1, mmap: false, verify: true }
    }
}

impl CacheOptions {
    fn snapshot_options(&self) -> snapshot::SnapshotOptions {
        snapshot::SnapshotOptions { mmap: self.mmap, verify: self.verify }
    }

    /// Whether an already-loaded cache payload matches what was requested
    /// (tier and, for the compressed tier, shard count).
    fn matches(&self, graph: &snapshot::SnapshotGraph) -> bool {
        match graph {
            snapshot::SnapshotGraph::Dense(_) => !self.compress,
            snapshot::SnapshotGraph::Compressed(c) => {
                self.compress
                    && c.num_shards()
                        == crate::CompressedGraph::from_graph_shard_count(
                            c.num_nodes(),
                            self.shards,
                        )
            }
        }
    }

    /// Converts a dense graph into the requested payload tier.
    fn payload_of(&self, graph: Graph) -> snapshot::SnapshotGraph {
        if self.compress {
            snapshot::SnapshotGraph::Compressed(crate::CompressedGraph::from_graph(
                &graph,
                self.shards,
            ))
        } else {
            snapshot::SnapshotGraph::Dense(graph)
        }
    }
}

/// Best-effort cache write; a failure (read-only dataset directory, disk
/// full) must never fail a load that already succeeded. Returns whether the
/// write landed. The snapshot is serialized in memory and written
/// crash-safely (temp file + fsync + atomic rename), so a concurrent or
/// crashed run never leaves a half-written cache at the final path.
fn try_write_cache(graph: &snapshot::SnapshotGraph, cache: &Path) -> bool {
    let payload = match graph {
        snapshot::SnapshotGraph::Dense(g) => snapshot::SnapshotPayload::Dense(g),
        snapshot::SnapshotGraph::Compressed(c) => snapshot::SnapshotPayload::Compressed(c),
    };
    let mut bytes = Vec::new();
    if snapshot::write_snapshot(&payload, &mut bytes).is_err() {
        return false;
    }
    match write_bytes_atomic(&bytes, cache) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("[cldiam] warning: cannot write snapshot cache {cache:?} ({e})");
            false
        }
    }
}

/// Moves an unreadable cache aside as `<cache>.corrupt` so the bad bytes
/// stay available for inspection while the path is freed for a clean
/// regeneration. Returns the quarantine path when the rename landed.
fn quarantine_cache(cache: &Path) -> Option<PathBuf> {
    let mut name = cache.as_os_str().to_os_string();
    name.push(".corrupt");
    let target = PathBuf::from(name);
    std::fs::rename(cache, &target).ok()?;
    Some(target)
}

/// Loads `path` through its binary snapshot: if a fresh snapshot exists
/// (newer than the text file), it is read instead of the text; otherwise the
/// text is parsed and the snapshot (re)written for the next run. Returns the
/// graph and `true` when the snapshot was used.
///
/// [`CacheOptions`] pick the tier: the cache can hold a compressed payload,
/// be served zero-copy via mmap, and is rewritten whenever its tier or shard
/// count does not match the request (converting in memory — the text is only
/// re-parsed when the cache is stale or unreadable).
///
/// Robust against format drift: a cache written by an older format version
/// (or any unreadable/corrupt cache) is transparently regenerated from the
/// text source — and a still-valid v1 cache is upgraded to v2 in place.
pub fn load_graph_cached_with<P: AsRef<Path>>(
    path: P,
    options: &CacheOptions,
) -> Result<(snapshot::SnapshotGraph, bool), IoError> {
    let path = path.as_ref();
    let cache = snapshot_path(path);
    let fresh = match (std::fs::metadata(&cache), std::fs::metadata(path)) {
        (Ok(c), Ok(t)) => match (c.modified(), t.modified()) {
            (Ok(cm), Ok(tm)) => cm >= tm,
            _ => false,
        },
        _ => false,
    };
    // A stale, corrupt or future-versioned snapshot falls through to a text
    // re-parse; corrupt files are additionally quarantined so the bad bytes
    // never shadow the regenerated cache.
    if fresh {
        match snapshot::read_snapshot_file(&cache, &options.snapshot_options()) {
            Ok(snap) => {
                if snap.version == snapshot::FORMAT_VERSION_2 && options.matches(&snap.graph) {
                    return Ok((snap.graph, true));
                }
                // Tier/shard/version mismatch: convert in memory, upgrade the
                // cache, and (on the mmap path) re-read so the result is
                // actually served from the new mapping.
                let converted = options.payload_of(snap.graph.into_dense());
                if try_write_cache(&converted, &cache) && options.mmap {
                    if let Ok(snap) =
                        snapshot::read_snapshot_file(&cache, &options.snapshot_options())
                    {
                        return Ok((snap.graph, true));
                    }
                }
                return Ok((converted, true));
            }
            Err(IoError::Format(message)) | Err(IoError::Parse { message, .. }) => {
                // Corrupt or truncated content (torn write, bit rot).
                let note = match quarantine_cache(&cache) {
                    Some(q) => format!("quarantined to {q:?}"),
                    None => "left in place".to_string(),
                };
                eprintln!(
                    "[cldiam] warning: snapshot cache {cache:?} is corrupt ({message}); \
                     {note}, re-parsing {path:?}"
                );
            }
            Err(IoError::Io(e)) => {
                // An I/O failure reading a cache that statted fine: the
                // contents may be good, so warn without quarantining.
                eprintln!(
                    "[cldiam] warning: cannot read snapshot cache {cache:?} ({e}); \
                     re-parsing {path:?}"
                );
            }
        }
    }
    let bytes = read_file_bytes(path, "cache::regen")?;
    if detect_format(path, &bytes[..bytes.len().min(4096)]) == FileFormat::Binary {
        // The input already is a snapshot; writing a `.cldg.cldg` copy next
        // to it would only duplicate it. Honour the requested tier in memory.
        let snap = snapshot::parse_snapshot_bytes(&bytes)?;
        let graph = if options.matches(&snap.graph) {
            snap.graph
        } else {
            options.payload_of(snap.graph.into_dense())
        };
        return Ok((graph, true));
    }
    let graph = load_graph_bytes(path, &bytes)?;
    let payload = options.payload_of(graph);
    if try_write_cache(&payload, &cache) && options.mmap {
        if let Ok(snap) = snapshot::read_snapshot_file(&cache, &options.snapshot_options()) {
            return Ok((snap.graph, false));
        }
    }
    Ok((payload, false))
}

/// One newline-aligned slice of the input plus the number of lines it spans.
struct Chunk<'a> {
    bytes: &'a [u8],
    lines: usize,
}

/// Splits `data` into at most `target` newline-aligned chunks. Chunk
/// boundaries always sit immediately after a `\n`, so no line straddles two
/// chunks; concatenating the chunks in order reproduces `data` exactly.
fn newline_aligned_chunks(data: &[u8], target: usize) -> Vec<Chunk<'_>> {
    let target = target.max(1);
    let mut chunks = Vec::with_capacity(target);
    let mut start = 0usize;
    for i in 1..=target {
        if start >= data.len() {
            break;
        }
        let mut end =
            if i == target { data.len() } else { ((data.len() * i) / target).max(start + 1) };
        // Advance to just past the next newline so the boundary is aligned.
        while end < data.len() && data[end - 1] != b'\n' {
            end += 1;
        }
        let bytes = &data[start..end];
        chunks.push(Chunk { bytes, lines: bytes.iter().filter(|&&b| b == b'\n').count() });
        start = end;
    }
    chunks
}

/// Parses the lines of `data` in parallel with `parse_line`, which receives
/// the 1-based absolute line number and the trimmed line text, and returns
/// `Ok(Some(item))` for payload lines, `Ok(None)` for blank/comment lines,
/// and `Err(message)` for malformed ones.
///
/// The items of each chunk are concatenated in chunk order, so the output is
/// identical to a sequential line-by-line parse; on error, the earliest
/// offending line in file order is reported regardless of the chunking or
/// the thread count. `first_line` is the absolute 1-based number of the
/// first line of `data` (text formats with a header pass the slice after the
/// header here).
pub(crate) fn parse_lines_parallel<T: Send>(
    data: &[u8],
    first_line: usize,
    parse_line: impl Fn(usize, &str) -> Result<Option<T>, String> + Sync,
) -> Result<Vec<T>, IoError> {
    let target = rayon::current_num_threads().max(1) * 4;
    let chunks = newline_aligned_chunks(data, target);
    // Starting line number of every chunk: prefix sums of the line counts.
    let mut chunk_first_line = Vec::with_capacity(chunks.len());
    let mut acc = first_line;
    for chunk in &chunks {
        chunk_first_line.push(acc);
        acc += chunk.lines;
    }
    let results: Vec<Result<Vec<T>, IoError>> = chunks
        .par_iter()
        .zip(chunk_first_line.par_iter())
        .map(|(chunk, &base)| parse_chunk(chunk.bytes, base, &parse_line))
        .collect();
    let mut items = Vec::new();
    for result in results {
        items.extend(result?);
    }
    Ok(items)
}

fn parse_chunk<T>(
    bytes: &[u8],
    first_line: usize,
    parse_line: &(impl Fn(usize, &str) -> Result<Option<T>, String> + Sync),
) -> Result<Vec<T>, IoError> {
    let mut items = Vec::new();
    for (offset, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let line_number = first_line + offset;
        let line = std::str::from_utf8(raw.trim_ascii()).map_err(|_| IoError::Parse {
            line_number,
            message: "line is not valid UTF-8".to_string(),
        })?;
        match parse_line(line_number, line) {
            Ok(Some(item)) => items.push(item),
            Ok(None) => {}
            Err(message) => return Err(IoError::Parse { line_number, message }),
        }
    }
    Ok(items)
}

#[cfg(test)]
pub(crate) mod test_dir {
    use std::path::{Path, PathBuf};

    /// `<temp dir>/<name>-<pid>`, created empty, for a test that writes
    /// files: the pid keeps concurrent test runs apart. Dropping it removes
    /// it and everything in it, so a failing test cleans up too.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("create the temp dir");
            TempDir(dir)
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_newline_aligned_and_cover_input() {
        let data = b"one\ntwo\nthree\nfour\nfive";
        for target in 1..8 {
            let chunks = newline_aligned_chunks(data, target);
            let joined: Vec<u8> = chunks.iter().flat_map(|c| c.bytes.iter().copied()).collect();
            assert_eq!(joined, data, "target {target}");
            for chunk in &chunks[..chunks.len().saturating_sub(1)] {
                assert_eq!(*chunk.bytes.last().unwrap(), b'\n', "target {target}");
            }
        }
    }

    #[test]
    fn parallel_line_parse_is_order_preserving() {
        let data = b"1\n2\n# skip\n3\n4\n";
        let items = parse_lines_parallel(data, 1, |_, line| {
            if line.is_empty() || line.starts_with('#') {
                Ok(None)
            } else {
                line.parse::<u32>().map(Some).map_err(|e| e.to_string())
            }
        })
        .unwrap();
        assert_eq!(items, vec![1, 2, 3, 4]);
    }

    #[test]
    fn earliest_error_line_wins() {
        let mut data = String::new();
        for i in 0..500 {
            data.push_str(&format!("{i}\n"));
        }
        data.insert_str(0, "bad\n");
        data.push_str("also bad\n");
        let err = parse_lines_parallel(data.as_bytes(), 1, |_, line| {
            if line.is_empty() {
                Ok(None)
            } else {
                line.parse::<u32>().map(Some).map_err(|e| e.to_string())
            }
        })
        .unwrap_err();
        match err {
            IoError::Parse { line_number, .. } => assert_eq!(line_number, 1),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn detects_formats_from_content_and_extension() {
        let p = Path::new("x.gr");
        assert_eq!(detect_format(p, b"c comment\np sp 3 2\na 1 2 7\n"), FileFormat::Dimacs);
        assert_eq!(detect_format(Path::new("x.txt"), b"# snap\n0\t1\n"), FileFormat::EdgeList);
        assert_eq!(detect_format(p, b"c only comments\n"), FileFormat::Dimacs);
        assert_eq!(detect_format(Path::new("x.cldg"), b""), FileFormat::Binary);
        let mut magic = binary::MAGIC.to_vec();
        magic.extend_from_slice(&[0; 8]);
        assert_eq!(detect_format(Path::new("anything"), &magic), FileFormat::Binary);
        assert_eq!(detect_format(Path::new("plain.txt"), b"0 1 5\n"), FileFormat::EdgeList);
    }

    #[test]
    fn snapshot_path_appends_extension() {
        assert_eq!(snapshot_path(Path::new("a/roads.gr")), PathBuf::from("a/roads.gr.cldg"));
    }

    #[test]
    fn directed_load_of_binary_snapshot_is_refused() {
        let g = Graph::from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let mut buf = Vec::new();
        binary::write_binary(&g, &mut buf).unwrap();
        let err =
            load_graph_bytes_as(Path::new("x.cldg"), &buf, EdgeDirection::Directed).unwrap_err();
        assert!(matches!(err, IoError::Format(m) if m.contains("undirected")));
        let ok = load_graph_bytes_as(Path::new("x.cldg"), &buf, EdgeDirection::Symmetrize).unwrap();
        assert_eq!(ok.graph, g);
        assert_eq!(ok.asymmetric_arcs, 0);
    }

    #[test]
    fn load_graph_as_matches_load_graph_on_symmetrize() {
        let text = b"0 1 5\n1 2 3\n";
        let path = Path::new("x.txt");
        let plain = load_graph_bytes(path, text).unwrap();
        let loaded = load_graph_bytes_as(path, text, EdgeDirection::Symmetrize).unwrap();
        assert_eq!(loaded.graph, plain);
        assert_eq!(loaded.asymmetric_arcs, 2);
    }
}
