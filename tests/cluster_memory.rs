//! CLUSTER's heap budget per node.
//!
//! The paper's decomposition runs in linear space. This test pins the
//! constant: the peak live heap inside one `cluster()` call, divided by the
//! node count, on the `road:300x300` LCC at 1, 2 and 4 threads. A counting
//! global allocator measures it, so this binary holds this one test and
//! builds its graph and pools before measuring.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cldiam_core::{cluster, ClusterConfig};
use cldiam_gen::GraphSpec;
use cldiam_graph::CancelToken;

/// Peak live heap allowed inside `cluster()`, in bytes per node. It reads
/// 50.5–52.0 at 1–4 threads: 28 B of atomic cells, the frozen and touched
/// flags, the uncovered and live lists, and the growth's frontier buffers
/// and snapshot. The budget leaves 15% over the highest reading for other
/// allocators and pool sizes; a snapshot of every live source or an export
/// copy of the cells (91 B/node together) breaks it.
const BUDGET_BYTES_PER_NODE: usize = 60;

/// Forwards to the system allocator and tracks the live and peak bytes.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller upholds `alloc`'s contract, forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout as given to us.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: the caller upholds `alloc_zeroed`'s contract, forwarded as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout as given to us.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: the caller upholds `dealloc`'s contract, forwarded as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: the caller upholds `realloc`'s contract, forwarded as is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this layout.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn cluster_peak_heap_stays_within_its_per_node_budget() {
    let graph = GraphSpec::parse("road:300x300").expect("valid spec").generate_connected(1000);
    let n = graph.num_nodes();
    assert_eq!(n, 89_315, "the road:300x300 LCC changed");
    let config = ClusterConfig::default()
        .with_tau(ClusterConfig::tau_for_quotient_target(n, 1000))
        .with_seed(1);
    let pools: Vec<(usize, rayon::ThreadPool)> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
            (threads, pool.expect("thread pool"))
        })
        .collect();
    for (threads, pool) in &pools {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let clustering = pool.install(|| cluster(&graph, &config, &CancelToken::never()));
        let peak = PEAK.load(Ordering::Relaxed) - before;
        assert_eq!(clustering.num_nodes(), n);
        drop(clustering);
        let per_node = peak as f64 / n as f64;
        eprintln!("{threads} thread(s): CLUSTER peak heap {peak} B, {per_node:.1} B/node");
        assert!(
            peak <= BUDGET_BYTES_PER_NODE * n,
            "{threads} thread(s): CLUSTER peaked at {per_node:.1} B/node, over the \
             {BUDGET_BYTES_PER_NODE} B/node budget"
        );
    }
}
