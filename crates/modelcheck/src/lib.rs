//! A loom-lite schedule-exploring model checker for the workspace's
//! lock-free primitives.
//!
//! Every correctness claim the reproduction makes — bit-identical pipelines
//! at any thread count, scheduling-independent Δ-growing cost counters,
//! crash-safe snapshots — ultimately rests on a handful of hand-rolled
//! concurrent protocols: the seqlock fetch-min behind Δ-growing
//! (`cldiam_graph::atomic::SeqMinCells`), the single-word fetch-min behind
//! Δ-stepping (`MinDistCells`), and the chunk-claim/steal protocol of the
//! vendored executor. This crate *verifies* those protocols instead of
//! merely exercising them:
//!
//! * [`sync::atomic`] — drop-in shims for `std::sync::atomic` types. Outside
//!   an exploration they delegate straight to the real atomics (zero
//!   behavioural change); inside [`explore`] every operation becomes a
//!   *schedule point* where a deterministic scheduler decides which thread
//!   runs next.
//! * [`thread`] — model `spawn`/`join` with the matching happens-before
//!   edges.
//! * [`cell::TrackedCell`] — plain (non-atomic) shared data whose accesses
//!   are checked for data races by a vector-clock detector: two accesses to
//!   the same cell, at least one a write, with no happens-before edge
//!   between them, fail the exploration. Happens-before is derived from the
//!   memory orderings the code under test actually uses (acquire loads,
//!   release stores, fences, RMW release sequences, spawn/join) — so a
//!   dropped fence or a relaxed publish is *caught*, even though the
//!   serialized execution itself is sequentially consistent.
//! * [`explore`] / [`check`] — the drivers: bounded-exhaustive DFS over
//!   thread interleavings (optionally preemption-bounded, CHESS-style) for
//!   2–3 threads, and seeded random schedules for more.
//!
//! Behind the `model-check` feature, `cldiam_graph::atomic`,
//! `cldiam_core::atomic_state` and the vendored rayon chunk-claim protocol
//! route their atomics through these shims, so the *real* primitives — not
//! transcriptions of them — run under the explorer. The mutation suite in
//! `tests/mutants.rs` pins the checker's teeth: deliberately broken protocol
//! variants (lost-update fetch-min, skipped seqlock sequence bump,
//! non-atomic publish, relaxed completion counter, double chunk claim) must
//! all be caught.
//!
//! # Writing a model test
//!
//! ```
//! use cldiam_modelcheck as mc;
//! use std::sync::atomic::Ordering;
//! use std::sync::Arc;
//!
//! let report = mc::explore(mc::Config::exhaustive(), || {
//!     let cell = Arc::new(mc::sync::atomic::AtomicU64::new(u64::MAX));
//!     let threads: Vec<_> = [3u64, 7]
//!         .into_iter()
//!         .map(|d| {
//!             let cell = Arc::clone(&cell);
//!             mc::thread::spawn(move || {
//!                 cell.fetch_min(d, Ordering::Relaxed);
//!             })
//!         })
//!         .collect();
//!     for t in threads {
//!         t.join();
//!     }
//!     assert_eq!(cell.load(Ordering::Relaxed), 3);
//! });
//! assert!(report.failure.is_none());
//! assert!(report.schedules > 1); // several interleavings were explored
//! ```
//!
//! Model closures must be deterministic (no wall clock, no ambient
//! randomness, no real threads): the explorer replays a schedule prefix to
//! reach each new interleaving and verifies on replay that the execution
//! takes the recorded branch.

#![deny(unsafe_code)]

pub mod cell;
pub mod hint;
pub mod sync;
pub mod thread;

mod clock;
mod rt;

pub use rt::{check, explore, Config, Failure, Mode, Report};
