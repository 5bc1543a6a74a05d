//! Plain (non-atomic) shared data under race detection.

#![allow(unsafe_code)] // the one module of this crate that needs it; each site carries a SAFETY comment

use std::cell::UnsafeCell;

use crate::rt::{self, Op};

/// A cell of plain data shared between model threads: the modeled analogue
/// of an ordinary field that the code under test protects with *protocol*
/// rather than with atomics (a message payload published via a flag, the
/// value slots of a seqlock, a chunk of work owned by whoever claimed it).
///
/// Every [`get`](TrackedCell::get) / [`set`](TrackedCell::set) is reported
/// to the race detector as a plain read/write: two accesses from different
/// threads, at least one a write, with no happens-before edge between them
/// fail the exploration with a ``data race on `<label>` `` diagnostic. The
/// label names the cell in diagnostics.
///
/// `T: Copy` keeps accesses to plain value moves, mirroring the word-sized
/// fields the real protocols guard.
#[derive(Debug)]
pub struct TrackedCell<T: Copy> {
    label: &'static str,
    value: UnsafeCell<T>,
}

// SAFETY: `TrackedCell` is explicitly a *model* of unsynchronized shared
// data. Soundness of handing `&self` across threads comes from the
// exploration runtime: every access goes through a schedule point, so at
// most one thread touches `value` at any instant (threads are serialized),
// and the race detector reports — rather than suffers — the schedules in
// which the accesses would be unsynchronized on real hardware.
unsafe impl<T: Copy + Send> Sync for TrackedCell<T> {}

impl<T: Copy> TrackedCell<T> {
    /// Creates a cell; `label` appears in race diagnostics.
    pub const fn new(label: &'static str, value: T) -> Self {
        Self { label, value: UnsafeCell::new(value) }
    }

    #[inline]
    fn addr(&self) -> usize {
        self.value.get() as usize
    }

    /// Reads the value (a plain-read event for the race detector).
    pub fn get(&self) -> T {
        rt::op_current(Op::PlainRead { addr: self.addr(), label: self.label }, || {
            // SAFETY: inside an exploration the scheduler serializes all
            // model threads, so no other thread is mid-access; outside an
            // exploration the cell must only be used single-threaded, which
            // the `Sync` bound's documentation makes the caller's contract.
            unsafe { *self.value.get() }
        })
    }

    /// Writes the value (a plain-write event for the race detector).
    pub fn set(&self, value: T) {
        rt::op_current(Op::PlainWrite { addr: self.addr(), label: self.label }, || {
            // SAFETY: as in `get` — serialized under the exploration
            // scheduler, single-threaded otherwise.
            unsafe { *self.value.get() = value }
        })
    }
}
