//! Cooperative cancellation and deadlines for the long-running engines.
//!
//! The CL-DIAM pipeline and the anytime bounds engine are naturally
//! interruptible: every phase boundary (an SSSP, a Δ-growing wave, a
//! clustering stage) is a consistent state from which a best-so-far result
//! can be reported. [`CancelToken`] is the shared switch those boundaries
//! poll: the engines never block on it, never observe it mid-phase, and
//! degrade gracefully (a clustering finishes with singleton clusters, the
//! bounds engine reports its current `[lb, ub]` with `converged = false`).
//!
//! Two trigger mechanisms coexist:
//!
//! * a **wall-clock deadline** (`--timeout-ms`), which trips the *shared*
//!   flag — once one engine component sees the deadline, every clone of the
//!   token observes it. Inherently nondeterministic across reruns.
//! * a **logical check budget** (`--timeout-checks`), counted per token
//!   clone. Cloning hands out a fresh counter over the same shared flag, so
//!   giving each parallel component its own clone yields a deterministic
//!   per-component cadence: the run stops after the same number of
//!   checkpoints at any thread count, and never leaks one component's
//!   budget exhaustion into another. The budget deliberately does *not*
//!   trip the shared flag.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Shared {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle checked at engine phase boundaries.
///
/// Cloning creates a *child*: it shares the cancelled flag and the
/// wall-clock deadline, but counts its own checkpoints against the check
/// budget (see the module docs for why).
pub struct CancelToken {
    shared: Arc<Shared>,
    /// Checkpoint budget per token; 0 = unlimited.
    check_limit: u64,
    checks: AtomicU64,
}

impl CancelToken {
    /// A token that never fires — the zero-cost default for uninterrupted
    /// runs (one relaxed load per checkpoint).
    pub fn never() -> Self {
        CancelToken {
            shared: Arc::new(Shared { cancelled: AtomicBool::new(false), deadline: None }),
            check_limit: 0,
            checks: AtomicU64::new(0),
        }
    }

    /// A token whose checkpoints start failing after `limit` calls on each
    /// clone — the deterministic logical cadence (`limit` is clamped to at
    /// least 1 so "a budget" always means "eventually stops").
    pub fn with_check_limit(limit: u64) -> Self {
        CancelToken {
            shared: Arc::new(Shared { cancelled: AtomicBool::new(false), deadline: None }),
            check_limit: limit.max(1),
            checks: AtomicU64::new(0),
        }
    }

    /// Adds a wall-clock deadline to this token (builder style), keeping
    /// the check budget.
    pub fn and_deadline(mut self, timeout: Duration) -> Self {
        let shared = Arc::get_mut(&mut self.shared).expect("and_deadline before cloning");
        shared.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Trips the shared flag: every clone's next checkpoint fails.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the shared flag is set (by [`cancel`](Self::cancel) or an
    /// expired deadline observed at some checkpoint). A clone's exhausted
    /// check budget does *not* show up here.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Relaxed)
    }

    /// Polls the token at a phase boundary. Returns `true` when the caller
    /// should stop and report its best-so-far result.
    #[inline]
    pub fn checkpoint(&self) -> bool {
        if self.shared.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.shared.deadline {
            if Instant::now() >= deadline {
                // The wall clock is shared state anyway; publishing it lets
                // sibling components stop at their next checkpoint.
                self.shared.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if self.check_limit > 0 {
            // Local budget: trips only this token, deliberately not the
            // shared flag, so parallel components keep deterministic,
            // independent cadences.
            let used = self.checks.fetch_add(1, Ordering::Relaxed) + 1;
            if used >= self.check_limit {
                return true;
            }
        }
        false
    }

    /// An explicit alias for [`Clone::clone`]: a child token with a fresh
    /// check counter over the same shared flag and deadline.
    pub fn child(&self) -> Self {
        CancelToken {
            shared: Arc::clone(&self.shared),
            check_limit: self.check_limit,
            checks: AtomicU64::new(0),
        }
    }

    /// A child over the same shared flag and deadline that carries no check
    /// budget: it stops on [`cancel`](Self::cancel) or an expired deadline,
    /// never after a count of checkpoints.
    pub fn without_check_limit(&self) -> Self {
        CancelToken { check_limit: 0, ..self.child() }
    }
}

impl Clone for CancelToken {
    fn clone(&self) -> Self {
        self.child()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::never()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.shared.deadline)
            .field("check_limit", &self.check_limit)
            .field("checks", &self.checks.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_fires() {
        let token = CancelToken::never();
        for _ in 0..10_000 {
            assert!(!token.checkpoint());
        }
        assert!(!token.is_cancelled());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let token = CancelToken::never();
        let child = token.clone();
        token.cancel();
        assert!(child.checkpoint());
        assert!(child.is_cancelled());
    }

    #[test]
    fn check_limit_is_per_clone_and_stays_local() {
        let token = CancelToken::with_check_limit(3);
        assert!(!token.checkpoint());
        assert!(!token.checkpoint());
        assert!(token.checkpoint());
        // A sibling clone has its own budget and the shared flag is clean.
        let child = token.child();
        assert!(!child.is_cancelled());
        assert!(!child.checkpoint());
        assert!(!child.checkpoint());
        assert!(child.checkpoint());
    }

    #[test]
    fn expired_deadline_fires_and_publishes() {
        let token = CancelToken::never().and_deadline(Duration::from_millis(0));
        let sibling = token.clone();
        assert!(token.checkpoint());
        // The deadline observation is published to siblings via the flag.
        assert!(sibling.is_cancelled());
        assert!(sibling.checkpoint());
    }

    #[test]
    fn a_child_without_check_limit_sees_cancel_and_deadline_but_no_budget() {
        let budgeted = CancelToken::with_check_limit(1);
        let free = budgeted.without_check_limit();
        for _ in 0..100 {
            assert!(!free.checkpoint());
        }
        budgeted.cancel();
        assert!(free.checkpoint());

        let timed = CancelToken::with_check_limit(1).and_deadline(Duration::from_millis(0));
        let free = timed.without_check_limit();
        assert!(!timed.is_cancelled());
        assert!(free.checkpoint());
        assert!(timed.is_cancelled());
    }

    #[test]
    fn deadline_composes_with_check_limit() {
        let token = CancelToken::with_check_limit(1_000_000).and_deadline(Duration::from_millis(0));
        assert!(token.checkpoint());
    }
}
