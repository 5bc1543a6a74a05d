//! Thread-count plumbing for the `cldiam` CLI.
//!
//! The vendored rayon sizes its global pool from `CLDIAM_THREADS` (then
//! `RAYON_NUM_THREADS`, then the hardware). The CLI's `--threads` flag
//! installs a dedicated pool instead of relying on that process-wide state.

/// Runs `op` on a dedicated pool of `threads` workers when a count is given,
/// or directly on the caller's current pool (the global one by default)
/// otherwise.
pub fn install_with_threads<R: Send>(threads: Option<usize>, op: impl FnOnce() -> R + Send) -> R {
    match threads {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .thread_name(|i| format!("cldiam-bench-{i}"))
            .build()
            .expect("failed to build benchmark thread pool")
            .install(op),
        None => op(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_with_explicit_count_controls_the_pool() {
        let seen = install_with_threads(Some(3), rayon::current_num_threads);
        assert_eq!(seen, 3);
    }

    #[test]
    fn install_without_count_keeps_the_current_pool() {
        let outer = rayon::current_num_threads();
        let seen = install_with_threads(None, rayon::current_num_threads);
        assert_eq!(seen, outer);
    }
}
