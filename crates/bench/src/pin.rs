//! RAII pinning of the `GHSOM_THREADS` knob for benchmarks.
//!
//! Single-core baselines pin the kernel thread count by setting the
//! `GHSOM_THREADS` environment variable around the timed section. Doing
//! that with bare `set_var`/`remove_var` pairs has two failure modes the
//! copy-pasted blocks this module replaces actually had: an early return
//! or panic skips the cleanup and leaks the pin into every later
//! benchmark, and unconditional `remove_var` clobbers a value the *user*
//! had exported (pinning a whole run from the shell). [`PinnedThreads`]
//! scopes the pin and restores whatever was there before, on drop —
//! panic included.
//!
//! Environment mutation is inherently process-global: concurrent threads
//! reading `GHSOM_THREADS` mid-scope see the pinned value. Criterion
//! benches run groups sequentially on the main thread, so the guard is
//! race-free there; for *per-thread* budgets inside concurrent code use
//! `mathkit::parallel::with_thread_cap` instead, which this crate's
//! sharded benches rely on.

/// Scoped `GHSOM_THREADS` pin: sets the variable on construction and
/// restores the previous state (prior value, or unset) when dropped.
///
/// ```
/// use ghsom_bench::pin::PinnedThreads;
///
/// std::env::set_var("GHSOM_THREADS", "6");
/// {
///     let _pin = PinnedThreads::single();
///     assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "1");
/// }
/// // The pre-existing value is back, not removed.
/// assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "6");
/// std::env::remove_var("GHSOM_THREADS");
/// ```
#[must_use = "dropping the guard immediately unpins the thread count"]
#[derive(Debug)]
pub struct PinnedThreads {
    previous: Option<String>,
}

impl PinnedThreads {
    /// Pins kernel parallelism to `threads` worker threads until the
    /// guard drops.
    pub fn new(threads: usize) -> Self {
        let previous = std::env::var("GHSOM_THREADS").ok();
        std::env::set_var("GHSOM_THREADS", threads.to_string());
        PinnedThreads { previous }
    }

    /// Pins to one thread — the single-core baseline every BENCH_*.json
    /// number is reported under.
    pub fn single() -> Self {
        PinnedThreads::new(1)
    }
}

impl Drop for PinnedThreads {
    fn drop(&mut self) {
        match self.previous.take() {
            Some(value) => std::env::set_var("GHSOM_THREADS", value),
            None => std::env::remove_var("GHSOM_THREADS"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises every case: the env var is process-global, so
    // independent #[test] functions would race each other. Each step also
    // checks that `max_threads` follows the variable at runtime: only the
    // hardware count may be cached, never the pin.
    #[test]
    fn pin_sets_and_restores_in_every_case() {
        use mathkit::parallel::max_threads;

        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pinned = |n: usize| n.min(hardware);
        std::env::remove_var("GHSOM_THREADS");
        assert_eq!(max_threads(), hardware);

        // Unset before → unset after.
        {
            let _pin = PinnedThreads::single();
            assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "1");
            assert_eq!(max_threads(), 1);
        }
        assert!(std::env::var("GHSOM_THREADS").is_err());
        assert_eq!(max_threads(), hardware);

        // Pre-existing value → restored, not removed.
        std::env::set_var("GHSOM_THREADS", "5");
        assert_eq!(max_threads(), pinned(5));
        {
            let _pin = PinnedThreads::new(2);
            assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "2");
            assert_eq!(max_threads(), pinned(2));
        }
        assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "5");
        assert_eq!(max_threads(), pinned(5));

        // Nested pins unwind in LIFO order.
        {
            let _outer = PinnedThreads::single();
            {
                let _inner = PinnedThreads::new(3);
                assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "3");
                assert_eq!(max_threads(), pinned(3));
            }
            assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "1");
            assert_eq!(max_threads(), 1);
        }
        assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "5");
        assert_eq!(max_threads(), pinned(5));

        // Restored across a panic.
        let caught = std::panic::catch_unwind(|| {
            let _pin = PinnedThreads::new(7);
            assert_eq!(max_threads(), pinned(7));
            panic!("boom");
        });
        assert!(caught.is_err());
        assert_eq!(std::env::var("GHSOM_THREADS").unwrap(), "5");
        assert_eq!(max_threads(), pinned(5));

        std::env::remove_var("GHSOM_THREADS");
        assert_eq!(max_threads(), hardware);
    }
}
