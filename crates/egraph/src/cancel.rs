//! Cooperative cancellation for long-running saturation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cheaply clonable cancellation token.
///
/// All clones share one flag: once any clone calls [`cancel`], every
/// holder observes [`is_cancelled`] as `true`. The [`Runner`] checks
/// its token between iterations, between rules, and inside each rule's
/// search, so cancellation latency is bounded by a single rule apply
/// step, not by a whole saturation run.
///
/// [`cancel`]: CancelToken::cancel
/// [`is_cancelled`]: CancelToken::is_cancelled
/// [`Runner`]: crate::Runner
///
/// ```
/// use egraph::CancelToken;
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once any clone has requested cancellation.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// `true` once `deadline` (if any) has passed.
pub(crate) fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() > d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
        // Idempotent.
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn cross_thread_cancellation() {
        let token = CancelToken::new();
        let remote = token.clone();
        let handle = std::thread::spawn(move || remote.cancel());
        handle.join().unwrap();
        assert!(token.is_cancelled());
    }
}
