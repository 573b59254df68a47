//! Cooperative cancellation for long-running saturation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cheaply clonable cancellation token, optionally carrying a
/// deadline.
///
/// All clones share one flag: once any clone calls [`cancel`], every
/// holder observes [`is_cancelled`] as `true`. A clone made with
/// [`with_deadline`] (and every clone of it) also reads as cancelled
/// once its deadline has passed; the parent it came from does not, and
/// `cancel()` on any clone still cancels them all. The [`Runner`]
/// checks its token between iterations, between rules, between
/// candidate classes and inside the matching VM (the last two once per
/// quantum of matcher work, not per class), so a cancel request or an
/// expired deadline stops even a single explosive rule search
/// promptly.
///
/// [`cancel`]: CancelToken::cancel
/// [`is_cancelled`]: CancelToken::is_cancelled
/// [`with_deadline`]: CancelToken::with_deadline
/// [`Runner`]: crate::Runner
///
/// ```
/// use egraph::CancelToken;
/// use std::time::Instant;
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
///
/// let expired = CancelToken::new().with_deadline(Instant::now());
/// std::thread::sleep(std::time::Duration::from_millis(1));
/// assert!(expired.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a clone that shares this token's flag and also reads as
    /// cancelled once `at` has passed. An existing deadline is kept if
    /// it is earlier.
    pub fn with_deadline(&self, at: Instant) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: Some(self.deadline.map_or(at, |d| d.min(at))),
        }
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once any clone has requested cancellation or this
    /// token's deadline (if any) has passed. The clock is read only when
    /// a deadline is set.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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

    #[test]
    fn deadline_clone_shares_the_flag_both_ways() {
        let far = Instant::now() + Duration::from_secs(3600);
        let parent = CancelToken::new();
        let child = parent.with_deadline(far);
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(parent.is_cancelled());

        let parent = CancelToken::new();
        let child = parent.with_deadline(far);
        parent.cancel();
        assert!(child.is_cancelled());
    }

    #[test]
    fn narrowing_keeps_the_earlier_deadline() {
        let now = Instant::now();
        let early = now + Duration::from_secs(1);
        let late = now + Duration::from_secs(2);
        let token = CancelToken::new();
        assert_eq!(
            token.with_deadline(early).with_deadline(late).deadline,
            Some(early)
        );
        assert_eq!(
            token.with_deadline(late).with_deadline(early).deadline,
            Some(early)
        );
    }

    #[test]
    fn elapsed_deadline_cancels_the_clone_not_the_parent() {
        let parent = CancelToken::new();
        let child = parent.with_deadline(Instant::now());
        std::thread::sleep(Duration::from_millis(1));
        assert!(child.is_cancelled());
        assert!(child.clone().is_cancelled());
        assert!(!parent.is_cancelled());
    }
}
