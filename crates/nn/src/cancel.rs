//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheaply cloneable flag shared between the party
//! requesting shutdown (a Ctrl-C handler, a supervising thread, a test)
//! and the long-running work that honors it. Cancellation is *advisory*:
//! nothing is interrupted preemptively — the training loop checks the
//! token at epoch boundaries, the sweep scheduler between trials — so
//! every observer stops at a consistent point and in-flight state stays
//! coherent (journals flush, partial results remain usable).
//!
//! The token lives in `hydronas-nn` because the deepest cancellation
//! point is the epoch loop in [`train`](crate::train);
//! higher layers (`hydronas-nas`, the `hydronas` facade) re-export it.
//!
//! ```
//! use hydronas_nn::CancelToken;
//!
//! let token = CancelToken::new();
//! let observer = token.clone();
//! assert!(!observer.is_cancelled());
//! token.cancel();
//! assert!(observer.is_cancelled());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable cancellation flag.
///
/// Clones observe the same underlying flag; once [`cancel`](CancelToken::cancel)
/// fires the token stays cancelled forever (there is deliberately no
/// reset — restart the work with a fresh token instead).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cooperative shutdown. Idempotent, safe from any thread,
    /// and async-signal-safe (a single atomic store), so it may be called
    /// from a Ctrl-C handler.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once any clone of this token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
    }

    #[test]
    fn cancel_is_idempotent() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancel_is_visible_across_threads() {
        let t = CancelToken::new();
        let observer = t.clone();
        let handle = std::thread::spawn(move || {
            while !observer.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        t.cancel();
        assert!(handle.join().unwrap());
    }
}
