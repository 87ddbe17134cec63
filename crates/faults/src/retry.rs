//! Bounded exponential-backoff retry for transient IO errors.
//!
//! Only *transient* error kinds are retried — `Interrupted`, `WouldBlock`,
//! `TimedOut` — never hard failures like `ENOSPC` or a torn write (retrying
//! a partially-completed write could duplicate bytes; the atomic-write
//! protocol handles those by discarding the temp file instead). Sleeping is
//! routed through the [`Sleeper`] trait so tests pin the exact backoff
//! schedule without wall-clock waits.

#![expect(
    clippy::disallowed_types,
    reason = "RecordingSleeper logs delays through &self, behind the Sleeper trait shared across threads"
)]

use std::io;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Whether `err` is worth retrying: a transient condition that a later
/// attempt can plausibly succeed at, as opposed to a hard failure
/// (`ENOSPC`, `EIO`, permission errors) that will recur.
pub fn is_transient(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Bounded exponential backoff: attempt, then sleep
/// `base_delay_ms * multiplier^i` (capped at `max_delay_ms`) between
/// retries, up to `max_attempts` total attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retry).
    pub max_attempts: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Factor applied to the delay after each retry.
    pub multiplier: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            multiplier: 2,
            max_delay_ms: 1000,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            multiplier: 1,
            max_delay_ms: 0,
        }
    }

    /// Delay before retry number `retry` (0-based), applying the
    /// exponential schedule and the cap.
    pub fn delay_for(&self, retry: u32) -> Duration {
        let mut ms = self.base_delay_ms;
        for _ in 0..retry {
            ms = ms.saturating_mul(self.multiplier);
            if ms >= self.max_delay_ms {
                ms = self.max_delay_ms;
                break;
            }
        }
        Duration::from_millis(ms.min(self.max_delay_ms))
    }
}

/// Injectable sleep, so retry tests are deterministic and instantaneous.
pub trait Sleeper: Send + Sync + std::fmt::Debug {
    /// Pause for `d` (or record that a pause was requested).
    fn sleep(&self, d: Duration);
}

/// Production sleeper: actually blocks the thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Test sleeper: records every requested delay and returns immediately.
#[derive(Debug, Default)]
pub struct RecordingSleeper {
    slept: Mutex<Vec<Duration>>,
}

impl RecordingSleeper {
    /// A fresh recorder with no sleeps logged.
    pub fn new() -> Self {
        RecordingSleeper::default()
    }

    /// Every delay requested so far, in order.
    pub fn slept(&self) -> Vec<Duration> {
        self.slept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Sleeper for RecordingSleeper {
    fn sleep(&self, d: Duration) {
        self.slept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(d);
    }
}

/// Run `op` under `policy`: retry transient errors with exponential backoff,
/// return the first success or the first non-transient (or final) error.
#[must_use = "the result carries the outcome of the final attempt"]
pub fn retry_io<T>(
    policy: &RetryPolicy,
    sleeper: &dyn Sleeper,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let attempts = policy.max_attempts.max(1);
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            sleeper.sleep(policy.delay_for(attempt - 1));
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt + 1 < attempts => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    // Unreachable unless the loop exhausted attempts on transient errors;
    // `last` is Some in that case.
    Err(last.unwrap_or_else(|| io::Error::other("retry_io: no attempts made")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn interrupted() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "injected")
    }

    #[test]
    fn succeeds_after_transient_failures_with_backoff_schedule() {
        let policy = RetryPolicy::default();
        let sleeper = RecordingSleeper::new();
        let calls = AtomicU32::new(0);
        let out = retry_io(&policy, &sleeper, || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(interrupted())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.ok(), Some(42));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(
            sleeper.slept(),
            vec![Duration::from_millis(10), Duration::from_millis(20)]
        );
    }

    #[test]
    fn hard_errors_are_not_retried() {
        let policy = RetryPolicy::default();
        let sleeper = RecordingSleeper::new();
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(&policy, &sleeper, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::from_raw_os_error(28)) // ENOSPC
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(sleeper.slept().is_empty());
    }

    #[test]
    fn exhausting_attempts_returns_last_transient_error() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let sleeper = RecordingSleeper::new();
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(&policy, &sleeper, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(interrupted())
        });
        assert_eq!(
            out.err().map(|e| e.kind()),
            Some(io::ErrorKind::Interrupted)
        );
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(sleeper.slept().len(), 2);
    }

    #[test]
    fn delay_schedule_is_capped() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 100,
            multiplier: 10,
            max_delay_ms: 500,
        };
        assert_eq!(policy.delay_for(0), Duration::from_millis(100));
        assert_eq!(policy.delay_for(1), Duration::from_millis(500));
        assert_eq!(policy.delay_for(5), Duration::from_millis(500));
    }

    #[test]
    fn none_policy_is_single_attempt() {
        let policy = RetryPolicy::none();
        let sleeper = RecordingSleeper::new();
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(&policy, &sleeper, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(interrupted())
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
