//! Fixture: the RN2xx rules must stay silent on a counter and a released
//! publication.

/// Relaxed is the right ordering for counters; publication uses Release.
fn publish_with_release(ready: &AtomicBool, hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
    ready.store(true, Ordering::Release);
}
