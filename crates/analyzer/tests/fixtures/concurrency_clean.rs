//! Fixture: the RN2xx rules must stay silent on a counter, a released
//! publication and a hoisted lock.

/// Relaxed is the right ordering for counters; publication uses Release.
fn publish_with_release(ready: &AtomicBool, hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
    ready.store(true, Ordering::Release);
}

/// Lock hoisted out of the loop: one acquisition per call.
fn hoisted_lock(items: &[f64], shared: &Mutex<f64>) -> f64 {
    let mut guard = shared.lock();
    let mut total = 0.0;
    for x in items {
        total += x;
    }
    *guard = total;
    total
}
