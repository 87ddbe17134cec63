//! Fixture: RN2xx concurrency violations, one family per function. Line
//! positions are pinned by the fixture tests.

fn relaxed_publication(ready: &AtomicBool, hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
    ready.store(true, Ordering::Relaxed);
}

fn lock_per_iteration(items: &[f64], shared: &Mutex<f64>) -> f64 {
    let mut total = 0.0;
    for x in items {
        let guard = shared.lock();
        total += x;
    }
    total
}

fn lock_via_callee(items: &[f64], stats: &Stats) {
    for x in items {
        record(stats, x);
    }
}

fn record(stats: &Stats, x: f64) {
    let mut guard = stats.inner.lock();
    guard.push(x);
}
