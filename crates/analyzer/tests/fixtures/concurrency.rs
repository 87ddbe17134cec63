//! Fixture: an RN2xx concurrency violation. Line positions are pinned by
//! the fixture tests.

fn relaxed_publication(ready: &AtomicBool, hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
    ready.store(true, Ordering::Relaxed);
}
