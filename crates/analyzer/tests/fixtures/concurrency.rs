//! Fixture: RN2xx concurrency/determinism violations, one family per
//! function. Line positions are pinned by the fixture tests.

/// Transitive RN203 evidence: draws from a stream it did not derive.
fn draw(rng: &mut StdRng) -> f64 {
    rng.gen_range(0.0..1.0)
}

fn shared_float_reduce(scope: &Scope, acc: &Mutex<f64>, items: &[f64]) {
    scope.spawn(move |_| {
        let mut local = 0.0;
        for x in items {
            local += x;
        }
        *acc.lock() += local;
    });
}

fn shared_rng(scope: &Scope, rng: &mut StdRng) -> f64 {
    scope.spawn(move |_| {
        let direct = rng.gen_range(0.0..1.0);
        let transitive = draw(rng);
        direct + transitive
    });
}

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
