//! Fixture: justified allows suppress diagnostics; malformed allows are
//! themselves diagnosed under the `lint-syntax` rule.

pub fn suppressed_sort(xs: &mut [f64]) {
    // lint: allow(nan, reason = "fixture: inputs are NaN-free by construction")
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn suppressed_trailing(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal) // lint: allow(nan, reason = "fixture: ties are harmless")
}

pub fn suppressed_flag(ready: &AtomicBool) {
    // lint: allow(relaxed-publish, reason = "fixture: the flag guards no data")
    ready.store(true, Ordering::Relaxed);
}

pub fn missing_reason(xs: &mut [f64]) {
    // lint: allow(nan)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn unknown_rule(xs: &mut [f64]) {
    // lint: allow(frobnicate, reason = "no such rule")
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
