//! Fixture: NaN-unsound float handling (nan rule) at fixed lines.

pub fn nan_sink_site(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn div_zero_site(x: f64) -> f64 {
    x / 0.0
}

pub fn not_flagged(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}
