//! Fixture: an allow that suppresses nothing is a `lint-stale` finding.

// lint: allow(nan, reason = "fixture: nothing here compares floats")
pub fn one() -> u32 {
    1
}
