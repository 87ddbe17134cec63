//! Measurement infrastructure: streaming per-flow statistics and simulation
//! results.

use routenet_netgraph::NodeId;
use serde::{Deserialize, Serialize};

/// Streaming accumulator for per-packet end-to-end delays of one flow.
///
/// Uses Welford's algorithm so mean and variance are numerically stable over
/// millions of samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DelayAccumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl DelayAccumulator {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        DelayAccumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one delay observation (seconds).
    pub fn record(&mut self, delay_s: f64) {
        debug_assert!(delay_s.is_finite() && delay_s >= 0.0);
        self.count += 1;
        let d = delay_s - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (delay_s - self.mean);
        self.min = self.min.min(delay_s);
        self.max = self.max.max(delay_s);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or `None` with no observations.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance of the delay (the RouteNet datasets define
    /// "jitter" as delay variance), or `None` with no observations.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Minimum observed delay.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observed delay.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &DelayAccumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        debug_assert!(total > 0, "both sides nonzero after the early returns");
        let total_f = total as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total_f;
        let m2 =
            self.m2 + other.m2 + delta * delta * self.count as f64 * other.count as f64 / total_f;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-memory log-spaced histogram for positive values (delays).
///
/// Bins are geometric between `lo` and `hi`; records outside the range clamp
/// to the edge bins. Percentile queries interpolate within a bin in log
/// space, giving a relative resolution of `(hi/lo)^(1/bins) - 1` (~9% with
/// the default 160 bins over 1e-5..1e3 s) — accurate enough for tail-latency
/// labels while costing a few hundred bytes per flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new(1e-5, 1e3, 160)
    }
}

impl LogHistogram {
    /// Histogram over `[lo, hi]` with `bins` geometric bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && bins >= 2);
        LogHistogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the bin position is floored at zero, and min() clamps it to the last bin"
    )]
    fn bin_of(&self, x: f64) -> usize {
        debug_assert!(self.lo > 0.0 && self.hi > self.lo && x > 0.0);
        let b = self.counts.len() as f64;
        let t = (x / self.lo).ln() / (self.hi / self.lo).ln();
        ((t * b).floor().max(0.0) as usize).min(self.counts.len() - 1)
    }

    /// Record a positive observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite() && x > 0.0);
        let i = self.bin_of(x.max(self.lo));
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `q`-quantile (`0 < q <= 1`), or `None` with no observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q <= 1.0);
        debug_assert!(self.lo > 0.0 && self.hi > self.lo, "constructor invariant");
        if self.total == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "q in (0, 1] is asserted above, so target lies in 1..=total"
        )]
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if cum + c >= target {
                // Interpolate within the bin in log space.
                let b = self.counts.len() as f64;
                debug_assert!(b > 0.0, "constructor requires at least two bins");
                let frac = if c == 0 {
                    0.5
                } else {
                    (target - cum) as f64 / c as f64
                };
                let t = (i as f64 + frac) / b;
                return Some(self.lo * (self.hi / self.lo).powf(t));
            }
            cum += c;
        }
        Some(self.hi)
    }

    /// Merge another histogram with identical bounds/bins.
    #[expect(
        clippy::float_cmp,
        reason = "histograms merge only when built from the very same bounds, so they compare exactly"
    )]
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        assert!(
            self.lo == other.lo && self.hi == other.hi,
            "bounds mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Final per-flow measurement for one `(src, dst)` pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowStats {
    /// Flow source node.
    pub src: NodeId,
    /// Flow destination node.
    pub dst: NodeId,
    /// Offered average rate, bits/s (input parameter echoed for convenience).
    /// unit: bit/s
    pub offered_bps: f64,
    /// Packets delivered end-to-end within the measurement window.
    pub delivered: u64,
    /// Packets dropped at full buffers.
    pub dropped: u64,
    /// Mean per-packet end-to-end delay, seconds.
    /// unit: s
    pub mean_delay_s: f64,
    /// Delay variance ("jitter" in the RouteNet dataset convention), s².
    /// unit: s^2
    pub jitter_s2: f64,
    /// Extremes, seconds.
    /// unit: s
    pub min_delay_s: f64,
    /// Maximum observed delay, seconds.
    /// unit: s
    pub max_delay_s: f64,
    /// 90th-percentile delay, seconds (log-histogram estimate, ~9% relative
    /// resolution; 0 with no observations). Tail-latency label for the
    /// percentile-prediction extension of RouteNet.
    /// unit: s
    pub p90_delay_s: f64,
    /// 99th-percentile delay, seconds (same estimator as `p90_delay_s`).
    /// unit: s
    pub p99_delay_s: f64,
}

impl FlowStats {
    /// Drop probability within the measurement window.
    pub fn drop_prob(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// One entry per flow with non-zero demand, in canonical pair order.
    pub flows: Vec<FlowStats>,
    /// Per-link mean utilization measured over the run (busy time fraction).
    /// unit: ratio
    pub link_utilization: Vec<f64>,
    /// Per-link time-average number of packets in system (Little's law:
    /// accumulated sojourn time divided by the measurement window).
    /// unit: count
    pub link_mean_occupancy: Vec<f64>,
    /// Per-link mean per-packet sojourn (wait + service) time, seconds.
    /// unit: s
    pub link_mean_sojourn_s: Vec<f64>,
    /// Total simulated packets (delivered + dropped + still in flight at end).
    pub total_packets: u64,
    /// Number of processed events (cost metric for the E5 experiment).
    pub events_processed: u64,
    /// Simulated duration excluding warm-up, seconds.
    /// unit: s
    pub measured_duration_s: f64,
}

impl SimResult {
    /// Look up the stats of a flow by endpoints.
    pub fn flow(&self, src: NodeId, dst: NodeId) -> Option<&FlowStats> {
        self.flows.iter().find(|f| f.src == src && f.dst == dst)
    }

    /// Mean delay over all flows weighted by delivered packets.
    pub fn overall_mean_delay_s(&self) -> Option<f64> {
        let total: u64 = self.flows.iter().map(|f| f.delivered).sum();
        if total == 0 {
            return None;
        }
        Some(
            self.flows
                .iter()
                .map(|f| f.mean_delay_s * f.delivered as f64)
                .sum::<f64>()
                / total as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_mean_var_match_naive() {
        let xs = [0.5, 1.0, 1.5, 2.0, 10.0];
        let mut acc = DelayAccumulator::new();
        for &x in &xs {
            acc.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((acc.mean().unwrap() - mean).abs() < 1e-12);
        assert!((acc.variance().unwrap() - var).abs() < 1e-12);
        assert_eq!(acc.min().unwrap(), 0.5);
        assert_eq!(acc.max().unwrap(), 10.0);
        assert_eq!(acc.count(), 5);
    }

    #[test]
    fn empty_accumulator_returns_none() {
        let acc = DelayAccumulator::new();
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.variance(), None);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let mut all = DelayAccumulator::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = DelayAccumulator::new();
        let mut b = DelayAccumulator::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-12);
        assert!((a.variance().unwrap() - all.variance().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = DelayAccumulator::new();
        a.record(1.0);
        a.record(2.0);
        let before = a.clone();
        a.merge(&DelayAccumulator::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
        let mut empty = DelayAccumulator::new();
        empty.merge(&a);
        assert_eq!(empty.count(), a.count());
        assert_eq!(empty.mean(), a.mean());
    }

    #[test]
    fn histogram_quantiles_match_empirical() {
        // Log-uniform data over two decades.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| 10f64.powf(-3.0 + 2.0 * (i as f64 + 0.5) / 10_000.0))
            .collect();
        let mut h = LogHistogram::new(1e-4, 1e0, 200);
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.count(), 10_000);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact = sorted[((q * 10_000.0) as usize).min(9_999)];
            let est = h.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.05, "q{q}: est {est} vs exact {exact} (rel {rel})");
        }
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = LogHistogram::new(1e-2, 1e0, 10);
        h.record(1e-6); // below lo -> first bin
        h.record(1e6); // above hi -> last bin
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.4).unwrap() <= 2e-2);
        assert!(h.quantile(1.0).unwrap() >= 0.99);
    }

    #[test]
    fn histogram_empty_and_merge() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        let mut a = LogHistogram::new(1e-3, 1e1, 50);
        let mut b = LogHistogram::new(1e-3, 1e1, 50);
        for i in 1..=100 {
            a.record(i as f64 * 0.01);
        }
        for i in 1..=100 {
            b.record(i as f64 * 0.05);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 200);
        // merged median between the two individual medians
        let ma = a.quantile(0.5).unwrap();
        let mb = b.quantile(0.5).unwrap();
        let mm = merged.quantile(0.5).unwrap();
        assert!(mm >= ma.min(mb) && mm <= ma.max(mb));
    }

    #[test]
    #[should_panic(expected = "bounds mismatch")]
    fn histogram_merge_checks_bounds() {
        let mut a = LogHistogram::new(1e-3, 1e1, 50);
        let b = LogHistogram::new(1e-2, 1e1, 50);
        a.merge(&b);
    }

    #[test]
    fn drop_prob_edge_cases() {
        let mut f = FlowStats {
            src: NodeId(0),
            dst: NodeId(1),
            offered_bps: 100.0,
            delivered: 0,
            dropped: 0,
            mean_delay_s: 0.0,
            jitter_s2: 0.0,
            min_delay_s: 0.0,
            max_delay_s: 0.0,
            p90_delay_s: 0.0,
            p99_delay_s: 0.0,
        };
        assert_eq!(f.drop_prob(), 0.0);
        f.delivered = 3;
        f.dropped = 1;
        assert!((f.drop_prob() - 0.25).abs() < 1e-12);
    }
}
