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
}

impl DelayAccumulator {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        DelayAccumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Record one delay observation (seconds).
    pub fn record(&mut self, delay_s: f64) {
        debug_assert!(delay_s.is_finite() && delay_s >= 0.0);
        self.count += 1;
        let d = delay_s - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (delay_s - self.mean);
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
}

/// Final per-flow measurement for one `(src, dst)` pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowStats {
    /// Flow source node.
    pub src: NodeId,
    /// Flow destination node.
    pub dst: NodeId,
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
        assert_eq!(acc.count(), 5);
    }

    #[test]
    fn empty_accumulator_returns_none() {
        let acc = DelayAccumulator::new();
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.variance(), None);
    }

    #[test]
    fn drop_prob_edge_cases() {
        let mut f = FlowStats {
            src: NodeId(0),
            dst: NodeId(1),
            delivered: 0,
            dropped: 0,
            mean_delay_s: 0.0,
            jitter_s2: 0.0,
        };
        assert_eq!(f.drop_prob(), 0.0);
        f.delivered = 3;
        f.dropped = 1;
        assert!((f.drop_prob() - 0.25).abs() < 1e-12);
    }
}
