//! Data model: scenarios (RouteNet inputs) and labeled samples.
//!
//! A [`Scenario`] is exactly the triple the paper feeds RouteNet — topology,
//! source/destination routing, traffic matrix. A [`Sample`] adds the
//! simulator-provided ground truth (per-pair mean delay and jitter) plus
//! provenance metadata.

use routenet_netgraph::{Graph, NodeId, RoutingScheme, TrafficMatrix};
use serde::{Deserialize, Serialize};

/// Ground-truth KPIs for one source/destination pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetKpi {
    /// Mean per-packet end-to-end delay, seconds.
    /// unit: s
    pub delay_s: f64,
    /// Delay variance ("jitter"), s².
    /// unit: s^2
    pub jitter_s2: f64,
    /// Drop probability within the measurement window (0 with infinite
    /// buffers; labels for the finite-buffer extension experiment).
    /// unit: ratio
    #[serde(default)]
    pub drop_prob: f64,
}

/// RouteNet's input triple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Network topology.
    pub graph: Graph,
    /// One path per ordered node pair.
    pub routing: RoutingScheme,
    /// Offered traffic per ordered node pair, bits/s.
    pub traffic: TrafficMatrix,
}

impl Scenario {
    /// Ordered `(src, dst)` pairs in the canonical order used for labels and
    /// predictions.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.graph.node_pairs().collect()
    }

    /// Number of routed pairs.
    pub fn n_pairs(&self) -> usize {
        self.routing.n_pairs()
    }

    /// Restore internal indices after deserialization.
    pub fn finalize(&mut self) {
        self.graph.rebuild_index();
    }

    /// Cross-validate the three components against each other. A scenario
    /// that routes no pairs (e.g. a one-node graph) is rejected: it has
    /// nothing to predict and nothing to learn from.
    #[must_use = "an unchecked validation result defeats the purpose of validating"]
    pub fn validate(&self) -> Result<(), String> {
        if self.traffic.n_nodes() != self.graph.n_nodes() {
            return Err(format!(
                "traffic matrix is {}x, graph has {} nodes",
                self.traffic.n_nodes(),
                self.graph.n_nodes()
            ));
        }
        self.routing
            .validate(&self.graph)
            .map_err(|e| e.to_string())?;
        if self.n_pairs() == 0 {
            return Err("scenario routes no pairs".into());
        }
        Ok(())
    }
}

/// A labeled training/evaluation sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// The RouteNet input.
    pub scenario: Scenario,
    /// Ground truth per pair, in canonical pair order (same length as
    /// `scenario.n_pairs()`).
    pub targets: Vec<TargetKpi>,
    /// Name of the topology family ("NSFNET", "Geant2", "Synth-50", ...).
    pub topology: String,
    /// The max-link-utilization intensity this sample was generated at.
    pub intensity: f64,
    /// Seed used for generation (provenance / dedup).
    pub seed: u64,
}

impl Sample {
    /// Restore internal indices after deserialization.
    pub fn finalize(&mut self) {
        self.scenario.finalize();
    }

    /// Validate structural consistency.
    #[must_use = "an unchecked validation result defeats the purpose of validating"]
    pub fn validate(&self) -> Result<(), String> {
        self.scenario.validate()?;
        if self.targets.len() != self.scenario.n_pairs() {
            return Err(format!(
                "{} targets for {} pairs",
                self.targets.len(),
                self.scenario.n_pairs()
            ));
        }
        for (i, t) in self.targets.iter().enumerate() {
            if !(t.delay_s.is_finite() && t.delay_s >= 0.0) {
                return Err(format!("target {i} has bad delay {}", t.delay_s));
            }
            if !(t.jitter_s2.is_finite() && t.jitter_s2 >= 0.0) {
                return Err(format!("target {i} has bad jitter {}", t.jitter_s2));
            }
            if !(t.drop_prob.is_finite() && (0.0..=1.0).contains(&t.drop_prob)) {
                return Err(format!("target {i} has bad drop prob {}", t.drop_prob));
            }
        }
        Ok(())
    }
}

/// A per-pair KPI prediction (shared output type of every predictor:
/// RouteNet, the M/M/1 baseline and the FNN baseline).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted mean delay, seconds.
    /// unit: s
    pub delay_s: f64,
    /// Predicted jitter (delay variance), s². `NaN` when the predictor has
    /// no jitter head.
    /// unit: s^2
    pub jitter_s2: f64,
    /// Predicted drop probability. `NaN` when the predictor has no drop
    /// head.
    /// unit: ratio
    pub drop_prob: f64,
}

/// Anything that maps a scenario to per-pair KPI predictions in canonical
/// pair order.
pub trait KpiPredictor {
    /// Short human-readable name for tables ("RouteNet", "M/M/1", "FNN").
    fn predictor_name(&self) -> &str;

    /// Predict KPIs for every ordered pair of `scenario`.
    fn predict(&self, scenario: &Scenario) -> Vec<Prediction>;

    /// Predict over a whole sweep of scenarios, one prediction vector per
    /// scenario in input order. The default maps [`KpiPredictor::predict`];
    /// predictors with per-sweep setup cost (compiled indices, allocation
    /// arenas) override it to amortize that cost across the sweep.
    fn predict_batch(&self, scenarios: &[&Scenario]) -> Vec<Vec<Prediction>> {
        scenarios.iter().map(|s| self.predict(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;

    fn scenario() -> Scenario {
        let g = nsfnet();
        let routing = shortest_path_routing(&g).unwrap();
        let mut traffic = TrafficMatrix::zeros(g.n_nodes());
        traffic.set_demand(NodeId(0), NodeId(5), 1_000.0);
        Scenario {
            graph: g,
            routing,
            traffic,
        }
    }

    #[test]
    fn scenario_validates() {
        let s = scenario();
        s.validate().unwrap();
        assert_eq!(s.n_pairs(), 14 * 13);
        assert_eq!(s.pairs().len(), 14 * 13);
    }

    #[test]
    fn scenario_detects_mismatched_traffic() {
        let mut s = scenario();
        s.traffic = TrafficMatrix::zeros(5);
        assert!(s.validate().is_err());
    }

    #[test]
    fn scenario_without_pairs_is_rejected() {
        let g = Graph::new("one", 1);
        let routing = routenet_netgraph::routing::shortest_path_routing(&g).unwrap();
        let s = Scenario {
            graph: g,
            routing,
            traffic: TrafficMatrix::zeros(1),
        };
        assert_eq!(s.n_pairs(), 0);
        assert_eq!(s.validate().unwrap_err(), "scenario routes no pairs");
    }

    #[test]
    fn sample_validates_targets() {
        let sc = scenario();
        let n = sc.n_pairs();
        let mut sample = Sample {
            scenario: sc,
            targets: vec![
                TargetKpi {
                    delay_s: 0.1,
                    jitter_s2: 0.01,
                    drop_prob: 0.0
                };
                n
            ],
            topology: "NSFNET".into(),
            intensity: 0.5,
            seed: 1,
        };
        sample.validate().unwrap();
        sample.targets.pop();
        assert!(sample.validate().is_err());
    }

    #[test]
    fn sample_rejects_bad_kpis() {
        let sc = scenario();
        let n = sc.n_pairs();
        let mut sample = Sample {
            scenario: sc,
            targets: vec![
                TargetKpi {
                    delay_s: 0.1,
                    jitter_s2: 0.01,
                    drop_prob: 0.0
                };
                n
            ],
            topology: "NSFNET".into(),
            intensity: 0.5,
            seed: 1,
        };
        sample.targets[3].delay_s = f64::NAN;
        assert!(sample.validate().is_err());
        sample.targets[3].delay_s = 0.1;
        sample.targets[7].jitter_s2 = -1.0;
        assert!(sample.validate().is_err());
    }

    #[test]
    fn sample_serde_roundtrip() {
        let sc = scenario();
        let n = sc.n_pairs();
        let sample = Sample {
            scenario: sc,
            targets: vec![
                TargetKpi {
                    delay_s: 0.2,
                    jitter_s2: 0.02,
                    drop_prob: 0.0
                };
                n
            ],
            topology: "NSFNET".into(),
            intensity: 0.4,
            seed: 9,
        };
        let json = serde_json::to_string(&sample).unwrap();
        let mut back: Sample = serde_json::from_str(&json).unwrap();
        back.finalize();
        back.validate().unwrap();
        assert_eq!(back.topology, "NSFNET");
        assert_eq!(back.targets.len(), n);
        assert_eq!(back.scenario.graph.n_links(), 42);
    }
}
