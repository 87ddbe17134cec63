//! # routenet-core
//!
//! The paper's primary contribution: **RouteNet**, a graph neural network
//! that predicts per-source/destination mean delay and jitter from a
//! network's topology, routing scheme and traffic matrix — plus the
//! training loop, evaluation metrics, and the baselines the paper's
//! introduction contrasts it with (analytic M/M/1 and a fixed-input
//! fully-connected network).
//!
//! The headline property under test (the whole point of the demo paper) is
//! *generalization*: a single trained model makes accurate predictions on
//! topologies it never saw during training, because its message-passing
//! architecture is assembled at runtime from the input graph.
//!
//! ```
//! use routenet_core::prelude::*;
//! use routenet_netgraph::prelude::*;
//! use rand::SeedableRng;
//!
//! // Assemble a scenario: topology + routing + traffic.
//! let g = topology::nsfnet();
//! let r = routing::shortest_path_routing(&g).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let tm = traffic::sample_traffic_matrix(&g, &r, &TrafficModel::Gravity, 0.5, &mut rng);
//! let scenario = Scenario { graph: g, routing: r, traffic: tm };
//!
//! // An untrained model already produces structurally valid output:
//! let model = RouteNet::new(RouteNetConfig::default());
//! let preds = model.predict_scenario(&scenario);
//! assert_eq!(preds.len(), 14 * 13); // one prediction per ordered pair
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod checkpoint;
pub mod eval;
pub mod features;
pub mod indexing;
pub mod metrics;
pub mod model;
pub mod par;
pub mod sample;
pub mod trainer;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::baseline::{FnnBaseline, FnnConfig, Mg1Baseline, Mm1Baseline, Mm1kBaseline};
    pub use crate::batch::{BatchPosition, BatchedScenario};
    pub use crate::checkpoint::{CheckpointError, TrainState};
    pub use crate::eval::{
        collect_by_topology, collect_predictions, emit_eval_telemetry, top_n_paths_by_delay,
        PairedEval,
    };
    pub use crate::features::Normalizer;
    pub use crate::metrics::{cdf_points, evaluate, relative_errors, EvalSummary};
    pub use crate::model::{RouteNet, RouteNetConfig};
    pub use crate::sample::{KpiPredictor, Prediction, Sample, Scenario, TargetKpi};
    pub use crate::trainer::{
        train, train_with_control, DivergenceReason, RecoveryEvent, TrainConfig, TrainControl,
        TrainError, TrainReport,
    };
}

pub use batch::{BatchPosition, BatchedScenario};
pub use model::{RouteNet, RouteNetConfig};
pub use sample::{KpiPredictor, Prediction, Sample, Scenario, TargetKpi};
pub use trainer::{train, train_with_control, TrainConfig, TrainControl, TrainError, TrainReport};
