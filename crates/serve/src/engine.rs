//! The prediction engine: one loaded model, one plan cache, one arena tape.
//!
//! [`Engine`] owns everything a micro-batch needs and is driven by exactly
//! one thread (the batcher), so it needs no interior locking: connection
//! threads never touch the model, they only move queries through the queue.
//! The arena is bounded by the tape itself: its best-fit pool hands each op
//! the smallest recycled buffer that fits and replaces a buffer on a miss,
//! so micro-batches of mixed shapes settle at the buffers the largest batch
//! needs instead of ratcheting up (see `routenet_nn::Tape`).

use crate::cache::PlanCache;
use routenet_core::checkpoint::{CheckpointError, TrainState, MAGIC};
use routenet_core::{Prediction, RouteNet, Scenario};
use routenet_faults::FsHandle;
use routenet_nn::Tape;
use std::path::Path;

/// Typed serving failures. The daemon maps each to an error response or a
/// clean exit — it never panics on bad input or injected IO faults.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem error reaching the model artifact (through the IO seam).
    Io(std::io::Error),
    /// The model artifact is a checkpoint container but failed to load.
    Checkpoint(CheckpointError),
    /// The model artifact is a JSON export but failed to parse.
    Model(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "model io error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint load failed: {e}"),
            ServeError::Model(msg) => write!(f, "model parse failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

/// Load a model artifact through the IO seam: either a `TrainState`
/// checkpoint (detected by its `ROUTENET-CKPT` header; yields the best
/// parameters) or a `RouteNet::to_json` export.
#[must_use = "dropping the result loses both the model and the load failure"]
pub fn load_model(fs: &FsHandle, path: &Path) -> Result<RouteNet, ServeError> {
    let text = fs.fs().read_to_string(path)?;
    if text.starts_with(MAGIC) {
        Ok(TrainState::load_with(fs.fs(), path)?.into_model()?)
    } else {
        RouteNet::from_json(&text).map_err(|e| ServeError::Model(e.to_string()))
    }
}

/// Model + plan cache + arena tape: the single-threaded prediction core.
pub struct Engine {
    model: RouteNet,
    cache: PlanCache,
    arena: Option<Tape>,
}

impl Engine {
    /// [`load_model`] with a plan cache of `cache_cap` topologies.
    #[must_use = "dropping the result loses both the engine and the load failure"]
    pub fn load(fs: &FsHandle, path: &Path, cache_cap: usize) -> Result<Engine, ServeError> {
        Ok(Engine::from_model(load_model(fs, path)?, cache_cap))
    }

    /// Wrap an already-loaded model (tests, embedded use).
    pub fn from_model(model: RouteNet, cache_cap: usize) -> Engine {
        Engine {
            model,
            cache: PlanCache::new(cache_cap),
            arena: Some(Tape::new()),
        }
    }

    /// The loaded model.
    pub fn model(&self) -> &RouteNet {
        &self.model
    }

    /// Predict one micro-batch in a single batched forward pass, reusing
    /// cached per-topology plans and the arena tape. Scenarios must be
    /// finalized and pass `Scenario::validate`, which rejects scenarios
    /// that route no pairs (the server checks before queueing). Returns
    /// one prediction vector per scenario, in input order — bitwise
    /// identical, per sample, to the offline predict path (each scenario as
    /// a batch of one).
    pub fn predict(&mut self, scenarios: &[&Scenario]) -> Vec<Vec<Prediction>> {
        if scenarios.is_empty() {
            return Vec::new();
        }
        let compiled: Vec<_> = scenarios
            .iter()
            .map(|sc| {
                let plan = self.cache.plan_for(sc);
                self.model.compile_with_index(sc, plan)
            })
            .collect();
        let refs: Vec<_> = compiled.iter().collect();
        #[expect(
            clippy::expect_used,
            reason = "arena is only vacant inside this call; both exits restore it"
        )]
        let arena = self.arena.take().expect("arena present between batches");
        let (preds, arena) = self.model.predict_batch_compiled_reuse(&refs, arena);
        self.arena = Some(arena);
        preds
    }

    /// `(hits, misses)` of the plan cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routenet_core::RouteNetConfig;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;
    use routenet_netgraph::TrafficMatrix;

    fn model() -> RouteNet {
        let mut m = RouteNet::new(RouteNetConfig {
            link_state_dim: 4,
            path_state_dim: 4,
            readout_hidden: 8,
            t_iterations: 2,
            predict_jitter: true,
            predict_drops: false,
            seed: 3,
        });
        m.set_normalizer(routenet_core::features::Normalizer {
            capacity_scale: 10_000.0,
            traffic_scale: 200.0,
            ..routenet_core::features::Normalizer::default()
        });
        m
    }

    fn scenario(demand: f64) -> Scenario {
        let g = nsfnet();
        let routing = shortest_path_routing(&g).unwrap();
        let mut traffic = TrafficMatrix::zeros(g.n_nodes());
        for (s, d) in g.node_pairs() {
            traffic.set_demand(s, d, demand + (s.0 * 14 + d.0) as f64);
        }
        Scenario {
            graph: g,
            routing,
            traffic,
        }
    }

    #[test]
    fn engine_batches_match_offline_predictions_bitwise() {
        let m = model();
        let scenarios = [scenario(100.0), scenario(180.0), scenario(40.0)];
        let refs: Vec<&Scenario> = scenarios.iter().collect();
        let offline = {
            use routenet_core::KpiPredictor;
            m.predict_batch(&refs)
        };
        let mut engine = Engine::from_model(model(), 4);
        let served = engine.predict(&refs);
        assert_eq!(served.len(), offline.len());
        for (s, o) in served.iter().zip(&offline) {
            for (a, b) in s.iter().zip(o) {
                assert_eq!(a.delay_s.to_bits(), b.delay_s.to_bits());
                assert_eq!(a.jitter_s2.to_bits(), b.jitter_s2.to_bits());
                assert_eq!(a.drop_prob.to_bits(), b.drop_prob.to_bits());
            }
        }
        // Three same-topology queries compiled against one cached plan.
        assert_eq!(engine.cache_stats(), (2, 1));
    }

    #[test]
    fn engine_load_surfaces_typed_errors() {
        use routenet_faults::{FaultKind, FaultPlan, FaultRule, OpKind};
        let plan = FaultPlan::new().rule(FaultRule::every(1, FaultKind::Eio).on_op(OpKind::Read));
        let (fs, _plan) = FsHandle::faulty(plan);
        let err = Engine::load(&fs, Path::new("/nonexistent/model.json"), 2)
            .err()
            .expect("must fail");
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert!(err.to_string().contains("io error"));
    }
}
