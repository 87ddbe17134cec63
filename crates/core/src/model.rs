//! The RouteNet graph neural network (Rusek et al., SOSR 2019), the model
//! whose generalization the paper challenges.
//!
//! Architecture (T message-passing iterations):
//!
//! ```text
//! h_l^0 = [link features, 0...]        h_p^0 = [path features, 0...]
//! repeat T times:
//!   for every path p  (batched by hop position):
//!       h_p ← GRU_path(x = h_l, h = h_p) along the links l ∈ p in order;
//!       every intermediate state is a message m_{p,l}
//!   for every link l:
//!       h_l ← GRU_link(x = Σ_{p : l ∈ p} m_{p,l}, h = h_l)
//! readout:  [delay, jitter] = MLP(h_p)
//! ```
//!
//! The per-position batching (gather active paths' link states → one GRU
//! step over the whole batch → scatter messages into link inboxes) makes the
//! tape length `O(T · max_path_len)` rather than `O(T · Σ|p|)`.

// A hot path: every bare index must be proven in bounds or replaced by
// `.get()`.
#![deny(clippy::indexing_slicing)]

use crate::batch::BatchedScenario;
use crate::features::Normalizer;
use crate::indexing::PathTensors;
use crate::sample::{KpiPredictor, Prediction, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use routenet_netgraph::RoutingScheme;
use routenet_nn::prelude::*;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the RouteNet model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteNetConfig {
    /// Width of per-link hidden states.
    pub link_state_dim: usize,
    /// Width of per-path hidden states.
    pub path_state_dim: usize,
    /// Hidden width of the readout MLP.
    pub readout_hidden: usize,
    /// Number of message-passing iterations T.
    pub t_iterations: usize,
    /// Whether the readout has a second (jitter) head.
    pub predict_jitter: bool,
    /// Whether the readout has a drop-probability head (finite-buffer
    /// extension; train on datasets generated with `buffer_pkts`).
    pub predict_drops: bool,
    /// Weight initialization seed.
    pub seed: u64,
}

impl Default for RouteNetConfig {
    fn default() -> Self {
        // The paper reports tuning hyperparameters for larger topologies but
        // not the values; these defaults train in minutes on CPU while
        // keeping the architecture intact. `report`'s ablation section sweeps
        // T and the state width.
        RouteNetConfig {
            link_state_dim: 16,
            path_state_dim: 16,
            readout_hidden: 32,
            t_iterations: 4,
            predict_jitter: true,
            predict_drops: false,
            seed: 2019,
        }
    }
}

/// A scenario pre-compiled for the forward pass: message-passing index plus
/// initial feature tensors.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Gather/scatter index.
    pub tensors: PathTensors,
    pub(crate) link_x: Tensor,
    pub(crate) path_x: Tensor,
}

/// The RouteNet GNN with its parameters and fitted normalizer.
#[derive(Debug)]
pub struct RouteNet {
    config: RouteNetConfig,
    store: ParamStore,
    path_cell: GruCell,
    link_cell: GruCell,
    readout: Mlp,
    norm: Normalizer,
}

/// Serializable checkpoint of a trained model.
#[derive(Serialize, Deserialize)]
struct Checkpoint {
    config: RouteNetConfig,
    store: ParamStore,
    path_cell: GruCell,
    link_cell: GruCell,
    readout: Mlp,
    norm: Normalizer,
}

impl RouteNet {
    /// Fresh model with Xavier-initialized weights.
    pub fn new(config: RouteNetConfig) -> Self {
        assert!(config.link_state_dim >= 2, "link state must fit 2 features");
        assert!(config.path_state_dim >= 1, "path state must fit 1 feature");
        assert!(config.t_iterations >= 1, "need at least one iteration");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let path_cell = GruCell::new(
            &mut store,
            "path_gru",
            config.link_state_dim,
            config.path_state_dim,
            &mut rng,
        );
        let link_cell = GruCell::new(
            &mut store,
            "link_gru",
            config.path_state_dim,
            config.link_state_dim,
            &mut rng,
        );
        let out_dim = 1 + config.predict_jitter as usize + config.predict_drops as usize;
        let readout = Mlp::new(
            &mut store,
            "readout",
            &[
                config.path_state_dim,
                config.readout_hidden,
                config.readout_hidden,
                out_dim,
            ],
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        RouteNet {
            config,
            store,
            path_cell,
            link_cell,
            readout,
            norm: Normalizer::default(),
        }
    }

    /// Rebuild a model from checkpointed parts: architecture config, a
    /// parameter store, and a fitted normalizer (e.g. from a
    /// [`crate::checkpoint::TrainState`]). The store must structurally
    /// match what [`RouteNet::new`] registers for `config` — same tensor
    /// count, names, and shapes — otherwise an error describes the first
    /// mismatch.
    #[must_use = "the rebuilt model is the entire point; an unchecked error here means a silently missing model"]
    pub fn from_parts(
        config: RouteNetConfig,
        params: ParamStore,
        norm: Normalizer,
    ) -> Result<Self, String> {
        let mut model = RouteNet::new(config);
        if model.store.len() != params.len() {
            return Err(format!(
                "parameter store has {} tensors, architecture needs {}",
                params.len(),
                model.store.len()
            ));
        }
        for id in model.store.ids() {
            if model.store.name(id) != params.name(id) {
                return Err(format!(
                    "parameter named {:?} where architecture expects {:?}",
                    params.name(id),
                    model.store.name(id)
                ));
            }
            if model.store.get(id).shape() != params.get(id).shape() {
                return Err(format!(
                    "parameter {:?} has shape {:?}, architecture expects {:?}",
                    params.name(id),
                    params.get(id).shape(),
                    model.store.get(id).shape()
                ));
            }
        }
        model.store = params;
        model.norm = norm;
        Ok(model)
    }

    /// Model hyperparameters.
    pub fn config(&self) -> &RouteNetConfig {
        &self.config
    }

    /// The parameter store (read access, e.g. for counting weights).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store (used by the trainer's optimizer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Number of trainable scalars.
    pub fn n_parameters(&self) -> usize {
        self.store.n_scalars()
    }

    /// The fitted normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.norm
    }

    /// Install a normalizer (fitted on the training set).
    pub fn set_normalizer(&mut self, norm: Normalizer) {
        self.norm = norm;
    }

    /// Number of readout outputs (1..=3: delay [, jitter] [, drop]).
    pub fn out_dim(&self) -> usize {
        1 + self.config.predict_jitter as usize + self.config.predict_drops as usize
    }

    /// Column index of the jitter output, if enabled.
    pub fn jitter_col(&self) -> Option<usize> {
        self.config.predict_jitter.then_some(1)
    }

    /// Column index of the drop output, if enabled.
    pub fn drop_col(&self) -> Option<usize> {
        self.config
            .predict_drops
            .then(|| 1 + self.config.predict_jitter as usize)
    }

    /// Pre-compile a scenario: build the message-passing index and initial
    /// feature tensors. Reused across epochs.
    pub fn compile(&self, scenario: &Scenario) -> CompiledScenario {
        self.compile_with_index(scenario, PathTensors::build(scenario))
    }

    /// [`RouteNet::compile`] with a pre-built message-passing index. The
    /// index depends only on the routing, so eval sweeps over many traffic
    /// matrices on one topology build it once and clone it per sample —
    /// the structural walk over every path is the expensive half of
    /// compilation; the feature tensors are per-sample by necessity.
    pub fn compile_with_index(
        &self,
        scenario: &Scenario,
        tensors: PathTensors,
    ) -> CompiledScenario {
        let lf = self.norm.link_features(scenario);
        let pf = self.norm.path_features(scenario);
        // Embed features into the first columns of the initial states.
        let link_x = Tensor::from_fn(tensors.n_links, self.config.link_state_dim, |r, c| {
            if c < 2 {
                lf.get(r, c)
            } else {
                0.0
            }
        });
        let path_x = Tensor::from_fn(tensors.n_paths, self.config.path_state_dim, |r, c| {
            if c == 0 {
                pf.get(r, 0)
            } else {
                0.0
            }
        });
        CompiledScenario {
            tensors,
            link_x,
            path_x,
        }
    }

    /// Build the forward graph for one compiled scenario on `sess`'s tape.
    /// Returns the `n_paths x out_dim` normalized prediction variable.
    ///
    /// Reference only: every production path (training, evaluation,
    /// prediction, serving) runs [`RouteNet::forward_batch`], with a single
    /// sample as a batch of one. This dense per-sample form is kept as the
    /// independent oracle the batched-equivalence tests check against.
    pub fn forward(&self, sess: &mut Session, compiled: &CompiledScenario) -> Var {
        let idx = &compiled.tensors;
        // Copy-in leaves keep the tape's buffer pool balanced when the
        // session is arena-reused across passes (same values either way).
        let mut link_state = sess.input_copied(&compiled.link_x);
        let mut path_state = sess.input_copied(&compiled.path_x);

        for _ in 0..self.config.t_iterations {
            // Path update: walk hop positions, batching all active paths.
            // Accumulate messages into per-link inboxes as we go.
            let mut link_inbox: Option<Var> = None;
            for k in 0..idx.max_len {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "positions holds max_len entries, k < max_len"
                )]
                let pos = &idx.positions[k];
                let x = sess.tape.gather_rows(link_state, pos.link_idx.clone());
                let h = sess.tape.gather_rows(path_state, pos.path_idx.clone());
                let h_new = self.path_cell.step(sess, x, h);
                // Replace the active rows of the path state: keep the
                // others through a 0/1 mask, then add the scattered rows.
                let active = idx.active_mask(k);
                let keep = Tensor::from_fn(idx.n_paths, self.config.path_state_dim, |r, _| {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "active_mask returns one flag per path row, r < n_paths"
                    )]
                    if active[r] {
                        0.0
                    } else {
                        1.0
                    }
                });
                let kept = sess.tape.mul_const(path_state, &keep);
                let scattered =
                    sess.tape
                        .scatter_add_rows(h_new, pos.path_idx.clone(), idx.n_paths);
                path_state = sess.tape.add(kept, scattered);
                // The per-position GRU outputs are the messages m_{p,l}.
                let msg = sess
                    .tape
                    .scatter_add_rows(h_new, pos.link_idx.clone(), idx.n_links);
                link_inbox = Some(match link_inbox {
                    Some(acc) => sess.tape.add(acc, msg),
                    None => msg,
                });
            }
            // Link update from aggregated messages.
            if let Some(inbox) = link_inbox {
                link_state = self.link_cell.step(sess, inbox, link_state);
            }
        }
        self.readout.forward(sess, path_state)
    }

    /// Build the forward graph for a packed minibatch on `sess`'s tape.
    /// Returns the `total_paths x out_dim` normalized prediction variable,
    /// sample row blocks in pack order.
    ///
    /// This is the one execution path of the model: a single sample is a
    /// batch of one. It computes the reference [`RouteNet::forward`]'s
    /// values over the concatenated rows, with two fused ops in place of
    /// op chains: [`Tape::gru_seg`] for each GRU step and
    /// [`Tape::replace_rows_plan`] for each path-state update. Each fused
    /// op repeats its chain's arithmetic and gradient accumulation order,
    /// and every op whose reduction crosses sample boundaries while
    /// touching a parameter iterates segments in sample order. Per-sample
    /// output rows and the per-segment parameter gradients recovered via
    /// [`Session::param_grads_seg`] are therefore bitwise identical to the
    /// reference, whatever else is packed into the batch.
    pub fn forward_batch(&self, sess: &mut Session, batch: &BatchedScenario) -> Var {
        let mut link_state = sess.input_copied(batch.link_x());
        let mut path_state = sess.input_copied(batch.path_x());

        for _ in 0..self.config.t_iterations {
            let mut link_inbox: Option<Var> = None;
            for k in 0..batch.max_len {
                let pos = batch.position(k);
                let x = sess.tape.gather_rows_plan(link_state, &pos.link_idx);
                let h = sess.tape.gather_rows_plan(path_state, &pos.path_idx);
                let h_new = self.path_cell.step_seg(sess, x, h, &pos.seg);
                path_state = sess
                    .tape
                    .replace_rows_plan(path_state, h_new, &pos.path_idx);
                let msg = sess
                    .tape
                    .scatter_add_rows_plan(h_new, &pos.link_idx, batch.n_links);
                link_inbox = Some(match link_inbox {
                    Some(acc) => sess.tape.add(acc, msg),
                    None => msg,
                });
            }
            if let Some(inbox) = link_inbox {
                link_state = self
                    .link_cell
                    .step_seg(sess, inbox, link_state, batch.link_seg());
            }
        }
        self.readout.forward_seg(sess, path_state, batch.path_seg())
    }

    /// Predict denormalized KPIs for a raw scenario (a batch of one). A
    /// scenario that routes no pairs yields no predictions.
    pub fn predict_scenario(&self, scenario: &Scenario) -> Vec<Prediction> {
        self.predict_batch(&[scenario])
            .into_iter()
            .next()
            .unwrap_or_default()
    }

    /// Predict denormalized KPIs for many pre-compiled scenarios in ONE
    /// batched forward pass ([`RouteNet::forward_batch`]). Accepts
    /// heterogeneous plans — different topologies, path counts, and hop
    /// depths pack fine — and returns one prediction vector per input, in
    /// input order. By the batched-equivalence contract (see DESIGN.md
    /// "Batched execution & memory arenas"), each sample's predictions are
    /// bitwise identical to predicting that sample as a batch of one, for
    /// any batch composition — the property that lets a serving daemon
    /// micro-batch concurrent queries without perturbing answers. Every
    /// scenario must route at least one pair ([`BatchedScenario::pack`]).
    pub fn predict_batch_compiled(&self, compiled: &[&CompiledScenario]) -> Vec<Vec<Prediction>> {
        self.predict_batch_compiled_reuse(compiled, Tape::new()).0
    }

    /// [`RouteNet::predict_batch_compiled`] threading an arena-backed tape
    /// through the call: the tape is reset (recycling its value buffers)
    /// before the forward pass and returned afterwards, so a long-lived
    /// caller (an eval sweep, the serving daemon's batch loop) reuses one
    /// allocation arena instead of building a fresh tape per pass. An empty
    /// slice is a no-op returning the arena.
    pub fn predict_batch_compiled_reuse(
        &self,
        compiled: &[&CompiledScenario],
        arena: Tape,
    ) -> (Vec<Vec<Prediction>>, Tape) {
        if compiled.is_empty() {
            return (Vec::new(), arena);
        }
        let batch = BatchedScenario::pack(compiled);
        let mut sess = Session::with_tape(&self.store, arena);
        let out = self.forward_batch(&mut sess, &batch);
        let all = self.extract_predictions(sess.tape.value(out));
        #[expect(
            clippy::indexing_slicing,
            reason = "sample_path_range partitions 0..n_paths and extract_predictions yields one row per path"
        )]
        let preds = (0..batch.n_samples())
            .map(|s| {
                let (lo, hi) = batch.sample_path_range(s);
                debug_assert!(hi <= all.len(), "sample ranges partition the output rows");
                all[lo..hi].to_vec()
            })
            .collect();
        (preds, sess.into_tape())
    }

    /// Denormalize a `rows x out_dim` prediction tensor into KPI structs.
    fn extract_predictions(&self, v: &Tensor) -> Vec<Prediction> {
        (0..v.rows())
            .map(|r| {
                let dz = v.get(r, 0);
                let jz = self.jitter_col().map_or(0.0, |c| v.get(r, c));
                let t = self.norm.denormalize(dz, jz);
                Prediction {
                    delay_s: t.delay_s,
                    jitter_s2: if self.config.predict_jitter {
                        t.jitter_s2
                    } else {
                        f64::NAN
                    },
                    // The drop head regresses the raw probability; clamp to
                    // the valid range.
                    drop_prob: self
                        .drop_col()
                        .map_or(f64::NAN, |c| v.get(r, c).clamp(0.0, 1.0)),
                }
            })
            .collect()
    }

    /// Serialize the full model (config + weights + normalizer) to JSON.
    #[expect(
        clippy::expect_used,
        reason = "in-memory numeric data always serializes; f64 is emitted as a literal"
    )]
    pub fn to_json(&self) -> String {
        let ckpt = Checkpoint {
            config: self.config.clone(),
            store: self.store.clone(),
            path_cell: self.path_cell.clone(),
            link_cell: self.link_cell.clone(),
            readout: self.readout.clone(),
            norm: self.norm.clone(),
        };
        serde_json::to_string(&ckpt).expect("checkpoint serializes")
    }

    /// Restore a model saved with [`RouteNet::to_json`].
    #[must_use = "dropping the result loses both the restored model and any parse error"]
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let ckpt: Checkpoint = serde_json::from_str(s)?;
        Ok(RouteNet {
            config: ckpt.config,
            store: ckpt.store,
            path_cell: ckpt.path_cell,
            link_cell: ckpt.link_cell,
            readout: ckpt.readout,
            norm: ckpt.norm,
        })
    }
}

impl KpiPredictor for RouteNet {
    fn predictor_name(&self) -> &str {
        "RouteNet"
    }

    fn predict(&self, scenario: &Scenario) -> Vec<Prediction> {
        self.predict_scenario(scenario)
    }

    /// Sweep-aware override: each scenario runs as a batch of one, one
    /// arena-backed tape is threaded through the whole sweep (zero
    /// steady-state tape allocation), and the structural message-passing
    /// index is rebuilt only when the routing changes between consecutive
    /// scenarios — eval sets are usually many traffic matrices over a
    /// handful of topologies, so grouping by topology upstream turns
    /// recompilation into a per-group cost. A scenario that routes no pairs
    /// yields an empty prediction vector.
    fn predict_batch(&self, scenarios: &[&Scenario]) -> Vec<Vec<Prediction>> {
        let mut arena = Tape::new();
        let mut cached: Option<(&RoutingScheme, PathTensors)> = None;
        let mut out = Vec::with_capacity(scenarios.len());
        for sc in scenarios {
            if sc.n_pairs() == 0 {
                out.push(Vec::new());
                continue;
            }
            let hit = matches!(&cached, Some((r, _)) if *r == &sc.routing);
            if !hit {
                cached = Some((&sc.routing, PathTensors::build(sc)));
            }
            #[expect(clippy::expect_used, reason = "cached is installed on miss just above")]
            let index = &cached.as_ref().expect("index cached").1;
            let compiled = self.compile_with_index(sc, index.clone());
            let (preds, returned) = self.predict_batch_compiled_reuse(&[&compiled], arena);
            arena = returned;
            out.extend(preds);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;
    use routenet_netgraph::{NodeId, TrafficMatrix};

    fn tiny_config() -> RouteNetConfig {
        RouteNetConfig {
            link_state_dim: 4,
            path_state_dim: 4,
            readout_hidden: 8,
            t_iterations: 2,
            predict_jitter: true,
            predict_drops: false,
            seed: 1,
        }
    }

    /// Model with a normalizer matching the test scenarios' scales.
    ///
    /// Raw capacities (1e4 bps) fed straight into GRU gates saturate the
    /// sigmoids and zero the gradients, which is exactly why training always
    /// fits a normalizer first; tests must do the same.
    fn tiny_model(cfg: RouteNetConfig) -> RouteNet {
        let mut model = RouteNet::new(cfg);
        model.set_normalizer(crate::features::Normalizer {
            capacity_scale: 10_000.0,
            traffic_scale: 230.0,
            ..crate::features::Normalizer::default()
        });
        model
    }

    fn scenario() -> Scenario {
        let g = nsfnet();
        let routing = shortest_path_routing(&g).unwrap();
        let mut traffic = TrafficMatrix::zeros(g.n_nodes());
        for (s, d) in g.node_pairs() {
            traffic.set_demand(s, d, 100.0 + 10.0 * (s.0 + d.0) as f64);
        }
        Scenario {
            graph: g,
            routing,
            traffic,
        }
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let model = tiny_model(tiny_config());
        let sc = scenario();
        let compiled = model.compile(&sc);
        let mut sess = Session::new(model.store());
        let out = model.forward(&mut sess, &compiled);
        let v = sess.tape.value(out);
        assert_eq!(v.shape(), (14 * 13, 2));
        assert!(v.all_finite());
    }

    #[test]
    fn predictions_cover_all_pairs() {
        let model = tiny_model(tiny_config());
        let sc = scenario();
        let preds = model.predict_scenario(&sc);
        assert_eq!(preds.len(), 14 * 13);
        assert!(preds.iter().all(|p| p.delay_s.is_finite()));
    }

    #[test]
    fn delay_only_head() {
        let cfg = RouteNetConfig {
            predict_jitter: false,
            ..tiny_config()
        };
        let model = tiny_model(cfg);
        assert_eq!(model.out_dim(), 1);
        let preds = model.predict_scenario(&scenario());
        assert!(preds.iter().all(|p| p.jitter_s2.is_nan()));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = tiny_model(tiny_config());
        let b = tiny_model(tiny_config());
        let sc = scenario();
        let pa = a.predict_scenario(&sc);
        let pb = b.predict_scenario(&sc);
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.delay_s, y.delay_s);
        }
        let c = tiny_model(RouteNetConfig {
            seed: 99,
            ..tiny_config()
        });
        let pc = c.predict_scenario(&sc);
        assert!(pa.iter().zip(&pc).any(|(x, y)| x.delay_s != y.delay_s));
    }

    #[test]
    fn output_depends_on_traffic() {
        let model = tiny_model(tiny_config());
        let sc1 = scenario();
        let mut sc2 = scenario();
        // Crank one demand way up.
        sc2.traffic.set_demand(NodeId(0), NodeId(5), 50_000.0);
        let p1 = model.predict_scenario(&sc1);
        let p2 = model.predict_scenario(&sc2);
        assert!(p1.iter().zip(&p2).any(|(a, b)| a.delay_s != b.delay_s));
    }

    #[test]
    fn output_depends_on_routing_structure() {
        // Same traffic, different routing => different predictions.
        let model = tiny_model(tiny_config());
        let sc1 = scenario();
        let mut sc2 = scenario();
        let mut rng = StdRng::seed_from_u64(4);
        sc2.routing =
            routenet_netgraph::routing::randomized_routing(&sc2.graph, 3.0, &mut rng).unwrap();
        let p1 = model.predict_scenario(&sc1);
        let p2 = model.predict_scenario(&sc2);
        assert!(p1.iter().zip(&p2).any(|(a, b)| a.delay_s != b.delay_s));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let model = tiny_model(tiny_config());
        let sc = scenario();
        let compiled = model.compile(&sc);
        let mut sess = Session::new(model.store());
        let out = model.forward(&mut sess, &compiled);
        let target = Tensor::zeros(14 * 13, 2);
        let loss = sess.tape.mse(out, &target);
        let grads = sess.tape.backward(loss);
        let pg = sess.param_grads(&grads);
        // 9 (path gru) + 9 (link gru) + 6 (3-layer readout) = 24 tensors
        assert_eq!(pg.len(), model.store().len());
        for (id, g) in &pg {
            assert!(
                g.norm() > 0.0,
                "parameter {} received zero gradient",
                model.store().name(*id)
            );
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let model = tiny_model(tiny_config());
        let sc = scenario();
        let before = model.predict_scenario(&sc);
        let json = model.to_json();
        let restored = RouteNet::from_json(&json).unwrap();
        let after = restored.predict_scenario(&sc);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.delay_s, b.delay_s);
            assert_eq!(a.jitter_s2, b.jitter_s2);
        }
        assert_eq!(restored.config(), model.config());
    }

    #[test]
    fn works_on_variable_topology_sizes() {
        // The generalization property: one model, graphs of different size.
        let model = tiny_model(tiny_config());
        let mut rng = StdRng::seed_from_u64(8);
        for n in [5usize, 10, 24] {
            let g = routenet_netgraph::generate::synthetic(n, &mut rng);
            let routing = shortest_path_routing(&g).unwrap();
            let mut traffic = TrafficMatrix::zeros(n);
            for (s, d) in g.node_pairs() {
                traffic.set_demand(s, d, 500.0);
            }
            let sc = Scenario {
                graph: g,
                routing,
                traffic,
            };
            let preds = model.predict_scenario(&sc);
            assert_eq!(preds.len(), n * (n - 1));
            assert!(preds.iter().all(|p| p.delay_s.is_finite()));
        }
    }

    #[test]
    fn scenario_routing_no_pairs_predicts_nothing() {
        let model = tiny_model(tiny_config());
        let g = routenet_netgraph::Graph::new("one", 1);
        let routing = shortest_path_routing(&g).unwrap();
        let sc = Scenario {
            graph: g,
            routing,
            traffic: TrafficMatrix::zeros(1),
        };
        assert!(model.predict_scenario(&sc).is_empty());
        let full = scenario();
        let preds = model.predict_batch(&[&sc, &full]);
        assert!(preds[0].is_empty());
        let alone = model.predict_scenario(&full);
        assert_eq!(preds[1].len(), alone.len());
        for (a, b) in preds[1].iter().zip(&alone) {
            assert_eq!(a.delay_s.to_bits(), b.delay_s.to_bits());
        }
    }

    /// The batched forward's tape budget: the fused GRU step and the
    /// in-place row replace record at most 40% of the scalars the reference
    /// forward records, and backward keeps no interior node's gradient.
    #[test]
    fn forward_batch_tape_budget_and_leaf_only_gradients() {
        let model = tiny_model(RouteNetConfig::default());
        let compiled = model.compile(&scenario());
        let mut reference = Session::new(model.store());
        model.forward(&mut reference, &compiled);
        let mut sess = Session::new(model.store());
        let out = model.forward_batch(&mut sess, &BatchedScenario::pack(&[&compiled]));
        let (fused, unfused) = (sess.tape.value_scalars(), reference.tape.value_scalars());
        assert!(
            fused * 10 <= unfused * 4,
            "batched tape holds {fused} scalars, reference {unfused}"
        );
        let loss = sess.tape.mse(out, &Tensor::zeros(14 * 13, 2));
        let grads = sess.tape.backward(loss);
        assert!(grads.get(out).is_none(), "interior gradient kept");
        assert!(grads.get(loss).is_none(), "loss gradient kept");
        let per_sample = sess.param_grads_seg(&grads, 1);
        assert_eq!(per_sample[0].len(), model.store().len());
    }

    #[test]
    fn n_parameters_scales_with_dims() {
        let small = tiny_model(tiny_config());
        let big = RouteNet::new(RouteNetConfig::default());
        assert!(big.n_parameters() > small.n_parameters());
        assert!(small.n_parameters() > 100);
    }
}
