//! Crash-safe minibatch training loop for RouteNet.
//!
//! Mirrors the original implementation's recipe — Adam on a (weighted) MSE
//! over z-scored delay/jitter targets, gradient clipping, multiplicative
//! learning-rate decay, and best-on-validation checkpointing — and wraps it
//! in a durability/recovery layer:
//!
//! * **Atomic checkpoints** ([`TrainConfig::checkpoint_path`]): after every
//!   epoch the complete [`TrainState`] (parameters, Adam moments and step
//!   count, normalizer, shuffle RNG state, loss curve, best snapshot,
//!   recovery trackers) is written through the checksummed atomic writer.
//! * **Deterministic resume** ([`TrainConfig::resume_from`]): a run
//!   continued from a checkpoint produces bit-identical parameters and
//!   loss curve to an uninterrupted run. Each epoch's shuffle is derived
//!   purely from the persisted RNG state, so the stream re-joins exactly.
//! * **Divergence recovery**: a non-finite loss/gradient — or a loss spike
//!   beyond [`TrainConfig::max_spike_factor`] — rolls the run back to the
//!   last good epoch boundary, multiplies the learning rate by
//!   [`TrainConfig::lr_backoff`], and retries, up to
//!   [`TrainConfig::max_rollbacks`] times before giving up with
//!   [`TrainError::Diverged`].
//! * **Cooperative interruption** ([`TrainControl`]): setting the stop flag
//!   (e.g. from a Ctrl-C handler) converts interruption into "checkpoint
//!   the last epoch boundary and return cleanly" instead of data loss.

// A hot path: every bare index must be proven in bounds or replaced by
// `.get()`.
#![deny(clippy::indexing_slicing)]

use crate::batch::BatchedScenario;
use crate::checkpoint::{CheckpointError, TrainState};
use crate::features::Normalizer;
use crate::model::{CompiledScenario, RouteNet};
use crate::par;
use crate::sample::Sample;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use routenet_faults::FsHandle;
use routenet_nn::optim::{clip_global_norm, Adam};
use routenet_nn::{GradAccumulator, Session, Tape, Tensor, Var};
use routenet_obs::{Event, Telemetry};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Samples (graphs) per gradient step.
    pub batch_size: usize,
    /// Initial Adam learning rate.
    pub lr: f64,
    /// Multiplicative LR decay applied after each epoch.
    pub lr_decay: f64,
    /// Global gradient-norm clip.
    pub clip_norm: f64,
    /// Weight of the jitter column in the loss (delay has weight 1).
    pub jitter_weight: f64,
    /// Weight of the drop column in the loss. Drop probabilities live in
    /// [0, 1] while the other targets are z-scored, so a weight > 1
    /// compensates for the smaller scale.
    pub drop_weight: f64,
    /// Regress on log-space targets (aligns MSE with relative error).
    pub log_targets: bool,
    /// Worker threads for within-batch data parallelism: each worker packs
    /// its share of a minibatch into one [`BatchedScenario`] and runs a
    /// single forward/backward over it. Per-sample gradients are reduced in
    /// sample order, so results are bit-identical for any thread count.
    /// 0 = use all available cores; 1 = sequential.
    pub threads: usize,
    /// Minibatch shuffling seed.
    pub shuffle_seed: u64,
    /// Print one line per epoch to stderr.
    pub verbose: bool,
    /// Write an atomic, checksummed [`TrainState`] checkpoint to this path
    /// after every epoch (and at run exit). `None` disables durability.
    pub checkpoint_path: Option<String>,
    /// Resume from a [`TrainState`] checkpoint instead of starting fresh.
    /// The checkpoint's model/trainer configuration must match (see
    /// [`TrainError::IncompatibleResume`]); `epochs` is read from `self`,
    /// so passing a larger value continues the run.
    pub resume_from: Option<String>,
    /// Divergence detection: treat an epoch whose training loss exceeds
    /// `factor * previous_loss` as diverged and roll it back. At epoch 0
    /// the reference is an evaluation pass at the initial parameters.
    /// `None` disables spike detection (non-finite values still recover).
    pub max_spike_factor: Option<f64>,
    /// Multiplier applied to the learning rate on every rollback.
    pub lr_backoff: f64,
    /// Total rollback budget for the run; exceeding it fails the run with
    /// [`TrainError::Diverged`].
    pub max_rollbacks: usize,
    /// Telemetry handle for per-epoch metrics, rollback events, and
    /// checkpoint write latency. Wiring, not configuration: it is skipped
    /// by serde (checkpoints stay byte-compatible) and always compares
    /// equal, so resume compatibility never depends on it.
    #[serde(skip)]
    pub telemetry: Telemetry,
    /// IO seam for checkpoint writes and resume reads. Wiring, not
    /// configuration, exactly like `telemetry`: skipped by serde and always
    /// compares equal. The default is the real filesystem with bounded
    /// exponential-backoff retry of transient errors; chaos tests swap in a
    /// fault-injecting handle.
    #[serde(skip)]
    pub fs: FsHandle,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 25,
            batch_size: 8,
            lr: 2e-3,
            lr_decay: 0.96,
            clip_norm: 5.0,
            jitter_weight: 0.3,
            drop_weight: 4.0,
            log_targets: true,
            threads: 0,
            shuffle_seed: 7,
            verbose: false,
            checkpoint_path: None,
            resume_from: None,
            max_spike_factor: None,
            lr_backoff: 0.5,
            max_rollbacks: 3,
            telemetry: Telemetry::disabled(),
            fs: FsHandle::default(),
        }
    }
}

impl TrainConfig {
    /// Reject a value the trainer cannot run with: a zero `batch_size` or
    /// `epochs`, a non-finite or non-positive `lr`, and so on. [`train`]
    /// calls it first, so a front-end can call it before it creates any
    /// output.
    pub fn validate(&self) -> Result<(), TrainError> {
        let check = |ok: bool, msg: &str| {
            if ok {
                Ok(())
            } else {
                Err(TrainError::InvalidConfig(msg.into()))
            }
        };
        check(self.batch_size >= 1, "batch_size must be >= 1")?;
        check(self.epochs >= 1, "epochs must be >= 1")?;
        check(
            self.lr.is_finite() && self.lr > 0.0,
            "lr must be finite and positive",
        )?;
        check(
            self.clip_norm.is_finite() && self.clip_norm > 0.0,
            "clip_norm must be finite and positive",
        )?;
        check(
            self.jitter_weight.is_finite() && self.jitter_weight >= 0.0,
            "jitter_weight must be finite and non-negative",
        )?;
        check(
            self.drop_weight.is_finite() && self.drop_weight >= 0.0,
            "drop_weight must be finite and non-negative",
        )?;
        check(
            self.lr_decay > 0.0 && self.lr_decay <= 1.0,
            "lr_decay must be in (0, 1]",
        )?;
        check(
            self.lr_backoff > 0.0 && self.lr_backoff < 1.0,
            "lr_backoff must be in (0, 1)",
        )?;
        if let Some(f) = self.max_spike_factor {
            check(
                f.is_finite() && f > 0.0,
                "max_spike_factor must be finite and positive",
            )?;
        }
        Ok(())
    }
}

/// Per-epoch record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Validation loss after the epoch (if a validation set was given).
    pub val_loss: Option<f64>,
    /// Learning rate used during the epoch.
    pub lr: f64,
}

/// Why an epoch was rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DivergenceReason {
    /// A batch / epoch / validation loss went NaN or infinite.
    NonFiniteLoss,
    /// The global gradient norm went NaN or infinite.
    NonFiniteGradient,
    /// The training loss exceeded `max_spike_factor` times the reference.
    LossSpike,
}

impl std::fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceReason::NonFiniteLoss => f.write_str("non-finite loss"),
            DivergenceReason::NonFiniteGradient => f.write_str("non-finite gradient"),
            DivergenceReason::LossSpike => f.write_str("loss spike"),
        }
    }
}

/// One divergence-recovery action taken during training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Epoch that diverged (it was rolled back and retried).
    pub epoch: usize,
    /// What tripped the detector.
    pub reason: DivergenceReason,
    /// Learning rate the failed attempt ran with.
    pub lr_before: f64,
    /// Learning rate after the multiplicative backoff.
    pub lr_after: f64,
}

/// Outcome of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch loss curve (accepted epochs only; rolled-back attempts
    /// appear in `recoveries` instead).
    pub epochs: Vec<EpochStats>,
    /// Epoch with the lowest validation loss (or lowest train loss if no
    /// validation set).
    pub best_epoch: usize,
    /// The best loss value used for model selection.
    pub best_loss: f64,
    /// Divergence-recovery events (rollback + LR backoff) that occurred.
    pub recoveries: Vec<RecoveryEvent>,
    /// True if the run was stopped cooperatively (see [`TrainControl`])
    /// before reaching its epoch target. The model holds the last epoch
    /// boundary's parameters, matching the written checkpoint.
    pub interrupted: bool,
}

/// Typed training failures.
#[derive(Debug)]
pub enum TrainError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// A hyperparameter was out of range.
    InvalidConfig(String),
    /// A training or validation sample failed [`Sample::validate`].
    InvalidSample {
        /// Which set the sample came from: `"train"` or `"val"`.
        set: &'static str,
        /// Position of the sample in that set.
        index: usize,
        /// The validation failure.
        reason: String,
    },
    /// Divergence recovery exhausted its rollback budget. The model holds
    /// the last good parameters, and (when checkpointing is configured)
    /// the last good state was persisted for post-mortem resume.
    Diverged {
        /// Epoch that kept diverging.
        epoch: usize,
        /// Rollbacks consumed before giving up.
        rollbacks: usize,
        /// The final divergence trigger.
        reason: DivergenceReason,
    },
    /// Checkpoint persistence or restore failed.
    Checkpoint(CheckpointError),
    /// A resume checkpoint does not match the model or trainer config.
    IncompatibleResume(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyTrainingSet => f.write_str("training set is empty"),
            TrainError::InvalidConfig(msg) => write!(f, "invalid training config: {msg}"),
            TrainError::InvalidSample { set, index, reason } => {
                write!(f, "invalid {set} sample {index}: {reason}")
            }
            TrainError::Diverged {
                epoch,
                rollbacks,
                reason,
            } => write!(
                f,
                "training diverged at epoch {epoch} ({reason}) after {rollbacks} rollbacks"
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            TrainError::IncompatibleResume(msg) => write!(f, "cannot resume: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Cooperative run control: a shared stop flag checked at batch boundaries.
/// When set (e.g. by a Ctrl-C handler), training discards the partial
/// epoch, writes a checkpoint of the last epoch boundary (when configured),
/// and returns cleanly with [`TrainReport::interrupted`] set.
#[derive(Debug, Clone, Default)]
pub struct TrainControl {
    stop: Arc<AtomicBool>,
}

impl TrainControl {
    /// A control whose flag is not set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing shared flag (e.g. one a signal handler sets).
    pub fn with_flag(stop: Arc<AtomicBool>) -> Self {
        TrainControl { stop }
    }

    /// The shared flag, for handing to a signal handler or another thread.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Ask the run to stop at the next batch boundary.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// True once a stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// One pre-compiled training item.
struct Item {
    compiled: CompiledScenario,
    /// Column-weighted normalized target (matches the model's out_dim).
    target: Tensor,
    /// Column weights applied to predictions before the MSE.
    col_weights: Tensor,
}

fn compile_items(
    model: &RouteNet,
    samples: &[Sample],
    jitter_weight: f64,
    drop_weight: f64,
) -> Vec<Item> {
    let out_dim = model.out_dim();
    let jitter_col = model.jitter_col();
    let drop_col = model.drop_col();
    samples
        .iter()
        .map(|s| {
            let compiled = model.compile(&s.scenario);
            let z = model.normalizer().normalize_targets(&s.targets);
            let n = s.targets.len();
            let jw = jitter_weight.sqrt();
            let dw = drop_weight.sqrt();
            // Rows with zero true delay are unobserved flows (the simulator
            // saw no packet): mask them out of the loss entirely.
            let observed: Vec<bool> = s.targets.iter().map(|t| t.delay_s > 0.0).collect();
            let target = Tensor::from_fn(n, out_dim, |r, c| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "r < n == targets.len() == observed.len()"
                )]
                if !observed[r] {
                    0.0
                } else if c == 0 {
                    z.get(r, 0)
                } else if Some(c) == jitter_col {
                    z.get(r, 1) * jw
                } else {
                    // Drop head: raw probability (already in [0, 1]).
                    s.targets[r].drop_prob * dw
                }
            });
            let col_weights = Tensor::from_fn(n, out_dim, |r, c| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "r < n == targets.len() == observed.len()"
                )]
                if !observed[r] {
                    0.0
                } else if c == 0 {
                    1.0
                } else if Some(c) == drop_col {
                    dw
                } else {
                    jw
                }
            });
            Item {
                compiled,
                target,
                col_weights,
            }
        })
        .collect()
}

/// One sample's loss value and parameter gradients.
type SampleGrad = (f64, Vec<(routenet_nn::ParamId, Tensor)>);

/// Row-concatenate the column weights and targets of `sub`'s items, in
/// order — the loss-side counterpart of [`BatchedScenario::pack`].
fn stack_loss_tensors(items: &[Item], sub: &[usize]) -> (Arc<Tensor>, Tensor) {
    let mut rows = 0usize;
    let mut cols = 0usize;
    #[expect(
        clippy::indexing_slicing,
        reason = "sub indices are minted from 0..items.len() by the batch scheduler"
    )]
    for &i in sub {
        rows += items[i].target.rows();
        cols = items[i].target.cols();
    }
    let mut wdata = Vec::with_capacity(rows * cols);
    let mut tdata = Vec::with_capacity(rows * cols);
    #[expect(
        clippy::indexing_slicing,
        reason = "sub indices are minted from 0..items.len() by the batch scheduler"
    )]
    for &i in sub {
        wdata.extend_from_slice(items[i].col_weights.data());
        tdata.extend_from_slice(items[i].target.data());
    }
    (
        Arc::new(Tensor::from_vec(rows, cols, wdata)),
        Tensor::from_vec(rows, cols, tdata),
    )
}

/// Pack the items selected by `sub` into one [`BatchedScenario`], run the
/// batched forward on `sess` and return the weighted per-sample loss node
/// with its values: row `s` is the loss of `sub[s]`, independent of what
/// else is packed with it.
fn packed_sub_loss(
    model: &RouteNet,
    items: &[Item],
    sub: &[usize],
    sess: &mut Session,
) -> (Var, Vec<f64>) {
    #[expect(
        clippy::indexing_slicing,
        reason = "sub indices are minted from 0..items.len() by the batch scheduler"
    )]
    let compiled: Vec<&CompiledScenario> = sub.iter().map(|&i| &items[i].compiled).collect();
    let batch = BatchedScenario::pack(&compiled);
    let (weights, targets) = stack_loss_tensors(items, sub);
    let out = model.forward_batch(sess, &batch);
    let weighted = sess.tape.mul_const_shared(out, &weights);
    let seg_loss = sess.tape.seg_mse(weighted, &targets, batch.path_seg());
    let losses = (0..sub.len())
        .map(|s| sess.tape.value(seg_loss).get(s, 0))
        .collect();
    (seg_loss, losses)
}

/// One packed forward/backward over the items selected by `sub`, replayed
/// into the arena tape `arena`. A non-finite loss or gradient is returned
/// as-is (the tape tracks poisoning instead of asserting); the epoch loop
/// treats it as divergence and rolls back to the last good state. Returns
/// per-sample `(loss, grads)` in `sub` order.
fn batched_sub_losses(
    model: &RouteNet,
    items: &[Item],
    sub: &[usize],
    arena: &mut Tape,
) -> Vec<SampleGrad> {
    let mut sess = Session::with_tape(model.store(), std::mem::take(arena));
    let (seg_loss, losses) = packed_sub_loss(model, items, sub, &mut sess);
    let total = sess.tape.sum_all(seg_loss);
    let grads = sess.tape.backward(total);
    let per_sample = sess.param_grads_seg(&grads, sub.len());
    *arena = sess.into_tape();
    losses.into_iter().zip(per_sample).collect()
}

/// Forward-only per-item loss values for all of `items` in index order,
/// computed in packed chunks of `batch_size` on the arena tape `arena`.
fn batched_loss_values(
    model: &RouteNet,
    items: &[Item],
    batch_size: usize,
    arena: &mut Tape,
) -> Vec<f64> {
    let idx: Vec<usize> = (0..items.len()).collect();
    let mut out = Vec::with_capacity(items.len());
    for sub in idx.chunks(batch_size.max(1)) {
        let mut sess = Session::with_tape(model.store(), std::mem::take(arena));
        let (_, losses) = packed_sub_loss(model, items, sub, &mut sess);
        *arena = sess.into_tape();
        out.extend_from_slice(&losses);
    }
    out
}

/// Reject malformed samples up front — e.g. a scenario that routes no
/// pairs, which would leave an empty loss segment — as a typed error.
fn validate_samples(set: &'static str, samples: &[Sample]) -> Result<(), TrainError> {
    for (index, s) in samples.iter().enumerate() {
        s.validate()
            .map_err(|reason| TrainError::InvalidSample { set, index, reason })?;
    }
    Ok(())
}

/// The fields of [`TrainConfig`] that determine the numeric trajectory of a
/// run must match between the checkpoint and the resuming call; otherwise
/// the resumed run would silently differ from the uninterrupted one.
/// `epochs`, `threads`, `verbose`, and the checkpoint/resume paths are free
/// to change.
#[expect(
    clippy::float_cmp,
    reason = "a resumed run must match the checkpoint bit for bit, so float fields compare exactly"
)]
fn check_resume_compat(saved: &TrainConfig, cur: &TrainConfig) -> Result<(), TrainError> {
    macro_rules! require_eq {
        ($field:ident) => {
            if saved.$field != cur.$field {
                return Err(TrainError::IncompatibleResume(format!(
                    "config field `{}` differs from the checkpoint ({:?} vs {:?})",
                    stringify!($field),
                    saved.$field,
                    cur.$field
                )));
            }
        };
    }
    require_eq!(batch_size);
    require_eq!(lr);
    require_eq!(lr_decay);
    require_eq!(clip_norm);
    require_eq!(jitter_weight);
    require_eq!(drop_weight);
    require_eq!(log_targets);
    require_eq!(shuffle_seed);
    require_eq!(max_spike_factor);
    require_eq!(lr_backoff);
    require_eq!(max_rollbacks);
    Ok(())
}

/// Persist `state` through the atomic checkpoint writer (routed through the
/// config's IO seam), timing the write and emitting an
/// [`Event::CheckpointWrite`] record when telemetry is on.
fn save_checkpoint(
    state: &TrainState,
    path: &str,
    fs: &FsHandle,
    tel: &Telemetry,
) -> Result<(), TrainError> {
    let t0 = tel.enabled().then(Instant::now);
    state.save_with(fs.fs(), Path::new(path))?;
    if let Some(t0) = t0 {
        let write_s = t0.elapsed().as_secs_f64();
        let bytes = fs.metadata_len(Path::new(path)).unwrap_or(0);
        tel.emit(Event::CheckpointWrite {
            epoch: state.epoch_next,
            bytes,
            write_s,
        });
        tel.observe_s("train.checkpoint_write_s", write_s);
    }
    Ok(())
}

/// Install a snapshot's model-facing pieces back into the live run.
fn install_state(state: &TrainState, model: &mut RouteNet, opt: &mut Adam, rng: &mut StdRng) {
    *model.store_mut() = state.params.clone();
    *opt = state.opt.clone();
    *rng = StdRng::from_state(state.rng);
}

/// Train `model` on `train_set`, monitoring `val_set` (may be empty).
///
/// Fits the normalizer on `train_set`, then runs minibatch Adam. The
/// parameters of the best epoch (by validation loss, or by training loss
/// when `val_set` is empty) are restored before returning.
/// See the module docs for checkpointing, resume, and divergence recovery.
#[must_use = "dropping the report hides training divergence and interruption diagnostics"]
pub fn train(
    model: &mut RouteNet,
    train_set: &[Sample],
    val_set: &[Sample],
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    train_with_control(model, train_set, val_set, cfg, &TrainControl::new())
}

/// [`train`] with an explicit [`TrainControl`] for cooperative interruption.
#[must_use = "dropping the report hides training divergence and interruption diagnostics"]
pub fn train_with_control(
    model: &mut RouteNet,
    train_set: &[Sample],
    val_set: &[Sample],
    cfg: &TrainConfig,
    control: &TrainControl,
) -> Result<TrainReport, TrainError> {
    cfg.validate()?;
    if train_set.is_empty() {
        return Err(TrainError::EmptyTrainingSet);
    }
    validate_samples("train", train_set)?;
    validate_samples("val", val_set)?;

    // ---- establish the starting state (fresh or resumed) ----------------
    // `state` is always the last good epoch boundary: the rollback target
    // for divergence recovery and the payload of every checkpoint write.
    let mut state: TrainState = match &cfg.resume_from {
        Some(path) => {
            let st = TrainState::load_with(cfg.fs.fs(), Path::new(path))?;
            if st.model_config != *model.config() {
                return Err(TrainError::IncompatibleResume(
                    "checkpoint was trained with a different model architecture".into(),
                ));
            }
            check_resume_compat(&st.train_config, cfg)?;
            model.set_normalizer(st.norm.clone());
            st
        }
        None => {
            model.set_normalizer(Normalizer::fit_with(train_set, cfg.log_targets));
            TrainState::new(
                model.config().clone(),
                cfg.clone(),
                model.store().clone(),
                model.normalizer().clone(),
                Adam::new(model.store(), cfg.lr),
                StdRng::seed_from_u64(cfg.shuffle_seed).state(),
            )
        }
    };
    // Keep the persisted config in sync with the caller's (resume paths,
    // epoch targets etc. may legitimately change between sessions).
    state.train_config = cfg.clone();

    let train_items = compile_items(model, train_set, cfg.jitter_weight, cfg.drop_weight);
    let val_items = compile_items(model, val_set, cfg.jitter_weight, cfg.drop_weight);

    let mut opt = state.opt.clone();
    let mut rng = StdRng::from_state(state.rng);
    *model.store_mut() = state.params.clone();

    // One-shot cost probe: the autodiff-graph footprint of a single sample's
    // forward pass (a batch of one). Per-sample tape size dominates the
    // trainer's time and memory, so the summary table reports it alongside
    // throughput.
    if cfg.telemetry.enabled() {
        if let Some(item) = train_items.first() {
            let mut sess = Session::new(model.store());
            let _probe = model.forward_batch(&mut sess, &BatchedScenario::pack(&[&item.compiled]));
            cfg.telemetry
                .gauge_set("train.tape_nodes_per_sample", sess.tape.len() as f64);
            cfg.telemetry.gauge_set(
                "train.tape_scalars_per_sample",
                sess.tape.value_scalars() as f64,
            );
            cfg.telemetry
                .gauge_set("train.param_scalars", model.store().n_scalars() as f64);
            cfg.telemetry
                .gauge_set("train.samples", train_set.len() as f64);
        }
    }

    // Arena story: one tape per training worker plus one for evaluation
    // passes, all owned here so their buffer pools persist across batches
    // and epochs — once a pool holds buffers for the largest minibatch,
    // forward values come from it (best fit, see `Tape::reset`); backward
    // partials are still allocated per pass, and `tests/alloc_counts.rs`
    // pins the count per epoch and that arena misses stop. Worker `w` of
    // `par::strided_map` replays into `arenas[w]`, so the arena a sub-batch
    // replays into is deterministic.
    let mut arenas: Vec<Tape> = (0..par::resolve_threads(cfg.threads))
        .map(|_| Tape::new())
        .collect();
    let mut eval_arena = Tape::new();

    // Spike-detection reference: the last accepted epoch's training loss,
    // or (for a fresh run with detection enabled) an evaluation pass over
    // the training set at the initial parameters.
    let mut spike_ref: Option<f64> = state.epochs.last().map(|e| e.train_loss);
    if spike_ref.is_none() && cfg.max_spike_factor.is_some() {
        let losses = batched_loss_values(model, &train_items, cfg.batch_size, &mut eval_arena);
        spike_ref = Some(losses.iter().sum::<f64>() / train_items.len() as f64);
    }

    let mut order: Vec<usize> = (0..train_items.len()).collect();
    let mut epoch = state.epoch_next;
    let mut interrupted = control.stop_requested();
    // Whether this call has written `state` as it stands now, so the exit
    // checkpoint below is skipped when it would rewrite the same bytes.
    let mut state_saved = false;

    'epochs: while epoch < cfg.epochs && !interrupted {
        // The shuffle depends only on the persisted RNG state (the order is
        // reset to identity first), so rollback and resume replay it.
        order.sort_unstable();
        order.shuffle(&mut rng);
        let epoch_t0 = cfg.telemetry.enabled().then(Instant::now);
        let mut epoch_loss = 0.0;
        let mut grad_norm_sum = 0.0;
        let mut batches = 0usize;
        let mut diverged: Option<DivergenceReason> = None;
        for chunk in order.chunks(cfg.batch_size) {
            if control.stop_requested() {
                interrupted = true;
                break;
            }
            let mut acc = GradAccumulator::new(model.store());
            let mut batch_loss = 0.0;
            // Worker w packs its strided share of the chunk into one
            // forward/backward; the results come back in chunk order, so
            // the reduction below is byte-identical at any thread count.
            let per_sample = par::strided_map(chunk, &mut arenas, |sub, arena| {
                batched_sub_losses(model, &train_items, sub, arena)
            });
            for (l, pg) in per_sample {
                batch_loss += l;
                acc.add(&pg);
            }
            if !batch_loss.is_finite() {
                diverged = Some(DivergenceReason::NonFiniteLoss);
                break;
            }
            let mut mean_grads = acc.take_mean();
            let grad_norm = clip_global_norm(&mut mean_grads, cfg.clip_norm);
            if !grad_norm.is_finite() {
                diverged = Some(DivergenceReason::NonFiniteGradient);
                break;
            }
            opt.step(model.store_mut(), &mean_grads);
            epoch_loss += batch_loss / chunk.len() as f64;
            grad_norm_sum += grad_norm;
            batches += 1;
        }
        if interrupted {
            // Discard the partial epoch: restore the boundary so the model,
            // the report, and the checkpoint all agree.
            install_state(&state, model, &mut opt, &mut rng);
            break 'epochs;
        }
        let train_loss = epoch_loss / batches.max(1) as f64;
        if diverged.is_none() && !train_loss.is_finite() {
            diverged = Some(DivergenceReason::NonFiniteLoss);
        }
        let val_loss = if diverged.is_some() || val_items.is_empty() {
            None
        } else {
            let losses = batched_loss_values(model, &val_items, cfg.batch_size, &mut eval_arena);
            Some(losses.iter().sum::<f64>() / val_items.len() as f64)
        };
        if diverged.is_none() {
            if let Some(v) = val_loss {
                if !v.is_finite() {
                    diverged = Some(DivergenceReason::NonFiniteLoss);
                }
            }
        }
        if diverged.is_none() {
            if let (Some(factor), Some(reference)) = (cfg.max_spike_factor, spike_ref) {
                if train_loss > factor * reference {
                    diverged = Some(DivergenceReason::LossSpike);
                }
            }
        }

        if let Some(reason) = diverged {
            // ---- rollback to the last good boundary + LR backoff --------
            let lr_before = state.opt.lr;
            if state.rollbacks >= cfg.max_rollbacks {
                install_state(&state, model, &mut opt, &mut rng);
                if let Some(path) = &cfg.checkpoint_path {
                    save_checkpoint(&state, path, &cfg.fs, &cfg.telemetry)?;
                }
                return Err(TrainError::Diverged {
                    epoch,
                    rollbacks: state.rollbacks,
                    reason,
                });
            }
            state.rollbacks += 1;
            state.opt.lr *= cfg.lr_backoff;
            state.recoveries.push(RecoveryEvent {
                epoch,
                reason,
                lr_before,
                lr_after: state.opt.lr,
            });
            if cfg.telemetry.enabled() {
                cfg.telemetry.counter_add("train.rollbacks", 1);
                cfg.telemetry.emit(Event::Rollback {
                    epoch,
                    reason: reason.to_string(),
                    lr_before,
                    lr_after: state.opt.lr,
                });
            }
            state_saved = false;
            install_state(&state, model, &mut opt, &mut rng);
            if cfg.verbose {
                eprintln!(
                    "epoch {epoch:3}  DIVERGED ({reason}); rollback {}/{} with lr {:.2e} -> {:.2e}",
                    state.rollbacks, cfg.max_rollbacks, lr_before, state.opt.lr
                );
            }
            continue 'epochs; // retry the same epoch index
        }

        // ---- accepted epoch: advance trackers and the boundary ----------
        let selection = val_loss.unwrap_or(train_loss);
        if selection < state.best_loss() {
            state.set_best_loss(selection);
            state.best_epoch = epoch;
            // Reuse the previous snapshot's buffers: after the first
            // improvement this copies in place instead of reallocating.
            match &mut state.best_params {
                Some(best) => best.copy_from(model.store()),
                None => state.best_params = Some(model.store().clone()),
            }
        }
        if cfg.verbose {
            match val_loss {
                Some(v) => eprintln!(
                    "epoch {epoch:3}  train {train_loss:.5}  val {v:.5}  lr {:.2e}",
                    opt.lr
                ),
                None => eprintln!(
                    "epoch {epoch:3}  train {train_loss:.5}  val -  lr {:.2e}",
                    opt.lr
                ),
            }
        }
        state.epochs.push(EpochStats {
            epoch,
            train_loss,
            val_loss,
            lr: opt.lr,
        });
        if let Some(t0) = epoch_t0 {
            let wall = t0.elapsed().as_secs_f64();
            cfg.telemetry.emit(Event::Epoch {
                epoch,
                train_loss,
                val_loss,
                lr: opt.lr,
                grad_norm: grad_norm_sum / batches.max(1) as f64,
                samples_per_s: train_items.len() as f64 / wall.max(1e-9),
            });
            cfg.telemetry.counter_add("train.epochs", 1);
            cfg.telemetry.observe_s("train.epoch_s", wall);
        }
        opt.lr *= cfg.lr_decay;
        spike_ref = Some(train_loss);

        state.params.copy_from(model.store());
        state.opt.copy_state_from(&opt);
        state.rng = rng.state();
        state.epoch_next = epoch + 1;

        if let Some(path) = &cfg.checkpoint_path {
            save_checkpoint(&state, path, &cfg.fs, &cfg.telemetry)?;
            state_saved = true;
        }
        epoch += 1;
    }

    // Arena telemetry: high-water tape footprint across all worker and
    // eval arenas, plus how often a pass was served from recycled buffers.
    // Steady-state health check: hits should dwarf misses after epoch one.
    if cfg.telemetry.enabled() {
        let tapes = arenas.iter().chain(std::iter::once(&eval_arena));
        let mut max_nodes = 0usize;
        let mut max_scalars = 0usize;
        let mut hits = 0u64;
        let mut misses = 0u64;
        for t in tapes {
            max_nodes = max_nodes.max(t.max_nodes());
            max_scalars = max_scalars.max(t.max_scalars());
            hits += t.reuse_hits();
            misses += t.reuse_misses();
        }
        cfg.telemetry
            .gauge_set("train.tape_max_nodes", max_nodes as f64);
        cfg.telemetry
            .gauge_set("train.tape_max_scalars", max_scalars as f64);
        cfg.telemetry.counter_add("train.arena_reuse_hits", hits);
        cfg.telemetry
            .counter_add("train.arena_reuse_misses", misses);
    }

    // A final checkpoint at run exit (normal completion or interruption) so
    // the on-disk state always matches the returned run. A completed epoch
    // has already written it unless a rollback changed it since.
    if !state_saved {
        if let Some(path) = &cfg.checkpoint_path {
            save_checkpoint(&state, path, &cfg.fs, &cfg.telemetry)?;
        }
    }

    let report = TrainReport {
        epochs: state.epochs.clone(),
        best_epoch: state.best_epoch,
        best_loss: state.best_loss(),
        recoveries: state.recoveries.clone(),
        interrupted,
    };
    // Restore the best parameters only for completed runs; an interrupted
    // run leaves the model at the checkpointed boundary so disk and memory
    // agree (the best snapshot itself is inside the checkpoint).
    if !interrupted {
        if let Some(best) = &state.best_params {
            *model.store_mut() = best.clone();
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RouteNetConfig;
    use crate::sample::{Scenario, TargetKpi};
    use routenet_netgraph::generate;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_simnet::queueing::Mm1Network;

    /// Tiny synthetic dataset whose labels come from the M/M/1 model — fast
    /// to generate and perfectly learnable.
    fn mm1_dataset(n_samples: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::ring(5);
        let routing = shortest_path_routing(&g).unwrap();
        (0..n_samples)
            .map(|i| {
                let tm = routenet_netgraph::traffic::sample_traffic_matrix(
                    &g,
                    &routing,
                    &routenet_netgraph::TrafficModel::Uniform { min_frac: 0.2 },
                    0.3 + 0.4 * (i as f64 / n_samples.max(1) as f64),
                    &mut rng,
                );
                let net = Mm1Network::build(&g, &routing, &tm, 1_000.0);
                let targets: Vec<TargetKpi> = net
                    .predict_all(&routing)
                    .into_iter()
                    .map(|p| TargetKpi {
                        delay_s: p.mean_delay_s,
                        jitter_s2: p.jitter_s2,
                        drop_prob: 0.0,
                    })
                    .collect();
                Sample {
                    scenario: Scenario {
                        graph: g.clone(),
                        routing: routing.clone(),
                        traffic: tm,
                    },
                    targets,
                    topology: "Ring-5".into(),
                    intensity: 0.5,
                    seed: i as u64,
                }
            })
            .collect()
    }

    fn tiny_model() -> RouteNet {
        RouteNet::new(RouteNetConfig {
            link_state_dim: 8,
            path_state_dim: 8,
            readout_hidden: 16,
            t_iterations: 3,
            predict_jitter: true,
            predict_drops: false,
            seed: 3,
        })
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rn-trainer-{tag}-{}.ckpt", std::process::id()))
    }

    #[test]
    fn training_reduces_loss() {
        let data = mm1_dataset(24, 1);
        let (train_set, val_set) = data.split_at(20);
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 4,
            lr: 5e-3,
            verbose: false,
            ..TrainConfig::default()
        };
        let report = train(&mut model, train_set, val_set, &cfg).unwrap();
        assert_eq!(report.epochs.len(), 12);
        assert!(!report.interrupted);
        assert!(report.recoveries.is_empty());
        let first = report.epochs.first().unwrap().train_loss;
        let last = report.epochs.last().unwrap().train_loss;
        assert!(last < first * 0.5, "loss did not halve: {first} -> {last}");

        // After training on MM1 labels, predictions should correlate with
        // the truth on validation data.
        let preds: Vec<f64> = val_set
            .iter()
            .flat_map(|s| {
                model
                    .predict_scenario(&s.scenario)
                    .into_iter()
                    .map(|p| p.delay_s)
            })
            .collect();
        let truths: Vec<f64> = val_set
            .iter()
            .flat_map(|s| s.targets.iter().map(|t| t.delay_s))
            .collect();
        let r = crate::metrics::pearson(&preds, &truths);
        assert!(r > 0.8, "validation correlation too low: {r}");
    }

    #[test]
    fn training_restores_best_epoch() {
        let data = mm1_dataset(8, 2);
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 4,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data[..6], &data[6..], &cfg).unwrap();
        // The restored parameters must reproduce the best validation loss.
        let items = compile_items(&model, &data[6..], cfg.jitter_weight, cfg.drop_weight);
        let losses = batched_loss_values(&model, &items, cfg.batch_size, &mut Tape::new());
        let val = losses.iter().sum::<f64>() / items.len() as f64;
        assert!(
            (val - report.best_loss).abs() < 1e-9,
            "restored val {val} != best {}",
            report.best_loss
        );
    }

    #[test]
    fn report_tracks_lr_decay() {
        let data = mm1_dataset(4, 3);
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 2,
            lr: 1e-3,
            lr_decay: 0.5,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data, &[], &cfg).unwrap();
        assert!((report.epochs[0].lr - 1e-3).abs() < 1e-15);
        assert!((report.epochs[1].lr - 5e-4).abs() < 1e-15);
        assert!((report.epochs[2].lr - 2.5e-4).abs() < 1e-15);
        assert!(report.epochs.iter().all(|e| e.val_loss.is_none()));
    }

    #[test]
    fn parallel_training_is_bit_identical_to_sequential() {
        let data = mm1_dataset(10, 6);
        // The returned model holds the best epoch's parameters; the
        // checkpoint holds the last epoch's, so both are compared.
        let train_once = |threads: usize| {
            let path = tmp_path(&format!("parallel-{threads}"));
            let mut model = tiny_model();
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: 5,
                threads,
                checkpoint_path: Some(path.to_string_lossy().into_owned()),
                ..TrainConfig::default()
            };
            let report = train(&mut model, &data[..8], &data[8..], &cfg).unwrap();
            let last = TrainState::load(&path).unwrap().params;
            std::fs::remove_file(&path).ok();
            (model.store().clone(), last, report.epochs)
        };
        let (seq_best, seq_last, seq_curve) = train_once(1);
        let (par_best, par_last, par_curve) = train_once(4);
        assert_eq!(seq_best, par_best, "thread count changed the best params");
        assert_eq!(seq_last, par_last, "thread count changed the last params");
        assert_eq!(seq_curve, par_curve, "thread count changed the loss curve");
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let mut model = tiny_model();
        let err = train(&mut model, &[], &[], &TrainConfig::default()).unwrap_err();
        assert!(
            matches!(err, TrainError::EmptyTrainingSet),
            "expected EmptyTrainingSet, got {err:?}"
        );
    }

    #[test]
    fn sample_routing_no_pairs_is_an_error() {
        let g = routenet_netgraph::Graph::new("one", 1);
        let routing = shortest_path_routing(&g).unwrap();
        let empty = Sample {
            scenario: Scenario {
                graph: g,
                routing,
                traffic: routenet_netgraph::TrafficMatrix::zeros(1),
            },
            targets: Vec::new(),
            topology: "one".into(),
            intensity: 0.5,
            seed: 0,
        };
        let data = mm1_dataset(2, 8);
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let train_set = [data[0].clone(), empty.clone()];
        let err = train(&mut model, &train_set, &[], &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::InvalidSample {
                    set: "train",
                    index: 1,
                    ..
                }
            ),
            "got {err:?}"
        );
        let err = train(&mut model, &data, &[empty], &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::InvalidSample {
                    set: "val",
                    index: 0,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn invalid_config_is_an_error() {
        let data = mm1_dataset(2, 8);
        let base = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let bad = [
            TrainConfig {
                batch_size: 0,
                ..base.clone()
            },
            TrainConfig {
                lr: f64::INFINITY,
                ..base.clone()
            },
            TrainConfig {
                clip_norm: 0.0,
                ..base.clone()
            },
            TrainConfig {
                clip_norm: f64::NAN,
                ..base.clone()
            },
            TrainConfig {
                jitter_weight: -1.0,
                ..base.clone()
            },
            TrainConfig {
                jitter_weight: f64::NAN,
                ..base.clone()
            },
            TrainConfig {
                drop_weight: -0.5,
                ..base.clone()
            },
            TrainConfig {
                drop_weight: f64::INFINITY,
                ..base.clone()
            },
        ];
        for cfg in &bad {
            let mut model = tiny_model();
            let err = train(&mut model, &data, &[], cfg).unwrap_err();
            assert!(matches!(err, TrainError::InvalidConfig(_)), "got {err:?}");
        }
    }

    #[test]
    fn nan_divergence_rolls_back_and_recovers() {
        let data = mm1_dataset(6, 9);
        let mut model = tiny_model();
        // An absurd learning rate explodes the parameters to non-finite
        // territory within the first epoch; the backoff is sized so that a
        // single rollback lands on a sane rate and training proceeds.
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 3,
            lr: 1e160,
            lr_backoff: 1e-163,
            max_rollbacks: 3,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data[..4], &data[4..], &cfg).unwrap();
        assert!(
            !report.recoveries.is_empty(),
            "expected at least one rollback"
        );
        let rec = report.recoveries[0];
        assert!(rec.lr_after < rec.lr_before);
        assert_eq!(rec.epoch, 0);
        assert_eq!(
            report.epochs.len(),
            3,
            "run did not complete after recovery"
        );
        assert!(
            report.epochs.iter().all(|e| e.train_loss.is_finite()),
            "accepted epochs must have finite losses"
        );
        // The recovered run trains at the backed-off rate.
        assert!(report.epochs[0].lr < 1.0);
    }

    #[test]
    fn divergence_budget_exhaustion_is_an_error() {
        let data = mm1_dataset(4, 10);
        let mut model = tiny_model();
        // Backoff of 0.9 keeps the rate absurd, so every retry diverges
        // again until the budget runs out.
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 2,
            lr: 1e160,
            lr_backoff: 0.9,
            max_rollbacks: 2,
            ..TrainConfig::default()
        };
        let err = train(&mut model, &data, &[], &cfg).unwrap_err();
        match err {
            TrainError::Diverged {
                epoch, rollbacks, ..
            } => {
                assert_eq!(epoch, 0);
                assert_eq!(rollbacks, 2);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn loss_spike_detection_trips_and_reports() {
        let data = mm1_dataset(4, 11);
        let mut model = tiny_model();
        // With a spike factor far below 1 and a learning rate too small to
        // improve anything, every epoch reads as a spike over the initial
        // evaluation baseline and the budget drains.
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 2,
            lr: 1e-12,
            max_spike_factor: Some(1e-12),
            max_rollbacks: 1,
            ..TrainConfig::default()
        };
        let err = train(&mut model, &data, &[], &cfg).unwrap_err();
        match err {
            TrainError::Diverged { reason, .. } => {
                assert_eq!(reason, DivergenceReason::LossSpike);
            }
            other => panic!("expected Diverged(LossSpike), got {other:?}"),
        }
    }

    #[test]
    fn checkpointing_writes_a_loadable_state() {
        let data = mm1_dataset(5, 12);
        let path = tmp_path("loadable");
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 2,
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data[..4], &data[4..], &cfg).unwrap();
        let state = TrainState::load(&path).unwrap();
        assert_eq!(state.epoch_next, 2);
        assert_eq!(state.epochs.len(), report.epochs.len());
        assert_eq!(state.best_epoch, report.best_epoch);
        // The snapshot carries the best params, so into_model() reproduces
        // the returned model exactly.
        let restored = state.into_model().unwrap();
        assert_eq!(restored.store(), model.store());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn completed_run_writes_one_checkpoint_per_epoch() {
        let data = mm1_dataset(5, 12);
        let path = tmp_path("one-per-epoch");
        let tel = Telemetry::in_memory("core", "test");
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 2,
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            telemetry: tel.clone(),
            ..TrainConfig::default()
        };
        train(&mut model, &data[..4], &data[4..], &cfg).unwrap();
        let writes: Vec<usize> = tel
            .records()
            .iter()
            .filter_map(|r| match r.event {
                Event::CheckpointWrite { epoch, .. } => Some(epoch),
                _ => None,
            })
            .collect();
        // The last epoch's write is the exit state: no second write of it.
        assert_eq!(writes, vec![1, 2]);
        assert_eq!(TrainState::load(&path).unwrap().epoch_next, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_stopped_control_checkpoints_and_exits_cleanly() {
        let data = mm1_dataset(4, 13);
        let path = tmp_path("interrupt");
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 2,
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..TrainConfig::default()
        };
        let control = TrainControl::new();
        control.request_stop();
        let tel = Telemetry::in_memory("core", "test");
        let cfg = TrainConfig {
            telemetry: tel.clone(),
            ..cfg
        };
        let report = train_with_control(&mut model, &data, &[], &cfg, &control).unwrap();
        assert!(report.interrupted);
        assert!(report.epochs.is_empty());
        let writes = tel
            .records()
            .iter()
            .filter(|r| r.event.kind() == "CheckpointWrite")
            .count();
        assert_eq!(writes, 1);
        // The checkpoint exists and resumes from epoch 0.
        let state = TrainState::load(&path).unwrap();
        assert_eq!(state.epoch_next, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted_run() {
        let data = mm1_dataset(10, 14);
        let (train_set, val_set) = data.split_at(8);
        let path = tmp_path("resume");

        // Uninterrupted: 4 epochs straight.
        let mut full = tiny_model();
        let cfg4 = TrainConfig {
            epochs: 4,
            batch_size: 3,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        let full_report = train(&mut full, train_set, val_set, &cfg4).unwrap();

        // Interrupted: 2 epochs with a checkpoint, then resume for 2 more.
        let mut half = tiny_model();
        let cfg2 = TrainConfig {
            epochs: 2,
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..cfg4.clone()
        };
        train(&mut half, train_set, val_set, &cfg2).unwrap();
        let mut resumed = tiny_model();
        let cfg_resume = TrainConfig {
            epochs: 4,
            resume_from: Some(path.to_string_lossy().into_owned()),
            checkpoint_path: None,
            ..cfg4.clone()
        };
        let resumed_report = train(&mut resumed, train_set, val_set, &cfg_resume).unwrap();

        // Bit-identical: parameters and the full loss curve.
        assert_eq!(full.store(), resumed.store());
        assert_eq!(full_report.epochs, resumed_report.epochs);
        assert_eq!(full_report.best_epoch, resumed_report.best_epoch);
        assert_eq!(
            full_report.best_loss.to_bits(),
            resumed_report.best_loss.to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn old_checkpoints_with_batched_field_resume_bit_identically() {
        // Checkpoints written while `TrainConfig` still carried the
        // execution-mode knob `batched` must load (the field is ignored) and
        // resume onto the same trajectory as an uninterrupted run.
        let data = mm1_dataset(10, 15);
        let (train_set, val_set) = data.split_at(8);
        let path = tmp_path("resume_batched_field");
        let cfg4 = TrainConfig {
            epochs: 4,
            batch_size: 3,
            lr: 5e-3,
            ..TrainConfig::default()
        };
        let mut full = tiny_model();
        let full_report = train(&mut full, train_set, val_set, &cfg4).unwrap();

        for old_value in ["true", "false"] {
            let mut half = tiny_model();
            let cfg2 = TrainConfig {
                epochs: 2,
                checkpoint_path: Some(path.to_string_lossy().into_owned()),
                ..cfg4.clone()
            };
            train(&mut half, train_set, val_set, &cfg2).unwrap();
            let payload =
                crate::checkpoint::read_checksummed_with(&routenet_faults::RealFs, &path).unwrap();
            let json = String::from_utf8(payload).unwrap();
            let old = json.replacen(
                "\"shuffle_seed\":",
                &format!("\"batched\":{old_value},\"shuffle_seed\":"),
                1,
            );
            assert_ne!(json, old, "expected a train_config to extend");
            crate::checkpoint::write_checksummed_with(
                &routenet_faults::RealFs,
                &path,
                old.as_bytes(),
            )
            .unwrap();

            let mut resumed = tiny_model();
            let cfg_resume = TrainConfig {
                resume_from: Some(path.to_string_lossy().into_owned()),
                ..cfg4.clone()
            };
            let resumed_report = train(&mut resumed, train_set, val_set, &cfg_resume).unwrap();
            assert_eq!(full.store(), resumed.store(), "batched={old_value}");
            assert_eq!(full_report.epochs, resumed_report.epochs);
            assert_eq!(
                full_report.best_loss.to_bits(),
                resumed_report.best_loss.to_bits()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_records_epochs_rollbacks_and_checkpoints() {
        let data = mm1_dataset(6, 16);
        let path = tmp_path("telemetry");
        let tel = Telemetry::in_memory("core", "test");
        let mut model = tiny_model();
        // The absurd learning rate forces at least one rollback before the
        // backoff lands on a sane rate (same recipe as the recovery test).
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 3,
            lr: 1e160,
            lr_backoff: 1e-163,
            max_rollbacks: 3,
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            telemetry: tel.clone(),
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data[..4], &data[4..], &cfg).unwrap();
        let records = tel.records();
        let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
        assert_eq!(count("Epoch"), report.epochs.len());
        assert_eq!(count("Rollback"), report.recoveries.len());
        assert!(!report.recoveries.is_empty(), "expected a rollback");
        assert!(count("CheckpointWrite") >= 1);
        assert_eq!(tel.counter("train.epochs"), report.epochs.len() as u64);
        assert!(tel.gauge("train.tape_nodes_per_sample").unwrap_or(0.0) > 0.0);
        assert!(tel.gauge("train.tape_max_nodes").unwrap_or(0.0) > 0.0);
        assert!(tel.gauge("train.tape_max_scalars").unwrap_or(0.0) > 0.0);
        // Every pass after the very first replays into recycled buffers.
        assert!(tel.counter("train.arena_reuse_hits") > 0);
        assert!(tel.histogram_summary("train.epoch_s").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let data = mm1_dataset(4, 15);
        let path = tmp_path("mismatch");
        let mut model = tiny_model();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 2,
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..TrainConfig::default()
        };
        train(&mut model, &data, &[], &cfg).unwrap();

        let mut other = tiny_model();
        let bad = TrainConfig {
            epochs: 2,
            batch_size: 3, // differs from the checkpointed run
            resume_from: Some(path.to_string_lossy().into_owned()),
            ..TrainConfig::default()
        };
        let err = train(&mut other, &data, &[], &bad).unwrap_err();
        assert!(
            matches!(err, TrainError::IncompatibleResume(_)),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
