//! `train-mix`: `train()` with the default model and batch 8 on 16 NSFNET
//! and 16 Synth-50 samples, interleaved as the protocol mixes them, at one
//! thread and at two, with a file telemetry sink as `train-model` uses.
//! Each call trains on one batch (4 NSFNET and 4 Synth-50 samples) for
//! six epochs, so every epoch is one optimiser step.
//!
//! Why: the forward, backward and Adam passes of `nn` and `core` (the
//! write path) dominate, and Synth-50's 2450 paths stress the segment
//! kernels. Labels come from a short 20 s simulation window: training cost
//! depends on the graphs and routings, not on label quality. Synth-50 uses
//! shortest-path routing: a batch's cost grows with its longest route, and
//! with randomised routes a seed whose batches drew 7-hop Synth-50 routes
//! trained about 35% slower than one whose longest were 6 hops, so the
//! seed rather than the code set the spread.

use crate::metrics::{set_latencies, Report};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use routenet_core::model::CompiledScenario;
use routenet_core::prelude::*;
use routenet_dataset::gen::{
    generate_dataset_with_threads, GenConfig, RoutingDiversity, TopologySpec,
};
use routenet_dataset::split::SYNTH50_TOPOLOGY_SEED;
use routenet_nn::optim::clip_global_norm;
use routenet_nn::{Adam, GradAccumulator, Session, Tape, Tensor};
use routenet_obs::{Event, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Samples per batch, and so per measured training set.
const BATCH: usize = 8;
/// Epochs per `train()` call; the first of each is warm-up.
const EPOCHS: usize = 6;
/// The percentile `op_tail_ms` reports. A run counts 20 to 25 steps at one
/// thread, so no higher percentile has more than a few steps beyond it.
const TAIL: f64 = 0.75;

pub struct Setup {
    dir: PathBuf,
    data: Vec<Sample>,
}

/// Generate the training set: NSFNET and Synth-50 samples, interleaved.
pub fn setup(ctx: &Ctx) -> Setup {
    let dir = ctx.tmp.join("train");
    std::fs::create_dir_all(&dir).expect("create train scratch dir");
    let per_topology = if ctx.tiny { 1 } else { 16 };
    let gen = |spec: TopologySpec, block: u64| {
        let mut cfg = GenConfig::new(spec, per_topology, ctx.seed.wrapping_mul(1 << 32) + block);
        if block > 0 {
            cfg.routing = RoutingDiversity::Fixed;
        }
        cfg.sim.duration_s = 20.0;
        cfg.sim.warmup_s = 2.0;
        generate_dataset_with_threads(&cfg, 2)
    };
    let nsf = gen(TopologySpec::Nsfnet, 0);
    let syn = gen(
        TopologySpec::Synthetic {
            n: 50,
            topo_seed: SYNTH50_TOPOLOGY_SEED,
        },
        1000,
    );
    let data = nsf.into_iter().zip(syn).flat_map(|(a, b)| [a, b]).collect();
    Setup { dir, data }
}

struct Trained {
    model: RouteNet,
    rollbacks: usize,
    /// Per epoch: wall time per sample-step, ms (from the telemetry log).
    step_ms: Vec<f64>,
}

fn run_train(
    st: &Setup,
    data: &[Sample],
    epochs: usize,
    threads: usize,
    rep: &mut Report,
) -> Option<Trained> {
    let path = st.dir.join(format!("train-t{threads}.telemetry.jsonl"));
    let tel = Telemetry::to_file("bench-ledger", "train-mix", &path);
    let mut model = RouteNet::new(RouteNetConfig::default());
    let cfg = TrainConfig {
        epochs,
        batch_size: BATCH,
        threads,
        telemetry: tel.clone(),
        ..TrainConfig::default()
    };
    let steps = (epochs * data.len()) as u64;
    rep.attempt(steps);
    let result = train(&mut model, data, &[], &cfg);
    if let Err(e) = tel.finish() {
        rep.note("train.telemetry", e.to_string());
    }
    let _ = std::fs::remove_file(&path);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            rep.fail(steps, format!("train at {threads} thread(s): {e}"));
            return None;
        }
    };
    if report.epochs.iter().any(|e| !e.train_loss.is_finite()) {
        rep.fail(steps, "non-finite training loss");
    }
    let step_ms = tel
        .records()
        .iter()
        .filter_map(|r| match r.event {
            Event::Epoch { samples_per_s, .. } => Some(1e3 / samples_per_s),
            _ => None,
        })
        .collect();
    Some(Trained {
        model,
        rollbacks: report.recoveries.len(),
        step_ms,
    })
}

/// Calls of `train()` on one batch of the training set at a time, at one
/// thread and then at two, so slow spells of a shared host fall on both
/// thread counts alike. An epoch of a one-batch training set is one
/// optimiser step, and the trainer's telemetry times every epoch, so each
/// step is an observation: a whole-set epoch of four steps gave too few
/// for a percentile. Latency is taken at one thread; at two, a step's time
/// depends on how the shuffle splits the batch's Synth-50 samples between
/// the workers, so the step times there fall in several clusters.
pub fn measure(ctx: &Ctx, st: &Setup, rep: &mut Report) {
    let batches: Vec<&[Sample]> = st.data.chunks(BATCH).collect();
    let (mut ms1, mut ms2, mut rollbacks) = (Vec::new(), Vec::new(), 0);
    let (start, mut calls) = (Instant::now(), 0);
    while ctx.keep_going(start, 1.0, calls as u64) {
        let batch = batches[calls % batches.len()];
        calls += 1;
        let one = run_train(st, batch, EPOCHS, 1, rep);
        let two = run_train(st, batch, EPOCHS, 2, rep);
        let (Some(t1), Some(t2)) = (one, two) else {
            return;
        };
        if t1.model.to_json() != t2.model.to_json() {
            rep.fail(
                (EPOCHS * batch.len()) as u64,
                "models trained at 1 and 2 threads differ",
            );
        }
        // The first epoch fills the trainer's arenas: warm-up, not counted.
        ms1.extend(&t1.step_ms[1..]);
        ms2.extend(&t2.step_ms[1..]);
        rollbacks += t1.rollbacks + t2.rollbacks;
    }
    // Sample-steps over the seconds the counted steps took.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mean1, mean2) = (mean(&ms1), mean(&ms2));
    let n = (ms1.len() * BATCH) as u64;
    rep.set("ops_per_s", 1e3 / mean2, n);
    rep.set("ops_per_s_t1", 1e3 / mean1, n);
    set_latencies(rep, &ms1, TAIL);
    rep.set("train.rollbacks", rollbacks as f64, 2 * calls as u64);
    // Derived: how much of the second core the trainer turns into speed.
    rep.set("train.core_efficiency", mean1 / (2.0 * mean2), 2);
}

/// A compiled training item, as the trainer builds it.
struct Item {
    compiled: CompiledScenario,
    target: Tensor,
    weights: Tensor,
}

fn item(model: &RouteNet, s: &Sample, cfg: &TrainConfig) -> Item {
    let compiled = model.compile(&s.scenario);
    let z = model.normalizer().normalize_targets(&s.targets);
    let (jw, dw) = (cfg.jitter_weight.sqrt(), cfg.drop_weight.sqrt());
    let observed: Vec<bool> = s.targets.iter().map(|t| t.delay_s > 0.0).collect();
    let (n, out) = (s.targets.len(), model.out_dim());
    let target = Tensor::from_fn(n, out, |r, c| match (observed[r], c) {
        (false, _) => 0.0,
        (true, 0) => z.get(r, 0),
        (true, c) if Some(c) == model.jitter_col() => z.get(r, 1) * jw,
        (true, _) => s.targets[r].drop_prob * dw,
    });
    let weights = Tensor::from_fn(n, out, |r, c| match (observed[r], c) {
        (false, _) => 0.0,
        (true, 0) => 1.0,
        (true, c) if Some(c) == model.drop_col() => dw,
        (true, _) => jw,
    });
    Item {
        compiled,
        target,
        weights,
    }
}

/// Row-stack the loss weights and targets of `chunk`, in order.
fn stack(items: &[Item], chunk: &[usize]) -> (Arc<Tensor>, Tensor) {
    let cols = items[chunk[0]].target.cols();
    let rows = chunk.iter().map(|&i| items[i].target.rows()).sum();
    let cat = |f: &dyn Fn(&Item) -> &Tensor| {
        let data = chunk
            .iter()
            .flat_map(|&i| f(&items[i]).data().iter().copied());
        Tensor::from_vec(rows, cols, data.collect())
    };
    (Arc::new(cat(&|it| &it.weights)), cat(&|it| &it.target))
}

struct Replay {
    model: RouteNet,
    arena: Tape,
    wall_s: f64,
    first_batch: Vec<usize>,
    items: Vec<Item>,
}

/// One epoch of `train()` at one thread, rebuilt from the public calls the
/// trainer makes, each in a span.
fn replay_epoch(data: &[Sample], tel: &Telemetry, t: &mut Tracer) -> Replay {
    let cfg = TrainConfig::default();
    let start = Instant::now();
    let mut model = RouteNet::new(RouteNetConfig::default());
    let norm = t.span("core.fit", || Normalizer::fit_with(data, cfg.log_targets));
    model.set_normalizer(norm);
    let items: Vec<Item> = t.span("core.compile", || {
        data.iter().map(|s| item(&model, s, &cfg)).collect()
    });
    let mut opt = Adam::new(model.store(), cfg.lr);
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(cfg.shuffle_seed));
    let mut arena = Tape::new();
    let mut loss_sum = 0.0;
    for (step, chunk) in (0u64..).zip(order.chunks(cfg.batch_size)) {
        t.set_request(step);
        let op = t.begin("op");
        let compiled: Vec<&CompiledScenario> = chunk.iter().map(|&i| &items[i].compiled).collect();
        let batch = t.span("core.pack", || BatchedScenario::pack(&compiled));
        let mut sess = Session::with_tape(model.store(), arena);
        let out = t.span("core.forward", || model.forward_batch(&mut sess, &batch));
        let total = t.span("core.loss", || {
            let (weights, targets) = stack(&items, chunk);
            let weighted = sess.tape.mul_const_shared(out, &weights);
            let per_sample = sess.tape.seg_mse(weighted, &targets, batch.path_seg());
            sess.tape.sum_all(per_sample)
        });
        loss_sum += sess.tape.value(total).get(0, 0) / chunk.len() as f64;
        let grads = t.span("nn.backward", || sess.tape.backward(total));
        let mut mean = t.span("nn.grad_reduce", || {
            let mut acc = GradAccumulator::new(model.store());
            for g in sess.param_grads_seg(&grads, chunk.len()) {
                acc.add(&g);
            }
            acc.take_mean()
        });
        arena = sess.into_tape();
        t.span("nn.optim", || {
            clip_global_norm(&mut mean, cfg.clip_norm);
            opt.step(model.store_mut(), &mean);
        });
        t.end(op);
    }
    let batches = order.len().div_ceil(cfg.batch_size);
    let wall = start.elapsed().as_secs_f64();
    t.span("obs.emit", || {
        tel.emit(Event::Epoch {
            epoch: 0,
            train_loss: loss_sum / batches as f64,
            val_loss: None,
            lr: opt.lr,
            grad_norm: 0.0,
            samples_per_s: items.len() as f64 / wall,
        })
    });
    Replay {
        model,
        arena,
        wall_s: start.elapsed().as_secs_f64(),
        first_batch: order[..cfg.batch_size.min(order.len())].to_vec(),
        items,
    }
}

pub fn trace(ctx: &Ctx, st: &Setup, rep: &mut Report) -> (Tracer, f64, f64) {
    let path = st.dir.join("replay.telemetry.jsonl");
    let tel = Telemetry::to_file("bench-ledger", "train-mix-replay", &path);
    let a = replay_epoch(&st.data, &tel, &mut Tracer::new(false));
    let mut t = Tracer::new(true);
    let b = replay_epoch(&st.data, &tel, &mut t);
    let _ = tel.finish();
    let _ = std::fs::remove_file(&path);

    // Outside timing: the replay is the trainer's first epoch, bit for bit.
    let steps = st.data.len() as u64;
    rep.attempt(steps);
    if let Some(one) = run_train(st, &st.data, 1, 1, rep) {
        if one.model.to_json() != a.model.to_json() {
            rep.fail(steps, "replayed epoch differs from train()");
        }
    }

    let arena = &b.arena;
    rep.set("nn.tape_nodes_max", arena.max_nodes() as f64, 1);
    rep.set("nn.tape_scalars_max", arena.max_scalars() as f64, 1);
    let (hits, misses) = (arena.reuse_hits() as f64, arena.reuse_misses() as f64);
    rep.set(
        "nn.arena_hit_ratio",
        hits / (hits + misses),
        (hits + misses) as u64,
    );
    let batch: Vec<&CompiledScenario> = b
        .first_batch
        .iter()
        .map(|&i| &b.items[i].compiled)
        .collect();
    crate::kernels::probe(&batch, ctx.tiny, rep);
    (t, a.wall_s, b.wall_s)
}
