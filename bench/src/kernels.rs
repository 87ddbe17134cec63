//! Kernel probes: the tape ops of one message-passing position, timed one
//! at a time on the shapes of a workload's first batch.
//!
//! `fwd_ns` is the op call; `bwd_ns` is `Tape::backward` on a tape holding
//! the op's inputs, the op and a `sum_all`; `bytes` is the value storage
//! the op materialises on the tape (computed from tensor sizes, not
//! measured traffic). The per-sample variants `gather_vec` and `gru_step`
//! run each sample of the batch on its own rows and report the sum, so
//! they compare directly with their batched counterparts.

use crate::metrics::{sorted, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_core::model::CompiledScenario;
use routenet_core::RouteNetConfig;
use routenet_nn::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Position-0 gather/scatter plans of a batch, rebased into the
/// concatenated row space the way `BatchedScenario::pack` does.
struct Shapes {
    n_links: usize,
    n_paths: usize,
    link_idx: IndexPlan,
    path_idx: IndexPlan,
    seg: SegmentPlan,
    path_seg: SegmentPlan,
    /// Per sample: (n_links, position-0 link indices).
    per_sample: Vec<(usize, Vec<usize>)>,
}

impl Shapes {
    fn of(batch: &[&CompiledScenario]) -> Shapes {
        let (mut n_links, mut n_paths) = (0, 0);
        let (mut link_idx, mut path_idx) = (Vec::new(), Vec::new());
        let (mut seg_lens, mut path_lens, mut per_sample) = (Vec::new(), Vec::new(), Vec::new());
        for sc in batch {
            let t = &sc.tensors;
            let pos = &t.positions[0];
            link_idx.extend(pos.link_idx.iter().map(|l| l + n_links));
            path_idx.extend(pos.path_idx.iter().map(|p| p + n_paths));
            seg_lens.push(pos.path_idx.len());
            path_lens.push(t.n_paths);
            per_sample.push((t.n_links, pos.link_idx.clone()));
            n_links += t.n_links;
            n_paths += t.n_paths;
        }
        Shapes {
            n_links,
            n_paths,
            link_idx: IndexPlan::new(link_idx),
            path_idx: IndexPlan::new(path_idx),
            seg: SegmentPlan::from_lens(&seg_lens),
            path_seg: SegmentPlan::from_lens(&path_lens),
            per_sample,
        }
    }
}

struct Probe<'a> {
    store: &'a ParamStore,
    arena: Tape,
    budget: Duration,
    max_reps: usize,
}

impl Probe<'_> {
    /// Median forward and backward ns and the op's bytes. `inputs`
    /// registers the op's leaves (untimed); `op` is the timed call.
    fn time<I>(
        &mut self,
        inputs: impl Fn(&mut Session) -> I,
        op: impl Fn(&mut Session, I) -> Var,
    ) -> (f64, f64, f64) {
        let (mut fwd, mut bwd, mut bytes) = (Vec::new(), Vec::new(), 0.0);
        let t0 = Instant::now();
        while fwd.len() < self.max_reps && (fwd.len() < 3 || t0.elapsed() < self.budget) {
            let mut sess = Session::with_tape(self.store, std::mem::take(&mut self.arena));
            let inp = inputs(&mut sess);
            let before = sess.tape.value_scalars();
            let t = Instant::now();
            let out = black_box(op(&mut sess, inp));
            fwd.push(t.elapsed().as_nanos() as f64);
            bytes = ((sess.tape.value_scalars() - before) * 8) as f64;
            let total = sess.tape.sum_all(out);
            let t = Instant::now();
            let grads = black_box(sess.tape.backward(total));
            bwd.push(t.elapsed().as_nanos() as f64);
            drop(grads);
            self.arena = sess.into_tape();
        }
        let med = |v: &[f64]| sorted(v)[v.len() / 2];
        (med(&fwd), med(&bwd), bytes)
    }
}

fn random(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Time every kernel on `batch` and record the `kernel.*` metrics.
pub fn probe(batch: &[&CompiledScenario], tiny: bool, rep: &mut Report) {
    let cfg = RouteNetConfig::default();
    let (ld, pd) = (cfg.link_state_dim, cfg.path_state_dim);
    let s = Shapes::of(batch);
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let gru = GruCell::new(&mut store, "k.gru", ld, pd, &mut rng);
    let readout = Mlp::new(
        &mut store,
        "k.readout",
        &[pd, cfg.readout_hidden, cfg.readout_hidden, 2],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    let w = store.add("k.w", Tensor::xavier(ld, pd, &mut rng));
    let links = random(s.n_links, ld, &mut rng);
    let paths = random(s.n_paths, pd, &mut rng);
    let active = s.link_idx.len();
    let x = random(active, ld, &mut rng);
    let h = random(active, pd, &mut rng);
    let mut p = Probe {
        store: &store,
        arena: Tape::new(),
        budget: Duration::from_millis(if tiny { 1 } else { 150 }),
        max_reps: if tiny { 3 } else { 400 },
    };
    let mut put = |name: &str, (f, b, bytes): (f64, f64, f64), with_bytes: bool| {
        rep.set(&format!("kernel.{name}.fwd_ns"), f, 1);
        rep.set(&format!("kernel.{name}.bwd_ns"), b, 1);
        if with_bytes {
            rep.set(&format!("kernel.{name}.bytes"), bytes, 1);
        }
    };

    let r = p.time(
        |sess| sess.input_copied(&links),
        |sess, a| sess.tape.gather_rows_plan(a, &s.link_idx),
    );
    put("gather_plan", r, true);
    let r = p.time(
        |sess| sess.input_copied(&h),
        |sess, a| sess.tape.scatter_add_rows_plan(a, &s.path_idx, s.n_paths),
    );
    put("scatter_plan", r, true);
    let r = p.time(
        |sess| (sess.input_copied(&x), sess.param(w)),
        |sess, (a, b)| sess.tape.seg_matmul(a, b, &s.seg),
    );
    put("seg_matmul", r, true);
    let r = p.time(
        |sess| (sess.input_copied(&x), sess.input_copied(&h)),
        |sess, (a, b)| gru.step_seg(sess, a, b, &s.seg),
    );
    put("gru_step_seg", r, true);
    let r = p.time(
        |sess| sess.input_copied(&paths),
        |sess, a| readout.forward_seg(sess, a, &s.path_seg),
    );
    put("readout_seg", r, true);

    // Per-sample variants: the same rows, one sample at a time.
    let (mut gather, mut step) = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0));
    let mut row = 0;
    for (n_links, idx) in &s.per_sample {
        let sample_links = random(*n_links, ld, &mut rng);
        let r = p.time(
            |sess| sess.input_copied(&sample_links),
            |sess, a| sess.tape.gather_rows(a, idx.clone()),
        );
        gather = (gather.0 + r.0, gather.1 + r.1, 0.0);
        let xs = x.rows_copy(row, row + idx.len());
        let hs = h.rows_copy(row, row + idx.len());
        row += idx.len();
        let r = p.time(
            |sess| (sess.input_copied(&xs), sess.input_copied(&hs)),
            |sess, (a, b)| gru.step(sess, a, b),
        );
        step = (step.0 + r.0, step.1 + r.1, 0.0);
    }
    put("gather_vec", gather, false);
    put("gru_step", step, false);
}
