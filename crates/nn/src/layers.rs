//! Neural-network layers: dense, MLP, and the GRU cell at RouteNet's core.

use crate::params::{ParamId, ParamStore, Session};
use crate::plan::SegmentPlan;
use crate::tape::{GruParams, Var};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

fn apply(sess: &mut Session, act: Activation, x: Var) -> Var {
    match act {
        Activation::Linear => x,
        Activation::Relu => sess.tape.relu(x),
        Activation::Tanh => sess.tape.tanh(x),
        Activation::Sigmoid => sess.tape.sigmoid(x),
    }
}

/// Fully-connected layer `act(x W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: ParamId,
    b: ParamId,
    act: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Create with Xavier-initialized weights registered in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut R,
    ) -> Self {
        let w = store.add(format!("{name}.w"), Tensor::xavier(in_dim, out_dim, rng));
        let b = store.add(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Dense {
            w,
            b,
            act,
            in_dim,
            out_dim,
        }
    }

    /// Forward pass for a `batch x in_dim` input.
    pub fn forward(&self, sess: &mut Session, x: Var) -> Var {
        debug_assert_eq!(sess.tape.value(x).cols(), self.in_dim, "Dense input width");
        let w = sess.param(self.w);
        let b = sess.param(self.b);
        let xw = sess.tape.matmul(x, w);
        let z = sess.tape.add_row(xw, b);
        apply(sess, self.act, z)
    }

    /// Segment-aware forward: same op sequence (and bitwise the same values)
    /// as [`Dense::forward`], but weight/bias gradients accumulate into
    /// per-segment slots so each sample in a concatenated batch gets exactly
    /// the gradient a per-sample tape would produce.
    pub fn forward_seg(&self, sess: &mut Session, x: Var, seg: &SegmentPlan) -> Var {
        debug_assert_eq!(sess.tape.value(x).cols(), self.in_dim, "Dense input width");
        let w = sess.param(self.w);
        let b = sess.param(self.b);
        let xw = sess.tape.seg_matmul(x, w, seg);
        let z = sess.tape.seg_add_row(xw, b, seg);
        apply(sess, self.act, z)
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Multi-layer perceptron: hidden layers with one activation, configurable
/// output activation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build from layer widths `dims = [in, h1, ..., out]`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let mut layers = Vec::new();
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                out_act
            } else {
                hidden_act
            };
            layers.push(Dense::new(
                store,
                &format!("{name}.{i}"),
                dims[i],
                dims[i + 1],
                act,
                rng,
            ));
        }
        Mlp { layers }
    }

    /// Forward pass.
    pub fn forward(&self, sess: &mut Session, mut x: Var) -> Var {
        for l in &self.layers {
            x = l.forward(sess, x);
        }
        x
    }

    /// Segment-aware forward (see [`Dense::forward_seg`]).
    pub fn forward_seg(&self, sess: &mut Session, mut x: Var, seg: &SegmentPlan) -> Var {
        for l in &self.layers {
            x = l.forward_seg(sess, x, seg);
        }
        x
    }

    /// Input width.
    #[expect(
        clippy::expect_used,
        reason = "constructor asserts dims.len() >= 2, so layers is non-empty"
    )]
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output width.
    #[expect(
        clippy::expect_used,
        reason = "constructor asserts dims.len() >= 2, so layers is non-empty"
    )]
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }
}

/// Gated recurrent unit cell (Cho et al. 2014), the update function used for
/// both path and link states in RouteNet.
///
/// ```text
/// z = sigmoid(x Wz + h Uz + bz)        update gate
/// r = sigmoid(x Wr + h Ur + br)        reset gate
/// c = tanh(x Wh + (r ⊙ h) Uh + bh)     candidate
/// h' = (1 - z) ⊙ h + z ⊙ c
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    in_dim: usize,
    hid_dim: usize,
}

impl GruCell {
    /// Create with Xavier-initialized weights registered in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hid_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = |store: &mut ParamStore, suffix: &str, r: usize, c: usize, rng: &mut R| {
            store.add(format!("{name}.{suffix}"), Tensor::xavier(r, c, rng))
        };
        let wz = w(store, "wz", in_dim, hid_dim, rng);
        let uz = w(store, "uz", hid_dim, hid_dim, rng);
        let bz = store.add(format!("{name}.bz"), Tensor::zeros(1, hid_dim));
        let wr = w(store, "wr", in_dim, hid_dim, rng);
        let ur = w(store, "ur", hid_dim, hid_dim, rng);
        let br = store.add(format!("{name}.br"), Tensor::zeros(1, hid_dim));
        let wh = w(store, "wh", in_dim, hid_dim, rng);
        let uh = w(store, "uh", hid_dim, hid_dim, rng);
        let bh = store.add(format!("{name}.bh"), Tensor::zeros(1, hid_dim));
        GruCell {
            wz,
            uz,
            bz,
            wr,
            ur,
            br,
            wh,
            uh,
            bh,
            in_dim,
            hid_dim,
        }
    }

    /// One step for a batch: `x` is `B x in_dim`, `h` is `B x hid_dim`;
    /// returns the new `B x hid_dim` hidden state.
    pub fn step(&self, sess: &mut Session, x: Var, h: Var) -> Var {
        debug_assert_eq!(sess.tape.value(x).cols(), self.in_dim, "GRU input width");
        debug_assert_eq!(sess.tape.value(h).cols(), self.hid_dim, "GRU hidden width");
        let (wz, uz, bz) = (
            sess.param(self.wz),
            sess.param(self.uz),
            sess.param(self.bz),
        );
        let (wr, ur, br) = (
            sess.param(self.wr),
            sess.param(self.ur),
            sess.param(self.br),
        );
        let (wh, uh, bh) = (
            sess.param(self.wh),
            sess.param(self.uh),
            sess.param(self.bh),
        );

        let t = &mut sess.tape;
        let xwz = t.matmul(x, wz);
        let huz = t.matmul(h, uz);
        let zs = t.add(xwz, huz);
        let zs = t.add_row(zs, bz);
        let z = t.sigmoid(zs);

        let xwr = t.matmul(x, wr);
        let hur = t.matmul(h, ur);
        let rs = t.add(xwr, hur);
        let rs = t.add_row(rs, br);
        let r = t.sigmoid(rs);

        let rh = t.mul(r, h);
        let xwh = t.matmul(x, wh);
        let rhuh = t.matmul(rh, uh);
        let cs = t.add(xwh, rhuh);
        let cs = t.add_row(cs, bh);
        let c = t.tanh(cs);

        let zi = t.one_minus(z);
        let keep = t.mul(zi, h);
        let take = t.mul(z, c);
        t.add(keep, take)
    }

    /// Segment-aware step: bitwise the values of [`GruCell::step`], recorded
    /// as one fused [`crate::tape::Tape::gru_seg`] node whose backward keeps
    /// per-sample weight and bias gradients separable in a concatenated
    /// batch.
    pub fn step_seg(&self, sess: &mut Session, x: Var, h: Var, seg: &SegmentPlan) -> Var {
        debug_assert_eq!(sess.tape.value(x).cols(), self.in_dim, "GRU input width");
        debug_assert_eq!(sess.tape.value(h).cols(), self.hid_dim, "GRU hidden width");
        let p = GruParams {
            wz: sess.param(self.wz),
            uz: sess.param(self.uz),
            bz: sess.param(self.bz),
            wr: sess.param(self.wr),
            ur: sess.param(self.ur),
            br: sess.param(self.br),
            wh: sess.param(self.wh),
            uh: sess.param(self.uh),
            bh: sess.param(self.bh),
        };
        sess.tape.gru_seg(x, h, &p, seg)
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hid_dim(&self) -> usize {
        self.hid_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_shapes_and_linearity() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dense::new(&mut store, "d", 3, 2, Activation::Linear, &mut rng);
        assert_eq!((d.in_dim(), d.out_dim()), (3, 2));
        let mut sess = Session::new(&store);
        let x = sess.input(Tensor::zeros(4, 3));
        let y = d.forward(&mut sess, x);
        // Zero input + zero bias => zero output for linear layer.
        assert_eq!(sess.tape.value(y).shape(), (4, 2));
        assert!(sess.tape.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dense_relu_clamps() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let d = Dense::new(&mut store, "d", 2, 2, Activation::Relu, &mut rng);
        let mut sess = Session::new(&store);
        let x = sess.input(Tensor::from_vec(1, 2, vec![5.0, -5.0]));
        let y = d.forward(&mut sess, x);
        assert!(sess.tape.value(y).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn mlp_stacks_layers() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[4, 8, 8, 2],
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 2);
        // 3 dense layers x (w + b)
        assert_eq!(store.len(), 6);
        let mut sess = Session::new(&store);
        let x = sess.input(Tensor::full(5, 4, 0.1));
        let y = mlp.forward(&mut sess, x);
        assert_eq!(sess.tape.value(y).shape(), (5, 2));
        assert!(sess.tape.value(y).all_finite());
    }

    #[test]
    fn gru_hidden_stays_bounded() {
        // tanh candidate + convex gate combination keeps |h| <= 1 given
        // |h0| <= 1.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let gru = GruCell::new(&mut store, "g", 3, 5, &mut rng);
        assert_eq!((gru.in_dim(), gru.hid_dim()), (3, 5));
        let mut sess = Session::new(&store);
        let x = sess.input(Tensor::full(2, 3, 10.0)); // large inputs
        let mut h = sess.input(Tensor::zeros(2, 5));
        for _ in 0..10 {
            h = gru.step(&mut sess, x, h);
        }
        assert!(sess.tape.value(h).max_abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn gru_zero_update_gate_preserves_state() {
        // With update-gate weights forced to large negative bias, z ~ 0 and
        // h' ~ h.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let gru = GruCell::new(&mut store, "g", 2, 3, &mut rng);
        let bz = store.by_name("g.bz").unwrap();
        *store.get_mut(bz) = Tensor::full(1, 3, -50.0);
        let mut sess = Session::new(&store);
        let x = sess.input(Tensor::full(1, 2, 0.3));
        let h0t = Tensor::from_vec(1, 3, vec![0.5, -0.2, 0.9]);
        let h0 = sess.input(h0t.clone());
        let h1 = gru.step(&mut sess, x, h0);
        for (a, b) in sess.tape.value(h1).data().iter().zip(h0t.data()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    fn bits(t: &Tensor) -> Vec<u64> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn seg_variants_match_per_sample_forward_and_grads() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let gru = GruCell::new(&mut store, "g", 3, 4, &mut rng);
        let readout = Dense::new(&mut store, "r", 4, 2, Activation::Tanh, &mut rng);
        // The empty middle segment is a sample already past its last hop.
        let lens = [2usize, 0, 3];
        let seg = SegmentPlan::from_lens(&lens);
        let x = Tensor::from_fn(5, 3, |r, c| (r as f64 * 0.3 - c as f64 * 0.7).sin());
        let h = Tensor::from_fn(5, 4, |r, c| (r as f64 * 0.11 + c as f64 * 0.05).cos());

        // Batched tape over all samples.
        let mut bs = Session::new(&store);
        let bx = bs.input(x.clone());
        let bh = bs.input(h.clone());
        let bh1 = gru.step_seg(&mut bs, bx, bh, &seg);
        let by = readout.forward_seg(&mut bs, bh1, &seg);
        let bl = bs.tape.sum_all(by);
        let bg = bs.tape.backward(bl);
        let per_sample = bs.param_grads_seg(&bg, lens.len());

        // One tape per sample through the unfused step.
        let mut lo = 0usize;
        for (s, &n) in lens.iter().enumerate() {
            if n == 0 {
                assert!(per_sample[s].is_empty(), "empty segment got gradients");
                continue;
            }
            let mut ps = Session::new(&store);
            let px = ps.input(x.rows_copy(lo, lo + n));
            let ph = ps.input(h.rows_copy(lo, lo + n));
            let ph1 = gru.step(&mut ps, px, ph);
            let py = readout.forward(&mut ps, ph1);
            let pl = ps.tape.sum_all(py);
            let pg = ps.tape.backward(pl);
            assert_eq!(
                bits(&bs.tape.value(by).rows_copy(lo, lo + n)),
                bits(ps.tape.value(py)),
                "sample {s} forward mismatch"
            );
            for (name, bv, pv) in [("dx", bx, px), ("dh", bh, ph)] {
                assert_eq!(
                    bits(&bg.get(bv).unwrap().rows_copy(lo, lo + n)),
                    bits(pg.get(pv).unwrap()),
                    "sample {s} {name} mismatch"
                );
            }
            // The per-sample tape uses plain ops throughout — its
            // param_grads are the reference the batched per-segment slots
            // must reproduce bitwise.
            let expect = ps.param_grads(&pg);
            assert_eq!(per_sample[s].len(), expect.len(), "sample {s} param count");
            for ((ia, ga), (ib, gb)) in per_sample[s].iter().zip(&expect) {
                assert_eq!(ia, ib);
                assert_eq!(
                    bits(ga),
                    bits(gb),
                    "sample {s} grad mismatch for {}",
                    store.name(*ia)
                );
            }
            lo += n;
        }
    }

    /// The fused step against the unfused one over a whole batch, with `h`
    /// also read by a later op: `h`'s gradient already holds that op's
    /// partial when the step's partials arrive, so the accumulation order
    /// shows in the bits.
    #[test]
    fn fused_step_matches_unfused_dx_dh_with_prior_h_gradient() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(8);
        let gru = GruCell::new(&mut store, "g", 3, 4, &mut rng);
        let seg = SegmentPlan::from_lens(&[3, 0, 4]);
        let x = Tensor::from_fn(7, 3, |r, c| {
            if (r + c) % 4 == 0 {
                0.0
            } else {
                (r as f64 * 0.9 + c as f64).sin()
            }
        });
        let h = Tensor::from_fn(7, 4, |r, c| (r as f64 * 0.37 - c as f64 * 0.21).cos());
        let w = Tensor::from_fn(7, 4, |r, c| 0.5 - ((r * 4 + c) % 5) as f64 * 0.3);
        let run = |fused: bool| {
            let mut sess = Session::new(&store);
            let vx = sess.input(x.clone());
            let vh = sess.input(h.clone());
            let h1 = if fused {
                gru.step_seg(&mut sess, vx, vh, &seg)
            } else {
                gru.step(&mut sess, vx, vh)
            };
            let later = sess.tape.mul(h1, vh);
            let weighted = sess.tape.mul_const(later, &w);
            let l = sess.tape.sum_all(weighted);
            let g = sess.tape.backward(l);
            [
                bits(sess.tape.value(h1)),
                bits(g.get(vx).unwrap()),
                bits(g.get(vh).unwrap()),
            ]
        };
        assert_eq!(run(true), run(false));
    }

    /// A pre-activation the unfused step would record as `+inf` poisons the
    /// tape even though the saturated gate keeps the fused output finite.
    /// (A `+inf` parameter would poison the tape on its own as a leaf, so
    /// the infinity here comes from a finite bias overflowing.)
    #[test]
    fn fused_step_poisons_on_a_saturated_infinite_gate() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let gru = GruCell::new(&mut store, "g", 3, 4, &mut rng);
        let wz = store.by_name("g.wz").unwrap();
        *store.get_mut(wz) = Tensor::full(3, 4, 1e300);
        let bz = store.by_name("g.bz").unwrap();
        *store.get_mut(bz) = Tensor::full(1, 4, f64::MAX);
        let x = Tensor::full(2, 3, 1.0);
        let h = Tensor::from_fn(2, 4, |r, c| 0.1 * (r + c) as f64);
        for fused in [true, false] {
            let mut sess = Session::new(&store);
            let vx = sess.input(x.clone());
            let vh = sess.input(h.clone());
            for id in store.ids() {
                sess.param(id);
            }
            assert!(!sess.tape.poisoned(), "finite leaves poisoned the tape");
            let h1 = if fused {
                gru.step_seg(&mut sess, vx, vh, &SegmentPlan::singleton(2))
            } else {
                gru.step(&mut sess, vx, vh)
            };
            assert!(sess.tape.value(h1).all_finite(), "gate did not saturate");
            assert!(sess.tape.poisoned(), "fused={fused}: +inf gate not flagged");
        }
    }

    #[test]
    fn gru_gradients_flow_to_all_parameters() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let gru = GruCell::new(&mut store, "g", 2, 3, &mut rng);
        let mut sess = Session::new(&store);
        let x = sess.input(Tensor::full(4, 2, 0.5));
        let h0 = sess.input(Tensor::full(4, 3, 0.1));
        let h1 = gru.step(&mut sess, x, h0);
        let h2 = gru.step(&mut sess, x, h1); // reuse cell: grads must merge
        let loss = sess.tape.mean_all(h2);
        let grads = sess.tape.backward(loss);
        let pg = sess.param_grads(&grads);
        assert_eq!(pg.len(), 9, "all 9 GRU params should receive gradients");
        for (id, g) in &pg {
            assert!(g.norm() > 0.0, "param {} has zero grad", store.name(*id));
            assert!(g.all_finite());
        }
    }
}
