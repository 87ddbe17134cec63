//! First-order optimizers and gradient utilities.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Scale gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut [(ParamId, Tensor)], max_norm: f64) -> f64 {
    assert!(max_norm > 0.0);
    let sq: f64 = grads.iter().map(|(_, g)| g.norm().powi(2)).sum();
    debug_assert!(sq >= 0.0, "a sum of squared norms is nonnegative");
    let total = sq.sqrt();
    if total > max_norm {
        debug_assert!(
            total > 0.0,
            "total exceeds max_norm, which is asserted positive"
        );
        let s = max_norm / total;
        for (_, g) in grads.iter_mut() {
            *g = g.map(|x| x * s);
        }
    }
    total
}

/// Adam (Kingma & Ba, 2015) with bias correction.
///
/// The full optimizer state — step count and both moment vectors — is
/// serializable so a training checkpoint can resume bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Adam with standard hyperparameters (β1 = 0.9, β2 = 0.999).
    pub fn new(store: &ParamStore, lr: f64) -> Self {
        Self::with_betas(store, lr, 0.9, 0.999, 1e-8)
    }

    /// Adam with explicit moment decays.
    pub fn with_betas(store: &ParamStore, lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(lr > 0.0);
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        assert!(eps > 0.0);
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: vec![None; store.len()],
            v: vec![None; store.len()],
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Copy `src`'s full state (hyperparameters, step count, both moment
    /// vectors) into `self`, reusing existing moment buffers when shapes line
    /// up. Equivalent to `*self = src.clone()` without the steady-state
    /// allocations — the epoch-boundary snapshot path for resumable training.
    pub fn copy_state_from(&mut self, src: &Adam) {
        self.lr = src.lr;
        self.beta1 = src.beta1;
        self.beta2 = src.beta2;
        self.eps = src.eps;
        self.t = src.t;
        copy_moments(&mut self.m, &src.m);
        copy_moments(&mut self.v, &src.v);
    }

    /// Apply one update step.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        self.t += 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "Adam step counts stay many orders of magnitude below i32::MAX"
        )]
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "Adam step counts stay many orders of magnitude below i32::MAX"
        )]
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        debug_assert!(
            bc1 > 0.0 && bc2 > 0.0,
            "betas below 1 and t >= 1 keep the bias corrections positive"
        );
        for (id, g) in grads {
            let m = self.m[id.0].get_or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
            let v = self.v[id.0].get_or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
            *m = m.zip(g, |mi, gi| self.beta1 * mi + (1.0 - self.beta1) * gi);
            *v = v.zip(g, |vi, gi| self.beta2 * vi + (1.0 - self.beta2) * gi * gi);
            let p = store.get_mut(*id);
            for i in 0..p.len() {
                let mhat = m.data()[i] / bc1;
                let vhat = v.data()[i] / bc2;
                debug_assert!(vhat >= 0.0, "second moments average squared gradients");
                let denom = vhat.sqrt() + self.eps;
                debug_assert!(denom > 0.0, "the constructor asserts eps > 0");
                p.data_mut()[i] -= self.lr * mhat / denom;
            }
        }
    }
}

/// Copy optimizer moment slots, reusing buffers for matching shapes.
fn copy_moments(dst: &mut Vec<Option<Tensor>>, src: &[Option<Tensor>]) {
    dst.resize(src.len(), None);
    for (d, s) in dst.iter_mut().zip(src) {
        match (d.as_mut(), s) {
            (Some(dt), Some(st)) if (dt.rows(), dt.cols()) == (st.rows(), st.cols()) => {
                dt.copy_from(st);
            }
            _ => d.clone_from(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Session;

    /// Minimize f(w) = sum((w - c)^2) and require convergence to c.
    fn quadratic_loss_converges(mut stepper: impl FnMut(&mut ParamStore, &[(ParamId, Tensor)])) {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 3, vec![5.0, -4.0, 2.0]));
        let target = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        for _ in 0..500 {
            let mut sess = Session::new(&store);
            let vw = sess.param(w);
            let loss = sess.tape.mse(vw, &target);
            let grads = sess.tape.backward(loss);
            let pg = sess.param_grads(&grads);
            stepper(&mut store, &pg);
        }
        for (a, b) in store.get(w).data().iter().zip(target.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let store = ParamStore::new();
        let mut opt = Adam::new(&store, 0.1);
        opt.m = vec![None; 8];
        opt.v = vec![None; 8];
        quadratic_loss_converges(move |s, g| opt.step(s, g));
    }

    #[test]
    fn adam_counts_steps() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 1));
        let mut opt = Adam::new(&store, 0.01);
        assert_eq!(opt.steps(), 0);
        opt.step(&mut store, &[(w, Tensor::full(1, 1, 1.0))]);
        opt.step(&mut store, &[(w, Tensor::full(1, 1, 1.0))]);
        assert_eq!(opt.steps(), 2);
        // Parameter moved in the negative gradient direction.
        assert!(store.get(w).get(0, 0) < 0.0);
    }

    #[test]
    fn copy_state_from_equals_clone() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 2, vec![1.0, -2.0]));
        let mut src = Adam::new(&store, 0.05);
        src.step(&mut store, &[(w, Tensor::full(1, 2, 0.5))]);
        src.step(&mut store, &[(w, Tensor::full(1, 2, -0.25))]);

        // Fresh destination (empty moment slots): full copy.
        let mut dst = Adam::new(&store, 0.9);
        dst.copy_state_from(&src);
        assert_eq!(dst, src);

        // Steady state (shapes already match): buffers reused, still equal.
        src.step(&mut store, &[(w, Tensor::full(1, 2, 1.5))]);
        dst.copy_state_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut g = vec![(ParamId(0), Tensor::from_vec(1, 2, vec![0.3, 0.4]))];
        let pre = clip_global_norm(&mut g, 10.0);
        assert!((pre - 0.5).abs() < 1e-12);
        assert_eq!(g[0].1.data(), &[0.3, 0.4]);
    }

    #[test]
    fn clip_rescales_large_gradients() {
        let mut g = vec![
            (ParamId(0), Tensor::from_vec(1, 2, vec![30.0, 40.0])),
            (ParamId(1), Tensor::from_vec(1, 1, vec![0.0])),
        ];
        let pre = clip_global_norm(&mut g, 5.0);
        assert!((pre - 50.0).abs() < 1e-12);
        let post: f64 = g.iter().map(|(_, t)| t.norm().powi(2)).sum::<f64>().sqrt();
        assert!((post - 5.0).abs() < 1e-9);
        // Direction preserved.
        assert!((g[0].1.data()[0] / g[0].1.data()[1] - 0.75).abs() < 1e-12);
    }
}
