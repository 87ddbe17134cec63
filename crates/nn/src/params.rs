//! Parameter storage and tape binding.
//!
//! Parameters live outside tapes in a [`ParamStore`] so a fresh tape can be
//! built per sample (define-by-run) while weights persist across samples.
//! A [`Session`] memoizes the store→tape binding: a parameter used many
//! times in one forward pass (e.g. a GRU cell applied at every message-
//! passing iteration) is registered as a single leaf, so its gradient
//! accumulates correctly.

use crate::tape::{Gradients, Tape, Var};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ParamEntry {
    name: String,
    tensor: Tensor,
}

/// Named collection of trainable tensors.
///
/// `PartialEq` compares names and tensor contents positionally with exact
/// float equality — used by checkpoint/resume tests to prove runs identical.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a tensor under `name`. Names must be unique.
    pub fn add(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "duplicate parameter name {name:?}"
        );
        self.entries.push(ParamEntry { name, tensor });
        ParamId(self.entries.len() - 1)
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar count across all tensors.
    pub fn n_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.tensor.len()).sum()
    }

    /// Read a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].tensor
    }

    /// Mutate a parameter (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].tensor
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Look a parameter up by name.
    pub fn by_name(&self, name: &str) -> Option<ParamId> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(ParamId)
    }

    /// Iterate ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Copy `src`'s parameters into `self`, reusing existing tensor buffers
    /// when names and shapes line up (the epoch-boundary snapshot path: after
    /// the first epoch this never allocates). Falls back to a full clone when
    /// the layouts differ, so the result always equals `src.clone()`.
    pub fn copy_from(&mut self, src: &ParamStore) {
        let layouts_match = self.entries.len() == src.entries.len()
            && self.entries.iter().zip(&src.entries).all(|(a, b)| {
                a.name == b.name
                    && a.tensor.rows() == b.tensor.rows()
                    && a.tensor.cols() == b.tensor.cols()
            });
        if layouts_match {
            for (dst, s) in self.entries.iter_mut().zip(&src.entries) {
                dst.tensor.copy_from(&s.tensor);
            }
        } else {
            self.clone_from(src);
        }
    }

    /// Serialize all parameters to JSON (model checkpoint).
    #[expect(
        clippy::expect_used,
        reason = "in-memory numeric data always serializes; f64 is emitted as a literal"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ParamStore serializes")
    }

    /// Restore from [`ParamStore::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// One forward pass: a tape plus the memoized param bindings.
pub struct Session<'a> {
    /// The autodiff tape being built.
    pub tape: Tape,
    store: &'a ParamStore,
    bound: Vec<Option<Var>>,
}

impl<'a> Session<'a> {
    /// Start a session over `store`.
    pub fn new(store: &'a ParamStore) -> Self {
        Session::with_tape(store, Tape::new())
    }

    /// Start a session over `store` reusing an arena-backed tape from a
    /// previous pass. The tape is reset (recycling its value buffers) before
    /// recording begins; pair with [`Session::into_tape`] to thread one tape
    /// through a training or eval loop with no steady-state value-buffer
    /// allocation in the forward pass.
    pub fn with_tape(store: &'a ParamStore, mut tape: Tape) -> Self {
        tape.reset();
        Session {
            tape,
            store,
            bound: vec![None; store.len()],
        }
    }

    /// End the session, yielding the tape for arena reuse.
    pub fn into_tape(self) -> Tape {
        self.tape
    }

    /// Clear the session for another forward pass over the same store:
    /// resets the tape (recycling value buffers) and unbinds all params.
    pub fn reset(&mut self) {
        self.tape.reset();
        for b in self.bound.iter_mut() {
            *b = None;
        }
    }

    /// Tape variable for parameter `id` (bound at most once per session).
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.0] {
            return v;
        }
        let v = self.tape.leaf_copied(self.store.get(id));
        self.bound[id.0] = Some(v);
        v
    }

    /// Register a non-trainable input tensor.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.tape.leaf(t)
    }

    /// Register a non-trainable input by copying into an arena-recycled
    /// buffer (keeps the tape pool balanced in reset loops).
    pub fn input_copied(&mut self, t: &Tensor) -> Var {
        self.tape.leaf_copied(t)
    }

    /// Collect `(param, grad)` pairs for every bound parameter that received
    /// a gradient.
    pub fn param_grads(&self, grads: &Gradients) -> Vec<(ParamId, Tensor)> {
        let mut out = Vec::new();
        for (i, b) in self.bound.iter().enumerate() {
            if let Some(v) = b {
                if let Some(g) = grads.get(*v) {
                    out.push((ParamId(i), g.clone()));
                }
            }
        }
        out
    }

    /// Collect per-sample `(param, grad)` lists from a batched backward
    /// pass over `n_seg` segments.
    ///
    /// Entry `s` holds, in parameter-id order, exactly the pairs
    /// [`Session::param_grads`] would return for sample `s` run on its own
    /// tape: weights/biases touched by `seg_matmul`/`seg_add_row` come from
    /// their per-segment slots, and parameters a sample never touched are
    /// skipped (as a per-sample tape would skip them).
    pub fn param_grads_seg(&self, grads: &Gradients, n_seg: usize) -> Vec<Vec<(ParamId, Tensor)>> {
        let mut out: Vec<Vec<(ParamId, Tensor)>> = (0..n_seg).map(|_| Vec::new()).collect();
        for (i, b) in self.bound.iter().enumerate() {
            let Some(v) = b else { continue };
            for (s, per_sample) in out.iter_mut().enumerate() {
                if let Some(g) = grads.seg_get(*v, s) {
                    per_sample.push((ParamId(i), g.clone()));
                }
            }
        }
        out
    }
}

/// Gradient accumulator for minibatching: sums per-sample gradients keyed by
/// parameter, then averages.
#[derive(Debug, Default)]
pub struct GradAccumulator {
    sums: Vec<Option<Tensor>>,
    count: usize,
}

impl GradAccumulator {
    /// Accumulator sized for `store`.
    pub fn new(store: &ParamStore) -> Self {
        GradAccumulator {
            sums: vec![None; store.len()],
            count: 0,
        }
    }

    /// Add one sample's parameter gradients.
    pub fn add(&mut self, grads: &[(ParamId, Tensor)]) {
        self.count += 1;
        for (id, g) in grads {
            match &mut self.sums[id.0] {
                Some(s) => s.add_scaled(g, 1.0),
                slot @ None => *slot = Some(g.clone()),
            }
        }
    }

    /// Number of samples accumulated.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Average gradients `(sum / count)` and reset the accumulator.
    pub fn take_mean(&mut self) -> Vec<(ParamId, Tensor)> {
        let n = self.count.max(1) as f64;
        let out = self
            .sums
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.take().map(|t| (ParamId(i), t.map(|x| x / n))))
            .collect();
        self.count = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.add("w", Tensor::full(2, 2, 1.5));
        let b = store.add("b", Tensor::zeros(1, 2));
        assert_eq!(store.len(), 2);
        assert_eq!(store.n_scalars(), 6);
        assert_eq!(store.name(a), "w");
        assert_eq!(store.by_name("b"), Some(b));
        assert_eq!(store.by_name("nope"), None);
        let json = store.to_json();
        let restored = ParamStore::from_json(&json).unwrap();
        assert_eq!(restored.get(a), store.get(a));
        assert_eq!(restored.name(b), "b");
    }

    #[test]
    fn copy_from_equals_clone_in_both_layout_cases() {
        let mut src = ParamStore::new();
        let w = src.add("w", Tensor::full(2, 2, 1.5));
        src.add("b", Tensor::zeros(1, 2));

        // Layout mismatch (empty destination): falls back to clone.
        let mut dst = ParamStore::new();
        dst.copy_from(&src);
        assert_eq!(dst, src);

        // Matching layout: buffers reused, values tracked.
        src.get_mut(w).set(0, 0, -3.25);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(1, 1));
        store.add("w", Tensor::zeros(1, 1));
    }

    #[test]
    fn session_memoizes_param_binding() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::full(1, 1, 3.0));
        let mut sess = Session::new(&store);
        let v1 = sess.param(w);
        let v2 = sess.param(w);
        assert_eq!(v1, v2);
        assert_eq!(sess.tape.len(), 1);
    }

    #[test]
    fn reused_param_gradient_accumulates() {
        // loss = sum(w * w_used_twice): param used in two places; grad must
        // be the total derivative 2w.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 2, vec![2.0, -3.0]));
        let mut sess = Session::new(&store);
        let vw = sess.param(w);
        let sq = sess.tape.mul(vw, vw);
        let loss = sess.tape.sum_all(sq);
        let grads = sess.tape.backward(loss);
        let pg = sess.param_grads(&grads);
        assert_eq!(pg.len(), 1);
        assert_eq!(pg[0].1.data(), &[4.0, -6.0]);
    }

    #[test]
    fn accumulator_averages_and_resets() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 2));
        let mut acc = GradAccumulator::new(&store);
        acc.add(&[(w, Tensor::from_vec(1, 2, vec![1.0, 2.0]))]);
        acc.add(&[(w, Tensor::from_vec(1, 2, vec![3.0, 4.0]))]);
        assert_eq!(acc.count(), 2);
        let mean = acc.take_mean();
        assert_eq!(mean.len(), 1);
        assert_eq!(mean[0].1.data(), &[2.0, 3.0]);
        assert_eq!(acc.count(), 0);
        assert!(acc.take_mean().is_empty());
    }
}
