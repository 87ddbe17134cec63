//! Reverse-mode automatic differentiation on a linear tape.
//!
//! A [`Tape`] records every operation eagerly (define-by-run); calling
//! [`Tape::backward`] walks the tape in reverse accumulating gradients and
//! keeps only the leaves'. The op set is exactly what RouteNet's message
//! passing and its losses call, including the structural ops that encode
//! the graph: [`Tape::gather_rows_plan`] (read link states along each
//! path), [`Tape::scatter_add_rows_plan`] (aggregate per-hop messages into
//! per-link inboxes) and [`Tape::replace_rows_plan`] (update the active
//! paths' states), plus one fused op, [`Tape::gru_seg`], for a whole GRU
//! step. Their unbatched twins ([`Tape::gather_rows`],
//! [`Tape::scatter_add_rows`], [`Tape::mul_const`], [`Tape::mse`]) serve
//! the reference `RouteNet::forward`, the FNN baseline, and the tests that
//! pin the plan and segment ops against them.
//!
//! Every op's gradient is validated against central finite differences in
//! this crate's test suite.
//!
//! # Arena reuse
//!
//! A tape can be recycled across forward/backward passes with
//! [`Tape::reset`]: node value buffers (and the activations fused ops save)
//! are drained into an internal pool kept sorted by capacity, and each op of
//! the next pass takes the smallest pooled buffer that fits its output
//! (best fit). When none fits, the largest pooled buffer is dropped and an
//! exact-size one allocated: a handed-out buffer never grows, and a miss
//! replaces a pooled buffer instead of adding one, so in a loop that draws
//! its leaves with [`Tape::leaf_copied`] the pool never holds more buffers
//! than the largest pass recorded. A replayed op sequence therefore reaches
//! a steady state after its first pass, and a stream of differently shaped
//! passes stops missing once the pool holds buffers for the largest.
//! Backward partials are not pooled: they are allocated on every pass. See
//! DESIGN.md "Batched execution & memory arenas".
//!
//! # Segment ops
//!
//! The `seg_*` ops and [`Tape::gru_seg`] operate on tensors whose rows are the
//! concatenation of several samples' row blocks (described by a
//! [`SegmentPlan`]). Their forward values are bitwise identical to the
//! unsegmented ops; what differs is the backward pass, which keeps
//! per-segment gradient partials separate so a batched backward associates
//! floating-point sums exactly like running the samples one at a time.

// A hot path: every bare index must be proven in bounds or replaced by
// `.get()`.
#![deny(clippy::indexing_slicing)]

use std::sync::Arc;

use crate::plan::{IndexPlan, SegmentPlan};
use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// Leaf: input or parameter. No gradient propagation (gradients are
    /// still *accumulated* into leaves so the optimizer can read them).
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    /// `a + broadcast(b)` where `b` is `1 x cols`.
    AddRow(Var, Var),
    Mul(Var, Var),
    /// `alpha * a + beta` elementwise.
    Affine(Var, f64, f64),
    /// Elementwise product with a constant tensor (no grad to the constant).
    MulConst(Var, Tensor),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    /// `out[i, :] = a[idx[i], :]`.
    GatherRows(Var, Vec<usize>),
    /// `out[idx[i], :] += a[i, :]`, out has `out_rows` rows.
    ScatterAddRows(Var, Vec<usize>),
    /// `gather_rows` with a shared precomputed index plan (no copy per push).
    GatherRowsP(Var, IndexPlan),
    /// `scatter_add_rows` with a shared precomputed index plan.
    ScatterAddRowsP(Var, IndexPlan),
    /// `mul_const` with a shared constant (no tensor copy per push).
    MulConstShared(Var, Arc<Tensor>),
    /// Batched matmul against a shared rhs; backward keeps per-segment
    /// weight-gradient partials separate (forward == MatMul bitwise).
    SegMatMul(Var, Var, SegmentPlan),
    /// Batched bias add; backward keeps per-segment bias partials separate
    /// (forward == AddRow bitwise).
    SegAddRow(Var, Var, SegmentPlan),
    /// Per-segment mean squared error: `out[s, 0] = mse over segment s`.
    SegMse(Var, Tensor, SegmentPlan),
    /// Fused segment-aware GRU step (see [`Tape::gru_seg`]): inputs `x` and
    /// `h`, the cell's parameters, and the gate activations backward needs.
    GruSeg {
        x: Var,
        h: Var,
        p: GruParams,
        seg: SegmentPlan,
        saved: GruSaved,
    },
    /// `state` with the rows named by the plan replaced by `rows` (see
    /// [`Tape::replace_rows_plan`]).
    ReplaceRowsP(Var, Var, IndexPlan),
    SumAll(Var),
    MeanAll(Var),
    /// Mean squared error against a constant target.
    Mse(Var, Tensor),
}

/// Tape handles of a GRU cell's nine parameters (see
/// [`crate::layers::GruCell`] for the equations).
#[derive(Debug, Clone, Copy)]
pub struct GruParams {
    /// Update-gate input weight.
    pub wz: Var,
    /// Update-gate recurrent weight.
    pub uz: Var,
    /// Update-gate bias.
    pub bz: Var,
    /// Reset-gate input weight.
    pub wr: Var,
    /// Reset-gate recurrent weight.
    pub ur: Var,
    /// Reset-gate bias.
    pub br: Var,
    /// Candidate input weight.
    pub wh: Var,
    /// Candidate recurrent weight.
    pub uh: Var,
    /// Candidate bias.
    pub bh: Var,
}

/// What a fused GRU step keeps for its backward pass, all `rows x hid`:
/// the update gate, the reset gate, the candidate, and `r ⊙ h`.
#[derive(Debug)]
struct GruSaved {
    z: Tensor,
    r: Tensor,
    c: Tensor,
    rh: Tensor,
}

impl Op {
    /// Scalars the op keeps besides its node value.
    fn saved_scalars(&self) -> usize {
        match self {
            Op::GruSeg { saved, .. } => 4 * saved.z.len(),
            _ => 0,
        }
    }
}

struct Node {
    op: Op,
    value: Tensor,
}

/// `(alpha, beta)` of [`Tape::one_minus`]'s affine map, shared by the fused
/// GRU step so its `1 - z` is the unfused step's expression.
const ONE_MINUS: (f64, f64) = (-1.0, 1.0);

/// `out += a * w` for one row `a`: `matmul_into`'s k-then-j loop with its
/// exact-zero skip, so every element's sum is bitwise the full product's.
fn row_times(a: &[f64], w: &Tensor, out: &mut [f64]) {
    for (&ak, w_row) in a.iter().zip(w.data().chunks_exact(w.cols())) {
        if ak == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(w_row) {
            *o += ak * b;
        }
    }
}

/// Column sums of `g`'s rows `lo..hi`, ascending from `+0.0`: the bias
/// gradient of one segment.
fn col_sums(g: &Tensor, lo: usize, hi: usize) -> Tensor {
    let mut gb = Tensor::zeros(1, g.cols());
    for r in lo..hi {
        for c in 0..g.cols() {
            gb.set(0, c, gb.get(0, c) + g.get(r, c));
        }
    }
    gb
}

/// Forward pass of [`Tape::gru_seg`], one row at a time: writes the output
/// and the saved gates, and returns whether every value the unfused step
/// records was finite. `scratch` holds `6 * hid` per-row temporaries.
///
/// INVARIANT: shapes were checked by `gru_seg`; every row slice below has
/// `hid` (or `in`) elements, so all indices `j < hid` are in bounds.
#[expect(
    clippy::indexing_slicing,
    reason = "j < hid and every row slice has hid elements, see INVARIANT above"
)]
fn gru_forward(
    [xv, hv]: [&Tensor; 2],
    [wz, uz, bz, wr, ur, br, wh, uh, bh]: [&Tensor; 9],
    out: &mut Tensor,
    saved: &mut GruSaved,
    scratch: &mut [f64],
) -> bool {
    let hid = out.cols();
    debug_assert!(scratch.len() == 6 * hid && hv.cols() == hid && bz.cols() == hid);
    let (alpha, beta) = ONE_MINUS;
    let (bz, br, bh) = (bz.row(0), br.row(0), bh.row(0));
    let mut finite = true;
    for i in 0..out.rows() {
        let (xrow, hrow) = (xv.row(i), hv.row(i));
        for v in scratch.iter_mut() {
            *v = 0.0;
        }
        let (xz, rest) = scratch.split_at_mut(hid);
        let (hz, rest) = rest.split_at_mut(hid);
        let (xr, rest) = rest.split_at_mut(hid);
        let (hr, rest) = rest.split_at_mut(hid);
        let (xh, rhu) = rest.split_at_mut(hid);
        row_times(xrow, wz, xz);
        row_times(hrow, uz, hz);
        row_times(xrow, wr, xr);
        row_times(hrow, ur, hr);
        row_times(xrow, wh, xh);
        let (z, r, rh) = (saved.z.row_mut(i), saved.r.row_mut(i), saved.rh.row_mut(i));
        for j in 0..hid {
            let zs0 = xz[j] + hz[j];
            let zs = zs0 + bz[j];
            z[j] = 1.0 / (1.0 + (-zs).exp());
            let rs0 = xr[j] + hr[j];
            let rs = rs0 + br[j];
            r[j] = 1.0 / (1.0 + (-rs).exp());
            rh[j] = r[j] * hrow[j];
            finite &= [
                xz[j], hz[j], zs0, zs, z[j], xr[j], hr[j], rs0, rs, r[j], rh[j],
            ]
            .iter()
            .all(|v| v.is_finite());
        }
        row_times(rh, uh, rhu);
        let (c, o) = (saved.c.row_mut(i), out.row_mut(i));
        for j in 0..hid {
            let cs0 = xh[j] + rhu[j];
            let cs = cs0 + bh[j];
            c[j] = cs.tanh();
            let zi = alpha * z[j] + beta;
            let keep = zi * hrow[j];
            let take = z[j] * c[j];
            o[j] = keep + take;
            finite &= [xh[j], rhu[j], cs0, cs, c[j], zi, keep, take, o[j]]
                .iter()
                .all(|v| v.is_finite());
        }
    }
    finite
}

/// A linear autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    poisoned: bool,
    /// Recycled value buffers, sorted by ascending capacity. `reset`
    /// drains node values here and sorts once; `alloc_tensor` removes the
    /// first buffer whose capacity fits, or drops the last (largest) on a
    /// miss.
    pool: Vec<Vec<f64>>,
    /// [`Tape::gru_seg`]'s per-row temporaries, kept so a GRU step does
    /// not allocate them on every call.
    gru_scratch: Vec<f64>,
    reuse_hits: u64,
    reuse_misses: u64,
    max_nodes: usize,
    max_scalars: usize,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clear the tape for the next forward pass, recycling every node's
    /// value buffer into the arena pool. High-water stats and reuse
    /// counters survive the reset (they are cumulative telemetry).
    pub fn reset(&mut self) {
        self.max_nodes = self.max_nodes.max(self.nodes.len());
        self.max_scalars = self.max_scalars.max(self.value_scalars());
        for node in self.nodes.drain(..) {
            self.pool.push(node.value.into_data());
            // A fused GRU step's saved gates.
            if let Op::GruSeg { saved, .. } = node.op {
                for t in [saved.z, saved.r, saved.c, saved.rh] {
                    self.pool.push(t.into_data());
                }
            }
        }
        // In place: steady-state resets must not allocate.
        self.pool.sort_unstable_by_key(Vec::capacity);
        self.poisoned = false;
    }

    /// Allocate (or recycle) a zeroed `rows x cols` value tensor: the
    /// smallest pooled buffer whose capacity fits, else a fresh exact-size
    /// buffer, in which case the largest pooled buffer (too small for this
    /// request) is dropped so the pool cannot accumulate buffers.
    fn alloc_tensor(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let fit = self.pool.partition_point(|b| b.capacity() < len);
        if fit < self.pool.len() {
            self.reuse_hits += 1;
            Tensor::from_buffer(rows, cols, self.pool.remove(fit))
        } else {
            self.reuse_misses += 1;
            self.pool.pop();
            Tensor::zeros(rows, cols)
        }
    }

    /// Total capacity, in scalars, of the recycled buffers the arena pool
    /// holds: the memory a reused tape keeps between passes.
    pub fn pool_scalars(&self) -> usize {
        self.pool.iter().map(Vec::capacity).sum()
    }

    /// Cumulative count of value buffers recycled from the arena pool.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// Cumulative count of value buffers that had to be freshly allocated.
    pub fn reuse_misses(&self) -> u64 {
        self.reuse_misses
    }

    /// High-water node count across all resets (plus the live tape).
    pub fn max_nodes(&self) -> usize {
        self.max_nodes.max(self.nodes.len())
    }

    /// High-water value-scalar count across all resets (plus the live tape).
    pub fn max_scalars(&self) -> usize {
        self.max_scalars.max(self.value_scalars())
    }

    /// True if any recorded node produced a non-finite value. A poisoned
    /// tape still evaluates and differentiates (NaN/inf propagate), so the
    /// caller — e.g. the trainer's divergence-recovery loop — can observe
    /// the blow-up and roll back instead of crashing mid-run.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of scalars held in node values and in the activations
    /// fused ops save for backward — the working-set size of one recorded
    /// forward pass. Together with [`Tape::len`] this is the telemetry
    /// probe for per-sample autodiff cost: node count tracks op dispatch
    /// overhead, scalar count tracks memory traffic.
    pub fn value_scalars(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.value.len() + n.op.saved_scalars())
            .sum()
    }

    /// Value of a node.
    ///
    /// INVARIANT: every `Var` is minted by `push` on this tape and therefore
    /// indexes into `nodes`; tapes are not interchangeable across sessions.
    #[expect(
        clippy::indexing_slicing,
        reason = "Var minted by this tape, see INVARIANT above"
    )]
    pub fn value(&self, v: Var) -> &Tensor {
        debug_assert!(v.0 < self.nodes.len(), "Var from a different tape");
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        // Non-finite values are a runtime condition (divergence), not a
        // programming error: record the poisoning instead of asserting so
        // recovery loops can roll back to a good state.
        if !value.all_finite() {
            self.poisoned = true;
        }
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Register a leaf (input or parameter).
    ///
    /// The caller-provided tensor enters the tape as-is; its buffer joins
    /// the arena pool at the next `reset`. Loops that reset the tape should
    /// prefer [`Tape::leaf_copied`], which *draws* the buffer from the pool
    /// and therefore keeps pool pushes and pops balanced.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t)
    }

    /// Register a leaf by copying `src` into an arena-recycled buffer.
    pub fn leaf_copied(&mut self, src: &Tensor) -> Var {
        let mut t = self.alloc_tensor(src.rows(), src.cols());
        t.copy_from(src);
        self.push(Op::Leaf, t)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let ar = self.value(a).rows();
        let bc = self.value(b).cols();
        let mut v = self.alloc_tensor(ar, bc);
        self.value(a).matmul_into(self.value(b), &mut v);
        self.push(Op::MatMul(a, b), v)
    }

    /// Elementwise sum of two same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (r, c), "add shape mismatch");
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        let bv = self.value(b);
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
            *o = x + y;
        }
        self.push(Op::Add(a, b), v)
    }

    /// Add a `1 x cols` row vector to every row of `a` (bias add).
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(br, 1, "add_row rhs must be a row vector");
        assert_eq!(ac, bc, "add_row width mismatch");
        let mut v = self.alloc_tensor(ar, ac);
        let av = self.value(a);
        let bv = self.value(b);
        for r in 0..ar {
            for c in 0..ac {
                v.set(r, c, av.get(r, c) + bv.get(0, c));
            }
        }
        self.push(Op::AddRow(a, b), v)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (r, c), "mul shape mismatch");
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        let bv = self.value(b);
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
            *o = x * y;
        }
        self.push(Op::Mul(a, b), v)
    }

    /// `alpha * a + beta` elementwise.
    pub fn affine(&mut self, a: Var, alpha: f64, beta: f64) -> Var {
        let (r, c) = self.value(a).shape();
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = alpha * x + beta;
        }
        self.push(Op::Affine(a, alpha, beta), v)
    }

    /// `1 - a` elementwise (GRU gate complement).
    pub fn one_minus(&mut self, a: Var) -> Var {
        self.affine(a, ONE_MINUS.0, ONE_MINUS.1)
    }

    /// Elementwise product with a constant (no gradient flows into `c`).
    pub fn mul_const(&mut self, a: Var, c: &Tensor) -> Var {
        let (r, cc) = self.value(a).shape();
        assert_eq!(c.shape(), (r, cc), "mul_const shape mismatch");
        let mut v = self.alloc_tensor(r, cc);
        let av = self.value(a);
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(av.data()).zip(c.data()) {
            *o = x * y;
        }
        self.push(Op::MulConst(a, c.clone()), v)
    }

    /// `mul_const` against a shared constant: pushing the op bumps an `Arc`
    /// refcount instead of copying the tensor. Use for masks/weights that
    /// are applied every pass (e.g. the trainer's per-row loss weights).
    /// Gradient behaviour is identical to [`Tape::mul_const`].
    pub fn mul_const_shared(&mut self, a: Var, c: &Arc<Tensor>) -> Var {
        let (r, cc) = self.value(a).shape();
        assert_eq!(c.shape(), (r, cc), "mul_const_shared shape mismatch");
        let mut v = self.alloc_tensor(r, cc);
        let av = self.value(a);
        for ((o, &x), &y) in v.data_mut().iter_mut().zip(av.data()).zip(c.data()) {
            *o = x * y;
        }
        self.push(Op::MulConstShared(a, Arc::clone(c)), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = 1.0 / (1.0 + (-x).exp());
        }
        self.push(Op::Sigmoid(a), v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = x.tanh();
        }
        self.push(Op::Tanh(a), v)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let (r, c) = self.value(a).shape();
        let mut v = self.alloc_tensor(r, c);
        let av = self.value(a);
        for (o, &x) in v.data_mut().iter_mut().zip(av.data()) {
            *o = x.max(0.0);
        }
        self.push(Op::Relu(a), v)
    }

    /// Row gather: `out[i, :] = a[idx[i], :]`. Indices may repeat.
    pub fn gather_rows(&mut self, a: Var, idx: Vec<usize>) -> Var {
        let (rows, cols) = self.value(a).shape();
        for &i in &idx {
            assert!(i < rows, "gather index {i} out of {rows} rows");
        }
        let mut v = self.alloc_tensor(idx.len(), cols);
        let av = self.value(a);
        for (r, &i) in idx.iter().enumerate() {
            v.copy_row_from(r, av, i);
        }
        self.push(Op::GatherRows(a, idx), v)
    }

    /// [`Tape::gather_rows`] with a precomputed shared index plan: pushing
    /// the op bumps an `Arc` refcount instead of copying the index vector.
    pub fn gather_rows_plan(&mut self, a: Var, plan: &IndexPlan) -> Var {
        let (rows, cols) = self.value(a).shape();
        for &i in plan.indices() {
            assert!(i < rows, "gather index {i} out of {rows} rows");
        }
        let mut v = self.alloc_tensor(plan.len(), cols);
        let av = self.value(a);
        for (r, &i) in plan.indices().iter().enumerate() {
            v.copy_row_from(r, av, i);
        }
        self.push(Op::GatherRowsP(a, plan.clone()), v)
    }

    /// Row scatter-add: `out[idx[i], :] += a[i, :]` into a fresh
    /// `out_rows x cols` zero tensor. The message-aggregation primitive.
    pub fn scatter_add_rows(&mut self, a: Var, idx: Vec<usize>, out_rows: usize) -> Var {
        let (in_rows, cols) = self.value(a).shape();
        assert_eq!(idx.len(), in_rows, "one index per input row required");
        for &i in &idx {
            assert!(i < out_rows, "scatter index {i} out of {out_rows} rows");
        }
        let mut v = self.alloc_tensor(out_rows, cols);
        let av = self.value(a);
        for (r, &i) in idx.iter().enumerate() {
            for c in 0..cols {
                v.set(i, c, v.get(i, c) + av.get(r, c));
            }
        }
        self.push(Op::ScatterAddRows(a, idx), v)
    }

    /// [`Tape::scatter_add_rows`] with a precomputed shared index plan.
    pub fn scatter_add_rows_plan(&mut self, a: Var, plan: &IndexPlan, out_rows: usize) -> Var {
        let (in_rows, cols) = self.value(a).shape();
        assert_eq!(plan.len(), in_rows, "one index per input row required");
        for &i in plan.indices() {
            assert!(i < out_rows, "scatter index {i} out of {out_rows} rows");
        }
        let mut v = self.alloc_tensor(out_rows, cols);
        let av = self.value(a);
        for (r, &i) in plan.indices().iter().enumerate() {
            for c in 0..cols {
                v.set(i, c, v.get(i, c) + av.get(r, c));
            }
        }
        self.push(Op::ScatterAddRowsP(a, plan.clone()), v)
    }

    /// `state` with row `plan[i]` replaced by row `i` of `rows`: the
    /// in-place path-state update of one message-passing position. Indices
    /// must be distinct.
    ///
    /// One node for the `mul_const` (0 on replaced rows, 1 elsewhere),
    /// `scatter_add_rows_plan` and `add` the update used to record, with
    /// their arithmetic: a replaced row is `(state * 0.0) + (0.0 + rows)`,
    /// any other row `(state * 1.0) + 0.0`, and backward hands `rows` the
    /// gradient of its target rows and `state` the gradient times that
    /// 0/1 mask. Signed zeros and NaN therefore come out bitwise as they
    /// did through the three ops.
    pub fn replace_rows_plan(&mut self, state: Var, rows: Var, plan: &IndexPlan) -> Var {
        let (n, cols) = self.value(state).shape();
        assert_eq!(
            self.value(rows).shape(),
            (plan.len(), cols),
            "replace_rows_plan needs one row per index"
        );
        for &i in plan.indices() {
            assert!(i < n, "replace index {i} out of {n} rows");
        }
        debug_assert!(
            {
                let mut seen = vec![false; n];
                plan.indices()
                    .iter()
                    .all(|&i| seen.get_mut(i).is_some_and(|s| !std::mem::replace(s, true)))
            },
            "replace_rows_plan indices must be distinct"
        );
        let mut v = self.alloc_tensor(n, cols);
        let sv = self.value(state);
        let rv = self.value(rows);
        for (o, &s) in v.data_mut().iter_mut().zip(sv.data()) {
            *o = s * 1.0 + 0.0;
        }
        for (r, &i) in plan.indices().iter().enumerate() {
            for ((o, &s), &x) in v.row_mut(i).iter_mut().zip(sv.row(i)).zip(rv.row(r)) {
                *o = s * 0.0 + (0.0 + x);
            }
        }
        self.push(Op::ReplaceRowsP(state, rows, plan.clone()), v)
    }

    /// Batched matrix product `a * b` where `a`'s rows are the concatenation
    /// of per-sample row blocks (per `seg`) and `b` is a weight shared by
    /// every sample. The forward value is bitwise identical to
    /// [`Tape::matmul`]; the backward pass accumulates `b`'s gradient into
    /// per-segment slots (see [`Gradients::seg_get`]) so each sample's
    /// weight gradient is exactly what a per-sample tape would produce.
    pub fn seg_matmul(&mut self, a: Var, b: Var, seg: &SegmentPlan) -> Var {
        let ar = self.value(a).rows();
        assert_eq!(seg.total(), ar, "seg_matmul segment coverage mismatch");
        let bc = self.value(b).cols();
        let mut v = self.alloc_tensor(ar, bc);
        self.value(a).matmul_into(self.value(b), &mut v);
        self.push(Op::SegMatMul(a, b, seg.clone()), v)
    }

    /// Batched bias add (`add_row` over concatenated row blocks). Forward is
    /// bitwise identical to [`Tape::add_row`]; backward keeps per-segment
    /// bias-gradient partials separate, like [`Tape::seg_matmul`].
    pub fn seg_add_row(&mut self, a: Var, b: Var, seg: &SegmentPlan) -> Var {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(br, 1, "seg_add_row rhs must be a row vector");
        assert_eq!(ac, bc, "seg_add_row width mismatch");
        assert_eq!(seg.total(), ar, "seg_add_row segment coverage mismatch");
        let mut v = self.alloc_tensor(ar, ac);
        let av = self.value(a);
        let bv = self.value(b);
        for r in 0..ar {
            for c in 0..ac {
                v.set(r, c, av.get(r, c) + bv.get(0, c));
            }
        }
        self.push(Op::SegAddRow(a, b, seg.clone()), v)
    }

    /// Fused segment-aware GRU step over `x` (`rows x in`) and `h`
    /// (`rows x hid`): one node for the twenty that
    /// [`crate::layers::GruCell::step`] records.
    ///
    /// Each output element is computed with the unfused step's expressions
    /// in its sum order (the gate products run row by row in
    /// [`Tensor::matmul_into`]'s loop order), so the value is bitwise the
    /// unfused step's. The node keeps only `z`, `r`, `c` and `r ⊙ h`, drawn
    /// from the arena after its output. Its hand-written backward applies
    /// the partials of `x`, `h`, and every weight and bias per segment
    /// through the same accumulations, in the same order, as the unfused
    /// tape (`h` may already hold a gradient from later ops), so gradients
    /// are bitwise identical as well; empty segments contribute nothing.
    /// The tape is poisoned when any value the unfused step would have
    /// recorded is non-finite, even if the output is finite.
    pub fn gru_seg(&mut self, x: Var, h: Var, p: &GruParams, seg: &SegmentPlan) -> Var {
        let (rows, in_dim) = self.value(x).shape();
        let hid = self.value(h).cols();
        assert!(in_dim > 0 && hid > 0, "gru_seg needs non-empty widths");
        assert_eq!(self.value(h).rows(), rows, "gru_seg row mismatch");
        assert_eq!(seg.total(), rows, "gru_seg segment coverage mismatch");
        for (w, shape) in [
            (p.wz, (in_dim, hid)),
            (p.wr, (in_dim, hid)),
            (p.wh, (in_dim, hid)),
            (p.uz, (hid, hid)),
            (p.ur, (hid, hid)),
            (p.uh, (hid, hid)),
            (p.bz, (1, hid)),
            (p.br, (1, hid)),
            (p.bh, (1, hid)),
        ] {
            assert_eq!(self.value(w).shape(), shape, "gru_seg parameter shape");
        }
        let mut out = self.alloc_tensor(rows, hid);
        let mut saved = GruSaved {
            z: self.alloc_tensor(rows, hid),
            r: self.alloc_tensor(rows, hid),
            c: self.alloc_tensor(rows, hid),
            rh: self.alloc_tensor(rows, hid),
        };
        let mut scratch = std::mem::take(&mut self.gru_scratch);
        scratch.resize(6 * hid, 0.0);
        let finite = gru_forward(
            [self.value(x), self.value(h)],
            [
                self.value(p.wz),
                self.value(p.uz),
                self.value(p.bz),
                self.value(p.wr),
                self.value(p.ur),
                self.value(p.br),
                self.value(p.wh),
                self.value(p.uh),
                self.value(p.bh),
            ],
            &mut out,
            &mut saved,
            &mut scratch,
        );
        self.gru_scratch = scratch;
        if !finite {
            self.poisoned = true;
        }
        let op = Op::GruSeg {
            x,
            h,
            p: *p,
            seg: seg.clone(),
            saved,
        };
        self.push(op, out)
    }

    /// Per-segment mean squared error: `out[s, 0]` is the MSE between
    /// `pred`'s and `target`'s rows in segment `s`, folded in flat
    /// row-major order — exactly the fold [`Tape::mse`] performs on one
    /// sample's rows, so batched per-sample losses are bitwise identical
    /// to per-sample `mse` calls. Panics on empty segments.
    pub fn seg_mse(&mut self, pred: Var, target: &Tensor, seg: &SegmentPlan) -> Var {
        let (pr, cols) = self.value(pred).shape();
        assert_eq!(target.shape(), (pr, cols), "seg_mse shape mismatch");
        assert_eq!(seg.total(), pr, "seg_mse segment coverage mismatch");
        let n_seg = seg.n_segments();
        let mut v = self.alloc_tensor(n_seg, 1);
        let p = self.value(pred);
        for s in 0..n_seg {
            let (lo, hi) = seg.range(s);
            assert!(hi > lo, "seg_mse requires non-empty segments");
            let n = ((hi - lo) * cols) as f64;
            debug_assert!(n > 0.0, "segments are non-empty and cols > 0");
            #[expect(
                clippy::indexing_slicing,
                reason = "segment offsets validated against pred rows, and target shape equals pred shape, both asserted above"
            )]
            let loss = p.data()[lo * cols..hi * cols]
                .iter()
                .zip(&target.data()[lo * cols..hi * cols])
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>()
                / n;
            v.set(s, 0, loss);
        }
        self.push(Op::SegMse(pred, target.clone(), seg.clone()), v)
    }

    /// Sum of all elements (`1 x 1`).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.value(a).sum();
        let mut v = self.alloc_tensor(1, 1);
        v.set(0, 0, s);
        self.push(Op::SumAll(a), v)
    }

    /// Mean of all elements (`1 x 1`).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let n = av.len() as f64;
        debug_assert!(n > 0.0, "mean_all on an empty tensor would be NaN");
        let m = av.sum() / n;
        let mut v = self.alloc_tensor(1, 1);
        v.set(0, 0, m);
        self.push(Op::MeanAll(a), v)
    }

    /// Mean squared error between `pred` and a constant `target` (`1 x 1`).
    pub fn mse(&mut self, pred: Var, target: &Tensor) -> Var {
        assert_eq!(
            self.value(pred).shape(),
            target.shape(),
            "mse shape mismatch"
        );
        let mut v = self.alloc_tensor(1, 1);
        let p = self.value(pred);
        let n = p.len() as f64;
        debug_assert!(n > 0.0, "mse on an empty tensor would be NaN");
        let loss = p
            .data()
            .iter()
            .zip(target.data())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            / n;
        v.set(0, 0, loss);
        self.push(Op::Mse(pred, target.clone()), v)
    }

    /// Reverse pass from `loss` (must be `1 x 1`). Returns the accumulated
    /// gradients of the leaves (inputs and parameters) only: an interior
    /// node's gradient is dropped as soon as it has propagated, so the pass
    /// never holds more than the gradients still waiting to propagate.
    /// INVARIANT: `grads` has exactly one slot per tape node, so every node
    /// id (and every `Var` recorded inside an op, which predates its node)
    /// indexes into it.
    #[expect(
        clippy::indexing_slicing,
        reason = "one grad slot per node and i <= loss.0 < nodes.len() == grads.len(), see INVARIANT above"
    )]
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        debug_assert!(loss.0 < self.nodes.len(), "loss Var from a different tape");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        let mut seg: Vec<Option<Vec<Option<Tensor>>>> =
            (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::from_vec(1, 1, vec![1.0]));
        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            debug_assert!(
                self.poisoned || g.all_finite(),
                "non-finite gradient reached node {i} on a clean tape"
            );
            self.accumulate(i, &g, &mut grads, &mut seg);
            if matches!(self.nodes[i].op, Op::Leaf) {
                grads[i] = Some(g);
            }
        }
        Gradients { grads, seg }
    }

    /// INVARIANT: callers pass `i < self.nodes.len()` and `grads`/`seg`
    /// slices with one slot per node; ops only reference `Var`s older than
    /// their own node, so `v.0 < i` for every operand.
    fn accumulate(
        &self,
        i: usize,
        g: &Tensor,
        grads: &mut [Option<Tensor>],
        seg: &mut [Option<Vec<Option<Tensor>>>],
    ) {
        debug_assert!(i < self.nodes.len() && grads.len() == self.nodes.len());
        let poisoned = self.poisoned;
        let add_to = move |grads: &mut [Option<Tensor>], v: Var, delta: Tensor| {
            debug_assert!(
                poisoned || delta.all_finite(),
                "non-finite partial for node {} on a clean tape",
                v.0
            );
            #[expect(
                clippy::indexing_slicing,
                reason = "operand Vars predate node i, see INVARIANT above"
            )]
            match &mut grads[v.0] {
                Some(existing) => existing.add_scaled(&delta, 1.0),
                slot @ None => *slot = Some(delta),
            }
        };
        // Per-segment counterpart of `add_to`: partials land in the seg slot
        // for (node, segment) with the same Some/None accumulate semantics,
        // so each segment's fold is exactly the per-sample fold.
        let add_seg = move |seg: &mut [Option<Vec<Option<Tensor>>>],
                            v: Var,
                            s: usize,
                            n_seg: usize,
                            delta: Tensor| {
            debug_assert!(
                poisoned || delta.all_finite(),
                "non-finite seg partial for node {} on a clean tape",
                v.0
            );
            #[expect(
                clippy::indexing_slicing,
                reason = "operand Vars predate node i, see INVARIANT above"
            )]
            let slots = seg[v.0].get_or_insert_with(|| (0..n_seg).map(|_| None).collect());
            debug_assert_eq!(slots.len(), n_seg, "segment count mismatch across ops");
            #[expect(
                clippy::indexing_slicing,
                reason = "s < n_seg == slots.len() by construction"
            )]
            match &mut slots[s] {
                Some(existing) => existing.add_scaled(&delta, 1.0),
                slot @ None => *slot = Some(delta),
            }
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "i bounds-checked by the debug_assert above, see INVARIANT"
        )]
        let node = &self.nodes[i];
        match &node.op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                add_to(grads, *a, g.matmul(&bv.transpose()));
                // matmul_t_rows over the full row range is bitwise identical
                // to `av.transpose().matmul(g)` minus the transpose copy.
                add_to(grads, *b, av.matmul_t_rows(g, 0, av.rows()));
            }
            Op::Add(a, b) => {
                add_to(grads, *a, g.clone());
                add_to(grads, *b, g.clone());
            }
            Op::AddRow(a, b) => {
                add_to(grads, *a, g.clone());
                add_to(grads, *b, col_sums(g, 0, g.rows()));
            }
            Op::Mul(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                add_to(grads, *a, g.zip(bv, |x, y| x * y));
                add_to(grads, *b, g.zip(av, |x, y| x * y));
            }
            Op::Affine(a, alpha, _beta) => {
                add_to(grads, *a, g.map(|x| alpha * x));
            }
            Op::MulConst(a, c) => {
                add_to(grads, *a, g.zip(c, |x, y| x * y));
            }
            Op::Sigmoid(a) => {
                let y = &node.value;
                add_to(grads, *a, g.zip(y, |gx, yx| gx * yx * (1.0 - yx)));
            }
            Op::Tanh(a) => {
                let y = &node.value;
                add_to(grads, *a, g.zip(y, |gx, yx| gx * (1.0 - yx * yx)));
            }
            Op::Relu(a) => {
                let x = self.value(*a);
                add_to(
                    grads,
                    *a,
                    g.zip(x, |gx, xv| if xv > 0.0 { gx } else { 0.0 }),
                );
            }
            Op::GatherRows(a, idx) => {
                let rows = self.value(*a).rows();
                let mut ga = Tensor::zeros(rows, g.cols());
                for (r, &i) in idx.iter().enumerate() {
                    for c in 0..g.cols() {
                        ga.set(i, c, ga.get(i, c) + g.get(r, c));
                    }
                }
                add_to(grads, *a, ga);
            }
            Op::ScatterAddRows(a, idx) => {
                let mut ga = Tensor::zeros(idx.len(), g.cols());
                for (r, &i) in idx.iter().enumerate() {
                    ga.copy_row_from(r, g, i);
                }
                add_to(grads, *a, ga);
            }
            Op::GatherRowsP(a, plan) => {
                let rows = self.value(*a).rows();
                let mut ga = Tensor::zeros(rows, g.cols());
                for (r, &i) in plan.indices().iter().enumerate() {
                    for c in 0..g.cols() {
                        ga.set(i, c, ga.get(i, c) + g.get(r, c));
                    }
                }
                add_to(grads, *a, ga);
            }
            Op::ScatterAddRowsP(a, plan) => {
                let mut ga = Tensor::zeros(plan.len(), g.cols());
                for (r, &i) in plan.indices().iter().enumerate() {
                    ga.copy_row_from(r, g, i);
                }
                add_to(grads, *a, ga);
            }
            Op::MulConstShared(a, c) => {
                add_to(grads, *a, g.zip(c, |x, y| x * y));
            }
            Op::ReplaceRowsP(state, rows, plan) => {
                // The partials in the order the unfused chain made them:
                // the scatter's to `rows`, then the 0/1 mask's to `state`.
                let mut gr = Tensor::zeros(plan.len(), g.cols());
                for (r, &i) in plan.indices().iter().enumerate() {
                    gr.copy_row_from(r, g, i);
                }
                add_to(grads, *rows, gr);
                let mut gs = g.map(|x| x * 1.0);
                for &i in plan.indices() {
                    for (o, &x) in gs.row_mut(i).iter_mut().zip(g.row(i)) {
                        *o = x * 0.0;
                    }
                }
                add_to(grads, *state, gs);
            }
            Op::GruSeg {
                x,
                h,
                p,
                seg: plan,
                saved,
            } => {
                let xv = self.value(*x);
                let hv = self.value(*h);
                let GruSaved { z, r, c, rh } = saved;
                let (alpha, beta) = ONE_MINUS;
                let n_seg = plan.n_segments();
                // Weight and bias partials per non-empty segment, exactly
                // as `SegMatMul` and `SegAddRow` make them.
                let weight =
                    |seg: &mut [Option<Vec<Option<Tensor>>>], w: Var, a: &Tensor, d: &Tensor| {
                        for s in 0..n_seg {
                            let (lo, hi) = plan.range(s);
                            if lo < hi {
                                add_seg(seg, w, s, n_seg, a.matmul_t_rows(d, lo, hi));
                            }
                        }
                    };
                let bias = |seg: &mut [Option<Vec<Option<Tensor>>>], b: Var, d: &Tensor| {
                    for s in 0..n_seg {
                        let (lo, hi) = plan.range(s);
                        if lo < hi {
                            add_seg(seg, b, s, n_seg, col_sums(d, lo, hi));
                        }
                    }
                };
                // The unfused nodes in reverse, each with its own arm's
                // expression: `out = keep + take`, `take = z ⊙ c`,
                // `keep = (1 - z) ⊙ h` (h's first partial), `1 - z`, then
                // the candidate's tanh and the update gate's sigmoid.
                let dh = g.zip(&z.map(|v| alpha * v + beta), |x, y| x * y);
                let mut gz = g.zip(c, |x, y| x * y);
                gz.add_scaled(&g.zip(hv, |x, y| x * y).map(|x| alpha * x), 1.0);
                let gcs = g.zip(z, |x, y| x * y).zip(c, |gx, yx| gx * (1.0 - yx * yx));
                let gzs = gz.zip(z, |gx, yx| gx * yx * (1.0 - yx));
                add_to(grads, *h, dh);
                // Candidate: bias, `(r ⊙ h) Uh`, `x Wh`.
                bias(seg, p.bh, &gcs);
                let grh = gcs.matmul(&self.value(p.uh).transpose());
                weight(seg, p.uh, rh, &gcs);
                add_to(grads, *x, gcs.matmul(&self.value(p.wh).transpose()));
                weight(seg, p.wh, xv, &gcs);
                // `r ⊙ h` (h's second partial) and the reset gate.
                let dh = grh.zip(r, |x, y| x * y);
                let grs = grh
                    .zip(hv, |x, y| x * y)
                    .zip(r, |gx, yx| gx * yx * (1.0 - yx));
                add_to(grads, *h, dh);
                bias(seg, p.br, &grs);
                add_to(grads, *h, grs.matmul(&self.value(p.ur).transpose()));
                weight(seg, p.ur, hv, &grs);
                add_to(grads, *x, grs.matmul(&self.value(p.wr).transpose()));
                weight(seg, p.wr, xv, &grs);
                // Update gate.
                bias(seg, p.bz, &gzs);
                add_to(grads, *h, gzs.matmul(&self.value(p.uz).transpose()));
                weight(seg, p.uz, hv, &gzs);
                add_to(grads, *x, gzs.matmul(&self.value(p.wz).transpose()));
                weight(seg, p.wz, xv, &gzs);
            }
            Op::SegMatMul(a, b, plan) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                add_to(grads, *a, g.matmul(&bv.transpose()));
                // Weight gradient per segment: the slice product
                // a[lo..hi]^T * g[lo..hi] is exactly the per-sample
                // `av.transpose().matmul(g)` for that sample's rows. Empty
                // segments contribute nothing — matching a per-sample tape
                // where the op simply would not exist.
                let n_seg = plan.n_segments();
                for s in 0..n_seg {
                    let (lo, hi) = plan.range(s);
                    if lo == hi {
                        continue;
                    }
                    let gb = av.matmul_t_rows(g, lo, hi);
                    add_seg(seg, *b, s, n_seg, gb);
                }
            }
            Op::SegAddRow(a, b, plan) => {
                add_to(grads, *a, g.clone());
                // Bias gradient per segment: ascending-row column sums over
                // that segment's rows — the per-sample AddRow fold.
                let n_seg = plan.n_segments();
                for s in 0..n_seg {
                    let (lo, hi) = plan.range(s);
                    if lo == hi {
                        continue;
                    }
                    add_seg(seg, *b, s, n_seg, col_sums(g, lo, hi));
                }
            }
            Op::SegMse(p, target, plan) => {
                let pv = self.value(*p);
                let cols = pv.cols();
                let mut gp = Tensor::zeros(pv.rows(), cols);
                for s in 0..plan.n_segments() {
                    let (lo, hi) = plan.range(s);
                    let n = ((hi - lo) * cols) as f64;
                    let gs = g.get(s, 0);
                    for r in lo..hi {
                        for c in 0..cols {
                            // Same expression as the Mse arm below, with the
                            // per-segment upstream scalar and element count.
                            gp.set(r, c, 2.0 * (pv.get(r, c) - target.get(r, c)) * gs / n);
                        }
                    }
                }
                add_to(grads, *p, gp);
            }
            Op::SumAll(a) => {
                let s = g.get(0, 0);
                let (r, c) = self.value(*a).shape();
                add_to(grads, *a, Tensor::full(r, c, s));
            }
            Op::MeanAll(a) => {
                let av = self.value(*a);
                let n = av.len() as f64;
                debug_assert!(n > 0.0, "forward pass rejected the empty tensor");
                let s = g.get(0, 0) / n;
                let (r, c) = av.shape();
                add_to(grads, *a, Tensor::full(r, c, s));
            }
            Op::Mse(p, target) => {
                let pv = self.value(*p);
                let n = pv.len() as f64;
                debug_assert!(n > 0.0);
                let s = g.get(0, 0);
                let gp = pv.zip(target, |a, b| 2.0 * (a - b) * s / n);
                add_to(grads, *p, gp);
            }
        }
    }
}

/// Result of a backward pass: the gradients of the tape's leaves.
pub struct Gradients {
    /// One slot per node; only leaf slots are ever filled.
    grads: Vec<Option<Tensor>>,
    /// Per-(node, segment) partials from segment-aware ops. Kept separate
    /// from `grads` so each segment's accumulation order is exactly the
    /// per-sample order — merging them into one slot would change the
    /// floating-point fold.
    seg: Vec<Option<Vec<Option<Tensor>>>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. leaf `v` (an input or parameter), if it
    /// received any. Always `None` for a non-leaf node: backward drops an
    /// interior gradient once it has propagated.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Per-segment gradient of the loss w.r.t. node `v` restricted to
    /// segment `s` (from `seg_matmul` / `seg_add_row`), if any.
    pub fn seg_get(&self, v: Var, s: usize) -> Option<&Tensor> {
        self.seg
            .get(v.0)
            .and_then(|o| o.as_ref())
            .and_then(|slots| slots.get(s))
            .and_then(|g| g.as_ref())
    }

    /// True if node `v` received any per-segment partials.
    pub fn has_seg(&self, v: Var) -> bool {
        self.seg.get(v.0).is_some_and(|o| o.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference check of `d loss / d leaf` for every element
    /// of every listed leaf.
    fn grad_check(build: impl Fn(&mut Tape, &[Tensor]) -> Var, leaves: &[Tensor], tol: f64) {
        // Analytic gradients.
        let mut tape = Tape::new();
        let vars: Vec<Var> = leaves.iter().map(|t| tape.leaf(t.clone())).collect();
        let loss = build(&mut tape, leaves);
        let grads = tape.backward(loss);
        let eps = 1e-6;
        for (li, leaf) in leaves.iter().enumerate() {
            let analytic =
                total_grad(&grads, vars[li]).unwrap_or_else(|| panic!("leaf {li} got no gradient"));
            for e in 0..leaf.len() {
                let mut plus = leaves.to_vec();
                plus[li].data_mut()[e] += eps;
                let mut t1 = Tape::new();
                for t in &plus {
                    t1.leaf(t.clone());
                }
                let l1 = build(&mut t1, &plus);
                let mut minus = leaves.to_vec();
                minus[li].data_mut()[e] -= eps;
                let mut t2 = Tape::new();
                for t in &minus {
                    t2.leaf(t.clone());
                }
                let l2 = build(&mut t2, &minus);
                let numeric = (t1.value(l1).get(0, 0) - t2.value(l2).get(0, 0)) / (2.0 * eps);
                let a = analytic.data()[e];
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "leaf {li} elem {e}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    /// A leaf's whole gradient: its plain slot, or else the sum of its
    /// per-segment slots (parameters of segment ops have only those).
    fn total_grad(grads: &Gradients, v: Var) -> Option<Tensor> {
        if let Some(g) = grads.get(v) {
            return Some(g.clone());
        }
        let mut parts = grads.seg.get(v.0)?.as_ref()?.iter().flatten();
        let mut sum = parts.next()?.clone();
        for t in parts {
            sum.add_scaled(t, 1.0);
        }
        Some(sum)
    }

    fn bits(t: &Tensor) -> Vec<u64> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn rand_t(r: usize, c: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::xavier(r, c, &mut rng)
    }

    #[test]
    fn value_scalars_counts_all_node_values() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(2, 3)); // 6 scalars
        let b = tape.leaf(Tensor::zeros(2, 3)); // 6 scalars
        let s = tape.add(a, b); // 6 scalars
        let _total = tape.sum_all(s); // 1 scalar
        assert_eq!(tape.len(), 4);
        assert_eq!(tape.value_scalars(), 19);
    }

    #[test]
    fn grad_matmul_chain() {
        let a = rand_t(3, 4, 1);
        let b = rand_t(4, 2, 2);
        grad_check(
            |tape, _| {
                let (va, vb) = (Var(0), Var(1));
                let c = tape.matmul(va, vb);
                tape.sum_all(c)
            },
            &[a, b],
            1e-6,
        );
    }

    #[test]
    fn grad_elementwise_ops() {
        let a = rand_t(2, 3, 3);
        let b = rand_t(2, 3, 4);
        grad_check(
            |tape, _| {
                let (va, vb) = (Var(0), Var(1));
                let s = tape.add(va, vb);
                let m = tape.mul(s, va);
                let f = tape.affine(m, 0.5, -0.1);
                tape.mean_all(f)
            },
            &[a, b],
            1e-6,
        );
    }

    #[test]
    fn grad_activations() {
        let a = rand_t(2, 4, 5);
        for act in 0..3 {
            grad_check(
                |tape, _| {
                    let va = Var(0);
                    let y = match act {
                        0 => tape.sigmoid(va),
                        1 => tape.tanh(va),
                        _ => tape.relu(va),
                    };
                    tape.sum_all(y)
                },
                std::slice::from_ref(&a),
                1e-5,
            );
        }
    }

    #[test]
    fn grad_add_row_broadcast() {
        let a = rand_t(3, 4, 6);
        let b = rand_t(1, 4, 7);
        grad_check(
            |tape, _| {
                let (va, vb) = (Var(0), Var(1));
                let y = tape.add_row(va, vb);
                let z = tape.tanh(y);
                tape.mean_all(z)
            },
            &[a, b],
            1e-6,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        let a = rand_t(4, 3, 10);
        grad_check(
            |tape, _| {
                let va = Var(0);
                let gathered = tape.gather_rows(va, vec![0, 2, 2, 3, 1]);
                let act = tape.tanh(gathered);
                let scattered = tape.scatter_add_rows(act, vec![1, 0, 1, 2, 2], 3);
                tape.sum_all(scattered)
            },
            &[a],
            1e-6,
        );
    }

    #[test]
    fn grad_mse() {
        let p = rand_t(3, 2, 11);
        let target = rand_t(3, 2, 12);
        grad_check(move |tape, _| tape.mse(Var(0), &target), &[p], 1e-6);
    }

    #[test]
    fn grad_mul_const_and_one_minus() {
        let a = rand_t(2, 3, 13);
        let mask = Tensor::from_fn(2, 3, |r, c| if (r + c) % 2 == 0 { 1.0 } else { 0.3 });
        grad_check(
            move |tape, _| {
                let va = Var(0);
                let m = tape.mul_const(va, &mask);
                let o = tape.one_minus(m);
                tape.mean_all(o)
            },
            &[a],
            1e-6,
        );
    }

    #[test]
    fn grad_gru_like_composite() {
        // A full GRU-style cell wired by hand: the most representative
        // composite for RouteNet.
        let x = rand_t(5, 3, 20);
        let h = rand_t(5, 4, 21);
        let wz = rand_t(3, 4, 22);
        let uz = rand_t(4, 4, 23);
        let bz = rand_t(1, 4, 24);
        let wh = rand_t(3, 4, 25);
        let uh = rand_t(4, 4, 26);
        grad_check(
            |tape, _| {
                let (x, h, wz, uz, bz, wh, uh) =
                    (Var(0), Var(1), Var(2), Var(3), Var(4), Var(5), Var(6));
                let xw = tape.matmul(x, wz);
                let hu = tape.matmul(h, uz);
                let s = tape.add(xw, hu);
                let s = tape.add_row(s, bz);
                let z = tape.sigmoid(s);
                let xwh = tape.matmul(x, wh);
                let rh = tape.mul(z, h); // stand-in for reset gate
                let rhu = tape.matmul(rh, uh);
                let cand_in = tape.add(xwh, rhu);
                let cand = tape.tanh(cand_in);
                let zi = tape.one_minus(z);
                let keep = tape.mul(zi, h);
                let take = tape.mul(z, cand);
                let hnew = tape.add(keep, take);
                tape.mean_all(hnew)
            },
            &[x, h, wz, uz, bz, wh, uh],
            1e-5,
        );
    }

    #[test]
    fn grad_gru_seg() {
        // Leaves: x, h, then Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh.
        let (rows, in_dim, hid) = (5, 3, 4);
        let mut leaves = vec![rand_t(rows, in_dim, 60), rand_t(rows, hid, 61)];
        for (i, (r, c)) in [(in_dim, hid), (hid, hid), (1, hid)]
            .iter()
            .cycle()
            .take(9)
            .enumerate()
        {
            leaves.push(rand_t(*r, *c, 62 + i as u64));
        }
        let seg = SegmentPlan::from_lens(&[2, 0, 3]);
        grad_check(
            move |tape, _| {
                let p = GruParams {
                    wz: Var(2),
                    uz: Var(3),
                    bz: Var(4),
                    wr: Var(5),
                    ur: Var(6),
                    br: Var(7),
                    wh: Var(8),
                    uh: Var(9),
                    bh: Var(10),
                };
                let o = tape.gru_seg(Var(0), Var(1), &p, &seg);
                let sq = tape.mul(o, o);
                tape.sum_all(sq)
            },
            &leaves,
            1e-5,
        );
    }

    /// The fused step's saved gates are arena buffers: counted by
    /// `value_scalars`, returned to the pool on `reset`, and drawn again by
    /// the replay without a fresh allocation.
    #[test]
    fn gru_seg_saved_gates_live_in_the_arena() {
        let (rows, hid) = (6, 4);
        let x = rand_t(rows, 3, 80);
        let h = rand_t(rows, hid, 81);
        let params: Vec<Tensor> = (0..9)
            .map(|i| match i % 3 {
                0 => rand_t(3, hid, 82 + i),
                1 => rand_t(hid, hid, 82 + i),
                _ => rand_t(1, hid, 82 + i),
            })
            .collect();
        let seg = SegmentPlan::from_lens(&[2, 0, 4]);
        let run = |tape: &mut Tape| {
            let (vx, vh) = (tape.leaf_copied(&x), tape.leaf_copied(&h));
            let v: Vec<Var> = params.iter().map(|t| tape.leaf_copied(t)).collect();
            let p = GruParams {
                wz: v[0],
                uz: v[1],
                bz: v[2],
                wr: v[3],
                ur: v[4],
                br: v[5],
                wh: v[6],
                uh: v[7],
                bh: v[8],
            };
            let before = tape.value_scalars();
            tape.gru_seg(vx, vh, &p, &seg);
            tape.value_scalars() - before
        };
        let mut tape = Tape::new();
        // The output plus z, r, c and r ⊙ h.
        assert_eq!(run(&mut tape), 5 * rows * hid);
        let (misses, scalars) = (tape.reuse_misses(), tape.value_scalars());
        tape.reset();
        assert_eq!(tape.pool_scalars(), scalars);
        run(&mut tape);
        assert_eq!(tape.reuse_misses(), misses, "replay allocated");
        assert_eq!(tape.pool_scalars(), 0);
    }

    #[test]
    fn grad_replace_rows_plan() {
        let state = rand_t(5, 3, 70);
        let rows = rand_t(2, 3, 71);
        let plan = IndexPlan::new(vec![3, 1]);
        grad_check(
            move |tape, _| {
                let o = tape.replace_rows_plan(Var(0), Var(1), &plan);
                let sq = tape.mul(o, o);
                tape.sum_all(sq)
            },
            &[state, rows],
            1e-6,
        );
    }

    /// `replace_rows_plan` against the mask / scatter / add chain it
    /// replaces, bitwise in values and gradients: a NaN state row (replaced
    /// and kept), negative zeros in the state and in the new rows, and a
    /// later op that reads the new rows first in backward.
    #[test]
    fn replace_rows_plan_matches_mask_scatter_add_bitwise() {
        let state = Tensor::from_vec(
            4,
            3,
            vec![
                -0.0,
                1.5,
                -2.0, //
                0.25,
                -0.0,
                3.0, //
                f64::NAN,
                f64::NAN,
                f64::NAN, //
                f64::NAN,
                -1.0,
                -0.0,
            ],
        );
        let rows = Tensor::from_vec(2, 3, vec![-0.0, 0.5, -0.75, 2.0, -0.0, 0.0]);
        let plan = IndexPlan::new(vec![2, 0]);
        let weights = Tensor::from_fn(4, 3, |r, c| if (r + c) % 2 == 0 { -1.5 } else { 0.5 });
        let run = |fused: bool| {
            let mut tape = Tape::new();
            let vs = tape.leaf(state.clone());
            let vr = tape.leaf(rows.clone());
            let out = if fused {
                tape.replace_rows_plan(vs, vr, &plan)
            } else {
                let keep = Tensor::from_fn(4, 3, |r, _| if r == 2 || r == 0 { 0.0 } else { 1.0 });
                let kept = tape.mul_const(vs, &keep);
                let scattered = tape.scatter_add_rows_plan(vr, &plan, 4);
                tape.add(kept, scattered)
            };
            let msg = tape.scatter_add_rows_plan(vr, &IndexPlan::new(vec![1, 1]), 2);
            let weighted = tape.mul_const(out, &weights);
            let a = tape.sum_all(weighted);
            let b = tape.sum_all(msg);
            let loss = tape.add(a, b);
            let grads = tape.backward(loss);
            [
                bits(tape.value(out)),
                bits(grads.get(vs).unwrap()),
                bits(grads.get(vr).unwrap()),
            ]
        };
        let (fused, unfused) = (run(true), run(false));
        assert_eq!(fused, unfused);
        // The cases the test is for are really there: NaN passes through,
        // the adds turn every -0.0 into +0.0 (a plain row copy would not),
        // and masked gradients of negative weights are -0.0.
        let out = &fused[0];
        assert!(out.iter().any(|&b| f64::from_bits(b).is_nan()));
        assert!(
            !out.contains(&(-0.0f64).to_bits()),
            "-0.0 survived the adds"
        );
        assert!(fused[1].contains(&(-0.0f64).to_bits()), "no g * 0.0 = -0.0");
    }

    #[test]
    fn values_are_correct_for_simple_graph() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = tape.leaf(Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        let s = tape.add(a, b);
        assert_eq!(tape.value(s).data(), &[4.0, 6.0]);
        let m = tape.mul(s, s);
        assert_eq!(tape.value(m).data(), &[16.0, 36.0]);
        let l = tape.sum_all(m);
        assert_eq!(tape.value(l).get(0, 0), 52.0);
        let grads = tape.backward(l);
        // dL/da = 2*s = [8, 12]
        assert_eq!(grads.get(a).unwrap().data(), &[8.0, 12.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[8.0, 12.0]);
    }

    #[test]
    fn diamond_graph_accumulates_gradients() {
        // loss = sum(a*a + a): grad = 2a + 1
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]));
        let sq = tape.mul(a, a);
        let s = tape.add(sq, a);
        let l = tape.sum_all(s);
        let grads = tape.backward(l);
        assert_eq!(grads.get(a).unwrap().data(), &[3.0, -3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(2, 2));
        tape.backward(a);
    }

    #[test]
    fn unused_nodes_get_no_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 1, vec![2.0]));
        let unused = tape.leaf(Tensor::from_vec(1, 1, vec![5.0]));
        let l = tape.sum_all(a);
        let grads = tape.backward(l);
        assert!(grads.get(unused).is_none());
        assert!(grads.get(a).is_some());
    }

    #[test]
    fn plan_ops_match_vec_ops_bitwise() {
        let a = rand_t(4, 3, 31);
        let idx = vec![0, 2, 2, 3, 1];
        let scat = vec![1, 0, 1, 2, 2];

        let mut t1 = Tape::new();
        let va1 = t1.leaf(a.clone());
        let g1 = t1.gather_rows(va1, idx.clone());
        let s1 = t1.scatter_add_rows(g1, scat.clone(), 3);
        let l1 = t1.sum_all(s1);
        let gr1 = t1.backward(l1);

        let mut t2 = Tape::new();
        let va2 = t2.leaf(a.clone());
        let g2 = t2.gather_rows_plan(va2, &IndexPlan::new(idx));
        let s2 = t2.scatter_add_rows_plan(g2, &IndexPlan::new(scat), 3);
        let l2 = t2.sum_all(s2);
        let gr2 = t2.backward(l2);

        assert_eq!(t1.value(s1), t2.value(s2));
        assert_eq!(gr1.get(va1), gr2.get(va2));
    }

    #[test]
    fn mul_const_shared_matches_mul_const() {
        let a = rand_t(3, 2, 32);
        let mask = Tensor::from_fn(3, 2, |r, c| if (r + c) % 2 == 0 { 1.0 } else { 0.25 });
        let mut t1 = Tape::new();
        let va1 = t1.leaf(a.clone());
        let m1 = t1.mul_const(va1, &mask);
        let l1 = t1.sum_all(m1);
        let gr1 = t1.backward(l1);

        let shared = Arc::new(mask);
        let mut t2 = Tape::new();
        let va2 = t2.leaf(a);
        let m2 = t2.mul_const_shared(va2, &shared);
        let l2 = t2.sum_all(m2);
        let gr2 = t2.backward(l2);

        assert_eq!(t1.value(m1), t2.value(m2));
        assert_eq!(gr1.get(va1), gr2.get(va2));
    }

    /// The load-bearing batched-kernel guarantee at the op level: a
    /// seg_matmul/seg_add_row/seg_mse pipeline over concatenated samples
    /// produces, per segment, bitwise the values and gradients of running
    /// each sample through matmul/add_row/mse on its own tape.
    #[test]
    fn seg_ops_match_per_sample_ops_bitwise() {
        let lens = [3usize, 0, 2, 4];
        let total: usize = lens.iter().sum();
        let x = rand_t(total, 3, 40);
        let w = rand_t(3, 2, 41);
        let b = rand_t(1, 2, 42);
        let target = rand_t(total, 2, 43);
        let seg = SegmentPlan::from_lens(&lens);

        // Batched: one tape over all rows.
        let mut bt = Tape::new();
        let vx = bt.leaf(x.clone());
        let vw = bt.leaf(w.clone());
        let vb = bt.leaf(b.clone());
        let mm = bt.seg_matmul(vx, vw, &seg);
        let biased = bt.seg_add_row(mm, vb, &seg);
        // seg_mse requires non-empty segments: fold only the active ones.
        let active: Vec<usize> = lens.iter().copied().filter(|&l| l > 0).collect();
        let aseg = SegmentPlan::from_lens(&active);
        let losses = bt.seg_mse(biased, &target, &aseg);
        let l = bt.sum_all(losses);
        let bgrads = bt.backward(l);

        // Per-sample: one tape per non-empty segment.
        let mut ai = 0usize;
        for s in 0..seg.n_segments() {
            let (lo, hi) = seg.range(s);
            if lo == hi {
                assert!(bgrads.seg_get(vw, s).is_none());
                assert!(bgrads.seg_get(vb, s).is_none());
                continue;
            }
            let mut pt = Tape::new();
            let px = pt.leaf(x.rows_copy(lo, hi));
            let pw = pt.leaf(w.clone());
            let pb = pt.leaf(b.clone());
            let pmm = pt.matmul(px, pw);
            let pbiased = pt.add_row(pmm, pb);
            let ploss = pt.mse(pbiased, &target.rows_copy(lo, hi));
            let pgrads = pt.backward(ploss);

            // Forward values bit-identical.
            assert_eq!(
                &bt.value(biased).rows_copy(lo, hi),
                pt.value(pbiased),
                "segment {s} forward mismatch"
            );
            assert_eq!(
                bt.value(losses).get(ai, 0),
                pt.value(ploss).get(0, 0),
                "segment {s} loss mismatch"
            );
            // Per-segment weight/bias gradients bit-identical.
            assert_eq!(
                bgrads.seg_get(vw, s).unwrap(),
                pgrads.get(pw).unwrap(),
                "segment {s} weight grad mismatch"
            );
            assert_eq!(
                bgrads.seg_get(vb, s).unwrap(),
                pgrads.get(pb).unwrap(),
                "segment {s} bias grad mismatch"
            );
            // Data gradient rows bit-identical.
            assert_eq!(
                &bgrads.get(vx).unwrap().rows_copy(lo, hi),
                pgrads.get(px).unwrap(),
                "segment {s} input grad mismatch"
            );
            ai += 1;
        }
        assert!(bgrads.has_seg(vw) && bgrads.has_seg(vb));
        assert!(!bgrads.has_seg(vx));
    }

    /// Arena contract: after the first pass, replaying the same op sequence
    /// through `reset` allocates every value buffer from the pool.
    #[test]
    fn reset_recycles_all_value_buffers() {
        let x = rand_t(6, 4, 50);
        let w = rand_t(4, 3, 51);
        let run = |tape: &mut Tape| {
            let vx = tape.leaf_copied(&x);
            let vw = tape.leaf_copied(&w);
            let mm = tape.matmul(vx, vw);
            let act = tape.tanh(mm);
            let l = tape.mean_all(act);
            tape.value(l).get(0, 0)
        };
        let mut tape = Tape::new();
        let first = run(&mut tape);
        let nodes = tape.len();
        let misses_after_first = tape.reuse_misses();
        for _ in 0..5 {
            tape.reset();
            let again = run(&mut tape);
            assert_eq!(first.to_bits(), again.to_bits());
        }
        // Every node value in every replay came from the pool.
        assert_eq!(tape.reuse_misses(), misses_after_first);
        assert_eq!(tape.reuse_hits(), 5 * nodes as u64);
        assert_eq!(tape.max_nodes(), nodes);
        assert!(tape.max_scalars() > 0);
        // Poison state clears on reset.
        let mut t = Tape::new();
        t.leaf(Tensor::from_vec(1, 1, vec![f64::NAN]));
        assert!(t.poisoned());
        t.reset();
        assert!(!t.poisoned());
    }

    /// A tape whose pool holds one buffer of each capacity in `caps`.
    fn pooled(caps: &[usize]) -> Tape {
        let mut tape = Tape::new();
        for &n in caps {
            tape.leaf(Tensor::zeros(1, n));
        }
        tape.reset();
        tape
    }

    fn pool_caps(tape: &Tape) -> Vec<usize> {
        tape.pool.iter().map(Vec::capacity).collect()
    }

    /// Best fit: a request takes the smallest pooled buffer whose capacity
    /// holds it, whatever order the buffers entered the pool in.
    #[test]
    fn best_fit_takes_the_smallest_buffer_that_fits() {
        let mut tape = pooled(&[25, 4, 16, 9]);
        assert_eq!(pool_caps(&tape), [4, 9, 16, 25]);
        let t = tape.alloc_tensor(2, 5);
        assert_eq!((t.rows(), t.cols()), (2, 5));
        assert!(t.data().iter().all(|v| v.to_bits() == 0));
        assert_eq!(t.into_data().capacity(), 16);
        assert_eq!(pool_caps(&tape), [4, 9, 25]);
        // An exact fit beats every larger buffer.
        assert_eq!(tape.alloc_tensor(3, 3).into_data().capacity(), 9);
        assert_eq!((tape.reuse_hits(), tape.reuse_misses()), (2, 0));
    }

    /// A miss allocates exactly the request and retires the largest pooled
    /// buffer, which is too small for it, so the pool cannot grow a buffer
    /// per miss.
    #[test]
    fn a_miss_retires_the_largest_buffer() {
        let mut tape = pooled(&[4, 9, 16]);
        let t = tape.alloc_tensor(10, 10);
        assert_eq!(t.into_data().capacity(), 100);
        assert_eq!((tape.reuse_hits(), tape.reuse_misses()), (0, 1));
        assert_eq!(pool_caps(&tape), [4, 9]);
        // An empty pool still answers.
        let mut empty = Tape::new();
        assert_eq!(empty.alloc_tensor(2, 3).data().len(), 6);
        assert_eq!(empty.pool_scalars(), 0);
    }

    /// No handed-out buffer is ever grown: each comes back at the capacity
    /// it had in the pool (or, on a miss, at the request's size), over
    /// rounds of differently shaped passes through one tape.
    #[test]
    fn a_handed_out_buffer_is_never_grown() {
        let mut tape = Tape::new();
        let rounds: [&[(usize, usize)]; 4] = [
            &[(3, 4), (1, 1), (8, 8)],
            &[(2, 2), (6, 6), (9, 9), (3, 3)],
            &[(9, 9), (1, 2)],
            &[(4, 4), (8, 8), (1, 1), (2, 3)],
        ];
        for shapes in rounds {
            for &(r, c) in shapes {
                let before = pool_caps(&tape);
                let buf = tape.alloc_tensor(r, c).into_data();
                let fit = before.iter().copied().find(|&b| b >= r * c);
                assert_eq!(
                    buf.capacity(),
                    fit.unwrap_or(r * c),
                    "{r}x{c} from {before:?}"
                );
                // Record it, as an op would, so `reset` pools it again.
                tape.leaf(Tensor::from_vec(r, c, buf));
            }
            tape.reset();
            // No more buffers than the largest pass drew.
            assert!(tape.pool.len() <= 4, "{:?}", pool_caps(&tape));
        }
    }
}
