//! # routenet-nn
//!
//! A minimal, self-contained neural-network stack: dense `f64` tensors, a
//! reverse-mode autodiff tape, GRU/dense layers, and the Adam optimizer.
//!
//! The offline Rust ecosystem has no usable GNN framework, so this crate is
//! the substrate on which `routenet-core` builds the RouteNet model. The op
//! set is deliberately small — exactly what message passing over paths and
//! links needs — and every gradient is verified against central finite
//! differences in the test suite.
//!
//! ## Example: one training step
//!
//! ```
//! use routenet_nn::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut store = ParamStore::new();
//! let layer = Dense::new(&mut store, "out", 2, 1, Activation::Linear, &mut rng);
//! let mut opt = Adam::new(&store, 1e-2);
//!
//! let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = Tensor::from_vec(4, 1, vec![0., 1., 1., 2.]); // y = x0 + x1
//! for _ in 0..200 {
//!     let mut sess = Session::new(&store);
//!     let vx = sess.input(x.clone());
//!     let pred = layer.forward(&mut sess, vx);
//!     let loss = sess.tape.mse(pred, &y);
//!     let grads = sess.tape.backward(loss);
//!     let pg = sess.param_grads(&grads);
//!     opt.step(&mut store, &pg);
//! }
//! // The layer learned to sum its inputs.
//! let mut sess = Session::new(&store);
//! let vx = sess.input(Tensor::from_vec(1, 2, vec![3.0, 4.0]));
//! let pred = layer.forward(&mut sess, vx);
//! assert!((sess.tape.value(pred).get(0, 0) - 7.0).abs() < 0.2);
//! ```

#![warn(missing_docs)]

pub mod layers;
pub mod optim;
pub mod params;
pub mod plan;
pub mod tape;
pub mod tensor;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::layers::{Activation, Dense, GruCell, Mlp};
    pub use crate::optim::{clip_global_norm, Adam};
    pub use crate::params::{GradAccumulator, ParamId, ParamStore, Session};
    pub use crate::plan::{IndexPlan, SegmentPlan};
    pub use crate::tape::{Gradients, GruParams, Tape, Var};
    pub use crate::tensor::Tensor;
}

pub use layers::{Activation, Dense, GruCell, Mlp};
pub use optim::Adam;
pub use params::{GradAccumulator, ParamId, ParamStore, Session};
pub use plan::{IndexPlan, SegmentPlan};
pub use tape::{Gradients, GruParams, Tape, Var};
pub use tensor::Tensor;
