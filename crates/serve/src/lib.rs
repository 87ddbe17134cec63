//! `routenet-serve`: a long-lived what-if prediction daemon.
//!
//! The paper's case for RouteNet is that a trained GNN answers the what-if
//! queries ("what happens to per-pair delay if this traffic matrix arrives /
//! this flow is rerouted?") that a packet-level simulator is too slow to
//! answer inside an SDN control loop (Rusek et al., SOSR 2019). This crate
//! is that control-loop surface: it loads a trained model once, keeps the
//! compiled message-passing plans of the topologies it has seen, and turns a
//! stream of concurrent scenario queries into micro-batched calls through
//! [`routenet_core::RouteNet`]'s batched forward pass.
//!
//! Design highlights (see DESIGN.md "Serving"):
//!
//! - **Wire format** ([`wire`]): newline-delimited JSON over a raw TCP
//!   socket — hand-rolled framing, zero new dependencies, the same
//!   `Scenario` JSON the dataset files use.
//! - **Plan cache** ([`cache`]): per-topology [`PathTensors`] indexings keyed
//!   by routing equality, FIFO-evicted, deterministic (no hash-order
//!   iteration anywhere — clippy's hash-iteration lints deny it here).
//! - **Micro-batching** ([`server`]): a bounded queue feeds one batcher
//!   thread that drains up to `max_batch` queries per window and runs them
//!   as ONE batched forward pass, reusing a single arena tape.
//! - **Determinism contract**: by the batched-equivalence property
//!   (PR 7; `crates/core/tests/batched_equivalence.rs`), every query's
//!   served predictions are bitwise identical to an offline
//!   [`routenet_core::sample::KpiPredictor::predict_batch`] on the same
//!   scenario, regardless of which queries happened to share its
//!   micro-batch.
//! - **Overload**: when the bounded queue is full the daemon sheds the
//!   query with a typed error response instead of queueing unboundedly;
//!   shedding is observable via the `QueryShed` telemetry event.
//! - **Faults**: [`load_model`] reads the model artifact through the
//!   `routenet-faults` IO seam ([`FsHandle`]), so injected IO faults
//!   surface as typed [`ServeError`]s, never panics; malformed or hostile
//!   socket input is answered with per-query error responses.
//!
//! This crate is a library; the `routenet-serve` binary that runs the
//! daemon lives in `routenet-bench`.
//!
//! [`PathTensors`]: routenet_core::indexing::PathTensors
//! [`FsHandle`]: routenet_faults::FsHandle

pub mod cache;
pub mod engine;
pub mod server;
pub mod wire;

pub use cache::PlanCache;
pub use engine::{load_model, Engine, ServeError};
pub use server::{Server, ServerConfig};
pub use wire::{Request, Response};
