//! # routenet-faults
//!
//! Deterministic fault injection for the RouteNet suite's persistence layer.
//! Zero dependencies: the crate sits *below* `routenet-core`, `routenet-obs`,
//! and `routenet-dataset` so every byte those crates put on (or read off)
//! disk can be routed through one injectable seam.
//!
//! Three pieces:
//!
//! * **The IO seam** ([`FaultFs`] / [`FsHandle`], module [`fs`]): a small
//!   trait covering exactly the filesystem operations the workspace
//!   performs (create / write / fsync / rename / remove / read / metadata /
//!   directory fsync). [`RealFs`] is the zero-cost passthrough used in
//!   production; [`InjectFs`] consults a [`FaultPlan`] before every
//!   operation. The canonical atomic writer ([`atomic_write_with`]) lives
//!   here so `core::checkpoint` and the `routenet-obs` file sink share one
//!   implementation (and one collision-free temp-name scheme).
//! * **Fault plans** ([`FaultPlan`], module [`plan`]): a deterministic,
//!   optionally seeded schedule of faults — fail the Nth matching
//!   operation, fail every Kth — filtered by operation kind and path
//!   substring, over a catalog of fault kinds (`ENOSPC`, `EIO`, `EINTR`,
//!   torn write after k bytes, short read, failed rename, failed fsync).
//!   The same plan replayed against the same operation sequence fires the
//!   same faults, which is what makes the chaos corpus pinnable.
//! * **Retry** ([`RetryPolicy`] / [`retry_io`], module [`retry`]): bounded
//!   exponential backoff that retries *transient* errors only
//!   (`Interrupted` / `WouldBlock` / `TimedOut`), never `ENOSPC`-style
//!   hard failures. Sleeping goes through the injectable [`Sleeper`] trait
//!   so tests assert the exact backoff schedule without wall-clock waits.
//!   [`FsHandle::with_retry`] stacks the policy on any seam handle as a
//!   per-operation decorator.
//!
//! Clippy's `disallowed_methods`/`disallowed_types` lints (lists in
//! `clippy.toml`) deny direct `std::fs` use in every library crate but
//! [`fs`] itself, so the boundary is enforced, not aspirational.

pub mod fs;
pub mod plan;
pub mod retry;

pub use fs::{atomic_write_with, FaultFs, FsFile, FsHandle, InjectFs, RealFs, RetryFs};
pub use plan::{FaultKind, FaultPlan, FaultRule, FiredFault, OpKind, Trigger};
pub use retry::{is_transient, retry_io, RecordingSleeper, RetryPolicy, Sleeper, ThreadSleeper};
