//! # routenet-obs
//!
//! Zero-dependency observability for the RouteNet suite: a process-wide
//! metrics registry (monotonic counters, gauges, log-spaced histograms),
//! lightweight span timers, and two sinks — a human-readable end-of-run
//! summary table and a JSONL event log written with the same atomic-write
//! discipline as the training checkpoints.
//!
//! ## Design
//!
//! The entry point is [`Telemetry`], a cheaply cloneable handle that is
//! either *disabled* (the default — every operation is a single `Option`
//! check and returns immediately) or backed by a shared recorder. Configs
//! (simnet's `SimConfig`, core's `TrainConfig`) carry the handle as a
//! `#[serde(skip)]` field so it never leaks into checkpoints or datasets.
//!
//! **Overhead budget**: instrumented hot loops (the simulator event loop,
//! the trainer batch loop) must never call into the registry per event.
//! They aggregate into local scalars and emit a single [`Event`] per run or
//! per epoch; the disabled path costs one branch per run. The registry is
//! one `Mutex`, and every write to it allocates its key, so the root test
//! `tests/alloc_counts.rs` holds the loops to that: its
//! `simulator_event_loop_does_not_allocate_per_event` and
//! `training_calls_telemetry_per_epoch_not_per_minibatch` cases require the
//! allocations and events an in-memory handle adds over a disabled one to
//! stay the same at 20 s and 80 s of simulation and at 1 and 6 minibatches
//! per epoch.
//!
//! **Durability and cost**: the JSONL sink is not append-only. Every
//! emitted event rewrites the full event log through the canonical atomic
//! writer in `routenet-faults` (temp-file + fsync + rename), so an emit
//! costs O(events so far) and a run of n events writes O(n²) bytes. Events
//! are therefore kept epoch- or run-scale. Readers never observe a torn
//! line; the log only ever grows. Writes go through the injectable IO seam
//! with transient-error retry by default; see [`Telemetry::to_file_with_fs`].
//!
//! **Graceful degradation**: the sink is a pure observer, so its failures
//! must never take the run down. A failed write is counted and deferred to
//! [`Telemetry::finish`]; after [`DEGRADE_THRESHOLD`] *consecutive*
//! failures the sink stops touching the filesystem entirely and counts
//! dropped events instead ([`Telemetry::dropped_events`]). Because each
//! flush rewrites the full log, a later successful write — including the
//! last-gasp flush in `finish()` — recovers every "dropped" event.

#![expect(
    clippy::disallowed_types,
    reason = "the registry is one Mutex shared by every clone of a handle; hot loops aggregate locally and call it once per run or epoch (tests/alloc_counts.rs)"
)]

use routenet_faults::{atomic_write_with, FsHandle};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Consecutive sink-write failures after which the file sink degrades to
/// dropping events (counted, recoverable by a later full-log flush).
pub const DEGRADE_THRESHOLD: u64 = 3;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured telemetry event. Serialized externally tagged, one JSON
/// object per line in the `.telemetry.jsonl` log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A run began (always the first event in a log).
    RunStart {
        /// Name of the emitting binary or subsystem.
        bin: String,
        /// Run label (typically derived from the output path).
        run: String,
    },
    /// One accepted training epoch.
    Epoch {
        /// Epoch index (0-based).
        epoch: usize,
        /// Mean training loss over the epoch's batches.
        train_loss: f64,
        /// Validation loss, if a validation set was given.
        val_loss: Option<f64>,
        /// Learning rate the epoch ran with.
        lr: f64,
        /// Mean post-clip global gradient norm over the epoch's batches.
        grad_norm: f64,
        /// Training-set samples processed per wall-clock second.
        samples_per_s: f64,
    },
    /// A divergence-recovery rollback (the epoch was retried).
    Rollback {
        /// Epoch that diverged.
        epoch: usize,
        /// What tripped the detector (display form).
        reason: String,
        /// Learning rate the failed attempt ran with.
        lr_before: f64,
        /// Learning rate after the multiplicative backoff.
        lr_after: f64,
    },
    /// One durable training-state checkpoint write.
    CheckpointWrite {
        /// `epoch_next` of the written state.
        epoch: usize,
        /// Size of the checkpoint file, bytes.
        bytes: u64,
        /// Wall-clock write latency, seconds.
        write_s: f64,
    },
    /// Cost metrics of one discrete-event simulation run.
    SimRun {
        /// Events processed by the event loop.
        events: u64,
        /// Events per wall-clock second.
        events_per_s: f64,
        /// Packets generated over the full horizon.
        packets_generated: u64,
        /// Measured packets delivered end-to-end.
        packets_delivered: u64,
        /// Measured packets dropped at full buffers.
        packets_dropped: u64,
        /// Most events queued in the event heap at once. Events the loop
        /// handles without queuing (a packet's first hop when nothing else
        /// is due at that instant, its delivery) never count.
        heap_high_water: usize,
        /// Wall-clock duration of the run, seconds.
        wall_s: f64,
    },
    /// One dataset-generation run (aggregated over workers).
    DatasetGen {
        /// Topology the dataset was generated on.
        topology: String,
        /// Samples generated.
        samples: usize,
        /// Worker threads used.
        workers: usize,
        /// Wall-clock duration, seconds.
        wall_s: f64,
        /// Mean per-sample generation time, seconds.
        mean_sample_s: f64,
        /// Slowest sample, seconds.
        max_sample_s: f64,
    },
    /// One lenient dataset load (quarantine accounting).
    DatasetLoad {
        /// Source path.
        path: String,
        /// Samples loaded successfully.
        loaded: usize,
        /// Lines quarantined as unparseable.
        quarantined: usize,
        /// Whether the final line looked like a torn write.
        torn_tail: bool,
    },
    /// One evaluation-summary emission (e.g. per topology).
    Eval {
        /// Grouping label (topology or dataset name).
        scope: String,
        /// Paired observations evaluated.
        n: usize,
        /// Mean absolute error, seconds.
        mae: f64,
        /// Median relative error.
        median_re: f64,
        /// 95th-percentile relative error.
        p95_re: f64,
        /// Pearson correlation between predictions and truth.
        pearson_r: f64,
    },
    /// End-of-run digest of one serving-daemon session (`routenet-serve`).
    Serve {
        /// Queries accepted into the batching queue.
        queries: u64,
        /// Responses written back to clients (success or typed error).
        responses: u64,
        /// Queries shed because the bounded queue was full.
        shed: u64,
        /// Micro-batches executed through the batched forward pass.
        batches: u64,
        /// Sustained queries per wall-clock second over the session.
        qps: f64,
        /// Median enqueue-to-response latency, seconds.
        p50_latency_s: f64,
        /// 95th-percentile enqueue-to-response latency, seconds.
        p95_latency_s: f64,
        /// Mean micro-batch size (queries per batch).
        mean_batch: f64,
        /// Largest micro-batch executed.
        max_batch: u64,
        /// Wall-clock duration of the serving session, seconds.
        wall_s: f64,
    },
    /// The bounded serve queue entered an overload episode and began
    /// shedding queries (emitted once per episode, not per shed query —
    /// the file sink rewrites the full log per event, so per-query
    /// emission under overload would be quadratic exactly when the daemon
    /// is busiest).
    QueryShed {
        /// Queue occupancy when shedding began (the configured capacity).
        queue_len: usize,
        /// Queries shed so far this session, including this one.
        shed_total: u64,
    },
    /// The run ended (always the last event in a complete log).
    RunEnd {
        /// Total wall-clock duration of the run, seconds.
        wall_s: f64,
    },
}

impl Event {
    /// The variant name — the external tag used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "RunStart",
            Event::Epoch { .. } => "Epoch",
            Event::Rollback { .. } => "Rollback",
            Event::CheckpointWrite { .. } => "CheckpointWrite",
            Event::SimRun { .. } => "SimRun",
            Event::DatasetGen { .. } => "DatasetGen",
            Event::DatasetLoad { .. } => "DatasetLoad",
            Event::Eval { .. } => "Eval",
            Event::Serve { .. } => "Serve",
            Event::QueryShed { .. } => "QueryShed",
            Event::RunEnd { .. } => "RunEnd",
        }
    }
}

/// The JSONL envelope: a sequence number (strictly increasing within a run),
/// seconds since the run started, and the event payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Emission order, starting at 0.
    pub seq: u64,
    /// Seconds since the telemetry handle was created.
    pub elapsed_s: f64,
    /// The event payload.
    pub event: Event,
}

// ---------------------------------------------------------------------------
// Histogram (log-spaced bins plus sum/max, so the summary table can report
// means without storing observations)
// ---------------------------------------------------------------------------

/// Fixed-memory log-spaced histogram for positive values (durations).
///
/// Geometric bins between `lo` and `hi`, edge-clamped records, log-space
/// quantile interpolation. Additionally tracks the exact sum and max so
/// summary means are not quantized by the binning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        // 1e-7 s .. 1e4 s covers sub-microsecond spans to multi-hour runs at
        // ~22% relative resolution for 128 bins.
        Histogram::new(1e-7, 1e4, 128)
    }
}

impl Histogram {
    /// Histogram over `[lo, hi]` with `bins` geometric bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && bins >= 2);
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Record a non-negative observation. Only the *bin index* clamps to
    /// `[lo, hi]`; `sum` and `max` accumulate the observation itself, so
    /// [`Histogram::mean`] and [`Histogram::max`] stay exact even when
    /// observations fall below the bucket floor (clamping them first biased
    /// the reported mean upward). Negative values clamp to zero — durations
    /// cannot be negative, but a caller bug must not corrupt the sum.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let raw = x.max(0.0);
        let clamped = raw.max(self.lo);
        let b = self.counts.len() as f64;
        let t = (clamped / self.lo).ln() / (self.hi / self.lo).ln();
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the bin position is floored at zero, and min() clamps it to the last bin"
        )]
        let i = ((t * b).floor().max(0.0) as usize).min(self.counts.len() - 1);
        if let Some(c) = self.counts.get_mut(i) {
            *c += 1;
        }
        self.total += 1;
        self.sum += raw;
        self.max = self.max.max(raw);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of the observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// `q`-quantile (`0 < q <= 1`), interpolated in log space, or `None`
    /// when empty.
    ///
    /// The top bin doubles as an overflow bucket: observations above `hi`
    /// land there, and a quantile resolving in it interpolates toward the
    /// observed maximum instead of the nominal `hi` edge — previously the
    /// answer was capped at `hi` while `max()` reported the true maximum,
    /// so p95 could sit below values the histogram demonstrably saw. In
    /// every bin the result is clamped to the observed maximum, so
    /// `quantile(q) <= max()` holds for all `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q <= 1.0);
        if self.total == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "q in (0, 1] is asserted above, so target lies in 1..=total"
        )]
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if cum + c >= target {
                let b = self.counts.len() as f64;
                let frac = if c == 0 {
                    0.5
                } else {
                    (target - cum) as f64 / c as f64
                };
                let v = if i + 1 == self.counts.len() && self.max > self.hi {
                    // Overflow fold: interpolate between the top bin's
                    // lower edge and the observed max.
                    let edge = self.lo * (self.hi / self.lo).powf(i as f64 / b);
                    edge * (self.max / edge).powf(frac)
                } else {
                    let t = (i as f64 + frac) / b;
                    self.lo * (self.hi / self.lo).powf(t)
                };
                return Some(v.min(self.max));
            }
            cum += c;
        }
        Some(self.max)
    }
}

/// Point-in-time digest of one named histogram, for tests and tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Exact mean, seconds.
    pub mean: f64,
    /// Median (log-interpolated), seconds.
    pub p50: f64,
    /// 95th percentile (log-interpolated), seconds.
    pub p95: f64,
    /// Largest observation, seconds.
    pub max: f64,
}

// ---------------------------------------------------------------------------
// Recorder internals
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Sink {
    /// Keep records in memory only (tests, probes).
    Memory,
    /// Rewrite the full JSONL log atomically on every emitted event.
    File(PathBuf),
}

#[derive(Debug, Default)]
struct State {
    seq: u64,
    records: Vec<Record>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    write_errors: u64,
    last_error: Option<String>,
    /// Current streak of failed sink writes (reset by any success).
    consecutive_failures: u64,
    /// Events not written to the sink after degradation kicked in.
    dropped_events: u64,
}

impl State {
    /// Degraded: the failure streak reached [`DEGRADE_THRESHOLD`], so sink
    /// writes are skipped and events are counted as dropped instead.
    fn degraded(&self) -> bool {
        self.consecutive_failures >= DEGRADE_THRESHOLD
    }
}

#[derive(Debug)]
struct Inner {
    bin: String,
    run: String,
    start: Instant,
    sink: Sink,
    fs: FsHandle,
    state: Mutex<State>,
}

fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    // Telemetry must never take a run down: a panic while holding the lock
    // (impossible in this module, but cheap to defend against) degrades to
    // using the state as-is rather than poisoning every later metric call.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Telemetry handle
// ---------------------------------------------------------------------------

/// A cheaply cloneable telemetry handle: either disabled (default; every
/// operation is one `Option` check) or backed by a shared recorder that
/// accumulates metrics and streams events to a sink.
///
/// Configs embed a `Telemetry` behind `#[serde(skip)]`, so the handle never
/// reaches checkpoints or dataset files, and two configs differing only in
/// telemetry wiring compare equal (see the [`PartialEq`] impl).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// Telemetry destinations are wiring, not configuration: resume
/// compatibility and config round-trips must not depend on where metrics
/// go, so all handles compare equal.
impl PartialEq for Telemetry {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Telemetry({}/{})", inner.bin, inner.run),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// The no-op handle: every operation returns immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle that keeps records in memory (tests, probes).
    pub fn in_memory(bin: &str, run: &str) -> Self {
        Telemetry::with_sink(bin, run, Sink::Memory, FsHandle::real())
    }

    /// An enabled handle that atomically rewrites the JSONL log at `path`
    /// on every emitted event. Emits [`Event::RunStart`] immediately, so a
    /// crashed run still leaves a parseable marker on disk. Writes go
    /// through the default IO seam (real filesystem with transient-error
    /// retry).
    pub fn to_file(bin: &str, run: &str, path: impl AsRef<Path>) -> Self {
        Telemetry::to_file_with_fs(bin, run, path, FsHandle::default())
    }

    /// [`Telemetry::to_file`] with an explicit IO seam, so chaos tests can
    /// inject sink faults and assert the observer property.
    pub fn to_file_with_fs(bin: &str, run: &str, path: impl AsRef<Path>, fs: FsHandle) -> Self {
        Telemetry::with_sink(bin, run, Sink::File(path.as_ref().to_path_buf()), fs)
    }

    fn with_sink(bin: &str, run: &str, sink: Sink, fs: FsHandle) -> Self {
        let tel = Telemetry {
            inner: Some(Arc::new(Inner {
                bin: bin.to_string(),
                run: run.to_string(),
                start: Instant::now(),
                sink,
                fs,
                state: Mutex::new(State::default()),
            })),
        };
        tel.emit(Event::RunStart {
            bin: bin.to_string(),
            run: run.to_string(),
        });
        tel
    }

    /// True when backed by a recorder. Instrumented hot loops check this
    /// once per run/epoch and aggregate locally in between.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append one event to the log (and flush it, for file sinks).
    pub fn emit(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        let rec = Record {
            seq: st.seq,
            elapsed_s: inner.start.elapsed().as_secs_f64(),
            event,
        };
        st.seq += 1;
        st.records.push(rec);
        if let Sink::File(path) = &inner.sink {
            if st.degraded() {
                // The sink earned a time-out: stop touching the filesystem
                // and count the event as dropped. Recoverable — any later
                // successful full-log flush (e.g. in `finish()`) rewrites
                // every record, including these.
                st.dropped_events += 1;
            } else if let Err(e) = flush_jsonl(&inner.fs, path, &st.records) {
                // Telemetry failures must not fail the run; they surface
                // through `finish()` and the write-error counter instead.
                st.write_errors += 1;
                st.consecutive_failures += 1;
                st.last_error = Some(e.to_string());
            } else {
                st.consecutive_failures = 0;
            }
        }
    }

    /// Add `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        *st.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        st.gauges.insert(name.to_string(), value);
    }

    /// Record a duration (seconds) into the named histogram.
    pub fn observe_s(&self, name: &str, seconds: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock(&inner.state);
        st.histograms
            .entry(name.to_string())
            .or_default()
            .record(seconds);
    }

    /// Start a span timer that records its elapsed seconds into the named
    /// histogram when dropped. Near-free when disabled.
    #[must_use = "a span records on drop; binding it to `_` measures nothing"]
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            tel: self.clone(),
            name,
            start: self.enabled().then(Instant::now),
        }
    }

    /// Current value of a counter (0 if never written or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => lock(&inner.state).counters.get(name).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let v = lock(&inner.state).gauges.get(name).copied();
        v
    }

    /// Digest of a named histogram.
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        let inner = self.inner.as_ref()?;
        let st = lock(&inner.state);
        let h = st.histograms.get(name)?;
        Some(HistogramSummary {
            count: h.count(),
            mean: h.mean()?,
            p50: h.quantile(0.5)?,
            p95: h.quantile(0.95)?,
            max: h.max()?,
        })
    }

    /// Snapshot of all emitted records (empty when disabled).
    pub fn records(&self) -> Vec<Record> {
        match &self.inner {
            Some(inner) => lock(&inner.state).records.clone(),
            None => Vec::new(),
        }
    }

    /// Number of failed sink writes so far.
    pub fn write_errors(&self) -> u64 {
        match &self.inner {
            Some(inner) => lock(&inner.state).write_errors,
            None => 0,
        }
    }

    /// Number of events not written to the sink because the handle
    /// degraded after [`DEGRADE_THRESHOLD`] consecutive write failures.
    /// (They remain in memory and in any later successful full-log flush.)
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => lock(&inner.state).dropped_events,
            None => 0,
        }
    }

    /// Human-readable end-of-run summary of the registry and event counts.
    /// Empty string when disabled.
    pub fn summary_table(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let st = lock(&inner.state);
        let mut out = String::new();
        out.push_str(&format!(
            "== telemetry {}/{}: {} events in {:.1}s ==\n",
            inner.bin,
            inner.run,
            st.records.len(),
            inner.start.elapsed().as_secs_f64()
        ));
        if !st.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &st.counters {
                out.push_str(&format!("  {k:<32} {v}\n"));
            }
        }
        if !st.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &st.gauges {
                out.push_str(&format!("  {k:<32} {v:.6}\n"));
            }
        }
        if !st.histograms.is_empty() {
            out.push_str(&format!(
                "timers: {:<26} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                "", "count", "mean_s", "p50_s", "p95_s", "max_s"
            ));
            for (k, h) in &st.histograms {
                out.push_str(&format!(
                    "  {k:<32} {:>8} {:>10.6} {:>10.6} {:>10.6} {:>10.6}\n",
                    h.count(),
                    h.mean().unwrap_or(0.0),
                    h.quantile(0.5).unwrap_or(0.0),
                    h.quantile(0.95).unwrap_or(0.0),
                    h.max().unwrap_or(0.0),
                ));
            }
        }
        out
    }

    /// Emit [`Event::RunEnd`], flush, and report any deferred sink failure
    /// (including how many events were dropped after degradation). Callers
    /// that can print (binaries) should surface the error; library code may
    /// route it into its own error type.
    ///
    /// A degraded file sink gets one last-gasp flush here: because each
    /// flush rewrites the full log, a success at this point recovers every
    /// dropped event on disk (the drop count is still reported).
    #[must_use = "the returned Result carries deferred telemetry write failures"]
    pub fn finish(&self) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        self.emit(Event::RunEnd {
            wall_s: inner.start.elapsed().as_secs_f64(),
        });
        let mut st = lock(&inner.state);
        let mut recovered = false;
        if st.degraded() {
            if let Sink::File(path) = &inner.sink {
                recovered = flush_jsonl(&inner.fs, path, &st.records).is_ok();
            }
        }
        if recovered {
            st.consecutive_failures = 0;
        }
        match &st.last_error {
            Some(msg) => Err(std::io::Error::other(format!(
                "{} telemetry write(s) failed, {} event(s) dropped after degradation{}; last error: {msg}",
                st.write_errors,
                st.dropped_events,
                if recovered {
                    " (final flush succeeded; log on disk is complete)"
                } else {
                    ""
                },
            ))),
            None => Ok(()),
        }
    }
}

/// A drop-scoped span timer created by [`Telemetry::span`].
#[derive(Debug)]
pub struct Span {
    tel: Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.tel.observe_s(self.name, t0.elapsed().as_secs_f64());
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL sink plumbing
// ---------------------------------------------------------------------------

/// Serialize the full record list and rewrite the log atomically through
/// the handle's IO seam. (The former local `atomic_write` copy is gone:
/// `routenet_faults::atomic_write_with` is the single implementation, with
/// collision-free temp names shared by checkpoints and this sink.)
fn flush_jsonl(fs: &FsHandle, path: &Path, records: &[Record]) -> std::io::Result<()> {
    let mut buf = String::new();
    for r in records {
        let line = serde_json::to_string(r).map_err(std::io::Error::other)?;
        buf.push_str(&line);
        buf.push('\n');
    }
    atomic_write_with(fs.fs(), path, buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.counter_add("x", 3);
        tel.gauge_set("g", 1.0);
        tel.observe_s("h", 0.5);
        tel.emit(Event::RunEnd { wall_s: 0.0 });
        drop(tel.span("s"));
        assert_eq!(tel.counter("x"), 0);
        assert!(tel.gauge("g").is_none());
        assert!(tel.records().is_empty());
        assert!(tel.summary_table().is_empty());
        assert!(tel.finish().is_ok());
    }

    #[test]
    fn registry_accumulates() {
        let tel = Telemetry::in_memory("test", "r");
        tel.counter_add("pkts", 2);
        tel.counter_add("pkts", 3);
        tel.gauge_set("lr", 0.1);
        tel.gauge_set("lr", 0.05);
        for v in [0.1, 0.2, 0.4] {
            tel.observe_s("lat", v);
        }
        assert_eq!(tel.counter("pkts"), 5);
        assert_eq!(tel.gauge("lr"), Some(0.05));
        let h = tel.histogram_summary("lat").unwrap();
        assert_eq!(h.count, 3);
        assert!((h.mean - 0.2333).abs() < 1e-3);
        assert!(h.max >= 0.4 && h.p50 > 0.0 && h.p95 > 0.0);
        let table = tel.summary_table();
        assert!(table.contains("pkts") && table.contains("lr") && table.contains("lat"));
    }

    #[test]
    fn seq_is_strictly_increasing_and_starts_with_runstart() {
        let tel = Telemetry::in_memory("test", "r");
        tel.emit(Event::RunEnd { wall_s: 1.0 });
        let recs = tel.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].event.kind(), "RunStart");
        assert!(recs.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1ms .. 1s
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        // ~22% bin resolution: generous brackets.
        assert!((0.3..0.8).contains(&p50), "p50 {p50}");
        assert!((0.7..1.3).contains(&p95), "p95 {p95}");
        assert!((h.mean().unwrap() - 0.5005).abs() < 1e-9);
        assert_eq!(h.max(), Some(1.0));
    }

    #[test]
    fn histogram_mean_and_max_use_raw_sub_lo_values() {
        let mut h = Histogram::new(1e-3, 1.0, 16);
        h.record(1e-6);
        h.record(1e-6);
        h.record(2e-3);
        // Regression: clamping to `lo` before summing reported a mean of
        // (1e-3 + 1e-3 + 2e-3)/3 here — biased upward by the bucket floor.
        let want = (1e-6 + 1e-6 + 2e-3) / 3.0;
        assert!(
            (h.mean().unwrap() - want).abs() < 1e-15,
            "mean {} want {want}",
            h.mean().unwrap()
        );
        assert_eq!(h.max(), Some(2e-3));
        // Negative observations clamp to zero instead of corrupting the sum.
        h.record(-5.0);
        assert_eq!(h.count(), 4);
        assert!((h.mean().unwrap() - want * 3.0 / 4.0).abs() < 1e-15);
    }

    #[test]
    fn histogram_quantile_folds_overflow_toward_observed_max() {
        let mut h = Histogram::new(1e-3, 1.0, 16);
        for _ in 0..100 {
            h.record(5.0); // every observation above `hi`
        }
        let p95 = h.quantile(0.95).unwrap();
        // Regression: the old edge interpolation capped this at hi = 1.0,
        // below a value the histogram saw 100 times.
        assert!(p95 > 1.0, "p95 {p95} stuck at hi");
        assert!(p95 <= 5.0, "p95 {p95} above observed max");
        // A single sub-`lo` observation: the quantile is the observation.
        let mut l = Histogram::new(1e-3, 1.0, 16);
        l.record(1e-7);
        assert_eq!(l.quantile(0.95), Some(1e-7));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn histogram_quantile_never_exceeds_max(
            n in 1usize..64,
            seed in 0u64..1_000_000,
            q in 0.01f64..=1.0,
        ) {
            let mut h = Histogram::new(1e-3, 1.0, 16);
            // Log-uniform samples spanning well below `lo` and above `hi`,
            // from an inline LCG (the vendored proptest has no vector
            // strategies).
            let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            for _ in 0..n {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                h.record(10f64.powf(-7.0 + 10.0 * u)); // 1e-7 .. 1e3
            }
            let max = h.max().unwrap();
            let v = h.quantile(q).unwrap();
            prop_assert!(v <= max, "quantile({q}) = {v} > max = {max}");
        }
    }

    #[test]
    fn span_records_elapsed_time() {
        let tel = Telemetry::in_memory("test", "r");
        {
            let _guard = tel.span("work");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let h = tel.histogram_summary("work").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max >= 0.004, "span recorded {}", h.max);
    }

    #[test]
    fn telemetry_compares_equal_regardless_of_wiring() {
        assert_eq!(Telemetry::disabled(), Telemetry::in_memory("a", "b"));
    }

    #[test]
    fn file_sink_writes_jsonl_through_seam() {
        let dir = std::env::temp_dir().join(format!("rn-obs-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.telemetry.jsonl");
        let tel = Telemetry::to_file("test", "r", &path);
        tel.emit(Event::RunEnd { wall_s: 0.1 });
        assert_eq!(tel.write_errors(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("RunStart") && lines[1].contains("RunEnd"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_degrades_after_consecutive_failures_and_counts_drops() {
        use routenet_faults::{FaultKind, FaultPlan, FaultRule, OpKind};
        let dir = std::env::temp_dir().join(format!("rn-obs-degrade-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.telemetry.jsonl");
        // Every create fails with EIO: the sink can never write.
        let plan = FaultPlan::new().rule(FaultRule::every(1, FaultKind::Eio).on_op(OpKind::Create));
        let (fs, _plan) = FsHandle::faulty(plan);
        let tel = Telemetry::to_file_with_fs("test", "r", &path, fs);
        // RunStart already burned one failure; push past the threshold.
        for i in 0..5 {
            tel.emit(Event::Eval {
                scope: format!("s{i}"),
                n: 1,
                mae: 0.0,
                median_re: 0.0,
                p95_re: 0.0,
                pearson_r: 1.0,
            });
        }
        assert_eq!(tel.write_errors(), DEGRADE_THRESHOLD);
        // 6 events total, 3 failed writes, the rest dropped.
        assert_eq!(tel.dropped_events(), 6 - DEGRADE_THRESHOLD);
        // All events are still in memory: the registry is unaffected.
        assert_eq!(tel.records().len(), 6);
        let err = tel.finish().expect_err("deferred failure must surface");
        let msg = err.to_string();
        assert!(msg.contains("3 telemetry write(s) failed"), "{msg}");
        assert!(msg.contains("4 event(s) dropped"), "{msg}");
        assert!(!path.exists(), "no partial log may appear");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_failure_streak_resets_on_success() {
        use routenet_faults::{FaultKind, FaultPlan, FaultRule, OpKind};
        let dir = std::env::temp_dir().join(format!("rn-obs-streak-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.telemetry.jsonl");
        // Fail writes 2 and 3 only: a success in between any longer streak
        // must keep the sink out of degradation.
        let plan = FaultPlan::new()
            .rule(FaultRule::nth(2, FaultKind::Eio).on_op(OpKind::Create))
            .rule(FaultRule::nth(3, FaultKind::Eio).on_op(OpKind::Create));
        let (fs, _plan) = FsHandle::faulty(plan);
        let tel = Telemetry::to_file_with_fs("test", "r", &path, fs);
        for _ in 0..5 {
            tel.emit(Event::RunEnd { wall_s: 0.0 });
        }
        assert_eq!(tel.write_errors(), 2);
        assert_eq!(tel.dropped_events(), 0, "streak of 2 must not degrade");
        // The last successful flush rewrote the full log: nothing lost.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_sink_recovers_in_final_flush() {
        use routenet_faults::{FaultKind, FaultPlan, FaultRule, OpKind, Trigger};
        let dir = std::env::temp_dir().join(format!("rn-obs-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.telemetry.jsonl");
        // Exactly three failures (the threshold), then the disk heals.
        let plan = FaultPlan::new()
            .rule(FaultRule {
                op: Some(OpKind::Create),
                path_contains: None,
                trigger: Trigger::Nth(1),
                kind: FaultKind::Eio,
            })
            .rule(FaultRule {
                op: Some(OpKind::Create),
                path_contains: None,
                trigger: Trigger::Nth(2),
                kind: FaultKind::Eio,
            })
            .rule(FaultRule {
                op: Some(OpKind::Create),
                path_contains: None,
                trigger: Trigger::Nth(3),
                kind: FaultKind::Eio,
            });
        let (fs, _plan) = FsHandle::faulty(plan);
        let tel = Telemetry::to_file_with_fs("test", "r", &path, fs);
        tel.emit(Event::RunEnd { wall_s: 0.0 }); // failure 2
        tel.emit(Event::RunEnd { wall_s: 0.0 }); // failure 3 -> degraded
        tel.emit(Event::RunEnd { wall_s: 0.0 }); // dropped
        assert_eq!(tel.dropped_events(), 1);
        let err = tel.finish().expect_err("failures still surface");
        assert!(err.to_string().contains("final flush succeeded"), "{err}");
        // The last-gasp flush recovered the complete log, drops included.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
